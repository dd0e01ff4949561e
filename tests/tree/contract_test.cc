// Frozen-subtree contraction: structure, delta mapping, and end-to-end
// bit-identity.
//
// The structural half checks Contraction directly — open closures, sealed
// leaves, id maps, scenario contraction, the delta edge cases (an edit
// landing exactly on a sealed-subtree root, an edit hidden inside one) and
// placement expansion.  The session half drives the three incremental
// engines (power-exact, power-sym, update-dp) at 1 and 4 threads over a
// contract-enabled SolveSession and a plain twin on the same topology:
// every solve must be bit-identical — results AND work counters (the new
// sealed counters excepted) — whether the warm day ran contracted or not,
// including the tick where a sealed subtree goes dirty and must unseal.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/prng.h"
#include "tree/contract.h"
#include "tree/scenario_delta.h"

namespace treeplace {
namespace {

// --- Structural unit tests --------------------------------------------------

/// root ── a ── a1 (client c_a1), a's client c_a
///      ── b ── b1 (client c_b1), b2 (client c_b2)
///      ── client c_r
struct SmallTree {
  Tree tree;
  NodeId root, a, a1, b, b1, b2;
  NodeId c_r, c_a, c_a1, c_b1, c_b2;
};

SmallTree make_small_tree() {
  SmallTree t;
  TreeBuilder builder;
  t.root = builder.add_root();
  t.a = builder.add_internal(t.root);
  t.a1 = builder.add_internal(t.a);
  t.b = builder.add_internal(t.root);
  t.b1 = builder.add_internal(t.b);
  t.b2 = builder.add_internal(t.b);
  t.c_r = builder.add_client(t.root, 1);
  t.c_a = builder.add_client(t.a, 2);
  t.c_a1 = builder.add_client(t.a1, 3);
  t.c_b1 = builder.add_client(t.b1, 4);
  t.c_b2 = builder.add_client(t.b2, 5);
  builder.set_pre_existing(t.b, 1);
  builder.set_pre_existing(t.b1, 0);
  t.tree = std::move(builder).build();
  return t;
}

Contraction contract_around(const SmallTree& t, std::vector<NodeId> touched) {
  return Contraction(t.tree.topology_ptr(),
                     Contraction::open_closure(t.tree.topology(), touched));
}

TEST(ContractionTest, OpenClosureWalksToTheRoot) {
  const SmallTree t = make_small_tree();
  const Topology& topo = t.tree.topology();
  const std::vector<NodeId> touched{t.a1};
  const std::vector<std::uint8_t> open = Contraction::open_closure(topo,
                                                                   touched);
  EXPECT_EQ(open[topo.internal_index(t.root)], 1);
  EXPECT_EQ(open[topo.internal_index(t.a)], 1);
  EXPECT_EQ(open[topo.internal_index(t.a1)], 1);
  EXPECT_EQ(open[topo.internal_index(t.b)], 0);
  EXPECT_EQ(open[topo.internal_index(t.b1)], 0);
  EXPECT_EQ(open[topo.internal_index(t.b2)], 0);

  // The root stays open even with nothing touched.
  const std::vector<std::uint8_t> empty =
      Contraction::open_closure(topo, std::vector<NodeId>{});
  EXPECT_EQ(empty[topo.internal_index(t.root)], 1);
}

TEST(ContractionTest, SealsMaximalUntouchedSubtrees) {
  const SmallTree t = make_small_tree();
  const Contraction map = contract_around(t, {t.a1});
  const Topology& ctopo = *map.contracted();

  // root, a, a1 survive open; b becomes one sealed leaf; b1/b2 vanish.
  EXPECT_EQ(ctopo.num_internal(), 4u);
  EXPECT_EQ(map.num_sealed(), 1u);
  EXPECT_EQ(map.hidden_internal(), 2u);
  ASSERT_EQ(map.sealed_roots().size(), 1u);
  EXPECT_EQ(map.sealed_roots()[0], t.b);

  const NodeId cb = map.to_contracted(t.b);
  ASSERT_NE(cb, kNoNode);
  EXPECT_EQ(map.to_original(cb), t.b);
  EXPECT_NE(map.sealed()[ctopo.internal_index(cb)], 0);
  // A sealed leaf is childless: its table is injected, never recomputed.
  EXPECT_TRUE(ctopo.children(cb).empty());

  // Hidden nodes (sealed interiors and their clients) have no contracted id.
  EXPECT_EQ(map.to_contracted(t.b1), kNoNode);
  EXPECT_EQ(map.to_contracted(t.b2), kNoNode);
  EXPECT_EQ(map.to_contracted(t.c_b1), kNoNode);

  // Open nodes round-trip, clients of open nodes included.
  for (NodeId id : {t.root, t.a, t.a1, t.c_r, t.c_a, t.c_a1}) {
    const NodeId c = map.to_contracted(id);
    ASSERT_NE(c, kNoNode) << id;
    EXPECT_EQ(map.to_original(c), id);
  }
}

TEST(ContractionTest, ContractedScenarioKeepsOpenStateAndSealedRootPre) {
  const SmallTree t = make_small_tree();
  const Contraction map = contract_around(t, {t.a1});
  const Scenario scen = map.contract(t.tree.scenario());
  const Topology& ctopo = *map.contracted();

  EXPECT_EQ(scen.requests(map.to_contracted(t.c_a1)), 3u);
  EXPECT_EQ(scen.requests(map.to_contracted(t.c_r)), 1u);
  // The sealed root keeps its pre-existing state — engines read a child's
  // E membership to size its leaf table — but owns no clients.
  const NodeId cb = map.to_contracted(t.b);
  EXPECT_TRUE(scen.pre_existing(cb));
  EXPECT_EQ(scen.original_mode(cb), 1);
  EXPECT_EQ(scen.client_mass(cb), 0u);
  // Hidden pre-existing nodes (b1) are simply absent from the contracted E.
  EXPECT_EQ(scen.num_pre_existing(), 1u);
  EXPECT_EQ(ctopo.num_clients(), 3u);
}

TEST(ContractionTest, MapDeltasHandlesSealedAndHiddenEdits) {
  const SmallTree t = make_small_tree();
  const Contraction map = contract_around(t, {t.a1});

  // Open edits renumber.
  const std::vector<ScenarioDelta> open_edits{
      ScenarioDelta::set_requests(t.c_a1, 7),
      ScenarioDelta::set_pre_existing(t.a, 0)};
  const auto mapped = map.map_deltas(open_edits);
  ASSERT_TRUE(mapped.has_value());
  ASSERT_EQ(mapped->size(), 2u);
  EXPECT_EQ((*mapped)[0].node, map.to_contracted(t.c_a1));
  EXPECT_EQ((*mapped)[1].node, map.to_contracted(t.a));

  // A delta landing exactly ON the sealed-subtree root must unseal: the
  // root's own signature is frozen into the injected table.
  EXPECT_FALSE(map.map_deltas(std::vector<ScenarioDelta>{
                     ScenarioDelta::set_pre_existing(t.b, 0)})
                   .has_value());
  EXPECT_FALSE(map.map_deltas(std::vector<ScenarioDelta>{
                     ScenarioDelta::clear_pre_existing(t.b)})
                   .has_value());
  // Edits hidden strictly inside the sealed subtree.
  EXPECT_FALSE(map.map_deltas(std::vector<ScenarioDelta>{
                     ScenarioDelta::set_requests(t.c_b1, 9)})
                   .has_value());
  EXPECT_FALSE(map.map_deltas(std::vector<ScenarioDelta>{
                     ScenarioDelta::set_pre_existing(t.b2, 0)})
                   .has_value());
  // Unattributable edits.
  EXPECT_FALSE(map.map_deltas(std::vector<ScenarioDelta>{
                     ScenarioDelta::clear_all_pre()})
                   .has_value());
}

TEST(ContractionTest, ExpandRenumbersSealedLeavesToSubtreeRoots) {
  const SmallTree t = make_small_tree();
  const Contraction map = contract_around(t, {t.a1});

  Placement contracted;
  contracted.add(map.to_contracted(t.b), 1);   // the sealed leaf itself
  contracted.add(map.to_contracted(t.a1), 0);  // an open node
  const Placement expanded = map.expand(contracted);

  Placement want;
  want.add(t.b, 1);
  want.add(t.a1, 0);
  EXPECT_EQ(expanded, want);
}

// --- Session-level bit-identity ---------------------------------------------

SolveSession::Options contract_options() {
  SolveSession::Options options;
  options.contract = true;
  options.contract_min_internal = 32;
  options.contract_min_shrink = 2;
  return options;
}

void expect_identical(const Solution& got, const Solution& want,
                      const std::string& context) {
  ASSERT_EQ(got.feasible, want.feasible) << context;
  EXPECT_EQ(got.budget_met, want.budget_met) << context;
  EXPECT_EQ(got.placement, want.placement) << context;
  if (!want.feasible) return;
  EXPECT_DOUBLE_EQ(got.breakdown.cost, want.breakdown.cost) << context;
  EXPECT_DOUBLE_EQ(got.power, want.power) << context;
  EXPECT_EQ(got.breakdown.servers, want.breakdown.servers) << context;
  EXPECT_EQ(got.breakdown.reused, want.breakdown.reused) << context;
  ASSERT_EQ(got.frontier.size(), want.frontier.size()) << context;
  for (std::size_t i = 0; i < want.frontier.size(); ++i) {
    EXPECT_DOUBLE_EQ(got.frontier[i].cost, want.frontier[i].cost) << context;
    EXPECT_DOUBLE_EQ(got.frontier[i].power, want.frontier[i].power)
        << context;
    EXPECT_EQ(got.frontier[i].placement, want.frontier[i].placement)
        << context;
  }
}

/// Work counters must match the uncontracted twin exactly; only the two
/// sealed counters are allowed to differ (the twin never seals).
void expect_same_counters(const SolveSession& contracted,
                          const SolveSession& plain,
                          const std::string& context) {
  const SolveSession::Stats c = contracted.stats();
  const SolveSession::Stats p = plain.stats();
  EXPECT_EQ(c.warm_solves, p.warm_solves) << context;
  EXPECT_EQ(c.cold_solves, p.cold_solves) << context;
  EXPECT_EQ(c.nodes_recomputed, p.nodes_recomputed) << context;
  EXPECT_EQ(c.nodes_reused, p.nodes_reused) << context;
  EXPECT_EQ(c.merge_steps, p.merge_steps) << context;
  EXPECT_EQ(c.signatures_checked, p.signatures_checked) << context;
  EXPECT_EQ(c.cells_skipped, p.cells_skipped) << context;
}

struct ContractFuzzSetup {
  std::string algo;
  int num_internal = 96;
  bool single_mode = false;
  int steps = 10;
  double client_probability = 0.5;
  RequestCount max_requests = 2;
};

/// Drives localized delta days over one topology through a contract-enabled
/// session, a plain warm session, and a cold reference.  Deltas stay
/// feasible and mostly attributable so the work-counter comparison is
/// exact; a periodic clear-all forces a decontract + full resweep.
void run_contract_fuzz(const ContractFuzzSetup& setup, int solver_threads) {
  TreeGenConfig config;
  config.num_internal = setup.num_internal;
  config.shape = TreeShape{2, 3};
  config.client_probability = setup.client_probability;
  config.min_requests = 0;
  config.max_requests = setup.max_requests;

  const ModeSet modes = setup.single_mode ? ModeSet::single(10)
                                          : ModeSet({5, 10}, 12.5, 3.0);
  const CostModel costs =
      setup.single_mode
          ? CostModel::simple(0.1, 0.01)
          : CostModel::uniform(modes.count(), 0.1, 0.01, 0.001, 0.001);

  const auto contracted_solver = make_solver(setup.algo);
  const auto plain_solver = make_solver(setup.algo);
  const auto cold_solver = make_solver(setup.algo);
  contracted_solver->set_options(Solver::Options{solver_threads});
  plain_solver->set_options(Solver::Options{solver_threads});
  cold_solver->set_options(Solver::Options{solver_threads});

  bool sealed_somewhere = false;
  for (std::uint64_t index = 0; index < 2; ++index) {
    Tree tree = generate_tree(config, 2026, index);
    Xoshiro256 pre_rng = make_rng(2026, index, RngStream::kPreExisting);
    assign_random_pre_existing(tree, setup.num_internal / 8, pre_rng,
                               setup.single_mode ? 1 : 2);

    SolveSession contracted(tree.topology_ptr(), contract_options());
    SolveSession plain(tree.topology_ptr());
    Xoshiro256 rng = make_rng(2026, index, RngStream::kWorkloadUpdate);

    const auto instance = [&] {
      return setup.single_mode
                 ? Instance::single_mode(tree.topology_ptr(), tree.scenario(),
                                         10, 0.1, 0.01)
                 : Instance{tree.topology_ptr(), tree.scenario(), modes,
                            costs, std::nullopt};
    };

    // Warm both sessions up cold.
    contracted_solver->solve(SolveRequest{instance(), {}, &contracted});
    plain_solver->solve(SolveRequest{instance(), {}, &plain});

    NodeId last_client = kNoNode;
    for (int step = 0; step < setup.steps; ++step) {
      std::vector<ScenarioDelta> deltas;
      if (step > 0 && step % 6 == 0) {
        // Unattributable: both sessions fall back to the full sweep and
        // the contracted one must decontract losslessly first.
        deltas.push_back(ScenarioDelta::clear_all_pre());
      } else {
        // One localized client edit — the shape contraction targets.
        // Mostly re-edit the previous client: the effective set (touched ∪
        // last touched) then stays one root path, which is what lets the
        // fast-path gate — and with it contraction — fire.
        const auto& clients = tree.client_ids();
        const NodeId client =
            (last_client != kNoNode && rng.uniform(0, 3) != 0)
                ? last_client
                : clients[rng.uniform(0, clients.size() - 1)];
        last_client = client;
        deltas.push_back(ScenarioDelta::set_requests(
            client, rng.uniform(0, setup.max_requests)));
        if (rng.uniform(0, 3) == 0) {
          // Same root path: a pre toggle on the edited client's parent.
          deltas.push_back(ScenarioDelta::set_pre_existing(
              tree.parent(client),
              setup.single_mode ? 0 : static_cast<int>(rng.uniform(0, 1))));
        }
      }
      for (const ScenarioDelta& delta : deltas) {
        apply_delta(tree.scenario(), delta);
      }
      const std::string context =
          setup.algo + " threads=" + std::to_string(solver_threads) +
          " tree=" + std::to_string(index) + " step=" + std::to_string(step);
      const Solution cold = cold_solver->solve(instance());
      const Solution warm_contracted = contracted_solver->solve(
          SolveRequest{instance(), deltas, &contracted});
      const Solution warm_plain =
          plain_solver->solve(SolveRequest{instance(), deltas, &plain});
      expect_identical(warm_contracted, cold, context + " contracted");
      expect_identical(warm_plain, cold, context + " plain");
      expect_same_counters(contracted, plain, context);
    }
    if (contracted.stats().subtrees_sealed > 0) sealed_somewhere = true;
    EXPECT_EQ(plain.stats().subtrees_sealed, 0u);
  }
  // The localized days must actually exercise the contracted path.
  EXPECT_TRUE(sealed_somewhere)
      << setup.algo << ": no step ever ran contracted";
}

TEST(ContractedSolveTest, PowerSymBitIdenticalSerial) {
  run_contract_fuzz({"power-sym", 96, false, 10, 0.5, 2},
                    /*solver_threads=*/1);
}

TEST(ContractedSolveTest, PowerSymBitIdenticalThreaded) {
  run_contract_fuzz({"power-sym", 96, false, 10, 0.5, 2},
                    /*solver_threads=*/4);
}

TEST(ContractedSolveTest, PowerExactBitIdenticalSerial) {
  run_contract_fuzz({"power-exact", 64, false, 6, 0.3, 1},
                    /*solver_threads=*/1);
}

TEST(ContractedSolveTest, PowerExactBitIdenticalThreaded) {
  run_contract_fuzz({"power-exact", 64, false, 6, 0.3, 1},
                    /*solver_threads=*/4);
}

TEST(ContractedSolveTest, UpdateDpBitIdenticalSerial) {
  run_contract_fuzz({"update-dp", 96, true, 10, 0.5, 2},
                    /*solver_threads=*/1);
  // Multi-mode: contraction tracks update-dp's collapsed scenario fork.
  run_contract_fuzz({"update-dp", 96, false, 10, 0.5, 2},
                    /*solver_threads=*/1);
}

TEST(ContractedSolveTest, UpdateDpBitIdenticalThreaded) {
  run_contract_fuzz({"update-dp", 96, true, 10, 0.5, 2},
                    /*solver_threads=*/4);
}

/// Star of chains: root with `arms` arms, each a chain of `depth` internal
/// nodes carrying one client at every link.  Deep enough that sealing an
/// arm hides real interior nodes, wide enough that one dirty arm passes
/// the fast-path gate.
Tree make_chain_star(int arms, int depth) {
  TreeBuilder builder;
  const NodeId root = builder.add_root();
  for (int a = 0; a < arms; ++a) {
    NodeId at = root;
    for (int d = 0; d < depth; ++d) {
      at = builder.add_internal(at);
      builder.add_client(at, 1 + ((a + d) % 3));
    }
    if (a % 3 == 0) builder.set_pre_existing(at, 0);
  }
  return std::move(builder).build();
}

TEST(ContractedSolveTest, SealedSubtreeGoingDirtyUnsealsAndReseals) {
  Tree tree = make_chain_star(/*arms=*/16, /*depth=*/3);
  const ModeSet modes({5, 10}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  const auto contracted_solver = make_solver("power-sym");
  const auto plain_solver = make_solver("power-sym");
  const auto cold_solver = make_solver("power-sym");
  SolveSession contracted(tree.topology_ptr(), contract_options());
  SolveSession plain(tree.topology_ptr());

  const auto instance = [&] {
    return Instance{tree.topology_ptr(), tree.scenario(), modes, costs,
                    std::nullopt};
  };
  const auto step = [&](const std::vector<ScenarioDelta>& deltas,
                        const std::string& context) {
    for (const ScenarioDelta& delta : deltas) {
      apply_delta(tree.scenario(), delta);
    }
    const Solution cold = cold_solver->solve(instance());
    expect_identical(contracted_solver->solve(
                         SolveRequest{instance(), deltas, &contracted}),
                     cold, context + " contracted");
    expect_identical(
        plain_solver->solve(SolveRequest{instance(), deltas, &plain}), cold,
        context + " plain");
    expect_same_counters(contracted, plain, context);
  };

  // Deepest clients of arm 0 and arm 7 (client ids interleave with the
  // chain internals, so find them through the topology).
  std::vector<NodeId> arm_tips;
  for (NodeId client : tree.client_ids()) arm_tips.push_back(client);
  const NodeId hot = arm_tips[2];    // arm 0's deepest client
  const NodeId frozen = arm_tips[23];  // deep inside a different arm

  contracted_solver->solve(SolveRequest{instance(), {}, &contracted});
  plain_solver->solve(SolveRequest{instance(), {}, &plain});

  // Prime the touched-set tracking, then stay on arm 0: a contraction
  // builds and every other arm seals.
  step({ScenarioDelta::set_requests(hot, 3)}, "prime");
  EXPECT_EQ(contracted.stats().subtrees_sealed, 0u);
  step({ScenarioDelta::set_requests(hot, 4)}, "seal");
  const std::uint64_t sealed_first = contracted.stats().subtrees_sealed;
  EXPECT_GT(sealed_first, 0u);
  EXPECT_GT(contracted.stats().sealed_cells_injected, 0u);
  step({ScenarioDelta::set_requests(hot, 2)}, "reuse");
  // Reuse injects nothing new.
  EXPECT_EQ(contracted.stats().subtrees_sealed, sealed_first);

  // A delta inside a sealed arm: map_deltas refuses, so the contraction
  // unseals (decontracts) and a fresh one builds around BOTH hot paths —
  // one fewer arm sealed, still bit-identical to the twin.
  step({ScenarioDelta::set_requests(frozen, 5)}, "unseal");
  const std::uint64_t sealed_second = contracted.stats().subtrees_sealed;
  EXPECT_GT(sealed_second, sealed_first);

  // Staying on the newly hot arm reuses the rebuilt map.
  step({ScenarioDelta::set_requests(frozen, 1)}, "reseal");
  EXPECT_EQ(contracted.stats().subtrees_sealed, sealed_second);

  // A delta landing exactly on a sealed-subtree ROOT (pre toggle on an
  // untouched arm's head) also unseals.
  const NodeId other_head = tree.topology().internal_children(tree.root())[4];
  step({ScenarioDelta::set_pre_existing(other_head, 1)}, "sealed-root edit");
}

}  // namespace
}  // namespace treeplace
