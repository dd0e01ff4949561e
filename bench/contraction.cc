// Frozen-subtree contraction on a warm serving day: when a tick touches
// only a small hot region of a skew tree, the session solves a tree the
// size of the dirty closure, not N.
//
// The acceptance shape of the contraction work (src/tree/contract.h,
// solver/contracted.h): a Zipf-attached skew tree is primed once, then a
// stationary hot region — the clients under one internal subtree covering
// ~1% of the internal nodes — absorbs a few request edits per tick.  Two
// sessions ride the same day: one with SolveSession::Options::contract
// set, one plain.  Every tick must come back bit-identical (placement,
// cost, power), and the end-of-day work counters must match exactly —
// contraction changes *where* the merges run, never which merges run,
// so nodes_recomputed / merge_steps / cells_skipped are the same stream
// on both sessions (the sealed counters are the only extras).
//
// Because the engine counters are bit-identical by construction, the
// headline ">= 5x less warm work per tick" gate is *structural*: per tick
// the bench rebuilds the ancestor closure prepare() would build — the
// union of this tick's and the previous tick's touched parents, closed to
// the root — and compares the contracted internal count against N.  The
// closure is deterministic, so the summed sizes live in the gated JSON;
// wall-clock p50s and the measured speedup stay in the CSV.
//
// Hard gates (non-zero exit on failure): per-tick bit-identity, counter
// equality modulo the sealed counters, subtrees_sealed > 0 on every row,
// and the per-row structural shrink floor (5x on the 1%-hot row).
// Knobs: TREEPLACE_CONTRACT_INTERNAL / TREEPLACE_CONTRACT_USERS /
// TREEPLACE_CONTRACT_TICKS override the tree and day length, --out DIR /
// TREEPLACE_BENCH_DIR route file output.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/dp_cache.h"
#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/prng.h"
#include "tree/aggregate.h"
#include "tree/contract.h"
#include "tree/scenario_delta.h"

using namespace treeplace;

namespace {

constexpr const char* kAlgo = "power-sym";

struct ContractConfig {
  std::string label;
  int num_internal = 0;
  std::size_t num_users = 0;
  std::size_t ticks = 0;
  /// Hot-subtree size target as a divisor of num_internal: the bench picks
  /// the internal node whose subtree holds ~num_internal / hot_divisor
  /// internal nodes and edits only clients hanging under it.
  std::size_t hot_divisor = 100;
  std::size_t deltas_per_tick = 3;
  /// Pre-existing replicas.  The symmetric DP's same/changed table
  /// dimensions are bounded by the pre population, so the large rows run
  /// pre-free (like day_serve's day rows) and a small row keeps sealed
  /// E-state in play.
  std::size_t num_pre_existing = 0;
  /// Structural shrink floor for this row: sum(N) / sum(contracted N)
  /// over the day must reach this factor.
  double min_shrink_x = 5.0;
};

struct ContractResult {
  std::size_t deltas = 0;
  std::uint64_t warm_work = 0;       ///< contracted session (== plain)
  std::uint64_t cells_skipped = 0;
  std::uint64_t subtrees_sealed = 0;
  std::uint64_t sealed_cells = 0;
  std::uint64_t contracted_internal = 0;  ///< sum of closure sizes
  std::uint64_t full_internal = 0;        ///< N * ticks
  double contracted_seconds = 0.0;
  double plain_seconds = 0.0;
  double p50_contracted_ms = 0.0;
  double p50_plain_ms = 0.0;
  bool identical = true;   ///< contracted tick == plain tick, every tick
  bool work_match = true;  ///< end-of-day counters equal mod sealed
  bool shrink_ok = true;   ///< structural ratio >= min_shrink_x
};

double percentile_ms(std::vector<double> seconds, double p) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(seconds.size() - 1) + 0.5);
  return seconds[std::min(idx, seconds.size() - 1)] * 1e3;
}

/// Same generous capacities as bench/day_serve.cc: they never enter the
/// DP table dimensions, so the hottest attachment point stays absorbable.
Instance make_instance(const std::shared_ptr<const Topology>& topology,
                       const Scenario& scenario) {
  const ModeSet modes({4000000, 8000000}, 12.5, 3.0);
  const CostModel costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  return Instance{topology, scenario, modes, costs, std::nullopt};
}

/// The internal node whose subtree internal count lands closest to
/// `target` while holding at least `min_clients` clients (the root is
/// excluded — contracting nothing is not a benchmark).
NodeId pick_hot_root(const Topology& topo, std::size_t target,
                     std::size_t min_clients) {
  const std::size_t n = topo.num_internal();
  std::vector<std::size_t> sub_internal(n, 1);
  std::vector<std::size_t> sub_clients(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId id = topo.internal_ids()[i];
    for (NodeId c : topo.children(id)) {
      if (topo.is_client(c)) ++sub_clients[i];
    }
  }
  // internal_ids() is BFS order from the root, so a reverse sweep folds
  // every child into its parent before the parent is read.
  for (std::size_t i = n; i-- > 1;) {
    const NodeId id = topo.internal_ids()[i];
    const std::size_t pi = topo.internal_index(topo.parent(id));
    sub_internal[pi] += sub_internal[i];
    sub_clients[pi] += sub_clients[i];
  }
  NodeId best = kNoNode;
  std::size_t best_diff = std::numeric_limits<std::size_t>::max();
  for (std::size_t i = 1; i < n; ++i) {
    if (sub_clients[i] < min_clients) continue;
    const std::size_t diff = sub_internal[i] > target
                                 ? sub_internal[i] - target
                                 : target - sub_internal[i];
    if (diff < best_diff) {
      best_diff = diff;
      best = topo.internal_ids()[i];
    }
  }
  return best;
}

/// Every client hanging under `hot_root` (its own clients included).
std::vector<NodeId> collect_hot_clients(const Topology& topo,
                                        NodeId hot_root) {
  std::vector<NodeId> clients;
  std::vector<NodeId> stack{hot_root};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    for (NodeId c : topo.children(id)) {
      if (topo.is_client(c)) {
        clients.push_back(c);
      } else {
        stack.push_back(c);
      }
    }
  }
  return clients;
}

ContractResult run_config(const ContractConfig& config) {
  SkewTreeConfig gen;
  gen.num_internal = config.num_internal;
  gen.num_users = config.num_users;
  Tree tree = generate_skew_tree(gen, /*seed=*/9001, /*index=*/0);
  if (config.num_pre_existing > 0) {
    Xoshiro256 pre_rng = make_rng(9001, 0, RngStream::kPreExisting);
    assign_random_pre_existing(tree, config.num_pre_existing, pre_rng,
                               /*num_modes=*/2);
  }

  // The day runs on the *aggregated* tree, exactly like the serving tier
  // (bench/day_serve.cc): aggregation collapses the Zipf user fan-in to
  // one client per attachment point, contraction then collapses the cold
  // internal structure — the two reductions the million-user regime
  // composes.  The hot region and the per-tick edits live directly on
  // aggregate clients; aggregation exactness has its own gate in
  // day_serve and is not re-proven here.
  Aggregation aggregation(tree.topology_ptr());
  Scenario scenario = aggregation.aggregate(tree.scenario());
  const std::shared_ptr<const Topology>& topology = aggregation.aggregated();
  const Topology& topo = *topology;
  const std::size_t n = topo.num_internal();
  const std::size_t target =
      std::max<std::size_t>(2, n / config.hot_divisor);
  const NodeId hot_root =
      pick_hot_root(topo, target, config.deltas_per_tick * 2);
  ContractResult r;
  if (hot_root == kNoNode) {
    r.identical = false;  // no usable hot subtree — fail loudly
    return r;
  }
  const std::vector<NodeId> hot_clients =
      collect_hot_clients(topo, hot_root);

  const auto contracted_solver = make_solver(kAlgo);
  const auto plain_solver = make_solver(kAlgo);
  SolveSession::Options contract_options;
  contract_options.contract = true;
  contract_options.contract_min_internal = 32;
  contract_options.contract_min_shrink = 2;
  SolveSession contracted(topology, contract_options);
  SolveSession plain(topology, SolveSession::Options{});

  const Instance primed_instance = make_instance(topology, scenario);
  const Solution primed_c =
      contracted_solver->solve(SolveRequest{primed_instance, {}, &contracted});
  const Solution primed_p =
      plain_solver->solve(SolveRequest{primed_instance, {}, &plain});
  if (!primed_c.feasible || !primed_p.feasible) {
    r.identical = false;
    return r;
  }

  Xoshiro256 rng = make_rng(9001, 0, RngStream::kWorkloadUpdate);
  std::vector<NodeId> prev_touched;
  std::vector<double> contracted_ticks, plain_ticks;
  contracted_ticks.reserve(config.ticks);
  plain_ticks.reserve(config.ticks);
  for (std::size_t tick = 0; tick < config.ticks; ++tick) {
    std::vector<ScenarioDelta> deltas;
    deltas.reserve(config.deltas_per_tick);
    for (std::size_t k = 0; k < config.deltas_per_tick; ++k) {
      const NodeId client =
          hot_clients[rng.uniform(0, hot_clients.size() - 1)];
      deltas.push_back(ScenarioDelta::set_requests(
          client, static_cast<RequestCount>(rng.uniform(1, 5))));
    }
    for (const ScenarioDelta& d : deltas) apply_delta(scenario, d);
    r.deltas += deltas.size();

    // The structural measure: the ancestor closure prepare() builds from
    // this tick's touched parents union'd with the previous tick's (the
    // cache's last_touched hint), closed to the root.  Deterministic, so
    // it can be gated; the engine's own counters cannot distinguish the
    // contracted run by design.
    std::optional<std::vector<NodeId>> touched =
        dp::delta_touched_internal(topo, deltas);
    std::vector<NodeId> effective = *touched;
    effective.insert(effective.end(), prev_touched.begin(),
                     prev_touched.end());
    std::sort(effective.begin(), effective.end());
    effective.erase(std::unique(effective.begin(), effective.end()),
                    effective.end());
    const Contraction closure(topology,
                              Contraction::open_closure(topo, effective));
    r.contracted_internal += closure.contracted()->num_internal();
    r.full_internal += n;
    prev_touched = std::move(*touched);

    const Instance instance = make_instance(topology, scenario);
    Stopwatch c_watch;
    const Solution warm_c =
        contracted_solver->solve(SolveRequest{instance, deltas, &contracted});
    contracted_ticks.push_back(c_watch.seconds());
    Stopwatch p_watch;
    const Solution warm_p =
        plain_solver->solve(SolveRequest{instance, deltas, &plain});
    plain_ticks.push_back(p_watch.seconds());
    r.warm_work += warm_c.stats.work;

    if (warm_c.feasible != warm_p.feasible ||
        !(warm_c.placement == warm_p.placement) ||
        (warm_c.feasible &&
         (warm_c.breakdown.cost != warm_p.breakdown.cost ||
          warm_c.power != warm_p.power))) {
      r.identical = false;
    }
  }

  const SolveSession::Stats sc = contracted.stats();
  const SolveSession::Stats sp = plain.stats();
  r.work_match = sc.warm_solves == sp.warm_solves &&
                 sc.cold_solves == sp.cold_solves &&
                 sc.nodes_recomputed == sp.nodes_recomputed &&
                 sc.nodes_reused == sp.nodes_reused &&
                 sc.merge_steps == sp.merge_steps &&
                 sc.signatures_checked == sp.signatures_checked &&
                 sc.cells_skipped == sp.cells_skipped;
  r.cells_skipped = sc.cells_skipped;
  r.subtrees_sealed = sc.subtrees_sealed;
  r.sealed_cells = sc.sealed_cells_injected;
  for (double s : contracted_ticks) r.contracted_seconds += s;
  for (double s : plain_ticks) r.plain_seconds += s;
  r.p50_contracted_ms = percentile_ms(contracted_ticks, 0.50);
  r.p50_plain_ms = percentile_ms(plain_ticks, 0.50);
  const double shrink =
      r.contracted_internal > 0
          ? static_cast<double>(r.full_internal) /
                static_cast<double>(r.contracted_internal)
          : 0.0;
  r.shrink_ok = shrink >= config.min_shrink_x;
  return r;
}

void add_result(Table& table, Table& gate, const ContractConfig& config,
                const ContractResult& r) {
  const double shrink =
      r.contracted_internal > 0
          ? static_cast<double>(r.full_internal) /
                static_cast<double>(r.contracted_internal)
          : 0.0;
  const double speedup =
      r.contracted_seconds > 0.0 ? r.plain_seconds / r.contracted_seconds
                                 : 0.0;
  const std::string identical = r.identical ? "yes" : "NO";
  const std::string work_match = r.work_match ? "yes" : "NO";
  const std::string shrink_ok = r.shrink_ok ? "yes" : "NO";
  table.add_row({config.label,
                 static_cast<std::int64_t>(config.num_internal),
                 static_cast<std::int64_t>(config.num_users),
                 static_cast<std::int64_t>(config.ticks),
                 static_cast<std::int64_t>(r.deltas),
                 static_cast<std::int64_t>(r.warm_work),
                 static_cast<std::int64_t>(r.cells_skipped),
                 static_cast<std::int64_t>(r.subtrees_sealed),
                 static_cast<std::int64_t>(r.sealed_cells),
                 static_cast<std::int64_t>(r.contracted_internal),
                 static_cast<std::int64_t>(r.full_internal), shrink,
                 r.p50_contracted_ms, r.p50_plain_ms, speedup, identical,
                 work_match, shrink_ok});
  gate.add_row({config.label,
                static_cast<std::int64_t>(config.num_internal),
                static_cast<std::int64_t>(config.num_users),
                static_cast<std::int64_t>(config.ticks),
                static_cast<std::int64_t>(r.deltas),
                static_cast<std::int64_t>(r.warm_work),
                static_cast<std::int64_t>(r.cells_skipped),
                static_cast<std::int64_t>(r.subtrees_sealed),
                static_cast<std::int64_t>(r.sealed_cells),
                static_cast<std::int64_t>(r.contracted_internal),
                static_cast<std::int64_t>(r.full_internal), identical,
                work_match, shrink_ok});
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  bench::banner(
      "contraction — warm ticks on a tree the size of the dirty closure",
      "frozen-subtree contraction vs a plain twin session over a day of "
      "hot-region edits; gates: per-tick bit-identity, counter equality "
      "mod sealed, subtrees_sealed > 0, structural shrink >= 5x on the "
      "1%-hot row");

  const int internal = static_cast<int>(
      env_size_t("TREEPLACE_CONTRACT_INTERNAL", 400));
  const std::size_t users = env_size_t("TREEPLACE_CONTRACT_USERS", 8000);
  const std::size_t ticks = env_size_t(
      "TREEPLACE_CONTRACT_TICKS", scaled<std::size_t>(48, 192));
  const std::vector<ContractConfig> configs = {
      // The headline row: a 1%-of-internals hot subtree; the acceptance
      // floor — the dirty closure the warm solves run on must stay >= 5x
      // smaller than N across the whole day.
      {"hot1pct", internal, users, ticks, /*hot_divisor=*/100,
       /*deltas_per_tick=*/3, /*num_pre_existing=*/0,
       /*min_shrink_x=*/5.0},
      // A wider hot region: the closure grows, the floor relaxes — the
      // row pins how shrink degrades as the dirty set spreads.
      {"hot4pct", internal, users, ticks, /*hot_divisor=*/25,
       /*deltas_per_tick=*/3, /*num_pre_existing=*/0,
       /*min_shrink_x=*/2.0},
      // A small tree with pre-existing replicas: sealed subtrees carry
      // E-state, so the sealed-leaf signature path (client_mass 0,
      // original_mode kept) stays exercised by a gated bench row too.
      {"hot_pre_N96", 96, 2000, ticks, /*hot_divisor=*/33,
       /*deltas_per_tick=*/3, /*num_pre_existing=*/10,
       /*min_shrink_x=*/2.0},
  };

  Table table({"config", "internal", "users", "ticks", "deltas",
               "warm_work", "cells_skipped", "subtrees_sealed",
               "sealed_cells", "contracted_internal", "full_internal",
               "shrink_x", "p50_contracted_ms", "p50_plain_ms",
               "speedup_x", "identical", "work_match", "shrink_ok"});
  table.set_title("Contracted vs plain warm session over a hot-region day");
  Table gate({"config", "internal", "users", "ticks", "deltas", "warm_work",
              "cells_skipped", "subtrees_sealed", "sealed_cells",
              "contracted_internal", "full_internal", "identical",
              "work_match", "shrink_ok"});
  gate.set_title("contraction (deterministic columns)");

  Stopwatch total;
  std::vector<std::string> failures;
  for (const ContractConfig& config : configs) {
    const ContractResult r = run_config(config);
    if (!r.identical) {
      failures.push_back("config " + config.label +
                         ": contracted solve diverged from the plain twin");
    }
    if (!r.work_match) {
      failures.push_back("config " + config.label +
                         ": work counters diverged between sessions");
    }
    if (r.subtrees_sealed == 0) {
      failures.push_back("config " + config.label +
                         ": contraction never fired (subtrees_sealed == 0)");
    }
    if (!r.shrink_ok) {
      failures.push_back(
          "config " + config.label + ": structural shrink " +
          std::to_string(r.full_internal) + "/" +
          std::to_string(r.contracted_internal) + " below " +
          std::to_string(config.min_shrink_x) + "x");
    }
    add_result(table, gate, config, r);
  }

  bench::emit(table, "contraction", total.seconds());
  const std::string json_path = bench::out_path("BENCH_contraction.json");
  gate.save_json(json_path);
  std::cout << "\n(JSON written to " << json_path << ")\n";
  if (!failures.empty()) {
    std::cout << "FAIL:\n";
    for (const std::string& failure : failures) {
      std::cout << "  " << failure << "\n";
    }
    return 1;
  }
  std::cout << "contracted warm solves bit-identical; dirty closure >= 5x "
               "smaller than N on the 1%-hot row\n";
  return 0;
}
