// The solver layer's contract, enforced for every registered strategy:
// solutions validate under the independent evaluator, reported accounting
// matches re-derived accounting, exact solvers match the exhaustive
// oracles, and heuristics never beat them.  Because the suite is
// parameterized over SolverRegistry::instance().names(), a newly registered
// solver is held to the same contract with zero new test code.
#include "solver/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/exhaustive.h"
#include "model/placement.h"
#include "support/check.h"
#include "tests/core/test_instances.h"

namespace treeplace {
namespace {

using testing::make_fig1;
using testing::make_fig2;
using testing::make_random_small;

// --- The documented one-file registration recipe, exercised for real ------

/// A trivial strategy registered through the public macro: one server at
/// every internal node (always valid on feasible instances, never optimal).
class EveryNodeSolver : public Solver {
 public:
  EveryNodeSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "test-every-node";
    info.summary = "test-only: a replica on every internal node";
    info.objective = Objective::kMinCost;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Placement placement;
    for (NodeId id : in.topo().internal_ids()) placement.add(id, 0);
    Solution s;
    // With a replica everywhere each server's load is its own client mass,
    // so the placement is infeasible exactly when some client group
    // exceeds W_M — which is global infeasibility.
    const FlowResult flows = compute_flows(in.topo(), in.scen(), placement);
    for (NodeId id : placement.nodes()) {
      if (flows.load(in.topo(), id) > in.modes.max_capacity()) return s;
    }
    minimize_modes(in.topo(), in.scen(), placement, in.modes);
    s.feasible = true;
    s.placement = std::move(placement);
    s.breakdown = evaluate_cost(in.topo(), in.scen(), s.placement, in.costs);
    s.power = total_power(s.placement, in.modes);
    s.budget_met =
        !in.cost_budget || s.breakdown.cost <= *in.cost_budget + 1e-9;
    return s;
  }
};

TREEPLACE_REGISTER_SOLVER(EveryNodeSolver);

// --- Shared instance set ---------------------------------------------------

struct NamedInstance {
  std::string label;
  Instance instance;
};

std::vector<NamedInstance> shared_instances() {
  std::vector<NamedInstance> out;

  // Paper Figure 1 (single mode, W = 10, a pre-existing server at B).
  for (RequestCount root_requests : {RequestCount{2}, RequestCount{4}}) {
    auto f = make_fig1(root_requests);
    out.push_back(NamedInstance{
        "fig1/r" + std::to_string(root_requests),
        Instance::single_mode(std::move(f.tree), 10, 0.1, 0.01)});
  }

  // Paper Figure 2 (modes W1=7, W2=10, power 10 + W²), no pre-existing.
  {
    auto f = make_fig2(2);
    out.push_back(NamedInstance{
        "fig2/r2",
        Instance{std::move(f.tree), ModeSet({7, 10}, 10.0, 2.0),
                 CostModel::uniform(2, 0.1, 0.01, 0.001), std::nullopt}});
  }

  // Random small trees: a single-mode family and a two-mode family, both
  // with pre-existing servers.
  for (std::uint64_t i = 0; i < 4; ++i) {
    Tree tree = make_random_small(/*seed=*/501, i, /*n=*/6, /*min_req=*/1,
                                  /*max_req=*/6, /*num_pre=*/2,
                                  /*num_modes=*/1);
    out.push_back(NamedInstance{"rand1m/" + std::to_string(i),
                                Instance::single_mode(std::move(tree), 10,
                                                      0.1, 0.01)});
  }
  for (std::uint64_t i = 0; i < 4; ++i) {
    Tree tree = make_random_small(/*seed=*/502, i, /*n=*/5, /*min_req=*/1,
                                  /*max_req=*/5, /*num_pre=*/2,
                                  /*num_modes=*/2);
    out.push_back(NamedInstance{
        "rand2m/" + std::to_string(i),
        Instance{std::move(tree), ModeSet({5, 10}, 12.5, 3.0),
                 CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001),
                 std::nullopt}});
  }
  return out;
}

/// An instance no placement can serve: one client louder than W_M.
Instance infeasible_instance() {
  TreeBuilder builder;
  const NodeId r = builder.add_root();
  builder.add_client(r, 11);
  return Instance::single_mode(std::move(builder).build(), 10, 0.1, 0.01);
}

// --- Registry API ----------------------------------------------------------

TEST(SolverRegistryTest, EnumeratesAtLeastSixSolversSorted) {
  const auto names = SolverRegistry::instance().names();
  EXPECT_GE(names.size(), 6u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const char* expected :
       {"greedy", "greedy-pre", "update-dp", "power-sym", "power-exact",
        "power-greedy", "exhaustive-cost", "exhaustive-power"}) {
    EXPECT_TRUE(SolverRegistry::instance().contains(expected)) << expected;
  }
}

TEST(SolverRegistryTest, MacroRegistrationWorks) {
  // EveryNodeSolver above was registered purely through
  // TREEPLACE_REGISTER_SOLVER — the documented extension recipe.
  const SolverInfo* info =
      SolverRegistry::instance().find("test-every-node");
  ASSERT_NE(info, nullptr);
  EXPECT_FALSE(info->exact);
  const auto solver = make_solver("test-every-node");
  EXPECT_EQ(solver->name(), "test-every-node");
}

TEST(SolverRegistryTest, UnknownNameThrowsListingCatalog) {
  try {
    SolverRegistry::instance().create("no-such-algo");
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-algo"), std::string::npos);
    EXPECT_NE(what.find("update-dp"), std::string::npos) << what;
  }
  EXPECT_EQ(SolverRegistry::instance().find("no-such-algo"), nullptr);
  EXPECT_FALSE(SolverRegistry::instance().contains("no-such-algo"));
}

TEST(SolverRegistryTest, DuplicateRegistrationRejected) {
  SolverInfo info = EveryNodeSolver::make_info();  // name already taken
  EXPECT_THROW(SolverRegistry::instance().add(
                   info, [] { return std::make_unique<EveryNodeSolver>(); }),
               CheckError);
}

TEST(SolverRegistryTest, InfosMatchNames) {
  const auto names = SolverRegistry::instance().names();
  const auto infos = SolverRegistry::instance().infos();
  ASSERT_EQ(names.size(), infos.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_EQ(infos[i].name, names[i]);
    EXPECT_FALSE(infos[i].summary.empty()) << names[i];
  }
}

// --- Per-solver contract ---------------------------------------------------

class RegisteredSolverTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RegisteredSolverTest, SolvesSharedInstancesConsistently) {
  const auto solver = make_solver(GetParam());
  const SolverInfo& info = solver->info();

  for (const NamedInstance& named : shared_instances()) {
    const Instance& instance = named.instance;
    if (!info.accepts(instance.num_internal(),
                      instance.modes.count())) {
      continue;
    }
    SCOPED_TRACE(named.label);
    const Solution solution = solver->solve(instance);
    EXPECT_TRUE(solution.feasible);  // every shared instance is feasible
    if (!solution.feasible) continue;

    if (info.provides_placement) {
      const ValidationResult v = validate(instance.topo(), instance.scen(),
                                          solution.placement, instance.modes);
      EXPECT_TRUE(v.valid) << v.reason;

      // Reported accounting must match the independent evaluator.
      const CostBreakdown expected =
          evaluate_cost(instance.topo(), instance.scen(), solution.placement,
                        instance.costs);
      EXPECT_NEAR(solution.breakdown.cost, expected.cost, 1e-9);
      EXPECT_EQ(solution.breakdown.servers, expected.servers);
      EXPECT_EQ(solution.breakdown.reused, expected.reused);
      EXPECT_EQ(solution.breakdown.deleted, expected.deleted);
      EXPECT_NEAR(solution.power,
                  total_power(solution.placement, instance.modes), 1e-9);
    }

    // Every frontier is sorted by ascending cost, strictly descending
    // power.
    for (std::size_t i = 1; i < solution.frontier.size(); ++i) {
      EXPECT_GT(solution.frontier[i].cost, solution.frontier[i - 1].cost);
      EXPECT_LT(solution.frontier[i].power, solution.frontier[i - 1].power);
    }

    // Solvers are deterministic strategies.
    const Solution again = solver->solve(instance);
    EXPECT_EQ(solution.placement, again.placement);
    EXPECT_NEAR(solution.breakdown.cost, again.breakdown.cost, 0.0);
  }
}

TEST_P(RegisteredSolverTest, AgreesWithExhaustiveOracles) {
  const auto solver = make_solver(GetParam());
  const SolverInfo& info = solver->info();

  for (const NamedInstance& named : shared_instances()) {
    const Instance& instance = named.instance;
    if (!info.accepts(instance.num_internal(),
                      instance.modes.count())) {
      continue;
    }
    SCOPED_TRACE(named.label);
    const Solution solution = solver->solve(instance);
    ASSERT_TRUE(solution.feasible);

    if (instance.costs.num_modes() == 1) {
      // Cost side: nobody beats the oracle; exact min-cost solvers tie it.
      const auto oracle =
          exhaustive_min_cost(instance.topo(), instance.scen(),
                              instance.modes.max_capacity(), instance.costs);
      ASSERT_TRUE(oracle.has_value());
      if (info.provides_placement) {
        EXPECT_GE(solution.breakdown.cost, oracle->breakdown.cost - 1e-9);
      }
      if (info.exact && info.objective == Objective::kMinCost) {
        EXPECT_NEAR(solution.breakdown.cost, oracle->breakdown.cost, 1e-9);
      }
    }

    if (info.objective == Objective::kMinPower) {
      const auto oracle_power = exhaustive_min_power(
          instance.topo(), instance.scen(), instance.modes);
      ASSERT_TRUE(oracle_power.has_value());
      EXPECT_GE(solution.power, *oracle_power - 1e-9);
      if (info.exact) {
        const PowerParetoPoint* best = solution.min_power();
        ASSERT_NE(best, nullptr);
        EXPECT_NEAR(best->power, *oracle_power, 1e-9);
        // Exact bi-criteria solvers reproduce the oracle frontier exactly.
        const auto oracle_frontier = exhaustive_cost_power_frontier(
            instance.topo(), instance.scen(), instance.modes, instance.costs);
        ASSERT_EQ(solution.frontier.size(), oracle_frontier.size());
        for (std::size_t i = 0; i < oracle_frontier.size(); ++i) {
          EXPECT_NEAR(solution.frontier[i].cost, oracle_frontier[i].cost,
                      1e-9);
          EXPECT_NEAR(solution.frontier[i].power, oracle_frontier[i].power,
                      1e-9);
        }
      }
    }
  }
}

TEST_P(RegisteredSolverTest, ReportsInfeasibleInstances) {
  const auto solver = make_solver(GetParam());
  const Instance instance = infeasible_instance();
  if (!solver->info().accepts(instance.num_internal(),
                              instance.modes.count())) {
    GTEST_SKIP() << "solver does not accept the instance";
  }
  const Solution solution = solver->solve(instance);
  EXPECT_FALSE(solution.feasible);
  EXPECT_TRUE(solution.placement.empty());
  EXPECT_TRUE(solution.frontier.empty());
}

TEST_P(RegisteredSolverTest, HonorsCostBudget) {
  const auto solver = make_solver(GetParam());
  const SolverInfo& info = solver->info();
  if (info.objective != Objective::kMinPower) {
    GTEST_SKIP() << "budget queries target min-power solvers";
  }
  Tree tree = make_random_small(/*seed=*/503, 0, /*n=*/5, 1, 5,
                                /*num_pre=*/1, /*num_modes=*/2);
  Instance instance{std::move(tree), ModeSet({5, 10}, 12.5, 3.0),
                    CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001),
                    std::nullopt};
  // A generous budget binds nothing.
  instance.cost_budget = 1e9;
  const Solution generous = solver->solve(instance);
  ASSERT_TRUE(generous.feasible);
  EXPECT_TRUE(generous.budget_met);

  // For bi-criteria solvers, a budget equal to the cheapest frontier point
  // must select exactly that point.
  if (!generous.frontier.empty()) {
    const PowerParetoPoint& cheapest = generous.frontier.front();
    instance.cost_budget = cheapest.cost;
    const Solution bounded = solver->solve(instance);
    ASSERT_TRUE(bounded.feasible);
    EXPECT_TRUE(bounded.budget_met);
    EXPECT_NEAR(bounded.breakdown.cost, cheapest.cost, 1e-9);
    EXPECT_NEAR(bounded.power, cheapest.power, 1e-9);
  }

  // An impossible budget is reported, not silently ignored (every server
  // costs at least 1, so 1e-3 admits nothing).
  instance.cost_budget = 1e-3;
  const Solution impossible = solver->solve(instance);
  if (impossible.feasible) {
    EXPECT_FALSE(impossible.budget_met);
  }
}

// --- The exhaustive-power oracle's reconstructed placements ---------------

TEST(ExhaustivePowerPlacementTest, FrontierPointsCarryValidWitnesses) {
  // The oracle used to be value-only (provides_placement == false); it now
  // reconstructs a witness placement per frontier point and is held to the
  // full placement contract above like every other solver.
  const SolverInfo* info = SolverRegistry::instance().find("exhaustive-power");
  ASSERT_NE(info, nullptr);
  EXPECT_TRUE(info->provides_placement);

  const auto solver = make_solver("exhaustive-power");
  for (const NamedInstance& named : shared_instances()) {
    const Instance& instance = named.instance;
    if (!info->accepts(instance.num_internal(), instance.modes.count())) {
      continue;
    }
    SCOPED_TRACE(named.label);
    const Solution solution = solver->solve(instance);
    ASSERT_TRUE(solution.feasible);
    ASSERT_FALSE(solution.frontier.empty());
    for (const PowerParetoPoint& point : solution.frontier) {
      // Every frontier point's witness validates and re-derives to exactly
      // the certified (cost, power) pair.
      const ValidationResult v = validate(instance.topo(), instance.scen(),
                                          point.placement, instance.modes);
      EXPECT_TRUE(v.valid) << v.reason;
      EXPECT_NEAR(evaluate_cost(instance.topo(), instance.scen(),
                                point.placement, instance.costs)
                      .cost,
                  point.cost, 1e-9);
      EXPECT_NEAR(total_power(point.placement, instance.modes), point.power,
                  1e-9);
    }
    // The selected placement is the min-power frontier point's witness.
    EXPECT_EQ(solution.placement, solution.min_power()->placement);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistered, RegisteredSolverTest,
    ::testing::ValuesIn(SolverRegistry::instance().names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

}  // namespace
}  // namespace treeplace
