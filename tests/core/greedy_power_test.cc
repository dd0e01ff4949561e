#include "core/greedy_power.h"

#include <gtest/gtest.h>

#include "core/power_dp_symmetric.h"
#include "model/placement.h"
#include "tests/core/test_instances.h"

namespace treeplace {
namespace {

using testing::make_fig2;
using testing::make_random_small;

const ModeSet kModes({5, 10}, 12.5, 3.0);  // paper Experiment 3
const CostModel kCosts = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);

TEST(GreedyPowerTest, SweepsAllIntegerCapacities) {
  const Tree tree = make_random_small(11, 0, 10, 1, 5, 2, 2);
  const GreedyPowerResult r = solve_greedy_power(tree, kModes, kCosts);
  ASSERT_EQ(r.candidates.size(), 6u);  // W in {5,...,10}
  for (std::size_t i = 0; i < r.candidates.size(); ++i) {
    EXPECT_EQ(r.candidates[i].capacity, 5u + i);
  }
}

TEST(GreedyPowerTest, CandidatesAreValidAndMinimallyModed) {
  for (std::uint64_t i = 0; i < 15; ++i) {
    const Tree tree = make_random_small(22, i, 12, 1, 5, 3, 2);
    const GreedyPowerResult r = solve_greedy_power(tree, kModes, kCosts);
    for (const GreedyPowerCandidate& c : r.candidates) {
      if (!c.feasible) continue;
      EXPECT_TRUE(validate(tree, c.placement, kModes).valid);
      // Paper fairness rule: <= 5 requests run at W1.
      const FlowResult flows = compute_flows(tree, c.placement);
      for (NodeId node : c.placement.nodes()) {
        EXPECT_EQ(c.placement.mode(node),
                  kModes.mode_for_load(flows.load(tree, node)));
      }
    }
  }
}

TEST(GreedyPowerTest, BestWithinCostRespectsBudget) {
  const Tree tree = make_random_small(33, 1, 12, 1, 5, 3, 2);
  const GreedyPowerResult r = solve_greedy_power(tree, kModes, kCosts);
  const GreedyPowerCandidate* best = r.best_within_cost(50.0);
  ASSERT_NE(best, nullptr);
  EXPECT_LE(best->cost, 50.0 + 1e-9);
  for (const GreedyPowerCandidate& c : r.candidates) {
    if (c.feasible && c.cost <= 50.0) {
      EXPECT_LE(best->power, c.power);
    }
  }
}

TEST(GreedyPowerTest, ImpossibleBudgetGivesNull) {
  const Tree tree = make_random_small(44, 2, 12, 1, 5, 3, 2);
  const GreedyPowerResult r = solve_greedy_power(tree, kModes, kCosts);
  EXPECT_EQ(r.best_within_cost(0.0), nullptr);
}

TEST(GreedyPowerTest, NeverBeatsTheDp) {
  // The DP is optimal: for any budget, GR's power is >= DP's.
  for (std::uint64_t i = 0; i < 10; ++i) {
    const Tree tree = make_random_small(55, i, 14, 1, 5, 4, 2);
    const GreedyPowerResult gr = solve_greedy_power(tree, kModes, kCosts);
    const PowerDPResult dp = solve_power_symmetric(tree, kModes, kCosts);
    ASSERT_TRUE(dp.feasible);
    for (double bound : {15.0, 20.0, 25.0, 30.0, 40.0}) {
      const GreedyPowerCandidate* g = gr.best_within_cost(bound);
      const PowerParetoPoint* d = dp.best_within_cost(bound);
      if (g != nullptr) {
        ASSERT_NE(d, nullptr) << "DP must solve whenever GR does";
        EXPECT_GE(g->power, d->power - 1e-9) << "tree " << i << " bound "
                                             << bound;
      }
    }
  }
}

TEST(GreedyPowerTest, Fig2CapacitySweep) {
  const auto f = make_fig2(4);
  const ModeSet modes({7, 10}, 10.0, 2.0);
  const CostModel costs = CostModel::uniform(2, 0.0, 0.0, 0.0);
  const GreedyPowerResult r = solve_greedy_power(f.tree, modes, costs);
  ASSERT_EQ(r.candidates.size(), 4u);  // W in {7,8,9,10}
  // At W = 7 greedy absorbs C (7) at A's level, root serves 4+3 = 7.
  ASSERT_TRUE(r.candidates[0].feasible);
  EXPECT_NEAR(r.candidates[0].power, 118.0, 1e-9);
  // The unconstrained best GR finds equals the optimum here.
  const GreedyPowerCandidate* best = r.best_within_cost(1e9);
  ASSERT_NE(best, nullptr);
  EXPECT_NEAR(best->power, 118.0, 1e-9);
}

TEST(GreedyPowerTest, InfeasibleTreeHasNoFeasibleCandidates) {
  TreeBuilder builder;
  builder.add_client(builder.add_root(), 11);
  const Tree tree = std::move(builder).build();
  const GreedyPowerResult r = solve_greedy_power(tree, kModes, kCosts);
  for (const GreedyPowerCandidate& c : r.candidates) {
    EXPECT_FALSE(c.feasible);
  }
  EXPECT_EQ(r.best_within_cost(1e9), nullptr);
}

}  // namespace
}  // namespace treeplace
