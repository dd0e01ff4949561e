#include "sim/experiment3.h"

#include <gtest/gtest.h>

#include "support/check.h"

namespace treeplace {
namespace {

Experiment3Config small_config() {
  Experiment3Config config;
  config.num_trees = 6;
  config.tree.num_internal = 14;
  config.tree.max_requests = 5;
  config.num_pre_existing = 3;
  config.cost_bounds = {2, 6, 10, 14, 18, 30};
  config.seed = 3003;
  config.threads = 4;
  return config;
}

TEST(Experiment3Test, OneRowPerBound) {
  const Experiment3Result r = run_experiment3(small_config());
  ASSERT_EQ(r.rows.size(), 6u);
  EXPECT_DOUBLE_EQ(r.rows.front().cost_bound, 2.0);
  EXPECT_DOUBLE_EQ(r.rows.back().cost_bound, 30.0);
}

TEST(Experiment3Test, ScoresAreNormalized) {
  const Experiment3Result r = run_experiment3(small_config());
  for (const auto& row : r.rows) {
    EXPECT_GE(row.score_dp, 0.0);
    EXPECT_LE(row.score_dp, 1.0 + 1e-9);
    EXPECT_GE(row.score_gr, 0.0);
    EXPECT_LE(row.score_gr, 1.0 + 1e-9);
  }
}

TEST(Experiment3Test, DpDominatesGreedyEverywhere) {
  // Per tree and bound: if GR solves, the DP solves with no more power, so
  // every aggregate satisfies score_dp >= score_gr and ratio >= 1.
  const Experiment3Result r = run_experiment3(small_config());
  for (const auto& row : r.rows) {
    EXPECT_GE(row.score_dp, row.score_gr - 1e-12);
    EXPECT_GE(row.solved_dp, row.solved_gr - 1e-12);
    if (row.both_solved > 0) {
      EXPECT_GE(row.power_ratio, 1.0 - 1e-9);
    }
  }
}

TEST(Experiment3Test, ScoreIsMonotoneInBound) {
  const Experiment3Result r = run_experiment3(small_config());
  for (std::size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_GE(r.rows[i].score_dp, r.rows[i - 1].score_dp - 1e-12);
  }
}

TEST(Experiment3Test, GenerousBoundReachesOptimum) {
  const Experiment3Result r = run_experiment3(small_config());
  // Bound 30 admits every server the tree could need (N=14 servers at
  // create 0.1 each cost < 16), so the DP's score reaches 1.
  EXPECT_NEAR(r.rows.back().score_dp, 1.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.rows.back().solved_dp, 1.0);
}

TEST(Experiment3Test, Deterministic) {
  const Experiment3Result a = run_experiment3(small_config());
  const Experiment3Result b = run_experiment3(small_config());
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.rows[i].score_dp, b.rows[i].score_dp);
    EXPECT_DOUBLE_EQ(a.rows[i].score_gr, b.rows[i].score_gr);
  }
}

TEST(Experiment3Test, ExactDpAgreesWithSymmetricDp) {
  Experiment3Config sym_config = small_config();
  sym_config.num_trees = 3;
  sym_config.tree.num_internal = 10;
  Experiment3Config exact_config = sym_config;
  exact_config.use_exact_dp = true;
  const Experiment3Result sym = run_experiment3(sym_config);
  const Experiment3Result exact = run_experiment3(exact_config);
  ASSERT_EQ(sym.rows.size(), exact.rows.size());
  for (std::size_t i = 0; i < sym.rows.size(); ++i) {
    EXPECT_NEAR(sym.rows[i].score_dp, exact.rows[i].score_dp, 1e-9);
  }
}

TEST(Experiment3Test, NoPreVariantRuns) {
  Experiment3Config config = small_config();
  config.num_pre_existing = 0;  // Figure 9 setting
  const Experiment3Result r = run_experiment3(config);
  ASSERT_EQ(r.rows.size(), 6u);
  EXPECT_GT(r.rows.back().score_dp, 0.0);
}

TEST(Experiment3Test, EmptyBoundsRejected) {
  Experiment3Config config = small_config();
  config.cost_bounds.clear();
  EXPECT_THROW(run_experiment3(config), CheckError);
}

}  // namespace
}  // namespace treeplace
