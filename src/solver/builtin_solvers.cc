// Every algorithm of the library, wrapped as a registered Solver strategy.
//
// The wrappers contain no algorithmic logic of their own: they adapt the
// bespoke entry points (GreedyResult, MinCostResult, PowerDPResult, ...) to
// the uniform Instance -> Solution contract and recompute all reported
// accounting through the independent evaluator in model/placement.h, so a
// Solution's breakdown/power always agree with validate()'s view of the
// placement regardless of which strategy produced it.
#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dp_contract.h"
#include "core/dp_update.h"
#include "core/exhaustive.h"
#include "core/greedy.h"
#include "core/greedy_power.h"
#include "core/heuristics.h"
#include "core/power_dp.h"
#include "core/power_dp_symmetric.h"
#include "model/placement.h"
#include "solver/contracted.h"
#include "solver/registry.h"
#include "solver/session.h"
#include "support/check.h"
#include "support/timer.h"

namespace treeplace {
namespace {

/// Builds a Solution around a single-mode placement (servers at mode 0):
/// minimizes modes on multi-mode instances, then recomputes cost and power
/// with the independent evaluator.
Solution finish_placement(const Instance& in, bool feasible,
                          Placement placement, SolveStats stats) {
  Solution s;
  s.feasible = feasible;
  s.stats = stats;
  if (!feasible) return s;
  if (in.modes.count() > 1) {
    minimize_modes(in.topo(), in.scen(), placement, in.modes);
  }
  s.placement = std::move(placement);
  s.breakdown = evaluate_cost(in.topo(), in.scen(), s.placement, in.costs);
  s.power = total_power(s.placement, in.modes);
  s.budget_met =
      !in.cost_budget || s.breakdown.cost <= *in.cost_budget + 1e-9;
  return s;
}

/// Builds a Solution from a Pareto frontier: the selected point is the
/// least-power one within the budget, falling back to the unconstrained
/// minimum-power point when nothing fits.
Solution finish_frontier(const Instance& in, bool feasible,
                         std::vector<PowerParetoPoint> frontier,
                         SolveStats stats) {
  Solution s;
  s.feasible = feasible && !frontier.empty();
  s.frontier = std::move(frontier);
  s.stats = stats;
  if (!s.feasible) return s;
  const PowerParetoPoint* pick =
      in.cost_budget ? s.best_within_cost(*in.cost_budget) : s.min_power();
  if (pick == nullptr) {
    s.budget_met = false;
    pick = s.min_power();
  }
  s.placement = pick->placement;
  s.breakdown = pick->breakdown;
  s.power = pick->power;
  return s;
}

// --- Greedy family ---------------------------------------------------------

class GreedySolver : public Solver {
 public:
  GreedySolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "greedy";
    info.summary =
        "GR of Wu/Lin/Liu [19]: bottom-up flow absorption, optimal replica "
        "count, oblivious to pre-existing servers and power";
    info.objective = Objective::kMinCost;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    GreedyResult r = solve_greedy_min_count(in.topo(), in.scen(), in.capacity());
    return finish_placement(in, r.feasible, std::move(r.placement),
                            {timer.seconds(), 0});
  }
};

class GreedyPreferPreSolver : public Solver {
 public:
  GreedyPreferPreSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "greedy-pre";
    info.summary =
        "GR with reuse-aware tie-breaking: absorbs pre-existing children on "
        "flow ties, keeping GR's count optimality (Section 6 heuristic)";
    info.objective = Objective::kMinCost;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    GreedyResult r = solve_greedy_prefer_pre(in.topo(), in.scen(), in.capacity());
    return finish_placement(in, r.feasible, std::move(r.placement),
                            {timer.seconds(), 0});
  }
};

class GreedyReuseSolver : public Solver {
 public:
  GreedyReuseSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "greedy-reuse";
    info.summary =
        "greedy-pre refined by reuse local search: hill-climbs created "
        "servers onto idle pre-existing nodes (Section 6 heuristic; "
        "single-mode instances)";
    info.objective = Objective::kMinCost;
    info.supports_pre_existing = true;
    // improve_reuse prices swaps with the Eq. 2 model only; rather than
    // silently degrading to greedy-pre on power instances, decline them.
    info.single_mode_only = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    TREEPLACE_CHECK_MSG(in.modes.count() == 1 && in.costs.num_modes() == 1,
                        "greedy-reuse requires a single-mode instance "
                        "(improve_reuse prices swaps with Eq. 2); use "
                        "greedy-pre for multi-mode instances");
    Stopwatch timer;
    GreedyResult r = solve_greedy_prefer_pre(in.topo(), in.scen(), in.capacity());
    SolveStats stats;
    if (r.feasible) {
      const LocalSearchStats ls = improve_reuse(
          in.topo(), in.scen(), in.capacity(), in.costs, r.placement);
      stats.work = ls.evaluated;
    }
    stats.seconds = timer.seconds();
    return finish_placement(in, r.feasible, std::move(r.placement), stats);
  }
};

// --- Incremental DP engines (Sections 3 and 4) ----------------------------
//
// The update DP and both power DPs run cold and warm through one sequence,
// written once in IncrementalSolver below.  An engine traits type names:
//   NodeState, Options, Result — the cache state type, the entry point's
//                                options struct and its result;
//   info()                     — the registry entry;
//   options(solver, in)        — the entry point's options for a cold solve;
//   params(in)                 — the cache params (SubtreeCache::attach);
//   presolve(in)               — validates the instance and returns the
//                                scenario the engine sees when it is not
//                                in.scen();
//   run(topo, scen, in, opts)  — the entry point;
//   reconstruct                — the cache-only decision walk that expands
//                                a sealed leaf of a contracted tree;
//   counters(r)                — the result's warm-start counters;
//   finish(in, r, seconds)     — builds the Solution.

struct UpdateDpEngine {
  using NodeState = dp::MinCostNodeState;
  using Options = MinCostConfig;
  using Result = MinCostResult;

  static SolverInfo info() {
    SolverInfo info;
    info.name = "update-dp";
    info.summary =
        "MinCost-WithPre DP (Theorem 1): optimal replica-set update with "
        "pre-existing servers; exact for single-mode instances";
    info.objective = Objective::kMinCost;
    info.exact = true;
    info.supports_pre_existing = true;
    return info;
  }
  static Options options(const Solver&, const Instance& in) {
    return {.capacity = in.capacity(),
            .create = in.costs.create(0),
            .delete_cost = in.costs.del(0)};
  }
  static std::vector<std::uint64_t> params(const Instance& in) {
    return {static_cast<std::uint64_t>(in.capacity())};
  }
  /// The DP plans against the single-mode Eq. 2 model and only reads the
  /// pre-existing flags; on multi-mode instances, collapse the original
  /// modes to 0 for its internal accounting (finish_placement re-prices
  /// the returned placement against the real instance).  Contraction
  /// tracks the collapsed fork too, so sealed signatures grade against the
  /// same normalized modes the engine commits.
  static std::optional<Scenario> presolve(const Instance& in) {
    const Scenario& scen = in.scen();
    const std::vector<NodeId> pre = scen.pre_existing_nodes();
    const auto moded = [&scen](NodeId id) {
      return scen.original_mode(id) != 0;
    };
    if (std::none_of(pre.begin(), pre.end(), moded)) return std::nullopt;
    // Forking the scenario is cheap (flat arrays, shared topology).
    std::optional<Scenario> collapsed(std::in_place, scen);
    for (NodeId id : pre) collapsed->set_pre_existing(id, 0);
    return collapsed;
  }
  static Result run(const Topology& topo, const Scenario& scen,
                    const Instance&, const Options& opts) {
    return solve_min_cost_with_pre(topo, scen, opts);
  }
  static constexpr auto reconstruct = &reconstruct_min_cost_subtree;
  static MinCostResult& counters(MinCostResult& r) { return r; }
  static Solution finish(const Instance& in, Result r, double seconds) {
    return finish_placement(in, r.feasible, std::move(r.placement),
                            {seconds, r.merge_iterations});
  }
};

/// What the exact and the symmetric power DP share: the cache layout,
/// options, sealed-leaf walk and frontier finish.
struct PowerEngine {
  using NodeState = dp::PowerNodeState;
  using Options = PowerDPOptions;
  using Result = PowerDPResult;

  static Options options(const Solver& solver, const Instance&) {
    PowerDPOptions opts;
    opts.threads = static_cast<std::size_t>(solver.options().threads);
    opts.pool = solver.worker_pool();
    return opts;
  }
  static std::vector<std::uint64_t> params(const Instance& in) {
    return dp::capacity_params(in.modes);
  }
  static std::optional<Scenario> presolve(const Instance&) {
    return std::nullopt;
  }
  static constexpr auto reconstruct = &reconstruct_power_subtree;
  static PowerSolveStats& counters(PowerDPResult& r) { return r.stats; }
  static Solution finish(const Instance& in, Result r, double) {
    return finish_frontier(in, r.feasible, std::move(r.frontier),
                           {r.stats.solve_seconds, r.stats.merge_pairs});
  }
};

struct PowerExactEngine : PowerEngine {
  static SolverInfo info() {
    SolverInfo info;
    info.name = "power-exact";
    info.summary =
        "exact MinPower-BoundedCost DP (Theorem 3): full cost-power Pareto "
        "frontier under the general Eq. 4 cost model";
    info.objective = Objective::kMinPower;
    info.exact = true;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    return info;
  }
  static Result run(const Topology& topo, const Scenario& scen,
                    const Instance& in, const Options& opts) {
    return solve_power_exact(topo, scen, in.modes, in.costs, opts);
  }
};

struct PowerSymmetricEngine : PowerEngine {
  static SolverInfo info() {
    SolverInfo info;
    info.name = "power-sym";
    info.summary =
        "reduced-state MinPower-BoundedCost DP for symmetric cost models "
        "(the paper's experimental setting); identical frontier, much "
        "faster";
    info.objective = Objective::kMinPower;
    info.exact = true;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    return info;
  }
  static std::optional<Scenario> presolve(const Instance& in) {
    TREEPLACE_CHECK_MSG(in.costs.is_symmetric(),
                        "power-sym requires a symmetric cost model; use "
                        "power-exact for general Eq. 4 costs");
    return std::nullopt;
  }
  static Result run(const Topology& topo, const Scenario& scen,
                    const Instance& in, const Options& opts) {
    return solve_power_symmetric(topo, scen, in.modes, in.costs, opts);
  }
};

// --- Frozen-subtree contraction plumbing -----------------------------------

/// Per-mode pre-existing totals over the *original* scenario: the exact
/// power DP's root scan prices deletions against the whole tree's E, which
/// a contracted scenario under-counts (same range CHECK as the engine's
/// own uncontracted scan).
std::vector<int> power_pre_totals(const Scenario& scen, int m) {
  std::vector<int> totals(static_cast<std::size_t>(m), 0);
  for (NodeId e : scen.pre_existing_nodes()) {
    const int o = scen.original_mode(e);
    TREEPLACE_CHECK_MSG(o >= 0 && o < m,
                        "pre-existing node " << e << " has original mode "
                                             << o << " outside the ModeSet");
    ++totals[static_cast<std::size_t>(o)];
  }
  return totals;
}

/// Re-prices a contracted run's frontier on the original instance.  These
/// are the exact per-point evaluator calls the uncontracted engine makes
/// in build_frontier, so the reported doubles land bit-identical.
void reprice_frontier(const Instance& in, PowerDPResult& r) {
  for (PowerParetoPoint& point : r.frontier) {
    point.breakdown = evaluate_cost(in.topo(), in.scen(), point.placement,
                                    in.costs);
    point.cost = point.breakdown.cost;
    point.power = total_power(point.placement, in.modes);
  }
}

/// Runs an engine over the contracted twin of `in` and restores the
/// original-instance view of the result: frozen interiors counted as
/// reused (the twin would have spliced each one) and, for the power
/// engines, the frontier re-priced.  `scen` is the scenario the engine
/// would see uncontracted; `full` is the session's full-tree cache.
template <typename Engine>
typename Engine::Result run_contracted(
    const Instance& in, const Scenario& scen,
    dp::SubtreeCache<typename Engine::NodeState>& full,
    const contracted::Prepared<typename Engine::NodeState>& prep,
    typename Engine::Options opts) {
  constexpr bool kPower =
      std::is_same_v<typename Engine::NodeState, dp::PowerNodeState>;
  dp::MergePlanCache plans;
  dp::ContractionView view;
  view.to_original = prep.map->to_original_map();
  view.sealed = prep.map->sealed();
  view.planning_internal = in.topo().num_internal();
  if constexpr (kPower) {
    view.pre_total_per_mode = power_pre_totals(scen, in.modes.count());
  }
  view.num_pre_existing = scen.num_pre_existing();
  view.expand_sealed = [&in, &full, &plans](NodeId root, std::size_t flat,
                                            Placement& placement) {
    Engine::reconstruct(in.topo(), full, plans, root, flat, placement);
  };
  opts.cache = prep.cache;
  opts.deltas = prep.deltas;
  opts.contraction = &view;
  typename Engine::Result r =
      Engine::run(*prep.map->contracted(), prep.scenario, in, opts);
  if constexpr (kPower) reprice_frontier(in, r);
  Engine::counters(r).nodes_reused += prep.hidden_internal;
  return r;
}

/// A DP engine as a registered, session-aware Solver.  With a session the
/// engine runs on the session's cache — over the contracted tree when
/// contracted::prepare() says so — and the warm counters are recorded;
/// without one it is a plain cold solve.
template <typename Engine>
class IncrementalSolver : public Solver {
 public:
  IncrementalSolver() : Solver(Engine::info()) {}
  static SolverInfo make_info() { return Engine::info(); }

  SolverCaps caps() const override { return SolverCaps::kIncremental; }

  Solution solve(const Instance& in) const override {
    return solve(SolveRequest{in});
  }

  Solution solve(const SolveRequest& request) const override {
    Stopwatch timer;
    const Instance& in = request.instance;
    if (request.session != nullptr) {
      request.session->check_topology(in.topology);
    }
    const std::optional<Scenario> fork = Engine::presolve(in);
    const Scenario& scen = fork ? *fork : in.scen();
    typename Engine::Options opts = Engine::options(*this, in);
    if (request.session == nullptr) {
      return Engine::finish(in, Engine::run(in.topo(), scen, in, opts),
                            timer.seconds());
    }
    SolveSession& session = *request.session;
    EngineState<typename Engine::NodeState>& state =
        session.engine<typename Engine::NodeState>(name());
    const contracted::Prepared<typename Engine::NodeState> prep =
        contracted::prepare(session, state, scen, Engine::params(in),
                            request.deltas);
    typename Engine::Result r;
    if (prep.active) {
      r = run_contracted<Engine>(in, scen, state.cache, prep, opts);
    } else {
      opts.cache = &state.cache;
      opts.deltas = request.deltas;
      r = Engine::run(in.topo(), scen, in, opts);
    }
    const auto& counters = Engine::counters(r);
    session.record_warm(counters.nodes_recomputed, counters.nodes_reused,
                        counters.merge_steps, counters.signatures_checked,
                        counters.cells_skipped);
    return Engine::finish(in, std::move(r), timer.seconds());
  }
};

// --- Power heuristics ------------------------------------------------------

class PowerGreedySolver : public Solver {
 public:
  PowerGreedySolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "power-greedy";
    info.summary =
        "the paper's power-adapted GR (Section 5.2): capacity sweep over "
        "[W_1, W_M], candidates priced with Eq. 4 and mode-minimized";
    info.objective = Objective::kMinPower;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    const GreedyPowerResult gr =
        solve_greedy_power(in.topo(), in.scen(), in.modes, in.costs);
    // Prune the sweep's candidates to their Pareto frontier; any bounded-
    // cost query answered from the frontier matches the answer over the
    // full candidate list.
    std::vector<PowerParetoPoint> points;
    for (const GreedyPowerCandidate& c : gr.candidates) {
      if (!c.feasible) continue;
      points.push_back(PowerParetoPoint{c.cost, c.power, c.placement,
                                        c.breakdown});
    }
    std::sort(points.begin(), points.end(),
              [](const PowerParetoPoint& a, const PowerParetoPoint& b) {
                return a.cost != b.cost ? a.cost < b.cost : a.power < b.power;
              });
    std::vector<PowerParetoPoint> frontier;
    for (PowerParetoPoint& p : points) {
      if (!frontier.empty() && p.power >= frontier.back().power - 1e-12) {
        continue;
      }
      frontier.push_back(std::move(p));
    }
    const bool feasible = !frontier.empty();
    return finish_frontier(in, feasible, std::move(frontier),
                           {timer.seconds(), gr.candidates.size()});
  }
};

class PowerLocalSearchSolver : public Solver {
 public:
  PowerLocalSearchSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "power-ls";
    info.summary =
        "greedy seed refined by bounded-cost power local search: add/remove/"
        "move + mode re-minimization, first improvement (Section 6 "
        "heuristic)";
    info.objective = Objective::kMinPower;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    GreedyResult seed =
        solve_greedy_min_count(in.topo(), in.scen(), in.capacity());
    if (!seed.feasible) {
      Solution s;
      s.stats.seconds = timer.seconds();
      return s;
    }
    Placement placement = std::move(seed.placement);
    minimize_modes(in.topo(), in.scen(), placement, in.modes);
    const double bound =
        in.cost_budget.value_or(std::numeric_limits<double>::infinity());
    SolveStats stats;
    // The seed may already exceed a tight budget; local search requires an
    // in-budget start, so we then report the unrefined seed with
    // budget_met = false rather than failing.
    if (evaluate_cost(in.topo(), in.scen(), placement, in.costs).cost <=
        bound + 1e-9) {
      const LocalSearchStats ls = improve_power(
          in.topo(), in.scen(), in.modes, in.costs, bound, placement);
      stats.work = ls.evaluated;
    }
    stats.seconds = timer.seconds();
    Solution s;
    s.feasible = true;
    s.placement = std::move(placement);
    s.breakdown = evaluate_cost(in.topo(), in.scen(), s.placement, in.costs);
    s.power = total_power(s.placement, in.modes);
    s.budget_met = s.breakdown.cost <= bound + 1e-9;
    s.stats = stats;
    return s;
  }
};

// --- Exhaustive oracles ----------------------------------------------------

class ExhaustiveCostSolver : public Solver {
 public:
  ExhaustiveCostSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "exhaustive-cost";
    info.summary =
        "brute-force MinCost oracle: enumerates all server subsets "
        "(ground truth for tests; small single-mode instances only)";
    info.objective = Objective::kMinCost;
    info.exact = true;
    info.supports_pre_existing = true;
    info.single_mode_only = true;
    info.max_internal = kExhaustiveMaxInternal;
    return info;
  }
  Solution solve(const Instance& in) const override {
    TREEPLACE_CHECK_MSG(in.costs.num_modes() == 1,
                        "exhaustive-cost requires a single-mode cost model");
    Stopwatch timer;
    auto oracle =
        exhaustive_min_cost(in.topo(), in.scen(), in.capacity(), in.costs);
    Solution s;
    s.stats.seconds = timer.seconds();
    if (!oracle.has_value()) return s;
    s.feasible = true;
    s.placement = std::move(oracle->placement);
    s.breakdown = oracle->breakdown;
    s.power = total_power(s.placement, in.modes);
    s.budget_met =
        !in.cost_budget || s.breakdown.cost <= *in.cost_budget + 1e-9;
    return s;
  }
};

class ExhaustivePowerSolver : public Solver {
 public:
  ExhaustivePowerSolver() : Solver(make_info()) {}
  static SolverInfo make_info() {
    SolverInfo info;
    info.name = "exhaustive-power";
    info.summary =
        "brute-force cost-power frontier oracle with witness placements "
        "reconstructed per frontier point (small instances only)";
    info.objective = Objective::kMinPower;
    info.exact = true;
    info.needs_modes = true;
    info.supports_pre_existing = true;
    // Tighter than kExhaustiveMaxInternal: the per-server mode enumeration
    // makes this oracle ~3^N, not 2^N.
    info.max_internal = 14;
    return info;
  }
  Solution solve(const Instance& in) const override {
    Stopwatch timer;
    std::vector<ExhaustiveParetoPoint> points =
        exhaustive_cost_power_frontier_placements(in.topo(), in.scen(),
                                                  in.modes, in.costs);
    std::vector<PowerParetoPoint> frontier;
    frontier.reserve(points.size());
    for (ExhaustiveParetoPoint& p : points) {
      CostBreakdown breakdown =
          evaluate_cost(in.topo(), in.scen(), p.placement, in.costs);
      frontier.push_back(PowerParetoPoint{p.cost, p.power,
                                          std::move(p.placement),
                                          std::move(breakdown)});
    }
    const bool feasible = !frontier.empty();
    return finish_frontier(in, feasible, std::move(frontier),
                           {timer.seconds(), 0});
  }
};

template <typename SolverClass>
void add_to(SolverRegistry& registry) {
  registry.add(SolverClass::make_info(),
               [] { return std::make_unique<SolverClass>(); });
}

}  // namespace

namespace detail {

void register_builtin_solvers(SolverRegistry& registry) {
  add_to<GreedySolver>(registry);
  add_to<GreedyPreferPreSolver>(registry);
  add_to<GreedyReuseSolver>(registry);
  add_to<IncrementalSolver<UpdateDpEngine>>(registry);
  add_to<IncrementalSolver<PowerExactEngine>>(registry);
  add_to<IncrementalSolver<PowerSymmetricEngine>>(registry);
  add_to<PowerGreedySolver>(registry);
  add_to<PowerLocalSearchSolver>(registry);
  add_to<ExhaustiveCostSolver>(registry);
  add_to<ExhaustivePowerSolver>(registry);
}

}  // namespace detail
}  // namespace treeplace
