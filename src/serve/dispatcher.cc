#include "serve/dispatcher.h"

#include <algorithm>
#include <exception>
#include <optional>
#include <string>
#include <utility>

#include "solver/registry.h"
#include "support/timer.h"

namespace treeplace::serve {

namespace {

std::size_t resolve_threads(const DispatcherConfig& config) {
  return config.threads ? config.threads : ThreadPool::default_thread_count();
}

/// Whether a solve runs warm: with a session, on a solver that reuses it.
bool runs_warm(const Solver& solver, const SolveSession* session) {
  return session != nullptr && any(solver.caps() & SolverCaps::kIncremental);
}

/// The capability rejection of `instance` by `solver`; nullopt when the
/// solver accepts it.
std::optional<ServeResult> rejection(const Solver& solver,
                                     const Instance& instance) {
  if (solver.info().accepts(instance.num_internal(), instance.modes.count())) {
    return std::nullopt;
  }
  ServeResult result;
  result.error = "solver '" + solver.name() +
                 "' does not accept this instance (" +
                 std::to_string(instance.num_internal()) +
                 " internal nodes, " +
                 std::to_string(instance.modes.count()) + " modes)";
  return result;
}

}  // namespace

SolveDispatcher::SolveDispatcher(DispatcherConfig config)
    : pool_(resolve_threads(config)) {
  TREEPLACE_CHECK_MSG(!config.algos.empty(),
                      "SolveDispatcher needs at least one solver");
  queue_capacity_ =
      config.queue_capacity ? config.queue_capacity : 4 * pool_.size();
  solvers_.reserve(config.algos.size());
  stats_.per_solver.reserve(config.algos.size());
  for (const std::string& algo : config.algos) {
    auto solver = SolverRegistry::instance().create(algo);
    solver->set_options(Solver::Options{config.solver_threads});
    stats_.per_solver.push_back(SolverLatencyStats{.algo = algo});
    solvers_.push_back(std::move(solver));
  }
}

std::future<ServeResult> SolveDispatcher::submit(
    std::size_t solver_index, Instance instance,
    std::shared_ptr<SolveSession> session, std::vector<ScenarioDelta> deltas) {
  TREEPLACE_CHECK_MSG(solver_index < solvers_.size(),
                      "solver index " << solver_index << " out of range");
  const Solver& solver = *solvers_[solver_index];
  if (std::optional<ServeResult> rejected = rejection(solver, instance)) {
    // Capability rejection: resolve immediately, never occupy a slot.
    std::promise<ServeResult> ready;
    ready.set_value(std::move(*rejected));
    std::scoped_lock lock(mutex_);
    ++stats_.submitted;
    ++stats_.completed;
    ++stats_.per_solver[solver_index].errors;
    return ready.get_future();
  }

  std::unique_lock lock(mutex_);
  slot_freed_.wait(lock, [this] { return in_flight_ < queue_capacity_; });
  ++in_flight_;
  ++stats_.submitted;
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  const std::uint64_t ticket = take_ticket(solver, session.get());
  Stopwatch queued;
  return pool_.submit([this, solver_index, instance = std::move(instance),
                       session = std::move(session),
                       deltas = std::move(deltas), ticket, queued] {
    return run_solve(solver_index, instance, session.get(), ticket, deltas,
                     queued.seconds());
  });
}

std::uint64_t SolveDispatcher::take_ticket(const Solver& solver,
                                           SolveSession* session) {
  return runs_warm(solver, session) ? session->take_ticket() : 0;
}

bool SolveDispatcher::try_reserve_slot() {
  std::scoped_lock lock(mutex_);
  if (in_flight_ >= queue_capacity_) return false;
  ++in_flight_;
  ++stats_.submitted;
  stats_.max_in_flight = std::max(stats_.max_in_flight, in_flight_);
  return true;
}

void SolveDispatcher::release_reserved_slot() {
  std::scoped_lock lock(mutex_);
  --stats_.submitted;
  --in_flight_;
  slot_freed_.notify_one();
}

void SolveDispatcher::submit_reserved(std::size_t solver_index,
                                      Instance instance,
                                      std::shared_ptr<SolveSession> session,
                                      std::vector<ScenarioDelta> deltas,
                                      CompletionFn done) {
  TREEPLACE_CHECK_MSG(solver_index < solvers_.size(),
                      "solver index " << solver_index << " out of range");
  const Solver& solver = *solvers_[solver_index];
  if (std::optional<ServeResult> rejected = rejection(solver, instance)) {
    {
      // Release the reserved slot first, so a retry from inside `done`
      // can reserve again.
      std::scoped_lock lock(mutex_);
      ++stats_.completed;
      ++stats_.per_solver[solver_index].errors;
      --in_flight_;
      slot_freed_.notify_one();
    }
    done(std::move(*rejected));
    return;
  }

  std::scoped_lock lock(mutex_);
  const std::uint64_t ticket = take_ticket(solver, session.get());
  Stopwatch queued;
  // run_solve releases the queue slot before returning, so by the time
  // `done` fires the caller may immediately reserve again.
  pool_.submit([this, solver_index, instance = std::move(instance),
                session = std::move(session), deltas = std::move(deltas),
                ticket, queued, done = std::move(done)]() mutable {
    done(run_solve(solver_index, instance, session.get(), ticket, deltas,
                   queued.seconds()));
  });
}

ServeResult SolveDispatcher::run_solve(
    std::size_t solver_index, const Instance& instance, SolveSession* session,
    std::uint64_t ticket, const std::vector<ScenarioDelta>& deltas,
    double queue_seconds) {
  ServeResult result;
  result.queue_seconds = queue_seconds;
  const Solver& solver = *solvers_[solver_index];
  Stopwatch watch;
  try {
    if (runs_warm(solver, session)) {
      // Warm solves over one session run one at a time in submit order;
      // sessions are per topology, so only same-topology requests wait.
      session->wait_turn(ticket);
      struct EndTurn {
        SolveSession* session;
        ~EndTurn() { session->end_turn(); }
      } end_turn{session};
      std::scoped_lock session_lock(session->solve_mutex());
      result.solution = solver.solve(SolveRequest{instance, deltas, session});
      result.warm = true;
    } else {
      result.solution = solver.solve(instance);
    }
    result.ok = true;
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  result.solve_seconds = watch.seconds();

  std::scoped_lock lock(mutex_);
  SolverLatencyStats& stats = stats_.per_solver[solver_index];
  if (result.ok) {
    ++stats.solves;
    if (result.warm) ++stats.warm;
    if (!result.solution.feasible) ++stats.infeasible;
    stats.total_work += result.solution.stats.work;
  } else {
    ++stats.errors;
  }
  stats.total_queue_seconds += result.queue_seconds;
  stats.total_solve_seconds += result.solve_seconds;
  stats.max_solve_seconds =
      std::max(stats.max_solve_seconds, result.solve_seconds);
  ++stats_.completed;
  --in_flight_;
  slot_freed_.notify_one();
  return result;
}

DispatcherStats SolveDispatcher::stats() const {
  std::scoped_lock lock(mutex_);
  return stats_;
}

}  // namespace treeplace::serve
