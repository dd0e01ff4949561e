// The serial in-process replay of a connection's records.
//
// It drives the records through each layer's public entry point in the
// order the server calls them — LineBuffer + RecordParser, TopologyCache,
// Scenario fork + apply_delta, Solver::solve(SolveRequest) on the entry's
// SolveSession, render_result — one session per topology, exactly as one
// server connection does.  Its result lines are the reference the output
// check compares the server's lines against, and with a tracer on, its
// spans give the per-layer times.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "solver/instance.h"
#include "solver/session.h"
#include "solver/solver.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// A cold solve of one instance through the core engine the server's
/// algorithm wraps (off the request path; sampled in the traced run).
struct ColdSample {
  double seconds = 0.0;
  std::uint64_t work = 0;         ///< merge pairs (power) / iterations (update)
  std::uint64_t table_cells = 0;  ///< DP cells allocated; 0 where not reported
  std::uint64_t table_bytes = 0;  ///< arena bytes at the end of the solve
  std::string answer;             ///< cost and power of the optimum, as text
};

struct ReplayedRecord {
  std::string line;            ///< the rendered result line
  std::string answer;          ///< cost and power of the served answer
  double path_seconds = 0.0;   ///< the whole request path
  /// Self time per layer span (traced replay only).
  double parse_s = 0.0, cache_s = 0.0, fork_s = 0.0, solve_s = 0.0,
         render_s = 0.0;
  std::uint64_t work = 0;      ///< Solution::stats.work
  treeplace::SolveSession::Stats session; ///< session counters this solve added
  bool cold_sampled = false;
  ColdSample cold;
};

class Replayer {
 public:
  Replayer(const Workload& workload, Tracer& tracer);

  /// `record` is the record index, `instance` the solved instance (null
  /// when the request resolved to an error before reaching the solver).
  using Visit = std::function<void(std::size_t record, const ReplayedRecord&,
                                   const treeplace::Instance* instance)>;

  /// Replays records [0, n) of script `script` as one fresh connection.
  /// With `cold_samples`, the sampled records of the workload's counter set
  /// also get a cold core solve, and
  /// the resident session bytes are measured after record `bytes_at`.
  void replay(std::size_t script, std::size_t n, bool cold_samples,
              std::size_t bytes_at, const Visit& visit);

  /// Resident bytes of every cached session right after record `bytes_at`
  /// of the last replay() (0 when not reached or not measured).
  std::size_t session_bytes() const { return session_bytes_; }

 private:
  ColdSample cold_solve(const treeplace::Instance& instance) const;

  const Workload& workload_;
  Tracer& tracer_;
  std::unique_ptr<treeplace::Solver> solver_;
  std::uint64_t next_request_ = 0;
  std::size_t session_bytes_ = 0;
};

/// "cost=<c> power=<p>" rendered as result lines render them.
std::string answer_text(double cost, double power);

}  // namespace perfbench
