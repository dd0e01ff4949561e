// The batch-serving loop: request stream in, ordered result records out.
//
// StreamServer ties the serving pieces together: the wire framing of the
// TCP front-end (serve/wire.h's LineBuffer + RecordParser) parses tree /
// scenario-delta records from an istream, bind_request() resolves each
// against a TopologyCache that keeps the hot topologies resident, and a
// SolveDispatcher fans the solves out across the thread pool behind a
// bounded work queue.  One `result ...` line is emitted per request, *in
// request order* (a bounded reorder window of pending futures, sized by
// the dispatcher's queue capacity, never lets the reader outrun the
// solvers by more than the queue bound).
//
// Determinism guarantee: each request is solved by the same deterministic
// solver an offline `treeplace solve` run would use, so the emitted
// placements are bit-identical to a serial pass over the same stream for
// any thread count — concurrency only reorders *execution*, never output
// or results (asserted by tests/serve/stream_server_test.cc and
// bench/serve_throughput).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

#include "model/cost.h"
#include "model/modes.h"
#include "serve/dispatcher.h"
#include "serve/topology_cache.h"
#include "serve/wire.h"

namespace treeplace::serve {

struct StreamServerConfig {
  /// algos[0] serves every request.
  DispatcherConfig dispatcher;
  std::size_t cache_capacity = 16;
  /// Per-session warm-start byte budget (SolveSession::Options::max_bytes,
  /// 0 = unbounded): bounding each resident topology's cached DP state
  /// lets the cache keep many more topologies warm.
  std::size_t session_max_bytes = 0;
  /// Frozen-subtree contraction for resident sessions
  /// (SolveSession::Options::contract): localized delta days solve over a
  /// tree the size of the dirty region.  Mutually exclusive with a
  /// session byte budget — sessions ignore it while session_max_bytes > 0.
  bool session_contract = false;

  /// Instance parameters applied to every request of the stream.
  ModeSet modes = ModeSet::single(10);
  CostModel costs = CostModel::simple(0.1, 0.01);
  std::optional<double> cost_budget;
  /// Single-mode problem class: project pre-existing original modes to 0
  /// (Instance::single_mode semantics).
  bool project_original_modes = true;

  /// Append the placement ("node:mode,...") to each result record.
  bool print_placements = true;
};

struct StreamServerSummary {
  // Fixed 64-bit counters (not size_t): a simulated day at 10^5-10^6
  // users streams billions of delta records through one summary, which
  // would wrap 32-bit size_t on small targets.
  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t errors = 0;      ///< bad topology key, rejection, solver throw
  std::uint64_t over_budget = 0;  ///< solved but cost_budget missed
  /// The input stream was malformed (RecordParser or LineBuffer threw; a
  /// record cut off at a line boundary is complete).  In-flight
  /// results are still emitted and the summary block still printed; the
  /// CLI turns this into a nonzero exit.
  bool stream_error = false;
  std::string stream_error_message;
  double wall_seconds = 0.0;
  double scenarios_per_second = 0.0;
  DispatcherStats dispatcher;
  TopologyCacheStats cache;
};

/// A request bound to its solve: the instance and warm session to
/// dispatch, or the error record the request resolved to.
struct BoundRequest {
  std::optional<Instance> instance;  ///< unset: emit `error` instead
  std::shared_ptr<SolveSession> session;
  ServeResult error;
};

/// Resolves a tree or scenario record against `cache` under `key` — the
/// one binding both servers use.  A tree record (re)registers its
/// topology (TopologyCache::put) and solves its base scenario through the
/// fresh session.  A scenario record forks the cached base scenario and
/// applies its deltas in order; an unknown key or a delta the scenario
/// rejects becomes an error.  The instance carries `config`'s modes, costs
/// and budget, projected to single-mode when project_original_modes is
/// set.  `request.tree` is consumed; `request.deltas` is left for the
/// dispatcher's warm-start hint.
BoundRequest bind_request(ServeRequest& request, const CacheKey& key,
                          TopologyCache& cache,
                          const StreamServerConfig& config);

class StreamServer {
 public:
  explicit StreamServer(StreamServerConfig config);

  /// Serves every record of `in`, writing one result line per request to
  /// `out` in request order followed by a `#`-prefixed summary block.
  /// A malformed stream (an unparsable line, an oversized line) stops
  /// reading but still flushes every in-flight result and the summary —
  /// the failure is reported via StreamServerSummary::stream_error.  Bad
  /// topology references and per-solve failures become error records.
  StreamServerSummary serve(std::istream& in, std::ostream& out);

 private:
  StreamServerConfig config_;
};

}  // namespace treeplace::serve
