// Binding serve requests to solves, and the serial reference server.
//
// bind_request() resolves one parsed record against a TopologyCache for
// the serving loop (serve/net_server.h) and for serve_serially(), the
// independent reference that loop is checked against: one request in
// flight, no event loop, no reorder buffer.  Every request is solved by
// the same deterministic solver, so the loop's result lines at any thread
// count, shard count or interleaving equal serve_serially()'s with
// timings stripped (tests/serve/, bench/connection_churn,
// bench/shard_restart).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

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

/// A request bound to its solve: the instance and warm session to
/// dispatch, or the error record the request resolved to.
struct BoundRequest {
  std::optional<Instance> instance;  ///< unset: emit `error` instead
  std::shared_ptr<SolveSession> session;
  ServeResult error;
};

/// Resolves a tree or scenario record against `cache` under `key`.  A
/// tree record (re)registers its topology (TopologyCache::put) and solves
/// its base scenario through the fresh session.  A scenario record forks
/// the cached base scenario and applies its deltas in order; an unknown
/// key or a delta the scenario rejects becomes an error.  The instance
/// carries `config`'s modes, costs and budget, projected to single-mode
/// when project_original_modes is set.  `request.tree` is consumed;
/// `request.deltas` is left for the dispatcher's warm-start hint.
BoundRequest bind_request(ServeRequest& request, const CacheKey& key,
                          TopologyCache& cache,
                          const StreamServerConfig& config);

/// The result lines of `stream` served one request at a time, timings
/// stripped (strip_timings).  Hello records and comments produce no line.
/// A malformed stream ends the results at the last record completed
/// before the bad line, as the serving loop does before its
/// `# protocol error:` line.
std::string serve_serially(std::string_view stream,
                           const StreamServerConfig& config);

}  // namespace treeplace::serve
