#include "serve/stream_server.h"

#include <deque>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <utility>

#include "support/check.h"
#include "support/timer.h"

namespace treeplace::serve {

namespace {

struct Pending {
  std::size_t id = 0;
  std::string key;
  std::future<ServeResult> result;
};

/// An already-resolved future (error records discovered at build time slot
/// into the same ordered emission path as dispatched solves).
std::future<ServeResult> ready_result(ServeResult result) {
  std::promise<ServeResult> promise;
  promise.set_value(std::move(result));
  return promise.get_future();
}

/// Bytes requested from the istream per read.
constexpr std::size_t kReadChunk = 64 * 1024;

}  // namespace

BoundRequest bind_request(ServeRequest& request, const CacheKey& key,
                          TopologyCache& cache,
                          const StreamServerConfig& config) {
  // Sessions ride with their cache entry: a tree record's base solve fills
  // the session's DP tables cold, subsequent delta requests on the same
  // topology re-solve warm, and eviction drops the session with the
  // topology (in-flight solves keep it alive via the shared_ptr).
  BoundRequest bound;
  if (request.tree) {
    auto topology = request.tree->topology_ptr();
    Scenario base = std::move(request.tree->scenario());
    bound.session = cache.put(key, topology, base);
    bound.instance.emplace(std::move(topology), std::move(base), config.modes,
                           config.costs, config.cost_budget);
  } else {
    std::optional<CachedTopology> entry = cache.get(key);
    if (!entry) {
      bound.error.error = "unknown topology '" + key.topology_key +
                          "' (not in the stream, or evicted from the cache)";
      return bound;
    }
    try {
      // The cache handed out a private fork; apply the deltas on top.
      Scenario scen = std::move(entry->base);
      for (const ScenarioDelta& delta : request.deltas) {
        apply_delta(scen, delta);
      }
      bound.session = std::move(entry->session);
      bound.instance.emplace(std::move(entry->topology), std::move(scen),
                             config.modes, config.costs, config.cost_budget);
    } catch (const CheckError& e) {
      bound.error.error = e.what();
      return bound;
    }
  }
  if (config.project_original_modes) {
    project_to_single_mode(bound.instance->scenario);
  }
  return bound;
}

StreamServer::StreamServer(StreamServerConfig config)
    : config_(std::move(config)) {
  TREEPLACE_CHECK_MSG(config_.dispatcher.algos.size() == 1,
                      "StreamServer serves every request with one solver");
}

StreamServerSummary StreamServer::serve(std::istream& in, std::ostream& out) {
  SolveDispatcher dispatcher(config_.dispatcher);
  TopologyCache cache(config_.cache_capacity,
                      SolveSession::Options{config_.session_max_bytes,
                                            config_.session_contract});
  StreamServerSummary summary;
  Stopwatch wall;

  // Ordered emission with a bounded reorder window: the oldest pending
  // request is emitted (blocking on its future) whenever the window is
  // full, so reader, queue and emitter all stay within the queue bound.
  std::deque<Pending> pending;
  const std::size_t window = dispatcher.queue_capacity();

  const ResultFormat format{config_.print_placements,
                            config_.cost_budget.has_value()};
  const auto emit = [&](Pending& p) {
    const ServeResult result = p.result.get();
    const RenderedResult rendered = render_result(p.id, p.key, result, format);
    switch (rendered.status) {
      case ResultStatus::kError:
        ++summary.errors;
        break;
      case ResultStatus::kInfeasible:
        ++summary.infeasible;
        break;
      case ResultStatus::kOk:
        ++summary.ok;
        if (rendered.budget_missed) ++summary.over_budget;
        break;
    }
    out << rendered.line;
  };

  const auto handle = [&](std::optional<ServeRequest> request) {
    if (!request) return;
    if (request->hello) {
      // The handshake is always the stream's first record (the parser
      // enforces it), so the reply precedes every result line.
      out << hello_reply();
      return;  // consumes no request ordinal, no dispatcher slot
    }
    Pending p;
    p.id = request->id;
    p.key = request->topology_key;
    // Single-stream serving lives in cache namespace 0; the TCP front-end
    // namespaces by connection (serve/connection.h).
    BoundRequest bound = bind_request(*request, CacheKey{0, p.key}, cache,
                                      config_);
    p.result = bound.instance
                   ? dispatcher.submit(0, std::move(*bound.instance),
                                       std::move(bound.session),
                                       std::move(request->deltas))
                   : ready_result(std::move(bound.error));
    pending.push_back(std::move(p));
    ++summary.requests;
    while (pending.size() > window) {
      emit(pending.front());
      pending.pop_front();
    }
  };

  // The same framing a TCP connection uses: blocks of bytes into a
  // LineBuffer, complete lines into the RecordParser.  A malformed stream
  // stops the reader but never the emitter: everything already dispatched
  // is flushed below, then the summary block reports the failure (the CLI
  // turns it into a nonzero exit).
  LineBuffer buffer;
  RecordParser parser;
  try {
    while (in) {
      const std::span<char> block = buffer.writable(kReadChunk);
      in.read(block.data(), static_cast<std::streamsize>(block.size()));
      buffer.commit(static_cast<std::size_t>(in.gcount()));
      while (const std::optional<std::string_view> line = buffer.next_line()) {
        handle(parser.feed(*line));
      }
    }
    if (const std::optional<std::string_view> rest = buffer.take_rest()) {
      handle(parser.feed(*rest));
    }
    handle(parser.finish());
  } catch (const CheckError& e) {
    summary.stream_error = true;
    summary.stream_error_message = e.what();
  }
  for (Pending& p : pending) emit(p);

  summary.wall_seconds = wall.seconds();
  summary.scenarios_per_second =
      summary.wall_seconds > 0.0
          ? static_cast<double>(summary.requests) / summary.wall_seconds
          : 0.0;
  summary.dispatcher = dispatcher.stats();
  summary.cache = cache.stats();

  const SolverLatencyStats& solver = summary.dispatcher.per_solver[0];
  const double solves = static_cast<double>(
      solver.solves > 0 ? solver.solves : 1);
  out << "# serve: " << summary.requests << " requests in "
      << summary.wall_seconds << " s (" << summary.scenarios_per_second
      << " scenarios/s, " << dispatcher.threads() << " threads, queue "
      << window << ")\n"
      << "# serve: ok=" << summary.ok << " infeasible=" << summary.infeasible
      << " errors=" << summary.errors
      << " over_budget=" << summary.over_budget << "\n"
      << "# cache: capacity=" << summary.cache.capacity
      << " size=" << summary.cache.size << " hits=" << summary.cache.hits
      << " misses=" << summary.cache.misses
      << " evictions=" << summary.cache.evictions << "\n"
      << "# solver " << solver.algo << ": solves=" << solver.solves
      << " warm=" << solver.warm
      << " session_bytes=" << summary.cache.session_bytes
      << " session_budget="
      << (config_.session_max_bytes != 0
              ? std::to_string(config_.session_max_bytes)
              : std::string("unbounded"))
      << " dropped_snapshots=" << summary.cache.session_snapshots_dropped
      << " dropped_tables=" << summary.cache.session_tables_dropped
      << " cells_skipped=" << summary.cache.session_cells_skipped
      << " subtrees_sealed=" << summary.cache.session_subtrees_sealed
      << " sealed_cells=" << summary.cache.session_sealed_cells
      << " errors=" << solver.errors
      << " mean_queue_s=" << solver.total_queue_seconds / solves
      << " mean_solve_s=" << solver.total_solve_seconds / solves
      << " max_solve_s=" << solver.max_solve_seconds
      << " work=" << solver.total_work << "\n";
  if (summary.stream_error) {
    out << "# serve: stream error: " << summary.stream_error_message << "\n";
  }
  return summary;
}

}  // namespace treeplace::serve
