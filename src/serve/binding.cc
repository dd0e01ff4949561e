#include "serve/binding.h"

#include <cstring>
#include <utility>

#include "support/check.h"

namespace treeplace::serve {

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

std::string serve_serially(std::string_view stream,
                           const StreamServerConfig& config) {
  DispatcherConfig one_thread = config.dispatcher;
  one_thread.threads = 1;
  SolveDispatcher dispatcher(std::move(one_thread));
  TopologyCache cache(config.cache_capacity,
                      SolveSession::Options{config.session_max_bytes,
                                            config.session_contract});
  const ResultFormat format{config.print_placements,
                            config.cost_budget.has_value()};
  std::string results;
  const auto serve = [&](std::optional<ServeRequest> request) {
    if (!request || request->hello) return;
    BoundRequest bound = bind_request(
        *request, CacheKey{0, request->topology_key}, cache, config);
    const ServeResult result =
        bound.instance
            ? dispatcher
                  .submit(0, std::move(*bound.instance),
                          std::move(bound.session), std::move(request->deltas))
                  .get()
            : std::move(bound.error);
    results +=
        render_result(request->id, request->topology_key, result, format).line;
  };

  // The serving loop's framing over the whole stream at once.
  LineBuffer buffer;
  if (!stream.empty()) {
    std::memcpy(buffer.writable(stream.size()).data(), stream.data(),
                stream.size());
    buffer.commit(stream.size());
  }
  RecordParser parser;
  try {
    while (const std::optional<std::string_view> line = buffer.next_line()) {
      serve(parser.feed(*line));
    }
    if (const std::optional<std::string_view> rest = buffer.take_rest()) {
      serve(parser.feed(*rest));
    }
    serve(parser.finish());
  } catch (const CheckError&) {
    // Malformed: the results of the records completed before it stand.
  }
  return strip_timings(results);
}

}  // namespace treeplace::serve
