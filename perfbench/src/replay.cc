#include "replay.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/dp_update.h"
#include "core/power_dp.h"
#include "core/power_dp_symmetric.h"
#include "serve/topology_cache.h"
#include "serve/wire.h"
#include "solver/registry.h"
#include "tree/scenario_delta.h"

namespace perfbench {

using namespace treeplace;

std::string answer_text(double cost, double power) {
  std::ostringstream os;
  os << "cost=" << cost << " power=" << power;
  return os.str();
}

Replayer::Replayer(const Workload& workload, Tracer& tracer)
    : workload_(workload),
      tracer_(tracer),
      solver_(SolverRegistry::instance().create(
          workload.server.stream.dispatcher.algos.at(0))) {
  solver_->set_options(
      Solver::Options{workload.server.stream.dispatcher.solver_threads});
}

namespace {

SolveSession::Stats minus(const SolveSession::Stats& a,
                          const SolveSession::Stats& b) {
  SolveSession::Stats d;
  d.warm_solves = a.warm_solves - b.warm_solves;
  d.nodes_recomputed = a.nodes_recomputed - b.nodes_recomputed;
  d.nodes_reused = a.nodes_reused - b.nodes_reused;
  d.merge_steps = a.merge_steps - b.merge_steps;
  d.signatures_checked = a.signatures_checked - b.signatures_checked;
  d.cells_skipped = a.cells_skipped - b.cells_skipped;
  return d;
}

}  // namespace

ColdSample Replayer::cold_solve(const Instance& in) const {
  ColdSample s;
  const std::string& algo = solver_->name();
  const std::int64_t start = Tracer::now_ns();
  if (algo == "power-sym" || algo == "power-exact") {
    const PowerDPResult r =
        algo == "power-sym"
            ? solve_power_symmetric(in.topo(), in.scen(), in.modes, in.costs)
            : solve_power_exact(in.topo(), in.scen(), in.modes, in.costs);
    s.seconds = static_cast<double>(Tracer::now_ns() - start) * 1e-9;
    s.work = r.stats.merge_pairs;
    s.table_cells = r.stats.table_cells;
    s.table_bytes = r.stats.table_bytes;
    if (const PowerParetoPoint* p = r.min_power()) {
      s.answer = answer_text(p->cost, p->power);
    }
  } else if (algo == "update-dp") {
    MinCostConfig config;
    config.capacity = in.capacity();
    config.create = in.costs.create(0);
    config.delete_cost = in.costs.del(0);
    const MinCostResult r =
        solve_min_cost_with_pre(in.topo(), in.scen(), config);
    s.seconds = static_cast<double>(Tracer::now_ns() - start) * 1e-9;
    s.work = r.merge_iterations;
    s.table_bytes = r.table_bytes;
    if (r.feasible) {
      s.answer = answer_text(r.breakdown.cost, total_power(r.placement,
                                                           in.modes));
    }
  } else {
    const Solution r = solver_->solve(in);
    s.seconds = static_cast<double>(Tracer::now_ns() - start) * 1e-9;
    s.work = r.stats.work;
    if (r.feasible) s.answer = answer_text(r.breakdown.cost, r.power);
  }
  return s;
}

void Replayer::replay(std::size_t script_index, std::size_t n,
                      bool cold_samples, std::size_t bytes_at,
                      const Visit& visit) {
  const Script& script = workload_.scripts.at(script_index);
  const serve::StreamServerConfig& cfg = workload_.server.stream;
  serve::TopologyCache cache(cfg.cache_capacity);
  serve::LineBuffer buffer(workload_.server.max_line_bytes);
  serve::RecordParser parser;
  serve::ResultFormat format;
  format.print_placements = cfg.print_placements;
  format.has_budget = cfg.cost_budget.has_value();
  const bool incremental = any(solver_->caps() & SolverCaps::kIncremental);
  session_bytes_ = 0;

  for (std::size_t k = 0; k < n; ++k) {
    // The bytes a closed-loop client writes for record k.
    std::string chunk = k == 0 ? script.at(0).header : std::string();
    chunk += script.at(k).body;
    if (k + 1 < n) chunk += script.at(k + 1).header;

    ReplayedRecord out;
    std::optional<Instance> instance;
    std::shared_ptr<SolveSession> session;
    SolveSession::Stats before;
    const std::uint64_t rid = next_request_++;
    const std::int64_t path_start = Tracer::now_ns();
    const int root = tracer_.begin(SpanName::kRequest, rid);

    std::optional<serve::ServeRequest> request;
    {
      Scope span(tracer_, SpanName::kParse, rid, root);
      span.count = chunk.size();
      std::span<char> dst = buffer.writable(chunk.size());
      std::memcpy(dst.data(), chunk.data(), chunk.size());
      buffer.commit(chunk.size());
      while (!request) {
        const std::optional<std::string_view> line = buffer.next_line();
        if (!line) break;
        request = parser.feed(*line);
      }
      if (!request && k + 1 == n) request = parser.finish();
    }
    if (!request || request->id != k + 1) {
      throw std::runtime_error("replay framing diverged at record " +
                               std::to_string(k));
    }

    serve::ServeResult result;
    bool inline_error = false;
    const serve::CacheKey key{0, request->topology_key};
    if (request->tree) {
      auto topology = request->tree->topology_ptr();
      Scenario base = std::move(request->tree->scenario());
      std::optional<Scenario> copy;
      {
        Scope span(tracer_, SpanName::kFork, rid, root);
        span.count = base.topology().num_nodes();
        copy.emplace(base);
      }
      {
        Scope span(tracer_, SpanName::kCache, rid, root);
        span.count = 2;  // insert
        session = cache.put(key, topology, std::move(*copy));
      }
      Scope span(tracer_, SpanName::kFork, rid, root);
      instance.emplace(std::move(topology), std::move(base), cfg.modes,
                       cfg.costs, cfg.cost_budget);
      if (cfg.project_original_modes) {
        project_to_single_mode(instance->scenario);
      }
    } else {
      std::optional<serve::CachedTopology> entry;
      {
        Scope span(tracer_, SpanName::kCache, rid, root);
        entry = cache.get(key);
        span.count = entry ? 1 : 0;  // hit / miss
      }
      if (!entry) {
        result.error = "unknown topology '" + request->topology_key +
                       "' (not in the stream, or evicted from the cache)";
        inline_error = true;
      } else {
        Scope span(tracer_, SpanName::kFork, rid, root);
        span.count = request->deltas.size();
        try {
          Scenario scen = std::move(entry->base);
          for (const ScenarioDelta& d : request->deltas) apply_delta(scen, d);
          session = std::move(entry->session);
          instance.emplace(std::move(entry->topology), std::move(scen),
                           cfg.modes, cfg.costs, cfg.cost_budget);
          if (cfg.project_original_modes) {
            project_to_single_mode(instance->scenario);
          }
        } catch (const CheckError& e) {
          result.error = e.what();
          inline_error = true;
        }
      }
    }

    if (!inline_error) {
      if (session) before = session->stats();
      Scope span(tracer_, SpanName::kSolve, rid, root);
      const std::int64_t solve_start = Tracer::now_ns();
      if (!solver_->info().accepts(instance->num_internal(),
                                   instance->modes.count())) {
        result.error = "solver '" + solver_->name() +
                       "' does not accept this instance";
      } else {
        try {
          if (session && incremental) {
            std::scoped_lock lock(session->solve_mutex());
            result.solution = solver_->solve(
                SolveRequest{*instance, request->deltas, session.get()});
            result.warm = true;
          } else {
            result.solution = solver_->solve(*instance);
          }
          result.ok = true;
        } catch (const std::exception& e) {
          result.error = e.what();
        }
      }
      result.solve_seconds =
          static_cast<double>(Tracer::now_ns() - solve_start) * 1e-9;
      span.count = result.solution.stats.work;
    }
    {
      Scope span(tracer_, SpanName::kRender, rid, root);
      out.line = serve::render_result(request->id, request->topology_key,
                                      result, format)
                     .line;
      span.count = out.line.size();
    }
    tracer_.end(root);
    out.path_seconds =
        static_cast<double>(Tracer::now_ns() - path_start) * 1e-9;
    if (root >= 0) {
      // Self time is a span's duration minus what its children cover.  The
      // layer spans are leaves, so theirs is their duration; the request
      // span's own is the glue between them.
      const auto& spans = tracer_.spans();
      for (std::size_t i = static_cast<std::size_t>(root) + 1;
           i < spans.size(); ++i) {
        double* self = nullptr;
        switch (spans[i].name) {
          case SpanName::kParse: self = &out.parse_s; break;
          case SpanName::kCache: self = &out.cache_s; break;
          case SpanName::kFork: self = &out.fork_s; break;
          case SpanName::kSolve: self = &out.solve_s; break;
          case SpanName::kRender: self = &out.render_s; break;
          default: break;
        }
        if (self != nullptr) *self += spans[i].seconds();
      }
    }

    out.work = result.solution.stats.work;
    if (result.ok && result.solution.feasible) {
      out.answer = answer_text(result.solution.breakdown.cost,
                               result.solution.power);
    }
    if (session && !inline_error) out.session = minus(session->stats(), before);

    if (cold_samples && instance && result.ok) {
      const auto& sample = workload_.core_sample_records;
      const bool selected =
          sample.empty() ||
          std::find(sample.begin(), sample.end(), k) != sample.end();
      if (selected && script_index < workload_.counter_scripts &&
          k >= workload_.counter_first && k < workload_.counter_end) {
        Scope span(tracer_, SpanName::kCoreCold, rid);
        out.cold_sampled = true;
        out.cold = cold_solve(*instance);
        span.count = out.cold.work;
      }
    }
    if (cold_samples && k == bytes_at) {
      cache.for_each([this](const serve::CacheKey&,
                            const serve::CachedTopology& entry) {
        session_bytes_ += entry.session->resident_bytes();
      });
    }
    visit(k, out, instance ? &*instance : nullptr);
  }
}

}  // namespace perfbench
