// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// End-to-end run (both modes): the workload's records, generated from the
// seed before any timing, are driven over loopback TCP by a single-threaded
// client against a NetServer running in a child process (server_process.h).
// Set-up is repeated setup_count() times (once with --trace 1) and reported
// as a median; the last server then serves the timed section of S seconds.
// Every result line is then checked, timings stripped, against a serial
// replay of the same records, and every served answer against the
// independent evaluator.
//
// --trace 1 adds the traced replay: the same records, replayed in-process
// through each layer's public entry point with spans around every call,
// give the per-layer metrics.  The last stdout line is the JSON result.
#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "client.h"
#include "model/placement.h"
#include "replay.h"
#include "server_process.h"
#include "serve/wire.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace treeplace;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end && *end == '\0' && a.seconds > 0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      a.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      a.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  return a;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The highest percentile with at least ten samples beyond it.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  std::size_t samples = 0;
};

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const std::size_t idx = n > 10 ? n - 11 : n - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(n);
  return t;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// --- result lines -----------------------------------------------------------

/// The `key=value` fields of a result line.
std::map<std::string, std::string> fields(const std::string& line) {
  std::map<std::string, std::string> out;
  std::istringstream is(line);
  std::string token;
  while (is >> token) {
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) out[token.substr(0, eq)] = token.substr(eq + 1);
  }
  return out;
}

double field_seconds(const std::string& line, const char* key) {
  const auto f = fields(line);
  const auto it = f.find(key);
  return it == f.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

/// Checks a served `status=ok` line against the independent evaluator on
/// the instance it answered; returns the first disagreement, or "".
std::string evaluate_line(const std::string& line, const Instance& in) {
  auto f = fields(line);
  const auto status = f.find("status");
  if (status == f.end() || status->second != "ok") return "";
  const auto placed = f.find("placement");
  if (placed == f.end()) return "no placement field";
  Placement placement;
  if (placed->second != "-") {
    std::istringstream is(placed->second);
    std::string item;
    while (std::getline(is, item, ',')) {
      const std::size_t colon = item.find(':');
      if (colon == std::string::npos) return "malformed placement";
      placement.add(static_cast<NodeId>(std::stol(item.substr(0, colon))),
                    std::stoi(item.substr(colon + 1)));
    }
  }
  const ValidationResult v =
      validate(in.topo(), in.scen(), placement, in.modes);
  if (!v.valid) return "invalid placement: " + v.reason;
  const CostBreakdown b = evaluate_cost(in.topo(), in.scen(), placement,
                                        in.costs);
  std::ostringstream expect;
  expect << answer_text(b.cost, total_power(placement, in.modes))
         << " servers=" << b.servers << " reused=" << b.reused
         << " created=" << b.created << " deleted=" << b.deleted;
  std::ostringstream got;
  got << "cost=" << f["cost"] << " power=" << f["power"]
      << " servers=" << f["servers"] << " reused=" << f["reused"]
      << " created=" << f["created"] << " deleted=" << f["deleted"];
  if (expect.str() != got.str()) {
    return "evaluator disagrees: served " + got.str() + ", evaluated " +
           expect.str();
  }
  return "";
}

// --- end-to-end run ---------------------------------------------------------

struct E2E {
  std::vector<double> setup_seconds;
  double window_start = 0.0;
  double window_end = 0.0;
  double cpu_seconds = 0.0;  ///< server process, over the timed section
  ServerReport server;       ///< the timed server's summary
  std::vector<ConnLog> logs;
  std::vector<std::string> errors;  ///< server or client failures
};

constexpr double kSetupTimeout = 120.0;
constexpr double kDrainTimeout = 30.0;

/// One server process per set-up; the last one serves the timed section.
E2E run_e2e(const Workload& w, double seconds,
            std::vector<std::unique_ptr<ServerProcess>>& servers) {
  E2E e;
  std::size_t next_script = 0;
  for (std::size_t i = 0; i < servers.size(); ++i) {
    ServerProcess& server = *servers[i];
    const bool timed = i + 1 == servers.size();
    double t0 = 0.0;
    const std::uint16_t port = server.start(t0);
    LoadClient client(w, port, next_script);
    try {
      client.start();
      while (!client.first_result_at() && now_seconds() < t0 + kSetupTimeout) {
        if (!client.step(0.5)) break;
      }
      if (!client.first_result_at()) {
        e.errors.push_back("no first result within the set-up timeout");
      } else {
        e.setup_seconds.push_back(*client.first_result_at() - t0);
        if (timed) {
          e.window_start = *client.first_result_at();
          e.window_end = e.window_start + seconds;
          const double cpu0 = server.cpu_seconds();
          for (double left; (left = e.window_end - now_seconds()) > 0;) {
            if (!client.step(std::min(left, 0.5))) break;
          }
          e.cpu_seconds = server.cpu_seconds() - cpu0;
        }
      }
      client.stop_issuing();
      const double drain_deadline = now_seconds() + kDrainTimeout;
      while (client.step(0.5)) {
        if (now_seconds() > drain_deadline) {
          e.errors.push_back("results outstanding after the drain timeout");
          client.abort();
          break;
        }
      }
    } catch (const std::exception& ex) {
      e.errors.push_back(ex.what());
      client.abort();
    }
    const ServerReport report = server.stop();
    if (timed) e.server = report;
    for (ConnLog& log : client.logs()) e.logs.push_back(std::move(log));
  }
  return e;
}

// --- output check and traced replay ----------------------------------------

/// One checked request of the end-to-end run.
struct Served {
  std::size_t log = 0;
  std::size_t record = 0;
};

struct Check {
  std::size_t attempted = 0;
  std::size_t identical = 0;
  std::size_t counters_only = 0;  ///< same answer, different work counters
  std::size_t wrong = 0;          ///< a different or invalid answer
  std::size_t errors = 0;         ///< error records and refusals
  std::size_t missing = 0;        ///< no result (timeout, dropped)
  std::size_t broken_connections = 0;  ///< protocol or socket errors
  std::vector<std::string> examples;

  std::size_t failed() const {
    return counters_only + wrong + errors + missing;
  }
  bool correct() const {
    return wrong == 0 && errors == 0 && missing == 0 &&
           broken_connections == 0;
  }
  void note(std::string what) {
    if (examples.size() < 5) examples.push_back(std::move(what));
  }
};

std::string trimmed(const std::string& line) {
  return line.substr(0, line.find_last_not_of('\n') + 1);
}

/// The line minus its timings and its work counter: the answer alone.
std::string answer_only(const std::string& line) {
  std::string out;
  std::istringstream is(serve::strip_timings(line));
  std::string token;
  while (is >> token) {
    if (token.rfind("work=", 0) == 0) continue;
    out += token;
    out += ' ';
  }
  return out;
}

/// Per replayed record of the traced run, what the metrics need.
struct Traced {
  ReplayedRecord rec;
  double untraced_path_s = 0.0;
};

// --- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << std::left << std::setw(30) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit;
    if (!m.note.empty()) std::cout << "  (" << m.note << ")";
    std::cout << "\n";
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) std::cout << ", ";
    std::cout << "\"" << metrics[i].name << "\": {\"value\": "
              << json_number(metrics[i].value) << ", \"unit\": \""
              << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

std::string tail_note(const Tail& t) {
  std::ostringstream os;
  os << "p" << std::setprecision(6) << t.percentile << " of "
     << t.samples << " samples";
  return os.str();
}

int run(const Args& args) {
  // Fork the server processes while this one is small and single-threaded.
  std::vector<std::unique_ptr<ServerProcess>> servers;
  const std::size_t setups = args.trace ? 1 : setup_count(args.workload);
  for (std::size_t i = 0; i < setups; ++i) {
    servers.push_back(
        std::make_unique<ServerProcess>(server_config(args.workload)));
  }

  const double gen_start = now_seconds();
  const Workload w = make_workload(args.workload, args.seed);
  std::size_t threads = w.server.stream.dispatcher.threads;
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "# workload " << w.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace << "\n"
            << "# input: nodes=" << w.nodes << " users=" << w.users
            << " connections=" << w.connections
            << " dispatcher_threads=" << threads
            << " algo=" << w.server.stream.dispatcher.algos.at(0)
            << " drive="
            << (w.drive == Drive::kClosedLoop ? "closed-loop" : "burst")
            << "\n# traffic: " << w.traffic << "\n"
            << "# generated in " << now_seconds() - gen_start << " s\n"
            << std::flush;

  const E2E e = run_e2e(w, args.seconds, servers);
  servers.clear();
  for (const std::string& err : e.errors) {
    std::cout << "# run error: " << err << "\n";
  }

  // Which records each script needs replayed, and who is checked against it.
  std::map<std::size_t, std::size_t> replay_len;
  std::map<std::size_t, std::vector<std::size_t>> logs_of;
  for (std::size_t i = 0; i < e.logs.size(); ++i) {
    const ConnLog& log = e.logs[i];
    std::size_t& n = replay_len[log.script];
    n = std::max(n, log.sent_at.size());
    logs_of[log.script].push_back(i);
  }
  for (std::size_t s = 0; s < w.counter_scripts && s < w.scripts.size(); ++s) {
    std::size_t& n = replay_len[s];
    n = std::max(n, w.counter_end);
  }

  // Requests inside the timed section.
  std::vector<Served> window;
  double last_result = e.window_start;
  for (std::size_t i = 0; i < e.logs.size(); ++i) {
    const ConnLog& log = e.logs[i];
    for (std::size_t k = 0; k < log.sent_at.size(); ++k) {
      if (log.sent_at[k] >= e.window_start && log.result_at[k] >= 0 &&
          log.result_at[k] <= e.window_end) {
        window.push_back(Served{i, k});
        last_result = std::max(last_result, log.result_at[k]);
      }
    }
  }

  // Untraced replay: the reference for the output check.
  Check check;
  for (const ConnLog& log : e.logs) {
    check.attempted += log.sent_at.size();
    if (!log.error.empty()) {
      ++check.broken_connections;
      check.note("connection: " + log.error);
    }
  }
  Tracer off(false);
  Replayer reference(w, off);
  const double replay_start = now_seconds();
  for (const auto& [s, n] : replay_len) {
    const std::vector<std::size_t>& readers = logs_of[s];
    reference.replay(s, n, false, 0,
        [&](std::size_t k, const ReplayedRecord& rec, const Instance* in) {
          // A served line identical to a reference the evaluator rejects
          // is as wrong as the reference.
          const std::string reference_bad =
              in != nullptr ? evaluate_line(rec.line, *in) : "";
          if (!reference_bad.empty()) {
            check.note("reference answer: " + reference_bad);
          }
          const std::string expect = serve::strip_timings(rec.line);
          for (std::size_t i : readers) {
            const ConnLog& log = e.logs[i];
            if (k >= log.sent_at.size()) continue;
            const std::string& got = log.lines[k];
            if (got.empty()) {
              ++check.missing;
              continue;
            }
            if (got.find(" status=error") != std::string::npos) {
              ++check.errors;
              check.note("error record: " + trimmed(got));
              continue;
            }
            if (serve::strip_timings(got) == expect) {
              ++(reference_bad.empty() ? check.identical : check.wrong);
              continue;
            }
            const std::string bad =
                in != nullptr ? evaluate_line(got, *in) : "no instance";
            if (bad.empty() && answer_only(got) == answer_only(rec.line)) {
              ++check.counters_only;
              check.note("counters differ: served " + trimmed(got) +
                         " | replay " + trimmed(rec.line));
            } else {
              ++check.wrong;
              check.note("wrong answer (" + bad + "): served " +
                         trimmed(got) + " | replay " + trimmed(rec.line));
            }
          }
        });
  }
  const double replay_seconds = now_seconds() - replay_start;

  // --- end-to-end metrics --------------------------------------------------
  std::vector<double> latency_ms, queue_ms, outside_ms, server_solve_s;
  for (const Served& r : window) {
    const ConnLog& log = e.logs[r.log];
    const double lat = log.result_at[r.record] - log.sent_at[r.record];
    const double q = field_seconds(log.lines[r.record], "queue_s");
    const double sv = field_seconds(log.lines[r.record], "solve_s");
    latency_ms.push_back(lat * 1e3);
    queue_ms.push_back(q * 1e3);
    outside_ms.push_back((lat - q - sv) * 1e3);
    server_solve_s.push_back(sv);
  }
  const double completed = static_cast<double>(window.size());

  // With thousands of requests the timed section is cut into slices, and
  // the rate and the tail are medians over the slices: one scheduler
  // hiccup then moves one slice, not the run.  Closed-loop workloads
  // complete a few hundred requests and are taken whole.
  const std::size_t slices = std::clamp<std::size_t>(window.size() / 2000, 1,
                                                     20);
  std::vector<std::vector<double>> slice_latency(slices);
  const double slice_s = (e.window_end - e.window_start) /
                         static_cast<double>(slices);
  for (std::size_t i = 0; i < window.size(); ++i) {
    const double t = e.logs[window[i].log].result_at[window[i].record];
    const auto j = std::min(
        slices - 1, static_cast<std::size_t>((t - e.window_start) / slice_s));
    slice_latency[j].push_back(latency_ms[i]);
  }
  std::vector<double> slice_tails, slice_rates;
  Tail lat_tail;
  for (const std::vector<double>& lat : slice_latency) {
    lat_tail = tail(lat);
    slice_tails.push_back(lat_tail.value);
    slice_rates.push_back(static_cast<double>(lat.size()) / slice_s);
  }
  double rate = ratio(completed, last_result - e.window_start);
  std::string rate_note = std::to_string(window.size()) + " requests in " +
                          json_number(last_result - e.window_start) + " s";
  std::string tail_text = tail_note(lat_tail);
  if (slices > 1) {
    lat_tail.value = median(slice_tails);
    rate = median(slice_rates);
    rate_note = "median of " + std::to_string(slices) + " slices; " +
                rate_note;
    tail_text = "median over " + std::to_string(slices) + " slices of the " +
                tail_text.substr(0, tail_text.find(" of ")) + " of ~" +
                std::to_string(window.size() / slices) + " samples";
  }

  std::cout << "# requests: sent=" << check.attempted
            << " timed=" << window.size() << " connections_opened="
            << e.logs.size() << "\n";
  std::cout << "# check: attempted=" << check.attempted
            << " identical=" << check.identical
            << " counters_only=" << check.counters_only
            << " wrong=" << check.wrong << " errors=" << check.errors
            << " missing=" << check.missing << " (replayed in "
            << replay_seconds << " s)\n";
  for (const std::string& ex : check.examples) {
    std::cout << "#   " << trimmed(ex) << "\n";
  }
  if (check.counters_only > 0) {
    std::cout << "# note: counters-only mismatches are the warm-session "
                 "ordering race (pipelined deltas on one session, dispatcher "
                 "threads > 1): same answer, different work counters.\n";
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(e.setup_seconds), "s",
         "median of " + std::to_string(e.setup_seconds.size()) + " set-ups"},
        {"req_p50_ms", median(latency_ms), "ms",
         std::to_string(latency_ms.size()) + " samples"},
        {"req_tail_ms", lat_tail.value, "ms", tail_text},
        {"req_per_s", rate, "1/s", rate_note},
        {"cpu_ms_per_req", ratio(e.cpu_seconds * 1e3, completed), "ms",
         "server process user+sys"},
        {"peak_rss_mb", e.server.peak_rss_mb, "MB",
         "server process peak RSS"},
    };
    std::cout << "# end-to-end (tracing off)\n";
    print_metrics(metrics);
    print_json(check.correct() && e.errors.empty(), check.attempted,
               check.failed(), metrics);
    return 0;
  }

  // --- traced replay -------------------------------------------------------
  Tracer tracer(true);
  Replayer traced_replayer(w, tracer);
  std::map<std::size_t, std::vector<Traced>> traced;
  std::size_t session_bytes = 0;
  for (const auto& [s, n] : replay_len) {
    std::vector<Traced>& out = traced[s];
    out.resize(n);
    const std::size_t bytes_at =
        s < w.counter_scripts && w.counter_end > 0 ? w.counter_end - 1 : n;
    traced_replayer.replay(
        s, n, true, bytes_at,
        [&](std::size_t k, const ReplayedRecord& rec, const Instance*) {
          out[k].rec = rec;
          out[k].rec.line.clear();
          if (rec.cold_sampled && rec.cold.answer != rec.answer) {
            ++check.wrong;
            check.note("cold core solve disagrees with the served answer: " +
                       rec.cold.answer + " vs " + rec.answer);
          }
        });
    session_bytes = std::max(session_bytes, traced_replayer.session_bytes());
  }
  // The tracing overhead compares against a second untraced pass, run after
  // the traced one so that neither pass pays for warming up.
  for (const auto& [s, n] : replay_len) {
    std::vector<Traced>& out = traced[s];
    reference.replay(s, n, false, 0,
                     [&](std::size_t k, const ReplayedRecord& rec,
                         const Instance*) {
                       out[k].untraced_path_s = rec.path_seconds;
                     });
  }
  if (!args.trace_out.empty() && !tracer.write_csv(args.trace_out)) {
    std::cout << "# could not write spans to " << args.trace_out << "\n";
  }

  // Core and counters: the fixed counter set, timing-independent.
  std::vector<double> cold_ms;
  double cold_work = 0, cold_cells = 0, cold_s = 0, cold_peak_bytes = 0;
  double sampled_warm_work = 0, sampled_warm_s = 0, cold_count = 0;
  double counter_n = 0, work = 0, reused = 0, recomputed = 0, signatures = 0,
         steps = 0, skipped = 0;
  for (std::size_t s = 0; s < w.counter_scripts && traced.count(s); ++s) {
    const std::vector<Traced>& recs = traced[s];
    for (std::size_t k = w.counter_first; k < w.counter_end && k < recs.size();
         ++k) {
      const ReplayedRecord& r = recs[k].rec;
      counter_n += 1;
      work += static_cast<double>(r.work);
      reused += static_cast<double>(r.session.nodes_reused);
      recomputed += static_cast<double>(r.session.nodes_recomputed);
      signatures += static_cast<double>(r.session.signatures_checked);
      steps += static_cast<double>(r.session.merge_steps);
      skipped += static_cast<double>(r.session.cells_skipped);
      if (r.cold_sampled) {
        cold_count += 1;
        cold_ms.push_back(r.cold.seconds * 1e3);
        cold_s += r.cold.seconds;
        cold_work += static_cast<double>(r.cold.work);
        cold_cells += static_cast<double>(r.cold.table_cells);
        cold_peak_bytes = std::max(cold_peak_bytes,
                                   static_cast<double>(r.cold.table_bytes));
        sampled_warm_work += static_cast<double>(r.work);
        sampled_warm_s += r.solve_s;
      }
    }
  }

  // Times: the requests of the timed section, each mapped to its replay.
  std::vector<double> solve_ms;
  double parse = 0, cache = 0, fork = 0, solve = 0, render = 0, path = 0,
         untraced = 0, e2e_s = 0, served_solve_s = 0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const ConnLog& log = e.logs[window[i].log];
    const Traced& t = traced[log.script][window[i].record];
    parse += t.rec.parse_s;
    cache += t.rec.cache_s;
    fork += t.rec.fork_s;
    solve += t.rec.solve_s;
    render += t.rec.render_s;
    path += t.rec.path_seconds;
    untraced += t.untraced_path_s;
    e2e_s += latency_ms[i] * 1e-3;
    served_solve_s += server_solve_s[i];
    solve_ms.push_back(t.rec.solve_s * 1e3);
  }
  const double per = completed > 0 ? 1.0 / completed : 0.0;
  const double layers = parse + cache + fork + solve + render;
  const Tail solve_tail = tail(solve_ms);
  const Tail queue_tail = tail(queue_ms);
  const ServerReport& sum = e.server;
  const double requests = static_cast<double>(std::max<std::uint64_t>(
      1, sum.requests));
  const double lookups = static_cast<double>(sum.cache_hits + sum.cache_misses);

  metrics = {
      {"core.cold_ms_p50", median(cold_ms), "ms",
       std::to_string(cold_ms.size()) + " cold engine solves"},
      {"core.merge_pairs_per_req", ratio(cold_work, cold_count), "count",
       "merge pairs (power DPs) or merge iterations (update DP)"},
      {"core.table_cells_per_req", ratio(cold_cells, cold_count), "count",
       "0 where the engine reports no cell count"},
      {"core.table_mb_peak", cold_peak_bytes / 1048576.0, "MB", ""},
      {"core.merge_pairs_per_us", ratio(cold_work, cold_s * 1e6), "1/us", ""},
      {"solver.solve_ms_p50", median(solve_ms), "ms", ""},
      {"solver.solve_ms_tail", solve_tail.value, "ms", tail_note(solve_tail)},
      {"solver.work_per_req", ratio(work, counter_n), "count",
       "over " + json_number(counter_n) + " fixed records"},
      {"solver.nodes_reused_share", ratio(reused, reused + recomputed),
       "share", ""},
      {"solver.signatures_per_req", ratio(signatures, counter_n), "count", ""},
      {"solver.merge_steps_per_req", ratio(steps, counter_n), "count", ""},
      {"solver.cells_skipped_per_req", ratio(skipped, counter_n), "count", ""},
      {"solver.warm_cold_work_ratio", ratio(sampled_warm_work, cold_work),
       "ratio", "on the cold-sampled records"},
      {"solver.warm_cold_time_ratio", ratio(sampled_warm_s, cold_s), "ratio",
       "on the cold-sampled records"},
      {"solver.session_mb", static_cast<double>(session_bytes) / 1048576.0,
       "MB", "resident sessions at the end of the counter set"},
      {"tree.fork_us_per_req", fork * per * 1e6, "us",
       "Scenario copy + apply_delta; the delta fork's copy runs inside "
       "TopologyCache::get"},
      {"serve.parse_us_per_req", parse * per * 1e6, "us", ""},
      {"serve.cache_us_per_req", cache * per * 1e6, "us", ""},
      {"serve.render_us_per_req", render * per * 1e6, "us", ""},
      {"serve.queue_ms_p50", median(queue_ms), "ms", ""},
      {"serve.queue_ms_tail", queue_tail.value, "ms", tail_note(queue_tail)},
      {"serve.outside_solve_ms_p50", median(outside_ms), "ms",
       "client latency - queue_s - solve_s"},
      {"serve.solve_share", ratio(served_solve_s, e2e_s), "share",
       "server solve_s over client latency"},
      {"serve.backpressure_stalls", static_cast<double>(sum.backpressure_stalls),
       "count", ""},
      {"serve.output_stalls", static_cast<double>(sum.output_stalls), "count",
       ""},
      {"serve.max_in_flight", static_cast<double>(sum.max_in_flight), "count",
       ""},
      {"serve.cache_hit_share", ratio(static_cast<double>(sum.cache_hits),
                                      lookups),
       "share", ""},
      {"serve.cache_evictions", static_cast<double>(sum.cache_evictions),
       "count", ""},
      {"serve.bytes_in_per_req", static_cast<double>(sum.bytes_in) / requests,
       "B", ""},
      {"serve.bytes_out_per_req", static_cast<double>(sum.bytes_out) / requests,
       "B", ""},
      {"serve.errors", static_cast<double>(sum.errors), "count", ""},
      {"trace.overhead_share", ratio(path - untraced, untraced), "share",
       "traced replay wall over untraced"},
      {"trace.unaccounted_ms_per_req", (e2e_s - layers) * per * 1e3, "ms",
       "e2e latency - layer self times: socket, event loop, hand-offs"},
      {"trace.replay_ms_per_req", path * per * 1e3, "ms", ""},
  };
  std::cout << "# per-layer (traced replay of " << window.size()
            << " timed requests; counters over the fixed record set)\n";
  print_metrics(metrics);
  std::cout << "# identity: replay " << path * per * 1e3
            << " ms/req = layers " << layers * per * 1e3 << " + glue "
            << (path - layers) * per * 1e3 << "\n"
            << "# identity: e2e " << e2e_s * per * 1e3 << " ms/req = layers "
            << layers * per * 1e3 << " + unaccounted "
            << (e2e_s - layers) * per * 1e3 << "\n"
            << "# note: core runs inside solver.solve; the root scan and the "
               "slot joins cannot be separated from outside the library.\n";
  print_json(check.correct() && e.errors.empty(), check.attempted,
             check.failed(), metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse_args(argc, argv);
  std::signal(SIGPIPE, SIG_IGN);
  try {
    return run(args);
  } catch (const std::exception& ex) {
    std::cerr << "perfbench: " << ex.what() << "\n";
    return 1;
  }
}
