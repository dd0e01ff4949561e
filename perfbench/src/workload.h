// The benchmark's three workloads, generated from a seed before any timing.
//
// A workload is a server configuration plus the byte streams clients send.
// Each stream is a Script: an ordered list of wire records (header line +
// body lines), replayable both over TCP and in-process.  Closed-loop
// scripts are cyclic past `cycle_from`, so a faster server simply walks
// further through the same traffic; burst scripts are sent whole.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/net_server.h"

namespace perfbench {

/// One wire record: the header line and the body lines, each with '\n'.
struct Record {
  std::string header;
  std::string body;
};

struct Script {
  std::vector<Record> records;
  /// Record k >= records.size() is records[cycle_from + (k - cycle_from) %
  /// (records.size() - cycle_from)]: the stream repeats its tail forever.
  std::size_t cycle_from = 0;

  std::size_t pool_index(std::size_t k) const {
    if (k < records.size()) return k;
    const std::size_t period = records.size() - cycle_from;
    return cycle_from + (k - cycle_from) % period;
  }
  const Record& at(std::size_t k) const { return records[pool_index(k)]; }
};

enum class Drive {
  /// One persistent connection, one record outstanding: a placement
  /// controller that waits for each answer before sending the next record.
  kClosedLoop,
  /// Each connection sends one whole script, half-closes, reads every
  /// result and disconnects; a finished slot reconnects with the next one.
  kBurst,
};

struct Workload {
  std::string name;
  Drive drive = Drive::kClosedLoop;
  treeplace::serve::NetServerConfig server;
  /// Closed loop: scripts[0] is the single connection's stream.  Burst: a
  /// pool handed out round-robin to connections.
  std::vector<Script> scripts;
  std::size_t connections = 1;

  // Input size, as printed.
  std::size_t nodes = 0;      ///< nodes per published tree (largest)
  std::size_t users = 0;      ///< users behind those trees (before aggregation)
  std::string traffic;        ///< one-line description of the request mix

  /// Records of the counter set that get a cold core solve in the traced
  /// run; empty means every one.
  std::vector<std::size_t> core_sample_records;

  /// The fixed record set the work counters are taken over — records
  /// [counter_first, counter_end) of scripts [0, counter_scripts) — so they
  /// repeat exactly for a seed however far the timed section got.
  std::size_t counter_scripts = 1;
  std::size_t counter_first = 0;
  std::size_t counter_end = 0;
};

/// The configuration the server runs workload `name` with (cheap; no
/// inputs are generated).
treeplace::serve::NetServerConfig server_config(const std::string& name);

/// Server set-ups per end-to-end run of workload `name`.
std::size_t setup_count(const std::string& name);

/// Builds workload `name` ("day_warm", "publish_cold", "tenant_churn")
/// deterministically from `seed`.  Throws std::invalid_argument on an
/// unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The workload names perfbench accepts; BENCHMARK.json gates the first
/// two (tenant_churn is host-scheduling bound, see README.md).
const std::vector<std::string>& workload_names();

}  // namespace perfbench
