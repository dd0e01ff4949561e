// The server side of the end-to-end run: a child process hosting an
// in-process NetServer, so its CPU time and peak RSS are the server's
// alone, not the load generator's.
//
// The child is forked while the parent is still small and single-threaded
// (before the workload is generated) and waits for commands on a socket
// pair: `start` constructs, binds and runs one NetServer; `cpu` reports the
// process CPU time; `stop` drains the server and reports its summary.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>

#include "serve/net_server.h"

namespace perfbench {

struct ServerReport {
  std::uint64_t requests = 0;
  std::uint64_t errors = 0;  ///< error results + protocol errors
  std::uint64_t backpressure_stalls = 0;
  std::uint64_t output_stalls = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t max_in_flight = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  double peak_rss_mb = 0.0;  ///< of the server process, over its life
};

class ServerProcess {
 public:
  explicit ServerProcess(const treeplace::serve::NetServerConfig& config);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Constructs and starts the server; returns its port and the steady
  /// clock reading taken just before construction.
  std::uint16_t start(double& constructed_at);
  /// User + system CPU seconds of the server process so far.
  double cpu_seconds();
  /// Drains and stops the server; its summary and the process peak RSS.
  ServerReport stop();

 private:
  std::string call(const std::string& command, double timeout_s);

  pid_t pid_ = -1;
  int fd_ = -1;
};

}  // namespace perfbench
