// Connection-churn bench: the async TCP front-end under thousands of
// concurrent looped-back clients.
//
// For each concurrency level (1 / 64 / 1024 simultaneous connections) an
// in-process NetServer is stood up on an ephemeral loopback port and a
// single-threaded poll()-multiplexed client driver churns connections
// through connect -> publish tree + deltas -> half-close -> read results
// -> disconnect cycles, keeping the level's connection count saturated
// until the target total completes.  Reported: connections/sec,
// scenarios/sec, and the server's p99 submit-to-emit latency.
//
// The CI-gated JSON holds only deterministic columns: the connection and
// scenario counts, whether the server saturated the level (peak
// concurrent connections reached the target), and two correctness flags —
// every connection's bytes ordered and bit-identical (timings stripped)
// to what the serial reference (serve_serially) emits for the same record
// sequence.
// Throughput and latency stay warn-only in the CSV/stdout.
//
// TREEPLACE_CHURN_CONNS overrides the per-level total connection count.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/net_server.h"
#include "tree/io.h"
#include "tree/tree.h"

using namespace treeplace;
using namespace treeplace::serve;

namespace {

/// Internal nodes 0, 1, 2, 6; clients 3, 4, 5, 7 — the serve-test layout.
Tree make_tree() {
  TreeBuilder b;
  const NodeId root = b.add_root();       // 0
  const NodeId a = b.add_internal(root);  // 1
  const NodeId c = b.add_internal(root);  // 2
  b.add_client(a, 5);                     // 3
  b.add_client(a, 3);                     // 4
  b.add_client(c, 4);                     // 5
  const NodeId d = b.add_internal(c);     // 6
  b.add_client(d, 2);                     // 7
  return std::move(b).build();
}

StreamServerConfig serve_config() {
  StreamServerConfig config;
  config.dispatcher.algos = {"update-dp"};
  config.modes = ModeSet::single(10);
  config.costs = CostModel::simple(0.1, 0.01);
  config.project_original_modes = true;
  return config;
}

/// One connection's conversation: a tree record plus three delta records.
std::string make_stream() {
  std::ostringstream out;
  out << serialize_tree(make_tree());
  out << "treeplace-scenario v1 1\nE 2\nE 6 0\n";
  out << "treeplace-scenario v1 1\nZ\nR 3 7\n";
  out << "treeplace-scenario v1 1\nE 2\nX 2\n";
  return out.str();
}
constexpr std::size_t kRequestsPerConn = 4;

/// 1024 concurrent connections need ~2x that in fds (client + server end
/// share this process); lift the soft limit to the hard cap.
void raise_nofile_limit() {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    setrlimit(RLIMIT_NOFILE, &lim);
  }
}

// ---------------------------------------------------------------------------
// poll()-multiplexed client driver

struct Client {
  enum class State { kConnecting, kSending, kReading, kDone };
  int fd = -1;
  State state = State::kConnecting;
  std::size_t sent = 0;
  std::string received;
};

int start_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  return fd;
}

struct ChurnOutcome {
  std::size_t completed = 0;
  std::size_t scenarios = 0;
  bool all_identical = true;
  double seconds = 0.0;
};

/// Keeps `concurrency` connections in flight until `total` have completed
/// their full cycle, verifying every connection's bytes against
/// `reference`.
ChurnOutcome churn(std::uint16_t port, std::size_t concurrency,
                   std::size_t total, const std::string& stream,
                   const std::string& reference) {
  ChurnOutcome outcome;
  std::vector<Client> clients;
  clients.reserve(concurrency);
  std::size_t started = 0;

  // Saturate the level before any client starts its conversation, so the
  // server genuinely holds `concurrency` simultaneous connections.
  for (; started < concurrency && started < total; ++started) {
    Client c;
    c.fd = start_connect(port);
    TREEPLACE_CHECK_MSG(c.fd >= 0, "loopback connect failed: "
                                       << std::strerror(errno));
    clients.push_back(c);
  }

  Stopwatch watch;
  std::vector<pollfd> pfds;
  while (outcome.completed < total) {
    pfds.clear();
    for (const Client& c : clients) {
      if (c.state == Client::State::kDone) continue;
      short events = 0;
      if (c.state == Client::State::kConnecting ||
          c.state == Client::State::kSending) {
        events = POLLOUT;
      } else {
        events = POLLIN;
      }
      pfds.push_back(pollfd{c.fd, events, 0});
    }
    TREEPLACE_CHECK_MSG(!pfds.empty(), "no live clients but "
                                           << total - outcome.completed
                                           << " cycles remain");
    const int ready = ::poll(pfds.data(), pfds.size(), 10'000);
    TREEPLACE_CHECK_MSG(ready > 0, "client poll stalled: "
                                       << std::strerror(errno));

    std::size_t pi = 0;
    for (Client& c : clients) {
      if (c.state == Client::State::kDone) continue;
      const pollfd& p = pfds[pi++];
      if (p.revents == 0) continue;
      if (c.state == Client::State::kConnecting) {
        c.state = Client::State::kSending;  // POLLOUT: connected (or error
                                            // surfaces on first send)
      }
      if (c.state == Client::State::kSending && (p.revents & POLLOUT)) {
        while (c.sent < stream.size()) {
          const ssize_t n = ::send(c.fd, stream.data() + c.sent,
                                   stream.size() - c.sent, MSG_NOSIGNAL);
          if (n > 0) {
            c.sent += static_cast<std::size_t>(n);
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            TREEPLACE_CHECK_MSG(false, "client send failed: "
                                           << std::strerror(errno));
          }
        }
        if (c.sent == stream.size()) {
          ::shutdown(c.fd, SHUT_WR);
          c.state = Client::State::kReading;
        }
      } else if (c.state == Client::State::kReading &&
                 (p.revents & (POLLIN | POLLHUP | POLLERR))) {
        char buf[16 * 1024];
        for (;;) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.received.append(buf, static_cast<std::size_t>(n));
          } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            break;
          } else {
            // EOF (or reset after EOF): the cycle is complete.
            TREEPLACE_CHECK_MSG(n == 0, "client recv failed: "
                                            << std::strerror(errno));
            ::close(c.fd);
            outcome.all_identical =
                outcome.all_identical &&
                strip_timings(c.received) == reference;
            ++outcome.completed;
            outcome.scenarios += kRequestsPerConn;
            if (started < total) {
              // Churn: replace the finished connection immediately.
              c = Client{};
              c.fd = start_connect(port);
              TREEPLACE_CHECK_MSG(c.fd >= 0, "loopback connect failed: "
                                                 << std::strerror(errno));
              ++started;
            } else {
              c.state = Client::State::kDone;
              c.fd = -1;
            }
            break;
          }
        }
      }
    }
  }
  outcome.seconds = watch.seconds();
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  bench::banner(
      "connection churn — async TCP front-end under concurrent clients",
      "poll()-multiplexed loopback clients cycling connect -> publish -> "
      "read -> disconnect against an in-process NetServer; every "
      "connection's bytes must be ordered and bit-identical to the "
      "serial reference");
  raise_nofile_limit();

  const std::size_t total_override = env_size_t("TREEPLACE_CHURN_CONNS", 0);
  const std::vector<std::size_t> levels = {1, 64, 1024};

  const std::string stream = make_stream();
  const std::string reference = serve_serially(stream, serve_config());

  Table table({"concurrency", "connections", "scenarios", "conns/sec",
               "scenarios/sec", "p99_latency_s", "seconds", "identical"});
  table.set_title("Connection churn by concurrency level");
  Table gate({"concurrency", "connections", "scenarios", "saturated",
              "identical"});
  gate.set_title("connection_churn (deterministic columns)");

  Stopwatch total_watch;
  bool all_ok = true;
  for (const std::size_t concurrency : levels) {
    // Churn at least one full replacement generation past saturation.
    const std::size_t total =
        total_override ? std::max(total_override, concurrency)
                       : std::max<std::size_t>(2 * concurrency, 256);

    NetServerConfig config;
    config.stream = serve_config();
    // Every live connection publishes its own topology entry.
    config.stream.cache_capacity = 2 * concurrency + 8;
    config.max_conns = 2 * concurrency + 8;
    NetServer server(std::move(config));
    const std::uint16_t port = server.listen_and_bind();
    std::ostringstream summary_out;
    NetServerSummary summary;
    std::thread loop([&] { summary = server.run(summary_out); });

    const ChurnOutcome outcome =
        churn(port, concurrency, total, stream, reference);
    server.shutdown();
    loop.join();

    const bool saturated = summary.peak_connections >= concurrency;
    all_ok = all_ok && outcome.all_identical && saturated;
    const double conns_per_sec =
        outcome.seconds > 0 ? static_cast<double>(outcome.completed) /
                                  outcome.seconds
                            : 0.0;
    const double scen_per_sec =
        outcome.seconds > 0 ? static_cast<double>(outcome.scenarios) /
                                  outcome.seconds
                            : 0.0;
    table.add_row({static_cast<std::int64_t>(concurrency),
                   static_cast<std::int64_t>(outcome.completed),
                   static_cast<std::int64_t>(outcome.scenarios),
                   conns_per_sec, scen_per_sec, summary.p99_latency_seconds,
                   outcome.seconds,
                   std::string(outcome.all_identical ? "yes" : "NO")});
    gate.add_row({static_cast<std::int64_t>(concurrency),
                  static_cast<std::int64_t>(outcome.completed),
                  static_cast<std::int64_t>(outcome.scenarios),
                  std::string(saturated ? "yes" : "NO"),
                  std::string(outcome.all_identical ? "yes" : "NO")});
  }

  bench::emit(table, "connection_churn", total_watch.seconds());
  const std::string json_path =
      bench::out_path("BENCH_connection_churn.json");
  gate.save_json(json_path);
  std::cout << "\n(JSON written to " << json_path << ")\n";
  if (!all_ok) {
    std::cout << "FAIL: connection results diverged from the serial "
                 "reference or a "
                 "level failed to saturate\n";
    return 1;
  }
  std::cout << "all connections bit-identical to the serial reference at "
               "every "
               "level\n";
  return 0;
}
