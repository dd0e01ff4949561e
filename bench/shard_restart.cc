// Shard-restart bench: persistent warm sessions across server restarts,
// and result bit-identity across shard counts.
//
// Phase 1 (restart): a named client ("alice") publishes a 31-internal-node
// tree and sends one delta against it on a live server, recording the cold
// and warm `work=` counters from its result lines.  A second named client
// ("bob") publishes the same tree and stops.  The server shuts down —
// snapshotting both named sessions to disk — and a fresh server is stood
// up over the same persist directory.  Bob reconnects, republishes its
// tree (the snapshot restores into the fresh session) and sends the same
// delta alice did.  The gate: bob's post-restart warm solve reports work
// *bit-identical* to alice's never-restarted warm solve — the restored
// session resumes exactly where the in-memory one would have been — and
// strictly below the cold solve's work.
//
// Phase 2 (sharding): 64 concurrent connections run the connection-churn
// conversation against `--shards 1` and `--shards 4` servers; every
// connection's bytes must be bit-identical (timings stripped) to what the
// serial reference (serve_serially) emits, so the shard count is
// invisible in results.
//
// The CI-gated JSON holds only deterministic columns: the work counters,
// the identity flags, and the snapshot save/restore counts.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
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

/// A complete binary tree of 31 internal nodes (ids 0..30) with two
/// clients under each of the 16 deepest internals — big enough that warm
/// re-solves of a two-node delta do measurably less work than cold.
Tree make_tree() {
  TreeBuilder b;
  std::vector<NodeId> level{b.add_root()};
  for (int depth = 0; depth < 4; ++depth) {
    std::vector<NodeId> next;
    for (const NodeId parent : level) {
      next.push_back(b.add_internal(parent));
      next.push_back(b.add_internal(parent));
    }
    level = std::move(next);
  }
  for (const NodeId parent : level) {
    b.add_client(parent, 3);
    b.add_client(parent, 2);
  }
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

/// The delta both alice (live) and bob (after restart) solve: two
/// pre-existing servers deep in different subtrees.
const char* kDelta = "treeplace-scenario v1 1\nE 15\nE 22 0\n";

NetServerConfig net_config(std::size_t shards, std::string persist_dir) {
  NetServerConfig config;
  config.stream = serve_config();
  config.stream.cache_capacity = 256;
  config.max_conns = 256;
  config.shards = shards;
  config.persist_dir = std::move(persist_dir);
  return config;
}

/// One blocking loopback conversation: connect, send, half-close, read to
/// EOF.
std::string converse(std::uint16_t port, const std::string& payload) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  TREEPLACE_CHECK_MSG(fd >= 0, "socket: " << std::strerror(errno));
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  TREEPLACE_CHECK_MSG(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "loopback connect failed: " << std::strerror(errno));
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent, payload.size() - sent,
                             MSG_NOSIGNAL);
    TREEPLACE_CHECK_MSG(n > 0, "client send failed: " << std::strerror(errno));
    sent += static_cast<std::size_t>(n);
  }
  ::shutdown(fd, SHUT_WR);
  std::string received;
  char buf[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      received.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    TREEPLACE_CHECK_MSG(n == 0, "client recv failed: " << std::strerror(errno));
    break;
  }
  ::close(fd);
  return received;
}

/// The work= counter of result line `id`, or UINT64_MAX if absent.
std::uint64_t work_of(const std::string& results, std::size_t id) {
  const std::string prefix = "result id=" + std::to_string(id) + " ";
  std::istringstream lines(results);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const std::size_t pos = line.find(" work=");
    if (pos == std::string::npos) return UINT64_MAX;
    return std::strtoull(line.c_str() + pos + 6, nullptr, 10);
  }
  return UINT64_MAX;
}

struct ServerHandle {
  NetServer server;
  std::uint16_t port = 0;
  std::thread thread;
  std::ostringstream summary_out;
  NetServerSummary summary;

  explicit ServerHandle(NetServerConfig config)
      : server(std::move(config)), port(server.listen_and_bind()) {
    thread = std::thread([this] { summary = server.run(summary_out); });
  }

  NetServerSummary stop() {
    server.shutdown();
    thread.join();
    return summary;
  }
};

/// Phase 2 helper: `conns` concurrent conversations, each checked against
/// the serial reference.
bool all_identical(std::uint16_t port, std::size_t conns,
                   const std::string& payload, const std::string& reference) {
  std::vector<std::string> received(conns);
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (std::size_t i = 0; i < conns; ++i) {
    threads.emplace_back(
        [&, i] { received[i] = converse(port, payload); });
  }
  for (std::thread& t : threads) t.join();
  bool identical = true;
  for (const std::string& r : received) {
    std::istringstream lines(r);
    std::string line;
    std::string results;
    while (std::getline(lines, line)) {
      if (line.rfind("result ", 0) == 0) results += line + "\n";
    }
    identical = identical && strip_timings(results) == reference;
  }
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_args(argc, argv);
  bench::banner(
      "shard restart — persistent warm sessions across kills and restarts",
      "named clients snapshot their sessions at shard drain and resume "
      "warm after a server restart; the restored warm solve must report "
      "work bit-identical to the never-restarted one, and results must be "
      "bit-identical across shard counts");

  char persist_template[] = "/tmp/treeplace_shard_restart_XXXXXX";
  TREEPLACE_CHECK_MSG(::mkdtemp(persist_template) != nullptr,
                      "mkdtemp: " << std::strerror(errno));
  const std::string persist_dir = persist_template;

  const std::string tree = serialize_tree(make_tree());
  // The delta is sent twice: the second, identical warm solve reuses every
  // subtree table and must report strictly less work than the first — the
  // externally visible proof that the session state is doing its job.
  const std::string alice_payload =
      "treeplace-hello v1 name=alice\n" + tree + kDelta + kDelta;
  const std::string bob_publish = "treeplace-hello v1 name=bob\n" + tree;
  const std::string bob_resume =
      "treeplace-hello v1 name=bob\n" + tree + kDelta + kDelta;

  Stopwatch total_watch;

  // --- Phase 1: warm ratio across a restart -------------------------------
  ServerHandle first(net_config(2, persist_dir));
  const std::string alice_results = converse(first.port, alice_payload);
  converse(first.port, bob_publish);
  const NetServerSummary first_summary = first.stop();

  ServerHandle second(net_config(2, persist_dir));
  const std::string bob_results = converse(second.port, bob_resume);
  const NetServerSummary second_summary = second.stop();

  const std::uint64_t work_cold = work_of(alice_results, 1);
  const std::uint64_t work_warm = work_of(alice_results, 2);
  const std::uint64_t work_rewarm = work_of(alice_results, 3);
  const std::uint64_t work_restored = work_of(bob_results, 2);
  const std::uint64_t work_rerestored = work_of(bob_results, 3);
  // The restored session must track the live one solve for solve — both
  // the first post-restore delta and the repeat report identical work.
  const bool warm_match = work_warm != UINT64_MAX &&
                          work_warm == work_restored &&
                          work_rewarm == work_rerestored;
  // Warm reuse engaged: re-solving the identical scenario reuses every
  // subtree table, so the repeat does strictly less work.
  const bool reuse_engaged =
      work_rewarm != UINT64_MAX && work_rewarm < work_warm;
  const bool persisted = first_summary.sessions_saved >= 2 &&
                         second_summary.sessions_restored >= 1;

  // --- Phase 2: shard count invisible in results --------------------------
  const std::string churn_payload =
      tree + "treeplace-scenario v1 1\nE 2\nE 6 0\n" +
      "treeplace-scenario v1 1\nZ\nR 33 7\n" + kDelta;
  const std::string reference = serve_serially(churn_payload, serve_config());
  constexpr std::size_t kConns = 64;
  bool sharded_identical[2] = {false, false};
  const std::size_t shard_counts[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    ServerHandle server(net_config(shard_counts[i], ""));
    sharded_identical[i] =
        all_identical(server.port, kConns, churn_payload, reference);
    server.stop();
  }

  // --- Report -------------------------------------------------------------
  Table table({"case", "work_cold", "work_warm", "work_rewarm",
               "work_restored", "work_rerestored", "warm_match", "saved",
               "restored"});
  table.set_title("Warm-session work across a server restart");
  table.add_row({std::string("restart"),
                 static_cast<std::int64_t>(work_cold),
                 static_cast<std::int64_t>(work_warm),
                 static_cast<std::int64_t>(work_rewarm),
                 static_cast<std::int64_t>(work_restored),
                 static_cast<std::int64_t>(work_rerestored),
                 std::string(warm_match ? "yes" : "NO"),
                 static_cast<std::int64_t>(first_summary.sessions_saved),
                 static_cast<std::int64_t>(second_summary.sessions_restored)});

  Table gate({"case", "work_cold", "work_warm", "work_rewarm",
              "work_restored", "identical"});
  gate.set_title("shard_restart (deterministic columns)");
  gate.add_row({std::string("restart"), static_cast<std::int64_t>(work_cold),
                static_cast<std::int64_t>(work_warm),
                static_cast<std::int64_t>(work_rewarm),
                static_cast<std::int64_t>(work_restored),
                std::string(warm_match && reuse_engaged && persisted
                                ? "yes"
                                : "NO")});
  gate.add_row({std::string("shards1x64"), std::int64_t{0}, std::int64_t{0},
                std::int64_t{0}, std::int64_t{0},
                std::string(sharded_identical[0] ? "yes" : "NO")});
  gate.add_row({std::string("shards4x64"), std::int64_t{0}, std::int64_t{0},
                std::int64_t{0}, std::int64_t{0},
                std::string(sharded_identical[1] ? "yes" : "NO")});

  bench::emit(table, "shard_restart", total_watch.seconds());
  const std::string json_path = bench::out_path("BENCH_shard_restart.json");
  gate.save_json(json_path);
  std::cout << "\n(JSON written to " << json_path << ")\n";

  const bool ok = warm_match && reuse_engaged && persisted &&
                  sharded_identical[0] && sharded_identical[1];
  if (!ok) {
    std::cout << "FAIL: restored warm work diverged from the live session, "
                 "persistence did not engage, or sharded results diverged "
                 "from the serial reference\n";
    return 1;
  }
  std::cout << "restored warm solve bit-identical to the live session; "
               "results identical across shard counts\n";
  return 0;
}
