#include "server_process.h"

#include <poll.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "client.h"

namespace perfbench {
namespace {

using treeplace::serve::NetServer;
using treeplace::serve::NetServerConfig;
using treeplace::serve::NetServerSummary;

/// Reads one '\n'-terminated line; empty on EOF, error or timeout.
std::string read_line(int fd, double timeout_s) {
  std::string line;
  const double deadline = now_seconds() + timeout_s;
  char c = 0;
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    const double left = deadline - now_seconds();
    if (left <= 0) return {};
    const int ready =
        ::poll(&p, 1, static_cast<int>(std::min(left, 60.0) * 1e3) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return {};
    if (c == '\n') return line;
    line += c;
  }
}

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n =
        ::send(fd, text.data() + off, text.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

double process_cpu_seconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

[[noreturn]] void child_main(const NetServerConfig& config, int fd) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::signal(SIGPIPE, SIG_IGN);
  std::unique_ptr<NetServer> server;
  std::thread thread;
  NetServerSummary summary;
  std::string error;
  for (;;) {
    const std::string command = read_line(fd, 1e9);
    char reply[512];
    if (command == "start" && !server) {
      const double t0 = now_seconds();
      try {
        server = std::make_unique<NetServer>(config);
        const std::uint16_t port = server->listen_and_bind();
        thread = std::thread([&] {
          try {
            std::ostringstream sink;
            summary = server->run(sink);
          } catch (const std::exception& e) {
            error = e.what();
          }
        });
        std::snprintf(reply, sizeof(reply), "port %u %.9f\n", port, t0);
      } catch (const std::exception& e) {
        std::snprintf(reply, sizeof(reply), "error %s\n", e.what());
      }
    } else if (command == "cpu") {
      std::snprintf(reply, sizeof(reply), "cpu %.9f\n", process_cpu_seconds());
    } else if (command == "stop" && server) {
      server->shutdown();
      thread.join();
      server.reset();
      rusage ru{};
      ::getrusage(RUSAGE_SELF, &ru);
      std::snprintf(
          reply, sizeof(reply),
          "stop %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %ld %s\n",
          static_cast<unsigned long long>(summary.requests),
          static_cast<unsigned long long>(summary.errors +
                                          summary.protocol_errors),
          static_cast<unsigned long long>(summary.backpressure_stalls),
          static_cast<unsigned long long>(summary.output_stalls),
          static_cast<unsigned long long>(summary.bytes_in),
          static_cast<unsigned long long>(summary.bytes_out),
          static_cast<unsigned long long>(summary.dispatcher.max_in_flight),
          static_cast<unsigned long long>(summary.cache.hits),
          static_cast<unsigned long long>(summary.cache.misses),
          static_cast<unsigned long long>(summary.cache.evictions),
          ru.ru_maxrss, error.empty() ? "-" : "server-error");
    } else {
      break;  // "exit", EOF, or a command out of order
    }
    write_all(fd, reply);
  }
  if (server) {
    server->shutdown();
    thread.join();
  }
  ::_exit(0);
}

}  // namespace

ServerProcess::ServerProcess(const NetServerConfig& config) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair() failed");
  }
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork() failed");
  if (pid_ == 0) {
    ::close(fds[0]);
    child_main(config, fds[1]);
  }
  ::close(fds[1]);
  fd_ = fds[0];
}

ServerProcess::~ServerProcess() {
  if (fd_ >= 0) {
    write_all(fd_, "exit\n");
    ::close(fd_);
  }
  if (pid_ > 0) {
    // The child drains and exits on "exit"; give it the drain timeout.
    const double deadline = now_seconds() + 40.0;
    while (::waitpid(pid_, nullptr, WNOHANG) == 0) {
      if (now_seconds() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        break;
      }
      ::usleep(1000);
    }
  }
}

std::string ServerProcess::call(const std::string& command, double timeout_s) {
  write_all(fd_, command + "\n");
  const std::string reply = read_line(fd_, timeout_s);
  if (reply.empty()) {
    throw std::runtime_error("server process did not answer '" + command +
                             "'");
  }
  return reply;
}

std::uint16_t ServerProcess::start(double& constructed_at) {
  const std::string reply = call("start", 60.0);
  unsigned port = 0;
  if (std::sscanf(reply.c_str(), "port %u %lf", &port, &constructed_at) != 2) {
    throw std::runtime_error("server start failed: " + reply);
  }
  return static_cast<std::uint16_t>(port);
}

double ServerProcess::cpu_seconds() {
  const std::string reply = call("cpu", 10.0);
  double cpu = 0.0;
  if (std::sscanf(reply.c_str(), "cpu %lf", &cpu) != 1) {
    throw std::runtime_error("bad cpu reply: " + reply);
  }
  return cpu;
}

ServerReport ServerProcess::stop() {
  const std::string reply = call("stop", 60.0);
  ServerReport r;
  unsigned long long v[10] = {};
  long rss_kib = 0;
  char status[32] = {};
  if (std::sscanf(reply.c_str(),
                  "stop %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
                  "%ld %31s",
                  &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7],
                  &v[8], &v[9], &rss_kib, status) != 12) {
    throw std::runtime_error("bad stop reply: " + reply);
  }
  r.requests = v[0];
  r.errors = v[1];
  r.backpressure_stalls = v[2];
  r.output_stalls = v[3];
  r.bytes_in = v[4];
  r.bytes_out = v[5];
  r.max_in_flight = v[6];
  r.cache_hits = v[7];
  r.cache_misses = v[8];
  r.cache_evictions = v[9];
  r.peak_rss_mb = static_cast<double>(rss_kib) / 1024.0;
  if (std::string(status) != "-") {
    throw std::runtime_error("the server's run loop threw");
  }
  return r;
}

}  // namespace perfbench
