#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace perfbench {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

LoadClient::LoadClient(const Workload& workload, std::uint16_t port,
                       std::size_t& next_script)
    : workload_(workload), port_(port), next_script_(next_script) {}

LoadClient::~LoadClient() { abort(); }

void LoadClient::start() {
  for (std::size_t i = 0; i < workload_.connections; ++i) {
    open(workload_.drive == Drive::kClosedLoop ? 0 : next_script_++);
  }
}

void LoadClient::open(std::size_t script) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  // Each burst connection half-closes first and so leaves a TIME_WAIT
  // entry behind.  Rotating the source over 127.0.0.2-251 gives every
  // address its own port space, so tens of thousands of connections per
  // run never make connect() search a crowded port range — which would
  // slow later runs down with the entries earlier ones left.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_IP, IP_BIND_ADDRESS_NO_PORT, &one, sizeof(one));
  sockaddr_in source{};
  source.sin_family = AF_INET;
  source.sin_addr.s_addr = htonl(INADDR_LOOPBACK + 1 + logs_.size() % 250);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&source), sizeof(source)) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("bind() failed: ") +
                             std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error(std::string("connect() failed: ") +
                             std::strerror(errno));
  }
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);

  Conn conn;
  conn.fd = fd;
  conn.log = logs_.size();
  logs_.push_back(ConnLog{});
  logs_.back().script = script % workload_.scripts.size();

  const Script& s = workload_.scripts[logs_.back().script];
  if (workload_.drive == Drive::kClosedLoop) {
    conn.out = s.at(0).header;
    queue_closed_loop(conn);
  } else {
    for (std::size_t k = 0; k < s.records.size(); ++k) {
      conn.out += s.records[k].header;
      conn.out += s.records[k].body;
      conn.completes.push_back(k);
    }
    conn.shut_after_flush = true;
    conn.awaiting = s.records.size();
  }
  // Reuse the slot of a finished connection, if any.
  for (Conn& slot : conns_) {
    if (slot.fd < 0) {
      slot = std::move(conn);
      flush(slot);
      return;
    }
  }
  conns_.push_back(std::move(conn));
  flush(conns_.back());
}

/// Queues the body of record `next` plus what completes it: the next
/// record's header, or — once stopping — the half-close.
void LoadClient::queue_closed_loop(Conn& conn) {
  const Script& s = workload_.scripts[logs_[conn.log].script];
  conn.out += s.at(conn.next).body;
  conn.open_record = !stopping_;
  if (stopping_) {
    conn.shut_after_flush = true;
  } else {
    conn.out += s.at(conn.next + 1).header;
  }
  conn.completes.push_back(conn.next);
  ++conn.next;
  ++conn.awaiting;
}

bool LoadClient::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    logs_[conn.log].error = "send failed";
    close(conn);
    return false;
  }
  conn.out.clear();
  conn.out_off = 0;
  if (conn.shut_after_flush) {
    ::shutdown(conn.fd, SHUT_WR);
    conn.shut_after_flush = false;
  }
  if (!conn.completes.empty()) {
    const double t = now_seconds();
    ConnLog& log = logs_[conn.log];
    for (std::size_t k : conn.completes) {
      if (log.sent_at.size() <= k) {
        log.sent_at.resize(k + 1, -1.0);
        log.result_at.resize(k + 1, -1.0);
        log.lines.resize(k + 1);
      }
      log.sent_at[k] = t;
    }
    conn.completes.clear();
  }
  return true;
}

bool LoadClient::read(Conn& conn) {
  char buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.append(buf, static_cast<std::size_t>(n));
      std::size_t start = 0;
      for (std::size_t eol; (eol = conn.in.find('\n', start)) != std::string::npos;
           start = eol + 1) {
        on_line(conn, conn.in.substr(start, eol + 1 - start));
        if (conn.fd < 0) return false;
      }
      conn.in.erase(0, start);
      if (workload_.drive == Drive::kBurst && conn.awaiting == 0) {
        // Every result is in: reset the connection instead of waiting for
        // the server's FIN.  An orderly close leaves a TIME_WAIT entry per
        // connection on the server side, and at tens of thousands of
        // connections per run they exhaust the loopback port range and
        // throttle connect() within seconds.
        const linger abort_close{1, 0};
        ::setsockopt(conn.fd, SOL_SOCKET, SO_LINGER, &abort_close,
                     sizeof(abort_close));
        close(conn);
        if (!stopping_) open(next_script_++);
        return false;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    // Peer closed (or reset): the connection is over.
    if (conn.awaiting > 0 && logs_[conn.log].error.empty()) {
      logs_[conn.log].error = "connection closed with " +
                              std::to_string(conn.awaiting) +
                              " results outstanding";
    }
    close(conn);
    if (!stopping_ && workload_.drive == Drive::kBurst) open(next_script_++);
    return false;
  }
}

void LoadClient::on_line(Conn& conn, const std::string& line) {
  ConnLog& log = logs_[conn.log];
  if (line.rfind("result id=", 0) != 0) {
    if (line.rfind("# protocol error", 0) == 0) log.error = line;
    return;  // other `#` lines carry no result
  }
  const double t = now_seconds();
  const std::size_t id = std::strtoull(line.c_str() + 10, nullptr, 10);
  if (id == 0 || id > log.sent_at.size() || log.result_at[id - 1] >= 0) {
    log.error = "unexpected result line: " + line;
    return;
  }
  log.result_at[id - 1] = t;
  log.lines[id - 1] = line;
  if (!first_result_) first_result_ = t;
  if (conn.awaiting > 0) --conn.awaiting;
  if (workload_.drive == Drive::kClosedLoop && conn.awaiting == 0 &&
      conn.open_record) {
    queue_closed_loop(conn);
    flush(conn);
  }
}

void LoadClient::stop_issuing() { stopping_ = true; }

bool LoadClient::step(double max_wait_s) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> index;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    if (conns_[i].fd < 0) continue;
    short events = POLLIN;
    if (conns_[i].out_off < conns_[i].out.size()) events |= POLLOUT;
    fds.push_back(pollfd{conns_[i].fd, events, 0});
    index.push_back(i);
  }
  if (fds.empty()) return false;
  const int timeout_ms =
      static_cast<int>(std::ceil(std::max(0.0, max_wait_s) * 1e3));
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready <= 0) return true;
  for (std::size_t j = 0; j < fds.size(); ++j) {
    Conn& conn = conns_[index[j]];
    if (conn.fd != fds[j].fd) continue;  // slot reused this round
    if (fds[j].revents & POLLOUT) {
      if (!flush(conn)) continue;
    }
    if (fds[j].revents & (POLLIN | POLLHUP | POLLERR)) read(conn);
  }
  return true;
}

void LoadClient::close(Conn& conn) {
  if (conn.fd >= 0) ::close(conn.fd);
  conn.fd = -1;
  conn.out.clear();
  conn.out_off = 0;
  conn.in.clear();
  conn.completes.clear();
  conn.awaiting = 0;
}

void LoadClient::abort() {
  for (Conn& conn : conns_) {
    if (conn.fd >= 0 && conn.awaiting > 0 && logs_[conn.log].error.empty()) {
      logs_[conn.log].error = "aborted with results outstanding";
    }
    close(conn);
  }
}

}  // namespace perfbench
