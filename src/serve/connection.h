// Per-connection serving state for the TCP front-end.
//
// A Connection owns everything one client socket accumulates between
// events: the inbound LineBuffer the socket reads into, the incremental
// RecordParser assembling `treeplace-*` records, the queue of parsed
// requests waiting for a dispatcher slot, the per-connection ordering
// bookkeeping (sequence numbers plus an out-of-order completion buffer),
// and the OutputBuffer of rendered result lines the socket drains.
//
// Ordering contract: requests are assigned consecutive sequence numbers at
// submit time; completions arrive from worker threads in any order and are
// parked in `complete()` until every earlier sequence has been emitted, so
// the bytes written to the socket are in request order — exactly the
// stream server's guarantee, per connection.
//
// The class is plain single-threaded state: only the event loop touches
// it.  Worker threads never see a Connection — they hand completions to
// the loop through the server's completion queue, keyed by the connection
// uid (so a completion for a connection that died in the meantime is
// simply dropped).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <string>

#include "serve/wire.h"

namespace treeplace::serve {

struct ConnectionStats {
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t requests = 0;  ///< records submitted
  std::uint64_t results = 0;   ///< result lines emitted
  std::uint64_t backpressure_stalls = 0;  ///< reads paused: dispatcher full
};

class Connection {
 public:
  /// Takes ownership of `fd` (closed on destruction).  `uid` is the
  /// server-unique id used to namespace topology-cache keys and to route
  /// completions back from worker threads.
  Connection(int fd, std::uint64_t uid, std::size_t max_line_bytes);
  ~Connection();

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  std::uint64_t uid() const { return uid_; }

  /// The topology-cache namespace this connection's ordinal keys live in:
  /// the uid by default (every connection sees a fresh key space), or the
  /// stable hash of the client's hello name — the identity that makes a
  /// session's warm state survive reconnects, shard kills and restarts.
  std::uint64_t namespace_id = 0;
  /// The namespace came from a hello name (persistable at drain).
  bool named = false;

  // --- inbound: socket read target + incremental parsing ------------------

  std::span<char> writable(std::size_t min_bytes) {
    return in_.writable(min_bytes);
  }
  void commit(std::size_t n) {
    in_.commit(n);
    stats_.bytes_in += n;
  }

  /// Frames every complete buffered line through the record parser;
  /// completed records are appended to ready_requests().  Throws
  /// CheckError on malformed input (a fatal per-connection protocol
  /// error; the caller renders it and closes the connection).
  void pump();

  /// The peer half-closed its write side: parse the trailing unterminated
  /// line, if any, and complete the in-progress record — end-of-input
  /// terminates a record, as it does for StreamServer.
  void input_done();

  bool peer_eof() const { return peer_eof_; }
  std::size_t buffered_input() const { return in_.buffered_bytes(); }

  /// Parsed records waiting for a dispatcher slot.  While non-empty the
  /// server masks EPOLLIN on this socket: backpressure propagates to the
  /// peer instead of growing this queue.
  std::deque<ServeRequest>& ready_requests() { return ready_; }

  // --- ordering: sequence allocation and in-order completion --------------

  /// Assigns the next sequence number to a submitted request, recording
  /// `now_seconds` for the submit-to-emit latency histogram.
  std::size_t allocate_seq(double now_seconds);

  /// Parks an out-of-order completion until its turn.
  void complete(std::size_t seq, RenderedResult result);

  struct Done {
    RenderedResult result;
    double submit_seconds = 0.0;  ///< allocate_seq() timestamp
  };

  /// Pops the next in-request-order completed result, or nullopt while
  /// the head sequence is still in flight.
  std::optional<Done> next_completed();

  /// Sequences allocated but not yet emitted (drain barrier).
  std::size_t in_flight() const { return next_seq_ - next_emit_; }

  // --- outbound ------------------------------------------------------------

  OutputBuffer& out() { return out_; }

  // --- event-loop bookkeeping ----------------------------------------------

  ConnectionStats& stats() { return stats_; }
  const ConnectionStats& stats() const { return stats_; }

  /// Current poller registration (the loop diffs desired vs. these and
  /// issues one update() per transition).
  bool poll_read = true;
  bool poll_write = false;
  /// In the loop's stalled list (dispatcher queue was full).
  bool stalled = false;
  /// Set on a fatal protocol error; the connection stops reading, lets
  /// in-flight results finish, appends the error note, then closes.
  bool failed = false;
  std::string fail_reason;
  bool fail_noted = false;
  /// Idle-reaper hooks: connections sit in the server's activity-ordered
  /// list; uniform timeouts make the front the oldest.
  std::list<std::uint64_t>::iterator idle_pos;
  double last_activity_seconds = 0.0;

 private:
  int fd_;
  std::uint64_t uid_;
  LineBuffer in_;
  OutputBuffer out_;
  RecordParser parser_;
  std::deque<ServeRequest> ready_;
  bool peer_eof_ = false;

  std::size_t next_seq_ = 0;
  std::size_t next_emit_ = 0;
  std::deque<double> submit_times_;  ///< front() is next_emit_'s timestamp
  std::map<std::size_t, RenderedResult> completed_;

  ConnectionStats stats_;
};

}  // namespace treeplace::serve
