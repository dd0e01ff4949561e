#include "serve/connection.h"

#include <unistd.h>

#include <utility>

#include "support/check.h"

namespace treeplace::serve {

Connection::Connection(int fd, std::uint64_t uid, std::size_t max_line_bytes)
    : namespace_id(uid), fd_(fd), uid_(uid), in_(max_line_bytes) {}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

void Connection::pump() {
  while (std::optional<std::string_view> line = in_.next_line()) {
    if (std::optional<ServeRequest> request = parser_.feed(*line)) {
      ready_.push_back(std::move(*request));
    }
  }
}

void Connection::input_done() {
  if (peer_eof_) return;
  peer_eof_ = true;
  // A final line without a terminating newline still counts.
  if (std::optional<std::string_view> rest = in_.take_rest()) {
    if (!rest->empty()) {
      if (std::optional<ServeRequest> request = parser_.feed(*rest)) {
        ready_.push_back(std::move(*request));
      }
    }
  }
  if (std::optional<ServeRequest> request = parser_.finish()) {
    ready_.push_back(std::move(*request));
  }
}

std::size_t Connection::allocate_seq(double now_seconds) {
  submit_times_.push_back(now_seconds);
  return next_seq_++;
}

void Connection::complete(std::size_t seq, RenderedResult result) {
  TREEPLACE_CHECK_MSG(seq >= next_emit_ && seq < next_seq_,
                      "completion for unknown sequence " << seq);
  completed_.emplace(seq, std::move(result));
}

std::optional<Connection::Done> Connection::next_completed() {
  const auto it = completed_.find(next_emit_);
  if (it == completed_.end()) return std::nullopt;
  Done done{std::move(it->second), submit_times_.front()};
  completed_.erase(it);
  submit_times_.pop_front();
  ++next_emit_;
  return done;
}

}  // namespace treeplace::serve
