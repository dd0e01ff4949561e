// The load generator: one thread, up to `Workload::connections` TCP
// connections to a NetServer on loopback, driven by poll().
//
// A request's latency runs from the moment the byte that completes its
// record is written (the next record's header line, or the half-close for
// a stream's last record — the wire protocol frames records that way) to
// the moment its result line is read.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Seconds on the steady clock (shared with the server's threads).
double now_seconds();

/// Everything one connection sent and received, indexed by record.
struct ConnLog {
  std::size_t script = 0;           ///< index into Workload::scripts
  std::vector<double> sent_at;      ///< when each record was completed
  std::vector<double> result_at;    ///< when its result was read; < 0: none
  std::vector<std::string> lines;   ///< its result line
  std::string error;                ///< protocol error or unexpected input
};

class LoadClient {
 public:
  /// `next_script` is shared across the clients of one run so burst
  /// connections never reuse a script while the pool lasts.
  LoadClient(const Workload& workload, std::uint16_t port,
             std::size_t& next_script);
  ~LoadClient();
  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Opens the workload's connections and sends their first records.
  void start();
  /// One poll round of at most `max_wait_s`; false once every connection
  /// has finished.
  bool step(double max_wait_s);
  /// Sends nothing new: closed-loop connections complete their pending
  /// record and half-close, burst connections finish their script, and no
  /// connection is opened.
  void stop_issuing();
  /// Closes every connection; results still outstanding stay missing.
  void abort();

  std::optional<double> first_result_at() const { return first_result_; }
  std::vector<ConnLog>& logs() { return logs_; }

 private:
  struct Conn {
    int fd = -1;
    std::size_t log = 0;
    std::string out;
    std::size_t out_off = 0;
    std::vector<std::size_t> completes;  ///< records completed by the flush
    bool shut_after_flush = false;
    std::string in;
    std::size_t next = 0;      ///< closed loop: record whose body is next
    std::size_t awaiting = 0;  ///< results not yet read
    /// Closed loop: the header of record `next` is sent, so the server
    /// holds it open until its body and the next header (or EOF) arrive.
    bool open_record = false;
  };

  void open(std::size_t script);
  void queue_closed_loop(Conn& conn);
  bool flush(Conn& conn);  ///< false when the connection failed
  bool read(Conn& conn);   ///< false once the connection has closed
  void on_line(Conn& conn, const std::string& line);
  void close(Conn& conn);

  const Workload& workload_;
  std::uint16_t port_;
  std::size_t& next_script_;
  bool stopping_ = false;
  std::optional<double> first_result_;
  std::vector<Conn> conns_;
  std::vector<ConnLog> logs_;
};

}  // namespace perfbench
