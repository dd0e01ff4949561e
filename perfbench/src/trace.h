// In-memory span recorder for the traced replay.
//
// Spans are recorded from the benchmark's own code, around its calls into
// each layer's public entry point; nothing inside the library is
// instrumented.  A span carries its name, start and end (steady clock),
// the span that caused it, the request it belongs to and one count
// measured at the same boundary (bytes parsed, deltas applied, work done).
// With tracing off, begin() records nothing and costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kRequest,  ///< one replayed request, the parent of the layer spans
  kParse,    ///< serve: LineBuffer + RecordParser
  kCache,    ///< serve: TopologyCache::put / get
  kFork,     ///< tree: Scenario copy / apply_delta + Instance
  kSolve,    ///< solver: Solver::solve(SolveRequest) on the session
  kRender,   ///< serve: render_result
  kCoreCold, ///< core: cold engine solve of the same instance (off-path)
};

const char* span_name(SpanName name);

struct Span {
  SpanName name = SpanName::kRequest;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t count = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span; returns its handle (-1 when tracing is off).
  int begin(SpanName name, std::uint64_t request, int parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, parent, request, now_ns(), 0, 0});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int handle, std::uint64_t count = 0) {
    if (handle < 0) return;
    Span& span = spans_[static_cast<std::size_t>(handle)];
    span.end_ns = now_ns();
    span.count = count;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as CSV; returns false if the file cannot be written.
  bool write_csv(const std::string& path) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span; set `count` before it closes.
class Scope {
 public:
  Scope(Tracer& tracer, SpanName name, std::uint64_t request, int parent = -1)
      : tracer_(tracer), handle_(tracer.begin(name, request, parent)) {}
  ~Scope() { tracer_.end(handle_, count); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int handle() const { return handle_; }
  std::uint64_t count = 0;

 private:
  Tracer& tracer_;
  int handle_;
};

}  // namespace perfbench
