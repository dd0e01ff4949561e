#include "serve/wire.h"

#include <cmath>
#include <cstring>
#include <exception>
#include <sstream>
#include <utility>

#include "support/check.h"
#include "support/line_cursor.h"
#include "tree/io.h"

namespace treeplace::serve {

// ---------------------------------------------------------------------------
// LineBuffer

std::span<char> LineBuffer::writable(std::size_t min_bytes) {
  // Compact first: consumed bytes are dead, and moving the live tail keeps
  // the buffer from creeping even on long-lived connections.
  if (begin_ > 0) {
    const std::size_t live = end_ - begin_;
    if (live > 0) std::memmove(data_.data(), data_.data() + begin_, live);
    end_ = live;
    scan_ -= begin_;
    begin_ = 0;
  }
  if (data_.size() - end_ < min_bytes) {
    data_.resize(std::max(end_ + min_bytes, data_.size() * 2));
  }
  return {data_.data() + end_, data_.size() - end_};
}

std::optional<std::string_view> LineBuffer::next_line() {
  const char* nl = static_cast<const char*>(
      std::memchr(data_.data() + scan_, '\n', end_ - scan_));
  if (nl == nullptr) {
    scan_ = end_;
    TREEPLACE_CHECK_MSG(end_ - begin_ <= max_line_bytes_,
                        "oversized line: " << (end_ - begin_)
                                           << " bytes without a newline "
                                              "(limit "
                                           << max_line_bytes_ << ")");
    return std::nullopt;
  }
  const std::size_t pos = static_cast<std::size_t>(nl - data_.data());
  std::size_t len = pos - begin_;
  TREEPLACE_CHECK_MSG(len <= max_line_bytes_,
                      "oversized line: " << len << " bytes (limit "
                                         << max_line_bytes_ << ")");
  if (len > 0 && data_[begin_ + len - 1] == '\r') --len;  // CRLF peers
  const std::string_view line(data_.data() + begin_, len);
  begin_ = pos + 1;
  scan_ = begin_;
  return line;
}

std::optional<std::string_view> LineBuffer::take_rest() {
  if (end_ == begin_) return std::nullopt;
  std::size_t len = end_ - begin_;
  if (data_[begin_ + len - 1] == '\r') --len;
  const std::string_view line(data_.data() + begin_, len);
  begin_ = end_;
  scan_ = end_;
  return line;
}

// ---------------------------------------------------------------------------
// OutputBuffer

void OutputBuffer::append(std::string_view bytes) {
  // Reclaim the consumed prefix before growing, once it dominates.
  if (begin_ > 4096 && begin_ > data_.size() - begin_) {
    data_.erase(0, begin_);
    begin_ = 0;
  }
  data_.append(bytes);
}

void OutputBuffer::consume(std::size_t n) {
  begin_ += n;
  if (begin_ == data_.size()) {
    data_.clear();
    begin_ = 0;
  }
}

// ---------------------------------------------------------------------------
// Requests

bool is_hello_line(std::string_view line) {
  constexpr std::string_view kHello = "treeplace-hello";
  if (!line.starts_with(kHello)) return false;
  // Token-exact: "treeplace-helloX" is an unknown record, not a hello.
  return line.size() == kHello.size() || line[kHello.size()] == ' ' ||
         line[kHello.size()] == '\t';
}

HelloInfo parse_hello_line(std::string_view line) {
  LineCursor c(line);
  const std::string_view kind = c.next_token();
  HelloInfo hello;
  hello.version = c.next_token();
  TREEPLACE_CHECK_MSG(kind == "treeplace-hello" && hello.version == "v1",
                      "unsupported hello record: '" << line << "'");
  for (std::string_view token = c.next_token(); !token.empty();
       token = c.next_token()) {
    if (token.starts_with("name=")) {
      TREEPLACE_CHECK_MSG(hello.name.empty(),
                          "duplicate name= in hello: '" << line << "'");
      hello.name = token.substr(5);
      TREEPLACE_CHECK_MSG(!hello.name.empty(),
                          "empty name= in hello: '" << line << "'");
    } else {
      hello.features.emplace_back(token);  // unknown features are fine
    }
  }
  return hello;
}

std::string_view hello_reply() { return "# hello: treeplace v1\n"; }

// ---------------------------------------------------------------------------
// RecordParser

namespace {

/// Parses one delta line ("R 3 5", "E 2 1", "X 2", "Z"): the tag is the
/// first non-blank character, its numbers follow, nothing may trail.
ScenarioDelta parse_delta(std::string_view line) {
  LineCursor c(line);
  const char tag = c.next_char();
  TREEPLACE_CHECK_MSG(tag != '\0', "malformed delta line: '" << line << "'");
  ScenarioDelta delta;
  switch (tag) {
    case 'R':
      delta.op = ScenarioDelta::Op::kSetRequests;
      TREEPLACE_CHECK_MSG(
          c.parse_int(delta.node) && c.parse_int(delta.requests),
          "malformed R delta: '" << line << "'");
      break;
    case 'E':
      delta.op = ScenarioDelta::Op::kSetPreExisting;
      TREEPLACE_CHECK_MSG(c.parse_int(delta.node),
                          "malformed E delta: '" << line << "'");
      if (!c.at_end()) {
        TREEPLACE_CHECK_MSG(c.parse_int(delta.mode),
                            "malformed E delta: '" << line << "'");
      }
      break;
    case 'X':
      delta.op = ScenarioDelta::Op::kClearPreExisting;
      TREEPLACE_CHECK_MSG(c.parse_int(delta.node),
                          "malformed X delta: '" << line << "'");
      break;
    case 'Z':
      delta.op = ScenarioDelta::Op::kClearAllPre;
      break;
    default:
      TREEPLACE_CHECK_MSG(false, "unknown delta tag '" << tag << "' in '"
                                                       << line << "'");
  }
  TREEPLACE_CHECK_MSG(c.at_end(),
                      "trailing garbage in delta line: '" << line << "'");
  return delta;
}

}  // namespace

ServeRequest RecordParser::complete() {
  if (state_ == State::kTree) {
    current_.tree = std::move(builder_).build();  // may throw: count after
    builder_ = TreeBuilder{};
    ++trees_;
    current_.topology_key = std::to_string(trees_);
  }
  state_ = State::kIdle;
  current_.id = ++requests_;
  ServeRequest done = std::move(current_);
  current_ = ServeRequest{};
  return done;
}

std::optional<ServeRequest> RecordParser::begin_record(std::string_view line) {
  if (is_hello_line(line)) {
    // The handshake is a single header line with no body, valid only as
    // the very first record, so it is returned at once (a client waiting
    // on the hello reply must not deadlock until its next record arrives).
    TREEPLACE_CHECK_MSG(requests_ == 0 && !hello_seen_,
                        "hello must be the first record of the stream");
    hello_seen_ = true;
    ServeRequest request;  // id stays 0: hello consumes no ordinal
    request.hello = parse_hello_line(line);
    return request;
  }
  if (line == TreeStreamReader::tree_header()) {
    state_ = State::kTree;
    next_node_id_ = 0;
    return std::nullopt;
  }
  // Token-exact matching: "v12" is an unknown record, not v1 with a
  // mangled key.
  LineCursor c(line);
  const std::string_view kind = c.next_token();
  const std::string_view version = c.next_token();
  TREEPLACE_CHECK_MSG(kind == "treeplace-scenario" && version == "v1",
                      "unknown record header: '" << line << "'");
  const std::string_view key = c.next_token();
  TREEPLACE_CHECK_MSG(!key.empty(), "scenario record without a topology key: '"
                                        << line << "'");
  state_ = State::kScenario;
  current_.topology_key.assign(key);
  return std::nullopt;
}

void RecordParser::rethrow_deferred() {
  if (deferred_) std::rethrow_exception(std::exchange(deferred_, nullptr));
}

std::optional<ServeRequest> RecordParser::feed(std::string_view line) {
  rethrow_deferred();
  if (line.empty() || line[0] == '#') return std::nullopt;

  if (is_record_header(line)) {
    // A header ends the record in progress, and that record is complete
    // even when the header itself is malformed.
    std::optional<ServeRequest> completed;
    if (state_ != State::kIdle) completed = complete();
    try {
      if (std::optional<ServeRequest> hello = begin_record(line)) return hello;
    } catch (const CheckError&) {
      if (!completed) throw;
      deferred_ = std::current_exception();
    }
    return completed;
  }

  switch (state_) {
    case State::kIdle:
      TREEPLACE_CHECK_MSG(false, "bad record header: '" << line << "'");
      break;
    case State::kTree:
      parse_node_line(builder_, line, next_node_id_);
      ++next_node_id_;
      break;
    case State::kScenario:
      current_.deltas.push_back(parse_delta(line));
      break;
  }
  return std::nullopt;
}

std::optional<ServeRequest> RecordParser::finish() {
  rethrow_deferred();
  if (state_ == State::kIdle) return std::nullopt;
  return complete();
}

// ---------------------------------------------------------------------------
// Result rendering

RenderedResult render_result(std::size_t id, const std::string& topo_key,
                             const ServeResult& result,
                             const ResultFormat& format) {
  RenderedResult out;
  out.warm = result.warm;
  out.solve_seconds = result.solve_seconds;
  std::ostringstream os;
  os << "result id=" << id << " topo=" << topo_key;
  if (!result.ok) {
    out.status = ResultStatus::kError;
    os << " status=error error=\"" << result.error << "\"\n";
    out.line = os.str();
    return out;
  }
  const Solution& s = result.solution;
  if (!s.feasible) {
    out.status = ResultStatus::kInfeasible;
    os << " status=infeasible queue_s=" << result.queue_seconds
       << " solve_s=" << result.solve_seconds << "\n";
    out.line = os.str();
    return out;
  }
  out.status = ResultStatus::kOk;
  os << " status=ok cost=" << s.breakdown.cost << " power=" << s.power
     << " servers=" << s.breakdown.servers << " reused=" << s.breakdown.reused
     << " created=" << s.breakdown.created
     << " deleted=" << s.breakdown.deleted
     << " frontier=" << s.frontier.size();
  if (format.has_budget) {
    os << " budget=" << (s.budget_met ? "met" : "miss");
    out.budget_missed = !s.budget_met;
  }
  os << " queue_s=" << result.queue_seconds
     << " solve_s=" << result.solve_seconds << " work=" << s.stats.work;
  if (format.print_placements) {
    os << " placement=";
    if (s.placement.empty()) {
      os << '-';
    } else {
      for (std::size_t i = 0; i < s.placement.nodes().size(); ++i) {
        if (i > 0) os << ',';
        os << s.placement.nodes()[i] << ':' << s.placement.modes()[i];
      }
    }
  }
  os << "\n";
  out.line = os.str();
  return out;
}

std::string strip_timings(const std::string& results) {
  std::istringstream is(results);
  std::string out;
  std::string line;
  while (std::getline(is, line)) {
    LineCursor c(line);
    bool first = true;
    for (std::string_view token = c.next_token(); !token.empty();
         token = c.next_token()) {
      if (token.starts_with("queue_s=") || token.starts_with("solve_s=")) {
        continue;
      }
      if (!first) out += ' ';
      out.append(token);
      first = false;
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------------
// LatencyHistogram

namespace {
constexpr double kLatencyBase = 1e-6;  ///< bucket 0 upper bound: 1.25us
constexpr double kLatencyRatio = 1.25;
}  // namespace

void LatencyHistogram::record(double seconds) {
  std::size_t idx = 0;
  if (seconds > kLatencyBase) {
    idx = static_cast<std::size_t>(
        std::log(seconds / kLatencyBase) / std::log(kLatencyRatio));
    if (idx >= kBuckets) idx = kBuckets - 1;
  }
  ++buckets_[idx];
  ++count_;
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double LatencyHistogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(
      p * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen > rank) {
      return kLatencyBase * std::pow(kLatencyRatio, static_cast<double>(i + 1));
    }
  }
  return kLatencyBase * std::pow(kLatencyRatio, static_cast<double>(kBuckets));
}

}  // namespace treeplace::serve
