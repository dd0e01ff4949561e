#include "tree/io.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "support/line_cursor.h"

namespace treeplace {

namespace {

constexpr const char* kHeader = "treeplace-tree v1";

/// Guard against unterminated-garbage input (a binary file, a hostile
/// network peer relayed to a file): one line this long is never a valid
/// record line.  Matches serve/wire.h's LineBuffer default.
constexpr std::size_t kMaxLineBytes = 1 << 20;

/// getline() keeps the '\r' of CRLF line endings; strip it so streams
/// written on Windows (or piped through tools that add CRLF) parse
/// identically — in particular, header matching is token-exact.
void sanitize_line(std::string& line) {
  TREEPLACE_CHECK_MSG(line.size() <= kMaxLineBytes,
                      "oversized line: " << line.size() << " bytes (limit "
                                         << kMaxLineBytes << ")");
  if (!line.empty() && line.back() == '\r') line.pop_back();
}

bool is_skipped(const std::string& line) {
  return line.empty() || line[0] == '#';
}

}  // namespace

bool is_record_header(std::string_view line) {
  return line.starts_with("treeplace-");
}

void parse_node_line(TreeBuilder& builder, std::string_view line,
                     NodeId expected_id) {
  LineCursor c(line);
  const char tag = c.next_char();
  NodeId id = kNoNode;
  NodeId parent = kNoNode;
  TREEPLACE_CHECK_MSG(c.parse_int(id) && c.parse_int(parent),
                      "malformed tree line: '" << line << "'");
  TREEPLACE_CHECK_MSG(id == expected_id,
                      "node ids must be consecutive; expected "
                          << expected_id << ", got " << id);
  if (tag == 'I') {
    int pre = 0;
    int orig_mode = -1;
    TREEPLACE_CHECK_MSG(c.parse_int(pre) && c.parse_int(orig_mode),
                        "malformed internal line: '" << line << "'");
    const NodeId got =
        (parent == kNoNode) ? builder.add_root() : builder.add_internal(parent);
    TREEPLACE_CHECK(got == id);
    if (pre != 0) builder.set_pre_existing(id, orig_mode < 0 ? 0 : orig_mode);
  } else if (tag == 'C') {
    RequestCount requests = 0;
    TREEPLACE_CHECK_MSG(c.parse_int(requests),
                        "malformed client line: '" << line << "'");
    const NodeId got = builder.add_client(parent, requests);
    TREEPLACE_CHECK(got == id);
  } else {
    TREEPLACE_CHECK_MSG(false, "unknown node tag '" << tag << "'");
  }
}

void serialize_tree(const Tree& tree, std::ostream& os) {
  os << kHeader << '\n';
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (tree.is_internal(id)) {
      os << "I " << id << ' ' << tree.parent(id) << ' '
         << (tree.pre_existing(id) ? 1 : 0) << ' ' << tree.original_mode(id)
         << '\n';
    } else {
      os << "C " << id << ' ' << tree.parent(id) << ' ' << tree.requests(id)
         << '\n';
    }
  }
}

std::string serialize_tree(const Tree& tree) {
  std::ostringstream os;
  serialize_tree(tree, os);
  return os.str();
}

Tree parse_tree(std::istream& is) {
  TreeStreamReader reader(is);
  std::optional<Tree> tree = reader.next();
  TREEPLACE_CHECK_MSG(tree.has_value(), "bad tree header: empty input");
  TREEPLACE_CHECK_MSG(!reader.next().has_value(),
                      "more than one tree in the input");
  return std::move(*tree);
}

Tree parse_tree(const std::string& text) {
  std::istringstream is(text);
  return parse_tree(is);
}

bool TreeStreamReader::read_line(std::string& line) {
  if (has_pending_) {
    line = std::move(pending_);
    has_pending_ = false;
    return true;
  }
  if (!std::getline(is_, line)) return false;
  sanitize_line(line);
  return true;
}

const char* TreeStreamReader::tree_header() { return kHeader; }

std::optional<Tree> TreeStreamReader::next() {
  std::string line;
  do {
    if (!read_line(line)) return std::nullopt;
  } while (is_skipped(line));
  TREEPLACE_CHECK_MSG(line == kHeader, "bad tree header: '" << line << "'");

  TreeBuilder builder;
  NodeId expected_id = 0;
  while (read_line(line)) {
    if (is_record_header(line)) {
      // The next record starts here; keep its header for the next call.
      pending_ = std::move(line);
      has_pending_ = true;
      break;
    }
    // Interior blank and comment lines are skipped; only a new header
    // terminates a record.
    if (is_skipped(line)) continue;
    parse_node_line(builder, line, expected_id);
    ++expected_id;
  }
  Tree tree = std::move(builder).build();  // may throw: count only successes
  ++trees_read_;
  return tree;
}

std::string to_dot(const Tree& tree) {
  std::ostringstream os;
  os << "digraph tree {\n  rankdir=TB;\n";
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (tree.is_internal(id)) {
      os << "  n" << id << " [shape=circle" << ",label=\"" << id << "\"";
      if (tree.pre_existing(id)) {
        os << ",peripheries=2,style=filled,fillcolor=lightblue";
      }
      os << "];\n";
    } else {
      os << "  n" << id << " [shape=box,label=\"" << tree.requests(id)
         << "\"];\n";
    }
  }
  for (std::size_t i = 0; i < tree.num_nodes(); ++i) {
    const auto id = static_cast<NodeId>(i);
    if (tree.parent(id) != kNoNode) {
      os << "  n" << tree.parent(id) << " -> n" << id << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace treeplace
