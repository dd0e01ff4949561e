// Plain-text serialization and Graphviz export for distribution trees.
//
// Text format (one node per line, parents before children):
//   treeplace-tree v1
//   I <id> <parent|-1> <pre:0|1> <orig_mode|-1>
//   C <id> <parent> <requests>
// Ids in the file must match insertion order (0..n-1), which is what
// serialize_tree() emits; parse_node_line() validates this.
//
// Several trees may be concatenated in one stream (`cat a.txt b.txt`): each
// `treeplace-tree v1` header starts a new tree and terminates the previous
// one (blank and comment lines are skipped anywhere).  TreeStreamReader
// yields trees one at a time — the batch-serving path of `treeplace
// solve`; parse_tree() reads a stream of exactly one.
#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

#include "tree/tree.h"

namespace treeplace {

/// Writes `tree` in the v1 text format.
void serialize_tree(const Tree& tree, std::ostream& os);
std::string serialize_tree(const Tree& tree);

/// Parses exactly one tree occupying the whole stream (blank and comment
/// lines aside); throws CheckError on malformed input.
Tree parse_tree(std::istream& is);
Tree parse_tree(const std::string& text);

/// True for a record header line: any line starting with "treeplace-"
/// ends the record before it, in tree streams and serve streams alike.
bool is_record_header(std::string_view line);

/// Parses one `I ...` / `C ...` node line into `builder`; `expected_id`
/// enforces consecutive ids.  Numbers follow LineCursor's rules
/// (support/line_cursor.h), so a negative request count is malformed.
/// Tokens after the last field are ignored.  Throws CheckError on
/// malformed input.  This is the only parser of node lines: parse_tree(),
/// TreeStreamReader and the serve record parser (serve/wire.h) all call it.
void parse_node_line(TreeBuilder& builder, std::string_view line,
                     NodeId expected_id);

/// Streaming reader over a concatenation of tree records.  Works on
/// non-seekable streams (pipes, stdin): a header line that terminates one
/// record is buffered and re-consumed as the start of the next.
class TreeStreamReader {
 public:
  explicit TreeStreamReader(std::istream& is) : is_(is) {}

  /// The next tree, or nullopt at end of stream.  Throws CheckError on
  /// malformed input (including non-tree record headers).
  std::optional<Tree> next();

  /// The tree record header ("treeplace-tree v1").
  static const char* tree_header();

  /// Number of trees successfully returned so far.
  std::size_t trees_read() const { return trees_read_; }

 private:
  bool read_line(std::string& line);

  std::istream& is_;
  std::string pending_;      // a header line consumed past a record boundary
  bool has_pending_ = false;
  std::size_t trees_read_ = 0;
};

/// Graphviz DOT rendering: internal nodes as circles (pre-existing servers
/// doubled), clients as boxes labelled with their request count.
std::string to_dot(const Tree& tree);

}  // namespace treeplace
