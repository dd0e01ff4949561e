// Serve request-stream grammar tests: RecordParser fed through the same
// LineBuffer framing both servers use, plus the stream-level cases
// (oversized lines, refused records) through StreamServer.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "gen/tree_gen.h"
#include "serve/stream_server.h"
#include "serve/wire.h"
#include "support/check.h"
#include "tree/io.h"

namespace treeplace::serve {
namespace {

std::string tree_record(std::uint64_t index = 0) {
  TreeGenConfig config;
  config.num_internal = 5;
  return serialize_tree(generate_tree(config, /*seed=*/91, index));
}

/// Runs a whole stream through LineBuffer + RecordParser, as the servers
/// do: complete lines first, then the unterminated rest and finish().
std::vector<ServeRequest> parse_all(std::string_view text) {
  LineBuffer buffer;
  const std::span<char> dst = buffer.writable(text.size());
  std::memcpy(dst.data(), text.data(), text.size());
  buffer.commit(text.size());
  RecordParser parser;
  std::vector<ServeRequest> out;
  const auto keep = [&](std::optional<ServeRequest> request) {
    if (request) out.push_back(std::move(*request));
  };
  while (const std::optional<std::string_view> line = buffer.next_line()) {
    keep(parser.feed(*line));
  }
  if (const std::optional<std::string_view> rest = buffer.take_rest()) {
    keep(parser.feed(*rest));
  }
  keep(parser.finish());
  return out;
}

void expect_delta(const ScenarioDelta& delta, ScenarioDelta::Op op,
                  NodeId node, RequestCount requests, int mode) {
  EXPECT_EQ(delta.op, op);
  EXPECT_EQ(delta.node, node);
  EXPECT_EQ(delta.requests, requests);
  EXPECT_EQ(delta.mode, mode);
}

TEST(RecordParserTest, TreeRecordGetsOrdinalKey) {
  const std::vector<ServeRequest> parsed = parse_all(tree_record(0) + tree_record(1));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].id, 1u);
  EXPECT_EQ(parsed[0].topology_key, "1");
  ASSERT_TRUE(parsed[0].tree.has_value());
  EXPECT_EQ(serialize_tree(*parsed[0].tree), tree_record(0));
  EXPECT_TRUE(parsed[0].deltas.empty());
  EXPECT_EQ(parsed[1].id, 2u);
  EXPECT_EQ(parsed[1].topology_key, "2");
  EXPECT_EQ(serialize_tree(*parsed[1].tree), tree_record(1));
}

TEST(RecordParserTest, ParsesMixedStreamsToExpectedRequests) {
  const std::vector<ServeRequest> parsed = parse_all(
      tree_record(0) + tree_record(1) +
      "\n# comment\n"
      "treeplace-scenario v1 1\nR 6 7\nE 2 1\nE 4\n"
      "treeplace-scenario v1 2\nX 2\nZ\n");
  using Op = ScenarioDelta::Op;
  ASSERT_EQ(parsed.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(parsed[i].id, i + 1);
    EXPECT_EQ(parsed[i].tree.has_value(), i < 2);
  }
  const ServeRequest& third = parsed[2];
  EXPECT_EQ(third.topology_key, "1");
  ASSERT_EQ(third.deltas.size(), 3u);
  expect_delta(third.deltas[0], Op::kSetRequests, 6, 7, 0);
  expect_delta(third.deltas[1], Op::kSetPreExisting, 2, 0, 1);
  expect_delta(third.deltas[2], Op::kSetPreExisting, 4, 0, 0);  // default
  const ServeRequest& fourth = parsed[3];
  EXPECT_EQ(fourth.topology_key, "2");
  ASSERT_EQ(fourth.deltas.size(), 2u);
  expect_delta(fourth.deltas[0], Op::kClearPreExisting, 2, 0, 0);
  expect_delta(fourth.deltas[1], Op::kClearAllPre, kNoNode, 0, 0);
}

TEST(RecordParserTest, ScenarioRecordMayPrecedeOrFollowAnyTree) {
  // Keys are resolved by the servers, not the parser: a scenario record
  // referencing a later (or absent) key still parses.
  const std::vector<ServeRequest> parsed =
      parse_all("treeplace-scenario v1 42\nR 1 2\n" + tree_record());
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].topology_key, "42");
  EXPECT_EQ(parsed[1].topology_key, "1");  // ordinal counts trees
}

TEST(RecordParserTest, BlankLinesAndCommentsSkipped) {
  const std::vector<ServeRequest> parsed = parse_all(tree_record() +
                                  "\n# a comment\n"
                                  "treeplace-scenario v1 1\n"
                                  "# another\n"
                                  "R 3 9\n"
                                  "\n");
  ASSERT_EQ(parsed.size(), 2u);
  ASSERT_EQ(parsed[1].deltas.size(), 1u);
  EXPECT_EQ(parsed[1].deltas[0].requests, 9u);
}

TEST(RecordParserTest, TagMayTouchItsNumberAndPlusSignsAreAccepted) {
  const std::vector<ServeRequest> parsed =
      parse_all(tree_record() + "treeplace-scenario v1 1\nR3 +7\n");
  ASSERT_EQ(parsed.size(), 2u);
  ASSERT_EQ(parsed[1].deltas.size(), 1u);
  expect_delta(parsed[1].deltas[0], ScenarioDelta::Op::kSetRequests,
               3, 7, 0);
}

TEST(RecordParserTest, MalformedRecordsThrow) {
  const char* bad[] = {
      "treeplace-scenario v1\nR 3 5\n",      // missing key
      "treeplace-scenario v1 1\nQ 1\n",      // unknown delta tag
      "treeplace-scenario v1 1\nR 3\n",      // missing value
      "treeplace-scenario v1 1\nE 4 x\n",    // unparsable mode
      "treeplace-scenario v1 1\nR 3 5 junk\n",
      "treeplace-scenario v12 1\nR 3 5\n",   // token-exact version match
      "treeplace-frobnicate v1\n",           // unknown record
      "not a record\n",
      "treeplace-tree v1\nI zero\n",
      "treeplace-tree v1\nI 5 -1 0 -1\n",    // non-consecutive ids
  };
  for (const char* stream : bad) {
    EXPECT_THROW(parse_all(stream), CheckError) << stream;
  }
}

TEST(RecordParserTest, NegativeCountsAreRefused) {
  // Unsigned fields take no sign: "-5" is malformed, never 2^64 - 5.
  EXPECT_THROW(parse_all("treeplace-scenario v1 1\nR 2 -5\n"), CheckError);
  EXPECT_THROW(parse_all("treeplace-tree v1\nI 0 -1 0 -1\nC 1 0 -5\n"),
               CheckError);
}

TEST(RecordParserTest, TruncatedRecordsThrowOrEndCleanly) {
  // A tree line cut off mid-fields (connection dropped mid-write) is
  // malformed, not silently a smaller tree.
  EXPECT_THROW(parse_all("treeplace-tree v1\nI 0 -1 0 -1\nC 1 0\n"),
               CheckError);
  // A header with nothing after it: a tree record truncated before its
  // body fails validation (a tree needs at least a root).
  EXPECT_THROW(parse_all("treeplace-tree v1\n"), CheckError);
  // EOF at a line boundary ends the record cleanly — half-close framing.
  const std::vector<ServeRequest> parsed =
      parse_all(tree_record() + "treeplace-scenario v1 1\nR 6 7");
  ASSERT_EQ(parsed.size(), 2u);
  ASSERT_EQ(parsed[1].deltas.size(), 1u);
  EXPECT_EQ(parsed[1].deltas[0].requests, 7u);
}

TEST(RecordParserTest, FinalRecordWithoutTrailingNewlineCompletes) {
  RecordParser parser;
  EXPECT_FALSE(parser.feed("treeplace-scenario v1 1").has_value());
  EXPECT_FALSE(parser.feed("R 6 7").has_value());
  auto last = parser.finish();
  ASSERT_TRUE(last.has_value());
  ASSERT_EQ(last->deltas.size(), 1u);
  EXPECT_EQ(last->deltas[0].requests, 7u);
  EXPECT_FALSE(parser.finish().has_value());  // nothing left in progress
}

TEST(RecordParserTest, InterleavedGarbageBetweenRecordsThrows) {
  // The garbage is claimed by the tree record's body (only a header ends a
  // record), so it surfaces as a malformed node line, not silence.
  EXPECT_THROW(parse_all(tree_record() + "some binary junk between records\n" +
                         "treeplace-scenario v1 1\nR 6 7\n"),
               CheckError);
}

TEST(RecordParserTest, BadHeaderStillCompletesThePreviousRecord) {
  // The record before a malformed header is whole, so it is handed out;
  // the header's error surfaces on the next call.
  RecordParser parser;
  EXPECT_FALSE(parser.feed("treeplace-scenario v1 1").has_value());
  EXPECT_FALSE(parser.feed("R 6 7").has_value());
  const std::optional<ServeRequest> done =
      parser.feed("treeplace-frobnicate v1");
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->id, 1u);
  ASSERT_EQ(done->deltas.size(), 1u);
  EXPECT_THROW(parser.finish(), CheckError);
}

TEST(RecordParserTest, HelloOnlyAsTheFirstRecord) {
  const std::vector<ServeRequest> parsed = parse_all(
      "treeplace-hello v1 name=alice warm\n" + tree_record());
  ASSERT_EQ(parsed.size(), 2u);
  const ServeRequest& hello = parsed[0];
  ASSERT_TRUE(hello.hello.has_value());
  EXPECT_EQ(hello.id, 0u);  // consumes no ordinal
  EXPECT_EQ(hello.hello->version, "v1");
  EXPECT_EQ(hello.hello->name, "alice");
  EXPECT_EQ(hello.hello->features, std::vector<std::string>{"warm"});
  EXPECT_EQ(parsed[1].id, 1u);

  EXPECT_THROW(parse_all(tree_record() + "treeplace-hello v1\n"), CheckError);
  EXPECT_THROW(parse_all("treeplace-hello v2\n"), CheckError);
  EXPECT_THROW(parse_all("treeplace-hello v1 name=\n"), CheckError);
}

TEST(RecordParserTest, CrlfStreamsParseIdentically) {
  // The whole stream written with CRLF line endings (a Windows client or a
  // transcoding relay) must parse exactly like the LF original.
  const std::string lf =
      tree_record() + "treeplace-scenario v1 1\nR 6 7\nE 2 1\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  const std::vector<ServeRequest> a = parse_all(lf);
  const std::vector<ServeRequest> b = parse_all(crlf);
  ASSERT_EQ(a.size(), 2u);
  ASSERT_EQ(b.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(a[i].topology_key, b[i].topology_key);
    ASSERT_EQ(a[i].tree.has_value(), b[i].tree.has_value());
    if (a[i].tree) {
      EXPECT_EQ(serialize_tree(*a[i].tree),
                serialize_tree(*b[i].tree));
    }
    EXPECT_EQ(a[i].deltas.size(), b[i].deltas.size());
  }
}

TEST(RecordParserTest, EmptyStreamYieldsNothing) {
  EXPECT_TRUE(parse_all("\n# only comments\n\n").empty());
}

// ---------------------------------------------------------------------------
// Stream-level cases, through StreamServer

StreamServerConfig serial_config() {
  StreamServerConfig config;
  config.dispatcher.algos = {"update-dp"};
  config.dispatcher.threads = 1;
  return config;
}

TEST(RequestStreamServeTest, OversizedLineIsAStreamError) {
  std::istringstream in(tree_record() + "treeplace-scenario v1 1\nR 6 7 " +
                        std::string(2u << 20, 'x') + "\n");
  std::ostringstream out;
  const StreamServerSummary summary =
      StreamServer(serial_config()).serve(in, out);
  EXPECT_TRUE(summary.stream_error);
  EXPECT_NE(summary.stream_error_message.find("oversized line"),
            std::string::npos);
  EXPECT_EQ(summary.requests, 1u);  // the tree before it is still served
  EXPECT_NE(out.str().find("result id=1 "), std::string::npos);
}

TEST(RequestStreamServeTest, NegativeRequestCountIsAStreamError) {
  std::istringstream in(tree_record() + "treeplace-scenario v1 1\nR 2 -5\n");
  std::ostringstream out;
  const StreamServerSummary summary =
      StreamServer(serial_config()).serve(in, out);
  EXPECT_TRUE(summary.stream_error);
  EXPECT_NE(summary.stream_error_message.find("malformed R delta"),
            std::string::npos);
  EXPECT_EQ(summary.requests, 1u);
  EXPECT_NE(out.str().find("result id=1 "), std::string::npos);
  EXPECT_EQ(out.str().find("result id=2 "), std::string::npos);
}

TEST(RequestStreamServeTest, HelloReplyPrecedesResults) {
  std::istringstream in("treeplace-hello v1\n" + tree_record());
  std::ostringstream out;
  const StreamServerSummary summary =
      StreamServer(serial_config()).serve(in, out);
  EXPECT_FALSE(summary.stream_error);
  EXPECT_EQ(summary.requests, 1u);
  EXPECT_EQ(out.str().rfind(std::string(hello_reply()) + "result id=1 ", 0),
            0u);
}

}  // namespace
}  // namespace treeplace::serve
