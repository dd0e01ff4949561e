// End-to-end tests for serving a stream (`treeplace serve` on stdin): one
// connection on the NetServer shard loop via NetServer::serve_stream.
// Mixed record streams in, ordered result records out, results
// bit-identical to the serial reference and to offline solves for any
// pool size.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "serve/net_server.h"
#include "solver/registry.h"
#include "tree/io.h"
#include "tree/tree.h"

namespace treeplace::serve {
namespace {

/// Fixed layout so delta records can target known ids: internal nodes
/// 0, 1, 2, 6; clients 3, 4, 5, 7.
Tree make_tree(RequestCount variant) {
  TreeBuilder b;
  const NodeId root = b.add_root();       // 0
  const NodeId a = b.add_internal(root);  // 1
  const NodeId c = b.add_internal(root);  // 2
  b.add_client(a, 5 + variant);           // 3
  b.add_client(a, 3);                     // 4
  b.add_client(c, 4);                     // 5
  const NodeId d = b.add_internal(c);     // 6
  b.add_client(d, 2 + variant);           // 7
  return std::move(b).build();
}

StreamServerConfig single_mode_config(std::size_t threads) {
  StreamServerConfig config;
  config.dispatcher.algos = {"update-dp"};
  config.dispatcher.threads = threads;
  config.modes = ModeSet::single(10);
  config.costs = CostModel::simple(0.1, 0.01);
  config.project_original_modes = true;
  return config;
}

/// A stream with two trees and delta requests against both.
std::string make_stream() {
  std::ostringstream out;
  out << serialize_tree(make_tree(0));
  out << serialize_tree(make_tree(1));
  out << "treeplace-scenario v1 1\nE 2\nE 6 0\n";
  out << "treeplace-scenario v1 2\nZ\nR 3 7\n";
  out << "treeplace-scenario v1 1\nE 2\nX 2\n";
  return out.str();
}

struct Served {
  NetServerSummary summary;
  std::string out;
};

Served serve(const std::string& stream, StreamServerConfig config) {
  NetServerConfig net;
  net.stream = std::move(config);
  NetServer server(std::move(net));
  std::istringstream in(stream);
  std::ostringstream out;
  Served served;
  served.summary = server.serve_stream(in, out);
  served.out = out.str();
  return served;
}

std::vector<std::string> result_lines(const std::string& output) {
  std::istringstream is(output);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("result ", 0) == 0) lines.push_back(line);
  }
  return lines;
}

std::string results_only(const std::string& output) {
  std::string kept;
  for (const std::string& line : result_lines(output)) kept += line + "\n";
  return strip_timings(kept);
}

TEST(ServeStreamTest, ServesTreesAndDeltasInOrder) {
  const Served served = serve(make_stream(), single_mode_config(2));

  EXPECT_EQ(served.summary.requests, 5u);
  EXPECT_EQ(served.summary.ok, 5u);
  EXPECT_EQ(served.summary.errors, 0u);
  EXPECT_EQ(served.summary.protocol_errors, 0u);
  EXPECT_EQ(served.summary.cache.hits, 3u);

  const auto lines = result_lines(served.out);
  ASSERT_EQ(lines.size(), 5u);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find("id=" + std::to_string(i + 1) + " "),
              std::string::npos)
        << "out-of-order record: " << lines[i];
    EXPECT_NE(lines[i].find("status=ok"), std::string::npos);
  }
  // Requests 1 and 3 share topology "1", 2 and 4 topology "2".
  EXPECT_NE(lines[2].find("topo=1"), std::string::npos);
  EXPECT_NE(lines[3].find("topo=2"), std::string::npos);
}

TEST(ServeStreamTest, OutputIdenticalForAnyPoolSizeAndToTheSerialReference) {
  // Result records (costs, placements, order) are bit-identical; only the
  // timing fields differ, so compare with timings stripped.
  const std::string reference =
      serve_serially(make_stream(), single_mode_config(1));
  ASSERT_EQ(result_lines(reference).size(), 5u);
  for (const std::size_t threads : {1u, 2u, 4u}) {
    const Served served = serve(make_stream(), single_mode_config(threads));
    EXPECT_EQ(results_only(served.out), reference) << threads;
  }
}

TEST(ServeStreamTest, DeltaSolveMatchesOfflineSolve) {
  // Request 3 marks nodes 2 and 6 of tree 1 pre-existing; the served
  // result must match solving the equivalent instance directly.
  const auto lines =
      result_lines(serve(make_stream(), single_mode_config(2)).out);
  ASSERT_EQ(lines.size(), 5u);

  Tree tree = make_tree(0);
  tree.set_pre_existing(2);
  tree.set_pre_existing(6);
  const auto solver = make_solver("update-dp");
  const Solution expected = solver->solve(
      Instance::single_mode(std::move(tree), 10, 0.1, 0.01));
  std::ostringstream expected_cost;
  expected_cost << "cost=" << expected.breakdown.cost;
  EXPECT_NE(lines[2].find(expected_cost.str()), std::string::npos)
      << lines[2] << " vs " << expected_cost.str();
}

TEST(ServeStreamTest, UnknownTopologyKeyBecomesErrorRecord) {
  const std::string stream =
      "treeplace-scenario v1 9\nR 1 2\n" + serialize_tree(make_tree(0));
  const Served served = serve(stream, single_mode_config(2));

  EXPECT_EQ(served.summary.requests, 2u);
  EXPECT_EQ(served.summary.errors, 1u);
  EXPECT_EQ(served.summary.ok, 1u);
  const auto lines = result_lines(served.out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("status=error"), std::string::npos);
  EXPECT_NE(lines[0].find("unknown topology"), std::string::npos);
  EXPECT_NE(lines[1].find("status=ok"), std::string::npos);
  EXPECT_EQ(results_only(served.out),
            serve_serially(stream, single_mode_config(2)));
}

TEST(ServeStreamTest, BadDeltaTargetBecomesErrorRecord) {
  // Node 0 is the root (internal): R on it must fail that request only.
  const Served served = serve(
      serialize_tree(make_tree(0)) + "treeplace-scenario v1 1\nR 0 5\n",
      single_mode_config(1));
  EXPECT_EQ(served.summary.errors, 1u);
  EXPECT_EQ(served.summary.ok, 1u);
  EXPECT_EQ(served.summary.protocol_errors, 0u);
}

TEST(ServeStreamTest, MultiModeServing) {
  StreamServerConfig config;
  config.dispatcher.algos = {"power-sym"};
  config.dispatcher.threads = 2;
  config.modes = ModeSet({5, 10}, 12.5, 3.0);
  config.costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  config.project_original_modes = false;

  const std::string stream =
      serialize_tree(make_tree(0)) + "treeplace-scenario v1 1\nE 2 1\n";
  const Served served = serve(stream, config);
  EXPECT_EQ(served.summary.ok, 2u);
  const auto lines = result_lines(served.out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("frontier="), std::string::npos);
  EXPECT_EQ(results_only(served.out), serve_serially(stream, config));
}

TEST(ServeStreamTest, DeltaRequestsRunWarmSessions) {
  // All five requests (two tree records, three delta records) route
  // through their topology's SolveSession: update-dp is incremental-
  // capable, so every solve counts as warm and the summary reports it.
  // No flags involved — sessions are automatic.
  const Served served = serve(make_stream(), single_mode_config(2));
  ASSERT_EQ(served.summary.dispatcher.per_solver.size(), 1u);
  EXPECT_EQ(served.summary.dispatcher.per_solver[0].warm, 5u);
  EXPECT_NE(served.out.find(" warm=5"), std::string::npos);
}

TEST(ServeStreamTest, MalformedStreamStillFlushesResultsAndSummary) {
  // The stream dies mid-record after two good requests: both are served in
  // order, then the protocol error line, then the summary block (the CLI
  // maps the protocol error to a nonzero exit).
  const std::string stream = serialize_tree(make_tree(0)) +
                             "treeplace-scenario v1 1\nR 3 2\n"
                             "treeplace-scenario v1 1\nR 3 garbage\n";
  const Served served = serve(stream, single_mode_config(2));

  EXPECT_EQ(served.summary.protocol_errors, 1u);
  EXPECT_EQ(served.summary.requests, 2u);
  EXPECT_EQ(served.summary.ok, 2u);
  const auto lines = result_lines(served.out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("id=1 "), std::string::npos);
  EXPECT_NE(lines[1].find("id=2 "), std::string::npos);
  const std::size_t error = served.out.find("# protocol error: ");
  ASSERT_NE(error, std::string::npos);
  EXPECT_GT(error, served.out.find("result id=2 "));
  EXPECT_LT(error, served.out.find("# serve:"));
  EXPECT_NE(served.out.find("# solver update-dp:"), std::string::npos);
  EXPECT_EQ(results_only(served.out),
            serve_serially(stream, single_mode_config(2)));
}

TEST(ServeStreamTest, SummaryReportsLatencyAndNetStats) {
  const Served served = serve(make_stream(), single_mode_config(2));
  ASSERT_EQ(served.summary.dispatcher.per_solver.size(), 1u);
  EXPECT_EQ(served.summary.dispatcher.per_solver[0].solves, 5u);
  EXPECT_GT(served.summary.dispatcher.per_solver[0].total_solve_seconds, 0.0);
  EXPECT_EQ(served.summary.reaped_idle, 0u);
  EXPECT_EQ(served.summary.bytes_in, make_stream().size());
  EXPECT_NE(served.out.find("# serve: 5 requests"), std::string::npos);
  EXPECT_NE(served.out.find("# net: poller="), std::string::npos);
  EXPECT_NE(served.out.find("# solver update-dp:"), std::string::npos);
  EXPECT_NE(served.out.find("# cache:"), std::string::npos);
  // The summary follows every result.
  EXPECT_GT(served.out.find("# serve:"), served.out.rfind("result "));
}

TEST(ServeStreamTest, SessionCountersOutliveTheClosedConnection) {
  // The stream's one connection closes before the summary, taking its
  // cache entries along; the cumulative session counters must survive.
  // A multi-mode single-delta re-solve splices root cells lazily.
  StreamServerConfig config;
  config.dispatcher.algos = {"power-sym"};
  config.dispatcher.threads = 1;
  config.modes = ModeSet({5, 10}, 12.5, 3.0);
  config.costs = CostModel::uniform(2, 0.1, 0.01, 0.001, 0.001);
  config.project_original_modes = false;
  std::string stream = serialize_tree(make_tree(0));
  for (int i = 0; i < 4; ++i) {
    stream += "treeplace-scenario v1 1\nR 7 " + std::to_string(2 + i) + "\n";
  }

  const Served served = serve(stream, config);
  EXPECT_EQ(served.summary.ok, 5u);
  EXPECT_EQ(served.summary.cache.size, 0u);
  EXPECT_EQ(served.summary.cache.session_bytes, 0u);
  EXPECT_GT(served.summary.cache.session_cells_skipped, 0u);
}

}  // namespace
}  // namespace treeplace::serve
