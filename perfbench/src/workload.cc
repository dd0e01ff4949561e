#include "workload.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "gen/preexisting.h"
#include "gen/tree_gen.h"
#include "gen/workload.h"
#include "support/prng.h"
#include "tree/aggregate.h"
#include "tree/io.h"
#include "tree/scenario_delta.h"

namespace perfbench {
namespace {

using namespace treeplace;

constexpr const char* kScenarioHeader = "treeplace-scenario v1 1\n";

/// Splits serialize_tree()'s output into the header line and the body.
Record tree_record(const Tree& tree) {
  std::string text = serialize_tree(tree);
  const std::size_t eol = text.find('\n');
  return Record{text.substr(0, eol + 1), text.substr(eol + 1)};
}

/// One delta as a record line (the grammar of serve/request_stream.h).
void append_delta(std::string& out, const ScenarioDelta& d) {
  switch (d.op) {
    case ScenarioDelta::Op::kSetRequests:
      out += "R " + std::to_string(d.node) + " " + std::to_string(d.requests);
      break;
    case ScenarioDelta::Op::kSetPreExisting:
      out += "E " + std::to_string(d.node) + " " + std::to_string(d.mode);
      break;
    case ScenarioDelta::Op::kClearPreExisting:
      out += "X " + std::to_string(d.node);
      break;
    case ScenarioDelta::Op::kClearAllPre:
      out += "Z";
      break;
  }
  out += '\n';
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// The multi-mode instance parameters `treeplace serve --algo power-sym
/// --modes W1,W2` builds with every other cost and power flag left at its
/// default.
serve::NetServerConfig power_sym_server(std::vector<RequestCount> capacities) {
  serve::NetServerConfig config;
  config.stream.dispatcher.algos = {"power-sym"};
  config.stream.modes = ModeSet(std::move(capacities), 0.0, 3.0);
  config.stream.costs = CostModel::uniform(2, 0.1, 0.01, 0.0, 0.0);
  config.stream.project_original_modes = false;
  return config;
}

// The skew tree is fixed so that figures from different seeds compare: its
// shape sets the cost of every tick (tick p50 moves by 30% across tree
// seeds), while the seed drives the day's traffic.
constexpr std::uint64_t kDayTopologySeed = 42;

Workload day_warm(std::uint64_t seed) {
  Workload w;
  w.name = "day_warm";
  w.drive = Drive::kClosedLoop;
  w.server = server_config(w.name);

  SkewTreeConfig gen;  // `treeplace workload` defaults: 400 internal nodes
  gen.num_internal = 400;
  gen.num_users = 100000;
  Tree tree = generate_skew_tree(gen, kDayTopologySeed, 0);
  Aggregation agg(tree.topology_ptr());

  Script script;
  const Tree published(agg.aggregated(), agg.aggregate(tree.scenario()));
  script.records.push_back(tree_record(published));
  DiurnalWorkload day(tree.topology_ptr(), DiurnalConfig{},
                      make_rng(seed, 0, RngStream::kWorkloadUpdate));
  for (std::size_t tick = 0; tick < day.ticks_per_day(); ++tick) {
    DiurnalWorkload::Tick t = day.next();
    for (const ScenarioDelta& d : t.deltas) apply_delta(tree.scenario(), d);
    Record r{kScenarioHeader, {}};
    for (const ScenarioDelta& d : agg.map_deltas(tree.scenario(), t.deltas)) {
      append_delta(r.body, d);
    }
    script.records.push_back(std::move(r));
  }
  script.cycle_from = 1;  // past one day, the ticks repeat

  w.nodes = published.num_nodes();
  w.users = gen.num_users;
  w.traffic = "1 tree record, then " + std::to_string(day.ticks_per_day()) +
              " diurnal ticks (cyclic), each R records of the touched "
              "attachment points";
  w.scripts.push_back(std::move(script));
  w.connections = 1;
  // Each cold solve of this tree takes seconds; two fixed ticks suffice.
  w.core_sample_records = {1, 2};
  w.counter_first = 1;  // the ticks, not the priming publish
  w.counter_end = 97;
  return w;
}

Workload publish_cold(std::uint64_t seed) {
  Workload w;
  w.name = "publish_cold";
  w.drive = Drive::kClosedLoop;
  w.server = server_config(w.name);

  // Paper Experiment-3 trees (p = 0.5, r in [1,5], |E| = 5 with random
  // original modes), sized to about 100 nodes.  The fan-out is fixed at 7,
  // the middle of the paper's fat range [6, 9]: with the range, a tree's
  // cold solve costs 18-130 ms and the tail of ~300 trees per run moves
  // by 25% from seed to seed.
  TreeGenConfig gen;
  gen.num_internal = 64;
  gen.shape = TreeShape{7, 7};
  gen.max_requests = 5;
  constexpr std::size_t kTrees = 1024;
  Script script;
  std::size_t max_nodes = 0;
  for (std::size_t i = 0; i < kTrees; ++i) {
    Tree tree = generate_tree(gen, seed, i);
    Xoshiro256 rng = make_rng(seed, i, RngStream::kPreExisting);
    assign_random_pre_existing(tree, 5, rng, 2);
    max_nodes = std::max(max_nodes, tree.num_nodes());
    script.records.push_back(tree_record(tree));
  }
  w.nodes = max_nodes;
  w.users = 0;
  w.traffic = std::to_string(kTrees) +
              " distinct tree records (cyclic), one cold solve each";
  w.scripts.push_back(std::move(script));
  w.connections = 1;
  w.counter_end = 64;
  return w;
}

Workload tenant_churn(std::uint64_t seed) {
  Workload w;
  w.name = "tenant_churn";
  w.drive = Drive::kBurst;
  w.server = server_config(w.name);

  TreeGenConfig gen;
  gen.num_internal = 16;
  gen.max_requests = 5;
  constexpr std::size_t kScripts = 512;
  constexpr std::size_t kDeltaRecords = 4;
  std::size_t max_nodes = 0;
  for (std::size_t i = 0; i < kScripts; ++i) {
    Tree tree = generate_tree(gen, seed, i);
    Xoshiro256 rng = make_rng(seed, i, RngStream::kPreExisting);
    assign_random_pre_existing(tree, 2, rng, 1);
    max_nodes = std::max(max_nodes, tree.num_nodes());
    Script script;
    script.records.push_back(tree_record(tree));

    Xoshiro256 ops = make_rng(seed, i, RngStream::kWorkloadUpdate);
    const auto& clients = tree.client_ids();
    const auto& internal = tree.internal_ids();
    for (std::size_t r = 0; r < kDeltaRecords; ++r) {
      Record record{kScenarioHeader, {}};
      const std::uint64_t lines = 1 + ops.uniform(0, 2);
      for (std::uint64_t l = 0; l < lines; ++l) {
        const std::uint64_t kind = ops.uniform(0, 9);
        ScenarioDelta d;
        if (kind < 5 && !clients.empty()) {
          d = ScenarioDelta::set_requests(
              clients[ops.uniform(0, clients.size() - 1)],
              static_cast<RequestCount>(ops.uniform(1, 5)));
        } else if (kind < 7) {
          d = ScenarioDelta::set_pre_existing(
              internal[ops.uniform(0, internal.size() - 1)]);
        } else if (kind < 9) {
          d = ScenarioDelta::clear_pre_existing(
              internal[ops.uniform(0, internal.size() - 1)]);
        } else {
          d = ScenarioDelta::clear_all_pre();
        }
        append_delta(record.body, d);
      }
      script.records.push_back(std::move(record));
    }
    w.scripts.push_back(std::move(script));
  }
  w.nodes = max_nodes;
  w.users = 0;
  w.traffic = "per connection: 1 tree record + " +
              std::to_string(kDeltaRecords) +
              " pipelined R/E/X/Z delta records, half-close, reconnect";
  // Two tenants at a time: enough to keep the dispatcher pool busy, while
  // the load generator, the router, the shard loop and the pool still fit
  // a four-core host; at nproc connections the rate and the tail swing by
  // 15-70% from run to run.
  w.connections = std::min<std::size_t>(2, nproc());
  w.counter_scripts = 128;
  w.counter_end = 1 + kDeltaRecords;
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"day_warm", "publish_cold",
                                                 "tenant_churn"};
  return names;
}

serve::NetServerConfig server_config(const std::string& name) {
  // Capacities as bench/day_serve: the root must absorb a flash-crowd peak
  // of 1e5 users x 5 requests x 4.
  if (name == "day_warm") return power_sym_server({4000000, 8000000});
  if (name == "publish_cold") return power_sym_server({5, 10});
  // NetServerConfig defaults throughout: update-dp, one mode of capacity 10.
  if (name == "tenant_churn") return serve::NetServerConfig{};
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::size_t setup_count(const std::string& name) {
  // Each day_warm set-up includes a multi-second cold solve.
  return name == "day_warm" ? 3 : name == "publish_cold" ? 5 : 7;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "day_warm") return day_warm(seed);
  if (name == "publish_cold") return publish_cold(seed);
  if (name == "tenant_churn") return tenant_churn(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
