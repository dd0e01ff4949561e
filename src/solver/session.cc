#include "solver/session.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/dp_snapshot.h"
#include "solver/contracted.h"
#include "solver/solver.h"
#include "support/binio.h"
#include "support/check.h"

namespace treeplace {

namespace {

/// One sheddable unit of cached DP state, ranked coldest-first (fewest
/// invalidations since the session started) so rarely-updated subtrees pay
/// the recompute and the hot set — whose tables are rebuilt and reused on
/// every solve — survives.  Size breaks ties largest-first to free the
/// most bytes per eviction.  Root-path nodes are dirtied by every delta
/// below them, so they rank hottest and are shed last.
struct Shedding {
  std::uint64_t hotness = 0;  ///< times the node was dirtied (SubtreeCache)
  std::size_t bytes = 0;
  std::size_t node = 0;
  int cache = 0;  ///< index into the per-session cache list

  friend bool operator<(const Shedding& a, const Shedding& b) {
    if (a.hotness != b.hotness) return a.hotness < b.hotness;  // coldest first
    if (a.bytes != b.bytes) return a.bytes > b.bytes;          // largest first
    if (a.cache != b.cache) return a.cache < b.cache;
    return a.node < b.node;
  }
};

template <typename Cache>
std::size_t cache_bytes(Cache& cache) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < cache.size(); ++i) total += cache.state_bytes(i);
  return total;
}

/// Drops a contraction without writing anything back.  Used by restore():
/// the snapshot being swapped in was itself decontracted at save time, so
/// the restored full caches are complete and the slot's tables are stale.
/// The sentinel attach (empty params never match a real attach) keeps the
/// cache from warm-matching a future topology reallocated at the same
/// address once the map — which owns the contracted topology — dies.
template <typename NodeState>
void discard_contraction(ContractionSlot<NodeState>& slot) {
  if (slot.map != nullptr) {
    slot.cache.attach(slot.map->contracted().get(), {});
    slot.map.reset();
  }
  slot.active = false;
}

/// Calls f(map) on each engine kind's map of a SolveSession::Engines
/// tuple, in tuple order (power before min-cost).
template <typename Engines, typename F>
void for_each_kind(Engines& engines, F&& f) {
  std::apply([&f](auto&... maps) { (f(maps), ...); }, engines);
}

/// One engine map's (name, entry) pairs, names sorted: unordered_map
/// iteration order is not stable, and snapshot bytes and shedding order
/// must be.
template <typename Map>
auto sorted_entries(std::mutex& caches_mutex, Map& map) {
  using Entry = typename Map::mapped_type::element_type;
  std::vector<std::pair<std::string, Entry*>> entries;
  {
    std::scoped_lock lock(caches_mutex);
    for (auto& [name, entry] : map) entries.emplace_back(name, entry.get());
  }
  std::sort(entries.begin(), entries.end());
  return entries;
}

using AnyEngine = std::variant<EngineState<dp::PowerNodeState>*,
                               EngineState<dp::MinCostNodeState>*>;

/// Every engine entry of a session, power before min-cost, names sorted.
/// The pointers stay valid while solve_mutex is held (only restore()
/// replaces entries, and it holds solve_mutex too).
template <typename Engines>
std::vector<AnyEngine> list_engines(std::mutex& caches_mutex,
                                    Engines& engines) {
  std::vector<AnyEngine> out;
  for_each_kind(engines, [&](auto& map) {
    for (auto& [name, entry] : sorted_entries(caches_mutex, map)) {
      out.push_back(entry);
    }
  });
  return out;
}

/// Resident bytes of every engine's cached state, optionally packing it
/// first.  An active contraction carries the live open-node tables in its
/// own cache, so those count too (decontract unpacks what it copies).
/// Requires solve_mutex.
template <typename Engines>
std::size_t engines_bytes(std::mutex& caches_mutex, Engines& engines,
                          bool pack) {
  std::size_t total = 0;
  for (const AnyEngine& engine : list_engines(caches_mutex, engines)) {
    std::visit(
        [pack, &total](auto* e) {
          if (pack) e->cache.pack_all();
          total += cache_bytes(e->cache);
          if (e->contraction.active) {
            if (pack) e->contraction.cache.pack_all();
            total += cache_bytes(e->contraction.cache);
          }
        },
        engine);
  }
  return total;
}

}  // namespace

SolveSession::SolveSession(std::shared_ptr<const Topology> topology)
    : SolveSession(std::move(topology), Options()) {}

SolveSession::SolveSession(std::shared_ptr<const Topology> topology,
                           Options options)
    : topology_(std::move(topology)), options_(options) {
  TREEPLACE_CHECK_MSG(topology_ != nullptr,
                      "SolveSession over a null topology");
}

SolveSession::Stats SolveSession::stats() const {
  Stats stats;
  stats.warm_solves = warm_solves_.load();
  stats.cold_solves = cold_solves_.load();
  stats.nodes_recomputed = nodes_recomputed_.load();
  stats.nodes_reused = nodes_reused_.load();
  stats.merge_steps = merge_steps_.load();
  stats.signatures_checked = signatures_checked_.load();
  stats.cells_skipped = cells_skipped_.load();
  stats.bytes_resident = bytes_resident_.load();
  stats.snapshots_dropped = snapshots_dropped_.load();
  stats.tables_dropped = tables_dropped_.load();
  stats.subtrees_sealed = subtrees_sealed_.load();
  stats.sealed_cells_injected = sealed_cells_injected_.load();
  return stats;
}

void SolveSession::wait_turn(std::uint64_t ticket) {
  for (std::uint64_t serving = now_serving_.load(); serving != ticket;
       serving = now_serving_.load()) {
    now_serving_.wait(serving);
  }
}

void SolveSession::end_turn() {
  ++now_serving_;
  now_serving_.notify_all();
}

void SolveSession::record_warm(std::uint64_t nodes_recomputed,
                               std::uint64_t nodes_reused,
                               std::uint64_t merge_steps,
                               std::uint64_t signatures_checked,
                               std::uint64_t cells_skipped) {
  warm_solves_.fetch_add(1);
  nodes_recomputed_.fetch_add(nodes_recomputed);
  nodes_reused_.fetch_add(nodes_reused);
  merge_steps_.fetch_add(merge_steps);
  signatures_checked_.fetch_add(signatures_checked);
  cells_skipped_.fetch_add(cells_skipped);
  enforce_budget();
}

void SolveSession::record_cold() { cold_solves_.fetch_add(1); }

void SolveSession::record_contraction(std::uint64_t sealed,
                                      std::uint64_t cells) {
  subtrees_sealed_.fetch_add(sealed);
  sealed_cells_injected_.fetch_add(cells);
}

void SolveSession::enforce_budget() {
  // Unbudgeted sessions (the default) skip the accounting walk entirely:
  // a warm solve's cost must stay proportional to its dirty set, not to
  // the cache size.  bytes_resident then reads 0 (untracked).
  if (options_.max_bytes == 0) return;

  // Entry contents are protected by solve_mutex_, which record_warm's
  // caller holds.
  const std::vector<AnyEngine> engines = list_engines(caches_mutex_, engines_);
  std::size_t total = 0;
  for (const AnyEngine& engine : engines) {
    std::visit([&total](auto* e) { total += cache_bytes(e->cache); }, engine);
  }

  // Sheds merge-tree snapshots (pass 1) or whole node states (pass 2),
  // coldest first across every cache, until the budget holds.
  const std::size_t budget = options_.max_bytes;
  auto shed = [&](bool snapshots, std::atomic<std::uint64_t>& dropped) {
    std::vector<Shedding> victims;
    for (std::size_t c = 0; c < engines.size(); ++c) {
      std::visit(
          [&](auto* e) {
            for (std::size_t i = 0; i < e->cache.size(); ++i) {
              const std::size_t bytes = snapshots ? e->cache.snapshot_bytes(i)
                                                  : e->cache.state_bytes(i);
              if (bytes > 0) {
                victims.push_back(
                    {e->cache.dirty_count(i), bytes, i, static_cast<int>(c)});
              }
            }
          },
          engines[c]);
    }
    std::sort(victims.begin(), victims.end());
    for (const Shedding& victim : victims) {
      if (total <= budget) break;
      std::visit(
          [&](auto* e) {
            if (snapshots) {
              e->cache.drop_snapshots(victim.node);
            } else {
              e->cache.drop_state(victim.node);
            }
          },
          engines[static_cast<std::size_t>(victim.cache)]);
      total -= std::min(total, victim.bytes);
      dropped.fetch_add(1);
    }
  };
  // Pass 1 keeps each node spliceable while clean, losing only the
  // O(log k) slot resume.  Pass 2 makes the next solve recompute the shed
  // tables (bit-identical, just paid again).
  if (total > budget) shed(/*snapshots=*/true, snapshots_dropped_);
  if (total > budget) shed(/*snapshots=*/false, tables_dropped_);
  bytes_resident_.store(total);
}

std::size_t SolveSession::compact() {
  std::scoped_lock solve_lock(solve_mutex_);
  return engines_bytes(caches_mutex_, engines_, /*pack=*/true);
}

std::size_t SolveSession::resident_bytes() {
  std::scoped_lock solve_lock(solve_mutex_);
  return engines_bytes(caches_mutex_, engines_, /*pack=*/false);
}

void SolveSession::save(binio::Writer& w) {
  std::scoped_lock solve_lock(solve_mutex_);
  // Fold active contractions back into the full caches first: the
  // snapshot format stays contraction-free, a contracted-warm session
  // serializes to the same bytes as its uncontracted twin, and a restored
  // shard simply re-contracts on its first delta batch.
  for (const AnyEngine& engine : list_engines(caches_mutex_, engines_)) {
    std::visit(
        [](auto* e) {
          if (e->contraction.active) contracted::decontract(*e);
        },
        engine);
  }

  w.raw(dp::kSnapshotMagic, 8);
  w.u32(dp::kSnapshotVersion);
  w.u64(topology_->structural_hash());
  w.u64(topology_->num_internal());
  // Per engine kind: the count of non-empty caches, then each one in
  // sorted name order, so identical sessions serialize to identical bytes.
  for_each_kind(engines_, [this, &w](auto& map) {
    auto entries = sorted_entries(caches_mutex_, map);
    std::erase_if(entries, [](const auto& entry) {
      return entry.second->cache.size() == 0;
    });
    w.u32(static_cast<std::uint32_t>(entries.size()));
    for (auto& [name, entry] : entries) {
      w.str(name);
      dp::save_cache(w, entry->cache);
    }
  });
  w.write_crc();
}

void SolveSession::restore(binio::Reader& r) {
  std::scoped_lock solve_lock(solve_mutex_);
  char magic[8];
  r.raw(magic, 8);
  TREEPLACE_CHECK_MSG(std::memcmp(magic, dp::kSnapshotMagic, 8) == 0,
                      "not a session snapshot (bad magic)");
  const std::uint32_t version = r.u32();
  TREEPLACE_CHECK_MSG(version == dp::kSnapshotVersion,
                      "unsupported snapshot version " << version);
  const std::uint64_t hash = r.u64();
  TREEPLACE_CHECK_MSG(hash == topology_->structural_hash(),
                      "snapshot was saved for a different topology");
  const std::uint64_t n = r.u64();
  TREEPLACE_CHECK_MSG(n == topology_->num_internal(),
                      "snapshot internal-node count mismatch");

  // Parse into fresh entries; they replace the session's only after the
  // CRC trailer verifies, so a bad file can never half-restore.
  constexpr std::uint32_t kMaxCaches = 1024;
  Engines loaded;
  for_each_kind(loaded, [this, &r](auto& map) {
    using Entry =
        typename std::decay_t<decltype(map)>::mapped_type::element_type;
    const std::uint32_t count = r.u32();
    TREEPLACE_CHECK_MSG(count <= kMaxCaches, "snapshot cache count bogus");
    for (std::uint32_t c = 0; c < count; ++c) {
      std::string name = r.str(256);
      auto entry = std::make_unique<Entry>();
      dp::load_cache(r, topology_.get(), entry->cache);
      map[std::move(name)] = std::move(entry);
    }
  });
  r.verify_crc();

  std::scoped_lock lock(caches_mutex_);
  for_each_kind(loaded, [this](auto& map) {
    auto& live = std::get<std::decay_t<decltype(map)>>(engines_);
    for (auto& [name, entry] : map) live[name] = std::move(entry);
  });
  // The restored full caches are authoritative (save() decontracts before
  // writing); any live contraction's tables are now stale — discard them.
  for_each_kind(engines_, [](auto& map) {
    for (auto& [name, entry] : map) discard_contraction(entry->contraction);
  });
}

// Defined here so solver.h stays free of the session's definition.
// Strategies without warm-start support solve cold; the session only
// counts the solve.
Solution Solver::solve(const SolveRequest& request) const {
  if (request.session != nullptr) request.session->record_cold();
  return solve(request.instance);
}

}  // namespace treeplace
