// Session lifecycle of frozen-subtree contraction (tree/contract.h).
//
// The structural half (building the contracted tree, id maps, delta
// renumbering) lives in Contraction; the engine half (sealed-leaf table
// injection, original-id emission) behind dp::ContractionView.  This
// header owns the part in between: when a warm delta solve may run
// contracted at all, and how DP state moves between the session's full
// cache and a ContractionSlot's contracted cache.
//
//   prepare()    — per solve.  Decides reuse / rebuild / bail.  A live
//                  contraction is reused while the batch's edits all land
//                  on open nodes; otherwise it is decontracted (written
//                  back) first.  A fresh contraction is built only when
//                  the full cache is completely warm — every subtree
//                  table valid and the previous touched set known — since
//                  a sealed leaf must stand in for a *trusted* table.
//   preload()    — clones the full cache into the slot's contracted
//                  cache: open nodes verbatim (slot snapshots included,
//                  so O(log k) merge-tree resume survives contraction),
//                  sealed roots as table-only entries stamped with the
//                  signature the contracted scenario grades them at
//                  (client_mass 0 — sealed leaves own no clients), so
//                  even a full sweep over the contracted tree keeps them.
//   decontract() — writes open-node state back into the full cache and
//                  retires the contracted topology.  The full cache ends
//                  bit-identical to an uncontracted twin's: frozen
//                  entries were never touched, open entries are the
//                  written-back live ones, and the last-touched hint maps
//                  back 1:1 (open nodes survive contraction by id map).
//
// Eligibility mirrors the delta fast path in core/dp_cache.h on purpose:
// contraction only fires when the uncontracted twin would have taken the
// fast path (effective set ≤ N/8), and the contracted engines plan with
// planning_n = original N, which keeps every work counter — not just the
// results — bit-identical between the two.  bench/contraction gates this.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/dp_cache.h"
#include "solver/session.h"
#include "tree/contract.h"
#include "tree/scenario_delta.h"
#include "tree/tree.h"

namespace treeplace::contracted {

/// What prepare() hands the solver wrapper for one solve.  When !active,
/// run the engine over the original instance exactly as before.  When
/// active, run it over map->contracted() / scenario with `deltas` and a
/// dp::ContractionView, and add hidden_internal to the result's
/// nodes_reused (the frozen interiors the twin would have counted).
/// `scenario` and `deltas` live here, so keep the Prepared alive across
/// the engine call.
template <typename NodeState>
struct Prepared {
  bool active = false;
  const Contraction* map = nullptr;
  dp::SubtreeCache<NodeState>* cache = nullptr;  ///< the contracted cache
  Scenario scenario;                             ///< contracted scenario
  std::vector<ScenarioDelta> deltas;             ///< renumbered batch
  std::size_t hidden_internal = 0;
};

/// Writes a live contraction's open-node state back into the full cache
/// and deactivates the slot.  No-op when inactive (any leftover map is
/// still dropped).  Requires the session's solve mutex.
template <typename NodeState>
void decontract(EngineState<NodeState>& engine) {
  dp::SubtreeCache<NodeState>& full = engine.cache;
  ContractionSlot<NodeState>& slot = engine.contraction;
  if (slot.active) {
    const Contraction& map = *slot.map;
    const Topology& topo = *map.original();
    const Topology& ctopo = *map.contracted();
    for (std::size_t ci = 0; ci < ctopo.num_internal(); ++ci) {
      if (map.sealed()[ci] != 0) continue;  // frozen in `full` all along
      const NodeId oid = map.to_original(ctopo.internal_ids()[ci]);
      const std::size_t oi = topo.internal_index(oid);
      slot.cache.ensure_unpacked(ci);
      dp::clone_node_state(slot.cache.state(ci), full.arena(),
                           full.state(oi), /*with_slots=*/true);
      full.restore_entry(oi, slot.cache.signature(ci), slot.cache.valid(ci),
                         slot.cache.resumable(ci), slot.cache.dirty_count(ci));
    }
    std::vector<NodeId> hint;
    hint.reserve(slot.cache.last_touched().size());
    for (NodeId cj : slot.cache.last_touched()) {
      hint.push_back(slot.map->to_original(cj));
    }
    full.set_last_touched(std::move(hint), slot.cache.last_touched_known());
  }
  if (slot.map != nullptr) {
    // Detach before the map — and with it the contracted topology — dies:
    // the empty-params sentinel can never match a real attach, so a later
    // topology reallocated at the same address cannot warm-match stale
    // tables.
    slot.cache.attach(slot.map->contracted().get(), {});
    slot.map.reset();
  }
  slot.active = false;
}

/// Fills the slot's contracted cache from the full cache (see the header
/// comment) and records the sealed-leaf counters on the session.
/// Precondition: slot.map set, full cache completely warm.
template <typename NodeState>
void preload(SolveSession& session, dp::SubtreeCache<NodeState>& full,
             ContractionSlot<NodeState>& slot,
             const std::vector<std::uint64_t>& params) {
  const Contraction& map = *slot.map;
  const Topology& topo = *map.original();
  const Topology& ctopo = *map.contracted();
  slot.cache.attach(map.contracted().get(), params);
  std::uint64_t sealed_count = 0;
  std::uint64_t cells = 0;
  for (std::size_t ci = 0; ci < ctopo.num_internal(); ++ci) {
    const NodeId oid = map.to_original(ctopo.internal_ids()[ci]);
    const std::size_t oi = topo.internal_index(oid);
    full.ensure_unpacked(oi);
    const bool is_sealed = map.sealed()[ci] != 0;
    // Sealed leaves need only the root table (their merge tree is never
    // re-run); open nodes keep their slot snapshots so dirty-slot resume
    // works exactly as it would uncontracted.
    dp::clone_node_state(full.state(oi), slot.cache.arena(),
                         slot.cache.state(ci), /*with_slots=*/!is_sealed);
    if (is_sealed) {
      const dp::NodeSignature sig{0, full.signature(oi).original_mode};
      slot.cache.restore_entry(ci, sig, /*valid=*/true, /*resumable=*/false,
                               full.dirty_count(oi));
      ++sealed_count;
      cells += slot.cache.state(ci).flow.size();
    } else {
      slot.cache.restore_entry(ci, full.signature(oi), /*valid=*/true,
                               full.resumable(oi), full.dirty_count(oi));
    }
  }
  std::vector<NodeId> hint;
  hint.reserve(full.last_touched().size());
  for (NodeId j : full.last_touched()) hint.push_back(map.to_contracted(j));
  slot.cache.set_last_touched(std::move(hint), /*known=*/true);
  slot.active = true;
  session.record_contraction(sealed_count, cells);
}

/// Per-solve entry point; see the header comment for the decision tree.
/// Requires the session's solve mutex (it moves cache state around).
template <typename NodeState>
Prepared<NodeState> prepare(SolveSession& session,
                            EngineState<NodeState>& engine,
                            const Scenario& scen,
                            const std::vector<std::uint64_t>& params,
                            std::span<const ScenarioDelta> deltas) {
  dp::SubtreeCache<NodeState>& full = engine.cache;
  ContractionSlot<NodeState>& slot = engine.contraction;
  Prepared<NodeState> prep;
  const SolveSession::Options& opts = session.options();
  const std::shared_ptr<const Topology>& topology = session.topology_ptr();
  const Topology& topo = *topology;
  const std::size_t n = topo.num_internal();

  // Contraction trades bookkeeping for skipped merges; below the size
  // floor, under a byte budget (shedding could evict the tables sealed
  // leaves splice in), or with an unattributable batch it never pays.
  const bool enabled = opts.contract && opts.max_bytes == 0 &&
                       n >= opts.contract_min_internal;
  const std::optional<std::vector<NodeId>> touched =
      enabled ? dp::delta_touched_internal(topo, deltas) : std::nullopt;
  if (!touched.has_value()) {
    decontract(engine);
    return prep;
  }

  // Live contraction: reuse while every edit lands on an open node, the
  // contracted cache stayed fully warm (an infeasible early-exit leaves
  // invalid entries — the twin would full-sweep, so must we), the params
  // still match, and the twin would still take the delta fast path.
  if (slot.active) {
    std::optional<std::vector<ScenarioDelta>> mapped =
        slot.map->map_deltas(deltas);
    if (mapped.has_value() && slot.cache.all_valid() &&
        slot.cache.last_touched_known() && slot.cache.params() == params) {
      std::vector<NodeId> effective = *touched;
      effective.reserve(effective.size() + slot.cache.last_touched().size());
      for (NodeId cj : slot.cache.last_touched()) {
        effective.push_back(slot.map->to_original(cj));
      }
      std::sort(effective.begin(), effective.end());
      effective.erase(std::unique(effective.begin(), effective.end()),
                      effective.end());
      if (effective.size() * 8 <= n) {
        prep.active = true;
        prep.map = slot.map.get();
        prep.cache = &slot.cache;
        prep.scenario = slot.map->contract(scen);
        prep.deltas = std::move(*mapped);
        prep.hidden_internal = slot.map->hidden_internal();
        return prep;
      }
    }
    decontract(engine);
  }

  // Fresh build: only off a completely warm full cache, and only when the
  // ancestor closure shrinks the tree enough to bother.
  if (full.size() != n || full.params() != params || !full.all_valid() ||
      !full.last_touched_known()) {
    return prep;
  }
  std::vector<NodeId> effective = *touched;
  effective.reserve(effective.size() + full.last_touched().size());
  effective.insert(effective.end(), full.last_touched().begin(),
                   full.last_touched().end());
  std::sort(effective.begin(), effective.end());
  effective.erase(std::unique(effective.begin(), effective.end()),
                  effective.end());
  if (effective.size() * 8 > n) return prep;  // twin would full-sweep

  auto map = std::make_unique<Contraction>(
      topology, Contraction::open_closure(topo, effective));
  if (map->contracted()->num_internal() * opts.contract_min_shrink > n) {
    return prep;  // not enough shrink; the map dies here
  }
  std::optional<std::vector<ScenarioDelta>> mapped = map->map_deltas(deltas);
  // touched ⊆ open by construction, so the batch always renumbers.
  TREEPLACE_CHECK(mapped.has_value());
  slot.map = std::move(map);
  preload(session, full, slot, params);
  prep.active = true;
  prep.map = slot.map.get();
  prep.cache = &slot.cache;
  prep.scenario = slot.map->contract(scen);
  prep.deltas = std::move(*mapped);
  prep.hidden_internal = slot.map->hidden_internal();
  return prep;
}

}  // namespace treeplace::contracted
