#include "d1ht/overlay.h"

#include <algorithm>
#include <cassert>

#include "trace/trace.h"
#include "wire/meter.h"

namespace ert::d1ht {

Overlay::Overlay(D1htOptions opts, PhysDistFn phys_dist)
    : opts_(opts),
      phys_dist_(std::move(phys_dist)),
      directory_(std::uint64_t{1} << opts.bits) {
  assert(opts.bits >= 3 && opts.bits <= 48);
  assert(opts.successor_list >= 1);
  assert(opts.successor_spread >= opts.successor_list);
}

dht::NodeIndex Overlay::add_node(std::uint64_t id, double capacity,
                                 int max_indegree, double beta) {
  assert(!directory_.contains(id));
  D1htNode n;
  n.id = id;
  n.alive = true;
  n.capacity = capacity;
  n.budget = core::IndegreeBudget(max_indegree, beta);
  n.table.add_entry(dht::EntryKind::kFullTable);
  n.table.add_entry(dht::EntryKind::kSuccessor);
  nodes_.push_back(std::move(n));
  const dht::NodeIndex idx = nodes_.size() - 1;
  directory_.insert(id, idx);
  ++alive_;
  return idx;
}

dht::NodeIndex Overlay::add_node_random(Rng& rng, double capacity,
                                        int max_indegree, double beta) {
  for (;;) {
    const std::uint64_t id = rng.bits() & (ring_size() - 1);
    if (!directory_.contains(id))
      return add_node(id, capacity, max_indegree, beta);
  }
}

bool Overlay::eligible(dht::NodeIndex owner, std::size_t slot,
                       dht::NodeIndex cand) const {
  if (owner == cand || slot != kSuccessorEntry) return false;
  const D1htNode& o = nodes_.at(owner);
  const D1htNode& c = nodes_.at(cand);
  directory_.successors_of(o.id, opts_.successor_spread, elig_scratch_);
  return std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
         elig_scratch_.end();
}

bool Overlay::link(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
                   bool respect_budget) {
  D1htNode& f = nodes_.at(from);
  D1htNode& t = nodes_.at(to);
  if (!f.alive || !t.alive || from == to) return false;
  if (!eligible(from, slot, to)) return false;
  if (respect_budget && !t.budget.can_accept()) return false;
  if (t.inlinks.contains(arena_.fingers, from))
    return false;  // one role per ordered pair
  auto& entry = f.table.entry(kSuccessorEntry);
  if (entry.size() >= opts_.successor_spread) return false;
  if (!entry.add(arena_.cands, to)) return false;
  if (!t.budget.can_accept()) t.budget.on_forced_inlink();
  t.inlinks.append(arena_.fingers,
                   core::BackwardFinger{
                       from, logical_distance(from, to),
                       phys_dist_ ? phys_dist_(from, to) : 0.0});
  t.budget.on_inlink_added();
  return true;
}

bool Overlay::unlink(dht::NodeIndex from, dht::NodeIndex to) {
  // Elastic links live only in the successor entry; the full table is
  // mandatory structure and never unlinked piecemeal.
  if (!nodes_.at(from).table.entry(kSuccessorEntry).remove(arena_.cands, to))
    return false;
  nodes_.at(to).inlinks.remove(arena_.fingers, from);
  nodes_.at(to).budget.on_inlink_removed();
  return true;
}

void Overlay::build_table(dht::NodeIndex i) {
  D1htNode& n = nodes_.at(i);
  // EDRA modeled as instantaneous: the join reaches every current member
  // and both sides install the full-table link atomically. Only peers
  // whose own table is built are linked, so each pair links exactly once
  // (at the later join) — which is what lets the entries use the
  // duplicate-scan-free append.
  auto& full = n.table.entry(kFullTableEntry);
  for (dht::NodeIndex j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    D1htNode& peer = nodes_[j];
    if (!peer.alive || !peer.table_built) continue;
    full.append(arena_.cands, j);
    peer.table.entry(kFullTableEntry).append(arena_.cands, i);
  }
  // Initial successor-list redundancy: the elastic entry ERT operates on.
  directory_.successors_of(n.id, opts_.successor_list, window_scratch_);
  for (const auto& [id, cand] : window_scratch_)
    link(i, kSuccessorEntry, cand, false);
  n.table_built = true;
}

std::vector<ExpansionTarget> Overlay::expansion_targets(
    dht::NodeIndex i, std::size_t max_targets) const {
  std::vector<ExpansionTarget> out;
  expansion_targets_into(i, max_targets, out);
  return out;
}

void Overlay::expansion_targets_into(dht::NodeIndex i, std::size_t max_targets,
                                     std::vector<ExpansionTarget>& out) const {
  out.clear();
  if (max_targets == 0) return;
  const D1htNode& me = nodes_.at(i);
  inlink_seen_.begin_epoch(nodes_.size());
  for (const auto& f : me.inlinks.fingers(arena_.fingers))
    inlink_seen_.mark(f.node);
  // Ring predecessors within the spread window can adopt us into their
  // successor entries.
  directory_.predecessors_of(me.id, opts_.successor_spread, window_scratch_);
  for (const auto& [id, host] : window_scratch_) {
    if (out.size() >= max_targets) break;
    if (host == i || inlink_seen_.test(host)) continue;
    out.emplace_back(host, kSuccessorEntry);
  }
}

int Overlay::expand_indegree(dht::NodeIndex i, int want,
                             std::size_t max_probes) {
  if (want <= 0) return 0;
  int gained = 0;
  expansion_targets_into(i, max_probes, targets_scratch_);
  for (const auto& [host, slot] : targets_scratch_) {
    if (gained >= want) break;
    if (!nodes_[i].budget.can_accept()) break;
    if (link(host, slot, i, /*respect_budget=*/true)) {
      ++gained;
      if (trace_ && trace_->wants(trace::Category::kLink))
        trace_->emit(trace::EventType::kLinkAdopt, i, 0,
                     static_cast<std::int64_t>(host),
                     static_cast<std::int64_t>(nodes_[i].inlinks.size()));
      if (meter_)
        meter_->on_backward_add(i, host, nodes_[i].inlinks.size());
    }
  }
  return gained;
}

int Overlay::shed_indegree(dht::NodeIndex i, int count) {
  if (count <= 0) return 0;
  nodes_.at(i).inlinks.pick_evictions(arena_.fingers,
                                      static_cast<std::size_t>(count),
                                      evict_scratch_, evict_out_);
  int shed = 0;
  for (dht::NodeIndex v : evict_out_)
    if (unlink(v, i)) {
      ++shed;
      if (trace_ && trace_->wants(trace::Category::kLink))
        trace_->emit(trace::EventType::kLinkShed, i, 0,
                     static_cast<std::int64_t>(v),
                     static_cast<std::int64_t>(nodes_[i].inlinks.size()));
      if (meter_)
        meter_->on_backward_drop(i, v, nodes_[i].inlinks.size());
    }
  return shed;
}

void Overlay::leave_graceful(dht::NodeIndex i) {
  D1htNode& n = nodes_.at(i);
  if (!n.alive) return;
  // EDRA announces the departure: every member drops its full-table entry
  // for us (symmetry makes our own entry the exact list of holders).
  auto& full = n.table.entry(kFullTableEntry);
  for (const dht::NodeIndex32 c : full.candidates(arena_.cands))
    nodes_[c].table.entry(kFullTableEntry).remove(arena_.cands, i);
  full.release(arena_.cands);
  auto& succ = n.table.entry(kSuccessorEntry);
  for (const dht::NodeIndex32 c : succ.candidates(arena_.cands)) {
    nodes_[c].inlinks.remove(arena_.fingers, i);
    nodes_[c].budget.on_inlink_removed();
  }
  succ.release(arena_.cands);
  for (const auto& f : n.inlinks.fingers(arena_.fingers))
    nodes_[f.node].table.entry(kSuccessorEntry).remove(arena_.cands, i);
  n.inlinks.clear(arena_.fingers);
  directory_.erase(n.id);
  n.alive = false;
  --alive_;
}

void Overlay::fail(dht::NodeIndex i) {
  D1htNode& n = nodes_.at(i);
  if (!n.alive) return;
  directory_.erase(n.id);
  n.alive = false;
  --alive_;
}

void Overlay::purge_dead(dht::NodeIndex at, dht::NodeIndex dead) {
  D1htNode& n = nodes_.at(at);
  n.table.entry(kFullTableEntry).remove(arena_.cands, dead);
  n.table.entry(kSuccessorEntry).remove(arena_.cands, dead);
  if (n.inlinks.remove(arena_.fingers, dead)) n.budget.on_inlink_removed();
}

void Overlay::repair_entry(dht::NodeIndex i, std::size_t slot) {
  // The full table needs no repair beyond purging discovered failures; the
  // successor entry refills from the directory like Chord's.
  if (slot != kSuccessorEntry) return;
  D1htNode& n = nodes_.at(i);
  auto& entry = n.table.entry(kSuccessorEntry);
  for (const dht::NodeIndex32 c : entry.candidates(arena_.cands))
    if (nodes_[c].alive) return;
  if (directory_.size() < 2) return;
  directory_.successors_of(n.id, opts_.successor_list, window_scratch_);
  for (const auto& [id, cand] : window_scratch_)
    link(i, kSuccessorEntry, cand, false);
}

std::uint64_t Overlay::logical_distance_to_key(dht::NodeIndex a,
                                               std::uint64_t key) const {
  return dht::ring_distance(nodes_.at(a).id, key & (ring_size() - 1),
                            ring_size());
}

std::uint64_t Overlay::logical_distance(dht::NodeIndex a,
                                        dht::NodeIndex b) const {
  return dht::ring_distance(nodes_.at(a).id, nodes_.at(b).id, ring_size());
}

dht::NodeIndex Overlay::responsible(std::uint64_t key) const {
  return directory_.successor(key & (ring_size() - 1));
}

dht::RouteStepInfo Overlay::route_step(dht::NodeIndex cur, std::uint64_t key,
                                       dht::RouteScratch& scratch) const {
  dht::RouteStepInfo step;
  step.entry_index = kFullTableEntry;
  auto& cands = scratch.candidates;
  cands.clear();
  const std::uint64_t k = key & (ring_size() - 1);
  const dht::NodeIndex owner = directory_.successor(k);
  assert(owner != dht::kNoNode);
  if (owner == cur) {
    step.arrived = true;
    return step;
  }
  const D1htNode& cn = nodes_.at(cur);
  // The single-hop path: the key's owner is read straight out of the full
  // table. With instantaneous EDRA every alive member is present, so this
  // is the only path a churn-free run ever takes.
  if (cn.table.entry(kFullTableEntry).contains(arena_.cands, owner)) {
    cands.push_back(owner);
    return step;
  }
  // Degraded path (transient churn states): clockwise progress through
  // the successor entry.
  const std::uint64_t my_gap =
      dht::clockwise(cn.id, nodes_.at(owner).id, ring_size());
  auto& ranked = scratch.ranked;
  ranked.clear();
  for (const dht::NodeIndex32 c :
       cn.table.entry(kSuccessorEntry).candidates(arena_.cands)) {
    const std::uint64_t step_fwd =
        dht::clockwise(cn.id, nodes_[c].id, ring_size());
    if (step_fwd == 0 || step_fwd > my_gap) continue;
    ranked.emplace_back(my_gap - step_fwd, c);
  }
  if (!ranked.empty()) {
    dht::stable_insertion_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a < b; });
    step.entry_index = kSuccessorEntry;
    for (const auto& [g, c] : ranked) cands.push_back(c);
    return step;
  }
  // Emergency: stabilized ring successor.
  const dht::NodeIndex succ =
      directory_.successor((cn.id + 1) & (ring_size() - 1));
  assert(succ != dht::kNoNode && succ != cur);
  step.entry_index = kNumEntries;
  cands.push_back(succ);
  return step;
}

void Overlay::check_invariants() const {
#ifndef NDEBUG
  std::size_t built_alive = 0;
  for (const D1htNode& n : nodes_)
    if (n.alive && n.table_built) ++built_alive;
  for (dht::NodeIndex i = 0; i < nodes_.size(); ++i) {
    const D1htNode& n = nodes_[i];
    if (!n.alive || !n.table_built) continue;
    // Full-mesh completeness and symmetry: every alive built peer is in the
    // table, and every alive candidate lists us back.
    std::size_t alive_peers = 0;
    for (const dht::NodeIndex32 c :
         n.table.entry(kFullTableEntry).candidates(arena_.cands)) {
      if (!nodes_[c].alive) continue;
      ++alive_peers;
      assert(nodes_[c].table.entry(kFullTableEntry).contains(arena_.cands, i));
    }
    assert(alive_peers == built_alive - 1);
    // Elastic mirror symmetry, as in the ring overlays.
    for (const dht::NodeIndex32 c :
         n.table.entry(kSuccessorEntry).candidates(arena_.cands)) {
      if (!nodes_[c].alive) continue;
      assert(nodes_[c].inlinks.contains(arena_.fingers, i));
    }
    for (const auto& f : n.inlinks.fingers(arena_.fingers)) {
      if (!nodes_[f.node].alive) continue;
      assert(nodes_[f.node].table.entry(kSuccessorEntry).contains(
          arena_.cands, i));
    }
  }
#endif
}

}  // namespace ert::d1ht
