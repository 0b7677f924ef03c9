#include "chord/overlay.h"

#include "trace/trace.h"
#include "wire/meter.h"
#include <algorithm>
#include <cassert>

namespace ert::chord {

Overlay::Overlay(ChordOptions opts, PhysDistFn phys_dist)
    : opts_(opts),
      phys_dist_(std::move(phys_dist)),
      directory_(std::uint64_t{1} << opts.bits) {
  assert(opts.bits >= 3 && opts.bits <= 48);
}

dht::NodeIndex Overlay::add_node(std::uint64_t id, double capacity,
                                 int max_indegree, double beta) {
  assert(!directory_.contains(id));
  ChordNode n;
  n.id = id;
  n.alive = true;
  n.capacity = capacity;
  n.budget = core::IndegreeBudget(max_indegree, beta);
  for (int m = 0; m < opts_.bits; ++m)
    n.table.add_entry(dht::EntryKind::kFinger);
  n.table.add_entry(dht::EntryKind::kSuccessor);
  nodes_.push_back(std::move(n));
  const dht::NodeIndex idx = nodes_.size() - 1;
  directory_.insert(id, idx);
  ++alive_;
  return idx;
}

void Overlay::begin_bulk_insert(std::size_t expected) {
  if (expected > 0) {
    nodes_.reserve(nodes_.size() + expected);
    // Each node builds about bits + successor_list links, one candidate
    // and one backward finger apiece, and a pooled set fills at least half
    // of its power-of-two block. Sized once, the pools never regrow during
    // the build, so no doubling copies a live pool; reserved pages stay
    // untouched until used.
    const std::size_t links =
        expected *
        (static_cast<std::size_t>(opts_.bits) + opts_.successor_list);
    arena_.cands.reserve(arena_.cands.backing_size() + 2 * links);
    arena_.fingers.reserve(arena_.fingers.backing_size() + 2 * links);
  }
  directory_.begin_bulk(expected);
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
  if (owner == cand) return false;
  const ChordNode& o = nodes_.at(owner);
  const ChordNode& c = nodes_.at(cand);
  if (slot == successor_entry()) {
    // Successor list: cand among the first `successor_list` occupied ids
    // after o (positions, so churn keeps the rule meaningful).
    directory_.successors_of(o.id, opts_.successor_list, elig_scratch_);
    return std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
           elig_scratch_.end();
  }
  const int m = static_cast<int>(slot);
  // Loose finger rule (Fig. 1b): cand is one of the first `finger_spread`
  // successors at or after o.id + 2^m.
  const std::uint64_t start = (o.id + (std::uint64_t{1} << m)) & (ring_size() - 1);
  if (directory_.contains(start) && c.id == start) return true;
  directory_.successors_of(start == 0 ? ring_size() - 1 : start - 1,
                           opts_.finger_spread, elig_scratch_);
  return std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
         elig_scratch_.end();
}

bool Overlay::link(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
                   bool respect_budget) {
  // The local rejections run before the eligibility window's descent; all
  // checks are pure, so their order cannot change the outcome.
  return attachable(from, slot, to, respect_budget,
                    nodes_.at(to).inlinks.contains(arena_.fingers, from)) &&
         eligible(from, slot, to) && attach(from, slot, to);
}

bool Overlay::attachable(dht::NodeIndex from, std::size_t slot,
                         dht::NodeIndex to, bool respect_budget,
                         bool paired) const {
  const ChordNode& f = nodes_.at(from);
  if (!f.alive || from == to || paired) return false;
  if (f.table.entry(slot).size() >= opts_.finger_spread &&
      slot != successor_entry())
    return false;  // loose slot is full
  const ChordNode& t = nodes_.at(to);
  if (!t.alive) return false;
  if (respect_budget && !t.budget.can_accept()) return false;
  return true;
}

bool Overlay::attach(dht::NodeIndex from, std::size_t slot,
                     dht::NodeIndex to) {
  ChordNode& t = nodes_[to];
  if (!nodes_[from].table.entry(slot).add(arena_.cands, to)) return false;
  if (!t.budget.can_accept()) t.budget.on_forced_inlink();
  t.inlinks.append(arena_.fingers,
                   core::BackwardFinger{
                       from, logical_distance(from, to),
                       phys_dist_ ? phys_dist_(from, to) : 0.0});
  t.budget.on_inlink_added();
  return true;
}

void Overlay::stamp_targets(dht::NodeIndex i) {
  targets_.begin_epoch(nodes_.size());
  for (const auto& entry : nodes_[i].table.entries())
    for (const dht::NodeIndex32 c : entry.candidates(arena_.cands))
      targets_.mark(c);
}

bool Overlay::adopt(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
                    bool respect_budget) {
  // targets_ answers "from already links to" for live pairs, the same
  // question as the target's inlink list, without reading it.
  assert(!nodes_[from].alive || !nodes_[to].alive ||
         targets_.test(to) ==
             nodes_[to].inlinks.contains(arena_.fingers, from));
  if (!attachable(from, slot, to, respect_budget, targets_.test(to)) ||
      !attach(from, slot, to))
    return false;
  targets_.mark(to);
  return true;
}

bool Overlay::unlink(dht::NodeIndex from, dht::NodeIndex to) {
  if (nodes_.at(from).table.remove_everywhere(arena_.cands, to) == 0)
    return false;
  nodes_.at(to).inlinks.remove(arena_.fingers, from);
  nodes_.at(to).budget.on_inlink_removed();
  return true;
}

void Overlay::build_table(dht::NodeIndex i) {
  ChordNode& n = nodes_.at(i);
  stamp_targets(i);
  // Successor list first: low fingers usually coincide with the nearest
  // successors, and the one-role-per-pair rule would otherwise leave the
  // successor entry empty (fingers then diversify via the loose window).
  // Every candidate below comes from the slot's own eligibility window, so
  // adopt() skips recomputing it. The windows' keys ascend from n.id until
  // id + 2^m wraps, so each search resumes where the previous one landed.
  dht::RingDirectory::SearchHint hint;
  directory_.successors_of(n.id, opts_.successor_list, window_scratch_, hint);
  for (const auto& [id, cand] : window_scratch_)
    adopt(i, successor_entry(), cand, false);
  for (int m = 0; m < opts_.bits; ++m)
    fill_finger(i, static_cast<std::size_t>(m), hint);
  n.table_built = true;
}

void Overlay::fill_finger(dht::NodeIndex i, std::size_t slot,
                          dht::RingDirectory::SearchHint& hint) {
  // Link the successor of id + 2^m (the strict-Chord choice, the window's
  // first entry) when it accepts; otherwise walk the loose window.
  const std::uint64_t start =
      (nodes_[i].id + (std::uint64_t{1} << slot)) & (ring_size() - 1);
  directory_.successors_of(start == 0 ? ring_size() - 1 : start - 1,
                           opts_.finger_spread, window_scratch_, hint);
  for (const auto& [id, cand] : window_scratch_)
    if (adopt(i, slot, cand, opts_.enforce_indegree_bounds)) return;
  // Routability over bounds: force the strict successor if possible.
  if (!window_scratch_.empty())
    adopt(i, slot, window_scratch_.front().second, false);
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
  const ChordNode& me = nodes_.at(i);
  // O(1) "already a backward finger" test: scanning the finger list per
  // examined host made each adaptation sweep O(indegree^2) per node.
  inlink_seen_.begin_epoch(nodes_.size());
  for (const auto& f : me.inlinks.fingers(arena_.fingers))
    inlink_seen_.mark(f.node);
  for (int m = opts_.bits - 1; m >= 0 && out.size() < max_targets; --m) {
    // Hosts j with succ(j + 2^m) near i: j in the predecessors of i - 2^m.
    const std::uint64_t base =
        (me.id - (std::uint64_t{1} << m)) & (ring_size() - 1);
    directory_.predecessors_of((base + 1) & (ring_size() - 1),
                               opts_.finger_spread, window_scratch_);
    for (const auto& [id, host] : window_scratch_) {
      if (out.size() >= max_targets) break;
      if (host == i || inlink_seen_.test(host)) continue;
      out.emplace_back(host, static_cast<std::size_t>(m));
    }
  }
  // Predecessors can adopt us into their successor lists.
  directory_.predecessors_of(me.id, opts_.successor_list, window_scratch_);
  for (const auto& [id, host] : window_scratch_) {
    if (out.size() >= max_targets) break;
    if (host == i || inlink_seen_.test(host)) continue;
    out.emplace_back(host, successor_entry());
  }
}

std::uint64_t Overlay::finger_reach(dht::NodeIndex i) const {
  // With finger_spread + 1 ids or fewer a window can wrap onto itself and
  // the threshold rule no longer holds.
  if (opts_.finger_spread == 0 ||
      directory_.size() <= opts_.finger_spread + 1)
    return 0;
  directory_.predecessors_of(nodes_.at(i).id, opts_.finger_spread,
                             window_scratch_);
  return dht::clockwise(window_scratch_.back().first, nodes_[i].id,
                        ring_size());
}

bool Overlay::finger_eligible(dht::NodeIndex host, std::size_t m,
                              dht::NodeIndex i, std::uint64_t reach) const {
  if (reach == 0) return eligible(host, m, i);
  if (host == i) return false;
  // i is in host's finger-m window exactly when fewer than finger_spread
  // occupied ids lie in [start, i.id): when start is clockwise-after i's
  // finger_spread-th predecessor.
  const std::uint64_t start =
      (nodes_.at(host).id + (std::uint64_t{1} << m)) & (ring_size() - 1);
  return dht::clockwise(start, nodes_.at(i).id, ring_size()) < reach;
}

int Overlay::expand_indegree(dht::NodeIndex i, int want,
                             std::size_t max_probes) {
  if (want <= 0) return 0;
  int gained = 0;
  expansion_targets_into(i, max_probes, targets_scratch_);
  const std::uint64_t reach = finger_reach(i);
  for (const auto& [host, slot] : targets_scratch_) {
    if (gained >= want) break;
    if (!nodes_[i].budget.can_accept()) break;
    // Cheapest test first: a finger's window test is one comparison, the
    // successor list's a descent. Every test is pure, so order is free.
    const bool finger = slot != successor_entry();
    if (finger && !finger_eligible(host, slot, i, reach)) continue;
    if (!attachable(host, slot, i, /*respect_budget=*/true,
                    nodes_[i].inlinks.contains(arena_.fingers, host)))
      continue;
    if (!finger && !eligible(host, slot, i)) continue;
    if (!attach(host, slot, i)) continue;
    ++gained;
    if (trace_ && trace_->wants(trace::Category::kLink))
      trace_->emit(trace::EventType::kLinkAdopt, i, 0,
                   static_cast<std::int64_t>(host),
                   static_cast<std::int64_t>(nodes_[i].inlinks.size()));
    if (meter_) meter_->on_backward_add(i, host, nodes_[i].inlinks.size());
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
  ChordNode& n = nodes_.at(i);
  if (!n.alive) return;
  for (auto& entry : n.table.entries()) {
    // The per-candidate bookkeeping touches only the finger pool, so the
    // candidate span stays valid; the whole block is released afterwards.
    for (const dht::NodeIndex32 c : entry.candidates(arena_.cands)) {
      nodes_[c].inlinks.remove(arena_.fingers, i);
      nodes_[c].budget.on_inlink_removed();
    }
    entry.release(arena_.cands);
  }
  for (const auto& f : n.inlinks.fingers(arena_.fingers))
    nodes_[f.node].table.remove_everywhere(arena_.cands, i);
  n.inlinks.clear(arena_.fingers);
  directory_.erase(n.id);
  n.alive = false;
  --alive_;
}

void Overlay::fail(dht::NodeIndex i) {
  ChordNode& n = nodes_.at(i);
  if (!n.alive) return;
  directory_.erase(n.id);
  n.alive = false;
  --alive_;
}

void Overlay::purge_dead(dht::NodeIndex at, dht::NodeIndex dead) {
  ChordNode& n = nodes_.at(at);
  n.table.remove_everywhere(arena_.cands, dead);
  if (n.inlinks.remove(arena_.fingers, dead)) n.budget.on_inlink_removed();
}

void Overlay::repair_entry(dht::NodeIndex i, std::size_t slot) {
  ChordNode& n = nodes_.at(i);
  auto& entry = n.table.entry(slot);
  for (const dht::NodeIndex32 c : entry.candidates(arena_.cands))
    if (nodes_[c].alive) return;
  if (directory_.size() < 2) return;
  stamp_targets(i);
  if (slot == successor_entry()) {
    directory_.successors_of(n.id, opts_.successor_list, window_scratch_);
    for (const auto& [id, cand] : window_scratch_) adopt(i, slot, cand, false);
    return;
  }
  dht::RingDirectory::SearchHint hint;
  fill_finger(i, slot, hint);
}

std::uint64_t Overlay::logical_distance_to_key(dht::NodeIndex a,
                                               std::uint64_t key) const {
  return dht::ring_distance(nodes_.at(a).id, key & (ring_size() - 1),
                            ring_size());
}

dht::NodeIndex Overlay::responsible(std::uint64_t key) const {
  return directory_.successor(key & (ring_size() - 1));
}

std::uint64_t Overlay::logical_distance(dht::NodeIndex a,
                                        dht::NodeIndex b) const {
  return dht::ring_distance(nodes_.at(a).id, nodes_.at(b).id, ring_size());
}

RouteStep Overlay::route_step(dht::NodeIndex cur, std::uint64_t key) const {
  dht::RouteScratch scratch;
  const dht::RouteStepInfo info = route_step(cur, key, scratch);
  RouteStep step;
  step.arrived = info.arrived;
  step.entry_index = info.entry_index;
  step.candidates = std::move(scratch.candidates);
  return step;
}

dht::RouteStepInfo Overlay::route_step(dht::NodeIndex cur, std::uint64_t key,
                                       dht::RouteScratch& scratch) const {
  dht::RouteStepInfo step;
  step.entry_index = 0;
  auto& cands = scratch.candidates;
  cands.clear();
  const dht::NodeIndex owner = responsible(key);
  assert(owner != dht::kNoNode);
  if (owner == cur) {
    step.arrived = true;
    return step;
  }
  const ChordNode& cn = nodes_.at(cur);
  const std::uint64_t target = nodes_.at(owner).id;
  const std::uint64_t my_gap = dht::clockwise(cn.id, target, ring_size());
  // Greedy: the slot whose best candidate lands clockwise-closest to the
  // owner without overshooting.
  std::size_t best_slot = cn.table.num_entries();
  std::uint64_t best_gap = my_gap;
  for (std::size_t slot = 0; slot < cn.table.num_entries(); ++slot) {
    for (const dht::NodeIndex32 c : cn.table.entry(slot).candidates(arena_.cands)) {
      const std::uint64_t step_fwd =
          dht::clockwise(cn.id, nodes_[c].id, ring_size());
      if (step_fwd == 0 || step_fwd > my_gap) continue;  // overshoot / self
      const std::uint64_t gap = my_gap - step_fwd;
      if (gap < best_gap) {
        best_gap = gap;
        best_slot = slot;
      }
    }
  }
  if (best_slot < cn.table.num_entries()) {
    auto& ranked = scratch.ranked;
    ranked.clear();
    for (const dht::NodeIndex32 c :
         cn.table.entry(best_slot).candidates(arena_.cands)) {
      const std::uint64_t step_fwd =
          dht::clockwise(cn.id, nodes_[c].id, ring_size());
      if (step_fwd == 0 || step_fwd > my_gap) continue;
      ranked.emplace_back(my_gap - step_fwd, c);
    }
    dht::stable_insertion_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a < b; });
    step.entry_index = best_slot;
    for (const auto& [g, c] : ranked) cands.push_back(c);
    return step;
  }
  // Emergency: directory successor (stabilized ring link).
  const dht::NodeIndex succ = directory_.successor((cn.id + 1) & (ring_size() - 1));
  assert(succ != dht::kNoNode && succ != cur);
  step.entry_index = cn.table.num_entries();
  cands.push_back(succ);
  return step;
}

void Overlay::check_invariants() const {
  for (dht::NodeIndex i = 0; i < nodes_.size(); ++i) {
    const ChordNode& n = nodes_[i];
    if (!n.alive) continue;
    for (std::size_t slot = 0; slot < n.table.num_entries(); ++slot) {
      for (const dht::NodeIndex32 c : n.table.entry(slot).candidates(arena_.cands)) {
        if (!nodes_[c].alive) continue;
        assert(nodes_[c].inlinks.contains(arena_.fingers, i));
      }
    }
    for (const auto& f : n.inlinks.fingers(arena_.fingers)) {
      if (!nodes_[f.node].alive) continue;
      assert(nodes_[f.node].table.links_to(arena_.cands, i));
    }
  }
}

}  // namespace ert::chord
