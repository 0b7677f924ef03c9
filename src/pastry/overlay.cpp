#include "pastry/overlay.h"

#include "trace/trace.h"
#include "wire/meter.h"
#include <algorithm>
#include <cassert>

#include "common/bitops.h"

namespace ert::pastry {

Overlay::Overlay(PastryOptions opts, PhysDistFn phys_dist)
    : opts_(opts),
      phys_dist_(std::move(phys_dist)),
      directory_(std::uint64_t{1} << (opts.rows * opts.bits_per_digit)) {
  assert(opts.rows >= 2 && id_bits() <= 48);
}

int Overlay::digit_of(std::uint64_t id, int row) const {
  return static_cast<int>(
      digit_at(id, row, id_bits(), opts_.bits_per_digit));
}

int Overlay::shared_digits(std::uint64_t a, std::uint64_t b) const {
  return common_digit_prefix(a, b, id_bits(), opts_.bits_per_digit);
}

dht::NodeIndex Overlay::add_node(std::uint64_t id, double capacity,
                                 int max_indegree, double beta) {
  assert(!directory_.contains(id));
  PastryNode n;
  n.id = id;
  n.alive = true;
  n.capacity = capacity;
  n.budget = core::IndegreeBudget(max_indegree, beta);
  for (int r = 0; r < opts_.rows; ++r)
    for (int v = 0; v < base(); ++v)
      n.table.add_entry(dht::EntryKind::kPrefix);
  n.table.add_entry(dht::EntryKind::kLeaf);
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
  if (owner == cand) return false;
  const PastryNode& o = nodes_.at(owner);
  const PastryNode& c = nodes_.at(cand);
  if (slot == leaf_entry()) {
    directory_.successors_of(o.id, opts_.leaf_half, elig_scratch_);
    if (std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
        elig_scratch_.end())
      return true;
    directory_.predecessors_of(o.id, opts_.leaf_half, elig_scratch_);
    return std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
           elig_scratch_.end();
  }
  const int row = static_cast<int>(slot) / base();
  const int col = static_cast<int>(slot) % base();
  if (digit_of(o.id, row) == col) return false;  // own-digit column unused
  return shared_digits(o.id, c.id) >= row && digit_of(c.id, row) == col;
}

bool Overlay::link(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
                   bool respect_budget) {
  PastryNode& f = nodes_.at(from);
  PastryNode& t = nodes_.at(to);
  if (!f.alive || !t.alive || from == to) return false;
  if (!eligible(from, slot, to)) return false;
  if (respect_budget && !t.budget.can_accept()) return false;
  if (t.inlinks.contains(arena_.fingers, from)) return false;
  if (slot != leaf_entry() &&
      f.table.entry(slot).size() >= opts_.entry_spread)
    return false;
  if (!f.table.entry(slot).add(arena_.cands, to)) return false;
  if (!t.budget.can_accept()) t.budget.on_forced_inlink();
  t.inlinks.append(arena_.fingers,
                   core::BackwardFinger{
                       from, logical_distance(from, to),
                       phys_dist_ ? phys_dist_(from, to) : 0.0});
  t.budget.on_inlink_added();
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
  PastryNode& n = nodes_.at(i);
  // Prefix entries: for each (row, digit) enumerate the occupied block that
  // shares `row` digits with us and has `digit` next; pick by proximity
  // (Pastry's PNS) or id order.
  for (int r = 0; r < opts_.rows; ++r) {
    const int own = digit_of(n.id, r);
    const int shift = id_bits() - (r + 1) * opts_.bits_per_digit;
    const std::uint64_t prefix =
        n.id & ~low_mask(id_bits() - r * opts_.bits_per_digit);
    for (int v = 0; v < base(); ++v) {
      if (v == own) continue;
      const std::uint64_t lo =
          prefix | (static_cast<std::uint64_t>(v) << shift);
      const std::uint64_t hi = lo + (std::uint64_t{1} << shift);
      auto& cands = build_cands_;
      cands.clear();
      directory_.for_each_in_range(
          lo, hi,
          [&](std::uint64_t, dht::NodeIndex c) { cands.push_back(c); });
      if (cands.empty()) continue;
      if (opts_.proximity_neighbor_selection && phys_dist_) {
        std::stable_sort(cands.begin(), cands.end(),
                         [&](dht::NodeIndex x, dht::NodeIndex y) {
                           return phys_dist_(i, x) < phys_dist_(i, y);
                         });
      }
      bool linked = false;
      for (dht::NodeIndex c : cands) {
        if (link(i, prefix_slot(r, v), c, opts_.enforce_indegree_bounds)) {
          linked = true;
          break;
        }
      }
      if (!linked) link(i, prefix_slot(r, v), cands.front(), false);
    }
  }
  // Leaf set: nearest ids on both sides.
  directory_.successors_of(n.id, opts_.leaf_half, window_scratch_);
  for (const auto& [id, cand] : window_scratch_)
    link(i, leaf_entry(), cand, false);
  directory_.predecessors_of(n.id, opts_.leaf_half, window_scratch_);
  for (const auto& [id, cand] : window_scratch_)
    link(i, leaf_entry(), cand, false);
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
  // Hosts sharing exactly r digits with us can adopt us at row r (their
  // digit r differs from ours by construction). Walk r from deep prefixes
  // (nearby hosts) to shallow.
  out.clear();
  const PastryNode& me = nodes_.at(i);
  // O(1) "already a backward finger" test: scanning the finger list per
  // examined host made each adaptation sweep O(indegree^2) per node.
  inlink_seen_.begin_epoch(nodes_.size());
  for (const auto& f : me.inlinks.fingers(arena_.fingers))
    inlink_seen_.mark(f.node);
  for (int r = opts_.rows - 1; r >= 0 && out.size() < max_targets; --r) {
    const int shift = id_bits() - r * opts_.bits_per_digit;
    const std::uint64_t prefix =
        shift >= id_bits() ? 0 : me.id & ~low_mask(shift);
    const std::uint64_t block = std::uint64_t{1} << shift;
    directory_.for_each_in_range_until(
        prefix, prefix + block, [&](std::uint64_t id, dht::NodeIndex host) {
          if (out.size() >= max_targets) return false;
          if (host == i || inlink_seen_.test(host)) return true;
          if (shared_digits(me.id, id) != r) return true;  // diverge at r
          out.emplace_back(host, prefix_slot(r, digit_of(me.id, r)));
          return true;
        });
  }
  // Ring neighbors can adopt us into their leaf sets.
  directory_.successors_of(me.id, opts_.leaf_half, window_scratch_);
  for (const auto& [id, host] : window_scratch_) {
    if (out.size() >= max_targets) break;
    if (!inlink_seen_.test(host)) out.emplace_back(host, leaf_entry());
  }
  directory_.predecessors_of(me.id, opts_.leaf_half, window_scratch_);
  for (const auto& [id, host] : window_scratch_) {
    if (out.size() >= max_targets) break;
    if (!inlink_seen_.test(host)) out.emplace_back(host, leaf_entry());
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
  PastryNode& n = nodes_.at(i);
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
  PastryNode& n = nodes_.at(i);
  if (!n.alive) return;
  directory_.erase(n.id);
  n.alive = false;
  --alive_;
}

void Overlay::purge_dead(dht::NodeIndex at, dht::NodeIndex dead) {
  PastryNode& n = nodes_.at(at);
  n.table.remove_everywhere(arena_.cands, dead);
  if (n.inlinks.remove(arena_.fingers, dead)) n.budget.on_inlink_removed();
}

void Overlay::repair_entry(dht::NodeIndex i, std::size_t slot) {
  PastryNode& n = nodes_.at(i);
  auto& entry = n.table.entry(slot);
  for (const dht::NodeIndex32 c : entry.candidates(arena_.cands))
    if (nodes_[c].alive) return;
  if (directory_.size() < 2) return;
  if (slot == leaf_entry()) {
    directory_.successors_of(n.id, opts_.leaf_half, window_scratch_);
    for (const auto& [id, cand] : window_scratch_)
      link(i, slot, cand, false);
    directory_.predecessors_of(n.id, opts_.leaf_half, window_scratch_);
    for (const auto& [id, cand] : window_scratch_)
      link(i, slot, cand, false);
    return;
  }
  const int r = static_cast<int>(slot) / base();
  const int v = static_cast<int>(slot) % base();
  if (digit_of(n.id, r) == v) return;
  const int shift = id_bits() - (r + 1) * opts_.bits_per_digit;
  const std::uint64_t prefix =
      n.id & ~low_mask(id_bits() - r * opts_.bits_per_digit);
  const std::uint64_t lo = prefix | (static_cast<std::uint64_t>(v) << shift);
  bool done = false;
  directory_.for_each_in_range_until(
      lo, lo + (std::uint64_t{1} << shift),
      [&](std::uint64_t, dht::NodeIndex c) {
        done = link(i, slot, c, opts_.enforce_indegree_bounds);
        return !done;
      });
  if (done) return;
  directory_.for_each_in_range_until(
      lo, lo + (std::uint64_t{1} << shift),
      [&](std::uint64_t, dht::NodeIndex c) {
        return !link(i, slot, c, false);
      });
}

std::uint64_t Overlay::logical_distance_to_key(dht::NodeIndex a,
                                               std::uint64_t key) const {
  return dht::ring_distance(nodes_.at(a).id, key & (ring_size() - 1),
                            ring_size());
}

dht::NodeIndex Overlay::responsible(std::uint64_t key) const {
  // Numerically closest live node (Pastry's rule), ties to the successor.
  const std::uint64_t k = key & (ring_size() - 1);
  const dht::NodeIndex s = directory_.successor(k);
  const dht::NodeIndex p = directory_.predecessor(k);
  if (s == dht::kNoNode) return s;
  const std::uint64_t ds = dht::ring_distance(nodes_[s].id, k, ring_size());
  const std::uint64_t dp = dht::ring_distance(nodes_[p].id, k, ring_size());
  return ds <= dp ? s : p;
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
  const PastryNode& cn = nodes_.at(cur);
  const std::uint64_t target = nodes_.at(owner).id;
  const int shared = shared_digits(cn.id, target);

  // Primary rule: the prefix entry one digit deeper toward the target.
  if (shared < opts_.rows) {
    const std::size_t slot = prefix_slot(shared, digit_of(target, shared));
    const auto& entry = cn.table.entry(slot);
    if (!entry.empty()) {
      step.entry_index = slot;
      const auto src = entry.candidates(arena_.cands);
      cands.assign(src.begin(), src.end());
      // All candidates share >= shared+1 digits with the target: strict
      // prefix progress. Prefer numerically closer ones.
      dht::stable_insertion_sort(cands.begin(), cands.end(),
                                 [&](dht::NodeIndex x, dht::NodeIndex y) {
                                   return dht::ring_distance(nodes_[x].id,
                                                             target,
                                                             ring_size()) <
                                          dht::ring_distance(nodes_[y].id,
                                                             target,
                                                             ring_size());
                                 });
      return step;
    }
  }
  // Fallback (Pastry's rule 2): any known node numerically closer to the
  // target that shares at least as long a prefix.
  const std::uint64_t my_dist =
      dht::ring_distance(cn.id, target, ring_size());
  std::size_t best_slot = cn.table.num_entries();
  std::uint64_t best_dist = my_dist;
  for (std::size_t slot = 0; slot < cn.table.num_entries(); ++slot) {
    for (const dht::NodeIndex32 c : cn.table.entry(slot).candidates(arena_.cands)) {
      if (shared_digits(nodes_[c].id, target) < shared) continue;
      const std::uint64_t d =
          dht::ring_distance(nodes_[c].id, target, ring_size());
      if (d < best_dist) {
        best_dist = d;
        best_slot = slot;
      }
    }
  }
  if (best_slot < cn.table.num_entries()) {
    auto& ranked = scratch.ranked;
    ranked.clear();
    for (const dht::NodeIndex32 c :
         cn.table.entry(best_slot).candidates(arena_.cands)) {
      if (shared_digits(nodes_[c].id, target) < shared) continue;
      const std::uint64_t d =
          dht::ring_distance(nodes_[c].id, target, ring_size());
      if (d < my_dist) ranked.emplace_back(d, c);
    }
    dht::stable_insertion_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a < b; });
    step.entry_index = best_slot;
    for (const auto& [d, c] : ranked) cands.push_back(c);
    if (!cands.empty()) return step;
  }
  // Emergency: directory-adjacent hop toward the owner.
  const std::uint64_t next_id = directory_.step_toward(cn.id, target);
  step.entry_index = cn.table.num_entries();
  cands.push_back(*directory_.owner_of(next_id));
  return step;
}

void Overlay::check_invariants() const {
  for (dht::NodeIndex i = 0; i < nodes_.size(); ++i) {
    const PastryNode& n = nodes_[i];
    if (!n.alive) continue;
    for (std::size_t slot = 0; slot < n.table.num_entries(); ++slot) {
      for (const dht::NodeIndex32 c : n.table.entry(slot).candidates(arena_.cands)) {
        if (!nodes_[c].alive) continue;
        assert(nodes_[c].inlinks.contains(arena_.fingers, i));
      }
    }
  }
}

}  // namespace ert::pastry
