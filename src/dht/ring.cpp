#include "dht/ring.h"

#include <algorithm>
#include <cassert>

namespace ert::dht {

std::uint64_t clockwise(std::uint64_t from, std::uint64_t to,
                        std::uint64_t modulus) {
  if (modulus == 0) return to - from;  // wraps naturally in 2^64
  assert(from < modulus && to < modulus);
  return to >= from ? to - from : modulus - from + to;
}

std::uint64_t ring_distance(std::uint64_t a, std::uint64_t b,
                            std::uint64_t modulus) {
  const std::uint64_t cw = clockwise(a, b, modulus);
  const std::uint64_t ccw = clockwise(b, a, modulus);
  return std::min(cw, ccw);
}

bool in_interval(std::uint64_t x, std::uint64_t from, std::uint64_t to,
                 std::uint64_t modulus) {
  if (from == to) return true;  // full circle
  const std::uint64_t span = clockwise(from, to, modulus);
  const std::uint64_t off = clockwise(from, x, modulus);
  return off > 0 && off <= span;
}

// --- bulk staging ----------------------------------------------------------

void RingDirectory::begin_bulk(std::size_t expected) {
  assert(!bulk_ && "bulk mode does not nest");
  bulk_ = true;
  if (expected > 0) {
    staged_.reserve(expected);
    staged_set_.reserve(expected);
  }
}

void RingDirectory::end_bulk() {
  assert(bulk_);
  flush_bulk();
  bulk_ = false;
}

void RingDirectory::flush_bulk() const {
  if (staged_.empty()) return;
  std::sort(staged_.begin(), staged_.end());
  if (!tree_.empty()) {
    std::vector<std::pair<std::uint64_t, NodeIndex>> merged;
    merged.reserve(tree_.size() + staged_.size());
    tree_.materialize(merged);
    const std::size_t mid = merged.size();
    merged.insert(merged.end(), staged_.begin(), staged_.end());
    std::inplace_merge(merged.begin(),
                       merged.begin() + static_cast<std::ptrdiff_t>(mid),
                       merged.end());
    tree_.build_from_sorted(merged);
  } else {
    tree_.build_from_sorted(staged_);
  }
  staged_.clear();
  staged_set_.clear();
  ++version_;
}

// --- membership ------------------------------------------------------------

bool RingDirectory::insert(std::uint64_t id, NodeIndex node) {
  assert(modulus_ == 0 || id < modulus_);
  if (bulk_) {
    if (staged_set_.count(id) != 0 || tree_.contains(id)) return false;
    staged_.emplace_back(id, node);
    staged_set_.insert(id);
    ids_dirty_ = true;
    return true;
  }
  if (!tree_.insert(id, node)) return false;
  ids_dirty_ = true;
  ++version_;
  return true;
}

bool RingDirectory::erase(std::uint64_t id) {
  flush_bulk();
  if (!tree_.erase(id)) return false;
  ids_dirty_ = true;
  ++version_;
  return true;
}

bool RingDirectory::contains(std::uint64_t id) const {
  if (!staged_.empty() && staged_set_.count(id) != 0) return true;
  return tree_.contains(id);
}

std::optional<NodeIndex> RingDirectory::owner_of(std::uint64_t id) const {
  flush_bulk();
  const NodeIndex* v = tree_.find(id);
  if (v) return *v;
  return std::nullopt;
}

// --- ordered queries -------------------------------------------------------

std::size_t RingDirectory::lower_bound(std::uint64_t id) const {
  flush_bulk();
  return tree_.lower_bound(id).rank;
}

NodeIndex RingDirectory::successor(std::uint64_t key) const {
  flush_bulk();
  if (tree_.empty()) return kNoNode;
  CountedBTree::Cursor c = tree_.lower_bound(key).cur;
  if (!CountedBTree::valid(c)) c = tree_.first();  // wrap
  return CountedBTree::value(c);
}

std::uint64_t RingDirectory::successor_id(std::uint64_t key) const {
  flush_bulk();
  assert(!tree_.empty());
  CountedBTree::Cursor c = tree_.lower_bound(key).cur;
  if (!CountedBTree::valid(c)) c = tree_.first();
  return CountedBTree::key(c);
}

NodeIndex RingDirectory::predecessor(std::uint64_t key) const {
  flush_bulk();
  if (tree_.empty()) return kNoNode;
  CountedBTree::Cursor c = tree_.lower_bound(key).cur;
  c = CountedBTree::valid(c) ? CountedBTree::prev(c) : CountedBTree::Cursor{};
  if (!CountedBTree::valid(c)) c = tree_.last();  // wrap
  return CountedBTree::value(c);
}

std::uint64_t RingDirectory::predecessor_id(std::uint64_t key) const {
  flush_bulk();
  assert(!tree_.empty());
  CountedBTree::Cursor c = tree_.lower_bound(key).cur;
  c = CountedBTree::valid(c) ? CountedBTree::prev(c) : CountedBTree::Cursor{};
  if (!CountedBTree::valid(c)) c = tree_.last();
  return CountedBTree::key(c);
}

std::size_t RingDirectory::position_distance(std::uint64_t a,
                                             std::uint64_t b) const {
  return position_gap(position_of(a), position_of(b));
}

std::size_t RingDirectory::position_of(std::uint64_t id) const {
  flush_bulk();
  const CountedBTree::Locate loc = tree_.lower_bound(id);
  assert(CountedBTree::valid(loc.cur) && CountedBTree::key(loc.cur) == id);
  return loc.rank;
}

std::size_t RingDirectory::position_gap(std::size_t pa, std::size_t pb) const {
  const std::size_t n = size();
  const std::size_t fwd = pb >= pa ? pb - pa : n - pa + pb;
  return std::min(fwd, n - fwd);
}

std::uint64_t RingDirectory::step_toward(std::uint64_t a,
                                         std::uint64_t b) const {
  flush_bulk();
  assert(tree_.size() >= 2);
  const CountedBTree::Locate la = tree_.lower_bound(a);
  assert(CountedBTree::valid(la.cur) && CountedBTree::key(la.cur) == a);
  const std::size_t pa = la.rank;
  const std::size_t pb = tree_.lower_bound(b).rank;
  const std::size_t n = tree_.size();
  const std::size_t fwd = pb >= pa ? pb - pa : n - pa + pb;
  const bool clockwise_shorter = fwd <= n - fwd;
  CountedBTree::Cursor c;
  if (clockwise_shorter) {
    c = CountedBTree::next(la.cur);
    if (!CountedBTree::valid(c)) c = tree_.first();  // (pa + 1) % n
  } else {
    c = CountedBTree::prev(la.cur);
    if (!CountedBTree::valid(c)) c = tree_.last();  // pa == 0 -> n - 1
  }
  return CountedBTree::key(c);
}

std::vector<std::uint64_t> RingDirectory::ids_in_range(std::uint64_t lo,
                                                       std::uint64_t hi) const {
  std::vector<std::uint64_t> out;
  for_each_in_range(lo, hi,
                    [&](std::uint64_t id, NodeIndex) { out.push_back(id); });
  return out;
}

std::vector<std::uint64_t> RingDirectory::successors_of(std::uint64_t key,
                                                        std::size_t k) const {
  std::vector<std::uint64_t> out;
  successors_of(key, k, out);
  return out;
}

std::vector<std::uint64_t> RingDirectory::predecessors_of(
    std::uint64_t key, std::size_t k) const {
  std::vector<std::uint64_t> out;
  predecessors_of(key, k, out);
  return out;
}

template <typename Fn>
void RingDirectory::walk_successors(std::uint64_t key, std::size_t k,
                                    SearchHint& hint, Fn&& fn) const {
  flush_bulk();
  if (tree_.empty()) return;
  k = std::min(k, tree_.size());
  CountedBTree::Cursor c = hint.dir == this && hint.version == version_
                               ? tree_.lower_bound_from(hint.cur, key)
                               : tree_.lower_bound(key).cur;
  hint = SearchHint{this, version_, c};
  if (CountedBTree::valid(c) && CountedBTree::key(c) == key)
    c = CountedBTree::next(c);  // exclude key itself
  for (std::size_t i = 0; i < k; ++i) {
    if (!CountedBTree::valid(c)) c = tree_.first();
    if (CountedBTree::key(c) == key) break;  // wrapped all the way around
    fn(CountedBTree::key(c), CountedBTree::value(c));
    c = CountedBTree::next(c);
  }
}

template <typename Fn>
void RingDirectory::walk_predecessors(std::uint64_t key, std::size_t k,
                                      Fn&& fn) const {
  flush_bulk();
  if (tree_.empty()) return;
  k = std::min(k, tree_.size());
  CountedBTree::Cursor c = tree_.lower_bound(key).cur;
  for (std::size_t i = 0; i < k; ++i) {
    c = CountedBTree::valid(c) ? CountedBTree::prev(c)
                               : CountedBTree::Cursor{};
    if (!CountedBTree::valid(c)) c = tree_.last();  // wrap below rank 0
    if (CountedBTree::key(c) == key) break;
    fn(CountedBTree::key(c), CountedBTree::value(c));
  }
}

void RingDirectory::successors_of(std::uint64_t key, std::size_t k,
                                  std::vector<std::uint64_t>& out) const {
  out.clear();
  out.reserve(std::min(k, size()));
  SearchHint fresh;
  walk_successors(key, k, fresh,
                  [&](std::uint64_t id, NodeIndex) { out.push_back(id); });
}

void RingDirectory::predecessors_of(std::uint64_t key, std::size_t k,
                                    std::vector<std::uint64_t>& out) const {
  out.clear();
  out.reserve(std::min(k, size()));
  walk_predecessors(key, k,
                    [&](std::uint64_t id, NodeIndex) { out.push_back(id); });
}

void RingDirectory::successors_of(std::uint64_t key, std::size_t k,
                                  std::vector<IdOwner>& out) const {
  SearchHint fresh;
  successors_of(key, k, out, fresh);
}

void RingDirectory::successors_of(std::uint64_t key, std::size_t k,
                                  std::vector<IdOwner>& out,
                                  SearchHint& hint) const {
  out.clear();
  out.reserve(std::min(k, size()));
  walk_successors(key, k, hint, [&](std::uint64_t id, NodeIndex owner) {
    out.emplace_back(id, owner);
  });
}

void RingDirectory::predecessors_of(std::uint64_t key, std::size_t k,
                                    std::vector<IdOwner>& out) const {
  out.clear();
  out.reserve(std::min(k, size()));
  walk_predecessors(key, k, [&](std::uint64_t id, NodeIndex owner) {
    out.emplace_back(id, owner);
  });
}

const std::vector<std::uint64_t>& RingDirectory::ids() const {
  flush_bulk();
  if (ids_dirty_) {
    ids_cache_.clear();
    ids_cache_.reserve(tree_.size());
    for (CountedBTree::Cursor c = tree_.first(); CountedBTree::valid(c);
         c = CountedBTree::next(c))
      ids_cache_.push_back(CountedBTree::key(c));
    ids_dirty_ = false;
  }
  return ids_cache_;
}

}  // namespace ert::dht
