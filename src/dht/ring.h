// Circular id-space arithmetic and successor/predecessor search over a
// sorted set of occupied ids. Shared by all three substrates: Chord uses it
// directly on its ring, Cycloid on its linearized (cubical, cyclic) order,
// Pastry on its numeric id order (leaf sets).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dht/counted_btree.h"
#include "dht/types.h"

namespace ert::dht {

/// Clockwise distance from `from` to `to` on a ring of size `modulus`
/// (modulus == 0 means the full 2^64 ring).
std::uint64_t clockwise(std::uint64_t from, std::uint64_t to,
                        std::uint64_t modulus);

/// Minimum of the clockwise and counter-clockwise distances.
std::uint64_t ring_distance(std::uint64_t a, std::uint64_t b,
                            std::uint64_t modulus);

/// True iff `x` lies in the half-open clockwise interval (from, to] on the
/// ring. Degenerate interval (from == to) contains everything (full circle).
bool in_interval(std::uint64_t x, std::uint64_t from, std::uint64_t to,
                 std::uint64_t modulus);

/// One occupied id and the node that owns it, as the owner-yielding window
/// scans return them.
using IdOwner = std::pair<std::uint64_t, NodeIndex>;

/// An ordered, mutable set of occupied ids on a ring, with id -> NodeIndex
/// resolution. Backed by a counted B+-tree (counted_btree.h), so insert,
/// erase, successor search, and rank queries (position_of / position_gap)
/// are all O(log n) — churn joins and departures no longer pay the O(n)
/// element shuffle of a sorted vector.
///
/// Bulk construction: between begin_bulk() and end_bulk(), inserts are
/// staged in an append buffer (contains / size stay exact) and the tree is
/// built once from the sorted batch — O(n log n) for the whole batch
/// instead of n tree descents with node splits. Any other query issued
/// mid-bulk transparently flushes the staged batch first, so results are
/// identical to the unstaged sequence; the structure is pure and draw-free
/// either way.
class RingDirectory {
 public:
  explicit RingDirectory(std::uint64_t modulus) : modulus_(modulus) {}

  /// Inserts an id owned by `node`. Returns false if the id is taken.
  bool insert(std::uint64_t id, NodeIndex node);

  /// Removes an id; returns false if absent.
  bool erase(std::uint64_t id);

  bool contains(std::uint64_t id) const;
  std::optional<NodeIndex> owner_of(std::uint64_t id) const;

  /// The node responsible for `key`: owner of the first occupied id at or
  /// clockwise after `key` (Chord-style successor assignment).
  NodeIndex successor(std::uint64_t key) const;

  /// Owner of the first occupied id strictly clockwise-before `key`.
  NodeIndex predecessor(std::uint64_t key) const;

  /// Occupied id at or after `key` (wrapping); useful for neighbor probes.
  std::uint64_t successor_id(std::uint64_t key) const;
  std::uint64_t predecessor_id(std::uint64_t key) const;

  /// All occupied ids in [lo, hi) — non-wrapping range scan (lo <= hi).
  std::vector<std::uint64_t> ids_in_range(std::uint64_t lo,
                                          std::uint64_t hi) const;

  /// Visits (id, owner) for every occupied id in [lo, hi), ascending —
  /// the allocation-free form of ids_in_range for hot scans.
  template <typename Fn>
  void for_each_in_range(std::uint64_t lo, std::uint64_t hi, Fn&& fn) const {
    flush_bulk();
    for (CountedBTree::Cursor c = tree_.lower_bound(lo).cur;
         CountedBTree::valid(c); c = CountedBTree::next(c)) {
      const std::uint64_t id = CountedBTree::key(c);
      if (id >= hi) break;
      fn(id, CountedBTree::value(c));
    }
  }

  /// for_each_in_range with early exit: `fn` returns false to stop the
  /// scan. Identical visit order; lets capped enumerations (expansion
  /// targets) avoid walking the rest of a large block.
  template <typename Fn>
  void for_each_in_range_until(std::uint64_t lo, std::uint64_t hi,
                               Fn&& fn) const {
    flush_bulk();
    for (CountedBTree::Cursor c = tree_.lower_bound(lo).cur;
         CountedBTree::valid(c); c = CountedBTree::next(c)) {
      const std::uint64_t id = CountedBTree::key(c);
      if (id >= hi) break;
      if (!fn(id, CountedBTree::value(c))) break;
    }
  }

  /// The k occupied ids clockwise after `key` (excluding `key` itself).
  std::vector<std::uint64_t> successors_of(std::uint64_t key,
                                           std::size_t k) const;
  std::vector<std::uint64_t> predecessors_of(std::uint64_t key,
                                             std::size_t k) const;

  /// Scratch forms of the neighbor walks: write into `out` (cleared first)
  /// so steady-state callers — table repair, indegree expansion — reuse
  /// warm capacity instead of allocating a fresh vector per query.
  void successors_of(std::uint64_t key, std::size_t k,
                     std::vector<std::uint64_t>& out) const;
  void predecessors_of(std::uint64_t key, std::size_t k,
                       std::vector<std::uint64_t>& out) const;

  /// The same windows as (id, owner) pairs, read from the one descent —
  /// callers that resolve every returned id skip one owner_of per id.
  void successors_of(std::uint64_t key, std::size_t k,
                     std::vector<IdOwner>& out) const;
  void predecessors_of(std::uint64_t key, std::size_t k,
                       std::vector<IdOwner>& out) const;

  /// Caller-owned resume point for a run of window searches with
  /// ascending keys, such as one node's finger starts id + 2^m. Each
  /// hinted search leaves in it where its key landed; the next one starts
  /// there instead of at the root (CountedBTree::lower_bound_from). A
  /// default hint, one from another directory, or one from before a
  /// mutation is ignored.
  struct SearchHint {
    const RingDirectory* dir = nullptr;
    std::uint64_t version = 0;
    CountedBTree::Cursor cur;
  };

  /// The successor pair window, resumed from `hint`: identical results
  /// for any key order, cheaper when keys ascend until they wrap.
  void successors_of(std::uint64_t key, std::size_t k,
                     std::vector<IdOwner>& out, SearchHint& hint) const;

  /// Number of occupied positions separating two occupied ids, walking the
  /// shorter way around the sorted ring. Both ids must be occupied.
  std::size_t position_distance(std::uint64_t a, std::uint64_t b) const;

  /// Index of occupied id `id` in the sorted ring order. Pairs with
  /// position_gap so hot loops comparing many ids against one anchor can
  /// resolve the anchor's position once instead of per comparison.
  std::size_t position_of(std::uint64_t id) const;

  /// position_distance expressed on resolved position indices.
  std::size_t position_gap(std::size_t pa, std::size_t pb) const;

  /// Among `a`'s two occupied ring neighbors, the one on the shorter side
  /// toward occupied id `b` (== b when adjacent). Requires size() >= 2.
  std::uint64_t step_toward(std::uint64_t a, std::uint64_t b) const;

  /// Enters bulk-insert mode: inserts are staged, then the tree is built
  /// once from the sorted batch at end_bulk(). `expected` pre-sizes the
  /// staging buffers. Nestable-free: one level only.
  void begin_bulk(std::size_t expected = 0);
  void end_bulk();
  bool in_bulk() const { return bulk_; }

  std::size_t size() const { return tree_.size() + staged_.size(); }
  bool empty() const { return size() == 0; }
  std::uint64_t modulus() const { return modulus_; }

  /// The occupied ids in ascending order. Materialized lazily from the
  /// tree and cached until the next mutation; meant for tests and tools,
  /// not hot paths.
  const std::vector<std::uint64_t>& ids() const;

 private:
  /// The window walks behind every form of successors_of / predecessors_of:
  /// visit (id, owner) for up to k occupied ids clockwise after (resp.
  /// before) `key`, wrapping, never visiting `key` itself. The successor
  /// walk starts from `hint` (the unhinted forms pass a default one, which
  /// starts at the root).
  template <typename Fn>
  void walk_successors(std::uint64_t key, std::size_t k, SearchHint& hint,
                       Fn&& fn) const;
  template <typename Fn>
  void walk_predecessors(std::uint64_t key, std::size_t k, Fn&& fn) const;

  /// lower_bound over occupied ids: rank of the first id >= `id`.
  std::size_t lower_bound(std::uint64_t id) const;

  /// Sorts and merges any staged inserts into the tree. Const because any
  /// query may trigger it mid-bulk; the logical contents never change.
  void flush_bulk() const;

  std::uint64_t modulus_;
  mutable CountedBTree tree_;
  bool bulk_ = false;
  mutable std::vector<std::pair<std::uint64_t, NodeIndex>> staged_;
  mutable std::unordered_set<std::uint64_t> staged_set_;
  mutable std::vector<std::uint64_t> ids_cache_;
  mutable bool ids_dirty_ = true;
  /// Bumped by every change to the tree (insert, erase, a flush that
  /// merges staged inserts), so a SearchHint's cursor is only followed
  /// into the tree it came from.
  mutable std::uint64_t version_ = 0;
};

}  // namespace ert::dht
