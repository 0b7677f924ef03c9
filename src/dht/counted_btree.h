// Counted B+-tree over (id, NodeIndex) pairs: the rank-indexed backing
// store of dht::RingDirectory.
//
// Interior nodes carry, parent-side, each child's subtree size and maximum
// key, so a single cache-friendly descent answers both key searches
// (lower_bound) and rank searches (select) in O(log n); insert and erase
// are O(log n) with the classic split / borrow / merge rebalancing. Leaves
// are doubly linked, so rank-neighbor walks (successors_of, ids_in_range,
// range scans) cost O(1) per step after the initial descent. build_from_
// sorted packs leaves left to right and stacks interior levels on top —
// O(n) from sorted input, giving the O(n log n) bulk construction path
// (sort once, then build) the harness uses for initial network assembly.
//
// The tree is pure and draw-free: no randomization, no hashing — identical
// operation sequences produce identical structures and identical query
// results on every platform.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dht/types.h"

namespace ert::dht {

class CountedBTree {
 public:
  // Node fan-outs. Leaves pack 64 pairs (one cache line of keys holds 8, so
  // a leaf spans a handful of lines); interior nodes hold 32 children with
  // their size/max arrays. Minimum fill is half, root exempt.
  static constexpr int kLeafCap = 64;
  static constexpr int kLeafMin = kLeafCap / 2;
  static constexpr int kInnerCap = 32;
  static constexpr int kInnerMin = kInnerCap / 2;

  struct Leaf {
    std::uint64_t keys[kLeafCap];
    NodeIndex vals[kLeafCap];
    int count = 0;
    Leaf* next = nullptr;
    Leaf* prev = nullptr;
  };

  /// A position inside the tree: a leaf and an index into it. `leaf ==
  /// nullptr` is the end/invalid position. Cursors are invalidated by any
  /// mutation.
  struct Cursor {
    const Leaf* leaf = nullptr;
    int idx = 0;
  };

  /// lower_bound result: the cursor of the first pair with key >= the
  /// probe (end cursor when none) plus its rank in [0, size()].
  struct Locate {
    Cursor cur;
    std::size_t rank = 0;
  };

  CountedBTree();
  ~CountedBTree();
  CountedBTree(const CountedBTree& other);
  CountedBTree& operator=(const CountedBTree& other);
  CountedBTree(CountedBTree&& other) noexcept;
  CountedBTree& operator=(CountedBTree&& other) noexcept;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Inserts a pair; returns false (no change) if the key is present.
  bool insert(std::uint64_t key, NodeIndex val);

  /// Removes a key; returns false if absent.
  bool erase(std::uint64_t key);

  bool contains(std::uint64_t key) const;

  /// Pointer to the value for `key`, or nullptr when absent. Invalidated
  /// by mutation.
  const NodeIndex* find(std::uint64_t key) const;

  /// First pair with key >= `key`, with its rank (see Locate).
  Locate lower_bound(std::uint64_t key) const;

  /// lower_bound(key).cur resumed from `hint`: a cursor this tree returned
  /// for an earlier search with no mutation since (the end cursor means no
  /// hint). Ascending key runs usually land in the hint's leaf or the next
  /// one, which are scanned without a descent; any other key falls back to
  /// a full lower_bound. The result is exactly lower_bound(key).cur.
  Cursor lower_bound_from(Cursor hint, std::uint64_t key) const;

  /// Pair at rank `rank` (0-based, in key order). Requires rank < size().
  Cursor select(std::size_t rank) const;

  static bool valid(Cursor c) { return c.leaf != nullptr; }
  static std::uint64_t key(Cursor c) { return c.leaf->keys[c.idx]; }
  static NodeIndex value(Cursor c) { return c.leaf->vals[c.idx]; }

  /// First / last pair in key order; end cursor when empty.
  Cursor first() const;
  Cursor last() const;

  /// Next / previous pair in key order; end cursor past either end.
  static Cursor next(Cursor c);
  static Cursor prev(Cursor c);

  /// Replaces the contents with `pairs`, which must be sorted by key and
  /// duplicate-free. O(n).
  void build_from_sorted(
      const std::vector<std::pair<std::uint64_t, NodeIndex>>& pairs);

  /// Appends all pairs, in key order, to `out`. O(n).
  void materialize(
      std::vector<std::pair<std::uint64_t, NodeIndex>>& out) const;

  void clear();

  /// Full structural audit (sortedness, counts, size/max annotations, fill
  /// minima, leaf chain). O(n); for tests. Returns true when consistent.
  bool check_structure() const;

 private:
  struct Inner {
    void* child[kInnerCap];        // Leaf* at level 1, Inner* above
    std::size_t tsize[kInnerCap];  // subtree size per child
    std::uint64_t tmax[kInnerCap]; // max key per child's subtree
    std::size_t total = 0;         // sum of tsize[0..count)
    int count = 0;
  };

  std::size_t child_size(const void* child, int level) const;
  std::uint64_t child_max(const void* child, int level) const;
  int child_count(const void* child, int level) const;

  void* insert_rec(void* node, int level, std::uint64_t key, NodeIndex val,
                   bool& inserted);
  bool erase_rec(void* node, int level, std::uint64_t key);
  void fix_underflow(Inner* parent, int i, int level);
  void destroy_rec(void* node, int level);
  bool check_rec(const void* node, int level, bool is_root,
                 std::size_t& out_size, std::uint64_t& out_max,
                 const Leaf*& chain) const;

  void steal(CountedBTree&& other);

  void* root_ = nullptr;  // Leaf* when height_ == 0, Inner* otherwise
  int height_ = 0;        // number of interior levels above the leaves
  std::size_t size_ = 0;
  Leaf* head_ = nullptr;  // leftmost leaf
  Leaf* tail_ = nullptr;  // rightmost leaf
};

}  // namespace ert::dht
