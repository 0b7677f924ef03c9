// Structural tests for the counted B+-tree behind dht::RingDirectory.
// check_structure() audits sortedness, subtree size/max annotations, fill
// minima, and the leaf chain after every phase; a sorted std::vector mirror
// checks ordering, ranks, and cursor walks. Sizes are chosen so the tree
// reaches three interior levels (64 * 32 * 32 = 65536 pairs per three-level
// subtree), exercising recursive splits and multi-level underflow repair.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dht/counted_btree.h"

namespace ert::dht {
namespace {

using Pair = std::pair<std::uint64_t, NodeIndex>;

std::vector<Pair> random_pairs(std::size_t n, std::uint64_t modulus,
                               Rng& rng) {
  std::vector<Pair> out;
  out.reserve(n);
  std::vector<bool> taken(modulus, false);
  while (out.size() < n) {
    const std::uint64_t id = rng.bits() % modulus;
    if (taken[id]) continue;
    taken[id] = true;
    out.emplace_back(id, static_cast<NodeIndex>(out.size()));
  }
  return out;
}

/// Walks the leaf chain through cursors and compares against the sorted
/// mirror; then spot-checks select / lower_bound ranks.
void expect_matches(const CountedBTree& tree, std::vector<Pair> mirror,
                    Rng& rng) {
  std::sort(mirror.begin(), mirror.end());
  ASSERT_EQ(tree.size(), mirror.size());
  ASSERT_TRUE(tree.check_structure());

  std::size_t i = 0;
  for (CountedBTree::Cursor c = tree.first(); CountedBTree::valid(c);
       c = CountedBTree::next(c), ++i) {
    ASSERT_LT(i, mirror.size());
    ASSERT_EQ(CountedBTree::key(c), mirror[i].first);
    ASSERT_EQ(CountedBTree::value(c), mirror[i].second);
  }
  ASSERT_EQ(i, mirror.size());

  // Backward walk.
  i = mirror.size();
  for (CountedBTree::Cursor c = tree.last(); CountedBTree::valid(c);
       c = CountedBTree::prev(c)) {
    --i;
    ASSERT_EQ(CountedBTree::key(c), mirror[i].first);
  }
  ASSERT_EQ(i, 0u);

  const std::size_t probes = std::min<std::size_t>(mirror.size(), 512);
  for (std::size_t p = 0; p < probes; ++p) {
    const std::size_t rank = rng.index(mirror.size());
    const CountedBTree::Cursor c = tree.select(rank);
    ASSERT_TRUE(CountedBTree::valid(c));
    ASSERT_EQ(CountedBTree::key(c), mirror[rank].first);

    const std::uint64_t key = mirror[rank].first;
    const CountedBTree::Locate loc = tree.lower_bound(key);
    ASSERT_EQ(loc.rank, rank);
    ASSERT_TRUE(CountedBTree::valid(loc.cur));
    ASSERT_EQ(CountedBTree::key(loc.cur), key);
    ASSERT_EQ(*tree.find(key), mirror[rank].second);
  }
}

TEST(CountedBTree, RandomInsertEraseCyclesStayConsistent) {
  const std::size_t n = 150000;  // three interior levels
  const std::uint64_t modulus = 1u << 20;
  Rng rng(42);
  auto pairs = random_pairs(n, modulus, rng);

  CountedBTree tree;
  for (const auto& [k, v] : pairs) {
    ASSERT_TRUE(tree.insert(k, v));
    ASSERT_FALSE(tree.insert(k, v));  // duplicate rejected
  }
  expect_matches(tree, pairs, rng);

  // Three shrink/regrow cycles: erase a random half, audit, refill.
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::vector<Pair> survivors;
    for (const auto& pr : pairs) {
      if (rng.bernoulli(0.5)) {
        ASSERT_TRUE(tree.erase(pr.first));
        ASSERT_FALSE(tree.erase(pr.first));  // second erase is a no-op
      } else {
        survivors.push_back(pr);
      }
    }
    expect_matches(tree, survivors, rng);

    pairs = std::move(survivors);
    while (pairs.size() < n / 2) {
      const std::uint64_t id = rng.bits() % modulus;
      if (tree.contains(id)) continue;
      const NodeIndex v = static_cast<NodeIndex>(pairs.size());
      ASSERT_TRUE(tree.insert(id, v));
      pairs.emplace_back(id, v);
    }
    ASSERT_TRUE(tree.check_structure());
  }
}

TEST(CountedBTree, BuildFromSortedMatchesIncremental) {
  Rng rng(7);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{63}, std::size_t{64},
        std::size_t{65}, std::size_t{2048}, std::size_t{100000}}) {
    auto pairs = random_pairs(n, std::max<std::uint64_t>(1, 8 * n), rng);
    std::sort(pairs.begin(), pairs.end());

    CountedBTree bulk;
    bulk.build_from_sorted(pairs);
    ASSERT_TRUE(bulk.check_structure()) << "n=" << n;

    CountedBTree inc;
    for (const auto& [k, v] : pairs) ASSERT_TRUE(inc.insert(k, v));

    std::vector<Pair> from_bulk, from_inc;
    bulk.materialize(from_bulk);
    inc.materialize(from_inc);
    ASSERT_EQ(from_bulk, pairs) << "n=" << n;
    ASSERT_EQ(from_inc, pairs) << "n=" << n;
    expect_matches(bulk, pairs, rng);
  }
}

TEST(CountedBTree, EraseToEmptyAndReuse) {
  Rng rng(11);
  CountedBTree tree;
  auto pairs = random_pairs(5000, 1 << 16, rng);
  for (const auto& [k, v] : pairs) ASSERT_TRUE(tree.insert(k, v));

  // Erase in a different order than insertion.
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [k, v] : pairs) ASSERT_TRUE(tree.erase(k));
  ASSERT_TRUE(tree.empty());
  ASSERT_TRUE(tree.check_structure());
  ASSERT_FALSE(CountedBTree::valid(tree.first()));
  ASSERT_FALSE(CountedBTree::valid(tree.last()));

  // The emptied tree must accept a fresh population.
  for (const auto& [k, v] : pairs) ASSERT_TRUE(tree.insert(k, v));
  expect_matches(tree, pairs, rng);

  tree.clear();
  ASSERT_TRUE(tree.empty());
  ASSERT_TRUE(tree.check_structure());
}

TEST(CountedBTree, CopyAndMoveSemantics) {
  Rng rng(13);
  auto pairs = random_pairs(20000, 1 << 18, rng);
  CountedBTree a;
  for (const auto& [k, v] : pairs) a.insert(k, v);

  CountedBTree copy(a);
  expect_matches(copy, pairs, rng);
  // Mutating the copy leaves the original untouched.
  copy.erase(pairs.front().first);
  ASSERT_EQ(copy.size(), pairs.size() - 1);
  ASSERT_TRUE(a.contains(pairs.front().first));

  CountedBTree moved(std::move(a));
  expect_matches(moved, pairs, rng);
  ASSERT_TRUE(a.empty());           // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(a.check_structure()); // moved-from is empty but usable
  ASSERT_TRUE(a.insert(1, 2));

  CountedBTree assigned;
  assigned.insert(99, 1);
  assigned = moved;
  expect_matches(assigned, pairs, rng);

  CountedBTree move_assigned;
  move_assigned = std::move(moved);
  expect_matches(move_assigned, pairs, rng);
}

TEST(CountedBTree, LowerBoundEdgeCases) {
  CountedBTree tree;
  ASSERT_FALSE(CountedBTree::valid(tree.lower_bound(0).cur));
  ASSERT_EQ(tree.lower_bound(0).rank, 0u);

  for (std::uint64_t k = 10; k <= 1000; k += 10)
    tree.insert(k, static_cast<NodeIndex>(k));

  const auto below = tree.lower_bound(0);
  ASSERT_EQ(CountedBTree::key(below.cur), 10u);
  ASSERT_EQ(below.rank, 0u);

  const auto exact = tree.lower_bound(500);
  ASSERT_EQ(CountedBTree::key(exact.cur), 500u);
  ASSERT_EQ(exact.rank, 49u);

  const auto between = tree.lower_bound(501);
  ASSERT_EQ(CountedBTree::key(between.cur), 510u);
  ASSERT_EQ(between.rank, 50u);

  const auto beyond = tree.lower_bound(1001);
  ASSERT_FALSE(CountedBTree::valid(beyond.cur));
  ASSERT_EQ(beyond.rank, tree.size());
}

// lower_bound_from against lower_bound on ascending key runs. Strides are
// set against one leaf's key span, so a run stays in the hint's leaf,
// steps into the next, or jumps many leaves (the descent fallback); every
// run ends past the largest key, at the end cursor. Sizes run from a
// single-leaf root to three interior levels. Random inserts and erases
// come between runs, and each run starts from the end cursor (no hint):
// a hint never outlives a mutation.
TEST(CountedBTree, LowerBoundFromMatchesFreshSearch) {
  const std::uint64_t modulus = 1u << 20;
  Rng rng(20261019);
  std::size_t same_leaf = 0, next_leaf = 0, other_leaf = 0, at_end = 0;
  for (const std::size_t n : {1u, 5u, 64u, 65u, 300u, 5000u, 70000u}) {
    std::vector<Pair> pairs = random_pairs(n, modulus, rng);
    CountedBTree tree;
    for (const auto& [k, v] : pairs) tree.insert(k, v);
    for (int round = 0; round < 16; ++round) {
      const std::uint64_t leaf_span = std::max<std::uint64_t>(
          1, modulus / std::max<std::size_t>(tree.size(), 1) *
                 CountedBTree::kLeafCap);
      const std::uint64_t strides[] = {leaf_span / 16, leaf_span / 2,
                                       2 * leaf_span, 30 * leaf_span};
      const std::uint64_t stride =
          std::max<std::uint64_t>(1, strides[rng.index(4)]);
      CountedBTree::Cursor hint;
      for (std::uint64_t key = rng.index(leaf_span);;) {
        const CountedBTree::Cursor fresh = tree.lower_bound(key).cur;
        const CountedBTree::Cursor got = tree.lower_bound_from(hint, key);
        ASSERT_EQ(got.leaf, fresh.leaf) << "n " << n << " key " << key;
        ASSERT_EQ(got.idx, fresh.idx) << "n " << n << " key " << key;
        if (!CountedBTree::valid(got))
          ++at_end;
        else if (got.leaf == hint.leaf)
          ++same_leaf;
        else if (hint.leaf && got.leaf == hint.leaf->next)
          ++next_leaf;
        else
          ++other_leaf;
        hint = got;
        if (key >= modulus) break;
        // Sometimes land exactly on an occupied key, sometimes repeat one.
        if (CountedBTree::valid(got) && rng.bernoulli(0.2))
          key = CountedBTree::key(got);
        else if (!rng.bernoulli(0.1))
          key += 1 + rng.index(2 * stride);
      }
      // A key below the hint's leaf (a wrapped run) falls back.
      const std::uint64_t low = rng.index(modulus);
      ASSERT_EQ(tree.lower_bound_from(hint, low).leaf,
                tree.lower_bound(low).cur.leaf);
      ASSERT_EQ(tree.lower_bound_from(hint, low).idx,
                tree.lower_bound(low).cur.idx);

      for (int op = 0; op < 40; ++op) {
        const std::uint64_t key = rng.index(modulus);
        if (!pairs.empty() && rng.bernoulli(0.5)) {
          const std::size_t at = rng.index(pairs.size());
          ASSERT_TRUE(tree.erase(pairs[at].first));
          pairs[at] = pairs.back();
          pairs.pop_back();
        } else if (tree.insert(key, static_cast<NodeIndex>(op))) {
          pairs.emplace_back(key, static_cast<NodeIndex>(op));
        }
      }
      ASSERT_TRUE(tree.check_structure());
    }
  }
  // Each path of the resumed search ran.
  EXPECT_GT(same_leaf, 0u);
  EXPECT_GT(next_leaf, 0u);
  EXPECT_GT(other_leaf, 0u);
  EXPECT_GT(at_end, 0u);
}

}  // namespace
}  // namespace ert::dht
