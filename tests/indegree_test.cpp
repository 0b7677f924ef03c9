#include "ert/indegree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "common/rng.h"

namespace ert::core {
namespace {

TEST(IndegreeBudget, InitialTarget) {
  IndegreeBudget b(10, 0.8);
  EXPECT_EQ(b.initial_target(), 8);
  IndegreeBudget small(1, 0.5);
  EXPECT_EQ(small.initial_target(), 1);  // at least 1
}

TEST(IndegreeBudget, AcceptanceRule) {
  IndegreeBudget b(2, 1.0);
  EXPECT_TRUE(b.can_accept());
  b.on_inlink_added();
  EXPECT_TRUE(b.can_accept());
  b.on_inlink_added();
  EXPECT_FALSE(b.can_accept());  // d_inf - d == 0
  b.on_inlink_removed();
  EXPECT_TRUE(b.can_accept());
}

TEST(IndegreeBudget, WantsMoreUntilWatermark) {
  IndegreeBudget b(10, 0.8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(b.wants_more());
    b.on_inlink_added();
  }
  EXPECT_FALSE(b.wants_more());
}

TEST(IndegreeBudget, BoundAdjustment) {
  IndegreeBudget b(5, 0.8);
  b.raise_bound_by(3);
  EXPECT_EQ(b.max_indegree(), 8);
  b.lower_bound_by(10);
  EXPECT_EQ(b.max_indegree(), 1);  // never below 1
}

TEST(IndegreeBudget, RemoveBelowZeroClamped) {
  IndegreeBudget b(5, 0.8);
  b.on_inlink_removed();
  EXPECT_EQ(b.indegree(), 0);
}

TEST(BackwardFingerList, AddRemoveContains) {
  FingerPool pool;
  BackwardFingerList l;
  EXPECT_TRUE(l.add(pool, {1, 100, 0.5}));
  EXPECT_FALSE(l.add(pool, {1, 100, 0.5}));  // duplicate node
  EXPECT_TRUE(l.add(pool, {2, 50, 0.1}));
  EXPECT_EQ(l.size(), 2u);
  EXPECT_TRUE(l.contains(pool, 1));
  EXPECT_TRUE(l.remove(pool, 1));
  EXPECT_FALSE(l.remove(pool, 1));
  EXPECT_FALSE(l.contains(pool, 1));
}

TEST(BackwardFingerList, EvictionOrderLogicalThenPhysical) {
  FingerPool pool;
  BackwardFingerList l;
  l.add(pool, {1, 100, 0.1});
  l.add(pool, {2, 300, 0.2});
  l.add(pool, {3, 300, 0.9});  // same logical as 2, farther physically
  l.add(pool, {4, 50, 0.5});
  std::vector<BackwardFinger> scratch;
  std::vector<dht::NodeIndex> ev;
  l.pick_evictions(pool, 3, scratch, ev);
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0], 3u);  // longest logical, longest physical
  EXPECT_EQ(ev[1], 2u);
  EXPECT_EQ(ev[2], 1u);
}

TEST(BackwardFingerList, EvictionsClampToSize) {
  FingerPool pool;
  BackwardFingerList l;
  l.add(pool, {1, 10, 0.0});
  std::vector<BackwardFinger> scratch;
  std::vector<dht::NodeIndex> ev;
  l.pick_evictions(pool, 5, scratch, ev);
  EXPECT_EQ(ev.size(), 1u);
  l.pick_evictions(pool, 0, scratch, ev);
  EXPECT_EQ(ev.size(), 0u);
}

/// The eviction ranking as a full std::sort of the list in pool order: the
/// original pick_evictions body, kept verbatim as the reference that the
/// top-k selection must reproduce, ties included.
std::vector<dht::NodeIndex> full_sort_evictions(
    std::span<const BackwardFinger> fingers, std::size_t k) {
  std::vector<BackwardFinger> scratch;
  std::vector<dht::NodeIndex> out;
  scratch.assign(fingers.begin(), fingers.end());
  std::sort(scratch.begin(), scratch.end(),
            [](const BackwardFinger& a, const BackwardFinger& b) {
              if (a.logical_distance != b.logical_distance)
                return a.logical_distance > b.logical_distance;
              return a.physical_distance > b.physical_distance;
            });
  k = std::min(k, scratch.size());
  out.clear();
  for (std::size_t i = 0; i < k; ++i) out.push_back(scratch[i].node);
  return out;
}

TEST(BackwardFingerList, EvictionsMatchFullSort) {
  // Key shapes: distinct keys, ties in logical distance only, ties in both
  // logical and physical distance (the std::sort tie-break), three distinct
  // longest keys over a tied tail, and one key shared by every finger.
  enum class Keys { kDistinct, kLogicalTies, kFullTies, kTailTies, kAllEqual };
  Rng rng(2024);
  std::vector<BackwardFinger> scratch;  // warm and stale across calls
  std::vector<dht::NodeIndex> ev;
  for (const Keys keys : {Keys::kDistinct, Keys::kLogicalTies,
                          Keys::kFullTies, Keys::kTailTies, Keys::kAllEqual}) {
    for (int trial = 0; trial < 60; ++trial) {
      const std::size_t size = trial < 3 ? static_cast<std::size_t>(trial)
                                         : rng.index(201);
      FingerPool pool;
      BackwardFingerList l;
      for (std::size_t j = 0; j < size; ++j) {
        BackwardFinger f;
        f.node = static_cast<dht::NodeIndex>(j);
        switch (keys) {
          case Keys::kDistinct:
            f.logical_distance = rng.bits() >> 20;
            f.physical_distance = rng.uniform(0.0, 100.0);
            break;
          case Keys::kLogicalTies:
            f.logical_distance = static_cast<std::uint64_t>(rng.index(5));
            f.physical_distance = rng.uniform(0.0, 100.0);
            break;
          case Keys::kFullTies:
            f.logical_distance = static_cast<std::uint64_t>(rng.index(4));
            f.physical_distance = 0.5 * static_cast<double>(rng.index(2));
            break;
          case Keys::kTailTies:
            f.logical_distance = j < 3 ? 1000 + j : 5;
            f.physical_distance = 0.0;
            break;
          case Keys::kAllEqual:
            f.logical_distance = 7;
            f.physical_distance = 1.5;
            break;
        }
        ASSERT_TRUE(l.add(pool, f));
      }
      const auto fingers = l.fingers(pool);
      std::vector<std::size_t> ks = {0, 1, 2, size, size + 1};
      if (size > 0) ks.push_back(size - 1);
      for (const std::size_t k : ks) {
        l.pick_evictions(pool, k, scratch, ev);
        EXPECT_EQ(ev, full_sort_evictions(fingers, k))
            << "size " << size << " k " << k << " key shape "
            << static_cast<int>(keys);
      }
    }
  }
}

TEST(BackwardFingerList, Clear) {
  FingerPool pool;
  BackwardFingerList l;
  l.add(pool, {1, 1, 1});
  l.clear(pool);
  EXPECT_TRUE(l.empty());
}

}  // namespace
}  // namespace ert::core
