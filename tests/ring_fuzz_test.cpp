// RingDirectory differential fuzz against a naive reference model: random
// churn-shaped interleavings of insert / erase / rank / range / neighbor
// queries must agree with a std::map plus index arithmetic on the sorted id
// vector (the directory's original sorted-vector implementation). Runs
// under ASan/UBSan in CI, so structural bugs in the counted-B-tree backing
// store surface as either a divergence here or a sanitizer report.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "dht/ring.h"

namespace ert::dht {
namespace {

/// The straightforward model: a std::map for membership and neighbor scans,
/// and a freshly materialized sorted vector for rank queries using the same
/// index arithmetic the pre-B-tree directory used. Everything is O(n) per
/// call, which is fine at fuzz sizes.
class Reference {
 public:
  explicit Reference(std::uint64_t modulus) : modulus_(modulus) {}

  bool insert(std::uint64_t id, NodeIndex n) {
    return map_.emplace(id, n).second;
  }
  bool erase(std::uint64_t id) { return map_.erase(id) > 0; }
  bool contains(std::uint64_t id) const { return map_.count(id) > 0; }

  std::optional<NodeIndex> owner_of(std::uint64_t id) const {
    auto it = map_.find(id);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  NodeIndex successor(std::uint64_t key) const {
    if (map_.empty()) return kNoNode;
    auto it = map_.lower_bound(key);
    if (it == map_.end()) it = map_.begin();
    return it->second;
  }
  std::uint64_t successor_id(std::uint64_t key) const {
    auto it = map_.lower_bound(key);
    if (it == map_.end()) it = map_.begin();
    return it->first;
  }
  NodeIndex predecessor(std::uint64_t key) const {
    if (map_.empty()) return kNoNode;
    auto it = map_.lower_bound(key);
    if (it == map_.begin()) it = map_.end();
    --it;
    return it->second;
  }
  std::uint64_t predecessor_id(std::uint64_t key) const {
    auto it = map_.lower_bound(key);
    if (it == map_.begin()) it = map_.end();
    --it;
    return it->first;
  }

  std::vector<std::uint64_t> successors_of(std::uint64_t key,
                                           std::size_t k) const {
    std::vector<std::uint64_t> out;
    if (map_.empty()) return out;
    auto it = map_.upper_bound(key);
    for (std::size_t i = 0; i < std::min(k, map_.size()); ++i) {
      if (it == map_.end()) it = map_.begin();
      if (it->first == key) break;
      out.push_back(it->first);
      ++it;
    }
    return out;
  }
  std::vector<std::uint64_t> predecessors_of(std::uint64_t key,
                                             std::size_t k) const {
    std::vector<std::uint64_t> out;
    if (map_.empty()) return out;
    auto it = map_.lower_bound(key);
    for (std::size_t i = 0; i < std::min(k, map_.size()); ++i) {
      if (it == map_.begin()) it = map_.end();
      --it;
      if (it->first == key) break;
      out.push_back(it->first);
    }
    return out;
  }

  std::vector<std::uint64_t> ids_in_range(std::uint64_t lo,
                                          std::uint64_t hi) const {
    std::vector<std::uint64_t> out;
    for (auto it = map_.lower_bound(lo); it != map_.end() && it->first < hi;
         ++it)
      out.push_back(it->first);
    return out;
  }

  std::vector<std::uint64_t> ids() const {
    std::vector<std::uint64_t> out;
    out.reserve(map_.size());
    for (const auto& [id, n] : map_) out.push_back(id);
    return out;
  }

  std::size_t position_of(std::uint64_t id) const {
    const auto v = ids();
    return static_cast<std::size_t>(
        std::lower_bound(v.begin(), v.end(), id) - v.begin());
  }
  std::size_t position_gap(std::size_t pa, std::size_t pb) const {
    const std::size_t n = map_.size();
    const std::size_t fwd = pb >= pa ? pb - pa : n - pa + pb;
    return std::min(fwd, n - fwd);
  }
  std::size_t position_distance(std::uint64_t a, std::uint64_t b) const {
    return position_gap(position_of(a), position_of(b));
  }
  std::uint64_t step_toward(std::uint64_t a, std::uint64_t b) const {
    const auto v = ids();
    const std::size_t pa = position_of(a);
    const std::size_t pb = position_of(b);
    const std::size_t n = v.size();
    const std::size_t fwd = pb >= pa ? pb - pa : n - pa + pb;
    const bool clockwise_shorter = fwd <= n - fwd;
    return clockwise_shorter ? v[(pa + 1) % n] : v[pa == 0 ? n - 1 : pa - 1];
  }

  std::size_t size() const { return map_.size(); }
  std::uint64_t any_id(Rng& rng) const {
    auto it = map_.begin();
    std::advance(it, rng.index(map_.size()));
    return it->first;
  }

 private:
  std::uint64_t modulus_;
  std::map<std::uint64_t, NodeIndex> map_;
};

/// One random query, same draw sequence for both sides, result compared.
/// Covers every read-only entry point of the directory.
void check_random_query(const RingDirectory& dir, const Reference& ref,
                        std::uint64_t modulus, Rng& rng) {
  ASSERT_EQ(dir.size(), ref.size());
  const std::uint64_t key = rng.bits() % modulus;
  switch (rng.index(9)) {
    case 0:
      ASSERT_EQ(dir.contains(key), ref.contains(key));
      ASSERT_EQ(dir.owner_of(key), ref.owner_of(key));
      break;
    case 1:
      ASSERT_EQ(dir.successor(key), ref.successor(key));
      if (ref.size() > 0) {
        ASSERT_EQ(dir.successor_id(key), ref.successor_id(key));
      }
      break;
    case 2:
      ASSERT_EQ(dir.predecessor(key), ref.predecessor(key));
      if (ref.size() > 0) {
        ASSERT_EQ(dir.predecessor_id(key), ref.predecessor_id(key));
      }
      break;
    case 3: {
      const std::size_t k = 1 + rng.index(8);
      ASSERT_EQ(dir.successors_of(key, k), ref.successors_of(key, k));
      break;
    }
    case 4: {
      const std::size_t k = 1 + rng.index(8);
      ASSERT_EQ(dir.predecessors_of(key, k), ref.predecessors_of(key, k));
      break;
    }
    case 5: {
      const std::uint64_t other = rng.bits() % modulus;
      const std::uint64_t lo = std::min(key, other);
      const std::uint64_t hi = std::max(key, other);
      ASSERT_EQ(dir.ids_in_range(lo, hi), ref.ids_in_range(lo, hi));
      break;
    }
    case 6: {
      if (ref.size() == 0) break;
      const std::uint64_t a = ref.any_id(rng);
      const std::uint64_t b = ref.any_id(rng);
      ASSERT_EQ(dir.position_of(a), ref.position_of(a));
      ASSERT_EQ(dir.position_distance(a, b), ref.position_distance(a, b));
      ASSERT_EQ(dir.position_gap(dir.position_of(a), dir.position_of(b)),
                ref.position_gap(ref.position_of(a), ref.position_of(b)));
      break;
    }
    case 7: {
      if (ref.size() < 2) break;
      const std::uint64_t a = ref.any_id(rng);
      const std::uint64_t b = ref.any_id(rng);
      ASSERT_EQ(dir.step_toward(a, b), ref.step_toward(a, b));
      break;
    }
    default:
      ASSERT_EQ(dir.ids(), ref.ids());
      break;
  }
}

void expect_pairs_match(const RingDirectory& dir, const Reference& ref,
                        const std::vector<std::uint64_t>& ids,
                        const std::vector<IdOwner>& pairs) {
  ASSERT_EQ(pairs.size(), ids.size());
  for (std::size_t j = 0; j < ids.size(); ++j) {
    ASSERT_EQ(pairs[j].first, ids[j]);
    ASSERT_EQ(std::optional<NodeIndex>(pairs[j].second), dir.owner_of(ids[j]));
    ASSERT_EQ(std::optional<NodeIndex>(pairs[j].second), ref.owner_of(ids[j]));
  }
}

/// The owner-yielding window scans must equal the id-only scan followed by
/// one owner_of per returned id, on both sides of the key. Flushes any
/// staged bulk inserts as a side effect, like every ordered query.
void check_pair_scans(const RingDirectory& dir, const Reference& ref,
                      std::uint64_t key, std::size_t k) {
  std::vector<std::uint64_t> ids;
  std::vector<IdOwner> pairs;
  dir.successors_of(key, k, ids);
  dir.successors_of(key, k, pairs);
  ASSERT_EQ(ids, ref.successors_of(key, k));
  expect_pairs_match(dir, ref, ids, pairs);
  dir.predecessors_of(key, k, ids);
  dir.predecessors_of(key, k, pairs);
  ASSERT_EQ(ids, ref.predecessors_of(key, k));
  expect_pairs_match(dir, ref, ids, pairs);
}

TEST(RingFuzz, MatchesReferenceModel) {
  const std::uint64_t modulus = 10000;
  RingDirectory dir(modulus);
  Reference ref(modulus);
  Rng rng(20240707);
  NodeIndex next_node = 0;

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(modulus) - 1));
    switch (rng.index(6)) {
      case 0:
      case 1: {
        const bool a = dir.insert(key, next_node);
        const bool b = ref.insert(key, next_node);
        ASSERT_EQ(a, b);
        ++next_node;
        break;
      }
      case 2: {
        if (ref.size() == 0) break;
        // Erase an existing id half the time, a random key otherwise.
        const std::uint64_t victim =
            rng.bernoulli(0.5) ? ref.any_id(rng) : key;
        ASSERT_EQ(dir.erase(victim), ref.erase(victim));
        break;
      }
      case 3: {
        if (ref.size() == 0) break;
        ASSERT_EQ(dir.successor(key), ref.successor(key));
        break;
      }
      case 4: {
        if (ref.size() == 0) break;
        ASSERT_EQ(dir.predecessor(key), ref.predecessor(key));
        break;
      }
      default: {
        if (ref.size() == 0) break;
        const std::size_t k = 1 + rng.index(5);
        ASSERT_EQ(dir.successors_of(key, k), ref.successors_of(key, k));
        break;
      }
    }
    ASSERT_EQ(dir.size(), ref.size());
  }
}

// Churn-shaped interleavings: bursts of joins, then a query storm, then a
// burst of departures, repeated — the access pattern the B-tree sees under
// the harness's churn regime, where rebalancing (splits on the way up,
// borrows and merges on the way down) is constantly exercised. The larger
// modulus forces multi-level trees; every read-only entry point is checked
// against the model between mutations.
TEST(RingFuzz, ChurnPhasesMatchReferenceModel) {
  const std::uint64_t modulus = 1 << 20;
  RingDirectory dir(modulus);
  Reference ref(modulus);
  Rng rng(20260805);
  NodeIndex next_node = 0;

  for (int phase = 0; phase < 6; ++phase) {
    // Join burst: grow well past several leaf splits.
    const int joins = 1500 + static_cast<int>(rng.index(1000));
    for (int i = 0; i < joins; ++i) {
      const std::uint64_t id = rng.bits() % modulus;
      ASSERT_EQ(dir.insert(id, next_node), ref.insert(id, next_node));
      ++next_node;
      if (rng.bernoulli(0.05)) check_random_query(dir, ref, modulus, rng);
    }
    for (int q = 0; q < 400; ++q) check_random_query(dir, ref, modulus, rng);

    // Departure burst: shrink by roughly half, hammering underflow repair.
    const std::size_t departures = ref.size() / 2;
    for (std::size_t i = 0; i < departures; ++i) {
      const std::uint64_t victim =
          rng.bernoulli(0.8) ? ref.any_id(rng) : rng.bits() % modulus;
      ASSERT_EQ(dir.erase(victim), ref.erase(victim));
      if (rng.bernoulli(0.05)) check_random_query(dir, ref, modulus, rng);
    }
    for (int q = 0; q < 400; ++q) check_random_query(dir, ref, modulus, rng);
  }

  // Drain to empty through the erase path, then rebuild once more.
  while (ref.size() > 0) {
    const std::uint64_t victim = ref.any_id(rng);
    ASSERT_EQ(dir.erase(victim), ref.erase(victim));
  }
  ASSERT_TRUE(dir.empty());
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t id = rng.bits() % modulus;
    ASSERT_EQ(dir.insert(id, next_node), ref.insert(id, next_node));
    ++next_node;
  }
  for (int q = 0; q < 200; ++q) check_random_query(dir, ref, modulus, rng);
}

// Bulk staging must be observationally identical to incremental inserts:
// same return values, exact membership mid-bulk, and the same structure
// afterwards — including when queries force a mid-bulk flush and staging
// then resumes, and when a second bulk round merges into a non-empty tree.
TEST(RingFuzz, BulkStagingMatchesIncremental) {
  const std::uint64_t modulus = 1 << 18;
  RingDirectory bulk_dir(modulus);
  RingDirectory inc_dir(modulus);
  Reference ref(modulus);
  Rng rng(77);

  for (int round = 0; round < 3; ++round) {
    bulk_dir.begin_bulk(4000);
    ASSERT_TRUE(bulk_dir.in_bulk());
    for (int i = 0; i < 4000; ++i) {
      const std::uint64_t id = rng.bits() % modulus;
      const NodeIndex n = static_cast<NodeIndex>(round * 4000 + i);
      const bool a = bulk_dir.insert(id, n);
      const bool b = inc_dir.insert(id, n);
      ASSERT_EQ(a, b);
      ref.insert(id, n);
      // Membership and size stay exact while inserts are staged.
      if (rng.bernoulli(0.01)) {
        const std::uint64_t probe = rng.bernoulli(0.5) ? id : rng.bits() % modulus;
        ASSERT_EQ(bulk_dir.contains(probe), inc_dir.contains(probe));
        ASSERT_EQ(bulk_dir.size(), inc_dir.size());
      }
      // Any ordered query mid-bulk flushes transparently; staging resumes.
      if (rng.bernoulli(0.002)) {
        const std::uint64_t key = rng.bits() % modulus;
        ASSERT_EQ(bulk_dir.successor(key), inc_dir.successor(key));
        ASSERT_TRUE(bulk_dir.in_bulk());
      }
    }
    bulk_dir.end_bulk();
    ASSERT_FALSE(bulk_dir.in_bulk());
    ASSERT_EQ(bulk_dir.ids(), inc_dir.ids());
    for (int q = 0; q < 300; ++q)
      check_random_query(bulk_dir, ref, modulus, rng);

    // Shrink between rounds so the next end_bulk merges staged inserts
    // into a non-empty tree (the inplace_merge path).
    const std::size_t departures = ref.size() / 3;
    for (std::size_t i = 0; i < departures; ++i) {
      const std::uint64_t victim = ref.any_id(rng);
      ASSERT_EQ(bulk_dir.erase(victim), inc_dir.erase(victim));
      ref.erase(victim);
    }
  }
}

// Pair scans under random inserts and erases on a small, dense ring, so
// windows wrap and k often reaches or exceeds the occupied count. Keys are
// occupied ids half the time. Bulk rounds interleave the scans with staged
// inserts, each scan forcing a mid-bulk flush.
TEST(RingFuzz, PairScansMatchIdScanPlusOwnerOf) {
  const std::uint64_t modulus = 64;
  RingDirectory dir(modulus);
  Reference ref(modulus);
  Rng rng(20261017);
  NodeIndex next_node = 0;

  const auto random_scan = [&] {
    const std::uint64_t key = ref.size() > 0 && rng.bernoulli(0.5)
                                  ? ref.any_id(rng)
                                  : rng.bits() % modulus;
    check_pair_scans(dir, ref, key, rng.index(ref.size() + 3));
  };
  for (int round = 0; round < 40; ++round) {
    const bool bulk = round % 2 == 1;
    if (bulk) dir.begin_bulk();
    const int ops = 1 + static_cast<int>(rng.index(40));
    for (int op = 0; op < ops; ++op) {
      if (!bulk && ref.size() > 0 && rng.bernoulli(0.4)) {
        const std::uint64_t victim =
            rng.bernoulli(0.8) ? ref.any_id(rng) : rng.bits() % modulus;
        ASSERT_EQ(dir.erase(victim), ref.erase(victim));
      } else {
        const std::uint64_t id = rng.bits() % modulus;
        ASSERT_EQ(dir.insert(id, next_node), ref.insert(id, next_node));
        ++next_node;
      }
      if (rng.bernoulli(0.3)) random_scan();
      if (bulk) {
        ASSERT_TRUE(dir.in_bulk());
      }
    }
    if (bulk) dir.end_bulk();
    for (int q = 0; q < 20; ++q) random_scan();
    // Every id as key, with k at, below and beyond the occupied count.
    for (const std::uint64_t id : ref.ids())
      for (const std::size_t k : {ref.size() - 1, ref.size(), ref.size() + 5})
        check_pair_scans(dir, ref, id, k);
  }
  // The empty directory yields empty windows.
  while (ref.size() > 0) {
    const std::uint64_t victim = ref.any_id(rng);
    ASSERT_EQ(dir.erase(victim), ref.erase(victim));
  }
  check_pair_scans(dir, ref, 7, 3);
}

TEST(RingFuzz, PositionDistanceSymmetricAndBounded) {
  RingDirectory dir(100000);
  Rng rng(7);
  for (int i = 0; i < 500; ++i)
    dir.insert(static_cast<std::uint64_t>(rng.uniform_int(0, 99999)), i);
  for (int t = 0; t < 2000; ++t) {
    const std::uint64_t a = dir.ids()[rng.index(dir.size())];
    const std::uint64_t b = dir.ids()[rng.index(dir.size())];
    const std::size_t d1 = dir.position_distance(a, b);
    const std::size_t d2 = dir.position_distance(b, a);
    ASSERT_EQ(d1, d2);
    ASSERT_LE(d1, dir.size() / 2);
  }
}

TEST(RingFuzz, StepTowardAlwaysReducesPositionDistance) {
  RingDirectory dir(100000);
  Rng rng(8);
  for (int i = 0; i < 300; ++i)
    dir.insert(static_cast<std::uint64_t>(rng.uniform_int(0, 99999)), i);
  for (int t = 0; t < 1000; ++t) {
    const std::uint64_t a = dir.ids()[rng.index(dir.size())];
    const std::uint64_t b = dir.ids()[rng.index(dir.size())];
    if (a == b) continue;
    const std::uint64_t next = dir.step_toward(a, b);
    ASSERT_EQ(dir.position_distance(next, b), dir.position_distance(a, b) - 1);
  }
}

// Hinted successor windows against fresh ones, on the key runs Chord's
// build issues: one node's finger starts id + 2^m - 1, ascending with m
// until they wrap. The directory grows from empty to ~3000 ids (a
// two-level tree) under random inserts and erases, every other round
// staged in bulk mode so the first search of a run flushes the batch. A
// hint lives for one run, except in the last check of each round, which
// reuses one across a mutation: the directory must ignore it there, not
// follow it into a changed tree.
TEST(RingFuzz, HintedWindowsMatchFresh) {
  const int bits = 16;
  const std::uint64_t modulus = std::uint64_t{1} << bits;
  RingDirectory dir(modulus);
  Reference ref(modulus);
  Rng rng(20261019);
  NodeIndex next_node = 0;
  std::vector<IdOwner> hinted, fresh;

  const auto check = [&](std::uint64_t key, std::size_t k,
                         RingDirectory::SearchHint& hint) {
    dir.successors_of(key, k, hinted, hint);
    dir.successors_of(key, k, fresh);
    ASSERT_EQ(hinted, fresh) << "successors of " << key << " k " << k;
    std::vector<std::uint64_t> ids;
    for (const auto& [id, owner] : hinted) {
      ids.push_back(id);
      ASSERT_EQ(ref.owner_of(id), std::optional<NodeIndex>(owner));
    }
    ASSERT_EQ(ids, ref.successors_of(key, k));
  };

  for (int round = 0; round < 60; ++round) {
    const bool bulk = round % 2 == 1;
    if (bulk) dir.begin_bulk();
    const int ops = 1 + static_cast<int>(rng.index(round < 30 ? 200 : 60));
    for (int op = 0; op < ops; ++op) {
      if (!bulk && ref.size() > 0 && rng.bernoulli(0.3)) {
        const std::uint64_t victim = ref.any_id(rng);
        ASSERT_EQ(dir.erase(victim), ref.erase(victim));
      } else {
        const std::uint64_t id = rng.bits() % modulus;
        ASSERT_EQ(dir.insert(id, next_node), ref.insert(id, next_node));
        ++next_node;
      }
    }
    for (int q = 0; q < 8; ++q) {
      const std::uint64_t id = ref.size() > 0 && rng.bernoulli(0.5)
                                   ? ref.any_id(rng)
                                   : rng.bits() % modulus;
      const std::size_t k = 1 + rng.index(6);
      RingDirectory::SearchHint hint;
      for (int m = 0; m < bits; ++m)
        check((id + (std::uint64_t{1} << m) - 1) % modulus, k, hint);
    }
    if (bulk) dir.end_bulk();
    // A hint taken before a mutation is ignored after it: one erase, or a
    // staged batch whose flush rebuilds the tree and frees every leaf the
    // hint could point into (a sanitizer build reports a followed hint).
    RingDirectory::SearchHint stale;
    const std::uint64_t key = rng.bits() % modulus;
    check(key, 3, stale);
    if (ref.size() > 0 && rng.bernoulli(0.5)) {
      const std::uint64_t victim = ref.any_id(rng);
      ASSERT_EQ(dir.erase(victim), ref.erase(victim));
    } else {
      dir.begin_bulk();
      for (int j = 0; j < 3; ++j) {
        const std::uint64_t id = rng.bits() % modulus;
        ASSERT_EQ(dir.insert(id, next_node), ref.insert(id, next_node));
        ++next_node;
      }
      dir.end_bulk();
    }
    check((key + 1) % modulus, 3, stale);
  }
  ASSERT_GT(ref.size(), 2000u);
}

}  // namespace
}  // namespace ert::dht
