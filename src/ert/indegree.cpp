#include "ert/indegree.h"

#include <algorithm>
#include <cmath>

namespace ert::core {

int IndegreeBudget::initial_target() const {
  return std::max(1, static_cast<int>(std::lround(
                         beta_ * static_cast<double>(max_))));
}

void IndegreeBudget::lower_bound_by(int k) { max_ = std::max(1, max_ - k); }

bool BackwardFingerList::add(FingerPool& pool, BackwardFinger f) {
  if (contains(pool, f.node)) return false;
  pool.push(ref_, f);
  return true;
}

bool BackwardFingerList::remove(FingerPool& pool, dht::NodeIndex n) {
  const auto fingers = pool.view(ref_);
  for (std::uint32_t i = 0; i < fingers.size(); ++i) {
    if (fingers[i].node == n) {
      pool.erase_at(ref_, i);
      return true;
    }
  }
  return false;
}

bool BackwardFingerList::contains(const FingerPool& pool,
                                  dht::NodeIndex n) const {
  for (const BackwardFinger& f : pool.view(ref_))
    if (f.node == n) return true;
  return false;
}

namespace {

/// Eviction order: longest logical distance first, ties by longest physical
/// distance.
constexpr auto evicts_before = [](const BackwardFinger& a,
                                  const BackwardFinger& b) {
  if (a.logical_distance != b.logical_distance)
    return a.logical_distance > b.logical_distance;
  return a.physical_distance > b.physical_distance;
};

}  // namespace

void BackwardFingerList::pick_evictions(const FingerPool& pool, std::size_t k,
                                        std::vector<BackwardFinger>& scratch,
                                        std::vector<dht::NodeIndex>& out) const {
  const auto fingers = pool.view(ref_);
  k = std::min<std::size_t>(k, fingers.size());
  out.clear();
  if (k == 0) return;
  // Shedding asks for one or two victims from lists of dozens, so select
  // the top k instead of sorting every finger. The selection is accepted
  // only when it is unique: chosen keys pairwise strictly ordered and the
  // k-th strictly ahead of every other key. Then any correct sort puts the
  // same k fingers first in the same order. On a tie the unstable
  // std::sort's pick depends on pool order, so it runs as before on a
  // fresh copy.
  scratch.assign(fingers.begin(), fingers.end());
  const auto kth = scratch.begin() + static_cast<std::ptrdiff_t>(k);
  std::partial_sort(scratch.begin(), kth, scratch.end(), evicts_before);
  bool unique = true;
  for (auto it = scratch.begin() + 1; unique && it != kth; ++it)
    unique = evicts_before(*(it - 1), *it);
  for (auto it = kth; unique && it != scratch.end(); ++it)
    unique = evicts_before(*(kth - 1), *it);
  if (unique) {
    for (auto it = scratch.begin(); it != kth; ++it) out.push_back(it->node);
    return;
  }
  scratch.assign(fingers.begin(), fingers.end());
  std::sort(scratch.begin(), scratch.end(), evicts_before);
  for (std::size_t j = 0; j < k; ++j) out.push_back(scratch[j].node);
}

}  // namespace ert::core
