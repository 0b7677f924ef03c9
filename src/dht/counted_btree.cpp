#include "dht/counted_btree.h"

#include <algorithm>
#include <cassert>

namespace ert::dht {

CountedBTree::CountedBTree() {
  Leaf* l = new Leaf;
  root_ = l;
  head_ = tail_ = l;
}

CountedBTree::~CountedBTree() {
  if (root_) destroy_rec(root_, height_);
}

CountedBTree::CountedBTree(const CountedBTree& other) : CountedBTree() {
  std::vector<std::pair<std::uint64_t, NodeIndex>> pairs;
  other.materialize(pairs);
  build_from_sorted(pairs);
}

CountedBTree& CountedBTree::operator=(const CountedBTree& other) {
  if (this == &other) return *this;
  std::vector<std::pair<std::uint64_t, NodeIndex>> pairs;
  other.materialize(pairs);
  build_from_sorted(pairs);
  return *this;
}

CountedBTree::CountedBTree(CountedBTree&& other) noexcept {
  steal(std::move(other));
}

CountedBTree& CountedBTree::operator=(CountedBTree&& other) noexcept {
  if (this == &other) return *this;
  if (root_) destroy_rec(root_, height_);
  steal(std::move(other));
  return *this;
}

void CountedBTree::steal(CountedBTree&& other) {
  root_ = other.root_;
  height_ = other.height_;
  size_ = other.size_;
  head_ = other.head_;
  tail_ = other.tail_;
  Leaf* l = new Leaf;
  other.root_ = l;
  other.head_ = other.tail_ = l;
  other.height_ = 0;
  other.size_ = 0;
}

void CountedBTree::destroy_rec(void* node, int level) {
  if (level == 0) {
    delete static_cast<Leaf*>(node);
    return;
  }
  Inner* n = static_cast<Inner*>(node);
  for (int i = 0; i < n->count; ++i) destroy_rec(n->child[i], level - 1);
  delete n;
}

void CountedBTree::clear() {
  destroy_rec(root_, height_);
  Leaf* l = new Leaf;
  root_ = l;
  head_ = tail_ = l;
  height_ = 0;
  size_ = 0;
}

std::size_t CountedBTree::child_size(const void* child, int level) const {
  return level == 0 ? static_cast<std::size_t>(
                          static_cast<const Leaf*>(child)->count)
                    : static_cast<const Inner*>(child)->total;
}

std::uint64_t CountedBTree::child_max(const void* child, int level) const {
  if (level == 0) {
    const Leaf* l = static_cast<const Leaf*>(child);
    assert(l->count > 0);
    return l->keys[l->count - 1];
  }
  const Inner* n = static_cast<const Inner*>(child);
  assert(n->count > 0);
  return n->tmax[n->count - 1];
}

int CountedBTree::child_count(const void* child, int level) const {
  return level == 0 ? static_cast<const Leaf*>(child)->count
                    : static_cast<const Inner*>(child)->count;
}

// --- queries ---------------------------------------------------------------

CountedBTree::Locate CountedBTree::lower_bound(std::uint64_t key) const {
  if (size_ == 0) return {Cursor{}, 0};
  const void* node = root_;
  std::size_t rank = 0;
  for (int level = height_; level > 0; --level) {
    const Inner* n = static_cast<const Inner*>(node);
    int i = 0;
    while (i < n->count && n->tmax[i] < key) rank += n->tsize[i++];
    if (i == n->count) return {Cursor{}, size_};  // key beyond every id
    node = n->child[i];
  }
  const Leaf* l = static_cast<const Leaf*>(node);
  const int idx = static_cast<int>(
      std::lower_bound(l->keys, l->keys + l->count, key) - l->keys);
  if (idx == l->count) return {Cursor{}, size_};  // only at a root leaf
  return {Cursor{l, idx}, rank + static_cast<std::size_t>(idx)};
}

CountedBTree::Cursor CountedBTree::lower_bound_from(Cursor hint,
                                                    std::uint64_t key) const {
  const Leaf* l = hint.leaf;
  // No earlier leaf can hold the answer when l is the head or starts at or
  // below key; then it is in l, in l->next, or past the tail.
  if (l && (!l->prev || l->keys[0] <= key)) {
    for (int step = 0; step < 2; ++step, l = l->next) {
      if (!l) return Cursor{};  // key beyond every id
      if (key <= l->keys[l->count - 1]) {
        const std::uint64_t* at =
            std::lower_bound(l->keys, l->keys + l->count, key);
        return Cursor{l, static_cast<int>(at - l->keys)};
      }
    }
  }
  return lower_bound(key).cur;
}

CountedBTree::Cursor CountedBTree::select(std::size_t rank) const {
  assert(rank < size_);
  const void* node = root_;
  for (int level = height_; level > 0; --level) {
    const Inner* n = static_cast<const Inner*>(node);
    int i = 0;
    while (rank >= n->tsize[i]) {
      rank -= n->tsize[i];
      ++i;
      assert(i < n->count);
    }
    node = n->child[i];
  }
  return Cursor{static_cast<const Leaf*>(node), static_cast<int>(rank)};
}

bool CountedBTree::contains(std::uint64_t key) const {
  return find(key) != nullptr;
}

const NodeIndex* CountedBTree::find(std::uint64_t key) const {
  const Locate loc = lower_bound(key);
  if (valid(loc.cur) && loc.cur.leaf->keys[loc.cur.idx] == key)
    return &loc.cur.leaf->vals[loc.cur.idx];
  return nullptr;
}

CountedBTree::Cursor CountedBTree::first() const {
  if (size_ == 0) return Cursor{};
  return Cursor{head_, 0};
}

CountedBTree::Cursor CountedBTree::last() const {
  if (size_ == 0) return Cursor{};
  return Cursor{tail_, tail_->count - 1};
}

CountedBTree::Cursor CountedBTree::next(Cursor c) {
  assert(valid(c));
  if (c.idx + 1 < c.leaf->count) return Cursor{c.leaf, c.idx + 1};
  return Cursor{c.leaf->next, 0};
}

CountedBTree::Cursor CountedBTree::prev(Cursor c) {
  assert(valid(c));
  if (c.idx > 0) return Cursor{c.leaf, c.idx - 1};
  const Leaf* p = c.leaf->prev;
  if (!p) return Cursor{};
  return Cursor{p, p->count - 1};
}

void CountedBTree::materialize(
    std::vector<std::pair<std::uint64_t, NodeIndex>>& out) const {
  out.reserve(out.size() + size_);
  for (const Leaf* l = size_ ? head_ : nullptr; l; l = l->next)
    for (int i = 0; i < l->count; ++i) out.emplace_back(l->keys[i], l->vals[i]);
}

// --- insert ----------------------------------------------------------------

void* CountedBTree::insert_rec(void* node, int level, std::uint64_t key,
                               NodeIndex val, bool& inserted) {
  if (level == 0) {
    Leaf* l = static_cast<Leaf*>(node);
    int idx = static_cast<int>(
        std::lower_bound(l->keys, l->keys + l->count, key) - l->keys);
    if (idx < l->count && l->keys[idx] == key) {
      inserted = false;
      return nullptr;
    }
    inserted = true;
    if (l->count < kLeafCap) {
      for (int j = l->count; j > idx; --j) {
        l->keys[j] = l->keys[j - 1];
        l->vals[j] = l->vals[j - 1];
      }
      l->keys[idx] = key;
      l->vals[idx] = val;
      ++l->count;
      return nullptr;
    }
    // Split: upper half moves to a fresh right sibling, then the new pair
    // lands in whichever half the insertion point fell into.
    Leaf* r = new Leaf;
    constexpr int keep = kLeafCap / 2;
    r->count = kLeafCap - keep;
    for (int j = 0; j < r->count; ++j) {
      r->keys[j] = l->keys[keep + j];
      r->vals[j] = l->vals[keep + j];
    }
    l->count = keep;
    r->next = l->next;
    r->prev = l;
    if (l->next)
      l->next->prev = r;
    else
      tail_ = r;
    l->next = r;
    Leaf* dst = l;
    if (idx > keep) {
      dst = r;
      idx -= keep;
    }
    for (int j = dst->count; j > idx; --j) {
      dst->keys[j] = dst->keys[j - 1];
      dst->vals[j] = dst->vals[j - 1];
    }
    dst->keys[idx] = key;
    dst->vals[idx] = val;
    ++dst->count;
    return r;
  }

  Inner* n = static_cast<Inner*>(node);
  int i = 0;
  while (i < n->count && n->tmax[i] < key) ++i;
  if (i == n->count) i = n->count - 1;  // extend the rightmost subtree
  void* split = insert_rec(n->child[i], level - 1, key, val, inserted);
  if (!inserted) return nullptr;
  const std::size_t old = n->tsize[i];
  n->tsize[i] = child_size(n->child[i], level - 1);
  n->tmax[i] = child_max(n->child[i], level - 1);
  n->total = n->total - old + n->tsize[i];
  if (!split) return nullptr;
  const std::size_t ssz = child_size(split, level - 1);
  const std::uint64_t smx = child_max(split, level - 1);
  if (n->count < kInnerCap) {
    for (int j = n->count; j > i + 1; --j) {
      n->child[j] = n->child[j - 1];
      n->tsize[j] = n->tsize[j - 1];
      n->tmax[j] = n->tmax[j - 1];
    }
    n->child[i + 1] = split;
    n->tsize[i + 1] = ssz;
    n->tmax[i + 1] = smx;
    ++n->count;
    n->total += ssz;
    return nullptr;
  }
  // Split this interior node: lay out the kInnerCap + 1 logical entries and
  // distribute them across the old node and a fresh right sibling.
  void* ch[kInnerCap + 1];
  std::size_t ts[kInnerCap + 1];
  std::uint64_t tm[kInnerCap + 1];
  for (int j = 0; j <= i; ++j) {
    ch[j] = n->child[j];
    ts[j] = n->tsize[j];
    tm[j] = n->tmax[j];
  }
  ch[i + 1] = split;
  ts[i + 1] = ssz;
  tm[i + 1] = smx;
  for (int j = i + 1; j < n->count; ++j) {
    ch[j + 1] = n->child[j];
    ts[j + 1] = n->tsize[j];
    tm[j + 1] = n->tmax[j];
  }
  constexpr int entries = kInnerCap + 1;
  constexpr int keep = (entries + 1) / 2;
  Inner* r = new Inner;
  n->count = keep;
  n->total = 0;
  for (int j = 0; j < keep; ++j) {
    n->child[j] = ch[j];
    n->tsize[j] = ts[j];
    n->tmax[j] = tm[j];
    n->total += ts[j];
  }
  r->count = entries - keep;
  r->total = 0;
  for (int j = 0; j < r->count; ++j) {
    r->child[j] = ch[keep + j];
    r->tsize[j] = ts[keep + j];
    r->tmax[j] = tm[keep + j];
    r->total += ts[keep + j];
  }
  return r;
}

bool CountedBTree::insert(std::uint64_t key, NodeIndex val) {
  bool inserted = false;
  void* split = insert_rec(root_, height_, key, val, inserted);
  if (!inserted) return false;
  ++size_;
  if (split) {
    Inner* nr = new Inner;
    nr->count = 2;
    nr->child[0] = root_;
    nr->tsize[0] = child_size(root_, height_);
    nr->tmax[0] = child_max(root_, height_);
    nr->child[1] = split;
    nr->tsize[1] = child_size(split, height_);
    nr->tmax[1] = child_max(split, height_);
    nr->total = nr->tsize[0] + nr->tsize[1];
    root_ = nr;
    ++height_;
  }
  return true;
}

// --- erase -----------------------------------------------------------------

void CountedBTree::fix_underflow(Inner* p, int i, int level) {
  const int clevel = level - 1;
  // p->count >= 2 whenever a child underflows: non-root interior nodes keep
  // >= kInnerMin children and a root with one child is collapsed after the
  // erase, so a sibling always exists.
  assert(p->count >= 2);
  if (clevel == 0) {
    Leaf* c = static_cast<Leaf*>(p->child[i]);
    Leaf* lsib = i > 0 ? static_cast<Leaf*>(p->child[i - 1]) : nullptr;
    Leaf* rsib = i + 1 < p->count ? static_cast<Leaf*>(p->child[i + 1])
                                  : nullptr;
    if (lsib && lsib->count > kLeafMin) {
      for (int j = c->count; j > 0; --j) {
        c->keys[j] = c->keys[j - 1];
        c->vals[j] = c->vals[j - 1];
      }
      c->keys[0] = lsib->keys[lsib->count - 1];
      c->vals[0] = lsib->vals[lsib->count - 1];
      ++c->count;
      --lsib->count;
      --p->tsize[i - 1];
      ++p->tsize[i];
      p->tmax[i - 1] = lsib->keys[lsib->count - 1];
      return;
    }
    if (rsib && rsib->count > kLeafMin) {
      c->keys[c->count] = rsib->keys[0];
      c->vals[c->count] = rsib->vals[0];
      ++c->count;
      for (int j = 0; j + 1 < rsib->count; ++j) {
        rsib->keys[j] = rsib->keys[j + 1];
        rsib->vals[j] = rsib->vals[j + 1];
      }
      --rsib->count;
      ++p->tsize[i];
      --p->tsize[i + 1];
      p->tmax[i] = c->keys[c->count - 1];
      return;
    }
    // Merge with a sibling; both halves fit since caps are twice the minima.
    Leaf* dst = lsib ? lsib : c;
    Leaf* src = lsib ? c : rsib;
    const int slot = lsib ? i : i + 1;  // parent entry that disappears
    for (int j = 0; j < src->count; ++j) {
      dst->keys[dst->count + j] = src->keys[j];
      dst->vals[dst->count + j] = src->vals[j];
    }
    dst->count += src->count;
    dst->next = src->next;
    if (src->next)
      src->next->prev = dst;
    else
      tail_ = dst;
    p->tsize[slot - 1] += p->tsize[slot];
    p->tmax[slot - 1] = p->tmax[slot];
    for (int j = slot; j + 1 < p->count; ++j) {
      p->child[j] = p->child[j + 1];
      p->tsize[j] = p->tsize[j + 1];
      p->tmax[j] = p->tmax[j + 1];
    }
    --p->count;
    delete src;
    return;
  }

  Inner* c = static_cast<Inner*>(p->child[i]);
  Inner* lsib = i > 0 ? static_cast<Inner*>(p->child[i - 1]) : nullptr;
  Inner* rsib =
      i + 1 < p->count ? static_cast<Inner*>(p->child[i + 1]) : nullptr;
  if (lsib && lsib->count > kInnerMin) {
    for (int j = c->count; j > 0; --j) {
      c->child[j] = c->child[j - 1];
      c->tsize[j] = c->tsize[j - 1];
      c->tmax[j] = c->tmax[j - 1];
    }
    const int m = lsib->count - 1;
    c->child[0] = lsib->child[m];
    c->tsize[0] = lsib->tsize[m];
    c->tmax[0] = lsib->tmax[m];
    ++c->count;
    --lsib->count;
    const std::size_t moved = c->tsize[0];
    c->total += moved;
    lsib->total -= moved;
    p->tsize[i - 1] -= moved;
    p->tsize[i] += moved;
    p->tmax[i - 1] = lsib->tmax[lsib->count - 1];
    return;
  }
  if (rsib && rsib->count > kInnerMin) {
    c->child[c->count] = rsib->child[0];
    c->tsize[c->count] = rsib->tsize[0];
    c->tmax[c->count] = rsib->tmax[0];
    ++c->count;
    const std::size_t moved = rsib->tsize[0];
    for (int j = 0; j + 1 < rsib->count; ++j) {
      rsib->child[j] = rsib->child[j + 1];
      rsib->tsize[j] = rsib->tsize[j + 1];
      rsib->tmax[j] = rsib->tmax[j + 1];
    }
    --rsib->count;
    c->total += moved;
    rsib->total -= moved;
    p->tsize[i] += moved;
    p->tsize[i + 1] -= moved;
    p->tmax[i] = c->tmax[c->count - 1];
    return;
  }
  Inner* dst = lsib ? lsib : c;
  Inner* src = lsib ? c : rsib;
  const int slot = lsib ? i : i + 1;
  for (int j = 0; j < src->count; ++j) {
    dst->child[dst->count + j] = src->child[j];
    dst->tsize[dst->count + j] = src->tsize[j];
    dst->tmax[dst->count + j] = src->tmax[j];
  }
  dst->count += src->count;
  dst->total += src->total;
  p->tsize[slot - 1] += p->tsize[slot];
  p->tmax[slot - 1] = p->tmax[slot];
  for (int j = slot; j + 1 < p->count; ++j) {
    p->child[j] = p->child[j + 1];
    p->tsize[j] = p->tsize[j + 1];
    p->tmax[j] = p->tmax[j + 1];
  }
  --p->count;
  delete src;
}

bool CountedBTree::erase_rec(void* node, int level, std::uint64_t key) {
  if (level == 0) {
    Leaf* l = static_cast<Leaf*>(node);
    const int idx = static_cast<int>(
        std::lower_bound(l->keys, l->keys + l->count, key) - l->keys);
    if (idx >= l->count || l->keys[idx] != key) return false;
    for (int j = idx; j + 1 < l->count; ++j) {
      l->keys[j] = l->keys[j + 1];
      l->vals[j] = l->vals[j + 1];
    }
    --l->count;
    return true;
  }
  Inner* n = static_cast<Inner*>(node);
  int i = 0;
  while (i < n->count && n->tmax[i] < key) ++i;
  if (i == n->count) return false;
  if (!erase_rec(n->child[i], level - 1, key)) return false;
  --n->total;
  --n->tsize[i];
  n->tmax[i] = child_max(n->child[i], level - 1);
  const int minc = level - 1 == 0 ? kLeafMin : kInnerMin;
  if (child_count(n->child[i], level - 1) < minc) fix_underflow(n, i, level);
  return true;
}

bool CountedBTree::erase(std::uint64_t key) {
  if (!erase_rec(root_, height_, key)) return false;
  --size_;
  while (height_ > 0) {
    Inner* r = static_cast<Inner*>(root_);
    if (r->count > 1) break;
    root_ = r->child[0];
    delete r;
    --height_;
  }
  return true;
}

// --- bulk build ------------------------------------------------------------

void CountedBTree::build_from_sorted(
    const std::vector<std::pair<std::uint64_t, NodeIndex>>& pairs) {
  destroy_rec(root_, height_);
  root_ = nullptr;
  head_ = tail_ = nullptr;
  height_ = 0;
  size_ = pairs.size();
  const std::size_t n = pairs.size();
  if (n == 0) {
    Leaf* l = new Leaf;
    root_ = l;
    head_ = tail_ = l;
    return;
  }
  // Pack leaves full left to right; when the tail would fall below the
  // minimum fill, rebalance it against its left neighbor.
  const std::size_t nleaves =
      (n + static_cast<std::size_t>(kLeafCap) - 1) / kLeafCap;
  const std::size_t rem = n - (nleaves - 1) * static_cast<std::size_t>(kLeafCap);
  auto leaf_count = [&](std::size_t li) -> std::size_t {
    if (nleaves == 1) return n;
    if (rem >= static_cast<std::size_t>(kLeafMin))
      return li == nleaves - 1 ? rem : static_cast<std::size_t>(kLeafCap);
    if (li == nleaves - 1) return kLeafMin;
    if (li == nleaves - 2) return kLeafCap - (kLeafMin - rem);
    return kLeafCap;
  };
  std::vector<void*> level_nodes;
  level_nodes.reserve(nleaves);
  std::size_t off = 0;
  Leaf* prev = nullptr;
  for (std::size_t li = 0; li < nleaves; ++li) {
    Leaf* l = new Leaf;
    const std::size_t cnt = leaf_count(li);
    for (std::size_t j = 0; j < cnt; ++j) {
      l->keys[j] = pairs[off + j].first;
      l->vals[j] = pairs[off + j].second;
    }
    l->count = static_cast<int>(cnt);
    off += cnt;
    l->prev = prev;
    if (prev)
      prev->next = l;
    else
      head_ = l;
    prev = l;
    level_nodes.push_back(l);
  }
  tail_ = prev;
  assert(off == n);
  // Stack interior levels until one node remains.
  int level = 0;
  while (level_nodes.size() > 1) {
    const std::size_t m = level_nodes.size();
    const std::size_t ninner =
        (m + static_cast<std::size_t>(kInnerCap) - 1) / kInnerCap;
    const std::size_t irem =
        m - (ninner - 1) * static_cast<std::size_t>(kInnerCap);
    auto inner_count = [&](std::size_t ii) -> std::size_t {
      if (ninner == 1) return m;
      if (irem >= static_cast<std::size_t>(kInnerMin))
        return ii == ninner - 1 ? irem : static_cast<std::size_t>(kInnerCap);
      if (ii == ninner - 1) return kInnerMin;
      if (ii == ninner - 2) return kInnerCap - (kInnerMin - irem);
      return kInnerCap;
    };
    std::vector<void*> up;
    up.reserve(ninner);
    std::size_t coff = 0;
    for (std::size_t ii = 0; ii < ninner; ++ii) {
      Inner* node = new Inner;
      const std::size_t cnt = inner_count(ii);
      node->count = static_cast<int>(cnt);
      node->total = 0;
      for (std::size_t j = 0; j < cnt; ++j) {
        void* child = level_nodes[coff + j];
        node->child[j] = child;
        node->tsize[j] = child_size(child, level);
        node->tmax[j] = child_max(child, level);
        node->total += node->tsize[j];
      }
      coff += cnt;
      up.push_back(node);
    }
    assert(coff == m);
    level_nodes.swap(up);
    ++level;
  }
  root_ = level_nodes[0];
  height_ = level;
}

// --- structural audit ------------------------------------------------------

bool CountedBTree::check_rec(const void* node, int level, bool is_root,
                             std::size_t& out_size, std::uint64_t& out_max,
                             const Leaf*& chain) const {
  if (level == 0) {
    const Leaf* l = static_cast<const Leaf*>(node);
    if (l != chain) return false;
    chain = l->next;
    if (!is_root && (l->count < kLeafMin || l->count > kLeafCap)) return false;
    if (is_root && (l->count < 0 || l->count > kLeafCap)) return false;
    for (int j = 1; j < l->count; ++j)
      if (l->keys[j - 1] >= l->keys[j]) return false;
    out_size = static_cast<std::size_t>(l->count);
    out_max = l->count > 0 ? l->keys[l->count - 1] : 0;
    return true;
  }
  const Inner* n = static_cast<const Inner*>(node);
  const int minc = is_root ? 2 : kInnerMin;
  if (n->count < minc || n->count > kInnerCap) return false;
  std::size_t total = 0;
  for (int j = 0; j < n->count; ++j) {
    std::size_t csz = 0;
    std::uint64_t cmx = 0;
    if (!check_rec(n->child[j], level - 1, false, csz, cmx, chain))
      return false;
    if (csz != n->tsize[j] || cmx != n->tmax[j]) return false;
    if (j > 0 && n->tmax[j - 1] >= n->tmax[j]) return false;
    total += csz;
  }
  if (total != n->total) return false;
  out_size = total;
  out_max = n->tmax[n->count - 1];
  return true;
}

bool CountedBTree::check_structure() const {
  if (!root_) return false;
  if (size_ == 0)
    return height_ == 0 && head_ == root_ && tail_ == root_ &&
           static_cast<const Leaf*>(root_)->count == 0;
  const Leaf* chain = head_;
  std::size_t sz = 0;
  std::uint64_t mx = 0;
  if (!check_rec(root_, height_, true, sz, mx, chain)) return false;
  if (sz != size_) return false;
  if (chain != nullptr) return false;  // every leaf visited, tail->next null
  if (head_->prev != nullptr || tail_->next != nullptr) return false;
  return true;
}

}  // namespace ert::dht
