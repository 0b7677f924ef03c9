#include "chord/overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace ert::chord {
namespace {

using dht::NodeIndex;

Overlay make(std::size_t n, std::uint64_t seed = 1,
             bool bounds = false, int max_indegree = 1 << 20) {
  ChordOptions opts;
  opts.bits = 16;
  opts.enforce_indegree_bounds = bounds;
  Overlay o(opts);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i)
    o.add_node_random(rng, 1.0, max_indegree, 0.8);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i);
  return o;
}

NodeIndex route(const Overlay& o, NodeIndex src, std::uint64_t key,
                std::size_t max_hops, std::size_t* hops_out = nullptr) {
  NodeIndex cur = src;
  std::size_t hops = 0;
  while (hops < max_hops) {
    const RouteStep step = o.route_step(cur, key);
    if (step.arrived) {
      if (hops_out) *hops_out = hops;
      return cur;
    }
    EXPECT_FALSE(step.candidates.empty());
    cur = step.candidates.front();
    ++hops;
  }
  return dht::kNoNode;
}

TEST(Chord, BuildPopulatesFingersAndSuccessors) {
  Overlay o = make(200);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    EXPECT_FALSE(o.node(i).table.entry(o.successor_entry()).empty());
    // At least the high fingers must exist (distinct from successors).
    std::size_t fingers = 0;
    for (int m = 0; m < o.bits(); ++m)
      fingers += o.node(i).table.entry(static_cast<std::size_t>(m)).size();
    EXPECT_GT(fingers, 4u);
  }
  o.check_invariants();
}

TEST(Chord, LookupsArriveLogarithmically) {
  Overlay o = make(500);
  Rng rng(2);
  std::size_t total_hops = 0;
  const int lookups = 300;
  for (int t = 0; t < lookups; ++t) {
    const NodeIndex src = rng.index(o.num_slots());
    const std::uint64_t key = rng.bits() % o.ring_size();
    std::size_t hops = 0;
    ASSERT_EQ(route(o, src, key, 64, &hops), o.responsible(key));
    total_hops += hops;
  }
  // O(log n): ~log2(500) = 9; allow generous slack.
  EXPECT_LT(static_cast<double>(total_hops) / lookups, 14.0);
}

TEST(Chord, ResponsibleIsSuccessor) {
  Overlay o = make(100, 3);
  const auto& ids = o.directory().ids();
  // Key exactly at an occupied id maps to that node.
  for (std::uint64_t id : ids)
    EXPECT_EQ(o.node(o.responsible(id)).id, id);
  // Key one past an id maps to the next.
  EXPECT_EQ(o.node(o.responsible(ids[0] + 1)).id,
            ids.size() > 1 ? ids[1] : ids[0]);
}

TEST(Chord, LooseFingerEligibility) {
  Overlay o = make(300, 4);
  // For a random node and finger level, eligibility holds exactly for the
  // spread-window successors of id + 2^m.
  const NodeIndex i = 17;
  const int m = 10;
  const std::uint64_t start = (o.node(i).id + (1u << m)) & (o.ring_size() - 1);
  const auto window = o.directory().successors_of(
      start == 0 ? o.ring_size() - 1 : start - 1, 4);
  for (std::uint64_t id : window) {
    EXPECT_TRUE(o.eligible(i, static_cast<std::size_t>(m),
                           *o.directory().owner_of(id)));
  }
}

TEST(Chord, ExpansionRaisesIndegree) {
  Overlay o = make(300, 5, true, 64);
  const NodeIndex i = 42;
  const int before = o.node(i).budget.indegree();
  const int gained = o.expand_indegree(i, 6, 256);
  EXPECT_GT(gained, 0);
  EXPECT_EQ(o.node(i).budget.indegree(), before + gained);
  o.check_invariants();
}

TEST(Chord, ExpansionStopsAtBudget) {
  Overlay o = make(300, 6, true, 1 << 20);
  const NodeIndex i = 10;
  auto& n = o.mutable_node(i);
  n.budget.lower_bound_by((1 << 20));  // clamps to 1... then raise to d+2
  n.budget.raise_bound_by(n.budget.indegree() + 2 - n.budget.max_indegree());
  const int gained = o.expand_indegree(i, 100, 1024);
  EXPECT_LE(gained, 2);
}

TEST(Chord, ShedIndegree) {
  Overlay o = make(300, 7);
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (o.node(i).inlinks.size() >= 4) {
      const auto before = o.node(i).inlinks.size();
      const int shed = o.shed_indegree(i, 2);
      EXPECT_EQ(shed, 2);
      EXPECT_EQ(o.node(i).inlinks.size(), before - 2);
      o.check_invariants();
      return;
    }
  }
  FAIL();
}

TEST(Chord, GracefulLeaveKeepsRouting) {
  Overlay o = make(200, 8);
  Rng rng(9);
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      NodeIndex v = rng.index(o.num_slots());
      if (o.node(v).alive && o.alive_count() > 20) o.leave_graceful(v);
    }
    for (int t = 0; t < 50; ++t) {
      NodeIndex src = rng.index(o.num_slots());
      while (!o.node(src).alive) src = rng.index(o.num_slots());
      const std::uint64_t key = rng.bits() % o.ring_size();
      ASSERT_EQ(route(o, src, key, 300), o.responsible(key));
    }
  }
}

TEST(Chord, RouteNeverOvershoots) {
  // Every hop must land clockwise-closer to the owner: verify the invariant
  // the greedy routing relies on.
  Overlay o = make(400, 10);
  Rng rng(11);
  for (int t = 0; t < 200; ++t) {
    NodeIndex cur = rng.index(o.num_slots());
    const std::uint64_t key = rng.bits() % o.ring_size();
    const NodeIndex owner = o.responsible(key);
    const std::uint64_t target = o.node(owner).id;
    std::size_t guard = 0;
    while (cur != owner) {
      const auto step = o.route_step(cur, key);
      if (step.arrived) break;
      const std::uint64_t before =
          dht::clockwise(o.node(cur).id, target, o.ring_size());
      cur = step.candidates.front();
      const std::uint64_t after =
          dht::clockwise(o.node(cur).id, target, o.ring_size());
      ASSERT_LT(after, before);
      ASSERT_LT(++guard, 100u);
    }
  }
}

TEST(Chord, IndegreeBoundsRespectedOnErtBuild) {
  Overlay o = make(400, 12, true, 12);
  std::size_t over = 0;
  for (NodeIndex i = 0; i < o.num_slots(); ++i) {
    if (o.node(i).budget.indegree() > 12 + 8) ++over;
  }
  // Forced routability links (successor lists ignore budgets, and a finger
  // whose whole loose window is at capacity takes the strict successor
  // anyway) can exceed the bound, but only for a small minority of nodes.
  EXPECT_LT(over, o.num_slots() / 10);
}

// expand_indegree's one-comparison finger test against eligible(), the
// reference, on small rings where windows wrap: few ring bits, n from 2 to
// ~300, finger_spread 1..4. Also checks that build_table only ever links
// eligible candidates.
TEST(Chord, FingerThresholdMatchesEligible) {
  Rng rng(20261017);
  for (int trial = 0; trial < 90; ++trial) {
    ChordOptions opts;
    opts.bits = 3 + static_cast<int>(rng.index(7));  // 3..9
    opts.finger_spread = 1 + rng.index(4);
    opts.successor_list = 1 + rng.index(4);
    opts.enforce_indegree_bounds = rng.bernoulli(0.5);
    Overlay o(opts);
    // Every third ring holds at most finger_spread + 2 nodes, where the
    // reach falls back to eligible() or only just stops doing so.
    const std::size_t most = trial % 3 == 0 ? opts.finger_spread + 2 : 300;
    const std::size_t n = std::min<std::size_t>(
        2 + rng.index(most - 1), static_cast<std::size_t>(o.ring_size()));
    for (std::size_t k = 0; k < n; ++k)
      o.add_node_random(rng, 1.0, 2 + static_cast<int>(rng.index(12)), 0.8);
    for (NodeIndex i = 0; i < n; ++i) o.build_table(i);

    for (NodeIndex i = 0; i < n; ++i)
      for (std::size_t slot = 0; slot < o.node(i).table.num_entries(); ++slot)
        for (const dht::NodeIndex32 c :
             o.node(i).table.entry(slot).candidates(o.arena().cands))
          ASSERT_TRUE(o.eligible(i, slot, c))
              << "trial " << trial << " node " << i << " slot " << slot;

    for (NodeIndex i = 0; i < n; ++i) {
      const std::uint64_t reach = o.finger_reach(i);
      for (const auto& [host, slot] : o.expansion_targets(i, 1 << 20)) {
        if (slot == o.successor_entry()) continue;
        ASSERT_EQ(o.finger_eligible(host, slot, i, reach),
                  o.eligible(host, slot, i))
            << "trial " << trial << " host " << host << " m " << slot;
      }
      for (int q = 0; q < 20; ++q) {
        const NodeIndex host = rng.index(n);
        const std::size_t m = rng.index(static_cast<std::size_t>(o.bits()));
        ASSERT_EQ(o.finger_eligible(host, m, i, reach),
                  o.eligible(host, m, i))
            << "trial " << trial << " host " << host << " m " << m;
      }
    }
    // Expansion keeps every entry eligible too.
    for (NodeIndex i = 0; i < n; ++i) o.expand_indegree(i, 4, 64);
    for (NodeIndex i = 0; i < n; ++i)
      for (std::size_t slot = 0; slot < o.node(i).table.num_entries(); ++slot)
        for (const dht::NodeIndex32 c :
             o.node(i).table.entry(slot).candidates(o.arena().cands))
          ASSERT_TRUE(o.eligible(i, slot, c));
    o.check_invariants();
  }
}

// Reference construction on the public link(), which tests the one-role
// rule on the target's inlink list and the window rule with eligible():
// the same windows, order and forced fallback as build_table,
// repair_entry and expand_indegree.
void reference_fill_finger(Overlay& o, const ChordOptions& opts, NodeIndex i,
                           std::size_t m) {
  const std::uint64_t start =
      (o.node(i).id + (std::uint64_t{1} << m)) & (o.ring_size() - 1);
  std::vector<dht::IdOwner> window;
  o.directory().successors_of(start == 0 ? o.ring_size() - 1 : start - 1,
                              opts.finger_spread, window);
  for (const auto& [id, cand] : window)
    if (o.link(i, m, cand, opts.enforce_indegree_bounds)) return;
  if (!window.empty()) o.link(i, m, window.front().second, false);
}

void reference_fill_successors(Overlay& o, const ChordOptions& opts,
                               NodeIndex i) {
  std::vector<dht::IdOwner> window;
  o.directory().successors_of(o.node(i).id, opts.successor_list, window);
  for (const auto& [id, cand] : window)
    o.link(i, o.successor_entry(), cand, false);
}

void reference_build(Overlay& o, const ChordOptions& opts, NodeIndex i) {
  reference_fill_successors(o, opts, i);
  for (int m = 0; m < opts.bits; ++m)
    reference_fill_finger(o, opts, i, static_cast<std::size_t>(m));
  o.mutable_node(i).table_built = true;
}

void reference_repair(Overlay& o, const ChordOptions& opts, NodeIndex i,
                      std::size_t slot) {
  for (const dht::NodeIndex32 c :
       o.node(i).table.entry(slot).candidates(o.arena().cands))
    if (o.node(c).alive) return;
  if (o.directory().size() < 2) return;
  if (slot == o.successor_entry())
    reference_fill_successors(o, opts, i);
  else
    reference_fill_finger(o, opts, i, slot);
}

int reference_expand(Overlay& o, NodeIndex i, int want, std::size_t probes) {
  if (want <= 0) return 0;
  int gained = 0;
  for (const auto& [host, slot] : o.expansion_targets(i, probes)) {
    if (gained >= want || !o.node(i).budget.can_accept()) break;
    if (o.link(host, slot, i, /*respect_budget=*/true)) ++gained;
  }
  return gained;
}

/// Tables, inlinks (with both distances) and budgets, node by node.
void expect_same_overlay(const Overlay& a, const Overlay& b) {
  ASSERT_EQ(a.num_slots(), b.num_slots());
  for (NodeIndex i = 0; i < a.num_slots(); ++i) {
    const ChordNode& x = a.node(i);
    const ChordNode& y = b.node(i);
    ASSERT_EQ(x.alive, y.alive) << "node " << i;
    ASSERT_EQ(x.table_built, y.table_built) << "node " << i;
    for (std::size_t slot = 0; slot < x.table.num_entries(); ++slot) {
      const auto cx = x.table.entry(slot).candidates(a.arena().cands);
      const auto cy = y.table.entry(slot).candidates(b.arena().cands);
      ASSERT_TRUE(std::equal(cx.begin(), cx.end(), cy.begin(), cy.end()))
          << "node " << i << " slot " << slot;
    }
    const auto fx = x.inlinks.fingers(a.arena().fingers);
    const auto fy = y.inlinks.fingers(b.arena().fingers);
    ASSERT_EQ(fx.size(), fy.size()) << "node " << i;
    for (std::size_t k = 0; k < fx.size(); ++k) {
      ASSERT_EQ(fx[k].node, fy[k].node) << "node " << i;
      ASSERT_EQ(fx[k].logical_distance, fy[k].logical_distance);
      ASSERT_EQ(fx[k].physical_distance, fy[k].physical_distance);
    }
    ASSERT_EQ(x.budget.indegree(), y.budget.indegree()) << "node " << i;
    ASSERT_EQ(x.budget.max_indegree(), y.budget.max_indegree());
    ASSERT_EQ(x.budget.forced_accepts(), y.budget.forced_accepts())
        << "node " << i;
  }
}

// build_table and repair_entry test "one role per ordered pair" against a
// stamp of the builder's own targets and resume their window searches from
// a hint; every link path appends backward fingers unchecked. On small
// rings where windows wrap, with and without indegree bounds, they must
// leave exactly the overlay that the same steps through link() leave:
// after the build and an expansion sweep, then after failures, purges and
// a repair of every surviving slot.
TEST(Chord, BuildAndRepairMatchLink) {
  Rng rng(20261019);
  const Overlay::PhysDistFn phys = [](NodeIndex a, NodeIndex b) {
    return static_cast<double>((a * 2654435761u + b * 40503u) % 1000) / 8.0;
  };
  for (int trial = 0; trial < 90; ++trial) {
    ChordOptions opts;
    opts.bits = 3 + static_cast<int>(rng.index(7));  // 3..9
    opts.finger_spread = 1 + rng.index(4);
    opts.successor_list = 1 + rng.index(4);
    opts.enforce_indegree_bounds = trial % 2 == 0;
    Overlay a(opts, phys);
    Overlay b(opts, phys);
    const std::size_t n = std::min<std::size_t>(
        2 + rng.index(299), static_cast<std::size_t>(a.ring_size()));
    const std::uint64_t seed = rng.bits();
    Rng ra(seed), rb(seed), rdeg(seed);
    if (trial % 4 < 2) a.begin_bulk_insert(n);
    for (std::size_t k = 0; k < n; ++k) {
      const int dinf = 2 + static_cast<int>(rdeg.index(12));
      a.add_node_random(ra, 1.0, dinf, 0.8);
      b.add_node_random(rb, 1.0, dinf, 0.8);
    }
    if (trial % 4 < 2) a.end_bulk_insert();
    const auto expand_all = [&] {
      for (NodeIndex i = 0; i < n; ++i) {
        const int want = static_cast<int>(rng.index(6));
        const std::size_t probes = 1 + rng.index(64);
        ASSERT_EQ(a.expand_indegree(i, want, probes),
                  reference_expand(b, i, want, probes));
      }
    };
    // Every third ring expands before it builds, so builders start with
    // links and stamp_targets() has a table to read.
    if (trial % 3 == 2) {
      ASSERT_NO_FATAL_FAILURE(expand_all()) << "trial " << trial;
      ASSERT_NO_FATAL_FAILURE(expect_same_overlay(a, b)) << "trial " << trial;
    }
    for (NodeIndex i = 0; i < n; ++i) {
      a.build_table(i);
      reference_build(b, opts, i);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_overlay(a, b)) << "trial " << trial;
    ASSERT_NO_FATAL_FAILURE(expand_all()) << "trial " << trial;
    ASSERT_NO_FATAL_FAILURE(expect_same_overlay(a, b)) << "trial " << trial;

    for (NodeIndex i = 0; i < n; ++i)
      if (rng.bernoulli(0.3)) {
        a.fail(i);
        b.fail(i);
      }
    for (NodeIndex i = 0; i < n; ++i) {
      if (!a.node(i).alive) continue;
      std::vector<NodeIndex> dead;
      for (const auto& entry : a.node(i).table.entries())
        for (const dht::NodeIndex32 c : entry.candidates(a.arena().cands))
          if (!a.node(c).alive) dead.push_back(c);
      for (const auto& f : a.node(i).inlinks.fingers(a.arena().fingers))
        if (!a.node(f.node).alive) dead.push_back(f.node);
      for (const NodeIndex d : dead) {
        a.purge_dead(i, d);
        b.purge_dead(i, d);
      }
    }
    for (NodeIndex i = 0; i < n; ++i) {
      if (!a.node(i).alive) continue;
      for (std::size_t slot = 0; slot < a.node(i).table.num_entries();
           ++slot) {
        a.repair_entry(i, slot);
        reference_repair(b, opts, i, slot);
      }
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_overlay(a, b)) << "trial " << trial;
    a.check_invariants();
    b.check_invariants();
  }
}

}  // namespace
}  // namespace ert::chord
