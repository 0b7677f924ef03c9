// Chord substrate with the paper's loose-finger ERT variant (Sec. 3.2,
// Fig. 1).
//
// Classic Chord gives node i exactly one (m+1)-th finger: the successor of
// i + 2^m. The paper loosens the constraint so the (m+1)-th finger slot may
// hold a *set* of successors succeeding succ(i + 2^m) — that set is the
// elastic candidate list randomized forwarding picks from, and the slack is
// what lets node i ask the predecessors of (i - 2^m) to adopt it during
// indegree expansion ("node (1010-1-011) can send requests targeting
// ID in [1010-0-000, 1010-0-011] to take it as their 4th finger").
//
// The overlay mirrors the Cycloid one: indegree budgets with the
// d_inf - d >= 1 acceptance rule, backward fingers per inlink, expansion
// target enumeration, shedding, and a route_step API returning candidate
// sets per hop. Routing is greedy clockwise: any candidate strictly closer
// (clockwise) to the owner qualifies, fingers give the O(log n) jumps, and
// the successor entry guarantees progress.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dht/ring.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "dht/stamp_set.h"
#include "dht/types.h"
#include "ert/indegree.h"

namespace ert::trace {
class TraceSink;
}

namespace ert::wire {
class ByteMeter;
}

namespace ert::chord {

struct ChordOptions {
  int bits = 16;  ///< ring size 2^bits.
  /// Max candidates a loose finger slot may hold / how far past
  /// succ(i + 2^m) eligibility stretches, in occupied-node positions.
  std::size_t finger_spread = 4;
  std::size_t successor_list = 4;
  bool enforce_indegree_bounds = false;
};

struct ChordNode {
  std::uint64_t id = 0;
  bool alive = false;
  bool table_built = false;
  double capacity = 1.0;
  dht::ElasticTable table;  ///< entries: [0, bits) fingers, [bits] successors.
  core::IndegreeBudget budget;
  core::BackwardFingerList inlinks;
};

struct RouteStep {
  bool arrived = false;
  std::size_t entry_index = 0;
  std::vector<dht::NodeIndex> candidates;  ///< best progress first.
};

using ExpansionTarget = std::pair<dht::NodeIndex, std::size_t>;

class Overlay {
 public:
  using PhysDistFn = std::function<double(dht::NodeIndex, dht::NodeIndex)>;

  explicit Overlay(ChordOptions opts, PhysDistFn phys_dist = {});

  dht::NodeIndex add_node(std::uint64_t id, double capacity, int max_indegree,
                          double beta);
  dht::NodeIndex add_node_random(Rng& rng, double capacity, int max_indegree,
                                 double beta);

  /// Builds fingers and the successor list for `i`.
  void build_table(dht::NodeIndex i);

  int expand_indegree(dht::NodeIndex i, int want, std::size_t max_probes);
  int shed_indegree(dht::NodeIndex i, int count);
  void leave_graceful(dht::NodeIndex i);

  /// Silent failure: stale links to `i` remain until discovered (timeouts).
  void fail(dht::NodeIndex i);

  /// Purges a discovered-dead neighbor from `at`'s table and inlinks.
  void purge_dead(dht::NodeIndex at, dht::NodeIndex dead);

  /// Refills `slot` of `i` from the directory if it has no live candidate.
  void repair_entry(dht::NodeIndex i, std::size_t slot);

  dht::NodeIndex responsible(std::uint64_t key) const;
  RouteStep route_step(dht::NodeIndex cur, std::uint64_t key) const;

  /// Allocation-free hop: identical routing decision, but the candidate
  /// set is written into `scratch.candidates` instead of a fresh vector.
  dht::RouteStepInfo route_step(dht::NodeIndex cur, std::uint64_t key,
                                dht::RouteScratch& scratch) const;

  /// Ring distance from a node to a key (for forwarding tie-breaks).
  std::uint64_t logical_distance_to_key(dht::NodeIndex a,
                                        std::uint64_t key) const;

  /// Hosts that could adopt `i` into a finger slot: for each m, the
  /// predecessors of (i - 2^m) within the spread window, plus predecessors
  /// for the successor-list slot.
  std::vector<ExpansionTarget> expansion_targets(dht::NodeIndex i,
                                                 std::size_t max_targets) const;

  /// Links `to` into `from`'s `slot` if it passes attachable() and
  /// eligible(); the cheap local checks run first.
  bool link(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
            bool respect_budget);
  bool unlink(dht::NodeIndex from, dht::NodeIndex to);
  /// The slot's window rule alone: cand is among the first successor_list
  /// ids after owner (successor slot), or among the first finger_spread ids
  /// at or after owner.id + 2^m (finger m).
  bool eligible(dht::NodeIndex owner, std::size_t slot,
                dht::NodeIndex cand) const;

  /// expand_indegree's one-comparison form of eligible() for finger slots.
  /// finger_reach(i) is the clockwise gap from alive node i's
  /// finger_spread-th predecessor to i, found with one descent; it is 0
  /// when the directory holds finger_spread + 1 ids or fewer, where
  /// windows wrap onto themselves. finger_eligible(host, m, i,
  /// finger_reach(i)) == eligible(host, m, i) for every finger m; with
  /// reach 0 it simply calls eligible().
  std::uint64_t finger_reach(dht::NodeIndex i) const;
  bool finger_eligible(dht::NodeIndex host, std::size_t m, dht::NodeIndex i,
                       std::uint64_t reach) const;

  const ChordNode& node(dht::NodeIndex i) const { return nodes_.at(i); }
  ChordNode& mutable_node(dht::NodeIndex i) { return nodes_.at(i); }

  /// Backing store for all pooled candidate / backward-finger sets
  /// (dht/slab.h); every table or inlink operation threads through it.
  core::LinkArena& arena() { return arena_; }
  const core::LinkArena& arena() const { return arena_; }
  std::size_t num_slots() const { return nodes_.size(); }
  std::size_t alive_count() const { return alive_; }
  const dht::RingDirectory& directory() const { return directory_; }

  /// Batched construction: between these calls, add_node stages directory
  /// inserts so the ring directory is built once from the sorted batch
  /// (O(n log n) total) instead of per-insert; `expected` pre-sizes the
  /// slot vector, the staging buffers and the link pools. Queries stay
  /// exact throughout.
  void begin_bulk_insert(std::size_t expected);
  void end_bulk_insert() { directory_.end_bulk(); }

  int bits() const { return opts_.bits; }
  std::uint64_t ring_size() const { return std::uint64_t{1} << opts_.bits; }
  std::size_t successor_entry() const {
    return static_cast<std::size_t>(opts_.bits);
  }

  std::uint64_t logical_distance(dht::NodeIndex a, dht::NodeIndex b) const;

  void check_invariants() const;

  /// Installs a structured-trace sink for the ERT elasticity path
  /// (link.adopt / link.shed from expand_indegree / shed_indegree); null
  /// disables emission. Observes only. See docs/TRACING.md.
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }
  void set_meter(wire::ByteMeter* meter) { meter_ = meter; }

 private:
  void expansion_targets_into(dht::NodeIndex i, std::size_t max_targets,
                              std::vector<ExpansionTarget>& out) const;

  /// link() split in two. attachable() holds the local rejections: a dead
  /// end, a self link, a full loose slot, one role per ordered pair, the
  /// budget. `paired` answers "from already links to to"; each caller
  /// takes it from the set it keeps at hand. The checks on `from` run
  /// before the first read of `to`'s node. attach() records the link.
  bool attachable(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
                  bool respect_budget, bool paired) const;
  bool attach(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to);
  /// Starts targets_ as the set of nodes `i`'s table links to; adopt()
  /// keeps it current while `i` builds or repairs its own table.
  void stamp_targets(dht::NodeIndex i);
  /// link() for a builder `from` whose targets_ are stamped, with a
  /// candidate taken from the slot's own eligibility window, which
  /// therefore skips recomputing it.
  bool adopt(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
             bool respect_budget);
  /// Fills finger `slot` (m) of `i` from its eligibility window, the
  /// first finger_spread ids at or after i.id + 2^m, forcing the strict
  /// successor when no candidate accepts within bounds. `hint` carries
  /// the window search over from the previous finger.
  void fill_finger(dht::NodeIndex i, std::size_t slot,
                   dht::RingDirectory::SearchHint& hint);

  ChordOptions opts_;
  PhysDistFn phys_dist_;
  dht::RingDirectory directory_;
  std::vector<ChordNode> nodes_;
  std::size_t alive_ = 0;
  trace::TraceSink* trace_ = nullptr;
  wire::ByteMeter* meter_ = nullptr;
  core::LinkArena arena_;
  // Warm scratch for the steady-state mutation paths (repair, adaptation),
  // so shed/grow sweeps allocate nothing once capacities settle. Callers
  // iterate window_scratch_; eligible() fills its own elig_scratch_.
  mutable std::vector<dht::IdOwner> window_scratch_;
  mutable std::vector<std::uint64_t> elig_scratch_;
  std::vector<ExpansionTarget> targets_scratch_;
  mutable dht::StampSet inlink_seen_;  ///< expansion_targets_into() only.
  dht::StampSet targets_;  ///< the builder's targets (stamp_targets()).
  std::vector<core::BackwardFinger> evict_scratch_;
  std::vector<dht::NodeIndex> evict_out_;
};

}  // namespace ert::chord
