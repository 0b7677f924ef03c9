// D1HT substrate: single-hop routing over an O(n)-state full routing table
// (Monnerat & Amorim), the degree-spectrum extreme opposite CAN's O(d).
//
// Every member keeps a full-table entry holding every other member, so a
// lookup resolves in one hop: the key's ring successor is read straight out
// of the local table. Membership events propagate through EDRA (the Event
// Detection and Report Algorithm); this model treats dissemination as
// instantaneous — a join installs the bidirectional full-table links with
// all current members atomically, which is EDRA's steady state between
// maintenance windows.
//
// The full mesh is mandatory symmetric structure, exactly like CAN's zone
// adjacency: it is not budget-governed, carries no backward fingers, and
// the invariant auditor checks its symmetry separately from the elastic
// links. ERT's elasticity operates on a second, successor-list entry —
// budget-governed redundancy links with backward fingers that expansion
// and periodic adaptation grow and shed, mirroring the Chord overlay's
// successor entry.
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

namespace ert::d1ht {

inline constexpr std::size_t kFullTableEntry = 0;
inline constexpr std::size_t kSuccessorEntry = 1;
inline constexpr std::size_t kNumEntries = 2;

struct D1htOptions {
  int bits = 16;  ///< ring size 2^bits.
  std::size_t successor_list = 4;  ///< base redundancy links built at join.
  /// Eligibility window and slot cap for the elastic successor entry: how
  /// far past a node the adopters it accepts may sit, in occupied
  /// positions.
  std::size_t successor_spread = 16;
  bool enforce_indegree_bounds = false;
};

struct D1htNode {
  std::uint64_t id = 0;
  bool alive = false;
  bool table_built = false;
  double capacity = 1.0;
  dht::ElasticTable table;  ///< [0] full table, [1] successor list.
  core::IndegreeBudget budget;
  core::BackwardFingerList inlinks;  ///< elastic (successor) inlinks only.
};

using ExpansionTarget = std::pair<dht::NodeIndex, std::size_t>;

class Overlay {
 public:
  using PhysDistFn = std::function<double(dht::NodeIndex, dht::NodeIndex)>;

  explicit Overlay(D1htOptions opts, PhysDistFn phys_dist = {});

  dht::NodeIndex add_node(std::uint64_t id, double capacity, int max_indegree,
                          double beta);
  dht::NodeIndex add_node_random(Rng& rng, double capacity, int max_indegree,
                                 double beta);

  /// Installs the bidirectional full-table links with every member whose
  /// own table is built (so each pair links exactly once, at the later
  /// join), plus the initial successor-list links.
  void build_table(dht::NodeIndex i);

  int expand_indegree(dht::NodeIndex i, int want, std::size_t max_probes);
  int shed_indegree(dht::NodeIndex i, int count);
  void leave_graceful(dht::NodeIndex i);

  /// Silent failure: every member's full table keeps a stale entry until a
  /// timeout discovers it (EDRA detection latency).
  void fail(dht::NodeIndex i);

  void purge_dead(dht::NodeIndex at, dht::NodeIndex dead);
  void repair_entry(dht::NodeIndex i, std::size_t slot);

  dht::NodeIndex responsible(std::uint64_t key) const;
  dht::RouteStepInfo route_step(dht::NodeIndex cur, std::uint64_t key,
                                dht::RouteScratch& scratch) const;
  std::uint64_t logical_distance_to_key(dht::NodeIndex a,
                                        std::uint64_t key) const;

  /// Hosts that could adopt `i` into their successor entry: i's ring
  /// predecessors within the spread window.
  std::vector<ExpansionTarget> expansion_targets(dht::NodeIndex i,
                                                 std::size_t max_targets) const;

  /// Elastic (successor-entry) links only; the full mesh never goes
  /// through link/unlink.
  bool link(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
            bool respect_budget);
  bool unlink(dht::NodeIndex from, dht::NodeIndex to);
  bool eligible(dht::NodeIndex owner, std::size_t slot,
                dht::NodeIndex cand) const;

  const D1htNode& node(dht::NodeIndex i) const { return nodes_.at(i); }
  D1htNode& mutable_node(dht::NodeIndex i) { return nodes_.at(i); }

  core::LinkArena& arena() { return arena_; }
  const core::LinkArena& arena() const { return arena_; }
  std::size_t num_slots() const { return nodes_.size(); }
  std::size_t alive_count() const { return alive_; }
  const dht::RingDirectory& directory() const { return directory_; }

  void begin_bulk_insert(std::size_t expected) {
    if (expected > 0) nodes_.reserve(nodes_.size() + expected);
    directory_.begin_bulk(expected);
  }
  void end_bulk_insert() { directory_.end_bulk(); }

  int bits() const { return opts_.bits; }
  std::uint64_t ring_size() const { return std::uint64_t{1} << opts_.bits; }

  std::uint64_t logical_distance(dht::NodeIndex a, dht::NodeIndex b) const;

  void check_invariants() const;

  void set_trace(trace::TraceSink* sink) { trace_ = sink; }
  void set_meter(wire::ByteMeter* meter) { meter_ = meter; }

 private:
  void expansion_targets_into(dht::NodeIndex i, std::size_t max_targets,
                              std::vector<ExpansionTarget>& out) const;

  D1htOptions opts_;
  PhysDistFn phys_dist_;
  dht::RingDirectory directory_;
  std::vector<D1htNode> nodes_;
  std::size_t alive_ = 0;
  trace::TraceSink* trace_ = nullptr;
  wire::ByteMeter* meter_ = nullptr;
  core::LinkArena arena_;
  mutable std::vector<dht::IdOwner> window_scratch_;
  mutable std::vector<std::uint64_t> elig_scratch_;
  std::vector<ExpansionTarget> targets_scratch_;
  mutable dht::StampSet inlink_seen_;
  std::vector<core::BackwardFinger> evict_scratch_;
  std::vector<dht::NodeIndex> evict_out_;
};

}  // namespace ert::d1ht
