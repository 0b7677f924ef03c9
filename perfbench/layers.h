// Per-layer accounting for the traced run.
//
// Counts come from the engine's observational tracer. Host cost per call
// comes from a replay owned by the benchmark: it builds the same network
// through make_substrate (same seed, so the same draws) and times calls into
// each layer's public functions. Busy time of a layer is its traced call
// count times its replayed cost per call, except where the replay repeats
// the engine's calls one for one (construction and the Algorithm-3 shed/grow
// sequence), which are timed directly. Nothing inside the simulator is
// instrumented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "trace/trace.h"
#include "workload.h"

namespace perfbench {

/// One Algorithm-3 action as the tracer recorded it.
struct AdaptEvent {
  bool grow = false;
  std::uint64_t node = 0;
  int delta = 0;
  std::int64_t before = 0;  ///< indegree before the action.
  std::int64_t after = 0;   ///< indegree after the action.
};

/// What the trace says the engine did.
struct TraceSummary {
  std::size_t begins = 0;
  std::size_t ends = 0;
  std::size_t drops = 0;
  std::size_t hops = 0;
  std::size_t hop_candidates = 0;  ///< sum of candidate-set sizes over hops.
  std::size_t overloads = 0;
  std::size_t timeouts_arrive = 0;  ///< site 0: a query reached a dead node.
  std::size_t timeouts_route = 0;   ///< site 1: purge + repair in forward().
  std::size_t timeouts_depart = 0;  ///< site 2: queued at a departing node.
  std::size_t joins = 0;            ///< accepted joins.
  std::size_t join_rejects = 0;
  std::size_t departs = 0;
  std::vector<AdaptEvent> adapt;  ///< in emission order.
};

TraceSummary summarize(const std::vector<ert::trace::Record>& records);

/// Host seconds and calls per layer, plus the replay's fidelity flag.
struct LayerCosts {
  // Construction, timed phase by phase on the replayed build.
  std::size_t add_node_calls = 0;
  double add_node_s = 0.0;
  std::size_t build_table_calls = 0;
  double build_table_s = 0.0;
  std::size_t initial_expand_calls = 0;
  double initial_expand_s = 0.0;
  // Algorithm 3, replayed action for action from the trace.
  double expand_s = 0.0;
  double shed_s = 0.0;
  /// Every replayed action left the node at the indegree the trace
  /// recorded, so the replay did the engine's work.
  bool adapt_exact = true;
  // Cost per call (ns) of the query path and of the remaining layers.
  double route_step_ns = 0.0;
  double forward_ns = 0.0;
  double probes_per_call = 0.0;
  double decide_ns = 0.0;
  double event_ns = 0.0;
  double dir_successor_ns = 0.0;
  double dir_owner_of_ns = 0.0;
  double dir_predecessors_of_ns = 0.0;
  double dir_insert_erase_ns = 0.0;
  // Membership writes (churn workloads only).
  double join_add_node_ns = 0.0;
  double join_build_table_ns = 0.0;
  double join_expand_ns = 0.0;
  double fail_ns = 0.0;
  double purge_dead_ns = 0.0;
  double repair_entry_ns = 0.0;
};

/// Runs the replay for workload `w` (same seed as the traced run).
/// `pending_events` sizes the event-kernel replay's queue.
LayerCosts measure_layers(const Workload& w, const TraceSummary& trace,
                          std::size_t pending_events);

}  // namespace perfbench
