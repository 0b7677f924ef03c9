// The benchmark's four workloads (README.md explains why each exists).
#pragma once

#include <cstdint>
#include <string>

#include "common/config.h"
#include "harness/experiment.h"
#include "harness/protocol.h"
#include "harness/substrate.h"

namespace perfbench {

struct Workload {
  std::string name;
  ert::harness::SubstrateKind kind = ert::harness::SubstrateKind::kCycloid;
  ert::harness::Protocol proto = ert::harness::Protocol::kErtAF;
  ert::SimParams params;
  /// Trace ring capacity in records: large enough that nothing is evicted
  /// (the traced run fails its check otherwise). The ring reserves address
  /// space up front but only touches the pages it fills.
  std::size_t trace_capacity = std::size_t{1} << 22;
};

/// Builds workload `name` for `seed`. `smoke` shrinks the run to toy length
/// (the benchmark's own tests). Returns false for an unknown name.
inline bool make_workload(const std::string& name, std::uint64_t seed,
                          bool smoke, Workload* out) {
  using ert::harness::Protocol;
  using ert::harness::SubstrateKind;
  Workload w;
  w.name = name;
  ert::SimParams& p = w.params;
  if (name.rfind("cycloid2048_", 0) == 0) {
    // Table 2 (Cycloid d=8, n=2048, bounded-Pareto capacities) at the
    // calibrated 16 lookups/s of bench/bench_common.h. 10k lookups keep
    // enough seeds inside one measured run for steady simulated medians.
    w.kind = SubstrateKind::kCycloid;
    p.lookup_rate = 16.0;
    p.num_lookups = smoke ? 1500 : 10000;
    if (name == "cycloid2048_af") {
      w.proto = Protocol::kErtAF;
    } else if (name == "cycloid2048_f") {
      w.proto = Protocol::kErtF;
    } else if (name == "cycloid2048_f_churn") {
      w.proto = Protocol::kErtF;
      p.churn_interarrival = 0.1;  // Fig. 9's heaviest churn.
    } else {
      return false;
    }
  } else if (name == "chord2e17_af") {
    // The 2^17 Chord row of bench_pdes / `ertsim --scale`: workload clock
    // compressed 8x (rate 128 * n / 2048, Table-2 services / 8) with a
    // 64-query ingress cap.
    w.kind = SubstrateKind::kChord;
    w.proto = Protocol::kErtAF;
    p.num_nodes = smoke ? 4096 : (std::size_t{1} << 17);
    p.num_lookups = smoke ? 1500 : 10000;
    p.lookup_rate = 128.0 * static_cast<double>(p.num_nodes) / 2048.0;
    p.light_service_time = 0.2 / 8.0;
    p.heavy_service_time = 1.0 / 8.0;
    p.queue_cap = 64;
    p.dimension = ert::harness::fit_dimension(p.num_nodes);
    w.trace_capacity = std::size_t{1} << 23;
  } else {
    return false;
  }
  p.seed = seed;
  p.sim_threads = 1;
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
