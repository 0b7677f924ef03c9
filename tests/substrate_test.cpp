// The experiment engine on Chord and Pastry substrates (the paper: "ERT
// can also be applied to other DHT networks", Sec. 5), plus the
// data-forwarding (anonymity) workload mode.
#include <gtest/gtest.h>

#include "harness/experiment.h"

namespace ert::harness {
namespace {

SimParams small_params() {
  SimParams p;
  p.num_nodes = 256;
  p.num_lookups = 400;
  p.lookup_rate = 16.0;
  p.seed = 9;
  return p;
}

struct Case {
  SubstrateKind kind;
  Protocol proto;
};

class SubstrateMatrixTest : public ::testing::TestWithParam<Case> {};

TEST_P(SubstrateMatrixTest, CompletesWithSaneMetrics) {
  const auto r =
      run_experiment(small_params(), GetParam().proto, GetParam().kind);
  EXPECT_EQ(r.completed_lookups, 400u);
  EXPECT_EQ(r.dropped_lookups, 0u);
  EXPECT_GT(r.avg_path_length, 0.5);
  EXPECT_GT(r.lookup_time.mean, 0.0);
}

TEST_P(SubstrateMatrixTest, SurvivesChurn) {
  SimParams p = small_params();
  p.churn_interarrival = 0.5;
  const auto r = run_experiment(p, GetParam().proto, GetParam().kind);
  EXPECT_GT(r.completed_lookups, 390u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SubstrateMatrixTest,
    ::testing::Values(Case{SubstrateKind::kChord, Protocol::kBase},
                      Case{SubstrateKind::kChord, Protocol::kErtA},
                      Case{SubstrateKind::kChord, Protocol::kErtF},
                      Case{SubstrateKind::kChord, Protocol::kErtAF},
                      Case{SubstrateKind::kPastry, Protocol::kBase},
                      Case{SubstrateKind::kPastry, Protocol::kErtA},
                      Case{SubstrateKind::kPastry, Protocol::kErtF},
                      Case{SubstrateKind::kPastry, Protocol::kErtAF},
                      Case{SubstrateKind::kCan, Protocol::kBase},
                      Case{SubstrateKind::kCan, Protocol::kErtA},
                      Case{SubstrateKind::kCan, Protocol::kErtF},
                      Case{SubstrateKind::kCan, Protocol::kErtAF},
                      Case{SubstrateKind::kKademlia, Protocol::kBase},
                      Case{SubstrateKind::kKademlia, Protocol::kNS},
                      Case{SubstrateKind::kKademlia, Protocol::kErtA},
                      Case{SubstrateKind::kKademlia, Protocol::kErtF},
                      Case{SubstrateKind::kKademlia, Protocol::kErtAF},
                      Case{SubstrateKind::kD1ht, Protocol::kBase},
                      Case{SubstrateKind::kD1ht, Protocol::kErtA},
                      Case{SubstrateKind::kD1ht, Protocol::kErtF},
                      Case{SubstrateKind::kD1ht, Protocol::kErtAF}),
    [](const auto& test_info) {
      std::string name{to_string(test_info.param.kind)};
      name += "_";
      for (char c : to_string(test_info.param.proto))
        if (c != '/') name.push_back(c);
      return name;
    });

TEST(Substrate, ChordPathsShorterThanCycloid) {
  // O(log n) fingers vs constant-degree CCC: Chord should route in fewer
  // hops at the same size — the reason the paper expects log-degree
  // networks to do even better.
  SimParams p = small_params();
  const auto cyc = run_experiment(p, Protocol::kBase, SubstrateKind::kCycloid);
  const auto cho = run_experiment(p, Protocol::kBase, SubstrateKind::kChord);
  EXPECT_LT(cho.avg_path_length, cyc.avg_path_length);
}

TEST(Substrate, ErtImprovesShareOnChordToo) {
  SimParams p = small_params();
  p.num_lookups = 800;
  const auto base =
      run_averaged(p, Protocol::kBase, 3, SubstrateKind::kChord);
  const auto ert =
      run_averaged(p, Protocol::kErtAF, 3, SubstrateKind::kChord);
  EXPECT_LT(ert.p99_share, base.p99_share);
}

TEST(Substrate, ErtImprovesShareOnPastryToo) {
  SimParams p = small_params();
  p.num_lookups = 800;
  const auto base =
      run_averaged(p, Protocol::kBase, 3, SubstrateKind::kPastry);
  const auto ert =
      run_averaged(p, Protocol::kErtAF, 3, SubstrateKind::kPastry);
  EXPECT_LT(ert.p99_share, base.p99_share);
}

TEST(Substrate, ErtImprovesCongestionOnCan) {
  SimParams p = small_params();
  p.num_lookups = 800;
  const auto base = run_averaged(p, Protocol::kBase, 3, SubstrateKind::kCan);
  const auto ert = run_averaged(p, Protocol::kErtAF, 3, SubstrateKind::kCan);
  EXPECT_LT(ert.p99_max_congestion, base.p99_max_congestion);
  EXPECT_LT(ert.heavy_encounters, base.heavy_encounters);
}

TEST(Substrate, D1htRoutesInOneHop) {
  // The whole point of the full table: churn-free lookups resolve at the
  // first forward (source -> owner), so the mean path length sits at ~1
  // (exactly 1 minus the lookups that start at the owner).
  const auto r =
      run_experiment(small_params(), Protocol::kBase, SubstrateKind::kD1ht);
  EXPECT_EQ(r.completed_lookups, 400u);
  EXPECT_LE(r.avg_path_length, 1.0);
  EXPECT_GT(r.avg_path_length, 0.9);
}

TEST(Substrate, KademliaPathsLogarithmic) {
  // O(log n) buckets: paths comparable to Chord's, far below the
  // constant-degree Cycloid.
  SimParams p = small_params();
  const auto kad =
      run_experiment(p, Protocol::kBase, SubstrateKind::kKademlia);
  const auto cyc = run_experiment(p, Protocol::kBase, SubstrateKind::kCycloid);
  EXPECT_LT(kad.avg_path_length, cyc.avg_path_length);
}

TEST(Substrate, DeterministicPerSubstrate) {
  for (auto kind : {SubstrateKind::kChord, SubstrateKind::kPastry,
                    SubstrateKind::kCan, SubstrateKind::kKademlia,
                    SubstrateKind::kD1ht}) {
    const auto a = run_experiment(small_params(), Protocol::kErtAF, kind);
    const auto b = run_experiment(small_params(), Protocol::kErtAF, kind);
    EXPECT_DOUBLE_EQ(a.lookup_time.mean, b.lookup_time.mean);
  }
}

TEST(DataForwarding, ResponseLegDoublesPathAndLoad) {
  SimParams p = small_params();
  const auto plain = run_experiment(p, Protocol::kErtAF);
  p.data_forwarding = true;
  const auto fwd = run_experiment(p, Protocol::kErtAF);
  EXPECT_EQ(fwd.completed_lookups, 400u);
  // The response retraces the query path: total hops roughly double and
  // end-to-end time grows.
  EXPECT_GT(fwd.avg_path_length, 1.6 * plain.avg_path_length);
  EXPECT_GT(fwd.lookup_time.mean, plain.lookup_time.mean);
}

TEST(DataForwarding, WorksUnderChurn) {
  SimParams p = small_params();
  p.data_forwarding = true;
  p.churn_interarrival = 0.5;
  const auto r = run_experiment(p, Protocol::kErtAF);
  EXPECT_GT(r.completed_lookups, 380u);
}

TEST(DataForwarding, WorksOnChord) {
  SimParams p = small_params();
  p.data_forwarding = true;
  const auto r = run_experiment(p, Protocol::kBase, SubstrateKind::kChord);
  EXPECT_EQ(r.completed_lookups, 400u);
}

}  // namespace
}  // namespace ert::harness
