// Construction-and-churn scale bench: rank-indexed directory vs the
// pre-refactor sorted-vector directory.
//
//   bench_build [output.json]     (default BENCH_build.json)
//
// Three sections, written to one JSON document (schema in
// docs/PERFORMANCE.md):
//
//   directory      microbench sweep over the RingDirectory alone. For each
//                  n: shuffled incremental inserts, the begin_bulk/end_bulk
//                  batched build, a churn regime of alternating erase/insert
//                  pairs, and a successor-query pass. The identical id and
//                  operation sequence is replayed through the pre-refactor
//                  sorted-vector copy (reference_ring.h) while that stays
//                  affordable (O(n²) inserts cap it at 65536), and a query
//                  checksum asserts the two directories agree.
//   cycloid_build  a full n = 65536 Cycloid overlay built exactly the way
//                  bench_route_hop's scale section builds one (dimension
//                  fit_dimension(2n), base_fanout 3, add_node_random then
//                  build_table per slot). Timed both incrementally and via
//                  the bulk-insert staging path, and compared against the
//                  28.1602 s this same construction took with the
//                  sorted-vector directory (scale.build_seconds recorded in
//                  BENCH_route_hop.json before the refactor).
//   chord_build    the million-node criterion: a full n = 1048576 Chord
//                  network through the harness (run_build_only), reported
//                  with wall-clock seconds and peak RSS. Non-smoke only.
//
// ERT_BENCH_SMOKE=1 shrinks the sweep and skips the million-node build so
// CI finishes in seconds.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/rss.h"
#include "cycloid/overlay.h"
#include "dht/ring.h"
#include "harness/experiment.h"
#include "json_writer.h"
#include "reference_ring.h"

namespace {

using ert::Rng;
using ert::dht::NodeIndex;

bool smoke_mode() {
  const char* e = std::getenv("ERT_BENCH_SMOKE");
  return e && *e && std::string(e) != "0";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// n distinct shuffled ids below `modulus`, deterministic per seed. The
/// draw-until-fresh loop keeps the sequence order-free of the sorted result,
/// so incremental inserts land at random ranks (the worst case for the
/// sorted-vector baseline, the expected case for joins).
std::vector<std::uint64_t> make_ids(std::size_t n, std::uint64_t modulus,
                                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> ids;
  ids.reserve(n);
  std::vector<bool> taken;  // dense dedup: modulus stays within 8x n here.
  taken.assign(modulus, false);
  while (ids.size() < n) {
    const std::uint64_t id = rng.bits() % modulus;
    if (taken[id]) continue;
    taken[id] = true;
    ids.push_back(id);
  }
  return ids;
}

/// Order-sensitive fold of a successor-query pass; both implementations
/// must produce the same sum or the bench aborts.
template <typename Dir>
std::uint64_t query_checksum(const Dir& dir, std::uint64_t modulus,
                             std::size_t queries, std::uint64_t seed) {
  Rng rng(seed);
  std::uint64_t sum = 0;
  for (std::size_t q = 0; q < queries; ++q) {
    const std::uint64_t key = rng.bits() % modulus;
    sum = sum * 1099511628211ull + dir.successor_id(key) * 31u +
          dir.predecessor_id(key);
  }
  return sum;
}

/// Churn regime: `ops` erase+reinsert pairs against a built directory, the
/// erase victim and replacement id drawn identically for both directories.
template <typename Dir>
double churn_pass(Dir& dir, std::vector<std::uint64_t> ids,
                  std::uint64_t modulus, std::size_t ops, std::uint64_t seed) {
  Rng rng(seed);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < ops; ++i) {
    const std::size_t victim = rng.index(ids.size());
    dir.erase(ids[victim]);
    std::uint64_t fresh = rng.bits() % modulus;
    while (dir.contains(fresh)) fresh = (fresh + 1) % modulus;
    dir.insert(fresh, static_cast<NodeIndex>(victim));
    ids[victim] = fresh;
  }
  return seconds_since(t0);
}

struct DirectoryRow {
  std::size_t n = 0;
  double insert_seconds = 0.0;        ///< new directory, one-at-a-time.
  double bulk_seconds = 0.0;          ///< new directory, begin/end_bulk.
  double churn_seconds = 0.0;         ///< new directory, erase+insert pairs.
  std::size_t churn_ops = 0;
  double ref_insert_seconds = -1.0;   ///< sorted-vector baseline; -1 = skipped.
  double ref_churn_seconds = -1.0;
  std::uint64_t checksum = 0;
};

DirectoryRow run_directory_row(std::size_t n, bool with_reference) {
  const std::uint64_t modulus = 8 * static_cast<std::uint64_t>(n);
  const auto ids = make_ids(n, modulus, 0x5eed0 + n);
  const std::size_t churn_ops = std::min<std::size_t>(n, 1 << 16);
  const std::size_t queries = std::min<std::size_t>(n, 1 << 15);

  DirectoryRow row;
  row.n = n;
  row.churn_ops = churn_ops;

  {
    ert::dht::RingDirectory dir(modulus);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i)
      dir.insert(ids[i], static_cast<NodeIndex>(i));
    row.insert_seconds = seconds_since(t0);
    row.churn_seconds = churn_pass(dir, ids, modulus, churn_ops, 0xc4u + n);
  }
  {
    ert::dht::RingDirectory dir(modulus);
    const auto t0 = std::chrono::steady_clock::now();
    dir.begin_bulk(n);
    for (std::size_t i = 0; i < n; ++i)
      dir.insert(ids[i], static_cast<NodeIndex>(i));
    dir.end_bulk();
    row.bulk_seconds = seconds_since(t0);
    row.checksum = query_checksum(dir, modulus, queries, 0xabcd + n);
  }
  if (with_reference) {
    ertbench::refring::RingDirectory ref(modulus);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i)
      ref.insert(ids[i], static_cast<NodeIndex>(i));
    row.ref_insert_seconds = seconds_since(t0);
    const std::uint64_t ref_sum =
        query_checksum(ref, modulus, queries, 0xabcd + n);
    if (ref_sum != row.checksum) {
      std::fprintf(stderr,
                   "bench_build: checksum mismatch at n=%zu "
                   "(new %llu vs reference %llu)\n",
                   n, static_cast<unsigned long long>(row.checksum),
                   static_cast<unsigned long long>(ref_sum));
      std::exit(1);
    }
    row.ref_churn_seconds =
        churn_pass(ref, ids, modulus, churn_ops, 0xc4u + n);
  }
  return row;
}

/// The n = 65536 full-overlay construction bench_route_hop times in its
/// scale section — same dimension fit, fanout, and Rng draw sequence.
int fit_dimension(std::size_t ids_needed) {
  for (int d = 3; d < 25; ++d)
    if (static_cast<std::size_t>(d) << d >= ids_needed) return d;
  return 25;
}

double build_overlay_seconds(std::size_t n, std::uint64_t seed, bool bulk,
                             std::uint64_t* ids_checksum) {
  ert::cycloid::OverlayOptions opts;
  opts.dimension = fit_dimension(2 * n);
  opts.base_fanout = 3;
  ert::cycloid::Overlay o(opts);
  Rng rng(seed);
  const auto t0 = std::chrono::steady_clock::now();
  if (bulk) o.begin_bulk_insert(n);
  for (std::size_t i = 0; i < n; ++i) o.add_node_random(rng, 1.0, 1 << 20, 0.8);
  if (bulk) o.end_bulk_insert();
  for (NodeIndex i = 0; i < o.num_slots(); ++i) o.build_table(i, rng);
  const double s = seconds_since(t0);
  std::uint64_t sum = 0;
  for (const std::uint64_t id : o.directory().ids())
    sum = sum * 1099511628211ull + id;
  *ids_checksum = sum;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out = argc > 1 ? argv[1] : "BENCH_build.json";
  const bool smoke = smoke_mode();

  // The sorted-vector baseline's O(n²) inserts stay affordable to 65536;
  // beyond that only the new directory runs.
  std::vector<std::size_t> sweep;
  std::size_t ref_cap = 0;
  if (smoke) {
    sweep = {1 << 10, 1 << 12};
    ref_cap = 1 << 12;
  } else {
    sweep = {1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20};
    ref_cap = 1 << 16;
  }

  std::vector<DirectoryRow> rows;
  for (const std::size_t n : sweep) {
    rows.push_back(run_directory_row(n, n <= ref_cap));
    const DirectoryRow& r = rows.back();
    std::printf("directory n=%-8zu insert %8.3fs  bulk %8.3fs  churn %8.3fs",
                r.n, r.insert_seconds, r.bulk_seconds, r.churn_seconds);
    if (r.ref_insert_seconds >= 0)
      std::printf("   ref insert %8.3fs (%.1fx)", r.ref_insert_seconds,
                  r.ref_insert_seconds / std::max(1e-9, r.insert_seconds));
    std::printf("\n");
  }

  // Full Cycloid overlay at the bench_route_hop scale-point configuration.
  // kBaselineSeconds is that construction's wall-clock with the pre-refactor
  // directory (BENCH_route_hop.json scale.build_seconds before this change);
  // the acceptance gate is a >= 5x speedup against it.
  const double kBaselineSeconds = 28.1602;
  const std::size_t overlay_n = smoke ? 4096 : 65536;
  std::uint64_t sum_inc = 0;
  std::uint64_t sum_bulk = 0;
  const double overlay_inc_s = build_overlay_seconds(overlay_n, 3, false,
                                                     &sum_inc);
  const double overlay_bulk_s = build_overlay_seconds(overlay_n, 3, true,
                                                      &sum_bulk);
  if (sum_inc != sum_bulk) {
    std::fprintf(stderr,
                 "bench_build: bulk overlay build diverged from incremental "
                 "(ids checksum %llu vs %llu)\n",
                 static_cast<unsigned long long>(sum_bulk),
                 static_cast<unsigned long long>(sum_inc));
    return 1;
  }
  const std::size_t overlay_rss_kb = ert::peak_rss_kb();
  std::printf("cycloid n=%zu            incremental %.3fs  bulk %.3fs",
              overlay_n, overlay_inc_s, overlay_bulk_s);
  if (!smoke)
    std::printf("   (baseline %.1fs, %.1fx)", kBaselineSeconds,
                kBaselineSeconds / std::max(1e-9, overlay_bulk_s));
  std::printf("\n");

  // Million-node criterion: the full harness construction (capacities,
  // proximity coordinates, Chord ring + finger tables) at n = 2^20.
  ert::harness::BuildReport million;
  if (!smoke) {
    ert::SimParams p;
    p.num_nodes = 1u << 20;
    p.seed = 7;
    million = ert::harness::run_build_only(
        p, ert::harness::Protocol::kBase, ert::harness::SubstrateKind::kChord);
    std::printf("chord n=%zu        built in %.1fs, peak RSS %.1f MiB\n",
                million.real_nodes, million.build_seconds,
                static_cast<double>(million.peak_rss_kb) / 1024.0);
  }

  std::FILE* f = std::fopen(out, "w");
  if (!f) {
    std::perror("bench_build: open output");
    return 1;
  }
  ertbench::JsonWriter w(f);
  w.begin_object();
  w.field("bench", "build");
  w.field("smoke", smoke);
  w.field("hardware_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("directory");
  w.begin_array();
  for (const DirectoryRow& r : rows) {
    w.begin_object();
    w.field("n", static_cast<std::uint64_t>(r.n));
    w.field("insert_seconds", r.insert_seconds);
    w.field("insert_ops_per_sec",
            static_cast<double>(r.n) / std::max(1e-9, r.insert_seconds));
    w.field("bulk_seconds", r.bulk_seconds);
    w.field("churn_ops", static_cast<std::uint64_t>(r.churn_ops));
    w.field("churn_seconds", r.churn_seconds);
    w.field("churn_ops_per_sec", static_cast<double>(r.churn_ops) /
                                     std::max(1e-9, r.churn_seconds));
    if (r.ref_insert_seconds >= 0) {
      w.field("ref_insert_seconds", r.ref_insert_seconds);
      w.field("ref_churn_seconds", r.ref_churn_seconds);
      w.field("insert_speedup",
              r.ref_insert_seconds / std::max(1e-9, r.insert_seconds));
      w.field("churn_speedup",
              r.ref_churn_seconds / std::max(1e-9, r.churn_seconds));
    }
    w.end_object();
  }
  w.end_array();
  w.key("cycloid_build");
  w.begin_object();
  w.field("nodes", static_cast<std::uint64_t>(overlay_n));
  w.field("incremental_seconds", overlay_inc_s);
  w.field("bulk_seconds", overlay_bulk_s);
  w.field("peak_rss_kb", static_cast<std::uint64_t>(overlay_rss_kb));
  if (!smoke) {
    w.field("baseline_seconds", kBaselineSeconds);
    w.field("speedup_incremental",
            kBaselineSeconds / std::max(1e-9, overlay_inc_s));
    w.field("speedup_bulk", kBaselineSeconds / std::max(1e-9, overlay_bulk_s));
  }
  w.end_object();
  if (!smoke) {
    w.key("chord_build");
    w.begin_object();
    w.field("nodes", static_cast<std::uint64_t>(million.real_nodes));
    w.field("overlay_slots", static_cast<std::uint64_t>(million.overlay_slots));
    w.field("build_seconds", million.build_seconds);
    w.field("peak_rss_kb", static_cast<std::uint64_t>(million.peak_rss_kb));
    w.end_object();
  }
  w.end_object();
  w.finish();
  std::fclose(f);
  std::printf("wrote %s\n", out);
  return 0;
}
