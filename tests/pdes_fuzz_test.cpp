// Differential fuzz of the sharded conservative-window PDES driver
// (sim/sharded.h) against the plain single-queue kernel. Both sides run
// the same deterministic random event DAG: every event's children are a
// pure function of its id, so execution order cannot change the program,
// only the schedule. Intra-shard children land below the lookahead floor;
// cross-shard children are posted at now + lookahead or later (the
// conservatism contract). The sharded run must execute exactly the same
// (shard, id, time) multiset as the single queue — same events, same
// timestamps to the bit — and per-shard execution order must be identical
// whether the windows run inline or on a worker pool.
#include "sim/sharded.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <vector>

#include "sim/simulator.h"

namespace ert::sim {
namespace {

constexpr Time kLookahead = 0.010;
constexpr int kMaxDepth = 7;

/// splitmix64 finalizer: every event id is hashed into an independent
/// stream, so child generation depends only on the id, never on when or
/// where the parent executed.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

struct Rec {
  int shard;
  std::uint64_t id;
  Time when;

  friend bool operator==(const Rec& a, const Rec& b) {
    return a.shard == b.shard && a.id == b.id && a.when == b.when;
  }
  friend bool operator<(const Rec& a, const Rec& b) {
    return std::tie(a.when, a.shard, a.id) < std::tie(b.when, b.shard, b.id);
  }
};

/// One derived child edge of the DAG. `cross` children always sit at
/// >= parent + lookahead; intra-shard children may be arbitrarily close.
struct Child {
  int shard;
  std::uint64_t id;
  Time when;
  bool cross;
};

/// Pure function (parent id, slot k) -> child. Both harnesses call this,
/// so the DAGs are identical by construction.
int derive_children(std::uint64_t id, int shard, int shards, Time t,
                    int depth, Child out[2]) {
  if (depth >= kMaxDepth) return 0;
  const std::uint64_t h = mix(id);
  const int n = static_cast<int>(h % 3);  // 0..2 children, mean 1
  for (int k = 0; k < n; ++k) {
    const std::uint64_t cid = mix(id ^ (0x2545f4914f6cdd1dULL * (k + 1)));
    const double u =
        static_cast<double>((cid >> 16) & 0xffff) / 65535.0;  // [0,1]
    const bool cross = shards > 1 && ((cid >> 8) & 7) == 0;   // ~1/8 edges
    if (cross) {
      const int to =
          (shard + 1 + static_cast<int>(cid % (shards - 1))) % shards;
      out[k] = Child{to, cid, t + kLookahead + u * 0.010, true};
    } else {
      out[k] = Child{shard, cid, t + 0.0005 + u * 0.008, false};
    }
  }
  return n;
}

/// The program's roots, one small burst per shard.
std::vector<Child> derive_roots(std::uint64_t seed, int shards) {
  std::vector<Child> roots;
  for (int s = 0; s < shards; ++s) {
    const std::uint64_t base = mix(seed ^ (0xd1b54a32d192ed03ULL * (s + 1)));
    const int n = 1 + static_cast<int>(base % 3);
    for (int k = 0; k < n; ++k) {
      const std::uint64_t id = mix(base + k);
      const double u = static_cast<double>(id & 0xffff) / 65535.0;
      roots.push_back(Child{s, id, 0.001 + u * 0.020, false});
    }
  }
  return roots;
}

/// Reference: the whole program on one Simulator. Cross-shard sends are
/// ordinary schedule_at calls — a single queue needs no lookahead.
struct SingleQueueRun {
  Simulator sim;
  int shards;
  std::vector<Rec> log;
  std::size_t cross_edges = 0;

  void exec(int shard, std::uint64_t id, Time t, int depth) {
    log.push_back(Rec{shard, id, t});
    Child c[2];
    const int n = derive_children(id, shard, shards, t, depth, c);
    for (int k = 0; k < n; ++k) {
      if (c[k].cross) ++cross_edges;
      const Child ch = c[k];
      sim.schedule_at(ch.when, [this, ch, depth] {
        exec(ch.shard, ch.id, ch.when, depth + 1);
      });
    }
  }

  explicit SingleQueueRun(std::uint64_t seed, int s) : shards(s) {
    for (const Child& r : derive_roots(seed, s)) {
      sim.schedule_at(r.when,
                      [this, r] { exec(r.shard, r.id, r.when, 0); });
    }
    sim.run();
  }
};

/// Sharded: intra-shard children go through the owner's queue, cross-shard
/// children through the mailbox/barrier transport.
struct ShardedRun {
  ShardedSimulator sim;
  std::vector<std::vector<Rec>> logs;  ///< per shard; single-writer each.
  std::size_t executed = 0;

  void exec(int shard, std::uint64_t id, Time t, int depth) {
    logs[static_cast<std::size_t>(shard)].push_back(Rec{shard, id, t});
    Child c[2];
    const int n = derive_children(id, shard, sim.shards(), t, depth, c);
    for (int k = 0; k < n; ++k) {
      const Child ch = c[k];
      if (ch.cross) {
        sim.post(shard, ch.shard, ch.when, [this, ch, depth] {
          exec(ch.shard, ch.id, ch.when, depth + 1);
        });
      } else {
        sim.shard(shard).schedule_at(ch.when, [this, ch, depth] {
          exec(ch.shard, ch.id, ch.when, depth + 1);
        });
      }
    }
  }

  ShardedRun(std::uint64_t seed, int shards, int workers)
      : sim(shards, kLookahead, workers),
        logs(static_cast<std::size_t>(shards)) {
    for (const Child& r : derive_roots(seed, shards)) {
      sim.shard(r.shard).schedule_at(
          r.when, [this, r] { exec(r.shard, r.id, r.when, 0); });
    }
    executed = sim.run();
  }

  std::vector<Rec> merged() const {
    std::vector<Rec> all;
    for (const auto& l : logs) all.insert(all.end(), l.begin(), l.end());
    return all;
  }
};

TEST(PdesFuzz, ShardedMatchesSingleQueueMultiset) {
  std::size_t total_events = 0;
  std::size_t total_cross = 0;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    for (const int shards : {2, 3, 4, 7}) {
      SingleQueueRun ref(seed, shards);
      ShardedRun par(seed, shards, /*workers=*/shards);

      std::vector<Rec> a = ref.log;
      std::vector<Rec> b = par.merged();
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a.size(), b.size())
          << "seed " << seed << " shards " << shards;
      // Bitwise-equal timestamps: both sides compute child times with the
      // same arithmetic from the same parent time, so even the doubles
      // must match exactly, not approximately.
      ASSERT_EQ(a, b) << "seed " << seed << " shards " << shards;
      EXPECT_EQ(par.executed, b.size());

      total_events += a.size();
      total_cross += ref.cross_edges;
    }
  }
  // The fuzz corpus must actually exercise the transport: plenty of
  // events overall and a healthy share of cross-shard barrier traffic.
  EXPECT_GT(total_events, 1000u);
  EXPECT_GT(total_cross, 50u);
}

TEST(PdesFuzz, WorkerPoolDoesNotChangePerShardOrder) {
  for (std::uint64_t seed = 100; seed < 112; ++seed) {
    for (const int shards : {2, 4}) {
      ShardedRun inline_run(seed, shards, /*workers=*/1);
      ShardedRun pooled_run(seed, shards, /*workers=*/shards);
      for (int s = 0; s < shards; ++s) {
        ASSERT_EQ(inline_run.logs[static_cast<std::size_t>(s)],
                  pooled_run.logs[static_cast<std::size_t>(s)])
            << "seed " << seed << " shards " << shards << " shard " << s;
      }
    }
  }
}

TEST(PdesFuzz, CrossShardEdgesRespectLookaheadFloor) {
  // The generator itself must never emit a cross edge below the floor —
  // if it did, ShardedSimulator::post's conservatism assert would fire in
  // the tests above; check the property directly as well.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const std::uint64_t id = mix(seed);
    Child c[2];
    const int n = derive_children(id, 0, 8, /*t=*/1.0, /*depth=*/0, c);
    for (int k = 0; k < n; ++k) {
      if (c[k].cross) {
        EXPECT_GE(c[k].when, 1.0 + kLookahead);
      }
    }
  }
}

}  // namespace
}  // namespace ert::sim
