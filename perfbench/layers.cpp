#include "layers.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.h"
#include "cycloid/overlay.h"
#include "dht/ring.h"
#include "ert/adaptation.h"
#include "ert/capacity.h"
#include "ert/forwarding.h"
#include "harness/substrate.h"
#include "net/proximity.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using ert::dht::NodeIndex;
using ert::harness::SubstrateOps;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps `v` observable so a timed loop is not folded away.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

/// Cost of the two clock reads around one individually timed call.
double clock_pair_seconds() {
  constexpr int kReps = 20000;
  double total = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const auto t0 = Clock::now();
    total += since(t0);
  }
  return total / kReps;
}

double median3(double a, double b, double c) {
  return std::max(std::min(a, b), std::min(std::max(a, b), c));
}

/// Draws for the replay itself; domain-separated from the workload seed so
/// the replayed construction consumes exactly the engine's draws.
constexpr std::uint64_t kReplaySalt = 0x7e91'a5c3'0b1d'4f27ULL;

/// The engine's network, rebuilt through the public substrate API with the
/// draw sequence of harness::Engine::build_network.
class ReplayNet {
 public:
  explicit ReplayNet(const Workload& w)
      : w_(w), p_(w.params), rng_(w.params.seed), wr_(w.params.seed ^ kReplaySalt) {}
  ReplayNet(const ReplayNet&) = delete;
  ReplayNet& operator=(const ReplayNet&) = delete;

  void build(LayerCosts& c) {
    const std::size_t n = p_.num_nodes;
    caps_ = ert::core::CapacityModel::generate(n, p_, rng_);
    prox_ = ert::net::ProximityMap(n, rng_);
    const bool churn = p_.churn_interarrival > 0;
    ids_needed_ = churn ? 2 * n : n;
    sub_ = ert::harness::make_substrate(
        w_.kind, p_, /*capacity_biased=*/false, /*enforce_bounds=*/true,
        ids_needed_, [this](NodeIndex a, NodeIndex b) {
          return prox_.distance(real_of_.at(a), real_of_.at(b));
        });
    real_of_.reserve(churn ? n + n / 2 : n);

    auto t0 = Clock::now();
    sub_->begin_bulk_join(n);
    for (std::size_t r = 0; r < n; ++r) {
      const int dinf = max_indegree_for(r);
      sub_->add_node(rng_, caps_.normalized(r), dinf, p_.beta);
      real_of_.push_back(r);
    }
    sub_->end_bulk_join();
    c.add_node_s = since(t0);
    c.add_node_calls = n;

    t0 = Clock::now();
    for (NodeIndex v = 0; v < sub_->num_slots(); ++v) sub_->build_table(v, rng_);
    c.build_table_s = since(t0);
    c.build_table_calls = sub_->num_slots();

    // Algorithm 2 for every node in random order.
    std::vector<NodeIndex> order(sub_->num_slots());
    for (NodeIndex v = 0; v < order.size(); ++v) order[v] = v;
    rng_.shuffle(order);
    t0 = Clock::now();
    for (NodeIndex v : order) {
      const auto& budget = sub_->budget(v);
      const int want = budget.initial_target() - budget.indegree();
      if (want > 0) {
        sub_->expand_indegree(v, want, 256);
        ++c.initial_expand_calls;
      }
    }
    c.initial_expand_s = since(t0);
  }

  /// Repeats the engine's Algorithm-3 calls in trace order, with the same
  /// budget bookkeeping as Engine::adaptation_sweep. Expansion and shedding
  /// draw no randomness and queries never change links, so on a churn-free
  /// run this is the engine's exact sequence of link mutations.
  void replay_adapt(const std::vector<AdaptEvent>& events, double clock_pair,
                    LayerCosts& c) {
    for (const AdaptEvent& ev : events) {
      const auto v = static_cast<NodeIndex>(ev.node);
      if (static_cast<std::int64_t>(sub_->indegree(v)) != ev.before)
        c.adapt_exact = false;
      auto& budget = sub_->budget(v);
      if (ev.grow) {
        budget.raise_bound_by(ev.delta);
        const auto probes = std::min<std::size_t>(
            256, 16 + 4 * static_cast<std::size_t>(ev.delta));
        const auto t0 = Clock::now();
        const int gained = sub_->expand_indegree(v, ev.delta, probes);
        c.expand_s += std::max(0.0, since(t0) - clock_pair);
        if (gained < ev.delta) budget.lower_bound_by(ev.delta - gained);
      } else {
        const int before = budget.max_indegree();
        budget.lower_bound_by(ev.delta);
        const auto t0 = Clock::now();
        const int shed = sub_->shed_indegree(v, ev.delta);
        c.shed_s += std::max(0.0, since(t0) - clock_pair);
        const int target = std::max(1, before - shed);
        budget.raise_bound_by(target - budget.max_indegree());
      }
      if (static_cast<std::int64_t>(sub_->indegree(v)) != ev.after)
        c.adapt_exact = false;
    }
  }

  /// Routes `lookups` random lookups with Algorithm 4 choosing each hop
  /// (probe answers are synthetic loads), records every call, then times
  /// the recorded route_step and forward_topology_aware calls in two
  /// separate tight loops.
  void time_query_path(std::size_t lookups, LayerCosts& c) {
    const std::size_t reals = real_of_.size();
    load_.resize(reals);
    for (double& g : load_) g = wr_.uniform(0.0, 1.5);

    std::vector<std::size_t> lookup_begin;  // into steps_
    for (std::size_t l = 0; l < lookups; ++l) {
      lookup_begin.push_back(steps_.size());
      const NodeIndex src = random_alive();
      const std::uint64_t key = wr_.bits() % sub_->key_space();
      keys_.push_back(key);
      route_one(l, src, key);
    }
    lookup_begin.push_back(steps_.size());

    double route[3], fwd[3];
    std::size_t probes = 0;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      for (std::size_t l = 0; l < lookups; ++l) {
        const std::size_t qid = next_qid_++;
        sub_->start_query(qid);
        for (std::size_t s = lookup_begin[l]; s < lookup_begin[l + 1]; ++s) {
          const auto hs = sub_->route_step(qid, steps_[s], keys_[l], scratch_);
          keep(hs);
        }
        sub_->finish_query(qid);
      }
      route[rep] = since(t0) /
                   static_cast<double>(std::max<std::size_t>(1, steps_.size()));

      probes = 0;
      ert::core::OverloadedSet seen;
      std::uint32_t at_lookup = ~0u;
      t0 = Clock::now();
      for (const FwdCall& f : fwd_) {
        if (f.lookup != at_lookup) {
          seen.clear();
          at_lookup = f.lookup;
        }
        const auto dec = forward(f, seen);
        probes += static_cast<std::size_t>(dec.probes);
        keep(dec);
      }
      fwd[rep] = since(t0) /
                 static_cast<double>(std::max<std::size_t>(1, fwd_.size()));
    }
    c.route_step_ns = 1e9 * median3(route[0], route[1], route[2]);
    c.forward_ns = 1e9 * median3(fwd[0], fwd[1], fwd[2]);
    c.probes_per_call = fwd_.empty() ? 0.0
                                     : static_cast<double>(probes) /
                                           static_cast<double>(fwd_.size());
  }

  /// decide_adaptation over the network's capacities and a spread of
  /// period peaks on both sides of the Theorem-3.2 band.
  double time_decide() {
    constexpr std::size_t kCalls = std::size_t{1} << 20;
    constexpr std::size_t kMask = 4095;
    std::vector<double> peak(kMask + 1), cap(kMask + 1);
    for (std::size_t i = 0; i <= kMask; ++i) {
      cap[i] = caps_.normalized(wr_.index(caps_.size()));
      peak[i] = wr_.uniform(0.0, 3.0) * cap[i];
    }
    long acc = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kCalls; ++i) {
      const auto d = ert::core::decide_adaptation(
          peak[i & kMask], cap[i & kMask], p_.gamma_l, p_.mu);
      acc += d.delta + static_cast<int>(d.action);
      keep(acc);
    }
    return 1e9 * since(t0) / kCalls;
  }

  /// Ring-directory operations at the workload's n, on a directory holding
  /// the overlay's own ids (Cycloid) or as many random ids in the ring the
  /// substrate sizes (Chord).
  void time_directory(LayerCosts& c) {
    std::uint64_t modulus = 0;
    std::vector<std::uint64_t> ids;
    if (ert::cycloid::Overlay* o = sub_->as_cycloid()) {
      modulus = o->directory().modulus();
      ids = o->directory().ids();
    } else {
      modulus = std::uint64_t{1} << ert::harness::substrate_ring_bits(ids_needed_);
      ert::dht::RingDirectory pick(modulus);
      while (pick.size() < p_.num_nodes) pick.insert(wr_.bits() % modulus, 0);
      ids = pick.ids();
    }
    ert::dht::RingDirectory dir(modulus);
    dir.begin_bulk(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
      dir.insert(ids[i], static_cast<NodeIndex>(i));
    dir.end_bulk();

    constexpr std::size_t kOps = std::size_t{1} << 18;
    std::vector<std::uint64_t> keys(kOps), present(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
      keys[i] = wr_.bits() % modulus;
      present[i] = ids[wr_.index(ids.size())];
    }

    auto t0 = Clock::now();
    for (std::uint64_t k : keys) keep(dir.successor(k));
    c.dir_successor_ns = 1e9 * since(t0) / kOps;
    t0 = Clock::now();
    for (std::uint64_t id : present) keep(dir.owner_of(id));
    c.dir_owner_of_ns = 1e9 * since(t0) / kOps;
    std::vector<std::uint64_t> out;
    t0 = Clock::now();
    for (std::uint64_t k : keys) {
      dir.predecessors_of(k, 4, out);
      keep(out.data());
    }
    c.dir_predecessors_of_ns = 1e9 * since(t0) / kOps;
    // A full Cycloid has no free id, so churn is modelled as a member
    // leaving and rejoining under the same id.
    t0 = Clock::now();
    for (std::uint64_t id : present) {
      dir.erase(id);
      dir.insert(id, 0);
    }
    c.dir_insert_erase_ns = 1e9 * since(t0) / kOps;
  }

  /// Churn's membership writes: joins (add_node, build_table, Algorithm 2),
  /// silent failures, then lookups over the damaged network that purge dead
  /// candidates and repair entries exactly where Engine::forward does.
  void time_membership(std::size_t joins, std::size_t departs,
                       double clock_pair, LayerCosts& c) {
    double t_add = 0, t_build = 0, t_expand = 0;
    std::size_t joined = 0;
    for (std::size_t j = 0; j < joins && !sub_->id_space_full(); ++j) {
      const double raw =
          rng_.bounded_pareto(p_.pareto_shape, p_.capacity_lo, p_.capacity_hi);
      const std::size_t r = caps_.add_node(raw);
      prox_.add_node(rng_);
      const int dinf = max_indegree_for(r);
      auto t0 = Clock::now();
      const NodeIndex v =
          sub_->add_node(rng_, caps_.normalized(r), dinf, p_.beta);
      t_add += since(t0) - clock_pair;
      real_of_.push_back(r);
      load_.push_back(wr_.uniform(0.0, 1.5));
      t0 = Clock::now();
      sub_->build_table(v, rng_);
      t_build += since(t0) - clock_pair;
      const auto& budget = sub_->budget(v);
      const int want = budget.initial_target() - budget.indegree();
      t0 = Clock::now();
      if (want > 0) sub_->expand_indegree(v, want, 256);
      t_expand += since(t0) - clock_pair;
      ++joined;
    }
    if (joined > 0) {
      c.join_add_node_ns = std::max(0.0, 1e9 * t_add / joined);
      c.join_build_table_ns = std::max(0.0, 1e9 * t_build / joined);
      c.join_expand_ns = std::max(0.0, 1e9 * t_expand / joined);
    }

    double t_fail = 0;
    std::size_t failed = 0;
    for (std::size_t d = 0; d < departs; ++d) {
      const NodeIndex v = random_alive();
      const auto t0 = Clock::now();
      sub_->fail(v);
      t_fail += since(t0) - clock_pair;
      ++failed;
    }
    if (failed > 0) c.fail_ns = std::max(0.0, 1e9 * t_fail / failed);

    double t_purge = 0, t_repair = 0;
    std::size_t purges = 0, repairs = 0;
    ert::core::OverloadedSet seen;
    for (std::size_t l = 0; l < 20000 && repairs < 2000; ++l) {
      const std::size_t qid = next_qid_++;
      const std::uint64_t key = wr_.bits() % sub_->key_space();
      NodeIndex cur = random_alive();
      seen.clear();
      sub_->start_query(qid);
      for (int guard = 0; guard < 4096; ++guard) {
        const auto step = sub_->route_step(qid, cur, key, scratch_);
        if (step.arrived) break;
        auto& cands = scratch_.candidates;
        if (cands.size() > 1) {
          std::size_t live = 0;
          for (std::size_t i = 0; i < cands.size(); ++i) {
            if (sub_->alive(cands[i])) {
              cands[live++] = cands[i];
              continue;
            }
            const auto t0 = Clock::now();
            sub_->purge_dead(cur, cands[i]);
            t_purge += since(t0) - clock_pair;
            ++purges;
          }
          if (live > 0) cands.resize(live);
        }
        NodeIndex next = ert::dht::kNoNode;
        if (ert::dht::RoutingEntry* e = sub_->entry(cur, step.slot)) {
          next = forward_with(*e, cands, seen, cur, key).next;
        } else if (!cands.empty()) {
          next = cands[wr_.index(cands.size())];
        }
        if (next == ert::dht::kNoNode) break;
        if (!sub_->alive(next)) {
          auto t0 = Clock::now();
          sub_->purge_dead(cur, next);
          t_purge += since(t0) - clock_pair;
          ++purges;
          if (step.slot != ert::harness::kNoSlot) {
            t0 = Clock::now();
            sub_->repair_entry(cur, step.slot);
            t_repair += since(t0) - clock_pair;
            ++repairs;
          }
          continue;
        }
        cur = next;
      }
      sub_->finish_query(qid);
    }
    if (purges > 0) c.purge_dead_ns = std::max(0.0, 1e9 * t_purge / purges);
    if (repairs > 0) c.repair_entry_ns = std::max(0.0, 1e9 * t_repair / repairs);
  }

 private:
  struct FwdCall {
    NodeIndex cur;
    std::size_t slot;
    std::uint32_t cand_off, cand_len;
    std::uint32_t lookup;
  };

  int max_indegree_for(std::size_t r) {
    const double est = caps_.estimated(r, p_.gamma_c, rng_);
    return ert::core::max_indegree(p_.alpha(), est);
  }

  NodeIndex random_alive() {
    for (;;) {
      const NodeIndex v = wr_.index(sub_->num_slots());
      if (sub_->alive(v)) return v;
    }
  }

  ert::core::TopoForwardOptions forward_options() const {
    ert::core::TopoForwardOptions opts;
    opts.poll_size = p_.poll_size;
    opts.use_memory = p_.use_memory;
    opts.track_overloaded = p_.propagate_overloaded;
    return opts;
  }

  /// Algorithm 4 with the engine's probe, answered from synthetic loads.
  ert::core::ForwardStep forward_with(ert::dht::RoutingEntry& e,
                                      std::span<const NodeIndex> cands,
                                      ert::core::OverloadedSet& seen,
                                      NodeIndex cur, std::uint64_t key) {
    const auto probe = [&](NodeIndex cand) {
      ert::core::ProbeResult pr;
      const std::size_t r = real_of_[cand];
      pr.load = load_[r];
      pr.heavy = load_[r] > p_.gamma_l;
      pr.logical_distance = sub_->logical_distance_to_key(cand, key);
      pr.physical_distance = prox_.distance(real_of_[cur], r);
      pr.unit_load = 1.0 / caps_.normalized(r);
      return pr;
    };
    const auto dec = ert::core::forward_topology_aware(
        e, cands, seen, forward_options(), probe, wr_, fscratch_);
    for (NodeIndex o : fscratch_.newly_overloaded)
      if (seen.size() < ert::core::kOverloadedSetCap) seen.insert(o);
    return dec;
  }

  ert::core::ForwardStep forward(const FwdCall& f,
                                 ert::core::OverloadedSet& seen) {
    return forward_with(*sub_->entry(f.cur, f.slot),
                        std::span<const NodeIndex>(cands_).subspan(
                            f.cand_off, f.cand_len),
                        seen, f.cur, keys_[f.lookup]);
  }

  /// Walks one lookup, recording each route_step call and each
  /// forward_topology_aware call with its candidate set.
  void route_one(std::size_t lookup, NodeIndex src, std::uint64_t key) {
    const std::size_t qid = next_qid_++;
    sub_->start_query(qid);
    ert::core::OverloadedSet seen;
    NodeIndex cur = src;
    for (int guard = 0; guard < 4096; ++guard) {
      const auto step = sub_->route_step(qid, cur, key, scratch_);
      steps_.push_back(cur);
      if (step.arrived) break;
      const auto& cands = scratch_.candidates;
      NodeIndex next = ert::dht::kNoNode;
      if (ert::dht::RoutingEntry* e = sub_->entry(cur, step.slot)) {
        fwd_.push_back(FwdCall{cur, step.slot,
                               static_cast<std::uint32_t>(cands_.size()),
                               static_cast<std::uint32_t>(cands.size()),
                               static_cast<std::uint32_t>(lookup)});
        cands_.insert(cands_.end(), cands.begin(), cands.end());
        next = forward_with(*e, cands, seen, cur, key).next;
      } else if (!cands.empty()) {
        next = cands[wr_.index(cands.size())];
      }
      if (next == ert::dht::kNoNode) break;
      cur = next;
    }
    sub_->finish_query(qid);
  }

  const Workload& w_;
  ert::SimParams p_;
  ert::Rng rng_;  ///< the engine's stream: construction and joins.
  ert::Rng wr_;   ///< the replay's own stream.
  ert::core::CapacityModel caps_;
  ert::net::ProximityMap prox_;
  std::size_t ids_needed_ = 0;
  std::unique_ptr<SubstrateOps> sub_;
  std::vector<std::size_t> real_of_;  ///< overlay slot -> real node.
  std::vector<double> load_;          ///< synthetic congestion per real node.
  std::size_t next_qid_ = std::size_t{1} << 40;
  ert::dht::RouteScratch scratch_;
  ert::core::ForwardScratch fscratch_;
  std::vector<NodeIndex> steps_;  ///< node of every recorded route_step call.
  std::vector<std::uint64_t> keys_;
  std::vector<FwdCall> fwd_;
  std::vector<NodeIndex> cands_;
};

/// Schedule + dispatch cost of the event kernel: a hold model that keeps
/// `pending` events queued, each firing one 24-byte-capture closure (the
/// shape of the engine's arrive/service closures) that schedules the next.
double time_event_kernel(std::size_t pending, std::uint64_t seed) {
  constexpr std::size_t kEvents = std::size_t{1} << 20;
  struct Hold {
    ert::sim::Simulator sim;
    std::vector<double> delays;
    std::size_t scheduled = 0;
    std::size_t fired = 0;

    void fire(std::size_t qid, NodeIndex to) {
      ++fired;
      if (scheduled < kEvents) push(qid + 1, to ^ 1);
    }
    void push(std::size_t qid, NodeIndex to) {
      const double d = delays[scheduled++ & (delays.size() - 1)];
      sim.schedule(d, [this, qid, to] { fire(qid, to); });
    }
  };
  Hold h;
  ert::Rng rng(seed ^ kReplaySalt);
  h.delays.resize(4096);
  for (double& d : h.delays) d = rng.exponential(1.0);
  pending = std::clamp<std::size_t>(pending, 64, kEvents / 4);
  for (std::size_t i = 0; i < pending; ++i) h.push(i, 0);
  const auto t0 = Clock::now();
  h.sim.run();
  return 1e9 * since(t0) / static_cast<double>(h.fired);
}

}  // namespace

TraceSummary summarize(const std::vector<ert::trace::Record>& records) {
  using ert::trace::EventType;
  TraceSummary s;
  for (const auto& r : records) {
    switch (r.type) {
      case EventType::kQueryBegin: ++s.begins; break;
      case EventType::kQueryEnd: ++s.ends; break;
      case EventType::kQueryDrop: ++s.drops; break;
      case EventType::kQueryHop:
        ++s.hops;
        s.hop_candidates += r.aux;
        break;
      case EventType::kQueryOverload: ++s.overloads; break;
      case EventType::kQueryTimeout:
        if (r.aux == 0) ++s.timeouts_arrive;
        else if (r.aux == 1) ++s.timeouts_route;
        else ++s.timeouts_depart;
        break;
      case EventType::kAdaptShed:
      case EventType::kAdaptGrow:
        s.adapt.push_back(AdaptEvent{r.type == EventType::kAdaptGrow, r.node,
                                     static_cast<int>(r.aux), r.a, r.b});
        break;
      case EventType::kChurnJoin:
        if (r.a < 0) ++s.join_rejects;
        else ++s.joins;
        break;
      case EventType::kChurnDepart: ++s.departs; break;
      default: break;
    }
  }
  return s;
}

LayerCosts measure_layers(const Workload& w, const TraceSummary& trace,
                          std::size_t pending_events) {
  LayerCosts c;
  const double clock_pair = clock_pair_seconds();
  ReplayNet net(w);
  net.build(c);
  net.replay_adapt(trace.adapt, clock_pair, c);
  net.time_query_path(std::min<std::size_t>(w.params.num_lookups, 10000), c);
  c.decide_ns = net.time_decide();
  net.time_directory(c);
  c.event_ns = time_event_kernel(pending_events, w.params.seed);
  if (trace.joins + trace.departs > 0) {
    net.time_membership(std::clamp<std::size_t>(trace.joins, 1, 1000),
                        std::clamp<std::size_t>(trace.departs, 1, 1000),
                        clock_pair, c);
  }
  return c;
}

}  // namespace perfbench
