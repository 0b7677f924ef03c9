// ertbench: one process = one measurement, printed as one JSON line.
//
//   ertbench info
//   ertbench run   <workload> <seed> [--smoke]   one untraced run_experiment
//   ertbench build <workload> <seed> [--smoke]   one run_build_only
//   ertbench trace <workload> <seed> [--smoke]   one traced run_experiment,
//                                                then the per-layer replay
//
// run.py drives these processes, repeats them, checks the outputs and
// reports medians; see README.md.
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/rss.h"
#include "harness/experiment.h"
#include "layers.h"
#include "workload.h"

namespace {

using ert::harness::ExperimentResult;
using perfbench::Workload;

/// Builds one flat JSON object; doubles keep all 17 significant digits.
class JsonLine {
 public:
  JsonLine& num(const char* k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(k, buf);
  }
  JsonLine& count(const char* k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  JsonLine& flag(const char* k, bool v) { return raw(k, v ? "true" : "false"); }
  JsonLine& str(const char* k, const std::string& v) {
    return raw(k, "\"" + v + "\"");
  }
  JsonLine& object(const char* k, const JsonLine& inner) {
    return raw(k, inner.text());
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  JsonLine& raw(const char* k, const std::string& v) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(k) + "\": " + v;
    return *this;
  }
  std::string body_;
};

/// FNV-1a over the bit patterns of every scalar the result carries, so
/// "identical" means identical doubles, not identical printf roundings.
class Checksum {
 public:
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string result_checksum(const ExperimentResult& r) {
  Checksum c;
  for (double v : {r.p99_max_congestion, r.mean_max_congestion,
                   r.min_cap_node_congestion, r.p99_share, r.avg_path_length,
                   r.lookup_time.mean, r.lookup_time.p01, r.lookup_time.p99,
                   r.avg_timeouts, r.max_indegree.mean, r.max_indegree.p01,
                   r.max_indegree.p99, r.max_outdegree.mean,
                   r.max_outdegree.p01, r.max_outdegree.p99, r.sim_duration})
    c.add(v);
  for (std::size_t v : {r.heavy_encounters, r.completed_lookups,
                        r.dropped_lookups, r.dropped_overload, r.dropped_fault,
                        r.final_nodes, r.adapt_sheds, r.adapt_grows})
    c.add(static_cast<std::uint64_t>(v));
  return c.hex();
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

JsonLine params_json(const Workload& w) {
  const ert::SimParams& p = w.params;
  JsonLine j;
  j.str("substrate", ert::harness::to_string(w.kind))
      .str("protocol", std::string(ert::harness::to_string(w.proto)))
      .count("num_nodes", p.num_nodes)
      .count("dimension", static_cast<std::uint64_t>(p.dimension))
      .count("num_lookups", p.num_lookups)
      .num("lookup_rate", p.lookup_rate)
      .num("light_service_time", p.light_service_time)
      .num("heavy_service_time", p.heavy_service_time)
      .count("queue_cap", p.queue_cap)
      .num("churn_interarrival", p.churn_interarrival)
      .num("adapt_period", p.adapt_period)
      .count("sim_threads", static_cast<std::uint64_t>(p.sim_threads))
      .count("seed", p.seed);
  return j;
}

JsonLine result_json(const Workload& w, const ExperimentResult& r,
                     double wall) {
  JsonLine j;
  j.num("wall_s", wall)
      .count("issued", w.params.num_lookups)
      .count("completed", r.completed_lookups)
      .count("dropped", r.dropped_lookups)
      .num("sim_lookup_mean_s", r.lookup_time.mean)
      .num("sim_lookup_p99_s", r.lookup_time.p99)
      .num("sim_p99_congestion", r.p99_max_congestion)
      .num("sim_path_hops", r.avg_path_length)
      .num("sim_duration_s", r.sim_duration)
      .str("checksum", result_checksum(r));
  return j;
}

int cmd_run(const Workload& w) {
  const auto t0 = std::chrono::steady_clock::now();
  const ExperimentResult r =
      ert::harness::run_experiment(w.params, w.proto, w.kind);
  const double wall = seconds_since(t0);
  JsonLine j = result_json(w, r, wall);
  j.count("peak_rss_kib", ert::peak_rss_kb()).object("params", params_json(w));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int cmd_build(const Workload& w) {
  const auto b = ert::harness::run_build_only(w.params, w.proto, w.kind);
  JsonLine j;
  j.num("build_s", b.build_seconds)
      .count("real_nodes", b.real_nodes)
      .count("overlay_slots", b.overlay_slots)
      .count("peak_rss_kib", b.peak_rss_kb);
  std::printf("%s\n", j.text().c_str());
  return 0;
}

double share(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

int cmd_trace(const Workload& w) {
  ert::harness::ExperimentOptions opts;
  opts.trace.enabled = true;
  opts.trace.capacity = w.trace_capacity;
  // Per-link adopt/shed records are the only category not needed here;
  // Algorithm 3's gains come from the adapt records' before/after.
  opts.trace.categories =
      ert::trace::kAllCategories &
      ~static_cast<std::uint32_t>(ert::trace::Category::kLink);
  const auto t0 = std::chrono::steady_clock::now();
  ExperimentResult r =
      ert::harness::run_experiment(w.params, w.proto, w.kind, opts);
  const double wall = seconds_since(t0);
  const perfbench::TraceSummary t = perfbench::summarize(r.trace_records);
  const std::size_t trace_emitted = r.trace_emitted;
  const std::size_t trace_dropped = r.trace_dropped;
  r.trace_records = {};

  const ert::SimParams& p = w.params;
  // Queued events at steady state: about one per lookup in flight
  // (Little's law) plus one pending service per busy node.
  const auto pending = static_cast<std::size_t>(
      2.0 * p.lookup_rate * r.lookup_time.mean);
  const perfbench::LayerCosts c = perfbench::measure_layers(w, t, pending);

  // Calls per layer, from the trace and the engine's event model.
  const bool adapts = ert::harness::uses_adaptation(w.proto);
  const bool forwards = ert::harness::uses_forwarding(w.proto);
  const auto sweeps = adapts ? static_cast<std::size_t>(std::llround(
                                   r.sim_duration / p.adapt_period))
                             : std::size_t{0};
  // Every sweep visits every node (the Algorithm-3 rows have no churn).
  const std::size_t decisions = sweeps * p.num_nodes;
  std::size_t sheds = 0, grows = 0;
  std::int64_t requested = 0, gained = 0;
  for (const auto& ev : t.adapt) {
    if (!ev.grow) {
      ++sheds;
      continue;
    }
    ++grows;
    requested += ev.delta;
    gained += ev.after - ev.before;
  }
  const std::size_t route_calls = t.hops + t.timeouts_route + t.ends;
  const std::size_t fwd_calls = forwards ? t.hops + t.timeouts_route : 0;
  // One issue event per lookup, one arrival per hop (plus timeout
  // re-deliveries), one service completion per queued arrival, the periodic
  // sweeps, and the churn events.
  const std::size_t events = 2 * t.begins + 2 * t.hops + t.timeouts_arrive +
                             sweeps + t.joins + t.join_rejects + t.departs;
  const double ns = 1e-9;

  const double add_node_s = c.add_node_s + t.joins * c.join_add_node_ns * ns;
  const std::size_t build_calls = c.build_table_calls + t.joins;
  const double build_s = c.build_table_s + t.joins * c.join_build_table_ns * ns;
  const double init_expand_s = c.initial_expand_s + t.joins * c.join_expand_ns * ns;
  const double adapt_s = decisions * c.decide_ns * ns;
  const double route_s = route_calls * c.route_step_ns * ns;
  const double fwd_s = fwd_calls * c.forward_ns * ns;
  const double sim_s = events * c.event_ns * ns;
  const double fail_s = t.departs * c.fail_ns * ns;
  const double purge_s = t.timeouts_route * c.purge_dead_ns * ns;
  const double repair_s = t.timeouts_route * c.repair_entry_ns * ns;
  const double attributed = add_node_s + build_s + init_expand_s + c.expand_s +
                            c.shed_s + adapt_s + route_s + fwd_s + sim_s +
                            fail_s + purge_s + repair_s;
  const double self_s = wall - attributed;

  JsonLine m;
  m.count("ert.adapt.decisions", decisions)
      .count("ert.adapt.sheds", sheds)
      .count("ert.adapt.grows", grows)
      .num("ert.adapt.idle_share",
           decisions ? 1.0 - share(sheds + grows, decisions) : 0.0)
      .num("ert.adapt.ns", c.decide_ns)
      .num("ert.adapt.busy_s", adapt_s)
      .count("overlay.expand_indegree.calls", grows)
      .num("overlay.expand_indegree.ns", grows ? c.expand_s / grows / ns : 0.0)
      .num("overlay.expand_indegree.busy_s", c.expand_s)
      .num("overlay.expand_indegree.gain_ratio", share(gained, requested))
      .count("overlay.shed_indegree.calls", sheds)
      .num("overlay.shed_indegree.ns", sheds ? c.shed_s / sheds / ns : 0.0)
      .num("overlay.shed_indegree.busy_s", c.shed_s)
      .count("overlay.route_step.calls", route_calls)
      .num("overlay.route_step.ns", c.route_step_ns)
      .num("overlay.route_step.busy_s", route_s)
      .num("overlay.candidates_per_hop", share(t.hop_candidates, t.hops))
      .count("ert.forward.calls", fwd_calls)
      .num("ert.forward.ns", c.forward_ns)
      .num("ert.forward.busy_s", fwd_s)
      .num("ert.forward.probes_per_call", c.probes_per_call)
      .count("ert.overload_encounters", t.overloads)
      .count("sim.events", events)
      .num("sim.events_per_lookup", share(events, t.begins))
      .num("sim.ns_per_event", c.event_ns)
      .num("sim.busy_s", sim_s)
      .count("overlay.add_node.calls", c.add_node_calls + t.joins)
      .num("overlay.add_node.busy_s", add_node_s)
      .count("overlay.build_table.calls", build_calls)
      .num("overlay.build_table.ns", share(build_s, build_calls) / ns)
      .num("overlay.build_table.busy_s", build_s)
      .count("overlay.initial_expand.calls", c.initial_expand_calls + t.joins)
      .num("overlay.initial_expand.busy_s", init_expand_s)
      .num("dht.successor.ns", c.dir_successor_ns)
      .num("dht.owner_of.ns", c.dir_owner_of_ns)
      .num("dht.predecessors_of.ns", c.dir_predecessors_of_ns)
      .num("dht.insert_erase.ns", c.dir_insert_erase_ns)
      .count("churn.joins", t.joins)
      .num("churn.join_reject_share", share(t.join_rejects, t.joins + t.join_rejects))
      .count("churn.departs", t.departs)
      .count("overlay.fail.calls", t.departs)
      .num("overlay.fail.busy_s", fail_s)
      .count("overlay.purge_dead.calls", t.timeouts_route)
      .num("overlay.purge_dead.busy_s", purge_s)
      .count("overlay.repair_entry.calls", t.timeouts_route)
      .num("overlay.repair_entry.busy_s", repair_s)
      .num("harness.wall_s", wall)
      .num("harness.attributed_s", attributed)
      .num("harness.self_s", self_s)
      .num("harness.self_share", share(self_s, wall))
      .count("trace.records", trace_emitted);

  JsonLine j = result_json(w, r, wall);
  j.count("trace_emitted", trace_emitted)
      .count("trace_dropped", trace_dropped)
      .flag("adapt_replay_exact", c.adapt_exact)
      .object("layers", m)
      .object("params", params_json(w));
  std::printf("%s\n", j.text().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ertbench info\n"
               "       ertbench run|build|trace <workload> <seed> [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "info") == 0) {
    JsonLine j;
    j.count("hardware_concurrency", std::thread::hardware_concurrency())
        .str("build_type", PERFBENCH_BUILD_TYPE);
    std::printf("%s\n", j.text().c_str());
    return 0;
  }
  if (argc < 4 || argc > 5) return usage();
  const std::string mode = argv[1];
  const bool smoke = argc == 5 && std::strcmp(argv[4], "--smoke") == 0;
  if (argc == 5 && !smoke) return usage();
  char* end = nullptr;
  const std::uint64_t seed = std::strtoull(argv[3], &end, 10);
  if (end == argv[3] || *end != '\0') return usage();
  Workload w;
  if (!perfbench::make_workload(argv[2], seed, smoke, &w)) {
    std::fprintf(stderr, "ertbench: unknown workload '%s'\n", argv[2]);
    return 2;
  }
  if (mode == "run") return cmd_run(w);
  if (mode == "build") return cmd_build(w);
  if (mode == "trace") return cmd_trace(w);
  return usage();
}
