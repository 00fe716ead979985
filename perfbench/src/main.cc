// ring_perfbench: the repository's end-to-end benchmark.
//
//   ring_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   ring_perfbench --selftest
//
// --trace 0 runs a fixed number of episodes (each a fresh cluster with its
// own seed derived from --seed), about --seconds of host time at reference
// speed, and reports the end-to-end metrics: host metrics as the median
// over episodes at reference speed, modeled metrics pooled over the
// episodes' simulated outputs. --trace 1 runs the first episode twice,
// untraced and traced, and reports the per-layer metrics. The last line of
// stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
// everything before it is a human-readable report. See README.md for every
// metric.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "check.h"
#include "episode.h"
#include "kernel.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
int RunSelfTests();
}

namespace {

using namespace perfbench;

constexpr int kMinEpisodes = 3;
constexpr char kSpanDir[] = ".bench_out";

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool selftest = false;
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "ring_perfbench: %s\nusage: ring_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       ring_perfbench --selftest\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return a;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// A metric for the final JSON line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string JsonLine(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  return out;
}

uint64_t Failed(const EpisodeResult& r) {
  return r.errors + r.shed + r.undrained;
}

// Modeled outputs of a run, pooled over its episodes.
struct Pooled {
  std::vector<uint64_t> latency_ns[kNumOpTypes];
  uint64_t attempted = 0, errors = 0, shed = 0, undrained = 0;
  double unavail_ms = 0;   // median over episodes
  double recovery_ms = 0;  // median over episodes
  uint64_t windows = 0;    // per episode
  Digest digest;           // of the episodes' digests, in order
};

Pooled Pool(const std::vector<EpisodeResult>& eps) {
  Pooled p;
  std::vector<double> unavail, recovery;
  for (const EpisodeResult& r : eps) {
    for (int t = 0; t < kNumOpTypes; ++t) {
      p.latency_ns[t].insert(p.latency_ns[t].end(), r.latency_ns[t].begin(),
                             r.latency_ns[t].end());
    }
    p.attempted += r.attempted;
    p.errors += r.errors;
    p.shed += r.shed;
    p.undrained += r.undrained;
    p.windows = r.windows;
    unavail.push_back(static_cast<double>(r.unavail_windows));
    recovery.push_back(r.recovery_ms);
    p.digest.Add(r.digest);
  }
  p.unavail_ms = Median(unavail);
  p.recovery_ms = Median(recovery);
  return p;
}

// Percentile of one op type's latency samples in microseconds.
double LatencyUs(const Pooled& p, OpType t, double pct) {
  std::vector<uint64_t> v = p.latency_ns[t];
  return static_cast<double>(Percentile(&v, pct)) / 1e3;
}

// Reports every episode's output-check violations; true when there are
// none.
bool Checked(const std::vector<EpisodeResult>& eps) {
  bool ok = true;
  for (size_t i = 0; i < eps.size(); ++i) {
    const EpisodeResult& r = eps[i];
    if (r.violations > 0) {
      ok = false;
      std::printf("episode %zu: %llu output-check violations\n", i,
                  static_cast<unsigned long long>(r.violations));
      for (const std::string& m : r.messages) {
        std::printf("  %s\n", m.c_str());
      }
    }
    if (r.completed_in_loop == 0) {
      ok = false;
      std::printf("episode %zu: no op completed\n", i);
    }
  }
  return ok;
}

void PrintModeled(const WorkloadSpec& spec, const Pooled& p, size_t episodes) {
  std::printf("modeled outputs (simulated time, pooled over %zu episodes; "
              "identical for every repeat of the seed), digest %016llx:\n",
              episodes, static_cast<unsigned long long>(p.digest.value()));
  static const char* const kNames[] = {"put", "get", "move"};
  for (int t = 0; t < kNumOpTypes; ++t) {
    const size_t n = p.latency_ns[t].size();
    if (n == 0) {
      std::printf("  %s_p50_us / %s_p99_us: n/a (no %s ops)\n", kNames[t],
                  kNames[t], kNames[t]);
      continue;
    }
    std::printf("  %s_p50_us %10.3f us   %s_p99_us %10.3f us   (n=%zu)\n",
                kNames[t], LatencyUs(p, static_cast<OpType>(t), 50), kNames[t],
                LatencyUs(p, static_cast<OpType>(t), 99), n);
  }
  const uint64_t failed = p.errors + p.shed + p.undrained;
  std::printf("  ops_failed_ratio %.6f   (%llu of %llu attempted: %llu "
              "errors/give-ups, %llu shed, %llu undrained)\n",
              static_cast<double>(failed) / std::max<uint64_t>(1, p.attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(p.attempted),
              static_cast<unsigned long long>(p.errors),
              static_cast<unsigned long long>(p.shed),
              static_cast<unsigned long long>(p.undrained));
  std::printf("  unavail_ms %.3f ms   (median over episodes of the 1 ms "
              "windows, of %llu, below half the median window; n=%zu)\n",
              p.unavail_ms, static_cast<unsigned long long>(p.windows),
              episodes);
  if (spec.crash) {
    std::printf("  recovery_ms %.3f ms   (median over episodes of crash to "
                "replacement serving with data recovered; n=%zu)\n",
                p.recovery_ms, episodes);
  } else {
    std::printf("  recovery_ms: n/a (no crash in this workload)\n");
  }
}

int RunMeasured(const WorkloadSpec& spec, const Args& args) {
  const int episodes = std::max(
      kMinEpisodes,
      static_cast<int>(std::lround(args.seconds / spec.episode_host_s)));
  std::vector<EpisodeResult> eps;
  double peak_rss = 0;
  for (int e = 0; e < episodes; ++e) {
    EpisodeOptions opt;
    opt.seed = EpisodeSeed(args.seed, static_cast<uint32_t>(e));
    eps.push_back(RunEpisode(spec, opt));
    if (e == 0) {
      // Later episodes reuse the first one's freed heap; their high-water
      // mark adds allocator fragmentation, not program memory.
      peak_rss = PeakRssMb();
    }
  }
  const bool ok = Checked(eps);
  const Pooled pooled = Pool(eps);

  std::vector<double> rate, setup, raw_rate, raw_setup, kern;
  std::printf("workload %s seed %llu: %zu episodes of %.0f ms simulated\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              eps.size(), spec.duration_ns / 1e6);
  std::printf("%-4s %14s %14s %10s %10s %10s %12s\n", "ep", "ops/host-s",
              "raw ops/s", "setup_s", "raw setup", "wall_s", "kernel_ms");
  for (size_t i = 0; i < eps.size(); ++i) {
    const EpisodeResult& r = eps[i];
    rate.push_back(r.ops_per_host_s);
    setup.push_back(r.setup_scaled_s);
    const double raw = r.completed_in_loop / (r.loop_raw_ns / 1e9);
    raw_rate.push_back(raw);
    raw_setup.push_back(r.setup_raw_s);
    const double k = Median(r.slice_kernel_ns) / 1e6;
    kern.push_back(k);
    std::printf("%-4zu %14.1f %14.1f %10.4f %10.4f %10.3f %12.4f\n", i,
                r.ops_per_host_s, raw, r.setup_scaled_s, r.setup_raw_s,
                r.loop_raw_ns / 1e9, k);
  }
  std::printf("host (reference speed; kernel nominal %.2f ms):\n",
              kNominalKernelNs / 1e6);
  std::printf("  sim_ops_per_host_s %.1f 1/s   (median of %zu episodes; raw "
              "%.1f)\n",
              Median(rate), rate.size(), Median(raw_rate));
  std::printf("  setup_s %.6f s   (median of %zu set-ups; raw %.6f)\n",
              Median(setup), setup.size(), Median(raw_setup));
  std::printf("  peak_rss_mb %.1f MB   (after the first episode)\n", peak_rss);
  std::printf("  host.ref_kernel_ms %.4f ms (median pass)\n", Median(kern));
  PrintModeled(spec, pooled, eps.size());

  const uint64_t failed = pooled.errors + pooled.shed + pooled.undrained;
  const std::vector<Metric> metrics = {
      {"sim_ops_per_host_s", Median(rate), "1/s"},
      {"setup_s", Median(setup), "s"},
      {"peak_rss_mb", peak_rss, "MB"},
      {"put_p50_us", LatencyUs(pooled, kPut, 50), "us"},
      {"put_p99_us", LatencyUs(pooled, kPut, 99), "us"},
  };
  std::printf("%s\n", JsonLine(ok, pooled.attempted, failed, metrics).c_str());
  return 0;
}

// One per-layer row of the traced report: value, unit, and the end-to-end
// metric the layer metric should move.
struct LayerRow {
  const char* name;
  double value;
  const char* unit;
  const char* moves;
  // Defined on every workload, so part of the JSON line. Rows that are not
  // (workload-specific ones) are printed in the report only.
  bool in_json = true;
  // False when the workload does not exercise the metric (printed "n/a").
  bool applicable = true;
};

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  SpanLog spans;
  EpisodeOptions plain;
  plain.seed = EpisodeSeed(args.seed, 0);
  EpisodeOptions traced = plain;
  traced.traced = true;
  traced.spans = &spans;
  std::vector<EpisodeResult> eps;
  eps.push_back(RunEpisode(spec, plain));
  spans.Enable(true);
  eps.push_back(RunEpisode(spec, traced));
  spans.Enable(false);
  bool ok = Checked(eps);
  const EpisodeResult& u = eps[0];
  const EpisodeResult& t = eps[1];
  if (t.digest != u.digest) {
    ok = false;
    std::printf("traced episode digest %016llx differs from the untraced "
                "one (%016llx): tracing perturbed the simulation\n",
                static_cast<unsigned long long>(t.digest),
                static_cast<unsigned long long>(u.digest));
  }

  const double ops = std::max<uint64_t>(1, u.completed_in_loop);
  const double attempted = std::max<uint64_t>(1, u.attempted);
  const double puts = std::max<uint64_t>(1, u.puts_attempted);
  const double overhead_pct = (t.loop_scaled_ns / u.loop_scaled_ns - 1) * 100;
  const bool rep = !spec.erasure_coded;
  static const char* const kOp[] = {"put", "get", "move"};
  static const char* const kPhase[] = {"network", "coding", "cpu", "queue",
                                       "wait"};

  std::vector<LayerRow> rows = {
      {"sim.events_per_op", u.events / ops, "events/op",
       "sim_ops_per_host_s (put_rep3, ec_move)"},
      {"sim.host_ns_per_event", u.loop_scaled_ns / std::max<uint64_t>(1, u.events),
       "ns", "sim_ops_per_host_s (all)"},
      {"sim.event_host_ns_p50", t.event_ns_p50, "ns",
       "sim_ops_per_host_s (put_rep3, read_zipf)"},
      {"sim.event_host_ns_p999", t.event_ns_p999, "ns",
       "sim_ops_per_host_s (crash_recover)"},
      {"sim.event_host_ns_max", t.event_ns_max, "ns",
       "sim_ops_per_host_s (crash_recover)"},
      {"sim.queue_depth_max", static_cast<double>(u.queue_depth_max), "count",
       "sim_ops_per_host_s (put_rep3)"},
      {"sim.task_pool_hit_pct", u.task_pool_hit_pct, "%",
       "sim_ops_per_host_s (put_rep3)"},
      {"sim.task_inline_pct", u.task_inline_pct, "%",
       "sim_ops_per_host_s (put_rep3)"},
      {"sim.server_cpu_util_max", u.server_cpu_util_max, "ratio",
       "put_p99_us (put_rep3)"},
      {"sim.client_cpu_util", u.client_cpu_util, "ratio",
       "get_p99_us (read_zipf)"},
      {"net.msgs_per_op", u.msgs / ops, "msgs/op",
       "sim.events_per_op, sim_ops_per_host_s (put_rep3, ec_move)"},
      {"net.bytes_per_op", u.bytes / ops, "B/op",
       "sim.events_per_op, sim_ops_per_host_s (put_rep3, ec_move)"},
      {"net.nacks", static_cast<double>(u.nacks), "count",
       "recovery_ms (crash_recover)"},
      {"ring.server.replica_appends_per_put", u.replica_appends / puts,
       "count/put", "sim_ops_per_host_s (put_rep3)"},
      {"ring.server.commits_per_op", u.commits / ops, "count/op",
       "sim_ops_per_host_s (put_rep3)"},
      {"ring.server.parity_updates_per_put", u.parity_updates / puts,
       "count/put", "sim_ops_per_host_s (ec_move)"},
      {"ring.server.retransmits", u.retransmits / attempted, "ratio",
       "ops_failed_ratio, get_p99_us (crash_recover, ec_move)"},
      {"ring.server.resent_replies", u.resent_replies / attempted, "ratio",
       "ops_failed_ratio, get_p99_us (crash_recover, ec_move)"},
      {"ring.server.op_restarts", u.op_restarts / attempted, "ratio",
       "ops_failed_ratio, get_p99_us (crash_recover, ec_move)"},
      {"ring.server.deferred_gets", u.deferred_gets / attempted, "ratio",
       "ops_failed_ratio, get_p99_us (crash_recover, ec_move)"},
      {"ring.server.blocks_recovered", static_cast<double>(u.blocks_recovered),
       "count", "recovery_ms (crash_recover)"},
      {"ring.server.metadata_bytes", static_cast<double>(u.metadata_bytes), "B",
       "peak_rss_mb (put_rep3, ec_move)"},
      {"ring.server.stored_per_live", u.stored_per_live, "ratio",
       "peak_rss_mb (put_rep3, ec_move)"},
      {"ring.client.issue_host_ns_per_op", t.issue_host_ns_per_op, "ns",
       "sim_ops_per_host_s (read_zipf)"},
      {"ring.client.timeouts", static_cast<double>(u.client_timeouts), "count",
       "ops_failed_ratio, unavail_ms (crash_recover)"},
      {"ring.client.hedges", static_cast<double>(u.client_hedges), "count",
       "ops_failed_ratio, unavail_ms (crash_recover)"},
      {"ring.client.shed", static_cast<double>(u.shed), "count",
       "ops_failed_ratio, unavail_ms (crash_recover)"},
      {"workload.next_host_ns_per_op", t.next_host_ns_per_op, "ns",
       "sim_ops_per_host_s (read_zipf)"},
      {"setup.cluster_s", u.setup_cluster_s, "s", "setup_s (all)"},
      {"setup.memgest_s", u.setup_memgest_s, "s", "setup_s (all)"},
      {"setup.preload_s", u.setup_preload_s, "s", "setup_s (all)"},
  };
  // The modeled phase split: only the puts' network, cpu, queue and wait
  // parts exist on every workload; coding is zero on REP3 and gets/moves
  // are absent on some workloads, so those rows stay in the report only.
  std::vector<std::string> model_names;
  model_names.reserve(kNumOpTypes * 5);
  for (int op = 0; op < kNumOpTypes; ++op) {
    const ModelBreakdown& m = t.model[op];
    const double phase[] = {m.network_us, m.coding_us, m.cpu_us, m.queue_us,
                            m.wait_us};
    for (int p = 0; p < 5; ++p) {
      model_names.push_back(std::string("model.") + kOp[op] + "." + kPhase[p] +
                            "_us");
      // Only the puts' network, cpu and queue phases are non-zero on every
      // workload (REP3 puts neither code nor wait).
      const bool universal = op == kPut && p != 1 && p != 4;
      const bool applicable = m.ops > 0 && !(p == 1 && rep);
      rows.push_back({model_names.back().c_str(), phase[p], "us",
                      op == kPut ? "put_p50_us" : (op == kGet ? "get_p50_us"
                                                              : "move_p50_us"),
                      universal, applicable});
    }
  }
  rows.push_back({"consensus.detect_us", u.detect_us, "us",
                  "unavail_ms, recovery_ms (crash_recover)", false,
                  spec.crash});
  rows.push_back({"consensus.config_changes",
                  static_cast<double>(u.config_changes), "count",
                  "unavail_ms, recovery_ms (crash_recover)"});
  rows.push_back({"recovery.host_s", u.recovery_host_s, "s",
                  "sim_ops_per_host_s (crash_recover)", false, spec.crash});
  rows.push_back({"alloc.per_op", t.allocs_per_op, "allocs/op",
                  "sim_ops_per_host_s (put_rep3), peak_rss_mb"});
  rows.push_back({"alloc.bytes_per_op", t.alloc_bytes_per_op, "B/op",
                  "sim_ops_per_host_s (put_rep3), peak_rss_mb"});
  rows.push_back({"alloc.issue_per_op", t.issue_allocs_per_op, "allocs/op",
                  "sim_ops_per_host_s (read_zipf)"});
  rows.push_back({"host.wall_s", u.loop_raw_ns / 1e9, "s", "none (drift)"});
  rows.push_back({"host.ref_kernel_ms", Median(u.slice_kernel_ns) / 1e6, "ms",
                  "none (drift)"});
  rows.push_back({"obs.trace_overhead_pct", overhead_pct, "%",
                  "none (overhead)"});

  std::printf("workload %s seed %llu: traced run (one untraced + one traced "
              "episode of %.0f ms simulated)\n",
              spec.name, static_cast<unsigned long long>(args.seed),
              spec.duration_ns / 1e6);
  std::printf("%-38s %16s %-10s %s\n", "per-layer metric", "value", "unit",
              "should move");
  for (const LayerRow& row : rows) {
    if (row.applicable) {
      std::printf("%-38s %16.6g %-10s %s\n", row.name, row.value, row.unit,
                  row.moves);
    } else {
      std::printf("%-38s %16s %-10s %s\n", row.name, "n/a", row.unit,
                  row.moves);
    }
  }
  if (spec.crash) {
    std::printf("recovery.host_s %.4f s of the %.4f s scaled loop total "
                "(%.1f%%)\n",
                u.recovery_host_s, u.loop_scaled_ns / 1e9,
                100 * u.recovery_host_s / (u.loop_scaled_ns / 1e9));
  }
  std::printf("model phase split: %llu put, %llu get, %llu move ops traced\n",
              static_cast<unsigned long long>(t.model[kPut].ops),
              static_cast<unsigned long long>(t.model[kGet].ops),
              static_cast<unsigned long long>(t.model[kMove].ops));

  // The span log goes under the working directory (the checkout root when
  // run through run.py).
  const std::string path = std::string(kSpanDir) + "/spans-" + spec.name +
                           ".json";
  std::error_code ec;
  std::filesystem::create_directories(kSpanDir, ec);
  if (!ec && spans.WriteChromeTrace(path)) {
    std::printf("spans: %zu kept, %llu dropped, written to %s\n", spans.size(),
                static_cast<unsigned long long>(spans.dropped()), path.c_str());
  } else {
    std::printf("spans: could not write %s\n", path.c_str());
  }

  std::vector<Metric> metrics;
  for (const LayerRow& row : rows) {
    if (row.in_json) {
      metrics.push_back({row.name, row.value, row.unit});
    }
  }
  uint64_t failed = 0, total = 0;
  for (const EpisodeResult& r : eps) {
    failed += Failed(r);
    total += r.attempted;
  }
  std::printf("%s\n", JsonLine(ok, total, failed, metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  if (args.selftest) {
    return RunSelfTests();
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (args.trace != 0 && args.trace != 1) {
    Usage("--trace must be 0 or 1");
  }
  // Warm-up passes: the first ones touch the kernel's arena for the first
  // time and would read slow.
  for (int i = 0; i < 3; ++i) {
    RunKernelPass();
  }
  return args.trace == 1 ? RunTraced(*spec, args) : RunMeasured(*spec, args);
}
