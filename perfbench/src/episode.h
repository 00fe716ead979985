// One benchmark episode: build a RingCluster for a workload, preload it,
// drive it open-loop through the public RingClient API for a fixed span of
// simulated time, drain, read every key back, and collect host, modeled and
// per-layer numbers. An episode is a pure function of (workload, seed) in
// everything simulated; only host timings differ between repeats.
#ifndef PERFBENCH_SRC_EPISODE_H_
#define PERFBENCH_SRC_EPISODE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/params.h"

namespace perfbench {

class SpanLog;

struct WorkloadSpec {
  const char* name;
  uint32_t clients;
  double rate_per_client;  // ops per simulated second, Poisson arrivals
  uint64_t num_keys;
  double get_fraction;
  bool zipfian;            // Zipf 0.99, else uniform
  bool erasure_coded;      // keys live in SRS(3,2), else REP3
  uint32_t move_every;     // every n-th op of a client is a move; 0: none
  bool preload;            // write every key once during set-up
  uint32_t spares;
  bool light_client;       // fig9's light-sender client costs
  bool crash;              // crash a coordinator mid-run, restart it later
  ring::sim::SimTime duration_ns;  // measured simulated time
  ring::sim::SimTime slice_ns;     // one kernel pass per slice
  // Host seconds one episode takes at reference speed; a run of --seconds
  // s makes max(3, round(s / episode_host_s)) episodes.
  double episode_host_s;
};

// The four workloads; nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);
const std::vector<WorkloadSpec>& AllWorkloads();

// Ops each client may have outstanding; ops beyond it are shed.
inline constexpr uint32_t kWindowPerClient = 128;

enum OpType : int { kPut = 0, kGet = 1, kMove = 2, kNumOpTypes = 3 };

struct ModelBreakdown {
  uint64_t ops = 0;
  double network_us = 0, coding_us = 0, cpu_us = 0, queue_us = 0,
         wait_us = 0;
};

struct EpisodeResult {
  // ---- host (ns unless noted) ----
  std::vector<double> slice_loop_ns;    // raw loop time per slice
  std::vector<double> slice_kernel_ns;  // kernel pass after each slice
  double loop_raw_ns = 0;
  double loop_scaled_ns = 0;
  double setup_raw_s = 0;
  double setup_scaled_s = 0;
  double setup_cluster_s = 0;  // scaled
  double setup_memgest_s = 0;  // scaled
  double setup_preload_s = 0;  // scaled
  double recovery_host_s = 0;  // scaled, crash slice .. recovery slice
  double ops_per_host_s = 0;   // completed-in-loop ops / scaled loop time

  // ---- modeled ----
  uint64_t attempted = 0;
  uint64_t completed_in_loop = 0;
  uint64_t errors = 0;            // non-ok replies (client give-ups too)
  uint64_t shed = 0;
  uint64_t undrained = 0;         // no reply by the end of the drain
  std::vector<uint64_t> latency_ns[kNumOpTypes];
  uint64_t windows = 0;           // 1 ms completion windows measured
  uint64_t unavail_windows = 0;
  double recovery_ms = 0;
  double detect_us = 0;
  uint64_t config_changes = 0;
  uint64_t digest = 0;

  // ---- per-layer counts (deltas over the measured loop) ----
  uint64_t events = 0;
  uint64_t queue_depth_max = 0;
  double task_pool_hit_pct = 0;
  double task_inline_pct = 0;
  double server_cpu_util_max = 0;
  double client_cpu_util = 0;
  uint64_t msgs = 0, bytes = 0, nacks = 0;
  uint64_t replica_appends = 0, commits = 0, parity_updates = 0;
  uint64_t retransmits = 0, resent_replies = 0, op_restarts = 0,
           deferred_gets = 0, blocks_recovered = 0;
  uint64_t puts_attempted = 0;
  uint64_t metadata_bytes = 0;
  double stored_per_live = 0;
  uint64_t client_timeouts = 0, client_hedges = 0;

  // ---- traced episode only ----
  double event_ns_p50 = 0, event_ns_p999 = 0, event_ns_max = 0;
  double issue_host_ns_per_op = 0;
  double next_host_ns_per_op = 0;
  double allocs_per_op = 0, alloc_bytes_per_op = 0, issue_allocs_per_op = 0;
  ModelBreakdown model[kNumOpTypes];

  // ---- output checks ----
  uint64_t violations = 0;
  std::vector<std::string> messages;
};

// Episode e of a run with seed s uses seed EpisodeSeed(s, e): each episode
// of a run simulates different inputs, and the same (s, e) always the same.
inline uint64_t EpisodeSeed(uint64_t run_seed, uint32_t episode) {
  return run_seed * 1000 + episode;
}

struct EpisodeOptions {
  uint64_t seed = 1;  // EpisodeSeed(run seed, episode)
  bool traced = false;
  SpanLog* spans = nullptr;  // traced episodes record into it
};

EpisodeResult RunEpisode(const WorkloadSpec& spec, const EpisodeOptions& opt);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_EPISODE_H_
