#include "episode.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>

#include "bench/bench_util.h"
#include "alloc_count.h"
#include "check.h"
#include "kernel.h"
#include "src/obs/trace.h"
#include "src/sim/task.h"
#include "spans.h"
#include "stats.h"
#include "src/workload/ycsb.h"

namespace perfbench {

namespace {

using ring::sim::kMicrosecond;
using ring::sim::kMillisecond;
using ring::sim::SimTime;
using Clock = std::chrono::steady_clock;

double HostNs(Clock::time_point a, Clock::time_point b) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Crash schedule of crash_recover, relative to the start of the measured
// loop: the shard-1 coordinator fails at kCrashAt and restarts memory-less
// at kRestartAt (it rejoins as the new spare).
constexpr SimTime kCrashAt = 40 * kMillisecond;
constexpr SimTime kRestartAt = 90 * kMillisecond;
constexpr ring::net::NodeId kVictim = 1;
// crash_recover advances in steps this fine, so detection and recovery are
// timed to this resolution (observation only: the schedule is unchanged).
constexpr SimTime kCrashStep = 50 * kMicrosecond;
constexpr SimTime kWindow = kMillisecond;  // availability window
constexpr SimTime kDrainLimit = 500 * kMillisecond;
constexpr uint32_t kReadBackBatch = 256;
// Kernel passes within this many slices form a slice's speed estimate.
constexpr size_t kKernelRadius = 2;

const std::vector<WorkloadSpec>& Table() {
  static const std::vector<WorkloadSpec> table = {
      {.name = "put_rep3",
       .clients = 4, .rate_per_client = 150'000, .num_keys = 100'000,
       .get_fraction = 0.0, .zipfian = false, .erasure_coded = false,
       .move_every = 0, .preload = false, .spares = 0, .light_client = true,
       .crash = false, .duration_ns = 200 * kMillisecond,
       .slice_ns = 10 * kMillisecond, .episode_host_s = 3.9},
      {.name = "read_zipf",
       .clients = 1, .rate_per_client = 300'000, .num_keys = 20'000,
       .get_fraction = 0.95, .zipfian = true, .erasure_coded = false,
       .move_every = 0, .preload = true, .spares = 0, .light_client = false,
       .crash = false, .duration_ns = 400 * kMillisecond,
       .slice_ns = 40 * kMillisecond, .episode_host_s = 1.4},
      {.name = "ec_move",
       .clients = 2, .rate_per_client = 150'000, .num_keys = 20'000,
       .get_fraction = 0.5, .zipfian = true, .erasure_coded = true,
       .move_every = 20, .preload = true, .spares = 0, .light_client = false,
       .crash = false, .duration_ns = 300 * kMillisecond,
       .slice_ns = 20 * kMillisecond, .episode_host_s = 1.6},
      {.name = "crash_recover",
       .clients = 2, .rate_per_client = 50'000, .num_keys = 20'000,
       .get_fraction = 0.5, .zipfian = false, .erasure_coded = true,
       .move_every = 0, .preload = true, .spares = 1, .light_client = false,
       .crash = true, .duration_ns = 200 * kMillisecond,
       .slice_ns = 10 * kMillisecond, .episode_host_s = 3.0},
  };
  return table;
}

uint64_t ParseRank(const std::string& key) {
  uint64_t r = 0;
  for (char c : key) {
    r = r * 10 + static_cast<uint64_t>(c - '0');
  }
  return r;
}

struct ServerTotals {
  uint64_t replica_appends = 0, commits = 0, parity_updates = 0,
           retransmits = 0, resent_replies = 0, op_restarts = 0,
           deferred_gets = 0, blocks_recovered = 0;
};

class Episode {
 public:
  Episode(const WorkloadSpec& spec, const EpisodeOptions& opt)
      : spec_(spec), opt_(opt), spans_(opt.traced ? opt.spans : nullptr),
        checker_(spec.num_keys) {}

  EpisodeResult Run() {
    const uint32_t ep_span = Begin("episode", 0, 0);
    Setup(ep_span);
    Measure(ep_span);
    Drain();
    ReadBack();
    Finish();
    End(ep_span);
    return std::move(r_);
  }

 private:
  struct ClientGen {
    std::unique_ptr<ring::workload::YcsbWorkload> workload;
    uint64_t rng = 0;
    SimTime next_due = 0;
    uint64_t ops = 0;
    uint32_t outstanding = 0;
  };
  struct OpRec {
    OpType type = kPut;
    uint32_t client = 0;
    uint64_t rank = 0;
    SimTime issued = 0;
    uint64_t seq_or_floor = 0;
    uint64_t op_id = 0;
  };

  ring::sim::Simulator& sim() { return cluster_->simulator(); }

  uint32_t Begin(const char* name, uint32_t parent, uint64_t op) {
    return spans_ != nullptr ? spans_->Begin(name, parent, op) : 0;
  }
  void End(uint32_t id) {
    if (spans_ != nullptr) {
      spans_->End(id);
    }
  }
  double Kernel(uint32_t parent) {
    const uint32_t span = Begin("kernel", parent, 0);
    const double ns = RunKernelPass();
    End(span);
    return ns;
  }

  // ---------------------------------------------------------------- set-up
  void Setup(uint32_t parent) {
    const uint32_t setup_span = Begin("setup", parent, 0);
    const double k_before = Kernel(setup_span);

    ring::RingOptions o =
        ring::bench::PaperCluster(spec_.clients, spec_.spares, opt_.seed);
    if (spec_.light_client) {
      // fig9's lightweight load generators.
      o.params.client_put_byte_ns = 0.0;
      o.params.client_base_ns = 1800;
    }
    if (spec_.crash) {
      // chaos_availability's detector and client retry timeout.
      o.params.heartbeat_period_ns = 500 * kMicrosecond;
      o.params.failure_timeout_ns = 2 * kMillisecond;
      o.params.client_retry_timeout_ns = 200 * kMicrosecond;
      // chaos_availability's 3 ms retry budget makes the ops issued just
      // after the crash give up; the repository default (20 ms) lets them
      // finish late, so they show in latency and unavail_ms instead of as
      // failures.
    }

    const auto t0 = Clock::now();
    uint32_t span = Begin("setup.cluster", setup_span, 0);
    cluster_ = std::make_unique<ring::RingCluster>(o);
    End(span);
    const auto t1 = Clock::now();
    span = Begin("setup.memgest", setup_span, 0);
    if (spec_.erasure_coded) {
      srs_ = *cluster_->CreateMemgest(
          ring::MemgestDescriptor::ErasureCoded(3, 2, "SRS32"));
    }
    if (!spec_.erasure_coded || spec_.move_every > 0) {
      rep3_ = *cluster_->CreateMemgest(
          ring::MemgestDescriptor::Replicated(3, "REP3"));
    }
    home_ = spec_.erasure_coded ? srs_ : rep3_;
    in_rep3_.assign(spec_.num_keys, spec_.erasure_coded ? 0 : 1);
    End(span);
    const auto t2 = Clock::now();

    // Workload generators, then the preload.
    span = Begin("setup.preload", setup_span, 0);
    ring::workload::YcsbSpec ys;
    ys.num_keys = spec_.num_keys;
    ys.key_len = kKeyBytes;
    ys.value_len = kValueBytes;
    ys.get_fraction = spec_.get_fraction;
    ys.zipfian = spec_.zipfian;
    for (uint32_t c = 0; c < spec_.clients; ++c) {
      ClientGen g;
      g.workload = std::make_unique<ring::workload::YcsbWorkload>(
          ys, opt_.seed * 1'000'003 + c);
      g.rng = (opt_.seed + 1) * 0x9e3779b97f4a7c15ULL + c * 0xd1b54a32d192ed03ULL;
      gens_.push_back(std::move(g));
    }

    if (spec_.preload) {
      // Sequential blocking puts, as workload::Preload does, but with
      // stamped (sequence 0) values the checker can verify.
      ring::Buffer value;
      for (uint64_t rank = 0; rank < spec_.num_keys; ++rank) {
        const std::string key = gens_[0].workload->KeyOf(rank);
        StampValue(key, 0, &value);
        const ring::Status s = cluster_->Put(key, value, home_);
        if (!s.ok()) {
          Violation("preload " + key + ": " + s.message());
        }
        checker_.NotePreloaded(rank);
      }
    }
    End(span);
    const auto t3 = Clock::now();
    const double k_after = Kernel(setup_span);
    End(setup_span);

    const double kernel_ns = (k_before + k_after) / 2;
    const auto scaled_s = [&](Clock::time_point a, Clock::time_point b) {
      return ScaleToReference(HostNs(a, b), kernel_ns,
                              kNominalKernelNs) / 1e9;
    };
    r_.setup_raw_s = HostNs(t0, t3) / 1e9;
    r_.setup_scaled_s = scaled_s(t0, t3);
    r_.setup_cluster_s = scaled_s(t0, t1);
    r_.setup_memgest_s = scaled_s(t1, t2);
    r_.setup_preload_s = scaled_s(t2, t3);
  }

  // ---------------------------------------------------------- open loop
  SimTime NextGap(ClientGen& g) {
    g.rng ^= g.rng << 13;
    g.rng ^= g.rng >> 7;
    g.rng ^= g.rng << 17;
    const double u = static_cast<double>(g.rng >> 11) * 0x1.0p-53;
    const double gap_ns = -std::log1p(-u) * 1e9 / spec_.rate_per_client;
    return std::max<SimTime>(1, static_cast<SimTime>(gap_ns));
  }

  void ScheduleIssue(uint32_t c) {
    ClientGen& g = gens_[c];
    g.next_due += NextGap(g);
    if (g.next_due < t_end_) {
      sim().At(g.next_due, [this, c] { Issue(c); });
    }
  }

  uint32_t AllocSlot() {
    if (free_slots_.empty()) {
      recs_.emplace_back();
      return static_cast<uint32_t>(recs_.size() - 1);
    }
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }

  void Issue(uint32_t c) {
    ClientGen& g = gens_[c];
    ScheduleIssue(c);
    ++r_.attempted;
    const uint64_t op_id = r_.attempted;

    // The op stream is drawn whether or not the op is shed, so it depends
    // on the seed alone.
    const auto n0 = opt_.traced ? Clock::now() : Clock::time_point{};
    ring::workload::Op op = g.workload->Next();
    if (opt_.traced) {
      const auto n1 = Clock::now();
      next_ns_ += HostNs(n0, n1);
      ++next_calls_;
      Span("workload.next", n0, n1, op_id);
    }
    const bool is_move = spec_.move_every > 0 && ++g.ops % spec_.move_every == 0;
    if (g.outstanding >= kWindowPerClient) {
      ++r_.shed;
      return;
    }
    const uint64_t rank = ParseRank(op.key);
    const uint32_t slot = AllocSlot();
    OpRec& rec = recs_[slot];
    rec.type = is_move ? kMove
                       : (op.kind == ring::workload::OpKind::kGet ? kGet : kPut);
    rec.client = c;
    rec.rank = rank;
    rec.issued = sim().now();
    rec.op_id = op_id;
    ++g.outstanding;

    ring::RingClient& client = cluster_->client(c);
    std::shared_ptr<ring::Buffer> value;
    if (rec.type == kPut) {
      ++r_.puts_attempted;
      rec.seq_or_floor = checker_.IssuePut(rank, rec.issued);
      value = std::make_shared<ring::Buffer>();
      StampValue(op.key, rec.seq_or_floor, value.get());
    } else if (rec.type == kGet) {
      rec.seq_or_floor = checker_.GetFloor(rank);
    }

    const auto i0 = opt_.traced ? Clock::now() : Clock::time_point{};
    const uint64_t allocs0 = opt_.traced ? AllocTotals().allocs : 0;
    switch (rec.type) {
      case kPut:
        client.Put(op.key, std::move(value), in_rep3_[rank] ? rep3_ : srs_,
                   [this, slot](ring::Status s, ring::Version) {
                     OnPut(slot, s);
                   });
        break;
      case kGet:
        client.Get(op.key,
                   [this, slot](ring::GetResult res) { OnGet(slot, res); });
        break;
      case kMove:
        in_rep3_[rank] ^= 1;
        client.Move(op.key, in_rep3_[rank] ? rep3_ : srs_,
                    [this, slot](ring::Status s, ring::Version) {
                      OnDone(slot, s.ok());
                    });
        break;
      default:
        break;
    }
    if (opt_.traced) {
      const auto i1 = Clock::now();
      issue_ns_ += HostNs(i0, i1);
      issue_allocs_ += AllocTotals().allocs - allocs0;
      ++issue_calls_;
      static const char* const kIssueNames[] = {"client.put", "client.get",
                                                "client.move"};
      Span(kIssueNames[recs_[slot].type], i0, i1, op_id);
    }
  }

  void Span(const char* name, Clock::time_point a, Clock::time_point b,
            uint64_t op) {
    if (spans_ != nullptr) {
      AllocPause pause;
      spans_->Add(name, spans_->Ns(a), spans_->Ns(b), slice_span_, op);
    }
  }

  void OnPut(uint32_t slot, const ring::Status& s) {
    if (s.ok()) {
      checker_.AckPut(recs_[slot].rank, recs_[slot].seq_or_floor, sim().now());
    }
    OnDone(slot, s.ok());
  }

  void OnGet(uint32_t slot, const ring::GetResult& res) {
    const OpRec& rec = recs_[slot];
    const bool not_found = res.status.code() == ring::StatusCode::kNotFound;
    if (res.status.ok() || not_found) {
      AllocPause pause;
      checker_.CheckGet(rec.rank, gens_[0].workload->KeyOf(rec.rank),
                        rec.seq_or_floor, !not_found, res.data.get());
    }
    OnDone(slot, res.status.ok() || not_found);
  }

  void OnDone(uint32_t slot, bool ok) {
    const OpRec rec = recs_[slot];
    free_slots_.push_back(slot);
    --gens_[rec.client].outstanding;
    const SimTime now = sim().now();
    if (!ok) {
      ++r_.errors;
      return;
    }
    const uint64_t lat = now - rec.issued;
    r_.latency_ns[rec.type].push_back(lat);
    digest_.Add((static_cast<uint64_t>(rec.type) << 56) ^ lat);
    if (now < t_end_) {
      ++r_.completed_in_loop;
      ++window_counts_[(now - t_start_) / kWindow];
    }
  }

  // ------------------------------------------------------------- stepping
  void RunTo(SimTime t) {
    ++sentinels_;
    if (!opt_.traced) {
      sim().RunUntil(t);
      return;
    }
    // Same sentinel scheme as Simulator::RunUntil, one event at a time so
    // each event's host time can be taken.
    bool stop = false;
    sim().At(t, [&stop] { stop = true; });
    ring::sim::EventQueue& q = sim().queue();
    while (!stop) {
      const auto a = Clock::now();
      const bool ran = q.RunNext();
      const auto b = Clock::now();
      if (!ran) {
        break;
      }
      event_ns_.push_back(static_cast<uint32_t>(
          std::min<double>(HostNs(a, b), 4e9)));
    }
  }

  void StepTo(SimTime target) {
    if (!spec_.crash) {
      RunTo(target);
      return;
    }
    const ring::consensus::MembershipGroup& m = cluster_->runtime().membership();
    while (sim().now() < target) {
      const SimTime next = std::min(target, sim().now() + kCrashStep);
      RunTo(next);
      const SimTime rel = sim().now() - t_start_;
      if (!crashed_ && rel >= kCrashAt) {
        crashed_ = true;
        crash_time_ = sim().now();
        crash_slice_ = slice_index_;
        cluster_->KillNode(kVictim);
      }
      if (crashed_ && !restarted_ && rel >= kRestartAt) {
        restarted_ = true;
        cluster_->RestartNode(kVictim);
      }
      if (!crashed_) {
        continue;
      }
      const ring::consensus::ClusterConfig& view =
          m.ConfigView(m.CurrentLeader());
      if (detect_time_ == 0 && view.failed[kVictim]) {
        detect_time_ = sim().now();
      }
      const ring::net::NodeId repl = view.node_of_slot[victim_slot_];
      if (repl == kVictim) {
        continue;
      }
      ring::RingServer& server = cluster_->server(repl);
      if (serving_time_ == 0 && server.serving()) {
        serving_time_ = sim().now();
      }
      const uint64_t blocks = server.counters().blocks_recovered;
      if (blocks != repl_blocks_) {
        repl_blocks_ = blocks;
        last_block_time_ = sim().now();
        last_block_slice_ = slice_index_;
      }
    }
  }

  // -------------------------------------------------------------- measure
  ServerTotals SumServers() {
    ServerTotals t;
    for (uint32_t n = 0; n < cluster_->runtime().num_server_nodes(); ++n) {
      const auto& c = cluster_->server(n).counters();
      t.replica_appends += c.replica_appends;
      t.commits += c.commits;
      t.parity_updates += c.parity_updates;
      t.retransmits += c.retransmits;
      t.resent_replies += c.resent_replies;
      t.op_restarts += c.op_restarts;
      t.deferred_gets += c.deferred_gets;
      t.blocks_recovered += c.blocks_recovered;
    }
    return t;
  }

  std::vector<uint64_t> CpuConsumed() {
    std::vector<uint64_t> out;
    const uint32_t nodes =
        cluster_->runtime().num_server_nodes() + spec_.clients;
    for (uint32_t n = 0; n < nodes; ++n) {
      out.push_back(cluster_->runtime().fabric().cpu(n).consumed_ns());
    }
    return out;
  }

  void Measure(uint32_t parent) {
    ring::RingRuntime& rt = cluster_->runtime();
    ring::net::Fabric& fabric = rt.fabric();
    victim_slot_ = static_cast<uint32_t>(
        rt.membership().ConfigView(0).slot_of_node[kVictim]);
    t_start_ = sim().now();
    t_end_ = t_start_ + spec_.duration_ns;
    window_counts_.assign(spec_.duration_ns / kWindow + 1, 0);
    for (uint32_t c = 0; c < spec_.clients; ++c) {
      gens_[c].next_due = t_start_;
      ScheduleIssue(c);
    }

    const ServerTotals s0 = SumServers();
    const std::vector<uint64_t> cpu0 = CpuConsumed();
    const uint64_t events0 = sim().events_executed();
    const uint64_t msgs0 = fabric.messages_sent();
    const uint64_t bytes0 = fabric.bytes_sent();
    const uint64_t nacks0 = fabric.nacks_sent();
    const uint64_t configs0 = rt.membership().config_changes();
    uint64_t timeouts0 = 0, hedges0 = 0;
    for (uint32_t c = 0; c < spec_.clients; ++c) {
      timeouts0 += cluster_->client(c).timeouts();
      hedges0 += cluster_->client(c).hedges();
    }
    ring::sim::TaskPool::ResetStats();
    ring::obs::Hub& hub = sim().hub();
    if (opt_.traced) {
      hub.tracer().Clear();
      hub.EnableTracing(true);
      event_ns_.reserve(1u << 22);
    }
    const AllocCounts alloc0 = AllocTotals();
    SetAllocCounting(opt_.traced);
    sentinels_ = 0;

    const size_t slices = spec_.duration_ns / spec_.slice_ns;
    for (size_t i = 0; i < slices; ++i) {
      slice_index_ = i;
      slice_span_ = Begin("slice", parent, 0);
      const auto a = Clock::now();
      StepTo(t_start_ + (i + 1) * spec_.slice_ns);
      const auto b = Clock::now();
      End(slice_span_);
      slice_span_ = 0;
      r_.slice_loop_ns.push_back(HostNs(a, b));
      r_.slice_kernel_ns.push_back(Kernel(parent));
    }

    SetAllocCounting(false);
    const AllocCounts alloc1 = AllocTotals();
    hub.EnableTracing(false);
    const ring::sim::TaskPool::Stats pool = ring::sim::TaskPool::stats();

    // Host metrics.
    for (double ns : r_.slice_loop_ns) {
      r_.loop_raw_ns += ns;
    }
    r_.loop_scaled_ns = ScaledTotalNs(r_.slice_loop_ns, r_.slice_kernel_ns,
                                      kKernelRadius, kNominalKernelNs);
    r_.ops_per_host_s = r_.completed_in_loop / (r_.loop_scaled_ns / 1e9);

    // Layer counts over the loop.
    const auto delta = [](uint64_t end, uint64_t start) {
      return end >= start ? end - start : end;  // a restart resets counters
    };
    r_.events = sim().events_executed() - events0 - sentinels_;
    r_.queue_depth_max = sim().queue().depth_high_water();
    const double pool_total = static_cast<double>(
        pool.inline_ctors + pool.pool_hits + pool.pool_misses);
    if (pool_total > 0) {
      r_.task_pool_hit_pct = 100.0 * (pool.inline_ctors + pool.pool_hits) /
                             pool_total;
      r_.task_inline_pct = 100.0 * pool.inline_ctors / pool_total;
    }
    const std::vector<uint64_t> cpu1 = CpuConsumed();
    const double elapsed = static_cast<double>(spec_.duration_ns);
    const uint32_t servers = rt.num_server_nodes();
    for (uint32_t n = 0; n < cpu1.size(); ++n) {
      const double util = delta(cpu1[n], cpu0[n]) / elapsed;
      if (n < servers) {
        r_.server_cpu_util_max = std::max(r_.server_cpu_util_max, util);
      } else {
        r_.client_cpu_util += util / spec_.clients;
      }
    }
    r_.msgs = fabric.messages_sent() - msgs0;
    r_.bytes = fabric.bytes_sent() - bytes0;
    r_.nacks = fabric.nacks_sent() - nacks0;
    const ServerTotals s1 = SumServers();
    r_.replica_appends = delta(s1.replica_appends, s0.replica_appends);
    r_.commits = delta(s1.commits, s0.commits);
    r_.parity_updates = delta(s1.parity_updates, s0.parity_updates);
    r_.retransmits = delta(s1.retransmits, s0.retransmits);
    r_.resent_replies = delta(s1.resent_replies, s0.resent_replies);
    r_.op_restarts = delta(s1.op_restarts, s0.op_restarts);
    r_.deferred_gets = delta(s1.deferred_gets, s0.deferred_gets);
    r_.blocks_recovered = delta(s1.blocks_recovered, s0.blocks_recovered);
    for (uint32_t c = 0; c < spec_.clients; ++c) {
      r_.client_timeouts += cluster_->client(c).timeouts();
      r_.client_hedges += cluster_->client(c).hedges();
    }
    r_.client_timeouts -= timeouts0;
    r_.client_hedges -= hedges0;
    r_.config_changes = rt.membership().config_changes() - configs0;

    if (opt_.traced) {
      const double ops = std::max<uint64_t>(1, r_.completed_in_loop);
      r_.allocs_per_op = (alloc1.allocs - alloc0.allocs) / ops;
      r_.alloc_bytes_per_op = (alloc1.bytes - alloc0.bytes) / ops;
      r_.issue_allocs_per_op =
          static_cast<double>(issue_allocs_) / std::max<uint64_t>(1, issue_calls_);
      r_.issue_host_ns_per_op =
          issue_ns_ / std::max<uint64_t>(1, issue_calls_);
      r_.next_host_ns_per_op = next_ns_ / std::max<uint64_t>(1, next_calls_);
      std::vector<uint64_t> ev(event_ns_.begin(), event_ns_.end());
      r_.event_ns_p50 = static_cast<double>(Percentile(&ev, 50));
      r_.event_ns_p999 = static_cast<double>(Percentile(&ev, 99.9));
      r_.event_ns_max = static_cast<double>(Percentile(&ev, 100));
      const auto breakdowns = hub.tracer().OpBreakdowns();
      static const char* const kOpNames[] = {"put", "get", "move"};
      for (int t = 0; t < kNumOpTypes; ++t) {
        const ring::obs::BreakdownMean m =
            ring::obs::MeanBreakdown(breakdowns, kOpNames[t]);
        r_.model[t] = {m.ops,    m.network_us, m.coding_us,
                       m.cpu_us, m.queue_us,   m.wait_us};
      }
      hub.tracer().Clear();
    }

    if (spec_.crash) {
      r_.detect_us = detect_time_ > 0
                         ? static_cast<double>(detect_time_ - crash_time_) / 1e3
                         : 0;
      const SimTime done = std::max(serving_time_, last_block_time_);
      if (serving_time_ > 0) {
        r_.recovery_ms = static_cast<double>(done - crash_time_) / 1e6;
        const size_t last = serving_time_ >= last_block_time_
                                ? slices - 1
                                : last_block_slice_;
        std::vector<double> loop(r_.slice_loop_ns.begin() + crash_slice_,
                                 r_.slice_loop_ns.begin() + last + 1);
        std::vector<double> kern(r_.slice_kernel_ns.begin() + crash_slice_,
                                 r_.slice_kernel_ns.begin() + last + 1);
        r_.recovery_host_s =
            ScaledTotalNs(loop, kern, kKernelRadius, kNominalKernelNs) / 1e9;
      } else {
        Violation("crash_recover: the replacement never started serving");
      }
    }
  }

  // ------------------------------------------------------ drain, read back
  uint64_t Outstanding() const {
    uint64_t n = 0;
    for (const ClientGen& g : gens_) {
      n += g.outstanding;
    }
    return n;
  }

  void Drain() {
    const SimTime limit = sim().now() + kDrainLimit;
    while (Outstanding() > 0 && sim().now() < limit) {
      sim().RunUntil(sim().now() + kMillisecond);
    }
    r_.undrained = Outstanding();
  }

  void ReadBack() {
    AllocPause pause;
    ring::RingClient& client = cluster_->client(0);
    const auto& wl = *gens_[0].workload;
    uint64_t rank = 0;
    while (rank < spec_.num_keys) {
      uint32_t pending = 0;
      const uint64_t end = std::min<uint64_t>(spec_.num_keys,
                                              rank + kReadBackBatch);
      for (; rank < end; ++rank) {
        ++pending;
        client.Get(wl.KeyOf(rank), [this, rank, &wl,
                                    &pending](ring::GetResult res) {
          --pending;
          const bool not_found =
              res.status.code() == ring::StatusCode::kNotFound;
          if (!res.status.ok() && !not_found) {
            Violation("read-back " + wl.KeyOf(rank) + ": " +
                      res.status.message());
            return;
          }
          checker_.CheckFinal(rank, wl.KeyOf(rank), !not_found,
                              res.data.get());
        });
      }
      if (!cluster_->RunUntilDone([&pending] { return pending == 0; })) {
        Violation("read-back did not complete");
        return;
      }
    }
  }

  void Finish() {
    r_.windows = window_counts_.size() - 1;  // the last one is partial
    std::vector<double> counts(window_counts_.begin(),
                               window_counts_.begin() + r_.windows);
    const double median = Median(counts);
    for (double c : counts) {
      if (c < median / 2) {
        ++r_.unavail_windows;
      }
    }
    for (int t = 0; t < kNumOpTypes; ++t) {
      digest_.Add(r_.latency_ns[t].size());
    }
    digest_.Add(r_.attempted);
    digest_.Add(r_.shed);
    digest_.Add(r_.errors);
    digest_.Add(r_.msgs);
    digest_.Add(r_.bytes);
    digest_.Add(r_.events);
    r_.digest = digest_.value();

    uint64_t stored = 0, live = 0;
    for (uint32_t n = 0; n < cluster_->runtime().num_server_nodes(); ++n) {
      ring::RingServer& server = cluster_->server(n);
      r_.metadata_bytes += server.TotalMetadataBytes();
      stored += server.StoredBytes();
      live += server.LiveBytes();
    }
    r_.stored_per_live = live > 0 ? static_cast<double>(stored) / live : 0;

    r_.violations = checker_.violations() + own_violations_;
    r_.messages.insert(r_.messages.end(), checker_.messages().begin(),
                       checker_.messages().end());
    // Tear the cluster down inside the episode so its memory is returned
    // before the next one starts.
    cluster_.reset();
  }

  void Violation(std::string message) {
    ++own_violations_;
    if (r_.messages.size() < 8) {
      r_.messages.push_back(std::move(message));
    }
  }

  const WorkloadSpec& spec_;
  const EpisodeOptions& opt_;
  SpanLog* spans_;
  EpisodeResult r_;
  ConsistencyChecker checker_;
  Digest digest_;
  uint64_t own_violations_ = 0;

  std::unique_ptr<ring::RingCluster> cluster_;
  ring::MemgestId rep3_ = 0;
  ring::MemgestId srs_ = 0;
  ring::MemgestId home_ = 0;
  std::vector<uint8_t> in_rep3_;  // per key: its current memgest
  std::vector<ClientGen> gens_;
  std::vector<OpRec> recs_;
  std::vector<uint32_t> free_slots_;

  SimTime t_start_ = 0;
  SimTime t_end_ = 0;
  std::vector<uint64_t> window_counts_;
  uint64_t sentinels_ = 0;
  size_t slice_index_ = 0;
  uint32_t slice_span_ = 0;

  // crash_recover
  uint32_t victim_slot_ = 0;
  bool crashed_ = false;
  bool restarted_ = false;
  SimTime crash_time_ = 0;
  size_t crash_slice_ = 0;
  SimTime detect_time_ = 0;
  SimTime serving_time_ = 0;
  SimTime last_block_time_ = 0;
  size_t last_block_slice_ = 0;
  uint64_t repl_blocks_ = 0;

  // traced
  std::vector<uint32_t> event_ns_;
  double issue_ns_ = 0;
  double next_ns_ = 0;
  uint64_t issue_calls_ = 0;
  uint64_t next_calls_ = 0;
  uint64_t issue_allocs_ = 0;
};

}  // namespace

const std::vector<WorkloadSpec>& AllWorkloads() { return Table(); }

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Table()) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

EpisodeResult RunEpisode(const WorkloadSpec& spec, const EpisodeOptions& opt) {
  Episode episode(spec, opt);
  return episode.Run();
}

}  // namespace perfbench
