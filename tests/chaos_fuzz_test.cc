// Chaos testing: randomized fault plans (drops, duplicates, delays,
// reorders, partitions, gray-failure pauses, crash-recovery) injected under
// random traffic, checked by the shared consistency oracle (src/check:
// version reuse, corrupt reads, time travel, and a post-heal durability
// sweep) plus two local checks:
//   - Rep(1) honesty: unreliable keys either return the exact acked bytes
//     or a clean error — never stale/corrupt data, never a hang,
//   - config invariants after an elastic resize.
// Every run is deterministic in (seed): replaying the same seed must
// produce byte-identical metrics, traffic outcomes, and fault counters.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/oracle.h"
#include "src/common/hash.h"
#include "src/fault/fault.h"
#include "src/membership/rebalance.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

// On an oracle failure, the plan that provoked it and the flight-recorder
// tail are the debugging state that matters: dump both to stderr and to a
// $TEST_TMPDIR artifact (cwd when unset) so CI retains them.
void DumpFailureArtifact(uint64_t seed, const fault::FaultPlan& plan,
                         const obs::FlightRecorder& recorder) {
  std::ostringstream os;
  const std::vector<obs::RecEvent> tail = recorder.Tail(64);
  os << "chaos_fuzz oracle failure, seed=" << seed << "\n"
     << "replay: ctest -R ChaosFuzzTest --gtest_filter='*seed" << seed
     << "*' (or RunChaos(" << seed << "))\n"
     << "fault plan:\n"
     << plan.ToString() << "flight recorder tail (last " << tail.size()
     << " of " << recorder.total_recorded() << " events):\n"
     << obs::FlightRecorder::Format(tail);
  const std::string text = os.str();
  std::fputs(text.c_str(), stderr);
  const char* dir = std::getenv("TEST_TMPDIR");
  const std::string path = std::string(dir != nullptr ? dir : ".") +
                           "/chaos_fuzz_seed" + std::to_string(seed) + ".txt";
  if (FILE* f = std::fopen(path.c_str(), "w"); f != nullptr) {
    std::fputs(text.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "artifact: %s\n", path.c_str());
  }
}

using check::EncodeValue;

// Runs past the plan's quiet point plus a detection + recovery window, so
// crashed nodes have rejoined, then reads back every key the oracle knows
// was committed.
void SettleAndSweep(RingCluster& cluster, sim::SimTime quiet_after_ns,
                    check::Oracle& oracle, std::ostringstream& outcomes) {
  const sim::SimTime settle =
      quiet_after_ns + 2 * cluster.simulator().params().detection_window_ns() +
      30 * sim::kMillisecond;
  if (cluster.simulator().now() < settle) {
    cluster.RunFor(settle - cluster.simulator().now());
  }
  for (const Key& key : oracle.SweepKeys()) {
    bool done = false;
    GetResult r;
    cluster.client(0).Get(key, [&](GetResult got) {
      r = std::move(got);
      done = true;
    });
    EXPECT_TRUE(cluster.RunUntilDone([&] { return done; })) << key;
    outcomes << "swp " << key << " " << StatusCodeName(r.status.code())
             << "\n";
    oracle.Sweep(key, r);
  }
}

// Every oracle violation is a test failure; returns how many there were.
uint64_t ReportViolations(const check::Oracle& oracle, uint64_t seed) {
  for (const check::Violation& v : oracle.violations()) {
    ADD_FAILURE() << v.ToString() << " seed=" << seed;
  }
  return oracle.violations().size();
}

// Everything observable a chaos run produced. Two runs of the same seed
// must compare equal, field for field.
struct ChaosDigest {
  std::string metrics;
  std::string outcomes;  // per-op completion log, in completion order
  uint64_t faults_dropped = 0;
  uint64_t faults_duplicated = 0;
  uint64_t faults_deferred = 0;
  uint64_t crashes = 0;
  uint64_t revocations = 0;      // §16 plan-injected suspicion events
  uint64_t fast_failovers = 0;   // §16 revoke-then-promote rounds completed
  uint64_t oracle_violations = 0;

  bool operator==(const ChaosDigest&) const = default;
};

// The two plan shapes every chaos seed runs under. Failures are handled by
// revoke-then-promote in both; kRevokes adds random false-suspicion
// `revoke` events to the plan and reads with ν = 3 non-blocking gets.
enum class ChaosPlan { kStrongReads, kRevokes };

// One full chaos run: random plan + random traffic + oracles + final sweep.
ChaosDigest RunChaos(uint64_t seed, ChaosPlan plan = ChaosPlan::kStrongReads) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.spares = 2;
  options.clients = 2;
  options.seed = seed;
  const uint32_t servers = options.s + options.d + options.spares;

  fault::ChaosShape shape;
  for (uint32_t n = 0; n < servers; ++n) {
    shape.faultable.push_back(n);
  }
  shape.num_nodes = servers + options.clients;
  shape.horizon_ns = 60 * sim::kMillisecond;
  shape.quiet_after_ns = 40 * sim::kMillisecond;
  shape.link_faults = 4;
  shape.node_events = 2;
  if (plan == ChaosPlan::kRevokes) {
    options.multiversion_depth = 3;
    // False suspicions consume spare capacity like crashes; tell the
    // generator so the budget never exceeds what promotions can absorb.
    shape.revocations = 2;
    shape.spare_capacity = options.spares;
  }
  options.fault_plan = fault::RandomFaultPlan(seed * 31 + 7, shape);
  options.fault_seed = seed;
  const ReadMode read_mode = plan == ChaosPlan::kRevokes
                                ? ReadMode::kNonBlocking
                                : ReadMode::kStrong;

  RingCluster cluster(options);
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableMetrics(true);
  // Flight recorder on for every run: zero-perturbation (determinism_test
  // proves it), and on an oracle failure its tail is the post-mortem.
  hub.EnableRecorder(true);

  const MemgestId rep1 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  const std::vector<MemgestId> reliable = {
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3)),
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2)),
  };

  Rng rng(seed * 7919 + 3);
  std::ostringstream outcomes;
  uint64_t violations = 0;
  check::Oracle oracle;  // reliable keys
  // Rep(1) keys are written once each: a read returns those bytes or a
  // clean error, nothing else.
  std::map<Key, Buffer> rep1_truth;

  const int kKeys = 10;
  uint64_t next_nonce = 1;
  int outstanding = 0;
  const int kOps = 400;
  for (int op = 0; op < kOps; ++op) {
    const uint32_t client = static_cast<uint32_t>(rng.NextBelow(2));
    const double dice = rng.NextDouble();
    if (dice < 0.06) {
      // Fire-once Rep(1) key: unreliable by design.
      const Key key = "r1-" + std::to_string(next_nonce);
      Buffer value = EncodeValue(key, next_nonce, 16 + rng.NextBelow(500));
      ++next_nonce;
      ++outstanding;
      cluster.client(client).Put(
          key, std::make_shared<Buffer>(value), rep1,
          [&, key, value](Status s, Version) {
            --outstanding;
            outcomes << "p1 " << key << " " << StatusCodeName(s.code())
                     << "\n";
            if (s.ok()) {
              rep1_truth[key] = value;
            }
          });
    } else if (dice < 0.40) {
      const Key key = "ck-" + std::to_string(rng.NextBelow(kKeys));
      const uint64_t nonce = next_nonce++;
      Buffer value = EncodeValue(key, nonce, 16 + rng.NextBelow(2000));
      const MemgestId g = reliable[rng.NextBelow(reliable.size())];
      ++outstanding;
      cluster.client(client).Put(
          key, std::make_shared<Buffer>(value), g,
          [&, key, value](Status s, Version v) {
            --outstanding;
            outcomes << "put " << key << " " << StatusCodeName(s.code())
                     << " v" << v << "\n";
            if (s.ok()) {
              oracle.PutAcked(key, v, value);
            }
          });
    } else if (dice < 0.85) {
      const Key key = rng.NextBernoulli(0.15) && !rep1_truth.empty()
                          ? rep1_truth.rbegin()->first
                          : "ck-" + std::to_string(rng.NextBelow(kKeys));
      ++outstanding;
      const Version floor = oracle.Floor(key);
      cluster.client(client).Get(key, read_mode, [&, key, floor](GetResult r) {
        --outstanding;
        outcomes << "get " << key << " " << StatusCodeName(r.status.code())
                 << "\n";
        auto r1 = rep1_truth.find(key);
        if (r1 == rep1_truth.end()) {
          oracle.Read(key, floor, r);
        } else if (r.status.ok() && *r.data != r1->second) {
          // Rep(1): exact bytes or clean error, never stale garbage.
          ++violations;
          ADD_FAILURE() << "stale/corrupt rep1 read of " << key
                        << " seed=" << seed;
        }
      });
    } else {
      const Key key = "ck-" + std::to_string(rng.NextBelow(kKeys));
      const MemgestId g = reliable[rng.NextBelow(reliable.size())];
      ++outstanding;
      cluster.client(client).Move(key, g, [&, key](Status s, Version) {
        --outstanding;
        outcomes << "mov " << key << " " << StatusCodeName(s.code()) << "\n";
      });
    }
    if (rng.NextBernoulli(0.6)) {
      cluster.RunFor(rng.NextBelow(200) * sim::kMicrosecond);
    }
  }
  // Drain all traffic (bounded: the retry budget turns every wedged op into
  // a clean kUnavailable), then heal and sweep.
  EXPECT_TRUE(cluster.RunUntilDone([&] { return outstanding == 0; }))
      << "seed=" << seed << ": an operation hung past the retry budget";
  SettleAndSweep(cluster, shape.quiet_after_ns, oracle, outcomes);
  violations += ReportViolations(oracle, seed);

  const fault::FaultInjector* inj = cluster.runtime().injector();
  EXPECT_NE(inj, nullptr);  // the random plan is never empty
  ChaosDigest digest;
  digest.metrics = hub.metrics().Summary();
  digest.outcomes = outcomes.str();
  if (inj != nullptr) {
    digest.faults_dropped =
        inj->counters().dropped + inj->counters().partition_dropped;
    digest.faults_duplicated = inj->counters().duplicated;
    digest.faults_deferred = inj->counters().deferred;
    digest.crashes = inj->counters().crashes;
    digest.revocations = inj->counters().revocations;
  }
  digest.fast_failovers = cluster.runtime().membership().fast_failovers();
  digest.oracle_violations = violations;
  if (violations > 0) {
    DumpFailureArtifact(seed, options.fault_plan, hub.recorder());
  }
  return digest;
}

class ChaosFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosFuzzTest, OraclesHoldUnderRandomFaultPlan) {
  const ChaosDigest d = RunChaos(GetParam());
  EXPECT_EQ(d.oracle_violations, 0u);
  EXPECT_FALSE(d.outcomes.empty());
}

// 20+ seeded plans; each generates a distinct fault schedule. Seed 258 loses
// a GC notice at a replica that recovery later merges back in.
INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosFuzzTest,
    ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL, 7ULL, 8ULL, 9ULL,
                      10ULL, 11ULL, 12ULL, 13ULL, 14ULL, 15ULL, 16ULL, 17ULL,
                      18ULL, 19ULL, 20ULL, 33ULL, 77ULL, 258ULL),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// Determinism: the same seed replays byte-identically — same metrics dump,
// same per-op outcome log, same fault counters.
TEST(ChaosReplayTest, SameSeedReplaysByteIdentically) {
  for (uint64_t seed : {2ULL, 9ULL, 14ULL}) {
    const ChaosDigest first = RunChaos(seed);
    const ChaosDigest again = RunChaos(seed);
    EXPECT_TRUE(first == again) << "seed " << seed << " diverged on replay";
    EXPECT_EQ(first.metrics, again.metrics);
    EXPECT_EQ(first.outcomes, again.outcomes);
  }
}

// §16 revoke chaos: the same oracles under random false-suspicion revokes
// and non-blocking multiversion reads.
class ChaosRevokeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosRevokeFuzzTest, OraclesHoldUnderRevokesAndNonBlockingReads) {
  const ChaosDigest d = RunChaos(GetParam(), ChaosPlan::kRevokes);
  EXPECT_EQ(d.oracle_violations, 0u);
  EXPECT_FALSE(d.outcomes.empty());
}

// Seeds 117 and 139 also lose a GC notice that recovery merges back in.
INSTANTIATE_TEST_SUITE_P(
    Seeds, ChaosRevokeFuzzTest,
    ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL, 7ULL, 8ULL, 9ULL,
                      10ULL, 33ULL, 77ULL, 117ULL, 139ULL),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// Plan-injected revocations are as deterministic as the rest: same seed,
// byte-identical replay.
TEST(ChaosRevokeReplayTest, SameSeedReplaysByteIdentically) {
  for (uint64_t seed : {2ULL, 9ULL}) {
    const ChaosDigest first = RunChaos(seed, ChaosPlan::kRevokes);
    const ChaosDigest again = RunChaos(seed, ChaosPlan::kRevokes);
    EXPECT_TRUE(first == again)
        << "seed " << seed << " diverged on revoke-plan replay";
    EXPECT_EQ(first.outcomes, again.outcomes);
  }
}

// A random plan with revocations actually exercises them: at least one
// seed-pinned run completes a revoke-then-promote round.
TEST(ChaosRevokeFuzzCoverage, RevocationsDriveRevokeRounds) {
  const ChaosDigest d = RunChaos(3, ChaosPlan::kRevokes);
  EXPECT_GE(d.revocations, 1u);
  EXPECT_GE(d.fast_failovers, 1u);
}

// An empty plan must create no injector at all: the injection-off build is
// one null-pointer branch per message, byte-identical to pre-fault builds
// (determinism_test and the fig workloads guard the byte-identity itself).
TEST(ChaosOffTest, EmptyPlanInstallsNoInjector) {
  RingCluster cluster(RingOptions{});
  EXPECT_EQ(cluster.runtime().injector(), nullptr);
}

// Regression (satellite): a put whose *reply* is dropped must be retried by
// the client and succeed — executed exactly once server-side, answered from
// the at-most-once table.
TEST(ChaosRegressionTest, DroppedReplyRetriesAndExecutesExactlyOnce) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 1;
  o.clients = 1;
  o.seed = 5;
  const net::NodeId coord = 1;                       // owns shard 1
  const net::NodeId client_node = o.s + o.d + o.spares;  // first client
  // All coordinator->client traffic vanishes for 1 ms: the put executes and
  // commits, but every reply (and resent reply) is lost until the link heals.
  auto plan = fault::ParseFaultPlan("drop src=" + std::to_string(coord) +
                                    " dst=" + std::to_string(client_node) +
                                    " p=1 until=1ms");
  ASSERT_TRUE(plan.ok());
  o.fault_plan = *plan;
  RingCluster cluster(o);
  const MemgestId g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "dr-" + std::to_string(i);
      if (KeyShard(k, 3) == 1) {
        return k;
      }
    }
  }();
  const uint64_t puts_before = cluster.server(coord).counters().puts;
  cluster.client(0).ResetStats();  // drop the admin op from the counters
  ASSERT_TRUE(cluster.Put(key, "exactly-once", g).ok());
  // Executed once; the duplicate retries were answered from the table.
  EXPECT_EQ(cluster.server(coord).counters().puts, puts_before + 1);
  EXPECT_GE(cluster.server(coord).counters().resent_replies, 1u);
  EXPECT_EQ(cluster.client(0).completed(), 1u);
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "exactly-once");
}

// Satellite: Rep(1,s) keys degrade *gracefully* when their only copy dies —
// a clean not-found/unavailable, never a hang, never stale bytes — while
// reliable keys on the same node survive byte-exactly.
TEST(ChaosRegressionTest, Rep1DegradesCleanlyWhileReliableKeysSurvive) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 1;
  o.clients = 1;
  o.seed = 6;
  RingCluster cluster(o);
  const MemgestId rep1 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  const MemgestId rep3 =
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const net::NodeId victim = 2;
  std::vector<Key> rep1_keys;
  std::map<Key, Buffer> reliable;
  for (int i = 0, r1 = 0, r3 = 0; r1 < 3 || r3 < 3; ++i) {
    const Key k = "gd-" + std::to_string(i);
    if (KeyShard(k, 3) != victim) {
      continue;
    }
    Buffer value = MakePatternBuffer(600 + 17 * i, i);
    if (r1 < 3) {
      ASSERT_TRUE(cluster.Put(k, value, rep1).ok());
      rep1_keys.push_back(k);
      ++r1;
    } else {
      ASSERT_TRUE(cluster.Put(k, value, rep3).ok());
      reliable[k] = std::move(value);
      ++r3;
    }
  }
  cluster.KillNode(victim, /*force_detect=*/true);
  cluster.RunFor(30 * sim::kMillisecond);
  for (const Key& k : rep1_keys) {
    // The only copy died: clean error, no hang, no stale bytes.
    auto got = cluster.Get(k);
    EXPECT_FALSE(got.ok()) << k;
    EXPECT_TRUE(got.status().code() == StatusCode::kNotFound ||
                got.status().code() == StatusCode::kUnavailable)
        << k << ": " << got.status();
  }
  for (const auto& [k, value] : reliable) {
    auto got = cluster.Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, value) << k;
  }
}

// ---------------------------------------------------------------------------
// Membership chaos (§13): elastic resizes raced against random fault plans.
// The same shared oracle has to hold *across shape transitions*: while a
// scale-out or scale-in drains, after it completes, and even when chaos
// makes the transition give up mid-drain and leaves both placements live.

struct MembershipChaosDigest {
  std::string outcomes;
  uint64_t oracle_violations = 0;
  uint64_t epoch = 0;
  uint32_t final_s = 0;
  uint64_t keys_moved = 0;

  bool operator==(const MembershipChaosDigest&) const = default;
};

MembershipChaosDigest RunMembershipChaos(uint64_t seed) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.spares = 2;
  options.clients = 2;
  options.seed = seed;
  const uint32_t servers = options.s + options.d + options.spares;

  fault::ChaosShape shape;
  for (uint32_t n = 0; n < servers; ++n) {
    shape.faultable.push_back(n);
  }
  shape.num_nodes = servers + options.clients;
  shape.horizon_ns = 50 * sim::kMillisecond;
  shape.quiet_after_ns = 35 * sim::kMillisecond;
  shape.link_faults = 3;
  shape.node_events = 2;
  // One spare is earmarked for the join below; generate crash episodes only
  // against the capacity that remains (the runtime crash guard re-checks).
  shape.spare_capacity = options.spares - 1;
  options.fault_plan = fault::RandomFaultPlan(seed * 131 + 17, shape);
  options.fault_seed = seed;

  RingCluster cluster(options);
  obs::Hub& hub = cluster.simulator().hub();
  hub.EnableMetrics(true);
  hub.EnableRecorder(true);

  const std::vector<MemgestId> reliable = {
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3)),
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2)),
  };

  Rng rng(seed * 104729 + 9);
  std::ostringstream outcomes;
  check::Oracle oracle;
  int outstanding = 0;
  const int kKeys = 12;
  uint64_t next_nonce = 1;

  auto put_random = [&] {
    const Key key = "mk-" + std::to_string(rng.NextBelow(kKeys));
    const uint64_t nonce = next_nonce++;
    Buffer value = EncodeValue(key, nonce, 16 + rng.NextBelow(1200));
    const MemgestId g = reliable[rng.NextBelow(reliable.size())];
    ++outstanding;
    cluster.client(rng.NextBelow(2)).Put(
        key, std::make_shared<Buffer>(value), g,
        [&, key, value](Status s, Version v) {
          --outstanding;
          outcomes << "put " << key << " " << StatusCodeName(s.code())
                   << " v" << v << "\n";
          if (s.ok()) {
            oracle.PutAcked(key, v, value);
          }
        });
  };
  auto get_random = [&] {
    const Key key = "mk-" + std::to_string(rng.NextBelow(kKeys));
    const Version floor = oracle.Floor(key);
    ++outstanding;
    cluster.client(rng.NextBelow(2)).Get(key, [&, key, floor](GetResult r) {
      --outstanding;
      outcomes << "get " << key << " " << StatusCodeName(r.status.code())
               << "\n";
      oracle.Read(key, floor, r);
    });
  };

  // Working set up front, then a scale-out (and, on odd seeds, a scale-in
  // back) interleaved with random traffic while the plan's faults fire.
  for (int i = 0; i < 30; ++i) {
    put_random();
  }
  membership::RebalanceOptions ro;
  ro.max_rounds = 400;  // chaos quiesces by quiet_after; bound the driver
  membership::RebalanceCoordinator grow(&cluster, ro);
  membership::RebalanceCoordinator shrink(&cluster, ro);
  bool grow_accepted = false;
  const int kOps = 160;
  const int grow_at = 10 + static_cast<int>(rng.NextBelow(40));
  const int shrink_at = grow_at + 40 + static_cast<int>(rng.NextBelow(40));
  for (int op = 0; op < kOps; ++op) {
    if (op == grow_at) {
      const consensus::ClusterConfig& cfg =
          cluster.runtime().membership().ConfigView(
              cluster.runtime().leader_node());
      const int32_t spare = cfg.FindSpare();
      grow_accepted =
          spare >= 0 && grow.AddServer(static_cast<net::NodeId>(spare));
      // Rejection is legal mid-chaos (no live leader, spare just consumed
      // by a promotion); the oracles below hold either way.
      outcomes << "grow " << (grow_accepted ? "accepted" : "rejected")
               << "\n";
    }
    if (op == shrink_at && seed % 2 == 1 && grow_accepted &&
        !grow.active()) {
      const consensus::ClusterConfig& cfg =
          cluster.runtime().membership().ConfigView(
              cluster.runtime().leader_node());
      if (!cfg.rebalancing() && cfg.s > 3) {
        const bool ok = shrink.RemoveServer(cfg.s - 1);
        outcomes << "shrink " << (ok ? "accepted" : "rejected") << "\n";
      }
    }
    if (rng.NextBernoulli(0.55)) {
      put_random();
    } else {
      get_random();
    }
    if (rng.NextBernoulli(0.7)) {
      cluster.RunFor((100 + rng.NextBelow(400)) * sim::kMicrosecond);
    }
  }
  EXPECT_TRUE(cluster.RunUntilDone([&] {
    return outstanding == 0 && !grow.active() && !shrink.active();
  })) << "seed=" << seed << ": traffic or rebalance hung";
  SettleAndSweep(cluster, shape.quiet_after_ns, oracle, outcomes);
  uint64_t violations = ReportViolations(oracle, seed);

  const consensus::ClusterConfig& final_cfg =
      cluster.runtime().membership().ConfigView(
          cluster.runtime().leader_node());
  std::string why;
  if (!final_cfg.CheckInvariants(&why)) {
    ++violations;
    ADD_FAILURE() << "config invariants broken after chaos resize: " << why
                  << " seed=" << seed;
  }

  MembershipChaosDigest digest;
  digest.outcomes = outcomes.str();
  digest.oracle_violations = violations;
  digest.epoch = final_cfg.epoch;
  digest.final_s = final_cfg.s;
  digest.keys_moved = grow.stats().keys_moved + shrink.stats().keys_moved;
  if (violations > 0) {
    DumpFailureArtifact(seed, options.fault_plan, hub.recorder());
  }
  return digest;
}

class MembershipChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MembershipChaosTest, CommittedDataSurvivesElasticResizeUnderChaos) {
  const MembershipChaosDigest d = RunMembershipChaos(GetParam());
  EXPECT_EQ(d.oracle_violations, 0u);
  EXPECT_FALSE(d.outcomes.empty());
}

// 20+ seeded plans, each a distinct fault schedule raced against a resize.
// Seeds 267 and 370 get a moved-marker that routes back to its own node.
// Seeds 14, 296, 421, 441 and 447 had an old owner serve past its marker.
INSTANTIATE_TEST_SUITE_P(
    Seeds, MembershipChaosTest,
    ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 6ULL, 7ULL, 8ULL, 9ULL,
                      10ULL, 11ULL, 12ULL, 13ULL, 14ULL, 15ULL, 16ULL, 17ULL,
                      18ULL, 19ULL, 20ULL, 41ULL, 85ULL, 267ULL, 296ULL,
                      370ULL, 421ULL, 441ULL, 447ULL),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

// Same seed, same resize, byte-identical replay.
TEST(MembershipChaosReplayTest, SameSeedReplaysByteIdentically) {
  for (uint64_t seed : {3ULL, 12ULL}) {
    const MembershipChaosDigest first = RunMembershipChaos(seed);
    const MembershipChaosDigest again = RunMembershipChaos(seed);
    EXPECT_TRUE(first == again) << "seed " << seed << " diverged on replay";
    EXPECT_EQ(first.outcomes, again.outcomes);
  }
}

// Scripted §13 scenarios the random plans may or may not hit, pinned
// deterministically: a source-node kill mid-drain, a join issued while the
// joining spare is partitioned away, and a leader crash mid-transition.

struct ScriptedElastic {
  explicit ScriptedElastic(uint64_t seed, uint32_t spares,
                           fault::FaultPlan plan = {}) {
    RingOptions o;
    o.s = 3;
    o.d = 2;
    o.spares = spares;
    o.clients = 1;
    o.seed = seed;
    o.fault_plan = std::move(plan);
    cluster = std::make_unique<RingCluster>(o);
    rep3 = *cluster->CreateMemgest(MemgestDescriptor::Replicated(3));
    srs32 = *cluster->CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  }
  Buffer ValueOf(int i) {
    return EncodeValue("sk-" + std::to_string(i), static_cast<uint64_t>(i),
                       200 + 13 * (i % 7));
  }
  void WriteKeys(int n) {
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster
                      ->Put("sk-" + std::to_string(i), ValueOf(i),
                            i % 2 == 0 ? rep3 : srs32)
                      .ok())
          << i;
    }
    written = n;
  }
  void VerifyAllKeys() {
    for (int i = 0; i < written; ++i) {
      auto got = cluster->Get("sk-" + std::to_string(i));
      ASSERT_TRUE(got.ok()) << "sk-" << i << ": " << got.status();
      EXPECT_EQ(*got, ValueOf(i)) << "sk-" << i;
    }
  }
  const consensus::ClusterConfig& LeaderConfig() {
    return cluster->runtime().membership().ConfigView(
        cluster->runtime().leader_node());
  }
  std::unique_ptr<RingCluster> cluster;
  MemgestId rep3 = 0;
  MemgestId srs32 = 0;
  int written = 0;
};

TEST(MembershipChaosScriptTest, SourceCrashMidDrainResumesAndCompletes) {
  ScriptedElastic e(31, /*spares=*/2);
  e.WriteKeys(90);
  membership::RebalanceOptions ro;
  ro.keys_per_sec = 4000.0;  // stretch the drain so the kill lands inside it
  membership::RebalanceCoordinator coord(e.cluster.get(), ro);
  ASSERT_TRUE(coord.AddServer(
      static_cast<net::NodeId>(e.LeaderConfig().FindSpare())));
  e.cluster->RunFor(3 * sim::kMillisecond);
  ASSERT_TRUE(coord.active());
  // A source node dies mid-drain; the remaining spare absorbs its slot and
  // the idempotent scan/migrate protocol re-drains what the crash dropped.
  e.cluster->KillNode(1, /*force_detect=*/true);
  ASSERT_TRUE(e.cluster->RunUntilDone([&] { return !coord.active(); }));
  EXPECT_FALSE(coord.failed());
  EXPECT_EQ(e.LeaderConfig().s, 4u);
  EXPECT_FALSE(e.LeaderConfig().rebalancing());
  e.VerifyAllKeys();
}

TEST(MembershipChaosScriptTest, JoinDuringPartitionCompletesAfterHeal) {
  // Node 5 is the only spare; it is partitioned away from every other node
  // (servers 0-4 and the client, node 6) when the join is issued.
  auto plan =
      fault::ParseFaultPlan("partition a=0,1,2,3,4,6 b=5 at=0ms heal=12ms");
  ASSERT_TRUE(plan.ok());
  ScriptedElastic e(32, /*spares=*/1, *plan);
  e.WriteKeys(60);
  ASSERT_LT(e.cluster->simulator().now(), 10 * sim::kMillisecond)
      << "writes outran the partition window";
  membership::RebalanceCoordinator coord(e.cluster.get());
  ASSERT_TRUE(coord.AddServer(5));
  e.cluster->RunFor(2 * sim::kMillisecond);
  // The joining node cannot hear the config while partitioned: the drain
  // holds (promotions and installs would be dropped on the floor).
  EXPECT_TRUE(coord.active());
  // After the heal, heartbeat anti-entropy delivers the missed config and
  // the transition completes.
  ASSERT_TRUE(e.cluster->RunUntilDone([&] { return !coord.active(); }));
  EXPECT_FALSE(coord.failed());
  EXPECT_EQ(e.LeaderConfig().s, 4u);
  EXPECT_FALSE(e.LeaderConfig().rebalancing());
  EXPECT_NE(e.LeaderConfig().slot_of_node[5], consensus::kSpareSlot);
  e.VerifyAllKeys();
}

// Regression (membership chaos seeds 267, 356, 370): a get that lands on a
// moved-marker whose key still routes to the same node used to re-enter
// ResolveGet -> DeliverGet without bound and overflow the stack. Here the
// key's owner is unchanged by the resize, so the marker fences a local
// re-encode; dropping the owner's appends to its Rep(3) replicas keeps the
// marker uncommitted, and the get must be answered meanwhile.
TEST(MembershipChaosScriptTest, GetOnAMarkerThatRoutesHomeIsAnswered) {
  auto plan = fault::ParseFaultPlan(
      "drop src=1 dst=2 p=1 from=1ms until=20ms\n"
      "drop src=1 dst=3 p=1 from=1ms until=20ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ScriptedElastic e(34, /*spares=*/1, *plan);
  // Shard 1 under both shapes: coordinated by node 1 before and after.
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "home-" + std::to_string(i);
      if (KeyShard(k, 3) == 1 && KeyShard(k, 4) == 1) {
        return k;
      }
    }
  }();
  ASSERT_TRUE(e.cluster->Put(key, "stays", e.rep3).ok());
  ASSERT_LT(e.cluster->simulator().now(), 1 * sim::kMillisecond);
  e.cluster->RunFor(1 * sim::kMillisecond);
  RingRuntime& rt = e.cluster->runtime();
  ASSERT_TRUE(rt.registry().Resize(4).ok());
  ASSERT_TRUE(rt.membership().BeginAddServer(
      static_cast<net::NodeId>(e.LeaderConfig().FindSpare())));
  e.cluster->RunFor(1 * sim::kMillisecond);
  ASSERT_TRUE(rt.membership().ConfigView(1).rebalancing());

  bool migrated = false;
  e.cluster->server(1).HandleMigrateKey(
      {.key = key,
       .requester = e.cluster->client(0).node(),
       .reply = [&](Status) { migrated = true; }});
  e.cluster->RunFor(100 * sim::kMicrosecond);
  ASSERT_FALSE(migrated) << "the marker should still be collecting acks";

  GetResult got;
  bool got_done = false;
  e.cluster->client(0).Get(key, [&](GetResult r) {
    got = std::move(r);
    got_done = true;
  });
  e.cluster->RunFor(100 * sim::kMicrosecond);
  ASSERT_TRUE(got_done);
  EXPECT_EQ(got.status.code(), StatusCode::kUnavailable) << got.status;
  EXPECT_FALSE(migrated);
}

// Regression (membership chaos seed 14): an old owner that also replicates
// the key's new-shape shard holds the new owner's install mirror at the
// moved-marker's own version, in its current-shape store. Routing used to
// find that mirror first; it is not moved, so the old owner served a put at
// the old shape after the handover, and the new owner never saw the
// acknowledged write.
TEST(MembershipChaosScriptTest, OldOwnerMirroringTheInstallStillForwards) {
  ScriptedElastic e(35, /*spares=*/1);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(e.cluster->Put("mi-" + std::to_string(i), "before", e.rep3)
                    .ok());
  }
  RingRuntime& rt = e.cluster->runtime();
  ASSERT_TRUE(rt.registry().Resize(4).ok());
  ASSERT_TRUE(rt.membership().BeginAddServer(
      static_cast<net::NodeId>(e.LeaderConfig().FindSpare())));
  e.cluster->RunFor(1 * sim::kMillisecond);
  const consensus::ClusterConfig& cfg = e.LeaderConfig();
  ASSERT_TRUE(cfg.rebalancing());
  const MemgestInfo* info = rt.registry().Get(e.rep3);
  ASSERT_NE(info, nullptr);
  // A key whose owner changes, and whose old owner replicates its new shard.
  Key key;
  net::NodeId old_owner = 0;
  net::NodeId new_owner = 0;
  for (int i = 0; i < 40 && key.empty(); ++i) {
    const Key k = "mi-" + std::to_string(i);
    const uint32_t shard = KeyShard(k, cfg.num_shards());
    old_owner = cfg.Previous().CoordinatorOfShard(
        KeyShard(k, cfg.Previous().num_shards()));
    new_owner = cfg.CoordinatorOfShard(shard);
    for (uint32_t slot : MemgestRegistry::ReplicaSlotsFor(*info, shard, cfg.s,
                                                          cfg.d)) {
      if (old_owner != new_owner && cfg.node_of_slot[slot] == old_owner) {
        key = k;
      }
    }
  }
  ASSERT_FALSE(key.empty()) << "no key replicated at its old owner";

  bool migrated = false;
  e.cluster->server(old_owner).HandleMigrateKey(
      {.key = key,
       .requester = e.cluster->client(0).node(),
       .reply = [&](Status s) { migrated = s.ok(); }});
  e.cluster->RunFor(1 * sim::kMillisecond);
  ASSERT_TRUE(migrated);

  // A put that reaches the old owner (a client with the old config) must be
  // forwarded to the new owner, which then serves the new bytes.
  bool put_done = false;
  PutRequest put;
  put.key = key;
  put.key_hash = HashKey(key);
  put.value = std::make_shared<Buffer>(ToBuffer("after"));
  put.memgest = e.rep3;
  put.client = e.cluster->client(0).node();
  put.req_id = uint64_t{1} << 40;
  put.reply = [&](Status s, Version) { put_done = s.ok(); };
  e.cluster->server(old_owner).HandlePut(std::move(put));
  e.cluster->RunFor(1 * sim::kMillisecond);
  ASSERT_TRUE(put_done);

  GetResult got;
  GetRequest get;
  get.key = key;
  get.key_hash = HashKey(key);
  get.client = e.cluster->client(0).node();
  get.req_id = (uint64_t{1} << 40) + 1;
  get.reply = [&](GetResult r) { got = std::move(r); };
  e.cluster->server(new_owner).HandleGet(std::move(get));
  e.cluster->RunFor(1 * sim::kMillisecond);
  ASSERT_TRUE(got.status.ok()) << got.status;
  EXPECT_EQ(ToString(*got.data), "after");
}

TEST(MembershipChaosScriptTest, LeaderCrashMidTransitionReanchorsAndDrains) {
  ScriptedElastic e(33, /*spares=*/2);
  e.WriteKeys(90);
  membership::RebalanceOptions ro;
  ro.keys_per_sec = 4000.0;
  membership::RebalanceCoordinator coord(e.cluster.get(), ro);
  ASSERT_TRUE(coord.AddServer(
      static_cast<net::NodeId>(e.LeaderConfig().FindSpare())));
  e.cluster->RunFor(3 * sim::kMillisecond);
  ASSERT_TRUE(coord.active());
  // The coordinator's anchor dies mid-transition. The next scan round
  // re-anchors at the elected successor and the drain resumes.
  const net::NodeId old_leader = e.cluster->runtime().leader_node();
  e.cluster->KillNode(old_leader, /*force_detect=*/true);
  ASSERT_TRUE(e.cluster->RunUntilDone([&] { return !coord.active(); }));
  EXPECT_FALSE(coord.failed());
  EXPECT_GE(coord.stats().leader_moves, 1u);
  EXPECT_NE(e.cluster->runtime().leader_node(), old_leader);
  EXPECT_EQ(e.LeaderConfig().s, 4u);
  EXPECT_FALSE(e.LeaderConfig().rebalancing());
  e.VerifyAllKeys();
}

// Scripted §16 scenarios: lease revocation composed with the classic gray
// failures — a partition, a gray pause, and a mid-drain rebalance. All three
// pin a revoke-then-promote round deterministically and check that the
// falsely-fenced node is readmitted and no committed data is lost.

TEST(RevokeScriptTest, RevokeDuringPartitionPromotesAndReadmits) {
  // Node 1 is partitioned away, then revoked while unreachable. The witness
  // quorum fences it and promotes the spare without waiting out heartbeat
  // timeouts; after the heal node 1 petitions and rejoins as a spare.
  auto plan = fault::ParseFaultPlan(
      "partition a=0,2,3,4,5,6 b=1 at=6ms heal=14ms\n"
      "revoke node=1 at=6500us\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ScriptedElastic e(41, /*spares=*/1, *plan);
  e.WriteKeys(40);
  ASSERT_LT(e.cluster->simulator().now(), 6 * sim::kMillisecond)
      << "writes outran the partition window";
  e.cluster->RunFor(30 * sim::kMillisecond);
  auto& m = e.cluster->runtime().membership();
  EXPECT_GE(m.fast_failovers(), 1u);
  // Readmitted: the healed node is a live member again (as a spare).
  EXPECT_FALSE(e.LeaderConfig().failed[1]);
  e.VerifyAllKeys();
}

TEST(RevokeScriptTest, RevokeDuringGrayPauseFencesAndRecovers) {
  // A gray pause: node 1 is alive but unresponsive. Revocation fences it
  // mid-pause; on resume it discovers the epoch bump (the leader
  // broadcasts config even to fenced peers) and petitions for readmission.
  auto plan = fault::ParseFaultPlan(
      "pause node=1 at=6ms resume=12ms\n"
      "revoke node=1 at=7ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  ScriptedElastic e(42, /*spares=*/1, *plan);
  e.WriteKeys(40);
  ASSERT_LT(e.cluster->simulator().now(), 6 * sim::kMillisecond)
      << "writes outran the pause window";
  e.cluster->RunFor(30 * sim::kMillisecond);
  auto& m = e.cluster->runtime().membership();
  EXPECT_GE(m.fast_failovers(), 1u);
  EXPECT_FALSE(e.LeaderConfig().failed[1]);
  e.VerifyAllKeys();
}

TEST(RevokeScriptTest, RevokeMidRebalanceDrainCompletes) {
  // A source node is falsely revoked in the middle of a slow elastic drain.
  // A revoke round promotes a spare into its slot; the idempotent scan/migrate
  // protocol re-drains whatever the fencing dropped and the resize completes.
  ScriptedElastic e(43, /*spares=*/2);
  e.WriteKeys(90);
  membership::RebalanceOptions ro;
  ro.keys_per_sec = 4000.0;  // stretch the drain so the revoke lands inside
  membership::RebalanceCoordinator coord(e.cluster.get(), ro);
  ASSERT_TRUE(coord.AddServer(
      static_cast<net::NodeId>(e.LeaderConfig().FindSpare())));
  e.cluster->RunFor(3 * sim::kMillisecond);
  ASSERT_TRUE(coord.active());
  e.cluster->runtime().membership().ReportSuspect(1);
  ASSERT_TRUE(e.cluster->RunUntilDone([&] { return !coord.active(); }));
  EXPECT_FALSE(coord.failed());
  auto& m = e.cluster->runtime().membership();
  EXPECT_GE(m.fast_failovers(), 1u);
  EXPECT_EQ(e.LeaderConfig().s, 4u);
  EXPECT_FALSE(e.LeaderConfig().rebalancing());
  e.VerifyAllKeys();
}

// The ringctl fault-spec grammar round-trips through ToString().
TEST(FaultPlanTest, ParseAndToStringRoundTrip) {
  const std::string spec =
      "drop src=1 dst=6 p=0.25 from=1ms until=5ms\n"
      "dup src=* dst=2 p=0.1\n"
      "delay src=0 dst=* ns=20us jitter=5us\n"
      "reorder src=3 dst=4 p=0.5 window=100us\n"
      "partition a=0,1,2 b=3,4 at=2ms heal=4ms\n"
      "pause node=5 at=1ms resume=3ms\n"
      "crash node=2 at=6ms recover=9ms\n";
  auto plan = fault::ParseFaultPlan(spec);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(plan->links.size(), 4u);
  // partition+heal, pause+resume, crash+recover: two events per directive.
  EXPECT_EQ(plan->events.size(), 6u);
  auto reparsed = fault::ParseFaultPlan(plan->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(plan->ToString(), reparsed->ToString());
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(fault::ParseFaultPlan("drop src=1").ok());          // no p=
  EXPECT_FALSE(fault::ParseFaultPlan("drop src=1 dst=2 p=2").ok());  // p>1
  EXPECT_FALSE(fault::ParseFaultPlan("explode node=3 at=1ms").ok());
  EXPECT_FALSE(fault::ParseFaultPlan("pause at=1ms").ok());  // no node
}

TEST(FaultPlanTest, RandomPlanIsDeterministicAndQuiesces) {
  fault::ChaosShape shape;
  shape.faultable = {0, 1, 2, 3, 4};
  shape.num_nodes = 7;
  shape.horizon_ns = 50 * sim::kMillisecond;
  shape.quiet_after_ns = 30 * sim::kMillisecond;
  const fault::FaultPlan a = fault::RandomFaultPlan(99, shape);
  const fault::FaultPlan b = fault::RandomFaultPlan(99, shape);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_FALSE(a.empty());
  for (const auto& lf : a.links) {
    EXPECT_LE(lf.until_ns, shape.quiet_after_ns);
  }
  for (const auto& ev : a.events) {
    EXPECT_LE(ev.at_ns, shape.quiet_after_ns);
  }
  EXPECT_NE(a.ToString(), fault::RandomFaultPlan(100, shape).ToString());
}

}  // namespace
}  // namespace ring
