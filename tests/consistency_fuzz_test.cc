// Randomized strong-consistency tests (paper §5.2).
//
// Concurrent clients fire random put/get/move/delete traffic at a cluster;
// the shared consistency oracle (src/check) checks what strong (sequential)
// consistency promises regardless of interleaving: no version reuse, no
// corrupt reads, no read below the highest version read or acknowledged
// before it was issued, and a durable quiescent sweep. Local checks add:
//   - monotonicity in completion order: reads of a key never travel back
//     in time, even when their lifetimes overlap,
//   - agreement: when traffic quiesces, every client reads the same value,
//   - durability: values committed to reliable memgests survive a
//     coordinator failure byte-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/check/oracle.h"
#include "src/policy/autotier.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

using check::EncodeValue;

// Random concurrent traffic against one cluster; shared by the plain fuzz
// and the policy variant. `with_policy` runs the adaptive resilience
// manager (src/policy) on top of the same traffic: its background moves —
// driven by the temperatures the traffic itself induces — interleave with
// the puts/gets/deletes, and the same consistency properties must hold.
void RunRandomTraffic(uint64_t seed, uint32_t groups, bool with_policy,
                      bool nonblocking_reads = false) {
  RingOptions options;
  options.s = 3;
  options.d = 2;
  options.groups = groups;
  options.spares = 1;
  options.clients = with_policy ? 4 : 3;  // client 3 issues policy moves
  options.seed = seed;
  if (nonblocking_reads) {
    // §16 multiversion mode: servers retain up to 3 committed versions per
    // key and kNonBlocking gets return the newest committed version instead
    // of parking behind an uncommitted head. Every oracle below must still
    // hold — non-blocking reads are recent-but-consistent, and the
    // monotonicity/read-your-writes witnesses are exactly where that is
    // allowed to go wrong.
    options.multiversion_depth = 3;
  }
  const ReadMode read_mode =
      nonblocking_reads ? ReadMode::kNonBlocking : ReadMode::kStrong;
  // Run the happens-before race detector alongside the traffic: strong
  // consistency also means no unfenced RDMA access pairs (observation only —
  // the schedule is unchanged).
  options.analyze_races = true;
  RingCluster cluster(options);
  std::vector<MemgestId> memgests = {
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(1)),
      *cluster.CreateMemgest(MemgestDescriptor::Replicated(3)),
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1)),
      *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2)),
  };

  std::optional<policy::AutoTierManager> manager;
  if (with_policy) {
    policy::AutoTierOptions ao;
    ao.epoch_ns = 2 * sim::kMillisecond;
    ao.mover.client_index = 3;
    ao.mover.moves_per_sec = 10'000.0;
    manager.emplace(
        &cluster,
        std::vector<policy::Tier>{
            {memgests[1], MemgestDescriptor::Replicated(3),
             cost::PriceTable{}.hot},
            {memgests[3], MemgestDescriptor::ErasureCoded(3, 2),
             cost::PriceTable{}.cool}},
        ao);
    manager->Start();
  }

  Rng rng(seed * 977 + 13);
  const int kKeys = 12;
  auto key_of = [](int i) { return "fuzz-" + std::to_string(i); };

  check::Oracle oracle;
  uint64_t next_nonce = 1;
  int outstanding = 0;

  const int kOps = 600;
  for (int op = 0; op < kOps; ++op) {
    const int key_idx = static_cast<int>(rng.NextBelow(kKeys));
    const Key key = key_of(key_idx);
    const uint32_t client = static_cast<uint32_t>(rng.NextBelow(3));
    const double dice = rng.NextDouble();
    if (dice < 0.45) {
      const uint64_t nonce = next_nonce++;
      const size_t size = 16 + rng.NextBelow(2000);
      const MemgestId g = memgests[rng.NextBelow(memgests.size())];
      Buffer value = EncodeValue(key, nonce, size);
      ++outstanding;
      cluster.client(client).Put(
          key, std::make_shared<Buffer>(value), g,
          [&, key, value](Status s, Version v) {
            --outstanding;
            if (s.ok()) {
              oracle.PutAcked(key, v, value);
            }
          });
    } else if (dice < 0.80) {
      ++outstanding;
      const Version floor = oracle.Floor(key);
      cluster.client(client).Get(key, read_mode, [&, key, floor](GetResult r) {
        --outstanding;
        // Checked in completion order too: never below a version read by
        // the time this get completes.
        oracle.Read(key, std::max(floor, oracle.HighestRead(key)), r);
      });
    } else if (dice < 0.92) {
      const MemgestId g = memgests[rng.NextBelow(memgests.size())];
      ++outstanding;
      // A move re-homes the highest version's bytes under a new version
      // of unknown bytes; the final sweep covers it.
      cluster.client(client).Move(key, g,
                                  [&](Status, Version) { --outstanding; });
    } else {
      ++outstanding;
      cluster.client(client).Delete(key, [&, key](Status s) {
        --outstanding;
        if (s.ok()) {
          oracle.DeleteAcked(key);
        }
      });
    }
    // Random pacing: bursts and gaps.
    if (rng.NextBernoulli(0.6)) {
      cluster.RunFor(rng.NextBelow(30) * sim::kMicrosecond);
    }
  }
  ASSERT_TRUE(cluster.RunUntilDone([&] { return outstanding == 0; }));
  cluster.RunFor(5 * sim::kMillisecond);
  if (manager.has_value()) {
    // Let queued policy moves finish so the sweep also covers freshly
    // re-tiered keys.
    ASSERT_TRUE(cluster.RunUntilDone([&] { return manager->mover().idle(); }));
    cluster.RunFor(2 * sim::kMillisecond);
  }

  // Quiescent agreement + durability sweep: all clients agree, and the
  // version is at least the highest acked put version (background moves
  // only ever advance a key's version).
  for (int i = 0; i < kKeys; ++i) {
    const Key key = key_of(i);
    std::vector<GetResult> reads;
    for (uint32_t c = 0; c < 3; ++c) {
      GetResult r;
      bool done = false;
      // At quiescence a non-blocking read must coincide with a strong one
      // (no uncommitted head left to dodge), so the agreement sweep runs in
      // the same mode as the traffic.
      cluster.client(c).Get(key, read_mode, [&](GetResult got) {
        r = std::move(got);
        done = true;
      });
      ASSERT_TRUE(cluster.RunUntilDone([&] { return done; }));
      oracle.Sweep(key, r);
      reads.push_back(std::move(r));
    }
    for (uint32_t c = 1; c < 3; ++c) {
      ASSERT_EQ(reads[0].status.ok(), reads[c].status.ok()) << key;
      if (reads[0].status.ok()) {
        EXPECT_EQ(*reads[0].data, *reads[c].data)
            << "clients disagree on " << key;
      }
    }
  }
  for (const check::Violation& v : oracle.violations()) {
    ADD_FAILURE() << v.ToString() << " seed=" << seed;
  }
  const analysis::RaceDetector* race = cluster.simulator().race();
  ASSERT_NE(race, nullptr);
  EXPECT_TRUE(race->races().empty()) << race->Report(
      &cluster.simulator().hub().tracer());
  if (manager.has_value()) {
    manager->Stop();
  }
}

// (seed, memgest groups): the grouped variants exercise §5.4 rotation under
// the same random traffic.
class ConsistencyFuzzTest
    : public ::testing::TestWithParam<std::pair<uint64_t, uint32_t>> {};

TEST_P(ConsistencyFuzzTest, RandomConcurrentTraffic) {
  const auto [seed, groups] = GetParam();
  RunRandomTraffic(seed, groups, /*with_policy=*/false);
}

// Same properties with the adaptive resilience manager re-tiering keys in
// the background while the traffic runs.
class PolicyConsistencyFuzzTest
    : public ::testing::TestWithParam<std::pair<uint64_t, uint32_t>> {};

TEST_P(PolicyConsistencyFuzzTest, BackgroundMovesPreserveConsistency) {
  const auto [seed, groups] = GetParam();
  RunRandomTraffic(seed, groups, /*with_policy=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ConsistencyFuzzTest,
    ::testing::Values(std::make_pair(1ULL, 1u), std::make_pair(2ULL, 1u),
                      std::make_pair(3ULL, 1u), std::make_pair(7ULL, 1u),
                      std::make_pair(13ULL, 1u), std::make_pair(21ULL, 5u),
                      std::make_pair(42ULL, 5u), std::make_pair(99ULL, 5u)),
    [](const ::testing::TestParamInfo<std::pair<uint64_t, uint32_t>>& info) {
      return "seed" + std::to_string(info.param.first) + "_g" +
             std::to_string(info.param.second);
    });

// §16 non-blocking multiversion reads under the same random traffic: the
// full strong-consistency oracle set (integrity, monotonicity,
// read-your-writes, quiescent agreement) must hold with every get served
// from the retained-version scan instead of the quorum-commit wait.
class NonBlockingConsistencyFuzzTest
    : public ::testing::TestWithParam<std::pair<uint64_t, uint32_t>> {};

TEST_P(NonBlockingConsistencyFuzzTest, NonBlockingReadsPreserveConsistency) {
  const auto [seed, groups] = GetParam();
  RunRandomTraffic(seed, groups, /*with_policy=*/false,
                   /*nonblocking_reads=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, NonBlockingConsistencyFuzzTest,
    ::testing::Values(std::make_pair(1ULL, 1u), std::make_pair(8ULL, 1u),
                      std::make_pair(19ULL, 1u), std::make_pair(42ULL, 5u),
                      std::make_pair(77ULL, 5u)),
    [](const ::testing::TestParamInfo<std::pair<uint64_t, uint32_t>>& info) {
      return "seed" + std::to_string(info.param.first) + "_g" +
             std::to_string(info.param.second);
    });

INSTANTIATE_TEST_SUITE_P(
    Seeds, PolicyConsistencyFuzzTest,
    ::testing::Values(std::make_pair(4ULL, 1u), std::make_pair(11ULL, 1u),
                      std::make_pair(23ULL, 1u), std::make_pair(57ULL, 5u)),
    [](const ::testing::TestParamInfo<std::pair<uint64_t, uint32_t>>& info) {
      return "seed" + std::to_string(info.param.first) + "_g" +
             std::to_string(info.param.second);
    });

// The shared oracle on hand-built histories: each kind fires exactly once
// where it should, and a legal history fires nothing.
GetResult ReadOf(Version version, const Buffer& bytes) {
  return GetResult{OkStatus(), version, std::make_shared<Buffer>(bytes)};
}

GetResult FailedRead(Status status) {
  return GetResult{std::move(status), 0, nullptr};
}

void ExpectOnly(const check::Oracle& oracle, check::Kind kind) {
  ASSERT_EQ(oracle.violations().size(), 1u);
  EXPECT_EQ(oracle.violations()[0].kind, kind)
      << oracle.violations()[0].ToString();
}

const Buffer kA = EncodeValue("k", 1, 40);
const Buffer kB = EncodeValue("k", 2, 40);

TEST(ConsistencyOracleTest, LegalHistoryIsClean) {
  check::Oracle oracle;
  oracle.PutAcked("k", 1, kA);
  oracle.PutAcked("k", 1, kA);  // a duplicate ack of the same write
  const Version early = oracle.Floor("k");
  oracle.PutAcked("k", 2, kB);
  oracle.Read("k", early, ReadOf(1, kA));  // overlapped the v2 put
  oracle.Read("k", oracle.Floor("k"), ReadOf(3, kA));  // v3: unknown bytes
  oracle.Read("k", oracle.Floor("k"), FailedRead(UnavailableError("x")));
  oracle.Sweep("k", ReadOf(3, kA));
  oracle.PutAcked("gone", 1, kA);
  oracle.DeleteAcked("gone");
  oracle.Sweep("gone", FailedRead(NotFoundError("deleted")));
  oracle.Sweep("never-put", FailedRead(NotFoundError("no such key")));
  EXPECT_TRUE(oracle.violations().empty())
      << oracle.violations()[0].ToString();
  EXPECT_EQ(oracle.SweepKeys(), std::vector<Key>{"k"});
}

TEST(ConsistencyOracleTest, VersionReuse) {
  check::Oracle oracle;
  oracle.PutAcked("k", 4, kA);
  oracle.PutAcked("k", 4, kB);
  ExpectOnly(oracle, check::Kind::kVersionReuse);
}

TEST(ConsistencyOracleTest, CorruptRead) {
  check::Oracle oracle;
  oracle.PutAcked("k", 4, kA);
  oracle.Read("k", 0, ReadOf(4, kB));
  ExpectOnly(oracle, check::Kind::kCorruptRead);
}

TEST(ConsistencyOracleTest, TimeTravelBelowTheReadFloor) {
  check::Oracle oracle;
  oracle.Read("k", 0, ReadOf(5, kA));
  const Version floor = oracle.Floor("k");
  EXPECT_EQ(floor, 5u);
  oracle.Read("k", floor, ReadOf(3, kA));
  ExpectOnly(oracle, check::Kind::kTimeTravel);
}

TEST(ConsistencyOracleTest, TimeTravelBelowTheAcknowledgedFloor) {
  check::Oracle oracle;
  oracle.PutAcked("k", 5, kA);
  const Version floor = oracle.Floor("k");
  EXPECT_EQ(floor, 5u);
  oracle.Read("k", floor, ReadOf(4, kB));
  ExpectOnly(oracle, check::Kind::kTimeTravel);
}

TEST(ConsistencyOracleTest, Durability) {
  check::Oracle oracle;
  oracle.PutAcked("lost", 2, kA);
  oracle.Sweep("lost", FailedRead(NotFoundError("no such key")));
  oracle.PutAcked("old", 6, kB);
  oracle.Sweep("old", ReadOf(6, kB));
  ExpectOnly(oracle, check::Kind::kDurability);
  check::Oracle regressed;
  regressed.PutAcked("k", 6, kA);
  regressed.Sweep("k", ReadOf(5, kB));  // not also time travel
  ExpectOnly(regressed, check::Kind::kDurability);
}

TEST(ConsistencyOracleTest, Unanswered) {
  check::Oracle oracle;
  oracle.PutAcked("k", 1, kA);
  oracle.Sweep("k", FailedRead(TimeoutError("retry budget exhausted")));
  ExpectOnly(oracle, check::Kind::kUnanswered);
}

// ring-mc reports the oracle's kinds under these names.
TEST(ConsistencyOracleTest, KindNames) {
  EXPECT_STREQ(check::KindName(check::Kind::kVersionReuse), "version-reuse");
  EXPECT_STREQ(check::KindName(check::Kind::kCorruptRead), "corrupt-read");
  EXPECT_STREQ(check::KindName(check::Kind::kTimeTravel), "time-travel");
  EXPECT_STREQ(check::KindName(check::Kind::kDurability), "durability");
  EXPECT_STREQ(check::KindName(check::Kind::kUnanswered), "unanswered");
}

TEST(ConsistencyFailureFuzzTest, CommittedReliableDataSurvivesFailures) {
  for (uint64_t seed : {5ULL, 17ULL, 33ULL}) {
    RingOptions options;
    options.s = 3;
    options.d = 2;
    options.spares = 2;
    options.clients = 2;
    options.seed = seed;
    RingCluster cluster(options);
    const MemgestId rep3 =
        *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
    const MemgestId srs32 =
        *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));

    Rng rng(seed);
    std::map<Key, Buffer> committed;
    for (int i = 0; i < 60; ++i) {
      const Key key = "surv-" + std::to_string(i);
      const Buffer value =
          EncodeValue(key, i, 64 + rng.NextBelow(4000));
      const MemgestId g = rng.NextBernoulli(0.5) ? rep3 : srs32;
      ASSERT_TRUE(cluster.Put(key, value, g).ok());
      committed[key] = value;
    }
    // Kill a random non-leader KVS node mid-flight with extra traffic racing.
    const net::NodeId victim = 1 + rng.NextBelow(4);
    int extra_outstanding = 0;
    for (int i = 0; i < 20; ++i) {
      const Key key = "racing-" + std::to_string(i);
      ++extra_outstanding;
      cluster.client(1).Put(key,
                            std::make_shared<Buffer>(EncodeValue(key, i, 500)),
                            rep3, [&](Status, Version) {
                              --extra_outstanding;
                            });
    }
    cluster.KillNode(victim, /*force_detect=*/true);
    cluster.RunFor(20 * sim::kMillisecond);

    // Every value committed before the failure must read back byte-exactly.
    for (const auto& [key, value] : committed) {
      auto got = cluster.Get(key);
      ASSERT_TRUE(got.ok()) << key << " victim=" << victim;
      EXPECT_EQ(*got, value) << key;
    }
    cluster.RunUntilDone([&] { return extra_outstanding == 0; },
                         50'000'000);
  }
}

}  // namespace
}  // namespace ring
