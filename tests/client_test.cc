// Client library machinery (paper §5.5 client behaviour): request routing,
// timeout + multicast retry, duplicate suppression, statistics.
#include <gtest/gtest.h>

#include "src/common/hash.h"
#include "src/fault/fault.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

RingOptions Opts(uint64_t seed, uint64_t retry_us = 300) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 1;
  o.clients = 2;
  o.seed = seed;
  o.params.client_retry_timeout_ns = retry_us * sim::kMicrosecond;
  return o;
}

TEST(ClientTest, LatencyRecordedPerOperation) {
  RingCluster cluster(Opts(1));
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  auto& client = cluster.client(0);
  client.ResetStats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(cluster.Put("k" + std::to_string(i), "v", g).ok());
  }
  EXPECT_EQ(client.completed(), 10u);
  EXPECT_EQ(client.latencies().count(), 10u);
  EXPECT_EQ(client.timeouts(), 0u);
  EXPECT_EQ(client.outstanding(), 0u);
  // NIC-to-NIC put latency for tiny objects is a handful of microseconds.
  EXPECT_GT(client.latencies().Median(), 3.0);
  EXPECT_LT(client.latencies().Median(), 12.0);
}

TEST(ClientTest, RetryFindsPromotedCoordinator) {
  RingCluster cluster(Opts(2));
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "rt-" + std::to_string(i);
      if (KeyShard(k, 3) == 1) {
        return k;
      }
    }
  }();
  ASSERT_TRUE(cluster.Put(key, "survives", g).ok());
  cluster.KillNode(1, /*force_detect=*/true);
  // No explicit config refresh: the first get times out against the dead
  // node, multicasts, and the promoted spare answers.
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "survives");
  EXPECT_GT(cluster.client(0).latencies().values().back(), 250.0);  // paid one retry period
}

TEST(ClientTest, MulticastRepliesDeduplicated) {
  RingCluster cluster(Opts(3, /*retry_us=*/50));  // aggressive retries
  auto g = *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  // A large EC put takes longer than the 50 us retry period, so the client
  // multicasts while the original is still in flight. The completion count
  // must still be exactly one per op.
  auto& client = cluster.client(0);
  client.ResetStats();
  int acks = 0;
  bool done = false;
  client.Put("slow", std::make_shared<Buffer>(MakePatternBuffer(8192, 1)), g,
             [&](Status s, Version) {
               EXPECT_TRUE(s.ok());
               ++acks;
               done = true;
             });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return done; }));
  cluster.RunFor(5 * sim::kMillisecond);  // absorb any late duplicates
  EXPECT_EQ(acks, 1);
  EXPECT_EQ(client.completed(), 1u);
  // The duplicate version the retry may have created is eventually GC'd;
  // reads stay consistent.
  auto got = cluster.Get("slow");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, MakePatternBuffer(8192, 1));
}

TEST(ClientTest, ExhaustedRetryBudgetReportsUnavailable) {
  RingOptions o = Opts(4, /*retry_us=*/100);
  o.spares = 0;
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "to-" + std::to_string(i);
      if (KeyShard(k, 3) == 0) {
        return k;
      }
    }
  }();
  ASSERT_TRUE(cluster.Put(key, "x", g).ok());
  cluster.KillNode(0, /*force_detect=*/false);  // leader + shard 0, no spare
  auto got = cluster.Get(key);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_GT(cluster.client(0).timeouts(), 0u);
}

TEST(ClientTest, TwoClientsIndependentStats) {
  RingCluster cluster(Opts(5));
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  cluster.client(0).ResetStats();  // drop the admin op from the counters
  cluster.client(1).ResetStats();
  ASSERT_TRUE(cluster.Put("a", "1", g, /*client=*/0).ok());
  ASSERT_TRUE(cluster.Put("b", "2", g, /*client=*/1).ok());
  ASSERT_TRUE(cluster.Get("a", /*client=*/1).ok());
  EXPECT_EQ(cluster.client(0).completed(), 1u);
  EXPECT_EQ(cluster.client(1).completed(), 2u);
}

TEST(ClientTest, AdminOpsThroughLeader) {
  RingCluster cluster(Opts(6));
  // Create / describe / set-default / delete, all via client 1.
  bool done = false;
  Result<MemgestId> created = InternalError("pending");
  cluster.client(1).CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1, "ec"),
                                  [&](Result<MemgestId> r) {
                                    created = std::move(r);
                                    done = true;
                                  });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return done; }));
  ASSERT_TRUE(created.ok());
  auto desc = cluster.GetMemgestDescriptor(*created);
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->name, "ec");
  ASSERT_TRUE(cluster.SetDefaultMemgest(*created).ok());
  ASSERT_TRUE(cluster.Put("plain", "default-routed").ok());
  EXPECT_TRUE(cluster.Get("plain").ok());
  // The default memgest cannot be deleted.
  EXPECT_FALSE(cluster.DeleteMemgest(*created).ok());
}

// Regression: a *retried* move that gets postponed behind an uncommitted
// version (§5.2) must still answer once that version commits. The postponed
// continuation used to re-enter HandleMove with the retry flag still set, so
// the retried-request dedup map swallowed it on commit — the client burned
// through all its retries (each deduped the same way) and reported a
// spurious timeout for a move the server could have completed.
TEST(ClientTest, DeferredRetriedMoveStillReplies) {
  // Wedge the commit: the full-sync put needs an ack from its replica on
  // node 3, and every message from coordinator 2 to node 3 is lost for the
  // first 10 ms. A dropped message draws no NACK, so nobody suspects node 3;
  // the append lands when a retransmit outlives the drop window.
  RingOptions o = Opts(8);
  auto plan = fault::ParseFaultPlan("drop src=2 dst=3 p=1 until=10ms");
  ASSERT_TRUE(plan.ok());
  o.fault_plan = *plan;
  RingCluster cluster(o);
  auto fsync =
      *cluster.CreateMemgest(MemgestDescriptor::FullSyncReplicated(2));
  auto rep1 = *cluster.CreateMemgest(MemgestDescriptor::Replicated(1));
  const Key key = [] {
    for (int i = 0;; ++i) {
      Key k = "dm-" + std::to_string(i);
      if (KeyShard(k, 3) == 2) {
        return k;
      }
    }
  }();
  bool put_done = false;
  cluster.client(0).Put(key, std::make_shared<Buffer>(ToBuffer("wedged")),
                        fsync, [&](Status, Version) { put_done = true; });
  cluster.RunFor(1 * sim::kMillisecond);
  EXPECT_FALSE(put_done);  // write-ahead done, commit pending

  // The move arrives as a client *retry* (multicast after the original was
  // lost) and is postponed behind the uncommitted version.
  bool move_done = false;
  Status move_status = InternalError("no reply");
  MoveRequest req;
  req.key = key;
  req.dst = rep1;
  req.client = cluster.client(1).node();
  req.req_id = 7777;
  req.retry = true;
  req.reply = [&](Status s, Version) {
    move_status = s;
    move_done = true;
  };
  cluster.server(2).HandleMove(req);
  cluster.RunFor(1 * sim::kMillisecond);
  EXPECT_FALSE(move_done);
  // Later retries of the same request are deduplicated while it waits.
  cluster.server(2).HandleMove(req);

  // The link heals, the pending version commits, and the postponed move
  // re-executes — it must reply despite having entered as a retry.
  cluster.RunFor(150 * sim::kMillisecond);
  ASSERT_TRUE(move_done);
  EXPECT_TRUE(move_status.ok()) << move_status;
  auto got = cluster.Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "wedged");
}

// Regression: a put that takes a new version while a move's copy is queued
// must survive the move. The move used to re-check only that its source
// version still existed, then write the old bytes at a version above the
// put's: the put was acked and then lost.
TEST(ClientTest, PutRacingAMoveIsNotLost) {
  RingCluster cluster(Opts(9));
  auto srs32 = *cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2));
  auto rep3 = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = "race";
  ASSERT_TRUE(cluster.Put(key, MakePatternBuffer(64, 1), srs32).ok());

  // The move and the put leave two clients at the same instant.
  const Buffer fresh = MakePatternBuffer(64, 2);
  bool move_done = false;
  bool put_done = false;
  Version put_version = 0;
  cluster.client(0).Move(key, rep3, [&](Status s, Version) {
    EXPECT_TRUE(s.ok()) << s;
    move_done = true;
  });
  cluster.client(1).Put(key, std::make_shared<Buffer>(fresh), srs32,
                        [&](Status s, Version v) {
                          EXPECT_TRUE(s.ok()) << s;
                          put_version = v;
                          put_done = true;
                        });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return move_done && put_done; }));

  // The acked put is the newest content, whichever op the server ran last.
  GetResult got;
  bool got_done = false;
  cluster.client(0).Get(key, [&](GetResult r) {
    got = std::move(r);
    got_done = true;
  });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return got_done; }));
  ASSERT_TRUE(got.status.ok()) << got.status;
  EXPECT_GE(got.version, put_version);
  EXPECT_EQ(*got.data, fresh);
}

// ---- §16 multiversion retention + non-blocking reads ----

// Put n versions of one key synchronously; returns the acked versions in
// put order.
std::vector<Version> PutVersions(RingCluster& cluster, const Key& key,
                                 MemgestId g, int n) {
  std::vector<Version> versions;
  for (int i = 0; i < n; ++i) {
    bool done = false;
    cluster.client(0).Put(
        key, std::make_shared<Buffer>(MakePatternBuffer(128, 40 + i)), g,
        [&](Status s, Version v) {
          EXPECT_TRUE(s.ok());
          versions.push_back(v);
          done = true;
        });
    EXPECT_TRUE(cluster.RunUntilDone([&] { return done; }));
  }
  return versions;
}

TEST(MultiversionTest, GcRetainsDepthPlusNewestAndNeverEvictsNewest) {
  RingOptions o = Opts(11);
  o.multiversion_depth = 2;  // ν
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = "mv-bound";
  const std::vector<Version> versions = PutVersions(cluster, key, g, 6);
  cluster.RunFor(2 * sim::kMillisecond);  // let async redundancy GC drain
  // The coordinator keeps exactly the newest commit plus ν older committed
  // versions; every other node holds at most that many (replica copies of
  // retained versions survive with them).
  const uint32_t coordinator = KeyShard(key, 3);
  const auto at_coord =
      cluster.server(coordinator).RetainedCommittedVersions(key);
  ASSERT_EQ(at_coord.size(), 3u);
  EXPECT_EQ(at_coord[0], versions.back()) << "newest committed evicted";
  EXPECT_EQ(at_coord[1], versions[4]);
  EXPECT_EQ(at_coord[2], versions[3]);
  for (net::NodeId node = 0; node < 5; ++node) {
    const auto held = cluster.server(node).RetainedCommittedVersions(key);
    EXPECT_LE(held.size(), 3u) << "node " << node << " exceeds the ν+1 bound";
    if (!held.empty()) {
      EXPECT_EQ(held.front(), versions.back()) << "node " << node;
    }
  }
}

TEST(MultiversionTest, DepthZeroKeepsSeedSingleVersionBehaviour) {
  RingOptions o = Opts(12);  // multiversion_depth defaults to 0
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = "mv-zero";
  const std::vector<Version> versions = PutVersions(cluster, key, g, 4);
  cluster.RunFor(2 * sim::kMillisecond);
  const auto held =
      cluster.server(KeyShard(key, 3)).RetainedCommittedVersions(key);
  ASSERT_EQ(held.size(), 1u) << "ν=0 must collect every superseded version";
  EXPECT_EQ(held.front(), versions.back());
}

TEST(MultiversionTest, NonBlockingGetServesNewestCommittedDuringQuorumWait) {
  // Partition the key's replica nodes away so a put wedges mid-quorum (a
  // *pause* would not do: the gray-failed NIC still serves the one-sided
  // appends). "mv-nb" hashes to shard 0, whose Rep(3) copies ride the ring
  // successors — nodes 1 and 2. Write retransmit repairs the round after
  // the heal.
  auto plan = fault::ParseFaultPlan(
      "partition a=0,3,4,5,6,7 b=1,2 at=2ms heal=6ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status();
  RingOptions o = Opts(13);
  o.multiversion_depth = 2;
  o.fault_plan = *plan;
  o.params.write_retransmit_ns = 300 * sim::kMicrosecond;
  RingCluster cluster(o);
  auto g = *cluster.CreateMemgest(MemgestDescriptor::Replicated(3));
  const Key key = "mv-nb";
  const std::vector<Version> committed = PutVersions(cluster, key, g, 2);
  ASSERT_LT(cluster.simulator().now(), 2 * sim::kMillisecond);
  cluster.RunFor(2 * sim::kMillisecond +
                 500 * sim::kMicrosecond);  // inside the pause window
  bool put_acked = false;
  cluster.client(0).Put(key,
                        std::make_shared<Buffer>(MakePatternBuffer(128, 99)),
                        g, [&](Status, Version) { put_acked = true; });
  cluster.RunFor(500 * sim::kMicrosecond);
  ASSERT_FALSE(put_acked) << "quorum should be wedged by the paused replicas";
  // Strong reads would park behind the uncommitted head; a non-blocking
  // read returns the newest *committed* version immediately.
  GetResult nb;
  bool nb_done = false;
  cluster.client(1).Get(key, ReadMode::kNonBlocking, [&](GetResult r) {
    nb = std::move(r);
    nb_done = true;
  });
  cluster.RunFor(200 * sim::kMicrosecond);
  ASSERT_TRUE(nb_done) << "non-blocking read must not wait on the quorum";
  ASSERT_TRUE(nb.status.ok()) << nb.status;
  EXPECT_EQ(nb.version, committed.back());
  const uint32_t coordinator = KeyShard(key, 3);
  EXPECT_GE(cluster.server(coordinator).counters().nonblocking_gets, 1u);
  // After the replicas resume, the wedged put commits and the same read
  // mode advances to it — reads stay monotone.
  ASSERT_TRUE(cluster.RunUntilDone([&] { return put_acked; }));
  GetResult after;
  bool after_done = false;
  cluster.client(1).Get(key, ReadMode::kNonBlocking, [&](GetResult r) {
    after = std::move(r);
    after_done = true;
  });
  ASSERT_TRUE(cluster.RunUntilDone([&] { return after_done; }));
  ASSERT_TRUE(after.status.ok()) << after.status;
  EXPECT_GT(after.version, committed.back());
}

}  // namespace
}  // namespace ring
