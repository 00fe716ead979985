#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/hash.h"
#include "src/gf/gf256.h"
#include "src/ring/cluster.h"

namespace ring {
namespace {

std::vector<uint32_t> Slots(const SlotList& list) {
  return std::vector<uint32_t>(list.begin(), list.end());
}

// A key that hashes to the given shard (deterministic).
Key KeyInShard(uint32_t shard, uint32_t s, int salt = 0) {
  for (int i = 0;; ++i) {
    Key k = "key-" + std::to_string(salt) + "-" + std::to_string(i);
    if (KeyShard(k, s) == shard) {
      return k;
    }
  }
}

TEST(MemgestDescriptorTest, Basics) {
  const auto rep3 = MemgestDescriptor::Replicated(3);
  EXPECT_FALSE(rep3.unreliable());
  EXPECT_EQ(rep3.redundancy(), 2u);
  EXPECT_DOUBLE_EQ(rep3.StorageOverhead(), 3.0);
  EXPECT_EQ(rep3.ToString(), "Rep(3)");

  const auto rep1 = MemgestDescriptor::Replicated(1);
  EXPECT_TRUE(rep1.unreliable());
  EXPECT_EQ(rep1.redundancy(), 0u);

  const auto srs32 = MemgestDescriptor::ErasureCoded(3, 2);
  EXPECT_EQ(srs32.redundancy(), 2u);
  EXPECT_NEAR(srs32.StorageOverhead(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(srs32.ToString(), "SRS(3,2)");
}

TEST(VolatileIndexTest, VersionOrdering) {
  VolatileIndex idx;
  EXPECT_EQ(idx.NextVersion("a"), 1u);
  idx.Add("a", 1, 0);
  idx.Add("a", 3, 1);
  idx.Add("a", 2, 0);
  ASSERT_TRUE(idx.Highest("a").has_value());
  EXPECT_EQ(idx.Highest("a")->version, 3u);
  EXPECT_EQ(idx.Highest("a")->memgest, 1u);
  EXPECT_EQ(idx.NextVersion("a"), 4u);
  idx.Remove("a", 3);
  EXPECT_EQ(idx.Highest("a")->version, 2u);
  idx.Remove("a", 1);
  idx.Remove("a", 2);
  EXPECT_FALSE(idx.Highest("a").has_value());
}

TEST(MetadataTableTest, InsertFindErase) {
  MetadataTable t;
  MetaEntry e;
  e.version = 5;
  e.addr = 100;
  e.len = 8;
  t.Insert("k", e);
  ASSERT_NE(t.Find("k", 5), nullptr);
  EXPECT_EQ(t.Find("k", 5)->addr, 100u);
  EXPECT_EQ(t.Find("k", 4), nullptr);
  EXPECT_EQ(t.entry_count(), 1u);
  e.version = 7;
  t.Insert("k", e);
  EXPECT_EQ(t.Highest("k")->version, 7u);
  EXPECT_EQ(t.VersionsOf("k"), (std::vector<Version>{5, 7}));
  t.Erase("k", 5);
  EXPECT_EQ(t.entry_count(), 1u);
  t.Erase("k", 7);
  EXPECT_EQ(t.Highest("k"), nullptr);
}

TEST(MemgestRegistryTest, CreateAndPlacement) {
  MemgestRegistry reg(3, 2);
  auto rep3 = reg.Create(MemgestDescriptor::Replicated(3));
  ASSERT_TRUE(rep3.ok());
  auto srs = reg.Create(MemgestDescriptor::ErasureCoded(2, 1));
  ASSERT_TRUE(srs.ok());
  EXPECT_EQ(reg.count(), 2u);
  EXPECT_EQ(reg.default_id(), *rep3);

  const MemgestInfo* info = reg.Get(*rep3);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(Slots(reg.ReplicaSlots(*info, 0)), (std::vector<uint32_t>{1, 2}));
  EXPECT_EQ(Slots(reg.ReplicaSlots(*info, 2)), (std::vector<uint32_t>{3, 4}));

  const MemgestInfo* ec = reg.Get(*srs);
  ASSERT_NE(ec, nullptr);
  ASSERT_NE(ec->code, nullptr);
  EXPECT_EQ(ec->code->s(), 3u);
  EXPECT_EQ(Slots(reg.ParitySlots(*ec, 0)), (std::vector<uint32_t>{3}));

  // Validation.
  EXPECT_FALSE(reg.Create(MemgestDescriptor::Replicated(6)).ok());   // > s+d
  EXPECT_FALSE(reg.Create(MemgestDescriptor::ErasureCoded(4, 1)).ok());  // k>s
  EXPECT_FALSE(reg.Create(MemgestDescriptor::ErasureCoded(3, 3)).ok());  // m>d
}

// A write tracks the acks it is owed as one bit per redundancy target in a
// 32-bit mask, so no cluster shape may admit more than kMaxFanOut targets.
TEST(MemgestRegistryTest, CreateRejectsFanOutBeyondAckMask) {
  MemgestRegistry reg(/*s=*/40, /*d=*/40);
  EXPECT_EQ(reg.Create(MemgestDescriptor::Replicated(33)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Create(MemgestDescriptor::ErasureCoded(2, 32)).status().code(),
            StatusCode::kInvalidArgument);
  // At the bound: 31 targets, all of them in the inline slot list.
  const auto rep32 = reg.Create(MemgestDescriptor::Replicated(32));
  ASSERT_TRUE(rep32.ok());
  const SlotList replicas = reg.ReplicaSlots(*reg.Get(*rep32), 7);
  ASSERT_EQ(replicas.size(), kMaxFanOut);
  for (uint32_t t = 0; t < replicas.size(); ++t) {
    EXPECT_EQ(replicas[t], 8 + t);
  }
  const auto srs31 = reg.Create(MemgestDescriptor::ErasureCoded(2, 31));
  ASSERT_TRUE(srs31.ok());
  EXPECT_EQ(reg.ParitySlots(*reg.Get(*srs31), 0).size(), kMaxFanOut);
}

TEST(MemgestRegistryTest, ResizeKeepsFanOutBound) {
  MemgestRegistry reg(/*s=*/3, /*d=*/32);
  const auto rep32 = reg.Create(MemgestDescriptor::Replicated(32));
  ASSERT_TRUE(rep32.ok());
  const auto srs31 = reg.Create(MemgestDescriptor::ErasureCoded(2, 31));
  ASSERT_TRUE(srs31.ok());
  EXPECT_EQ(reg.Create(MemgestDescriptor::ErasureCoded(2, 32)).status().code(),
            StatusCode::kInvalidArgument);
  // Widening the group lifts r <= s+d well past 33; the fan-out bound
  // still refuses, and the memgests at the bound keep their full fan-out
  // under the new shape and after shrinking back.
  ASSERT_TRUE(reg.Resize(40).ok());
  EXPECT_EQ(reg.Create(MemgestDescriptor::Replicated(33)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.Create(MemgestDescriptor::ErasureCoded(2, 32)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(MemgestRegistry::ReplicaSlotsFor(*reg.Get(*rep32), 39, 40, 32)
                .size(),
            kMaxFanOut);
  EXPECT_EQ(reg.ParitySlots(*reg.Get(*srs31), 0).size(), kMaxFanOut);
  ASSERT_TRUE(reg.Resize(3).ok());
  EXPECT_EQ(reg.ReplicaSlots(*reg.Get(*rep32), 0).size(), kMaxFanOut);
}

// ---------------------------------------------------------------------------
// End-to-end KVS behaviour

class RingKvsTest : public ::testing::Test {
 protected:
  RingOptions DefaultOptions() {
    RingOptions o;
    o.s = 3;
    o.d = 2;
    o.spares = 2;
    o.clients = 2;
    o.seed = 99;
    return o;
  }

  void SetUpCluster(RingOptions o) {
    cluster_ = std::make_unique<RingCluster>(o);
    rep1_ = *cluster_->CreateMemgest(MemgestDescriptor::Replicated(1, "rep1"));
    rep3_ = *cluster_->CreateMemgest(MemgestDescriptor::Replicated(3, "rep3"));
    srs21_ =
        *cluster_->CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1, "srs21"));
    srs32_ =
        *cluster_->CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2, "srs32"));
  }

  void SetUp() override { SetUpCluster(DefaultOptions()); }

  std::unique_ptr<RingCluster> cluster_;
  MemgestId rep1_ = 0;
  MemgestId rep3_ = 0;
  MemgestId srs21_ = 0;
  MemgestId srs32_ = 0;
};

TEST_F(RingKvsTest, PutGetRoundTripAllMemgests) {
  for (MemgestId g : {rep1_, rep3_, srs21_, srs32_}) {
    for (size_t size : {1u, 17u, 1024u, 5000u}) {
      const Key key = "k-" + std::to_string(g) + "-" + std::to_string(size);
      const Buffer value = MakePatternBuffer(size, g * 1000 + size);
      ASSERT_TRUE(cluster_->Put(key, value, g).ok()) << g << " " << size;
      auto got = cluster_->Get(key);
      ASSERT_TRUE(got.ok()) << g << " " << size;
      EXPECT_EQ(*got, value) << g << " " << size;
    }
  }
}

TEST_F(RingKvsTest, GetMissingKeyIsNotFound) {
  auto got = cluster_->Get("nope");
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, OverwriteReturnsLatest) {
  const Key key = "overwrite";
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        cluster_->Put(key, "value-" + std::to_string(i), rep3_).ok());
  }
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "value-4");
}

TEST_F(RingKvsTest, OverwriteAcrossMemgests) {
  // Paper §5.2: versions may live in different memgests; the highest wins.
  const Key key = "cross";
  ASSERT_TRUE(cluster_->Put(key, "in-rep3", rep3_).ok());
  ASSERT_TRUE(cluster_->Put(key, "in-srs32", srs32_).ok());
  ASSERT_TRUE(cluster_->Put(key, "in-rep1", rep1_).ok());
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "in-rep1");
}

TEST_F(RingKvsTest, DeleteRemovesKey) {
  const Key key = "todelete";
  ASSERT_TRUE(cluster_->Put(key, "payload", rep3_).ok());
  ASSERT_TRUE(cluster_->Delete(key).ok());
  auto got = cluster_->Get(key);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotFound);
  // Deleting a missing key reports NotFound.
  EXPECT_EQ(cluster_->Delete("never-existed").code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, PutAfterDeleteRevives) {
  const Key key = "lazarus";
  ASSERT_TRUE(cluster_->Put(key, "v1", rep3_).ok());
  ASSERT_TRUE(cluster_->Delete(key).ok());
  ASSERT_TRUE(cluster_->Put(key, "v2", srs21_).ok());
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "v2");
}

TEST_F(RingKvsTest, MoveAcrossMemgestsPreservesValue) {
  const Buffer value = MakePatternBuffer(2048, 7);
  const Key key = "mover";
  ASSERT_TRUE(cluster_->Put(key, value, rep1_).ok());
  // rep1 -> srs32 -> rep3 -> srs21 -> rep1
  for (MemgestId dst : {srs32_, rep3_, srs21_, rep1_}) {
    ASSERT_TRUE(cluster_->Move(key, dst).ok()) << dst;
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << dst;
    EXPECT_EQ(*got, value) << dst;
  }
}

TEST_F(RingKvsTest, MoveMissingKeyIsNotFound) {
  EXPECT_EQ(cluster_->Move("ghost", rep3_).code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, PutToUnknownMemgestRejected) {
  EXPECT_EQ(cluster_->Put("k", "v", 999).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RingKvsTest, ConcurrentPutsSerializeByVersion) {
  // Two clients race puts on one key; a subsequent read must return the
  // version committed last (highest version; Fig. 5 semantics).
  const Key key = "race";
  int done = 0;
  cluster_->client(0).Put(key, std::make_shared<Buffer>(ToBuffer("from-0")),
                          srs32_, [&](Status s, Version) {
                            EXPECT_TRUE(s.ok()) << s;
                            ++done;
                          });
  cluster_->client(1).Put(key, std::make_shared<Buffer>(ToBuffer("from-1")),
                          rep1_, [&](Status s, Version) {
                            EXPECT_TRUE(s.ok()) << s;
                            ++done;
                          });
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return done == 2; }));
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  // Both committed; the get sees whichever version is higher — determined
  // by coordinator arrival order, not by commit speed. The value must be
  // one of the two, and repeated gets agree (strong consistency).
  const std::string v1 = ToString(*got);
  EXPECT_TRUE(v1 == "from-0" || v1 == "from-1");
  auto again = cluster_->Get(key, 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(ToString(*again), v1);
}

TEST_F(RingKvsTest, GetIssuedDuringSlowPutReturnsNewVersion) {
  // Fig. 5 client D: a get that observes an uncommitted higher version is
  // deferred and answers with that version once committed.
  const Key key = "deferred";
  ASSERT_TRUE(cluster_->Put(key, "old", rep1_).ok());
  bool put_done = false;
  bool get_done = false;
  Buffer got_value;
  // Slow put (4 KiB into SRS32: GF delta work + two parity round trips keep
  // the version uncommitted for ~10 us) with a get injected mid-window: the
  // write-ahead version exists but is not yet durable when the get is
  // processed, so the reply must be deferred to commit time (Fig. 5).
  const Buffer new_value = MakePatternBuffer(4096, 1234);
  cluster_->client(0).Put(key, std::make_shared<Buffer>(new_value), srs32_,
                          [&](Status s, Version) {
                            EXPECT_TRUE(s.ok());
                            put_done = true;
                          });
  cluster_->simulator().After(10 * sim::kMicrosecond, [&] {
    cluster_->client(1).Get(key, [&](GetResult r) {
      ASSERT_TRUE(r.status.ok());
      got_value = *r.data;
      get_done = true;
    });
  });
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return put_done && get_done; }));
  EXPECT_EQ(got_value, new_value);
  const net::NodeId coord = KeyShard(key, 3);
  EXPECT_GT(cluster_->server(coord).counters().deferred_gets, 0u);
}

TEST_F(RingKvsTest, ParityInvariantHoldsAfterChurn) {
  // White-box: after puts, overwrites, moves and deletes, every parity
  // node's buffer must equal the SRS-encoding of the data heaps.
  auto& rt = cluster_->runtime();
  const MemgestInfo* info = rt.registry().Get(srs32_);
  ASSERT_NE(info, nullptr);
  for (int i = 0; i < 40; ++i) {
    const Key key = "churn-" + std::to_string(i % 13);
    ASSERT_TRUE(cluster_
                    ->Put(key, MakePatternBuffer(64 + 97 * i % 3000, i),
                          srs32_)
                    .ok());
    if (i % 5 == 2) {
      ASSERT_TRUE(cluster_->Move(key, srs32_).ok()) << i;
    }
    if (i % 7 == 3) {
      ASSERT_TRUE(cluster_->Delete(key).ok()) << i;
    }
  }
  cluster_->RunFor(5 * sim::kMillisecond);  // drain async GC notices

  const uint32_t s = 3;
  for (uint32_t j = 0; j < 2; ++j) {
    auto& parity_server = cluster_->server(s + j);
    // Expected parity: encode all data heaps through the address map.
    uint64_t max_extent = 0;
    for (uint32_t shard = 0; shard < s; ++shard) {
      max_extent = std::max(
          max_extent, cluster_->server(shard).HeapExtent(srs32_, shard));
    }
    const uint64_t pextent = info->map->ParityExtent(max_extent);
    Buffer expected(pextent, 0);
    for (uint32_t shard = 0; shard < s; ++shard) {
      const uint64_t extent =
          cluster_->server(shard).HeapExtent(srs32_, shard);
      Buffer heap = cluster_->server(shard).ReadRawForRecovery(
          srs32_, shard, 0, static_cast<uint32_t>(extent));
      for (const auto& seg : info->map->MapDataRange(shard, 0, extent)) {
        gf::MulAddRegion(
            info->code->rs().Coefficient(j, seg.rs_block),
            ByteSpan(heap.data() + seg.node_offset, seg.length),
            MutableByteSpan(expected.data() + seg.parity_offset, seg.length));
      }
    }
    Buffer actual = parity_server.ReadRawParity(
        srs32_, /*group=*/0, 0, static_cast<uint32_t>(pextent));
    EXPECT_EQ(actual, expected) << "parity node " << j;
  }
}

TEST_F(RingKvsTest, StorageOverheadMatchesSchemes) {
  // Fresh cluster per scheme keeps the accounting clean.
  for (auto [desc, factor] :
       std::vector<std::pair<MemgestDescriptor, double>>{
           {MemgestDescriptor::Replicated(1), 1.0},
           {MemgestDescriptor::Replicated(3), 3.0},
           {MemgestDescriptor::ErasureCoded(3, 2), 5.0 / 3.0},
       }) {
    RingCluster cluster(DefaultOptions());
    auto g = cluster.CreateMemgest(desc);
    ASSERT_TRUE(g.ok());
    const size_t object = 4096;
    const int n = 30;
    for (int i = 0; i < n; ++i) {
      ASSERT_TRUE(cluster
                      .Put("k" + std::to_string(i),
                           MakePatternBuffer(object, i), *g)
                      .ok());
    }
    cluster.RunFor(2 * sim::kMillisecond);
    uint64_t stored = 0;
    for (net::NodeId node = 0; node < 5; ++node) {
      stored += cluster.server(node).StoredBytes();
    }
    const double ratio =
        static_cast<double>(stored) / (static_cast<double>(object) * n);
    // Parity extents round up to whole rows, so allow ~25% slack.
    EXPECT_NEAR(ratio, factor, factor * 0.30) << desc.ToString();
  }
}

// ---------------------------------------------------------------------------
// Failures and recovery

TEST_F(RingKvsTest, CoordinatorFailureRecoversReplicatedData) {
  const uint32_t victim_shard = 1;  // node 1: coordinator, not the leader
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 10; ++i) {
    Key key = KeyInShard(victim_shard, 3, i);
    Buffer value = MakePatternBuffer(700 + i * 31, i);
    ASSERT_TRUE(cluster_->Put(key, value, rep3_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  // The spare (node 5) must now coordinate shard 1 and serve all keys,
  // recovering data from replicas on demand.
  for (const auto& [key, value] : data) {
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
  EXPECT_GT(cluster_->server(5).counters().blocks_recovered, 0u);
}

TEST_F(RingKvsTest, CoordinatorFailureRecoversErasureCodedData) {
  const uint32_t victim_shard = 2;
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 8; ++i) {
    Key key = KeyInShard(victim_shard, 3, 100 + i);
    Buffer value = MakePatternBuffer(900 + i * 57, 100 + i);
    ASSERT_TRUE(cluster_->Put(key, value, srs32_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  cluster_->KillNode(2, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  for (const auto& [key, value] : data) {
    auto got = cluster_->Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;  // decoded via parity, byte-exact
  }
}

// Parity accumulates deltas by XOR, so it is right only if its buffer starts
// at zero. Shard heaps and parity buffers recycle their memory within a
// thread (src/common/byte_extent.h): a second cluster built after a first one
// was destroyed runs on the first one's pages, and its degraded reads must
// still decode byte-exact.
TEST(RecycledMemoryTest, DegradedReadsDecodeOnAnEarlierClustersMemory) {
  RingOptions o;
  o.s = 3;
  o.d = 2;
  o.spares = 2;
  o.clients = 2;
  o.seed = 99;
  {
    RingCluster first(o);
    const MemgestId srs = *first.CreateMemgest(
        MemgestDescriptor::ErasureCoded(3, 2, "srs32"));
    for (int i = 0; i < 48; ++i) {
      ASSERT_TRUE(first
                      .Put("old-" + std::to_string(i),
                           MakePatternBuffer(700 + i * 31, 500 + i), srs)
                      .ok());
    }
  }
  RingCluster second(o);
  const MemgestId srs =
      *second.CreateMemgest(MemgestDescriptor::ErasureCoded(3, 2, "srs32"));
  const uint32_t victim_shard = 2;
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 12; ++i) {
    Key key = KeyInShard(i % 3 == 0 ? victim_shard : i % 3 - 1, 3, 300 + i);
    Buffer value = MakePatternBuffer(600 + i * 45, 900 + i);
    ASSERT_TRUE(second.Put(key, value, srs).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  second.KillNode(victim_shard, /*force_detect=*/true);
  second.RunFor(2 * sim::kMillisecond);
  for (const auto& [key, value] : data) {
    auto got = second.Get(key);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
}

TEST_F(RingKvsTest, UnreliableMemgestLosesDataOnFailure) {
  const uint32_t victim_shard = 1;
  const Key key = KeyInShard(victim_shard, 3, 500);
  ASSERT_TRUE(cluster_->Put(key, "ephemeral", rep1_).ok());
  // A reliably stored key on the same shard survives.
  const Key safe = KeyInShard(victim_shard, 3, 501);
  ASSERT_TRUE(cluster_->Put(safe, "durable", rep3_).ok());
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(2 * sim::kMillisecond);
  auto lost = cluster_->Get(key);
  EXPECT_FALSE(lost.ok());
  auto kept = cluster_->Get(safe);
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(ToString(*kept), "durable");
}

TEST_F(RingKvsTest, ParityNodeFailureRebuildsAndServes) {
  std::vector<std::pair<Key, Buffer>> data;
  for (int i = 0; i < 6; ++i) {
    Key key = "pf-" + std::to_string(i);
    Buffer value = MakePatternBuffer(1200 + i * 13, i);
    ASSERT_TRUE(cluster_->Put(key, value, srs32_).ok());
    data.emplace_back(std::move(key), std::move(value));
  }
  // Node 3 hosts parity 0 of srs32 (and srs21).
  cluster_->KillNode(3, /*force_detect=*/true);
  cluster_->RunFor(10 * sim::kMillisecond);  // promotion + parity rebuild
  // New puts to the EC memgest still commit (the promoted parity answers).
  ASSERT_TRUE(cluster_->Put("pf-new", MakePatternBuffer(800, 42), srs32_)
                  .ok());
  // Now kill a data node; decode must work off the REBUILT parity.
  const uint32_t victim_shard = 0;
  Key key0 = KeyInShard(victim_shard, 3, 900);
  Buffer value0 = MakePatternBuffer(2222, 900);
  ASSERT_TRUE(cluster_->Put(key0, value0, srs32_).ok());
  // Node 0 is also the membership leader: detection requires an election,
  // so give the cluster the full heartbeat/election window.
  cluster_->KillNode(0, /*force_detect=*/false);
  cluster_->RunFor(150 * sim::kMillisecond);
  auto got = cluster_->Get(key0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value0);
}

TEST_F(RingKvsTest, FailureDetectedByHeartbeatsWithoutForce) {
  const Key key = KeyInShard(1, 3, 777);
  ASSERT_TRUE(cluster_->Put(key, "hb-survives", rep3_).ok());
  cluster_->KillNode(1, /*force_detect=*/false);
  // Heartbeat timeout (35 ms) + recovery, then reads succeed again.
  cluster_->RunFor(80 * sim::kMillisecond);
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "hb-survives");
}

TEST_F(RingKvsTest, MetadataRecoveryLatencyIsMicroseconds) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(cluster_
                    ->Put(KeyInShard(1, 3, i), MakePatternBuffer(256, i),
                          rep3_)
                    .ok());
  }
  cluster_->KillNode(1, /*force_detect=*/true);
  cluster_->RunFor(5 * sim::kMillisecond);
  auto& spare = cluster_->server(5);
  EXPECT_TRUE(spare.serving());
  EXPECT_GT(spare.last_recovery_ns(), 0u);
  EXPECT_LT(spare.last_recovery_ns(), 2 * sim::kMillisecond);
}

TEST_F(RingKvsTest, MemgestDeleteRemovesKeys) {
  auto temp = cluster_->CreateMemgest(MemgestDescriptor::Replicated(2, "t"));
  ASSERT_TRUE(temp.ok());
  ASSERT_TRUE(cluster_->Put("t-key", "gone-soon", *temp).ok());
  ASSERT_TRUE(cluster_->DeleteMemgest(*temp).ok());
  cluster_->RunFor(1 * sim::kMillisecond);
  auto got = cluster_->Get("t-key");
  EXPECT_FALSE(got.ok());
  // Further puts to it fail.
  EXPECT_EQ(cluster_->Put("x", "y", *temp).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(RingKvsTest, SetDefaultMemgestRoutesPlainPuts) {
  ASSERT_TRUE(cluster_->SetDefaultMemgest(srs21_).ok());
  ASSERT_TRUE(cluster_->Put("plain", "to-default").ok());
  auto got = cluster_->Get("plain");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "to-default");
  // White-box: the entry landed in srs21's metadata on the coordinator.
  const uint32_t shard = KeyShard("plain", 3);
  auto& server = cluster_->server(shard);
  EXPECT_GT(server.counters().puts, 0u);
}

TEST_F(RingKvsTest, GetMemgestDescriptorRoundTrip) {
  auto desc = cluster_->GetMemgestDescriptor(srs32_);
  ASSERT_TRUE(desc.ok());
  EXPECT_EQ(desc->kind, SchemeKind::kErasureCoded);
  EXPECT_EQ(desc->k, 3u);
  EXPECT_EQ(desc->m, 2u);
  EXPECT_EQ(desc->name, "srs32");
  auto missing = cluster_->GetMemgestDescriptor(999);
  EXPECT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(RingKvsTest, FullSyncReplicationCommitsAndReads) {
  auto fs = cluster_->CreateMemgest(MemgestDescriptor::FullSyncReplicated(3));
  ASSERT_TRUE(fs.ok());
  const Buffer value = MakePatternBuffer(900, 4);
  ASSERT_TRUE(cluster_->Put("fsync", value, *fs).ok());
  auto got = cluster_->Get("fsync");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, value);
  // Full-sync puts are slower than quorum (wait for all replicas), faster
  // than erasure coding.
  auto& client = cluster_->client(0);
  client.ResetStats();
  ASSERT_TRUE(cluster_->Put("fsync2", value, *fs).ok());
  const double full_sync_lat = client.latencies().values().back();
  client.ResetStats();
  ASSERT_TRUE(cluster_->Put("q", value, rep3_).ok());
  const double quorum_lat = client.latencies().values().back();
  EXPECT_GE(full_sync_lat, quorum_lat);
}

TEST_F(RingKvsTest, DeterministicAcrossRuns) {
  auto run = [&](uint64_t seed) -> uint64_t {
    RingOptions o = DefaultOptions();
    o.seed = seed;
    RingCluster cluster(o);
    auto g = cluster.CreateMemgest(MemgestDescriptor::ErasureCoded(2, 1));
    for (int i = 0; i < 20; ++i) {
      EXPECT_TRUE(cluster
                      .Put("d" + std::to_string(i),
                           MakePatternBuffer(100 + i, i), *g)
                      .ok());
    }
    return cluster.simulator().now();
  };
  EXPECT_EQ(run(42), run(42));
}

// At-most-once under load: a late duplicate of a put must not re-execute no
// matter how many other mutations the coordinator completed in between.
// 8192 is the old server-wide dedup window; saturating it used to evict the
// put's claim, so the duplicate re-ran and rolled the key back.
TEST_F(RingKvsTest, LateDuplicatePutAfterDedupSaturationIsNotReExecuted) {
  const uint32_t shard = 0;
  const Key key = KeyInShard(shard, 3, 7);
  RingServer& coord = cluster_->server(shard);

  // The original put, delivered straight to the coordinator as request 1
  // of client 1 (a caller that never advances its floor).
  bool first_done = false;
  PutRequest req;
  req.key = key;
  req.value = std::make_shared<Buffer>(ToBuffer("first"));
  req.memgest = rep3_;
  req.client = cluster_->client(1).node();
  req.req_id = 1;
  req.reply = [&](Status s, Version) {
    EXPECT_TRUE(s.ok());
    first_done = true;
  };
  coord.HandlePut(req);
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return first_done; }));
  ASSERT_TRUE(cluster_->Put(key, "second", rep3_).ok());

  // Saturate: more completed mutations through the same coordinator than
  // the old window held, all from client 0.
  std::vector<Key> filler;
  for (int i = 0; i < 16; ++i) {
    filler.push_back(KeyInShard(shard, 3, 100 + i));
  }
  for (int i = 0; i < 8300; ++i) {
    ASSERT_TRUE(
        cluster_->Put(filler[i % filler.size()], "x", rep3_).ok());
  }

  const uint64_t puts_before = coord.counters().puts;
  coord.HandlePut(req);  // the late duplicate
  cluster_->RunFor(2 * sim::kMillisecond);
  EXPECT_EQ(coord.counters().puts, puts_before);
  EXPECT_EQ(coord.counters().resent_replies, 1u);
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "second");
}

// The floor a client request carries retires that client's completion
// records below it; a later duplicate of a retired request is stale and
// dropped without a reply or a re-execution.
TEST_F(RingKvsTest, DuplicateBelowTheClientFloorIsDropped) {
  const uint32_t shard = 1;
  const Key key = KeyInShard(shard, 3, 11);
  RingServer& coord = cluster_->server(shard);
  int replies = 0;
  auto put = [&](uint64_t req_id, uint64_t floor, const std::string& value) {
    PutRequest req;
    req.key = key;
    req.value = std::make_shared<Buffer>(ToBuffer(value));
    req.memgest = rep3_;
    req.client = cluster_->client(1).node();
    req.req_id = req_id;
    req.floor = floor;
    req.reply = [&](Status s, Version) {
      EXPECT_TRUE(s.ok());
      ++replies;
    };
    return req;
  };
  const PutRequest first = put(1, 1, "first");
  coord.HandlePut(first);
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return replies == 1; }));
  // Request 2 reports that everything below it completed.
  coord.HandlePut(put(2, 2, "second"));
  ASSERT_TRUE(cluster_->RunUntilDone([&] { return replies == 2; }));

  const uint64_t puts_before = coord.counters().puts;
  coord.HandlePut(first);  // a late wire copy of request 1
  cluster_->RunFor(2 * sim::kMillisecond);
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(coord.counters().puts, puts_before);
  EXPECT_EQ(coord.counters().stale_requests, 1u);
  EXPECT_EQ(coord.counters().resent_replies, 0u);
  auto got = cluster_->Get(key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ToString(*got), "second");
}

// A caller that never advances its floor is held to the per-client cap: the
// oldest record is evicted (counted), and its duplicates are then dropped
// rather than re-executed.
TEST_F(RingKvsTest, ClientThatNeverAdvancesItsFloorIsCapped) {
  const uint32_t shard = 2;
  RingServer& coord = cluster_->server(shard);
  std::vector<Key> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(KeyInShard(shard, 3, 200 + i));
  }
  int replies = 0;
  auto put = [&](uint64_t req_id) {
    PutRequest req;
    req.key = keys[req_id % keys.size()];
    req.value = std::make_shared<Buffer>(ToBuffer("v"));
    req.memgest = rep3_;
    req.client = cluster_->client(1).node();
    req.req_id = req_id;  // floor stays 0
    req.reply = [&](Status, Version) { ++replies; };
    return req;
  };
  constexpr int kOps = 8192 + 2;
  for (int i = 1; i <= kOps; ++i) {
    coord.HandlePut(put(static_cast<uint64_t>(i)));
    ASSERT_TRUE(cluster_->RunUntilDone([&] { return replies == i; }));
  }
  EXPECT_EQ(coord.counters().dedup_evictions, 2u);
  const uint64_t puts_before = coord.counters().puts;
  coord.HandlePut(put(1));     // evicted: dropped as stale
  coord.HandlePut(put(kOps));  // still recorded: its reply is resent
  cluster_->RunFor(2 * sim::kMillisecond);
  EXPECT_EQ(coord.counters().puts, puts_before);
  EXPECT_EQ(coord.counters().stale_requests, 1u);
  EXPECT_EQ(coord.counters().resent_replies, 1u);
}

}  // namespace
}  // namespace ring
