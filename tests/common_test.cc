#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/common/byte_extent.h"
#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/common/result.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"

namespace ring {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = NotFoundError("key missing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "not_found: key missing");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(InvalidArgumentError("").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(AlreadyExistsError("").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(FailedPreconditionError("").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(OutOfRangeError("").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(UnavailableError("").code(), StatusCode::kUnavailable);
  EXPECT_EQ(TimeoutError("").code(), StatusCode::kTimeout);
  EXPECT_EQ(DataLossError("").code(), StatusCode::kDataLoss);
  EXPECT_EQ(InternalError("").code(), StatusCode::kInternal);
  EXPECT_EQ(UnimplementedError("").code(), StatusCode::kUnimplemented);
}

Status FailsWhenNegative(int x) {
  if (x < 0) {
    return InvalidArgumentError("negative");
  }
  return OkStatus();
}

Status Propagates(int x) {
  RING_RETURN_IF_ERROR(FailsWhenNegative(x));
  return OkStatus();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Propagates(1).ok());
  EXPECT_EQ(Propagates(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) {
    return OutOfRangeError("not positive");
  }
  return x;
}

Result<int> DoubledPositive(int x) {
  RING_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndError) {
  Result<int> good = ParsePositive(21);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 21);
  Result<int> bad = ParsePositive(0);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(DoubledPositive(4).ok());
  EXPECT_EQ(*DoubledPositive(4), 8);
  EXPECT_EQ(DoubledPositive(-4).status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.NextBelow(5));
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyInverseRate) {
  Rng rng(13);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.02);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBernoulli(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
}

TEST(StatsTest, PercentilesOfKnownSequence) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 100.0);
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
  EXPECT_NEAR(s.Mean(), 50.5, 1e-9);
}

TEST(StatsTest, PercentileCacheInvalidatedByAddAndClear) {
  // Percentile() caches its sorted copy; adding samples (or clearing) must
  // invalidate it, and Add must not disturb insertion order in values().
  Samples s;
  s.Add(3.0);
  s.Add(1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 3.0);
  s.Add(0.5);  // below the cached minimum
  s.Add(9.0);  // above the cached maximum
  EXPECT_DOUBLE_EQ(s.Percentile(0), 0.5);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 9.0);
  const std::vector<double> want = {3.0, 1.0, 0.5, 9.0};
  EXPECT_EQ(s.values(), want);
  s.Clear();
  EXPECT_TRUE(s.empty());
  s.Add(7.0);
  EXPECT_DOUBLE_EQ(s.Median(), 7.0);
}

TEST(StatsTest, SingleSample) {
  Samples s;
  s.Add(42.0);
  EXPECT_DOUBLE_EQ(s.Median(), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(s.Stddev(), 0.0);
}

TEST(HashTest, DeterministicAndSpread) {
  EXPECT_EQ(HashKey("abc"), HashKey("abc"));
  EXPECT_NE(HashKey("abc"), HashKey("abd"));
  // Shard balance: 3 shards over 30k sequential keys should be near-uniform.
  const uint32_t s = 3;
  std::vector<int> counts(s, 0);
  for (int i = 0; i < 30000; ++i) {
    counts[KeyShard("key-" + std::to_string(i), s)]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c, 10000, 500);
  }
}

bool AllZero(const ByteExtent& e, uint64_t from = 0) {
  return std::all_of(e.data() + from, e.data() + e.size(),
                     [](uint8_t b) { return b == 0; });
}

TEST(ByteExtentTest, NeverWrittenBytesReadZero) {
  ByteExtent e;
  EXPECT_EQ(e.size(), 0u);
  EXPECT_EQ(e.data(), nullptr);
  e.Grow(100);
  EXPECT_EQ(e.size(), 100u);
  EXPECT_TRUE(AllZero(e));
  e.Grow(50);  // never shrinks
  EXPECT_EQ(e.size(), 100u);
}

TEST(ByteExtentTest, GrowthPreservesWrittenBytes) {
  ByteExtent e;
  const Buffer pattern = MakePatternBuffer(5000, 3);
  e.Grow(pattern.size());
  std::copy(pattern.begin(), pattern.end(), e.data());
  // Past several remaps: the first granule, then doublings.
  for (const uint64_t size : {70'000ull, 300'000ull, 5'000'000ull}) {
    e.Grow(size);
    ASSERT_EQ(e.size(), size);
    EXPECT_TRUE(std::equal(pattern.begin(), pattern.end(), e.data()));
    EXPECT_TRUE(AllZero(e, pattern.size()));
  }
  e.Zero();
  EXPECT_EQ(e.size(), 5'000'000u);
  EXPECT_TRUE(AllZero(e));
}

TEST(ByteExtentTest, RecycledMemoryReadsZero) {
  const uint8_t* dirty_bytes = nullptr;
  {
    ByteExtent dirty;
    dirty.Grow(200'000);
    std::fill(dirty.data(), dirty.data() + dirty.size(), 0xAB);
    dirty_bytes = dirty.data();
  }
  const size_t pooled = ByteExtent::PooledCount();
  ASSERT_GE(pooled, 1u);
  ByteExtent fresh;
  fresh.Grow(200'000);
  EXPECT_EQ(fresh.data(), dirty_bytes);  // the pool is last in, first out
  EXPECT_EQ(ByteExtent::PooledCount(), pooled - 1);
  EXPECT_TRUE(AllZero(fresh));
  fresh.Grow(600'000);  // remapped past the dirty owner's high-water mark
  EXPECT_TRUE(AllZero(fresh));
}

TEST(ByteExtentTest, PoolNeverExceedsItsBound) {
  {
    std::vector<ByteExtent> many(ByteExtent::kPoolBound + 8);
    for (ByteExtent& e : many) {
      e.Grow(64);
      e.data()[0] = 1;
    }
  }
  EXPECT_EQ(ByteExtent::PooledCount(), ByteExtent::kPoolBound);
  ByteExtent taken;
  taken.Grow(1);
  EXPECT_EQ(ByteExtent::PooledCount(), ByteExtent::kPoolBound - 1);
  EXPECT_TRUE(AllZero(taken));
}

TEST(ByteExtentTest, MovedFromExtentIsEmpty) {
  ByteExtent a;
  a.Grow(10);
  a.data()[3] = 7;
  const uint8_t* bytes = a.data();
  ByteExtent b(std::move(a));
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), bytes);
  EXPECT_EQ(b.data()[3], 7);
  ByteExtent c;
  c.Grow(5);
  c = std::move(b);
  EXPECT_EQ(b.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(b.data(), nullptr);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c.data()[3], 7);
  // A moved-from extent is usable again and starts from zero.
  b.Grow(4);
  EXPECT_TRUE(AllZero(b));
}

TEST(BytesTest, PatternBufferDeterministic) {
  Buffer a = MakePatternBuffer(128, 5);
  Buffer b = MakePatternBuffer(128, 5);
  Buffer c = MakePatternBuffer(128, 6);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a.size(), 128u);
}

TEST(BytesTest, StringRoundTrip) {
  const std::string s = "hello ring";
  EXPECT_EQ(ToString(ToBuffer(s)), s);
}

}  // namespace
}  // namespace ring
