// Self-tests of the benchmark's own checks (--selftest). Each check is fed
// the fault it exists to catch and must flag it; run.py runs these before
// every measurement.
#include <cmath>
#include <cstdio>
#include <vector>

#include "check.h"
#include "stats.h"

namespace perfbench {

namespace {

int g_failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("  %-62s %s\n", what, cond ? "ok" : "FAILED");
  if (!cond) {
    ++g_failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * std::fabs(b); }

void CheckerTests() {
  const std::string key = "00000007";
  ring::Buffer v0, v1, v2;
  StampValue(key, 0, &v0);
  StampValue(key, 1, &v1);
  StampValue(key, 2, &v2);
  {
    // put 1 [10, 20], then put 2 [30, 40]: strictly ordered.
    ConsistencyChecker c(16);
    c.NotePreloaded(7);
    c.AckPut(7, c.IssuePut(7, 10), 20);
    c.AckPut(7, c.IssuePut(7, 30), 40);
    c.CheckGet(7, key, c.GetFloor(7), true, &v2);
    Expect(c.violations() == 0, "fresh read of the latest acknowledged write");
    c.CheckGet(7, key, c.GetFloor(7), true, &v1);
    Expect(c.violations() == 1, "stale read (seq 1 after seq 2 acked) flagged");
    c.CheckGet(7, key, c.GetFloor(7), true, &v0);
    Expect(c.violations() == 2, "stale read of the preloaded value flagged");
  }
  {
    // put 1 [10, 25] and put 2 [12, 20] overlap: either order is legal.
    ConsistencyChecker c(16);
    c.NotePreloaded(7);
    const uint64_t s1 = c.IssuePut(7, 10);
    const uint64_t s2 = c.IssuePut(7, 12);
    c.AckPut(7, s2, 20);
    c.AckPut(7, s1, 25);
    c.CheckGet(7, key, c.GetFloor(7), true, &v1);
    c.CheckGet(7, key, c.GetFloor(7), true, &v2);
    Expect(c.violations() == 0, "overlapping puts may take effect in any order");
  }
  {
    ConsistencyChecker c(16);
    c.NotePreloaded(7);
    c.IssuePut(7, 10);
    // Put 1 in flight: both the old and the new value are legal.
    c.CheckGet(7, key, c.GetFloor(7), true, &v0);
    c.CheckGet(7, key, c.GetFloor(7), true, &v1);
    Expect(c.violations() == 0, "read concurrent with an unacked put passes");
    c.CheckGet(7, key, c.GetFloor(7), true, &v2);
    Expect(c.violations() == 1, "value from a never-issued put flagged");
  }
  {
    ConsistencyChecker c(16);
    ring::Buffer corrupt = v1;
    corrupt[600] ^= 0x40;
    c.IssuePut(7, 10);
    c.CheckGet(7, key, 0, true, &corrupt);
    Expect(c.violations() == 1, "corrupt value (one flipped bit) flagged");
    ring::Buffer other;
    StampValue("00000008", 1, &other);
    c.CheckGet(7, key, 0, true, &other);
    Expect(c.violations() == 2, "value of another key flagged");
  }
  {
    ConsistencyChecker c(16);
    c.AckPut(7, c.IssuePut(7, 10), 20);
    c.AckPut(7, c.IssuePut(7, 30), 40);
    c.CheckFinal(7, key, true, &v1);
    Expect(c.violations() == 1, "lost acknowledged write at read-back flagged");
    c.CheckFinal(7, key, false, nullptr);
    Expect(c.violations() == 2, "acknowledged key missing at read-back flagged");
    c.CheckFinal(7, key, true, &v2);
    Expect(c.violations() == 2, "read-back of the last acknowledged write ok");
    c.CheckFinal(3, "00000003", false, nullptr);
    Expect(c.violations() == 2, "never-written key may be absent");
  }
}

void ScalingTests() {
  // A 10 ms loop measured while the kernel ran at half the nominal speed
  // (pass took 2x nominal) is 5 ms at reference speed.
  Expect(Near(ScaleToReference(10e6, 5e6, 2.5e6), 5e6),
         "ScaleToReference halves time on a 2x-slow machine");
  Expect(Near(ScaleToReference(10e6, 2.5e6, 2.5e6), 10e6),
         "ScaleToReference is the identity at nominal speed");
  // A single kernel outlier is absorbed by the local median.
  const std::vector<double> kern = {2.5e6, 2.5e6, 50e6, 2.5e6, 2.5e6};
  Expect(Near(LocalKernelNs(kern, 2, 2), 2.5e6),
         "LocalKernelNs ignores one kernel-pass outlier");
  const std::vector<double> loop = {1e6, 1e6, 1e6, 1e6, 1e6};
  Expect(Near(ScaledTotalNs(loop, kern, 2, 2.5e6), 5e6),
         "ScaledTotalNs sums slices at the local speed");
  // Drift: machine 2x slower in the second half; scaled slices stay equal.
  const std::vector<double> k2 = {2e6, 2e6, 2e6, 4e6, 4e6, 4e6};
  const std::vector<double> l2 = {1e6, 1e6, 1e6, 2e6, 2e6, 2e6};
  Expect(Near(ScaledTotalNs(l2, k2, 0, 2e6), 6e6),
         "ScaledTotalNs cancels a 2x speed drift");
  std::vector<uint64_t> p = {5, 1, 4, 2, 3};
  Expect(Percentile(&p, 50) == 3 && Percentile(&p, 100) == 5 &&
             Percentile(&p, 1) == 1,
         "nearest-rank percentiles");
  Expect(Median({4, 1, 3, 2}) == 2.5, "median of an even count");
}

void DigestTests() {
  const std::vector<uint64_t> samples = {15700, 15900, 22400, 16100};
  Digest a, b, c;
  for (uint64_t s : samples) {
    a.Add(s);
    b.Add(s);
  }
  std::vector<uint64_t> changed = samples;
  changed[2] += 1;
  for (uint64_t s : changed) {
    c.Add(s);
  }
  Expect(a.value() == b.value(), "digest repeats for identical samples");
  Expect(a.value() != c.value(), "digest changes when one sample changes");
}

}  // namespace

int RunSelfTests() {
  std::printf("perfbench self-tests:\n");
  CheckerTests();
  ScalingTests();
  DigestTests();
  std::printf("%s (%d failed)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace perfbench
