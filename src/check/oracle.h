// The consistency oracle shared by the chaos fuzz, the consistency fuzz and
// ring-mc's trace runner (DESIGN §11.3). It keeps per-key truth taken from
// completion callbacks only, never issues an operation and never reads the
// clock, so it cannot perturb a schedule. Harness-specific checks stay in
// the harness.
#ifndef RING_SRC_CHECK_ORACLE_H_
#define RING_SRC_CHECK_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/bytes.h"
#include "src/ring/server.h"
#include "src/ring/types.h"

namespace ring::check {

// Deterministic put payload: a pattern keyed by (key, nonce) that starts
// with a "key#nonce;" tag, so a corrupt read shows whose bytes leaked in.
Buffer EncodeValue(const Key& key, uint64_t nonce, size_t size);

enum class Kind : uint8_t {
  kVersionReuse,  // one version acknowledged with two different payloads
  kCorruptRead,   // an acknowledged version read back with other bytes
  kTimeTravel,    // a read below the floor its get was issued under
  kDurability,    // a sweep read misses, or is below the highest ack
  kUnanswered,    // a sweep read got kUnavailable / kTimeout
};
// Stable lowercase names; ring-mc reports these as its violation names.
const char* KindName(Kind kind);

struct Violation {
  Kind kind;
  Key key;
  std::string detail;
  std::string ToString() const;  // "<kind> <key>: <detail>"
};

class Oracle {
 public:
  void PutAcked(const Key& key, Version version, const Buffer& value);
  // From now on the key may legally be missing.
  void DeleteAcked(const Key& key);

  // The highest version read or acknowledged so far: sample it when a get
  // is issued and pass it to Read when the get completes. Gets whose
  // lifetimes overlap may complete in either order (a delayed reply carries
  // the version current when it was served), so a get is held only to what
  // was known at its issue.
  Version Floor(const Key& key) const;
  Version HighestRead(const Key& key) const;

  // A completed get; a non-ok read is not checked.
  void Read(const Key& key, Version floor, const GetResult& r);
  // A read of the healed, drained cluster. A version below the highest
  // acknowledged one is durability (not also time travel); otherwise it is
  // checked like Read under Floor(key).
  void Sweep(const Key& key, const GetResult& r);
  // Keys with an acknowledged put and no acknowledged delete, in key order.
  std::vector<Key> SweepKeys() const;

  // In detection order.
  const std::vector<Violation>& violations() const { return violations_; }

 private:
  struct KeyTruth {
    std::map<Version, Buffer> acked;  // version -> acknowledged bytes
    Version highest_read = 0;
    bool deleted = false;
  };
  void Flag(Kind kind, const Key& key, const std::string& detail) {
    violations_.push_back({kind, key, detail});
  }

  std::map<Key, KeyTruth> truth_;
  std::vector<Violation> violations_;
};

}  // namespace ring::check

#endif  // RING_SRC_CHECK_ORACLE_H_
