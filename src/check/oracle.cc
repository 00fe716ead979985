#include "src/check/oracle.h"

#include <algorithm>

#include "src/common/hash.h"

namespace ring::check {
namespace {

// "v<version>", built by appending (GCC 12 misreports "v" + std::string
// under -Wrestrict).
std::string V(Version version) {
  std::string out = "v";
  out += std::to_string(version);
  return out;
}

}  // namespace

Buffer EncodeValue(const Key& key, uint64_t nonce, size_t size) {
  Buffer out = MakePatternBuffer(size, HashKey(key) ^ nonce);
  const std::string tag = key + "#" + std::to_string(nonce) + ";";
  for (size_t i = 0; i < tag.size() && i < out.size(); ++i) {
    out[i] = static_cast<uint8_t>(tag[i]);
  }
  return out;
}

const char* KindName(Kind kind) {
  static constexpr const char* kNames[] = {
      "version-reuse", "corrupt-read", "time-travel", "durability",
      "unanswered"};
  return kNames[static_cast<int>(kind)];
}

std::string Violation::ToString() const {
  return std::string(KindName(kind)) + " " + key + ": " + detail;
}

void Oracle::PutAcked(const Key& key, Version version, const Buffer& value) {
  auto [it, fresh] = truth_[key].acked.emplace(version, value);
  if (!fresh && it->second != value) {
    Flag(Kind::kVersionReuse, key, V(version) + " acked with two payloads");
  }
}

void Oracle::DeleteAcked(const Key& key) { truth_[key].deleted = true; }

Version Oracle::Floor(const Key& key) const {
  const auto it = truth_.find(key);
  if (it == truth_.end() || it->second.acked.empty()) {
    return HighestRead(key);
  }
  return std::max(it->second.highest_read, it->second.acked.rbegin()->first);
}

Version Oracle::HighestRead(const Key& key) const {
  const auto it = truth_.find(key);
  return it == truth_.end() ? 0 : it->second.highest_read;
}

void Oracle::Read(const Key& key, Version floor, const GetResult& r) {
  if (!r.status.ok()) {
    return;  // a clean failure is legal under faults and moves
  }
  KeyTruth& t = truth_[key];
  const auto it = t.acked.find(r.version);
  if (it != t.acked.end() && *r.data != it->second) {
    Flag(Kind::kCorruptRead, key, V(r.version) + " bytes mismatch");
  }
  if (r.version < floor) {
    Flag(Kind::kTimeTravel, key, V(r.version) + " after " + V(floor));
  }
  t.highest_read = std::max(t.highest_read, r.version);
}

void Oracle::Sweep(const Key& key, const GetResult& r) {
  const KeyTruth& t = truth_[key];
  const Version top = t.acked.empty() ? 0 : t.acked.rbegin()->first;
  const StatusCode code = r.status.code();
  if (code == StatusCode::kUnavailable || code == StatusCode::kTimeout) {
    Flag(Kind::kUnanswered, key, "sweep got " + r.status.ToString());
  } else if (!r.status.ok()) {
    if (top != 0 && !(t.deleted && code == StatusCode::kNotFound)) {
      Flag(Kind::kDurability, key,
           "acked " + V(top) + " unreadable: " + r.status.ToString());
    }
  } else if (r.version < top) {
    Flag(Kind::kDurability, key,
         "regressed to " + V(r.version) + " (acked " + V(top) + ")");
    Read(key, 0, r);  // bytes only
  } else {
    Read(key, Floor(key), r);
  }
}

std::vector<Key> Oracle::SweepKeys() const {
  std::vector<Key> keys;
  for (const auto& [key, t] : truth_) {
    if (!t.acked.empty() && !t.deleted) {
      keys.push_back(key);
    }
  }
  return keys;
}

}  // namespace ring::check
