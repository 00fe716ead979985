#include "check.h"

#include <cstring>

namespace perfbench {

namespace {

constexpr uint64_t kMagic = 0x52494e4742454e43ULL;  // "RINGBENC"
constexpr size_t kHeaderBytes = kKeyBytes + 16;     // key, magic, seq

uint64_t FillWord(const std::string& key, uint64_t seq) {
  uint64_t k = 0;
  std::memcpy(&k, key.data(), key.size() < 8 ? key.size() : 8);
  uint64_t z = k ^ (seq * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void StampValue(const std::string& key, uint64_t seq, ring::Buffer* out) {
  out->resize(kValueBytes);
  uint8_t* p = out->data();
  std::memset(p, 0, kKeyBytes);
  std::memcpy(p, key.data(), key.size() < kKeyBytes ? key.size() : kKeyBytes);
  std::memcpy(p + kKeyBytes, &kMagic, 8);
  std::memcpy(p + kKeyBytes + 8, &seq, 8);
  const uint64_t w = FillWord(key, seq);
  for (size_t off = kHeaderBytes; off + 8 <= kValueBytes; off += 8) {
    std::memcpy(p + off, &w, 8);
  }
}

bool ParseValue(const ring::Buffer& value, std::string* key, uint64_t* seq) {
  if (value.size() != kValueBytes) {
    return false;
  }
  const uint8_t* p = value.data();
  uint64_t magic = 0;
  std::memcpy(&magic, p + kKeyBytes, 8);
  if (magic != kMagic) {
    return false;
  }
  key->assign(reinterpret_cast<const char*>(p), kKeyBytes);
  std::memcpy(seq, p + kKeyBytes + 8, 8);
  const uint64_t w = FillWord(*key, *seq);
  for (size_t off = kHeaderBytes; off + 8 <= kValueBytes; off += 8) {
    uint64_t got = 0;
    std::memcpy(&got, p + off, 8);
    if (got != w) {
      return false;
    }
  }
  return true;
}

ConsistencyChecker::ConsistencyChecker(uint64_t num_keys) : keys_(num_keys) {}

void ConsistencyChecker::NotePreloaded(uint64_t index) {
  keys_[index].preloaded = true;
}

uint64_t ConsistencyChecker::IssuePut(uint64_t index, uint64_t now) {
  KeyState& k = keys_[index];
  k.puts.push_back({now, kNever});
  return ++k.issued;
}

void ConsistencyChecker::AckPut(uint64_t index, uint64_t seq, uint64_t now) {
  KeyState& k = keys_[index];
  k.puts[seq - 1].acked = now;
  if (seq > k.acked) {
    k.acked = seq;
  }
}

void ConsistencyChecker::Violation(std::string message) {
  ++violations_;
  if (messages_.size() < 8) {
    messages_.push_back(std::move(message));
  }
}

bool ConsistencyChecker::Stale(const KeyState& k, uint64_t seq,
                               uint64_t floor) const {
  if (seq >= floor) {
    return false;
  }
  // The preload (sequence 0) finished before any put was issued.
  const uint64_t acked = seq == 0 ? 0 : k.puts[seq - 1].acked;
  return acked != kNever && acked < k.puts[floor - 1].issued;
}

void ConsistencyChecker::CheckValue(const char* what, uint64_t index,
                                    const std::string& key, uint64_t floor,
                                    const ring::Buffer* value) {
  const KeyState& k = keys_[index];
  std::string got_key;
  uint64_t seq = 0;
  const std::string op = std::string(what) + " " + key;
  if (value == nullptr || !ParseValue(*value, &got_key, &seq)) {
    Violation(op + ": corrupt value");
  } else if (got_key != key) {
    Violation(op + ": returned the value of key " + got_key);
  } else if (seq > k.issued) {
    Violation(op + ": seq " + std::to_string(seq) +
              " was never issued (highest " + std::to_string(k.issued) + ")");
  } else if (Stale(k, seq, floor)) {
    Violation(op + ": stale, seq " + std::to_string(seq) +
              " was acknowledged before seq " + std::to_string(floor) +
              " (acknowledged) was issued");
  }
}

void ConsistencyChecker::CheckGet(uint64_t index, const std::string& key,
                                  uint64_t floor, bool found,
                                  const ring::Buffer* value) {
  if (!found) {
    if (keys_[index].preloaded || floor > 0) {
      Violation("get " + key + ": not found after an acknowledged write");
    }
    return;
  }
  CheckValue("get", index, key, floor, value);
}

void ConsistencyChecker::CheckFinal(uint64_t index, const std::string& key,
                                    bool found, const ring::Buffer* value) {
  if (!found) {
    if (MustExist(index)) {
      Violation("read-back " + key + ": lost (acknowledged seq " +
                std::to_string(keys_[index].acked) + ")");
    }
    return;
  }
  CheckValue("read-back", index, key, keys_[index].acked, value);
}

}  // namespace perfbench
