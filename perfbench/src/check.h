// Output checks: stamped values, the per-key consistency checker and the
// digest of modeled outputs.
//
// Every put writes a value stamped with its key and a per-key sequence
// number (1, 2, ... in issue order; the preload writes sequence 0). The rest
// of the 1 KiB value is a fill derived from (key, sequence), so a corrupt
// byte anywhere is caught. The checker keeps, per key, every put's issue and
// acknowledgement time (simulated) and enforces:
//   - a get returns a well-formed value of its own key;
//   - no stale read: let F be the highest-sequence put acknowledged before
//     the get was issued. The get may return F, a later put, or an earlier
//     put that was still unacknowledged when F was issued (two overlapping
//     puts from different clients may take effect in either order); an
//     earlier put acknowledged before F was issued is stale;
//   - no value from the future: the sequence is <= the highest issued
//     before the get completed;
//   - the final read-back of every key returns a value that is not stale
//     against the last acknowledged put (no lost acknowledged write).
#ifndef PERFBENCH_SRC_CHECK_H_
#define PERFBENCH_SRC_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/bytes.h"

namespace perfbench {

inline constexpr size_t kValueBytes = 1024;
inline constexpr uint32_t kKeyBytes = 8;

// Writes the stamped value of (key, seq) into `out` (resized to
// kValueBytes).
void StampValue(const std::string& key, uint64_t seq, ring::Buffer* out);

// Parses a stamped value. Returns false when the value is malformed: wrong
// size, or a fill byte that does not match (key, seq).
bool ParseValue(const ring::Buffer& value, std::string* key, uint64_t* seq);

class ConsistencyChecker {
 public:
  explicit ConsistencyChecker(uint64_t num_keys);

  // A key index is the rank the workload generator assigned to the key.
  void NotePreloaded(uint64_t index);
  // Returns the sequence number the new put of `index`, issued at simulated
  // time `now`, stamps.
  uint64_t IssuePut(uint64_t index, uint64_t now);
  void AckPut(uint64_t index, uint64_t seq, uint64_t now);
  // Floor a get issued now must meet.
  uint64_t GetFloor(uint64_t index) const { return keys_[index].acked; }
  // Checks a completed get. `found` is false for a NotFound reply, which is
  // legal only when nothing was ever acknowledged for the key.
  void CheckGet(uint64_t index, const std::string& key, uint64_t floor,
                bool found, const ring::Buffer* value);
  // Checks the final read-back of `index`.
  void CheckFinal(uint64_t index, const std::string& key, bool found,
                  const ring::Buffer* value);

  // True when the key has ever been written (preload or acknowledged put),
  // i.e. a read-back must find it.
  bool MustExist(uint64_t index) const {
    return keys_[index].preloaded || keys_[index].acked > 0;
  }
  uint64_t violations() const { return violations_; }
  // The first few violations, for the report.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  struct PutTimes {
    uint64_t issued;
    uint64_t acked;  // kNever until acknowledged
  };
  static constexpr uint64_t kNever = ~uint64_t{0};
  struct KeyState {
    uint64_t issued = 0;  // highest sequence issued
    uint64_t acked = 0;   // highest sequence acknowledged
    bool preloaded = false;
    std::vector<PutTimes> puts;  // puts[seq - 1]
  };
  void Violation(std::string message);
  // True when put `seq` was acknowledged before put `floor` was issued.
  bool Stale(const KeyState& k, uint64_t seq, uint64_t floor) const;
  // Shared by CheckGet and CheckFinal.
  void CheckValue(const char* what, uint64_t index, const std::string& key,
                  uint64_t floor, const ring::Buffer* value);

  std::vector<KeyState> keys_;
  uint64_t violations_ = 0;
  std::vector<std::string> messages_;
};

// Order-sensitive 64-bit digest (FNV-1a over 64-bit words) of the modeled
// outputs: latency samples in completion order, op counts, fabric bytes.
// Two runs of one seed must produce the same digest.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CHECK_H_
