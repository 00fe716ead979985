// Key hashing for the key-to-node mapping `i = h(key) mod s` (paper §5.1).
#ifndef RING_SRC_COMMON_HASH_H_
#define RING_SRC_COMMON_HASH_H_

#include <cstdint>
#include <string_view>

namespace ring {

// 64-bit FNV-1a over the key bytes followed by a splitmix64 finalizer. The
// finalizer matters: `mod s` for small s exposes the weak low bits of plain
// FNV-1a, and shard balance (paper §5.1, §5.4) depends on a well-mixed hash.
uint64_t HashKey(std::string_view key);

// Shard for a key with HashKey `hash` in a group with `s` coordinator
// shards. Hot paths carry the hash and use this instead of KeyShard.
inline uint32_t ShardOfHash(uint64_t hash, uint32_t s) {
  return static_cast<uint32_t>(hash % s);
}

// Shard for a key in a group with `s` coordinator shards.
inline uint32_t KeyShard(std::string_view key, uint32_t s) {
  return ShardOfHash(HashKey(key), s);
}

}  // namespace ring

#endif  // RING_SRC_COMMON_HASH_H_
