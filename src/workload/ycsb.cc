#include "src/workload/ycsb.h"

#include <algorithm>
#include <cstring>

namespace ring::workload {

YcsbWorkload::YcsbWorkload(YcsbSpec spec, uint64_t seed)
    : spec_(spec),
      rng_(seed),
      zipf_(spec.num_keys, spec.zipf_theta),
      uniform_(spec.num_keys) {}

std::string YcsbWorkload::KeyOf(uint64_t rank) const {
  // Fixed-width decimal key, `key_len` bytes (paper: 8-byte keys): the rank
  // modulo 10^8, zero-padded on the left. A width below the digit count
  // keeps the leading digits (the `%0*llu` format, cut to `key_len`).
  char digits[8];
  size_t n = 0;
  for (uint64_t v = rank % 100000000ULL; n == 0 || v != 0; v /= 10) {
    digits[sizeof(digits) - ++n] = static_cast<char>('0' + v % 10);
  }
  const size_t width = spec_.key_len;
  const size_t kept = std::min<size_t>(width, n);
  std::string key(width, '0');
  std::memcpy(key.data() + (width - kept), digits + sizeof(digits) - n, kept);
  return key;
}

Op YcsbWorkload::Next(uint64_t rank_offset) {
  const uint64_t rank =
      spec_.zipfian ? zipf_.Next(rng_) : uniform_.Next(rng_);
  const OpKind kind =
      rng_.NextDouble() < spec_.get_fraction ? OpKind::kGet : OpKind::kPut;
  return Op{kind, KeyOf((rank + rank_offset) % spec_.num_keys)};
}

}  // namespace ring::workload
