// Metadata structures (paper §5.1-5.2).
//
// Each memgest has a *metadata hashtable* per shard: (key, version) ->
// location + commit state. It is write-ahead (entries exist before commit)
// and replicated to the memgest's redundancy nodes. The *volatile hashtable*
// maps key -> list of (version, memgest) pairs across all memgests of a
// coordinator; it is not replicated and is rebuilt from the metadata
// hashtables after failures.
//
// Both are built on one container, FlatKeyTable: an open-addressed,
// linear-probing table with one record per key. Each slot caches the key's
// 64-bit HashKey, so a probe compares hashes first and key bytes only on a
// hash match, and each record holds the key's versions inline in ascending
// order. Callers compute HashKey once per operation and pass it in.
#ifndef RING_SRC_RING_METADATA_H_
#define RING_SRC_RING_METADATA_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/bytes.h"
#include "src/common/hash.h"
#include "src/ring/types.h"

namespace ring {

// Approximate serialized size of one metadata entry (key hash, version,
// address, length, flags). Used for recovery-traffic modeling (Fig. 12).
inline constexpr uint64_t kMetaEntryWireBytes = 96;

struct MetaEntry {
  Version version = 0;
  uint64_t addr = 0;
  uint32_t len = 0;         // object bytes
  uint32_t region_len = 0;  // allocated region (>= len when a slot is reused)
  // Group size s of the geometry this entry was written under (§13). Always
  // the cluster's current s on a never-resized cluster; entries written
  // before an elastic resize keep their old shape until migrated, so shard
  // ids, replica/parity placement and stripe maps must be interpreted at
  // this s. 0 only on wire defaults, never on a stored entry.
  uint32_t geom_s = 0;
  // Slot that supplied this entry during a merged recovery metadata fetch
  // (-1 otherwise). Quorum-committed writes may live on only a subset of the
  // replicas, so block recovery must copy bytes from a slot known to hold
  // the entry — not from an arbitrary survivor.
  int32_t recovery_src = -1;
  bool committed = false;
  bool tombstone = false;
  // False on a recovered node until the object bytes are copied/decoded.
  bool data_present = true;
  // Durable moved-marker (§13): this version records that the key's contents
  // were handed to its new-shape owner. Moved entries are never served and
  // never trigger GC of the versions below them (the payload must survive
  // until the install is acknowledged).
  bool moved = false;
  // Volatile: the new owner acknowledged the install, so the rebalance scan
  // stops reporting the key. Lost on crash; the driver's verify pass simply
  // re-migrates (idempotent).
  bool moved_done = false;
  // Volatile: this entry owns a VolatileIndex reference on this node (it was
  // coordinator-written or indexed by a rebuild). Replica/parity mirrors of
  // other coordinators' writes never set it — the geometry purge must not
  // mistake a mirror for the entry an index ref belongs to.
  bool indexed = false;
  // Coordinator-only transient state ---------------------------------------
  // Redundancy targets still owed an ack: bitmask over replica ordinals or
  // parity indices.
  uint32_t acks_pending = 0;
  // Remaining ack count before the entry commits (quorum for replication,
  // all m parities for erasure coding).
  uint32_t acks_needed = 0;
  // Trace context of the write that created the entry: the originating
  // operation and when the coordinator started waiting for acknowledgments.
  // Plain stores, kept up to date even with tracing off (two words per
  // entry); read only at commit time.
  uint64_t trace_op = 0;
  uint64_t trace_quorum_start = 0;
  // Store write sequence number the write's backup messages carried; a
  // retransmission rebuilds each message from this entry and re-sends it
  // under the same sequence so the receivers' replay fences dedup it.
  uint64_t write_seq = 0;
  // The bytes the backup messages carried (the value for replicas, the
  // parity delta for erasure coding). Held only while retransmission is
  // enabled and acks are owed; dropped at commit.
  std::shared_ptr<Buffer> resend_bytes;
  // Deferred readers/movers released at commit time (Fig. 5's client D).
  std::vector<std::function<void()>> waiters;
};

// Inline-first list of small trivially copyable items. The first N live in
// the owning record; a longer list moves to one heap array.
template <typename T, uint32_t N>
class SmallList {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_default_constructible_v<T>,
                "SmallList stores plain items");

 public:
  SmallList() = default;
  SmallList(const SmallList& other) { CopyFrom(other); }
  SmallList& operator=(const SmallList& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }
  SmallList(SmallList&& other) noexcept { Steal(other); }
  SmallList& operator=(SmallList&& other) noexcept {
    if (this != &other) {
      Release();
      Steal(other);
    }
    return *this;
  }
  ~SmallList() { Release(); }

  uint32_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return cap_ > N ? heap_ : inline_; }
  const T* data() const { return cap_ > N ? heap_ : inline_; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& operator[](uint32_t i) { return data()[i]; }
  const T& operator[](uint32_t i) const { return data()[i]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void Insert(uint32_t pos, const T& item) {
    if (size_ == cap_) {
      Grow();
    }
    T* d = data();
    std::memmove(d + pos + 1, d + pos, (size_ - pos) * sizeof(T));
    d[pos] = item;
    ++size_;
  }
  void Erase(uint32_t pos) {
    T* d = data();
    std::memmove(d + pos, d + pos + 1, (size_ - pos - 1) * sizeof(T));
    --size_;
  }
  void Clear() {
    Release();
    size_ = 0;
  }

 private:
  void Grow() {
    const uint32_t cap = cap_ * 2;
    T* heap = static_cast<T*>(std::malloc(cap * sizeof(T)));
    if (heap == nullptr) {
      std::abort();
    }
    std::memcpy(heap, data(), size_ * sizeof(T));
    Release();
    heap_ = heap;
    cap_ = cap;
  }
  void Release() {
    if (cap_ > N) {
      std::free(heap_);
      cap_ = N;
    }
  }
  void CopyFrom(const SmallList& other) {
    size_ = 0;
    while (cap_ < other.size_) {
      Grow();
    }
    std::memcpy(data(), other.data(), other.size_ * sizeof(T));
    size_ = other.size_;
  }
  void Steal(SmallList& other) {
    size_ = other.size_;
    cap_ = other.cap_;
    if (other.cap_ > N) {
      heap_ = other.heap_;
    } else {
      std::memcpy(inline_, other.inline_, other.size_ * sizeof(T));
    }
    other.size_ = 0;
    other.cap_ = N;
  }

  union {
    T inline_[N];
    T* heap_;
  };
  uint32_t size_ = 0;
  uint32_t cap_ = N;
};

// Open-addressed key table: one record per key, linear probing over a
// power-of-two slot array, backward-shift deletion (no tombstones). Slots
// cache the key's HashKey; a hash of 0 is stored as 1 so 0 can mark an
// empty slot (the key bytes still decide equality). Records move when the
// table grows or a deletion shifts a probe chain, so a List* stays valid
// only until the next insert or erase.
template <typename Item, uint32_t N>
class FlatKeyTable {
 public:
  using List = SmallList<Item, N>;

  FlatKeyTable() = default;
  FlatKeyTable(const FlatKeyTable&) = default;
  FlatKeyTable& operator=(const FlatKeyTable&) = default;
  // Moves leave the source an empty, usable table.
  FlatKeyTable(FlatKeyTable&& other) noexcept { *this = std::move(other); }
  FlatKeyTable& operator=(FlatKeyTable&& other) noexcept {
    tags_ = std::exchange(other.tags_, {});
    recs_ = std::exchange(other.recs_, {});
    size_ = std::exchange(other.size_, 0);
    mask_ = std::exchange(other.mask_, 0);
    shift_ = std::exchange(other.shift_, 64);
    return *this;
  }

  List* Find(uint64_t hash, std::string_view key) {
    const int64_t slot = Lookup(Tag(hash), key);
    return slot < 0 ? nullptr : &recs_[slot].items;
  }
  const List* Find(uint64_t hash, std::string_view key) const {
    return const_cast<FlatKeyTable*>(this)->Find(hash, key);
  }

  // The key's list, inserting an empty record when absent.
  List& FindOrInsert(uint64_t hash, std::string_view key) {
    const uint64_t tag = Tag(hash);
    if (const int64_t slot = Lookup(tag, key); slot >= 0) {
      return recs_[slot].items;
    }
    if ((size_ + 1) * 4 > tags_.size() * 3) {
      Rehash(tags_.empty() ? 16 : tags_.size() * 2);
    }
    size_t i = Home(tag);
    while (tags_[i] != 0) {
      i = (i + 1) & mask_;
    }
    tags_[i] = tag;
    recs_[i].key.assign(key);
    ++size_;
    return recs_[i].items;
  }

  void Erase(uint64_t hash, std::string_view key) {
    const int64_t slot = Lookup(Tag(hash), key);
    if (slot >= 0) {
      EraseSlot(static_cast<size_t>(slot));
    }
  }

  size_t size() const { return size_; }
  void Clear() {
    tags_.clear();
    recs_.clear();
    size_ = 0;
    mask_ = 0;
    shift_ = 64;
  }

  // Visits every record in slot order: a pure function of the insert/erase
  // sequence (HashKey is seed-free), so identical runs visit identically.
  // The callback must not insert or erase keys.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != 0) {
        fn(std::as_const(recs_[i].key), std::as_const(recs_[i].items));
      }
    }
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    for (size_t i = 0; i < tags_.size(); ++i) {
      if (tags_[i] != 0) {
        fn(std::as_const(recs_[i].key), recs_[i].items);
      }
    }
  }

 private:
  struct Record {
    Key key;
    List items;
  };

  static uint64_t Tag(uint64_t hash) { return hash == 0 ? 1 : hash; }
  // Fibonacci hashing onto the top bits: keys of one shard share
  // HashKey % s, so the slot must not come from the low bits alone.
  size_t Home(uint64_t tag) const {
    return static_cast<size_t>((tag * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  int64_t Lookup(uint64_t tag, std::string_view key) const {
    if (size_ == 0) {
      return -1;
    }
    for (size_t i = Home(tag);; i = (i + 1) & mask_) {
      if (tags_[i] == 0) {
        return -1;
      }
      if (tags_[i] == tag && recs_[i].key == key) {
        return static_cast<int64_t>(i);
      }
    }
  }

  void EraseSlot(size_t hole) {
    // Backward shift: pull each later member of the probe chain into the
    // hole unless its home lies cyclically in (hole, j].
    for (size_t j = (hole + 1) & mask_; tags_[j] != 0; j = (j + 1) & mask_) {
      const size_t home = Home(tags_[j]);
      const bool stays = hole <= j ? (hole < home && home <= j)
                                   : (hole < home || home <= j);
      if (stays) {
        continue;
      }
      tags_[hole] = tags_[j];
      recs_[hole] = std::move(recs_[j]);
      hole = j;
    }
    tags_[hole] = 0;
    recs_[hole].key.clear();
    recs_[hole].items.Clear();
    --size_;
  }

  void Rehash(size_t capacity) {
    std::vector<uint64_t> old_tags =
        std::exchange(tags_, std::vector<uint64_t>(capacity, 0));
    std::vector<Record> old_recs =
        std::exchange(recs_, std::vector<Record>(capacity));
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) {
      --shift_;
    }
    for (size_t i = 0; i < old_tags.size(); ++i) {
      if (old_tags[i] == 0) {
        continue;
      }
      size_t j = Home(old_tags[i]);
      while (tags_[j] != 0) {
        j = (j + 1) & mask_;
      }
      tags_[j] = old_tags[i];
      recs_[j] = std::move(old_recs[i]);
    }
  }

  std::vector<uint64_t> tags_;  // 0 = empty slot
  std::vector<Record> recs_;
  size_t size_ = 0;
  size_t mask_ = 0;
  uint32_t shift_ = 64;
};

// Pointer-stable MetaEntry storage: entries live in chunks that never move,
// and freed entries are recycled through a free list.
class EntrySlab {
 public:
  EntrySlab() = default;
  EntrySlab(const EntrySlab&) = delete;
  EntrySlab& operator=(const EntrySlab&) = delete;
  // Moves keep every entry's address and leave the source empty.
  EntrySlab(EntrySlab&& other) noexcept { *this = std::move(other); }
  EntrySlab& operator=(EntrySlab&& other) noexcept {
    chunks_ = std::exchange(other.chunks_, {});
    free_ = std::exchange(other.free_, {});
    last_chunk_size_ = std::exchange(other.last_chunk_size_, 0);
    last_chunk_used_ = std::exchange(other.last_chunk_used_, 0);
    return *this;
  }

  MetaEntry* New(MetaEntry&& init);
  void Delete(MetaEntry* entry);
  void Clear();

 private:
  std::vector<std::unique_ptr<MetaEntry[]>> chunks_;
  size_t last_chunk_size_ = 0;
  size_t last_chunk_used_ = 0;
  std::vector<MetaEntry*> free_;
};

// Per-(memgest, shard) metadata hashtable.
//
// Pointer stability: a MetaEntry* from Find/Highest/Insert stays valid until
// that (key, version) is erased or the table is cleared, however many other
// keys are inserted or erased meanwhile. Write, commit, GC and read paths
// hold entry pointers across such changes.
class MetadataTable {
 public:
  MetadataTable() = default;
  // Deep copy (a recovery metadata snapshot): fresh entries in a new slab.
  MetadataTable(const MetadataTable& other) { CopyFrom(other); }
  MetadataTable& operator=(const MetadataTable& other);
  // Moves keep every entry's address and leave the source empty.
  MetadataTable(MetadataTable&& other) noexcept { *this = std::move(other); }
  MetadataTable& operator=(MetadataTable&& other) noexcept {
    keys_ = std::move(other.keys_);
    slab_ = std::move(other.slab_);
    entry_count_ = std::exchange(other.entry_count_, 0);
    return *this;
  }

  // `hash` is HashKey(key); the key-only overloads compute it.
  MetaEntry* Find(uint64_t hash, const Key& key, Version version);
  const MetaEntry* Find(uint64_t hash, const Key& key, Version version) const {
    return const_cast<MetadataTable*>(this)->Find(hash, key, version);
  }
  MetaEntry* Find(const Key& key, Version version) {
    return Find(HashKey(key), key, version);
  }
  const MetaEntry* Find(const Key& key, Version version) const {
    return Find(HashKey(key), key, version);
  }
  // Highest version for the key (committed or not), nullptr if absent.
  MetaEntry* Highest(uint64_t hash, const Key& key);
  MetaEntry* Highest(const Key& key) { return Highest(HashKey(key), key); }
  // Inserts, or overwrites in place an existing (key, version).
  MetaEntry& Insert(uint64_t hash, const Key& key, MetaEntry entry);
  MetaEntry& Insert(const Key& key, MetaEntry entry) {
    return Insert(HashKey(key), key, std::move(entry));
  }
  void Erase(uint64_t hash, const Key& key, Version version);
  void Erase(const Key& key, Version version) {
    Erase(HashKey(key), key, version);
  }

  size_t entry_count() const { return entry_count_; }
  uint64_t ApproxBytes() const { return entry_count_ * kMetaEntryWireBytes; }

  // Iterates over every (key, entry), a key's versions ascending; used by
  // recovery transfers. The callback must not insert or erase entries.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    keys_.ForEach([&fn](const Key& key, const Versions& versions) {
      for (const VersionRef& ref : versions) {
        fn(key, std::as_const(*ref.entry));
      }
    });
  }
  template <typename Fn>
  void ForEachMutable(Fn&& fn) {
    keys_.ForEachMutable([&fn](const Key& key, Versions& versions) {
      for (const VersionRef& ref : versions) {
        fn(key, *ref.entry);
      }
    });
  }

  // All versions of a key, ascending. Empty when absent.
  std::vector<Version> VersionsOf(const Key& key) const;

  void Clear();

 private:
  struct VersionRef {
    Version version;
    MetaEntry* entry;
  };
  // Two inline versions: the newest committed one plus one in flight (the
  // ν = 0 bound); deeper multiversion histories spill to the heap.
  using Versions = SmallList<VersionRef, 2>;

  void CopyFrom(const MetadataTable& other);

  FlatKeyTable<VersionRef, 2> keys_;
  EntrySlab slab_;
  size_t entry_count_ = 0;
};

// Coordinator-side index over all memgests (paper Fig. 4).
class VolatileIndex {
 public:
  struct Ref {
    Version version;
    MemgestId memgest;
  };
  using RefList = SmallList<Ref, 2>;

  // `hash` is HashKey(key); the key-only overloads compute it.
  // Highest-version reference for the key, nullopt when absent.
  std::optional<Ref> Highest(uint64_t hash, const Key& key) const;
  std::optional<Ref> Highest(const Key& key) const {
    return Highest(HashKey(key), key);
  }
  // Version to assign to the next write of `key` (highest + 1, counting
  // uncommitted versions — paper §5.2).
  Version NextVersion(uint64_t hash, const Key& key) const {
    const auto ref = Highest(hash, key);
    return ref ? ref->version + 1 : 1;
  }
  Version NextVersion(const Key& key) const {
    return NextVersion(HashKey(key), key);
  }

  void Add(uint64_t hash, const Key& key, Version version, MemgestId memgest);
  void Add(const Key& key, Version version, MemgestId memgest) {
    Add(HashKey(key), key, version, memgest);
  }
  void Remove(uint64_t hash, const Key& key, Version version);
  void Remove(const Key& key, Version version) {
    Remove(HashKey(key), key, version);
  }

  // All references for a key, descending by version. A copy, so callers
  // may add and remove references while walking it.
  RefList Refs(uint64_t hash, const Key& key) const;
  RefList Refs(const Key& key) const { return Refs(HashKey(key), key); }

  size_t key_count() const { return index_.size(); }
  void Clear() { index_.Clear(); }

 private:
  // Ascending by version; lists stay short (GC removes old versions).
  FlatKeyTable<Ref, 2> index_;
};

}  // namespace ring

#endif  // RING_SRC_RING_METADATA_H_
