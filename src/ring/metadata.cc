#include "src/ring/metadata.h"

#include <algorithm>

namespace ring {

std::string MemgestDescriptor::ToString() const {
  if (kind == SchemeKind::kReplicated) {
    return "Rep(" + std::to_string(r) + ")";
  }
  return "SRS(" + std::to_string(k) + "," + std::to_string(m) + ")";
}

// ---------------------------------------------------------------------------
// EntrySlab

MetaEntry* EntrySlab::New(MetaEntry&& init) {
  MetaEntry* entry = nullptr;
  if (!free_.empty()) {
    entry = free_.back();
    free_.pop_back();
  } else {
    if (last_chunk_used_ == last_chunk_size_) {
      // Geometric chunks: small tables (snapshots, parity mirrors) stay
      // small, big ones amortize to one allocation per 4096 entries.
      last_chunk_size_ = std::clamp<size_t>(last_chunk_size_ * 2, 16, 4096);
      chunks_.push_back(std::make_unique<MetaEntry[]>(last_chunk_size_));
      last_chunk_used_ = 0;
    }
    entry = &chunks_.back()[last_chunk_used_++];
  }
  *entry = std::move(init);
  return entry;
}

void EntrySlab::Delete(MetaEntry* entry) {
  *entry = MetaEntry{};  // releases the waiters and resend bytes now
  free_.push_back(entry);
}

void EntrySlab::Clear() {
  chunks_.clear();
  free_.clear();
  last_chunk_size_ = 0;
  last_chunk_used_ = 0;
}

// ---------------------------------------------------------------------------
// MetadataTable

MetadataTable& MetadataTable::operator=(const MetadataTable& other) {
  if (this != &other) {
    Clear();
    CopyFrom(other);
  }
  return *this;
}

void MetadataTable::CopyFrom(const MetadataTable& other) {
  keys_ = other.keys_;
  keys_.ForEachMutable([this](const Key&, Versions& versions) {
    for (VersionRef& ref : versions) {
      ref.entry = slab_.New(MetaEntry(*ref.entry));
    }
  });
  entry_count_ = other.entry_count_;
}

MetaEntry* MetadataTable::Find(uint64_t hash, const Key& key,
                               Version version) {
  Versions* versions = keys_.Find(hash, key);
  if (versions == nullptr) {
    return nullptr;
  }
  for (const VersionRef& ref : *versions) {
    if (ref.version == version) {
      return ref.entry;
    }
  }
  return nullptr;
}

MetaEntry* MetadataTable::Highest(uint64_t hash, const Key& key) {
  Versions* versions = keys_.Find(hash, key);
  return versions == nullptr || versions->empty() ? nullptr
                                                  : versions->back().entry;
}

MetaEntry& MetadataTable::Insert(uint64_t hash, const Key& key,
                                 MetaEntry entry) {
  Versions& versions = keys_.FindOrInsert(hash, key);
  const Version version = entry.version;
  // New versions are almost always the highest: scan from the back.
  uint32_t pos = versions.size();
  while (pos > 0 && versions[pos - 1].version > version) {
    --pos;
  }
  if (pos > 0 && versions[pos - 1].version == version) {
    MetaEntry* existing = versions[pos - 1].entry;
    *existing = std::move(entry);
    return *existing;
  }
  MetaEntry* fresh = slab_.New(std::move(entry));
  versions.Insert(pos, VersionRef{version, fresh});
  ++entry_count_;
  return *fresh;
}

void MetadataTable::Erase(uint64_t hash, const Key& key, Version version) {
  Versions* versions = keys_.Find(hash, key);
  if (versions == nullptr) {
    return;
  }
  for (uint32_t i = 0; i < versions->size(); ++i) {
    if ((*versions)[i].version == version) {
      slab_.Delete((*versions)[i].entry);
      versions->Erase(i);
      --entry_count_;
      break;
    }
  }
  if (versions->empty()) {
    keys_.Erase(hash, key);
  }
}

std::vector<Version> MetadataTable::VersionsOf(const Key& key) const {
  std::vector<Version> out;
  if (const Versions* versions = keys_.Find(HashKey(key), key);
      versions != nullptr) {
    for (const VersionRef& ref : *versions) {
      out.push_back(ref.version);
    }
  }
  return out;
}

void MetadataTable::Clear() {
  keys_.Clear();
  slab_.Clear();
  entry_count_ = 0;
}

// ---------------------------------------------------------------------------
// VolatileIndex

std::optional<VolatileIndex::Ref> VolatileIndex::Highest(
    uint64_t hash, const Key& key) const {
  const RefList* refs = index_.Find(hash, key);
  if (refs == nullptr || refs->empty()) {
    return std::nullopt;
  }
  return refs->back();
}

void VolatileIndex::Add(uint64_t hash, const Key& key, Version version,
                        MemgestId memgest) {
  RefList& refs = index_.FindOrInsert(hash, key);
  uint32_t pos = refs.size();
  while (pos > 0 && refs[pos - 1].version > version) {
    --pos;
  }
  if (pos > 0 && refs[pos - 1].version == version) {
    refs[pos - 1].memgest = memgest;  // idempotent re-add (e.g. recovery)
    return;
  }
  refs.Insert(pos, Ref{version, memgest});
}

void VolatileIndex::Remove(uint64_t hash, const Key& key, Version version) {
  RefList* refs = index_.Find(hash, key);
  if (refs == nullptr) {
    return;
  }
  for (uint32_t i = 0; i < refs->size(); ++i) {
    if ((*refs)[i].version == version) {
      refs->Erase(i);
      break;
    }
  }
  if (refs->empty()) {
    index_.Erase(hash, key);
  }
}

VolatileIndex::RefList VolatileIndex::Refs(uint64_t hash,
                                           const Key& key) const {
  RefList out;
  if (const RefList* refs = index_.Find(hash, key); refs != nullptr) {
    for (uint32_t i = refs->size(); i > 0; --i) {
      out.Insert(out.size(), (*refs)[i - 1]);
    }
  }
  return out;
}

}  // namespace ring
