// Differential tests for the flat key table behind MetadataTable and
// VolatileIndex: randomized operation sequences against std::map reference
// models, including keys forced into one probe chain that wraps around the
// end of the slot array, plus the slab's pointer-stability guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/ring/metadata.h"

namespace ring {
namespace {

constexpr uint64_t kFib = 0x9E3779B97F4A7C15ull;

// A hash whose home slot is the last one at every table capacity up to
// 2^16: the top bits of hash * kFib are all ones, so probe chains starting
// there wrap around to slot 0.
uint64_t WrapHash() {
  uint64_t inv = kFib;  // Newton iteration for kFib^-1 mod 2^64
  for (int i = 0; i < 6; ++i) {
    inv *= 2 - kFib * inv;
  }
  return 0xFFFF800000000000ull * inv;
}

// Key universe: `n` keys; every third key is forced onto WrapHash() (one
// shared probe chain), the rest use their real HashKey.
struct Keys {
  explicit Keys(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      names.push_back("k" + std::to_string(i));
      hashes.push_back(i % 3 == 0 ? WrapHash() : HashKey(names.back()));
    }
  }
  std::vector<Key> names;
  std::vector<uint64_t> hashes;
};

// (key, version, addr) for every entry, sorted: the reference view.
using Flat = std::vector<std::tuple<Key, Version, uint64_t>>;

Flat Snapshot(const MetadataTable& table) {
  Flat out;
  table.ForEach([&](const Key& key, const MetaEntry& e) {
    out.emplace_back(key, e.version, e.addr);
  });
  std::sort(out.begin(), out.end());
  return out;
}

Flat Snapshot(const std::map<Key, std::map<Version, uint64_t>>& model) {
  Flat out;
  for (const auto& [key, versions] : model) {
    for (const auto& [version, addr] : versions) {
      out.emplace_back(key, version, addr);
    }
  }
  return out;
}

TEST(MetadataTableTest, WrapHashHomesOnTheLastSlot) {
  const uint64_t top = WrapHash() * kFib;
  EXPECT_EQ(top >> 48, 0xFFFFu);
}

TEST(MetadataTableTest, MatchesReferenceModelUnderRandomChurn) {
  for (const size_t universe : {8u, 96u, 3000u}) {
    Keys keys(universe);
    MetadataTable table;
    std::map<Key, std::map<Version, uint64_t>> model;
    size_t model_entries = 0;
    Rng rng(universe);
    for (int step = 0; step < 60000; ++step) {
      const size_t k = rng.NextBelow(universe);
      const Key& key = keys.names[k];
      const uint64_t hash = keys.hashes[k];
      const Version version = 1 + rng.NextBelow(6);
      const uint64_t op = rng.NextBelow(10);
      if (op < 5) {
        MetaEntry e;
        e.version = version;
        e.addr = rng.NextU64();
        const bool fresh = model[key].count(version) == 0;
        model[key][version] = e.addr;
        model_entries += fresh ? 1 : 0;
        EXPECT_EQ(table.Insert(hash, key, e).addr, e.addr);
      } else if (op < 9) {
        auto it = model.find(key);
        if (it != model.end() && it->second.erase(version) > 0) {
          --model_entries;
          if (it->second.empty()) {
            model.erase(it);
          }
        }
        table.Erase(hash, key, version);
      }
      // Point queries after every step.
      auto it = model.find(key);
      const MetaEntry* found = table.Find(hash, key, version);
      const bool present = it != model.end() && it->second.count(version);
      ASSERT_EQ(found != nullptr, present) << key << " v" << version;
      if (present) {
        EXPECT_EQ(found->addr, it->second.at(version));
      }
      const MetaEntry* high = table.Highest(hash, key);
      if (it == model.end()) {
        EXPECT_EQ(high, nullptr);
      } else {
        ASSERT_NE(high, nullptr);
        EXPECT_EQ(high->version, it->second.rbegin()->first);
      }
      ASSERT_EQ(table.entry_count(), model_entries);
      if (step % 5000 == 0) {
        ASSERT_EQ(Snapshot(table), Snapshot(model)) << "step " << step;
      }
    }
    ASSERT_EQ(Snapshot(table), Snapshot(model));
    // VersionsOf goes through HashKey; check it on real-hash keys only.
    for (size_t k = 1; k < universe; k += 3) {
      std::vector<Version> expect;
      if (auto it = model.find(keys.names[k]); it != model.end()) {
        for (const auto& [version, addr] : it->second) {
          expect.push_back(version);
        }
      }
      EXPECT_EQ(table.VersionsOf(keys.names[k]), expect);
    }
  }
}

TEST(MetadataTableTest, OneProbeChainAcrossTheWrapAround) {
  // Every key shares WrapHash(): a single chain that starts at the last slot
  // and wraps. Erasing from its middle must backward-shift the tail without
  // losing any member, at every table size the growth passes through.
  const uint64_t hash = WrapHash();
  MetadataTable table;
  std::vector<Key> keys;
  for (int i = 0; i < 40; ++i) {
    keys.push_back("chain-" + std::to_string(i));
    MetaEntry e;
    e.version = 1;
    e.addr = static_cast<uint64_t>(i);
    table.Insert(hash, keys.back(), e);
  }
  std::vector<bool> live(keys.size(), true);
  for (size_t victim : {0u, 7u, 20u, 39u, 1u, 21u}) {
    table.Erase(hash, keys[victim], 1);
    live[victim] = false;
    for (size_t i = 0; i < keys.size(); ++i) {
      const MetaEntry* e = table.Find(hash, keys[i], 1);
      ASSERT_EQ(e != nullptr, live[i]) << "key " << i << " after " << victim;
      if (e != nullptr) {
        EXPECT_EQ(e->addr, i);
      }
    }
  }
  EXPECT_EQ(table.entry_count(), keys.size() - 6);
}

TEST(MetadataTableTest, EntryPointersSurviveOtherInsertsAndErases) {
  MetadataTable table;
  MetaEntry seed;
  seed.version = 3;
  seed.addr = 12345;
  MetaEntry* held = &table.Insert("held", seed);
  held->waiters.push_back([] {});
  for (int round = 0; round < 4; ++round) {
    // Thousands of other keys force several table growths, then most of
    // them go away again (their slab slots are recycled).
    for (int i = 0; i < 5000; ++i) {
      MetaEntry e;
      e.version = 1 + static_cast<Version>(i % 4);
      e.addr = static_cast<uint64_t>(i);
      table.Insert("other-" + std::to_string(i), e);
    }
    for (int i = 0; i < 5000; i += (round % 2) + 1) {
      table.Erase("other-" + std::to_string(i),
                  1 + static_cast<Version>(i % 4));
    }
    ASSERT_EQ(table.Find("held", 3), held);
    EXPECT_EQ(held->addr, 12345u);
    EXPECT_EQ(held->waiters.size(), 1u);
  }
  // A second version of the same key does not move the first either.
  MetaEntry newer;
  newer.version = 4;
  table.Insert("held", newer);
  EXPECT_EQ(table.Find("held", 3), held);
  EXPECT_EQ(table.Highest("held")->version, 4u);
}

TEST(MetadataTableTest, CopyIsDeepAndMoveKeepsEntries) {
  MetadataTable table;
  for (int i = 0; i < 50; ++i) {
    MetaEntry e;
    e.version = 1 + static_cast<Version>(i % 5);
    e.addr = static_cast<uint64_t>(i);
    table.Insert("c" + std::to_string(i % 17), e);
  }
  MetadataTable copy = table;
  EXPECT_EQ(Snapshot(copy), Snapshot(table));
  EXPECT_EQ(copy.entry_count(), table.entry_count());
  MetaEntry* original = table.Find("c3", 4);
  ASSERT_NE(original, nullptr);
  MetaEntry* copied = copy.Find("c3", 4);
  ASSERT_NE(copied, nullptr);
  EXPECT_NE(original, copied);
  original->addr = 999;
  table.Erase("c4", 5);
  EXPECT_NE(copied->addr, 999u);
  EXPECT_NE(copy.Find("c4", 5), nullptr);
  table.Clear();
  EXPECT_EQ(table.entry_count(), 0u);
  EXPECT_EQ(table.Find("c3", 4), nullptr);
  EXPECT_NE(copy.Find("c3", 4), nullptr);

  // A move keeps entry addresses and leaves the source empty but usable.
  const size_t count = copy.entry_count();
  MetadataTable moved = std::move(copy);
  EXPECT_EQ(moved.Find("c3", 4), copied);
  EXPECT_EQ(moved.entry_count(), count);
  EXPECT_EQ(copy.entry_count(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.Find("c3", 4), nullptr);
  MetaEntry fresh;
  fresh.version = 1;
  copy.Insert("again", fresh);
  EXPECT_NE(copy.Find("again", 1), nullptr);
}

TEST(VolatileIndexTest, MatchesReferenceModelUnderRandomChurn) {
  Keys keys(200);
  VolatileIndex index;
  std::map<Key, std::map<Version, MemgestId>> model;
  Rng rng(7);
  for (int step = 0; step < 40000; ++step) {
    const size_t k = rng.NextBelow(keys.names.size());
    const Key& key = keys.names[k];
    const uint64_t hash = keys.hashes[k];
    const Version version = 1 + rng.NextBelow(5);
    if (rng.NextBelow(2) == 0) {
      const auto memgest = static_cast<MemgestId>(rng.NextBelow(4));
      index.Add(hash, key, version, memgest);
      model[key][version] = memgest;
    } else {
      index.Remove(hash, key, version);
      if (auto it = model.find(key); it != model.end()) {
        it->second.erase(version);
        if (it->second.empty()) {
          model.erase(it);
        }
      }
    }
    const auto it = model.find(key);
    const auto high = index.Highest(hash, key);
    ASSERT_EQ(high.has_value(), it != model.end());
    if (high.has_value()) {
      EXPECT_EQ(high->version, it->second.rbegin()->first);
      EXPECT_EQ(high->memgest, it->second.rbegin()->second);
      EXPECT_EQ(index.NextVersion(hash, key), high->version + 1);
    } else {
      EXPECT_EQ(index.NextVersion(hash, key), 1u);
    }
    // Refs: descending, exactly the model's versions.
    std::vector<std::pair<Version, MemgestId>> got;
    for (const auto& ref : index.Refs(hash, key)) {
      got.emplace_back(ref.version, ref.memgest);
    }
    std::vector<std::pair<Version, MemgestId>> expect;
    if (it != model.end()) {
      expect.assign(it->second.rbegin(), it->second.rend());
    }
    ASSERT_EQ(got, expect);
  }
  EXPECT_EQ(index.key_count(), model.size());
}

}  // namespace
}  // namespace ring
