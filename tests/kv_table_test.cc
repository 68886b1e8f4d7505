// Unit tests for the RDMA-visible hash table and value heap.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "kv/table.h"
#include "testbed.h"

namespace redn::test {
namespace {

using kv::RdmaHashTable;
using kv::ValueHeap;

class TableTest : public ::testing::Test {
 protected:
  TestBed bed;
};

TEST_F(TableTest, InsertLookupRoundTrip) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  EXPECT_TRUE(t.Insert(42, 0x1000, 64));
  auto e = t.Lookup(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->ptr, 0x1000u);
  EXPECT_EQ(e->len, 64u);
}

TEST_F(TableTest, LookupMissesAbsentKey) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  t.Insert(42, 0x1000, 64);
  EXPECT_FALSE(t.Lookup(43).has_value());
}

TEST_F(TableTest, ZeroKeyRejected) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  EXPECT_FALSE(t.Insert(0, 0x1000, 64));
}

TEST_F(TableTest, KeysMaskedTo48Bits) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  const std::uint64_t wide = 0xffff000000000042ULL;
  EXPECT_TRUE(t.Insert(wide, 0x2000, 8));
  auto e = t.Lookup(0x42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->ptr, 0x2000u);
}

TEST_F(TableTest, UpdateOverwritesExisting) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  t.Insert(7, 0x1000, 16);
  t.Insert(7, 0x2000, 32);
  auto e = t.Lookup(7);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->ptr, 0x2000u);
  EXPECT_EQ(e->len, 32u);
  EXPECT_EQ(t.size(), 1u);
}

TEST_F(TableTest, EraseRemovesKey) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  t.Insert(7, 0x1000, 16);
  EXPECT_TRUE(t.Erase(7));
  EXPECT_FALSE(t.Lookup(7).has_value());
  EXPECT_FALSE(t.Erase(7));
  EXPECT_EQ(t.size(), 0u);
}

TEST_F(TableTest, ForceSecondPlantsInH2Bucket) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  EXPECT_TRUE(t.Insert(99, 0x3000, 8, /*force_second=*/true));
  const std::uint64_t b2 = t.BucketAddr2(99);
  EXPECT_EQ(rnic::dma::ReadU64(b2), 99u);
  ASSERT_TRUE(t.Lookup(99).has_value());
}

TEST_F(TableTest, BucketLayoutMatchesOffloadAbi) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  t.Insert(55, 0xabcd, 128);
  // Find the bucket that holds it and check field offsets.
  const std::uint64_t addr = t.BucketAddr1(55);
  if (rnic::dma::ReadU64(addr + kv::kBucketKeyOff) == 55u) {
    EXPECT_EQ(rnic::dma::ReadU64(addr + kv::kBucketPtrOff), 0xabcdu);
    EXPECT_EQ(rnic::dma::ReadU32(addr + kv::kBucketLenOff), 128u);
  } else {
    const std::uint64_t a2 = t.BucketAddr2(55);
    EXPECT_EQ(rnic::dma::ReadU64(a2 + kv::kBucketKeyOff), 55u);
  }
}

TEST_F(TableTest, ManyKeysAllRetrievable) {
  RdmaHashTable t(bed.server, {.buckets = 1 << 14});
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    ASSERT_TRUE(t.Insert(k, k * 16, static_cast<std::uint32_t>(k & 0xfff)));
  }
  for (std::uint64_t k = 1; k <= 4000; ++k) {
    auto e = t.Lookup(k);
    ASSERT_TRUE(e.has_value()) << k;
    EXPECT_EQ(e->ptr, k * 16);
  }
  EXPECT_EQ(t.size(), 4000u);
}

TEST_F(TableTest, ClearEmptiesTable) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  for (std::uint64_t k = 1; k <= 100; ++k) t.Insert(k, k, 8);
  t.Clear();
  EXPECT_EQ(t.size(), 0u);
  for (std::uint64_t k = 1; k <= 100; ++k) EXPECT_FALSE(t.Lookup(k));
}

TEST_F(TableTest, HashesDifferAcrossFunctions) {
  int same = 0;
  for (std::uint64_t k = 1; k < 1000; ++k) {
    if ((kv::Hash1(k) & 1023) == (kv::Hash2(k) & 1023)) ++same;
  }
  EXPECT_LT(same, 20);  // ~1/1024 expected collisions between H1 and H2
}

TEST_F(TableTest, ValueHeapStoresAndAligns) {
  ValueHeap heap(bed.server, 1 << 20);
  const char data[5] = "abcd";
  const std::uint64_t a = heap.Store(data, 5);
  const std::uint64_t b = heap.Store(data, 5);
  EXPECT_EQ(a % 8, 0u);
  EXPECT_EQ(b % 8, 0u);
  EXPECT_NE(a, b);
  EXPECT_EQ(std::memcmp(reinterpret_cast<void*>(a), "abcd", 5), 0);
}

TEST_F(TableTest, ValueHeapThrowsWhenFull) {
  ValueHeap heap(bed.server, 64);
  heap.Reserve(32);
  heap.Reserve(32);
  EXPECT_THROW(heap.Reserve(8), std::bad_alloc);
}

// A length near 4 GiB must not wrap to a tiny aligned size when rounded up
// to 8 bytes: that would pass the capacity check and let Store copy gigabytes
// past the slot.
TEST_F(TableTest, ValueHeapReserveRejectsLengthThatWouldWrap) {
  ValueHeap heap(bed.server, 64);
  EXPECT_THROW(heap.Reserve(0xFFFFFFFFu), std::bad_alloc);
  EXPECT_THROW(heap.Reserve(0xFFFFFFF9u), std::bad_alloc);
  EXPECT_EQ(heap.used(), 0u);
  EXPECT_NO_THROW(heap.Reserve(64));
}

TEST_F(TableTest, NeighborhoodCoversConfiguredBuckets) {
  RdmaHashTable t(bed.server, {.buckets = 1024, .neighborhood = 6});
  EXPECT_EQ(t.NeighborhoodBytes(), 6 * kv::kBucketSize);
  // Neighborhood address is within table bounds even for edge hashes.
  for (std::uint64_t k = 1; k < 500; ++k) {
    const std::uint64_t addr = t.NeighborhoodAddr(k);
    EXPECT_GE(addr, t.BucketAddr1(1) - 1024 * kv::kBucketSize);
  }
}

// The versioned layout is a pure function of (key, version): every payload
// byte must equal VersionedPatternByte, the check must accept exactly that
// and reject any single changed payload byte or a changed version tag.
// Lengths straddle the 256-byte lap of the pattern from both sides.
TEST_F(TableTest, VersionedValueRoundTripsAndCatchesEveryByteFlip) {
  constexpr std::uint64_t kKey = 3;
  std::uint64_t wraps_at_once = 0;  // first payload byte is 0xff
  while (kv::VersionedPatternByte(kKey, wraps_at_once,
                                  kv::kValueVersionBytes) != 0xff) {
    ++wraps_at_once;
  }
  ASSERT_LT(wraps_at_once, 256u);
  const std::uint64_t versions[] = {0, 1, (1ULL << 32) + 7, wraps_at_once};
  const std::uint32_t lens[] = {8,   9,   16,  263,  264,
                                265, 519, 520, 4104, 65536};
  std::vector<std::uint64_t> buf(65536 / 8 + 1);
  const auto addr = reinterpret_cast<std::uint64_t>(buf.data());
  auto* bytes = reinterpret_cast<std::uint8_t*>(buf.data());
  for (const std::uint64_t version : versions) {
    for (const std::uint32_t len : lens) {
      SCOPED_TRACE(testing::Message() << "version " << version << " len "
                                      << len);
      std::memset(bytes, 0xa5, buf.size() * 8);
      kv::WriteVersionedValue(addr, len, kKey, version);
      ASSERT_EQ(kv::ValueVersion(addr), version);
      for (std::uint32_t i = kv::kValueVersionBytes; i < len; ++i) {
        ASSERT_EQ(bytes[i], kv::VersionedPatternByte(kKey, version, i))
            << "byte " << i;
      }
      EXPECT_EQ(bytes[len], 0xa5) << "wrote past the value";
      ASSERT_TRUE(kv::VersionedValueIntact(addr, len, kKey));
      for (std::uint32_t i = kv::kValueVersionBytes; i < len; ++i) {
        bytes[i] ^= 0x01;
        ASSERT_FALSE(kv::VersionedValueIntact(addr, len, kKey))
            << "flip at byte " << i << " not caught";
        bytes[i] ^= 0x01;
      }
      if (len > kv::kValueVersionBytes) {
        kv::SetValueVersion(addr, version + 1);
        EXPECT_FALSE(kv::VersionedValueIntact(addr, len, kKey));
        kv::SetValueVersion(addr, version);
      }
      EXPECT_TRUE(kv::VersionedValueIntact(addr, len, kKey));
    }
  }
}

// Place reports a candidate bucket exactly when the key is NicVisible, also
// once the table has crowded keys into H1 neighbourhoods.
TEST_F(TableTest, PlaceReportsNicVisibility) {
  RdmaHashTable t(bed.server, {.buckets = 64, .neighborhood = 6});
  std::vector<std::pair<std::uint64_t, RdmaHashTable::Placed>> placed;
  int neighborhood = 0;
  for (std::uint64_t k = 1; k <= 60; ++k) {
    placed.emplace_back(k, t.Place(k, k * 8, 8));
    if (placed.back().second == RdmaHashTable::Placed::kNeighborhood) {
      ++neighborhood;
    }
  }
  EXPECT_GT(neighborhood, 0);
  for (const auto& [k, where] : placed) {
    EXPECT_EQ(t.NicVisible(k), where == RdmaHashTable::Placed::kCandidate)
        << "key " << k;
    EXPECT_EQ(t.Lookup(k).has_value(),
              where != RdmaHashTable::Placed::kNowhere)
        << "key " << k;
  }
}

// PutPattern's bytes are PatternByte(key, i), across the 256-byte lap.
TEST_F(TableTest, PutPatternWritesPatternBytes) {
  RdmaHashTable t(bed.server, {.buckets = 1024});
  ValueHeap heap(bed.server, 1 << 16);
  for (const std::uint64_t key : {1ULL, 200ULL, 255ULL, 256ULL + 7}) {
    for (const std::uint32_t len : {1u, 255u, 256u, 257u, 700u}) {
      const std::uint64_t ptr = kv::PutPattern(t, heap, key, len);
      const auto* p = reinterpret_cast<const std::uint8_t*>(ptr);
      for (std::uint32_t i = 0; i < len; ++i) {
        ASSERT_EQ(p[i], kv::PatternByte(key, i))
            << "key " << key << " len " << len << " byte " << i;
      }
    }
  }
}

}  // namespace
}  // namespace redn::test
