// Unit tests for protection domains, memory regions, key checks, and the
// zeroed simulated-memory allocations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>

#include "kv/table.h"
#include "rnic/device.h"
#include "rnic/memory.h"
#include "sim/simulator.h"

namespace redn::rnic {
namespace {

class MemoryTest : public ::testing::Test {
 protected:
  ProtectionDomain pd;
  std::unique_ptr<std::byte[]> buf = std::make_unique<std::byte[]>(4096);
  std::uint64_t base() const { return dma::AddrOf(buf.get()); }
};

TEST_F(MemoryTest, RegisterAssignsDistinctKeys) {
  const auto& a = pd.Register(buf.get(), 1024, kAccessAll);
  const auto& b = pd.Register(buf.get() + 1024, 1024, kAccessAll);
  EXPECT_NE(a.lkey, b.lkey);
  EXPECT_NE(a.rkey, b.rkey);
  EXPECT_NE(a.lkey, a.rkey);
  EXPECT_EQ(pd.region_count(), 2u);
}

TEST_F(MemoryTest, LocalCheckHappyPath) {
  const auto& mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base(), 1024, mr.lkey, kLocalRead), MemCheck::kOk);
  EXPECT_EQ(pd.CheckLocal(base() + 512, 512, mr.lkey, kLocalWrite),
            MemCheck::kOk);
}

TEST_F(MemoryTest, LocalCheckRejectsBadKey) {
  pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base(), 8, 0xdead, kLocalRead), MemCheck::kBadKey);
}

// Deregistration blanks a region's keys to 0; sentinel-range "keys" must
// never resolve (a zero key would otherwise alias an empty table slot or
// the dead region) and double-deregistration must fail cleanly.
TEST_F(MemoryTest, SentinelAndBlankedKeysNeverResolve) {
  const auto a = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base(), 8, 0, kLocalRead), MemCheck::kBadKey);
  EXPECT_FALSE(pd.Deregister(0));
  ASSERT_TRUE(pd.Deregister(a.lkey));
  EXPECT_EQ(pd.region_count(), 0u);
  EXPECT_FALSE(pd.Deregister(a.lkey));  // already gone
  EXPECT_FALSE(pd.Deregister(0));       // the blanked key value
  EXPECT_EQ(pd.region_count(), 0u);
  EXPECT_EQ(pd.CheckLocal(base(), 8, 0, kLocalRead), MemCheck::kBadKey);
  EXPECT_EQ(pd.CheckLocal(base(), 8, a.lkey, kLocalRead), MemCheck::kBadKey);
}

TEST_F(MemoryTest, LocalCheckRejectsOutOfBounds) {
  const auto& mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base() + 1020, 8, mr.lkey, kLocalRead),
            MemCheck::kOutOfBounds);
  EXPECT_EQ(pd.CheckLocal(base() - 8, 8, mr.lkey, kLocalRead),
            MemCheck::kOutOfBounds);
}

TEST_F(MemoryTest, RemoteCheckUsesRkeyNotLkey) {
  const auto& mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckRemote(base(), 8, mr.rkey, kRemoteWrite), MemCheck::kOk);
  EXPECT_EQ(pd.CheckRemote(base(), 8, mr.lkey, kRemoteWrite),
            MemCheck::kBadKey);
}

TEST_F(MemoryTest, PermissionBitsEnforced) {
  const auto& ro = pd.Register(buf.get(), 512, kLocalRead | kRemoteRead);
  EXPECT_EQ(pd.CheckRemote(base(), 8, ro.rkey, kRemoteRead), MemCheck::kOk);
  EXPECT_EQ(pd.CheckRemote(base(), 8, ro.rkey, kRemoteWrite),
            MemCheck::kNoPermission);
  EXPECT_EQ(pd.CheckRemote(base(), 8, ro.rkey, kRemoteAtomic),
            MemCheck::kNoPermission);
  EXPECT_EQ(pd.CheckLocal(base(), 8, ro.lkey, kLocalWrite),
            MemCheck::kNoPermission);
}

TEST_F(MemoryTest, DeregisterInvalidatesKeys) {
  const auto mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_TRUE(pd.Deregister(mr.lkey));
  EXPECT_EQ(pd.CheckLocal(base(), 8, mr.lkey, kLocalRead), MemCheck::kBadKey);
  EXPECT_EQ(pd.CheckRemote(base(), 8, mr.rkey, kRemoteRead),
            MemCheck::kBadKey);
  EXPECT_FALSE(pd.Deregister(mr.lkey));
}

TEST_F(MemoryTest, ZeroLengthAccessInsideRegionIsOk) {
  const auto& mr = pd.Register(buf.get(), 1024, kAccessAll);
  EXPECT_EQ(pd.CheckLocal(base(), 0, mr.lkey, kLocalRead), MemCheck::kOk);
}

TEST_F(MemoryTest, ReregisterKeepsKeysAndAppliesNewBounds) {
  const auto mr = pd.Register(buf.get(), 1024, kAccessAll);
  ASSERT_TRUE(pd.Reregister(mr.lkey, buf.get(), 256, kAccessAll));
  EXPECT_EQ(pd.CheckLocal(base(), 256, mr.lkey, kLocalRead), MemCheck::kOk);
  EXPECT_EQ(pd.CheckLocal(base() + 256, 8, mr.lkey, kLocalRead),
            MemCheck::kOutOfBounds);
  EXPECT_EQ(pd.CheckRemote(base(), 8, mr.rkey, kRemoteWrite), MemCheck::kOk);
  EXPECT_EQ(pd.region_count(), 1u);
  // An rkey is not a rereg handle, and unknown keys fail cleanly.
  EXPECT_FALSE(pd.Reregister(mr.rkey, buf.get(), 64, kAccessAll));
  EXPECT_FALSE(pd.Reregister(0xdead, buf.get(), 64, kAccessAll));
}

// The MrCacheEntry regression the epoch tag exists for: a re-registration
// that keeps the same lkey/rkey values but shrinks the region must not be
// satisfied by a stale cached extent.
TEST_F(MemoryTest, ReregisterShrinkInvalidatesStaleExtentCache) {
  const auto mr = pd.Register(buf.get(), 1024, kAccessAll);
  MrCacheEntry cache;
  ASSERT_EQ(pd.CheckRemote(base(), 1024, mr.rkey, kRemoteWrite, &cache),
            MemCheck::kOk);
  EXPECT_EQ(cache.key, mr.rkey);
  EXPECT_EQ(cache.length, 1024u);
  ASSERT_TRUE(pd.Reregister(mr.lkey, buf.get(), 256, kAccessAll));
  // Same key value, smaller extent: the access beyond the new bounds must
  // fault even though (key, extent) in the cache would allow it.
  EXPECT_EQ(pd.CheckRemote(base() + 512, 8, mr.rkey, kRemoteWrite, &cache),
            MemCheck::kOutOfBounds);
  // The refreshed cache carries the new extent and keeps serving hits.
  EXPECT_EQ(pd.CheckRemote(base() + 128, 8, mr.rkey, kRemoteWrite, &cache),
            MemCheck::kOk);
  EXPECT_EQ(cache.length, 256u);
}

TEST_F(MemoryTest, DeregisterInvalidatesStaleCacheEntry) {
  const auto mr = pd.Register(buf.get(), 1024, kAccessAll);
  MrCacheEntry cache;
  ASSERT_EQ(pd.CheckLocal(base(), 8, mr.lkey, kLocalRead, &cache),
            MemCheck::kOk);
  ASSERT_TRUE(pd.Deregister(mr.lkey));
  EXPECT_EQ(pd.CheckLocal(base(), 8, mr.lkey, kLocalRead, &cache),
            MemCheck::kBadKey);
}

TEST_F(MemoryTest, CachedEntryStillEnforcesPermissions) {
  const auto ro = pd.Register(buf.get(), 512, kLocalRead | kRemoteRead);
  MrCacheEntry cache;
  ASSERT_EQ(pd.CheckRemote(base(), 8, ro.rkey, kRemoteRead, &cache),
            MemCheck::kOk);
  // Same key through the warm cache: rights are checked on every access.
  EXPECT_EQ(pd.CheckRemote(base(), 8, ro.rkey, kRemoteWrite, &cache),
            MemCheck::kNoPermission);
  EXPECT_EQ(pd.CheckRemote(base() + 508, 8, ro.rkey, kRemoteRead, &cache),
            MemCheck::kOutOfBounds);
}

TEST(MemoryRegion, ContainsHandlesEdges) {
  MemoryRegion mr;
  mr.addr = 1000;
  mr.length = 100;
  EXPECT_TRUE(mr.Contains(1000, 100));
  EXPECT_TRUE(mr.Contains(1099, 1));
  EXPECT_FALSE(mr.Contains(1099, 2));
  EXPECT_FALSE(mr.Contains(999, 1));
}

TEST(Dma, ReadWriteRoundTrip) {
  std::uint64_t word = 0;
  dma::WriteU64(dma::AddrOf(&word), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(word, 0xdeadbeefcafef00dULL);
  EXPECT_EQ(dma::ReadU64(dma::AddrOf(&word)), 0xdeadbeefcafef00dULL);
  std::uint32_t half = 0;
  dma::WriteU32(dma::AddrOf(&half), 0x12345678u);
  EXPECT_EQ(dma::ReadU32(dma::AddrOf(&half)), 0x12345678u);
}

TEST(Dma, CopyHandlesOverlap) {
  char data[16] = "abcdefghijklmno";
  dma::Copy(dma::AddrOf(data + 2), dma::AddrOf(data), 8);
  EXPECT_EQ(data[2], 'a');
  EXPECT_EQ(data[9], 'h');
}

// --- Zeroed storage ----------------------------------------------------------

bool AllZero(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    if (b[i] != 0) return false;
  }
  return true;
}

bool AllZero(std::uint64_t addr, std::size_t n) {
  return AllZero(reinterpret_cast<const void*>(addr), n);
}

// Zero elements still yields a live, distinct pointer, like new T[0].
TEST(ZeroedStorage, ZeroElementsStillAllocates) {
  ZeroedArray<WqeImage> a = MakeZeroed<WqeImage>(0);
  ZeroedArray<WqeImage> b = MakeZeroed<WqeImage>(0);
  EXPECT_NE(a.get(), nullptr);
  EXPECT_NE(a.get(), b.get());
}

// The registered memory a workload builds — value heap, hash table, a QP's
// SQ/RQ rings — and the per-slot WorkQueue state shadowing the rings read
// zero when created, including when they reuse the memory of same-sized
// predecessors that were filled with non-zero bytes and destroyed (the
// warm path of a second build in one process). Each case runs three rounds:
// the small one reuses malloc-arena chunks; the large one starts on fresh
// mappings and, once freeing a mapping has raised glibc's mmap threshold,
// reuses arena memory too.
TEST(ZeroedStorage, HeapTableRingsAndQueueStateZeroOnFirstUseAndOnReuse) {
  struct Case {
    std::size_t heap_bytes;
    std::size_t buckets;
    std::uint32_t depth;
  };
  // The first case is small enough to come from the malloc arena.
  for (const Case& c : {Case{4096, 64, 8}, Case{4 << 20, 1 << 16, 1024}}) {
    const std::size_t table_bytes = c.buckets * kv::kBucketSize;
    const std::size_t ring_bytes = std::size_t{c.depth} * kWqeSize;
    for (int round = 0; round < 3; ++round) {
      SCOPED_TRACE(testing::Message() << "heap " << c.heap_bytes << ", round "
                                      << round);
      sim::Simulator sim;
      RnicDevice dev(sim, NicConfig::ConnectX5(), Calibration{}, "zeroed");
      kv::ValueHeap heap(dev, c.heap_bytes);
      kv::RdmaHashTable table(dev, {.buckets = c.buckets});
      QpConfig q;
      q.sq_depth = c.depth;
      q.rq_depth = c.depth;
      q.send_cq = dev.CreateCq();
      q.recv_cq = dev.CreateCq();
      QueuePair* qp = dev.CreateQp(q);

      EXPECT_TRUE(AllZero(heap.base(), c.heap_bytes));
      EXPECT_TRUE(AllZero(table.base(), table_bytes));
      EXPECT_TRUE(AllZero(qp->sq_buf.get(), ring_bytes));
      EXPECT_TRUE(AllZero(qp->rq_buf.get(), ring_bytes));
      for (WorkQueue* wq : {&qp->sq, &qp->rq}) {
        for (std::size_t s = 0; s < wq->capacity(); ++s) {
          ASSERT_FALSE(wq->DecodedAtB(s)) << "slot " << s;
          ASSERT_TRUE(AllZero(&wq->ImageAtB(s), sizeof(WqeImage)))
              << "slot " << s;
          ASSERT_TRUE(AllZero(&wq->PlanAt(s), sizeof(SgePlan))) << "slot " << s;
        }
      }

      // Dirty everything before it is freed for the next round.
      std::memset(reinterpret_cast<void*>(heap.base()), 0xa5, c.heap_bytes);
      std::memset(reinterpret_cast<void*>(table.base()), 0xa5, table_bytes);
      std::memset(qp->sq_buf.get(), 0xa5, ring_bytes);
      std::memset(qp->rq_buf.get(), 0xa5, ring_bytes);
      for (WorkQueue* wq : {&qp->sq, &qp->rq}) {
        for (std::size_t s = 0; s < wq->capacity(); ++s) {
          std::memset(static_cast<void*>(&wq->ImageAtB(s)), 0xa5,
                      sizeof(WqeImage));
          std::memset(static_cast<void*>(&wq->PlanAt(s)), 0xa5,
                      sizeof(SgePlan));
          wq->MarkDecodedAtB(s);
        }
      }
    }
  }
}

}  // namespace
}  // namespace redn::rnic
