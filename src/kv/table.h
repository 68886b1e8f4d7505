// RDMA-visible hash table and value heap.
//
// The layouts here are part of the offload ABI: the RNIC program reads
// buckets with scatter lists that drop bucket fields directly into WQE
// fields (Fig 9), so offsets are fixed and documented.
//
// Bucket (24 bytes):
//   offset 0  : u64 key   48-bit key; 0 = empty (keys must be non-zero)
//   offset 8  : u64 ptr   address of the value bytes (registered heap)
//   offset 16 : u32 len   value length
//   offset 20 : u32 pad
//
// A READ of the first 20 bytes scatters as:
//   key -> response WQE ctrl word   (sets id = key, opcode = NOOP)
//   ptr -> response WQE local_addr  (the value the WRITE will send)
//   len -> response WQE length
//
// Hashing is 2-choice (the paper's H = 2, "common in practice [24]"): a key
// lives in bucket H1(k) or H2(k). For the FaRM-style one-sided baseline the
// table also exposes hopscotch neighbourhoods of H1 (default size 6).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "rnic/device.h"

namespace redn::kv {

inline constexpr std::size_t kBucketSize = 24;
inline constexpr std::size_t kBucketKeyOff = 0;
inline constexpr std::size_t kBucketPtrOff = 8;
inline constexpr std::size_t kBucketLenOff = 16;
inline constexpr std::uint64_t kKeyMask = (1ULL << 48) - 1;

// 48-bit mixers for the two bucket choices.
std::uint64_t Hash1(std::uint64_t key);
std::uint64_t Hash2(std::uint64_t key);

// Byte `i` of the plain value pattern for `key` (kv::PutPattern's layout).
inline std::uint8_t PatternByte(std::uint64_t key, std::uint32_t i) {
  return static_cast<std::uint8_t>((key + i) & 0xff);
}

// Every value pattern here is a byte ramp: byte j of a run is
// (first + j) mod 256. These fill and check a run 256 bytes (one lap of the
// ramp) at a time with memcpy / memcmp; `first` is the pattern byte at the
// run's start (e.g. PatternByte(key, 0)).
void FillBytePattern(void* dst, std::size_t n, std::uint8_t first);
bool BytePatternMatches(const void* src, std::size_t n, std::uint8_t first);

// --- Versioned values -------------------------------------------------------
// When the KV service runs a write path, every value starts with a u64
// version tag (0 = seeded, +1 per applied put); payload bytes follow. The
// payload is a pure function of (key, version), so readers, the chain
// successor, and anti-entropy resync can all verify bytes without keeping a
// shadow copy of the store.
inline constexpr std::uint32_t kValueVersionBytes = 8;

// Deterministic payload byte `i` of (key, version).
inline std::uint8_t VersionedPatternByte(std::uint64_t key,
                                         std::uint64_t version,
                                         std::uint32_t i) {
  return static_cast<std::uint8_t>((key + 131 * version + i) & 0xff);
}

// Version tag of the value at `addr` (little-endian u64 in bytes [0, 8)).
std::uint64_t ValueVersion(std::uint64_t addr);
void SetValueVersion(std::uint64_t addr, std::uint64_t version);

// Writes the tag and fills bytes [8, len) with the pattern. len >= 8.
void WriteVersionedValue(std::uint64_t addr, std::uint32_t len,
                         std::uint64_t key, std::uint64_t version);

// True iff the value's payload matches the pattern for (key, its own tag).
bool VersionedValueIntact(std::uint64_t addr, std::uint32_t len,
                          std::uint64_t key);

// Bump allocator over one registered region: values live here so a single
// rkey covers everything the response WRITE may point at.
class ValueHeap {
 public:
  ValueHeap(rnic::RnicDevice& dev, std::size_t capacity_bytes);

  // Copies `len` bytes in and returns their address; 8-byte aligned.
  std::uint64_t Store(const void* data, std::uint32_t len);
  // Reserves zeroed space without data.
  std::uint64_t Reserve(std::uint32_t len);

  std::uint32_t lkey() const { return mr_.lkey; }
  std::uint32_t rkey() const { return mr_.rkey; }
  std::uint64_t base() const { return mr_.addr; }
  std::size_t used() const { return used_; }
  std::size_t capacity() const { return capacity_; }
  void Clear() { used_ = 0; }

 private:
  rnic::ZeroedArray<std::byte> mem_;
  std::size_t capacity_;
  std::size_t used_ = 0;
  rnic::MemoryRegion mr_;
};

// Fixed-size 2-choice hash table in registered memory.
class RdmaHashTable {
 public:
  struct Config {
    std::size_t buckets = 1 << 16;  // power of two
    int neighborhood = 6;           // hopscotch window for one-sided reads
  };

  RdmaHashTable(rnic::RnicDevice& dev, Config cfg);

  // Where Place put a key: one of its two candidate buckets (NicVisible),
  // a slot of the H1 neighbourhood (host-visible only), or nowhere.
  enum class Placed : std::uint8_t { kNowhere, kNeighborhood, kCandidate };

  // Inserts key -> (ptr, len). Returns kNowhere if both candidate buckets
  // (and the H1 neighbourhood) are full. `force_second` plants the key in
  // its H2 bucket even if H1 is free — used to construct the collision
  // experiments (Fig 11).
  Placed Place(std::uint64_t key, std::uint64_t ptr, std::uint32_t len,
               bool force_second = false);
  // Place, reduced to "the key is in the table".
  bool Insert(std::uint64_t key, std::uint64_t ptr, std::uint32_t len,
              bool force_second = false) {
    return Place(key, ptr, len, force_second) != Placed::kNowhere;
  }

  bool Erase(std::uint64_t key);
  void Clear();

  struct Entry {
    std::uint64_t ptr;
    std::uint32_t len;
  };
  // Host-side lookup (used by the two-sided baseline's CPU handler).
  std::optional<Entry> Lookup(std::uint64_t key) const;

  // True iff `key` occupies one of its two candidate buckets — the only
  // slots a NIC-offloaded 2-bucket probe (HashGetOffload) reads. A key that
  // fell back to the hopscotch neighbourhood is host-visible via Lookup but
  // invisible to the offload; NIC-served workloads must draw from visible
  // keys or treat such gets as misses.
  bool NicVisible(std::uint64_t key) const;

  // Bucket addresses for building triggers / one-sided reads.
  std::uint64_t BucketAddr1(std::uint64_t key) const;
  std::uint64_t BucketAddr2(std::uint64_t key) const;
  // Start of the H1 hopscotch neighbourhood and its byte length.
  std::uint64_t NeighborhoodAddr(std::uint64_t key) const;
  std::uint32_t NeighborhoodBytes() const;

  std::uint32_t rkey() const { return mr_.rkey; }
  std::uint32_t lkey() const { return mr_.lkey; }
  std::uint64_t base() const { return mr_.addr; }  // first bucket
  std::size_t size() const { return count_; }
  std::size_t buckets() const { return cfg_.buckets; }

  // Direct bucket access for tests.
  std::uint64_t BucketKeyAt(std::size_t index) const;

 private:
  std::size_t IndexOf1(std::uint64_t key) const;
  std::size_t IndexOf2(std::uint64_t key) const;
  std::uint64_t SlotAddr(std::size_t index) const;
  bool TryPlace(std::size_t index, std::uint64_t key, std::uint64_t ptr,
                std::uint32_t len);

  Config cfg_;
  rnic::ZeroedArray<std::byte> mem_;
  rnic::MemoryRegion mr_;
  std::size_t count_ = 0;
};

// Reserves `len` bytes in `heap`, fills them in place with the PatternByte
// layout for `key`, and inserts key -> value into `table` (`force_second`
// as in Insert). Returns the value's address.
std::uint64_t PutPattern(RdmaHashTable& table, ValueHeap& heap,
                         std::uint64_t key, std::uint32_t len,
                         bool force_second = false);

}  // namespace redn::kv
