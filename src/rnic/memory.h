// Registered memory: protection domains, memory regions, key checks, DMA.
//
// Simulated RDMA targets *real process memory*: an address in a WQE is a
// reinterpret_cast of a host pointer. Registration attaches lkey/rkey
// capability tokens and access rights; every NIC access is checked the way
// the hardware's MTT/MPT would check it. This is what makes self-modifying
// chains honest — the "code region" is the WQ ring buffer itself, registered
// like any other memory.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

namespace redn::rnic {

// --- Zeroed simulated memory -------------------------------------------------
// Every buffer the simulated NIC can address starts as zero bytes: value
// heaps, hash tables, WQ rings, staging areas, and the per-slot work-queue
// state that shadows the rings. All of them come from calloc, so they are
// paid for on touch: a large request is served by fresh anonymous pages the
// kernel already zeroed (a 256 MiB heap costs neither time nor RSS until a
// store lands in it), and a small one is zeroed in the malloc arena. It is
// the only path — no size-based mmap fork of our own — which also keeps the
// sanitizers honest: ASan intercepts calloc, so these buffers keep their
// redzones.
struct FreeDeleter {
  void operator()(void* p) const noexcept { std::free(p); }
};

template <class T>
using ZeroedArray = std::unique_ptr<T[], FreeDeleter>;

// True iff T{} is the all-zero byte pattern, i.e. calloc'd storage already
// holds value-initialised T objects. Requires a padding-free type, so the
// constant-evaluated bit_cast sees every byte.
template <class T>
constexpr bool ZeroBytesAreValueInit() {
  const auto bytes = std::bit_cast<std::array<unsigned char, sizeof(T)>>(T{});
  for (unsigned char b : bytes) {
    if (b != 0) return false;
  }
  return true;
}

// `n` value-initialised T, zeroed by calloc rather than by a loop. The
// storage holds implicit-lifetime objects (C++20), so no constructor runs.
template <class T>
ZeroedArray<T> MakeZeroed(std::size_t n) {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T> &&
                    std::has_unique_object_representations_v<T> &&
                    ZeroBytesAreValueInit<T>(),
                "MakeZeroed needs a trivial, padding-free T whose all-zero "
                "bytes equal T{}");
  // n == 0 still yields a distinct live pointer, like new T[0].
  void* p = std::calloc(n == 0 ? 1 : n, sizeof(T));
  if (p == nullptr) throw std::bad_alloc();
  return ZeroedArray<T>(static_cast<T*>(p));
}

// Access rights for a memory region (bitmask).
enum Access : std::uint32_t {
  kLocalRead = 1u << 0,   // usable as a gather source
  kLocalWrite = 1u << 1,  // usable as a scatter target
  kRemoteRead = 1u << 2,
  kRemoteWrite = 1u << 3,
  kRemoteAtomic = 1u << 4,
  kAccessAll = kLocalRead | kLocalWrite | kRemoteRead | kRemoteWrite | kRemoteAtomic,
};

struct MemoryRegion {
  std::uint64_t addr = 0;  // start address (host pointer value)
  std::size_t length = 0;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  std::uint32_t access = 0;

  bool Contains(std::uint64_t a, std::size_t len) const {
    return a >= addr && a + len <= addr + length && a + len >= a;
  }
};

// Why an access check failed (surfaces as a CQE error status).
enum class MemCheck {
  kOk,
  kBadKey,
  kOutOfBounds,
  kNoPermission,
};

// One-entry memoization of the last MR lookup a queue performed. RedN
// traffic hits the same 2-3 regions (code ring, hash table, value heap)
// millions of times, so the common case is "same key as last time": a hit
// validates against the cached extent directly and skips both the table
// probe and the region-store load.
//
// Caching the extent makes staleness dangerous: ibv_rereg_mr-style
// re-registration keeps the *same* lkey/rkey values while changing bounds,
// so a key compare alone would happily validate against the old extent
// (e.g. a client writing through `remote_mr_cache` past a shrunk region).
// The epoch tag closes that hole: the owning ProtectionDomain bumps its
// epoch on every Deregister/Reregister, and a hit requires both the key
// and the epoch to match — any mutation of the key space invalidates every
// outstanding cache entry at once.
struct MrCacheEntry {
  std::uint32_t key = 0;      // 0 = empty (real keys start at 0x1000)
  std::uint32_t epoch = 0;    // ProtectionDomain::epoch() at fill time
  std::uint64_t addr = 0;     // cached extent + rights of the resolved MR
  std::uint64_t length = 0;
  std::uint32_t access = 0;
};

class ProtectionDomain {
 public:
  // Registers [ptr, ptr+len) and returns the region descriptor by value:
  // the internal region store reallocates as it grows, so a reference into
  // it would dangle across a later Register.
  MemoryRegion Register(void* ptr, std::size_t len, std::uint32_t access);

  // Removes a region; accesses with its keys fail afterwards.
  bool Deregister(std::uint32_t lkey);

  // ibv_rereg_mr analogue: rebinds an existing registration to new bounds
  // and rights while KEEPING its lkey/rkey values — the hardware behaviour
  // that makes stale extent caches dangerous. Bumps the epoch so every
  // MrCacheEntry filled before the rereg misses and re-resolves.
  bool Reregister(std::uint32_t lkey, void* ptr, std::size_t len,
                  std::uint32_t access);

  // Validates a local (lkey) access. `cache`, when given, is consulted
  // before the key table and refreshed on a successful lookup. The hit
  // path is inline: it runs once per SGE on every data verb, and a valid
  // (key, epoch) entry answers from the cached extent alone.
  MemCheck CheckLocal(std::uint64_t addr, std::size_t len, std::uint32_t lkey,
                      std::uint32_t required_access,
                      MrCacheEntry* cache = nullptr) const {
    if (cache != nullptr && cache->key == lkey && cache->epoch == epoch_) {
      return CheckCached(*cache, addr, len, required_access);
    }
    return CheckSlow(addr, len, lkey, required_access, /*remote=*/false, cache);
  }

  // Validates a remote (rkey) access.
  MemCheck CheckRemote(std::uint64_t addr, std::size_t len, std::uint32_t rkey,
                       std::uint32_t required_access,
                       MrCacheEntry* cache = nullptr) const {
    if (cache != nullptr && cache->key == rkey && cache->epoch == epoch_) {
      return CheckCached(*cache, addr, len, required_access);
    }
    return CheckSlow(addr, len, rkey, required_access, /*remote=*/true, cache);
  }

  std::size_t region_count() const { return live_count_; }
  // Generation counter for MrCacheEntry validation; bumped by every
  // Deregister/Reregister (key-space mutation).
  std::uint32_t epoch() const { return epoch_; }

 private:
  // Open-addressed key table: maps an lkey or rkey to its region slot.
  // Both key kinds share one table (the key counter never collides them),
  // so a remote check is a single probe instead of the old two-map
  // rkey->lkey->region chain.
  struct TableSlot {
    std::uint32_t key = 0;    // kEmptyKey / kTombstoneKey / a real key
    std::uint32_t index = 0;  // slot in regions_
  };
  static constexpr std::uint32_t kEmptyKey = 0;
  static constexpr std::uint32_t kTombstoneKey = 1;
  static constexpr std::uint32_t kNotFound = ~std::uint32_t{0};
  // First key ever issued. Values below it (the sentinels above, and the
  // zeroes Deregister blanks a region's keys to) are never valid lookups;
  // Resolve rejects them up front so a blanked key cannot alias an empty
  // table slot or a dead region.
  static constexpr std::uint32_t kFirstKey = 0x1000;

  static std::size_t Mix(std::uint32_t key) {
    return static_cast<std::size_t>(key * 2654435761u);
  }
  std::uint32_t Find(std::uint32_t key) const;  // region index or kNotFound
  void Insert(std::uint32_t key, std::uint32_t index);
  void GrowTable();

  // Table probe + kind check (lkey vs rkey); cache handling lives in the
  // Check* fast paths.
  const MemoryRegion* Resolve(std::uint32_t key, bool remote) const;
  // Permission + bounds against a validated cache entry (same arithmetic as
  // MemoryRegion::Contains, overflow check included).
  static MemCheck CheckCached(const MrCacheEntry& e, std::uint64_t addr,
                              std::size_t len, std::uint32_t required_access) {
    if ((e.access & required_access) != required_access) {
      return MemCheck::kNoPermission;
    }
    if (addr >= e.addr && addr + len <= e.addr + e.length && addr + len >= addr) {
      return MemCheck::kOk;
    }
    return MemCheck::kOutOfBounds;
  }
  // Miss path: table probe, cache refill, full check.
  MemCheck CheckSlow(std::uint64_t addr, std::size_t len, std::uint32_t key,
                     std::uint32_t required_access, bool remote,
                     MrCacheEntry* cache) const;

  std::uint32_t next_key_ = kFirstKey;
  std::uint32_t epoch_ = 0;
  std::size_t live_count_ = 0;
  std::vector<MemoryRegion> regions_;  // append-only; dereg blanks keys
  std::vector<TableSlot> table_;       // power-of-two, linear probing
  std::size_t table_used_ = 0;         // live + tombstone slots
};

// Sorted registry of watched memory extents (the WQE "code rings") with a
// per-extent dirty generation — the write side of the decoded-WQE
// translation cache. NIC-side stores (RDMA WRITE delivery, RECV/READ
// scatter, atomic RMWs) are routed through ForOverlaps; a write landing
// inside a watched ring bumps that ring's generation and hands the owner
// the overlapped byte range so it can refresh exactly the touched slots.
// Most writes target payload heaps, so the common case is one binary-search
// reject over a small sorted vector.
//
// This complements (not replaces) the ProtectionDomain epoch: the epoch
// invalidates *translations* (cached MR extents) on key-space mutation,
// while the dirty generation invalidates *decodes* on data writes.
class WriteWatchSet {
 public:
  // Registers [base, base+len) owned by `owner` (a WorkQueue). Extents are
  // distinct allocations and are never unregistered (QPs live for the whole
  // simulation), which keeps the vector append-then-sort simple.
  void Watch(std::uint64_t base, std::uint64_t len, void* owner);

  bool empty() const { return entries_.empty(); }

  // Dirty generation of the extent owned by `owner` (0 if not watched):
  // the number of tracked writes that have landed inside it. Diagnostic
  // surface for tests and tooling — the refresh path itself acts on the
  // overlap callback, not the counter.
  std::uint64_t DirtyGen(const void* owner) const {
    for (const Entry& e : entries_) {
      if (e.owner == owner) return e.dirty_gen;
    }
    return 0;
  }

  // Invokes fn(owner, first_off, last_off, dirty_gen) for every watched
  // extent overlapping [addr, addr+len); offsets are byte offsets into the
  // extent. Bumps the extent's dirty generation. Inline: runs on every
  // NIC-side store, and the miss path is one partition-point reject.
  template <class Fn>
  void ForOverlaps(std::uint64_t addr, std::uint64_t len, Fn&& fn) {
    if (entries_.empty() || len == 0) return;
    const std::uint64_t wend = addr + len;
    // First extent whose end is past the write start; extents are disjoint
    // and sorted by base, so overlaps are contiguous from here.
    std::size_t lo = 0, hi = entries_.size();
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (entries_[mid].end <= addr) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (std::size_t i = lo; i < entries_.size() && entries_[i].base < wend;
         ++i) {
      Entry& e = entries_[i];
      ++e.dirty_gen;
      const std::uint64_t first = addr > e.base ? addr - e.base : 0;
      const std::uint64_t last =
          (wend < e.end ? wend : e.end) - e.base - 1;
      fn(e.owner, first, last, e.dirty_gen);
    }
  }

 private:
  struct Entry {
    std::uint64_t base = 0;
    std::uint64_t end = 0;
    void* owner = nullptr;
    std::uint64_t dirty_gen = 0;  // per-MR dirty generation
  };
  std::vector<Entry> entries_;  // sorted by base, disjoint
};

// DMA helpers: all NIC memory traffic funnels through these, so tests can
// rely on memcpy semantics (no strict-aliasing surprises). They are inline
// on purpose: a WQE fetch/store touches every field through them (~20 calls
// per WQE), and as out-of-line functions they dominated the per-verb cost
// of the data path. Inlined, a WqeView::Load collapses into straight-line
// loads the compiler can schedule and vectorize.
namespace dma {
inline void Copy(std::uint64_t dst, std::uint64_t src, std::size_t len) {
  std::memmove(reinterpret_cast<void*>(dst), reinterpret_cast<const void*>(src),
               len);
}
inline void Write(std::uint64_t dst, const void* src, std::size_t len) {
  std::memcpy(reinterpret_cast<void*>(dst), src, len);
}
inline void Read(void* dst, std::uint64_t src, std::size_t len) {
  std::memcpy(dst, reinterpret_cast<const void*>(src), len);
}
// Appends `len` bytes from simulated memory to `out` without resize()'s
// zero-fill (insert copies straight from the source). Keeps gather/READ
// capture inside the dma funnel so read-side instrumentation has the same
// single choke point the write side does.
inline void ReadAppend(std::vector<std::byte>& out, std::uint64_t src,
                       std::size_t len) {
  const std::byte* p = reinterpret_cast<const std::byte*>(src);
  out.insert(out.end(), p, p + len);
}
inline std::uint64_t ReadU64(std::uint64_t addr) {
  std::uint64_t v;
  Read(&v, addr, sizeof(v));
  return v;
}
inline void WriteU64(std::uint64_t addr, std::uint64_t value) {
  Write(addr, &value, sizeof(value));
}
inline std::uint32_t ReadU32(std::uint64_t addr) {
  std::uint32_t v;
  Read(&v, addr, sizeof(v));
  return v;
}
inline void WriteU32(std::uint64_t addr, std::uint32_t value) {
  Write(addr, &value, sizeof(value));
}
inline std::uint64_t AddrOf(const void* p) {
  return reinterpret_cast<std::uint64_t>(p);
}
}  // namespace dma

}  // namespace redn::rnic
