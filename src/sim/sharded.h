// Sharded parallel simulation: N EventDomains advanced in deterministic
// conservative rounds on real threads.
//
// Synchronization model (docs/PARSIM.md has the full write-up):
//  - Every actor (device, host poller, client) lives on exactly one shard
//    and schedules only into its own domain; the ONLY cross-shard channel
//    is `EventDomain::SendTo(shard, t, fn)`.
//  - Cross-shard links declare a one-way latency via SetLookaheadFloor
//    (the fabric does this at AttachPort time); the minimum over all
//    cross-shard links is the lookahead L. Zero-latency cross-shard links
//    are rejected — with L = 0 no shard could ever safely run ahead.
//  - Every shard runs the same loop on its own thread (shard 0 on the
//    caller's), with exactly one barrier per round and no coordinator
//    phase. In round r, with parity p = r & 1, shard k:
//      1. publishes its report of parity p: the earliest event in its own
//         wheel, the earliest due time of the mail it posted to each
//         destination since its last report, and whether its last window
//         threw;
//      2. waits at the barrier;
//      3. reads all n reports of parity p and derives every shard's
//         earliest work E_j (own wheel or mail in flight to it). Every
//         shard reads the same slots, so every shard takes the same stop
//         or rethrow decision;
//      4. merges its own inbox, the parity-p mail, sorted by
//         (time, src_shard, seq);
//      5. runs DrainWindow(H_k), H_k = min(min_{j!=k} E_j, E_k + L) + L
//         (clamped to limit + 1), posting new mail into parity p ^ 1.
//    Nothing shard k receives later is due before H_k: mail from j != k
//    leaves at >= E_j and lags by >= L, and k's own mail needs two hops
//    (>= E_k + 2L) to come back. So no shard ever receives an event in its
//    past: conservative synchronization with link latency as the
//    lookahead, as in federated ns-3 co-simulation.
//  - Race freedom is the parity argument: parity-p reports and mail are
//    written before barrier r and read (mail also cleared, by its
//    destination) between barriers r and r + 1; their writers touch
//    parity p again only after barrier r + 1. Mailboxes are per-(src,dst)
//    single-producer lanes, so the merge order, and with it every
//    simulated result, is a pure function of seed x shard count:
//    bit-identical across reruns and independent of thread scheduling.
//
// `shards = 1` is the degenerate case: Run/RunUntil delegate straight to
// the single domain's classic single-threaded loop — the exact pre-sharding
// code path, byte-for-byte identical results.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sim/event_domain.h"

namespace redn::sim {

class ShardedSimulator {
 public:
  explicit ShardedSimulator(int shards);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  int shards() const { return static_cast<int>(domains_.size()); }
  EventDomain& shard(int i) { return *domains_[static_cast<std::size_t>(i)]; }
  const EventDomain& shard(int i) const {
    return *domains_[static_cast<std::size_t>(i)];
  }

  // Registers a cross-shard one-way latency; the lookahead is the minimum
  // over all registrations. Called by Fabric when a port attach creates a
  // cross-shard pair, or directly by tests/custom topologies. A zero (or
  // negative) latency makes conservative sync impossible and throws
  // std::invalid_argument.
  void SetLookaheadFloor(Nanos one_way);
  // Current lookahead; kNoLookahead until a cross-shard link registers one
  // (then the whole run is a single embarrassingly-parallel round).
  Nanos lookahead() const { return lookahead_; }
  static constexpr Nanos kNoLookahead = std::numeric_limits<Nanos>::max();

  // Runs until every domain's queue and every mailbox drains.
  void Run();
  // Runs until drained or simulated time would exceed `t`; events exactly
  // at `t` execute, and every domain's clock ends at >= t.
  void RunUntil(Nanos t);

  // Drops pending events in every domain and every undrained mailbox and
  // resets all clocks (and mailbox sequence counters) to zero. Cumulative
  // statistics are kept, mirroring EventDomain::Reset.
  void Reset();

  // Aggregated statistics. Each counter is summed over the per-shard
  // domains exactly once (the domains are disjoint — no double counting);
  // pending_events additionally includes messages sitting in mailboxes
  // that have not been merged into a destination wheel yet.
  std::uint64_t events_processed() const;
  std::uint64_t slab_hits() const;
  std::uint64_t heap_fallbacks() const;
  std::size_t pending_events() const;
  // Latest domain clock (all domains agree after RunUntil).
  Nanos now() const;

  // Mailbox traffic counters (cumulative, like the domain stats).
  std::uint64_t cross_shard_sends() const;
  std::uint64_t mailbox_merges() const;
  std::uint64_t rounds() const { return rounds_; }

  // Mailbox append — called by EventDomain::SendTo from the source shard's
  // thread (or from setup code between runs). Throws std::logic_error when
  // `t` violates the lookahead contract (t < src_now + lookahead, or no
  // cross-shard lookahead registered at all).
  void PostCrossShard(int src, int dst, Nanos t, Nanos src_now,
                      std::function<void()> fn);

 private:
  static constexpr Nanos kNever = std::numeric_limits<Nanos>::max();

  struct MailMsg {
    Nanos time;
    std::uint64_t seq;  // per-(src,dst) send order
    std::function<void()> fn;
  };
  // One (src,dst) lane. `pending[p]` is appended to by the source shard in
  // the rounds it posts into parity p and drained by the destination after
  // the next barrier; everything else is source-owned. Each part sits on
  // its own cache line, so the two threads never share one mid-round.
  struct alignas(64) Mailbox {
    struct alignas(64) Buffer {
      std::vector<MailMsg> msgs;
    };
    Buffer pending[2];
    Nanos unreported = kNever;  // earliest due time since the last report
    std::uint64_t next_seq = 0;
    std::uint64_t total_sent = 0;
  };
  struct MergeKey {
    Nanos time;
    int src;
    std::uint64_t seq;
    std::function<void()>* fn;
  };
  // Thread-owned state of one shard's loop.
  struct alignas(64) Lane {
    int post = 0;  // parity of the mail buffer this shard appends to
    std::uint64_t merges = 0;
    std::exception_ptr err;  // first exception thrown on this shard
    std::vector<MergeKey> scratch;  // merge keys, reused across rounds
  };

  // Sense-reversing spin barrier. Rounds are often sub-microsecond, so a
  // condvar barrier's wake latency would dominate; spin first, then yield
  // so oversubscribed machines (or a 1-core CI box) still make progress.
  class alignas(64) SpinBarrier {
   public:
    void Init(int n) { n_ = n; }
    void Wait() {
      const std::uint64_t ph = phase_.load(std::memory_order_acquire);
      if (count_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_) {
        count_.store(0, std::memory_order_relaxed);
        phase_.store(ph + 1, std::memory_order_release);
      } else {
        int spins = 0;
        while (phase_.load(std::memory_order_acquire) == ph) {
          if (++spins > 2048) {
            std::this_thread::yield();
            spins = 0;
          }
        }
      }
    }

   private:
    int n_ = 1;
    std::atomic<int> count_{0};
    std::atomic<std::uint64_t> phase_{0};
  };

  void RunWindowed(Nanos limit);  // rounds until no pending event <= limit
  // Shard k's side of every round; returns the number of rounds run.
  std::uint64_t ShardLoop(int k, Nanos limit);
  void MergeInbox(int dst, int parity);
  Mailbox& mailbox(int src, int dst) {
    return mail_[static_cast<std::size_t>(src * shards() + dst)];
  }
  Nanos* report(int parity, int k) {
    const int n = shards();
    return &reports_[static_cast<std::size_t>((parity * n + k) * (n + 9))];
  }

  std::vector<std::unique_ptr<EventDomain>> domains_;
  std::vector<Mailbox> mail_;     // index: src * shards + dst
  // One report per (parity, shard), written only by that shard before the
  // round's barrier: row[j] for j != shard is the earliest mail it posted
  // to j since its last report, row[shard] the earliest event in its own
  // wheel (kNever: none), and row[n] != 0 when its last merge or window
  // threw. Rows sit n + 9 entries apart, 64 bytes of padding between
  // them, so no two share a cache line.
  std::vector<Nanos> reports_;
  std::vector<Lane> lanes_;       // index: shard
  Nanos lookahead_ = kNoLookahead;
  SpinBarrier barrier_;
  std::uint64_t rounds_ = 0;
};

// Cross-shard scheduling. Same-shard (or coordinator-less) sends are plain
// At; cross-shard sends go through the coordinator's mailbox.
template <class F>
void EventDomain::SendTo(int dst_shard, Nanos t, F&& action) {
  if (coord_ == nullptr) {
    if (dst_shard != shard_) {
      throw std::logic_error(
          "SendTo: standalone Simulator has no coordinator; only its own "
          "shard is addressable");
    }
    At(t, std::forward<F>(action));
    return;
  }
  if (dst_shard == shard_) {
    At(t, std::forward<F>(action));
    return;
  }
  coord_->PostCrossShard(shard_, dst_shard, t, now_,
                         std::function<void()>(std::forward<F>(action)));
}

}  // namespace redn::sim
