#include "sim/sharded.h"

#include <algorithm>
#include <cassert>
#include <string>

namespace redn::sim {

namespace {
Nanos SaturatingAdd(Nanos a, Nanos b) {
  return a > std::numeric_limits<Nanos>::max() - b
             ? std::numeric_limits<Nanos>::max()
             : a + b;
}
}  // namespace

ShardedSimulator::ShardedSimulator(int shards) {
  if (shards < 1) {
    throw std::invalid_argument("ShardedSimulator: shards must be >= 1");
  }
  domains_.reserve(static_cast<std::size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    auto d = std::make_unique<EventDomain>();
    d->shard_ = i;
    d->coord_ = this;
    domains_.push_back(std::move(d));
  }
  const auto n = static_cast<std::size_t>(shards);
  mail_.resize(n * n);
  reports_.assign(2 * n * (n + 9), kNever);
  lanes_.resize(n);
  barrier_.Init(shards);
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::SetLookaheadFloor(Nanos one_way) {
  if (one_way <= 0) {
    throw std::invalid_argument(
        "zero-latency cross-shard link: conservative sharded simulation "
        "needs every cross-shard link's one-way latency (propagation + "
        "switch) > 0 ns — it is the lookahead window. Give the link a "
        "propagation delay, or place both endpoints on the same shard.");
  }
  if (one_way < lookahead_) lookahead_ = one_way;
}

void ShardedSimulator::PostCrossShard(int src, int dst, Nanos t, Nanos src_now,
                                      std::function<void()> fn) {
  if (dst < 0 || dst >= shards()) {
    throw std::out_of_range("SendTo: destination shard " + std::to_string(dst) +
                            " out of range [0, " + std::to_string(shards()) +
                            ")");
  }
  if (lookahead_ == kNoLookahead) {
    throw std::logic_error(
        "SendTo: cross-shard message with no lookahead registered — declare "
        "the link latency first (Fabric::Attach with a domain, or "
        "ShardedSimulator::SetLookaheadFloor)");
  }
  if (t < src_now + lookahead_) {
    throw std::logic_error(
        "SendTo: lookahead violation — message due at t=" + std::to_string(t) +
        " ns but sender is at " + std::to_string(src_now) +
        " ns with lookahead " + std::to_string(lookahead_) +
        " ns; cross-shard effects must lag the sender by at least the "
        "minimum cross-shard link latency");
  }
  Mailbox& mb = mailbox(src, dst);
  mb.pending[lanes_[static_cast<std::size_t>(src)].post].msgs.push_back(
      MailMsg{t, mb.next_seq++, std::move(fn)});
  if (t < mb.unreported) mb.unreported = t;
  ++mb.total_sent;
}

void ShardedSimulator::MergeInbox(int dst, int parity) {
  const int n = shards();
  Lane& lane = lanes_[static_cast<std::size_t>(dst)];
  std::vector<MergeKey>& keys = lane.scratch;
  keys.clear();
  for (int src = 0; src < n; ++src) {
    for (MailMsg& m : mailbox(src, dst).pending[parity].msgs) {
      keys.push_back(MergeKey{m.time, src, m.seq, &m.fn});
    }
  }
  if (keys.empty()) return;
  // Deterministic total order: the destination wheel assigns fresh local
  // seqs in merge order, so (time, src_shard, seq) here fixes dispatch
  // order regardless of which thread ran what when.
  std::sort(keys.begin(), keys.end(), [](const MergeKey& a, const MergeKey& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  EventDomain& d = *domains_[static_cast<std::size_t>(dst)];
  for (MergeKey& k : keys) {
    assert(k.time >= d.now() && "mailbox message due in destination past");
    d.At(k.time, std::move(*k.fn));
  }
  lane.merges += keys.size();
  for (int src = 0; src < n; ++src) {
    mailbox(src, dst).pending[parity].msgs.clear();
  }
}

std::uint64_t ShardedSimulator::ShardLoop(int k, Nanos limit) {
  const int n = shards();
  EventDomain& d = *domains_[static_cast<std::size_t>(k)];
  Lane& lane = lanes_[static_cast<std::size_t>(k)];
  EventDomain::tls_running_ = &d;
  std::uint64_t rounds = 0;
  for (int p = 0;; p ^= 1) {
    Nanos* mine = report(p, k);
    if (!d.PeekNextEventTime(&mine[k])) mine[k] = kNever;
    for (int j = 0; j < n; ++j) {
      if (j == k) continue;
      Mailbox& mb = mailbox(k, j);
      mine[j] = mb.unreported;
      mb.unreported = kNever;
    }
    mine[n] = lane.err != nullptr;

    barrier_.Wait();

    // E_j = min over reporters i of report(p, i)[j]. Every shard reads the
    // same rows, so `stop` is the same on every shard.
    Nanos own = kNever;
    Nanos others = kNever;
    bool failed = false;
    for (int j = 0; j < n; ++j) {
      Nanos e = kNever;
      for (int i = 0; i < n; ++i) e = std::min(e, report(p, i)[j]);
      if (j == k) {
        own = e;
      } else {
        others = std::min(others, e);
      }
      failed = failed || report(p, j)[n] != 0;
    }
    const Nanos tmin = std::min(own, others);
    const bool stop = failed || tmin == kNever || tmin > limit;
    try {
      // Merge even when stopping, so no mail outlives the run in a buffer.
      MergeInbox(k, p);
      if (!stop) {
        ++rounds;
        // Mail from j != k is due >= E_j + L; k's own mail comes back no
        // earlier than E_k + 2L. Without cross-shard links there is no
        // mail at all: one free-running round.
        Nanos end = kNever;
        if (lookahead_ != kNoLookahead) {
          end = SaturatingAdd(std::min(others, SaturatingAdd(own, lookahead_)),
                              lookahead_);
        }
        if (end > limit) end = limit + 1;
        lane.post = p ^ 1;
        d.DrainWindow(end);
      }
    } catch (...) {
      if (!lane.err) lane.err = std::current_exception();
    }
    if (stop) break;
  }
  lane.post = 0;
  EventDomain::tls_running_ = nullptr;
  return rounds;
}

void ShardedSimulator::RunWindowed(Nanos limit) {
  const int n = shards();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(n) - 1);
  for (int k = 1; k < n; ++k) {
    workers.emplace_back(&ShardedSimulator::ShardLoop, this, k, limit);
  }
  rounds_ += ShardLoop(0, limit);
  for (std::thread& th : workers) th.join();
  // Lowest failing shard wins, so which exception surfaces is deterministic.
  std::exception_ptr err;
  for (Lane& lane : lanes_) {
    if (!err) err = lane.err;
    lane.err = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void ShardedSimulator::Run() {
  if (shards() == 1) {
    domains_[0]->Run();
    return;
  }
  RunWindowed(kNever);
  // Queues are drained; let each domain consume its noted horizon so a
  // drained run ends at the last host-visibility instant, exactly like the
  // single-threaded engine.
  for (auto& d : domains_) d->Run();
}

void ShardedSimulator::RunUntil(Nanos t) {
  if (shards() == 1) {
    domains_[0]->RunUntil(t);
    return;
  }
  RunWindowed(t);
  // No pending event <= t remains anywhere; advance every clock to t.
  for (auto& d : domains_) d->RunUntil(t);
}

void ShardedSimulator::Reset() {
  for (auto& d : domains_) d->Reset();
  for (Mailbox& mb : mail_) {
    mb.pending[0].msgs.clear();
    mb.pending[1].msgs.clear();
    mb.unreported = kNever;
    mb.next_seq = 0;  // total_sent stays cumulative, like domain stats
  }
}

std::uint64_t ShardedSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& d : domains_) total += d->events_processed();
  return total;
}

std::uint64_t ShardedSimulator::slab_hits() const {
  std::uint64_t total = 0;
  for (const auto& d : domains_) total += d->slab_hits();
  return total;
}

std::uint64_t ShardedSimulator::heap_fallbacks() const {
  std::uint64_t total = 0;
  for (const auto& d : domains_) total += d->heap_fallbacks();
  return total;
}

std::size_t ShardedSimulator::pending_events() const {
  std::size_t total = 0;
  for (const auto& d : domains_) total += d->pending_events();
  for (const Mailbox& mb : mail_) {
    total += mb.pending[0].msgs.size() + mb.pending[1].msgs.size();
  }
  return total;
}

Nanos ShardedSimulator::now() const {
  Nanos best = 0;
  for (const auto& d : domains_) best = std::max(best, d->now());
  return best;
}

std::uint64_t ShardedSimulator::mailbox_merges() const {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.merges;
  return total;
}

std::uint64_t ShardedSimulator::cross_shard_sends() const {
  std::uint64_t total = 0;
  for (const Mailbox& mb : mail_) total += mb.total_sent;
  return total;
}

}  // namespace redn::sim
