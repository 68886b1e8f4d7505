// Layer probes for the traced run. Each probe calls one layer's public API
// directly and is timed (and spanned) from the benchmark side, so the
// program itself stays uninstrumented. The metric names are the layer's
// module path; perfbench/NOTES.md says which end-to-end metric each one
// should move, on which workload.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.h"
#include "configs.h"
#include "kv/resync.h"
#include "kv/table.h"
#include "offloads/hash_harness.h"
#include "rnic/device.h"
#include "sim/fabric.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "verbs/verbs.h"
#include "workload/experiments.h"
#include "workload/kv_service.h"

namespace perfbench {
namespace {

namespace rnic = redn::rnic;
namespace sim = redn::sim;
namespace verbs = redn::verbs;

struct Probe {
  Options opt;
  bool tiny() const { return opt.size == Size::kTiny; }
  Tracer& tr() const { return *opt.tracer; }
};

// --- sim.event_domain ---------------------------------------------------------

// Self-rescheduling actors hopping 50..900 ns: the NIC model's steady state.
void EventChain(const Probe& p, Record& m) {
  Scope s(p.tr(), "probe.sim.event_domain.chain");
  const std::uint64_t target = p.tiny() ? 20'000 : 2'000'000;
  sim::Simulator d;
  std::uint64_t remaining = target;
  sim::Rng rng(Mix(p.opt.seed, 10));
  struct Chain {
    sim::Simulator* d;
    std::uint64_t* remaining;
    sim::Nanos delta;
    void operator()() {
      if (*remaining == 0) return;
      --*remaining;
      d->After(delta, *this);
    }
  };
  for (int c = 0; c < 64; ++c) {
    d.After(static_cast<sim::Nanos>(rng.NextInRange(50, 900)),
            Chain{&d, &remaining,
                  static_cast<sim::Nanos>(rng.NextInRange(50, 900))});
  }
  const auto t0 = Clock::now();
  d.Run();
  const double secs = SecondsSince(t0);
  m.Add("sim.event_domain.chain_ns_per_event",
        secs * 1e9 / static_cast<double>(d.events_processed()));
  const double total =
      static_cast<double>(d.slab_hits() + d.heap_fallbacks());
  m.Add("sim.event_domain.slab_hit_rate",
        total == 0 ? 1.0 : static_cast<double>(d.slab_hits()) / total);
}

// A pre-posted batch spread over 10 ms: overflow insertion + cascades.
void EventBurst(const Probe& p, Record& m) {
  Scope s(p.tr(), "probe.sim.event_domain.burst");
  const std::uint64_t n = p.tiny() ? 5'000 : 200'000;
  const int rounds = p.tiny() ? 1 : 4;
  sim::Simulator d;
  sim::Rng rng(Mix(p.opt.seed, 11));
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    const sim::Nanos base = d.now();
    for (std::uint64_t i = 0; i < n; ++i) {
      d.At(base + static_cast<sim::Nanos>(rng.NextBelow(10'000'000)),
           [&sink] { ++sink; });
    }
    d.Run();
  }
  const double secs = SecondsSince(t0);
  if (sink != n * static_cast<std::uint64_t>(rounds)) {
    throw std::runtime_error("burst probe lost events");
  }
  m.Add("sim.event_domain.burst_ns_per_event",
        secs * 1e9 / static_cast<double>(d.events_processed()));
}

// --- rnic.device ---------------------------------------------------------------

enum class Wire { kCompat, kFabric, kTransport };
enum class Verb { kWrite, kRead, kSend, kCas };

// Two ConnectX-5 devices with one connected QP pair over the given wire.
struct VerbBed {
  explicit VerbBed(Wire w)
      : tr(d, fabric, sim::TransportConfig{}),
        client(d, rnic::NicConfig::ConnectX5(), {}, "c"),
        server(d, rnic::NicConfig::ConnectX5(), {}, "s") {
    if (w != Wire::kCompat) {
      client.AttachPort(0, fabric, {25.0, 125});
      server.AttachPort(0, fabric, {25.0, 125});
    }
    rnic::QpConfig c;
    c.sq_depth = 2048;
    c.rq_depth = 2048;
    c.send_cq = client.CreateCq();
    c.recv_cq = client.CreateCq();
    cqp = client.CreateQp(c);
    rnic::QpConfig sc = c;
    sc.send_cq = server.CreateCq();
    sc.recv_cq = server.CreateCq();
    sqp = server.CreateQp(sc);
    if (w == Wire::kCompat) {
      rnic::Connect(cqp, sqp, 125);
    } else if (w == Wire::kFabric) {
      rnic::ConnectOverFabric(cqp, sqp);
    } else {
      rnic::ConnectOverTransport(cqp, sqp, tr);
    }
    cmr = client.pd().Register(cbuf.get(), kBuf, rnic::kAccessAll);
    smr = server.pd().Register(sbuf.get(), kBuf, rnic::kAccessAll);
  }

  static constexpr std::size_t kBuf = 4096;
  sim::Simulator d;
  sim::Fabric fabric;
  sim::Transport tr;
  rnic::RnicDevice client;
  rnic::RnicDevice server;
  rnic::QueuePair* cqp = nullptr;
  rnic::QueuePair* sqp = nullptr;
  std::unique_ptr<std::byte[]> cbuf = std::make_unique<std::byte[]>(kBuf);
  std::unique_ptr<std::byte[]> sbuf = std::make_unique<std::byte[]>(kBuf);
  rnic::MemoryRegion cmr;
  rnic::MemoryRegion smr;
};

// Drains a CQ, counting non-success completions.
std::uint64_t Drain(rnic::RnicDevice& dev, rnic::CompletionQueue* cq) {
  std::uint64_t errors = 0;
  verbs::Cqe cqes[64];
  for (int n; (n = dev.PollCq(cq, 64, cqes)) > 0;) {
    for (int i = 0; i < n; ++i) {
      if (cqes[i].status != rnic::WcStatus::kSuccess) ++errors;
    }
  }
  return errors;
}

// Wall ns per verb: batches of 1024 64-byte verbs, last one signaled,
// doorbell + Run per batch. The compat WRITE run also reports the
// requester's decoded-WQE cache hit rate.
double VerbNs(const Probe& p, Wire w, Verb v, double* wqe_hit_rate) {
  VerbBed b(w);
  constexpr std::uint64_t kBatch = 1024;
  const std::uint64_t target = p.tiny() ? 2 * kBatch : 96 * kBatch;
  std::uint64_t errors = 0;
  std::uint64_t done = 0;
  const auto t0 = Clock::now();
  while (done < target) {
    if (v == Verb::kSend) {
      for (std::uint64_t i = 0; i < kBatch; ++i) {
        verbs::PostRecv(b.sqp, verbs::RecvWr{.wr_id = i,
                                             .local_addr = b.smr.addr,
                                             .length = 64,
                                             .lkey = b.smr.lkey});
      }
    }
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      const bool sig = i + 1 == kBatch;
      verbs::SendWr wr;
      switch (v) {
        case Verb::kWrite:
          wr = verbs::MakeWrite(b.cmr.addr, 64, b.cmr.lkey, b.smr.addr,
                                b.smr.rkey, sig);
          break;
        case Verb::kRead:
          wr = verbs::MakeRead(b.cmr.addr, 64, b.cmr.lkey, b.smr.addr,
                               b.smr.rkey, sig);
          break;
        case Verb::kSend:
          wr = verbs::MakeSend(b.cmr.addr, 64, b.cmr.lkey, sig);
          break;
        case Verb::kCas:
          wr = verbs::MakeCas(b.smr.addr, b.smr.rkey, done + i, done + i + 1,
                              b.cmr.addr, b.cmr.lkey, sig);
          break;
      }
      verbs::PostSend(b.cqp, wr);
    }
    verbs::RingDoorbell(b.cqp);
    b.d.Run();
    errors += Drain(b.client, b.cqp->send_cq);
    errors += Drain(b.server, b.sqp->recv_cq);
    done += kBatch;
  }
  const double secs = SecondsSince(t0);
  if (errors != 0) throw std::runtime_error("verb probe saw error CQEs");
  if (wqe_hit_rate != nullptr) {
    *wqe_hit_rate = b.client.counters().WqeCacheHitRate();
  }
  return secs * 1e9 / static_cast<double>(done);
}

// WAIT/ENABLE: a control QP that WAITs on a managed chain QP's CQ and
// ENABLEs its next WQE — the self-modifying-chain primitive. Wall ns per
// WAIT+ENABLE step.
double WaitEnableNs(const Probe& p) {
  sim::Simulator d;
  rnic::RnicDevice dev(d, rnic::NicConfig::ConnectX5(), {}, "c");
  auto loopback = [&](bool managed) {
    rnic::QpConfig c;
    c.sq_depth = 2048;
    c.managed = managed;
    c.send_cq = dev.CreateCq();
    c.recv_cq = dev.CreateCq();
    rnic::QueuePair* qp = dev.CreateQp(c);
    rnic::ConnectSelf(qp);
    return qp;
  };
  rnic::QueuePair* chain = loopback(true);
  rnic::QueuePair* ctrl = loopback(false);
  constexpr std::uint64_t kBatch = 512;
  const std::uint64_t target = p.tiny() ? kBatch : 16 * kBatch;
  std::uint64_t done = 0;
  const auto t0 = Clock::now();
  while (done < target) {
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      verbs::PostSend(chain, verbs::MakeNoop());
    }
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      const std::uint64_t step = done + i;
      if (step > 0) verbs::PostSend(ctrl, verbs::MakeWait(chain->send_cq, step));
      verbs::PostSend(ctrl, verbs::MakeEnable(chain, step + 1));
    }
    verbs::RingDoorbell(ctrl);
    d.Run();
    done += kBatch;
    if (chain->send_cq->hw_count() != done) {
      throw std::runtime_error("wait/enable probe stalled");
    }
    Drain(dev, chain->send_cq);
    Drain(dev, ctrl->send_cq);
  }
  return SecondsSince(t0) * 1e9 / static_cast<double>(done);
}

void Verbs(const Probe& p, Record& m) {
  const struct {
    Wire w;
    const char* name;
  } wires[] = {{Wire::kCompat, "compat"},
               {Wire::kFabric, "fabric"},
               {Wire::kTransport, "transport"}};
  const struct {
    Verb v;
    const char* name;
  } ops[] = {{Verb::kWrite, "write"},
             {Verb::kRead, "read"},
             {Verb::kSend, "send"},
             {Verb::kCas, "cas"}};
  double wqe_hit_rate = 0;
  for (const auto& o : ops) {
    for (const auto& w : wires) {
      const std::string name =
          std::string("rnic.device.verb_ns.") + o.name + "." + w.name;
      Scope s(p.tr(), "probe.rnic.device.verb");
      const bool cache_probe = o.v == Verb::kWrite && w.w == Wire::kCompat;
      m.Add(name, VerbNs(p, w.w, o.v, cache_probe ? &wqe_hit_rate : nullptr));
    }
  }
  {
    Scope s(p.tr(), "probe.rnic.device.wait_enable");
    m.Add("rnic.device.verb_ns.wait_enable.compat", WaitEnableNs(p));
  }
  m.Add("rnic.device.wqe_cache_hit_rate", wqe_hit_rate);
}

// --- offloads.hash_harness + kv.table -------------------------------------------

void HashHarness(const Probe& p, Record& m) {
  const int keys = p.tiny() ? 1'000 : 20'000;
  const int requests = p.tiny() ? 500 : 20'000;
  constexpr std::uint32_t kLen = 1024;
  sim::Simulator d;
  rnic::RnicDevice cdev(d, rnic::NicConfig::ConnectX5(), {}, "client");
  rnic::RnicDevice sdev(d, rnic::NicConfig::ConnectX5(), {}, "server");
  const std::size_t heap_bytes =
      p.tiny() ? std::size_t{16} << 20 : std::size_t{256} << 20;
  // The harness sizes its chain and control rings for max_requests at
  // construction, so per-request memory is what construction plus Arm add
  // to the resident set beyond the (zero-filled) value heap.
  const std::uint64_t rss0 = ProcStatusKiB("VmRSS");
  std::unique_ptr<redn::offloads::HashGetHarness> h;
  {
    Scope s(p.tr(), "probe.kv.table.store_alloc");
    const auto t0 = Clock::now();
    h = std::make_unique<redn::offloads::HashGetHarness>(
        cdev, sdev,
        redn::offloads::HashGetOffload::Config{.buckets = 2,
                                               .max_requests = requests + 8},
        redn::kv::RdmaHashTable::Config{}, heap_bytes);
    m.Add("kv.table.store_alloc_s", SecondsSince(t0));
  }
  const std::vector<std::uint64_t> key_set =
      OffloadKeys(h->table(), Mix(p.opt.seed, 12), keys, nullptr);
  {
    Scope s(p.tr(), "probe.kv.table.populate");
    const auto t0 = Clock::now();
    for (std::uint64_t k : key_set) h->PutPattern(k, kLen);
    m.Add("kv.table.populate_ns_per_key",
          SecondsSince(t0) * 1e9 / static_cast<double>(keys));
  }
  {
    Scope s(p.tr(), "probe.offloads.hash_harness.arm");
    const auto t0 = Clock::now();
    h->Arm(requests + 4);
    const double secs = SecondsSince(t0);
    const double grown = (static_cast<double>(ProcStatusKiB("VmRSS")) -
                          static_cast<double>(rss0)) * 1024.0 -
                         static_cast<double>(heap_bytes);
    m.Add("offloads.hash_harness.arm_ns_per_request",
          secs * 1e9 / static_cast<double>(requests + 4));
    m.Add("offloads.hash_harness.arm_bytes_per_request",
          grown / static_cast<double>(requests + 4));
  }
  {
    Scope s(p.tr(), "probe.offloads.hash_harness.get");
    // Only keys in one of their two candidate buckets are offload-servable.
    std::vector<std::uint64_t> visible;
    for (std::uint64_t k : key_set) {
      if (h->table().NicVisible(k)) visible.push_back(k);
    }
    sim::Rng rng(Mix(p.opt.seed, 13));
    std::uint64_t misses = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < requests; ++i) {
      const std::uint64_t k =
          visible[static_cast<std::size_t>(rng.NextBelow(visible.size()))];
      if (!h->Get(k, sim::Millis(2)).found) ++misses;
    }
    const double secs = SecondsSince(t0);
    if (misses != 0) throw std::runtime_error("hash harness probe missed");
    m.Add("offloads.hash_harness.get_ns",
          secs * 1e9 / static_cast<double>(requests));
  }
}

// --- kv.resync ----------------------------------------------------------------

void Resync(const Probe& p, Record& m) {
  Scope s(p.tr(), "probe.kv.resync");
  const int n = p.tiny() ? 500 : 50'000;
  constexpr std::uint32_t kLen = 256;
  VerbBed b(Wire::kTransport);
  const std::size_t bytes = static_cast<std::size_t>(n) * kLen;
  auto local = std::make_unique<std::byte[]>(bytes);
  auto donor = std::make_unique<std::byte[]>(bytes);
  const auto lmr = b.client.pd().Register(local.get(), bytes, rnic::kAccessAll);
  const auto dmr = b.server.pd().Register(donor.get(), bytes, rnic::kAccessAll);
  std::vector<redn::kv::ResyncSession::Item> items;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t key = 100 + static_cast<std::uint64_t>(i);
    const std::uint64_t off = static_cast<std::uint64_t>(i) * kLen;
    redn::kv::WriteVersionedValue(dmr.addr + off, kLen, key, 5);
    redn::kv::WriteVersionedValue(lmr.addr + off, kLen, key, i % 4 == 0 ? 7 : 0);
    items.push_back({key, dmr.addr + off, lmr.addr + off, kLen});
  }
  redn::kv::ResyncSession::Config cfg;
  cfg.qp = b.cqp;
  cfg.remote_rkey = dmr.rkey;
  cfg.window = 32;
  redn::kv::ResyncSession session(b.d, cfg, std::move(items), nullptr);
  const auto t0 = Clock::now();
  session.Start();
  b.d.Run();
  const double secs = SecondsSince(t0);
  const auto& st = session.stats();
  if (!session.done() || st.failed ||
      st.keys_scanned != static_cast<std::uint64_t>(n)) {
    throw std::runtime_error("resync probe did not complete");
  }
  m.Add("kv.resync.ns_per_key", secs * 1e9 / static_cast<double>(n));
}

// --- sim.transport ----------------------------------------------------------------

void TransportPackets(const Probe& p, Record& m) {
  const int messages = p.tiny() ? 20 : 4'000;
  for (const bool sr : {false, true}) {
    for (const double loss : {0.0, 0.01}) {
      Scope s(p.tr(), "probe.sim.transport");
      sim::Simulator d;
      sim::Fabric f;
      const int a = f.Attach({25.0, 125});
      const int b = f.Attach({25.0, 125});
      sim::TransportConfig cfg;
      cfg.mode = sr ? sim::TransportMode::kSelectiveRepeat
                    : sim::TransportMode::kGoBackN;
      cfg.loss = loss;
      cfg.timeout_exp = 6;
      cfg.seed = Mix(p.opt.seed, 14);
      sim::Transport t(d, f, cfg);
      const int flow = t.OpenFlow(a, b);
      std::uint64_t delivered = 0;
      const auto t0 = Clock::now();
      for (int i = 0; i < messages; ++i) {
        t.SendMessage(flow, 0, 65536, [&delivered](sim::Nanos) { ++delivered; });
      }
      d.Run();
      const double secs = SecondsSince(t0);
      if (delivered != static_cast<std::uint64_t>(messages)) {
        throw std::runtime_error("transport probe lost messages");
      }
      const auto c = t.counters();
      const double packets = static_cast<double>(c.data_packets + c.retransmits);
      m.Add(std::string("sim.transport.packet_ns.") + (sr ? "sr" : "gbn") +
                (loss > 0 ? ".loss1" : ".loss0"),
            secs * 1e9 / packets);
      if (sr && loss > 0) {
        m.Add("sim.transport.retransmit_ratio",
              static_cast<double>(c.retransmits) /
                  static_cast<double>(c.data_packets));
        m.Add("sim.transport.rto_per_kpkt",
              1000.0 * static_cast<double>(c.rto_fires) /
                  static_cast<double>(c.data_packets));
      }
    }
  }
}

// --- sim.sharded ----------------------------------------------------------------

// The lossy workload at probe size on 1 and 2 event domains. Run time is
// wall minus the same config at one get per client (its setup), the median
// of three such pairs. A first, untimed small call warms the allocator, so
// every timed call reuses pages the same way.
void Sharded(const Probe& p, Record& m) {
  const int gets = p.tiny() ? 20 : 1000;
  double run_s[2] = {0, 0};
  redn::workload::FabricScaleResult sharded;
  for (int shards = 1; shards <= 2; ++shards) {
    Scope s(p.tr(), "probe.sim.sharded");
    redn::workload::RunFabricScale(LossyConfig(p.opt.seed, shards, 1));
    std::vector<double> runs;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      redn::workload::RunFabricScale(LossyConfig(p.opt.seed, shards, 1));
      const double setup_s = SecondsSince(t0);
      const auto t1 = Clock::now();
      const auto r = redn::workload::RunFabricScale(
          LossyConfig(p.opt.seed, shards, gets));
      runs.push_back(SecondsSince(t1) - setup_s);
      if (r.gets != 4ULL * static_cast<std::uint64_t>(gets)) {
        throw std::runtime_error("sharded probe lost responses");
      }
      if (shards == 2) sharded = r;
    }
    std::sort(runs.begin(), runs.end());
    run_s[shards - 1] = runs[1];
  }
  m.Add("sim.sharded.round_ns",
        run_s[1] * 1e9 / static_cast<double>(sharded.sync_rounds));
  m.Add("sim.sharded.rounds_per_mailbox_send",
        static_cast<double>(sharded.sync_rounds) /
            static_cast<double>(sharded.mailbox_sends));
  m.Add("sim.sharded.speedup_vs_1domain", run_s[0] / run_s[1]);
}

// --- workload.kv_service -----------------------------------------------------------

void KvService(const Probe& p, Record& m) {
  Scope s(p.tr(), "probe.workload.kv_service");
  const int ops = p.tiny() ? 50 : 300;
  const auto r = redn::workload::RunKvService(
      KvConfig(p.opt.seed, p.tiny() ? 5'000 : 100'000, ops, /*rejoin=*/false));
  const double done = static_cast<double>(r.gets + r.puts);
  m.Add("workload.kv_service.events_per_op",
        static_cast<double>(r.events) / done);
  m.Add("workload.kv_service.packets_per_op",
        static_cast<double>(r.data_packets) / done);
}

}  // namespace

int RunLayerProbes(const Options& opt) {
  const Probe p{opt};
  Record m;
  {
    Scope s(*opt.tracer, "layers");
    EventChain(p, m);
    EventBurst(p, m);
    Verbs(p, m);
    HashHarness(p, m);
    Resync(p, m);
    TransportPackets(p, m);
    Sharded(p, m);
    KvService(p, m);
  }
  Record rec;
  rec.AddString("kind", "layers")
      .Add("seed", opt.seed)
      .AddRaw("machine", MachineInfo().Json())
      .AddRaw("metrics", m.Json());
  std::printf("%s\n", rec.Json().c_str());
  return 0;
}

}  // namespace perfbench
