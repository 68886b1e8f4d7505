#include "workload/kv_service.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "kv/resync.h"
#include "kv/ring.h"
#include "kv/table.h"
#include "rnic/memory.h"
#include "offloads/failover_chain.h"
#include "offloads/hash_harness.h"
#include "rnic/device.h"
#include "sim/rng.h"
#include "sim/sharded.h"
#include "sim/simulator.h"
#include "sim/transport.h"
#include "verbs/verbs.h"

namespace redn::workload {
namespace {

// Shard s's server-side resources are owned by this pid (kCrash kills it).
constexpr int kShardPidBase = 100;
// Detour fires a chain can serve per (tenant, shard) over the run.
constexpr int kDetourArms = 16;

std::size_t Pow2AtLeast(std::size_t n) {
  std::size_t p = 1024;
  while (p < n) p <<= 1;
  return p;
}

// Values carry a version tag iff the run has a write path or a crash that
// re-joins (re-sync reconciles by tag). Pure-get configs keep the classic
// untagged layout so their packet traces stay bit-identical.
bool Versioned(const KvServiceConfig& cfg) {
  if (cfg.put_fraction > 0.0) return true;
  for (const FaultEntry& e : cfg.faults.entries) {
    if (e.kind == FaultKind::kCrash && e.up_at > 0) return true;
  }
  return false;
}

// Shard lifecycle during fault windows.
enum class ShardState : std::uint8_t { kServing, kDead, kResyncing };

void Validate(const KvServiceConfig& cfg) {
  if (cfg.shards < 2) {
    throw std::invalid_argument(
        "KvServiceConfig: chain replication needs shards >= 2");
  }
  if (cfg.tenants < 1 || cfg.gets_per_tenant < 1 || cfg.keys < 1) {
    throw std::invalid_argument(
        "KvServiceConfig: tenants, gets_per_tenant, keys must be positive");
  }
  ValidateFaultPlan(cfg.faults);
  for (const FaultEntry& e : cfg.faults.entries) {
    if (e.server < 0 || e.server >= cfg.shards) {
      throw std::invalid_argument(
          "FaultPlan: entry names an out-of-range shard");
    }
    if (e.client >= cfg.tenants) {
      throw std::invalid_argument(
          "FaultPlan: entry names an out-of-range tenant");
    }
  }
  if (cfg.put_fraction < 0.0 || cfg.put_fraction > 1.0) {
    throw std::invalid_argument(
        "KvServiceConfig: put_fraction must be in [0, 1]");
  }
  if (cfg.resync_window < 1) {
    throw std::invalid_argument("KvServiceConfig: resync_window must be >= 1");
  }
  if (cfg.put_apply_cost < 0) {
    throw std::invalid_argument(
        "KvServiceConfig: put_apply_cost must be >= 0");
  }
  if (Versioned(cfg) && cfg.value_len < 2 * kv::kValueVersionBytes) {
    throw std::invalid_argument(
        "KvServiceConfig: the versioned value layout (put_fraction > 0 or a "
        "crash window that re-joins) needs value_len >= 16 — 8 bytes of "
        "version tag plus a non-empty payload");
  }
  if (cfg.sim_shards < 1) {
    throw std::invalid_argument("KvServiceConfig: sim_shards must be >= 1");
  }
  if (cfg.service_shard < 0 || cfg.service_shard >= cfg.sim_shards) {
    throw std::invalid_argument(
        "KvServiceConfig: service_shard out of sim_shards range");
  }
  if (!cfg.placement.empty() &&
      cfg.placement.size() != static_cast<std::size_t>(cfg.tenants)) {
    throw std::invalid_argument(
        "KvServiceConfig: placement must be empty or name a shard per tenant");
  }
  for (const int p : cfg.placement) {
    if (p < 0 || p >= cfg.sim_shards) {
      throw std::invalid_argument(
          "KvServiceConfig: placement names an out-of-range sim shard");
    }
  }
}

}  // namespace

KvServiceResult RunKvService(const KvServiceConfig& cfg) {
  Validate(cfg);

  // The KV shards live on service_shard; each tenant's NIC lives on
  // placement[t] (empty = co-resident with the service). Every transport
  // flow runs as per-endpoint halves that talk via SendTo (docs/NET.md
  // "Split flows"), and every cross-domain step of the driver (probe RQ
  // top-ups, heals, recovery reopen) runs as SendTo legs at the fabric
  // one-way latency — a plain `At` when tenant and service share a domain.
  sim::ShardedSimulator ssim(cfg.sim_shards);
  sim::Simulator& sim = ssim.shard(cfg.service_shard);
  sim::Fabric fabric(cfg.switch_latency);
  sim::TransportConfig tc;
  tc.mtu = cfg.mtu;
  tc.loss = cfg.loss;
  tc.corrupt = cfg.corrupt;
  tc.seed = cfg.transport_seed;
  tc.mode = cfg.selective_repeat ? sim::TransportMode::kSelectiveRepeat
                                 : sim::TransportMode::kGoBackN;
  tc.retry_count = cfg.retry_count;
  tc.rnr_retry_count = cfg.rnr_retry_count;
  tc.timeout_exp = cfg.timeout_exp;
  tc.min_rnr_timer = cfg.min_rnr_timer;
  sim::Transport transport(sim, fabric, tc);

  const kv::ConsistentHashRing ring(cfg.shards, cfg.ring_vnodes, cfg.seed);

  std::vector<std::unique_ptr<rnic::RnicDevice>> sdev;
  for (int s = 0; s < cfg.shards; ++s) {
    sdev.push_back(std::make_unique<rnic::RnicDevice>(
        sim, rnic::NicConfig::ConnectX5(), rnic::Calibration{},
        "shard" + std::to_string(s)));
    sdev.back()->AttachPort(0, fabric, {cfg.gbps, cfg.propagation});
  }
  // Tenant t's host logic and NIC run on place[t]'s domain; tsim(t) is the
  // clock and scheduler every tenant-side callback must use.
  std::vector<int> place(static_cast<std::size_t>(cfg.tenants),
                         cfg.service_shard);
  for (std::size_t t = 0; t < cfg.placement.size(); ++t) {
    place[t] = cfg.placement[t];
  }
  auto tsim = [&](int t) -> sim::Simulator& {
    return ssim.shard(place[static_cast<std::size_t>(t)]);
  };
  std::vector<std::unique_ptr<rnic::RnicDevice>> tdev;
  for (int t = 0; t < cfg.tenants; ++t) {
    tdev.push_back(std::make_unique<rnic::RnicDevice>(
        tsim(t), rnic::NicConfig::ConnectX5(), rnic::Calibration{},
        "tenant" + std::to_string(t)));
    tdev.back()->AttachPort(0, fabric, {cfg.gbps, cfg.propagation});
  }

  // --- key placement + shard stores ----------------------------------------
  // Every key lives on its ring primary AND the primary's chain successor.
  std::vector<std::vector<std::uint64_t>> shard_keys(
      static_cast<std::size_t>(cfg.shards));
  for (int k = 1; k <= cfg.keys; ++k) {
    const std::uint64_t key = static_cast<std::uint64_t>(k);
    const int p = ring.PrimaryOf(key);
    shard_keys[static_cast<std::size_t>(p)].push_back(key);
    shard_keys[static_cast<std::size_t>(ring.SuccessorOf(p))].push_back(key);
  }
  const bool versioned = Versioned(cfg);
  const std::size_t slot = (static_cast<std::size_t>(cfg.value_len) + 7) & ~std::size_t{7};
  std::vector<std::unique_ptr<kv::RdmaHashTable>> tables;
  std::vector<std::unique_ptr<kv::ValueHeap>> heaps;
  // Per-shard key -> value address (stable for the run: puts and re-sync
  // rewrite values in place, so replication and anti-entropy can target
  // fixed remote addresses).
  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> vaddr(
      static_cast<std::size_t>(cfg.shards));
  for (int s = 0; s < cfg.shards; ++s) {
    const std::size_t cnt = shard_keys[static_cast<std::size_t>(s)].size();
    tables.push_back(std::make_unique<kv::RdmaHashTable>(
        *sdev[static_cast<std::size_t>(s)],
        kv::RdmaHashTable::Config{.buckets = Pow2AtLeast(4 * cnt + 16)}));
    heaps.push_back(std::make_unique<kv::ValueHeap>(
        *sdev[static_cast<std::size_t>(s)], cnt * slot + (64 << 10)));
    for (std::uint64_t key : shard_keys[static_cast<std::size_t>(s)]) {
      std::uint64_t ptr;
      if (versioned) {
        ptr = heaps.back()->Reserve(cfg.value_len);
        kv::WriteVersionedValue(ptr, cfg.value_len, key, /*version=*/0);
        tables.back()->Insert(key, ptr, cfg.value_len);
      } else {
        ptr = kv::PutPattern(*tables.back(), *heaps.back(), key,
                             cfg.value_len);
      }
      vaddr[static_cast<std::size_t>(s)][key] = ptr;
    }
  }

  // Depth-1 closed loops starve on a miss, so tenants draw only keys the
  // 2-bucket NIC probe can see on BOTH replicas.
  std::vector<std::uint64_t> eligible;
  eligible.reserve(static_cast<std::size_t>(cfg.keys));
  for (int k = 1; k <= cfg.keys; ++k) {
    const std::uint64_t key = static_cast<std::uint64_t>(k);
    const int p = ring.PrimaryOf(key);
    const int b = ring.SuccessorOf(p);
    if (tables[static_cast<std::size_t>(p)]->NicVisible(key) &&
        tables[static_cast<std::size_t>(b)]->NicVisible(key)) {
      eligible.push_back(key);
    }
  }
  if (eligible.empty()) {
    throw std::runtime_error("RunKvService: no NIC-visible keys");
  }

  // --- harnesses, detour chains ---------------------------------------------
  const bool offloaded = cfg.policy == FailoverPolicy::kOffloadChain;
  const int arm0 = cfg.gets_per_tenant + 8;
  using HarnessRow = std::vector<std::unique_ptr<offloads::HashGetHarness>>;
  std::vector<HarnessRow> H(static_cast<std::size_t>(cfg.tenants));
  std::vector<HarnessRow> F(static_cast<std::size_t>(cfg.tenants));
  std::vector<std::vector<std::unique_ptr<offloads::ClientFailoverChain>>>
      chains(static_cast<std::size_t>(cfg.tenants));
  for (int t = 0; t < cfg.tenants; ++t) {
    for (int s = 0; s < cfg.shards; ++s) {
      auto h = std::make_unique<offloads::HashGetHarness>(
          *tdev[static_cast<std::size_t>(t)],
          *sdev[static_cast<std::size_t>(s)],
          offloads::HashGetOffload::Config{
              .buckets = 2,
              .max_requests = cfg.gets_per_tenant + 32,
              .fabric = &fabric,
              .transport = &transport},
          *tables[static_cast<std::size_t>(s)],
          *heaps[static_cast<std::size_t>(s)],
          /*max_value=*/cfg.value_len + 64);
      h->SetServerOwner(kShardPidBase + s);
      h->Arm(arm0);
      H[static_cast<std::size_t>(t)].push_back(std::move(h));
    }
    if (offloaded) {
      for (int s = 0; s < cfg.shards; ++s) {
        const int b = ring.SuccessorOf(s);
        auto f = std::make_unique<offloads::HashGetHarness>(
            *tdev[static_cast<std::size_t>(t)],
            *sdev[static_cast<std::size_t>(b)],
            offloads::HashGetOffload::Config{.buckets = 2,
                                             .max_requests = kDetourArms + 4,
                                             .fabric = &fabric,
                                             .transport = &transport,
                                             .managed_client_sq = true},
            *tables[static_cast<std::size_t>(b)],
            *heaps[static_cast<std::size_t>(b)],
            /*max_value=*/cfg.value_len + 64);
        f->SetServerOwner(kShardPidBase + b);
        f->Arm(kDetourArms);
        f->PrepostResponseRecvs(kDetourArms + 4);
        F[static_cast<std::size_t>(t)].push_back(std::move(f));
      }
      for (int s = 0; s < cfg.shards; ++s) {
        auto c = std::make_unique<offloads::ClientFailoverChain>(
            *H[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)],
            *F[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)],
            kDetourArms);
        c->Arm();
        chains[static_cast<std::size_t>(t)].push_back(std::move(c));
      }
    }
  }

  // Keepalive probe QPs (offload policy): one per (tenant, shard), the
  // client end sharing the primary connection's send CQ so a probe failure
  // CQE trips the same WAIT the trigger failures do. Probes are unsignaled
  // zero-byte SENDs — healthy probes keep the CQ silent.
  std::vector<std::vector<rnic::QueuePair*>> probe_cli(
      static_cast<std::size_t>(cfg.tenants));
  std::vector<std::vector<rnic::QueuePair*>> probe_srv(
      static_cast<std::size_t>(cfg.tenants));
  if (offloaded) {
    for (int t = 0; t < cfg.tenants; ++t) {
      for (int s = 0; s < cfg.shards; ++s) {
        rnic::QpConfig sc;
        sc.rq_depth = 512;
        sc.send_cq = sdev[static_cast<std::size_t>(s)]->CreateCq();
        sc.recv_cq = sdev[static_cast<std::size_t>(s)]->CreateCq();
        rnic::QueuePair* ps =
            sdev[static_cast<std::size_t>(s)]->CreateQp(sc);
        ps->owner_pid = kShardPidBase + s;
        rnic::QpConfig cc;
        cc.send_cq = H[static_cast<std::size_t>(t)][static_cast<std::size_t>(
                          s)]->client_qp()->send_cq;
        cc.recv_cq = tdev[static_cast<std::size_t>(t)]->CreateCq();
        rnic::QueuePair* pc =
            tdev[static_cast<std::size_t>(t)]->CreateQp(cc);
        rnic::ConnectOverTransport(pc, ps, transport);
        verbs::RecvWr rwr;
        for (int i = 0; i < 64; ++i) verbs::PostRecv(ps, rwr);
        probe_cli[static_cast<std::size_t>(t)].push_back(pc);
        probe_srv[static_cast<std::size_t>(t)].push_back(ps);
      }
    }
  }

  // --- write path: put links + chain edges -----------------------------------
  // Puts ride dedicated QP pairs (the get path's trigger/response plumbing
  // is an offload program with a fixed request shape): per (tenant, shard)
  // a request pair carries tenant -> shard SENDs of [key u64 | payload] and
  // an ack pair carries shard -> tenant SENDs of [key, version, replica
  // mask]. Chain propagation rides one QP pair per directed ring edge
  // s -> SuccessorOf(s): the primary RDMA-WRITEs the whole versioned value
  // into the successor's heap slot and treats the WRITE's completion as
  // "the peer durably applied" — only then does it ack the tenant.
  const bool writes = cfg.put_fraction > 0.0;
  constexpr int kPutSlots = 4;
  constexpr std::uint32_t kAckBytes = 24;
  constexpr std::uint64_t kFwdRing = 256;
  struct PutLink {
    rnic::QueuePair* req_cli = nullptr;  // tenant-side requester
    rnic::QueuePair* req_srv = nullptr;
    rnic::QueuePair* ack_srv = nullptr;  // shard-side requester
    rnic::QueuePair* ack_cli = nullptr;
    rnic::ZeroedArray<std::byte> req_rx;  // shard: kPutSlots x value_len
    rnic::MemoryRegion req_rx_mr;
    rnic::ZeroedArray<std::byte> ack_tx;  // shard: kPutSlots x kAckBytes
    rnic::MemoryRegion ack_tx_mr;
    rnic::ZeroedArray<std::byte> ack_rx;  // tenant: kPutSlots x kAckBytes
    rnic::MemoryRegion ack_rx_mr;
    std::uint64_t ack_seq = 0;
  };
  struct Fwd {
    int tenant = 0;
    int peer = 0;
    std::uint64_t key = 0;
    std::uint64_t version = 0;
  };
  struct Edge {
    rnic::QueuePair* req = nullptr;  // requester at s
    rnic::QueuePair* rsp = nullptr;  // responder at SuccessorOf(s)
    std::vector<Fwd> ring;           // wr_id -> in-flight forward context
    std::uint64_t next = 0;
  };
  std::vector<std::vector<PutLink>> plinks;
  std::vector<Edge> edges;
  std::vector<rnic::ZeroedArray<std::byte>> ptx;  // per-tenant request buffer
  std::vector<rnic::MemoryRegion> ptx_mr;
  auto post_req_slot = [&](PutLink& L, int slot) {
    verbs::RecvWr r;
    r.wr_id = static_cast<std::uint64_t>(slot);
    r.local_addr = L.req_rx_mr.addr +
                   static_cast<std::uint64_t>(slot) * cfg.value_len;
    r.length = cfg.value_len;
    r.lkey = L.req_rx_mr.lkey;
    verbs::PostRecv(L.req_srv, r);
  };
  auto post_ack_slot = [&](PutLink& L, int slot) {
    verbs::RecvWr r;
    r.wr_id = static_cast<std::uint64_t>(slot);
    r.local_addr = L.ack_rx_mr.addr +
                   static_cast<std::uint64_t>(slot) * kAckBytes;
    r.length = kAckBytes;
    r.lkey = L.ack_rx_mr.lkey;
    verbs::PostRecv(L.ack_cli, r);
  };
  if (writes) {
    plinks.resize(static_cast<std::size_t>(cfg.tenants));
    for (int t = 0; t < cfg.tenants; ++t) {
      auto& td = *tdev[static_cast<std::size_t>(t)];
      ptx.push_back(rnic::MakeZeroed<std::byte>(cfg.value_len));
      ptx_mr.push_back(
          td.pd().Register(ptx.back().get(), cfg.value_len, rnic::kAccessAll));
      plinks[static_cast<std::size_t>(t)].resize(
          static_cast<std::size_t>(cfg.shards));
      for (int s = 0; s < cfg.shards; ++s) {
        auto& sd = *sdev[static_cast<std::size_t>(s)];
        PutLink& L =
            plinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
        rnic::QpConfig rs;
        rs.rq_depth = 64;
        rs.send_cq = sd.CreateCq();
        rs.recv_cq = sd.CreateCq();
        L.req_srv = sd.CreateQp(rs);
        L.req_srv->owner_pid = kShardPidBase + s;
        rnic::QpConfig rc;
        rc.send_cq = td.CreateCq();
        rc.recv_cq = td.CreateCq();
        L.req_cli = td.CreateQp(rc);
        rnic::ConnectOverTransport(L.req_cli, L.req_srv, transport);
        L.req_rx = rnic::MakeZeroed<std::byte>(
            static_cast<std::size_t>(kPutSlots) * cfg.value_len);
        L.req_rx_mr = sd.pd().Register(
            L.req_rx.get(), static_cast<std::size_t>(kPutSlots) * cfg.value_len,
            rnic::kAccessAll);
        rnic::QpConfig as;
        as.send_cq = sd.CreateCq();
        as.recv_cq = sd.CreateCq();
        L.ack_srv = sd.CreateQp(as);
        L.ack_srv->owner_pid = kShardPidBase + s;
        rnic::QpConfig ac;
        ac.rq_depth = 64;
        ac.send_cq = td.CreateCq();
        ac.recv_cq = td.CreateCq();
        L.ack_cli = td.CreateQp(ac);
        rnic::ConnectOverTransport(L.ack_srv, L.ack_cli, transport);
        L.ack_tx = rnic::MakeZeroed<std::byte>(
            static_cast<std::size_t>(kPutSlots) * kAckBytes);
        L.ack_tx_mr = sd.pd().Register(
            L.ack_tx.get(), static_cast<std::size_t>(kPutSlots) * kAckBytes,
            rnic::kAccessAll);
        L.ack_rx = rnic::MakeZeroed<std::byte>(
            static_cast<std::size_t>(kPutSlots) * kAckBytes);
        L.ack_rx_mr = td.pd().Register(
            L.ack_rx.get(), static_cast<std::size_t>(kPutSlots) * kAckBytes,
            rnic::kAccessAll);
        for (int i = 0; i < kPutSlots; ++i) {
          post_req_slot(L, i);
          post_ack_slot(L, i);
        }
      }
    }
    edges.resize(static_cast<std::size_t>(cfg.shards));
    for (int s = 0; s < cfg.shards; ++s) {
      const int b = ring.SuccessorOf(s);
      Edge& E = edges[static_cast<std::size_t>(s)];
      E.ring.resize(kFwdRing);
      rnic::QpConfig es;
      es.send_cq = sdev[static_cast<std::size_t>(s)]->CreateCq();
      es.recv_cq = sdev[static_cast<std::size_t>(s)]->CreateCq();
      E.req = sdev[static_cast<std::size_t>(s)]->CreateQp(es);
      E.req->owner_pid = kShardPidBase + s;
      rnic::QpConfig er;
      er.send_cq = sdev[static_cast<std::size_t>(b)]->CreateCq();
      er.recv_cq = sdev[static_cast<std::size_t>(b)]->CreateCq();
      E.rsp = sdev[static_cast<std::size_t>(b)]->CreateQp(er);
      E.rsp->owner_pid = kShardPidBase + b;
      rnic::ConnectOverTransport(E.req, E.rsp, transport);
    }
  }

  // Shard lifecycle + anti-entropy bookkeeping. `dirty[s]` records that s
  // missed at least one chain write while unreachable — its heal must run
  // a re-sync before tenants may route reads back to it.
  std::vector<ShardState> shard_state(static_cast<std::size_t>(cfg.shards),
                                      ShardState::kServing);
  std::vector<char> dirty(static_cast<std::size_t>(cfg.shards), 0);
  std::vector<std::unique_ptr<kv::ResyncSession>> sessions;
  struct AckedWrite {
    std::uint64_t key;
    std::uint64_t version;
    std::uint64_t mask;  // bit s = shard s confirmed durable at ack time
  };
  std::vector<AckedWrite> ledger;

  // --- Zipf sampling ---------------------------------------------------------
  // p(rank r) ~ 1/(r+1)^theta over the eligible keyspace; per-tenant streams
  // rotate the ranking so tenants have distinct (overlapping) hot sets.
  const std::size_t nkeys = eligible.size();
  std::vector<double> cdf;
  if (cfg.zipf_theta > 0) {
    cdf.resize(nkeys);
    double acc = 0;
    for (std::size_t r = 0; r < nkeys; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), cfg.zipf_theta);
      cdf[r] = acc;
    }
  }
  const std::size_t rot = std::max<std::size_t>(1, nkeys / static_cast<std::size_t>(cfg.tenants));

  // --- tenant state ----------------------------------------------------------
  struct Tenant {
    sim::Rng rng{1};
    int remaining = 0;
    bool started = false;
    bool waiting = false;
    std::uint64_t key = 0;
    int primary = 0;
    int target = 0;
    sim::Nanos t_sent = 0;
    std::uint64_t seq = 0;      // one per op
    std::uint64_t attempt = 0;  // one per send (watchdog staleness guard)
    std::vector<char> dead;     // per-shard "stop routing there" flags
    sim::LatencyRecorder rec;
    sim::Nanos last_mark = 0;
    sim::Nanos max_blip = 0;
    std::uint64_t detours = 0, reroutes = 0, host_reissues = 0;
    // Write path.
    bool is_put = false;
    std::uint64_t puts = 0;
    sim::LatencyRecorder put_rec;
    // Highest fully-acked (both replicas) version per key — the tenant's
    // read-your-writes floor.
    std::unordered_map<std::uint64_t, std::uint64_t> ryw;
    // Shard-local accounting: the tenant's domain owns these, and the
    // run-wide totals are merged after RunUntil (tenant order), so tenants
    // never write run-global counters from a shard thread.
    sim::Nanos first_sent = -1;
    sim::Nanos last_resp = 0;
    std::uint64_t err_cqes = 0, stale = 0, probes = 0;
    std::uint64_t heal_resends = 0, put_retry = 0, ryw_viol = 0, full_acks = 0;
    std::vector<AckedWrite> ledger;
    // Nonzero while a heal is mid-flight between its tenant-shard and
    // service-shard legs: the server-side offload program is being
    // swapped over there, so sends park until the final leg resumes them.
    int healing = 0;
  };
  std::vector<Tenant> tenants(static_cast<std::size_t>(cfg.tenants));
  for (int t = 0; t < cfg.tenants; ++t) {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    T.rng = sim::Rng(cfg.seed * 0x9e3779b97f4a7c15ULL +
                     static_cast<std::uint64_t>(t + 1));
    T.remaining = cfg.gets_per_tenant;
    T.dead.assign(static_cast<std::size_t>(cfg.shards), 0);
  }

  const sim::Nanos base_rto =
      cfg.timeout_exp > 0 ? (sim::Nanos{4096} << cfg.timeout_exp) : tc.rto;
  const sim::Nanos host_timeout =
      cfg.host_timeout > 0 ? cfg.host_timeout : 16 * base_rto;
  // One-way endpoint->endpoint latency: the legal (and exact) hop between a
  // tenant's domain and the service shard.
  const sim::Nanos hop = 2 * cfg.propagation + cfg.switch_latency;

  sim::Nanos first_sent = -1;
  sim::Nanos last_resp = 0;
  std::uint64_t error_cqes = 0, stale_responses = 0, heal_reissues = 0;
  std::uint64_t faults_applied = 0, heals_applied = 0, probes_sent = 0;
  std::uint64_t acked_full = 0, degraded_acks = 0, chain_forwards = 0;
  std::uint64_t put_retries = 0, ryw_violations = 0;
  std::uint64_t rejoins = 0, resyncs_started = 0, resync_failures = 0;
  std::uint64_t resync_scanned = 0, resync_applied = 0, resync_kept = 0;
  std::uint64_t resync_bytes = 0;
  // Per fault-plan-entry degraded window (down_at -> back to serving), us.
  std::vector<double> degraded_win(cfg.faults.entries.size(), 0.0);

  auto draw = [&](int t) -> std::uint64_t {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    std::size_t rank;
    if (cdf.empty()) {
      rank = static_cast<std::size_t>(T.rng.NextBelow(nkeys));
    } else {
      const double u = T.rng.NextDouble() * cdf.back();
      rank = static_cast<std::size_t>(
          std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
      if (rank >= nkeys) rank = nkeys - 1;
    }
    return eligible[(rank + static_cast<std::size_t>(t) * rot) % nkeys];
  };

  std::function<void(int)> send_fn;
  std::function<void(int)> issue_next;
  std::function<void(int, std::uint64_t, std::uint64_t, int)> probe_fn;

  // Keepalive tick: as long as the same send is still pending against
  // primary `p`, ping the probe QP and reschedule. A dead or blackholed
  // shard turns a probe into the failure CQE that fires the detour chain;
  // a completed get cancels the next tick via the seq/attempt guard.
  probe_fn = [&](int t, std::uint64_t seq, std::uint64_t attempt, int p) {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    if (!T.waiting || T.seq != seq || T.attempt != attempt) return;
    rnic::QueuePair* pq =
        probe_cli[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)];
    if (pq->sq.error || pq->state != rnic::QpState::kRts) {
      return;  // a probe already tripped; the chain fired or is firing
    }
    verbs::PostSendNow(pq, verbs::MakeSend(0, 0, 0, /*signaled=*/false));
    ++T.probes;
    sim::Simulator& ts = tsim(t);
    rnic::QueuePair* ps =
        probe_srv[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)];
    // Keep the responder's RQ topped up. It belongs to the service shard,
    // so the top-up rides SendTo at the one-way latency (the probe itself
    // takes at least as long to arrive, so the RQ is replenished in time).
    ts.SendTo(cfg.service_shard, ts.now() + hop, [ps] {
      if (ps->alive && ps->state == rnic::QpState::kRts) {
        verbs::RecvWr rwr;
        verbs::PostRecv(ps, rwr);
      }
    });
    ts.After(cfg.probe_interval,
             [&, t, seq, attempt, p] { probe_fn(t, seq, attempt, p); });
  };

  auto schedule_watchdog = [&](int t) {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    const std::uint64_t seq = T.seq, attempt = T.attempt;
    sim::Simulator& ts = tsim(t);
    ts.At(ts.now() + host_timeout, [&, t, seq, attempt] {
      Tenant& W = tenants[static_cast<std::size_t>(t)];
      if (!W.waiting || W.seq != seq || W.attempt != attempt) return;
      // The send is stuck past the application RPC timer: declare its
      // target dead and re-issue from the CPU (the multi-RTO stall).
      W.dead[static_cast<std::size_t>(W.target)] = 1;
      if (W.is_put) {
        ++W.put_retry;  // puts have no detour chain; the watchdog is their
                        // only failure detector
      } else {
        ++W.host_reissues;
      }
      tsim(t).After(cfg.host_reissue_cost, [&, t, seq] {
        Tenant& W2 = tenants[static_cast<std::size_t>(t)];
        if (!W2.waiting || W2.seq != seq) return;
        send_fn(t);
      });
    });
  };

  send_fn = [&](int t) {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    sim::Simulator& ts = tsim(t);
    if (T.healing > 0) {
      // A heal is rebuilding this tenant's server-side programs on
      // the service shard; park like the no-live-replica case and let the
      // heal's final leg (or this retry) resume.
      ts.After(sim::Millis(1), [&, t] {
        Tenant& W = tenants[static_cast<std::size_t>(t)];
        if (W.waiting || W.remaining <= 0) return;
        send_fn(t);
      });
      T.waiting = false;
      return;
    }
    const int p = ring.PrimaryOf(T.key);
    T.primary = p;
    const int b = ring.SuccessorOf(p);
    const int pref = T.dead[static_cast<std::size_t>(p)] ? b : p;
    const int alt = pref == p ? b : p;
    if (T.is_put) {
      // Chain-ordered write: the put goes to the chain head (the primary;
      // the successor acts as a degraded head only while the primary is
      // unroutable). No detour chain covers puts — the host watchdog is
      // the backstop for a put swallowed by a fault.
      for (const int target : {pref, alt}) {
        if (T.dead[static_cast<std::size_t>(target)]) continue;
        PutLink& L = plinks[static_cast<std::size_t>(t)]
                           [static_cast<std::size_t>(target)];
        if (L.req_cli->sq.error || L.req_cli->state != rnic::QpState::kRts) {
          T.dead[static_cast<std::size_t>(target)] = 1;
          continue;
        }
        rnic::dma::WriteU64(ptx_mr[static_cast<std::size_t>(t)].addr, T.key);
        auto* pay = reinterpret_cast<std::uint8_t*>(
            ptx_mr[static_cast<std::size_t>(t)].addr);
        for (std::uint32_t i = kv::kValueVersionBytes; i < cfg.value_len;
             ++i) {
          pay[i] = static_cast<std::uint8_t>((T.key + i) & 0xff);
        }
        verbs::PostSendNow(
            L.req_cli,
            verbs::MakeSend(ptx_mr[static_cast<std::size_t>(t)].addr,
                            cfg.value_len,
                            ptx_mr[static_cast<std::size_t>(t)].lkey,
                            /*signaled=*/false));
        if (target != p) ++T.reroutes;
        T.target = target;
        T.waiting = true;
        ++T.attempt;
        if (T.first_sent < 0) T.first_sent = ts.now();
        schedule_watchdog(t);
        return;
      }
      ts.After(sim::Millis(1), [&, t] {
        Tenant& W = tenants[static_cast<std::size_t>(t)];
        if (W.waiting || W.remaining <= 0) return;
        send_fn(t);
      });
      T.waiting = false;
      return;
    }
    for (const int target : {pref, alt}) {
      if (T.dead[static_cast<std::size_t>(target)]) continue;
      auto& h =
          H[static_cast<std::size_t>(t)][static_cast<std::size_t>(target)];
      if (target == p && offloaded) {
        // Healthy-path host work: keep the parked detour's trigger bytes
        // pointing at the in-flight key.
        chains[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)]
            ->SetKey(T.key);
      }
      if (!h->SendTriggerBlind(T.key)) {
        // The local QP is wrecked (errored earlier and not yet healed) —
        // that much the host can see without peering into the server.
        T.dead[static_cast<std::size_t>(target)] = 1;
        continue;
      }
      if (target != p) ++T.reroutes;
      T.target = target;
      T.waiting = true;
      ++T.attempt;
      if (T.first_sent < 0) T.first_sent = ts.now();
      // The detour chain covers gets aimed at a live primary; everything
      // else (baseline policy, or a get already running on the backup)
      // falls back to the host watchdog so no get can be lost.
      if (cfg.policy == FailoverPolicy::kHostReissue || target != p) {
        schedule_watchdog(t);
      } else if (cfg.probe_interval > 0) {
        const std::uint64_t seq = T.seq, attempt = T.attempt;
        ts.After(cfg.probe_interval,
                 [&, t, seq, attempt, p] { probe_fn(t, seq, attempt, p); });
      }
      return;
    }
    // No live replica right now — retry once a heal had a chance to land.
    ts.After(sim::Millis(1), [&, t] {
      Tenant& W = tenants[static_cast<std::size_t>(t)];
      if (W.waiting || W.remaining <= 0) return;
      send_fn(t);
    });
    // Not waiting: the get is parked host-side, not in flight.
    T.waiting = false;
  };

  issue_next = [&](int t) {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    if (T.remaining <= 0) return;
    sim::Simulator& ts = tsim(t);
    if (!T.started) {
      T.started = true;
      T.last_mark = ts.now();
    }
    T.key = draw(t);
    // The mix draw happens only on write-enabled runs so pure-get configs
    // consume exactly the RNG stream they always did (bit-compat).
    T.is_put = writes && T.rng.NextDouble() < cfg.put_fraction;
    T.t_sent = ts.now();
    send_fn(t);
  };

  auto complete = [&](int t, bool via_detour) {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    sim::Simulator& ts = tsim(t);
    T.waiting = false;
    if (T.is_put) {
      T.put_rec.Add(ts.now() - T.t_sent);
      ++T.puts;
    } else {
      T.rec.Add(ts.now() - T.t_sent);
    }
    T.max_blip = std::max(T.max_blip, ts.now() - T.last_mark);
    T.last_mark = ts.now();
    T.last_resp = std::max(T.last_resp, ts.now());
    if (via_detour) {
      T.dead[static_cast<std::size_t>(T.primary)] = 1;
      ++T.detours;
    }
    ++T.seq;
    --T.remaining;
    if (T.remaining > 0) issue_next(t);
  };

  for (int t = 0; t < cfg.tenants; ++t) {
    for (int s = 0; s < cfg.shards; ++s) {
      offloads::HashGetHarness* h =
          H[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)].get();
      h->client_recv_cq()->SetHostNotify([&, t, s, h] {
        rnic::Cqe cqe;
        while (tdev[static_cast<std::size_t>(t)]->PollCq(h->client_recv_cq(),
                                                         1, &cqe) == 1) {
          Tenant& T = tenants[static_cast<std::size_t>(t)];
          if (cqe.status != rnic::WcStatus::kSuccess) {
            ++T.err_cqes;  // flushed RECVs from an errored QP
            continue;
          }
          h->NoteOpenLoopResponse(cqe.qp_id);
          if (!T.waiting || T.target != s) {
            ++T.stale;
            continue;
          }
          if (versioned && !T.is_put) {
            const auto it = T.ryw.find(T.key);
            if (it != T.ryw.end() && h->ResponseVersion() < it->second) {
              ++T.ryw_viol;  // older than this tenant's own acked write
            }
          }
          complete(t, /*via_detour=*/false);
        }
      });
      if (offloaded) {
        offloads::HashGetHarness* f =
            F[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)].get();
        f->client_recv_cq()->SetHostNotify([&, t, s, f] {
          rnic::Cqe cqe;
          while (tdev[static_cast<std::size_t>(t)]->PollCq(f->client_recv_cq(),
                                                           1, &cqe) == 1) {
            Tenant& T = tenants[static_cast<std::size_t>(t)];
            if (cqe.status != rnic::WcStatus::kSuccess) {
              ++T.err_cqes;
              continue;
            }
            f->NoteOpenLoopResponse(cqe.qp_id);
            // The detour watching primary `s` answered the get that was in
            // flight toward it.
            if (!T.waiting || T.target != s) {
              ++T.stale;
              continue;
            }
            if (versioned && !T.is_put) {
              const auto it = T.ryw.find(T.key);
              if (it != T.ryw.end() && f->ResponseVersion() < it->second) {
                ++T.ryw_viol;
              }
            }
            complete(t, /*via_detour=*/true);
          }
        });
      }
    }
    tsim(t).At(static_cast<sim::Nanos>(t) * 311 + 17,
               [&, t] { issue_next(t); });
  }

  // --- write path: apply, propagate, ack -------------------------------------
  auto send_put_ack = [&](int t, int s, std::uint64_t key,
                          std::uint64_t version, std::uint64_t mask) {
    PutLink& L =
        plinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
    if (!L.ack_srv->alive || L.ack_srv->sq.error ||
        L.ack_srv->state != rnic::QpState::kRts) {
      return;  // the tenant's watchdog re-issues; the apply is durable
    }
    const int slot = static_cast<int>(L.ack_seq++ %
                                      static_cast<std::uint64_t>(kPutSlots));
    const std::uint64_t a =
        L.ack_tx_mr.addr + static_cast<std::uint64_t>(slot) * kAckBytes;
    rnic::dma::WriteU64(a, key);
    rnic::dma::WriteU64(a + 8, version);
    rnic::dma::WriteU64(a + 16, mask);
    verbs::PostSendNow(L.ack_srv, verbs::MakeSend(a, kAckBytes,
                                                  L.ack_tx_mr.lkey,
                                                  /*signaled=*/false));
  };

  // Applies one put at shard `s` and drives the chain: the primary
  // propagates to its successor and acks only on the WRITE's completion;
  // a degraded head (successor serving while the primary is down, or a
  // primary whose successor is unreachable) acks alone and marks the
  // absent peer dirty so its heal runs anti-entropy.
  auto apply_put = [&](int t, int s, std::uint64_t key) {
    auto& amap = vaddr[static_cast<std::size_t>(s)];
    const auto it = amap.find(key);
    if (it == amap.end()) return;  // not a replica of this key
    const std::uint64_t addr = it->second;
    const std::uint64_t version = kv::ValueVersion(addr) + 1;
    kv::WriteVersionedValue(addr, cfg.value_len, key, version);
    const int p = ring.PrimaryOf(key);
    if (s != p) {
      // Degraded head: the tenant routed here because the primary was
      // unroutable — the primary is missing this write.
      dirty[static_cast<std::size_t>(p)] = 1;
      ++degraded_acks;
      send_put_ack(t, s, key, version, 1ULL << s);
      return;
    }
    const int b = ring.SuccessorOf(p);
    Edge& E = edges[static_cast<std::size_t>(s)];
    const bool peer_up = shard_state[static_cast<std::size_t>(b)] !=
                             ShardState::kDead &&
                         E.req->alive && !E.req->sq.error &&
                         E.req->state == rnic::QpState::kRts;
    if (!peer_up) {
      dirty[static_cast<std::size_t>(b)] = 1;
      ++degraded_acks;
      send_put_ack(t, s, key, version, 1ULL << s);
      return;
    }
    // Ring indices wrap at kFwdRing; depth-1 tenants bound in-flight
    // forwards to cfg.tenants, far below the ring size.
    const std::uint64_t idx = E.next++;
    E.ring[idx % kFwdRing] = Fwd{t, b, key, version};
    verbs::SendWr wr = verbs::MakeWrite(
        addr, cfg.value_len, heaps[static_cast<std::size_t>(s)]->lkey(),
        vaddr[static_cast<std::size_t>(b)][key],
        heaps[static_cast<std::size_t>(b)]->rkey(), /*signaled=*/true);
    wr.wr_id = idx % kFwdRing;
    verbs::PostSendNow(E.req, wr);
    ++chain_forwards;
  };

  if (writes) {
    for (int t = 0; t < cfg.tenants; ++t) {
      for (int s = 0; s < cfg.shards; ++s) {
        PutLink& L =
            plinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
        // Shard side: request arrival -> host apply after put_apply_cost.
        L.req_srv->recv_cq->SetHostNotify([&, t, s] {
          PutLink& LL = plinks[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(s)];
          rnic::Cqe cqe;
          while (sdev[static_cast<std::size_t>(s)]->PollCq(
                     LL.req_srv->recv_cq, 1, &cqe) == 1) {
            if (cqe.status != rnic::WcStatus::kSuccess) {
              ++error_cqes;
              continue;
            }
            const int slot = static_cast<int>(cqe.wr_id);
            const std::uint64_t key = rnic::dma::ReadU64(
                LL.req_rx_mr.addr +
                static_cast<std::uint64_t>(slot) * cfg.value_len);
            // The apply regenerates bytes from (key, version), so the slot
            // can be reposted immediately.
            post_req_slot(LL, slot);
            sim.After(cfg.put_apply_cost,
                      [&, t, s, key] { apply_put(t, s, key); });
          }
        });
        // Tenant side: ack arrival -> ledger + RYW floor + completion.
        L.ack_cli->recv_cq->SetHostNotify([&, t, s] {
          PutLink& LL = plinks[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(s)];
          rnic::Cqe cqe;
          while (tdev[static_cast<std::size_t>(t)]->PollCq(
                     LL.ack_cli->recv_cq, 1, &cqe) == 1) {
            Tenant& T = tenants[static_cast<std::size_t>(t)];
            if (cqe.status != rnic::WcStatus::kSuccess) {
              ++T.err_cqes;
              continue;
            }
            const int slot = static_cast<int>(cqe.wr_id);
            const std::uint64_t a =
                LL.ack_rx_mr.addr + static_cast<std::uint64_t>(slot) * kAckBytes;
            const std::uint64_t key = rnic::dma::ReadU64(a);
            const std::uint64_t version = rnic::dma::ReadU64(a + 8);
            const std::uint64_t mask = rnic::dma::ReadU64(a + 16);
            post_ack_slot(LL, slot);
            // Even a stale ack (the watchdog already re-issued) attests a
            // durable apply: it belongs in the ledger and lifts the RYW
            // floor. Only the op completion is staleness-guarded.
            T.ledger.push_back(AckedWrite{key, version, mask});
            if (__builtin_popcountll(mask) >= 2) {
              std::uint64_t& floor = T.ryw[key];
              floor = std::max(floor, version);
              ++T.full_acks;
            }
            if (!T.waiting || !T.is_put || T.key != key || T.target != s) {
              ++T.stale;
              continue;
            }
            complete(t, /*via_detour=*/false);
          }
        });
      }
    }
    for (int s = 0; s < cfg.shards; ++s) {
      // Forward completion at the primary: the successor durably holds the
      // bytes -> full-chain ack. An error CQE means the propagation died
      // (peer crashed / link black) -> degraded ack + dirty peer.
      edges[static_cast<std::size_t>(s)].req->send_cq->SetHostNotify([&, s] {
        Edge& E = edges[static_cast<std::size_t>(s)];
        rnic::Cqe cqe;
        while (sdev[static_cast<std::size_t>(s)]->PollCq(E.req->send_cq, 1,
                                                         &cqe) == 1) {
          const Fwd f = E.ring[cqe.wr_id % kFwdRing];
          if (cqe.status == rnic::WcStatus::kSuccess) {
            send_put_ack(f.tenant, s, f.key, f.version,
                         (1ULL << s) | (1ULL << f.peer));
          } else {
            ++error_cqes;
            dirty[static_cast<std::size_t>(f.peer)] = 1;
            ++degraded_acks;
            send_put_ack(f.tenant, s, f.key, f.version, 1ULL << s);
          }
        }
      });
    }
  }

  // --- the fault plan --------------------------------------------------------
  auto tenant_in_scope = [&](const FaultEntry& e, int t) {
    return e.client < 0 || e.client == t;
  };
  auto cycle_qp = [](rnic::QueuePair* q) {
    q->device->ModifyQp(q, rnic::QpState::kReset);
    q->device->ModifyQp(q, rnic::QpState::kInit);
    q->device->ModifyQp(q, rnic::QpState::kRtr);
    q->device->ModifyQp(q, rnic::QpState::kRts);
  };
  auto qp_unhealthy = [](rnic::QueuePair* q) {
    return q->state == rnic::QpState::kError || q->sq.error || !q->alive;
  };
  auto note_window = [&](std::size_t ei, sim::Nanos down_at) {
    degraded_win[ei] = sim::ToMicros(sim.now() - down_at);
  };

  // Gray failure: flaky links drop seeded loss bursts. Burst and gap
  // lengths draw uniform [0.5x, 1.5x] of their configured means from a
  // per-entry RNG, so flaky windows are deterministic per (seed, entry).
  std::vector<char> flaky_on(cfg.faults.entries.size(), 0);
  std::vector<sim::Rng> flaky_rng;
  for (std::size_t i = 0; i < cfg.faults.entries.size(); ++i) {
    flaky_rng.push_back(sim::Rng(cfg.seed ^ (0xf1a57ULL * (i + 1)) ^
                                 0x9e3779b97f4a7c15ULL));
  }
  std::function<void(std::size_t, int)> flaky_burst = [&](std::size_t ei,
                                                          int s) {
    if (!flaky_on[ei]) return;
    const FaultEntry& e = cfg.faults.entries[ei];
    const int ep = sdev[static_cast<std::size_t>(s)]->fabric_endpoint(0);
    transport.SetLinkFaults(ep, e.flaky_loss, cfg.corrupt);
    const sim::Nanos burst = static_cast<sim::Nanos>(
        (0.5 + flaky_rng[ei].NextDouble()) *
        static_cast<double>(e.flaky_burst));
    sim.After(burst, [&, ei, s, ep] {
      if (flaky_on[ei]) transport.SetLinkFaults(ep, cfg.loss, cfg.corrupt);
      const sim::Nanos gap = static_cast<sim::Nanos>(
          (0.5 + flaky_rng[ei].NextDouble()) *
          static_cast<double>(cfg.faults.entries[ei].flaky_gap));
      sim.After(gap, [&, ei, s] { flaky_burst(ei, s); });
    });
  };

  // Heals the write-path plumbing touching shard `s`: put links of every
  // tenant, plus the chain edges into and out of s.
  auto heal_put_links = [&](int s) {
    if (!writes) return;
    for (int t = 0; t < cfg.tenants; ++t) {
      PutLink& L =
          plinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
      // Only the shard-side ends may be inspected here: the tenant's ends
      // belong to its domain. The tenant-shard leg checks its own ends,
      // cycles them, and hops back so the request slots are re-posted
      // after both ends are fresh (a put racing the middle leg just
      // RNR-retries).
      const bool srv_bad =
          qp_unhealthy(L.req_srv) || qp_unhealthy(L.ack_srv);
      sim.SendTo(place[static_cast<std::size_t>(t)], sim.now() + hop,
                 [&, t, s, srv_bad] {
        PutLink& LL =
            plinks[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
        Tenant& T = tenants[static_cast<std::size_t>(t)];
        if (!srv_bad && !qp_unhealthy(LL.req_cli) &&
            !qp_unhealthy(LL.ack_cli)) {
          return;
        }
        // Drain flushed/error CQEs nothing else polls.
        rnic::Cqe cqe;
        for (rnic::QueuePair* q : {LL.req_cli, LL.ack_cli}) {
          while (tdev[static_cast<std::size_t>(t)]->PollCq(q->send_cq, 1,
                                                           &cqe) == 1) {
            if (cqe.status != rnic::WcStatus::kSuccess) ++T.err_cqes;
          }
        }
        cycle_qp(LL.req_cli);
        cycle_qp(LL.ack_cli);
        for (int i = 0; i < kPutSlots; ++i) post_ack_slot(LL, i);
        sim::Simulator& ts = tsim(t);
        ts.SendTo(cfg.service_shard, ts.now() + hop, [&, t, s] {
          PutLink& LS = plinks[static_cast<std::size_t>(t)]
                              [static_cast<std::size_t>(s)];
          cycle_qp(LS.req_srv);
          cycle_qp(LS.ack_srv);
          for (int i = 0; i < kPutSlots; ++i) post_req_slot(LS, i);
        });
      });
    }
    for (int x = 0; x < cfg.shards; ++x) {
      if (x != s && ring.SuccessorOf(x) != s) continue;
      Edge& E = edges[static_cast<std::size_t>(x)];
      if (!(qp_unhealthy(E.req) || qp_unhealthy(E.rsp))) continue;
      rnic::Cqe cqe;
      while (sdev[static_cast<std::size_t>(x)]->PollCq(E.req->send_cq, 1,
                                                       &cqe) == 1) {
        if (cqe.status != rnic::WcStatus::kSuccess) {
          // A flushed forward: the peer never confirmed. Degraded-ack it
          // so the tenant's put is not stranded, and mark the peer dirty.
          const Fwd f = E.ring[cqe.wr_id % kFwdRing];
          ++error_cqes;
          dirty[static_cast<std::size_t>(f.peer)] = 1;
          ++degraded_acks;
          send_put_ack(f.tenant, x, f.key, f.version, 1ULL << x);
        }
      }
      cycle_qp(E.req);
      cycle_qp(E.rsp);
    }
  };

  // Client-side recovery for shard `s`, per in-scope tenant. `crash`
  // forces a full transport re-arm (the server side was revived in ERROR
  // even if the client QP never noticed); `clear_dead` restores routing to
  // s now, while a re-syncing shard instead CLOSES routing (dead[s] = 1)
  // and defers the reopen to finish_recovery — otherwise a tenant that
  // never saw the outage (e.g. parked on the put watchdog the whole
  // window) could read the wiped store before anti-entropy drains.
  //
  // The heal runs as a tenant-shard leg (client-side QP halves), a
  // service-shard leg (server-side halves + offload program rebuilds), and
  // a final tenant-shard leg that resumes sends only once the fresh server
  // program is armed. Each leg rides SendTo at the fabric one-way latency —
  // a client really would learn of the heal over the wire. T.healing parks
  // sends across the window so no trigger races the program swap.
  auto heal_tenants = [&](const FaultEntry& e, int s, bool crash,
                          bool clear_dead) {
    for (int t = 0; t < cfg.tenants; ++t) {
      if (!tenant_in_scope(e, t)) continue;
      sim.SendTo(place[static_cast<std::size_t>(t)], sim.now() + hop,
                 [&, s, crash, clear_dead, t] {
        Tenant& T = tenants[static_cast<std::size_t>(t)];
        offloads::HashGetHarness* h =
            H[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)].get();
        rnic::QueuePair* qp = h->client_qp();
        const bool errored = qp->state == rnic::QpState::kError;
        const bool routed_off = T.dead[static_cast<std::size_t>(s)] != 0;
        if (!clear_dead) {
          // The shard is rejoining with a wiped store: close routing even
          // for a tenant that never saw the failure first-hand (its op may
          // have been parked on the watchdog the whole window), or a stale
          // read slips out before anti-entropy drains. finish_recovery
          // reopens the flag once the resync completes.
          T.dead[static_cast<std::size_t>(s)] = 1;
        }
        if (!errored && !crash && !routed_off) return;
        ++T.healing;
        // Drain the failure CQEs nothing else polls (the WAIT chain consumed
        // them NIC-side; this is host bookkeeping).
        rnic::Cqe cqe;
        while (tdev[static_cast<std::size_t>(t)]->PollCq(qp->send_cq, 1,
                                                         &cqe) == 1) {
          if (cqe.status != rnic::WcStatus::kSuccess) ++T.err_cqes;
        }
        const bool rearm = errored || crash;
        const int arm_n = T.remaining + 8;
        if (rearm) h->RearmTransportClientHalf();
        if (clear_dead) T.dead[static_cast<std::size_t>(s)] = 0;
        bool pc_err = false;
        std::vector<std::pair<int, char>> detours;  // (column, client errored)
        if (offloaded) {
          auto& chain =
              chains[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
          if (qp->send_cq->hw_count() >= chain->wait_threshold()) {
            chain->Rearm();  // the old WAIT fired; park a fresh detour
          }
          rnic::QueuePair* pc = probe_cli[static_cast<std::size_t>(t)]
                                        [static_cast<std::size_t>(s)];
          pc_err = pc->state == rnic::QpState::kError;
          if (pc_err) cycle_qp(pc);
          if (crash) {
            // Detours whose BACKUP is the re-joined shard parked their get
            // on QPs the crash flushed; re-arm them and park fresh detours.
            for (int x = 0; x < cfg.shards; ++x) {
              if (ring.SuccessorOf(x) != s) continue;
              offloads::HashGetHarness* f =
                  F[static_cast<std::size_t>(t)][static_cast<std::size_t>(x)]
                      .get();
              const bool fc = f->client_qp()->state == rnic::QpState::kError;
              if (fc) f->RearmTransportClientHalf();
              detours.emplace_back(x, fc ? 1 : 0);
            }
          }
        }
        sim::Simulator& ts = tsim(t);
        ts.SendTo(
            cfg.service_shard, ts.now() + hop,
            [&, s, t, rearm, arm_n, pc_err, detours = std::move(detours)] {
          if (rearm) {
            offloads::HashGetHarness* h =
                H[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)]
                    .get();
            h->RearmTransportServerHalf(arm_n);
            h->SetServerOwner(kShardPidBase + s);
          }
          bool cycle_pc = false;
          // Detour columns the final tenant leg must finish: (column,
          // client half still to cycle).
          std::vector<std::pair<int, char>> fresh;
          if (offloaded) {
            rnic::QueuePair* ps = probe_srv[static_cast<std::size_t>(t)]
                                          [static_cast<std::size_t>(s)];
            if (pc_err || ps->state == rnic::QpState::kError) {
              cycle_pc = !pc_err;  // only the server end tripped
              cycle_qp(ps);
              verbs::RecvWr rwr;
              for (int i = 0; i < 64; ++i) verbs::PostRecv(ps, rwr);
            }
            for (const auto& [x, fc] : detours) {
              offloads::HashGetHarness* f =
                  F[static_cast<std::size_t>(t)][static_cast<std::size_t>(x)]
                      .get();
              const bool fs = f->server_qp()->state == rnic::QpState::kError;
              if (!fc && !fs) continue;
              f->RearmTransportServerHalf(kDetourArms);
              f->SetServerOwner(kShardPidBase + s);
              fresh.emplace_back(x, fc ? 0 : 1);
            }
          }
          sim.SendTo(place[static_cast<std::size_t>(t)], sim.now() + hop,
                     [&, s, t, cycle_pc, fresh = std::move(fresh)] {
            if (cycle_pc) {
              cycle_qp(probe_cli[static_cast<std::size_t>(t)]
                               [static_cast<std::size_t>(s)]);
            }
            for (const auto& [x, nc] : fresh) {
              offloads::HashGetHarness* f =
                  F[static_cast<std::size_t>(t)][static_cast<std::size_t>(x)]
                      .get();
              if (nc) f->RearmTransportClientHalf();
              f->PrepostResponseRecvs(kDetourArms + 4);
              chains[static_cast<std::size_t>(t)][static_cast<std::size_t>(x)]
                  ->Rearm();
            }
            Tenant& T = tenants[static_cast<std::size_t>(t)];
            --T.healing;
            if (T.waiting && T.target == s) {
              // The pending op died in the reset's flush — re-send it (its
              // latency keeps accruing from the original t_sent; send_fn
              // respects the dead flags, so a re-syncing s is avoided).
              ++T.heal_resends;
              send_fn(t);
            } else if (!T.waiting && T.remaining > 0 && T.started) {
              // The tenant parked because both replicas looked dead.
              send_fn(t);
            }
          });
        });
      });
    }
  };

  // Recovery completes only when anti-entropy has drained: the shard
  // returns to kServing, routing re-opens, and the degraded window closes.
  auto finish_recovery = [&](int s, std::size_t ei, sim::Nanos down_at) {
    shard_state[static_cast<std::size_t>(s)] = ShardState::kServing;
    dirty[static_cast<std::size_t>(s)] = 0;
    note_window(ei, down_at);
    for (int t = 0; t < cfg.tenants; ++t) {
      // The routing flag and resume belong to the tenant's domain.
      sim.SendTo(place[static_cast<std::size_t>(t)], sim.now() + hop,
                 [&, t, s] {
        Tenant& T = tenants[static_cast<std::size_t>(t)];
        T.dead[static_cast<std::size_t>(s)] = 0;
        if (!T.waiting && T.remaining > 0 && T.started) send_fn(t);
      });
    }
  };

  // Streams shard s's key range back from its chain peers: for each key
  // the donor is the other replica (the primary if s backs it up, the
  // successor if s owns it). One session per donor over a dedicated QP.
  auto start_resync = [&](int s, std::size_t ei, sim::Nanos down_at) {
    std::vector<std::vector<kv::ResyncSession::Item>> by_donor(
        static_cast<std::size_t>(cfg.shards));
    for (std::uint64_t key : shard_keys[static_cast<std::size_t>(s)]) {
      const int p = ring.PrimaryOf(key);
      const int donor = p == s ? ring.SuccessorOf(p) : p;
      if (donor == s ||
          shard_state[static_cast<std::size_t>(donor)] !=
              ShardState::kServing) {
        continue;  // no live donor; the key keeps its local (wiped) value
      }
      by_donor[static_cast<std::size_t>(donor)].push_back(
          kv::ResyncSession::Item{
              key, vaddr[static_cast<std::size_t>(donor)][key],
              vaddr[static_cast<std::size_t>(s)][key], cfg.value_len});
    }
    auto outstanding = std::make_shared<int>(0);
    for (const auto& items : by_donor) {
      if (!items.empty()) ++*outstanding;
    }
    if (*outstanding == 0) {
      finish_recovery(s, ei, down_at);
      return;
    }
    for (int d = 0; d < cfg.shards; ++d) {
      auto& items = by_donor[static_cast<std::size_t>(d)];
      if (items.empty()) continue;
      rnic::QpConfig qc;
      qc.send_cq = sdev[static_cast<std::size_t>(s)]->CreateCq();
      qc.recv_cq = sdev[static_cast<std::size_t>(s)]->CreateCq();
      rnic::QueuePair* rq = sdev[static_cast<std::size_t>(s)]->CreateQp(qc);
      rq->owner_pid = kShardPidBase + s;
      rnic::QpConfig dc;
      dc.send_cq = sdev[static_cast<std::size_t>(d)]->CreateCq();
      dc.recv_cq = sdev[static_cast<std::size_t>(d)]->CreateCq();
      rnic::QueuePair* dq = sdev[static_cast<std::size_t>(d)]->CreateQp(dc);
      dq->owner_pid = kShardPidBase + d;
      rnic::ConnectOverTransport(rq, dq, transport);
      ++resyncs_started;
      kv::ResyncSession::Config rc;
      rc.qp = rq;
      rc.remote_rkey = heaps[static_cast<std::size_t>(d)]->rkey();
      rc.window = cfg.resync_window;
      sessions.push_back(std::make_unique<kv::ResyncSession>(
          sim, rc, std::move(items),
          [&, s, ei, down_at, outstanding](
              const kv::ResyncSession::Stats& st) {
            resync_scanned += st.keys_scanned;
            resync_applied += st.keys_applied;
            resync_kept += st.keys_kept_local;
            resync_bytes += st.bytes_read;
            if (st.failed) ++resync_failures;
            if (--*outstanding == 0) finish_recovery(s, ei, down_at);
          }));
      sessions.back()->Start();
    }
  };

  for (std::size_t ei = 0; ei < cfg.faults.entries.size(); ++ei) {
    const FaultEntry& e = cfg.faults.entries[ei];
    const int s = e.server;
    sim.At(e.down_at, [&, e, s, ei] {
      ++faults_applied;
      switch (e.kind) {
        case FaultKind::kBlackhole:
          transport.SetLinkFaults(
              sdev[static_cast<std::size_t>(s)]->fabric_endpoint(0), 1.0, 0.0);
          break;
        case FaultKind::kRnrStall:
          for (int t = 0; t < cfg.tenants; ++t) {
            if (!tenant_in_scope(e, t)) continue;
            sdev[static_cast<std::size_t>(s)]->StallRecvsFor(
                H[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)]
                    ->server_qp(),
                e.rnr_count);
          }
          break;
        case FaultKind::kCrash:
          sdev[static_cast<std::size_t>(s)]->KillProcessResources(
              kShardPidBase + s);
          shard_state[static_cast<std::size_t>(s)] = ShardState::kDead;
          break;
        case FaultKind::kFlaky:
          flaky_on[ei] = 1;
          flaky_burst(ei, s);
          break;
        case FaultKind::kSlow:
          transport.SetLinkDelay(
              sdev[static_cast<std::size_t>(s)]->fabric_endpoint(0),
              e.slow_ns);
          break;
      }
    });
    if (e.up_at > 0) {
      sim.At(e.up_at, [&, e, s, ei] {
        ++heals_applied;
        switch (e.kind) {
          case FaultKind::kBlackhole:
            transport.SetLinkFaults(
                sdev[static_cast<std::size_t>(s)]->fabric_endpoint(0),
                cfg.loss, cfg.corrupt);
            break;
          case FaultKind::kFlaky:
            flaky_on[ei] = 0;
            transport.SetLinkFaults(
                sdev[static_cast<std::size_t>(s)]->fabric_endpoint(0),
                cfg.loss, cfg.corrupt);
            break;
          case FaultKind::kSlow:
            // Added latency drops nothing: no QP errored, no write was
            // missed — restore the link and close the window.
            transport.SetLinkDelay(
                sdev[static_cast<std::size_t>(s)]->fabric_endpoint(0), 0);
            note_window(ei, e.down_at);
            return;
          case FaultKind::kRnrStall:
            break;
          case FaultKind::kCrash: {
            // Crash + re-join: revive the process's resources, restart
            // from an empty (seed-version) store — the crash lost its
            // memory, so surviving higher-version tags would be phantom
            // state — then re-arm the plumbing and anti-entropy the key
            // range back before serving.
            ++rejoins;
            sdev[static_cast<std::size_t>(s)]->ReviveProcessResources(
                kShardPidBase + s);
            shard_state[static_cast<std::size_t>(s)] = ShardState::kResyncing;
            for (std::uint64_t key :
                 shard_keys[static_cast<std::size_t>(s)]) {
              kv::WriteVersionedValue(
                  vaddr[static_cast<std::size_t>(s)][key], cfg.value_len,
                  key, /*version=*/0);
            }
            heal_tenants(e, s, /*crash=*/true, /*clear_dead=*/false);
            heal_put_links(s);
            start_resync(s, ei, e.down_at);
            return;
          }
        }
        // Blackhole / rnr-stall / flaky heal. A dirty shard (missed chain
        // writes while unreachable) must anti-entropy before it serves
        // reads again; a clean one re-opens immediately.
        const bool resync = versioned && dirty[static_cast<std::size_t>(s)];
        if (resync) {
          shard_state[static_cast<std::size_t>(s)] = ShardState::kResyncing;
        }
        heal_tenants(e, s, /*crash=*/false, /*clear_dead=*/!resync);
        heal_put_links(s);
        if (resync) {
          start_resync(s, ei, e.down_at);
        } else {
          note_window(ei, e.down_at);
        }
      });
    }
  }

  ssim.RunUntil(cfg.horizon);

  // Merge the shard-local tenant accounting into the run-wide totals
  // (tenant order: deterministic, and order-independent anyway — sums,
  // extrema, and an order-insensitive ledger).
  for (int t = 0; t < cfg.tenants; ++t) {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    if (T.first_sent >= 0 && (first_sent < 0 || T.first_sent < first_sent)) {
      first_sent = T.first_sent;
    }
    last_resp = std::max(last_resp, T.last_resp);
    error_cqes += T.err_cqes;
    stale_responses += T.stale;
    heal_reissues += T.heal_resends;
    probes_sent += T.probes;
    put_retries += T.put_retry;
    ryw_violations += T.ryw_viol;
    acked_full += T.full_acks;
    ledger.insert(ledger.end(), T.ledger.begin(), T.ledger.end());
  }

  // --- results ---------------------------------------------------------------
  KvServiceResult out;
  out.keys_visible = eligible.size();
  out.faults_applied = faults_applied;
  out.heals_applied = heals_applied;
  out.error_cqes = error_cqes;
  out.stale_responses = stale_responses;
  out.heal_reissues = heal_reissues;
  out.probes_sent = probes_sent;
  sim::LatencyRecorder all;
  sim::LatencyRecorder put_all;
  for (int t = 0; t < cfg.tenants; ++t) {
    Tenant& T = tenants[static_cast<std::size_t>(t)];
    KvTenantStats ts;
    ts.gets = T.rec.count();
    ts.puts = T.puts;
    ts.detour_responses = T.detours;
    ts.reroutes = T.reroutes;
    ts.host_reissues = T.host_reissues;
    const sim::LatencySummary sum = T.rec.Summarize();
    ts.avg_us = sum.avg_us;
    ts.p50_us = sum.p50_us;
    ts.p99_us = sum.p99_us;
    ts.p999_us = sum.p999_us;
    ts.max_blip_us = sim::ToMicros(T.max_blip);
    out.tenants.push_back(ts);
    out.gets += ts.gets;
    out.puts += T.puts;
    out.detour_responses += T.detours;
    out.reroutes += T.reroutes;
    out.host_reissues += T.host_reissues;
    out.unanswered += static_cast<std::uint64_t>(T.remaining);
    out.max_blip_us = std::max(out.max_blip_us, ts.max_blip_us);
    for (sim::Nanos sample : T.rec.samples()) all.Add(sample);
    for (sim::Nanos sample : T.put_rec.samples()) put_all.Add(sample);
  }
  const sim::LatencySummary sum = all.Summarize();
  out.avg_us = sum.avg_us;
  out.p50_us = sum.p50_us;
  out.p99_us = sum.p99_us;
  out.p999_us = sum.p999_us;
  const sim::LatencySummary psum = put_all.Summarize();
  out.put_avg_us = psum.avg_us;
  out.put_p50_us = psum.p50_us;
  out.put_p99_us = psum.p99_us;
  out.put_p999_us = psum.p999_us;
  out.acked_puts_full = acked_full;
  out.degraded_acks = degraded_acks;
  out.chain_forwards = chain_forwards;
  out.put_retries = put_retries;
  out.ryw_violations = ryw_violations;
  out.rejoins = rejoins;
  out.resyncs_started = resyncs_started;
  out.resync_keys_scanned = resync_scanned;
  out.resync_keys_applied = resync_applied;
  out.resync_keys_kept = resync_kept;
  out.resync_bytes = resync_bytes;
  out.resync_failures = resync_failures;
  for (double w : degraded_win) {
    out.degraded_window_us = std::max(out.degraded_window_us, w);
  }

  // --- end-of-run audits -----------------------------------------------------
  // Zero-loss invariant: every acked write must still be durable on every
  // replica that confirmed it (skipping replicas not serving at the end —
  // a still-dead shard attests nothing). The `>=` is because later puts
  // legitimately overwrite with higher versions.
  for (const AckedWrite& w : ledger) {
    for (int s = 0; s < cfg.shards; ++s) {
      if (!(w.mask & (1ULL << s))) continue;
      if (shard_state[static_cast<std::size_t>(s)] != ShardState::kServing) {
        continue;
      }
      if (kv::ValueVersion(vaddr[static_cast<std::size_t>(s)][w.key]) <
          w.version) {
        ++out.lost_acked_writes;
      }
    }
  }
  // Divergence: replicas that both serve a key must hold internally
  // consistent values, and equal versions must mean equal bytes.
  if (versioned) {
    for (std::uint64_t key : eligible) {
      const int p = ring.PrimaryOf(key);
      const int b = ring.SuccessorOf(p);
      if (shard_state[static_cast<std::size_t>(p)] != ShardState::kServing ||
          shard_state[static_cast<std::size_t>(b)] != ShardState::kServing) {
        continue;
      }
      const std::uint64_t pa = vaddr[static_cast<std::size_t>(p)][key];
      const std::uint64_t ba = vaddr[static_cast<std::size_t>(b)][key];
      const bool pi = kv::VersionedValueIntact(pa, cfg.value_len, key);
      const bool bi = kv::VersionedValueIntact(ba, cfg.value_len, key);
      if (!pi || !bi) {
        ++out.value_divergence;
        continue;
      }
      if (kv::ValueVersion(pa) == kv::ValueVersion(ba) &&
          std::memcmp(reinterpret_cast<const void*>(pa),
                      reinterpret_cast<const void*>(ba), cfg.value_len) != 0) {
        ++out.value_divergence;
      }
    }
  }
  const sim::Nanos span = last_resp > first_sent ? last_resp - first_sent : 1;
  out.duration_us = sim::ToMicros(span);
  out.gets_per_sec = static_cast<double>(out.gets) / sim::ToSeconds(span);
  const sim::TransportCounters tcs = transport.counters();
  out.data_packets = tcs.data_packets;
  out.retransmits = tcs.retransmits;
  out.rto_fires = tcs.rto_fires;
  out.rnr_naks = tcs.rnr_naks;
  out.sack_retransmits = tcs.sack_retransmits;
  for (const auto& d : sdev) {
    out.qp_errors += d->counters().qp_errors;
    out.qp_rearms += d->counters().qp_rearms;
  }
  for (const auto& d : tdev) {
    out.qp_errors += d->counters().qp_errors;
    out.qp_rearms += d->counters().qp_rearms;
  }
  out.events = ssim.events_processed();
  out.sim_shards = cfg.sim_shards;
  return out;
}

}  // namespace redn::workload
