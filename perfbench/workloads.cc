// The benchmark workloads. Every workload is a closed loop of depth 1 per
// client, seeded from the command line, and is timed in two phases from
// outside the program, in one fresh process per rep:
//
//   setup  host time to the first op issued: topology, tables, value
//          heaps, chain arming. Cold: the first build in the process, as a
//          user's first run pays it.
//   run    host time of the ops themselves.
//   wall   setup + run.
//
// offload-get calls HashGetHarness directly, so the two phases are timed
// around separate calls. RunFabricScale and RunKvService build and run in
// one call; for those (TimeBundled), setup is a cold call of the same
// config at its smallest demand (one op per client), and run is a warm
// full-demand call minus a warm smallest-demand call. Both terms of the
// difference are warm on purpose: a later call reuses the pages an earlier
// one freed, so a cold setup subtracted from a warm call under-counts the
// run, and first-touch page faults are the noisiest part of setup.
//
// Each rep prints its simulated fields and their digest; run.py fails the
// run when two reps of one seed disagree on the digest, or when a KV
// invariant, a response check or an in-process rerun check fails.
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "configs.h"
#include "offloads/hash_harness.h"
#include "rnic/device.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "workload/experiments.h"
#include "workload/kv_service.h"

namespace perfbench {

// RunFabricScale on the packetized transport: 4 clients x 64 KiB values
// through one 25 Gb/s server port, 1% loss, selective repeat.
redn::workload::FabricScaleConfig LossyConfig(std::uint64_t seed, int shards,
                                              int gets_per_client) {
  redn::workload::FabricScaleConfig cfg;
  cfg.clients = 4;
  cfg.gets_per_client = gets_per_client;
  cfg.value_len = 65536;
  cfg.server_gbps = 25.0;
  cfg.packetized = true;
  cfg.loss = 0.01;
  cfg.selective_repeat = true;
  cfg.timeout_exp = 6;
  cfg.seed = Mix(seed, 3);
  cfg.transport_seed = Mix(seed, 4);
  cfg.shards = shards;
  return cfg;
}

// RunKvService: 4 KV shards x 4 tenants, Zipf 0.99, 256 B values, 30% puts,
// plus bench_scale_recovery's fault plan: crash shard 1 at 60us and a slow
// window on shard 2 at 1.5-2ms. With `rejoin` the crashed shard re-joins at
// 1ms and re-syncs by anti-entropy (kv-rejoin); without, it stays down and
// its keys are served by their chain successors (kv-failover).
redn::workload::KvServiceConfig KvConfig(std::uint64_t seed, int keys,
                                         int ops_per_tenant, bool rejoin) {
  redn::workload::KvServiceConfig cfg;
  cfg.shards = 4;
  cfg.tenants = 4;
  cfg.gets_per_tenant = ops_per_tenant;
  cfg.keys = keys;
  cfg.value_len = 256;
  cfg.zipf_theta = 0.99;
  cfg.put_fraction = 0.3;
  cfg.seed = Mix(seed, 5);
  cfg.transport_seed = Mix(seed, 6);
  const redn::sim::Nanos rejoin_at = redn::sim::Millis(1);
  redn::workload::FaultEntry crash;
  crash.server = 1;
  crash.kind = redn::workload::FaultKind::kCrash;
  crash.down_at = 60'000;
  crash.up_at = rejoin ? rejoin_at : 0;
  cfg.faults.entries.push_back(crash);
  redn::workload::FaultEntry slow;
  slow.server = 2;
  slow.kind = redn::workload::FaultKind::kSlow;
  slow.down_at = rejoin_at + 500'000;
  slow.up_at = rejoin_at + 1'000'000;
  slow.slow_ns = 30'000;
  cfg.faults.entries.push_back(slow);
  return cfg;
}

std::vector<std::uint64_t> OffloadKeys(const redn::kv::RdmaHashTable& table,
                                       std::uint64_t base, int n,
                                       std::uint64_t* skipped) {
  std::vector<std::uint64_t> keys;
  for (std::uint64_t i = 0; keys.size() < static_cast<std::size_t>(n); ++i) {
    const std::uint64_t k =
        ((base + 0x9e3779b97f4bULL * i) & ((1ULL << 40) - 1)) | 1;
    if (table.BucketAddr1(k) == table.BucketAddr2(k)) {
      if (skipped != nullptr) ++*skipped;
    } else {
      keys.push_back(k);
    }
  }
  return keys;
}

namespace {

// What one rep measured. `sim` holds every simulated field (the digest
// covers exactly these); host fields are wall-clock and vary run to run.
struct RepResult {
  double setup_s = 0;
  double run_s = 0;
  std::uint64_t run_ops = 0;
  std::uint64_t run_events = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;             // unanswered, errored or mismatched
  std::vector<std::string> breaches;    // invariant violations (must be empty)
  Record sim;
};

// --- offload-get ------------------------------------------------------------
// RedN offloaded hash gets (2-bucket probe, Fig 14) on the constant-latency
// compat wire: 1 client + 1 server, 1 KiB values, uniform keys.
//
// Known defect: a key whose two candidate buckets coincide (H1 == H2, about
// one key in 65536) is answered twice by the 2-bucket offload, and the
// extra response is read by the next get as its value. The workload leaves
// such keys out of the store; `same_bucket_key` (offload-get-same-bucket)
// stores one and asks for it first, and fails the correctness gate until
// the offload is fixed. See NOTES.md.
RepResult OffloadGet(const Options& opt, bool same_bucket_key) {
  const bool tiny = opt.size == Size::kTiny;
  const int keys = tiny ? 2'000 : 20'000;
  const int gets = tiny ? 500 : 20'000;
  constexpr std::uint32_t kValueLen = 1024;
  const std::size_t heap_bytes = tiny ? std::size_t{16} << 20
                                      : std::size_t{256} << 20;
  Tracer& tr = *opt.tracer;
  RepResult out;

  const auto t0 = Clock::now();
  redn::sim::Simulator sim;
  std::unique_ptr<redn::rnic::RnicDevice> cdev, sdev;
  std::unique_ptr<redn::offloads::HashGetHarness> h;
  std::vector<std::uint64_t> key_set;
  std::uint64_t same_bucket_skipped = 0;
  {
    Scope s(tr, "setup");
    {
      Scope s2(tr, "setup.devices+harness");
      cdev = std::make_unique<redn::rnic::RnicDevice>(
          sim, redn::rnic::NicConfig::ConnectX5(), redn::rnic::Calibration{},
          "client");
      sdev = std::make_unique<redn::rnic::RnicDevice>(
          sim, redn::rnic::NicConfig::ConnectX5(), redn::rnic::Calibration{},
          "server");
      h = std::make_unique<redn::offloads::HashGetHarness>(
          *cdev, *sdev,
          redn::offloads::HashGetOffload::Config{.buckets = 2,
                                                 .max_requests = gets + 8},
          redn::kv::RdmaHashTable::Config{}, heap_bytes);
    }
    {
      Scope s2(tr, "setup.populate");
      // Which keys collide into their H2 bucket depends on the seed.
      const std::uint64_t key_base = Mix(opt.seed, 1);
      if (same_bucket_key) {
        const redn::kv::RdmaHashTable& table = h->table();
        std::uint64_t k = (key_base & ((1ULL << 40) - 1)) | 1;
        while (table.BucketAddr1(k) != table.BucketAddr2(k)) k += 2;
        key_set.push_back(k);
      }
      const std::vector<std::uint64_t> rest = OffloadKeys(
          h->table(), key_base, keys - static_cast<int>(key_set.size()),
          &same_bucket_skipped);
      key_set.insert(key_set.end(), rest.begin(), rest.end());
      for (std::uint64_t key : key_set) h->PutPattern(key, kValueLen);
    }
    {
      Scope s2(tr, "setup.arm");
      h->Arm(gets + 4);
    }
  }
  out.setup_s = SecondsSince(t0);
  const std::uint64_t setup_events = sim.events_processed();
  // The 2-bucket offload reads only a key's two candidate buckets; keys the
  // table had to place in the H1 neighbourhood are host-visible only, so
  // gets draw from the NIC-visible keys (kv::RdmaHashTable::NicVisible).
  std::vector<std::uint64_t> visible;
  for (std::uint64_t key : key_set) {
    if (h->table().NicVisible(key)) visible.push_back(key);
  }

  redn::sim::Rng rng(Mix(opt.seed, 2));
  redn::sim::LatencyRecorder rec;
  std::uint64_t found = 0;
  std::uint64_t matched = 0;
  const auto t1 = Clock::now();
  {
    Scope s(tr, "run");
    for (int i = 0; i < gets; ++i) {
      const std::uint64_t key =
          same_bucket_key && i == 0
              ? key_set[0]
              : visible[static_cast<std::size_t>(rng.NextBelow(visible.size()))];
      Scope op(tr, "op.get", i);
      const auto r = h->Get(key, redn::sim::Millis(2));
      if (!r.found) continue;
      ++found;
      rec.Add(r.latency);
      if (r.len == kValueLen && h->ResponseMatchesPattern(key, kValueLen)) {
        ++matched;
      }
    }
  }
  out.run_s = SecondsSince(t1);
  out.run_ops = matched;
  out.run_events = sim.events_processed() - setup_events;
  out.attempted = static_cast<std::uint64_t>(gets);
  out.failed = out.attempted - matched;

  out.sim.Add("keys_stored", static_cast<std::uint64_t>(keys))
      .Add("keys_same_bucket_skipped", same_bucket_skipped)
      .Add("keys_nic_visible", static_cast<std::uint64_t>(visible.size()))
      .Add("gets", out.attempted)
      .Add("found", found)
      .Add("matched", matched)
      .Add("setup_events", setup_events)
      .Add("run_events", out.run_events)
      .Add("sim_end_ns", static_cast<std::int64_t>(sim.now()))
      .Add("sim_get_mean_us", rec.empty() ? 0.0 : rec.MeanUs());
  if (!rec.empty()) {
    out.sim.Add("sim_get_p50_us", rec.PercentileUs(50.0))
        .Add("sim_get_p99_us", rec.PercentileUs(99.0));
    // p999 only where at least ten samples lie beyond it.
    if (rec.count() >= 10'000) {
      out.sim.Add("sim_get_p999_us", rec.PercentileUs(99.9));
    }
  }
  return out;
}

// --- bundled workloads -------------------------------------------------------

// Times `call(demand)` as described at the top of the file. `render` prints
// a result's simulated fields: the cold and warm smallest-demand calls run
// one config twice in one process, so they must render identically.
template <class Call, class Render>
auto TimeBundled(const Options& opt, int demand, Call call, Render render,
                 RepResult* out) {
  Tracer& tr = *opt.tracer;
  auto timed = [&](const char* span, int d, double* secs) {
    Scope s(tr, span);
    const auto t0 = Clock::now();
    auto r = call(d);
    *secs = SecondsSince(t0);
    return r;
  };
  double warm_setup_s = 0;
  double full_s = 0;
  const auto cold = timed("setup", 1, &out->setup_s);
  const auto warm = timed("setup.warm", 1, &warm_setup_s);
  const auto full = timed("setup.warm+run", demand, &full_s);
  out->run_s = full_s - warm_setup_s;
  if (render(cold) != render(warm)) {
    out->breaches.push_back("in_process_rerun_diverged");
  }
  return std::make_pair(warm, full);
}

// --- lossy-transport / lossy-sharded ----------------------------------------
void AddFabricFields(Record& r, const std::string& p,
                     const redn::workload::FabricScaleResult& f) {
  r.Add(p + "gets", f.gets)
      .Add(p + "duration_us", f.duration_us)
      .Add(p + "avg_us", f.avg_us)
      .Add(p + "p50_us", f.p50_us)
      .Add(p + "p99_us", f.p99_us)
      .Add(p + "p999_us", f.p999_us)
      .Add(p + "server_tx_util", f.server_tx_util)
      .Add(p + "events", f.events)
      .Add(p + "data_packets", f.data_packets)
      .Add(p + "retransmits", f.retransmits)
      .Add(p + "timeouts", f.timeouts)
      .Add(p + "packets_lost", f.packets_lost)
      .Add(p + "acks", f.acks)
      .Add(p + "goodput_gbps", f.goodput_gbps)
      .Add(p + "rto_fires", f.rto_fires)
      .Add(p + "spurious_retransmits", f.spurious_retransmits)
      .Add(p + "sack_retransmits", f.sack_retransmits)
      .Add(p + "error_cqes", f.error_cqes)
      .Add(p + "qp_errors", f.qp_errors)
      .Add(p + "mailbox_sends", f.mailbox_sends)
      .Add(p + "sync_rounds", f.sync_rounds);
}

RepResult Lossy(const Options& opt, int shards) {
  const int gets_per_client = opt.size == Size::kTiny ? 20 : 2500;
  RepResult out;
  const auto [small, r] = TimeBundled(
      opt, gets_per_client,
      [&](int g) {
        return redn::workload::RunFabricScale(LossyConfig(opt.seed, shards, g));
      },
      [](const redn::workload::FabricScaleResult& f) {
        Record rec;
        AddFabricFields(rec, "", f);
        return rec.Json();
      },
      &out);
  out.attempted = 4ULL * static_cast<std::uint64_t>(gets_per_client);
  out.failed =
      (out.attempted > r.gets ? out.attempted - r.gets : 0) + r.error_cqes;
  out.run_ops = r.gets - small.gets;
  out.run_events = r.events - small.events;

  AddFabricFields(out.sim, "setup.", small);
  AddFabricFields(out.sim, "", r);
  out.sim.Add("sim_get_p50_us", r.p50_us)
      .Add("sim_get_p99_us", r.p99_us)
      .Add("sim_goodput_gbps", r.goodput_gbps);
  if (r.gets >= 10'000) out.sim.Add("sim_get_p999_us", r.p999_us);
  return out;
}

// --- kv-failover / kv-rejoin ------------------------------------------------
void AddKvFields(Record& r, const std::string& p,
                 const redn::workload::KvServiceResult& k) {
  r.Add(p + "gets", k.gets)
      .Add(p + "puts", k.puts)
      .Add(p + "unanswered", k.unanswered)
      .Add(p + "detour_responses", k.detour_responses)
      .Add(p + "probes_sent", k.probes_sent)
      .Add(p + "reroutes", k.reroutes)
      .Add(p + "heal_reissues", k.heal_reissues)
      .Add(p + "stale_responses", k.stale_responses)
      .Add(p + "faults_applied", k.faults_applied)
      .Add(p + "heals_applied", k.heals_applied)
      .Add(p + "keys_visible", k.keys_visible)
      .Add(p + "acked_puts_full", k.acked_puts_full)
      .Add(p + "degraded_acks", k.degraded_acks)
      .Add(p + "chain_forwards", k.chain_forwards)
      .Add(p + "put_retries", k.put_retries)
      .Add(p + "lost_acked_writes", k.lost_acked_writes)
      .Add(p + "ryw_violations", k.ryw_violations)
      .Add(p + "value_divergence", k.value_divergence)
      .Add(p + "put_p50_us", k.put_p50_us)
      .Add(p + "put_p99_us", k.put_p99_us)
      .Add(p + "put_p999_us", k.put_p999_us)
      .Add(p + "rejoins", k.rejoins)
      .Add(p + "resyncs_started", k.resyncs_started)
      .Add(p + "resync_keys_scanned", k.resync_keys_scanned)
      .Add(p + "resync_keys_applied", k.resync_keys_applied)
      .Add(p + "resync_keys_kept", k.resync_keys_kept)
      .Add(p + "resync_bytes", k.resync_bytes)
      .Add(p + "resync_failures", k.resync_failures)
      .Add(p + "degraded_window_us", k.degraded_window_us)
      .Add(p + "duration_us", k.duration_us)
      .Add(p + "avg_us", k.avg_us)
      .Add(p + "p50_us", k.p50_us)
      .Add(p + "p99_us", k.p99_us)
      .Add(p + "p999_us", k.p999_us)
      .Add(p + "max_blip_us", k.max_blip_us)
      .Add(p + "data_packets", k.data_packets)
      .Add(p + "retransmits", k.retransmits)
      .Add(p + "rto_fires", k.rto_fires)
      .Add(p + "rnr_naks", k.rnr_naks)
      .Add(p + "sack_retransmits", k.sack_retransmits)
      .Add(p + "error_cqes", k.error_cqes)
      .Add(p + "qp_errors", k.qp_errors)
      .Add(p + "qp_rearms", k.qp_rearms)
      .Add(p + "events", k.events);
}

void CheckKvInvariants(const redn::workload::KvServiceResult& k,
                       std::vector<std::string>* out) {
  if (k.lost_acked_writes != 0) out->push_back("lost_acked_writes");
  if (k.ryw_violations != 0) out->push_back("ryw_violations");
  if (k.value_divergence != 0) out->push_back("value_divergence");
  if (k.resync_failures != 0) out->push_back("resync_failures");
}

RepResult Kv(const Options& opt, bool rejoin) {
  const bool tiny = opt.size == Size::kTiny;
  const int ops = tiny ? 50 : 2500;
  RepResult out;
  const auto [small, r] = TimeBundled(
      opt, ops,
      [&](int n) {
        return redn::workload::RunKvService(
            KvConfig(opt.seed, tiny ? 5'000 : 100'000, n, rejoin));
      },
      [](const redn::workload::KvServiceResult& k) {
        Record rec;
        AddKvFields(rec, "", k);
        return rec.Json();
      },
      &out);
  out.attempted = 4ULL * static_cast<std::uint64_t>(ops);
  const std::uint64_t done = r.gets + r.puts;
  out.failed =
      (out.attempted > done ? out.attempted - done : 0) + r.unanswered;
  out.run_ops = done - (small.gets + small.puts);
  out.run_events = r.events - small.events;
  CheckKvInvariants(small, &out.breaches);
  CheckKvInvariants(r, &out.breaches);
  if (r.faults_applied == 0 ||
      (rejoin && (r.rejoins != 1 || r.resyncs_started == 0))) {
    // The workload exists for its fault plan: a run in which the faults
    // never fired did not measure what it claims to.
    out.breaches.push_back("fault_plan_not_run");
  }

  AddKvFields(out.sim, "setup.", small);
  AddKvFields(out.sim, "", r);
  out.sim.Add("sim_get_p50_us", r.p50_us)
      .Add("sim_get_p99_us", r.p99_us)
      .Add("sim_put_p99_us", r.put_p99_us)
      .Add("sim_degraded_window_us", r.degraded_window_us);
  if (r.gets >= 10'000) out.sim.Add("sim_get_p999_us", r.p999_us);
  return out;
}

}  // namespace

int RunWorkloadRep(const Options& opt) {
  RepResult r;
  if (opt.workload == "offload-get") {
    r = OffloadGet(opt, /*same_bucket_key=*/false);
  } else if (opt.workload == "offload-get-same-bucket") {
    r = OffloadGet(opt, /*same_bucket_key=*/true);
  } else if (opt.workload == "lossy-transport") {
    r = Lossy(opt, 1);
  } else if (opt.workload == "lossy-sharded") {
    r = Lossy(opt, 2);
  } else if (opt.workload == "kv-failover") {
    r = Kv(opt, /*rejoin=*/false);
  } else if (opt.workload == "kv-rejoin") {
    r = Kv(opt, /*rejoin=*/true);
  } else {
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  }
  // The smoke test's forced mismatch: one extra simulated field, so this
  // rep's digest differs from every honest rep's.
  if (opt.corrupt_digest) r.sim.Add("corrupted", std::uint64_t{1});

  std::string breaches = "[";
  for (std::size_t i = 0; i < r.breaches.size(); ++i) {
    breaches += (i > 0 ? ",\"" : "\"") + r.breaches[i] + "\"";
  }
  breaches += "]";
  Record host;
  host.Add("setup_s", r.setup_s)
      .Add("run_s", r.run_s)
      .Add("wall_s", r.setup_s + r.run_s)
      .Add("run_ops", r.run_ops)
      .Add("run_events", r.run_events)
      .Add("peak_rss_mb",
           static_cast<double>(ProcStatusKiB("VmHWM")) / 1024.0);
  Record rec;
  rec.AddString("kind", "rep")
      .AddString("workload", opt.workload)
      .Add("seed", opt.seed)
      .AddRaw("machine", MachineInfo().Json())
      .AddRaw("host", host.Json())
      .Add("attempted", r.attempted)
      .Add("failed", r.failed)
      .AddRaw("breaches", breaches)
      .AddString("digest", r.sim.Digest())
      .AddRaw("sim", r.sim.Json());
  std::printf("%s\n", rec.Json().c_str());
  return 0;
}

}  // namespace perfbench
