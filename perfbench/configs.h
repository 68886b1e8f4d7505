// Workload configurations and the offloaded-get key set, shared by the
// end-to-end reps (workloads.cc) and the layer probes (layers.cc).
#pragma once

#include <cstdint>
#include <vector>

#include "kv/table.h"
#include "workload/experiments.h"
#include "workload/kv_service.h"

namespace perfbench {

// lossy-transport (shards = 1) and lossy-sharded (shards = 2).
redn::workload::FabricScaleConfig LossyConfig(std::uint64_t seed, int shards,
                                              int gets_per_client);
// kv-failover (rejoin = false) and kv-rejoin (rejoin = true); `keys` is
// 100k in the measured workloads.
redn::workload::KvServiceConfig KvConfig(std::uint64_t seed, int keys,
                                         int ops_per_tenant, bool rejoin);

// `n` distinct non-zero 40-bit keys for an offloaded-get store, drawn from
// `base`. Keys whose two candidate buckets in `table` coincide are skipped
// and counted in `*skipped` (if not null): the 2-bucket offload answers
// such a key twice (a known defect, NOTES.md).
std::vector<std::uint64_t> OffloadKeys(const redn::kv::RdmaHashTable& table,
                                       std::uint64_t base, int n,
                                       std::uint64_t* skipped);

}  // namespace perfbench
