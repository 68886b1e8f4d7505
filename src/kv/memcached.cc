#include "kv/memcached.h"

#include <vector>

namespace redn::kv {

MemcachedServer::MemcachedServer(rnic::RnicDevice& dev, Config cfg)
    : dev_(dev),
      cfg_(cfg),
      table_(dev, {.buckets = cfg.buckets}),
      heap_(dev, cfg.heap_bytes),
      rpc_(dev, table_, heap_, cfg.rpc_mode, cfg.rpc_cal) {}

void MemcachedServer::Set(std::uint64_t key, const void* value,
                          std::uint32_t len) {
  if (auto e = table_.Lookup(key); e && e->len == len) {
    rnic::dma::Write(e->ptr, value, len);  // update in place
    return;
  }
  const std::uint64_t ptr = heap_.Store(value, len);
  table_.Insert(key, ptr, len);
}

void MemcachedServer::SetPattern(std::uint64_t key, std::uint32_t len) {
  std::vector<std::byte> v(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    v[i] = static_cast<std::byte>(PatternByte(key, i));
  }
  Set(key, v.data(), len);
}

void MemcachedServer::CrashProcess() {
  process_alive_ = false;
  rpc_.set_alive(false);
  if (!cfg_.hull_parent) {
    // The OS reclaims the dead process's memory: queues, doorbell records —
    // any RDMA program rooted in them is terminated mid-flight.
    dev_.KillProcessResources(kAppPid);
  }
  // systemd-style immediate restart, then a pass over all data items to
  // regenerate the hash table (Fig 16's ~1 s + ~1.25 s phases).
  const sim::Nanos rebuild =
      static_cast<sim::Nanos>(table_.size()) * cfg_.rebuild_per_item;
  dev_.sim().After(cfg_.restart_time + rebuild, [this] {
    process_alive_ = true;
    rpc_.set_alive(true);
  });
}

void MemcachedServer::CrashOs(sim::Nanos down_for) {
  rpc_.set_alive(false);
  dev_.sim().After(down_for, [this] { rpc_.set_alive(true); });
}

}  // namespace redn::kv
