#include "baseline/one_sided.h"

namespace redn::baseline {

OneSidedKvClient::OneSidedKvClient(rnic::RnicDevice& cdev,
                                   rnic::RnicDevice& sdev,
                                   const kv::RdmaHashTable& table,
                                   kv::ValueHeap& heap,
                                   BaselineCalibration cal,
                                   std::size_t max_value)
    : cdev_(cdev), table_(table), heap_rkey_(heap.rkey()), cal_(cal) {
  rnic::QpConfig s;
  s.send_cq = sdev.CreateCq();
  s.recv_cq = sdev.CreateCq();
  rnic::QueuePair* srv = sdev.CreateQp(s);
  rnic::QpConfig c;
  c.send_cq = cdev_.CreateCq();
  c.recv_cq = cdev_.CreateCq();
  qp_ = cdev_.CreateQp(c);
  rnic::Connect(qp_, srv, cdev_.cal().net_one_way);
  buf_ = rnic::MakeZeroed<std::byte>(kScratch + max_value);
  mr_ = cdev_.pd().Register(buf_.get(), kScratch + max_value, rnic::kAccessAll);
}

bool OneSidedKvClient::BlockingRead(std::uint64_t raddr, std::uint32_t rkey,
                                    std::uint32_t len, std::uint64_t laddr,
                                    sim::Nanos timeout) {
  auto& sim = cdev_.sim();
  // Client-side software: compute addresses, build the WR, post.
  sim.RunUntil(sim.now() + cal_.client_read_overhead / 2);
  verbs::PostSendNow(qp_, verbs::MakeRead(laddr, len, mr_.lkey, raddr, rkey));
  verbs::Cqe cqe;
  if (!verbs::AwaitCqe(sim, cdev_, qp_->send_cq, &cqe, sim.now() + timeout)) {
    return false;
  }
  // Completion detection + parse.
  sim.RunUntil(sim.now() + cal_.client_read_overhead / 2);
  return cqe.status == rnic::WcStatus::kSuccess;
}

OneSidedKvClient::Result OneSidedKvClient::Get(std::uint64_t key,
                                               sim::Nanos timeout) {
  auto& sim = cdev_.sim();
  Result r;
  const sim::Nanos t0 = sim.now();

  // 1. Neighbourhood of H1.
  if (!BlockingRead(table_.NeighborhoodAddr(key), table_.rkey(),
                    table_.NeighborhoodBytes(), mr_.addr, timeout)) {
    return r;
  }
  ++r.reads_issued;

  const std::uint64_t masked = key & kv::kKeyMask;
  std::uint64_t ptr = 0;
  std::uint32_t len = 0;
  const int nb = table_.NeighborhoodBytes() / kv::kBucketSize;
  for (int i = 0; i < nb; ++i) {
    const std::uint64_t slot = mr_.addr + i * kv::kBucketSize;
    if (rnic::dma::ReadU64(slot + kv::kBucketKeyOff) == masked) {
      ptr = rnic::dma::ReadU64(slot + kv::kBucketPtrOff);
      len = rnic::dma::ReadU32(slot + kv::kBucketLenOff);
      break;
    }
  }

  // 2. Fall back to the H2 bucket.
  if (ptr == 0) {
    if (!BlockingRead(table_.BucketAddr2(key), table_.rkey(), kv::kBucketSize,
                      mr_.addr + 1024, timeout)) {
      return r;
    }
    ++r.reads_issued;
    const std::uint64_t slot = mr_.addr + 1024;
    if (rnic::dma::ReadU64(slot + kv::kBucketKeyOff) == masked) {
      ptr = rnic::dma::ReadU64(slot + kv::kBucketPtrOff);
      len = rnic::dma::ReadU32(slot + kv::kBucketLenOff);
    }
  }
  if (ptr == 0) return r;  // miss

  // 3. Fetch the value.
  if (!BlockingRead(ptr, heap_rkey_, len, mr_.addr + kScratch, timeout)) {
    return r;
  }
  ++r.reads_issued;

  r.found = true;
  r.len = len;
  r.latency = sim.now() - t0;
  return r;
}

}  // namespace redn::baseline
