#include "offloads/hash_harness.h"

#include <cstring>

#include "rnic/device.h"

namespace redn::offloads {

HashGetHarness::HashGetHarness(rnic::RnicDevice& client_dev,
                               rnic::RnicDevice& server_dev,
                               HashGetOffload::Config cfg,
                               kv::RdmaHashTable::Config table_cfg,
                               std::size_t heap_bytes, std::size_t max_value)
    : cdev_(client_dev),
      sdev_(server_dev),
      owned_table_(std::make_unique<kv::RdmaHashTable>(server_dev, table_cfg)),
      owned_heap_(std::make_unique<kv::ValueHeap>(server_dev, heap_bytes)),
      table_(owned_table_.get()),
      heap_(owned_heap_.get()),
      cfg_(cfg) {
  Init(max_value);
}

HashGetHarness::HashGetHarness(rnic::RnicDevice& client_dev,
                               rnic::RnicDevice& server_dev,
                               HashGetOffload::Config cfg,
                               kv::RdmaHashTable& shared_table,
                               kv::ValueHeap& shared_heap,
                               std::size_t max_value)
    : cdev_(client_dev),
      sdev_(server_dev),
      table_(&shared_table),
      heap_(&shared_heap),
      cfg_(cfg) {
  Init(max_value);
}

void HashGetHarness::Init(std::size_t max_value) {
  const sim::Nanos one_way = sdev_.cal().net_one_way;

  const std::uint32_t resp_depth = 2u * cfg_.max_requests + 64;
  auto make_pair = [&](rnic::QueuePair*& srv, rnic::QueuePair*& cli) {
    rnic::QpConfig s;
    s.sq_depth = resp_depth;
    s.rq_depth = resp_depth;
    s.port = cfg_.port;
    s.managed = true;  // holds the pre-posted response WRs
    s.send_cq = sdev_.CreateCq();
    s.recv_cq = sdev_.CreateCq();
    srv = sdev_.CreateQp(s);
    rnic::QpConfig c;
    c.sq_depth = 4096;
    c.rq_depth = 16384;
    c.managed = cfg_.managed_client_sq;  // parked detour triggers
    c.send_cq = cdev_.CreateCq();
    c.recv_cq = cli_recv_cq_ ? cli_recv_cq_ : (cli_recv_cq_ = cdev_.CreateCq());
    cli = cdev_.CreateQp(c);
    if (cfg_.transport != nullptr) {
      rnic::ConnectOverTransport(cli, srv, *cfg_.transport);
    } else if (cfg_.fabric != nullptr) {
      rnic::ConnectOverFabric(cli, srv);
    } else {
      rnic::Connect(cli, srv, one_way);
    }
  };
  make_pair(srv_qp1_, cli_qp1_);
  if (cfg_.parallel) make_pair(srv_qp2_, cli_qp2_);

  resp_buf_ = rnic::MakeZeroed<std::byte>(max_value);
  resp_mr_ = cdev_.pd().Register(resp_buf_.get(), max_value, rnic::kAccessAll);
  msg_buf_ = rnic::MakeZeroed<std::byte>(64);
  msg_mr_ = cdev_.pd().Register(msg_buf_.get(), 64, rnic::kAccessAll);

  offload_ = std::make_unique<HashGetOffload>(sdev_, *table_, *heap_, srv_qp1_,
                                              srv_qp2_, cfg_);
}

void HashGetHarness::Put(std::uint64_t key, const void* value,
                         std::uint32_t len, bool force_second) {
  const std::uint64_t ptr = heap_->Store(value, len);
  table_->Insert(key, ptr, len, force_second);
}

void HashGetHarness::PutPattern(std::uint64_t key, std::uint32_t len,
                                bool force_second) {
  kv::PutPattern(*table_, *heap_, key, len, force_second);
}

bool HashGetHarness::ResponseMatchesPattern(std::uint64_t key,
                                            std::uint32_t len) const {
  const auto* p = reinterpret_cast<const std::uint8_t*>(resp_buf_.get());
  for (std::uint32_t i = 0; i < len; ++i) {
    if (p[i] != kv::PatternByte(key, i)) return false;
  }
  return true;
}

void HashGetHarness::PutVersioned(std::uint64_t key, std::uint32_t len,
                                  std::uint64_t version) {
  const std::uint64_t ptr = heap_->Reserve(len);
  kv::WriteVersionedValue(ptr, len, key, version);
  table_->Insert(key, ptr, len);
}

std::uint64_t HashGetHarness::ResponseVersion() const {
  std::uint64_t v = 0;
  std::memcpy(&v, resp_buf_.get(), sizeof(v));
  return v;
}

bool HashGetHarness::ResponseMatchesVersionedPattern(std::uint64_t key,
                                                     std::uint32_t len) const {
  const std::uint64_t version = ResponseVersion();
  const auto* p = reinterpret_cast<const std::uint8_t*>(resp_buf_.get());
  for (std::uint32_t i = kv::kValueVersionBytes; i < len; ++i) {
    if (p[i] != kv::VersionedPatternByte(key, version, i)) return false;
  }
  return true;
}

void HashGetHarness::Arm(int n) {
  offload_->Arm(n, resp_mr_.addr, resp_mr_.rkey);
}

namespace {
void CycleQp(rnic::QueuePair* qp) {
  if (qp == nullptr) return;
  rnic::RnicDevice* dev = qp->device;
  dev->ModifyQp(qp, rnic::QpState::kReset);
  dev->ModifyQp(qp, rnic::QpState::kInit);
  dev->ModifyQp(qp, rnic::QpState::kRtr);
  dev->ModifyQp(qp, rnic::QpState::kRts);
}
}  // namespace

void HashGetHarness::RearmTransportClientHalf() {
  CycleQp(cli_qp1_);
  CycleQp(cli_qp2_);
  // The reset discarded every pending RECV — the client response buffers.
  recvs_outstanding_1_ = 0;
  recvs_outstanding_2_ = 0;
}

void HashGetHarness::RearmTransportServerHalf(int n) {
  CycleQp(srv_qp1_);
  CycleQp(srv_qp2_);
  // The replacement program's chain r gates on trigger-CQ count
  // first_seq + r; seed it with what the wrecked program consumed (error
  // flushes bumped the count too, so read the CQ rather than triggers_).
  retired_.push_back(std::move(offload_));
  cfg_.first_seq = srv_qp1_->recv_cq->hw_count();
  offload_ = std::make_unique<HashGetOffload>(sdev_, *table_, *heap_, srv_qp1_,
                                              srv_qp2_, cfg_);
  Arm(n);
}

void HashGetHarness::PrepostResponseRecvs(int n) {
  for (int i = 0; i < n; ++i) {
    verbs::RecvWr rwr;
    rwr.local_addr = 0;  // WRITE_IMM carries no SEND payload
    rwr.length = 0;
    verbs::PostRecv(cli_qp1_, rwr);
    ++recvs_outstanding_1_;
    if (cfg_.parallel) {
      verbs::PostRecv(cli_qp2_, rwr);
      ++recvs_outstanding_2_;
    }
  }
}

void HashGetHarness::EnsureRecvs() {
  // One response RECV per in-flight get (plus slack), on whichever client
  // QP may answer — open-loop drivers can have hundreds outstanding.
  const int target =
      static_cast<int>(triggers_ - responses_) + 8;
  while (recvs_outstanding_1_ < target) {
    verbs::RecvWr rwr;
    rwr.local_addr = 0;  // WRITE_IMM carries no SEND payload
    rwr.length = 0;
    verbs::PostRecv(cli_qp1_, rwr);
    ++recvs_outstanding_1_;
  }
  while (cfg_.parallel && recvs_outstanding_2_ < target) {
    verbs::RecvWr rwr;
    verbs::PostRecv(cli_qp2_, rwr);
    ++recvs_outstanding_2_;
  }
}

bool HashGetHarness::SendTrigger(std::uint64_t key) {
  if (!srv_qp1_->alive) {
    return false;  // connection torn down (e.g. §5.6 no-hull crash)
  }
  return SendTriggerBlind(key);
}

bool HashGetHarness::SendTriggerBlind(std::uint64_t key) {
  if (cli_qp1_->sq.error || cli_qp1_->state == rnic::QpState::kError) {
    return false;  // the local QP is wrecked; posting would just flush
  }
  EnsureRecvs();
  offload_->BuildTrigger(key, msg_buf_.get());
  verbs::PostSendNow(cli_qp1_,
                     verbs::MakeSend(msg_mr_.addr, offload_->TriggerBytes(),
                                     msg_mr_.lkey, /*signaled=*/false));
  ++triggers_;
  return true;
}

HashGetHarness::Result HashGetHarness::Get(std::uint64_t key,
                                           sim::Nanos timeout) {
  auto& sim = cdev_.sim();
  const sim::Nanos t0 = sim.now();
  SendTrigger(key);
  verbs::Cqe cqe;
  if (!verbs::AwaitCqe(sim, cdev_, cli_recv_cq_, &cqe, t0 + timeout)) {
    return Result{};  // miss: no response WRITE fired
  }
  ++responses_;
  if (cqe.qp_id == cli_qp1_->id) {
    --recvs_outstanding_1_;
  } else {
    --recvs_outstanding_2_;
  }
  Result r;
  r.found = true;
  r.latency = sim.now() - t0;
  r.len = cqe.byte_len;
  return r;
}

}  // namespace redn::offloads
