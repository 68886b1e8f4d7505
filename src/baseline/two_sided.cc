#include "baseline/two_sided.h"

#include <cstring>

namespace redn::baseline {

using rnic::Opcode;

TwoSidedKvServer::TwoSidedKvServer(rnic::RnicDevice& dev,
                                   kv::RdmaHashTable& table,
                                   kv::ValueHeap& heap, Mode mode,
                                   BaselineCalibration cal)
    : dev_(dev), table_(table), heap_(heap), mode_(mode), cal_(cal) {}

rnic::QueuePair* TwoSidedKvServer::AddClient() {
  auto ctx = std::make_unique<ClientCtx>();
  rnic::QpConfig cfg;
  cfg.sq_depth = 4096;
  cfg.rq_depth = 4096;
  cfg.send_cq = dev_.CreateCq();
  cfg.recv_cq = dev_.CreateCq();
  ctx->qp = dev_.CreateQp(cfg);
  ctx->req_bufs = rnic::MakeZeroed<std::byte>(kRecvRing * kRequestBytes);
  ctx->req_mr = dev_.pd().Register(ctx->req_bufs.get(),
                                   kRecvRing * kRequestBytes, rnic::kAccessAll);
  ClientCtx* raw = ctx.get();
  ctx->qp->recv_cq->SetHostNotify([this, raw] { OnRecvCqe(*raw); });
  RestockRecv(*ctx);
  clients_.push_back(std::move(ctx));
  return clients_.back()->qp;
}

void TwoSidedKvServer::RestockRecv(ClientCtx& ctx) {
  while (ctx.qp->rq.posted - ctx.qp->rq.consumed < kRecvRing) {
    verbs::RecvWr rwr;
    rwr.local_addr = ctx.req_mr.addr + (ctx.next_slot % kRecvRing) * kRequestBytes;
    rwr.length = kRequestBytes;
    rwr.lkey = ctx.req_mr.lkey;
    rwr.wr_id = rwr.local_addr;  // find the buffer from the CQE
    verbs::PostRecv(ctx.qp, rwr);
    ++ctx.next_slot;
  }
}

void TwoSidedKvServer::OnRecvCqe(ClientCtx& ctx) {
  // Detection cost: busy-poll sampling or event-channel wakeup.
  const sim::Nanos detect =
      mode_ == Mode::kEvent ? cal_.event_wakeup : cal_.poll_detect;
  dev_.sim().After(detect, [this, &ctx] {
    rnic::Cqe cqe;
    while (dev_.PollCq(ctx.qp->recv_cq, 1, &cqe) == 1) {
      if (!alive_) continue;  // dropped on the floor during the crash window
      Request req;
      rnic::dma::Read(&req, cqe.wr_id, sizeof(req));
      Handle(ctx, req);
    }
    RestockRecv(ctx);
  });
}

sim::Nanos TwoSidedKvServer::ContentionNoise() {
  if (writers_ <= 0) return 0;
  const double p = writers_ * cal_.ctx_prob_per_writer;
  if (rng_.NextBool(p)) {
    return static_cast<sim::Nanos>(
        rng_.NextExponential(static_cast<double>(writers_) *
                             cal_.ctx_mean_per_writer));
  }
  return 0;
}

void TwoSidedKvServer::Handle(ClientCtx& ctx, Request req) {
  // Queue the handler on the serving core. Closed-loop writers keep the
  // core busy, so gets wait behind sets here — that is the whole contention
  // story of Fig 15.
  const std::uint32_t seq = static_cast<std::uint32_t>(req.op >> 8);
  const bool is_get = (req.op & 0xff) == kOpGet;
  sim::Nanos service = is_get ? cal_.get_service : cal_.set_service;
  service += ContentionNoise();

  std::uint64_t value_ptr = 0;
  std::uint32_t value_len = 0;
  if (is_get) {
    if (auto e = table_.Lookup(req.key)) {
      value_ptr = e->ptr;
      value_len = e->len;
    }
    // Response staging copy into the registered send buffer.
    service += sim::BandwidthResource(cal_.memcpy_gbps)
                   .SerializationDelay(value_len);
    if (mode_ == Mode::kVma) service += cal_.vma_stack;  // TX stack
  } else {
    // Set: allocate + copy + insert. The payload itself is synthesized.
    value_ptr = heap_.Reserve(req.set_len == 0 ? 8 : req.set_len);
    value_len = req.set_len == 0 ? 8 : req.set_len;
    if (mode_ == Mode::kVma) service += cal_.vma_stack;
  }

  const sim::Nanos done = cpu_.Reserve(dev_.sim().now(), service);
  dev_.sim().At(done, [this, &ctx, req, seq, is_get, value_ptr, value_len] {
    if (!alive_ || !ctx.qp->alive) return;
    if (is_get) {
      ++gets_served_;
      if (value_ptr != 0) {
        verbs::SendWr resp;
        resp.opcode = Opcode::kWriteImm;
        resp.signaled = false;
        resp.local_addr = value_ptr;
        resp.length = value_len;
        resp.lkey = heap_.lkey();
        resp.remote_addr = req.resp_addr;
        resp.rkey = req.resp_rkey;
        resp.imm = seq;
        verbs::PostSendNow(ctx.qp, resp);
      }
    } else {
      ++sets_served_;
      table_.Insert(req.key, value_ptr, value_len);
      verbs::SendWr ack;
      ack.opcode = Opcode::kWriteImm;
      ack.signaled = false;
      ack.length = 0;
      ack.remote_addr = req.resp_addr;
      ack.rkey = req.resp_rkey;
      ack.imm = seq;
      verbs::PostSendNow(ctx.qp, ack);
    }
  });
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

TwoSidedKvClient::TwoSidedKvClient(rnic::RnicDevice& cdev,
                                   TwoSidedKvServer& server,
                                   std::size_t max_value)
    : cdev_(cdev), server_(server) {
  rnic::QueuePair* srv_qp = server.AddClient();
  rnic::QpConfig cfg;
  cfg.sq_depth = 4096;
  cfg.rq_depth = 4096;
  cfg.send_cq = cdev_.CreateCq();
  cfg.recv_cq = cdev_.CreateCq();
  qp_ = cdev_.CreateQp(cfg);
  rnic::Connect(qp_, srv_qp, cdev_.cal().net_one_way);
  bufs_ = rnic::MakeZeroed<std::byte>(kRequestBytes + max_value);
  mr_ = cdev_.pd().Register(bufs_.get(), kRequestBytes + max_value,
                            rnic::kAccessAll);
  qp_->recv_cq->SetHostNotify([this] { OnResponse(); });
}

void TwoSidedKvClient::EnsureRecv() {
  while (recvs_outstanding_ < 16) {
    verbs::RecvWr rwr;
    verbs::PostRecv(qp_, rwr);
    ++recvs_outstanding_;
  }
}

void TwoSidedKvClient::Send(std::uint64_t op, std::uint64_t key,
                            std::uint32_t len,
                            std::function<void(sim::Nanos)> done) {
  EnsureRecv();
  const std::uint32_t seq = next_seq_++;
  Request req;
  req.op = op | (static_cast<std::uint64_t>(seq) << 8);
  req.key = key;
  req.resp_addr = mr_.addr + kRequestBytes;
  req.resp_rkey = mr_.rkey;
  req.set_len = len;
  std::memcpy(bufs_.get(), &req, sizeof(req));
  const sim::Nanos t0 = cdev_.sim().now();
  // VMA models the sockets TX path cost on the client as well.
  const sim::Nanos tx_delay = server_.mode() == TwoSidedKvServer::Mode::kVma
                                  ? server_.cal().vma_stack
                                  : 0;
  pending_.emplace(seq, Pending{t0, std::move(done)});
  cdev_.sim().After(tx_delay, [this] {
    verbs::PostSendNow(
        qp_, verbs::MakeSend(mr_.addr, kRequestBytes, mr_.lkey,
                             /*signaled=*/false));
  });
}

void TwoSidedKvClient::OnResponse() {
  rnic::Cqe cqe;
  while (cdev_.PollCq(qp_->recv_cq, 1, &cqe) == 1) {
    --recvs_outstanding_;
    auto it = pending_.find(cqe.imm);
    if (it == pending_.end()) continue;  // late response to a timed-out op
    auto [t0, done] = std::move(it->second);
    pending_.erase(it);
    ++responses_;
    // VMA RX path: stack + copy out of the socket buffer.
    sim::Nanos rx_delay = 0;
    if (server_.mode() == TwoSidedKvServer::Mode::kVma) {
      rx_delay = server_.cal().vma_stack +
                 sim::BandwidthResource(server_.cal().memcpy_gbps)
                     .SerializationDelay(cqe.byte_len);
    }
    const sim::Nanos t0c = t0;
    auto cb = std::move(done);
    cdev_.sim().After(rx_delay, [this, t0c, cb = std::move(cb)] {
      if (cb) cb(cdev_.sim().now() - t0c);
    });
  }
}

void TwoSidedKvClient::SendGet(std::uint64_t key,
                               std::function<void(sim::Nanos)> done) {
  Send(kOpGet, key, 0, std::move(done));
}

void TwoSidedKvClient::SendSet(std::uint64_t key, std::uint32_t len,
                               std::function<void(sim::Nanos)> done) {
  Send(kOpSet, key, len, std::move(done));
}

TwoSidedKvClient::Result TwoSidedKvClient::Blocking(std::uint64_t op,
                                                    std::uint64_t key,
                                                    std::uint32_t len,
                                                    sim::Nanos timeout) {
  Result r;
  auto finished = std::make_shared<bool>(false);
  auto out = std::make_shared<Result>();
  const std::uint32_t seq = next_seq_;  // Send() will consume this seq
  Send(op, key, len, [finished, out](sim::Nanos lat) {
    out->ok = true;
    out->latency = lat;
    *finished = true;
  });
  auto& sim = cdev_.sim();
  const sim::Nanos deadline = sim.now() + timeout;
  while (!*finished && sim.now() <= deadline) {
    if (!sim.Step()) break;
  }
  if (!*finished) pending_.erase(seq);  // timed out: disarm the callback
  return *out;
}

TwoSidedKvClient::Result TwoSidedKvClient::Get(std::uint64_t key,
                                               sim::Nanos timeout) {
  return Blocking(kOpGet, key, 0, timeout);
}

TwoSidedKvClient::Result TwoSidedKvClient::Set(std::uint64_t key,
                                               std::uint32_t len,
                                               sim::Nanos timeout) {
  return Blocking(kOpSet, key, len, timeout);
}

}  // namespace redn::baseline
