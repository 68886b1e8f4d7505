#include "offloads/array_search.h"

#include <cassert>
#include <cstring>

#include "verbs/verbs.h"

namespace redn::offloads {

using rnic::Opcode;
using rnic::WqeField;

SearchArray::SearchArray(rnic::RnicDevice& dev,
                         std::vector<std::uint64_t> values)
    : n_(values.size()) {
  data_ = rnic::MakeZeroed<std::uint64_t>(n_);
  for (std::size_t i = 0; i < n_; ++i) data_[i] = values[i] & rnic::kWrIdMask;
  mr_ = dev.pd().Register(data_.get(), n_ * 8, rnic::kAccessAll);
}

ArraySearchOffload::ArraySearchOffload(rnic::RnicDevice& server,
                                       const SearchArray& array,
                                       QueuePair* client_qp, Config cfg,
                                       std::uint64_t resp_addr,
                                       std::uint32_t resp_rkey)
    : prog_(server), n_(array.size()) {
  assert(client_qp->sq.managed());
  assert(n_ >= 1 && n_ <= 15 && "one RECV scatter per element (16 max)");
  chain_ = prog_.NewChainQueue(static_cast<std::uint32_t>(4 * n_ + 16));
  const std::uint64_t resp_base = client_qp->send_cq->hw_count();

  index_consts_ = rnic::MakeZeroed<std::uint64_t>(n_);
  for (int i = 0; i < n_; ++i) index_consts_[i] = static_cast<std::uint64_t>(i);
  idx_mr_ = server.pd().Register(index_consts_.get(), n_ * 8, rnic::kAccessAll);
  tmpl_ = rnic::MakeZeroed<std::byte>(std::size_t(n_) * 24);
  tmpl_mr_ = server.pd().Register(tmpl_.get(), std::size_t(n_) * 24,
                                  rnic::kAccessAll);

  const int before = prog_.budget().total();
  std::vector<rnic::Sge> recv_sges;

  for (int i = 0; i < n_; ++i) {
    // Response: send the index constant on promotion.
    verbs::SendWr resp;
    resp.opcode = Opcode::kNoop;
    resp.signaled = cfg.use_break;  // break: miss completions feed the gate
    resp.local_addr = rnic::dma::AddrOf(&index_consts_[i]);
    resp.length = 8;
    resp.lkey = idx_mr_.lkey;
    resp.remote_addr = resp_addr;
    resp.rkey = resp_rkey;
    resp.imm = 1;
    WrRef r = prog_.Post(client_qp, resp);

    // READ A[i] into the conditional target's id field. In the break
    // variant the target is the break WR; otherwise the response itself.
    const std::uint64_t read_target_idx =
        chain_->sq.posted + (cfg.use_break ? 2u : 0u) /* placeholder below */;
    (void)read_target_idx;
    WrRef break_wr;  // valid only in break mode
    if (cfg.use_break) {
      // Chain layout per iteration: [READ, CAS, B].
      const WrRef b_future{chain_, chain_->sq.posted + 2};
      verbs::SendWr read;
      const rnic::Sge* sge = prog_.MakeSgeTable(
          {{b_future.FieldAddr(WqeField::kCtrl), 8, chain_->sq_mr.lkey}});
      read.opcode = Opcode::kRead;
      read.sge_table = sge;
      read.sge_count = 1;
      read.remote_addr = array.ElementAddr(i);
      read.rkey = array.rkey();
      read.length = 8;
      WrRef rd = prog_.Post(chain_, read);

      WrRef cs = prog_.Post(
          chain_, verbs::MakeCas(b_future.FieldAddr(WqeField::kCtrl),
                                 chain_->sq_mr.rkey, /*compare=*/0,
                                 rnic::PackCtrl(Opcode::kWrite, 0)));
      recv_sges.push_back(
          {cs.FieldAddr(WqeField::kCompareAdd), 8, chain_->sq_mr.lkey});

      struct Header {
        std::uint64_t ctrl;
        std::uint64_t remote_addr;
        std::uint32_t rkey;
        std::uint32_t flags;
      } hdr{rnic::PackCtrl(Opcode::kWriteImm, 0), resp_addr, resp_rkey, 0};
      rnic::dma::Write(rnic::dma::AddrOf(&tmpl_[std::size_t(i) * 24]), &hdr,
                       sizeof(hdr));
      verbs::SendWr b;
      b.opcode = Opcode::kNoop;
      b.signaled = true;
      b.local_addr = rnic::dma::AddrOf(&tmpl_[std::size_t(i) * 24]);
      b.length = 24;
      b.lkey = tmpl_mr_.lkey;
      b.remote_addr = r.FieldAddr(WqeField::kCtrl);
      b.rkey = r.CodeRkey();
      break_wr = prog_.Post(chain_, b);
      assert(break_wr.idx == b_future.idx);

      if (i == 0) {
        prog_.Wait(client_qp->recv_cq, client_qp->rq.posted + 1);
      } else {
        prog_.Wait(client_qp->send_cq,
                   resp_base + static_cast<std::uint64_t>(i));
      }
      prog_.Enable(chain_, rd.idx + 1);
      prog_.Wait(chain_->send_cq, prog_.SignalsPosted(chain_->send_cq) - 2);
      prog_.Enable(chain_, cs.idx + 1);
      prog_.Wait(chain_->send_cq, prog_.SignalsPosted(chain_->send_cq) - 1);
      prog_.Enable(chain_, break_wr.idx + 1);
      prog_.Wait(chain_->send_cq, prog_.SignalsPosted(chain_->send_cq));
      prog_.Enable(client_qp, r.idx + 1);
    } else {
      // Chain layout per iteration: [READ, CAS].
      verbs::SendWr read;
      const rnic::Sge* sge = prog_.MakeSgeTable(
          {{r.FieldAddr(WqeField::kCtrl), 8, client_qp->sq_mr.lkey}});
      read.opcode = Opcode::kRead;
      read.sge_table = sge;
      read.sge_count = 1;
      read.remote_addr = array.ElementAddr(i);
      read.rkey = array.rkey();
      read.length = 8;
      WrRef rd = prog_.Post(chain_, read);

      WrRef cs = prog_.Post(
          chain_, verbs::MakeCas(r.FieldAddr(WqeField::kCtrl), r.CodeRkey(),
                                 /*compare=*/0,
                                 rnic::PackCtrl(Opcode::kWriteImm, 0)));
      recv_sges.push_back(
          {cs.FieldAddr(WqeField::kCompareAdd), 8, chain_->sq_mr.lkey});

      if (i == 0) prog_.Wait(client_qp->recv_cq, client_qp->rq.posted + 1);
      prog_.Enable(chain_, rd.idx + 1);
      prog_.Wait(chain_->send_cq, prog_.SignalsPosted(chain_->send_cq) - 1);
      prog_.Enable(chain_, cs.idx + 1);
      prog_.Wait(chain_->send_cq, prog_.SignalsPosted(chain_->send_cq));
      prog_.Enable(client_qp, r.idx + 1);
    }
  }

  const std::uint32_t sge_count = static_cast<std::uint32_t>(recv_sges.size());
  const rnic::Sge* table = prog_.MakeSgeTable(recv_sges);
  verbs::RecvWr rwr;
  rwr.sge_table = table;
  rwr.sge_count = sge_count;
  verbs::PostRecv(client_qp, rwr);

  wrs_posted_ = prog_.budget().total() - before + 1;
  prog_.Launch();
}

void ArraySearchOffload::BuildTrigger(std::uint64_t x, std::byte* out) const {
  const std::uint64_t packed = rnic::PackCtrl(Opcode::kNoop, x);
  for (int i = 0; i < n_; ++i) std::memcpy(out + i * 8, &packed, 8);
}

}  // namespace redn::offloads
