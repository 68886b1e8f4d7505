#include "offloads/list_traversal.h"

#include <cassert>
#include <cstring>

#include "kv/table.h"
#include "verbs/verbs.h"

namespace redn::offloads {

using rnic::Opcode;
using rnic::WqeField;

ListStore::ListStore(rnic::RnicDevice& dev, std::size_t max_nodes,
                     std::uint32_t value_len)
    : value_len_(value_len), max_nodes_(max_nodes) {
  const std::size_t bytes = max_nodes * node_bytes();
  mem_ = rnic::MakeZeroed<std::byte>(bytes);
  mr_ = dev.pd().Register(mem_.get(), bytes, rnic::kAccessAll);
}

std::uint64_t ListStore::Append(std::uint64_t key, const void* value) {
  assert(count_ < max_nodes_);
  const std::uint64_t addr = mr_.addr + count_ * node_bytes();
  rnic::dma::WriteU64(addr, key & rnic::kWrIdMask);
  rnic::dma::WriteU64(addr + 8, 0);  // next: patched below
  rnic::dma::Write(addr + 16, value, value_len_);
  if (count_ == 0) {
    head_ = addr;
  } else {
    rnic::dma::WriteU64(tail_ + 8, addr);
  }
  tail_ = addr;
  ++count_;
  return addr;
}

void ListStore::AppendPattern(std::uint64_t key) {
  std::vector<std::byte> v(value_len_);
  kv::FillBytePattern(v.data(), value_len_,
                      std::to_integer<std::uint8_t>(PatternByte(key, 0)));
  Append(key, v.data());
}

ListTraversalOffload::ListTraversalOffload(rnic::RnicDevice& server,
                                           const ListStore& list,
                                           QueuePair* client_qp, Config cfg,
                                           std::uint64_t resp_addr,
                                           std::uint32_t resp_rkey)
    : list_(list), prog_(server) {
  assert(client_qp->sq.managed());
  assert(cfg.iterations <= 15 &&
         "direct RECV injection is limited to 16 scatters (paper §5.3)");
  chain_ = prog_.NewChainQueue(4096);
  const std::uint32_t vlen = list_.value_len();
  const int n = cfg.iterations;
  iterations_ = n;
  // Gate thresholds on the (shared) response queue must be relative to its
  // completion count at arm time: the QP is reused across requests.
  const std::uint64_t resp_base = client_qp->send_cq->hw_count();

  // Scratch layout: [xbuf 8B][sink 8B][staging n*vlen][templates n*24B].
  const std::size_t scratch_bytes = 16 + std::size_t(n) * vlen + n * 24;
  scratch_ = rnic::MakeZeroed<std::byte>(scratch_bytes);
  scratch_mr_ =
      server.pd().Register(scratch_.get(), scratch_bytes, rnic::kAccessAll);
  const std::uint64_t xbuf = scratch_mr_.addr;
  const std::uint64_t sink = scratch_mr_.addr + 8;
  auto staging = [&](int i) { return scratch_mr_.addr + 16 + i * vlen; };
  auto tmpl = [&](int i) {
    return scratch_mr_.addr + 16 + std::size_t(n) * vlen + i * 24;
  };

  const int before = prog_.budget().total();

  // Pre-compute per-iteration chain indices so READ_i can patch READ_{i+1}.
  // M layout per iteration: [READ, CAS, (break: B)]. The paper's R3 copy is
  // optimised away: the trigger RECV injects x into every CAS directly
  // (possible for lists of <= 15 nodes given the 16-scatter limit).
  const int per_iter = cfg.use_break ? 3 : 2;
  const std::uint64_t m0 = chain_->sq.posted;
  auto read_idx = [&](int i) { return m0 + std::uint64_t(i) * per_iter; };

  std::vector<WrRef> responses;
  std::vector<rnic::Sge> recv_sges;
  std::uint64_t first_read_remote_field = 0;

  for (int i = 0; i < n; ++i) {
    // Response WR for iteration i, on the client-facing managed SQ.
    verbs::SendWr r5;
    r5.opcode = Opcode::kNoop;
    // plain: silent miss. break: signaled miss feeds the next gate.
    r5.signaled = cfg.use_break;
    r5.local_addr = staging(i);
    r5.length = vlen;
    r5.lkey = scratch_mr_.lkey;
    r5.remote_addr = resp_addr;
    r5.rkey = resp_rkey;
    r5.imm = 1;
    WrRef resp = prog_.Post(client_qp, r5);
    responses.push_back(resp);

    // READ_i: node -> {key, next, value} scatter. In the break variant the
    // key lands in B_i's ctrl word (chain slot READ+2 by layout); otherwise
    // directly in the response's ctrl word.
    const bool last = i == n - 1;
    const std::uint64_t key_target =
        cfg.use_break
            ? WrRef{chain_, read_idx(i) + 2}.FieldAddr(WqeField::kCtrl)
            : resp.FieldAddr(WqeField::kCtrl);
    const std::uint64_t next_target =
        last ? sink
             : WrRef{chain_, read_idx(i + 1)}.FieldAddr(WqeField::kRemoteAddr);
    const rnic::Sge* sges = prog_.MakeSgeTable({
        {key_target, 8, cfg.use_break ? chain_->sq_mr.lkey : client_qp->sq_mr.lkey},
        {next_target, 8, last ? scratch_mr_.lkey : chain_->sq_mr.lkey},
        {staging(i), vlen, scratch_mr_.lkey},
    });
    verbs::SendWr read;
    read.opcode = Opcode::kRead;
    read.sge_table = sges;
    read.sge_count = 3;
    read.remote_addr = 0;  // iter 0: injected by RECV; else patched by READ_{i-1}
    read.rkey = list_.rkey();
    read.length = list_.node_bytes();
    WrRef rd = prog_.Post(chain_, read);
    assert(rd.idx == read_idx(i));
    if (i == 0) {
      first_read_remote_field = rd.FieldAddr(WqeField::kRemoteAddr);
    }

    if (!cfg.use_break) {
      // CAS_i: promote the response directly; compare injected by the RECV.
      WrRef cs = prog_.Post(
          chain_, verbs::MakeCas(resp.FieldAddr(WqeField::kCtrl),
                                 resp.CodeRkey(), /*compare=*/0,
                                 rnic::PackCtrl(Opcode::kWriteImm, 0)));
      recv_sges.push_back(
          {cs.FieldAddr(WqeField::kCompareAdd), 8, chain_->sq_mr.lkey});
      // Glue: [trigger ->] READ -> CAS -> response.
      if (i == 0) prog_.Wait(client_qp->recv_cq, client_qp->rq.posted + 1);
      prog_.Enable(chain_, rd.idx + 1);
      prog_.Wait(chain_->send_cq, prog_.SignalsPosted(chain_->send_cq) - 1);
      prog_.Enable(chain_, cs.idx + 1);
      prog_.Wait(chain_->send_cq, prog_.SignalsPosted(chain_->send_cq));
      prog_.Enable(client_qp, resp.idx + 1);
    } else {
      // B_i: break WR. Promoted by CAS_i on a key match; as a WRITE it lays
      // a 24-byte template over R5_i's header: {ctrl = WRITE_IMM,
      // remote_addr = resp, rkey, flags = 0 (unsignaled)}.
      const WrRef b_future{chain_, chain_->sq.posted + 1};
      WrRef cs = prog_.Post(
          chain_, verbs::MakeCas(b_future.FieldAddr(WqeField::kCtrl),
                                 chain_->sq_mr.rkey, /*compare=*/0,
                                 rnic::PackCtrl(Opcode::kWrite, 0)));
      recv_sges.push_back(
          {cs.FieldAddr(WqeField::kCompareAdd), 8, chain_->sq_mr.lkey});
      // Template bytes for R5_i's first 24 bytes.
      struct Header {
        std::uint64_t ctrl;
        std::uint64_t remote_addr;
        std::uint32_t rkey;
        std::uint32_t flags;
      } hdr{rnic::PackCtrl(Opcode::kWriteImm, 0), resp_addr, resp_rkey, 0};
      rnic::dma::Write(tmpl(i), &hdr, sizeof(hdr));
      verbs::SendWr b;
      b.opcode = Opcode::kNoop;  // -> kWrite on match
      b.signaled = true;         // M-side completion is counted either way
      b.local_addr = tmpl(i);
      b.length = 24;
      b.lkey = scratch_mr_.lkey;
      b.remote_addr = resp.FieldAddr(WqeField::kCtrl);
      b.rkey = resp.CodeRkey();
      WrRef bw = prog_.Post(chain_, b);
      assert(bw.idx == b_future.idx);
      assert(bw.FieldAddr(WqeField::kCtrl) == key_target);

      // Glue: gate on miss count, then READ -> CAS -> B -> response.
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
      prog_.Enable(chain_, bw.idx + 1);
      prog_.Wait(chain_->send_cq, prog_.SignalsPosted(chain_->send_cq));
      prog_.Enable(client_qp, resp.idx + 1);
    }
  }

  // Trigger RECV: packed x into every iteration's CAS compare (direct
  // injection), then the head address into READ_0.remote_addr.
  recv_sges.push_back({first_read_remote_field, 8, chain_->sq_mr.lkey});
  const std::uint32_t sge_count = static_cast<std::uint32_t>(recv_sges.size());
  const rnic::Sge* table = prog_.MakeSgeTable(recv_sges);
  verbs::RecvWr rwr;
  rwr.sge_table = table;
  rwr.sge_count = sge_count;
  verbs::PostRecv(client_qp, rwr);
  (void)xbuf;

  wrs_posted_ = prog_.budget().total() - before + 1;
  prog_.Launch();
}

void ListTraversalOffload::BuildTrigger(std::uint64_t key,
                                        std::byte* out) const {
  // x repeated once per iteration (one scatter per CAS), then the head.
  const std::uint64_t packed = rnic::PackCtrl(Opcode::kNoop, key);
  for (int i = 0; i < iterations_; ++i) {
    std::memcpy(out + i * 8, &packed, 8);
  }
  const std::uint64_t head = list_.head();
  std::memcpy(out + iterations_ * 8, &head, 8);
}

}  // namespace redn::offloads
