#include "redn/mov.h"

#include <cassert>
#include <stdexcept>

#include "verbs/verbs.h"

namespace redn::core {

MovMachine::MovMachine(rnic::RnicDevice& dev, int registers, std::size_t cells)
    : dev_(dev), prog_(dev), n_regs_(registers) {
  arena_words_ = static_cast<std::size_t>(registers) + cells;
  arena_ = rnic::MakeZeroed<std::uint64_t>(arena_words_);
  arena_mr_ = dev_.pd().Register(arena_.get(), arena_words_ * 8,
                                 rnic::kAccessAll);
  arena_used_ = registers;  // registers occupy the front of the arena
  chain_ = prog_.NewChainQueue(8192);
}

std::uint64_t MovMachine::RegAddr(int r) const {
  assert(r >= 0 && r < n_regs_);
  return rnic::dma::AddrOf(&arena_[r]);
}

std::uint64_t MovMachine::Reg(int r) const {
  assert(r >= 0 && r < n_regs_);
  return arena_[r];
}

void MovMachine::SetReg(int r, std::uint64_t v) {
  assert(r >= 0 && r < n_regs_);
  arena_[r] = v;
}

std::uint64_t MovMachine::AllocCells(std::size_t count) {
  if (arena_used_ + count > arena_words_) {
    throw std::runtime_error("MovMachine arena exhausted");
  }
  const std::uint64_t addr = rnic::dma::AddrOf(&arena_[arena_used_]);
  arena_used_ += count;
  return addr;
}

std::uint64_t MovMachine::PoolSlot(std::uint64_t value) {
  const std::uint64_t addr = AllocCells(1);
  rnic::dma::WriteU64(addr, value);
  return addr;
}

void MovMachine::Sequence() {
  // Completion-order barrier against every prior signaled WR on both
  // queues: instructions may have register dependencies (RAW), and
  // WQ-order pipelining alone does not wait for a predecessor's memory
  // effect. Registers written by chain WQEs (loads) retire on the chain CQ.
  const std::uint64_t ctrl_signals = prog_.SignalsPosted(prog_.control_cq());
  if (ctrl_signals > 0) prog_.Wait(prog_.control_cq(), ctrl_signals);
  const std::uint64_t chain_signals = prog_.SignalsPosted(chain_->send_cq);
  if (chain_signals > 0) prog_.Wait(chain_->send_cq, chain_signals);
}

void MovMachine::ReleaseChain(std::uint64_t upto) {
  // Doorbell ordering, WQE by WQE: each chain entry is fetched only after
  // the previous one completed (all chain WRs are signaled, so the chain CQ
  // count equals the number of retired chain WQEs).
  while (released_ < upto) {
    if (released_ > 0) prog_.Wait(chain_->send_cq, released_);
    prog_.Enable(chain_, released_ + 1);
    ++released_;
  }
}

void MovMachine::MovImmediate(int rdst, std::uint64_t constant) {
  const std::uint64_t slot = PoolSlot(constant);
  Sequence();
  // Plain copy: no self-modification, so it can ride the control queue.
  prog_.Post(prog_.control(), verbs::MakeWrite(slot, 8, arena_mr_.lkey,
                                               RegAddr(rdst), arena_mr_.rkey));
  ++instructions_;
}

void MovMachine::MovReg(int rdst, int rsrc) {
  Sequence();
  prog_.Post(prog_.control(),
             verbs::MakeWrite(RegAddr(rsrc), 8, arena_mr_.lkey, RegAddr(rdst),
                              arena_mr_.rkey));
  ++instructions_;
}

void MovMachine::MovIndirectLoad(int rdst, int rsrc) {
  Sequence();
  // Chain WQE: WRITE 8 bytes from a patched source address into Rdst.
  WrRef w2 = prog_.Post(chain_,
                        verbs::MakeWrite(/*laddr=*/0, 8, arena_mr_.lkey,
                                         RegAddr(rdst), arena_mr_.rkey));
  // Control: patch w2.local_addr with the *value* of Rsrc...
  prog_.Post(prog_.control(),
             verbs::MakeWrite(RegAddr(rsrc), 8, arena_mr_.lkey,
                              w2.FieldAddr(WqeField::kLocalAddr),
                              w2.CodeRkey()));
  // ...and only then let the NIC fetch w2 (doorbell ordering).
  prog_.Wait(prog_.control_cq(), prog_.SignalsPosted(prog_.control_cq()));
  ReleaseChain(w2.idx + 1);
  ++instructions_;
}

void MovMachine::MovIndexedLoad(int rdst, int rsrc, int roff) {
  Sequence();
  // Chain order matters: the ADD must execute before the WRITE it adjusts,
  // so it is posted first. Both are patched from registers by the control
  // queue before release.
  const WrRef w2_future{chain_, chain_->sq.posted + 1};
  WrRef add = prog_.Post(
      chain_, verbs::MakeFetchAdd(w2_future.FieldAddr(WqeField::kLocalAddr),
                                  chain_->sq_mr.rkey, /*add=*/0));
  WrRef w2 = prog_.Post(chain_,
                        verbs::MakeWrite(/*laddr=*/0, 8, arena_mr_.lkey,
                                         RegAddr(rdst), arena_mr_.rkey));
  assert(w2.idx == w2_future.idx);
  // Patch the base address from Rsrc and the ADD operand from Roff.
  prog_.Post(prog_.control(),
             verbs::MakeWrite(RegAddr(rsrc), 8, arena_mr_.lkey,
                              w2.FieldAddr(WqeField::kLocalAddr),
                              w2.CodeRkey()));
  prog_.Post(prog_.control(),
             verbs::MakeWrite(RegAddr(roff), 8, arena_mr_.lkey,
                              add.FieldAddr(WqeField::kCompareAdd),
                              add.CodeRkey()));
  prog_.Wait(prog_.control_cq(), prog_.SignalsPosted(prog_.control_cq()));
  ReleaseChain(w2.idx + 1);
  ++instructions_;
}

void MovMachine::MovIndirectStore(int rdst_ptr, int rsrc) {
  Sequence();
  WrRef w2 = prog_.Post(
      chain_, verbs::MakeWrite(RegAddr(rsrc), 8, arena_mr_.lkey,
                               /*raddr=*/0, arena_mr_.rkey));
  prog_.Post(prog_.control(),
             verbs::MakeWrite(RegAddr(rdst_ptr), 8, arena_mr_.lkey,
                              w2.FieldAddr(WqeField::kRemoteAddr),
                              w2.CodeRkey()));
  prog_.Wait(prog_.control_cq(), prog_.SignalsPosted(prog_.control_cq()));
  ReleaseChain(w2.idx + 1);
  ++instructions_;
}

sim::Nanos MovMachine::Run() {
  // Retirement barrier: the control queue pipelines past ENABLEs, so wait
  // for every released chain WQE to complete before declaring done.
  const std::uint64_t chain_signals = prog_.SignalsPosted(chain_->send_cq);
  if (chain_signals > 0) prog_.Wait(chain_->send_cq, chain_signals);
  Sequence();
  // A final signaled NOOP on the control queue marks retirement.
  prog_.Post(prog_.control(), verbs::MakeNoop(/*signaled=*/true));
  const std::uint64_t want = prog_.SignalsPosted(prog_.control_cq());
  const sim::Nanos t0 = dev_.sim().now();
  prog_.Launch();
  auto& sim = dev_.sim();
  while (prog_.control_cq()->hw_count() < want) {
    if (!sim.Step()) break;
  }
  return dev_.sim().now() - t0;
}

}  // namespace redn::core
