// Small trigger-function offloads: the RPC patterns of Figs 3 and 4.
//
// EchoRpcOffload (Fig 3): the client's SEND payload is scattered straight
// into the pre-posted response WRITE's source buffer; a WAIT+ENABLE pair
// releases the response. The server CPU never runs.
//
// CondRpcOffload (Fig 4): `if (x == y) send(1) else send(0)`. y is baked
// into a CAS at setup; x arrives in the trigger and lands in the id field
// of the conditional WR. On x == y the CAS flips a NOOP into a WRITE that
// overwrites the answer byte before the response fires.
#pragma once

#include <cstdint>
#include <memory>

#include "redn/program.h"

namespace redn::offloads {

using core::Program;
using core::WrRef;
using rnic::QueuePair;

class EchoRpcOffload {
 public:
  // Arms `n` echo requests of `msg_bytes` each on a connected, managed
  // server QP. Response r is WRITE_IMM'd to (resp_addr, resp_rkey), imm = r.
  EchoRpcOffload(rnic::RnicDevice& server, QueuePair* client_qp,
                 std::uint32_t msg_bytes, int n, std::uint64_t resp_addr,
                 std::uint32_t resp_rkey);

 private:
  Program prog_;
  rnic::ZeroedArray<std::byte> bufs_;
  rnic::MemoryRegion mr_;
};

class CondRpcOffload {
 public:
  // Arms `n` conditional requests comparing the client's x against `y`.
  CondRpcOffload(rnic::RnicDevice& server, QueuePair* client_qp,
                 std::uint64_t y, int n, std::uint64_t resp_addr,
                 std::uint32_t resp_rkey);

  // Trigger message (8 bytes): PackCtrl(NOOP, x).
  static void BuildTrigger(std::uint64_t x, std::byte* out);

 private:
  Program prog_;
  QueuePair* chain_;
  rnic::ZeroedArray<std::byte> bufs_;  // per-request answer word + constant 1
  rnic::MemoryRegion mr_;
};

}  // namespace redn::offloads
