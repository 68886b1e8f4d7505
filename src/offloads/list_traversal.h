// Offloaded linked-list traversal (paper §5.3, Fig 12).
//
// The list is walked entirely by the NIC: each unrolled iteration READs a
// node, and the READ's scatter list simultaneously (a) drops the node's key
// into the ctrl word the CAS will test, (b) patches the NEXT iteration's
// READ with the node's `next` pointer ("Copy Ni+1 = Ni->next to next
// iteration"), and (c) stages the node's value for the response WRITE. A
// CAS per iteration promotes the response when the key matches.
//
// Two variants, as evaluated in Fig 13:
//  - plain: all `iterations` iterations always execute; the matching one
//    fires the response. More WRs, but no conditional gating per step.
//  - break: each iteration carries a break WR. On a match the (promoted)
//    break WRITE rewrites the response WR's header in place — opcode NOOP ->
//    WRITE_IMM *and* signaled -> unsignaled. Since the next iteration's gate
//    WAITs on the response queue's completion count (which only unsignaled-
//    miss NOOPs feed), the loop stops dead after a hit: exactly the paper's
//    "modify the last WR in the loop such that it does not trigger a
//    completion event".
//
// A traversal offload object arms ONE request (the paper's unrolled mode,
// where the CPU re-posts chains per request, §3.4).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "redn/program.h"

namespace redn::offloads {

using core::Program;
using core::WrRef;
using rnic::QueuePair;

// A singly-linked list of {key, next, value[value_len]} nodes in one
// registered region.
class ListStore {
 public:
  ListStore(rnic::RnicDevice& dev, std::size_t max_nodes,
            std::uint32_t value_len);

  // Appends a node; returns its address. Values are `value_len` bytes.
  std::uint64_t Append(std::uint64_t key, const void* value);
  void AppendPattern(std::uint64_t key);

  std::uint64_t head() const { return head_; }
  std::uint32_t rkey() const { return mr_.rkey; }
  std::uint32_t value_len() const { return value_len_; }
  std::size_t size() const { return count_; }
  std::uint32_t node_bytes() const { return 16 + value_len_; }

  static std::byte PatternByte(std::uint64_t key, std::uint32_t i) {
    return static_cast<std::byte>((key * 3 + i) & 0xff);
  }

 private:
  rnic::ZeroedArray<std::byte> mem_;
  rnic::MemoryRegion mr_;
  std::uint32_t value_len_;
  std::size_t max_nodes_;
  std::size_t count_ = 0;
  std::uint64_t head_ = 0;
  std::uint64_t tail_ = 0;
};

class ListTraversalOffload {
 public:
  struct Config {
    int iterations = 8;  // unrolled loop length (list size in the paper)
    bool use_break = false;
  };

  // Arms one traversal request on `client_qp` (server-side, managed SQ).
  // The response value is written to (resp_addr, resp_rkey) with imm = 1.
  ListTraversalOffload(rnic::RnicDevice& server, const ListStore& list,
                       QueuePair* client_qp, Config cfg,
                       std::uint64_t resp_addr, std::uint32_t resp_rkey);
  // Destroying the offload destroys its private queues; a chain stalled in
  // a break gate dies with them instead of resurrecting later.
  ~ListTraversalOffload() { prog_.Abort(); }

  // Trigger message: PackCtrl(NOOP, key) repeated per iteration (the direct
  // RECV injection of §5.3) followed by the head node address.
  std::uint32_t TriggerBytes() const {
    return static_cast<std::uint32_t>(iterations_ + 1) * 8;
  }
  void BuildTrigger(std::uint64_t key, std::byte* out) const;

  int wrs_posted() const { return wrs_posted_; }

 private:
  const ListStore& list_;
  Program prog_;
  QueuePair* chain_;
  int iterations_ = 0;
  rnic::ZeroedArray<std::byte> scratch_;  // xbuf, staging, templates, sink
  rnic::MemoryRegion scratch_mr_;
  int wrs_posted_ = 0;
};

}  // namespace redn::offloads
