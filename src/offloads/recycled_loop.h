// WQ recycling: unbounded, CPU-free loops (paper §3.4, Table 2/3).
//
// The control ring contains exactly one loop round: ENABLE the managed body
// queue, WAIT for the body, ADD-update every WAIT/ENABLE threshold for the
// next round (ConnectX wqe_counts increase monotonically and never reset on
// wrap, so each round must bump them), then WAIT for the ADDs and ENABLE
// *itself* past its own tail — the NIC wraps the ring and runs the next
// round with the freshly updated thresholds. Once launched, the loop makes
// progress forever with zero CPU involvement: this is requirement T3
// (nontermination) of the Turing-completeness argument, and the property
// that keeps offloads alive through host crashes (§5.6).
//
// The body increments a counter in registered memory, so tests and benches
// can observe loop progress directly.
#pragma once

#include <cstdint>
#include <memory>

#include "redn/program.h"

namespace redn::offloads {

class RecycledAddLoop {
 public:
  // `body_wrs` = managed WRs executed per loop round. 1 is the bare
  // counter loop; 3 models the paper's recycled `while` body (condition
  // CAS + conditional WR + counter), whose extra serialized fetches give
  // Table 3's ~0.3M iterations/s.
  explicit RecycledAddLoop(rnic::RnicDevice& dev, int body_wrs = 1);

  // Posts the ring and rings the doorbell once. The loop then self-sustains.
  void Start();

  // Loop progress: number of body executions so far.
  std::uint64_t iterations() const { return rnic::dma::ReadU64(counter_addr_); }

  // Kills the loop by dropping its QPs into error state (the only way to
  // stop a nonterminating NIC program other than the §3.5 rate limiter /
  // connection teardown).
  void Kill(int owner_pid = 0);

  // WR budget of one loop round (Table 2's `while` with WQ recycling).
  const core::WrBudget& budget() const { return prog_.budget(); }

  rnic::QueuePair* ring() { return ring_; }
  rnic::QueuePair* body() { return body_; }

 private:
  rnic::RnicDevice& dev_;
  core::Program prog_;
  rnic::QueuePair* body_ = nullptr;
  rnic::QueuePair* ring_ = nullptr;
  int body_wrs_ = 1;
  rnic::ZeroedArray<std::uint64_t> counter_;
  rnic::MemoryRegion counter_mr_;
  std::uint64_t counter_addr_ = 0;
  bool started_ = false;
};

}  // namespace redn::offloads
