// Client-NIC failover detour for chain-replicated gets (the service layer's
// "offloaded failover" — the RedN twist on fig16 applied to the *client*).
//
// Healthy path: the tenant's trigger SENDs to the primary shard are
// unsignaled, so the primary connection's send CQ receives a CQE ONLY when
// a send fails — the transport retry budget dying (RETRY_EXC_ERR /
// RNR_RETRY_EXC_ERR after a blackhole or receiver stall) or a dead-peer
// NAK (the shard process crashed). That makes the send CQ's hw count a
// pure failure detector a WAIT verb can watch.
//
// The detour pre-installed on the tenant NIC:
//
//   backup QP SQ  : one parked, unsignaled SEND of the trigger buffer —
//   (managed)       posted but never doorbelled; managed queues only
//                   advance via ENABLE. The buffer is gathered at
//                   *execution* time, so the host rewrites it per issued
//                   get (SetKey) while the parked WQE never moves.
//   control queue : WAIT (primary send CQ, hw+1) -> ENABLE (backup SQ,
//                   parked slot+1)
//
// On the failure CQE the WAIT wakes, the ENABLE releases the parked SEND,
// and the already-armed get fires against the backup shard — zero host
// instructions between primary failure and backup issue. The backup's
// response lands on the backup harness's recv CQ like any other get.
//
// One failover event per Arm(): WR_FLUSH CQEs trailing the failure push the
// CQ past the threshold but no further WAIT is armed, so the chain cannot
// double-fire. After the fault heals and the primary QPs re-arm, Rearm()
// parks a fresh SEND and a fresh WAIT at the CQ's current count.
#pragma once

#include <cstdint>
#include <memory>

#include "offloads/hash_harness.h"
#include "redn/program.h"

namespace redn::offloads {

class ClientFailoverChain {
 public:
  // `primary` serves the watched shard, `backup` its chain successor; both
  // must share the same client device (the tenant NIC) and the backup's
  // client SQ must be managed (HashGetOffload::Config::managed_client_sq).
  // `max_arms` bounds Arm() + Rearm() calls over the chain's lifetime.
  ClientFailoverChain(HashGetHarness& primary, HashGetHarness& backup,
                      int max_arms = 16);

  // Parks the detour SEND and installs the WAIT/ENABLE pair. Call once up
  // front; call Rearm() instead after the chain fired and the primary
  // healed (a second Arm behind a still-blocked WAIT would release a
  // duplicate trigger on the next failure).
  void Arm();
  void Rearm() { Arm(); }

  // Host-side (healthy-path) work: rewrites the parked trigger's bytes for
  // the get being issued, so the detour — if it fires — retries exactly the
  // in-flight key against the backup.
  void SetKey(std::uint64_t key);

  int arms() const { return arms_; }
  // The send-CQ count the current WAIT fires at (tests).
  std::uint64_t wait_threshold() const { return wait_threshold_; }

 private:
  HashGetHarness& primary_;
  HashGetHarness& backup_;
  core::Program prog_;
  rnic::ZeroedArray<std::byte> trig_buf_;
  rnic::MemoryRegion trig_mr_;
  int arms_ = 0;
  std::uint64_t wait_threshold_ = 0;
};

}  // namespace redn::offloads
