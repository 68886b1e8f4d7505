#include "offloads/failover_chain.h"

#include <stdexcept>

#include "rnic/device.h"

namespace redn::offloads {

ClientFailoverChain::ClientFailoverChain(HashGetHarness& primary,
                                         HashGetHarness& backup, int max_arms)
    : primary_(primary),
      backup_(backup),
      prog_(primary.client_dev(), /*port=*/0,
            /*control_depth=*/static_cast<std::uint32_t>(2 * max_arms + 8)) {
  if (&primary.client_dev() != &backup.client_dev()) {
    throw std::invalid_argument(
        "ClientFailoverChain: primary and backup must share a client NIC");
  }
  if (!backup.client_qp()->sq.managed()) {
    throw std::invalid_argument(
        "ClientFailoverChain: backup client SQ must be managed "
        "(set HashGetOffload::Config::managed_client_sq)");
  }
  trig_buf_ = rnic::MakeZeroed<std::byte>(64);
  trig_mr_ = primary.client_dev().pd().Register(trig_buf_.get(), 64,
                                                rnic::kAccessAll);
}

void ClientFailoverChain::Arm() {
  // The parked detour: posted (no doorbell — and managed SQs ignore
  // doorbells anyway), gathered from trig_buf_ only at execution time.
  const std::uint64_t slot = verbs::PostSend(
      backup_.client_qp(),
      verbs::MakeSend(trig_mr_.addr, backup_.offload().TriggerBytes(),
                      trig_mr_.lkey, /*signaled=*/false));
  // Unsignaled healthy-path sends keep the primary send CQ silent, so
  // "current count + 1" is exactly "the next failure CQE".
  wait_threshold_ = primary_.client_qp()->send_cq->hw_count() + 1;
  prog_.Wait(primary_.client_qp()->send_cq, wait_threshold_);
  prog_.Enable(backup_.client_qp(), slot + 1);
  prog_.Launch();
  ++arms_;
}

void ClientFailoverChain::SetKey(std::uint64_t key) {
  backup_.offload().BuildTrigger(key, trig_buf_.get());
}

}  // namespace redn::offloads
