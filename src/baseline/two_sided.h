// Two-sided RPC-over-RDMA key-value serving (the paper's CPU baseline).
//
// Clients SEND a 32-byte request; the server CPU (a simulated actor)
// notices the completion (busy-poll or event wakeup), runs the handler, and
// returns the value with a WRITE_IMM. Three flavours:
//   kPolling — dedicated spinning core, minimal detect latency.
//   kEvent   — blocks on completion events; adds wakeup latency.
//   kVma     — polling + user-space sockets stack costs and receive copies
//              (the Memcached-over-LibVMA configuration of Fig 14).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <memory>
#include <vector>

#include "baseline/calibration.h"
#include "kv/table.h"
#include "rnic/device.h"
#include "sim/resource.h"
#include "sim/rng.h"
#include "verbs/verbs.h"

namespace redn::baseline {

// Request wire format (32 bytes). The op word packs a client-chosen
// sequence number above the opcode; the server echoes it in the response
// immediate so clients can match responses to requests across drops.
struct Request {
  std::uint64_t op;  // [63:8] sequence | [7:0] opcode (1 = get, 2 = set)
  std::uint64_t key;
  std::uint64_t resp_addr;
  std::uint32_t resp_rkey;
  std::uint32_t set_len;  // set: value length (payload follows conceptually)
};
inline constexpr std::uint32_t kRequestBytes = 32;
inline constexpr std::uint64_t kOpGet = 1;
inline constexpr std::uint64_t kOpSet = 2;

class TwoSidedKvServer {
 public:
  enum class Mode { kPolling, kEvent, kVma };

  TwoSidedKvServer(rnic::RnicDevice& dev, kv::RdmaHashTable& table,
                   kv::ValueHeap& heap, Mode mode,
                   BaselineCalibration cal = {});

  // Creates the server-side QP for a new client and keeps its RQ stocked.
  rnic::QueuePair* AddClient();

  Mode mode() const { return mode_; }
  const BaselineCalibration& cal() const { return cal_; }

  // Number of closed-loop writers loading this server (contention knob for
  // the Fig 15 experiment; inflates handler tails).
  void set_writers(int n) { writers_ = n; }

  // Process/OS liveness. While dead, requests are silently dropped (the
  // paper's vanilla-Memcached crash window).
  void set_alive(bool alive) { alive_ = alive; }
  bool alive() const { return alive_; }

  std::uint64_t gets_served() const { return gets_served_; }
  std::uint64_t sets_served() const { return sets_served_; }

 private:
  struct ClientCtx {
    rnic::QueuePair* qp;
    rnic::ZeroedArray<std::byte> req_bufs;  // ring of request buffers
    rnic::MemoryRegion req_mr;
    int next_slot = 0;
  };

  void RestockRecv(ClientCtx& ctx);
  void OnRecvCqe(ClientCtx& ctx);
  void Handle(ClientCtx& ctx, Request req);
  sim::Nanos ContentionNoise();

  rnic::RnicDevice& dev_;
  kv::RdmaHashTable& table_;
  kv::ValueHeap& heap_;
  Mode mode_;
  BaselineCalibration cal_;
  sim::FifoResource cpu_;  // the single RPC-serving core
  sim::Rng rng_{0xbadc0ffee};
  std::vector<std::unique_ptr<ClientCtx>> clients_;
  int writers_ = 0;
  bool alive_ = true;
  std::uint64_t gets_served_ = 0;
  std::uint64_t sets_served_ = 0;

  static constexpr int kRecvRing = 64;
};

// Client-side helper for the two-sided protocol.
class TwoSidedKvClient {
 public:
  TwoSidedKvClient(rnic::RnicDevice& cdev, TwoSidedKvServer& server,
                   std::size_t max_value = 64 << 10);

  struct Result {
    bool ok = false;
    sim::Nanos latency = 0;
    std::uint32_t len = 0;
  };

  // Blocking operations (step the simulator until the response arrives).
  Result Get(std::uint64_t key, sim::Nanos timeout = sim::Millis(5));
  Result Set(std::uint64_t key, std::uint32_t len,
             sim::Nanos timeout = sim::Millis(5));

  // Non-blocking: send and invoke `done(latency)` when the response lands
  // (or never, if the server dropped the request). For open-loop drivers.
  void SendGet(std::uint64_t key, std::function<void(sim::Nanos)> done);
  void SendSet(std::uint64_t key, std::uint32_t len,
               std::function<void(sim::Nanos)> done);

  std::uint64_t responses() const { return responses_; }

 private:
  void EnsureRecv();
  void Send(std::uint64_t op, std::uint64_t key, std::uint32_t len,
            std::function<void(sim::Nanos)> done);
  Result Blocking(std::uint64_t op, std::uint64_t key, std::uint32_t len,
                  sim::Nanos timeout);
  void OnResponse();

  rnic::RnicDevice& cdev_;
  TwoSidedKvServer& server_;
  struct Pending {
    sim::Nanos t0;
    std::function<void(sim::Nanos)> done;
  };

  rnic::QueuePair* qp_ = nullptr;
  rnic::ZeroedArray<std::byte> bufs_;  // [request 32B][response max_value]
  rnic::MemoryRegion mr_;
  std::unordered_map<std::uint32_t, Pending> pending_;
  std::uint32_t next_seq_ = 1;
  int recvs_outstanding_ = 0;
  std::uint64_t responses_ = 0;
};

}  // namespace redn::baseline
