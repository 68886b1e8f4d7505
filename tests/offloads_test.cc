// Integration tests for the RedN offloads: hash gets (Fig 9), list
// traversal (Fig 12), RPC triggers (Figs 3/4), and recycled loops (§3.4).
#include <gtest/gtest.h>

#include "offloads/hash_harness.h"
#include "offloads/list_traversal.h"
#include "offloads/recycled_loop.h"
#include "offloads/rpc.h"
#include "sim/stats.h"
#include "testbed.h"

namespace redn::test {
namespace {

using offloads::HashGetHarness;
using offloads::HashGetOffload;
using offloads::ListStore;
using offloads::ListTraversalOffload;

class OffloadTest : public ::testing::Test {
 protected:
  TestBed bed;
};

// ---------------------------------------------------------------------------
// Hash lookups
// ---------------------------------------------------------------------------

TEST_F(OffloadTest, HashGetHitReturnsValue) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(42, 64);
  h.Arm(4);
  auto r = h.Get(42);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.len, 64u);
  EXPECT_TRUE(h.ResponseMatchesPattern(42, 64));
}

TEST_F(OffloadTest, HashGetMissReturnsNothing) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(42, 64);
  h.Arm(4);
  auto r = h.Get(43, sim::Micros(60));
  EXPECT_FALSE(r.found);
}

TEST_F(OffloadTest, HashGetRepeatedRequestsReuseArmedChains) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  for (std::uint64_t k = 1; k <= 16; ++k) h.PutPattern(k, 32);
  h.Arm(16);
  for (std::uint64_t k = 1; k <= 16; ++k) {
    auto r = h.Get(k);
    ASSERT_TRUE(r.found) << "key " << k;
    EXPECT_TRUE(h.ResponseMatchesPattern(k, 32));
  }
}

TEST_F(OffloadTest, HashGetSecondBucketSequential) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 2, .parallel = false});
  h.PutPattern(77, 64, /*force_second=*/true);
  h.Arm(2);
  auto r = h.Get(77);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(h.ResponseMatchesPattern(77, 64));
}

TEST_F(OffloadTest, HashGetSecondBucketParallel) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 2, .parallel = true});
  h.PutPattern(77, 64, /*force_second=*/true);
  h.Arm(2);
  auto r = h.Get(77);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(h.ResponseMatchesPattern(77, 64));
}

// A key whose two candidate buckets coincide (H1 == H2) matches on both
// probes of a 2-bucket get. It must still be answered exactly once: an
// extra response would be read by the next get as its value.
TEST(OffloadSameBucket, AnsweredOnceAndNextGetReadsItsOwnValue) {
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "sequential");
    TestBed bed;
    HashGetHarness h(bed.client, bed.server,
                     {.buckets = 2, .parallel = parallel});
    std::uint64_t same = 1;
    while (h.table().BucketAddr1(same) != h.table().BucketAddr2(same)) {
      ++same;
    }
    const std::uint64_t other = same + 1;
    ASSERT_NE(h.table().BucketAddr1(other), h.table().BucketAddr2(other));
    h.PutPattern(same, 64);
    h.PutPattern(other, 128);
    h.Arm(4);

    const auto r1 = h.Get(same);
    ASSERT_TRUE(r1.found);
    EXPECT_EQ(r1.len, 64u);
    EXPECT_TRUE(h.ResponseMatchesPattern(same, 64));
    // Let any second response land, then check none did.
    bed.sim.RunUntil(bed.sim.now() + sim::Micros(50));
    rnic::Cqe extra;
    EXPECT_EQ(bed.client.PollCq(h.client_recv_cq(), 1, &extra), 0);

    const auto r2 = h.Get(other);
    ASSERT_TRUE(r2.found);
    EXPECT_EQ(r2.len, 128u);
    EXPECT_TRUE(h.ResponseMatchesPattern(other, 128));
  }
}

// The fabric-scale shape: several clients' harnesses over one server store
// (RedN §5), filled once. Each get reads the shared table and heap, and its
// response lands in the asking client's buffer only.
TEST(OffloadSharedStore, ClientsShareOneStoreAndReadOnlyTheirOwnResponses) {
  TestBed bed;
  RnicDevice client2(bed.sim, NicConfig::ConnectX5(), Calibration{},
                     "client2");
  kv::RdmaHashTable table(bed.server, {.buckets = 1 << 10});
  kv::ValueHeap heap(bed.server, 64 << 10);
  constexpr std::uint64_t kKeys = 8;
  // Distinct lengths as well as patterns: a response read by the wrong
  // client would show in the CQE's byte count.
  auto len_of = [](std::uint64_t key) {
    return static_cast<std::uint32_t>(32 * key);
  };
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    kv::PutPattern(table, heap, k, len_of(k));
    ASSERT_TRUE(table.NicVisible(k)) << "key " << k;
  }
  const HashGetOffload::Config cfg{.buckets = 2, .max_requests = 40};
  HashGetHarness h1(bed.client, bed.server, cfg, table, heap);
  HashGetHarness h2(client2, bed.server, cfg, table, heap);
  h1.Arm(2 * kKeys);
  h2.Arm(2 * kKeys);

  // Alternating gets: each one answers its own client and leaves the
  // other's response count alone.
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    SCOPED_TRACE(k);
    const std::uint64_t k2 = kKeys + 1 - k;
    const auto r1 = h1.Get(k);
    ASSERT_TRUE(r1.found);
    EXPECT_EQ(r1.len, len_of(k));
    EXPECT_TRUE(h1.ResponseMatchesPattern(k, len_of(k)));
    EXPECT_EQ(h2.response_count(), k - 1);
    const auto r2 = h2.Get(k2);
    ASSERT_TRUE(r2.found);
    EXPECT_EQ(r2.len, len_of(k2));
    EXPECT_TRUE(h2.ResponseMatchesPattern(k2, len_of(k2)));
    EXPECT_EQ(h1.response_count(), k);
  }

  // Concurrent gets: both triggers in flight on the shared store at once.
  for (std::uint64_t k = 1; k <= kKeys; ++k) {
    SCOPED_TRACE(k);
    const std::uint64_t k2 = kKeys + 1 - k;
    ASSERT_TRUE(h1.SendTrigger(k));
    ASSERT_TRUE(h2.SendTrigger(k2));
    bed.sim.RunUntil(bed.sim.now() + sim::Micros(50));
    for (auto [h, key] : {std::pair{&h1, k}, std::pair{&h2, k2}}) {
      rnic::Cqe cqe;
      ASSERT_EQ(h->client_dev().PollCq(h->client_recv_cq(), 1, &cqe), 1);
      EXPECT_EQ(cqe.status, rnic::WcStatus::kSuccess);
      EXPECT_EQ(cqe.byte_len, len_of(key));
      h->NoteOpenLoopResponse(cqe.qp_id);
      EXPECT_TRUE(h->ResponseMatchesPattern(key, len_of(key)));
      EXPECT_EQ(h->client_dev().PollCq(h->client_recv_cq(), 1, &cqe), 0);
    }
  }
  EXPECT_EQ(h1.response_count(), 2 * kKeys);
  EXPECT_EQ(h2.response_count(), 2 * kKeys);
}

TEST_F(OffloadTest, HashGetParallelFasterThanSequentialOnCollision) {
  // Fig 11: with the key always in the second bucket, parallel probing
  // hides the second lookup almost entirely; sequential pays ~3 us extra.
  HashGetHarness hs(bed.client, bed.server, {.buckets = 2, .parallel = false});
  hs.PutPattern(77, 64, /*force_second=*/true);
  hs.Arm(2);
  const auto seq = hs.Get(77);
  ASSERT_TRUE(seq.found);

  TestBed bed2;
  HashGetHarness hp(bed2.client, bed2.server, {.buckets = 2, .parallel = true});
  hp.PutPattern(77, 64, /*force_second=*/true);
  hp.Arm(2);
  const auto par = hp.Get(77);
  ASSERT_TRUE(par.found);
  EXPECT_LT(par.latency, seq.latency - sim::Micros(1.5));
}

TEST_F(OffloadTest, HashGetNoCollisionLatencyNearPaper) {
  // Table 5: 64 B gets complete in ~5.7 us median on the paper's testbed.
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(42, 64);
  h.Arm(8);
  sim::LatencyRecorder rec;
  for (int i = 0; i < 8; ++i) {
    auto r = h.Get(42);
    ASSERT_TRUE(r.found);
    rec.Add(r.latency);
  }
  EXPECT_GT(rec.MedianUs(), 3.5);
  EXPECT_LT(rec.MedianUs(), 8.0);
}

TEST_F(OffloadTest, HashGetLargeValue) {
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(9, 64 * 1024);
  h.Arm(2);
  auto r = h.Get(9, sim::Micros(500));
  ASSERT_TRUE(r.found);
  EXPECT_EQ(r.len, 64u * 1024);
  EXPECT_TRUE(h.ResponseMatchesPattern(9, 64 * 1024));
}

TEST_F(OffloadTest, HashGetServesWithoutServerCpuAfterArming) {
  // The whole point of the offload: once armed, requests are served with
  // zero server-side host activity. We verify no *new* server-side posting
  // happens during gets (all doorbells/posts precede the first trigger).
  HashGetHarness h(bed.client, bed.server, {.buckets = 1});
  h.PutPattern(5, 64);
  h.Arm(8);
  bed.sim.Run();  // settle arming
  const auto doorbells_before = bed.server.counters().doorbells;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(h.Get(5).found);
  }
  EXPECT_EQ(bed.server.counters().doorbells, doorbells_before);
}

// ---------------------------------------------------------------------------
// Linked-list traversal
// ---------------------------------------------------------------------------

struct ListRig {
  TestBed& bed;
  ListStore list;
  rnic::QueuePair* srv_qp;
  rnic::QueuePair* cli_qp;
  Buffer resp;
  Buffer msg;

  ListRig(TestBed& b, int nodes, std::uint32_t vlen)
      : bed(b), list(b.server, nodes + 1, vlen) {
    rnic::QpConfig s;
    s.sq_depth = 4096;
    s.rq_depth = 256;
    s.managed = true;
    s.send_cq = b.server.CreateCq();
    s.recv_cq = b.server.CreateCq();
    srv_qp = b.server.CreateQp(s);
    rnic::QpConfig c;
    c.sq_depth = 256;
    c.rq_depth = 256;
    c.send_cq = b.client.CreateCq();
    c.recv_cq = b.client.CreateCq();
    cli_qp = b.client.CreateQp(c);
    rnic::Connect(cli_qp, srv_qp, rnic::Calibration{}.net_one_way);
    resp = bed.Alloc(b.client, vlen);
    msg = bed.Alloc(b.client, 16 * 8);  // up to 15 iterations + head
    for (int i = 0; i < nodes; ++i) list.AppendPattern(100 + i);
  }

  // One traversal; arms a fresh chain (the paper's unrolled mode).
  HashGetHarness::Result Get(std::uint64_t key, bool use_break,
                             int iterations) {
    ListTraversalOffload off(bed.server, list, srv_qp,
                             {.iterations = iterations, .use_break = use_break},
                             resp.addr(), resp.rkey());
    verbs::RecvWr rwr;
    verbs::PostRecv(cli_qp, rwr);
    off.BuildTrigger(key, msg.bytes());
    auto& sim = bed.sim;
    const sim::Nanos t0 = sim.now();
    verbs::PostSendNow(cli_qp,
                       verbs::MakeSend(msg.addr(), off.TriggerBytes(),
                                       msg.lkey(), /*signaled=*/false));
    verbs::Cqe cqe;
    HashGetHarness::Result r;
    if (verbs::AwaitCqe(sim, bed.client, cli_qp->recv_cq, &cqe,
                        t0 + sim::Micros(400))) {
      r.found = true;
      r.latency = sim.now() - t0;
      r.len = cqe.byte_len;
    }
    // Quiesce before `off` (and the SGE tables the NIC references) dies.
    sim.Run();
    return r;
  }

  bool ResponseMatches(std::uint64_t key, std::uint32_t vlen) const {
    for (std::uint32_t i = 0; i < vlen; ++i) {
      if (resp.data[i] != ListStore::PatternByte(key, i)) return false;
    }
    return true;
  }
};

TEST_F(OffloadTest, ListTraversalFindsEachPosition) {
  ListRig rig(bed, 8, 64);
  for (int pos = 0; pos < 8; ++pos) {
    auto r = rig.Get(100 + pos, /*use_break=*/false, 8);
    ASSERT_TRUE(r.found) << "position " << pos;
    EXPECT_TRUE(rig.ResponseMatches(100 + pos, 64));
  }
}

TEST_F(OffloadTest, ListTraversalWithBreakFindsEachPosition) {
  ListRig rig(bed, 8, 64);
  for (int pos = 0; pos < 8; ++pos) {
    auto r = rig.Get(100 + pos, /*use_break=*/true, 8);
    ASSERT_TRUE(r.found) << "position " << pos;
    EXPECT_TRUE(rig.ResponseMatches(100 + pos, 64));
  }
}

TEST_F(OffloadTest, ListTraversalMissesAbsentKey) {
  ListRig rig(bed, 8, 64);
  auto r = rig.Get(999, /*use_break=*/false, 8);
  EXPECT_FALSE(r.found);
}

TEST_F(OffloadTest, BreakSavesWorkRequests) {
  // §5.3: without breaks every iteration executes; with breaks the chain
  // stops after the hit. Key at position 1 of 8: the break variant must
  // execute far fewer WRs.
  ListRig rig(bed, 8, 64);
  bed.sim.Run();
  const auto before_nobreak = bed.server.counters().TotalExecuted();
  ASSERT_TRUE(rig.Get(101, false, 8).found);
  bed.sim.Run();
  const auto nobreak = bed.server.counters().TotalExecuted() - before_nobreak;

  const auto before_break = bed.server.counters().TotalExecuted();
  ASSERT_TRUE(rig.Get(101, true, 8).found);
  bed.sim.RunUntil(bed.sim.now() + sim::Micros(100));
  const auto wbreak = bed.server.counters().TotalExecuted() - before_break;
  EXPECT_LT(wbreak, nobreak * 2 / 3);  // paper: no-break uses >65% more WRs
}

TEST_F(OffloadTest, BreakStopsLaterIterationsCompletely) {
  // After a hit at position 0, iteration 1+ must never execute: the READ
  // count for the traversal stays at 1.
  ListRig rig(bed, 8, 64);
  bed.sim.Run();
  const auto reads_before =
      bed.server.counters().executed_by_opcode[int(rnic::Opcode::kRead)];
  ASSERT_TRUE(rig.Get(100, true, 8).found);
  bed.sim.RunUntil(bed.sim.now() + sim::Micros(200));
  const auto reads =
      bed.server.counters().executed_by_opcode[int(rnic::Opcode::kRead)] -
      reads_before;
  EXPECT_EQ(reads, 1u);
}

// ---------------------------------------------------------------------------
// RPC offloads
// ---------------------------------------------------------------------------

struct RpcRig {
  TestBed& bed;
  rnic::QueuePair* srv_qp;
  rnic::QueuePair* cli_qp;
  Buffer resp;
  Buffer msg;

  explicit RpcRig(TestBed& b, std::size_t bufsz = 256) : bed(b) {
    rnic::QpConfig s;
    s.sq_depth = 4096;
    s.rq_depth = 4096;
    s.managed = true;
    s.send_cq = b.server.CreateCq();
    s.recv_cq = b.server.CreateCq();
    srv_qp = b.server.CreateQp(s);
    rnic::QpConfig c;
    c.send_cq = b.client.CreateCq();
    c.recv_cq = b.client.CreateCq();
    cli_qp = b.client.CreateQp(c);
    rnic::Connect(cli_qp, srv_qp, rnic::Calibration{}.net_one_way);
    resp = bed.Alloc(b.client, bufsz);
    msg = bed.Alloc(b.client, bufsz);
  }

  bool Call(std::uint32_t len, verbs::Cqe* out) {
    verbs::RecvWr rwr;
    verbs::PostRecv(cli_qp, rwr);
    verbs::PostSendNow(cli_qp, verbs::MakeSend(msg.addr(), len, msg.lkey(),
                                               /*signaled=*/false));
    return verbs::AwaitCqe(bed.sim, bed.client, cli_qp->recv_cq, out,
                           bed.sim.now() + sim::Micros(100));
  }
};

TEST_F(OffloadTest, EchoRpcRoundTripsPayload) {
  RpcRig rig(bed);
  offloads::EchoRpcOffload echo(bed.server, rig.srv_qp, 32, /*n=*/4,
                                rig.resp.addr(), rig.resp.rkey());
  for (int r = 0; r < 4; ++r) {
    rig.msg.SetU64(0, 0x1111 * (r + 1));
    rig.msg.SetU64(1, 0x2222 * (r + 1));
    verbs::Cqe cqe;
    ASSERT_TRUE(rig.Call(32, &cqe));
    EXPECT_EQ(cqe.imm, static_cast<std::uint32_t>(r + 1));
    EXPECT_EQ(rig.resp.U64(0), 0x1111u * (r + 1));
    EXPECT_EQ(rig.resp.U64(1), 0x2222u * (r + 1));
  }
}

TEST_F(OffloadTest, CondRpcComparesAgainstConstant) {
  RpcRig rig(bed);
  offloads::CondRpcOffload cond(bed.server, rig.srv_qp, /*y=*/5, /*n=*/4,
                                rig.resp.addr(), rig.resp.rkey());
  const std::uint64_t xs[4] = {5, 7, 5, 0};
  const std::uint64_t want[4] = {1, 0, 1, 0};
  for (int r = 0; r < 4; ++r) {
    offloads::CondRpcOffload::BuildTrigger(xs[r], rig.msg.bytes());
    verbs::Cqe cqe;
    ASSERT_TRUE(rig.Call(8, &cqe));
    EXPECT_EQ(rig.resp.U64(0), want[r]) << "x=" << xs[r];
  }
}

// ---------------------------------------------------------------------------
// Recycled loops
// ---------------------------------------------------------------------------

TEST_F(OffloadTest, RecycledLoopRunsWithoutCpu) {
  offloads::RecycledAddLoop loop(bed.server);
  loop.Start();
  bed.sim.RunUntil(sim::Micros(200));
  const std::uint64_t at_200us = loop.iterations();
  EXPECT_GT(at_200us, 10u);
  // No further host involvement — the loop keeps making progress.
  bed.sim.RunUntil(sim::Micros(400));
  EXPECT_GT(loop.iterations(), at_200us + 10);
}

TEST_F(OffloadTest, RecycledLoopRateMatchesTable3) {
  // Table 3: while with WQ recycling executes ~0.3M iterations/s.
  offloads::RecycledAddLoop loop(bed.server);
  loop.Start();
  bed.sim.RunUntil(sim::Millis(2));
  const double rate =
      static_cast<double>(loop.iterations()) / sim::ToSeconds(sim::Millis(2));
  EXPECT_GT(rate, 0.15e6);
  EXPECT_LT(rate, 0.6e6);
}

TEST_F(OffloadTest, RecycledLoopStopsWhenKilled) {
  offloads::RecycledAddLoop loop(bed.server);
  loop.Start();
  bed.sim.RunUntil(sim::Micros(100));
  loop.Kill();
  const std::uint64_t frozen = loop.iterations();
  bed.sim.RunUntil(sim::Micros(300));
  EXPECT_LE(loop.iterations(), frozen + 1);
}

TEST_F(OffloadTest, RateLimiterThrottlesRecycledLoop) {
  // §3.5 Isolation: a WQ rate limit bounds even runaway loops.
  offloads::RecycledAddLoop unlimited(bed.server);
  unlimited.Start();
  offloads::RecycledAddLoop limited(bed.server);
  limited.body()->rate_gap = sim::Micros(50);  // 20K iterations/s cap
  limited.Start();
  bed.sim.RunUntil(sim::Millis(2));
  EXPECT_GT(unlimited.iterations(), limited.iterations() * 5);
}

}  // namespace
}  // namespace redn::test
