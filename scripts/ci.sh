#!/usr/bin/env bash
# CI entry point: build Release + Debug, run the test suite in both, run
# bench_simcore + bench_scale_fanout (Release) and enforce perf floors, then
# diff all 15 paper fig/table benches and the simulated fields of the 5
# scale benches against committed goldens so semantic regressions (timing,
# ordering, completion counting) fail loudly instead of rotting silently.
#
# An ASan+UBSan Debug build then re-runs the whole ctest suite — the
# slab/inline-callback fast paths are exactly the code sanitizers exist
# for. `--sanitize-only` runs just that stage (the dedicated GitHub job);
# `--skip-sanitize` skips it.
#
# A ThreadSanitizer build (`--tsan-only` for the dedicated job,
# `--skip-tsan` to skip) runs the sharded-engine tests and small --shards
# bench configurations under real threads: the sharded simulator's claim is
# that mailboxes and the round barrier are the only cross-thread edges, and
# TSan is what holds that claim.
#
# Usage: scripts/ci.sh [--skip-debug] [--skip-sanitize] [--sanitize-only]
#                      [--skip-tsan] [--tsan-only]
#
# Perf floors are deliberately conservative (~25% of the numbers in
# docs/PERF.md) so they trip on algorithmic regressions — an accidental
# heap allocation per event, a broken calendar cascade — not on machine
# noise or slow CI hardware. Override via MIN_CHAIN_EPS / MIN_BURST_EPS /
# MIN_FANOUT_EPS.
set -euo pipefail

cd "$(dirname "$0")/.."

SKIP_DEBUG=0
SKIP_SANITIZE=0
SANITIZE_ONLY=0
SKIP_TSAN=0
TSAN_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --skip-debug) SKIP_DEBUG=1 ;;
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    --sanitize-only) SANITIZE_ONLY=1 ;;
    --skip-tsan) SKIP_TSAN=1 ;;
    --tsan-only) TSAN_ONLY=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

MIN_CHAIN_EPS="${MIN_CHAIN_EPS:-10000000}"   # dispatch_chain events/sec floor
MIN_BURST_EPS="${MIN_BURST_EPS:-1500000}"    # dispatch_burst events/sec floor
MIN_FANOUT_EPS="${MIN_FANOUT_EPS:-2000000}"  # bench_scale_fanout events/sec floor
MIN_NETFABRIC_EPS="${MIN_NETFABRIC_EPS:-200000}"  # bench_scale_netfabric floor
MIN_LOSSY_EPS="${MIN_LOSSY_EPS:-150000}"          # bench_scale_lossy events/sec floor
MIN_LOSSY_GOODPUT="${MIN_LOSSY_GOODPUT:-10}"      # go-back-N Gb/s at 1% packet loss
# Selective-repeat goodput floor at 5% loss. The default is the *recorded
# go-back-N* number at 5% loss (~10 Gb/s quick): holding SR above it pins
# the SACK machinery's whole reason to exist — targeted resends must beat
# window rewinds, not just tie them. (The bench also asserts sr > gbn in
# the median over 10 transport seeds via its exit code; this floor catches
# slow drift against the recorded baseline.)
MIN_LOSSY_SR_GOODPUT="${MIN_LOSSY_SR_GOODPUT:-10}"
MIN_FAILOVER_EPS="${MIN_FAILOVER_EPS:-30000}"     # bench_scale_failover floor
# Bounded-outage floor: host-baseline stall / offloaded-failover blip. The
# detour chain answers a killed shard's gets ~170x faster than the host's
# multi-RTO timer in the recorded runs; 10x is the do-not-regress line.
MIN_FAILOVER_BLIP_RATIO="${MIN_FAILOVER_BLIP_RATIO:-10}"
# Recovery ceiling: crash -> re-joined -> fully re-synced -> serving, in
# simulated microseconds. The recorded quick runs finish the whole
# lifecycle (940us outage + anti-entropy transfer) in ~1.5-2.5ms; 5ms is
# the do-not-regress line for the re-sync machinery lingering.
MAX_RECOVERY_WINDOW="${MAX_RECOVERY_WINDOW:-5000}"
# Sharded-engine wall-clock floor: the embarrassingly-parallel fanout bench
# at 4 shards must run >= this multiple of its own 1-shard wall clock.
# Enforced only on machines with >= 4 cores — conservative threading cannot
# beat single-threaded dispatch on fewer cores than shards, so the check
# skips loudly (the GitHub runners have 4 vCPUs and do enforce it).
MIN_SHARD_SPEEDUP="${MIN_SHARD_SPEEDUP:-2.0}"

build_and_test() {
  local type="$1" dir="$2"
  shift 2
  echo "=== ${type} build ==="
  cmake -B "${dir}" -S . -DCMAKE_BUILD_TYPE="${type}" "$@" >/dev/null
  cmake --build "${dir}" -j"$(nproc)"
  (cd "${dir}" && ctest --output-on-failure -j"$(nproc)")
}

sanitize_stage() {
  # Full test suite under ASan+UBSan (abort on the first finding).
  echo "=== ASan+UBSan Debug build ==="
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug -DREDN_SANITIZE=ON >/dev/null
  cmake --build build-asan -j"$(nproc)"
  (cd build-asan &&
   ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
   UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
     ctest --output-on-failure -j"$(nproc)")
  # Re-run the reliability-engine tests at three extra RNG seeds: their
  # assertions are seed invariants (recovery completes, replay is
  # bit-stable, SR resends less than GBN), and shifting the loss pattern
  # walks ASan through different reassembly/flush/re-arm interleavings.
  echo "=== ASan+UBSan transport reliability seed sweep ==="
  for seed in 1 2 3; do
    (cd build-asan &&
     TRANSPORT_TEST_SEED="${seed}" \
     ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
     UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
       ./transport_test --gtest_brief=1 \
       --gtest_filter='TransportSr.*:TransportRnr.*:ReliabilityBed.*:TransportScale.*')
  done
  # The write-path/recovery tests once more, explicitly: the resync
  # sessions register staging buffers, take over CQ notify hooks, and
  # reconcile via raw value-heap pointers — exactly the lifetime and
  # aliasing hazards the sanitizers are here to catch.
  echo "=== ASan+UBSan KV recovery + resync ==="
  (cd build-asan &&
   ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}" \
   UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
     ./kv_recovery_test --gtest_brief=1)
}

tsan_stage() {
  # Sharded engine under ThreadSanitizer: the unit tests (real threads at
  # shards >= 2) plus small --shards bench configurations, which drive the
  # cross-shard device paths and the coordinator's round loop end to end.
  echo "=== TSan build (sharded engine) ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug -DREDN_TSAN=ON >/dev/null
  cmake --build build-tsan -j"$(nproc)" --target \
    sharded_sim_test transport_test bench_scale_fanout bench_scale_netfabric \
    bench_scale_lossy bench_scale_recovery
  (cd build-tsan && TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
     ./sharded_sim_test)
  (cd build-tsan && TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
     ./transport_test)
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ./build-tsan/bench_scale_fanout --quick --shards 4 --tenants 8
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ./build-tsan/bench_scale_netfabric --quick --clients 4 --value 4096 --shards 2
  # Split-flow transport across real threads: the per-endpoint halves talk
  # only through timestamped mailbox messages, and these two drive the
  # lossy/recovery packetized paths (retransmits, RNR, crash re-arm) with
  # the flows' halves on different shards.
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ./build-tsan/bench_scale_lossy --quick --shards 2
  TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
    ./build-tsan/bench_scale_recovery --quick --sim-shards 2
}

if [[ "${SANITIZE_ONLY}" -eq 1 ]]; then
  sanitize_stage
  exit 0
fi
if [[ "${TSAN_ONLY}" -eq 1 ]]; then
  tsan_stage
  exit 0
fi

build_and_test Release build-release
if [[ "${SKIP_DEBUG}" -eq 0 ]]; then
  build_and_test Debug build-debug
fi
if [[ "${SKIP_SANITIZE}" -eq 0 ]]; then
  sanitize_stage
fi
if [[ "${SKIP_TSAN}" -eq 0 ]]; then
  tsan_stage
fi

echo "=== bench_simcore perf floors ==="
bench_out="$(./build-release/bench_simcore --quick)"
echo "${bench_out}"

# Each scenario emits one `JSON {...}` record (bench/report.h).
get_field() {  # get_field <bench-name> <field>
  echo "${bench_out}" | grep "\"bench\":\"$1\"" \
    | sed -n "s/.*\"$2\":\([0-9.]*\).*/\1/p"
}

fail=0
check_floor() {  # check_floor <bench> <field> <min> <label>
  local val
  val="$(get_field "$1" "$2")"
  if [[ -z "${val}" ]]; then
    echo "FAIL: no JSON record for $1" >&2; fail=1; return
  fi
  if ! awk -v v="${val}" -v m="$3" 'BEGIN { exit !(v >= m) }'; then
    echo "FAIL: $4: ${val} < floor $3" >&2; fail=1
  else
    echo "OK:   $4: ${val} >= $3"
  fi
}

check_floor dispatch_chain events_per_sec "${MIN_CHAIN_EPS}" "dispatch_chain events/sec"
check_floor dispatch_burst events_per_sec "${MIN_BURST_EPS}" "dispatch_burst events/sec"
# Zero heap allocations per steady-state event: the slab must absorb
# every engine callback.
check_zero() {  # check_zero <bench> <field> <label>
  local val
  val="$(get_field "$1" "$2")"
  if [[ -z "${val}" ]]; then
    echo "FAIL: no JSON record for $1" >&2; fail=1; return
  fi
  if [[ "${val}" != "0" ]]; then
    echo "FAIL: $3: ${val} != 0" >&2; fail=1
  else
    echo "OK:   $3: 0"
  fi
}
for b in dispatch_chain dispatch_burst remote_write; do
  check_floor "$b" slab_hit_rate 0.99 "$b slab-hit rate"
  check_zero "$b" heap_fallbacks "$b heap fallbacks"
done
# Decoded-WQE translation cache: identical re-posts must verify-hit, so the
# steady-state hit rate sits near 1.0; a drop means the write-through /
# invalidation plumbing regressed (see docs/PERF.md).
check_floor remote_write wqe_cache_hit_rate 0.9 "remote_write wqe-cache hit rate"

echo "=== bench_scale_fanout perf floors ==="
bench_out="$(./build-release/bench_scale_fanout --quick)"
echo "${bench_out}"
check_floor scale_fanout events_per_sec "${MIN_FANOUT_EPS}" "scale_fanout events/sec"
check_floor scale_fanout slab_hit_rate 0.99 "scale_fanout slab-hit rate"
check_zero scale_fanout heap_fallbacks "scale_fanout heap fallbacks"
check_floor scale_fanout payload_reuse_rate 0.99 "scale_fanout payload-reuse rate"
# Self-recycling managed rings must keep hitting the translation cache even
# though three slots per lap are ADD-rewritten — the write-through refresh
# is what holds this above 0.9 (steady state ~1.0).
check_floor scale_fanout wqe_cache_hit_rate 0.9 "scale_fanout wqe-cache hit rate"

echo "=== bench_scale_netfabric perf floors ==="
# The bench self-checks contention and seed-stability (exit code); CI adds
# a wall-clock floor on top.
bench_out="$(./build-release/bench_scale_netfabric --quick)"
echo "${bench_out}"
check_floor scale_netfabric events_per_sec "${MIN_NETFABRIC_EPS}" "scale_netfabric events/sec"
check_floor scale_netfabric server_tx_util 0.5 "scale_netfabric server-link contention"
check_floor scale_netfabric deterministic 1 "scale_netfabric seed-stable rerun"

echo "=== sharded engine: determinism + speedup ==="
# Determinism at shards > 1 under real threads: the netfabric sharded
# section reruns its config and fails on any simulated-field divergence;
# the fanout sharded mode asserts flat simulated results across shard
# counts (its exit codes carry both).
bench_out="$(./build-release/bench_scale_netfabric --quick --shards 2)"
echo "${bench_out}" | grep '"bench":"scale_netfabric_sharded"'
check_floor scale_netfabric_sharded deterministic 1 "sharded netfabric bit-stable rerun"
check_floor scale_netfabric_sharded mailbox_sends 1 "sharded netfabric cross-shard traffic"
bench_out="$(./build-release/bench_scale_fanout --shards 4 --tenants 8)"
echo "${bench_out}" | grep '"bench":"scale_fanout_sharded"'
# Wall-clock speedup floor: only meaningful with enough cores to actually
# run 4 shards in parallel.
if [[ "$(nproc)" -ge 4 ]]; then
  check_floor scale_fanout_sharded wall_speedup_vs_1shard "${MIN_SHARD_SPEEDUP}" "sharded fanout wall speedup @4 shards"
else
  echo "SKIP: sharded speedup floor needs >= 4 cores, have $(nproc) — not enforced on this machine"
fi

echo "=== bench_scale_lossy perf floors ==="
# Packetized transport under packet loss, each rate run in both recovery
# modes with the same seed. The bench self-checks (exit code) that every
# get is answered at every loss rate in both modes, that goodput degrades
# monotonically with loss, that a same-seed rerun reproduces every
# simulated field bit for bit, and that the median SR goodput over a fixed
# set of 10 transport seeds strictly beats the GBN median at 5% loss. CI adds goodput floors — GBN at 1% loss (recovery must not
# collapse throughput) and SR at 5% loss (must clear the recorded GBN
# number) — plus the usual wall-clock floor. (The transport unit/device
# tests run in every ctest stage above, including the ASan+UBSan build
# with its reliability seed sweep.)
bench_out="$(./build-release/bench_scale_lossy --quick)"
echo "${bench_out}"
check_floor scale_lossy events_per_sec "${MIN_LOSSY_EPS}" "scale_lossy events/sec"
check_floor scale_lossy goodput_gbps "${MIN_LOSSY_GOODPUT}" "scale_lossy gbn goodput @1% loss"
check_floor scale_lossy sr_goodput_gbps_lossiest "${MIN_LOSSY_SR_GOODPUT}" "scale_lossy sr goodput @5% loss"
check_floor scale_lossy deterministic 1 "scale_lossy seed-stable rerun"

echo "=== sharded packetized transport: determinism ==="
# The same lossy workload with the flow halves split across two shards:
# the bench reruns the sharded config and fails (exit code) on any
# simulated-field divergence or lost response; CI re-asserts the rerun
# flag and that cross-shard DATA/ACK traffic actually rode the mailbox.
bench_out="$(./build-release/bench_scale_lossy --quick --shards 2)"
echo "${bench_out}" | grep '"bench":"scale_lossy"'
check_floor scale_lossy sharded_deterministic 1 "sharded lossy bit-stable rerun"
check_floor scale_lossy deterministic 1 "sharded lossy 1-shard rerun still bit-stable"

echo "=== bench_scale_failover bounded-outage floors + seed sweep ==="
# Sharded KV chain-replication failover A/B (offloaded WAIT/ENABLE detour
# vs host re-issue, same seed and FaultPlan). The bench self-checks (exit
# code) that both policies answer every get, that the detour actually
# fired, that the offload blip and p999 beat the host baseline outright,
# and that a same-seed rerun replays bit for bit. CI adds the
# bounded-outage floor (host stall / offload blip) and sweeps three seeds
# so the claim holds beyond the default key/fault alignment.
for seed in 1 2 3; do
  bench_out="$(./build-release/bench_scale_failover --quick --seed "${seed}")"
  if [[ "${seed}" == "1" ]]; then
    echo "${bench_out}"
  else
    echo "${bench_out}" | grep '"bench":"scale_failover"'
  fi
  check_zero scale_failover unanswered "scale_failover seed ${seed} offload unanswered gets"
  check_zero scale_failover host_unanswered "scale_failover seed ${seed} host unanswered gets"
  check_floor scale_failover blip_ratio "${MIN_FAILOVER_BLIP_RATIO}" "scale_failover seed ${seed} host-stall/offload-blip ratio"
  check_floor scale_failover deterministic 1 "scale_failover seed ${seed} seed-stable rerun"
done
check_floor scale_failover events_per_sec "${MIN_FAILOVER_EPS}" "scale_failover events/sec"

check_ceiling() {  # check_ceiling <bench> <field> <max> <label>
  local val
  val="$(get_field "$1" "$2")"
  if [[ -z "${val}" ]]; then
    echo "FAIL: no JSON record for $1" >&2; fail=1; return
  fi
  if ! awk -v v="${val}" -v m="$3" 'BEGIN { exit !(v <= m) }'; then
    echo "FAIL: $4: ${val} > ceiling $3" >&2; fail=1
  else
    echo "OK:   $4: ${val} <= $3"
  fi
}

echo "=== bench_scale_recovery zero-loss + bounded-window sweep ==="
# Chain-ordered writes through crash + re-join + anti-entropy re-sync,
# with a gray-failure slow window riding along. The bench self-checks
# (exit code) that every op completes, the write path acked puts through
# the fault, the crash re-joined and re-synced, and a same-seed rerun
# replays bit for bit. CI re-asserts the headline invariants per seed —
# zero acknowledged writes lost, zero read-your-writes violations, zero
# replica divergence — and holds the degraded window under the recovery
# ceiling so the re-sync machinery cannot silently start lingering.
for seed in 1 2 3; do
  bench_out="$(./build-release/bench_scale_recovery --quick --seed "${seed}")"
  if [[ "${seed}" == "1" ]]; then
    echo "${bench_out}"
  else
    echo "${bench_out}" | grep '"bench":"scale_recovery"'
  fi
  check_zero scale_recovery unanswered "scale_recovery seed ${seed} unanswered ops"
  check_zero scale_recovery lost_acked_writes "scale_recovery seed ${seed} lost acked writes"
  check_zero scale_recovery ryw_violations "scale_recovery seed ${seed} read-your-writes violations"
  check_zero scale_recovery value_divergence "scale_recovery seed ${seed} replica divergence"
  check_zero scale_recovery resync_failures "scale_recovery seed ${seed} resync failures"
  check_floor scale_recovery rejoins 1 "scale_recovery seed ${seed} crash re-joined"
  check_floor scale_recovery resyncs 1 "scale_recovery seed ${seed} anti-entropy ran"
  check_ceiling scale_recovery degraded_window_us "${MAX_RECOVERY_WINDOW}" "scale_recovery seed ${seed} degraded window us"
  check_floor scale_recovery deterministic 1 "scale_recovery seed ${seed} seed-stable rerun"
done

echo "=== sharded packetized recovery: spread tenants + determinism ==="
# The same crash/re-join/re-sync lifecycle with tenants placed off the
# service shard (every client<->service flow split across the mailbox).
# The bench self-checks (exit code) that the spread run serves every op,
# breaches no write invariant, and reruns bit for bit; CI re-asserts the
# rerun flag on the record.
bench_out="$(./build-release/bench_scale_recovery --quick --sim-shards 2)"
echo "${bench_out}" | grep '"bench":"scale_recovery"'
check_floor scale_recovery sharded_deterministic 1 "sharded recovery bit-stable rerun"
check_zero scale_recovery ryw_violations "sharded recovery read-your-writes violations"
check_zero scale_recovery lost_acked_writes "sharded recovery lost acked writes"

# Determinism guard: the 15 paper fig/table benches print only
# simulated-time results, so their stdout must match the committed goldens
# bit for bit. A diff here means engine/device semantics changed — timing,
# ordering, or completion counting — not just performance.
echo "=== golden output diffs ==="
for b in bench_fig7_verb_latency bench_fig8_ordering bench_fig10_hash_lookup \
         bench_fig11_hash_collisions bench_fig13_list_traversal \
         bench_fig14_memcached bench_fig15_isolation bench_fig16_failure \
         bench_table1_generations bench_table2_construct_cost \
         bench_table3_verb_throughput bench_table4_lookup_throughput \
         bench_table5_strom_comparison bench_table7_mov \
         bench_ablation_isolation; do
  if ! ./build-release/"${b}" | diff -u "tests/golden/${b}.golden" - ; then
    echo "FAIL: ${b} output diverged from tests/golden/${b}.golden" >&2
    fail=1
  else
    echo "OK:   ${b} matches golden"
  fi
done

# The scale benches' JSON records, `--quick` and default size, are pinned
# the same way, minus `events_per_sec`: it divides by host wall time, and it
# is the only field that varies between runs of one build. Every other
# field is simulated.
echo "=== scale bench simulated-output diffs ==="
for b in bench_scale_lossy bench_scale_recovery bench_scale_failover \
         bench_scale_netfabric bench_scale_fanout; do
  for mode in --quick ""; do
    golden="tests/golden/${b}${mode:+.quick}.golden"
    if ! ./build-release/"${b}" ${mode} | grep '^JSON ' \
         | sed -E 's/,"events_per_sec":[0-9.]+//' \
         | diff -u "${golden}" - ; then
      echo "FAIL: ${b} ${mode:-(default size)} simulated output diverged from ${golden}" >&2
      fail=1
    else
      echo "OK:   ${b} ${mode:-(default size)} matches golden"
    fi
  done
done

exit "${fail}"
