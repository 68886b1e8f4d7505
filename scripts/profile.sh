#!/usr/bin/env bash
# gprof profiling wrapper: a -pg optimised build + gprof flat profile, so
# it needs neither perf nor valgrind.
#
# Usage: scripts/profile.sh [bench_binary] [bench args...]
#        scripts/profile.sh perfbench rep --workload <w> --seed <n>
#   scripts/profile.sh                       # bench_simcore, default args
#   scripts/profile.sh bench_scale_fanout --quick
#   scripts/profile.sh perfbench rep --workload kv-failover --seed 1
#
# The first 60 lines of the report go to stdout; the whole report is left
# in the build directory as gprof.txt.
#
# A root-CMake target (benches, examples) builds into build-prof/. The
# repo benchmark (`perfbench`, any of its modes and workloads) builds
# perfbench/CMakeLists.txt into build-prof-perfbench/ instead. Both are
# separate caches, so they never dirty the normal build trees or the
# benchmark's own .bench_build/. perfbench is built as RelWithDebInfo with
# Release's optimisation flags: its CMakeLists turns LTO on for Release
# only, and a -pg profile wants it off. It is also linked -static: gprof
# drops every sample that lands in a shared library, so a dynamic build
# hides libc time (memmove, memset, malloc) and blames its callers' self
# time instead.
#
# Caveats:
#  - gprof attributes inlined callees to their caller; for per-line detail
#    rebuild with -fno-inline (distorts timings) or read the annotated
#    flat profile together with the source.
#  - On multi-domain runs (perfbench lossy-sharded, --shards benches) the
#    flat profile's time column does include worker-thread samples
#    (ShardedSimulator::WorkerLoop, which runs only on workers, shows up),
#    but call counts and call-graph arcs are undercounts: glibc's mcount
#    records one arc at a time for the whole process and drops the arcs
#    of any thread that calls in meanwhile. Transport::OnDataMail reads
#    ~71k calls per lossy-sharded rep against ~172k per single-domain
#    lossy-transport rep of the same gets.
#  - Wall clock on a shared VM is ±20% noisy and the core count varies
#    (check `nproc`): use the *ranking*, not the absolute seconds, and
#    confirm wins with interleaved A/B runs of the real benches
#    (docs/PERF.md "Measuring", perfbench/NOTES.md).
set -euo pipefail

cd "$(dirname "$0")/.."

BENCH="${1:-bench_simcore}"
shift || true

PG_FLAGS="-pg -fno-omit-frame-pointer"
if [[ "${BENCH}" == "perfbench" ]]; then
  DIR=build-prof-perfbench
  cmake -B "${DIR}" -S perfbench -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O3 -DNDEBUG" \
    -DCMAKE_CXX_FLAGS="${PG_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="-pg -static" >/dev/null
else
  DIR=build-prof
  cmake -B "${DIR}" -S . -DCMAKE_BUILD_TYPE=Release \
    -DREDN_BUILD_TESTS=OFF -DREDN_BUILD_EXAMPLES=OFF -DREDN_LTO=OFF \
    -DCMAKE_CXX_FLAGS="-O2 ${PG_FLAGS}" \
    -DCMAKE_EXE_LINKER_FLAGS="-pg" >/dev/null
fi
cmake --build "${DIR}" -j"$(nproc)" --target "${BENCH}"

(cd "${DIR}" &&
 rm -f gmon.out &&
 ./"${BENCH}" "$@" >/dev/null &&
 gprof -b "./${BENCH}" gmon.out >gprof.txt &&
 head -60 gprof.txt)
