#!/usr/bin/env bash
# Full verification: the tier-1 build + test pass, a doc-lint pass
# (metric AND span catalogs in docs/OBSERVABILITY.md must match the
# names the code registers/emits, and every EngineOptions field the docs
# name must exist), a perf smoke run of the II kernel harness against
# its recorded baselines, then the same tests under ASan/UBSan, then the
# service/engine/parallel-II/ingest tests under TSan (the concurrency
# surface: engine thread-safety, thread pool, query service, sessions,
# the shard scatter, shard walkers racing the sharded facade's appends,
# the one write path — table ingest and raw appends, concurrent
# writers + readers against the epoch gate — windowed
# formations derived from a shared base while the sequence cache evicts,
# and concept-hierarchy label lookups while a formation compiles it).
#
# Benchmark stage: the perfbench/ workloads (explore, scan, ingest) run
# for one second each from a TSan build; any race report fails the check.
#
# Distributed stage: distributed_shard_test spawns real shard_main
# processes (supervisor + coordinator over loopback HTTP) and runs in
# tier-1, the ASan full suite, and the TSan filter below; the
# failpoints stages add chaos_test's shard-kill-under-armed-rpc-faults
# and concurrent-writers-under-fault-load scenarios (over a monolith and
# a 2-shard facade) under both ASan and TSan, and sharded_engine_test's
# scatter under every engine failpoint.
#
# Usage: tools/check.sh [--tier1-only]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc)"

# Build only the executables ctest will run (registered test names match
# their target names), not benches/examples — sanitizer builds are slow.
build_tests() {  # build_tests <dir> [filter-regex]
  local dir="$1" filter="${2:-}" targets
  # Note the \+: ctest right-aligns test numbers, so "Test  #1:" carries
  # two spaces once there are ten or more tests.
  targets=$(ctest --test-dir "$dir" -N ${filter:+-R "$filter"} |
    sed -n 's/^ *Test \+#[0-9]*: //p')
  # shellcheck disable=SC2086
  cmake --build "$dir" -j"$JOBS" --target $targets >/dev/null
}

run_ctest() {
  ctest --test-dir "$1" --output-on-failure ${2:+-R "$2"}
}

echo "== tier-1: default build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS" >/dev/null
run_ctest build

if [[ "${1:-}" == "--tier1-only" ]]; then
  exit 0
fi

echo
echo "== doc-lint: metric/span catalogs and option names in sync with the code =="
tools/doc_lint.sh

echo
echo "== perf smoke: II kernels vs bench/thresholds.json =="
cmake --build build -j"$JOBS" --target bench_ii_kernels >/dev/null
build/bench/bench_ii_kernels --quick --check=bench/thresholds.json

echo
echo "== ASan + UBSan: full test suite =="
cmake -B build-asan -S . -DSOLAP_SANITIZE=address >/dev/null
build_tests build-asan
run_ctest build-asan

echo
echo "== TSan: service + engine concurrency tests =="
TSAN_FILTER="hierarchy_test|service_test|service_stress_test|engine_test|parallel_ii_test|sharded_engine_test|net_test|distributed_shard_test|ingest_test|ingest_consistency_test|extensions_test|seq_test|property_test"
cmake -B build-tsan -S . -DSOLAP_SANITIZE=thread >/dev/null
build_tests build-tsan "$TSAN_FILTER"
run_ctest build-tsan "$TSAN_FILTER"

echo
echo "== TSan: perfbench workload smoke =="
# perfbench/ is its own CMake project: the root's add_compile_options do not
# reach its executable, so the sanitizer goes in through the global flags.
cmake -S perfbench -B build-perfbench-tsan -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" >/dev/null
cmake --build build-perfbench-tsan -j"$JOBS" --target solap_perfbench \
  >/dev/null
for workload in explore scan ingest; do
  log="build-perfbench-tsan/$workload.log"
  if ! build-perfbench-tsan/solap_perfbench --workload "$workload" \
      --seed 7 --seconds 1 --trace 0 >"$log" 2>&1 ||
    grep -q "WARNING: ThreadSanitizer" "$log"; then
    echo "FAIL: perfbench $workload under TSan (see $log)" >&2
    grep -A30 "WARNING: ThreadSanitizer" "$log" | head -60 >&2 || true
    exit 1
  fi
  echo "ok: perfbench $workload, no TSan report"
done

echo
echo "== failpoints: compiled out of the default build =="
# The fault-injection framework must contribute nothing unless opted into.
# (Filter out archive member headers — failpoint.cc.o itself is always a
# member, it just must define no symbols.)
if nm build/src/libsolap.a 2>/dev/null | grep -v '\.o:$' |
  grep -qi failpoint; then
  echo "FAIL: default libsolap.a contains failpoint symbols" >&2
  exit 1
fi
echo "ok: no failpoint symbol in default libsolap.a"

echo
echo "== failpoints + ASan: fault-injection + chaos suites =="
FP_FILTER="fault_injection_test|chaos_test|sharded_engine_test"
cmake -B build-fp -S . -DSOLAP_FAILPOINTS=ON -DSOLAP_SANITIZE=address >/dev/null
build_tests build-fp "$FP_FILTER"
run_ctest build-fp "$FP_FILTER"

echo
echo "== failpoints + TSan: chaos suite + sharded scatter chaos =="
FP_TSAN_FILTER="chaos_test|sharded_engine_test"
cmake -B build-fp-tsan -S . -DSOLAP_FAILPOINTS=ON -DSOLAP_SANITIZE=thread \
  >/dev/null
build_tests build-fp-tsan "$FP_TSAN_FILTER"
run_ctest build-fp-tsan "$FP_TSAN_FILTER"

echo
echo "all checks passed"
