#!/usr/bin/env bash
# Builds and runs the scan + sim test binaries under a sanitizer.
#
#   tests/run_sanitized.sh [thread|address|undefined]   (default: thread)
#
# ThreadSanitizer is the one that matters for the parallel sharded scanner
# (tests/scan_parallel_test, tests/scan_boundary_test exercise the
# ThreadPool fan-out), for the host keystore, whose mlocked plaintext
# pool is shared across signing threads and stages misses outside its
# mutex (keystore_test's concurrent and single-flight cases, and
# keystore_encrypted_test's shared-CoprocessorDomain case, its
# refusal-wakes-every-waiter case and its storm with refusals injected
# mid-run),
# for the observability layer (obs_concurrency_test hammers the
# MetricsRegistry/Tracer from many threads and demands exact totals), and
# for SecureRsaKey's per-thread locked arena (secure_rsa_test decrypts
# with one key from four threads); address/undefined cover the same
# binaries for memory and UB bugs, including the Montgomery kernel's
# 128-bit carry arithmetic (bignum_montgomery_test's edge battery) and
# the SHA-NI kernel's unaligned block loads (crypto_sha256_test).
# CI-runnable: exits non-zero on any failure.
set -euo pipefail

SAN="${1:-thread}"
case "$SAN" in
  thread|address|undefined) ;;
  *) echo "usage: $0 [thread|address|undefined]" >&2; exit 2 ;;
esac

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-${SAN}san"

# The binaries whose concurrency/memory behaviour the sanitizer polices.
TARGETS=(
  util_thread_pool_test
  bignum_montgomery_test
  crypto_sha256_test
  secure_rsa_test
  host_residue_test
  scan_test
  scan_parallel_test
  scan_boundary_test
  scan_matcher_test
  scan_incremental_test
  scan_stream_test
  scan_dedup_equivalence_test
  scan_hunter_test
  sim_physmem_test
  sim_page_alloc_test
  sim_kernel_test
  sim_dedup_test
  attack_dedup_test
  analysis_taint_test
  analysis_equivalence_test
  util_json_test
  keystore_test
  keystore_sim_test
  keystore_equivalence_test
  keystore_encrypted_test
  keystore_salt_test
  keystore_adversary_test
  obs_metrics_test
  obs_trace_test
  obs_concurrency_test
  obs_exposure_test
  obs_alert_test
  lint_selftest
)

# KEYGUARD_THREAD_SAFETY turns on clang's -Wthread-safety over the
# annotated keystore mutexes (util/thread_safety.hpp); it is a no-op when
# the toolchain is GCC, so passing it unconditionally is safe.
cmake -B "$BUILD" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DKEYGUARD_THREAD_SAFETY=ON \
  -DKEYGUARD_SANITIZE="$SAN" > /dev/null
cmake --build "$BUILD" -j "$(nproc)" --target "${TARGETS[@]}"

# Force real workers in the shared pool: on 1-core machines the default
# sizing is 0 workers (inline parallel_for), which would give the thread
# sanitizer nothing cross-thread to check.
export KEYGUARD_POOL_WORKERS=4
# A helper thread touching a returned caller's stack frame (the
# ThreadPool completion state) is only caught with fake stacks on.
if [ "$SAN" = address ]; then
  export ASAN_OPTIONS="detect_stack_use_after_return=1${ASAN_OPTIONS:+:$ASAN_OPTIONS}"
fi

status=0
for t in "${TARGETS[@]}"; do
  echo "== [$SAN] $t"
  if ! "$BUILD/tests/$t" --gtest_brief=1; then
    status=1
  fi
done

# The SIMD-vs-scalar and streaming equivalence batteries re-run at every
# vector level the hardware allows (KEYGUARD_SCAN_SIMD caps, never
# raises), so the AVX kernels' unaligned loads and the CaptureStream
# mmap/pread seam handling are sanitizer-checked at each level — not just
# whichever one this machine happens to dispatch to.
for simd in avx2 none; do
  for t in scan_matcher_test scan_stream_test; do
    echo "== [$SAN] $t (KEYGUARD_SCAN_SIMD=$simd)"
    if ! KEYGUARD_SCAN_SIMD="$simd" "$BUILD/tests/$t" --gtest_brief=1; then
      status=1
    fi
  done
done

if [ "$status" -eq 0 ]; then
  echo "== [$SAN] all ${#TARGETS[@]} binaries clean"
else
  echo "== [$SAN] FAILURES detected" >&2
fi
exit "$status"
