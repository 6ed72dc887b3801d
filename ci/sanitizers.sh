#!/usr/bin/env bash
# Sanitizer sweep for CI: builds and runs the test suite under
# ThreadSanitizer (parallel pipeline must be race-free) and under
# ASan+UBSan (fault-isolation paths must be free of memory errors and
# UB, including on the pathological/fuzz inputs).
#
# Usage: ci/sanitizers.sh [tsan|asan|serve-tsan|asan-convert|asan-storage|all]
#        (default: all)
#
# serve-tsan runs only the `serve`-labeled tests (the multi-reactor
# server, its rings and the striped cache) under ThreadSanitizer — the
# fast targeted sweep for serving-layer changes. asan-convert runs only
# the `convert`-labeled tests (golden, converter, text-rules
# differential, pathological input, resource limits, consolidation,
# crawler, the mapper and the node arena) under ASan+UBSan — the
# targeted sweep for changes to the conversion path, which splices and
# re-homes nodes and views text. A recycled arena slot is poisoned
# until reused, so a read through a dangling Node* fails here.
# asan-storage runs only the `storage`-labeled tests (storage, snapshot
# reload and crash injection) under ASan+UBSan — the targeted sweep for
# changes to WAL replay and snapshot restore, which hand mapped FlatDoc
# views straight to the repository without walking them.

set -euo pipefail
cd "$(dirname "$0")/.."

run_config() {
  local name="$1" sanitize="$2" label="${3:-}" build_dir="build-$1"
  echo "=== ${name}: WEBRE_SANITIZE=${sanitize}${label:+ (label ${label})} ==="
  cmake -B "${build_dir}" -S . -DWEBRE_SANITIZE="${sanitize}" \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
  cmake --build "${build_dir}" -j "$(nproc)" >/dev/null
  # Every -j takes an explicit count: a bare `-j` runs unbounded jobs
  # (sanitizer builds and tests are memory-hungry) and, on older ctest,
  # consumes the next argument as its count.
  if [ -n "${label}" ]; then
    ctest --test-dir "${build_dir}" --output-on-failure -L "${label}" \
      -j "$(nproc)"
  else
    ctest --test-dir "${build_dir}" --output-on-failure -j "$(nproc)"
  fi
  # Query-engine tests run a second time with the predicate scanner
  # pinned to the scalar kernel: sanitizers don't see through SIMD
  # intrinsics uniformly, and the scalar path is the differential
  # reference every vector kernel is checked against. Skipped for
  # targeted sweeps of other labels (serve-tsan, asan-convert,
  # asan-storage).
  if [ -z "${label}" ] || [ "${label}" = query ]; then
    echo "=== ${name}: WEBRE_SIMD=scalar (label query) ==="
    WEBRE_SIMD=scalar \
      ctest --test-dir "${build_dir}" --output-on-failure -L query \
        -j "$(nproc)"
  fi
}

mode="${1:-all}"
case "${mode}" in
  tsan) run_config tsan thread ;;
  asan) run_config asan address+undefined ;;
  serve-tsan) run_config tsan thread serve ;;
  asan-convert) run_config asan address+undefined convert ;;
  asan-storage) run_config asan address+undefined storage ;;
  all)
    run_config tsan thread
    run_config asan address+undefined
    ;;
  *)
    echo "usage: $0 [tsan|asan|serve-tsan|asan-convert|asan-storage|all]" >&2
    exit 2
    ;;
esac
echo "sanitizer sweep (${mode}) passed"
