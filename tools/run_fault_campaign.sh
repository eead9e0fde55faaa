#!/usr/bin/env bash
# Runs the seeded fault-injection campaign suite against a build of the
# simulator — by default many times over with GTEST_RANDOM-independent,
# fully deterministic schedules, so a red run is always replayable.
#
# Six layers; every layer runs even when an earlier one fails, each
# failure is recorded and reported, and the script exits non-zero if ANY
# layer failed (a red layer can never be masked by a green later one):
#   1. the seeded single-fault + campaign regression tests (read path,
#      RAM upsets, write path, decode robustness), repeated to catch
#      nondeterminism or state leakage between runs;
#   2. the engine health-management tests (quarantine, re-admission,
#      retirement, software degradation — deterministic across replays);
#   3. the service-resilience tests (deadline shedding, backpressure,
#      hedged retries, circuit breaking, checkpoint preemption — the svc
#      layer over the engine);
#   4. the checkpoint/restore and recovery tests (snapshot bit-identity
#      across exact and fast stepping, blob hardening, engine failover and
#      preempt/resume — docs/RELIABILITY.md §7);
#   5. the mixed-class escape campaign: wfasic-fault-campaign runs every
#      fault class at once against a K-device engine with ECC + CRC on
#      and exits non-zero on any silent corruption or unresolved pair;
#   6. the checkpoint-failover campaign: wfasic-fault-campaign --failover
#      kills runs mid-flight via CRC-detected write drops with periodic
#      checkpointing on; every kill must migrate onto a healthy device,
#      finish bit-exact and recompute no more than
#      restores x (checkpoint_interval + poll_quantum) cycles.
#
# Usage:
#   tools/run_fault_campaign.sh [build-dir] [repeats] [seeds] [artifacts]
#
#   build-dir  CMake build tree (default: build). Configure one first:
#                cmake -B build -S . && cmake --build build -j
#              For memory-error coverage, configure with
#                -DWFASIC_SANITIZE=ON
#   repeats    How many times to repeat the campaign tests (default: 100).
#              Each repeat replays the same seeded schedules; combined with
#              the determinism tests this catches any nondeterminism or
#              state leakage between runs.
#   seeds      Seeds for the mixed escape campaign (default: 200, K=4).
#   artifacts  Post-mortem artifact directory passed to both campaign
#              tools as --artifacts= (default: campaign-artifacts).
#              Each campaign leaves its flight-recorder ring there as
#              <dir>/{mixed,failover}/campaign.trace, and every FAILING
#              seed additionally leaves a device-0 Chrome trace JSON and
#              a PMU/metrics stats dump — CI uploads the directory when a
#              campaign layer goes red (docs/OBSERVABILITY.md §3).
#
# Deliberately NOT `set -e`: layers must keep running after a failure so
# one red run reports every broken layer at once. pipefail stays on so a
# failure upstream of any pipe still fails that layer.
set -uo pipefail

BUILD_DIR="${1:-build}"
REPEATS="${2:-100}"
SEEDS="${3:-200}"
ARTIFACTS="${4:-campaign-artifacts}"

if [[ ! -d "${BUILD_DIR}" ]]; then
  echo "error: build dir '${BUILD_DIR}' not found; run cmake first" >&2
  exit 1
fi

# The build is the one hard prerequisite: nothing below is meaningful
# against stale or missing binaries, so a build failure exits immediately.
cmake --build "${BUILD_DIR}" -j --target \
  test_fault_injection test_system test_data_integrity test_decode_fuzz \
  test_health test_svc test_checkpoint test_engine \
  wfasic-fault-campaign || exit 1

FAILED_LAYERS=()

# run_layer NAME CMD... — runs one layer to completion, records a
# non-zero exit instead of aborting, and reports it at the end. This is
# what guarantees an early failure propagates: the final exit status is
# red if any layer was, no matter what ran afterwards.
run_layer() {
  local name="$1"
  shift
  echo "== ${name} =="
  local status=0
  "$@" || status=$?
  if ((status == 0)); then
    echo "-- ${name}: PASS"
  else
    echo "-- ${name}: FAIL (exit ${status})" >&2
    FAILED_LAYERS+=("${name}")
  fi
}

run_layer "fault campaign (${REPEATS} repeats)" \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R 'FaultInjection|DriverTimeout|DecodeNbt|RamEcc|WriteFaults|InputCrc|ResultCrc|MixedCampaign|DecodeFuzz|StreamFuzz|ErrRegs' \
  --repeat until-fail:"${REPEATS}"

run_layer "health management (quarantine / re-admission determinism)" \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R 'HealthMonitor|Health\.' \
  --repeat until-fail:"${REPEATS}"

run_layer "service resilience (shedding / backpressure / hedging / preemption)" \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R 'Svc\.|WfqScheduler' \
  --repeat until-fail:"${REPEATS}"

run_layer "checkpoint / restore / recovery determinism" \
  ctest --test-dir "${BUILD_DIR}" --output-on-failure \
  -R 'CheckpointEquivalence|SnapshotFuzz|EngineRecovery' \
  --repeat until-fail:"${REPEATS}"

run_layer "mixed escape campaign (${SEEDS} seeds, K=4, ECC+CRC on)" \
  "${BUILD_DIR}/tools/wfasic-fault-campaign" "${SEEDS}" 4 \
  --artifacts="${ARTIFACTS}/mixed"

run_layer "checkpoint-failover campaign (${SEEDS} seeds, K=2, CRC on)" \
  "${BUILD_DIR}/tools/wfasic-fault-campaign" "${SEEDS}" 2 --failover \
  --artifacts="${ARTIFACTS}/failover"

if ((${#FAILED_LAYERS[@]})); then
  echo "run_fault_campaign: FAILED layers: ${FAILED_LAYERS[*]}" >&2
  exit 1
fi
echo "run_fault_campaign: all layers passed"
