// Engine-level metrics (docs/OBSERVABILITY.md §4): per-device utilization
// and busy/idle accounting, queue-depth tracking, and submit→complete
// latency histograms.
//
// All figures are derived from modelled cycle samples the completion
// records already carry, so they are deterministic (the same dataset,
// configuration and fault schedule reproduce them bit-for-bit) and cost
// nothing when nobody reads them. Read as Engine::metrics(); turned into
// names in exactly one place, export_to_registry below, whose exposition
// the service registry, the BENCH_*.json keys and the tools' --stats dumps
// all share.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/metrics_registry.hpp"
#include "common/quantile.hpp"
#include "engine/health.hpp"

namespace wfasic::engine {

/// The shared fixed-bucket log2 histogram (common/quantile.hpp) under its
/// historical engine-layer name.
using Log2Histogram = common::Log2Histogram;

/// Per-device (plus one software-backend slot) accounting.
struct DeviceMetrics {
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;  ///< non-completed outcomes (timeout, DMA…)
  /// Device cycles spent aligning (sum of per-job accel samples).
  std::uint64_t busy_cycles = 0;
  /// The device's total simulated cycles at metrics() time; busy/total is
  /// the utilization. Idle time = total - busy.
  std::uint64_t total_cycles = 0;
  /// Deepest the device's submission queue ever got (sampled at submit).
  std::size_t queue_depth_high_water = 0;

  [[nodiscard]] double utilization() const {
    return total_cycles == 0 ? 0.0
                             : static_cast<double>(busy_cycles) /
                                   static_cast<double>(total_cycles);
  }
};

/// Checkpoint/failover/preemption accounting (docs/RELIABILITY.md §7).
/// All zero while HwBackendConfig::checkpoint_interval is 0 and nobody
/// preempts — the recovery layer costs nothing when off.
struct RecoveryMetrics {
  std::uint64_t checkpoints = 0;       ///< periodic device snapshots taken
  std::uint64_t restores = 0;          ///< checkpoint blobs applied
  std::uint64_t migrations = 0;        ///< failed runs adopted by a device
  std::uint64_t preemptions = 0;       ///< active runs checkpoint-evicted
  std::uint64_t resumes = 0;           ///< preempted jobs re-dispatched
  /// Device cycles simulated a second time after restores (the bounded
  /// loss between each failure and its last checkpoint).
  std::uint64_t recomputed_cycles = 0;
  /// run_dataset shards re-run from scratch (no checkpoint to migrate).
  std::uint64_t dataset_retries = 0;
  /// run_dataset shards degraded onto the software backend.
  std::uint64_t sw_degradations = 0;
};

/// The engine's full observability export. Everything here is cumulative
/// since construction.
struct EngineMetrics {
  /// One entry per hardware device, then one final entry for the
  /// software backend (its busy/total cycles are modelled CPU op cycles).
  std::vector<DeviceMetrics> devices;
  std::uint64_t submits = 0;
  std::uint64_t completions = 0;
  /// submit→complete latency in modelled cycles (encode + accel + decode
  /// for hardware jobs, the software alignment cycles for SwBackend jobs).
  Log2Histogram latency;
  /// Deepest the engine-wide in-flight set ever got (sampled at submit).
  std::size_t in_flight_high_water = 0;
  /// Health-state transition log (engine/health.hpp), in event order.
  std::vector<HealthTransition> health_transitions;
  /// Checkpoint/failover/preemption costs, engine-wide.
  RecoveryMetrics recovery;
};

/// Re-exports an EngineMetrics snapshot into the unified registry under
/// stable `<prefix>_*` names (docs/OBSERVABILITY.md §4): per-backend job
/// and utilization figures (devices 0..K-1, then `sw`), the engine-wide
/// latency histogram, and the recovery cost counters. The one place an
/// EngineMetrics becomes names; the health-transition log stays an event
/// list and is exported only as its length.
inline void export_to_registry(const EngineMetrics& m,
                               common::MetricsRegistry& reg,
                               const std::string& prefix) {
  reg.counter(prefix + "_submits") = m.submits;
  reg.counter(prefix + "_completions") = m.completions;
  reg.counter(prefix + "_inflight_high_water") = m.in_flight_high_water;
  reg.counter(prefix + "_health_transitions") = m.health_transitions.size();
  reg.histogram(prefix + "_latency_cycles") = m.latency;
  for (std::size_t d = 0; d < m.devices.size(); ++d) {
    const DeviceMetrics& dm = m.devices[d];
    const std::string lane = d + 1 < m.devices.size()
                                 ? prefix + "_dev" + std::to_string(d)
                                 : prefix + "_sw";
    reg.counter(lane + "_jobs_completed") = dm.jobs_completed;
    reg.counter(lane + "_jobs_failed") = dm.jobs_failed;
    reg.counter(lane + "_busy_cycles") = dm.busy_cycles;
    reg.counter(lane + "_total_cycles") = dm.total_cycles;
    reg.counter(lane + "_queue_high_water") = dm.queue_depth_high_water;
    reg.gauge(lane + "_utilization") = dm.utilization();
  }
  reg.counter(prefix + "_recovery_checkpoints") = m.recovery.checkpoints;
  reg.counter(prefix + "_recovery_restores") = m.recovery.restores;
  reg.counter(prefix + "_recovery_migrations") = m.recovery.migrations;
  reg.counter(prefix + "_recovery_preemptions") = m.recovery.preemptions;
  reg.counter(prefix + "_recovery_resumes") = m.recovery.resumes;
  reg.counter(prefix + "_recovery_recomputed_cycles") =
      m.recovery.recomputed_cycles;
  reg.counter(prefix + "_recovery_dataset_retries") =
      m.recovery.dataset_retries;
  reg.counter(prefix + "_recovery_sw_degradations") =
      m.recovery.sw_degradations;
}

}  // namespace wfasic::engine
