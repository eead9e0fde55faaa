// The benchmark's four workloads, each driven through a public entry point
// of the library (engine::Engine::run_dataset, core::WfaAligner::align,
// svc::AlignService) on inputs generated from the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench_math.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer spans, the engine mirror and the driver-level
  /// replay. The timed (untraced) run reports the end-to-end metrics.
  bool trace = false;
};

/// One reported number. `clock` says which clock it was read from:
/// "host" (this machine's time), "modeled" (simulated cycles) or "count".
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string clock;
};

struct Report {
  /// Every metric of the catalog, in catalog order; metrics a workload does
  /// not exercise stay 0.
  std::vector<Metric> metrics;
  FailureTally tally;
  /// Modeled results repeated exactly across the run's repetitions, and
  /// (traced run) the replay reproduced every batch of the engine.
  bool modeled_repeat = true;
  bool replay_ok = true;
  SpanRecorder spans{false};

  [[nodiscard]] bool correct() const {
    return tally.failed() == 0 && modeled_repeat && replay_ok;
  }
  /// Sets a catalog metric; aborts on a name outside the catalog.
  void set(const std::string& name, double value);
};

/// Names of the workloads run_workload accepts.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload for opts.seconds of measured time. Throws
/// std::invalid_argument for an unknown workload name.
[[nodiscard]] Report run_workload(const Options& opts);

}  // namespace perfbench
