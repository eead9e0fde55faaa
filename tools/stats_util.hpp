// Shared --stats printers for the CLI tools (wfasic_align,
// wfasic_fault_campaign): a PMU snapshot dump and an engine metrics dump,
// both to stderr so they never pollute the tools' stdout result streams.
#pragma once

#include <cstdio>
#include <string>

#include "common/metrics_registry.hpp"
#include "engine/metrics.hpp"
#include "hw/perf.hpp"

namespace wfasic::tools {

inline void print_perf_snapshot(const hw::PerfSnapshot& snapshot,
                                std::FILE* out) {
  std::fprintf(out, "# PMU counters (last run, rebased at Start):\n");
  for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
    const auto idx = static_cast<hw::PerfIdx>(i);
    std::fprintf(out, "#   %-30s %llu\n", hw::perf_counter_name(idx),
                 static_cast<unsigned long long>(snapshot.counter(idx)));
  }
}

/// The engine metrics as the registry exposes them — the same `engine_*`
/// names AlignService::export_metrics and the bench reports carry — then
/// the health-transition log, an event list the registry does not hold.
inline void print_engine_metrics(const engine::EngineMetrics& metrics,
                                 std::FILE* out) {
  common::MetricsRegistry reg;
  engine::export_to_registry(metrics, reg, "engine");
  std::fprintf(out, "# engine metrics (registry exposition):\n");
  for (const std::string& line : reg.text_lines()) {
    std::fprintf(out, "#   %s\n", line.c_str());
  }
  for (const engine::HealthTransition& t : metrics.health_transitions) {
    const auto name = [](engine::DeviceHealth h) {
      switch (h) {
        case engine::DeviceHealth::kHealthy: return "healthy";
        case engine::DeviceHealth::kQuarantined: return "quarantined";
        case engine::DeviceHealth::kRetired: return "retired";
      }
      return "?";
    };
    std::fprintf(out, "# health[%llu]: dev%u %s -> %s\n",
                 static_cast<unsigned long long>(t.seq), t.device,
                 name(t.from), name(t.to));
  }
}

}  // namespace wfasic::tools
