// Timing model of the WFA software baselines on the SoC's RISC-V core.
//
// The model *executes the real algorithm* (core::WfaAligner) and charges
// cycles from two sources:
//   1. per-event instruction costs (cpu/cost_model.hpp) driven by the
//      aligner's instrumentation probe, and
//   2. memory stalls from replaying the aligner's memory trace through the
//      SoC cache hierarchy (32 KB L1D, 512 KB L2).
// This mirrors how the paper measures its baseline: the same WFA C code
// [14] running on the in-order Sargantana core.
#pragma once

#include <cstdint>
#include <string_view>

#include "cache/cache.hpp"
#include "core/align_result.hpp"
#include "core/wfa.hpp"
#include "cpu/cost_model.hpp"

namespace wfasic::cpu {

/// Cycle breakdown of one modelled CPU run.
struct CpuRunStats {
  std::uint64_t op_cycles = 0;     ///< instruction-cost component
  std::uint64_t stall_cycles = 0;  ///< cache-stall component
  [[nodiscard]] std::uint64_t total() const { return op_cycles + stall_cycles; }

  core::WfaProbe probe;            ///< counters of the underlying run
  cache::CacheStats l1;
  cache::CacheStats l2;
};

/// Event counters produced by the driver's CPU backtrace implementations
/// (drv/backtrace_cpu.*), consumed by backtrace_cycles().
struct BtCpuCounters {
  std::uint64_t alignments = 0;
  std::uint64_t blocks_scanned = 0;  ///< 16-byte transactions touched
  std::uint64_t blocks_copied = 0;   ///< data-separation copies (multi-Aligner)
  std::uint64_t path_steps = 0;      ///< origin-decode steps
  std::uint64_t match_chars = 0;     ///< match-insertion characters

  bool operator==(const BtCpuCounters&) const = default;
};

class CpuModel {
 public:
  struct Config {
    ScalarCosts scalar;
    VectorCosts vector;
    BacktraceCosts bt;
  };

  explicit CpuModel(Config cfg = {}) : cfg_(cfg) {}

  /// Runs the scalar or blocked WFA on (a, b) and returns the modelled
  /// cycle count. A fresh (cold) cache hierarchy is used per call, which
  /// matches the paper's batch processing where consecutive long pairs
  /// evict each other anyway.
  struct RunResult {
    core::AlignResult align;
    CpuRunStats stats;
  };
  [[nodiscard]] RunResult run_wfa(std::string_view a, std::string_view b,
                                  const Penalties& pen, core::ExtendMode mode,
                                  core::Traceback traceback) const;

  /// Cycles for the CPU-side backtrace of accelerator output: instruction
  /// costs from the counters plus a streaming-memory stall estimate
  /// (`bt_stream_bytes` of output data read through the hierarchy; copies
  /// are charged read+write).
  [[nodiscard]] std::uint64_t backtrace_cycles(
      const BtCpuCounters& counters) const;

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] Config& config() { return cfg_; }

 private:
  Config cfg_;
};

}  // namespace wfasic::cpu
