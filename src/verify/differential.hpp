// Differential verification harness: the software analogue of the paper's
// §5.1 campaign (FPGA prototype runs self-checked against the WFA CPU
// implementation). Runs a batch through the simulated accelerator and
// compares every result against the software WFA — scores always, CIGARs
// when backtrace is enabled.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "engine/hw_backend.hpp"
#include "gen/seqgen.hpp"

namespace wfasic::verify {

struct DifferentialReport {
  std::size_t pairs = 0;
  std::size_t hw_failures = 0;       ///< Success=0 results
  std::size_t score_mismatches = 0;  ///< hw score != software score
  std::size_t cigar_mismatches = 0;  ///< hw CIGAR != software CIGAR
  std::vector<std::string> details;  ///< one line per discrepancy

  [[nodiscard]] bool clean() const {
    return hw_failures == 0 && score_mismatches == 0 &&
           cigar_mismatches == 0;
  }
};

/// Runs `pairs` through a fresh K=1 engine::Engine whose device is `cfg`
/// and cross-checks against the software WFA.
[[nodiscard]] DifferentialReport run_differential(
    const engine::HwBackendConfig& cfg,
    const std::vector<gen::SequencePair>& pairs, bool backtrace);

/// Convenience: generate-and-verify one synthetic input set.
[[nodiscard]] DifferentialReport run_differential(
    const engine::HwBackendConfig& cfg, const gen::InputSetSpec& spec,
    bool backtrace);

}  // namespace wfasic::verify
