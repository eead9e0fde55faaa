#include "verify/differential.hpp"

#include "core/wfa.hpp"
#include "engine/engine.hpp"

namespace wfasic::verify {

DifferentialReport run_differential(
    const engine::HwBackendConfig& cfg,
    const std::vector<gen::SequencePair>& pairs, bool backtrace) {
  DifferentialReport report;
  report.pairs = pairs.size();

  engine::EngineConfig engine_cfg;
  engine_cfg.device = cfg;
  engine::Engine engine(engine_cfg);
  const bool separate = cfg.accel.num_aligners > 1;
  const engine::BatchResult result =
      engine.run_batch(pairs, backtrace, separate);

  core::WfaConfig sw_cfg;
  sw_cfg.pen = cfg.accel.pen;
  core::WfaAligner reference(sw_cfg);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const core::AlignResult& hw = result.alignments[i];
    if (!hw.ok) {
      ++report.hw_failures;
      report.details.push_back("pair " + std::to_string(i) +
                               ": accelerator reported Success=0");
      continue;
    }
    const core::AlignResult sw = reference.align(pairs[i].a, pairs[i].b);
    if (hw.score != sw.score) {
      ++report.score_mismatches;
      report.details.push_back(
          "pair " + std::to_string(i) + ": score hw=" +
          std::to_string(hw.score) + " sw=" + std::to_string(sw.score));
    }
    if (backtrace && hw.cigar != sw.cigar) {
      ++report.cigar_mismatches;
      report.details.push_back("pair " + std::to_string(i) +
                               ": CIGAR differs (hw " + hw.cigar.rle() +
                               " vs sw " + sw.cigar.rle() + ")");
    }
  }
  return report;
}

DifferentialReport run_differential(const engine::HwBackendConfig& cfg,
                                    const gen::InputSetSpec& spec,
                                    bool backtrace) {
  return run_differential(cfg, gen::generate_input_set(spec), backtrace);
}

}  // namespace wfasic::verify
