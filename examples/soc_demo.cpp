// SoC demo: the full co-designed flow of Figure 4 on the simulated chip,
// a single-device engine::Engine.
//
// Generates a synthetic input set, encodes it into main memory through the
// driver, runs the WFAsic accelerator (with backtrace enabled), performs
// the CPU-side backtrace, and prints per-pair results with the cycle
// breakdown and a self-check against the software WFA — the paper's §5.1
// "self-checking mechanism for alignment scores".
#include <cstdio>
#include <string>

#include "core/wfa.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"

int main(int argc, char** argv) {
  using namespace wfasic;

  gen::InputSetSpec spec;
  spec.length = argc > 1 ? std::stoul(argv[1]) : 1000;
  spec.error_rate = argc > 2 ? std::stod(argv[2]) : 0.05;
  spec.num_pairs = argc > 3 ? std::stoul(argv[3]) : 4;
  spec.seed = 20'230'807;  // ICPP'23

  std::printf("WFAsic SoC demo: %zu pairs of ~%zu bp reads at %.0f%% error\n",
              spec.num_pairs, spec.length, spec.error_rate * 100);
  const auto pairs = gen::generate_input_set(spec);

  // Default chip: 1 Aligner x 64 parallel sections.
  engine::Engine soc{engine::EngineConfig{}};
  const engine::BatchResult result =
      soc.run_batch(pairs, /*backtrace=*/true, /*separate_data=*/false);

  std::printf("\n%-5s %8s %8s %13s %13s  %s\n", "id", "|a|", "|b|", "score",
              "align cyc", "self-check");
  core::WfaAligner reference;
  int failures = 0;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& rec = result.records[i];
    const auto& alignment = result.alignments[i];
    const core::AlignResult sw = reference.align(pairs[i].a, pairs[i].b);
    const bool ok = alignment.ok && sw.ok && alignment.score == sw.score &&
                    alignment.cigar == sw.cigar;
    failures += ok ? 0 : 1;
    std::printf("%-5u %8zu %8zu %13d %13llu  %s\n", pairs[i].id,
                pairs[i].a.size(), pairs[i].b.size(), alignment.score,
                static_cast<unsigned long long>(rec.align_cycles),
                ok ? "score+cigar match software WFA" : "MISMATCH");
  }

  std::printf("\nCycle breakdown:\n");
  std::printf("  accelerator (read + align + writeback): %llu cycles\n",
              static_cast<unsigned long long>(result.accel_cycles));
  std::printf("  CPU backtrace (decode + walk + matches): %llu cycles\n",
              static_cast<unsigned long long>(result.cpu_bt_cycles));
  std::printf("  backtrace stream: %llu path steps, %llu match chars\n",
              static_cast<unsigned long long>(result.bt_counters.path_steps),
              static_cast<unsigned long long>(
                  result.bt_counters.match_chars));
  if (failures == 0) {
    std::printf("\nAll %zu alignments verified against the software WFA.\n",
                pairs.size());
  } else {
    std::printf("\n%d alignments FAILED verification.\n", failures);
  }
  return failures == 0 ? 0 : 1;
}
