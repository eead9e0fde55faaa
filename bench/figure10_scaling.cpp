// Reproduces Figure 10 of the paper: scalability of the accelerator with
// the number of Aligners (backtrace disabled), as speedup of the whole
// batch over the 1-Aligner design.
//
// Paper: near-perfect scaling for long reads (9.87x / 9.67x at 10
// Aligners for 10K-10% / 10K-5%); saturation for short reads where the
// accelerator-memory bandwidth bounds the design (Table 1's MaxAligners).
#include <cstdio>
#include <vector>

#include "bench/bench_util.hpp"
#include "common/parallel_for.hpp"

int main() {
  using namespace wfasic;
  using namespace wfasic::bench;

  const std::vector<unsigned> aligner_counts = {1, 2, 4, 6, 8, 10};

  print_header("Figure 10: batch speedup vs number of Aligners (BT off)",
               "(each column: speedup of N Aligners over 1 Aligner on the "
               "same batch)");
  std::printf("%-9s", "Input");
  for (unsigned n : aligner_counts) std::printf("   N=%-5u", n);
  std::printf("\n");
  print_rule(78);

  // Enough pairs that N=10 still has parallel work in flight and the
  // final partially-filled wave does not dominate (30 = 3 full waves).
  const PairCounts counts{40, 30, 30};
  const auto sets = paper_sets(counts);

  // Every (input set, aligner count) cell is an independent simulation.
  std::vector<std::uint64_t> cycles(sets.size() * aligner_counts.size(), 0);
  parallel_for(cycles.size(), [&](std::size_t idx) {
    const std::size_t set_idx = idx / aligner_counts.size();
    const std::size_t cfg_idx = idx % aligner_counts.size();
    const auto pairs = gen::generate_input_set(sets[set_idx]);
    engine::HwBackendConfig cfg;
    cfg.accel.num_aligners = aligner_counts[cfg_idx];
    const AccelMeasurement m =
        measure_accelerator(pairs, cfg, /*backtrace=*/false, false);
    cycles[idx] = m.batch_cycles;
  });

  for (std::size_t set_idx = 0; set_idx < sets.size(); ++set_idx) {
    std::printf("%-9s", sets[set_idx].name().c_str());
    const double base = static_cast<double>(
        cycles[set_idx * aligner_counts.size()]);
    for (std::size_t cfg_idx = 0; cfg_idx < aligner_counts.size();
         ++cfg_idx) {
      std::printf("  %6.2fx",
                  base / static_cast<double>(
                             cycles[set_idx * aligner_counts.size() +
                                    cfg_idx]));
    }
    std::printf("\n");
  }
  print_rule(78);
  std::printf(
      "Expected shape: 10K sets scale almost linearly to 10 Aligners;\n"
      "100 bp sets saturate early (reading a pair takes longer than\n"
      "aligning it once a few Aligners run in parallel - Eq. 7).\n");
  return 0;
}
