// Reproduces Table 1 of the paper: per input set, the cycles the
// accelerator needs to read a pair from main memory and to align it, plus
// the maximum efficient number of Aligners from Eq. 7:
//   MaxAligners = ceil(Alignment_cycles / Reading_cycles) + 1
//
// Paper values (FPGA prototype):
//   100-5%:  214 / 75 / 4      1K-5%:  2541 / 376 / 8     10K-5%:  278083 / 3420 / 83
//   100-10%: 327 / 75 / 6      1K-10%: 8461 / 376 / 24    10K-10%: 937630 / 3420 / 276
#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"

namespace {

struct PaperRow {
  double align;
  double read;
  int max_aligners;
};

const PaperRow kPaper[6] = {{214, 75, 4},      {327, 75, 6},
                            {2541, 376, 8},    {8461, 376, 24},
                            {278083, 3420, 83}, {937630, 3420, 276}};

}  // namespace

int main() {
  using namespace wfasic;
  using namespace wfasic::bench;

  print_header("Table 1: alignment/reading cycles and max efficient Aligners",
               "(paper values from the FPGA prototype in parentheses)");
  std::printf("%-9s %14s %14s %12s %10s %10s %8s\n", "Input", "Align cyc",
              "(paper)", "Read cyc", "(paper)", "MaxAlign", "(paper)");
  print_rule(78);

  const PairCounts counts{10, 6, 2};
  const auto sets = paper_sets(counts);
  for (std::size_t idx = 0; idx < sets.size(); ++idx) {
    const auto pairs = gen::generate_input_set(sets[idx]);
    engine::HwBackendConfig cfg;  // 1 Aligner x 64 parallel sections
    const AccelMeasurement m =
        measure_accelerator(pairs, cfg, /*backtrace=*/false, false);
    const int max_aligners = static_cast<int>(
        std::ceil(m.mean_align_cycles / m.mean_reading_cycles)) + 1;
    std::printf("%-9s %14.0f %14.0f %12.0f %10.0f %10d %8d\n",
                sets[idx].name().c_str(), m.mean_align_cycles,
                kPaper[idx].align, m.mean_reading_cycles, kPaper[idx].read,
                max_aligners, kPaper[idx].max_aligners);
  }
  print_rule(78);
  std::printf(
      "Eq. 7: MaxAligners = ceil(align/read) + 1. Reading cycles are\n"
      "independent of the error rate (the layout pads every pair to\n"
      "MAX_READ_LEN); alignment cycles grow with score, i.e. with both\n"
      "length and error rate.\n");

  // Eq. 5/6 footer: the supported-error budget of the default chip.
  wfasic::hw::AcceleratorConfig chip;
  std::printf(
      "\nEq. 6: k_max = %d -> Score_max = %d; Eq. 5 worst case (all gap\n"
      "openings): %d differences supported per pair.\n",
      chip.k_max, chip.score_max(),
      chip.score_max() / chip.pen.open_total());
  return 0;
}
