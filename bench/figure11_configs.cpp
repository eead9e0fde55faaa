// Reproduces Figure 11 of the paper: total time (accelerator alignment +
// CPU backtrace) of three design/driver configurations, normalised to the
// 1-Aligner / 64-parallel-section design using the data-separation
// backtrace method:
//   1-64PS [Sep]    — baseline (speedup 1.0)
//   2-32PS [Sep]    — two half-size Aligners, separation still needed
//   1-64PS [No Sep] — the chosen design: consecutive stream, boundary
//                     identification instead of separation
//
// Paper: 2-32PS [Sep] ~1.7/1.8/1.2/1.1/1.0/1.0; 1-64PS [No Sep]
// 6.7/9.7/11.4/24.2/87.4/180.4 across the six input sets.
#include <cstdio>

#include "bench/bench_util.hpp"

int main() {
  using namespace wfasic;
  using namespace wfasic::bench;

  print_header(
      "Figure 11: backtrace-enabled configurations (speedup over "
      "1-64PS [Sep])",
      "(total = accelerator alignment + CPU backtrace incl. data "
      "separation where needed)");
  std::printf("%-9s %18s %18s %18s\n", "Input", "1-64PS [Sep]",
              "2-32PS [Sep]", "1-64PS [NoSep]");
  print_rule(78);

  const PairCounts counts{8, 4, 2};
  const auto sets = paper_sets(counts);
  for (const auto& spec : sets) {
    const auto pairs = gen::generate_input_set(spec);

    engine::HwBackendConfig cfg64;  // 1 Aligner x 64 PS
    const AccelMeasurement sep64 =
        measure_accelerator(pairs, cfg64, /*backtrace=*/true,
                            /*separate_data=*/true);

    engine::HwBackendConfig cfg32;
    cfg32.accel.num_aligners = 2;
    cfg32.accel.parallel_sections = 32;
    const AccelMeasurement sep32 =
        measure_accelerator(pairs, cfg32, true, true);

    const AccelMeasurement nosep64 =
        measure_accelerator(pairs, cfg64, true, /*separate_data=*/false);

    const double base = static_cast<double>(sep64.total_cycles());
    std::printf("%-9s %17.2fx %17.2fx %17.2fx\n", spec.name().c_str(), 1.0,
                base / static_cast<double>(sep32.total_cycles()),
                base / static_cast<double>(nosep64.total_cycles()));
    std::fflush(stdout);
  }
  print_rule(78);
  std::printf(
      "Expected shape: eliminating the data-separation pass wins across\n"
      "the board and the gap grows with the backtrace stream size (the\n"
      "paper reports up to ~180x at 10K-10%%); two 32-PS Aligners only\n"
      "help short reads, where most of a 64-PS Aligner idles.\n");
  return 0;
}
