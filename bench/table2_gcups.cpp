// Reproduces Table 2 of the paper: GCUPS, die area and GCUPS/mm^2 across
// platforms when aligning 10 Kbp reads. The WFAsic rows are produced by
// this repository's simulator at the modelled post-PnR frequency; the
// comparator rows (GACT-ASIC, WFA-CPU on EPYC, WFA-GPU) are quoted from
// the paper, as they are external published numbers there too.
#include <cstdio>

#include "asic/area_model.hpp"
#include "bench/bench_util.hpp"

int main() {
  using namespace wfasic;
  using namespace wfasic::bench;

  print_header("Table 2: GCUPS and area, 10 Kbp reads",
               "(WFAsic rows simulated; comparator rows quoted from the "
               "paper)");
  std::printf("%-38s %10s %10s %14s\n", "Platform/Design", "GCUPS",
              "Area mm2", "GCUPS per mm2");
  print_rule(78);

  const auto row = [](const char* name, double gcups_v, double area,
                      const char* note) {
    std::printf("%-38s %10.2f %10.1f %14.2f  %s\n", name, gcups_v, area,
                gcups_v / area, note);
  };

  // Quoted comparator rows (paper Table 2).
  row("GACT-ASIC [heuristic]", 2129, 85.6, "(paper)");
  row("WFA-CPU AMD EPYC [1 thread]", 7.5, 1008, "(paper)");
  row("WFA-CPU AMD EPYC [64 threads]", 98, 1008, "(paper)");
  row("WFA-GPU NVIDIA 3080", 476, 628, "(paper)");

  // Simulated WFAsic rows: 10K-5% input (the paper's Table 2 workload),
  // cycles from the simulator scaled to the modelled ASIC frequency.
  const gen::InputSetSpec spec{10'000, 0.05, 2, 1005};
  const auto pairs = gen::generate_input_set(spec);
  const std::uint64_t cells = equivalent_cells(pairs);
  engine::HwBackendConfig cfg;
  const asic::AreaEstimate est = asic::estimate(cfg.accel);

  const AccelMeasurement bt =
      measure_accelerator(pairs, cfg, /*backtrace=*/true,
                          /*separate_data=*/false);
  row("WFAsic [with backtrace]",
      asic::gcups(cells, bt.total_cycles(), est.frequency_ghz),
      est.total_area_mm2, "(simulated; paper: 61 / 38)");

  const AccelMeasurement nbt =
      measure_accelerator(pairs, cfg, /*backtrace=*/false, false);
  row("WFAsic [without backtrace]",
      asic::gcups(cells, nbt.batch_cycles, est.frequency_ghz),
      est.total_area_mm2, "(simulated; paper: 390 / 244)");

  print_rule(78);
  std::printf(
      "Modelled WFAsic: %.2f mm2, %.2f GHz post-PnR, %.0f mW (paper: 1.6\n"
      "mm2, 1.1 GHz, 312 mW). Per-Aligner GCUPS comparison with WFA-FPGA\n"
      "(31.3 GCUPS/Aligner, paper 5.5): WFAsic no-BT GCUPS above is one\n"
      "Aligner.\n",
      est.total_area_mm2, est.frequency_ghz, est.power_mw);
  return 0;
}
