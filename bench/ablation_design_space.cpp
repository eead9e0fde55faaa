// Ablations over the design choices DESIGN.md calls out: number of
// parallel sections per Aligner, accelerator-memory bandwidth (burst
// latency), and the extend block width — each swept on a fixed workload,
// reporting alignment cycles and the area/performance trade-off.
#include <cstdio>
#include <vector>

#include "asic/area_model.hpp"
#include "bench/bench_util.hpp"

namespace {

using namespace wfasic;
using namespace wfasic::bench;

void sweep_parallel_sections() {
  print_header("Ablation A: parallel sections per Aligner (1K-10%, BT off)",
               "(short wavefronts leave wide designs idle - §5.4)");
  std::printf("%-6s %16s %12s %14s %16s\n", "PS", "align cyc/pair",
              "area mm2", "GCUPS @fmax", "GCUPS per mm2");
  print_rule(70);
  const auto pairs = gen::generate_input_set({1000, 0.10, 6, 301});
  const std::uint64_t cells = equivalent_cells(pairs);
  for (unsigned ps : {8u, 16u, 32u, 64u, 128u}) {
    engine::HwBackendConfig cfg;
    cfg.accel.parallel_sections = ps;
    const AccelMeasurement m = measure_accelerator(pairs, cfg, false, false);
    const asic::AreaEstimate est = asic::estimate(cfg.accel);
    const double g = asic::gcups(cells, m.batch_cycles, est.frequency_ghz);
    std::printf("%-6u %16.0f %12.2f %14.1f %16.1f\n", ps,
                m.mean_align_cycles, est.total_area_mm2, g,
                g / est.total_area_mm2);
  }
}

void sweep_memory_bandwidth() {
  print_header(
      "Ablation B: memory-path latency (100-5%, 4 Aligners, BT off)",
      "(short reads are bandwidth bound - Figure 10's saturation)");
  std::printf("%-14s %18s %18s\n", "Read latency", "batch cycles",
              "mean read cyc");
  print_rule(56);
  const auto pairs = gen::generate_input_set({100, 0.05, 40, 302});
  for (unsigned latency : {0u, 9u, 27u, 54u, 108u}) {
    engine::HwBackendConfig cfg;
    cfg.accel.num_aligners = 4;
    cfg.accel.axi.read_latency = latency;
    const AccelMeasurement m = measure_accelerator(pairs, cfg, false, false);
    std::printf("%-14u %18llu %18.0f\n", latency,
                static_cast<unsigned long long>(m.batch_cycles),
                m.mean_reading_cycles);
  }
}

void sweep_kmax() {
  print_header("Ablation C: wavefront band k_max (Eq. 6 failure threshold)",
               "(alignments whose score exceeds 2*k_max+4 fail with "
               "Success=0)");
  std::printf("%-8s %12s %14s %12s\n", "k_max", "Score_max", "success rate",
              "area mm2");
  print_rule(56);
  const auto pairs = gen::generate_input_set({1000, 0.10, 10, 303});
  for (diag_t k_max : {50, 150, 300, 600, 3998}) {
    engine::HwBackendConfig cfg;
    cfg.accel.k_max = k_max;
    const engine::BatchResult r = run_batch(cfg, pairs, false, false);
    std::size_t ok = 0;
    for (const auto& rec : r.records) ok += rec.success ? 1 : 0;
    std::printf("%-8d %12d %13.0f%% %12.2f\n", k_max, 2 * k_max + 4,
                100.0 * static_cast<double>(ok) /
                    static_cast<double>(pairs.size()),
                asic::estimate(cfg.accel).total_area_mm2);
  }
}

void phase_breakdown() {
  print_header("Ablation D: Aligner cycle breakdown per input set (BT on)",
               "(extend vs compute vs per-score overhead vs output stalls)");
  std::printf("%-9s %12s %12s %12s %12s\n", "Input", "extend", "compute",
              "overhead", "out-stall");
  print_rule(64);
  for (const auto& spec : paper_sets({8, 4, 2})) {
    const auto pairs = gen::generate_input_set(spec);
    const engine::BatchResult r =
        run_batch(engine::HwBackendConfig{}, pairs, true, false);
    const double n = static_cast<double>(pairs.size());
    std::printf("%-9s %12.0f %12.0f %12.0f %12.0f\n", spec.name().c_str(),
                static_cast<double>(r.phase.extend) / n,
                static_cast<double>(r.phase.compute) / n,
                static_cast<double>(r.phase.overhead) / n,
                static_cast<double>(r.output_stall_cycles) / n);
  }
}

}  // namespace

int main() {
  sweep_parallel_sections();
  sweep_memory_bandwidth();
  sweep_kmax();
  phase_breakdown();
  return 0;
}
