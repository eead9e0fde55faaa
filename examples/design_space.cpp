// Design-space exploration: uses the cycle simulator and the ASIC area
// model together to answer the question §5.4 of the paper answers for its
// chip — how should a fixed silicon budget be split between Aligners and
// parallel sections?
#include <cstdio>
#include <vector>

#include "asic/area_model.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"

int main(int argc, char** argv) {
  using namespace wfasic;

  const std::size_t length = argc > 1 ? std::stoul(argv[1]) : 1000;
  const double error_rate = argc > 2 ? std::stod(argv[2]) : 0.10;
  const std::size_t pairs_n = argc > 3 ? std::stoul(argv[3]) : 8;

  const auto pairs =
      gen::generate_input_set({length, error_rate, pairs_n, 777});
  std::uint64_t cells = 0;
  for (const auto& p : pairs) {
    cells += static_cast<std::uint64_t>(p.a.size() + 1) * (p.b.size() + 1);
  }

  struct Candidate {
    unsigned aligners;
    unsigned sections;
  };
  const std::vector<Candidate> candidates = {
      {1, 32}, {1, 64}, {1, 128}, {2, 32}, {2, 64}, {4, 16}, {4, 32},
  };

  std::printf(
      "Design-space exploration on %zu pairs of %zu bp at %.0f%% error\n\n",
      pairs_n, length, error_rate * 100);
  std::printf("%-10s %12s %10s %8s %10s %14s\n", "Config", "batch cyc",
              "area mm2", "GHz", "GCUPS", "GCUPS per mm2");
  for (const Candidate& c : candidates) {
    engine::EngineConfig cfg;
    cfg.device.accel.num_aligners = c.aligners;
    cfg.device.accel.parallel_sections = c.sections;
    engine::Engine soc(cfg);
    const engine::BatchResult r = soc.run_batch(pairs, false, false);
    const asic::AreaEstimate est = asic::estimate(cfg.device.accel);
    const double g = asic::gcups(cells, r.accel_cycles, est.frequency_ghz);
    std::printf("%ux%-8u %12llu %10.2f %8.2f %10.1f %14.1f\n", c.aligners,
                c.sections,
                static_cast<unsigned long long>(r.accel_cycles),
                est.total_area_mm2, est.frequency_ghz, g,
                g / est.total_area_mm2);
  }
  std::printf(
      "\nThe paper's §5.4 conclusion — one 64-section Aligner beats two\n"
      "32-section ones for long reads at lower area — falls out of the\n"
      "model; for short reads more Aligners win (Figure 11).\n");
  return 0;
}
