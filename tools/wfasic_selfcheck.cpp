// Self-check CLI: the §5.1 verification campaign in one command. Runs the
// simulated accelerator against the software WFA across a matrix of
// configurations and input characteristics and reports any discrepancy.
//
//   wfasic-selfcheck [--quick] [--seed S]
#include <cstdio>
#include <cstring>

#include "verify/differential.hpp"

int main(int argc, char** argv) {
  using namespace wfasic;

  bool quick = false;
  std::uint64_t seed = 1;
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[arg], "--seed") == 0 && arg + 1 < argc) {
      seed = std::stoull(argv[++arg]);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--seed S]\n", argv[0]);
      return 2;
    }
  }

  struct Case {
    unsigned aligners;
    unsigned sections;
    std::size_t length;
    double error;
    bool backtrace;
  };
  std::vector<Case> cases = {
      {1, 64, 100, 0.05, true},  {1, 64, 100, 0.10, true},
      {1, 64, 500, 0.10, true},  {1, 32, 300, 0.10, true},
      {2, 32, 300, 0.10, true},  {4, 64, 200, 0.15, true},
      {1, 64, 1000, 0.05, false}, {1, 16, 150, 0.20, true},
  };
  if (!quick) {
    cases.push_back({1, 64, 2000, 0.10, true});
    cases.push_back({2, 64, 1000, 0.05, true});
    cases.push_back({1, 128, 500, 0.08, true});
  }

  std::size_t total_pairs = 0;
  std::size_t bad_cases = 0;
  for (std::size_t idx = 0; idx < cases.size(); ++idx) {
    const Case& c = cases[idx];
    engine::HwBackendConfig cfg;
    cfg.accel.num_aligners = c.aligners;
    cfg.accel.parallel_sections = c.sections;
    const gen::InputSetSpec spec{c.length, c.error, quick ? 4u : 8u,
                                 seed + idx};
    const verify::DifferentialReport report =
        verify::run_differential(cfg, spec, c.backtrace);
    total_pairs += report.pairs;
    std::printf("[%2zu/%zu] %ux%-3u  %5zu bp @%4.0f%%  %s  %s\n", idx + 1,
                cases.size(), c.aligners, c.sections, c.length,
                c.error * 100, c.backtrace ? "BT " : "NBT",
                report.clean() ? "OK" : "FAIL");
    if (!report.clean()) {
      ++bad_cases;
      for (const std::string& line : report.details) {
        std::printf("        %s\n", line.c_str());
      }
    }
  }

  std::printf("\n%zu pairs verified across %zu configurations: %s\n",
              total_pairs, cases.size(),
              bad_cases == 0 ? "all results match the software WFA"
                             : "DISCREPANCIES FOUND");
  return bad_cases == 0 ? 0 : 1;
}
