// File-driven aligner CLI: aligns every pair of a >/< pair file with a
// chosen engine and prints one result line per pair.
//
//   wfasic_align <input.seq> [--engine wfa|wfa-adaptive|swg|accel]
//                [--score-only] [--penalties x,o,e]
//                [--stats] [--trace=<out.json>]
//
// The `accel` engine runs the full simulated SoC (a single-device
// engine::Engine: accelerator + CPU backtrace) and additionally reports
// accelerator cycles. With `accel`,
// --stats dumps the PMU counter bank and the engine metrics to stderr,
// and --trace writes a Chrome trace-event JSON of the run (load it at
// https://ui.perfetto.dev — see docs/OBSERVABILITY.md). Both are
// observational: the alignment output and cycle counts are bit-identical
// with and without them.
#include <cstdio>
#include <cstring>
#include <string>

#include "common/trace_json.hpp"
#include "core/swg_affine.hpp"
#include "core/wfa.hpp"
#include "engine/engine.hpp"
#include "gen/pairfile.hpp"
#include "tools/stats_util.hpp"

namespace {

using namespace wfasic;

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <input.seq> [--engine wfa|wfa-adaptive|swg|accel]"
               " [--score-only] [--penalties x,o,e]"
               " [--stats] [--trace=<out.json>]\n",
               argv0);
}

int run_software(const std::vector<gen::SequencePair>& pairs,
                 const std::string& engine, const Penalties& pen,
                 core::Traceback traceback) {
  core::WfaConfig cfg;
  cfg.pen = pen;
  cfg.traceback = traceback;
  cfg.heuristic.enabled = engine == "wfa-adaptive";
  core::WfaAligner aligner(cfg);
  for (const auto& pair : pairs) {
    core::AlignResult result;
    if (engine == "swg") {
      result = core::align_swg(pair.a, pair.b, pen, traceback);
    } else {
      result = aligner.align(pair.a, pair.b);
    }
    if (!result.ok) {
      std::printf("%u\tFAILED\n", pair.id);
      continue;
    }
    if (traceback == core::Traceback::kEnabled) {
      std::printf("%u\t%d\t%s\n", pair.id, result.score,
                  result.cigar.rle().c_str());
    } else {
      std::printf("%u\t%d\n", pair.id, result.score);
    }
  }
  return 0;
}

int run_accelerator(const std::vector<gen::SequencePair>& pairs,
                    const Penalties& pen, core::Traceback traceback,
                    bool stats, const std::string& trace_path) {
  engine::EngineConfig cfg;
  cfg.device.accel.pen = pen;
  cfg.device.accel.trace = !trace_path.empty();
  engine::Engine engine(cfg);
  hw::Accelerator& accel = engine.device(0).accelerator();
  const bool backtrace = traceback == core::Traceback::kEnabled;
  const engine::BatchResult result = engine.run_batch(pairs, backtrace, false);
  if (stats) {
    drv::Driver driver(accel);
    tools::print_perf_snapshot(driver.read_perf_counters(), stderr);
    tools::print_engine_metrics(engine.metrics(), stderr);
  }
  if (!trace_path.empty()) {
    if (!common::write_chrome_trace_file(accel.trace(), trace_path)) {
      std::fprintf(stderr, "# trace: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "# trace: wrote %s (%zu events)\n",
                 trace_path.c_str(), accel.trace().events().size());
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto& alignment = result.alignments[i];
    if (!alignment.ok) {
      std::printf("%zu\tFAILED\n", i);
    } else if (backtrace) {
      std::printf("%zu\t%d\t%s\n", i, alignment.score,
                  alignment.cigar.rle().c_str());
    } else {
      std::printf("%zu\t%d\n", i, alignment.score);
    }
  }
  std::fprintf(stderr, "# accelerator: %llu cycles, cpu backtrace: %llu\n",
               static_cast<unsigned long long>(result.accel_cycles),
               static_cast<unsigned long long>(result.cpu_bt_cycles));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2 || argv[1][0] == '-') {
    usage(argv[0]);
    return 2;
  }
  std::string engine = "wfa";
  Penalties pen = kDefaultPenalties;
  core::Traceback traceback = core::Traceback::kEnabled;
  bool stats = false;
  std::string trace_path;
  for (int arg = 2; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--engine") == 0 && arg + 1 < argc) {
      engine = argv[++arg];
    } else if (std::strcmp(argv[arg], "--score-only") == 0) {
      traceback = core::Traceback::kDisabled;
    } else if (std::strcmp(argv[arg], "--stats") == 0) {
      stats = true;
    } else if (std::strncmp(argv[arg], "--trace=", 8) == 0) {
      trace_path = argv[arg] + 8;
    } else if (std::strcmp(argv[arg], "--penalties") == 0 && arg + 1 < argc) {
      int x = 0;
      int o = 0;
      int e = 0;
      if (std::sscanf(argv[++arg], "%d,%d,%d", &x, &o, &e) != 3) {
        usage(argv[0]);
        return 2;
      }
      pen = Penalties{x, o, e};
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (engine != "wfa" && engine != "wfa-adaptive" && engine != "swg" &&
      engine != "accel") {
    usage(argv[0]);
    return 2;
  }
  if ((stats || !trace_path.empty()) && engine != "accel") {
    std::fprintf(stderr,
                 "%s: --stats/--trace need the simulated SoC "
                 "(--engine accel)\n",
                 argv[0]);
    return 2;
  }

  // Pair ids must be 0..n-1 for the accelerator path; load_pairs assigns
  // them sequentially already.
  const auto pairs = wfasic::gen::load_pairs(argv[1]);
  if (engine == "accel") {
    return run_accelerator(pairs, pen, traceback, stats, trace_path);
  }
  return run_software(pairs, engine, pen, traceback);
}
