// Shared support for the table/figure reproduction benches: workload
// setup, per-input-set measurement via the SoC simulator, and fixed-width
// table printing.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/wfa.hpp"
#include "cpu/cpu_model.hpp"
#include "engine/metrics.hpp"
#include "gen/seqgen.hpp"
#include "soc/soc.hpp"

namespace wfasic::bench {

/// Compile-time sanitizer detection for the bench-report meta block.
/// WFASIC_SANITIZE only adds compiler flags, so probe the macros the
/// compilers define themselves (GCC: __SANITIZE_*; Clang: __has_feature).
inline std::string sanitizer_flags() {
  std::string flags;
#if defined(__SANITIZE_ADDRESS__)
  flags += "address";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  flags += "address";
#endif
#endif
#if defined(__SANITIZE_THREAD__)
  if (!flags.empty()) flags += ",";
  flags += "thread";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  if (!flags.empty()) flags += ",";
  flags += "thread";
#endif
#endif
  return flags.empty() ? "none" : flags;
}

/// Pair counts per input-set size class, chosen so every bench finishes in
/// seconds while averaging over several alignments.
struct PairCounts {
  std::size_t short_reads = 10;   // 100 bp
  std::size_t medium_reads = 6;   // 1 Kbp
  std::size_t long_reads = 2;     // 10 Kbp
};

inline std::vector<gen::InputSetSpec> paper_sets(const PairCounts& counts) {
  return gen::paper_input_sets(counts.short_reads, counts.medium_reads,
                               counts.long_reads);
}

/// Mean accelerator-side measurements of one batch run.
struct AccelMeasurement {
  double mean_align_cycles = 0;
  /// Isolated per-pair DMA read time (bursts + latency), the paper's
  /// Table-1 "Reading Cycles" semantics.
  double mean_reading_cycles = 0;
  /// Steady-state extraction span (FIFO-buffered, usually shorter).
  double mean_extract_cycles = 0;
  std::uint64_t batch_cycles = 0;   ///< whole-batch accelerator run
  std::uint64_t cpu_bt_cycles = 0;  ///< CPU backtrace (0 when disabled)
  std::size_t pairs = 0;
  bool all_success = true;

  [[nodiscard]] std::uint64_t total_cycles() const {
    return batch_cycles + cpu_bt_cycles;
  }
};

inline AccelMeasurement measure_accelerator(
    const std::vector<gen::SequencePair>& pairs, const soc::SocConfig& cfg,
    bool backtrace, bool separate_data) {
  // Size main memory to the workload: backtrace streams need room (the
  // 10K-10% set writes ~11 MB per pair); score-only runs get by with a
  // small arena, which keeps parallel bench runs cheap.
  soc::SocConfig sized = cfg;
  if (!backtrace) {
    sized.memory_bytes = 16ull << 20;
    sized.out_addr = 12ull << 20;
  }
  soc::Soc soc(sized);
  const soc::BatchResult result =
      soc.run_batch(pairs, backtrace, separate_data);
  AccelMeasurement m;
  m.pairs = pairs.size();
  m.batch_cycles = result.accel_cycles;
  m.cpu_bt_cycles = result.cpu_bt_cycles;
  for (const auto& rec : result.records) {
    m.mean_align_cycles += static_cast<double>(rec.align_cycles);
    m.all_success = m.all_success && rec.success;
  }
  m.mean_align_cycles /= static_cast<double>(pairs.size());
  for (const auto& rec : result.read_records) {
    m.mean_reading_cycles += static_cast<double>(
        cfg.accel.axi.stream_read_cycles(rec.beats));
    m.mean_extract_cycles += static_cast<double>(rec.reading_cycles);
  }
  m.mean_reading_cycles /= static_cast<double>(result.read_records.size());
  m.mean_extract_cycles /= static_cast<double>(result.read_records.size());
  return m;
}

/// Mean CPU-baseline cycles per pair for one input set (the WFA-CPU code
/// on the in-order core model, default penalties).
inline double measure_cpu_baseline(const std::vector<gen::SequencePair>& pairs,
                                   core::ExtendMode mode,
                                   core::Traceback traceback) {
  const cpu::CpuModel model;
  double total = 0;
  for (const auto& pair : pairs) {
    total += static_cast<double>(
        model.run_wfa(pair.a, pair.b, kDefaultPenalties, mode, traceback)
            .stats.total());
  }
  return total / static_cast<double>(pairs.size());
}

/// Equivalent SWG DP-cell count for a batch (§5.5: CUPS counts "the
/// equivalent number of DP cells that the SWG algorithm would need").
inline std::uint64_t equivalent_cells(
    const std::vector<gen::SequencePair>& pairs) {
  std::uint64_t cells = 0;
  for (const auto& pair : pairs) {
    cells += static_cast<std::uint64_t>(pair.a.size() + 1) *
             static_cast<std::uint64_t>(pair.b.size() + 1);
  }
  return cells;
}

/// Host wall-clock stopwatch for the perf-regression harness.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  /// Nanoseconds since construction.
  [[nodiscard]] std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Machine-readable bench output: collects named numeric metrics and
/// writes them as `BENCH_<name>.json` in the working directory, the
/// format tools/bench_compare.py diffs against the checked-in baselines
/// (bench/baselines/). Keep simulated-cycle and ratio metrics in here for
/// regression gating; raw wall-clock nanoseconds are recorded too but are
/// machine-dependent — compare ratios, not nanoseconds, across hosts.
class BenchReport {
 public:
  explicit BenchReport(std::string name) : name_(std::move(name)) {
    // Every report carries the run conditions that could explain a drift
    // a reader would otherwise chase blind: whether a sanitizer inflated
    // wall clocks. The block is informational — tools/bench_compare.py
    // gates only on the "metrics" object.
    meta("sanitizers", sanitizer_flags());
  }

  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, value);
  }

  /// Adds an informational string to the report's "meta" block (run
  /// conditions, workload shape such as the device count K — anything a
  /// reader needs to reproduce the run but must never gate on).
  void meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
  }
  void meta(const std::string& key, std::uint64_t value) {
    meta_.emplace_back(key, std::to_string(value));
  }

  /// Writes BENCH_<name>.json; returns false (with a message) on I/O
  /// failure so benches can fail loudly instead of silently skipping the
  /// artifact.
  bool write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "BenchReport: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"meta\": {\n",
                 name_.c_str());
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      std::fprintf(f, "    \"%s\": \"%s\"%s\n", meta_[i].first.c_str(),
                   meta_[i].second.c_str(), i + 1 < meta_.size() ? "," : "");
    }
    std::fprintf(f, "  },\n  \"metrics\": {\n");
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::fprintf(f, "    \"%s\": %.6f%s\n", metrics_[i].first.c_str(),
                   metrics_[i].second, i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, double>> metrics_;
};

/// Adds an EngineMetrics export to a BenchReport: every line of the
/// registry exposition engine::export_to_registry produces under `prefix`
/// (docs/OBSERVABILITY.md §4), so bench keys and `--stats` share one set
/// of names. The keys are informational — tools/bench_compare.py gates
/// only the cycle/ratio metrics.
inline void report_engine_metrics(BenchReport& report,
                                  const engine::EngineMetrics& metrics,
                                  const std::string& prefix) {
  common::MetricsRegistry reg;
  engine::export_to_registry(metrics, reg, prefix);
  for (const std::string& line : reg.text_lines()) {
    const std::size_t space = line.find(' ');
    report.metric(line.substr(0, space),
                  std::strtod(line.c_str() + space + 1, nullptr));
  }
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const char* title, const char* paper_note) {
  std::printf("\n%s\n", title);
  if (paper_note != nullptr && paper_note[0] != '\0') {
    std::printf("%s\n", paper_note);
  }
  print_rule(78);
}

}  // namespace wfasic::bench
