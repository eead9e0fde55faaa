// Engine throughput: blocking single-device vs pipelined single-device vs
// K-device sharding, in GCUPS at the modelled post-PnR frequency.
//
// The blocking row is the serial accounting of the single-device run
// (encode, align and decode strictly in sequence); the pipelined rows run
// the same dataset through the engine's double-buffered schedule (encode
// batch N+1 and decode batch N-1 overlap the aligning of batch N); the
// K-device rows shard the dataset across independent simulated
// accelerators with least-loaded dispatch.
//
// Two workloads show two different ceilings. With backtrace the single
// host CPU decodes every BT stream, so sharding saturates once the CPU is
// busy full-time — the engine exposes exactly the co-design bottleneck
// the paper discusses. Score-only (NBT) decode is a few cycles per pair,
// so throughput scales with the device count. Self-verifies both
// acceptance properties: the BT pipelined makespan beats the serial
// align+backtrace sum, and 4 score-only devices deliver at least 2x the
// blocking GCUPS.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "asic/area_model.hpp"
#include "bench/bench_util.hpp"
#include "engine/engine.hpp"

int main(int argc, char** argv) {
  using namespace wfasic;
  using namespace wfasic::bench;

  const std::size_t read_len = argc > 1 ? std::stoul(argv[1]) : 800;
  const std::size_t num_pairs = argc > 2 ? std::stoul(argv[2]) : 24;
  const std::size_t batch_pairs = argc > 3 ? std::stoul(argv[3]) : 4;

  const auto pairs = gen::generate_input_set(
      {read_len, 0.10, num_pairs, 2024});
  const std::uint64_t cells = equivalent_cells(pairs);

  engine::EngineConfig base;
  // Sized to the workload, not the default 256 MB: K=4 instantiates four
  // independent memories.
  base.device.memory_bytes = 64ull << 20;
  base.device.out_addr = 16ull << 20;
  const asic::AreaEstimate est = asic::estimate(base.device.accel);

  auto run_devices = [&](unsigned devices, bool backtrace,
                         bool idle_skip = true) {
    engine::EngineConfig cfg = base;
    cfg.num_devices = devices;
    cfg.device.accel.idle_skip = idle_skip;
    engine::Engine eng(cfg);
    return eng.run_dataset(pairs, batch_pairs, backtrace,
                           /*separate_data=*/false);
  };

  std::printf("\nEngine throughput: %zu pairs of %zu bp in batches of %zu\n",
              num_pairs, read_len, batch_pairs);

  bool ok = true;
  double bt_pipeline_speedup = 0;
  double nbt_shard_speedup = 0;
  for (const bool backtrace : {true, false}) {
    print_header(backtrace
                     ? "With backtrace (CPU decodes every BT stream)"
                     : "Score-only (NBT: trivial decode, devices scale)",
                 "");
    std::printf("%-34s %14s %10s %8s\n", "Configuration", "Total cycles",
                "GCUPS", "Speedup");
    print_rule(70);

    const engine::BatchResult k1 = run_devices(1, backtrace);
    // The serial accounting of the very same run: every phase in sequence.
    const std::uint64_t blocking_cycles =
        k1.encode_cycles + k1.accel_cycles + k1.cpu_bt_cycles;
    const double blocking_gcups =
        asic::gcups(cells, blocking_cycles, est.frequency_ghz);

    const auto row = [&](const char* name, std::uint64_t cycles) {
      const double g = asic::gcups(cells, cycles, est.frequency_ghz);
      std::printf("%-34s %14llu %10.2f %7.2fx\n", name,
                  static_cast<unsigned long long>(cycles), g,
                  g / blocking_gcups);
      return g / blocking_gcups;
    };

    row("blocking, 1 device", blocking_cycles);
    const double p1 = row("pipelined, 1 device", k1.pipeline_cycles);
    row("pipelined, 2 devices",
        run_devices(2, backtrace).pipeline_cycles);
    const double p4 = row("pipelined, 4 devices",
                          run_devices(4, backtrace).pipeline_cycles);
    print_rule(70);

    if (backtrace) {
      bt_pipeline_speedup = p1;
      // Acceptance: overlap must hide CPU work even against the
      // align+backtrace sum alone, which leaves encode out.
      if (k1.pipeline_cycles >= k1.accel_cycles + k1.cpu_bt_cycles) {
        std::printf("FAIL: pipelined makespan does not beat the serial "
                    "align+backtrace sum\n");
        ok = false;
      }
    } else {
      nbt_shard_speedup = p4;
      // Acceptance: four score-only devices at least double throughput.
      if (p4 < 2.0) {
        std::printf("FAIL: 4-device GCUPS below 2x blocking "
                    "single-device\n");
        ok = false;
      }
    }
  }

  // --- Host wall-clock: fast path vs exact reference --------------------
  // The same K=4 score-only run, timed under exact per-cycle stepping
  // (the reference) and under the fast path (quiet-span skips plus
  // macro-steps, the default). Simulated results must be bit-identical
  // (checked here, live); only host wall-clock may differ. Each strategy
  // is timed over kWallReps interleaved repetitions; the gate uses the
  // per-strategy minimum (the least-perturbed run), with median and
  // stddev exported so CI flakes are diagnosable from the report alone.
  // The wall_speedup ratio (reference / fast) is machine-independent
  // enough to gate on in CI, unlike raw nanoseconds; the host_wall_* keys
  // are informational.
  print_header("Host wall-clock: stepping fast path vs exact stepping",
               "(identical simulated cycles, K=4 score-only, best of 5)");
  constexpr int kWallReps = 5;
  engine::BatchResult ref{};
  engine::BatchResult fast{};
  std::vector<std::uint64_t> ref_samples;
  std::vector<std::uint64_t> fast_samples;
  for (int rep = 0; rep < kWallReps; ++rep) {
    WallTimer ref_timer;
    ref = run_devices(4, /*backtrace=*/false, /*idle_skip=*/false);
    ref_samples.push_back(ref_timer.elapsed_ns());
    WallTimer fast_timer;
    fast = run_devices(4, /*backtrace=*/false);
    fast_samples.push_back(fast_timer.elapsed_ns());
    if (fast.pipeline_cycles != ref.pipeline_cycles ||
        fast.accel_cycles != ref.accel_cycles) {
      std::printf("FAIL: the fast path changed simulated cycles (%llu/%llu "
                  "vs reference %llu/%llu)\n",
                  static_cast<unsigned long long>(fast.pipeline_cycles),
                  static_cast<unsigned long long>(fast.accel_cycles),
                  static_cast<unsigned long long>(ref.pipeline_cycles),
                  static_cast<unsigned long long>(ref.accel_cycles));
      ok = false;
    }
  }
  const auto wall_stats = [](std::vector<std::uint64_t> ns) {
    std::sort(ns.begin(), ns.end());
    const double median =
        ns.size() % 2 != 0
            ? static_cast<double>(ns[ns.size() / 2])
            : 0.5 * (static_cast<double>(ns[ns.size() / 2 - 1]) +
                     static_cast<double>(ns[ns.size() / 2]));
    double mean = 0;
    for (const std::uint64_t v : ns) mean += static_cast<double>(v);
    mean /= static_cast<double>(ns.size());
    double var = 0;
    for (const std::uint64_t v : ns) {
      const double d = static_cast<double>(v) - mean;
      var += d * d;
    }
    var /= static_cast<double>(ns.size());
    struct Stats {
      std::uint64_t min;
      double median;
      double stddev;
    };
    return Stats{ns.front(), median, std::sqrt(var)};
  };
  const auto ref_stats = wall_stats(ref_samples);
  const auto fast_stats = wall_stats(fast_samples);
  const std::uint64_t wall_ns_reference = ref_stats.min;
  const std::uint64_t wall_ns_fast = fast_stats.min;
  const double wall_speedup = static_cast<double>(wall_ns_reference) /
                              static_cast<double>(wall_ns_fast);
  const double k4_gcups = asic::gcups(cells, fast.pipeline_cycles,
                                      est.frequency_ghz);
  std::printf("reference stepping: %10.3f ms\n",
              static_cast<double>(wall_ns_reference) / 1e6);
  std::printf("fast path:          %10.3f ms   (%.2fx wall-clock)\n",
              static_cast<double>(wall_ns_fast) / 1e6, wall_speedup);

  // One untimed fast-path run on a kept-alive engine so the
  // observability export below reads per-device utilization and latency.
  engine::EngineConfig fast_cfg = base;
  fast_cfg.num_devices = 4;
  engine::Engine fast_eng(fast_cfg);
  (void)fast_eng.run_dataset(pairs, batch_pairs, /*backtrace=*/false,
                             /*separate_data=*/false);

  BenchReport report("engine_throughput");
  report.meta("devices", std::uint64_t{4});
  report.metric("k4_nbt_sim_cycles",
                static_cast<double>(fast.pipeline_cycles));
  report.metric("k4_nbt_gcups", k4_gcups);
  report.metric("bt_pipeline_speedup", bt_pipeline_speedup);
  report.metric("nbt_shard_speedup", nbt_shard_speedup);
  report.metric("wall_ns_fast", static_cast<double>(wall_ns_fast));
  report.metric("wall_ns_reference", static_cast<double>(wall_ns_reference));
  report.metric("wall_speedup", wall_speedup);
  // Host wall-clock keys (informational, machine-dependent — see
  // tools/bench_compare.py): the median/stddev of both sample sets so a
  // flapping CI number can be told apart from a real regression without
  // a rerun.
  report.metric("host_wall_ns_reference_median", ref_stats.median);
  report.metric("host_wall_ns_reference_stddev", ref_stats.stddev);
  report.metric("host_wall_ns_macro_median", fast_stats.median);
  report.metric("host_wall_ns_macro_stddev", fast_stats.stddev);
  // Engine observability export (informational keys, not regression-gated;
  // bench_compare.py reports candidate-only keys without failing).
  report_engine_metrics(report, fast_eng.metrics(), "k4_nbt");
  if (!report.write()) ok = false;

  if (ok) {
    std::printf("\nOK: pipelining hides the CPU phases (%.2fx with BT); "
                "sharding scales score-only throughput %.2fx on 4 "
                "devices.\nBT sharding saturates sooner: one CPU decodes "
                "all streams — the co-design bottleneck.\n",
                bt_pipeline_speedup, nbt_shard_speedup);
  }
  return ok ? 0 : 1;
}
