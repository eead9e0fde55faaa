#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <stdexcept>

#include "asic/area_model.hpp"
#include "common/prng.hpp"
#include "core/wfa.hpp"
#include "drv/backtrace_cpu.hpp"
#include "drv/driver.hpp"
#include "engine/engine.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "hw/regs.hpp"
#include "mem/main_memory.hpp"
#include "oracle.hpp"
#include "svc/service.hpp"

namespace perfbench {

using namespace wfasic;

namespace {

struct CatalogEntry {
  const char* name;
  const char* unit;
  const char* clock;
};

// Every metric the benchmark can print. BENCHMARK.json picks the
// end-to-end and per-layer subsets the result line carries.
constexpr CatalogEntry kCatalog[] = {
    // End to end.
    {"host_mcells_per_s", "Mcells/s", "host"},
    {"setup_s", "s", "host"},
    {"peak_rss_mb", "MB", "host"},
    {"sim_cycles", "cycles", "modeled"},
    {"modeled_gcups", "GCUPS", "modeled"},
    {"latency_p50_cycles", "cycles", "modeled"},
    {"latency_p99_cycles", "cycles", "modeled"},
    {"latency_samples", "count", "count"},
    {"failed_ratio", "ratio", "count"},
    // hw/sim: the device run (Driver::start + Accelerator::step_many).
    {"hw.run_ns_per_mcell", "ns/Mcell", "host"},
    {"hw.run_share", "ratio", "host"},
    {"hw.ns_per_sim_cycle", "ns/cycle", "host"},
    {"hw.ns_per_wavefront_step", "ns/step", "host"},
    {"sim.ticks_per_cycle", "ticks/cycle", "count"},
    {"sim.macro_cycle_share", "ratio", "count"},
    {"sim.macro_dispatches", "count", "count"},
    {"hw.wavefront_steps", "count", "modeled"},
    {"hw.extend_invocations", "count", "modeled"},
    {"hw.dma_beats_written", "count", "modeled"},
    {"hw.aligner_stall_cycles", "cycles", "modeled"},
    // drv: input encode and result decode.
    {"drv.encode_ns_per_mcell", "ns/Mcell", "host"},
    {"drv.bt_parse_ns_per_mcell", "ns/Mcell", "host"},
    {"drv.bt_reconstruct_ns_per_mcell", "ns/Mcell", "host"},
    {"drv.nbt_decode_ns_per_mcell", "ns/Mcell", "host"},
    {"drv.encode_share", "ratio", "host"},
    {"drv.decode_share", "ratio", "host"},
    // engine: run_dataset minus the replayed drv + hw spans.
    {"engine.self_ns_per_batch", "ns/batch", "host"},
    {"engine.self_share", "ratio", "host"},
    {"engine.device_utilization_min", "ratio", "modeled"},
    {"engine.inflight_high_water", "count", "count"},
    // core: the software WFA.
    {"core.align_ns_per_mcell", "ns/Mcell", "host"},
    {"core.ns_per_cell_computed", "ns/cell", "host"},
    {"core.cells_computed", "count", "count"},
    {"core.extend_cells", "count", "count"},
    {"core.wf_bytes_allocated", "bytes", "count"},
    {"core.peak_live_wf_bytes", "bytes", "count"},
    // svc: the client-facing calls of AlignService.
    {"svc.submit_ns_per_request", "ns/request", "host"},
    {"svc.pump_ns_per_request", "ns/request", "host"},
    {"svc.harvest_ns_per_request", "ns/request", "host"},
    {"svc.client_ns_per_request", "ns/request", "host"},
    {"svc.pumps", "count", "count"},
    {"svc.useful_attempt_ratio", "ratio", "count"},
    {"svc.hedges_launched", "count", "count"},
    {"svc.duplicates_suppressed", "count", "count"},
    {"svc.queue_high_water", "count", "count"},
    {"svc.inject_lateness_max_cycles", "cycles", "modeled"},
    // Modeled split of the pipelined schedule.
    {"drv.encode_cycles", "cycles", "modeled"},
    {"hw.accel_cycles", "cycles", "modeled"},
    {"drv.decode_cycles", "cycles", "modeled"},
    // The traced run itself.
    {"trace.overhead_ratio", "ratio", "host"},
    {"trace.replay_batches_matched", "count", "count"},
};

/// Set-up is repeated at least kSetupRepeats times and for at least
/// kSetupSeconds, and its median reported, so one slow allocation does not
/// decide setup_s even where a set-up takes well under a millisecond.
constexpr std::size_t kSetupRepeats = 7;
constexpr double kSetupSeconds = 0.25;
/// Repetitions a timed phase runs at least, whatever --seconds says, so
/// the reported median has something to choose from.
constexpr std::size_t kMinReps = 3;

double to_seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

std::uint64_t equivalent_cells(std::span<const gen::SequencePair> pairs) {
  std::uint64_t cells = 0;
  for (const gen::SequencePair& p : pairs) {
    cells += static_cast<std::uint64_t>(p.a.size() + 1) *
             static_cast<std::uint64_t>(p.b.size() + 1);
  }
  return cells;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// Runs `make` repeatedly, records the median wall time as setup_s and
/// returns the last product.
template <typename Make>
auto measure_setup(Report& report, Make&& make) {
  std::vector<double> samples;
  decltype(make()) kept{};
  double spent = 0;
  while (samples.size() < kSetupRepeats || spent < kSetupSeconds) {
    kept = {};  // at most one product alive while the next one is built
    const std::uint64_t t0 = SpanRecorder::now_ns();
    auto built = make();
    samples.push_back(to_seconds(SpanRecorder::now_ns() - t0));
    spent += samples.back();
    kept = std::move(built);
  }
  report.set("setup_s", median(samples));
  return kept;
}

/// Calls `rep(index)` — which returns the host seconds it measured — until
/// `seconds` of wall time have passed and at least kMinReps ran.
template <typename Rep>
std::vector<double> timed_reps(double seconds, Rep&& rep) {
  std::vector<double> measured;
  const std::uint64_t deadline =
      SpanRecorder::now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  do {
    measured.push_back(rep(measured.size()));
  } while (measured.size() < kMinReps || SpanRecorder::now_ns() < deadline);
  return measured;
}

/// The timed and the traced phase of one run. The timed run spends all of
/// --seconds untraced; the traced run splits it, so the two halves give
/// the tracing overhead on the same inputs.
struct Phases {
  std::vector<double> untraced;
  std::vector<double> traced;
};

template <typename Rep>
Phases run_phases(const Options& opts, Report& report, Rep&& rep) {
  Phases phases;
  SpanRecorder off(false);
  // Peak memory is read after a fixed number of repetitions: state the
  // devices keep across runs grows with every repetition, and how many
  // repetitions fit in --seconds depends on the host.
  const auto untraced = [&](std::size_t i) {
    const double seconds = rep(off, i);
    if (i + 1 == kMinReps) report.set("peak_rss_mb", peak_rss_mb());
    return seconds;
  };
  if (!opts.trace) {
    phases.untraced = timed_reps(opts.seconds, untraced);
    return phases;
  }
  phases.untraced = timed_reps(opts.seconds / 2, untraced);
  const std::size_t base = phases.untraced.size();
  phases.traced = timed_reps(opts.seconds / 2, [&](std::size_t i) {
    return rep(report.spans, base + i);
  });
  report.set("trace.overhead_ratio",
             median(phases.traced) / median(phases.untraced) - 1.0);
  return phases;
}

void report_rate(Report& report, const Phases& phases, std::uint64_t cells) {
  std::vector<double> rates;
  for (const double s : phases.untraced) {
    rates.push_back(static_cast<double>(cells) / s / 1e6);
  }
  report.set("host_mcells_per_s", median(rates));
}

double modeled_gcups(std::uint64_t cells, std::uint64_t cycles,
                     const hw::AcceleratorConfig& accel) {
  return asic::gcups(cells, cycles, asic::estimate(accel).frequency_ghz);
}

// --- Engine::run_dataset workloads (bt_long, nbt_short_k4) ----------------

struct DatasetSpec {
  std::size_t length;
  double error_rate;
  std::size_t pairs;
  unsigned devices;
  bool backtrace;
  std::size_t batch_pairs;
};

// The paper's hardest Table-1 set: host time is almost all device
// simulation, with multi-MB backtrace streams for drv to parse. Sixteen
// pairs make four batches and about 2 s of host time a repetition.
constexpr DatasetSpec kBtLong{10'000, 0.10, 16, 1, true, 4};
// Short score-only reads in ten thousand small batches: per-batch costs
// dominate (engine sharding and merging, drv encode/decode, sim dispatch).
// Twice as many pairs exposes the quadratic makespan scan more, but puts the
// working set out of cache, where host time swings with the neighbours'
// memory traffic.
constexpr DatasetSpec kNbtShortK4{150, 0.05, 40'000, 4, false, 4};

engine::EngineConfig dataset_engine_config(const DatasetSpec& spec) {
  engine::EngineConfig cfg;
  cfg.num_devices = spec.devices;
  return cfg;
}

std::vector<gen::SequencePair> generate(const DatasetSpec& spec,
                                        std::uint64_t seed) {
  gen::InputSetSpec in;
  in.length = spec.length;
  in.error_rate = spec.error_rate;
  in.num_pairs = spec.pairs;
  in.seed = seed;
  return gen::generate_input_set(in);
}

/// The launch-local batch run_dataset builds for pairs [base, base+count).
engine::BatchJob shard_job(std::span<const gen::SequencePair> pairs,
                           std::size_t base, std::size_t count,
                           bool backtrace) {
  engine::BatchJob job;
  job.backtrace = backtrace;
  job.pairs.assign(pairs.begin() + static_cast<std::ptrdiff_t>(base),
                   pairs.begin() + static_cast<std::ptrdiff_t>(base + count));
  for (std::size_t i = 0; i < job.pairs.size(); ++i) {
    job.pairs[i].id = static_cast<std::uint32_t>(i);
  }
  return job;
}

/// Tallies `got` against the oracle, `times` times over: the repetitions
/// of a run each repeated the first one exactly, or were counted
/// mismatched on their own.
void tally_results(FailureTally& tally, std::span<const core::AlignResult> got,
                   std::span<const Expected> want, bool with_cigar,
                   std::uint64_t times) {
  FailureTally once;
  for (std::size_t i = 0; i < want.size(); ++i) {
    Observed obs{false, false, 0, ""};
    if (i < got.size()) obs = observe(got[i], with_cigar);
    tally_pair(once, obs, want[i]);
  }
  tally.attempted += times * once.attempted;
  tally.mismatched += times * once.mismatched;
  tally.unresolved += times * once.unresolved;
}

/// Re-runs the engine's batches through the async surface (submit in
/// dataset order, wait in order — what run_dataset does) to expose each
/// batch's Completion, then replays every batch at driver level on a
/// fresh device, timing drv encode, the device run and the decode.
void trace_dataset(Report& report, const DatasetSpec& spec,
                   std::span<const gen::SequencePair> pairs,
                   const engine::BatchResult& reference) {
  const engine::EngineConfig cfg = dataset_engine_config(spec);
  SpanRecorder& rec = report.spans;

  // Mirror: per-batch completions of the same schedule.
  engine::Engine mirror(cfg);
  std::vector<engine::JobHandle> handles;
  std::vector<unsigned> device_of;
  std::vector<std::pair<std::size_t, std::size_t>> shards;
  for (std::size_t base = 0; base < pairs.size(); base += spec.batch_pairs) {
    const std::size_t count = std::min(spec.batch_pairs, pairs.size() - base);
    handles.push_back(
        mirror.submit(shard_job(pairs, base, count, spec.backtrace)));
    device_of.push_back(mirror.handle_device(handles.back()));
    shards.emplace_back(base, count);
  }
  std::vector<engine::Completion> completions;
  std::vector<engine::PhaseSample> samples;
  std::uint64_t encode_cycles = 0;
  std::uint64_t accel_cycles = 0;
  std::uint64_t decode_cycles = 0;
  std::vector<std::uint64_t> busy(spec.devices, 0);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    completions.push_back(mirror.wait(handles[i]));
    const engine::Completion& c = completions.back();
    if (!c.completed_run()) report.replay_ok = false;
    samples.push_back({c.encode_cycles, c.accel_cycles, c.decode_cycles,
                       device_of[i]});
    encode_cycles += c.encode_cycles;
    accel_cycles += c.accel_cycles;
    decode_cycles += c.decode_cycles;
    busy[device_of[i]] += c.accel_cycles;
  }
  if (accel_cycles != reference.accel_cycles ||
      engine::pipelined_makespan(samples, spec.devices) !=
          reference.pipeline_cycles) {
    std::printf("FAIL: the async mirror disagrees with run_dataset\n");
    report.replay_ok = false;
  }
  report.set("drv.encode_cycles", static_cast<double>(encode_cycles));
  report.set("hw.accel_cycles", static_cast<double>(accel_cycles));
  report.set("drv.decode_cycles", static_cast<double>(decode_cycles));
  double util_min = 1.0;
  for (const std::uint64_t b : busy) {
    util_min = std::min(util_min, ratio(static_cast<double>(b),
                                        static_cast<double>(
                                            reference.pipeline_cycles)));
  }
  report.set("engine.device_utilization_min", util_min);

  // Replay: one device, the engine's arena slot per batch (a device's
  // k-th launch stages into slot k mod 2 while its queue stays full), the
  // watchdog disarmed as HwBackend does, and the same poll quantum.
  const engine::HwBackendConfig& dev = cfg.device;
  mem::MainMemory memory(dev.memory_bytes);
  hw::Accelerator accel(dev.accel, memory);
  drv::Driver driver(accel);
  accel.write_reg(hw::kRegWatchdog, dev.watchdog);
  const std::uint64_t slot_bytes = (dev.out_addr - dev.in_addr) / 2;
  std::vector<std::uint32_t> launches(spec.devices, 0);
  const sim::Scheduler::DispatchStats before = accel.dispatch_stats();
  std::uint64_t replay_cycles = 0;
  hw::PerfSnapshot perf_sum;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const engine::BatchJob job =
        shard_job(pairs, shards[i].first, shards[i].second, spec.backtrace);
    const std::uint32_t k = launches[device_of[i]]++;
    const std::int64_t batch = rec.open("replay.batch", i);
    drv::BatchLayout layout;
    {
      ScopedSpan s(rec, "drv.encode", i, batch);
      layout = drv::encode_input_set(memory, job.pairs,
                                     dev.in_addr + (k % 2) * slot_bytes,
                                     dev.out_addr, 0, dev.accel.crc, k + 1);
    }
    const std::uint64_t want = completions[i].accel_cycles;
    std::uint64_t start = 0;
    {
      ScopedSpan s(rec, "hw.run", i, batch);
      driver.start(layout, spec.backtrace);
      start = accel.now();
      // Bounded: a replay that runs past the engine's count has diverged.
      while (!accel.idle() && accel.now() - start <= want) {
        accel.step_many(dev.poll_quantum);
      }
    }
    const std::uint64_t cycles = accel.now() - start;
    const drv::RunStatus status = driver.classify_run(cycles, accel.idle());
    replay_cycles += cycles;
    for (std::uint32_t c = 0; c < hw::kNumPerfCounters; ++c) {
      const auto idx = static_cast<hw::PerfIdx>(c);
      perf_sum.set_counter(idx, perf_sum.counter(idx) + status.perf.counter(idx));
    }

    std::vector<core::AlignResult> decoded(job.pairs.size());
    if (status.completed()) {
      if (spec.backtrace) {
        std::vector<drv::BtAlignment> parsed;
        {
          ScopedSpan s(rec, "drv.bt_parse", i, batch);
          parsed = drv::parse_bt_stream(memory, layout.out_addr,
                                        layout.num_pairs, job.separate_data,
                                        nullptr, layout.crc, layout.crc_salt);
        }
        ScopedSpan s(rec, "drv.bt_reconstruct", i, batch);
        for (const drv::BtAlignment& bt : parsed) {
          if (bt.id >= decoded.size()) continue;
          decoded[bt.id] = drv::reconstruct_alignment(
              bt, job.pairs[bt.id].a, job.pairs[bt.id].b, dev.accel);
        }
      } else {
        ScopedSpan s(rec, "drv.nbt_decode", i, batch);
        for (const hw::NbtResult& nbt :
             drv::decode_nbt_results_sorted(memory, layout)) {
          if (nbt.id >= decoded.size()) continue;
          decoded[nbt.id].ok = nbt.success;
          decoded[nbt.id].score = static_cast<score_t>(nbt.score);
        }
      }
    }
    rec.close(batch);

    bool same = status.completed() && cycles == want &&
                status.perf == completions[i].perf;
    for (std::size_t p = 0; same && p < decoded.size(); ++p) {
      const core::AlignResult& ref = reference.alignments[shards[i].first + p];
      same = decoded[p].ok == ref.ok && decoded[p].score == ref.score &&
             decoded[p].cigar == ref.cigar;
    }
    if (same) {
      ++matched;
    } else {
      std::printf("FAIL: replay of batch %zu diverged (%llu vs %llu cycles)\n",
                  i, static_cast<unsigned long long>(cycles),
                  static_cast<unsigned long long>(want));
      report.replay_ok = false;
    }
  }
  report.set("trace.replay_batches_matched", static_cast<double>(matched));

  const sim::Scheduler::DispatchStats& after = accel.dispatch_stats();
  const double cycles = static_cast<double>(replay_cycles);
  report.set("sim.ticks_per_cycle",
             ratio(static_cast<double>(after.ticks - before.ticks), cycles));
  report.set("sim.macro_cycle_share",
             ratio(static_cast<double>(after.macro_cycles - before.macro_cycles),
                   cycles));
  report.set("sim.macro_dispatches",
             static_cast<double>(after.macro_dispatches -
                                 before.macro_dispatches));
  report.set("hw.wavefront_steps",
             static_cast<double>(perf_sum.aligner_wavefront_steps));
  report.set("hw.extend_invocations",
             static_cast<double>(perf_sum.extend_invocations));
  report.set("hw.dma_beats_written",
             static_cast<double>(perf_sum.dma_beats_written));
  report.set("hw.aligner_stall_cycles",
             static_cast<double>(perf_sum.aligner_stall_cycles));

  // Layer split. The run_dataset span is the median of the traced phase;
  // engine self time is what the replayed drv and hw spans leave of it.
  const double mcells = static_cast<double>(equivalent_cells(pairs)) / 1e6;
  const double run_ns = median(rec.durations_ns("engine.run_dataset"));
  const double encode_ns = static_cast<double>(rec.total_ns("drv.encode"));
  const double hw_ns = static_cast<double>(rec.total_ns("hw.run"));
  const double parse_ns = static_cast<double>(rec.total_ns("drv.bt_parse"));
  const double recon_ns =
      static_cast<double>(rec.total_ns("drv.bt_reconstruct"));
  const double nbt_ns = static_cast<double>(rec.total_ns("drv.nbt_decode"));
  const double self_ns =
      run_ns - (encode_ns + hw_ns + parse_ns + recon_ns + nbt_ns);
  report.set("hw.run_ns_per_mcell", hw_ns / mcells);
  report.set("hw.run_share", ratio(hw_ns, run_ns));
  report.set("hw.ns_per_sim_cycle", ratio(hw_ns, cycles));
  report.set("hw.ns_per_wavefront_step",
             ratio(hw_ns, static_cast<double>(perf_sum.aligner_wavefront_steps)));
  report.set("drv.encode_ns_per_mcell", encode_ns / mcells);
  report.set("drv.bt_parse_ns_per_mcell", parse_ns / mcells);
  report.set("drv.bt_reconstruct_ns_per_mcell", recon_ns / mcells);
  report.set("drv.nbt_decode_ns_per_mcell", nbt_ns / mcells);
  report.set("drv.encode_share", ratio(encode_ns, run_ns));
  report.set("drv.decode_share", ratio(parse_ns + recon_ns + nbt_ns, run_ns));
  report.set("engine.self_ns_per_batch",
             self_ns / static_cast<double>(shards.size()));
  report.set("engine.self_share", ratio(self_ns, run_ns));
}

void run_dataset_workload(const Options& opts, const DatasetSpec& spec,
                          Report& report) {
  struct Built {
    std::vector<gen::SequencePair> pairs;
    std::unique_ptr<engine::Engine> engine;
  };
  const engine::EngineConfig cfg = dataset_engine_config(spec);
  Built built = measure_setup(report, [&] {
    Built b;
    b.pairs = generate(spec, opts.seed);
    b.engine = std::make_unique<engine::Engine>(cfg);
    return b;
  });
  const std::vector<gen::SequencePair>& pairs = built.pairs;
  engine::Engine& eng = *built.engine;
  const std::uint64_t cells = equivalent_cells(pairs);

  std::optional<engine::BatchResult> first;
  std::uint64_t reps = 0;
  const Phases phases = run_phases(opts, report, [&](SpanRecorder& rec,
                                                     std::size_t rep) {
    const std::uint64_t t0 = SpanRecorder::now_ns();
    const std::int64_t span = rec.open("engine.run_dataset", rep);
    engine::BatchResult result = eng.run_dataset(pairs, spec.batch_pairs,
                                                 spec.backtrace,
                                                 /*separate_data=*/false);
    rec.close(span);
    const double seconds = to_seconds(SpanRecorder::now_ns() - t0);
    ++reps;
    if (!first.has_value()) {
      first = std::move(result);
      return seconds;
    }
    if (result.pipeline_cycles != first->pipeline_cycles ||
        result.accel_cycles != first->accel_cycles) {
      report.modeled_repeat = false;
    }
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const core::AlignResult& a = result.alignments.at(i);
      const core::AlignResult& b = first->alignments.at(i);
      if (a.ok != b.ok || a.score != b.score || !(a.cigar == b.cigar)) {
        ++report.tally.mismatched;
      }
    }
    return seconds;
  });

  // The oracle runs after peak memory was read: a software traceback of
  // the 10 kbp pairs holds about 100 MB of wavefronts the workload never
  // does.
  tally_results(report.tally, first->alignments,
                oracle_expect(pairs, spec.backtrace), spec.backtrace, reps);
  report_rate(report, phases, cells);
  report.set("sim_cycles", static_cast<double>(first->pipeline_cycles));
  report.set("modeled_gcups", modeled_gcups(cells, first->pipeline_cycles,
                                            cfg.device.accel));
  report.set("engine.inflight_high_water",
             static_cast<double>(eng.metrics().in_flight_high_water));
  if (opts.trace) trace_dataset(report, spec, pairs, *first);
}

// --- core::WfaAligner workload (sw_long) ----------------------------------

void run_sw_long(const Options& opts, Report& report) {
  struct Built {
    std::vector<gen::SequencePair> pairs;
    std::unique_ptr<core::WfaAligner> aligner;
  };
  Built built = measure_setup(report, [&] {
    Built b;
    b.pairs = generate(kBtLong, opts.seed);
    b.aligner = std::make_unique<core::WfaAligner>(core::WfaConfig{});
    return b;
  });
  const std::vector<gen::SequencePair>& pairs = built.pairs;
  core::WfaAligner& aligner = *built.aligner;
  const std::uint64_t cells = equivalent_cells(pairs);

  std::vector<Observed> first;
  core::WfaProbe last_probe;
  const Phases phases = run_phases(opts, report, [&](SpanRecorder& rec,
                                                     std::size_t rep) {
    aligner.probe().reset();
    std::vector<core::AlignResult> results;
    results.reserve(pairs.size());
    const std::uint64_t t0 = SpanRecorder::now_ns();
    const std::int64_t root = rec.open("core.rep", rep);
    for (const gen::SequencePair& p : pairs) {
      ScopedSpan s(rec, "core.align", rep, root);
      results.push_back(aligner.align(p.a, p.b));
    }
    rec.close(root);
    const double seconds = to_seconds(SpanRecorder::now_ns() - t0);
    last_probe = aligner.probe();

    // Every CIGAR must be a valid transcript of its pair with the reported
    // score; later repetitions must repeat the first exactly.
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const core::AlignResult& r = results[i];
      const bool valid =
          r.ok && cigar_rescores(r.cigar, pairs[i].a, pairs[i].b, r.score);
      const Observed obs = observe(r, true);
      ++report.tally.attempted;
      if (!r.ok) {
        ++report.tally.unresolved;
      } else if (!valid || (i < first.size() && (obs.score != first[i].score ||
                                                 obs.cigar != first[i].cigar))) {
        ++report.tally.mismatched;
      }
      if (first.size() < pairs.size()) first.push_back(obs);
    }
    return seconds;
  });

  report_rate(report, phases, cells);
  report.set("core.cells_computed",
             static_cast<double>(last_probe.cells_computed));
  report.set("core.extend_cells", static_cast<double>(last_probe.extend_cells));
  report.set("core.wf_bytes_allocated",
             static_cast<double>(last_probe.wf_bytes_allocated));
  report.set("core.peak_live_wf_bytes",
             static_cast<double>(last_probe.peak_live_wf_bytes));
  if (opts.trace) {
    const double reps = static_cast<double>(phases.traced.size());
    const double align_ns =
        static_cast<double>(report.spans.total_ns("core.align")) / reps;
    report.set("core.align_ns_per_mcell",
               align_ns / (static_cast<double>(cells) / 1e6));
    report.set("core.ns_per_cell_computed",
               ratio(align_ns, static_cast<double>(last_probe.cells_computed)));
  }
}

// --- svc::AlignService workload (svc_open_k2) -----------------------------

constexpr std::size_t kSvcRequests = 4'000;
constexpr unsigned kSvcDevices = 2;
/// Lane 0: score-only 150 bp, weight 3; lane 1: backtrace 1 kbp, weight 1.
/// Every kSvcLongEvery-th request is a lane-1 request, so the work in a
/// repetition does not vary with the seed beyond the mutations.
constexpr std::size_t kSvcLongEvery = 4;
/// Mean Poisson inter-arrival gap in modeled cycles, fixed so that the
/// schedule depends on the seed alone. With every request arriving at
/// cycle 0, the 4000 requests of this mix drain from K=2 in about 5.1M
/// cycles, 1280 cycles a request; twice that gap offers half of saturation.
constexpr double kSvcMeanGapCycles = 2'600;
/// Far beyond any latency at half load: a miss flags a scheduling fault.
constexpr std::uint64_t kSvcDeadlineCycles = 50'000'000;

struct SvcRequest {
  unsigned lane = 0;
  gen::SequencePair pair;
  std::uint64_t scheduled = 0;  ///< arrival cycle on the service clock
};

std::vector<SvcRequest> svc_requests(std::uint64_t seed) {
  Prng prng(seed);
  std::vector<SvcRequest> out(kSvcRequests);
  double t = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    SvcRequest& r = out[i];
    r.lane = i % kSvcLongEvery == kSvcLongEvery - 1 ? 1 : 0;
    r.pair.a = gen::random_sequence(prng, r.lane == 0 ? 150 : 1000);
    r.pair.b = gen::mutate_sequence(prng, r.pair.a, 0.05);
    t += -kSvcMeanGapCycles * std::log(1.0 - prng.next_double());
    r.scheduled = static_cast<std::uint64_t>(std::ceil(t));
  }
  return out;
}

svc::ServiceConfig svc_config() {
  svc::ServiceConfig cfg;
  cfg.engine.num_devices = kSvcDevices;
  cfg.lanes.push_back(
      svc::LaneConfig{"short", 3, kSvcRequests, kSvcDeadlineCycles, false});
  cfg.lanes.push_back(
      svc::LaneConfig{"long_bt", 1, kSvcRequests, kSvcDeadlineCycles, true});
  return cfg;
}

/// What one open-loop repetition observed, in modeled time.
struct SvcOutcome {
  std::uint64_t sim_cycles = 0;
  std::vector<std::uint64_t> latencies;  ///< kOk, from scheduled arrival
  std::uint64_t cells = 0;
  std::uint64_t pumps = 0;
  std::uint64_t lateness_max = 0;

  bool operator==(const SvcOutcome&) const = default;
};

void run_svc_open(const Options& opts, Report& report) {
  const svc::ServiceConfig cfg = svc_config();
  struct Built {
    std::vector<SvcRequest> requests;
    std::unique_ptr<svc::AlignService> service;
  };
  Built built = measure_setup(report, [&] {
    Built b;
    b.requests = svc_requests(opts.seed);
    b.service = std::make_unique<svc::AlignService>(cfg);
    return b;
  });
  const std::vector<SvcRequest>& requests = built.requests;
  std::vector<gen::SequencePair> pairs;
  for (const SvcRequest& r : requests) pairs.push_back(r.pair);
  std::vector<Expected> expected = oracle_expect(pairs, true);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (requests[i].lane == 0) expected[i].cigar.clear();  // score-only lane
  }

  std::optional<SvcOutcome> first;
  std::unique_ptr<svc::AlignService> service = std::move(built.service);
  svc::ServiceStats last_stats;
  engine::EngineMetrics last_engine;
  std::vector<std::uint64_t> device_now(kSvcDevices, 0);
  sim::Scheduler::DispatchStats dispatch;
  const Phases phases = run_phases(opts, report, [&](SpanRecorder& rec,
                                                     std::size_t rep) {
    // Each repetition gets a fresh service so modeled time restarts at 0;
    // constructing it is set-up, outside the measured interval.
    if (!service) service = std::make_unique<svc::AlignService>(cfg);
    svc::AlignService& s = *service;
    SvcOutcome out;
    std::vector<std::optional<svc::ServiceCompletion>> done(requests.size());
    std::vector<std::size_t> index_of_id(requests.size() + 1, requests.size());
    const auto take = [&](std::vector<svc::ServiceCompletion>&& batch) {
      for (svc::ServiceCompletion& c : batch) {
        if (c.id < index_of_id.size() && index_of_id[c.id] < done.size()) {
          done[index_of_id[c.id]] = std::move(c);
        }
      }
    };

    const std::uint64_t t0 = SpanRecorder::now_ns();
    const std::int64_t root = rec.open("svc.rep", rep);
    std::size_t next = 0;
    while (next < requests.size() || s.busy()) {
      while (next < requests.size() && requests[next].scheduled <= s.now()) {
        const SvcRequest& r = requests[next];
        svc::SubmitResult sub;
        {
          ScopedSpan sp(rec, "svc.submit", next, root);
          sub = s.submit(r.lane, r.pair.a, r.pair.b);
        }
        if (sub.accepted() && sub.id < index_of_id.size()) {
          index_of_id[sub.id] = next;
        }
        out.lateness_max = std::max(out.lateness_max, s.now() - r.scheduled);
        ++next;
      }
      if (s.busy()) {
        {
          ScopedSpan sp(rec, "svc.pump", out.pumps, root);
          s.pump();
        }
        ++out.pumps;
        ScopedSpan sp(rec, "svc.harvest", out.pumps, root);
        take(s.harvest());
      } else if (next < requests.size()) {
        s.advance_to(requests[next].scheduled);
      }
    }
    take(s.harvest());
    rec.close(root);
    const double seconds = to_seconds(SpanRecorder::now_ns() - t0);

    out.sim_cycles = s.now();
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::optional<svc::ServiceCompletion>& c = done[i];
      const bool with_cigar = requests[i].lane == 1;
      if (!c.has_value()) {
        tally_pair(report.tally, Observed{false, false, 0, ""}, expected[i]);
        continue;
      }
      switch (c->outcome) {
        case svc::RequestOutcome::kShed:
          ++report.tally.attempted;
          ++report.tally.shed;
          break;
        case svc::RequestOutcome::kDeadlineMiss:
          ++report.tally.attempted;
          ++report.tally.missed;
          break;
        case svc::RequestOutcome::kOk:
          tally_pair(report.tally, observe(c->result, with_cigar),
                     expected[i]);
          out.latencies.push_back(c->complete_cycle - requests[i].scheduled);
          out.cells += equivalent_cells(
              std::span<const gen::SequencePair>(&requests[i].pair, 1));
          break;
      }
    }
    if (!first.has_value()) {
      first = out;
    } else if (!(out == *first)) {
      report.modeled_repeat = false;
    }
    last_stats = s.stats();
    last_engine = s.engine().metrics();
    dispatch = {};
    for (unsigned d = 0; d < kSvcDevices; ++d) {
      const hw::Accelerator& acc = s.engine().device(d).accelerator();
      device_now[d] = acc.now();
      dispatch.ticks += acc.dispatch_stats().ticks;
      dispatch.macro_dispatches += acc.dispatch_stats().macro_dispatches;
      dispatch.macro_cycles += acc.dispatch_stats().macro_cycles;
    }
    service.reset();
    return seconds;
  });

  // Host rate over the cells the service actually completed.
  report_rate(report, phases, first->cells);

  const hw::AcceleratorConfig& accel = cfg.engine.device.accel;
  report.set("sim_cycles", static_cast<double>(first->sim_cycles));
  report.set("modeled_gcups",
             modeled_gcups(first->cells, first->sim_cycles, accel));
  report.set("latency_samples", static_cast<double>(first->latencies.size()));
  const std::optional<std::uint64_t> p50 =
      nearest_rank(first->latencies, 0.50, 0);
  const std::optional<std::uint64_t> p99 =
      nearest_rank(first->latencies, 0.99, 10);
  if (!p50 || !p99) {
    std::printf("FAIL: too few completions for p99 (%zu)\n",
                first->latencies.size());
    report.modeled_repeat = false;
  }
  report.set("latency_p50_cycles", static_cast<double>(p50.value_or(0)));
  report.set("latency_p99_cycles", static_cast<double>(p99.value_or(0)));
  report.set("svc.pumps", static_cast<double>(first->pumps));
  report.set("svc.inject_lateness_max_cycles",
             static_cast<double>(first->lateness_max));
  report.set("svc.useful_attempt_ratio",
             ratio(static_cast<double>(last_stats.shards_dispatched),
                   static_cast<double>(last_stats.shard_attempts)));
  report.set("svc.hedges_launched",
             static_cast<double>(last_stats.hedges_launched));
  report.set("svc.duplicates_suppressed",
             static_cast<double>(last_stats.duplicates_suppressed));
  std::size_t queue_high = 0;
  for (const svc::LaneStats& lane : last_stats.lanes) {
    queue_high = std::max(queue_high, lane.queue_high_water);
  }
  report.set("svc.queue_high_water", static_cast<double>(queue_high));
  report.set("engine.inflight_high_water",
             static_cast<double>(last_engine.in_flight_high_water));
  double util_min = 1.0;
  std::uint64_t cycles = 0;
  for (unsigned d = 0; d < kSvcDevices; ++d) {
    util_min = std::min(
        util_min, ratio(static_cast<double>(last_engine.devices[d].busy_cycles),
                        static_cast<double>(first->sim_cycles)));
    cycles += device_now[d];
  }
  report.set("engine.device_utilization_min", util_min);
  report.set("sim.ticks_per_cycle", ratio(static_cast<double>(dispatch.ticks),
                                          static_cast<double>(cycles)));
  report.set("sim.macro_cycle_share",
             ratio(static_cast<double>(dispatch.macro_cycles),
                   static_cast<double>(cycles)));
  report.set("sim.macro_dispatches",
             static_cast<double>(dispatch.macro_dispatches));

  if (opts.trace) {
    const SpanRecorder& rec = report.spans;
    const double per_req =
        static_cast<double>(phases.traced.size() * requests.size());
    report.set("svc.submit_ns_per_request",
               static_cast<double>(rec.total_ns("svc.submit")) / per_req);
    report.set("svc.pump_ns_per_request",
               static_cast<double>(rec.total_ns("svc.pump")) / per_req);
    report.set("svc.harvest_ns_per_request",
               static_cast<double>(rec.total_ns("svc.harvest")) / per_req);
    // The client loop's own time: each repetition's root span minus the
    // service calls under it.
    std::uint64_t client_ns = 0;
    const std::vector<Span>& spans = rec.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].name != "svc.rep") continue;
      std::vector<Span> children;
      for (const Span& c : spans) {
        if (c.parent == static_cast<std::int64_t>(i)) children.push_back(c);
      }
      client_ns += self_time_ns(spans[i], children);
    }
    report.set("svc.client_ns_per_request",
               static_cast<double>(client_ns) / per_req);
  }
}

}  // namespace

void Report::set(const std::string& name, double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n",
               name.c_str());
  std::abort();
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"bt_long", "nbt_short_k4",
                                                 "sw_long", "svc_open_k2"};
  return names;
}

Report run_workload(const Options& opts) {
  Report report;
  for (const CatalogEntry& e : kCatalog) {
    report.metrics.push_back(Metric{e.name, 0.0, e.unit, e.clock});
  }
  report.spans = SpanRecorder(opts.trace);
  if (opts.workload == "bt_long") {
    run_dataset_workload(opts, kBtLong, report);
  } else if (opts.workload == "nbt_short_k4") {
    run_dataset_workload(opts, kNbtShortK4, report);
  } else if (opts.workload == "sw_long") {
    run_sw_long(opts, report);
  } else if (opts.workload == "svc_open_k2") {
    run_svc_open(opts, report);
  } else {
    throw std::invalid_argument("unknown workload: " + opts.workload);
  }
  report.set("failed_ratio", report.tally.ratio());
  return report;
}

}  // namespace perfbench
