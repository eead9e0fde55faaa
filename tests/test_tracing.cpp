// Request-scoped causal tracing and the unified metrics registry
// (docs/OBSERVABILITY.md §3-4). Covers the shared quantile helper, the
// registry's instruments/exposition/sampling, the flight recorder's ring
// semantics, dump serialization round-trips and validation invariants —
// and the property the whole design hangs on: recording is
// zero-perturbation. The recorder-on and recorder-off arms of the same
// workload must produce bit-identical completions, ServiceStats and full
// per-device PMU banks under both stepping strategies (exact and fast).
#include "svc/trace_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/metrics_registry.hpp"
#include "common/prng.hpp"
#include "common/quantile.hpp"
#include "gen/seqgen.hpp"
#include "svc/service.hpp"

namespace wfasic::svc {
namespace {

// ---------------------------------------------------------------------------
// common/quantile.hpp: the shared log2-histogram / percentile helper.

TEST(Quantile, ApproxQuantileStaysWithinBucketBounds) {
  common::Log2Histogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  // Nearest-rank on log2 buckets: the answer is a bucket upper bound,
  // clamped into [min, max], and monotone in p.
  const std::uint64_t p50 = common::approx_quantile(h, 0.50);
  const std::uint64_t p90 = common::approx_quantile(h, 0.90);
  const std::uint64_t p99 = common::approx_quantile(h, 0.99);
  EXPECT_GE(p50, 500u / 2);   // within one power of two of the truth
  EXPECT_LE(p50, 500u * 2);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_LE(p99, 1000u);  // clamped to the recorded max
  EXPECT_GE(common::approx_quantile(h, 0.0), h.min);
}

TEST(Quantile, SummarizeCarriesExactMomentsAndEmptyIsZero) {
  common::Log2Histogram h;
  h.record(10);
  h.record(20);
  h.record(60);
  const common::HistogramSummary s = common::summarize(h);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.sum, 90u);
  EXPECT_DOUBLE_EQ(s.mean, 30.0);
  EXPECT_EQ(s.min, 10u);
  EXPECT_EQ(s.max, 60u);

  const common::HistogramSummary empty = common::summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p99, 0u);
}

TEST(Quantile, ExactPercentileMatchesSortedRank) {
  std::vector<std::uint64_t> v{5, 1, 9, 3, 7};
  EXPECT_EQ(common::exact_percentile(v, 0.0), 1u);
  EXPECT_EQ(common::exact_percentile(v, 0.5), 5u);  // sorted {1,3,5,7,9}
  EXPECT_EQ(common::exact_percentile(v, 0.99), 9u);
}

// ---------------------------------------------------------------------------
// common/metrics_registry.hpp.

TEST(MetricsRegistry, InstrumentsAreStableByName) {
  common::MetricsRegistry reg;
  reg.counter("requests") += 3;
  reg.counter("requests") += 2;  // same instrument, not a new one
  reg.gauge("utilization") = 0.5;
  reg.histogram("latency").record(100);
  EXPECT_EQ(reg.counter("requests"), 5u);
  EXPECT_EQ(reg.size(), 3u);

  // Text exposition is sorted and expands histograms into sub-keys.
  const std::vector<std::string> lines = reg.text_lines();
  EXPECT_TRUE(std::is_sorted(lines.begin(), lines.end()));
  EXPECT_NE(std::find(lines.begin(), lines.end(), "requests 5"),
            lines.end());
  EXPECT_NE(std::find(lines.begin(), lines.end(), "latency_count 1"),
            lines.end());

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"requests\":5"), std::string::npos);
  EXPECT_NE(json.find("\"utilization\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"latency\":{\"count\":1"), std::string::npos);
}

TEST(MetricsRegistry, SampleSeriesIsBoundedAndSurvivesClear) {
  common::MetricsRegistry reg(/*max_samples=*/4);
  reg.counter("c") = 7;
  for (std::uint64_t cycle = 0; cycle < 10; ++cycle) reg.sample(cycle);
  ASSERT_EQ(reg.samples().size(), 4u);  // oldest rows dropped
  EXPECT_EQ(reg.samples().front().cycle, 6u);
  EXPECT_EQ(reg.samples().back().cycle, 9u);
  EXPECT_DOUBLE_EQ(reg.samples().back().values.at(0), 7.0);

  // clear() drops instruments but keeps the sampled trajectory — that is
  // what lets the service re-export + sample on a cadence.
  reg.clear();
  EXPECT_EQ(reg.size(), 0u);
  EXPECT_EQ(reg.samples().size(), 4u);
}

// ---------------------------------------------------------------------------
// FlightRecorder ring semantics.

RequestTraceEvent ev_at(std::uint64_t ts, TraceEventKind kind,
                        std::uint64_t id) {
  RequestTraceEvent ev;
  ev.ts = ts;
  ev.id = id;
  ev.kind = kind;
  return ev;
}

TEST(FlightRecorder, RingOverwritesOldestAndCountsDrops) {
  FlightRecorder rec(/*capacity=*/4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    rec.record(ev_at(i, TraceEventKind::kAdmit, i + 1));
  }
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.events_dropped(), 2u);
  const std::vector<RequestTraceEvent> ring = rec.ring_events();
  ASSERT_EQ(ring.size(), 4u);
  // Oldest-first, and the two oldest events were overwritten.
  EXPECT_EQ(ring.front().ts, 2u);
  EXPECT_EQ(ring.back().ts, 5u);
}

TEST(FlightRecorder, KeepAllRetainsEverythingAndReportsNoDrops) {
  FlightRecorder rec(/*capacity=*/2, /*keep_all=*/true);
  for (std::uint64_t i = 0; i < 5; ++i) {
    rec.record(ev_at(i, TraceEventKind::kAdmit, i + 1));
  }
  EXPECT_EQ(rec.export_events().size(), 5u);
  EXPECT_EQ(rec.events_dropped(), 0u);  // the export view is complete
}

TEST(FlightRecorder, ZeroCapacityIsDisabled) {
  FlightRecorder rec(/*capacity=*/0);
  EXPECT_FALSE(rec.enabled());
  rec.record(ev_at(0, TraceEventKind::kAdmit, 1));
  EXPECT_TRUE(rec.ring_events().empty());
}

TEST(FlightRecorder, AnomalyLatchKeepsTheLastAnomaly) {
  FlightRecorder rec;
  EXPECT_EQ(rec.anomalies(), 0u);
  rec.note_anomaly(AnomalyKind::kShed, 100);
  rec.note_anomaly(AnomalyKind::kDeadlineMiss, 250);
  EXPECT_EQ(rec.anomalies(), 2u);
  EXPECT_EQ(rec.last_anomaly(), AnomalyKind::kDeadlineMiss);
  EXPECT_EQ(rec.last_anomaly_cycle(), 250u);
}

// ---------------------------------------------------------------------------
// Dump serialization and validation.

TraceDump tiny_dump() {
  TraceDump dump;
  dump.now = 1000;
  dump.lanes = 2;
  dump.devices = 1;
  RequestTraceEvent admit = ev_at(0, TraceEventKind::kAdmit, 1);
  RequestTraceEvent wait = ev_at(0, TraceEventKind::kQueueWait, 1);
  wait.dur = 10;
  wait.aux0 = 1;  // joined to shard 1's dispatch below
  RequestTraceEvent dispatch = ev_at(10, TraceEventKind::kDispatch, 1);
  RequestTraceEvent run = ev_at(10, TraceEventKind::kDeviceRun, 1);
  run.dur = 500;
  run.device = 0;
  RequestTraceEvent complete = ev_at(600, TraceEventKind::kComplete, 1);
  complete.aux0 = 600;
  dump.events = {admit, wait, dispatch, run, complete};
  dump.recorded = dump.events.size();
  return dump;
}

TEST(TraceDump, SerializeParseRoundTripIsLossless) {
  const TraceDump dump = tiny_dump();
  const std::string text = trace_dump_to_string(dump);
  std::istringstream in(text);
  TraceDump back;
  std::string error;
  ASSERT_TRUE(parse_trace_dump(in, back, &error)) << error;
  EXPECT_EQ(back.now, dump.now);
  EXPECT_EQ(back.lanes, dump.lanes);
  EXPECT_EQ(back.devices, dump.devices);
  EXPECT_EQ(back.recorded, dump.recorded);
  EXPECT_EQ(back.events, dump.events);
  EXPECT_TRUE(validate_trace_dump(back, &error)) << error;
}

TEST(TraceDump, ValidationRejectsBrokenInvariants) {
  std::string error;

  TraceDump future = tiny_dump();
  future.events[0].ts = future.now + 1;  // event after the dump clock
  EXPECT_FALSE(validate_trace_dump(future, &error));

  TraceDump lane = tiny_dump();
  lane.events[0].lane = 7;  // only 2 lanes exist
  EXPECT_FALSE(validate_trace_dump(lane, &error));

  TraceDump orphan_terminal = tiny_dump();
  orphan_terminal.events.erase(orphan_terminal.events.begin());  // kAdmit
  orphan_terminal.recorded = orphan_terminal.events.size();
  EXPECT_FALSE(validate_trace_dump(orphan_terminal, &error));

  TraceDump orphan_wait = tiny_dump();
  orphan_wait.events[1].aux0 = 99;  // queue-wait names no dispatched shard
  EXPECT_FALSE(validate_trace_dump(orphan_wait, &error));

  // A truncated ring (dropped > 0) relaxes the pairing invariants: the
  // same orphan terminal is acceptable when history was overwritten.
  TraceDump truncated = tiny_dump();
  truncated.events.erase(truncated.events.begin());
  truncated.dropped = 1;
  EXPECT_TRUE(validate_trace_dump(truncated, &error)) << error;
}

TEST(TraceDump, ParserRejectsGarbage) {
  TraceDump dump;
  std::string error;
  std::istringstream bad_header("not a trace\n");
  EXPECT_FALSE(parse_trace_dump(bad_header, dump, &error));
  std::istringstream bad_event(
      "# wfasic-request-trace v1\nE nonsense\n");
  EXPECT_FALSE(parse_trace_dump(bad_event, dump, &error));
}

// ---------------------------------------------------------------------------
// Zero-perturbation: the acceptance property. One workload, two arms
// (recorder fully on with keep-all + registry sampling vs recording
// disabled), both stepping strategies — completions, per-lane stats and
// the complete PMU bank of every device must be identical.

enum class StepStrategy { kExact, kFast };

constexpr StepStrategy kAllStrategies[] = {StepStrategy::kExact,
                                           StepStrategy::kFast};

const char* strategy_name(StepStrategy s) {
  return s == StepStrategy::kExact ? "exact" : "fast";
}

/// Everything the service run exposes that recording must not change.
struct ServiceObservation {
  std::vector<std::tuple<RequestId, RequestOutcome, score_t, std::uint64_t>>
      completions;  // (id, outcome, score, complete_cycle), sorted by id
  ServiceStats stats;
  std::vector<hw::PerfSnapshot> perf;  // full PMU bank per device
  std::uint64_t final_now = 0;
  std::uint64_t traced_events = 0;
};

ServiceObservation run_workload(StepStrategy s, const TraceConfig& trace) {
  ServiceConfig cfg;
  cfg.engine.num_devices = 2;
  cfg.engine.device.memory_bytes = 16ull << 20;
  cfg.engine.device.out_addr = 12ull << 20;
  cfg.engine.device.accel.idle_skip = s == StepStrategy::kFast;
  cfg.lanes.resize(2);
  cfg.lanes[0].name = "batch";
  cfg.lanes[1].name = "urgent";
  cfg.lanes[1].weight = 4;
  cfg.max_batch_pairs = 2;
  cfg.hedge.min_cycles = 20'000;
  cfg.hedge.latency_factor = 0;
  cfg.preempt.enabled = true;
  cfg.preempt.urgent_span = 400'000;
  cfg.preempt.min_runtime = 1;
  cfg.trace = trace;

  AlignService svc(cfg);
  Prng prng(4242);
  // Long background work to keep devices busy (hedge + preempt paths)...
  for (int i = 0; i < 5; ++i) {
    std::string a = gen::random_sequence(prng, 900);
    const std::string b = gen::mutate_sequence(prng, a, 0.10);
    svc.submit(0, a, b);
  }
  svc.pump();
  // ...urgent deadline work on the priority lane (preemption pressure,
  // and one deliberately-tight deadline so a miss/shed path fires too)...
  for (int i = 0; i < 3; ++i) {
    std::string a = gen::random_sequence(prng, 140);
    const std::string b = gen::mutate_sequence(prng, a, 0.05);
    svc.submit(1, a, b, svc.now() + (i == 2 ? 1 : 200'000));
  }
  svc.drain();

  ServiceObservation obs;
  for (const ServiceCompletion& c : svc.harvest()) {
    obs.completions.emplace_back(c.id, c.outcome, c.result.score,
                                 c.complete_cycle);
  }
  std::sort(obs.completions.begin(), obs.completions.end());
  obs.stats = svc.stats();
  for (unsigned d = 0; d < cfg.engine.num_devices; ++d) {
    obs.perf.push_back(
        svc.engine().device(d).accelerator().perf_counters());
  }
  obs.final_now = svc.now();
  obs.traced_events = svc.recorder().recorded();
  return obs;
}

void expect_observations_eq(const ServiceObservation& on,
                            const ServiceObservation& off,
                            const char* strategy) {
  EXPECT_EQ(on.completions, off.completions) << strategy;
  EXPECT_EQ(on.final_now, off.final_now) << strategy;
  ASSERT_EQ(on.perf.size(), off.perf.size()) << strategy;
  for (std::size_t d = 0; d < on.perf.size(); ++d) {
    for (std::uint32_t i = 0; i < hw::kNumPerfCounters; ++i) {
      const auto idx = static_cast<hw::PerfIdx>(i);
      EXPECT_EQ(on.perf[d].counter(idx), off.perf[d].counter(idx))
          << strategy << " device " << d << " counter "
          << hw::perf_counter_name(idx);
    }
  }
  ASSERT_EQ(on.stats.lanes.size(), off.stats.lanes.size()) << strategy;
  for (std::size_t l = 0; l < on.stats.lanes.size(); ++l) {
    const LaneStats& a = on.stats.lanes[l];
    const LaneStats& b = off.stats.lanes[l];
    EXPECT_EQ(a.completed_ok, b.completed_ok) << strategy;
    EXPECT_EQ(a.deadline_miss, b.deadline_miss) << strategy;
    EXPECT_EQ(a.shed, b.shed) << strategy;
    EXPECT_EQ(a.hedges_launched, b.hedges_launched) << strategy;
    EXPECT_EQ(a.retries, b.retries) << strategy;
    EXPECT_EQ(a.device_cycles, b.device_cycles) << strategy;
    EXPECT_EQ(a.sw_cycles, b.sw_cycles) << strategy;
    EXPECT_TRUE(a.latency == b.latency) << strategy;
  }
  EXPECT_EQ(on.stats.shards_dispatched, off.stats.shards_dispatched)
      << strategy;
  EXPECT_EQ(on.stats.shard_attempts, off.stats.shard_attempts) << strategy;
  EXPECT_EQ(on.stats.hedges_launched, off.stats.hedges_launched)
      << strategy;
  EXPECT_EQ(on.stats.preemptions, off.stats.preemptions) << strategy;
  EXPECT_EQ(on.stats.resumes, off.stats.resumes) << strategy;
}

TEST(ZeroPerturbation, RecorderOnAndOffAreBitIdenticalEverywhere) {
  TraceConfig on;
  on.keep_all = true;
  on.sample_interval = 8192;  // periodic registry sampling active too
  TraceConfig off;
  off.ring_capacity = 0;  // recording disabled entirely

  for (const StepStrategy s : kAllStrategies) {
    SCOPED_TRACE(strategy_name(s));
    const ServiceObservation with = run_workload(s, on);
    const ServiceObservation without = run_workload(s, off);
    // The on arm actually recorded a causal history; the off arm did not.
    EXPECT_GT(with.traced_events, 0u);
    EXPECT_EQ(without.traced_events, 0u);
    expect_observations_eq(with, without, strategy_name(s));
  }
}

TEST(ZeroPerturbation, AllStrategiesAgreeWithRecorderOn) {
  TraceConfig on;
  on.keep_all = true;
  const ServiceObservation exact = run_workload(StepStrategy::kExact, on);
  const ServiceObservation fast = run_workload(StepStrategy::kFast, on);
  expect_observations_eq(exact, fast, "fast");
  // The recorded causal history itself is strategy-invariant too.
  EXPECT_EQ(exact.traced_events, fast.traced_events);
}

// ---------------------------------------------------------------------------
// End-to-end: a live service dump passes schema validation, summarizes,
// and feeds the registry exposition.

TEST(ServiceTrace, LiveDumpValidatesAndSummarizes) {
  TraceConfig on;
  on.keep_all = true;
  on.sample_interval = 8192;
  const ServiceObservation obs =
      run_workload(StepStrategy::kFast, on);
  EXPECT_GT(obs.traced_events, 0u);

  // Rebuild the same workload to get at the dump (run_workload returns
  // only the observation); cheap at this size.
  ServiceConfig cfg;
  cfg.engine.num_devices = 2;
  cfg.engine.device.memory_bytes = 16ull << 20;
  cfg.engine.device.out_addr = 12ull << 20;
  cfg.trace = on;
  AlignService svc(cfg);
  Prng prng(7);
  for (int i = 0; i < 4; ++i) {
    std::string a = gen::random_sequence(prng, 300);
    const std::string b = gen::mutate_sequence(prng, a, 0.08);
    svc.submit(0, a, b);
  }
  svc.drain();
  (void)svc.harvest();

  const TraceDump dump = svc.trace_dump();
  std::string error;
  ASSERT_TRUE(validate_trace_dump(dump, &error)) << error;

  // Round-trip through the wire format stays valid and equal.
  std::istringstream in(trace_dump_to_string(dump));
  TraceDump back;
  ASSERT_TRUE(parse_trace_dump(in, back, &error)) << error;
  EXPECT_EQ(back.events, dump.events);
  ASSERT_TRUE(validate_trace_dump(back, &error)) << error;

  const TraceSummary summary = summarize_trace(dump);
  EXPECT_EQ(summary.requests_admitted, 4u);
  EXPECT_EQ(summary.completed, 4u);

  // Registry exposition: per-lane SLO attainment and engine counters
  // under stable names, plus the periodic samples taken while draining.
  common::MetricsRegistry& reg = svc.registry();
  svc.export_metrics(reg);
  const std::vector<std::string> lines = reg.text_lines();
  const auto has_prefix = [&](const std::string& prefix) {
    return std::any_of(lines.begin(), lines.end(),
                       [&](const std::string& l) {
                         return l.rfind(prefix, 0) == 0;
                       });
  };
  EXPECT_TRUE(has_prefix("svc_lane0_completed_ok 4"));
  EXPECT_TRUE(has_prefix("svc_lane0_slo_attainment 1.0"));
  EXPECT_TRUE(has_prefix("engine_completions"));
  EXPECT_TRUE(has_prefix("svc_trace_recorded"));
  EXPECT_FALSE(reg.samples().empty());
}

}  // namespace
}  // namespace wfasic::svc
