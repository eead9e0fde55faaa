// Tests for the simulation kernel's fast path (sim/scheduler.hpp,
// Scheduler::fast_advance): one quiescence poll per probe either skips a
// span in which every component is quiet or grants a fused macro-step to
// the one component that must tick. The load-bearing property is
// bit-identity: any component graph honoring the quiescence and
// macro-step contracts must produce exactly the same state and timeline
// under run_until(..., fast=true) as under exact per-cycle stepping. Also
// covers the kernel-hardening regressions (duplicate registration and
// skip() overflow are rejected) and the accelerator-level vetoes that
// demote the fast path to exact stepping.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "drv/driver.hpp"
#include "gen/seqgen.hpp"
#include "hw/accelerator.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"
#include "sim/scheduler.hpp"

namespace wfasic::sim {
namespace {

/// Emits `burst` tokens on consecutive cycles to a downstream queue every
/// `period` cycles (period >= burst), starting at cycle `phase`. Quiet in
/// between (pure countdown), so the fast path skips the gaps.
class PulseSource final : public Component {
 public:
  PulseSource(std::string name, cycle_t period, cycle_t phase,
              std::deque<cycle_t>* out, cycle_t burst = 1)
      : Component(std::move(name)),
        period_(period),
        burst_(burst),
        countdown_(phase),
        out_(out) {}

  void tick(cycle_t now) override {
    if (countdown_ > 0) {
      --countdown_;
      return;
    }
    out_->push_back(now);
    ++pulses_;
    if (++in_burst_ < burst_) return;
    in_burst_ = 0;
    countdown_ = period_ - burst_;
  }
  [[nodiscard]] cycle_t quiet_for(cycle_t /*now*/) const override {
    return countdown_;
  }
  void skip_quiet(cycle_t n) override { countdown_ -= n; }

  [[nodiscard]] std::uint64_t pulses() const { return pulses_; }

 private:
  cycle_t period_;
  cycle_t burst_;
  cycle_t countdown_;
  cycle_t in_burst_ = 0;
  std::deque<cycle_t>* out_;
  std::uint64_t pulses_ = 0;
};

/// Pops one token per cycle from its input queue; optionally forwards it
/// downstream. Records the cycle of every pop — an order- and
/// timing-sensitive trace that any stepping bug would perturb. Idle
/// (kQuietForever) on an empty queue until an upstream push.
class Relay final : public Component {
 public:
  Relay(std::string name, std::deque<cycle_t>* in, std::deque<cycle_t>* out)
      : Component(std::move(name)), in_(in), out_(out) {}

  void tick(cycle_t now) override {
    if (in_->empty()) {
      // The quiet-tick body: a pure linear counter update, so
      // skip_quiet(n) below is exactly n of these.
      ++idle_cycles_;
      return;
    }
    const cycle_t born = in_->front();
    in_->pop_front();
    ++popped_;
    // Weighted by both arrival order and cycle so any reordering or
    // retiming shows up, not just count drift.
    signature_ = signature_ * 1315423911u + now * 3u + born;
    pop_cycles_.push_back(now);
    if (out_ != nullptr) out_->push_back(now);
  }
  [[nodiscard]] cycle_t quiet_for(cycle_t /*now*/) const override {
    return in_->empty() ? kQuietForever : 0;
  }
  void skip_quiet(cycle_t n) override { idle_cycles_ += n; }

  [[nodiscard]] std::uint64_t popped() const { return popped_; }
  [[nodiscard]] std::uint64_t signature() const { return signature_; }
  [[nodiscard]] std::uint64_t idle_cycles() const { return idle_cycles_; }
  [[nodiscard]] const std::vector<cycle_t>& pop_cycles() const {
    return pop_cycles_;
  }

 private:
  std::deque<cycle_t>* in_;
  std::deque<cycle_t>* out_;
  std::uint64_t popped_ = 0;
  std::uint64_t signature_ = 0;
  std::uint64_t idle_cycles_ = 0;
  std::vector<cycle_t> pop_cycles_;
};

/// A never-quiet, macro-capable source: the per-cycle work is an xorshift
/// state update (data dependent, so never a quiet tick), with an
/// externally-visible emit every `period` cycles.
/// macro_step() fuses the emit-free prefix of the granted span and
/// records every budget the scheduler granted, so tests can check the
/// grant rule capped spans at the neighbor horizon. `overrun` makes it a
/// hostile component that claims one cycle more than its budget — the
/// scheduler must abort rather than let simulated time diverge.
class FusedSource final : public Component {
 public:
  FusedSource(std::string name, cycle_t period, std::deque<cycle_t>* out,
              bool overrun = false)
      : Component(std::move(name)),
        period_(period),
        out_(out),
        overrun_(overrun) {}

  void tick(cycle_t now) override {
    advance_state();
    ++phase_;
    if (phase_ >= period_) {
      phase_ = 0;
      out_->push_back(now + static_cast<cycle_t>(state_ & 3));
      ++emitted_;
    }
  }
  // The state update is not a linear counter, so no cycle is ever quiet.
  [[nodiscard]] cycle_t quiet_for(cycle_t /*now*/) const override {
    return 0;
  }

  [[nodiscard]] cycle_t macro_step(cycle_t /*now*/,
                                   cycle_t budget) override {
    budgets_.push_back(budget);
    if (overrun_) return budget + 1;
    // Stop one cycle before the emitting tick: everything fused here only
    // mutates private state (state_, phase_), never the output queue.
    const cycle_t take = std::min(budget, period_ - 1 - phase_);
    for (cycle_t i = 0; i < take; ++i) advance_state();
    phase_ += take;
    return take;
  }

  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t state() const { return state_; }
  [[nodiscard]] const std::vector<cycle_t>& budgets() const {
    return budgets_;
  }

 private:
  void advance_state() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
  }

  cycle_t period_;
  cycle_t phase_ = 0;
  std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
  std::deque<cycle_t>* out_;
  bool overrun_;
  std::uint64_t emitted_ = 0;
  std::vector<cycle_t> budgets_;
};

bool never() { return false; }

// ---------------------------------------------------------------------------
// Kernel hardening (satellite regressions).
// ---------------------------------------------------------------------------

TEST(SchedulerHardening, DuplicateAddAborts) {
  Scheduler sched;
  std::deque<cycle_t> q;
  PulseSource src("src", 4, 0, &q);
  sched.add(&src);
  EXPECT_DEATH(sched.add(&src), "already registered");
}

TEST(SchedulerHardening, SkipOverflowAborts) {
  Scheduler sched;
  std::deque<cycle_t> q;
  Relay idle("idle", &q, nullptr);
  sched.add(&idle);
  // The whole system is forever-quiet; a caller must never turn that
  // into a concrete kQuietForever-sized skip.
  EXPECT_EQ(sched.quiescent_cycles(), Component::kQuietForever);
  EXPECT_DEATH(sched.skip(Component::kQuietForever), "overflow");
  // A large but representable span is fine.
  sched.skip(1u << 20);
  EXPECT_EQ(sched.now(), 1u << 20);
}

// ---------------------------------------------------------------------------
// Fast-path bit-identity on synthetic graphs. (The EventKernel suite name
// is kept from the retired event-driven kernel so test IDs stay stable.)
// ---------------------------------------------------------------------------

/// A randomized pipeline: periodic pulse sources with random periods and
/// phases, one bursty source (dense bursts between long quiet gaps) and,
/// when `with_fused`, one never-quiet macro-capable source all feed a
/// chain of relays. Both registration layouts are exercised, so a push is
/// popped in the same cycle (consumer registered later) or the next one
/// (consumer registered earlier).
struct RandomGraph {
  Scheduler sched;
  std::vector<std::unique_ptr<std::deque<cycle_t>>> queues;
  std::vector<std::unique_ptr<PulseSource>> sources;
  std::unique_ptr<FusedSource> fused;
  std::vector<std::unique_ptr<Relay>> relays;

  RandomGraph(std::uint64_t seed, bool relays_first, bool with_fused) {
    Prng prng(seed);
    const std::size_t n_src = 1 + prng.next_below(3);
    const std::size_t n_relay = 1 + prng.next_below(4);
    // Chain queue i feeds relay i; relay i forwards into queue i+1.
    for (std::size_t i = 0; i <= n_relay; ++i) {
      queues.push_back(std::make_unique<std::deque<cycle_t>>());
    }
    for (std::size_t i = 0; i < n_relay; ++i) {
      relays.push_back(std::make_unique<Relay>(
          "relay" + std::to_string(i), queues[i].get(),
          i + 1 < n_relay ? queues[i + 1].get() : nullptr));
    }
    for (std::size_t i = 0; i < n_src; ++i) {
      sources.push_back(std::make_unique<PulseSource>(
          "src" + std::to_string(i), 2 + prng.next_below(9),
          prng.next_below(7), queues[0].get()));
    }
    const cycle_t burst = 8 + prng.next_below(25);
    sources.push_back(std::make_unique<PulseSource>(
        "burst", burst + 100 + prng.next_below(200), prng.next_below(50),
        queues[0].get(), burst));
    if (with_fused) {
      fused = std::make_unique<FusedSource>(
          "fused", 8 + prng.next_below(24), queues[0].get());
    }
    const auto add_producers = [&] {
      for (auto& s : sources) sched.add(s.get());
      if (fused) sched.add(fused.get());
    };
    if (!relays_first) add_producers();
    for (auto& r : relays) sched.add(r.get());
    if (relays_first) add_producers();
  }

  /// Everything observable: per-relay pop traces, signatures, counters.
  [[nodiscard]] std::vector<std::uint64_t> observation() const {
    std::vector<std::uint64_t> obs{sched.now()};
    for (const auto& s : sources) obs.push_back(s->pulses());
    if (fused) {
      obs.push_back(fused->emitted());
      obs.push_back(fused->state());
    }
    for (const auto& r : relays) {
      obs.push_back(r->popped());
      obs.push_back(r->signature());
      obs.push_back(r->idle_cycles());
      for (const cycle_t c : r->pop_cycles()) obs.push_back(c);
    }
    return obs;
  }
};

TEST(EventKernel, RandomizedGraphsBitIdenticalToExactStepping) {
  std::uint64_t skipped = 0;
  std::uint64_t fused_cycles = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    for (const bool relays_first : {false, true}) {
      for (const bool with_fused : {false, true}) {
        RandomGraph exact(seed, relays_first, with_fused);
        RandomGraph fast(seed, relays_first, with_fused);
        exact.sched.step_n(1'000);
        const RunUntilResult r =
            fast.sched.run_until(never, 1'000, /*fast=*/true);
        EXPECT_TRUE(r.timed_out());
        EXPECT_EQ(exact.observation(), fast.observation())
            << "seed " << seed << ", relays_first " << relays_first
            << ", with_fused " << with_fused;
        skipped += fast.sched.dispatch_stats().skipped_cycles;
        fused_cycles += fast.sched.dispatch_stats().macro_cycles;
      }
    }
  }
  // Both halves of the fast path fired somewhere in the sweep.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(fused_cycles, 0u);
}

// ---------------------------------------------------------------------------
// run_until parity: stop cycles and typed timeouts.
// ---------------------------------------------------------------------------

TEST(EventKernel, PredicateStopCycleMatchesExactStepping) {
  auto run = [](bool fast) {
    Scheduler sched;
    std::deque<cycle_t> q;
    PulseSource src("src", 7, 2, &q);
    Relay sink("sink", &q, nullptr);
    sched.add(&src);
    sched.add(&sink);
    const auto done = [&] { return sink.popped() >= 4; };
    const RunUntilResult r = sched.run_until(done, 1'000, fast);
    EXPECT_FALSE(r.timed_out());
    return r.now;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(EventKernel, TimeoutParityOnDeadlock) {
  // A forever-idle system: exact stepping burns every cycle to the
  // deadline; the fast path skips straight to it. Both must report the
  // same typed timeout at the same cycle — and never abort.
  auto run = [](bool fast) {
    Scheduler sched;
    std::deque<cycle_t> q;
    Relay sink("sink", &q, nullptr);
    sched.add(&sink);
    const RunUntilResult r = sched.run_until(never, 5'000, fast);
    EXPECT_TRUE(r.timed_out());
    EXPECT_EQ(sink.idle_cycles(), 5'000u);
    return r.now;
  };
  EXPECT_EQ(run(false), run(true));
  EXPECT_EQ(run(true), 5'000u);
}

// ---------------------------------------------------------------------------
// Compiled macro-steps: grant rule, budget caps, dispatch savings.
// ---------------------------------------------------------------------------

TEST(MacroStep, BitIdenticalToExactSteppingAndCutsDispatches) {
  // One never-quiet fused source feeding a relay: exact stepping must
  // dispatch the source every cycle; the fast path collapses the
  // inter-emit spans into fused calls. Both runs must agree on every
  // observable — emit count, evolving xorshift state, the relay's pop
  // trace and signature, and final simulated time.
  struct Run {
    Scheduler sched;
    std::deque<cycle_t> q;
    FusedSource src{"src", 16, &q};
    Relay sink{"sink", &q, nullptr};
    Run() {
      sched.add(&src);
      sched.add(&sink);
    }
    [[nodiscard]] std::vector<std::uint64_t> observation() const {
      std::vector<std::uint64_t> obs{sched.now(), src.emitted(), src.state(),
                                     sink.popped(), sink.signature()};
      for (const cycle_t c : sink.pop_cycles()) obs.push_back(c);
      return obs;
    }
  };
  Run exact, fast;
  exact.sched.step_n(2'000);
  (void)fast.sched.run_until(never, 2'000, /*fast=*/true);
  EXPECT_EQ(exact.observation(), fast.observation());
  // The fast run actually engaged, and each grant replaced many ticks.
  const auto& ex = exact.sched.dispatch_stats();
  const auto& fa = fast.sched.dispatch_stats();
  EXPECT_EQ(ex.macro_dispatches, 0u);
  EXPECT_GT(fa.macro_dispatches, 0u);
  EXPECT_GT(fa.macro_cycles, fa.macro_dispatches);
  // Kernel dispatches (tick() calls plus fused calls) per simulated
  // cycle fall at least 3x against exact stepping.
  EXPECT_GE(ex.ticks + ex.macro_dispatches,
            3 * (fa.ticks + fa.macro_dispatches));
}

TEST(MacroStep, NoGrantWhenTwoComponentsAreDue) {
  // Grant-rule edge: two never-quiet components must both tick every
  // cycle, so the single-owner grant must never fire — the fast path
  // steps every cycle exactly and the run stays bit-identical.
  struct Run {
    Scheduler sched;
    std::deque<cycle_t> qa, qb;
    FusedSource a{"a", 7, &qa};
    FusedSource b{"b", 11, &qb};
    Run() {
      sched.add(&a);
      sched.add(&b);
    }
    [[nodiscard]] std::vector<std::uint64_t> observation() const {
      return {sched.now(), a.emitted(), a.state(), b.emitted(), b.state()};
    }
  };
  Run exact, macro;
  exact.sched.step_n(500);
  (void)macro.sched.run_until(never, 500, /*fast=*/true);
  EXPECT_EQ(exact.observation(), macro.observation());
  EXPECT_EQ(macro.sched.dispatch_stats().macro_dispatches, 0u);
  EXPECT_TRUE(macro.a.budgets().empty());
  EXPECT_TRUE(macro.b.budgets().empty());
}

TEST(MacroStep, NeighborActivationCapsBudgetAndDemotesOnArrival) {
  // A fused source that would happily run forever shares the graph with a
  // periodic probe that is quiet between pulses. Every granted budget
  // must stop at the probe's next pulse (its quiet_for() report), and on
  // the pulse cycle itself two components must tick, so the fast path
  // steps that cycle exactly — matching exact stepping.
  struct Run {
    Scheduler sched;
    std::deque<cycle_t> q;
    std::deque<cycle_t> pulses;
    FusedSource src{"src", 1'000, &q};
    PulseSource probe{"probe", 10, 0, &pulses};
    Run() {
      sched.add(&src);
      sched.add(&probe);
    }
    [[nodiscard]] std::vector<std::uint64_t> observation() const {
      std::vector<std::uint64_t> obs{sched.now(), src.emitted(), src.state()};
      obs.insert(obs.end(), pulses.begin(), pulses.end());
      return obs;
    }
  };
  Run exact, macro;
  exact.sched.step_n(400);
  (void)macro.sched.run_until(never, 400, /*fast=*/true);
  EXPECT_EQ(exact.observation(), macro.observation());
  const auto& budgets = macro.src.budgets();
  ASSERT_FALSE(budgets.empty());
  // The probe pulses every 10 cycles, so no span may reach past that.
  EXPECT_LE(*std::max_element(budgets.begin(), budgets.end()), 10u);
}

TEST(MacroStepDeath, BudgetOverrunAborts) {
  // A hostile macro_step that consumes budget + 1 would silently skew
  // simulated time for every other component; the scheduler must abort.
  Scheduler sched;
  std::deque<cycle_t> q;
  FusedSource src("src", 50, &q, /*overrun=*/true);
  sched.add(&src);
  EXPECT_DEATH((void)sched.run_until(never, 100, /*fast=*/true),
               "overran its budget");
}

// ---------------------------------------------------------------------------
// Accelerator-level demotion: the macro fast path must switch itself off —
// with bit-identical results — whenever a disqualifier is present.
// ---------------------------------------------------------------------------

/// A full accelerator run, returning everything observable; the
/// accelerator's dispatch accounting tells tests whether macro-steps
/// engaged at all.
struct MacroRunObservation {
  sim::cycle_t final_now = 0;
  std::vector<hw::NbtResult> results;
  hw::PerfSnapshot perf;

  friend bool operator==(const MacroRunObservation&,
                         const MacroRunObservation&) = default;
};

struct MacroAccelRun {
  mem::MainMemory memory{8u << 20};
  hw::Accelerator accel;

  explicit MacroAccelRun(const hw::AcceleratorConfig& cfg)
      : accel(cfg, memory) {}

  MacroRunObservation run(const std::vector<gen::SequencePair>& pairs,
                          bool disarm_watchdog,
                          sim::FaultInjector* injector = nullptr) {
    if (injector != nullptr) accel.attach_fault_injector(injector);
    const drv::BatchLayout layout = drv::encode_input_set(
        memory, pairs, 0x1000, 0x100000,
        /*force_max_read_len=*/0, accel.config().crc);
    drv::Driver driver(accel);
    driver.start(layout, /*backtrace=*/false);
    if (disarm_watchdog) accel.write_reg(hw::kRegWatchdog, 0);
    (void)driver.wait_idle();
    MacroRunObservation obs;
    obs.final_now = accel.now();
    obs.results = drv::decode_nbt_results(memory, layout);
    obs.perf = accel.perf_counters();
    return obs;
  }
};

hw::AcceleratorConfig macro_cfg() {
  hw::AcceleratorConfig cfg;
  cfg.idle_skip = true;
  return cfg;
}

hw::AcceleratorConfig exact_cfg() {
  hw::AcceleratorConfig cfg;
  cfg.idle_skip = false;
  return cfg;
}

std::vector<gen::SequencePair> demotion_pairs() {
  return gen::generate_input_set({100, 0.08, 4, 808});
}

TEST(MacroStepDemotion, EngagesOnCleanConfig) {
  // Positive control for the suite: with no disqualifier (watchdog
  // disarmed, no injector, no ECC/CRC) macro-steps actually fire, and the
  // run matches exact stepping bit for bit.
  const auto pairs = demotion_pairs();
  MacroAccelRun exact(exact_cfg());
  MacroAccelRun macro(macro_cfg());
  const MacroRunObservation want = exact.run(pairs, /*disarm_watchdog=*/true);
  const MacroRunObservation got = macro.run(pairs, /*disarm_watchdog=*/true);
  EXPECT_EQ(want, got);
  EXPECT_GT(macro.accel.dispatch_stats().macro_dispatches, 0u);
}

TEST(MacroStepDemotion, ArmedWatchdogSuppressesMacro) {
  // The device resets with the no-progress watchdog armed; its firing
  // cycle must stay exact, so an armed watchdog demotes the whole run to
  // per-cycle stepping — zero macro grants, identical observables.
  const auto pairs = demotion_pairs();
  MacroAccelRun exact(exact_cfg());
  MacroAccelRun macro(macro_cfg());
  const MacroRunObservation want = exact.run(pairs, /*disarm_watchdog=*/false);
  const MacroRunObservation got = macro.run(pairs, /*disarm_watchdog=*/false);
  EXPECT_EQ(want, got);
  EXPECT_EQ(macro.accel.dispatch_stats().macro_dispatches, 0u);
}

TEST(MacroStepDemotion, MidRunWatchdogArmDemotesAtThatCycle) {
  // Demotion is evaluated per probe, not per run: a watchdog armed
  // mid-run must stop macro grants from that exact cycle on, while the
  // already-fused prefix and the per-cycle suffix together stay
  // bit-identical to exact stepping.
  // A workload big enough to straddle the arming cycle comfortably.
  const auto pairs = gen::generate_input_set({200, 0.08, 16, 809});
  auto run = [&](const hw::AcceleratorConfig& cfg) {
    MacroAccelRun r(cfg);
    const drv::BatchLayout layout =
        drv::encode_input_set(r.memory, pairs, 0x1000, 0x100000);
    drv::Driver driver(r.accel);
    driver.start(layout, /*backtrace=*/false);
    r.accel.write_reg(hw::kRegWatchdog, 0);
    (void)r.accel.advance(2'000);
    const std::uint64_t grants_at_arm =
        r.accel.dispatch_stats().macro_dispatches;
    r.accel.write_reg(hw::kRegWatchdog, 500'000);
    (void)driver.wait_idle();
    MacroRunObservation obs;
    obs.final_now = r.accel.now();
    obs.results = drv::decode_nbt_results(r.memory, layout);
    obs.perf = r.accel.perf_counters();
    return std::make_tuple(obs, grants_at_arm,
                           r.accel.dispatch_stats().macro_dispatches -
                               grants_at_arm);
  };
  const auto [want, want_before, want_after] = run(exact_cfg());
  const auto [got, got_before, got_after] = run(macro_cfg());
  EXPECT_EQ(want, got);
  EXPECT_EQ(want_before + want_after, 0u);
  // The macro path really was engaged before the arm (the run is longer
  // than the armed-at cycle, so there was work on both sides of it) ...
  EXPECT_GT(want.final_now, 2'000u);
  EXPECT_GT(got_before, 0u);
  // ... and no grant fired after the arming cycle — demotion was
  // immediate.
  EXPECT_EQ(got_after, 0u);
}

TEST(MacroStepDemotion, FaultInjectorSuppressesMacro) {
  // An attached injector needs every cycle (beat faults, stall probes) —
  // even one whose campaign happens to contain zero events. Macro must
  // never engage, and with no actual faults drawn the observables still
  // match the exact run.
  const auto pairs = demotion_pairs();
  MacroAccelRun exact(exact_cfg());
  MacroAccelRun macro(macro_cfg());
  sim::FaultInjector::CampaignConfig empty;
  sim::FaultInjector inj_a = sim::FaultInjector::make_campaign(5, empty);
  sim::FaultInjector inj_b = sim::FaultInjector::make_campaign(5, empty);
  const MacroRunObservation want =
      exact.run(pairs, /*disarm_watchdog=*/true, &inj_a);
  const MacroRunObservation got =
      macro.run(pairs, /*disarm_watchdog=*/true, &inj_b);
  EXPECT_EQ(want, got);
  EXPECT_EQ(macro.accel.dispatch_stats().macro_dispatches, 0u);
}

TEST(MacroStepDemotion, EccAndCrcConfigsSuppressMacro) {
  // ECC scrubbing and CRC-protected streams keep per-beat checking alive,
  // so macro_step_allowed() must veto fusion under either config — while
  // the run still matches exact stepping under the same config.
  for (const bool use_crc : {false, true}) {
    hw::AcceleratorConfig checked_exact = exact_cfg();
    hw::AcceleratorConfig checked_macro = macro_cfg();
    (use_crc ? checked_exact.crc : checked_exact.ecc) = true;
    (use_crc ? checked_macro.crc : checked_macro.ecc) = true;
    const auto pairs = demotion_pairs();
    MacroAccelRun exact(checked_exact);
    MacroAccelRun macro(checked_macro);
    const MacroRunObservation want =
        exact.run(pairs, /*disarm_watchdog=*/true);
    const MacroRunObservation got =
        macro.run(pairs, /*disarm_watchdog=*/true);
    EXPECT_EQ(want, got) << (use_crc ? "crc" : "ecc");
    EXPECT_EQ(macro.accel.dispatch_stats().macro_dispatches, 0u)
        << (use_crc ? "crc" : "ecc");
  }
}

}  // namespace
}  // namespace wfasic::sim
