#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace wfasic::sim {
namespace {

class Counter final : public Component {
 public:
  explicit Counter(std::string name) : Component(std::move(name)) {}
  void tick(cycle_t now) override {
    last_tick = now;
    ++ticks;
  }
  int ticks = 0;
  cycle_t last_tick = 0;
};

TEST(Scheduler, StepAdvancesTime) {
  Scheduler sched;
  EXPECT_EQ(sched.now(), 0u);
  sched.step();
  sched.step();
  EXPECT_EQ(sched.now(), 2u);
}

TEST(Scheduler, TicksAllComponents) {
  Scheduler sched;
  Counter a("a");
  Counter b("b");
  sched.add(&a);
  sched.add(&b);
  sched.step();
  sched.step();
  sched.step();
  EXPECT_EQ(a.ticks, 3);
  EXPECT_EQ(b.ticks, 3);
  EXPECT_EQ(a.last_tick, 2u);
}

TEST(Scheduler, RunUntilStopsOnPredicate) {
  Scheduler sched;
  Counter c("c");
  sched.add(&c);
  const RunUntilResult end = sched.run_until([&] { return c.ticks >= 5; },
                                             1000);
  EXPECT_EQ(end.status, RunUntilStatus::kDone);
  EXPECT_FALSE(end.timed_out());
  EXPECT_EQ(end.now, 5u);
  EXPECT_EQ(c.ticks, 5);
}

// Regression: run_until used to hard-abort the process on timeout. Library
// code must instead return a typed status and let the caller decide.
TEST(Scheduler, RunUntilTimeoutReturnsTypedStatus) {
  Scheduler sched;
  const RunUntilResult end = sched.run_until([] { return false; }, 10);
  EXPECT_EQ(end.status, RunUntilStatus::kTimeout);
  EXPECT_TRUE(end.timed_out());
  EXPECT_EQ(end.now, 10u);
}

TEST(Scheduler, AddNullAborts) {
  Scheduler sched;
  EXPECT_DEATH(sched.add(nullptr), "null");
}

TEST(Scheduler, StepNMatchesRepeatedStep) {
  Scheduler looped;
  Scheduler batched;
  Counter a("a");
  Counter b("b");
  looped.add(&a);
  batched.add(&b);
  for (int i = 0; i < 7; ++i) looped.step();
  batched.step_n(7);
  EXPECT_EQ(looped.now(), batched.now());
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.last_tick, b.last_tick);
}

/// A component that is quiet for a programmable countdown, then must tick
/// (models a batch countdown / DMA stall counter).
class Quiescent final : public Component {
 public:
  Quiescent(std::string name, cycle_t quiet)
      : Component(std::move(name)), quiet_(quiet) {}
  void tick(cycle_t) override {
    if (quiet_ > 0) --quiet_;
    ++ticks;
  }
  [[nodiscard]] cycle_t quiet_for(cycle_t) const override { return quiet_; }
  void skip_quiet(cycle_t n) override {
    quiet_ -= n;
    skipped += n;
  }
  cycle_t quiet_;
  cycle_t skipped = 0;
  int ticks = 0;
};

TEST(Scheduler, QuiescentCyclesIsMinOverComponents) {
  Scheduler sched;
  Quiescent a("a", 12);
  Quiescent b("b", 5);
  Quiescent idle("idle", Component::kQuietForever);
  sched.add(&a);
  sched.add(&b);
  sched.add(&idle);
  EXPECT_EQ(sched.quiescent_cycles(), 5u);
}

TEST(Scheduler, QuiescentCyclesZeroWhenAnyComponentMustTick) {
  Scheduler sched;
  Quiescent a("a", 12);
  Counter busy("busy");  // default quiet_for() == 0
  sched.add(&a);
  sched.add(&busy);
  EXPECT_EQ(sched.quiescent_cycles(), 0u);
}

TEST(Scheduler, QuiescentCyclesForeverWhenNothingScheduled) {
  Scheduler sched;
  Quiescent idle("idle", Component::kQuietForever);
  sched.add(&idle);
  EXPECT_EQ(sched.quiescent_cycles(), Component::kQuietForever);
}

TEST(Scheduler, SkipBulkAppliesQuietUpdatesWithoutTicking) {
  Scheduler sched;
  Quiescent a("a", 10);
  sched.add(&a);
  sched.skip(4);
  EXPECT_EQ(sched.now(), 4u);
  EXPECT_EQ(a.skipped, 4u);
  EXPECT_EQ(a.ticks, 0);       // no tick() during a skip
  EXPECT_EQ(a.quiet_, 6u);     // countdown advanced in bulk
  EXPECT_EQ(sched.quiescent_cycles(), 6u);
}

TEST(Scheduler, RunUntilSkipQuiescentMatchesExactStepping) {
  // The same system run both ways must detect the predicate at the same
  // cycle with the same component state: skipping only compresses the
  // quiet spans, it never changes what is simulated.
  auto run = [](bool skip_quiescent) {
    Scheduler sched;
    Quiescent countdown("countdown", 37);
    sched.add(&countdown);
    const RunUntilResult end = sched.run_until(
        [&] { return countdown.quiet_ == 0; }, 1000, skip_quiescent);
    return std::pair<cycle_t, cycle_t>(end.now, countdown.quiet_);
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace wfasic::sim
