// Simulation kernel: per-cycle two-phase stepping plus one fast path.
//
// Components register with a Scheduler and are ticked once per cycle in two
// phases: tick() (combinational work / issue requests) then commit()
// (sequential state update), which lets two components exchange data in the
// same cycle without order-dependence bugs.
//
// Quiescence protocol: a component may report a span of upcoming cycles
// whose ticks are no-ops or pure linear counter updates (countdowns, stall
// counters) via quiet_for(), and apply them in bulk via skip_quiet(). It
// may also fuse a span of its own externally invisible ticks into one
// macro_step() call. The fast path (Scheduler::fast_advance) polls every
// component's quiet_for() once per probe and then either
//
//   - skips a span in which every component is quiet (one skip() call),
//   - grants a macro-step to the single component that must tick, with
//     the budget capped by everyone else's report; the others then
//     skip_quiet() the cycles it consumed, or
//   - declines, and the caller steps the boundary cycle exactly.
//
// Both advances are bit-identical to exact stepping by construction.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/trace.hpp"

namespace wfasic::sim {

/// Base class for everything that owns per-cycle behaviour.
class Component {
 public:
  /// quiet_for() return value meaning "idle until another component acts"
  /// (no self-scheduled event of my own).
  static constexpr cycle_t kQuietForever =
      std::numeric_limits<cycle_t>::max();

  explicit Component(std::string name) : name_(std::move(name)) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  /// Phase 1: observe current state, issue requests.
  virtual void tick(cycle_t now) = 0;
  /// Phase 2: latch new state. Default: nothing.
  virtual void commit(cycle_t now) { (void)now; }

  /// Quiescence report: the number of upcoming cycles for which this
  /// component's tick is a no-op or a pure linear counter update — no
  /// FIFO/queue push or pop, no state-machine transition, no interaction
  /// with another component. 0 means "I must tick this cycle" (the safe
  /// default); kQuietForever means "idle until another component acts".
  /// The report must stay valid until another component performs a
  /// non-quiet tick (a macro-step's fused span does not count: it is
  /// externally invisible by contract).
  [[nodiscard]] virtual cycle_t quiet_for(cycle_t now) const {
    (void)now;
    return 0;
  }
  /// Applies `n` ticks' worth of quiet updates in bulk. Called only with
  /// n <= the component's own quiet_for() report, and only when no other
  /// component acted visibly inside the span (the state the skipped ticks
  /// would have read is still in place).
  virtual void skip_quiet(cycle_t n) { (void)n; }

  /// Compiled macro-step contract (the steady-state half of the fast
  /// path): advance up to `budget` cycles of this component's own
  /// behaviour in one fused call, and return the cycles actually consumed
  /// (0 = not applicable here, fall back to per-cycle stepping).
  ///
  /// The Scheduler only calls this when every other registered component
  /// reports quiet for at least `budget` cycles (Scheduler::fast_advance),
  /// so the implementation may run its hot loop without re-checking FIFO
  /// handshakes. In exchange it must guarantee, for the consumed span:
  ///   - no externally-visible effect: nothing another component or the
  ///     host could observe (queue/FIFO pushes, idle() flips, interrupt
  ///     conditions) happens inside the span — the fused loop stops one
  ///     cycle *before* its first externally-visible tick, which then runs
  ///     as a normal tick();
  ///   - observational identity: at span end, every externally-queriable
  ///     value (counters, quiet_for() schedule, results) reads exactly as
  ///     if the span had been stepped per cycle;
  ///   - budget compliance: the return value never exceeds `budget`
  ///     (enforced by an assert in the Scheduler).
  /// The default declines, so components are per-cycle unless they opt in.
  [[nodiscard]] virtual cycle_t macro_step(cycle_t now, cycle_t budget) {
    (void)now;
    (void)budget;
    return 0;
  }

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Wires a trace sink into this component. Each component gets a track
  /// named after itself; emission is observational only, so wiring (or not)
  /// never changes simulated behaviour. Passing nullptr unwires.
  void set_trace(TraceSink* sink) {
    trace_ = sink;
    trace_track_ = sink != nullptr ? sink->register_track(name_) : 0;
  }

 protected:
  /// Non-null and enabled iff this component should emit trace events.
  /// The double test compiles to one pointer load + flag test — the no-op
  /// fast path when tracing is off.
  [[nodiscard]] bool tracing() const {
    return trace_ != nullptr && trace_->enabled();
  }
  [[nodiscard]] TraceSink* trace() const { return trace_; }
  [[nodiscard]] std::uint32_t trace_track() const { return trace_track_; }

 private:
  std::string name_;
  TraceSink* trace_ = nullptr;
  std::uint32_t trace_track_ = 0;
};

/// How a bounded Scheduler::run_until ended.
enum class RunUntilStatus : std::uint8_t {
  kDone,     ///< the predicate became true
  kTimeout,  ///< `max_cycles` elapsed first (likely deadlock)
};

struct RunUntilResult {
  RunUntilStatus status = RunUntilStatus::kDone;
  cycle_t now = 0;  ///< scheduler time at exit

  [[nodiscard]] bool timed_out() const {
    return status == RunUntilStatus::kTimeout;
  }
};

/// Advances a set of components cycle by cycle. Does not own them.
class Scheduler {
 public:
  /// Registers a component. `needs_commit = false` keeps it off the
  /// commit-phase list (most components never override commit(); skipping
  /// the empty virtual call halves the per-cycle dispatch cost).
  /// Registering the same component twice would double-tick it — silent
  /// state corruption — so it is rejected.
  void add(Component* component, bool needs_commit = true) {
    WFASIC_REQUIRE(component != nullptr, "Scheduler::add: null component");
    WFASIC_REQUIRE(std::find(components_.begin(), components_.end(),
                             component) == components_.end(),
                   "Scheduler::add: component already registered (duplicate "
                   "registration would double-tick it)");
    components_.push_back(component);
    if (needs_commit) commit_list_.push_back(component);
  }

  [[nodiscard]] cycle_t now() const { return now_; }

  /// Host-side dispatch accounting (observational, never read by
  /// simulation logic): how many tick() dispatches and fused macro-steps
  /// the kernel issued, and how many cycles it skipped as quiet.
  struct DispatchStats {
    std::uint64_t ticks = 0;             ///< component tick() dispatches
    std::uint64_t macro_dispatches = 0;  ///< fused macro_step() calls
    std::uint64_t macro_cycles = 0;      ///< cycles consumed by macro-steps
    std::uint64_t skipped_cycles = 0;    ///< cycles elided by skip()
  };
  [[nodiscard]] const DispatchStats& dispatch_stats() const { return stats_; }

  /// Runs exactly one cycle.
  void step() { step_n(1); }

  /// Runs exactly `n` cycles with the dispatch lists hoisted out of the
  /// per-cycle loop (the batched stepper behind driver/engine wait loops).
  void step_n(cycle_t n) {
    Component* const* tick_list = components_.data();
    const std::size_t tick_count = components_.size();
    Component* const* commit_list = commit_list_.data();
    const std::size_t commit_count = commit_list_.size();
    stats_.ticks += static_cast<std::uint64_t>(tick_count) * n;
    for (cycle_t c = 0; c < n; ++c) {
      for (std::size_t i = 0; i < tick_count; ++i) tick_list[i]->tick(now_);
      for (std::size_t i = 0; i < commit_count; ++i) {
        commit_list[i]->commit(now_);
      }
      ++now_;
    }
  }

  /// The number of cycles every component reports quiescent from now
  /// (minimum over components, early-exit on 0). 0 means some component
  /// must tick this cycle; kQuietForever means nothing is self-scheduled.
  [[nodiscard]] cycle_t quiescent_cycles() const {
    cycle_t quiet = Component::kQuietForever;
    for (const Component* c : components_) {
      const cycle_t q = c->quiet_for(now_);
      if (q == 0) return 0;
      quiet = std::min(quiet, q);
    }
    return quiet;
  }

  /// Fast-forwards `n` cycles of system-wide quiescence: bulk-applies the
  /// quiet counter updates and advances now_. Only valid for
  /// n <= quiescent_cycles(). A span that would overflow the cycle counter
  /// is a caller bug (kQuietForever is "no event", not a distance), so it
  /// is rejected here rather than wrapping now_ silently.
  void skip(cycle_t n) {
    if (n == 0) return;
    WFASIC_REQUIRE(n < Component::kQuietForever - now_,
                   "Scheduler::skip: span would overflow the cycle counter "
                   "(a kQuietForever-sized span is not skippable)");
    for (Component* c : components_) c->skip_quiet(n);
    now_ += n;
    stats_.skipped_cycles += n;
  }

  /// One fast-path probe of at most `max_span` cycles: a single quiet_for()
  /// sweep, then
  ///   - every component quiet: skip() the common span;
  ///   - exactly one component reports 0 (and `allow_macro`): offer it a
  ///     macro_step() with budget = min(max_span, the smallest other
  ///     report). No other component can act before that horizon, and the
  ///     fused span is externally invisible, so the others' reports stay
  ///     valid; they skip_quiet() the consumed cycles afterwards;
  ///   - otherwise (two components must tick, the owner declined, or a
  ///     plain tick covers the budget): nothing.
  /// Returns the cycles advanced; 0 means the caller steps exactly.
  cycle_t fast_advance(cycle_t max_span, bool allow_macro) {
    const std::size_t count = components_.size();
    std::size_t owner = count;
    cycle_t horizon = Component::kQuietForever;
    for (std::size_t i = 0; i < count; ++i) {
      const cycle_t q = components_[i]->quiet_for(now_);
      if (q == 0) {
        if (owner != count || !allow_macro) return 0;
        owner = i;
      } else if (q < horizon) {
        horizon = q;
      }
    }
    const cycle_t span = std::min(horizon, max_span);
    if (owner == count) {
      skip(span);
      return span;
    }
    if (span <= 1) return 0;
    const cycle_t used = components_[owner]->macro_step(now_, span);
    if (used == 0) return 0;
    WFASIC_ASSERT(used <= span,
                  "Scheduler::fast_advance: macro_step overran its budget");
    for (std::size_t i = 0; i < count; ++i) {
      if (i != owner) components_[i]->skip_quiet(used);
    }
    now_ += used;
    ++stats_.macro_dispatches;
    stats_.macro_cycles += used;
    return used;
  }

  /// Snapshot restore (sim/snapshot.hpp): rewinds the clock and dispatch
  /// accounting to a saved point. The clock and stats are the Scheduler's
  /// entire state; everything else lives in the components.
  void restore_clock(cycle_t now, const DispatchStats& stats) {
    now_ = now;
    stats_ = stats;
  }

  /// Runs until `done()` returns true (checked between cycles) or
  /// `max_cycles` elapse. A timeout is reported as a typed status, never
  /// an abort — library code must not kill the process on a deadlock
  /// guard; callers (engine, driver, tests) decide how loud to be.
  ///
  /// With `fast` the predicate is instead checked on the coarser grid of
  /// fast_advance() boundaries: quiet spans and macro-steps advance in one
  /// call each and every other cycle is stepped exactly. Only valid for
  /// predicates that can flip solely on externally visible, non-quiet
  /// ticks (e.g. FIFO/queue occupancy, state-machine phase) — not for
  /// predicates on now() or linear counters.
  RunUntilResult run_until(const std::function<bool()>& done,
                           cycle_t max_cycles, bool fast = false) {
    while (!done()) {
      if (now_ >= max_cycles) {
        return {RunUntilStatus::kTimeout, now_};
      }
      if (fast && fast_advance(max_cycles - now_, /*allow_macro=*/true) > 0) {
        continue;
      }
      step_n(1);
    }
    return {RunUntilStatus::kDone, now_};
  }

 private:
  std::vector<Component*> components_;
  std::vector<Component*> commit_list_;
  cycle_t now_ = 0;
  DispatchStats stats_;
};

}  // namespace wfasic::sim
