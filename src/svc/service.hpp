// Alignment as a service: the resilience layer over engine::Engine.
//
// The engine below this boundary is batch-centric: submit a BatchJob, get
// a Completion. AlignService re-slices that surface around *requests* —
// one sequence pair each, streamed in by tenants and harvested out of
// order — and adds the request-level robustness story:
//
//   - per-tenant lanes with weighted-fair scheduling (svc/scheduler.hpp):
//     a deterministic WFQ packs lane queues into engine shards of at most
//     max_batch_pairs, so no tenant starves and heavy tenants cannot
//     crowd out light ones beyond their weight;
//   - bounded admission queues with explicit backpressure: submit()
//     returns kWouldBlock when a lane is full — queue memory stays
//     bounded no matter the offered load;
//   - deadlines in modeled time: expired requests are shed before they
//     waste device cycles (queue shedding), in-flight shards whose every
//     request has expired are cancelled where the engine still can, and
//     late completions are marked kDeadlineMiss;
//   - hedged retries: a shard that overstays its estimated service time,
//     or whose attempt fails outright, gets a copy on another healthy
//     device (or the SwBackend). First completion wins; the loser is
//     suppressed, so each request resolves exactly once. The engine's
//     health scoreboard acts as the per-device circuit breaker — every
//     collected outcome is fed back, so repeatedly failing devices
//     quarantine and stop receiving shards;
//   - graceful degradation by policy: with the fleet unusable,
//     kDegradeToSoftware routes shards to the SwBackend while kRejectNew
//     turns away new submissions and lets the admitted backlog drain;
//   - deadline-driven preemption (PreemptConfig): a deadline-critical
//     request stuck behind a long-running shard checkpoint-evicts that
//     run off its device (engine::Engine::preempt — lossless park at the
//     eviction snapshot), takes the device, and the parked run resumes
//     once the pressure clears. Parked shards stay first-class: deadline
//     expiry cancels them, and a hedge may still race the parked copy.
//
// Time: the service runs a virtual clock in modeled cycles. Each pump()
// performs one scheduling round (shed, dispatch, hedge-check, one engine
// poll) and advances the clock by one engine scheduling quantum before
// collecting, so a completion surfaces one tick after its device work and
// modeled latency includes that time; advance_to() jumps the clock
// forward across idle gaps (open-loop arrival injection). Every decision
// is a pure function of the configuration and the submit/advance trace,
// so runs replay bit for bit.
//
// See docs/SERVICE.md for the full design.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/metrics_registry.hpp"
#include "engine/engine.hpp"
#include "svc/scheduler.hpp"
#include "svc/trace.hpp"
#include "svc/types.hpp"

namespace wfasic::svc {

struct ServiceConfig {
  engine::EngineConfig engine;
  /// Tenant lanes; empty means one default lane.
  std::vector<LaneConfig> lanes;
  /// Requests packed into one engine shard (the request-centric slice).
  std::size_t max_batch_pairs = 8;
  /// Unresolved shards allowed in flight at once (0 = 2 per device).
  std::size_t max_inflight_shards = 0;
  DegradeMode degrade = DegradeMode::kDegradeToSoftware;
  HedgeConfig hedge;
  /// Checkpoint-evict long runs when deadline-critical work is waiting
  /// (types.hpp; requires engine.device.checkpoint-capable hardware —
  /// always true in simulation).
  PreemptConfig preempt;
  /// Request-scoped causal tracing (svc/trace.hpp): flight-recorder ring
  /// size, full-export mode, registry sampling cadence. Recording is
  /// zero-perturbation — modeled cycles and PMU counters are bit-identical
  /// with any setting here.
  TraceConfig trace;
};

class AlignService {
 public:
  explicit AlignService(const ServiceConfig& cfg);

  // --- Streaming client surface --------------------------------------------
  /// Admits one pair into `lane`. `deadline_cycle` is an absolute service
  /// clock value (0 = the lane's default span, or none). Never blocks:
  /// a full lane returns kWouldBlock, policy rejections kRejected.
  SubmitResult submit(unsigned lane, std::string a, std::string b,
                      std::uint64_t deadline_cycle = 0);
  /// Moves out every resolved completion (all lanes, resolution order).
  std::vector<ServiceCompletion> harvest();

  // --- Modeled time and progress -------------------------------------------
  [[nodiscard]] std::uint64_t now() const { return now_; }
  /// Jumps the service clock forward across an idle gap (arrivals are
  /// injected in modeled time). Must not move backwards.
  void advance_to(std::uint64_t cycle);
  /// One scheduling round; advances the clock by one tick. Returns true
  /// while queued or in-flight work remains.
  bool pump();
  /// Pumps until every admitted request has resolved.
  void drain();
  [[nodiscard]] bool busy() const;

  // --- Introspection --------------------------------------------------------
  [[nodiscard]] const ServiceStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queued(unsigned lane) const {
    return queues_.at(lane).size();
  }
  [[nodiscard]] std::size_t inflight_shards() const;
  [[nodiscard]] unsigned num_lanes() const {
    return static_cast<unsigned>(queues_.size());
  }
  [[nodiscard]] engine::Engine& engine() { return engine_; }
  [[nodiscard]] const engine::Engine& engine() const { return engine_; }
  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

  // --- Observability (docs/OBSERVABILITY.md §3–4) ---------------------------
  /// The always-on flight recorder: every request/shard lifecycle
  /// transition, in a bounded preallocated ring.
  [[nodiscard]] const FlightRecorder& recorder() const { return recorder_; }
  /// Snapshots the recorder into a self-describing dump (serialize and
  /// analyze it with svc/trace_io.hpp or the wfasic-trace CLI).
  [[nodiscard]] TraceDump trace_dump() const;
  /// Re-exports engine metrics, per-lane stats, service-wide stats and
  /// per-tenant SLO attainment into `reg` under stable names. Clears the
  /// registry's instruments first so stale names cannot linger.
  void export_metrics(common::MetricsRegistry& reg) const;
  /// The service's own registry: refreshed by the periodic sampler
  /// (TraceConfig::sample_interval) and on demand via export_metrics.
  [[nodiscard]] common::MetricsRegistry& registry() { return registry_; }

 private:
  struct QueuedRequest {
    RequestId id = 0;
    gen::SequencePair pair;  ///< id field unused; shards renumber locally
    std::uint64_t arrival = 0;
    std::uint64_t deadline = 0;  ///< absolute, 0 = none
  };
  /// One engine submission belonging to a shard (primary, hedge or retry).
  struct Attempt {
    engine::JobHandle handle;
    unsigned backend = 0;  ///< device index; engine.num_devices() = software
    bool outstanding = true;
    bool hedge = false;  ///< launched as a hedge/retry, not the primary
  };
  /// A request-centric slice dispatched onto the engine: up to
  /// max_batch_pairs requests of one lane riding one BatchJob.
  struct Shard {
    std::uint64_t id = 0;
    unsigned lane = 0;
    std::vector<QueuedRequest> reqs;  ///< kept for hedge/retry re-submission
    std::uint64_t dispatch_cycle = 0;
    std::uint64_t est_cycles = 0;  ///< service-time estimate (hedging)
    std::vector<Attempt> attempts;
    unsigned attempt_count = 0;
    bool hedged = false;
    bool resolved = false;
    /// Checkpoint-evicted: the primary attempt is parked in the engine
    /// (preempt()), makes no progress, and does not occupy an in-flight
    /// slot. Deadline expiry cancels it; a hedge may still race and win.
    bool preempted = false;
  };

  // One pump() phase each, in call order.
  void shed_expired_queued();
  void cancel_expired_inflight();
  /// PreemptConfig: with urgent work waiting and no usable device free,
  /// checkpoint-evicts the oldest eligible non-urgent run (at most one
  /// per round) so the urgent shard can dispatch onto real hardware.
  void preempt_for_urgent();
  void dispatch();
  /// Re-dispatches parked shards once the urgent pressure has cleared and
  /// an in-flight slot is free; they continue from their eviction
  /// checkpoint (lossless).
  void resume_preempted();
  void check_hedges();
  void collect();

  void process_completion(Shard& shard, Attempt& attempt,
                          engine::Completion&& completion);
  /// Resolves every request from a completed run; requests the hardware
  /// flagged as failed (kPartial: unsupported read, band/score overflow)
  /// re-shard onto the software backend instead of surfacing an error.
  void resolve_completed(Shard& shard, const Attempt& attempt,
                         engine::Completion&& completion);
  void resolve_shed(Shard& shard);
  /// Places one attempt for `shard`: on the software backend, or on the
  /// best usable device excluding `avoid` (engine.num_devices() = no
  /// exclusion); falls back to software when no device qualifies.
  void launch_attempt(Shard& shard, bool software, unsigned avoid,
                      bool hedge);
  [[nodiscard]] std::uint64_t estimate_cycles(const Shard& shard) const;
  /// True while any non-parked request (queued or in flight) has a live
  /// deadline within preempt.urgent_span of the clock.
  [[nodiscard]] bool urgent_pressure() const;
  [[nodiscard]] bool fleet_usable() const;
  /// Usable device with the shortest queue, excluding `avoid`; returns
  /// engine.num_devices() when none qualifies.
  [[nodiscard]] unsigned pick_device_excluding(unsigned avoid);
  void emit(ServiceCompletion&& completion);

  /// Records one lifecycle event at the current service clock (or at
  /// `ts_override` for span kinds stamped at their start). Purely
  /// observational — called strictly after the decision it describes, so
  /// it can never feed back into scheduling or modeled time.
  static constexpr std::uint64_t kTraceNow = ~std::uint64_t{0};
  void trace(TraceEventKind kind, std::uint64_t id, unsigned lane,
             std::uint32_t device = RequestTraceEvent::kNoDevice,
             std::uint64_t aux0 = 0, std::uint64_t aux1 = 0,
             std::uint64_t ts_override = kTraceNow, std::uint64_t dur = 0);

  ServiceConfig cfg_;
  engine::Engine engine_;
  WfqScheduler wfq_;
  std::vector<std::deque<QueuedRequest>> queues_;
  /// Unresolved shards plus resolved ones still owed a losing-attempt
  /// completion (duplicate suppression), in dispatch order.
  std::deque<Shard> shards_;
  /// Residual shards created while iterating shards_ (resolve_completed
  /// re-slicing hardware-rejected pairs); merged after each collect().
  std::vector<Shard> spawned_;
  std::vector<ServiceCompletion> completions_;
  ServiceStats stats_;
  std::uint64_t now_ = 0;
  std::size_t max_inflight_ = 0;
  RequestId next_request_ = 1;
  std::uint64_t next_shard_ = 1;
  FlightRecorder recorder_;
  common::MetricsRegistry registry_;
  std::uint64_t last_sample_ = 0;  ///< periodic sampler watermark
};

}  // namespace wfasic::svc
