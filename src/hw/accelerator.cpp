#include "hw/accelerator.hpp"

namespace wfasic::hw {

Accelerator::Accelerator(AcceleratorConfig cfg, mem::MainMemory& memory)
    : cfg_(cfg),
      memory_(memory),
      input_fifo_(cfg.input_fifo_depth),
      output_fifo_(cfg.output_fifo_depth) {
  WFASIC_REQUIRE(cfg_.valid(), "Accelerator: invalid configuration");
  if (cfg_.ecc) memory_.enable_ecc();
  dma_ = std::make_unique<mem::Dma>(memory_, input_fifo_, output_fifo_,
                                    cfg_.axi);
  std::vector<Aligner*> aligner_ptrs;
  for (unsigned idx = 0; idx < cfg_.num_aligners; ++idx) {
    aligners_.push_back(std::make_unique<Aligner>(
        "aligner" + std::to_string(idx), cfg_));
    aligner_ptrs.push_back(aligners_.back().get());
  }
  extractor_ = std::make_unique<Extractor>(input_fifo_, aligner_ptrs);
  collector_ = std::make_unique<Collector>(output_fifo_, aligner_ptrs);
  pmu_probe_ = std::make_unique<FifoOccupancyProbe>(input_fifo_, output_fifo_);

  // Tick order: drain first (collector), then producers, then ingest, so a
  // full pipeline moves one step everywhere within a cycle. None of the
  // pipeline stages uses the commit phase, so they register off the
  // commit list (needs_commit = false) and the scheduler never pays the
  // empty virtual calls.
  scheduler_.add(collector_.get(), /*needs_commit=*/false);
  for (auto& aligner : aligners_) {
    scheduler_.add(aligner.get(), /*needs_commit=*/false);
  }
  scheduler_.add(extractor_.get(), /*needs_commit=*/false);
  scheduler_.add(dma_.get(), /*needs_commit=*/false);
  // The PMU probe samples FIFO occupancy after every pipeline stage has
  // acted, so it registers last. It is always quiescent and never affects
  // what the other components do.
  scheduler_.add(pmu_probe_.get(), /*needs_commit=*/false);

  // Observability wiring: one trace track per unit plus a top-level run
  // track. The sink is enabled by config (or later at runtime); with it
  // off every emit site is a single pointer-and-flag test.
  trace_.set_enabled(cfg_.trace);
  trace_track_ = trace_.register_track("accelerator");
  dma_->set_trace(&trace_);
  extractor_->set_trace(&trace_);
  collector_->set_trace(&trace_);
  for (auto& aligner : aligners_) aligner->set_trace(&trace_);
}

void Accelerator::attach_fault_injector(sim::FaultInjector* injector) {
  injector_ = injector;
  dma_->set_fault_injector(injector);
  if (injector != nullptr) {
    input_fifo_.set_stall_probe(
        [injector] { return injector->fifo_stalled(sim::FaultFifo::kInput); });
    output_fifo_.set_stall_probe(
        [injector] { return injector->fifo_stalled(sim::FaultFifo::kOutput); });
  } else {
    input_fifo_.set_stall_probe(nullptr);
    output_fifo_.set_stall_probe(nullptr);
  }
}

void Accelerator::write_reg(std::uint32_t offset, std::uint32_t value) {
  switch (offset) {
    case kRegCtrl:
      if ((value & kCtrlSoftReset) != 0) soft_reset();
      if ((value & kCtrlStart) != 0) start();
      break;
    case kRegBtEnable:
      regs_.backtrace = (value & 1u) != 0;
      break;
    case kRegMaxReadLen:
      regs_.max_read_len = value;
      break;
    case kRegInAddrLo:
      regs_.in_addr = (regs_.in_addr & ~0xffffffffULL) | value;
      break;
    case kRegInAddrHi:
      regs_.in_addr =
          (regs_.in_addr & 0xffffffffULL) | (std::uint64_t{value} << 32);
      break;
    case kRegInSizeLo:
      regs_.in_size = (regs_.in_size & ~0xffffffffULL) | value;
      break;
    case kRegInSizeHi:
      regs_.in_size =
          (regs_.in_size & 0xffffffffULL) | (std::uint64_t{value} << 32);
      break;
    case kRegOutAddrLo:
      regs_.out_addr = (regs_.out_addr & ~0xffffffffULL) | value;
      break;
    case kRegOutAddrHi:
      regs_.out_addr =
          (regs_.out_addr & 0xffffffffULL) | (std::uint64_t{value} << 32);
      break;
    case kRegIntEnable:
      regs_.int_enable = (value & 1u) != 0;
      break;
    case kRegIntStatus:
      if ((value & 1u) != 0) int_pending_ = false;
      break;
    case kRegErrStatus:
      err_status_ &= ~value;  // write-1-to-clear
      break;
    case kRegErrCount:
      err_count_ = 0;  // any write clears
      break;
    case kRegWatchdog:
      regs_.watchdog = value;
      break;
    case kRegEccCount:
      ecc_count_base_ = ecc_corrected_total();  // any write clears
      break;
    case kRegCrcSalt:
      regs_.crc_salt = value;
      break;
    default:
      if (offset >= kRegPerfBase && offset < perf_reg_lo(kNumPerfCounters)) {
        // Any write to the PMU window clears the bank (rebase, like
        // kRegEccCount) and rearms the FIFO high-water marks.
        perf_base_ = perf_counters_raw();
        input_fifo_.reset_high_water();
        output_fifo_.reset_high_water();
        break;
      }
      WFASIC_REQUIRE(false, "Accelerator::write_reg: unknown register");
  }
}

std::uint32_t Accelerator::read_reg(std::uint32_t offset) const {
  switch (offset) {
    case kRegCtrl:
      return 0;
    case kRegStatus:
      return idle() ? 1u : 0u;
    case kRegBtEnable:
      return regs_.backtrace ? 1u : 0u;
    case kRegMaxReadLen:
      return regs_.max_read_len;
    case kRegInAddrLo:
      return static_cast<std::uint32_t>(regs_.in_addr);
    case kRegInAddrHi:
      return static_cast<std::uint32_t>(regs_.in_addr >> 32);
    case kRegInSizeLo:
      return static_cast<std::uint32_t>(regs_.in_size);
    case kRegInSizeHi:
      return static_cast<std::uint32_t>(regs_.in_size >> 32);
    case kRegOutAddrLo:
      return static_cast<std::uint32_t>(regs_.out_addr);
    case kRegOutAddrHi:
      return static_cast<std::uint32_t>(regs_.out_addr >> 32);
    case kRegIntEnable:
      return regs_.int_enable ? 1u : 0u;
    case kRegIntStatus:
      return int_pending_ ? 1u : 0u;
    case kRegErrStatus:
      return err_status_;
    case kRegErrCount:
      return err_count_;
    case kRegWatchdog:
      return regs_.watchdog;
    case kRegEccCount:
      return static_cast<std::uint32_t>(ecc_corrected_total() -
                                        ecc_count_base_);
    case kRegCrcSalt:
      return regs_.crc_salt;
    default:
      if (offset >= kRegPerfBase && offset < perf_reg_lo(kNumPerfCounters) &&
          offset % 4 == 0) {
        const std::uint32_t rel = offset - kRegPerfBase;
        const auto idx = static_cast<PerfIdx>(rel / 8);
        const std::uint64_t value = perf_counters().counter(idx);
        return rel % 8 == 0 ? static_cast<std::uint32_t>(value)
                            : static_cast<std::uint32_t>(value >> 32);
      }
      WFASIC_REQUIRE(false, "Accelerator::read_reg: unknown register");
      return 0;
  }
}

PerfSnapshot Accelerator::perf_counters_raw() const {
  PerfSnapshot s;
  s.extractor_pairs_accepted = extractor_->pairs_accepted();
  s.extractor_pairs_rejected = extractor_->pairs_rejected();
  s.extractor_wait_cycles = extractor_->total_wait_cycles();
  for (const auto& aligner : aligners_) {
    s.extend_invocations += aligner->extend_invocations();
    s.extend_matched_bases += aligner->extend_matched_bases();
    s.aligner_wavefront_steps += aligner->wavefront_steps();
    s.aligner_busy_cycles += aligner->busy_cycles();
    s.aligner_stall_cycles += aligner->output_stall_cycles();
  }
  s.dma_beats_read = dma_->beats_read();
  s.dma_beats_written = dma_->beats_written();
  s.dma_stall_fifo_full = dma_->read_stalls_fifo_full();
  s.dma_stall_port_busy = dma_->read_stalls_port_busy();
  s.input_fifo_occupancy_cycles = pmu_probe_->input_occupancy_cycles();
  s.input_fifo_high_water = input_fifo_.high_water();
  s.output_fifo_occupancy_cycles = pmu_probe_->output_occupancy_cycles();
  s.output_fifo_high_water = output_fifo_.high_water();
  // Register mirrors (PerfSnapshot::is_absolute): same values the CPU
  // reads at kRegEccCount / kRegErrCount.
  s.ecc_corrected = ecc_corrected_total() - ecc_count_base_;
  s.err_count = err_count_;
  return s;
}

void Accelerator::start() {
  WFASIC_REQUIRE(!running_, "Accelerator::start while busy");
  WFASIC_REQUIRE(regs_.max_read_len % 16 == 0,
                 "Accelerator::start: MAX_READ_LEN must be divisible by 16");
  WFASIC_REQUIRE(regs_.max_read_len <= cfg_.max_supported_read_len,
                 "Accelerator::start: MAX_READ_LEN exceeds chip support");
  const std::size_t per_pair = pair_bytes(regs_.max_read_len, cfg_.crc);
  WFASIC_REQUIRE(per_pair > 0 && regs_.in_size % per_pair == 0,
                 "Accelerator::start: input size is not a whole number of "
                 "pairs");
  const std::uint64_t num_pairs = regs_.in_size / per_pair;

  for (auto& aligner : aligners_) {
    aligner->set_backtrace(regs_.backtrace);
    aligner->clear_errors();  // kErrUnsupported reflects the current run
  }
  extractor_->configure(regs_.max_read_len, num_pairs, cfg_.crc,
                        regs_.crc_salt);
  collector_->configure(regs_.backtrace, num_pairs, cfg_.crc,
                        regs_.crc_salt);
  dma_->configure_read(regs_.in_addr, regs_.in_size);
  dma_->configure_write(regs_.out_addr);
  // PMU: the counter bank clears on Start (rebase against the current
  // hardware totals; high-water marks rearm at the live occupancy).
  perf_base_ = perf_counters_raw();
  // Per-pair records cover one run, so a snapshot's size stays bounded by
  // the batch rather than growing with every launch of the device.
  for (auto& aligner : aligners_) aligner->clear_records();
  extractor_->clear_records();
  input_fifo_.reset_high_water();
  output_fifo_.reset_high_water();
  running_ = true;
  run_start_ = scheduler_.now();
  last_progress_sig_ = progress_signature();
  last_progress_cycle_ = scheduler_.now();
}

void Accelerator::soft_reset() {
  flush_pipeline();
  running_ = false;
  int_pending_ = false;
  // kRegErrStatus/kRegErrCount survive the reset so the CPU can still read
  // the cause; they clear through their own write semantics.
}

void Accelerator::latch_error(std::uint32_t cause) {
  err_status_ |= cause;
  ++err_count_;
}

void Accelerator::abort_run(std::uint32_t cause) {
  latch_error(cause);
  if (trace_.enabled()) {
    const char* name = "abort";
    if ((cause & kErrWatchdog) != 0) name = "watchdog-abort";
    else if ((cause & kErrDma) != 0) name = "dma-abort";
    else if ((cause & kErrEccUnc) != 0) name = "ecc-abort";
    trace_.instant(trace_track_, name, "error", scheduler_.now());
    trace_.span(trace_track_, "run", "accelerator", run_start_,
                scheduler_.now());
  }
  flush_pipeline();
  running_ = false;
  last_run_cycles_ = scheduler_.now() - run_start_;
  if (regs_.int_enable) int_pending_ = true;
}

void Accelerator::flush_pipeline() {
  dma_->abort();
  input_fifo_.clear();
  output_fifo_.clear();
  for (auto& aligner : aligners_) aligner->abort();
  extractor_->abort();
  collector_->abort();
}

std::uint64_t Accelerator::progress_signature() const {
  // Sum of monotone per-stage counters: strictly increases whenever any
  // stage does useful work, stands still on a genuine pipeline hang.
  std::uint64_t sig = dma_->beats_read() + dma_->beats_written() +
                      extractor_->pairs_done() +
                      collector_->beats_produced() +
                      collector_->results_seen();
  for (const auto& aligner : aligners_) sig += aligner->progress();
  return sig;
}

bool Accelerator::work_complete() const {
  if (!extractor_->done() || !collector_->done()) return false;
  if (!dma_->read_done() || !input_fifo_.empty() || !output_fifo_.empty()) {
    return false;
  }
  for (const auto& aligner : aligners_) {
    if (!aligner->idle()) return false;
  }
  return true;
}

void Accelerator::step() {
  if (injector_ != nullptr) {
    injector_->set_now(scheduler_.now());
    for (const auto& flip : injector_->due_memory_flips()) {
      for (unsigned n = 0; n < flip.bits; ++n) {
        memory_.flip_bit(flip.addr, (flip.bit + n) % 8);
      }
    }
    for (const auto& flip : injector_->due_ram_flips()) {
      auto& aligner = aligners_[static_cast<std::size_t>(
          flip.target % aligners_.size())];
      aligner->inject_ram_flip(flip.row, flip.bit, flip.double_bit);
    }
  }
  scheduler_.step();
  if (!running_) return;
  if (dma_->bus_error()) {
    abort_run(kErrDma);
    return;
  }
  if (dma_->ecc_fault()) {
    abort_run(kErrEccUnc);
    return;
  }
  if (work_complete()) {
    // Informational errors (unsupported reads) do not abort the run; they
    // are latched at completion so the CPU sees them alongside the results.
    const std::uint32_t flags = collector_->error_flags();
    if (flags != 0) latch_error(flags);
    if (trace_.enabled()) {
      trace_.span(trace_track_, "run", "accelerator", run_start_,
                  scheduler_.now());
    }
    running_ = false;
    last_run_cycles_ = scheduler_.now() - run_start_;
    if (regs_.int_enable) int_pending_ = true;
    return;
  }
  if (regs_.watchdog != 0) {
    const std::uint64_t sig = progress_signature();
    if (sig != last_progress_sig_) {
      last_progress_sig_ = sig;
      last_progress_cycle_ = scheduler_.now();
    } else if (scheduler_.now() - last_progress_cycle_ >=
               sim::cycle_t{regs_.watchdog}) {
      abort_run(kErrWatchdog);
    }
  }
}

std::uint64_t Accelerator::advance_core(std::uint64_t max_cycles,
                                        bool stop_when_idle,
                                        const std::function<bool()>* done) {
  std::uint64_t stepped = 0;
  std::uint64_t stride = 1;
  // While running, the post-tick checks (bus error, completion, watchdog)
  // must have validated the current state before a span may be skipped:
  // none of their conditions can flip during a quiescent span, but one
  // could already hold at entry (e.g. an empty input set completes on the
  // very first step).
  bool checked = false;
  while (stepped < max_cycles) {
    if (stop_when_idle && !running_) break;
    if (done != nullptr && (*done)()) break;
    if (!idle_skip_allowed() || (running_ && !checked)) {
      // Exact per-cycle stepping: forced mode (injector / armed watchdog)
      // or the not-yet-checked entry cycle.
      step();
      ++stepped;
      checked = true;
      continue;
    }
    // One quiescence probe: skip a span in which everything is quiet, or
    // hand it to the one component that must tick as a macro-step. Both
    // spans are externally invisible, so none of the post-cycle check
    // conditions (bus error, completion, watchdog — disarmed here by
    // idle_skip_allowed()) can flip inside them.
    const sim::cycle_t span =
        scheduler_.fast_advance(max_cycles - stepped, macro_step_allowed());
    if (span > 0) {
      stepped += span;
      stride = 1;
      continue;
    }
    // Non-quiescent boundary: replay exactly. Consecutive failed probes
    // widen the replay burst (up to 64 cycles) so boundary-dense phases
    // are not dominated by quiescence probing; a burst only delays the
    // next fast-path opportunity, never changes what is simulated.
    std::uint64_t burst = std::min<std::uint64_t>(stride, max_cycles - stepped);
    for (; burst > 0; --burst) {
      step();
      ++stepped;
      checked = true;
      if (stop_when_idle && !running_) break;
      if (done != nullptr && (*done)()) break;
    }
    if (burst > 0) break;  // inner early-stop
    if (stride < 64) stride *= 2;
  }
  return stepped;
}

std::uint64_t Accelerator::step_many(std::uint64_t max_cycles) {
  return advance_core(max_cycles, /*stop_when_idle=*/true);
}

std::uint64_t Accelerator::advance(std::uint64_t cycles) {
  return advance_core(cycles, /*stop_when_idle=*/false);
}

std::uint64_t Accelerator::run_until_event(const std::function<bool()>& done,
                                           std::uint64_t max_cycles) {
  return advance_core(max_cycles, /*stop_when_idle=*/false, &done);
}

std::uint64_t Accelerator::run_to_completion(std::uint64_t max_cycles) {
  const sim::cycle_t begin = scheduler_.now();
  advance_core(max_cycles, /*stop_when_idle=*/true);
  WFASIC_REQUIRE(!running_,
                 "Accelerator::run_to_completion: cycle limit exceeded "
                 "(likely deadlock)");
  return scheduler_.now() - begin;
}

// --- Checkpoint / restore (sim/snapshot.hpp) ---------------------------------

namespace {

/// Top-level section tags. Each section of the payload is prefixed with
/// one; a reader/writer layout skew then latches kBadValue at the exact
/// boundary instead of silently misdecoding everything downstream.
enum SnapshotSection : std::uint32_t {
  kSecScheduler = 1,
  kSecRun = 2,
  kSecProbe = 3,
  kSecInputFifo = 4,
  kSecOutputFifo = 5,
  kSecDma = 6,
  kSecExtractor = 7,
  kSecAligners = 8,
  kSecCollector = 9,
  kSecMemory = 10,
  kSecInjector = 11,
};

/// The structural-configuration signature: every AcceleratorConfig field
/// that shapes architectural state, written field by field so a mismatch
/// is detected before any device state is touched. The stepping knob
/// (idle_skip) and trace are deliberately excluded — they never change
/// architectural state, and excluding them is what lets a checkpoint taken
/// under one strategy resume under the other.
void save_config_signature(sim::SnapshotWriter& w,
                           const AcceleratorConfig& cfg,
                           std::uint64_t memory_bytes) {
  w.u32(cfg.num_aligners);
  w.u32(cfg.parallel_sections);
  w.i64(cfg.k_max);
  w.u64(cfg.input_fifo_depth);
  w.u64(cfg.output_fifo_depth);
  w.u32(cfg.axi.burst_beats);
  w.u32(cfg.axi.read_latency);
  w.u32(cfg.axi.write_latency);
  w.u32(cfg.timing.compute_batch_ii);
  w.u32(cfg.timing.compute_pipeline);
  w.u32(cfg.timing.extend_fill);
  w.u32(cfg.timing.extend_batch_overhead);
  w.u32(cfg.timing.per_score_overhead);
  w.u32(cfg.timing.init_cycles);
  w.i64(cfg.pen.mismatch);
  w.i64(cfg.pen.gap_open);
  w.i64(cfg.pen.gap_extend);
  w.u32(cfg.max_supported_read_len);
  w.boolean(cfg.ecc);
  w.boolean(cfg.crc);
  w.u64(memory_bytes);
}

[[nodiscard]] bool config_signature_matches(sim::SnapshotReader& r,
                                            const AcceleratorConfig& cfg,
                                            std::uint64_t memory_bytes) {
  bool match = true;
  match &= r.u32() == cfg.num_aligners;
  match &= r.u32() == cfg.parallel_sections;
  match &= r.i64() == cfg.k_max;
  match &= r.u64() == cfg.input_fifo_depth;
  match &= r.u64() == cfg.output_fifo_depth;
  match &= r.u32() == cfg.axi.burst_beats;
  match &= r.u32() == cfg.axi.read_latency;
  match &= r.u32() == cfg.axi.write_latency;
  match &= r.u32() == cfg.timing.compute_batch_ii;
  match &= r.u32() == cfg.timing.compute_pipeline;
  match &= r.u32() == cfg.timing.extend_fill;
  match &= r.u32() == cfg.timing.extend_batch_overhead;
  match &= r.u32() == cfg.timing.per_score_overhead;
  match &= r.u32() == cfg.timing.init_cycles;
  match &= r.i64() == cfg.pen.mismatch;
  match &= r.i64() == cfg.pen.gap_open;
  match &= r.i64() == cfg.pen.gap_extend;
  match &= r.u32() == cfg.max_supported_read_len;
  match &= r.boolean() == cfg.ecc;
  match &= r.boolean() == cfg.crc;
  match &= r.u64() == memory_bytes;
  return match && r.ok();
}

void save_fifo(sim::SnapshotWriter& w,
               const sim::ShowAheadFifo<mem::Beat>& fifo) {
  const std::deque<mem::Beat>& data = fifo.contents();
  w.u64(data.size());
  for (const mem::Beat& beat : data) {
    w.bytes(std::span<const std::uint8_t>(beat.data.data(), mem::kBeatBytes));
  }
  w.u64(fifo.total_pushes());
  w.u64(fifo.total_pops());
  w.u64(fifo.high_water());
}

void restore_fifo(sim::SnapshotReader& r,
                  sim::ShowAheadFifo<mem::Beat>& fifo) {
  const std::uint64_t count = r.u64();
  if (!r.ok()) return;
  if (count > fifo.capacity()) {
    (void)r.fail(sim::SnapshotError::kBadValue);
    return;
  }
  if (count > r.remaining() / mem::kBeatBytes) {
    (void)r.fail(sim::SnapshotError::kTruncated);
    return;
  }
  std::deque<mem::Beat> data;
  for (std::uint64_t i = 0; i < count; ++i) {
    mem::Beat beat;
    r.bytes(std::span<std::uint8_t>(beat.data.data(), mem::kBeatBytes));
    data.push_back(beat);
  }
  const std::uint64_t pushes = r.u64();
  const std::uint64_t pops = r.u64();
  const std::uint64_t high_water = r.u64();
  if (!r.ok()) return;
  fifo.restore_contents(std::move(data), pushes, pops, high_water);
}

}  // namespace

std::vector<std::uint8_t> Accelerator::snapshot() const {
  sim::SnapshotWriter w(kSnapshotMagic, kSnapshotVersion);
  save_config_signature(w, cfg_, memory_.size());

  w.section(kSecScheduler);
  w.u64(scheduler_.now());
  const sim::Scheduler::DispatchStats& stats = scheduler_.dispatch_stats();
  w.u64(stats.ticks);
  w.u64(stats.macro_dispatches);
  w.u64(stats.macro_cycles);
  w.u64(stats.skipped_cycles);

  w.section(kSecRun);
  w.boolean(regs_.backtrace);
  w.u32(regs_.max_read_len);
  w.u64(regs_.in_addr);
  w.u64(regs_.in_size);
  w.u64(regs_.out_addr);
  w.boolean(regs_.int_enable);
  w.u32(regs_.watchdog);
  w.u32(regs_.crc_salt);
  w.boolean(running_);
  w.boolean(int_pending_);
  w.u64(run_start_);
  w.u64(last_run_cycles_);
  for (std::uint32_t i = 0; i < kNumPerfCounters; ++i) {
    w.u64(perf_base_.counter(static_cast<PerfIdx>(i)));
  }
  w.u32(err_status_);
  w.u32(err_count_);
  w.u64(ecc_count_base_);
  w.u64(last_progress_sig_);
  w.u64(last_progress_cycle_);

  w.section(kSecProbe);
  pmu_probe_->save_state(w);
  w.section(kSecInputFifo);
  save_fifo(w, input_fifo_);
  w.section(kSecOutputFifo);
  save_fifo(w, output_fifo_);
  w.section(kSecDma);
  dma_->save_state(w);
  w.section(kSecExtractor);
  extractor_->save_state(w);
  w.section(kSecAligners);
  w.u64(aligners_.size());
  for (const auto& aligner : aligners_) aligner->save_state(w);
  w.section(kSecCollector);
  collector_->save_state(w);
  w.section(kSecMemory);
  memory_.save_state(w);

  // The injector's runtime state (clock + fired flags) rides along so a
  // checkpoint taken mid-fault-campaign resumes with the remaining faults
  // still pending. The schedule itself is wiring, not device state: the
  // restore target must arrive with an equal schedule attached.
  w.section(kSecInjector);
  w.boolean(injector_ != nullptr);
  if (injector_ != nullptr) {
    w.u64(injector_->now());
    w.u32(injector_->schedule_digest());
    const std::vector<std::uint8_t> fired = injector_->fired_flags();
    w.u64(fired.size());
    w.bytes(std::span<const std::uint8_t>(fired.data(), fired.size()));
  }
  return std::move(w).finish(kSnapshotCrcSalt);
}

std::optional<sim::SnapshotError> Accelerator::restore(
    std::span<const std::uint8_t> blob, InjectorRestorePolicy policy) {
  sim::SnapshotReader r(blob);
  if (auto err = r.open(kSnapshotMagic, kSnapshotVersion, kSnapshotCrcSalt)) {
    return err;
  }
  if (!config_signature_matches(r, cfg_, memory_.size())) {
    (void)r.fail(sim::SnapshotError::kConfigMismatch);
    return r.error();
  }
  (void)r.section(kSecScheduler);
  const sim::cycle_t now = r.u64();
  sim::Scheduler::DispatchStats stats;
  stats.ticks = r.u64();
  stats.macro_dispatches = r.u64();
  stats.macro_cycles = r.u64();
  stats.skipped_cycles = r.u64();
  if (!r.ok()) return r.error();
  scheduler_.restore_clock(now, stats);

  (void)r.section(kSecRun);
  regs_.backtrace = r.boolean();
  regs_.max_read_len = r.u32();
  regs_.in_addr = r.u64();
  regs_.in_size = r.u64();
  regs_.out_addr = r.u64();
  regs_.int_enable = r.boolean();
  regs_.watchdog = r.u32();
  regs_.crc_salt = r.u32();
  running_ = r.boolean();
  int_pending_ = r.boolean();
  run_start_ = r.u64();
  last_run_cycles_ = r.u64();
  PerfSnapshot base;
  for (std::uint32_t i = 0; i < kNumPerfCounters; ++i) {
    base.set_counter(static_cast<PerfIdx>(i), r.u64());
  }
  perf_base_ = base;
  err_status_ = r.u32();
  err_count_ = r.u32();
  ecc_count_base_ = r.u64();
  last_progress_sig_ = r.u64();
  last_progress_cycle_ = r.u64();
  if (!r.ok()) return r.error();

  (void)r.section(kSecProbe);
  pmu_probe_->restore_state(r);
  (void)r.section(kSecInputFifo);
  restore_fifo(r, input_fifo_);
  (void)r.section(kSecOutputFifo);
  restore_fifo(r, output_fifo_);
  if (!r.ok()) return r.error();
  (void)r.section(kSecDma);
  dma_->restore_state(r);
  (void)r.section(kSecExtractor);
  extractor_->restore_state(r);
  if (!r.ok()) return r.error();
  (void)r.section(kSecAligners);
  const std::uint64_t aligner_count = r.u64();
  if (!r.ok()) return r.error();
  if (aligner_count != aligners_.size()) {
    (void)r.fail(sim::SnapshotError::kConfigMismatch);
    return r.error();
  }
  for (auto& aligner : aligners_) {
    aligner->restore_state(r);
    if (!r.ok()) return r.error();
  }
  (void)r.section(kSecCollector);
  collector_->restore_state(r);
  if (!r.ok()) return r.error();
  (void)r.section(kSecMemory);
  memory_.restore_state(r);
  if (!r.ok()) return r.error();

  (void)r.section(kSecInjector);
  const bool had_injector = r.boolean();
  if (!r.ok()) return r.error();
  if (had_injector) {
    const sim::cycle_t injector_now = r.u64();
    const std::uint32_t schedule_digest = r.u32();
    const std::uint64_t fired_count = r.u64();
    if (!r.ok() || fired_count > r.remaining()) {
      (void)r.fail(sim::SnapshotError::kTruncated);
      return r.error();
    }
    std::vector<std::uint8_t> fired(fired_count);
    r.bytes(std::span<std::uint8_t>(fired.data(), fired.size()));
    if (!r.ok()) return r.error();
    if (policy == InjectorRestorePolicy::kStrict) {
      // A faulted checkpoint only replays faithfully with the identical
      // fault schedule attached — anything else would run a different
      // campaign and diverge silently. The digest catches same-length
      // schedules with different events, not just size skew.
      if (injector_ == nullptr ||
          injector_->events().size() != fired_count ||
          injector_->schedule_digest() != schedule_digest) {
        (void)r.fail(sim::SnapshotError::kConfigMismatch);
        return r.error();
      }
      injector_->restore_runtime(injector_now, fired);
    }
    // kKeepAttached: the blob's injector runtime is consumed but not
    // applied; the attached injector (if any) keeps its own fired state
    // and re-syncs its clock on the next step().
  }
  // A blob saved without an injector restores regardless of whether one is
  // attached here: the injector's own clock then lags until the next
  // step(), which re-syncs it.

  if (!r.at_end()) (void)r.fail(sim::SnapshotError::kBadValue);
  return r.error();
}

}  // namespace wfasic::hw
