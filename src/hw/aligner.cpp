#include "hw/aligner.hpp"

#include <algorithm>
#include <array>

#include "hw/bitpack.hpp"
#include "hw/extend_unit.hpp"
#include "hw/regs.hpp"

namespace wfasic::hw {

Aligner::Aligner(std::string name, const AcceleratorConfig& cfg)
    : sim::Component(std::move(name)),
      cfg_(cfg),
      window_(std::max(cfg.pen.mismatch, cfg.pen.open_total()) + 1) {
  WFASIC_REQUIRE(cfg_.valid(), "Aligner: invalid configuration");
  // A compute batch releases all its backtrace transactions at once; they
  // must fit the Collector-facing queue or the Aligner could deadlock.
  const std::size_t txns_per_block =
      (packed_5bit_bytes(cfg_.parallel_sections) + kBtPayloadBytes - 1) /
      kBtPayloadBytes;
  WFASIC_REQUIRE(txns_per_block <= kBtQueueCapacity,
                 "Aligner: parallel_sections too large for the backtrace "
                 "queue depth");
  ring_.resize(static_cast<std::size_t>(window_));
}

void Aligner::begin_load() {
  WFASIC_REQUIRE(state_ == State::kIdle, "Aligner::begin_load while busy");
  state_ = State::kLoading;
}

void Aligner::clear_ring() {
  // Buffers stay allocated: make_wavefront re-sizes a slot's storage when
  // its score is claimed, and every cell is written before it is read, so
  // stale contents are never observable.
  for (Slot& slot : ring_) slot.score = -1;
}

void Aligner::abort() {
  state_ = State::kIdle;
  batches_.clear();
  bt_queue_.clear();
  nbt_queue_.clear();
  countdown_ = 0;
  init_countdown_ = 0;
  done_ = false;
  ecc_poisoned_ = false;
  geom_.reset();
  current_ = nullptr;
  clear_ring();
}

void Aligner::inject_ram_flip(std::uint64_t row, unsigned bit,
                              bool double_bit) {
  if (state_ != State::kRun || done_ || current_ == nullptr) return;
  if (cfg_.ecc) {
    if (double_bit) {
      // SECDED detects but cannot correct: poison the alignment — the
      // next tick fails it cleanly instead of consuming bad offsets.
      error_flags_ |= kErrEccUnc;
      ecc_poisoned_ = true;
    } else {
      ++ecc_corrected_;  // scrubbed in place; the datapath never sees it
    }
    return;
  }
  // Unprotected RAM: the upset lands in the live M/I/D offsets and
  // propagates silently — the escape the integrity campaigns measure.
  const std::size_t width = current_->width();
  if (width == 0) return;
  const auto idx = static_cast<std::size_t>(row % width);
  offset_t* const rows[3] = {current_->row_m(), current_->row_i(),
                             current_->row_d()};
  const unsigned word = (bit / 32) % 3;
  const unsigned b = bit % 32;
  const auto flip = [&](unsigned which) {
    rows[word][idx] = static_cast<offset_t>(
        static_cast<std::uint32_t>(rows[word][idx]) ^ (1u << which));
  };
  flip(b);
  if (double_bit) flip((b + 1) % 32);
}

void Aligner::finish_load(AlignJob job, sim::cycle_t now) {
  WFASIC_REQUIRE(state_ == State::kLoading,
                 "Aligner::finish_load without begin_load");
  job_ = std::move(job);
  start_cycle_ = now;
  state_ = State::kInit;
  init_countdown_ = cfg_.timing.init_cycles;
}

core::Wavefront* Aligner::wavefront(score_t s) {
  if (s < 0) return nullptr;
  Slot& slot = ring_[static_cast<std::size_t>(s % window_)];
  return slot.score == s ? slot.wf.get() : nullptr;
}

core::Wavefront& Aligner::make_wavefront(score_t s, diag_t lo, diag_t hi) {
  Slot& slot = ring_[static_cast<std::size_t>(s % window_)];
  slot.score = s;
  if (slot.wf == nullptr) {
    slot.wf = std::make_unique<core::Wavefront>(lo, hi);
  } else {
    slot.wf->reset_unfilled(lo, hi);
  }
  return *slot.wf;
}

void Aligner::start_alignment() {
  n_ = static_cast<offset_t>(job_.a.size());
  m_len_ = static_cast<offset_t>(job_.b.size());
  k_align_ = m_len_ - n_;
  s_ = 0;
  txn_counter_ = 0;
  done_ = false;
  batches_.clear();
  clear_ring();

  if (job_.crc_error) {
    // The descriptor failed its footer CRC: nothing in it can be trusted.
    error_flags_ |= kErrCrc;
    finish_alignment(false, 0, 0);
    return;
  }
  if (job_.unsupported) {
    error_flags_ |= kErrUnsupported;
    finish_alignment(false, 0, 0);
    return;
  }
  // A band that cannot contain the final diagonal can never succeed; the
  // Aligner bails out like a score overflow would.
  if (k_align_ > cfg_.k_max || k_align_ < -cfg_.k_max) {
    finish_alignment(false, 0, 0);
    return;
  }

  geom_.emplace(n_, m_len_, cfg_.pen, cfg_.k_max);
  core::Wavefront& wf0 = make_wavefront(0, 0, 0);
  wf0.set_m(0, 0);
  wf0.set_i(0, kOffsetNull);
  wf0.set_d(0, kOffsetNull);
  current_ = &wf0;
  state_ = State::kRun;
  step_score();
}

Aligner::ScoreStep Aligner::advance_score(bool codes) {
  const AlignerTiming& t = cfg_.timing;
  const unsigned P = cfg_.parallel_sections;
  ScoreStep step;

  // ---- extend(s): advance every valid M cell of the current wavefront
  // through the cycle-accurate Extend sub-module (Figure 7) in one fused
  // row pass (ExtendUnit::extend_row). Pipeline fills overlap across
  // consecutive batches, so the phase charges extend_fill once and
  // per-batch only the comparator blocks.
  if (current_ != nullptr) {
    ++wavefront_steps_;
    const ExtendUnit unit(job_.a, job_.b);
    const ExtendUnit::RowResult ext =
        unit.extend_row(current_->row_m(), current_->lo(), current_->width(),
                        P, t.extend_fill, t.extend_batch_overhead);
    extend_invocations_ += ext.invocations;
    extend_matched_bases_ += ext.matched;
    step.extend = ext.cycles;
    phase_cycles_.extend += ext.cycles;

    // ---- end-of-alignment check (after extension, §2.3).
    if (current_->m(k_align_) == m_len_) {
      conclude(true, s_);
      step.k_reached = k_align_;
      return step;
    }
  }

  // ---- score overflow check (Eq. 6).
  if (s_ + 1 > cfg_.score_max()) {
    conclude(false, 0);
    step.k_reached = current_ != nullptr ? current_->hi() : 0;
    return step;
  }

  // ---- compute(s+1): the shared row kernel over the whole wavefront; the
  // P-block batch split is only a matter of timing and of the BT stream.
  ++s_;
  const WfBounds& bounds = geom_->bounds(s_);
  if (!bounds.present()) {
    current_ = nullptr;
    step.overhead = 1;  // score-counter tick only
    phase_cycles_.overhead += step.overhead;
    return step;
  }
  // The row kernel writes every M/I/D cell of [bounds.lo, bounds.hi]
  // before the wavefront is read.
  core::Wavefront& out = make_wavefront(s_, bounds.lo, bounds.hi);
  step.width = static_cast<unsigned>(out.width());
  if (codes) codes_.resize(step.width);
  core::compute_wf_row(
      {core::row_view(wavefront(s_ - cfg_.pen.mismatch)),
       core::row_view(wavefront(s_ - cfg_.pen.open_total())),
       core::row_view(wavefront(s_ - cfg_.pen.gap_extend))},
      bounds.lo, bounds.hi, n_, m_len_,
      {out.row_m(), out.row_i(), out.row_d(),
       codes ? codes_.data() : nullptr});
  const unsigned blocks = (step.width + P - 1) / P;
  step.compute = blocks * t.compute_batch_ii + t.compute_pipeline;
  step.overhead = t.per_score_overhead;
  phase_cycles_.compute += step.compute;
  phase_cycles_.overhead += step.overhead;
  current_ = &out;
  return step;
}

void Aligner::step_score() {
  const AlignerTiming& t = cfg_.timing;
  const unsigned P = cfg_.parallel_sections;
  const ScoreStep step = advance_score(/*codes=*/bt_enabled_);
  if (step.extend > 0) batches_.push_back(Batch{step.extend, {}});
  if (done_) {
    queue_result(step.k_reached);
    return;
  }
  // One compute batch per P-block; in BT mode each releases its block's
  // origin codes, packed 5 bits a cell over the full P-cell block (a
  // partial block's missing cells pack as 0).
  for (unsigned base = 0; base < step.width; base += P) {
    Batch batch;
    batch.cycles = t.compute_batch_ii + (base == 0 ? t.compute_pipeline : 0);
    if (bt_enabled_) {
      std::array<std::uint8_t, kBtQueueCapacity * kBtPayloadBytes> payload{};
      pack_5bit_into(std::span<const std::uint8_t>(codes_).subspan(
                         base, std::min(P, step.width - base)),
                     payload);
      for (std::size_t pos = 0; pos < packed_5bit_bytes(P);
           pos += kBtPayloadBytes) {
        BtTransaction txn;
        std::copy_n(payload.begin() + static_cast<std::ptrdiff_t>(pos),
                    kBtPayloadBytes, txn.data.begin());
        txn.counter = txn_counter_++;
        txn.id = job_.id & kBtIdMask;
        txn.last = false;
        batch.txns.push_back(txn);
      }
    }
    batches_.push_back(std::move(batch));
  }
  batches_.push_back(Batch{step.overhead, {}});
}

unsigned Aligner::step_score_fused() {
  const ScoreStep step = advance_score(/*codes=*/false);
  return step.extend + step.compute + step.overhead;
}

void Aligner::set_schedule(sim::cycle_t remaining) {
  batches_.clear();
  countdown_ = 0;
  if (remaining > 0) {
    batches_.push_back(Batch{static_cast<unsigned>(remaining), {}});
  }
}

sim::cycle_t Aligner::macro_step(sim::cycle_t /*now*/, sim::cycle_t budget) {
  if (bt_enabled_ || state_ != State::kRun || ecc_poisoned_) return 0;
  sim::cycle_t used = 0;

  // Burn whatever timed schedule is pending, stopping one cycle short of
  // the release tick when the alignment is done. NBT schedules are
  // txn-free by construction; decline rather than assume if not.
  if (!batches_.empty()) {
    sim::cycle_t remaining = 0;
    for (const Batch& b : batches_) {
      if (!b.txns.empty()) return 0;
      remaining += b.cycles;
    }
    remaining -= countdown_;
    const sim::cycle_t quiet = done_ ? remaining - 1 : remaining;
    const sim::cycle_t take = std::min(quiet, budget);
    busy_cycles_ += take;
    used = take;
    set_schedule(remaining - take);
    if (done_ || used >= budget) return used;
  }

  // Steady state: empty schedule, alignment not done — run the wavefront
  // score loop fused. Each iteration costs one dispatch cycle (the tick
  // that would have called step_score) plus its schedule cycles, all
  // accounted arithmetically.
  while (used < budget) {
    const unsigned sched = step_score_fused();
    ++busy_cycles_;
    ++used;
    const sim::cycle_t take =
        std::min<sim::cycle_t>(sched, budget - used);
    busy_cycles_ += take;
    used += take;
    const sim::cycle_t leftover = sched - take;
    if (done_) {
      // Remainder plus the release cycle: quiet_for() reports `leftover`
      // and the externally-visible release tick runs per cycle.
      set_schedule(leftover + 1);
      return used;
    }
    if (leftover > 0) {
      // Budget stop mid-iteration: the merged txn-free remainder is
      // observationally identical to the unburned batch schedule.
      set_schedule(leftover);
      return used;
    }
  }
  return used;
}

void Aligner::queue_result(diag_t k_reached) {
  Batch batch;
  batch.cycles = 1;
  if (bt_enabled_) {
    BtTransaction txn;
    txn.data = pack_bt_score_record(BtScoreRecord{
        pending_record_.success, static_cast<std::int16_t>(k_reached),
        static_cast<std::uint16_t>(
            std::min<score_t>(pending_record_.score, kNbtScoreMax))});
    txn.counter = txn_counter_++;
    txn.id = job_.id & kBtIdMask;
    txn.last = true;
    batch.txns.push_back(txn);
  }
  // NBT results bypass the batch schedule: queueing the 4-byte word takes
  // the final cycle of the schedule's last batch.
  batches_.push_back(std::move(batch));
}

void Aligner::conclude(bool success, score_t score) {
  done_ = true;
  pending_record_ = PairRecord{job_.id, success, score, 0};
}

void Aligner::finish_alignment(bool success, score_t score,
                               diag_t k_reached) {
  conclude(success, score);
  state_ = State::kRun;  // drain remaining batches, then idle
  queue_result(k_reached);
}

sim::cycle_t Aligner::quiet_for(sim::cycle_t /*now*/) const {
  switch (state_) {
    case State::kIdle:
    case State::kLoading:
      return kQuietForever;  // loaded by the Extractor, not by a tick
    case State::kInit:
      return init_countdown_;  // pure countdown; boundary starts alignment
    case State::kRun:
      break;
  }
  if (ecc_poisoned_) return 0;  // the poison is handled this tick
  if (batches_.empty()) return 0;  // step_score() runs this tick
  // Walk the schedule: ticks that only raise a countdown are quiet. A
  // batch releasing transactions (or the final batch of a finished
  // alignment) makes its completion tick a boundary; a txn-free batch's
  // completion tick only pops the deque, which nothing observes.
  sim::cycle_t quiet = 0;
  unsigned cd = countdown_;
  for (std::size_t idx = 0; idx < batches_.size(); ++idx) {
    const Batch& batch = batches_[idx];
    if (batch.cycles <= cd) return quiet;  // stalled txn retry every tick
    const sim::cycle_t remaining = batch.cycles - cd;
    cd = 0;
    const bool last = idx + 1 == batches_.size();
    if (!batch.txns.empty() || (last && done_)) {
      return quiet + remaining - 1;
    }
    quiet += remaining;
    if (last) return quiet;  // next tick after the pop is step_score()
  }
  return quiet;
}

void Aligner::skip_quiet(sim::cycle_t n) {
  if (n == 0) return;
  switch (state_) {
    case State::kIdle:
    case State::kLoading:
      return;
    case State::kInit:
      busy_cycles_ += n;
      init_countdown_ -= static_cast<unsigned>(n);
      return;
    case State::kRun:
      break;
  }
  busy_cycles_ += n;
  while (n > 0) {
    WFASIC_ASSERT(!batches_.empty(), "Aligner::skip_quiet past schedule");
    Batch& front = batches_.front();
    const sim::cycle_t remaining = front.cycles - countdown_;
    if (n < remaining) {
      countdown_ += static_cast<unsigned>(n);
      return;
    }
    WFASIC_ASSERT(front.txns.empty(),
                  "Aligner::skip_quiet through a transaction batch");
    n -= remaining;
    countdown_ = 0;
    batches_.pop_front();
  }
}

void Aligner::tick(sim::cycle_t now) {
  switch (state_) {
    case State::kIdle:
    case State::kLoading:
      return;
    case State::kInit:
      ++busy_cycles_;
      if (init_countdown_ > 0) {
        --init_countdown_;
        return;
      }
      start_alignment();
      return;
    case State::kRun:
      break;
  }
  ++busy_cycles_;

  if (ecc_poisoned_) {
    // An uncorrectable wavefront-RAM upset: the remaining schedule would
    // consume poisoned offsets, so drop it and fail the alignment. Any
    // transactions already released leave a counter gap the tolerant
    // parser detects and drops.
    if (tracing()) {
      trace()->instant(trace_track(), "ecc-uncorrectable", "error", now,
                       job_.id);
    }
    ecc_poisoned_ = false;
    batches_.clear();
    countdown_ = 0;
    finish_alignment(false, 0, 0);
  }

  if (batches_.empty()) {
    WFASIC_ASSERT(!done_, "Aligner: done with no final batch");
    step_score();
    return;
  }

  Batch& front = batches_.front();
  ++countdown_;
  if (countdown_ < front.cycles) return;
  // Batch complete: release its transactions (respecting the queue bound —
  // this is where Output-FIFO backpressure stalls the Aligner).
  if (!front.txns.empty()) {
    if (bt_queue_.size() + front.txns.size() > kBtQueueCapacity) {
      ++output_stall_cycles_;
      return;
    }
    for (BtTransaction& txn : front.txns) bt_queue_.push_back(txn);
    front.txns.clear();
  }
  countdown_ = 0;
  batches_.pop_front();

  if (done_ && batches_.empty()) {
    if (!bt_enabled_) {
      nbt_queue_.push_back(
          NbtResult{pending_record_.success,
                    static_cast<std::uint32_t>(std::min<score_t>(
                        std::max<score_t>(pending_record_.score, 0),
                        kNbtScoreMax)),
                    job_.id});
    }
    pending_record_.align_cycles = now - start_cycle_ + 1;
    if (tracing()) {
      trace()->span(trace_track(),
                    pending_record_.success ? "align" : "align-failed",
                    "pipeline", start_cycle_, now, job_.id);
    }
    records_.push_back(pending_record_);
    state_ = State::kIdle;
    geom_.reset();
    current_ = nullptr;
  }
}

// --- snapshot (sim/snapshot.hpp) --------------------------------------------

namespace {

void save_packed_seq(sim::SnapshotWriter& w, const PackedSeq& seq) {
  w.u64(seq.size());
  for (const std::uint32_t word : seq.words()) w.u32(word);
}

PackedSeq restore_packed_seq(sim::SnapshotReader& r) {
  const std::uint64_t length = r.u64();
  const std::uint64_t words =
      (length + PackedSeq::kBasesPerWord - 1) / PackedSeq::kBasesPerWord;
  if (!r.ok() || words > r.remaining() / 4) {
    (void)r.fail(sim::SnapshotError::kTruncated);
    return {};
  }
  std::vector<std::uint32_t> data;
  data.reserve(words);
  for (std::uint64_t i = 0; i < words; ++i) data.push_back(r.u32());
  return PackedSeq::from_words(std::move(data), length);
}

void save_txn(sim::SnapshotWriter& w, const BtTransaction& txn) {
  w.bytes(std::span<const std::uint8_t>(txn.data.data(), txn.data.size()));
  w.u32(txn.counter);
  w.u32(txn.id);
  w.boolean(txn.last);
}

BtTransaction restore_txn(sim::SnapshotReader& r) {
  BtTransaction txn;
  r.bytes(std::span<std::uint8_t>(txn.data.data(), txn.data.size()));
  txn.counter = r.u32();
  txn.id = r.u32();
  txn.last = r.boolean();
  return txn;
}

void save_pair_record(sim::SnapshotWriter& w,
                      const Aligner::PairRecord& rec) {
  w.u32(rec.id);
  w.boolean(rec.success);
  w.i64(rec.score);
  w.u64(rec.align_cycles);
}

Aligner::PairRecord restore_pair_record(sim::SnapshotReader& r) {
  Aligner::PairRecord rec;
  rec.id = r.u32();
  rec.success = r.boolean();
  rec.score = static_cast<score_t>(r.i64());
  rec.align_cycles = r.u64();
  return rec;
}

}  // namespace

void Aligner::save_state(sim::SnapshotWriter& w) const {
  w.boolean(bt_enabled_);
  w.u8(static_cast<std::uint8_t>(state_));
  w.u32(job_.id);
  w.boolean(job_.unsupported);
  w.boolean(job_.crc_error);
  save_packed_seq(w, job_.a);
  save_packed_seq(w, job_.b);
  w.i64(n_);
  w.i64(m_len_);
  w.i64(k_align_);
  w.boolean(geom_.has_value());
  w.i64(s_);
  w.u32(txn_counter_);
  w.u64(start_cycle_);
  w.boolean(done_);
  save_pair_record(w, pending_record_);

  // Wavefront ring: live slots (score >= 0) carry bounds and full M/I/D
  // rows; dead slots carry only the sentinel — their buffer allocation
  // state is unobservable (make_wavefront resets before any reuse).
  for (const Slot& slot : ring_) {
    w.i64(slot.score);
    if (slot.score < 0) continue;
    const core::Wavefront& wf = *slot.wf;
    w.i64(wf.lo());
    w.i64(wf.hi());
    const std::size_t width = wf.width();
    const offset_t* const rows[3] = {wf.row_m(), wf.row_i(), wf.row_d()};
    for (const offset_t* row : rows) {
      for (std::size_t j = 0; j < width; ++j) {
        w.u32(static_cast<std::uint32_t>(row[j]));
      }
    }
  }
  std::uint64_t current = ~std::uint64_t{0};
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[i].wf.get() == current_ && current_ != nullptr) current = i;
  }
  w.u64(current);

  w.u64(batches_.size());
  for (const Batch& batch : batches_) {
    w.u32(batch.cycles);
    w.u64(batch.txns.size());
    for (const BtTransaction& txn : batch.txns) save_txn(w, txn);
  }
  w.u32(countdown_);
  w.u32(init_countdown_);
  w.u64(bt_queue_.size());
  for (const BtTransaction& txn : bt_queue_) save_txn(w, txn);
  w.u64(nbt_queue_.size());
  for (const NbtResult& res : nbt_queue_) {
    w.boolean(res.success);
    w.u32(res.score);
    w.u32(res.id);
  }
  w.u64(records_.size());
  for (const PairRecord& rec : records_) save_pair_record(w, rec);
  w.u64(output_stall_cycles_);
  w.u64(busy_cycles_);
  w.u64(wavefront_steps_);
  w.u64(extend_invocations_);
  w.u64(extend_matched_bases_);
  w.u64(phase_cycles_.extend);
  w.u64(phase_cycles_.compute);
  w.u64(phase_cycles_.overhead);
  w.u32(error_flags_);
  w.u64(ecc_corrected_);
  w.boolean(ecc_poisoned_);
}

void Aligner::restore_state(sim::SnapshotReader& r) {
  bt_enabled_ = r.boolean();
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(State::kRun)) {
    (void)r.fail(sim::SnapshotError::kBadValue);
    return;
  }
  state_ = static_cast<State>(state);
  job_.id = r.u32();
  job_.unsupported = r.boolean();
  job_.crc_error = r.boolean();
  job_.a = restore_packed_seq(r);
  job_.b = restore_packed_seq(r);
  n_ = static_cast<offset_t>(r.i64());
  m_len_ = static_cast<offset_t>(r.i64());
  k_align_ = static_cast<diag_t>(r.i64());
  const bool has_geom = r.boolean();
  s_ = static_cast<score_t>(r.i64());
  txn_counter_ = r.u32();
  start_cycle_ = r.u64();
  done_ = r.boolean();
  pending_record_ = restore_pair_record(r);
  if (!r.ok()) return;
  // The geometry is a pure function of (n, m, penalties, k_max) —
  // recomputed, not serialized.
  if (has_geom) {
    geom_.emplace(n_, m_len_, cfg_.pen, cfg_.k_max);
  } else {
    geom_.reset();
  }

  for (Slot& slot : ring_) {
    slot.score = static_cast<score_t>(r.i64());
    if (slot.score < 0 || !r.ok()) continue;
    const auto lo = static_cast<diag_t>(r.i64());
    const auto hi = static_cast<diag_t>(r.i64());
    if (lo > hi || hi - lo >= static_cast<diag_t>(r.remaining() / 12)) {
      (void)r.fail(sim::SnapshotError::kTruncated);
      return;
    }
    if (slot.wf == nullptr) {
      slot.wf = std::make_unique<core::Wavefront>(lo, hi);
    } else {
      slot.wf->reset_unfilled(lo, hi);
    }
    const std::size_t width = slot.wf->width();
    offset_t* const rows[3] = {slot.wf->row_m(), slot.wf->row_i(),
                               slot.wf->row_d()};
    for (offset_t* row : rows) {
      for (std::size_t j = 0; j < width; ++j) {
        row[j] = static_cast<offset_t>(r.u32());
      }
    }
  }
  const std::uint64_t current = r.u64();
  if (current == ~std::uint64_t{0}) {
    current_ = nullptr;
  } else if (current < ring_.size() && ring_[current].wf != nullptr) {
    current_ = ring_[current].wf.get();
  } else {
    (void)r.fail(sim::SnapshotError::kBadValue);
    return;
  }

  const std::uint64_t batch_count = r.u64();
  if (!r.ok() || batch_count > r.remaining() / 12) {
    (void)r.fail(sim::SnapshotError::kTruncated);
    return;
  }
  batches_.clear();
  for (std::uint64_t i = 0; i < batch_count && r.ok(); ++i) {
    Batch batch;
    batch.cycles = r.u32();
    const std::uint64_t txn_count = r.u64();
    if (!r.ok() || txn_count > r.remaining() / 19) {
      (void)r.fail(sim::SnapshotError::kTruncated);
      return;
    }
    for (std::uint64_t t = 0; t < txn_count; ++t) {
      batch.txns.push_back(restore_txn(r));
    }
    batches_.push_back(std::move(batch));
  }
  countdown_ = r.u32();
  init_countdown_ = r.u32();
  const std::uint64_t bt_count = r.u64();
  if (!r.ok() || bt_count > r.remaining() / 19) {
    (void)r.fail(sim::SnapshotError::kTruncated);
    return;
  }
  bt_queue_.clear();
  for (std::uint64_t i = 0; i < bt_count; ++i) {
    bt_queue_.push_back(restore_txn(r));
  }
  const std::uint64_t nbt_count = r.u64();
  if (!r.ok() || nbt_count > r.remaining() / 9) {
    (void)r.fail(sim::SnapshotError::kTruncated);
    return;
  }
  nbt_queue_.clear();
  for (std::uint64_t i = 0; i < nbt_count; ++i) {
    NbtResult res;
    res.success = r.boolean();
    res.score = r.u32();
    res.id = r.u32();
    nbt_queue_.push_back(res);
  }
  const std::uint64_t record_count = r.u64();
  if (!r.ok() || record_count > r.remaining() / 21) {
    (void)r.fail(sim::SnapshotError::kTruncated);
    return;
  }
  records_.clear();
  for (std::uint64_t i = 0; i < record_count; ++i) {
    records_.push_back(restore_pair_record(r));
  }
  output_stall_cycles_ = r.u64();
  busy_cycles_ = r.u64();
  wavefront_steps_ = r.u64();
  extend_invocations_ = r.u64();
  extend_matched_bases_ = r.u64();
  phase_cycles_.extend = r.u64();
  phase_cycles_.compute = r.u64();
  phase_cycles_.overhead = r.u64();
  error_flags_ = r.u32();
  ecc_corrected_ = r.u64();
  ecc_poisoned_ = r.boolean();
}

}  // namespace wfasic::hw
