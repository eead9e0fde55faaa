// The accelerator's DMA engine (Figure 5): streams the input set from main
// memory into the Input FIFO and drains the Output FIFO back to memory,
// sharing a single AXI-Full port (one 16-byte beat per cycle, writes have
// priority so result/backtrace data is never backed up into the Aligners).
//
// Error path: an attached fault injector can corrupt, drop, duplicate, or
// error-terminate read beats. An AXI SLVERR/DECERR latches bus_error() and
// kills the read stream; the Accelerator turns that into the dma-error
// interrupt (hw/regs.hpp) instead of letting the pipeline starve.
#pragma once

#include <cstdint>

#include "mem/axi.hpp"
#include "mem/main_memory.hpp"
#include "sim/fault_injector.hpp"
#include "sim/fifo.hpp"
#include "sim/scheduler.hpp"
#include "sim/snapshot.hpp"

namespace wfasic::mem {

class Dma final : public sim::Component {
 public:
  Dma(MainMemory& memory, sim::ShowAheadFifo<Beat>& input_fifo,
      sim::ShowAheadFifo<Beat>& output_fifo, AxiTiming timing)
      : sim::Component("dma"),
        memory_(memory),
        input_fifo_(input_fifo),
        output_fifo_(output_fifo),
        timing_(timing) {}

  /// Arms the read stream: `bytes` must be a whole number of beats.
  /// Clears any latched bus error from the previous run.
  void configure_read(std::uint64_t addr, std::uint64_t bytes) {
    WFASIC_REQUIRE(bytes % kBeatBytes == 0,
                   "Dma::configure_read: size must be beat-aligned");
    read_ptr_ = addr;
    read_beats_left_ = bytes / kBeatBytes;
    burst_beats_done_ = 0;
    latency_left_ = read_beats_left_ > 0 ? timing_.read_latency : 0;
    bus_error_ = false;
    ecc_fault_ = false;
    duplicate_pending_ = false;
    // Drain any uncorrectable sticky flag a host-side read left behind so
    // it cannot mis-attribute to this stream's first beat.
    (void)memory_.take_uncorrectable();
  }

  /// Sets the base address results are written to.
  void configure_write(std::uint64_t addr) { write_ptr_ = addr; }

  /// Abandons the in-flight read stream (hardware soft reset / error
  /// abort). The latched bus error, if any, survives until the next
  /// configure_read so the CPU can still read the cause.
  void abort() {
    read_beats_left_ = 0;
    latency_left_ = 0;
    burst_beats_done_ = 0;
    duplicate_pending_ = false;
    read_stream_started_ = false;
  }

  /// Fault-injection hook (nullptr: fault-free operation).
  void set_fault_injector(sim::FaultInjector* injector) {
    injector_ = injector;
  }

  [[nodiscard]] bool read_done() const { return read_beats_left_ == 0; }
  [[nodiscard]] bool bus_error() const { return bus_error_; }
  /// An uncorrectable ECC granule was hit by a read beat: the stream is
  /// dead (the data cannot be trusted) and the Accelerator surfaces
  /// kErrEccUnc.
  [[nodiscard]] bool ecc_fault() const { return ecc_fault_; }
  [[nodiscard]] std::uint64_t write_ptr() const { return write_ptr_; }

  [[nodiscard]] std::uint64_t beats_read() const { return beats_read_; }
  [[nodiscard]] std::uint64_t beats_written() const { return beats_written_; }
  [[nodiscard]] std::uint64_t read_stalls_fifo_full() const {
    return read_stalls_fifo_full_;
  }
  [[nodiscard]] std::uint64_t read_stalls_port_busy() const {
    return read_stalls_port_busy_;
  }

  /// Snapshot contract (sim/snapshot.hpp). The injector pointer is wiring
  /// (re-attached by the Accelerator); everything else round-trips.
  void save_state(sim::SnapshotWriter& w) const {
    w.u64(read_ptr_);
    w.u64(read_beats_left_);
    w.u32(burst_beats_done_);
    w.u32(latency_left_);
    w.u64(write_ptr_);
    w.boolean(bus_error_);
    w.boolean(ecc_fault_);
    w.boolean(duplicate_pending_);
    w.bytes(std::span<const std::uint8_t>(duplicate_beat_.data.data(),
                                          kBeatBytes));
    w.boolean(read_stream_started_);
    w.u64(read_stream_start_);
    w.u64(beats_read_);
    w.u64(beats_written_);
    w.u64(read_stalls_fifo_full_);
    w.u64(read_stalls_port_busy_);
  }

  void restore_state(sim::SnapshotReader& r) {
    read_ptr_ = r.u64();
    read_beats_left_ = r.u64();
    burst_beats_done_ = r.u32();
    latency_left_ = r.u32();
    write_ptr_ = r.u64();
    bus_error_ = r.boolean();
    ecc_fault_ = r.boolean();
    duplicate_pending_ = r.boolean();
    r.bytes(std::span<std::uint8_t>(duplicate_beat_.data.data(), kBeatBytes));
    read_stream_started_ = r.boolean();
    read_stream_start_ = r.u64();
    beats_read_ = r.u64();
    beats_written_ = r.u64();
    read_stalls_fifo_full_ = r.u64();
    read_stalls_port_busy_ = r.u64();
  }

  // Quiescence contract (see sim::Component): the DMA is quiet while it
  // burns burst latency (a pure countdown) or has nothing to move — the
  // only other per-cycle effects are the stall counters, which skip_quiet
  // bulk-applies. Any cycle that touches a FIFO or memory reports 0.
  // The kQuietForever reports stay valid until another component acts:
  // "both streams idle" ends only when a register write launches a run
  // (outside any tick), and "input FIFO full" ends only when the
  // Extractor pops a beat.
  [[nodiscard]] sim::cycle_t quiet_for(sim::cycle_t /*now*/) const override {
    if (!output_fifo_.empty()) return 0;  // a write beat moves this cycle
    if (read_beats_left_ == 0) return kQuietForever;  // both streams idle
    if (latency_left_ > 0) return latency_left_;
    if (input_fifo_.full()) return kQuietForever;  // stall until a pop
    return 0;  // a read beat (or duplicate) is ready to issue
  }

  void skip_quiet(sim::cycle_t n) override {
    if (!output_fifo_.empty() || read_beats_left_ == 0) return;
    if (latency_left_ > 0) {
      latency_left_ -= static_cast<unsigned>(n);
      return;
    }
    if (input_fifo_.full()) read_stalls_fifo_full_ += n;
  }

  void tick(sim::cycle_t now) override {
    (void)now;  // only read by trace emission
    bool port_used = false;

    // Write side first: posted writes drain the Output FIFO at one beat per
    // cycle so backtrace traffic never deadlocks the Aligners.
    if (!output_fifo_.empty()) {
      Beat beat = output_fifo_.pop();
      sim::DmaBeatFault wfault;
      if (injector_ != nullptr) {
        wfault = injector_->dma_write_beat_fault(beats_written_);
      }
      if (wfault.corrupt_mask != 0) {
        beat.data[wfault.corrupt_byte] ^= wfault.corrupt_mask;
      }
      if (!wfault.drop) {
        // A dropped beat leaves the previous contents of this output slot
        // in place; the stream pointer still advances (the bus lost the
        // beat, the engine did not).
        memory_.write(write_ptr_, std::span<const std::uint8_t>(
                                      beat.data.data(), kBeatBytes));
      }
      write_ptr_ += kBeatBytes;
      ++beats_written_;
      port_used = true;
    }

    // Read side: the burst latency counter runs regardless of port
    // arbitration (the memory controller pipelines the request), but the
    // data beat itself needs the shared port and space in the Input FIFO.
    if (read_beats_left_ == 0) return;
    if (latency_left_ > 0) {
      --latency_left_;
      return;
    }
    if (port_used) {
      ++read_stalls_port_busy_;
      return;
    }
    if (input_fifo_.full()) {
      ++read_stalls_fifo_full_;
      return;
    }
    if (duplicate_pending_) {
      // Second delivery of a duplicated beat: re-send the previous data
      // without advancing the stream.
      input_fifo_.push(duplicate_beat_);
      duplicate_pending_ = false;
      return;
    }
    sim::DmaBeatFault fault;
    if (injector_ != nullptr) {
      fault = injector_->dma_read_beat_fault(beats_read_);
    }
    if (fault.bus_error) {
      // SLVERR/DECERR: the transfer is dead; latch the error and stop
      // issuing beats. The Accelerator surfaces this via kRegErrStatus.
      bus_error_ = true;
      read_beats_left_ = 0;
      read_stream_started_ = false;
      if (tracing()) {
        trace()->instant(trace_track(), "dma-bus-error", "error", now);
      }
      return;
    }
    Beat beat;
    memory_.read(read_ptr_,
                 std::span<std::uint8_t>(beat.data.data(), kBeatBytes));
    if (memory_.ecc_enabled() && memory_.take_uncorrectable()) {
      // The granule under this beat is unrecoverably corrupt: poisoning
      // the response and killing the stream models the controller's
      // uncorrectable-error slave response.
      ecc_fault_ = true;
      read_beats_left_ = 0;
      read_stream_started_ = false;
      if (tracing()) {
        trace()->instant(trace_track(), "dma-ecc-uncorrectable", "error",
                         now);
      }
      return;
    }
    if (!read_stream_started_) {
      read_stream_started_ = true;
      read_stream_start_ = now;
    }
    if (fault.corrupt_mask != 0) {
      beat.data[fault.corrupt_byte] ^= fault.corrupt_mask;
    }
    if (!fault.drop) {
      input_fifo_.push(beat);
      if (fault.duplicate) {
        duplicate_pending_ = true;
        duplicate_beat_ = beat;
      }
    }
    read_ptr_ += kBeatBytes;
    --read_beats_left_;
    ++beats_read_;
    if (read_beats_left_ == 0) {
      read_stream_started_ = false;
      if (tracing()) {
        trace()->span(trace_track(), "dma-read-stream", "dma",
                      read_stream_start_, now);
      }
    }
    ++burst_beats_done_;
    if (burst_beats_done_ == timing_.burst_beats && read_beats_left_ > 0) {
      burst_beats_done_ = 0;
      latency_left_ = timing_.read_latency;
    }
  }

 private:
  MainMemory& memory_;
  sim::ShowAheadFifo<Beat>& input_fifo_;
  sim::ShowAheadFifo<Beat>& output_fifo_;
  AxiTiming timing_;
  sim::FaultInjector* injector_ = nullptr;

  std::uint64_t read_ptr_ = 0;
  std::uint64_t read_beats_left_ = 0;
  unsigned burst_beats_done_ = 0;
  unsigned latency_left_ = 0;
  std::uint64_t write_ptr_ = 0;
  bool bus_error_ = false;
  bool ecc_fault_ = false;
  bool duplicate_pending_ = false;
  Beat duplicate_beat_;
  // Trace-only bookkeeping: never read by the datapath.
  bool read_stream_started_ = false;
  sim::cycle_t read_stream_start_ = 0;

  std::uint64_t beats_read_ = 0;
  std::uint64_t beats_written_ = 0;
  std::uint64_t read_stalls_fifo_full_ = 0;
  std::uint64_t read_stalls_port_busy_ = 0;
};

}  // namespace wfasic::mem
