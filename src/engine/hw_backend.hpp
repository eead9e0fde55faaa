// AlignmentBackend over one simulated WFAsic device.
//
// The backend owns (or borrows, for the Soc facade) a MainMemory and an
// Accelerator, drives them through drv::Driver, and turns the blocking
// encode -> start -> wait_idle -> decode flow into a polled state machine:
//   - the input region [in_addr, out_addr) is split into two arena slots;
//     while batch N aligns out of one slot, batch N+1 is encoded into the
//     other (functional overlap — the memory writes really do interleave
//     with the device simulation);
//   - poll() advances the device by a bounded cycle quantum, so a host
//     can interleave several devices instead of blocking on one;
//   - completions carry per-phase cycle samples (encode / accel / decode)
//     that the engine's pipelined makespan accounting consumes.
// Results are decoded at completion, before the next launch; the *decode*
// overlap of the three-stage pipeline is therefore modelled by the
// engine's accounting rather than interleaved functionally (the decode is
// instantaneous host code — there is no simulated time it could occupy).
//
// A batch whose encoded input does not fit one arena slot takes the whole
// input region instead; such an exclusive launch waits for the device to
// drain and suppresses staging while it runs.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "drv/driver.hpp"
#include "engine/backend.hpp"
#include "hw/accelerator.hpp"
#include "hw/config.hpp"
#include "mem/main_memory.hpp"

namespace wfasic::engine {

struct HwBackendConfig {
  hw::AcceleratorConfig accel;
  cpu::CpuModel::Config cpu;
  std::size_t memory_bytes = 256ull << 20;
  std::uint64_t in_addr = 0x0000'1000;
  std::uint64_t out_addr = 0x0800'0000;
  /// Device cycles simulated per poll() call.
  std::uint64_t poll_quantum = 16'384;
  /// Default per-launch cycle budget (BatchJob::cycle_budget overrides).
  std::uint64_t launch_cycle_budget = 4'000'000'000ULL;
  /// No-progress watchdog programmed into the device (0 = disabled).
  std::uint32_t watchdog = 0;
  /// CPU input-staging cost model: cycles per encoded byte (header +
  /// padded sequences), a streaming-store estimate on the in-order core.
  double encode_cycles_per_byte = 1.0;
  /// CPU NBT decode cost model: cycles per 4-byte result word decoded.
  double nbt_decode_cycles_per_pair = 16.0;
  /// Periodic device-checkpoint interval in device cycles (0 = off, the
  /// default — no snapshots are taken and poll() is unchanged). With a
  /// non-zero interval the backend snapshots the whole device at the
  /// first poll boundary after each interval elapses, so a failed run
  /// can be migrated (take_migration/adopt) or the active run preempted
  /// with bounded recompute: at most interval + poll_quantum cycles.
  std::uint64_t checkpoint_interval = 0;
};

class HwBackend final : public AlignmentBackend {
 public:
  /// Owning: builds a private MainMemory + Accelerator from the config.
  explicit HwBackend(const HwBackendConfig& cfg);
  /// Borrowing: drives an externally owned device (the Soc facade keeps
  /// owning its memory/accelerator so introspection APIs stay valid).
  HwBackend(const HwBackendConfig& cfg, mem::MainMemory& memory,
            hw::Accelerator& accelerator);

  JobHandle submit(BatchJob job) override;
  bool poll() override;
  bool cancel(JobHandle handle) override;
  [[nodiscard]] std::size_t pending() const override;
  std::vector<Completion> drain() override;
  [[nodiscard]] const char* kind() const override { return "hw"; }

  [[nodiscard]] mem::MainMemory& memory() { return *memory_; }
  [[nodiscard]] hw::Accelerator& accelerator() { return *accelerator_; }
  [[nodiscard]] const hw::Accelerator& accelerator() const {
    return *accelerator_;
  }
  [[nodiscard]] const HwBackendConfig& config() const { return cfg_; }
  /// Forwards to hw::Accelerator::attach_fault_injector.
  void attach_fault_injector(sim::FaultInjector* injector);

  /// Bytes one arena slot holds (half the input region).
  [[nodiscard]] std::uint64_t input_slot_bytes() const {
    return (cfg_.out_addr - cfg_.in_addr) / 2;
  }

 private:
  /// A job encoded into memory, its registers not yet programmed.
  struct StagedJob {
    JobHandle handle;
    BatchJob job;
    drv::BatchLayout layout;
    unsigned slot = 0;
    bool exclusive = false;
    std::uint64_t encode_cycles = 0;
  };
  /// The job the device is currently running.
  struct ActiveJob {
    StagedJob staged;
    std::uint64_t start_cycle = 0;
    std::uint64_t budget = 0;
    std::uint64_t beats_before = 0;
    // The Aligners' phase and stall counters accumulate across runs; these
    // mark where this run starts.
    hw::Aligner::PhaseCycles phase_before;
    std::uint64_t stalls_before = 0;
    // Checkpointing (cfg_.checkpoint_interval != 0). The blob is the
    // last periodic whole-device snapshot; empty until the first
    // interval elapses. The baselines above stay valid across a
    // restore because the blob carries the device stats exactly as they
    // were at the checkpoint.
    std::vector<std::uint8_t> checkpoint;
    std::uint64_t checkpoint_cycle = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t restores = 0;
    std::uint64_t recomputed_cycles = 0;
  };

 public:
  /// A checkpointed in-flight job lifted off a device — by take_migration
  /// after its run failed, or by preempt while it was still healthy.
  /// Opaque to callers (the payload type is private); move it wholesale
  /// into adopt() on any HwBackend built from the same device config.
  struct Migration {
    ActiveJob job;
    /// Device cycle at which the job left its device. The recompute cost
    /// of adopting is failure_cycle - the checkpoint's cycle (0 for a
    /// preemption, which snapshots at the moment of eviction).
    std::uint64_t failure_cycle = 0;
  };

  /// Takes the stashed migration of a failed run, if its final
  /// checkpoint survived (checkpointing on, and the run outlived the
  /// first interval). The stash holds at most the most recent failures;
  /// entries are dropped once taken.
  [[nodiscard]] std::optional<Migration> take_migration(JobHandle handle);
  /// Checkpoint-evicts the currently *active* run (poll boundaries are
  /// safe points, so the snapshot is always legal) and soft-resets the
  /// device, freeing it for other work. Lossless: failure_cycle equals
  /// the snapshot cycle. Returns nullopt when `handle` is not the active
  /// run — queued or staged jobs are cancelled, not preempted.
  [[nodiscard]] std::optional<Migration> preempt(JobHandle handle);
  /// Adopts a migrated job under a fresh handle. The job launches with
  /// priority once the device is free: the checkpoint blob is restored
  /// (clobbering device memory — any staged batch is re-queued first)
  /// and the run resumes where the snapshot left it. A blob this device
  /// rejects surfaces as a kDataError completion.
  JobHandle adopt(Migration migration);

 private:
  /// Both constructors: validates the arena against the driven memory and
  /// programs the configured watchdog.
  void init_device();
  [[nodiscard]] std::uint64_t predicted_in_bytes(const BatchJob& job) const;
  /// Encodes the queue front into arena slot `slot` (or the full region
  /// when it needs an exclusive launch).
  [[nodiscard]] StagedJob encode_front(unsigned slot);
  void launch(StagedJob&& staged);
  /// Restores the adopted front's checkpoint onto the device and makes it
  /// the active run (or completes it as kDataError if the blob is
  /// rejected).
  void launch_adopted();
  /// Snapshots the device into the active job's checkpoint slot when the
  /// configured interval has elapsed since the last one.
  void maybe_checkpoint();
  void complete_active();
  /// Reads a completed non-tolerant run's result area once, bounded by the
  /// beats the DMA wrote, into completion.result — or, with CRC on, turns
  /// the completion into kDataError when that read does not verify.
  void decode_into(Completion& completion, const ActiveJob& active,
                   const drv::RunStatus& status);

  HwBackendConfig cfg_;
  std::unique_ptr<mem::MainMemory> owned_memory_;
  std::unique_ptr<hw::Accelerator> owned_accelerator_;
  mem::MainMemory* memory_ = nullptr;
  hw::Accelerator* accelerator_ = nullptr;
  drv::Driver driver_;
  cpu::CpuModel cpu_;

  std::deque<std::pair<JobHandle, BatchJob>> queue_;
  std::optional<StagedJob> staged_;
  std::optional<ActiveJob> active_;
  /// Adopted migrations waiting for the device; launched before queued
  /// work (they already consumed device time elsewhere).
  std::deque<std::pair<JobHandle, Migration>> adopted_;
  /// Checkpointed failures awaiting take_migration, newest last. Bounded:
  /// oldest entries are dropped beyond kMigrationStashDepth.
  std::vector<std::pair<JobHandle, Migration>> failed_migrations_;
  static constexpr std::size_t kMigrationStashDepth = 4;
  std::vector<Completion> done_;
  std::uint64_t next_handle_ = 1;
  /// Per-launch CRC salt counter (only consumed when cfg_.accel.crc).
  std::uint32_t next_salt_ = 1;
};

}  // namespace wfasic::engine
