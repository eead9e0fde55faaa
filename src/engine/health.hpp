// Engine-level device health management (docs/RELIABILITY.md §4).
//
// The HealthMonitor keeps one scoreboard per hardware device and turns
// the engine's completion stream into health decisions:
//
//            failures < threshold            probe passed,
//            (counter resets on success)     readmissions left
//   kHealthy ----------------------------+  +------------------+
//      ^     consecutive failures        |  |                  |
//      |     reach failure_threshold     v  |                  |
//      +---- kQuarantined <----------------+------------------+
//                 |  probe failed probe_attempts times,
//                 |  or readmission budget exhausted
//                 v
//             kRetired   (terminal: the device never runs work again)
//
// A quarantined device stops receiving scheduled work; the engine sends
// it golden-pair self-test probes (a small synthetic batch whose scores
// are precomputed in software). A probe pass readmits the device —
// at most max_readmissions times, so a flapping device eventually
// retires. All transitions are pure functions of the completion/probe
// sequence, so a deterministic fault schedule yields a deterministic
// quarantine schedule.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace wfasic::engine {

enum class DeviceHealth : std::uint8_t {
  kHealthy,      ///< scheduled normally
  kQuarantined,  ///< no scheduled work; golden probes decide its fate
  kRetired,      ///< terminal; its shard degrades onto other backends
};

struct HealthConfig {
  bool enabled = true;
  /// Consecutive failed completions that trip quarantine (successes reset
  /// the run).
  unsigned failure_threshold = 3;
  /// Golden probes a quarantined device gets before it is retired.
  unsigned probe_attempts = 1;
  /// Times a device may be readmitted from quarantine before a further
  /// quarantine retires it outright (anti-flapping).
  unsigned max_readmissions = 1;
};

/// One health-state change, appended to the monitor's transition log in
/// the order it happened (observability: Engine::metrics() exports the
/// log; deterministic because transitions are pure functions of the
/// completion/probe sequence).
struct HealthTransition {
  unsigned device = 0;
  DeviceHealth from = DeviceHealth::kHealthy;
  DeviceHealth to = DeviceHealth::kHealthy;
  std::uint64_t seq = 0;  ///< monotone event number across all devices
};

/// Per-device error accounting, exposed for tests and reports.
struct DeviceScoreboard {
  DeviceHealth health = DeviceHealth::kHealthy;
  unsigned consecutive_failures = 0;
  unsigned total_failures = 0;
  unsigned successes = 0;
  unsigned quarantines = 0;
  unsigned readmissions = 0;
  unsigned probes = 0;        ///< probes spent in the current quarantine
  unsigned probes_total = 0;  ///< probes across the device's lifetime

  [[nodiscard]] bool usable() const {
    return health == DeviceHealth::kHealthy;
  }
};

class HealthMonitor {
 public:
  HealthMonitor(const HealthConfig& cfg, unsigned num_devices)
      : cfg_(cfg), boards_(num_devices) {}

  [[nodiscard]] const HealthConfig& config() const { return cfg_; }
  [[nodiscard]] const DeviceScoreboard& board(unsigned dev) const {
    return boards_.at(dev);
  }
  [[nodiscard]] unsigned num_devices() const {
    return static_cast<unsigned>(boards_.size());
  }

  [[nodiscard]] bool usable(unsigned dev) const {
    return !cfg_.enabled || boards_.at(dev).usable();
  }
  [[nodiscard]] bool any_usable() const {
    if (!cfg_.enabled) return true;
    for (const DeviceScoreboard& b : boards_) {
      if (b.usable()) return true;
    }
    return false;
  }

  /// A scheduled batch completed cleanly on `dev`.
  void record_success(unsigned dev) {
    DeviceScoreboard& b = boards_.at(dev);
    ++b.successes;
    b.consecutive_failures = 0;
  }

  /// A scheduled batch failed (timeout / DMA error / data error) on
  /// `dev`. Returns true when this failure tripped quarantine — the
  /// caller should then run golden probes until the device leaves the
  /// kQuarantined state.
  bool record_failure(unsigned dev) {
    DeviceScoreboard& b = boards_.at(dev);
    ++b.total_failures;
    if (!cfg_.enabled || b.health != DeviceHealth::kHealthy) return false;
    if (++b.consecutive_failures < cfg_.failure_threshold) return false;
    log_transition(dev, b.health, DeviceHealth::kQuarantined);
    b.health = DeviceHealth::kQuarantined;
    ++b.quarantines;
    b.probes = 0;
    return true;
  }

  /// Outcome of one golden probe on a quarantined device. A pass readmits
  /// the device while its readmission budget lasts (otherwise retires
  /// it); a fail retires it once probe_attempts are exhausted.
  void record_probe(unsigned dev, bool passed) {
    DeviceScoreboard& b = boards_.at(dev);
    WFASIC_REQUIRE(b.health == DeviceHealth::kQuarantined,
                   "HealthMonitor: probe on a non-quarantined device");
    ++b.probes;
    ++b.probes_total;
    if (passed) {
      if (b.readmissions < cfg_.max_readmissions) {
        ++b.readmissions;
        log_transition(dev, b.health, DeviceHealth::kHealthy);
        b.health = DeviceHealth::kHealthy;
        b.consecutive_failures = 0;
      } else {
        log_transition(dev, b.health, DeviceHealth::kRetired);
        b.health = DeviceHealth::kRetired;
      }
      return;
    }
    if (b.probes >= cfg_.probe_attempts) {
      log_transition(dev, b.health, DeviceHealth::kRetired);
      b.health = DeviceHealth::kRetired;
    }
  }

  /// Every health-state change, in order (quarantines, readmissions,
  /// retirements across all devices).
  [[nodiscard]] const std::vector<HealthTransition>& transitions() const {
    return transitions_;
  }

 private:
  void log_transition(unsigned dev, DeviceHealth from, DeviceHealth to) {
    transitions_.push_back(
        HealthTransition{dev, from, to, next_transition_seq_++});
  }

  HealthConfig cfg_;
  std::vector<DeviceScoreboard> boards_;
  std::vector<HealthTransition> transitions_;
  std::uint64_t next_transition_seq_ = 0;
};

}  // namespace wfasic::engine
