// SLO accounting: per-operation latency objectives with windowed burn rates.
//
// Each tracked operation (append, read, txn-commit) carries an objective —
// "p(latency <= objective_us) >= target", e.g. 99.9% of appends under 5 ms.
// Every completed operation is scored against its objective; the error
// budget is (1 - target), and the burn rate over a window is
//
//   burn = breach_fraction_in_window / error_budget
//
// so burn == 1 means the budget is being consumed exactly as provisioned,
// and burn >= 14.4 over 1 h is the classic page-now threshold.  We keep
// short windows (1 m and 5 m) sized for bench runs and smoke tests rather
// than the multi-hour alerting windows a production deployment would add.
//
// Mechanics: per-op lifetime counters (total / breached, relaxed atomics)
// plus a ring of one-second slots.  Record() CAS-claims the slot for the
// current second and bumps it; window queries sum the slots still inside
// the window.  Everything is lock-free and wait-free except the CAS retry
// on second-boundary races.
//
// Exposure: a MetricsRegistry collection hook refreshes slo.* counters and
// burn-rate gauges on every Snap() (so they appear in /metrics), and
// RenderJson() feeds the /slo endpoint.

#ifndef SRC_OBS_SLO_H_
#define SRC_OBS_SLO_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace tango::obs {

enum class SloOp : uint8_t {
  kAppend = 0,
  kRead = 1,
  kTxnCommit = 2,
  // Admission outcome at the shedding tiers (sequencer grants, storage
  // writes): admitted requests record ~0, shed requests record their
  // retry-after hint, so the burn rate tracks the shed fraction and the
  // severity of the backoff the cluster is asking for.
  kAdmission = 3,
};
inline constexpr int kNumSloOps = 4;

const char* SloOpName(SloOp op);

struct SloObjective {
  uint64_t objective_us = 0;  // latency bound the op must meet
  double target = 0.999;      // required fraction of ops meeting the bound
};

class SloTracker {
 public:
  // The process-wide tracker wired into the log client and runtime; its
  // constructor registers the metrics collection hook.
  static SloTracker& Default();

  SloTracker();

  // Replaces an op's objective (tests, bench setup, logd flags).
  void SetObjective(SloOp op, SloObjective objective);
  SloObjective objective(SloOp op) const;

  // Scores one completed operation.  ~3 relaxed atomic ops on the hot path.
  void Record(SloOp op, uint64_t latency_us);

  struct OpStats {
    uint64_t total = 0;
    uint64_t breached = 0;      // ops over objective_us, lifetime
    double burn_rate_1m = 0.0;  // breach fraction / error budget, last 60 s
    double burn_rate_5m = 0.0;  // same over the last 300 s
  };
  OpStats Stats(SloOp op) const;

  // {"append":{"objective_us":...,"target":...,"total":...,"breached":...,
  //   "burn_rate_1m":...,"burn_rate_5m":...}, "read":{...}, ...}
  std::string RenderJson() const;

  // Zeroes counters and windows; objectives stay.  For tests and benches.
  void Reset();

  // Publishes slo.<op>.* counters and burn-rate gauges into the default
  // registry (called by the collection hook; callable directly in tests).
  void ExportToRegistry();

 private:
  // One second of per-op accounting.  `epoch_sec` tags which wall second
  // the slot currently holds; a recorder seeing a stale tag CAS-resets it.
  struct Slot {
    std::atomic<uint64_t> epoch_sec{0};
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> breached{0};
  };
  static constexpr int kSlots = 512;  // > 300 s window + slack

  struct PerOp {
    std::atomic<uint64_t> objective_us{0};
    std::atomic<uint64_t> target_millis{999};  // target * 1000
    std::atomic<uint64_t> total{0};
    std::atomic<uint64_t> breached{0};
    std::array<Slot, kSlots> slots;
  };

  // Sums window slots newer than now-window_secs into total/breached.
  void WindowSums(const PerOp& op, uint64_t window_secs, uint64_t* total,
                  uint64_t* breached) const;
  double BurnRate(const PerOp& op, uint64_t window_secs) const;

  std::array<PerOp, kNumSloOps> ops_;
};

}  // namespace tango::obs

#endif  // SRC_OBS_SLO_H_
