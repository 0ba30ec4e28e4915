// Crash flight recorder: the last few hundred control-plane events, kept in
// lock-free per-thread rings, dumpable from a fatal-signal handler.
//
// When a node dies — assert, segfault, kill signal during a chaos run — the
// metrics registry and trace rings die with it.  The flight recorder is the
// black box that survives to the core of the crash report: every seal,
// reconfiguration, GC pass, recovery step and pipeline stall is appended as
// a fixed-size structured event, and the fatal-signal handler writes the
// rings to stderr with nothing but write(2) and integer formatting (no
// malloc, no locks, no snprintf — the handler must work with the heap in an
// arbitrary state).
//
// Recording contract: Record() is wait-free (one relaxed fetch_add + plain
// stores into an owned slot) and `msg` must have static storage duration.
// Each thread's ring is registered into a fixed-capacity global table on
// first use and never freed, so the signal handler walks a stable array.
//
// Readers (Dump(), the kFlightRecorder stats kind, /flight) tolerate torn
// in-flight events: a slot's fields are published relaxed and read racily;
// the seq tag makes ordering best-effort by construction.  That is the
// right trade — the recorder exists for the moment everything else is
// already wrong.

#ifndef SRC_OBS_FLIGHT_H_
#define SRC_OBS_FLIGHT_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace tango::obs {

enum class FlightKind : uint8_t {
  kSeal = 1,          // storage node sealed an epoch
  kReconfig = 2,      // projection change installed
  kGc = 3,            // segment GC / trim activity
  kRecovery = 4,      // recovery step (segment replay, rebuild, ...)
  kPipelineStall = 5, // append pipeline blocked on its window
  kFailstop = 6,      // injected or detected fail-stop
  kSignal = 7,        // fatal signal (written by the handler itself)
};

const char* FlightKindName(FlightKind kind);

class FlightRecorder {
 public:
  static constexpr int kRingEvents = 256;   // per thread
  static constexpr int kMaxThreads = 256;

  // The process-wide recorder (all instrumentation points use it).
  static FlightRecorder& Default();

  // Appends one event.  `msg` must be a string literal (or otherwise
  // immortal); a/b are event-specific payloads (epoch, address, ...).
  void Record(FlightKind kind, const char* msg, uint64_t a = 0,
              uint64_t b = 0, uint32_t node = 0);

  // Human-readable dump of every ring, one "seq= t= thread= kind= msg a b
  // node" line per event, globally sorted by seq.  For the kFlightRecorder
  // stats kind and the /flight endpoint.
  std::string Dump() const;

  // Async-signal-safe dump to `fd` (unsorted, ring order).  Only write(2)
  // and stack formatting; callable from a SIGSEGV handler.
  void DumpToFd(int fd) const;

  // Installs a handler for SIGSEGV/SIGABRT/SIGBUS/SIGFPE/SIGILL that writes
  // the recorder to stderr, then restores the default action and re-raises
  // so exit codes and core dumps are unchanged.  Idempotent.
  static void InstallFatalSignalHandler();

  // Total events ever recorded (exported as obs.flight.events).
  uint64_t events() const { return seq_.load(std::memory_order_relaxed); }

  // Drops all recorded events (rings stay registered).  For tests.
  void Clear();

 private:
  struct Event {
    std::atomic<uint64_t> seq{0};  // 0 = empty; global order tag
    std::atomic<uint64_t> time_us{0};
    std::atomic<uint64_t> a{0};
    std::atomic<uint64_t> b{0};
    std::atomic<const char*> msg{nullptr};
    std::atomic<uint32_t> node{0};
    std::atomic<uint8_t> kind{0};
  };

  struct Ring {
    uint32_t thread = 0;          // dense thread index (trace.cc's)
    std::atomic<uint64_t> next{0};  // slots claimed in this ring
    Event events[kRingEvents];
  };

  Ring* LocalRing();

  std::atomic<uint64_t> seq_{1};
  std::atomic<int> num_rings_{0};
  std::atomic<Ring*> rings_[kMaxThreads];  // filled once, never freed
};

}  // namespace tango::obs

#endif  // SRC_OBS_FLIGHT_H_
