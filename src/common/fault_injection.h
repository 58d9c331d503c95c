// Deterministic fault injection for the failure-path control loop.
//
// The recovery machinery (liveness deadlines, connection-drop detection,
// plan re-publish) is only trustworthy if every failure mode it handles can
// be produced on demand, in-process, under TSan. This layer compiles named
// *fault points* into the transport/store/executor hot paths:
//
//   FaultPoint("executor.heartbeat", iteration)   // crash-before-heartbeat
//   FaultPoint("executor.iteration", iteration)   // stall-for-N-ms
//   FaultPoint("transport.write")                 // drop / corrupt a frame
//   FaultPoint("shm.heartbeat", iteration)        // crash mid-seqlock write
//
// Disarmed (the default, and the only state outside tests and --fault runs)
// a fault point is one relaxed atomic load and a predictable branch — no
// lock, no allocation, no syscall — so production paths pay nothing.
//
// Armed via a spec string (CLI --fault, or the DYNAPIPE_FAULT environment
// variable for forked children):
//
//   kind[:param]@index[#site]
//
//   crash@2            SIGKILL self when index 2 reaches the crash site
//   stall:250@1        sleep 250 ms at index 1
//   drop@3             close the stream instead of writing the 3rd frame
//   corrupt@5          flip a payload byte in the 5th frame written
//
// `index` is the fault point's unit of progress: the iteration number at
// executor sites, the per-site visit count at transport sites. `#site`
// overrides the kind's default site (crash -> executor.heartbeat, stall ->
// executor.iteration, drop/corrupt -> transport.write). Every fault fires at
// most once (one-shot), so a stalled executor resumes and a reconnecting
// client's retry goes through clean — which is exactly the recovery behavior
// under test.
//
// Crash and stall execute inside the fault point (SIGKILL leaves no chance
// to unwind; a stall is just a sleep). Drop and corrupt cannot — only the
// caller holds the stream — so FaultPoint returns the action for the call
// site to apply. Thread-safe: the armed path takes a mutex (tests only);
// the disarmed path touches one atomic.
#ifndef DYNAPIPE_SRC_COMMON_FAULT_INJECTION_H_
#define DYNAPIPE_SRC_COMMON_FAULT_INJECTION_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace dynapipe::common {

enum class FaultKind : uint8_t {
  kNone = 0,
  kCrash,           // SIGKILL self (no unwind, no flush — a real crash)
  kStall,           // sleep stall_ms, then continue
  kDropConnection,  // caller closes the stream without writing
  kCorruptFrame,    // caller flips a byte in the wire bytes
};

struct FaultSpec {
  FaultKind kind = FaultKind::kNone;
  std::string site;     // fault point name this spec binds to
  int64_t at = 0;       // index at which to fire (iteration or visit count)
  double stall_ms = 0;  // kStall only
};

// Parses `kind[:param]@index[#site]`. False (with *error set) on a malformed
// spec; never aborts — the spec typically arrives from a CLI flag.
bool ParseFaultSpec(const std::string& text, FaultSpec* spec,
                    std::string* error);

class FaultInjector {
 public:
  static FaultInjector& Instance();

  // Arms one spec. Replaces any previous spec and clears fired/visit state,
  // so a process arms at most one fault at a time (all the control-loop
  // scenarios need exactly one). Disarm() returns to the zero-cost state.
  void Arm(const FaultSpec& spec);
  void Disarm();

  // Arms from DYNAPIPE_FAULT when the variable is set and parses; aborts on
  // a set-but-malformed value (a silently ignored fault spec would make a
  // recovery test vacuously pass). Returns true when a fault was armed.
  bool ArmFromEnv();

  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  // The fault point. Returns the action the *caller* must apply
  // (kDropConnection / kCorruptFrame) or kNone; kCrash and kStall execute
  // internally and never return an action. The overload without an index
  // counts visits per site (transport sites); the indexed overload fires
  // when `index == at` (executor sites, indexed by iteration).
  FaultKind Hit(const char* site) {
    if (!armed_.load(std::memory_order_relaxed)) {
      return FaultKind::kNone;
    }
    return HitSlow(site, /*index=*/-1, /*counted=*/true);
  }
  FaultKind Hit(const char* site, int64_t index) {
    if (!armed_.load(std::memory_order_relaxed)) {
      return FaultKind::kNone;
    }
    return HitSlow(site, index, /*counted=*/false);
  }

 private:
  FaultInjector() = default;
  FaultKind HitSlow(const char* site, int64_t index, bool counted);

  std::atomic<bool> armed_{false};
  std::mutex mu_;
  FaultSpec spec_;        // guarded by mu_
  int64_t visits_ = 0;    // per-site visit count since Arm (guarded by mu_)
  bool fired_ = false;    // one-shot latch (guarded by mu_)
};

// Free-function shorthands so call sites stay one line.
inline FaultKind FaultPoint(const char* site) {
  return FaultInjector::Instance().Hit(site);
}
inline FaultKind FaultPoint(const char* site, int64_t index) {
  return FaultInjector::Instance().Hit(site, index);
}

}  // namespace dynapipe::common

#endif  // DYNAPIPE_SRC_COMMON_FAULT_INJECTION_H_
