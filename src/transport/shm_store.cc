#include "src/transport/shm_store.h"

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cstring>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/check.h"
#include "src/common/metrics.h"
#include "src/common/trace.h"
#include "src/service/plan_serde.h"

namespace dynapipe::transport {
namespace internal {

inline constexpr char kShmMagic[8] = {'D', 'P', 'S', 'H', 'M', 'S', 'T', '1'};
// Version 2: heartbeat slot array between the header and the index, and
// per-process reader pins (replacing the lone active_readers count) in the
// header. Attach rejects other versions.
inline constexpr uint32_t kShmVersion = 2;

// Reader pin table size — the maximum number of *processes* concurrently
// holding unreleased views. Far above any real fleet (one executor process
// per replica).
inline constexpr uint32_t kShmReaderPins = 64;

// Slot lifecycle, stored in ShmSlot::state.
enum SlotState : uint32_t {
  kEmpty = 0,
  kReserved = 1,   // a publisher owns the arena range; key is claimed
  kPublished = 2,  // bytes immutable and fetchable
  kConsumed = 3,   // fetched; recycled at the next arena rewind
};

// One index entry. The seqlock (odd = mutating) lets lock-free readers
// (Contains) snapshot the key fields without the cross-process mutex; all
// mutation happens under the header mutex, so writers never contend on seq.
struct ShmSlot {
  std::atomic<uint64_t> seq{0};
  std::atomic<uint32_t> state{kEmpty};
  std::atomic<int32_t> replica{0};
  std::atomic<int64_t> iteration{0};
  std::atomic<uint64_t> offset{0};  // payload offset from segment base
  std::atomic<uint64_t> length{0};
};
static_assert(std::atomic<uint64_t>::is_always_lock_free &&
                  std::atomic<int64_t>::is_always_lock_free,
              "shm slots need address-free lock-free atomics");

// One retained completion in a heartbeat slot's ring.
struct ShmHeartbeatEntry {
  std::atomic<int64_t> iteration{0};
  std::atomic<uint64_t> wall_us{0};
};

// One replica's liveness mailbox. Claimed once under the header mutex
// (replica flips from -1); thereafter a single process writes it under the
// slot seqlock — same discipline as the index, so the publisher-side poller
// reads without the cross-process lock. last_alive_us is a lone CLOCK_
// MONOTONIC stamp read/written as a standalone atomic: pure liveness touches
// (TouchReplica, every executor poll) skip the seqlock entirely.
struct ShmHeartbeatSlot {
  std::atomic<uint64_t> seq{0};
  std::atomic<int32_t> replica{-1};  // -1 = unclaimed
  std::atomic<int32_t> pid{0};       // claiming process (diagnostic)
  // Goodbye + drain state machine: 0 = attached, 1 = clean goodbye (poller
  // stops deadlines), 2 = drain requested (executor wrote; poller forwards
  // OnReplicaDrainRequested), 3 = drain acknowledged (publisher CASed 2 -> 3;
  // the executor's green light to finish in-flight work and detach). Only the
  // executor writes under the seqlock; the publisher's ack is a lone CAS that
  // a racing final goodbye (2 -> 1) beats cleanly.
  std::atomic<uint32_t> detached{0};
  std::atomic<uint64_t> beats{0};     // completions written, ever
  std::atomic<int64_t> last_alive_us{0};
  ShmHeartbeatEntry ring[kShmHeartbeatRing];
};

// One process's unreleased-view count, guarded by the header mutex. Tagging
// pins per pid is what makes a crashed reader recoverable: the rewind check
// probes kill(pid, 0) and reclaims pins whose owner is gone.
struct ShmReaderPin {
  int32_t pid = 0;     // 0 = free
  uint32_t views = 0;  // unreleased views held by that process
};

struct alignas(64) ShmHeader {
  char magic[8];
  uint32_t version = 0;
  // Creator flips this last (release): attachers spin on it (acquire) so they
  // never touch a half-initialized mutex.
  std::atomic<uint32_t> ready{0};
  uint64_t total_bytes = 0;
  uint32_t num_slots = 0;
  uint64_t arena_offset = 0;  // from segment base
  uint64_t arena_bytes = 0;
  uint64_t capacity = 0;

  // Cross-process lock: guards every field below and carries Push
  // backpressure + Shutdown broadcast (the paper-side equivalent of the
  // in-process store's condvar, living inside the segment).
  pthread_mutex_t mu;
  pthread_cond_t cv;

  // All guarded by mu.
  uint64_t slots_used = 0;   // slots allocated since the last rewind
  uint64_t arena_used = 0;   // arena bytes appended since the last rewind
  uint64_t resident = 0;     // published, unfetched (== size())
  uint64_t occupied = 0;     // reserved + resident (capacity gating)
  // Fetched views not yet released, == sum of reader_pins[].views. The pins
  // carry the per-process attribution; this aggregate keeps the rewind check
  // O(1) on the fast path.
  uint64_t active_readers = 0;
  uint32_t shutdown = 0;
  int64_t serialized_bytes_total = 0;
  int64_t rewinds = 0;
  int64_t pin_reclaims = 0;  // dead-process pins reclaimed
  ShmReaderPin reader_pins[kShmReaderPins];
};

}  // namespace internal

namespace {

using internal::ShmHeader;
using internal::ShmHeartbeatSlot;
using internal::ShmSlot;

size_t HeartbeatOffset() {
  return (sizeof(ShmHeader) + 63) & ~size_t{63};
}

size_t SlotsOffset() {
  return (HeartbeatOffset() + kShmHeartbeatSlots * sizeof(ShmHeartbeatSlot) +
          63) &
         ~size_t{63};
}

size_t ArenaOffset(size_t num_slots) {
  return (SlotsOffset() + num_slots * sizeof(ShmSlot) + 63) & ~size_t{63};
}

// CLOCK_MONOTONIC in microseconds — the heartbeat-slot alive stamp. Only
// monotonic advancement matters to the poller, so cross-process comparability
// (same boot, same clock) is a bonus, not a requirement.
int64_t MonotonicMicros() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000 + ts.tv_nsec / 1000;
}

// Seqlock write section around `mutate`, for any struct with a `seq` field
// (plan slots and heartbeat slots). Callers hold the slot's writer lock —
// the header mutex for plan slots, the per-process hb_mu_ for heartbeat
// slots — so there is exactly one writer; the fences pair with the matching
// snapshot readers.
template <typename SlotT, typename Fn>
void SeqlockWrite(SlotT& slot, Fn&& mutate) {
  // acq_rel: the acquire half keeps the field stores inside the odd window
  // (they cannot hoist above the increment), the release half publishes the
  // odd value itself.
  slot.seq.fetch_add(1, std::memory_order_acq_rel);
  mutate();
  slot.seq.fetch_add(1, std::memory_order_release);
}

struct SlotSnapshot {
  uint32_t state;
  int64_t iteration;
  int32_t replica;
  uint64_t offset;
  uint64_t length;
};

// Lock-free consistent read of one slot; retries while a writer is inside.
SlotSnapshot SeqlockSnapshot(const ShmSlot& slot) {
  for (;;) {
    const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
    if (s1 & 1) {
      continue;  // writer inside; the critical section is a few stores
    }
    SlotSnapshot snap;
    snap.state = slot.state.load(std::memory_order_relaxed);
    snap.iteration = slot.iteration.load(std::memory_order_relaxed);
    snap.replica = slot.replica.load(std::memory_order_relaxed);
    snap.offset = slot.offset.load(std::memory_order_relaxed);
    snap.length = slot.length.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.seq.load(std::memory_order_relaxed) == s1) {
      return snap;
    }
  }
}

class MutexLock {
 public:
  explicit MutexLock(pthread_mutex_t* mu) : mu_(mu) {
    const int rc = pthread_mutex_lock(mu_);
    if (rc == EOWNERDEAD) {
      // The mutex is ROBUST: a peer process died (crash, SIGKILL, a fatal
      // contract abort) while holding it. The guarded state is counters and
      // slot flips, each updated atomically under the lock, so it is
      // consistent enough to carry on — mark the mutex usable again instead
      // of wedging every surviving process forever.
      DYNAPIPE_CHECK(pthread_mutex_consistent(mu_) == 0);
      return;
    }
    DYNAPIPE_CHECK(rc == 0);
  }
  ~MutexLock() { pthread_mutex_unlock(mu_); }
  MutexLock(const MutexLock&) = delete;

 private:
  pthread_mutex_t* mu_;
};

}  // namespace

ShmInstructionStore::ShmInstructionStore(std::string name, void* base,
                                         size_t total_bytes, bool owner)
    : name_(std::move(name)), base_(base), total_bytes_(total_bytes),
      owner_(owner) {}

ShmInstructionStore::~ShmInstructionStore() {
  if (base_ != nullptr) {
    ::munmap(base_, total_bytes_);
  }
  if (owner_) {
    ::shm_unlink(name_.c_str());
  }
}

ShmHeader& ShmInstructionStore::header() const {
  return *static_cast<ShmHeader*>(base_);
}

ShmSlot* ShmInstructionStore::slots() const {
  return reinterpret_cast<ShmSlot*>(static_cast<char*>(base_) + SlotsOffset());
}

ShmHeartbeatSlot* ShmInstructionStore::heartbeat_slots() const {
  return reinterpret_cast<ShmHeartbeatSlot*>(static_cast<char*>(base_) +
                                             HeartbeatOffset());
}

char* ShmInstructionStore::arena() const {
  return static_cast<char*>(base_) + header().arena_offset;
}

std::shared_ptr<ShmInstructionStore> ShmInstructionStore::Create(
    std::string name, ShmStoreOptions options) {
  DYNAPIPE_CHECK(options.num_slots >= 1);
  DYNAPIPE_CHECK(options.arena_bytes >= 4096);
  const size_t total = ArenaOffset(options.num_slots) + options.arena_bytes;
  int fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  if (fd < 0 && errno == EEXIST) {
    // A stale segment from a crashed owner (the destructor never ran, so it
    // never shm_unlinked) — same self-healing the socket transport applies
    // to stale socket files: remove it and claim the name. Two *live* owners
    // racing on one name is a caller bug either way; derived names are
    // unique per epoch.
    ::shm_unlink(name.c_str());
    fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
  }
  DYNAPIPE_CHECK_MSG(fd >= 0, "shm_open(" + name +
                                  ") failed: " + std::strerror(errno));
  DYNAPIPE_CHECK_MSG(::ftruncate(fd, static_cast<off_t>(total)) == 0,
                     "ftruncate(" + name + ") failed");
  void* base =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  DYNAPIPE_CHECK_MSG(base != MAP_FAILED, "mmap(" + name + ") failed");

  auto* hdr = new (base) ShmHeader();
  std::memcpy(hdr->magic, internal::kShmMagic, sizeof(hdr->magic));
  hdr->version = internal::kShmVersion;
  hdr->total_bytes = total;
  hdr->num_slots = static_cast<uint32_t>(options.num_slots);
  hdr->arena_offset = ArenaOffset(options.num_slots);
  hdr->arena_bytes = options.arena_bytes;
  hdr->capacity = options.capacity;

  pthread_mutexattr_t mattr;
  pthread_mutexattr_init(&mattr);
  pthread_mutexattr_setpshared(&mattr, PTHREAD_PROCESS_SHARED);
  // ROBUST: a process dying inside a critical section (crash, SIGKILL, a
  // fatal contract abort like fetch-before-publish) hands the next locker
  // EOWNERDEAD instead of deadlocking every surviving process.
  pthread_mutexattr_setrobust(&mattr, PTHREAD_MUTEX_ROBUST);
  DYNAPIPE_CHECK(pthread_mutex_init(&hdr->mu, &mattr) == 0);
  pthread_mutexattr_destroy(&mattr);
  pthread_condattr_t cattr;
  pthread_condattr_init(&cattr);
  pthread_condattr_setpshared(&cattr, PTHREAD_PROCESS_SHARED);
  // MONOTONIC: the Push park is a timed wait (so it can reclaim dead reader
  // pins without a broadcast), and its deadline must not jump with wall-clock
  // adjustments.
  DYNAPIPE_CHECK(pthread_condattr_setclock(&cattr, CLOCK_MONOTONIC) == 0);
  DYNAPIPE_CHECK(pthread_cond_init(&hdr->cv, &cattr) == 0);
  pthread_condattr_destroy(&cattr);

  ShmHeartbeatSlot* hb_array = reinterpret_cast<ShmHeartbeatSlot*>(
      static_cast<char*>(base) + HeartbeatOffset());
  for (size_t i = 0; i < kShmHeartbeatSlots; ++i) {
    new (&hb_array[i]) ShmHeartbeatSlot();
  }
  ShmSlot* slot_array = reinterpret_cast<ShmSlot*>(
      static_cast<char*>(base) + SlotsOffset());
  for (size_t i = 0; i < options.num_slots; ++i) {
    new (&slot_array[i]) ShmSlot();
  }
  hdr->ready.store(1, std::memory_order_release);
  return std::shared_ptr<ShmInstructionStore>(
      new ShmInstructionStore(std::move(name), base, total, /*owner=*/true));
}

std::shared_ptr<ShmInstructionStore> ShmInstructionStore::Attach(
    std::string name, int timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  int fd = -1;
  for (;;) {
    fd = ::shm_open(name.c_str(), O_RDWR, 0);
    if (fd >= 0) {
      struct stat st {};
      // The creator sizes the segment with ftruncate before initializing the
      // header; a zero-size segment means we raced shm_open itself.
      if (::fstat(fd, &st) == 0 && st.st_size > 0) {
        break;
      }
      ::close(fd);
      fd = -1;
    }
    DYNAPIPE_CHECK_MSG(std::chrono::steady_clock::now() < deadline,
                       "shm store: segment " + name + " never appeared");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  struct stat st {};
  DYNAPIPE_CHECK(::fstat(fd, &st) == 0);
  const size_t total = static_cast<size_t>(st.st_size);
  void* base =
      ::mmap(nullptr, total, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  DYNAPIPE_CHECK_MSG(base != MAP_FAILED, "mmap(" + name + ") failed");
  auto* hdr = static_cast<ShmHeader*>(base);
  while (hdr->ready.load(std::memory_order_acquire) == 0) {
    DYNAPIPE_CHECK_MSG(std::chrono::steady_clock::now() < deadline,
                       "shm store: segment " + name + " never became ready");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  DYNAPIPE_CHECK_MSG(
      std::memcmp(hdr->magic, internal::kShmMagic, sizeof(hdr->magic)) == 0 &&
          hdr->version == internal::kShmVersion,
      "shm store: segment " + name + " has incompatible magic/version");
  DYNAPIPE_CHECK_MSG(hdr->total_bytes == total,
                     "shm store: segment " + name + " size mismatch");
  return std::shared_ptr<ShmInstructionStore>(
      new ShmInstructionStore(std::move(name), base, total, /*owner=*/false));
}

namespace {
common::StoreMetrics& ShmMetrics() {
  static common::StoreMetrics& m = common::StoreMetrics::For("shm");
  return m;
}

// Drops pins whose owning process no longer exists. Caller holds the header
// mutex. kill(pid, 0) == ESRCH is the liveness probe; note a zombie (dead
// but unreaped) still answers 0, so a publisher that forked its own readers
// must waitpid them before this can reclaim — unrelated processes (the
// deployment case) become ESRCH the moment they die.
void ReclaimDeadReaderPinsLocked(ShmHeader& hdr) {
  const int32_t self = static_cast<int32_t>(::getpid());
  for (uint32_t i = 0; i < internal::kShmReaderPins; ++i) {
    internal::ShmReaderPin& pin = hdr.reader_pins[i];
    if (pin.views == 0 || pin.pid == self) {
      continue;
    }
    if (::kill(static_cast<pid_t>(pin.pid), 0) != 0 && errno == ESRCH) {
      hdr.active_readers -= pin.views;
      pin.views = 0;
      pin.pid = 0;
      ++hdr.pin_reclaims;
      static common::Counter& reclaims =
          common::MetricsRegistry::Instance().GetCounter(
              "store_shm_pin_reclaims_total");
      reclaims.Add();
    }
  }
}
}  // namespace

ptrdiff_t ShmInstructionStore::ReserveLocked(int64_t iteration, int32_t replica,
                                             size_t bytes,
                                             uint64_t* offset_out) {
  ShmHeader& hdr = header();
  DYNAPIPE_CHECK_MSG(bytes <= hdr.arena_bytes,
                     "shm store: plan larger than the whole arena");
  std::optional<common::LatencyTimer> park_timer;
  for (;;) {
    if (hdr.shutdown != 0) {
      return -1;
    }
    // Double publish aborts, capacity notwithstanding: scan claimed keys.
    ShmSlot* slot_array = slots();
    for (uint64_t i = 0; i < hdr.slots_used; ++i) {
      const uint32_t state = slot_array[i].state.load(std::memory_order_relaxed);
      if ((state == internal::kReserved || state == internal::kPublished) &&
          slot_array[i].iteration.load(std::memory_order_relaxed) == iteration &&
          slot_array[i].replica.load(std::memory_order_relaxed) == replica) {
        DYNAPIPE_CHECK_MSG(false,
                           "plan already published for this iteration/replica");
      }
    }
    // Arena high-water mark: when the append offset (or the slot table) would
    // overflow and every plan has been fetched and released, reclaim the
    // whole arena at once — plans are immutable, so reclamation is all-or-
    // nothing rather than per-entry.
    if ((hdr.slots_used >= hdr.num_slots ||
         hdr.arena_used + bytes > hdr.arena_bytes) &&
        hdr.occupied == 0) {
      if (hdr.active_readers != 0) {
        // Views pin the arena, but a pin whose owner was SIGKILLed between
        // fetch and release would otherwise pin it *forever* — probe the
        // pinners and drop the dead before deciding the rewind is blocked.
        ReclaimDeadReaderPinsLocked(hdr);
      }
      if (hdr.active_readers == 0) {
        for (uint64_t i = 0; i < hdr.slots_used; ++i) {
          SeqlockWrite(slot_array[i], [&] {
            slot_array[i].state.store(internal::kEmpty,
                                      std::memory_order_relaxed);
          });
        }
        hdr.slots_used = 0;
        hdr.arena_used = 0;
        ++hdr.rewinds;
      }
    }
    const bool capacity_ok = hdr.capacity == 0 || hdr.occupied < hdr.capacity;
    const bool slot_ok = hdr.slots_used < hdr.num_slots;
    const bool arena_ok = hdr.arena_used + bytes <= hdr.arena_bytes;
    if (capacity_ok && slot_ok && arena_ok) {
      break;
    }
    // Park-time instrumentation starts only on the slow path: an uncontended
    // reserve never reads a clock, keeping the publish fast path to relaxed
    // loads only.
    if (!park_timer.has_value()) {
      park_timer.emplace();
    }
    // Timed wait, not wait: a reader that died holding a view never
    // broadcasts, so a parked publisher must wake on its own to re-run the
    // dead-pin reclaim above. 100 ms bounds the reclaim latency without
    // turning the park into a spin.
    timespec deadline{};
    ::clock_gettime(CLOCK_MONOTONIC, &deadline);
    deadline.tv_nsec += 100 * 1000000;
    if (deadline.tv_nsec >= 1000000000) {
      deadline.tv_nsec -= 1000000000;
      ++deadline.tv_sec;
    }
    const int rc = pthread_cond_timedwait(&hdr.cv, &hdr.mu, &deadline);
    if (rc == EOWNERDEAD) {
      // A peer died holding the robust mutex while we were parked; the wait
      // re-acquired it with the dead owner's state. Same recovery as
      // MutexLock: mark it consistent and re-evaluate.
      DYNAPIPE_CHECK(pthread_mutex_consistent(&hdr.mu) == 0);
    } else {
      DYNAPIPE_CHECK(rc == 0 || rc == ETIMEDOUT);
    }
  }
  if (park_timer.has_value()) {
    park_timer->ObserveInto(ShmMetrics().park_us);
  }
  const ptrdiff_t slot_i = static_cast<ptrdiff_t>(hdr.slots_used++);
  const uint64_t offset = hdr.arena_offset + hdr.arena_used;
  hdr.arena_used += bytes;
  ++hdr.occupied;
  ShmSlot& slot = slots()[slot_i];
  SeqlockWrite(slot, [&] {
    slot.state.store(internal::kReserved, std::memory_order_relaxed);
    slot.iteration.store(iteration, std::memory_order_relaxed);
    slot.replica.store(replica, std::memory_order_relaxed);
    slot.offset.store(offset, std::memory_order_relaxed);
    slot.length.store(bytes, std::memory_order_relaxed);
  });
  *offset_out = offset;
  return slot_i;
}

bool ShmInstructionStore::PushBytes(int64_t iteration, int32_t replica,
                                    std::string_view bytes) {
  // Disarmed cost discipline: everything below is relaxed loads and branches
  // — no clock reads, no allocation — so the zero-copy publish path keeps
  // its allocation-free budget (pinned by bench_plan_distribution's
  // disarmed row).
  common::StoreMetrics& metrics = ShmMetrics();
  metrics.push_total.Add();
  metrics.bytes_pushed.Add(static_cast<int64_t>(bytes.size()));
  const common::LatencyTimer push_timer;
  common::TraceSpan span("published", "plan", iteration, replica);
  ShmHeader& hdr = header();
  ptrdiff_t slot_i = -1;
  uint64_t offset = 0;
  {
    MutexLock lock(&hdr.mu);
    slot_i = ReserveLocked(iteration, replica, bytes.size(), &offset);
  }
  if (slot_i < 0) {
    return false;  // shutdown dropped the plan
  }
  // Write the payload outside the lock: the reserved range is exclusively
  // ours, and no reader can see the slot until the publish flip below. This
  // is the single copy of the whole path — encode scratch to mapping.
  std::memcpy(static_cast<char*>(base_) + offset, bytes.data(), bytes.size());
  {
    MutexLock lock(&hdr.mu);
    ShmSlot& slot = slots()[slot_i];
    SeqlockWrite(slot, [&] {
      slot.state.store(internal::kPublished, std::memory_order_relaxed);
    });
    ++hdr.resident;
    hdr.serialized_bytes_total += static_cast<int64_t>(bytes.size());
    pthread_cond_broadcast(&hdr.cv);
  }
  push_timer.ObserveInto(metrics.push_us);
  return true;
}

void ShmInstructionStore::Push(int64_t iteration, int32_t replica,
                               sim::ExecutionPlan plan) {
  // Per-thread scratch: steady-state publishing allocates nothing once the
  // buffer has grown to plan size.
  thread_local std::string scratch;
  service::EncodeExecutionPlanInto(plan, &scratch);
  PushBytes(iteration, replica, scratch);
}

ShmInstructionStore::PlanView ShmInstructionStore::AcquireView(
    int64_t iteration, int32_t replica) {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  ShmSlot* slot_array = slots();
  for (uint64_t i = 0; i < hdr.slots_used; ++i) {
    ShmSlot& slot = slot_array[i];
    if (slot.state.load(std::memory_order_relaxed) == internal::kPublished &&
        slot.iteration.load(std::memory_order_relaxed) == iteration &&
        slot.replica.load(std::memory_order_relaxed) == replica) {
      SeqlockWrite(slot, [&] {
        slot.state.store(internal::kConsumed, std::memory_order_relaxed);
      });
      --hdr.resident;
      --hdr.occupied;
      // Pin the arena until ReleaseView, tagged with our pid so the pin dies
      // with us: a crashed reader's pin is reclaimed by the rewind check
      // instead of parking publishers forever.
      const int32_t self = static_cast<int32_t>(::getpid());
      internal::ShmReaderPin* pin = nullptr;
      for (uint32_t p = 0; p < internal::kShmReaderPins; ++p) {
        internal::ShmReaderPin& candidate = hdr.reader_pins[p];
        if (candidate.views > 0 && candidate.pid == self) {
          pin = &candidate;
          break;
        }
        if (pin == nullptr && candidate.views == 0) {
          pin = &candidate;  // first free; keep scanning for our own
        }
      }
      DYNAPIPE_CHECK_MSG(pin != nullptr,
                         "shm store: reader pin table exhausted");
      pin->pid = self;
      ++pin->views;
      ++hdr.active_readers;
      pthread_cond_broadcast(&hdr.cv);  // unblock a capacity-parked Push
      return PlanView(
          this,
          std::string_view(
              static_cast<const char*>(base_) +
                  slot.offset.load(std::memory_order_relaxed),
              slot.length.load(std::memory_order_relaxed)));
    }
  }
  DYNAPIPE_CHECK_MSG(false, "fetching unpublished plan");
}

void ShmInstructionStore::ReleaseView() {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  const int32_t self = static_cast<int32_t>(::getpid());
  internal::ShmReaderPin* pin = nullptr;
  for (uint32_t p = 0; p < internal::kShmReaderPins; ++p) {
    if (hdr.reader_pins[p].views > 0 && hdr.reader_pins[p].pid == self) {
      pin = &hdr.reader_pins[p];
      break;
    }
  }
  DYNAPIPE_CHECK_MSG(pin != nullptr, "shm store: releasing an unheld view");
  --pin->views;
  if (pin->views == 0) {
    pin->pid = 0;
  }
  DYNAPIPE_CHECK(hdr.active_readers > 0);
  if (--hdr.active_readers == 0) {
    pthread_cond_broadcast(&hdr.cv);  // a rewind may be waiting on us
  }
}

ShmInstructionStore::PlanView::PlanView(PlanView&& other) noexcept
    : store_(other.store_), bytes_(other.bytes_) {
  other.store_ = nullptr;
}

ShmInstructionStore::PlanView::~PlanView() {
  if (store_ != nullptr) {
    store_->ReleaseView();
  }
}

sim::ExecutionPlan ShmInstructionStore::Fetch(int64_t iteration,
                                              int32_t replica) {
  common::StoreMetrics& metrics = ShmMetrics();
  metrics.fetch_total.Add();
  const common::LatencyTimer fetch_timer;
  std::optional<PlanView> view;
  {
    common::TraceSpan fetched("fetched", "plan", iteration, replica);
    view.emplace(AcquireView(iteration, replica));
  }
  // Decode in place: the string_view aliases the mapping, so the executor
  // side of the hop does no copy at all.
  std::string error;
  std::optional<sim::ExecutionPlan> plan;
  {
    common::TraceSpan decoded("decoded", "plan", iteration, replica);
    plan = service::TryDecodeExecutionPlan(view->bytes(), &error);
  }
  fetch_timer.ObserveInto(metrics.fetch_us);
  DYNAPIPE_CHECK_MSG(plan.has_value(),
                     "shm store: fetched plan is corrupt (" + error + ")");
  return std::move(*plan);
}

bool ShmInstructionStore::Contains(int64_t iteration, int32_t replica) const {
  // Lock-free: seqlock snapshots instead of the cross-process mutex, so a
  // polling executor never contends with a publisher mid-push.
  const ShmHeader& hdr = header();
  const ShmSlot* slot_array = slots();
  for (uint32_t i = 0; i < hdr.num_slots; ++i) {
    const SlotSnapshot snap = SeqlockSnapshot(slot_array[i]);
    if (snap.state == internal::kPublished && snap.iteration == iteration &&
        snap.replica == replica) {
      return true;
    }
  }
  return false;
}

size_t ShmInstructionStore::size() const {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  return static_cast<size_t>(hdr.resident);
}

void ShmInstructionStore::Shutdown() {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  hdr.shutdown = 1;
  pthread_cond_broadcast(&hdr.cv);
}

int64_t ShmInstructionStore::serialized_bytes_total() const {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  return hdr.serialized_bytes_total;
}

int64_t ShmInstructionStore::arena_rewinds() const {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  return hdr.rewinds;
}

int64_t ShmInstructionStore::pin_reclaims() const {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  return hdr.pin_reclaims;
}

// --- Liveness channel ---

ShmHeartbeatSlot& ShmInstructionStore::HeartbeatSlotLocked(int32_t replica) {
  const auto cached = hb_claimed_.find(replica);
  if (cached != hb_claimed_.end()) {
    return heartbeat_slots()[cached->second];
  }
  // First use: claim under the header mutex (claiming is rare; the per-beat
  // path never takes the cross-process lock). Re-claim a slot already tagged
  // with this replica — a restarted executor inherits its predecessor's slot
  // rather than leaking one per restart.
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  ShmHeartbeatSlot* hb = heartbeat_slots();
  ptrdiff_t free_i = -1;
  ptrdiff_t claim_i = -1;
  for (uint32_t i = 0; i < kShmHeartbeatSlots; ++i) {
    const int32_t owner = hb[i].replica.load(std::memory_order_acquire);
    if (owner == replica) {
      claim_i = static_cast<ptrdiff_t>(i);
      break;
    }
    if (free_i < 0 && owner < 0) {
      free_i = static_cast<ptrdiff_t>(i);
    }
  }
  if (claim_i < 0) {
    DYNAPIPE_CHECK_MSG(free_i >= 0,
                       "shm store: heartbeat slot table exhausted");
    claim_i = free_i;
  }
  ShmHeartbeatSlot& slot = hb[claim_i];
  SeqlockWrite(slot, [&] {
    slot.pid.store(static_cast<int32_t>(::getpid()),
                   std::memory_order_relaxed);
    slot.detached.store(0, std::memory_order_relaxed);
    // replica last, release: a poller that sees the slot claimed sees the
    // rest of the claim too.
    slot.replica.store(replica, std::memory_order_release);
  });
  slot.last_alive_us.store(MonotonicMicros(), std::memory_order_release);
  hb_claimed_.emplace(replica, static_cast<uint32_t>(claim_i));
  return slot;
}

bool ShmInstructionStore::Heartbeat(int32_t replica, int64_t iteration,
                                    double wall_ms) {
  std::lock_guard<std::mutex> lock(hb_mu_);  // one seqlock writer per slot
  ShmHeartbeatSlot& slot = HeartbeatSlotLocked(replica);
  SeqlockWrite(slot, [&] {
    const uint64_t beat = slot.beats.load(std::memory_order_relaxed);
    internal::ShmHeartbeatEntry& entry = slot.ring[beat % kShmHeartbeatRing];
    entry.iteration.store(iteration, std::memory_order_relaxed);
    entry.wall_us.store(static_cast<uint64_t>(wall_ms * 1000.0),
                        std::memory_order_relaxed);
    slot.beats.store(beat + 1, std::memory_order_relaxed);
  });
  slot.last_alive_us.store(MonotonicMicros(), std::memory_order_release);
  return true;
}

void ShmInstructionStore::AnnounceReplica(int32_t replica) {
  std::lock_guard<std::mutex> lock(hb_mu_);
  HeartbeatSlotLocked(replica);  // claim + alive stamp
}

void ShmInstructionStore::TouchReplica(int32_t replica) {
  std::lock_guard<std::mutex> lock(hb_mu_);
  ShmHeartbeatSlot& slot = HeartbeatSlotLocked(replica);
  slot.last_alive_us.store(MonotonicMicros(), std::memory_order_release);
}

void ShmInstructionStore::DetachReplica(int32_t replica) {
  std::lock_guard<std::mutex> lock(hb_mu_);
  ShmHeartbeatSlot& slot = HeartbeatSlotLocked(replica);
  SeqlockWrite(slot, [&] {
    slot.detached.store(1, std::memory_order_relaxed);
  });
  slot.last_alive_us.store(MonotonicMicros(), std::memory_order_release);
}

void ShmInstructionStore::RequestDrain(int32_t replica) {
  std::lock_guard<std::mutex> lock(hb_mu_);
  ShmHeartbeatSlot& slot = HeartbeatSlotLocked(replica);
  SeqlockWrite(slot, [&] {
    slot.detached.store(2, std::memory_order_relaxed);
  });
  slot.last_alive_us.store(MonotonicMicros(), std::memory_order_release);
}

bool ShmInstructionStore::DrainAcknowledged(int32_t replica) {
  std::lock_guard<std::mutex> lock(hb_mu_);
  ShmHeartbeatSlot& slot = HeartbeatSlotLocked(replica);
  return slot.detached.load(std::memory_order_acquire) == 3;
}

void ShmInstructionStore::AcknowledgeDrain(int32_t replica) {
  // Publisher side: must NOT go through HeartbeatSlotLocked — that would
  // claim (and re-initialize) the slot for *this* process, clobbering the
  // executor's pid and drain word. Scan for the slot the executor owns and
  // CAS the drain state, so a racing final goodbye (detached = 1) survives.
  ShmHeartbeatSlot* hb = heartbeat_slots();
  for (uint32_t i = 0; i < kShmHeartbeatSlots; ++i) {
    if (hb[i].replica.load(std::memory_order_acquire) != replica) {
      continue;
    }
    uint32_t expected = 2;
    hb[i].detached.compare_exchange_strong(expected, 3,
                                           std::memory_order_acq_rel);
    return;
  }
}

// --- Recovery surface ---

std::vector<int64_t> ShmInstructionStore::PendingIterations(
    int32_t replica) const {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  std::vector<int64_t> iterations;
  const ShmSlot* slot_array = slots();
  for (uint64_t i = 0; i < hdr.slots_used; ++i) {
    if (slot_array[i].state.load(std::memory_order_relaxed) ==
            internal::kPublished &&
        slot_array[i].replica.load(std::memory_order_relaxed) == replica) {
      iterations.push_back(
          slot_array[i].iteration.load(std::memory_order_relaxed));
    }
  }
  // Slots are in publish order, not key order — sort to match the interface
  // contract (ascending).
  std::sort(iterations.begin(), iterations.end());
  return iterations;
}

runtime::RepostOutcome ShmInstructionStore::Repost(int64_t src_iteration,
                                                   int32_t src_replica,
                                                   int64_t dst_iteration,
                                                   int32_t dst_replica) {
  ShmHeader& hdr = header();
  MutexLock lock(&hdr.mu);
  ShmSlot* slot_array = slots();
  ptrdiff_t src_i = -1;
  for (uint64_t i = 0; i < hdr.slots_used; ++i) {
    const uint32_t state = slot_array[i].state.load(std::memory_order_relaxed);
    const int64_t iteration =
        slot_array[i].iteration.load(std::memory_order_relaxed);
    const int32_t replica =
        slot_array[i].replica.load(std::memory_order_relaxed);
    if (state == internal::kPublished && iteration == src_iteration &&
        replica == src_replica) {
      src_i = static_cast<ptrdiff_t>(i);
    }
    if ((state == internal::kReserved || state == internal::kPublished) &&
        iteration == dst_iteration && replica == dst_replica) {
      return runtime::RepostOutcome::kDestinationTaken;  // leave both alone
    }
  }
  if (src_i < 0) {
    return runtime::RepostOutcome::kSourceGone;
  }
  // A draining destination reads exactly like a taken key: burn the spare
  // key and let the caller's retry chain pick another survivor.
  if (IsReplicaFenced(dst_replica)) {
    return runtime::RepostOutcome::kDestinationTaken;
  }
  // A key move, not a byte move: the arena payload stays where it is, only
  // the index entry is re-keyed — reposted plans stay byte-identical.
  ShmSlot& slot = slot_array[src_i];
  SeqlockWrite(slot, [&] {
    slot.iteration.store(dst_iteration, std::memory_order_relaxed);
    slot.replica.store(dst_replica, std::memory_order_relaxed);
  });
  return runtime::RepostOutcome::kMoved;
}

void ShmInstructionStore::FenceReplica(int32_t replica) {
  std::lock_guard<std::mutex> lock(fence_mu_);
  if (std::find(fenced_.begin(), fenced_.end(), replica) == fenced_.end()) {
    fenced_.push_back(replica);
  }
}

void ShmInstructionStore::UnfenceReplica(int32_t replica) {
  std::lock_guard<std::mutex> lock(fence_mu_);
  fenced_.erase(std::remove(fenced_.begin(), fenced_.end(), replica),
                fenced_.end());
}

bool ShmInstructionStore::IsReplicaFenced(int32_t replica) const {
  std::lock_guard<std::mutex> lock(fence_mu_);
  return std::find(fenced_.begin(), fenced_.end(), replica) != fenced_.end();
}

size_t ShmInstructionStore::DropReplica(int32_t replica) {
  ShmHeader& hdr = header();
  size_t dropped = 0;
  {
    MutexLock lock(&hdr.mu);
    ShmSlot* slot_array = slots();
    for (uint64_t i = 0; i < hdr.slots_used; ++i) {
      ShmSlot& slot = slot_array[i];
      if (slot.state.load(std::memory_order_relaxed) == internal::kPublished &&
          slot.replica.load(std::memory_order_relaxed) == replica) {
        SeqlockWrite(slot, [&] {
          slot.state.store(internal::kConsumed, std::memory_order_relaxed);
        });
        --hdr.resident;
        --hdr.occupied;
        ++dropped;
      }
    }
    if (dropped > 0) {
      pthread_cond_broadcast(&hdr.cv);  // freed capacity slots
    }
  }
  return dropped;
}

// --- ShmHeartbeatPoller ---

ShmHeartbeatPoller::ShmHeartbeatPoller(
    std::shared_ptr<ShmInstructionStore> store, runtime::HeartbeatSink* sink,
    int poll_interval_ms)
    : store_(std::move(store)),
      sink_(sink),
      poll_interval_ms_(poll_interval_ms),
      observed_(kShmHeartbeatSlots) {
  thread_ = std::thread([this] { Loop(); });
}

ShmHeartbeatPoller::~ShmHeartbeatPoller() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stop_ = true;
  }
  stop_cv_.notify_all();
  thread_.join();
}

void ShmHeartbeatPoller::Loop() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  while (!stop_) {
    lock.unlock();
    PollOnce();
    lock.lock();
    stop_cv_.wait_for(lock, std::chrono::milliseconds(poll_interval_ms_),
                      [&] { return stop_; });
  }
}

int ShmHeartbeatPoller::PollOnce() {
  int delivered = 0;
  ShmHeartbeatSlot* hb = store_->heartbeat_slots();
  for (uint32_t i = 0; i < kShmHeartbeatSlots; ++i) {
    ShmHeartbeatSlot& slot = hb[i];
    const int32_t replica = slot.replica.load(std::memory_order_acquire);
    if (replica < 0) {
      continue;  // unclaimed
    }
    SlotObservation& obs = observed_[i];
    if (obs.replica != replica) {
      obs = SlotObservation{};
      obs.replica = replica;
    }
    // Consistent snapshot of the beat counter + the ring entries we are
    // about to drain, seqlock-retried against a concurrent writer.
    uint64_t beats = 0;
    uint32_t detached = 0;
    int64_t ring_iter[kShmHeartbeatRing];
    uint64_t ring_wall[kShmHeartbeatRing];
    for (;;) {
      const uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 & 1) {
        continue;  // writer inside; the critical section is a few stores
      }
      beats = slot.beats.load(std::memory_order_relaxed);
      detached = slot.detached.load(std::memory_order_relaxed);
      for (uint32_t r = 0; r < kShmHeartbeatRing; ++r) {
        ring_iter[r] = slot.ring[r].iteration.load(std::memory_order_relaxed);
        ring_wall[r] = slot.ring[r].wall_us.load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) == s1) {
        break;
      }
    }
    const int64_t last_alive =
        slot.last_alive_us.load(std::memory_order_acquire);

    if (!obs.attached_delivered) {
      sink_->OnReplicaAttached(replica);
      obs.attached_delivered = true;
      ++delivered;
    }
    if (beats > obs.beats) {
      // Forward every completion we have not yet seen, oldest first. If the
      // writer lapped the ring since our last visit, the overwritten oldest
      // are gone — skip to what survives.
      uint64_t first = obs.beats;
      if (beats - first > kShmHeartbeatRing) {
        first = beats - kShmHeartbeatRing;
      }
      for (uint64_t b = first; b < beats; ++b) {
        const uint32_t r = static_cast<uint32_t>(b % kShmHeartbeatRing);
        sink_->OnHeartbeat(replica, ring_iter[r],
                           static_cast<double>(ring_wall[r]) / 1000.0);
        ++delivered;
      }
      obs.beats = beats;
    } else if (last_alive > obs.last_alive_us && obs.last_alive_us != 0) {
      // Alive but between completions (a poll-loop touch): refresh the
      // monitor's deadline without a wall sample. OnReplicaAttached is the
      // sink's liveness-touch verb — for an already-alive replica it only
      // resets last_seen.
      sink_->OnReplicaAttached(replica);
      ++delivered;
    }
    obs.last_alive_us = last_alive;

    if (detached == 1 && !obs.detach_delivered) {
      sink_->OnReplicaDisconnected(replica, /*clean=*/true);
      obs.detach_delivered = true;
      ++delivered;
    } else if (detached == 2 && !obs.drain_delivered) {
      // Drain requested: the sink's event chain (monitor -> recovery ->
      // membership) fences and reposts synchronously; the membership
      // coordinator acknowledges via AcknowledgeDrain when the handoff is
      // done.
      sink_->OnReplicaDrainRequested(replica);
      obs.drain_delivered = true;
      ++delivered;
    } else if (detached == 0) {
      obs.detach_delivered = false;  // re-announced after a clean goodbye
      obs.drain_delivered = false;
    }
  }
  return delivered;
}

}  // namespace dynapipe::transport
