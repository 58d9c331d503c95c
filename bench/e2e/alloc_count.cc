// Heap-allocation counting for publisher.allocs_per_plan: the global
// operator new is replaced for the whole bench_e2e binary and counts while
// armed (the traced half of a traced run). Disarmed it costs one relaxed
// load per allocation.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench/e2e/harness.h"

namespace {
std::atomic<bool> g_armed{false};
std::atomic<int64_t> g_allocs{0};
thread_local int t_paused = 0;
}  // namespace

void* operator new(size_t size) {
  if (g_armed.load(std::memory_order_relaxed) && t_paused == 0) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace dynapipe::bench_e2e {

void ArmAllocCounting(bool armed) {
  g_armed.store(armed, std::memory_order_relaxed);
}

int64_t AllocCount() { return g_allocs.load(std::memory_order_relaxed); }

ScopedAllocPause::ScopedAllocPause() { ++t_paused; }
ScopedAllocPause::~ScopedAllocPause() { --t_paused; }

}  // namespace dynapipe::bench_e2e
