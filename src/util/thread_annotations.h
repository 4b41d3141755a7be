// Clang thread-safety capability annotations and the annotated lock
// primitives used everywhere in src/. Two layers live here:
//
//  1. The X3_* macro set wrapping Clang's `-Wthread-safety` attributes
//     (capability, guarded_by, acquire/release, ...). Under any other
//     compiler the macros expand to nothing, so GCC builds are
//     unaffected; the `clang-tsa` CMake preset compiles with
//     `-Wthread-safety -Wthread-safety-beta -Werror` and turns the
//     annotations into build-breaking invariants.
//
//  2. x3::Mutex / x3::MutexLock / x3::CondVar — thin wrappers over
//     std::mutex / std::condition_variable carrying the annotations,
//     an AssertHeld() debug check, and (in X3_DEBUG_LOCKS builds) a
//     lock-order detector: each Mutex is constructed with a rank from
//     x3::lock_rank, a thread-local stack records the ranked locks a
//     thread holds, and acquiring a mutex whose rank is not strictly
//     greater than every ranked lock already held dies with X3_CHECK.
//     Potential deadlocks thus fail deterministically in any test that
//     exercises the nesting, instead of hanging CI on the interleaving
//     that actually cycles. Unranked mutexes (kNone) skip ordering
//     checks but still get holder bookkeeping for AssertHeld().
//
// The raw-mutex lint rule (scripts/x3_lint.py) bans bare std::mutex /
// std::condition_variable / std::lock_guard in src/ outside this file,
// so every lock in the engine is annotated and rank-checked.
//
// This header must stay dependency-light: logging.cc uses x3::Mutex,
// so we cannot include logging.h here. The checking Lock/Unlock bodies
// live out-of-line in thread_annotations.cc, which may.
#ifndef X3_UTIL_THREAD_ANNOTATIONS_H_
#define X3_UTIL_THREAD_ANNOTATIONS_H_

#include <atomic>
#include <condition_variable>  // x3-lint: allow(raw-mutex)
#include <cstdint>
#include <mutex>  // x3-lint: allow(raw-mutex)

#if defined(__clang__)
#define X3_THREAD_ATTR(x) __attribute__((x))
#else
#define X3_THREAD_ATTR(x)  // no-op under GCC/MSVC
#endif

// Type attributes.
#define X3_CAPABILITY(x) X3_THREAD_ATTR(capability(x))
#define X3_SCOPED_CAPABILITY X3_THREAD_ATTR(scoped_lockable)

// Data-member attributes. GUARDED_BY names the mutex that must be held
// to touch the member; PT_GUARDED_BY guards the pointee instead.
#define X3_GUARDED_BY(x) X3_THREAD_ATTR(guarded_by(x))
#define X3_PT_GUARDED_BY(x) X3_THREAD_ATTR(pt_guarded_by(x))

// Declared acquisition-order hints between mutex members.
#define X3_ACQUIRED_BEFORE(...) X3_THREAD_ATTR(acquired_before(__VA_ARGS__))
#define X3_ACQUIRED_AFTER(...) X3_THREAD_ATTR(acquired_after(__VA_ARGS__))

// Function attributes: caller must hold / must not hold the capability,
// or the function itself acquires/releases it.
#define X3_REQUIRES(...) X3_THREAD_ATTR(requires_capability(__VA_ARGS__))
#define X3_REQUIRES_SHARED(...) \
  X3_THREAD_ATTR(requires_shared_capability(__VA_ARGS__))
#define X3_ACQUIRE(...) X3_THREAD_ATTR(acquire_capability(__VA_ARGS__))
#define X3_RELEASE(...) X3_THREAD_ATTR(release_capability(__VA_ARGS__))
#define X3_TRY_ACQUIRE(...) X3_THREAD_ATTR(try_acquire_capability(__VA_ARGS__))
#define X3_EXCLUDES(...) X3_THREAD_ATTR(locks_excluded(__VA_ARGS__))
#define X3_ASSERT_CAPABILITY(x) X3_THREAD_ATTR(assert_capability(x))
#define X3_RETURN_CAPABILITY(x) X3_THREAD_ATTR(lock_returned(x))
#define X3_NO_THREAD_SAFETY_ANALYSIS X3_THREAD_ATTR(no_thread_safety_analysis)

namespace x3 {

// Lock ranks, increasing toward leaf locks: a thread may acquire a
// ranked mutex only while every ranked mutex it already holds has a
// strictly smaller rank. Gaps of 50 leave room for new layers. Keep
// this table in sync with docs/STATIC_ANALYSIS.md §7.
namespace lock_rank {
inline constexpr uint32_t kNone = 0;  // unranked: exempt from ordering
// The serving layer sits below every engine lock: a server thread may
// hold its session/shape/cache bookkeeping while calling into the
// view store (kViewStore) or submitting to the pool (kThreadPool),
// never the other way around.
inline constexpr uint32_t kServerWatchdog = 15;  // X3Server watchdog wakeup
inline constexpr uint32_t kServerWrite = 20;  // X3Server::write_mu_
inline constexpr uint32_t kDatabaseIngest = 30;  // X3Server::db_mu_
inline constexpr uint32_t kServerSession = 40;  // X3Server::mu_
inline constexpr uint32_t kServerInflight = 50;  // X3Server::inflight_mu_
inline constexpr uint32_t kServerShape = 60;    // ShapeState::mu
inline constexpr uint32_t kServerBuildLatch = 70;  // X3Server::BuildLatch
inline constexpr uint32_t kServerCache = 80;    // CuboidCache::mu_
inline constexpr uint32_t kServerTicket = 90;   // X3Server::Ticket::mu_
inline constexpr uint32_t kQueryLog = 95;       // QueryLog::mu_
inline constexpr uint32_t kExecutorScheduler = 100;  // executor.cc local
inline constexpr uint32_t kViewStore = 150;          // CubeViewStore::mu_
inline constexpr uint32_t kTaskGroup = 200;          // TaskGroup::mu_
inline constexpr uint32_t kThreadPool = 250;         // ThreadPool::mu_
inline constexpr uint32_t kBufferPool = 300;         // BufferPool::mu_
inline constexpr uint32_t kTempFileManager = 350;    // TempFileManager::mu_
inline constexpr uint32_t kFaultInjectionEnv = 400;  // FaultInjectionEnv::mu_
inline constexpr uint32_t kStatsSink = 450;          // StatsSink::mu_
inline constexpr uint32_t kTracer = 500;             // Tracer::mu_
inline constexpr uint32_t kMetricRegistry = 550;     // MetricRegistry::mu_
inline constexpr uint32_t kLogCapture = 600;         // logging.cc capture sink
}  // namespace lock_rank

// Annotated mutex. Constant-initializable so function-local statics and
// namespace-scope instances need no dynamic init.
class X3_CAPABILITY("mutex") Mutex {
 public:
  explicit constexpr Mutex(uint32_t rank = lock_rank::kNone) : rank_(rank) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() X3_ACQUIRE();
  void Unlock() X3_RELEASE();
  bool TryLock() X3_TRY_ACQUIRE(true);

  // Fatal (X3_CHECK) unless the calling thread holds this mutex. The
  // bookkeeping exists only in X3_DEBUG_LOCKS builds; in Release the
  // call compiles to nothing but still satisfies the static analysis,
  // so X3_REQUIRES'd helpers can assert their contract.
  void AssertHeld() const X3_ASSERT_CAPABILITY(this);

  uint32_t rank() const { return rank_; }

 private:
  friend class CondVar;

  std::mutex mu_;  // x3-lint: allow(raw-mutex)
  const uint32_t rank_;
#if defined(X3_DEBUG_LOCKS)
  // Debug identity of the holding thread (0 = unheld). Written only by
  // the holder under mu_; read racily by AssertHeld, which only ever
  // compares against the *calling* thread's id, so a stale value can
  // not produce a false "held" verdict for another thread.
  mutable std::atomic<uint64_t> holder_{0};
#endif
};

// RAII lock for a whole scope.
class X3_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) X3_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() X3_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Condition variable bound to x3::Mutex. Wait() adopts the caller's
// already-held lock for the duration of the underlying wait (the
// LevelDB port idiom), keeping the debug holder bookkeeping honest
// across the suspension.
class CondVar {
 public:
  CondVar() = default;

  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases *mu, blocks until notified, reacquires *mu.
  // Spurious wakeups happen; callers loop on their predicate or use
  // the predicate overload below.
  void Wait(Mutex* mu) X3_REQUIRES(mu);

  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) X3_REQUIRES(mu) {
    while (!pred()) Wait(mu);
  }

  // Timed wait: like Wait but returns after at most `seconds` even
  // without a notification. Returns true when notified (or spuriously
  // woken) before the timeout, false on timeout; either way *mu is
  // reacquired. Used by periodic background threads (the stuck-query
  // watchdog) that must both tick on an interval and exit promptly on
  // shutdown notification.
  bool WaitFor(Mutex* mu, double seconds) X3_REQUIRES(mu);

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;  // x3-lint: allow(raw-mutex)
};

}  // namespace x3

#endif  // X3_UTIL_THREAD_ANNOTATIONS_H_
