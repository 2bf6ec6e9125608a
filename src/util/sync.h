// Compiler-checked lock discipline: Clang capability annotations plus the
// annotated synchronisation primitives every concurrent component uses.
//
// PRs 4-5 made the runtime genuinely concurrent (sharded session queues, a
// write-behind IO thread, a pending-flush map raced by restores). The
// locking rules used to live in comments and two regex lint rules; this
// header moves them into the type system, where Clang's thread-safety
// analysis (-Wthread-safety, promoted to an error by the CHAM_THREAD_SAFETY
// build mode) re-proves them on every build:
//
//   * every mutex-protected member is declared CHAM_GUARDED_BY(mu) — an
//     unlocked read or write is a compile error, not a heisenbug;
//   * private helpers that assume the lock carry CHAM_REQUIRES(mu) — a
//     call path that forgets to lock is a compile error;
//   * functions that take a lock internally carry CHAM_EXCLUDES(mu) — a
//     re-entrant self-deadlock is a compile error.
//
// On GCC/MSVC the macros expand to nothing, so the annotations cost nothing
// outside clang builds. The wrappers (Mutex / MutexLock / CondVar) are thin
// shims over the std primitives — same codegen, plus the capability types
// the analysis needs. cham_lint's `raw-mutex` rule keeps new code on the
// wrappers: bare std::mutex / std::lock_guard / std::unique_lock /
// std::condition_variable are rejected everywhere in src/ except this file.
//
// ---------------------------------------------------------------------------
// MEMORY-ORDERING POLICY (the repo-wide std::atomic audit, PR 7)
//
// Atomics are used in exactly three patterns; anything new must cite one of
// them (or extend this block):
//
//   1. Mutex-published flag, relaxed.  A flag written before taking a mutex
//      that every reader holds while loading it (SessionManager::stop_).
//      The mutex hand-off supplies the happens-before edge, so both the
//      store and the loads are std::memory_order_relaxed. The atomic only
//      exists because one writer races the *lock acquisition* of readers,
//      not their reads.
//   2. Completion-count hand-off, acquire/release.  A countdown that
//      transfers written data from workers to a waiter
//      (thread_pool.cpp pending_): workers fetch_sub(acq_rel) after their
//      writes, the waiter loads acquire and observes all of them. The
//      socket front-end's per-reply page countdown (net/server.h
//      PendingReply::refs) is the same hand-off with the last fetch_sub as
//      the waiter. These are the only places seq_cst-free release/acquire
//      ordering carries data.
//   3. Monitoring counters, relaxed.  Single-writer gauges polled by other
//      threads for statistics only (ws::Arena high-water / reserved
//      counters), or multi-writer tallies summed after a join barrier that
//      itself synchronises (metrics/evaluator.cpp per-class counters).
//      Values never gate control flow on the reader side, so
//      std::memory_order_relaxed everywhere; the surrounding barrier or
//      mutex provides whatever visibility the consumer needs.
//
// Default seq_cst is reserved for code that has not yet been audited; none
// remains in src/ as of PR 7.
// ---------------------------------------------------------------------------
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <utility>

// Capability-annotation macros, after the scheme in the Clang thread-safety
// docs (and abseil's thread_annotations.h). GNU attribute spelling so the
// same macros apply to classes, members, functions and lambdas.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define CHAM_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef CHAM_THREAD_ANNOTATION
#define CHAM_THREAD_ANNOTATION(x)  // no-op outside clang
#endif

// Types that act as capabilities (mutexes) / RAII scopes that manage them.
#define CHAM_CAPABILITY(x) CHAM_THREAD_ANNOTATION(capability(x))
#define CHAM_SCOPED_CAPABILITY CHAM_THREAD_ANNOTATION(scoped_lockable)

// Data members: may only be read/written while holding the capability.
#define CHAM_GUARDED_BY(x) CHAM_THREAD_ANNOTATION(guarded_by(x))
#define CHAM_PT_GUARDED_BY(x) CHAM_THREAD_ANNOTATION(pt_guarded_by(x))

// Functions: capability state they require, acquire, release or refuse.
#define CHAM_REQUIRES(...) \
  CHAM_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define CHAM_ACQUIRE(...) \
  CHAM_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define CHAM_RELEASE(...) \
  CHAM_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define CHAM_TRY_ACQUIRE(...) \
  CHAM_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define CHAM_EXCLUDES(...) CHAM_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define CHAM_RETURN_CAPABILITY(x) CHAM_THREAD_ANNOTATION(lock_returned(x))
#define CHAM_ASSERT_CAPABILITY(x) \
  CHAM_THREAD_ANNOTATION(assert_capability(x))

// Lock-hierarchy documentation (checked only under -Wthread-safety-beta;
// always valuable as a machine-readable statement of the order).
#define CHAM_ACQUIRED_BEFORE(...) \
  CHAM_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define CHAM_ACQUIRED_AFTER(...) \
  CHAM_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

// Escape hatch for protocols the analysis cannot express (e.g. ownership
// hand-offs proven by an atomic countdown). Every use must carry a comment
// stating the protocol that replaces the lock.
#define CHAM_NO_THREAD_SAFETY_ANALYSIS \
  CHAM_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace cham::util {

class CondVar;

// Annotated std::mutex. Prefer MutexLock over manual lock()/unlock(); the
// manual form exists for the rare protocol (pool worker hand-off) where a
// scope cannot own the lock.
class CHAM_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() CHAM_ACQUIRE() { mu_.lock(); }
  void unlock() CHAM_RELEASE() { mu_.unlock(); }
  bool try_lock() CHAM_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class MutexLock;
  friend class CondVar;
  std::mutex mu_;
};

// RAII lock over a util::Mutex, relockable so eviction-style code can drop
// the lock for a slow section and re-take it before returning:
//
//   MutexLock lock(sessions_mu_);
//   ... victim selection (guarded state OK) ...
//   lock.unlock();
//   ... serialise with no locks held ...
//   lock.lock();
//   ... guarded state OK again ...
//
// The analysis tracks the unlock()/lock() pairs, so guarded accesses in the
// unlocked window are still compile errors. If an exception unwinds through
// the unlocked window, the destructor correctly does nothing.
class CHAM_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) CHAM_ACQUIRE(mu) : lock_(mu.mu_) {}
  ~MutexLock() CHAM_RELEASE() = default;

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  // Mid-scope release / reacquire (see class comment).
  void unlock() CHAM_RELEASE() { lock_.unlock(); }
  void lock() CHAM_ACQUIRE() { lock_.lock(); }
  bool owns_lock() const { return lock_.owns_lock(); }

 private:
  friend class CondVar;
  std::unique_lock<std::mutex> lock_;
};

// Annotated condition variable. The ONLY wait is the predicate-checked
// form — a naked wait() (no predicate) is lost-wakeup- and spurious-wakeup-
// prone, and cham_lint's `naked-cv-wait` rule rejects it. The predicate
// runs with the lock held; when it reads CHAM_GUARDED_BY state (it almost
// always does), annotate the lambda so the analysis knows:
//
//   cv_.wait(lock, [this]() CHAM_REQUIRES(mu_) { return stop_ || !q_.empty(); });
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  // Blocks until pred() holds; re-checks after every wakeup. The lock is
  // released while blocked and held whenever pred runs. That release/
  // reacquire cycle is invisible to the analysis, which is why this one
  // function opts out; callers still need (and the annotated call sites
  // still prove) the lock held around the wait.
  template <typename Pred>
  void wait(MutexLock& lock, Pred pred) CHAM_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(lock.lock_, std::move(pred));
  }

  // Timed variant: blocks until pred() holds or `timeout` elapses. Returns
  // pred()'s final value. Same predicate-only discipline as wait() (the
  // bounded batch-coalescing wait in the serve worker is the archetype:
  // the timeout bounds added latency, the predicate handles wakeups).
  template <typename Rep, typename Period, typename Pred>
  bool wait_for(MutexLock& lock, std::chrono::duration<Rep, Period> timeout,
                Pred pred) CHAM_NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(lock.lock_, timeout, std::move(pred));
  }

 private:
  std::condition_variable cv_;
};

}  // namespace cham::util
