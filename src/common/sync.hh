/**
 * @file
 * Capability-annotated synchronization primitives.
 *
 * Thin zero-cost wrappers over std::mutex carrying the Clang Thread
 * Safety attributes libstdc++'s own types lack (see
 * common/thread_annotations.hh). Every mutex in the tree must be a
 * pth::Mutex and every scoped lock a pth::MutexLock —
 * tools/lint/lock_audit.py rejects raw std primitives — so that
 * -DPTH_THREAD_SAFETY=ON can prove, at compile time and on every
 * path, that no guarded member is ever touched unlocked.
 */

#ifndef PTH_COMMON_SYNC_HH
#define PTH_COMMON_SYNC_HH

#include <mutex>

#include "common/thread_annotations.hh"

namespace pth
{

/** A std::mutex the thread-safety analysis understands. */
class PTH_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() PTH_ACQUIRE() { m_.lock(); }
    void unlock() PTH_RELEASE() { m_.unlock(); }

  private:
    std::mutex m_;
};

/** RAII scoped lock over pth::Mutex (the annotated lock_guard). */
class PTH_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &mutex) PTH_ACQUIRE(mutex) : mutex_(mutex)
    {
        mutex_.lock();
    }
    ~MutexLock() PTH_RELEASE() { mutex_.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mutex_;
};

} // namespace pth

#endif // PTH_COMMON_SYNC_HH
