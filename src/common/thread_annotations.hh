/**
 * @file
 * Portable Clang Thread Safety Analysis attribute macros.
 *
 * Clang's -Wthread-safety proves lock discipline at compile time:
 * every access to a PTH_GUARDED_BY member is checked against the set
 * of capabilities (mutexes) held on every path, so an unlocked read
 * in a code path no test exercises is a build error, not a latent
 * race TSan may or may not interleave into. The macros compile away
 * on every other compiler (gcc builds them as empty), so annotating
 * costs nothing off-clang.
 *
 * The analysis only understands types that carry the capability
 * attributes. libstdc++'s std::mutex / std::lock_guard carry none, so
 * annotating members with a raw std::mutex as the capability is a
 * no-op at best and an attribute error at worst — use the annotated
 * wrappers in common/sync.hh (pth::Mutex, pth::MutexLock) instead;
 * tools/lint/lock_audit.py enforces this.
 *
 * Build gate: -DPTH_THREAD_SAFETY=ON (clang only) compiles with
 * -Werror=thread-safety -Wthread-safety-beta; the CI `thread-safety`
 * job runs it on every PR. See docs/STATIC_ANALYSIS.md.
 */

#ifndef PTH_COMMON_THREAD_ANNOTATIONS_HH
#define PTH_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define PTH_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef PTH_THREAD_ANNOTATION
#define PTH_THREAD_ANNOTATION(x)
#endif

/** Type attribute: this class is a lockable capability. */
#define PTH_CAPABILITY(x) PTH_THREAD_ANNOTATION(capability(x))

/** Type attribute: RAII object acquiring on construction, releasing
 * on destruction (pth::MutexLock). */
#define PTH_SCOPED_CAPABILITY PTH_THREAD_ANNOTATION(scoped_lockable)

/** Member attribute: reads/writes require holding the capability. */
#define PTH_GUARDED_BY(x) PTH_THREAD_ANNOTATION(guarded_by(x))

/** Member attribute: the pointed-to data requires the capability. */
#define PTH_PT_GUARDED_BY(x) PTH_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function attribute: acquires the capability (not released on
 * return). */
#define PTH_ACQUIRE(...) \
    PTH_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function attribute: releases the capability. */
#define PTH_RELEASE(...) \
    PTH_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function attribute: acquires the capability when returning the
 * given value (try_lock). */
#define PTH_TRY_ACQUIRE(...) \
    PTH_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Function attribute: the caller must hold the capability. */
#define PTH_REQUIRES(...) \
    PTH_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function attribute: the caller must NOT hold the capability
 * (deadlock prevention on non-recursive mutexes). */
#define PTH_EXCLUDES(...) \
    PTH_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function attribute: asserts the capability is held (runtime
 * check the analysis trusts). */
#define PTH_ASSERT_CAPABILITY(x) \
    PTH_THREAD_ANNOTATION(assert_capability(x))

/** Function attribute: returns a reference to the given capability. */
#define PTH_RETURN_CAPABILITY(x) \
    PTH_THREAD_ANNOTATION(lock_returned(x))

/**
 * Function attribute: opt this function out of the analysis. The
 * escape hatch of last resort — every use must carry a comment saying
 * why the discipline cannot be expressed, the same rule as tsan.supp
 * entries and `// determinism:` annotations.
 */
#define PTH_NO_THREAD_SAFETY_ANALYSIS \
    PTH_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // PTH_COMMON_THREAD_ANNOTATIONS_HH
