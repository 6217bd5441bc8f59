/**
 * @file
 * Index-ordered parallel map: the one place the simulator starts
 * host threads.
 *
 * parallelMap(n, threads, fn) returns fn(0) ... fn(n-1) in index
 * order. Workers claim indices from one atomic counter and each call
 * writes only its own output slot, so there is no queue and no lock,
 * and the result does not depend on which worker ran which index:
 * the same bytes serial or threaded, the contract the campaign
 * runner (whole runs) and the eviction-pool build (per-class
 * extraction) rest on.
 *
 * The calling thread is one of the workers, so one thread (or one
 * index) runs everything inline on the caller. Every index runs even
 * when some throw; the exception of the lowest throwing index is
 * then rethrown, so which error surfaces is scheduling-independent
 * too.
 *
 * Lives in common/ (not harness/): the attack layer's pool build
 * uses it too, and the subsystem include DAG
 * (tools/lint/layering_lint.py) forbids attack -> harness includes.
 */

#ifndef PTH_COMMON_PARALLEL_HH
#define PTH_COMMON_PARALLEL_HH

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

namespace pth
{

/**
 * The worker count a request resolves to: 0 means one per hardware
 * thread (at least 1); any other count is taken as is. Shared by
 * parallelMap's threads and the --workers process pools.
 */
inline unsigned
resolveWorkers(unsigned requested)
{
    if (requested != 0)
        return requested;
    return std::max(1u, std::thread::hardware_concurrency());
}

/**
 * fn(0) ... fn(n-1) in index order, on up to resolveWorkers(threads)
 * threads including the caller. fn is called concurrently, so what
 * it shares across indices must be read-only or locked; its result
 * type must be default-constructible (and not bool:
 * std::vector<bool> packs neighbouring slots into one word).
 */
template <class F>
auto
parallelMap(std::size_t n, unsigned threads, F &&fn)
    -> std::vector<std::invoke_result_t<F &, std::size_t>>
{
    using R = std::invoke_result_t<F &, std::size_t>;
    static_assert(!std::is_same_v<R, bool>,
                  "vector<bool> slots share words across threads");
    std::vector<R> out(n);
    std::vector<std::exception_ptr> errors(n);
    std::atomic<std::size_t> next{0};
    auto work = [&] {
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                out[i] = fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    const std::size_t workers =
        std::min<std::size_t>(resolveWorkers(threads), n);
    std::vector<std::thread> helpers;
    helpers.reserve(workers);  // no reallocation once threads run
    try {
        for (std::size_t t = 1; t < workers; ++t)
            helpers.emplace_back(work);
    } catch (const std::system_error &) {
        // The host refused a thread: the ones already started (and
        // the caller) still claim every index, so only speed changes.
    }
    work();
    for (std::thread &helper : helpers)
        helper.join();

    for (const std::exception_ptr &error : errors)
        if (error)
            std::rethrow_exception(error);
    return out;
}

} // namespace pth

#endif // PTH_COMMON_PARALLEL_HH
