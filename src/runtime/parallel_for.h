#ifndef EQIMPACT_RUNTIME_PARALLEL_FOR_H_
#define EQIMPACT_RUNTIME_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

namespace eqimpact {
namespace runtime {

class ThreadPool;

/// Options for `ParallelFor`.
struct ParallelForOptions {
  /// Worker threads to use. 0 = ThreadPool::HardwareConcurrency();
  /// 1 = run inline on the calling thread (no pool, no locking).
  /// Ignored when `pool` is set.
  size_t num_threads = 0;

  /// Caller-owned persistent pool. When set, iterations are dispatched on
  /// this pool's workers (using all of them) instead of spawning a
  /// throwaway pool, which removes the per-call thread-creation cost for
  /// fine-grained inner loops (e.g. the credit engine's per-year chunk
  /// passes). A dispatch on the pool waits for every task there,
  /// including one queued before the call (and rethrows its exception);
  /// an inline run leaves such a task alone. ParallelFor never destroys
  /// the pool. Not owned; must outlive the call.
  ThreadPool* pool = nullptr;
};

/// Runs `body(i)` for every i in [0, count), distributing iterations
/// across `options.num_threads` workers.
///
/// Determinism contract: every iteration index is executed exactly once,
/// so a body that only reads shared immutable state and writes to a slot
/// owned by its index (e.g. `results[i] = Compute(i)`) produces output
/// bitwise-identical to the sequential loop regardless of thread count.
/// Iterations are handed out dynamically (an atomic cursor), so the
/// iteration -> thread assignment is NOT deterministic; per-iteration
/// state such as RNG streams must be derived from the index (see
/// seed_sequence.h), never from the worker thread.
///
/// Exceptions thrown by the body are propagated to the caller (first one
/// wins) after all in-flight iterations finish; remaining unstarted
/// iterations are abandoned.
///
/// Cost note: without `options.pool`, each call spawns (and joins) its
/// own ThreadPool, so the per-call overhead is a few thread creations —
/// negligible for trial workloads (>= milliseconds per iteration) but not
/// for fine-grained inner loops. Callers with such loops (the credit
/// engine's per-year chunk passes) construct one ThreadPool and pass it
/// via `options.pool`; the dispatch then costs one Submit per worker and
/// one Wait.
void ParallelFor(size_t count, const std::function<void(size_t)>& body,
                 const ParallelForOptions& options = ParallelForOptions());

/// Effective worker count `ParallelFor` would use for this options value.
size_t EffectiveNumThreads(const ParallelForOptions& options);

/// Number of `chunk_size`-sized chunks covering [0, count).
size_t NumChunks(size_t count, size_t chunk_size);

/// Runs `body(chunk, begin, end)` for every chunk [begin, end) of
/// [0, count) with at most `chunk_size` indices each, distributing the
/// chunks across workers like `ParallelFor`.
///
/// This is the library's ordered-reduction building block: a body that
/// accumulates into a slot owned by its chunk index
/// (`partials[chunk] = Accumulate(begin, end)`) can be folded over chunk
/// order sequentially afterwards, giving a reduction whose result is a
/// pure function of (count, chunk_size) — bitwise-identical at every
/// thread count, because neither the per-chunk accumulation order nor
/// the fold order ever depends on the worker assignment. Both the credit
/// engine's per-year passes and the logistic trainer's gradient/Hessian
/// accumulation reduce this way.
void ParallelForChunks(
    size_t count, size_t chunk_size,
    const std::function<void(size_t chunk, size_t begin, size_t end)>& body,
    const ParallelForOptions& options = ParallelForOptions());

}  // namespace runtime
}  // namespace eqimpact

#endif  // EQIMPACT_RUNTIME_PARALLEL_FOR_H_
