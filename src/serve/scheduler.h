#ifndef EQIMPACT_SERVE_SCHEDULER_H_
#define EQIMPACT_SERVE_SCHEDULER_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>

#include "runtime/thread_pool.h"

namespace eqimpact {
namespace serve {

/// Scheduler configuration: the serving-side resource knobs.
struct SchedulerOptions {
  /// Concurrent job executions (the shared pool's worker count).
  size_t num_workers = 2;
  /// Bounded FIFO admission queue: at most this many *waiting* jobs
  /// beyond the ones executing. A submission past num_workers +
  /// queue_capacity in flight is rejected (typed kQueueFull upstream) —
  /// production backpressure instead of unbounded memory growth.
  size_t queue_capacity = 16;
  /// Total simulation-thread budget split across the workers; each job
  /// receives max(total / min(total, workers), 1) threads for its own
  /// nested (trial/chunk) parallelism. 0 = hardware concurrency. Thread
  /// budgets never move result bits.
  size_t total_threads = 0;
};

/// Admission verdict of Scheduler::Submit.
enum class Admission {
  kAccepted,      ///< Queued (or started) — the job will run.
  kQueueFull,     ///< Bounded queue at capacity; resubmit later.
  kShuttingDown,  ///< Drain in progress; no new work.
};

/// Budgeted-nested-parallelism job scheduler of the experiment service:
/// a bounded FIFO of experiment jobs executing on one shared
/// runtime::ThreadPool, with admission control (reject-on-full instead
/// of unbounded queueing) and a nested per-job thread budget (jobs as
/// the outer level, each job's trial/chunk fan-out as the inner). FIFO
/// order is the pool's dispatch order; jobs are independent, so
/// ordering affects latency only, never result bits.
class Scheduler {
 public:
  /// The job callable; receives the per-job inner thread budget.
  using Job = std::function<void(size_t job_threads)>;

  explicit Scheduler(const SchedulerOptions& options);
  /// Drains accepted jobs before destruction.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Admits `job` if the queue has room; kAccepted means the job will
  /// execute (exceptions it throws are swallowed and counted — a job
  /// failure must never take the service down).
  Admission Submit(Job job);

  /// Blocks until every accepted job has finished.
  void Drain();

  /// Rejects all further submissions (kShuttingDown) and drains the
  /// in-flight ones — the SIGTERM path. Idempotent.
  void Shutdown();

  /// Jobs accepted but not yet finished (executing + queued).
  size_t in_flight() const;
  /// Jobs accepted and waiting (in_flight minus the executing ones,
  /// capped at the worker count) — the "queue_depth" the protocol
  /// reports on admission.
  size_t queue_depth() const;
  /// The per-job inner thread budget every job receives.
  size_t job_threads() const { return job_threads_; }
  size_t num_workers() const { return options_.num_workers; }
  /// Jobs whose callable threw (swallowed; service reports kInternal).
  size_t failed_jobs() const;

 private:
  const SchedulerOptions options_;
  size_t job_threads_ = 1;
  mutable std::mutex mutex_;
  std::condition_variable drained_;
  size_t in_flight_ = 0;
  size_t executing_ = 0;
  size_t failed_ = 0;
  bool shutting_down_ = false;
  /// Last member: its destructor joins the workers while the members
  /// above are still alive for the in-flight jobs' bookkeeping.
  std::unique_ptr<runtime::ThreadPool> pool_;
};

}  // namespace serve
}  // namespace eqimpact

#endif  // EQIMPACT_SERVE_SCHEDULER_H_
