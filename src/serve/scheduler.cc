#include "serve/scheduler.h"

#include <algorithm>
#include <utility>

#include "base/check.h"

namespace eqimpact {
namespace serve {

Scheduler::Scheduler(const SchedulerOptions& options) : options_(options) {
  EQIMPACT_CHECK_GT(options.num_workers, 0u);
  const size_t total = options.total_threads > 0
                           ? options.total_threads
                           : runtime::ThreadPool::HardwareConcurrency();
  // The largest per-job share that keeps workers x job_threads within
  // the total (at least one thread per job).
  job_threads_ =
      std::max<size_t>(total / std::min(total, options.num_workers), 1);
  pool_.reset(new runtime::ThreadPool(options.num_workers));
}

Scheduler::~Scheduler() { Shutdown(); }

Admission Scheduler::Submit(Job job) {
  EQIMPACT_CHECK(job != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) return Admission::kShuttingDown;
    if (in_flight_ >= options_.num_workers + options_.queue_capacity) {
      return Admission::kQueueFull;
    }
    ++in_flight_;
  }
  pool_->Submit([this, job = std::move(job)]() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++executing_;
    }
    bool failed = false;
    try {
      job(job_threads_);
    } catch (...) {
      // A job failure is the job's problem, never the service's: the
      // service layer reports kInternal to the submitting client; the
      // scheduler only counts it.
      failed = true;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --executing_;
      --in_flight_;
      if (failed) ++failed_;
      if (in_flight_ == 0) drained_.notify_all();
    }
  });
  return Admission::kAccepted;
}

void Scheduler::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock, [this] { return in_flight_ == 0; });
}

void Scheduler::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  Drain();
}

size_t Scheduler::in_flight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

size_t Scheduler::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_ - executing_;
}

size_t Scheduler::failed_jobs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

}  // namespace serve
}  // namespace eqimpact
