#include "harness/sweep.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rmc::harness {

// One submitted ticket: its work, its result and its private outputs.
struct SweepRunner::Job {
  Task task;
  RunResult result;
  std::unique_ptr<metrics::Registry> metrics;  // private per-point registry
  std::unique_ptr<trace::Tracer> tracer;       // private per-point trace
  std::string label;                           // name in the trace log
  bool done = false;
};

struct SweepRunner::Impl {
  Options options;

  std::mutex mu;
  std::condition_variable work_cv;  // workers: work available / stopping
  std::condition_variable done_cv;  // waiters: some job finished

  // Ticket -> job, in submission order.
  std::vector<std::unique_ptr<Job>> tickets;
  // Jobs not yet picked up by a worker, oldest first.
  std::deque<Job*> pending;
  std::vector<std::thread> workers;
  // Tickets [0, fold_cursor) have had their outputs folded into the sinks.
  std::size_t fold_cursor = 0;
  bool stopping = false;

  static void run_job(Job& job) {
    try {
      job.result = job.task(job.metrics.get());
    } catch (const std::exception& e) {
      job.result = RunResult{};
      job.result.error = e.what();
    } catch (...) {
      job.result = RunResult{};
      job.result.error = "sweep task threw a non-exception object";
    }
  }

  // Folds the outputs of every finished ticket at the head of the order
  // into the sinks. Caller holds `mu`. Tickets fold strictly in submission
  // order, so the sinks accumulate exactly as a serial sweep would.
  void fold_ready() {
    while (fold_cursor < tickets.size() && tickets[fold_cursor]->done) {
      Job& job = *tickets[fold_cursor];
      if (options.metrics != nullptr && job.metrics) options.metrics->merge(*job.metrics);
      if (options.trace != nullptr && job.tracer) options.trace->append(job.label, *job.tracer);
      ++fold_cursor;
    }
  }

  void worker_loop() {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      work_cv.wait(lock, [&] { return stopping || !pending.empty(); });
      if (pending.empty()) return;
      Job* job = pending.front();
      pending.pop_front();
      lock.unlock();
      run_job(*job);
      lock.lock();
      job->done = true;
      fold_ready();
      done_cv.notify_all();
    }
  }

  std::unique_ptr<Job> make_job(Task task) {
    auto job = std::make_unique<Job>();
    job->task = std::move(task);
    if (options.metrics != nullptr) job->metrics = std::make_unique<metrics::Registry>();
    return job;
  }

  Ticket enqueue(std::unique_ptr<Job> job, std::string label) {
    std::lock_guard<std::mutex> lock(mu);
    const Ticket ticket = tickets.size();
    if (options.trace != nullptr) {
      job->label = label.empty() ? "point" + std::to_string(ticket) : std::move(label);
    }
    pending.push_back(job.get());
    tickets.push_back(std::move(job));
    work_cv.notify_one();
    return ticket;
  }
};

SweepRunner::SweepRunner(Options options) : impl_(std::make_unique<Impl>()) {
  std::size_t jobs = options.jobs;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  impl_->options = options;
  impl_->workers.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
  }
}

SweepRunner::~SweepRunner() {
  wait_all();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

SweepRunner::Ticket SweepRunner::submit(const MulticastRunSpec& spec,
                                        std::string trace_label) {
  std::unique_ptr<trace::Tracer> tracer;
  if (impl_->options.trace != nullptr) tracer = std::make_unique<trace::Tracer>();
  std::unique_ptr<Job> job = impl_->make_job(
      [point = spec, tracer = tracer.get()](metrics::Registry* reg) mutable {
        point.metrics = reg;
        if (tracer != nullptr) point.tracer = tracer;
        return run_multicast(point);
      });
  job->tracer = std::move(tracer);
  return impl_->enqueue(std::move(job), std::move(trace_label));
}

SweepRunner::Ticket SweepRunner::submit_task(Task task) {
  return impl_->enqueue(impl_->make_job(std::move(task)), {});
}

const RunResult& SweepRunner::result(Ticket ticket) {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(lock, [&] { return impl_->fold_cursor > ticket; });
  return impl_->tickets[ticket]->result;
}

void SweepRunner::wait_all() {
  std::unique_lock<std::mutex> lock(impl_->mu);
  impl_->done_cv.wait(lock, [&] { return impl_->fold_cursor == impl_->tickets.size(); });
}

}  // namespace rmc::harness
