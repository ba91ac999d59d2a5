#include "harness/sweep.h"

#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

namespace rmc::harness {

namespace {

// FNV-1a, the usual 64-bit constants. Fast, dependency-free, and collision
// rates are irrelevant here: a false hit would need two *submitted* specs
// to collide within one process, across a keyspace of ~10^2 points.
constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

struct Hasher {
  std::uint64_t h = kFnvOffset;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    // Bit-pattern hash: the specs are built from literals and arithmetic,
    // never from parsed text, so equal parameters have equal bits.
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void b(bool v) { u64(v ? 1 : 0); }
};

void hash_link(Hasher& h, const net::LinkParams& link) {
  h.f64(link.rate_bps);
  h.i64(link.propagation);
  h.u64(link.queue_frames);
  h.f64(link.frame_error_rate);
  const sim::LinkFaults& f = link.faults;
  h.f64(f.burst.p_good_to_bad);
  h.f64(f.burst.p_bad_to_good);
  h.f64(f.burst.loss_good);
  h.f64(f.burst.loss_bad);
  h.f64(f.duplicate_rate);
  h.f64(f.reorder_rate);
  h.i64(f.reorder_delay);
  h.f64(f.tamper_rate);
}

void hash_cluster(Hasher& h, const inet::ClusterParams& c) {
  h.u64(c.n_hosts);
  h.u64(static_cast<std::uint64_t>(c.wiring));
  // The declarative topology overrides `wiring`; two specs differing only
  // here must never share a cache entry.
  h.b(c.topology.has_value());
  if (c.topology.has_value()) {
    const net::TopologySpec& t = *c.topology;
    h.u64(static_cast<std::uint64_t>(t.kind));
    h.u64(t.switch_a_hosts);
    h.u64(t.leaf_radix);
    h.u64(t.spine_count);
    h.u64(t.pod_leaves);
    h.u64(t.agg_per_pod);
    h.u64(t.core_count);
  }
  h.i64(c.host.send_syscall);
  h.f64(c.host.send_per_byte_ns);
  h.i64(c.host.send_per_fragment);
  h.i64(c.host.recv_syscall);
  h.f64(c.host.recv_per_byte_ns);
  h.i64(c.host.recv_per_fragment);
  h.i64(c.host.interrupt_per_frame);
  h.u64(c.host.default_rcvbuf_bytes);
  h.u64(c.host.default_sndbuf_bytes);
  h.i64(c.host.reassembly_timeout);
  hash_link(h, c.link);
  h.i64(c.switch_forwarding_latency);
  h.b(c.multicast_snooping);
  h.f64(c.bus.rate_bps);
  h.i64(c.bus.propagation);
  h.u64(c.bus.queue_frames);
  h.u64(static_cast<std::uint64_t>(c.bus.max_attempts));
  h.u64(static_cast<std::uint64_t>(c.bus.backoff_cap_exponent));
  h.u64(c.seed);
  h.u64(static_cast<std::uint64_t>(c.straggler_index));
  h.f64(c.straggler_cpu_factor);
}

void hash_protocol(Hasher& h, const rmcast::ProtocolConfig& p) {
  h.u64(static_cast<std::uint64_t>(p.kind));
  h.u64(p.packet_size);
  h.u64(p.window_size);
  h.u64(p.poll_interval);
  h.u64(p.tree_height);
  h.i64(p.rto);
  h.i64(p.suppress_interval);
  h.u64(p.max_retransmit_rounds);
  h.f64(p.rto_backoff_factor);
  h.i64(p.max_rto);
  h.i64(p.alloc_rto);
  h.i64(p.nak_interval);
  h.b(p.selective_repeat);
  h.b(p.multicast_nak_suppression);
  h.i64(p.nak_suppress_delay);
  h.b(p.unicast_nak_retransmissions);
  h.f64(p.rate_limit_bps);
  h.b(p.peer_repair);
  h.i64(p.repair_delay);
  h.b(p.receiver_driven_timeouts);
  h.i64(p.receiver_timeout);
  h.b(p.copy_user_data);
  h.f64(p.copy_ns_per_byte);
}

}  // namespace

std::uint64_t spec_fingerprint(const MulticastRunSpec& spec) {
  Hasher h;
  h.u64(spec.n_receivers);
  hash_protocol(h, spec.protocol);
  h.u64(spec.message_bytes);
  h.u64(spec.seed);
  hash_cluster(h, spec.cluster);
  h.i64(spec.time_limit);
  for (const sim::FaultEvent& e : spec.faults.events) {
    h.i64(e.at);
    h.u64(static_cast<std::uint64_t>(e.kind));
    h.u64(e.target);
  }
  h.u64(spec.faults.events.size());
  h.b(spec.verify_payload);
  return h.h;
}

// One unit of executable work. Multiple tickets may share a Job (cache
// hits); the job runs once, and each ticket folds its registry into the
// sink independently — as if the point had been re-run.
struct SweepRunner::Job {
  Task task;
  RunResult result;
  std::unique_ptr<metrics::Registry> metrics;  // private per-point registry
  std::unique_ptr<trace::Tracer> tracer;       // private per-point trace
  bool done = false;
  bool claimed = false;  // picked up by some worker (or the inline path)
  bool queued = false;   // sitting in some worker's deque
};

struct SweepRunner::Impl {
  Options options;
  std::size_t jobs = 1;

  std::mutex mu;
  std::condition_variable work_cv;  // workers: work available / stopping
  std::condition_variable done_cv;  // waiters: some job finished

  // Ticket -> job, in submission order. Distinct tickets may point at the
  // same Job.
  std::vector<std::shared_ptr<Job>> tickets;
  // Ticket -> trace label (only filled when a trace sink is configured).
  std::vector<std::string> labels;
  std::unordered_map<std::uint64_t, std::shared_ptr<Job>> cache;
  // Per-worker deques of pending jobs. Owner pops front, thieves pop back.
  std::vector<std::deque<std::shared_ptr<Job>>> queues;
  std::vector<std::thread> workers;
  std::size_t next_queue = 0;  // round-robin submission target
  // Tickets [0, fold_cursor) have had their metrics folded into the sink.
  std::size_t fold_cursor = 0;
  bool stopping = false;
  Stats stats;

  void run_job(Job& job) {
    metrics::Registry* reg = job.metrics.get();
    try {
      job.result = job.task(reg);
    } catch (const std::exception& e) {
      job.result = RunResult{};
      job.result.error = e.what();
    } catch (...) {
      job.result = RunResult{};
      job.result.error = "sweep task threw a non-exception object";
    }
  }

  // Folds the metrics of every finished ticket at the head of the order
  // into the sink. Caller holds `mu`. Tickets fold strictly in submission
  // order, so the sink accumulates exactly as a serial sweep would.
  void fold_ready() {
    if (options.metrics == nullptr && options.trace == nullptr) {
      fold_cursor = tickets.size();
      return;
    }
    while (fold_cursor < tickets.size() && tickets[fold_cursor]->done) {
      Job& job = *tickets[fold_cursor];
      if (options.metrics != nullptr && job.metrics) {
        options.metrics->merge(*job.metrics);
      }
      // Cache-hit tickets append a copy per ticket, exactly as if the
      // point had been re-run serially.
      if (options.trace != nullptr && job.tracer) {
        options.trace->append(labels[fold_cursor], *job.tracer);
      }
      ++fold_cursor;
    }
  }

  void worker_loop(std::size_t index) {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      std::shared_ptr<Job> job;
      // Own deque first (front), then steal from a victim (back).
      if (!queues[index].empty()) {
        job = std::move(queues[index].front());
        queues[index].pop_front();
      } else {
        for (std::size_t v = 1; v < queues.size() && !job; ++v) {
          std::deque<std::shared_ptr<Job>>& victim =
              queues[(index + v) % queues.size()];
          if (!victim.empty()) {
            job = std::move(victim.back());
            victim.pop_back();
            ++stats.steals;
          }
        }
      }
      if (!job) {
        if (stopping) return;
        work_cv.wait(lock);
        continue;
      }
      job->queued = false;
      job->claimed = true;
      ++stats.executed;
      lock.unlock();
      run_job(*job);
      lock.lock();
      job->done = true;
      fold_ready();
      done_cv.notify_all();
    }
  }

  Ticket enqueue(std::shared_ptr<Job> job, std::string label = {}) {
    Ticket ticket;
    bool run_inline = false;
    {
      std::lock_guard<std::mutex> lock(mu);
      ticket = tickets.size();
      tickets.push_back(job);
      if (options.trace != nullptr) {
        labels.push_back(label.empty() ? "point" + std::to_string(ticket)
                                       : std::move(label));
      }
      ++stats.submitted;
      if (job->done) {
        // Cache hit on an already-finished job: fold it through (or let
        // fold_ready advance past it when its turn comes).
        fold_ready();
        done_cv.notify_all();
        return ticket;
      }
      if (jobs > 1) {
        // Cache hit on a job some worker already holds or has queued:
        // nothing to schedule, the ticket resolves when the job finishes.
        if (!job->claimed && !job->queued) {
          job->queued = true;
          queues[next_queue].push_back(job);
          next_queue = (next_queue + 1) % queues.size();
          work_cv.notify_one();
        }
        return ticket;
      }
      // Serial mode: no workers exist, so a not-done job must be new
      // (every prior job finished inline before its submit returned).
      job->claimed = true;
      ++stats.executed;
      run_inline = true;
    }
    // Execute inline at submit, exactly like the pre-parallel harness
    // (same order, same thread).
    if (run_inline) {
      run_job(*job);
      std::lock_guard<std::mutex> lock(mu);
      job->done = true;
      fold_ready();
    }
    return ticket;
  }

  void wait(Ticket ticket) {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] {
      return tickets[ticket]->done && fold_cursor > ticket;
    });
  }

  void wait_all_folded() {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return fold_cursor == tickets.size(); });
  }
};

SweepRunner::SweepRunner(Options options) : impl_(std::make_unique<Impl>()) {
  std::size_t jobs = options.jobs;
  if (jobs == 0) {
    jobs = std::thread::hardware_concurrency();
    if (jobs == 0) jobs = 1;
  }
  jobs_ = jobs;
  impl_->options = options;
  impl_->jobs = jobs;
  if (jobs > 1) {
    impl_->queues.resize(jobs);
    impl_->workers.reserve(jobs);
    for (std::size_t i = 0; i < jobs; ++i) {
      impl_->workers.emplace_back([this, i] { impl_->worker_loop(i); });
    }
  }
}

SweepRunner::~SweepRunner() {
  impl_->wait_all_folded();
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    impl_->stopping = true;
  }
  impl_->work_cv.notify_all();
  for (std::thread& t : impl_->workers) t.join();
}

SweepRunner::Ticket SweepRunner::submit(const MulticastRunSpec& spec,
                                        std::string trace_label) {
  auto make_job = [&] {
    auto job = std::make_shared<Job>();
    if (impl_->options.metrics != nullptr) {
      job->metrics = std::make_unique<metrics::Registry>();
    }
    if (impl_->options.trace != nullptr) {
      job->tracer = std::make_unique<trace::Tracer>();
    }
    MulticastRunSpec point = spec;
    trace::Tracer* tracer = job->tracer.get();
    job->task = [point, tracer](metrics::Registry* reg) {
      MulticastRunSpec s = point;
      s.metrics = reg;
      if (tracer != nullptr) s.tracer = tracer;
      return run_multicast(s);
    };
    return job;
  };

  // Caller-owned trace pointers are out-of-band outputs a cached result
  // cannot replay. The runner's own per-job tracers are fine: a cache hit
  // folds a copy of the shared job's trace per ticket.
  const bool cacheable = impl_->options.cache && spec.tracer == nullptr;
  std::shared_ptr<Job> job;
  if (cacheable) {
    const std::uint64_t fp = spec_fingerprint(spec);
    std::lock_guard<std::mutex> lock(impl_->mu);
    std::shared_ptr<Job>& slot = impl_->cache[fp];
    if (slot) {
      ++impl_->stats.cache_hits;
      job = slot;
    } else {
      job = make_job();
      slot = job;
    }
  } else {
    job = make_job();
  }
  return impl_->enqueue(std::move(job), std::move(trace_label));
}

SweepRunner::Ticket SweepRunner::submit_task(Task task) {
  auto job = std::make_shared<Job>();
  job->task = std::move(task);
  if (impl_->options.metrics != nullptr) {
    job->metrics = std::make_unique<metrics::Registry>();
  }
  return impl_->enqueue(std::move(job));
}

const RunResult& SweepRunner::result(Ticket ticket) {
  impl_->wait(ticket);
  return impl_->tickets[ticket]->result;
}

void SweepRunner::wait_all() { impl_->wait_all_folded(); }

SweepRunner::Stats SweepRunner::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  return impl_->stats;
}

}  // namespace rmc::harness
