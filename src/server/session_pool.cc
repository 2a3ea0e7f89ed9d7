#include "server/session_pool.h"

#include <algorithm>
#include <utility>

#include "core/banks.h"
#include "server/query_cache.h"

namespace banks::server {

namespace {

PoolOptions Normalize(PoolOptions options) {
  if (options.num_workers == 0) {
    options.num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  options.step_quantum = std::max<size_t>(1, options.step_quantum);
  options.initial_quantum = std::max<size_t>(
      1, std::min(options.initial_quantum, options.step_quantum));
  options.quantum_growth = std::max<size_t>(1, options.quantum_growth);
  options.max_active = std::max<size_t>(1, options.max_active);
  return options;
}

}  // namespace

SessionPool::SessionPool(const BanksEngine& engine, PoolOptions options)
    : engine_(&engine),
      options_(Normalize(options)),
      sched_(options_.num_workers),
      worker_counters_(options_.num_workers) {
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

SessionPool::~SessionPool() { Shutdown(); }

Result<SessionHandle> SessionPool::Submit(const QueryRequest& request) {
  // Keyword resolution runs on the submitting thread (a pure read of the
  // engine's immutable indexes), so workers only ever pump steppers.
  auto session = engine_->OpenSession(request);
  if (!session.ok()) return session.status();
  return Submit(std::move(session).value());
}

Result<SessionHandle> SessionPool::Submit(QuerySession session) {
  auto task = std::make_shared<ServerTask>();
  task->deadline = session.budget().deadline;
  task->parsed = session.parsed();
  task->dropped_terms = session.dropped_terms();
  task->session = std::move(session);
  task->quantum = options_.initial_quantum;

  {
    util::MutexLock lock(&mu_);
    if (stopping_) {
      ++counters_.rejected;
      return Status::FailedPrecondition("session pool is shut down");
    }
    task->seq = next_seq_++;
    if (active_ < options_.max_active) {
      ++active_;
      ++counters_.submitted;
      sched_.PushBalanced(task);  // cannot fail: sched stops under mu_ too
      work_cv_.notify_one();
    } else if (waiting_.size() < options_.max_waiting) {
      ++counters_.submitted;
      waiting_.push_back(task);
    } else {
      ++counters_.rejected;
      return Status::Overloaded(
          "session pool overloaded: admission queue full (" +
          std::to_string(options_.max_active) + " active + " +
          std::to_string(options_.max_waiting) + " waiting)");
    }
  }
  return SessionHandle(std::move(task));
}

void SessionPool::AdmitLocked() {
  if (stopping_) return;  // Shutdown owns the waiting queue now
  while (active_ < options_.max_active && !waiting_.empty()) {
    std::shared_ptr<ServerTask> task = std::move(waiting_.front());
    waiting_.pop_front();
    ++active_;
    sched_.PushBalanced(task);
    work_cv_.notify_one();
  }
}

void SessionPool::WakeOneIfSleeping() {
  if (sleepers_.load() == 0) return;  // seq_cst: pairs with total_load push
  // Tap the mutex so a worker between its predicate check and its block
  // cannot miss the notify (it either sees the new load or is fully
  // waiting by the time we notify).
  { util::MutexLock lock(&mu_); }
  work_cv_.notify_one();
}

void SessionPool::WorkerLoop(size_t me) {
  WorkerCounters& wc = worker_counters_[me];
  for (;;) {
    std::shared_ptr<ServerTask> task = sched_.PopLocal(me);
    bool stolen = false;
    if (task == nullptr) {
      task = sched_.Steal(me);
      stolen = task != nullptr;
    }
    if (task == nullptr) {
      // Explicit wait loop (not the lambda-predicate overload) so the
      // thread-safety analysis sees the guarded `stopping_` read under
      // mu_; see the note atop session_handle.cc.
      util::MutexLock lock(&mu_);
      sleepers_.fetch_add(1);  // seq_cst: see WakeOneIfSleeping
      while (!stopping_ && sched_.total_load() == 0) {
        work_cv_.wait(lock.native());
      }
      sleepers_.fetch_sub(1);
      if (stopping_) return;
      continue;
    }

    wc.slices.fetch_add(1, std::memory_order_relaxed);
    (stolen ? wc.steals : wc.local_pops)
        .fetch_add(1, std::memory_order_relaxed);
    wc.quantum_steps.fetch_add(task->quantum, std::memory_order_relaxed);

    SliceResult result = RunSlice(*task);
    if (result.answers_published > 0) {
      wc.publishes.fetch_add(1, std::memory_order_relaxed);
      wc.answers_published.fetch_add(result.answers_published,
                                     std::memory_order_relaxed);
    }

    if (!result.finished) {
      // Requeue on our own shard: the session stays affine to this worker
      // until a peer steals it. A failed push means Shutdown drained the
      // scheduler under us — the task is ours to retire as cancelled.
      if (sched_.Push(me, task)) {
        if (sched_.load(me) > 1) WakeOneIfSleeping();  // stealable backlog
        continue;
      }
      result.finished = true;
      result.cancelled = true;
    }
    RetireTask(task, result);
  }
}

void SessionPool::RetireTask(const std::shared_ptr<ServerTask>& task,
                             const SliceResult& result) {
  {
    // Counters first, then the task-visible finished flag — so once a
    // handle's Wait() returns, stats() already reflects this session.
    util::MutexLock lock(&mu_);
    --active_;
    ++counters_.completed;
    if (result.cancelled) ++counters_.cancelled;
    if (result.deadline_truncated) ++counters_.deadline_truncated;
    AdmitLocked();
  }
  FinishTask(*task, result.cancelled);
}

SessionPool::SliceResult SessionPool::RunSlice(ServerTask& task) {
  SliceResult result;
  if (task.cancel_requested.load(std::memory_order_acquire)) {
    task.session.Cancel();  // confined teardown; WorkerLoop retires us
    result.finished = true;
    result.cancelled = true;
    return result;
  }

  // One core-side call pumps the whole quantum and buffers every answer
  // the slice produces (see QuerySession::PumpMany) — the publication
  // below is the slice's only handle-lock crossing.
  std::vector<ScoredAnswer> produced;
  const size_t steps_before = task.steps;
  PumpOutcome outcome = task.session.PumpMany(task.quantum, &produced);
  task.steps = task.session.pump_steps();
  const bool exhausted = outcome == PumpOutcome::kExhausted;
  if (!exhausted && task.steps <= steps_before) {
    // Zero-progress yield: a prefilled (cache-hit) replay, or a slice that
    // only delivered answers already buffered, does no stepper work, so
    // charge the granted quantum anyway — otherwise the
    // least-attained-service tiebreak keeps scheduling that session ahead
    // of sessions that are expanding the graph.
    task.steps = steps_before + task.quantum;
  }
  task.quantum =
      std::min(options_.step_quantum, task.quantum * options_.quantum_growth);
  if (exhausted &&
      task.session.stats().truncation == Truncation::kDeadline) {
    result.deadline_truncated = true;
  }

  {
    util::MutexLock lock(&task.mu);
    // A cancel may have landed mid-slice; honour it rather than publish.
    if (task.cancel_requested.load(std::memory_order_acquire)) {
      produced.clear();
    } else {
      result.answers_published = produced.size();
      for (auto& a : produced) task.ready.push_back(std::move(a));
    }
    task.stats = task.session.stats();
    if (!task.ready.empty()) task.cv.notify_all();
  }
  // The finished flag is set by WorkerLoop (via FinishTask) after the
  // pool counters are final, so Wait()+stats() never race.
  result.finished = exhausted;
  return result;
}

void SessionPool::FinishTask(ServerTask& task, bool cancelled) {
  util::MutexLock lock(&task.mu);
  task.stats = task.session.stats();
  task.finished = true;
  task.cancelled = cancelled;
  task.cv.notify_all();
}

void SessionPool::Shutdown() {
  util::MutexLock shutdown_lock(&shutdown_mu_);
  std::vector<std::shared_ptr<ServerTask>> orphans;
  {
    util::MutexLock lock(&mu_);
    stopping_ = true;
    // Stop the scheduler first (under mu_, so no Submit can interleave),
    // then drain it: a worker mid-slice either requeued before the drain
    // (its task is in `orphans`) or its requeue fails and it retires the
    // task itself. active_ stays consistent either way.
    sched_.RequestStop();
    orphans = sched_.DrainAll();
    active_ -= orphans.size();
    for (auto& task : waiting_) orphans.push_back(std::move(task));
    waiting_.clear();
    counters_.cancelled += orphans.size();
    counters_.completed += orphans.size();
    work_cv_.notify_all();
  }
  // No worker owns these tasks any more (they were still queued), so the
  // sessions are safe to retire from here.
  for (auto& task : orphans) FinishTask(*task, /*cancelled=*/true);
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

PoolStats SessionPool::stats() const {
  PoolStats snapshot;
  {
    util::MutexLock lock(&mu_);
    snapshot = counters_;
    snapshot.active = active_;
    snapshot.waiting = waiting_.size();
  }
  for (const WorkerCounters& wc : worker_counters_) {
    snapshot.slices += wc.slices.load(std::memory_order_relaxed);
    snapshot.local_pops += wc.local_pops.load(std::memory_order_relaxed);
    snapshot.steals += wc.steals.load(std::memory_order_relaxed);
    snapshot.publishes += wc.publishes.load(std::memory_order_relaxed);
    snapshot.answers_published +=
        wc.answers_published.load(std::memory_order_relaxed);
    snapshot.quantum_steps +=
        wc.quantum_steps.load(std::memory_order_relaxed);
  }
  // Engine state is sampled outside mu_ (it takes the engine's state
  // lock; never nest the two).
  snapshot.engine_epoch = engine_->epoch();
  snapshot.pending_mutations = engine_->pending_mutations();
  const QueryCacheStats cache = engine_->query_cache_stats();
  snapshot.cache_hits = cache.hits;
  snapshot.cache_misses = cache.misses;
  snapshot.cache_invalidations = cache.invalidations;
  snapshot.snapshot_epoch = engine_->snapshot_epoch();
  snapshot.snapshot_bytes = engine_->snapshot_bytes();
  return snapshot;
}

}  // namespace banks::server
