// SessionPool — concurrent query serving over one immutable graph snapshot.
//
// BANKS is an interactive system: many users fire keyword queries at one
// database at once. PR 2 made every search a resumable stepper with a
// per-run Budget; the pool multiplexes an unbounded set of those steppers
// over a fixed set of worker threads, cooperatively:
//
//   auto& pool = engine.pool();                  // starts workers lazily
//   auto handle = pool.Submit({.text = "soumen sunita",
//                              .budget = Budget::WithTimeout(50ms)});
//   for (const auto& tree : handle.value().NextBatch(10))
//     std::cout << engine.Render(tree);          // blocks as workers pump
//
// Scheduling: every worker owns a deadline-ordered shard of the run queue
// (WorkStealingScheduler). A worker pops the best runnable session from
// its own shard — stealing the most urgent one from the most-loaded peer
// when its shard is empty — pumps the session's stepper for one adaptive
// quantum, publishes the slice's answers to the session's handle in one
// batch, and requeues it on its own shard (sessions are worker-affine:
// a long query keeps its frontier hot in one core's cache). Quanta start
// small (`initial_quantum`, fast first answer) and grow geometrically to
// `step_quantum` while a session keeps running, so cheap queries stay
// snappy and long queries amortize scheduling to near zero. Deadlines are
// enforced twice — as shard-local scheduling priority and as hard Budget
// truncation inside the stepper.
//
// Admission: at most `max_active` sessions are runnable at once; the next
// `max_waiting` wait in FIFO order; beyond that Submit rejects. The caps
// bound memory and keep latency predictable under overload.
//
// Thread-safety: the pool relies on the engine's read path being an
// immutable snapshot per session — each QuerySession captures the
// LiveState pieces (graph snapshot + delta overlays) it was opened on and
// confines its mutable stepper state to one worker at a time, handed off
// through the scheduler's shard locks (a steal migrates a session wholly;
// it never shares one). Concurrent execution therefore returns *exactly*
// the answers a serial run returns, and an engine-side mutation or
// refreeze swap mid-run never perturbs sessions already open (see
// src/update/): PoolStats reports the epoch new submissions land on.
#ifndef BANKS_SERVER_SESSION_POOL_H_
#define BANKS_SERVER_SESSION_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/query_request.h"
#include "server/scheduler.h"
#include "server/session_handle.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace banks {
class BanksEngine;
}  // namespace banks

namespace banks::server {

/// Pool sizing and scheduling knobs.
struct PoolOptions {
  /// Worker threads pumping sessions. 0 = hardware concurrency.
  size_t num_workers = 0;

  /// *Maximum* stepper iterations one worker spends on a session before
  /// the scheduler re-evaluates. A session's quantum starts at
  /// `initial_quantum` and grows by `quantum_growth` per consecutive
  /// slice up to this cap, so this knob bounds the preemption (and
  /// cancellation) latency for long-running sessions. Setting it at or
  /// below `initial_quantum` yields a fixed quantum (what tests use to
  /// force constant preemption).
  size_t step_quantum = 65536;

  /// First-slice quantum: small, so a fresh session reaches its first
  /// answer (and its first deadline check) quickly. Clamped to
  /// `step_quantum`.
  size_t initial_quantum = 512;

  /// Geometric per-slice quantum growth factor for sessions that keep
  /// running (1 = fixed quantum).
  size_t quantum_growth = 4;

  /// Admission cap: sessions runnable at once. Bounds the working set.
  size_t max_active = 64;

  /// Bounded FIFO wait queue behind the admission cap; a Submit beyond
  /// both caps is rejected with StatusCode::kOverloaded (the HTTP tier
  /// maps it straight to 429).
  size_t max_waiting = 1024;
};

/// Monotone counters plus instantaneous gauges (active/waiting).
struct PoolStats {
  size_t submitted = 0;   ///< sessions accepted by Submit
  size_t rejected = 0;    ///< Submits refused (queue full / shut down)
  size_t completed = 0;   ///< sessions finished (any reason)
  size_t cancelled = 0;   ///< ... of which by Cancel or shutdown
  size_t deadline_truncated = 0;  ///< ... of which stopped by their deadline
  size_t slices = 0;      ///< scheduling quanta executed
  size_t active = 0;      ///< currently runnable or running
  size_t waiting = 0;     ///< currently queued behind the admission cap

  // Scheduler counters (slices == local_pops + steals): how the sharded
  // run queue behaved, and what the batched answer path amortized.
  size_t local_pops = 0;  ///< slices whose task came from the worker's shard
  size_t steals = 0;      ///< slices whose task was stolen from a peer shard
  size_t publishes = 0;   ///< answer-buffer publications (>=1 answer each)
  size_t answers_published = 0;  ///< answers published (/publishes = batch)
  uint64_t quantum_steps = 0;    ///< granted quanta summed (/slices = avg)

  // Live-update gauges (src/update/), sampled from the engine at stats()
  // time: which snapshot generation new submissions land on, and how much
  // delta they carry. Sessions already running may span older epochs —
  // they finish on the snapshot they opened with.
  uint64_t engine_epoch = 0;       ///< current refreeze generation
  uint64_t pending_mutations = 0;  ///< deltas awaiting the next refreeze

  // Query-cache gauges (src/server/query_cache.h), sampled from the engine
  // at stats() time; all zero when the cache is disabled.
  uint64_t cache_hits = 0;             ///< answer-entry hits (prefilled)
  uint64_t cache_misses = 0;           ///< answer probes with no entry
  uint64_t cache_invalidations = 0;    ///< stale answer entries on probe
  uint64_t cache_resolution_hits = 0;  ///< keyword-resolution reuse
  uint64_t cache_resolution_invalidations = 0;  ///< stale resolutions
  uint64_t cache_coalesced = 0;  ///< concurrent misses joined onto one run

  // Snapshot persistence gauges (src/snapshot/), sampled from the engine:
  // the last epoch file written (SaveSnapshot / refreeze rotation) or
  // loaded (BanksEngine::FromSnapshot) and its size. Zero when snapshot
  // persistence is not in use.
  uint64_t snapshot_epoch = 0;
  uint64_t snapshot_bytes = 0;
};

/// Fixed set of worker threads multiplexing concurrent QuerySessions.
class SessionPool {
 public:
  /// Starts `options.num_workers` workers. The engine must outlive the
  /// pool (BanksEngine::pool() ties the two lifetimes together).
  explicit SessionPool(const BanksEngine& engine, PoolOptions options = {});

  /// Cancels every outstanding session and joins the workers.
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Opens a session (keyword resolution runs on the calling thread) and
  /// schedules it. Fails on bad queries (kInvalidArgument) and on
  /// overload (kOverloaded).
  Result<SessionHandle> Submit(const QueryRequest& request);

  /// Schedules a pre-opened session (its Budget's deadline becomes the
  /// scheduling priority). Fails on overload.
  Result<SessionHandle> Submit(QuerySession session);

  /// Cancels outstanding sessions, wakes every blocked handle, joins the
  /// workers. Idempotent; also safe to call concurrently.
  void Shutdown();

  size_t num_workers() const { return workers_.size(); }
  const PoolOptions& options() const { return options_; }

  /// Snapshot of the pool counters.
  PoolStats stats() const;

 private:
  /// Per-worker counters, written only by the owning worker (relaxed
  /// atomics so stats() may read concurrently), cache-line padded so two
  /// workers' hot increments never share a line.
  struct alignas(64) WorkerCounters {
    std::atomic<uint64_t> slices{0};
    std::atomic<uint64_t> local_pops{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> publishes{0};
    std::atomic<uint64_t> answers_published{0};
    std::atomic<uint64_t> quantum_steps{0};
  };

  void WorkerLoop(size_t me);

  /// Outcome of one scheduling slice, classified for the counters.
  struct SliceResult {
    bool finished = false;
    bool cancelled = false;
    bool deadline_truncated = false;
    size_t answers_published = 0;
  };

  /// Pumps `task` for one quantum without holding any scheduler lock;
  /// publishes the slice's answers to the task's handle side in one batch
  /// and grows the task's quantum.
  SliceResult RunSlice(ServerTask& task);

  /// Marks a task finished (optionally as cancelled) and wakes waiters.
  static void FinishTask(ServerTask& task, bool cancelled);

  /// Retires a finished/cancelled slice: admission bookkeeping under mu_,
  /// then FinishTask.
  void RetireTask(const std::shared_ptr<ServerTask>& task,
                  const SliceResult& result);

  /// Moves waiting sessions into the run queue while capacity remains.
  void AdmitLocked() BANKS_REQUIRES(mu_);

  /// Wakes one sleeping worker if any (the push-side half of the
  /// lost-wakeup handshake; see WorkerLoop's idle path). Taps mu_, so the
  /// caller must not hold it.
  void WakeOneIfSleeping() BANKS_EXCLUDES(mu_);

  const BanksEngine* engine_;
  PoolOptions options_;

  WorkStealingScheduler sched_;
  std::vector<WorkerCounters> worker_counters_;

  /// Admission + completion state. Ordering: mu_ may be held while taking
  /// a scheduler shard lock (Submit/Shutdown push and drain under mu_);
  /// never the reverse — workers requeue without holding mu_.
  mutable util::Mutex mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<ServerTask>> waiting_ BANKS_GUARDED_BY(mu_);
  size_t active_ BANKS_GUARDED_BY(mu_) = 0;
  uint64_t next_seq_ BANKS_GUARDED_BY(mu_) = 0;
  bool stopping_ BANKS_GUARDED_BY(mu_) = false;
  PoolStats counters_ BANKS_GUARDED_BY(mu_);
  /// Workers currently blocked on work_cv_. seq_cst ops pair with the
  /// scheduler's total_load so a push never misses a sleeper.
  std::atomic<size_t> sleepers_{0};

  util::Mutex shutdown_mu_;      // serialises Shutdown callers (join once)
  std::vector<std::thread> workers_;
};

}  // namespace banks::server

#endif  // BANKS_SERVER_SESSION_POOL_H_
