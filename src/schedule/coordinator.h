#ifndef PRESTOCPP_SCHEDULE_COORDINATOR_H_
#define PRESTOCPP_SCHEDULE_COORDINATOR_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "connector/connector.h"
#include "exec/task.h"
#include "fragment/fragmenter.h"
#include "schedule/cluster.h"
#include "schedule/speculation.h"
#include "schedule/task_recovery.h"
#include "stats/metrics_registry.h"
#include "stats/query_stats.h"
#include "worker/task_client.h"

namespace presto {

class MetadataManager;

/// Shortest-queue split assignment (§IV-D3) restricted to tasks whose
/// worker is alive and which actually own a split queue for `node_id`.
/// Errors when no candidate exists — the pre-ISSUE-7 code silently fell
/// back to task index 0 then, quietly feeding splits to a task that could
/// be sitting on a dead worker.
Result<int> ChooseSplitTarget(
    const std::vector<std::shared_ptr<TaskClient>>& tasks, int node_id);

/// A query's control thread: runs its background slot jobs — recovery
/// rounds (§13), replica-win promotions and the periodic speculation tick
/// (§15) — one at a time, in arrival order. The thread starts with the
/// first job or with StartTicking(). Jobs run without the queue's lock
/// held, so they may block on coordinator mutexes or enqueue more jobs.
class ControlQueue {
 public:
  using Job = std::function<void()>;
  /// (fragment, task, generation) of a recovery job.
  using Key = std::tuple<int, int, int>;

  ControlQueue() = default;
  ~ControlQueue() { Stop(); }

  ControlQueue(const ControlQueue&) = delete;
  ControlQueue& operator=(const ControlQueue&) = delete;

  /// Runs `tick` every `interval_micros` (and after each batch of jobs)
  /// until Stop(). Call before the first Enqueue.
  void StartTicking(int64_t interval_micros, Job tick);

  /// Queues `job` and returns true. A `key` already queued or running
  /// drops the duplicate (the liveness listener and the task client's own
  /// death verdict racing to report one loss); it re-arms once that job
  /// returned, so a later re-absorb of the same incarnation still runs.
  /// Every job is dropped after Stop().
  bool Enqueue(Job job, std::optional<Key> key = std::nullopt);

  /// Runs every queued job, then joins the thread. Idempotent. A queued
  /// job may be the only thing releasing a held task callback, so the
  /// owner stops the queue only once nothing waits on one.
  void Stop();

 private:
  void StartLocked();
  void Loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::pair<Job, std::optional<Key>>> jobs_;
  std::set<Key> keys_;
  Job tick_;
  int64_t interval_micros_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

/// A running (or finished) distributed query: owns the per-fragment task
/// clients, the lazy split-scheduling thread, the writer-scaling monitor,
/// and the client-facing result stream.
class QueryExecution {
 public:
  ~QueryExecution();

  const std::string& query_id() const { return query_id_; }
  const RowSchema& schema() const { return schema_; }
  ResultQueue& results() { return results_; }
  QueryMemory& memory() { return *memory_; }

  /// Blocks until every task completed; returns the query's final status.
  Status Wait();

  /// Kills the query (client cancellation, internal error, or abandonment).
  /// Callable from any thread any number of times; only the first call's
  /// reason takes effect.
  void Cancel(const Status& reason);

  /// Total CPU nanoseconds consumed across all tasks.
  int64_t total_cpu_nanos() const;

  /// Current number of active writer partitions (adaptive scaling).
  int active_writers(int fragment) const;

  /// The fragmented plan this execution runs (for EXPLAIN ANALYZE).
  const FragmentedPlan& plan() const { return plan_; }

  /// Aggregates per-operator runtime stats across every task. Safe while
  /// the query runs (counters are atomics); exact once it finished.
  QueryStats StatsSnapshot() const;

  /// Live per-slot progress from the status caches (ISSUE 10): the
  /// /v1/query/{id} "taskProgress" payload. Safe to call at any time.
  std::vector<TaskProgress> TaskProgressSnapshot() const;

 private:
  friend class Coordinator;
  QueryExecution() = default;

  /// A speculative replica racing its slot's current incarnation (§15).
  /// It holds +1 in remaining_tasks_ — its own terminal callback — which
  /// RetireReplicaLocked or promotion settles.
  struct Replica {
    int generation = 0;  // the slot's generation + 1 at launch
    int worker = -1;     // never the slot's own worker
    /// Journal replayed; the split loop forwards live deliveries only
    /// afterwards (earlier ones reach it through the replay).
    bool replayed = false;
    /// Finished OK first; its callback is held until RunPromotion decides
    /// commit-vs-abandon.
    bool won = false;
    std::shared_ptr<TaskClient> client;
  };

  /// Everything the coordinator tracks about one (fragment, task) slot.
  /// Guarded by tasks_mu_; the vector shapes are fixed before launch.
  struct TaskSlot {
    /// Current incarnation: DirectTaskClient in kThreads mode,
    /// HttpTaskClient in kProcess mode.
    std::shared_ptr<TaskClient> client;
    int worker = -1;
    int generation = 0;
    int retries = 0;  // dead-worker restarts only
    bool finished = false;
    /// Terminal callback absorbed into a queued recovery job:
    /// remaining_tasks_ still counts the slot (the "hold") until a
    /// recovery round launches its replacement or fails the query.
    bool recovering = false;
    /// Split journal (recovery only): every split ever routed to the slot,
    /// by scan node, replayed into each new incarnation. Connector
    /// pointers are catalog-owned and outlive the query.
    std::map<int, std::vector<std::pair<SplitPtr, Connector*>>> journal;
    std::optional<Replica> replica;
    bool speculated = false;  // never two replicas of one slot per query
  };

  /// A new incarnation of a slot waiting for LaunchIncarnations: gen-0
  /// tasks, recovery and promotion replacements, speculative replicas.
  struct Incarnation {
    int fragment;
    int task;
    int generation;
    std::shared_ptr<TaskClient> client;
    bool replica;
  };

  void SplitSchedulingLoop();
  /// Terminal-status callback of incarnation `generation` of slot
  /// (fragment, task). A superseded incarnation only settles its
  /// accounting, a current-generation worker-loss failure becomes a
  /// recovery job (§13), and a replica's callback settles its race (§15).
  void OnTaskDone(int fragment, int task, int generation,
                  const Status& status);
  /// Best-effort cancel RPC to every task and replica (no-op clients
  /// ignore it). Snapshots the clients under tasks_mu_, then calls
  /// outside it.
  void AbortAllTasks();
  /// The slots' current clients; `fragment` < 0 takes every fragment.
  std::vector<std::shared_ptr<TaskClient>> ClientsOf(int fragment) const;
  /// Liveness death listener (kProcess with retries): queues a recovery
  /// job for every slot placed on `worker`.
  void OnWorkerDeath(int worker);
  /// Queues a recovery or promotion round on the control thread. The
  /// split loop stays parked from now until the round returned, so no
  /// split reaches a fresh client between its swap and its journal replay.
  void EnqueueRound(ControlQueue::Job round,
                    std::optional<ControlQueue::Key> key = std::nullopt);
  /// Control-thread recovery round: computes the restart closure,
  /// re-places the dead worker's slots on live workers and launches
  /// replacements — or fails the query cleanly when retries are exhausted,
  /// no live worker remains, or result frames already reached the client.
  void RunRecovery(int fragment, int task, int generation,
                   const Status& cause);
  /// Builds the HTTP client + create request for slot (fragment, task) as
  /// incarnation `generation` on `worker`; producer endpoints come from
  /// the slots' current workers and generations. Caller holds tasks_mu_
  /// (or is single-threaded pre-launch inside Execute()).
  std::shared_ptr<TaskClient> MakeRemoteClientLocked(int fragment, int task,
                                                     int worker,
                                                     int generation);
  /// Supersedes and parks slot (fragment, task)'s client and installs a
  /// fresh one for the slot's (already updated) worker and generation.
  /// Caller holds tasks_mu_.
  Incarnation ReincarnateLocked(int fragment, int task);
  /// The one path every new incarnation takes: launches each (outside
  /// every lock — a create failure re-enters OnTaskDone), replays its
  /// slot's journal and no-more-splits markers under tasks_mu_, and
  /// settles failed creates through OnTaskDone.
  void LaunchIncarnations(std::vector<Incarnation> batch);
  /// Control-thread speculation tick: samples every slot's progress,
  /// picks stragglers via PickStragglers, and launches a replica on a
  /// different live worker for each.
  void SpeculationTick();
  /// Control-thread handler for a replica that finished first: promotes
  /// it (it becomes the slot's incarnation, consumers of its fragment
  /// restart like a recovery round, the original is aborted) or abandons
  /// it when results already left or recovery owns the slot.
  void RunPromotion(int fragment, int task, int generation);
  /// Ends slot's replica race: marks the replica superseded, aborts it,
  /// parks its client, and drops the held +1 if it had won. Caller holds
  /// mu_ and tasks_mu_.
  void RetireReplicaLocked(TaskSlot& slot);
  /// Query failure/teardown: converts every recovery hold into a
  /// completion and retires every replica. Caller holds mu_.
  void DischargeSlotsLocked();
  /// One completion of fragment `fragment` (a task callback or a settled
  /// hold). Caller holds mu_.
  void CountCompletionLocked(size_t fragment);
  /// Points the result-fetch loop at the root slot's current incarnation.
  /// Caller holds tasks_mu_ and fetch_mu_.
  void RebindRootLocked();
  /// True once the query finished, failed, or is being torn down. Caller
  /// holds mu_.
  bool SettledLocked() const {
    return finished_ || finalized_ || defer_finalize_ || memory_->killed();
  }
  /// The shared tail of OnTaskDone/RunRecovery under mu_: finishes the
  /// stream and finalizes once remaining_tasks_ drained to zero.
  void FinishIfDrainedLocked();
  /// kProcess only: pulls the root task's output buffer over the exchange
  /// protocol into results_, finishing the stream when the buffer
  /// completes (and aborting still-running upstream producers, e.g. after
  /// LIMIT).
  void ResultFetchLoop();
  /// One-shot end-of-query teardown under mu_: releases every task's
  /// resources (coordinator- and worker-side), drops this query's exchange
  /// state, finalizes the lifecycle record, and frees the admission slot.
  void FinalizeLocked();
  /// Run by the result-fetch thread on exit: performs the finalization the
  /// last OnTaskDone deferred so the root output buffer outlived its drain.
  void FinalizeIfDeferred();

  std::string query_id_;
  RowSchema schema_;
  Cluster* cluster_ = nullptr;
  const Catalog* catalog_ = nullptr;
  // Optional split-enumeration cache (ISSUE 8); null when the coordinator
  // is driven without an engine (direct tests).
  MetadataManager* metadata_manager_ = nullptr;
  FragmentedPlan plan_;
  std::unique_ptr<QueryMemory> memory_;
  ResultQueue results_;
  // Round-robin writer-scaling state per fragment (producer side).
  std::vector<std::unique_ptr<std::atomic<int>>> active_writers_;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  int remaining_tasks_ = 0;
  std::vector<int> fragment_remaining_;
  std::vector<bool> fragment_done_;
  Status final_status_;
  bool finished_ = false;
  /// kProcess: set when the last task completed successfully but the
  /// result-fetch thread had not yet drained the root output buffer; that
  /// thread then owns finishing the stream and running FinalizeLocked().
  bool defer_finalize_ = false;
  bool finalized_ = false;
  /// Set (under mu_) once Execute() launched every gen-0 incarnation.
  /// Recovery and promotion jobs wait on it: a create that fails
  /// synchronously mid-launch (worker died before the query started)
  /// would otherwise let the control thread swap replacement clients into
  /// slots whose gen-0 clients are still being launched.
  bool launch_complete_ = false;

  std::thread split_thread_;
  std::atomic<bool> stop_split_thread_{false};
  std::function<void()> on_complete_;  // admission-slot release
  /// True once every task is registered with an executor (i.e. OnTaskDone
  /// callbacks will eventually fire). A failed Execute() tears down an
  /// unlaunched execution, and waiting for callbacks then would hang.
  bool launched_ = false;
  /// Makes Cancel() exactly-once across client cancel, internal errors,
  /// and destructor abandonment racing each other.
  std::once_flag cancel_once_;

  /// Out-of-process execution state (ISSUE 6).
  bool process_mode_ = false;
  int root_fetch_port_ = -1;
  std::thread result_fetch_thread_;
  std::atomic<bool> stop_fetch_thread_{false};

  /// ---- Task slots. ----
  /// Guards slots_, no_more_splits_ and superseded_clients_. Lock order:
  /// mu_ before tasks_mu_ before fetch_mu_; never the reverse.
  mutable std::mutex tasks_mu_;
  std::vector<std::vector<TaskSlot>> slots_;  // [fragment][task]
  bool recovery_enabled_ = false;
  int max_task_retries_ = 0;
  /// Serialized fragments and task counts kept so any incarnation's create
  /// request can be rebuilt at any time.
  std::vector<Json> fragment_jsons_;
  std::vector<int> task_counts_;
  std::vector<std::set<int>> no_more_splits_;  // per fragment: closed nodes
  /// Clients replaced by a newer incarnation or a retired replica, kept
  /// alive until the execution is destroyed: destroying an HttpTaskClient
  /// joins its poll thread, and that thread may be blocked on mu_
  /// delivering the stale callback (so freeing inside a control job would
  /// deadlock) or may itself be the thread running FinalizeLocked() (a
  /// self-join). Only ~QueryExecution — a waiter thread, after every
  /// callback settled — may free them.
  std::vector<std::shared_ptr<TaskClient>> superseded_clients_;
  /// Recovery and promotion rounds queued or running; the split loop
  /// parks while it is non-zero.
  std::atomic<int> pending_rounds_{0};
  ControlQueue control_;
  int liveness_listener_ = -1;
  Counter* retries_counter_ = nullptr;        // presto_task_retries_total
  Histogram* recovery_histogram_ = nullptr;   // recovery latency, seconds

  /// ---- Speculative execution of stragglers (ISSUE 9; kProcess only). ----
  bool speculation_enabled_ = false;
  SpeculationPolicy speculation_policy_;
  Counter* speculations_counter_ = nullptr;  // presto_task_speculations_total
  Counter* wins_counter_ = nullptr;          // presto_speculation_wins_total

  /// Cross-process trace shipping instruments (ISSUE 10), indexed by
  /// worker id: spans merged from / dropped by each worker's recorder.
  /// Empty when the engine did not install them.
  std::vector<Counter*> trace_shipped_counters_;
  std::vector<Counter*> trace_dropped_counters_;

  /// Root result-stream epoch: the fetch loop rebinds its exchange client
  /// whenever recovery moved the root task. root_frames_consumed_ counts
  /// frames already delivered to the client under the current epoch — a
  /// root restart is only legal while it is zero (otherwise replayed
  /// frames would duplicate delivered rows, so the query fails cleanly).
  std::mutex fetch_mu_;
  int root_epoch_ = 0;
  int root_fetch_generation_ = 0;
  int64_t root_frames_consumed_ = 0;

  /// Lifecycle record finalized when the last task completes; may be null
  /// (tests that drive the coordinator directly).
  std::shared_ptr<QueryLifecycle> lifecycle_;
  std::atomic<bool> client_cancelled_{false};
};

/// The coordinator (§III): admits queries, places fragment tasks on
/// workers, feeds splits lazily with shortest-queue assignment (§IV-D3),
/// honors phased scheduling dependencies (§IV-D1), and scales writer stages
/// adaptively (§IV-E3). In ClusterMode::kProcess the same scheduling logic
/// drives remote worker daemons through the /v1/task HTTP protocol.
class Coordinator {
 public:
  Coordinator(Cluster* cluster, const Catalog* catalog)
      : cluster_(cluster), catalog_(catalog) {}

  /// Starts executing a fragmented plan; blocks only for admission. The
  /// optional lifecycle is transitioned through admission/running and
  /// finalized when the last task completes.
  Result<std::shared_ptr<QueryExecution>> Execute(
      const std::string& query_id, FragmentedPlan plan,
      std::shared_ptr<QueryLifecycle> lifecycle = nullptr);

  /// Installs the recovery observability instruments (ISSUE 7): the
  /// presto_task_retries_total counter and the recovery-latency histogram,
  /// both registry-owned and outliving the coordinator. Either may be
  /// null (tests that drive the coordinator directly).
  void SetRecoveryInstruments(Counter* retries, Histogram* latency) {
    retries_counter_ = retries;
    recovery_histogram_ = latency;
  }

  /// Installs the speculation observability instruments (ISSUE 9):
  /// presto_task_speculations_total and presto_speculation_wins_total.
  /// Either may be null (tests that drive the coordinator directly).
  void SetSpeculationInstruments(Counter* speculations, Counter* wins) {
    speculations_counter_ = speculations;
    speculation_wins_counter_ = wins;
  }

  /// Installs the cross-process trace-shipping instruments (ISSUE 10),
  /// indexed by worker id: presto_trace_shipped_spans_total and
  /// presto_trace_dropped_spans_total, labeled {worker="w<i>"}. Registry-
  /// owned; empty vectors are fine (tests that drive the coordinator
  /// directly).
  void SetTraceShippingInstruments(std::vector<Counter*> shipped,
                                   std::vector<Counter*> dropped) {
    trace_shipped_counters_ = std::move(shipped);
    trace_dropped_counters_ = std::move(dropped);
  }

  /// Installs the planning-path cache subsystem (ISSUE 8): split
  /// enumeration then goes through the manager's split cache. May be null
  /// (tests that drive the coordinator directly enumerate uncached).
  void SetMetadataManager(MetadataManager* manager) {
    metadata_manager_ = manager;
  }

  int running_queries() const {
    std::lock_guard<std::mutex> lock(admission_mu_);
    return running_;
  }

  /// Queries waiting for an admission slot right now.
  int queued_queries() const { return queued_.load(); }

 private:
  Cluster* cluster_;
  const Catalog* catalog_;
  mutable std::mutex admission_mu_;
  std::condition_variable admission_cv_;
  int running_ = 0;
  std::atomic<int> queued_{0};
  // Best-effort placement cursor for single-task fragments; relaxed atomic
  // because concurrent Execute() calls may interleave and exact rotation
  // does not matter, only rough spread.
  std::atomic<int> round_robin_worker_{0};
  Counter* retries_counter_ = nullptr;
  Histogram* recovery_histogram_ = nullptr;
  Counter* speculations_counter_ = nullptr;
  Counter* speculation_wins_counter_ = nullptr;
  std::vector<Counter*> trace_shipped_counters_;
  std::vector<Counter*> trace_dropped_counters_;
  MetadataManager* metadata_manager_ = nullptr;
};

}  // namespace presto

#endif  // PRESTOCPP_SCHEDULE_COORDINATOR_H_
