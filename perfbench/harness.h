// Measurement plumbing shared by the benchmark's workloads: clocks and
// percentiles, result checking, per-query deadlines, spans of the traced
// run (kept in the engine's own TraceRecorder), and /proc sampling of the coordinator and worker daemons.
// Everything here observes the engine from outside through its public API;
// nothing is compiled into the library.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "stats/trace.h"

namespace perfbench {

using Rows = std::vector<std::vector<presto::Value>>;

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank quantile (q in [0,1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// True when `got` holds the same rows as `want` in any order. Uses the
/// repo's SameRowsIgnoringOrder first and falls back to a relative 1e-9
/// tolerance on doubles, so a sum whose accumulation order differs across
/// a %.9g rounding boundary is not reported as wrong.
bool RowsMatch(const Rows& got, const Rows& want);

/// Span context of one client thread in the traced run: the run's shared
/// recorder, the client's thread id in it, and the innermost open span.
/// Each span carries its own id, its parent's id and the benchmark's query
/// sequence number as args, so self times can be derived from a snapshot.
struct TraceContext {
  presto::TraceRecorder* recorder = nullptr;
  int64_t tid = 0;
  int64_t next_id = 0;
  int64_t open = -1;  // id of the innermost open span; -1 at the root
};

/// RAII span: records [construction, destruction) under the innermost
/// open span of `trace`. A null context records nothing (untraced run).
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* trace, const char* name, int64_t query);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceContext* trace_;
  const char* name_;
  int64_t query_;
  int64_t id_ = -1;
  int64_t parent_ = -1;
  int64_t start_nanos_ = 0;
};

/// Per-name self time in ms of the spans ScopedSpan recorded: a span's
/// duration minus the part its direct children cover (children of one
/// thread never overlap).
std::map<std::string, double> SelfTimes(
    const std::vector<presto::TraceEvent>& events);

/// Cancels queries that pass their deadline, and ends the whole process if
/// the run overruns its hard limit (after `on_abort` has killed and reaped
/// the worker daemons), so the benchmark always exits.
class Watchdog {
 public:
  Watchdog(int slots, int64_t hard_limit_nanos, std::function<void()> on_abort);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Slot `slot` now runs `execution` until `deadline_nanos`.
  void Arm(int slot, presto::QueryExecution* execution, int64_t deadline_nanos);
  /// Clears the slot; returns true when its deadline fired.
  bool Disarm(int slot);

 private:
  struct Slot {
    std::mutex mu;
    presto::QueryExecution* execution = nullptr;
    int64_t deadline_nanos = 0;
    bool fired = false;
  };
  void Loop();

  std::vector<std::unique_ptr<Slot>> slots_;
  const int64_t hard_limit_nanos_;
  std::function<void()> on_abort_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// The outcome of one query as its client saw it.
struct Outcome {
  bool ok = false;
  std::string error;
  std::string query_id;
  int64_t start_nanos = 0;
  int64_t first_page_nanos = 0;  // when Next() first returned
  int64_t end_nanos = 0;
  Rows rows;
};

/// Executes `sql` on `engine` and drains its rows, cancelling it at
/// `deadline_nanos` through `watchdog` slot `slot`. With a trace context it
/// records execute / first_page / drain spans under the caller's span.
Outcome RunQuery(presto::PrestoEngine& engine, const std::string& sql,
                 Watchdog& watchdog, int slot, int64_t deadline_nanos,
                 TraceContext* trace, int64_t query_seq);

/// One /proc reading of a process.
struct ProcReading {
  int64_t fds = 0;
  int64_t threads = 0;
  int64_t rss_kb = 0;
};

/// Samples fds, threads and RSS of the coordinator (this process) and of
/// every worker daemon at a fixed interval, plus an optional extra probe
/// (the heartbeat round trip), from Start() until Stop().
class ProcSampler {
 public:
  struct Sample {
    int64_t nanos = 0;
    std::vector<ProcReading> procs;  // [0] = coordinator, then workers
    double extra = 0;
  };

  ProcSampler(std::vector<pid_t> worker_pids, int64_t interval_nanos,
              std::function<double()> extra = nullptr);
  ~ProcSampler();
  ProcSampler(const ProcSampler&) = delete;
  ProcSampler& operator=(const ProcSampler&) = delete;

  void Start();
  void Stop();
  const std::vector<Sample>& samples() const { return samples_; }

  /// Largest coordinator+workers RSS sum seen, in MB.
  double PeakRssMb() const;
  /// Least-squares fd growth per second of process `index`.
  double FdGrowthPerSecond(size_t index) const;
  /// Median of a per-process field over the samples.
  double Median(size_t index, int64_t ProcReading::*field) const;
  double Max(size_t index, int64_t ProcReading::*field) const;
  size_t num_procs() const { return pids_.size(); }

 private:
  void TakeSample();

  std::vector<pid_t> pids_;
  const int64_t interval_nanos_;
  std::function<double()> extra_;
  std::vector<Sample> samples_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = true;
  std::thread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
