// prestobench: the end-to-end benchmark of prestocpp.
//
//   prestobench --workload <etl|mixed|cluster> --seed <n> --seconds <s>
//               --trace <0|1> --worker-bin <presto_worker> [--out-dir <dir>]
//               [--build-type <t>] [--source-id <id>]
//
// Every workload is a closed loop: each client sends its next query only
// after the previous one returned. The run generates its tables once, sets
// the system up three times on them (reporting the median as setup_s),
// measures for --seconds, then checks every CTAS target. Every query result
// is compared with an answer derived before the timed window from the
// reference executor's rows; a wrong answer, a failed or timed-out query, or
// a query kind that never completed makes the run incorrect. Human-readable
// report lines come first; the last line is one JSON object.
//
// With --trace 1 the first half of the window runs untraced and the second
// half records spans around the benchmark's own calls into each layer; the
// output then holds the per-layer metrics and the tracing overhead.

#include <malloc.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "connector/scan_util.h"
#include "connectors/hive/hive_connector.h"
#include "connectors/memcon/memory_connector.h"
#include "connectors/shardedstore/sharded_store.h"
#include "connectors/tpch/tpch_connector.h"
#include "engine/engine.h"
#include "engine/reference_executor.h"
#include "fragment/fragmenter.h"
#include "harness.h"
#include "optimizer/optimizer.h"
#include "plan/planner.h"
#include "sql/parser.h"
#include "vector/page_codec.h"
#include "worker/subprocess.h"

namespace perfbench {
namespace {

using presto::Result;
using presto::Value;

// ---------------------------------------------------------------------------
// Arguments and process-wide cleanup.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string worker_bin;
  std::string out_dir = ".";
  std::string build_type = "unknown";
  std::string source_id = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--worker-bin") {
      args->worker_bin = value;
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else if (key == "--build-type") {
      args->build_type = value;
    } else if (key == "--source-id") {
      args->source_id = value;
    } else {
      return false;
    }
  }
  return (args->workload == "etl" || args->workload == "mixed" ||
          args->workload == "cluster") &&
         args->seconds > 0;
}

// Worker daemon pids, readable from the signal handler and the watchdog's
// abort path so no exit leaves a daemon behind.
std::array<std::atomic<pid_t>, 8> g_worker_pids{};

void KillWorkers() {
  for (auto& slot : g_worker_pids) {
    pid_t pid = slot.exchange(0);
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
}

void HandleSignal(int signo) {
  KillWorkers();
  _exit(128 + signo);
}

// ---------------------------------------------------------------------------
// Queries and their expected answers.

enum QueryClass : uint8_t { kPrimary = 0, kBatch = 1, kWrite = 2 };

/// One entry of a workload's finite query pool. For a CTAS (kWrite) `sql`
/// is the SELECT whose rows the target must hold afterwards.
struct QueryText {
  std::string sql;
  QueryClass cls = kPrimary;
  int64_t rows_scanned = 0;
  Rows expected;
};

int64_t Days(const std::string& date) {
  int64_t days = 0;
  PRESTO_CHECK(presto::ParseDate(date, &days));
  return days;
}

/// Small group-by helper for deriving answers: a key row plus running
/// bigint/double sums and a count.
struct Group {
  std::vector<Value> key;
  int64_t count = 0;
  int64_t isum = 0;
  double dsum = 0;
  double dsum2 = 0;  // a second double sum (avg(discount))
};

class GroupBy {
 public:
  Group& At(const std::vector<Value>& key) {
    std::string text;
    for (const Value& value : key) text += value.ToString() + "|";
    auto [it, inserted] = index_.emplace(text, groups_.size());
    if (inserted) {
      groups_.emplace_back();
      groups_.back().key = key;
    }
    return groups_[it->second];
  }
  std::vector<Group>& groups() { return groups_; }

 private:
  std::unordered_map<std::string, size_t> index_;
  std::vector<Group> groups_;
};

// Column positions of the reference projections below.
constexpr char kLineitemRef[] =
    "SELECT orderkey, partkey, quantity, extendedprice, discount, returnflag, "
    "linestatus, shipdate FROM lineitem";
enum { L_ORDER, L_PART, L_QTY, L_PRICE, L_DISC, L_RFLAG, L_LSTATUS, L_SHIP };
constexpr char kOrdersRef[] =
    "SELECT orderkey, custkey, totalprice, orderdate, orderpriority FROM "
    "orders";
enum { O_KEY, O_CUST, O_PRICE, O_DATE, O_PRIO };
constexpr char kCustomerRef[] = "SELECT custkey, name, mktsegment FROM customer";
enum { C_KEY, C_NAME, C_SEGMENT };
constexpr char kAppEventsRef[] =
    "SELECT app_id, day, value FROM mysql.app_events";
enum { A_APP, A_DAY, A_VALUE };

/// Base-table rows read through the reference executor (the row-at-a-time
/// interpreter, independent of the vectorized engine under test).
struct Reference {
  Rows lineitem, orders, customer, app_events;
};

Result<Rows> ReferenceRows(presto::PrestoEngine& engine, const char* sql) {
  PRESTO_ASSIGN_OR_RETURN(auto stmt, presto::sql::ParseStatement(sql));
  presto::Planner planner(&engine.catalog());
  PRESTO_ASSIGN_OR_RETURN(auto plan, planner.Plan(*stmt));
  return presto::ExecuteReference(engine.catalog(), plan);
}

// Answers of the ETL-style queries (also used by mixed and cluster).
Rows PricingSummary(const Reference& ref, int64_t ship_max) {
  GroupBy groups;
  for (const auto& row : ref.lineitem) {
    if (row[L_SHIP].AsDate() > ship_max) continue;
    Group& g = groups.At({row[L_RFLAG], row[L_LSTATUS]});
    g.count += 1;
    g.isum += row[L_QTY].AsBigint();
    g.dsum += row[L_PRICE].AsDouble();
    g.dsum2 += row[L_DISC].AsDouble();
  }
  Rows out;
  for (const Group& g : groups.groups()) {
    out.push_back({g.key[0], g.key[1], Value::Bigint(g.isum),
                   Value::Double(g.dsum),
                   Value::Double(g.dsum2 / static_cast<double>(g.count)),
                   Value::Bigint(g.count)});
  }
  return out;
}

// orders JOIN lineitem grouped by orderpriority, with a filter on each side.
Rows RevenueByPriority(const Reference& ref, int64_t order_date_before,
                       int64_t ship_from) {
  std::unordered_map<int64_t, const Value*> priority;
  for (const auto& row : ref.orders) {
    if (row[O_DATE].AsDate() < order_date_before) {
      priority[row[O_KEY].AsBigint()] = &row[O_PRIO];
    }
  }
  GroupBy groups;
  for (const auto& row : ref.lineitem) {
    if (row[L_SHIP].AsDate() < ship_from) continue;
    auto it = priority.find(row[L_ORDER].AsBigint());
    if (it == priority.end()) continue;
    Group& g = groups.At({*it->second});
    g.count += 1;
    g.dsum += row[L_PRICE].AsDouble();
  }
  Rows out;
  for (const Group& g : groups.groups()) {
    out.push_back({g.key[0], Value::Bigint(g.count), Value::Double(g.dsum)});
  }
  return out;
}

Rows SegmentRevenue(const Reference& ref, int64_t order_date_from) {
  std::unordered_map<int64_t, const Value*> segment;
  for (const auto& row : ref.customer) {
    segment[row[C_KEY].AsBigint()] = &row[C_SEGMENT];
  }
  GroupBy groups;
  for (const auto& row : ref.orders) {
    if (row[O_DATE].AsDate() < order_date_from) continue;
    auto it = segment.find(row[O_CUST].AsBigint());
    if (it == segment.end()) continue;
    Group& g = groups.At({*it->second});
    g.count += 1;
    g.dsum += row[O_PRICE].AsDouble();
  }
  Rows out;
  for (const Group& g : groups.groups()) {
    out.push_back({g.key[0], Value::Bigint(g.count), Value::Double(g.dsum)});
  }
  return out;
}

Rows TopParts(const Reference& ref, int64_t ship_from, size_t limit) {
  std::unordered_map<int64_t, int64_t> quantity;
  for (const auto& row : ref.lineitem) {
    if (row[L_SHIP].AsDate() >= ship_from) {
      quantity[row[L_PART].AsBigint()] += row[L_QTY].AsBigint();
    }
  }
  std::vector<std::pair<int64_t, int64_t>> ranked(quantity.begin(),
                                                  quantity.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  Rows out;
  for (size_t i = 0; i < ranked.size() && i < limit; ++i) {
    out.push_back({Value::Bigint(ranked[i].first),
                   Value::Bigint(ranked[i].second)});
  }
  return out;
}

Rows CustomerRevenue(const Reference& ref, const std::string& priority) {
  std::unordered_map<int64_t, int64_t> customer;
  for (const auto& row : ref.orders) {
    if (row[O_PRIO].AsVarchar() == priority) {
      customer[row[O_KEY].AsBigint()] = row[O_CUST].AsBigint();
    }
  }
  GroupBy groups;
  for (const auto& row : ref.lineitem) {
    auto it = customer.find(row[L_ORDER].AsBigint());
    if (it == customer.end()) continue;
    Group& g = groups.At({Value::Bigint(it->second)});
    g.count += 1;
    g.dsum += row[L_PRICE].AsDouble();
  }
  Rows out;
  for (const Group& g : groups.groups()) {
    out.push_back({g.key[0], Value::Bigint(g.count), Value::Double(g.dsum)});
  }
  return out;
}

Rows FlagTotals(const Reference& ref) {
  GroupBy groups;
  for (const auto& row : ref.lineitem) {
    Group& g = groups.At({row[L_RFLAG], row[L_LSTATUS]});
    g.count += 1;
    g.isum += row[L_QTY].AsBigint();
    g.dsum += row[L_PRICE].AsDouble();
  }
  Rows out;
  for (const Group& g : groups.groups()) {
    out.push_back({g.key[0], g.key[1], Value::Bigint(g.count),
                   Value::Bigint(g.isum), Value::Double(g.dsum)});
  }
  return out;
}

/// Draws `n` distinct elements of `keys` (all of them if fewer).
std::vector<int64_t> DrawDistinct(std::vector<int64_t> keys, size_t n,
                                  std::mt19937_64& rng) {
  std::shuffle(keys.begin(), keys.end(), rng);
  keys.resize(std::min(n, keys.size()));
  return keys;
}

// ---------------------------------------------------------------------------
// Workloads.

/// Position `n` of a client's query schedule made of back-to-back cycles of
/// `length` slots, each cycle a seeded permutation. Every cycle holds each
/// slot once, so a run's query mix is exact and does not vary with the seed.
size_t CycleSlot(uint64_t seed, int client, int64_t n, size_t length) {
  std::vector<size_t> slots(length);
  for (size_t i = 0; i < length; ++i) slots[i] = i;
  std::mt19937_64 rng(seed * 1000003 + static_cast<uint64_t>(client) * 7919 +
                      static_cast<uint64_t>(n) / length);
  std::shuffle(slots.begin(), slots.end(), rng);
  return slots[static_cast<uint64_t>(n) % length];
}

/// A workload: its query pools (one per query kind) and how each client
/// picks its next query. Pools are fixed before the timed window, so every
/// answer is known up front.
struct Workload {
  int clients = 1;
  std::vector<std::string> kinds;
  std::vector<std::vector<QueryText>> pools;  // parallel to kinds
  // The heavy kinds batch_rows_per_s measures: the CTAS on etl, the batch
  // join stream on mixed, the join and full group-by on cluster.
  std::vector<size_t> batch_kinds;
  // Returns (kind, index into the kind's pool) for client's n-th query.
  std::function<std::pair<size_t, size_t>(int client, int64_t n,
                                          std::mt19937_64& rng)>
      next;
};

/// One set-up system under test.
struct Env {
  std::vector<std::unique_ptr<presto::Subprocess>> workers;
  std::unique_ptr<presto::PrestoEngine> engine;
  std::shared_ptr<presto::MemoryConnector> memory;
  std::shared_ptr<presto::HiveConnector> hive;
  std::shared_ptr<presto::TpchConnector> tpch;

  Env() = default;
  Env(const Env&) = delete;
  Env& operator=(const Env&) = delete;
  ~Env() {
    engine.reset();
    for (auto& worker : workers) {
      for (auto& slot : g_worker_pids) {
        pid_t expected = worker->pid();
        if (slot.compare_exchange_strong(expected, 0)) break;
      }
    }
    workers.clear();  // Subprocess's destructor kills and reaps
  }

  std::vector<pid_t> worker_pids() const {
    std::vector<pid_t> out;
    for (const auto& worker : workers) out.push_back(worker->pid());
    return out;
  }
};

constexpr double kThreadsScale = 10;   // lineitem 600k rows, orders 150k
constexpr double kClusterScale = 0.2;  // lineitem 12k rows, orders 3k
constexpr int64_t kAppEventRows = 60'000;
constexpr int64_t kApps = 500;

/// The tables a kThreads system loads, generated once per run before the
/// timed set-ups: they are the benchmark's input, not the system's work.
/// Pages share their blocks, so every set-up loads the same data.
struct Inputs {
  struct Table {
    std::string name;
    presto::RowSchema schema;
    std::vector<presto::Page> pages;
  };
  std::vector<Table> tpch;                  // lineitem, orders, customer
  std::vector<presto::Page> app_events;     // mixed only
};

presto::RowSchema AppEventsSchema() {
  presto::RowSchema schema;
  schema.Add("app_id", presto::TypeKind::kBigint);
  schema.Add("day", presto::TypeKind::kBigint);
  schema.Add("value", presto::TypeKind::kDouble);
  return schema;
}

presto::Page AppEventsPage(uint64_t seed) {
  std::mt19937_64 rng(seed * 7919 + 17);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<int64_t> app, day;
  std::vector<double> value;
  for (int64_t i = 0; i < kAppEventRows; ++i) {
    // Mild skew: low app ids have more events.
    double u = unit(rng);
    app.push_back(static_cast<int64_t>(u * u * static_cast<double>(kApps)));
    day.push_back(static_cast<int64_t>(rng() % 90));
    value.push_back(std::floor(unit(rng) * 100000.0) / 100.0);
  }
  return presto::Page({presto::MakeBigintBlock(app),
                       presto::MakeBigintBlock(day),
                       presto::MakeDoubleBlock(value)});
}

Result<Inputs> GenerateInputs(bool with_app_events, uint64_t seed) {
  Inputs inputs;
  presto::TpchConnector tpch("tpch", kThreadsScale);
  for (const char* table : {"lineitem", "orders", "customer"}) {
    PRESTO_ASSIGN_OR_RETURN(auto pages, presto::ReadAllPages(&tpch, table));
    PRESTO_ASSIGN_OR_RETURN(auto handle, tpch.metadata().GetTable(table));
    inputs.tpch.push_back({table, handle->schema(), std::move(pages)});
  }
  if (with_app_events) inputs.app_events.push_back(AppEventsPage(seed));
  return inputs;
}

/// kThreads engine, 2 workers x 2 executor threads, with the tpch tables
/// loaded into `memory`, an empty `hive` warehouse for CTAS targets and,
/// for the mixed workload, the sharded `mysql` store.
presto::Status SetupThreads(Env* env, const Inputs& inputs) {
  presto::EngineOptions options;
  options.cluster.num_workers = 2;
  options.cluster.executor.threads = 2;
  env->engine = std::make_unique<presto::PrestoEngine>(options);
  env->memory = std::make_shared<presto::MemoryConnector>("memory");
  for (const Inputs::Table& table : inputs.tpch) {
    PRESTO_RETURN_IF_ERROR(
        env->memory->CreateTable(table.name, table.schema, table.pages));
  }
  env->hive = std::make_shared<presto::HiveConnector>("hive");
  env->engine->catalog().Register(env->memory);
  env->engine->catalog().Register(env->hive);
  env->engine->catalog().SetDefault("memory");
  if (!inputs.app_events.empty()) {
    auto mysql = std::make_shared<presto::ShardedStoreConnector>("mysql");
    PRESTO_RETURN_IF_ERROR(mysql->CreateTable("app_events", AppEventsSchema(),
                                              "app_id", {"app_id", "day"}));
    PRESTO_RETURN_IF_ERROR(mysql->LoadTable("app_events", inputs.app_events));
    env->engine->catalog().Register(mysql);
  }
  return presto::Status::OK();
}

/// kProcess engine driving 2 presto_worker daemons (--threads=2) over the
/// /v1/task protocol, on tpch scale 0.2.
presto::Status SetupCluster(Env* env, const std::string& worker_bin) {
  std::vector<presto::RemoteWorkerAddress> addresses;
  for (int i = 0; i < 2; ++i) {
    auto worker = std::make_unique<presto::Subprocess>();
    PRESTO_RETURN_IF_ERROR(worker->Start(
        {worker_bin, "--worker_id=" + std::to_string(i), "--threads=2",
         "--tpch_scale=" + std::to_string(kClusterScale),
         "--heartbeat_interval_micros=100000"}));
    for (auto& slot : g_worker_pids) {
      pid_t empty = 0;
      if (slot.compare_exchange_strong(empty, worker->pid())) break;
    }
    env->workers.push_back(std::move(worker));
    PRESTO_ASSIGN_OR_RETURN(std::string ready,
                            env->workers.back()->WaitForLine("READY", 20'000));
    presto::RemoteWorkerAddress address;
    if (std::sscanf(ready.c_str(),
                    "READY task_port=%d exchange_port=%d metrics_port=%d",
                    &address.task_port, &address.exchange_port,
                    &address.metrics_port) < 2) {
      return presto::Status::IOError("bad worker banner: " + ready);
    }
    addresses.push_back(address);
  }
  presto::EngineOptions options;
  options.cluster.mode = presto::ClusterMode::kProcess;
  options.cluster.remote_workers = addresses;
  env->engine = std::make_unique<presto::PrestoEngine>(options);
  env->tpch = std::make_shared<presto::TpchConnector>("tpch", kClusterScale);
  env->engine->catalog().Register(env->tpch);
  env->engine->catalog().SetDefault("tpch");
  PRESTO_RETURN_IF_ERROR(env->engine->StartObservability());
  for (auto& worker : env->workers) {
    PRESTO_RETURN_IF_ERROR(worker->WriteLine(
        "coordinator_port=" +
        std::to_string(env->engine->observability_port())));
  }
  int64_t deadline = NowNanos() + 10'000'000'000;
  auto& liveness = env->engine->cluster().liveness();
  while (!(liveness.SeenHeartbeat(0) && liveness.SeenHeartbeat(1))) {
    if (NowNanos() > deadline) {
      return presto::Status::IOError("workers never heartbeated");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return presto::Status::OK();
}

Result<Reference> ReadReference(presto::PrestoEngine& engine,
                                bool with_customer, bool with_app_events) {
  Reference ref;
  PRESTO_ASSIGN_OR_RETURN(ref.lineitem, ReferenceRows(engine, kLineitemRef));
  PRESTO_ASSIGN_OR_RETURN(ref.orders, ReferenceRows(engine, kOrdersRef));
  if (with_customer) {
    PRESTO_ASSIGN_OR_RETURN(ref.customer, ReferenceRows(engine, kCustomerRef));
  }
  if (with_app_events) {
    PRESTO_ASSIGN_OR_RETURN(ref.app_events,
                            ReferenceRows(engine, kAppEventsRef));
  }
  return ref;
}

const char* const kShipMax[] = {"1998-09-02", "1998-06-01", "1998-03-01",
                                "1997-12-01"};
const char* const kOrderBefore[] = {"1997-07-01", "1997-10-01", "1998-01-01",
                                    "1998-04-01"};
const char* const kEarlyDates[] = {"1992-01-01", "1992-02-01", "1992-03-01",
                                   "1992-04-01"};
const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};

std::vector<QueryText> JoinPool(const Reference& ref, QueryClass cls) {
  std::vector<QueryText> pool;
  for (const char* date : kOrderBefore) {
    pool.push_back(
        {std::string("SELECT o.orderpriority, count(*), sum(l.extendedprice) "
                     "FROM orders o JOIN lineitem l ON o.orderkey = "
                     "l.orderkey WHERE o.orderdate < DATE '") +
             date + "' GROUP BY o.orderpriority",
         cls,
         static_cast<int64_t>(ref.orders.size() + ref.lineitem.size()),
         RevenueByPriority(ref, Days(date), INT64_MIN)});
  }
  return pool;
}

/// etl: one client looping over four read queries on tpch scale 10 in the
/// memory connector, with a CTAS of a join+aggregate into hive every third
/// round. Each query draws one of a few literals per round.
Workload EtlWorkload(const Reference& ref, uint64_t seed) {
  Workload w;
  w.clients = 1;
  w.kinds = {"pricing_summary", "join_revenue", "segment_revenue", "top_parts",
             "ctas_customer_revenue"};
  const auto lineitem = static_cast<int64_t>(ref.lineitem.size());
  const auto orders = static_cast<int64_t>(ref.orders.size());
  const auto customer = static_cast<int64_t>(ref.customer.size());
  std::vector<QueryText> summary, segment, top, ctas;
  for (const char* date : kShipMax) {
    summary.push_back(
        {std::string("SELECT returnflag, linestatus, sum(quantity), "
                     "sum(extendedprice), avg(discount), count(*) FROM "
                     "lineitem WHERE shipdate <= DATE '") +
             date + "' GROUP BY returnflag, linestatus",
         kPrimary, lineitem, PricingSummary(ref, Days(date))});
  }
  for (const char* date : kEarlyDates) {
    segment.push_back(
        {std::string("SELECT c.mktsegment, count(*), sum(o.totalprice) FROM "
                     "customer c JOIN orders o ON c.custkey = o.custkey WHERE "
                     "o.orderdate >= DATE '") +
             date + "' GROUP BY c.mktsegment",
         kPrimary, customer + orders, SegmentRevenue(ref, Days(date))});
    top.push_back({std::string("SELECT partkey, sum(quantity) AS q FROM "
                               "lineitem WHERE shipdate >= DATE '") +
                       date +
                       "' GROUP BY partkey ORDER BY q DESC, partkey LIMIT 10",
                   kPrimary, lineitem, TopParts(ref, Days(date), 10)});
  }
  for (const char* priority : kPriorities) {
    ctas.push_back(
        {std::string("SELECT o.custkey, count(*) AS line_count, "
                     "sum(l.extendedprice) AS revenue FROM orders o JOIN "
                     "lineitem l ON o.orderkey = l.orderkey WHERE "
                     "o.orderpriority = '") +
             priority + "' GROUP BY o.custkey",
         kWrite, orders + lineitem, CustomerRevenue(ref, priority)});
  }
  w.pools = {summary, JoinPool(ref, kPrimary), segment, top, ctas};
  w.batch_kinds = {4};
  // Round r runs kinds 0..3, plus the CTAS after every third round.
  // Every literal of a kind runs once per cycle of rounds.
  w.next = [seed](int client, int64_t n, std::mt19937_64&) {
    constexpr int64_t kStep = 4 * 3 + 1;
    int64_t step = n % kStep;
    size_t kind = step == kStep - 1 ? 4 : static_cast<size_t>(step % 4);
    int64_t cycle = n / kStep;
    int64_t round = kind == 4 ? cycle : cycle * 3 + step / 4;
    size_t variants = kind == 4 ? std::size(kPriorities) : 4;
    return std::make_pair(kind,
                          CycleSlot(seed + kind, client, round, variants));
  };
  return w;
}

/// mixed: Fig. 8's shape. Client 0 streams the etl join query (batch
/// class); clients 1-3 send short queries, half of them one repeated text
/// per kind (plan-cache hits), the rest literals from a pool of 4 x 1024
/// texts, larger than the plan cache (misses).
Workload MixedWorkload(const Reference& ref, uint64_t seed) {
  Workload w;
  w.clients = 4;
  w.kinds = {"batch_join", "point_lookup", "customer_join",
             "customer_priorities", "app_lookup"};
  std::mt19937_64 rng(seed * 1000003 + 11);
  constexpr size_t kPoolPerKind = 1024;
  // Index the base rows by the literal columns.
  std::unordered_map<int64_t, const std::vector<Value>*> order_by_key;
  std::unordered_map<int64_t, std::vector<const std::vector<Value>*>>
      orders_by_customer;
  for (const auto& row : ref.orders) {
    order_by_key[row[O_KEY].AsBigint()] = &row;
    orders_by_customer[row[O_CUST].AsBigint()].push_back(&row);
  }
  std::unordered_map<int64_t, const Value*> customer_name;
  std::vector<int64_t> customer_keys;
  for (const auto& row : ref.customer) {
    customer_name[row[C_KEY].AsBigint()] = &row[C_NAME];
    customer_keys.push_back(row[C_KEY].AsBigint());
  }
  std::map<int64_t, std::vector<const std::vector<Value>*>> events_by_app;
  for (const auto& row : ref.app_events) {
    events_by_app[row[A_APP].AsBigint()].push_back(&row);
  }
  std::vector<int64_t> order_keys, app_keys;
  for (const auto& row : ref.orders) order_keys.push_back(row[O_KEY].AsBigint());
  for (const auto& [app, rows] : events_by_app) app_keys.push_back(app);
  const auto orders = static_cast<int64_t>(ref.orders.size());
  const auto customers = static_cast<int64_t>(ref.customer.size());

  std::vector<QueryText> point, cjoin, cprio, app;
  for (int64_t key : DrawDistinct(order_keys, kPoolPerKind + 1, rng)) {
    point.push_back({"SELECT orderkey, custkey, totalprice, orderdate, "
                     "orderpriority FROM orders WHERE orderkey = " +
                         std::to_string(key),
                     kPrimary, orders, {*order_by_key.at(key)}});
  }
  for (int64_t key : DrawDistinct(customer_keys, kPoolPerKind + 1, rng)) {
    const auto& own = orders_by_customer[key];
    Rows join;
    if (!own.empty()) {
      double total = 0;
      for (const auto* row : own) total += (*row)[O_PRICE].AsDouble();
      join.push_back({*customer_name.at(key),
                      Value::Bigint(static_cast<int64_t>(own.size())),
                      Value::Double(total)});
    }
    cjoin.push_back({"SELECT c.name, count(*), sum(o.totalprice) FROM "
                     "customer c JOIN orders o ON c.custkey = o.custkey "
                     "WHERE c.custkey = " +
                         std::to_string(key) + " GROUP BY c.name",
                     kPrimary, customers + orders, std::move(join)});
    GroupBy groups;
    for (const auto* row : own) {
      Group& g = groups.At({(*row)[O_PRIO]});
      g.count += 1;
      g.dsum += (*row)[O_PRICE].AsDouble();
    }
    Rows prio;
    for (const Group& g : groups.groups()) {
      prio.push_back({g.key[0], Value::Bigint(g.count), Value::Double(g.dsum)});
    }
    cprio.push_back({"SELECT orderpriority, count(*), sum(totalprice) FROM "
                     "orders WHERE custkey = " +
                         std::to_string(key) + " GROUP BY orderpriority",
                     kPrimary, orders, std::move(prio)});
  }
  // Fewer apps than the pool size: cycle through them with distinct texts
  // (the day filter makes each text unique and keeps the index lookup).
  std::vector<int64_t> apps = DrawDistinct(app_keys, app_keys.size(), rng);
  for (size_t i = 0; i <= kPoolPerKind; ++i) {
    int64_t key = apps[i % apps.size()];
    int64_t min_day = static_cast<int64_t>(i / apps.size());
    GroupBy groups;
    for (const auto* row : events_by_app[key]) {
      if ((*row)[A_DAY].AsBigint() < min_day) continue;
      Group& g = groups.At({(*row)[A_DAY]});
      g.dsum += (*row)[A_VALUE].AsDouble();
    }
    Rows rows;
    for (const Group& g : groups.groups()) {
      rows.push_back({g.key[0], Value::Double(g.dsum)});
    }
    app.push_back({"SELECT day, sum(value) FROM mysql.app_events WHERE "
                   "app_id = " +
                       std::to_string(key) +
                       " AND day >= " + std::to_string(min_day) +
                       " GROUP BY day",
                   kPrimary,
                   static_cast<int64_t>(events_by_app[key].size()),
                   std::move(rows)});
  }
  w.pools = {JoinPool(ref, kBatch), point, cjoin, cprio, app};
  w.batch_kinds = {0};
  // Entry 0 of every short pool is its hot text.
  w.next = [seed](int client, int64_t n, std::mt19937_64& rng) {
    if (client == 0) return std::make_pair(size_t{0}, CycleSlot(seed, 0, n, 4));
    // 8 slots: each short kind once hot, once from the cold pool.
    size_t slot = CycleSlot(seed, client, n, 8);
    size_t index = slot % 2 == 0 ? 0 : 1 + rng() % kPoolPerKind;
    return std::make_pair(1 + slot / 2, index);
  };
  return w;
}

/// cluster: 4 clients against the 2-daemon process cluster on tpch scale
/// 0.2: point lookups, orders x lineitem aggregates with a seeded literal
/// and a full group-by.
Workload ClusterWorkload(const Reference& ref, uint64_t seed) {
  Workload w;
  w.clients = 4;
  w.kinds = {"point_lookup", "join_revenue", "flag_totals"};
  std::mt19937_64 rng(seed * 1000003 + 23);
  const auto lineitem = static_cast<int64_t>(ref.lineitem.size());
  const auto orders = static_cast<int64_t>(ref.orders.size());
  std::vector<int64_t> order_keys;
  std::unordered_map<int64_t, const std::vector<Value>*> order_by_key;
  for (const auto& row : ref.orders) {
    order_keys.push_back(row[O_KEY].AsBigint());
    order_by_key[row[O_KEY].AsBigint()] = &row;
  }
  std::vector<QueryText> point, join, totals;
  for (int64_t key : DrawDistinct(order_keys, 256, rng)) {
    point.push_back({"SELECT orderkey, custkey, totalprice, orderdate, "
                     "orderpriority FROM orders WHERE orderkey = " +
                         std::to_string(key),
                     kPrimary, orders, {*order_by_key.at(key)}});
  }
  for (int month = 1; month <= 6; ++month) {
    std::string date = "1992-0" + std::to_string(month) + "-01";
    join.push_back({"SELECT o.orderpriority, count(*), sum(l.extendedprice) "
                    "FROM orders o JOIN lineitem l ON o.orderkey = "
                    "l.orderkey WHERE l.shipdate >= DATE '" +
                        date + "' GROUP BY o.orderpriority",
                    kPrimary, orders + lineitem,
                    RevenueByPriority(ref, INT64_MAX, Days(date))});
  }
  totals.push_back({"SELECT returnflag, linestatus, count(*), sum(quantity), "
                    "sum(extendedprice) FROM lineitem GROUP BY returnflag, "
                    "linestatus",
                    kPrimary, lineitem, FlagTotals(ref)});
  w.pools = {point, join, totals};
  w.batch_kinds = {1, 2};
  w.next = [seed](int client, int64_t n, std::mt19937_64& rng) {
    // 10 slots: 5 point lookups, 3 joins, 2 full group-bys.
    size_t slot = CycleSlot(seed, client, n, 10);
    if (slot < 5) return std::make_pair(size_t{0}, size_t{rng() % 256});
    if (slot < 8) {
      // Every date literal once per two cycles.
      int64_t join = n / 10 * 3 + static_cast<int64_t>(slot) - 5;
      return std::make_pair(size_t{1}, CycleSlot(seed + 1, client, join, 6));
    }
    return std::make_pair(size_t{2}, size_t{0});
  };
  return w;
}

// ---------------------------------------------------------------------------
// The measured run.

// Per-query deadline: a query still running after it is cancelled and
// counted as failed.
constexpr int64_t kDeadlineNanos = 5'000'000'000;

struct Sample {
  QueryClass cls = kPrimary;
  uint8_t kind = 0;
  bool ok = false;
  bool traced = false;
  int64_t start = 0;
  int64_t end = 0;
  int64_t rows_scanned = 0;
  int64_t rows_written = 0;
};

/// Per-layer observations of one client's traced queries.
struct LayerAcc {
  std::vector<double> parse_us, plan_us, optimize_us, fragment_us;
  int64_t replays = 0;
  int64_t fragments = 0;
  std::vector<double> planning_ms, admission_ms, execution_ms, first_page_ms;
  int64_t infos = 0;
  std::map<std::string, presto::OperatorStats> ops;  // by label
  int64_t blocked_nanos = 0, queued_nanos = 0, serde_nanos = 0;
  int64_t peak_user_bytes = 0, spilled_bytes = 0;
  std::vector<double> write_ms;
  std::vector<double> dfs_bytes_written;

  void Merge(const LayerAcc& o) {
    auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    cat(parse_us, o.parse_us);
    cat(plan_us, o.plan_us);
    cat(optimize_us, o.optimize_us);
    cat(fragment_us, o.fragment_us);
    replays += o.replays;
    fragments += o.fragments;
    cat(planning_ms, o.planning_ms);
    cat(admission_ms, o.admission_ms);
    cat(execution_ms, o.execution_ms);
    cat(first_page_ms, o.first_page_ms);
    infos += o.infos;
    for (const auto& [label, stats] : o.ops) ops[label].Merge(stats);
    blocked_nanos += o.blocked_nanos;
    queued_nanos += o.queued_nanos;
    serde_nanos += o.serde_nanos;
    peak_user_bytes = std::max(peak_user_bytes, o.peak_user_bytes);
    spilled_bytes += o.spilled_bytes;
    cat(write_ms, o.write_ms);
    cat(dfs_bytes_written, o.dfs_bytes_written);
  }
};

struct ClientState {
  std::vector<Sample> samples;
  std::vector<std::pair<std::string, const QueryText*>> ctas_targets;
  TraceContext trace;
  LayerAcc layers;
  int64_t mismatches = 0;
  std::string first_mismatch;
};

/// Replays the planning phases of `sql` through the modules' public entry
/// points, timing each (the engine's own run of them may be a plan-cache
/// hit, so it cannot be timed from outside).
void ReplayPlanning(presto::PrestoEngine& engine, const std::string& sql,
                    TraceContext* trace, int64_t seq, LayerAcc* acc) {
  ScopedSpan root(trace, "replay", seq);
  auto snapshot = engine.metadata_manager().NewSnapshot();
  int64_t t0 = NowNanos();
  presto::Result<presto::sql::StatementPtr> stmt = [&] {
    ScopedSpan span(trace, "sql.parse", seq);
    return presto::sql::ParseStatement(sql);
  }();
  int64_t t1 = NowNanos();
  if (!stmt.ok()) return;
  presto::Planner planner(snapshot.get());
  presto::Result<presto::PlanNodePtr> plan = [&] {
    ScopedSpan span(trace, "plan.plan", seq);
    return planner.Plan(**stmt);
  }();
  int64_t t2 = NowNanos();
  if (!plan.ok()) return;
  presto::Optimizer optimizer(snapshot.get(), engine.options().optimizer);
  presto::Result<presto::PlanNodePtr> optimized = [&] {
    ScopedSpan span(trace, "optimizer.optimize", seq);
    return optimizer.Optimize(std::move(*plan));
  }();
  int64_t t3 = NowNanos();
  if (!optimized.ok()) return;
  presto::Fragmenter fragmenter;
  presto::Result<presto::FragmentedPlan> fragments = [&] {
    ScopedSpan span(trace, "fragment.fragment", seq);
    return fragmenter.Fragment(*optimized);
  }();
  int64_t t4 = NowNanos();
  if (!fragments.ok()) return;
  acc->parse_us.push_back(static_cast<double>(t1 - t0) / 1e3);
  acc->plan_us.push_back(static_cast<double>(t2 - t1) / 1e3);
  acc->optimize_us.push_back(static_cast<double>(t3 - t2) / 1e3);
  acc->fragment_us.push_back(static_cast<double>(t4 - t3) / 1e3);
  acc->replays += 1;
  acc->fragments += static_cast<int64_t>(fragments->fragments.size());
}

void RecordQueryInfo(presto::PrestoEngine& engine, const Outcome& outcome,
                     TraceContext* trace, int64_t seq, LayerAcc* acc) {
  ScopedSpan span(trace, "query_info", seq);
  auto info = engine.QueryInfoFor(outcome.query_id);
  if (!info.ok()) return;
  acc->infos += 1;
  acc->planning_ms.push_back(static_cast<double>(info->planning_nanos) / 1e6);
  acc->admission_ms.push_back(static_cast<double>(info->queued_nanos) / 1e6);
  acc->execution_ms.push_back(static_cast<double>(info->execution_nanos) /
                              1e6);
  acc->first_page_ms.push_back(
      static_cast<double>(outcome.first_page_nanos - outcome.start_nanos) /
      1e6);
  for (const presto::OperatorStats& op : info->stats.MergedOperators()) {
    acc->ops[op.label].Merge(op);
    acc->blocked_nanos += op.blocked_nanos;
    acc->queued_nanos += op.queued_nanos;
    acc->serde_nanos += op.serde_nanos;
  }
  acc->peak_user_bytes =
      std::max(acc->peak_user_bytes, info->stats.peak_user_memory_bytes);
  acc->spilled_bytes += info->stats.total_spilled_bytes;
}

int64_t WarehouseBytes(presto::HiveConnector& hive, const std::string& table) {
  int64_t bytes = 0;
  for (const std::string& path : hive.dfs().List("/warehouse/" + table + "/")) {
    auto size = hive.dfs().FileSize(path);
    if (size.ok()) bytes += *size;
  }
  return bytes;
}

struct RunWindow {
  int64_t start = 0;
  int64_t traced_from = INT64_MAX;  // queries starting here are traced
  int64_t end = 0;
};

void ClientLoop(Env& env, const Workload& workload, int client, uint64_t seed,
                const RunWindow& window, Watchdog& watchdog,
                ClientState* state) {
  std::mt19937_64 rng(seed * 1000003 + 101 * static_cast<uint64_t>(client));
  presto::PrestoEngine& engine = *env.engine;
  for (int64_t n = 0;; ++n) {
    int64_t now = NowNanos();
    if (now >= window.end) break;
    auto [kind, index] = workload.next(client, n, rng);
    const QueryText& text = workload.pools[kind][index];
    bool traced = now >= window.traced_from;
    TraceContext* trace = traced ? &state->trace : nullptr;
    int64_t seq = static_cast<int64_t>(client) * 1'000'000'000 + n;
    std::string sql = text.sql;
    std::string target;
    if (text.cls == kWrite) {
      target = "etl_" + std::to_string(client) + "_" + std::to_string(n);
      sql = "CREATE TABLE hive." + target + " AS " + text.sql;
    }
    Sample sample;
    sample.cls = text.cls;
    sample.kind = static_cast<uint8_t>(kind);
    sample.traced = traced;
    Outcome outcome;
    {
      ScopedSpan span(trace, "query", seq);
      outcome = RunQuery(engine, sql, watchdog, client,
                         now + kDeadlineNanos, trace, seq);
      if (outcome.ok && text.cls != kWrite) {
        ScopedSpan check(trace, "check", seq);
        if (!RowsMatch(outcome.rows, text.expected)) {
          if (state->mismatches++ == 0) state->first_mismatch = sql;
        }
      }
    }
    sample.ok = outcome.ok;
    sample.start = outcome.start_nanos;
    sample.end = outcome.end_nanos;
    if (!outcome.ok) {
      std::fprintf(stderr, "query failed (%s): %s\n", outcome.error.c_str(),
                   sql.c_str());
    }
    if (outcome.ok) {
      sample.rows_scanned = text.rows_scanned;
      if (text.cls == kWrite) {
        sample.rows_written = static_cast<int64_t>(text.expected.size());
        state->ctas_targets.emplace_back(target, &text);
      }
    }
    // A success that lands after the window is not counted; a failure
    // always is.
    if (sample.end <= window.end || !sample.ok) {
      state->samples.push_back(sample);
    }
    if (traced && outcome.ok) {
      RecordQueryInfo(engine, outcome, trace, seq, &state->layers);
      if (text.cls == kWrite) {
        state->layers.write_ms.push_back(
            static_cast<double>(outcome.end_nanos - outcome.start_nanos) /
            1e6);
        state->layers.dfs_bytes_written.push_back(
            static_cast<double>(WarehouseBytes(*env.hive, target)));
      } else {
        ReplayPlanning(engine, sql, trace, seq, &state->layers);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t samples;
};

// JSON has no NaN; a non-finite value only occurs in a run marked incorrect.
std::string FormatNumber(double value) {
  if (!std::isfinite(value)) value = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

void PrintReport(const std::string& workload, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %s %-40s %16s %-6s n=%" PRId64 "\n", workload.c_str(),
                m.name.c_str(), FormatNumber(m.value).c_str(), m.unit.c_str(),
                m.samples);
  }
}

std::string ResultJson(bool correct, int64_t attempted, int64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name +
           "\": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

/// Latencies in ms of the successful samples that satisfy `keep`.
template <typename Keep>
std::vector<double> Latencies(const std::vector<Sample>& samples, Keep keep) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (s.ok && keep(s)) out.push_back(static_cast<double>(s.end - s.start) / 1e6);
  }
  return out;
}

std::vector<double> ClassLatencies(const std::vector<Sample>& samples,
                                   QueryClass cls) {
  return Latencies(samples, [cls](const Sample& s) { return s.cls == cls; });
}

std::vector<double> KindLatencies(const std::vector<Sample>& samples,
                                  size_t kind) {
  return Latencies(samples, [kind](const Sample& s) { return s.kind == kind; });
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Geometric mean, over the query kinds of class `cls`, of `stat` of each
/// kind's latencies. The kinds of one class differ several-fold in cost, so
/// a statistic of the pooled latencies would sit on the boundary between two
/// kinds and jump with their exact shares; per-kind statistics do not. NaN
/// when a kind has no completed query (such a run is not correct).
double ClassLatency(const std::vector<Sample>& samples,
                    const Workload& workload, QueryClass cls,
                    const std::function<double(const std::vector<double>&)>& stat) {
  double log_sum = 0;
  int kinds = 0;
  for (size_t kind = 0; kind < workload.pools.size(); ++kind) {
    if (workload.pools[kind][0].cls != cls) continue;
    std::vector<double> latencies = KindLatencies(samples, kind);
    if (latencies.empty()) return std::nan("");
    double value = stat(latencies);
    log_sum += std::log(value);
    kinds += 1;
  }
  return kinds > 0 ? std::exp(log_sum / kinds) : 0;
}

std::function<double(const std::vector<double>&)> QuantileOf(double q) {
  return [q](const std::vector<double>& values) { return Quantile(values, q); };
}

// Labels of the operators the engine creates (exec/task.cc); every label is
// reported on every workload so traced outputs share one metric set.
const char* const kOperatorLabels[] = {
    "scan",      "filter",        "project",       "aggregate",
    "hash_build", "hash_probe",   "topn",          "exchange_sink",
    "remote_source", "writer"};

struct CodecRates {
  double encode_mb_per_s = 0;
  double decode_mb_per_s = 0;
};

/// Times PageCodec::Encode/Decode on up to 16 of the workload's own input
/// pages, a few passes each.
CodecRates MeasureCodec(const std::vector<presto::Page>& pages) {
  presto::PageCodec codec;
  int64_t raw = 0, encode_nanos = 0, decode_nanos = 0;
  size_t count = std::min<size_t>(pages.size(), 16);
  for (int pass = 0; pass < 5; ++pass) {
    for (size_t i = 0; i < count; ++i) {
      int64_t t0 = NowNanos();
      presto::PageCodec::Frame frame = codec.Encode(pages[i]);
      int64_t t1 = NowNanos();
      auto page = codec.Decode(frame);
      int64_t t2 = NowNanos();
      PRESTO_CHECK(page.ok() && page->num_rows() == pages[i].num_rows());
      raw += frame.raw_bytes;
      encode_nanos += t1 - t0;
      decode_nanos += t2 - t1;
    }
  }
  CodecRates rates;
  if (encode_nanos > 0) {
    rates.encode_mb_per_s = static_cast<double>(raw) / 1e6 /
                            (static_cast<double>(encode_nanos) / 1e9);
  }
  if (decode_nanos > 0) {
    rates.decode_mb_per_s = static_cast<double>(raw) / 1e6 /
                            (static_cast<double>(decode_nanos) / 1e9);
  }
  return rates;
}

struct CacheCounters {
  int64_t plan_hits = 0, plan_misses = 0;
  int64_t meta_hits = 0, meta_misses = 0;
  int64_t split_hits = 0, split_misses = 0;
  int64_t wire = 0, raw = 0, http_requests = 0, http_retries = 0;

  static CacheCounters Read(presto::PrestoEngine& engine) {
    CacheCounters c;
    auto& m = engine.metadata_manager();
    c.plan_hits = m.plan_cache().hits();
    c.plan_misses = m.plan_cache().misses();
    c.meta_hits = m.metadata_cache().hits();
    c.meta_misses = m.metadata_cache().misses();
    c.split_hits = m.split_cache().hits();
    c.split_misses = m.split_cache().misses();
    auto& x = engine.cluster().exchange();
    c.wire = x.serialized_wire_bytes();
    c.raw = x.serialized_raw_bytes();
    c.http_requests = x.http_requests();
    c.http_retries = x.http_retries();
    return c;
  }
  CacheCounters Minus(const CacheCounters& o) const {
    CacheCounters d;
    d.plan_hits = plan_hits - o.plan_hits;
    d.plan_misses = plan_misses - o.plan_misses;
    d.meta_hits = meta_hits - o.meta_hits;
    d.meta_misses = meta_misses - o.meta_misses;
    d.split_hits = split_hits - o.split_hits;
    d.split_misses = split_misses - o.split_misses;
    d.wire = wire - o.wire;
    d.raw = raw - o.raw;
    d.http_requests = http_requests - o.http_requests;
    d.http_retries = http_retries - o.http_retries;
    return d;
  }
};

double Ratio(int64_t hits, int64_t misses) {
  return hits + misses > 0
             ? static_cast<double>(hits) / static_cast<double>(hits + misses)
             : 0;
}

/// The system the window measures, and what setting it up cost.
struct Prepared {
  std::unique_ptr<Env> env;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_seconds;
  double inputs_seconds = 0;
  double reference_seconds = 0;
};

constexpr int kSetupRounds = 3;

/// Sets the workload's system up kSetupRounds times; the last one is kept
/// for the window. A set-up is what the system does before it can answer:
/// engine start, table loads into the connectors (or the worker daemons'
/// start) and a warm-up query of each kind. The tables it loads are
/// generated once, before the first round and outside every timing, and
/// the reference answers are read once, from the first system, between its
/// set-up and its warm-up.
presto::Status Prepare(const Args& args, int64_t hard_limit, Prepared* out) {
  const bool cluster = args.workload == "cluster";
  Inputs inputs;
  if (!cluster) {
    int64_t start = NowNanos();
    PRESTO_ASSIGN_OR_RETURN(
        inputs, GenerateInputs(args.workload == "mixed", args.seed));
    out->inputs_seconds = static_cast<double>(NowNanos() - start) / 1e9;
  }
  for (int round = 0; round < kSetupRounds; ++round) {
    out->env.reset();
    int64_t start = NowNanos();
    out->env = std::make_unique<Env>();
    Env& env = *out->env;
    PRESTO_RETURN_IF_ERROR(cluster ? SetupCluster(&env, args.worker_bin)
                                   : SetupThreads(&env, inputs));
    int64_t paused = 0;
    if (!out->workload) {
      int64_t reference_start = NowNanos();
      PRESTO_ASSIGN_OR_RETURN(
          Reference ref,
          ReadReference(*env.engine, !cluster, args.workload == "mixed"));
      out->workload = std::make_unique<Workload>(
          args.workload == "etl"     ? EtlWorkload(ref, args.seed)
          : args.workload == "mixed" ? MixedWorkload(ref, args.seed)
                                     : ClusterWorkload(ref, args.seed));
      paused = NowNanos() - reference_start;
      out->reference_seconds = static_cast<double>(paused) / 1e9;
    }
    // Warm-up: each kind's first text once, so lazy set-up and first-touch
    // costs land here rather than in the window.
    Watchdog watchdog(1, hard_limit, KillWorkers);
    for (const std::vector<QueryText>& pool : out->workload->pools) {
      const QueryText& text = pool[0];
      std::string sql = text.cls == kWrite
                            ? "CREATE TABLE hive.warmup AS " + text.sql
                            : text.sql;
      Outcome outcome = RunQuery(*env.engine, sql, watchdog, 0,
                                 NowNanos() + 30'000'000'000, nullptr, -1);
      if (!outcome.ok) {
        return presto::Status::Internal("warm-up failed (" + outcome.error +
                                        "): " + sql);
      }
    }
    out->setup_seconds.push_back(
        static_cast<double>(NowNanos() - start - paused) / 1e9);
  }
  return presto::Status::OK();
}

/// Everything one measured window observed, merged over its clients.
struct Observations {
  RunWindow window;
  std::unique_ptr<presto::TraceRecorder> recorder;  // spans of the traced half
  std::vector<std::unique_ptr<ClientState>> clients;
  std::unique_ptr<ProcSampler> sampler;
  std::vector<Sample> samples;
  LayerAcc layers;
  int64_t mismatches = 0;
  std::vector<std::pair<std::string, const QueryText*>> ctas_targets;
  CacheCounters untraced_delta;  // over the untraced half (--trace 1)
  CacheCounters window_delta;    // over the whole window

  double seconds() const {
    return static_cast<double>(window.end - window.start) / 1e9;
  }
};

void Measure(const Args& args, Env& env, const Workload& workload,
             int64_t hard_limit, Observations* obs) {
  Watchdog watchdog(workload.clients, hard_limit, KillWorkers);
  presto::PrestoEngine* engine = env.engine.get();
  const int workers = static_cast<int>(env.workers.size());
  obs->sampler = std::make_unique<ProcSampler>(
      env.worker_pids(), 50'000'000, [engine, workers]() {
        double sum = 0;
        for (int w = 0; w < workers; ++w) {
          sum += static_cast<double>(
              engine->cluster().liveness().last_rtt_micros(w));
        }
        return workers > 0 ? sum / workers : 0.0;
      });
  obs->recorder = std::make_unique<presto::TraceRecorder>("perfbench");
  for (int c = 0; c < workload.clients; ++c) {
    obs->clients.push_back(std::make_unique<ClientState>());
    obs->clients.back()->trace.recorder = obs->recorder.get();
    obs->clients.back()->trace.tid = c;
  }
  RunWindow& window = obs->window;
  window.start = NowNanos();
  window.end = window.start + int64_t{args.seconds} * 1'000'000'000;
  if (args.trace) window.traced_from = window.start + (window.end - window.start) / 2;
  CacheCounters before = CacheCounters::Read(*engine);
  obs->sampler->Start();
  std::vector<std::thread> threads;
  for (int c = 0; c < workload.clients; ++c) {
    ClientState* state = obs->clients[static_cast<size_t>(c)].get();
    threads.emplace_back([&, c, state] {
      ClientLoop(env, workload, c, args.seed, window, watchdog, state);
    });
  }
  if (args.trace) {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(window.traced_from)));
    obs->untraced_delta = CacheCounters::Read(*engine).Minus(before);
  }
  for (auto& thread : threads) thread.join();
  obs->sampler->Stop();
  obs->window_delta = CacheCounters::Read(*engine).Minus(before);

  for (const auto& state : obs->clients) {
    obs->samples.insert(obs->samples.end(), state->samples.begin(),
                        state->samples.end());
    obs->layers.Merge(state->layers);
    obs->mismatches += state->mismatches;
    if (state->mismatches > 0) {
      std::fprintf(stderr, "wrong result: %s\n", state->first_mismatch.c_str());
    }
    obs->ctas_targets.insert(obs->ctas_targets.end(),
                             state->ctas_targets.begin(),
                             state->ctas_targets.end());
  }
}

/// Reads every CTAS target back and compares it with its expected rows;
/// returns the number of targets that differ. `dfs_bytes_read` gets what
/// the read-backs read from the warehouse.
int64_t CheckCtasTargets(Env& env, const Observations& obs,
                         int64_t* dfs_bytes_read) {
  int64_t mismatches = 0;
  int64_t before = env.hive ? env.hive->dfs().total_bytes_read() : 0;
  for (const auto& [target, text] : obs.ctas_targets) {
    auto rows = env.engine->ExecuteAndFetch(
        "SELECT custkey, line_count, revenue FROM hive." + target);
    if (!rows.ok() || !RowsMatch(*rows, text->expected)) {
      if (mismatches++ == 0) {
        std::fprintf(stderr,
                     "CTAS target %s does not hold its expected %zu rows\n",
                     target.c_str(), text->expected.size());
      }
    }
  }
  *dfs_bytes_read = env.hive ? env.hive->dfs().total_bytes_read() - before : 0;
  return mismatches;
}

int64_t Count(const std::vector<double>& values) {
  return static_cast<int64_t>(values.size());
}

/// The end-to-end metrics of BENCHMARK.json, identical on every workload.
/// `report` also gets the workload's own metric names.
std::vector<Metric> EndToEndMetrics(const Args& args, const Prepared& prep,
                                    const Observations& obs,
                                    std::vector<Metric>* report) {
  const std::vector<Sample>& samples = obs.samples;
  const Workload& workload = *prep.workload;
  std::vector<double> primary = ClassLatencies(samples, kPrimary);
  int64_t rows_scanned = 0, rows_written = 0, attempted = 0, batch_rows = 0, batch_queries = 0;
  double write_seconds = 0, batch_seconds = 0;
  for (const Sample& s : samples) {
    attempted += 1;
    if (!s.ok) continue;
    const double seconds = static_cast<double>(s.end - s.start) / 1e9;
    rows_scanned += s.rows_scanned;
    rows_written += s.rows_written;
    if (s.cls == kWrite) write_seconds += seconds;
    if (std::count(workload.batch_kinds.begin(), workload.batch_kinds.end(), s.kind) > 0) {
      batch_rows += s.rows_scanned;
      batch_queries += 1;
      batch_seconds += seconds;
    }
  }
  const double window_s = obs.seconds();
  const double qps = static_cast<double>(primary.size()) / window_s;
  const double p50 = ClassLatency(samples, workload, kPrimary, QuantileOf(0.5));
  std::vector<Metric> result = {
      {"setup_s", Quantile(prep.setup_seconds, 0.5), "s",
       Count(prep.setup_seconds)},
      {"qps", qps, "1/s", Count(primary)},
      {"latency_mean_ms", ClassLatency(samples, workload, kPrimary, Mean), "ms",
       Count(primary)},
      {"latency_p90_ms", ClassLatency(samples, workload, kPrimary, QuantileOf(0.9)), "ms",
       Count(primary)},
      {"rows_per_s", static_cast<double>(rows_scanned) / window_s, "1/s",
       attempted},
      {"batch_rows_per_s",
       batch_seconds > 0 ? static_cast<double>(batch_rows) / batch_seconds
                         : std::nan(""),
       "1/s", batch_queries},
      {"peak_rss_mb", obs.sampler->PeakRssMb(), "MB",
       static_cast<int64_t>(obs.sampler->samples().size())},
  };
  report->insert(report->end(), result.begin(), result.end());
  report->push_back({"latency_p50_ms", p50, "ms", Count(primary)});
  if (args.workload == "etl") {
    std::vector<double> writes = ClassLatencies(samples, kWrite);
    report->push_back({"write_rows_per_s",
                       write_seconds > 0
                           ? static_cast<double>(rows_written) / write_seconds
                           : 0,
                       "1/s", Count(writes)});
    report->push_back(
        {"ctas.latency_p50_ms", Quantile(writes, 0.5), "ms", Count(writes)});
  } else if (args.workload == "mixed") {
    std::vector<double> batch = ClassLatencies(samples, kBatch);
    report->push_back({"short.qps", qps, "1/s", Count(primary)});
    report->push_back({"short.latency_p50_ms", p50, "ms", Count(primary)});
    report->push_back({"short.latency_p99_ms",
                       ClassLatency(samples, workload, kPrimary, QuantileOf(0.99)), "ms",
                       Count(primary)});
    report->push_back({"batch.qps", static_cast<double>(batch.size()) / window_s,
                       "1/s", Count(batch)});
    report->push_back(
        {"batch.latency_p50_ms", Quantile(batch, 0.5), "ms", Count(batch)});
  }
  for (size_t kind = 0; kind < workload.kinds.size(); ++kind) {
    std::vector<double> latencies = KindLatencies(samples, kind);
    std::string prefix = "kind." + workload.kinds[kind];
    report->push_back({prefix + ".latency_p50_ms", Quantile(latencies, 0.5),
                       "ms", Count(latencies)});
    report->push_back({prefix + ".latency_p90_ms", Quantile(latencies, 0.9),
                       "ms", Count(latencies)});
  }
  return result;
}

/// The per-layer metrics of the traced run (the same set on every
/// workload; a layer the workload does not use reads 0).
std::vector<Metric> PerLayerMetrics(const Args& args, Env& env,
                                    const Observations& obs,
                                    int64_t dfs_bytes_read) {
  const LayerAcc& layers = obs.layers;
  const ProcSampler& sampler = *obs.sampler;
  std::vector<Metric> r;

  // Tracing overhead: primary-class p50 of the traced half against the
  // untraced half of the same run.
  std::vector<double> plain, traced;
  int64_t traced_queries = 0, all_ok = 0;
  for (const Sample& s : obs.samples) {
    if (!s.ok) continue;
    all_ok += 1;
    traced_queries += s.traced ? 1 : 0;
    if (s.cls == kPrimary) {
      (s.traced ? traced : plain)
          .push_back(static_cast<double>(s.end - s.start) / 1e6);
    }
  }
  auto per = [](int64_t count) {
    return count > 0 ? 1.0 / static_cast<double>(count) : 0.0;
  };
  const double per_info = per(layers.infos);

  r.push_back({"sql.parse_us", Quantile(layers.parse_us, 0.5), "us", Count(layers.parse_us)});
  r.push_back({"plan.plan_us", Quantile(layers.plan_us, 0.5), "us", Count(layers.plan_us)});
  r.push_back({"optimizer.optimize_us", Quantile(layers.optimize_us, 0.5), "us",
               Count(layers.optimize_us)});
  r.push_back({"fragment.fragment_us", Quantile(layers.fragment_us, 0.5), "us",
               Count(layers.fragment_us)});
  r.push_back({"fragment.fragments_per_query",
               static_cast<double>(layers.fragments) * per(layers.replays), "count",
               layers.replays});

  const CacheCounters& u = obs.untraced_delta;
  auto cache = [&r](const std::string& name, int64_t hits, int64_t misses) {
    r.push_back({"metadata." + name + "_hit_ratio", Ratio(hits, misses), "ratio", hits + misses});
    r.push_back({"metadata." + name + "_hits", static_cast<double>(hits), "count", 1});
    r.push_back({"metadata." + name + "_misses", static_cast<double>(misses), "count", 1});
  };
  cache("plan_cache", u.plan_hits, u.plan_misses);
  cache("metadata_cache", u.meta_hits, u.meta_misses);
  cache("split_cache", u.split_hits, u.split_misses);

  r.push_back({"schedule.planning_ms", Quantile(layers.planning_ms, 0.5), "ms",
               Count(layers.planning_ms)});
  r.push_back({"schedule.admission_wait_ms", Quantile(layers.admission_ms, 0.5), "ms",
               Count(layers.admission_ms)});
  r.push_back({"schedule.execution_ms", Quantile(layers.execution_ms, 0.5), "ms",
               Count(layers.execution_ms)});
  r.push_back({"schedule.first_page_ms", Quantile(layers.first_page_ms, 0.5), "ms",
               Count(layers.first_page_ms)});
  const auto proc_samples = static_cast<int64_t>(sampler.samples().size());
  r.push_back({"schedule.coordinator_threads", sampler.Max(0, &ProcReading::threads), "count",
               proc_samples});

  int64_t filter_project_rows = 0, filter_project_nanos = 0;
  for (const char* label : kOperatorLabels) {
    presto::OperatorStats op;
    auto it = layers.ops.find(label);
    if (it != layers.ops.end()) op = it->second;
    std::string prefix = std::string("exec.") + label;
    r.push_back({prefix + ".wall_ms", static_cast<double>(op.cpu_nanos()) / 1e6 * per_info, "ms",
                 layers.infos});
    r.push_back({prefix + ".rows_in", static_cast<double>(op.input_rows) * per_info, "count",
                 layers.infos});
    r.push_back({prefix + ".rows_out", static_cast<double>(op.output_rows) * per_info, "count",
                 layers.infos});
    if (std::strcmp(label, "filter") == 0 || std::strcmp(label, "project") == 0) {
      filter_project_rows += op.input_rows;
      filter_project_nanos += op.cpu_nanos();
    }
  }
  r.push_back({"exec.blocked_ms", static_cast<double>(layers.blocked_nanos) / 1e6 * per_info, "ms",
               layers.infos});
  r.push_back({"exec.queued_ms", static_cast<double>(layers.queued_nanos) / 1e6 * per_info, "ms",
               layers.infos});
  r.push_back({"expr.filter_project_rows_per_s",
               filter_project_nanos > 0
                   ? static_cast<double>(filter_project_rows) /
                         (static_cast<double>(filter_project_nanos) / 1e9)
                   : 0,
               "1/s", layers.infos});

  auto pages = env.memory ? env.memory->GetPages("lineitem")
                          : presto::ReadAllPages(env.tpch.get(), "lineitem");
  std::vector<presto::Page> codec_pages;
  if (pages.ok()) codec_pages = std::move(*pages);
  CodecRates codec = MeasureCodec(codec_pages);
  const auto codec_samples = static_cast<int64_t>(std::min<size_t>(codec_pages.size(), 16));
  r.push_back({"vector.codec_encode_mb_per_s", codec.encode_mb_per_s, "MB/s", codec_samples});
  r.push_back({"vector.codec_decode_mb_per_s", codec.decode_mb_per_s, "MB/s", codec_samples});

  const CacheCounters& w = obs.window_delta;
  const double per_query = per(all_ok);
  r.push_back({"exchange.serialized_bytes", static_cast<double>(w.wire) * per_query, "B", all_ok});
  r.push_back({"exchange.compression_ratio",
               w.wire > 0 ? static_cast<double>(w.raw) / static_cast<double>(w.wire) : 0, "ratio",
               all_ok});
  r.push_back({"exchange.serde_ms", static_cast<double>(layers.serde_nanos) / 1e6 * per_info, "ms",
               layers.infos});
  r.push_back({"exchange.http_requests", static_cast<double>(w.http_requests) * per_query, "count",
               all_ok});
  r.push_back({"exchange.http_retries", static_cast<double>(w.http_retries), "count", all_ok});

  const auto readbacks = static_cast<int64_t>(obs.ctas_targets.size());
  r.push_back({"connectors.write_ms", Quantile(layers.write_ms, 0.5), "ms", Count(layers.write_ms)});
  r.push_back({"connectors.dfs_bytes_read", static_cast<double>(dfs_bytes_read) * per(readbacks),
               "B", readbacks});
  r.push_back({"connectors.dfs_bytes_written", Mean(layers.dfs_bytes_written), "B",
               Count(layers.dfs_bytes_written)});
  r.push_back({"memory.peak_user_bytes", static_cast<double>(layers.peak_user_bytes), "B",
               layers.infos});
  r.push_back({"memory.spilled_bytes", static_cast<double>(layers.spilled_bytes), "B",
               layers.infos});

  r.push_back({"coordinator.open_fds", sampler.Median(0, &ProcReading::fds), "count", proc_samples});
  r.push_back({"coordinator.threads", sampler.Median(0, &ProcReading::threads), "count",
               proc_samples});
  r.push_back({"coordinator.fd_growth_per_s", sampler.FdGrowthPerSecond(0), "1/s", proc_samples});
  // Worker figures are means over the daemons.
  double fds = 0, threads = 0, rss_mb = 0, growth = 0;
  const size_t workers = sampler.num_procs() - 1;
  for (size_t p = 1; p <= workers; ++p) {
    fds += sampler.Median(p, &ProcReading::fds);
    threads += sampler.Median(p, &ProcReading::threads);
    rss_mb += sampler.Max(p, &ProcReading::rss_kb) / 1024.0;
    growth += sampler.FdGrowthPerSecond(p);
  }
  const double per_worker = workers > 0 ? 1.0 / static_cast<double>(workers) : 0;
  std::vector<double> rtts;
  for (const auto& s : sampler.samples()) {
    if (s.extra > 0) rtts.push_back(s.extra);
  }
  r.push_back({"worker.open_fds", fds * per_worker, "count", proc_samples});
  r.push_back({"worker.threads", threads * per_worker, "count", proc_samples});
  r.push_back({"worker.rss_mb", rss_mb * per_worker, "MB", proc_samples});
  r.push_back({"worker.fd_growth_per_s", growth * per_worker, "1/s", proc_samples});
  r.push_back({"worker.heartbeat_rtt_us", Quantile(rtts, 0.5), "us", Count(rtts)});

  const std::vector<presto::TraceEvent> events = obs.recorder->Snapshot();
  const auto spans = static_cast<int64_t>(events.size());
  std::map<std::string, double> self = SelfTimes(events);
  for (const char* name : {"query", "engine.execute", "exec.first_page", "exec.drain", "check"}) {
    auto it = self.find(name);
    double ms = it != self.end() ? it->second : 0;
    r.push_back({std::string("trace.") + name + ".self_ms", ms * per(traced_queries), "ms",
                 traced_queries});
  }
  const double plain_p50 = Quantile(plain, 0.5);
  r.push_back({"trace.overhead_pct",
               plain_p50 > 0 ? (Quantile(traced, 0.5) / plain_p50 - 1.0) * 100.0 : 0, "%",
               Count(traced)});
  r.push_back({"trace.spans", static_cast<double>(spans), "count", spans});

  std::string path = args.out_dir + "/trace_" + args.workload + "_" +
                     std::to_string(args.seed) + ".json";
  std::ofstream out(path);
  out << obs.recorder->ToChromeTraceJson();
  if (!out) std::fprintf(stderr, "could not write %s\n", path.c_str());
  return r;
}

int Main(int argc, char** argv) {
  setvbuf(stdout, nullptr, _IOLBF, 0);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: prestobench --workload etl|mixed|cluster --seed N "
                 "--seconds S --trace 0|1 --worker-bin PATH [--out-dir DIR]\n");
    return 2;
  }
  if (args.workload == "cluster" && access(args.worker_bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "presto_worker not found at %s\n", args.worker_bin.c_str());
    return 2;
  }
  signal(SIGTERM, HandleSignal);
  signal(SIGINT, HandleSignal);
  signal(SIGPIPE, SIG_IGN);
  // The worker daemons inherit this: the process cluster's known fd growth
  // should show as a rate, not end the run at a low default soft limit.
  struct rlimit files = {};
  if (getrlimit(RLIMIT_NOFILE, &files) == 0) {
    files.rlim_cur = files.rlim_max;
    setrlimit(RLIMIT_NOFILE, &files);
    getrlimit(RLIMIT_NOFILE, &files);
  }
  const int64_t hard_limit = NowNanos() + 160'000'000'000;
  std::printf("context {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %d, \"trace\": %d, \"nproc\": %ld, \"build_type\": \"%s\", "
              "\"source\": \"%s\", \"nofile_limit\": %lld}\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace ? 1 : 0,
              sysconf(_SC_NPROCESSORS_ONLN), args.build_type.c_str(), args.source_id.c_str(),
              static_cast<long long>(files.rlim_cur));

  Prepared prep;
  presto::Status prepared = Prepare(args, hard_limit, &prep);
  if (!prepared.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", prepared.ToString().c_str());
    return 1;
  }
  // Give back what the reference rows and the discarded systems held, so
  // peak_rss_mb sees the measured system only.
  malloc_trim(0);

  Observations obs;
  Measure(args, *prep.env, *prep.workload, hard_limit, &obs);
  int64_t dfs_bytes_read = 0;
  int64_t ctas_mismatches = CheckCtasTargets(*prep.env, obs, &dfs_bytes_read);

  int64_t attempted = 0, failed = 0;
  std::vector<int64_t> completed(prep.workload->kinds.size(), 0);
  for (const Sample& s : obs.samples) {
    attempted += 1;
    failed += s.ok ? 0 : 1;
    completed[s.kind] += s.ok ? 1 : 0;
  }
  const int64_t idle_kinds = std::count(completed.begin(), completed.end(), 0);
  if (idle_kinds > 0) {
    std::fprintf(stderr, "%" PRId64 " query kinds never completed\n", idle_kinds);
  }
  // A failed query fails the run: otherwise a change that breaks a query
  // could read as faster, since the failure ends that query early.
  bool correct = obs.mismatches == 0 && ctas_mismatches == 0 && failed == 0 &&
                 idle_kinds == 0 && attempted > 0;
  std::vector<Metric> report = {
      {"attempted", static_cast<double>(attempted), "count", attempted},
      {"failed_share", attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0,
       "ratio", attempted},
      {"wrong_results", static_cast<double>(obs.mismatches + ctas_mismatches), "count", attempted},
      {"inputs_s", prep.inputs_seconds, "s", 1},
      {"reference_s", prep.reference_seconds, "s", 1},
  };
  std::vector<Metric> result =
      args.trace ? PerLayerMetrics(args, *prep.env, obs, dfs_bytes_read)
                 : EndToEndMetrics(args, prep, obs, &report);
  if (!args.trace) {
    for (const Metric& m : result) correct = correct && std::isfinite(m.value);
  }
  if (args.trace) report.insert(report.end(), result.begin(), result.end());
  PrintReport(args.workload, report);

  prep.env.reset();  // stops and reaps the worker daemons
  std::printf("%s\n", ResultJson(correct, attempted, failed, result).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
