#ifndef PERFEVAL_SERVE_SERVICE_H_
#define PERFEVAL_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/status.h"
#include "db/database.h"
#include "sched/worker_pool.h"

namespace perfeval {
namespace serve {

/// What happens when a request arrives and the admission queue is full.
/// The three classic server answers; which one a service uses changes what
/// a load generator measures (a blocked producer is coordinated omission).
enum class OverloadPolicy {
  kBlock,    ///< producer waits for a queue slot (back-pressure).
  kShed,     ///< reject immediately with kOverloaded.
  kTimeout,  ///< wait up to admission_timeout_ns, then kOverloaded.
};

const char* OverloadPolicyName(OverloadPolicy policy);

/// Configuration of a QueryService instance.
struct ServiceOptions {
  /// Executor width: sched::WorkerPool threads draining the admission
  /// queue. A pure concurrency knob — response relations and fingerprints
  /// are identical at any setting (serve_test replays a schedule at 1/4/8
  /// workers and compares fingerprints bit for bit).
  int workers = 4;
  /// Admitted-but-not-yet-running requests allowed before the overload
  /// policy engages. Bounded by design: an unbounded queue hides overload
  /// until memory runs out.
  size_t queue_capacity = 64;
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// kTimeout policy: how long Submit may wait for a queue slot.
  int64_t admission_timeout_ns = 10'000'000;
  db::ExecMode mode = db::ExecMode::kOptimized;
  db::SinkKind sink = db::SinkKind::kDiscard;
  /// FNV-1a fingerprint of every rendered result relation (costs a render
  /// per request; the determinism tests need it, a pure latency sweep can
  /// turn it off).
  bool fingerprint_results = true;
  /// Per-tenant admission quotas: max outstanding (admitted but not yet
  /// completed) requests per tenant name. A tenant at its quota is rejected
  /// immediately with kOverloaded — quota rejection never blocks, even
  /// under OverloadPolicy::kBlock, so one greedy tenant cannot occupy the
  /// whole admission queue. Tenants absent from the map (and requests with
  /// an empty tenant) are unlimited.
  std::map<std::string, size_t> tenant_quotas;
  /// When > 0, the worker sleeps `simulated storage stall * scale` after
  /// executing a request, turning the DiskModel's modeled stall into real
  /// wall time. The straggler-injection bench uses it so a slow shard's
  /// tail is physically observable by clients; 0 keeps the stall purely
  /// simulated (the default, and what every latency bench before A10
  /// measured).
  double realize_stall_scale = 0.0;
};

/// One query request. Either a TPC-H query number (built against the
/// service's catalog on the worker) or an explicit plan.
struct Request {
  int query = 1;             ///< TPC-H query number 1..22, when plan unset.
  db::PlanPtr plan;          ///< overrides `query` when set.
  uint64_t seed = 0;         ///< deterministic identity, echoed in Response.
  /// Server-side deadline relative to admission; 0 = none. A request whose
  /// deadline passes while queued is never executed — the worker discards
  /// it with kDeadlineExceeded (executing work nobody waits for anymore
  /// only digs the overload hole deeper).
  int64_t deadline_ns = 0;
  /// Test hook, run on the worker after the deadline check and before
  /// execution. Lets tests hold a worker mid-request deterministically.
  std::function<void()> before_execute;
  /// Admission-quota identity; empty = no tenant (never quota-limited).
  std::string tenant;
  /// Per-request execution-mode override (the sharded oracle sweeps modes
  /// through one service); unset uses ServiceOptions::mode.
  std::optional<db::ExecMode> mode;
};

/// Server-side timing split (paper, slides 23–29: server vs client time
/// are different metrics and must be reported as such): time queued before
/// a worker picked the request up, and execution time once running.
/// Client-observed latency is measured by the LoadGenerator on its own
/// (real) clock; exec_ns runs on the engine's observed clock, which adds
/// simulated I/O stall to real time, so on a cold buffer pool the server
/// split can legitimately exceed what the client's wall clock saw.
struct ServerTiming {
  int64_t queue_wait_ns = 0;  ///< admission -> dequeue by a worker.
  int64_t exec_ns = 0;  ///< plan execution (CPU + simulated I/O stall).
  int64_t TotalNs() const { return queue_wait_ns + exec_ns; }
};

/// Outcome of one request.
struct Response {
  Status status;              ///< OK, kOverloaded, or kDeadlineExceeded.
  uint64_t seed = 0;          ///< Request::seed, echoed back.
  uint64_t fingerprint = 0;   ///< FNV-1a of the rendered result; 0 if none.
  ServerTiming server;
  std::shared_ptr<const db::Table> table;  ///< set when executed.
};

/// A submitted request's completion slot: fulfilled exactly once by a
/// worker (or synchronously when shed at admission), waitable by the
/// client. Also records the steady-clock completion instant so load
/// generators can charge latency from the *intended* arrival time.
class PendingResponse {
 public:
  /// Blocks until the response is ready, then returns it.
  const Response& Wait();

  /// Claim-on-wait: if no worker has started the admitted request yet,
  /// runs it on the calling thread (through the same path a worker takes:
  /// deadline check, stats, timing split, realize_stall_scale), then
  /// returns the response. The worker's queued job later finds the
  /// request claimed and skips it, so exactly one thread runs each
  /// request. A caller that would otherwise block on a queue it feeds —
  /// the shard coordinator waiting on its own fragments — does the work
  /// instead of waiting for it.
  const Response& ClaimOrWait();

  bool Done() const;

  /// steady_clock time_since_epoch (ns) at fulfillment. Valid after Wait().
  int64_t complete_steady_ns() const { return complete_steady_ns_; }

 private:
  friend class QueryService;
  void Fulfill(Response response);
  /// Runs the request unless another thread already claimed it.
  void RunIfUnclaimed();

  /// The admitted request's run, set once at admission before the handle
  /// is shared; only the thread that wins `claimed_` reads it. It refers
  /// to this handle weakly, so the handle never owns itself.
  std::function<void()> run_;
  std::atomic<bool> claimed_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  Response response_;
  int64_t complete_steady_ns_ = 0;
};

using ResponseHandle = std::shared_ptr<PendingResponse>;

/// Monotonically increasing request accounting, snapshot-readable while
/// the service runs.
struct ServiceStats {
  int64_t submitted = 0;         ///< Submit() calls.
  int64_t admitted = 0;          ///< entered the queue.
  int64_t shed = 0;              ///< rejected kOverloaded at admission.
  int64_t quota_rejected = 0;    ///< rejected at a tenant quota.
  int64_t started = 0;           ///< dequeued by a worker.
  int64_t deadline_expired = 0;  ///< discarded unexecuted.
  int64_t executed = 0;          ///< ran to completion.
};

/// Instantaneous occupancy of the service, readable while it runs. The
/// shard coordinator attaches one per shard to every scatter-gather result
/// so stragglers are attributable (was the slow shard queueing or
/// executing?).
struct QueueSnapshot {
  size_t queued = 0;    ///< admitted, waiting for a worker.
  size_t inflight = 0;  ///< dequeued, currently executing.
};

/// A concurrent query service over db::Database (DESIGN.md S14): bounded
/// admission queue, sched::WorkerPool executor, per-request deadlines and
/// an overload policy. The measurable server the paper's slide-22
/// throughput/response-time metrics assume — every response carries the
/// server-side queue/exec split, and the engine underneath guarantees
/// result determinism at any worker count.
class QueryService {
 public:
  /// Executes one admitted request. Receives the effective mode (the
  /// request's override or the service default) and the service sink;
  /// everything else comes from the request. May throw db::QueryError.
  using ExecutorFn =
      std::function<db::QueryResult(const Request&, db::ExecMode,
                                    db::SinkKind)>;

  QueryService(db::Database* database, ServiceOptions options);

  /// A service whose executor is not a local database — the shard
  /// front-end runs scatter-gather across a cluster behind this seam while
  /// keeping the admission queue, overload policies, deadlines, quotas and
  /// stats identical to the single-node service (and LoadGenerator works
  /// against either unchanged).
  QueryService(ExecutorFn executor, ServiceOptions options);

  /// Shuts down (drains all admitted requests) if the caller has not.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits a request. Always returns a handle; a shed or post-shutdown
  /// request's handle is already fulfilled with the error status. May
  /// block, per the overload policy, when the admission queue is full.
  ResponseHandle Submit(Request request);

  /// Submit + Wait: the synchronous client call of a closed-loop driver.
  Response Execute(Request request);

  /// Closes admission and drains the queue; every admitted request is
  /// fulfilled when this returns. Idempotent.
  void Shutdown();

  ServiceStats stats() const;
  const ServiceOptions& options() const { return options_; }

  /// Instantaneous queue depth + in-flight count (racy by nature — a
  /// request can move from queued to inflight between the two reads; the
  /// snapshot is for attribution, not accounting).
  QueueSnapshot queue_snapshot() const;

  /// FNV-1a fingerprint of a result relation (row-major rendered values) —
  /// the identity the replay tests compare across worker counts.
  static uint64_t FingerprintTable(const db::Table& table);

 private:
  void RunRequest(Request request, ResponseHandle handle, int64_t admit_ns);
  /// Frees the tenant's quota slot (no-op for untracked tenants).
  void ReleaseTenantSlot(const std::string& tenant);

  ExecutorFn executor_;
  ServiceOptions options_;

  mutable std::mutex mu_;  // guards queued_, shutdown_, tenant_outstanding_.
  std::condition_variable slot_free_;
  size_t queued_ = 0;
  bool shutdown_ = false;
  /// Outstanding (admitted, not yet completed) requests per quota-tracked
  /// tenant.
  std::map<std::string, size_t> tenant_outstanding_;

  std::atomic<int64_t> submitted_{0};
  std::atomic<int64_t> admitted_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> quota_rejected_{0};
  std::atomic<int64_t> started_{0};
  std::atomic<int64_t> deadline_expired_{0};
  std::atomic<int64_t> executed_{0};
  std::atomic<size_t> inflight_{0};

  std::unique_ptr<sched::WorkerPool> pool_;
};

}  // namespace serve
}  // namespace perfeval

#endif  // PERFEVAL_SERVE_SERVICE_H_
