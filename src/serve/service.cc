#include "serve/service.h"

#include <chrono>
#include <thread>
#include <utility>

#include "common/check.h"
#include "db/error.h"
#include "repro/fingerprint.h"
#include "workload/tpch_queries.h"

namespace perfeval {
namespace serve {
namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* OverloadPolicyName(OverloadPolicy policy) {
  switch (policy) {
    case OverloadPolicy::kBlock:
      return "block";
    case OverloadPolicy::kShed:
      return "shed";
    case OverloadPolicy::kTimeout:
      return "timeout";
  }
  return "unknown";
}

const Response& PendingResponse::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  return response_;
}

const Response& PendingResponse::ClaimOrWait() {
  RunIfUnclaimed();
  return Wait();
}

void PendingResponse::RunIfUnclaimed() {
  // Only the thread that wins the claim may touch run_ (empty when the
  // request was never admitted).
  if (claimed_.exchange(true) || !run_) {
    return;
  }
  // Moved out so the request (and its plan) is freed once it has run.
  std::function<void()> run = std::move(run_);
  run();
}

bool PendingResponse::Done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

void PendingResponse::Fulfill(Response response) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PERFEVAL_CHECK(!done_) << "response fulfilled twice";
    response_ = std::move(response);
    complete_steady_ns_ = SteadyNowNs();
    done_ = true;
  }
  cv_.notify_all();
}

QueryService::QueryService(db::Database* database, ServiceOptions options)
    : QueryService(
          [database](const Request& request, db::ExecMode mode,
                     db::SinkKind sink) {
            PERFEVAL_CHECK(database != nullptr);
            db::PlanPtr plan = request.plan;
            if (!plan) {
              plan = workload::GetTpchQuery(request.query).Build(*database);
            }
            return database->Run(plan, mode, sink);
          },
          std::move(options)) {
  PERFEVAL_CHECK(database != nullptr);
}

QueryService::QueryService(ExecutorFn executor, ServiceOptions options)
    : executor_(std::move(executor)), options_(std::move(options)) {
  PERFEVAL_CHECK(executor_ != nullptr);
  PERFEVAL_CHECK_GE(options_.queue_capacity, 1u);
  if (options_.workers < 1) {
    options_.workers = 1;
  }
  pool_ = std::make_unique<sched::WorkerPool>(options_.workers);
}

QueryService::~QueryService() { Shutdown(); }

uint64_t QueryService::FingerprintTable(const db::Table& table) {
  std::string rendered;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      rendered += table.ValueAt(r, c).ToString();
      rendered += '|';
    }
    rendered += '\n';
  }
  return repro::Fnv1a64(rendered);
}

ResponseHandle QueryService::Submit(Request request) {
  submitted_.fetch_add(1, std::memory_order_relaxed);
  auto handle = std::make_shared<PendingResponse>();
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Tenant quota: checked before any capacity wait — a tenant at its
    // quota is rejected immediately, never parked in (or blocking for) the
    // shared queue.
    if (!shutdown_ && !request.tenant.empty()) {
      auto quota = options_.tenant_quotas.find(request.tenant);
      if (quota != options_.tenant_quotas.end() &&
          tenant_outstanding_[request.tenant] >= quota->second) {
        lock.unlock();
        quota_rejected_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.status = Status::Overloaded(
            "tenant '" + request.tenant + "' at quota (" +
            std::to_string(quota->second) + " outstanding)");
        response.seed = request.seed;
        handle->Fulfill(std::move(response));
        return handle;
      }
    }
    if (!shutdown_ && queued_ >= options_.queue_capacity) {
      switch (options_.overload) {
        case OverloadPolicy::kBlock:
          slot_free_.wait(lock, [this] {
            return shutdown_ || queued_ < options_.queue_capacity;
          });
          break;
        case OverloadPolicy::kShed:
          break;  // fall through to the capacity re-check below.
        case OverloadPolicy::kTimeout:
          slot_free_.wait_for(
              lock, std::chrono::nanoseconds(options_.admission_timeout_ns),
              [this] {
                return shutdown_ || queued_ < options_.queue_capacity;
              });
          break;
      }
    }
    if (shutdown_) {
      lock.unlock();
      Response response;
      response.status =
          Status::FailedPrecondition("service is shut down");
      response.seed = request.seed;
      handle->Fulfill(std::move(response));
      return handle;
    }
    if (queued_ >= options_.queue_capacity) {
      lock.unlock();
      shed_.fetch_add(1, std::memory_order_relaxed);
      Response response;
      response.status = Status::Overloaded(
          "admission queue full (" + std::to_string(options_.queue_capacity) +
          " queued, policy " + OverloadPolicyName(options_.overload) + ")");
      response.seed = request.seed;
      handle->Fulfill(std::move(response));
      return handle;
    }
    ++queued_;
    if (!request.tenant.empty() &&
        options_.tenant_quotas.count(request.tenant) != 0) {
      ++tenant_outstanding_[request.tenant];
    }
    // Enqueue while still holding mu_: Shutdown() flips shutdown_ under the
    // same mutex before closing the pool, so a Push can never race a
    // Close.
    admitted_.fetch_add(1, std::memory_order_relaxed);
    int64_t admit_ns = SteadyNowNs();
    // Whoever claims the request first runs it: the pool job below, or a
    // caller in ClaimOrWait(), which holds the handle it waits on.
    handle->run_ = [this, request = std::move(request),
                    weak = std::weak_ptr<PendingResponse>(handle),
                    admit_ns]() mutable {
      RunRequest(std::move(request), weak.lock(), admit_ns);
    };
    pool_->Submit([handle] { handle->RunIfUnclaimed(); });
  }
  return handle;
}

void QueryService::ReleaseTenantSlot(const std::string& tenant) {
  if (tenant.empty()) {
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenant_outstanding_.find(tenant);
  if (it != tenant_outstanding_.end() && it->second > 0) {
    --it->second;
  }
}

void QueryService::RunRequest(Request request, ResponseHandle handle,
                              int64_t admit_ns) {
  int64_t start_ns = SteadyNowNs();
  {
    std::lock_guard<std::mutex> lock(mu_);
    PERFEVAL_CHECK_GE(queued_, 1u);
    --queued_;
  }
  slot_free_.notify_one();
  started_.fetch_add(1, std::memory_order_relaxed);
  inflight_.fetch_add(1, std::memory_order_relaxed);

  Response response;
  response.seed = request.seed;
  response.server.queue_wait_ns = start_ns - admit_ns;

  if (request.deadline_ns > 0 &&
      response.server.queue_wait_ns > request.deadline_ns) {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    response.status = Status::DeadlineExceeded(
        "deadline passed after " +
        std::to_string(response.server.queue_wait_ns) + "ns in queue");
  } else {
    if (request.before_execute) {
      request.before_execute();
    }
    // WorkerPool jobs must not throw: QueryError (checked arithmetic,
    // invariant violations) is converted to an error response here, the
    // same boundary conversion sql::RunQuery performs.
    try {
      db::ExecMode mode = request.mode.value_or(options_.mode);
      db::QueryResult result = executor_(request, mode, options_.sink);
      response.server.exec_ns = result.server.ObservedRealNs();
      response.table = result.table;
      if (options_.fingerprint_results && result.table != nullptr) {
        response.fingerprint = FingerprintTable(*result.table);
      }
      executed_.fetch_add(1, std::memory_order_relaxed);
      if (options_.realize_stall_scale > 0.0 && result.storage.stall_ns > 0) {
        // Turn the DiskModel's simulated stall into real wall time, so a
        // slow shard's tail is observable on the client's clock (A10
        // straggler injection). exec_ns already counts the stall — the
        // observed clock includes simulated time — so nothing is added to
        // the server split here.
        std::this_thread::sleep_for(std::chrono::nanoseconds(
            static_cast<int64_t>(static_cast<double>(result.storage.stall_ns) *
                                 options_.realize_stall_scale)));
      }
    } catch (const db::QueryError& e) {
      response.status = e.ToStatus();
    }
  }
  // Bookkeeping before Fulfill: a synchronous client that resubmits the
  // instant Wait() returns must find its quota slot already free.
  inflight_.fetch_sub(1, std::memory_order_relaxed);
  ReleaseTenantSlot(request.tenant);
  handle->Fulfill(std::move(response));
}

Response QueryService::Execute(Request request) {
  return Submit(std::move(request))->Wait();
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return;
    }
    shutdown_ = true;
  }
  slot_free_.notify_all();
  pool_->Drain();
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.quota_rejected = quota_rejected_.load(std::memory_order_relaxed);
  s.started = started_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.executed = executed_.load(std::memory_order_relaxed);
  return s;
}

QueueSnapshot QueryService::queue_snapshot() const {
  QueueSnapshot snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap.queued = queued_;
  }
  snap.inflight = inflight_.load(std::memory_order_relaxed);
  return snap;
}

}  // namespace serve
}  // namespace perfeval
