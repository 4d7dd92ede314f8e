#include "serve/service.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>

#include "db/database.h"
#include "gtest/gtest.h"
#include "workload/tpch_gen.h"

namespace perfeval {
namespace serve {
namespace {

/// One tiny TPC-H catalog shared by every test in this binary: the service
/// only reads it, so sharing is safe and keeps the suite fast enough to run
/// under the thread sanitizer.
db::Database* SharedDb() {
  static db::Database* database = [] {
    auto* d = new db::Database();
    workload::TpchGenerator gen(0.005);
    gen.LoadAll(d);
    return d;
  }();
  return database;
}

/// A manually released gate for before_execute hooks: lets a test park a
/// worker inside a request deterministically (no sleeps on the hot path).
class Gate {
 public:
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

void WaitForStarted(const QueryService& service, int64_t n) {
  while (service.stats().started < n) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(QueryServiceTest, ExecutesQueryWithServerSplit) {
  QueryService service(SharedDb(), ServiceOptions{});
  Request request;
  request.query = 1;
  request.seed = 77;
  Response response = service.Execute(std::move(request));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_EQ(response.seed, 77u);
  ASSERT_NE(response.table, nullptr);
  EXPECT_GT(response.table->num_rows(), 0u);
  EXPECT_NE(response.fingerprint, 0u);
  EXPECT_GE(response.server.queue_wait_ns, 0);
  EXPECT_GT(response.server.exec_ns, 0);
  EXPECT_EQ(response.server.TotalNs(),
            response.server.queue_wait_ns + response.server.exec_ns);
}

TEST(QueryServiceTest, FingerprintIdenticalAcrossWorkerCounts) {
  uint64_t fingerprints[3] = {0, 0, 0};
  int workers[3] = {1, 4, 8};
  for (int i = 0; i < 3; ++i) {
    ServiceOptions options;
    options.workers = workers[i];
    QueryService service(SharedDb(), options);
    Request request;
    request.query = 3;
    Response response = service.Execute(std::move(request));
    ASSERT_TRUE(response.status.ok());
    fingerprints[i] = response.fingerprint;
  }
  EXPECT_NE(fingerprints[0], 0u);
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

TEST(QueryServiceTest, ShedPolicyReturnsOverloadedImmediately) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.overload = OverloadPolicy::kShed;
  QueryService service(SharedDb(), options);

  Gate gate;
  Request holder;
  holder.query = 1;
  holder.before_execute = [&gate] { gate.Wait(); };
  ResponseHandle h1 = service.Submit(std::move(holder));
  WaitForStarted(service, 1);  // worker parked inside request 1.

  ResponseHandle h2 = service.Submit(Request{});  // fills the queue.
  ResponseHandle h3 = service.Submit(Request{});  // must shed, not hang.
  EXPECT_TRUE(h3->Done());
  EXPECT_EQ(h3->Wait().status.code(), StatusCode::kOverloaded);

  gate.Release();
  EXPECT_TRUE(h1->Wait().status.ok());
  EXPECT_TRUE(h2->Wait().status.ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1);
  EXPECT_EQ(stats.executed, 2);
}

TEST(QueryServiceTest, TimeoutPolicyGivesUpAfterDeadline) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.overload = OverloadPolicy::kTimeout;
  options.admission_timeout_ns = 2'000'000;  // 2 ms
  QueryService service(SharedDb(), options);

  Gate gate;
  Request holder;
  holder.before_execute = [&gate] { gate.Wait(); };
  ResponseHandle h1 = service.Submit(std::move(holder));
  WaitForStarted(service, 1);
  ResponseHandle h2 = service.Submit(Request{});
  // The queue is full and stays full: this submit waits out the admission
  // timeout and is then shed — the test would hang here if it blocked.
  ResponseHandle h3 = service.Submit(Request{});
  EXPECT_EQ(h3->Wait().status.code(), StatusCode::kOverloaded);

  gate.Release();
  EXPECT_TRUE(h1->Wait().status.ok());
  EXPECT_TRUE(h2->Wait().status.ok());
}

TEST(QueryServiceTest, BlockPolicyAppliesBackPressure) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.overload = OverloadPolicy::kBlock;
  QueryService service(SharedDb(), options);

  Gate gate;
  Request holder;
  holder.before_execute = [&gate] { gate.Wait(); };
  ResponseHandle h1 = service.Submit(std::move(holder));
  WaitForStarted(service, 1);
  ResponseHandle h2 = service.Submit(Request{});

  std::atomic<bool> admitted{false};
  ResponseHandle h3;
  std::thread blocked([&] {
    h3 = service.Submit(Request{});  // blocks until a slot frees.
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(admitted.load());  // still waiting for back-pressure.

  gate.Release();
  blocked.join();
  EXPECT_TRUE(admitted.load());
  EXPECT_TRUE(h1->Wait().status.ok());
  EXPECT_TRUE(h2->Wait().status.ok());
  EXPECT_TRUE(h3->Wait().status.ok());
  EXPECT_EQ(service.stats().shed, 0);
}

TEST(QueryServiceTest, ExpiredDeadlineNeverExecutes) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  QueryService service(SharedDb(), options);

  Gate gate;
  Request holder;
  holder.before_execute = [&gate] { gate.Wait(); };
  ResponseHandle h1 = service.Submit(std::move(holder));
  WaitForStarted(service, 1);

  std::atomic<bool> ran{false};
  Request doomed;
  doomed.query = 1;
  doomed.deadline_ns = 1;  // expires while queued behind the held request.
  doomed.before_execute = [&ran] { ran.store(true); };
  ResponseHandle h2 = service.Submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  gate.Release();

  const Response& response = h2->Wait();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.table, nullptr);
  EXPECT_FALSE(ran.load()) << "expired request reached execution";
  EXPECT_TRUE(h1->Wait().status.ok());
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.executed, 1);
}

TEST(QueryServiceTest, SubmitAfterShutdownFailsFast) {
  QueryService service(SharedDb(), ServiceOptions{});
  EXPECT_TRUE(service.Execute(Request{}).status.ok());
  service.Shutdown();
  Response response = service.Execute(Request{});
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
  service.Shutdown();  // idempotent.
}

TEST(QueryServiceTest, StatsAddUp) {
  ServiceOptions options;
  options.workers = 2;
  QueryService service(SharedDb(), options);
  std::vector<ResponseHandle> handles;
  for (int i = 0; i < 8; ++i) {
    Request request;
    request.query = 1 + (i % 2 == 0 ? 0 : 5);  // Q1 and Q6.
    handles.push_back(service.Submit(std::move(request)));
  }
  for (auto& handle : handles) {
    EXPECT_TRUE(handle->Wait().status.ok());
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 8);
  EXPECT_EQ(stats.admitted, 8);
  EXPECT_EQ(stats.started, 8);
  EXPECT_EQ(stats.executed, 8);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.deadline_expired, 0);
}

TEST(QueryServiceTest, TenantQuotaRejectsWithoutBlocking) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  options.overload = OverloadPolicy::kBlock;  // quota must still not block.
  options.tenant_quotas["greedy"] = 2;
  QueryService service(SharedDb(), options);

  Gate gate;
  std::vector<ResponseHandle> held;
  for (int i = 0; i < 2; ++i) {
    Request request;
    request.query = 1;
    request.tenant = "greedy";
    request.before_execute = [&gate] { gate.Wait(); };
    held.push_back(service.Submit(std::move(request)));
  }
  WaitForStarted(service, 1);  // one executing, one queued: 2 outstanding.

  Request third;
  third.tenant = "greedy";
  ResponseHandle rejected = service.Submit(std::move(third));
  EXPECT_TRUE(rejected->Done());  // immediate — never parked in the queue.
  EXPECT_EQ(rejected->Wait().status.code(), StatusCode::kOverloaded);

  // Other tenants (and untenanted requests) are unaffected by the quota.
  Request other;
  other.tenant = "modest";
  ResponseHandle ok1 = service.Submit(std::move(other));
  ResponseHandle ok2 = service.Submit(Request{});

  gate.Release();
  for (auto& handle : held) {
    EXPECT_TRUE(handle->Wait().status.ok());
  }
  EXPECT_TRUE(ok1->Wait().status.ok());
  EXPECT_TRUE(ok2->Wait().status.ok());

  // Completion freed the quota slots: the tenant is admittable again.
  Request again;
  again.tenant = "greedy";
  EXPECT_TRUE(service.Execute(std::move(again)).status.ok());

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.quota_rejected, 1);
  EXPECT_EQ(stats.shed, 0);
  EXPECT_EQ(stats.executed, 5);
}

TEST(QueryServiceTest, QueueSnapshotSeesQueuedAndInflight) {
  ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 8;
  QueryService service(SharedDb(), options);

  Gate gate;
  Request holder;
  holder.before_execute = [&gate] { gate.Wait(); };
  ResponseHandle h1 = service.Submit(std::move(holder));
  WaitForStarted(service, 1);
  ResponseHandle h2 = service.Submit(Request{});

  QueueSnapshot snap = service.queue_snapshot();
  EXPECT_EQ(snap.inflight, 1u);  // parked inside before_execute.
  EXPECT_EQ(snap.queued, 1u);    // waiting behind the single worker.

  gate.Release();
  EXPECT_TRUE(h1->Wait().status.ok());
  EXPECT_TRUE(h2->Wait().status.ok());
  snap = service.queue_snapshot();
  EXPECT_EQ(snap.inflight, 0u);
  EXPECT_EQ(snap.queued, 0u);
}

TEST(QueryServiceTest, RequestModeOverridesServiceDefault) {
  ServiceOptions options;
  options.mode = db::ExecMode::kOptimized;
  QueryService service(SharedDb(), options);

  Request debug_request;
  debug_request.query = 6;
  debug_request.mode = db::ExecMode::kDebug;
  Response debug_response = service.Execute(std::move(debug_request));
  ASSERT_TRUE(debug_response.status.ok());

  Request default_request;
  default_request.query = 6;
  Response default_response = service.Execute(std::move(default_request));
  ASSERT_TRUE(default_response.status.ok());

  // Mode is a performance knob, not a semantic one: same fingerprint.
  EXPECT_EQ(debug_response.fingerprint, default_response.fingerprint);
  EXPECT_NE(debug_response.fingerprint, 0u);
}

TEST(QueryServiceTest, ExecutorSeamServesNonDatabaseBackends) {
  // The front-end seam: a service whose executor is arbitrary code, with
  // queueing/stats/fingerprinting unchanged.
  std::atomic<int> calls{0};
  QueryService::ExecutorFn executor =
      [&calls](const Request& request, db::ExecMode, db::SinkKind) {
        ++calls;
        db::Table table(db::Schema({{"echo", db::DataType::kInt64}}));
        table.AppendRow({db::Value::Int64(request.query)});
        db::QueryResult result;
        result.table = std::make_shared<db::Table>(std::move(table));
        return result;
      };
  QueryService service(std::move(executor), ServiceOptions{});
  Request request;
  request.query = 42;
  Response response = service.Execute(std::move(request));
  ASSERT_TRUE(response.status.ok());
  ASSERT_NE(response.table, nullptr);
  EXPECT_EQ(response.table->ValueAt(0, 0).AsInt64(), 42);
  EXPECT_NE(response.fingerprint, 0u);
  EXPECT_EQ(calls.load(), 1);
  EXPECT_EQ(service.stats().executed, 1);
}

TEST(QueryServiceTest, ClaimOrWaitRunsAQueuedRequestOnTheCaller) {
  ServiceOptions options;
  options.workers = 1;
  QueryService service(SharedDb(), options);

  // Hold the only worker, so the next request stays queued.
  Gate gate;
  Request holder;
  holder.before_execute = [&gate] { gate.Wait(); };
  ResponseHandle h1 = service.Submit(std::move(holder));
  WaitForStarted(service, 1);

  std::atomic<int> runs{0};
  std::thread::id ran_on;
  Request queued;
  queued.query = 6;
  queued.before_execute = [&runs, &ran_on] {
    ++runs;
    ran_on = std::this_thread::get_id();
  };
  ResponseHandle h2 = service.Submit(std::move(queued));
  const Response& response = h2->ClaimOrWait();
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_NE(response.table, nullptr);
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  ServiceStats claimed = service.stats();
  EXPECT_EQ(claimed.started, 2);
  EXPECT_EQ(claimed.executed, 1);  // the holder is still parked.
  EXPECT_EQ(service.queue_snapshot().queued, 0u);

  // The worker, once free, finds the claimed request's job and skips it.
  gate.Release();
  EXPECT_TRUE(h1->Wait().status.ok());
  service.Shutdown();
  EXPECT_EQ(runs.load(), 1);
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.started, 2);
  EXPECT_EQ(stats.executed, 2);

  // Neither the handle nor its run owns the handle: once the caller lets
  // go, it is freed.
  std::weak_ptr<PendingResponse> weak = h2;
  h2.reset();
  EXPECT_TRUE(weak.expired());
}

TEST(QueryServiceTest, ClaimOrWaitHonoursAnExpiredDeadline) {
  ServiceOptions options;
  options.workers = 1;
  QueryService service(SharedDb(), options);

  Gate gate;
  Request holder;
  holder.before_execute = [&gate] { gate.Wait(); };
  ResponseHandle h1 = service.Submit(std::move(holder));
  WaitForStarted(service, 1);

  std::atomic<bool> ran{false};
  Request doomed;
  doomed.query = 1;
  doomed.deadline_ns = 1;  // expires before the caller claims it.
  doomed.before_execute = [&ran] { ran.store(true); };
  ResponseHandle h2 = service.Submit(std::move(doomed));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const Response& response = h2->ClaimOrWait();
  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(response.table, nullptr);
  EXPECT_FALSE(ran.load()) << "expired request reached execution";

  gate.Release();
  EXPECT_TRUE(h1->Wait().status.ok());
  service.Shutdown();
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.started, 2);
  EXPECT_EQ(stats.deadline_expired, 1);
  EXPECT_EQ(stats.executed, 1);
}

TEST(QueryServiceTest, ClaimOrWaitOnAStartedRequestWaits) {
  // A request a worker already runs is not run again; the caller waits.
  ServiceOptions options;
  options.workers = 1;
  QueryService service(SharedDb(), options);
  Gate gate;
  std::atomic<int> runs{0};
  Request held;
  held.query = 6;
  held.before_execute = [&gate, &runs] {
    ++runs;
    gate.Wait();
  };
  ResponseHandle handle = service.Submit(std::move(held));
  WaitForStarted(service, 1);
  std::thread releaser([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    gate.Release();
  });
  EXPECT_TRUE(handle->ClaimOrWait().status.ok());
  releaser.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(service.stats().executed, 1);

  // A shed request's handle is already fulfilled; claiming it is a wait.
  service.Shutdown();
  ResponseHandle rejected = service.Submit(Request{});
  EXPECT_EQ(rejected->ClaimOrWait().status.code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace serve
}  // namespace perfeval
