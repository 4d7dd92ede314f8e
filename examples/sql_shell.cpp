// An interactive SQL shell over the TPC-H database — the "low setup
// threshold; easy to run" property the paper wants from micro-benchmark
// tooling (slide 11), plus the DBMS-provided timing and introspection it
// recommends using (slides 28-29, 52): every query prints server/client
// times MonetDB-style, EXPLAIN shows plans, and special commands expose
// the buffer pool and execution mode.
//
// Usage: sql_shell [-DscaleFactor=0.01]   (reads statements from stdin)
//
// Special commands:
//   \mode debug|optimized    switch execution mode
//   \threads N               set morsel-parallel worker threads
//   \join ALGO [BITS]        set equi-join algorithm: hash|radix
//                            |merge; optional radix fan-out bits (0=auto)
//   \check on|off            checked execution: operators assert their
//                            invariants (costs O(input) per operator)
//   \opt on|off              cost-based optimization: re-order equi-join
//                            regions and pin per-join algorithms from
//                            table stats (results stay bit-identical;
//                            EXPLAIN shows the optimized tree)
//   \backend col|row         execution backend: the columnar vectorized
//                            engine or the packed-tuple row store
//                            (engine::RowStoreBackend); results are
//                            oracle-identical, timings are not
//   \timing on|off           route queries through the serve::QueryService
//                            and print the server-side split (queue wait /
//                            exec / total) alongside client wall time
//   \flush                   flush the buffer pool (next run is cold)
//   \trace <sql>             run and print the per-operator trace
//   \tables                  list catalog tables
//   \load <name> <file.csv>  load a CSV (types inferred) as table <name>
//   \wal                     show write-path stats (commits, WAL, fsyncs)
//   \checkpoint              compact committed deltas, truncate the WAL
//   \q                       quit
//
// INSERT INTO t VALUES (...) and DELETE FROM t [WHERE ...] run through
// the write path (txn::DeltaStore over a virtual disk): each statement is
// one auto-commit transaction — WAL append, fsync, apply — and later
// SELECTs see the committed rows via the catalog refresh hook.

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "common/string_util.h"
#include "core/timer.h"
#include "db/error.h"
#include "engine/row_backend.h"
#include "repro/properties.h"
#include "db/csv_loader.h"
#include "serve/service.h"
#include "sql/planner.h"
#include "txn/dml.h"
#include "txn/store.h"
#include "txn/vdisk.h"
#include "workload/tpch_gen.h"

using namespace perfeval;  // NOLINT(build/namespaces) example binary.

namespace {

/// The \timing service: one worker, shed beyond a short queue — a shell
/// issues one query at a time, so the split mostly shows dispatch cost,
/// but the numbers come from the same code path a loaded service reports.
std::unique_ptr<serve::QueryService> MakeTimingService(
    db::Database& database, db::ExecMode mode) {
  serve::ServiceOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.overload = serve::OverloadPolicy::kShed;
  options.mode = mode;
  options.sink = db::SinkKind::kFile;
  options.fingerprint_results = false;
  return std::make_unique<serve::QueryService>(&database, options);
}

/// Runs `sql_text` through the query service and prints the slide-23-style
/// split: server queue wait + execution vs. the client's wall clock.
void RunTimed(db::Database& database, serve::QueryService& service,
              const std::string& sql_text) {
  Result<sql::PlannedQuery> planned = sql::PlanQuery(sql_text, database);
  if (!planned.ok()) {
    std::printf("error: %s\n", planned.status().ToString().c_str());
    return;
  }
  if (planned->explain) {
    std::printf("%s\n", db::Explain(planned->plan).c_str());
    return;
  }
  core::WallTimer client_wall;
  serve::Request request;
  request.plan = planned->plan;
  serve::Response response = service.Execute(std::move(request));
  double client_ms = client_wall.ElapsedMs();
  if (!response.status.ok()) {
    std::printf("error: %s\n", response.status.ToString().c_str());
    return;
  }
  std::printf("%s", response.table->ToString(25).c_str());
  std::printf("%zu row(s)\n", response.table->num_rows());
  std::printf(
      "Server %.3f msec (queue wait %.3f + exec %.3f), Client %.3f msec\n",
      response.server.TotalNs() / 1e6, response.server.queue_wait_ns / 1e6,
      response.server.exec_ns / 1e6, client_ms);
}

/// Runs one SELECT through the row-store backend: plan against the shared
/// catalog, sync the backend's packed copy (folds committed write-path
/// deltas), execute row-at-a-time. Prints the same timing lines as the
/// columnar path plus the row store's finish cost (converting the packed
/// native result to a printable columnar table).
void RunRowBackend(db::Database& database,
                   engine::RowStoreBackend& backend,
                   const std::string& sql_text, db::ExecMode mode,
                   bool with_trace) {
  Result<sql::PlannedQuery> planned = sql::PlanQuery(sql_text, database);
  if (!planned.ok()) {
    std::printf("error: %s\n", planned.status().ToString().c_str());
    return;
  }
  if (planned->explain) {
    std::printf("%s\n", db::Explain(planned->plan).c_str());
    return;
  }
  backend.SyncFrom(&database);
  engine::ExecOptions options;
  options.mode = mode;
  options.threads = database.threads();
  options.check = database.check();
  core::WallTimer wall;
  try {
    engine::BackendResult result = backend.Execute(planned->plan, options);
    double client_ms = wall.ElapsedMs();
    std::printf("%s", result.table->ToString(25).c_str());
    std::printf("%zu row(s)\n", result.table->num_rows());
    std::printf(
        "Server %.3f msec (+ %.3f finish), Client %.3f msec [backend: %s]\n",
        result.ObservedServerNs() / 1e6, result.finish_ns / 1e6, client_ms,
        backend.name());
    std::printf("Pages %lld hits / %lld misses\n",
                static_cast<long long>(result.storage.page_hits),
                static_cast<long long>(result.storage.page_misses));
    if (with_trace) {
      std::printf("\n%s", result.profile.ToString().c_str());
    }
  } catch (const db::QueryError& e) {
    std::printf("error: %s\n", e.ToStatus().ToString().c_str());
  }
}

void RunAndPrint(db::Database& database, const std::string& sql_text,
                 db::ExecMode mode, bool with_trace) {
  Result<db::QueryResult> result =
      sql::RunQuery(sql_text, database, mode, db::SinkKind::kFile);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s", result->table->ToString(25).c_str());
  std::printf("%zu row(s)\n", result->table->num_rows());
  // MonetDB-style timing lines (paper, slide 29).
  std::printf("Server %.3f msec (user %.3f), Client %.3f msec\n",
              result->ServerRealMs(), result->ServerUserMs(),
              result->ClientRealMs());
  std::printf("Pages %lld hits / %lld misses\n",
              static_cast<long long>(result->storage.page_hits),
              static_cast<long long>(result->storage.page_misses));
  if (with_trace) {
    std::printf("\n%s", result->profile.ToString().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  repro::Properties props;
  props.SetDefault("scaleFactor", "0.01");
  (void)props.OverrideFromArgs(argc, argv);
  double sf = props.GetDouble("scaleFactor", 0.01);

  db::Database database;
  workload::TpchGenerator gen(sf);
  gen.LoadAll(&database);
  // The write path: INSERT/DELETE commit through a WAL on a virtual disk
  // and become visible to queries via the catalog refresh hook.
  txn::VirtualDisk disk;
  txn::DeltaStore store(&database, &disk);
  {
    Status opened = store.Open();
    if (!opened.ok()) {
      std::printf("error opening write path: %s\n",
                  opened.ToString().c_str());
      return 1;
    }
  }
  db::ExecMode mode = db::ExecMode::kOptimized;
  // Created on \timing on, recreated when \mode changes (the service binds
  // its execution mode at construction).
  std::unique_ptr<serve::QueryService> timing_service;
  bool timing_on = false;
  // The shell's execution backend (\backend col|row). The row store is
  // created lazily on the first \backend row and kept across switches so
  // its buffer pool stays warm (SyncFrom re-packs only changed tables).
  db::BackendKind backend = db::BackendKind::kColumnar;
  std::unique_ptr<engine::RowStoreBackend> row_backend;

  std::printf("perfeval SQL shell — TPC-H sf %.3g loaded. \\q to quit.\n",
              sf);
  std::string line;
  std::string statement;
  while (true) {
    std::printf("sql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) {
      break;
    }
    std::string trimmed = Trim(line);
    if (StartsWith(trimmed, "\\")) {
      if (trimmed == "\\q") {
        break;
      }
      if (trimmed == "\\flush") {
        database.FlushCaches();
        std::printf("buffer pool flushed — next run is cold\n");
        continue;
      }
      if (trimmed == "\\tables") {
        for (const std::string& name : database.TableNames()) {
          std::printf("%-10s %8zu rows  %s\n", name.c_str(),
                      database.GetTable(name).num_rows(),
                      database.GetTable(name).schema().ToString().c_str());
        }
        continue;
      }
      if (StartsWith(trimmed, "\\mode")) {
        if (trimmed.find("debug") != std::string::npos) {
          mode = db::ExecMode::kDebug;
        } else {
          mode = db::ExecMode::kOptimized;
        }
        if (timing_on) {
          timing_service = MakeTimingService(database, mode);
        }
        std::printf("execution mode: %s\n", db::ExecModeName(mode));
        continue;
      }
      if (StartsWith(trimmed, "\\timing")) {
        std::vector<std::string> parts = Split(trimmed, ' ');
        if (parts.size() == 2 && (parts[1] == "on" || parts[1] == "off")) {
          timing_on = parts[1] == "on";
        } else if (parts.size() != 1) {
          std::printf("usage: \\timing on|off\n");
          continue;
        }
        if (timing_on && timing_service == nullptr) {
          timing_service = MakeTimingService(database, mode);
        }
        if (!timing_on) {
          timing_service.reset();
        }
        std::printf("timing (server queue/exec split): %s\n",
                    timing_on ? "on" : "off");
        continue;
      }
      if (StartsWith(trimmed, "\\threads")) {
        std::vector<std::string> parts = Split(trimmed, ' ');
        if (parts.size() == 2) {
          database.set_threads(std::atoi(parts[1].c_str()));
        } else if (parts.size() > 2) {
          std::printf("usage: \\threads <N>\n");
          continue;
        }
        std::printf(
            "worker threads: %d (results are identical at any setting)\n",
            database.threads());
        continue;
      }
      if (StartsWith(trimmed, "\\join")) {
        std::vector<std::string> parts = Split(trimmed, ' ');
        if (parts.size() == 2 || parts.size() == 3) {
          Result<db::JoinAlgo> algo = db::ParseJoinAlgo(parts[1]);
          if (!algo.ok()) {
            std::printf("error: %s\n", algo.status().ToString().c_str());
            continue;
          }
          database.set_join_algo(*algo);
          if (parts.size() == 3) {
            database.set_radix_bits(std::atoi(parts[2].c_str()));
          }
        } else if (parts.size() > 3) {
          std::printf("usage: \\join <hash|radix|merge> [bits]\n");
          continue;
        }
        std::printf("join algorithm: %s (radix bits: %d%s)\n",
                    db::JoinAlgoName(database.join_algo()),
                    database.radix_bits(),
                    database.radix_bits() <= 0 ? " = auto" : "");
        continue;
      }
      if (StartsWith(trimmed, "\\opt")) {
        std::vector<std::string> parts = Split(trimmed, ' ');
        if (parts.size() == 2 && (parts[1] == "on" || parts[1] == "off")) {
          database.set_optimize(parts[1] == "on");
        } else if (parts.size() != 1) {
          std::printf("usage: \\opt on|off\n");
          continue;
        }
        std::printf("cost-based optimization: %s\n",
                    database.optimize() ? "on" : "off");
        continue;
      }
      if (StartsWith(trimmed, "\\backend")) {
        std::vector<std::string> parts = Split(trimmed, ' ');
        if (parts.size() == 2) {
          Result<db::BackendKind> kind = db::ParseBackendKind(parts[1]);
          if (!kind.ok()) {
            std::printf("usage: \\backend col|row (%s)\n",
                        kind.status().message().c_str());
            continue;
          }
          backend = *kind;
          if (*kind == db::BackendKind::kRowStore &&
              row_backend == nullptr) {
            row_backend = engine::RowStoreBackend::Over(&database);
          }
        } else if (parts.size() != 1) {
          std::printf("usage: \\backend col|row\n");
          continue;
        }
        std::printf("execution backend: %s\n",
                    db::BackendKindName(backend));
        continue;
      }
      if (StartsWith(trimmed, "\\check") && trimmed != "\\checkpoint") {
        std::vector<std::string> parts = Split(trimmed, ' ');
        if (parts.size() == 2 && (parts[1] == "on" || parts[1] == "off")) {
          database.set_check(parts[1] == "on");
        } else if (parts.size() != 1) {
          std::printf("usage: \\check on|off\n");
          continue;
        }
        std::printf("checked execution: %s\n",
                    database.check() ? "on" : "off");
        continue;
      }
      if (StartsWith(trimmed, "\\load ")) {
        std::vector<std::string> parts = Split(trimmed, ' ');
        if (parts.size() != 3) {
          std::printf("usage: \\load <name> <file.csv>\n");
          continue;
        }
        Result<std::shared_ptr<db::Table>> loaded = db::LoadCsv(parts[2]);
        if (!loaded.ok()) {
          std::printf("error: %s\n", loaded.status().ToString().c_str());
          continue;
        }
        if (database.HasTable(parts[1])) {
          std::printf("error: table %s already exists\n",
                      parts[1].c_str());
          continue;
        }
        database.RegisterTable(parts[1], *loaded);
        std::printf("loaded %s: %zu rows %s\n", parts[1].c_str(),
                    (*loaded)->num_rows(),
                    (*loaded)->schema().ToString().c_str());
        continue;
      }
      if (trimmed == "\\wal") {
        txn::DeltaStoreStats ts = store.stats();
        db::StorageStats ws = disk.stats();
        std::printf(
            "commits %llu (aborts %llu), rows +%llu/-%llu, checkpoints "
            "%llu, next LSN %llu\n",
            static_cast<unsigned long long>(ts.commits),
            static_cast<unsigned long long>(ts.aborts),
            static_cast<unsigned long long>(ts.rows_inserted),
            static_cast<unsigned long long>(ts.rows_deleted),
            static_cast<unsigned long long>(ts.checkpoints),
            static_cast<unsigned long long>(store.next_lsn()));
        std::printf("WAL %zu bytes on disk, %lld bytes written, %lld "
                    "fsyncs, %.3f msec write stall\n",
                    disk.Exists("wal.log") ? disk.Size("wal.log") : 0,
                    static_cast<long long>(ws.bytes_written),
                    static_cast<long long>(ws.fsyncs),
                    ws.write_stall_ns / 1e6);
        continue;
      }
      if (trimmed == "\\checkpoint") {
        Status ckpt = store.Checkpoint();
        if (!ckpt.ok()) {
          std::printf("error: %s\n", ckpt.ToString().c_str());
          continue;
        }
        std::printf("checkpoint installed; WAL truncated to %zu bytes\n",
                    disk.Exists("wal.log") ? disk.Size("wal.log") : 0);
        continue;
      }
      if (StartsWith(trimmed, "\\trace ")) {
        if (backend == db::BackendKind::kRowStore) {
          RunRowBackend(database, *row_backend, trimmed.substr(7), mode,
                        /*with_trace=*/true);
        } else {
          RunAndPrint(database, trimmed.substr(7), mode,
                      /*with_trace=*/true);
        }
        continue;
      }
      std::printf("unknown command %s\n", trimmed.c_str());
      continue;
    }
    if (trimmed.empty()) {
      continue;
    }
    // Each non-empty line is one statement; end a multi-line statement by
    // typing its continuation on one line (the parser accepts newlines
    // inside, so pasting multi-line SQL as a block also works).
    statement = trimmed;
    std::string head = ToLower(statement.substr(0, 6));
    if (head == "insert" || head == "delete") {
      core::WallTimer wall;
      Result<txn::DmlResult> dml = txn::ExecuteDml(statement, store);
      if (!dml.ok()) {
        std::printf("error: %s\n", dml.status().ToString().c_str());
      } else {
        std::printf("%llu row(s) affected, Client %.3f msec\n",
                    static_cast<unsigned long long>(dml->rows_affected),
                    wall.ElapsedMs());
      }
      statement.clear();
      continue;
    }
    if (backend == db::BackendKind::kRowStore) {
      // \timing routes through the columnar-bound QueryService; the row
      // backend prints its own server/finish split instead.
      RunRowBackend(database, *row_backend, statement, mode,
                    /*with_trace=*/false);
    } else if (timing_on) {
      RunTimed(database, *timing_service, statement);
    } else {
      RunAndPrint(database, statement, mode, /*with_trace=*/false);
    }
    statement.clear();
  }
  std::printf("\n");
  return 0;
}
