// Scans of a table registered in a test's Database. db::Scan and
// db::FilterScan declare the scanned table's schema when they are built;
// these read it from the database the test registered the table in.

#ifndef PERFEVAL_TESTS_TEST_SCANS_H_
#define PERFEVAL_TESTS_TEST_SCANS_H_

#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/plan.h"

namespace perfeval {
namespace db {

inline PlanPtr ScanOf(const Database& database, const std::string& table,
                      std::vector<std::string> columns = {}) {
  return Scan(table, database.GetTable(table).schema(), std::move(columns));
}

inline PlanPtr FilterScanOf(const Database& database,
                            const std::string& table,
                            std::vector<std::string> columns,
                            ExprPtr predicate) {
  return FilterScan(table, database.GetTable(table).schema(),
                    std::move(columns), std::move(predicate));
}

}  // namespace db
}  // namespace perfeval

#endif  // PERFEVAL_TESTS_TEST_SCANS_H_
