// Logical (bound) statement model: what the what-if optimizer costs.
// Produced from SQL by workload/binder or directly by the generator.
#ifndef WFIT_WORKLOAD_STATEMENT_H_
#define WFIT_WORKLOAD_STATEMENT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "catalog/catalog.h"

namespace wfit {

/// A sargable conjunct on a single column of one table, with its estimated
/// selectivity already resolved against column statistics.
struct ScanPredicate {
  ColumnRef column;
  /// Equality predicates can be fully consumed by a B-tree key prefix;
  /// a range predicate terminates prefix matching.
  bool equality = false;
  /// Non-sargable conjuncts (e.g. '<>') filter rows but cannot be served by
  /// an index.
  bool sargable = true;
  double selectivity = 1.0;
};

/// An equality join between two tables' columns.
struct JoinClause {
  ColumnRef left;
  ColumnRef right;
};

/// Per-table slice of a statement.
struct StatementTable {
  TableId table = 0;
  std::vector<ScanPredicate> predicates;
  /// Every column of this table the statement touches (select list, WHERE,
  /// joins, ORDER/GROUP BY). Determines when an index-only plan is possible.
  std::vector<uint32_t> referenced_columns;
};

enum class StatementKind { kSelect, kUpdate, kDelete, kInsert };

/// A bound workload statement. `Statement` is the `q` of the paper: the unit
/// the what-if optimizer costs and WFIT analyzes.
struct Statement {
  StatementKind kind = StatementKind::kSelect;
  std::vector<StatementTable> tables;  // >=1 for select; exactly 1 otherwise
  std::vector<JoinClause> joins;       // select only
  std::vector<ColumnRef> order_by;     // select only
  std::vector<ColumnRef> group_by;     // select only
  std::vector<uint32_t> set_columns;   // update only: ordinals in tables[0]
  uint64_t insert_rows = 0;            // insert only
  /// Original SQL (for logging / examples); may be empty.
  std::string sql;

  bool IsUpdateStatement() const { return kind != StatementKind::kSelect; }

  /// The table slice for `id`, or nullptr if the statement doesn't touch it.
  const StatementTable* FindTable(TableId id) const {
    for (const StatementTable& t : tables) {
      if (t.table == id) return &t;
    }
    return nullptr;
  }

  /// Combined selectivity of all predicates on one table slice.
  static double CombinedSelectivity(const StatementTable& t) {
    double s = 1.0;
    for (const ScanPredicate& p : t.predicates) s *= p.selectivity;
    return s;
  }
};

/// A workload: the paper's stream Q, materialized as a vector.
using Workload = std::vector<Statement>;

/// Debug rendering, e.g. "SELECT{tpch.lineitem(l_shipdate~0.02)}".
std::string ToString(const Statement& stmt, const Catalog& catalog);

}  // namespace wfit

#endif  // WFIT_WORKLOAD_STATEMENT_H_
