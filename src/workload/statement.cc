#include "workload/statement.h"

#include <sstream>

namespace wfit {

std::string ToString(const Statement& stmt, const Catalog& catalog) {
  std::ostringstream os;
  switch (stmt.kind) {
    case StatementKind::kSelect: os << "SELECT"; break;
    case StatementKind::kUpdate: os << "UPDATE"; break;
    case StatementKind::kDelete: os << "DELETE"; break;
    case StatementKind::kInsert: os << "INSERT"; break;
  }
  os << "{";
  for (size_t i = 0; i < stmt.tables.size(); ++i) {
    if (i > 0) os << ", ";
    const StatementTable& t = stmt.tables[i];
    os << catalog.table(t.table).qualified_name() << "(";
    for (size_t j = 0; j < t.predicates.size(); ++j) {
      if (j > 0) os << ",";
      const ScanPredicate& p = t.predicates[j];
      os << catalog.column(p.column).name << (p.equality ? "=" : "~")
         << p.selectivity;
    }
    os << ")";
  }
  if (!stmt.joins.empty()) {
    os << " joins=" << stmt.joins.size();
  }
  os << "}";
  return os.str();
}

}  // namespace wfit
