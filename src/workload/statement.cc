#include "workload/statement.h"

#include <bit>
#include <sstream>

namespace wfit {

namespace {

/// FNV-1a accumulation over 64-bit words.
inline void Mix(uint64_t* h, uint64_t v) {
  *h ^= v;
  *h *= 0x100000001B3ull;
}

inline void Mix(uint64_t* h, double v) {
  // +0.0 and -0.0 compare equal but differ bitwise; selectivities are
  // products of positive factors, so normalizing zero is enough.
  Mix(h, std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v));
}

inline void Mix(uint64_t* h, const ColumnRef& c) {
  Mix(h, (static_cast<uint64_t>(c.table) << 32) | c.column);
}

}  // namespace

uint64_t Statement::Fingerprint() const {
  if (fingerprint_cache_ != 0) return fingerprint_cache_;
  uint64_t h = 0xCBF29CE484222325ull;  // FNV offset basis = the salt
  Mix(&h, static_cast<uint64_t>(kind));
  Mix(&h, tables.size());
  for (const StatementTable& t : tables) {
    Mix(&h, static_cast<uint64_t>(t.table));
    Mix(&h, t.predicates.size());
    for (const ScanPredicate& p : t.predicates) {
      Mix(&h, p.column);
      Mix(&h, (static_cast<uint64_t>(p.equality) << 1) |
                  static_cast<uint64_t>(p.sargable));
      Mix(&h, p.selectivity);
    }
    Mix(&h, t.referenced_columns.size());
    for (uint32_t c : t.referenced_columns) Mix(&h, static_cast<uint64_t>(c));
  }
  Mix(&h, joins.size());
  for (const JoinClause& j : joins) {
    Mix(&h, j.left);
    Mix(&h, j.right);
  }
  Mix(&h, order_by.size());
  for (const ColumnRef& c : order_by) Mix(&h, c);
  Mix(&h, group_by.size());
  for (const ColumnRef& c : group_by) Mix(&h, c);
  Mix(&h, set_columns.size());
  for (uint32_t c : set_columns) Mix(&h, static_cast<uint64_t>(c));
  Mix(&h, insert_rows);
  if (h == 0) h = 1;  // keep 0 as the "not computed" sentinel
  fingerprint_cache_ = h;
  return h;
}

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
