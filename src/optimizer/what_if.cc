#include "optimizer/what_if.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/trace.h"
#include "optimizer/selectivity.h"

namespace wfit {

namespace {

constexpr double kCostEps = 1e-9;

}  // namespace

std::vector<WhatIfOptimizer::AccessPath> WhatIfOptimizer::SingleIndexPaths(
    const StatementTable& t, const std::vector<IndexId>& available,
    const ColumnRef* order_col, bool needs_fetch) const {
  const CostModelOptions& opt = model_->options();
  const TableInfo& info = model_->catalog().table(t.table);
  const double rows = static_cast<double>(info.row_count);
  const double sel_all = Statement::CombinedSelectivity(t);
  const double out_rows = std::max(1.0, rows * sel_all);
  const double table_pages = model_->TablePages(t.table);

  std::vector<AccessPath> paths;
  for (IndexId a : available) {
    const IndexDef& def = model_->pool().def(a);
    if (def.table != t.table) continue;

    // B-tree prefix matching: leading equality predicates, then at most one
    // range predicate.
    double prefix_sel = 1.0;
    size_t matched = 0;
    for (uint32_t key_col : def.columns) {
      const ScanPredicate* eq = nullptr;
      const ScanPredicate* range = nullptr;
      for (const ScanPredicate& p : t.predicates) {
        if (!p.sargable || p.column.column != key_col) continue;
        if (p.equality && eq == nullptr) eq = &p;
        if (!p.equality && range == nullptr) range = &p;
      }
      if (eq != nullptr) {
        prefix_sel *= eq->selectivity;
        ++matched;
        continue;  // equality keeps the prefix going
      }
      if (range != nullptr) {
        prefix_sel *= range->selectivity;
        ++matched;
      }
      break;  // range (or no predicate) terminates the prefix
    }

    // Covering: every referenced column is a key column.
    bool covering = true;
    for (uint32_t c : t.referenced_columns) {
      if (std::find(def.columns.begin(), def.columns.end(), c) ==
          def.columns.end()) {
        covering = false;
        break;
      }
    }
    const bool sorted =
        order_col != nullptr && order_col->table == t.table &&
        !def.columns.empty() && def.columns[0] == order_col->column;

    const double index_pages = model_->IndexPages(a);
    const double entries = std::max(1.0, rows * prefix_sel);

    if (matched > 0) {
      // Index scan over the matching range.
      double leaf = opt.btree_probe_cost +
                    index_pages * prefix_sel * opt.seq_page_cost +
                    entries * opt.cpu_index_tuple_cost;
      double residual =
          entries * opt.cpu_operator_cost *
          static_cast<double>(std::max<size_t>(1, t.predicates.size()));
      AccessPath path;
      path.out_rows = out_rows;
      path.sorted = sorted;
      path.used.Add(a);
      if (covering && !needs_fetch) {
        path.cost = leaf + residual;
      } else {
        // Bitmap-style cap: never fetch more than a full heap pass.
        double fetch = std::min(entries * opt.random_page_cost,
                                table_pages * opt.seq_page_cost +
                                    entries * opt.cpu_tuple_cost);
        path.cost = leaf + fetch + residual;
      }
      paths.push_back(std::move(path));
      continue;
    }

    // No sargable prefix: an index-only or in-order full index scan can
    // still beat the heap scan.
    if (covering && !needs_fetch) {
      AccessPath path;
      path.out_rows = out_rows;
      path.sorted = sorted;
      path.used.Add(a);
      path.cost = opt.btree_probe_cost + index_pages * opt.seq_page_cost +
                  rows * opt.cpu_index_tuple_cost +
                  rows * opt.cpu_operator_cost *
                      static_cast<double>(t.predicates.size());
      paths.push_back(std::move(path));
    } else if (sorted) {
      // Full index scan + heap fetch, in order (avoids the sort).
      AccessPath path;
      path.out_rows = out_rows;
      path.sorted = true;
      path.used.Add(a);
      double fetch = std::min(rows * opt.random_page_cost,
                              4.0 * table_pages * opt.seq_page_cost);
      path.cost = opt.btree_probe_cost + index_pages * opt.seq_page_cost +
                  rows * opt.cpu_index_tuple_cost + fetch +
                  rows * opt.cpu_operator_cost *
                      static_cast<double>(t.predicates.size());
      paths.push_back(std::move(path));
    }
  }
  return paths;
}

WhatIfOptimizer::AccessPath WhatIfOptimizer::BestTableAccess(
    const StatementTable& t, const std::vector<IndexId>& available,
    const ColumnRef* order_col, bool needs_fetch) const {
  const CostModelOptions& opt = model_->options();
  const TableInfo& info = model_->catalog().table(t.table);
  const double rows = static_cast<double>(info.row_count);
  const double sel_all = Statement::CombinedSelectivity(t);
  const double out_rows = std::max(1.0, rows * sel_all);
  const double table_pages = model_->TablePages(t.table);

  // Baseline: sequential scan.
  AccessPath best;
  best.cost = model_->TableScanCost(t.table) +
              rows * opt.cpu_operator_cost *
                  static_cast<double>(t.predicates.size());
  best.out_rows = out_rows;
  best.sorted = false;

  auto consider = [&](const AccessPath& candidate) {
    if (candidate.cost + kCostEps < best.cost ||
        (std::abs(candidate.cost - best.cost) <= kCostEps &&
         candidate.used.size() < best.used.size())) {
      best = candidate;
    }
  };

  std::vector<AccessPath> singles =
      SingleIndexPaths(t, available, order_col, needs_fetch);
  for (const AccessPath& p : singles) consider(p);

  // Two-index intersections: both sides must actually filter. The fetch
  // shrinks to the conjunction of the two prefix selectivities; this is the
  // canonical positive index interaction.
  for (size_t i = 0; i < singles.size(); ++i) {
    for (size_t j = i + 1; j < singles.size(); ++j) {
      const AccessPath& pa = singles[i];
      const AccessPath& pb = singles[j];
      if (pa.used.size() != 1 || pb.used.size() != 1) continue;
      IndexId a = *pa.used.begin();
      IndexId b = *pb.used.begin();
      // Recompute each side's prefix selectivity from its path: infeasible
      // directly, so re-derive from the first key column's predicates.
      auto prefix_sel_of = [&](IndexId ix) {
        const IndexDef& def = model_->pool().def(ix);
        double sel = 1.0;
        bool any = false;
        for (uint32_t key_col : def.columns) {
          const ScanPredicate* eq = nullptr;
          const ScanPredicate* range = nullptr;
          for (const ScanPredicate& p : t.predicates) {
            if (!p.sargable || p.column.column != key_col) continue;
            if (p.equality && eq == nullptr) eq = &p;
            if (!p.equality && range == nullptr) range = &p;
          }
          if (eq != nullptr) {
            sel *= eq->selectivity;
            any = true;
            continue;
          }
          if (range != nullptr) {
            sel *= range->selectivity;
            any = true;
          }
          break;
        }
        return any ? sel : 1.0;
      };
      double sel_a = prefix_sel_of(a);
      double sel_b = prefix_sel_of(b);
      if (sel_a >= 1.0 || sel_b >= 1.0) continue;
      double entries_a = std::max(1.0, rows * sel_a);
      double entries_b = std::max(1.0, rows * sel_b);
      double rid_a = opt.btree_probe_cost +
                     model_->IndexPages(a) * sel_a * opt.seq_page_cost +
                     entries_a * opt.cpu_index_tuple_cost;
      double rid_b = opt.btree_probe_cost +
                     model_->IndexPages(b) * sel_b * opt.seq_page_cost +
                     entries_b * opt.cpu_index_tuple_cost;
      double and_cpu = (entries_a + entries_b) * opt.cpu_operator_cost;
      double matches = std::max(1.0, rows * sel_a * sel_b);
      double fetch = std::min(matches * opt.random_page_cost,
                              table_pages * opt.seq_page_cost +
                                  matches * opt.cpu_tuple_cost);
      double residual = matches * opt.cpu_operator_cost *
                        static_cast<double>(t.predicates.size());
      AccessPath path;
      path.cost = rid_a + rid_b + and_cpu + fetch + residual;
      path.out_rows = out_rows;
      path.sorted = false;
      path.used.Add(a);
      path.used.Add(b);
      consider(path);
    }
  }
  return best;
}

PlanSummary WhatIfOptimizer::OptimizeSelect(const Statement& q,
                                            const IndexSet& x) const {
  const CostModelOptions& opt = model_->options();
  // Partition the hypothetical configuration by table once.
  auto available_for = [&](TableId t) {
    std::vector<IndexId> out;
    for (IndexId a : x) {
      if (model_->pool().def(a).table == t) out.push_back(a);
    }
    return out;
  };

  const ColumnRef* order_col =
      q.order_by.empty() ? nullptr : &q.order_by.front();

  if (q.tables.size() == 1) {
    const StatementTable& t = q.tables[0];
    AccessPath best = BestTableAccess(t, available_for(t.table), order_col,
                                      /*needs_fetch=*/false);
    double cost = best.cost;
    if (order_col != nullptr && !best.sorted) {
      cost += model_->SortCost(best.out_rows);
    }
    if (!q.group_by.empty()) {
      cost += best.out_rows * opt.cpu_operator_cost * 2.0;
    }
    return PlanSummary{cost, best.used};
  }

  // Multi-table: left-deep chain ordered by filtered cardinality.
  struct TableState {
    const StatementTable* slice;
    AccessPath path;
    double filtered_rows;
  };
  std::vector<TableState> states;
  for (const StatementTable& t : q.tables) {
    TableState s;
    s.slice = &t;
    s.path = BestTableAccess(t, available_for(t.table), nullptr,
                             /*needs_fetch=*/false);
    s.filtered_rows = s.path.out_rows;
    states.push_back(std::move(s));
  }
  std::stable_sort(states.begin(), states.end(),
                   [](const TableState& a, const TableState& b) {
                     return a.filtered_rows < b.filtered_rows;
                   });

  double total = states[0].path.cost;
  double acc_rows = states[0].filtered_rows;
  IndexSet used = states[0].path.used;
  std::vector<TableId> joined = {states[0].slice->table};

  for (size_t i = 1; i < states.size(); ++i) {
    const TableState& s = states[i];
    TableId t = s.slice->table;
    // Combined selectivity of every join clause linking t to the chain,
    // and t's join column for index-nested-loop consideration.
    double join_sel = 1.0;
    const ColumnRef* inner_join_col = nullptr;
    for (const JoinClause& j : q.joins) {
      const ColumnRef* mine = nullptr;
      const ColumnRef* theirs = nullptr;
      if (j.left.table == t) {
        mine = &j.left;
        theirs = &j.right;
      } else if (j.right.table == t) {
        mine = &j.right;
        theirs = &j.left;
      } else {
        continue;
      }
      if (std::find(joined.begin(), joined.end(), theirs->table) ==
          joined.end()) {
        continue;  // clause connects to a table not yet in the chain
      }
      const ColumnInfo& ca = model_->catalog().column(*mine);
      const ColumnInfo& cb = model_->catalog().column(*theirs);
      join_sel *= JoinSelectivity(ca, cb);
      if (inner_join_col == nullptr) inner_join_col = mine;
    }

    // Option 1: hash join against t's best standalone access path.
    double hash_cost =
        s.path.cost + (acc_rows + s.filtered_rows) * opt.cpu_operator_cost * 2.0;
    IndexSet hash_used = s.path.used;

    // Option 2: index-nested-loop via an index whose leading key is t's
    // join column.
    double inl_cost = std::numeric_limits<double>::infinity();
    IndexSet inl_used;
    if (inner_join_col != nullptr) {
      const TableInfo& info = model_->catalog().table(t);
      double rows_t = static_cast<double>(info.row_count);
      const ColumnInfo& jc = model_->catalog().column(*inner_join_col);
      double matches_per =
          rows_t / static_cast<double>(std::max<uint64_t>(1, jc.distinct_values));
      for (IndexId a : available_for(t)) {
        const IndexDef& def = model_->pool().def(a);
        if (def.columns.empty() ||
            def.columns[0] != inner_join_col->column) {
          continue;
        }
        bool covering = true;
        for (uint32_t c : s.slice->referenced_columns) {
          if (std::find(def.columns.begin(), def.columns.end(), c) ==
              def.columns.end()) {
            covering = false;
            break;
          }
        }
        double per_probe =
            opt.btree_probe_cost +
            matches_per * (opt.cpu_index_tuple_cost +
                           (covering ? 0.0 : opt.random_page_cost) +
                           opt.cpu_operator_cost *
                               static_cast<double>(s.slice->predicates.size()));
        double cost = acc_rows * per_probe;
        if (cost < inl_cost) {
          inl_cost = cost;
          inl_used.clear();
          inl_used.Add(a);
        }
      }
    }

    if (inl_cost + kCostEps < hash_cost) {
      total += inl_cost;
      used = used.Union(inl_used);
    } else {
      total += hash_cost;
      used = used.Union(hash_used);
    }

    const TableInfo& info = model_->catalog().table(t);
    double rows_t = static_cast<double>(info.row_count);
    double local_sel = Statement::CombinedSelectivity(*s.slice);
    acc_rows = std::max(1.0, acc_rows * rows_t * local_sel * join_sel);
    joined.push_back(t);
  }

  if (order_col != nullptr) total += model_->SortCost(acc_rows);
  if (!q.group_by.empty()) total += acc_rows * opt.cpu_operator_cost * 2.0;
  return PlanSummary{total, used};
}

PlanSummary WhatIfOptimizer::OptimizeUpdate(const Statement& q,
                                            const IndexSet& x) const {
  const CostModelOptions& opt = model_->options();
  WFIT_CHECK(q.tables.size() == 1, "update statements touch exactly one table");
  const StatementTable& t = q.tables[0];
  const TableInfo& info = model_->catalog().table(t.table);
  const double rows = static_cast<double>(info.row_count);

  std::vector<IndexId> available;
  for (IndexId a : x) {
    if (model_->pool().def(a).table == t.table) available.push_back(a);
  }

  double modified;
  double locate_cost = 0.0;
  IndexSet used;
  if (q.kind == StatementKind::kInsert) {
    modified = static_cast<double>(q.insert_rows);
  } else {
    modified = std::max(1.0, rows * Statement::CombinedSelectivity(t));
    AccessPath locate = BestTableAccess(t, available, nullptr,
                                        /*needs_fetch=*/true);
    locate_cost = locate.cost;
    used = locate.used;
  }

  double write_cost = modified * opt.base_write_per_row;

  double maintenance = 0.0;
  for (IndexId a : available) {
    bool affected = true;
    if (q.kind == StatementKind::kUpdate) {
      // Only indices containing an assigned column must be maintained.
      affected = false;
      const IndexDef& def = model_->pool().def(a);
      for (uint32_t set_col : q.set_columns) {
        if (std::find(def.columns.begin(), def.columns.end(), set_col) !=
            def.columns.end()) {
          affected = true;
          break;
        }
      }
    }
    if (affected) {
      maintenance += model_->MaintenanceCost(a, modified);
      used.Add(a);  // maintenance makes the index cost-relevant
    }
  }

  return PlanSummary{locate_cost + write_cost + maintenance, used};
}

PlanSummary WhatIfOptimizer::Optimize(const Statement& q,
                                      const IndexSet& x) const {
  obs::StageSpan span(obs::Stage::kProbe, "probe.real");
  num_calls_.fetch_add(1, std::memory_order_relaxed);
  if (q.kind == StatementKind::kSelect) return OptimizeSelect(q, x);
  return OptimizeUpdate(q, x);
}

}  // namespace wfit
