#include "core/partition.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>

namespace wfit {

namespace {

double CrossLoss(const IndexSet& a, const IndexSet& b, const DoiFn& doi) {
  double total = 0.0;
  for (IndexId x : a) {
    for (IndexId y : b) total += doi(x, y);
  }
  return total;
}

/// States used by a part of size k: 2^k.
size_t StatesOf(size_t k) { return size_t{1} << k; }

void SetBit(uint64_t* row, size_t b) {
  row[b / 64] |= uint64_t{1} << (b % 64);
}
void ClearBit(uint64_t* row, size_t b) {
  row[b / 64] &= ~(uint64_t{1} << (b % 64));
}

/// Calls f(b) for every set bit b >= from of a `words`-word bitset, in
/// ascending order.
template <typename F>
void ForEachSetBit(const uint64_t* row, size_t words, size_t from, F&& f) {
  size_t w = from / 64;
  if (w >= words) return;
  uint64_t bits = row[w] & (~uint64_t{0} << (from % 64));
  while (true) {
    while (bits != 0) {
      f(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
    if (++w == words) return;
    bits = row[w];
  }
}

}  // namespace

double PartitionLoss(const std::vector<IndexSet>& parts, const DoiFn& doi) {
  double total = 0.0;
  for (size_t i = 0; i < parts.size(); ++i) {
    for (size_t j = i + 1; j < parts.size(); ++j) {
      total += CrossLoss(parts[i], parts[j], doi);
    }
  }
  return total;
}

size_t PartitionStates(const std::vector<IndexSet>& parts) {
  size_t total = 0;
  for (const IndexSet& p : parts) total += StatesOf(p.size());
  return total;
}

void CanonicalizePartition(std::vector<IndexSet>* parts) {
  parts->erase(std::remove_if(parts->begin(), parts->end(),
                              [](const IndexSet& p) { return p.empty(); }),
               parts->end());
  std::sort(parts->begin(), parts->end(),
            [](const IndexSet& a, const IndexSet& b) {
              return *a.begin() < *b.begin();
            });
}

std::vector<IndexSet> ChoosePartition(
    const std::vector<IndexId>& indices,
    const std::vector<IndexSet>& current_partition, const DoiFn& doi,
    const PartitionOptions& options, Rng* rng) {
  WFIT_CHECK(rng != nullptr, "ChoosePartition requires an Rng");
  IndexSet d = IndexSet::FromVector(indices);
  WFIT_CHECK(2 * d.size() <= options.state_cnt || d.size() <= 1,
             "state_cnt cannot accommodate even singleton parts");

  // The search below evaluates pairwise cross losses many times per merge
  // round, times rand_cnt rounds of rounds — querying the DoiFn (a
  // stats-window walk) each time dominated the WFIT hot path. Evaluate doi
  // exactly ONCE per pair into a dense |D|x|D| matrix and run the whole
  // search over dense member indices. Alongside it, row x of `doi_rows`
  // is a bitset of the members y with doi(x, y) > 0.
  const std::vector<IndexId>& ids = d.ids();
  const size_t n = ids.size();
  const size_t words = (n + 63) / 64;
  std::vector<double> doi_matrix(n * n, 0.0);
  std::vector<uint64_t> doi_rows(n * words, 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = doi(ids[i], ids[j]);
      // The sparse search relies on this: see the merge step below.
      WFIT_CHECK(v >= 0.0, "doi must be non-negative");
      doi_matrix[i * n + j] = v;
      doi_matrix[j * n + i] = v;
      if (v > 0.0) {
        SetBit(&doi_rows[i * words], j);
        SetBit(&doi_rows[j * words], i);
      }
    }
  }
  // Parts as sorted vectors of dense member indices (sorted => the same
  // ascending-id iteration order as IndexSet).
  using DensePart = std::vector<uint32_t>;
  auto cross_dense = [&](const DensePart& a, const DensePart& b) {
    double total = 0.0;
    for (uint32_t x : a) {
      const double* row = &doi_matrix[x * n];
      for (uint32_t y : b) total += row[y];
    }
    return total;
  };
  auto to_sets = [&](const std::vector<DensePart>& parts) {
    std::vector<IndexSet> out;
    out.reserve(parts.size());
    for (const DensePart& p : parts) {
      IndexSet set;
      for (uint32_t x : p) set.Add(ids[x]);
      out.push_back(std::move(set));
    }
    return out;
  };

  std::vector<DensePart> best;
  double best_loss = std::numeric_limits<double>::infinity();
  bool have_best = false;

  // Baseline: current partition restricted to D, plus singletons for the
  // new indices (Fig. 7, lines 2-7).
  {
    std::vector<DensePart> base;
    std::vector<bool> covered(n, false);
    for (const IndexSet& part : current_partition) {
      DensePart kept;
      for (size_t x = 0; x < n; ++x) {
        if (part.Contains(ids[x])) {
          kept.push_back(static_cast<uint32_t>(x));
          covered[x] = true;
        }
      }
      if (!kept.empty()) base.push_back(std::move(kept));
    }
    for (size_t x = 0; x < n; ++x) {
      if (!covered[x]) base.push_back(DensePart{static_cast<uint32_t>(x)});
    }
    size_t states = 0;
    bool feasible = true;
    for (const DensePart& p : base) {
      states += StatesOf(p.size());
      feasible = feasible && p.size() <= options.max_part_size;
    }
    if (feasible && states <= options.state_cnt) {
      double loss = 0.0;
      for (size_t i = 0; i < base.size(); ++i) {
        for (size_t j = i + 1; j < base.size(); ++j) {
          loss += cross_dense(base[i], base[j]);
        }
      }
      best_loss = loss;
      best = std::move(base);
      have_best = true;
    }
  }

  // Randomized merge searches (Fig. 7, lines 8-20), over fixed slots: part
  // s starts as the singleton {s}; a merge of slots i < j moves the union
  // into slot i and retires slot j. Parts thus keep the relative order a
  // vector with erase(j) would give them, so scanning live slots in
  // ascending order visits pairs — and sums losses and orders the E/E1
  // weights fed to PickWeighted — exactly as a dense rescan of the part
  // list would.
  //
  // `cross` caches each live pair's cross loss, recomputed from scratch
  // (never incrementally summed, same cross_dense argument order) whenever
  // one of its parts changes, so every cached value is exactly the double
  // a full recomputation would produce. `rows` holds, per live slot, the
  // bitset of slots it has a positive cross loss with. Only those pairs
  // can enter E or E1, and only they contribute to loss(P): because doi
  // ≥ 0, a cross loss is a sum of non-negative terms, which is positive
  // iff one of its terms is, and adding an exact +0 leaves a sum unchanged.
  // So after a merge the merged part's neighbours are exactly the union
  // of the two old parts' neighbours, and only those crosses are
  // recomputed.
  struct Pair {
    uint32_t i, j;
  };
  std::vector<Pair> e, e1;
  std::vector<double> e_weights, e1_weights;
  std::vector<DensePart> parts(n);
  std::vector<double> cross;
  std::vector<uint64_t> rows;
  std::vector<uint64_t> live(words, 0);
  for (int iter = 0; iter < options.rand_cnt; ++iter) {
    for (size_t x = 0; x < n; ++x) {
      parts[x].assign(1, static_cast<uint32_t>(x));
      SetBit(live.data(), x);
    }
    // All-singleton start: part crosses ARE the doi matrix.
    cross = doi_matrix;
    rows = doi_rows;
    size_t current_states = n * StatesOf(1);

    while (true) {
      // E: mergeable pairs with positive cross loss.
      e.clear();
      e1.clear();
      e_weights.clear();
      e1_weights.clear();
      ForEachSetBit(live.data(), words, 0, [&](size_t i) {
        ForEachSetBit(&rows[i * words], words, i + 1, [&](size_t j) {
          double cross_ij = cross[i * n + j];
          size_t ni = parts[i].size(), nj = parts[j].size();
          if (ni + nj > options.max_part_size) return;
          size_t merged_states = current_states - StatesOf(ni) -
                                 StatesOf(nj) + StatesOf(ni + nj);
          if (merged_states > options.state_cnt) return;
          Pair pair{static_cast<uint32_t>(i), static_cast<uint32_t>(j)};
          if (ni == 1 && nj == 1) {
            e1.push_back(pair);
            e1_weights.push_back(cross_ij);
          } else {
            double denom = static_cast<double>(StatesOf(ni + nj) -
                                               StatesOf(ni) - StatesOf(nj));
            e.push_back(pair);
            e_weights.push_back(cross_ij / std::max(1.0, denom));
          }
        });
      });
      const bool use_e1 = !e1.empty();
      if (!use_e1 && e.empty()) break;
      const Pair pick = use_e1 ? e1[rng->PickWeighted(e1_weights)]
                               : e[rng->PickWeighted(e_weights)];
      const size_t i = pick.i, j = pick.j;
      // Sorted merge keeps ascending iteration order (== IndexSet::Union).
      DensePart merged;
      merged.reserve(parts[i].size() + parts[j].size());
      std::merge(parts[i].begin(), parts[i].end(), parts[j].begin(),
                 parts[j].end(), std::back_inserter(merged));
      current_states += StatesOf(merged.size()) - StatesOf(parts[i].size()) -
                        StatesOf(parts[j].size());
      parts[i] = std::move(merged);
      parts[j].clear();
      ClearBit(live.data(), j);
      uint64_t* row_i = &rows[i * words];
      uint64_t* row_j = &rows[j * words];
      for (size_t w = 0; w < words; ++w) {
        row_i[w] |= row_j[w];
        row_j[w] = 0;
      }
      ClearBit(row_i, i);
      ClearBit(row_i, j);
      ForEachSetBit(row_i, words, 0, [&](size_t k) {
        uint64_t* row_k = &rows[k * words];
        ClearBit(row_k, j);
        SetBit(row_k, i);
        // Argument order matches the (i < j) full recomputation exactly, so
        // the summation order — hence the double — is identical.
        double v = k < i ? cross_dense(parts[k], parts[i])
                         : cross_dense(parts[i], parts[k]);
        WFIT_DCHECK(v > 0.0, "a neighbour's cross loss must be positive");
        cross[i * n + k] = v;
        cross[k * n + i] = v;
      });
    }

    // loss(P): the positive crosses of live pairs in ascending slot order
    // (the zero ones would add exact zeros).
    double loss = 0.0;
    ForEachSetBit(live.data(), words, 0, [&](size_t i) {
      ForEachSetBit(&rows[i * words], words, i + 1,
                    [&](size_t j) { loss += cross[i * n + j]; });
    });
    if (!have_best || loss < best_loss) {
      best_loss = loss;
      best.clear();
      ForEachSetBit(live.data(), words, 0,
                    [&](size_t i) { best.push_back(parts[i]); });
      have_best = true;
    }
    std::fill(live.begin(), live.end(), 0);
  }

  WFIT_CHECK(have_best, "no feasible partition found");
  std::vector<IndexSet> out = to_sets(best);
  CanonicalizePartition(&out);
  return out;
}

}  // namespace wfit
