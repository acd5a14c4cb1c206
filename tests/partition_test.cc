#include "core/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <unordered_map>

namespace wfit {
namespace {

PartitionOptions opts_default() { return PartitionOptions{}; }

DoiFn TableDoi(std::map<std::pair<IndexId, IndexId>, double> table) {
  return [table = std::move(table)](IndexId a, IndexId b) {
    auto key = std::minmax(a, b);
    auto it = table.find({key.first, key.second});
    return it == table.end() ? 0.0 : it->second;
  };
}

// The dense merge search ChoosePartition used before its slot/bitset form:
// every round rescans all part pairs and shrink-copies a p x p cross
// cache. Kept verbatim as the reference the sparse search must match bit
// for bit, RNG stream included.
std::vector<IndexSet> ReferenceChoosePartition(
    const std::vector<IndexId>& indices,
    const std::vector<IndexSet>& current_partition, const DoiFn& doi,
    const PartitionOptions& options, Rng* rng) {
  auto states_of = [](size_t k) { return size_t{1} << k; };
  IndexSet d = IndexSet::FromVector(indices);
  const std::vector<IndexId>& ids = d.ids();
  const size_t n = ids.size();
  std::vector<double> doi_matrix(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      double v = doi(ids[i], ids[j]);
      doi_matrix[i * n + j] = v;
      doi_matrix[j * n + i] = v;
    }
  }
  using DensePart = std::vector<uint32_t>;
  auto cross_dense = [&](const DensePart& a, const DensePart& b) {
    double total = 0.0;
    for (uint32_t x : a) {
      const double* row = &doi_matrix[x * n];
      for (uint32_t y : b) total += row[y];
    }
    return total;
  };
  auto loss_dense = [&](const std::vector<DensePart>& parts) {
    double total = 0.0;
    for (size_t i = 0; i < parts.size(); ++i) {
      for (size_t j = i + 1; j < parts.size(); ++j) {
        total += cross_dense(parts[i], parts[j]);
      }
    }
    return total;
  };
  auto states_dense = [&](const std::vector<DensePart>& parts) {
    size_t total = 0;
    for (const DensePart& p : parts) total += states_of(p.size());
    return total;
  };

  std::vector<DensePart> best;
  double best_loss = std::numeric_limits<double>::infinity();
  bool have_best = false;
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
    bool feasible = states_dense(base) <= options.state_cnt;
    for (const DensePart& p : base) {
      feasible = feasible && p.size() <= options.max_part_size;
    }
    if (feasible) {
      best_loss = loss_dense(base);
      best = std::move(base);
      have_best = true;
    }
  }

  struct Candidate {
    size_t i, j;
    double weight;
  };
  std::vector<Candidate> e, e1;
  std::vector<double> weights;
  std::vector<double> cross_cache;
  for (int iter = 0; iter < options.rand_cnt; ++iter) {
    std::vector<DensePart> parts;
    for (size_t x = 0; x < n; ++x) {
      parts.push_back(DensePart{static_cast<uint32_t>(x)});
    }
    cross_cache = doi_matrix;
    size_t current_states = states_dense(parts);
    while (true) {
      e.clear();
      e1.clear();
      const size_t p = parts.size();
      for (size_t i = 0; i < p; ++i) {
        for (size_t j = i + 1; j < p; ++j) {
          double cross = cross_cache[i * p + j];
          if (cross <= 0.0) continue;
          size_t ni = parts[i].size(), nj = parts[j].size();
          if (ni + nj > options.max_part_size) continue;
          size_t merged_states = current_states - states_of(ni) -
                                 states_of(nj) + states_of(ni + nj);
          if (merged_states > options.state_cnt) continue;
          if (ni == 1 && nj == 1) {
            e1.push_back(Candidate{i, j, cross});
          } else {
            double denom = static_cast<double>(
                states_of(ni + nj) - states_of(ni) - states_of(nj));
            e.push_back(Candidate{i, j, cross / std::max(1.0, denom)});
          }
        }
      }
      const std::vector<Candidate>& pool = !e1.empty() ? e1 : e;
      if (pool.empty()) break;
      weights.clear();
      for (const Candidate& c : pool) weights.push_back(c.weight);
      const Candidate& pick = pool[rng->PickWeighted(weights)];
      DensePart merged;
      std::merge(parts[pick.i].begin(), parts[pick.i].end(),
                 parts[pick.j].begin(), parts[pick.j].end(),
                 std::back_inserter(merged));
      current_states += states_of(merged.size()) -
                        states_of(parts[pick.i].size()) -
                        states_of(parts[pick.j].size());
      parts[pick.i] = std::move(merged);
      parts.erase(parts.begin() + static_cast<ptrdiff_t>(pick.j));
      const size_t q = parts.size();
      for (size_t i = 0, src_i = 0; i < q; ++i, ++src_i) {
        if (src_i == pick.j) ++src_i;
        for (size_t j = 0, src_j = 0; j < q; ++j, ++src_j) {
          if (src_j == pick.j) ++src_j;
          cross_cache[i * q + j] = cross_cache[src_i * p + src_j];
        }
      }
      cross_cache.resize(q * q);
      for (size_t k = 0; k < q; ++k) {
        if (k == pick.i) continue;
        double v = k < pick.i ? cross_dense(parts[k], parts[pick.i])
                              : cross_dense(parts[pick.i], parts[k]);
        cross_cache[pick.i * q + k] = v;
        cross_cache[k * q + pick.i] = v;
      }
    }
    double loss = loss_dense(parts);
    if (!have_best || loss < best_loss) {
      best_loss = loss;
      best = std::move(parts);
      have_best = true;
    }
  }

  std::vector<IndexSet> out;
  for (const DensePart& p : best) {
    IndexSet set;
    for (uint32_t x : p) set.Add(ids[x]);
    out.push_back(std::move(set));
  }
  CanonicalizePartition(&out);
  return out;
}

/// One seeded random ChoosePartition instance.
struct Instance {
  std::vector<IndexId> indices;
  std::vector<IndexSet> current;
  std::unordered_map<uint64_t, double> doi;
  PartitionOptions options;
};

Instance RandomInstance(uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  const size_t n = static_cast<size_t>(rng.UniformInt(0, 70));
  // Sparse ids with gaps, so dense member indices differ from ids.
  IndexSet ids;
  while (ids.size() < n) {
    ids.Add(static_cast<IndexId>(rng.UniformInt(1, 400)));
  }
  inst.indices = ids.ids();
  rng.Shuffle(&inst.indices);
  // doi density from nearly empty to complete; values drawn from a small
  // set (ties) or continuous, with occasional huge values.
  const double density = rng.Uniform(0.0, 1.0) < 0.3 ? rng.Uniform(0.0, 0.1)
                                                     : rng.Uniform(0.0, 1.0);
  const bool ties = rng.Bernoulli(0.5);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (!rng.Bernoulli(density)) continue;
      double v = ties ? static_cast<double>(rng.UniformInt(1, 3))
                      : rng.Uniform(0.0, 1.0) *
                            std::pow(10.0, rng.UniformInt(-3, 6));
      IndexId a = std::min(inst.indices[i], inst.indices[j]);
      IndexId b = std::max(inst.indices[i], inst.indices[j]);
      inst.doi[(uint64_t{a} << 32) | b] = v;
    }
  }
  // Current partition: random groups over a random subset of the ids plus
  // ids that are no longer candidates.
  if (n > 0 && rng.Bernoulli(0.5)) {
    std::vector<IndexId> pool = inst.indices;
    for (int extra = 0; extra < 3; ++extra) {
      pool.push_back(static_cast<IndexId>(rng.UniformInt(401, 420)));
    }
    rng.Shuffle(&pool);
    pool.resize(static_cast<size_t>(
        rng.UniformInt(1, static_cast<int64_t>(pool.size()))));
    for (size_t at = 0; at < pool.size();) {
      size_t len = static_cast<size_t>(rng.UniformInt(1, 5));
      IndexSet part;
      for (size_t k = at; k < std::min(pool.size(), at + len); ++k) {
        part.Add(pool[k]);
      }
      inst.current.push_back(std::move(part));
      at += len;
    }
  }
  inst.options.rand_cnt = static_cast<int>(rng.UniformInt(1, 10));
  inst.options.max_part_size = static_cast<size_t>(rng.UniformInt(1, 16));
  // Tight budgets (barely above the all-singletons floor) and loose ones.
  const size_t min_states = std::max<size_t>(2 * n, 2);
  inst.options.state_cnt =
      min_states + static_cast<size_t>(
                       rng.UniformInt(0, rng.Bernoulli(0.5) ? 24 : 2000));
  return inst;
}

TEST(ChoosePartitionEquivalenceTest, MatchesDenseReferenceBitForBit) {
  constexpr uint64_t kBaseSeed = 0x5eed0000;
  constexpr int kCases = 3000;
  bool saw_two_words = false, saw_current = false, saw_merge = false;
  for (int c = 0; c < kCases; ++c) {
    const uint64_t seed = kBaseSeed + static_cast<uint64_t>(c);
    const Instance inst = RandomInstance(seed);
    DoiFn doi = [&inst](IndexId a, IndexId b) {
      auto it = inst.doi.find((uint64_t{std::min(a, b)} << 32) |
                              std::max(a, b));
      return it == inst.doi.end() ? 0.0 : it->second;
    };
    Rng got_rng(seed ^ 0xabcdef), want_rng(seed ^ 0xabcdef);
    std::vector<IndexSet> got = ChoosePartition(inst.indices, inst.current,
                                                doi, inst.options, &got_rng);
    std::vector<IndexSet> want = ReferenceChoosePartition(
        inst.indices, inst.current, doi, inst.options, &want_rng);
    ASSERT_EQ(got, want) << "partition differs; seed " << seed;
    ASSERT_EQ(got_rng.SaveState(), want_rng.SaveState())
        << "RNG stream differs; seed " << seed;
    saw_two_words = saw_two_words || inst.indices.size() > 64;
    saw_current = saw_current || !inst.current.empty();
    saw_merge = saw_merge || got.size() < inst.indices.size();
  }
  EXPECT_TRUE(saw_two_words && saw_current && saw_merge)
      << "the sweep must cover two-word rows, a current partition and merges";
}

TEST(ChoosePartitionDeathTest, NegativeDoiAborts) {
  Rng rng(8);
  EXPECT_DEATH(
      (void)ChoosePartition({1, 2}, {}, TableDoi({{{1, 2}, -1.0}}),
                            opts_default(), &rng),
      "non-negative");
}

TEST(PartitionLossTest, NoCrossInteractionsMeansZeroLoss) {
  DoiFn doi = TableDoi({{{1, 2}, 5.0}});
  std::vector<IndexSet> parts = {IndexSet{1, 2}, IndexSet{3}};
  EXPECT_DOUBLE_EQ(PartitionLoss(parts, doi), 0.0);
}

TEST(PartitionLossTest, CrossPairsSum) {
  DoiFn doi = TableDoi({{{1, 3}, 5.0}, {{2, 3}, 2.0}, {{1, 2}, 9.0}});
  std::vector<IndexSet> parts = {IndexSet{1, 2}, IndexSet{3}};
  // 1-3 and 2-3 cross; 1-2 does not.
  EXPECT_DOUBLE_EQ(PartitionLoss(parts, doi), 7.0);
}

TEST(PartitionStatesTest, SumsPowersOfTwo) {
  std::vector<IndexSet> parts = {IndexSet{1, 2, 3}, IndexSet{4}, IndexSet{5, 6}};
  EXPECT_EQ(PartitionStates(parts), 8u + 2u + 4u);
}

TEST(CanonicalizeTest, SortsByMinElementAndDropsEmpties) {
  std::vector<IndexSet> parts = {IndexSet{5}, IndexSet{}, IndexSet{1, 9}};
  CanonicalizePartition(&parts);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], (IndexSet{1, 9}));
  EXPECT_EQ(parts[1], (IndexSet{5}));
}

TEST(ChoosePartitionTest, MergesInteractingPair) {
  Rng rng(1);
  DoiFn doi = TableDoi({{{1, 2}, 10.0}});
  PartitionOptions opts;
  opts.state_cnt = 100;
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3}, {}, doi, opts, &rng);
  // 1 and 2 interact strongly and the budget allows the merge: loss 0.
  EXPECT_DOUBLE_EQ(PartitionLoss(result, doi), 0.0);
  bool merged = false;
  for (const IndexSet& p : result) {
    if (p.Contains(1) && p.Contains(2)) merged = true;
  }
  EXPECT_TRUE(merged);
}

TEST(ChoosePartitionTest, RespectsStateBudget) {
  Rng rng(2);
  // Everything interacts with everything: an unconstrained solution would
  // be one big part of 6 (2^6 = 64 states).
  std::map<std::pair<IndexId, IndexId>, double> table;
  for (IndexId a = 1; a <= 6; ++a) {
    for (IndexId b = a + 1; b <= 6; ++b) table[{a, b}] = 1.0;
  }
  PartitionOptions opts;
  opts.state_cnt = 20;  // forces splitting
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3, 4, 5, 6}, {}, TableDoi(table), opts, &rng);
  EXPECT_LE(PartitionStates(result), opts.state_cnt);
  IndexSet covered;
  for (const IndexSet& p : result) covered = covered.Union(p);
  EXPECT_EQ(covered.size(), 6u);
}

TEST(ChoosePartitionTest, PartitionCoversExactlyTheInput) {
  Rng rng(3);
  DoiFn doi = TableDoi({});
  PartitionOptions opts;
  std::vector<IndexSet> result =
      ChoosePartition({4, 8, 15, 16}, {}, doi, opts, &rng);
  IndexSet covered;
  size_t total = 0;
  for (const IndexSet& p : result) {
    covered = covered.Union(p);
    total += p.size();
  }
  EXPECT_EQ(covered, (IndexSet{4, 8, 15, 16}));
  EXPECT_EQ(total, 4u);  // disjoint
}

TEST(ChoosePartitionTest, NoInteractionsYieldsSingletons) {
  Rng rng(4);
  PartitionOptions opts;
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3}, {}, TableDoi({}), opts, &rng);
  EXPECT_EQ(result.size(), 3u);
  for (const IndexSet& p : result) EXPECT_EQ(p.size(), 1u);
}

TEST(ChoosePartitionTest, BaselineKeepsCurrentPartitionWhenGood) {
  Rng rng(5);
  DoiFn doi = TableDoi({{{1, 2}, 3.0}});
  std::vector<IndexSet> current = {IndexSet{1, 2}, IndexSet{3}};
  PartitionOptions opts;
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3}, current, doi, opts, &rng);
  EXPECT_DOUBLE_EQ(PartitionLoss(result, doi), 0.0);
}

TEST(ChoosePartitionTest, DropsVanishedIndicesFromBaseline) {
  Rng rng(6);
  DoiFn doi = TableDoi({});
  std::vector<IndexSet> current = {IndexSet{1, 2}, IndexSet{3}};
  // 2 is no longer a candidate.
  std::vector<IndexSet> result =
      ChoosePartition({1, 3}, current, doi, opts_default(), &rng);
  IndexSet covered;
  for (const IndexSet& p : result) covered = covered.Union(p);
  EXPECT_EQ(covered, (IndexSet{1, 3}));
}

TEST(ChoosePartitionTest, RespectsMaxPartSize) {
  Rng rng(7);
  std::map<std::pair<IndexId, IndexId>, double> table;
  for (IndexId a = 1; a <= 8; ++a) {
    for (IndexId b = a + 1; b <= 8; ++b) table[{a, b}] = 1.0;
  }
  PartitionOptions opts;
  opts.state_cnt = 100000;
  opts.max_part_size = 3;
  std::vector<IndexSet> result =
      ChoosePartition({1, 2, 3, 4, 5, 6, 7, 8}, {}, TableDoi(table), opts,
                      &rng);
  for (const IndexSet& p : result) EXPECT_LE(p.size(), 3u);
}

TEST(ChoosePartitionTest, DeterministicForSameSeed) {
  std::map<std::pair<IndexId, IndexId>, double> table;
  for (IndexId a = 1; a <= 6; ++a) {
    for (IndexId b = a + 1; b <= 6; ++b) {
      table[{a, b}] = static_cast<double>((a * 7 + b) % 5);
    }
  }
  PartitionOptions opts;
  opts.state_cnt = 24;
  Rng rng1(42), rng2(42);
  auto r1 = ChoosePartition({1, 2, 3, 4, 5, 6}, {}, TableDoi(table), opts,
                            &rng1);
  auto r2 = ChoosePartition({1, 2, 3, 4, 5, 6}, {}, TableDoi(table), opts,
                            &rng2);
  EXPECT_EQ(r1.size(), r2.size());
  for (size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i], r2[i]);
}

}  // namespace
}  // namespace wfit
