// Stable-partition selection (Sec. 5.2.2, Fig. 7): clusters candidate
// indices so that strongly-interacting indices share a part, subject to the
// stateCnt bound Σm 2^|Dm| ≤ stateCnt. Ignored interactions contribute to
// loss(P) = Σ cross-part doi*; the randomized merge search minimizes it.
#ifndef WFIT_CORE_PARTITION_H_
#define WFIT_CORE_PARTITION_H_

#include <functional>
#include <vector>

#include "common/rng.h"
#include "core/index_set.h"

namespace wfit {

/// doi*_N lookup for a pair of candidates.
using DoiFn = std::function<double(IndexId, IndexId)>;

struct PartitionOptions {
  /// Upper bound on Σm 2^|Dm| (the paper's stateCnt knob).
  size_t state_cnt = 500;
  /// Randomized iterations (the paper's RAND_CNT).
  int rand_cnt = 10;
  /// Hard per-part cap (work functions are dense arrays).
  size_t max_part_size = 16;
};

/// Σ of doi over pairs that cross part boundaries.
double PartitionLoss(const std::vector<IndexSet>& parts, const DoiFn& doi);

/// Number of work-function states the partition needs: Σm 2^|Dm|.
size_t PartitionStates(const std::vector<IndexSet>& parts);

/// Canonical form: parts ordered by their smallest member. Two equal
/// partitions compare equal as vectors after canonicalization.
void CanonicalizePartition(std::vector<IndexSet>* parts);

/// Fig. 7: chooses a partition of `indices` minimizing loss, considering
/// the (restricted) current partition as a baseline plus rand_cnt
/// randomized merge searches. Requires 2·|indices| ≤ state_cnt (the
/// all-singletons partition must be feasible) and doi ≥ 0 for every pair
/// (the merge search visits only positive-doi pairs; aborts otherwise).
std::vector<IndexSet> ChoosePartition(
    const std::vector<IndexId>& indices,
    const std::vector<IndexSet>& current_partition, const DoiFn& doi,
    const PartitionOptions& options, Rng* rng);

}  // namespace wfit

#endif  // WFIT_CORE_PARTITION_H_
