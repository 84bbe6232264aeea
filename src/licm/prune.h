// Lineage pruning (Section V-C "Pruning").
//
// Variables and constraints not reachable from the aggregate objective
// cannot affect the optimum, so they are removed before the BIP is handed
// to the solver. The paper exploits sequential variable creation to prune
// in a single reverse pass; we run a worklist fixpoint over the
// variable/constraint incidence graph, which costs the same asymptotically
// and stays correct even for constraint orders that interleave groups
// (e.g. permutation row/column constraints).
//
// Soundness caveat (shared with the paper): pruning assumes the pruned-away
// remainder is satisfiable — true whenever the LICM database describes at
// least one possible world, which holds for every encoding of real data
// (the original data is a world).
#ifndef LICM_LICM_PRUNE_H_
#define LICM_LICM_PRUNE_H_

#include <cstdint>
#include <vector>

#include "licm/constraint.h"

namespace licm {

struct PruneResult {
  /// Indices of the constraints reachable from the seed variables, in
  /// constraint order.
  std::vector<uint32_t> kept;
  /// Variables reachable from the seeds (includes the seeds), ascending.
  std::vector<BVar> live;
  /// is_live[v] != 0 iff v is in `live`; one byte per pool variable.
  std::vector<uint8_t> is_live;

  struct Stats {
    size_t vars_before = 0;
    size_t vars_after = 0;
    size_t constraints_before = 0;
    size_t constraints_after = 0;
  } stats;
};

/// Keeps exactly the constraints/variables reachable from `seeds`.
PruneResult Prune(const ConstraintSet& constraints,
                  const std::vector<BVar>& seeds, uint32_t num_vars);

}  // namespace licm

#endif  // LICM_LICM_PRUNE_H_
