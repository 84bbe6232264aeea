// Simplex solvers for the LP relaxation of LICM programs.
//
// Two engines share this header:
//
//  * SolveLpRelaxation — the two-phase *primal* simplex on a dense
//    tableau. Stateless: every call builds the tableau from scratch. Used
//    for pure-LP components, for the continuous rest of a mixed
//    program's leaf once its integers are fixed, and as the reference the
//    incremental engine is tested against.
//
//  * IncrementalLp — a bounded-variable *dual* simplex that keeps its
//    basis, tableau, and reduced costs alive between solves. It is the
//    only node LP of branch & bound, which re-solves the same program
//    thousands of times under slightly different variable bounds; the
//    dual method re-establishes optimality from the parent basis in a
//    handful of pivots instead of a full re-solve, and its reduced costs
//    drive reduced-cost variable fixing (mip_solver.cc). Requires every
//    variable to have finite bounds (LICM variables are binary, so this
//    always holds after presolve).
//
// Both operate on dense tableaus: the node LP only runs on components of
// at most 400 variables, and SimplexOptions::max_tableau_cells caps the
// rest.
#ifndef LICM_SOLVER_SIMPLEX_H_
#define LICM_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "solver/linear_program.h"

namespace licm::solver {

struct SimplexOptions {
  /// Numerical tolerance for feasibility / optimality tests.
  double tol = 1e-9;
  /// Iteration cap; exceeded => solver switches to Bland's rule, and a
  /// second cap aborts (reported as time limit).
  int max_iterations = 100000;
  /// Hard cap on tableau cells to protect against accidentally huge dense
  /// instances; exceeding it returns kTimeLimit so callers fall back to
  /// propagation bounds.
  size_t max_tableau_cells = 64ull * 1024 * 1024;
  /// Pivots between refactorizations of the incremental engine (drift
  /// control; each refactorization rebuilds the tableau from the basis).
  int refactor_interval = 4096;
};

/// Solves the *continuous relaxation* of `lp` (integrality flags ignored).
/// Maximizes when sense == kMaximize. On kOptimal, `values` holds one
/// optimal vertex in original variable space.
LpSolution SolveLpRelaxation(const LinearProgram& lp, Sense sense,
                             const SimplexOptions& options = {});

/// Status of one column (structural variable or row slack) in a
/// bounded-variable basis.
enum class VarStatus : uint8_t { kBasic, kAtLower, kAtUpper };

/// Compact basis snapshot: one status per column, structurals first, then
/// one slack per row. A donated
/// subtree carries one so its strand warm-starts where the donor left off.
struct LpBasis {
  std::vector<VarStatus> status;
  bool empty() const { return status.empty(); }
};

/// Lifetime counters of one IncrementalLp instance.
struct IncrementalLpStats {
  int64_t solves = 0;
  int64_t pivots = 0;
  int64_t refactorizations = 0;
  /// Pivot count of the most expensive single re-solve.
  int64_t max_resolve_pivots = 0;
};

/// Bounded-variable dual simplex with a persistent basis.
///
/// Always *maximizes* (the MIP layer negates objectives for the min
/// sense). Every row becomes an equality with a slack column whose bounds
/// encode the row sense; nonbasic columns rest at a finite bound, so the
/// all-slack basis (structurals at their objective-preferred bound) is
/// dual feasible by construction and both the first solve and every warm
/// re-solve run the same dual iteration.
///
/// The referenced program must outlive the instance. Variable bounds are
/// passed per Solve call (the search's current domains); rows are fixed at
/// construction.
class IncrementalLp {
 public:
  explicit IncrementalLp(const LinearProgram& lp,
                         const SimplexOptions& options = {});

  IncrementalLp(const IncrementalLp&) = delete;
  IncrementalLp& operator=(const IncrementalLp&) = delete;

  /// True when `lp` fits this engine: every variable bound finite and the
  /// dense tableau within `options.max_tableau_cells`.
  static bool Suitable(const LinearProgram& lp, const SimplexOptions& options);

  /// Re-solves under the given bounds (indexed by VarId), warm-starting
  /// from the current basis. The first call cold-starts from the all-slack
  /// basis. kTimeLimit means the pivot cap was hit: objective/values/
  /// reduced costs are NOT valid and the caller must fall back to other
  /// bounds.
  SolveStatus Solve(const std::vector<double>& lower,
                    const std::vector<double>& upper);

  /// Optimal objective (including the program's constant). Valid after a
  /// kOptimal Solve.
  double objective() const { return objective_; }
  /// Optimal structural values, indexed by VarId. Valid after kOptimal.
  const std::vector<double>& values() const { return values_; }

  /// Reduced cost of structural variable `v` at the last optimum, in the
  /// maximization orientation: nonbasic-at-lower implies d <= 0 and
  /// raising v by t can improve the objective by at most d * t (i.e. not
  /// at all); symmetrically at-upper implies d >= 0.
  double ReducedCost(VarId v) const { return d_[v]; }
  VarStatus StatusOf(VarId v) const { return status_[v]; }

  LpBasis SaveBasis() const;
  /// Adopts a basis snapshot (e.g. from a donor strand) and refactorizes.
  /// Falls back to the all-slack cold basis when the snapshot does not
  /// match the column layout or is singular.
  void RestoreBasis(const LpBasis& basis);

  /// Pivots performed by the most recent Solve call.
  int64_t last_pivots() const { return last_pivots_; }
  const IncrementalLpStats& stats() const { return stats_; }

 private:
  void ColdBasis();
  /// Rebuilds tableau, beta, and reduced costs from `status_`. Returns
  /// false when the implied basis matrix is singular.
  bool Refactorize();
  void SyncBounds(const std::vector<double>& lower,
                  const std::vector<double>& upper);
  double NonbasicValue(size_t col) const;
  void Pivot(size_t row, size_t enter_col, double ratio);

  const LinearProgram& lp_;
  const SimplexOptions opt_;
  size_t num_vars_;  // structural columns
  size_t num_rows_;  // rows of the program
  size_t num_cols_;  // num_vars_ + num_rows_

  std::vector<std::vector<double>> tab_;  // num_rows_ x num_cols_
  std::vector<size_t> basis_;             // row -> basic column
  std::vector<VarStatus> status_;         // per column
  std::vector<double> beta_;              // value of each row's basic var
  std::vector<double> d_;                 // reduced costs per column
  std::vector<double> lb_, ub_;           // working bounds per column
  std::vector<double> obj_;               // objective coef per column

  bool factorized_ = false;
  int pivots_since_refactor_ = 0;
  int64_t last_pivots_ = 0;
  double objective_ = 0.0;
  std::vector<double> values_;
  IncrementalLpStats stats_;
};

}  // namespace licm::solver

#endif  // LICM_SOLVER_SIMPLEX_H_
