#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace licm::solver {
namespace {

// Dense tableau for the two-phase method. Column layout:
//   [0, n)          shifted structural variables (y = x - lower)
//   [n, n + s)      slack / surplus variables
//   [n + s, total)  artificial variables (phase 1 only)
// One extra column stores the rhs. Row 0..m-1 are constraints; the
// objective is kept in a separate vector with a scalar for its value.
class Tableau {
 public:
  Tableau(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), a_(rows * (cols + 1), 0.0) {}

  double& At(size_t r, size_t c) { return a_[r * (cols_ + 1) + c]; }
  double At(size_t r, size_t c) const { return a_[r * (cols_ + 1) + c]; }
  double& Rhs(size_t r) { return a_[r * (cols_ + 1) + cols_]; }
  double Rhs(size_t r) const { return a_[r * (cols_ + 1) + cols_]; }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }

  /// Gauss-Jordan pivot on (pr, pc): scales the pivot row to make the pivot
  /// 1 and eliminates column pc from every other row and from `obj`.
  void Pivot(size_t pr, size_t pc, std::vector<double>* obj,
             double* obj_value) {
    const double piv = At(pr, pc);
    const double inv = 1.0 / piv;
    for (size_t c = 0; c <= cols_; ++c) a_[pr * (cols_ + 1) + c] *= inv;
    for (size_t r = 0; r < rows_; ++r) {
      if (r == pr) continue;
      const double f = At(r, pc);
      if (f == 0.0) continue;
      for (size_t c = 0; c <= cols_; ++c)
        a_[r * (cols_ + 1) + c] -= f * a_[pr * (cols_ + 1) + c];
      At(r, pc) = 0.0;  // clamp rounding
    }
    const double f = (*obj)[pc];
    if (f != 0.0) {
      // Identity z = obj_value + sum(obj[c] * x_c); substituting the scaled
      // pivot row x_pc = Rhs(pr) - sum A(pr,c) x_c keeps it valid.
      for (size_t c = 0; c < cols_; ++c) (*obj)[c] -= f * At(pr, c);
      *obj_value += f * Rhs(pr);
      (*obj)[pc] = 0.0;
    }
  }

 private:
  size_t rows_, cols_;
  std::vector<double> a_;
};

// Runs simplex iterations to maximize. `obj` holds reduced costs (objective
// coefficients expressed in the current basis, i.e. already eliminated for
// basic columns). Returns kOptimal, kUnbounded, or kTimeLimit.
SolveStatus Iterate(Tableau* t, std::vector<double>* obj, double* obj_value,
                    std::vector<size_t>* basis, size_t usable_cols,
                    const SimplexOptions& opt) {
  const size_t m = t->rows();
  int iters = 0;
  // After this many Dantzig iterations, switch to Bland's rule, which is
  // slower but provably cycle-free.
  const int bland_after = opt.max_iterations / 2;
  for (;;) {
    if (++iters > opt.max_iterations) return SolveStatus::kTimeLimit;
    const bool bland = iters > bland_after;

    // Entering column: positive reduced cost (we maximize).
    size_t enter = usable_cols;
    double best = opt.tol;
    for (size_t c = 0; c < usable_cols; ++c) {
      const double rc = (*obj)[c];
      if (rc > best) {
        enter = c;
        if (bland) break;  // first eligible
        best = rc;
      } else if (bland && rc > opt.tol) {
        enter = c;
        break;
      }
    }
    if (enter == usable_cols) return SolveStatus::kOptimal;

    // Ratio test: leaving row minimizes rhs / a over positive a.
    size_t leave = m;
    double best_ratio = 0.0;
    for (size_t r = 0; r < m; ++r) {
      const double a = t->At(r, enter);
      if (a > opt.tol) {
        const double ratio = t->Rhs(r) / a;
        if (leave == m || ratio < best_ratio - opt.tol ||
            (bland && std::abs(ratio - best_ratio) <= opt.tol &&
             (*basis)[r] < (*basis)[leave])) {
          leave = r;
          best_ratio = ratio;
        }
      }
    }
    if (leave == m) return SolveStatus::kUnbounded;

    t->Pivot(leave, enter, obj, obj_value);
    (*basis)[leave] = enter;
  }
}

}  // namespace

LpSolution SolveLpRelaxation(const LinearProgram& lp, Sense sense,
                             const SimplexOptions& opt) {
  LpSolution out;
  const size_t n = lp.num_vars();

  // This implementation requires finite lower bounds (always true for the
  // binary programs LICM emits). Unexpected inputs get a conservative
  // "don't know" answer rather than a wrong one.
  for (const auto& v : lp.vars()) {
    if (!std::isfinite(v.lower)) {
      out.status = SolveStatus::kTimeLimit;
      return out;
    }
    if (v.lower > v.upper) {
      out.status = SolveStatus::kInfeasible;
      return out;
    }
  }

  // Build the row set in shifted space y = x - lower, adding upper-bound
  // rows for finite upper bounds.
  struct BuildRow {
    std::vector<Term> terms;
    RowOp op;
    double rhs;
  };
  std::vector<BuildRow> rows;
  rows.reserve(lp.num_rows() + n);
  for (const Row& r : lp.rows()) {
    BuildRow br{r.terms, r.op, r.rhs};
    for (const Term& t : r.terms) br.rhs -= t.coef * lp.vars()[t.var].lower;
    // An empty row is a pure feasibility test.
    if (br.terms.empty()) {
      bool ok_row = true;
      switch (br.op) {
        case RowOp::kLe: ok_row = 0.0 <= br.rhs + opt.tol; break;
        case RowOp::kGe: ok_row = 0.0 >= br.rhs - opt.tol; break;
        case RowOp::kEq: ok_row = std::abs(br.rhs) <= opt.tol; break;
      }
      if (!ok_row) {
        out.status = SolveStatus::kInfeasible;
        return out;
      }
      continue;
    }
    rows.push_back(std::move(br));
  }
  for (VarId v = 0; v < n; ++v) {
    const auto& def = lp.vars()[v];
    if (std::isfinite(def.upper)) {
      rows.push_back(
          BuildRow{{Term{v, 1.0}}, RowOp::kLe, def.upper - def.lower});
    }
  }

  const size_t m = rows.size();
  // Count slacks (one per inequality) and normalize so rhs >= 0.
  size_t num_slack = 0;
  for (auto& br : rows) {
    if (br.rhs < 0.0) {
      for (auto& t : br.terms) t.coef = -t.coef;
      br.rhs = -br.rhs;
      if (br.op == RowOp::kLe) br.op = RowOp::kGe;
      else if (br.op == RowOp::kGe) br.op = RowOp::kLe;
    }
    if (br.op != RowOp::kEq) ++num_slack;
  }
  // Artificials: needed for kGe and kEq rows (no natural basic column).
  size_t num_art = 0;
  for (const auto& br : rows)
    if (br.op != RowOp::kLe) ++num_art;

  const size_t total_cols = n + num_slack + num_art;
  if (m * (total_cols + 1) > opt.max_tableau_cells) {
    out.status = SolveStatus::kTimeLimit;
    return out;
  }

  Tableau t(m, total_cols);
  std::vector<size_t> basis(m);
  std::vector<double> phase1_obj(total_cols, 0.0);
  double phase1_value = 0.0;

  size_t slack_at = n, art_at = n + num_slack;
  for (size_t r = 0; r < m; ++r) {
    for (const Term& term : rows[r].terms) t.At(r, term.var) = term.coef;
    t.Rhs(r) = rows[r].rhs;
    switch (rows[r].op) {
      case RowOp::kLe:
        t.At(r, slack_at) = 1.0;
        basis[r] = slack_at++;
        break;
      case RowOp::kGe:
        t.At(r, slack_at) = -1.0;
        ++slack_at;
        t.At(r, art_at) = 1.0;
        basis[r] = art_at++;
        break;
      case RowOp::kEq:
        t.At(r, art_at) = 1.0;
        basis[r] = art_at++;
        break;
    }
  }

  if (num_art > 0) {
    // Phase 1: maximize -(sum of artificials). Express the objective in
    // terms of nonbasic columns by adding each artificial's row.
    for (size_t r = 0; r < m; ++r) {
      if (basis[r] >= n + num_slack) {
        for (size_t c = 0; c < total_cols; ++c)
          phase1_obj[c] += t.At(r, c);
        phase1_value += t.Rhs(r);
      }
    }
    // z1 = -sum(artificials) = -sum Rhs(r) + sum_c (sum_r A(r,c)) x_c once
    // the basic artificial columns are substituted out.
    for (size_t c = n + num_slack; c < total_cols; ++c) phase1_obj[c] = 0.0;
    phase1_value = -phase1_value;
    // Allow artificials to re-enter? No: restrict pivoting to real columns.
    SolveStatus st = Iterate(&t, &phase1_obj, &phase1_value, &basis,
                             n + num_slack, opt);
    if (st == SolveStatus::kTimeLimit) {
      out.status = st;
      return out;
    }
    // phase1_value now holds -(sum of artificials) at optimum.
    if (phase1_value < -1e-7) {
      out.status = SolveStatus::kInfeasible;
      return out;
    }
    // Drive any remaining basic artificials out (they must be at 0).
    for (size_t r = 0; r < m; ++r) {
      if (basis[r] >= n + num_slack) {
        size_t pc = total_cols;
        for (size_t c = 0; c < n + num_slack; ++c) {
          if (std::abs(t.At(r, c)) > opt.tol) {
            pc = c;
            break;
          }
        }
        if (pc < total_cols) {
          double dummy = 0.0;
          std::vector<double> no_obj(total_cols, 0.0);
          t.Pivot(r, pc, &no_obj, &dummy);
          basis[r] = pc;
        }
        // Else the row is all-zero over real columns: redundant, leave it.
      }
    }
  }

  // Phase 2: real objective over shifted variables. Shift constant:
  // c.x = c.y + c.lower.
  const double sign = (sense == Sense::kMaximize) ? 1.0 : -1.0;
  std::vector<double> obj(total_cols, 0.0);
  double obj_value = lp.objective_constant();
  for (VarId v = 0; v < n; ++v) {
    const double c = sign * lp.objective_coef(v);
    obj[v] = c;
    obj_value += c * lp.vars()[v].lower;
  }
  // Eliminate basic columns from the objective row.
  for (size_t r = 0; r < m; ++r) {
    const size_t b = basis[r];
    if (b < total_cols && obj[b] != 0.0) {
      const double f = obj[b];
      for (size_t c = 0; c < total_cols; ++c) obj[c] -= f * t.At(r, c);
      obj_value += f * t.Rhs(r);
      obj[b] = 0.0;
    }
  }
  SolveStatus st =
      Iterate(&t, &obj, &obj_value, &basis, n + num_slack, opt);
  if (st != SolveStatus::kOptimal) {
    out.status = st;
    return out;
  }

  out.status = SolveStatus::kOptimal;
  out.values.assign(n, 0.0);
  for (size_t r = 0; r < m; ++r) {
    if (basis[r] < n) out.values[basis[r]] = t.Rhs(r);
  }
  for (VarId v = 0; v < n; ++v) {
    out.values[v] += lp.vars()[v].lower;
    // Clamp tiny numerical drift back into the box.
    out.values[v] =
        std::clamp(out.values[v], lp.vars()[v].lower, lp.vars()[v].upper);
  }
  out.objective = lp.EvalObjective(out.values);
  return out;
}

namespace {

// Feasibility tolerance for primal bound violations in the dual engine.
// Looser than SimplexOptions::tol (which governs pivot eligibility) to
// match the 1e-7 feasibility tolerance of the primal engine above.
constexpr double kFeasTol = 1e-7;
// Minimum |pivot| accepted by the ratio test.
constexpr double kPivEps = 1e-7;
// Entries below this are treated as structural zeros when deciding whether
// a row certifies infeasibility.
constexpr double kZeroEps = 1e-9;

}  // namespace

bool IncrementalLp::Suitable(const LinearProgram& lp,
                             const SimplexOptions& options) {
  const size_t n = lp.num_vars();
  if (n == 0) return false;
  for (const auto& v : lp.vars()) {
    if (!std::isfinite(v.lower) || !std::isfinite(v.upper)) return false;
  }
  const size_t m = lp.num_rows();
  return m * (n + m) <= options.max_tableau_cells;
}

IncrementalLp::IncrementalLp(const LinearProgram& lp,
                             const SimplexOptions& options)
    : lp_(lp), opt_(options) {
  num_vars_ = lp.num_vars();
  num_rows_ = lp.num_rows();
  num_cols_ = num_vars_ + num_rows_;

  status_.assign(num_cols_, VarStatus::kAtLower);
  d_.assign(num_cols_, 0.0);
  obj_.assign(num_cols_, 0.0);
  lb_.assign(num_cols_, 0.0);
  ub_.assign(num_cols_, 0.0);
  for (VarId v = 0; v < num_vars_; ++v) {
    obj_[v] = lp.objective_coef(v);
    lb_[v] = lp.vars()[v].lower;
    ub_[v] = lp.vars()[v].upper;
  }
  // Each row becomes an equality with a slack whose bounds encode the
  // row sense.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < num_rows_; ++r) {
    const RowOp op = lp.rows()[r].op;
    lb_[num_vars_ + r] = op == RowOp::kGe ? -kInf : 0.0;
    ub_[num_vars_ + r] = op == RowOp::kLe ? kInf : 0.0;
  }
  values_.assign(num_vars_, 0.0);
}

double IncrementalLp::NonbasicValue(size_t col) const {
  return status_[col] == VarStatus::kAtUpper ? ub_[col] : lb_[col];
}

void IncrementalLp::ColdBasis() {
  // All slacks basic; each structural rests at its objective-preferred
  // bound so the starting reduced costs are dual feasible by construction.
  for (VarId v = 0; v < num_vars_; ++v) {
    status_[v] = obj_[v] > 0.0 ? VarStatus::kAtUpper : VarStatus::kAtLower;
  }
  for (size_t r = 0; r < num_rows_; ++r) {
    status_[num_vars_ + r] = VarStatus::kBasic;
  }
  Refactorize();  // identity basis: cannot be singular
  factorized_ = true;
}

bool IncrementalLp::Refactorize() {
  ++stats_.refactorizations;
  pivots_since_refactor_ = 0;

  tab_.assign(num_rows_, std::vector<double>(num_cols_, 0.0));
  std::vector<double> rhs(num_rows_, 0.0);
  for (size_t r = 0; r < num_rows_; ++r) {
    for (const Term& t : lp_.rows()[r].terms) tab_[r][t.var] += t.coef;
    tab_[r][num_vars_ + r] = 1.0;
    rhs[r] = lp_.rows()[r].rhs;
  }

  // Gauss-Jordan over the basic columns with row pivoting.
  std::vector<char> row_done(num_rows_, 0);
  basis_.assign(num_rows_, num_cols_);
  size_t assigned = 0;
  for (size_t c = 0; c < num_cols_; ++c) {
    if (status_[c] != VarStatus::kBasic) continue;
    size_t pr = num_rows_;
    double best = 1e-9;
    for (size_t r = 0; r < num_rows_; ++r) {
      if (row_done[r]) continue;
      const double a = std::abs(tab_[r][c]);
      if (a > best) {
        best = a;
        pr = r;
      }
    }
    if (pr == num_rows_) return false;  // singular
    const double inv = 1.0 / tab_[pr][c];
    for (size_t j = 0; j < num_cols_; ++j) tab_[pr][j] *= inv;
    rhs[pr] *= inv;
    tab_[pr][c] = 1.0;
    for (size_t r = 0; r < num_rows_; ++r) {
      if (r == pr) continue;
      const double f = tab_[r][c];
      if (f == 0.0) continue;
      const std::vector<double>& prow = tab_[pr];
      std::vector<double>& rrow = tab_[r];
      for (size_t j = 0; j < num_cols_; ++j) rrow[j] -= f * prow[j];
      rhs[r] -= f * rhs[pr];
      rrow[c] = 0.0;
    }
    row_done[pr] = 1;
    basis_[pr] = c;
    ++assigned;
  }
  if (assigned != num_rows_) return false;

  // beta = B^-1 b - sum over nonbasic j of column_j * value_j.
  beta_ = rhs;
  for (size_t j = 0; j < num_cols_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    const double x = NonbasicValue(j);
    if (x == 0.0) continue;
    for (size_t r = 0; r < num_rows_; ++r) {
      const double a = tab_[r][j];
      if (a != 0.0) beta_[r] -= a * x;
    }
  }

  // Reduced costs d = c - c_B^T B^-1 A.
  d_.assign(num_cols_, 0.0);
  for (size_t j = 0; j < num_cols_; ++j) d_[j] = obj_[j];
  for (size_t r = 0; r < num_rows_; ++r) {
    const double cb = obj_[basis_[r]];
    if (cb == 0.0) continue;
    const std::vector<double>& rrow = tab_[r];
    for (size_t j = 0; j < num_cols_; ++j) d_[j] -= cb * rrow[j];
  }
  for (size_t r = 0; r < num_rows_; ++r) d_[basis_[r]] = 0.0;
  return true;
}

void IncrementalLp::SyncBounds(const std::vector<double>& lower,
                               const std::vector<double>& upper) {
  for (VarId v = 0; v < num_vars_; ++v) {
    const double nl = lower[v], nu = upper[v];
    if (nl == lb_[v] && nu == ub_[v]) continue;
    if (status_[v] != VarStatus::kBasic) {
      // The resting value moves with its bound; shift beta by the delta
      // times the variable's tableau column.
      const double old = NonbasicValue(v);
      const double now = status_[v] == VarStatus::kAtUpper ? nu : nl;
      const double delta = now - old;
      if (delta != 0.0) {
        for (size_t r = 0; r < num_rows_; ++r) {
          const double a = tab_[r][v];
          if (a != 0.0) beta_[r] -= a * delta;
        }
      }
    }
    lb_[v] = nl;
    ub_[v] = nu;
  }
}

void IncrementalLp::Pivot(size_t row, size_t enter_col, double theta) {
  const size_t leave_col = basis_[row];
  std::vector<double>& prow = tab_[row];
  const double alpha = prow[enter_col];

  // Primal update: entering variable moves by t so the leaving variable
  // lands exactly on its violated bound.
  const bool to_lower = beta_[row] < lb_[leave_col];
  const double target = to_lower ? lb_[leave_col] : ub_[leave_col];
  const double t = (beta_[row] - target) / alpha;
  const double enter_val = NonbasicValue(enter_col) + t;
  for (size_t r = 0; r < num_rows_; ++r) {
    if (r == row) continue;
    const double a = tab_[r][enter_col];
    if (a != 0.0) beta_[r] -= a * t;
  }
  beta_[row] = enter_val;

  // Dual update uses the unscaled pivot row.
  for (size_t j = 0; j < num_cols_; ++j) d_[j] -= theta * prow[j];
  d_[enter_col] = 0.0;

  // Eliminate the entering column everywhere else.
  const double inv = 1.0 / alpha;
  for (size_t j = 0; j < num_cols_; ++j) prow[j] *= inv;
  prow[enter_col] = 1.0;
  for (size_t r = 0; r < num_rows_; ++r) {
    if (r == row) continue;
    const double f = tab_[r][enter_col];
    if (f == 0.0) continue;
    std::vector<double>& rrow = tab_[r];
    for (size_t j = 0; j < num_cols_; ++j) rrow[j] -= f * prow[j];
    rrow[enter_col] = 0.0;
  }

  status_[enter_col] = VarStatus::kBasic;
  status_[leave_col] = to_lower ? VarStatus::kAtLower : VarStatus::kAtUpper;
  basis_[row] = enter_col;
  ++pivots_since_refactor_;
  ++stats_.pivots;
}

SolveStatus IncrementalLp::Solve(const std::vector<double>& lower,
                                 const std::vector<double>& upper) {
  ++stats_.solves;
  last_pivots_ = 0;
  for (VarId v = 0; v < num_vars_; ++v) {
    if (lower[v] > upper[v] + opt_.tol) return SolveStatus::kInfeasible;
  }

  if (!factorized_) {
    for (VarId v = 0; v < num_vars_; ++v) {
      lb_[v] = lower[v];
      ub_[v] = upper[v];
    }
    ColdBasis();
  } else {
    SyncBounds(lower, upper);
    if (pivots_since_refactor_ >= opt_.refactor_interval) {
      if (!Refactorize()) ColdBasis();
    }
  }

  const int bland_after = opt_.max_iterations / 2;
  bool retried_after_refactor = false;
  for (;;) {
    // Leaving row: largest primal bound violation among basic variables.
    size_t row = num_rows_;
    double worst = kFeasTol;
    for (size_t r = 0; r < num_rows_; ++r) {
      const size_t b = basis_[r];
      double viol = lb_[b] - beta_[r];
      const double over = beta_[r] - ub_[b];
      if (over > viol) viol = over;
      if (viol > worst) {
        worst = viol;
        row = r;
      }
    }
    if (row == num_rows_) break;  // primal feasible => optimal

    if (++last_pivots_ > opt_.max_iterations) {
      factorized_ = false;  // state is suspect; next Solve cold-starts
      return SolveStatus::kTimeLimit;
    }
    const bool bland = last_pivots_ > bland_after;

    const size_t leave_col = basis_[row];
    const bool to_lower = beta_[row] < lb_[leave_col];
    const std::vector<double>& prow = tab_[row];

    // Dual ratio test. When the leaving variable rises to its lower bound,
    // eligible entering columns are at-lower with negative row entry or
    // at-upper with positive entry (signs flip for the upper case); the
    // winner minimizes |d_j / alpha_j|, keeping reduced costs dual
    // feasible after the pivot.
    size_t enter = num_cols_;
    double best_score = 0.0, best_alpha = 0.0;
    bool any_sign_ok = false;
    for (size_t j = 0; j < num_cols_; ++j) {
      const VarStatus st = status_[j];
      if (st == VarStatus::kBasic) continue;
      const double a = prow[j];
      const bool sign_ok =
          to_lower ? (st == VarStatus::kAtLower ? a < -kZeroEps : a > kZeroEps)
                   : (st == VarStatus::kAtLower ? a > kZeroEps : a < -kZeroEps);
      if (!sign_ok) continue;
      any_sign_ok = true;
      if (std::abs(a) <= kPivEps) continue;
      double score = to_lower ? d_[j] / a : -(d_[j] / a);
      if (score < 0.0) score = 0.0;  // numerical dual infeasibility
      if (enter == num_cols_) {
        enter = j;
        best_score = score;
        best_alpha = std::abs(a);
        continue;
      }
      if (bland) continue;  // first eligible (smallest index) already kept
      if (score < best_score - opt_.tol ||
          (score < best_score + opt_.tol && std::abs(a) > best_alpha)) {
        enter = j;
        best_score = score;
        best_alpha = std::abs(a);
      }
    }

    if (enter == num_cols_) {
      // No usable pivot. A freshly refactorized row with no sign-correct
      // entry is a Farkas certificate; anything else is numerical doubt,
      // answered conservatively.
      if (pivots_since_refactor_ > 0 && !retried_after_refactor) {
        retried_after_refactor = true;
        if (!Refactorize()) ColdBasis();
        continue;
      }
      if (any_sign_ok) {
        factorized_ = false;
        return SolveStatus::kTimeLimit;
      }
      return SolveStatus::kInfeasible;
    }
    retried_after_refactor = false;

    const double theta = d_[enter] / prow[enter];
    Pivot(row, enter, theta);
  }

  // Extract the optimum.
  for (VarId v = 0; v < num_vars_; ++v) {
    if (status_[v] != VarStatus::kBasic) values_[v] = NonbasicValue(v);
  }
  for (size_t r = 0; r < num_rows_; ++r) {
    const size_t b = basis_[r];
    if (b < num_vars_) values_[b] = std::clamp(beta_[r], lb_[b], ub_[b]);
  }
  objective_ = lp_.objective_constant();
  for (VarId v = 0; v < num_vars_; ++v) objective_ += obj_[v] * values_[v];
  if (stats_.solves > 1 && last_pivots_ > stats_.max_resolve_pivots) {
    stats_.max_resolve_pivots = last_pivots_;
  }
  return SolveStatus::kOptimal;
}

LpBasis IncrementalLp::SaveBasis() const {
  LpBasis b;
  b.status = status_;
  return b;
}

void IncrementalLp::RestoreBasis(const LpBasis& basis) {
  if (basis.status.size() != num_cols_) {
    ColdBasis();
    return;
  }
  size_t basic = 0;
  for (VarStatus st : basis.status) basic += st == VarStatus::kBasic ? 1 : 0;
  if (basic != num_rows_) {
    ColdBasis();
    return;
  }
  status_ = basis.status;
  if (!Refactorize()) {
    ColdBasis();
    return;
  }
  factorized_ = true;
}

}  // namespace licm::solver
