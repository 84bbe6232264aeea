#include "solver/propagation.h"

#include <algorithm>
#include <cmath>

namespace licm::solver {

namespace {
constexpr double kTol = 1e-7;

// Rounds a derived bound for an integer variable, absorbing numerical fuzz.
double FloorTol(double x) { return std::floor(x + kTol); }
double CeilTol(double x) { return std::ceil(x - kTol); }
}  // namespace

Domains Domains::FromProgram(const LinearProgram& lp) {
  Domains d;
  d.lower.reserve(lp.num_vars());
  d.upper.reserve(lp.num_vars());
  for (const auto& v : lp.vars()) {
    d.lower.push_back(v.lower);
    d.upper.push_back(v.upper);
  }
  return d;
}

Propagator::Propagator(const LinearProgram& lp)
    : lp_(lp), var_row_begin_(lp.num_vars() + 1, 0) {
  const auto& rows = lp.rows();
  for (const Row& row : rows) {
    for (const Term& t : row.terms) ++var_row_begin_[t.var + 1];
  }
  for (size_t v = 0; v < lp.num_vars(); ++v) {
    var_row_begin_[v + 1] += var_row_begin_[v];
  }
  var_rows_.resize(var_row_begin_.back());
  std::vector<uint32_t> fill(var_row_begin_.begin(), var_row_begin_.end() - 1);
  for (uint32_t r = 0; r < rows.size(); ++r) {
    for (const Term& t : rows[r].terms) var_rows_[fill[t.var]++] = r;
  }
}

PropagateResult Propagate(const LinearProgram& lp, Domains* domains,
                          const std::vector<VarId>* touched) {
  return Propagator(lp).Run(domains, touched);
}

PropagateResult Propagator::Run(Domains* domains,
                                const std::vector<VarId>* touched,
                                BoundTrail* trail,
                                PropagationScratch* scratch) const {
  const LinearProgram& lp = lp_;
  const auto& rows = lp.rows();

  // Worklist: FIFO queue with an epoch-stamped membership test, so a
  // reused scratch needs no clearing between runs.
  PropagationScratch local;
  PropagationScratch& s = scratch != nullptr ? *scratch : local;
  if (s.stamp.size() != rows.size()) {
    s.stamp.assign(rows.size(), 0);
    s.epoch = 0;
  }
  if (++s.epoch == 0) {  // wraparound: old stamps could collide
    std::fill(s.stamp.begin(), s.stamp.end(), 0);
    s.epoch = 1;
  }
  s.queue.clear();
  size_t head = 0;
  auto enqueue_row = [&](uint32_t r) {
    if (s.stamp[r] != s.epoch) {
      s.stamp[r] = s.epoch;
      s.queue.push_back(r);
    }
  };

  if (touched == nullptr) {
    for (uint32_t r = 0; r < rows.size(); ++r) enqueue_row(r);
  } else {
    for (VarId v : *touched) {
      for (uint32_t r : RowsOf(v)) enqueue_row(r);
    }
  }

  auto enqueue_var = [&](VarId v) {
    for (uint32_t r : RowsOf(v)) enqueue_row(r);
  };

  while (head < s.queue.size()) {
    const uint32_t ri = s.queue[head++];
    s.stamp[ri] = 0;  // dequeued (epoch is never 0)
    const Row& row = rows[ri];

    // Treat the row as up to two one-sided constraints.
    const bool has_le = row.op != RowOp::kGe;  // sum <= rhs
    const bool has_ge = row.op != RowOp::kLe;  // sum >= rhs

    double min_act = 0.0, max_act = 0.0;
    for (const Term& t : row.terms) {
      if (t.coef > 0) {
        min_act += t.coef * domains->lower[t.var];
        max_act += t.coef * domains->upper[t.var];
      } else {
        min_act += t.coef * domains->upper[t.var];
        max_act += t.coef * domains->lower[t.var];
      }
    }
    if (has_le && min_act > row.rhs + kTol) return PropagateResult::kInfeasible;
    if (has_ge && max_act < row.rhs - kTol) return PropagateResult::kInfeasible;

    for (const Term& t : row.terms) {
      const VarId v = t.var;
      const double a = t.coef;
      double lo = domains->lower[v], hi = domains->upper[v];
      const bool is_int = lp.vars()[v].is_integer;

      if (has_le) {
        // a*x <= rhs - (min activity of the other terms)
        const double resid =
            min_act - (a > 0 ? a * lo : a * hi);
        const double room = row.rhs - resid;
        if (a > 0) {
          double nb = room / a;
          if (is_int) nb = FloorTol(nb);
          if (nb < hi - kTol) hi = nb;
        } else {
          double nb = room / a;
          if (is_int) nb = CeilTol(nb);
          if (nb > lo + kTol) lo = nb;
        }
      }
      if (has_ge) {
        // a*x >= rhs - (max activity of the other terms)
        const double resid =
            max_act - (a > 0 ? a * hi : a * lo);
        const double need = row.rhs - resid;
        if (a > 0) {
          double nb = need / a;
          if (is_int) nb = CeilTol(nb);
          if (nb > lo + kTol) lo = nb;
        } else {
          double nb = need / a;
          if (is_int) nb = FloorTol(nb);
          if (nb < hi - kTol) hi = nb;
        }
      }

      if (lo > hi + kTol) return PropagateResult::kInfeasible;
      if (lo > domains->lower[v] + kTol || hi < domains->upper[v] - kTol) {
        if (trail != nullptr) trail->Record(v, *domains);
        domains->lower[v] = lo;
        domains->upper[v] = std::max(lo, hi);
        enqueue_var(v);
        // Bounds moved: the activity snapshot for this row is stale, so
        // requeue it as well rather than continuing with stale values.
        enqueue_row(ri);
        break;
      }
    }
  }
  return PropagateResult::kFixpoint;
}

}  // namespace licm::solver
