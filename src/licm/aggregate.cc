#include "licm/aggregate.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <vector>

#include "common/telemetry.h"
#include "solver/scheduler.h"
#include "solver/solve_cache.h"

namespace licm {

Objective CountObjective(const LicmRelation& relation) {
  Objective obj;
  for (size_t i = 0; i < relation.size(); ++i) {
    const Ext e = relation.ext(i);
    if (e.certain()) {
      obj.constant += 1.0;
    } else {
      obj.coefs[e.var()] += 1.0;
    }
  }
  return obj;
}

Result<Objective> SumObjective(const LicmRelation& relation,
                               const std::string& column) {
  LICM_ASSIGN_OR_RETURN(size_t idx, relation.schema().IndexOf(column));
  const rel::ValueType t = relation.schema().column(idx).type;
  if (t == rel::ValueType::kString) {
    return Status::InvalidArgument("SUM over string column '" + column + "'");
  }
  Objective obj;
  for (size_t i = 0; i < relation.size(); ++i) {
    const rel::Value& v = relation.tuple(i)[idx];
    const double x = t == rel::ValueType::kInt
                         ? static_cast<double>(std::get<int64_t>(v))
                         : std::get<double>(v);
    const Ext e = relation.ext(i);
    if (e.certain()) {
      obj.constant += x;
    } else {
      obj.coefs[e.var()] += x;
    }
  }
  return obj;
}

namespace {

solver::RowOp ToRowOp(ConstraintOp op) {
  switch (op) {
    case ConstraintOp::kLe: return solver::RowOp::kLe;
    case ConstraintOp::kGe: return solver::RowOp::kGe;
    case ConstraintOp::kEq: return solver::RowOp::kEq;
  }
  return solver::RowOp::kEq;
}

// Feasibility of the constraints pruning dropped. The dropped rows share no
// variable with the live set (any shared variable would have made them
// live), so their satisfiability is independent of the kept LP — and
// pruning's soundness caveat (prune.h) is exactly that this remainder
// admits a world.
//
// Returns Infeasible when no world satisfies the remainder, OK otherwise;
// `*exact` is cleared when the probe hit a limit and the answer is unknown.
Status CheckPrunedRemainder(const ConstraintSet& constraints,
                            const PruneResult& pruned,
                            const solver::MipOptions& mip, bool* exact) {
  const size_t num_vars = pruned.is_live.size();
  std::vector<const LinearConstraint*> dropped;
  for (const LinearConstraint& c : constraints.constraints()) {
    bool live = false;
    for (const auto& t : c.terms) live |= pruned.is_live[t.var] != 0;
    if (live) continue;
    if (c.terms.empty()) {  // constant row: evaluate 0 op rhs directly
      const bool ok = c.op == ConstraintOp::kLe   ? 0 <= c.rhs
                      : c.op == ConstraintOp::kGe ? 0 >= c.rhs
                                                  : c.rhs == 0;
      if (!ok) {
        return Status::Infeasible(
            "LICM constraint set admits no possible world");
      }
      continue;
    }
    dropped.push_back(&c);
  }
  if (dropped.empty()) return Status::OK();

  // Witness fast path: LICM remainders are overwhelmingly disjoint
  // cardinality blocks ("between lo and hi of this group set"), where
  // raising the minimum number of variables per >=/== row yields a
  // possible world. Build that assignment greedily, then verify it against
  // EVERY dropped row exactly (integer arithmetic), so a verified witness
  // proves feasibility outright and skips the solver (whose
  // canonicalization pass dominates this probe on monolithic-component
  // workloads). Verification failure falls through to the exact
  // zero-objective solve, so the heuristic cannot affect soundness in
  // either direction.
  std::vector<uint8_t> x(num_vars, 0);
  for (const LinearConstraint* c : dropped) {
    if (c->op == ConstraintOp::kLe) continue;
    int64_t act = 0;
    for (const auto& t : c->terms) act += t.coef * x[t.var];
    for (const auto& t : c->terms) {
      if (act >= c->rhs) break;
      if (t.coef > 0 && x[t.var] == 0) {
        x[t.var] = 1;
        act += t.coef;
      }
    }
  }
  const bool witness_ok =
      std::all_of(dropped.begin(), dropped.end(),
                  [&x](const LinearConstraint* c) { return c->Satisfied(x); });
  if (witness_ok) return Status::OK();

  solver::LinearProgram lp;
  // Dense BVar -> VarId map: ids are contiguous and small, and the hash
  // lookups of a map dominate construction time on large remainders.
  constexpr solver::VarId kUnmapped =
      std::numeric_limits<solver::VarId>::max();
  std::vector<solver::VarId> to_lp(num_vars, kUnmapped);
  for (const LinearConstraint* c : dropped) {
    solver::Row row;
    row.terms.reserve(c->terms.size());
    for (const auto& t : c->terms) {
      if (to_lp[t.var] == kUnmapped) to_lp[t.var] = lp.AddBinary();
      row.terms.push_back({to_lp[t.var], static_cast<double>(t.coef)});
    }
    row.op = ToRowOp(c->op);
    row.rhs = static_cast<double>(c->rhs);
    lp.AddRow(std::move(row));
  }
  const solver::MipResult r =
      solver::MipSolver(mip).Solve(lp, solver::Sense::kMaximize);
  if (r.status == solver::SolveStatus::kInfeasible) {
    return Status::Infeasible("LICM constraint set admits no possible world");
  }
  if (r.status != solver::SolveStatus::kOptimal) *exact = false;
  return Status::OK();
}

}  // namespace

Result<AggregateBounds> ComputeBounds(const Objective& objective,
                                      const ConstraintSet& constraints,
                                      uint32_t num_vars,
                                      const BoundsOptions& options) {
  telemetry::ScopedSpan bip_span("licm", "build_bip");
  // Determine the variable/constraint subsystem to hand to the solver.
  std::vector<BVar> seeds;
  seeds.reserve(objective.coefs.size());
  for (const auto& [v, c] : objective.coefs) seeds.push_back(v);

  PruneResult pruned;
  bool remainder_exact = true;
  if (options.prune) {
    pruned = Prune(constraints, seeds, num_vars);
    if (pruned.kept.size() < constraints.size()) {
      LICM_RETURN_NOT_OK(CheckPrunedRemainder(constraints, pruned,
                                              options.mip, &remainder_exact));
    }
  } else {
    // Identity "prune": everything stays live.
    pruned.kept.resize(constraints.size());
    std::iota(pruned.kept.begin(), pruned.kept.end(), 0u);
    pruned.live.resize(num_vars);
    std::iota(pruned.live.begin(), pruned.live.end(), 0u);
    pruned.is_live.assign(num_vars, 1);
    pruned.stats = {num_vars, num_vars, constraints.size(),
                    constraints.size()};
  }

  // Build the BIP over live variables, in ascending id order. BVar ->
  // VarId uses a dense vector: ids are contiguous, and at Query-3 scale
  // (hundreds of thousands of terms) map hashing dominates construction
  // otherwise.
  solver::LinearProgram lp;
  constexpr solver::VarId kUnmapped =
      std::numeric_limits<solver::VarId>::max();
  std::vector<solver::VarId> to_lp(num_vars, kUnmapped);
  for (BVar v : pruned.live) to_lp[v] = lp.AddBinary();
  const auto& cs = constraints.constraints();
  for (uint32_t k : pruned.kept) {
    const LinearConstraint& c = cs[k];
    solver::Row row;
    row.terms.reserve(c.terms.size());
    for (const auto& t : c.terms) {
      row.terms.push_back(
          {to_lp[t.var], static_cast<double>(t.coef)});
    }
    row.op = ToRowOp(c.op);
    row.rhs = static_cast<double>(c.rhs);
    lp.AddRow(std::move(row));
  }
  for (const auto& [v, coef] : objective.coefs) {
    lp.SetObjectiveCoef(to_lp[v], coef);
  }
  lp.AddObjectiveConstant(objective.constant);

  bip_span.AddArg("vars", static_cast<double>(lp.num_vars()));
  bip_span.AddArg("rows", static_cast<double>(lp.num_rows()));
  bip_span.End();

  // One shared pass: presolve and decomposition run once, and every
  // component is solved for both senses through one batch (thread pool and
  // solve cache shared; isomorphic group components deduplicated).
  const solver::MipSolver solver(options.mip);
  solver::MinMaxMipResult r = solver.SolveMinMax(lp);

  AggregateBounds out;
  out.prune_stats = pruned.stats;
  out.stats = r.stats;

  auto to_side = [&](const solver::MipResult& side_result,
                     BoundSide* side) -> Status {
    switch (side_result.status) {
      case solver::SolveStatus::kInfeasible:
        return Status::Infeasible(
            "LICM constraint set admits no possible world");
      case solver::SolveStatus::kUnbounded:
        return Status::Unbounded("aggregate objective unbounded (bug: "
                                 "binary programs are always bounded)");
      case solver::SolveStatus::kOptimal:
        side->exact = true;
        break;
      case solver::SolveStatus::kTimeLimit:
        side->exact = false;
        break;
    }
    side->proved = side_result.best_bound;
    side->has_world = side_result.has_solution;
    side->value = side_result.has_solution ? side_result.objective
                                           : side_result.best_bound;
    if (side_result.has_solution) {
      for (BVar v : pruned.live) {
        side->world.emplace(
            v, static_cast<uint8_t>(
                   std::lround(side_result.solution[to_lp.at(v)])));
      }
    }
    return Status::OK();
  };

  LICM_RETURN_NOT_OK(to_side(r.min, &out.min));
  LICM_RETURN_NOT_OK(to_side(r.max, &out.max));
  if (!remainder_exact) {
    // The dropped remainder's feasibility is unresolved, so the bounds are
    // valid for a superset of the worlds and cannot be claimed exact.
    out.min.exact = false;
    out.max.exact = false;
  }
  return out;
}

namespace {

// Feasibility of `constraints` + `extras`: kFixpoint-style tri-state.
enum class Feas { kYes, kNo, kUnknown };

// Shared machinery for the MIN/MAX case analysis: a sequence of
// feasibility probes against the same base constraint set, each with a
// couple of extra rows. The constraint graph is decomposed into connected
// components once; every probe then solves only the components its extra
// rows touch (the transitive region Prune() would have kept), instead of
// re-copying and re-pruning the whole constraint set per distinct value.
// All probes share one solve cache, so a probe whose touched region is
// isomorphic to an earlier one (the common case across values under group
// anonymization) is answered without a search.
class FeasibilityProber {
 public:
  FeasibilityProber(const ConstraintSet& constraints, uint32_t num_vars,
                    const BoundsOptions& options)
      : constraints_(constraints), num_vars_(num_vars), options_(options) {
    mip_ = options.mip;
    if (mip_.use_cache && mip_.cache == nullptr) mip_.cache = &cache_;
    // Share one thread pool and one wall-clock budget across the whole
    // probe sequence: the time limit bounds the MIN/MAX case analysis as
    // a unit (sticky expiry stops every later probe immediately), and
    // worker threads are spawned once instead of per probe.
    if (mip_.deadline == nullptr) {
      deadline_ = Deadline::After(mip_.time_limit_seconds);
      mip_.deadline = &deadline_;
    }
    if (mip_.scheduler == nullptr &&
        solver::Scheduler::ResolveThreads(mip_.num_threads) > 1) {
      scheduler_.emplace(mip_.num_threads);
      mip_.scheduler = &*scheduler_;
    }

    // Connected components of the constraint graph (vars connected when
    // they share a constraint), computed once for the probe sequence.
    parent_.resize(num_vars);
    for (BVar v = 0; v < num_vars; ++v) parent_[v] = v;
    const auto& rows = constraints_.constraints();
    for (const LinearConstraint& c : rows) {
      for (size_t i = 1; i < c.terms.size(); ++i) {
        Union(c.terms[0].var, c.terms[i].var);
      }
    }
    for (size_t k = 0; k < rows.size(); ++k) {
      if (rows[k].terms.empty()) continue;
      rows_of_root_[Find(rows[k].terms[0].var)].push_back(k);
    }
  }

  /// Feasibility of the base constraint set alone (every component, no
  /// pruning) — the global "does any world exist" check. Solved once and
  /// memoized.
  Feas CheckBase() {
    if (!base_checked_) {
      std::vector<size_t> all(constraints_.constraints().size());
      for (size_t k = 0; k < all.size(); ++k) all[k] = k;
      base_result_ = SolveFeasibility(all, {});
      base_checked_ = true;
    }
    return base_result_;
  }

  /// Feasibility of base + `extras`. With pruning enabled this solves only
  /// the components touched by the extras (exactly the region reachable
  /// from the extras' variables, matching the paper's pruning semantics);
  /// otherwise the full system is included.
  Feas Check(const std::vector<LinearConstraint>& extras) {
    std::vector<size_t> indices;
    if (!options_.prune) {
      indices.resize(constraints_.constraints().size());
      for (size_t k = 0; k < indices.size(); ++k) indices[k] = k;
    } else {
      std::vector<BVar> roots;
      for (const LinearConstraint& c : extras) {
        for (const auto& t : c.terms) roots.push_back(Find(t.var));
      }
      std::sort(roots.begin(), roots.end());
      roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
      for (BVar root : roots) {
        auto it = rows_of_root_.find(root);
        if (it == rows_of_root_.end()) continue;
        indices.insert(indices.end(), it->second.begin(), it->second.end());
      }
      std::sort(indices.begin(), indices.end());
    }
    return SolveFeasibility(indices, extras);
  }

  const solver::MipStats& stats() const { return stats_; }

 private:
  BVar Find(BVar x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void Union(BVar a, BVar b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[a] = b;
  }

  Feas SolveFeasibility(const std::vector<size_t>& indices,
                        const std::vector<LinearConstraint>& extras) {
    telemetry::ScopedSpan span("licm", "feasibility_probe");
    span.AddArg("probe", static_cast<double>(++probe_count_));
    span.AddArg("extra_rows", static_cast<double>(extras.size()));
    // Variables of the selected region; vars outside any constraint are
    // free and cannot affect feasibility.
    std::vector<BVar> vars;
    const auto& rows = constraints_.constraints();
    for (size_t k : indices) {
      for (const auto& t : rows[k].terms) vars.push_back(t.var);
    }
    for (const LinearConstraint& c : extras) {
      for (const auto& t : c.terms) vars.push_back(t.var);
    }
    std::sort(vars.begin(), vars.end());
    vars.erase(std::unique(vars.begin(), vars.end()), vars.end());

    solver::LinearProgram lp;
    std::unordered_map<BVar, solver::VarId> to_lp;
    to_lp.reserve(vars.size());
    for (BVar v : vars) to_lp.emplace(v, lp.AddBinary());
    auto add_row = [&](const LinearConstraint& c) {
      solver::Row row;
      row.terms.reserve(c.terms.size());
      for (const auto& t : c.terms) {
        row.terms.push_back({to_lp.at(t.var), static_cast<double>(t.coef)});
      }
      row.op = ToRowOp(c.op);
      row.rhs = static_cast<double>(c.rhs);
      lp.AddRow(std::move(row));
    };
    for (size_t k : indices) add_row(rows[k]);
    for (const LinearConstraint& c : extras) add_row(c);

    solver::MipResult r =
        solver::MipSolver(mip_).Solve(lp, solver::Sense::kMaximize);
    // Probes run one after another, so their walls are disjoint intervals
    // that must add up — MergeFrom alone would keep only the longest
    // probe (its max semantics target concurrent strands).
    const double wall_total = stats_.solve_seconds + r.stats.solve_seconds;
    stats_.MergeFrom(r.stats);
    stats_.solve_seconds = wall_total;
    switch (r.status) {
      case solver::SolveStatus::kOptimal: return Feas::kYes;
      case solver::SolveStatus::kInfeasible: return Feas::kNo;
      default: return Feas::kUnknown;
    }
  }

  const ConstraintSet& constraints_;
  const uint32_t num_vars_;
  const BoundsOptions& options_;
  solver::MipOptions mip_;
  solver::ComponentCache cache_;
  Deadline deadline_ = Deadline::Never();
  std::optional<solver::Scheduler> scheduler_;
  solver::MipStats stats_;
  std::vector<BVar> parent_;
  std::unordered_map<BVar, std::vector<size_t>> rows_of_root_;
  int64_t probe_count_ = 0;
  bool base_checked_ = false;
  Feas base_result_ = Feas::kUnknown;
};

double NumericAt(const LicmRelation& r, size_t row, size_t col) {
  const rel::Value& v = r.tuple(row)[col];
  return rel::TypeOf(v) == rel::ValueType::kInt
             ? static_cast<double>(std::get<int64_t>(v))
             : std::get<double>(v);
}

// Constraint "at least one of `vars` is present" / "none are present".
LinearConstraint AtLeastOne(const std::vector<BVar>& vars) {
  LinearConstraint c;
  for (BVar v : vars) c.terms.push_back({v, 1});
  c.op = ConstraintOp::kGe;
  c.rhs = 1;
  return c;
}
LinearConstraint None(const std::vector<BVar>& vars) {
  LinearConstraint c;
  for (BVar v : vars) c.terms.push_back({v, 1});
  c.op = ConstraintOp::kLe;
  c.rhs = 0;
  return c;
}

}  // namespace

Result<MinMaxBounds> ComputeMinMaxBounds(const LicmRelation& relation,
                                         const std::string& column,
                                         const ConstraintSet& constraints,
                                         uint32_t num_vars, bool is_max,
                                         const BoundsOptions& options) {
  LICM_ASSIGN_OR_RETURN(size_t col, relation.schema().IndexOf(column));
  if (relation.schema().column(col).type == rel::ValueType::kString) {
    return Status::InvalidArgument("MIN/MAX over string column '" + column +
                                   "'");
  }
  std::vector<double> vals;
  std::vector<Ext> exts;
  vals.reserve(relation.size());
  exts.reserve(relation.size());
  for (size_t i = 0; i < relation.size(); ++i) {
    vals.push_back(NumericAt(relation, i, col));
    exts.push_back(relation.ext(i));
  }
  return ComputeMinMaxBounds(vals, exts, constraints, num_vars, is_max,
                             options);
}

Result<MinMaxBounds> ComputeMinMaxBounds(const std::vector<double>& vals,
                                         const std::vector<Ext>& tuple_exts,
                                         const ConstraintSet& constraints,
                                         uint32_t num_vars, bool is_max,
                                         const BoundsOptions& options) {
  LICM_CHECK(vals.size() == tuple_exts.size());
  MinMaxBounds out;
  if (vals.empty()) {
    out.always_empty = true;
    out.may_be_empty = true;
    return out;
  }

  // Distinct values ascending, with the variables / certainty per value.
  std::map<double, std::pair<bool, std::vector<BVar>>> by_value;
  bool any_certain = false;
  for (size_t i = 0; i < vals.size(); ++i) {
    auto& entry = by_value[vals[i]];
    if (tuple_exts[i].certain()) {
      entry.first = true;
      any_certain = true;
    } else {
      entry.second.push_back(tuple_exts[i].var());
    }
  }
  std::vector<double> values;
  for (const auto& [v, e] : by_value) values.push_back(v);

  // All probes below share one constraint-graph decomposition and one
  // solve cache; each solves only the region its extra rows touch. That
  // pruning is blind to components none of the relation's variables reach,
  // so an infeasible one would let a pruned probe report a world that
  // cannot exist (and the extreme/tame scans contradict each other). Check
  // global feasibility once up front: the component solves land in the
  // shared cache, so later probes get them back for free.
  FeasibilityProber prober(constraints, num_vars, options);
  {
    Feas base = prober.CheckBase();
    if (base == Feas::kNo) {
      return Status::Infeasible(
          "LICM constraint set admits no possible world");
    }
    if (base == Feas::kUnknown) out.exact_lo = out.exact_hi = false;
  }

  // Emptiness: feasible to drop every tuple?
  if (any_certain) {
    out.may_be_empty = false;
  } else {
    std::vector<BVar> all_vars;
    for (const auto& [v, e] : by_value) {
      all_vars.insert(all_vars.end(), e.second.begin(), e.second.end());
    }
    Feas f = prober.Check({None(all_vars)});
    out.may_be_empty = f != Feas::kNo;
    if (f == Feas::kUnknown) out.exact_lo = out.exact_hi = false;
  }

  // For MIN, mirror the values so the MAX logic below applies unchanged.
  auto key = [&](double v) { return is_max ? v : -v; };
  std::sort(values.begin(), values.end(),
            [&](double a, double b) { return key(a) < key(b); });
  // values is now ascending in "goodness": the extreme side (hi for MAX,
  // lo for MIN) is the largest-key value that can be present.

  // Extreme side: scan from the best value down; the first value whose
  // tuple-set can be non-empty bounds the aggregate.
  double extreme = values.front();
  bool extreme_exact = true;
  bool extreme_found = false;
  for (auto it = values.rbegin(); it != values.rend(); ++it) {
    const auto& entry = by_value.at(*it);
    if (entry.first) {  // certain tuple: always present
      extreme = *it;
      extreme_found = true;
      break;
    }
    Feas f = prober.Check({AtLeastOne(entry.second)});
    if (f == Feas::kYes) {
      extreme = *it;
      extreme_found = true;
      break;
    }
    if (f == Feas::kUnknown) {
      extreme = *it;  // conservative outer bound
      extreme_exact = false;
      extreme_found = true;
      break;
    }
  }
  if (!extreme_found) {
    // No tuple can ever be present; the up-front base check already ruled
    // out a contradictory constraint system, so the relation is simply
    // empty in every world.
    out.always_empty = true;
    out.may_be_empty = true;
    out.stats = prober.stats();
    return out;
  }

  // Tame side: the smallest-key value v such that a world exists with all
  // better-than-v tuples absent and some tuple (value-key <= v) present.
  double tame = values.back();
  bool tame_exact = true;
  for (double v : values) {
    // Certain tuple better than v => infeasible immediately.
    bool certain_better = false;
    std::vector<BVar> better, not_better;
    bool tame_has_certain = false;
    for (const auto& [val, entry] : by_value) {
      if (key(val) > key(v)) {
        certain_better |= entry.first;
        better.insert(better.end(), entry.second.begin(),
                      entry.second.end());
      } else {
        tame_has_certain |= entry.first;
        not_better.insert(not_better.end(), entry.second.begin(),
                          entry.second.end());
      }
    }
    if (certain_better) continue;
    std::vector<LinearConstraint> extras;
    if (!better.empty()) extras.push_back(None(better));
    if (!tame_has_certain) {
      if (not_better.empty()) continue;
      extras.push_back(AtLeastOne(not_better));
    }
    Feas f = prober.Check(extras);
    if (f == Feas::kYes) {
      tame = v;
      break;
    }
    if (f == Feas::kUnknown) {
      tame = v;  // conservative outer bound
      tame_exact = false;
      break;
    }
  }

  if (is_max) {
    out.hi = extreme;
    out.exact_hi = out.exact_hi && extreme_exact;
    out.lo = tame;
    out.exact_lo = out.exact_lo && tame_exact;
  } else {
    out.lo = extreme;
    out.exact_lo = out.exact_lo && extreme_exact;
    out.hi = tame;
    out.exact_hi = out.exact_hi && tame_exact;
  }
  out.stats = prober.stats();
  LICM_CHECK(out.lo <= out.hi);
  return out;
}

}  // namespace licm
