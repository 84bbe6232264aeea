// Unit tests for the incremental dual simplex (warm-started node
// relaxations) and reduced-cost fixing.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "solver/linear_program.h"
#include "solver/mip_solver.h"
#include "solver/simplex.h"

namespace licm::solver {
namespace {

// Builds a random LP over binary boxes (continuous vars in [0,1], the
// regime IncrementalLp targets) with small integer data.
LinearProgram RandomBoxLp(uint64_t seed, int* out_n) {
  Rng rng(seed);
  const int n = 2 + static_cast<int>(rng.Uniform(5));  // 2..6 vars
  const int m = 1 + static_cast<int>(rng.Uniform(5));
  LinearProgram lp;
  for (int v = 0; v < n; ++v) {
    VarId id = lp.AddVariable(0, 1, false);
    lp.SetObjectiveCoef(id, static_cast<double>(rng.UniformInt(-3, 3)));
  }
  for (int r = 0; r < m; ++r) {
    Row row;
    for (int v = 0; v < n; ++v) {
      int64_t c = rng.UniformInt(-2, 2);
      if (c != 0) {
        row.terms.push_back(Term{static_cast<VarId>(v),
                                 static_cast<double>(c)});
      }
    }
    row.op = static_cast<RowOp>(rng.Uniform(3));
    row.rhs = static_cast<double>(rng.UniformInt(-1, 3));
    if (row.terms.empty()) continue;
    lp.AddRow(std::move(row));
  }
  *out_n = n;
  return lp;
}

// Dual simplex from the cold all-slack basis must agree with the primal
// two-phase engine on every random LP (optimal value, or both infeasible).
class IncrementalLpRandom : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalLpRandom, ColdSolveMatchesPrimalSimplex) {
  int n = 0;
  LinearProgram lp = RandomBoxLp(static_cast<uint64_t>(GetParam()), &n);
  ASSERT_TRUE(IncrementalLp::Suitable(lp, SimplexOptions{}));
  LpSolution ref = SolveLpRelaxation(lp, Sense::kMaximize);
  IncrementalLp inc(lp);
  std::vector<double> lo(n, 0.0), hi(n, 1.0);
  SolveStatus st = inc.Solve(lo, hi);
  ASSERT_EQ(st, ref.status);
  if (st == SolveStatus::kOptimal) {
    EXPECT_NEAR(inc.objective(), ref.objective, 1e-6);
    EXPECT_TRUE(lp.IsFeasible(inc.values(), 1e-6));
  }
}

// Warm re-solves under tightened bounds must match a cold primal solve of
// the equivalently-bounded program — the correctness core of the
// warm-started node relaxation.
TEST_P(IncrementalLpRandom, WarmResolveMatchesColdUnderBoundFlips) {
  int n = 0;
  LinearProgram lp = RandomBoxLp(static_cast<uint64_t>(GetParam()) + 1000, &n);
  IncrementalLp inc(lp);
  std::vector<double> lo(n, 0.0), hi(n, 1.0);
  (void)inc.Solve(lo, hi);  // establish a basis
  Rng rng(static_cast<uint64_t>(GetParam()) + 5000);
  for (int step = 0; step < 8; ++step) {
    // Randomly fix / unfix one variable, like a B&B descent with
    // backtracking.
    const int v = static_cast<int>(rng.Uniform(static_cast<uint64_t>(n)));
    switch (rng.Uniform(3)) {
      case 0: lo[v] = hi[v] = 0.0; break;
      case 1: lo[v] = hi[v] = 1.0; break;
      default: lo[v] = 0.0; hi[v] = 1.0; break;
    }
    LinearProgram bounded = lp;
    for (int u = 0; u < n; ++u) {
      bounded.mutable_vars()[u].lower = lo[u];
      bounded.mutable_vars()[u].upper = hi[u];
    }
    LpSolution ref = SolveLpRelaxation(bounded, Sense::kMaximize);
    SolveStatus st = inc.Solve(lo, hi);
    ASSERT_EQ(st, ref.status) << "seed " << GetParam() << " step " << step;
    if (st == SolveStatus::kOptimal) {
      EXPECT_NEAR(inc.objective(), ref.objective, 1e-6)
          << "seed " << GetParam() << " step " << step;
      for (int u = 0; u < n; ++u) {
        EXPECT_GE(inc.values()[u], lo[u] - 1e-6);
        EXPECT_LE(inc.values()[u], hi[u] + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalLpRandom, ::testing::Range(0, 60));

TEST(IncrementalLp, WarmResolveTakesFewPivots) {
  // max sum b_i st sum b_i <= 3 over 8 binaries: re-solving after fixing
  // one variable must cost far fewer pivots than the cold solve.
  LinearProgram lp;
  std::vector<Term> terms;
  for (int i = 0; i < 8; ++i) {
    VarId b = lp.AddVariable(0, 1, false);
    lp.SetObjectiveCoef(b, 1.0 + 0.01 * i);
    terms.push_back(Term{b, 1.0});
  }
  lp.AddRow(Row{terms, RowOp::kLe, 3});
  IncrementalLp inc(lp);
  std::vector<double> lo(8, 0.0), hi(8, 1.0);
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), 3.0 + 0.01 * (7 + 6 + 5), 1e-6);
  lo[7] = hi[7] = 0.0;  // exclude the best variable
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), 3.0 + 0.01 * (6 + 5 + 4), 1e-6);
  EXPECT_LE(inc.last_pivots(), 3);
  EXPECT_EQ(inc.stats().solves, 2);
}

TEST(IncrementalLp, DetectsInfeasibleBoundChange) {
  // b1 + b2 >= 1; fixing both to 0 must be detected as infeasible, and
  // relaxing them again must recover the optimum.
  LinearProgram lp;
  VarId a = lp.AddVariable(0, 1, false);
  VarId b = lp.AddVariable(0, 1, false);
  lp.SetObjectiveCoef(a, -1.0);
  lp.SetObjectiveCoef(b, -2.0);
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kGe, 1});
  IncrementalLp inc(lp);
  std::vector<double> lo{0, 0}, hi{1, 1};
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), -1.0, 1e-9);
  hi[0] = hi[1] = 0.0;
  EXPECT_EQ(inc.Solve(lo, hi), SolveStatus::kInfeasible);
  hi[0] = hi[1] = 1.0;
  ASSERT_EQ(inc.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), -1.0, 1e-9);
}

TEST(IncrementalLp, SaveRestoreBasisRoundTrips) {
  LinearProgram lp;
  std::vector<Term> terms;
  for (int i = 0; i < 5; ++i) {
    VarId v = lp.AddVariable(0, 1, false);
    lp.SetObjectiveCoef(v, static_cast<double>(i + 1));
    terms.push_back(Term{v, 1.0});
  }
  lp.AddRow(Row{terms, RowOp::kLe, 2});
  IncrementalLp donor(lp);
  std::vector<double> lo(5, 0.0), hi(5, 1.0);
  ASSERT_EQ(donor.Solve(lo, hi), SolveStatus::kOptimal);
  LpBasis basis = donor.SaveBasis();
  EXPECT_FALSE(basis.empty());

  IncrementalLp child(lp);
  child.RestoreBasis(basis);
  ASSERT_EQ(child.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(child.objective(), donor.objective(), 1e-9);
  // Restoring a mismatched snapshot must fall back to the cold basis, not
  // crash or corrupt state.
  LpBasis bogus;
  bogus.status.assign(3, VarStatus::kAtLower);
  child.RestoreBasis(bogus);
  ASSERT_EQ(child.Solve(lo, hi), SolveStatus::kOptimal);
  EXPECT_NEAR(child.objective(), donor.objective(), 1e-9);
}

TEST(IncrementalLp, ReducedCostSignsAtOptimum) {
  // max 3a - b with a non-binding row: optimum a=1, b=0, both nonbasic
  // (non-degenerate vertex). b at lower must have d <= 0, and lp_obj + d
  // must still bound every solution with b = 1 (best such scores 2).
  LinearProgram lp;
  VarId a = lp.AddVariable(0, 1, false);
  VarId b = lp.AddVariable(0, 1, false);
  lp.SetObjectiveCoef(a, 3.0);
  lp.SetObjectiveCoef(b, -1.0);
  lp.AddRow(Row{{{a, 1}, {b, 1}}, RowOp::kLe, 2});
  IncrementalLp inc(lp);
  ASSERT_EQ(inc.Solve({0, 0}, {1, 1}), SolveStatus::kOptimal);
  EXPECT_NEAR(inc.objective(), 3.0, 1e-9);
  ASSERT_EQ(inc.StatusOf(a), VarStatus::kAtUpper);
  EXPECT_GE(inc.ReducedCost(a), -1e-9);
  ASSERT_EQ(inc.StatusOf(b), VarStatus::kAtLower);
  EXPECT_LE(inc.ReducedCost(b), 1e-9);
  EXPECT_GE(inc.objective() + inc.ReducedCost(b) + 1e-6, 2.0);
}

// ---------------------------------------------------------------------------
// Reduced-cost fixing: end-to-end parity against brute-force enumeration.

struct BruteForce {
  bool feasible = false;
  double best = -kInfinity;
};

BruteForce Enumerate(const LinearProgram& lp) {
  BruteForce r;
  const int n = static_cast<int>(lp.num_vars());
  for (int mask = 0; mask < (1 << n); ++mask) {
    std::vector<double> x(n);
    for (int v = 0; v < n; ++v) x[v] = (mask >> v) & 1;
    if (!lp.IsFeasible(x)) continue;
    r.feasible = true;
    r.best = std::max(r.best, lp.EvalObjective(x));
  }
  return r;
}

LinearProgram RandomBinaryProgram(uint64_t seed) {
  Rng rng(seed);
  const int n = 3 + static_cast<int>(rng.Uniform(6));  // 3..8 binaries
  const int m = 2 + static_cast<int>(rng.Uniform(4));
  LinearProgram lp;
  for (int v = 0; v < n; ++v) {
    VarId id = lp.AddVariable(0, 1, true);
    lp.SetObjectiveCoef(id, static_cast<double>(rng.UniformInt(-4, 4)));
  }
  for (int r = 0; r < m; ++r) {
    Row row;
    for (int v = 0; v < n; ++v) {
      int64_t c = rng.UniformInt(-2, 2);
      if (c != 0) {
        row.terms.push_back(Term{static_cast<VarId>(v),
                                 static_cast<double>(c)});
      }
    }
    row.op = static_cast<RowOp>(rng.Uniform(3));
    row.rhs = static_cast<double>(rng.UniformInt(-1, 3));
    if (row.terms.empty()) continue;
    lp.AddRow(std::move(row));
  }
  return lp;
}

// With the node LP on (warm dual simplex plus RC fixing), the proved
// optimum must be bit-identical to brute-force enumeration — RC fixing may
// discard alternative optima but never the optimal *value*, and the
// returned witness must stay feasible + optimal.
class RcFixingParity : public ::testing::TestWithParam<int> {};

TEST_P(RcFixingParity, FeaturesOnMatchesEnumeration) {
  LinearProgram lp = RandomBinaryProgram(static_cast<uint64_t>(GetParam()));
  BruteForce ref = Enumerate(lp);
  MipOptions opt;
  opt.num_threads = 1;
  opt.use_lp_bound = true;
  MipResult res = MipSolver(opt).Solve(lp, Sense::kMaximize);
  if (!ref.feasible) {
    EXPECT_EQ(res.status, SolveStatus::kInfeasible);
    return;
  }
  ASSERT_EQ(res.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_EQ(res.objective, ref.best) << "seed " << GetParam();
  ASSERT_TRUE(res.has_solution);
  EXPECT_TRUE(lp.IsFeasible(res.solution));
  EXPECT_EQ(lp.EvalObjective(res.solution), ref.best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RcFixingParity, ::testing::Range(0, 80));

TEST(RcFixing, UniqueOptimumSurvives) {
  // max 5a + b + c st a + b + c <= 2: unique optimum (1,1,0)... not quite —
  // b and c tie. Break the tie: max 5a + 2b + c, unique optimum (1,1,0)
  // with value 7. RC fixing must never fix away any variable of the unique
  // optimal support.
  LinearProgram lp;
  VarId a = lp.AddVariable(0, 1, true);
  VarId b = lp.AddVariable(0, 1, true);
  VarId c = lp.AddVariable(0, 1, true);
  lp.SetObjectiveCoef(a, 5.0);
  lp.SetObjectiveCoef(b, 2.0);
  lp.SetObjectiveCoef(c, 1.0);
  lp.AddRow(Row{{{a, 1}, {b, 1}, {c, 1}}, RowOp::kLe, 2});
  MipOptions opt;
  opt.num_threads = 1;
  MipResult res = MipSolver(opt).Solve(lp, Sense::kMaximize);
  ASSERT_EQ(res.status, SolveStatus::kOptimal);
  EXPECT_EQ(res.objective, 7.0);
  ASSERT_TRUE(res.has_solution);
  EXPECT_EQ(res.solution[a], 1.0);
  EXPECT_EQ(res.solution[b], 1.0);
  EXPECT_EQ(res.solution[c], 0.0);
}

// The node LP must not change proved bounds: on vs off on random
// programs, both senses, exact double equality.
class FeatureParity : public ::testing::TestWithParam<int> {};

TEST_P(FeatureParity, OnOffBitIdenticalBounds) {
  LinearProgram lp =
      RandomBinaryProgram(static_cast<uint64_t>(GetParam()) + 300);
  MipOptions on;
  on.num_threads = 1;
  MipOptions off = on;
  off.use_lp_bound = false;
  MinMaxMipResult r_on = MipSolver(on).SolveMinMax(lp);
  MinMaxMipResult r_off = MipSolver(off).SolveMinMax(lp);
  ASSERT_EQ(r_on.max.status, r_off.max.status) << "seed " << GetParam();
  ASSERT_EQ(r_on.min.status, r_off.min.status) << "seed " << GetParam();
  if (r_on.max.status == SolveStatus::kOptimal) {
    EXPECT_EQ(r_on.max.objective, r_off.max.objective);
    EXPECT_EQ(r_on.min.objective, r_off.min.objective);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureParity, ::testing::Range(0, 60));

}  // namespace
}  // namespace licm::solver
