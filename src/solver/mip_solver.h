// Exact branch & bound solver for the binary integer programs LICM emits.
//
// Pipeline: presolve -> connected-component decomposition -> per-component
// depth-first branch & bound with activity bounds and bound propagation at
// every node. On components of at most 400 variables each search strand
// also keeps a warm dual simplex (simplex.h IncrementalLp) whose node
// relaxation bounds the subtree and whose reduced costs fix variables
// (reduced-cost fixing). Optima are *proved*, matching the paper's use of
// CPLEX; a time/node limit yields valid approximate bounds with a
// reported gap (the paper's Query-3 behaviour on bipartite data).
#ifndef LICM_SOLVER_MIP_SOLVER_H_
#define LICM_SOLVER_MIP_SOLVER_H_

#include <cstdint>
#include <vector>

#include "common/stopwatch.h"
#include "solver/linear_program.h"

namespace licm::solver {

class ComponentCache;
class IncumbentPool;
class Scheduler;

struct MipOptions {
  double time_limit_seconds = 300.0;
  bool use_presolve = true;
  bool use_decomposition = true;
  /// Node LP: on components of at most 400 variables, each search strand
  /// re-solves the node relaxation with a warm dual simplex from the
  /// previous node's basis, prunes on its bound, branches on its most
  /// fractional variable, and fixes variables by reduced cost against the
  /// incumbent. Off leaves activity, propagation and probing bounds only.
  bool use_lp_bound = true;
  /// Consult a canonical-form solve cache per connected component (see
  /// solve_cache.h): isomorphic components — the common case under
  /// k-anonymization, where every group of size k emits the same
  /// sub-program up to variable renaming — are solved once and answered by
  /// permutation thereafter.
  bool use_cache = true;
  /// Cache shared across solver calls. When null and use_cache is set,
  /// each Solve/SolveMinMax call uses a private per-call cache, which
  /// still dedupes isomorphic components within the call.
  ComponentCache* cache = nullptr;
  /// Components with more variables than this bypass the cache: the cache
  /// targets the small per-group components k-anonymization emits by the
  /// thousand, while a query that couples everything into one big blob
  /// (e.g. through a join) produces a unique component whose fingerprint
  /// would cost more than it could ever save.
  size_t cache_max_component_vars = 512;
  /// Singleton-consistency probing at each component root.
  bool use_probing = true;
  /// Per-node probing of objective variables: tentatively fix each unfixed
  /// objective variable to its objective-preferred value and propagate; a
  /// refutation forces the other value, tightening the activity bound.
  /// This is the workhorse bound on permutation-coupled instances where
  /// the LP relaxation is uninformative.
  bool use_objective_probing = true;
  /// Node cap per connected component; exceeding it degrades the result to
  /// kTimeLimit with valid (objective, best_bound) interval.
  int64_t max_nodes_per_component = 4'000'000;
  /// Cross-call warm starts keyed by canonical form (see solve_cache.h):
  /// the best feasible point of every searched component is pooled, and a
  /// later solve of the same form seeds its search with the pooled point
  /// (after re-checking feasibility against the concrete program). This is
  /// how a versioned instance's re-solve skips the prologue of components
  /// the cache could not memoize — too large, or previously time-limited.
  IncumbentPool* incumbent_pool = nullptr;
  /// Worker threads shared by independent connected components and by
  /// intra-component subtree search (the paper's concluding remark that
  /// "parallelism ... may be required to scale"). 0 (the default)
  /// auto-detects from std::thread::hardware_concurrency(), capped at
  /// Scheduler::kMaxAutoThreads; 1 forces fully sequential solves.
  int num_threads = 0;
  /// Nodes a component search runs before it offers its oldest open
  /// subtrees to idle workers (see scheduler.h). Only consulted when the
  /// resolved thread count exceeds 1; small values exercise the split
  /// path in tests, larger ones keep trivial searches split-free.
  int64_t split_node_threshold = 10'000;
  /// Shared scheduler. When null, Solve/SolveMinMax size a private pool
  /// by `num_threads`; the MIN/MAX feasibility prober shares one pool
  /// across its whole probe sequence (like `cache`). The scheduler's own
  /// thread count governs when set.
  Scheduler* scheduler = nullptr;
  /// Shared absolute deadline. When set it overrides
  /// `time_limit_seconds`, letting a caller budget one wall-clock limit
  /// across many solver calls; all workers of a solve check this single
  /// deadline, so a timed-out parallel solve stops at one consistent
  /// point (sticky expiry, see common/stopwatch.h).
  const Deadline* deadline = nullptr;
  /// Nodes between "progress" telemetry events of one search strand
  /// (incumbent, best bound, gap, node count — the gap-vs-time curve per
  /// component). Only consulted while a trace session is recording
  /// (common/telemetry.h); small values are test/demo territory.
  int64_t trace_progress_nodes = 4096;
  double tol = 1e-6;
};

struct MipStats {
  int64_t nodes = 0;
  int64_t lp_solves = 0;
  size_t components = 0;
  size_t presolve_fixed_vars = 0;
  size_t presolve_removed_rows = 0;
  /// Pipeline invocations. SolveMinMax runs presolve and decomposition
  /// exactly once for both senses; callers assert on these to keep it so.
  int64_t presolve_calls = 0;
  int64_t decompose_calls = 0;
  /// Component-instance cache accounting: a hit is a component answered
  /// without a search (cache memo, or in-batch sharing with an isomorphic
  /// twin solved in the same call); a miss runs a branch & bound search.
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  /// Canonical fingerprints computed (components routed through the cache).
  int64_t canonical_forms = 0;
  /// Intra-component parallelism: split events (a search donating open
  /// subtrees to the pool) and subtree tasks donated. Zero on sequential
  /// runs. Node counts of parallel runs are *not* run-order-independent
  /// (pruning depends on when workers share incumbents); bounds are.
  int64_t subtree_splits = 0;
  int64_t subtree_tasks = 0;
  /// Node-LP accounting: total dual-simplex pivots across all solves
  /// (lp_solves counts the solves), and the pivot count of the deepest
  /// single re-solve (MergeFrom keeps the max — the "how warm are the
  /// starts" metric).
  int64_t lp_pivots = 0;
  int64_t max_resolve_pivots = 0;
  /// Variables fixed by reduced-cost bounds across all nodes.
  int64_t rc_fixed_vars = 0;
  /// Component searches seeded with a feasible point from the incumbent
  /// pool (the point passed the pre-seed feasibility re-check).
  int64_t warm_incumbents = 0;
  /// Resolved executor count of the solve (MergeFrom keeps the max).
  int num_threads = 0;
  /// Wall-clock seconds of the outermost solve. MergeFrom keeps the max
  /// (concurrent strands overlap in time); sequential aggregation — e.g.
  /// the MIN/MAX feasibility prober's probe sequence — must sum walls
  /// explicitly around the merge.
  double solve_seconds = 0.0;
  /// CPU seconds summed across search strands (MergeFrom adds). Equals
  /// solve_seconds on sequential runs; on parallel runs the ratio
  /// cpu_seconds / solve_seconds measures effective parallelism.
  double cpu_seconds = 0.0;

  /// Deterministic merge: every counter adds, independent of the order
  /// worker threads finished in (num_threads and solve_seconds keep the
  /// max). Used for per-thread and per-phase stats.
  void MergeFrom(const MipStats& other);
};

struct MipResult {
  SolveStatus status = SolveStatus::kInfeasible;
  /// Objective of the best feasible solution found (valid iff has_solution).
  double objective = 0.0;
  /// Proved bound on the true optimum: >= objective when maximizing,
  /// <= objective when minimizing. Equal to objective when kOptimal.
  double best_bound = 0.0;
  bool has_solution = false;
  /// Assignment in the input program's variable space (iff has_solution).
  std::vector<double> solution;
  MipStats stats;

  /// Absolute gap |best_bound - objective| (0 when optimal).
  double Gap() const {
    return has_solution ? (best_bound > objective ? best_bound - objective
                                                  : objective - best_bound)
                        : kInfinity;
  }
};

/// Both senses of one program, solved off a single presolve +
/// decomposition pass. `stats` covers the whole pass; the per-side stats
/// inside min/max are left zero because searches are shared across senses
/// (a feasibility-only component has the same canonical form in both).
struct MinMaxMipResult {
  MipResult min;
  MipResult max;
  MipStats stats;
};

class MipSolver {
 public:
  explicit MipSolver(MipOptions options = {}) : options_(options) {}

  /// Solves `lp` to proven optimality (or the configured limits).
  MipResult Solve(const LinearProgram& lp, Sense sense) const;

  /// Solves `lp` for both senses in one pass: presolve and decomposition
  /// run once, and every component (plus its negated-objective twin for
  /// the min side) goes through one shared batch of searches — one thread
  /// pool, one solve cache, isomorphic components deduplicated across
  /// senses.
  MinMaxMipResult SolveMinMax(const LinearProgram& lp) const;

  const MipOptions& options() const { return options_; }

 private:
  MipOptions options_;
};

}  // namespace licm::solver

#endif  // LICM_SOLVER_MIP_SOLVER_H_
