// LICM query evaluation: walks the same logical query trees as the
// deterministic engine, but over LICM relations — producing a result
// relation whose constraints encode the answer in every possible world
// (Section IV), and answering aggregate roots with exact bounds
// (Section IV-D).
#ifndef LICM_LICM_EVALUATOR_H_
#define LICM_LICM_EVALUATOR_H_

#include "licm/aggregate.h"
#include "licm/licm_relation.h"
#include "relational/engine.h"
#include "relational/query.h"

namespace licm {

/// Evaluates a non-aggregate query tree against `db`, appending lineage
/// variables/constraints to it. The result is an LICM relation that
/// instantiates, world by world, to the deterministic answer.
Result<LicmRelation> EvaluateLicm(const rel::QueryNode& node,
                                  LicmDatabase* db);

struct AnswerOptions {
  BoundsOptions bounds;
  /// Operator pipeline implementation. Both allocate identical variable
  /// ids, emit identical constraints, and produce bit-identical bounds;
  /// kRow is the straightforward tuple-at-a-time reference, kColumnar the
  /// batch engine (columnar_ops.h).
  rel::EvalEngine engine = rel::EvalEngine::kColumnar;
};

/// Full answer to an aggregate query, with the phase instrumentation the
/// paper reports (L-query / L-solve timings, Figure 7 problem sizes).
struct AggregateAnswer {
  AggregateBounds bounds;

  /// Set for MIN/MAX roots: the full case-analysis result (bounds.min/max
  /// mirror lo/hi for uniform consumption; emptiness flags live here).
  bool is_minmax = false;
  MinMaxBounds minmax;

  /// Problem size right after query processing (Figure 7 "Querying").
  size_t vars_at_query = 0;
  size_t constraints_at_query = 0;

  double query_ms = 0.0;  // operator evaluation (L-query)
  double solve_ms = 0.0;  // both BIP solves (L-solve)
};

/// Answers a query tree rooted at kCountStar, kSum, kMin or kMax: runs the
/// operator pipeline, formulates the BIP, and computes exact (or
/// time-limited) lower/upper bounds. `db` is only read, so any number of
/// threads may answer against one shared snapshot: the columnar engine
/// scans the base relations in place and appends derived variables and
/// constraints to a private copy of the pool and constraint set (same ids,
/// same order as evaluating on a full copy); the kRow reference engine
/// evaluates on a private copy of the whole database.
Result<AggregateAnswer> AnswerAggregate(const rel::QueryNode& query,
                                        const LicmDatabase& db,
                                        const AnswerOptions& options = {});

}  // namespace licm

#endif  // LICM_LICM_EVALUATOR_H_
