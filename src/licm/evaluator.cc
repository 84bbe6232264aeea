#include "licm/evaluator.h"

#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "licm/columnar_ops.h"
#include "licm/ops.h"

namespace licm {

namespace {

// Batch-path totals, flushed once per aggregate answer (DESIGN.md §12):
// base-relation rows fed into the operator pipeline, lineage constraints
// the evaluation appended, and arena bytes the batch views consumed.
void RecordQueryMetrics(const char* engine, size_t rows_scanned,
                        size_t constraints_emitted, size_t arena_bytes) {
  auto& reg = metrics::MetricsRegistry::Default();
  const metrics::Labels labels{{"engine", engine}};
  reg.GetCounter("licm_query_rows_scanned_total", labels)
      ->Increment(static_cast<int64_t>(rows_scanned));
  reg.GetCounter("licm_query_constraints_emitted_total", labels)
      ->Increment(static_cast<int64_t>(constraints_emitted));
  if (arena_bytes > 0) {
    reg.GetCounter("licm_query_arena_bytes_total", labels)
        ->Increment(static_cast<int64_t>(arena_bytes));
  }
}

}  // namespace

Result<LicmRelation> EvaluateLicm(const rel::QueryNode& node,
                                  LicmDatabase* db) {
  OpContext ctx{&db->pool(), &db->constraints()};
  switch (node.kind) {
    case rel::QueryKind::kScan: {
      LICM_ASSIGN_OR_RETURN(const LicmRelation* r,
                            db->GetRelation(node.relation_name));
      // Set semantics on base relations, mirroring the deterministic
      // engine's dedup-on-scan.
      return MergeDuplicates(*r, ctx);
    }
    case rel::QueryKind::kSelect: {
      LICM_ASSIGN_OR_RETURN(LicmRelation in, EvaluateLicm(*node.left, db));
      return SelectOp(in, node.predicates);
    }
    case rel::QueryKind::kProject: {
      LICM_ASSIGN_OR_RETURN(LicmRelation in, EvaluateLicm(*node.left, db));
      return ProjectOp(in, node.columns, ctx);
    }
    case rel::QueryKind::kIntersect: {
      LICM_ASSIGN_OR_RETURN(LicmRelation l, EvaluateLicm(*node.left, db));
      LICM_ASSIGN_OR_RETURN(LicmRelation r, EvaluateLicm(*node.right, db));
      return IntersectOp(l, r, ctx);
    }
    case rel::QueryKind::kProduct: {
      LICM_ASSIGN_OR_RETURN(LicmRelation l, EvaluateLicm(*node.left, db));
      LICM_ASSIGN_OR_RETURN(LicmRelation r, EvaluateLicm(*node.right, db));
      return ProductOp(l, r, ctx);
    }
    case rel::QueryKind::kJoin: {
      LICM_ASSIGN_OR_RETURN(LicmRelation l, EvaluateLicm(*node.left, db));
      LICM_ASSIGN_OR_RETURN(LicmRelation r, EvaluateLicm(*node.right, db));
      return JoinOp(l, r, node.join_on, ctx);
    }
    case rel::QueryKind::kCountPredicate: {
      LICM_ASSIGN_OR_RETURN(LicmRelation in, EvaluateLicm(*node.left, db));
      return CountPredicateOp(in, node.group_column, node.count_op,
                              node.count_d, ctx);
    }
    case rel::QueryKind::kSumPredicate: {
      LICM_ASSIGN_OR_RETURN(LicmRelation in, EvaluateLicm(*node.left, db));
      return SumPredicateOp(in, node.group_column, node.sum_column,
                            node.count_op, node.count_d, ctx);
    }
    case rel::QueryKind::kCountStar:
    case rel::QueryKind::kSum:
    case rel::QueryKind::kMin:
    case rel::QueryKind::kMax:
      return Status::InvalidArgument(
          "aggregate root: use AnswerAggregate()");
  }
  return Status::Internal("unknown query kind");
}

namespace {

// Columnar twin of the row-path AnswerAggregate body below. Both walk the
// merged result in the same row order, so the objective accumulation (a
// float-order-sensitive sum) and the MIN/MAX case analysis see identical
// inputs and the bounds match bit for bit.
//
// The base relations are scanned in place; derived variables and
// constraints go into `pool` / `constraints`, private copies of the
// database's, so the caller's snapshot is never written.
Result<AggregateAnswer> AnswerAggregateColumnar(const rel::QueryNode& query,
                                                const LicmDatabase& db,
                                                const AnswerOptions& options) {
  AggregateAnswer out;
  StopWatch watch;
  VariablePool pool = db.pool();
  ConstraintSet constraints = db.constraints();
  const size_t cons_before = constraints.size();

  telemetry::ScopedSpan eval_span("licm", "query_eval");
  ColumnarLicmContext ctx(OpContext{&pool, &constraints});
  LICM_ASSIGN_OR_RETURN(LicmBatch result,
                        EvaluateLicmBatch(*query.left, db, &ctx));
  // Aggregates count each distinct tuple once per world.
  LICM_ASSIGN_OR_RETURN(result, MergeDuplicatesBatch(result, &ctx));
  eval_span.End();
  size_t rows_scanned = 0;
  for (const auto& t : ctx.base_tables) rows_scanned += t->num_rows();
  RecordQueryMetrics("columnar", rows_scanned,
                     constraints.size() - cons_before,
                     ctx.arena.bytes_allocated());
  telemetry::ScopedSpan solve_span("licm", "solve");

  if (query.kind == rel::QueryKind::kMin ||
      query.kind == rel::QueryKind::kMax) {
    out.vars_at_query = pool.size();
    out.constraints_at_query = constraints.size();
    out.query_ms = watch.ElapsedMs();
    watch.Restart();
    LICM_ASSIGN_OR_RETURN(size_t col,
                          result.view.schema.IndexOf(query.sum_column));
    if (result.view.schema.column(col).type == rel::ValueType::kString) {
      return Status::InvalidArgument("MIN/MAX over string column '" +
                                     query.sum_column + "'");
    }
    std::vector<double> values;
    std::vector<Ext> exts;
    NumericColumnBatch(result, col, &ctx, &values, &exts);
    LICM_ASSIGN_OR_RETURN(
        out.minmax,
        ComputeMinMaxBounds(values, exts, constraints, pool.size(),
                            query.kind == rel::QueryKind::kMax,
                            options.bounds));
    out.is_minmax = true;
    out.bounds.min.value = out.bounds.min.proved = out.minmax.lo;
    out.bounds.min.exact = out.minmax.exact_lo;
    out.bounds.max.value = out.bounds.max.proved = out.minmax.hi;
    out.bounds.max.exact = out.minmax.exact_hi;
    out.bounds.stats = out.minmax.stats;
    out.solve_ms = watch.ElapsedMs();
    return out;
  }

  const uint32_t* rows = rel::ActiveRows(result.view, &ctx.arena);
  Objective obj;
  if (query.kind == rel::QueryKind::kCountStar) {
    for (size_t i = 0; i < result.view.active; ++i) {
      const Ext e = result.exts[rows[i]];
      if (e.certain()) {
        obj.constant += 1.0;
      } else {
        obj.coefs[e.var()] += 1.0;
      }
    }
  } else {
    LICM_ASSIGN_OR_RETURN(size_t idx,
                          result.view.schema.IndexOf(query.sum_column));
    const rel::ValueType t = result.view.schema.column(idx).type;
    if (t == rel::ValueType::kString) {
      return Status::InvalidArgument("SUM over string column '" +
                                     query.sum_column + "'");
    }
    for (size_t i = 0; i < result.view.active; ++i) {
      const uint32_t row = rows[i];
      const double x = t == rel::ValueType::kInt
                           ? static_cast<double>(result.view.cols[idx].i64[row])
                           : result.view.cols[idx].f64[row];
      const Ext e = result.exts[row];
      if (e.certain()) {
        obj.constant += x;
      } else {
        obj.coefs[e.var()] += x;
      }
    }
  }
  out.vars_at_query = pool.size();
  out.constraints_at_query = constraints.size();
  out.query_ms = watch.ElapsedMs();

  watch.Restart();
  LICM_ASSIGN_OR_RETURN(
      out.bounds,
      ComputeBounds(obj, constraints, pool.size(), options.bounds));
  out.solve_ms = watch.ElapsedMs();
  return out;
}

}  // namespace

Result<AggregateAnswer> AnswerAggregate(const rel::QueryNode& query,
                                        const LicmDatabase& snapshot,
                                        const AnswerOptions& options) {
  if (!rel::IsAggregate(query)) {
    return Status::InvalidArgument(
        "AnswerAggregate requires kCountStar or kSum at the root");
  }
  if (options.engine == rel::EvalEngine::kColumnar) {
    return AnswerAggregateColumnar(query, snapshot, options);
  }
  // The row reference engine appends to the database it evaluates on.
  LicmDatabase db = snapshot;
  AggregateAnswer out;
  StopWatch watch;
  const size_t cons_before = db.constraints().size();

  telemetry::ScopedSpan eval_span("licm", "query_eval");
  LICM_ASSIGN_OR_RETURN(LicmRelation result, EvaluateLicm(*query.left, &db));
  // Aggregates count each distinct tuple once per world.
  OpContext ctx{&db.pool(), &db.constraints()};
  LICM_ASSIGN_OR_RETURN(result, MergeDuplicates(result, ctx));
  eval_span.End();
  // The row path has no batch arena and does not track base-scan rows.
  RecordQueryMetrics("row", 0, db.constraints().size() - cons_before, 0);
  telemetry::ScopedSpan solve_span("licm", "solve");

  if (query.kind == rel::QueryKind::kMin ||
      query.kind == rel::QueryKind::kMax) {
    out.vars_at_query = db.pool().size();
    out.constraints_at_query = db.constraints().size();
    out.query_ms = watch.ElapsedMs();
    watch.Restart();
    LICM_ASSIGN_OR_RETURN(
        out.minmax,
        ComputeMinMaxBounds(result, query.sum_column, db.constraints(),
                            db.pool().size(),
                            query.kind == rel::QueryKind::kMax,
                            options.bounds));
    out.is_minmax = true;
    out.bounds.min.value = out.bounds.min.proved = out.minmax.lo;
    out.bounds.min.exact = out.minmax.exact_lo;
    out.bounds.max.value = out.bounds.max.proved = out.minmax.hi;
    out.bounds.max.exact = out.minmax.exact_hi;
    out.bounds.stats = out.minmax.stats;
    out.solve_ms = watch.ElapsedMs();
    return out;
  }

  Objective obj;
  if (query.kind == rel::QueryKind::kCountStar) {
    obj = CountObjective(result);
  } else {
    LICM_ASSIGN_OR_RETURN(obj, SumObjective(result, query.sum_column));
  }
  out.vars_at_query = db.pool().size();
  out.constraints_at_query = db.constraints().size();
  out.query_ms = watch.ElapsedMs();

  watch.Restart();
  LICM_ASSIGN_OR_RETURN(
      out.bounds,
      ComputeBounds(obj, db.constraints(), db.pool().size(),
                    options.bounds));
  out.solve_ms = watch.ElapsedMs();
  return out;
}

}  // namespace licm
