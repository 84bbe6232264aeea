// Columnar LICM operators: the batch-execution counterpart of ops.cc.
//
// An LicmBatch is a relational BatchView plus an Ext array parallel to the
// physical rows; operators filter by selection bitmap and group by
// contiguous runs (batch.h) instead of per-tuple hash-map inserts, and
// bulk-emit Algorithm 4's cardinality rows per run. The lineage case
// analyses themselves are shared with the row path (lineage.h), and every
// operator walks rows in the row engine's order, so both paths allocate
// the SAME variable ids and emit the SAME constraints — the `columnar`
// fuzz invariant and the differential tests check this structurally.
#ifndef LICM_LICM_COLUMNAR_OPS_H_
#define LICM_LICM_COLUMNAR_OPS_H_

#include <memory>
#include <vector>

#include "licm/licm_relation.h"
#include "licm/ops.h"
#include "relational/arena.h"
#include "relational/batch.h"
#include "relational/column.h"
#include "relational/query.h"

namespace licm {

/// A batch of LICM tuples: normal attributes as column spans + selection,
/// Ext attributes in an array parallel to the physical rows (only active
/// rows' entries are meaningful).
struct LicmBatch {
  rel::BatchView view;
  const Ext* exts = nullptr;
};

/// Per-evaluation columnar state: the arena owning all transient buffers
/// (columns, bitmaps, Ext arrays), the string dictionary, the converted
/// base tables, and the database's pool/constraint context.
struct ColumnarLicmContext {
  explicit ColumnarLicmContext(OpContext ops) : ops(ops) {}

  OpContext ops;
  rel::Arena arena;
  rel::StringDictionary dict;
  std::vector<std::unique_ptr<rel::ColumnTable>> base_tables;
};

/// Evaluates a non-aggregate query tree over `db` into a batch, appending
/// lineage variables/constraints to `ctx->ops` exactly as EvaluateLicm
/// would to the database. `db`'s relations are only read.
Result<LicmBatch> EvaluateLicmBatch(const rel::QueryNode& node,
                                    const LicmDatabase& db,
                                    ColumnarLicmContext* ctx);

/// Batch counterpart of MergeDuplicates: OR-merges duplicate tuples,
/// returning the input unchanged when the active rows are already a set.
Result<LicmBatch> MergeDuplicatesBatch(const LicmBatch& in,
                                       ColumnarLicmContext* ctx);

/// Gathers column `col` of the active rows as doubles plus the parallel
/// Ext attributes (MIN/MAX case analysis input). The column must be
/// numeric.
void NumericColumnBatch(const LicmBatch& in, size_t col,
                        ColumnarLicmContext* ctx, std::vector<double>* values,
                        std::vector<Ext>* exts);

/// Materializes the batch as an LicmRelation, in row order (tests and
/// debugging; the hot path never converts).
LicmRelation BatchToLicmRelation(const LicmBatch& in,
                                 ColumnarLicmContext* ctx);

}  // namespace licm

#endif  // LICM_LICM_COLUMNAR_OPS_H_
