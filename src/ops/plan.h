/**
 * @file
 * Declarative preprocessing plans.
 *
 * Online preprocessing exists because ML engineers constantly change
 * *which* features a model consumes and *how* they are transformed
 * (Section II-B: "deciding which features to utilize depends on the ML
 * engineer's choice"). A TransformPlan captures that choice as data: a
 * list of output tensors, each naming a source feature and a chain of
 * operators. PlanExecutor runs a validated plan over raw RowBatches.
 *
 * Preprocessor (preprocessor.h) is equivalent to
 * TransformPlan::standard(config) and remains the fast path; plans add
 * the flexibility layer a real deployment needs.
 */
#ifndef PRESTO_OPS_PLAN_H_
#define PRESTO_OPS_PLAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "common/batch_arena.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "datagen/rm_config.h"
#include "ops/ops.h"
#include "tabular/minibatch.h"
#include "tabular/row_batch.h"

namespace presto {

class CompiledProgram;  // ops/opvm.h

/** Dense-chain operator step. */
struct DenseOp {
    enum class Kind { kFillMissing, kLog, kClamp };
    Kind kind = Kind::kLog;
    float a = 0.0f;  ///< FillMissing: fill value; Clamp: lo
    float b = 0.0f;  ///< Clamp: hi

    static DenseOp fillMissing(float value) { return {Kind::kFillMissing, value, 0}; }
    static DenseOp log() { return {Kind::kLog, 0, 0}; }
    static DenseOp clamp(float lo, float hi) { return {Kind::kClamp, lo, hi}; }

    friend bool
    operator==(const DenseOp& x, const DenseOp& y)
    {
        return x.kind == y.kind && x.a == y.a && x.b == y.b;
    }
};

/** Sparse-chain operator step. */
struct SparseOp {
    enum class Kind { kSigridHash, kFirstX };
    Kind kind = Kind::kSigridHash;
    uint64_t seed = 0;      ///< SigridHash
    int64_t max_value = 1;  ///< SigridHash
    size_t max_ids = 1;     ///< FirstX

    static SparseOp
    sigridHash(uint64_t seed, int64_t max_value)
    {
        SparseOp op;
        op.kind = Kind::kSigridHash;
        op.seed = seed;
        op.max_value = max_value;
        return op;
    }

    static SparseOp
    firstX(size_t max_ids)
    {
        SparseOp op;
        op.kind = Kind::kFirstX;
        op.max_ids = max_ids;
        return op;
    }

    friend bool
    operator==(const SparseOp& x, const SparseOp& y)
    {
        return x.kind == y.kind && x.seed == y.seed &&
               x.max_value == y.max_value && x.max_ids == y.max_ids;
    }
};

/** One output tensor of the plan. */
struct PlanOutput {
    /** What the output is. */
    enum class Kind {
        kLabel,      ///< copy the label column
        kDense,      ///< dense feature -> dense ops -> dense matrix slot
        kSparse,     ///< sparse feature -> sparse ops -> jagged tensor
        kGenerated,  ///< dense feature -> dense ops -> Bucketize ->
                     ///< sparse ops -> jagged tensor
    };

    Kind kind = Kind::kDense;
    std::string output_name;
    std::string source_feature;
    std::vector<DenseOp> dense_ops;
    std::vector<SparseOp> sparse_ops;
    size_t bucket_boundaries = 0;  ///< kGenerated: boundary count (m)

    friend bool
    operator==(const PlanOutput& x, const PlanOutput& y)
    {
        return x.kind == y.kind && x.output_name == y.output_name &&
               x.source_feature == y.source_feature &&
               x.dense_ops == y.dense_ops &&
               x.sparse_ops == y.sparse_ops &&
               x.bucket_boundaries == y.bucket_boundaries;
    }
};

/**
 * A validated, executable preprocessing plan.
 */
class TransformPlan
{
  public:
    TransformPlan() = default;

    /** Append an output description (validated later). */
    void add(PlanOutput output) { outputs_.push_back(std::move(output)); }

    const std::vector<PlanOutput>& outputs() const { return outputs_; }

    /** Count of dense-matrix outputs in the plan. */
    size_t numDenseOutputs() const;

    /** Count of jagged (sparse + generated) outputs in the plan. */
    size_t numSparseOutputs() const;

    /**
     * Check the plan against an input schema: sources must exist with
     * the right kind, output names must be unique, at most one label,
     * op parameters must be sane.
     */
    Status validate(const Schema& schema) const;

    /**
     * The paper's standard plan for a Table I workload: FillMissing(0) +
     * Log on every dense feature, Bucketize + SigridHash generating
     * sparse features from the first num_generated dense features,
     * SigridHash on every raw sparse feature, label passthrough.
     * Matches Preprocessor bit for bit.
     */
    static TransformPlan standard(const RmConfig& config);

    friend bool
    operator==(const TransformPlan& x, const TransformPlan& y)
    {
        return x.outputs_ == y.outputs_;
    }

  private:
    std::vector<PlanOutput> outputs_;
};

/**
 * Executes a TransformPlan over raw batches.
 *
 * Construction compiles the plan once into a fused bytecode program
 * (ops/opvm.h): validation and lowering happen here, never per batch.
 * run()/runInto() execute the compiled program in a single SIMD pass
 * per column; runUnfused() keeps the original one-pass-per-operator
 * reference path for differential testing and benchmarking.
 */
class PlanExecutor
{
  public:
    /**
     * Compiles @p plan against @p input_schema; panics on invalid plans
     * (use TransformPlan::validate first for recoverable handling).
     */
    PlanExecutor(TransformPlan plan, const Schema& input_schema);

    /** Run the compiled (fused) plan on one raw batch. */
    MiniBatch run(const RowBatch& raw) const;

    /**
     * Allocation-free form of run(): writes into @p out (buffers reused
     * across calls), counts the batch in @p arena, optionally fans one
     * task per output onto @p pool. Zero steady-state heap
     * allocations after a warm-up batch.
     */
    void runInto(const RowBatch& raw, MiniBatch& out, BatchArena& arena,
                 ThreadPool* pool = nullptr) const;

    /**
     * Reference executor: one whole-column pass per operator with a
     * materialized intermediate between steps. Bit-identical to run();
     * kept as the differential-test oracle and the bench baseline.
     */
    MiniBatch runUnfused(const RowBatch& raw) const;

    const TransformPlan& plan() const;

    /** The cached compiled program run() executes. */
    const CompiledProgram& program() const { return *program_; }

  private:
    std::shared_ptr<const CompiledProgram> program_;
    std::vector<size_t> source_index_;  ///< per output, input column
    std::vector<BucketBoundaries> boundaries_;  ///< per generated output
    std::vector<int> boundary_slot_;    ///< per output, index or -1
};

/**
 * Total TransformPlan::validate() calls so far. Test hook for the
 * validate-once contract: compiling a plan validates it exactly once,
 * and running a cached program never validates again.
 */
uint64_t planValidationCount();

}  // namespace presto

#endif  // PRESTO_OPS_PLAN_H_
