/**
 * @file
 * Op-chain compiler + register-based bytecode VM for TransformPlans.
 *
 * A TransformPlan names, per output tensor, a chain of operators
 * (FillMissing/Log/Clamp on floats, Bucketize as the float->id bridge,
 * SigridHash/FirstX on ids). The reference executor runs one
 * whole-column pass per operator, materializing an intermediate column
 * between steps — N ops cost N memory round-trips. CompiledProgram
 * lowers each output chain once into a small bytecode program
 * (validated at compile time, never per batch) and executes it in a
 * single pass per column: values stream through SIMD registers
 * tile-by-tile (8xf32 / 4xi64 on AVX2, 16xf32 / 8xi64 on AVX-512), so
 * no intermediate ever touches memory. Each op has one per-register
 * body per tier (ops/fast_ops_*_inl.h), and every tier is bit-identical
 * to the unfused reference path (every operator is elementwise, so any
 * tiling of the fused chain reproduces the reference output exactly).
 * Chains of any length run fused.
 *
 * FirstX compiles away entirely: elementwise hashes commute with
 * positional prefix selection, so the chain's FirstX ops collapse into
 * one prefix cap applied while packing the input, and the hash chain
 * runs fused over the surviving ids.
 *
 * Execution is allocation-free in steady state: registers write
 * straight into the MiniBatch, and the vector tiers hoist each chain's
 * broadcast constants into per-thread scratch that grows to the longest
 * chain a thread has run and is then reused.
 *
 * See docs/OPVM.md for the bytecode format and register model.
 */
#ifndef PRESTO_OPS_OPVM_H_
#define PRESTO_OPS_OPVM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/batch_arena.h"
#include "common/thread_pool.h"
#include "ops/ops.h"
#include "ops/plan.h"
#include "tabular/minibatch.h"
#include "tabular/row_batch.h"

namespace presto {

/** Bytecode operations. A program is [f32 ops][bucketize?][hash ops]. */
enum class OpCode : uint8_t {
    kFill,       ///< f32: NaN -> a
    kLog,        ///< f32: log1p(max(x, 0))
    kClamp,      ///< f32: min(max(x, a), b), NaN passes through
    kBucketize,  ///< bridge: f32 -> i64 bucket id (boundary table)
    kHash,       ///< i64: sigridHash(seed) mod max_value
};

/** Human-readable mnemonic of an OpCode. */
const char* opCodeName(OpCode op);

/** One bytecode instruction (a union of the per-op operand fields). */
struct OpInstr {
    OpCode op = OpCode::kLog;
    float a = 0.0f;          ///< kFill: fill value; kClamp: lo
    float b = 0.0f;          ///< kClamp: hi
    uint64_t seed = 0;       ///< kHash
    int64_t max_value = 1;   ///< kHash divisor (>= 1)
    int32_t table = -1;      ///< kBucketize: boundary-table index
};

/**
 * Chain-level algebraic simplification of an f32-stage instruction
 * sequence (kFill/kLog/kClamp only), run by compile() and exposed for
 * direct testing. Bit-identical to executing the original chain on any
 * input (including NaN payloads and signed zeros), on every SIMD tier:
 *
 *  - adjacent clamps fold into one: clamp(a1,b1);clamp(a2,b2) ->
 *    clamp(max(a1,a2), min(max(b1,a2),b2)), skipped when any bound is
 *    NaN (NaN bounds behave differently per tier and must stay as
 *    written);
 *  - fill(a1);fill(a2) with a1 NaN: the earlier fill is dominated by
 *    the later one and dropped (any NaN -> a1' (still NaN) -> a2);
 *  - a fill is dead and dropped when an earlier fill with a non-NaN
 *    value precedes it with only NaN-free ops between (kLog never
 *    produces NaN from non-NaN input; kClamp with non-NaN bounds
 *    neither) — no NaN can reach it. fill(NaN) with no prior fill is
 *    NOT dropped: it rewrites NaN payloads.
 *
 * Iterates to fixpoint (dropping a fill can make two clamps adjacent).
 */
std::vector<OpInstr> simplifyF32Chain(std::vector<OpInstr> ops);

/** The compiled form of one PlanOutput. */
struct CompiledOutput {
    PlanOutput::Kind kind = PlanOutput::Kind::kDense;
    std::string name;
    size_t source = 0;      ///< input column index in the schema
    size_t slot = 0;        ///< dense matrix column or mb.sparse index
    /**
     * Feature-unit stream id for the ISP emulator: dense outputs get
     * their dense slot, generated outputs share their source dense
     * feature's unit, raw sparse outputs follow after the dense units.
     */
    size_t unit_stream = 0;
    /**
     * Combined FirstX cap (min over the chain's FirstX ops; SIZE_MAX
     * when uncapped). Applied while packing input ids — see file
     * comment on why this commutes with the hash chain.
     */
    size_t prefix_cap = SIZE_MAX;
    std::vector<OpInstr> code;  ///< [f32 ops][kBucketize?][kHash ops]
    uint32_t num_f32 = 0;       ///< leading f32-stage instructions
    uint32_t num_hash = 0;      ///< trailing hash-stage instructions
    /**
     * f32-stage length before chain-level algebraic simplification
     * (adjacent-clamp folding and dead-fill elimination, see
     * simplifyF32Chain()); equals num_f32 when nothing was folded.
     * Disassembly surfaces the difference.
     */
    uint32_t unsimplified_f32 = 0;
};

/**
 * Boundary table of one kBucketize instruction: a sorted copy of the
 * boundaries plus a value-independent bisection schedule ("halves").
 * Every value walks the same sequence of step sizes, so the vector
 * tiers replace upper_bound's data-dependent branches with gathers and
 * compares. Bucket ids equal BucketBoundaries::searchBucketId
 * (upper_bound index, NaN -> 0) on every tier.
 */
class BucketTable
{
  public:
    explicit BucketTable(const BucketBoundaries& boundaries);

    size_t size() const { return bounds_.size(); }
    const std::vector<float>& bounds() const { return bounds_; }
    /** Bisection step sizes, largest first; sum == size() - 1. */
    const std::vector<int32_t>& halves() const { return halves_; }

  private:
    std::vector<float> bounds_;
    std::vector<int32_t> halves_;
};

/**
 * A TransformPlan lowered to bytecode, bound to one input schema.
 *
 * Validation happens exactly once, at compile time; run() only performs
 * an O(1) schema-fingerprint check per batch (see
 * planValidationCount()). Thread-safe for concurrent run() calls.
 */
class CompiledProgram
{
  public:
    CompiledProgram() = default;

    /**
     * Validate @p plan against @p input_schema and lower it. Panics on
     * invalid plans (use TransformPlan::validate first for recoverable
     * handling).
     */
    static CompiledProgram compile(TransformPlan plan,
                                   const Schema& input_schema);

    /**
     * Execute the program over one raw batch into @p mb, reusing its
     * buffers. Steady state performs zero heap allocations. @p arena
     * counts batches; @p pool optionally fans out one task per output.
     */
    void run(const RowBatch& raw, MiniBatch& mb, BatchArena& arena,
             ThreadPool* pool = nullptr) const;

    /**
     * Chunk-granular entry points for double-buffered PE emulation
     * (core/isp_emulator): run one output's full chain over a sub-range
     * of its column. Every op is elementwise, so executing a column in
     * chunks is bit-identical to one run() pass.
     * @{
     */
    void runDenseRange(const CompiledOutput& out, const float* src,
                       size_t n, float* dst, size_t stride) const;
    void runHashRange(const CompiledOutput& out, const int64_t* src,
                      size_t n, int64_t* dst) const;
    void runGeneratedRange(const CompiledOutput& out, const float* src,
                           size_t n, int64_t* dst) const;
    /** @} */

    const std::vector<CompiledOutput>& outputs() const { return outputs_; }
    const TransformPlan& plan() const { return plan_; }
    const Schema& inputSchema() const { return input_schema_; }
    size_t numDense() const { return num_dense_; }
    size_t numSparse() const { return num_sparse_; }

    /** Boundary table of a kBucketize instruction. */
    const BucketTable&
    bucketTable(int32_t table) const
    {
        return bucket_tables_[static_cast<size_t>(table)];
    }

    /** Assembly-style listing of the compiled program. */
    std::string disassemble() const;

  private:
    void runOutput(const CompiledOutput& out, const RowBatch& raw,
                   MiniBatch& mb) const;
    void runSparse(const CompiledOutput& out, const RowBatch& raw,
                   MiniBatch& mb) const;
    void runGenerated(const CompiledOutput& out, const RowBatch& raw,
                      MiniBatch& mb) const;

    TransformPlan plan_;
    Schema input_schema_;
    uint64_t schema_fp_ = 0;
    size_t num_dense_ = 0;
    size_t num_sparse_ = 0;
    std::vector<CompiledOutput> outputs_;
    std::vector<BucketTable> bucket_tables_;
};

}  // namespace presto

#endif  // PRESTO_OPS_OPVM_H_
