/**
 * @file
 * Bit-identity suite for the fused op-chain bytecode VM (ops/opvm.h).
 *
 * The contract under test: for ANY valid TransformPlan and ANY input —
 * including NaN payloads, denormals, infinities and empty columns — the
 * fused single-pass execution is bit-identical to the unfused
 * one-pass-per-operator reference, at every dispatched SIMD level.
 * Plus the compile-time contracts: validation happens exactly once at
 * compile, never per batch, and chains of any length run fused.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "datagen/generator.h"
#include "ops/opvm.h"
#include "ops/plan.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"

namespace presto {
namespace {

/** Every dispatch level available on this machine, scalar first. */
std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels{SimdLevel::kScalar};
    if (detectedSimdLevel() >= SimdLevel::kAvx2)
        levels.push_back(SimdLevel::kAvx2);
    if (detectedSimdLevel() >= SimdLevel::kAvx512)
        levels.push_back(SimdLevel::kAvx512);
    return levels;
}

/** RAII restore of the active SIMD level. */
class ScopedSimdLevel
{
  public:
    explicit ScopedSimdLevel(SimdLevel level) : saved_(activeSimdLevel())
    {
        setSimdLevel(level);
    }
    ~ScopedSimdLevel() { setSimdLevel(saved_); }

  private:
    SimdLevel saved_;
};

/**
 * Assert two mini-batches are bit-identical. Floats compare by bit
 * pattern (operator== would treat every NaN as a mismatch and -0.0f as
 * equal to 0.0f — both wrong for a bit-identity contract).
 */
void
expectBitIdentical(const MiniBatch& want, const MiniBatch& got,
                   const std::string& what)
{
    ASSERT_EQ(want.batch_size, got.batch_size) << what;
    ASSERT_EQ(want.num_dense, got.num_dense) << what;
    ASSERT_EQ(want.dense.size(), got.dense.size()) << what;
    for (size_t i = 0; i < want.dense.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(want.dense[i]),
                  std::bit_cast<uint32_t>(got.dense[i]))
            << what << " dense[" << i << "] " << want.dense[i]
            << " vs " << got.dense[i];
    }
    ASSERT_EQ(want.labels.size(), got.labels.size()) << what;
    for (size_t i = 0; i < want.labels.size(); ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(want.labels[i]),
                  std::bit_cast<uint32_t>(got.labels[i]))
            << what << " labels[" << i << "]";
    }
    ASSERT_EQ(want.sparse.size(), got.sparse.size()) << what;
    for (size_t s = 0; s < want.sparse.size(); ++s) {
        ASSERT_EQ(want.sparse[s].feature_name, got.sparse[s].feature_name)
            << what;
        ASSERT_EQ(want.sparse[s].values, got.sparse[s].values)
            << what << " sparse " << want.sparse[s].feature_name;
        ASSERT_EQ(want.sparse[s].lengths, got.sparse[s].lengths)
            << what << " sparse " << want.sparse[s].feature_name;
    }
}

/**
 * Oracle comparison: runUnfused at scalar level is the reference; the
 * fused run() and the unfused path must reproduce it at every level.
 */
void
expectFusedMatchesUnfusedEverywhere(const PlanExecutor& exec,
                                    const RowBatch& raw,
                                    const std::string& what)
{
    MiniBatch oracle;
    {
        ScopedSimdLevel scoped(SimdLevel::kScalar);
        oracle = exec.runUnfused(raw);
    }
    for (SimdLevel level : availableLevels()) {
        ScopedSimdLevel scoped(level);
        const std::string where =
            what + " level=" + simdLevelName(level);
        expectBitIdentical(oracle, exec.run(raw), where + " fused");
        expectBitIdentical(oracle, exec.runUnfused(raw),
                           where + " unfused");
        // The reusable-buffer entry point must agree too, warm or cold.
        MiniBatch into;
        BatchArena arena;
        exec.runInto(raw, into, arena);
        exec.runInto(raw, into, arena);
        expectBitIdentical(oracle, into, where + " runInto");
    }
}

// --- adversarial float / id material ---------------------------------------

float
fuzzFloat(std::mt19937_64& rng)
{
    switch (rng() % 12) {
      case 0: return std::numeric_limits<float>::quiet_NaN();
      case 1:
        // NaN with a nonzero payload and sign: survives ops bit-exactly
        // only if fused and unfused take identical blend paths.
        return std::bit_cast<float>(
            0xffc00000u | static_cast<uint32_t>(rng() % 0x3fffffu) | 1u);
      case 2: return std::numeric_limits<float>::infinity();
      case 3: return -std::numeric_limits<float>::infinity();
      case 4:
        // Positive denormal.
        return std::bit_cast<float>(
            static_cast<uint32_t>(rng() % 0x7fffffu) + 1u);
      case 5:
        // Negative denormal.
        return std::bit_cast<float>(
            0x80000000u + static_cast<uint32_t>(rng() % 0x7fffffu) + 1u);
      case 6: return -0.0f;
      case 7: return 0.0f;
      default: {
        const auto m = static_cast<float>(
            static_cast<double>(rng() % 100000000u) / 997.0);
        return rng() % 2 ? m : -m;
      }
    }
}

int64_t
fuzzId(std::mt19937_64& rng)
{
    switch (rng() % 8) {
      case 0: return 0;
      case 1: return std::numeric_limits<int64_t>::max();
      case 2: return std::numeric_limits<int64_t>::min();
      case 3: return -1;
      default: return static_cast<int64_t>(rng());
    }
}

/** Random batch over makeRecSys(num_dense, num_sparse), adversarial
 *  floats, row lengths 0..6 (empties included). */
RowBatch
fuzzBatch(size_t num_dense, size_t num_sparse, size_t rows,
          std::mt19937_64& rng)
{
    RowBatch batch(Schema::makeRecSys(num_dense, num_sparse));
    std::vector<float> labels(rows);
    for (auto& v : labels)
        v = static_cast<float>(rng() % 2);
    batch.addColumn(DenseColumn(std::move(labels)));
    for (size_t f = 0; f < num_dense; ++f) {
        std::vector<float> values(rows);
        for (auto& v : values)
            v = fuzzFloat(rng);
        batch.addColumn(DenseColumn(std::move(values)));
    }
    for (size_t f = 0; f < num_sparse; ++f) {
        std::vector<uint32_t> offsets(rows + 1, 0);
        for (size_t r = 0; r < rows; ++r)
            offsets[r + 1] = offsets[r] + static_cast<uint32_t>(rng() % 7);
        std::vector<int64_t> ids(offsets[rows]);
        for (auto& id : ids)
            id = fuzzId(rng);
        batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));
    }
    return batch;
}

std::vector<DenseOp>
fuzzDenseChain(std::mt19937_64& rng, size_t max_len)
{
    std::vector<DenseOp> ops(rng() % (max_len + 1));
    for (auto& op : ops) {
        switch (rng() % 3) {
          case 0:
            op = DenseOp::fillMissing(fuzzFloat(rng));
            break;
          case 1:
            op = DenseOp::log();
            break;
          default: {
            float lo = fuzzFloat(rng);
            float hi = fuzzFloat(rng);
            // Clamp params must satisfy lo <= hi and be comparable.
            if (std::isnan(lo))
                lo = -1.0f;
            if (std::isnan(hi))
                hi = 2.0f;
            if (lo > hi)
                std::swap(lo, hi);
            op = DenseOp::clamp(lo, hi);
            break;
          }
        }
    }
    return ops;
}

std::vector<SparseOp>
fuzzSparseChain(std::mt19937_64& rng, size_t max_len)
{
    static constexpr int64_t kMaxValues[] = {
        1, 2, 3, 1000, 500000, int64_t{1} << 31, int64_t{1} << 62};
    std::vector<SparseOp> ops(rng() % (max_len + 1));
    for (auto& op : ops) {
        if (rng() % 3 == 0) {
            op = SparseOp::firstX(rng() % 5);  // cap 0 allowed
        } else {
            op = SparseOp::sigridHash(rng(), kMaxValues[rng() % 7]);
        }
    }
    return ops;
}

TransformPlan
fuzzPlan(size_t num_dense, size_t num_sparse, std::mt19937_64& rng)
{
    static constexpr size_t kBoundaryCounts[] = {1, 2, 37, 256, 1024};
    TransformPlan plan;
    int serial = 0;
    if (rng() % 2) {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kLabel;
        out.output_name = "label";
        out.source_feature = "label";
        plan.add(std::move(out));
    }
    const size_t dense_outs = 1 + rng() % 3;
    for (size_t i = 0; i < dense_outs; ++i) {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kDense;
        out.output_name = "d" + std::to_string(serial++);
        out.source_feature =
            "dense_" + std::to_string(rng() % num_dense);
        out.dense_ops = fuzzDenseChain(rng, 5);
        plan.add(std::move(out));
    }
    const size_t sparse_outs = 1 + rng() % 3;
    for (size_t i = 0; i < sparse_outs; ++i) {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kSparse;
        out.output_name = "s" + std::to_string(serial++);
        out.source_feature =
            "sparse_" + std::to_string(rng() % num_sparse);
        out.sparse_ops = fuzzSparseChain(rng, 4);
        plan.add(std::move(out));
    }
    const size_t generated_outs = rng() % 3;
    for (size_t i = 0; i < generated_outs; ++i) {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kGenerated;
        out.output_name = "g" + std::to_string(serial++);
        out.source_feature =
            "dense_" + std::to_string(rng() % num_dense);
        out.dense_ops = fuzzDenseChain(rng, 4);
        out.bucket_boundaries = kBoundaryCounts[rng() % 5];
        out.sparse_ops = fuzzSparseChain(rng, 3);
        plan.add(std::move(out));
    }
    return plan;
}

// --- standard workloads ----------------------------------------------------

class FusedStandardPlan : public ::testing::TestWithParam<int>
{
};

TEST_P(FusedStandardPlan, BitIdenticalToUnfusedAtEveryLevel)
{
    RmConfig cfg = rmConfig(GetParam());
    cfg.batch_size = 613;  // off any tile multiple: exercises tails
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(7);
    const PlanExecutor exec(TransformPlan::standard(cfg), raw.schema());
    expectFusedMatchesUnfusedEverywhere(exec, raw,
                                        "standard " + cfg.name);
}

INSTANTIATE_TEST_SUITE_P(Workloads, FusedStandardPlan,
                         ::testing::Values(1, 2, 3, 4, 5));

// --- fuzzed chains ---------------------------------------------------------

TEST(FusedFuzzTest, RandomChainsOnAdversarialBatchesMatchUnfused)
{
    constexpr size_t kNumDense = 4;
    constexpr size_t kNumSparse = 3;
    for (uint64_t seed = 0; seed < 40; ++seed) {
        std::mt19937_64 rng(0x9e3779b97f4a7c15ull + seed);
        const TransformPlan plan = fuzzPlan(kNumDense, kNumSparse, rng);
        const size_t rows = rng() % 200;  // empty batches included
        const RowBatch raw = fuzzBatch(kNumDense, kNumSparse, rows, rng);
        ASSERT_TRUE(plan.validate(raw.schema()).ok()) << "seed " << seed;
        const PlanExecutor exec(plan, raw.schema());
        expectFusedMatchesUnfusedEverywhere(
            exec, raw, "fuzz seed " + std::to_string(seed));
    }
}

// --- targeted edge cases ---------------------------------------------------

TEST(FusedEdgeCaseTest, NanDenormalAndInfinityPropagation)
{
    // One column holding every IEEE754 special bucket, through the three
    // chain shapes whose NaN behaviour differs: Fill replaces NaN, Log
    // feeds max(x, 0) into log1p, Clamp passes NaN through its blend.
    const Schema schema = Schema::makeRecSys(1, 0);
    std::vector<float> specials{
        std::numeric_limits<float>::quiet_NaN(),
        std::bit_cast<float>(0x7fc00001u),  // NaN, nonzero payload
        std::bit_cast<float>(0xffc01234u),  // negative NaN
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::bit_cast<float>(0x007fffffu),  // largest denormal
        -0.0f,
        0.0f,
        std::numeric_limits<float>::max(),
        std::numeric_limits<float>::lowest(),
        1.5f,
        -2.5f,
    };
    const std::vector<std::vector<DenseOp>> chains{
        {DenseOp::fillMissing(0.0f)},
        {DenseOp::log()},
        {DenseOp::clamp(-1.0f, 1.0f)},
        {DenseOp::fillMissing(-3.5f), DenseOp::log()},
        {DenseOp::clamp(0.0f, 10.0f), DenseOp::fillMissing(7.0f),
         DenseOp::log()},
        {},  // pure copy must preserve every payload bit
    };
    for (size_t c = 0; c < chains.size(); ++c) {
        RowBatch batch(schema);
        batch.addColumn(
            DenseColumn(std::vector<float>(specials.size(), 1.0f)));
        batch.addColumn(DenseColumn(specials));
        TransformPlan plan;
        PlanOutput out;
        out.kind = PlanOutput::Kind::kDense;
        out.output_name = "d";
        out.source_feature = "dense_0";
        out.dense_ops = chains[c];
        plan.add(std::move(out));
        const PlanExecutor exec(plan, schema);
        expectFusedMatchesUnfusedEverywhere(
            exec, batch, "specials chain " + std::to_string(c));
    }
}

TEST(FusedEdgeCaseTest, EmptyBatchAndEmptyRows)
{
    const RmConfig cfg = []() {
        RmConfig c = rmConfig(1);
        c.num_dense = 2;
        c.num_sparse = 2;
        c.num_generated = 1;
        return c;
    }();
    // Zero rows end to end.
    {
        RowBatch batch(Schema::makeRecSys(2, 2));
        batch.addColumn(DenseColumn(std::vector<float>{}));
        batch.addColumn(DenseColumn(std::vector<float>{}));
        batch.addColumn(DenseColumn(std::vector<float>{}));
        batch.addColumn(SparseColumn({}, {0}));
        batch.addColumn(SparseColumn({}, {0}));
        const PlanExecutor exec(TransformPlan::standard(cfg),
                                batch.schema());
        expectFusedMatchesUnfusedEverywhere(exec, batch, "zero rows");
    }
    // Rows present but every sparse row empty.
    {
        RowBatch batch(Schema::makeRecSys(2, 2));
        batch.addColumn(DenseColumn(std::vector<float>(5, 1.0f)));
        batch.addColumn(DenseColumn(std::vector<float>(5, 2.0f)));
        batch.addColumn(DenseColumn(std::vector<float>(5, 3.0f)));
        batch.addColumn(SparseColumn({}, {0, 0, 0, 0, 0, 0}));
        batch.addColumn(SparseColumn({}, {0, 0, 0, 0, 0, 0}));
        const PlanExecutor exec(TransformPlan::standard(cfg),
                                batch.schema());
        expectFusedMatchesUnfusedEverywhere(exec, batch, "empty rows");
    }
}

TEST(FusedEdgeCaseTest, HashMaxValueOneAndFirstXCaps)
{
    const Schema schema = Schema::makeRecSys(1, 1);
    RowBatch batch(schema);
    batch.addColumn(DenseColumn(std::vector<float>(9, 1.0f)));
    batch.addColumn(DenseColumn(std::vector<float>(9, 4.25f)));
    std::vector<uint32_t> offsets{0, 3, 3, 7, 8, 12, 12, 15, 20, 22};
    std::vector<int64_t> ids(offsets.back());
    std::mt19937_64 rng(11);
    for (auto& id : ids)
        id = fuzzId(rng);
    batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));

    // max_value == 1: every id must hash to 0 (the vector Barrett
    // reduction has a dedicated guard for the divisor-one case).
    {
        TransformPlan plan;
        PlanOutput out;
        out.kind = PlanOutput::Kind::kSparse;
        out.output_name = "one";
        out.source_feature = "sparse_0";
        out.sparse_ops = {SparseOp::sigridHash(42, 1)};
        plan.add(std::move(out));
        const PlanExecutor exec(plan, schema);
        expectFusedMatchesUnfusedEverywhere(exec, batch, "hash max 1");
        const MiniBatch mb = exec.run(batch);
        for (int64_t v : mb.sparse[0].values)
            EXPECT_EQ(v, 0);
    }
    // FirstX caps 0 and 1 on raw and generated outputs; FirstX after
    // the hash must commute into the compiled prefix cap bit-exactly.
    for (const size_t cap : {size_t{0}, size_t{1}, size_t{2}}) {
        TransformPlan plan;
        {
            PlanOutput out;
            out.kind = PlanOutput::Kind::kSparse;
            out.output_name = "s";
            out.source_feature = "sparse_0";
            out.sparse_ops = {SparseOp::sigridHash(7, 1000),
                              SparseOp::firstX(cap)};
            plan.add(std::move(out));
        }
        {
            PlanOutput out;
            out.kind = PlanOutput::Kind::kGenerated;
            out.output_name = "g";
            out.source_feature = "dense_0";
            out.bucket_boundaries = 64;
            out.sparse_ops = {SparseOp::firstX(cap),
                              SparseOp::sigridHash(9, 500)};
            plan.add(std::move(out));
        }
        const PlanExecutor exec(plan, schema);
        expectFusedMatchesUnfusedEverywhere(
            exec, batch, "firstX cap " + std::to_string(cap));
        const MiniBatch mb = exec.run(batch);
        for (uint32_t len : mb.sparse[0].lengths)
            EXPECT_LE(len, cap);
        for (uint32_t len : mb.sparse[1].lengths)
            EXPECT_LE(len, std::min(cap, size_t{1}));
    }
}

// --- over-long chains run fused, same results ------------------------------

TEST(OverlongChainTest, RunAndRangeEntryPointsMatchUnfusedAtEveryLevel)
{
    // 24 f32 ops that simplification cannot fold (a log separates every
    // two clamps) and 48 hash ops, in dense, sparse and generated
    // outputs: the tiers hoist every op's constants, whatever the chain
    // length. 203 rows: off every tile multiple, so tails run too.
    constexpr size_t kRows = 203;
    const Schema schema = Schema::makeRecSys(1, 1);
    std::mt19937_64 rng(5);
    RowBatch batch(schema);
    batch.addColumn(DenseColumn(std::vector<float>(kRows, 1.0f)));
    std::vector<float> values(kRows);
    for (auto& v : values)
        v = fuzzFloat(rng);
    batch.addColumn(DenseColumn(std::move(values)));
    std::vector<uint32_t> offsets(kRows + 1, 0);
    for (size_t r = 0; r < kRows; ++r)
        offsets[r + 1] = offsets[r] + static_cast<uint32_t>(rng() % 4);
    std::vector<int64_t> ids(offsets.back());
    for (auto& id : ids)
        id = fuzzId(rng);
    batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));

    std::vector<DenseOp> long_f32;
    for (size_t k = 0; k < 24; ++k) {
        if (k % 2 == 0)
            long_f32.push_back(DenseOp::log());
        else
            long_f32.push_back(DenseOp::clamp(
                -1000.0f + static_cast<float>(k), 1000.0f));
    }
    std::vector<SparseOp> long_hash;
    // Divisors on both sides of the AVX-512 switch from the reciprocal
    // reduction (d <= 2^25) to Barrett; all large, so no op collapses
    // the id range for the ops after it.
    const int64_t divisors[] = {999983, int64_t{1} << 25, 33554431,
                                int64_t{1} << 26, (int64_t{1} << 40) + 7};
    for (uint64_t k = 0; k < 48; ++k)
        long_hash.push_back(SparseOp::sigridHash(k, divisors[k % 5]));
    TransformPlan plan;
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kDense;
        out.output_name = "d";
        out.source_feature = "dense_0";
        out.dense_ops = long_f32;
        plan.add(std::move(out));
    }
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kSparse;
        out.output_name = "s";
        out.source_feature = "sparse_0";
        out.sparse_ops = long_hash;
        plan.add(std::move(out));
    }
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kGenerated;
        out.output_name = "g";
        out.source_feature = "dense_0";
        out.dense_ops = long_f32;
        out.bucket_boundaries = 256;
        out.sparse_ops = long_hash;
        plan.add(std::move(out));
    }
    const PlanExecutor exec(plan, schema);
    const CompiledProgram& prog = exec.program();
    for (const CompiledOutput& out : prog.outputs()) {
        if (out.kind != PlanOutput::Kind::kSparse)
            EXPECT_EQ(out.num_f32, 24u) << out.name << " was folded";
        if (out.kind != PlanOutput::Kind::kDense)
            EXPECT_EQ(out.num_hash, 48u) << out.name;
    }
    expectFusedMatchesUnfusedEverywhere(exec, batch, "overlong chains");

    // The chunk-granular entry points the ISP emulator drives.
    MiniBatch oracle;
    {
        ScopedSimdLevel scoped(SimdLevel::kScalar);
        oracle = exec.runUnfused(batch);
    }
    const auto& dense_src = batch.dense(prog.outputs()[0].source).values();
    const auto& sparse_src = batch.sparse(prog.outputs()[1].source).values();
    constexpr size_t kChunk = 37;
    for (SimdLevel level : availableLevels()) {
        ScopedSimdLevel scoped(level);
        MiniBatch mb;
        mb.batch_size = kRows;
        mb.num_dense = prog.numDense();
        mb.dense.assign(kRows * prog.numDense(), 0.0f);
        mb.sparse.resize(2);
        mb.sparse[0].values.assign(sparse_src.size(), -1);
        mb.sparse[1].values.assign(kRows, -1);
        for (size_t pos = 0; pos < kRows; pos += kChunk) {
            const size_t len = std::min(kChunk, kRows - pos);
            prog.runDenseRange(prog.outputs()[0], dense_src.data() + pos,
                               len, mb.dense.data() + pos * prog.numDense(),
                               prog.numDense());
            prog.runGeneratedRange(prog.outputs()[2],
                                   dense_src.data() + pos, len,
                                   mb.sparse[1].values.data() + pos);
        }
        for (size_t pos = 0; pos < sparse_src.size(); pos += kChunk) {
            const size_t len = std::min(kChunk, sparse_src.size() - pos);
            prog.runHashRange(prog.outputs()[1], sparse_src.data() + pos,
                              len, mb.sparse[0].values.data() + pos);
        }
        const std::string where =
            std::string("ranges level=") + simdLevelName(level);
        ASSERT_EQ(mb.dense.size(), oracle.dense.size()) << where;
        for (size_t i = 0; i < oracle.dense.size(); ++i) {
            ASSERT_EQ(std::bit_cast<uint32_t>(mb.dense[i]),
                      std::bit_cast<uint32_t>(oracle.dense[i]))
                << where << " dense[" << i << "]";
        }
        EXPECT_EQ(mb.sparse[0].values, oracle.sparse[0].values) << where;
        EXPECT_EQ(mb.sparse[1].values, oracle.sparse[1].values) << where;
    }
}

// --- chain-level algebraic simplification ----------------------------------

namespace {

OpInstr
fillInstr(float v)
{
    OpInstr i;
    i.op = OpCode::kFill;
    i.a = v;
    return i;
}

OpInstr
clampInstr(float lo, float hi)
{
    OpInstr i;
    i.op = OpCode::kClamp;
    i.a = lo;
    i.b = hi;
    return i;
}

OpInstr
logInstr()
{
    OpInstr i;
    i.op = OpCode::kLog;
    return i;
}

}  // namespace

TEST(SimplifyTest, OverlongFoldableClampChainCompilesFusedAndMatches)
{
    // A chain of 20 adjacent clamps folds to one clamp at compile time
    // and must stay bit-identical to the reference one-pass-per-operator
    // execution on adversarial floats.
    const Schema schema = Schema::makeRecSys(1, 0);
    std::mt19937_64 rng(11);
    RowBatch batch(schema);
    batch.addColumn(DenseColumn(std::vector<float>(256, 1.0f)));
    std::vector<float> values(256);
    for (auto& v : values)
        v = fuzzFloat(rng);
    batch.addColumn(DenseColumn(std::move(values)));

    TransformPlan plan;
    PlanOutput out;
    out.kind = PlanOutput::Kind::kDense;
    out.output_name = "d";
    out.source_feature = "dense_0";
    for (size_t k = 0; k < 20; ++k) {
        out.dense_ops.push_back(
            DenseOp::clamp(-1000.0f + static_cast<float>(k), 1000.0f));
    }
    plan.add(std::move(out));

    const PlanExecutor exec(plan, schema);
    const CompiledOutput& compiled = exec.program().outputs()[0];
    EXPECT_EQ(compiled.num_f32, 1u);
    EXPECT_EQ(compiled.unsimplified_f32, 20u);
    EXPECT_NE(exec.program().disassemble().find("simplified 20 -> 1"),
              std::string::npos);
    expectFusedMatchesUnfusedEverywhere(exec, batch, "folded clamps");
}

TEST(SimplifyTest, FillChainsSimplifyAndStayBitIdentical)
{
    // fill(NaN);fill(5) collapses to fill(5); the later fill(7) is dead
    // (no NaN survives fill(5) through a non-NaN-bound clamp). Executed
    // results must be bit-identical on NaN-payload inputs everywhere.
    const Schema schema = Schema::makeRecSys(1, 0);
    std::mt19937_64 rng(13);
    RowBatch batch(schema);
    batch.addColumn(DenseColumn(std::vector<float>(256, 1.0f)));
    std::vector<float> values(256);
    for (auto& v : values)
        v = fuzzFloat(rng);
    batch.addColumn(DenseColumn(std::move(values)));

    TransformPlan plan;
    PlanOutput out;
    out.kind = PlanOutput::Kind::kDense;
    out.output_name = "d";
    out.source_feature = "dense_0";
    out.dense_ops = {
        DenseOp::fillMissing(std::numeric_limits<float>::quiet_NaN()),
        DenseOp::fillMissing(5.0f), DenseOp::clamp(0.0f, 1.0f),
        DenseOp::fillMissing(7.0f)};
    plan.add(std::move(out));

    const PlanExecutor exec(plan, schema);
    const CompiledOutput& compiled = exec.program().outputs()[0];
    EXPECT_EQ(compiled.num_f32, 2u);
    EXPECT_EQ(compiled.unsimplified_f32, 4u);
    expectFusedMatchesUnfusedEverywhere(exec, batch, "fill chains");
}

TEST(SimplifyTest, SimplifyF32ChainUnits)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();

    // Adjacent clamps fold with exact bound arithmetic.
    {
        const auto got = simplifyF32Chain(
            {clampInstr(-5.0f, 10.0f), clampInstr(0.0f, 8.0f)});
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].a, 0.0f);
        EXPECT_EQ(got[0].b, 8.0f);
    }
    // A NaN bound blocks the fold: NaN-bound clamp semantics are
    // tier-dependent and must execute as written.
    {
        const auto got = simplifyF32Chain(
            {clampInstr(0.0f, nan), clampInstr(1.0f, 2.0f)});
        EXPECT_EQ(got.size(), 2u);
    }
    // fill(NaN) with no earlier fill rewrites NaN payloads: kept.
    {
        const auto got = simplifyF32Chain({fillInstr(nan)});
        EXPECT_EQ(got.size(), 1u);
    }
    // fill(NaN);fill(b): the earlier fill is dominated and dropped.
    {
        const auto got =
            simplifyF32Chain({fillInstr(nan), fillInstr(3.0f)});
        ASSERT_EQ(got.size(), 1u);
        EXPECT_EQ(got[0].op, OpCode::kFill);
        EXPECT_EQ(got[0].a, 3.0f);
    }
    // A fill behind a non-NaN fill and NaN-free ops is dead.
    {
        const auto got = simplifyF32Chain(
            {fillInstr(1.0f), logInstr(), fillInstr(2.0f)});
        ASSERT_EQ(got.size(), 2u);
        EXPECT_EQ(got[0].op, OpCode::kFill);
        EXPECT_EQ(got[1].op, OpCode::kLog);
    }
    // ...but live when a NaN-bound clamp intervenes (it can pass NaN
    // through on some tiers — conservatively keep the later fill).
    {
        const auto got = simplifyF32Chain(
            {fillInstr(1.0f), clampInstr(0.0f, nan), fillInstr(2.0f)});
        EXPECT_EQ(got.size(), 3u);
    }
}

// --- validate-once contract ------------------------------------------------

TEST(ValidateOnceTest, CompileValidatesOnceAndCachedRunsNeverRevalidate)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 64;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);

    const uint64_t before = planValidationCount();
    const PlanExecutor exec(TransformPlan::standard(cfg), raw.schema());
    EXPECT_EQ(planValidationCount(), before + 1)
        << "compiling must validate exactly once";

    MiniBatch mb;
    BatchArena arena;
    for (int i = 0; i < 6; ++i) {
        exec.run(raw);
        exec.runInto(raw, mb, arena);
    }
    EXPECT_EQ(planValidationCount(), before + 1)
        << "running a cached program must not re-validate the plan";

    // The Preprocessor fast path rides the same contract.
    const Preprocessor pre(cfg);
    const uint64_t compiled = planValidationCount();
    for (int i = 0; i < 4; ++i)
        pre.preprocessInto(raw, mb, arena);
    EXPECT_EQ(planValidationCount(), compiled);
}

}  // namespace
}  // namespace presto
