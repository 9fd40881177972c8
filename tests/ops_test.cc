/**
 * @file
 * Tests for the preprocessing operators (Algorithms 1 & 2 and friends)
 * and the end-to-end Transform pipeline, including oracle-based property
 * sweeps.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.h"
#include "common/stats.h"
#include "datagen/generator.h"
#include "ops/hash.h"
#include "ops/ops.h"
#include "ops/preprocessor.h"

namespace presto {
namespace {

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// --- BucketBoundaries / Bucketize ------------------------------------------------

TEST(BucketBoundariesTest, SearchMatchesUpperBoundOracle)
{
    const std::vector<float> b = {1.0f, 2.0f, 4.0f, 8.0f};
    BucketBoundaries bounds(b);
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const float v = static_cast<float>(rng.uniform(-2.0, 12.0));
        const auto oracle = std::upper_bound(b.begin(), b.end(), v) -
                            b.begin();
        EXPECT_EQ(bounds.searchBucketId(v), oracle) << "value " << v;
    }
}

TEST(BucketBoundariesTest, ExactBoundaryValuesGoRight)
{
    BucketBoundaries bounds({1.0f, 2.0f, 3.0f});
    // upper_bound semantics: v == boundary falls into the next bucket.
    EXPECT_EQ(bounds.searchBucketId(1.0f), 1);
    EXPECT_EQ(bounds.searchBucketId(2.0f), 2);
    EXPECT_EQ(bounds.searchBucketId(3.0f), 3);
}

TEST(BucketBoundariesTest, ExtremesAndSpecials)
{
    BucketBoundaries bounds({0.0f, 10.0f});
    EXPECT_EQ(bounds.searchBucketId(-kInf), 0);
    EXPECT_EQ(bounds.searchBucketId(kInf), 2);
    // Missing values (NaN) deterministically land in the first bucket.
    EXPECT_EQ(bounds.searchBucketId(kNaN), 0);
    BucketBoundaries big = BucketBoundaries::makeLogSpaced(128, 1.f, 10.f);
    EXPECT_EQ(big.searchBucketId(kNaN), 0);
}

TEST(BucketBoundariesTest, IdsCoverZeroToM)
{
    const size_t m = 64;
    BucketBoundaries bounds =
        BucketBoundaries::makeLogSpaced(m, 0.1f, 100.0f);
    EXPECT_EQ(bounds.searchBucketId(0.01f), 0);
    EXPECT_EQ(bounds.searchBucketId(1e6f), static_cast<int64_t>(m));
}

class LogSpacedBoundariesTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(LogSpacedBoundariesTest, StrictlyIncreasing)
{
    const size_t m = GetParam();
    BucketBoundaries bounds =
        BucketBoundaries::makeLogSpaced(m, 0.02f, 3000.0f);
    ASSERT_EQ(bounds.size(), m);
    const auto v = bounds.values();
    for (size_t i = 1; i < v.size(); ++i)
        EXPECT_LT(v[i - 1], v[i]) << "at index " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LogSpacedBoundariesTest,
                         ::testing::Values(1, 2, 1024, 2048, 4096, 65536));

TEST(BucketBoundariesDeathTest, UnsortedPanics)
{
    EXPECT_DEATH(BucketBoundaries({2.0f, 1.0f}), "sorted");
}

TEST(BucketBoundariesDeathTest, EmptyPanics)
{
    EXPECT_DEATH(BucketBoundaries(std::vector<float>{}),
                 "at least one boundary");
}

TEST(BucketBoundariesDeathTest, BadLogRangePanics)
{
    EXPECT_DEATH(BucketBoundaries::makeLogSpaced(4, -1.0f, 2.0f),
                 "0 < lo < hi");
    EXPECT_DEATH(BucketBoundaries::makeLogSpaced(4, 2.0f, 1.0f),
                 "0 < lo < hi");
}

TEST(BucketizeTest, ProducesOneIdPerRow)
{
    DenseColumn input({0.5f, 5.0f, 50.0f});
    BucketBoundaries bounds({1.0f, 10.0f});
    SparseColumn out = bucketize(input, bounds);
    ASSERT_EQ(out.numRows(), 3u);
    EXPECT_EQ(out.row(0)[0], 0);
    EXPECT_EQ(out.row(1)[0], 1);
    EXPECT_EQ(out.row(2)[0], 2);
    for (size_t r = 0; r < out.numRows(); ++r)
        EXPECT_EQ(out.rowLength(r), 1u);
}

TEST(BucketizeDeathTest, OutputSizeMismatchPanics)
{
    const std::vector<float> in(4, 1.0f);
    std::vector<int64_t> out(3);
    BucketBoundaries bounds({1.0f});
    EXPECT_DEATH(bucketizeInto(in, bounds, out), "size mismatch");
}

// --- SigridHash ---------------------------------------------------------------------

TEST(SigridHashTest, DeterministicAndSeedSensitive)
{
    EXPECT_EQ(sigridHash64(42, 1), sigridHash64(42, 1));
    EXPECT_NE(sigridHash64(42, 1), sigridHash64(42, 2));
    EXPECT_NE(sigridHash64(42, 1), sigridHash64(43, 1));
}

TEST(SigridHashTest, AvalancheOnInputBit)
{
    int total_bits = 0;
    for (int bit = 0; bit < 16; ++bit) {
        total_bits += std::popcount(sigridHash64(1ULL << bit, 7) ^
                                    sigridHash64(0, 7));
    }
    // Average ~32 flipped bits per single-bit input change.
    EXPECT_GT(total_bits / 16, 24);
    EXPECT_LT(total_bits / 16, 40);
}

class SigridHashRangeTest : public ::testing::TestWithParam<int64_t>
{
};

TEST_P(SigridHashRangeTest, AllOutputsWithinTableSize)
{
    const int64_t max = GetParam();
    Rng rng(3);
    for (int i = 0; i < 5000; ++i) {
        const auto v = static_cast<int64_t>(rng.next() >> 1);
        const int64_t h = sigridHashMod(v, 99, max);
        EXPECT_GE(h, 0);
        EXPECT_LT(h, max);
    }
}

INSTANTIATE_TEST_SUITE_P(TableSizes, SigridHashRangeTest,
                         ::testing::Values(1, 2, 1000, 500000,
                                           int64_t{1} << 40));

TEST(SigridHashTest, OutputRoughlyUniform)
{
    const int64_t max = 16;
    std::vector<int> counts(max, 0);
    const int n = 160000;
    for (int i = 0; i < n; ++i)
        ++counts[sigridHashMod(i, 5, max)];
    for (int c : counts)
        EXPECT_NEAR(c, n / max, n / max * 0.1);
}

TEST(SigridHashTest, ColumnPreservesOffsets)
{
    SparseColumn col({10, 20, 30, 40}, {0, 1, 1, 4});
    SparseColumn out = sigridHash(col, 7, 100);
    EXPECT_TRUE(std::equal(out.offsets().begin(), out.offsets().end(),
                           col.offsets().begin()));
    for (int64_t v : out.values()) {
        EXPECT_GE(v, 0);
        EXPECT_LT(v, 100);
    }
}

TEST(SigridHashTest, SameIdHashesSameWithinSeed)
{
    SparseColumn col({42, 42, 42}, {0, 1, 2, 3});
    SparseColumn out = sigridHash(col, 9, 1000);
    EXPECT_EQ(out.values()[0], out.values()[1]);
    EXPECT_EQ(out.values()[1], out.values()[2]);
}

TEST(SigridHashTest, NegativeIdsStayInRange)
{
    // Raw logged ids are non-negative in practice, but the operator must
    // be total over int64.
    for (int64_t v : {int64_t{-1}, int64_t{-123456789},
                      std::numeric_limits<int64_t>::min()}) {
        const int64_t h = sigridHashMod(v, 3, 1000);
        EXPECT_GE(h, 0);
        EXPECT_LT(h, 1000);
    }
}

TEST(SigridHashDeathTest, NonPositiveMaxPanics)
{
    std::vector<int64_t> v{1};
    EXPECT_DEATH(sigridHashInPlace(v, 1, 0), "positive");
}

// --- Log / FillMissing / Clamp / FirstX -----------------------------------------------

TEST(LogTransformTest, MatchesLog1p)
{
    DenseColumn col({0.0f, 1.0f, 99.0f});
    DenseColumn out = logTransform(col);
    EXPECT_FLOAT_EQ(out.value(0), 0.0f);
    EXPECT_FLOAT_EQ(out.value(1), std::log1p(1.0f));
    EXPECT_FLOAT_EQ(out.value(2), std::log1p(99.0f));
}

TEST(LogTransformTest, NegativesClampToZero)
{
    DenseColumn out = logTransform(DenseColumn({-5.0f}));
    EXPECT_FLOAT_EQ(out.value(0), 0.0f);
}

TEST(LogTransformTest, NaNPropagates)
{
    DenseColumn out = logTransform(DenseColumn({kNaN}));
    EXPECT_TRUE(std::isnan(out.value(0)));
}

TEST(LogTransformTest, MonotoneOnPositives)
{
    Rng rng(4);
    float prev_in = 0.0f, prev_out = 0.0f;
    for (int i = 0; i < 100; ++i) {
        const float in = prev_in + static_cast<float>(rng.uniform());
        std::vector<float> v{in};
        logTransformInPlace(v);
        EXPECT_GT(v[0], prev_out);
        prev_in = in;
        prev_out = v[0];
    }
}

TEST(FillMissingTest, ReplacesOnlyNaNs)
{
    DenseColumn out =
        fillMissing(DenseColumn({1.0f, kNaN, -2.0f, kNaN}), 7.0f);
    EXPECT_FLOAT_EQ(out.value(0), 1.0f);
    EXPECT_FLOAT_EQ(out.value(1), 7.0f);
    EXPECT_FLOAT_EQ(out.value(2), -2.0f);
    EXPECT_FLOAT_EQ(out.value(3), 7.0f);
}

TEST(FillMissingTest, InfinityIsNotMissing)
{
    DenseColumn out = fillMissing(DenseColumn({kInf}), 0.0f);
    EXPECT_EQ(out.value(0), kInf);
}

TEST(ClampTest, ClampsBothEnds)
{
    DenseColumn out = clamp(DenseColumn({-1.0f, 0.5f, 2.0f}), 0.0f, 1.0f);
    EXPECT_FLOAT_EQ(out.value(0), 0.0f);
    EXPECT_FLOAT_EQ(out.value(1), 0.5f);
    EXPECT_FLOAT_EQ(out.value(2), 1.0f);
}

TEST(ClampDeathTest, InvertedRangePanics)
{
    EXPECT_DEATH(clamp(DenseColumn({1.0f}), 2.0f, 1.0f), "inverted");
}

TEST(FirstXTest, TruncatesLongRows)
{
    SparseColumn col({1, 2, 3, 4, 5}, {0, 3, 5});
    SparseColumn out = firstX(col, 2);
    EXPECT_EQ(out.rowLength(0), 2u);
    EXPECT_EQ(out.row(0)[1], 2);
    EXPECT_EQ(out.rowLength(1), 2u);
}

TEST(FirstXTest, ShortRowsUntouched)
{
    SparseColumn col({1}, {0, 1, 1});
    SparseColumn out = firstX(col, 5);
    EXPECT_EQ(out.rowLength(0), 1u);
    EXPECT_EQ(out.rowLength(1), 0u);
}

// --- MapIdList --------------------------------------------------------------------------

TEST(MapIdListTest, MapsKnownIdsToVocabIndex)
{
    IdVocabulary vocab({100, 50, 200});  // sorted internally: 50,100,200
    EXPECT_EQ(vocab.size(), 3u);
    EXPECT_EQ(vocab.lookup(50), 0);
    EXPECT_EQ(vocab.lookup(100), 1);
    EXPECT_EQ(vocab.lookup(200), 2);
    EXPECT_EQ(vocab.lookup(51), -1);
}

TEST(MapIdListTest, UnknownIdsGetMissValue)
{
    IdVocabulary vocab({10, 20});
    SparseColumn col({10, 99, 20}, {0, 2, 3});
    SparseColumn out = mapIdList(col, vocab, -7);
    EXPECT_EQ(out.row(0)[0], 0);
    EXPECT_EQ(out.row(0)[1], -7);
    EXPECT_EQ(out.row(1)[0], 1);
    EXPECT_TRUE(std::equal(out.offsets().begin(), out.offsets().end(),
                           col.offsets().begin()));
}

TEST(MapIdListTest, EmptyVocabularyMapsEverythingToMiss)
{
    IdVocabulary vocab(std::vector<int64_t>{});
    SparseColumn col({1, 2}, {0, 2});
    SparseColumn out = mapIdList(col, vocab, 0);
    EXPECT_EQ(out.row(0)[0], 0);
    EXPECT_EQ(out.row(0)[1], 0);
}

TEST(MapIdListDeathTest, DuplicateVocabIdsPanic)
{
    EXPECT_DEATH(IdVocabulary({5, 5}), "distinct");
}

// --- Preprocessor (full Transform) ------------------------------------------------------

RmConfig
smallConfig()
{
    RmConfig cfg = rmConfig(2);
    cfg.batch_size = 128;
    cfg.num_dense = 6;
    cfg.num_sparse = 4;
    cfg.num_generated = 3;
    cfg.num_tables = 7;
    return cfg;
}

TEST(PreprocessorTest, OutputShape)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    Preprocessor pre(cfg);
    const MiniBatch mb = pre.preprocess(gen.generatePartition(0));
    EXPECT_TRUE(mb.consistent());
    EXPECT_EQ(mb.batch_size, cfg.batch_size);
    EXPECT_EQ(mb.num_dense, cfg.num_dense);
    EXPECT_EQ(mb.sparse.size(), cfg.totalSparseFeatures());
    EXPECT_EQ(mb.labels.size(), cfg.batch_size);
}

TEST(PreprocessorTest, DenseValuesAreNormalized)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    const MiniBatch mb = Preprocessor(cfg).preprocess(
        gen.generatePartition(0));
    for (float v : mb.dense) {
        EXPECT_FALSE(std::isnan(v));  // FillMissing ran first
        EXPECT_GE(v, 0.0f);           // log1p of non-negative input
    }
}

TEST(PreprocessorTest, SparseIndicesWithinTables)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    const MiniBatch mb = Preprocessor(cfg).preprocess(
        gen.generatePartition(0));
    for (const auto& jag : mb.sparse) {
        for (int64_t v : jag.values) {
            EXPECT_GE(v, 0);
            EXPECT_LT(v, static_cast<int64_t>(cfg.avg_embeddings));
        }
    }
}

TEST(PreprocessorTest, GeneratedTablesHaveOneIdPerRow)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    const MiniBatch mb = Preprocessor(cfg).preprocess(
        gen.generatePartition(0));
    for (size_t g = 0; g < cfg.num_generated; ++g) {
        const auto& jag = mb.sparse[cfg.num_sparse + g];
        EXPECT_EQ(jag.feature_name, "generated_" + std::to_string(g));
        EXPECT_EQ(jag.values.size(), cfg.batch_size);
        for (uint32_t len : jag.lengths)
            EXPECT_EQ(len, 1u);
    }
}

TEST(PreprocessorTest, RawTableLengthsMatchInput)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const MiniBatch mb = Preprocessor(cfg).preprocess(raw);
    const auto sparse_idx =
        raw.schema().indicesOfKind(FeatureKind::kSparse);
    for (size_t f = 0; f < cfg.num_sparse; ++f) {
        const auto& col = raw.sparse(sparse_idx[f]);
        const auto& jag = mb.sparse[f];
        ASSERT_EQ(jag.lengths.size(), col.numRows());
        for (size_t r = 0; r < col.numRows(); ++r)
            EXPECT_EQ(jag.lengths[r], col.rowLength(r));
    }
}

TEST(PreprocessorTest, LabelsPassThrough)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const MiniBatch mb = Preprocessor(cfg).preprocess(raw);
    EXPECT_TRUE(std::equal(mb.labels.begin(), mb.labels.end(),
                           raw.dense(0).values().begin()));
}

TEST(PreprocessorTest, ParallelEqualsSerial)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    Preprocessor pre(cfg);
    const MiniBatch serial = pre.preprocess(raw);
    ThreadPool pool(3);
    const MiniBatch parallel = pre.preprocess(raw, &pool);
    EXPECT_EQ(serial.dense, parallel.dense);
    EXPECT_EQ(serial.labels, parallel.labels);
    ASSERT_EQ(serial.sparse.size(), parallel.sparse.size());
    for (size_t i = 0; i < serial.sparse.size(); ++i) {
        EXPECT_EQ(serial.sparse[i].values, parallel.sparse[i].values);
        EXPECT_EQ(serial.sparse[i].lengths, parallel.sparse[i].lengths);
    }
}

TEST(PreprocessorTest, DeterministicAcrossInstances)
{
    const RmConfig cfg = smallConfig();
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const MiniBatch a = Preprocessor(cfg).preprocess(raw);
    const MiniBatch b = Preprocessor(cfg).preprocess(raw);
    EXPECT_EQ(a.dense, b.dense);
    for (size_t i = 0; i < a.sparse.size(); ++i)
        EXPECT_EQ(a.sparse[i].values, b.sparse[i].values);
}

TEST(PreprocessorTest, HashSeedsDifferPerTable)
{
    Preprocessor pre(smallConfig());
    EXPECT_NE(pre.hashSeed(0), pre.hashSeed(1));
    EXPECT_EQ(pre.hashSeed(3), pre.hashSeed(3));
}

TEST(PreprocessorDeathTest, TooManyGeneratedPanics)
{
    RmConfig cfg = smallConfig();
    cfg.num_generated = cfg.num_dense + 1;
    EXPECT_DEATH(Preprocessor{cfg}, "cannot generate more");
}

// --- TransformWork -------------------------------------------------------------------------

TEST(TransformWorkTest, ExpectedCountsRm1)
{
    const TransformWork w = TransformWork::expected(rmConfig(1));
    const double batch = 8192;
    EXPECT_DOUBLE_EQ(w.dense_values, 13 * batch);
    EXPECT_DOUBLE_EQ(w.bucketize_values, 13 * batch);
    EXPECT_DOUBLE_EQ(w.bucketize_levels, 11.0);  // log2(1024)+1
    EXPECT_DOUBLE_EQ(w.hash_values, (26 + 13) * batch);
    EXPECT_DOUBLE_EQ(w.raw_values, (13 + 26 + 1) * batch);
    EXPECT_EQ(w.num_features, 1u + 13 + 39);
}

TEST(TransformWorkTest, MeasureMatchesExpectedOnAverage)
{
    RmConfig cfg = rmConfig(2);
    cfg.batch_size = 2048;
    RawDataGenerator gen(cfg);
    const TransformWork expected = TransformWork::expected(cfg);
    const TransformWork measured =
        TransformWork::measure(cfg, gen.generatePartition(0));
    EXPECT_DOUBLE_EQ(measured.dense_values, expected.dense_values);
    EXPECT_DOUBLE_EQ(measured.bucketize_values, expected.bucketize_values);
    // Sparse lengths are random; totals should agree within a few %.
    EXPECT_NEAR(measured.hash_values / expected.hash_values, 1.0, 0.05);
}

TEST(TransformWorkTest, LevelsGrowWithBucketSize)
{
    EXPECT_LT(TransformWork::expected(rmConfig(3)).bucketize_levels,
              TransformWork::expected(rmConfig(5)).bucketize_levels);
}

}  // namespace
}  // namespace presto
