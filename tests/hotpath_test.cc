/**
 * @file
 * Differential and allocation tests for the vectorized Transform hot
 * path: every SIMD tier of the op-chain VM must produce bit-identical
 * results to the reference ops in ops.h, and the steady-state
 * preprocess loop must run without per-batch heap allocations.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <ranges>
#include <string>
#include <thread>
#include <vector>

#include "columnar/columnar_file.h"
#include "common/batch_arena.h"
#include "common/crc32.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/isp_emulator.h"
#include "core/managers.h"
#include "core/partition_store.h"
#include "datagen/generator.h"
#include "ops/fast_math.h"
#include "ops/hash.h"
#include "ops/ops.h"
#include "ops/opvm_internal.h"
#include "ops/plan.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"

// --- Global allocation-counting hook --------------------------------------
// Replaces the global allocation functions for this test binary; counting
// is off unless a test arms it, so gtest's own allocations don't count.

namespace {
std::atomic<bool> g_count_allocs{false};
std::atomic<size_t> g_alloc_count{0};

void*
countedAlloc(std::size_t size)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
}  // namespace

void*
operator new(std::size_t size)
{
    return countedAlloc(size);
}

void*
operator new[](std::size_t size)
{
    return countedAlloc(size);
}

void
operator delete(void* p) noexcept
{
    std::free(p);
}

void
operator delete[](void* p) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t) noexcept
{
    std::free(p);
}

// Over-aligned types (the VM's hoisted SIMD constants) allocate through
// the align_val_t forms; count those too.
void*
operator new(std::size_t size, std::align_val_t align)
{
    if (g_count_allocs.load(std::memory_order_relaxed))
        g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    void* p = std::aligned_alloc(
        static_cast<std::size_t>(align),
        (size + static_cast<std::size_t>(align) - 1) &
            ~(static_cast<std::size_t>(align) - 1));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void*
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

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

std::vector<float>
adversarialFloats(size_t n, uint32_t seed)
{
    std::mt19937 rng(seed);
    std::vector<float> v(n);
    for (size_t i = 0; i < n; ++i) {
        switch (rng() % 8) {
          case 0: v[i] = std::numeric_limits<float>::quiet_NaN(); break;
          case 1: v[i] = std::numeric_limits<float>::infinity(); break;
          case 2: v[i] = -std::numeric_limits<float>::infinity(); break;
          case 3: v[i] = std::numeric_limits<float>::denorm_min(); break;
          case 4: v[i] = -1.0f * static_cast<float>(rng() % 1000); break;
          case 5:
            // Random bit pattern (may be NaN/inf/denormal/negative).
            v[i] = std::bit_cast<float>(static_cast<uint32_t>(rng()));
            break;
          default:
            v[i] = std::ldexp(static_cast<float>(rng()),
                              static_cast<int>(rng() % 40) - 20);
        }
    }
    return v;
}

TEST(SimdDispatchTest, DetectionIsMonotonicAndSettable)
{
    const SimdLevel detected = detectedSimdLevel();
    EXPECT_GE(detected, SimdLevel::kScalar);
    ScopedSimdLevel scoped(SimdLevel::kScalar);
    EXPECT_EQ(activeSimdLevel(), SimdLevel::kScalar);
    // Requests above the detected level clamp down.
    EXPECT_EQ(setSimdLevel(SimdLevel::kAvx512), detected);
    EXPECT_EQ(activeSimdLevel(), detected);
}

OpInstr
hashInstr(uint64_t seed, int64_t max_value)
{
    OpInstr in;
    in.op = OpCode::kHash;
    in.seed = seed;
    in.max_value = max_value;
    return in;
}

/** Bitwise float-vector equality (NaN payloads and signed zeros). */
void
expectSameBits(const std::vector<float>& got,
               const std::vector<float>& want, const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint32_t>(got[i]),
                  std::bit_cast<uint32_t>(want[i]))
            << what << " i=" << i;
    }
}

/** One f32 instruction through the VM's dense entry point, contiguous. */
std::vector<float>
runF32Op(SimdLevel level, const OpInstr& in, const std::vector<float>& src)
{
    std::vector<float> got(src.size(), -7.0f);
    opvm_detail::runDense(level, &in, 1, src.data(), src.size(),
                          got.data(), 1);
    return got;
}

TEST(HotpathDifferentialTest, SigridHashMatchesReferenceOnAllLevels)
{
    // Divisors on both sides of the AVX-512 switch from the
    // double-reciprocal reduction (d <= 2^25) to Barrett (d > 2^25),
    // plus d == 1, which every tier maps to 0.
    const std::vector<int64_t> divisors{
        1,       2,         3,        7,         1024,
        500000,  999983,    33554431, 33554432,  int64_t{1} << 26,
        (int64_t{1} << 40) + 7};
    std::mt19937_64 rng(42);
    for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                     size_t{9}, size_t{4096}}) {
        std::vector<int64_t> input(n);
        for (auto& v : input)
            v = static_cast<int64_t>(rng());
        for (int64_t d : divisors) {
            const uint64_t seed = rng();
            const OpInstr in = hashInstr(seed, d);
            std::vector<int64_t> expected(input);
            sigridHashInPlace(expected, seed, d);
            for (SimdLevel level : availableLevels()) {
                std::vector<int64_t> got(n, -1);
                opvm_detail::runSparse(level, &in, 1, input.data(), n,
                                       got.data());
                EXPECT_EQ(got, expected)
                    << "level=" << simdLevelName(level) << " d=" << d
                    << " n=" << n;
                // Aliased src/dst.
                std::vector<int64_t> inplace(input);
                opvm_detail::runSparse(level, &in, 1, inplace.data(), n,
                                       inplace.data());
                EXPECT_EQ(inplace, expected)
                    << "level=" << simdLevelName(level) << " d=" << d;
            }
        }
    }
}

TEST(HotpathDifferentialTest, LogMatchesReferenceOnAllLevels)
{
    OpInstr log;
    log.op = OpCode::kLog;
    for (size_t n : {size_t{0}, size_t{1}, size_t{15}, size_t{16},
                     size_t{17}, size_t{4096}}) {
        const auto input = adversarialFloats(n, 7 + n);
        std::vector<float> expected(input);
        logTransformInPlace(expected);
        for (SimdLevel level : availableLevels()) {
            expectSameBits(runF32Op(level, log, input), expected,
                           std::string("level=") + simdLevelName(level) +
                               " n=" + std::to_string(n));
        }
    }
}

TEST(HotpathDifferentialTest, FastLog1pNearLibm)
{
    // fastLog1p must stay within EXPECT_FLOAT_EQ's 4-ulp band of libm
    // (existing ops tests compare transformed output against std::log1p).
    const auto input = adversarialFloats(65536, 99);
    for (float v : input) {
        const float x = v < 0.0f ? 0.0f : v;
        if (std::isnan(x)) {
            EXPECT_TRUE(std::isnan(fastLog1p(x)));
            continue;
        }
        EXPECT_FLOAT_EQ(fastLog1p(x), std::log1p(x)) << "x=" << x;
    }
}

TEST(HotpathDifferentialTest, FillMissingMatchesReferenceOnAllLevels)
{
    OpInstr fill;
    fill.op = OpCode::kFill;
    fill.a = -1.5f;
    for (size_t n : {size_t{0}, size_t{3}, size_t{15}, size_t{16},
                     size_t{17}, size_t{4097}}) {
        const auto input = adversarialFloats(n, 11 + n);
        std::vector<float> expected(input);
        fillMissingInPlace(expected, -1.5f);
        for (SimdLevel level : availableLevels()) {
            expectSameBits(runF32Op(level, fill, input), expected,
                           std::string("level=") + simdLevelName(level) +
                               " n=" + std::to_string(n));
        }
    }
}

TEST(HotpathDifferentialTest, BucketizeMatchesReferenceOnAllLevels)
{
    // A generated chain with no f32 and no hash ops is a bare bucketize.
    std::mt19937 rng(23);
    for (size_t num_bounds : {size_t{1}, size_t{2}, size_t{3}, size_t{37},
                              size_t{1024}, size_t{4096}}) {
        std::vector<float> b(num_bounds);
        float acc = -100.0f;
        for (auto& v : b) {
            // Duplicate boundaries are allowed (ties exercise the
            // upper_bound-vs-lower_bound distinction).
            acc += static_cast<float>(rng() % 3);
            v = acc;
        }
        const BucketBoundaries bounds(b);
        const BucketTable table(bounds);
        for (size_t n : {size_t{0}, size_t{1}, size_t{8}, size_t{9},
                         size_t{4096}}) {
            auto values = adversarialFloats(n, 31 + n);
            // Mix in exact boundary hits.
            for (size_t i = 0; i + 2 < n; i += 3)
                values[i] = b[rng() % num_bounds];
            std::vector<int64_t> expected(n);
            bucketizeInto(values, bounds, expected);
            for (SimdLevel level : availableLevels()) {
                std::vector<int64_t> got(n, -1);
                opvm_detail::runGenerated(level, nullptr, 0, table, nullptr,
                                          0, values.data(), n, got.data());
                EXPECT_EQ(got, expected)
                    << "level=" << simdLevelName(level)
                    << " bounds=" << num_bounds << " n=" << n;
            }
            for (size_t i = 0; i < std::min(n, size_t{64}); ++i) {
                EXPECT_EQ(opvm_detail::bucketizeScalar(values[i], table),
                          expected[i]);
            }
        }
    }
}

/** Structural checksum over every tensor of a mini-batch. */
uint64_t
batchChecksum(const MiniBatch& mb)
{
    uint64_t crc = crc32c(mb.dense.data(), mb.dense.size() * sizeof(float));
    crc = crc32c(mb.labels.data(), mb.labels.size() * sizeof(float), crc);
    for (const auto& jag : mb.sparse) {
        crc = crc32c(jag.values.data(),
                     jag.values.size() * sizeof(int64_t), crc);
        crc = crc32c(jag.lengths.data(),
                     jag.lengths.size() * sizeof(uint32_t), crc);
    }
    return mix64(crc + mb.batch_size);
}

TEST(HotpathDifferentialTest, ArenaPreprocessMatchesAllocatingPath)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(3);
    const Preprocessor pre(cfg);

    ScopedSimdLevel scalar(SimdLevel::kScalar);
    const uint64_t want = batchChecksum(pre.preprocess(raw));

    for (SimdLevel level : availableLevels()) {
        ScopedSimdLevel scoped(level);
        BatchArena arena;
        MiniBatch mb;
        // Repeated reuse of the same arena + output shell must keep
        // producing the reference bits (second pass runs on recycled
        // capacity).
        for (int pass = 0; pass < 3; ++pass) {
            pre.preprocessInto(raw, mb, arena);
            EXPECT_EQ(batchChecksum(mb), want)
                << "level=" << simdLevelName(level) << " pass=" << pass;
        }
        EXPECT_EQ(arena.batches(), 3u);
    }
}

TEST(HotpathDifferentialTest, ReaderReuseMatchesFreshReader)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 256;
    RawDataGenerator gen(cfg);
    ColumnarFileWriter writer;

    ColumnarFileReader reused;
    RowBatch batch;
    for (uint64_t pid = 0; pid < 3; ++pid) {
        const auto encoded = writer.write(gen.generatePartition(pid), pid);
        ASSERT_TRUE(reused.open(encoded).ok());
        ASSERT_TRUE(reused.readAllInto(batch).ok());

        ColumnarFileReader fresh;
        ASSERT_TRUE(fresh.open(encoded).ok());
        auto fresh_batch = fresh.readAll();
        ASSERT_TRUE(fresh_batch.ok());

        ASSERT_EQ(batch.numRows(), fresh_batch->numRows());
        ASSERT_EQ(batch.numColumns(), fresh_batch->numColumns());
        for (size_t c = 0; c < batch.numColumns(); ++c) {
            if (batch.schema().feature(c).kind == FeatureKind::kSparse) {
                EXPECT_TRUE(std::ranges::equal(
                    batch.sparse(c).values(),
                    fresh_batch->sparse(c).values()));
                EXPECT_TRUE(std::ranges::equal(
                    batch.sparse(c).offsets(),
                    fresh_batch->sparse(c).offsets()));
            } else {
                // Bitwise compare: raw dense columns carry NaN missing
                // values, which float == would reject.
                EXPECT_TRUE(std::ranges::equal(
                    batch.dense(c).values(),
                    fresh_batch->dense(c).values(),
                    [](float a, float b) {
                        return std::bit_cast<uint32_t>(a) ==
                               std::bit_cast<uint32_t>(b);
                    }));
            }
        }
        EXPECT_EQ(reused.bytesTouched(), fresh.bytesTouched());
    }
}

TEST(ZeroAllocTest, SteadyStatePreprocessLoopDoesNotAllocate)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);
    const Preprocessor pre(cfg);

    ColumnarFileReader reader;
    RowBatch raw;
    BatchArena arena;
    MiniBatch mb;
    // Warm-up sizes every buffer (arena slots, decode scratch, output
    // tensors); repeat so amortized growth is done too.
    for (int warm = 0; warm < 3; ++warm) {
        ASSERT_TRUE(reader.open(encoded).ok());
        ASSERT_TRUE(reader.readAllInto(raw).ok());
        pre.preprocessInto(raw, mb, arena);
    }
    const uint64_t want = batchChecksum(mb);

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i) {
        all_ok = all_ok && reader.open(encoded).ok();
        all_ok = all_ok && reader.readAllInto(raw).ok();
        pre.preprocessInto(raw, mb, arena);
    }
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state fetch+decode+transform loop heap-allocated";
    EXPECT_EQ(batchChecksum(mb), want);
}

TEST(ZeroAllocTest, SteadyStatePlanExecutorRunIntoDoesNotAllocate)
{
    // The fused bytecode VM behind PlanExecutor (and Preprocessor) must
    // stream values register-to-register: once buffers are sized, a
    // compiled plan's runInto performs zero heap allocations per batch.
    // The plan carries over-long chains too (48 hash ops, 24 unfoldable
    // f32 ops): their hoisted constants reuse the warm per-thread
    // scratch.
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    TransformPlan plan = TransformPlan::standard(cfg);
    std::vector<DenseOp> long_f32;
    for (size_t k = 0; k < 24; ++k) {
        long_f32.push_back(k % 2 == 0 ? DenseOp::log()
                                      : DenseOp::clamp(-1.0f, 50.0f));
    }
    std::vector<SparseOp> long_hash;
    for (uint64_t k = 0; k < 48; ++k)
        long_hash.push_back(SparseOp::sigridHash(k, 1000 + 7 * k));
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kDense;
        out.output_name = "long_dense";
        out.source_feature = "dense_0";
        out.dense_ops = long_f32;
        plan.add(std::move(out));
    }
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kSparse;
        out.output_name = "long_sparse";
        out.source_feature = "sparse_0";
        out.sparse_ops = long_hash;
        plan.add(std::move(out));
    }
    {
        PlanOutput out;
        out.kind = PlanOutput::Kind::kGenerated;
        out.output_name = "long_generated";
        out.source_feature = "dense_1";
        out.dense_ops = long_f32;
        out.bucket_boundaries = 1024;
        out.sparse_ops = long_hash;
        plan.add(std::move(out));
    }
    const PlanExecutor exec(plan, raw.schema());

    MiniBatch mb;
    BatchArena arena;
    for (int warm = 0; warm < 3; ++warm)
        exec.runInto(raw, mb, arena);
    const uint64_t want = batchChecksum(mb);

    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i)
        exec.runInto(raw, mb, arena);
    g_count_allocs.store(false);

    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "fused-VM steady-state runInto heap-allocated";
    EXPECT_EQ(batchChecksum(mb), want);
}

TEST(ZeroAllocTest, SteadyStateDecodeLoopCoversEveryIntEncoding)
{
    // A file whose pages exercise the breadth of the integer encodings
    // (bit-packed dictionaries, RLE lengths, delta offsets, varints):
    // serial decode of all of them must stay allocation-free once the
    // reader's scratch buffers are warm.
    Schema schema;
    schema.add({"label", FeatureKind::kDense});
    schema.add({"few_distinct", FeatureKind::kSparse});
    schema.add({"monotone", FeatureKind::kSparse});
    schema.add({"uniform", FeatureKind::kSparse});
    schema.add({"runs", FeatureKind::kSparse});
    RowBatch batch(schema);
    constexpr size_t kRows = 4096;
    std::mt19937_64 rng(17);
    std::vector<float> labels(kRows);
    for (auto& l : labels)
        l = static_cast<float>(rng() % 2);
    batch.addColumn(DenseColumn(std::move(labels)));
    for (int shape = 0; shape < 4; ++shape) {
        std::vector<int64_t> ids;
        std::vector<uint32_t> offsets{0};
        int64_t acc = 0;
        for (size_t i = 0; i < kRows; ++i) {
            for (size_t j = 0; j < 3; ++j) {
                switch (shape) {
                  case 0:
                    ids.push_back(
                        static_cast<int64_t>(rng() % 11) * 999'983);
                    break;
                  case 1:
                    acc += static_cast<int64_t>(rng() % 50);
                    ids.push_back(acc);
                    break;
                  case 2:
                    ids.push_back(static_cast<int64_t>(rng()));
                    break;
                  default:
                    // Long runs over a multi-bit value range: RLE beats
                    // bit-packing here (width-0 packing only wins for
                    // genuinely constant pages, like the lengths).
                    ids.push_back(
                        static_cast<int64_t>((ids.size() / 113) % 5));
                    break;
                }
            }
            offsets.push_back(static_cast<uint32_t>(ids.size()));
        }
        batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));
    }
    const auto encoded = ColumnarFileWriter().write(batch, 0);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(encoded).ok());
    std::vector<bool> seen(7, false);
    for (const auto& col : reader.footer().columns) {
        for (const auto& stream : col.streams) {
            size_t pos = stream.offset;
            for (uint32_t p = 0; p < stream.num_pages; ++p) {
                PageView page;
                ASSERT_TRUE(scanPageFrame(encoded, pos, page).ok());
                seen[static_cast<size_t>(page.encoding)] = true;
            }
        }
    }
    EXPECT_TRUE(seen[static_cast<size_t>(Encoding::kBitPacked)])
        << "few-distinct ids were expected to choose kBitPacked";
    EXPECT_TRUE(seen[static_cast<size_t>(Encoding::kRle)]);
    EXPECT_TRUE(seen[static_cast<size_t>(Encoding::kPlainI64)]);

    RowBatch raw;
    for (int warm = 0; warm < 3; ++warm) {
        ASSERT_TRUE(reader.open(encoded).ok());
        ASSERT_TRUE(reader.readAllInto(raw).ok());
    }
    ASSERT_EQ(raw, batch);

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i) {
        all_ok = all_ok && reader.open(encoded).ok();
        all_ok = all_ok && reader.readAllInto(raw).ok();
    }
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state decode loop heap-allocated";
    EXPECT_EQ(raw, batch);
}

TEST(ZeroAllocTest, SteadyStateDecodeOfCompressedPagesDoesNotAllocate)
{
    // LZ-compressed pages route decode through the reader's decompress
    // scratch; once that is warm the loop must stay allocation-free,
    // same as the uncompressed path. RM2's clustered ids give the codec
    // real work — assert that so the test cannot pass vacuously.
    RmConfig cfg = rmConfig(2);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(encoded).ok());
    size_t compressed_pages = 0;
    size_t entropy_pages = 0;
    for (const auto& col : reader.footer().columns) {
        for (const auto& stream : col.streams) {
            size_t pos = stream.offset;
            for (uint32_t p = 0; p < stream.num_pages; ++p) {
                PageView page;
                ASSERT_TRUE(scanPageFrame(encoded, pos, page).ok());
                if (page.codec != PageCodec::kNone)
                    ++compressed_pages;
                if (page.codec == PageCodec::kEntropy ||
                    page.codec == PageCodec::kLzEntropy)
                    ++entropy_pages;
            }
        }
    }
    ASSERT_GT(compressed_pages, 0u) << "no page compressed";
    // The default menu is kLzEntropy: entropy-coded pages must be part
    // of the loop (their table build + bitstream decode included) or
    // the zero-alloc claim would not cover the new codec.
    ASSERT_GT(entropy_pages, 0u) << "no page entropy-coded";

    RowBatch raw;
    for (int warm = 0; warm < 3; ++warm) {
        ASSERT_TRUE(reader.open(encoded).ok());
        ASSERT_TRUE(reader.readAllInto(raw).ok());
    }

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i) {
        all_ok = all_ok && reader.open(encoded).ok();
        all_ok = all_ok && reader.readAllInto(raw).ok();
    }
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "compressed-page decode loop heap-allocated";
}

TEST(ZeroAllocTest, SteadyStateIspEmulatorLoopDoesNotAllocate)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 512;
    RawDataGenerator gen(cfg);
    const auto encoded =
        ColumnarFileWriter().write(gen.generatePartition(0), 0);

    IspEmulator emulator(cfg);
    MiniBatch mb;
    for (int warm = 0; warm < 3; ++warm)
        ASSERT_TRUE(emulator.processInto(encoded, mb).ok());
    const uint64_t want = batchChecksum(mb);

    bool all_ok = true;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (int i = 0; i < 8; ++i)
        all_ok = all_ok && emulator.processInto(encoded, mb).ok();
    g_count_allocs.store(false);

    ASSERT_TRUE(all_ok);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state ISP emulator loop heap-allocated";
    EXPECT_EQ(batchChecksum(mb), want);
}

TEST(ParallelForTest, SkewedWorkStillRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<uint32_t>> hits(kN);
    std::atomic<uint64_t> index_sum{0};
    pool.parallelFor(kN, [&](size_t i) {
        if (i == 0) {
            // One pathologically expensive index: contiguous-split
            // scheduling would serialize a whole range behind it.
            volatile int sink = 0;
            for (int spin = 0; spin < 2000000; ++spin)
                sink = sink + 1;
        }
        hits[i].fetch_add(1, std::memory_order_relaxed);
        index_sum.fetch_add(i, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i)
        ASSERT_EQ(hits[i].load(), 1u) << "index " << i;
    EXPECT_EQ(index_sum.load(), uint64_t{kN} * (kN - 1) / 2);
}

/**
 * RM5-shaped partitions: the same 589 single-page streams as the
 * benchmark's RM5 partitions, with few rows so encoding stays fast (the
 * sparse value pages are then still compressed plain_i64). A staged
 * extraction cuts them into page chunks for every worker.
 */
RmConfig
rm5Small()
{
    RmConfig cfg = rmConfig(5);
    cfg.batch_size = 64;
    return cfg;
}

struct DrainResult {
    uint64_t checksum = 0;
    size_t batches = 0;
    RunStats stats;
};

DrainResult
drainManager(const RmConfig& cfg, PartitionStore& store, int workers,
             bool prefetch, size_t batches)
{
    PreprocessManager manager(cfg, store, PreprocessMode::kPreSto, workers,
                              4, prefetch);
    manager.start(batches);
    DrainResult r;
    for (;;) {
        auto mb = manager.nextBatch();
        if (mb == nullptr)
            break;
        EXPECT_TRUE(mb->consistent());
        r.checksum ^= batchChecksum(*mb);
        ++r.batches;
        manager.recycle(std::move(mb));
    }
    r.stats = manager.stats();
    return r;
}

TEST(PrefetchPipelineTest, DeliveredBatchesMatchUnstagedPath)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 128;
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    constexpr size_t kBatches = 12;

    auto runChecksum = [&](bool prefetch) {
        PreprocessManager manager(cfg, store, PreprocessMode::kDisaggCpu,
                                  2, 4, prefetch);
        manager.start(kBatches);
        uint64_t sum = 0;
        size_t count = 0;
        for (;;) {
            auto mb = manager.nextBatch();
            if (mb == nullptr)
                break;
            EXPECT_TRUE(mb->consistent());
            sum ^= batchChecksum(*mb);
            ++count;
            manager.recycle(std::move(mb));
        }
        EXPECT_EQ(count, kBatches);
        EXPECT_EQ(manager.stats().batches_delivered, kBatches);
        return sum;
    };

    // XOR-folded checksums are order-independent, so the staged pipeline
    // must reproduce the unstaged delivery bit for bit.
    EXPECT_EQ(runChecksum(true), runChecksum(false));
}

TEST(PrefetchPipelineTest, FaultRecoverySurvivesStagedPipeline)
{
    // Injected faults never change delivered bits, only retry counters.
    // On RM5 with four workers the corrupt page often sits in a chunk a
    // helper decodes; the whole partition is refetched all the same.
    RmConfig rm1 = rmConfig(1);
    rm1.batch_size = 128;
    constexpr size_t kBatches = 10;
    FaultSpec spec;
    spec.transient_read_error_prob = 0.2;
    spec.corruption_prob = 0.2;
    const FaultInjector faults(spec);

    for (const auto& [cfg, workers] :
         {std::pair{rm1, 2}, std::pair{rm5Small(), 4}}) {
        RawDataGenerator gen(cfg);
        // Fault draws key off (partition, attempt), so both runs may
        // share one store and still see the same faults.
        PartitionStore store(gen);
        store.setFaultInjector(&faults);
        const DrainResult staged =
            drainManager(cfg, store, workers, /*prefetch=*/true, kBatches);
        const DrainResult unstaged =
            drainManager(cfg, store, workers, /*prefetch=*/false, kBatches);
        EXPECT_EQ(staged.batches, kBatches) << cfg.name;
        EXPECT_EQ(unstaged.batches, kBatches) << cfg.name;
        EXPECT_EQ(staged.checksum, unstaged.checksum) << cfg.name;
        EXPECT_GT(staged.stats.transient_read_errors, 0u) << cfg.name;
        EXPECT_GT(staged.stats.corrupt_partition_refetches, 0u) << cfg.name;
        EXPECT_EQ(staged.stats.transient_read_errors,
                  unstaged.stats.transient_read_errors)
            << cfg.name;
        EXPECT_EQ(staged.stats.corrupt_partition_refetches,
                  unstaged.stats.corrupt_partition_refetches)
            << cfg.name;
    }
}

TEST(PrefetchPipelineTest, DecodeHelpersMatchUnstagedPathOnRm5)
{
    // Idle transformers decode page chunks of the partition a fetcher
    // is extracting; the delivered bits and the byte accounting must be
    // exactly those of the unstaged path, which decodes each partition
    // on one thread.
    const RmConfig cfg = rm5Small();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    constexpr size_t kBatches = 8;
    const DrainResult serial =
        drainManager(cfg, store, 1, /*prefetch=*/false, kBatches);
    ASSERT_EQ(serial.batches, kBatches);
    for (int workers : {3, 4}) {
        const DrainResult staged =
            drainManager(cfg, store, workers, /*prefetch=*/true, kBatches);
        EXPECT_EQ(staged.batches, kBatches) << workers << " workers";
        EXPECT_EQ(staged.checksum, serial.checksum) << workers << " workers";
        EXPECT_EQ(staged.stats.columnar_bytes_touched,
                  serial.stats.columnar_bytes_touched)
            << workers << " workers";
        EXPECT_EQ(staged.stats.raw_bytes_p2p, serial.stats.raw_bytes_p2p)
            << workers << " workers";
    }
}

TEST(PrefetchPipelineTest, SteadyStateWithDecodeHelpersDoesNotAllocate)
{
    // Plans, chunk bounds, decoded shells, output batches and every
    // thread's decode scratch are reused once warm: pulling batches in
    // the steady state allocates nothing on any thread. (RM1 instead of
    // RM5 keeps the up-front encode short; its partitions still cut
    // into a chunk per page run for every worker.)
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 256;
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    // The manager's queues are std::deques, which allocate a block
    // every 64 pushes; the whole run stays under one block.
    constexpr size_t kBatches = 40;
    for (uint64_t p = 0; p < kBatches; ++p)
        store.partition(p);  // encode up front: the writer allocates

    PreprocessManager manager(cfg, store, PreprocessMode::kPreSto, 4, 2,
                              /*prefetch=*/true);
    manager.start(kBatches);
    auto pull = [&](size_t n) {
        for (size_t i = 0; i < n; ++i) {
            auto mb = manager.nextBatch();
            ASSERT_NE(mb, nullptr);
            manager.recycle(std::move(mb));
        }
    };
    // Warm every worker's decode scratch, then let the pipeline fill to
    // its bounds while the trainer holds a batch: every decoded shell
    // and output batch it can ever have in flight then exists, so the
    // pulls after it only recycle.
    pull(8);
    auto held = manager.nextBatch();
    ASSERT_NE(held, nullptr);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    manager.recycle(std::move(held));

    constexpr size_t kCounted = 12;
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    pull(kCounted);
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0u)
        << "steady-state staged pipeline heap-allocated";
    pull(kBatches - 9 - kCounted);
    EXPECT_EQ(manager.nextBatch(), nullptr);
}

TEST(PrefetchPipelineTest, DestroyMidExtractionWithHelpersIsSafe)
{
    // The manager is destroyed while its fetcher is mid-partition and
    // transformers hold page chunks of it: the destructor must wait for
    // every chunk before the extraction's buffers go away.
    const RmConfig cfg = rm5Small();
    RawDataGenerator gen(cfg);
    PartitionStore store(gen);
    constexpr size_t kBatches = 8;
    for (uint64_t p = 0; p < kBatches; ++p)
        store.partition(p);
    for (int round = 0; round < 16; ++round) {
        PreprocessManager manager(cfg, store, PreprocessMode::kPreSto, 4, 1,
                                  /*prefetch=*/true);
        manager.start(kBatches);
        if (round % 2 == 1) {
            auto mb = manager.nextBatch();
            ASSERT_NE(mb, nullptr);
            EXPECT_TRUE(mb->consistent());
        }
        std::this_thread::sleep_for(std::chrono::microseconds(50 * round));
    }
}

}  // namespace
}  // namespace presto
