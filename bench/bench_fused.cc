/**
 * @file
 * Tracked perf comparison of the fused op-chain bytecode VM against the
 * unfused one-pass-per-operator reference executor, emitted as JSON
 * (committed as BENCH_fused.json; schema in docs/PERF.md).
 *
 * Measures, on this host, representative operator chains (dense float
 * chains, sparse hash chains, the generated Bucketize bridge) fused vs
 * unfused at every available SIMD level — the per-op, per-tier rates
 * of the VM's one kernel per op per tier — plus the end-to-end RM1
 * standard plan at every level. Every configuration is differentially
 * checked — fused output must be bit-identical to the unfused
 * reference — before it is timed; a mismatch exits nonzero.
 *
 * The end-to-end section also reports fused output values/second, the
 * provenance of cal::kMeasuredFusedValuesPerSec (models/calibration.h).
 *
 * In full mode the bench enforces its own reason to exist: the fused
 * end-to-end path must beat the unfused reference by >= 1.3x at the
 * best SIMD level, or the run exits nonzero.
 *
 * Usage: bench_fused [--quick]   (--quick shrinks sizes/reps for the
 * ctest "perf" smoke label; differential checks still run, the speedup
 * gate is not enforced.)
 */
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/batch_arena.h"
#include "datagen/generator.h"
#include "ops/opvm.h"
#include "ops/plan.h"
#include "ops/preprocessor.h"
#include "ops/simd.h"

using namespace presto;

namespace {

struct BenchConfig {
    size_t chain_rows;   ///< rows per chain-timing batch
    size_t reps;         ///< timed repetitions (best-of)
    size_t e2e_batches;  ///< end-to-end iterations per rep
};

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

template <typename F>
double
bestSeconds(size_t reps, F&& body)
{
    double best = 1e300;
    for (size_t r = 0; r < reps; ++r) {
        const double t0 = now();
        body();
        const double dt = now() - t0;
        if (dt < best)
            best = dt;
    }
    return best;
}

/** Bitwise mini-batch equality (floats by pattern, NaN-safe). */
bool
sameBits(const MiniBatch& a, const MiniBatch& b)
{
    if (a.batch_size != b.batch_size || a.num_dense != b.num_dense ||
        a.dense.size() != b.dense.size() ||
        a.labels.size() != b.labels.size() ||
        a.sparse.size() != b.sparse.size())
        return false;
    if (std::memcmp(a.dense.data(), b.dense.data(),
                    a.dense.size() * sizeof(float)) != 0)
        return false;
    if (std::memcmp(a.labels.data(), b.labels.data(),
                    a.labels.size() * sizeof(float)) != 0)
        return false;
    for (size_t s = 0; s < a.sparse.size(); ++s) {
        if (a.sparse[s].values != b.sparse[s].values ||
            a.sparse[s].lengths != b.sparse[s].lengths)
            return false;
    }
    return true;
}

[[noreturn]] void
mismatch(const std::string& what)
{
    std::fprintf(stderr,
                 "FATAL: fused output differs from the unfused reference "
                 "(%s, level %s)\n",
                 what.c_str(), simdLevelName(activeSimdLevel()));
    std::exit(1);
}

std::vector<SimdLevel>
availableLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::kScalar};
    if (detectedSimdLevel() >= SimdLevel::kAvx2)
        levels.push_back(SimdLevel::kAvx2);
    if (detectedSimdLevel() >= SimdLevel::kAvx512)
        levels.push_back(SimdLevel::kAvx512);
    return levels;
}

/** Sink so timed loops cannot be dead-code-eliminated. */
volatile uint64_t g_sink = 0;

RowBatch
chainBatch(size_t rows)
{
    // One dense feature + one 4-id-per-row sparse feature, realistic
    // value material (log-normal dense with missing slots, 63-bit ids).
    Rng rng(7);
    RowBatch batch(Schema::makeRecSys(1, 1));
    std::vector<float> labels(rows);
    for (auto& v : labels)
        v = static_cast<float>(rng.next() % 2);
    batch.addColumn(DenseColumn(std::move(labels)));
    std::vector<float> dense(rows);
    for (size_t i = 0; i < rows; ++i) {
        dense[i] = static_cast<float>(rng.logNormal(2.0, 1.5));
        if (i % 97 == 0)
            dense[i] = std::nanf("");
    }
    batch.addColumn(DenseColumn(std::move(dense)));
    std::vector<uint32_t> offsets(rows + 1);
    for (size_t r = 0; r <= rows; ++r)
        offsets[r] = static_cast<uint32_t>(4 * r);
    std::vector<int64_t> ids(offsets.back());
    for (auto& id : ids)
        id = static_cast<int64_t>(rng.next() >> 1);
    batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));
    return batch;
}

/** One single-output chain, fused vs unfused at the current level. */
void
benchChain(const std::string& name, const PlanOutput& output,
           const RowBatch& raw, const BenchConfig& bc, double values,
           bool trailing_comma)
{
    TransformPlan plan;
    plan.add(output);
    const PlanExecutor exec(plan, raw.schema());

    const MiniBatch ref = exec.runUnfused(raw);
    MiniBatch mb;
    BatchArena arena;
    exec.runInto(raw, mb, arena);
    if (!sameBits(ref, mb))
        mismatch(name);

    const double fused_secs = bestSeconds(bc.reps, [&] {
        exec.runInto(raw, mb, arena);
        g_sink += mb.batch_size;
    });
    const double unfused_secs = bestSeconds(bc.reps, [&] {
        const MiniBatch u = exec.runUnfused(raw);
        g_sink += u.batch_size;
    });

    std::printf("    {\"chain\": \"%s\", \"level\": \"%s\", "
                "\"values_per_rep\": %.0f, "
                "\"unfused\": {\"seconds\": %.6e, \"values_per_sec\": "
                "%.4e}, "
                "\"fused\": {\"seconds\": %.6e, \"values_per_sec\": "
                "%.4e}, "
                "\"speedup\": %.3f}%s\n",
                name.c_str(), simdLevelName(activeSimdLevel()), values,
                unfused_secs, values / unfused_secs,
                fused_secs, values / fused_secs,
                unfused_secs / fused_secs, trailing_comma ? "," : "");
}

struct Chain {
    std::string name;
    PlanOutput output;
    double values_per_row;
};

std::vector<Chain>
chains()
{
    std::vector<Chain> out;
    auto dense = [&](const char* name, std::vector<DenseOp> ops) {
        PlanOutput o;
        o.kind = PlanOutput::Kind::kDense;
        o.output_name = "d";
        o.source_feature = "dense_0";
        o.dense_ops = std::move(ops);
        out.push_back({name, std::move(o), 1.0});
    };
    auto sparse = [&](const char* name, std::vector<SparseOp> ops) {
        PlanOutput o;
        o.kind = PlanOutput::Kind::kSparse;
        o.output_name = "s";
        o.source_feature = "sparse_0";
        o.sparse_ops = std::move(ops);
        out.push_back({name, std::move(o), 4.0});
    };
    dense("dense_fill_log", {DenseOp::fillMissing(0.0f), DenseOp::log()});
    dense("dense_clamp_fill_log_clamp",
          {DenseOp::clamp(0.0f, 3000.0f), DenseOp::fillMissing(1.0f),
           DenseOp::log(), DenseOp::clamp(0.0f, 8.0f)});
    sparse("sparse_hash", {SparseOp::sigridHash(0x5eed, 500000)});
    sparse("sparse_hash_x3",
           {SparseOp::sigridHash(1, 500000), SparseOp::sigridHash(2, 100000),
            SparseOp::sigridHash(3, 65536)});
    PlanOutput g;
    g.kind = PlanOutput::Kind::kGenerated;
    g.output_name = "g";
    g.source_feature = "dense_0";
    g.dense_ops = {DenseOp::fillMissing(0.0f)};
    g.bucket_boundaries = 1024;
    g.sparse_ops = {SparseOp::sigridHash(0x5eed, 500000)};
    out.push_back({"generated_fill_bucketize_hash", std::move(g), 1.0});
    return out;
}

void
runChains(const BenchConfig& bc)
{
    const RowBatch raw = chainBatch(bc.chain_rows);
    const auto rows = static_cast<double>(bc.chain_rows);
    const auto all = chains();
    const auto levels = availableLevels();

    std::printf("  \"chains\": [\n");
    for (size_t c = 0; c < all.size(); ++c) {
        for (size_t l = 0; l < levels.size(); ++l) {
            setSimdLevel(levels[l]);
            const bool last = c + 1 == all.size() && l + 1 == levels.size();
            benchChain(all[c].name, all[c].output, raw, bc,
                       all[c].values_per_row * rows, !last);
        }
    }
    std::printf("  ],\n");
}

/** @return the best-level end-to-end fused/unfused speedup. */
double
runEndToEnd(const BenchConfig& bc, double* fused_values_per_sec)
{
    RmConfig cfg = rmConfig(1);
    cfg.batch_size = 4096;
    RawDataGenerator gen(cfg);
    const RowBatch raw = gen.generatePartition(0);
    const PlanExecutor exec(TransformPlan::standard(cfg), raw.schema());
    const size_t rows = raw.numRows();
    const double output_values =
        TransformWork::measure(cfg, raw).output_values;

    std::printf("  \"end_to_end\": {\n"
                "    \"workload\": \"%s\",\n"
                "    \"batch_size\": %zu,\n"
                "    \"batches_per_rep\": %zu,\n"
                "    \"output_values_per_batch\": %.0f,\n"
                "    \"levels\": [\n",
                cfg.name.c_str(), rows, bc.e2e_batches, output_values);

    double best_speedup = 0.0;
    const auto levels = availableLevels();
    for (size_t i = 0; i < levels.size(); ++i) {
        setSimdLevel(levels[i]);
        const MiniBatch ref = exec.runUnfused(raw);
        MiniBatch mb;
        BatchArena arena;
        exec.runInto(raw, mb, arena);
        if (!sameBits(ref, mb))
            mismatch("end_to_end " + cfg.name);

        const double fused_secs = bestSeconds(bc.reps, [&] {
            for (size_t b = 0; b < bc.e2e_batches; ++b) {
                exec.runInto(raw, mb, arena);
                g_sink += mb.batch_size;
            }
        });
        const double unfused_secs = bestSeconds(bc.reps, [&] {
            for (size_t b = 0; b < bc.e2e_batches; ++b) {
                const MiniBatch u = exec.runUnfused(raw);
                g_sink += u.batch_size;
            }
        });
        const double batches = static_cast<double>(bc.e2e_batches);
        const double speedup = unfused_secs / fused_secs;
        const double values_per_sec =
            output_values * batches / fused_secs;
        if (speedup > best_speedup) {
            best_speedup = speedup;
            *fused_values_per_sec = values_per_sec;
        }
        std::printf(
            "      {\"level\": \"%s\", "
            "\"unfused\": {\"seconds\": %.6e, \"rows_per_sec\": %.4e}, "
            "\"fused\": {\"seconds\": %.6e, \"rows_per_sec\": %.4e, "
            "\"output_values_per_sec\": %.4e}, "
            "\"speedup\": %.3f}%s\n",
            simdLevelName(levels[i]), unfused_secs,
            static_cast<double>(rows) * batches / unfused_secs,
            fused_secs, static_cast<double>(rows) * batches / fused_secs,
            values_per_sec, speedup, i + 1 < levels.size() ? "," : "");
    }
    std::printf("    ]\n  },\n");
    return best_speedup;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--quick")
            quick = true;
    }
    const BenchConfig bc = quick ? BenchConfig{1 << 12, 3, 2}
                                 : BenchConfig{1 << 20, 9, 8};
    constexpr double kRequiredSpeedup = 1.3;

    std::printf("{\n"
                "  \"bench\": \"fused\",\n"
                "  \"quick\": %s,\n"
                "  \"detected_simd\": \"%s\",\n",
                quick ? "true" : "false",
                simdLevelName(detectedSimdLevel()));
    runChains(bc);
    double fused_values_per_sec = 0.0;
    const double speedup = runEndToEnd(bc, &fused_values_per_sec);
    std::printf("  \"gate\": {\"required_speedup\": %.2f, "
                "\"measured_speedup\": %.3f, \"enforced\": %s}\n"
                "}\n",
                kRequiredSpeedup, speedup, quick ? "false" : "true");
    if (!quick && speedup < kRequiredSpeedup) {
        std::fprintf(stderr,
                     "FATAL: fused end-to-end speedup %.3fx is below the "
                     "%.2fx gate\n",
                     speedup, kRequiredSpeedup);
        return 1;
    }
    return 0;
}
