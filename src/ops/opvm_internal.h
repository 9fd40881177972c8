/**
 * @file
 * Per-tier execution entry points of the op-chain VM. The scalar tier
 * lives in opvm.cc; the AVX2/AVX-512 tiers live in opvm_avx2.cc /
 * opvm_avx512.cc, compiled with the matching per-file ISA flags (and
 * -ffp-contract=off) and built from the per-register bodies in
 * fast_ops_avx2_inl.h / fast_ops_avx512_inl.h — one body per op per
 * tier. Every tier applies the same elementwise operation sequence, so
 * all are bit-identical; the vector tiers hand their sub-tile tails to
 * the scalar appliers below.
 */
#ifndef PRESTO_OPS_OPVM_INTERNAL_H_
#define PRESTO_OPS_OPVM_INTERNAL_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ops/fast_math.h"
#include "ops/hash.h"
#include "ops/opvm.h"
#include "ops/simd.h"

namespace presto::opvm_detail {

/** One value through the f32 stage (reference semantics, see ops.h). */
inline float
applyF32Scalar(const OpInstr* ops, size_t nops, float v)
{
    for (size_t k = 0; k < nops; ++k) {
        switch (ops[k].op) {
          case OpCode::kFill:
            if (std::isnan(v))
                v = ops[k].a;
            break;
          case OpCode::kLog:
            v = fastLog1p(v < 0.0f ? 0.0f : v);
            break;
          case OpCode::kClamp:
            v = std::min(std::max(v, ops[k].a), ops[k].b);
            break;
          default:
            break;
        }
    }
    return v;
}

/** One id through the hash stage. */
inline int64_t
applyHashScalar(const OpInstr* ops, size_t nops, int64_t v)
{
    for (size_t k = 0; k < nops; ++k)
        v = sigridHashMod(v, ops[k].seed, ops[k].max_value);
    return v;
}

/** Bucket id of one value: the halves schedule, scalar loads. */
inline int64_t
bucketizeScalar(float v, const BucketTable& bt)
{
    const float* bounds = bt.bounds().data();
    // NaN compares false with every boundary, so it lands in bucket 0
    // without an explicit isnan branch.
    int32_t base = 0;
    for (const int32_t half : bt.halves()) {
        if (bounds[base + half - 1] <= v)
            base += half;
    }
    if (bounds[base] <= v)
        base += 1;
    return base;
}

/**
 * Per-thread scratch of @p n hoisted per-op constants. It grows to the
 * longest chain the calling thread has run and is reused afterwards, so
 * a warm thread never allocates. One buffer per T: a caller holding two
 * spans at once must use two element types.
 */
template <typename T>
T*
hoistScratch(size_t n)
{
    static thread_local std::vector<T> scratch;
    if (scratch.size() < n)
        scratch.resize(n);
    return scratch.data();
}

// --- Fused column executors, one per tier ---------------------------------
//
// runDense:     src[n] -> f32 chain -> dst[r * stride] (strided scatter
//               into the row-major dense matrix).
// runSparse:    src[n] -> hash chain -> dst[n] (src may alias dst).
// runGenerated: src[n] -> f32 chain -> bucketize -> hash chain -> out[n].
//
// The level-taking forms run the named tier. The level must be one the
// CPU supports (CompiledProgram passes activeSimdLevel(), tests any level
// up to detectedSimdLevel()); a build without x86 SIMD runs every level
// as scalar.

void runDense(SimdLevel level, const OpInstr* ops, size_t nops,
              const float* src, size_t n, float* dst, size_t stride);
void runSparse(SimdLevel level, const OpInstr* ops, size_t nops,
               const int64_t* src, size_t n, int64_t* dst);
void runGenerated(SimdLevel level, const OpInstr* f32_ops, size_t nf32,
                  const BucketTable& bt, const OpInstr* hash_ops,
                  size_t nhash, const float* src, size_t n, int64_t* out);

#if defined(PRESTO_HAVE_X86_SIMD)
void runDenseAvx2(const OpInstr* ops, size_t nops, const float* src,
                  size_t n, float* dst, size_t stride);
void runSparseAvx2(const OpInstr* ops, size_t nops, const int64_t* src,
                   size_t n, int64_t* dst);
void runGeneratedAvx2(const OpInstr* f32_ops, size_t nf32,
                      const BucketTable& bt, const OpInstr* hash_ops,
                      size_t nhash, const float* src, size_t n,
                      int64_t* out);

void runDenseAvx512(const OpInstr* ops, size_t nops, const float* src,
                    size_t n, float* dst, size_t stride);
void runSparseAvx512(const OpInstr* ops, size_t nops, const int64_t* src,
                     size_t n, int64_t* dst);
void runGeneratedAvx512(const OpInstr* f32_ops, size_t nf32,
                        const BucketTable& bt, const OpInstr* hash_ops,
                        size_t nhash, const float* src, size_t n,
                        int64_t* out);
#endif  // PRESTO_HAVE_X86_SIMD

}  // namespace presto::opvm_detail

#endif  // PRESTO_OPS_OPVM_INTERNAL_H_
