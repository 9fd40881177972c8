// AVX-512 tier of the op-chain VM. Compiled with -mavx512f -mavx512dq
// -ffp-contract=off (which also enables the AVX2 intrinsics used for
// the bucketize bridge); only reached when the CPU reports avx512f +
// avx512dq. Float tiles are 16 lanes wide, hash lane groups 8xi64; the
// bucketize bridge reuses the 8-lane AVX2 gather body on each half of
// the float tile — same instruction semantics per element, so the tier
// stays bit-identical to scalar and AVX2. Per-op constants are hoisted
// once per call into per-thread scratch, as in the AVX2 tier.
#include <immintrin.h>

#include <cstdint>

#include "ops/fast_ops_avx2_inl.h"
#include "ops/fast_ops_avx512_inl.h"
#include "ops/opvm_internal.h"

namespace presto::opvm_detail {

namespace {

using simd_detail::Avx512HashConsts;

/** Broadcast operands of one f32-stage instruction. */
struct F32Consts {
    __m512 va, vb;
};

inline const F32Consts*
loadF32Consts(const OpInstr* ops, size_t nops)
{
    F32Consts* c = hoistScratch<F32Consts>(nops);
    for (size_t k = 0; k < nops; ++k) {
        c[k].va = _mm512_set1_ps(ops[k].a);
        c[k].vb = _mm512_set1_ps(ops[k].b);
    }
    return c;
}

inline __m512
chain16(__m512 x, const OpInstr* ops, size_t nops, const F32Consts* c)
{
    for (size_t k = 0; k < nops; ++k) {
        switch (ops[k].op) {
          case OpCode::kFill:
            x = simd_detail::fill16(x, c[k].va);
            break;
          case OpCode::kLog:
            x = simd_detail::log16(x);
            break;
          case OpCode::kClamp:
            x = simd_detail::clamp16(x, c[k].va, c[k].vb);
            break;
          default:
            break;
        }
    }
    return x;
}

/** Hoisted constants of one hash instruction. */
struct HashConsts {
    Avx512HashConsts hc;
    bool one;  // max_value == 1: result is always 0
};

inline const HashConsts*
loadHashConsts(const OpInstr* ops, size_t nops)
{
    HashConsts* c = hoistScratch<HashConsts>(nops);
    for (size_t k = 0; k < nops; ++k) {
        c[k].one = ops[k].max_value == 1;
        if (!c[k].one) {
            c[k].hc = Avx512HashConsts::make(
                ops[k].seed, static_cast<uint64_t>(ops[k].max_value));
        }
    }
    return c;
}

inline __m512i
hashChain8(__m512i h, size_t nops, const HashConsts* c)
{
    for (size_t k = 0; k < nops; ++k) {
        h = c[k].one ? _mm512_setzero_si512()
                     : simd_detail::hashMod8(h, c[k].hc);
    }
    return h;
}

}  // namespace

void
runDenseAvx512(const OpInstr* ops, size_t nops, const float* src, size_t n,
               float* dst, size_t stride)
{
    const F32Consts* c = loadF32Consts(ops, nops);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512 x = chain16(_mm512_loadu_ps(src + i), ops, nops, c);
        alignas(64) float tmp[16];
        _mm512_store_ps(tmp, x);
        for (size_t r = 0; r < 16; ++r)
            dst[(i + r) * stride] = tmp[r];
    }
    for (; i < n; ++i)
        dst[i * stride] = applyF32Scalar(ops, nops, src[i]);
}

void
runSparseAvx512(const OpInstr* ops, size_t nops, const int64_t* src,
                size_t n, int64_t* dst)
{
    const HashConsts* c = loadHashConsts(ops, nops);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m512i h = _mm512_loadu_si512(src + i);
        _mm512_storeu_si512(dst + i, hashChain8(h, nops, c));
    }
    for (; i < n; ++i)
        dst[i] = applyHashScalar(ops, nops, src[i]);
}

void
runGeneratedAvx512(const OpInstr* f32_ops, size_t nf32,
                   const BucketTable& bt, const OpInstr* hash_ops,
                   size_t nhash, const float* src, size_t n, int64_t* out)
{
    const F32Consts* fc = loadF32Consts(f32_ops, nf32);
    const HashConsts* hc = loadHashConsts(hash_ops, nhash);
    const float* bounds = bt.bounds().data();
    const int32_t* halves = bt.halves().data();
    const size_t num_halves = bt.halves().size();
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        __m512 x = chain16(_mm512_loadu_ps(src + i), f32_ops, nf32, fc);
        __m256 xlo = _mm512_castps512_ps256(x);
        __m256 xhi = _mm512_extractf32x8_ps(x, 1);
        __m256i blo =
            simd_detail::bucketize8(xlo, bounds, halves, num_halves);
        __m256i bhi =
            simd_detail::bucketize8(xhi, bounds, halves, num_halves);
        __m512i lo64 = _mm512_cvtepi32_epi64(blo);
        __m512i hi64 = _mm512_cvtepi32_epi64(bhi);
        _mm512_storeu_si512(out + i, hashChain8(lo64, nhash, hc));
        _mm512_storeu_si512(out + i + 8, hashChain8(hi64, nhash, hc));
    }
    for (; i < n; ++i) {
        const float v = applyF32Scalar(f32_ops, nf32, src[i]);
        out[i] = applyHashScalar(hash_ops, nhash, bucketizeScalar(v, bt));
    }
}

}  // namespace presto::opvm_detail
