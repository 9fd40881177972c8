#pragma once

// Per-register AVX2 bodies of the op-chain VM (opvm_avx2.cc, and the
// bucketize bridge of opvm_avx512.cc): the one AVX2 body of each op.
// Include only from TUs compiled with -mavx2 and -ffp-contract=off: the
// log body mirrors the scalar fastLog1p operation sequence and must not
// gain FMAs, or the tier stops being bit-identical to scalar.
#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "ops/hash.h"

namespace presto::simd_detail {

/** Low 64 bits of a*b per lane (b_hi32 = b >> 32 hoisted). */
inline __m256i
mullo64(__m256i a, __m256i b, __m256i b_hi32)
{
    __m256i lo = _mm256_mul_epu32(a, b);
    __m256i t1 = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b);
    __m256i t2 = _mm256_mul_epu32(a, b_hi32);
    return _mm256_add_epi64(
        lo, _mm256_slli_epi64(_mm256_add_epi64(t1, t2), 32));
}

/** High 64 bits of the unsigned 128-bit product a*b. */
inline __m256i
mulhi64u(__m256i a, __m256i b, __m256i b_hi)
{
    const __m256i lo32 = _mm256_set1_epi64x(0xffffffffLL);
    __m256i a_hi = _mm256_srli_epi64(a, 32);
    __m256i p0 = _mm256_mul_epu32(a, b);
    __m256i p1 = _mm256_mul_epu32(a, b_hi);
    __m256i p2 = _mm256_mul_epu32(a_hi, b);
    __m256i p3 = _mm256_mul_epu32(a_hi, b_hi);
    __m256i mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(p0, 32),
                         _mm256_and_si256(p1, lo32)),
        _mm256_and_si256(p2, lo32));
    return _mm256_add_epi64(
        _mm256_add_epi64(p3, _mm256_srli_epi64(p1, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(p2, 32),
                         _mm256_srli_epi64(mid, 32)));
}

/** Hoisted broadcast constants for one (seed, max_value) hash op. */
struct Avx2HashConsts {
    __m256i vk1, vk1h, vk2, vk2h, vk3, vk3h;
    __m256i vseed, vseedk;
    __m256i vm, vmh, vd, vdh;
    __m256i bias, vdm1b;

    /** Requires max_value >= 2 (d == 1 short-circuits upstream). */
    static Avx2HashConsts
    make(uint64_t seed, uint64_t ud)
    {
        const auto magic = static_cast<uint64_t>(
            (static_cast<__uint128_t>(1) << 64) / ud);
        Avx2HashConsts c;
        c.vk1 = _mm256_set1_epi64x(static_cast<long long>(kHashK1));
        c.vk1h = _mm256_srli_epi64(c.vk1, 32);
        c.vk2 = _mm256_set1_epi64x(static_cast<long long>(kHashK2));
        c.vk2h = _mm256_srli_epi64(c.vk2, 32);
        c.vk3 = _mm256_set1_epi64x(static_cast<long long>(kHashK3));
        c.vk3h = _mm256_srli_epi64(c.vk3, 32);
        c.vseed = _mm256_set1_epi64x(static_cast<long long>(seed));
        c.vseedk =
            _mm256_set1_epi64x(static_cast<long long>(seed * kHashK1));
        c.vm = _mm256_set1_epi64x(static_cast<long long>(magic));
        c.vmh = _mm256_srli_epi64(c.vm, 32);
        c.vd = _mm256_set1_epi64x(static_cast<long long>(ud));
        c.vdh = _mm256_srli_epi64(c.vd, 32);
        // AVX2 has only signed 64-bit compares; XOR with the sign bit
        // turns an unsigned compare into a signed one.
        c.bias = _mm256_set1_epi64x(
            static_cast<long long>(0x8000000000000000ULL));
        c.vdm1b = _mm256_xor_si256(
            _mm256_set1_epi64x(static_cast<long long>(ud - 1)), c.bias);
        return c;
    }
};

/** sigridHashMod for four lanes: seeded mix + exact Barrett modulo. */
inline __m256i
hashMod4(__m256i h, const Avx2HashConsts& c)
{
    h = _mm256_xor_si256(h, c.vseedk);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = mullo64(h, c.vk1, c.vk1h);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = mullo64(h, c.vk2, c.vk2h);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 33));
    h = _mm256_xor_si256(h, c.vseed);
    h = mullo64(h, c.vk3, c.vk3h);
    h = _mm256_xor_si256(h, _mm256_srli_epi64(h, 29));
    // Barrett: q = floor(h * magic / 2^64) is h/d or h/d - 1; one
    // conditional subtract lands r in [0, d).
    __m256i q = mulhi64u(h, c.vm, c.vmh);
    __m256i r = _mm256_sub_epi64(h, mullo64(q, c.vd, c.vdh));
    __m256i ge =
        _mm256_cmpgt_epi64(_mm256_xor_si256(r, c.bias), c.vdm1b);
    return _mm256_sub_epi64(r, _mm256_and_si256(ge, c.vd));
}

/** fastLog1p(max(x, 0)) for eight lanes, bit-exact vs the scalar. */
inline __m256
log8(__m256 x0)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 zero = _mm256_setzero_ps();
    const __m256 half = _mm256_set1_ps(0.5f);
    const __m256 sqrthf = _mm256_set1_ps(0.707106781186547524f);
    const __m256i mmask = _mm256_set1_epi32(0x807fffff);
    const __m256i mbits = _mm256_set1_epi32(0x3f000000);
    const __m256i e126 = _mm256_set1_epi32(126);
    const __m256 inf = _mm256_set1_ps(INFINITY);
    // Clamp negatives to zero; blendv keeps NaN lanes (cmp is false).
    __m256 ltz = _mm256_cmp_ps(x0, zero, _CMP_LT_OQ);
    __m256 x = _mm256_blendv_ps(x0, zero, ltz);
    __m256 u = _mm256_add_ps(one, x);
    __m256i ui = _mm256_castps_si256(u);
    __m256i e = _mm256_sub_epi32(
        _mm256_and_si256(_mm256_srli_epi32(ui, 23),
                         _mm256_set1_epi32(0xff)),
        e126);
    __m256 m = _mm256_castsi256_ps(
        _mm256_or_si256(_mm256_and_si256(ui, mmask), mbits));
    __m256 lo = _mm256_cmp_ps(m, sqrthf, _CMP_LT_OQ);
    e = _mm256_add_epi32(e, _mm256_castps_si256(lo));  // mask == -1
    m = _mm256_sub_ps(_mm256_add_ps(m, _mm256_and_ps(lo, m)), one);
    __m256 z = _mm256_mul_ps(m, m);
    __m256 y = _mm256_set1_ps(7.0376836292e-2f);
    auto step = [&](float c) {
        y = _mm256_add_ps(_mm256_mul_ps(y, m), _mm256_set1_ps(c));
    };
    step(-1.1514610310e-1f);
    step(1.1676998740e-1f);
    step(-1.2420140846e-1f);
    step(1.4249322787e-1f);
    step(-1.6668057665e-1f);
    step(2.0000714765e-1f);
    step(-2.4999993993e-1f);
    step(3.3333331174e-1f);
    y = _mm256_mul_ps(_mm256_mul_ps(y, m), z);
    __m256 fe = _mm256_cvtepi32_ps(e);
    y = _mm256_add_ps(
        y, _mm256_mul_ps(fe, _mm256_set1_ps(-2.12194440e-4f)));
    y = _mm256_sub_ps(y, _mm256_mul_ps(half, z));
    __m256 r = _mm256_add_ps(m, y);
    r = _mm256_add_ps(
        r, _mm256_mul_ps(fe, _mm256_set1_ps(0.693359375f)));
    // r == logfCore(u); log1p = r * (x / (u - 1)).
    __m256 res =
        _mm256_mul_ps(r, _mm256_div_ps(x, _mm256_sub_ps(u, one)));
    __m256 ueq1 = _mm256_cmp_ps(u, one, _CMP_EQ_OQ);
    res = _mm256_blendv_ps(res, x, ueq1);
    __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    __m256 isinf = _mm256_cmp_ps(x, inf, _CMP_EQ_OQ);
    return _mm256_blendv_ps(res, x, _mm256_or_ps(nan, isinf));
}

/** FillMissing for eight lanes: NaN -> vf. */
inline __m256
fill8(__m256 x, __m256 vf)
{
    __m256 nan = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
    return _mm256_blendv_ps(x, vf, nan);
}

/**
 * min(max(v, lo), hi) with std::min/std::max NaN semantics: both
 * compares are false on NaN input, so NaN passes through unchanged
 * (exactly what the scalar `std::min(std::max(v, a), b)` does).
 */
inline __m256
clamp8(__m256 v, __m256 lo, __m256 hi)
{
    __m256 t = _mm256_blendv_ps(v, lo, _mm256_cmp_ps(v, lo, _CMP_LT_OQ));
    return _mm256_blendv_ps(t, hi, _mm256_cmp_ps(hi, t, _CMP_LT_OQ));
}

/**
 * Bucket ids (epi32) for eight values: the same value-independent
 * bisection schedule as the scalar halves loop, gathers instead of
 * scalar loads.
 */
inline __m256i
bucketize8(__m256 x, const float* bounds, const int32_t* halves,
           size_t num_halves)
{
    __m256i base = _mm256_setzero_si256();
    for (size_t s = 0; s < num_halves; ++s) {
        const int32_t half = halves[s];
        __m256i idx =
            _mm256_add_epi32(base, _mm256_set1_epi32(half - 1));
        __m256 bv = _mm256_i32gather_ps(bounds, idx, 4);
        __m256 le = _mm256_cmp_ps(bv, x, _CMP_LE_OQ);
        base = _mm256_add_epi32(
            base, _mm256_and_si256(_mm256_castps_si256(le),
                                   _mm256_set1_epi32(half)));
    }
    __m256 bv = _mm256_i32gather_ps(bounds, base, 4);
    __m256 le = _mm256_cmp_ps(bv, x, _CMP_LE_OQ);
    return _mm256_sub_epi32(base, _mm256_castps_si256(le));  // +1 if le
}

}  // namespace presto::simd_detail
