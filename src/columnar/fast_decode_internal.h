/**
 * @file
 * Internal kernels of the fast page-decode layer (the Extract analogue
 * of ops/opvm_internal.h).
 *
 * The public entry points stay enc::decodeI64/decodeF32; encoding.cc
 * routes their hot loops through the dispatched batch kernels declared
 * here. Three tiers exist:
 *
 *  - byte-wise reference loops (in encoding.cc, via decodeI64Reference):
 *    the semantics oracle, also what pre-SIMD builds of this repo ran;
 *  - portable SWAR kernels (fast_decode.cc): 8-byte word loads, used at
 *    SimdLevel::kScalar and on non-x86 builds;
 *  - AVX2 kernels (fast_decode_avx2.cc, per-file -mavx2): used at
 *    kAvx2, and at kAvx512 for everything but plain varint decode (those
 *    loops are load/shuffle bound, so a 512-bit variant adds nothing);
 *  - an AVX-512 varint kernel (fast_decode_avx512.cc): vpcompressb
 *    boundary extraction over 64-byte windows, used at kAvx512 when the
 *    CPU has the byte-compaction extensions (BW + VBMI + VBMI2).
 *
 * Every tier is bit-identical: same outputs for valid input, failure
 * (-> kCorruption at the caller) for exactly the same malformed inputs.
 * All loads are strictly in-bounds — word-wide fast paths stop early and
 * hand the buffer tail to byte-exact loops, so payloads that end flush
 * against a page (or allocation) boundary never over-read.
 */
#ifndef PRESTO_COLUMNAR_FAST_DECODE_INTERNAL_H_
#define PRESTO_COLUMNAR_FAST_DECODE_INTERNAL_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace presto::enc::detail {

/** MSB (LEB128 continuation bit) of each byte lane. */
inline constexpr uint64_t kMsbLanes = 0x8080808080808080ull;

inline uint64_t
load64le(const uint8_t* p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/**
 * Compact eight 7-bit LEB128 groups (continuation bits already cleared)
 * into the value they encode: byte lane k contributes bits [7k, 7k+7).
 */
inline uint64_t
compact7(uint64_t x)
{
    x = (x & 0x007f007f007f007full) | ((x & 0x7f007f007f007f00ull) >> 1);
    x = (x & 0x00003fff00003fffull) | ((x & 0x3fff00003fff0000ull) >> 2);
    x = (x & 0x000000000fffffffull) | ((x & 0x0fffffff00000000ull) >> 4);
    return x;
}

/**
 * Validating byte-wise LEB128 decode; identical accept/reject semantics
 * to enc::getVarint (truncation, > 10 bytes, and 64-bit overflow all
 * fail). @return false on malformed input (@p pos may be mid-varint).
 */
inline bool
decodeOneVarint(const uint8_t* in, size_t size, size_t& pos, uint64_t& value)
{
    value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (pos >= size)
            return false;
        const uint8_t byte = in[pos++];
        if (shift == 63 && (byte & 0x7f) > 1)
            return false;  // bits past 2^64 are set
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return true;
    }
    return false;  // longer than 10 bytes
}

consteval std::array<uint64_t, 9>
makeVarintKeep()
{
    std::array<uint64_t, 9> keep{};
    for (size_t len = 1; len <= 8; ++len) {
        const uint64_t bytes = len == 8 ? ~0ull : (1ull << (8 * len)) - 1;
        keep[len] = bytes & ~kMsbLanes;
    }
    return keep;
}

/** Payload-byte mask for an n-byte varint at the base of a word. */
inline constexpr std::array<uint64_t, 9> kVarintKeep = makeVarintKeep();

/** Continuation-bit mask of one 8-byte word (bit k = MSB of byte k). */
inline uint32_t
msbMask8(uint64_t word)
{
    // Portable movemask: one multiply gathers the eight MSBs (already
    // shifted to bit 8k) into the top byte; landing spots are distinct,
    // so no carries corrupt them.
    return static_cast<uint32_t>(
        (((word & kMsbLanes) >> 7) * 0x0102040810204080ull) >> 56);
}

/**
 * Decode every varint that terminates in the 32-byte block at @p p,
 * given the block's continuation-bit mask @p cont (bit k = MSB of byte
 * p + k; AVX2 gets this from one movemask, SWAR from four msbMask8
 * words). LEB128 is self-synchronizing — a varint ends exactly at each
 * clear mask bit — so every boundary comes from a tzcnt/clear-lowest
 * chain on one register, and the payload word loads are independent and
 * pipeline freely. Bytes past the last terminator belong to a varint
 * straddling the block edge; @p p stops at its start. 9..10-byte
 * varints (terminator 8+ bytes past start) are rare and validated
 * byte-wise. Requires p + 40 <= size so any in-block start allows an
 * 8-byte load. Advances @p p / @p i past what it consumed/produced
 * (always at least one value). @return false on malformed input.
 *
 * @p extract7 is (word, keep) -> value: compact the payload bits
 * selected by @p keep (a kVarintKeep entry). The portable tier passes
 * compact7(word & keep); the AVX2 tier passes a BMI2 pext, which does
 * the select-and-compact in one instruction (the dispatcher only
 * enables that tier on CPUs with BMI2). A template functor rather than
 * an #ifdef keeps the two expansions distinct types, so the mixed-ISA
 * translation units cannot ODR-merge them.
 */
template <typename Extract7>
inline bool
decodeVarintBlock32(const uint8_t* in, size_t size, uint32_t cont, size_t& p,
                    uint64_t* out, size_t& i, size_t count, Extract7 extract7)
{
    const uint32_t term = ~cont;  // bit k set: byte p+k terminates a varint
    if (term == 0) {
        // 32 continuation bytes: a varint past the 10-byte limit. The
        // byte-wise path reports the malformed input.
        return decodeOneVarint(in, size, p, out[i]);
    }
    // Decode the varint whose terminator is the lowest set bit of @p t,
    // starting at byte p + start; pops the bit and advances start.
    const auto decodeAt = [&](uint32_t& t, size_t& start, uint64_t& slot) {
        const auto end = static_cast<size_t>(std::countr_zero(t));
        t &= t - 1;
        const size_t len = end - start + 1;
        if (len <= 8) [[likely]] {
            slot = extract7(load64le(in + p + start), kVarintKeep[len]);
        } else {
            // 9..10 bytes: needs the 64-bit overflow check (and > 10
            // bytes is rejected outright).
            size_t q = p + start;
            if (!decodeOneVarint(in, size, q, slot))
                return false;
        }
        start = end + 1;
        return true;
    };
    const auto nvals = static_cast<size_t>(std::popcount(term));
    if (count - i < nvals) {  // page tail: plain capped chain
        const size_t take = count - i;
        uint32_t t = term;
        size_t start = 0;
        for (size_t k = 0; k < take; ++k) {
            if (!decodeAt(t, start, out[i + k]))
                return false;
        }
        i += take;
        p += start;
        return true;
    }
    // Split the mask into two independent bit-scan chains: the serial
    // tzcnt/clear-lowest dependency is the throughput floor of this
    // loop, and the halves don't depend on each other — the high
    // chain's first varint starts one past the low half's last
    // terminator, which is known up front.
    uint32_t t_lo = term & 0xffffu;
    uint32_t t_hi = term & ~0xffffu;
    const auto n_lo = static_cast<size_t>(std::popcount(t_lo));
    size_t start_lo = 0;
    size_t start_hi =
        t_lo == 0 ? 0 : 32 - static_cast<size_t>(std::countl_zero(t_lo));
    for (size_t k = 0; k < n_lo; ++k) {
        if (!decodeAt(t_lo, start_lo, out[i + k]))
            return false;
    }
    for (size_t k = n_lo; k < nvals; ++k) {
        if (!decodeAt(t_hi, start_hi, out[i + k]))
            return false;
    }
    i += nvals;
    p += 32 - static_cast<size_t>(std::countl_zero(term));
    return true;
}

/**
 * Fused variant of decodeVarintBlock32 for dictionary pages: each
 * decoded varint is a dictionary index, bounds-checked and materialized
 * as dict[idx] on the spot — one pass instead of an index-decode pass
 * plus a gather pass. Same contract otherwise; additionally fails
 * (false) on an index >= dict_size.
 */
template <typename Extract7>
inline bool
dictVarintBlock32(const uint8_t* in, size_t size, uint32_t cont, size_t& p,
                  const int64_t* dict, uint64_t dict_size, int64_t* out,
                  size_t& i, size_t count, Extract7 extract7)
{
    const uint32_t term = ~cont;  // bit k set: byte p+k terminates a varint
    if (term == 0) {
        uint64_t sink;  // > 10-byte varint: always rejected
        return decodeOneVarint(in, size, p, sink);
    }
    const auto decodeAt = [&](uint32_t& t, size_t& start, int64_t& slot) {
        const auto end = static_cast<size_t>(std::countr_zero(t));
        t &= t - 1;
        const size_t len = end - start + 1;
        uint64_t idx;
        if (len <= 8) [[likely]] {
            idx = extract7(load64le(in + p + start), kVarintKeep[len]);
        } else {
            size_t q = p + start;
            if (!decodeOneVarint(in, size, q, idx))
                return false;
        }
        if (idx >= dict_size)
            return false;
        slot = dict[idx];
        start = end + 1;
        return true;
    };
    const auto nvals = static_cast<size_t>(std::popcount(term));
    if (count - i < nvals) {  // page tail: plain capped chain
        const size_t take = count - i;
        uint32_t t = term;
        size_t start = 0;
        for (size_t k = 0; k < take; ++k) {
            if (!decodeAt(t, start, out[i + k]))
                return false;
        }
        i += take;
        p += start;
        return true;
    }
    // Two independent bit-scan chains, as in decodeVarintBlock32.
    uint32_t t_lo = term & 0xffffu;
    uint32_t t_hi = term & ~0xffffu;
    const auto n_lo = static_cast<size_t>(std::popcount(t_lo));
    size_t start_lo = 0;
    size_t start_hi =
        t_lo == 0 ? 0 : 32 - static_cast<size_t>(std::countl_zero(t_lo));
    for (size_t k = 0; k < n_lo; ++k) {
        if (!decodeAt(t_lo, start_lo, out[i + k]))
            return false;
    }
    for (size_t k = n_lo; k < nvals; ++k) {
        if (!decodeAt(t_hi, start_hi, out[i + k]))
            return false;
    }
    i += nvals;
    p += 32 - static_cast<size_t>(std::countl_zero(term));
    return true;
}

/**
 * Reference bit extraction: value @p width bits wide starting at
 * absolute bit offset @p bit, LSB-first. Reads only the bytes that
 * contain those bits.
 */
inline uint64_t
getBitsRef(const uint8_t* in, uint64_t bit, size_t width)
{
    uint64_t v = 0;
    for (size_t k = 0; k < width; ++k) {
        const uint64_t b = bit + k;
        v |= static_cast<uint64_t>((in[b >> 3] >> (b & 7)) & 1) << k;
    }
    return v;
}

// --- batch kernels (fast_decode.cc) --------------------------------------

/**
 * SWAR batch decode of @p count varints starting at @p pos (advanced on
 * success). @return false on malformed input.
 */
bool decodeVarintsSwar(const uint8_t* in, size_t size, size_t& pos,
                       uint64_t* out, size_t count);

/**
 * SWAR fused decode of @p count varint dictionary indices starting at
 * @p pos (advanced on success), writing dict[idx] to @p out. @return
 * false on malformed input or an index >= dict_size.
 */
bool decodeDictIndicesSwar(const uint8_t* in, size_t size, size_t& pos,
                           const int64_t* dict, uint64_t dict_size,
                           int64_t* out, size_t count);

/**
 * Unpack @p count @p width-bit values (LSB-first) from @p in, starting
 * at bit offset @p start_bit, via unaligned word windows with a
 * byte-exact tail. The caller guarantees the packed bits lie within
 * @p in_bytes.
 */
void unpackBitsWord(const uint8_t* in, size_t in_bytes, size_t width,
                    size_t count, uint64_t* out, uint64_t start_bit = 0);

/**
 * Replace @p count indices stored in @p inout (as uint64) with
 * dict[index]. @return false if any index >= dict_size (no writes are
 * lost on failure, but contents are unspecified).
 */
bool gatherDictScalar(const int64_t* dict, uint64_t dict_size,
                      int64_t* inout, size_t count);

#if defined(PRESTO_HAVE_X86_SIMD)
// --- AVX2 kernels (fast_decode_avx2.cc) ----------------------------------
bool decodeVarintsAvx2(const uint8_t* in, size_t size, size_t& pos,
                       uint64_t* out, size_t count);
bool decodeDictIndicesAvx2(const uint8_t* in, size_t size, size_t& pos,
                           const int64_t* dict, uint64_t dict_size,
                           int64_t* out, size_t count);
void unpackBitsAvx2(const uint8_t* in, size_t in_bytes, size_t width,
                    size_t count, uint64_t* out);
bool gatherDictAvx2(const int64_t* dict, uint64_t dict_size, int64_t* inout,
                    size_t count);

// --- AVX-512 kernels (fast_decode_avx512.cc) -----------------------------
// Requires the byte-compaction extensions (BW + VBMI + VBMI2) on top of
// SimdLevel::kAvx512 — see avx512ByteCompactionSupported(). 64-byte
// windows, vpcompressb boundary extraction, vpermb payload alignment.
bool decodeVarintsAvx512(const uint8_t* in, size_t size, size_t& pos,
                         uint64_t* out, size_t count);
#endif

// --- dispatched entry points used by encoding.cc -------------------------

/** Batch varint decode at the active SIMD level. */
bool decodeVarintsBatch(const uint8_t* in, size_t size, size_t& pos,
                        uint64_t* out, size_t count);

/** Fused index-decode + dictionary gather at the active SIMD level. */
bool decodeDictIndices(const uint8_t* in, size_t size, size_t& pos,
                       const int64_t* dict, uint64_t dict_size, int64_t* out,
                       size_t count);

/** Fixed-width unpack at the active SIMD level. */
void unpackBits(const uint8_t* in, size_t in_bytes, size_t width,
                size_t count, uint64_t* out);

/** In-place dictionary materialization at the active SIMD level. */
bool gatherDict(const int64_t* dict, uint64_t dict_size, int64_t* inout,
                size_t count);

}  // namespace presto::enc::detail

#endif  // PRESTO_COLUMNAR_FAST_DECODE_INTERNAL_H_
