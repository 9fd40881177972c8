#include "columnar/encoding.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "columnar/fast_decode_internal.h"

namespace presto {

const char*
encodingName(Encoding encoding)
{
    switch (encoding) {
      case Encoding::kPlainF32:    return "plain_f32";
      case Encoding::kPlainI64:    return "plain_i64";
      case Encoding::kVarint:      return "varint";
      case Encoding::kDeltaVarint: return "delta_varint";
      case Encoding::kRle:         return "rle";
      case Encoding::kDictionary:  return "dictionary";
      case Encoding::kBitPacked:   return "bit_packed";
    }
    return "?";
}

namespace enc {

namespace {

std::atomic<bool> g_fast_decode{true};

/** Distinct-value cap shared by the dictionary-flavored encoders. */
constexpr size_t kDictDistinctCap = 4096;

size_t
packedBytes(size_t count, size_t width)
{
    return (count * width + 7) / 8;
}

/**
 * Append the low @p width bits of value_at(0) .. value_at(count - 1),
 * packed LSB-first, flushing a 64-bit accumulator a word at a time.
 */
template <typename ValueAt>
void
putPackedBits(std::vector<uint8_t>& out, size_t count, size_t width,
              ValueAt value_at)
{
    const size_t start = out.size();
    out.resize(start + packedBytes(count, width));
    if (width == 0)
        return;
    const uint64_t mask = ~uint64_t{0} >> (64 - width);
    uint8_t* dst = out.data() + start;
    uint64_t acc = 0;
    size_t bits = 0;  // pending bits in acc, always < 64
    for (size_t i = 0; i < count; ++i) {
        const uint64_t v = value_at(i) & mask;
        acc |= v << bits;
        bits += width;
        if (bits >= 64) {
            std::memcpy(dst, &acc, sizeof(acc));
            dst += sizeof(acc);
            bits -= 64;
            // The high bits of v that did not fit, if any.
            acc = bits == 0 ? 0 : v >> (width - bits);
        }
    }
    std::memcpy(dst, &acc, (bits + 7) / 8);
}

/**
 * First-seen dictionary of an int64 slice: its distinct values in order
 * of first appearance and each value's index into them, found through
 * a flat open-addressing table of indices. chooseIntEncoding() and
 * both dictionary encoders build it the same way, so the size the
 * chooser predicts is the size the encoder writes.
 */
class FirstSeenDict
{
  public:
    /**
     * Index @p values. @return false, leaving the dictionary partial,
     * as soon as more than @p cap distinct values appear.
     */
    bool
    build(std::span<const int64_t> values, size_t cap)
    {
        distinct.clear();
        indices.clear();
        indices.reserve(values.size());
        // Load factor <= 1/2 at the most distinct values that fit.
        const size_t slots =
            std::bit_ceil(2 * std::min(cap, values.size()) + 2);
        const int shift = 64 - std::countr_zero(slots);
        slots_.assign(slots, kEmpty);
        for (int64_t v : values) {
            size_t h = (static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull) >>
                       shift;
            uint32_t idx = slots_[h];
            while (idx != kEmpty && distinct[idx] != v) {
                h = (h + 1) & (slots - 1);
                idx = slots_[h];
            }
            if (idx == kEmpty) {
                if (distinct.size() == cap)
                    return false;
                idx = static_cast<uint32_t>(distinct.size());
                slots_[h] = idx;
                distinct.push_back(v);
            }
            indices.push_back(idx);
        }
        return true;
    }

    std::vector<int64_t> distinct;
    std::vector<uint32_t> indices;

  private:
    static constexpr uint32_t kEmpty = UINT32_MAX;
    std::vector<uint32_t> slots_;
};

/** One kBitPacked layout of a slice (see encoding.h framing). */
struct BitPackedPlan {
    uint8_t mode = 0;
    size_t width = 0;
    int64_t base = 0;  ///< mode 0: min value; mode 2: min delta
    size_t bytes = 0;  ///< payload size
};

/**
 * The smallest kBitPacked layout of @p values; on equal sizes mode 0
 * beats mode 2, which beats mode 1. @p dict is the slice's dictionary,
 * or null when it has more than kDictDistinctCap distinct values.
 */
BitPackedPlan
planBitPacked(std::span<const int64_t> values, const FirstSeenDict* dict)
{
    const size_t n = values.size();
    int64_t lo = n == 0 ? 0 : values[0];
    int64_t hi = lo;
    int64_t d_lo = 0;
    int64_t d_hi = 0;
    for (size_t i = 0; i < n; ++i) {
        lo = std::min(lo, values[i]);
        hi = std::max(hi, values[i]);
        if (i > 0) {
            // Unsigned subtraction: defined for any int64 range.
            const auto d =
                static_cast<int64_t>(static_cast<uint64_t>(values[i]) -
                                     static_cast<uint64_t>(values[i - 1]));
            d_lo = i == 1 ? d : std::min(d_lo, d);
            d_hi = i == 1 ? d : std::max(d_hi, d);
        }
    }
    const size_t direct_width = std::bit_width(
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo));
    BitPackedPlan best{0, direct_width, lo,
                       2 + varintLen(zigZag(lo)) +
                           packedBytes(n, direct_width)};
    if (n >= 2) {
        // Frame of reference over deltas: monotone offset arrays and
        // other near-constant-stride sequences.
        const size_t width = std::bit_width(static_cast<uint64_t>(d_hi) -
                                            static_cast<uint64_t>(d_lo));
        const size_t bytes = 2 + varintLen(zigZag(values[0])) +
                             varintLen(zigZag(d_lo)) +
                             packedBytes(n - 1, width);
        if (bytes < best.bytes)
            best = {2, width, d_lo, bytes};
    }
    if (dict != nullptr) {
        const size_t d = dict->distinct.size();
        const size_t width = d == 0 ? 0 : std::bit_width(d - 1);
        size_t bytes = 2 + varintLen(d) + packedBytes(n, width);
        for (int64_t v : dict->distinct)
            bytes += varintLen(zigZag(v));
        if (bytes < best.bytes)
            best = {1, width, 0, bytes};
    }
    return best;
}

/** Parsed and validated kBitPacked header (see encoding.h framing). */
struct BitPackedHeader {
    uint8_t mode = 0;
    int64_t base = 0;        ///< mode 0: min value; mode 2: min delta
    int64_t first = 0;       ///< mode 2: value[0]
    uint64_t dict_size = 0;  ///< mode 1
    size_t width = 0;
    size_t packed_pos = 0;   ///< payload offset of the packed block
};

/**
 * Parse everything before the packed block (decoding the mode-1
 * dictionary into @p dict) and validate the packed block's exact size
 * and zero trailing bits. Shared by the reference and dispatched
 * decoders so both reject exactly the same malformed pages.
 */
Status
parseBitPackedHeader(std::span<const uint8_t> payload, size_t count,
                     BitPackedHeader& h, std::vector<int64_t>& dict)
{
    if (payload.empty())
        return Status::corruption("truncated bit-packed page");
    h.mode = payload[0];
    size_t pos = 1;
    if (h.mode > 2)
        return Status::corruption("unknown bit-packed mode");
    if (h.mode == 0) {
        uint64_t zz = 0;
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, zz));
        h.base = unZigZag(zz);
    } else if (h.mode == 1) {
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, h.dict_size));
        if (h.dict_size > payload.size())
            return Status::corruption("dictionary size exceeds payload");
        dict.resize(h.dict_size);
        for (uint64_t i = 0; i < h.dict_size; ++i) {
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            dict[i] = unZigZag(u);
        }
    } else {
        if (count == 0)
            return Status::corruption("delta bit-packed page without values");
        uint64_t zz = 0;
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, zz));
        h.first = unZigZag(zz);
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, zz));
        h.base = unZigZag(zz);
    }
    if (pos >= payload.size())
        return Status::corruption("truncated bit-packed page");
    h.width = payload[pos++];
    if (h.width > 64)
        return Status::corruption("bit-packed width exceeds 64");
    const uint64_t packed_count = h.mode == 2 ? count - 1 : count;
    const uint64_t packed_bits = packed_count * h.width;
    const uint64_t packed = (packed_bits + 7) / 8;
    if (payload.size() - pos != packed)
        return Status::corruption("bit-packed payload size mismatch");
    if (packed_bits % 8 != 0) {
        const uint8_t last = payload[pos + packed - 1];
        if ((last >> (packed_bits % 8)) != 0)
            return Status::corruption("nonzero trailing bits in "
                                      "bit-packed page");
    }
    h.packed_pos = pos;
    return Status::okStatus();
}

}  // namespace

void
putVarint(std::vector<uint8_t>& out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<uint8_t>(value) | 0x80);
        value >>= 7;
    }
    out.push_back(static_cast<uint8_t>(value));
}

Status
getVarint(std::span<const uint8_t> in, size_t& pos, uint64_t& value)
{
    value = 0;
    for (int shift = 0; shift < 64; shift += 7) {
        if (pos >= in.size())
            return Status::corruption("truncated varint");
        const uint8_t byte = in[pos++];
        // The 10th byte holds bits 63..69; anything past bit 63 would
        // silently wrap, so reject instead.
        if (shift == 63 && (byte & 0x7f) > 1)
            return Status::corruption("varint overflows 64 bits");
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return Status::okStatus();
    }
    return Status::corruption("varint longer than 10 bytes");
}

std::vector<uint8_t>
encodePlainF32(std::span<const float> values)
{
    std::vector<uint8_t> out(values.size() * sizeof(float));
    if (!values.empty())
        std::memcpy(out.data(), values.data(), out.size());
    return out;
}

std::vector<uint8_t>
encodePlainI64(std::span<const int64_t> values)
{
    std::vector<uint8_t> out(values.size() * sizeof(int64_t));
    if (!values.empty())
        std::memcpy(out.data(), values.data(), out.size());
    return out;
}

std::vector<uint8_t>
encodeVarint(std::span<const int64_t> values)
{
    std::vector<uint8_t> out;
    out.reserve(values.size() * 3);
    for (int64_t v : values)
        putVarint(out, zigZag(v));
    return out;
}

std::vector<uint8_t>
encodeDeltaVarint(std::span<const int64_t> values)
{
    std::vector<uint8_t> out;
    out.reserve(values.size() * 2);
    uint64_t prev = 0;
    for (int64_t v : values) {
        // Unsigned subtraction: same bits as the signed delta wherever
        // that is defined, and well-defined for any int64 range.
        const uint64_t delta = static_cast<uint64_t>(v) - prev;
        putVarint(out, zigZag(static_cast<int64_t>(delta)));
        prev = static_cast<uint64_t>(v);
    }
    return out;
}

std::vector<uint8_t>
encodeRle(std::span<const int64_t> values)
{
    std::vector<uint8_t> out;
    size_t i = 0;
    while (i < values.size()) {
        size_t run = 1;
        while (i + run < values.size() && values[i + run] == values[i])
            ++run;
        putVarint(out, run);
        putVarint(out, zigZag(values[i]));
        i += run;
    }
    return out;
}

std::vector<uint8_t>
encodeDictionary(std::span<const int64_t> values)
{
    static thread_local FirstSeenDict dict;
    dict.build(values, SIZE_MAX);
    std::vector<uint8_t> out;
    putVarint(out, dict.distinct.size());
    for (int64_t v : dict.distinct)
        putVarint(out, zigZag(v));
    for (uint32_t idx : dict.indices)
        putVarint(out, idx);
    return out;
}

std::vector<uint8_t>
encodeBitPacked(std::span<const int64_t> values)
{
    static thread_local FirstSeenDict dict;
    const bool dict_ok = dict.build(values, kDictDistinctCap);
    const BitPackedPlan plan =
        planBitPacked(values, dict_ok ? &dict : nullptr);
    const auto base = static_cast<uint64_t>(plan.base);
    std::vector<uint8_t> out{plan.mode};
    if (plan.mode == 0) {
        putVarint(out, zigZag(plan.base));
        out.push_back(static_cast<uint8_t>(plan.width));
        putPackedBits(out, values.size(), plan.width, [&](size_t i) {
            return static_cast<uint64_t>(values[i]) - base;
        });
    } else if (plan.mode == 2) {
        putVarint(out, zigZag(values[0]));
        putVarint(out, zigZag(plan.base));
        out.push_back(static_cast<uint8_t>(plan.width));
        putPackedBits(out, values.size() - 1, plan.width, [&](size_t i) {
            return static_cast<uint64_t>(values[i + 1]) -
                   static_cast<uint64_t>(values[i]) - base;
        });
    } else {
        putVarint(out, dict.distinct.size());
        for (int64_t v : dict.distinct)
            putVarint(out, zigZag(v));
        out.push_back(static_cast<uint8_t>(plan.width));
        putPackedBits(out, values.size(), plan.width,
                      [&](size_t i) { return dict.indices[i]; });
    }
    return out;
}

Status
decodeF32Into(Encoding encoding, std::span<const uint8_t> payload,
              size_t count, float* out)
{
    if (encoding != Encoding::kPlainF32)
        return Status::corruption("float page with non-float encoding");
    if (payload.size() != count * sizeof(float))
        return Status::corruption("plain_f32 payload size mismatch");
    if (count > 0)
        std::memcpy(out, payload.data(), payload.size());
    return Status::okStatus();
}

Status
decodeF32(Encoding encoding, std::span<const uint8_t> payload, size_t count,
          std::vector<float>& out)
{
    if (encoding != Encoding::kPlainF32)
        return Status::corruption("float page with non-float encoding");
    if (payload.size() != count * sizeof(float))
        return Status::corruption("plain_f32 payload size mismatch");
    out.resize(count);
    if (count > 0)
        std::memcpy(out.data(), payload.data(), payload.size());
    return Status::okStatus();
}

Status
decodeI64(Encoding encoding, std::span<const uint8_t> payload, size_t count,
          std::vector<int64_t>& out)
{
    std::vector<int64_t> dict_scratch;
    return decodeI64(encoding, payload, count, out, dict_scratch);
}

Status
decodeI64(Encoding encoding, std::span<const uint8_t> payload, size_t count,
          std::vector<int64_t>& out, std::vector<int64_t>& dict_scratch)
{
    if (!g_fast_decode.load(std::memory_order_relaxed))
        return decodeI64Reference(encoding, payload, count, out,
                                  dict_scratch);
    out.resize(count);
    return decodeI64Into(encoding, payload, count, out.data(), dict_scratch);
}

Status
decodeI64Into(Encoding encoding, std::span<const uint8_t> payload,
              size_t count, int64_t* out, std::vector<int64_t>& dict_scratch)
{
    size_t pos = 0;
    switch (encoding) {
      case Encoding::kPlainI64: {
        if (payload.size() != count * sizeof(int64_t))
            return Status::corruption("plain_i64 payload size mismatch");
        if (count > 0)
            std::memcpy(out, payload.data(), payload.size());
        return Status::okStatus();
      }
      case Encoding::kVarint: {
        auto* u = reinterpret_cast<uint64_t*>(out);
        if (!detail::decodeVarintsBatch(payload.data(), payload.size(), pos,
                                        u, count))
            return Status::corruption("truncated or malformed varint");
        for (size_t i = 0; i < count; ++i)
            out[i] = unZigZag(u[i]);
        break;
      }
      case Encoding::kDeltaVarint: {
        auto* u = reinterpret_cast<uint64_t*>(out);
        if (!detail::decodeVarintsBatch(payload.data(), payload.size(), pos,
                                        u, count))
            return Status::corruption("truncated or malformed varint");
        uint64_t prev = 0;
        for (size_t i = 0; i < count; ++i) {
            prev += static_cast<uint64_t>(unZigZag(u[i]));
            out[i] = static_cast<int64_t>(prev);
        }
        break;
      }
      case Encoding::kRle: {
        size_t filled = 0;
        while (filled < count) {
            uint64_t run = 0;
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, run));
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            if (run == 0 || run > count - filled)
                return Status::corruption("rle run overflows page");
            std::fill_n(out + filled, run, unZigZag(u));
            filled += run;
        }
        break;
      }
      case Encoding::kDictionary: {
        uint64_t dict_size = 0;
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, dict_size));
        if (dict_size > payload.size())
            return Status::corruption("dictionary size exceeds payload");
        dict_scratch.resize(dict_size);
        auto* du = reinterpret_cast<uint64_t*>(dict_scratch.data());
        if (!detail::decodeVarintsBatch(payload.data(), payload.size(), pos,
                                        du, dict_size))
            return Status::corruption("truncated or malformed varint");
        for (uint64_t i = 0; i < dict_size; ++i)
            dict_scratch[i] = unZigZag(du[i]);
        if (!detail::decodeDictIndices(payload.data(), payload.size(), pos,
                                       dict_scratch.data(), dict_size, out,
                                       count)) {
            return Status::corruption(
                "malformed dictionary index stream");
        }
        break;
      }
      case Encoding::kBitPacked: {
        BitPackedHeader h;
        PRESTO_RETURN_IF_ERROR(
            parseBitPackedHeader(payload, count, h, dict_scratch));
        auto* u = reinterpret_cast<uint64_t*>(out);
        if (h.mode == 2) {
            // Unpack the count-1 delta excesses into slots 1..count-1 so
            // the in-place prefix sum reads u[i] before writing out[i].
            detail::unpackBits(payload.data() + h.packed_pos,
                               payload.size() - h.packed_pos, h.width,
                               count - 1, u + 1);
            const auto base = static_cast<uint64_t>(h.base);
            auto prev = static_cast<uint64_t>(h.first);
            out[0] = h.first;
            for (size_t i = 1; i < count; ++i) {
                prev += base + u[i];
                out[i] = static_cast<int64_t>(prev);
            }
            return Status::okStatus();
        }
        detail::unpackBits(payload.data() + h.packed_pos,
                           payload.size() - h.packed_pos, h.width, count, u);
        if (h.mode == 0) {
            const auto base = static_cast<uint64_t>(h.base);
            for (size_t i = 0; i < count; ++i)
                out[i] = static_cast<int64_t>(base + u[i]);
        } else if (!detail::gatherDict(dict_scratch.data(), h.dict_size, out,
                                       count)) {
            return Status::corruption("dictionary index out of range");
        }
        // The header parse validated the exact packed-block size.
        return Status::okStatus();
      }
      case Encoding::kPlainF32:
        return Status::corruption("int page with float encoding");
    }
    if (pos != payload.size())
        return Status::corruption("trailing bytes after decoded page");
    return Status::okStatus();
}

Status
decodeI64Reference(Encoding encoding, std::span<const uint8_t> payload,
                   size_t count, std::vector<int64_t>& out,
                   std::vector<int64_t>& dict_scratch)
{
    out.clear();
    out.reserve(count);
    size_t pos = 0;
    switch (encoding) {
      case Encoding::kPlainI64: {
        if (payload.size() != count * sizeof(int64_t))
            return Status::corruption("plain_i64 payload size mismatch");
        out.resize(count);
        if (count > 0)
            std::memcpy(out.data(), payload.data(), payload.size());
        return Status::okStatus();
      }
      case Encoding::kVarint: {
        for (size_t i = 0; i < count; ++i) {
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            out.push_back(unZigZag(u));
        }
        break;
      }
      case Encoding::kDeltaVarint: {
        uint64_t prev = 0;
        for (size_t i = 0; i < count; ++i) {
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            prev += static_cast<uint64_t>(unZigZag(u));
            out.push_back(static_cast<int64_t>(prev));
        }
        break;
      }
      case Encoding::kRle: {
        while (out.size() < count) {
            uint64_t run = 0;
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, run));
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            if (run == 0 || out.size() + run > count)
                return Status::corruption("rle run overflows page");
            out.insert(out.end(), run, unZigZag(u));
        }
        break;
      }
      case Encoding::kDictionary: {
        uint64_t dict_size = 0;
        PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, dict_size));
        if (dict_size > payload.size())
            return Status::corruption("dictionary size exceeds payload");
        std::vector<int64_t>& dict = dict_scratch;
        dict.clear();
        dict.reserve(dict_size);
        for (uint64_t i = 0; i < dict_size; ++i) {
            uint64_t u = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, u));
            dict.push_back(unZigZag(u));
        }
        for (size_t i = 0; i < count; ++i) {
            uint64_t idx = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(payload, pos, idx));
            if (idx >= dict.size())
                return Status::corruption("dictionary index out of range");
            out.push_back(dict[idx]);
        }
        break;
      }
      case Encoding::kBitPacked: {
        BitPackedHeader h;
        PRESTO_RETURN_IF_ERROR(
            parseBitPackedHeader(payload, count, h, dict_scratch));
        const uint8_t* packed = payload.data() + h.packed_pos;
        if (h.mode == 2) {
            auto prev = static_cast<uint64_t>(h.first);
            out.push_back(h.first);
            for (size_t i = 1; i < count; ++i) {
                const uint64_t u = detail::getBitsRef(
                    packed, static_cast<uint64_t>(i - 1) * h.width, h.width);
                prev += static_cast<uint64_t>(h.base) + u;
                out.push_back(static_cast<int64_t>(prev));
            }
            return Status::okStatus();
        }
        for (size_t i = 0; i < count; ++i) {
            const uint64_t u = detail::getBitsRef(
                packed, static_cast<uint64_t>(i) * h.width, h.width);
            if (h.mode == 0) {
                out.push_back(static_cast<int64_t>(
                    static_cast<uint64_t>(h.base) + u));
            } else {
                if (u >= h.dict_size)
                    return Status::corruption(
                        "dictionary index out of range");
                out.push_back(dict_scratch[u]);
            }
        }
        return Status::okStatus();
      }
      case Encoding::kPlainF32:
        return Status::corruption("int page with float encoding");
    }
    if (pos != payload.size())
        return Status::corruption("trailing bytes after decoded page");
    return Status::okStatus();
}

bool
setFastDecodeEnabled(bool enabled)
{
    return g_fast_decode.exchange(enabled, std::memory_order_relaxed);
}

bool
fastDecodeEnabled()
{
    return g_fast_decode.load(std::memory_order_relaxed);
}

Encoding
chooseIntEncoding(std::span<const int64_t> values)
{
    if (values.empty())
        return Encoding::kVarint;

    // One pass sizes the varint, delta and RLE candidates exactly; the
    // dictionary and bit-packed sizes come from the slice's dictionary.
    size_t varint_bytes = 0;
    size_t delta_bytes = 0;
    size_t rle_bytes = 0;
    bool monotone = true;
    int64_t run_value = values[0];
    size_t run_len = 0;
    uint64_t prev = 0;
    for (size_t i = 0; i < values.size(); ++i) {
        const int64_t v = values[i];
        varint_bytes += varintLen(zigZag(v));
        const uint64_t delta = static_cast<uint64_t>(v) - prev;
        delta_bytes += varintLen(zigZag(static_cast<int64_t>(delta)));
        prev = static_cast<uint64_t>(v);
        if (i > 0 && v < values[i - 1])
            monotone = false;
        if (v == run_value && i > 0) {
            ++run_len;
        } else {
            if (i > 0)
                rle_bytes += varintLen(run_len) + varintLen(zigZag(run_value));
            run_value = v;
            run_len = 1;
        }
    }
    rle_bytes += varintLen(run_len) + varintLen(zigZag(run_value));

    static thread_local FirstSeenDict dict;
    const bool dict_ok = dict.build(values, kDictDistinctCap);
    const size_t bp_bytes =
        planBitPacked(values, dict_ok ? &dict : nullptr).bytes;
    size_t dict_bytes = varintLen(dict.distinct.size());
    for (int64_t v : dict.distinct)
        dict_bytes += varintLen(zigZag(v));
    for (uint32_t idx : dict.indices)
        dict_bytes += varintLen(idx);

    // Candidates in decode-speed order; a later one must be strictly
    // smaller to win.
    Encoding best = Encoding::kPlainI64;
    size_t best_bytes = values.size() * sizeof(int64_t);
    const auto consider = [&](Encoding e, size_t bytes) {
        if (bytes < best_bytes) {
            best = e;
            best_bytes = bytes;
        }
    };
    consider(Encoding::kBitPacked, bp_bytes);
    consider(Encoding::kRle, rle_bytes);
    if (monotone)
        consider(Encoding::kDeltaVarint, delta_bytes);
    if (dict_ok)
        consider(Encoding::kDictionary, dict_bytes);
    consider(Encoding::kVarint, varint_bytes);
    return best;
}

}  // namespace enc
}  // namespace presto
