/**
 * @file
 * Adversarial suite for the canonical-Huffman entropy codec
 * (columnar/entropy.h), its integration into the page-frame codec menu
 * (kEntropy / kLzEntropy), and the footer heat metadata that drives
 * frequency-aware channel placement.
 *
 * Contracts under test:
 *  - huffCompress/huffDecompress round-trip exactly on every byte
 *    distribution, including adversarially skewed histograms;
 *  - every malformed stream — truncations, table mutations, trailing
 *    bytes, non-zero padding — is rejected with kCorruption, even when
 *    the enclosing page frame's CRC is recomputed to be valid;
 *  - the codec-menu writer stores the strictly smallest frame and falls
 *    back to the byte-identical plain frame (on-disk parity with
 *    pre-codec files) when nothing shrinks;
 *  - whole files written plain, LZ-only, and full-menu decode to
 *    bit-identical batches through every read path;
 *  - assignChannelPlacement stripes hot streams round-robin and keeps
 *    cold streams channel-contiguous.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "columnar/columnar_file.h"
#include "columnar/compress.h"
#include "columnar/encoding.h"
#include "columnar/entropy.h"
#include "columnar/page.h"
#include "common/crc32.h"

namespace presto {
namespace {

// --- byte material ---------------------------------------------------------

enum class Dist {
    kEmpty,
    kSingleSymbol,
    kTwoEqual,
    kTwoSkewed,     ///< 99:1 two-symbol split
    kGeometric,     ///< P(s) halves per symbol: deep unbalanced tree
    kFibonacci,     ///< Fibonacci weights: worst case for code length
    kAllBytes,      ///< all 256 symbols near-uniform
    kTextish,
    kRandom,
};

const std::vector<Dist> kDists{
    Dist::kEmpty,    Dist::kSingleSymbol, Dist::kTwoEqual,
    Dist::kTwoSkewed, Dist::kGeometric,   Dist::kFibonacci,
    Dist::kAllBytes, Dist::kTextish,      Dist::kRandom};

const char*
distName(Dist d)
{
    switch (d) {
      case Dist::kEmpty: return "empty";
      case Dist::kSingleSymbol: return "single-symbol";
      case Dist::kTwoEqual: return "two-equal";
      case Dist::kTwoSkewed: return "two-skewed";
      case Dist::kGeometric: return "geometric";
      case Dist::kFibonacci: return "fibonacci";
      case Dist::kAllBytes: return "all-bytes";
      case Dist::kTextish: return "textish";
      case Dist::kRandom: return "random";
    }
    return "?";
}

std::vector<uint8_t>
makeDist(Dist d, size_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<uint8_t> v(n);
    switch (d) {
      case Dist::kEmpty:
        v.clear();
        break;
      case Dist::kSingleSymbol:
        std::fill(v.begin(), v.end(), uint8_t{0xa5});
        break;
      case Dist::kTwoEqual:
        for (auto& b : v)
            b = (rng() & 1) ? 0x00 : 0xff;
        break;
      case Dist::kTwoSkewed:
        for (auto& b : v)
            b = (rng() % 100 == 0) ? 0x7f : 0x01;
        break;
      case Dist::kGeometric:
        // Symbol s with probability ~2^-(s+1), spread over the whole
        // byte range so LZ finds few matches but entropy coding wins.
        for (auto& b : v) {
            uint64_t r = rng();
            uint8_t s = 0;
            while (s < 40 && (r & 1)) {
                r >>= 1;
                ++s;
            }
            b = static_cast<uint8_t>(s * 37 + (rng() % 7));
        }
        break;
      case Dist::kFibonacci: {
        // Draw symbols with Fibonacci-like weights: the unlimited
        // Huffman tree wants codes far deeper than kMaxHuffCodeLen,
        // forcing package-merge to length-limit while staying
        // Kraft-complete.
        std::vector<uint64_t> w{1, 1};
        while (w.size() < 24)
            w.push_back(w[w.size() - 1] + w[w.size() - 2]);
        const uint64_t total =
            std::accumulate(w.begin(), w.end(), uint64_t{0});
        for (auto& b : v) {
            uint64_t r = rng() % total;
            uint8_t s = 0;
            while (r >= w[s]) {
                r -= w[s];
                ++s;
            }
            b = static_cast<uint8_t>(s * 11);
        }
        break;
      }
      case Dist::kAllBytes:
        for (size_t i = 0; i < n; ++i)
            v[i] = static_cast<uint8_t>(i + rng() % 3);
        break;
      case Dist::kTextish: {
        static const char words[] =
            "the quick brown fox jumps over lazy dogs again and again ";
        for (size_t i = 0; i < n; ++i)
            v[i] = static_cast<uint8_t>(
                words[(i + (i / 577) * 13) % (sizeof(words) - 1)]);
        break;
      }
      case Dist::kRandom:
        for (auto& b : v)
            b = static_cast<uint8_t>(rng());
        break;
    }
    return v;
}

// --- round trips -----------------------------------------------------------

TEST(HuffRoundTripTest, AllDistributionsAndSizes)
{
    const std::vector<size_t> sizes{0,   1,    2,    3,    7,    8,
                                    63,  255,  256,  1021, 4096, 65536};
    for (Dist d : kDists) {
        for (size_t n : sizes) {
            const auto raw = makeDist(d, n, n * 131 + 7);
            const auto packed = enc::huffCompress(raw);
            ASSERT_FALSE(packed.empty());

            HuffStreamInfo info;
            ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok())
                << distName(d) << " n=" << n;
            EXPECT_EQ(info.raw_bytes, raw.size());
            EXPECT_LE(info.header_bytes, packed.size());

            std::vector<uint8_t> out(raw.size());
            ASSERT_TRUE(enc::huffDecompress(packed, out).ok())
                << distName(d) << " n=" << n;
            EXPECT_EQ(out, raw) << distName(d) << " n=" << n;
        }
    }
}

TEST(HuffRoundTripTest, EveryLongestCodeLengthDecodes)
{
    // Dyadic weights 2^(L-1), ..., 2, 1, 1 give codes of lengths
    // 1..L, L: one stream per longest length L exercises each level of
    // the decoder's length-at-a-time table build, on a small page
    // (single-symbol table) and a large one (fused table).
    for (int longest = 1; longest <= kMaxHuffCodeLen; ++longest) {
        for (size_t copies : {size_t{1}, size_t{16}}) {
            std::vector<uint8_t> raw;
            for (int k = 0; k <= longest; ++k) {
                const size_t weight =
                    size_t{1} << (k < longest ? longest - 1 - k : 0);
                raw.insert(raw.end(), weight * copies,
                           static_cast<uint8_t>(k * 23 + 5));
            }
            std::shuffle(raw.begin(), raw.end(),
                         std::mt19937_64(longest * 31 + copies));
            const auto packed = enc::huffCompress(raw);
            HuffStreamInfo info;
            ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok());
            ASSERT_EQ(info.mode, 0) << "longest " << longest;
            int max_len = 0;
            for (uint32_t i = info.header_bytes - info.table_bytes;
                 i < info.header_bytes; ++i)
                max_len = std::max({max_len, packed[i] & 0xF,
                                    packed[i] >> 4});
            EXPECT_EQ(max_len, longest);
            std::vector<uint8_t> out(raw.size());
            ASSERT_TRUE(enc::huffDecompress(packed, out).ok())
                << "longest " << longest << " n=" << raw.size();
            EXPECT_EQ(out, raw) << "longest " << longest
                                << " n=" << raw.size();
        }
    }
}

TEST(HuffRoundTripTest, OutputBufferReusedAcrossCalls)
{
    std::vector<uint8_t> packed;
    for (int i = 0; i < 4; ++i) {
        const auto raw =
            makeDist(kDists[i % kDists.size()], 4096, 17 + i);
        enc::huffCompress(raw, packed);
        std::vector<uint8_t> out(raw.size());
        ASSERT_TRUE(enc::huffDecompress(packed, out).ok());
        EXPECT_EQ(out, raw);
    }
}

TEST(HuffRoundTripTest, SingleSymbolRunsUseCompactMode)
{
    const auto raw = makeDist(Dist::kSingleSymbol, 65536, 1);
    const auto packed = enc::huffCompress(raw);
    HuffStreamInfo info;
    ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok());
    EXPECT_EQ(info.mode, 1);
    EXPECT_EQ(info.table_bytes, 0u);
    // varint + mode + symbol: nothing else.
    EXPECT_LE(packed.size(), size_t{12});
    std::vector<uint8_t> out(raw.size());
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok());
    EXPECT_EQ(out, raw);
}

TEST(HuffRoundTripTest, SkewedHistogramsBeatRawSize)
{
    // The codec exists for exactly these shapes: compressed size
    // (including the 130-byte header) must come in under raw.
    for (Dist d : {Dist::kTwoSkewed, Dist::kGeometric, Dist::kFibonacci,
                   Dist::kTextish}) {
        const auto raw = makeDist(d, 65536, 3);
        const auto packed = enc::huffCompress(raw);
        EXPECT_LT(packed.size(), raw.size()) << distName(d);
    }
}

TEST(HuffRoundTripTest, RandomFuzzRoundTrips)
{
    std::mt19937_64 rng(99);
    for (int iter = 0; iter < 300; ++iter) {
        const Dist d = kDists[rng() % kDists.size()];
        const auto raw = makeDist(d, rng() % 5000, rng());
        const auto packed = enc::huffCompress(raw);
        std::vector<uint8_t> out(raw.size());
        ASSERT_TRUE(enc::huffDecompress(packed, out).ok())
            << distName(d) << " iter " << iter;
        EXPECT_EQ(out, raw) << distName(d) << " iter " << iter;
    }
}

// --- code lengths against a package-merge oracle ---------------------------

using Histogram = std::array<uint64_t, 256>;
using Lengths = std::array<uint8_t, 256>;

/**
 * Textbook package-merge that carries every package's symbol list: a
 * symbol's length is its occurrence count in the chosen 2n - 2 entries
 * of the last level. Leaves sort by (weight, symbol), and std::merge
 * puts a leaf before a package of equal weight.
 */
Lengths
oracleCodeLengths(const Histogram& freq)
{
    struct Node {
        uint64_t weight;
        std::vector<uint16_t> syms;
    };
    std::vector<Node> items;
    for (uint32_t s = 0; s < 256; ++s)
        if (freq[s] > 0)
            items.push_back({freq[s], {static_cast<uint16_t>(s)}});
    std::sort(items.begin(), items.end(), [](const Node& a, const Node& b) {
        return a.weight != b.weight ? a.weight < b.weight
                                    : a.syms[0] < b.syms[0];
    });
    std::vector<Node> prev = items;
    for (int level = 1; level < kMaxHuffCodeLen; ++level) {
        std::vector<Node> packages;
        for (size_t i = 0; i + 1 < prev.size(); i += 2) {
            Node merged{prev[i].weight + prev[i + 1].weight, prev[i].syms};
            merged.syms.insert(merged.syms.end(), prev[i + 1].syms.begin(),
                               prev[i + 1].syms.end());
            packages.push_back(std::move(merged));
        }
        std::vector<Node> next;
        std::merge(items.begin(), items.end(), packages.begin(),
                   packages.end(), std::back_inserter(next),
                   [](const Node& a, const Node& b) {
                       return a.weight < b.weight;
                   });
        prev = std::move(next);
    }
    Lengths lengths{};
    for (size_t i = 0; i < 2 * items.size() - 2 && i < prev.size(); ++i)
        for (uint16_t s : prev[i].syms)
            ++lengths[s];
    return lengths;
}

/** Lengths in 1..kMaxHuffCodeLen for exactly the present symbols, with
 *  a Kraft sum of exactly one. */
void
expectKraftComplete(const Histogram& freq, const Lengths& lengths,
                    const std::string& what)
{
    uint64_t kraft = 0;
    for (uint32_t s = 0; s < 256; ++s) {
        ASSERT_EQ(lengths[s] > 0, freq[s] > 0) << what << " symbol " << s;
        ASSERT_LE(lengths[s], kMaxHuffCodeLen) << what << " symbol " << s;
        if (lengths[s] > 0)
            kraft += uint64_t{1} << (kMaxHuffCodeLen - lengths[s]);
    }
    EXPECT_EQ(kraft, uint64_t{1} << kMaxHuffCodeLen) << what;
}

/**
 * huffCodeLengths() must equal the oracle, and, when the histogram is
 * small enough to spell out as bytes, so must the nibble table that
 * huffCompress() stores for those bytes.
 */
void
expectMatchesOracle(const Histogram& freq, const std::string& what)
{
    const Lengths want = oracleCodeLengths(freq);
    expectKraftComplete(freq, want, what);
    Lengths got{};
    enc::huffCodeLengths(freq, got);
    ASSERT_EQ(got, want) << what;

    const uint64_t total = std::accumulate(freq.begin(), freq.end(),
                                           uint64_t{0});
    if (total > (uint64_t{1} << 20))
        return;
    std::vector<uint8_t> raw;
    for (uint32_t s = 0; s < 256; ++s)
        raw.insert(raw.end(), freq[s], static_cast<uint8_t>(s));
    std::shuffle(raw.begin(), raw.end(), std::mt19937_64(total));
    const auto packed = enc::huffCompress(raw);
    HuffStreamInfo info;
    ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok()) << what;
    ASSERT_EQ(info.mode, 0) << what;
    Lengths stored{};
    const size_t table_at = info.header_bytes - info.table_bytes;
    for (uint32_t i = 0; i < info.table_bytes; ++i) {
        stored[2 * i] = packed[table_at + i] & 0xF;
        stored[2 * i + 1] = packed[table_at + i] >> 4;
    }
    ASSERT_EQ(stored, want) << what;
    std::vector<uint8_t> out(raw.size());
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok()) << what;
    ASSERT_EQ(out, raw) << what;
}

TEST(HuffCodeLengthTest, MatchesPackageMergeOracle)
{
    std::mt19937_64 rng(31);
    // Random histograms: any number of symbols, weights from flat to
    // heavily skewed.
    for (int iter = 0; iter < 300; ++iter) {
        Histogram freq{};
        const uint32_t active = 2 + rng() % 255;
        const uint64_t max_weight = uint64_t{1} << (rng() % 13);
        uint32_t placed = 0;
        while (placed < active) {
            const uint32_t s = rng() % 256;
            if (freq[s] == 0) {
                freq[s] = 1 + rng() % max_weight;
                ++placed;
            }
        }
        expectMatchesOracle(freq, "random " + std::to_string(iter));
    }

    // Fibonacci weights: the unlimited Huffman tree is a chain far
    // deeper than kMaxHuffCodeLen, so the limit binds.
    for (uint32_t count : {12u, 16u, 24u, 30u}) {
        Histogram freq{};
        uint64_t a = 1, b = 1;
        for (uint32_t k = 0; k < count; ++k) {
            freq[(k * 37) % 256] = a;
            const uint64_t c = a + b;
            a = b;
            b = c;
        }
        const Lengths lengths = oracleCodeLengths(freq);
        EXPECT_EQ(*std::max_element(lengths.begin(), lengths.end()),
                  kMaxHuffCodeLen)
            << "fibonacci " << count;
        expectMatchesOracle(freq, "fibonacci " + std::to_string(count));
    }

    // All-equal ties, between leaves and with the packages they form.
    for (uint32_t active : {3u, 5u, 100u, 200u, 256u}) {
        for (uint64_t weight : {uint64_t{1}, uint64_t{7}}) {
            Histogram freq{};
            for (uint32_t s = 0; s < active; ++s)
                freq[255 - s * (256 / active)] = weight;
            expectMatchesOracle(freq, "equal " + std::to_string(active) +
                                          "x" + std::to_string(weight));
        }
    }

    // Exactly two symbols, balanced and lopsided.
    for (uint64_t w : {uint64_t{1}, uint64_t{1000}}) {
        Histogram freq{};
        freq[0] = 1;
        freq[255] = w;
        expectMatchesOracle(freq, "two symbols " + std::to_string(w));
    }

    // All 256 symbols, near-uniform and geometric-ish.
    {
        Histogram freq{};
        for (uint32_t s = 0; s < 256; ++s)
            freq[s] = 1000 + rng() % 50;
        expectMatchesOracle(freq, "all 256 near-uniform");
        for (uint32_t s = 0; s < 256; ++s)
            freq[s] = 1 + (uint64_t{1} << (s % 16));
        expectMatchesOracle(freq, "all 256 skewed");
    }

    // Weights near 2^40 (no byte stream that large is built): sums of
    // packages far above 32 bits, ties among them, and a tiny outlier.
    for (int iter = 0; iter < 20; ++iter) {
        Histogram freq{};
        for (uint32_t s = 0; s < 256; ++s)
            if (rng() % 3 != 0)
                freq[s] = (uint64_t{1} << 40) + rng() % 3 -
                          (iter % 2 == 0 ? 1 : 0);
        freq[rng() % 256] = 1;
        freq[rng() % 256] = uint64_t{1} << 41;
        expectMatchesOracle(freq, "near 2^40 " + std::to_string(iter));
    }
}

// --- rejection of malformed streams ----------------------------------------

TEST(HuffRejectTest, EveryTruncationRejected)
{
    for (Dist d :
         {Dist::kSingleSymbol, Dist::kGeometric, Dist::kTextish}) {
        const auto raw = makeDist(d, 2048, 5);
        const auto packed = enc::huffCompress(raw);
        std::vector<uint8_t> out(raw.size());
        for (size_t keep = 0; keep < packed.size(); ++keep) {
            const std::span<const uint8_t> prefix(packed.data(), keep);
            EXPECT_EQ(enc::huffDecompress(prefix, out).code(),
                      StatusCode::kCorruption)
                << distName(d) << " prefix of " << keep << " bytes";
        }
    }
}

TEST(HuffRejectTest, WrongAdvertisedSizeRejected)
{
    const auto raw = makeDist(Dist::kGeometric, 1024, 6);
    const auto packed = enc::huffCompress(raw);
    for (size_t wrong : {size_t{0}, raw.size() - 1, raw.size() + 1}) {
        std::vector<uint8_t> out(wrong);
        EXPECT_EQ(enc::huffDecompress(packed, out).code(),
                  StatusCode::kCorruption)
            << "out size " << wrong;
    }
}

TEST(HuffRejectTest, AnyTableNibbleMutationRejected)
{
    // Changing any single code-length nibble breaks Kraft completeness
    // (the scaled per-length weights are distinct powers of two) or
    // exceeds kMaxHuffCodeLen — either way the decoder must refuse
    // before emitting a byte.
    const auto raw = makeDist(Dist::kGeometric, 4096, 8);
    auto packed = enc::huffCompress(raw);
    HuffStreamInfo info;
    ASSERT_TRUE(enc::huffStreamInfo(packed, info).ok());
    ASSERT_EQ(info.mode, 0);
    ASSERT_GT(info.table_bytes, 0u);
    const size_t table_at = info.header_bytes - info.table_bytes;

    std::vector<uint8_t> out(raw.size());
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok());  // control

    for (size_t i = 0; i < info.table_bytes; ++i) {
        for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x10}}) {
            packed[table_at + i] ^= mask;
            EXPECT_EQ(enc::huffDecompress(packed, out).code(),
                      StatusCode::kCorruption)
                << "table byte " << i << " mask " << int{mask};
            packed[table_at + i] ^= mask;
        }
    }
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok());  // still intact
}

TEST(HuffRejectTest, TrailingBytesRejected)
{
    for (Dist d : {Dist::kSingleSymbol, Dist::kGeometric}) {
        const auto raw = makeDist(d, 512, 9);
        auto packed = enc::huffCompress(raw);
        packed.push_back(0x00);
        std::vector<uint8_t> out(raw.size());
        EXPECT_EQ(enc::huffDecompress(packed, out).code(),
                  StatusCode::kCorruption)
            << distName(d);
    }
}

TEST(HuffRejectTest, NonZeroPaddingRejected)
{
    // Two equally likely symbols give 1-bit codes; 9 bytes -> 9 bits ->
    // 2 bitstream bytes with 7 pad bits that must be zero.
    std::vector<uint8_t> raw(9);
    for (size_t i = 0; i < raw.size(); ++i)
        raw[i] = (i & 1) ? 0xff : 0x00;
    auto packed = enc::huffCompress(raw);
    std::vector<uint8_t> out(raw.size());
    ASSERT_TRUE(enc::huffDecompress(packed, out).ok());
    packed.back() |= 0x80;
    EXPECT_EQ(enc::huffDecompress(packed, out).code(),
              StatusCode::kCorruption);
}

TEST(HuffRejectTest, GarbageNeverCrashes)
{
    std::mt19937_64 rng(21);
    for (int iter = 0; iter < 500; ++iter) {
        std::vector<uint8_t> garbage(rng() % 600);
        for (auto& b : garbage)
            b = static_cast<uint8_t>(rng());
        std::vector<uint8_t> out(rng() % 2048);
        (void)enc::huffDecompress(garbage, out);  // must not crash/UB
    }
}

// --- page-frame integration ------------------------------------------------

TEST(EntropyPageTest, FullMenuStoresTheStrictlySmallestFrame)
{
    for (Dist d : kDists) {
        const auto payload = makeDist(d, 32768, 13);
        if (payload.empty())
            continue;
        const auto n = static_cast<uint32_t>(payload.size() / 8);

        std::vector<uint8_t> plain, lz_only, entropy_only, full;
        writePageFrame(plain, Encoding::kPlainI64, n, payload);
        writePageFrame(lz_only, Encoding::kPlainI64, n, payload,
                       PageCodec::kLz);
        writePageFrame(entropy_only, Encoding::kPlainI64, n, payload,
                       PageCodec::kEntropy);
        const PageCodec stored = writePageFrame(
            full, Encoding::kPlainI64, n, payload, PageCodec::kLzEntropy);

        // The full menu can never lose to any restricted menu.
        EXPECT_LE(full.size(), plain.size()) << distName(d);
        EXPECT_LE(full.size(), lz_only.size()) << distName(d);
        EXPECT_LE(full.size(), entropy_only.size()) << distName(d);

        size_t pos = 0;
        PageView page;
        ASSERT_TRUE(readPageFrame(full, pos, page).ok()) << distName(d);
        EXPECT_EQ(page.codec, stored);
        std::vector<uint8_t> scratch;
        std::span<const uint8_t> got;
        ASSERT_TRUE(pagePayload(page, scratch, got).ok()) << distName(d);
        ASSERT_EQ(got.size(), payload.size()) << distName(d);
        EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()))
            << distName(d);
    }
}

TEST(EntropyPageTest, SkewedPagesPickAnEntropyCodec)
{
    // An i.i.d. geometric byte stream has almost no LZ matches but a
    // heavily skewed histogram: the winning frame must involve entropy
    // coding, and must be materially smaller than LZ alone managed.
    const auto payload = makeDist(Dist::kGeometric, 65536, 29);
    const auto n = static_cast<uint32_t>(payload.size() / 8);
    std::vector<uint8_t> lz_only, full;
    writePageFrame(lz_only, Encoding::kPlainI64, n, payload,
                   PageCodec::kLz);
    const PageCodec stored = writePageFrame(
        full, Encoding::kPlainI64, n, payload, PageCodec::kLzEntropy);
    EXPECT_TRUE(stored == PageCodec::kEntropy ||
                stored == PageCodec::kLzEntropy)
        << pageCodecName(stored);
    EXPECT_LT(full.size(), lz_only.size());
}

TEST(EntropyPageTest, LzEntropyCompoundsOnRedundantSkewedData)
{
    // Textish bytes shrink under LZ and the residual literal stream is
    // still letter-skewed, so lz+entropy beats either codec alone.
    const auto payload = makeDist(Dist::kTextish, 65536, 31);
    const auto n = static_cast<uint32_t>(payload.size() / 8);
    std::vector<uint8_t> lz_only, entropy_only, full;
    writePageFrame(lz_only, Encoding::kPlainI64, n, payload,
                   PageCodec::kLz);
    writePageFrame(entropy_only, Encoding::kPlainI64, n, payload,
                   PageCodec::kEntropy);
    const PageCodec stored = writePageFrame(
        full, Encoding::kPlainI64, n, payload, PageCodec::kLzEntropy);
    EXPECT_EQ(stored, PageCodec::kLzEntropy);
    EXPECT_LT(full.size(), lz_only.size());
    EXPECT_LT(full.size(), entropy_only.size());

    size_t pos = 0;
    PageView page;
    ASSERT_TRUE(readPageFrame(full, pos, page).ok());
    std::vector<uint8_t> scratch;
    std::span<const uint8_t> got;
    ASSERT_TRUE(pagePayload(page, scratch, got).ok());
    ASSERT_EQ(got.size(), payload.size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()));
}

TEST(EntropyPageTest, IncompressiblePageParityWithPlainWriter)
{
    // When nothing in the menu shrinks the page, the stored frame must
    // be byte-identical to the codec-free writer's — zero overhead, so
    // full-menu files of incompressible data match pre-codec files
    // on disk exactly.
    const auto payload = makeDist(Dist::kRandom, 32768, 37);
    const auto n = static_cast<uint32_t>(payload.size() / 8);
    std::vector<uint8_t> with_menu, plain;
    const PageCodec stored = writePageFrame(
        with_menu, Encoding::kPlainI64, n, payload, PageCodec::kLzEntropy);
    writePageFrame(plain, Encoding::kPlainI64, n, payload);
    EXPECT_EQ(stored, PageCodec::kNone);
    EXPECT_EQ(with_menu, plain);
}

TEST(EntropyPageTest, MutatedTableBehindRecomputedCrcRejected)
{
    // A storage-level attacker (or firmware bug) that rewrites the
    // entropy table *and* fixes up the frame CRC gets past the checksum
    // but must still be stopped by the decoder's structural checks.
    const auto payload = makeDist(Dist::kGeometric, 65536, 41);
    const auto n = static_cast<uint32_t>(payload.size() / 8);
    std::vector<uint8_t> frame;
    const PageCodec stored = writePageFrame(
        frame, Encoding::kPlainI64, n, payload, PageCodec::kEntropy);
    ASSERT_EQ(stored, PageCodec::kEntropy);

    // Frame layout: [enc u8][count u32][psize u32][codec u8][raw u32]
    // [payload][crc u32]; the huffman table sits inside the payload.
    const size_t header = 1 + 4 + 4 + kCompressedPageExtraBytes;
    HuffStreamInfo info;
    ASSERT_TRUE(enc::huffStreamInfo(
                    std::span<const uint8_t>(frame).subspan(
                        header, frame.size() - header - 4),
                    info)
                    .ok());
    ASSERT_EQ(info.mode, 0);
    const size_t table_at = header + info.header_bytes - info.table_bytes;

    frame[table_at] ^= 0x01;
    const uint32_t crc = crc32c(frame.data(), frame.size() - 4);
    std::memcpy(frame.data() + frame.size() - 4, &crc, 4);

    size_t pos = 0;
    PageView page;
    ASSERT_TRUE(readPageFrame(frame, pos, page).ok());  // CRC passes
    std::vector<uint8_t> scratch;
    std::span<const uint8_t> got;
    EXPECT_EQ(pagePayload(page, scratch, got).code(),
              StatusCode::kCorruption);
}

// --- whole-file differential -----------------------------------------------

RowBatch
multiPageBatch(size_t rows)
{
    Schema schema;
    schema.add({"label", FeatureKind::kDense});
    schema.add({"dense0", FeatureKind::kDense});
    schema.add({"ids0", FeatureKind::kSparse});
    RowBatch batch(schema);
    std::mt19937_64 rng(8);
    std::vector<float> labels(rows), dense(rows);
    for (size_t i = 0; i < rows; ++i) {
        labels[i] = static_cast<float>(rng() % 2);
        dense[i] = static_cast<float>(rng() % 1000) * 0.25f;
    }
    std::vector<int64_t> ids;
    std::vector<uint32_t> offsets{0};
    for (size_t i = 0; i < rows; ++i) {
        const size_t k = rng() % 5;
        for (size_t j = 0; j < k; ++j)
            ids.push_back(static_cast<int64_t>(rng() % 4000));
        offsets.push_back(static_cast<uint32_t>(ids.size()));
    }
    batch.addColumn(DenseColumn(std::move(labels)));
    batch.addColumn(DenseColumn(std::move(dense)));
    batch.addColumn(SparseColumn(std::move(ids), std::move(offsets)));
    return batch;
}

TEST(EntropyFileTest, AllCodecMenusDecodeBitIdentical)
{
    const size_t rows = 2 * kMaxValuesPerPage + 321;
    const RowBatch batch = multiPageBatch(rows);

    WriterOptions plain_opts;
    plain_opts.codec = PageCodec::kNone;
    WriterOptions lz_opts;
    lz_opts.codec = PageCodec::kLz;
    WriterOptions full_opts;  // default: kLzEntropy
    full_opts.column_heat = {120, 700, 1000};

    const auto plain = ColumnarFileWriter(plain_opts).write(batch, 7);
    const auto lz = ColumnarFileWriter(lz_opts).write(batch, 7);
    const auto full = ColumnarFileWriter(full_opts).write(batch, 7);

    // Per-page strictly-smallest selection composes to the file level.
    EXPECT_LT(full.size(), plain.size());
    EXPECT_LE(full.size(), lz.size() + 3 * 5);  // footer heat varints

    for (const auto* bytes : {&plain, &lz, &full}) {
        ColumnarFileReader reader;
        ASSERT_TRUE(reader.open(*bytes).ok());
        auto got = reader.readAll();
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(*got, batch);
        // Warm buffer-reusing path.
        RowBatch into;
        ASSERT_TRUE(reader.readAllInto(into).ok());
        EXPECT_EQ(into, batch);
    }
}

TEST(EntropyFileTest, AsyncPageSplitDecodesEntropyPages)
{
    const size_t rows = kMaxValuesPerPage + 17;
    const RowBatch batch = multiPageBatch(rows);
    WriterOptions opts;
    opts.column_heat = {50, 1000, 900};
    const auto bytes = ColumnarFileWriter(opts).write(batch, 3);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(reader.planPageReads(plans).ok());
    assignChannelPlacement(reader.footer(), 4, plans);

    RowBatch out;
    ASSERT_TRUE(reader.beginReadInto(out).ok());
    // Complete in reverse order to prove order independence.
    for (size_t i = plans.size(); i > 0; --i) {
        const PageReadPlan& plan = plans[i - 1];
        const std::span<const uint8_t> frame(bytes.data() + plan.offset,
                                             plan.frame_bytes);
        ASSERT_TRUE(reader.completePage(plan, frame, out).ok());
    }
    ASSERT_TRUE(reader.finishReadInto(out).ok());
    EXPECT_EQ(out, batch);
}

TEST(EntropyFileTest, HeatMetadataRoundTripsAndIsClamped)
{
    const RowBatch batch = multiPageBatch(256);
    WriterOptions opts;
    opts.column_heat = {40, 5000, 1000};  // 5000 clamps to 1000
    const auto bytes = ColumnarFileWriter(opts).write(batch, 1);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    const FileFooter& footer = reader.footer();
    ASSERT_EQ(footer.columns.size(), 3u);
    EXPECT_EQ(footer.columns[0].streams[0].heat, 40u);
    EXPECT_EQ(footer.columns[1].streams[0].heat, kMaxStreamHeat);
    for (const StreamMeta& s : footer.columns[2].streams)
        EXPECT_EQ(s.heat, kMaxStreamHeat);  // both sparse streams inherit
}

// --- frequency-aware channel placement -------------------------------------

TEST(HeatPlacementTest, HotStreamsStripedColdStreamsContiguous)
{
    const RowBatch batch = multiPageBatch(3 * kMaxValuesPerPage);
    WriterOptions opts;
    // Column 1 is hot (>= half of max); columns 0 and 2 are cold.
    opts.column_heat = {10, 1000, 100};
    const auto bytes = ColumnarFileWriter(opts).write(batch, 2);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(reader.planPageReads(plans).ok());
    const int channels = 4;
    assignChannelPlacement(reader.footer(), channels, plans);

    std::vector<int32_t> hot_channels;
    std::vector<std::vector<int32_t>> cold_per_stream;
    for (const PageReadPlan& plan : plans) {
        ASSERT_GE(plan.channel, 0);
        ASSERT_LT(plan.channel, channels);
        if (plan.hot) {
            EXPECT_EQ(plan.column, 1u);
            hot_channels.push_back(plan.channel);
        } else {
            const size_t key = plan.column * 2 + plan.stream;
            if (cold_per_stream.size() <= key)
                cold_per_stream.resize(key + 1);
            cold_per_stream[key].push_back(plan.channel);
        }
    }
    // Hot pages stripe round-robin: consecutive pages land on distinct
    // channels, covering more than one channel overall.
    ASSERT_GT(hot_channels.size(), 1u);
    for (size_t i = 1; i < hot_channels.size(); ++i)
        EXPECT_EQ(hot_channels[i],
                  (hot_channels[i - 1] + 1) % channels);
    // Every cold stream stays on one channel.
    for (const auto& stream_channels : cold_per_stream) {
        for (int32_t c : stream_channels)
            EXPECT_EQ(c, stream_channels.front());
    }
}

TEST(HeatPlacementTest, NoHeatMetadataLeavesPlacementUnpinned)
{
    const RowBatch batch = multiPageBatch(512);
    const auto bytes = ColumnarFileWriter().write(batch, 0);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(reader.planPageReads(plans).ok());
    assignChannelPlacement(reader.footer(), 8, plans);
    for (const PageReadPlan& plan : plans) {
        EXPECT_EQ(plan.channel, -1);
        EXPECT_FALSE(plan.hot);
    }
}

TEST(HeatPlacementTest, ExcessiveFooterHeatRejectedAsCorruption)
{
    const RowBatch batch = multiPageBatch(64);
    WriterOptions opts;
    opts.column_heat = {1000, 1000, 1000};
    auto bytes = ColumnarFileWriter(opts).write(batch, 0);

    // Bump one stream's heat varint above kMaxStreamHeat in the footer
    // and fix the footer CRC: the parser must reject the value itself.
    // (Find the footer: its size is the u32 at file end - 12.)
    const size_t tail = bytes.size();
    uint32_t footer_size = 0;
    std::memcpy(&footer_size, bytes.data() + tail - 12, 4);
    const size_t footer_at = tail - 12 - footer_size;
    // heat 1000 encodes as the varint e8 07; patch the first occurrence
    // inside the footer to 4000 (a0 1f).
    bool patched = false;
    for (size_t i = footer_at; i + 1 < tail - 12 && !patched; ++i) {
        if (bytes[i] == 0xe8 && bytes[i + 1] == 0x07) {
            bytes[i] = 0xa0;
            bytes[i + 1] = 0x1f;
            patched = true;
        }
    }
    ASSERT_TRUE(patched);
    const uint32_t crc = crc32c(bytes.data() + footer_at, footer_size);
    std::memcpy(bytes.data() + tail - 8, &crc, 4);

    ColumnarFileReader reader;
    EXPECT_EQ(reader.open(bytes).code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace presto
