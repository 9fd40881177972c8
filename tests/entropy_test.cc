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
