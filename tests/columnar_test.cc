/**
 * @file
 * Tests for the columnar file format: varint primitives, page encodings
 * (round-trip property sweeps), page framing with CRC, and whole-file
 * write/read with projection and failure injection.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>

#include "columnar/columnar_file.h"
#include "columnar/dataset.h"
#include "columnar/encoding.h"
#include "columnar/page.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "datagen/generator.h"

namespace presto {
namespace {

// --- varint / zigzag -----------------------------------------------------------

TEST(VarintTest, RoundTripEdgeValues)
{
    for (uint64_t v : {uint64_t{0}, uint64_t{1}, uint64_t{127},
                       uint64_t{128}, uint64_t{16383}, uint64_t{16384},
                       std::numeric_limits<uint64_t>::max()}) {
        std::vector<uint8_t> buf;
        enc::putVarint(buf, v);
        size_t pos = 0;
        uint64_t out = 0;
        ASSERT_TRUE(enc::getVarint(buf, pos, out).ok());
        EXPECT_EQ(out, v);
        EXPECT_EQ(pos, buf.size());
    }
}

TEST(VarintTest, TruncatedInputFails)
{
    std::vector<uint8_t> buf;
    enc::putVarint(buf, 300);
    buf.pop_back();
    size_t pos = 0;
    uint64_t out = 0;
    EXPECT_EQ(enc::getVarint(buf, pos, out).code(),
              StatusCode::kCorruption);
}

TEST(VarintTest, OverlongInputFails)
{
    std::vector<uint8_t> buf(11, 0x80);
    size_t pos = 0;
    uint64_t out = 0;
    EXPECT_EQ(enc::getVarint(buf, pos, out).code(),
              StatusCode::kCorruption);
}

TEST(ZigZagTest, RoundTripSignedValues)
{
    for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-2},
                      std::numeric_limits<int64_t>::min(),
                      std::numeric_limits<int64_t>::max()}) {
        EXPECT_EQ(enc::unZigZag(enc::zigZag(v)), v);
    }
}

TEST(ZigZagTest, SmallMagnitudesEncodeSmall)
{
    EXPECT_EQ(enc::zigZag(0), 0u);
    EXPECT_EQ(enc::zigZag(-1), 1u);
    EXPECT_EQ(enc::zigZag(1), 2u);
    EXPECT_EQ(enc::zigZag(-2), 3u);
}

// --- integer encodings: round-trip property sweep ---------------------------------

enum class DataShape { kUniform, kSmall, kMonotone, kRuns, kFewDistinct };

std::vector<int64_t>
makeData(DataShape shape, size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int64_t> v(n);
    int64_t acc = 0;
    for (size_t i = 0; i < n; ++i) {
        switch (shape) {
          case DataShape::kUniform:
            v[i] = static_cast<int64_t>(rng.next());
            break;
          case DataShape::kSmall:
            v[i] = rng.uniformInt(-100, 100);
            break;
          case DataShape::kMonotone:
            acc += static_cast<int64_t>(rng.uniformInt(uint64_t{50}));
            v[i] = acc;
            break;
          case DataShape::kRuns:
            v[i] = static_cast<int64_t>((i / 97) % 3);
            break;
          case DataShape::kFewDistinct:
            v[i] = static_cast<int64_t>(rng.uniformInt(uint64_t{10})) *
                   1'000'003;
            break;
        }
    }
    return v;
}

class IntEncodingRoundTrip
    : public ::testing::TestWithParam<
          std::tuple<Encoding, DataShape, size_t>>
{
};

TEST_P(IntEncodingRoundTrip, DecodeRecoversInput)
{
    const auto [encoding, shape, n] = GetParam();
    const auto data = makeData(shape, n, 42);

    std::vector<uint8_t> payload;
    switch (encoding) {
      case Encoding::kPlainI64:
        payload = enc::encodePlainI64(data);
        break;
      case Encoding::kVarint:
        payload = enc::encodeVarint(data);
        break;
      case Encoding::kDeltaVarint:
        payload = enc::encodeDeltaVarint(data);
        break;
      case Encoding::kRle:
        payload = enc::encodeRle(data);
        break;
      case Encoding::kDictionary:
        payload = enc::encodeDictionary(data);
        break;
      case Encoding::kBitPacked:
        payload = enc::encodeBitPacked(data);
        break;
      default:
        FAIL();
    }

    std::vector<int64_t> out;
    ASSERT_TRUE(enc::decodeI64(encoding, payload, data.size(), out).ok());
    EXPECT_EQ(out, data);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IntEncodingRoundTrip,
    ::testing::Combine(
        ::testing::Values(Encoding::kPlainI64, Encoding::kVarint,
                          Encoding::kDeltaVarint, Encoding::kRle,
                          Encoding::kDictionary, Encoding::kBitPacked),
        ::testing::Values(DataShape::kUniform, DataShape::kSmall,
                          DataShape::kMonotone, DataShape::kRuns,
                          DataShape::kFewDistinct),
        ::testing::Values(size_t{0}, size_t{1}, size_t{255},
                          size_t{10000})));

TEST(EncodingTest, FloatRoundTrip)
{
    Rng rng(7);
    std::vector<float> data(1000);
    for (auto& v : data)
        v = static_cast<float>(rng.normal());
    data[0] = std::numeric_limits<float>::quiet_NaN();
    data[1] = std::numeric_limits<float>::infinity();
    const auto payload = enc::encodePlainF32(data);
    std::vector<float> out;
    ASSERT_TRUE(enc::decodeF32(Encoding::kPlainF32, payload, data.size(),
                               out)
                    .ok());
    ASSERT_EQ(out.size(), data.size());
    EXPECT_TRUE(std::isnan(out[0]));
    EXPECT_EQ(out[1], data[1]);
    for (size_t i = 2; i < data.size(); ++i)
        EXPECT_EQ(out[i], data[i]);
}

TEST(EncodingTest, RleCompressesRuns)
{
    const auto data = makeData(DataShape::kRuns, 10000, 1);
    EXPECT_LT(enc::encodeRle(data).size(), data.size());
}

TEST(EncodingTest, DictionaryCompressesFewDistinct)
{
    const auto data = makeData(DataShape::kFewDistinct, 10000, 1);
    EXPECT_LT(enc::encodeDictionary(data).size(),
              enc::encodeVarint(data).size());
}

TEST(EncodingTest, ChooseIntEncodingPicksSensibly)
{
    EXPECT_EQ(enc::chooseIntEncoding(makeData(DataShape::kRuns, 4096, 1)),
              Encoding::kRle);
    // Monotone offsets: mode-2 kBitPacked (frame-of-reference over
    // deltas) packs the bounded deltas into 6 bits each, beating the
    // one-byte-per-delta kDeltaVarint on size and decoding on the
    // shift/mask path instead of byte-wise varints.
    EXPECT_EQ(
        enc::chooseIntEncoding(makeData(DataShape::kMonotone, 4096, 1)),
        Encoding::kBitPacked);
    // Few-distinct data packs its dictionary indices into fixed-width
    // bits, which beats the varint-index kDictionary encoding on size.
    EXPECT_EQ(
        enc::chooseIntEncoding(makeData(DataShape::kFewDistinct, 4096, 1)),
        Encoding::kBitPacked);
    // Uniform 64-bit values compress under no encoding; plain wins the
    // size tie because it is the cheapest to decode.
    EXPECT_EQ(
        enc::chooseIntEncoding(makeData(DataShape::kUniform, 4096, 1)),
        Encoding::kPlainI64);
}

TEST(EncodingTest, DecodeWrongSizePlainFails)
{
    std::vector<uint8_t> payload(12);
    std::vector<int64_t> out;
    EXPECT_EQ(enc::decodeI64(Encoding::kPlainI64, payload, 2, out).code(),
              StatusCode::kCorruption);
    std::vector<float> fout;
    EXPECT_EQ(enc::decodeF32(Encoding::kPlainF32, payload, 2, fout).code(),
              StatusCode::kCorruption);
}

TEST(EncodingTest, DecodeTrailingBytesFails)
{
    auto payload = enc::encodeVarint(std::vector<int64_t>{1, 2, 3});
    payload.push_back(0);
    std::vector<int64_t> out;
    EXPECT_EQ(enc::decodeI64(Encoding::kVarint, payload, 3, out).code(),
              StatusCode::kCorruption);
}

TEST(EncodingTest, DictionaryBadIndexFails)
{
    std::vector<uint8_t> payload;
    enc::putVarint(payload, 1);                 // dict size 1
    enc::putVarint(payload, enc::zigZag(42));   // dict entry
    enc::putVarint(payload, 5);                 // index out of range
    std::vector<int64_t> out;
    EXPECT_EQ(
        enc::decodeI64(Encoding::kDictionary, payload, 1, out).code(),
        StatusCode::kCorruption);
}

TEST(EncodingTest, FloatEncodingOnIntPageFails)
{
    std::vector<int64_t> out;
    EXPECT_EQ(enc::decodeI64(Encoding::kPlainF32, {}, 0, out).code(),
              StatusCode::kCorruption);
    std::vector<float> fout;
    EXPECT_EQ(enc::decodeF32(Encoding::kVarint, {}, 0, fout).code(),
              StatusCode::kCorruption);
}

TEST(EncodingTest, NamesAreStable)
{
    EXPECT_STREQ(encodingName(Encoding::kPlainF32), "plain_f32");
    EXPECT_STREQ(encodingName(Encoding::kDictionary), "dictionary");
    EXPECT_STREQ(encodingName(Encoding::kBitPacked), "bit_packed");
}

// --- page framing -------------------------------------------------------------------

TEST(PageFrameTest, RoundTrip)
{
    std::vector<uint8_t> out;
    const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    writePageFrame(out, Encoding::kVarint, 5, payload);

    size_t pos = 0;
    PageView page;
    ASSERT_TRUE(readPageFrame(out, pos, page).ok());
    EXPECT_EQ(page.encoding, Encoding::kVarint);
    EXPECT_EQ(page.value_count, 5u);
    EXPECT_TRUE(std::equal(page.payload.begin(), page.payload.end(),
                           payload.begin()));
    EXPECT_EQ(pos, out.size());
}

TEST(PageFrameTest, EveryByteFlipIsDetected)
{
    std::vector<uint8_t> out;
    const std::vector<uint8_t> payload = {9, 8, 7};
    writePageFrame(out, Encoding::kRle, 3, payload);
    for (size_t i = 0; i < out.size(); ++i) {
        auto corrupted = out;
        corrupted[i] ^= 0x01;
        size_t pos = 0;
        PageView page;
        EXPECT_FALSE(readPageFrame(corrupted, pos, page).ok())
            << "flip at byte " << i << " not detected";
    }
}

TEST(PageFrameTest, TruncationDetected)
{
    std::vector<uint8_t> out;
    writePageFrame(out, Encoding::kVarint, 1, std::vector<uint8_t>{1});
    for (size_t keep = 0; keep < out.size(); ++keep) {
        std::span<const uint8_t> prefix(out.data(), keep);
        size_t pos = 0;
        PageView page;
        EXPECT_EQ(readPageFrame(prefix, pos, page).code(),
                  StatusCode::kCorruption);
    }
}

// --- whole files ----------------------------------------------------------------------

RowBatch
smallBatch(int rm, size_t rows, uint64_t partition = 0)
{
    RmConfig cfg = rmConfig(rm);
    cfg.batch_size = rows;
    RawDataGenerator gen(cfg);
    return gen.generatePartition(partition);
}

class FileRoundTrip : public ::testing::TestWithParam<std::tuple<int, bool>>
{
};

TEST_P(FileRoundTrip, ReadAllRecoversBatch)
{
    const auto [rm, force_plain] = GetParam();
    const RowBatch batch = smallBatch(rm, 200);
    WriterOptions opts;
    opts.force_plain = force_plain;
    const auto bytes = ColumnarFileWriter(opts).write(batch, 17);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    EXPECT_EQ(reader.footer().num_rows, 200u);
    EXPECT_EQ(reader.footer().partition_id, 17u);
    EXPECT_EQ(reader.footer().schema(), batch.schema());

    auto out = reader.readAll();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, batch);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FileRoundTrip,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5),
                       ::testing::Bool()),
    [](const auto& info) {
        return "RM" + std::to_string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_plain" : "_compressed");
    });

TEST(FileTest, MultiPageColumns)
{
    // More rows than kMaxValuesPerPage forces multiple pages per stream.
    RowBatch batch(Schema::makeRecSys(1, 0));
    const size_t rows = kMaxValuesPerPage + 100;
    std::vector<float> labels(rows, 0.0f);
    std::vector<float> dense(rows);
    for (size_t i = 0; i < rows; ++i)
        dense[i] = static_cast<float>(i);
    batch.addColumn(DenseColumn(labels));
    batch.addColumn(DenseColumn(dense));

    const auto bytes = ColumnarFileWriter().write(batch, 0);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    EXPECT_GE(reader.footer().columns[1].streams[0].num_pages, 2u);
    auto out = reader.readAll();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, batch);
}

TEST(FileTest, ProjectionTouchesOnlySelectedColumns)
{
    const RowBatch batch = smallBatch(2, 300);
    const auto bytes = ColumnarFileWriter().write(batch, 0);

    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    const uint64_t footer_only = reader.bytesTouched();

    auto out = reader.readColumns({"dense_0", "sparse_3"});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->numColumns(), 2u);
    EXPECT_EQ(out->numRows(), 300u);
    // Selective fetch: far less than the full file.
    EXPECT_LT(reader.bytesTouched() - footer_only, bytes.size() / 10);
    // Projected columns equal the originals.
    EXPECT_EQ(out->dense(0), batch.dense(1));
    const auto sparse_idx = batch.schema().indexOf("sparse_3");
    ASSERT_TRUE(sparse_idx.has_value());
    EXPECT_EQ(out->sparse(1), batch.sparse(*sparse_idx));
}

TEST(FileTest, ProjectionPreservesRequestOrder)
{
    const RowBatch batch = smallBatch(1, 50);
    const auto bytes = ColumnarFileWriter().write(batch, 0);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    auto out = reader.readColumns({"sparse_1", "label"});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->schema().feature(0).name, "sparse_1");
    EXPECT_EQ(out->schema().feature(1).name, "label");
}

TEST(FileTest, UnknownColumnIsNotFound)
{
    const RowBatch batch = smallBatch(1, 10);
    const auto bytes = ColumnarFileWriter().write(batch, 0);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    EXPECT_EQ(reader.readColumns({"bogus"}).status().code(),
              StatusCode::kNotFound);
}

TEST(FileTest, ReadBeforeOpenFails)
{
    ColumnarFileReader reader;
    EXPECT_EQ(reader.readAll().status().code(),
              StatusCode::kFailedPrecondition);
}

TEST(FileTest, HeaderMagicCorruptionDetected)
{
    const auto bytes = ColumnarFileWriter().write(smallBatch(1, 10), 0);
    auto corrupted = bytes;
    corrupted[0] ^= 0xff;
    ColumnarFileReader reader;
    EXPECT_EQ(reader.open(corrupted).code(), StatusCode::kCorruption);
}

TEST(FileTest, TrailerMagicCorruptionDetected)
{
    const auto bytes = ColumnarFileWriter().write(smallBatch(1, 10), 0);
    auto corrupted = bytes;
    corrupted.back() ^= 0xff;
    ColumnarFileReader reader;
    EXPECT_EQ(reader.open(corrupted).code(), StatusCode::kCorruption);
}

TEST(FileTest, FooterCorruptionDetected)
{
    const auto bytes = ColumnarFileWriter().write(smallBatch(1, 10), 0);
    auto corrupted = bytes;
    corrupted[corrupted.size() - 20] ^= 0x10;  // inside footer
    ColumnarFileReader reader;
    EXPECT_EQ(reader.open(corrupted).code(), StatusCode::kCorruption);
}

TEST(FileTest, DataPageCorruptionDetectedOnRead)
{
    const auto bytes = ColumnarFileWriter().write(smallBatch(1, 200), 0);
    auto corrupted = bytes;
    corrupted[100] ^= 0x01;  // inside the first column chunk
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(corrupted).ok());  // footer still intact
    EXPECT_EQ(reader.readAll().status().code(), StatusCode::kCorruption);
}

TEST(FileTest, RandomByteFlipsNeverEscapeDetection)
{
    const RowBatch batch = smallBatch(1, 100);
    const auto bytes = ColumnarFileWriter().write(batch, 0);
    Rng rng(31337);
    for (int trial = 0; trial < 50; ++trial) {
        auto corrupted = bytes;
        const size_t pos = rng.uniformInt(corrupted.size());
        const auto bit = static_cast<uint8_t>(
            1u << rng.uniformInt(uint64_t{8}));
        corrupted[pos] ^= bit;
        ColumnarFileReader reader;
        Status st = reader.open(corrupted);
        if (st.ok()) {
            auto out = reader.readAll();
            if (out.ok()) {
                // The flip may hit redundant footer varint padding only
                // if it reconstructs identical data; require equality.
                EXPECT_EQ(*out, batch) << "undetected corruption at byte "
                                       << pos;
            }
        }
    }
}

TEST(FileTest, ZeroRowBatchRoundTrips)
{
    RowBatch batch(Schema::makeRecSys(1, 1));
    batch.addColumn(DenseColumn(std::vector<float>{}));
    batch.addColumn(DenseColumn(std::vector<float>{}));
    batch.addColumn(SparseColumn());
    const auto bytes = ColumnarFileWriter().write(batch, 0);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    EXPECT_EQ(reader.footer().num_rows, 0u);
    auto out = reader.readAll();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->numRows(), 0u);
    EXPECT_EQ(*out, batch);
}

TEST(FileTest, SingleRowBatchRoundTrips)
{
    const RowBatch batch = smallBatch(1, 1);
    const auto bytes = ColumnarFileWriter().write(batch, 0);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    auto out = reader.readAll();
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, batch);
}

TEST(FileTest, TinyInputsRejected)
{
    ColumnarFileReader reader;
    EXPECT_EQ(reader.open(std::vector<uint8_t>{}).code(),
              StatusCode::kCorruption);
    EXPECT_EQ(reader.open(std::vector<uint8_t>(8, 0)).code(),
              StatusCode::kCorruption);
}

TEST(FileTest, SaveAndLoadFile)
{
    const auto bytes = ColumnarFileWriter().write(smallBatch(1, 20), 3);
    const std::string path = ::testing::TempDir() + "psf_roundtrip.psf";
    ASSERT_TRUE(saveToFile(path, bytes).ok());
    auto loaded = loadFromFile(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(*loaded, bytes);
}

TEST(FileTest, LoadMissingFileIsNotFound)
{
    EXPECT_EQ(loadFromFile("/nonexistent/dir/x.psf").status().code(),
              StatusCode::kNotFound);
}

TEST(FileTest, EncodedSmallerThanPlainForSparseData)
{
    const RowBatch batch = smallBatch(2, 256);
    WriterOptions plain;
    plain.force_plain = true;
    const auto compressed = ColumnarFileWriter().write(batch, 0);
    const auto uncompressed = ColumnarFileWriter(plain).write(batch, 0);
    EXPECT_LT(compressed.size(), uncompressed.size());
}

// --- page compression at the file level -------------------------------------

/** Pages stored with a codec across every stream of @p file. */
size_t
countCompressedPages(std::span<const uint8_t> file)
{
    ColumnarFileReader reader;
    EXPECT_TRUE(reader.open(file).ok());
    size_t compressed = 0;
    for (const auto& col : reader.footer().columns) {
        for (const auto& stream : col.streams) {
            const auto bytes = file.subspan(stream.offset,
                                            stream.byte_size);
            size_t pos = 0;
            for (uint32_t p = 0; p < stream.num_pages; ++p) {
                PageView page;
                if (!readPageFrame(bytes, pos, page).ok()) {
                    ADD_FAILURE() << "unreadable page in " << col.name;
                    return compressed;
                }
                if (page.codec != PageCodec::kNone)
                    ++compressed;
            }
        }
    }
    return compressed;
}

TEST(FileTest, CompressedFileDecodesBitIdenticalToUncompressed)
{
    // Differential: the same batch written with the codec on (default)
    // and off must decode to bit-identical RowBatches across every
    // encoding the writer picked — and with the codec on, at least one
    // page must actually be stored compressed or the test is vacuous.
    for (int rm : {1, 2, 5}) {
        const RowBatch batch = smallBatch(rm, 512);
        WriterOptions off;
        off.codec = PageCodec::kNone;
        const auto with_lz = ColumnarFileWriter().write(batch, 4);
        const auto without = ColumnarFileWriter(off).write(batch, 4);

        EXPECT_GT(countCompressedPages(with_lz), 0u) << "RM" << rm;
        EXPECT_EQ(countCompressedPages(without), 0u) << "RM" << rm;
        EXPECT_LT(with_lz.size(), without.size()) << "RM" << rm;

        ColumnarFileReader lz_reader, plain_reader;
        ASSERT_TRUE(lz_reader.open(with_lz).ok());
        ASSERT_TRUE(plain_reader.open(without).ok());
        RowBatch a, b;
        ASSERT_TRUE(lz_reader.readAllInto(a).ok());
        ASSERT_TRUE(plain_reader.readAllInto(b).ok());
        EXPECT_EQ(a, b) << "RM" << rm;
        EXPECT_EQ(a, batch) << "RM" << rm;
    }
}

struct GoldenFile {
    int rm;
    size_t rows;
    PageCodec codec;
    size_t size;
    uint32_t crc;
};

TEST(FileTest, WriterBytesMatchGolden)
{
    // The writer's exact output for fixed-seed partitions, recorded
    // before the encoders were last optimized: any change to page
    // encoding choice, bit packing, Huffman code lengths or codec menu
    // order shows up here as a different CRC or length.
    const GoldenFile golden[] = {
        {1, 4096, PageCodec::kNone, 986481, 0x912ab550},
        {1, 4096, PageCodec::kLz, 870712, 0x2ea4148a},
        {1, 4096, PageCodec::kEntropy, 918999, 0xbd87f9d4},
        {1, 4096, PageCodec::kLzEntropy, 843940, 0x86bfa0e2},
        {5, 512, PageCodec::kNone, 4443659, 0x2d374e74},
        {5, 512, PageCodec::kLz, 3657500, 0xc2283bde},
        {5, 512, PageCodec::kEntropy, 4403810, 0x82c66f18},
        {5, 512, PageCodec::kLzEntropy, 3574330, 0xbcf1d437},
    };
    for (const auto& g : golden) {
        GeneratorOptions gen_opts;
        gen_opts.seed = 20240607;
        const RowBatch batch =
            RawDataGenerator(rmConfig(g.rm), gen_opts)
                .generatePartition(3, g.rows);
        WriterOptions opts;
        opts.codec = g.codec;
        const auto bytes = ColumnarFileWriter(opts).write(batch, 3);
        EXPECT_EQ(bytes.size(), g.size)
            << "RM" << g.rm << " codec " << static_cast<int>(g.codec);
        EXPECT_EQ(crc32c(bytes.data(), bytes.size()), g.crc)
            << "RM" << g.rm << " codec " << static_cast<int>(g.codec);
    }
}

TEST(FileTest, DatasetWriterHonorsCodecOption)
{
    const RowBatch batch = smallBatch(3, 256);
    const std::string lz_dir = ::testing::TempDir() + "psf_ds_lz";
    const std::string off_dir = ::testing::TempDir() + "psf_ds_off";
    std::filesystem::create_directories(lz_dir);
    std::filesystem::create_directories(off_dir);

    DatasetWriter lz_writer(lz_dir);
    WriterOptions off;
    off.codec = PageCodec::kNone;
    DatasetWriter off_writer(off_dir, off);
    ASSERT_TRUE(lz_writer.addPartition(batch, 0).ok());
    ASSERT_TRUE(off_writer.addPartition(batch, 0).ok());
    ASSERT_TRUE(lz_writer.finish().ok());
    ASSERT_TRUE(off_writer.finish().ok());

    DatasetReader lz_ds, off_ds;
    ASSERT_TRUE(lz_ds.open(lz_dir).ok());
    ASSERT_TRUE(off_ds.open(off_dir).ok());
    EXPECT_LT(lz_ds.manifest().partitions[0].byte_size,
              off_ds.manifest().partitions[0].byte_size);
    auto a = lz_ds.readPartition(0);
    auto b = off_ds.readPartition(0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b);
    EXPECT_EQ(*a, batch);
}

// --- manifest durability ----------------------------------------------------

/** Write a three-partition dataset into a fresh temp dir. */
std::string
writeDataset(const std::string& name)
{
    const std::string dir = ::testing::TempDir() + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    DatasetWriter writer(dir);
    for (uint64_t p = 0; p < 3; ++p)
        EXPECT_TRUE(writer.addPartition(smallBatch(1, 64, p), p).ok());
    EXPECT_TRUE(writer.finish().ok());
    return dir;
}

TEST(FileTest, TruncatedManifestIsCorruption)
{
    // Regression: a torn manifest must read as corruption at open()
    // time — never as a shorter-but-valid dataset. Truncate at every
    // byte offset; only the full file may open.
    const std::string dir = writeDataset("psf_ds_torn");
    const std::string manifest = dir + "/MANIFEST";
    auto full = loadFromFile(manifest);
    ASSERT_TRUE(full.ok());
    for (size_t keep = 0; keep < full->size(); ++keep) {
        std::vector<uint8_t> torn(full->begin(), full->begin() + keep);
        ASSERT_TRUE(saveToFile(manifest, torn).ok());
        DatasetReader reader;
        const Status st = reader.open(dir);
        EXPECT_FALSE(st.ok()) << "opened with " << keep << " bytes";
    }
    ASSERT_TRUE(saveToFile(manifest, *full).ok());
    DatasetReader reader;
    ASSERT_TRUE(reader.open(dir).ok());
    EXPECT_EQ(reader.manifest().partitions.size(), 3u);
}

TEST(FileTest, ManifestBitFlipIsCorruption)
{
    const std::string dir = writeDataset("psf_ds_flip");
    const std::string manifest = dir + "/MANIFEST";
    auto full = loadFromFile(manifest);
    ASSERT_TRUE(full.ok());
    // Flip one digit of a partition line (keeps the line parseable).
    std::vector<uint8_t> damaged = *full;
    const size_t second_line = std::string(full->begin(), full->end())
                                   .find('\n') + 1;
    for (size_t i = second_line; i < damaged.size(); ++i) {
        if (damaged[i] >= '0' && damaged[i] <= '8') {
            ++damaged[i];
            break;
        }
    }
    ASSERT_NE(damaged, *full);
    ASSERT_TRUE(saveToFile(manifest, damaged).ok());
    DatasetReader reader;
    EXPECT_EQ(reader.open(dir).code(), StatusCode::kCorruption);
}

// --- footer-only open (tail) and external plan validation -------------------

TEST(FileTest, OpenTailMatchesFullOpenAndGuardsBodyReads)
{
    const RowBatch batch = smallBatch(2, 200);
    const auto bytes = ColumnarFileWriter().write(batch, 9);

    ColumnarFileReader full;
    ASSERT_TRUE(full.open(bytes).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(full.planPageReads(plans).ok());
    // Tail = footer + size/crc/trailer (bytesTouched minus the header
    // magic accounted by open()).
    const size_t tail_bytes = full.bytesTouched() - 4;

    ColumnarFileReader tail;
    ASSERT_TRUE(
        tail.openTail(std::span<const uint8_t>(bytes).last(tail_bytes),
                      bytes.size())
            .ok());
    EXPECT_EQ(tail.footer().num_rows, full.footer().num_rows);
    EXPECT_EQ(tail.footer().partition_id, 9u);
    EXPECT_EQ(tail.totalDataBytes(), bytes.size());

    // Whole-stream decode needs the body: footer-only must refuse.
    RowBatch out;
    EXPECT_EQ(tail.readAllInto(out).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(tail.readAll().status().code(),
              StatusCode::kFailedPrecondition);
    std::vector<PageReadPlan> tail_plans;
    EXPECT_EQ(tail.planPageReads(tail_plans).code(),
              StatusCode::kFailedPrecondition);

    // But external plans validate, and the async split decodes the
    // same batch from caller-supplied frames.
    ASSERT_TRUE(tail.validatePlans(plans).ok());
    ASSERT_TRUE(tail.beginReadInto(out).ok());
    for (const PageReadPlan& plan : plans) {
        const auto frame =
            std::span<const uint8_t>(bytes).subspan(plan.offset,
                                                    plan.frame_bytes);
        ASSERT_TRUE(tail.completePage(plan, frame, out).ok());
    }
    ASSERT_TRUE(tail.finishReadInto(out).ok());
    EXPECT_EQ(out, batch);
}

TEST(FileTest, ValidatePlansRejectsDamage)
{
    const RowBatch batch = smallBatch(1, 300);
    const auto bytes = ColumnarFileWriter().write(batch, 1);
    ColumnarFileReader reader;
    ASSERT_TRUE(reader.open(bytes).ok());
    std::vector<PageReadPlan> plans;
    ASSERT_TRUE(reader.planPageReads(plans).ok());
    ASSERT_TRUE(reader.validatePlans(plans).ok());
    ASSERT_FALSE(plans.empty());

    auto damaged = plans;
    damaged[0].offset += 1;  // frame leaves its stream
    EXPECT_EQ(reader.validatePlans(damaged).code(),
              StatusCode::kCorruption);

    damaged = plans;
    damaged[0].value_count += 1;  // output range disagrees
    EXPECT_EQ(reader.validatePlans(damaged).code(),
              StatusCode::kCorruption);

    damaged = plans;
    damaged.pop_back();  // stream not fully covered
    EXPECT_EQ(reader.validatePlans(damaged).code(),
              StatusCode::kCorruption);

    damaged = plans;
    damaged[0].column = 1000;  // unknown column
    EXPECT_EQ(reader.validatePlans(damaged).code(),
              StatusCode::kCorruption);
}

}  // namespace
}  // namespace presto
