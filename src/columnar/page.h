/**
 * @file
 * Page framing for columnar files.
 *
 * A page is the unit of encoding and integrity checking:
 *
 *   uncompressed (compression flag clear):
 *     [encoding u8][value_count u32][payload_size u32][payload][crc32c u32]
 *
 *   compressed (encoding byte has kPageCompressedFlag set):
 *     [encoding u8 | 0x80][value_count u32][payload_size u32]
 *     [codec u8][raw_size u32][compressed payload][crc32c u32]
 *
 * payload_size is always the number of *stored* payload bytes (the
 * compressed size when the flag is set); raw_size is the decompressed
 * payload size the decoder must reproduce. The CRC covers everything
 * from the encoding byte through the stored payload — i.e. the
 * *compressed* bytes — so any bit flip in a stored page is detected at
 * read time, before a single byte is decompressed or decoded.
 *
 * The writer stores a page compressed only when that strictly shrinks
 * the frame (compressed_size + kCompressedPageExtraBytes < raw_size);
 * readers reject frames violating this invariant, so an "overlong"
 * compressed frame can only come from damage.
 */
#ifndef PRESTO_COLUMNAR_PAGE_H_
#define PRESTO_COLUMNAR_PAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "columnar/compress.h"
#include "columnar/encoding.h"
#include "common/status.h"

namespace presto {

/** In-memory view of one decoded page frame. */
struct PageView {
    Encoding encoding = Encoding::kPlainF32;
    PageCodec codec = PageCodec::kNone;
    uint32_t value_count = 0;
    /** Decompressed payload size; equals payload.size() when kNone. */
    uint32_t raw_size = 0;
    /** Stored payload bytes (compressed when codec != kNone). */
    std::span<const uint8_t> payload;
};

/** Maximum values per page; streams longer than this are split. */
inline constexpr size_t kMaxValuesPerPage = 65536;

/** Serialized page-frame overhead in bytes (header + crc). */
inline constexpr size_t kPageFrameBytes = 1 + 4 + 4 + 4;

/** Compression flag on the frame's encoding byte. */
inline constexpr uint8_t kPageCompressedFlag = 0x80;

/** Extra frame bytes of a compressed page (codec u8 + raw_size u32). */
inline constexpr size_t kCompressedPageExtraBytes = 1 + 4;

/**
 * Maximum decompressed payload bytes a frame may claim. The writer's
 * densest legal payload (a full dictionary page of maximum-length
 * varints) stays well under this, so larger claims can only come from
 * damage and would make the reader allocate unbounded scratch.
 */
inline constexpr size_t kMaxPageRawBytes = size_t{2} << 20;

/** Append one framed page to @p out, stored uncompressed. */
void writePageFrame(std::vector<uint8_t>& out, Encoding encoding,
                    uint32_t value_count, std::span<const uint8_t> payload);

/**
 * Append one framed page, compressing the payload when that strictly
 * shrinks the frame. @p codec selects the candidate menu the writer
 * may try:
 *
 *   kNone      store plain, always
 *   kLz        {plain, lz}
 *   kEntropy   {plain, entropy}
 *   kLzEntropy {plain, lz, entropy, lz+entropy} — the full menu
 *
 * The strictly-smallest framed candidate wins; ties go to the earlier
 * (cheaper-to-decode) menu entry. When every compressed candidate
 * loses, the page is stored as a plain frame — bit-identical to the
 * plain writePageFrame() overload, with no codec/raw_size bytes.
 * @return the codec actually stored.
 */
PageCodec writePageFrame(std::vector<uint8_t>& out, Encoding encoding,
                         uint32_t value_count,
                         std::span<const uint8_t> payload, PageCodec codec);

/**
 * Parse the page frame at @p pos (advanced past the frame) and verify its
 * checksum.
 * @return kCorruption for truncation, CRC mismatch, an unknown encoding
 * or codec byte, a value count above kMaxValuesPerPage, a raw size
 * above kMaxPageRawBytes, or a compressed payload that is not strictly
 * smaller than its raw form (the writer never produces those, so they
 * can only come from damage).
 */
Status readPageFrame(std::span<const uint8_t> in, size_t& pos,
                     PageView& page);

/**
 * Parse the frame at @p pos (advanced past the frame) WITHOUT verifying
 * its checksum. The page-parallel reader uses this to split a stream
 * into per-page tasks up front; the CRC is still verified by the
 * readPageFrame call inside each decode task, so corruption detection
 * is unchanged.
 */
Status scanPageFrame(std::span<const uint8_t> in, size_t& pos,
                     PageView& page);

/**
 * Materialize the page's *raw* (decoded-ready) payload: the stored
 * bytes for an uncompressed page, or the decompression of them into
 * @p scratch (resized to raw_size; capacity reused across calls, so a
 * warmed-up decode loop stays allocation-free — kLzEntropy's
 * intermediate LZ stream lives in a thread-local buffer with the same
 * warm-up property). Call only after readPageFrame() verified the CRC.
 */
Status pagePayload(const PageView& page, std::vector<uint8_t>& scratch,
                   std::span<const uint8_t>& raw);

/**
 * Decompress a compressed page's payload straight into @p out, which
 * must be exactly page.raw_size bytes. The codecs write only inside
 * @p out, so it may be the page's slice of a decoded column (a plain
 * page's raw bytes are its values). On failure @p out holds partial
 * output. Call only after readPageFrame() verified the CRC.
 */
Status pageDecompressInto(const PageView& page, std::span<uint8_t> out);

}  // namespace presto

#endif  // PRESTO_COLUMNAR_PAGE_H_
