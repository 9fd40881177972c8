/**
 * @file
 * In-repo canonical-Huffman entropy codec for PSF pages.
 *
 * The LZ codec (compress.h) stops at match coding: varint, dictionary
 * and dense-float pages whose bytes repeat rarely but are *skewed*
 * (small varints, clustered exponents, low-cardinality dictionary
 * indices) stay near-incompressible under it. kEntropy closes that gap
 * with a byte-granular, length-limited canonical Huffman coder, and
 * kLzEntropy applies it to a whole LZ stream (tokens, literals and
 * length extension bytes alike) so match coding and entropy coding
 * compound.
 *
 * Stream format:
 *
 *   [raw_count varint]            decoded byte count
 *   [mode u8]                     0 = huffman, 1 = single-symbol run
 *   mode 1: [symbol u8]           raw_count copies of symbol
 *   mode 0: [lane sizes]          kNumHuffLanes-1 varints: byte length
 *                                 of each lane bitstream but the last
 *                                 (the last is implied by the stream
 *                                 end)
 *           [code-length table]   128 bytes: 256 nibble-packed lengths
 *                                 (symbol 2i -> low nibble of byte i,
 *                                 symbol 2i+1 -> high nibble), each in
 *                                 0..kMaxHuffCodeLen
 *           [lane bitstreams]     kNumHuffLanes independently packed
 *                                 bitstreams, concatenated. Lane k
 *                                 codes input bytes [k*n/N, (k+1)*n/N)
 *                                 (exact bound: floor(n*k/N)).
 *                                 Canonical codes, bit-reversed, packed
 *                                 LSB-first; each lane's final byte is
 *                                 zero-padded independently
 *
 * Codes are length-limited to kMaxHuffCodeLen bits via package-merge,
 * so the table is always Kraft-complete and the decoder can use one
 * flat 2^kMaxHuffCodeLen-entry lookup table (packing up to four
 * symbols per probe) with no escape path. The lanes exist purely for
 * decode ILP: one Huffman chain is serial (probe -> shift -> probe),
 * so the decoder interleaves kNumHuffLanes independent chains to hide
 * that latency. An empty input is just the varint 0.
 *
 * Decoding is fully validated: a code-length nibble above the limit, a
 * table whose Kraft sum is not exactly 2^kMaxHuffCodeLen, lane sizes
 * that disagree with the stream length, a lane that ends mid-code,
 * trailing bytes past a lane's final code, or non-zero padding bits
 * all return kCorruption and never read or write out of bounds.
 */
#ifndef PRESTO_COLUMNAR_ENTROPY_H_
#define PRESTO_COLUMNAR_ENTROPY_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"

namespace presto {

/** Longest canonical Huffman code the format allows (table nibble max
 *  and the decoder's flat-lookup width). */
inline constexpr int kMaxHuffCodeLen = 11;

/** Independent bitstream lanes per kEntropy stream (decode ILP). */
inline constexpr uint32_t kNumHuffLanes = 4;

/** Parsed header of a kEntropy stream (no payload decode). */
struct HuffStreamInfo {
    uint64_t raw_bytes = 0;  ///< decoded size the stream advertises
    uint32_t table_bytes = 0;  ///< serialized code-length table size
    uint8_t mode = 0;          ///< 0 = huffman, 1 = single-symbol
    uint32_t header_bytes = 0;  ///< varint + mode + table/symbol bytes
};

namespace enc {

/**
 * The code lengths huffCompress() stores for a histogram of at least two
 * non-zero weights, each below 2^56: Kraft-complete, at most
 * kMaxHuffCodeLen, and 0 for absent symbols.
 */
void huffCodeLengths(const std::array<uint64_t, 256>& freq,
                     std::array<uint8_t, 256>& lengths);

/**
 * Entropy-code @p in, appending to @p out (cleared first; capacity is
 * reused across calls). The result always decodes back to @p in
 * exactly; it is not guaranteed to be smaller (uniform bytes cost the
 * 130-byte header plus up to kMaxHuffCodeLen/8 per byte).
 */
void huffCompress(std::span<const uint8_t> in, std::vector<uint8_t>& out);

/** Convenience form of huffCompress(). */
std::vector<uint8_t> huffCompress(std::span<const uint8_t> in);

/**
 * Parse the stream header only: advertised raw size, mode, and the
 * serialized table size (what presto_cli surfaces as entropy-table
 * overhead). @return kCorruption for a truncated or malformed header.
 */
Status huffStreamInfo(std::span<const uint8_t> in, HuffStreamInfo& info);

/**
 * Decode a huffCompress() stream into exactly @p out.size() bytes.
 * @return kCorruption for any malformed input, including an advertised
 * raw size different from @p out.size().
 */
Status huffDecompress(std::span<const uint8_t> in, std::span<uint8_t> out);

}  // namespace enc
}  // namespace presto

#endif  // PRESTO_COLUMNAR_ENTROPY_H_
