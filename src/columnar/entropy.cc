#include "columnar/entropy.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "columnar/encoding.h"

namespace presto {
namespace {

constexpr uint32_t kNumSymbols = 256;
constexpr uint32_t kTableBytes = kNumSymbols / 2;  // nibble-packed
constexpr uint32_t kDecodeSize = 1u << kMaxHuffCodeLen;
constexpr uint8_t kModeHuffman = 0;
constexpr uint8_t kModeSingle = 1;

/** Every byte value with its bit order reversed. */
constexpr std::array<uint8_t, 256> kReversedByte = [] {
    std::array<uint8_t, 256> table{};
    for (uint32_t b = 0; b < 256; ++b) {
        uint32_t rev = 0;
        for (int i = 0; i < 8; ++i)
            rev |= ((b >> i) & 1u) << (7 - i);
        table[b] = static_cast<uint8_t>(rev);
    }
    return table;
}();

/** The low @p len bits of @p code in reverse order (1 <= len <= 16). */
uint32_t
reverseBits(uint32_t code, int len)
{
    static_assert(kMaxHuffCodeLen <= 16);
    const uint32_t rev16 = uint32_t{kReversedByte[code & 0xFF]} << 8 |
                           kReversedByte[(code >> 8) & 0xFF];
    return rev16 >> (16 - len);
}

/**
 * Assign canonical codes (MSB-first numbering: shorter codes are
 * numerically smaller prefixes) from a length table, each stored
 * bit-reversed so the encoder can shift it straight into its LSB-first
 * bitstream.
 */
void
canonicalCodes(const std::array<uint8_t, kNumSymbols>& lengths,
               std::array<uint16_t, kNumSymbols>& codes)
{
    std::array<uint32_t, kMaxHuffCodeLen + 1> count{};
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (lengths[s] > 0)
            ++count[lengths[s]];
    std::array<uint32_t, kMaxHuffCodeLen + 1> next{};
    uint32_t code = 0;
    for (int len = 1; len <= kMaxHuffCodeLen; ++len) {
        next[len] = code;
        code = (code + count[len]) << 1;
    }
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (lengths[s] > 0)
            codes[s] = static_cast<uint16_t>(
                reverseBits(next[lengths[s]]++, lengths[s]));
}

/**
 * Flat decode table entry: up to four symbols resolved per probe of the
 * low kMaxHuffCodeLen bits, so the hot loop's serial dependency (probe
 * -> shift -> probe) is paid once per several output bytes.
 *
 *   bits 0..31   symbols, in decode order (symbol k at bits 8k..8k+7)
 *   bits 32..35  symbol count (1..4)
 *   bits 36..39  total consumed bits across all packed symbols
 *   bits 40..43  first code's length alone (tail-loop single-symbol
 *                stepping and the mid-code truncation check)
 */
using DecodeTable = std::array<uint64_t, kDecodeSize>;
constexpr uint32_t kMaxSymsPerProbe = 4;

/**
 * Pass-2 fusion only pays for itself once the decode loop runs long
 * enough to amortize walking all 2^kMaxHuffCodeLen entries; below this
 * output size the pass-1 single-symbol table decodes the page faster
 * in total. (Fused and unfused tables decode identically — the fast
 * loop reads the same entry fields either way.)
 */
constexpr size_t kFusePassMinBytes = 8192;

bool
buildDecodeTable(const std::array<uint8_t, kNumSymbols>& lengths,
                 DecodeTable& table, bool fuse)
{
    std::array<uint32_t, kMaxHuffCodeLen + 1> count{};
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        ++count[lengths[s]];
    uint64_t kraft = 0;
    for (int len = 1; len <= kMaxHuffCodeLen; ++len)
        kraft += uint64_t{count[len]} << (kMaxHuffCodeLen - len);
    if (kraft != kDecodeSize)
        return false;
    // Symbols sorted by (code length, symbol): the canonical order, in
    // which the codes of one length are consecutive integers.
    std::array<uint32_t, kMaxHuffCodeLen + 2> start{};
    for (int len = 1; len <= kMaxHuffCodeLen; ++len)
        start[len + 1] = start[len] + count[len];
    std::array<uint8_t, kNumSymbols> sorted{};
    {
        std::array<uint32_t, kMaxHuffCodeLen + 2> next = start;
        for (uint32_t s = 0; s < kNumSymbols; ++s)
            if (lengths[s] > 0)
                sorted[next[lengths[s]]++] = static_cast<uint8_t>(s);
    }
    // Pass 1: single-symbol entries keyed by the bit-reversed code (the
    // bitstream is packed LSB-first), built a length at a time. After
    // length L, entry i < 2^L holds the code of length <= L that
    // matches i's low L bits; doubling that prefix carries every
    // shorter code to its slots under the next bit, and the codes of
    // the next length then fill exactly the slots no shorter code
    // covers. Kraft completeness leaves no slot unfilled at the end.
    uint32_t code = 0;
    for (int len = 1; len <= kMaxHuffCodeLen; ++len) {
        const uint32_t half = 1u << (len - 1);
        std::memcpy(table.data() + half, table.data(),
                    half * sizeof(uint64_t));
        for (uint32_t i = start[len]; i < start[len + 1]; ++i, ++code)
            table[reverseBits(code, len)] =
                sorted[i] | uint64_t{1} << 32 |
                static_cast<uint64_t>(len) << 36 |
                static_cast<uint64_t>(len) << 40;
        code <<= 1;
    }
    if (!fuse)
        return true;
    // Pass 2: greedily fuse as many whole codes as fit in one probe
    // window. A symbol is packed only when its code lies entirely
    // inside the kMaxHuffCodeLen probed bits, so fused entries never
    // depend on bits the probe did not see. Descending order makes the
    // rewrite safe in place: entry v only reads indices v and v >>
    // total (< v for v > 0), which still hold pass-1 entries.
    for (uint32_t v = kDecodeSize; v-- > 0;) {
        const uint32_t len1 =
            static_cast<uint32_t>(table[v] >> 40) & 0xF;
        uint64_t syms = table[v] & 0xFF;
        uint32_t count = 1;
        uint32_t total = len1;
        while (count < kMaxSymsPerProbe) {
            const uint64_t e = table[v >> total];
            const uint32_t len = static_cast<uint32_t>(e >> 40) & 0xF;
            if (total + len > kMaxHuffCodeLen)
                break;
            syms |= (e & 0xFF) << (8 * count);
            total += len;
            ++count;
        }
        table[v] = syms | static_cast<uint64_t>(count) << 32 |
                   static_cast<uint64_t>(total) << 36 |
                   static_cast<uint64_t>(len1) << 40;
    }
    return true;
}

uint64_t
loadLe64(const uint8_t* p)
{
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;  // x86/aarch64 little-endian; matches the rest of enc::.
}

}  // namespace

namespace enc {

/*
 * Package-merge (Larmore-Hirschberg) guarantees a Kraft-complete set of
 * lengths <= kMaxHuffCodeLen for any 2..256 active symbols, which a
 * plain Huffman tree plus ad-hoc depth repair does not. Each level's
 * list merges the sorted leaves with the pairwise packages of the level
 * before (a leaf first on equal weights); only weights and leaf flags
 * are kept. The p packages in a level's chosen prefix cover the first
 * 2p entries of the level before, and the leaves in it are the lightest
 * ones, so walking back down from the last level's first 2n - 2 entries
 * adds one bit to each leaf in every chosen prefix.
 */
void
huffCodeLengths(const std::array<uint64_t, kNumSymbols>& freq,
                std::array<uint8_t, kNumSymbols>& lengths)
{
    // Leaves sorted by (weight, symbol) as packed keys, then their
    // weights with a sentinel no package outweighs.
    std::array<uint64_t, kNumSymbols> keys{};
    uint32_t n = 0;
    for (uint32_t s = 0; s < kNumSymbols; ++s)
        if (freq[s] > 0)
            keys[n++] = freq[s] << 8 | s;
    std::sort(keys.begin(), keys.begin() + n);
    std::array<uint64_t, kNumSymbols + 1> leaf_weight{};
    for (uint32_t i = 0; i < n; ++i)
        leaf_weight[i] = keys[i] >> 8;
    leaf_weight[n] = UINT64_MAX;

    // Consecutive lists agree on a growing prefix, and so do their
    // packages; each merge resumes where its first changed package
    // enters and rewrites the list in place from there.
    constexpr uint32_t kMaxEntries = 2 * kNumSymbols;
    std::array<std::array<uint8_t, kMaxEntries>, kMaxHuffCodeLen> is_leaf{};
    std::array<uint64_t, kMaxEntries> weight{};
    std::array<uint64_t, kNumSymbols> package{};
    std::array<uint32_t, kNumSymbols> package_at{};  // position in list
    std::fill_n(is_leaf[0].begin(), n, uint8_t{1});
    std::copy_n(leaf_weight.begin(), n, weight.begin());
    uint32_t size = n;
    uint32_t same = 0;  // leading entries equal to the previous list's
    for (int level = 1; level < kMaxHuffCodeLen; ++level) {
        const uint32_t packages = size / 2;
        const uint32_t kept = same / 2;
        for (uint32_t j = kept; j < packages; ++j)
            package[j] = weight[2 * j] + weight[2 * j + 1];
        package[packages] = UINT64_MAX;
        uint32_t m = kept > 0 ? package_at[kept - 1] + 1 : 0;
        uint32_t leaf = m - kept;
        uint32_t pkg = kept;
        std::copy_n(is_leaf[level - 1].begin(), m, is_leaf[level].begin());
        size = n + packages;
        same = m;
        // Branch-free: the sentinels steer the merge once a side runs
        // out, and package_at[pkg] ends at the position where package
        // pkg is taken. Lists only grow, so past the previous list
        // weight[m] is still 0 and matches no weight.
        for (; m < size; ++m) {
            const bool take_leaf = leaf_weight[leaf] <= package[pkg];
            const uint64_t w = take_leaf ? leaf_weight[leaf] : package[pkg];
            same += (same == m) & (weight[m] == w);
            weight[m] = w;
            is_leaf[level][m] = take_leaf;
            package_at[pkg] = m;
            leaf += take_leaf;
            pkg += !take_leaf;
        }
    }

    lengths.fill(0);
    uint32_t take = std::min(2 * n - 2, size);
    for (int level = kMaxHuffCodeLen - 1; level >= 0; --level) {
        const uint32_t leaves = static_cast<uint32_t>(std::count(
            is_leaf[level].begin(), is_leaf[level].begin() + take, 1));
        for (uint32_t i = 0; i < leaves; ++i)
            ++lengths[keys[i] & 0xFF];
        take = 2 * (take - leaves);
    }
}

void
huffCompress(std::span<const uint8_t> in, std::vector<uint8_t>& out)
{
    out.clear();
    putVarint(out, in.size());
    if (in.empty())
        return;

    // Per-lane histograms: their sum is the code's, and each lane's bit
    // count follows from its own once the lengths are known.
    const size_t n = in.size();
    size_t lane_begin[kNumHuffLanes + 1];
    for (uint32_t k = 0; k <= kNumHuffLanes; ++k)
        lane_begin[k] = n * k / kNumHuffLanes;
    std::array<std::array<uint64_t, kNumSymbols>, kNumHuffLanes> lane_freq{};
    for (uint32_t k = 0; k < kNumHuffLanes; ++k)
        for (size_t i = lane_begin[k]; i < lane_begin[k + 1]; ++i)
            ++lane_freq[k][in[i]];
    std::array<uint64_t, kNumSymbols> freq{};
    uint32_t distinct = 0;
    uint32_t only = 0;
    for (uint32_t s = 0; s < kNumSymbols; ++s) {
        for (uint32_t k = 0; k < kNumHuffLanes; ++k)
            freq[s] += lane_freq[k][s];
        if (freq[s] > 0) {
            ++distinct;
            only = s;
        }
    }
    if (distinct == 1) {
        out.push_back(kModeSingle);
        out.push_back(static_cast<uint8_t>(only));
        return;
    }

    std::array<uint8_t, kNumSymbols> lengths{};
    huffCodeLengths(freq, lengths);
    std::array<uint16_t, kNumSymbols> codes{};
    canonicalCodes(lengths, codes);

    out.push_back(kModeHuffman);
    // Lane byte sizes go in the header ahead of the lanes (all but the
    // last, which the stream end implies).
    size_t lane_bytes[kNumHuffLanes];
    size_t total_bytes = 0;
    for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
        uint64_t bits = 0;
        for (uint32_t s = 0; s < kNumSymbols; ++s)
            bits += lane_freq[k][s] * lengths[s];
        lane_bytes[k] = (bits + 7) / 8;
        total_bytes += lane_bytes[k];
    }
    for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k)
        putVarint(out, lane_bytes[k]);
    for (uint32_t i = 0; i < kTableBytes; ++i)
        out.push_back(
            static_cast<uint8_t>(lengths[2 * i] | lengths[2 * i + 1] << 4));

    // Pack each lane in place with whole 64-bit stores. A store may run
    // up to 8 bytes past the lane's end: the next lane overwrites those
    // bytes, and the last lane's land in slack trimmed afterwards.
    const size_t lanes_at = out.size();
    out.resize(lanes_at + total_bytes + sizeof(uint64_t));
    uint8_t* dst = out.data() + lanes_at;
    for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
        uint64_t bitbuf = 0;
        uint32_t bitcount = 0;
        uint8_t* p = dst;
        for (size_t i = lane_begin[k]; i < lane_begin[k + 1]; ++i) {
            const uint8_t b = in[i];
            bitbuf |= static_cast<uint64_t>(codes[b]) << bitcount;
            bitcount += lengths[b];
            if (bitcount >= 32) {
                std::memcpy(p, &bitbuf, sizeof(bitbuf));
                p += bitcount >> 3;
                bitbuf >>= bitcount & ~7u;
                bitcount &= 7;
            }
        }
        std::memcpy(p, &bitbuf, sizeof(bitbuf));
        dst += lane_bytes[k];
    }
    out.resize(lanes_at + total_bytes);
}

std::vector<uint8_t>
huffCompress(std::span<const uint8_t> in)
{
    std::vector<uint8_t> out;
    huffCompress(in, out);
    return out;
}

Status
huffStreamInfo(std::span<const uint8_t> in, HuffStreamInfo& info)
{
    size_t pos = 0;
    PRESTO_RETURN_IF_ERROR(getVarint(in, pos, info.raw_bytes));
    info.table_bytes = 0;
    info.mode = kModeHuffman;
    if (info.raw_bytes == 0) {
        info.header_bytes = static_cast<uint32_t>(pos);
        return Status::okStatus();
    }
    if (pos >= in.size())
        return Status::corruption("truncated entropy stream header");
    info.mode = in[pos++];
    if (info.mode == kModeSingle) {
        if (pos >= in.size())
            return Status::corruption("truncated single-symbol stream");
        ++pos;
    } else if (info.mode == kModeHuffman) {
        for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k) {
            uint64_t lane_bytes = 0;
            PRESTO_RETURN_IF_ERROR(getVarint(in, pos, lane_bytes));
        }
        if (pos + kTableBytes > in.size())
            return Status::corruption("truncated entropy code table");
        info.table_bytes = kTableBytes;
        pos += kTableBytes;
    } else {
        return Status::corruption("unknown entropy stream mode");
    }
    info.header_bytes = static_cast<uint32_t>(pos);
    return Status::okStatus();
}

Status
huffDecompress(std::span<const uint8_t> in, std::span<uint8_t> out)
{
    size_t pos = 0;
    uint64_t raw_count = 0;
    PRESTO_RETURN_IF_ERROR(getVarint(in, pos, raw_count));
    if (raw_count != out.size())
        return Status::corruption("entropy stream raw size mismatch");
    if (raw_count == 0) {
        if (pos != in.size())
            return Status::corruption("trailing bytes in entropy stream");
        return Status::okStatus();
    }
    if (pos >= in.size())
        return Status::corruption("truncated entropy stream header");
    const uint8_t mode = in[pos++];

    if (mode == kModeSingle) {
        if (pos >= in.size())
            return Status::corruption("truncated single-symbol stream");
        const uint8_t sym = in[pos++];
        if (pos != in.size())
            return Status::corruption("trailing bytes in entropy stream");
        std::memset(out.data(), sym, out.size());
        return Status::okStatus();
    }
    if (mode != kModeHuffman)
        return Status::corruption("unknown entropy stream mode");

    uint64_t lane_bytes[kNumHuffLanes];
    uint64_t declared = 0;
    for (uint32_t k = 0; k + 1 < kNumHuffLanes; ++k) {
        PRESTO_RETURN_IF_ERROR(getVarint(in, pos, lane_bytes[k]));
        declared += lane_bytes[k];
    }
    if (pos + kTableBytes > in.size())
        return Status::corruption("truncated entropy code table");

    std::array<uint8_t, kNumSymbols> lengths{};
    for (uint32_t i = 0; i < kTableBytes; ++i) {
        const uint8_t packed = in[pos + i];
        const uint8_t lo = packed & 0xF;
        const uint8_t hi = packed >> 4;
        if (lo > kMaxHuffCodeLen || hi > kMaxHuffCodeLen)
            return Status::corruption("entropy code length exceeds limit");
        lengths[2 * i] = lo;
        lengths[2 * i + 1] = hi;
    }
    pos += kTableBytes;

    // One table per decode keeps the codec reentrant; the 8 KiB build
    // is amortized over the page and reuses thread-local storage so a
    // warmed-up decode loop stays allocation-free.
    static thread_local DecodeTable table;
    if (!buildDecodeTable(lengths, table,
                          out.size() >= kFusePassMinBytes))
        return Status::corruption("entropy code table not Kraft-complete");

    const size_t region = in.size() - pos;
    if (declared > region)
        return Status::corruption("entropy lane sizes exceed stream");
    lane_bytes[kNumHuffLanes - 1] = region - declared;

    // Per-lane cursors. Lane k decodes output bytes [k*n/N, (k+1)*n/N)
    // from its own bitstream; the four chains are independent, which is
    // the whole point — one chain's probe -> shift -> probe dependency
    // is ~8 cycles, so interleaving four keeps the decoder throughput-
    // bound instead of latency-bound.
    struct Lane {
        const uint8_t* bits;
        size_t nbytes;
        size_t in_pos;
        uint64_t bitbuf;
        uint32_t bitcount;
        uint8_t* dst;
        size_t o;
        size_t n;
    };
    Lane lane[kNumHuffLanes];
    {
        const uint8_t* p = in.data() + pos;
        const size_t total = out.size();
        for (uint32_t k = 0; k < kNumHuffLanes; ++k) {
            const size_t begin = total * k / kNumHuffLanes;
            const size_t end = total * (k + 1) / kNumHuffLanes;
            lane[k] = Lane{p, static_cast<size_t>(lane_bytes[k]), 0, 0,
                           0, out.data() + begin, 0, end - begin};
            p += lane_bytes[k];
        }
    }

    // Fast loop: per lane, one 64-bit refill feeds five probes
    // (5 * 11 <= 56 bits guaranteed after refill); each probe writes
    // its up-to-4 symbols branchlessly and advances by the entry's
    // total bit count. The margins on the loop condition guarantee
    // every write lands in bounds and every probe has its full code
    // window, so no per-symbol checks are needed; the per-lane
    // exact-consumption validation below still covers the whole stream
    // because in_pos/bitcount accounting is identical to the careful
    // tail loop.
    constexpr uint32_t kProbesPerRefill = 5;
    static_assert(kProbesPerRefill * kMaxHuffCodeLen <= 56);
    constexpr size_t kFastMargin = kProbesPerRefill * kMaxSymsPerProbe;
    static_assert(kNumHuffLanes == 4);
    {
        // The lane state must live in registers here: a straight
        // array-of-structs loop makes every probe a load-op-store
        // round trip and the whole point of the lanes is lost.
        const uint64_t* T = table.data();
        Lane &A = lane[0], &B = lane[1], &C = lane[2], &D = lane[3];
        uint64_t bbA = A.bitbuf, bbB = B.bitbuf, bbC = C.bitbuf,
                 bbD = D.bitbuf;
        uint32_t bcA = A.bitcount, bcB = B.bitcount, bcC = C.bitcount,
                 bcD = D.bitcount;
        size_t ipA = A.in_pos, ipB = B.in_pos, ipC = C.in_pos,
               ipD = D.in_pos;
        size_t oA = A.o, oB = B.o, oC = C.o, oD = D.o;
        auto refill = [](const Lane& L, size_t& ip, uint64_t& bb,
                         uint32_t& bc) {
            bb |= loadLe64(L.bits + ip) << bc;
            ip += (63 - bc) >> 3;
            bc |= 56;
        };
        auto probe = [T](const Lane& L, size_t& o, uint64_t& bb,
                         uint32_t& bc) {
            const uint64_t e = T[bb & (kDecodeSize - 1)];
            std::memcpy(L.dst + o, &e, 4);
            o += static_cast<uint32_t>(e >> 32) & 0xF;
            const uint32_t adv = static_cast<uint32_t>(e >> 36) & 0xF;
            bb >>= adv;
            bc -= adv;
        };
        while (ipA + 8 <= A.nbytes && oA + kFastMargin <= A.n &&
               ipB + 8 <= B.nbytes && oB + kFastMargin <= B.n &&
               ipC + 8 <= C.nbytes && oC + kFastMargin <= C.n &&
               ipD + 8 <= D.nbytes && oD + kFastMargin <= D.n) {
            refill(A, ipA, bbA, bcA);
            refill(B, ipB, bbB, bcB);
            refill(C, ipC, bbC, bcC);
            refill(D, ipD, bbD, bcD);
            for (uint32_t p = 0; p < kProbesPerRefill; ++p) {
                probe(A, oA, bbA, bcA);
                probe(B, oB, bbB, bcB);
                probe(C, oC, bbC, bcC);
                probe(D, oD, bbD, bcD);
            }
        }
        A.bitbuf = bbA; A.bitcount = bcA; A.in_pos = ipA; A.o = oA;
        B.bitbuf = bbB; B.bitcount = bcB; B.in_pos = ipB; B.o = oB;
        C.bitbuf = bbC; C.bitcount = bcC; C.in_pos = ipC; C.o = oC;
        D.bitbuf = bbD; D.bitcount = bcD; D.in_pos = ipD; D.o = oD;
    }

    // Careful per-lane tail: byte-wise refill, one symbol per probe,
    // and the mid-code check that a truncated or corrupt lane trips.
    for (auto& L : lane) {
        while (L.o < L.n) {
            if (L.bitcount < 2 * kMaxHuffCodeLen) {
                if (L.in_pos + 8 <= L.nbytes) {
                    L.bitbuf |= loadLe64(L.bits + L.in_pos)
                                << L.bitcount;
                    L.in_pos += (63 - L.bitcount) >> 3;
                    L.bitcount |= 56;
                } else {
                    while (L.in_pos < L.nbytes && L.bitcount <= 56) {
                        L.bitbuf |=
                            static_cast<uint64_t>(L.bits[L.in_pos++])
                            << L.bitcount;
                        L.bitcount += 8;
                    }
                }
            }
            const uint64_t e = table[L.bitbuf & (kDecodeSize - 1)];
            const uint32_t len1 = static_cast<uint32_t>(e >> 40) & 0xF;
            if (len1 > L.bitcount)
                return Status::corruption(
                    "entropy bitstream ends mid-code");
            L.dst[L.o++] = static_cast<uint8_t>(e);
            L.bitbuf >>= len1;
            L.bitcount -= len1;
        }

        // Exact-consumption check: every stored byte of the lane must
        // be needed, and the padding bits of its final byte must be
        // zero.
        const uint64_t consumed =
            8 * static_cast<uint64_t>(L.in_pos) - L.bitcount;
        const uint64_t used_bytes = (consumed + 7) / 8;
        if (used_bytes != L.nbytes)
            return Status::corruption("trailing bytes in entropy lane");
        const uint32_t pad =
            static_cast<uint32_t>(8 * used_bytes - consumed);
        if (pad > 0 && (L.bitbuf & ((1u << pad) - 1)) != 0)
            return Status::corruption("non-zero entropy padding bits");
    }
    return Status::okStatus();
}

}  // namespace enc
}  // namespace presto
