#ifndef GAT_INDEX_SNAPSHOT_FORMAT_H_
#define GAT_INDEX_SNAPSHOT_FORMAT_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

/// The on-disk `GATS` snapshot format, shared by the two loaders:
/// the stream deserializer (`gat/index/snapshot.cc`) and the zero-copy
/// mmap loader (`gat/storage/mapped_snapshot.cc`). Both parse the same
/// bytes; only what they do with the disk-tier sections differs
/// (deserialize vs serve views into the mapping).
///
/// Layout: magic + version + payload CRC32 (12-byte header), then the
/// payload — `GatConfig` fields, dataset fingerprint, and one tagged
/// section per component (GRID, HICL, ITL_, TAS_, APL_, DONE). Every
/// field and every vector payload is a multiple of 4 bytes, so *all*
/// element arrays are 4-byte aligned at file offsets — the invariant
/// the mmap loader relies on to hand out `std::span`s into the mapping
/// (element types are 4-byte IDs/codes; see common/types.h).
namespace gat::snapshot_format {

inline constexpr char kMagic[4] = {'G', 'A', 'T', 'S'};
inline constexpr uint32_t kVersion = 1;
/// magic + version + payload CRC32.
inline constexpr size_t kHeaderBytes = 12;

// Section tags (4 ASCII bytes each) so a reader that goes out of sync
// fails on the next tag instead of misinterpreting the stream.
inline constexpr char kTagGrid[4] = {'G', 'R', 'I', 'D'};
inline constexpr char kTagHicl[4] = {'H', 'I', 'C', 'L'};
inline constexpr char kTagItl[4] = {'I', 'T', 'L', '_'};
inline constexpr char kTagTas[4] = {'T', 'A', 'S', '_'};
inline constexpr char kTagApl[4] = {'A', 'P', 'L', '_'};
inline constexpr char kTagEnd[4] = {'D', 'O', 'N', 'E'};

/// CRC-32 (IEEE 802.3 / zlib: reflected polynomial 0xEDB88320, state
/// preset and final xor 0xFFFFFFFF). The header carries the payload
/// checksum so any bit corruption — not just truncation — fails the load
/// instead of producing a subtly different index. The same function also
/// verifies every disk-tier cache fill against its map-time block CRC and
/// every GATW frame payload, so its speed is serving latency: an OATSQ
/// query on the mmap tier verifies thousands of 4 KiB blocks.
///
/// Slicing-by-8 (Kounavis & Berry, ISCC 2005): kCrc32Tables[0] is the
/// classic byte table, and kCrc32Tables[k][b] is the state change of byte
/// b followed by k zero bytes. One step xors 8 input bytes into the state
/// and folds them with 8 independent lookups; the tail (< 8 bytes) goes
/// byte-wise through table 0. Results are bit-identical to the byte-wise
/// definition — every stored checksum stays valid.
inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t byte = 0; byte < 256; ++byte) {
    uint32_t crc = byte;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
    t[0][byte] = crc;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t byte = 0; byte < 256; ++byte) {
      t[k][byte] = (t[k - 1][byte] >> 8) ^ t[0][t[k - 1][byte] & 0xFF];
    }
  }
  return t;
}();

inline uint32_t Crc32Update(uint32_t crc, const char* data, size_t size) {
  // The 8-byte step reads each half as a host-order word: byte i of the
  // stream is bits 8i..8i+7 only on little-endian hosts — the same
  // host-order rule the snapshot and wire formats already rely on.
  static_assert(std::endian::native == std::endian::little,
                "slicing-by-8 word loads assume a little-endian host");
  const auto& t = kCrc32Tables;
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);  // memcpy: no alignment assumption on `data`
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *p) & 0xFF];
  }
  return crc;
}

inline uint32_t Crc32(const char* data, size_t size) {
  return Crc32Update(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

/// GF(2) matrix-times-vector over the CRC-32 state space: each matrix
/// column is the image of one state bit under some number of zero bits
/// appended to the message.
inline uint32_t Crc32Gf2Times(const std::array<uint32_t, 32>& mat,
                              uint32_t vec) {
  uint32_t sum = 0;
  for (int i = 0; vec != 0; vec >>= 1, ++i) {
    if (vec & 1u) sum ^= mat[i];
  }
  return sum;
}

/// Crc32(AB) from Crc32(A), Crc32(B) and |B| — the zlib crc32_combine
/// construction: advance crc1 through |B| zero bytes by repeated
/// squaring of the one-zero-bit operator matrix, then xor in crc2.
/// This is what lets a snapshot load compute its whole-payload CRC
/// from independently checksummed chunks, bit-identical to the
/// sequential sweep.
inline uint32_t Crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  if (len2 == 0) return crc1;
  std::array<uint32_t, 32> even;  // operator for 2^k zero bits (even k)
  std::array<uint32_t, 32> odd;   // ... and odd k
  // One zero *bit*: shift the state down and fold the polynomial back
  // in where bit 0 fell out (reflected representation).
  odd[0] = 0xEDB88320u;
  for (int n = 1; n < 32; ++n) odd[n] = 1u << (n - 1);
  auto square = [](std::array<uint32_t, 32>& dst,
                   const std::array<uint32_t, 32>& src) {
    for (int n = 0; n < 32; ++n) dst[n] = Crc32Gf2Times(src, src[n]);
  };
  square(even, odd);  // 2 zero bits
  square(odd, even);  // 4 zero bits
  // Apply the operators for len2 * 8 zero bits = len2 zero bytes,
  // consuming len2's binary digits from 8-zero-bits upward.
  do {
    square(even, odd);
    if (len2 & 1u) crc1 = Crc32Gf2Times(even, crc1);
    len2 >>= 1;
    if (len2 == 0) break;
    square(odd, even);
    if (len2 & 1u) crc1 = Crc32Gf2Times(odd, crc1);
    len2 >>= 1;
  } while (len2 != 0);
  return crc1 ^ crc2;
}

}  // namespace gat::snapshot_format

#endif  // GAT_INDEX_SNAPSHOT_FORMAT_H_
