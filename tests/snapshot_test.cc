// Tests for GAT index snapshots: save -> load must preserve search
// behavior bit-identically, and every malformed-file path must fail
// cleanly (nullptr, no crash, no exception).

#include "gat/index/snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/index/snapshot_format.h"
#include "gat/search/gat_search.h"
#include "gat/util/rng.h"

namespace gat {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// Stand-alone byte-wise CRC-32 (IEEE), independent of the slicing-by-8
// snapshot_format::Crc32: the reference its conformance tests check
// against, and the way tests forge a valid checksum over corrupted
// payload bytes to prove the structural validators reject what the CRC
// no longer can. TestCrc32Update works on the raw (unconditioned) state.
uint32_t TestCrc32Update(uint32_t crc, const char* data, size_t size) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t byte = 0; byte < 256; ++byte) {
      uint32_t crc = byte;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
      }
      t[byte] = crc;
    }
    return t;
  }();
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ static_cast<unsigned char>(data[i])) & 0xFF];
  }
  return crc;
}

uint32_t TestCrc32(const char* data, size_t size) {
  return TestCrc32Update(0xFFFFFFFFu, data, size) ^ 0xFFFFFFFFu;
}

std::vector<char> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<char> bytes(size);
  for (char& b : bytes) b = static_cast<char>(rng.NextU32(256));
  return bytes;
}

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed) {
  QueryWorkloadParams wp;
  wp.num_queries = 10;
  wp.seed = seed;
  QueryGenerator qgen(dataset, wp);
  return qgen.Workload();
}

long FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  return in ? static_cast<long>(in.tellg()) : -1;
}

void TruncateTo(const std::string& src, const std::string& dst, long bytes) {
  std::ifstream in(src, std::ios::binary);
  std::vector<char> buf(bytes);
  in.read(buf.data(), bytes);
  std::ofstream out(dst, std::ios::binary | std::ios::trunc);
  out.write(buf.data(), bytes);
}

TEST(Snapshot, RoundTripSearchesBitIdentically) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(200, 31));
  const GatConfig config{.depth = 6, .memory_levels = 4, .tas_intervals = 2};
  const GatIndex built(dataset, config);
  const std::string path = TempPath("roundtrip.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));

  const auto loaded = LoadSnapshot(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->config(), built.config());

  // Same footprint accounting...
  const auto mb = built.memory_breakdown();
  const auto ml = loaded->memory_breakdown();
  EXPECT_EQ(ml.MainMemoryTotal(), mb.MainMemoryTotal());
  EXPECT_EQ(ml.DiskTotal(), mb.DiskTotal());

  // ...and bit-identical answers: not just equal distances, the exact
  // same (trajectory, distance) pairs, including deterministic work
  // counters, for both query kinds.
  const GatSearcher fresh(dataset, built);
  const GatSearcher restored(dataset, *loaded);
  for (const Query& q : TestQueries(dataset, 77)) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      SearchStats fresh_stats, restored_stats;
      const ResultList a = fresh.Search(q, 9, kind, &fresh_stats);
      const ResultList b = restored.Search(q, 9, kind, &restored_stats);
      ASSERT_EQ(a, b) << ToString(kind);
      EXPECT_EQ(restored_stats.candidates_retrieved,
                fresh_stats.candidates_retrieved);
      EXPECT_EQ(restored_stats.tas_pruned, fresh_stats.tas_pruned);
      EXPECT_EQ(restored_stats.distance_computations,
                fresh_stats.distance_computations);
      EXPECT_EQ(restored_stats.disk_reads, fresh_stats.disk_reads);
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, SavedBytesAreDeterministic) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(120, 5));
  const GatIndex index(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string p1 = TempPath("det1.gats");
  const std::string p2 = TempPath("det2.gats");
  ASSERT_TRUE(SaveSnapshot(index, p1));
  ASSERT_TRUE(SaveSnapshot(index, p2));
  std::ifstream a(p1, std::ios::binary), b(p2, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(b)),
                            std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(Snapshot, MissingFileFailsCleanly) {
  EXPECT_EQ(LoadSnapshot(TempPath("no_such_snapshot.gats")), nullptr);
}

TEST(Snapshot, BadMagicIsRejected) {
  const std::string path = TempPath("bad_magic.gats");
  {
    std::ofstream out(path, std::ios::binary);
    out << "GATD this is a dataset header, not an index snapshot";
  }
  EXPECT_EQ(LoadSnapshot(path), nullptr);
  std::remove(path.c_str());
}

TEST(Snapshot, VersionMismatchIsRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(60, 9));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("version.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  ASSERT_NE(LoadSnapshot(path), nullptr);

  // The version field sits right after the 4-byte magic.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(4);
    const uint32_t future_version = 999;
    f.write(reinterpret_cast<const char*>(&future_version),
            sizeof(future_version));
  }
  EXPECT_EQ(LoadSnapshot(path), nullptr);
  std::remove(path.c_str());
}

TEST(Snapshot, ConfigMismatchOnLoadIsRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(60, 11));
  const GatConfig saved{.depth = 5, .memory_levels = 3, .tas_intervals = 2};
  const GatIndex index(dataset, saved);
  const std::string path = TempPath("config.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));

  // Unchecked and matching-config loads succeed.
  EXPECT_NE(LoadSnapshot(path), nullptr);
  EXPECT_NE(LoadSnapshot(path, &saved), nullptr);

  // Any differing field refuses the snapshot.
  GatConfig other = saved;
  other.depth = 6;
  EXPECT_EQ(LoadSnapshot(path, &other), nullptr);
  other = saved;
  other.memory_levels = 2;
  EXPECT_EQ(LoadSnapshot(path, &other), nullptr);
  other = saved;
  other.tas_intervals = 3;
  EXPECT_EQ(LoadSnapshot(path, &other), nullptr);
  std::remove(path.c_str());
}

TEST(Snapshot, DatasetFingerprintBindsSnapshotToItsDataset) {
  const Dataset a = GenerateCity(CityProfile::Testing(60, 15));
  const Dataset b = GenerateCity(CityProfile::Testing(60, 16));
  const uint32_t fp_a = DatasetFingerprint(a);
  const uint32_t fp_b = DatasetFingerprint(b);
  ASSERT_NE(fp_a, 0u);
  ASSERT_NE(fp_a, fp_b);
  EXPECT_EQ(fp_a, DatasetFingerprint(a));  // deterministic

  const GatIndex index(a, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("paired.gats");
  ASSERT_TRUE(SaveSnapshot(index, path, fp_a));

  EXPECT_NE(LoadSnapshot(path, nullptr, fp_a), nullptr);  // right dataset
  EXPECT_NE(LoadSnapshot(path), nullptr);                 // check waived
  EXPECT_EQ(LoadSnapshot(path, nullptr, fp_b), nullptr);  // wrong dataset
  std::remove(path.c_str());
}

TEST(Snapshot, BitCorruptionAnywhereIsRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(60, 19));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("corrupt.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  // Flipping a single byte anywhere — header fields included — must be
  // caught (payload damage by the CRC32, header damage by the
  // magic/version/checksum checks). Sweep a spread of positions.
  const std::string mutated = TempPath("mutated.gats");
  for (size_t pos = 0; pos < bytes.size();
       pos += (pos < 16 ? 1 : 131)) {  // every header byte, then strided
    std::string copy = bytes;
    copy[pos] = static_cast<char>(copy[pos] ^ 0x5C);
    {
      std::ofstream out(mutated, std::ios::binary | std::ios::trunc);
      out.write(copy.data(), copy.size());
    }
    EXPECT_EQ(LoadSnapshot(mutated), nullptr) << "byte " << pos << " flipped";
  }
  std::remove(mutated.c_str());
  std::remove(path.c_str());
}

TEST(Snapshot, ExecutorLoadIsBitIdenticalToSequentialLoad) {
  // 300 trajectories puts the APL past the parallel-validation row
  // threshold, so the executor path actually fans out.
  const Dataset dataset = GenerateCity(CityProfile::Testing(300, 47));
  const GatIndex built(dataset, GatConfig{.depth = 5, .memory_levels = 3});
  const std::string path = TempPath("executor_load.gats");
  ASSERT_TRUE(SaveSnapshot(built, path));

  Executor executor(4);
  const auto sequential = LoadSnapshot(path);
  const auto parallel = LoadSnapshot(path, nullptr, 0, &executor);
  ASSERT_NE(sequential, nullptr);
  ASSERT_NE(parallel, nullptr);
  EXPECT_EQ(parallel->memory_breakdown().MainMemoryTotal(),
            sequential->memory_breakdown().MainMemoryTotal());

  const GatSearcher a(dataset, *sequential);
  const GatSearcher b(dataset, *parallel);
  for (const Query& q : TestQueries(dataset, 99)) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      SearchStats sa, sb;
      ASSERT_EQ(a.Search(q, 9, kind, &sa), b.Search(q, 9, kind, &sb));
      EXPECT_EQ(sb.candidates_retrieved, sa.candidates_retrieved);
      EXPECT_EQ(sb.disk_reads, sa.disk_reads);
    }
  }
  std::remove(path.c_str());
}

TEST(Snapshot, CorruptionRejectedThroughExecutorPathToo) {
  // Bit flips and truncations must load as nullptr no matter which
  // validation path runs — a parallel load may never out-race a reject.
  const Dataset dataset = GenerateCity(CityProfile::Testing(300, 53));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("executor_corrupt.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 64u);

  Executor executor(4);
  const std::string mutated = TempPath("executor_mutated.gats");
  for (size_t pos = 0; pos < bytes.size(); pos += 257) {
    std::string copy = bytes;
    copy[pos] = static_cast<char>(copy[pos] ^ 0x5C);
    {
      std::ofstream out(mutated, std::ios::binary | std::ios::trunc);
      out.write(copy.data(), copy.size());
    }
    EXPECT_EQ(LoadSnapshot(mutated, nullptr, 0, &executor), nullptr)
        << "byte " << pos << " flipped";
  }
  for (const size_t cut : {size_t{20}, bytes.size() / 2, bytes.size() - 3}) {
    std::ofstream out(mutated, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_EQ(LoadSnapshot(mutated, nullptr, 0, &executor), nullptr)
        << "prefix of " << cut << " bytes";
  }
  std::remove(mutated.c_str());
  std::remove(path.c_str());
}

TEST(Snapshot, ForgedChecksumNeverChangesTheDecisionParity) {
  // An attacker (or a very unlucky disk) can corrupt a payload byte AND
  // re-stamp a matching CRC. Structural validation is then the only
  // line of defense; some flips are benign (stored byte counters), but
  // whatever the sequential loader decides, the executor-parallel
  // loader must decide identically — and neither may crash or hand out
  // an index that fails its own invariants.
  const Dataset dataset = GenerateCity(CityProfile::Testing(300, 59));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("forged.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
  }
  constexpr size_t kHeaderBytes = 12;
  ASSERT_GT(bytes.size(), kHeaderBytes + 64);

  Executor executor(4);
  const std::string forged = TempPath("forged_mutated.gats");
  size_t rejected = 0, accepted = 0;
  for (size_t pos = kHeaderBytes; pos < bytes.size(); pos += 211) {
    std::string copy = bytes;
    copy[pos] = static_cast<char>(copy[pos] ^ 0x5C);
    const uint32_t crc =
        TestCrc32(copy.data() + kHeaderBytes, copy.size() - kHeaderBytes);
    copy.replace(8, 4, reinterpret_cast<const char*>(&crc), 4);
    {
      std::ofstream out(forged, std::ios::binary | std::ios::trunc);
      out.write(copy.data(), copy.size());
    }
    const auto sequential = LoadSnapshot(forged);
    const auto parallel = LoadSnapshot(forged, nullptr, 0, &executor);
    ASSERT_EQ(sequential == nullptr, parallel == nullptr)
        << "decision diverged at byte " << pos;
    (sequential == nullptr ? rejected : accepted) += 1;
  }
  // The sweep must have hit real structural damage, not only benign
  // counter bytes — otherwise this test proves nothing.
  EXPECT_GT(rejected, 0u);
  std::remove(forged.c_str());
  std::remove(path.c_str());
}

TEST(Snapshot, EmptyIndexRoundTrips) {
  // An empty dataset builds a valid index over the fallback grid space;
  // its snapshot must round-trip (the empty-shard warm-start path).
  Dataset empty;
  empty.Finalize();
  const GatIndex built(empty);
  const std::string path = TempPath("empty.gats");
  ASSERT_TRUE(SaveSnapshot(built, path, DatasetFingerprint(empty)));
  const auto loaded =
      LoadSnapshot(path, nullptr, DatasetFingerprint(empty));
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->config(), built.config());
  std::remove(path.c_str());
}

TEST(Snapshot, TruncationAnywhereIsRejected) {
  const Dataset dataset = GenerateCity(CityProfile::Testing(80, 13));
  const GatIndex index(dataset, GatConfig{.depth = 4, .memory_levels = 2});
  const std::string path = TempPath("full.gats");
  ASSERT_TRUE(SaveSnapshot(index, path));
  const long size = FileSize(path);
  ASSERT_GT(size, 0);

  const std::string cut = TempPath("cut.gats");
  // Every prefix shorter than the full file must fail — sweep a spread of
  // cut points (every 97 bytes covers all sections at this index size)
  // plus the last few bytes, which land inside the end tag.
  for (long bytes = 0; bytes < size; bytes += 97) {
    TruncateTo(path, cut, bytes);
    EXPECT_EQ(LoadSnapshot(cut), nullptr) << "prefix of " << bytes << " bytes";
  }
  for (long bytes = size - 4; bytes < size; ++bytes) {
    TruncateTo(path, cut, bytes);
    EXPECT_EQ(LoadSnapshot(cut), nullptr) << "prefix of " << bytes << " bytes";
  }
  std::remove(cut.c_str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// CRC-32 conformance: the slicing-by-8 kernel against the byte-wise
// reference, through its word path, its tail, and every alignment.
// ---------------------------------------------------------------------------

TEST(Crc32, KnownAnswer) {
  const char kCheck[] = "123456789";
  EXPECT_EQ(snapshot_format::Crc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(TestCrc32(kCheck, 9), 0xCBF43926u);
  EXPECT_EQ(snapshot_format::Crc32(kCheck, 0), 0u);
}

TEST(Crc32, MatchesByteWiseReferenceAtEveryLengthAndOffset) {
  // Two cache blocks plus a 15-byte tail: every residue mod 8 of the
  // length meets every residue mod 8 of the start address, so each
  // 8-byte-step / tail split and each misaligned word load is exercised.
  constexpr size_t kMaxLen = 2 * 4096 + 15;
  const std::vector<char> bytes = RandomBytes(kMaxLen + 8, 0xC3C32);
  for (size_t offset = 0; offset < 8; ++offset) {
    const char* base = bytes.data() + offset;
    uint32_t reference = 0xFFFFFFFFu;  // byte-wise state of base[0, len)
    for (size_t len = 0; len <= kMaxLen; ++len) {
      if (len > 0) reference = TestCrc32Update(reference, base + len - 1, 1);
      const uint32_t got = snapshot_format::Crc32(base, len);
      if (got != (reference ^ 0xFFFFFFFFu)) {
        FAIL() << "offset " << offset << " length " << len;
      }
    }
  }
}

TEST(Crc32, UpdateChainsAcrossArbitrarySplits) {
  const std::vector<char> bytes = RandomBytes(3 * 4096 + 5, 0x5EED);
  const uint32_t whole = TestCrc32(bytes.data(), bytes.size());
  Rng rng(17);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<size_t> cuts = {0, bytes.size()};
    const uint32_t pieces = 1 + rng.NextU32(8);
    for (uint32_t i = 1; i < pieces; ++i) {
      cuts.push_back(rng.NextU64(bytes.size() + 1));
    }
    std::sort(cuts.begin(), cuts.end());
    uint32_t crc = 0xFFFFFFFFu;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      crc = snapshot_format::Crc32Update(crc, bytes.data() + cuts[i],
                                         cuts[i + 1] - cuts[i]);
    }
    EXPECT_EQ(crc ^ 0xFFFFFFFFu, whole) << "trial " << trial;
  }
}

}  // namespace
}  // namespace gat
