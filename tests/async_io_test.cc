// Tests for gat/storage/async_io: the raw block I/O engine (io_uring
// and pread-pool backends), the AsyncDiskTier built on it, and the
// stage-then-search path through IoStager + TaskGroup::Defer.
//
// The load-bearing invariants:
//   * both backends return exactly the requested bytes at arbitrary
//     (unaligned) offsets and lengths, including short-read
//     continuation, and Drain() implies every completion ran;
//   * an AsyncDiskTier answers bit-identically to the MappedDiskTier
//     (and the simulated tier) with equal logical disk_reads and equal
//     per-block counters — the physics changed, the accounting did not;
//   * a blocking fetch's wait cannot return while the completion that
//     signals it is still touching the waiter's frame;
//   * staging makes subsequent demand fetches stall-free, and the
//     staged engine path (executor + IoStager) returns bit-identical
//     batches while yielding cold queries instead of blocking workers.

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "gat/common/notification.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/datagen/query_generator.h"
#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/index/snapshot.h"
#include "gat/search/gat_search.h"
#include "gat/storage/async_io.h"
#include "gat/storage/loaded_snapshot.h"
#include "gat/storage/mapped_snapshot.h"
#include "gat/storage/prefetch.h"

namespace gat {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::vector<Query> TestQueries(const Dataset& dataset, uint64_t seed,
                               uint32_t count = 10) {
  QueryWorkloadParams wp;
  wp.num_queries = count;
  wp.seed = seed;
  QueryGenerator qgen(dataset, wp);
  return qgen.Workload();
}

/// A scratch file of pseudorandom (seed-reproducible) bytes.
std::string WritePatternFile(const std::string& name, size_t bytes,
                             std::string* contents) {
  std::mt19937_64 rng(0x5eedull + bytes);
  contents->resize(bytes);
  for (size_t i = 0; i < bytes; ++i) {
    (*contents)[i] = static_cast<char>(rng() & 0xff);
  }
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(contents->data(), 1, bytes, f), bytes);
  std::fclose(f);
  return path;
}

/// Submits a pile of unaligned reads and checks every byte and every
/// completion under the given backend configuration.
void ExerciseBackend(const AsyncIoOptions& options, IoBackend expected) {
  std::string contents;
  const std::string path =
      WritePatternFile("async_io_pattern.bin", 70000, &contents);
  const int fd = ::open(path.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);

  AsyncBlockIo io(options);
  EXPECT_EQ(io.backend(), expected);

  // Deliberately awkward extents: odd offsets, odd lengths, a read
  // ending exactly at EOF, single bytes — nothing block-aligned.
  const std::vector<std::pair<uint64_t, uint32_t>> extents = {
      {0, 1},     {1, 1},      {0, 4096},  {4095, 2},       {12345, 6789},
      {777, 513}, {69000, 1000 /* ends at EOF */}, {65536, 4464}};
  std::vector<std::vector<char>> bufs;
  bufs.reserve(extents.size());
  for (const auto& [offset, len] : extents) {
    bufs.emplace_back(len, '\0');
  }
  std::atomic<size_t> completions{0};
  std::atomic<bool> all_full{true};
  for (size_t i = 0; i < extents.size(); ++i) {
    io.SubmitRead(fd, extents[i].first, bufs[i].data(), extents[i].second,
                  [&, i](int64_t result) {
                    if (result != static_cast<int64_t>(extents[i].second)) {
                      all_full.store(false);
                    }
                    completions.fetch_add(1);
                  });
  }
  io.Drain();  // returning implies every callback above already ran
  EXPECT_EQ(completions.load(), extents.size());
  EXPECT_TRUE(all_full.load());
  EXPECT_EQ(io.reads_submitted(), extents.size());
  EXPECT_EQ(io.reads_completed(), extents.size());
  for (size_t i = 0; i < extents.size(); ++i) {
    EXPECT_EQ(std::string(bufs[i].data(), bufs[i].size()),
              contents.substr(extents[i].first, extents[i].second))
        << "extent " << i;
  }
  ::close(fd);
  std::remove(path.c_str());
}

TEST(AsyncBlockIo, PoolBackendReadsExactBytes) {
  AsyncIoOptions options;
  options.allow_io_uring = false;  // force the pread pool
  options.workers = 3;
  ExerciseBackend(options, IoBackend::kThreadPool);
}

TEST(AsyncBlockIo, PoolSingleWorkerSmallQueueStillCompletes) {
  // queue_depth below the submission count: SubmitRead must block at
  // the in-flight bound and drain forward, never deadlock or drop.
  AsyncIoOptions options;
  options.allow_io_uring = false;
  options.workers = 1;
  options.queue_depth = 4;
  ExerciseBackend(options, IoBackend::kThreadPool);
}

TEST(AsyncBlockIo, UringBackendReadsExactBytesWhenAvailable) {
  if (!ProbeIoUring()) {
    GTEST_SKIP() << "io_uring unavailable (kernel/seccomp); pool backend "
                    "covered above";
  }
  AsyncIoOptions options;
  options.allow_io_uring = true;
  ExerciseBackend(options, IoBackend::kIoUring);
}

TEST(AsyncBlockIo, EnvOverrideForcesPool) {
  // GAT_IO_BACKEND=pool must win even where io_uring is available — the
  // CI escape hatch, and the way both backends stay testable anywhere.
  ::setenv("GAT_IO_BACKEND", "pool", 1);
  AsyncIoOptions options;
  options.allow_io_uring = true;
  AsyncBlockIo io(options);
  EXPECT_EQ(io.backend(), IoBackend::kThreadPool);
  ::unsetenv("GAT_IO_BACKEND");
}

// ---------------------------------------------------------------------------
// AsyncDiskTier
// ---------------------------------------------------------------------------

struct TierFixture {
  Dataset dataset;
  std::unique_ptr<GatIndex> built;
  std::string path;

  explicit TierFixture(uint32_t trajectories = 200)
      : dataset(GenerateCity(CityProfile::Testing(trajectories, 31))) {
    const GatConfig config{.depth = 6, .memory_levels = 4,
                           .tas_intervals = 2};
    built = std::make_unique<GatIndex>(dataset, config);
    path = TempPath("async_tier.gats");
    EXPECT_TRUE(SaveSnapshot(*built, path));
  }
  ~TierFixture() { std::remove(path.c_str()); }

  LoadedSnapshot Load(SnapshotIoMode mode,
                                       uint64_t capacity_bytes = 1 << 20,
                                       CacheAdmission admission =
                                           CacheAdmission::kAdmitAll) const {
    MappedSnapshotOptions options;
    options.io_mode = mode;
    options.cache_config.block_bytes = 512;
    options.cache_config.shards = 1;
    options.cache_config.capacity_bytes = capacity_bytes;
    options.cache_config.admission = admission;
    return LoadedSnapshot::LoadMapped(path, options);
  }
};

TEST(AsyncDiskTier, BitIdenticalToMappedTierWithEqualCounters) {
  const TierFixture fix;
  const auto mmap_snap = fix.Load(SnapshotIoMode::kMmap);
  const auto async_snap = fix.Load(SnapshotIoMode::kAsync);
  ASSERT_TRUE(mmap_snap);
  ASSERT_TRUE(async_snap);
  EXPECT_EQ(mmap_snap.mapped()->async_tier(), nullptr);
  ASSERT_NE(async_snap.mapped()->async_tier(), nullptr);

  const GatSearcher fresh(fix.dataset, *fix.built);
  const GatSearcher mapped(fix.dataset, *mmap_snap);
  const GatSearcher async_mapped(fix.dataset, *async_snap);
  for (const Query& q : TestQueries(fix.dataset, 77)) {
    for (const QueryKind kind : {QueryKind::kAtsq, QueryKind::kOatsq}) {
      SearchStats fresh_stats, map_stats, async_stats;
      const ResultList want = fresh.Search(q, 9, kind, &fresh_stats);
      const ResultList via_mmap = mapped.Search(q, 9, kind, &map_stats);
      const ResultList via_async =
          async_mapped.Search(q, 9, kind, &async_stats);
      ASSERT_EQ(want, via_mmap) << ToString(kind);
      ASSERT_EQ(want, via_async) << ToString(kind);
      EXPECT_EQ(async_stats.disk_reads, fresh_stats.disk_reads);
      // Block-level accounting matches the mmap tier *exactly*: same
      // cache geometry, same logical access sequence, same hit/read
      // split — only the physical read changed.
      EXPECT_EQ(async_stats.block_hits, map_stats.block_hits);
      EXPECT_EQ(async_stats.blocks_read, map_stats.blocks_read);
    }
  }
  EXPECT_GT(async_snap.mapped()->async_tier()->stats().async_reads, 0u);
}

TEST(AsyncDiskTier, StagingMakesDemandFetchesStallFree) {
  const TierFixture fix;
  const auto snap = fix.Load(SnapshotIoMode::kAsync);
  ASSERT_TRUE(snap);
  const AsyncDiskTier* tier = snap.mapped()->async_tier();
  ASSERT_NE(tier, nullptr);

  // Stage a few whole rows cold, then demand-fetch the same extents:
  // the fetches must hit resident blocks and never stall.
  const Apl& apl = snap->apl();
  std::vector<std::pair<uint64_t, uint64_t>> extents;
  for (TrajectoryId t = 0; t < 8 && t < apl.num_trajectories(); ++t) {
    extents.push_back(apl.RowExtent(t));
  }
  std::atomic<bool> ready{false};
  const size_t staged = tier->StageExtents(
      extents, [&ready] { ready.store(true, std::memory_order_release); });
  EXPECT_GT(staged, 0u);  // fresh cache: the rows must have been cold
  while (!ready.load(std::memory_order_acquire)) {
  }
  EXPECT_EQ(tier->stats().staged_blocks, staged);

  DiskAccessCounter counter;
  for (const auto& [offset, bytes] : extents) {
    tier->Fetch(offset, bytes, &counter);
  }
  EXPECT_EQ(tier->stats().worker_stalls, 0u);
  EXPECT_EQ(tier->stats().stalled_blocks, 0u);
  EXPECT_EQ(counter.BlocksRead(), 0u);
  EXPECT_GT(counter.BlockHits(), 0u);

  // Restaging the same extents finds everything resident: the ready
  // callback runs inline and nothing is submitted.
  bool inline_ready = false;
  EXPECT_EQ(tier->StageExtents(extents,
                               [&inline_ready] { inline_ready = true; }),
            0u);
  EXPECT_TRUE(inline_ready);
}

TEST(AsyncDiskTier, ColdDemandFetchCountsOneStall) {
  const TierFixture fix;
  const auto snap = fix.Load(SnapshotIoMode::kAsync);
  ASSERT_TRUE(snap);
  const AsyncDiskTier* tier = snap.mapped()->async_tier();
  const auto extent = snap->apl().RowExtent(0);
  if (extent.second == 0) GTEST_SKIP() << "empty first row";
  DiskAccessCounter counter;
  tier->Fetch(extent.first, extent.second, &counter);
  EXPECT_EQ(tier->stats().worker_stalls, 1u);
  EXPECT_EQ(tier->stats().stalled_blocks, counter.BlocksRead());
  // Same extent again: resident now, no new stall.
  tier->Fetch(extent.first, extent.second, &counter);
  EXPECT_EQ(tier->stats().worker_stalls, 1u);
}

// ---------------------------------------------------------------------------
// Notification: the frame-local event a blocking Fetch/Prefetch parks its
// worker on until the I/O completion thread signals it
// ---------------------------------------------------------------------------

TEST(Notification, WaiterCannotReturnWhileTheNotifierIsStillInside) {
  // Forces the interleaving behind the staged-I/O stack corruption: the
  // flag is already set when the waiter checks it, but the notifier has
  // not finished waking it. The hook parks the notifier in exactly that
  // window for up to 200 ms and records whether the waiter got out
  // meanwhile. With a wake-after-unlock it always does — it sees the
  // flag without blocking, returns, and the late wake-up then writes
  // into its dead frame. With the wake under the lock it never can.
  Notification event;
  std::atomic<bool> in_window{false};
  std::atomic<bool> waiter_returned{false};
  bool returned_inside_window = true;
  std::thread notifier([&] {
    event.Notify([&] {
      in_window.store(true);
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
      while (!waiter_returned.load() &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      returned_inside_window = waiter_returned.load();
    });
  });
  while (!in_window.load()) std::this_thread::yield();
  event.Wait();
  waiter_returned.store(true);
  notifier.join();
  EXPECT_FALSE(returned_inside_window);
}

// ---------------------------------------------------------------------------
// Staged engine (IoStager + TaskGroup::Defer through QueryEngine)
// ---------------------------------------------------------------------------

TEST(StagedEngine, BitIdenticalBatchesAndYieldAccounting) {
  const TierFixture fix;
  const std::vector<Query> queries = TestQueries(fix.dataset, 91, 12);

  // Reference: inline engine over the built (simulated-tier) index.
  const GatSearcher fresh(fix.dataset, *fix.built);
  const QueryEngine reference(fresh, EngineOptions{.threads = 1});
  const BatchResult want = reference.Run(queries, 9, QueryKind::kAtsq);

  // Staged: executor engine over the async snapshot with a small cache,
  // every query staged through the IoStager before its search task.
  const auto snap = fix.Load(SnapshotIoMode::kAsync, /*capacity_bytes=*/
                             16 * 512);
  ASSERT_TRUE(snap);
  const GatSearcher async_mapped(fix.dataset, *snap);
  const IoStager stager(snap.index(), snap.mapped()->async_tier());
  Executor executor(4);
  const QueryEngine staged(
      async_mapped,
      EngineOptions{.executor = &executor, .stager = &stager});
  const BatchResult got = staged.Run(queries, 9, QueryKind::kAtsq);

  ASSERT_EQ(got.results.size(), want.results.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(got.results[i], want.results[i]) << "query " << i;
    EXPECT_EQ(got.statuses[i], QueryStatus::kOk);
  }
  EXPECT_EQ(got.totals.disk_reads, want.totals.disk_reads);
  // Every query went through Stage exactly once, and on a cold
  // thrash-sized cache at least one of them had to yield.
  const IoStager::Stats stats = stager.stats();
  EXPECT_EQ(stats.queries_inline + stats.queries_yielded, queries.size());
  EXPECT_GT(stats.queries_yielded, 0u);
  EXPECT_GT(stats.blocks_staged, 0u);
  EXPECT_TRUE(got.storage.present);

  // Re-running the batch is still bit-identical (warm cache, inline
  // resumes) and stages nothing new on the fully-warm path.
  const BatchResult again = staged.Run(queries, 9, QueryKind::kAtsq);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_EQ(again.results[i], want.results[i]) << "query " << i;
  }
}

TEST(StagedEngine, InlineEngineIgnoresStagerButReportsItsCache) {
  // threads == 1: no executor, so the stager must not stage (there is
  // no slot to yield) — but the batch still reports cache deltas from
  // the stager's cache.
  const TierFixture fix;
  const auto snap = fix.Load(SnapshotIoMode::kAsync);
  ASSERT_TRUE(snap);
  const GatSearcher async_mapped(fix.dataset, *snap);
  const IoStager stager(snap.index(), snap.mapped()->async_tier());
  const QueryEngine engine(
      async_mapped, EngineOptions{.threads = 1, .stager = &stager});
  const std::vector<Query> queries = TestQueries(fix.dataset, 5, 4);
  const BatchResult batch = engine.Run(queries, 9, QueryKind::kAtsq);
  EXPECT_EQ(stager.stats().queries_inline + stager.stats().queries_yielded,
            0u);
  EXPECT_TRUE(batch.storage.present);
  EXPECT_GT(batch.storage.hits + batch.storage.misses, 0u);
}

}  // namespace
}  // namespace gat
