// Micro timings of the hot kernels: Dmpm (Algorithm 3), the Dmom DP
// (Algorithm 4), grid/Z-order operations, TAS membership, R-tree
// incremental NN, the CRC-32 block/frame verify, and one whole ATSQ
// query — now on the repo's own JSON harness protocol
// (BENCH_micro_kernels.json) instead of the optional
// google-benchmark dependency, so the records diff in CI like every
// other bench. Timings are wall-clock and therefore advisory
// (--skip-timing in diffs); what the baseline pins is the record set
// itself — a kernel disappearing from the list is a build regression.

#include <cstdint>
#include <utility>
#include <vector>

#include "harness.h"

#include "gat/core/match.h"
#include "gat/core/order_match.h"
#include "gat/core/point_match.h"
#include "gat/geo/zorder.h"
#include "gat/index/snapshot_format.h"
#include "gat/rtree/rtree.h"
#include "gat/util/rng.h"

namespace gat::bench {
namespace {

// Keeps `value` observable so the optimizer cannot delete the kernel
// under test (the usual empty-asm idiom; no library needed).
template <typename T>
inline void DoNotOptimize(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

struct KernelTiming {
  double ns_per_op = 0.0;
  double rsd_pct = 0.0;
  uint32_t repeats = 0;
};

/// The harness measurement protocol applied to a raw kernel: `warmup`
/// un-timed sweeps of `iters` calls, then timed sweeps until the
/// relative standard deviation reaches the target (or max_repeat).
template <typename Fn>
KernelTiming TimeKernel(const BenchProtocol& proto, size_t iters, Fn&& fn) {
  KernelTiming timing;
  for (uint32_t w = 0; w < proto.warmup; ++w) {
    for (size_t i = 0; i < iters; ++i) fn();
  }
  std::vector<double> ns_per_op;
  for (uint32_t r = 0; r < proto.max_repeat; ++r) {
    Stopwatch timer;
    for (size_t i = 0; i < iters; ++i) fn();
    ns_per_op.push_back(timer.ElapsedMicros() * 1e3 /
                        static_cast<double>(iters));
    if (ns_per_op.size() >= 2) {
      double sum = 0.0;
      for (double v : ns_per_op) sum += v;
      const double mean = sum / static_cast<double>(ns_per_op.size());
      double var = 0.0;
      for (double v : ns_per_op) var += (v - mean) * (v - mean);
      var /= static_cast<double>(ns_per_op.size());
      timing.rsd_pct = mean > 0.0 ? 100.0 * std::sqrt(var) / mean : 0.0;
      if (timing.rsd_pct <= proto.target_rsd_pct) break;
    }
  }
  double sum = 0.0;
  for (double v : ns_per_op) sum += v;
  timing.ns_per_op = sum / static_cast<double>(ns_per_op.size());
  timing.repeats = static_cast<uint32_t>(ns_per_op.size());
  return timing;
}

template <typename Fn>
void Report(const BenchProtocol& proto, BenchReport& report,
            const std::string& name, size_t iters, Fn&& fn) {
  const KernelTiming t = TimeKernel(proto, iters, std::forward<Fn>(fn));
  report.AddRaw(name, t.ns_per_op, t.rsd_pct, t.repeats, iters);
  std::printf("%-32s %12.1f ns/op  (rsd %.1f%%, %u repeats)\n", name.c_str(),
              t.ns_per_op, t.rsd_pct, t.repeats);
}

std::vector<MatchPoint> RandomCandidates(Rng& rng, int bits, int n) {
  std::vector<MatchPoint> cp;
  for (int i = 0; i < n; ++i) {
    ActivityMask mask = 0;
    for (int b = 0; b < bits; ++b) {
      if (rng.NextBool(0.3)) mask |= ActivityMask{1} << b;
    }
    if (mask == 0) mask = ActivityMask{1} << rng.NextU32(bits);
    cp.push_back(MatchPoint{rng.NextDouble(0, 100), mask,
                            static_cast<PointIndex>(i)});
  }
  return cp;
}

void Main(const BenchProtocol& proto, BenchReport& report) {
  PrintRunBanner("Micro kernels",
                 "hot-kernel timings on the JSON harness protocol", proto);

  // ------------------------------------------ Dmpm (Algorithm 3 vs. brute)
  for (const auto& [bits, n] : {std::pair<int, int>{3, 16},
                                {3, 64},
                                {5, 64},
                                {8, 256}}) {
    Rng rng(1);
    const auto cp = RandomCandidates(rng, bits, n);
    Report(proto, report,
           "dmpm_alg3/bits=" + std::to_string(bits) +
               ",n=" + std::to_string(n),
           2000, [&cp, bits = bits] {
             DoNotOptimize(MinPointMatchDistance(cp, bits).distance);
           });
  }
  for (const auto& [bits, n] :
       {std::pair<int, int>{3, 64}, {5, 64}, {8, 256}}) {
    Rng rng(1);
    const auto cp = RandomCandidates(rng, bits, n);
    Report(proto, report,
           "dmpm_exhaustive/bits=" + std::to_string(bits) +
               ",n=" + std::to_string(n),
           200, [&cp, bits = bits] {
             DoNotOptimize(ExhaustiveMinPointMatch(cp, bits, nullptr));
           });
  }

  // --------------------------------------------------- Dmom (Algorithm 4)
  for (const size_t traj_len : {size_t{16}, size_t{64}, size_t{256}}) {
    Rng rng(2);
    std::vector<TrajectoryPoint> points;
    for (size_t i = 0; i < traj_len; ++i) {
      TrajectoryPoint p;
      p.location = Point{rng.NextDouble(0, 10), rng.NextDouble(0, 10)};
      const uint32_t count = 1 + rng.NextU32(3);
      for (uint32_t c = 0; c < count; ++c) {
        p.activities.push_back(rng.NextU32(12));
      }
      points.push_back(std::move(p));
    }
    Trajectory tr(std::move(points));
    tr.NormalizeActivities();
    std::vector<QueryPoint> qp;
    for (int i = 0; i < 4; ++i) {
      qp.push_back(
          QueryPoint{Point{rng.NextDouble(0, 10), rng.NextDouble(0, 10)},
                     {rng.NextU32(12), rng.NextU32(12), rng.NextU32(12)}});
    }
    const Query query(std::move(qp));
    Report(proto, report, "dmom_dp/len=" + std::to_string(traj_len), 500,
           [&tr, &query] {
             DoNotOptimize(MinOrderSensitiveMatchDistance(tr, query));
           });
  }

  // --------------------------------------------------- grid and Z-order
  {
    Rng rng(3);
    uint32_t col = rng.NextU32(1 << 16);
    uint32_t row = rng.NextU32(1 << 16);
    Report(proto, report, "zorder_encode", 200000, [&col, &row] {
      DoNotOptimize(zorder::Encode(col, row));
      col = (col + 7) & 0xFFFF;
      row = (row + 13) & 0xFFFF;
    });
  }
  {
    GridGeometry grid(Rect{Point{0, 0}, Point{60, 50}}, 8);
    Rng rng(4);
    Point p{rng.NextDouble(0, 60), rng.NextDouble(0, 50)};
    Report(proto, report, "grid_leaf_code", 200000, [&grid, &p] {
      DoNotOptimize(grid.LeafCode(p));
      p.x = p.x >= 60 ? 0.0 : p.x + 0.37;
    });
  }

  // ------------------------------------------------------ TAS membership
  {
    const Dataset dataset = GenerateCity(CityProfile::Testing(500, 11));
    std::vector<std::vector<ActivityId>> sets;
    for (const auto& tr : dataset.trajectories()) {
      sets.push_back(tr.ActivityUnion());
    }
    const Tas tas(sets, 2);
    const std::vector<ActivityId> probe = {1, 5, 17};
    TrajectoryId t = 0;
    Report(proto, report, "tas_might_contain_all", 100000,
           [&tas, &probe, &t, &dataset] {
             DoNotOptimize(tas.MightContainAll(t, probe));
             t = (t + 1) % dataset.size();
           });
  }

  // ------------------------------------------------- R-tree NN streaming
  {
    Rng rng(5);
    std::vector<RTreeEntry> entries;
    for (uint32_t i = 0; i < 20000; ++i) {
      entries.push_back(RTreeEntry{
          Point{rng.NextDouble(0, 100), rng.NextDouble(0, 100)}, i, 0});
    }
    const RTree tree = RTree::BulkLoad(std::move(entries), 32);
    Report(proto, report, "rtree_nearest_stream_100", 200, [&tree] {
      RTree::NearestIterator it(tree, Point{50, 50});
      RTreeEntry e;
      double d = 0.0;
      for (int i = 0; i < 100; ++i) it.Next(&e, &d);
      DoNotOptimize(d);
    });
  }

  // --------------------------------------------------------- CRC-32 verify
  // One 4 KiB cache block (the verify behind every disk-tier cache fill)
  // and a GATW-frame-sized payload.
  for (const size_t bytes : {size_t{4096}, size_t{256}}) {
    Rng rng(6);
    std::vector<char> block(bytes);
    for (char& b : block) b = static_cast<char>(rng.NextU32(256));
    Report(proto, report, "crc32/bytes=" + std::to_string(bytes),
           bytes == 4096 ? 20000 : 200000, [&block] {
             DoNotOptimize(snapshot_format::Crc32(block.data(), block.size()));
           });
  }

  // ------------------------------------------------------ whole ATSQ query
  {
    const Dataset dataset = GenerateCity(CityProfile::Testing(1000, 12));
    const GatIndex index(dataset);
    const GatSearcher searcher(dataset, index);
    QueryWorkloadParams wp;
    wp.num_queries = 1;
    wp.seed = 13;
    QueryGenerator qgen(dataset, wp);
    const Query q = qgen.Next();
    Report(proto, report, "gat_atsq_query", 50,
           [&searcher, &q] { DoNotOptimize(searcher.Atsq(q, 9)); });
  }
}

}  // namespace
}  // namespace gat::bench

int main(int argc, char** argv) {
  return gat::bench::BenchMain(argc, argv, "micro_kernels", gat::bench::Main);
}
