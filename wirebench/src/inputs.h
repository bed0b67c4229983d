#ifndef WIREBENCH_INPUTS_H_
#define WIREBENCH_INPUTS_H_

// Everything the program under test receives. The city and the query pool
// are fixed; the run seed generates the traffic over them: the open-loop
// arrival schedules (when each request is due and which pool query it
// carries) and the check-in stream. Each seeded input draws from its own
// stream of the seed, so changing the length of one never shifts another.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "gat/core/result_set.h"
#include "gat/datagen/city_profile.h"
#include "gat/live/checkin.h"
#include "gat/model/dataset.h"
#include "gat/model/query.h"

namespace wirebench {

/// One traffic mix. The numbers are the ones the benchmark doc records
/// and explains; they are fixed here, never taken from the command line.
struct WorkloadSpec {
  const char* name;
  gat::QueryKind kind;
  /// Serve the shards from mmap-ed snapshots through one shared block
  /// cache of `cache_bytes` (otherwise the in-memory tier).
  bool disk_tier;
  uint64_t cache_bytes;
  /// A fourth connection streams check-ins and a merge thread compacts
  /// the delta on a fixed interval.
  bool ingest;
  /// Open-loop read rate of the nominal phase, requests per second: about
  /// a quarter of the workload's capacity, low enough that the latency is
  /// the service time plus a little queueing, not a queue that swells
  /// with every slowdown of the host.
  double nominal_rate;
  /// Limit on the tail percentile that defines `slo_qps`.
  double latency_limit_ms;
  uint32_t read_connections;
};

const std::vector<WorkloadSpec>& Workloads();
/// nullptr when no workload has that name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// Input streams of one seed.
enum class Stream : uint64_t {
  kCheckIns = 3,
  /// Arrival times: kArrivals + phase number.
  kArrivals = 100,
  /// Which pool queries the arrivals carry: kPicks + phase number.
  kPicks = 1000,
};

/// splitmix64 of (seed, stream): independent, well-mixed sub-seeds.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);
inline uint64_t DeriveSeed(uint64_t seed, Stream stream) {
  return DeriveSeed(seed, static_cast<uint64_t>(stream));
}

/// The paper's Los Angeles profile (Table IV) at `scale` (1.0 = 31,557
/// trajectories) with the profile's own generator seed. The city is the
/// same for every run seed: between generated cities the mean query cost
/// differs by up to a third, which would swamp what a seed is for (other
/// traffic over the same data).
gat::CityProfile City(double scale = 1.0);

/// Table V queries (4 points, 3 activities per point, 10 km diameter)
/// drawn from `dataset` with a fixed generator seed. The pool is the same
/// for every run seed: a seeded pool adds its own composition to the
/// spread between seeds, which then differ only in the order the pool is
/// sent in (so which of its queries a phase reaches) and when.
std::vector<gat::Query> MakeQueryPool(const gat::Dataset& dataset,
                                      uint32_t size);

/// One open-loop request: when it is due, relative to the phase start,
/// and which pool query it carries.
struct Arrival {
  int64_t due_ns;
  uint32_t pool_index;
};

/// Pool indices ordered by ascending `work` (ties by index): the ranking
/// `MakeArrivals` stratifies on.
std::vector<uint32_t> RankByWork(const std::vector<uint64_t>& work);

/// Poisson arrivals at `rate` per second over `seconds`, carrying queries
/// of the pool ranked by work in `by_work`. A phase of n arrivals over a
/// pool of P queries carries every query n / P times, and the remaining
/// n % P arrivals one query from each of that many equal strata of the
/// ranking. The carried queries are interleaved by work rank with a
/// golden-ratio sequence from a seeded offset, so the dear ones are spread
/// evenly through the phase. So every phase carries the same mix of cheap
/// and dear queries, at the same pace: in a few hundred requests drawn and
/// ordered at random, the share and the clumping of the pool's heaviest
/// queries moved the offered load, and with it the tail, by more than the
/// ladder step. The times and the picks are separate streams of
/// (seed, phase).
std::vector<Arrival> MakeArrivals(uint64_t seed, uint64_t phase, double rate,
                                  double seconds,
                                  const std::vector<uint32_t>& by_work);

/// `batches` check-in batches of `batch_size`, users drawn from a pool of
/// `users`, each check-in copied from a random point of a random base
/// trajectory, so every batch passes the live index's frame validation.
std::vector<std::vector<gat::CheckIn>> MakeCheckInStream(
    const gat::Dataset& dataset, uint64_t seed, size_t batches,
    size_t batch_size, uint64_t users);

/// Byte images of the generated inputs, for the determinism tests.
std::string Bytes(const std::vector<gat::Query>& queries);
std::string Bytes(const std::vector<Arrival>& arrivals);
std::string Bytes(const std::vector<std::vector<gat::CheckIn>>& stream);

}  // namespace wirebench

#endif  // WIREBENCH_INPUTS_H_
