#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "gat/datagen/query_generator.h"
#include "gat/util/rng.h"

namespace wirebench {

namespace {

template <typename T>
void Put(std::string& out, const T& value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

void PutPoint(std::string& out, const gat::Point& p,
              const std::vector<gat::ActivityId>& activities) {
  Put(out, p.x);
  Put(out, p.y);
  Put(out, static_cast<uint64_t>(activities.size()));
  for (const gat::ActivityId a : activities) Put(out, a);
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"atsq_mem", gat::QueryKind::kAtsq, /*disk_tier=*/false,
       /*cache_bytes=*/0, /*ingest=*/false, /*nominal_rate=*/100.0,
       /*latency_limit_ms=*/150.0, /*read_connections=*/4},
      {"oatsq_disk", gat::QueryKind::kOatsq, true, 8ull << 20, false, 12.5,
       1000.0, 4},
      {"ingest_mix", gat::QueryKind::kAtsq, false, 0, true, 100.0, 1000.0,
       3},
  };
  return kWorkloads;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

gat::CityProfile City(double scale) {
  return gat::CityProfile::LosAngeles(scale);
}

std::vector<gat::Query> MakeQueryPool(const gat::Dataset& dataset,
                                      uint32_t size) {
  gat::QueryWorkloadParams params;  // Table V defaults
  params.num_queries = size;
  params.seed = 20130131;  // the query seed of the repository's benches
  gat::QueryGenerator generator(dataset, params);
  return generator.Workload();
}

std::vector<uint32_t> RankByWork(const std::vector<uint64_t>& work) {
  std::vector<uint32_t> ranked(work.size());
  std::iota(ranked.begin(), ranked.end(), 0u);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](uint32_t a, uint32_t b) { return work[a] < work[b]; });
  return ranked;
}

std::vector<Arrival> MakeArrivals(uint64_t seed, uint64_t phase, double rate,
                                  double seconds,
                                  const std::vector<uint32_t>& by_work) {
  gat::Rng times(DeriveSeed(seed, static_cast<uint64_t>(Stream::kArrivals) +
                                      phase));
  std::vector<Arrival> arrivals;
  double t = 0.0;
  for (;;) {
    // Exponential gap; 1 - u keeps the log argument in (0, 1].
    t += -std::log(1.0 - times.NextDouble()) / rate;
    if (t >= seconds) break;
    arrivals.push_back({static_cast<int64_t>(t * 1e9), 0});
  }

  gat::Rng picks(DeriveSeed(seed, static_cast<uint64_t>(Stream::kPicks) +
                                      phase));
  const size_t n = arrivals.size();
  const size_t pool = by_work.size();
  std::vector<uint32_t> carried;
  carried.reserve(n);
  for (size_t pass = 0; pass < n / pool; ++pass) {
    carried.insert(carried.end(), by_work.begin(), by_work.end());
  }
  const size_t rest = n % pool;
  for (size_t s = 0; s < rest; ++s) {
    const size_t lo = s * pool / rest;
    const size_t hi = (s + 1) * pool / rest;
    carried.push_back(
        by_work[lo + picks.NextU32(static_cast<uint32_t>(hi - lo))]);
  }
  // `carried` runs up the ranking once per pass, then through the strata
  // picks, so neighbouring entries have neighbouring ranks. The k-th entry
  // is sent at the place of frac(offset + k * golden ratio) among all n
  // keys, which spreads any run of neighbouring entries, the dearest ones
  // of each pass included, evenly over the phase instead of clumping them
  // where a draw put them.
  const double offset = picks.NextDouble();
  std::vector<std::pair<double, uint32_t>> keyed(n);
  for (size_t k = 0; k < n; ++k) {
    const double key = offset + 0.6180339887498949 * static_cast<double>(k);
    keyed[k] = {key - std::floor(key), carried[k]};
  }
  std::sort(keyed.begin(), keyed.end());
  for (size_t i = 0; i < n; ++i) arrivals[i].pool_index = keyed[i].second;
  return arrivals;
}

std::vector<std::vector<gat::CheckIn>> MakeCheckInStream(
    const gat::Dataset& dataset, uint64_t seed, size_t batches,
    size_t batch_size, uint64_t users) {
  gat::Rng rng(DeriveSeed(seed, Stream::kCheckIns));
  const auto num_trajectories = static_cast<uint32_t>(dataset.size());
  std::vector<std::vector<gat::CheckIn>> stream(batches);
  for (std::vector<gat::CheckIn>& batch : stream) {
    while (batch.size() < batch_size) {
      const gat::Trajectory& t =
          dataset.trajectories()[rng.NextU32(num_trajectories)];
      if (t.empty()) continue;
      const gat::TrajectoryPoint& p =
          t.points()[rng.NextU32(static_cast<uint32_t>(t.size()))];
      batch.push_back({rng.NextU64(users), p.location, p.activities});
    }
  }
  return stream;
}

std::string Bytes(const std::vector<gat::Query>& queries) {
  std::string out;
  for (const gat::Query& q : queries) {
    Put(out, static_cast<uint64_t>(q.size()));
    for (const gat::QueryPoint& p : q.points()) {
      PutPoint(out, p.location, p.activities);
    }
  }
  return out;
}

std::string Bytes(const std::vector<Arrival>& arrivals) {
  std::string out;
  for (const Arrival& a : arrivals) {
    Put(out, a.due_ns);
    Put(out, a.pool_index);
  }
  return out;
}

std::string Bytes(const std::vector<std::vector<gat::CheckIn>>& stream) {
  std::string out;
  for (const auto& batch : stream) {
    Put(out, static_cast<uint64_t>(batch.size()));
    for (const gat::CheckIn& c : batch) {
      Put(out, c.user);
      PutPoint(out, c.location, c.activities);
    }
  }
  return out;
}

}  // namespace wirebench
