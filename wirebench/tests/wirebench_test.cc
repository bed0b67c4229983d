// Tests of the benchmark's own machinery: the tail-percentile rule, the
// seeded inputs, ladder backlog detection and bisection, span self
// times, and the Searcher decorator of the traced run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "gat/datagen/checkin_generator.h"
#include "gat/index/gat_index.h"
#include "gat/search/gat_search.h"
#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace wirebench {
namespace {

TEST(TailRule, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(TailFor(1000).rank, 990u);
  EXPECT_EQ(TailFor(1000).beyond, 10u);
  EXPECT_DOUBLE_EQ(TailFor(1000).percentile, 99.0);
  // Above 1000 samples the tail stays the 99th percentile.
  EXPECT_EQ(TailFor(2000).beyond, 20u);
  EXPECT_DOUBLE_EQ(TailFor(2000).percentile, 99.0);
  EXPECT_EQ(TailFor(2050).beyond, 21u);
  // Below 1000 the percentile drops so that ten samples stay beyond.
  EXPECT_EQ(TailFor(500).beyond, 10u);
  EXPECT_DOUBLE_EQ(TailFor(500).percentile, 98.0);
  EXPECT_EQ(TailFor(225).rank, 215u);
  for (size_t n = 20; n < 3000; ++n) {
    const TailRank t = TailFor(n);
    ASSERT_GE(t.beyond, 10u) << n;
    ASSERT_EQ(t.rank + t.beyond, n) << n;
    ASSERT_LE(t.percentile, 99.0) << n;
  }
  // Too few samples for a tail: the median stands in.
  EXPECT_EQ(TailFor(19).rank, 10u);
  EXPECT_EQ(TailFor(0).rank, 0u);
}

TEST(TailRule, SummarizePicksNearestRank) {
  std::vector<double> values;
  for (int i = 1000; i >= 1; --i) values.push_back(i);
  const Summary s = Summarize(values);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.0);
  EXPECT_DOUBLE_EQ(s.tail, 990.0);
  EXPECT_DOUBLE_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(Summarize({}).n, 0u);
}

std::vector<uint32_t> Identity(uint32_t n) {
  return RankByWork(std::vector<uint64_t>(n, 0));
}

// The stratum of `rank` when `pool` ranks are cut into `strata` runs
// [s * pool / strata, (s + 1) * pool / strata).
size_t StratumOf(size_t rank, size_t strata, size_t pool) {
  size_t s = 0;
  while (rank >= (s + 1) * pool / strata) ++s;
  return s;
}

class SeededInputs : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    city_a_ = new gat::Dataset(gat::GenerateCity(City(0.01)));
  }
  static void TearDownTestSuite() { delete city_a_; }
  static gat::Dataset* city_a_;
};
gat::Dataset* SeededInputs::city_a_ = nullptr;

TEST_F(SeededInputs, SameSeedSameBytes) {
  const gat::Dataset again = gat::GenerateCity(City(0.01));
  ASSERT_EQ(again.size(), city_a_->size());
  EXPECT_EQ(Bytes(MakeQueryPool(again, 32)),
            Bytes(MakeQueryPool(*city_a_, 32)));
  EXPECT_EQ(Bytes(MakeArrivals(1, 3, 200.0, 2.0, Identity(32))),
            Bytes(MakeArrivals(1, 3, 200.0, 2.0, Identity(32))));
  EXPECT_EQ(Bytes(MakeCheckInStream(again, 1, 20, 8, 500)),
            Bytes(MakeCheckInStream(*city_a_, 1, 20, 8, 500)));
}

TEST_F(SeededInputs, OtherSeedOtherBytes) {
  // The pool is fixed; what differs is when each request is due and which
  // pool query it carries.
  EXPECT_NE(Bytes(MakeArrivals(1, 3, 200.0, 2.0, Identity(32))),
            Bytes(MakeArrivals(2, 3, 200.0, 2.0, Identity(32))));
  EXPECT_NE(Bytes(MakeCheckInStream(*city_a_, 1, 20, 8, 500)),
            Bytes(MakeCheckInStream(*city_a_, 2, 20, 8, 500)));
  // Phases of one seed are independent streams too.
  EXPECT_NE(Bytes(MakeArrivals(1, 3, 200.0, 2.0, Identity(32))),
            Bytes(MakeArrivals(1, 4, 200.0, 2.0, Identity(32))));
}

TEST_F(SeededInputs, ArrivalsCarryThePoolEvenly) {
  // 64 queries, ranked by work in reverse index order.
  std::vector<uint64_t> work(64);
  for (uint32_t i = 0; i < 64; ++i) work[i] = 1000 - i;
  const std::vector<uint32_t> by_work = RankByWork(work);
  ASSERT_EQ(by_work.front(), 63u);
  ASSERT_EQ(by_work.back(), 0u);

  const std::vector<Arrival> a = MakeArrivals(5, 1, 200.0, 10.0, by_work);
  const size_t passes = a.size() / 64;
  const size_t rest = a.size() % 64;
  ASSERT_GE(passes, 1u);
  ASSERT_GT(rest, 0u);
  std::vector<size_t> sent(64, 0);
  for (const Arrival& x : a) ++sent[x.pool_index];
  // Every query in every full pass; the rest, one from each stratum.
  std::vector<size_t> per_stratum(rest, 0);
  for (size_t r = 0; r < 64; ++r) {
    const uint32_t q = by_work[r];
    ASSERT_GE(sent[q], passes);
    ASSERT_LE(sent[q], passes + 1);
    if (sent[q] == passes + 1) ++per_stratum[StratumOf(r, rest, 64)];
  }
  for (const size_t n : per_stratum) EXPECT_EQ(n, 1u);

  // A phase shorter than the pool: one query from each stratum.
  const std::vector<Arrival> b = MakeArrivals(5, 2, 200.0, 0.1, by_work);
  ASSERT_GT(b.size(), 0u);
  ASSERT_LT(b.size(), 64u);
  std::vector<size_t> strata(b.size(), 0);
  for (const Arrival& x : b) {
    const auto rank = static_cast<size_t>(
        std::find(by_work.begin(), by_work.end(), x.pool_index) -
        by_work.begin());
    ++strata[StratumOf(rank, b.size(), 64)];
  }
  for (const size_t n : strata) EXPECT_EQ(n, 1u);

  // The dearest tenth of a phase is spread over it, not clumped: each
  // quarter of the phase carries about a quarter of them.
  std::vector<size_t> rank_of(64);
  for (size_t r = 0; r < 64; ++r) rank_of[by_work[r]] = r;
  std::vector<size_t> ranks;
  for (const Arrival& x : a) ranks.push_back(rank_of[x.pool_index]);
  std::vector<size_t> sorted_ranks = ranks;
  std::sort(sorted_ranks.begin(), sorted_ranks.end());
  const size_t dear_from = sorted_ranks[sorted_ranks.size() * 9 / 10];
  std::vector<size_t> dear_per_quarter(4, 0);
  size_t dear = 0;
  for (size_t i = 0; i < ranks.size(); ++i) {
    if (ranks[i] >= dear_from) {
      ++dear_per_quarter[i * 4 / ranks.size()];
      ++dear;
    }
  }
  for (const size_t q : dear_per_quarter) {
    EXPECT_NEAR(static_cast<double>(q), dear / 4.0, dear / 16.0 + 1.0);
  }
}

TEST_F(SeededInputs, ArrivalsArePoissonAtTheRate) {
  const std::vector<Arrival> a = MakeArrivals(7, 1, 200.0, 20.0, Identity(64));
  // 4000 expected; a Poisson count is within 5 sigma (~316) of it.
  EXPECT_NEAR(static_cast<double>(a.size()), 4000.0, 316.0);
  for (size_t i = 1; i < a.size(); ++i) {
    ASSERT_LE(a[i - 1].due_ns, a[i].due_ns);
    ASSERT_LT(a[i].pool_index, 64u);
  }
}

TEST_F(SeededInputs, CheckInsStayInsideTheBaseFrame) {
  for (const auto& batch : MakeCheckInStream(*city_a_, 3, 50, 8, 500)) {
    ASSERT_EQ(batch.size(), 8u);
    for (const gat::CheckIn& c : batch) {
      ASSERT_LT(c.user, 500u);
      ASSERT_TRUE(city_a_->bounding_box().Contains(c.location));
      for (const gat::ActivityId a : c.activities) {
        ASSERT_LT(a, city_a_->activity_frame_limit());
      }
    }
  }
}

std::vector<LatencyPoint> Series(double (*latency)(double)) {
  std::vector<LatencyPoint> s;
  for (int i = 0; i < 600; ++i) {
    const double t = i * (3.0 / 600);
    s.push_back({t, latency(t)});
  }
  return s;
}

TEST(Backlog, FlatSeriesDoesNotGrow) {
  // Noisy but stationary around 8 ms, with a limit of 50 ms.
  EXPECT_FALSE(BacklogGrows(Series([](double t) {
                              return 8.0 + 6.0 * std::sin(t * 97.0);
                            }),
                            50.0));
}

TEST(Backlog, RampGrows) {
  // Offered 20% above capacity: the queue, and the latency, climb.
  EXPECT_TRUE(
      BacklogGrows(Series([](double t) { return 8.0 + 100.0 * t; }), 50.0));
}

TEST(Backlog, ASingleSpikeIsNotABacklog) {
  EXPECT_FALSE(BacklogGrows(Series([](double t) {
                              return (t > 1.4 && t < 1.6) ? 300.0 : 8.0;
                            }),
                            50.0));
}

TEST(Backlog, AStallAtTheEndIsNotABacklog) {
  // A merge holding every worker for 0.4 s just before the phase ends.
  EXPECT_FALSE(BacklogGrows(Series([](double t) {
                              return t > 2.6 ? 400.0 * (t - 2.6) / 0.4 + 8.0
                                             : 8.0;
                            }),
                            1000.0));
}

TEST(Backlog, TooFewPointsNeverGrow) {
  std::vector<LatencyPoint> s = {{0.0, 1.0}, {1.0, 1000.0}};
  EXPECT_FALSE(BacklogGrows(s, 50.0));
}

TEST(LadderSearch, BisectsToTheHighestPassingRung) {
  EXPECT_DOUBLE_EQ(Ladder::Rate(200.0, 0), 200.0);
  EXPECT_NEAR(Ladder::Rate(200.0, 1) / Ladder::Rate(200.0, 0), 1.05, 1e-12);
  for (int capacity = 0; capacity < Ladder::kRungs; ++capacity) {
    int probes = 0;
    const int best = HighestPassingRung(true, [&](int rung) {
      ++probes;
      EXPECT_GT(rung, 0);
      return rung <= capacity;
    });
    EXPECT_EQ(best, capacity);
    EXPECT_LE(probes, 6);
  }
  int probes = 0;
  EXPECT_EQ(HighestPassingRung(false, [&](int) { return ++probes > 0; }), -1);
  EXPECT_EQ(probes, 0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      {"root", 1, 0, 100, -1},  {"a", 1, 10, 30, 0}, {"b", 1, 20, 50, 0},
      {"c", 1, 90, 120, 0},     {"d", 1, 40, 45, 2},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);  // [10,50) and [90,100) covered
  EXPECT_EQ(self[2], 30 - 5);
  EXPECT_EQ(self[1], 20);
}

void ExpectSameStats(const gat::SearchStats& a, const gat::SearchStats& b) {
  EXPECT_EQ(a.candidates_retrieved, b.candidates_retrieved);
  EXPECT_EQ(a.tas_pruned, b.tas_pruned);
  EXPECT_EQ(a.activity_rejected, b.activity_rejected);
  EXPECT_EQ(a.mib_rejected, b.mib_rejected);
  EXPECT_EQ(a.distance_computations, b.distance_computations);
  EXPECT_EQ(a.nodes_popped, b.nodes_popped);
  EXPECT_EQ(a.heap_pushes, b.heap_pushes);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.disk_reads, b.disk_reads);
  EXPECT_EQ(a.block_hits, b.block_hits);
  EXPECT_EQ(a.blocks_read, b.blocks_read);
  EXPECT_EQ(a.index_pins, b.index_pins);
  EXPECT_EQ(a.deadline_skips, b.deadline_skips);
  EXPECT_EQ(a.critical_disk_reads, b.critical_disk_reads);
}

TEST_F(SeededInputs, DecoratorForwardsResultsAndStatsUnchanged) {
  const gat::GatIndex index(*city_a_);
  const gat::GatSearcher inner(*city_a_, index);
  TimedSearcher timed(inner);
  const std::vector<gat::Query> pool = MakeQueryPool(*city_a_, 16);
  EXPECT_EQ(timed.name(), inner.name());
  for (const bool enabled : {false, true}) {
    timed.set_enabled(enabled);
    for (const gat::QueryKind kind :
         {gat::QueryKind::kAtsq, gat::QueryKind::kOatsq}) {
      for (const gat::Query& q : pool) {
        gat::SearchStats direct, decorated;
        EXPECT_EQ(timed.Search(q, 10, kind, &decorated),
                  inner.Search(q, 10, kind, &direct));
        ExpectSameStats(decorated, direct);
      }
    }
  }
  const std::vector<TimedSearcher::Record> records = timed.Take();
  ASSERT_EQ(records.size(), 2 * pool.size());  // only while enabled
  EXPECT_EQ(records[0].fingerprint, Fingerprint(pool[0]));
  EXPECT_LE(records[0].start_ns, records[0].end_ns);
  EXPECT_TRUE(timed.Take().empty());
}

}  // namespace
}  // namespace wirebench
