#ifndef WIREBENCH_STATS_H_
#define WIREBENCH_STATS_H_

// Order statistics and the rate ladder: how a latency sample becomes the
// reported median and tail, and how the highest sustainable rate is found.

#include <cstddef>
#include <functional>
#include <vector>

namespace wirebench {

/// The tail the sample supports: the highest percentile, at most the
/// 99th, that leaves at least ten samples beyond it. With n samples the
/// reported value is the nearest-rank sample at position n - beyond,
/// where beyond = max(10, ceil(n / 100)); below 20 samples there is no
/// tail and the median stands in.
struct TailRank {
  size_t rank;        ///< 1-based position in the sorted sample
  size_t beyond;      ///< samples strictly after that position
  double percentile;  ///< 100 * rank / n
};
TailRank TailFor(size_t n);

struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_percentile = 0.0;
};
/// Nearest-rank median plus the `TailFor` tail. Empty input gives zeros.
Summary Summarize(std::vector<double> values);

/// One open-loop observation: when the request was due (seconds from the
/// phase start) and its latency measured from that moment.
struct LatencyPoint {
  double due_s;
  double latency_ms;
};

/// True when the latency series climbs over the phase — the queue is
/// growing, so the offered rate exceeds what is served. The robust
/// (Theil-Sen) slope of latency against due time, times the phase length,
/// must stay under half the latency limit; a single stall does not count.
/// Needs at least 20 points in due order (fewer: false).
bool BacklogGrows(const std::vector<LatencyPoint>& series, double limit_ms);

/// The fixed geometric rate ladder: rung r offers nominal * kRatio^r.
/// Steps of 5% are finer than the bound fixed on `slo_qps`; the top rung
/// offers 6.7x the nominal rate.
struct Ladder {
  static constexpr double kRatio = 1.05;
  static constexpr int kRungs = 40;
  static double Rate(double nominal, int rung);
};

/// Highest rung in [0, Ladder::kRungs) for which `passes` holds, found by
/// bisection (the pass/fail boundary is assumed monotone in the rate).
/// Rung 0 is decided by `rung0_passes` (the nominal phase); when it
/// fails the result is -1 and no probe runs.
int HighestPassingRung(bool rung0_passes,
                       const std::function<bool(int)>& passes);

}  // namespace wirebench

#endif  // WIREBENCH_STATS_H_
