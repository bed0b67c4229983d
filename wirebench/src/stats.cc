#include "stats.h"

#include <algorithm>
#include <cmath>

namespace wirebench {

TailRank TailFor(size_t n) {
  if (n < 20) {
    const size_t rank = n == 0 ? 0 : (n + 1) / 2;
    return {rank, n - rank, n == 0 ? 0.0 : 100.0 * rank / n};
  }
  const size_t beyond = std::max<size_t>(10, (n + 99) / 100);
  const size_t rank = n - beyond;
  return {rank, beyond, 100.0 * static_cast<double>(rank) / n};
}

Summary Summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = values[(s.n + 1) / 2 - 1];
  const TailRank tail = TailFor(s.n);
  s.tail = values[tail.rank - 1];
  s.tail_percentile = tail.percentile;
  return s;
}

bool BacklogGrows(const std::vector<LatencyPoint>& series, double limit_ms) {
  if (series.size() < 20) return false;
  // Theil-Sen: the median of the pairwise slopes over (at most) 200 evenly
  // spaced points. A growing queue lifts every later point; one stall,
  // such as a merge near the end of the phase, moves too few pairs to
  // shift the median.
  const size_t step = (series.size() + 199) / 200;
  std::vector<LatencyPoint> points;
  for (size_t i = 0; i < series.size(); i += step) points.push_back(series[i]);
  std::vector<double> slopes;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      const double dt = points[j].due_s - points[i].due_s;
      if (dt > 0.0) {
        slopes.push_back((points[j].latency_ms - points[i].latency_ms) / dt);
      }
    }
  }
  if (slopes.empty()) return false;
  std::nth_element(slopes.begin(), slopes.begin() + slopes.size() / 2,
                   slopes.end());
  const double slope_ms_per_s = slopes[slopes.size() / 2];
  const double span_s = points.back().due_s - points.front().due_s;
  return slope_ms_per_s * span_s > 0.5 * limit_ms;
}

double Ladder::Rate(double nominal, int rung) {
  return nominal * std::pow(kRatio, rung);
}

int HighestPassingRung(bool rung0_passes,
                       const std::function<bool(int)>& passes) {
  if (!rung0_passes) return -1;
  int lo = 0;                 // highest rung known to pass
  int hi = Ladder::kRungs;    // lowest rung known (or assumed) to fail
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace wirebench
