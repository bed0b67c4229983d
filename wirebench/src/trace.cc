#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace wirebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t SpanLog::Add(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int32_t>(spans_.size() - 1);
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimes(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"seq\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                 "\"self_ns\": %lld}\n",
                 i, s.name, static_cast<unsigned long long>(s.seq),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& parent = spans[i];
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (const int32_t c : children[i]) {
      const int64_t lo = std::max(spans[c].start_ns, parent.start_ns);
      const int64_t hi = std::min(spans[c].end_ns, parent.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = parent.start_ns;
    for (const auto& [lo, hi] : cover) {
      const int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = parent.duration() - covered;
  }
  return self;
}

uint64_t Fingerprint(const gat::Query& query) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a over the raw fields
  auto mix = [&h](const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ULL;
    }
  };
  for (const gat::QueryPoint& p : query.points()) {
    mix(&p.location.x, sizeof(double));
    mix(&p.location.y, sizeof(double));
    mix(p.activities.data(), p.activities.size() * sizeof(gat::ActivityId));
  }
  return h;
}

gat::ResultList TimedSearcher::Search(const gat::Query& query, size_t k,
                                      gat::QueryKind kind,
                                      gat::SearchStats* stats,
                                      const gat::QueryContext* context) const {
  if (!enabled_.load(std::memory_order_relaxed)) {
    return inner_.Search(query, k, kind, stats, context);
  }
  const int64_t start = NowNs();
  gat::ResultList results = inner_.Search(query, k, kind, stats, context);
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({Fingerprint(query), start, end});
  return results;
}

std::vector<TimedSearcher::Record> TimedSearcher::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(records_, {});
}

}  // namespace wirebench
