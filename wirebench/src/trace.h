#ifndef WIREBENCH_TRACE_H_
#define WIREBENCH_TRACE_H_

// Spans recorded from outside the program: the benchmark times its own
// calls into each layer's public functions, plus one decorator on the
// only virtual boundary of the wire path, `Searcher`. Spans stay in
// memory and are written out when the run ends.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "gat/core/searcher.h"
#include "gat/model/query.h"

namespace wirebench {

/// steady_clock nanoseconds — the one time base of every span.
int64_t NowNs();

struct Span {
  const char* name;   ///< static string: "net.call", "live.search", ...
  uint64_t seq;       ///< the request's sequence number
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;     ///< index into the same log, -1 for a root
  int64_t duration() const { return end_ns - start_ns; }
};

/// Append-only span store, safe to fill from several threads.
class SpanLog {
 public:
  /// Returns the new span's index.
  int32_t Add(const Span& span);
  /// The spans so far (call once the writers are done).
  const std::vector<Span>& spans() const { return spans_; }
  /// One JSON object per line; false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Order-sensitive hash of a query's points and activities: how a span
/// recorded inside the server is matched to the client call that sent
/// the query.
uint64_t Fingerprint(const gat::Query& query);

/// A `Searcher` that forwards to another and, while enabled, records the
/// interval of every `Search` with the query's fingerprint. Results and
/// stats pass through untouched.
class TimedSearcher final : public gat::Searcher {
 public:
  struct Record {
    uint64_t fingerprint;
    int64_t start_ns;
    int64_t end_ns;
  };

  /// `inner` must outlive the decorator.
  explicit TimedSearcher(const gat::Searcher& inner) : inner_(inner) {}

  gat::ResultList Search(const gat::Query& query, size_t k,
                         gat::QueryKind kind,
                         gat::SearchStats* stats = nullptr,
                         const gat::QueryContext* context =
                             nullptr) const override;
  std::string name() const override { return inner_.name(); }

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Removes and returns the records so far.
  std::vector<Record> Take();

 private:
  const gat::Searcher& inner_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  mutable std::vector<Record> records_;
};

}  // namespace wirebench

#endif  // WIREBENCH_TRACE_H_
