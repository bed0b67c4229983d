#ifndef WIREBENCH_DRIVER_H_
#define WIREBENCH_DRIVER_H_

// The load generator: open-loop reads over `GATW` connections, the
// check-in writer, and the server-side merge thread of `ingest_mix`.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "gat/core/result_set.h"
#include "gat/engine/executor.h"
#include "gat/live/live_index.h"
#include "gat/model/query.h"
#include "gat/search/search_stats.h"
#include "gat/serve/front_door.h"
#include "inputs.h"

namespace wirebench {

inline constexpr size_t kTopK = 10;

/// One read as the client saw it. Latency counts from when the request
/// was due, not when it was sent, so a stall also charges the requests
/// queued behind it.
struct ReadOutcome {
  uint32_t pool_index = 0;
  int64_t due_ns = 0;
  int64_t sent_ns = 0;
  int64_t done_ns = 0;
  bool sent = false;   ///< false: the phase was aborted before its turn
  bool ok = false;     ///< transport fine and status kOk
  bool wrong = false;  ///< answered, but not the reference answer
  gat::SearchStats stats;
  uint32_t results = 0;
  double latency_ms() const { return (done_ns - due_ns) * 1e-6; }
  double lag_ms() const { return (sent_ns - due_ns) * 1e-6; }
};

struct ReadPhase {
  uint16_t port = 0;
  uint32_t connections = 4;
  gat::QueryKind kind = gat::QueryKind::kAtsq;
  const std::vector<gat::Query>* pool = nullptr;
  /// reference[i] answers pool[i]; nullptr skips the answer check.
  const std::vector<gat::ResultList>* reference = nullptr;
  /// Relative deadline put on every request.
  double deadline_ms = 1000.0;
  /// Stop sending once a request goes out this late (0 = never): an
  /// overloaded ladder probe ends early instead of draining a backlog.
  double abort_lag_ms = 0.0;
  /// Called on the client thread after each answered call, outside the
  /// measured interval: (connection, request index, request, result).
  std::function<void(uint32_t, size_t, const gat::ServeRequest&,
                     const gat::ServeResult&)>
      after_call;
};

/// Sends `arrivals` (due times relative to the phase start, which is
/// "now") from `phase.connections` client threads, each taking the next
/// due request as soon as it is free. Returns one outcome per arrival.
std::vector<ReadOutcome> RunReads(const ReadPhase& phase,
                                  const std::vector<Arrival>& arrivals);

/// One check-in batch as the writer saw it.
struct IngestOutcome {
  int64_t due_ns = 0;
  int64_t done_ns = 0;
  bool direct = false;  ///< applied through FrontDoor::Ingest in-process
  bool ok = false;
  uint64_t accepted = 0;
  int64_t apply_ns = 0;  ///< FrontDoor::Ingest time of a direct batch
  double latency_ms() const { return (done_ns - due_ns) * 1e-6; }
};

/// Streams check-in batches at a fixed rate over its own connection
/// until stopped or the stream runs out. With `direct_door`, every
/// second batch is applied by calling that FrontDoor's Ingest in-process
/// and timed there (the server applies wire batches on its poll thread,
/// out of the benchmark's reach).
class Writer {
 public:
  Writer(uint16_t port, const std::vector<std::vector<gat::CheckIn>>& stream,
         double batches_per_second, gat::FrontDoor* direct_door);
  ~Writer();
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Joins the writer thread; the outcomes are final afterwards.
  void Stop();
  const std::vector<IngestOutcome>& outcomes() const { return outcomes_; }
  /// False when the connection could not be opened.
  bool connected() const { return connected_; }

 private:
  void Loop();

  const uint16_t port_;
  const std::vector<std::vector<gat::CheckIn>>& stream_;
  const double batches_per_second_;
  gat::FrontDoor* const direct_door_;
  std::vector<IngestOutcome> outcomes_;
  bool connected_ = true;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts once everything above exists
};

/// The server-side compaction thread, as `gat_server --merge-interval-ms`
/// runs it: every interval, a non-empty delta is merged into the next
/// in-memory generation at the same shard count on the shared executor.
/// Merges start on a fixed grid (start + n * interval) rather than an
/// interval after the previous one ended, so a phase that lasts a whole
/// number of intervals always holds the same number of merges.
class Merger {
 public:
  Merger(gat::LiveIndex& live, gat::Executor& executor, double interval_ms);
  ~Merger();
  Merger(const Merger&) = delete;
  Merger& operator=(const Merger&) = delete;

  void Stop();
  /// Wall time of every completed MergeDelta, in milliseconds.
  const std::vector<double>& merge_ms() const { return merge_ms_; }
  uint64_t refused() const { return refused_; }

 private:
  void Loop();

  gat::LiveIndex& live_;
  gat::Executor& executor_;
  const int64_t interval_ns_;
  std::vector<double> merge_ms_;
  uint64_t refused_ = 0;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// Keeps every CPU busy for as long as it lives: one spinner thread per
/// CPU at idle priority (SCHED_IDLE), which the kernel preempts for any
/// other runnable thread, so the spinners only ever take time nobody else
/// wants. On a virtual machine a vCPU that goes idle may be descheduled by
/// the host and take up to a second to return: on a 4-vCPU guest, four
/// threads started after an idle spell ran one at a time for their first
/// ~1.2 s. Without the spinners every latency in the run would carry that
/// hypervisor wake-up delay, whose size depends on the host's other
/// tenants.
class CpuKeeper {
 public:
  explicit CpuKeeper(unsigned cpus);
  ~CpuKeeper();
  CpuKeeper(const CpuKeeper&) = delete;
  CpuKeeper& operator=(const CpuKeeper&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace wirebench

#endif  // WIREBENCH_DRIVER_H_
