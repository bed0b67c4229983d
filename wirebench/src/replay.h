#ifndef WIREBENCH_REPLAY_H_
#define WIREBENCH_REPLAY_H_

// The traced run's view below the wire: after a request's wire call
// returns, the same request is replayed through each layer's public
// entry point, outside the measured latency, and every call is recorded
// as a span carrying the request's sequence number.

#include <cstdint>
#include <vector>

#include "gat/engine/query_engine.h"
#include "gat/serve/front_door.h"
#include "gat/shard/sharded_searcher.h"
#include "stack.h"
#include "trace.h"

namespace wirebench {

/// What a replay learned besides its spans.
struct ReplayInfo {
  uint64_t seq = 0;
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  /// Delta trajectories of the view the replay pinned.
  size_t delta_trajectories = 0;
  /// True when no ingest or merge republished the view between the
  /// LiveSearcher replay and the SearchGeneration replay, so their
  /// difference is the delta scan of one view.
  bool same_view = false;
  /// The codec failed to round-trip the request or the result.
  bool codec_failed = false;
};

/// Replays requests for one client thread. Owns a private engine and
/// front door (on the stack's executor, over its live searcher through a
/// private TimedSearcher) so replays never touch the served door's
/// counters and each replayed Search is this replayer's only record.
class Replayer {
 public:
  Replayer(Stack& stack, const gat::ShardedSearcher& sharded, SpanLog& log);
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void Replay(uint64_t seq, const gat::ServeRequest& request,
              const gat::ServeResult& result);
  const std::vector<ReplayInfo>& infos() const { return infos_; }

 private:
  /// Adds `name` as a span, plus the single decorator record the call
  /// left behind (if any) as its `live.search` child.
  void AddWithSearchChild(const char* name, uint64_t seq, int64_t start,
                          int64_t end);

  Stack& stack_;
  const gat::ShardedSearcher& sharded_;
  SpanLog& log_;
  TimedSearcher timed_;
  gat::QueryEngine engine_;
  gat::FrontDoor door_;
  std::vector<ReplayInfo> infos_;
};

}  // namespace wirebench

#endif  // WIREBENCH_REPLAY_H_
