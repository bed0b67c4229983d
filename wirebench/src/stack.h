#ifndef WIREBENCH_STACK_H_
#define WIREBENCH_STACK_H_

// The serving stack `apps/gat_server` deploys, stood up in-process:
// LiveIndex (4 shards) -> LiveSearcher -> QueryEngine on one 4-worker
// Executor -> FrontDoor -> wire::Server on loopback.

#include <memory>
#include <string>

#include "gat/engine/executor.h"
#include "gat/engine/query_engine.h"
#include "gat/live/live_index.h"
#include "gat/live/live_searcher.h"
#include "gat/model/dataset.h"
#include "gat/net/server.h"
#include "gat/serve/front_door.h"
#include "inputs.h"
#include "trace.h"

namespace wirebench {

inline constexpr uint32_t kWorkers = 4;
inline constexpr uint32_t kShards = 4;

/// Admission budgets far above any offered load: the benchmark measures
/// the serving path, so nothing is shed.
gat::FrontDoorOptions UnlimitedDoorOptions();

class Stack {
 public:
  /// Builds the stack over `city` and starts the server. The disk tier
  /// writes its snapshots under `snapshot_dir`, which must not exist yet.
  /// `traced` puts a `TimedSearcher` (initially disabled) between the
  /// engine and the live searcher. Check `started()` afterwards.
  Stack(gat::Dataset city, const WorkloadSpec& spec,
        const std::string& snapshot_dir, bool traced);
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool started() const { return started_; }
  /// Seconds from the start of LiveIndex construction to the return of
  /// Server::Start.
  double setup_seconds() const { return setup_seconds_; }

  gat::Executor& executor() { return executor_; }
  gat::LiveIndex& live() { return *live_; }
  const gat::LiveSearcher& searcher() const { return *searcher_; }
  TimedSearcher* timed() { return timed_.get(); }
  gat::FrontDoor& door() { return *door_; }
  gat::wire::Server& server() { return *server_; }

 private:
  // Declaration order is construction order; the server is destroyed
  // (and stopped) first, the executor last.
  gat::Executor executor_{kWorkers};
  std::unique_ptr<gat::LiveIndex> live_;
  std::unique_ptr<gat::LiveSearcher> searcher_;
  std::unique_ptr<TimedSearcher> timed_;
  std::unique_ptr<gat::QueryEngine> engine_;
  std::unique_ptr<gat::FrontDoor> door_;
  std::unique_ptr<gat::wire::Server> server_;
  bool started_ = false;
  double setup_seconds_ = 0.0;
};

/// A deep copy of a finalized dataset, generation number included.
gat::Dataset CopyDataset(const gat::Dataset& dataset);

}  // namespace wirebench

#endif  // WIREBENCH_STACK_H_
