#include "stack.h"

namespace wirebench {

gat::FrontDoorOptions UnlimitedDoorOptions() {
  gat::FrontDoorOptions options;
  options.default_quota = gat::TenantQuota{1e9, 1e9};
  options.default_write_quota = gat::TenantQuota{1e9, 1e9};
  return options;
}

gat::Dataset CopyDataset(const gat::Dataset& dataset) {
  gat::Dataset copy = dataset.ExtendWith({});
  copy.set_generation(dataset.generation());
  return copy;
}

Stack::Stack(gat::Dataset city, const WorkloadSpec& spec,
             const std::string& snapshot_dir, bool traced) {
  gat::ShardOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.executor = &executor_;
  if (spec.disk_tier) {
    shard_options.snapshot_dir = snapshot_dir;
    shard_options.mmap_disk_tier = true;
    shard_options.cache_config.capacity_bytes = spec.cache_bytes;
  }

  const int64_t start = NowNs();
  live_ = std::make_unique<gat::LiveIndex>(std::move(city), gat::GatConfig{},
                                           shard_options);
  searcher_ = std::make_unique<gat::LiveSearcher>(*live_,
                                                  gat::GatSearchParams{},
                                                  &executor_);
  const gat::Searcher* served = searcher_.get();
  if (traced) {
    timed_ = std::make_unique<TimedSearcher>(*searcher_);
    served = timed_.get();
  }
  engine_ = std::make_unique<gat::QueryEngine>(
      *served, gat::EngineOptions{.executor = &executor_});
  door_ = std::make_unique<gat::FrontDoor>(*engine_, UnlimitedDoorOptions());
  door_->AttachLiveIndex(live_.get());
  gat::wire::ServerOptions server_options;
  server_options.executor = &executor_;
  server_ = std::make_unique<gat::wire::Server>(*door_, server_options);
  started_ = server_->Start();
  setup_seconds_ = static_cast<double>(NowNs() - start) * 1e-9;
}

}  // namespace wirebench
