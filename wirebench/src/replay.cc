#include "replay.h"

#include <string>
#include <string_view>

#include "gat/net/codec.h"
#include "gat/search/gat_search.h"

namespace wirebench {

Replayer::Replayer(Stack& stack, const gat::ShardedSearcher& sharded,
                   SpanLog& log)
    : stack_(stack),
      sharded_(sharded),
      log_(log),
      timed_(stack.searcher()),
      engine_(timed_, gat::EngineOptions{.executor = &stack.executor()}),
      door_(engine_, UnlimitedDoorOptions()) {
  timed_.set_enabled(true);
}

void Replayer::AddWithSearchChild(const char* name, uint64_t seq,
                                  int64_t start, int64_t end) {
  const int32_t parent = log_.Add({name, seq, start, end, -1});
  const std::vector<TimedSearcher::Record> records = timed_.Take();
  if (records.size() == 1) {
    log_.Add({"live.search", seq, records[0].start_ns, records[0].end_ns,
              parent});
  }
}

void Replayer::Replay(uint64_t seq, const gat::ServeRequest& request,
                      const gat::ServeResult& result) {
  namespace wire = gat::wire;
  ReplayInfo info;
  info.seq = seq;

  // net: the four codec steps one request/response pair costs.
  const int64_t t0 = NowNs();
  const std::string request_frame = wire::EncodeRequestFrame(request);
  const int64_t t1 = NowNs();
  gat::ServeRequest decoded_request;
  const bool request_ok = wire::DecodeRequestPayload(
      std::string_view(request_frame).substr(wire::kHeaderBytes),
      &decoded_request);
  const int64_t t2 = NowNs();
  const std::string result_frame = wire::EncodeResultFrame(result);
  const int64_t t3 = NowNs();
  gat::ServeResult decoded_result;
  const bool result_ok = wire::DecodeResultPayload(
      std::string_view(result_frame).substr(wire::kHeaderBytes),
      &decoded_result);
  const int64_t t4 = NowNs();
  const int32_t codec = log_.Add({"net.codec", seq, t0, t4, -1});
  log_.Add({"net.encode_request", seq, t0, t1, codec});
  log_.Add({"net.decode_request", seq, t1, t2, codec});
  log_.Add({"net.encode_result", seq, t2, t3, codec});
  log_.Add({"net.decode_result", seq, t3, t4, codec});
  info.request_bytes = request_frame.size();
  info.response_bytes = result_frame.size();
  info.codec_failed = !request_ok || !result_ok ||
                      decoded_result.batch.results != result.batch.results;

  // serve: admission, then the admitted path down to the searcher.
  int64_t start = NowNs();
  door_.TryAdmit(request.tenant);
  log_.Add({"serve.admit", seq, start, NowNs(), -1});
  timed_.Take();
  start = NowNs();
  door_.ServeAdmitted(request);
  AddWithSearchChild("serve.admitted", seq, start, NowNs());

  // engine + live: QueryEngine::Run over the live searcher; the child's
  // start is where the query left the executor queue.
  const std::shared_ptr<const gat::LiveView> view = stack_.live().Pin();
  start = NowNs();
  engine_.Run(request.queries, request.k, request.kind);
  AddWithSearchChild("engine.run", seq, start, NowNs());

  // shard: the fan-out over the view's base generation alone.
  const gat::Query& query = request.queries.front();
  start = NowNs();
  sharded_.SearchGeneration(*view->generation, query, request.k,
                            request.kind);
  log_.Add({"shard.generation", seq, start, NowNs(), -1});
  info.same_view = stack_.live().Pin() == view;
  info.delta_trajectories = view->delta->trajectories.size();

  // search: one GatSearcher per pinned shard revision, one at a time.
  for (uint32_t s = 0; s < view->generation->num_shards(); ++s) {
    const auto revision = view->generation->PinShard(s);
    const gat::GatSearcher searcher(view->generation->shard_dataset(s),
                                    *revision->index);
    start = NowNs();
    searcher.Search(query, request.k, request.kind);
    log_.Add({"search.shard", seq, start, NowNs(), -1});
  }
  infos_.push_back(info);
}

}  // namespace wirebench
