#include "driver.h"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <chrono>

#include "gat/common/clock.h"
#include "gat/net/client.h"
#include "trace.h"

namespace wirebench {

namespace {

std::chrono::steady_clock::time_point AtNs(int64_t ns) {
  return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
}

constexpr const char* kHost = "127.0.0.1";

}  // namespace

std::vector<ReadOutcome> RunReads(const ReadPhase& phase,
                                  const std::vector<Arrival>& arrivals) {
  std::vector<ReadOutcome> outcomes(arrivals.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> aborted{false};
  const int64_t t0 = NowNs();
  const gat::Clock& clock = gat::SteadyClock::Default();
  const auto deadline_us = static_cast<uint64_t>(phase.deadline_ms * 1e3);

  auto connection = [&](uint32_t id) {
    gat::wire::Client client;
    bool connected = client.Connect(kHost, phase.port);
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= arrivals.size()) return;
      ReadOutcome& o = outcomes[i];
      o.pool_index = arrivals[i].pool_index;
      o.due_ns = t0 + arrivals[i].due_ns;
      if (aborted.load(std::memory_order_relaxed)) continue;
      std::this_thread::sleep_until(AtNs(o.due_ns));
      o.sent_ns = NowNs();
      if (phase.abort_lag_ms > 0.0 && o.lag_ms() > phase.abort_lag_ms) {
        aborted.store(true, std::memory_order_relaxed);
        continue;
      }
      o.sent = true;
      if (!connected) connected = client.Connect(kHost, phase.port);

      gat::ServeRequest request;
      request.tenant = id;
      request.deadline_micros = clock.NowMicros() + deadline_us;
      request.queries = {(*phase.pool)[o.pool_index]};
      request.k = kTopK;
      request.kind = phase.kind;
      gat::ServeResult result;
      const bool called = connected && client.Call(request, &result);
      o.done_ns = NowNs();
      if (!called) {
        client.Close();
        connected = false;
        continue;
      }
      o.ok = result.status == gat::ServeStatus::kOk &&
             result.batch.results.size() == 1 &&
             result.batch.statuses[0] == gat::QueryStatus::kOk;
      if (o.ok) {
        o.stats = result.batch.totals;
        o.results = static_cast<uint32_t>(result.batch.results[0].size());
        if (phase.reference != nullptr &&
            result.batch.results[0] != (*phase.reference)[o.pool_index]) {
          o.wrong = true;
          o.ok = false;
        }
      }
      if (phase.after_call) phase.after_call(id, i, request, result);
    }
  };

  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < phase.connections; ++c) {
    threads.emplace_back(connection, c);
  }
  for (std::thread& t : threads) t.join();
  return outcomes;
}

Writer::Writer(uint16_t port,
               const std::vector<std::vector<gat::CheckIn>>& stream,
               double batches_per_second, gat::FrontDoor* direct_door)
    : port_(port),
      stream_(stream),
      batches_per_second_(batches_per_second),
      direct_door_(direct_door),
      thread_([this] { Loop(); }) {}

Writer::~Writer() { Stop(); }

void Writer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Writer::Loop() {
  gat::wire::Client client;
  bool connected = client.Connect(kHost, port_);
  if (!connected) connected_ = false;
  const int64_t t0 = NowNs();
  const double gap_ns = 1e9 / batches_per_second_;
  for (size_t b = 0; b < stream_.size(); ++b) {
    IngestOutcome o;
    o.due_ns = t0 + static_cast<int64_t>(static_cast<double>(b) * gap_ns);
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (cv_.wait_until(lock, AtNs(o.due_ns), [this] { return stop_; })) {
        return;
      }
    }
    gat::IngestRequest request;
    request.checkins = stream_[b];
    gat::IngestResult result;
    o.direct = direct_door_ != nullptr && b % 2 == 1;
    if (o.direct) {
      const int64_t start = NowNs();
      result = direct_door_->Ingest(request);
      o.apply_ns = NowNs() - start;
      o.ok = result.status == gat::IngestStatus::kOk;
    } else {
      if (!connected) connected = client.Connect(kHost, port_);
      const bool called = connected && client.CallIngest(request, &result);
      if (!called) {
        client.Close();
        connected = false;
      }
      o.ok = called && result.status == gat::IngestStatus::kOk;
    }
    o.done_ns = NowNs();
    o.accepted = o.ok ? result.accepted : 0;
    outcomes_.push_back(o);
  }
}

Merger::Merger(gat::LiveIndex& live, gat::Executor& executor,
               double interval_ms)
    : live_(live),
      executor_(executor),
      interval_ns_(static_cast<int64_t>(interval_ms * 1e6)),
      thread_([this] { Loop(); }) {}

Merger::~Merger() { Stop(); }

void Merger::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Merger::Loop() {
  const int64_t start = NowNs();
  std::unique_lock<std::mutex> lock(mu_);
  for (int64_t n = 1;; ++n) {
    if (cv_.wait_until(lock, AtNs(start + n * interval_ns_),
                       [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    if (live_.delta_trajectories() > 0) {
      const int64_t merge_start = NowNs();
      if (live_.MergeDelta(live_.sharded().num_shards(), "", &executor_)) {
        merge_ms_.push_back((NowNs() - merge_start) * 1e-6);
      } else {
        ++refused_;
      }
    }
    lock.lock();
  }
}

CpuKeeper::CpuKeeper(unsigned cpus) {
  for (unsigned i = 0; i < cpus; ++i) {
    threads_.emplace_back([this] {
      const sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
}

CpuKeeper::~CpuKeeper() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads_) t.join();
}

}  // namespace wirebench
