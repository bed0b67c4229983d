// wire_bench: one workload of the wire-level benchmark, end to end.
//
// Usage: wire_bench --workload NAME --seed N --seconds S --trace 0|1
//                   [--work-dir DIR]
//
// Generates every input from the seed, computes reference answers, stands
// up the serving stack in-process and drives it over loopback `GATW`
// connections. `--trace 0` reports the end-to-end metrics (nominal-rate
// latency, the highest rate on the ladder that meets the workload's
// latency limit, set-up time, resident-set growth); `--trace 1` reports
// the per-layer metrics from a traced run and writes its spans to
// DIR/spans-<workload>-<seed>.jsonl. The last stdout line is one JSON
// object; every wrong answer makes the run exit 1. See README.md.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "driver.h"
#include "gat/datagen/checkin_generator.h"
#include "gat/index/gat_index.h"
#include "gat/search/gat_search.h"
#include "gat/shard/sharded_searcher.h"
#include "inputs.h"
#include "replay.h"
#include "stack.h"
#include "stats.h"
#include "trace.h"

namespace wirebench {
namespace {

// Query pools: large enough that the tail is set by many distinct heavy
// queries, not by a handful. OATSQ requests are ~10x dearer, so a run
// sends fewer of them and its reference pool is smaller.
uint32_t PoolSize(gat::QueryKind kind) {
  return kind == gat::QueryKind::kAtsq ? 4096 : 1024;
}
// The quiesced ingest_mix check compares this many pool queries.
constexpr uint32_t kQuiescedChecks = 512;
constexpr double kWarmupSeconds = 1.0;
constexpr int kSetupRepeats = 3;
// ingest_mix write stream: 8-check-in batches, 200 check-ins/s, 500 users.
constexpr size_t kIngestBatch = 8;
constexpr double kCheckInsPerSecond = 200.0;
constexpr uint64_t kIngestUsers = 500;
// ingest_mix merges four times per nominal phase (every 5 s at 50 s).
constexpr double kMergesPerNominalPhase = 4.0;
// Untraced run: share of --seconds at the nominal rate (the rest is the
// ladder, split evenly over its bisection probes, so that every probe is
// judged at about the same tail percentile).
constexpr double kNominalShare = 0.4;
constexpr int kLadderProbes = 6;
// Traced run: share of --seconds in the untraced reference phase.
constexpr double kUntracedShare = 0.4;
constexpr uint64_t kReplayEvery = 8;
// Arrival-schedule phase numbers (each its own stream of the seed).
constexpr uint64_t kWarmupPhase = 0;
constexpr uint64_t kNominalPhase = 1;
constexpr uint64_t kTracedPhase = 2;
constexpr uint64_t kLadderPhase = 10;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  std::string work_dir = ".bench_build/wirebench-out";
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "wire_bench: %s\nusage: wire_bench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\nworkloads:",
               why);
  for (const WorkloadSpec& spec : Workloads()) {
    std::fprintf(stderr, " %s", spec.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

std::optional<Options> Parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      o.trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (o.workload.empty() || !(o.seconds > 0.0) ||
      (o.trace != 0 && o.trace != 1)) {
    return std::nullopt;
  }
  return o;
}

double RssMiB() {
  long pages = 0;
  long resident = 0;
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  const int read = std::fscanf(f, "%ld %ld", &pages, &resident);
  std::fclose(f);
  if (read != 2) return 0.0;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) /
         (1024.0 * 1024.0);
}

double Median(std::vector<double> v) { return Summarize(std::move(v)).p50; }

/// Answers of a monolithic GatIndex, and the work each query did there
/// (candidates + disk reads + distance computations: a deterministic
/// count that tracks the query's service time).
struct Reference {
  std::vector<gat::ResultList> answers;
  std::vector<uint64_t> work;
};

Reference ReferenceAnswers(const gat::Dataset& dataset,
                           const std::vector<gat::Query>& pool,
                           gat::QueryKind kind) {
  const gat::GatIndex index(dataset);
  const gat::GatSearcher searcher(dataset, index);
  Reference ref;
  ref.answers.resize(pool.size());
  ref.work.resize(pool.size());
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < pool.size(); i += kWorkers) {
        gat::SearchStats stats;
        ref.answers[i] = searcher.Search(pool[i], kTopK, kind, &stats);
        ref.work[i] = stats.candidates_retrieved + stats.disk_reads +
                      stats.distance_computations;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return ref;
}

/// A named metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Tallies of everything a run attempted.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;

  void Reads(const std::vector<ReadOutcome>& outcomes) {
    for (const ReadOutcome& o : outcomes) {
      if (!o.sent) continue;
      ++attempted;
      if (!o.ok) ++failed;
      if (o.wrong) ++wrong;
    }
  }
};

/// Latency from the due time; a failed request misses every limit.
std::vector<double> Latencies(const std::vector<ReadOutcome>& outcomes) {
  std::vector<double> v;
  for (const ReadOutcome& o : outcomes) {
    if (!o.sent) continue;
    v.push_back(o.ok ? o.latency_ms()
                     : std::numeric_limits<double>::infinity());
  }
  return v;
}

/// A ladder rung (or the nominal phase) passes when every request was
/// sent and answered, the tail meets the limit and the queue is not
/// growing.
bool Passes(const std::vector<ReadOutcome>& outcomes, double limit_ms,
            Summary* summary) {
  std::vector<LatencyPoint> series;
  bool all_ok = true;
  const int64_t t0 = outcomes.empty() ? 0 : outcomes.front().due_ns;
  for (const ReadOutcome& o : outcomes) {
    all_ok = all_ok && o.sent && o.ok;
    if (o.sent && o.ok) {
      series.push_back({(o.due_ns - t0) * 1e-9, o.latency_ms()});
    }
  }
  *summary = Summarize(Latencies(outcomes));
  return all_ok && summary->tail <= limit_ms &&
         !BacklogGrows(series, limit_ms);
}

std::string NewSnapshotDir(const std::string& work_dir, int n) {
  const std::string dir = work_dir + "/snapshots-" +
                          std::to_string(getpid()) + "-" + std::to_string(n);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Every answer the quiesced live index gives over the wire must equal a
/// monolithic GatIndex over base ⊕ delta, and the final watermark must
/// equal the sum of the accepted acks.
void CheckQuiescedLiveIndex(Stack& stack, const WorkloadSpec& spec,
                            const std::vector<gat::Query>& pool,
                            uint64_t accepted_checkins, Tally& tally) {
  const auto view = stack.live().Pin();
  ++tally.attempted;
  if (view->delta->base_generation != view->generation->number() ||
      stack.live().watermark() != accepted_checkins) {
    std::printf("CHECK FAILED: watermark %llu vs %llu accepted, delta of "
                "generation %llu over base generation %llu\n",
                static_cast<unsigned long long>(stack.live().watermark()),
                static_cast<unsigned long long>(accepted_checkins),
                static_cast<unsigned long long>(view->delta->base_generation),
                static_cast<unsigned long long>(view->generation->number()));
    ++tally.failed;
    ++tally.wrong;
  }
  const gat::Dataset state =
      stack.live().base().ExtendWith(view->delta->trajectories);
  const std::vector<gat::Query> checked(
      pool.begin(),
      pool.begin() + std::min<size_t>(pool.size(), kQuiescedChecks));
  const std::vector<gat::ResultList> reference =
      ReferenceAnswers(state, checked, spec.kind).answers;
  std::vector<Arrival> all;
  for (uint32_t i = 0; i < checked.size(); ++i) all.push_back({0, i});
  ReadPhase check;
  check.port = stack.server().port();
  check.connections = kWorkers;
  check.kind = spec.kind;
  check.pool = &checked;
  check.reference = &reference;
  check.deadline_ms = 60'000.0;
  tally.Reads(RunReads(check, all));
}

/// What a run reports: metrics, explanatory notes and the tally.
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;
  Tally tally;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void AddDist(const std::string& name, std::vector<double> values,
               const std::string& unit) {
    const Summary s = Summarize(std::move(values));
    Add(name + ".p50", s.p50, unit);
    Add(name + ".p99", s.tail, unit);
  }
};

int Execute(const Options& options, const WorkloadSpec& spec) {
  const bool traced = options.trace == 1;
  Report run;
  std::filesystem::create_directories(options.work_dir);

  // ---------------------------------------------------------- inputs
  const gat::Dataset city = gat::GenerateCity(City());
  const std::vector<gat::Query> pool =
      MakeQueryPool(city, PoolSize(spec.kind));
  const double batches_per_second = kCheckInsPerSecond / kIngestBatch;
  const std::vector<std::vector<gat::CheckIn>> checkins =
      spec.ingest
          ? MakeCheckInStream(city, options.seed,
                              static_cast<size_t>((options.seconds + 60.0) *
                                                  batches_per_second),
                              kIngestBatch, kIngestUsers)
          : std::vector<std::vector<gat::CheckIn>>{};
  // Reference answers from a monolithic index over the same city, freed
  // before the stack exists; they check the read-only workloads, and the
  // work of each query stratifies the traffic of every workload.
  const Reference reference = ReferenceAnswers(city, pool, spec.kind);
  const std::vector<uint32_t> by_work = RankByWork(reference.work);
  std::printf("wire_bench %s seed=%llu trace=%d: %zu trajectories, %zu pool "
              "queries, %u read connections at %.0f req/s, tail limit %.0f "
              "ms\n",
              spec.name, static_cast<unsigned long long>(options.seed),
              options.trace, city.size(), pool.size(), spec.read_connections,
              spec.nominal_rate, spec.latency_limit_ms);

  // ----------------------------------------------------------- stack
  malloc_trim(0);
  const double rss_before = RssMiB();
  gat::Dataset served_city = CopyDataset(city);
  std::vector<double> setups;
  std::string snapshot_dir = NewSnapshotDir(options.work_dir, 0);
  auto stack = std::make_unique<Stack>(std::move(served_city), spec,
                                       snapshot_dir, traced);
  if (!stack->started()) {
    std::fprintf(stderr, "FATAL: server did not start\n");
    return 1;
  }
  setups.push_back(stack->setup_seconds());
  const gat::BlockCache* cache = stack->live().sharded().block_cache();

  ReadPhase reads;
  reads.port = stack->server().port();
  reads.connections = spec.read_connections;
  reads.kind = spec.kind;
  reads.pool = &pool;
  reads.reference = spec.ingest ? nullptr : &reference.answers;
  reads.deadline_ms = std::max(1000.0, 10.0 * spec.latency_limit_ms);
  auto arrivals = [&](uint64_t phase, double rate, double seconds) {
    return MakeArrivals(options.seed, phase, rate, seconds, by_work);
  };

  const double merge_interval_ms =
      1e3 * kNominalShare * options.seconds / kMergesPerNominalPhase;
  std::unique_ptr<Writer> writer;
  std::unique_ptr<Merger> merger;
  if (spec.ingest) {
    writer = std::make_unique<Writer>(reads.port, checkins, batches_per_second,
                                      traced ? &stack->door() : nullptr);
    merger = std::make_unique<Merger>(stack->live(), stack->executor(),
                                      merge_interval_ms);
  }
  const gat::FrontDoorCounters door_before = stack->door().counters();
  const gat::wire::ServerCounters server_before = stack->server().counters();
  const uint64_t rejected_before = stack->live().batches_rejected();

  const std::vector<ReadOutcome> warmup = RunReads(
      reads, arrivals(kWarmupPhase, spec.nominal_rate, kWarmupSeconds));
  run.tally.Reads(warmup);

  std::vector<ReadOutcome> measured;      // nominal (untraced) or U phase
  std::vector<ReadOutcome> traced_reads;  // T phase
  SpanLog log;
  std::unique_ptr<gat::ShardedSearcher> sharded;
  std::vector<std::unique_ptr<Replayer>> replayers;
  std::vector<TimedSearcher::Record> wire_records;
  uint64_t tasks_per_phase = 0;
  gat::BlockCacheStats cache_delta;
  double slo_qps = 0.0;

  if (!traced) {
    // ------------------------------------------- nominal phase, ladder
    measured = RunReads(reads, arrivals(kNominalPhase, spec.nominal_rate,
                                        kNominalShare * options.seconds));
    run.tally.Reads(measured);
    Summary nominal;
    const bool rung0 = Passes(measured, spec.latency_limit_ms, &nominal);
    // A probe of ingest_mix spans at least one merge, so every rung is
    // judged with a compaction inside it.
    const double probe_seconds = std::max(
        (1.0 - kNominalShare) * options.seconds / kLadderProbes,
        spec.ingest ? 1.1e-3 * merge_interval_ms : 0.0);
    ReadPhase probe = reads;
    probe.abort_lag_ms = 4.0 * spec.latency_limit_ms;
    const int best = HighestPassingRung(rung0, [&](int rung) {
      const double rate = Ladder::Rate(spec.nominal_rate, rung);
      const std::vector<ReadOutcome> outcomes = RunReads(
          probe, arrivals(kLadderPhase + static_cast<uint64_t>(rung), rate,
                          probe_seconds));
      Tally probe_tally;
      probe_tally.Reads(outcomes);
      run.tally.wrong += probe_tally.wrong;
      Summary s;
      const bool pass = Passes(outcomes, spec.latency_limit_ms, &s);
      char note[160];
      std::snprintf(note, sizeof(note),
                    "rung %d: %.1f req/s for %.1f s, %zu answered, p%.1f "
                    "%.2f ms -> %s",
                    rung, rate, probe_seconds, s.n, s.tail_percentile, s.tail,
                    pass ? "pass" : "fail");
      run.notes.push_back(note);
      return pass;
    });
    slo_qps = best >= 0 ? Ladder::Rate(spec.nominal_rate, best) : 0.0;
  } else {
    // ------------------------------- untraced reference, traced phase
    const uint64_t tasks_before = stack->executor().tasks_submitted();
    const gat::BlockCacheStats cache_before =
        cache != nullptr ? cache->Snapshot() : gat::BlockCacheStats{};
    measured = RunReads(reads, arrivals(kNominalPhase, spec.nominal_rate,
                                        kUntracedShare * options.seconds));
    run.tally.Reads(measured);
    tasks_per_phase = stack->executor().tasks_submitted() - tasks_before;
    if (cache != nullptr) {
      const gat::BlockCacheStats after = cache->Snapshot();
      cache_delta.hits = after.hits - cache_before.hits;
      cache_delta.misses = after.misses - cache_before.misses;
      cache_delta.evictions = after.evictions - cache_before.evictions;
    }

    sharded = std::make_unique<gat::ShardedSearcher>(
        stack->live().sharded(), gat::GatSearchParams{}, &stack->executor());
    for (uint32_t c = 0; c < spec.read_connections; ++c) {
      replayers.push_back(std::make_unique<Replayer>(*stack, *sharded, log));
    }
    ReadPhase traced_phase = reads;
    traced_phase.after_call = [&](uint32_t connection, size_t index,
                                  const gat::ServeRequest& request,
                                  const gat::ServeResult& result) {
      if (index % kReplayEvery == 0) {
        replayers[connection]->Replay(index, request, result);
      }
    };
    stack->timed()->set_enabled(true);
    traced_reads = RunReads(
        traced_phase, arrivals(kTracedPhase, spec.nominal_rate,
                               (1.0 - kUntracedShare) * options.seconds));
    stack->timed()->set_enabled(false);
    run.tally.Reads(traced_reads);
    wire_records = stack->timed()->Take();
  }

  // ------------------------------------------------ quiesce and check
  std::vector<double> merge_ms;
  uint64_t merges_refused = 0;
  std::vector<IngestOutcome> ingests;
  if (spec.ingest) {
    writer->Stop();
    merger->Stop();
    ingests = writer->outcomes();
    merge_ms = merger->merge_ms();
    merges_refused = merger->refused();
    if (!writer->connected()) ++run.tally.failed;
  }
  uint64_t accepted = 0;
  for (const IngestOutcome& o : ingests) {
    ++run.tally.attempted;
    if (!o.ok) ++run.tally.failed;
    accepted += o.accepted;
  }
  const double rss_growth = RssMiB() - rss_before;
  if (spec.ingest) {
    CheckQuiescedLiveIndex(*stack, spec, pool, accepted, run.tally);
  }
  const gat::FrontDoorCounters door_after = stack->door().counters();
  const gat::wire::ServerCounters server_after = stack->server().counters();
  const uint64_t batches_rejected =
      stack->live().batches_rejected() - rejected_before;
  const uint32_t num_shards = stack->live().sharded().num_shards();

  // ------------------------------------------------------- metrics
  const Summary nominal = Summarize(Latencies(measured));
  std::vector<double> ingest_ack_ms;
  std::vector<double> ingest_apply_us;
  for (const IngestOutcome& o : ingests) {
    if (o.ok && o.direct) ingest_apply_us.push_back(o.apply_ns * 1e-3);
    if (o.ok && !o.direct) ingest_ack_ms.push_back(o.latency_ms());
  }
  const Summary ingest_ack = Summarize(ingest_ack_ms);
  int trace_violations = 0;

  if (!traced) {
    stack.reset();
    std::filesystem::remove_all(snapshot_dir);
    for (int i = 1; i < kSetupRepeats; ++i) {
      snapshot_dir = NewSnapshotDir(options.work_dir, i);
      {
        const Stack again(CopyDataset(city), spec, snapshot_dir, false);
        if (!again.started()) {
          std::fprintf(stderr, "FATAL: server did not start\n");
          return 1;
        }
        setups.push_back(again.setup_seconds());
      }
      std::filesystem::remove_all(snapshot_dir);
    }
    run.Add("setup_s", Median(setups), "s");
    run.Add("query_p50_ms", nominal.p50, "ms");
    run.Add("query_p99_ms", nominal.tail, "ms");
    run.Add("slo_qps", slo_qps, "req/s");
    run.Add("serve_rss_mb", rss_growth, "MiB");
    std::vector<double> lag;
    for (const ReadOutcome& o : measured) lag.push_back(o.lag_ms());
    const Summary lag_summary = Summarize(lag);
    char note[200];
    std::snprintf(note, sizeof(note),
                  "query_p99_ms is p%.2f of %zu samples (%zu beyond it); "
                  "driver lag p50 %.3f ms, p%.2f %.3f ms",
                  nominal.tail_percentile, nominal.n,
                  TailFor(nominal.n).beyond, lag_summary.p50,
                  lag_summary.tail_percentile, lag_summary.tail);
    run.notes.insert(run.notes.begin(), note);
    std::snprintf(note, sizeof(note), "setup_s runs: %.3f %.3f %.3f s",
                  setups[0], setups[1], setups[2]);
    run.notes.insert(run.notes.begin(), note);
  } else {
    // Wire spans: net.call on the client, live.search inside the server,
    // matched by query fingerprint and containment.
    std::unordered_multimap<uint64_t, size_t> by_fingerprint;
    for (size_t r = 0; r < wire_records.size(); ++r) {
      by_fingerprint.emplace(wire_records[r].fingerprint, r);
    }
    std::vector<char> claimed(wire_records.size(), 0);
    std::vector<std::pair<int32_t, int32_t>> wire_pairs;  // call, search
    for (size_t i = 0; i < traced_reads.size(); ++i) {
      const ReadOutcome& o = traced_reads[i];
      if (!o.sent || !o.ok) continue;
      const int32_t call =
          log.Add({"net.call", i, o.sent_ns, o.done_ns, -1});
      const auto range =
          by_fingerprint.equal_range(Fingerprint(pool[o.pool_index]));
      for (auto it = range.first; it != range.second; ++it) {
        const TimedSearcher::Record& rec = wire_records[it->second];
        if (claimed[it->second] || rec.start_ns < o.sent_ns ||
            rec.end_ns > o.done_ns) {
          continue;
        }
        claimed[it->second] = 1;
        wire_pairs.emplace_back(
            call, log.Add({"live.search", i, rec.start_ns, rec.end_ns, call}));
        break;
      }
    }
    const std::vector<Span>& spans = log.spans();
    const std::vector<int64_t> self = SelfTimes(spans);

    // Per request: the spans of its replay, by name.
    struct PerSeq {
      int32_t call = -1, wire_search = -1, codec = -1, admit = -1;
      int32_t admitted = -1, run = -1, run_search = -1, generation = -1;
      std::vector<int32_t> shards;
    };
    std::unordered_map<uint64_t, PerSeq> per_seq;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      PerSeq& p = per_seq[s.seq];
      const auto id = static_cast<int32_t>(i);
      const char* parent =
          s.parent >= 0 ? spans[static_cast<size_t>(s.parent)].name : "";
      if (std::strcmp(s.name, "net.call") == 0) p.call = id;
      if (std::strcmp(s.name, "net.codec") == 0) p.codec = id;
      if (std::strcmp(s.name, "serve.admit") == 0) p.admit = id;
      if (std::strcmp(s.name, "serve.admitted") == 0) p.admitted = id;
      if (std::strcmp(s.name, "engine.run") == 0) p.run = id;
      if (std::strcmp(s.name, "shard.generation") == 0) p.generation = id;
      if (std::strcmp(s.name, "search.shard") == 0) p.shards.push_back(id);
      if (std::strcmp(s.name, "live.search") == 0) {
        if (std::strcmp(parent, "net.call") == 0) p.wire_search = id;
        if (std::strcmp(parent, "engine.run") == 0) p.run_search = id;
      }
    }
    std::unordered_map<uint64_t, const ReplayInfo*> infos;
    for (const auto& r : replayers) {
      for (const ReplayInfo& info : r->infos()) infos[info.seq] = &info;
    }
    auto dur_ms = [&](int32_t id) { return spans[id].duration() * 1e-6; };
    auto self_ms = [&](int32_t id) { return self[id] * 1e-6; };

    // The blocking-path check: on every wire request the client span is
    // exactly its self time plus the server-side search it contains.
    for (const auto& [call, search] : wire_pairs) {
      if (self[call] + spans[search].duration() != spans[call].duration()) {
        ++trace_violations;
      }
    }

    std::vector<double> stack_ms, live_search_ms, codec_us, admit_us,
        serve_self_ms, queue_ms, engine_self_ms, delta_scan_ms,
        shard_self_ms, straggler, search_ms, unaccounted_ms, call_ms;
    double request_bytes = 0, response_bytes = 0, delta_trajectories = 0;
    size_t replayed = 0;
    for (const auto& [seq, p] : per_seq) {
      if (p.call >= 0 && p.wire_search >= 0) {
        stack_ms.push_back(self_ms(p.call));
        live_search_ms.push_back(dur_ms(p.wire_search));
      }
      const auto info = infos.find(seq);
      if (info == infos.end() || p.codec < 0 || p.admitted < 0 ||
          p.run < 0 || p.run_search < 0 || p.generation < 0 ||
          p.shards.empty()) {
        continue;
      }
      if (info->second->codec_failed) {
        ++run.tally.failed;
        ++run.tally.wrong;
      }
      ++replayed;
      request_bytes += static_cast<double>(info->second->request_bytes);
      response_bytes += static_cast<double>(info->second->response_bytes);
      delta_trajectories +=
          static_cast<double>(info->second->delta_trajectories);
      codec_us.push_back(dur_ms(p.codec) * 1e3);
      admit_us.push_back(dur_ms(p.admit) * 1e3);
      serve_self_ms.push_back(self_ms(p.admitted) - self_ms(p.run));
      queue_ms.push_back(
          (spans[p.run_search].start_ns - spans[p.run].start_ns) * 1e-6);
      engine_self_ms.push_back(self_ms(p.run));
      double slowest = 0.0, total = 0.0;
      for (const int32_t s : p.shards) {
        slowest = std::max(slowest, dur_ms(s));
        total += dur_ms(s);
      }
      const double mean = total / static_cast<double>(p.shards.size());
      search_ms.push_back(total);
      straggler.push_back(mean > 0.0 ? slowest / mean : 1.0);
      shard_self_ms.push_back(dur_ms(p.generation) - slowest);
      const double delta_scan = dur_ms(p.run_search) - dur_ms(p.generation);
      if (info->second->same_view) delta_scan_ms.push_back(delta_scan);
      if (p.call >= 0) {
        const double path = codec_us.back() * 1e-3 + admit_us.back() * 1e-3 +
                            serve_self_ms.back() + engine_self_ms.back() +
                            delta_scan + shard_self_ms.back() + slowest;
        call_ms.push_back(dur_ms(p.call));
        unaccounted_ms.push_back(dur_ms(p.call) - path);
      }
    }
    const double n_replayed = std::max<double>(1.0, replayed);

    // Deterministic per-request counters, from the untraced phase's
    // wire responses (the traced phase's replays would add to the
    // executor and cache counters).
    gat::SearchStats sum;
    double answered = 0, results = 0;
    for (const ReadOutcome& o : measured) {
      if (!o.ok) continue;
      sum += o.stats;
      answered += 1;
      results += o.results;
    }
    answered = std::max(answered, 1.0);
    auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };

    run.AddDist("net.stack_ms", stack_ms, "ms");
    run.AddDist("net.codec_us", codec_us, "us");
    run.Add("net.request_bytes", request_bytes / n_replayed, "bytes");
    run.Add("net.response_bytes", response_bytes / n_replayed, "bytes");
    run.Add("net.protocol_errors",
            static_cast<double>(server_after.protocol_errors -
                                server_before.protocol_errors),
            "count");
    run.AddDist("serve.admit_us", admit_us, "us");
    run.AddDist("serve.self_ms", serve_self_ms, "ms");
    run.Add("serve.shed", static_cast<double>(door_after.shed - door_before.shed),
            "count");
    run.Add("serve.deadline_misses",
            static_cast<double>(door_after.deadline_misses -
                                door_before.deadline_misses),
            "count");
    run.Add("serve.ingest_failed",
            static_cast<double>(door_after.ingest_failed -
                                door_before.ingest_failed),
            "count");
    run.AddDist("engine.queue_ms", queue_ms, "ms");
    run.AddDist("engine.self_ms", engine_self_ms, "ms");
    run.Add("engine.tasks_per_request",
            static_cast<double>(tasks_per_phase) / answered, "count");
    run.AddDist("live.search_ms", live_search_ms, "ms");
    run.AddDist("live.delta_scan_ms", delta_scan_ms, "ms");
    run.Add("live.delta_trajectories", delta_trajectories / n_replayed,
            "count");
    run.AddDist("live.ingest_us", ingest_apply_us, "us");
    run.Add("live.ingest_ack_ms.p50", ingest_ack.p50, "ms");
    run.Add("live.ingest_ack_ms.p99", ingest_ack.tail, "ms");
    run.AddDist("live.merge_ms", merge_ms, "ms");
    run.Add("live.merges", static_cast<double>(merge_ms.size()), "count");
    run.Add("live.batches_rejected", static_cast<double>(batches_rejected),
            "count");
    run.AddDist("shard.self_ms", shard_self_ms, "ms");
    run.AddDist("shard.straggler_ratio", straggler, "ratio");
    run.Add("shard.index_pins", sum.index_pins / answered, "count");
    run.AddDist("search.ms", search_ms, "ms");
    run.Add("search.rounds", sum.rounds / answered, "count");
    run.Add("search.nodes_popped", sum.nodes_popped / answered, "count");
    run.Add("search.heap_pushes", sum.heap_pushes / answered, "count");
    run.Add("search.candidates", sum.candidates_retrieved / answered, "count");
    run.Add("search.tas_prune_rate",
            ratio(sum.tas_pruned, sum.candidates_retrieved), "ratio");
    run.Add("index.disk_reads", sum.disk_reads / answered, "count");
    run.Add("index.reads_per_result", ratio(sum.disk_reads, results), "ratio");
    run.Add("index.activity_rejected", sum.activity_rejected / answered,
            "count");
    run.Add("index.mib_rejected", sum.mib_rejected / answered, "count");
    run.Add("core.distance_computations",
            sum.distance_computations / answered, "count");
    run.Add("core.refine_yield", ratio(results, sum.distance_computations),
            "ratio");
    run.Add("storage.hit_rate", cache_delta.HitRate(), "ratio");
    run.Add("storage.lookups", cache_delta.DemandLookups() / answered,
            "count");
    run.Add("storage.blocks_read", cache_delta.misses / answered, "count");
    run.Add("storage.evictions", cache_delta.evictions / answered, "count");
    std::vector<double> lag;
    for (const ReadOutcome& o : traced_reads) {
      if (o.sent) lag.push_back(o.lag_ms());
    }
    run.AddDist("driver.lag_ms", lag, "ms");
    const Summary traced_summary = Summarize(Latencies(traced_reads));
    run.Add("driver.trace_overhead_pct",
            100.0 * ratio(traced_summary.p50 - nominal.p50, nominal.p50), "%");
    const Summary unaccounted = Summarize(unaccounted_ms);
    run.Add("trace.unaccounted_ms.p50", unaccounted.p50, "ms");
    run.Add("trace.unaccounted_pct",
            100.0 * ratio(unaccounted.p50, Median(call_ms)), "%");
    run.Add("trace.replayed", static_cast<double>(replayed), "count");

    const std::string span_path = options.work_dir + "/spans-" + spec.name +
                                  "-" + std::to_string(options.seed) +
                                  ".jsonl";
    if (!log.WriteJsonLines(span_path)) {
      std::fprintf(stderr, "FATAL: cannot write %s\n", span_path.c_str());
      return 1;
    }
    char note[240];
    std::snprintf(note, sizeof(note),
                  "%zu spans -> %s; %zu of %zu traced wire calls matched "
                  "their server-side search, %d blocking-path sum "
                  "violations; %zu delta-scan samples on an unchanged view",
                  spans.size(), span_path.c_str(), wire_pairs.size(),
                  traced_reads.size(), trace_violations,
                  delta_scan_ms.size());
    run.notes.push_back(note);
    std::snprintf(note, sizeof(note),
                  "untraced query p50 %.3f ms, traced %.3f ms; %u shards "
                  "at the end",
                  nominal.p50, traced_summary.p50, num_shards);
    run.notes.push_back(note);
  }
  if (merges_refused > 0) {
    run.notes.push_back(std::to_string(merges_refused) + " merges refused");
  }
  replayers.clear();
  sharded.reset();
  if (stack) {
    stack.reset();
    std::filesystem::remove_all(snapshot_dir);
  }

  // -------------------------------------------------------- report
  const double fail_frac =
      run.tally.attempted > 0
          ? static_cast<double>(run.tally.failed) / run.tally.attempted
          : 0.0;
  for (const std::string& note : run.notes) std::printf("  %s\n", note.c_str());
  for (const Metric& m : run.metrics) {
    std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%-28s %.6g ratio (%llu of %llu operations; %llu wrong "
              "answers)\n",
              "fail_frac", fail_frac,
              static_cast<unsigned long long>(run.tally.failed),
              static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.wrong));
  if (spec.ingest) {
    std::printf("%-28s %.6g ms\n%-28s %.6g ms (p%.2f of %zu acks)\n",
                "ingest_p50_ms", ingest_ack.p50, "ingest_p99_ms",
                ingest_ack.tail, ingest_ack.tail_percentile, ingest_ack.n);
  }
  const bool correct = run.tally.wrong == 0 && trace_violations == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.tally.attempted),
              static_cast<unsigned long long>(run.tally.failed));
  for (size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    // A failed request's latency is infinite; JSON has no infinity.
    const double value = std::isfinite(m.value) ? m.value : 1e300;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace wirebench

int main(int argc, char** argv) {
  const std::optional<wirebench::Options> options =
      wirebench::Parse(argc, argv);
  if (!options) return wirebench::Usage("bad arguments");
  const wirebench::WorkloadSpec* spec =
      wirebench::FindWorkload(options->workload);
  if (spec == nullptr) return wirebench::Usage("unknown workload");
  const wirebench::CpuKeeper keeper(std::thread::hardware_concurrency());
  return wirebench::Execute(*options, *spec);
}
