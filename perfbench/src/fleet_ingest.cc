// fleet_ingest: three in-process shard StormServers over durable partitions
// of the 500k-point table (record i on shard i % 3), a NetCoordinator (one
// replica per partition) fronted by its own StormServer, two closed-loop
// reader RemoteClients and one open-loop writer RemoteClient, all against
// the coordinator's server.
//
// Readers run AVG/SUM/COUNT with ERROR targets over a small hot set of
// viewports west of -75 degrees longitude. The writer sends InsertBatch of
// fresh seeded documents at a fixed rate, each timed from its due time, and
// a Checkpoint every kCheckpointEvery batches. Its documents land east of
// -70 degrees, outside every hot viewport, so the readers' truth stays
// fixed while every insert still moves the shard's table epoch (and so
// invalidates the shard's cached reservoirs). After the run one exact
// COUNT(*) through the fleet must equal the loaded plus acknowledged rows.

#include <cmath>
#include <cstdio>
#include <thread>

#include "common.h"

namespace storm::perfbench {
namespace {

constexpr uint64_t kTablePoints = 500'000;
constexpr int kShards = 3;
constexpr int kReaders = 2;
constexpr int kSetupReps = 3;
// Per-shard sample backstop; the ERROR targets usually stop a query first.
constexpr uint64_t kReaderCap = 20'000;
// Reader think time between queries (a user reading the answer). It also
// bounds memory: the coordinator dials every shard afresh for each query,
// and every thread that records a flight-recorder event keeps its 1024-slot
// ring for the life of the process, so each query leaves ~200 KB behind and
// back-to-back readers would grow the process by gigabytes per run.
constexpr auto kThinkTime = std::chrono::milliseconds(5);
constexpr double kBatchesPerSecond = 250.0;
constexpr int kBatchRows = 8;
// A checkpoint every 0.5 s: the batches and queries that wait behind one
// are then a steady few percent of the run, so the p99s measure that wait
// rather than whether one of a handful of checkpoints fell into the run.
constexpr int kCheckpointEvery = 125;
constexpr uint32_t kProgressIntervalMs = 50;
constexpr auto kTraceLead = std::chrono::milliseconds(50);

/// The readers' hot set, the same for every seed (the popular viewports of
/// the map): selectivities 3-15%, all west of -75 degrees. The seed drives
/// which of them each query asks, and the writer's documents.
std::vector<Viewport> HotSet(const Oracle& oracle) {
  const double selectivity[] = {0.03, 0.04, 0.05, 0.06, 0.08, 0.10, 0.12, 0.15};
  Rng rng(0x407);
  std::vector<Viewport> hot;
  for (double sel : selectivity) {
    Viewport v = oracle.SizedViewport(sel, &rng);
    while (v.x1 >= -75.0) v = oracle.SizedViewport(sel, &rng);
    hot.push_back(v);
  }
  return hot;
}

AggQuery ReaderQuery(const std::vector<Viewport>& hot, Rng* rng) {
  const Viewport& v = hot[rng->Uniform(hot.size())];
  switch (rng->Uniform(3)) {
    case 0:
      return MakeAggQuery(AggKind::kAvg, v, "osm", 0.002, kReaderCap);
    case 1:
      return MakeAggQuery(AggKind::kSum, v, "osm", 0.004, kReaderCap);
    default:
      return MakeAggQuery(AggKind::kCount, v, "osm", 0.004, kReaderCap);
  }
}

/// Fresh documents for the writer: east of every hot viewport.
std::vector<Value> WriterDocs(size_t n, uint64_t seed) {
  Rng rng(seed ^ 0x3217e5);
  std::vector<Value> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    OsmPoint p;
    p.lon = rng.UniformDouble(-70.0, -66.5);
    p.lat = rng.UniformDouble(25.0, 48.0);
    p.altitude = rng.UniformDouble(0.0, 3000.0);
    p.id = 10'000'000 + i;
    docs.push_back(OsmLikeGenerator::ToDocument(p));
  }
  return docs;
}

struct Shard {
  std::unique_ptr<Session> session;
  std::unique_ptr<SessionBackend> backend;
  std::unique_ptr<TimingBackend> timing;
  std::unique_ptr<StormServer> server;
};

struct Fleet {
  std::vector<Shard> shards;
  std::unique_ptr<NetCoordinator> coordinator;
  std::unique_ptr<TimingBackend> coord_timing;
  std::unique_ptr<StormServer> front;
  std::vector<std::unique_ptr<RemoteClient>> clients;  // readers, then writer

  void Stop() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (front != nullptr) front->Stop();
    if (coordinator != nullptr) coordinator->Stop();
    for (Shard& s : shards) {
      if (s.server != nullptr) s.server->Stop();
    }
  }
  void SetTracing(bool on) {
    if (coord_timing != nullptr) coord_timing->set_enabled(on);
    for (Shard& s : shards) {
      if (s.timing != nullptr) s.timing->set_enabled(on);
    }
  }
};

Status SetUp(const std::vector<Value>& docs, bool trace,
             const std::vector<Viewport>& hot, uint64_t seed, Fleet* f,
             double* create_s, double* start_s) {
  ServerOptions options;
  options.trace_sample_rate = 0.0;
  TableConfig config;
  config.durable = true;
  const Clock::time_point t0 = Clock::now();
  for (int k = 0; k < kShards; ++k) {
    std::vector<Value> slice;
    for (size_t i = static_cast<size_t>(k); i < docs.size(); i += kShards) {
      slice.push_back(docs[i]);
    }
    Shard s;
    s.session = std::make_unique<Session>();
    STORM_RETURN_NOT_OK(s.session->CreateTable("osm", slice, {}, config));
    f->shards.push_back(std::move(s));
  }
  const Clock::time_point t1 = Clock::now();
  std::vector<ShardEndpoint> endpoints;
  for (Shard& s : f->shards) {
    if (trace) {
      s.backend = std::make_unique<SessionBackend>(s.session.get());
      s.timing = std::make_unique<TimingBackend>(s.backend.get());
      s.server = std::make_unique<StormServer>(s.timing.get(), options);
    } else {
      s.server = std::make_unique<StormServer>(s.session.get(), options);
    }
    STORM_RETURN_NOT_OK(s.server->Start());
    endpoints.push_back(ShardEndpoint{"127.0.0.1", s.server->port()});
  }
  f->coordinator = std::make_unique<NetCoordinator>(endpoints);
  STORM_RETURN_NOT_OK(f->coordinator->Start());
  if (trace) {
    f->coord_timing = std::make_unique<TimingBackend>(f->coordinator.get());
    f->front = std::make_unique<StormServer>(f->coord_timing.get(), options);
  } else {
    f->front = std::make_unique<StormServer>(f->coordinator.get(), options);
  }
  STORM_RETURN_NOT_OK(f->front->Start());
  for (int c = 0; c < kReaders + 1; ++c) {
    auto client = std::make_unique<RemoteClient>();
    STORM_RETURN_NOT_OK(client->Connect("127.0.0.1", f->front->port()));
    client->set_trace_sample_rate(0.0);
    client->set_progress_interval_ms(kProgressIntervalMs);
    f->clients.push_back(std::move(client));
  }
  f->SetTracing(false);
  const Clock::time_point t2 = Clock::now();
  *create_s = MsBetween(t0, t1) / 1000.0;
  *start_s = MsBetween(t1, t2) / 1000.0;
  // Warm-up: every hot viewport and kind once, through the fleet.
  Rng rng(seed ^ 0x3a7f);
  for (size_t i = 0; i < 3 * hot.size(); ++i) {
    RemoteOutcome o = RunRemote(*f->clients[0], ReaderQuery(hot, &rng), 0);
    STORM_RETURN_NOT_OK(o.status);
  }
  return Status::OK();
}

uint64_t DiskBytesWritten(Fleet& f) {
  uint64_t bytes = 0;
  for (Shard& s : f.shards) {
    Result<Table*> t = s.session->GetTable("osm");
    if (t.ok() && (*t)->disk() != nullptr) {
      bytes += (*t)->disk()->stats().physical_writes * (*t)->disk()->page_size();
    }
  }
  return bytes;
}

}  // namespace

int RunFleetIngest(const Args& args) {
  const std::vector<OsmPoint> points = MakePoints(kTablePoints, 0);
  const std::vector<Value> docs = ToDocs(points);
  const Oracle oracle(points);
  const std::vector<Viewport> hot = HotSet(oracle);
  const size_t max_batches =
      static_cast<size_t>(args.seconds * kBatchesPerSecond) + 1;
  const std::vector<Value> writer_docs =
      WriterDocs(max_batches * kBatchRows, args.seed);

  Fleet fleet;
  Samples setup_s, create_s, start_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.Stop();
    fleet = Fleet();
    SampleReservoirCache::Default().Clear();
    const Clock::time_point t0 = Clock::now();
    double c = 0, s = 0;
    Status st = SetUp(docs, args.trace, hot, args.seed, &fleet, &c, &s);
    if (!st.ok()) {
      std::fprintf(stderr, "fleet_ingest setup: %s\n", st.ToString().c_str());
      fleet.Stop();
      return 1;
    }
    setup_s.Add(MsBetween(t0, Clock::now()) / 1000.0);
    create_s.Add(c);
    start_s.Add(s);
  }
  // Memory is read here, before the timed run: every fleet query leaks its
  // connections' flight-recorder rings (see kThinkTime), so a later reading
  // would scale with the query count.
  const double rss_mb = PeakRssMb();

  // --- Timed run: readers closed-loop, writer open-loop ---
  StealFilter steal;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::microseconds(static_cast<int64_t>(args.seconds * 1e6));
  const Clock::time_point trace_from =
      args.trace ? start + (stop - start) / 2 : stop;
  std::vector<std::vector<RemoteOutcome>> per(kReaders);
  std::vector<std::thread> threads;
  for (int c = 0; c < kReaders; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c));
      for (int i = 0; Clock::now() < stop; ++i) {
        // Tag calls only once the decorators (switched on by the writer at
        // its first batch due after trace_from) are certainly recording.
        const uint64_t trace_lo =
            Clock::now() >= trace_from + kTraceLead
                ? (static_cast<uint64_t>(c + 1) << 32) | (i + 1)
                : 0;
        per[c].push_back(
            RunRemote(*fleet.clients[c], ReaderQuery(hot, &rng), trace_lo));
        std::this_thread::sleep_for(kThinkTime);
      }
    });
  }
  // The writer: batch k is due at start + k / rate; latency runs from the
  // due time, so a stall shows in every batch queued behind it.
  InsertStats inserts;
  Samples late_ms;
  uint64_t acked_rows = 0, user_bytes = 0, traced_batches = 0;
  uint64_t write_failures = 0, writes = 0, checkpoint_failures = 0;
  std::string first_write_error;
  uint64_t disk_bytes0 = 0;
  CounterSnapshot at_trace;
  threads.emplace_back([&] {
    RemoteClient& writer = *fleet.clients[kReaders];
    bool tracing = false;
    for (size_t k = 0; k < max_batches; ++k) {
      const Clock::time_point due =
          start + std::chrono::microseconds(
                      static_cast<int64_t>(k * 1e6 / kBatchesPerSecond));
      if (due >= stop) break;
      std::this_thread::sleep_until(due);
      if (!tracing && Clock::now() >= trace_from) {
        tracing = true;
        fleet.SetTracing(true);
        disk_bytes0 = DiskBytesWritten(fleet);
        at_trace = CounterSnapshot::Take();
      }
      const Clock::time_point sent = Clock::now();
      std::vector<Value> batch(writer_docs.begin() + k * kBatchRows,
                               writer_docs.begin() + (k + 1) * kBatchRows);
      BatchInsertResult r = writer.InsertBatch("osm", batch);
      const Clock::time_point acked = Clock::now();
      ++writes;
      if (!r.status.ok() || r.ids.size() != batch.size()) {
        ++write_failures;
        if (first_write_error.empty()) first_write_error = r.status.ToString();
        acked_rows += r.ids.size();
      } else {
        acked_rows += batch.size();
        inserts.acked.push_back(
            InsertStats::Batch{due, sent, acked, batch.size()});
        late_ms.Add(MsBetween(due, sent));
        if (tracing) {
          ++traced_batches;
          for (const Value& d : batch) user_bytes += d.ToJson().size();
        }
      }
      if ((k + 1) % kCheckpointEvery == 0) {
        ++writes;
        if (!writer.Checkpoint("osm").ok()) ++checkpoint_failures;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  const Clock::time_point end = Clock::now();
  steal.Stop();
  const uint64_t disk_bytes = DiskBytesWritten(fleet) - disk_bytes0;

  Report report;
  Correctness check;
  if (args.trace) {
    // Counter deltas first: the final count below adds fleet traffic. The
    // cache lives in the shards, so the hit fraction comes from their spans.
    std::vector<BackendSpan> shard_queries;
    for (Shard& s : fleet.shards) {
      for (const BackendSpan& span : s.timing->queries()) {
        shard_queries.push_back(span);
      }
    }
    ReportCounters(at_trace, shard_queries, &report);
    report.Set("io.syncs_per_batch",
               traced_batches > 0
                   ? static_cast<double>(CounterValue("storm_wal_syncs_total") -
                                         at_trace.wal_syncs) /
                         static_cast<double>(traced_batches)
                   : 0.0,
               "ratio");
  }

  // --- Final exact count through the fleet (outside the timed region) ---
  {
    const AggQuery count = [] {
      AggQuery q;
      q.kind = AggKind::kCount;
      q.text = "SELECT COUNT(*) FROM osm SAMPLES 1 USING QUERYFIRST NOCACHE";
      return q;
    }();
    RemoteOutcome o = RunRemote(*fleet.clients[0], count, 0);
    const double want = static_cast<double>(kTablePoints + acked_rows);
    if (!o.status.ok()) {
      check.Fail("final count failed: " + o.status.ToString());
    } else if (std::fabs(o.result.ci.estimate - want) > 0.5) {
      char buf[128];
      std::snprintf(buf, sizeof(buf), "final COUNT(*) %.0f != loaded+acked %.0f",
                    o.result.ci.estimate, want);
      check.Fail(buf);
    }
  }

  std::vector<BackendSpan> coord_spans;
  std::vector<std::vector<BackendSpan>> shard_spans;
  Samples shard_insert_ms, checkpoint_ms;
  if (args.trace) {
    coord_spans = fleet.coord_timing->queries();
    for (Shard& s : fleet.shards) {
      shard_spans.push_back(s.timing->queries());
      shard_insert_ms.Append(s.timing->insert_ms());
      checkpoint_ms.Append(s.timing->checkpoint_ms());
    }
  }
  fleet.Stop();

  std::vector<RemoteOutcome> untraced, traced;
  for (auto& v : per) {
    for (RemoteOutcome& o : v) {
      (o.trace_lo != 0 ? traced : untraced).push_back(std::move(o));
    }
  }
  uint64_t attempted = writes + 1, op_failures = write_failures +
                                                 checkpoint_failures;
  if (write_failures > 0) check.Fail("insert failed: " + first_write_error);
  if (checkpoint_failures > 0) check.Fail("checkpoint failed");
  for (const auto* set : {&untraced, &traced}) {
    for (const RemoteOutcome& o : *set) {
      ++attempted;
      if (!o.status.ok()) {
        ++op_failures;
        check.Fail("query failed: " + o.status.ToString());
      } else {
        CheckAggregate(oracle, o.q, o.result, &check);
      }
    }
  }

  report.Meta("workload", "fleet_ingest");
  report.Meta("table_points", static_cast<double>(kTablePoints));
  report.Meta("shards", kShards);
  report.Meta("client_threads", kReaders + 1);
  report.Meta("writer_batches_per_s", kBatchesPerSecond);
  report.Meta("writer_batch_rows", kBatchRows);
  report.Meta("checkpoint_every_batches", kCheckpointEvery);
  report.Meta("setup_reps", kSetupReps);
  report.Meta("queries", static_cast<double>(untraced.size() + traced.size()));
  report.Meta("acked_rows", static_cast<double>(acked_rows));
  report.Meta("correctness", check.Summary());
  report.Meta("steal_noisy_frac", steal.noisy_frac());
  report.Meta("defaults",
              "durable shard tables; ServerOptions defaults except "
              "trace_sample_rate=0; NetCoordinatorOptions defaults (R=1)");

  if (!args.trace) {
    report.SetMedian("setup_s", setup_s, "s");
    report.Set("rss_mb", rss_mb, "MiB");
    ReportQueries(untraced, start, end, steal, &report);
    ReportInserts(inserts, steal, &report);
  } else {
    Samples base, with_trace;
    for (const RemoteOutcome& o : untraced) {
      if (o.status.ok()) base.Add(o.query_ms());
    }
    for (const RemoteOutcome& o : traced) {
      if (o.status.ok()) with_trace.Add(o.query_ms());
    }
    double root_ms = 0.0;
    const double unattributed =
        ReportServerLayer(traced, coord_spans, &report, &root_ms);

    // Coordinator vs slowest shard, joined on the propagated trace id.
    std::map<uint64_t, double> slowest_shard;
    for (const auto& spans : shard_spans) {
      for (const BackendSpan& s : spans) {
        double& m = slowest_shard[s.trace_lo];
        m = std::max(m, MsBetween(s.start, s.end));
      }
    }
    Samples coord_ms, shard_max_ms, merge_ms, first_merged_ms;
    for (const BackendSpan& s : coord_spans) {
      if (s.trace_lo == 0) continue;  // in flight when tracing switched on
      coord_ms.Add(MsBetween(s.start, s.end));
      if (s.first_progress_ms >= 0) first_merged_ms.Add(s.first_progress_ms);
      auto it = slowest_shard.find(s.trace_lo);
      if (it != slowest_shard.end()) {
        shard_max_ms.Add(it->second);
        merge_ms.Add(MsBetween(s.start, s.end) - it->second);
      }
    }
    report.SetMedian("cluster.coord_backend_ms_p50", coord_ms, "ms");
    report.SetP99("cluster.coord_backend_ms_p99", coord_ms, "ms");
    report.SetMedian("cluster.shard_backend_ms_max_p50", shard_max_ms,
                     "ms");
    report.SetMedian("cluster.merge_ms_p50", merge_ms, "ms");
    report.SetMedian("cluster.first_merged_ms_p50", first_merged_ms, "ms");

    report.SetMedian("update.shard_insert_ms_p50", shard_insert_ms, "ms");
    report.SetP99("update.shard_insert_ms_p99", shard_insert_ms, "ms");
    report.SetMedian("wal.checkpoint_ms_p50", checkpoint_ms, "ms");
    report.Set("io.bytes_written_per_user_byte",
               user_bytes > 0 ? static_cast<double>(disk_bytes) /
                                    static_cast<double>(user_bytes)
                              : 0.0,
               "ratio");
    report.SetMedian("setup.create_table_s", create_s, "s");
    report.SetMedian("setup.fleet_start_s", start_s, "s");
    report.SetP99("gen.writer_late_ms_p99", late_ms, "ms");
    report.Set("trace.overhead_frac",
               base.Median() > 0
                   ? (with_trace.Median() - base.Median()) / base.Median()
                   : 0.0,
               "ratio");
    report.Set("trace.unattributed_frac",
               root_ms > 0 ? unattributed / root_ms : 0.0, "ratio");
  }

  const bool correct = check.Ok();
  std::fprintf(stderr, "fleet_ingest: %s\n", check.Summary().c_str());
  report.Print(correct, attempted, correct ? op_failures : attempted);
  return 0;
}

}  // namespace storm::perfbench
