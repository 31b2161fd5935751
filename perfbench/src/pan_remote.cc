// pan_remote: three closed-loop RemoteClients against one in-process
// StormServer(SessionBackend) over loopback, on the 500k-point table with
// the shared sample-reservoir cache on (library default, 64 MiB). Every
// client alternates the shared overview viewport (each sixth query) with
// seeded pans inside it, as in ablation_server's overlap scenario; the hot
// set fits the cache. Progress cadence 50 ms, trace sampling 0 on both the
// clients and the server; every other library default is kept.
//
// Traced run: the server runs behind a TimingBackend; in the second half of
// the run every call carries a trace id the backend span is joined on.

#include <cmath>
#include <cstdio>
#include <thread>

#include "common.h"

namespace storm::perfbench {
namespace {

constexpr uint64_t kTablePoints = 500'000;
constexpr int kClients = 3;
constexpr int kSetupReps = 3;
constexpr uint32_t kProgressIntervalMs = 50;
constexpr auto kTraceLead = std::chrono::milliseconds(50);
constexpr uint64_t kOverviewCap = 60'000;
constexpr uint64_t kPanCap = 15'000;
constexpr double kOverviewTarget = 0.002;
constexpr double kPanTarget = 0.005;
const Viewport kOverview{-112.0, 28.0, -88.0, 46.0};

/// Query i of client c: the overview every sixth query, else a seeded
/// half-size pan inside it.
AggQuery PanQuery(int i, Rng* rng) {
  if (i % 6 == 0) {
    return MakeAggQuery(AggKind::kAvg, kOverview, "osm", kOverviewTarget,
                        kOverviewCap);
  }
  const double x0 = rng->UniformDouble(-112.0, -100.0);
  const double y0 = rng->UniformDouble(28.0, 37.0);
  return MakeAggQuery(AggKind::kAvg,
                      Viewport{x0, y0, x0 + 12.0, y0 + 9.0}.Rounded(), "osm",
                      kPanTarget, kPanCap);
}

struct Served {
  std::unique_ptr<Session> session;
  std::unique_ptr<SessionBackend> backend;
  std::unique_ptr<TimingBackend> timing;
  std::unique_ptr<StormServer> server;
  std::vector<std::unique_ptr<RemoteClient>> clients;

  void Stop() {
    for (auto& c : clients) c->Close();
    clients.clear();
    if (server != nullptr) server->Stop();
  }
};

Status SetUp(const std::vector<Value>& docs, bool trace, uint64_t seed,
             Served* s) {
  s->session = std::make_unique<Session>();
  STORM_RETURN_NOT_OK(s->session->CreateTable("osm", docs));
  ServerOptions options;
  options.trace_sample_rate = 0.0;
  if (trace) {
    s->backend = std::make_unique<SessionBackend>(s->session.get());
    s->timing = std::make_unique<TimingBackend>(s->backend.get());
    s->timing->set_enabled(false);
    s->server = std::make_unique<StormServer>(s->timing.get(), options);
  } else {
    s->server = std::make_unique<StormServer>(s->session.get(), options);
  }
  STORM_RETURN_NOT_OK(s->server->Start());
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<RemoteClient>();
    STORM_RETURN_NOT_OK(client->Connect("127.0.0.1", s->server->port()));
    client->set_trace_sample_rate(0.0);
    client->set_progress_interval_ms(kProgressIntervalMs);
    s->clients.push_back(std::move(client));
  }
  // Warm-up: column materialization, RS-tree buffers, and the overview
  // reservoir the pans are served from.
  Rng rng(seed ^ 0x3a7f);
  for (int i = 0; i < 12; ++i) {
    RemoteOutcome o = RunRemote(*s->clients[0], PanQuery(i, &rng), 0);
    STORM_RETURN_NOT_OK(o.status);
  }
  return Status::OK();
}

}  // namespace

int RunPanRemote(const Args& args) {
  const std::vector<OsmPoint> points = MakePoints(kTablePoints, 0);
  const std::vector<Value> docs = ToDocs(points);
  const std::vector<Value> write_docs = WritePhaseDocs(args.seed);
  const Oracle oracle(points);

  // Set-up, repeated: CreateTable, server start, connects and warm-up, each
  // time from an empty cache. The last repetition serves the run.
  Served served;
  Samples setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    served.Stop();
    served = Served();
    SampleReservoirCache::Default().Clear();
    const Clock::time_point t0 = Clock::now();
    const Status st = SetUp(docs, args.trace, args.seed, &served);
    if (!st.ok()) {
      std::fprintf(stderr, "pan_remote setup: %s\n", st.ToString().c_str());
      served.Stop();
      return 1;
    }
    setup_s.Add(MsBetween(t0, Clock::now()) / 1000.0);
  }

  // --- Timed closed loop: one thread per client ---
  StealFilter steal;
  const Clock::time_point start = Clock::now();
  const Clock::time_point stop =
      start + std::chrono::microseconds(static_cast<int64_t>(args.seconds * 1e6));
  const Clock::time_point trace_from =
      args.trace ? start + (stop - start) / 2 : stop;
  std::vector<std::vector<RemoteOutcome>> per(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(c));
      for (int i = 0; Clock::now() < stop; ++i) {
        // Tag calls only once the decorator is certainly recording.
        const bool tracing = Clock::now() >= trace_from + kTraceLead;
        const uint64_t trace_lo =
            tracing ? (static_cast<uint64_t>(c + 1) << 32) | (i + 1) : 0;
        per[c].push_back(
            RunRemote(*served.clients[c], PanQuery(i, &rng), trace_lo));
      }
    });
  }
  CounterSnapshot at_trace;
  if (args.trace) {
    std::this_thread::sleep_until(trace_from);
    served.timing->set_enabled(true);
    at_trace = CounterSnapshot::Take();
  }
  for (std::thread& t : threads) t.join();
  const Clock::time_point end = Clock::now();
  const double rss_mb = PeakRssMb();

  std::vector<RemoteOutcome> untraced, traced;
  for (auto& v : per) {
    for (RemoteOutcome& o : v) {
      (o.trace_lo != 0 ? traced : untraced).push_back(std::move(o));
    }
  }
  Report report;
  Correctness check;
  uint64_t attempted = 0, op_failures = 0;
  for (const auto* set : {&untraced, &traced}) {
    for (const RemoteOutcome& o : *set) {
      ++attempted;
      if (!o.status.ok()) {
        ++op_failures;
        check.Fail("query failed: " + o.status.ToString());
      }
    }
  }

  std::vector<BackendSpan> spans;
  InsertStats inserts;
  if (served.timing != nullptr) {
    spans = served.timing->queries();
  } else {
    inserts = RunWritePhase(
        write_docs,
        [&](const std::vector<Value>& batch) {
          return served.clients[0]->InsertBatch("osm", batch);
        },
        &check, &attempted, &op_failures);
  }
  steal.Stop();
  served.Stop();

  // --- Correctness (outside the timed region) ---
  for (const auto* set : {&untraced, &traced}) {
    for (const RemoteOutcome& o : *set) {
      if (o.status.ok()) CheckAggregate(oracle, o.q, o.result, &check);
    }
  }

  report.Meta("workload", "pan_remote");
  report.Meta("table_points", static_cast<double>(kTablePoints));
  report.Meta("client_threads", kClients);
  report.Meta("setup_reps", kSetupReps);
  report.Meta("progress_interval_ms", kProgressIntervalMs);
  report.Meta("queries", static_cast<double>(untraced.size() + traced.size()));
  report.Meta("correctness", check.Summary());
  report.Meta("steal_noisy_frac", steal.noisy_frac());
  report.Meta("defaults",
              "ServerOptions defaults except trace_sample_rate=0 (4 query "
              "threads, 64 MiB sample cache); RemoteClient trace rate 0");

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
        ReportServerLayer(traced, spans, &report, &root_ms);
    ReportCounters(at_trace, spans, &report);
    report.Set("trace.overhead_frac",
               base.Median() > 0
                   ? (with_trace.Median() - base.Median()) / base.Median()
                   : 0.0,
               "ratio");
    report.Set("trace.unattributed_frac",
               root_ms > 0 ? unattributed / root_ms : 0.0, "ratio");
  }

  const bool correct = check.Ok();
  std::fprintf(stderr, "pan_remote: %s\n", check.Summary().c_str());
  report.Print(correct, attempted, correct ? op_failures : attempted);
  return 0;
}

}  // namespace storm::perfbench
