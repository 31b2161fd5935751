// Aggregate queries shared by the workloads (text, oracle check), and the
// RemoteClient call and server-layer reporting of pan_remote and
// fleet_ingest.

#include <cmath>

#include "common.h"

namespace storm::perfbench {

AggQuery MakeAggQuery(AggKind kind, const Viewport& v, const std::string& table,
                      double target, uint64_t cap) {
  AggQuery q;
  q.kind = kind;
  q.v = v;
  q.target = target;
  const char* head = kind == AggKind::kAvg   ? "AVG(altitude)"
                     : kind == AggKind::kSum ? "SUM(altitude)"
                                             : "COUNT(*)";
  char tail[96];
  std::snprintf(tail, sizeof(tail), " ERROR %g%% SAMPLES %llu", target * 100,
                static_cast<unsigned long long>(cap));
  q.text = std::string("SELECT ") + head + " FROM " + table + " " +
           v.RegionClause() + tail;
  return q;
}

void CheckAggregate(const Oracle& oracle, const AggQuery& q,
                    const QueryResult& r, Correctness* check) {
  const Oracle::Truth t = oracle.Aggregate(q.v);
  if (t.count == 0) return;  // AVG over nothing is undefined
  const double truth = q.kind == AggKind::kAvg   ? t.avg
                       : q.kind == AggKind::kSum ? t.sum
                                                 : static_cast<double>(t.count);
  if (r.exhausted || r.ci.exact) {
    check->Exact(truth, r.ci.estimate);
  } else {
    check->Interval(truth, r.ci.estimate - r.ci.half_width,
                    r.ci.estimate + r.ci.half_width);
  }
}

RemoteOutcome RunRemote(RemoteClient& client, const AggQuery& q,
                        uint64_t trace_lo) {
  RemoteOutcome out;
  out.q = q;
  out.trace_lo = trace_lo;
  ExecOptions options;
  if (trace_lo != 0) options.trace = TraceFor(trace_lo);
  options.progress = [&](const QueryProgress& p) {
    ++out.progress_frames;
    const double ms = MsBetween(out.start, Clock::now());
    if (out.first_ci_ms < 0 && p.samples > 0 &&
        std::isfinite(p.ci.half_width)) {
      out.first_ci_ms = ms;
    }
    if (out.target_ci_ms < 0 && MeetsTarget(p.ci, q.target)) {
      out.target_ci_ms = ms;
    }
    return true;
  };
  out.start = Clock::now();
  Result<QueryResult> r = client.Execute(q.text, options);
  out.end = Clock::now();
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.result = std::move(*r);
  // A query that finishes between PROGRESS frames shows its CI first in
  // the RESULT.
  if (out.first_ci_ms < 0 && std::isfinite(out.result.ci.half_width)) {
    out.first_ci_ms = out.query_ms();
  }
  if (out.target_ci_ms < 0 && MeetsTarget(out.result.ci, q.target)) {
    out.target_ci_ms = out.query_ms();
  }
  return out;
}

void ReportQueries(const std::vector<RemoteOutcome>& outcomes,
                   Clock::time_point from, Clock::time_point to,
                   const StealFilter& filter, Report* report) {
  Samples first_ci, target_ci, query;
  uint64_t samples = 0;
  for (const RemoteOutcome& o : outcomes) {
    if (!o.status.ok() || !filter.Quiet(o.start, o.end)) continue;
    query.Add(o.query_ms());
    if (o.first_ci_ms >= 0) first_ci.Add(o.first_ci_ms);
    if (o.target_ci_ms >= 0) target_ci.Add(o.target_ci_ms);
    samples += o.result.samples;
  }
  const double seconds = filter.QuietSeconds(from, to);
  report->SetMedian("first_ci_ms_p50", first_ci, "ms");
  report->SetP99("first_ci_ms_p99", first_ci, "ms");
  report->SetMedian("target_ci_ms_p50", target_ci, "ms");
  report->SetP99("target_ci_ms_p99", target_ci, "ms");
  report->SetMedian("query_ms_p50", query, "ms");
  report->SetP99("query_ms_p99", query, "ms");
  report->Set("samples_per_s", static_cast<double>(samples) / seconds, "1/s");
  report->Set("queries_per_s", static_cast<double>(query.size()) / seconds,
              "1/s");
}

void ReportInserts(const InsertStats& inserts, const StealFilter& filter,
                   Report* report) {
  Samples ms;
  uint64_t rows = 0;
  double call_s = 0.0;
  for (const InsertStats::Batch& b : inserts.acked) {
    if (!filter.Quiet(b.due, b.acked)) continue;
    ms.Add(MsBetween(b.due, b.acked));
    rows += b.rows;
    call_s += MsBetween(b.sent, b.acked) / 1000.0;
  }
  report->SetMedian("insert_ms_p50", ms, "ms");
  report->SetP99("insert_ms_p99", ms, "ms");
  report->Set("insert_rows_per_s",
              call_s > 0 ? static_cast<double>(rows) / call_s : 0.0, "1/s");
}

double ReportServerLayer(const std::vector<RemoteOutcome>& traced,
                         const std::vector<BackendSpan>& spans, Report* report,
                         double* root_ms) {
  std::map<uint64_t, const BackendSpan*> by_trace;
  for (const BackendSpan& s : spans) by_trace[s.trace_lo] = &s;
  Samples queue, backend, wire, first_frame, encode_us, decode_us;
  uint64_t frames = 0;
  double unattributed = 0.0;
  for (const RemoteOutcome& o : traced) {
    if (!o.status.ok()) continue;
    *root_ms += o.query_ms();
    frames += o.progress_frames;
    auto it = by_trace.find(o.trace_lo);
    if (it == by_trace.end()) {
      unattributed += o.query_ms();
      continue;
    }
    const BackendSpan& s = *it->second;
    queue.Add(MsBetween(o.start, s.start));
    backend.Add(MsBetween(s.start, s.end));
    wire.Add(MsBetween(s.end, o.end));
    if (s.first_progress_ms >= 0) {
      first_frame.Add(MsBetween(o.start, s.start) + s.first_progress_ms);
    }
    // The RESULT codec, replayed on the answer the client decoded.
    const Clock::time_point e0 = Clock::now();
    const std::string payload = EncodeQueryResult(o.result);
    const Clock::time_point e1 = Clock::now();
    Result<QueryResult> decoded = DecodeQueryResult(payload);
    const Clock::time_point e2 = Clock::now();
    if (decoded.ok()) {
      encode_us.Add(MsBetween(e0, e1) * 1e3);
      decode_us.Add(MsBetween(e1, e2) * 1e3);
    }
  }
  report->SetMedian("server.queue_ms_p50", queue, "ms");
  report->SetP99("server.queue_ms_p99", queue, "ms");
  report->SetMedian("server.backend_ms_p50", backend, "ms");
  report->SetMedian("server.wire_ms_p50", wire, "ms");
  report->SetMedian("server.first_frame_ms_p50", first_frame, "ms");
  report->SetMedian("server.encode_result_us_p50", encode_us, "us");
  report->SetMedian("server.decode_result_us_p50", decode_us, "us");
  report->Set("server.progress_frames", static_cast<double>(frames), "count");
  return unattributed;
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot s;
  s.progress_dropped = CounterValue("storm_server_progress_dropped_total");
  s.shed = CounterValue("storm_server_shed_total");
  s.bytes_streamed = CounterValue("storm_server_bytes_streamed_total");
  s.rpc_failures = CounterValue("storm_coord_shard_rpc_failures_total");
  s.partials_dropped = CounterValue("storm_coord_partials_dropped_total");
  s.wal_syncs = CounterValue("storm_wal_syncs_total");
  const SampleReservoirCache& cache = SampleReservoirCache::Default();
  s.hits = cache.hits();
  s.misses = cache.misses();
  s.published = cache.published();
  s.evictions = cache.evictions();
  return s;
}

void ReportCounters(const CounterSnapshot& since,
                    const std::vector<BackendSpan>& spans, Report* report) {
  const CounterSnapshot now = CounterSnapshot::Take();
  auto count = [&](const char* name, uint64_t a, uint64_t b) {
    report->Set(name, static_cast<double>(b - a), "count");
  };
  count("server.progress_dropped", since.progress_dropped,
        now.progress_dropped);
  count("server.shed", since.shed, now.shed);
  report->Set("server.bytes_streamed",
              static_cast<double>(now.bytes_streamed - since.bytes_streamed),
              "bytes");
  count("cluster.rpc_failures", since.rpc_failures, now.rpc_failures);
  count("cluster.partials_dropped", since.partials_dropped,
        now.partials_dropped);
  count("cache.hits", since.hits, now.hits);
  count("cache.misses", since.misses, now.misses);
  count("cache.published", since.published, now.published);
  count("cache.evictions", since.evictions, now.evictions);
  report->Set("cache.bytes",
              static_cast<double>(SampleReservoirCache::Default().bytes()),
              "bytes");
  uint64_t samples = 0, cached = 0;
  for (const BackendSpan& s : spans) {
    samples += s.samples;
    cached += s.cache_samples;
  }
  report->Set("cache.hit_frac",
              samples > 0 ? static_cast<double>(cached) /
                                static_cast<double>(samples)
                          : 0.0,
              "ratio");
}

}  // namespace storm::perfbench
