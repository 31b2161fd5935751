// explore_local: one closed-loop client calling Client::Execute with
// parallelism 1 and USING NOCACHE on a 500k-point OSM-like table. Fresh
// seeded viewports with log-uniform selectivity (0.01% .. 50%) make the
// optimizer pick every strategy; the mix is ~80% AVG/SUM/COUNT with an
// ERROR target and a SAMPLES backstop, ~20% MEDIAN, GROUP BY CELL(4,4) and
// KDE(32,32). The optimizer never picks the LS-tree on its own, and never
// upgrades to stratified execution here (the 500k-point RS-tree root has
// fewer than 4 children), so one in eight aggregates carries USING LSTREE
// and one in eight USING STRATIFIED.
//
// Traced run (--trace 1): the first half of the run is untraced (the
// overhead baseline); in the second half every query is replayed through
// ParseQuery -> QueryOptimizer::Choose -> Table::NewSampler / Begin ->
// NextBatch -> estimator Step, each call timed from outside, and the
// evaluator's self time is the root Client::Execute minus that replay.

#include <cmath>
#include <cstdio>
#include <limits>

#include "common.h"
#include "storm/estimator/stratified.h"
#include "storm/sampling/stratified.h"

namespace storm::perfbench {
namespace {

constexpr uint64_t kTablePoints = 500'000;
constexpr int kSetupReps = 3;
/// The client moves to the next vCPU this often (see RotateCpu).
constexpr double kRotateMs = 50.0;

enum class Kind { kAggregate, kMedian, kGroupBy, kKde };

struct Planned {
  Kind kind = Kind::kAggregate;
  AggKind agg = AggKind::kAvg;  ///< kAggregate only
  Viewport v;
  std::string text;
  double target = 0.0;  ///< ERROR target (relative)
};

Planned NextQuery(const Oracle& oracle, Rng* rng) {
  Planned q;
  const double sel =
      std::exp(rng->UniformDouble(std::log(1e-4), std::log(0.5)));
  q.v = oracle.SizedViewport(sel, rng);
  const double u = rng->UniformDouble();
  const std::string region = q.v.RegionClause();
  if (u < 0.8) {
    const double a = rng->UniformDouble();
    q.kind = Kind::kAggregate;
    q.agg = a < 0.5 ? AggKind::kAvg : (a < 0.75 ? AggKind::kSum : AggKind::kCount);
    q.target = 0.02;
    const uint64_t hint = rng->Uniform(8);
    q.text = MakeAggQuery(q.agg, q.v, "osm", q.target, 10'000).text +
             (hint == 0   ? " USING LSTREE NOCACHE"
              : hint == 1 ? " USING STRATIFIED NOCACHE"
                          : " USING NOCACHE");
  } else if (u < 0.8667) {
    q.kind = Kind::kMedian;
    q.target = 0.05;
    q.text = "SELECT MEDIAN(altitude) FROM osm " + region +
             " ERROR 5% SAMPLES 5000 USING NOCACHE";
  } else if (u < 0.9333) {
    q.kind = Kind::kGroupBy;
    q.target = 0.10;
    q.text = "SELECT AVG(altitude) FROM osm " + region +
             " GROUP BY CELL(4, 4) ERROR 10% SAMPLES 5000 USING NOCACHE";
  } else {
    q.kind = Kind::kKde;
    q.target = 0.10;
    q.text = "SELECT KDE(32, 32) FROM osm " + region +
             " ERROR 10% SAMPLES 5000 USING NOCACHE";
  }
  return q;
}

/// What the root Client::Execute call produced.
struct Outcome {
  Planned q;
  Status status;
  QueryResult result;
  Clock::time_point start, end;
  double query_ms = 0.0;
  double first_ci_ms = -1.0;
  double target_ci_ms = -1.0;
  uint64_t samples_at_target = 0;
};

Outcome RunRoot(Client& client, const Planned& q) {
  Outcome out;
  out.q = q;
  const Clock::time_point t0 = Clock::now();
  out.start = t0;
  ExecOptions options;
  options.progress = [&](const QueryProgress& p) {
    if (out.first_ci_ms < 0 && p.samples > 0 &&
        std::isfinite(p.ci.half_width)) {
      out.first_ci_ms = MsBetween(t0, Clock::now());
    }
    if (out.target_ci_ms < 0 && MeetsTarget(p.ci, q.target)) {
      out.target_ci_ms = MsBetween(t0, Clock::now());
      out.samples_at_target = p.samples;
    }
    return true;
  };
  Result<QueryResult> r = client.Execute(q.text, options);
  out.end = Clock::now();
  out.query_ms = MsBetween(t0, out.end);
  if (r.ok()) {
    out.result = std::move(*r);
  } else {
    out.status = r.status();
  }
  return out;
}

// --- Replay: the same query through the public layer entry points. ---

struct Replay {
  double parse_ns = 0, optimize_ns = 0, begin_ns = 0, draw_ns = 0;
  double loop_ns = 0, wall_ns = 0;
  uint64_t drawn = 0;
  SamplerStrategy strategy = SamplerStrategy::kAuto;
  bool timed_draws = true;  ///< false: draws inseparable from the estimator
};

bool Stratifiable(const QueryAst& ast) {
  return ast.task == QueryTask::kAggregate && ast.group_by.empty() &&
         !ast.GroupByCell() &&
         (ast.aggregate == AggregateKind::kAvg ||
          ast.aggregate == AggregateKind::kSum ||
          ast.aggregate == AggregateKind::kCount);
}

/// Pumps `est` the way the evaluator does: Step a batch, read the CI,
/// stop on the rule or when the stream runs dry. Returns the loop time.
template <typename Est, typename CiFn>
double Pump(Est& est, CiFn ci_of, const StoppingRule& rule) {
  const Clock::time_point t0 = Clock::now();
  while (true) {
    const uint64_t drawn = est.Step(64);
    const ConfidenceInterval ci = ci_of(est);
    if (rule.ShouldStop(ci, MsBetween(t0, Clock::now())) || drawn == 0) break;
  }
  return NsBetween(t0, Clock::now());
}

Result<Replay> RunReplay(Session& session, const Table& table,
                         const std::string& text) {
  Replay out;
  const Clock::time_point t0 = Clock::now();
  STORM_ASSIGN_OR_RETURN(QueryAst ast, ParseQuery(text));
  const Clock::time_point t1 = Clock::now();
  const QueryOptimizer& optimizer = *session.optimizer();
  const Rect3 box = ast.QueryBox();
  OptimizerDecision decision =
      optimizer.Choose(table, box, ast.sample_limit);
  out.strategy = ast.method;
  if (out.strategy == SamplerStrategy::kAuto) {
    out.strategy = decision.strategy;
    if (Stratifiable(ast) && optimizer.ShouldStratify(table, decision)) {
      out.strategy = SamplerStrategy::kStratified;
    }
  }
  const Clock::time_point t2 = Clock::now();
  out.parse_ns = NsBetween(t0, t1);
  out.optimize_ns = NsBetween(t1, t2);

  StoppingRule rule;
  rule.target_relative_error = ast.target_relative_error;
  rule.max_samples = ast.sample_limit;
  const uint64_t seed = table.rs_tree().size() * 0x9e37 + 17;
  STORM_ASSIGN_OR_RETURN(std::unique_ptr<SpatialSampler<3>> raw,
                         table.NewSampler(out.strategy, seed));
  STORM_ASSIGN_OR_RETURN(const std::vector<double>* column,
                         table.NumericColumn("altitude"));
  auto attr = [column](const RTree<3>::Entry& e) {
    return e.id < column->size() ? (*column)[e.id]
                                 : std::numeric_limits<double>::quiet_NaN();
  };

  if (out.strategy == SamplerStrategy::kStratified) {
    // The stratified estimator addresses strata on the concrete sampler, so
    // no decorator can sit between them: its draws are timed together with
    // the estimator feed.
    out.timed_draws = false;
    AttributeFn<3> agg_attr;
    if (ast.aggregate != AggregateKind::kCount) agg_attr = attr;
    StratifiedAggregator<3> agg(static_cast<StratifiedSampler<3>*>(raw.get()),
                                agg_attr, ast.aggregate, ast.confidence);
    STORM_RETURN_NOT_OK(agg.Begin(box));
    out.begin_ns = NsBetween(t2, Clock::now());
    out.loop_ns = Pump(agg, [](const auto& a) { return a.Current(); }, rule);
    out.draw_ns = out.loop_ns;
    out.drawn = agg.samples_drawn();
    out.wall_ns = NsBetween(t0, Clock::now());
    return out;
  }

  TimingSampler sampler(std::move(raw));
  auto finish = [&](double loop_ns) {
    out.loop_ns = loop_ns;
    out.draw_ns = sampler.draw_ns();
    out.drawn = sampler.drawn();
    out.wall_ns = NsBetween(t0, Clock::now());
  };
  if (ast.task == QueryTask::kQuantile) {
    OnlineQuantile<3> est(&sampler, attr, ast.quantile_phi, ast.confidence);
    STORM_RETURN_NOT_OK(est.Begin(box));
    out.begin_ns = NsBetween(t2, Clock::now());
    finish(Pump(est, [](const auto& e) { return e.Current(); }, rule));
  } else if (ast.task == QueryTask::kKde) {
    KdeOptions options;
    options.grid_width = ast.kde_width;
    options.grid_height = ast.kde_height;
    options.confidence = ast.confidence;
    OnlineKde<3> kde(&sampler, *ast.region, options);
    STORM_RETURN_NOT_OK(kde.Begin(box));
    out.begin_ns = NsBetween(t2, Clock::now());
    finish(Pump(
        kde,
        [&](const OnlineKde<3>& k) {
          ConfidenceInterval q;
          q.samples = k.samples();
          q.confidence = ast.confidence;
          q.half_width = k.MaxHalfWidth();
          if (k.samples() > 0) {
            std::vector<double> map = k.DensityMap();
            double mean = 0;
            for (double d : map) mean += d;
            q.estimate = map.empty() ? 0.0 : mean / static_cast<double>(map.size());
          }
          q.exact = k.Exhausted();
          return q;
        },
        rule));
  } else if (ast.GroupByCell()) {
    const double x0 = box.lo()[0], x1 = box.hi()[0];
    const double y0 = box.lo()[1], y1 = box.hi()[1];
    const int nx = ast.cell_grid_x, ny = ast.cell_grid_y;
    auto key = [=](const RTree<3>::Entry& e) -> int64_t {
      auto cell = [](double v, double lo, double hi, int n) {
        if (hi <= lo) return 0;
        return std::clamp(static_cast<int>((v - lo) / (hi - lo) * n), 0, n - 1);
      };
      return static_cast<int64_t>(cell(e.point[1], y0, y1, ny)) * nx +
             cell(e.point[0], x0, x1, nx);
    };
    GroupByAggregator<3> est(&sampler, key, attr, ast.aggregate,
                             ast.confidence);
    STORM_RETURN_NOT_OK(est.Begin(box));
    out.begin_ns = NsBetween(t2, Clock::now());
    finish(Pump(
        est,
        [](const GroupByAggregator<3>& a) {
          ConfidenceInterval worst;
          worst.samples = a.total_samples();
          double worst_hw = 0.0;
          for (const auto& g : a.Current()) {
            if (g.ci.half_width > worst_hw) {
              worst_hw = g.ci.half_width;
              worst = g.ci;
              worst.samples = a.total_samples();
            }
          }
          return worst;
        },
        rule));
  } else {
    AttributeFn<3> agg_attr;
    if (ast.aggregate != AggregateKind::kCount) agg_attr = attr;
    OnlineAggregator<3> est(&sampler, agg_attr, ast.aggregate, ast.confidence);
    STORM_RETURN_NOT_OK(est.Begin(box));
    out.begin_ns = NsBetween(t2, Clock::now());
    finish(Pump(est, [](const auto& e) { return e.Current(); }, rule));
  }
  return out;
}

std::string StrategyKey(std::string_view name) {
  if (name == "RSTREE") return "rs_tree";
  if (name == "LSTREE") return "ls_tree";
  if (name == "QUERYFIRST") return "query_first";
  if (name == "SAMPLEFIRST") return "sample_first";
  if (name == "STRATIFIED") return "stratified";
  if (name == "RANDOMPATH") return "random_path";
  return "other";
}

const char* const kStrategies[] = {"rs_tree", "ls_tree", "query_first",
                                   "sample_first", "stratified"};

// --- Correctness oracle ---

void Check(const Oracle& oracle, const Outcome& o, Correctness* check) {
  if (!o.status.ok()) {
    check->Fail("query failed: " + o.status.ToString());
    return;
  }
  const QueryResult& r = o.result;
  if (r.samples == 0 && !r.exhausted) {
    check->Fail("query drew no samples: " + o.q.text);
    return;
  }
  switch (o.q.kind) {
    case Kind::kAggregate:
      CheckAggregate(oracle, AggQuery{o.q.agg, o.q.v, o.q.target, o.q.text}, r,
                     check);
      return;
    case Kind::kMedian: {
      const std::vector<double> values = oracle.Values(o.q.v);
      if (values.empty()) return;
      const size_t k = values.size();
      const double truth =
          values[std::min(k - 1, static_cast<size_t>(std::floor(0.5 * k)))];
      if (r.exhausted || r.ci.exact) {
        check->Exact(truth, r.ci.estimate);
      } else {
        check->Interval(truth, r.ci_lower, r.ci_upper);
      }
      return;
    }
    case Kind::kGroupBy:
      for (const GroupRow& g : r.groups) {
        if (!std::isfinite(g.ci.estimate)) {
          check->Fail("non-finite group estimate");
          return;
        }
      }
      return;
    case Kind::kKde:
      if (r.kde_map.size() != 32u * 32u) {
        check->Fail("KDE map has the wrong size");
        return;
      }
      for (double d : r.kde_map) {
        if (!std::isfinite(d) || d < 0) {
          check->Fail("KDE density not finite and non-negative");
          return;
        }
      }
      return;
  }
}

// --- Set-up ---

/// Untimed-by-the-loop warm-up: materializes the altitude column and fills
/// RS-tree buffers and LS-tree levels across strategies and selectivities.
void WarmUp(Client& client, const Oracle& oracle, uint64_t seed) {
  Rng rng(seed ^ 0x3a7f);
  const char* hints[] = {"RSTREE", "LSTREE", "QUERYFIRST", "SAMPLEFIRST",
                         "STRATIFIED"};
  const double sels[] = {0.0005, 0.005, 0.05, 0.3};
  for (const char* hint : hints) {
    for (double sel : sels) {
      const Viewport v = oracle.SizedViewport(sel, &rng);
      (void)client.Execute("SELECT AVG(altitude) FROM osm " + v.RegionClause() +
                           " SAMPLES 2000 USING " + hint + " NOCACHE");
    }
  }
  for (int i = 0; i < 8; ++i) {
    (void)RunRoot(client, NextQuery(oracle, &rng));
  }
}

}  // namespace

int RunExploreLocal(const Args& args) {
  const std::vector<OsmPoint> points = MakePoints(kTablePoints, 0);
  const std::vector<Value> docs = ToDocs(points);
  const std::vector<Value> write_docs = WritePhaseDocs(args.seed);
  const Oracle oracle(points);

  Report report;
  Correctness check;
  uint64_t attempted = 0, op_failures = 0;

  // Set-up, repeated: CreateTable + warm-up (what users pay before the
  // first timed query). The last repetition's table stays for the run.
  Client client;
  Samples setup_s, create_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (client.HasTable("osm")) (void)client.DropTable("osm");
    const Clock::time_point t0 = Clock::now();
    const Status st = client.CreateTable("osm", docs);
    if (!st.ok()) {
      std::fprintf(stderr, "create table: %s\n", st.ToString().c_str());
      return 1;
    }
    create_s.Add(MsBetween(t0, Clock::now()) / 1000.0);
    WarmUp(client, oracle, args.seed);
    setup_s.Add(MsBetween(t0, Clock::now()) / 1000.0);
  }
  Table* table = *client.session().GetTable("osm");

  const CounterSnapshot counters0 = CounterSnapshot::Take();

  // --- Timed closed loop ---
  Rng rng(args.seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<Outcome> untraced, traced;
  struct TracedQuery {
    Replay replay;
    bool ok = false;
  };
  std::vector<TracedQuery> replays;
  StealFilter steal;
  const Clock::time_point start = Clock::now();
  Clock::time_point untraced_end = start;
  double rotated_ms = -1e9;
  while (true) {
    const double now_ms = MsBetween(start, Clock::now());
    if (now_ms >= args.seconds * 1000.0) break;
    if (now_ms - rotated_ms >= kRotateMs) {
      RotateCpu();
      rotated_ms = now_ms;
    }
    const bool tracing = args.trace && now_ms >= args.seconds * 500.0;
    const Planned q = NextQuery(oracle, &rng);
    Outcome o = RunRoot(client, q);
    ++attempted;
    if (!o.status.ok()) ++op_failures;
    if (tracing) {
      Result<Replay> rep = RunReplay(client.session(), *table, q.text);
      TracedQuery tq;
      tq.ok = rep.ok();
      if (rep.ok()) tq.replay = *rep;
      replays.push_back(tq);
      traced.push_back(std::move(o));
    } else {
      untraced.push_back(std::move(o));
      untraced_end = Clock::now();
    }
  }
  const double rss_mb = PeakRssMb();
  InsertStats inserts;
  if (!args.trace) {
    const Clock::time_point writes_start = Clock::now();
    rotated_ms = -1e9;
    inserts = RunWritePhase(
        write_docs,
        [&](const std::vector<Value>& batch) {
          const double now_ms = MsBetween(writes_start, Clock::now());
          if (now_ms - rotated_ms >= kRotateMs) {
            RotateCpu();
            rotated_ms = now_ms;
          }
          return client.InsertBatch("osm", batch);
        },
        &check, &attempted, &op_failures);
  }
  steal.Stop();

  // --- Correctness (outside the timed region) ---
  for (const Outcome& o : untraced) Check(oracle, o, &check);
  for (const Outcome& o : traced) Check(oracle, o, &check);

  report.Meta("workload", "explore_local");
  report.Meta("table_points", static_cast<double>(kTablePoints));
  report.Meta("client_threads", 1);
  report.Meta("parallelism", 1);
  report.Meta("setup_reps", kSetupReps);
  report.Meta("queries", static_cast<double>(untraced.size() + traced.size()));
  report.Meta("correctness", check.Summary());
  report.Meta("steal_noisy_frac", steal.noisy_frac());
  report.Meta("defaults",
              "ExecOptions defaults (profile on, batch 64); TableConfig "
              "defaults (RS-tree + LS-tree, 1024-page buffer pool)");

  if (!args.trace) {
    Samples first_ci, target_ci, query;
    uint64_t samples = 0;
    for (const Outcome& o : untraced) {
      if (!o.status.ok() || !steal.Quiet(o.start, o.end)) continue;
      query.Add(o.query_ms);
      if (o.first_ci_ms >= 0) first_ci.Add(o.first_ci_ms);
      if (o.target_ci_ms >= 0) target_ci.Add(o.target_ci_ms);
      samples += o.result.samples;
    }
    const double secs = steal.QuietSeconds(start, untraced_end);
    report.SetMedian("setup_s", setup_s, "s");
    report.Set("rss_mb", rss_mb, "MiB");
    report.SetMedian("first_ci_ms_p50", first_ci, "ms");
    report.SetP99("first_ci_ms_p99", first_ci, "ms");
    report.SetMedian("target_ci_ms_p50", target_ci, "ms");
    report.SetP99("target_ci_ms_p99", target_ci, "ms");
    report.SetMedian("query_ms_p50", query, "ms");
    report.SetP99("query_ms_p99", query, "ms");
    report.Set("samples_per_s", static_cast<double>(samples) / secs, "1/s");
    report.Set("queries_per_s", static_cast<double>(query.size()) / secs,
               "1/s");
    ReportInserts(inserts, steal, &report);
  } else {
    // --- Per-layer attribution over the traced half ---
    Samples parse_us, optimize_us, self_ms, samples_to_target, base_query,
        traced_query;
    Samples kde_ms, group_ms, quantile_ms;
    std::map<std::string, Samples> begin_us;
    std::map<std::string, double> draw_ns, drawn;
    std::map<std::string, uint64_t> strategy_count;
    double est_ns = 0, est_samples = 0, root_ms = 0, unattributed_ms = 0,
           residual_ms = 0;
    for (const Outcome& o : untraced) {
      if (o.status.ok()) base_query.Add(o.query_ms);
    }
    for (size_t i = 0; i < traced.size(); ++i) {
      const Outcome& o = traced[i];
      if (!o.status.ok()) continue;
      traced_query.Add(o.query_ms);
      ++strategy_count[StrategyKey(o.result.strategy)];
      if (o.target_ci_ms >= 0 && o.q.kind == Kind::kAggregate) {
        samples_to_target.Add(static_cast<double>(o.samples_at_target));
      }
      if (!replays[i].ok) continue;
      const Replay& r = replays[i].replay;
      const std::string s =
          StrategyKey(SamplerStrategyToString(r.strategy));
      parse_us.Add(r.parse_ns / 1e3);
      optimize_us.Add(r.optimize_ns / 1e3);
      begin_us[s].Add(r.begin_ns / 1e3);
      draw_ns[s] += r.draw_ns;
      drawn[s] += static_cast<double>(r.drawn);
      const double self_ns = r.loop_ns - r.draw_ns;
      switch (o.q.kind) {
        case Kind::kMedian: quantile_ms.Add(self_ns / 1e6); break;
        case Kind::kGroupBy: group_ms.Add(self_ns / 1e6); break;
        case Kind::kKde: kde_ms.Add(self_ns / 1e6); break;
        default:
          if (r.timed_draws) {
            est_ns += self_ns;
            est_samples += static_cast<double>(r.drawn);
          }
      }
      self_ms.Add(o.query_ms - r.wall_ns / 1e6);
      // Named spans: parse, optimize, begin, loop (draw + estimator or
      // analytics), and the evaluator's self time (root minus replay).
      // What is left is the replay's glue between spans. The self time is
      // a residual, so it is also reported as its share of root time: a
      // growing share is time no named layer explains.
      root_ms += o.query_ms;
      residual_ms += o.query_ms - r.wall_ns / 1e6;
      unattributed_ms += std::max(
          0.0, (r.wall_ns - r.parse_ns - r.optimize_ns - r.begin_ns -
                r.loop_ns) / 1e6);
    }
    report.SetMedian("query.parse_us_p50", parse_us, "us");
    report.SetMedian("query.optimize_us_p50", optimize_us, "us");
    report.SetMedian("query.evaluator_self_ms_p50", self_ms, "ms");
    report.Set("query.evaluator_self_frac",
               root_ms > 0 ? residual_ms / root_ms : 0.0, "ratio");
    for (const char* s : kStrategies) {
      report.Set(std::string("query.strategy.") + s + "_frac",
                 traced_query.size() > 0
                     ? static_cast<double>(strategy_count[s]) /
                           static_cast<double>(traced_query.size())
                     : 0.0,
                 "ratio");
      report.SetMedian(std::string("sampling.") + s + ".begin_us_p50",
                       begin_us[s], "us");
      report.Set(std::string("sampling.") + s + ".draw_ns_per_sample",
                 drawn[s] > 0 ? draw_ns[s] / drawn[s] : 0.0, "ns");
    }
    report.Set("estimator.step_ns_per_sample",
               est_samples > 0 ? est_ns / est_samples : 0.0, "ns");
    report.SetMedian("estimator.samples_to_target_p50", samples_to_target,
                     "count");
    report.SetMedian("analytics.kde_ms_p50", kde_ms, "ms");
    report.SetMedian("analytics.group_by_ms_p50", group_ms, "ms");
    report.SetMedian("analytics.quantile_ms_p50", quantile_ms, "ms");

    std::vector<BackendSpan> answers;
    for (const Outcome& o : traced) {
      BackendSpan s;
      s.samples = o.result.samples;
      s.cache_samples = o.result.cache_samples;
      answers.push_back(s);
    }
    ReportCounters(counters0, answers, &report);

    // Index builds through the public constructors over the table's
    // entries (the parts of CreateTable a faster bulk load would move).
    const Clock::time_point r0 = Clock::now();
    { RsTree<3> rs(table->entries(), RsTreeOptions(), 42); }
    const Clock::time_point r1 = Clock::now();
    { LsTree<3> ls(table->entries(), LsTreeOptions(), 43); }
    const Clock::time_point r2 = Clock::now();
    report.SetMedian("setup.create_table_s", create_s, "s");
    report.Set("setup.rs_tree_build_s", MsBetween(r0, r1) / 1000.0, "s");
    report.Set("setup.ls_tree_build_s", MsBetween(r1, r2) / 1000.0, "s");

    const double base = base_query.Median();
    report.Set("trace.overhead_frac",
               base > 0 ? (traced_query.Median() - base) / base : 0.0,
               "ratio");
    report.Set("trace.unattributed_frac",
               root_ms > 0 ? unattributed_ms / root_ms : 0.0, "ratio");
  }

  const bool correct = check.Ok();
  std::fprintf(stderr, "explore_local: %s\n", check.Summary().c_str());
  report.Print(correct, attempted,
               correct ? op_failures : attempted);
  return 0;
}

}  // namespace storm::perfbench
