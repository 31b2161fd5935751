// Shared pieces of the anytime-query benchmark: the seeded data set and
// viewport generator, the exact-answer oracle, latency sample sets, the
// bench-side timing decorators (a SpatialSampler and a QueryBackend
// wrapper, so per-layer time is measured around public calls without any
// span inside the library), and the JSON report.

#ifndef STORM_PERFBENCH_COMMON_H_
#define STORM_PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "storm/cluster/net_coordinator.h"
#include "storm/server/remote_client.h"
#include "storm/server/server.h"
#include "storm/storm.h"

namespace storm::perfbench {

// ---------------------------------------------------------------------------
// Command line and clock
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double NsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Pins the calling thread to the next CPU of the process's affinity mask,
/// round robin. A single-threaded workload calls it periodically so that a
/// run samples every vCPU's contention alike instead of inheriting one
/// vCPU's bursts.
void RotateCpu();

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// A set of measurements. Quantiles are nearest-rank on the sorted values.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Hypervisor steal time over the timed run. On a shared virtual machine
/// the host now and then takes a share of the vCPUs away for seconds at a
/// time, and every latency measured then is the host's, not the program's.
/// A thread reads the steal counter of /proc/stat every kTickMs; a tick in
/// which the host took more than kLimit of the CPU time marks the interval
/// from the previous reading to kMarginMs after it (queues drain) as
/// noisy. Operations overlapping a noisy interval are left out of the
/// end-to-end metrics, and rates are taken over the quiet time. If more
/// than kMaxNoisy of the run was noisy, nothing is left out.
class StealFilter {
 public:
  static constexpr int kTickMs = 250;
  static constexpr double kLimit = 0.05;
  static constexpr int kMarginMs = 250;
  static constexpr double kMaxNoisy = 0.75;

  /// Starts sampling.
  StealFilter();
  ~StealFilter() { Stop(); }
  StealFilter(const StealFilter&) = delete;
  StealFilter& operator=(const StealFilter&) = delete;

  /// Stops sampling; call before any query below.
  void Stop();
  /// False when [a, b] overlaps a noisy interval.
  bool Quiet(Clock::time_point a, Clock::time_point b) const;
  /// Seconds of [a, b] outside every noisy interval.
  double QuietSeconds(Clock::time_point a, Clock::time_point b) const;
  /// Share of the sampled time that was noisy (reported even when too
  /// large to filter on).
  double noisy_frac() const { return noisy_frac_; }

 private:
  struct Interval {
    Clock::time_point from, to;
  };
  void Run();
  double NoisyMs(Clock::time_point a, Clock::time_point b) const;

  std::atomic<bool> stop_{false};
  std::thread thread_;
  std::vector<Interval> noisy_;  // sorted, disjoint
  Interval sampled_;
  double noisy_frac_ = 0.0;
  bool filtering_ = false;
};

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Metrics of one run. Prints a "meta" line (run facts) and then the result
/// line; run.py turns the result line into the benchmark's output.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  void SetMedian(const std::string& name, const Samples& s,
                 const std::string& unit);
  /// Nearest-rank p99 over all of `s`; also records the sample count so the
  /// smoke test can check each p99 has at least ten samples beyond it.
  void SetP99(const std::string& name, const Samples& s,
              const std::string& unit);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);

  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> meta_;  // values are JSON literals
  std::map<std::string, uint64_t> p99_counts_;
};

// ---------------------------------------------------------------------------
// Data set, viewports, oracle
// ---------------------------------------------------------------------------

/// An OSM-like point set. Seed 0 is the fig3a data set every workload
/// loads; other seeds make fresh points (inserted documents).
std::vector<OsmPoint> MakePoints(uint64_t n, uint64_t seed);
std::vector<Value> ToDocs(const std::vector<OsmPoint>& points);

/// Axis-aligned lon/lat viewport.
struct Viewport {
  double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
  /// Coordinates rounded to the 6 decimals RegionClause prints, so the
  /// oracle sees exactly the region the parser reads.
  Viewport Rounded() const;
  std::string RegionClause() const;
};

/// Exact answers over a fixed point set, computed outside timed regions.
class Oracle {
 public:
  explicit Oracle(const std::vector<OsmPoint>& points);

  struct Truth {
    uint64_t count = 0;
    double sum = 0.0;
    double avg = 0.0;
  };
  Truth Aggregate(const Viewport& v) const;
  /// The sorted altitudes inside `v` (quantile truth).
  std::vector<double> Values(const Viewport& v) const;

  /// Approximate count from a coarse prefix-sum grid: cheap enough to size
  /// viewports to a target selectivity.
  double ApproxCount(const Viewport& v) const;

  /// A square viewport centred on a random data point whose approximate
  /// selectivity is near `selectivity`.
  Viewport SizedViewport(double selectivity, Rng* rng) const;

 private:
  int CellX(double lon) const;
  int CellY(double lat) const;
  /// Calls whole_cells(i0, i1, j0, j1) once for the block of grid cells
  /// wholly inside `v` (half-open index ranges), and point(k) for every
  /// point inside `v` in the cells it only partly covers.
  template <typename CellFn, typename PointFn>
  void Visit(const Viewport& v, CellFn&& whole_cells, PointFn&& point) const;

  // Points bucketed by grid cell, as parallel arrays; the points of cell c
  // are [cell_start_[c], cell_start_[c + 1]).
  std::vector<double> lon_, lat_, alt_;
  std::vector<size_t> cell_start_;
  double lon_min_ = 0, lon_max_ = 0, lat_min_ = 0, lat_max_ = 0;
  // Per-cell prefix sums of point counts and altitudes.
  std::vector<double> count_prefix_, sum_prefix_;
};

/// Running check of the statistical contracts over a run's answers.
class Correctness {
 public:
  /// A non-exact answer with a 95% interval [lo, hi] for `truth`.
  void Interval(double truth, double lo, double hi);
  /// An answer that claims to be exact.
  void Exact(double truth, double value);
  /// Any other failed check (malformed answer, wrong final count).
  void Fail(const std::string& why);

  /// Coverage not below the binomial band around 95%, and no failures.
  bool Ok() const;
  std::string Summary() const;

 private:
  uint64_t intervals_ = 0, covered_ = 0, exact_checked_ = 0, failures_ = 0;
  std::string first_failure_;
};

// ---------------------------------------------------------------------------
// Bench-side spans
// ---------------------------------------------------------------------------

/// Wraps a sampler and times every draw from outside. (Begin is timed by
/// the caller, together with the sampler's construction.)
class TimingSampler : public SpatialSampler<3> {
 public:
  explicit TimingSampler(std::unique_ptr<SpatialSampler<3>> inner)
      : inner_(std::move(inner)) {}

  Status Begin(const Rect3& query, SamplingMode mode) override {
    return inner_->Begin(query, mode);
  }
  std::optional<Entry> Next() override;
  uint64_t NextBatch(std::span<Entry> out) override;
  CardinalityEstimate Cardinality() const override {
    return inner_->Cardinality();
  }
  size_t Strata() const override { return inner_->Strata(); }
  CardinalityEstimate Cardinality(size_t stratum) const override {
    return inner_->Cardinality(stratum);
  }
  bool IsExhausted() const override { return inner_->IsExhausted(); }
  std::string_view name() const override { return inner_->name(); }

  double draw_ns() const { return draw_ns_; }
  uint64_t drawn() const { return drawn_; }

 private:
  std::unique_ptr<SpatialSampler<3>> inner_;
  double draw_ns_ = 0.0;
  uint64_t drawn_ = 0;
};

/// One timed Execute call into a QueryBackend.
struct BackendSpan {
  uint64_t trace_lo = 0;  ///< join key: the caller's trace id
  Clock::time_point start, end;
  double first_progress_ms = -1.0;  ///< from start; -1 when none
  /// The backend's own answer: samples drawn, and how many of them came
  /// from cached reservoirs (a local annotation the wire does not carry).
  uint64_t samples = 0, cache_samples = 0;
};

/// Wraps a QueryBackend (a SessionBackend or a NetCoordinator) and records
/// every Execute / InsertBatch / Checkpoint call. Thread-safe.
class TimingBackend : public QueryBackend {
 public:
  explicit TimingBackend(QueryBackend* inner) : inner_(inner) {}

  Result<QueryResult> Execute(const std::string& query,
                              const ExecOptions& options) override;
  BatchInsertResult InsertBatch(const std::string& table,
                                const std::vector<Value>& docs) override;
  Status Checkpoint(const std::string& table) override;
  uint64_t AppliedRecords() override { return inner_->AppliedRecords(); }

  /// While disabled, calls pass straight through unrecorded (the untraced
  /// half of a traced run).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }

  std::vector<BackendSpan> queries() const;
  Samples insert_ms() const;
  Samples checkpoint_ms() const;

 private:
  QueryBackend* inner_;
  std::atomic<bool> enabled_{true};
  mutable std::mutex mu_;
  std::vector<BackendSpan> queries_;
  Samples insert_ms_;
  Samples checkpoint_ms_;
};

/// An unsampled trace context whose low id word is `id`: the join key
/// between a client call and the backend spans it causes.
TraceContext TraceFor(uint64_t id);

/// Value of a counter in the process-wide metrics registry.
uint64_t CounterValue(const std::string& name);

// ---------------------------------------------------------------------------
// Query and insert streams
// ---------------------------------------------------------------------------

enum class AggKind { kAvg, kSum, kCount };

/// An AVG/SUM/COUNT query with a relative-error target.
struct AggQuery {
  AggKind kind = AggKind::kAvg;
  Viewport v;
  double target = 0.0;  ///< the ERROR clause, as a fraction
  std::string text;
};

/// "SELECT <kind> FROM <table> <region> ERROR <target> SAMPLES <cap>".
AggQuery MakeAggQuery(AggKind kind, const Viewport& v, const std::string& table,
                      double target, uint64_t cap);

/// Checks one aggregate answer against the oracle: exact answers must equal
/// the truth, the others feed the coverage count.
void CheckAggregate(const Oracle& oracle, const AggQuery& q,
                    const QueryResult& r, Correctness* check);

/// One RemoteClient::Execute as the caller saw it.
struct RemoteOutcome {
  AggQuery q;
  Status status;
  QueryResult result;
  Clock::time_point start, end;
  double first_ci_ms = -1.0;   ///< first PROGRESS (or RESULT) with a CI
  double target_ci_ms = -1.0;  ///< first CI meeting the ERROR target
  uint64_t progress_frames = 0;
  uint64_t trace_lo = 0;  ///< 0: untraced
  double query_ms() const { return MsBetween(start, end); }
};

/// True once `ci` meets a relative-error target (or is exact), by the rule
/// the engine stops on (StoppingRule: at least 30 samples).
inline bool MeetsTarget(const ConfidenceInterval& ci, double target) {
  return ci.exact || (ci.samples >= 30 && ci.RelativeError() <= target);
}

/// Runs `q` on `client`; `trace_lo` != 0 tags the call for span joins.
RemoteOutcome RunRemote(RemoteClient& client, const AggQuery& q,
                        uint64_t trace_lo);

/// first/target-CI, query latency, samples/s and queries/s over the
/// successful `outcomes` that `filter` keeps; rates are over the quiet time
/// of [from, to].
void ReportQueries(const std::vector<RemoteOutcome>& outcomes,
                   Clock::time_point from, Clock::time_point to,
                   const StealFilter& filter, Report* report);

/// An insert stream: every acknowledged batch as the writer saw it.
struct InsertStats {
  struct Batch {
    Clock::time_point due;  ///< when it was meant to go; closed loop: sent
    Clock::time_point sent, acked;
    size_t rows = 0;
  };
  std::vector<Batch> acked;
};
/// insert_ms_p50/p99 (due to acknowledgement) and insert_rows_per_s (rows
/// over the time spent inside the calls), over the batches `filter` keeps.
void ReportInserts(const InsertStats& inserts, const StealFilter& filter,
                   Report* report);

/// The write phase of a workload without a writer of its own. The result
/// must carry every end-to-end metric, insert_* included, so once the timed
/// read loop has ended the workload sends kWriteBatches closed-loop
/// InsertBatch calls of kWriteRows fresh documents into its own table
/// through its own entry point. The reads are over by then: the phase moves
/// none of their metrics.
constexpr int kWriteBatches = 10000;
constexpr int kWriteRows = 8;

/// The write phase's documents (made before set-up, outside any timing).
std::vector<Value> WritePhaseDocs(uint64_t seed);

/// Runs the write phase through `insert` (a callable taking a batch and
/// returning its BatchInsertResult). Each call counts as one attempted
/// operation; a failed one also in `*failures` and `*check`.
template <typename InsertFn>
InsertStats RunWritePhase(const std::vector<Value>& docs, InsertFn&& insert,
                          Correctness* check, uint64_t* attempted,
                          uint64_t* failures) {
  InsertStats stats;
  for (size_t k = 0; (k + 1) * kWriteRows <= docs.size(); ++k) {
    const std::vector<Value> batch(docs.begin() + k * kWriteRows,
                                   docs.begin() + (k + 1) * kWriteRows);
    const Clock::time_point sent = Clock::now();
    const BatchInsertResult r = insert(batch);
    const Clock::time_point acked = Clock::now();
    ++*attempted;
    if (!r.status.ok() || r.ids.size() != batch.size()) {
      ++*failures;
      check->Fail("insert failed: " + r.status.ToString());
      continue;
    }
    stats.acked.push_back(InsertStats::Batch{sent, sent, acked, batch.size()});
  }
  return stats;
}

/// The server.* layer split of traced remote calls: queue (call -> backend
/// start), backend, wire (backend end -> call return), first frame, and the
/// RESULT codec replayed out of band. Returns the root time whose spans
/// could not be joined (unattributed), in ms, and adds the total root time
/// to `*root_ms`.
double ReportServerLayer(const std::vector<RemoteOutcome>& traced,
                         const std::vector<BackendSpan>& spans, Report* report,
                         double* root_ms);

/// Registry counters sampled at the start of the traced window.
struct CounterSnapshot {
  uint64_t progress_dropped = 0, shed = 0, bytes_streamed = 0;
  uint64_t rpc_failures = 0, partials_dropped = 0;
  uint64_t hits = 0, misses = 0, published = 0, evictions = 0;
  uint64_t wal_syncs = 0;
  static CounterSnapshot Take();
};

/// server.{progress_dropped,shed,bytes_streamed}, cluster.{rpc_failures,
/// partials_dropped} and cache.* as deltas since `since`. cache.hit_frac is
/// the share of the backends' samples that came from cached reservoirs,
/// summed over `spans`.
void ReportCounters(const CounterSnapshot& since,
                    const std::vector<BackendSpan>& spans, Report* report);

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Each prints the report and returns the process exit code.
int RunExploreLocal(const Args& args);
int RunPanRemote(const Args& args);
int RunFleetIngest(const Args& args);

}  // namespace storm::perfbench

#endif  // STORM_PERFBENCH_COMMON_H_
