#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace storm::perfbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void RotateCpu() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t mask;
    CPU_ZERO(&mask);
    if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &mask)) out.push_back(c);
      }
    }
    return out;
  }();
  static size_t next = 0;
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[next++ % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);
}

// ---------------------------------------------------------------------------
// Samples / Report
// ---------------------------------------------------------------------------

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const size_t n = sorted.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1), sorted.end());
  return sorted[rank - 1];
}

namespace {

/// Cumulative steal and total clock ticks over all CPUs; zeros when
/// /proc/stat cannot be read.
std::pair<uint64_t, uint64_t> ReadCpuTicks() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return {0, 0};
  // user nice system idle iowait irq softirq steal
  uint64_t v[8] = {};
  const int n = std::fscanf(
      f, "cpu %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64 " %" SCNu64
         " %" SCNu64 " %" SCNu64 " %" SCNu64,
      &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
  std::fclose(f);
  if (n != 8) return {0, 0};
  return {v[7], std::accumulate(std::begin(v), std::end(v), uint64_t{0})};
}

}  // namespace

StealFilter::StealFilter() { thread_ = std::thread([this] { Run(); }); }

void StealFilter::Run() {
  auto [steal0, total0] = ReadCpuTicks();
  Clock::time_point t0 = Clock::now();
  const Clock::time_point first = t0;
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(kTickMs));
    const auto [steal, total] = ReadCpuTicks();
    const Clock::time_point t = Clock::now();
    if (total > total0 && static_cast<double>(steal - steal0) >
                              kLimit * static_cast<double>(total - total0)) {
      const Clock::time_point to = t + std::chrono::milliseconds(kMarginMs);
      if (!noisy_.empty() && noisy_.back().to >= t0) {
        noisy_.back().to = to;
      } else {
        noisy_.push_back(Interval{t0, to});
      }
    }
    steal0 = steal;
    total0 = total;
    t0 = t;
  }
  sampled_ = Interval{first, t0};
}

void StealFilter::Stop() {
  if (!thread_.joinable()) return;
  stop_.store(true, std::memory_order_release);
  thread_.join();
  const double span = MsBetween(sampled_.from, sampled_.to);
  noisy_frac_ = span > 0 ? NoisyMs(sampled_.from, sampled_.to) / span : 0.0;
  filtering_ = noisy_frac_ <= kMaxNoisy;
}

double StealFilter::NoisyMs(Clock::time_point a, Clock::time_point b) const {
  double ms = 0.0;
  for (const Interval& iv : noisy_) {
    const Clock::time_point from = std::max(a, iv.from);
    const Clock::time_point to = std::min(b, iv.to);
    if (from < to) ms += MsBetween(from, to);
  }
  return ms;
}

bool StealFilter::Quiet(Clock::time_point a, Clock::time_point b) const {
  if (!filtering_) return true;
  for (const Interval& iv : noisy_) {
    if (iv.from <= b && a <= iv.to) return false;
  }
  return true;
}

double StealFilter::QuietSeconds(Clock::time_point a,
                                 Clock::time_point b) const {
  const double ms = MsBetween(a, b) - (filtering_ ? NoisyMs(a, b) : 0.0);
  return ms / 1000.0;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::SetMedian(const std::string& name, const Samples& s,
                       const std::string& unit) {
  Set(name, s.Median(), unit);
}

void Report::SetP99(const std::string& name, const Samples& s,
                    const std::string& unit) {
  Set(name, s.Quantile(0.99), unit);
  p99_counts_[name] = s.size();
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_[key] = JsonString(value);
}

void Report::Meta(const std::string& key, double value) {
  meta_[key] = JsonNumber(value);
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  std::string meta = "{";
  for (const auto& [k, v] : meta_) {
    if (meta.size() > 1) meta += ", ";
    meta += JsonString(k) + ": " + v;
  }
  meta += ", \"p99_samples\": {";
  bool first = true;
  for (const auto& [k, n] : p99_counts_) {
    if (!first) meta += ", ";
    first = false;
    meta += JsonString(k) + ": " + std::to_string(n);
  }
  meta += "}}";
  std::printf("PERFBENCH_META %s\n", meta.c_str());

  std::string metrics = "{";
  for (const auto& [k, m] : metrics_) {
    if (metrics.size() > 1) metrics += ", ";
    metrics += JsonString(k) + ": {\"value\": " + JsonNumber(m.value) +
               ", \"unit\": " + JsonString(m.unit) + "}";
  }
  metrics += "}";
  std::printf(
      "PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %" PRIu64
      ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
      correct ? "true" : "false", attempted, failed, metrics.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Data set and oracle
// ---------------------------------------------------------------------------

std::vector<OsmPoint> MakePoints(uint64_t n, uint64_t seed) {
  // seed 0 keeps the generator's own default: the fig3a data set.
  OsmOptions options;
  options.num_points = n;
  if (seed != 0) options.seed = seed;
  return OsmLikeGenerator(options).Generate();
}

std::vector<Value> ToDocs(const std::vector<OsmPoint>& points) {
  std::vector<Value> docs;
  docs.reserve(points.size());
  for (const OsmPoint& p : points) {
    docs.push_back(OsmLikeGenerator::ToDocument(p));
  }
  return docs;
}

Viewport Viewport::Rounded() const {
  auto round6 = [](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return std::strtod(buf, nullptr);
  };
  return Viewport{round6(x0), round6(y0), round6(x1), round6(y1)};
}

std::string Viewport::RegionClause() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "REGION(%.6f, %.6f, %.6f, %.6f)", x0, y0, x1,
                y1);
  return buf;
}

namespace {
constexpr int kGrid = 256;

size_t PrefixIndex(int i, int j) {
  return static_cast<size_t>(i) * (kGrid + 1) + static_cast<size_t>(j);
}
}  // namespace

int Oracle::CellX(double lon) const {
  return std::clamp(
      static_cast<int>((lon - lon_min_) / (lon_max_ - lon_min_) * kGrid), 0,
      kGrid - 1);
}

int Oracle::CellY(double lat) const {
  return std::clamp(
      static_cast<int>((lat - lat_min_) / (lat_max_ - lat_min_) * kGrid), 0,
      kGrid - 1);
}

Oracle::Oracle(const std::vector<OsmPoint>& points) {
  if (points.empty()) return;
  lon_min_ = lon_max_ = points[0].lon;
  lat_min_ = lat_max_ = points[0].lat;
  for (const OsmPoint& p : points) {
    lon_min_ = std::min(lon_min_, p.lon);
    lon_max_ = std::max(lon_max_, p.lon);
    lat_min_ = std::min(lat_min_, p.lat);
    lat_max_ = std::max(lat_max_, p.lat);
  }
  // Bucket the points by grid cell (cell-major order).
  const size_t cells = static_cast<size_t>(kGrid) * kGrid;
  std::vector<size_t> cell_of(points.size());
  cell_start_.assign(cells + 1, 0);
  for (size_t i = 0; i < points.size(); ++i) {
    cell_of[i] = static_cast<size_t>(CellX(points[i].lon)) * kGrid +
                 static_cast<size_t>(CellY(points[i].lat));
    ++cell_start_[cell_of[i] + 1];
  }
  for (size_t c = 0; c < cells; ++c) cell_start_[c + 1] += cell_start_[c];
  std::vector<size_t> fill(cell_start_.begin(), cell_start_.end() - 1);
  lon_.resize(points.size());
  lat_.resize(points.size());
  alt_.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const size_t at = fill[cell_of[i]]++;
    lon_[at] = points[i].lon;
    lat_[at] = points[i].lat;
    alt_[at] = points[i].altitude;
  }
  // Prefix count/sum: entry (i, j) covers cells x < i, y < j.
  count_prefix_.assign(PrefixIndex(kGrid, kGrid) + 1, 0.0);
  sum_prefix_.assign(PrefixIndex(kGrid, kGrid) + 1, 0.0);
  for (int i = 1; i <= kGrid; ++i) {
    for (int j = 1; j <= kGrid; ++j) {
      const size_t c = static_cast<size_t>(i - 1) * kGrid + (j - 1);
      double n = 0, sum = 0;
      for (size_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
        n += 1;
        sum += alt_[k];
      }
      for (auto* prefix : {&count_prefix_, &sum_prefix_}) {
        (*prefix)[PrefixIndex(i, j)] =
            (prefix == &count_prefix_ ? n : sum) +
            (*prefix)[PrefixIndex(i - 1, j)] +
            (*prefix)[PrefixIndex(i, j - 1)] -
            (*prefix)[PrefixIndex(i - 1, j - 1)];
      }
    }
  }
}

template <typename CellFn, typename PointFn>
void Oracle::Visit(const Viewport& v, CellFn&& whole_cells,
                   PointFn&& point) const {
  if (lon_.empty() || v.x1 < lon_min_ || v.x0 > lon_max_ || v.y1 < lat_min_ ||
      v.y0 > lat_max_) {
    return;
  }
  const int cx0 = CellX(v.x0), cx1 = CellX(v.x1);
  const int cy0 = CellY(v.y0), cy1 = CellY(v.y1);
  const double w = (lon_max_ - lon_min_) / kGrid;
  const double h = (lat_max_ - lat_min_) / kGrid;
  // A cell counts as wholly inside only with a margin, so a point the
  // bucketing rounded across a cell edge is never counted by the prefix
  // sums when it lies outside the viewport.
  constexpr double kMargin = 1e-9;
  auto inside_x = [&](int i) {
    return lon_min_ + i * w > v.x0 + kMargin &&
           lon_min_ + (i + 1) * w < v.x1 - kMargin;
  };
  auto inside_y = [&](int j) {
    return lat_min_ + j * h > v.y0 + kMargin &&
           lat_min_ + (j + 1) * h < v.y1 - kMargin;
  };
  int ix0 = cx0, ix1 = cx1, iy0 = cy0, iy1 = cy1;
  while (ix0 <= ix1 && !inside_x(ix0)) ++ix0;
  while (ix1 >= ix0 && !inside_x(ix1)) --ix1;
  while (iy0 <= iy1 && !inside_y(iy0)) ++iy0;
  while (iy1 >= iy0 && !inside_y(iy1)) --iy1;
  const bool has_inner = ix0 <= ix1 && iy0 <= iy1;
  if (has_inner) whole_cells(ix0, ix1 + 1, iy0, iy1 + 1);
  for (int i = cx0; i <= cx1; ++i) {
    for (int j = cy0; j <= cy1; ++j) {
      if (has_inner && i >= ix0 && i <= ix1 && j >= iy0 && j <= iy1) continue;
      const size_t c = static_cast<size_t>(i) * kGrid + static_cast<size_t>(j);
      for (size_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
        if (lon_[k] >= v.x0 && lon_[k] <= v.x1 && lat_[k] >= v.y0 &&
            lat_[k] <= v.y1) {
          point(k);
        }
      }
    }
  }
}

Oracle::Truth Oracle::Aggregate(const Viewport& v) const {
  Truth t;
  auto block = [](const std::vector<double>& p, int i0, int i1, int j0,
                  int j1) {
    return p[PrefixIndex(i1, j1)] - p[PrefixIndex(i0, j1)] -
           p[PrefixIndex(i1, j0)] + p[PrefixIndex(i0, j0)];
  };
  Visit(
      v,
      [&](int i0, int i1, int j0, int j1) {
        t.count += static_cast<uint64_t>(
            std::llround(block(count_prefix_, i0, i1, j0, j1)));
        t.sum += block(sum_prefix_, i0, i1, j0, j1);
      },
      [&](size_t k) {
        ++t.count;
        t.sum += alt_[k];
      });
  t.avg = t.count > 0 ? t.sum / static_cast<double>(t.count) : 0.0;
  return t;
}

std::vector<double> Oracle::Values(const Viewport& v) const {
  std::vector<double> out;
  Visit(
      v,
      [&](int i0, int i1, int j0, int j1) {
        for (int i = i0; i < i1; ++i) {
          const size_t c0 = static_cast<size_t>(i) * kGrid + j0;
          const size_t c1 = static_cast<size_t>(i) * kGrid + j1;
          out.insert(out.end(), alt_.begin() + cell_start_[c0],
                     alt_.begin() + cell_start_[c1]);
        }
      },
      [&](size_t k) { out.push_back(alt_[k]); });
  std::sort(out.begin(), out.end());
  return out;
}

double Oracle::ApproxCount(const Viewport& v) const {
  // Bilinear interpolation of the prefix counts at fractional grid indices.
  auto prefix_at = [&](double x, double y) {
    const double fx = std::clamp(
        (x - lon_min_) / (lon_max_ - lon_min_) * kGrid, 0.0, double{kGrid});
    const double fy = std::clamp(
        (y - lat_min_) / (lat_max_ - lat_min_) * kGrid, 0.0, double{kGrid});
    const int ix = std::min(static_cast<int>(fx), kGrid - 1);
    const int iy = std::min(static_cast<int>(fy), kGrid - 1);
    const double ax = fx - ix, ay = fy - iy;
    auto p = [&](int i, int j) { return count_prefix_[PrefixIndex(i, j)]; };
    return (1 - ax) * (1 - ay) * p(ix, iy) + ax * (1 - ay) * p(ix + 1, iy) +
           (1 - ax) * ay * p(ix, iy + 1) + ax * ay * p(ix + 1, iy + 1);
  };
  return prefix_at(v.x1, v.y1) - prefix_at(v.x0, v.y1) -
         prefix_at(v.x1, v.y0) + prefix_at(v.x0, v.y0);
}

Viewport Oracle::SizedViewport(double selectivity, Rng* rng) const {
  const size_t i = static_cast<size_t>(rng->Uniform(lon_.size()));
  const double cx = lon_[i], cy = lat_[i];
  const double want = selectivity * static_cast<double>(lon_.size());
  double lo = 1e-4, hi = std::max(lon_max_ - lon_min_, lat_max_ - lat_min_);
  for (int iter = 0; iter < 40; ++iter) {
    const double mid = 0.5 * (lo + hi);
    Viewport v{cx - mid, cy - mid, cx + mid, cy + mid};
    (ApproxCount(v) < want ? lo : hi) = mid;
  }
  return Viewport{cx - hi, cy - hi, cx + hi, cy + hi}.Rounded();
}

std::vector<Value> WritePhaseDocs(uint64_t seed) {
  return ToDocs(MakePoints(kWriteBatches * kWriteRows, seed ^ 0x9b0be));
}

// ---------------------------------------------------------------------------
// Correctness
// ---------------------------------------------------------------------------

void Correctness::Interval(double truth, double lo, double hi) {
  if (!std::isfinite(lo) || !std::isfinite(hi) || lo > hi) {
    Fail("malformed interval");
    return;
  }
  ++intervals_;
  // A relative slack of 1e-9 absorbs summation-order rounding.
  const double slack = 1e-9 * std::max(1.0, std::fabs(truth));
  if (truth >= lo - slack && truth <= hi + slack) ++covered_;
}

void Correctness::Exact(double truth, double value) {
  ++exact_checked_;
  if (std::fabs(truth - value) > 1e-6 * std::max(1.0, std::fabs(truth))) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "exact answer %.9g != truth %.9g", value,
                  truth);
    Fail(buf);
  }
}

void Correctness::Fail(const std::string& why) {
  if (failures_ == 0) first_failure_ = why;
  ++failures_;
}

bool Correctness::Ok() const {
  if (failures_ > 0) return false;
  if (intervals_ == 0) return true;
  // Binomial band: observed coverage no more than 4 standard deviations
  // below the nominal 95%, less a 1.5-point allowance for optional stopping
  // (an ERROR target stops a query the first time its own interval looks
  // tight enough, which costs about a point of coverage). Coverage above
  // the band means conservative intervals, which the contract allows;
  // answers that share cached reservoirs are correlated, so the count
  // spreads wider than a binomial anyway.
  const double n = static_cast<double>(intervals_);
  const double sigma = std::sqrt(0.95 * 0.05 / n);
  const double rate = static_cast<double>(covered_) / n;
  return rate >= 0.95 - 0.015 - 4.0 * sigma;
}

std::string Correctness::Summary() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "coverage %" PRIu64 "/%" PRIu64 " (%.4f), exact checked %" PRIu64
                ", failures %" PRIu64 "%s%s",
                covered_, intervals_,
                intervals_ > 0 ? static_cast<double>(covered_) /
                                     static_cast<double>(intervals_)
                               : 0.0,
                exact_checked_, failures_, failures_ > 0 ? ": " : "",
                first_failure_.c_str());
  return buf;
}

// ---------------------------------------------------------------------------
// Bench-side spans
// ---------------------------------------------------------------------------

std::optional<TimingSampler::Entry> TimingSampler::Next() {
  const Clock::time_point t0 = Clock::now();
  std::optional<Entry> e = inner_->Next();
  draw_ns_ += NsBetween(t0, Clock::now());
  if (e.has_value()) ++drawn_;
  return e;
}

uint64_t TimingSampler::NextBatch(std::span<Entry> out) {
  const Clock::time_point t0 = Clock::now();
  const uint64_t n = inner_->NextBatch(out);
  draw_ns_ += NsBetween(t0, Clock::now());
  drawn_ += n;
  return n;
}

Result<QueryResult> TimingBackend::Execute(const std::string& query,
                                           const ExecOptions& options) {
  if (!enabled_.load(std::memory_order_acquire)) {
    return inner_->Execute(query, options);
  }
  BackendSpan span;
  span.trace_lo = options.trace.trace_id_lo;
  span.start = Clock::now();
  ExecOptions timed = options;
  timed.progress = [&span, &options](const QueryProgress& p) {
    if (span.first_progress_ms < 0) {
      span.first_progress_ms = MsBetween(span.start, Clock::now());
    }
    return options.progress ? options.progress(p) : true;
  };
  Result<QueryResult> result = inner_->Execute(query, timed);
  span.end = Clock::now();
  if (result.ok()) {
    span.samples = result->samples;
    span.cache_samples = result->cache_samples;
  }
  std::lock_guard<std::mutex> lock(mu_);
  queries_.push_back(span);
  return result;
}

BatchInsertResult TimingBackend::InsertBatch(const std::string& table,
                                             const std::vector<Value>& docs) {
  if (!enabled_.load(std::memory_order_acquire)) {
    return inner_->InsertBatch(table, docs);
  }
  const Clock::time_point t0 = Clock::now();
  BatchInsertResult result = inner_->InsertBatch(table, docs);
  const double ms = MsBetween(t0, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  insert_ms_.Add(ms);
  return result;
}

Status TimingBackend::Checkpoint(const std::string& table) {
  if (!enabled_.load(std::memory_order_acquire)) {
    return inner_->Checkpoint(table);
  }
  const Clock::time_point t0 = Clock::now();
  Status st = inner_->Checkpoint(table);
  const double ms = MsBetween(t0, Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  checkpoint_ms_.Add(ms);
  return st;
}

std::vector<BackendSpan> TimingBackend::queries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queries_;
}

Samples TimingBackend::insert_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return insert_ms_;
}

Samples TimingBackend::checkpoint_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoint_ms_;
}

TraceContext TraceFor(uint64_t id) {
  TraceContext ctx;
  ctx.trace_id_hi = 0x5707'be4c'0000'0000ULL;
  ctx.trace_id_lo = id;
  ctx.span_id = id;
  ctx.sampled = false;
  return ctx;
}

uint64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Default().GetCounter(name)->Value();
}

}  // namespace storm::perfbench
