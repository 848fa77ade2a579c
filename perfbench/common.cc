#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>
#include <unordered_map>
#include <utility>

#include "perfbench/perfbench.h"
#include "src/obs/metrics.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: FAILED: " << why << "\n";
}

void ExactValues::Observe(const std::string& name, double value) {
  auto [it, inserted] = values_.emplace(name, value);
  if (!inserted && it->second != value) {
    mismatched_[name] = true;
  }
}

bool ExactValues::Deterministic(const std::string& name) const {
  return values_.count(name) != 0 && mismatched_.count(name) == 0;
}

double ExactValues::Value(const std::string& name) const { return values_.at(name); }

void ExactValues::Publish(Report& report, const std::string& name, const std::string& metric,
                          double scale, const std::string& unit) const {
  if (!Deterministic(name)) {
    std::cerr << "perfbench: non-deterministic: " << metric << " (" << name
              << " differs between two executions of the same seeded work)\n";
    return;
  }
  report.Set(metric, Value(name) * scale, unit);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double x : values) {
    sum += x;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

std::uint64_t Mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

constexpr std::size_t kProbeWords = std::size_t{4} << 20;  // 16 MiB.
constexpr int kProbeIterations = 200000;
constexpr std::size_t kProbeKeys = 8192;
constexpr double kProbeIntervalSeconds = 0.5;
// Median probe time on the reference host (4-core Xeon VM, uncontended).
constexpr double kProbeReferenceSeconds = 0.0064;
constexpr double kFailRatioFloor = 1e-7;

// The probe kernel over one thread's buffer; returns a sink value.
std::uint64_t ProbeKernel(std::vector<std::uint32_t>& buffer, std::uint32_t x) {
  std::uint64_t sink = 0;
  for (int i = 0; i < kProbeIterations; ++i) {
    x = x * 1664525u + 1013904223u;
    const std::size_t j = x & (kProbeWords - 1);
    buffer[j] += static_cast<std::uint32_t>(i);
    sink += buffer[(j * 31) & (kProbeWords - 1)];
    if ((i & 15) == 0) {
      std::vector<std::uint32_t> small(4, x);
      sink += small.back();
    }
  }
  std::vector<std::uint64_t> keys(kProbeKeys);
  for (std::uint64_t& key : keys) {
    x = x * 1664525u + 1013904223u;
    key = x;
  }
  std::sort(keys.begin(), keys.end());
  std::unordered_map<std::uint64_t, std::uint64_t> table;
  for (std::uint64_t key : keys) {
    table[key % (kProbeKeys / 2)] += key;
  }
  return sink + table.size() + keys[kProbeKeys / 2];
}

}  // namespace

void HostProbe::Sample() {
  buffers_.resize(static_cast<std::size_t>(threads_));
  for (std::vector<std::uint32_t>& buffer : buffers_) {
    buffer.resize(kProbeWords, 1);
  }
  const std::uint32_t seed = static_cast<std::uint32_t>(samples_.size()) + 12345u;
  std::vector<std::uint64_t> sinks(buffers_.size());
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> helpers;
  for (std::size_t t = 1; t < buffers_.size(); ++t) {
    helpers.emplace_back([&, t] { sinks[t] = ProbeKernel(buffers_[t], seed + t); });
  }
  sinks[0] = ProbeKernel(buffers_[0], seed);
  for (std::thread& helper : helpers) {
    helper.join();
  }
  samples_.push_back(SecondsSince(start));
  for (std::uint64_t sink : sinks) {
    sink_ += sink;
  }
  last_ = Clock::now();
}

bool HostProbe::Due() const {
  return samples_.empty() || SecondsSince(last_) >= kProbeIntervalSeconds;
}

bool HostProbe::MaybeSample() {
  if (!Due()) {
    return false;
  }
  Sample();
  return true;
}

double HostProbe::factor() const {
  return samples_.empty() ? 1.0 : Median(samples_) / kProbeReferenceSeconds;
}

bool PhaseDone(const Args& args, const HostProbe& probe, Clock::time_point start,
               std::int64_t samples) {
  const double elapsed = SecondsSince(start);
  const bool long_enough =
      probe.Nominal(elapsed) >= args.seconds || elapsed >= 1.25 * args.seconds;
  return (long_enough && samples >= kMinTailSamples) || elapsed >= kPhaseCapSeconds;
}

void PublishWork(Report& report, const WorkSummary& work) {
  if (static_cast<std::int64_t>(work.tail_seconds.size()) < kMinTailSamples) {
    report.Fail("only " + std::to_string(work.tail_seconds.size()) +
                " samples for work_p90_ms; need " + std::to_string(kMinTailSamples));
  }
  // Wall times are in reference-host seconds (HostProbe); the raw values go
  // to stderr.
  const double f = work.host_factor;
  const double work_per_s = static_cast<double>(work.item_seconds.size()) / work.busy_seconds;
  std::cerr << "perfbench: host factor " << f << "; raw work_per_s " << work_per_s
            << ", work_p50_ms " << Median(work.item_seconds) * 1e3 << ", work_p90_ms "
            << Quantile(work.tail_seconds, 0.9) * 1e3 << ", warm_compile_ms "
            << work.warm_compile_seconds * 1e3 << "\n";
  report.Set("setup_s", work.setup_seconds, "s");
  report.Set("work_per_s", work_per_s * f, "1/s");
  report.Set("work_p50_ms", Median(work.item_seconds) * 1e3 / f, "ms");
  report.Set("work_p90_ms", Quantile(work.tail_seconds, 0.9) * 1e3 / f, "ms");
  report.Set("warm_compile_ms", work.warm_compile_seconds * 1e3 / f, "ms");
  report.Set("rss_peak_mib", work.rss_peak_mib, "MiB");
  // The failure share, floored at kFailRatioFloor because a published
  // metric is never 0: a clean run reports the floor, and a single failure
  // in up to 1/kFailRatioFloor items lifts it above.
  report.Set("fail_ratio",
             std::max(kFailRatioFloor, static_cast<double>(report.failed) /
                                           static_cast<double>(std::max<std::int64_t>(
                                               1, report.attempted))),
             "ratio");
  report.Set("tracing_overhead", work.tracing_overhead, "ratio");
}

std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<t10::obs::SpanRecord>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const t10::obs::SpanRecord& span : spans) {
    SpanTotals& t = totals[span.name];
    t.total_seconds += span.duration_seconds;
    ++t.count;
  }
  return totals;
}

std::int64_t CounterValue(const std::string& name) {
  return t10::obs::MetricsRegistry::Global().GetCounter(name).value();
}

double GaugeValue(const std::string& name) {
  return t10::obs::MetricsRegistry::Global().GetGauge(name).value();
}

void ResetGauge(const std::string& name) {
  t10::obs::MetricsRegistry::Global().GetGauge(name).Reset();
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"core.search.ms", "ms"},
      {"core.search.evals_per_s", "1/s"},
      {"core.search.useful_ratio", "ratio"},
      {"core.plan_cache.hit_ratio", "ratio"},
      {"core.plan_cache.load_ms", "ms"},
      {"core.reconcile.ms", "ms"},
      {"core.reconcile.steps", "count"},
      {"core.memory_plan.ms", "ms"},
      {"core.finalize.ms", "ms"},
      {"core.lower.ms", "ms"},
      {"exec.spatial.macs_per_s", "1/s"},
      {"exec.rotating.ms", "ms"},
      {"exec.shift_bytes_per_s", "B/s"},
      {"exec.steps", "count"},
      {"exec.shift_rounds", "count"},
      {"fault.retries", "count"},
      {"fault.rollbacks", "count"},
      {"fault.checkpoints", "count"},
      {"fault.retry_ratio", "ratio"},
      {"fault.checksum.mib_per_s", "MiB/s"},
      {"verify.ms", "ms"},
      {"serve.submit_us", "us"},
      {"serve.queue_wait_ms", "ms"},
      {"serve.execute_ms", "ms"},
      {"serve.audit_ms", "ms"},
      {"serve.audit.reuse_ratio", "ratio"},
      {"router.route_us", "us"},
      {"router.redirects", "count"},
      {"router.hedges", "count"},
      {"router.handoffs", "count"},
      {"router.handoff_ms", "ms"},
      {"sim.bytes_sent", "B"},
      {"sim.rotation_steps", "count"},
      {"sim.scratchpad_peak_kib", "KiB"},
  };
  return kMetrics;
}

void FillMissingPerLayer(Report& report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    report.metrics.emplace(name, Metric{0.0, unit});
  }
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

}  // namespace

void PrintReport(const Report& report) {
  std::string line = "{\"correct\": ";
  line += report.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) + ", \"unit\": \"" +
            metric.unit + "\"}";
  }
  line += "}}";
  std::fflush(stderr);
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
