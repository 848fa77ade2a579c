// Shared pieces of the T10 benchmark (see README.md in this directory): the
// command line, the report every workload fills in, timing and percentile
// helpers, span summaries and the JSON result line.

#ifndef T10_PERFBENCH_PERFBENCH_H_
#define T10_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/span.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for on-disk plan caches; created and removed by the
  // workload that needs it.
  std::string workdir = ".perfbench-work";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one run prints. `metrics` holds the end-to-end metrics of an
// untraced run or the per-layer metrics of a traced run.
struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // An oracle failed: the run is not correct. The reason goes to stderr.
  void Fail(const std::string& why);
};

// Exact-repeat bookkeeping: values that must be bit-identical between two
// executions of the same seeded work (simulated time, simulated memory,
// counts, fingerprints). A metric whose two executions disagree is named on
// stderr and not published.
class ExactValues {
 public:
  // Records the first execution's value, or compares against it.
  void Observe(const std::string& name, double value);
  bool Deterministic(const std::string& name) const;
  double Value(const std::string& name) const;
  // Publishes `name` as `metric` when it repeated exactly.
  void Publish(Report& report, const std::string& name, const std::string& metric,
               double scale, const std::string& unit) const;

 private:
  std::map<std::string, double> values_;
  std::map<std::string, bool> mismatched_;
};

double SecondsSince(Clock::time_point start);
double Mean(const std::vector<double>& values);  // 0 when empty.
double Median(std::vector<double> values);
// Linear-interpolated quantile, q in [0, 1].
double Quantile(std::vector<double> values, double q);
double PeakRssMiB();
// SplitMix64: derives independent per-item seeds from the run seed.
std::uint64_t Mix(std::uint64_t seed, std::uint64_t index);

// A percentile is published only with at least this many samples beyond it
// (the p90 needs ten samples above it, so 100 items).
constexpr std::int64_t kMinTailSamples = 100;
// A timed phase ends by this time even short of samples, which keeps a run
// on a slow host under 180 s.
constexpr double kPhaseCapSeconds = 120.0;

class HostProbe;

// Whether a timed phase that started at `start` is over. It lasts `seconds`
// on the reference host's clock, so a run does the same work whatever the
// host's speed, but at most 1.25x that here; either way it runs on until it
// has `samples` >= kMinTailSamples, up to kPhaseCapSeconds.
bool PhaseDone(const Args& args, const HostProbe& probe, Clock::time_point start,
               std::int64_t samples);

// Host-speed probe: a fixed kernel owned by the benchmark (random reads and
// writes over a 16 MiB buffer, small allocations, and a sort and a hash map
// over a few thousand keys: what the executor and the compiler wait on),
// sampled throughout a run. Shared hosts drift in speed by up to 2x over
// minutes; dividing wall times by factor(), the probe's median time over its
// time on the reference host, cancels most of that drift while leaving every
// change to the program visible, since the probe never changes with it.
class HostProbe {
 public:
  // `threads` copies of the kernel run at once: as many as the workload
  // keeps busy, so the probe meets the contention the workload meets.
  explicit HostProbe(int threads = 1) : threads_(threads) {}

  // Runs the kernel once on every thread (a few milliseconds).
  void Sample();
  // Whether 0.5 s have passed since the last sample. Workloads take their
  // other spread-out samples (warm compiles) when it is, before the probe's
  // sweep evicts their data from the caches.
  bool Due() const;
  // Samples if Due(); returns whether it did.
  bool MaybeSample();
  // Median sample over the reference host's; 1 when nothing was sampled.
  double factor() const;
  // Seconds on the reference host that `wall_seconds` here correspond to.
  double Nominal(double wall_seconds) const { return wall_seconds / factor(); }

 private:
  int threads_;
  std::vector<std::vector<std::uint32_t>> buffers_;
  std::vector<double> samples_;
  Clock::time_point last_{};
  std::uint64_t sink_ = 0;
};

// Warm recompiles per probe sample on the workloads whose items are not
// compiles.
constexpr int kWarmCompilesPerProbe = 4;

// Set-ups per run: setup_s is their median.
constexpr int kSetupRepeats = 5;

// setup_s: `timed_setup` (which builds a fresh workload object, sets it up
// and returns the seconds the set-up took) run kSetupRepeats times back to
// back, each after a host-probe sample; the median in reference-host
// seconds.
template <class F>
double NominalSetupSeconds(F&& timed_setup) {
  HostProbe probe;
  std::vector<double> samples;
  for (int r = 0; r < kSetupRepeats; ++r) {
    probe.Sample();
    samples.push_back(timed_setup());
  }
  return probe.Nominal(Median(samples));
}

// End-to-end metrics every workload derives the same way.
struct WorkSummary {
  std::vector<double> item_seconds;  // Completed timed items.
  std::vector<double> tail_seconds;  // Samples the p90 is taken over.
  double busy_seconds = 0.0;         // Denominator of work_per_s.
  double warm_compile_seconds = 0.0;
  // Already in reference-host seconds (NominalSetupSeconds).
  double setup_seconds = 0.0;
  double tracing_overhead = 0.0;
  // Peak RSS when the timed phase ends, before the traced calibration.
  double rss_peak_mib = 0.0;
  // The other wall times above are divided by this before publishing.
  double host_factor = 1.0;
};
void PublishWork(Report& report, const WorkSummary& work);

// Seconds `f` takes.
template <class F>
double TimeSeconds(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return SecondsSince(start);
}

// Span durations summed per span name.
struct SpanTotals {
  double total_seconds = 0.0;
  std::int64_t count = 0;
};
std::map<std::string, SpanTotals> SummarizeSpans(const std::vector<t10::obs::SpanRecord>& spans);

// Counter / gauge / histogram reads from the global metrics registry.
std::int64_t CounterValue(const std::string& name);
double GaugeValue(const std::string& name);
void ResetGauge(const std::string& name);

// Names and units of every per-layer metric; a traced run prints all of
// them, 0 for the layers its workload does not drive.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
void FillMissingPerLayer(Report& report);

// Prints the result object as the last line of stdout.
void PrintReport(const Report& report);

Report RunCompileZoo(const Args& args);
Report RunExecOps(const Args& args);
Report RunServe(const Args& args, bool pipeline);

}  // namespace perfbench

#endif  // T10_PERFBENCH_PERFBENCH_H_
