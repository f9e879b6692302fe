// Shared helpers of d2bench: clocks, sample statistics, the
// named-metric table, the Chrome trace-event span log, CPU pinning and
// /proc sampling. Nothing here reaches into the system under test.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace d2bench {

using Clock = std::chrono::steady_clock;

/// Microseconds since a fixed process-wide origin (monotonic).
double NowUs();

/// Busy-or-sleep until `deadline_us` (NowUs() scale). Sleeps while more
/// than 2 ms remain, then spins, so the wake-up is precise.
void WaitUntilUs(double deadline_us);

/// Exact order statistics over a sample set (sorted on first query).
class Samples {
 public:
  void Add(double v) { values_.push_back(v); sorted_ = false; }
  void Append(const Samples& other);
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }
  /// q in [0, 1]; 0 when empty. Nearest-rank on the sorted samples.
  double Quantile(double q) const;
  double Mean() const;
  /// Mean of the values at or below the q-quantile: the slowest (1 - q)
  /// share is dropped, so rare stalls do not swing it, and unlike a
  /// median it moves smoothly when the mix of fast and slow ops shifts.
  double TrimmedMean(double q) const;
  double Sum() const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Median / min / max / IQR of per-repetition values, IQR by the same
/// inclusive-quartile rule as Python's statistics.quantiles(n=4).
struct RepStats {
  double median = 0, min = 0, max = 0, iqr = 0;
};
RepStats SummarizeReps(std::vector<double> values);

/// Ordered table of named metrics with units.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
class MetricTable {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& all() const noexcept { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// In-memory span log written as Chrome trace-event JSON at exit
/// (chrome://tracing, Perfetto). Spans of one operation share `op`;
/// `parent` links a child to the span that caused it (0 = root).
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const noexcept { return enabled_; }
  /// True when operation `op` is in the traced sample.
  bool Sampled(std::uint64_t op) const noexcept {
    return enabled_ && op % kSampleEvery == 0;
  }
  /// Reserves a span id, so children can link to a parent recorded later.
  std::uint64_t NewId() noexcept { return ++last_id_; }
  /// Records span `id` (from NewId).
  void Add(std::uint64_t id, const char* name, const char* cat,
           std::uint64_t op, std::uint64_t parent, double start_us,
           double end_us, int tid);
  /// Records a span under a fresh id and returns it.
  std::uint64_t Add(const char* name, const char* cat, std::uint64_t op,
                    std::uint64_t parent, double start_us, double end_us,
                    int tid) {
    const std::uint64_t id = NewId();
    Add(id, name, cat, op, parent, start_us, end_us, tid);
    return id;
  }
  std::size_t size() const noexcept { return spans_.size(); }
  bool Write(const std::string& path) const;

  /// One operation in this many is traced (by op index).
  static constexpr std::uint64_t kSampleEvery = 64;

 private:
  struct Span {
    const char* name;
    const char* cat;
    std::uint64_t id, op, parent;
    double start_us, end_us;
    int tid;
  };
  bool enabled_;
  std::uint64_t last_id_ = 0;
  std::vector<Span> spans_;
};

/// CPU placement of the bench's processes, derived from the allowed set.
struct Pinning {
  bool pinned = false;
  int generator_cpu = -1;
  std::vector<int> mds_cpus;      // mds<i> → mds_cpus[i]
  std::vector<int> monitor_cpus;  // floats over the MDS CPUs
  std::vector<int> allowed;
  std::string Describe() const;
};
/// Generator on the last allowed CPU, mds<i> on CPU i, the monitor
/// floating over the MDS CPUs; unpinned below mds_count + 1 CPUs.
Pinning PlanPinning(std::size_t mds_count);
bool PinSelf(int cpu);
cpu_set_t CpuSet(const std::vector<int>& cpus);

/// Cumulative per-process counters from /proc/<pid>.
struct ProcSample {
  double cpu_s = 0;                 // utime + stime
  std::uint64_t syscalls = 0;       // syscr + syscw
  std::uint64_t wchar = 0;          // bytes passed to write-family calls
  std::uint64_t write_bytes = 0;    // page-cache bytes dirtied (storage)
  std::uint64_t ctx_switches = 0;   // voluntary + involuntary, all threads
};
ProcSample SampleProc(pid_t pid);

/// CPU time the hypervisor took from this machine (all CPUs, /proc/stat
/// "steal"), in seconds since boot. A run whose steal share is high was
/// measured on a contended host.
double StealSeconds();

/// Machine and build provenance recorded in every result.
struct Provenance {
  int nproc = 0;
  std::string cpu_model, kernel, commit, build_type;
};
Provenance CollectProvenance(const std::string& commit);

std::string JsonEscape(const std::string& s);
/// Shortest round-trip decimal form of `v` (all significant digits).
std::string FormatNumber(double v);

}  // namespace d2bench
