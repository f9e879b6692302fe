#include "common.h"

#include <dirent.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

namespace d2bench {

namespace {
const Clock::time_point kOrigin = Clock::now();

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of "key: <number>" / "key:\t<number>" in a /proc text file.
std::uint64_t FieldU64(const std::string& text, const std::string& key) {
  const std::size_t at = text.find(key + ":");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 1, nullptr, 10);
}
}  // namespace

double NowUs() {
  return std::chrono::duration<double, std::micro>(Clock::now() - kOrigin)
      .count();
}

void WaitUntilUs(double deadline_us) {
  for (;;) {
    const double left = deadline_us - NowUs();
    if (left <= 0) return;
    if (left > 2000.0) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(static_cast<long>(left - 1000.0)));
    }
  }
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double rank = std::ceil(q * static_cast<double>(values_.size()));
  const std::size_t idx =
      rank < 1 ? 0 : std::min(values_.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
  return values_[idx];
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Samples::Mean() const {
  return values_.empty() ? 0 : Sum() / static_cast<double>(values_.size());
}

double Samples::TrimmedMean(double q) const {
  if (values_.empty()) return 0;
  Quantile(q);  // sorts
  const auto keep = std::max<std::size_t>(
      1, static_cast<std::size_t>(q * static_cast<double>(values_.size())));
  return std::accumulate(values_.begin(), values_.begin() + static_cast<long>(keep),
                         0.0) / static_cast<double>(keep);
}

RepStats SummarizeReps(std::vector<double> v) {
  RepStats s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  s.min = v.front();
  s.max = v.back();
  s.median = n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  if (n >= 2) {
    // statistics.quantiles(v, n=4), default 'exclusive' method.
    const auto quartile = [&](std::size_t i) {
      const std::size_t m = n + 1;
      std::size_t j = i * m / 4;
      j = std::clamp<std::size_t>(j, 1, n - 1);
      const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
      return (v[j - 1] * (4 - delta) + v[j] * delta) / 4;
    };
    s.iqr = quartile(3) - quartile(1);
  }
  return s;
}

void MetricTable::Set(const std::string& name, double value,
                      const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

const Metric* MetricTable::Find(const std::string& name) const {
  for (const Metric& m : metrics_)
    if (m.name == name) return &m;
  return nullptr;
}

void SpanLog::Add(std::uint64_t id, const char* name, const char* cat,
                  std::uint64_t op, std::uint64_t parent, double start_us,
                  double end_us, int tid) {
  if (enabled_) spans_.push_back({name, cat, id, op, parent, start_us, end_us, tid});
}

bool SpanLog::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %llu, \"op\": %llu, \"parent\": %llu}}%s\n",
                 s.name, s.cat, s.start_us, s.end_us - s.start_us, s.tid,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.parent),
                 i + 1 == spans_.size() ? "" : ",");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

std::string Pinning::Describe() const {
  if (!pinned) {
    return "unpinned (" + std::to_string(allowed.size()) +
           " allowed CPUs, fewer than the 4 pinning needs)";
  }
  std::string out = "generator=cpu" + std::to_string(generator_cpu);
  for (std::size_t i = 0; i < mds_cpus.size(); ++i)
    out += " mds" + std::to_string(i) + "=cpu" + std::to_string(mds_cpus[i]);
  out += " monitor=cpus";
  for (std::size_t i = 0; i < monitor_cpus.size(); ++i)
    out += (i ? "," : "") + std::to_string(monitor_cpus[i]);
  return out;
}

Pinning PlanPinning(std::size_t mds_count) {
  Pinning p;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) p.allowed.push_back(c);
  }
  if (p.allowed.size() < mds_count + 1) return p;
  p.pinned = true;
  p.generator_cpu = p.allowed.back();
  p.mds_cpus.assign(p.allowed.begin(),
                    p.allowed.begin() + static_cast<long>(mds_count));
  p.monitor_cpus = p.mds_cpus;
  return p;
}

cpu_set_t CpuSet(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  return set;
}

bool PinSelf(int cpu) {
  const cpu_set_t set = CpuSet({cpu});
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

ProcSample SampleProc(pid_t pid) {
  ProcSample s;
  const std::string base = "/proc/" + std::to_string(pid);
  const std::string stat = ReadFile(base + "/stat");
  // Fields after the parenthesised comm: state is field 3, utime 14,
  // stime 15 (1-based), i.e. indexes 11 and 12 after ") ".
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return s;
  std::istringstream fields(stat.substr(close + 2));
  std::string tok;
  unsigned long long utime = 0, stime = 0;
  for (int i = 0; fields >> tok; ++i) {
    if (i == 11) utime = std::strtoull(tok.c_str(), nullptr, 10);
    if (i == 12) {
      stime = std::strtoull(tok.c_str(), nullptr, 10);
      break;
    }
  }
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  s.cpu_s = static_cast<double>(utime + stime) / hz;
  const std::string io = ReadFile(base + "/io");
  s.syscalls = FieldU64(io, "syscr") + FieldU64(io, "syscw");
  s.wchar = FieldU64(io, "wchar");
  s.write_bytes = FieldU64(io, "\nwrite_bytes");
  if (DIR* dir = opendir((base + "/task").c_str())) {
    while (const dirent* e = readdir(dir)) {
      if (e->d_name[0] == '.') continue;
      const std::string st =
          ReadFile(base + "/task/" + e->d_name + "/status");
      s.ctx_switches += FieldU64(st, "\nvoluntary_ctxt_switches") +
                        FieldU64(st, "\nnonvoluntary_ctxt_switches");
    }
    closedir(dir);
  }
  return s;
}

double StealSeconds() {
  std::istringstream fields(ReadFile("/proc/stat"));
  std::string cpu;
  unsigned long long v[8] = {};
  fields >> cpu;
  for (unsigned long long& x : v) fields >> x;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

Provenance CollectProvenance(const std::string& commit) {
  Provenance p;
  p.nproc = static_cast<int>(std::thread::hardware_concurrency());
  const std::string cpuinfo = ReadFile("/proc/cpuinfo");
  const std::size_t at = cpuinfo.find("model name");
  if (at != std::string::npos) {
    const std::size_t colon = cpuinfo.find(':', at);
    const std::size_t eol = cpuinfo.find('\n', at);
    if (colon != std::string::npos && colon < eol)
      p.cpu_model = cpuinfo.substr(colon + 2, eol - colon - 2);
  }
  utsname u{};
  if (uname(&u) == 0) p.kernel = std::string(u.sysname) + " " + u.release;
  p.commit = commit;
#ifdef D2BENCH_BUILD_TYPE
  p.build_type = D2BENCH_BUILD_TYPE;
#endif
  return p;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
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
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace d2bench
