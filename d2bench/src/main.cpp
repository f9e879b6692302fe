// d2bench — repeatable end-to-end benchmark of the D2-Tree metadata
// service, with per-layer timings and a traced run.
//
//   d2bench --workload lmbe-read|ra-lsm|scale-out|all --seed N
//           [--seconds S] [--trace 0|1] [--trace-out trace.json]
//           [--out result.json] [--work-dir DIR] [--smoke]
//
// Serving workloads boot a real cluster per repetition — an mdsd monitor
// plus 3 MDS daemons, pinned — and drive it from one generator thread over
// one TCP connection per MDS (generator.h). The scale-out workload runs an
// in-process FunctionalCluster through an add round and a drain round
// (inproc.h). `--seconds` is the measured time of one run, split evenly
// over the repetitions; warm-up, set-up and shutdown come on top.
//
// Every metric is printed by name with its unit. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics (medians over the repetitions) with --trace 0, the
// per-layer metrics with --trace 1. --trace 1 also repeats the workload
// with spans on and writes them as Chrome trace-event JSON. The exit code
// is 0 only when every output check passed.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "d2tree/core/d2tree.h"
#include "d2tree/durability/fsck.h"
#include "d2tree/net/socket_transport.h"
#include "d2tree/trace/profiles.h"
#include "generator.h"
#include "inproc.h"
#include "procs.h"

using namespace d2bench;
using d2tree::MdsId;

namespace {

constexpr std::size_t kMdsCount = 3;
// Closed-loop depth. At 64 the generator thread saturated first (100% CPU
// against ~85% on each MDS) and window throughput swung by ±13%; at 256
// each syscall carries a batch. 256 cannot overflow the 1024-deep queues.
constexpr int kInFlight = 256;
constexpr int kServingTid = 1;
constexpr int kEchoTid = 4;

struct WorkloadDef {
  const char* name;
  const char* profile;  // mdsd --profile
  double scale;
  double smoke_scale;
  bool lsm;
  bool daemons;  // real mdsd cluster; false = in-process scale-out
  double rate;   // open-loop ops/s
};

// lmbe-read: transport-bound, memory stores. ra-lsm: the same transport
// with the work moved into the LSM engine and the GL update path; 20k
// ops/s because at 40k the daemons' 1024-deep queues overflowed and the
// run collapsed. scale-out: the control plane alone (planner, journal,
// bulk extract/seal/ingest), no transport or daemon. README.md has the
// full rationale.
const WorkloadDef kWorkloads[] = {
    {"lmbe-read", "lmbe", 0.25, 0.02, false, true, 50000},
    {"ra-lsm", "ra", 2.0, 0.05, true, true, 20000},
    {"scale-out", "ra", 2.0, 0.05, true, false, 5000},
};

const char* kE2eNames[] = {"setup_s", "stat_mean_us", "peak_ops_s"};

// Stat latency is a mixture: GL hits served from a memory replica and
// local-layer reads through the owner's store, each about half the ops.
// Its median sits between the two modes and jumps with the mix, so the
// end-to-end latency is the mean with the slowest 1% dropped.
constexpr double kTrim = 0.99;

// One open-loop plus one closed-loop measurement window.
constexpr double kWindowS = 0.5;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Median(const std::vector<double>& v) { return SummarizeReps(v).median; }

struct Params {
  std::uint64_t seed = 1;
  double seconds = 12;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;
  std::string out;
  std::string work_dir = ".bench_out";
  std::string commit = "unknown";
  std::string workload = "all";
  int reps = 3;
  double warmup_s = 1.0;
  Pinning pin;
  std::string mdsd;
  std::string self;
};

/// The workload's namespace and trace. Both come from the profile's own
/// seed, not --seed: the generated tree decides the partition, the sealed
/// tables per store and the GL share. Over 10 tree seeds the same seeds
/// ran slow on ra-lsm and scale-out alike (stat_mean_us 58-73 µs and
/// 19-27 µs), so the tree, not the machine, set most of the spread.
/// --seed draws the request stream from the trace (BuildOpStream).
d2tree::TraceProfile Profile(const WorkloadDef& def, const Params& p) {
  const double scale = p.smoke ? def.smoke_scale : def.scale;
  return std::string(def.profile) == "ra" ? d2tree::RaProfile(scale)
                                          : d2tree::LmbeProfile(scale);
}

std::string ScaleArg(const WorkloadDef& def, const Params& p) {
  return FormatNumber(p.smoke ? def.smoke_scale : def.scale);
}

/// Per-repetition unique directory under the work dir.
std::string RepDir(const Params& p, const std::string& tag) {
  static int counter = 0;
  return p.work_dir + "/" + tag + "-" + std::to_string(getpid()) + "-" +
         std::to_string(counter++);
}

// --- Serving repetitions over real daemons -------------------------------

struct ServingRep {
  double setup_s = 0;
  double shutdown_s = 0;
  PhaseResult warm, open, closed;
  std::vector<double> window_mean;  // stat latency of each open-loop window
  std::vector<double> window_rate;  // ops/s of each closed-loop window
  std::vector<ChildExit> exits;             // monitor, mds0..
  std::vector<ProcSample> before, after;   // same order
  std::vector<std::string> errors;
};

/// Boots monitor + MDS daemons (or echo children), measures, stops them.
/// With `audit` the daemons drain on SIGTERM and audit themselves (and
/// FsckStoreDir checks LSM stores); otherwise they are SIGKILLed: the
/// ra-lsm audit alone takes ~7 s per boot.
ServingRep RunServingRep(const WorkloadDef& def, const Params& p,
                         const ClientRouting& routing,
                         const std::vector<Op>& ops, SpanLog* spans,
                         bool echo, bool audit) {
  ServingRep rep;
  const std::string dir = RepDir(p, echo ? "echo" : def.name);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::vector<std::uint16_t> ports = ReservePorts(kMdsCount + 1);
  if (ports.empty()) {
    rep.errors.push_back("could not reserve loopback ports");
    return rep;
  }
  std::vector<std::uint16_t> mds_ports(ports.begin() + 1, ports.end());
  std::string peers = "monitor=127.0.0.1:" + std::to_string(ports[0]);
  for (std::size_t i = 0; i < kMdsCount; ++i)
    peers += ",mds" + std::to_string(i) + "=127.0.0.1:" +
             std::to_string(mds_ports[i]);
  const std::vector<std::string> common = {
      "--peers",  peers,           "--mds-count", std::to_string(kMdsCount),
      "--profile", def.profile,    "--scale",     ScaleArg(def, p),
      "--seed",   std::to_string(Profile(def, p).seed)};

  ProcessGroup group;
  std::string err;
  const double t0 = NowUs();
  bool spawned = true;
  if (!echo) {
    ChildSpec mon{"monitor", {p.mdsd, "--role", "monitor", "--listen",
                              "127.0.0.1:" + std::to_string(ports[0])},
                  p.pin.monitor_cpus, dir + "/monitor.log"};
    mon.argv.insert(mon.argv.end(), common.begin(), common.end());
    spawned = group.Spawn(mon, &err);
  }
  for (std::size_t i = 0; spawned && i < kMdsCount; ++i) {
    const std::string name = (echo ? "echo" : "mds") + std::to_string(i);
    const std::string listen = "127.0.0.1:" + std::to_string(mds_ports[i]);
    ChildSpec spec{name, {}, {}, dir + "/" + name + ".log"};
    if (p.pin.pinned) spec.cpus = {p.pin.mds_cpus[i]};
    if (echo) {
      spec.argv = {p.self, "--echo-server", "--id", std::to_string(i),
                   "--listen", listen};
    } else {
      spec.argv = {p.mdsd, "--role", "mds", "--id", std::to_string(i),
                   "--listen", listen};
      spec.argv.insert(spec.argv.end(), common.begin(), common.end());
      if (def.lsm) {
        spec.argv.push_back("--data-dir");
        spec.argv.push_back(dir + "/data");
      }
    }
    spawned = group.Spawn(spec, &err);
  }
  if (!spawned ||
      !group.WaitReady(echo ? "ECHO LISTENING" : "MDSD LISTENING", 300, &err)) {
    rep.errors.push_back("cluster boot failed: " + err);
    group.Stop(10);
    std::filesystem::remove_all(dir, ec);
    return rep;
  }
  rep.setup_s = (NowUs() - t0) * 1e-6;
  if (!echo) spans->Add("boot", "setup", 0, 0, t0, NowUs(), kServingTid);

  // The measured time alternates short open- and closed-loop windows, so
  // a transient host disturbance lands in a few windows of each kind and
  // the per-repetition medians over windows pass it by.
  const double per_rep = p.seconds / p.reps;
  const int windows = std::max(1, static_cast<int>(per_rep / kWindowS + 0.5));
  const double open_s = 0.55 * per_rep / windows;
  const double closed_s = 0.45 * per_rep / windows;
  {
    WireGenerator gen(routing, !echo, spans, echo ? kEchoTid : kServingTid);
    if (!gen.Connect(mds_ports, &err)) {
      rep.errors.push_back(err);
    } else {
      std::size_t cursor = 0;
      rep.warm = gen.RunOpen(ops, &cursor, def.rate, p.warmup_s);
      for (std::size_t i = 0; i < group.size(); ++i)
        rep.before.push_back(SampleProc(group.pid(i)));
      for (int w = 0; w < windows; ++w) {
        const PhaseResult open = gen.RunOpen(ops, &cursor, def.rate, open_s);
        const PhaseResult closed = gen.RunClosed(ops, &cursor, kInFlight, closed_s);
        rep.window_mean.push_back(open.latency[kStat].TrimmedMean(kTrim));
        rep.window_rate.push_back(
            Ratio(static_cast<double>(closed.completed_in_window), closed_s));
        rep.open.Merge(open);
        rep.closed.Merge(closed);
      }
      for (std::size_t i = 0; i < group.size(); ++i)
        rep.after.push_back(SampleProc(group.pid(i)));
      if (!gen.error().empty()) rep.errors.push_back("generator: " + gen.error());
    }
  }
  if (!audit) {
    group.Kill();
    std::filesystem::remove_all(dir, ec);
    return rep;
  }
  rep.exits = group.Stop(120);
  for (const ChildExit& e : rep.exits) {
    rep.shutdown_s = std::max(rep.shutdown_s, e.stop_s);
    if (e.exit_code != 0 || (!echo && JsonField(e.json, "consistent") != "true"))
      rep.errors.push_back(e.name + " exited " + std::to_string(e.exit_code) +
                           " with report '" + e.json + "': " +
                           ReadLog(dir + "/" + e.name + ".log"));
  }
  if (def.lsm && !echo) {
    for (std::size_t i = 0; i < kMdsCount; ++i) {
      const std::string store = dir + "/data/mds" + std::to_string(i) + "/local";
      const d2tree::FsckReport fsck = d2tree::FsckStoreDir(store);
      if (!fsck.clean())
        rep.errors.push_back("FsckStoreDir " + store + ": " +
                             d2tree::FormatFsckReport(fsck));
    }
  }
  std::filesystem::remove_all(dir, ec);
  return rep;
}

// --- Aggregation ----------------------------------------------------------

struct WorkloadResult {
  std::string name;
  std::map<std::string, std::vector<double>> e2e_reps;
  MetricTable e2e;        // medians
  MetricTable per_layer;  // --trace 1 only
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double steal_frac = 0;  // share of CPU time the host took during the run
  std::string validity;   // the open-loop generator's schedule check
  std::vector<std::string> errors;
};

const char* E2eUnit(const std::string& name) {
  if (name == "setup_s") return "s";
  if (name == "stat_mean_us") return "us";
  return "ops/s";
}

void AddE2e(WorkloadResult* w, double setup_s, double stat_mean, double peak) {
  w->e2e_reps["setup_s"].push_back(setup_s);
  w->e2e_reps["stat_mean_us"].push_back(stat_mean);
  w->e2e_reps["peak_ops_s"].push_back(peak);
}

void FinishE2e(WorkloadResult* w) {
  for (const char* name : kE2eNames)
    w->e2e.Set(name, Median(w->e2e_reps[name]), E2eUnit(name));
}

/// Client-side layer metrics shared by both kinds of workload.
void ClientLayerMetrics(const PhaseResult& open, const PhaseResult& all,
                        double rate, MetricTable* m) {
  m->Set("gen.lag_p99_us", open.lag.Quantile(0.99), "us");
  m->Set("gen.achieved_ops_s", Ratio(static_cast<double>(open.issued), open.seconds),
         "ops/s");
  m->Set("gen.achieved_frac",
         Ratio(static_cast<double>(open.issued), open.seconds * rate), "ratio");
  m->Set("client.stat_p50_us", open.latency[kStat].Quantile(0.5), "us");
  m->Set("client.stat_p99_us", open.latency[kStat].Quantile(0.99), "us");
  m->Set("client.stat_p999_us", open.latency[kStat].Quantile(0.999), "us");
  m->Set("client.update_p50_us", open.latency[kUpdateLl].Quantile(0.5), "us");
  m->Set("client.update_p99_us", open.latency[kUpdateLl].Quantile(0.99), "us");
  m->Set("client.gl_update_p50_us", open.latency[kUpdateGl].Quantile(0.5), "us");
  m->Set("client.gl_update_p99_us", open.latency[kUpdateGl].Quantile(0.99), "us");
  m->Set("client.samples", static_cast<double>(open.latency[kStat].size() +
                                               open.latency[kUpdateLl].size() +
                                               open.latency[kUpdateGl].size()),
         "count");
  const double issued = static_cast<double>(all.issued);
  m->Set("core.gl_hit_frac", Ratio(static_cast<double>(all.gl_ops), issued), "ratio");
  m->Set("core.redirect_frac", Ratio(static_cast<double>(all.redirects), issued),
         "ratio");
  m->Set("core.jumps_max", static_cast<double>(all.jumps_max), "count");
}

double Imbalance(const std::vector<double>& load) {
  if (load.empty()) return 0;
  double sum = 0, max = 0;
  for (double l : load) {
    sum += l;
    max = std::max(max, l);
  }
  return Ratio(max, sum / static_cast<double>(load.size()));
}

/// Per-layer metrics from the daemons of the untraced serving reps.
/// Per-layer metrics from the daemons of the untraced serving reps: /proc
/// deltas over every repetition's windows, exit reports from the audited
/// repetition (the others are killed).
void DaemonLayerMetrics(const std::vector<ServingRep>& reps, MetricTable* m) {
  double syscalls = 0, ctx = 0, cpu = 0, write_bytes = 0, legs = 0, updates = 0;
  double busy = 0, wal_commits = 0, ll_updates = 0, tables = 0;
  std::vector<double> handled(kMdsCount, 0), shutdown;
  for (const ServingRep& rep : reps) {
    legs += static_cast<double>(rep.open.legs + rep.closed.legs);
    for (const PhaseResult* ph : {&rep.open, &rep.closed})
      updates += static_cast<double>(ph->latency[kUpdateLl].size() +
                                     ph->latency[kUpdateGl].size());
    for (std::size_t d = 0; d < rep.before.size() && d < rep.after.size(); ++d) {
      const ProcSample& a = rep.before[d];
      const ProcSample& b = rep.after[d];
      syscalls += static_cast<double>(b.syscalls - a.syscalls);
      ctx += static_cast<double>(b.ctx_switches - a.ctx_switches);
      cpu += b.cpu_s - a.cpu_s;
      write_bytes += static_cast<double>(b.write_bytes - a.write_bytes);
    }
    if (rep.exits.empty()) continue;
    // Exit reports cover the daemon's whole life, warm-up included.
    for (std::size_t d = 0; d < rep.exits.size(); ++d) {
      const std::string& json = rep.exits[d].json;
      busy += std::atof(JsonField(json, "busy_rejections").c_str());
      tables += std::atof(JsonField(json, "store_tables").c_str());
      if (d == 0) continue;  // monitor
      handled[d - 1] += std::atof(JsonField(json, "handled").c_str());
      // Boot loads each record with one commit; the rest are updates.
      if (JsonField(json, "store") == "lsm")
        wal_commits += std::atof(JsonField(json, "store_wal_commits").c_str()) -
                       std::atof(JsonField(json, "store_records").c_str());
    }
    for (const PhaseResult* ph : {&rep.warm, &rep.open, &rep.closed})
      for (std::uint64_t u : ph->ll_updates_ok) ll_updates += static_cast<double>(u);
    shutdown.push_back(rep.shutdown_s);
  }
  m->Set("net.syscalls_per_op", Ratio(syscalls, legs), "count");
  m->Set("net.ctx_switches_per_op", Ratio(ctx, legs), "count");
  m->Set("net.busy_rejections", busy, "count");
  m->Set("mds.cpu_us_per_op", Ratio(cpu * 1e6, legs), "us");
  m->Set("mds.shutdown_audit_s", Median(shutdown), "s");
  m->Set("core.load_imbalance", Imbalance(handled), "ratio");
  m->Set("storage.wal_commits_per_update", Ratio(wal_commits, ll_updates), "count");
  m->Set("storage.write_bytes_per_update", Ratio(write_bytes, updates), "B");
  m->Set("storage.tables", tables, "count");
}

void Tally(WorkloadResult* w, const PhaseResult& r) {
  w->attempted += r.issued;
  w->failed += r.bad();
  if (r.jumps_max > 1) w->errors.push_back("an op took more than one jump");
}

/// The open loop is trustworthy when the generator kept its schedule: its
/// mean send lag adds under a tenth to the mean stat latency, and at least
/// 99% of the offered rate was sent. (The p99 lag, ~5 µs on a 4-vCPU VM,
/// is set by interrupts and reported as gen.lag_p99_us.)
void CheckSchedule(const PhaseResult& open, double rate, WorkloadResult* w) {
  const double lag = open.lag.Mean();
  const double mean = open.latency[kStat].TrimmedMean(kTrim);
  const double achieved = Ratio(static_cast<double>(open.issued), open.seconds * rate);
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%s: mean send lag %.3g us (%.3g of stat mean), %.4g of the "
                "offered rate sent",
                lag <= 0.1 * mean && achieved >= 0.99 ? "valid" : "INVALID", lag,
                Ratio(lag, mean), achieved);
  w->validity = buf;
}

// --- Workloads --------------------------------------------------------------

/// A workload's inputs. `routing` points into the members, so a Prepared
/// stays where it was built.
struct Prepared {
  Prepared() = default;
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;

  d2tree::Workload workload;
  double generate_s = 0;
  d2tree::D2TreeScheme scheme;
  d2tree::Assignment assignment;
  ClientRouting routing;
  std::vector<Op> ops;
};

// Ops drawn per run. Phases cycle through them; the draws are independent,
// so wrapping around keeps the trace's mix.
constexpr std::size_t kStreamOps = 200000;

void Prepare(const WorkloadDef& def, const Params& p, Prepared* pr) {
  const double t0 = NowUs();
  pr->workload = d2tree::GenerateWorkload(Profile(def, p));
  pr->generate_s = (NowUs() - t0) * 1e-6;
  // The daemons' partition: the same split FunctionalCluster computes.
  pr->assignment = pr->scheme.Partition(
      pr->workload.tree, d2tree::MdsCluster::Homogeneous(kMdsCount));
  pr->routing = {&pr->workload.tree, &pr->scheme.local_index(), &pr->assignment,
                 kMdsCount, 0.02};
  pr->ops = BuildOpStream(pr->workload.trace, kStreamOps, p.seed);
}

void ReplayInto(const WorkloadDef& def, const Params& p, const Prepared& pr,
                SpanLog* spans, WorkloadResult* w) {
  ReplayParams rp;
  rp.workload = &pr.workload;
  rp.routing = &pr.routing;
  rp.ops = &pr.ops;
  if (def.lsm) rp.store.backend = d2tree::StoreSpec::Backend::kLsm;
  rp.scratch_dir = RepDir(p, std::string(def.name) + "-replay");
  rp.sample_ops = p.smoke ? 2000 : 20000;
  rp.spans = spans;
  ReplayLayers(rp, &w->per_layer, &w->errors);
  std::error_code ec;
  std::filesystem::remove_all(rp.scratch_dir, ec);
}

void EchoInto(const WorkloadDef& def, const Params& p, const Prepared& pr,
              SpanLog* spans, WorkloadResult* w) {
  const ServingRep echo =
      RunServingRep(def, p, pr.routing, pr.ops, spans, true, true);
  w->errors.insert(w->errors.end(), echo.errors.begin(), echo.errors.end());
  Tally(w, echo.open);
  Tally(w, echo.closed);
  w->per_layer.Set("net.echo_rtt_us", Median(echo.window_mean), "us");
  w->per_layer.Set("net.echo_peak_ops_s", Median(echo.window_rate), "ops/s");
}

void SpanMetrics(WorkloadResult* w, double traced_mean, bool net) {
  MetricTable& m = w->per_layer;
  const auto v = [&](const char* name) {
    const Metric* metric = m.Find(name);
    return metric ? metric->value : 0.0;
  };
  const double stat_mean = w->e2e.Find("stat_mean_us")->value;
  // The echo round trip already holds route, encode and decode at both
  // ends; the stat handler's store work is what it skips.
  const double covered =
      (net ? v("net.echo_rtt_us") : v("core.route_ns") * 1e-3) +
      v("mds.stat_ns") * 1e-3;
  m.Set("spans.coverage", Ratio(covered, stat_mean), "ratio");
  m.Set("spans.overhead_frac", stat_mean > 0 ? traced_mean / stat_mean - 1 : 0,
        "ratio");
}

WorkloadResult RunServing(const WorkloadDef& def, const Params& p,
                          SpanLog* spans) {
  WorkloadResult w;
  w.name = def.name;
  Prepared pr;
  Prepare(def, p, &pr);
  SpanLog off(false);
  std::vector<ServingRep> reps;
  PhaseResult open_all, all;
  for (int r = 0; r < p.reps; ++r) {
    ServingRep rep = RunServingRep(def, p, pr.routing, pr.ops, &off, false,
                                   r == p.reps - 1);
    w.errors.insert(w.errors.end(), rep.errors.begin(), rep.errors.end());
    for (const PhaseResult* ph : {&rep.warm, &rep.open, &rep.closed}) Tally(&w, *ph);
    AddE2e(&w, rep.setup_s, Median(rep.window_mean), Median(rep.window_rate));
    open_all.Merge(rep.open);
    all.Merge(rep.open);
    all.Merge(rep.closed);
    reps.push_back(std::move(rep));
  }
  FinishE2e(&w);
  CheckSchedule(open_all, def.rate, &w);
  if (!p.trace) return w;

  // One traced repetition: spans.overhead_frac compares it with the
  // untraced ones.
  const ServingRep traced =
      RunServingRep(def, p, pr.routing, pr.ops, spans, false, false);
  w.errors.insert(w.errors.end(), traced.errors.begin(), traced.errors.end());
  for (const PhaseResult* ph : {&traced.warm, &traced.open, &traced.closed})
    Tally(&w, *ph);
  EchoInto(def, p, pr, spans, &w);
  ReplayInto(def, p, pr, spans, &w);
  MetricTable& m = w.per_layer;
  m.Set("trace.generate_s", pr.generate_s, "s");
  ClientLayerMetrics(open_all, all, def.rate, &m);
  DaemonLayerMetrics(reps, &m);
  SpanMetrics(&w, Median(traced.window_mean), true);
  return w;
}

WorkloadResult RunScaleOut(const WorkloadDef& def, const Params& p,
                           SpanLog* spans) {
  WorkloadResult w;
  w.name = def.name;
  Prepared pr;
  Prepare(def, p, &pr);
  SpanLog off(false);
  ScaleOutParams sp;
  sp.profile = Profile(def, p);
  sp.mds_count = kMdsCount;
  sp.ops = &pr.ops;
  sp.rate = def.rate;
  // The client phases take half the measured time; the rounds take as
  // long as they take.
  sp.seconds = p.seconds / p.reps / 2;
  std::vector<ScaleOutRep> reps;
  PhaseResult client;
  for (int r = 0; r < p.reps; ++r) {
    sp.data_dir = RepDir(p, def.name);
    sp.spans = &off;
    sp.audit = r == 0;
    ScaleOutRep rep = RunScaleOutRep(sp);
    w.errors.insert(w.errors.end(), rep.errors.begin(), rep.errors.end());
    Tally(&w, rep.client);
    client.Merge(rep.client);
    w.attempted += 2;  // the two adjustment rounds
    const double moved = static_cast<double>(rep.moved_add + rep.moved_drain);
    AddE2e(&w, rep.setup_s, rep.client.latency[kStat].TrimmedMean(kTrim),
           Ratio(moved, rep.add_s + rep.drain_s));
    if (!reps.empty() && (rep.moved_add != reps[0].moved_add ||
                          rep.moved_drain != reps[0].moved_drain)) {
      w.errors.push_back("records moved differ across repetitions");
      ++w.failed;
    }
    reps.push_back(std::move(rep));
  }
  FinishE2e(&w);
  CheckSchedule(client, def.rate, &w);
  if (!p.trace) return w;

  sp.data_dir = RepDir(p, def.name);
  sp.spans = spans;
  sp.audit = false;
  const ScaleOutRep traced = RunScaleOutRep(sp);
  w.errors.insert(w.errors.end(), traced.errors.begin(), traced.errors.end());
  Tally(&w, traced.client);
  EchoInto(def, p, pr, spans, &w);
  ReplayInto(def, p, pr, spans, &w);

  // The repetitions themselves measure the control plane and the client.
  MetricTable& m = w.per_layer;
  std::vector<double> generate, materialize, audit, rebalance, wal, flushes,
      compactions, tables;
  double syscalls = 0, ctx = 0, write_bytes = 0, wal_commits = 0;
  for (const ScaleOutRep& rep : reps) {
    generate.push_back(rep.generate_s);
    materialize.push_back(rep.setup_s - rep.generate_s);
    if (rep.audit_s > 0) audit.push_back(rep.audit_s);
    rebalance.push_back(rep.add_s + rep.drain_s);
    wal.push_back(static_cast<double>(rep.monitor_wal_bytes) / 2);
    flushes.push_back(static_cast<double>(rep.flushes));
    compactions.push_back(static_cast<double>(rep.compactions));
    tables.push_back(static_cast<double>(rep.tables));
    syscalls += static_cast<double>(rep.proc_after.syscalls - rep.proc_before.syscalls);
    ctx += static_cast<double>(rep.proc_after.ctx_switches -
                               rep.proc_before.ctx_switches);
    write_bytes +=
        static_cast<double>(rep.proc_after.write_bytes - rep.proc_before.write_bytes);
    wal_commits += static_cast<double>(rep.store_wal_commits);
  }
  const double ops = static_cast<double>(client.issued);
  double ll_updates = 0;
  for (std::uint64_t u : client.ll_updates_ok) ll_updates += static_cast<double>(u);
  const double updates = static_cast<double>(client.latency[kUpdateLl].size() +
                                             client.latency[kUpdateGl].size());
  std::vector<double> served(client.served.begin(), client.served.end());
  // In process the client thread runs the MDS code itself: its CPU per op
  // is the mean service time (issue → answer), the lag excluded.
  double cpu_us = -client.lag.Sum();
  for (int k = 0; k < kOpKinds; ++k) cpu_us += client.latency[k].Sum();
  m.Set("trace.generate_s", Median(generate), "s");
  ClientLayerMetrics(client, client, def.rate, &m);
  m.Set("net.syscalls_per_op", Ratio(syscalls, ops), "count");
  m.Set("net.ctx_switches_per_op", Ratio(ctx, ops), "count");
  m.Set("net.busy_rejections", 0, "count");
  m.Set("mds.cpu_us_per_op", Ratio(cpu_us, ops), "us");
  m.Set("mds.materialize_s", Median(materialize), "s");
  m.Set("mds.shutdown_audit_s", Median(audit), "s");
  m.Set("core.load_imbalance", Imbalance(served), "ratio");
  m.Set("core.records_moved",
        static_cast<double>(reps[0].moved_add + reps[0].moved_drain), "count");
  m.Set("core.rebalance_s", Median(rebalance), "s");
  m.Set("durability.monitor_wal_bytes", Median(wal), "B");
  m.Set("storage.flushes", Median(flushes), "count");
  m.Set("storage.compactions", Median(compactions), "count");
  m.Set("storage.tables", Median(tables), "count");
  m.Set("storage.wal_commits_per_update", Ratio(wal_commits, ll_updates), "count");
  m.Set("storage.write_bytes_per_update", Ratio(write_bytes, updates), "B");
  SpanMetrics(&w, traced.client.latency[kStat].TrimmedMean(kTrim), false);
  return w;
}

// --- Output -------------------------------------------------------------

std::string MetricsJson(const MetricTable& t) {
  std::string out = "{";
  for (std::size_t i = 0; i < t.all().size(); ++i) {
    const Metric& m = t.all()[i];
    out += (i ? ", " : "") + std::string("\"") + m.name + "\": {\"value\": " +
           FormatNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

void PrintWorkload(const WorkloadResult& w) {
  std::printf("== %s ==\n", w.name.c_str());
  for (const char* name : kE2eNames) {
    const auto it = w.e2e_reps.find(name);
    if (it == w.e2e_reps.end()) continue;
    const RepStats s = SummarizeReps(it->second);
    std::printf("  e2e   %-30s %14.6g %-6s (median of %zu; min %.6g max %.6g "
                "iqr %.6g)\n",
                name, s.median, E2eUnit(name), it->second.size(), s.min, s.max,
                s.iqr);
  }
  for (const Metric& m : w.per_layer.all())
    std::printf("  layer %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("  attempted %llu, failed %llu, error_rate %.6g, host steal %.4g\n",
              static_cast<unsigned long long>(w.attempted),
              static_cast<unsigned long long>(w.failed),
              Ratio(static_cast<double>(w.failed), static_cast<double>(w.attempted)),
              w.steal_frac);
  std::printf("  schedule %s\n", w.validity.c_str());
  for (const std::string& e : w.errors) std::printf("  ERROR %s\n", e.c_str());
}

std::string ResultJson(const Params& p, const Provenance& prov,
                       const std::vector<WorkloadResult>& results) {
  std::string out = "{\n  \"provenance\": {";
  out += "\"nproc\": " + std::to_string(prov.nproc) + ", \"cpu_model\": \"" +
         JsonEscape(prov.cpu_model) + "\", \"kernel\": \"" + JsonEscape(prov.kernel) +
         "\", \"commit\": \"" + JsonEscape(prov.commit) + "\", \"build_type\": \"" +
         prov.build_type + "\", \"seed\": " + std::to_string(p.seed) +
         ", \"seconds\": " + FormatNumber(p.seconds) +
         ", \"repetitions\": " + std::to_string(p.reps) + ", \"pinning\": \"" +
         JsonEscape(p.pin.Describe()) +
         "\", \"flush_policy\": \"LSM default: sync_on_commit=false "
         "(page-cache durability)\"},\n  \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorkloadResult& w = results[i];
    out += std::string(i ? "," : "") + "\n    \"" + w.name + "\": {\"attempted\": " +
           std::to_string(w.attempted) + ", \"failed\": " + std::to_string(w.failed) +
           ", \"error_rate\": " +
           FormatNumber(Ratio(static_cast<double>(w.failed),
                              static_cast<double>(w.attempted))) +
           ", \"errors\": " + std::to_string(w.errors.size()) +
           ", \"steal_frac\": " + FormatNumber(w.steal_frac) + ", \"e2e\": {";
    bool first = true;
    for (const char* name : kE2eNames) {
      const auto it = w.e2e_reps.find(name);
      if (it == w.e2e_reps.end()) continue;
      const RepStats s = SummarizeReps(it->second);
      std::string reps;
      for (double v : it->second) reps += (reps.empty() ? "" : ", ") + FormatNumber(v);
      out += std::string(first ? "" : ", ") + "\"" + name + "\": {\"unit\": \"" +
             E2eUnit(name) + "\", \"median\": " + FormatNumber(s.median) +
             ", \"min\": " + FormatNumber(s.min) + ", \"max\": " +
             FormatNumber(s.max) + ", \"iqr\": " + FormatNumber(s.iqr) +
             ", \"reps\": [" + reps + "]}";
      first = false;
    }
    out += "}, \"per_layer\": " + MetricsJson(w.per_layer) + "}";
  }
  return out + "\n  }\n}\n";
}

// --- Echo endpoint (a bench-owned transport-only server) -----------------

volatile sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

int EchoServer(int argc, char** argv) {
  MdsId id = 0;
  std::string listen;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--id") id = static_cast<MdsId>(std::atoi(argv[i + 1]));
    if (arg == "--listen") listen = argv[i + 1];
  }
  d2tree::SocketTransport transport;
  const d2tree::Address self = d2tree::MdsAddress(id);
  if (!transport.AddPeer(self, listen)) return 2;
  // Answers like a stat: the request's target as a small record.
  const bool bound = transport.Bind(
      self, [](const d2tree::Address&, const d2tree::Message& req) {
        d2tree::Message resp = req;
        resp.type = req.type == d2tree::MsgType::kUpdateRequest
                        ? d2tree::MsgType::kUpdateResponse
                        : d2tree::MsgType::kStatResponse;
        resp.status = d2tree::MdsStatus::kOk;
        resp.record.id = req.target;
        resp.record.name = "echo";
        return resp;
      });
  if (!bound) return 1;
  std::printf("ECHO LISTENING\n");
  std::fflush(stdout);
  signal(SIGTERM, OnSignal);
  while (g_stop == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  transport.Shutdown(true);
  std::printf("{\"role\": \"echo\", \"handled\": %llu}\n",
              static_cast<unsigned long long>(transport.handled_requests()));
  return 0;
}

bool ParseArgs(int argc, char** argv, Params* p) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--smoke") {
      p->smoke = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (arg == "--workload") p->workload = v;
    else if (arg == "--seed") p->seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") p->seconds = std::atof(v);
    else if (arg == "--trace") p->trace = std::string(v) == "1";
    else if (arg == "--trace-out") p->trace_out = v;
    else if (arg == "--out") p->out = v;
    else if (arg == "--work-dir") p->work_dir = v;
    else if (arg == "--commit") p->commit = v;
    else return false;
  }
  return p->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::string(argv[1]) == "--echo-server")
    return EchoServer(argc, argv);
  Params p;
  if (!ParseArgs(argc, argv, &p)) {
    std::fprintf(stderr,
                 "usage: d2bench --workload lmbe-read|ra-lsm|scale-out|all "
                 "--seed N [--seconds S] [--trace 0|1] [--trace-out FILE] "
                 "[--out FILE] [--work-dir DIR] [--commit ID] [--smoke]\n");
    return 2;
  }
  if (p.smoke) {
    p.reps = 1;
    p.warmup_s = 0.2;
    p.seconds = std::min(p.seconds, 1.0);
  }
  std::vector<const WorkloadDef*> selected;
  for (const WorkloadDef& def : kWorkloads)
    if (p.workload == "all" || p.workload == def.name) selected.push_back(&def);
  if (selected.empty()) {
    std::fprintf(stderr, "d2bench: unknown workload '%s'\n", p.workload.c_str());
    return 2;
  }
#ifdef D2TREE_MDSD_PATH
  p.mdsd = D2TREE_MDSD_PATH;
#endif
  std::error_code ec;
  p.self = std::filesystem::read_symlink("/proc/self/exe", ec).string();
  if (access(p.mdsd.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "d2bench: mdsd not found at '%s'\n", p.mdsd.c_str());
    return 2;
  }
  std::filesystem::create_directories(p.work_dir, ec);
  p.pin = PlanPinning(kMdsCount);
  if (p.pin.pinned) PinSelf(p.pin.generator_cpu);

  const Provenance prov = CollectProvenance(p.commit);
  std::printf("d2bench: nproc %d | cpu %s | kernel %s | commit %s | build %s | "
              "seed %llu | %g s over %d repetitions | %s | flush policy: LSM "
              "default sync_on_commit=false (page-cache durability)\n",
              prov.nproc, prov.cpu_model.c_str(), prov.kernel.c_str(),
              prov.commit.c_str(), prov.build_type.c_str(),
              static_cast<unsigned long long>(p.seed), p.seconds, p.reps,
              p.pin.Describe().c_str());
  std::fflush(stdout);

  SpanLog spans(p.trace);
  std::vector<WorkloadResult> results;
  for (const WorkloadDef* def : selected) {
    const double steal0 = StealSeconds(), t0 = NowUs();
    results.push_back(def->daemons ? RunServing(*def, p, &spans)
                                   : RunScaleOut(*def, p, &spans));
    results.back().steal_frac =
        Ratio(StealSeconds() - steal0,
              (NowUs() - t0) * 1e-6 * static_cast<double>(prov.nproc));
    PrintWorkload(results.back());
    std::fflush(stdout);
  }

  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics = "{";
  for (const WorkloadResult& w : results) {
    correct = correct && w.errors.empty() && w.failed == 0;
    attempted += w.attempted;
    failed += w.failed;
    const MetricTable& t = p.trace ? w.per_layer : w.e2e;
    for (const Metric& m : t.all()) {
      const std::string name = results.size() == 1 ? m.name : w.name + "/" + m.name;
      metrics += (metrics.size() > 1 ? ", " : "") + std::string("\"") + name +
                 "\": {\"value\": " + FormatNumber(m.value) + ", \"unit\": \"" +
                 m.unit + "\"}";
    }
  }
  metrics += "}";
  if (p.trace && !p.trace_out.empty()) {
    if (spans.Write(p.trace_out)) {
      std::printf("trace: %zu spans written to %s\n", spans.size(),
                  p.trace_out.c_str());
    } else {
      std::printf("trace: cannot write %s\n", p.trace_out.c_str());
      correct = false;
    }
  }
  if (!p.out.empty()) {
    if (std::FILE* f = std::fopen(p.out.c_str(), "w")) {
      std::fputs(ResultJson(p, prov, results).c_str(), f);
      std::fclose(f);
    } else {
      correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(attempted, 1)),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return correct ? 0 : 1;
}
