// In-process measurements, with no transport and no daemon:
//
//   * the scale-out workload — a FunctionalCluster over the LSM engine
//     grows by one MDS (AddServer + adjustment round), serves an
//     open-loop client phase, then drains the newcomer (KillServer +
//     adjustment round);
//   * the per-layer replays — each layer's public functions timed from
//     outside on a workload's own namespace and op stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "generator.h"
#include "d2tree/storage/store_engine.h"
#include "d2tree/trace/profiles.h"

namespace d2bench {

struct ScaleOutParams {
  d2tree::TraceProfile profile;
  std::size_t mds_count = 3;
  std::string data_dir;  // fresh LSM root for this repetition
  const std::vector<Op>* ops = nullptr;
  double rate = 0;       // client phase, ops/s (open loop)
  double seconds = 0;
  double stale = 0.02;
  /// Run FsckCluster (which includes CheckConsistency) at the end. The
  /// audit reads every record through the LSM engine (~14 s at RA scale
  /// 2), so one repetition per run carries it.
  bool audit = false;
  SpanLog* spans = nullptr;
};

struct ScaleOutRep {
  double generate_s = 0;
  double setup_s = 0;  // GenerateWorkload + FunctionalCluster construction
  double add_s = 0;    // AddServer + adjustment round
  double drain_s = 0;  // KillServer(newcomer) + adjustment round
  double audit_s = 0;  // FsckCluster; 0 when not audited
  std::size_t moved_add = 0;
  std::size_t moved_drain = 0;
  std::size_t monitor_wal_bytes = 0;  // journal growth over both rounds
  std::uint64_t flushes = 0, compactions = 0, tables = 0;
  PhaseResult client;
  ProcSample proc_before, proc_after;  // this process, client phase
  std::uint64_t store_wal_commits = 0;  // engine WAL commits, client phase
  std::vector<std::string> errors;
};

ScaleOutRep RunScaleOutRep(const ScaleOutParams& params);

struct ReplayParams {
  const d2tree::Workload* workload = nullptr;
  const ClientRouting* routing = nullptr;
  const std::vector<Op>* ops = nullptr;
  d2tree::StoreSpec store;  // the backend the workload's servers use
  std::string scratch_dir;  // sealed tables and ingest stores
  std::size_t sample_ops = 0;
  SpanLog* spans = nullptr;
};

/// Times each layer's public calls on an in-process cluster built like
/// the workload's servers and adds the per-layer metrics to `out`.
/// Wrong answers and failed audits are appended to `errors`.
void ReplayLayers(const ReplayParams& params, MetricTable* out,
                  std::vector<std::string>* errors);

}  // namespace d2bench
