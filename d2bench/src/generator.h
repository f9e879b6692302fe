// The serving-phase load generator: one thread, one TCP connection per
// MDS, speaking the wire codec (EncodeFrame/DecodeFrame) directly.
//
// Each op is routed on the client with the D2-Tree local index
// (DecideRoute), cross-checked against the daemons' Assignment, sent to
// its entry server, and — on a kWrongServer answer — re-sent once to the
// named peer (the paper's 1-jump). Open-loop phases space requests evenly
// and time every op from its due time, so a stall is charged to the
// requests queued behind it; closed-loop phases keep a fixed number of
// ops in flight and count completions.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "d2tree/core/local_index.h"
#include "d2tree/net/wire.h"
#include "d2tree/partition/partition.h"
#include "d2tree/trace/trace.h"

namespace d2bench {

/// One client operation of the replayed stream.
struct Op {
  d2tree::NodeId target = d2tree::kInvalidNode;
  bool update = false;
  std::uint64_t mtime = 0;
  std::uint64_t entry_seed = 0;  // seeds the op's entry choice (ChooseEntry)
};

/// `count` ops drawn from `trace` at random with replacement (the trace's
/// records are independent draws, so the stream keeps its mix); records,
/// entry choices and mtimes all follow `seed`.
std::vector<Op> BuildOpStream(const d2tree::Trace& trace, std::size_t count,
                              std::uint64_t seed);

enum OpKind : int { kStat = 0, kUpdateLl, kUpdateGl, kOpKinds };

/// Client view of the placement: what the generator routes with.
struct ClientRouting {
  const d2tree::NamespaceTree* tree = nullptr;
  const d2tree::LocalIndex* index = nullptr;
  const d2tree::Assignment* assignment = nullptr;
  std::size_t mds_count = 0;
  /// Probability that a local-layer op enters at a random server (a stale
  /// cached index entry), paying the redirect.
  double stale = 0.02;
};

/// Entry server for `op` (core/routing.h ChooseEntry, seeded per op) and
/// whether its target is GL-resident.
struct Entry {
  d2tree::MdsId server = 0;
  d2tree::MdsId owner = d2tree::kReplicated;
  bool gl = false;
  bool route_ok = true;  // local index agrees with the Assignment
};
Entry RouteOp(const ClientRouting& routing, const Op& op);

struct PhaseResult {
  Samples latency[kOpKinds];  // µs from due time (open) / issue (closed)
  Samples lag;                // µs the first leg left after its due time
  std::uint64_t issued = 0;
  std::uint64_t failed = 0;        // error status (busy included)
  std::uint64_t unanswered = 0;    // no answer before the drain deadline
  std::uint64_t wrong_record = 0;  // kOk carrying another record
  std::uint64_t route_mismatch = 0;
  std::uint64_t redirects = 0;
  std::uint64_t gl_ops = 0;
  std::uint64_t jumps_max = 0;
  std::uint64_t legs = 0;                 // RPCs sent (redirect legs included)
  std::uint64_t completed_in_window = 0;  // ops finished before the end
  std::vector<std::uint64_t> ll_updates_ok;  // per MDS
  std::vector<std::uint64_t> served;  // ops answered kOk, per MDS (in process)
  double seconds = 0;

  std::uint64_t bad() const {
    return failed + unanswered + wrong_record + route_mismatch;
  }
  void Merge(const PhaseResult& other);
};

class WireGenerator {
 public:
  /// `check_records`: a kOk answer must carry the target's namespace
  /// record (id, name, parent); off for the echo endpoints, which only
  /// echo the id. `tid` labels this generator's spans.
  WireGenerator(ClientRouting routing, bool check_records, SpanLog* spans,
                int tid);
  ~WireGenerator();
  WireGenerator(const WireGenerator&) = delete;
  WireGenerator& operator=(const WireGenerator&) = delete;

  /// One connection per server, server i on 127.0.0.1:ports[i].
  bool Connect(const std::vector<std::uint16_t>& ports, std::string* err);

  /// Evenly spaced requests at `rate` ops/s for `seconds`.
  PhaseResult RunOpen(const std::vector<Op>& ops, std::size_t* cursor,
                      double rate, double seconds);
  /// `in_flight` outstanding ops for `seconds`.
  PhaseResult RunClosed(const std::vector<Op>& ops, std::size_t* cursor,
                        int in_flight, double seconds);

  /// Empty unless a socket or framing error made the generator stop.
  const std::string& error() const noexcept { return error_; }

 private:
  struct Conn {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_off = 0;
  };
  struct Pending {
    const Op* op = nullptr;
    std::uint64_t seq = 0;  // global op number (span sampling, op id)
    double due_us = 0;
    Entry entry;
    d2tree::MdsId at = 0;  // server of the current leg
    int leg = 0;
    // Tracing (sampled ops only).
    std::uint64_t op_span = 0;
    std::uint64_t leg_parent = 0;
    double redirect_us = 0;
    double encoded_us = 0;
    bool live = false;  // sent, not yet answered
  };

  PhaseResult Run(const std::vector<Op>& ops, std::size_t* cursor,
                  double rate, int in_flight, double seconds);
  void Issue(const Op& op, double due_us, bool open, PhaseResult* r);
  void SendLeg(Pending p, d2tree::MdsId to, PhaseResult* r);
  void Flush();
  void Poll(PhaseResult* r, double window_end_us);
  void Complete(const d2tree::WireEnvelope& env, double decode_start,
                double decode_end, PhaseResult* r, double window_end_us);

  ClientRouting routing_;
  bool check_records_;
  SpanLog* spans_;
  int tid_;
  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  /// This phase's legs, indexed by correlation id - legs_base_.
  std::vector<Pending> legs_;
  std::uint64_t legs_base_ = 1;
  std::size_t outstanding_ = 0;
  std::uint64_t next_corr_ = 1;
  std::vector<std::uint8_t> rbuf_ = std::vector<std::uint8_t>(256 * 1024);
  std::uint64_t next_seq_ = 0;
  std::string error_;
};

}  // namespace d2bench
