#include "generator.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "d2tree/common/rng.h"
#include "d2tree/core/routing.h"

namespace d2bench {

using d2tree::MdsId;
using d2tree::MdsStatus;
using d2tree::Message;
using d2tree::MsgType;
using d2tree::WireEnvelope;

namespace {
// An op whose answer has not arrived this long after the phase ended is
// counted unanswered.
constexpr double kDrainUs = 3e6;
}  // namespace

std::vector<Op> BuildOpStream(const d2tree::Trace& trace, std::size_t count,
                              std::uint64_t seed) {
  std::vector<Op> ops;
  if (trace.empty()) return ops;
  d2tree::Rng rng(seed ^ 0xD2BE7C4ULL);
  ops.reserve(count);
  const auto& records = trace.records();
  for (std::size_t i = 0; i < count; ++i) {
    const d2tree::TraceRecord& rec = records[rng() % records.size()];
    Op op;
    op.target = rec.node;
    op.update = rec.op == d2tree::OpType::kUpdate;
    op.mtime = op.update ? rng() : 0;
    op.entry_seed = rng();
    ops.push_back(op);
  }
  return ops;
}

Entry RouteOp(const ClientRouting& routing, const Op& op) {
  Entry e;
  const d2tree::RouteDecision route =
      d2tree::DecideRoute(*routing.tree, *routing.index, op.target);
  e.owner = routing.assignment->OwnerOf(op.target);
  e.gl = route.gl_resident();
  e.route_ok = e.gl ? e.owner == d2tree::kReplicated
                    : route.owner.value_or(-2) == e.owner;
  d2tree::Rng rng(op.entry_seed);
  e.server = d2tree::ChooseEntry(route, routing.mds_count, routing.stale, rng);
  return e;
}

void PhaseResult::Merge(const PhaseResult& o) {
  for (int k = 0; k < kOpKinds; ++k) latency[k].Append(o.latency[k]);
  lag.Append(o.lag);
  issued += o.issued;
  failed += o.failed;
  unanswered += o.unanswered;
  wrong_record += o.wrong_record;
  route_mismatch += o.route_mismatch;
  redirects += o.redirects;
  gl_ops += o.gl_ops;
  jumps_max = std::max(jumps_max, o.jumps_max);
  legs += o.legs;
  completed_in_window += o.completed_in_window;
  ll_updates_ok.resize(std::max(ll_updates_ok.size(), o.ll_updates_ok.size()));
  for (std::size_t i = 0; i < o.ll_updates_ok.size(); ++i)
    ll_updates_ok[i] += o.ll_updates_ok[i];
  served.resize(std::max(served.size(), o.served.size()));
  for (std::size_t i = 0; i < o.served.size(); ++i) served[i] += o.served[i];
  seconds += o.seconds;
}

WireGenerator::WireGenerator(ClientRouting routing, bool check_records,
                             SpanLog* spans, int tid)
    : routing_(routing), check_records_(check_records), spans_(spans),
      tid_(tid) {}

WireGenerator::~WireGenerator() {
  for (Conn& c : conns_)
    if (c.fd >= 0) close(c.fd);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

bool WireGenerator::Connect(const std::vector<std::uint16_t>& ports,
                            std::string* err) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    *err = "epoll_create1 failed";
    return false;
  }
  conns_.resize(ports.size());
  for (std::size_t i = 0; i < ports.size(); ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ports[i]);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd < 0 ||
        connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      *err = "connect to port " + std::to_string(ports[i]) + ": " +
             std::strerror(errno);
      if (fd >= 0) close(fd);
      return false;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Non-blocking after the connect: the loop never waits on a socket.
    if (fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
      *err = "fcntl O_NONBLOCK failed";
      close(fd);
      return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = i;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[i].fd = fd;
  }
  return true;
}

PhaseResult WireGenerator::RunOpen(const std::vector<Op>& ops,
                                   std::size_t* cursor, double rate,
                                   double seconds) {
  return Run(ops, cursor, rate, 0, seconds);
}

PhaseResult WireGenerator::RunClosed(const std::vector<Op>& ops,
                                     std::size_t* cursor, int in_flight,
                                     double seconds) {
  return Run(ops, cursor, 0, in_flight, seconds);
}

PhaseResult WireGenerator::Run(const std::vector<Op>& ops, std::size_t* cursor,
                               double rate, int in_flight, double seconds) {
  PhaseResult r;
  r.ll_updates_ok.assign(conns_.size(), 0);
  if (ops.empty() || !error_.empty()) return r;
  legs_.clear();
  legs_base_ = next_corr_;
  outstanding_ = 0;
  const double start = NowUs() + 100.0;
  const double end = start + seconds * 1e6;
  const double interval = rate > 0 ? 1e6 / rate : 0;
  std::uint64_t n = 0;
  WaitUntilUs(start);
  for (;;) {
    const double now = NowUs();
    if (now >= end) break;
    if (rate > 0) {
      // Open loop: every op whose due time has come leaves now.
      for (double due = start + static_cast<double>(n) * interval;
           due <= now && due < end;
           due = start + static_cast<double>(++n) * interval) {
        Issue(ops[(*cursor)++ % ops.size()], due, true, &r);
      }
    } else {
      while (outstanding_ < static_cast<std::size_t>(in_flight)) {
        Issue(ops[(*cursor)++ % ops.size()], NowUs(), false, &r);
        ++n;
      }
    }
    Flush();
    Poll(&r, end);
    if (!error_.empty()) return r;
  }
  r.seconds = seconds;
  // Drain: every issued op gets its answer or is counted unanswered.
  const double drain_end = NowUs() + kDrainUs;
  while (outstanding_ > 0 && NowUs() < drain_end && error_.empty()) {
    Flush();
    Poll(&r, end);
  }
  r.unanswered += outstanding_;
  return r;
}

void WireGenerator::Issue(const Op& op, double due_us, bool open,
                          PhaseResult* r) {
  Pending p;
  p.op = &op;
  p.seq = next_seq_++;
  p.due_us = due_us;
  const bool sampled = spans_->Sampled(p.seq);
  // Closed-loop ops are due when issued; the clock is read only where a
  // value is kept, since the generator's own cost caps the closed loop.
  const double route_start = open || sampled ? NowUs() : due_us;
  p.entry = RouteOp(routing_, op);
  ++r->issued;
  if (p.entry.gl) ++r->gl_ops;
  if (open) r->lag.Add(route_start - due_us);
  if (!p.entry.route_ok) {
    ++r->route_mismatch;
    return;
  }
  if (sampled) {
    p.op_span = spans_->NewId();
    p.leg_parent = p.op_span;
    if (route_start > due_us)
      spans_->Add("gen_lag", "client", p.seq, p.op_span, due_us, route_start, tid_);
    spans_->Add("route", "core", p.seq, p.op_span, route_start, NowUs(), tid_);
  }
  SendLeg(p, p.entry.server, r);
}

void WireGenerator::SendLeg(Pending p, MdsId to, PhaseResult* r) {
  const double t0 = p.op_span != 0 ? NowUs() : 0;
  // Correlation ids never repeat: the servers deduplicate on them.
  const std::uint64_t corr = next_corr_++;
  Message req{.type = p.op->update ? MsgType::kUpdateRequest
                                   : MsgType::kStatRequest,
              .target = p.op->target,
              .mtime = p.op->mtime};
  const std::vector<std::uint8_t> frame = d2tree::EncodeFrame(
      WireEnvelope{d2tree::FrameKind::kCall, corr, d2tree::ClientAddress(),
                   d2tree::MdsAddress(to), req});
  Conn& c = conns_[static_cast<std::size_t>(to)];
  c.out.insert(c.out.end(), frame.begin(), frame.end());
  ++r->legs;
  p.at = to;
  if (p.op_span != 0) {
    p.encoded_us = NowUs();
    spans_->Add("encode", "net", p.seq, p.leg_parent, t0, p.encoded_us, tid_);
  }
  p.live = true;
  legs_.push_back(p);
  ++outstanding_;
}

void WireGenerator::Flush() {
  for (Conn& c : conns_) {
    while (c.out_off < c.out.size()) {
      const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                             c.out.size() - c.out_off, MSG_NOSIGNAL);
      if (n > 0) {
        c.out_off += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) break;
      error_ = "send failed: " + std::string(std::strerror(errno));
      return;
    }
    if (c.out_off == c.out.size()) {
      c.out.clear();
      c.out_off = 0;
    }
  }
}

void WireGenerator::Poll(PhaseResult* r, double window_end_us) {
  epoll_event evs[8];
  const int n = epoll_wait(epoll_fd_, evs, 8, 0);
  for (int e = 0; e < n; ++e) {
    Conn& c = conns_[evs[e].data.u64];
    // One read per ready socket: epoll is level-triggered, so anything
    // left behind is reported again on the next poll.
    const ssize_t got = recv(c.fd, rbuf_.data(), rbuf_.size(), 0);
    if (got > 0) {
      c.in.insert(c.in.end(), rbuf_.data(), rbuf_.data() + got);
    } else if (got == 0 || (errno != EAGAIN && errno != EINTR)) {
      error_ = got == 0 ? "server closed the connection"
                        : "recv failed: " + std::string(std::strerror(errno));
      return;
    }
    std::size_t off = 0;
    while (off < c.in.size()) {
      WireEnvelope env;
      std::size_t used = 0;
      const double t0 = spans_->enabled() ? NowUs() : 0;
      const d2tree::DecodeStatus st =
          d2tree::DecodeFrame(c.in.data() + off, c.in.size() - off, &env, &used);
      if (st == d2tree::DecodeStatus::kNeedMore) break;
      if (st == d2tree::DecodeStatus::kCorrupt) {
        error_ = "corrupt frame from a server";
        return;
      }
      const double t1 = spans_->enabled() ? NowUs() : 0;
      off += used;
      Complete(env, t0, t1, r, window_end_us);
    }
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<long>(off));
  }
}

void WireGenerator::Complete(const WireEnvelope& env, double decode_start,
                             double decode_end, PhaseResult* r,
                             double window_end_us) {
  // Answers to an earlier phase's unanswered legs fall outside the table.
  const std::uint64_t idx = env.correlation_id - legs_base_;
  if (env.correlation_id < legs_base_ || idx >= legs_.size() || !legs_[idx].live ||
      env.kind != d2tree::FrameKind::kResponse)
    return;
  Pending p = legs_[idx];
  legs_[idx].live = false;
  --outstanding_;
  const Message& msg = env.msg;
  if (p.op_span != 0) {
    spans_->Add("in_flight", "net", p.seq, p.leg_parent, p.encoded_us,
                decode_start, tid_);
    spans_->Add("decode", "net", p.seq, p.leg_parent, decode_start, decode_end,
                tid_);
  }
  const auto m = static_cast<MdsId>(conns_.size());
  if (msg.status == MdsStatus::kWrongServer && msg.peer >= 0 && msg.peer < m) {
    if (p.leg == 0) {
      ++r->redirects;
      r->jumps_max = std::max<std::uint64_t>(r->jumps_max, 1);
      p.leg = 1;
      if (p.op_span != 0) {
        p.redirect_us = NowUs();
        p.leg_parent = spans_->NewId();
      }
      SendLeg(p, msg.peer, r);
      return;
    }
    r->jumps_max = std::max<std::uint64_t>(r->jumps_max, 2);
  }
  const double done = NowUs();
  if (done <= window_end_us) ++r->completed_in_window;
  if (p.op_span != 0) {
    if (p.leg == 1)
      spans_->Add(p.leg_parent, "redirect", "client", p.seq, p.op_span,
                  p.redirect_us, done, tid_);
    spans_->Add(p.op_span, p.op->update ? "update" : "stat", "client", p.seq, 0,
                p.due_us, done, tid_);
  }
  if (msg.status != MdsStatus::kOk) {
    ++r->failed;
    return;
  }
  const d2tree::NodeId target = p.op->target;
  bool record_ok = msg.record.id == target;
  if (record_ok && check_records_) {
    const d2tree::MetaNode& node = routing_.tree->node(target);
    record_ok = msg.record.name == node.name && msg.record.parent == node.parent;
  }
  if (!record_ok) {
    ++r->wrong_record;
    return;
  }
  const int kind = !p.op->update ? kStat : p.entry.gl ? kUpdateGl : kUpdateLl;
  if (kind == kUpdateLl) ++r->ll_updates_ok[static_cast<std::size_t>(p.at)];
  r->latency[kind].Add(done - p.due_us);
}

}  // namespace d2bench
