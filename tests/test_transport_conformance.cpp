// Cross-transport conformance suite: one parameterized body pins the
// Transport contract — request/response round-trips, payload fidelity,
// the undeliverable-vs-timeout error taxonomy, partition behaviour and
// pipelined concurrency — identically on all three implementations
// (InProcess, SimNet, real TCP sockets). A behaviour difference between
// the simulated paths and the socket path would silently invalidate every
// simulated benchmark, so this suite is the contract's single source of
// truth (DESIGN.md §10).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "d2tree/net/simnet.h"
#include "d2tree/net/socket_transport.h"
#include "d2tree/net/transport.h"
#include "d2tree/net/wire.h"

namespace d2tree {
namespace {

enum class TransportKind { kInProcess, kSimNet, kSocket };

// The protocol registry: every MsgType enumerator, by name, so the
// conformance sweep below cannot silently skip a type when the enum
// grows (d2lint's registry rule pins this table to the enum).
constexpr MsgType kAllMsgTypes[] = {
    MsgType::kStatRequest,     MsgType::kStatResponse,
    MsgType::kUpdateRequest,   MsgType::kUpdateResponse,
    MsgType::kForward,         MsgType::kHeartbeat,
    MsgType::kPendingPoolPush, MsgType::kPendingPoolPull,
    MsgType::kGlWriteLock,     MsgType::kGlCommit,
    MsgType::kRenameRequest,   MsgType::kRenameResponse,
    MsgType::kRenamePrepare,   MsgType::kRenameCommit,
    MsgType::kRenameAbort,     MsgType::kBulkTable,
};
static_assert(std::size(kAllMsgTypes) ==
                  static_cast<std::size_t>(MsgType::kBulkTable) + 1,
              "kAllMsgTypes must list every MsgType enumerator");

struct ConformanceParam {
  TransportKind kind;
  const char* name;
};

// Names the transport in the test listing; without it gtest prints the raw
// bytes of the param, pointer and padding included, and the test names
// change on every build.
void PrintTo(const ConformanceParam& p, std::ostream* os) { *os << p.name; }

std::string ParamName(
    const ::testing::TestParamInfo<ConformanceParam>& info) {
  return info.param.name;
}

Message FullyLoadedMessage() {
  Message m;
  m.type = MsgType::kStatRequest;
  m.target = 4711;
  m.mtime = 0x1020304050607080ULL;
  m.payload_records = 3;
  m.migration_id = 99;
  m.peer = 2;
  m.name = "component-name";
  m.record.id = 4711;
  m.record.parent = 470;
  m.record.type = NodeType::kDirectory;
  m.record.name = "dir";
  m.record.attrs.mode = 0755;
  m.record.attrs.uid = 501;
  m.record.attrs.gid = 20;
  m.record.attrs.size = 4096;
  m.record.attrs.mtime = 1710000000;
  m.record.attrs.ctime = 1700000001;
  m.record.version = 12;
  return m;
}

class TransportConformance
    : public ::testing::TestWithParam<ConformanceParam> {
 protected:
  std::shared_ptr<Transport> Make() {
    switch (GetParam().kind) {
      case TransportKind::kInProcess:
        return std::make_shared<InProcessTransport>();
      case TransportKind::kSimNet: {
        SimNetConfig cfg;
        cfg.jitter_mean_us = 0.0;  // deterministic latencies
        return std::make_shared<SimNetTransport>(cfg);
      }
      case TransportKind::kSocket: {
        SocketTransportConfig cfg;
        cfg.call_timeout_ms = 400.0;  // keep the timeout test fast
        auto t = std::make_shared<SocketTransport>(cfg);
        socket_ = t;
        return t;
      }
    }
    return nullptr;
  }

  void TearDown() override {
    if (auto s = socket_.lock()) s->Shutdown();
  }

  std::weak_ptr<SocketTransport> socket_;
};

// Every MsgType round-trips through Bind/Call with the full payload
// intact — the response the handler produced is the response the caller
// sees, field for field.
TEST_P(TransportConformance, CallRoundTripsEveryMsgType) {
  auto t = Make();
  ASSERT_TRUE(t->Bind(MdsAddress(1), [](const Address& from, const Message& req) {
    EXPECT_EQ(from, ClientAddress());
    Message resp = req;
    resp.status = MdsStatus::kOk;
    resp.mtime = req.mtime + 1;  // prove the handler actually ran
    return resp;
  }));

  for (const MsgType type : kAllMsgTypes) {
    Message req = FullyLoadedMessage();
    req.type = type;
    req.mtime = 1000 + static_cast<std::uint8_t>(type);
    Message resp;
    const Delivery d = t->Call(ClientAddress(), MdsAddress(1), req, &resp);
    ASSERT_TRUE(d.delivered) << MsgTypeName(req.type);
    EXPECT_EQ(d.error, DeliveryError::kNone);
    Message want = req;
    want.status = MdsStatus::kOk;
    want.mtime = req.mtime + 1;
    EXPECT_EQ(resp, want) << MsgTypeName(req.type);
  }
}

// Payload fidelity at the wire bounds: a maximum-size name, an empty
// name, and a fully populated record all survive the round trip exactly.
TEST_P(TransportConformance, PayloadFidelityAtTheBounds) {
  auto t = Make();
  ASSERT_TRUE(t->Bind(MdsAddress(0), [](const Address&, const Message& req) {
    return req;  // pure echo
  }));

  Message max = FullyLoadedMessage();
  max.name = std::string(kMaxWireNameBytes, 'n');
  max.record.name = std::string(kMaxWireNameBytes, 'r');
  Message empty = FullyLoadedMessage();
  empty.name.clear();
  empty.record = InodeRecord{};

  for (const Message* req : {&max, &empty}) {
    Message resp;
    const Delivery d = t->Call(ClientAddress(), MdsAddress(0), *req, &resp);
    ASSERT_TRUE(d.delivered);
    EXPECT_EQ(resp, *req);
  }
}

// A Call to an endpoint nobody serves is kUndeliverable — not a timeout,
// not a crash — on every transport.
TEST_P(TransportConformance, UnknownPeerIsUndeliverable) {
  auto t = Make();
  Message resp;
  const Delivery d =
      t->Call(ClientAddress(), MdsAddress(7), FullyLoadedMessage(), &resp);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.error, DeliveryError::kUndeliverable);
}

// A partitioned peer is refused with kUndeliverable, and healing the
// partition restores service. Transports without a partition model are
// exempt (they return false from SetPartitioned).
TEST_P(TransportConformance, PartitionIsUndeliverableUntilHealed) {
  auto t = Make();
  ASSERT_TRUE(t->Bind(MdsAddress(1), [](const Address&, const Message& req) {
    return req;
  }));
  if (!t->SetPartitioned(ClientAddress(), MdsAddress(1), true))
    GTEST_SKIP() << "transport has no partition model";

  Message resp;
  Delivery d =
      t->Call(ClientAddress(), MdsAddress(1), FullyLoadedMessage(), &resp);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.error, DeliveryError::kUndeliverable);

  ASSERT_TRUE(t->SetPartitioned(ClientAddress(), MdsAddress(1), false));
  d = t->Call(ClientAddress(), MdsAddress(1), FullyLoadedMessage(), &resp);
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.error, DeliveryError::kNone);
}

// A lost-but-possibly-executed leg is kTimeout, distinct from
// kUndeliverable: on SimNet a fully lossy link, on the socket transport a
// handler that outlives the RPC deadline. InProcess cannot lose a leg.
TEST_P(TransportConformance, LostLegIsTimeoutNotUndeliverable) {
  auto t = Make();
  if (t->SetLinkDropRate(ClientAddress(), MdsAddress(1), 1.0)) {
    ASSERT_TRUE(
        t->Bind(MdsAddress(1),
                [](const Address&, const Message& req) { return req; }));
    Message resp;
    const Delivery d =
        t->Call(ClientAddress(), MdsAddress(1), FullyLoadedMessage(), &resp);
    EXPECT_FALSE(d.delivered);
    EXPECT_EQ(d.error, DeliveryError::kTimeout);
    return;
  }
  if (GetParam().kind != TransportKind::kSocket)
    GTEST_SKIP() << "transport cannot lose a delivered leg";

  ASSERT_TRUE(t->Bind(MdsAddress(1), [](const Address&, const Message& req) {
    std::this_thread::sleep_for(std::chrono::milliseconds(900));
    return req;
  }));
  Message resp;
  const Delivery d =
      t->Call(ClientAddress(), MdsAddress(1), FullyLoadedMessage(), &resp);
  EXPECT_FALSE(d.delivered);
  EXPECT_EQ(d.error, DeliveryError::kTimeout)
      << "the server may still execute the request — kUndeliverable would "
         "promise it did not";
}

// Pipelined concurrency: many threads multiplex calls to one endpoint and
// every caller gets the answer to *its own* request (correlation ids on
// the socket path, call-stack integrity elsewhere).
TEST_P(TransportConformance, ConcurrentCallsCorrelateResponses) {
  auto t = Make();
  std::atomic<std::uint64_t> handled{0};
  ASSERT_TRUE(t->Bind(MdsAddress(1), [&](const Address&, const Message& req) {
    handled.fetch_add(1, std::memory_order_relaxed);
    Message resp = req;
    resp.status = MdsStatus::kOk;
    resp.migration_id = static_cast<std::uint64_t>(req.target) * 3 + 1;
    return resp;
  }));

  constexpr int kThreads = 4;
  constexpr int kCallsPerThread = 50;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int th = 0; th < kThreads; ++th) {
    threads.emplace_back([&, th] {
      for (int i = 0; i < kCallsPerThread; ++i) {
        Message req;
        req.type = MsgType::kStatRequest;
        req.target = static_cast<NodeId>(th * kCallsPerThread + i);
        Message resp;
        const Delivery d = t->Call(ClientAddress(), MdsAddress(1), req, &resp);
        if (!d.delivered)
          failures.fetch_add(1, std::memory_order_relaxed);
        else if (resp.migration_id !=
                     static_cast<std::uint64_t>(req.target) * 3 + 1 ||
                 resp.target != req.target)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0) << "a caller received another call's answer";
  EXPECT_EQ(handled.load(), kThreads * kCallsPerThread);
}

// One-way Send to a served endpoint is delivered and accounted.
TEST_P(TransportConformance, SendToServedPeerIsDelivered) {
  auto t = Make();
  ASSERT_TRUE(t->Bind(MdsAddress(1), [](const Address&, const Message& req) {
    return req;
  }));
  const std::uint64_t sent_before = t->messages_sent();
  const Delivery d =
      t->Send(ClientAddress(), MdsAddress(1), FullyLoadedMessage());
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.error, DeliveryError::kNone);
  EXPECT_GT(t->messages_sent(), sent_before);
}

INSTANTIATE_TEST_SUITE_P(
    AllTransports, TransportConformance,
    ::testing::Values(
        ConformanceParam{TransportKind::kInProcess, "InProcess"},
        ConformanceParam{TransportKind::kSimNet, "SimNet"},
        ConformanceParam{TransportKind::kSocket, "Socket"}),
    ParamName);

// --- Socket-only contract points (no equivalent surface elsewhere). ---

int DialLoopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool SendAll(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, 0);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads frames off `fd` until `want` well-formed frames arrived (or the
/// peer closed / 5s elapsed). Returns the decoded envelopes.
std::vector<WireEnvelope> ReadFrames(int fd, std::size_t want) {
  std::vector<WireEnvelope> got;
  std::vector<std::uint8_t> buf;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got.size() < want && std::chrono::steady_clock::now() < deadline) {
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    buf.insert(buf.end(), chunk, chunk + n);
    for (;;) {
      WireEnvelope env;
      std::size_t consumed = 0;
      if (DecodeFrame(buf.data(), buf.size(), &env, &consumed) !=
          DecodeStatus::kOk)
        break;
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
      got.push_back(std::move(env));
    }
  }
  return got;
}

std::uint16_t BoundPort(const SocketTransport& t, const Address& addr) {
  const std::string endpoint = t.EndpointOf(addr);
  const auto colon = endpoint.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<std::uint16_t>(std::stoi(endpoint.substr(colon + 1)));
}

// A redelivered correlation id (a client retry after a lost response) is
// answered from the response cache, not by running the handler twice —
// the at-most-once execution guarantee behind the WAL-style dedup the
// migration protocol relies on.
TEST(SocketTransportContract, RedeliveredCallIsDedupedNotReExecuted) {
  SocketTransport t;
  std::atomic<int> executions{0};
  ASSERT_TRUE(t.Bind(MdsAddress(0), [&](const Address&, const Message& req) {
    executions.fetch_add(1, std::memory_order_relaxed);
    Message resp = req;
    resp.status = MdsStatus::kOk;
    resp.mtime = 777;
    return resp;
  }));
  const std::uint16_t port = BoundPort(t, MdsAddress(0));
  ASSERT_NE(port, 0);
  const int fd = DialLoopback(port);
  ASSERT_GE(fd, 0);

  WireEnvelope env;
  env.kind = FrameKind::kCall;
  env.correlation_id = 42;
  env.from = ClientAddress();
  env.to = MdsAddress(0);
  env.msg = FullyLoadedMessage();
  const auto frame = EncodeFrame(env);

  // Same frame twice: one execution, two identical responses.
  ASSERT_TRUE(SendAll(fd, frame));
  auto first = ReadFrames(fd, 1);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_TRUE(SendAll(fd, frame));
  auto second = ReadFrames(fd, 1);
  ASSERT_EQ(second.size(), 1u);

  EXPECT_EQ(executions.load(), 1);
  EXPECT_GE(t.dedup_hits(), 1u);
  EXPECT_EQ(first[0].kind, FrameKind::kResponse);
  EXPECT_EQ(first[0].correlation_id, 42u);
  EXPECT_EQ(first[0].msg.mtime, 777u);
  EXPECT_EQ(second[0].msg, first[0].msg)
      << "the cached response must be byte-identical";

  ::close(fd);
  t.Shutdown();
}

// A corrupt frame (bit rot, misbehaving peer) tears the connection down
// and is counted; the transport itself survives and keeps serving.
TEST(SocketTransportContract, CorruptFrameTearsDownConnectionOnly) {
  SocketTransport t;
  ASSERT_TRUE(t.Bind(MdsAddress(0), [](const Address&, const Message& req) {
    return req;
  }));
  const std::uint16_t port = BoundPort(t, MdsAddress(0));
  const int fd = DialLoopback(port);
  ASSERT_GE(fd, 0);

  WireEnvelope env;
  env.kind = FrameKind::kCall;
  env.correlation_id = 7;
  env.to = MdsAddress(0);
  env.msg = FullyLoadedMessage();
  auto frame = EncodeFrame(env);
  frame[frame.size() - 1] ^= 0xFF;  // CRC now fails
  ASSERT_TRUE(SendAll(fd, frame));

  // The server must close the poisoned connection...
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  bool closed = false;
  while (std::chrono::steady_clock::now() < deadline) {
    std::uint8_t b;
    const ssize_t n = ::recv(fd, &b, 1, 0);
    if (n == 0) {
      closed = true;
      break;
    }
    if (n < 0) break;
  }
  EXPECT_TRUE(closed);
  EXPECT_GE(t.corrupt_frames(), 1u);
  ::close(fd);

  // ...while the endpoint itself keeps serving fresh connections.
  Message resp;
  const Delivery d =
      t.Call(ClientAddress(), MdsAddress(0), FullyLoadedMessage(), &resp);
  EXPECT_TRUE(d.delivered);
  t.Shutdown();
}

}  // namespace
}  // namespace d2tree
