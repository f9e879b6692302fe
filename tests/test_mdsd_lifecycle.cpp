// Multi-process crash/lifecycle test: boots a real 4-process cluster
// (monitor + 3 mdsd) over TCP, replays against it, SIGKILLs one MDS
// mid-replay, and asserts the client sees exactly the in-process
// semantics — kUndeliverable for the dead peer's subtrees, continued
// service for everything else, and full recovery (with a counted
// reconnect) once the daemon is revived on the same port. Clean SIGTERM
// must drain and pass the daemons' own consistency audit (exit 0).
//
// The mdsd binary path is injected at compile time (D2TREE_MDSD_PATH,
// tests/CMakeLists.txt); the suite skips when the binary is absent.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "d2tree/durability/fsck.h"
#include "d2tree/mds/cluster.h"
#include "d2tree/net/endpoint.h"
#include "d2tree/net/socket_transport.h"
#include "d2tree/trace/profiles.h"

namespace d2tree {
namespace {

#ifndef D2TREE_MDSD_PATH
#define D2TREE_MDSD_PATH ""
#endif

constexpr std::size_t kMds = 3;
constexpr const char* kProfile = "lmbe";
constexpr const char* kScale = "0.05";
constexpr const char* kSeed = "3";

/// Reserves a loopback port: bind(0), read it back, close. The tiny
/// window before the daemon rebinds is acceptable for a test (the
/// daemon's listener uses SO_REUSEADDR).
std::uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof(sa);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&sa), &len);
  ::close(fd);
  return ntohs(sa.sin_port);
}

struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;  // daemon's stdout (read side)
  std::uint16_t port = 0;
};

Daemon SpawnMdsd(const std::string& role, int id, std::uint16_t port,
                 const std::string& peers, const std::string& data_dir = "") {
  Daemon d;
  d.port = port;
  int pipefd[2];
  if (::pipe(pipefd) != 0) return d;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    return d;
  }
  if (pid == 0) {
    ::dup2(pipefd[1], STDOUT_FILENO);
    ::close(pipefd[0]);
    ::close(pipefd[1]);
    const std::string listen = "127.0.0.1:" + std::to_string(port);
    const std::string id_str = std::to_string(id);
    const std::string mds_count = std::to_string(kMds);
    std::vector<const char*> argv = {
        D2TREE_MDSD_PATH, "--role",      role.c_str(),
        "--id",           id_str.c_str(), "--listen",
        listen.c_str(),   "--peers",     peers.c_str(),
        "--mds-count",    mds_count.c_str(), "--profile",
        kProfile,         "--scale",     kScale,
        "--seed",         kSeed};
    if (!data_dir.empty()) {
      argv.push_back("--data-dir");
      argv.push_back(data_dir.c_str());
    }
    argv.push_back(nullptr);
    ::execv(D2TREE_MDSD_PATH, const_cast<char**>(argv.data()));
    std::_Exit(127);
  }
  ::close(pipefd[1]);
  d.pid = pid;
  d.out_fd = pipefd[0];
  return d;
}

/// Blocks until the daemon prints "MDSD LISTENING <port>" (or EOF).
bool AwaitListening(const Daemon& d) {
  std::string line;
  char c;
  while (::read(d.out_fd, &c, 1) == 1) {
    if (c == '\n') {
      if (line.rfind("MDSD LISTENING ", 0) == 0) return true;
      line.clear();
    } else {
      line += c;
    }
  }
  return false;
}

/// Reaps the daemon and returns its exit code (-1 = killed by signal).
int Reap(Daemon* d) {
  if (d->out_fd >= 0) {
    // Drain remaining output so the daemon never blocks on stdout.
    char buf[4096];
    while (::read(d->out_fd, buf, sizeof(buf)) > 0) {
    }
    ::close(d->out_fd);
    d->out_fd = -1;
  }
  int status = 0;
  if (::waitpid(d->pid, &status, 0) != d->pid) return -2;
  d->pid = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

class MdsdLifecycle : public ::testing::Test {
 protected:
  void SetUp() override {
    if (std::string(D2TREE_MDSD_PATH).empty() ||
        ::access(D2TREE_MDSD_PATH, X_OK) != 0)
      GTEST_SKIP() << "mdsd binary not available";

    monitor_port_ = PickFreePort();
    for (std::size_t i = 0; i < kMds; ++i) mds_ports_[i] = PickFreePort();
    ASSERT_NE(monitor_port_, 0);

    peers_ = "monitor=127.0.0.1:" + std::to_string(monitor_port_);
    for (std::size_t i = 0; i < kMds; ++i)
      peers_ += ",mds" + std::to_string(i) + "=127.0.0.1:" +
                std::to_string(mds_ports_[i]);

    monitor_ = SpawnMdsd("monitor", 0, monitor_port_, peers_);
    ASSERT_GT(monitor_.pid, 0);
    for (std::size_t i = 0; i < kMds; ++i) {
      mds_[i] = SpawnMdsd("mds", static_cast<int>(i), mds_ports_[i], peers_,
                          DataDir());
      ASSERT_GT(mds_[i].pid, 0);
    }
    ASSERT_TRUE(AwaitListening(monitor_));
    for (std::size_t i = 0; i < kMds; ++i) ASSERT_TRUE(AwaitListening(mds_[i]));
  }

  void TearDown() override {
    for (Daemon* d : {&monitor_, &mds_[0], &mds_[1], &mds_[2]}) {
      if (d->pid > 0) {
        ::kill(d->pid, SIGKILL);
        Reap(d);
      }
      if (d->out_fd >= 0) {
        ::close(d->out_fd);
        d->out_fd = -1;
      }
    }
  }

  /// Overridden by the persistence fixture: a non-empty directory puts
  /// every MDS daemon's own store on the LSM engine (--data-dir).
  virtual std::string DataDir() const { return ""; }

  std::uint16_t monitor_port_ = 0;
  std::uint16_t mds_ports_[kMds] = {0, 0, 0};
  std::string peers_;
  Daemon monitor_;
  Daemon mds_[kMds];
};

TEST_F(MdsdLifecycle, CrashMidReplayFailoverAndRevive) {
  // The client regenerates the daemons' exact namespace for routing and
  // as the oracle: a live daemon must answer exactly what the in-process
  // model answers.
  TraceProfile profile = LmbeProfile(std::atof(kScale));
  profile.seed = static_cast<std::uint64_t>(std::atoll(kSeed));
  const Workload workload = GenerateWorkload(profile);
  FunctionalCluster model(workload.tree, kMds);
  const Assignment& assignment = model.assignment();

  SocketTransport client;
  const auto specs = ParsePeerList(peers_);
  ASSERT_TRUE(specs.has_value());
  for (const PeerSpec& spec : *specs)
    ASSERT_TRUE(client.AddPeer(spec.addr, spec.host_port));

  // Pick a GL-resident target and, per MDS, one owned local-layer target.
  NodeId gl_target = kInvalidNode;
  NodeId owned_by[kMds] = {kInvalidNode, kInvalidNode, kInvalidNode};
  for (NodeId n = 0; n < workload.tree.size(); ++n) {
    const MdsId owner = assignment.OwnerOf(n);
    if (owner == kReplicated) {
      if (gl_target == kInvalidNode) gl_target = n;
    } else if (owned_by[owner] == kInvalidNode) {
      owned_by[owner] = n;
    }
  }
  ASSERT_NE(gl_target, kInvalidNode);
  for (std::size_t i = 0; i < kMds; ++i) ASSERT_NE(owned_by[i], kInvalidNode);

  const auto stat = [&](MdsId at, NodeId target, Message* resp) {
    Message req;
    req.type = MsgType::kStatRequest;
    req.target = target;
    return client.Call(ClientAddress(), MdsAddress(at), req, resp);
  };

  // Phase 1 — replay against the healthy cluster: every owner answers,
  // and answers exactly what the in-process model answers.
  for (std::size_t i = 0; i < kMds; ++i) {
    const NodeId target = owned_by[i];
    Message resp;
    const Delivery d = stat(static_cast<MdsId>(i), target, &resp);
    ASSERT_TRUE(d.delivered) << "mds" << i;
    ASSERT_EQ(resp.status, MdsStatus::kOk);
    const auto ancestors = workload.tree.AncestorsOf(target);
    const MdsOpResult want =
        model.server(static_cast<MdsId>(i)).Stat(target, ancestors);
    EXPECT_EQ(resp.record, want.record)
        << "socket daemon and in-process model disagree on node " << target;
  }
  // The honest 1-jump: a deliberately wrong entry answers kWrongServer
  // with the owner's id, never the record.
  {
    const MdsId owner = assignment.OwnerOf(owned_by[0]);
    const MdsId wrong = static_cast<MdsId>((owner + 1) % kMds);
    Message resp;
    const Delivery d = stat(wrong, owned_by[0], &resp);
    ASSERT_TRUE(d.delivered);
    EXPECT_EQ(resp.status, MdsStatus::kWrongServer);
    EXPECT_EQ(resp.peer, owner);
  }

  // Phase 2 — SIGKILL mds1 mid-replay. In-flight and subsequent calls to
  // it must surface kUndeliverable (dead peer ≙ crashed server in the
  // in-process semantics), while every other role keeps serving.
  constexpr MdsId kVictim = 1;
  ASSERT_EQ(::kill(mds_[kVictim].pid, SIGKILL), 0);
  ASSERT_EQ(Reap(&mds_[kVictim]), -1);  // killed by signal, not exited

  Delivery dead{};
  for (int attempt = 0; attempt < 10; ++attempt) {
    Message resp;
    dead = stat(kVictim, owned_by[kVictim], &resp);
    if (!dead.delivered) break;
    // A connection that was already established can carry one more
    // request before the RST lands; retry until the failure surfaces.
  }
  EXPECT_FALSE(dead.delivered);
  EXPECT_EQ(dead.error, DeliveryError::kUndeliverable)
      << "a dead peer is undeliverable, not a timeout";

  // Failover reading: the GL replica on the survivors still answers.
  for (const MdsId survivor : {MdsId{0}, MdsId{2}}) {
    Message resp;
    const Delivery d = stat(survivor, gl_target, &resp);
    ASSERT_TRUE(d.delivered) << "survivor mds" << survivor;
    EXPECT_EQ(resp.status, MdsStatus::kOk);
  }
  // And a survivor still redirects for the dead owner's subtree — the
  // placement itself did not change (no adjustment rounds in daemons).
  {
    Message resp;
    const Delivery d = stat(MdsId{0}, owned_by[kVictim], &resp);
    ASSERT_TRUE(d.delivered);
    EXPECT_EQ(resp.status, MdsStatus::kWrongServer);
    EXPECT_EQ(resp.peer, kVictim);
  }

  // Phase 3 — revive the victim on the same port; the client's next call
  // dials a fresh connection (counted) and service resumes byte-exactly.
  const std::uint64_t reconnects_before = client.reconnects();
  mds_[kVictim] = SpawnMdsd("mds", kVictim, mds_ports_[kVictim], peers_);
  ASSERT_GT(mds_[kVictim].pid, 0);
  ASSERT_TRUE(AwaitListening(mds_[kVictim]));

  Message revived;
  Delivery d{};
  d.delivered = false;
  for (int attempt = 0; attempt < 10 && !d.delivered; ++attempt)
    d = stat(kVictim, owned_by[kVictim], &revived);
  ASSERT_TRUE(d.delivered) << "revived daemon must serve again";
  EXPECT_EQ(revived.status, MdsStatus::kOk);
  EXPECT_GT(client.reconnects(), reconnects_before);
  {
    const auto ancestors = workload.tree.AncestorsOf(owned_by[kVictim]);
    const MdsOpResult want =
        model.server(kVictim).Stat(owned_by[kVictim], ancestors);
    EXPECT_EQ(revived.record, want.record);
  }

  // Phase 4 — clean SIGTERM: every daemon drains, audits its model and
  // exits 0 (a failed consistency audit exits 1).
  client.Shutdown();
  for (Daemon* daemon : {&mds_[0], &mds_[1], &mds_[2], &monitor_}) {
    ASSERT_EQ(::kill(daemon->pid, SIGTERM), 0);
    EXPECT_EQ(Reap(daemon), 0) << "daemon failed its shutdown audit";
  }
}

/// Same 4-process cluster, but every MDS daemon persists its own store
/// under a shared --data-dir (each at <dir>/mds<id>/local, so the daemons
/// never cross-write).
class MdsdPersistence : public MdsdLifecycle {
 protected:
  MdsdPersistence() {
    data_dir_ = "/tmp/d2t_mdsd_persist_" + std::to_string(::getpid()) +
                "_XXXXXX";
    if (::mkdtemp(data_dir_.data()) == nullptr) data_dir_.clear();
  }
  ~MdsdPersistence() override {
    if (!data_dir_.empty()) {
      const std::string cmd = "rm -rf '" + data_dir_ + "'";
      [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }
  }
  std::string DataDir() const override { return data_dir_; }

  std::string data_dir_;
};

TEST_F(MdsdPersistence, MutationsSurviveSigkillRestart) {
  ASSERT_FALSE(data_dir_.empty());

  // The client regenerates the daemons' namespace as the routing oracle.
  TraceProfile profile = LmbeProfile(std::atof(kScale));
  profile.seed = static_cast<std::uint64_t>(std::atoll(kSeed));
  const Workload workload = GenerateWorkload(profile);
  FunctionalCluster model(workload.tree, kMds);
  const Assignment& assignment = model.assignment();

  SocketTransport client;
  const auto specs = ParsePeerList(peers_);
  ASSERT_TRUE(specs.has_value());
  for (const PeerSpec& spec : *specs)
    ASSERT_TRUE(client.AddPeer(spec.addr, spec.host_port));

  constexpr MdsId kVictim = 1;
  NodeId target = kInvalidNode;
  for (NodeId n = 0; n < workload.tree.size() && target == kInvalidNode; ++n)
    if (assignment.OwnerOf(n) == kVictim) target = n;
  ASSERT_NE(target, kInvalidNode);

  // Mutate the victim's subtree over the wire, mirroring the op on the
  // in-process model — the oracle for what must survive.
  constexpr std::uint64_t kMtime = 777777;
  {
    Message req;
    req.type = MsgType::kUpdateRequest;
    req.target = target;
    req.mtime = kMtime;
    Message resp;
    const Delivery d =
        client.Call(ClientAddress(), MdsAddress(kVictim), req, &resp);
    ASSERT_TRUE(d.delivered);
    ASSERT_EQ(resp.status, MdsStatus::kOk);
  }
  const auto ancestors = workload.tree.AncestorsOf(target);
  const MdsOpResult want =
      model.server(kVictim).UpdateLocal(target, ancestors, kMtime);
  ASSERT_EQ(want.status, MdsStatus::kOk);
  EXPECT_GT(want.record.version, 0u);

  // SIGKILL — no drain, no flush; only what the engine WAL group-committed
  // survives. Then restart on the same port AND the same --data-dir.
  ASSERT_EQ(::kill(mds_[kVictim].pid, SIGKILL), 0);
  ASSERT_EQ(Reap(&mds_[kVictim]), -1);
  mds_[kVictim] = SpawnMdsd("mds", kVictim, mds_ports_[kVictim], peers_,
                            data_dir_);
  ASSERT_GT(mds_[kVictim].pid, 0);
  ASSERT_TRUE(AwaitListening(mds_[kVictim]));

  // The revived daemon must answer the *mutated* record — a volatile
  // daemon would have regenerated the pristine tree and lost the update.
  Message revived;
  Delivery d{};
  d.delivered = false;
  for (int attempt = 0; attempt < 10 && !d.delivered; ++attempt) {
    Message req;
    req.type = MsgType::kStatRequest;
    req.target = target;
    d = client.Call(ClientAddress(), MdsAddress(kVictim), req, &revived);
  }
  ASSERT_TRUE(d.delivered);
  ASSERT_EQ(revived.status, MdsStatus::kOk);
  EXPECT_EQ(revived.record.attrs.mtime, kMtime)
      << "mutation lost across SIGKILL: store did not persist";
  EXPECT_EQ(revived.record, want.record)
      << "revived daemon and in-process oracle disagree";

  // Clean shutdown: each daemon's exit audit must still pass, and the
  // victim's store directory must audit clean offline (the d2fsck gate).
  client.Shutdown();
  for (Daemon* daemon : {&mds_[0], &mds_[1], &mds_[2], &monitor_}) {
    ASSERT_EQ(::kill(daemon->pid, SIGTERM), 0);
    EXPECT_EQ(Reap(daemon), 0) << "daemon failed its shutdown audit";
  }
  const FsckReport report =
      FsckStoreDir(data_dir_ + "/mds" + std::to_string(kVictim) + "/local");
  EXPECT_TRUE(report.clean()) << FormatFsckReport(report);
}

}  // namespace
}  // namespace d2tree
