#include "procs.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>

#include "common.h"

namespace d2bench {

ProcessGroup::~ProcessGroup() { Kill(); }

void ProcessGroup::Kill() {
  for (Child& c : children_) {
    if (!c.reaped && c.pid > 0) {
      kill(c.pid, SIGKILL);
      waitpid(c.pid, &c.status, 0);
      c.reaped = true;
    }
    if (c.out_fd >= 0) {
      close(c.out_fd);
      c.out_fd = -1;
    }
  }
}

bool ProcessGroup::Spawn(const ChildSpec& spec, std::string* err) {
  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    *err = "pipe: " + std::string(std::strerror(errno));
    return false;
  }
  std::vector<char*> argv;
  for (const std::string& a : spec.argv) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const cpu_set_t cpus = CpuSet(spec.cpus);
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    *err = "fork: " + std::string(std::strerror(errno));
    return false;
  }
  if (pid == 0) {
    // Child: only async-signal-safe calls until exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(126);
    dup2(pipe_fds[1], STDOUT_FILENO);
    const int log = open(spec.log_path.c_str(),
                         O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    if (!spec.cpus.empty()) sched_setaffinity(0, sizeof(cpus), &cpus);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(pipe_fds[1]);
  fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
  Child c;
  c.spec = spec;
  c.pid = pid;
  c.out_fd = pipe_fds[0];
  children_.push_back(std::move(c));
  return true;
}

void ProcessGroup::Drain(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<Child*> owners;
  for (Child& c : children_) {
    if (c.out_fd < 0) continue;
    fds.push_back({c.out_fd, POLLIN, 0});
    owners.push_back(&c);
  }
  if (fds.empty()) return;
  if (poll(fds.data(), fds.size(), timeout_ms) <= 0) return;
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    Child& c = *owners[i];
    char buf[4096];
    for (;;) {
      const ssize_t n = read(c.out_fd, buf, sizeof(buf));
      if (n > 0) {
        c.out.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
        close(c.out_fd);
        c.out_fd = -1;
      }
      break;
    }
  }
}

bool ProcessGroup::WaitReady(const std::string& token, double timeout_s,
                             std::string* err) {
  const double deadline = NowUs() + timeout_s * 1e6;
  for (;;) {
    bool all = true;
    for (Child& c : children_) {
      if (!c.ready) c.ready = c.out.find(token) != std::string::npos;
      all = all && c.ready;
    }
    if (all) return true;
    for (Child& c : children_) {
      int status = 0;
      if (!c.ready && !c.reaped && waitpid(c.pid, &status, WNOHANG) == c.pid) {
        c.reaped = true;
        c.status = status;
        *err = c.spec.name + " exited before '" + token + "': " +
               ReadLog(c.spec.log_path);
        return false;
      }
    }
    if (NowUs() > deadline) {
      for (const Child& c : children_) {
        if (!c.ready) {
          *err = c.spec.name + " never printed '" + token + "': " +
                 ReadLog(c.spec.log_path);
          break;
        }
      }
      return false;
    }
    Drain(1);
  }
}

std::vector<ChildExit> ProcessGroup::Stop(double timeout_s) {
  const double t0 = NowUs();
  for (Child& c : children_)
    if (!c.reaped) kill(c.pid, SIGTERM);
  bool killed = false;
  for (;;) {
    bool all = true;
    for (Child& c : children_) {
      if (c.reaped) continue;
      if (waitpid(c.pid, &c.status, WNOHANG) == c.pid) {
        c.reaped = true;
        c.stop_us = NowUs() - t0;
      } else {
        all = false;
      }
    }
    if (all) break;
    if (!killed && NowUs() - t0 > timeout_s * 1e6) {
      for (Child& c : children_)
        if (!c.reaped) kill(c.pid, SIGKILL);
      killed = true;
    }
    Drain(1);
  }
  // Every writer has exited: drain the pipes to EOF.
  for (;;) {
    bool open = false;
    for (const Child& c : children_) open = open || c.out_fd >= 0;
    if (!open) break;
    Drain(100);
  }
  std::vector<ChildExit> exits;
  for (const Child& c : children_) {
    ChildExit e;
    e.name = c.spec.name;
    e.exit_code = WIFEXITED(c.status) ? WEXITSTATUS(c.status) : -1;
    e.stop_s = c.stop_us * 1e-6;
    std::istringstream lines(c.out);
    for (std::string line; std::getline(lines, line);)
      if (!line.empty() && line[0] == '{') e.json = line;
    exits.push_back(std::move(e));
  }
  return exits;
}

std::vector<std::uint16_t> ReservePorts(std::size_t n) {
  std::vector<int> socks;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < n; ++i) {
    const int s = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (s < 0) break;
    socks.push_back(s);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (bind(s, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        getsockname(s, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
      break;
    ports.push_back(ntohs(addr.sin_port));
  }
  for (int s : socks) close(s);
  if (ports.size() != n) ports.clear();
  return ports;
}

std::string JsonField(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  while (at < json.size() && json[at] == ' ') ++at;
  if (at < json.size() && json[at] == '"') {
    const std::size_t end = json.find('"', at + 1);
    return end == std::string::npos ? "" : json.substr(at + 1, end - at - 1);
  }
  const std::size_t end = json.find_first_of(",}", at);
  return json.substr(at, end == std::string::npos ? end : end - at);
}

std::string ReadLog(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::string s = ss.str();
  if (s.size() > 2000) s = "..." + s.substr(s.size() - 2000);
  return s.empty() ? "(empty log)" : s;
}

}  // namespace d2bench
