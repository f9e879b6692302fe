// Child-process management for d2bench: pinned fork/exec of the mdsd
// daemons (and the bench's own echo children), readiness handshake on
// stdout, SIGTERM drain with the daemons' one-line JSON report, and
// guaranteed reaping — every child is killed and waited for when the
// group is destroyed, on error paths too.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace d2bench {

struct ChildSpec {
  std::string name;               // "monitor", "mds0", "echo1", ...
  std::vector<std::string> argv;  // argv[0] is the executable path
  std::vector<int> cpus;          // affinity set before exec; empty = inherit
  std::string log_path;           // the child's stderr
};

struct ChildExit {
  std::string name;
  int exit_code = -1;  // -1: killed by a signal or never reaped
  std::string json;    // the last stdout line that starts with '{'
  double stop_s = 0;   // SIGTERM → exit
};

class ProcessGroup {
 public:
  ProcessGroup() = default;
  ~ProcessGroup();
  ProcessGroup(const ProcessGroup&) = delete;
  ProcessGroup& operator=(const ProcessGroup&) = delete;

  bool Spawn(const ChildSpec& spec, std::string* err);
  /// Waits until every child has printed a stdout line starting with
  /// `token`. On failure `err` names the child and quotes its stderr log.
  bool WaitReady(const std::string& token, double timeout_s, std::string* err);
  std::size_t size() const noexcept { return children_.size(); }
  pid_t pid(std::size_t i) const { return children_[i].pid; }
  /// SIGTERMs every child, collects stdout to EOF and reaps them; a
  /// child still running after `timeout_s` is SIGKILLed (exit_code -1).
  std::vector<ChildExit> Stop(double timeout_s);
  /// SIGKILLs and reaps every child still running.
  void Kill();

 private:
  struct Child {
    ChildSpec spec;
    pid_t pid = -1;
    int out_fd = -1;
    std::string out;
    bool ready = false;
    bool reaped = false;
    int status = 0;
    double stop_us = 0;
  };
  /// Reads what is available on every open stdout pipe; closes at EOF.
  void Drain(int timeout_ms);

  std::vector<Child> children_;
};

/// Reserves `n` distinct free loopback ports (bound, read, released). Every
/// daemon needs the full peer list before any of them listens.
std::vector<std::uint16_t> ReservePorts(std::size_t n);

/// Value of `"key": <value>` in a flat one-line JSON object, as text
/// ("" when absent; string values without their quotes).
std::string JsonField(const std::string& json, const std::string& key);

/// Contents of a (small) log file, for error messages.
std::string ReadLog(const std::string& path);

}  // namespace d2bench
