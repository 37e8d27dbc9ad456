// The serve workloads' view of rispard: a separately spawned server
// process, and non-blocking client connections speaking the wire protocol
// of src/server/protocol.hpp.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <span>
#include <string>

#include "corpus.hpp"
#include "server/protocol.hpp"

namespace e2e {

/// One rispard process serving `patterns` on an ephemeral loopback port.
/// The child dies with the driver (PR_SET_PDEATHSIG), so no server outlives
/// a crashed run.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, std::span<const char* const> patterns);
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  /// The running server's VmHWM in MB.
  double peak_rss_mb() const { return e2e::peak_rss_mb(std::to_string(pid_)); }

  /// SIGTERM (a graceful drain), then SIGKILL if the server has not exited
  /// within a grace period; reaps the child. Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// A client connection: blocking connect, then non-blocking I/O with an
/// outbound buffer the event loop flushes.
struct Conn {
  int fd = -1;
  rispar::rispard::FrameReader reader;
  std::string out;
  std::size_t out_pos = 0;

  explicit Conn(std::uint16_t port);
  ~Conn();
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void queue(std::string_view frame) { out.append(frame); }
  bool wants_write() const { return out_pos < out.size(); }
  /// Sends what the socket accepts. False on a hard error.
  bool flush();
  /// Reads what is available into `reader`. False on EOF or a hard error.
  bool fill();
  /// Flushes and blocks until the next frame is complete (ping-pong use).
  /// False on a broken connection or after 30 s.
  bool await(rispar::rispard::Frame& frame);
};

}  // namespace e2e
