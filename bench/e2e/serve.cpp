// serve-tail and serve-backfill: rispard driven over loopback TCP by one
// generator thread holding kConnections connections.
#include "serve.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "workloads.hpp"

namespace e2e {

using namespace rispar::rispard;

// ------------------------------------------------------------ ServerProcess

namespace {

struct SpawnArgs {
  char** argv;
  int stdout_fd;
  pid_t parent;
};

/// The child side of the spawn; runs on its own stack in the driver's
/// memory until execv, so it makes system calls only.
int exec_server(void* arg) {
  const SpawnArgs& spawn = *static_cast<const SpawnArgs*>(arg);
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != spawn.parent) ::_exit(127);  // the driver died before prctl
  ::dup2(spawn.stdout_fd, STDOUT_FILENO);
  ::execv(spawn.argv[0], spawn.argv);
  ::_exit(127);
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             std::span<const char* const> patterns) {
  std::vector<std::string> args = {binary, "--port", "0"};
  for (const char* pattern : patterns) {
    args.emplace_back("--pattern");
    args.emplace_back(pattern);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  // vfork semantics (shared memory, the driver paused until execv) instead
  // of fork: fork copies the page tables of the driver's corpus and oracles,
  // which costs more than the server's own start and would land in setup_s.
  SpawnArgs spawn{argv.data(), pipe_fds[1], ::getpid()};
  std::vector<char> stack(64 * 1024);
  pid_ = ::clone(exec_server, stack.data() + stack.size(),
                 CLONE_VM | CLONE_VFORK | SIGCHLD, &spawn);
  ::close(pipe_fds[1]);
  if (pid_ < 0) {
    ::close(pipe_fds[0]);
    throw std::runtime_error("cannot spawn " + binary);
  }
  stdout_fd_ = pipe_fds[0];

  // The server prints "rispard: serving N patterns on ADDR:PORT (...)" once
  // it listens.
  std::string banner;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (banner.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{stdout_fd_, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) break;
    char chunk[256];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    banner.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t at = banner.find("127.0.0.1:");
  if (at != std::string::npos)
    port_ = static_cast<std::uint16_t>(
        std::strtoul(banner.c_str() + at + 10, nullptr, 10));
  if (port_ == 0) {
    stop();
    throw std::runtime_error("rispard did not start: '" + banner + "'");
  }
}

void ServerProcess::stop() {
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    int status = 0;
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid_, &status, WNOHANG)) == 0 && Clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (reaped == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    ::close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

// --------------------------------------------------------------------- Conn

Conn::Conn(std::uint16_t port) {
  fd = connect_backoff(port);
  if (fd < 0) throw std::runtime_error("cannot connect to rispard");
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

Conn::~Conn() {
  if (fd >= 0) ::close(fd);
}

bool Conn::flush() {
  while (out_pos < out.size()) {
    const ssize_t n =
        ::send(fd, out.data() + out_pos, out.size() - out_pos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    out_pos += static_cast<std::size_t>(n);
  }
  out.clear();
  out_pos = 0;
  return true;
}

bool Conn::fill() {
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n > 0) {
      reader.append(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof chunk) return true;
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return errno == EAGAIN || errno == EWOULDBLOCK;
  }
}

bool Conn::await(Frame& frame) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (!reader.next(frame)) {
    if (!flush()) return false;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
    if (left.count() <= 0) return false;
    pollfd pfd{fd, static_cast<short>(POLLIN | (wants_write() ? POLLOUT : 0)), 0};
    if (::poll(&pfd, 1, static_cast<int>(left.count())) < 0 && errno != EINTR)
      return false;
    if ((pfd.revents & POLLIN) != 0 && !fill()) return false;
  }
  return true;
}

namespace {

constexpr std::size_t kTailSessions = 256;  // kConnections x 64
constexpr std::size_t kTailFeedBytes = 4096;
constexpr std::size_t kBackfillSessions = 16;  // kConnections x 4
constexpr std::size_t kBackfillFeedBytes = 64 * 1024;
constexpr std::uint32_t kBackfillChunks = 4;
constexpr std::uint64_t kCheckpointEvery = 16;
/// How long the generator waits for outstanding acks after the measured
/// phase before counting them as failed.
constexpr auto kDrainTimeout = std::chrono::seconds(10);
/// serve-tail is invalid when the generator's p99 lateness exceeds this.
constexpr double kMaxLateMs = 10;

/// A byte stream sessions feed from its start, and the serial oracle of
/// what such a session must receive.
struct Stream {
  std::string name;
  std::string bytes;
  /// The catalog pattern of a single-pattern session on this stream.
  std::uint32_t pattern = 0;
  PrefixOracle oracle;
};

/// serve-tail: one stream per type (its 8 documents), matched by that
/// type's catalog pattern with separator begins.
std::vector<Stream> tail_streams(const Corpus& corpus) {
  std::vector<Stream> streams(kTypes);
  const std::vector<rispar::Pattern> catalog = compile_catalog();
  parallel_for(kTypes, [&](std::size_t type) {
    Stream& stream = streams[type];
    stream.name = kTypeNames[type];
    stream.bytes = type_stream(corpus, type);
    stream.pattern = static_cast<std::uint32_t>(type);
    stream.oracle =
        PrefixOracle(serial_matches(catalog[type], stream.bytes, stream.pattern));
  });
  return streams;
}

/// serve-backfill: every type's first document cut into 64 KiB blocks and
/// interleaved, so each session's windows cycle through all five types
/// (five rotations of the type order, one per stream); matched by the whole
/// catalog with exact begins.
std::vector<Stream> backfill_streams(const Corpus& corpus) {
  std::vector<Stream> streams(kTypes);
  const std::vector<rispar::Pattern> catalog = compile_catalog();
  for (const rispar::Pattern& p : catalog) (void)p.reverse_begins();
  parallel_for(kTypes, [&](std::size_t rotation) {
    Stream& stream = streams[rotation];
    stream.name = std::string("interleave-") + kTypeNames[rotation];
    for (std::size_t at = 0;; at += kBackfillFeedBytes) {
      bool any = false;
      for (std::size_t k = 0; k < kTypes; ++k) {
        const std::string& doc = corpus.docs[(rotation + k) % kTypes].text;
        if (at >= doc.size()) continue;
        stream.bytes.append(doc, at, kBackfillFeedBytes);
        any = true;
      }
      if (!any) break;
    }
    stream.oracle = PrefixOracle(catalog_exact_matches(catalog, stream.bytes));
  });
  return streams;
}

struct InFlight {
  Clock::time_point at;  ///< scheduled (open loop) or sent (closed loop)
  std::uint32_t bytes = 0;
  bool measured = false;
};

struct Session {
  std::size_t slot = 0;
  std::size_t stream = 0;  ///< index into the workload's streams
  std::uint64_t sent = 0;   ///< stream bytes queued so far
  std::uint64_t acked = 0;  ///< FED consumed_total
  std::uint64_t feeds_acked = 0;
  std::uint64_t measured_feeds = 0;
  MatchDigest digest;
  std::deque<InFlight> inflight;
  bool bad = false;  ///< an ERROR frame named this session
};

/// The generator's connections and sessions. Slots are the fixed session
/// positions (contiguous blocks per connection); a slot opens a new session
/// whenever its current one has streamed its whole stream.
class Fleet {
 public:
  using FedHandler =
      std::function<void(std::uint32_t sid, const InFlight& feed, Clock::time_point now)>;

  Fleet(std::uint16_t port, std::size_t slots, const std::vector<Stream>& streams,
        bool multi, std::size_t feed_bytes)
      : streams_(streams), multi_(multi), feed_bytes_(feed_bytes), slot_sid_(slots) {
    for (std::size_t c = 0; c < kConnections; ++c)
      conns_.push_back(std::make_unique<Conn>(port));
  }

  std::size_t slots() const { return slot_sid_.size(); }
  Session& session(std::uint32_t sid) { return sessions_.at(sid); }
  std::uint64_t outstanding() const { return outstanding_; }
  std::uint64_t checkpoints() const { return checkpoints_; }
  std::uint64_t checkpoint_bytes() const { return checkpoint_bytes_; }

  void open(std::size_t slot, std::size_t stream) {
    const std::uint32_t sid = next_sid_++;
    slot_sid_[slot] = sid;
    Session& s = sessions_[sid];
    s.slot = slot;
    s.stream = stream;
    conn_of(slot).queue(
        multi_
            ? make_open_session_multi(sid, 0, kBackfillChunks, {}, kOpenFlagExactBegins)
            : make_open_session(sid, streams_[stream].pattern, 0, 1));
  }

  /// When the slot's session has streamed its whole stream: closes it
  /// (checked against the whole-stream oracle when CLOSED arrives) and opens
  /// a new one on the same stream.
  void reopen_if_exhausted(std::size_t slot) {
    const Session& s = sessions_.at(slot_sid_[slot]);
    if (s.sent < streams_[s.stream].bytes.size()) return;
    const std::size_t stream = s.stream;
    conn_of(slot).queue(make_close(slot_sid_[slot]));
    open(slot, stream);
  }

  void feed(std::size_t slot, Clock::time_point at, bool measured) {
    const std::uint32_t sid = slot_sid_[slot];
    Session& s = sessions_.at(sid);
    const std::string_view rest = std::string_view(streams_[s.stream].bytes)
                                      .substr(static_cast<std::size_t>(s.sent));
    const std::size_t len = std::min(feed_bytes_, rest.size());
    conn_of(slot).queue(make_feed(sid, rest.substr(0, len)));
    s.sent += len;
    s.inflight.push_back({at, static_cast<std::uint32_t>(len), measured});
    if (measured) ++s.measured_feeds;
    ++outstanding_;
  }

  void checkpoint(std::size_t slot) {
    conn_of(slot).queue(make_checkpoint(slot_sid_[slot]));
  }

  /// Flushes, waits up to `timeout` for input, and dispatches every
  /// complete frame. False when a connection broke.
  bool pump(std::chrono::nanoseconds timeout, const FedHandler& on_fed) {
    std::array<pollfd, kConnections> fds{};
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if (!conns_[c]->flush()) return false;
      fds[c] = {conns_[c]->fd,
                static_cast<short>(POLLIN | (conns_[c]->wants_write() ? POLLOUT : 0)), 0};
    }
    timeout = std::max(timeout, std::chrono::nanoseconds(0));
    const timespec ts{static_cast<time_t>(timeout.count() / 1000000000),
                      static_cast<long>(timeout.count() % 1000000000)};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0) return errno == EINTR;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) return false;
      if ((fds[c].revents & POLLIN) == 0) continue;
      if (!conns_[c]->fill()) return false;
      const auto now = Clock::now();
      Frame frame;
      while (conns_[c]->reader.next(frame)) dispatch(frame, now, on_fed);
    }
    return true;
  }

  /// Blocks until every queued OPEN is answered. False on timeout.
  bool await_opened(std::uint64_t expected) {
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (opened_ < expected && Clock::now() < deadline)
      if (!pump(std::chrono::milliseconds(50), {})) return false;
    return opened_ >= expected;
  }

  /// Failures among sessions still open: every measured feed of a session
  /// whose matches disagree with its oracle prefix, plus unacked feeds.
  void settle(Result& result) {
    for (auto& [sid, s] : sessions_) {
      std::uint64_t unacked = 0;
      for (const InFlight& f : s.inflight) unacked += f.measured ? 1 : 0;
      const std::uint64_t acked_measured = s.measured_feeds - unacked;
      const PrefixOracle& oracle = streams_[s.stream].oracle;
      const std::uint64_t failed =
          unacked + (s.bad ? acked_measured
                           : failed_feeds(s.digest, oracle, s.acked, acked_measured));
      if (failed > 0)
        log("session %u on %s: %llu matches after %llu bytes, the oracle has %llu%s\n",
            sid, streams_[s.stream].name.c_str(),
            static_cast<unsigned long long>(s.digest.count),
            static_cast<unsigned long long>(s.acked),
            static_cast<unsigned long long>(oracle.upto(s.acked).count),
            unacked > 0 ? " (feeds unacked)" : "");
      failed_ += failed;
    }
    result.failed += failed_;
    if (failed_ > 0 || errors_ > 0) result.correct = false;
    sessions_.clear();
  }

 private:
  /// docs/rispard.md says MATCHES always carry the catalog id, but
  /// single-pattern sessions send their internal id 0. The session is bound
  /// to one pattern, so its matches are checked under that pattern's id and
  /// the discrepancy is logged once per run instead of failing every feed.
  std::uint32_t single_pattern_id(const Session& s, std::uint32_t wire_id) {
    const std::uint32_t catalog_id = streams_[s.stream].pattern;
    if (wire_id != catalog_id && !noted_wire_id_) {
      noted_wire_id_ = true;
      log("note: a single-pattern session on catalog pattern %u received MATCHES "
          "tagged %u\n",
          catalog_id, wire_id);
    }
    return catalog_id;
  }

  Conn& conn_of(std::size_t slot) {
    return *conns_[slot * conns_.size() / slot_sid_.size()];
  }

  void dispatch(const Frame& frame, Clock::time_point now, const FedHandler& on_fed) {
    PayloadReader payload(frame.payload);
    const std::uint32_t sid = payload.get_u32();
    const auto it = sessions_.find(sid);
    if (frame.type == FrameType::kError) {
      ++errors_;
      log("rispard ERROR frame (session %u, code %u): %.*s\n", sid,
          static_cast<unsigned>(payload.get_u8()),
          static_cast<int>(frame.payload.size() > 5 ? frame.payload.size() - 5 : 0),
          frame.payload.data() + std::min<std::size_t>(5, frame.payload.size()));
      if (it == sessions_.end()) {
        ++failed_;
        return;
      }
      it->second.bad = true;
      // An ERROR answering a FEED replaces its FED.
      if (!it->second.inflight.empty()) {
        const InFlight feed = it->second.inflight.front();
        it->second.inflight.pop_front();
        --outstanding_;
        if (on_fed) on_fed(sid, feed, now);
      }
      return;
    }
    if (it == sessions_.end()) {
      ++errors_;
      return;
    }
    Session& s = it->second;
    switch (frame.type) {
      case FrameType::kOpened:
        ++opened_;
        break;
      case FrameType::kMatches: {
        const std::uint32_t count = payload.get_u32();
        for (std::uint32_t i = 0; i < count; ++i) {
          std::uint32_t pattern = payload.get_u32();
          const std::uint64_t begin = payload.get_u64();
          const std::uint64_t end = payload.get_u64();
          if (!multi_) pattern = single_pattern_id(s, pattern);
          s.digest.add(pattern, begin, end);
        }
        if (!payload.exhausted()) s.bad = true;
        break;
      }
      case FrameType::kFed: {
        s.acked = payload.get_u64();
        ++s.feeds_acked;
        if (s.inflight.empty()) {
          s.bad = true;
          break;
        }
        const InFlight feed = s.inflight.front();
        s.inflight.pop_front();
        --outstanding_;
        if (on_fed) on_fed(sid, feed, now);
        break;
      }
      case FrameType::kCheckpointed:
        ++checkpoints_;
        // {session_id, pattern_id, blob}: the blob is all but 8 bytes.
        checkpoint_bytes_ +=
            frame.payload.size() - std::min<std::size_t>(8, frame.payload.size());
        break;
      case FrameType::kClosed: {
        const std::uint64_t total = payload.get_u64();
        const PrefixOracle& oracle = streams_[s.stream].oracle;
        const bool ok = !s.bad && s.inflight.empty() &&
                        s.acked == streams_[s.stream].bytes.size() &&
                        s.digest == oracle.total() && total == s.digest.count;
        if (!ok) {
          failed_ += s.measured_feeds;
          log("session %u on %s: CLOSED disagrees with the oracle (%llu vs %llu "
              "matches)\n",
              sid, streams_[s.stream].name.c_str(),
              static_cast<unsigned long long>(s.digest.count),
              static_cast<unsigned long long>(oracle.total().count));
        }
        sessions_.erase(it);
        break;
      }
      default:
        ++errors_;
        break;
    }
  }

  const std::vector<Stream>& streams_;
  bool multi_;
  std::size_t feed_bytes_;
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<std::uint32_t> slot_sid_;
  std::unordered_map<std::uint32_t, Session> sessions_;
  std::uint32_t next_sid_ = 0;
  std::uint64_t outstanding_ = 0;
  std::uint64_t opened_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checkpoints_ = 0;
  std::uint64_t checkpoint_bytes_ = 0;
  bool noted_wire_id_ = false;
};

/// A server with every slot's first session OPENED: the serve set-up.
struct Served {
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Fleet> fleet;
};

/// kSetupRuns cold starts (spawn until every session is OPENED); returns
/// the last one still serving and records the median.
Served cold_starts(const Options& options, const std::vector<Stream>& streams,
                   std::size_t slots, bool multi, std::size_t feed_bytes,
                   Result& result) {
  std::vector<double> setups;
  Served served;
  for (int run = 0; run < kSetupRuns; ++run) {
    served.fleet.reset();
    if (served.server) served.server->stop();
    const auto t0 = Clock::now();
    served.server = std::make_unique<ServerProcess>(options.rispard, kFindPatterns);
    served.fleet =
        std::make_unique<Fleet>(served.server->port(), slots, streams, multi, feed_bytes);
    for (std::size_t slot = 0; slot < slots; ++slot)
      served.fleet->open(slot, slot % streams.size());
    if (!served.fleet->await_opened(slots))
      throw std::runtime_error("sessions were not all OPENED");
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  add_setup_metric(result, setups);
  return served;
}

void finish(Served& served, Result& result, double bytes, double seconds,
            std::vector<double> latencies) {
  served.fleet->settle(result);
  served.fleet.reset();
  const double rss = served.server->peak_rss_mb();
  served.server->stop();
  result.metrics.push_back({"throughput_mbps", bytes / seconds / 1e6, "MB/s"});
  log("throughput_mbps = %.3f MB/s (%.0f bytes acked in %.3f s)\n",
      bytes / seconds / 1e6, bytes, seconds);
  add_latency_metrics(result, std::move(latencies));
  result.metrics.push_back({"peak_rss_mb", rss, "MB"});
  log("peak_rss_mb = %.3f MB (rispard VmHWM)\n", rss);
}

MatchDigest oracle_digest(const std::vector<Stream>& streams) {
  MatchDigest digest;
  for (std::size_t i = 0; i < streams.size(); ++i)
    digest.add(static_cast<std::uint32_t>(i), streams[i].oracle.total().count,
               streams[i].oracle.total().hash);
  return digest;
}

}  // namespace

Result run_serve_tail(const Options& options, const Corpus& corpus) {
  Result result;
  const std::vector<Stream> streams = tail_streams(corpus);
  result.oracle = oracle_digest(streams);
  Served served =
      cold_starts(options, streams, kTailSessions, false, kTailFeedBytes, result);
  Fleet& fleet = *served.fleet;

  const auto t0 = Clock::now();
  const auto measure_from = after(t0, kWarmupSeconds);
  const auto measure_to = after(measure_from, options.seconds);
  const auto in_window = [&](Clock::time_point t) {
    return t >= measure_from && t < measure_to;
  };
  std::vector<double> latencies, lateness;
  // The achieved rate: bytes of the feeds due in the measured phase over
  // the time from its start until the last of them was acked.
  double bytes = 0;
  Clock::time_point last_ack = measure_to;
  const Fleet::FedHandler on_fed = [&](std::uint32_t, const InFlight& feed,
                                       Clock::time_point now) {
    if (!feed.measured) return;
    latencies.push_back(seconds_between(feed.at, now) * 1e3);
    bytes += feed.bytes;
    last_ack = now;
  };

  // Open loop: feed k is due at t0 + k / R, on slot k mod 256, whatever the
  // server's state; latency counts from the due time.
  const double rate = options.tail_rate;
  const auto due_of = [&](std::uint64_t k) {
    return after(t0, static_cast<double>(k) / rate);
  };
  std::uint64_t next = 0;
  bool scheduling = true;
  std::uint64_t backlog_at_end = 0;
  bool healthy = true;
  for (;;) {
    const auto now = Clock::now();
    for (; scheduling && due_of(next) <= now; ++next) {
      const auto due = due_of(next);
      if (due >= measure_to) {
        scheduling = false;
        backlog_at_end = fleet.outstanding();
        break;
      }
      if (in_window(due))
        lateness.push_back(seconds_between(due, now) * 1e3);
      const auto slot = static_cast<std::size_t>(next % fleet.slots());
      fleet.reopen_if_exhausted(slot);
      fleet.feed(slot, due, in_window(due));
    }
    if (!scheduling && (fleet.outstanding() == 0 || now >= measure_to + kDrainTimeout))
      break;
    const std::chrono::nanoseconds wait =
        scheduling ? std::min<std::chrono::nanoseconds>(std::chrono::milliseconds(20),
                                                        due_of(next) - now)
                   : std::chrono::milliseconds(20);
    if (!fleet.pump(wait, on_fed)) {
      healthy = false;
      break;
    }
  }
  if (!healthy) {
    log("serve-tail: a connection broke\n");
    result.correct = false;
  }

  result.attempted = std::max<std::uint64_t>(1, lateness.size());
  const double late_p99 = percentile(lateness, 99);
  log("late_p99_ms = %.4f ms (n=%zu scheduled at %.0f feeds/s)\n", late_p99,
      lateness.size(), rate);
  // A backlog of more than 100 ms of feeds at the end of the schedule
  // means the rate is past what the server sustains: the open loop did
  // not hold, so the run does not measure this workload.
  const double limit = std::max(64.0, rate * 0.1);
  if (static_cast<double>(backlog_at_end) > limit) {
    log("serve-tail: INVALID run: %llu feeds outstanding when the schedule ended "
        "(limit %.0f): the backlog grew\n",
        static_cast<unsigned long long>(backlog_at_end), limit);
    result.correct = false;
  }
  // Latency counts from the due time, so a late generator still charges
  // the wait; but sends bunched by more than kMaxLateMs no longer follow
  // the schedule. A healthy run is about 0.1 ms late at p99.
  if (late_p99 > kMaxLateMs) {
    log("serve-tail: INVALID run: the generator ran late (late_p99_ms %.3f > %.0f)\n",
        late_p99, kMaxLateMs);
    result.correct = false;
  }
  finish(served, result, bytes, seconds_between(measure_from, last_ack),
         std::move(latencies));
  return result;
}

Result run_serve_backfill(const Options& options, const Corpus& corpus) {
  Result result;
  const std::vector<Stream> streams = backfill_streams(corpus);
  result.oracle = oracle_digest(streams);
  Served served =
      cold_starts(options, streams, kBackfillSessions, true, kBackfillFeedBytes, result);
  Fleet& fleet = *served.fleet;

  const auto t0 = Clock::now();
  const auto measure_from = after(t0, kWarmupSeconds);
  const auto measure_to = after(measure_from, options.seconds);
  std::vector<double> latencies;
  double bytes = 0;
  std::uint64_t issued = 0;
  auto issue = [&](std::size_t slot, Clock::time_point now) {
    fleet.reopen_if_exhausted(slot);
    const bool measured = now >= measure_from && now < measure_to;
    issued += measured ? 1 : 0;
    fleet.feed(slot, now, measured);
  };
  // Closed loop at depth 1: each ack sends the session's next window, with
  // a CHECKPOINT after every 16th.
  const Fleet::FedHandler on_fed = [&](std::uint32_t sid, const InFlight& feed,
                                       Clock::time_point now) {
    Session& s = fleet.session(sid);
    if (feed.measured)
      latencies.push_back(seconds_between(feed.at, now) * 1e3);
    if (now >= measure_from && now < measure_to) bytes += feed.bytes;
    if (s.feeds_acked % kCheckpointEvery == 0) fleet.checkpoint(s.slot);
    if (now < measure_to) issue(s.slot, now);
  };
  for (std::size_t slot = 0; slot < fleet.slots(); ++slot) issue(slot, t0);
  bool healthy = true;
  for (;;) {
    const auto now = Clock::now();
    if (now >= measure_to &&
        (fleet.outstanding() == 0 || now >= measure_to + kDrainTimeout))
      break;
    if (!fleet.pump(std::chrono::milliseconds(20), on_fed)) {
      healthy = false;
      break;
    }
  }
  if (!healthy) {
    log("serve-backfill: a connection broke\n");
    result.correct = false;
  }
  result.attempted = std::max<std::uint64_t>(1, issued);
  log("checkpoints: %llu CHECKPOINTED frames, %.0f blob bytes on average\n",
      static_cast<unsigned long long>(fleet.checkpoints()),
      fleet.checkpoints() ? static_cast<double>(fleet.checkpoint_bytes()) /
                                static_cast<double>(fleet.checkpoints())
                          : 0.0);
  finish(served, result, bytes, options.seconds, std::move(latencies));
  return result;
}

}  // namespace e2e
