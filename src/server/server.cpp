#include "server/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/signalfd.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <system_error>
#include <utility>

#include "engine/compile_cache.hpp"
#include "engine/pattern_set.hpp"
#include "util/fault_inject.hpp"

namespace rispar::rispard {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

std::string opened_frame(std::uint32_t session_id, std::uint32_t pattern_id,
                         std::uint64_t generation) {
  std::string payload;
  put_u32(payload, session_id);
  put_u32(payload, pattern_id);
  put_u64(payload, generation);
  std::string frame;
  put_frame(frame, FrameType::kOpened, payload);
  return frame;
}

/// MATCHES frames are capped so one prolific window cannot produce a frame
/// past kMaxFramePayload; overflow just emits several frames in order.
constexpr std::size_t kMatchesPerFrame = 16384;

void append_matches_frames(std::string& out, std::uint32_t session_id,
                           const std::vector<Match>& matches) {
  std::size_t emitted = 0;
  while (emitted < matches.size()) {
    const std::size_t batch = std::min(kMatchesPerFrame, matches.size() - emitted);
    put_u32(out, static_cast<std::uint32_t>(8 + batch * 20));
    put_u8(out, static_cast<std::uint8_t>(FrameType::kMatches));
    put_u32(out, session_id);
    put_u32(out, static_cast<std::uint32_t>(batch));
    for (std::size_t i = 0; i < batch; ++i) {
      const Match& m = matches[emitted + i];
      put_u32(out, m.pattern_id);
      put_u64(out, m.begin);
      put_u64(out, m.end);
    }
    emitted += batch;
  }
}

void append_fed_frame(std::string& out, std::uint32_t session_id,
                      std::uint64_t consumed, std::uint64_t matches_total) {
  std::string payload;
  put_u32(payload, session_id);
  put_u64(payload, consumed);
  put_u64(payload, matches_total);
  put_frame(out, FrameType::kFed, payload);
}

std::string closed_frame(std::uint32_t session_id, std::uint64_t matches_total,
                         bool accepted) {
  std::string payload;
  put_u32(payload, session_id);
  put_u64(payload, matches_total);
  put_u8(payload, accepted ? 1 : 0);
  std::string frame;
  put_frame(frame, FrameType::kClosed, payload);
  return frame;
}

std::string reloaded_frame(std::uint64_t generation, std::uint32_t pattern_count) {
  std::string payload;
  put_u64(payload, generation);
  put_u32(payload, pattern_count);
  std::string frame;
  put_frame(frame, FrameType::kReloaded, payload);
  return frame;
}

std::string error_frame(std::uint32_t session_id, ErrorCode code,
                        std::string_view message) {
  std::string payload;
  put_u32(payload, session_id);
  put_u8(payload, static_cast<std::uint8_t>(code));
  payload.append(message);
  std::string frame;
  put_frame(frame, FrameType::kError, payload);
  return frame;
}

/// CHECKPOINTED and DRAINING share a shape: {session_id, pattern_id, blob}.
std::string checkpoint_frame(FrameType type, std::uint32_t session_id,
                             std::uint32_t pattern_id, std::string_view blob) {
  std::string frame;
  put_u32(frame, static_cast<std::uint32_t>(8 + blob.size()));
  put_u8(frame, static_cast<std::uint8_t>(type));
  put_u32(frame, session_id);
  put_u32(frame, pattern_id);
  frame.append(blob);
  return frame;
}

/// The terminal DRAINING frame: {kNoSession}, meaning "every session on this
/// connection has been checkpointed or errored; the server closes now".
std::string draining_terminal_frame() {
  std::string payload;
  put_u32(payload, kNoSession);
  std::string frame;
  put_frame(frame, FrameType::kDraining, payload);
  return frame;
}

std::uint64_t steady_now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kProtocol: return "protocol";
    case ErrorCode::kUnknownPattern: return "unknown_pattern";
    case ErrorCode::kUnknownSession: return "unknown_session";
    case ErrorCode::kSessionExists: return "session_exists";
    case ErrorCode::kTooManySessions: return "too_many_sessions";
    case ErrorCode::kValidation: return "validation";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kResourceExhausted: return "resource_exhausted";
    case ErrorCode::kBadManifest: return "bad_manifest";
    case ErrorCode::kInternal: return "internal";
  }
  return "unknown";
}

// ------------------------------------------------------------- state types

struct Server::Session {
  std::uint32_t id;
  std::uint32_t pattern_id;  ///< kMultiPattern for the multi-pattern form
  /// Pins the generation this session opened against: the Engines (and the
  /// Device or Patterns the session points into) stay alive until the last
  /// pinning session closes, however many RELOADs happen meanwhile.
  std::shared_ptr<const PatternCatalog> catalog;
  /// Exactly one of the two is engaged, for the session's whole life.
  std::optional<StreamSession> stream;      ///< single-pattern form
  std::optional<MultiStreamSession> multi;  ///< multi-pattern form
  /// Multi form: session-local pattern index -> catalog id (manifest line
  /// order), applied to every emitted Match before framing so MATCHES
  /// always speak catalog ids, whichever subset the session subscribed.
  std::vector<std::uint32_t> catalog_ids;
  std::deque<std::string> pending;  ///< feed windows awaiting their turn
  bool busy = false;                ///< a crew worker owns the session right now
  bool closing = false;             ///< CLOSE received; ack after feeds drain
  bool checkpoint_requested = false; ///< CHECKPOINT received mid-feed; answer when idle

  Session(std::uint32_t id_, std::uint32_t pattern_id_,
          std::shared_ptr<const PatternCatalog> catalog_, StreamSession stream_)
      : id(id_),
        pattern_id(pattern_id_),
        catalog(std::move(catalog_)),
        stream(std::move(stream_)) {}

  Session(std::uint32_t id_, std::shared_ptr<const PatternCatalog> catalog_,
          MultiStreamSession multi_, std::vector<std::uint32_t> catalog_ids_)
      : id(id_),
        pattern_id(kMultiPattern),
        catalog(std::move(catalog_)),
        multi(std::move(multi_)),
        catalog_ids(std::move(catalog_ids_)) {}

  void feed(std::string_view bytes, const MatchSink& sink) {
    if (multi)
      multi->feed(bytes, sink);
    else
      stream->feed(bytes, sink);
  }
  std::uint64_t matches() const { return multi ? multi->matches() : stream->matches(); }
  bool accepted() const { return multi ? multi->accepted() : stream->accepted(); }
  std::uint64_t bytes_consumed() const {
    return multi ? multi->bytes_consumed() : stream->bytes_consumed();
  }
  /// Only called between feeds (never while busy) — the engine-level
  /// contract of StreamSession/MultiStreamSession::checkpoint(). Server
  /// sessions feed through a sink, so the undrained-matches reject cannot
  /// trip; a poisoned session still throws ValidationError.
  std::string checkpoint() const {
    return multi ? multi->checkpoint() : stream->checkpoint();
  }
};

struct Server::Connection {
  int fd = -1;
  std::uint64_t uid = 0;
  FrameReader reader;
  std::string outbuf;
  std::size_t outpos = 0;
  std::uint32_t registered_events = 0;
  bool reading = true;         ///< EPOLLIN interest (false = backpressured)
  bool draining_close = false; ///< protocol error: close once outbuf flushes
  bool broken = false;         ///< hard socket error; close at next safe point
  bool drain_terminal_sent = false;  ///< terminal DRAINING frame enqueued
  std::unordered_map<std::uint32_t, std::shared_ptr<Session>> sessions;
  std::size_t queued_feeds = 0;  ///< windows pending + in flight, all sessions
  std::uint64_t last_activity_ms = 0;  ///< inbound bytes / feed completions (reaper)
};

// ------------------------------------------------------------ construction

Server::Server(std::vector<std::string> seed_regexes, ServerConfig config)
    : config_(std::move(config)) {
  if (config_.feed_workers == 0) config_.feed_workers = 1;
  if (config_.handle_sighup || config_.handle_sigterm) {
    // Block the handled signals BEFORE any thread exists (the pool spawns
    // below): spawned threads inherit the mask, so a signal can only
    // surface through the signalfd in run(), never as a default-action
    // death of a worker.
    sigset_t mask;
    sigemptyset(&mask);
    if (config_.handle_sighup) sigaddset(&mask, SIGHUP);
    if (config_.handle_sigterm) sigaddset(&mask, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &mask, nullptr);
  }
  pool_ = std::make_shared<ThreadPool>(config_.pool_threads, config_.admission);
  compile_cache_ = std::make_shared<CompileCache>();
  EngineConfig seed_config;
  seed_config.compile_cache = compile_cache_;
  catalog_.store(build_catalog(seed_regexes, 1, pool_, seed_config));
  generation_.store(1);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("rispard: socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1)
    throw std::invalid_argument("rispard: bad bind address " + config_.bind_address);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0)
    throw_errno("rispard: bind");
  if (::listen(listen_fd_, 1024) < 0) throw_errno("rispard: listen");
  socklen_t addr_len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0)
    throw_errno("rispard: getsockname");
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw_errno("rispard: epoll_create1");
  event_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) throw_errno("rispard: eventfd");
}

Server::~Server() {
  stop();
  // run() must have returned by now (the caller owns that thread); all that
  // is left is releasing descriptors run() did not own.
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (signal_fd_ >= 0) ::close(signal_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  for (auto& [fd, conn] : connections_) ::close(fd);
}

std::uint64_t Server::generation() const { return generation_.load(); }

std::weak_ptr<const PatternCatalog> Server::catalog_handle() const {
  return catalog_.load();
}

ServerCounters Server::counters() const {
  ServerCounters c;
  c.connections_accepted = connections_accepted_.load();
  c.connections_open = connections_open_.load();
  c.sessions_opened = sessions_opened_.load();
  c.sessions_open = sessions_open_.load();
  c.feeds = feeds_.load();
  c.bytes_fed = bytes_fed_.load();
  c.matches_emitted = matches_emitted_.load();
  c.error_frames = error_frames_.load();
  c.feed_rejects = feed_rejects_.load();
  c.reloads = reloads_.load();
  c.protocol_errors = protocol_errors_.load();
  c.sessions_resumed = sessions_resumed_.load();
  c.sessions_reaped_idle = sessions_reaped_idle_.load();
  c.draining = draining_.load();
  return c;
}

void Server::stop(bool drain) {
  if (drain)
    drain_requested_.store(true);
  else
    stop_requested_.store(true);
  if (event_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof one);
  }
}

// --------------------------------------------------------------- the loop

void Server::run() {
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) < 0)
    throw_errno("rispard: epoll_ctl(listen)");
  ev.data.fd = event_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) < 0)
    throw_errno("rispard: epoll_ctl(eventfd)");
  if (config_.handle_sighup || config_.handle_sigterm) {
    sigset_t mask;
    sigemptyset(&mask);
    if (config_.handle_sighup) sigaddset(&mask, SIGHUP);
    if (config_.handle_sigterm) sigaddset(&mask, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &mask, nullptr);  // run() may be another thread
    signal_fd_ = ::signalfd(-1, &mask, SFD_NONBLOCK | SFD_CLOEXEC);
    if (signal_fd_ < 0) throw_errno("rispard: signalfd");
    ev.data.fd = signal_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, signal_fd_, &ev) < 0)
      throw_errno("rispard: epoll_ctl(signalfd)");
  }
  timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (timer_fd_ < 0) throw_errno("rispard: timerfd_create");
  ev.data.fd = timer_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, timer_fd_, &ev) < 0)
    throw_errno("rispard: epoll_ctl(timerfd)");
  if (config_.idle_timeout_ms != 0) {
    // Two ticks per timeout keeps reap latency under 1.5x the configured
    // idle window without a wheel of per-connection timers.
    const std::uint64_t tick =
        std::max<std::uint64_t>(config_.idle_timeout_ms / 2, 10);
    arm_timer(tick, tick);
  }

  crew_.reserve(config_.feed_workers);
  for (unsigned i = 0; i < config_.feed_workers; ++i)
    crew_.emplace_back([this] { feed_worker_loop(); });

  while (!stop_requested_.load(std::memory_order_relaxed)) event_loop_iteration();

  // Shutdown: stop the crew first (their completions are dropped), then
  // tear the connection table down. Sessions pinning retired catalogs
  // release them here.
  {
    std::lock_guard<std::mutex> lock(feed_mutex_);
    crew_stop_ = true;
  }
  feed_cv_.notify_all();
  for (std::thread& t : crew_) t.join();
  crew_.clear();
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_.clear();
  }
  for (auto& [fd, conn] : connections_) ::close(fd);
  connections_.clear();
  connections_by_uid_.clear();
}

void Server::event_loop_iteration() {
  epoll_event events[128];
  const int n = ::epoll_wait(epoll_fd_, events, 128, -1);
  if (n < 0) {
    if (errno == EINTR) return;
    throw_errno("rispard: epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    const std::uint32_t mask = events[i].events;
    if (fd == listen_fd_) {
      accept_ready();
      continue;
    }
    if (fd == event_fd_) {
      std::uint64_t drained = 0;
      while (::read(event_fd_, &drained, sizeof drained) > 0) {
      }
      if (drain_requested_.exchange(false)) start_drain();
      handle_completions();
      continue;
    }
    if (fd == signal_fd_) {
      signalfd_siginfo info;
      while (::read(signal_fd_, &info, sizeof info) == sizeof info) {
        if (info.ssi_signo == SIGTERM) {
          std::fprintf(stderr, "rispard: SIGTERM — draining\n");
          start_drain();
        } else {
          std::fprintf(stderr, "rispard: SIGHUP — re-reading manifest\n");
          apply_reload(nullptr, {});
        }
      }
      continue;
    }
    if (fd == timer_fd_) {
      std::uint64_t expirations = 0;
      while (::read(timer_fd_, &expirations, sizeof expirations) > 0) {
      }
      if (draining_.load(std::memory_order_relaxed))
        drain_deadline_fired();
      else
        idle_tick();
      continue;
    }
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;  // closed earlier this sweep
    Connection& conn = *it->second;
    if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
      close_connection(fd);
      continue;
    }
    if ((mask & EPOLLOUT) != 0) handle_writable(conn);
    if (connections_.find(fd) == connections_.end()) continue;
    if ((mask & EPOLLIN) != 0) handle_readable(conn);
  }
}

void Server::accept_ready() {
  for (;;) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      return;  // transient accept failures (EMFILE, ECONNABORTED): keep serving
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    conn->uid = next_connection_uid_++;
    conn->last_activity_ms = steady_now_ms();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      ::close(fd);
      continue;
    }
    conn->registered_events = EPOLLIN;
    connections_by_uid_[conn->uid] = conn.get();
    connections_[fd] = std::move(conn);
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Server::close_connection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  sessions_open_.fetch_sub(conn.sessions.size(), std::memory_order_relaxed);
  // In-flight FeedJobs hold their Session shared_ptr (and its catalog pin);
  // their completions route by uid, find nothing, and are dropped.
  connections_by_uid_.erase(conn.uid);
  // Count the close before the peer can see EOF, so a client that reads
  // the counters after its socket closed never sees itself still open.
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  maybe_finish_drain();
}

void Server::epoll_update(Connection& conn) {
  const std::uint32_t wanted =
      (conn.reading && !conn.draining_close ? EPOLLIN : 0u) |
      (conn.outpos < conn.outbuf.size() ? EPOLLOUT : 0u);
  if (wanted == conn.registered_events) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.fd = conn.fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev) == 0)
    conn.registered_events = wanted;
}

void Server::update_read_interest(Connection& conn) {
  if (draining_.load(std::memory_order_relaxed)) {
    // A draining server reads nothing more; the hysteresis below must not
    // re-enable EPOLLIN while busy sessions finish their last feeds.
    conn.reading = false;
    epoll_update(conn);
    return;
  }
  const std::size_t backlog = conn.outbuf.size() - conn.outpos;
  if (conn.reading) {
    if (backlog >= config_.write_high_water ||
        conn.queued_feeds >= config_.max_pending_feeds)
      conn.reading = false;
  } else {
    // Hysteresis: resume only once both brakes are clearly released, so a
    // connection riding the limit doesn't thrash epoll_ctl.
    if (backlog <= config_.write_high_water / 2 &&
        conn.queued_feeds <= config_.max_pending_feeds / 2)
      conn.reading = true;
  }
  epoll_update(conn);
}

// ------------------------------------------------------------------- reads

void Server::handle_readable(Connection& conn) {
  char chunk[65536];
  const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
  if (n == 0) {
    close_connection(conn.fd);
    return;
  }
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
    close_connection(conn.fd);
    return;
  }
  conn.reader.append(chunk, static_cast<std::size_t>(n));
  conn.last_activity_ms = steady_now_ms();
  Frame frame;
  while (!conn.draining_close && conn.reader.next(frame)) process_frame(conn, frame);
  if (conn.reader.overflowed() && !conn.draining_close) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, kNoSession, ErrorCode::kProtocol,
               "frame exceeds the 16 MiB payload cap");
    conn.draining_close = true;
  }
  if (conn.broken) {
    close_connection(conn.fd);
    return;
  }
  if (conn.draining_close && conn.outpos >= conn.outbuf.size()) {
    close_connection(conn.fd);
    return;
  }
  update_read_interest(conn);
}

void Server::handle_writable(Connection& conn) {
  flush_output(conn);
  if (conn.broken || (conn.draining_close && conn.outpos >= conn.outbuf.size())) {
    close_connection(conn.fd);
    return;
  }
  update_read_interest(conn);
}

// ------------------------------------------------------------------ writes

void Server::enqueue_output(Connection& conn, std::string_view frames) {
  conn.outbuf.append(frames);
  flush_output(conn);
}

void Server::flush_output(Connection& conn) {
  while (conn.outpos < conn.outbuf.size()) {
    const ssize_t n = ::send(conn.fd, conn.outbuf.data() + conn.outpos,
                             conn.outbuf.size() - conn.outpos, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      conn.broken = true;  // peer reset; closed at the caller's safe point
      conn.outbuf.clear();
      conn.outpos = 0;
      return;
    }
    conn.outpos += static_cast<std::size_t>(n);
  }
  if (conn.outpos >= conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.outpos = 0;
  } else if (conn.outpos > (1u << 20) && conn.outpos * 2 >= conn.outbuf.size()) {
    conn.outbuf.erase(0, conn.outpos);
    conn.outpos = 0;
  }
  epoll_update(conn);
}

void Server::send_error(Connection& conn, std::uint32_t session_id, ErrorCode code,
                        std::string_view message) {
  error_frames_.fetch_add(1, std::memory_order_relaxed);
  enqueue_output(conn, error_frame(session_id, code, message));
}

// ----------------------------------------------------------------- frames

void Server::process_frame(Connection& conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kOpenSession: handle_open_session(conn, frame, false); return;
    case FrameType::kResumeSession: handle_open_session(conn, frame, true); return;
    case FrameType::kCheckpoint: handle_checkpoint(conn, frame); return;
    case FrameType::kFeed: handle_feed(conn, frame); return;
    case FrameType::kClose: handle_close(conn, frame); return;
    case FrameType::kStats: handle_stats(conn); return;
    case FrameType::kReload: handle_reload(conn, frame); return;
    default: break;
  }
  protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  send_error(conn, kNoSession, ErrorCode::kProtocol, "unknown frame type");
  conn.draining_close = true;
}

void Server::handle_open_session(Connection& conn, const Frame& frame,
                                 bool resume) {
  const char* const kind = resume ? "RESUME_SESSION" : "OPEN_SESSION";
  PayloadReader reader(frame.payload);
  const std::uint32_t session_id = reader.get_u32();
  const std::uint32_t pattern_id = reader.get_u32();
  std::uint64_t deadline_ns = reader.get_u64();
  const std::uint32_t chunks = reader.get_u32();
  std::uint8_t open_flags = 0;
  std::vector<std::uint32_t> requested_ids;
  bool whole_catalog = false;
  if (pattern_id == kMultiPattern) {
    // The multi-pattern extension: {flags, count, count x id}. The count is
    // validated against the REMAINING payload before any allocation, so a
    // hostile count cannot reserve gigabytes off a short frame. RESUME
    // additionally trails the checkpoint blob, so the ids need only FIT.
    open_flags = reader.get_u8();
    const std::uint32_t count = reader.get_u32();
    const std::size_t remaining = reader.size - reader.pos;
    const std::uint64_t id_bytes = static_cast<std::uint64_t>(count) * 4;
    if (!reader.ok || (resume ? id_bytes > remaining : id_bytes != remaining)) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      send_error(conn, kNoSession, ErrorCode::kProtocol,
                 std::string("malformed ") + kind);
      conn.draining_close = true;
      return;
    }
    whole_catalog = count == 0;
    requested_ids.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) requested_ids.push_back(reader.get_u32());
  } else if (resume || reader.pos < reader.size) {
    // Mandatory on RESUME (the blob's begin mode must be re-requested, never
    // sniffed); an optional trailing extension on single-pattern OPEN —
    // old clients simply omit it.
    open_flags = reader.get_u8();
  }
  const std::string_view blob = resume ? reader.rest() : std::string_view{};
  if (!reader.ok || (!resume && !reader.exhausted())) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, kNoSession, ErrorCode::kProtocol,
               std::string("malformed ") + kind);
    conn.draining_close = true;
    return;
  }
  if (draining_.load(std::memory_order_relaxed)) {
    send_error(conn, session_id, ErrorCode::kValidation,
               "server is draining — reconnect and resume elsewhere");
    return;
  }
  if ((open_flags & ~kOpenFlagExactBegins) != 0) {
    send_error(conn, session_id, ErrorCode::kValidation,
               std::string("unknown ") + kind +
                   " flags (only kOpenFlagExactBegins is defined)");
    return;
  }
  if (session_id == kNoSession) {
    send_error(conn, kNoSession, ErrorCode::kValidation,
               "session id 0xffffffff is reserved");
    return;
  }
  if (conn.sessions.count(session_id) != 0) {
    send_error(conn, session_id, ErrorCode::kSessionExists,
               "session id already open on this connection");
    return;
  }
  if (conn.sessions.size() >= config_.max_sessions_per_connection) {
    send_error(conn, session_id, ErrorCode::kTooManySessions,
               "per-connection session cap reached");
    return;
  }
  std::shared_ptr<const PatternCatalog> catalog = catalog_.load();
  const auto describe_catalog = [&catalog] {
    return " outside the current catalog (generation " +
           std::to_string(catalog->generation) + " has " +
           std::to_string(catalog->patterns.size()) + " patterns)";
  };
  if (pattern_id == kMultiPattern) {
    if (whole_catalog)
      for (std::uint32_t id = 0; id < catalog->patterns.size(); ++id)
        requested_ids.push_back(id);
    for (const std::uint32_t id : requested_ids) {
      if (id >= catalog->patterns.size()) {
        send_error(conn, session_id, ErrorCode::kUnknownPattern,
                   "multi-pattern id " + std::to_string(id) + describe_catalog());
        return;
      }
    }
    if (requested_ids.empty()) {
      send_error(conn, session_id, ErrorCode::kValidation,
                 std::string("multi-pattern ") + kind +
                     " subscribed zero patterns (the catalog generation is "
                     "empty)");
      return;
    }
  } else if (pattern_id >= catalog->patterns.size()) {
    send_error(conn, session_id, ErrorCode::kUnknownPattern,
               "pattern_id" + describe_catalog());
    return;
  }
  if (config_.max_feed_deadline_ns != 0 && deadline_ns > config_.max_feed_deadline_ns)
    deadline_ns = config_.max_feed_deadline_ns;
  QueryOptions options;
  options.positions = true;
  options.chunks = std::max<std::uint32_t>(chunks, 1);
  options.deadline = std::chrono::nanoseconds(deadline_ns);
  options.max_history_bytes = config_.max_history_bytes;
  // The drain deadline trips every in-flight feed with one request_cancel.
  options.cancel = drain_cancel_.token();
  if ((open_flags & kOpenFlagExactBegins) != 0)
    options.begin_mode = BeginMode::kExact;
  try {
    if (pattern_id == kMultiPattern) {
      // Copies are cheap shared-ownership bumps; the catalog pin keeps the
      // generation (and its compiled artifacts) alive for the session.
      std::vector<Pattern> patterns;
      patterns.reserve(requested_ids.size());
      for (const std::uint32_t id : requested_ids)
        patterns.push_back(catalog->patterns[id].engine->pattern());
      MultiStreamSession multi =
          resume ? MultiStreamSession(std::move(patterns), *pool_, options, blob)
                 : MultiStreamSession(std::move(patterns), *pool_, options);
      auto session = std::make_shared<Session>(session_id, catalog, std::move(multi),
                                               std::move(requested_ids));
      conn.sessions.emplace(session_id, std::move(session));
    } else {
      const Engine& engine = *catalog->patterns[pattern_id].engine;
      StreamSession stream =
          resume ? engine.resume_stream(blob, options) : engine.stream(options);
      auto session = std::make_shared<Session>(session_id, pattern_id, catalog,
                                               std::move(stream));
      conn.sessions.emplace(session_id, std::move(session));
    }
  } catch (const ValidationError& e) {
    send_error(conn, session_id, ErrorCode::kValidation, e.what());
    return;
  } catch (const ResourceExhausted& e) {
    send_error(conn, session_id, ErrorCode::kResourceExhausted, e.what());
    return;
  } catch (const QueryError& e) {
    send_error(conn, session_id, ErrorCode::kValidation, e.what());
    return;
  }
  sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  sessions_open_.fetch_add(1, std::memory_order_relaxed);
  if (resume) sessions_resumed_.fetch_add(1, std::memory_order_relaxed);
  enqueue_output(conn, opened_frame(session_id, pattern_id, catalog->generation));
}

void Server::handle_checkpoint(Connection& conn, const Frame& frame) {
  PayloadReader reader(frame.payload);
  const std::uint32_t session_id = reader.get_u32();
  if (!reader.exhausted()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, kNoSession, ErrorCode::kProtocol, "malformed CHECKPOINT");
    conn.draining_close = true;
    return;
  }
  auto it = conn.sessions.find(session_id);
  if (it == conn.sessions.end() || it->second->closing) {
    send_error(conn, session_id, ErrorCode::kUnknownSession,
               "CHECKPOINT for a session that is not open");
    return;
  }
  Session& session = *it->second;
  if (session.busy || !session.pending.empty()) {
    // Like CLOSE: answered from handle_completions once every feed received
    // before this frame has been fed and acked — the blob then reflects them.
    session.checkpoint_requested = true;
    return;
  }
  emit_checkpoint_frame(conn, session, FrameType::kCheckpointed);
}

void Server::handle_feed(Connection& conn, const Frame& frame) {
  PayloadReader reader(frame.payload);
  const std::uint32_t session_id = reader.get_u32();
  if (!reader.ok) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, kNoSession, ErrorCode::kProtocol, "malformed FEED");
    conn.draining_close = true;
    return;
  }
  const std::string_view bytes = reader.rest();
  auto it = conn.sessions.find(session_id);
  if (it == conn.sessions.end() || it->second->closing) {
    send_error(conn, session_id, ErrorCode::kUnknownSession,
               "FEED for a session that is not open");
    return;
  }
  feeds_.fetch_add(1, std::memory_order_relaxed);
  bytes_fed_.fetch_add(bytes.size(), std::memory_order_relaxed);
  const std::shared_ptr<Session>& session = it->second;
  session->pending.emplace_back(bytes);
  ++conn.queued_feeds;
  if (!session->busy) dispatch_next_feed(conn, session);
  update_read_interest(conn);
}

void Server::dispatch_next_feed(Connection& conn,
                                const std::shared_ptr<Session>& session) {
  FeedJob job;
  job.connection_uid = conn.uid;
  job.session = session;
  job.bytes = std::move(session->pending.front());
  session->pending.pop_front();
  session->busy = true;
  {
    std::lock_guard<std::mutex> lock(feed_mutex_);
    feed_queue_.push_back(std::move(job));
  }
  feed_cv_.notify_one();
}

void Server::handle_close(Connection& conn, const Frame& frame) {
  PayloadReader reader(frame.payload);
  const std::uint32_t session_id = reader.get_u32();
  if (!reader.exhausted()) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    send_error(conn, kNoSession, ErrorCode::kProtocol, "malformed CLOSE");
    conn.draining_close = true;
    return;
  }
  auto it = conn.sessions.find(session_id);
  if (it == conn.sessions.end() || it->second->closing) {
    send_error(conn, session_id, ErrorCode::kUnknownSession,
               "CLOSE for a session that is not open");
    return;
  }
  Session& session = *it->second;
  if (session.busy || !session.pending.empty()) {
    session.closing = true;  // ack after the in-flight/queued feeds drain
    return;
  }
  finish_close(conn, session_id);
}

void Server::finish_close(Connection& conn, std::uint32_t session_id) {
  auto it = conn.sessions.find(session_id);
  if (it == conn.sessions.end()) return;
  Session& session = *it->second;
  const std::string frame =
      closed_frame(session_id, session.matches(), session.accepted());
  conn.sessions.erase(it);  // drops the catalog pin
  sessions_open_.fetch_sub(1, std::memory_order_relaxed);
  enqueue_output(conn, frame);
}

void Server::handle_stats(Connection& conn) {
  enqueue_output(conn, [this] {
    std::string frame;
    put_frame(frame, FrameType::kStatsJson, stats_json());
    return frame;
  }());
}

std::string Server::stats_json() const {
  const ServerCounters c = counters();
  const PoolStats p = pool_->stats();
  const CompileCacheStats cc = compile_cache_->stats();
  const std::shared_ptr<const PatternCatalog> catalog = catalog_.load();
  std::ostringstream json;
  json << "{"
       << "\"generation\":" << catalog->generation
       << ",\"patterns\":" << catalog->patterns.size()
       << ",\"connections_accepted\":" << c.connections_accepted
       << ",\"connections_open\":" << c.connections_open
       << ",\"sessions_opened\":" << c.sessions_opened
       << ",\"sessions_open\":" << c.sessions_open
       << ",\"feeds\":" << c.feeds
       << ",\"bytes_fed\":" << c.bytes_fed
       << ",\"matches_emitted\":" << c.matches_emitted
       << ",\"error_frames\":" << c.error_frames
       << ",\"feed_rejects\":" << c.feed_rejects
       << ",\"reloads\":" << c.reloads
       << ",\"protocol_errors\":" << c.protocol_errors
       << ",\"sessions_resumed\":" << c.sessions_resumed
       << ",\"sessions_reaped_idle\":" << c.sessions_reaped_idle
       << ",\"drain_state\":\"" << (c.draining ? "draining" : "serving") << "\""
       << ",\"pool\":{"
       << "\"queued\":" << p.queued << ",\"running\":" << p.running
       << ",\"executed\":" << p.executed << ",\"stolen\":" << p.stolen
       << ",\"rejected\":" << p.rejected << "}"
       << ",\"compile_cache\":{"
       << "\"hits\":" << cc.hits << ",\"misses\":" << cc.misses
       << ",\"evictions\":" << cc.evictions << ",\"entries\":" << cc.entries
       << ",\"bytes\":" << cc.bytes << "}}";
  return json.str();
}

void Server::handle_reload(Connection& conn, const Frame& frame) {
  apply_reload(&conn, frame.payload);
}

void Server::apply_reload(Connection* conn, std::string_view manifest_text) {
  std::string from_file;
  if (manifest_text.empty()) {
    if (config_.manifest_path.empty()) {
      const char* message =
          "empty RELOAD needs a server --manifest file; send the manifest "
          "text inline instead";
      if (conn != nullptr)
        send_error(*conn, kNoSession, ErrorCode::kBadManifest, message);
      else
        std::fprintf(stderr, "rispard: reload failed: %s\n", message);
      return;
    }
    std::ifstream file(config_.manifest_path, std::ios::binary);
    if (!file) {
      const std::string message =
          "cannot read manifest file " + config_.manifest_path;
      if (conn != nullptr)
        send_error(*conn, kNoSession, ErrorCode::kBadManifest, message);
      else
        std::fprintf(stderr, "rispard: reload failed: %s\n", message.c_str());
      return;
    }
    std::ostringstream content;
    content << file.rdbuf();
    from_file = content.str();
    manifest_text = from_file;
  }
  const std::vector<std::string> regexes = parse_manifest(manifest_text);
  if (regexes.empty()) {
    if (conn != nullptr)
      send_error(*conn, kNoSession, ErrorCode::kBadManifest,
                 "manifest has no patterns");
    else
      std::fprintf(stderr, "rispard: reload failed: manifest has no patterns\n");
    return;
  }
  std::shared_ptr<const PatternCatalog> next;
  try {
    // Built aside while the current generation keeps serving; in-flight
    // sessions are untouched either way. The server-lifetime compile cache
    // makes an unchanged manifest a pure-hit rebuild: no recompilation.
    EngineConfig reload_config;
    reload_config.compile_cache = compile_cache_;
    next = build_catalog(regexes, generation_.load() + 1, pool_, reload_config);
  } catch (const std::exception& e) {
    if (conn != nullptr)
      send_error(*conn, kNoSession, ErrorCode::kBadManifest, e.what());
    else
      std::fprintf(stderr, "rispard: reload failed: %s\n", e.what());
    return;
  }
  catalog_.store(next);
  generation_.store(next->generation);
  reloads_.fetch_add(1, std::memory_order_relaxed);
  if (conn != nullptr)
    enqueue_output(*conn,
                   reloaded_frame(next->generation,
                                  static_cast<std::uint32_t>(next->patterns.size())));
  else
    std::fprintf(stderr, "rispard: reloaded generation %llu (%zu patterns)\n",
                 static_cast<unsigned long long>(next->generation),
                 next->patterns.size());
}

// ----------------------------------------------------- drain + idle reaping

void Server::arm_timer(std::uint64_t initial_ms, std::uint64_t interval_ms) {
  if (timer_fd_ < 0) return;
  itimerspec spec{};
  spec.it_value.tv_sec = static_cast<time_t>(initial_ms / 1000);
  spec.it_value.tv_nsec = static_cast<long>((initial_ms % 1000) * 1000000);
  spec.it_interval.tv_sec = static_cast<time_t>(interval_ms / 1000);
  spec.it_interval.tv_nsec = static_cast<long>((interval_ms % 1000) * 1000000);
  ::timerfd_settime(timer_fd_, 0, &spec, nullptr);
}

void Server::emit_checkpoint_frame(Connection& conn, Session& session,
                                   FrameType type) {
  try {
    if (type == FrameType::kDraining) fault::maybe_throw("server.drain");
    const std::string blob = session.checkpoint();
    if (8 + blob.size() > kMaxFramePayload) {
      send_error(conn, session.id, ErrorCode::kResourceExhausted,
                 "checkpoint exceeds the 16 MiB frame cap — configure a "
                 "max_history_bytes bound");
      return;
    }
    enqueue_output(conn,
                   checkpoint_frame(type, session.id, session.pattern_id, blob));
  } catch (const ValidationError& e) {
    // Poisoned sessions (a cancelled or failed feed) have no consistent
    // state to serialize; the client re-opens from its own last blob.
    send_error(conn, session.id, ErrorCode::kValidation, e.what());
  } catch (const std::exception& e) {
    send_error(conn, session.id, ErrorCode::kInternal, e.what());
  }
}

void Server::drain_session(Connection& conn, std::uint32_t session_id) {
  auto it = conn.sessions.find(session_id);
  if (it == conn.sessions.end()) return;
  emit_checkpoint_frame(conn, *it->second, FrameType::kDraining);
  conn.sessions.erase(it);  // drops the catalog pin
  sessions_open_.fetch_sub(1, std::memory_order_relaxed);
}

bool Server::finish_connection_drain(Connection& conn) {
  if (!conn.sessions.empty()) return false;  // busy sessions still finishing
  if (!conn.drain_terminal_sent) {
    conn.drain_terminal_sent = true;
    enqueue_output(conn, draining_terminal_frame());
    conn.draining_close = true;
  }
  if (conn.broken || conn.outpos >= conn.outbuf.size()) {
    close_connection(conn.fd);
    return true;
  }
  return false;  // handle_writable closes it once the outbuf flushes
}

void Server::maybe_finish_drain() {
  if (draining_.load(std::memory_order_relaxed) && connections_.empty())
    stop_requested_.store(true);
}

void Server::start_drain() {
  if (draining_.load(std::memory_order_relaxed)) return;
  draining_.store(true);
  // Stop accepting — and release the port, so a replacement server can bind
  // while this one finishes (the protocol.hpp reconnect helpers back off
  // against the refused connects meanwhile).
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Re-purpose the timer as the one-shot grace deadline (idle reaping is
  // moot now). 0 disarms: the drain then waits for every feed.
  arm_timer(config_.drain_deadline_ms, 0);
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    conn.reading = false;
    epoll_update(conn);
    std::vector<std::uint32_t> idle;
    for (const auto& [id, session] : conn.sessions)
      if (!session->busy && session->pending.empty()) idle.push_back(id);
    for (const std::uint32_t id : idle) drain_session(conn, id);
    finish_connection_drain(conn);  // busy sessions drain from completions
  }
  maybe_finish_drain();
}

void Server::drain_deadline_fired() {
  // Grace period over: drop queued windows (none were acked — the drain
  // guarantee covers acked feeds only) and trip every feed still running.
  // Tripped sessions poison; their completion sends a kCancelled ERROR
  // instead of a checkpoint.
  drain_cancel_.request_cancel();
  std::vector<int> fds;
  fds.reserve(connections_.size());
  for (const auto& [fd, conn] : connections_) fds.push_back(fd);
  for (const int fd : fds) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    std::vector<std::uint32_t> idle;
    for (const auto& [id, session] : conn.sessions) {
      conn.queued_feeds -= session->pending.size();
      session->pending.clear();
      if (!session->busy) idle.push_back(id);
    }
    for (const std::uint32_t id : idle) drain_session(conn, id);
    finish_connection_drain(conn);
  }
  maybe_finish_drain();
}

void Server::idle_tick() {
  if (config_.idle_timeout_ms == 0) return;
  const std::uint64_t now = steady_now_ms();
  std::vector<int> victims;
  for (const auto& [fd, conn] : connections_)
    if (conn->queued_feeds == 0 &&
        now - conn->last_activity_ms >= config_.idle_timeout_ms)
      victims.push_back(fd);
  for (const int fd : victims) {
    auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& conn = *it->second;
    if (conn.draining_close) {
      // Reaped (or protocol-errored) a full tick ago and the peer never
      // drained the socket — stop waiting for it.
      close_connection(fd);
      continue;
    }
    sessions_reaped_idle_.fetch_add(conn.sessions.size(),
                                    std::memory_order_relaxed);
    std::vector<std::uint32_t> ids;
    ids.reserve(conn.sessions.size());
    for (const auto& [id, session] : conn.sessions) ids.push_back(id);
    for (const std::uint32_t id : ids) drain_session(conn, id);
    finish_connection_drain(conn);
  }
}

// ------------------------------------------------------------- completions

void Server::handle_completions() {
  std::vector<FeedDone> batch;
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    batch.swap(done_);
  }
  for (FeedDone& done : batch) {
    matches_emitted_.fetch_add(done.new_matches, std::memory_order_relaxed);
    if (done.rejected) feed_rejects_.fetch_add(1, std::memory_order_relaxed);
    if (done.errored) error_frames_.fetch_add(1, std::memory_order_relaxed);
    Session& session = *done.session;
    session.busy = false;
    auto it = connections_by_uid_.find(done.connection_uid);
    if (it == connections_by_uid_.end()) continue;  // connection died mid-feed
    Connection& conn = *it->second;
    --conn.queued_feeds;
    conn.last_activity_ms = steady_now_ms();
    enqueue_output(conn, done.frames);
    if (conn.broken) {
      close_connection(conn.fd);
      continue;
    }
    const bool draining = draining_.load(std::memory_order_relaxed);
    if (!session.pending.empty())
      dispatch_next_feed(conn, done.session);
    else if (session.closing)
      finish_close(conn, session.id);
    else if (session.checkpoint_requested && !draining) {
      session.checkpoint_requested = false;
      emit_checkpoint_frame(conn, session, FrameType::kCheckpointed);
      if (conn.broken) {
        close_connection(conn.fd);
        continue;
      }
    }
    if (draining) {
      // The feed this session was waiting on is acked (or errored) now —
      // checkpoint and retire it, and finish the connection when it was the
      // last one.
      if (!session.busy && session.pending.empty())
        drain_session(conn, session.id);
      if (finish_connection_drain(conn)) continue;  // conn closed — invalid
    }
    update_read_interest(conn);
  }
}

// -------------------------------------------------------------------- crew

void Server::feed_worker_loop() {
  for (;;) {
    FeedJob job;
    {
      std::unique_lock<std::mutex> lock(feed_mutex_);
      feed_cv_.wait(lock, [this] { return crew_stop_ || !feed_queue_.empty(); });
      if (crew_stop_) return;
      job = std::move(feed_queue_.front());
      feed_queue_.pop_front();
    }
    FeedDone done = execute_feed(std::move(job));
    {
      std::lock_guard<std::mutex> lock(done_mutex_);
      done_.push_back(std::move(done));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof one);
  }
}

Server::FeedDone Server::execute_feed(FeedJob job) {
  FeedDone done;
  done.connection_uid = job.connection_uid;
  done.session = job.session;
  Session& session = *job.session;
  std::vector<Match> matches;
  try {
    // The governed feed: StreamSession re-arms QueryOptions::deadline per
    // feed, and the chunk fan-out inside goes through the shared pool's
    // admission gate — every PR 6 failure mode funnels into the catch
    // ladder below as a typed error frame.
    // Sessions emit session-local pattern ids (a single-pattern session
    // always 0); tag them with catalog ids here, so MATCHES frames always
    // speak manifest line order.
    const bool remap = session.multi.has_value();
    const MatchSink sink = [&matches, &session, remap](const Match& m) {
      Match tagged = m;
      tagged.pattern_id = remap ? session.catalog_ids[m.pattern_id] : session.pattern_id;
      matches.push_back(tagged);
    };
    session.feed(job.bytes, sink);
    append_matches_frames(done.frames, session.id, matches);
    append_fed_frame(done.frames, session.id, session.bytes_consumed(),
                     session.matches());
    done.new_matches = matches.size();
    done.fed_bytes = job.bytes.size();
  } catch (const DeadlineExceeded& e) {
    done.errored = true;
    done.frames = error_frame(session.id, ErrorCode::kDeadlineExceeded, e.what());
  } catch (const QueryCancelled& e) {
    done.errored = true;
    done.frames = error_frame(session.id, ErrorCode::kCancelled, e.what());
  } catch (const ResourceExhausted& e) {
    done.errored = true;
    done.rejected = true;
    done.frames = error_frame(session.id, ErrorCode::kResourceExhausted, e.what());
  } catch (const QueryError& e) {
    // ValidationError and the base: feeds to a poisoned session land here.
    done.errored = true;
    done.frames = error_frame(session.id, ErrorCode::kValidation, e.what());
  } catch (const std::exception& e) {
    done.errored = true;
    done.frames = error_frame(session.id, ErrorCode::kInternal, e.what());
  }
  return done;
}

}  // namespace rispar::rispard
