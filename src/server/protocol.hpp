// The rispard wire protocol: length-prefixed binary frames over TCP.
//
// Both sides of the serving path speak the same framing (this header is the
// whole contract — the server, the example client, the load generator and
// the tests all include it, so protocol drift fails the build or the smoke
// tests, never a deployed fleet):
//
//   frame := u32le payload_length | u8 frame_type | payload bytes
//
// Integers are little-endian, unaligned. One TCP connection multiplexes any
// number of client-named streaming-find sessions; every request frame that
// concerns a session carries its id, and every response frame echoes it, so
// responses of interleaved sessions are attributable without ordering
// assumptions beyond TCP's per-connection FIFO. The full protocol semantics
// (session lifecycle, backpressure, reload, error taxonomy mapping) are
// documented in docs/rispard.md.
//
// Client -> server:
//   OPEN_SESSION {session_id, pattern_id, feed_deadline_ns, chunks [, flags]}
//                single-pattern (the trailing flags byte is optional — a
//                kOpenFlag* mask, absent = 0); pattern_id == kMultiPattern
//                selects the MULTI-PATTERN form, whose payload continues with
//                {flags, count, count x pattern_id} — count == 0 subscribes
//                the tenant's WHOLE catalog generation (flags bit 0 requests
//                begin_mode=exact; other bits must be zero)
//   FEED         {session_id, bytes...}        one streaming-find window
//   CLOSE        {session_id}
//   STATS        {}                            server + pool counters as JSON
//   RELOAD       {manifest text | empty}       swap the PatternSet (empty =
//                                              re-read the manifest file)
//   CHECKPOINT   {session_id}                  request the session's durable
//                                              state; answered by CHECKPOINTED
//                                              once in-flight feeds finish
//   RESUME_SESSION {session_id, pattern_id, feed_deadline_ns, chunks, flags}
//                then, in the multi-pattern form (pattern_id ==
//                kMultiPattern), {count, count x pattern_id}; the REST of the
//                payload is an opaque checkpoint blob (from CHECKPOINTED or
//                DRAINING). Opens a session that continues byte-exact from
//                the blob — same validation as OPEN_SESSION plus blob
//                integrity/identity checks; answered by OPENED
//
// Server -> client:
//   OPENED      {session_id, pattern_id, generation}   multi-pattern opens
//               echo kMultiPattern as the pattern_id
//   MATCHES     {session_id, count, count x {pattern_id, begin, end}}
//               pattern_id is the CATALOG id (manifest line order) in both
//               session forms — multi-pattern sessions remap their internal
//               indices before framing
//   FED         {session_id, consumed_total, matches_total}    per-FEED ack
//   CLOSED      {session_id, matches_total, accepted}
//   STATS_JSON  {json bytes}
//   RELOADED    {generation, pattern_count}
//   ERROR       {session_id | kNoSession, code, message bytes}
//   CHECKPOINTED {session_id, pattern_id, blob}   reply to CHECKPOINT; the
//               blob resumes via RESUME_SESSION (here or after reconnect)
//   DRAINING    {session_id, pattern_id, blob}    unsolicited at drain (and
//               idle reaping): the session's final checkpoint. The terminal
//               form {kNoSession} (no further fields) means every session on
//               the connection has drained and the server will close it
#pragma once

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/little_endian.hpp"

namespace rispar::rispard {

/// Frame types. Requests are < 0x80, responses >= 0x80.
enum class FrameType : std::uint8_t {
  kOpenSession = 0x01,
  kFeed = 0x02,
  kClose = 0x03,
  kStats = 0x04,
  kReload = 0x05,
  kCheckpoint = 0x06,
  kResumeSession = 0x07,

  kOpened = 0x81,
  kMatches = 0x82,
  kFed = 0x83,
  kClosed = 0x84,
  kStatsJson = 0x85,
  kReloaded = 0x86,
  kError = 0x87,
  kCheckpointed = 0x88,
  kDraining = 0x89,
};

/// Typed error frames: the QueryError taxonomy (util/governance.hpp) plus
/// the protocol-level failures that have no exception to map.
enum class ErrorCode : std::uint8_t {
  kProtocol = 1,          ///< malformed frame; the server closes after sending
  kUnknownPattern = 2,    ///< pattern_id outside the current catalog
  kUnknownSession = 3,    ///< FEED/CLOSE for a session_id never opened (or closed)
  kSessionExists = 4,     ///< OPEN_SESSION reusing a live session_id
  kTooManySessions = 5,   ///< per-connection session cap reached
  kValidation = 6,        ///< ValidationError — incl. feeds to a poisoned session
  kDeadlineExceeded = 7,  ///< DeadlineExceeded — the per-feed budget tripped
  kCancelled = 8,         ///< QueryCancelled
  kResourceExhausted = 9, ///< ResourceExhausted — pool admission reject, budgets
  kBadManifest = 10,      ///< RELOAD manifest empty/unreadable/uncompilable
  kInternal = 11,         ///< anything else; the session (if any) is poisoned
};

const char* error_code_name(ErrorCode code);

/// ERROR frames not scoped to a session carry this sentinel id (session ids
/// are client-chosen, so 0 is a legal id and cannot be the sentinel).
inline constexpr std::uint32_t kNoSession = 0xffffffffu;

/// OPEN_SESSION pattern_id sentinel selecting the multi-pattern session
/// form (the payload then carries a flags byte and an explicit id list; see
/// the header comment). Catalogs are capped far below this, so no real
/// pattern can collide with it. OPENED echoes it back.
inline constexpr std::uint32_t kMultiPattern = 0xfffffffeu;

/// OPEN_SESSION multi-pattern flags (bit mask; unknown bits reject).
inline constexpr std::uint8_t kOpenFlagExactBegins = 0x01;

/// Frame header: u32 length + u8 type.
inline constexpr std::size_t kFrameHeaderBytes = 5;
/// Hard cap on one frame's payload. Bounds per-connection buffering against
/// a hostile or broken peer; a FEED window this large is far past the point
/// where splitting it helps latency anyway (docs/rispard.md, backpressure).
inline constexpr std::size_t kMaxFramePayload = 1u << 24;  // 16 MiB

// ------------------------------------------------------------- serialization

using le::put_u32;
using le::put_u64;
using le::put_u8;

/// Appends one whole frame (header + payload) to `out`.
inline void put_frame(std::string& out, FrameType type, std::string_view payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u8(out, static_cast<std::uint8_t>(type));
  out.append(payload);
}

/// Bounds-checked payload reader. Every get_* returns a value and clears
/// `ok` on underrun; callers check `ok` once at the end (a short frame reads
/// zeros, then fails the single check — no per-field error plumbing).
struct PayloadReader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  explicit PayloadReader(std::string_view payload)
      : data(payload.data()), size(payload.size()) {}

  std::uint8_t get_u8() { return get<std::uint8_t>(); }
  std::uint32_t get_u32() { return get<std::uint32_t>(); }
  std::uint64_t get_u64() { return get<std::uint64_t>(); }

  /// The unread remainder (FEED bytes, ERROR message, manifest text).
  std::string_view rest() {
    std::string_view tail(data + pos, size - pos);
    pos = size;
    return tail;
  }

  /// True when every read succeeded AND the payload was fully consumed —
  /// trailing garbage is a protocol error, not padding.
  bool exhausted() const { return ok && pos == size; }

 private:
  template <typename U>
  U get() {
    const std::optional<U> v = le::load<U>({data, size}, pos);
    if (!v) ok = false;
    return v.value_or(0);
  }
};

/// One parsed frame. `payload` points into the FrameReader's buffer and is
/// valid until the next append()/next() call.
struct Frame {
  FrameType type{};
  std::string_view payload;
};

/// Incremental frame reassembly over a byte stream. Feed whatever recv()
/// produced; pop complete frames. Oversized length prefixes are reported as
/// a hard error (the stream is unrecoverable — there is no way to resync).
class FrameReader {
 public:
  /// Appends raw stream bytes.
  void append(const char* data, std::size_t size) { buffer_.append(data, size); }

  /// True when the buffered prefix declares a payload past kMaxFramePayload.
  /// The connection should send ERROR{kProtocol} and close.
  bool overflowed() const {
    if (buffer_.size() - pos_ < 4) return false;
    return peek_len() > kMaxFramePayload;
  }

  /// Pops the next complete frame into `frame`. Returns false when the
  /// buffer holds only a partial frame (or an overflowed one — check
  /// overflowed() separately).
  bool next(Frame& frame) {
    const std::size_t available = buffer_.size() - pos_;
    if (available < kFrameHeaderBytes) return maybe_compact(), false;
    const std::uint32_t len = peek_len();
    if (len > kMaxFramePayload) return false;
    if (available < kFrameHeaderBytes + len) return maybe_compact(), false;
    frame.type = static_cast<FrameType>(
        static_cast<unsigned char>(buffer_[pos_ + 4]));
    frame.payload = std::string_view(buffer_.data() + pos_ + kFrameHeaderBytes, len);
    pos_ += kFrameHeaderBytes + len;
    return true;
  }

  /// Bytes buffered but not yet popped (partial frame tail).
  std::size_t pending() const { return buffer_.size() - pos_; }

 private:
  /// The length prefix at pos_; callers check that its 4 bytes are buffered.
  std::uint32_t peek_len() const {
    std::size_t at = pos_;
    return le::load<std::uint32_t>(buffer_, at).value_or(0);
  }

  /// Drops consumed bytes once they dominate the buffer. Safe only when no
  /// Frame::payload is live — which next()'s contract already requires
  /// (payloads are invalidated by the next call).
  void maybe_compact() {
    if (pos_ >= 4096 && pos_ * 2 >= buffer_.size()) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
  }

  std::string buffer_;
  std::size_t pos_ = 0;
};

// -------------------------------------------------- request frame builders

/// `flags` is a kOpenFlag* mask (kOpenFlagExactBegins requests
/// begin_mode=exact). Encoded as an optional trailing byte: 0 is omitted,
/// so frames from older builders parse identically.
inline std::string make_open_session(std::uint32_t session_id, std::uint32_t pattern_id,
                                     std::uint64_t feed_deadline_ns,
                                     std::uint32_t chunks, std::uint8_t flags = 0) {
  std::string payload;
  put_u32(payload, session_id);
  put_u32(payload, pattern_id);
  put_u64(payload, feed_deadline_ns);
  put_u32(payload, chunks);
  if (flags != 0) put_u8(payload, flags);
  std::string frame;
  put_frame(frame, FrameType::kOpenSession, payload);
  return frame;
}

/// The multi-pattern OPEN_SESSION form: subscribes `pattern_ids` (catalog
/// ids; empty = the whole catalog generation) to one merged streaming-find
/// session. `flags` is a kOpenFlag* mask (kOpenFlagExactBegins requests
/// begin_mode=exact on every subscribed pattern).
inline std::string make_open_session_multi(std::uint32_t session_id,
                                           std::uint64_t feed_deadline_ns,
                                           std::uint32_t chunks,
                                           const std::vector<std::uint32_t>& pattern_ids,
                                           std::uint8_t flags = 0) {
  std::string payload;
  put_u32(payload, session_id);
  put_u32(payload, kMultiPattern);
  put_u64(payload, feed_deadline_ns);
  put_u32(payload, chunks);
  put_u8(payload, flags);
  put_u32(payload, static_cast<std::uint32_t>(pattern_ids.size()));
  for (const std::uint32_t id : pattern_ids) put_u32(payload, id);
  std::string frame;
  put_frame(frame, FrameType::kOpenSession, payload);
  return frame;
}

inline std::string make_feed(std::uint32_t session_id, std::string_view bytes) {
  std::string frame;
  put_u32(frame, static_cast<std::uint32_t>(4 + bytes.size()));
  put_u8(frame, static_cast<std::uint8_t>(FrameType::kFeed));
  put_u32(frame, session_id);
  frame.append(bytes);
  return frame;
}

inline std::string make_close(std::uint32_t session_id) {
  std::string payload;
  put_u32(payload, session_id);
  std::string frame;
  put_frame(frame, FrameType::kClose, payload);
  return frame;
}

inline std::string make_checkpoint(std::uint32_t session_id) {
  std::string payload;
  put_u32(payload, session_id);
  std::string frame;
  put_frame(frame, FrameType::kCheckpoint, payload);
  return frame;
}

/// Single-pattern RESUME_SESSION: the OPEN_SESSION prefix (with a MANDATORY
/// flags byte — the blob's begin mode must be re-requested explicitly) plus
/// the opaque checkpoint blob as the rest of the payload.
inline std::string make_resume_session(std::uint32_t session_id,
                                       std::uint32_t pattern_id,
                                       std::uint64_t feed_deadline_ns,
                                       std::uint32_t chunks, std::uint8_t flags,
                                       std::string_view checkpoint) {
  std::string payload;
  put_u32(payload, session_id);
  put_u32(payload, pattern_id);
  put_u64(payload, feed_deadline_ns);
  put_u32(payload, chunks);
  put_u8(payload, flags);
  payload.append(checkpoint);
  std::string frame;
  put_frame(frame, FrameType::kResumeSession, payload);
  return frame;
}

/// Multi-pattern RESUME_SESSION: like make_open_session_multi (explicit
/// count keeps the trailing blob unambiguous; count == 0 = whole catalog,
/// which the blob's carry count must then match) plus the blob.
inline std::string make_resume_session_multi(
    std::uint32_t session_id, std::uint64_t feed_deadline_ns, std::uint32_t chunks,
    const std::vector<std::uint32_t>& pattern_ids, std::uint8_t flags,
    std::string_view checkpoint) {
  std::string payload;
  put_u32(payload, session_id);
  put_u32(payload, kMultiPattern);
  put_u64(payload, feed_deadline_ns);
  put_u32(payload, chunks);
  put_u8(payload, flags);
  put_u32(payload, static_cast<std::uint32_t>(pattern_ids.size()));
  for (const std::uint32_t id : pattern_ids) put_u32(payload, id);
  payload.append(checkpoint);
  std::string frame;
  put_frame(frame, FrameType::kResumeSession, payload);
  return frame;
}

inline std::string make_stats() {
  std::string frame;
  put_frame(frame, FrameType::kStats, {});
  return frame;
}

inline std::string make_reload(std::string_view manifest_text) {
  std::string frame;
  put_frame(frame, FrameType::kReload, manifest_text);
  return frame;
}

// ------------------------------------------------- blocking client helpers
// For the minimal clients (example, tests): the server itself never blocks.

/// Writes all of `data` to a blocking socket. Returns false on error/EPIPE.
inline bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads from a blocking socket into `reader` until one complete frame pops
/// into `frame`. Returns false on EOF/error/oversized frame.
inline bool recv_frame(int fd, FrameReader& reader, Frame& frame) {
  while (!reader.next(frame)) {
    if (reader.overflowed()) return false;
    char chunk[65536];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    reader.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

// ------------------------------------------------------ reconnect + resume
// The durable-session client side: a dropped connection (server restart,
// drain, network blip) is survivable whenever the client holds the
// session's last checkpoint blob (CHECKPOINTED/DRAINING frames). Used by
// the loadgen --chaos mode and examples/rispard_client.cpp; the server
// never calls these.

/// Blocking connect to 127.0.0.1:`port`, retrying with exponential backoff
/// (base doubling per attempt, capped at 1024x) until it succeeds or
/// `max_attempts` runs out — bridges the gap while a restarting server is
/// not yet listening. Returns the connected fd, or -1.
inline int connect_backoff(std::uint16_t port, int max_attempts = 50,
                           std::chrono::milliseconds base =
                               std::chrono::milliseconds(1)) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0)
      return fd;
    ::close(fd);
    std::this_thread::sleep_for(base * (1 << std::min(attempt, 10)));
  }
  return -1;
}

/// Everything needed to re-establish one session after a drop: the
/// RESUME_SESSION parameters plus the last checkpoint blob. A client keeps
/// one of these per session, refreshing `checkpoint` from every
/// CHECKPOINTED/DRAINING frame it receives.
struct ResumeSpec {
  std::uint32_t session_id = 0;
  /// kMultiPattern selects the multi-pattern resume form (with
  /// `pattern_ids`); any other value is the single-pattern catalog id.
  std::uint32_t pattern_id = 0;
  std::uint64_t feed_deadline_ns = 0;
  std::uint32_t chunks = 1;
  std::uint8_t flags = 0;  ///< kOpenFlag* mask — must match the blob's mode
  std::vector<std::uint32_t> pattern_ids;  ///< multi form only
  std::string checkpoint;
};

/// Reconnects with exponential backoff and resumes `spec`'s session:
/// connect, send RESUME_SESSION, await OPENED. On success returns the
/// connected fd (caller owns it; `reader` — which must be fresh — holds any
/// bytes received after the OPENED frame). Returns -1 when the connect
/// retries run out, the send fails, or the server answers anything but
/// OPENED for this session (e.g. ERROR for a stale blob — retrying cannot
/// help, so the caller must re-open from scratch).
inline int reconnect_and_resume(std::uint16_t port, const ResumeSpec& spec,
                                FrameReader& reader, int max_attempts = 50) {
  const int fd = connect_backoff(port, max_attempts);
  if (fd < 0) return -1;
  const std::string request =
      spec.pattern_id == kMultiPattern
          ? make_resume_session_multi(spec.session_id, spec.feed_deadline_ns,
                                      spec.chunks, spec.pattern_ids, spec.flags,
                                      spec.checkpoint)
          : make_resume_session(spec.session_id, spec.pattern_id,
                                spec.feed_deadline_ns, spec.chunks, spec.flags,
                                spec.checkpoint);
  Frame reply;
  if (!send_all(fd, request) || !recv_frame(fd, reader, reply) ||
      reply.type != FrameType::kOpened) {
    ::close(fd);
    return -1;
  }
  PayloadReader opened(reply.payload);
  if (opened.get_u32() != spec.session_id) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace rispar::rispard
