// The kard request protocol (docs/daemon.md).
//
// Requests are single text lines — `install H-SW7 H-SW73`, `query 42`,
// `link-down SW17 SW71` — and every response is a single-line JSON object
// with an `ok` field. The same line grammar is served two ways:
//   * `--stdin` mode: newline-delimited request/response on stdio (tests,
//     scripting, the e2e smoke);
//   * socket mode: each line travels inside a length-prefixed frame —
//     a 4-byte big-endian payload length, then that many payload bytes.
//     Frames cap at kMaxFrameBytes; an oversized or zero length is a
//     *fatal* framing error (the byte stream cannot be resynchronized), a
//     malformed payload inside a well-formed frame is answered with a
//     structured error and the connection survives — the property
//     tests/test_daemon_protocol.cpp fuzzes.
//
// Parsing here is topology-independent: name resolution and key range
// checks belong to the daemon, which owns the store.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace kar::daemon {

enum class Verb : std::uint8_t {
  kPing,
  kEncode,     ///< encode SRC DST — compute an encoding without installing.
  kInstall,    ///< install SRC DST — admit a route (batched into an epoch).
  kWithdraw,   ///< withdraw KEY — tombstone a route.
  kQuery,      ///< query KEY — read one route's state.
  kLinkUp,     ///< link-up A B — repair the link between two named nodes.
  kLinkDown,   ///< link-down A B — fail the link between two named nodes.
  kSnapshot,   ///< snapshot [PATH] — write the store snapshot to disk.
  kStats,      ///< stats — store/engine/queue counters as JSON.
  kMetrics,    ///< metrics — Prometheus exposition text (JSON-escaped).
  kShutdown,   ///< shutdown — drain, snapshot, exit.
};

[[nodiscard]] std::string_view to_string(Verb verb);

/// One parsed request. Which fields are meaningful depends on the verb.
struct Request {
  Verb verb = Verb::kPing;
  std::string a;           ///< SRC / link endpoint A.
  std::string b;           ///< DST / link endpoint B.
  std::uint64_t key = 0;   ///< withdraw / query target.
  std::string path;        ///< snapshot path override.
};

/// Outcome of parsing one request line: a request, or a structured error
/// (stable machine code + human message) the daemon echoes back.
struct ParsedRequest {
  bool ok = false;
  Request request;
  std::string error_code;
  std::string error;
};

/// Parses one request line (leading/trailing/repeated whitespace ignored).
/// Never throws: malformed input comes back as ok == false.
[[nodiscard]] ParsedRequest parse_request(std::string_view line);

/// `{"ok":false,"code":CODE,"error":MESSAGE}`.
[[nodiscard]] std::string error_response(std::string_view code,
                                         std::string_view message);

/// Hard cap on a frame payload; a length prefix beyond it is fatal.
inline constexpr std::size_t kMaxFrameBytes = 64 * 1024;

/// Wraps a payload in the 4-byte big-endian length prefix. Throws
/// std::length_error when the payload exceeds kMaxFrameBytes.
[[nodiscard]] std::string encode_frame(std::string_view payload);

/// Incremental decoder for the framed byte stream. Feed arbitrary chunks;
/// pull complete frames. A fatal status means the stream is unrecoverable
/// and the connection must close after the error reply.
class FrameDecoder {
 public:
  enum class Status : std::uint8_t { kNeedMore, kFrame, kFatal };

  void feed(std::string_view data) { buffer_.append(data); }

  /// Extracts the next complete frame into `payload`. On kFatal, `error`
  /// explains the framing violation; every later call stays fatal.
  Status next(std::string& payload, std::string& error);

  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
  bool fatal_ = false;
};

}  // namespace kar::daemon
