// Protocol tests for the kard daemon (src/daemon/protocol.hpp):
//   * request-line parsing per verb — arity, key parsing, whitespace
//     tolerance, structured error codes;
//   * frame codec — encode/decode round trip under arbitrary chunking,
//     zero/oversized length prefixes are fatal, buffer compaction;
//   * batched-verb semantics against a live Kard — duplicate-withdraw
//     bursts stay linear and exact, a link request flushes without
//     waiting for the timer (carrying queued installs into its epoch),
//     per-verb/coalesced/held counters are exact, every flap request is
//     either netted or reconverged, and the cross-epoch coalescing window
//     holds a flap storm to one reconvergence (answering held requests at
//     the drain, including the shutdown drain);
//   * fuzz walls — random bytes and random malformed lines never crash the
//     parser; a live SocketServer answers garbage payloads with structured
//     errors and the connection survives to serve the next valid request.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "daemon/daemon.hpp"
#include "daemon/protocol.hpp"
#include "daemon/server.hpp"
#include "support/testsupport.hpp"

namespace kar {
namespace {

using daemon::encode_frame;
using daemon::FrameDecoder;
using daemon::parse_request;
using daemon::ParsedRequest;
using daemon::Verb;

// -- parse_request ------------------------------------------------------------

TEST(Protocol, ParsesEveryVerb) {
  EXPECT_EQ(parse_request("ping").request.verb, Verb::kPing);
  EXPECT_EQ(parse_request("encode A B").request.verb, Verb::kEncode);
  EXPECT_EQ(parse_request("install A B").request.verb, Verb::kInstall);
  EXPECT_EQ(parse_request("withdraw 7").request.verb, Verb::kWithdraw);
  EXPECT_EQ(parse_request("query 7").request.verb, Verb::kQuery);
  EXPECT_EQ(parse_request("link-up A B").request.verb, Verb::kLinkUp);
  EXPECT_EQ(parse_request("link-down A B").request.verb, Verb::kLinkDown);
  EXPECT_EQ(parse_request("snapshot").request.verb, Verb::kSnapshot);
  EXPECT_EQ(parse_request("snapshot /tmp/x").request.verb, Verb::kSnapshot);
  EXPECT_EQ(parse_request("stats").request.verb, Verb::kStats);
  EXPECT_EQ(parse_request("metrics").request.verb, Verb::kMetrics);
  EXPECT_EQ(parse_request("shutdown").request.verb, Verb::kShutdown);
}

TEST(Protocol, CapturesArguments) {
  const ParsedRequest p = parse_request("install H-SW7 H-SW73");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.a, "H-SW7");
  EXPECT_EQ(p.request.b, "H-SW73");
  const ParsedRequest q = parse_request("query 18446744073709551615");
  ASSERT_TRUE(q.ok);
  EXPECT_EQ(q.request.key, UINT64_MAX);
  const ParsedRequest s = parse_request("snapshot /tmp/store.snap");
  ASSERT_TRUE(s.ok);
  EXPECT_EQ(s.request.path, "/tmp/store.snap");
}

TEST(Protocol, ToleratesWhitespaceVariants) {
  EXPECT_TRUE(parse_request("  install   A\tB \r").ok);
  EXPECT_TRUE(parse_request("\tping\r").ok);
  const ParsedRequest p = parse_request("  query  42\r");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.key, 42u);
}

TEST(Protocol, StructuredErrors) {
  EXPECT_EQ(parse_request("").error_code, "empty");
  EXPECT_EQ(parse_request("   \t ").error_code, "empty");
  EXPECT_EQ(parse_request("frobnicate A B").error_code, "unknown-verb");
  // Postings are exact, so there is nothing left to compact.
  EXPECT_EQ(parse_request("compact").error_code, "unknown-verb");
  EXPECT_EQ(parse_request("install A").error_code, "arity");
  EXPECT_EQ(parse_request("install A B C").error_code, "arity");
  EXPECT_EQ(parse_request("ping extra").error_code, "arity");
  EXPECT_EQ(parse_request("withdraw").error_code, "arity");
  EXPECT_EQ(parse_request("withdraw banana").error_code, "bad-key");
  EXPECT_EQ(parse_request("query -3").error_code, "bad-key");
  EXPECT_EQ(parse_request("query 99999999999999999999999").error_code,
            "bad-key");
  // Verbs are case-sensitive (the protocol is machine-to-machine).
  EXPECT_EQ(parse_request("PING").error_code, "unknown-verb");
}

TEST(Protocol, ErrorResponseShape) {
  EXPECT_EQ(daemon::error_response("code", "msg"),
            R"({"ok":false,"code":"code","error":"msg"})");
  // Quotes and backslashes in the message must be escaped valid-JSON.
  EXPECT_EQ(daemon::error_response("c", "a\"b\\c"),
            R"({"ok":false,"code":"c","error":"a\"b\\c"})");
}

// -- frame codec --------------------------------------------------------------

TEST(Frames, RoundTripUnderArbitraryChunking) {
  auto rng = testsupport::make_rng(7201, "Frames.Chunking");
  std::vector<std::string> payloads = {"ping", "query 7", std::string(1, 'x'),
                                       std::string(60000, 'y')};
  std::string wire;
  for (const auto& p : payloads) wire += encode_frame(p);
  for (int trial = 0; trial < 20; ++trial) {
    FrameDecoder decoder;
    std::vector<std::string> out;
    std::size_t i = 0;
    while (i < wire.size()) {
      const std::size_t n =
          std::min(wire.size() - i, 1 + rng.below(4096));
      decoder.feed(std::string_view(wire).substr(i, n));
      i += n;
      std::string payload, error;
      while (decoder.next(payload, error) == FrameDecoder::Status::kFrame) {
        out.push_back(payload);
      }
    }
    EXPECT_EQ(out, payloads);
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(Frames, ZeroLengthIsFatal) {
  FrameDecoder decoder;
  decoder.feed(std::string(4, '\0'));
  std::string payload, error;
  EXPECT_EQ(decoder.next(payload, error), FrameDecoder::Status::kFatal);
  EXPECT_NE(error.find("framing"), std::string::npos);
  // Fatal is sticky.
  decoder.feed(encode_frame("ping"));
  EXPECT_EQ(decoder.next(payload, error), FrameDecoder::Status::kFatal);
}

TEST(Frames, OversizedLengthIsFatal) {
  FrameDecoder decoder;
  const std::uint32_t n = daemon::kMaxFrameBytes + 1;
  std::string prefix;
  prefix.push_back(static_cast<char>((n >> 24) & 0xff));
  prefix.push_back(static_cast<char>((n >> 16) & 0xff));
  prefix.push_back(static_cast<char>((n >> 8) & 0xff));
  prefix.push_back(static_cast<char>(n & 0xff));
  decoder.feed(prefix);
  std::string payload, error;
  EXPECT_EQ(decoder.next(payload, error), FrameDecoder::Status::kFatal);
}

TEST(Frames, EncodeRejectsOversizedPayload) {
  EXPECT_THROW((void)encode_frame(std::string(daemon::kMaxFrameBytes + 1, 'z')),
               std::length_error);
  EXPECT_NO_THROW((void)encode_frame(std::string(daemon::kMaxFrameBytes, 'z')));
}

TEST(Frames, PartialPrefixNeedsMore) {
  FrameDecoder decoder;
  const std::string wire = encode_frame("hello");
  std::string payload, error;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.feed(std::string_view(wire).substr(i, 1));
    EXPECT_EQ(decoder.next(payload, error), FrameDecoder::Status::kNeedMore);
  }
  decoder.feed(std::string_view(wire).substr(wire.size() - 1));
  EXPECT_EQ(decoder.next(payload, error), FrameDecoder::Status::kFrame);
  EXPECT_EQ(payload, "hello");
}

// -- batched-verb semantics & counters ---------------------------------------

/// Value of the first sample line starting with `needle` in the daemon's
/// Prometheus text (-1 when absent). Pass the full series name, labels
/// included, e.g. `kar_daemon_requests_total{verb="withdraw"}`.
double scrape_value(daemon::Kard& kard, const std::string& needle) {
  std::istringstream in(kard.prometheus_text());
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(needle, 0) == 0 && line[0] != '#') {
      return std::stod(line.substr(line.find_last_of(' ') + 1));
    }
  }
  return -1.0;
}

/// Integer field from a JSON response (`"held_links":3` → 3; -1 if absent).
long json_int_field(const std::string& json, const std::string& field) {
  const std::string key = "\"" + field + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return -1;
  return std::stol(json.substr(at + key.size()));
}

TEST(DaemonBatch, DuplicateWithdrawBurstIsLinearAndExact) {
  daemon::KardConfig config;
  config.topology = "fig1";
  config.flush_interval_s = 0.02;
  config.snapshot_on_shutdown = false;
  daemon::Kard kard(config);
  kard.start();

  // 5000 routes in one group (S -> D): dense keys 0..4999.
  const std::size_t routes = 5000;
  {
    std::vector<std::future<std::string>> installs;
    installs.reserve(routes);
    for (std::size_t i = 0; i < routes; ++i) {
      installs.push_back(kard.submit_line("install S D"));
    }
    for (std::size_t i = 0; i < routes; ++i) {
      const std::string response = installs[i].get();
      ASSERT_NE(response.find("\"ok\":true"), std::string::npos) << response;
      ASSERT_EQ(json_int_field(response, "key"), static_cast<long>(i));
    }
  }

  // The burst: every key once, plus 5000 repeats of key 0 — 10k withdraw
  // requests. The dedup scan used to be O(N²) in the accepted-withdraw
  // count per batch; it must now be a seen-set lookup, and the whole burst
  // must clear in seconds even on a sanitizer build.
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<std::string>> burst;
  burst.reserve(2 * routes);
  for (std::size_t i = 0; i < routes; ++i) {
    burst.push_back(kard.submit_line("withdraw " + std::to_string(i)));
  }
  for (std::size_t i = 0; i < routes; ++i) {
    burst.push_back(kard.submit_line("withdraw 0"));
  }
  std::size_t ok = 0;
  std::size_t already = 0;
  for (auto& f : burst) {
    const std::string response = f.get();
    if (response.find("\"ok\":true") != std::string::npos) {
      ++ok;
    } else {
      ASSERT_NE(response.find("\"code\":\"already-withdrawn\""),
                std::string::npos)
          << response;
      ++already;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  // Exact: each key withdraws exactly once no matter how the burst lands
  // in batches (in-batch dedup via the seen-set, cross-batch via the
  // store's withdrawn flag).
  EXPECT_EQ(ok, routes);
  EXPECT_EQ(already, routes);
  EXPECT_LT(wall_s, 5.0) << "withdraw dedup is no longer linear";

  // Per-verb and error counters saw every request.
  EXPECT_EQ(scrape_value(kard, "kar_daemon_requests_total{verb=\"withdraw\"}"),
            static_cast<double>(2 * routes));
  EXPECT_GE(scrape_value(kard, "kar_daemon_request_errors_total"),
            static_cast<double>(routes));
  kard.stop();
}

TEST(DaemonCoalescing, PerBatchNettingCountsAbsorbedExactly) {
  daemon::KardConfig config;
  config.topology = "fig1";
  // Link requests flush at once, so back-to-back submissions may land in
  // separate batches; a short coalescing window holds them for the same
  // LinkCoalescer netting a single batch applies.
  config.coalesce_window_s = 0.05;
  config.snapshot_on_shutdown = false;
  daemon::Kard kard(config);
  kard.start();

  // Same-window flap: down + up nets to nothing — no epoch, both answered
  // with the final (unchanged) state, both counted absorbed.
  auto down = kard.submit_line("link-down SW4 SW7");
  auto up = kard.submit_line("link-up SW4 SW7");
  for (std::string response : {down.get(), up.get()}) {
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    EXPECT_NE(response.find("\"up\":true"), std::string::npos) << response;
    EXPECT_NE(response.find("\"changed\":false"), std::string::npos)
        << response;
  }
  EXPECT_EQ(kard.epochs_applied(), 0u);
  EXPECT_EQ(scrape_value(kard, "kar_daemon_coalesced_events_total"), 2.0);

  // A real transition: one event, one epoch, nothing absorbed.
  const std::string real = kard.execute_line("link-down SW4 SW7");
  EXPECT_NE(real.find("\"up\":false"), std::string::npos) << real;
  EXPECT_NE(real.find("\"changed\":true"), std::string::npos) << real;
  EXPECT_EQ(kard.epochs_applied(), 1u);
  EXPECT_EQ(scrape_value(kard, "kar_daemon_coalesced_events_total"), 2.0);

  // Already-in-state: a down for a link that is already down is absorbed
  // churn — exactly +1, no epoch (the counter used to miss these).
  const std::string redundant = kard.execute_line("link-down SW4 SW7");
  EXPECT_NE(redundant.find("\"up\":false"), std::string::npos) << redundant;
  EXPECT_NE(redundant.find("\"changed\":false"), std::string::npos)
      << redundant;
  EXPECT_EQ(kard.epochs_applied(), 1u);
  EXPECT_EQ(scrape_value(kard, "kar_daemon_coalesced_events_total"), 3.0);

  EXPECT_EQ(scrape_value(kard,
                         "kar_daemon_requests_total{verb=\"link-down\"}"),
            3.0);
  EXPECT_EQ(scrape_value(kard, "kar_daemon_requests_total{verb=\"link-up\"}"),
            1.0);
  kard.stop();
}

TEST(DaemonCoalescing, FlapPairsAreNettedOrReconvergedNeverLost) {
  daemon::KardConfig config;
  config.topology = "fig1";
  config.snapshot_on_shutdown = false;
  daemon::Kard kard(config);
  kard.start();

  // K back-to-back flap pairs with no window: however the requests land
  // in batches, each one is either netted away or reaches the engine as
  // one event, and the link ends in its last requested state.
  const int pairs = 50;
  std::vector<std::future<std::string>> flaps;
  for (int i = 0; i < pairs; ++i) {
    flaps.push_back(kard.submit_line("link-down SW4 SW7"));
    flaps.push_back(kard.submit_line("link-up SW4 SW7"));
  }
  for (auto& f : flaps) {
    const std::string response = f.get();
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  }
  EXPECT_EQ(scrape_value(kard, "kar_daemon_coalesced_events_total") +
                scrape_value(kard, "kar_ctrlplane_events_total"),
            2.0 * pairs);
  const std::string state = kard.execute_line("link-up SW4 SW7");
  EXPECT_NE(state.find("\"up\":true"), std::string::npos) << state;
  EXPECT_NE(state.find("\"changed\":false"), std::string::npos) << state;
  kard.stop();
}

TEST(DaemonBatch, LinkRequestDoesNotWaitForTheFlushTimer) {
  daemon::KardConfig config;
  config.topology = "fig1";
  config.flush_interval_s = 1.0;  // an install alone would wait a second
  config.snapshot_on_shutdown = false;
  daemon::Kard kard(config);
  kard.start();

  const auto start = std::chrono::steady_clock::now();
  auto install = kard.submit_line("install S D");
  auto down = kard.submit_line("link-down SW4 SW7");
  const std::string link_response = down.get();
  const double link_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_NE(link_response.find("\"changed\":true"), std::string::npos)
      << link_response;
  EXPECT_LT(link_s, 0.5) << "link-down waited for the flush timer";

  // The queued install rides the link request's epoch.
  const std::string install_response = install.get();
  EXPECT_NE(install_response.find("\"ok\":true"), std::string::npos)
      << install_response;
  EXPECT_EQ(json_int_field(install_response, "version"),
            json_int_field(link_response, "version"));
  EXPECT_EQ(kard.epochs_applied(), 1u);
  kard.stop();
}

TEST(DaemonCoalescing, WindowHoldsFlapStormToOneEpoch) {
  daemon::KardConfig config;
  config.topology = "fig1";
  config.flush_interval_s = 0.001;
  config.coalesce_window_s = 0.25;
  config.snapshot_on_shutdown = false;
  daemon::Kard kard(config);
  kard.start();

  // Five alternating transitions of one link, spread over many batches
  // (the fast flush timer flushes between submissions).
  std::vector<std::future<std::string>> storm;
  for (int i = 0; i < 5; ++i) {
    storm.push_back(kard.submit_line(i % 2 == 0 ? "link-down SW4 SW7"
                                                : "link-up SW4 SW7"));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // The storm is held open: stats report the held requests, queries still
  // answer immediately (zero-downtime), and no epoch has run yet.
  long held = 0;
  for (int i = 0; i < 100 && held <= 0; ++i) {
    held = json_int_field(kard.execute_line("stats"), "held_links");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(held, 1);
  EXPECT_EQ(kard.epochs_applied(), 0u);

  // All five answer at the drain with the net outcome: link down (odd
  // transition count), marked changed. One reconvergence for the storm.
  for (auto& f : storm) {
    const std::string response = f.get();
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    EXPECT_NE(response.find("\"up\":false"), std::string::npos) << response;
    EXPECT_NE(response.find("\"changed\":true"), std::string::npos)
        << response;
  }
  EXPECT_EQ(kard.epochs_applied(), 1u);
  EXPECT_EQ(scrape_value(kard, "kar_daemon_coalesced_events_total"), 4.0);
  EXPECT_EQ(json_int_field(kard.execute_line("stats"), "held_links"), 0);
  kard.stop();
}

TEST(DaemonCoalescing, StopDrainsTheWindow) {
  daemon::KardConfig config;
  config.topology = "fig1";
  config.flush_interval_s = 0.001;
  config.coalesce_window_s = 30.0;  // would outlive the test by far
  config.snapshot_on_shutdown = false;
  daemon::Kard kard(config);
  kard.start();

  auto held = kard.submit_line("link-down SW4 SW7");
  // stop() must close the window: the held promise resolves with the net
  // transition applied, never abandoned.
  kard.stop();
  const std::string response = held.get();
  EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
  EXPECT_NE(response.find("\"up\":false"), std::string::npos) << response;
  EXPECT_NE(response.find("\"changed\":true"), std::string::npos) << response;
  EXPECT_EQ(kard.epochs_applied(), 1u);
}

// -- fuzz walls ---------------------------------------------------------------

TEST(ProtocolFuzz, RandomLinesNeverCrashTheParser) {
  auto rng = testsupport::make_rng(7202, "ProtocolFuzz.Parser");
  for (int trial = 0; trial < 5000; ++trial) {
    std::string line;
    const std::size_t len = rng.below(64);
    for (std::size_t i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(rng.below(256)));
    }
    const ParsedRequest p = parse_request(line);
    if (!p.ok) {
      EXPECT_FALSE(p.error_code.empty());
      // The structured error must render as a response line.
      EXPECT_FALSE(daemon::error_response(p.error_code, p.error).empty());
    }
  }
}

TEST(ProtocolFuzz, RandomBytesNeverCrashTheDecoder) {
  auto rng = testsupport::make_rng(7203, "ProtocolFuzz.Decoder");
  for (int trial = 0; trial < 200; ++trial) {
    FrameDecoder decoder;
    std::string payload, error;
    bool fatal = false;
    for (int chunk = 0; chunk < 16 && !fatal; ++chunk) {
      std::string data;
      const std::size_t len = rng.below(512);
      for (std::size_t i = 0; i < len; ++i) {
        data.push_back(static_cast<char>(rng.below(256)));
      }
      decoder.feed(data);
      for (;;) {
        const auto status = decoder.next(payload, error);
        if (status == FrameDecoder::Status::kFrame) continue;
        if (status == FrameDecoder::Status::kFatal) fatal = true;
        break;
      }
    }
  }
}

// One tiny daemon shared by the socket wall (fig1 keeps it instant).
daemon::KardConfig tiny_config() {
  daemon::KardConfig config;
  config.topology = "fig1";
  config.metrics = false;
  config.flush_interval_s = 0.001;
  return config;
}

/// Blocking client for the framed protocol.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
        0);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_raw(std::string_view data) {
    ASSERT_EQ(::write(fd_, data.data(), data.size()),
              static_cast<ssize_t>(data.size()));
  }

  /// Reads one response frame (empty string on EOF/closed connection).
  std::string read_frame() {
    std::string payload, error;
    char chunk[4096];
    for (;;) {
      const auto status = decoder_.next(payload, error);
      if (status == FrameDecoder::Status::kFrame) return payload;
      if (status == FrameDecoder::Status::kFatal) return "";
      const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n <= 0) return "";
      decoder_.feed(std::string_view(chunk, static_cast<std::size_t>(n)));
    }
  }

  std::string request(std::string_view line) {
    send_raw(encode_frame(line));
    return read_frame();
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
};

TEST(SocketFuzz, MalformedPayloadsGetErrorsAndConnectionSurvives) {
  auto rng = testsupport::make_rng(7204, "SocketFuzz.Payloads");
  daemon::Kard kard(tiny_config());
  kard.start();
  {
    daemon::SocketServer server(kard, 0, 2);
    Client client(server.port());
    for (int trial = 0; trial < 100; ++trial) {
      std::string line;
      const std::size_t len = 1 + rng.below(32);
      for (std::size_t i = 0; i < len; ++i) {
        // Printable-ish garbage (framing stays valid; payloads malformed).
        line.push_back(static_cast<char>(' ' + rng.below(95)));
      }
      const std::string response = client.request(line);
      ASSERT_FALSE(response.empty()) << "connection died on: " << line;
      EXPECT_EQ(response.find("{\"ok\":"), 0u) << response;
    }
    // The same connection still serves a well-formed request.
    const std::string pong = client.request("ping");
    EXPECT_NE(pong.find("\"pong\":true"), std::string::npos) << pong;
    server.stop();
  }
  kard.stop();
}

TEST(SocketFuzz, FatalFramingClosesWithStructuredError) {
  daemon::Kard kard(tiny_config());
  kard.start();
  {
    daemon::SocketServer server(kard, 0, 2);
    Client client(server.port());
    // Valid request first — the frame path works.
    EXPECT_NE(client.request("ping").find("\"pong\""), std::string::npos);
    // Zero length prefix: fatal. Expect one final error frame, then EOF.
    client.send_raw(std::string(4, '\0'));
    const std::string error = client.read_frame();
    EXPECT_NE(error.find("\"code\":\"framing\""), std::string::npos) << error;
    EXPECT_EQ(client.read_frame(), "");
    // A fresh connection is unaffected.
    Client again(server.port());
    EXPECT_NE(again.request("ping").find("\"pong\""), std::string::npos);
    server.stop();
  }
  kard.stop();
}

}  // namespace
}  // namespace kar
