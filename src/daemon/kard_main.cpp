// kard — the KAR controller daemon (docs/daemon.md).
//
// Serves the line protocol over stdio (--stdin) and/or a localhost TCP
// socket (--listen), with an optional Prometheus scrape endpoint
// (--metrics-port). Mutations batch into atomically-versioned epochs; the
// store snapshots to --snapshot on shutdown and restores with --restore.
//
// Usage:
//   kard --topology=rnp28 --stdin
//   kard --topology=rnp28 --listen=7301 --metrics-port=9301
//        --snapshot=/var/lib/kard/store.snap --restore
//
// Flags:
//   --topology=NAME       fig1 | fig2 | rnp28 (default fig2)
//   --stdin               serve newline-delimited requests on stdio
//   --listen=PORT         serve framed requests on 127.0.0.1:PORT (0 = pick)
//   --metrics-port=PORT   Prometheus scrape endpoint on 127.0.0.1:PORT
//   --workers=N           socket worker threads (default 2)
//   --snapshot=PATH       snapshot file (written on shutdown; `snapshot` verb)
//   --restore             restore from --snapshot before serving
//   --no-final-snapshot   skip the shutdown snapshot
//   --flush-interval=S    bounded-latency flush timer for install/withdraw
//                         batches (default 0.002); link requests flush at once
//   --flush-max=N         flush as soon as N mutations pend (default 4096)
//   --coalesce-window=S   hold + net link flaps for S seconds before
//                         reconverging (default 0 = per-batch only)
//   --engine=MODE         incremental | full (default incremental)
//   --shards=N            reconvergence shards (1 = serial, 0 = hw threads)
//   --no-host-edges       do not attach per-switch host edge nodes
//   --no-metrics          disable the metrics registry
//
// stdout carries only protocol responses; diagnostics go to stderr.
#include <unistd.h>

#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "common/flags.hpp"
#include "ctrlplane/engine_mode.hpp"
#include "daemon/daemon.hpp"
#include "daemon/server.hpp"

int main(int argc, char** argv) {
  using namespace kar;
  try {
    const auto flags = common::Flags::parse(argc, argv);
    daemon::KardConfig config;
    config.topology = flags.get_string("topology", "fig2");
    config.host_edges = flags.get_bool("host-edges", true);
    config.flush_interval_s = flags.get_double("flush-interval", 0.002);
    config.flush_max_ops =
        static_cast<std::size_t>(flags.get_int("flush-max", 4096));
    config.coalesce_window_s = flags.get_double("coalesce-window", 0.0);
    config.engine.shards =
        static_cast<std::size_t>(flags.get_int("shards", 1));
    config.snapshot_path = flags.get_string("snapshot", "");
    config.restore = flags.get_bool("restore", false);
    config.snapshot_on_shutdown = flags.get_bool("final-snapshot", true);
    config.metrics = flags.get_bool("metrics", true);
    const std::string engine_mode = flags.get_string("engine", "incremental");
    if (engine_mode == "incremental") {
      config.engine.mode = ctrlplane::EngineMode::kIncremental;
    } else if (engine_mode == "full") {
      config.engine.mode = ctrlplane::EngineMode::kFullRecompute;
    } else {
      std::cerr << "kard: unknown --engine mode " << engine_mode << '\n';
      return 2;
    }

    const bool use_stdin = flags.get_bool("stdin", false);
    const bool use_socket = flags.has("listen");
    if (!use_stdin && !use_socket) {
      std::cerr << "kard: nothing to serve; pass --stdin and/or --listen=PORT\n";
      return 2;
    }

    daemon::install_signal_handlers();
    daemon::Kard kard(std::move(config));
    if (kard.config().restore) {
      std::cerr << "kard: restored " << kard.restored().routes << " routes ("
                << kard.restored().live << " live, "
                << kard.restored().withdrawn << " withdrawn) at version "
                << kard.restored().engine_version << '\n';
    }
    kard.start();

    std::unique_ptr<daemon::SocketServer> socket_server;
    if (use_socket) {
      const auto port = static_cast<std::uint16_t>(flags.get_int("listen", 0));
      const auto workers =
          static_cast<std::size_t>(flags.get_int("workers", 2));
      socket_server =
          std::make_unique<daemon::SocketServer>(kard, port, workers);
      std::cerr << "kard: listening on 127.0.0.1:" << socket_server->port()
                << '\n';
    }
    std::unique_ptr<daemon::MetricsHttpServer> metrics_server;
    if (flags.has("metrics-port")) {
      const auto port =
          static_cast<std::uint16_t>(flags.get_int("metrics-port", 0));
      metrics_server = std::make_unique<daemon::MetricsHttpServer>(kard, port);
      std::cerr << "kard: metrics on http://127.0.0.1:"
                << metrics_server->port() << "/metrics\n";
    }

    std::cerr << "kard: serving " << kard.config().topology << " ("
              << engine_mode << " engine)\n";
    if (use_stdin) {
      daemon::run_stdin_loop(kard, STDIN_FILENO, std::cout);
    } else {
      // Socket-only: park until a signal or a `shutdown` request.
      while (!daemon::shutdown_signalled() && !kard.shutdown_requested()) {
        ::usleep(100 * 1000);
      }
    }

    // Graceful drain: stop intake, flush in-flight epochs, snapshot.
    if (socket_server != nullptr) socket_server->stop();
    if (metrics_server != nullptr) metrics_server->stop();
    kard.stop();
    std::cerr << "kard: clean shutdown after " << kard.epochs_applied()
              << " epochs\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "kard: fatal: " << e.what() << '\n';
    return 1;
  }
}
