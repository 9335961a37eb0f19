#include "daemon/daemon.hpp"

#include <exception>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "runner/jsonl.hpp"
#include "topogen/topogen.hpp"
#include "topology/builders.hpp"

namespace kar::daemon {

namespace {

topo::Scenario build_scenario(const KardConfig& config) {
  topo::Scenario s;
  if (topogen::is_gen_spec(config.topology)) {
    s = topogen::make_from_spec(config.topology);
  } else if (config.topology == "fig1") {
    s = topo::make_fig1_network();
  } else if (config.topology == "fig2") {
    s = topo::make_experimental15();
  } else if (config.topology == "rnp28") {
    s = topo::make_rnp28();
  } else {
    throw std::invalid_argument("kard: unknown topology " + config.topology +
                                " (expected fig1, fig2, rnp28 or a gen: "
                                "spec)\n" +
                                topogen::spec_grammar_help());
  }
  if (config.host_edges) (void)topo::attach_host_edges(s.topology);
  return s;
}

/// `["A","B",...]` from node handles.
std::string names_array(const topo::Topology& topology,
                        const std::vector<topo::NodeId>& nodes) {
  std::string out = "[";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += runner::json_escape(topology.name(nodes[i]));
    out += '"';
  }
  out += ']';
  return out;
}

/// The `query` response body — also the restart-identity witness: every
/// field is either immutable or persisted by the snapshot, so a query
/// before a snapshot/restart answers byte-identically after it.
std::string route_response(const topo::Topology& topology,
                           const ctrlplane::StoredRoute& entry) {
  runner::JsonObject o;
  o.field("ok", true)
      .field("key", static_cast<std::uint64_t>(entry.key))
      .field("src", topology.name(entry.src))
      .field("dst", topology.name(entry.dst))
      .field("live", entry.live)
      .field("withdrawn", entry.withdrawn)
      .field("version", entry.version);
  if (entry.live) {
    o.field("route_id", entry.route.route_id.to_string())
        .field("bits", static_cast<std::uint64_t>(entry.route.bit_length))
        .field("assignments",
               static_cast<std::uint64_t>(entry.route.assignments.size()))
        .field("primary",
               static_cast<std::uint64_t>(entry.route.primary_count))
        .raw("path", names_array(topology, entry.core_path));
  }
  return o.str();
}

}  // namespace

Kard::Kard(KardConfig config)
    : config_(std::move(config)),
      scenario_(build_scenario(config_)),
      store_(scenario_.topology),
      registry_(config_.metrics) {
  if (config_.restore) {
    if (config_.snapshot_path.empty()) {
      throw std::invalid_argument("kard: --restore needs a snapshot path");
    }
    const std::string bytes = read_snapshot_file(config_.snapshot_path);
    restored_ = restore_store(bytes, scenario_.topology, store_);
  }
  engine_ = std::make_unique<ctrlplane::ReconvergenceEngine>(
      scenario_.topology, store_, config_.engine);
  engine_->restore_version(restored_.engine_version);
  if (restored_.routes > 0) engine_->warm_spts();
  register_metrics();
  engine_->attach_metrics(registry_);
  routes_gauge_.set(static_cast<double>(store_.size()));
  live_routes_gauge_.set(static_cast<double>(store_.live_count()));
}

Kard::~Kard() {
  try {
    stop();
  } catch (const std::exception&) {
    // Destructor path: a failed shutdown snapshot must not terminate.
  }
}

void Kard::register_metrics() {
  requests_by_verb_.resize(static_cast<std::size_t>(Verb::kShutdown) + 1);
  for (std::size_t v = 0; v < requests_by_verb_.size(); ++v) {
    requests_by_verb_[v] = registry_.counter(
        "kar_daemon_requests_total", "Requests accepted, by verb.",
        {{"verb", std::string(to_string(static_cast<Verb>(v)))}});
  }
  request_errors_total_ = registry_.counter(
      "kar_daemon_request_errors_total",
      "Requests answered with a structured error.");
  epochs_total_ = registry_.counter(
      "kar_daemon_epochs_total",
      "Batched mutation epochs applied to the engine.");
  coalesced_events_total_ = registry_.counter(
      "kar_daemon_coalesced_events_total",
      "Link-state requests absorbed by coalescing (flaps and "
      "already-in-state transitions that cost no reconvergence).");
  snapshots_total_ =
      registry_.counter("kar_daemon_snapshots_total", "Snapshots written.");
  routes_gauge_ = registry_.gauge("kar_daemon_routes",
                                  "Route slots in the store (dense keys).");
  live_routes_gauge_ = registry_.gauge(
      "kar_daemon_live_routes", "Routes currently live (usable path).");
  queue_depth_gauge_ = registry_.gauge(
      "kar_daemon_queue_depth", "Mutations waiting for the next epoch.");
  held_links_gauge_ = registry_.gauge(
      "kar_daemon_held_links",
      "Link requests held open in the coalescing window.");
  snapshot_bytes_gauge_ = registry_.gauge(
      "kar_daemon_snapshot_bytes", "Size of the most recent snapshot.");
  request_seconds_ = registry_.histogram(
      "kar_daemon_request_seconds",
      "Request latency from admission to response (batched verbs include "
      "their wait for the epoch flush).",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  epoch_seconds_ = registry_.histogram(
      "kar_daemon_epoch_seconds", "Engine wall time per batched epoch.",
      {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
  admission_wait_seconds_ = registry_.histogram(
      "kar_daemon_admission_wait_seconds",
      "Time a batched request waits in the admission queue before the "
      "flusher takes its batch (excludes the epoch itself and any "
      "coalescing-window hold).",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0});
  epoch_ops_ = registry_.histogram(
      "kar_daemon_epoch_ops", "Mutation requests coalesced into one epoch.",
      {1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0});
}

void Kard::start() {
  if (started_) return;
  started_ = true;
  flusher_ = std::thread([this] { flusher_loop(); });
}

void Kard::stop() {
  if (stopped_) return;
  stopped_ = true;
  if (started_) {
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      stop_flusher_ = true;
    }
    queue_cv_.notify_all();
    flusher_.join();
  }
  if (config_.snapshot_on_shutdown && !config_.snapshot_path.empty()) {
    (void)write_snapshot(config_.snapshot_path);
  }
}

std::future<std::string> Kard::submit_line(std::string_view line) {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  ParsedRequest parsed = parse_request(line);
  if (!parsed.ok) {
    request_errors_total_.inc();
    promise.set_value(error_response(parsed.error_code, parsed.error));
    return future;
  }
  requests_by_verb_[static_cast<std::size_t>(parsed.request.verb)].inc();
  switch (parsed.request.verb) {
    case Verb::kInstall:
    case Verb::kWithdraw:
    case Verb::kLinkUp:
    case Verb::kLinkDown:
      enqueue_mutation(parsed, std::move(promise));
      return future;
    default:
      break;
  }
  const Clock::time_point t0 = Clock::now();
  std::string response;
  try {
    response = handle_immediate(parsed.request);
  } catch (const std::exception& e) {
    request_errors_total_.inc();
    response = error_response("internal", e.what());
  }
  request_seconds_.observe(
      std::chrono::duration<double>(Clock::now() - t0).count());
  promise.set_value(std::move(response));
  return future;
}

std::string Kard::execute_line(std::string_view line) {
  return submit_line(line).get();
}

std::string Kard::handle_immediate(const Request& request) {
  switch (request.verb) {
    case Verb::kPing: {
      runner::JsonObject o;
      std::shared_lock<std::shared_mutex> lock(state_mutex_);
      o.field("ok", true).field("pong", true).field("version",
                                                    engine_->version());
      return o.str();
    }
    case Verb::kQuery:
      return handle_query(request);
    case Verb::kEncode:
      return handle_encode(request);
    case Verb::kStats:
      return handle_stats();
    case Verb::kMetrics: {
      runner::JsonObject o;
      o.field("ok", true).field("metrics", prometheus_text());
      return o.str();
    }
    case Verb::kSnapshot:
      return handle_snapshot(request);
    case Verb::kShutdown: {
      shutdown_requested_.store(true, std::memory_order_relaxed);
      runner::JsonObject o;
      o.field("ok", true).field("shutting_down", true);
      return o.str();
    }
    default:
      return error_response("internal", "verb is not immediate");
  }
}

std::string Kard::handle_query(const Request& request) {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  if (request.key >= store_.size()) {
    request_errors_total_.inc();
    return error_response("unknown-key",
                          "no route with key " + std::to_string(request.key));
  }
  return route_response(scenario_.topology, store_.get(request.key));
}

std::string Kard::handle_encode(const Request& request) {
  const auto& topology = scenario_.topology;
  const auto src = topology.find(request.a);
  const auto dst = topology.find(request.b);
  if (!src || !dst) {
    request_errors_total_.inc();
    return error_response("unknown-node",
                          "unknown node: " + (!src ? request.a : request.b));
  }
  routing::EncodedRoute route;
  std::vector<topo::NodeId> core;
  // Exclusive: preview() shares the engine's SPT and memo caches with
  // apply(), so it must not overlap an epoch.
  std::unique_lock<std::shared_mutex> lock(state_mutex_);
  try {
    if (!engine_->preview(*src, *dst, route, core)) {
      return error_response("no-path", "no usable path from " + request.a +
                                           " to " + request.b);
    }
  } catch (const std::invalid_argument& e) {
    request_errors_total_.inc();
    return error_response("not-edge", e.what());
  }
  runner::JsonObject o;
  o.field("ok", true)
      .field("src", request.a)
      .field("dst", request.b)
      .field("route_id", route.route_id.to_string())
      .field("bits", static_cast<std::uint64_t>(route.bit_length))
      .field("assignments", static_cast<std::uint64_t>(route.assignments.size()))
      .field("primary", static_cast<std::uint64_t>(route.primary_count))
      .raw("path", names_array(topology, core));
  return o.str();
}

std::string Kard::handle_stats() {
  std::shared_lock<std::shared_mutex> lock(state_mutex_);
  const ctrlplane::EpochStats& totals = engine_->totals();
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> qlock(queue_mutex_);
    depth = pending_.size();
  }
  runner::JsonObject o;
  o.field("ok", true)
      .field("topology", config_.topology)
      .field("routes", static_cast<std::uint64_t>(store_.size()))
      .field("live", static_cast<std::uint64_t>(store_.live_count()))
      .field("withdrawn", static_cast<std::uint64_t>(store_.withdrawn_count()))
      .field("version", engine_->version())
      .field("epochs", epochs_applied_.load(std::memory_order_relaxed))
      .field("queue_depth", static_cast<std::uint64_t>(depth))
      .field("held_links",
             static_cast<std::uint64_t>(
                 held_links_count_.load(std::memory_order_relaxed)))
      .field("events", static_cast<std::uint64_t>(totals.events))
      .field("reencoded", static_cast<std::uint64_t>(totals.reencoded))
      .field("installed", static_cast<std::uint64_t>(totals.installed))
      .field("tombstoned", static_cast<std::uint64_t>(totals.tombstoned))
      .field("engine_wall_s", totals.wall_s)
      .field("restored_routes", static_cast<std::uint64_t>(restored_.routes));
  return o.str();
}

std::string Kard::handle_snapshot(const Request& request) {
  const std::string& path =
      request.path.empty() ? config_.snapshot_path : request.path;
  if (path.empty()) {
    request_errors_total_.inc();
    return error_response("no-path",
                          "no snapshot path configured; use: snapshot PATH");
  }
  const std::size_t bytes = write_snapshot(path);
  runner::JsonObject o;
  o.field("ok", true)
      .field("path", path)
      .field("bytes", static_cast<std::uint64_t>(bytes));
  return o.str();
}

std::size_t Kard::write_snapshot(const std::string& path) {
  const std::string& target = path.empty() ? config_.snapshot_path : path;
  if (target.empty()) {
    throw std::invalid_argument("kard: no snapshot path configured");
  }
  std::string bytes;
  {
    std::shared_lock<std::shared_mutex> lock(state_mutex_);
    bytes = serialize_store(scenario_.topology, store_, engine_->version());
  }
  write_snapshot_file(target, bytes);
  snapshots_total_.inc();
  snapshot_bytes_gauge_.set(static_cast<double>(bytes.size()));
  return bytes.size();
}

std::string Kard::prometheus_text() const {
  return registry_.snapshot().prometheus_text();
}

void Kard::enqueue_mutation(const ParsedRequest& parsed,
                            std::promise<std::string> promise) {
  const Request& request = parsed.request;
  PendingOp op;
  op.verb = request.verb;
  op.enqueued = Clock::now();
  const auto& topology = scenario_.topology;
  // Topology *structure* is immutable, so name resolution needs no lock;
  // only link states move, and those belong to the flusher.
  switch (request.verb) {
    case Verb::kInstall: {
      const auto src = topology.find(request.a);
      const auto dst = topology.find(request.b);
      if (!src || !dst) {
        request_errors_total_.inc();
        promise.set_value(error_response(
            "unknown-node", "unknown node: " + (!src ? request.a : request.b)));
        return;
      }
      if (topology.kind(*src) != topo::NodeKind::kEdgeNode ||
          topology.kind(*dst) != topo::NodeKind::kEdgeNode) {
        request_errors_total_.inc();
        promise.set_value(error_response(
            "not-edge", "install endpoints must be edge nodes"));
        return;
      }
      op.src = *src;
      op.dst = *dst;
      break;
    }
    case Verb::kWithdraw:
      op.key = request.key;  // range/state validated at flush time
      break;
    case Verb::kLinkUp:
    case Verb::kLinkDown: {
      const auto a = topology.find(request.a);
      const auto b = topology.find(request.b);
      if (!a || !b) {
        request_errors_total_.inc();
        promise.set_value(error_response(
            "unknown-node", "unknown node: " + (!a ? request.a : request.b)));
        return;
      }
      const auto link = topology.link_between(*a, *b);
      if (!link) {
        request_errors_total_.inc();
        promise.set_value(error_response(
            "not-adjacent",
            "no link between " + request.a + " and " + request.b));
        return;
      }
      op.link = *link;
      op.up = request.verb == Verb::kLinkUp;
      break;
    }
    default:
      promise.set_value(error_response("internal", "verb is not batched"));
      return;
  }
  op.promise = std::move(promise);
  const bool urgent = op.verb == Verb::kLinkUp || op.verb == Verb::kLinkDown;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    pending_.push_back(std::move(op));
    if (urgent) link_pending_ = true;
    queue_depth_gauge_.set(static_cast<double>(pending_.size()));
  }
  // Always wake the flusher: it may be idle-waiting for a first op, and a
  // full batch or a link request must flush immediately rather than
  // waiting out the timer.
  queue_cv_.notify_all();
}

void Kard::flusher_loop() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  while (true) {
    // held_links_ / window_deadline_ are flusher-private; reading them
    // here (under queue_mutex_, not state_mutex_) is single-threaded.
    const bool window_open = !held_links_.empty();
    if (pending_.empty()) {
      if (stop_flusher_) break;
      if (window_open) {
        // Sleep at most until the coalescing window expires, then drain
        // it even with no new work.
        queue_cv_.wait_until(lock, window_deadline_, [this] {
          return !pending_.empty() || stop_flusher_;
        });
        if (pending_.empty() && !stop_flusher_ &&
            Clock::now() >= window_deadline_) {
          lock.unlock();
          flush_batch({}, /*drain_window=*/true);
          lock.lock();
        }
        continue;
      }
      queue_cv_.wait(lock,
                     [this] { return !pending_.empty() || stop_flusher_; });
      continue;
    }
    // Bounded-latency flush: wait for a full batch, but never keep the
    // oldest op waiting past the flush interval — nor an open coalescing
    // window past its own deadline. A pending link request is urgent: it
    // takes the whole queue at once (installs and withdrawals already
    // waiting ride its epoch), since every moment kard sits on a failure
    // keeps traffic on deflected paths. Link requests arriving during that
    // epoch form the next batch, so a burst still nets into one epoch.
    auto deadline =
        pending_.front().enqueued +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(config_.flush_interval_s));
    if (window_open && window_deadline_ < deadline) deadline = window_deadline_;
    queue_cv_.wait_until(lock, deadline, [this] {
      return pending_.size() >= config_.flush_max_ops || link_pending_ ||
             stop_flusher_;
    });
    std::vector<PendingOp> batch;
    batch.swap(pending_);
    link_pending_ = false;
    queue_depth_gauge_.set(0.0);
    lock.unlock();
    const Clock::time_point taken = Clock::now();
    for (const PendingOp& op : batch) {
      admission_wait_seconds_.observe(
          std::chrono::duration<double>(taken - op.enqueued).count());
    }
    flush_batch(std::move(batch), window_open && taken >= window_deadline_);
    lock.lock();
  }
  // Shutdown: a still-open window must drain — held promises would
  // otherwise never resolve and the netted transitions would be lost.
  lock.unlock();
  if (!held_links_.empty()) flush_batch({}, /*drain_window=*/true);
}

void Kard::flush_batch(std::vector<PendingOp> batch, bool drain_window) {
  std::vector<std::pair<topo::NodeId, topo::NodeId>> installs;
  for (const PendingOp& op : batch) {
    if (op.verb == Verb::kInstall) installs.emplace_back(op.src, op.dst);
  }

  std::vector<ctrlplane::RouteKey> installed_keys;
  installed_keys.reserve(installs.size());
  // The store fields an install response needs, read under the lock
  // (nullopt = installed dead); responses are composed and resolved after
  // it is released, so a woken client's next request does not queue
  // behind this epoch.
  std::vector<std::optional<rns::BigUint>> install_ids;
  install_ids.reserve(installs.size());
  std::vector<PendingOp> answered_links;
  std::unordered_set<topo::LinkId> changed_links;
  ctrlplane::EpochResult result;
  {
    std::unique_lock<std::shared_mutex> lock(state_mutex_);
    // Withdraw validation needs the store, so it happens here: in range,
    // not yet withdrawn, not duplicated within the batch. The seen-set
    // makes duplicate detection O(1) per op — a batch of N withdrawals of
    // the same key used to scan the accepted list per op, O(N²) across a
    // replayed burst.
    std::vector<ctrlplane::RouteKey> withdraws;
    std::unordered_set<ctrlplane::RouteKey> withdraw_seen;
    for (PendingOp& op : batch) {
      if (op.verb != Verb::kWithdraw) continue;
      if (op.key >= store_.size()) {
        op.rejection = error_response(
            "unknown-key", "no route with key " + std::to_string(op.key));
      } else if (store_.get(op.key).withdrawn || withdraw_seen.count(op.key)) {
        op.rejection = error_response(
            "already-withdrawn",
            "route " + std::to_string(op.key) + " is already withdrawn");
      } else {
        withdraw_seen.insert(op.key);
        withdraws.push_back(op.key);
        continue;
      }
      request_errors_total_.inc();
    }
    // Link requests enter the coalescer (netting them per link against the
    // topology's real state) and are held; with the default zero window
    // they drain again below, inside this same flush.
    for (PendingOp& op : batch) {
      if (op.verb != Verb::kLinkUp && op.verb != Verb::kLinkDown) continue;
      if (held_links_.empty()) {
        window_deadline_ =
            op.enqueued + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(
                                  config_.coalesce_window_s));
      }
      coalescer_.note(op.link, op.up, scenario_.topology.link_up(op.link));
      held_links_.push_back(std::move(op));  // answers at drain time
    }
    // Close the window when configured off, when its deadline passed, or
    // on shutdown: apply the net transitions to the topology and let the
    // epoch below reconverge them.
    std::vector<ctrlplane::LinkChange> events;
    if (!held_links_.empty() &&
        (config_.coalesce_window_s <= 0.0 || drain_window)) {
      const std::uint64_t absorbed_before = coalescer_.stats().absorbed;
      events = coalescer_.drain();
      for (const ctrlplane::LinkChange& event : events) {
        scenario_.topology.set_link_up(event.link, event.up);
        changed_links.insert(event.link);
      }
      coalesced_events_total_.inc(coalescer_.stats().absorbed -
                                  absorbed_before);
      answered_links.swap(held_links_);
    }
    held_links_count_.store(held_links_.size(), std::memory_order_relaxed);
    held_links_gauge_.set(static_cast<double>(held_links_.size()));

    if (!events.empty() || !installs.empty() || !withdraws.empty()) {
      epoch_active_.store(true, std::memory_order_relaxed);
      result = engine_->apply(events, installs, withdraws, &installed_keys);
      epoch_active_.store(false, std::memory_order_relaxed);
      epochs_applied_.fetch_add(1, std::memory_order_relaxed);
      epochs_total_.inc();
      epoch_seconds_.observe(result.stats.wall_s);
      if (!batch.empty()) {
        epoch_ops_.observe(static_cast<double>(batch.size()));
      }
    } else {
      result.version = engine_->version();
    }
    routes_gauge_.set(static_cast<double>(store_.size()));
    live_routes_gauge_.set(static_cast<double>(store_.live_count()));
    for (const ctrlplane::RouteKey key : installed_keys) {
      const ctrlplane::StoredRoute entry = store_.get(key);
      install_ids.push_back(entry.live ? std::optional(entry.route.route_id)
                                       : std::nullopt);
    }
  }

  const Clock::time_point now = Clock::now();
  // Held link requests answer when their window drains; the latency
  // histogram then shows the full hold (bounded by the window). Link
  // states are written only on this thread, so reading them needs no lock.
  for (PendingOp& op : answered_links) {
    runner::JsonObject o;
    o.field("ok", true)
        .field("up", scenario_.topology.link_up(op.link))
        .field("version", result.version)
        .field("changed", changed_links.count(op.link) > 0);
    request_seconds_.observe(
        std::chrono::duration<double>(now - op.enqueued).count());
    op.promise.set_value(o.str());
  }
  std::size_t install_index = 0;
  for (PendingOp& op : batch) {
    if (op.verb == Verb::kLinkUp || op.verb == Verb::kLinkDown) continue;
    if (!op.rejection.empty()) {
      op.promise.set_value(std::move(op.rejection));
      continue;
    }
    runner::JsonObject o;
    o.field("ok", true);
    if (op.verb == Verb::kInstall) {
      const std::optional<rns::BigUint>& route_id = install_ids[install_index];
      o.field("key", static_cast<std::uint64_t>(installed_keys[install_index]))
          .field("version", result.version)
          .field("live", route_id.has_value());
      if (route_id) o.field("route_id", route_id->to_string());
      ++install_index;
    } else {
      o.field("key", op.key)
          .field("version", result.version)
          .field("withdrawn", true);
    }
    request_seconds_.observe(
        std::chrono::duration<double>(now - op.enqueued).count());
    op.promise.set_value(o.str());
  }
}

}  // namespace kar::daemon
