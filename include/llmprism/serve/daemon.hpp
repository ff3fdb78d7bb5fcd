// prismd — the long-running diagnosis daemon (DESIGN.md §14).
//
// A deployment does not run `prism analyze` by hand: the collector streams
// flows continuously and SREs query the current diagnosis. PrismDaemon is
// that deployment shape, built entirely from existing pieces:
//
//   ingest socket (Unix or TCP)           query socket (HTTP/1.0)
//     LPF frames, one LFT image each        /metrics /report /journal ...
//          |                                        ^
//          v                                        |
//   reader threads ──> bounded per-shard queues ──> shard workers
//     (validate frame + LFT,  (blocking push =       (OnlineMonitor +
//      ack with queue depth)   backpressure)          IncidentJournal +
//                                                     ExportSinks)
//
// Sharding: a chunk for stream S lands on shard S % shards. Each shard
// worker owns one OnlineMonitor, so all state for a stream lives on
// exactly one thread and frames of one stream are analyzed in arrival
// order. Backpressure is the bounded queue: when a shard's analysis falls
// behind, producers block in push() (counted in
// llmprism_serve_backpressure_waits_total) and every ack carries the
// current depth so well-behaved clients throttle before blocking.
//
// Restart story: stop() drains the queues, then snapshots each shard's
// monitor (core/snapshot.hpp) WITHOUT flushing the partial window — the
// reorder buffer rides along in the blob, so a restarted daemon resumes
// mid-window and subsequent reports are byte-identical to a daemon that
// never stopped (asserted in tests/test_serve.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "llmprism/core/monitor.hpp"
#include "llmprism/export/config.hpp"
#include "llmprism/serve/http.hpp"
#include "llmprism/topology/topology.hpp"

namespace llmprism::serve {

struct ServeConfig {
  /// Unix socket path the ingest listener binds (unlinked on shutdown).
  /// Ignored when ingest_port is nonzero.
  std::string ingest_socket = "prism-ingest.sock";
  /// Nonzero: listen on TCP 127.0.0.1:port instead of the Unix socket.
  std::uint16_t ingest_port = 0;
  /// Unix socket path of the HTTP query endpoint (curl --unix-socket).
  /// Ignored when http_port is nonzero.
  std::string http_socket = "prism-http.sock";
  std::uint16_t http_port = 0;

  /// Shard-worker count; stream S is owned by shard S % shards.
  std::size_t shards = 1;
  /// Bounded chunk capacity of each shard's ingest queue; a full queue
  /// blocks producers (the backpressure mechanism).
  std::size_t queue_capacity = 64;

  /// Warm-state snapshot file (shard i of a multi-shard daemon uses
  /// "<path>.shardI"). Saved on stop(), restored on start() when present;
  /// empty disables snapshots (cold restarts).
  std::string snapshot_path;

  /// Per-shard analysis configuration (window length, carry, prism).
  MonitorConfig monitor;
  /// File sinks written on stop() (shard i of a multi-shard daemon
  /// decorates each path with ".shardI"). The journal endpoint works even
  /// with no sinks configured — every shard keeps a journal for HTTP.
  ExportConfig exports;

  /// Descriptive configuration errors (empty = valid; includes the nested
  /// monitor and export configs).
  [[nodiscard]] std::vector<std::string> validate() const;
};

/// Monotonic daemon counters, exposed at /statusz and mirrored into the
/// obs registry (llmprism_serve_*).
struct DaemonStats {
  std::uint64_t frames = 0;             ///< well-formed frames accepted
  std::uint64_t frame_errors = 0;       ///< bad header or corrupt payload
  std::uint64_t flows = 0;              ///< flows handed to shard queues
  std::uint64_t chunk_bytes = 0;        ///< LFT payload bytes accepted
  std::uint64_t backpressure_waits = 0; ///< producer blocks on full queues
  std::uint64_t http_requests = 0;
  std::uint64_t snapshots_saved = 0;
  std::uint64_t snapshots_restored = 0;
  std::uint64_t windows_completed = 0;  ///< across all shards
};

class PrismDaemon {
 public:
  /// Validates the config (std::invalid_argument on errors listing every
  /// problem). The topology is copied; the daemon owns everything.
  PrismDaemon(const ClusterTopology& topology, ServeConfig config);
  ~PrismDaemon();

  PrismDaemon(const PrismDaemon&) = delete;
  PrismDaemon& operator=(const PrismDaemon&) = delete;

  /// Restore snapshots (when configured and present — a corrupt snapshot
  /// is logged and skipped, the shard starts cold), bind both listeners,
  /// spawn reader/worker threads. Throws std::runtime_error when a socket
  /// cannot be bound.
  void start();

  /// Graceful shutdown: stop accepting, drain every shard queue, write
  /// export sinks and snapshots. Idempotent; also invoked by ~PrismDaemon.
  void stop();

  [[nodiscard]] bool running() const;
  [[nodiscard]] DaemonStats stats() const;

  /// Route one HTTP request (also the socket loop's implementation):
  ///   /healthz  "ok" once start() completed
  ///   /metrics  obs registry, Prometheus text exposition
  ///   /statusz  daemon + per-shard counters, JSON
  ///   /jobs     per-shard stable job ids with window counts, JSON
  ///   /report?shard=N   latest window's full report, JSON
  ///   /journal?shard=N  incident lifecycle journal so far, JSONL
  ///                     (shard defaults to 0)
  [[nodiscard]] HttpResponse handle_http(const HttpRequest& request);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The `prismd` / `prism serve` entry point: parse argv[begin..), build
/// the topology, run a daemon until SIGTERM/SIGINT, return the exit code.
int run_main(int argc, const char* const* argv, int begin = 1);

}  // namespace llmprism::serve
