// fleet-stream: open loop into an in-process PrismDaemon over Unix sockets.
//
// Two shards, one collector stream and one ingest connection per shard,
// carry_state on, one analysis thread per shard, 1 s windows with 200 ms
// reorder slack. The feed (two streams of churning tenants, stream 1
// offset by half a window so the shards close windows alternately) is
// pre-encoded in set-up as LPF frames of 50 ms of simulated time each, and
// a reference OnlineMonitor + IncidentJournal per shard consumes the same
// chunks to record what the daemon must answer.
//
// Each open-loop cycle starts a cold daemon and sends every frame at its
// due time under the nominal flow rate, while one watcher per shard follows
// that shard's latest report (detection) and one poller GETs /report and
// /statusz on a fixed schedule over the HTTP socket. The cycle ends with
// stop() — drain and snapshot — and timed restarts that restore the
// snapshot. Saturation runs send the same feed back-to-back, pipelined,
// into a fresh daemon, and in-process passes feed it to one OnlineMonitor
// per shard without sockets; a run alternates these phases in rounds.
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "inputs.hpp"
#include "layers.hpp"
#include "llmprism/common/log.hpp"
#include "llmprism/core/monitor.hpp"
#include "llmprism/core/render.hpp"
#include "llmprism/core/snapshot.hpp"
#include "llmprism/export/journal.hpp"
#include "llmprism/export/view.hpp"
#include "llmprism/flow/lft.hpp"
#include "llmprism/obs/metrics.hpp"
#include "llmprism/obs/trace_span.hpp"
#include "llmprism/serve/daemon.hpp"
#include "llmprism/serve/frame.hpp"
#include "measure.hpp"
#include "quality.hpp"
#include "schedule.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {

using namespace llmprism;

namespace {

constexpr std::size_t kShards = 2;
constexpr DurationNs kChunk = 50 * kMillisecond;
/// Simulated length of each stream: > 500 one-second windows per shard,
/// so one cycle alone yields the >= 1000 windows a p99 needs.
constexpr DurationNs kStreamLength = 530 * kSecond;
constexpr DurationNs kStagger = 500 * kMillisecond;
/// Queries per cycle, every tenth one /statusz, spread evenly over the
/// cycle's send schedule (a fixed rate, ~110/s at the frozen stream rate):
/// two cycles give the >= 1000 /report latencies a p99 needs.
constexpr std::size_t kQueriesPerCycle = 600;
constexpr auto kPollInterval = std::chrono::microseconds(500);
/// A send more than 1 ms late through the generator's own fault is late;
/// a cycle with more than 1% late sends is invalid.
constexpr double kLateAfterS = 1e-3;
constexpr double kMaxLateFraction = 0.01;
/// Timed restarts per cycle (each restores the cycle's snapshot).
constexpr std::size_t kRestarts = 10;
/// The run is a sequence of rounds, each one open-loop cycle followed by
/// saturation runs and then in-process monitor passes, which share the rest
/// of the round's time; every phase thus samples the whole run. Each metric
/// is the median over all repetitions of its phase. A round whose cycle is
/// discarded is run again, up to kMaxCycles cycles in all.
constexpr std::size_t kRounds = 2;
/// Saturation runs vary more from one to the next (four busy daemon
/// threads on a shared host) than monitor passes (two), so they get the
/// larger share of the rest of a round.
constexpr double kSaturationShare = 2.0 / 3.0;
constexpr std::size_t kMaxCycles = 12;

MonitorConfig monitor_config() {
  MonitorConfig config;
  config.window = kSecond;
  config.reorder_slack = 200 * kMillisecond;
  config.carry_state = true;
  config.prism.num_threads = 1;
  return config;
}

double now_s(Clock::time_point origin) { return seconds_since(origin); }

template <typename T>
void append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

// ---- client side of the daemon's sockets ----

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool write_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t put = ::write(fd, p, n);
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    p += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

bool read_exact(int fd, char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::read(fd, p, n);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Owns one client socket.
class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  [[nodiscard]] int fd() const { return fd_; }

 private:
  int fd_;
};

struct HttpReply {
  int status = 0;  ///< 0 = transport failure
  std::string body;
};

HttpReply http_get(const std::string& socket_path, const std::string& target) {
  HttpReply reply;
  const Socket sock(connect_unix(socket_path));
  if (sock.fd() < 0) return reply;
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  if (!write_all(sock.fd(), request.data(), request.size())) return reply;
  std::string wire;
  char buf[16384];
  for (;;) {
    const ssize_t got = ::read(sock.fd(), buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) break;
    wire.append(buf, static_cast<std::size_t>(got));
  }
  const std::size_t head_end = wire.find("\r\n\r\n");
  if (wire.rfind("HTTP/1.0 ", 0) != 0 || head_end == std::string::npos) return reply;
  reply.status = std::atoi(wire.c_str() + 9);
  reply.body = wire.substr(head_end + 4);
  return reply;
}

// ---- the feed and its reference answers ----

struct Frame {
  std::string bytes;       ///< one LPF frame (header + LFT image)
  std::size_t shard = 0;   ///< stream id == shard index
  std::uint64_t flows = 0;
  std::size_t closes = 0;  ///< windows this chunk closes on its shard
};

/// What one shard must answer, from the reference monitor.
struct ShardReference {
  std::vector<std::uint64_t> window_digests;  ///< /report digest per window
  /// Windows (ascending) whose report has a given digest.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> windows_of_digest;
  std::string journal;                         ///< /journal body
  std::unique_ptr<OnlineMonitor> monitor;      ///< state after the feed
  std::vector<double> render_ms;
  std::vector<double> report_bytes;
  double steps = 0;
  double events = 0;
};

struct Feed {
  std::array<StreamFeed, kShards> streams;
  std::array<ShardReference, kShards> ref;
  std::vector<Frame> frames;  ///< send order
  std::uint64_t flows = 0;
  QualityCounts quality;
};

void build_shard(std::uint64_t seed, std::size_t s, const ClusterTopology& topology,
                 Feed& feed, std::vector<Frame>& frames, QualityCounts& quality) {
  StreamFeed& stream = feed.streams[s];
  stream = make_stream_feed(seed, static_cast<std::uint32_t>(32 * s),
                            static_cast<TimeNs>(s) * kStagger, kStreamLength,
                            kChunk);
  ShardReference& ref = feed.ref[s];
  ref.monitor = std::make_unique<OnlineMonitor>(topology, monitor_config());
  IncidentJournal journal;
  StreamQuality scorer(stream.tenants);
  for (FlowTrace& chunk : stream.chunks) {
    Frame frame;
    frame.shard = s;
    frame.flows = chunk.size();
    std::ostringstream lft;
    write_lft(lft, chunk);
    frame.bytes = serve::encode_frame(serve::FrameType::kFlowChunk, s, lft.str());
    std::vector<MonitorTick> ticks = ref.monitor->ingest(chunk);
    for (const MonitorTick& tick : ticks) {
      journal.add_window(export_view(tick));
      const Clock::time_point r0 = Clock::now();
      std::ostringstream json;
      write_report_json(json, tick.report);
      const std::string body = std::move(json).str();
      ref.render_ms.push_back(seconds_since(r0) * 1e3);
      ref.report_bytes.push_back(static_cast<double>(body.size()));
      ref.windows_of_digest[digest(body)].push_back(ref.window_digests.size());
      ref.window_digests.push_back(digest(body));
      ref.steps += static_cast<double>(tick.report.telemetry.steps_reconstructed);
      ref.events += static_cast<double>(tick.report.telemetry.timeline_events);
      scorer.add(tick.report, tick.window);
    }
    frame.closes = ticks.size();
    frames.push_back(std::move(frame));
    chunk = FlowTrace{};
  }
  scorer.finish();
  quality = scorer;
  std::ostringstream body;
  journal.write_jsonl(body);
  ref.journal = std::move(body).str();
}

/// Generate both streams and run their references, one thread per shard;
/// then interleave the frames in simulated-time order.
Feed build_feed(std::uint64_t seed, const ClusterTopology& topology) {
  Feed feed;
  std::array<std::vector<Frame>, kShards> frames;
  std::array<QualityCounts, kShards> quality;
  std::vector<std::thread> workers;
  for (std::size_t s = 0; s < kShards; ++s) {
    workers.emplace_back([&, s] {
      build_shard(seed, s, topology, feed, frames[s], quality[s]);
    });
  }
  for (std::thread& t : workers) t.join();
  for (std::size_t s = 0; s < kShards; ++s) feed.quality += quality[s];
  // Chunk k of stream s covers [s * stagger + k * chunk, +chunk).
  const std::size_t offset = static_cast<std::size_t>(kStagger / kChunk);
  for (std::size_t k = 0; k < frames[0].size() + offset; ++k) {
    if (k < frames[0].size()) feed.frames.push_back(std::move(frames[0][k]));
    if (k >= offset && k - offset < frames[1].size()) {
      feed.frames.push_back(std::move(frames[1][k - offset]));
    }
  }
  for (const Frame& f : feed.frames) feed.flows += f.flows;
  return feed;
}

serve::ServeConfig serve_config(const std::string& dir, bool snapshots) {
  serve::ServeConfig config;
  config.ingest_socket = dir + "/ingest.sock";
  config.http_socket = dir + "/http.sock";
  config.shards = kShards;
  config.snapshot_path = snapshots ? dir + "/daemon.snap" : "";
  config.monitor = monitor_config();
  return config;
}

void remove_snapshots(const std::string& dir) {
  for (std::size_t s = 0; s < kShards; ++s) {
    std::filesystem::remove(dir + "/daemon.snap.shard" + std::to_string(s));
  }
}

std::size_t expected_windows(const Feed& feed, std::size_t shard) {
  return feed.ref[shard].window_digests.size();
}

/// Write one frame; false (with `why`) on a transport error.
bool write_frame(int fd, const Frame& frame, std::string& why) {
  if (!write_all(fd, frame.bytes.data(), frame.bytes.size())) {
    why = "ingest write failed";
    return false;
  }
  return true;
}

/// Read the reply to `frame`; false (with `why`) on a transport error, a
/// kError reply, or a wrong flow count. A kError reply is read whole, so
/// the next reply can still be read.
bool read_ack(int fd, const Frame& frame, serve::AckPayload& ack, std::string& why) {
  std::array<std::byte, serve::kFrameHeaderSize> head{};
  if (!read_exact(fd, reinterpret_cast<char*>(head.data()), head.size())) {
    why = "no reply to frame";
    return false;
  }
  std::string payload;
  try {
    const serve::FrameHeader header = serve::decode_frame_header(head);
    payload.resize(static_cast<std::size_t>(header.payload_bytes));
    if (!payload.empty() && !read_exact(fd, payload.data(), payload.size())) {
      why = "short reply";
      return false;
    }
    if (header.type != serve::FrameType::kAck) {
      why = "frame answered with kError: " + payload;
      return false;
    }
    ack = serve::decode_ack(std::as_bytes(std::span(payload.data(), payload.size())));
  } catch (const std::exception& e) {
    why = std::string("malformed reply: ") + e.what();
    return false;
  }
  if (ack.flows_accepted != frame.flows) {
    why = "ack counts " + std::to_string(ack.flows_accepted) + " of " +
          std::to_string(frame.flows) + " flows";
    return false;
  }
  return true;
}

/// Send one frame and read its reply.
bool send_frame(int fd, const Frame& frame, serve::AckPayload& ack,
                std::string& why) {
  const obs::Span span("bench.send");
  return write_frame(fd, frame, why) && read_ack(fd, frame, ack, why);
}

/// Compare each shard's /journal with the reference; returns mismatches.
std::size_t check_journals(const std::string& http, const Feed& feed,
                           RunResult& result, double* records, double* bytes) {
  std::size_t bad = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    ++result.attempted;
    const HttpReply reply = http_get(http, "/journal?shard=" + std::to_string(s));
    if (reply.status != 200 || reply.body != feed.ref[s].journal) {
      ++bad;
      result.fail("shard " + std::to_string(s) + ": /journal differs from the reference");
    }
    if (records != nullptr) {
      *records += static_cast<double>(
          std::count(reply.body.begin(), reply.body.end(), '\n') - 1);
      *bytes += static_cast<double>(reply.body.size());
    }
  }
  return bad;
}

// ---- one open-loop cycle ----

struct CycleResult {
  bool valid = true;
  std::vector<double> detect_ms;
  std::vector<double> ack_ms;
  std::vector<double> query_ms;
  std::vector<double> queue_depth;
  std::vector<double> resolution_ms;
  std::vector<double> restart_s;
  GeneratorReport generator;
  serve::DaemonStats stats;
  double journal_records = 0;
  double journal_bytes = 0;
  double buffered_max = 0;
  double peak_rss_mb = 0;  ///< peak resident memory during the cycle
};

/// Detection for one shard: polls the shard's latest report through the
/// daemon's /report handler in-process every 0.5 ms and records when each
/// window's report first shows. A poll blocks only on its own shard's lock
/// (held while that shard analyzes and publishes), so a window is seen at
/// most one sleep after it became visible. The thread sleeps between polls.
struct Watcher {
  Watcher(const ShardReference& r, serve::PrismDaemon& d, std::size_t s,
          Clock::time_point start)
      : ref(r), daemon(d), shard(s), origin(start) {}

  const ShardReference& ref;
  serve::PrismDaemon& daemon;
  std::size_t shard;
  Clock::time_point origin;
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> visible{0};

  std::vector<std::pair<double, std::uint64_t>> seen;  ///< (time, windows)
  std::vector<double> blind_ms;  ///< time between a poll and the next one
  std::uint64_t failures = 0;

  void run() {
    const serve::HttpRequest request{"GET", "/report",
                                     "shard=" + std::to_string(shard)};
    std::uint64_t last = 0;
    double last_return = now_s(origin);
    while (!stop.load(std::memory_order_relaxed)) {
      const double start = now_s(origin);
      blind_ms.push_back((start - last_return) * 1e3);
      const serve::HttpResponse response = daemon.handle_http(request);
      const double t = now_s(origin);
      last_return = t;
      if (response.status == 200) {
        const std::uint64_t d = digest(response.body);
        if (d != last) {
          last = d;
          // The first window at or after the next unseen one with this
          // report (reports repeat only for identical windows).
          const auto it = ref.windows_of_digest.find(d);
          const std::size_t next = visible.load(std::memory_order_relaxed);
          std::size_t index = SIZE_MAX;
          if (it != ref.windows_of_digest.end()) {
            const auto w = std::lower_bound(it->second.begin(), it->second.end(), next);
            if (w != it->second.end()) index = *w;
          }
          if (index == SIZE_MAX) {
            ++failures;
          } else {
            seen.emplace_back(t, index + 1);
            visible.store(index + 1, std::memory_order_relaxed);
          }
        }
      } else if (response.status != 404 || visible.load() != 0) {
        ++failures;
      }
      std::this_thread::sleep_for(kPollInterval);
    }
  }
};

/// The query client: GETs /report (alternating shards) and, every tenth
/// query, /statusz over the HTTP socket on a fixed schedule, each timed
/// from its due time and checked against the reference reports. It issues
/// every scheduled query; one that falls behind is sent late, and its wait
/// counts in its latency.
struct Poller {
  Poller(const Feed& f, std::string http_socket, Clock::time_point start,
         double query_period)
      : feed(f), http(std::move(http_socket)), origin(start), period(query_period) {}

  const Feed& feed;
  std::string http;
  Clock::time_point origin;
  double period;

  std::vector<double> query_ms;
  std::uint64_t queries = 0;
  std::uint64_t report_queries = 0;
  std::uint64_t failures = 0;
  std::string first_failure;

  void failed(const std::string& why) {
    if (failures++ == 0) first_failure = why;
  }

  void run() {
    for (std::size_t q = 1; q <= kQueriesPerCycle; ++q) {
      const double due = static_cast<double>(q) * period;
      std::this_thread::sleep_until(
          origin + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due)));
      query(due);
    }
  }

  void query(double due) {
    const obs::Span span("bench.query");
    const bool statusz = queries++ % 10 == 9;
    const std::size_t shard = statusz ? 0 : report_queries++ % kShards;
    const HttpReply reply =
        http_get(http, statusz ? std::string("/statusz")
                               : "/report?shard=" + std::to_string(shard));
    const double done = now_s(origin);
    if (statusz) {
      if (reply.status != 200 ||
          reply.body.find("\"windows_completed\"") == std::string::npos) {
        failed("/statusz failed");
      }
      return;
    }
    query_ms.push_back((done - due) * 1e3);
    if (reply.status == 404 && reply.body == "no window analyzed yet\n") return;
    if (reply.status != 200 ||
        !feed.ref[shard].windows_of_digest.contains(digest(reply.body))) {
      failed("/report query returned status " + std::to_string(reply.status) +
             " or an unknown report");
    }
  }
};

CycleResult open_loop_cycle(const Feed& feed, const ClusterTopology& topology,
                            const RunOptions& opt, RunResult& result) {
  CycleResult cycle;
  const serve::ServeConfig config = serve_config(opt.work_dir, true);
  remove_snapshots(opt.work_dir);
  reset_peak_rss();
  auto daemon = std::make_unique<serve::PrismDaemon>(topology, config);
  daemon->start();

  const std::vector<double> due = due_offsets(
      [&] {
        std::vector<std::uint64_t> flows;
        for (const Frame& f : feed.frames) flows.push_back(f.flows);
        return flows;
      }(),
      opt.stream_rate);
  std::array<std::vector<double>, kShards> window_due;
  for (std::size_t k = 0; k < feed.frames.size(); ++k) {
    window_due[feed.frames[k].shard].insert(
        window_due[feed.frames[k].shard].end(), feed.frames[k].closes, due[k]);
  }

  std::vector<std::unique_ptr<Socket>> conns;
  for (std::size_t s = 0; s < kShards; ++s) {
    conns.push_back(std::make_unique<Socket>(connect_unix(config.ingest_socket)));
    if (conns.back()->fd() < 0) throw std::runtime_error("cannot connect to ingest socket");
  }

  const Clock::time_point origin = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::unique_ptr<Watcher>> watchers;
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kShards; ++s) {
    watchers.push_back(std::make_unique<Watcher>(feed.ref[s], *daemon, s, origin));
    threads.emplace_back([w = watchers.back().get()] { w->run(); });
  }
  Poller poller(feed, config.http_socket, origin,
                due.back() / static_cast<double>(kQueriesPerCycle));
  threads.emplace_back([&poller] { poller.run(); });
  obs::Gauge& buffered =
      obs::default_registry().gauge("llmprism_monitor_buffered_flows");

  std::vector<SendTiming> sends;
  sends.reserve(feed.frames.size());
  std::size_t send_failures = 0;
  for (std::size_t k = 0; k < feed.frames.size(); ++k) {
    const Frame& frame = feed.frames[k];
    std::this_thread::sleep_until(
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due[k])));
    ++result.attempted;
    SendTiming timing{.due = due[k], .start = now_s(origin)};
    serve::AckPayload ack;
    std::string why;
    if (!send_frame(conns[frame.shard]->fd(), frame, ack, why)) {
      ++send_failures;
      result.fail(why);
      if (send_failures > 10) break;
    }
    timing.reply = now_s(origin);
    sends.push_back(timing);
    cycle.ack_ms.push_back((timing.reply - timing.due) * 1e3);
    cycle.queue_depth.push_back(static_cast<double>(ack.queue_depth));
    cycle.buffered_max = std::max(cycle.buffered_max, buffered.value());
  }

  auto all_visible = [&] {
    for (std::size_t s = 0; s < kShards; ++s) {
      if (watchers[s]->visible.load() < expected_windows(feed, s)) return false;
    }
    return true;
  };
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (!all_visible() && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  threads.back().join();  // the poller, once its last query is answered
  threads.pop_back();
  for (auto& w : watchers) w->stop.store(true);
  for (std::thread& t : threads) t.join();

  for (std::size_t s = 0; s < kShards; ++s) {
    const Watcher& w = *watchers[s];
    result.attempted += expected_windows(feed, s);
    const std::vector<double> lat = detection_latencies(window_due[s], w.seen);
    for (const double l : lat) cycle.detect_ms.push_back(l * 1e3);
    append(cycle.resolution_ms, w.blind_ms);
    if (lat.size() != expected_windows(feed, s)) {
      result.failed += expected_windows(feed, s) - lat.size();
      result.notes.push_back("shard " + std::to_string(s) + ": " +
                             std::to_string(lat.size()) + " of " +
                             std::to_string(expected_windows(feed, s)) +
                             " windows became visible");
    }
    if (w.failures > 0) {
      result.failed += w.failures;
      result.notes.push_back("shard " + std::to_string(s) +
                             ": /report showed a report that is not the next "
                             "reference window");
    }
  }
  result.attempted += poller.queries;
  if (poller.failures > 0) {
    result.failed += poller.failures;
    result.notes.push_back(poller.first_failure);
  }
  cycle.query_ms = std::move(poller.query_ms);
  cycle.generator = summarize_generator(sends, kLateAfterS, kMaxLateFraction);
  cycle.valid = !cycle.generator.fell_behind;

  check_journals(config.http_socket, feed, result, &cycle.journal_records,
                 &cycle.journal_bytes);
  cycle.stats = daemon->stats();
  const std::size_t expected = expected_windows(feed, 0) + expected_windows(feed, 1);
  if (cycle.stats.windows_completed != expected) {
    result.fail("daemon completed " + std::to_string(cycle.stats.windows_completed) +
                " windows, expected " + std::to_string(expected));
  }
  const std::string jobs = http_get(config.http_socket, "/jobs").body;
  conns.clear();
  daemon->stop();
  daemon.reset();
  cycle.peak_rss_mb = peak_rss_mb();

  // Timed restarts: topology, construction, start with snapshot restore.
  for (std::size_t r = 0; r < kRestarts; ++r) {
    ++result.attempted;
    const Clock::time_point t0 = Clock::now();
    const ClusterTopology restarted_topology = ClusterTopology::build(fleet_topology());
    serve::PrismDaemon restarted(restarted_topology, config);
    restarted.start();
    cycle.restart_s.push_back(seconds_since(t0));
    if (restarted.stats().snapshots_restored != kShards ||
        http_get(config.http_socket, "/jobs").body != jobs) {
      result.fail("restart did not restore the snapshot");
    }
    restarted.stop();
  }
  return cycle;
}

/// Back-to-back feed into a fresh daemon, pipelined: this thread writes
/// every frame without waiting for its reply while one thread per
/// connection reads and checks the replies, so that the daemon sets the
/// pace rather than the client's round trips. Flows per second until every
/// window has been analyzed.
double saturation(const Feed& feed, const ClusterTopology& topology,
                  const RunOptions& opt, RunResult& result) {
  const serve::ServeConfig config = serve_config(opt.work_dir, false);
  serve::PrismDaemon daemon(topology, config);
  daemon.start();
  std::vector<std::unique_ptr<Socket>> conns;
  for (std::size_t s = 0; s < kShards; ++s) {
    conns.push_back(std::make_unique<Socket>(connect_unix(config.ingest_socket)));
  }
  std::array<std::vector<const Frame*>, kShards> frames_of;
  for (const Frame& frame : feed.frames) frames_of[frame.shard].push_back(&frame);
  std::array<std::string, kShards> first_failure;
  const std::size_t expected = expected_windows(feed, 0) + expected_windows(feed, 1);
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> readers;
  for (std::size_t s = 0; s < kShards; ++s) {
    readers.emplace_back([&, s] {
      for (const Frame* frame : frames_of[s]) {
        serve::AckPayload ack;
        if (!read_ack(conns[s]->fd(), *frame, ack, first_failure[s])) {
          // Unblock the writer: its next frame to this shard fails.
          ::shutdown(conns[s]->fd(), SHUT_RDWR);
          return;
        }
      }
    });
  }
  for (const Frame& frame : feed.frames) {
    ++result.attempted;
    std::string why;
    if (!write_frame(conns[frame.shard]->fd(), frame, why)) {
      result.fail(why);
      // Unblock the readers waiting for replies to frames never sent.
      for (const auto& conn : conns) ::shutdown(conn->fd(), SHUT_RDWR);
      break;
    }
  }
  for (std::thread& t : readers) t.join();
  for (const std::string& why : first_failure) {
    if (!why.empty()) result.fail("saturation: " + why);
  }
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (daemon.stats().windows_completed < expected && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const double wall = seconds_since(t0);
  check_journals(config.http_socket, feed, result, nullptr, nullptr);
  conns.clear();
  daemon.stop();
  return static_cast<double>(feed.flows) / wall;
}

/// Per-layer numbers of the traced cycle's spans: per analyzed window
/// (median over windows), per ingest call and per decoded frame.
void span_layers(std::vector<obs::SpanRecord> spans, double flows,
                 std::map<std::string, double>& m) {
  const std::vector<SpanNode> tree = build_span_tree(std::move(spans), {});
  std::map<std::string, std::vector<double>> per_window;
  std::vector<double> ingest_ms;
  std::vector<double> decode_ms;
  double decode_total_ms = 0;
  std::size_t windows = 0;
  for (std::size_t k = 0; k < tree.size(); ++k) {
    const std::string_view name = tree[k].record.name;
    if (name == "monitor.window") {
      ++windows;
      for (const auto& [metric, ms] : layer_self_ms(tree, k)) {
        per_window[metric].push_back(ms);
      }
      for (const std::size_t c : tree[k].children) {
        if (std::string_view(tree[c].record.name) == "prism.analyze") {
          const FanOut f = fan_out_of(tree, c, 1);
          per_window["core.prism.fanout_ms"].push_back(f.fanout_ms);
          per_window["core.prism.serial_ms"].push_back(f.serial_ms);
          per_window["core.prism.fanout_efficiency"].push_back(f.efficiency);
        }
      }
    } else if (name == "monitor.ingest") {
      ingest_ms.push_back(static_cast<double>(tree[k].self_us) / 1e3);
    } else if (name == "ingest.lft_buffer") {
      decode_ms.push_back(static_cast<double>(tree[k].record.dur_us) / 1e3);
      decode_total_ms += decode_ms.back();
    }
  }
  for (auto& [metric, values] : per_window) m[metric] = median(std::move(values));
  m["core.monitor.ingest_ms"] = median(std::move(ingest_ms));
  m["flow.decode_ms"] = median(std::move(decode_ms));
  m["flow.decode_flows_per_s"] = decode_total_ms > 0 ? flows / (decode_total_ms / 1e3) : 0;
  m["obs.spans"] = windows > 0 ? static_cast<double>(tree.size()) / static_cast<double>(windows) : 0;
}

/// One in-process pass over the feed: a fresh OnlineMonitor per shard on
/// its own thread, timed around each ingest call (decoding the chunk is
/// not timed). Throughput of the shards together and of one thread, and
/// the p90 time of the calls that closed a window, per window.
struct MonitorPass {
  double aggregate_flows_per_s = 0;
  double single_flows_per_s = 0;
  double window_p90_ms = 0;
};

MonitorPass monitor_pass(const Feed& feed, const ClusterTopology& topology) {
  std::array<double, kShards> busy{};
  std::array<double, kShards> flows{};
  std::array<std::vector<double>, kShards> window_ms;
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      OnlineMonitor monitor(topology, monitor_config());
      for (const Frame& frame : feed.frames) {
        if (frame.shard != s) continue;
        const FlowTrace chunk = read_lft_buffer(std::as_bytes(std::span(
            frame.bytes.data() + serve::kFrameHeaderSize,
            frame.bytes.size() - serve::kFrameHeaderSize)));
        const Clock::time_point t0 = Clock::now();
        const std::size_t closed = monitor.ingest(chunk).size();
        const double dt = seconds_since(t0);
        busy[s] += dt;
        flows[s] += static_cast<double>(chunk.size());
        for (std::size_t w = 0; w < closed; ++w) {
          window_ms[s].push_back(dt * 1e3 / static_cast<double>(closed));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  MonitorPass pass;
  std::vector<double> all_ms;
  for (std::size_t s = 0; s < kShards; ++s) {
    pass.aggregate_flows_per_s += flows[s] / busy[s];
    append(all_ms, window_ms[s]);
  }
  pass.single_flows_per_s = (flows[0] + flows[1]) / (busy[0] + busy[1]);
  pass.window_p90_ms = percentile(std::move(all_ms), 90);
  return pass;
}

/// Median over repetitions of one statistic of each.
template <typename T, typename F>
double median_of(const std::vector<T>& reps, F f) {
  std::vector<double> values;
  for (const T& r : reps) values.push_back(f(r));
  return median(std::move(values));
}

/// Repeat `phase` until `seconds` have passed, at least once.
template <typename F>
void repeat_for(double seconds, F phase) {
  const Clock::time_point begin = Clock::now();
  do {
    phase();
  } while (seconds_since(begin) < seconds);
}

}  // namespace

RunResult run_stream_workload(const RunOptions& opt) {
  RunResult result;
  if (!(opt.stream_rate > 0)) throw std::invalid_argument("--stream-rate must be > 0");
  log::set_level(log::Level::kError);
  // A write to a connection that a failure shut down returns EPIPE.
  std::signal(SIGPIPE, SIG_IGN);
  // Tighter wake-ups for the sender (this thread): the schedule is fine-grained.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const ClusterTopology topology = ClusterTopology::build(fleet_topology());
  const Feed feed = build_feed(opt.seed, topology);
  const double windows =
      static_cast<double>(expected_windows(feed, 0) + expected_windows(feed, 1));

  // ---- rounds of an open-loop cycle, saturation runs and monitor passes
  // (the traced run traces its first kept cycle) ----
  obs::TraceCollector& collector = obs::TraceCollector::instance();
  std::vector<CycleResult> cycles;
  std::vector<double> saturation_rates;
  std::vector<MonitorPass> passes;
  std::size_t invalid = 0;
  std::map<std::string, double> layers;
  const double round_s = opt.seconds / static_cast<double>(kRounds);
  while (cycles.size() < kRounds && invalid + cycles.size() < kMaxCycles) {
    const bool traced = opt.trace && cycles.empty();
    const CounterSnapshot before = CounterSnapshot::take();
    if (traced) collector.enable();
    const Clock::time_point cycle_start = Clock::now();
    CycleResult cycle = open_loop_cycle(feed, topology, opt, result);
    const double cycle_s = seconds_since(cycle_start);
    collector.disable();
    const CounterSnapshot after = CounterSnapshot::take();
    std::vector<obs::SpanRecord> spans = collector.drain();
    if (!cycle.valid) {
      ++invalid;
      result.notes.push_back("generator fell behind (" +
                             std::to_string(cycle.generator.late_sends) +
                             " late sends); cycle discarded");
      continue;
    }
    if (traced) {
      {
        std::ofstream out(opt.trace_out);
        obs::write_chrome_trace(out, spans);
      }
      span_layers(std::move(spans), static_cast<double>(feed.flows), layers);
      add_counter_layers(layers, before, after);
      auto d = [&](const char* c) { return after.delta(before, c); };
      auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
      layers["core.monitor.windows"] = d("llmprism_monitor_windows_completed_total");
      layers["core.monitor.late_dropped"] = d("llmprism_monitor_flows_dropped_late_total");
      layers["core.monitor.stable_ids"] = d("llmprism_monitor_stable_ids_total");
      const double reuses = d("llmprism_session_recognition_reuses_total");
      layers["core.session.recognition_reuse_ratio"] =
          ratio(reuses, reuses + d("llmprism_session_recognition_rebuilds_total"));
      const double pairs_reused = d("llmprism_session_pairs_reused_total");
      layers["core.session.pair_reuse_ratio"] = ratio(
          pairs_reused, pairs_reused + d("llmprism_session_pairs_reclassified_total"));
    }
    cycles.push_back(std::move(cycle));
    const double rest_s = std::max(0.0, round_s - cycle_s);
    repeat_for(rest_s * kSaturationShare, [&] {
      saturation_rates.push_back(saturation(feed, topology, opt, result));
    });
    repeat_for(rest_s * (1 - kSaturationShare), [&] {
      passes.push_back(monitor_pass(feed, topology));
    });
  }
  if (cycles.empty()) {
    result.valid = false;
    result.notes.push_back("no open-loop cycle kept to its schedule");
    return result;
  }
  for (const CycleResult& c : cycles) {
    for (const auto& [name, n] : {std::pair{"detect", c.detect_ms.size()},
                                  std::pair{"ack", c.ack_ms.size()}}) {
      if (!percentile_supported(n, 99)) {
        result.valid = false;
        result.notes.push_back("a cycle has " + std::to_string(n) + " " + name +
                               " samples, too few for a p99");
      }
    }
  }

  result.facts["cycles"] = static_cast<double>(cycles.size());
  result.facts["cycles_discarded"] = static_cast<double>(invalid);
  result.facts["windows_per_cycle"] = windows;
  result.facts["detect_samples_per_cycle"] = static_cast<double>(cycles.front().detect_ms.size());
  result.facts["query_samples_per_cycle"] = static_cast<double>(cycles.front().query_ms.size());
  result.facts["frames_per_cycle"] = static_cast<double>(feed.frames.size());
  result.facts["flows_per_cycle"] = static_cast<double>(feed.flows);
  result.facts["saturation_runs"] = static_cast<double>(saturation_rates.size());
  result.facts["monitor_passes"] = static_cast<double>(passes.size());
  result.facts["stream_rate"] = opt.stream_rate;
  result.facts["threads_shards"] = static_cast<double>(kShards);
  result.facts["detect_resolution_p99_ms"] =
      median_of(cycles, [](const CycleResult& c) { return percentile(c.resolution_ms, 99); });
  result.facts["ack_p50_ms"] =
      median_of(cycles, [](const CycleResult& c) { return median(c.ack_ms); });
  result.facts["query_p50_ms"] =
      median_of(cycles, [](const CycleResult& c) { return median(c.query_ms); });
  result.facts["generator_lag_p99_ms"] =
      median_of(cycles, [](const CycleResult& c) { return c.generator.lag_p99_ms; });

  if (opt.trace) {
    // Trace overhead: a traced saturation run against the untraced ones.
    collector.enable();
    const double traced_rate = saturation(feed, topology, opt, result);
    collector.disable();
    static_cast<void>(collector.drain());
    layers["obs.trace_overhead_pct"] =
        (median(saturation_rates) / traced_rate - 1.0) * 100.0;

    // Snapshot layer through the public API, on the reference monitors.
    std::vector<double> save_ms;
    std::vector<double> restore_ms;
    double bytes = 0;
    for (int rep = 0; rep < 5; ++rep) {
      double save = 0;
      double restore = 0;
      bytes = 0;
      for (std::size_t s = 0; s < kShards; ++s) {
        std::ostringstream blob;
        Clock::time_point t0 = Clock::now();
        save_snapshot(blob, *feed.ref[s].monitor);
        save += seconds_since(t0);
        const std::string b = std::move(blob).str();
        bytes += static_cast<double>(b.size());
        OnlineMonitor restored(topology, monitor_config());
        t0 = Clock::now();
        restore_snapshot(std::as_bytes(std::span(b.data(), b.size())), restored);
        restore += seconds_since(t0);
      }
      save_ms.push_back(save * 1e3);
      restore_ms.push_back(restore * 1e3);
    }
    layers["core.snapshot.save_ms"] = median(save_ms);
    layers["core.snapshot.restore_ms"] = median(restore_ms);
    layers["core.snapshot.bytes"] = bytes;

    // Registry counts per analyzed window (ratios stay ratios).
    for (const char* name :
         {"flow.sorts", "flow.materializations", "core.job_recognition.jobs",
          "core.flow_router.via_dst", "core.comm_type.pairs",
          "core.comm_type.refinement_flips", "core.comm_type.artifact_flows",
          "bocd.observations", "bocd.hard_resets", "bocd.detector_reuses",
          "core.diagnosis.ksigma_points", "core.diagnosis.ksigma_alerts",
          "core.attribution.incidents"}) {
      layers[name] /= windows;
    }
    double jobs_tracked = 0;
    std::vector<double> render_ms;
    std::vector<double> report_bytes;
    double steps = 0;
    double events = 0;
    for (const ShardReference& ref : feed.ref) {
      jobs_tracked += static_cast<double>(ref.monitor->session()->jobs_tracked());
      append(render_ms, ref.render_ms);
      append(report_bytes, ref.report_bytes);
      steps += ref.steps;
      events += ref.events;
    }
    const CycleResult& first = cycles.front();
    layers["core.session.jobs_tracked"] = jobs_tracked;
    layers["core.render.report_ms"] = median(render_ms);
    layers["core.render.report_bytes"] = median(report_bytes);
    layers["core.timeline.steps"] = steps / windows;
    layers["core.timeline.events"] = events / windows;
    layers["core.monitor.buffered_flows_max"] = first.buffered_max;
    layers["export.journal_records"] = first.journal_records;
    layers["export.journal_bytes"] = first.journal_bytes;
    layers["serve.frames"] = static_cast<double>(first.stats.frames);
    layers["serve.frame_errors"] = static_cast<double>(first.stats.frame_errors);
    layers["serve.backpressure_waits"] = static_cast<double>(first.stats.backpressure_waits);
    layers["serve.http_requests"] = static_cast<double>(first.stats.http_requests);
    layers["serve.queue_depth_p99"] = percentile(first.queue_depth, 99);
    layers["bench.gen.lag_p99_ms"] = first.generator.lag_p99_ms;
    layers["bench.gen.late_sends"] = static_cast<double>(first.generator.late_sends);
    layers["bench.detect.resolution_p99_ms"] = percentile(first.resolution_ms, 99);
    for (const auto& [name, v] : layers) result.set(name, v, "");
    return result;
  }

  std::vector<double> restart_s;
  for (const CycleResult& c : cycles) append(restart_s, c.restart_s);
  result.set("setup_s", median(restart_s), "s");
  result.set("peak_rss_mb",
             median_of(cycles, [](const CycleResult& c) { return c.peak_rss_mb; }), "MB");
  result.set("flows_per_s",
             median_of(passes, [](const MonitorPass& p) { return p.aggregate_flows_per_s; }),
             "flows/s");
  result.set("flows_per_s_1t",
             median_of(passes, [](const MonitorPass& p) { return p.single_flows_per_s; }),
             "flows/s");
  result.set("pair_accuracy", feed.quality.pair_accuracy(), "ratio");
  result.set("step_recall", feed.quality.step_recall(), "ratio");
  result.set("step_error_pct", feed.quality.step_error_pct(), "%");
  result.set("attribution_top1", feed.quality.attribution_top1(), "ratio");
  result.set("incident_precision", feed.quality.incident_precision(), "ratio");
  // For the context line only: under a shared host's noise these do not
  // repeat within a tenth from run to run (see README), so they are not
  // gated metrics.
  result.facts["analyze_p90_ms"] =
      median_of(passes, [](const MonitorPass& p) { return p.window_p90_ms; });
  result.facts["detect_p50_ms"] =
      median_of(cycles, [](const CycleResult& c) { return median(c.detect_ms); });
  result.facts["detect_p99_ms"] =
      median_of(cycles, [](const CycleResult& c) { return percentile(c.detect_ms, 99); });
  result.facts["ack_p99_ms"] =
      median_of(cycles, [](const CycleResult& c) { return percentile(c.ack_ms, 99); });
  std::vector<double> query_ms;
  for (const CycleResult& c : cycles) append(query_ms, c.query_ms);
  if (!percentile_supported(query_ms.size(), 99)) {
    result.valid = false;
    result.notes.push_back("too few /report queries for a p99");
  }
  result.facts["query_p99_ms"] = percentile(std::move(query_ms), 99);
  result.set("stream_flows_per_s", median(saturation_rates), "flows/s");
  return result;
}

}  // namespace perfbench
