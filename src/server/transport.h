// Transport — the TCP front shared by nyqmond and the router.
//
// Everything between the socket and a decoded request of the protocol in
// server/protocol.h: accepting, framing, bounded reply queues and
// backpressure, the slow-client drop, TraceContext adoption, per-verb
// counters/spans/latency series, and the ERR answers for unknown verbs and
// handler exceptions. What a verb does is the Handler's business:
// NyqmondServer plugs in the store-backed verbs, NyqmonRouter the
// scatter/route verbs. The transport knows no store, storage or query.
//
// Threading: one accept thread deals connections round-robin across N
// reactor threads (TransportConfig::reactors). A reactor exclusively owns
// its connections and runs the handler inline, so per-connection behavior
// is sequential and deterministic while the handler itself must be
// thread-safe; one reactor keeps the single-loop cross-connection order.
// run_quiesced() parks every other reactor while a handler runs a step
// that must not interleave with their dispatch (nyqmond's CHECKPOINT).
//
// Robustness: partial frames are buffered, an oversized or zero length
// prefix answers ERR and closes (it cannot be resynchronized), unknown
// verbs and handler exceptions answer ERR and keep the connection, and a
// client gone mid-reply is just reaped (SIGPIPE is never raised).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "server/protocol.h"

namespace nyqmon::srv {

/// The socket-side settings every front shares. ServerConfig extends it
/// with the store-backed fields; the router fills it from RouterConfig.
struct TransportConfig {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with port().
  std::uint16_t port = 0;
  std::size_t max_frame_bytes = kMaxFrameBytes;
  std::size_t listen_backlog = 64;
  /// Per-connection reply queue bound in bytes; once a client's undelivered
  /// replies reach the bound, the server stops reading (and dispatching)
  /// that connection until it drains. 0 = default to max_frame_bytes.
  std::size_t max_reply_queue_bytes = 0;
  /// Same bound in whole queued reply frames — catches a pipelining client
  /// whose tiny replies would never trip the byte bound.
  std::size_t max_reply_queue_frames = 64;
  /// Drop (close) a connection whose bounded reply queue makes no send
  /// progress for this long — a stuck client must not hold its replies in
  /// server memory forever. 0 = stall indefinitely, never drop.
  std::uint32_t slow_client_timeout_ms = 0;
  /// Event-loop shards. Each reactor thread exclusively owns the
  /// connections the accept thread deals to it (round-robin) and runs the
  /// full read/dispatch/reply loop for them, so concurrent clients are
  /// served in parallel instead of head-of-line blocking behind one slow
  /// request. 1 (the default) serves every connection from a single
  /// reactor, preserving the original cross-connection ordering.
  std::size_t reactors = 1;
  /// Fleet identity: tags every trace span and log record produced on the
  /// event-loop threads, and names this node in stitched fleet timelines.
  /// Empty = unnamed (standalone nyqmond).
  std::string node_name;
};

/// Monotonic wire counters (readable from any thread).
struct ServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames = 0;
  std::uint64_t ingest_frames = 0;
  std::uint64_t query_frames = 0;
  std::uint64_t stats_frames = 0;
  std::uint64_t checkpoint_frames = 0;
  std::uint64_t metrics_frames = 0;
  std::uint64_t trace_frames = 0;
  std::uint64_t handoff_frames = 0;
  std::uint64_t logs_frames = 0;
  std::uint64_t protocol_errors = 0;
  /// Filled by the store-backed handler (NyqmondServer); 0 from the
  /// transport alone.
  std::uint64_t samples_ingested = 0;
  /// Connections that entered reply-queue backpressure (reads suspended).
  std::uint64_t backpressure_stalls = 0;
  /// Connections dropped for exceeding slow_client_timeout_ms while stalled.
  std::uint64_t slow_clients_dropped = 0;
};

/// Serves one request of a known verb: the reader covers the payload (the
/// TraceContext trailer already peeled off). Returns the whole reply frame,
/// OK or ERR; a thrown exception answers ERR. Runs on a reactor thread.
using Handler =
    std::function<std::vector<std::uint8_t>(Verb, sto::ByteReader&)>;

/// `text` as an OK frame, or ERR "<what> exceeds the frame cap" when it
/// does not fit one frame.
std::vector<std::uint8_t> text_frame(std::string_view text,
                                     std::size_t max_frame_bytes,
                                     const char* what);

/// This process's own METRICS (Prometheus text), TRACE (consuming
/// chrome://tracing drain) or LOGS (consuming `nyqlog v1` drain) reply —
/// the obs verbs every front answers from its own registry and rings.
std::vector<std::uint8_t> local_text_reply(Verb verb,
                                           std::size_t max_frame_bytes);

class Transport {
 public:
  Transport(TransportConfig config, Handler handler);
  ~Transport();

  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// Bind, listen, and spawn the accept and reactor threads. Throws
  /// std::runtime_error on socket failure.
  void start();

  /// Stop accepting, join every thread, give each queued reply one
  /// bounded flush, and close every connection. Returns false (and does
  /// nothing) when the transport was not running.
  bool stop();

  bool running() const { return running_.load(); }

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// The wire counters (samples_ingested stays 0, see ServerStats).
  ServerStats stats() const;

  /// Park every *other* reactor at its loop top, run `fn`, release them.
  /// Must be called on a reactor thread (from the handler). Serialized: a
  /// second initiator parks like any reactor until the first finishes.
  /// Returns false without running `fn` when the transport stops while
  /// waiting its turn.
  bool run_quiesced(const std::function<void()>& fn);

 private:
  struct Connection {
    int fd = -1;
    std::vector<std::uint8_t> in;
    std::vector<std::uint8_t> out;
    std::size_t out_sent = 0;
    /// Whole reply frames queued since `out` last drained empty.
    std::size_t out_frames = 0;
    bool close_after_flush = false;
    /// Reply queue at its bound with reads suspended; stall_since marks
    /// when the current stall episode began (slow-client drop clock).
    bool stalled = false;
    std::chrono::steady_clock::time_point stall_since{};
  };

  /// One event-loop shard. The reactor thread exclusively owns `conns`;
  /// the accept thread only touches `inbox` (under `inbox_mu`) and the
  /// wake pipe's write end. The reply_* atomics publish this reactor's
  /// share of the queue-depth gauges.
  struct Reactor {
    int wake_pipe[2] = {-1, -1};
    std::thread thread;
    std::mutex inbox_mu;
    std::vector<int> inbox;  ///< accepted fds awaiting adoption
    std::vector<std::unique_ptr<Connection>> conns;
    std::atomic<std::size_t> reply_backlog{0};
    std::atomic<std::size_t> reply_frames{0};
  };

  /// One counter slot per verb byte (slot 0 is never a known verb).
  static constexpr std::size_t kVerbSlots =
      static_cast<std::size_t>(Verb::kLogs) + 1;

  void accept_loop();
  void accept_clients();
  void reactor_loop(Reactor& reactor);
  /// Move the fds the accept thread dealt to this reactor into its conns.
  void adopt_inbox(Reactor& reactor);
  /// Block at a quiesce barrier while one is requested (reactor loop top).
  void park_for_quiesce();
  /// Count this thread as parked until the barrier lifts (or stop()).
  void park(std::unique_lock<std::mutex>& lock);
  /// Close the listening socket and every wake pipe that is open, and drop
  /// the reactors: the teardown of stop() and of a failed start().
  void close_sockets();
  /// Returns false when the connection must be dropped.
  bool read_client(Connection& conn);
  bool write_client(Connection& conn);
  /// Consume every complete frame in conn.in.
  bool drain_frames(Connection& conn);
  void dispatch(Connection& conn, std::span<const std::uint8_t> body);
  void count_protocol_error();

  /// True when this connection's undelivered replies are at their bound.
  bool reply_queue_full(const Connection& conn) const {
    return conn.out.size() - conn.out_sent >= config_.max_reply_queue_bytes ||
           conn.out_frames >= config_.max_reply_queue_frames;
  }

  TransportConfig config_;  ///< max_reply_queue_bytes resolved (never 0)
  Handler handler_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< wakes the accept thread
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  ///< accept thread's round-robin cursor

  // Cross-reactor quiesce barrier (see run_quiesced).
  std::mutex quiesce_mu_;
  std::condition_variable quiesce_cv_;
  bool quiesce_requested_ = false;
  std::size_t quiesce_parked_ = 0;

  std::atomic<std::uint64_t> connections_accepted_{0};
  std::atomic<std::uint64_t> connections_closed_{0};
  std::atomic<std::uint64_t> frames_{0};
  std::array<std::atomic<std::uint64_t>, kVerbSlots> verb_frames_{};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> backpressure_stalls_{0};
  std::atomic<std::uint64_t> slow_clients_dropped_{0};
};

}  // namespace nyqmon::srv
