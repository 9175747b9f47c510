#include "server/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <sys/time.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace nyqmon::srv {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

/// Span name per verb slot (the verb byte); slot 0 stands for every
/// unknown verb byte.
constexpr const char* kVerbNames[] = {"UNKNOWN", "INGEST",     "QUERY",
                                      "STATS",   "CHECKPOINT", "METRICS",
                                      "TRACE",   "HANDOFF",    "LOGS"};

#if !defined(NYQMON_OBS_NOOP)
/// Per-verb request latency, dispatch-to-reply-queued, by verb slot.
/// Registered together on first use so every series is present in the
/// exposition from the first frame of any kind; unknown verbs answer ERR
/// untimed.
obs::Histogram* verb_latency_histogram(std::size_t slot) {
  using Table = std::array<obs::Histogram*, std::size(kVerbNames)>;
  static const Table table = [] {
    obs::Registry& r = obs::Registry::instance();
    return Table{nullptr,
                 &r.histogram("nyqmon_server_ingest_latency_ns"),
                 &r.histogram("nyqmon_server_query_latency_ns"),
                 &r.histogram("nyqmon_server_stats_latency_ns"),
                 &r.histogram("nyqmon_server_checkpoint_latency_ns"),
                 &r.histogram("nyqmon_server_metrics_latency_ns"),
                 &r.histogram("nyqmon_server_trace_latency_ns"),
                 &r.histogram("nyqmon_server_handoff_latency_ns"),
                 &r.histogram("nyqmon_server_logs_latency_ns")};
  }();
  return table[slot];
}
#endif  // NYQMON_OBS_NOOP

}  // namespace

std::vector<std::uint8_t> text_frame(std::string_view text,
                                     std::size_t max_frame_bytes,
                                     const char* what) {
  if (text.size() >= max_frame_bytes)
    return error_frame(std::string(what) + " exceeds the frame cap");
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(text.data());
  return ok_frame(std::span<const std::uint8_t>(bytes, text.size()));
}

std::vector<std::uint8_t> local_text_reply(Verb verb,
                                           std::size_t max_frame_bytes) {
  switch (verb) {
    case Verb::kMetrics:
      return text_frame(obs::Registry::instance().render_prometheus(),
                        max_frame_bytes, "metrics exposition");
    case Verb::kTrace:
      // Draining consumes the buffered events: two TRACE frames in a row
      // return disjoint windows of activity (LOGS likewise for records).
      return text_frame(obs::TraceRecorder::instance().export_chrome_json(),
                        max_frame_bytes, "trace export");
    case Verb::kLogs:
      return text_frame(obs::LogRecorder::instance().export_text(),
                        max_frame_bytes, "log export");
    default:
      return error_frame("not a local text verb");
  }
}

Transport::Transport(TransportConfig config, Handler handler)
    : config_(std::move(config)), handler_(std::move(handler)) {
  NYQMON_CHECK(config_.max_frame_bytes >= 64);
  NYQMON_CHECK(handler_ != nullptr);
  static_assert(std::size(kVerbNames) == kVerbSlots);
  if (config_.max_reply_queue_bytes == 0)
    config_.max_reply_queue_bytes = config_.max_frame_bytes;
}

Transport::~Transport() { stop(); }

void Transport::start() {
  NYQMON_CHECK_MSG(!running_.load(), "server already started");

#if !defined(NYQMON_OBS_NOOP)
  // Touch the per-verb histograms now: the dispatch path only registers
  // them after a frame completes, which would leave the very first
  // METRICS exposition without the per-verb series.
  verb_latency_histogram(0);
#endif

  // Everything before the loop thread spawns can throw; close whatever was
  // opened so a failed (or retried) start never leaks descriptors.
  try {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw_errno("socket");
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(config_.port);
    if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
        1)
      throw std::runtime_error("bad bind address: " + config_.bind_address);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0)
      throw_errno("bind");
    if (::listen(listen_fd_, static_cast<int>(config_.listen_backlog)) < 0)
      throw_errno("listen");

    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) <
        0)
      throw_errno("getsockname");
    port_ = ntohs(addr.sin_port);

    if (::pipe(wake_pipe_) < 0) throw_errno("pipe");
    set_nonblocking(wake_pipe_[0]);
    set_nonblocking(listen_fd_);

    const std::size_t n_reactors = std::max<std::size_t>(1, config_.reactors);
    reactors_.reserve(n_reactors);
    for (std::size_t i = 0; i < n_reactors; ++i) {
      reactors_.push_back(std::make_unique<Reactor>());
      if (::pipe(reactors_.back()->wake_pipe) < 0) throw_errno("pipe");
      set_nonblocking(reactors_.back()->wake_pipe[0]);
    }
  } catch (...) {
    close_sockets();
    throw;
  }

  stopping_.store(false);
  running_.store(true);
  next_reactor_ = 0;
  quiesce_requested_ = false;
  quiesce_parked_ = 0;
  for (auto& reactor : reactors_) {
    Reactor* r = reactor.get();
    r->thread = std::thread([this, r] { reactor_loop(*r); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
}

bool Transport::stop() {
  if (!running_.exchange(false)) return false;
  stopping_.store(true);
  // Wake the accept thread and every reactor (a parked quiesce barrier
  // also re-checks stopping_ on notify).
  const char byte = 'x';
  [[maybe_unused]] auto n = ::write(wake_pipe_[1], &byte, 1);
  for (auto& reactor : reactors_)
    n = ::write(reactor->wake_pipe[1], &byte, 1);
  quiesce_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& reactor : reactors_)
    if (reactor->thread.joinable()) reactor->thread.join();

  for (auto& reactor : reactors_) {
    // Connections the accept thread dealt but the reactor never adopted.
    for (const int fd : reactor->inbox) ::close(fd);
    reactor->inbox.clear();
    // Drain: a reply the reactor already queued belongs to a fully
    // processed request — give each such connection one bounded blocking
    // flush before closing, so clients aren't cut off mid-read for work
    // the server did.
    for (auto& conn : reactor->conns) {
      if (conn->out_sent >= conn->out.size()) continue;
      const int flags = ::fcntl(conn->fd, F_GETFL, 0);
      if (flags >= 0) ::fcntl(conn->fd, F_SETFL, flags & ~O_NONBLOCK);
      timeval timeout{0, 200000};  // 200 ms cap per connection
      ::setsockopt(conn->fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                   sizeof(timeout));
      while (conn->out_sent < conn->out.size()) {
        const ssize_t sent =
            ::send(conn->fd, conn->out.data() + conn->out_sent,
                   conn->out.size() - conn->out_sent, MSG_NOSIGNAL);
        if (sent <= 0) break;
        conn->out_sent += static_cast<std::size_t>(sent);
      }
    }
    for (auto& conn : reactor->conns) ::close(conn->fd);
  }
  close_sockets();
  return true;
}

void Transport::close_sockets() {
  const auto close_fd = [](int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  };
  close_fd(listen_fd_);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
  for (auto& reactor : reactors_) {
    close_fd(reactor->wake_pipe[0]);
    close_fd(reactor->wake_pipe[1]);
  }
  reactors_.clear();
}

void Transport::accept_loop() {
  obs::set_thread_node(config_.node_name);
  pollfd fds[2];
  while (!stopping_.load()) {
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_pipe_[0], POLLIN, 0};
    if (::poll(fds, 2, 1000) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) continue;  // wake for shutdown
    if (fds[0].revents & POLLIN) accept_clients();
  }
}

void Transport::adopt_inbox(Reactor& reactor) {
  std::vector<int> fds;
  {
    const std::lock_guard<std::mutex> lock(reactor.inbox_mu);
    fds.swap(reactor.inbox);
  }
  for (const int fd : fds) {
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    reactor.conns.push_back(std::move(conn));
  }
}

void Transport::park_for_quiesce() {
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  if (quiesce_requested_) park(lock);
}

void Transport::park(std::unique_lock<std::mutex>& lock) {
  ++quiesce_parked_;
  quiesce_cv_.notify_all();
  quiesce_cv_.wait(lock, [this] {
    return !quiesce_requested_ || stopping_.load();
  });
  --quiesce_parked_;
  quiesce_cv_.notify_all();
}

bool Transport::run_quiesced(const std::function<void()>& fn) {
  // Must run on a reactor thread: the barrier below waits for every
  // *other* reactor to park, counting this thread as already parked.
  const auto t0 = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(quiesce_mu_);
  while (quiesce_requested_) {
    // Another reactor is already quiescing: park like any reactor so its
    // barrier completes, then take our turn.
    park(lock);
    if (stopping_.load()) return false;
  }
  quiesce_requested_ = true;
  // Wake every reactor out of poll(2) so each reaches its loop-top park.
  const char byte = 'q';
  for (auto& reactor : reactors_)
    [[maybe_unused]] const auto n = ::write(reactor->wake_pipe[1], &byte, 1);
  quiesce_cv_.wait(lock, [this] {
    return quiesce_parked_ >= reactors_.size() - 1 || stopping_.load();
  });
  NYQMON_OBS_COUNT("nyqmon_reactor_quiesce_total", 1);
  NYQMON_OBS_RECORD(
      "nyqmon_reactor_quiesce_wait_ns",
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
  try {
    // Every other reactor is parked between dispatches: nothing another
    // connection sends can be dispatched while `fn` runs.
    fn();
  } catch (...) {
    quiesce_requested_ = false;
    quiesce_cv_.notify_all();
    throw;
  }
  quiesce_requested_ = false;
  quiesce_cv_.notify_all();
  return true;
}

void Transport::reactor_loop(Reactor& reactor) {
  // Every span and log record produced on this thread (dispatch, engine
  // fan-out entry, checkpoint) carries the node's fleet identity, which is
  // what lets a stitched fleet timeline attribute spans to nodes.
  obs::set_thread_node(config_.node_name);
  std::vector<pollfd> fds;
  auto& conns_ = reactor.conns;
  while (!stopping_.load()) {
    // Quiesce barrier: between dispatch rounds only, so a CHECKPOINT on
    // another reactor never interleaves with a half-applied frame here.
    park_for_quiesce();
    adopt_inbox(reactor);
    fds.clear();
    fds.push_back({reactor.wake_pipe[0], POLLIN, 0});
    std::size_t reply_backlog = 0;
    std::size_t reply_frames = 0;
    bool any_stalled = false;
    for (const auto& conn : conns_) {
      const std::size_t backlog = conn->out.size() - conn->out_sent;
      reply_backlog += backlog;
      reply_frames += conn->out_frames;
      any_stalled |= conn->stalled;
      short events = 0;
      // Backpressure: stop reading once a connection is closing or its
      // reply queue is at its bound — a client that pipelines requests
      // without draining replies must not grow server memory without bound.
      if (!conn->close_after_flush && !reply_queue_full(*conn))
        events |= POLLIN;
      if (backlog > 0) events |= POLLOUT;
      fds.push_back({conn->fd, events, 0});
    }
    // Undelivered reply bytes/frames across all connections: a sustained
    // non-zero value means clients aren't draining as fast as the reactors
    // serve. Each reactor publishes its share, then one thread sums.
    reactor.reply_backlog.store(reply_backlog, std::memory_order_relaxed);
    reactor.reply_frames.store(reply_frames, std::memory_order_relaxed);
#if !defined(NYQMON_OBS_NOOP)
    {
      std::size_t total_backlog = 0;
      std::size_t total_frames = 0;
      for (const auto& r : reactors_) {
        total_backlog += r->reply_backlog.load(std::memory_order_relaxed);
        total_frames += r->reply_frames.load(std::memory_order_relaxed);
      }
      NYQMON_OBS_GAUGE_SET("nyqmon_server_reply_queue_bytes", total_backlog);
      NYQMON_OBS_GAUGE_SET("nyqmon_server_reply_queue_frames_depth",
                           total_frames);
    }
#endif

    // A stalled connection makes no socket events until the client drains,
    // so its drop deadline must be enforced on a timeout tick.
    int poll_timeout_ms = 1000;
    if (any_stalled && config_.slow_client_timeout_ms > 0)
      poll_timeout_ms =
          std::min(poll_timeout_ms,
                   static_cast<int>(config_.slow_client_timeout_ms));
    if (::poll(fds.data(), fds.size(), poll_timeout_ms) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents & POLLIN) {
      // Drain the wake pipe (quiesce requests, new-connection deals,
      // shutdown) and restart the round: the loop top parks or adopts.
      NYQMON_OBS_COUNT("nyqmon_reactor_wakeups_total", 1);
      std::uint8_t drain[64];
      while (::read(reactor.wake_pipe[0], drain, sizeof(drain)) > 0) {
      }
      continue;
    }

    // Scan only the connections that were actually polled this round —
    // adoption above appends to conns, and fresh connections have no
    // pollfd entry (they are served from the next round on).
    const std::size_t polled = fds.size() - 1;

    // Serve clients; reap the dead ones after the scan.
    const auto now = std::chrono::steady_clock::now();
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < polled; ++i) {
      Connection& conn = *conns_[i];
      const short revents = fds[i + 1].revents;
      bool alive = true;
      if (revents & (POLLERR | POLLHUP | POLLNVAL)) alive = false;
      if (alive && (revents & POLLIN)) alive = read_client(conn);
      if (alive && conn.out_sent < conn.out.size()) alive = write_client(conn);
      // Requests buffered past an earlier backpressure break generate no
      // further socket events — re-dispatch them as the reply queue
      // drains. Each pass consumes at least one whole frame; a pass that
      // consumes nothing (partial frame, or the queue refilled) is done.
      while (alive && !conn.in.empty() && !reply_queue_full(conn)) {
        const std::size_t before = conn.in.size();
        alive = drain_frames(conn);
        if (conn.in.size() == before) break;
      }
      if (alive && conn.close_after_flush && conn.out_sent == conn.out.size())
        alive = false;
      // Slow-client tracking: a connection whose bounded reply queue is
      // still full after this round's send attempt is stalled; one that
      // stays stalled past the timeout is dropped (its replies are the
      // only thing pinning server memory).
      if (alive && reply_queue_full(conn)) {
        if (!conn.stalled) {
          conn.stalled = true;
          conn.stall_since = now;
          backpressure_stalls_.fetch_add(1);
          NYQMON_OBS_COUNT("nyqmon_server_backpressure_stalls_total", 1);
        } else if (config_.slow_client_timeout_ms > 0 &&
                   now - conn.stall_since >= std::chrono::milliseconds(
                                                 config_.slow_client_timeout_ms)) {
          slow_clients_dropped_.fetch_add(1);
          NYQMON_OBS_COUNT("nyqmon_server_slow_clients_dropped_total", 1);
          NYQMON_LOG_WARN(
              "server.slow_client_dropped",
              "fd=" + std::to_string(conn.fd) + " stalled_ms=" +
                  std::to_string(std::chrono::duration_cast<
                                     std::chrono::milliseconds>(
                                     now - conn.stall_since)
                                     .count()) +
                  " queued_bytes=" +
                  std::to_string(conn.out.size() - conn.out_sent));
          alive = false;
        }
      } else {
        conn.stalled = false;
      }
      if (!alive) dead.push_back(i);
    }
    for (std::size_t k = dead.size(); k-- > 0;) {
      ::close(conns_[dead[k]]->fd);
      conns_.erase(conns_.begin() + static_cast<std::ptrdiff_t>(dead[k]));
      connections_closed_.fetch_add(1);
    }
  }
}

void Transport::accept_clients() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      // EMFILE/ENFILE etc. leave the pending connection queued and the
      // level-triggered POLLIN hot — back off briefly instead of spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      return;
    }
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Deal to the next reactor round-robin; the reactor adopts the fd at
    // its next loop top and owns it exclusively from then on.
    Reactor& reactor = *reactors_[next_reactor_];
    next_reactor_ = (next_reactor_ + 1) % reactors_.size();
    {
      const std::lock_guard<std::mutex> lock(reactor.inbox_mu);
      reactor.inbox.push_back(fd);
    }
    const char byte = 'c';
    [[maybe_unused]] const auto n = ::write(reactor.wake_pipe[1], &byte, 1);
    connections_accepted_.fetch_add(1);
    NYQMON_OBS_COUNT("nyqmon_reactor_clients_assigned_total", 1);
  }
}

void Transport::count_protocol_error() {
  protocol_errors_.fetch_add(1);
  NYQMON_OBS_COUNT("nyqmon_server_protocol_errors_total", 1);
}

bool Transport::read_client(Connection& conn) {
  std::uint8_t buf[16384];
  while (true) {
    // Backpressure inside the read burst too: once this client's reply
    // queue hits its bound, stop pulling bytes (the kernel buffer and the
    // peer's send window hold the rest until the client drains replies).
    if (reply_queue_full(conn)) break;
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.in.insert(conn.in.end(), buf, buf + n);
      if (conn.in.size() > config_.max_frame_bytes + 5) {
        // Drain complete frames first — a burst of legally pipelined
        // frames may exceed one frame's cap; only an *undrainable* buffer
        // this large means a single over-cap frame.
        if (!drain_frames(conn)) return false;
        if (conn.in.size() > config_.max_frame_bytes + 5) {
          count_protocol_error();
          NYQMON_LOG_ERROR("server.protocol_error",
                           "reason=frame_overflow buffered=" +
                               std::to_string(conn.in.size()));
          return false;
        }
      }
      continue;
    }
    if (n == 0) return false;  // orderly disconnect (possibly mid-frame)
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  return drain_frames(conn);
}

bool Transport::write_client(Connection& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                             conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // client went away mid-reply
  }
  if (conn.out_sent == conn.out.size()) {
    conn.out.clear();
    conn.out_sent = 0;
    conn.out_frames = 0;
  }
  return true;
}

bool Transport::drain_frames(Connection& conn) {
  // Past a corrupt length prefix the byte stream has no trustworthy frame
  // boundaries — never parse again on this connection, just flush the ERR.
  if (conn.close_after_flush) return write_client(conn);
  std::size_t consumed = 0;
  while (conn.in.size() - consumed >= 4) {
    // Stop dispatching once the reply queue hits its bound; the remaining
    // input stays buffered and POLLIN stays suppressed until the client
    // reads its replies. Bounds conn.out at the byte bound + one reply.
    if (reply_queue_full(conn)) break;
    sto::ByteReader prefix(
        std::span<const std::uint8_t>(conn.in).subspan(consumed, 4));
    const std::uint32_t body_len = prefix.get_u32();
    if (body_len == 0 || body_len > config_.max_frame_bytes) {
      // Unsynchronizable: answer and close once the error is flushed.
      count_protocol_error();
      NYQMON_LOG_ERROR("server.protocol_error",
                       "reason=bad_frame_length body_len=" +
                           std::to_string(body_len));
      const auto err = error_frame("bad frame length");
      conn.out.insert(conn.out.end(), err.begin(), err.end());
      conn.close_after_flush = true;
      conn.in.clear();
      consumed = 0;
      break;
    }
    if (conn.in.size() - consumed < 4u + body_len) break;  // partial frame
    dispatch(conn, std::span<const std::uint8_t>(conn.in)
                       .subspan(consumed + 4, body_len));
    consumed += 4u + body_len;
  }
  if (consumed > 0)
    conn.in.erase(conn.in.begin(),
                  conn.in.begin() + static_cast<std::ptrdiff_t>(consumed));
  // Opportunistic flush; POLLOUT picks up whatever the socket won't take.
  return write_client(conn);
}

void Transport::dispatch(Connection& conn,
                         std::span<const std::uint8_t> body) {
  frames_.fetch_add(1);
  NYQMON_OBS_COUNT("nyqmon_server_frames_total", 1);
  // Distributed tracing: peel the optional TraceContext trailer off the
  // body *before* any decoding (payload decoders enforce exact-remaining),
  // then adopt it for the handler's duration so the verb span — and every
  // span nested under it — joins the remote caller's trace. A request with
  // no context originates a fresh trace when capture is armed, so even a
  // direct `nyqmon_ctl` query gets one coherent trace_id.
  TraceContext trace_ctx = strip_trace_context(body);
  if (!trace_ctx.active() && obs::TraceRecorder::instance().enabled())
    trace_ctx.trace_id = obs::next_span_id();
  obs::ScopedThreadTraceContext adopt(trace_ctx.trace_id,
                                      trace_ctx.parent_span_id);
  sto::ByteReader reader(body);
  const auto verb = static_cast<Verb>(reader.get_u8());
  const std::size_t verb_byte = static_cast<std::size_t>(verb);
  const std::size_t slot = verb_byte < kVerbSlots ? verb_byte : 0;
  NYQMON_TRACE_SPAN(kVerbNames[slot], "server");
  [[maybe_unused]] const auto t_dispatch = std::chrono::steady_clock::now();

  std::vector<std::uint8_t> reply;
  try {
    if (slot != 0) {
      verb_frames_[slot].fetch_add(1);
      reply = handler_(verb, reader);
    } else {
      count_protocol_error();
      NYQMON_LOG_ERROR("server.protocol_error",
                       "reason=unknown_verb verb=" + std::to_string(verb_byte));
      reply = error_frame("unknown verb");
    }
  } catch (const std::exception& e) {
    count_protocol_error();
    NYQMON_LOG_ERROR("server.dispatch_error",
                     std::string("verb=") + kVerbNames[slot] +
                         " what=" + e.what());
    reply = error_frame(e.what());
  }
#if !defined(NYQMON_OBS_NOOP)
  if (obs::Histogram* h = verb_latency_histogram(slot))
    h->record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t_dispatch)
            .count()));
#endif
  conn.out.insert(conn.out.end(), reply.begin(), reply.end());
  ++conn.out_frames;
}

ServerStats Transport::stats() const {
  const auto verb_frames = [this](Verb verb) {
    return verb_frames_[static_cast<std::size_t>(verb)].load();
  };
  return {.connections_accepted = connections_accepted_.load(),
          .connections_closed = connections_closed_.load(),
          .frames = frames_.load(),
          .ingest_frames = verb_frames(Verb::kIngest),
          .query_frames = verb_frames(Verb::kQuery),
          .stats_frames = verb_frames(Verb::kStats),
          .checkpoint_frames = verb_frames(Verb::kCheckpoint),
          .metrics_frames = verb_frames(Verb::kMetrics),
          .trace_frames = verb_frames(Verb::kTrace),
          .handoff_frames = verb_frames(Verb::kHandoff),
          .logs_frames = verb_frames(Verb::kLogs),
          .protocol_errors = protocol_errors_.load(),
          .backpressure_stalls = backpressure_stalls_.load(),
          .slow_clients_dropped = slow_clients_dropped_.load()};
}

}  // namespace nyqmon::srv
