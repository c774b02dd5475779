// Reactor: the event-driven Switchboard transport (ISSUE 7 tentpole).
//
// A fixed pool of EventLoop workers multiplexes many thousands of secure
// sessions, replacing the thread-per-connection path (Connection::call) for
// high-fanout deployments:
//
//   Reactor ── owns ──> EventLoop[0..W)          one OS thread each
//                          │  fd poller (epoll/poll) + timer wheel + tasks
//                          └─ EventChannel*      many per worker
//                                │  per-session state machine + buffers
//                                └─ Conduit      non-blocking byte pipe
//
// Sessions are multiplexed over a fully-handshaked trunk `Connection`
// (Connection::derive_session_keys): the DH + signature + authorization
// handshake is paid once per trunk, while every session keeps its own
// per-direction ChaCha20/HMAC keys, sequence space, and anti-replay window.
// Frame format inside a session is identical to the trunk's
// (seq8 | ciphertext | hmac32), so the PR 3 zero-copy seal/unseal discipline
// carries over unchanged — scratch buffers are per loop thread and reused
// across every channel on that worker.
//
// Connection state machine (one EventChannel per end):
//
//   kHandshaking ──HELLO/WELCOME──> kEstablished ──begin_drain()──> kDraining
//        │                              │                              │
//        └──────── close_now() ────────┴──── flushed + BYE sent ──────┘
//                                                                      │
//                                                                   kClosed
//
// Batching rules: one readiness dispatch reads the conduit chunk by chunk,
// unseals and dispatches every complete frame (bounded by max_batch_frames),
// seals all responses into one staged write, and flushes it with a single
// write — so a burst of B requests costs O(1) syscalls/wakes, not O(B).
//
// Buffer ownership: the read chunk is per-loop-thread scratch shared by
// every channel on the worker. A channel's read buffer holds only what
// cannot be handled now — a partial frame, or frames left over when a batch
// yields; its write buffer holds a batch's messages until flush() hands
// them to the conduit, and whatever the conduit refuses. Both are released
// once drained, so an idle session owns no I/O buffer capacity.
//
// The synchronous Connection path remains (the paper's experiments and the
// cold path run on it); the same request bytes produce byte-identical
// sealed frames on both paths (asserted by tests/reactor_test.cpp).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "switchboard/channel.hpp"
#include "switchboard/event_loop.hpp"
#include "switchboard/replay_window.hpp"

namespace psf::switchboard {

// ------------------------------------------------------------------ conduits

/// A non-blocking duplex byte pipe endpoint — the reactor's socket
/// abstraction. Two implementations:
///  - socket conduits wrap a real non-blocking fd (socketpair) and surface
///    readiness through the worker's epoll/poll set;
///  - memory conduits are in-process rings whose readiness is injected into
///    the owning loop via post(), letting a 100k-session ramp run inside one
///    process without 200k file descriptors (the fd-based path is exercised
///    by the unit tests at smaller scale).
class Conduit {
 public:
  virtual ~Conduit() = default;

  /// Read up to `len` bytes. Returns bytes read; 0 means would-block (check
  /// `peer_closed()` to distinguish EOF).
  virtual std::size_t read_some(std::uint8_t* buf, std::size_t len) = 0;

  /// Write up to `len` bytes; returns bytes accepted (may be short when the
  /// transport is backed up — the channel re-arms for writability).
  virtual std::size_t write_some(const std::uint8_t* data,
                                 std::size_t len) = 0;

  /// Half-close: no more writes from this end; the peer sees EOF after
  /// draining buffered bytes.
  virtual void close() = 0;

  /// True once the peer closed and all buffered bytes were consumed.
  virtual bool peer_closed() const = 0;

  /// The pollable fd, or -1 for memory conduits.
  virtual int fd() const { return -1; }

  /// Memory conduits call `fn` (from the writer's thread) whenever bytes
  /// or EOF become available; fd conduits ignore it (epoll covers them).
  virtual void set_data_callback(std::function<void()> fn) { (void)fn; }
};

/// A connected pair of conduits (two ends of one pipe).
struct ConduitPair {
  std::unique_ptr<Conduit> a;
  std::unique_ptr<Conduit> b;
};

/// socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK). Returns empty
/// unique_ptrs when the fd budget is exhausted.
ConduitPair make_socket_conduit_pair();

/// In-process pipe; never blocks, grows on demand and releases its buffer
/// once the reader drains it. Readiness is always post()ed to the reader's
/// loop, never delivered inline from the writer.
ConduitPair make_memory_conduit_pair();

// ----------------------------------------------------------- session crypto

/// Per-session framing state: the same seq8|ciphertext|hmac32 wire format
/// and scratch-buffer discipline as Connection::seal_into/unseal_into, keyed
/// by derived session material. Owned by exactly one EventChannel and only
/// touched from its loop thread, so unlike the trunk it needs no locks.
class SessionCrypto {
 public:
  SessionCrypto() = default;
  SessionCrypto(const Connection::SessionKeyMaterial& keys);

  /// Seal `plain` as the next frame in direction `dir` (0 = A->B, 1 = B->A)
  /// into `frame` (capacity reused across calls).
  void seal_into(int dir, const std::uint8_t* plain, std::size_t len,
                 util::Bytes& frame);

  /// Verify + decrypt a frame received in direction `dir`; returns the
  /// plaintext length in `plain` or a frame/replay error.
  util::Result<std::size_t> unseal_into(int dir, const std::uint8_t* frame,
                                        std::size_t len, util::Bytes& plain);

  std::uint64_t send_seq(int dir) const { return send_seq_[dir]; }

 private:
  crypto::ChaChaKey cipher_[2]{};
  crypto::HmacSha256 mac_seed_[2];
  std::uint64_t send_seq_[2] = {0, 0};
  ReplayWindow recv_window_[2];
};

// ------------------------------------------------------------- EventChannel

/// Per-session connection state machine living on one EventLoop worker.
/// All mutation happens on the loop thread; the public API posts.
class EventChannel : public std::enable_shared_from_this<EventChannel> {
 public:
  enum class State { kHandshaking, kEstablished, kDraining, kClosed };
  enum class Role { kServer, kClient };

  /// Bytes per conduit read: the size of the per-loop read scratch.
  static constexpr std::size_t kReadChunk = 16u << 10;

  /// Server-side request hook: decode `request_plain`, produce
  /// `response_plain`. Runs on the loop thread; must not block.
  using RequestHandler =
      std::function<void(const util::Bytes& request_plain,
                         util::Bytes& response_plain)>;
  /// Client-side completion: the response plaintext, or an error (transport
  /// teardown, frame corruption). Runs on the loop thread.
  using ResponseCallback = std::function<void(util::Result<util::Bytes>)>;

  struct Stats {
    std::uint64_t frames_in = 0;
    std::uint64_t frames_out = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t batches = 0;      // readiness dispatches that moved data
    std::uint64_t max_batch = 0;    // most frames handled in one dispatch
    std::uint64_t buffer_bytes = 0; // read + write buffer capacity held now
  };

  /// Build the server end. The channel registers with `loop` asynchronously;
  /// it answers the peer's HELLO with WELCOME and then dispatches every DATA
  /// frame through `handler`.
  static std::shared_ptr<EventChannel> serve(
      EventLoop& loop, std::unique_ptr<Conduit> conduit,
      std::shared_ptr<Connection> trunk, RequestHandler handler,
      std::size_t max_batch_frames = 128);

  /// Build the client end and start the session handshake. `session_id`
  /// must be unique per trunk (0 = trunk passthrough: frames are sealed with
  /// the trunk connection's own keys and sequence space — the differential-
  /// testing hook). `mailbox` rides in the HELLO so the server can assert
  /// shard placement.
  static std::shared_ptr<EventChannel> open(
      EventLoop& loop, std::unique_ptr<Conduit> conduit,
      std::shared_ptr<Connection> trunk, std::uint64_t session_id,
      std::string mailbox, std::size_t max_batch_frames = 128);

  ~EventChannel();

  /// Queue one request (client role). Accepted in kHandshaking (sent once
  /// established) and kEstablished; fails immediately in kDraining/kClosed.
  /// Thread-safe.
  void submit(util::Bytes request_plain, ResponseCallback callback);

  /// Graceful teardown: stop accepting submits, flush buffered frames, send
  /// BYE, then close. Thread-safe.
  void begin_drain();

  /// Hard close (also what BYE and conduit EOF funnel into). Thread-safe.
  void close();

  State state() const { return state_.load(); }
  Role role() const { return role_; }
  std::uint64_t session_id() const { return session_id_; }
  const std::string& mailbox() const { return mailbox_; }
  Stats stats() const;

  /// Fired on the loop thread when the handshake completes (client only).
  void set_established_callback(std::function<void()> fn);

 private:
  EventChannel(EventLoop& loop, std::unique_ptr<Conduit> conduit,
               std::shared_ptr<Connection> trunk, Role role,
               std::uint64_t session_id, std::string mailbox,
               std::size_t max_batch_frames);

  // Loop-thread internals.
  void register_with_loop();
  void post_readable();
  void on_readable();
  std::size_t dispatch_frames(const std::uint8_t* data, std::size_t len,
                              std::size_t& handled);
  bool handle_message(std::uint8_t type, const std::uint8_t* body,
                      std::size_t len);
  void send_hello();
  void send_control(std::uint8_t type, const util::Bytes& plain);
  void send_data_frame(const util::Bytes& plain);
  void append_message(std::uint8_t type, const std::uint8_t* frame,
                      std::size_t len);
  void flush();
  void note_buffers();
  ResponseCallback pop_pending();
  void maybe_finish_drain();
  void fail_pending(const std::string& reason);
  void close_on_loop(const std::string& reason);
  int dir_send() const { return role_ == Role::kClient ? 0 : 1; }
  int dir_recv() const { return role_ == Role::kClient ? 1 : 0; }

  EventLoop& loop_;
  std::unique_ptr<Conduit> conduit_;
  std::shared_ptr<Connection> trunk_;
  const Role role_;
  std::uint64_t session_id_;  // servers learn theirs from the HELLO header
  std::string mailbox_;
  const std::size_t max_batch_frames_;

  SessionCrypto session_;       // data frames (unused when session_id_ == 0)
  SessionCrypto control_;       // HELLO/WELCOME/PING framing
  std::atomic<State> state_{State::kHandshaking};

  // Empty (and capacity-free) while idle: see "Buffer ownership" above.
  util::Bytes read_buf_;        // a partial frame, or frames a yield left
  util::Bytes write_buf_;       // unflushed messages, then any backlog
  std::size_t write_pos_ = 0;
  bool want_write_armed_ = false;
  std::atomic<bool> notify_pending_{false};  // memory-conduit readiness edge

  RequestHandler handler_;                       // server role
  // Client role, FIFO matching: live entries are [pending_head_, size()).
  // Allocates on the first submit only; server ends never do.
  std::vector<ResponseCallback> pending_;
  std::size_t pending_head_ = 0;
  std::vector<std::pair<util::Bytes, ResponseCallback>> queued_submits_;
  std::function<void()> established_callback_;

  // Stats: written on the loop thread, read from anywhere.
  std::atomic<std::uint64_t> frames_in_{0}, frames_out_{0};
  std::atomic<std::uint64_t> bytes_in_{0}, bytes_out_{0};
  std::atomic<std::uint64_t> batches_{0}, max_batch_{0};
  std::atomic<std::uint64_t> buffer_bytes_{0};
};

// ------------------------------------------------------------------ reactor

/// Tuning for a Reactor pool.
struct ReactorOptions {
  int workers = 0;  // 0 = min(4, max(2, hardware_concurrency))
  PollerKind poller = kDefaultPoller;
  std::size_t max_batch_frames = 128;  // frames per readiness dispatch
  std::uint64_t timer_tick_ns = 1'000'000;  // 1 ms wheel resolution
};

/// Cancellation handle for wheel-scheduled heartbeats; beats() observes
/// progress. Copyable; cancel() is idempotent and thread-safe.
class HeartbeatHandle {
 public:
  HeartbeatHandle() = default;
  void cancel() {
    if (active_) active_->store(false);
  }
  std::uint64_t beats() const { return beats_ ? beats_->load() : 0; }
  bool active() const { return active_ && active_->load(); }

 private:
  friend class Reactor;
  std::shared_ptr<std::atomic<bool>> active_;
  std::shared_ptr<std::atomic<std::uint64_t>> beats_;
  // Owns the self-rescheduling tick closure; the wheel holds only a weak
  // reference, so dropping every handle copy also stops the schedule.
  std::shared_ptr<void> keepalive_;
};

/// The worker pool. One Reactor serves a host (or a whole benchmark
/// process); sessions are placed on workers by mailbox hash so the mail
/// backend stays share-nothing (see mail/sharded.hpp).
class Reactor {
 public:
  explicit Reactor(ReactorOptions options = {});
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  void start();
  void stop();
  bool running() const { return running_.load(); }

  int workers() const { return static_cast<int>(loops_.size()); }
  EventLoop& loop(int worker) { return *loops_[static_cast<std::size_t>(worker)]; }

  /// FNV-1a shard placement: which worker owns `key` (a mailbox name).
  std::size_t shard_of(std::string_view key) const;

  /// Attach a server-end channel to `worker`.
  std::shared_ptr<EventChannel> serve(int worker,
                                      std::unique_ptr<Conduit> conduit,
                                      std::shared_ptr<Connection> trunk,
                                      EventChannel::RequestHandler handler);

  /// Open a client-end session on `worker`.
  std::shared_ptr<EventChannel> open(int worker,
                                     std::unique_ptr<Conduit> conduit,
                                     std::shared_ptr<Connection> trunk,
                                     std::uint64_t session_id,
                                     std::string mailbox);

  /// Drive Connection::heartbeat() from the timer wheel — the one way to
  /// heartbeat a connection: O(1) threads for any number of monitored
  /// connections. The probe runs on a worker loop; cancel via the
  /// handle (or Reactor::stop). Connections are spread across workers by
  /// host-name hash.
  HeartbeatHandle schedule_heartbeats(std::shared_ptr<Connection> connection,
                                      std::chrono::milliseconds period);

  std::size_t max_batch_frames() const { return max_batch_frames_; }

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::size_t max_batch_frames_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> next_heartbeat_worker_{0};
};

/// Linux: current OS thread count of this process (reads /proc/self/status);
/// -1 where unavailable. The bench's "threads stay O(workers)" gate.
int count_os_threads();

}  // namespace psf::switchboard
