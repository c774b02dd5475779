#include "switchboard/reactor.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "crypto/chacha20.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/bytes.hpp"

#ifdef __linux__
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace psf::switchboard {

namespace {

// Wire message types (u8 after the length prefix).
constexpr std::uint8_t kHello = 0;
constexpr std::uint8_t kWelcome = 1;
constexpr std::uint8_t kData = 2;
constexpr std::uint8_t kBye = 3;
constexpr std::uint8_t kPing = 4;
constexpr std::uint8_t kPong = 5;

// A frame larger than this is corruption, not load: the mail workloads top
// out in the tens of kilobytes.
constexpr std::size_t kMaxMessage = 16u << 20;

// Same layout as the trunk's (channel.cpp): direction byte + little-endian
// seq in the nonce tail, so derived-session frames stay format-identical.
crypto::ChaChaNonce nonce_for(int direction, std::uint64_t seq) {
  crypto::ChaChaNonce nonce{};
  nonce[0] = static_cast<std::uint8_t>(direction);
  for (int i = 0; i < 8; ++i) {
    nonce[4 + i] = static_cast<std::uint8_t>(seq >> (8 * i));
  }
  return nonce;
}

constexpr std::size_t kFrameOverhead = 8 /*seq*/ + 32 /*hmac*/;

struct ReactorMetrics {
  static ReactorMetrics& get() {
    static ReactorMetrics metrics;
    return metrics;
  }
  obs::Counter& sessions_opened =
      obs::counter("psf.switchboard.session.opened");
  obs::Counter& sessions_closed =
      obs::counter("psf.switchboard.session.closed");
  obs::Counter& session_frames =
      obs::counter("psf.switchboard.session.frames");
  obs::Counter& session_bytes = obs::counter("psf.switchboard.session.bytes");
  obs::Counter& scratch_reuses =
      obs::counter("psf.switchboard.scratch.reuses");
  obs::Counter& scratch_grows = obs::counter("psf.switchboard.scratch.grows");
  obs::Counter& replay_rejections =
      obs::counter("psf.switchboard.replay.rejections");
  obs::Histogram& batch_frames =
      obs::histogram("psf.switchboard.loop.batch_frames");
};

int env_int(const char* name, int fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || parsed <= 0 || parsed > 1'000'000) return fallback;
  return static_cast<int>(parsed);
}

}  // namespace

// ------------------------------------------------------------------ conduits

#ifdef __linux__
namespace {

/// One end of a socketpair; non-blocking from birth.
class SocketConduit final : public Conduit {
 public:
  explicit SocketConduit(int fd) : fd_(fd) {}
  ~SocketConduit() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::size_t read_some(std::uint8_t* buf, std::size_t len) override {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n == 0) {
      peer_closed_ = true;  // orderly shutdown
    } else if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      peer_closed_ = true;  // hard error: surface as EOF
    }
    return 0;
  }

  std::size_t write_some(const std::uint8_t* data, std::size_t len) override {
    const ssize_t n = ::send(fd_, data, len, MSG_NOSIGNAL);
    if (n > 0) return static_cast<std::size_t>(n);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      peer_closed_ = true;  // EPIPE et al: the channel tears down on flush
    }
    return 0;
  }

  void close() override { ::shutdown(fd_, SHUT_WR); }
  bool peer_closed() const override { return peer_closed_; }
  int fd() const override { return fd_; }

 private:
  int fd_;
  bool peer_closed_ = false;
};

}  // namespace

ConduitPair make_socket_conduit_pair() {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0,
                   sv) != 0) {
    return {};
  }
  return {std::make_unique<SocketConduit>(sv[0]),
          std::make_unique<SocketConduit>(sv[1])};
}
#else
ConduitPair make_socket_conduit_pair() { return {}; }
#endif

namespace {

/// One direction of an in-process pipe. The reader's data callback is fired
/// by the writer *after* releasing the lock, so readers re-entering
/// read_some from the callback cannot deadlock.
struct MemoryPipe {
  std::mutex mutex;
  util::Bytes buf;
  std::size_t head = 0;
  bool closed = false;
  std::function<void()> on_data;
};

class MemoryConduit final : public Conduit {
 public:
  MemoryConduit(std::shared_ptr<MemoryPipe> in, std::shared_ptr<MemoryPipe> out)
      : in_(std::move(in)), out_(std::move(out)) {}

  ~MemoryConduit() override { MemoryConduit::close(); }

  std::size_t read_some(std::uint8_t* buf, std::size_t len) override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    const std::size_t avail = in_->buf.size() - in_->head;
    const std::size_t n = std::min(len, avail);
    if (n > 0) {
      std::memcpy(buf, in_->buf.data() + in_->head, n);
      in_->head += n;
      if (in_->head == in_->buf.size()) {
        in_->buf.clear();
        in_->head = 0;
      } else if (in_->head > (64u << 10)) {
        in_->buf.erase(in_->buf.begin(),
                       in_->buf.begin() + static_cast<std::ptrdiff_t>(in_->head));
        in_->head = 0;
      }
    }
    return n;
  }

  std::size_t write_some(const std::uint8_t* data, std::size_t len) override {
    std::function<void()> notify;
    {
      std::lock_guard<std::mutex> lock(out_->mutex);
      if (out_->closed) return 0;
      out_->buf.insert(out_->buf.end(), data, data + len);
      notify = out_->on_data;
    }
    if (notify) notify();
    return len;
  }

  void close() override {
    std::function<void()> notify;
    {
      std::lock_guard<std::mutex> lock(out_->mutex);
      if (out_->closed) return;
      out_->closed = true;
      notify = out_->on_data;
    }
    if (notify) notify();  // wake the reader so it observes EOF
  }

  bool peer_closed() const override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    return in_->closed && in_->head == in_->buf.size();
  }

  void set_data_callback(std::function<void()> fn) override {
    std::lock_guard<std::mutex> lock(in_->mutex);
    in_->on_data = std::move(fn);
  }

 private:
  std::shared_ptr<MemoryPipe> in_;   // peer writes here, we read
  std::shared_ptr<MemoryPipe> out_;  // we write here, peer reads
};

}  // namespace

ConduitPair make_memory_conduit_pair() {
  auto a_to_b = std::make_shared<MemoryPipe>();
  auto b_to_a = std::make_shared<MemoryPipe>();
  return {std::make_unique<MemoryConduit>(b_to_a, a_to_b),
          std::make_unique<MemoryConduit>(a_to_b, b_to_a)};
}

// ----------------------------------------------------------- session crypto

SessionCrypto::SessionCrypto(const Connection::SessionKeyMaterial& keys) {
  for (int dir = 0; dir < 2; ++dir) {
    cipher_[dir] = keys.cipher[dir];
    mac_seed_[dir] = crypto::HmacSha256(keys.mac_key[dir]);
  }
}

void SessionCrypto::seal_into(int dir, const std::uint8_t* plain,
                              std::size_t len, util::Bytes& frame) {
  const std::uint64_t seq = ++send_seq_[dir];
  const std::size_t total = kFrameOverhead + len;
  ReactorMetrics& metrics = ReactorMetrics::get();
  if (frame.capacity() < total) {
    metrics.scratch_grows.inc();
  } else {
    metrics.scratch_reuses.inc();
  }
  frame.clear();
  frame.reserve(total);
  util::put_u64_be(frame, seq);
  frame.insert(frame.end(), plain, plain + len);
  crypto::chacha20_xor_inplace(cipher_[dir], nonce_for(dir, seq), 1,
                               frame.data() + 8, len);
  crypto::HmacSha256 mac = mac_seed_[dir];
  mac.update(frame.data(), frame.size());
  frame.resize(total);
  mac.final_into(frame.data() + 8 + len);
}

util::Result<std::size_t> SessionCrypto::unseal_into(int dir,
                                                     const std::uint8_t* frame,
                                                     std::size_t len,
                                                     util::Bytes& plain) {
  using Fail = util::Result<std::size_t>;
  if (len < kFrameOverhead) return Fail::failure("frame", "short frame");
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i) seq = (seq << 8) | frame[i];
  const std::size_t body_len = len - 32;
  crypto::HmacSha256 mac = mac_seed_[dir];
  mac.update(frame, body_len);
  const auto expected = mac.final();
  if (!util::equal_ct(frame + body_len, expected.data(), 32)) {
    return Fail::failure("mac", "bad frame MAC");
  }
  // Loop-thread-only state: unlike the trunk, no lock around the window.
  if (!recv_window_[dir].check_and_insert(seq)) {
    ReactorMetrics::get().replay_rejections.inc();
    return Fail::failure("replay", "replayed or stale frame (seq " +
                                       std::to_string(seq) + ")");
  }
  const std::size_t plain_len = len - kFrameOverhead;
  ReactorMetrics& metrics = ReactorMetrics::get();
  if (plain.capacity() < plain_len) {
    metrics.scratch_grows.inc();
  } else {
    metrics.scratch_reuses.inc();
  }
  plain.assign(frame + 8, frame + 8 + plain_len);
  crypto::chacha20_xor_inplace(cipher_[dir], nonce_for(dir, seq), 1,
                               plain.data(), plain_len);
  return util::Result<std::size_t>(plain_len);
}

// ------------------------------------------------------------- EventChannel

EventChannel::EventChannel(EventLoop& loop, std::unique_ptr<Conduit> conduit,
                           std::shared_ptr<Connection> trunk, Role role,
                           std::uint64_t session_id, std::string mailbox,
                           std::size_t max_batch_frames)
    : loop_(loop),
      conduit_(std::move(conduit)),
      trunk_(std::move(trunk)),
      role_(role),
      session_id_(session_id),
      mailbox_(std::move(mailbox)),
      max_batch_frames_(max_batch_frames == 0 ? 128 : max_batch_frames) {}

EventChannel::~EventChannel() = default;

std::shared_ptr<EventChannel> EventChannel::serve(
    EventLoop& loop, std::unique_ptr<Conduit> conduit,
    std::shared_ptr<Connection> trunk, RequestHandler handler,
    std::size_t max_batch_frames) {
  auto channel = std::shared_ptr<EventChannel>(
      new EventChannel(loop, std::move(conduit), std::move(trunk),
                       Role::kServer, 0, {}, max_batch_frames));
  channel->handler_ = std::move(handler);
  loop.run_on_loop([channel] { channel->register_with_loop(); });
  return channel;
}

std::shared_ptr<EventChannel> EventChannel::open(
    EventLoop& loop, std::unique_ptr<Conduit> conduit,
    std::shared_ptr<Connection> trunk, std::uint64_t session_id,
    std::string mailbox, std::size_t max_batch_frames) {
  auto channel = std::shared_ptr<EventChannel>(new EventChannel(
      loop, std::move(conduit), std::move(trunk), Role::kClient, session_id,
      std::move(mailbox), max_batch_frames));
  loop.run_on_loop([channel] { channel->register_with_loop(); });
  return channel;
}

void EventChannel::register_with_loop() {
  loop_.assert_in_loop();
  ReactorMetrics::get().sessions_opened.inc();
  control_ = SessionCrypto(trunk_->derive_session_keys(session_id_, "ctl"));
  if (session_id_ != 0) {
    session_ = SessionCrypto(trunk_->derive_session_keys(session_id_, "data"));
  }
  std::weak_ptr<EventChannel> weak = weak_from_this();
  const int fd = conduit_->fd();
  if (fd >= 0) {
    EventLoop* loop = &loop_;
    loop_.add_fd(fd, /*want_read=*/true, /*want_write=*/false,
                 [weak, fd, loop](bool readable, bool writable, bool error) {
                   auto self = weak.lock();
                   if (!self) {
                     loop->del_fd(fd);  // channel died while registered
                     return;
                   }
                   if (error) {
                     self->close_on_loop("poll error");
                     return;
                   }
                   if (writable) self->flush();
                   if (readable) self->on_readable();
                 });
  } else {
    // Memory conduit: the writer thread injects readiness. The atomic edge
    // coalesces bursts — at most one wake is in flight per channel, so 100k
    // chatty sessions do not flood the task queue.
    conduit_->set_data_callback([weak] {
      auto self = weak.lock();
      if (!self) return;
      if (self->notify_pending_.exchange(true)) return;
      self->loop_.post([weak] {
        auto inner = weak.lock();
        if (!inner) return;
        inner->notify_pending_.store(false);
        inner->on_readable();
      });
    });
  }
  if (role_ == Role::kClient) send_hello();
  // Bytes (or EOF) may have arrived before registration completed.
  on_readable();
}

void EventChannel::send_hello() {
  util::Bytes plain = util::to_bytes(mailbox_);
  send_control(kHello, plain);
  flush();
}

void EventChannel::send_control(std::uint8_t type, const util::Bytes& plain) {
  thread_local util::Bytes frame;
  control_.seal_into(dir_send(), plain.data(), plain.size(), frame);
  append_message(type, frame.data(), frame.size());
}

void EventChannel::send_data_frame(const util::Bytes& plain) {
  thread_local util::Bytes frame;
  if (session_id_ == 0) {
    // Trunk passthrough: byte-identical to the thread-per-connection path.
    const Connection::End sender =
        role_ == Role::kClient ? Connection::End::kA : Connection::End::kB;
    trunk_->seal_into(sender, plain.data(), plain.size(), frame);
  } else {
    session_.seal_into(dir_send(), plain.data(), plain.size(), frame);
  }
  append_message(kData, frame.data(), frame.size());
}

void EventChannel::append_message(std::uint8_t type, const std::uint8_t* frame,
                                  std::size_t len) {
  // u32_be length | u8 type | [u64_be session_id] | sealed frame
  const bool with_session = type == kHello || type == kWelcome;
  const std::size_t body = 1 + (with_session ? 8 : 0) + len;
  util::put_u32_be(write_buf_, static_cast<std::uint32_t>(body));
  write_buf_.push_back(type);
  if (with_session) util::put_u64_be(write_buf_, session_id_);
  write_buf_.insert(write_buf_.end(), frame, frame + len);
  frames_out_.fetch_add(1, std::memory_order_relaxed);
  ReactorMetrics::get().session_frames.inc();
}

void EventChannel::on_readable() {
  loop_.assert_in_loop();
  if (state_.load() == State::kClosed) return;
  // Drain the conduit into the read buffer (bounded chunks, until
  // would-block), then parse and dispatch complete messages as one batch.
  constexpr std::size_t kChunk = 16u << 10;
  for (;;) {
    const std::size_t old = read_buf_.size();
    read_buf_.resize(old + kChunk);
    const std::size_t n = conduit_->read_some(read_buf_.data() + old, kChunk);
    read_buf_.resize(old + n);
    if (n == 0) break;
    bytes_in_.fetch_add(n, std::memory_order_relaxed);
    ReactorMetrics::get().session_bytes.inc(n);
  }
  {
    // One span per dispatch batch (not per frame): unseal + parse + handler
    // all run inside it, so sampling profiles attribute event-core CPU to
    // switchboard.dispatch rather than to a bare loop-thread root.
    obs::ScopedSpan span("switchboard.dispatch");
    process_read_buffer();
  }
  if (state_.load() == State::kClosed) return;
  flush();
  if (conduit_->peer_closed() && read_buf_.size() == read_pos_) {
    close_on_loop(state_.load() == State::kDraining ? "drained" : "peer eof");
  }
}

void EventChannel::process_read_buffer() {
  std::size_t handled = 0;
  while (handled < max_batch_frames_) {
    const std::size_t avail = read_buf_.size() - read_pos_;
    if (avail < 4) break;
    const std::uint32_t body_len = util::get_u32_be(read_buf_, read_pos_);
    if (body_len == 0 || body_len > kMaxMessage) {
      close_on_loop("corrupt length prefix");
      return;
    }
    if (avail < 4 + static_cast<std::size_t>(body_len)) break;
    const std::uint8_t* body = read_buf_.data() + read_pos_ + 4;
    read_pos_ += 4 + body_len;
    ++handled;
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    if (!handle_message(body[0], body + 1, body_len - 1)) return;
  }
  // Compact consumed prefix once per batch, not per frame.
  if (read_pos_ == read_buf_.size()) {
    read_buf_.clear();
    read_pos_ = 0;
  } else if (read_pos_ > (256u << 10)) {
    read_buf_.erase(read_buf_.begin(),
                    read_buf_.begin() + static_cast<std::ptrdiff_t>(read_pos_));
    read_pos_ = 0;
  }
  if (handled > 0) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t prev = max_batch_.load(std::memory_order_relaxed);
    while (handled > prev &&
           !max_batch_.compare_exchange_weak(prev, handled)) {
    }
    ReactorMetrics::get().batch_frames.observe(
        static_cast<std::int64_t>(handled));
  }
  // Frames beyond the batch bound stay buffered; re-arm fairness by
  // yielding the loop and continuing in a fresh dispatch.
  if (handled == max_batch_frames_ && read_buf_.size() - read_pos_ >= 4) {
    std::weak_ptr<EventChannel> weak = weak_from_this();
    loop_.post([weak] {
      if (auto self = weak.lock()) self->on_readable();
    });
  }
}

bool EventChannel::handle_message(std::uint8_t type, const std::uint8_t* body,
                                  std::size_t len) {
  thread_local util::Bytes plain;
  switch (type) {
    case kHello: {
      if (role_ != Role::kServer || state_.load() != State::kHandshaking) {
        close_on_loop("unexpected HELLO");
        return false;
      }
      if (len < 8) {
        close_on_loop("short HELLO");
        return false;
      }
      std::uint64_t sid = 0;
      for (int i = 0; i < 8; ++i) sid = (sid << 8) | body[i];
      session_id_ = sid;
      control_ = SessionCrypto(trunk_->derive_session_keys(sid, "ctl"));
      if (sid != 0) {
        session_ = SessionCrypto(trunk_->derive_session_keys(sid, "data"));
      }
      auto unsealed = control_.unseal_into(dir_recv(), body + 8, len - 8, plain);
      if (!unsealed.ok()) {
        close_on_loop("HELLO " + unsealed.error().message);
        return false;
      }
      mailbox_.assign(plain.begin(), plain.end());
      send_control(kWelcome, plain);  // echo the mailbox back, sealed
      state_.store(State::kEstablished);
      return true;
    }
    case kWelcome: {
      if (role_ != Role::kClient || state_.load() != State::kHandshaking) {
        close_on_loop("unexpected WELCOME");
        return false;
      }
      if (len < 8) {
        close_on_loop("short WELCOME");
        return false;
      }
      std::uint64_t sid = 0;
      for (int i = 0; i < 8; ++i) sid = (sid << 8) | body[i];
      if (sid != session_id_) {
        close_on_loop("WELCOME session mismatch");
        return false;
      }
      auto unsealed = control_.unseal_into(dir_recv(), body + 8, len - 8, plain);
      if (!unsealed.ok()) {
        close_on_loop("WELCOME " + unsealed.error().message);
        return false;
      }
      state_.store(State::kEstablished);
      for (auto& [request, callback] : queued_submits_) {
        pending_.push_back(std::move(callback));
        send_data_frame(request);
      }
      queued_submits_.clear();
      if (established_callback_) established_callback_();
      return true;
    }
    case kData: {
      if (state_.load() != State::kEstablished &&
          state_.load() != State::kDraining) {
        close_on_loop("DATA before establishment");
        return false;
      }
      util::Result<std::size_t> unsealed(std::size_t{0});
      if (session_id_ == 0) {
        const Connection::End receiver =
            role_ == Role::kClient ? Connection::End::kA : Connection::End::kB;
        thread_local util::Bytes frame_copy;
        frame_copy.assign(body, body + len);
        unsealed = trunk_->unseal_into(receiver, frame_copy, plain);
      } else {
        unsealed = session_.unseal_into(dir_recv(), body, len, plain);
      }
      if (!unsealed.ok()) {
        close_on_loop("frame " + unsealed.error().message);
        return false;
      }
      if (role_ == Role::kServer) {
        thread_local util::Bytes response;
        response.clear();
        handler_(plain, response);
        send_data_frame(response);
      } else {
        if (pending_.empty()) {
          close_on_loop("unsolicited response");
          return false;
        }
        ResponseCallback callback = std::move(pending_.front());
        pending_.pop_front();
        callback(util::Result<util::Bytes>(util::Bytes(plain)));
      }
      return true;
    }
    case kPing: {
      auto unsealed = control_.unseal_into(dir_recv(), body, len, plain);
      if (!unsealed.ok()) {
        close_on_loop("PING " + unsealed.error().message);
        return false;
      }
      send_control(kPong, plain);
      return true;
    }
    case kPong: {
      auto unsealed = control_.unseal_into(dir_recv(), body, len, plain);
      if (!unsealed.ok()) {
        close_on_loop("PONG " + unsealed.error().message);
        return false;
      }
      return true;
    }
    case kBye:
      close_on_loop("peer bye");
      return false;
    default:
      close_on_loop("unknown message type");
      return false;
  }
}

void EventChannel::submit(util::Bytes request_plain,
                          ResponseCallback callback) {
  auto self = shared_from_this();
  loop_.run_on_loop([self, request = std::move(request_plain),
                     cb = std::move(callback)]() mutable {
    switch (self->state_.load()) {
      case State::kHandshaking:
        self->queued_submits_.emplace_back(std::move(request), std::move(cb));
        break;
      case State::kEstablished:
        self->pending_.push_back(std::move(cb));
        self->send_data_frame(request);
        self->flush();
        break;
      case State::kDraining:
      case State::kClosed:
        cb(util::Result<util::Bytes>::failure("closed",
                                              "channel is shutting down"));
        break;
    }
  });
}

void EventChannel::begin_drain() {
  auto self = shared_from_this();
  loop_.run_on_loop([self] {
    const State state = self->state_.load();
    if (state == State::kDraining || state == State::kClosed) return;
    if (state == State::kHandshaking) {
      self->close_on_loop("drained before establishment");
      return;
    }
    self->state_.store(State::kDraining);
    util::Bytes reason = util::to_bytes("bye");
    self->send_control(kBye, reason);
    self->flush();
    self->maybe_finish_drain();
  });
}

void EventChannel::close() {
  auto self = shared_from_this();
  loop_.run_on_loop([self] { self->close_on_loop("closed by caller"); });
}

void EventChannel::flush() {
  loop_.assert_in_loop();
  if (state_.load() == State::kClosed) return;
  while (write_pos_ < write_buf_.size()) {
    const std::size_t n = conduit_->write_some(write_buf_.data() + write_pos_,
                                               write_buf_.size() - write_pos_);
    if (n == 0) {
      if (conduit_->peer_closed()) {
        close_on_loop("write to closed peer");
        return;
      }
      // Transport backlog: arm writability and resume from the poller.
      if (conduit_->fd() >= 0 && !want_write_armed_) {
        loop_.mod_fd(conduit_->fd(), true, true);
        want_write_armed_ = true;
      }
      return;
    }
    write_pos_ += n;
    bytes_out_.fetch_add(n, std::memory_order_relaxed);
    ReactorMetrics::get().session_bytes.inc(n);
  }
  write_buf_.clear();
  write_pos_ = 0;
  if (want_write_armed_) {
    loop_.mod_fd(conduit_->fd(), true, false);
    want_write_armed_ = false;
  }
  maybe_finish_drain();
}

void EventChannel::maybe_finish_drain() {
  if (state_.load() == State::kDraining && write_pos_ >= write_buf_.size()) {
    close_on_loop("drained");
  }
}

void EventChannel::fail_pending(const std::string& reason) {
  for (auto& [request, callback] : queued_submits_) {
    (void)request;
    callback(util::Result<util::Bytes>::failure("closed", reason));
  }
  queued_submits_.clear();
  while (!pending_.empty()) {
    ResponseCallback callback = std::move(pending_.front());
    pending_.pop_front();
    callback(util::Result<util::Bytes>::failure("closed", reason));
  }
}

void EventChannel::close_on_loop(const std::string& reason) {
  loop_.assert_in_loop();
  if (state_.load() == State::kClosed) return;
  state_.store(State::kClosed);
  if (conduit_->fd() >= 0) loop_.del_fd(conduit_->fd());
  conduit_->close();
  fail_pending(reason);
  ReactorMetrics::get().sessions_closed.inc();
}

EventChannel::Stats EventChannel::stats() const {
  Stats stats;
  stats.frames_in = frames_in_.load(std::memory_order_relaxed);
  stats.frames_out = frames_out_.load(std::memory_order_relaxed);
  stats.bytes_in = bytes_in_.load(std::memory_order_relaxed);
  stats.bytes_out = bytes_out_.load(std::memory_order_relaxed);
  stats.batches = batches_.load(std::memory_order_relaxed);
  stats.max_batch = max_batch_.load(std::memory_order_relaxed);
  return stats;
}

void EventChannel::set_established_callback(std::function<void()> fn) {
  auto self = shared_from_this();
  loop_.run_on_loop([self, fn = std::move(fn)]() mutable {
    if (self->state_.load() == State::kEstablished) {
      fn();
    } else {
      self->established_callback_ = std::move(fn);
    }
  });
}

// ------------------------------------------------------------------ reactor

Reactor::Reactor(ReactorOptions options) {
  int workers = options.workers;
  if (workers <= 0) {
    const unsigned hc = std::thread::hardware_concurrency();
    workers = env_int("PSF_LOOP_WORKERS",
                      static_cast<int>(std::min(4u, std::max(2u, hc))));
  }
  max_batch_frames_ = options.max_batch_frames != 0
                          ? options.max_batch_frames
                          : static_cast<std::size_t>(
                                env_int("PSF_LOOP_BATCH", 128));
  loops_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    loops_.push_back(
        std::make_unique<EventLoop>(options.poller, options.timer_tick_ns));
    // Number the pool: loop i exports psf.loop.<i>.* gauges and shows up in
    // profiles as "loop.<i>".
    loops_.back()->set_worker_index(i);
  }
}

Reactor::~Reactor() { stop(); }

void Reactor::start() {
  if (running_.exchange(true)) return;
  for (auto& loop : loops_) loop->start();
}

void Reactor::stop() {
  if (!running_.exchange(false)) return;
  for (auto& loop : loops_) loop->stop();
}

std::size_t Reactor::shard_of(std::string_view key) const {
  // FNV-1a 64: stable across runs, so a mailbox always lands on one worker.
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : key) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return static_cast<std::size_t>(hash % loops_.size());
}

std::shared_ptr<EventChannel> Reactor::serve(
    int worker, std::unique_ptr<Conduit> conduit,
    std::shared_ptr<Connection> trunk, EventChannel::RequestHandler handler) {
  return EventChannel::serve(loop(worker), std::move(conduit),
                             std::move(trunk), std::move(handler),
                             max_batch_frames_);
}

std::shared_ptr<EventChannel> Reactor::open(int worker,
                                            std::unique_ptr<Conduit> conduit,
                                            std::shared_ptr<Connection> trunk,
                                            std::uint64_t session_id,
                                            std::string mailbox) {
  return EventChannel::open(loop(worker), std::move(conduit), std::move(trunk),
                            session_id, std::move(mailbox),
                            max_batch_frames_);
}

HeartbeatHandle Reactor::schedule_heartbeats(
    std::shared_ptr<Connection> connection, std::chrono::milliseconds period) {
  HeartbeatHandle handle;
  handle.active_ = std::make_shared<std::atomic<bool>>(true);
  handle.beats_ = std::make_shared<std::atomic<std::uint64_t>>(0);

  const std::size_t worker =
      next_heartbeat_worker_.fetch_add(1) % loops_.size();
  EventLoop* loop = loops_[worker].get();
  const auto period_ns =
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(period)
              .count());

  // Self-rescheduling wheel tick. The wheel holds only weak references to
  // the closure: dropping every HeartbeatHandle (or cancel()) stops the
  // schedule, and the Connection is held weakly so monitoring never extends
  // its lifetime.
  auto tick = std::make_shared<std::function<void()>>();
  std::weak_ptr<std::function<void()>> weak_tick = tick;
  std::weak_ptr<Connection> weak_connection = connection;
  *tick = [loop, period_ns, weak_tick, weak_connection,
           active = handle.active_, beats = handle.beats_] {
    if (!active->load()) return;
    auto conn = weak_connection.lock();
    if (!conn || !conn->open()) {
      active->store(false);
      return;
    }
    conn->heartbeat();
    beats->fetch_add(1);
    loop->schedule(period_ns, [weak_tick] {
      if (auto self = weak_tick.lock()) (*self)();
    });
  };
  handle.keepalive_ = tick;
  loop->run_on_loop([loop, period_ns, weak_tick] {
    loop->schedule(period_ns, [weak_tick] {
      if (auto self = weak_tick.lock()) (*self)();
    });
  });
  return handle;
}

int count_os_threads() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<int>(std::strtol(line.c_str() + 8, nullptr, 10));
    }
  }
#endif
  return -1;
}

}  // namespace psf::switchboard
