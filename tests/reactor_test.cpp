// Reactor / EventChannel / sharded-mail tests (ISSUE 7): session key
// derivation, the connection state machine over memory and socket conduits,
// draining teardown, cross-worker shard routing, wheel-scheduled heartbeats,
// and the differential old-vs-new transport check — identically-keyed
// connections must produce byte-identical sealed frames on the thread-per-
// connection path and the event-loop path (trunk passthrough, session 0).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <limits>
#include <thread>

#include "drbac/credential.hpp"
#include "mail/components.hpp"
#include "mail/sharded.hpp"
#include "minilang/interp.hpp"
#include "minilang/value_codec.hpp"
#include "obs/trace.hpp"
#include "switchboard/authorizer.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/network.hpp"
#include "switchboard/reactor.hpp"
#include "util/rng.hpp"

namespace psf::switchboard {
namespace {

using namespace std::chrono_literals;
using drbac::Principal;
using drbac::role_of;
using minilang::Value;
using util::kMillisecond;

template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(1ms);
  }
  return pred();
}

/// The switchboard_test ChannelWorld, reproduced here so two instances can
/// be constructed with the same seed: every Rng draw (entity keys, DH) then
/// replays identically, giving the differential tests two connections with
/// byte-identical key material.
struct TrunkWorld {
  explicit TrunkWorld(std::uint64_t seed = 2024) : rng(seed) {
    net.connect("client-host", "server-host", {1 * kMillisecond, 0, false});
    client_cred = drbac::issue(guard, Principal::of_entity(client),
                               role_of(guard, "Member"), {}, false, 0, 0,
                               repo.next_serial());
    AuthorizationSuite server_suite;
    server_suite.identity = server_id;
    server_suite.authorizer = std::make_shared<RoleAuthorizer>(
        &repo, role_of(guard, "Member"));
    server_board.set_suite(server_suite);
  }

  AuthorizationSuite client_suite() {
    AuthorizationSuite suite;
    suite.identity = client;
    suite.credentials = {client_cred};
    suite.authorizer = std::make_shared<AcceptAllAuthorizer>();
    return suite;
  }

  std::shared_ptr<Connection> connect() {
    auto r = client_board.connect(server_board, client_suite(), rng);
    EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
    return r.value();
  }

  util::Rng rng;
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  Network net;
  drbac::Repository repo;
  drbac::Entity guard{drbac::Entity::create("Comp.NY", rng)};
  drbac::Entity client{drbac::Entity::create("Alice", rng)};
  drbac::Entity server_id{drbac::Entity::create("Mail.Server", rng)};
  Switchboard client_board{"client-host", &net, clock};
  Switchboard server_board{"server-host", &net, clock};
  drbac::DelegationPtr client_cred;
};

/// Encode a request the way Connection::call does: trace header + values
/// [service, method, args...]. The event transport carries the same
/// plaintext, so both paths are protocol-compatible end to end.
util::Bytes encode_request(const std::string& service,
                           const std::string& method,
                           std::vector<Value> args) {
  std::vector<Value> request;
  request.push_back(Value::string(service));
  request.push_back(Value::string(method));
  for (auto& a : args) request.push_back(std::move(a));
  util::Bytes plain;
  obs::append_trace_header(obs::SpanContext{}, plain);
  minilang::encode_values_into(request, plain);
  return plain;
}

/// Decode a [ok, payload] response; fails the test on application errors.
Value decode_response(const util::Bytes& plain) {
  auto decoded = minilang::decode_values(plain);
  EXPECT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().size(), 2u);
  EXPECT_TRUE(decoded.value()[0].as_bool())
      << decoded.value()[1].as_string();
  return decoded.value()[1];
}

/// Round-trip helper: submit and synchronously await the decoded payload.
Value call_via(const std::shared_ptr<EventChannel>& channel,
               const std::string& method, std::vector<Value> args) {
  std::promise<util::Result<util::Bytes>> promise;
  auto future = promise.get_future();
  channel->submit(encode_request("mail", method, std::move(args)),
                  [&promise](util::Result<util::Bytes> r) {
                    promise.set_value(std::move(r));
                  });
  EXPECT_EQ(future.wait_for(5s), std::future_status::ready);
  auto result = future.get();
  EXPECT_TRUE(result.ok()) << (result.ok() ? "" : result.error().message);
  return decode_response(result.value());
}

// ------------------------------------------------------- session derivation

TEST(SessionKeys, DeterministicAndLabelSeparated) {
  TrunkWorld w;
  auto conn = w.connect();
  const auto a = conn->derive_session_keys(42, "data");
  const auto b = conn->derive_session_keys(42, "data");
  EXPECT_EQ(a.cipher[0], b.cipher[0]);
  EXPECT_EQ(a.mac_key[1], b.mac_key[1]);
  // Different sessions, directions, and labels all get distinct keys.
  const auto other = conn->derive_session_keys(43, "data");
  EXPECT_NE(a.cipher[0], other.cipher[0]);
  EXPECT_NE(a.cipher[0], a.cipher[1]);
  const auto ctl = conn->derive_session_keys(42, "ctl");
  EXPECT_NE(a.cipher[0], ctl.cipher[0]);
  EXPECT_NE(a.mac_key[0], ctl.mac_key[0]);
}

TEST(SessionKeys, BothTrunkEndsDeriveIdenticalMaterial) {
  // Two identically-seeded worlds stand in for the two ends: establishment
  // is deterministic, so the resumption secrets (and hence every derived
  // session key) must match.
  TrunkWorld w1(7), w2(7);
  auto c1 = w1.connect();
  auto c2 = w2.connect();
  const auto k1 = c1->derive_session_keys(5, "data");
  const auto k2 = c2->derive_session_keys(5, "data");
  EXPECT_EQ(k1.cipher[0], k2.cipher[0]);
  EXPECT_EQ(k1.cipher[1], k2.cipher[1]);
  EXPECT_EQ(k1.mac_key[0], k2.mac_key[0]);
  EXPECT_EQ(k1.mac_key[1], k2.mac_key[1]);
}

TEST(SessionCrypto, SealUnsealRoundTripAndReplayRejection) {
  TrunkWorld w;
  auto conn = w.connect();
  SessionCrypto sender(conn->derive_session_keys(9, "data"));
  SessionCrypto receiver(conn->derive_session_keys(9, "data"));

  const util::Bytes plain = util::to_bytes("hello sharded world");
  util::Bytes frame, out;
  sender.seal_into(0, plain.data(), plain.size(), frame);
  EXPECT_EQ(frame.size(), plain.size() + 40) << "seq(8) | ct | hmac(32)";
  auto r = receiver.unseal_into(0, frame.data(), frame.size(), out);
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(out, plain);

  // Replay of the same frame is rejected by the per-session window.
  auto replay = receiver.unseal_into(0, frame.data(), frame.size(), out);
  ASSERT_FALSE(replay.ok());
  EXPECT_EQ(replay.error().code, "replay");

  // Tampering breaks the MAC before the window is consulted.
  sender.seal_into(0, plain.data(), plain.size(), frame);
  frame[10] ^= 1;
  auto bad = receiver.unseal_into(0, frame.data(), frame.size(), out);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, "mac");

  // Wrong direction = wrong keys.
  sender.seal_into(0, plain.data(), plain.size(), frame);
  auto wrong_dir = receiver.unseal_into(1, frame.data(), frame.size(), out);
  EXPECT_FALSE(wrong_dir.ok());
}

// ------------------------------------------------------------ state machine

TEST(EventChannel, HandshakeAndRpcOverMemoryConduit) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();

  auto pair = make_memory_conduit_pair();
  ASSERT_TRUE(pair.a && pair.b);
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;  // echo
        response.push_back('!');
      });
  auto client =
      EventChannel::open(loop, std::move(pair.a), trunk, /*session_id=*/17,
                         "alice");
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kEstablished;
  }));
  EXPECT_EQ(server->state(), EventChannel::State::kEstablished);
  EXPECT_EQ(server->session_id(), 17u);
  EXPECT_EQ(server->mailbox(), "alice") << "HELLO carries the mailbox";

  std::promise<util::Bytes> promise;
  auto future = promise.get_future();
  client->submit(util::to_bytes("ping"), [&](util::Result<util::Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    promise.set_value(r.value());
  });
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), util::to_bytes("ping!"));

  const auto stats = client->stats();
  EXPECT_GE(stats.frames_out, 2u);  // HELLO + DATA
  EXPECT_GE(stats.frames_in, 2u);   // WELCOME + response
  loop.stop();
}

TEST(EventChannel, SubmitsQueuedDuringHandshakeAreSentOnEstablish) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;
      });
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 3, "bob");
  // Submit immediately — very likely before WELCOME lands.
  std::atomic<int> answered{0};
  for (int i = 0; i < 10; ++i) {
    client->submit(util::to_bytes("q" + std::to_string(i)),
                   [&answered, i](util::Result<util::Bytes> r) {
                     ASSERT_TRUE(r.ok());
                     EXPECT_EQ(r.value(),
                               util::to_bytes("q" + std::to_string(i)))
                         << "responses must match FIFO";
                     answered.fetch_add(1);
                   });
  }
  EXPECT_TRUE(eventually([&] { return answered.load() == 10; }));
  loop.stop();
}

#ifdef __linux__
TEST(EventChannel, SocketConduitWithWriteBacklog) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_socket_conduit_pair();
  ASSERT_TRUE(pair.a && pair.b) << "socketpair failed";
  EXPECT_GE(pair.a->fd(), 0);
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;
      });
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 4, "carol");
  // 2 MB round trip: far beyond the AF_UNIX buffer, so both directions must
  // take the want-write path (partial writes, poller-driven resume).
  util::Bytes big(2u << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::promise<util::Bytes> promise;
  auto future = promise.get_future();
  client->submit(big, [&](util::Result<util::Bytes> r) {
    ASSERT_TRUE(r.ok()) << r.error().message;
    promise.set_value(r.value());
  });
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(future.get(), big);
  // The backlog drained: neither end keeps the refused bytes' capacity.
  EXPECT_TRUE(eventually([&] {
    return client->stats().buffer_bytes == 0 &&
           server->stats().buffer_bytes == 0;
  }));
  loop.stop();
}
#endif

TEST(EventChannel, DrainingTeardown) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;
      });
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 6, "dave");
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kEstablished;
  }));
  // One echo round trip so the drain has real traffic behind it.
  std::promise<util::Bytes> echoed;
  client->submit(util::to_bytes("traffic"), [&](util::Result<util::Bytes> r) {
    ASSERT_TRUE(r.ok());
    echoed.set_value(r.value());
  });
  ASSERT_EQ(echoed.get_future().wait_for(5s), std::future_status::ready);
  client->begin_drain();
  ASSERT_TRUE(eventually([&] {
    return client->state() == EventChannel::State::kClosed &&
           server->state() == EventChannel::State::kClosed;
  })) << "BYE must tear down both ends";

  // Post-drain submits fail fast instead of hanging.
  std::promise<util::Result<util::Bytes>> promise;
  auto future = promise.get_future();
  client->submit(util::to_bytes("late"), [&](util::Result<util::Bytes> r) {
    promise.set_value(std::move(r));
  });
  ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
  auto result = future.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "closed");
  loop.stop();
}

// ------------------------------------------------- chunked delivery + memory

/// Cuts a conduit's read stream into pieces: each read_some stops at the
/// next cut, so the reader sees the bytes in exactly these pieces (or finer,
/// when the writer has not caught up). `next_piece` runs on the reader's
/// thread and returns the size of the next piece (>= 1).
class SplitConduit final : public Conduit {
 public:
  SplitConduit(std::unique_ptr<Conduit> inner,
               std::function<std::size_t()> next_piece)
      : inner_(std::move(inner)), next_piece_(std::move(next_piece)) {}

  std::size_t read_some(std::uint8_t* buf, std::size_t len) override {
    if (left_ == 0) left_ = next_piece_();
    const std::size_t n = inner_->read_some(buf, std::min(len, left_));
    left_ -= n;
    return n;
  }
  std::size_t write_some(const std::uint8_t* data, std::size_t len) override {
    return inner_->write_some(data, len);
  }
  void close() override { inner_->close(); }
  bool peer_closed() const override { return inner_->peer_closed(); }
  int fd() const override { return inner_->fd(); }
  void set_data_callback(std::function<void()> fn) override {
    inner_->set_data_callback(std::move(fn));
  }

 private:
  std::unique_ptr<Conduit> inner_;
  std::function<std::size_t()> next_piece_;
  std::size_t left_ = 0;
};

using Schedule = std::function<std::function<std::size_t()>()>;

Schedule whole() {
  return [] { return [] { return std::numeric_limits<std::size_t>::max(); }; };
}
Schedule pieces_of(std::size_t size) {
  return [size] { return [size] { return size; }; };
}
/// One cut at `offset`, then the rest in whole reads.
Schedule cut_at(std::size_t offset) {
  return [offset] {
    return [offset, first = true]() mutable {
      const std::size_t piece =
          first ? offset : std::numeric_limits<std::size_t>::max();
      first = false;
      return piece;
    };
  };
}
Schedule seeded(std::uint64_t seed, std::size_t max_piece) {
  return [seed, max_piece] {
    return [rng = util::Rng(seed), max_piece]() mutable {
      return static_cast<std::size_t>(rng.next_below(max_piece)) + 1;
    };
  };
}

struct Exchange {
  std::vector<util::Bytes> responses;
  EventChannel::Stats client, server;
};

/// Echo-reversed server + client over one memory pipe, each end reading
/// through its own schedule; submits every request at once and returns the
/// responses in submission order.
Exchange run_exchange(EventLoop& loop, const std::shared_ptr<Connection>& trunk,
                      std::uint64_t session, const Schedule& client_reads,
                      const Schedule& server_reads,
                      const std::vector<util::Bytes>& requests,
                      std::size_t max_batch = 128) {
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(
      loop, std::make_unique<SplitConduit>(std::move(pair.b), server_reads()),
      trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response.assign(request.rbegin(), request.rend());
        response.push_back('!');
      },
      max_batch);
  auto client = EventChannel::open(
      loop, std::make_unique<SplitConduit>(std::move(pair.a), client_reads()),
      trunk, session, "split", max_batch);
  Exchange out;
  out.responses.resize(requests.size());
  std::atomic<std::size_t> answered{0};
  for (std::size_t i = 0; i < requests.size(); ++i) {
    client->submit(requests[i], [&out, &answered, i](util::Result<util::Bytes> r) {
      EXPECT_TRUE(r.ok()) << r.error().message;
      if (r.ok()) out.responses[i] = r.value();
      answered.fetch_add(1);
    });
  }
  EXPECT_TRUE(eventually([&] { return answered.load() == requests.size(); }));
  EXPECT_TRUE(eventually([&] {
    return client->stats().buffer_bytes == 0 &&
           server->stats().buffer_bytes == 0;
  })) << "an idle session owns no I/O buffer capacity";
  out.client = client->stats();
  out.server = server->stats();
  client->close();
  server->close();
  return out;
}

util::Bytes patterned(std::size_t size, std::uint8_t salt) {
  util::Bytes body(size);
  for (std::size_t i = 0; i < size; ++i) {
    body[i] = static_cast<std::uint8_t>(i * 131 + salt);
  }
  return body;
}

TEST(EventChannel, ChunkedDeliveryMatchesWholeFrames) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  constexpr std::size_t kChunk = EventChannel::kReadChunk;
  // 16 KiB bodies put frame boundaries on both sides of every read chunk.
  std::vector<util::Bytes> requests;
  std::uint8_t salt = 0;
  for (const std::size_t size :
       {std::size_t{1}, std::size_t{100}, kChunk - 45, kChunk - 1, kChunk,
        kChunk + 1, std::size_t{57}, 3 * kChunk + 7, std::size_t{2}}) {
    requests.push_back(patterned(size, salt++));
  }
  std::uint64_t session = 100;
  const Exchange reference =
      run_exchange(loop, trunk, session++, whole(), whole(), requests);
  ASSERT_EQ(reference.responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    util::Bytes expected(requests[i].rbegin(), requests[i].rend());
    expected.push_back('!');
    EXPECT_EQ(reference.responses[i], expected) << "request " << i;
  }

  struct Case {
    const char* name;
    Schedule reads;
    std::size_t max_batch;
  };
  const std::vector<Case> cases = {
      {"1-byte reads", pieces_of(1), 128},
      {"chunk-sized reads", pieces_of(kChunk), 128},
      {"chunk+1 reads", pieces_of(kChunk + 1), 128},
      {"seeded reads", seeded(7, 2 * kChunk), 128},
      {"seeded small reads", seeded(8, 300), 128},
      {"seeded reads, batch 1", seeded(9, 2 * kChunk), 1},
      {"seeded reads, batch 2", seeded(10, 3 * kChunk), 2},
      {"whole reads, batch 1", whole(), 1},
  };
  for (const Case& c : cases) {
    const Exchange split = run_exchange(loop, trunk, session++, c.reads,
                                        c.reads, requests, c.max_batch);
    EXPECT_EQ(split.responses, reference.responses) << c.name;
    EXPECT_EQ(split.client.bytes_in, reference.client.bytes_in) << c.name;
    EXPECT_EQ(split.server.bytes_in, reference.server.bytes_in) << c.name;
    EXPECT_EQ(split.client.frames_in, reference.client.frames_in) << c.name;
  }
  loop.stop();
}

TEST(EventChannel, EverySplitOffsetMatchesWholeFrames) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  const std::vector<util::Bytes> requests = {util::to_bytes("first"),
                                             util::to_bytes("second request"),
                                             util::to_bytes("3")};
  std::uint64_t session = 1000;
  const Exchange reference =
      run_exchange(loop, trunk, session++, whole(), whole(), requests);
  // Cut each end's read stream once, at every offset it can be cut.
  const std::size_t longest =
      std::max(reference.client.bytes_in, reference.server.bytes_in);
  ASSERT_GT(longest, 100u);
  for (std::size_t offset = 1; offset < longest; ++offset) {
    const Exchange split = run_exchange(loop, trunk, session++,
                                        cut_at(offset), cut_at(offset),
                                        requests, offset % 2 + 1);
    ASSERT_EQ(split.responses, reference.responses) << "cut at " << offset;
  }
  loop.stop();
}

/// A client channel facing a hand-rolled server end: the test completes the
/// handshake itself and can then put arbitrary bytes on the wire.
struct ManualPeer {
  ManualPeer(EventLoop& loop, const std::shared_ptr<Connection>& trunk,
             std::uint64_t session, const Schedule& client_reads)
      : trunk(trunk), session(session) {
    auto pair = make_memory_conduit_pair();
    server_end = std::move(pair.b);
    client = EventChannel::open(
        loop, std::make_unique<SplitConduit>(std::move(pair.a), client_reads()),
        trunk, session, "peer");
  }

  /// Read one whole wire message (u32_be len | body) off the server end.
  util::Bytes read_message() {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    for (;;) {
      if (wire.size() >= 4) {
        const std::uint32_t len = util::get_u32_be(wire, 0);
        if (wire.size() >= 4 + len) {
          util::Bytes body(wire.begin() + 4, wire.begin() + 4 + len);
          wire.erase(wire.begin(), wire.begin() + 4 + len);
          return body;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ADD_FAILURE() << "wire timeout";
        return {};
      }
      std::uint8_t chunk[4096];
      const std::size_t n = server_end->read_some(chunk, sizeof chunk);
      if (n == 0) {
        std::this_thread::sleep_for(1ms);
      } else {
        wire.insert(wire.end(), chunk, chunk + n);
      }
    }
  }

  void write(const util::Bytes& bytes) {
    std::size_t written = 0;
    while (written < bytes.size()) {
      written += server_end->write_some(bytes.data() + written,
                                        bytes.size() - written);
    }
  }

  /// Answer the client's HELLO with a valid WELCOME.
  void welcome() {
    const util::Bytes hello = read_message();
    ASSERT_GE(hello.size(), 9u);
    SessionCrypto ctl(trunk->derive_session_keys(session, "ctl"));
    util::Bytes plain, frame, message;
    ASSERT_TRUE(ctl.unseal_into(0, hello.data() + 9, hello.size() - 9, plain)
                    .ok());
    ctl.seal_into(1, plain.data(), plain.size(), frame);
    util::put_u32_be(message, static_cast<std::uint32_t>(9 + frame.size()));
    message.push_back(1);
    util::put_u64_be(message, session);
    message.insert(message.end(), frame.begin(), frame.end());
    write(message);
  }

  std::shared_ptr<Connection> trunk;
  std::uint64_t session;
  std::unique_ptr<Conduit> server_end;
  std::shared_ptr<EventChannel> client;
  util::Bytes wire;
};

/// Establish, submit one request, answer it with `reply` (then EOF when
/// `then_eof`), and return the request's failure as "code: message".
std::string typed_close(EventLoop& loop, const std::shared_ptr<Connection>& trunk,
                        std::uint64_t session, const Schedule& client_reads,
                        const util::Bytes& reply, bool then_eof) {
  ManualPeer peer(loop, trunk, session, client_reads);
  peer.welcome();
  std::promise<util::Result<util::Bytes>> promise;
  auto future = promise.get_future();
  peer.client->submit(util::to_bytes("q"), [&](util::Result<util::Bytes> r) {
    promise.set_value(std::move(r));
  });
  const util::Bytes request = peer.read_message();
  EXPECT_FALSE(request.empty());
  peer.write(reply);
  if (then_eof) peer.server_end->close();
  if (future.wait_for(5s) != std::future_status::ready) return "timeout";
  auto result = future.get();
  if (result.ok()) return "ok";
  EXPECT_TRUE(eventually([&] {
    return peer.client->state() == EventChannel::State::kClosed &&
           peer.client->stats().buffer_bytes == 0;
  }));
  return result.error().code + ": " + result.error().message;
}

TEST(EventChannel, CorruptPrefixAndMidFrameEofCloseTheSameWayInAnyPieces) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  // A zero and an oversized length prefix, each behind a valid-looking byte.
  const util::Bytes zero_len = {0, 0, 0, 0, 2, 9, 9};
  const util::Bytes huge_len = {0xFF, 0xFF, 0xFF, 0xFF, 2, 9, 9};
  // The first 30 bytes of a 200-byte DATA message, then EOF.
  util::Bytes truncated;
  util::put_u32_be(truncated, 200);
  truncated.push_back(2);
  truncated.resize(30, 7);

  const std::vector<Schedule> schedules = {whole(), pieces_of(1),
                                           pieces_of(3), seeded(11, 8)};
  std::uint64_t session = 5000;
  for (const auto& schedule : schedules) {
    EXPECT_EQ(typed_close(loop, trunk, session++, schedule, zero_len, false),
              "closed: corrupt length prefix");
    EXPECT_EQ(typed_close(loop, trunk, session++, schedule, huge_len, false),
              "closed: corrupt length prefix");
    EXPECT_EQ(typed_close(loop, trunk, session++, schedule, truncated, true),
              "closed: peer eof mid-frame");
  }

  // A valid length prefix for the largest frame the reader accepts (16 MiB),
  // then only a few body bytes: the session buffers what arrived, not what
  // the unauthenticated prefix claims.
  util::Bytes huge_partial;
  util::put_u32_be(huge_partial, 16u << 20);
  huge_partial.insert(huge_partial.end(), {2, 1, 2, 3, 4});
  for (const auto& schedule : schedules) {
    ManualPeer peer(loop, trunk, session++, schedule);
    peer.welcome();
    std::promise<util::Result<util::Bytes>> promise;
    auto future = promise.get_future();
    peer.client->submit(util::to_bytes("q"), [&](util::Result<util::Bytes> r) {
      promise.set_value(std::move(r));
    });
    EXPECT_FALSE(peer.read_message().empty());
    const std::uint64_t before = peer.client->stats().bytes_in;
    peer.write(huge_partial);
    ASSERT_TRUE(eventually([&] {
      return peer.client->stats().bytes_in == before + huge_partial.size();
    }));
    // Run behind the dispatch that read those bytes.
    std::promise<void> barrier;
    loop.post([&] { barrier.set_value(); });
    barrier.get_future().wait();
    const std::uint64_t held = peer.client->stats().buffer_bytes;
    EXPECT_GT(held, 0u);
    EXPECT_LT(held, EventChannel::kReadChunk);
    peer.server_end->close();
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    auto result = future.get();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().message, "peer eof mid-frame");
  }
  loop.stop();
}

TEST(EventChannel, IdleSessionHoldsNoBufferCapacity) {
  TrunkWorld w;
  auto trunk = w.connect();
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  auto server = EventChannel::serve(
      loop, std::move(pair.b), trunk,
      [](const util::Bytes& request, util::Bytes& response) {
        response = request;
      });
  auto client = EventChannel::open(loop, std::move(pair.a), trunk, 21, "idle");
  const util::Bytes big = patterned(16u << 10, 3);
  for (int round = 0; round < 3; ++round) {
    std::promise<util::Bytes> promise;
    auto future = promise.get_future();
    client->submit(big, [&](util::Result<util::Bytes> r) {
      ASSERT_TRUE(r.ok()) << r.error().message;
      promise.set_value(r.value());
    });
    ASSERT_EQ(future.wait_for(5s), std::future_status::ready);
    EXPECT_EQ(future.get(), big);
    // The 16 KiB frame straddles a read chunk, so both ends buffered a
    // partial frame; once idle, neither holds any capacity.
    EXPECT_TRUE(eventually([&] {
      return client->stats().buffer_bytes == 0 &&
             server->stats().buffer_bytes == 0;
    })) << "client " << client->stats().buffer_bytes << " B, server "
        << server->stats().buffer_bytes << " B";
  }
  EXPECT_GE(client->stats().bytes_in, 3 * big.size());
  loop.stop();
}

// ------------------------------------------------------------ differential

TEST(Differential, TrunkPassthroughFramesAreByteIdentical) {
  // Twin worlds, same seed: conn_old (thread-per-connection transport) and
  // conn_new (trunk under the event transport) hold identical key material.
  TrunkWorld old_world(99), new_world(99);
  auto conn_old = old_world.connect();
  auto conn_new = new_world.connect();

  const util::Bytes payload = encode_request("mail", "getPhone",
                                             {Value::string("alice")});
  // Old path: first A->B frame off a fresh connection (seq 1).
  const util::Bytes frame_old = conn_old->seal(Connection::End::kA, payload);

  // New path: session 0 = trunk passthrough. Drive the client end against a
  // hand-rolled server so the raw wire bytes are observable.
  EventLoop loop;
  loop.start();
  auto pair = make_memory_conduit_pair();
  Conduit& server_end = *pair.b;
  auto client = EventChannel::open(loop, std::move(pair.a), conn_new,
                                   /*session_id=*/0, "alice");
  client->submit(payload, [](util::Result<util::Bytes>) {});

  // Manual server: read wire messages (u32_be len | u8 type | ...).
  util::Bytes wire;
  auto read_message = [&](std::uint8_t expect_type) -> util::Bytes {
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    for (;;) {
      if (wire.size() >= 4) {
        const std::uint32_t len = util::get_u32_be(wire, 0);
        if (wire.size() >= 4 + len) {
          util::Bytes body(wire.begin() + 4, wire.begin() + 4 + len);
          wire.erase(wire.begin(), wire.begin() + 4 + len);
          EXPECT_EQ(body[0], expect_type);
          return body;
        }
      }
      if (std::chrono::steady_clock::now() >= deadline) {
        ADD_FAILURE() << "wire timeout waiting for type "
                      << static_cast<int>(expect_type);
        return {};
      }
      std::uint8_t chunk[4096];
      const std::size_t n = server_end.read_some(chunk, sizeof chunk);
      if (n == 0) {
        std::this_thread::sleep_for(1ms);
      } else {
        wire.insert(wire.end(), chunk, chunk + n);
      }
    }
  };

  // HELLO: type 0 | u64 session id (0) | ctl-sealed mailbox.
  const util::Bytes hello = read_message(0);
  ASSERT_GE(hello.size(), 9u);
  EXPECT_EQ(util::get_u64_be(hello, 1), 0u);
  SessionCrypto ctl(conn_new->derive_session_keys(0, "ctl"));
  util::Bytes hello_plain;
  auto unsealed = ctl.unseal_into(0, hello.data() + 9, hello.size() - 9,
                                  hello_plain);
  ASSERT_TRUE(unsealed.ok()) << unsealed.error().message;
  EXPECT_EQ(hello_plain, util::to_bytes("alice"));

  // WELCOME back (type 1) establishes the client, which then sends the
  // queued DATA frame.
  util::Bytes welcome_frame;
  ctl.seal_into(1, hello_plain.data(), hello_plain.size(), welcome_frame);
  util::Bytes welcome;
  util::put_u32_be(welcome, static_cast<std::uint32_t>(9 + welcome_frame.size()));
  welcome.push_back(1);
  util::put_u64_be(welcome, 0);
  welcome.insert(welcome.end(), welcome_frame.begin(), welcome_frame.end());
  std::size_t written = 0;
  while (written < welcome.size()) {
    written += server_end.write_some(welcome.data() + written,
                                     welcome.size() - written);
  }

  // DATA: type 2 | trunk-sealed frame — must equal the old transport's
  // frame bit for bit (same keys, same seq, same wire format).
  const util::Bytes data = read_message(2);
  const util::Bytes frame_new(data.begin() + 1, data.end());
  EXPECT_EQ(frame_new, frame_old)
      << "event transport must preserve the sealed frame format exactly";
  loop.stop();
}

TEST(Differential, OldAndNewTransportsAgreeOnMailResults) {
  // Value-level differential: the same logical request served by the
  // thread-per-connection path (Connection::call into a registered service)
  // and by the event path (EventChannel into a ShardedMailBackend) must
  // produce the same application result.
  TrunkWorld w;
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  auto service = minilang::instantiate(registry, "MailServer");
  w.server_board.register_service("mail", service);
  auto conn = w.connect();
  conn->call(Connection::End::kA, "mail", "registerAccount",
             {Value::string("alice"), Value::string("555"),
              Value::string("a@x")});
  const Value old_phone = conn->call(Connection::End::kA, "mail", "getPhone",
                                     {Value::string("alice")});

  mail::ShardedMailBackend backend(2);
  backend.register_account("alice", "555", "a@x");
  Reactor reactor({.workers = 2});
  reactor.start();
  const int worker = static_cast<int>(backend.shard_of("alice"));
  auto pair = make_memory_conduit_pair();
  mail::MailShard& shard = backend.shard(static_cast<std::size_t>(worker));
  auto server = reactor.serve(
      worker, std::move(pair.b), conn,
      [&shard](const util::Bytes& request, util::Bytes& response) {
        shard.handle(request, response);
      });
  auto client = reactor.open(worker, std::move(pair.a), conn, 1, "alice");
  const Value new_phone = call_via(client, "getPhone",
                                   {Value::string("alice")});
  EXPECT_EQ(new_phone.as_string(), old_phone.as_string());
  reactor.stop();
}

// ---------------------------------------------------------- shard routing

TEST(Sharding, ReactorAndBackendAgreeOnPlacement) {
  Reactor reactor({.workers = 3});
  mail::ShardedMailBackend backend(3);
  for (const char* name :
       {"alice", "bob", "carol", "dave", "erin", "frank", "mallory",
        "peggy", "trent", "victor", "walter", "a", "zz-top"}) {
    EXPECT_EQ(reactor.shard_of(name), backend.shard_of(name))
        << "placement must be one pure function across tiers: " << name;
  }
  // Not all mailboxes on one shard (sanity on the hash spread).
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100; ++i) {
    ++counts[backend.shard_of("mailbox-" + std::to_string(i))];
  }
  for (int c : counts) EXPECT_GT(c, 0);
}

TEST(Sharding, RequestsLandOnTheOwningShard) {
  TrunkWorld w;
  auto trunk = w.connect();
  mail::ShardedMailBackend backend(2);
  Reactor reactor({.workers = 2});
  reactor.start();

  const std::vector<std::string> users = {"alice", "bob", "carol", "dave"};
  for (const auto& user : users) {
    backend.register_account(user, "ph-" + user, user + "@x");
  }
  std::vector<std::shared_ptr<EventChannel>> channels;
  std::uint64_t session = 1;
  for (const auto& user : users) {
    const int worker = static_cast<int>(backend.shard_of(user));
    auto pair = make_memory_conduit_pair();
    mail::MailShard& shard = backend.shard(static_cast<std::size_t>(worker));
    channels.push_back(reactor.serve(
        worker, std::move(pair.b), trunk,
        [&shard](const util::Bytes& request, util::Bytes& response) {
          shard.handle(request, response);
        }));
    auto client = reactor.open(worker, std::move(pair.a), trunk, session++,
                               user);
    const Value phone = call_via(client, "getPhone", {Value::string(user)});
    EXPECT_EQ(phone.as_string(), "ph-" + user);
    channels.push_back(std::move(client));
  }
  for (auto& channel : channels) channel->begin_drain();
  ASSERT_TRUE(eventually([&] {
    for (const auto& channel : channels) {
      if (channel->state() != EventChannel::State::kClosed) return false;
    }
    return true;
  }));
  reactor.stop();
  // Every shard served exactly its own mailboxes.
  std::vector<std::uint64_t> expected(2, 0);
  for (const auto& user : users) ++expected[backend.shard_of(user)];
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(backend.shard(s).requests(), expected[s]) << "shard " << s;
  }
  EXPECT_EQ(backend.total_requests(), users.size());
}

// -------------------------------------------------------------- heartbeats

TEST(Reactor, WheelScheduledHeartbeatsReplaceDriverThreads) {
  TrunkWorld w;
  auto conn = w.connect();
  Reactor reactor({.workers = 2});
  reactor.start();
  const std::uint64_t beats_before = conn->stats().heartbeats;
  auto handle = reactor.schedule_heartbeats(conn, 5ms);
  ASSERT_TRUE(eventually([&] { return handle.beats() >= 3; }));
  EXPECT_GT(conn->stats().heartbeats, beats_before)
      << "probes must reach Connection::heartbeat";
  handle.cancel();
  EXPECT_FALSE(handle.active());
  const std::uint64_t at_cancel = handle.beats();
  std::this_thread::sleep_for(30ms);
  EXPECT_LE(handle.beats(), at_cancel + 1) << "cancel must stop the schedule";
  reactor.stop();
}

TEST(Reactor, ThreadCountStaysBoundedByWorkers) {
  // Sanitizer runtimes (TSan) lazily spawn a persistent helper thread on the
  // first pthread_create; force that before taking the baseline so the
  // worker-count arithmetic below is exact under every build flavor.
  std::thread([] {}).join();
  const int base = count_os_threads();
  if (base < 0) GTEST_SKIP() << "no /proc/self/status";
  TrunkWorld w;
  auto trunk = w.connect();
  Reactor reactor({.workers = 2});
  reactor.start();
  const int with_reactor = count_os_threads();
  EXPECT_EQ(with_reactor, base + 2) << "one OS thread per worker";

  // 32 sessions + heartbeat monitoring: zero additional threads — the whole
  // point of replacing thread-per-connection sessions and heartbeats.
  std::vector<std::shared_ptr<EventChannel>> channels;
  for (int i = 0; i < 32; ++i) {
    auto pair = make_memory_conduit_pair();
    const int worker = i % 2;
    channels.push_back(reactor.serve(
        worker, std::move(pair.b), trunk,
        [](const util::Bytes& request, util::Bytes& response) {
          response = request;
        }));
    channels.push_back(reactor.open(worker, std::move(pair.a), trunk,
                                    static_cast<std::uint64_t>(i + 1),
                                    "user-" + std::to_string(i)));
  }
  auto heartbeats = reactor.schedule_heartbeats(trunk, 10ms);
  ASSERT_TRUE(eventually([&] {
    for (const auto& channel : channels) {
      if (channel->state() != EventChannel::State::kEstablished) return false;
    }
    return true;
  }));
  EXPECT_EQ(count_os_threads(), with_reactor)
      << "sessions and heartbeats must not spawn threads";
  heartbeats.cancel();
  reactor.stop();
  EXPECT_LE(count_os_threads(), base) << "stop() joins the workers";
}

}  // namespace
}  // namespace psf::switchboard
