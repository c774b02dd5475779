// mail_event: the warm data plane. An open loop drives mail requests over
// derived event sessions: submit -> seal -> memory conduit -> reactor batch
// -> unseal -> MailShard (MiniLang) -> reply.
//
// One generator (the main thread) sends Poisson arrivals into a 2-worker
// Reactor; both ends of every session live on the worker that owns its
// mailbox, so the process runs three OS threads. Each request is timed from
// its due time, so a stall also charges the requests queued behind it.
// Sessions are multiplexed over one trunk Connection per worker plus one
// probe trunk; no sockets, no signatures, proofs, planner or VIG on the
// measured path.
//
// Session popularity is Zipf-skewed over >= 20k sessions, so the cold
// sessions' state falls outside L2. The mix is 80% getPhone, 15% sendMail
// (bodies log-uniform 16 B .. 16 KiB, to the sender's own mailbox) and 5%
// fetchMail, so writes and drains sit beside reads.
//
// Phases: set-up (three times, median reported), warm-up, the reference
// step at the fixed reference rate (p50/p99), the revocation probe, then a
// search over the fixed capacity ladder. Every phase offers a fixed number
// of requests, so the number of requests a run attempts depends on
// --seconds alone, not on the seed or the machine. Between phases every
// mailbox with undelivered mail is drained (untimed), which bounds memory
// and completes the exactly-once delivery check.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "drbac/credential.hpp"
#include "drbac/proof_cache.hpp"
#include "mail/components.hpp"
#include "mail/sharded.hpp"
#include "minilang/value_codec.hpp"
#include "obs/trace.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/reactor.hpp"

namespace perfbench {

namespace {

using psf::drbac::Entity;
using psf::drbac::Principal;
using psf::minilang::Value;
using psf::switchboard::Connection;
using psf::switchboard::EventChannel;
using psf::util::Bytes;

constexpr int kWorkers = 2;
constexpr std::size_t kSessions = 20'000;
constexpr std::size_t kProbeSessions = 8;
constexpr int kProbeRequestsPerSession = 8;
constexpr double kZipfExponent = 0.99;
constexpr std::size_t kMinBody = 16;
constexpr std::size_t kMaxBody = 16 * 1024;
constexpr std::size_t kBodyPool = 64 * 1024;
constexpr double kSloUs = 1000;          // the repo's loop.lag SLO
// The fixed reference offered rate (requests per second), about half the
// seed program's capacity on a 4-vCPU container: p50_us and ops_per_cpu_s
// are taken at this rate.
constexpr double kRefRate = 30'000;
// The fixed ladder of offered rates for capacity_rps, ascending. Near the
// knee (60k-100k) the rungs are 4-5% apart.
constexpr std::array<double, 29> kLadder = {
    10'000, 15'000, 20'000, 25'000, 30'000, 35'000, 40'000, 44'000,
    48'000, 52'000, 56'000, 60'000, 63'000, 66'000, 69'000, 72'000,
    75'000, 78'000, 81'000, 84'000, 88'000, 92'000, 96'000, 100'000,
    110'000, 120'000, 140'000, 160'000, 200'000};
constexpr double kGenLagBoundUs = 500;   // generator lag p99 beyond this: disturbed
constexpr int kMinLadderSteps = 8;       // the reference step's re-runs stop here

enum class Kind : std::uint8_t { kGetPhone, kSendMail, kFetchMail };

std::uint64_t op_key(std::size_t session, std::uint32_t seq) {
  return (static_cast<std::uint64_t>(session) << 32) | seq;
}

struct Pending {
  std::uint64_t id;
  std::uint32_t len;
};

// One session: both channel ends plus the per-session bookkeeping. The
// generator-side fields are touched only by the main thread; the
// loop-side fields only by the owning worker's loop thread.
struct Session {
  std::shared_ptr<EventChannel> client, server;
  std::string mailbox;
  int worker = 0;
  Bytes expect_phone;  // encoded [true, phone]
  // main thread
  std::uint32_t submitted = 0;
  // loop thread
  std::uint32_t handled = 0;
  std::vector<Pending> mail;  // sent, not yet fetched, in send order
  std::uint64_t established_ns = 0;
};

struct OpRec {
  std::uint64_t due_ns = 0, submit_ns = 0, submit_end_ns = 0, done_ns = 0,
                cb_end_ns = 0;
  std::uint32_t session = 0;
  std::uint32_t seq = 0;
  Kind kind = Kind::kGetPhone;
  bool ok = false;
};

struct Phase {
  std::vector<OpRec> ops;
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};
  bool traced = false;
};

class MailWorld {
 public:
  MailWorld(const Options& options, SpanRecorder& spans)
      : options_(options),
        spans_(spans),
        rng_(derive_seed(options.seed, 21)),
        client_board_("client", &net_, clock_),
        server_board_("server", &net_, clock_),
        backend_(kWorkers) {
    span_root_ = spans_.intern("bench.op");
    span_submit_ = spans_.intern("eventchannel.submit");
    span_rtt_ = spans_.intern("switchboard.event.rtt");
    span_check_ = spans_.intern("bench.check");
    span_handle_ = spans_.intern("mail.handle");
    net_.connect("client", "server", {psf::util::kMillisecond, 0, false});
    guard_ = Entity::create("Guard", rng_);
    const Entity server = Entity::create("Server", rng_);
    psf::switchboard::AuthorizationSuite server_suite;
    server_suite.identity = server;
    server_suite.authorizer =
        std::make_shared<psf::switchboard::RoleAuthorizer>(
            &repo_, psf::drbac::role_of(guard_, "Member"));
    server_board_.set_suite(server_suite);

    // One data trunk per worker and one probe trunk, each with its own
    // client credential so revoking the probe's touches no data session.
    for (int t = 0; t <= kWorkers; ++t) {
      const Entity client = Entity::create("Client" + std::to_string(t), rng_);
      auto credential = psf::drbac::issue(
          guard_, Principal::of_entity(client),
          psf::drbac::role_of(guard_, "Member"), {}, false, 0, 0,
          repo_.next_serial());
      repo_.add(credential);
      psf::switchboard::AuthorizationSuite suite;
      suite.identity = client;
      suite.credentials = {credential};
      suite.authorizer =
          std::make_shared<psf::switchboard::AcceptAllAuthorizer>();
      auto trunk = client_board_.connect(server_board_, suite, rng_);
      if (!trunk.ok()) {
        throw std::runtime_error("trunk handshake: " + trunk.error().message);
      }
      trunks_.push_back(trunk.value());
      trunk_credentials_.push_back(credential);
    }

    // Accounts with seeded phones; the popularity order is a seeded
    // permutation, so hot sessions are scattered through memory.
    sessions_.resize(kSessions + kProbeSessions);
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      Session& s = sessions_[i];
      s.mailbox = (i < kSessions ? "m" : "probe") +
                  std::to_string(i < kSessions ? i : i - kSessions);
      const std::string phone = "+1-555-" + std::to_string(rng_.next_below(10'000'000));
      backend_.register_account(s.mailbox, phone, s.mailbox + "@mail.example");
      s.worker = static_cast<int>(backend_.shard_of(s.mailbox));
      s.expect_phone = psf::minilang::encode_values(
          {Value::boolean(true), Value::string(phone)});
    }
    std::vector<std::uint32_t> order(kSessions);
    for (std::size_t i = 0; i < kSessions; ++i) order[i] = static_cast<std::uint32_t>(i);
    for (std::size_t i = kSessions - 1; i > 0; --i) {
      std::swap(order[i], order[rng_.next_below(i + 1)]);
    }
    double total = 0;
    zipf_cdf_.resize(kSessions);
    for (std::size_t r = 0; r < kSessions; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      zipf_cdf_[r] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
    zipf_session_ = std::move(order);

    body_pool_.resize(kBodyPool);
    for (auto& c : body_pool_) c = static_cast<char>('a' + rng_.next_below(26));
    send_ok_ = psf::minilang::encode_values({Value::boolean(true),
                                             Value::boolean(true)});

    reactor_ = std::make_unique<psf::switchboard::Reactor>(
        psf::switchboard::ReactorOptions{.workers = kWorkers});
    reactor_->start();
    const std::int64_t rss_before = current_rss_kb();
    open_sessions();
    rss_per_session_kb_ =
        static_cast<double>(current_rss_kb() - rss_before) /
        static_cast<double>(sessions_.size());
  }

  ~MailWorld() {
    for (auto& s : sessions_) {
      if (s.client) s.client->close();
      if (s.server) s.server->close();
    }
    reactor_->stop();
    sessions_.clear();
  }

  MailWorld(const MailWorld&) = delete;
  MailWorld& operator=(const MailWorld&) = delete;

  // ---------------------------------------------------------------- phases

  struct PhaseStats {
    std::vector<double> latency_us, rtt_us, gen_lag_us;
    std::vector<Kind> kinds;
    double backlog_growth_per_s = 0;
    std::uint64_t ops = 0, failed = 0;
    double worker_cpu_s = 0;  // reactor workers' CPU time over the phase
  };

  // Offer `count` Poisson arrivals at `rate`; wait for every reply.
  PhaseStats run_phase(double rate, std::size_t count, std::uint64_t salt,
                       bool traced) {
    psf::util::Rng rng(derive_seed(options_.seed, salt));
    auto phase = std::make_shared<Phase>();
    phase->traced = traced;
    // Callbacks hold indexes into ops: it never reallocates.
    phase->ops.reserve(count);

    PhaseStats stats;
    tracing_.store(traced);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> backlog;  // t, n
    const std::uint64_t start = now_ns() + 1'000'000;
    // The workers' CPU time is the process's minus this (generator) thread's.
    const double cpu_before = process_cpu_s() - thread_cpu_s();
    double due = static_cast<double>(start);
    std::uint64_t next_sample = start;
    const double mean_gap_ns = 1e9 / rate;
    for (std::size_t index = 0; index < count; ++index) {
      due += -std::log(1.0 - rng.next_double()) * mean_gap_ns;
      const auto due_ns = static_cast<std::uint64_t>(due);
      const std::size_t session = pick_session(rng);
      const double mix = rng.next_double();
      const Kind kind = mix < 0.80   ? Kind::kGetPhone
                        : mix < 0.95 ? Kind::kSendMail
                                     : Kind::kFetchMail;
      // Log-uniform body length for sendMail.
      const auto body_len =
          kind != Kind::kSendMail
              ? 0u
              : static_cast<std::uint32_t>(std::exp(
                    std::log(static_cast<double>(kMinBody)) +
                    rng.next_double() *
                        std::log(static_cast<double>(kMaxBody) /
                                 static_cast<double>(kMinBody))));
      Bytes request = build_request(session, kind, next_message_id_, body_len);
      phase->ops.emplace_back();
      OpRec& rec = phase->ops.back();
      rec.session = static_cast<std::uint32_t>(session);
      rec.kind = kind;
      rec.due_ns = due_ns;
      rec.seq = sessions_[session].submitted++;
      std::uint64_t now = now_ns();
      while (now < due_ns) now = now_ns();
      if (now >= next_sample) {
        backlog.emplace_back(now, index - phase->completed.load());
        next_sample = now + 10'000'000;
      }
      rec.submit_ns = now;
      submit(phase, index, session, kind,
             kind == Kind::kSendMail ? next_message_id_++ : 0, body_len,
             std::move(request));
      rec.submit_end_ns = now_ns();
    }
    sample_threads();
    wait_all(*phase);
    tracing_.store(false);
    stats.worker_cpu_s = process_cpu_s() - thread_cpu_s() - cpu_before;
    collect(*phase, stats);
    if (backlog.size() >= 8) {
      const std::size_t q = backlog.size() / 4;
      double first = 0, last = 0;
      for (std::size_t i = 0; i < q; ++i) {
        first += static_cast<double>(backlog[i].second);
        last += static_cast<double>(backlog[backlog.size() - q + i].second);
      }
      const double dt =
          static_cast<double>(backlog[backlog.size() - q].first -
                              backlog[0].first) / 1e9;
      stats.backlog_growth_per_s = dt > 0 ? (last - first) / q / dt : 0;
    }
    return stats;
  }

  // Fetch every mailbox that still holds mail (untimed); the fetch checks
  // complete the exactly-once delivery check.
  void drain_mail(std::uint64_t& failed) {
    std::vector<std::size_t> with_mail;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      if (!sessions_[i].mail.empty()) with_mail.push_back(i);
    }
    failed += run_batch(with_mail, Kind::kFetchMail)->failed.load();
  }

  // Revoke the probe trunk's credential, then submit on its sessions. Each
  // request served after the revocation is a failed op.
  struct ProbeResult {
    std::uint64_t attempted = 0, served_after_revoke = 0, failed_before = 0;
    bool suspended = false;
    double revoke_us = 0;
  };
  ProbeResult revocation_probe() {
    ProbeResult out;
    std::vector<std::size_t> probes;
    for (std::size_t p = 0; p < kProbeSessions; ++p) probes.push_back(kSessions + p);
    // Before revocation every probe request must be served.
    const auto before = run_batch(probes, Kind::kGetPhone);
    out.attempted += before->ops.size();
    out.failed_before = before->failed.load();
    const std::uint64_t t0 = now_ns();
    repo_.revoke(trunk_credentials_.back()->serial);
    out.revoke_us = us_between(t0, now_ns());
    out.suspended = trunks_.back()->suspended(Connection::End::kA);
    std::vector<std::size_t> after_sessions;
    for (int r = 0; r < kProbeRequestsPerSession; ++r) {
      after_sessions.insert(after_sessions.end(), probes.begin(), probes.end());
    }
    const auto after = run_batch(after_sessions, Kind::kGetPhone);
    out.attempted += after->ops.size();
    for (const OpRec& rec : after->ops) {
      if (rec.ok) ++out.served_after_revoke;
    }
    return out;
  }

  // ------------------------------------------------------------ layer data

  struct ChannelTotals {
    std::uint64_t frames_in = 0, bytes = 0, batches = 0;
  };
  ChannelTotals channel_totals() const {
    ChannelTotals t;
    for (const auto& s : sessions_) {
      for (const auto* ch : {s.client.get(), s.server.get()}) {
        const auto st = ch->stats();
        t.frames_in += st.frames_in;
        t.batches += st.batches;
      }
      const auto cs = s.client->stats();
      t.bytes += cs.bytes_in + cs.bytes_out;
    }
    return t;
  }

  std::vector<double> session_setup_us() const {
    std::vector<double> out;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      out.push_back(us_between(open_ns_[i], sessions_[i].established_ns));
    }
    return out;
  }

  double rss_per_session_kb() const { return rss_per_session_kb_; }
  const std::shared_ptr<Connection>& trunk(int t) const {
    return trunks_[static_cast<std::size_t>(t)];
  }
  std::uint32_t span_root() const { return span_root_; }
  const std::vector<psf::drbac::DelegationPtr>& trunk_credentials() const {
    return trunk_credentials_;
  }
  const Entity& guard() const { return guard_; }
  std::uint32_t span_handle() const { return span_handle_; }
  std::uint32_t span_rtt() const { return span_rtt_; }

  void stop_reactor() { reactor_->stop(); }

 private:
  // Submit one untimed request of `kind` per entry of `sessions` (a session
  // may repeat) and wait for every reply.
  std::shared_ptr<Phase> run_batch(const std::vector<std::size_t>& sessions,
                                   Kind kind) {
    auto phase = std::make_shared<Phase>();
    phase->ops.resize(sessions.size());
    for (std::size_t index = 0; index < sessions.size(); ++index) {
      const std::size_t i = sessions[index];
      OpRec& rec = phase->ops[index];
      rec.session = static_cast<std::uint32_t>(i);
      rec.kind = kind;
      rec.seq = sessions_[i].submitted++;
      rec.due_ns = rec.submit_ns = now_ns();
      submit(phase, index, i, kind, 0, 0, build_request(i, kind, 0, 0));
    }
    wait_all(*phase);
    return phase;
  }

  std::size_t pick_session(psf::util::Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - zipf_cdf_.begin()), kSessions - 1);
    return zipf_session_[rank];
  }

  // The body of message `id`: a deterministic slice of the seeded pool.
  std::string_view body_of(std::uint64_t id, std::uint32_t len) const {
    const std::size_t offset = (id * 7919) % (kBodyPool - kMaxBody);
    return std::string_view(body_pool_.data() + offset, len);
  }

  Bytes build_request(std::size_t session, Kind kind, std::uint64_t message_id,
                      std::uint32_t body_len) const {
    const Session& s = sessions_[session];
    std::vector<Value> request;
    request.push_back(Value::string("mail"));
    switch (kind) {
      case Kind::kGetPhone:
        request.push_back(Value::string("getPhone"));
        request.push_back(Value::string(s.mailbox));
        break;
      case Kind::kSendMail:
        request.push_back(Value::string("sendMail"));
        request.push_back(psf::mail::make_message(
            s.mailbox, s.mailbox, std::to_string(message_id),
            std::string(body_of(message_id, body_len))));
        break;
      case Kind::kFetchMail:
        request.push_back(Value::string("fetchMail"));
        request.push_back(Value::string(s.mailbox));
        break;
    }
    Bytes plain;
    psf::obs::append_trace_header(psf::obs::SpanContext{}, plain);
    psf::minilang::encode_values_into(request, plain);
    return plain;
  }

  // The callback shares ownership of `phase`: a reply that arrives after
  // its phase was abandoned (an exception unwinding the run) still has
  // somewhere to land.
  void submit(const std::shared_ptr<Phase>& phase, std::size_t index,
              std::size_t session, Kind kind, std::uint64_t message_id,
              std::uint32_t body_len, Bytes request) {
    sessions_[session].client->submit(
        std::move(request),
        [this, phase, index, session, kind, message_id,
         body_len](psf::util::Result<Bytes> response) {
          OpRec& rec = phase->ops[index];
          rec.done_ns = now_ns();
          rec.ok = response.ok() &&
                   check(session, kind, message_id, body_len, response.value());
          if (!rec.ok) phase->failed.fetch_add(1, std::memory_order_relaxed);
          rec.cb_end_ns = now_ns();
          phase->completed.fetch_add(1, std::memory_order_release);
        });
  }

  // Runs on the session's loop thread.
  bool check(std::size_t session, Kind kind, std::uint64_t message_id,
             std::uint32_t body_len, const Bytes& response) {
    Session& s = sessions_[session];
    switch (kind) {
      case Kind::kGetPhone:
        return response == s.expect_phone;
      case Kind::kSendMail:
        if (response != send_ok_) return false;
        s.mail.push_back(Pending{message_id, body_len});
        return true;
      case Kind::kFetchMail: {
        auto decoded = psf::minilang::decode_values(response);
        if (!decoded.ok() || decoded.value().size() != 2 ||
            !decoded.value()[0].is_bool() || !decoded.value()[0].as_bool() ||
            !decoded.value()[1].is_list()) {
          return false;
        }
        const auto& got = *decoded.value()[1].as_list();
        bool ok = got.size() == s.mail.size();
        for (std::size_t i = 0; ok && i < got.size(); ++i) {
          if (!got[i].is_map()) {
            ok = false;
            break;
          }
          const auto& m = *got[i].as_map();
          auto subject = m.find("subject");
          auto body = m.find("body");
          ok = subject != m.end() && body != m.end() &&
               subject->second.is_string() && body->second.is_string() &&
               subject->second.as_string() == std::to_string(s.mail[i].id) &&
               body->second.as_string() == body_of(s.mail[i].id, s.mail[i].len);
        }
        // Whatever came back has left the mailbox: expect none of it again.
        s.mail.clear();
        return ok;
      }
    }
    return false;
  }

  void wait_all(Phase& phase) {
    const std::uint64_t deadline = now_ns() + 60'000'000'000ull;
    while (phase.completed.load(std::memory_order_acquire) < phase.ops.size()) {
      if (now_ns() > deadline) {
        throw std::runtime_error("mail_event: replies missing after 60 s");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  void collect(const Phase& phase, PhaseStats& stats) {
    for (const OpRec& rec : phase.ops) {
      stats.latency_us.push_back(us_between(rec.due_ns, rec.done_ns));
      stats.rtt_us.push_back(us_between(rec.submit_ns, rec.done_ns));
      stats.gen_lag_us.push_back(us_between(rec.due_ns, rec.submit_ns));
      stats.kinds.push_back(rec.kind);
      if (phase.traced) {
        const std::uint64_t op = op_key(rec.session, rec.seq);
        spans_.record(op, span_root_, SpanRecorder::kNoParent, rec.due_ns,
                      rec.cb_end_ns);
        spans_.record(op, span_submit_, span_root_, rec.submit_ns,
                      rec.submit_end_ns);
        spans_.record(op, span_rtt_, span_root_, rec.submit_ns, rec.done_ns);
        spans_.record(op, span_check_, span_root_, rec.done_ns, rec.cb_end_ns);
      }
    }
    stats.ops = phase.ops.size();
    stats.failed = phase.failed.load();
  }

  void open_sessions() {
    open_ns_.assign(sessions_.size(), 0);
    std::atomic<std::size_t> established{0};
    constexpr std::size_t kBatch = 16;
    for (std::size_t first = 0; first < sessions_.size(); first += kBatch) {
      const std::size_t last = std::min(sessions_.size(), first + kBatch);
      for (std::size_t i = first; i < last; ++i) {
        Session& s = sessions_[i];
        const bool probe = i >= kSessions;
        auto trunk = trunks_[probe ? kWorkers : static_cast<std::size_t>(s.worker)];
        auto pair = psf::switchboard::make_memory_conduit_pair();
        auto& shard = backend_.shard(static_cast<std::size_t>(s.worker));
        s.server = reactor_->serve(
            s.worker, std::move(pair.b), trunk,
            [this, &shard, i](const Bytes& request, Bytes& response) {
              Session& self = sessions_[i];
              if (!tracing_.load(std::memory_order_relaxed)) {
                shard.handle(request, response);
                ++self.handled;
                return;
              }
              const std::uint64_t t0 = now_ns();
              shard.handle(request, response);
              spans_.record(op_key(i, self.handled++), span_handle_,
                            span_rtt_, t0, now_ns());
            });
        open_ns_[i] = now_ns();
        s.client = reactor_->open(s.worker, std::move(pair.a), trunk,
                                  static_cast<std::uint64_t>(i) + 1, s.mailbox);
        s.client->set_established_callback([&s, &established] {
          s.established_ns = now_ns();
          established.fetch_add(1, std::memory_order_release);
        });
      }
      const std::uint64_t deadline = now_ns() + 60'000'000'000ull;
      while (established.load(std::memory_order_acquire) < last) {
        if (now_ns() > deadline) {
          throw std::runtime_error("mail_event: sessions not established");
        }
        std::this_thread::yield();
      }
    }
  }

  const Options& options_;
  SpanRecorder& spans_;
  std::uint32_t span_root_ = 0, span_submit_ = 0, span_rtt_ = 0,
                span_check_ = 0, span_handle_ = 0;
  // Set while a traced phase runs; the serve handlers time
  // MailShard::handle only then.
  std::atomic<bool> tracing_{false};
  psf::util::Rng rng_;
  std::shared_ptr<psf::util::SimClock> clock_ =
      std::make_shared<psf::util::SimClock>();
  psf::switchboard::Network net_;
  psf::drbac::Repository repo_;
  Entity guard_;
  psf::switchboard::Switchboard client_board_;
  psf::switchboard::Switchboard server_board_;
  std::vector<std::shared_ptr<Connection>> trunks_;
  std::vector<psf::drbac::DelegationPtr> trunk_credentials_;
  psf::mail::ShardedMailBackend backend_;
  std::vector<Session> sessions_;
  std::vector<double> zipf_cdf_;
  std::vector<std::uint32_t> zipf_session_;
  std::string body_pool_;
  Bytes send_ok_;
  std::uint64_t next_message_id_ = 1;
  std::vector<std::uint64_t> open_ns_;
  double rss_per_session_kb_ = 0;
  // Declared last: stopped (and its loop threads joined) first.
  std::unique_ptr<psf::switchboard::Reactor> reactor_;
};

}  // namespace

Result run_mail_event(const Options& options) {
  Result result;
  const bool traced = options.trace;
  SpanRecorder spans(traced, 1 << 22);

  // Set-up: three times (the last one is kept), median reported.
  const int setups = traced ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<MailWorld> world;
  for (int i = 0; i < setups; ++i) {
    world.reset();
    psf::drbac::SignatureCache::instance().clear();
    const std::uint64_t t0 = now_ns();
    world = std::make_unique<MailWorld>(options, spans);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    sample_threads();
  }
  MailWorld& w = *world;

  // `attempted` counts the requests the phases offer, a number fixed by
  // --seconds. The untimed drains are the delivery check: their fetches are
  // not counted, but a fetch that misses counts as a failed op.
  std::uint64_t attempted = 0, failed = 0;
  auto account = [&](const MailWorld::PhaseStats& p) {
    attempted += p.ops;
    failed += p.failed;
  };
  auto drain = [&] { w.drain_mail(failed); };
  const double ref = kRefRate;
  const double s = options.seconds;
  // The number of requests that last `seconds` at the reference rate.
  auto ref_ops = [&](double seconds) {
    return static_cast<std::size_t>(std::max(1.0, std::round(ref * seconds)));
  };
  // The untraced run's measured requests come in units of chunk_ops, one
  // step_s at the reference rate: ref_chunks for the reference step and
  // ladder_steps for the capacity search.
  const double step_s = std::max(0.3, 0.05 * s);
  const std::size_t chunk_ops = ref_ops(step_s);
  const int ref_chunks = std::max(1, static_cast<int>(std::round(0.4 * s / step_s)));
  int ladder_steps = std::max(1, static_cast<int>(std::round(1.1 * s / step_s)));
  std::uint64_t salt = 100;

  account(w.run_phase(ref, ref_ops(0.05 * s), salt++, false));  // warm-up
  drain();

  auto append = [](MailWorld::PhaseStats& into, const MailWorld::PhaseStats& p) {
    into.latency_us.insert(into.latency_us.end(), p.latency_us.begin(),
                           p.latency_us.end());
    into.rtt_us.insert(into.rtt_us.end(), p.rtt_us.begin(), p.rtt_us.end());
    into.gen_lag_us.insert(into.gen_lag_us.end(), p.gen_lag_us.begin(),
                           p.gen_lag_us.end());
    into.kinds.insert(into.kinds.end(), p.kinds.begin(), p.kinds.end());
    into.ops += p.ops;
    into.failed += p.failed;
    into.worker_cpu_s += p.worker_cpu_s;
    into.backlog_growth_per_s = std::max(into.backlog_growth_per_s, p.backlog_growth_per_s);
  };
  ObsSnapshot before, after;
  MailWorld::ChannelTotals ch_before, ch_after;
  MailWorld::PhaseStats ref_phase;
  std::vector<double> chunk_p50_us;
  double peak_rss_mb = 0;
  double overhead_pct = 0, layer_ops = 0, layer_wall_s = 0;
  if (traced) {
    // Untraced and traced chunks alternate at the reference rate; the
    // per-layer deltas cover all four chunks.
    MailWorld::PhaseStats baseline;
    // No drain inside the window, so the loop deltas see only the
    // reference traffic.
    const std::uint64_t attempted_before = attempted;
    const std::uint64_t t0 = now_ns();
    before = ObsSnapshot::take();
    ch_before = w.channel_totals();
    for (int chunk = 0; chunk < 4; ++chunk) {
      const auto p = w.run_phase(ref, ref_ops(0.2 * s), salt++, chunk % 2 == 1);
      account(p);
      append(chunk % 2 ? ref_phase : baseline, p);
    }
    ch_after = w.channel_totals();
    after = ObsSnapshot::take();
    layer_wall_s = static_cast<double>(now_ns() - t0) / 1e9;
    layer_ops = static_cast<double>(attempted - attempted_before);
    drain();
    overhead_pct =
        (median(ref_phase.latency_us) / median(baseline.latency_us) - 1) * 100;
  } else {
    // The reference step runs chunk by chunk, drained in between, until
    // ref_chunks chunks had an on-time generator (lag p99 within
    // kGenLagBoundUs): a stall of the shared machine is waited out, not
    // read as a slow program. Each extra chunk is taken from the capacity
    // search, down to kMinLadderSteps, so `attempted` stays fixed. The
    // ref_chunks chunks whose generator ran most on time give the
    // reference metrics.
    std::vector<MailWorld::PhaseStats> chunks;
    std::vector<double> lags;
    int on_time = 0;
    while (on_time < ref_chunks) {
      if (static_cast<int>(chunks.size()) >= ref_chunks &&
          ladder_steps <= kMinLadderSteps) {
        break;
      }
      if (static_cast<int>(chunks.size()) >= ref_chunks) --ladder_steps;
      chunks.push_back(w.run_phase(ref, chunk_ops, salt++, false));
      account(chunks.back());
      drain();
      lags.push_back(tail_percentile(chunks.back().gen_lag_us, 99));
      if (lags.back() <= kGenLagBoundUs) ++on_time;
      // Peak RSS is read after the first ref_chunks chunks: how many more
      // run, and how far the capacity search climbs, depends on the
      // machine, and so would the traffic they add.
      if (static_cast<int>(chunks.size()) == ref_chunks) {
        peak_rss_mb = static_cast<double>(peak_rss_kb()) / 1024.0;
      }
    }
    std::vector<std::size_t> order(chunks.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return lags[a] < lags[b]; });
    order.resize(static_cast<std::size_t>(ref_chunks));
    std::sort(order.begin(), order.end());
    for (const std::size_t i : order) {
      chunk_p50_us.push_back(median(chunks[i].latency_us));
      append(ref_phase, chunks[i]);
    }
    result.info["ref_chunks_run"] = std::to_string(chunks.size());
  }
  result.info["spans_dropped"] = std::to_string(spans.dropped());
  const double gen_lag_p99 = tail_percentile(ref_phase.gen_lag_us, 99);
  if (gen_lag_p99 > kGenLagBoundUs) {
    result.disturbed.push_back(
        "generator lag p99 " + std::to_string(gen_lag_p99) +
        " us at the reference rate exceeds " + std::to_string(kGenLagBoundUs));
  }

  // The revocation probe (known defect of the measured program: derived
  // event sessions never consult trunk suspension). Served-after-revocation
  // requests are failed ops; they are reported, not hidden.
  const auto probe = w.revocation_probe();
  attempted += probe.attempted;
  failed += probe.served_after_revoke + probe.failed_before;
  result.check(probe.failed_before == 0,
               "probe sessions refused requests before revocation");
  result.check(probe.suspended, "probe trunk not suspended after revocation");
  result.info["probe_served_after_revoke"] =
      std::to_string(probe.served_after_revoke) + "/" +
      std::to_string(kProbeSessions * kProbeRequestsPerSession);

  // capacity_rps: the highest ladder rate whose p99 meets the SLO with no
  // growing backlog. The search runs ladder_steps steps of chunk_ops
  // requests; a step at the start rung, the one nearest twice the reference
  // rate, lasts half of step_s. It moves four rungs at a time until it
  // brackets the knee, then bisects; once bracketed, the remaining steps
  // re-measure the passing rung. A rung fails once it has failed twice in a
  // row: a transient stall of the shared machine can break one step's tail,
  // a saturated program breaks both.
  double capacity = 0;
  if (!traced) {
    const auto& ladder = kLadder;
    const int n = static_cast<int>(ladder.size());
    constexpr int kStride = 4;
    int i = 0;
    while (i + 1 < n && ladder[static_cast<std::size_t>(i)] < 2 * ref) ++i;
    // Per rung: steps passed, and failed steps since the last pass.
    std::vector<int> passes(ladder.size()), fails(ladder.size());
    int lo = -1;  // the highest passed rung below hi
    std::string trail;
    for (int step = 0; step < ladder_steps; ++step) {
      const auto r = static_cast<std::size_t>(i);
      const double rate = ladder[r];
      const auto p = w.run_phase(rate, chunk_ops, salt++, false);
      account(p);
      drain();
      const double p99 = windowed_percentile(p.latency_us, 99);
      const bool pass = p.failed == 0 && p99 <= kSloUs &&
                        p.backlog_growth_per_s <= 0.01 * rate;
      if (pass) {
        ++passes[r];
        fails[r] = 0;
      } else {
        ++fails[r];
      }
      trail += std::to_string(static_cast<long>(rate)) + ":p99=" +
               std::to_string(static_cast<long>(p99)) + "us,backlog+" +
               std::to_string(static_cast<long>(p.backlog_growth_per_s)) +
               "/s," + (pass ? "pass" : "fail") + " ";
      const int hi = static_cast<int>(
          std::find_if(fails.begin(), fails.end(), [](int f) { return f >= 2; }) -
          fails.begin());
      lo = -1;
      for (int k = 0; k < hi; ++k) {
        if (passes[static_cast<std::size_t>(k)] > 0) lo = k;
      }
      if (!pass && fails[r] < 2) continue;  // one more try at this rung
      if (hi - lo <= 1) {
        i = std::max(lo, 0);
      } else if (lo == -1) {
        i = std::max(0, std::min(i, hi) - kStride);
      } else if (hi == n) {
        i = std::min(n - 1, lo + kStride);
      } else {
        i = (lo + hi) / 2;
      }
    }
    capacity = lo >= 0 ? ladder[static_cast<std::size_t>(lo)] : 0;
    result.info["ladder"] = trail;
  }

  drain();
  result.attempted = attempted;
  result.failed = failed;

  if (!traced) {
    auto lat = ref_phase.latency_us;
    result.set("setup_s", median(setup_s), "s");
    // The median of the chunks' p50s: a burst of stalls moves one chunk's
    // p50, not the run's.
    result.set("p50_us", median(chunk_p50_us), "us");
    result.set("p99_us", tail_percentile(lat, 99), "us");
    // Requests the workers complete per second of their CPU time at the
    // reference rate, times the worker count.
    result.set("ops_per_cpu_s",
               static_cast<double>(ref_phase.ops) * kWorkers /
                   std::max(1e-9, ref_phase.worker_cpu_s),
               "1/s");
    result.set("capacity_rps", capacity, "1/s");
  } else {
    using O = ObsSnapshot;
    const double ops = std::max(1.0, layer_ops);
    auto cdelta = [&](const char* name) {
      return static_cast<double>(O::counter_delta(before, after, name));
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    auto rtt = ref_phase.rtt_us;
    result.set("switchboard.event.rtt_p50_us", median(rtt), "us");
    result.set("switchboard.event.rtt_p99_us", tail_percentile(rtt, 99), "us");
    // rtt minus the same request's MailShard::handle, matched by op id.
    {
      std::map<std::uint64_t, std::uint64_t> handle_ns;
      std::map<std::uint64_t, std::uint64_t> rtt_ns;
      for (const SpanRecord& sp : spans.collect()) {
        if (sp.name == w.span_handle()) handle_ns[sp.op] = sp.end_ns - sp.start_ns;
        if (sp.name == w.span_rtt()) rtt_ns[sp.op] = sp.end_ns - sp.start_ns;
      }
      std::vector<double> self_us;
      for (const auto& [op, r] : rtt_ns) {
        auto it = handle_ns.find(op);
        if (it != handle_ns.end() && r >= it->second) {
          self_us.push_back(static_cast<double>(r - it->second) / 1000.0);
        }
      }
      result.set("switchboard.event.transport_self_p50_us", median(self_us), "us");
      auto handle = spans.durations_us(w.span_handle());
      result.set("mail.handle_p50_us", median(handle), "us");
      result.set("mail.handle_p99_us", tail_percentile(handle, 99), "us");
    }
    result.set("switchboard.event.frames_per_batch",
               ratio(static_cast<double>(ch_after.frames_in - ch_before.frames_in),
                     static_cast<double>(ch_after.batches - ch_before.batches)),
               "count");
    result.set("switchboard.event.bytes_per_req",
               ratio(static_cast<double>(ch_after.bytes - ch_before.bytes), ops),
               "B");
    const double busy_us =
        static_cast<double>(O::hist_sum_delta(before, after, "psf.loop.fd_dispatch_us") +
                            O::hist_sum_delta(before, after, "psf.loop.task_run_us") +
                            O::hist_sum_delta(before, after, "psf.loop.timer_fire_us"));
    result.set("switchboard.loop.busy_frac",
               ratio(busy_us, kWorkers * layer_wall_s * 1e6), "ratio");
    result.set("switchboard.loop.sojourn_p99_us",
               O::hist_percentile_delta(before, after, "psf.loop.task_sojourn_us", 99),
               "us");
    auto setup_us = w.session_setup_us();
    result.set("switchboard.event.session_setup_us", median(setup_us), "us");
    result.set("switchboard.event.rss_per_session_kb", w.rss_per_session_kb(), "KiB");
    result.set("mail.shard.errors", cdelta("psf.mail.shard.errors"), "count");
    const double ic_hits = cdelta("psf.minilang.ic_hits");
    const double ic_misses = cdelta("psf.minilang.ic_misses");
    result.set("minilang.ic_hit_ratio", ratio(ic_hits, ic_hits + ic_misses), "ratio");
    result.set("minilang.interp_fallbacks_per_kop",
               ratio(cdelta("psf.minilang.interp_fallbacks") * 1000, ops), "count");
    result.set("obs.journal.events_per_op",
               ratio(cdelta("psf.obs.journal.events"), ops), "count");
    result.set("obs.lock.wait_us_per_op",
               ratio(static_cast<double>(O::hist_sum_delta_matching(
                         before, after, "psf.lock.", ".wait_us")),
                     ops),
               "us");
    result.set("bench.gen_lag_p99_us", gen_lag_p99, "us");
    result.set("bench.trace_overhead_pct", overhead_pct, "%");
    result.set("bench.unattributed_p50_us", median(spans.root_self_us(w.span_root())), "us");
    result.set("drbac.revoke_us", probe.revoke_us, "us");
  }
  result.info["gen_lag_p99_us"] = std::to_string(gen_lag_p99);
  result.info["ref_backlog_growth_per_s"] =
      std::to_string(ref_phase.backlog_growth_per_s);
  result.info["ref_ops"] = std::to_string(ref_phase.ops);
  for (int k = 0; k < 3; ++k) {
    std::vector<double> lat;
    for (std::size_t i = 0; i < ref_phase.kinds.size(); ++i) {
      if (static_cast<int>(ref_phase.kinds[i]) == k) lat.push_back(ref_phase.latency_us[i]);
    }
    const double p50 = median(lat);
    result.info["ref_kind" + std::to_string(k)] =
        "n=" + std::to_string(lat.size()) + " p50=" + std::to_string(p50) +
        " p99=" + std::to_string(tail_percentile(lat, 99));
  }
  result.info["rss_end_kb"] = std::to_string(current_rss_kb());

  // The reactor's workers stop here; the standalone obs timing then runs
  // at the worker count without exceeding it.
  w.stop_reactor();
  if (traced) {
    std::vector<SignedSample> samples;
    for (const auto& credential : w.trunk_credentials()) {
      samples.push_back({credential, &w.guard()});
    }
    measure_primitives(result, samples, *w.trunk(0), kWorkers, options.seed);
    if (!spans.write_jsonl(options.out_dir + "/spans-mail_event-" +
                           std::to_string(options.seed) + ".jsonl")) {
      std::cerr << "mail_event: could not write the span dump\n";
    }
  } else {
    result.set("peak_rss_mb", peak_rss_mb, "MB");
  }
  world.reset();
  return result;
}

}  // namespace perfbench
