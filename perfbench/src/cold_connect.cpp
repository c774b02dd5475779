// cold_connect: the cold path (credential verify -> proof search -> trunk
// handshake), one closed-loop caller on the main thread, no event loop.
//
// Every op is a new principal presenting one fresh leaf credential over a
// shared upper delegation graph; the server's RoleAuthorizer must verify the
// leaf, merge it and prove it reaches Org.Member. The op is
// Switchboard::connect plus one Connection::call. About 15% of ops instead
// revoke the leaf behind one of the live connections and call on it, which
// must be refused.
//
// The repository is rebuilt from the upper graph every kOpsPerRound ops, so
// every op sees a repository of bounded, seed-determined size and a run's
// state does not grow with its length.
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "crypto/dh.hpp"
#include "crypto/sign.hpp"
#include "drbac/credential.hpp"
#include "drbac/proof_cache.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "switchboard/channel.hpp"

namespace perfbench {

namespace {

using psf::drbac::DelegationPtr;
using psf::drbac::Entity;
using psf::drbac::Principal;
using psf::minilang::Value;
using psf::switchboard::Connection;

constexpr int kDepts = 8;
constexpr int kTeams = 16;
constexpr int kAssigners = 4;  // hold Org.Member' (right of assignment)
constexpr int kRogues = 2;     // issue Org.Member without that right
constexpr int kAccounts = 64;
constexpr std::size_t kOpsPerRound = 250;
constexpr double kRevokeShare = 0.15;
constexpr int kObsThreads = 2;  // mail_event's worker count

enum class Chain { kDepth1, kDepth2, kDepth3, kThirdParty, kDeadEnd, kRogue };

bool chain_allowed(Chain chain) {
  return chain != Chain::kDeadEnd && chain != Chain::kRogue;
}

// The shared upper graph: who may grant Org.Member, directly or through
// departments, teams, and assignment rights.
struct UpperGraph {
  Entity org, dead_end;
  std::vector<Entity> depts, teams, assigners, rogues;
  std::vector<DelegationPtr> credentials;
};

std::uint64_t g_serial = 1;

DelegationPtr issue(const Entity& issuer, const Principal& subject,
                    const psf::drbac::RoleRef& target, bool assignment,
                    std::uint64_t serial) {
  return psf::drbac::issue(issuer, subject, target, {}, assignment, 0, 0,
                           serial);
}

UpperGraph build_upper_graph(psf::util::Rng& rng) {
  UpperGraph g;
  g.org = Entity::create("Org", rng);
  g.dead_end = Entity::create("Elsewhere", rng);
  for (int i = 0; i < kDepts; ++i) {
    g.depts.push_back(Entity::create("Dept" + std::to_string(i), rng));
  }
  for (int i = 0; i < kTeams; ++i) {
    g.teams.push_back(Entity::create("Team" + std::to_string(i), rng));
  }
  for (int i = 0; i < kAssigners; ++i) {
    g.assigners.push_back(Entity::create("Partner" + std::to_string(i), rng));
  }
  for (int i = 0; i < kRogues; ++i) {
    g.rogues.push_back(Entity::create("Rogue" + std::to_string(i), rng));
  }
  const auto org_member = psf::drbac::role_of(g.org, "Member");
  for (const Entity& dept : g.depts) {
    g.credentials.push_back(issue(g.org, Principal::of_role(dept, "Member"),
                                  org_member, false, g_serial++));
  }
  for (int i = 0; i < kTeams; ++i) {
    const Entity& dept = g.depts[static_cast<std::size_t>(i % kDepts)];
    g.credentials.push_back(
        issue(dept, Principal::of_role(g.teams[static_cast<std::size_t>(i)],
                                       "Staff"),
              psf::drbac::role_of(dept, "Member"), false, g_serial++));
  }
  for (const Entity& assigner : g.assigners) {
    g.credentials.push_back(issue(g.org, Principal::of_entity(assigner),
                                  org_member, true, g_serial++));
  }
  return g;
}

// Benchmark-side Authorizer: delegates to the program's RoleAuthorizer and
// times the call from outside.
class TimedAuthorizer : public psf::switchboard::Authorizer {
 public:
  explicit TimedAuthorizer(std::shared_ptr<psf::switchboard::RoleAuthorizer> inner)
      : inner_(std::move(inner)) {}

  psf::util::Result<psf::drbac::Proof> authorize(
      const Principal& peer, const std::vector<DelegationPtr>& credentials,
      psf::util::SimTime now) override {
    last_start_ns = now_ns();
    auto result = inner_->authorize(peer, credentials, now);
    last_end_ns = now_ns();
    return result;
  }
  psf::drbac::Repository* repository() override {
    return inner_->repository();
  }

  std::uint64_t last_start_ns = 0;
  std::uint64_t last_end_ns = 0;

 private:
  std::shared_ptr<psf::switchboard::RoleAuthorizer> inner_;
};

struct Live {
  std::shared_ptr<Connection> connection;
  std::uint64_t leaf_serial = 0;
  std::string account;
};

// One op's generated inputs (made before the op's clock starts).
struct LeafInput {
  Entity principal;
  DelegationPtr leaf;
  const Entity* issuer = nullptr;
  Chain chain = Chain::kDepth1;
};

class World {
 public:
  World(std::uint64_t seed, const UpperGraph& graph)
      : rng_(derive_seed(seed, 11)),
        graph_(graph),
        client_board_("client", &net_, clock_),
        server_board_("server", &net_, clock_) {
    net_.connect("client", "server", {psf::util::kMillisecond, 0, false});
    psf::mail::register_all(registry_);
    service_ = psf::minilang::instantiate(registry_, "MailServer");
    for (int i = 0; i < kAccounts; ++i) {
      service_->call("registerAccount",
                     {Value::string(account(i)), Value::string(phone(i)),
                      Value::string(account(i) + "@org")});
    }
    server_board_.register_service("mail", service_);
    server_identity_ = Entity::create("Server", rng_);
    reset_round();
  }

  ~World() { close_all(); }

  static std::string account(int i) { return "acct" + std::to_string(i); }
  static std::string phone(int i) { return "555-" + std::to_string(7000 + i); }

  // Drop every live connection and rebuild the repository from the upper
  // graph. Untimed.
  void reset_round() {
    close_all();
    repo_ = std::make_unique<psf::drbac::Repository>();
    for (const auto& c : graph_.credentials) repo_->add(c);
    authorizer_ = std::make_shared<TimedAuthorizer>(
        std::make_shared<psf::switchboard::RoleAuthorizer>(
            repo_.get(), psf::drbac::role_of(graph_.org, "Member")));
    psf::switchboard::AuthorizationSuite suite;
    suite.identity = server_identity_;
    suite.authorizer = authorizer_;
    server_board_.set_suite(suite);
  }

  // Connect one more principal over a depth-1 leaf; the connection joins
  // the live set, so the next reset closes it.
  std::shared_ptr<Connection> probe_connection() {
    const Entity principal = Entity::create("Probe", rng_);
    psf::switchboard::AuthorizationSuite suite;
    suite.identity = principal;
    suite.credentials = {issue(graph_.org, Principal::of_entity(principal),
                               psf::drbac::role_of(graph_.org, "Member"),
                               false, g_serial++)};
    suite.authorizer =
        std::make_shared<psf::switchboard::AcceptAllAuthorizer>();
    auto connected = client_board_.connect(server_board_, suite, rng_);
    if (!connected.ok()) {
      throw std::runtime_error("probe connection: " +
                               connected.error().message);
    }
    live_.push_back(Live{connected.value(), suite.credentials[0]->serial,
                         account(0)});
    return connected.value();
  }

  void close_all() {
    for (auto& live : live_) live.connection->close("round reset");
    live_.clear();
  }

  LeafInput make_input(psf::util::Rng& rng, std::uint64_t op) {
    LeafInput in;
    in.principal = Entity::create("P" + std::to_string(op), rng);
    const double r = rng.next_double();
    auto pick = [&](const std::vector<Entity>& v) -> const Entity& {
      return v[rng.next_below(v.size())];
    };
    const Principal subject = Principal::of_entity(in.principal);
    const auto org_member = psf::drbac::role_of(graph_.org, "Member");
    if (r < 0.20) {
      in.chain = Chain::kDepth1;
      in.issuer = &graph_.org;
      in.leaf = issue(graph_.org, subject, org_member, false, g_serial++);
    } else if (r < 0.50) {
      in.chain = Chain::kDepth2;
      in.issuer = &pick(graph_.depts);
      in.leaf = issue(*in.issuer, subject,
                      psf::drbac::role_of(*in.issuer, "Member"), false,
                      g_serial++);
    } else if (r < 0.75) {
      in.chain = Chain::kDepth3;
      in.issuer = &pick(graph_.teams);
      in.leaf = issue(*in.issuer, subject,
                      psf::drbac::role_of(*in.issuer, "Staff"), false,
                      g_serial++);
    } else if (r < 0.90) {
      in.chain = Chain::kThirdParty;
      in.issuer = &pick(graph_.assigners);
      in.leaf = issue(*in.issuer, subject, org_member, false, g_serial++);
    } else if (r < 0.95) {
      in.chain = Chain::kDeadEnd;
      in.issuer = &graph_.dead_end;
      in.leaf = issue(graph_.dead_end, subject,
                      psf::drbac::role_of(graph_.dead_end, "Member"), false,
                      g_serial++);
    } else {
      in.chain = Chain::kRogue;
      in.issuer = &pick(graph_.rogues);
      in.leaf = issue(*in.issuer, subject, org_member, false, g_serial++);
    }
    return in;
  }

  psf::util::Rng& rng() { return rng_; }
  psf::switchboard::Switchboard& client_board() { return client_board_; }
  psf::switchboard::Switchboard& server_board() { return server_board_; }
  psf::drbac::Repository& repo() { return *repo_; }
  TimedAuthorizer& authorizer() { return *authorizer_; }
  std::vector<Live>& live() { return live_; }

 private:
  psf::util::Rng rng_;
  const UpperGraph& graph_;
  std::shared_ptr<psf::util::SimClock> clock_ =
      std::make_shared<psf::util::SimClock>();
  psf::switchboard::Network net_;
  psf::minilang::ClassRegistry registry_;
  std::shared_ptr<psf::minilang::Instance> service_;
  Entity server_identity_;
  // The repository outlives the connections whose monitors watch it:
  // declared before live_, so live_ is destroyed first.
  std::unique_ptr<psf::drbac::Repository> repo_;
  std::shared_ptr<TimedAuthorizer> authorizer_;
  psf::switchboard::Switchboard client_board_;
  psf::switchboard::Switchboard server_board_;
  std::vector<Live> live_;
};

struct Samples {
  std::vector<double> op_us, connect_us, first_call_us, authorize_us,
      handshake_self_us, revoke_deny_us, revoke_us;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double busy_s = 0;  // program time: the sum of timed op durations
  double cpu_s = 0;   // the process's CPU time inside timed ops
  std::vector<LeafInput> recent;  // inputs kept for the standalone crypto
};

struct Spans {
  explicit Spans(SpanRecorder& r)
      : op(r.intern("bench.op")),
        connect(r.intern("switchboard.connect")),
        authorize(r.intern("switchboard.authorize")),
        call(r.intern("connection.call")),
        revoke(r.intern("repository.revoke")) {}
  std::uint32_t op, connect, authorize, call, revoke;
};

// Run closed-loop ops for `seconds`, appending to `s`.
void run_ops(World& world, const Options& options, double seconds,
             std::uint64_t salt, Samples& s, Result& result,
             SpanRecorder& spans, const Spans& names) {
  psf::util::Rng rng(derive_seed(options.seed, salt));
  const int max_live = std::max(1, std::min(4, static_cast<int>(
                                                   std::thread::hardware_concurrency())));
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t op = salt << 32;  // op ids stay unique across chunks
  std::size_t in_round = 0;
  world.reset_round();
  while (now_ns() < end) {
    if (in_round == kOpsPerRound) {
      sample_threads();
      world.reset_round();
      in_round = 0;
    }
    ++in_round;
    ++op;
    ++s.attempted;
    // The root span covers the whole op, input generation included; what
    // its child spans leave uncovered is the benchmark's own time.
    const std::uint64_t op_start = now_ns();
    auto& live = world.live();
    if (!live.empty() && rng.next_double() < kRevokeShare) {
      const std::size_t pick = rng.next_below(live.size());
      Live target = live[pick];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
      const double cpu0 = process_cpu_s();
      const std::uint64_t t0 = now_ns();
      world.repo().revoke(target.leaf_serial);
      const std::uint64_t t1 = now_ns();
      bool refused = false;
      try {
        target.connection->call(Connection::End::kA, "mail", "getPhone",
                                {Value::string(target.account)});
      } catch (const psf::minilang::EvalError&) {
        refused = true;
      }
      const std::uint64_t t2 = now_ns();
      s.cpu_s += process_cpu_s() - cpu0;
      s.busy_s += static_cast<double>(t2 - t0) / 1e9;
      s.revoke_us.push_back(us_between(t0, t1));
      s.revoke_deny_us.push_back(us_between(t0, t2));
      spans.record(op, names.op, SpanRecorder::kNoParent, op_start, t2);
      spans.record(op, names.revoke, names.op, t0, t1);
      spans.record(op, names.call, names.op, t1, t2);
      const bool suspended = target.connection->suspended(Connection::End::kA);
      if (!refused || !suspended) {
        ++s.failed;
        result.check(false, "revoked connection served a call (serial " +
                                std::to_string(target.leaf_serial) + ")");
      }
      target.connection->close("revoked");
      continue;
    }

    LeafInput in = world.make_input(rng, op);
    const int acct = static_cast<int>(rng.next_below(kAccounts));
    psf::switchboard::AuthorizationSuite suite;
    suite.identity = in.principal;
    suite.credentials = {in.leaf};
    suite.authorizer =
        std::make_shared<psf::switchboard::AcceptAllAuthorizer>();

    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    auto connected = world.client_board().connect(world.server_board(), suite,
                                                  world.rng());
    const std::uint64_t t1 = now_ns();
    const std::uint64_t a0 = world.authorizer().last_start_ns;
    const std::uint64_t a1 = world.authorizer().last_end_ns;
    bool ok = connected.ok() == chain_allowed(in.chain);
    std::uint64_t t3 = t1;
    if (ok && connected.ok()) {
      std::string got;
      try {
        got = connected.value()
                  ->call(Connection::End::kA, "mail", "getPhone",
                         {Value::string(World::account(acct))})
                  .as_string();
      } catch (const std::exception& e) {
        got = std::string("error: ") + e.what();
      }
      t3 = now_ns();
      s.first_call_us.push_back(us_between(t1, t3));
      if (got != World::phone(acct)) {
        ok = false;
        result.check(false, "getPhone after connect returned '" + got + "'");
      }
    } else if (!ok) {
      result.check(false, std::string("verdict mismatch: expected ") +
                              (chain_allowed(in.chain) ? "allow" : "deny") +
                              (connected.ok() ? ", got allow"
                                              : ", got " + connected.error().message));
    }
    s.cpu_s += process_cpu_s() - cpu0;
    s.busy_s += static_cast<double>(t3 - t0) / 1e9;
    s.op_us.push_back(us_between(t0, t3));
    s.connect_us.push_back(us_between(t0, t1));
    if (a0 >= t0 && a1 <= t1) {
      s.authorize_us.push_back(us_between(a0, a1));
      s.handshake_self_us.push_back(us_between(t0, t1) - us_between(a0, a1));
      spans.record(op, names.authorize, names.connect, a0, a1);
    }
    spans.record(op, names.op, SpanRecorder::kNoParent, op_start, t3);
    spans.record(op, names.connect, names.op, t0, t1);
    if (t3 > t1) spans.record(op, names.call, names.op, t1, t3);
    if (!ok) ++s.failed;

    if (connected.ok()) {
      live.push_back(Live{connected.value(), in.leaf->serial,
                          World::account(acct)});
      if (static_cast<int>(live.size()) > max_live) {
        live.front().connection->close("evicted");
        live.erase(live.begin());
      }
    }
    if (chain_allowed(in.chain)) {
      if (s.recent.size() >= 64) s.recent.erase(s.recent.begin());
      s.recent.push_back(std::move(in));
    }
  }
}

void prewarm(const UpperGraph& graph) {
  // The server's upper graph is warm in a running deployment: verify it
  // once at set-up so the cold path measured is the leaf's.
  for (const auto& c : graph.credentials) psf::drbac::verify_cached(*c);
}

}  // namespace

Result run_cold_connect(const Options& options) {
  Result result;
  constexpr int kSetups = 21;
  std::vector<double> setup_s;
  std::unique_ptr<UpperGraph> graph;
  std::unique_ptr<World> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    graph.reset();
    psf::drbac::SignatureCache::instance().clear();
    g_serial = 1;
    const std::uint64_t t0 = now_ns();
    psf::util::Rng rng(derive_seed(options.seed, 7));
    graph = std::make_unique<UpperGraph>(build_upper_graph(rng));
    prewarm(*graph);
    world = std::make_unique<World>(options.seed, *graph);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    sample_threads();
  }
  g_serial = 1'000'000;

  SpanRecorder untraced(false, 0);
  SpanRecorder traced(true, 1 << 20);
  Spans untraced_names(untraced), traced_names(traced);
  // `main` holds the measured chunks (the traced ones in a traced run),
  // `baseline` a traced run's untraced chunks.
  Samples warm, baseline, main;
  ObsSnapshot before, after;
  bool measuring = false;
  run_schedule(options, [&](Chunk chunk, double seconds, std::uint64_t salt) {
    if (chunk != Chunk::kWarmup && !measuring) {
      measuring = true;
      before = ObsSnapshot::take();
    }
    const bool traced_chunk = chunk == Chunk::kTraced;
    Samples& into = chunk == Chunk::kWarmup                  ? warm
                    : traced_chunk || !options.trace ? main
                                                             : baseline;
    run_ops(*world, options, seconds, salt, into, result,
            traced_chunk ? traced : untraced,
            traced_chunk ? traced_names : untraced_names);
  });
  after = ObsSnapshot::take();
  result.attempted = warm.attempted + baseline.attempted + main.attempted;
  result.failed = warm.failed + baseline.failed + main.failed;
  if (options.trace) {
    const double base_p50 = median(baseline.op_us);
    result.set("bench.trace_overhead_pct",
               base_p50 > 0 ? (median(main.op_us) / base_p50 - 1) * 100 : 0,
               "%");
    result.set("bench.unattributed_p50_us",
               median(traced.root_self_us(traced_names.op)), "us");
  }
  // A live connection for the standalone SessionCrypto timing.
  std::shared_ptr<Connection> probe = world->probe_connection();

  const auto ops = static_cast<double>(std::max<std::size_t>(
      1, main.op_us.size() + main.revoke_deny_us.size()));
  const auto layer_ops = ops + static_cast<double>(
      baseline.op_us.size() + baseline.revoke_deny_us.size());
  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("p50_us", median(main.op_us), "us");
    result.set("p99_us", tail_percentile(main.op_us, 99), "us");
    // One closed-loop caller runs the program inline: ops per second of
    // the process's CPU time (work moved to other threads still counts),
    // and ops per second of program wall time (input generation between
    // ops excluded from both).
    result.set("ops_per_cpu_s", ops / std::max(1e-9, main.cpu_s), "1/s");
    result.set("throughput_ops", ops / std::max(1e-9, main.busy_s), "1/s");
    result.set("revoke_deny_p50_us", median(main.revoke_deny_us), "us");
    result.set("revoke_deny_p99_us", tail_percentile(main.revoke_deny_us, 99),
               "us");
    result.set("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0,
               "MB");
  } else {
    using O = ObsSnapshot;
    auto cdelta = [&](const char* n) {
      return static_cast<double>(O::counter_delta(before, after, n));
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    result.set("switchboard.connect_p50_us", median(main.connect_us), "us");
    result.set("switchboard.first_call_us", median(main.first_call_us), "us");
    result.set("switchboard.authorize_p50_us", median(main.authorize_us), "us");
    result.set("switchboard.authorize_p99_us",
               tail_percentile(main.authorize_us, 99), "us");
    result.set("switchboard.handshake_self_p50_us",
               median(main.handshake_self_us), "us");
    result.set("drbac.prove_p50_us",
               O::hist_percentile_delta(before, after, "psf.drbac.prove_us", 50),
               "us");
    const double sig_hits = cdelta("psf.drbac.sigcache.hits");
    const double sig_misses = cdelta("psf.drbac.sigcache.misses");
    result.set("drbac.sigcache.hit_ratio",
               ratio(sig_hits, sig_hits + sig_misses), "ratio");
    result.set("drbac.sigcache.misses_per_op", ratio(sig_misses, layer_ops), "count");
    const double proof_hits = cdelta("psf.drbac.proofcache.hits");
    const double proof_misses = cdelta("psf.drbac.proofcache.misses");
    result.set("drbac.proofcache.hit_ratio",
               ratio(proof_hits, proof_hits + proof_misses), "ratio");
    result.set("drbac.proofcache.invalidations_per_op",
               ratio(cdelta("psf.drbac.proofcache.invalidations"), layer_ops),
               "count");
    result.set("drbac.credentials_examined_per_op",
               ratio(cdelta("psf.drbac.credentials.examined"), layer_ops), "count");
    result.set("drbac.parallel_verify.jobs_per_op",
               ratio(cdelta("psf.drbac.parallel_verify.jobs"), layer_ops), "count");
    result.set("drbac.revoke_us", median(main.revoke_us), "us");
    result.set("obs.journal.events_per_op",
               ratio(cdelta("psf.obs.journal.events"), layer_ops), "count");
    result.set("obs.lock.wait_us_per_op",
               ratio(static_cast<double>(O::hist_sum_delta_matching(
                         before, after, "psf.lock.", ".wait_us")),
                     layer_ops),
               "us");
    std::vector<SignedSample> samples;
    for (const LeafInput& in : main.recent) samples.push_back({in.leaf, in.issuer});
    measure_primitives(result, samples, *probe, kObsThreads, options.seed);
    if (!traced.write_jsonl(options.out_dir + "/spans-cold_connect-" +
                            std::to_string(options.seed) + ".jsonl")) {
      std::cerr << "cold_connect: could not write the span dump\n";
    }
  }
  probe.reset();
  world.reset();
  result.info["spans_dropped"] = std::to_string(traced.dropped());
  result.info["ops"] = std::to_string(main.op_us.size());
  result.info["revocations"] = std::to_string(main.revoke_deny_us.size());
  return result;
}

}  // namespace perfbench
