// view_session: the paper's own mechanism. Views with coherence brackets
// over local / rmi / switchboard bindings, and the deployment path
// (planner -> VIG -> instantiate -> wire) when a session adapts.
//
// Set-up builds the three-site scenario (mail/scenario.hpp) and deploys six
// client sessions through Psf::request: Member, Partner and Anonymous views
// across ny-pc, sd-pc and se-pc. Each session gets its own copy of the mail
// service (same ACL, views and node policy as the scenario's "mail"), so
// its origin holds a seeded number of notes and its coherence images range
// from small to large.
//
// One closed-loop client thread (the main thread) issues view method calls.
// A second client thread would share origin instances, which the program
// does not lock, so the benchmark keeps to one. About 1% of ops are an
// adaptation: update_link moves the session's link across its QoS
// threshold, then Psf::adapt re-plans, redeploys and rewires.
//
// Ops run in rounds of kOpsPerRound. At the end of each round every
// origin's state is compared with a replay of the round's op log and then
// reset to the round's seeded start state, so per-session state stays
// bounded and equal-length runs hold identical state.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "drbac/proof_cache.hpp"
#include "mail/scenario.hpp"
#include "minilang/value_codec.hpp"

namespace perfbench {

namespace {

using psf::minilang::Binding;
using psf::minilang::Value;
using psf::minilang::ValueList;

constexpr int kSessions = 6;
constexpr int kAccounts = 16;
constexpr std::size_t kOpsPerRound = 400;
constexpr double kAdaptShare = 0.01;
constexpr int kObsThreads = 2;  // mail_event's worker count

enum class Method { kGetPhone, kGetEmail, kReceive, kSend, kAddNote };
constexpr int kMethods = 5;
const char* const kMethodNames[kMethods] = {
    "getPhone", "getEmail", "receiveMessages", "sendMessage", "addNote"};
const char* const kMethodInterface[kMethods] = {
    "AddressI", "AddressI", "MessageI", "MessageI", "NotesI"};
const double kMethodWeight[kMethods] = {35, 20, 10, 15, 20};
bool is_write(Method m) { return m == Method::kSend || m == Method::kAddNote; }

struct SessionSpec {
  const char* who;   // "Alice", "Bob", "Charlie" or "" (anonymous)
  const char* node;
  int qos;           // 0 best effort, 1 latency <= 10 ms, 2 bandwidth >= 1000
};

// Two sessions per site; the ny-pc and sd-pc ones carry a QoS threshold
// that a link change can cross, so they are the ones that adapt.
const SessionSpec kSpecs[kSessions] = {
    {"Alice", "ny-pc", 1},   {"", "ny-pc", 1},  {"Bob", "sd-pc", 2},
    {"", "sd-pc", 2},        {"Charlie", "se-pc", 0}, {"", "se-pc", 0}};

psf::framework::QoS qos_of(int kind) {
  psf::framework::QoS qos;
  if (kind == 1) qos.max_latency_ms = 10;
  if (kind == 2) qos.min_bandwidth_kbps = 1000;
  return qos;
}

std::string bytes_of(const Value& v) {
  const auto encoded = psf::minilang::encode_value(v);
  return std::string(encoded.begin(), encoded.end());
}

// What a session's origin must hold, replayed from the op log.
struct Model {
  ValueList notes, outbox, inbox;
};

struct Session {
  std::string service;
  psf::framework::ClientSession live;
  std::vector<Method> methods;        // what this session's view exposes
  std::vector<double> method_cdf;
  std::map<std::string, Binding> bindings;
  ValueList start_notes, start_inbox;  // the round's seeded start state
  Model model;
  std::vector<std::string> names, phones, emails;
  bool link_flipped = false;
};

struct World {
  psf::mail::Scenario scenario;
  std::vector<Session> sessions;
  std::vector<double> request_us;
};

psf::framework::ServiceConfig service_config(const psf::mail::Scenario& s,
                                             const std::string& name) {
  psf::framework::ServiceConfig c;
  c.name = name;
  c.domain = "Comp.NY";
  c.origin_node = psf::mail::Scenario::kNyServer;
  c.origin_class = "MailClient";
  c.replica_view_xml = psf::mail::view_xml_client_replica();
  c.access_rules = {{"Member", "ViewMailClient_Member"},
                    {"Partner", "ViewMailClient_Partner"}};
  c.default_view = "ViewMailClient_Anonymous";
  c.view_xml_by_name = {
      {"ViewMailClient_Member", psf::mail::view_xml_member()},
      {"ViewMailClient_Partner", psf::mail::view_xml_partner()},
      {"ViewMailClient_Anonymous", psf::mail::view_xml_anonymous()}};
  c.node_policy_role = s.mail->role("Node");
  c.node_policy_attrs = {
      {"Secure", psf::drbac::Attribute::make_set("Secure", {"true"})},
      {"Trust", psf::drbac::Attribute::make_range("Trust", 5, 5)}};
  return c;
}

void reset_origin(World& w, Session& s) {
  auto origin = w.scenario.psf->origin_instance(s.service);
  origin->set_field("notes", Value::list(s.start_notes));
  origin->set_field("outbox", Value::list({}));
  origin->set_field("inbox", Value::list(s.start_inbox));
  s.model = Model{s.start_notes, {}, s.start_inbox};
}

void wire(Session& s, psf::framework::ClientSession live) {
  s.live = std::move(live);
  s.bindings = s.live.view->cls().interface_bindings;
  s.methods.clear();
  s.method_cdf.clear();
  double total = 0;
  for (int m = 0; m < kMethods; ++m) {
    if (s.bindings.count(kMethodInterface[m]) == 0) continue;
    s.methods.push_back(static_cast<Method>(m));
    total += kMethodWeight[m];
    s.method_cdf.push_back(total);
  }
  for (double& c : s.method_cdf) c /= total;
}

std::unique_ptr<World> build_world(const Options& options) {
  auto w = std::make_unique<World>();
  w->scenario = psf::mail::build_scenario();
  psf::framework::Psf& psf = *w->scenario.psf;
  psf::util::Rng rng(derive_seed(options.seed, 31));
  // Per-session note counts span about 16 .. 1024 notes, so coherence
  // images run from about a kilobyte to tens of kilobytes. Each session
  // slot has a fixed base count that the seed jitters by up to 2%: only
  // Member views pull notes, so a larger spread, or moving the large count
  // between sessions, would change the load from seed to seed.
  std::vector<std::size_t> note_counts;
  for (const std::size_t base : {1024, 16, 64, 128, 256, 512}) {
    note_counts.push_back(base + rng.next_below(base / 50 + 1));
  }
  w->sessions.resize(kSessions);
  for (int i = 0; i < kSessions; ++i) {
    Session& s = w->sessions[static_cast<std::size_t>(i)];
    s.service = "mail.s" + std::to_string(i);
    auto defined = psf.define_service(service_config(w->scenario, s.service));
    if (!defined.ok()) {
      throw std::runtime_error("define_service: " + defined.error().message);
    }
    auto origin = psf.origin_instance(s.service);
    for (int a = 0; a < kAccounts; ++a) {
      s.names.push_back("user" + std::to_string(a));
      s.phones.push_back("555-" + std::to_string(rng.next_below(10000)));
      s.emails.push_back("user" + std::to_string(a) + "@" +
                         std::to_string(rng.next_below(1000)) + ".example");
      origin->call("addAccount", {Value::string(s.names.back()),
                                  Value::string(s.phones.back()),
                                  Value::string(s.emails.back())});
    }
    for (std::size_t n = 0; n < note_counts[static_cast<std::size_t>(i)]; ++n) {
      s.start_notes.push_back(Value::string(
          "note-" + std::to_string(i) + "-" + std::to_string(n) + "-" +
          std::to_string(rng.next_u64() % 100000)));
    }
    for (int m = 0; m < 2; ++m) {
      s.start_inbox.push_back(psf::mail::make_message(
          "hq", s.names[0], "welcome-" + std::to_string(rng.next_below(1000)),
          "hello"));
    }
    reset_origin(*w, s);
  }
  // The deployment's credentials are warm in a running system: verify them
  // once, serially, before any proof search, so no search ever fans out to
  // the program's verify pool (whose threads would exceed the budget).
  for (const auto& c : psf.repository().all()) psf::drbac::verify_cached(*c);
  for (int i = 0; i < kSessions; ++i) {
    Session& s = w->sessions[static_cast<std::size_t>(i)];
    const SessionSpec& spec = kSpecs[i];
    psf::framework::ClientRequest request;
    const psf::mail::Scenario& sc = w->scenario;
    const std::string who = spec.who;
    if (who.empty()) {
      request.identity =
          psf::drbac::Entity::create("Guest" + std::to_string(i), rng);
    } else {
      const psf::drbac::Entity& e =
          who == "Alice" ? sc.alice : who == "Bob" ? sc.bob : sc.charlie;
      request = sc.request_for(e, spec.node);
    }
    request.client_node = spec.node;
    request.service = s.service;
    request.qos = qos_of(spec.qos);
    const std::uint64_t t0 = now_ns();
    auto live = psf.request(request);
    w->request_us.push_back(us_between(t0, now_ns()));
    if (!live.ok()) {
      throw std::runtime_error("request " + s.service + ": " +
                               live.error().message);
    }
    wire(s, std::move(live).take());
  }
  return w;
}

struct Samples {
  std::vector<double> call_us, deploy_us;
  std::vector<double> by_binding[3];  // local, rmi, switchboard
  std::vector<double> read_us, write_us;
  std::uint64_t attempted = 0, failed = 0, view_ops = 0;
  double busy_s = 0;  // program wall time: the sum of timed op durations
  double cpu_s = 0;   // the process's CPU time inside timed ops
};

struct Spans {
  explicit Spans(SpanRecorder& r)
      : op(r.intern("bench.op")),
        call(r.intern("view.call")),
        check(r.intern("bench.check")),
        update_link(r.intern("psf.update_link")),
        adapt(r.intern("psf.adapt")) {}
  std::uint32_t op, call, check, update_link, adapt;
};

// Compare one session's origin with the replayed op log.
void check_round(World& w, Session& s, Result& result, Samples& samples) {
  auto origin = w.scenario.psf->origin_instance(s.service);
  const bool notes = bytes_of(origin->get_field("notes")) ==
                     bytes_of(Value::list(s.model.notes));
  const bool outbox = bytes_of(origin->get_field("outbox")) ==
                      bytes_of(Value::list(s.model.outbox));
  const bool inbox = bytes_of(origin->get_field("inbox")) ==
                     bytes_of(Value::list(s.model.inbox));
  if (!notes || !outbox || !inbox) {
    ++samples.failed;
    result.check(false, s.service + ": origin state differs from the op-log "
                        "replay (notes " + std::to_string(notes) + ", outbox " +
                        std::to_string(outbox) + ", inbox " +
                        std::to_string(inbox) + ")");
  }
}

void flip_link(psf::framework::Psf& psf, Session& s) {
  using psf::util::kMillisecond;
  s.link_flipped = !s.link_flipped;
  const std::string node = s.live.client_node;
  if (node == psf::mail::Scenario::kNyPc) {
    psf.update_link(psf::mail::Scenario::kNyServer, node,
                    {(s.link_flipped ? 50 : 1) * kMillisecond, 100'000, true});
  } else {
    psf.update_link(psf::mail::Scenario::kNyServer, node,
                    {40 * kMillisecond, s.link_flipped ? 2000 : 200, false});
  }
}

void run_ops(World& w, const Options& options, double seconds,
             std::uint64_t salt, Samples& out, Result& result,
             SpanRecorder& spans, const Spans& names) {
  psf::framework::Psf& psf = *w.scenario.psf;
  psf::util::Rng rng(derive_seed(options.seed, salt));
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t op = salt << 32;  // op ids stay unique across chunks
  std::size_t in_round = 0;
  std::size_t next_adapt = 0;
  for (auto& s : w.sessions) reset_origin(w, s);
  while (now_ns() < end) {
    if (in_round == kOpsPerRound) {
      sample_threads();
      for (auto& s : w.sessions) {
        check_round(w, s, result, out);
        reset_origin(w, s);
      }
      in_round = 0;
    }
    ++in_round;
    ++op;
    ++out.attempted;
    // The root span covers the whole op, argument building included; what
    // its child spans leave uncovered is the benchmark's own time.
    const std::uint64_t op_start = now_ns();
    if (rng.next_double() < kAdaptShare) {
      // Adapt the sessions whose QoS a link change can break, in turn.
      Session& s = w.sessions[next_adapt++ % 4];
      const double cpu0 = process_cpu_s();
      const std::uint64_t t0 = now_ns();
      flip_link(psf, s);
      const std::uint64_t t1 = now_ns();
      auto adapted = psf.adapt(s.live);
      const std::uint64_t t2 = now_ns();
      out.cpu_s += process_cpu_s() - cpu0;
      out.busy_s += static_cast<double>(t2 - t0) / 1e9;
      out.deploy_us.push_back(us_between(t1, t2));
      spans.record(op, names.op, SpanRecorder::kNoParent, op_start, t2);
      spans.record(op, names.update_link, names.op, t0, t1);
      spans.record(op, names.adapt, names.op, t1, t2);
      if (!adapted.ok()) {
        ++out.failed;
        result.check(false, "adapt " + s.service + ": " +
                                adapted.error().message);
      } else {
        wire(s, std::move(adapted).take());
      }
      continue;
    }

    Session& s = w.sessions[rng.next_below(w.sessions.size())];
    const double pick = rng.next_double();
    std::size_t k = 0;
    while (k + 1 < s.method_cdf.size() && pick >= s.method_cdf[k]) ++k;
    const Method method = s.methods[k];
    const auto account = rng.next_below(kAccounts);
    std::vector<Value> args;
    Value expected = Value::null();
    switch (method) {
      case Method::kGetPhone:
        args.push_back(Value::string(s.names[account]));
        expected = Value::string(s.phones[account]);
        break;
      case Method::kGetEmail:
        args.push_back(Value::string(s.names[account]));
        expected = Value::string(s.emails[account]);
        break;
      case Method::kReceive:
        expected = Value::list(s.model.inbox);
        break;
      case Method::kSend: {
        const std::size_t body = 16 + rng.next_below(240);
        args.push_back(psf::mail::make_message(
            s.names[0], s.names[account], "m" + std::to_string(op),
            std::string(body, static_cast<char>('a' + op % 26))));
        break;
      }
      case Method::kAddNote:
        args.push_back(Value::string("n" + std::to_string(op) + "-" +
                                     std::to_string(rng.next_u64() % 1000)));
        break;
    }
    const Value arg0 = args.empty() ? Value::null() : args[0];

    const double cpu0 = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    Value got;
    std::string error;
    try {
      got = s.live.view->call(kMethodNames[static_cast<int>(method)],
                              std::move(args));
    } catch (const std::exception& e) {
      error = e.what();
    }
    const std::uint64_t t1 = now_ns();
    out.cpu_s += process_cpu_s() - cpu0;

    bool ok = error.empty() && bytes_of(got) == bytes_of(expected);
    if (ok) {
      if (method == Method::kReceive) s.model.inbox.clear();
      if (method == Method::kSend) s.model.outbox.push_back(arg0);
      if (method == Method::kAddNote) s.model.notes.push_back(arg0);
    } else {
      ++out.failed;
      result.check(false, s.service + "." +
                              kMethodNames[static_cast<int>(method)] + ": " +
                              (error.empty() ? "wrong value" : error));
    }
    const std::uint64_t t2 = now_ns();
    const double us = us_between(t0, t1);
    ++out.view_ops;
    out.busy_s += static_cast<double>(t1 - t0) / 1e9;
    out.call_us.push_back(us);
    (is_write(method) ? out.write_us : out.read_us).push_back(us);
    const Binding binding =
        s.bindings.at(kMethodInterface[static_cast<int>(method)]);
    out.by_binding[static_cast<int>(binding)].push_back(us);
    spans.record(op, names.op, SpanRecorder::kNoParent, op_start, t2);
    spans.record(op, names.call, names.op, t0, t1);
    spans.record(op, names.check, names.op, t1, t2);
  }
  for (auto& s : w.sessions) check_round(w, s, result, out);
}

}  // namespace

Result run_view_session(const Options& options) {
  Result result;
  constexpr int kSetups = 11;
  std::vector<double> setup_s;
  std::unique_ptr<World> world;
  ObsSnapshot before_setup;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    psf::drbac::SignatureCache::instance().clear();
    before_setup = ObsSnapshot::take();
    const std::uint64_t t0 = now_ns();
    world = build_world(options);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    sample_threads();
  }

  SpanRecorder untraced(false, 0);
  SpanRecorder traced(true, 1 << 21);
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
    const double base_p50 = median(baseline.call_us);
    result.set("bench.trace_overhead_pct",
               base_p50 > 0 ? (median(main.call_us) / base_p50 - 1) * 100 : 0,
               "%");
    result.set("bench.unattributed_p50_us",
               median(traced.root_self_us(traced_names.op)), "us");
  }

  const double ops = static_cast<double>(
      std::max<std::uint64_t>(1, main.view_ops + baseline.view_ops));
  if (!options.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("p50_us", median(main.call_us), "us");
    result.set("p99_us", tail_percentile(main.call_us, 99), "us");
    // One closed-loop client runs the program inline: ops per second of
    // the process's CPU time (work moved to other threads still counts),
    // and ops per second of program wall time.
    const double done =
        static_cast<double>(main.view_ops + main.deploy_us.size());
    result.set("ops_per_cpu_s", done / std::max(1e-9, main.cpu_s), "1/s");
    result.set("throughput_ops", done / std::max(1e-9, main.busy_s), "1/s");
    result.set("deploy_p50_us", median(main.deploy_us), "us");
    result.set("deploy_p99_us", tail_percentile(main.deploy_us, 99), "us");
    result.set("peak_rss_mb", static_cast<double>(peak_rss_kb()) / 1024.0,
               "MB");
  } else {
    using O = ObsSnapshot;
    auto cdelta = [&](const char* n) {
      return static_cast<double>(O::counter_delta(before, after, n));
    };
    auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
    const double adapts = static_cast<double>(main.deploy_us.size());
    result.set("psf.request_p50_us", median(world->request_us), "us");
    result.set("psf.planner.plan_p50_us",
               O::hist_percentile_delta(before, after, "psf.planner.plan_us", 50),
               "us");
    result.set("psf.planner.candidates_per_request",
               ratio(cdelta("psf.planner.candidates"), adapts), "count");
    const double guard_hits = cdelta("psf.guard.cache.hits");
    const double guard_misses = cdelta("psf.guard.cache.misses");
    result.set("psf.guard.cache_hit_ratio",
               ratio(guard_hits, guard_hits + guard_misses), "ratio");
    result.set("switchboard.handshake_p50_us",
               O::hist_percentile_delta(before, after,
                                        "psf.switchboard.handshake_us", 50),
               "us");
    double generated = 0, vig_hits = 0;
    for (const char* node : {psf::mail::Scenario::kNyServer,
                             psf::mail::Scenario::kNyPc,
                             psf::mail::Scenario::kSdPc,
                             psf::mail::Scenario::kSePc}) {
      const auto& stats = world->scenario.psf->node(node)->vig().stats();
      generated += static_cast<double>(stats.generated);
      vig_hits += static_cast<double>(stats.cache_hits);
    }
    result.set("views.vig.generated", generated, "count");
    result.set("views.vig.cache_hit_ratio",
               ratio(vig_hits, generated + vig_hits), "ratio");
    result.set("views.call_local_p50_us",
               median(main.by_binding[static_cast<int>(Binding::kLocal)]), "us");
    result.set("views.call_rmi_p50_us",
               median(main.by_binding[static_cast<int>(Binding::kRmi)]), "us");
    result.set("views.call_switchboard_p50_us",
               median(main.by_binding[static_cast<int>(Binding::kSwitchboard)]),
               "us");
    result.set("views.call_read_p50_us", median(main.read_us), "us");
    result.set("views.call_write_p50_us", median(main.write_us), "us");
    result.set("switchboard.calls_per_op",
               ratio(cdelta("psf.switchboard.calls"), ops), "count");
    result.set("switchboard.bytes_per_op",
               ratio(cdelta("psf.switchboard.bytes"), ops), "B");
    const double ic_hits = cdelta("psf.minilang.ic_hits");
    const double ic_misses = cdelta("psf.minilang.ic_misses");
    result.set("minilang.ic_hit_ratio", ratio(ic_hits, ic_hits + ic_misses),
               "ratio");
    result.set("minilang.interp_fallbacks_per_kop",
               ratio(cdelta("psf.minilang.interp_fallbacks") * 1000, ops),
               "count");
    result.set("minilang.compile_us_total",
               static_cast<double>(O::hist_sum_delta(
                   before_setup, after, "psf.minilang.compile_us")),
               "us");
    result.set("obs.journal.events_per_op",
               ratio(cdelta("psf.obs.journal.events"), ops), "count");
    result.set("obs.lock.wait_us_per_op",
               ratio(static_cast<double>(O::hist_sum_delta_matching(
                         before, after, "psf.lock.", ".wait_us")),
                     ops),
               "us");
    const psf::mail::Scenario& sc = world->scenario;
    measure_primitives(result,
                       {{sc.cred(1), &sc.ny->entity()},
                        {sc.cred(2), &sc.ny->entity()},
                        {sc.cred(11), &sc.sd->entity()},
                        {sc.cred(12), &sc.sd->entity()},
                        {sc.cred(15), &sc.se->entity()}},
                       *world->sessions[0].live.connection, kObsThreads,
                       options.seed);
    if (!traced.write_jsonl(options.out_dir + "/spans-view_session-" +
                            std::to_string(options.seed) + ".jsonl")) {
      std::cerr << "view_session: could not write the span dump\n";
    }
  }
  world.reset();
  result.info["spans_dropped"] = std::to_string(traced.dropped());
  result.info["view_ops"] = std::to_string(main.view_ops);
  result.info["adaptations"] = std::to_string(main.deploy_us.size());
  return result;
}

}  // namespace perfbench
