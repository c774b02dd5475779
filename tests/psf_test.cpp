#include <gtest/gtest.h>

#include "mail/scenario.hpp"
#include "psf/cipher_wiring.hpp"
#include "psf/framework.hpp"
#include "psf/guard.hpp"
#include "psf/planner.hpp"

namespace psf::framework {
namespace {

using drbac::Attribute;
using drbac::Principal;
using mail::Scenario;
using minilang::Value;

// ------------------------------------------------------------------ Guard

TEST(Guard, IssuesAndAuthorizesOwnRoles) {
  drbac::Repository repo;
  util::Rng rng(1);
  Guard guard("Comp.NY", &repo, rng);
  drbac::Entity alice = guard.create_principal("Alice");
  guard.grant(Principal::of_entity(alice), "Member");
  EXPECT_TRUE(
      guard.authorize(Principal::of_entity(alice), guard.role("Member"), 0)
          .ok());
  EXPECT_FALSE(
      guard.authorize(Principal::of_entity(alice), guard.role("Admin"), 0)
          .ok());
}

TEST(Guard, AccessRulesSelectViewsInOrder) {
  drbac::Repository repo;
  util::Rng rng(2);
  Guard guard("Comp.NY", &repo, rng);
  guard.add_access_rule("Member", "ViewMailClient_Member");
  guard.add_access_rule("Partner", "ViewMailClient_Partner");
  guard.set_default_view("ViewMailClient_Anonymous");

  drbac::Entity member = guard.create_principal("M");
  drbac::Entity partner = guard.create_principal("P");
  drbac::Entity stranger = guard.create_principal("S");
  guard.grant(Principal::of_entity(member), "Member");
  guard.grant(Principal::of_entity(partner), "Partner");

  auto m = guard.select_view(Principal::of_entity(member), 0);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().view_name, "ViewMailClient_Member");
  EXPECT_EQ(m.value().matched_role, "Member");
  ASSERT_TRUE(m.value().proof.has_value());

  auto p = guard.select_view(Principal::of_entity(partner), 0);
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().view_name, "ViewMailClient_Partner");

  auto s = guard.select_view(Principal::of_entity(stranger), 0);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().view_name, "ViewMailClient_Anonymous");
  EXPECT_FALSE(s.value().proof.has_value());
}

TEST(Guard, NoDefaultViewDeniesStrangers) {
  drbac::Repository repo;
  util::Rng rng(3);
  Guard guard("Comp.NY", &repo, rng);
  guard.add_access_rule("Member", "V");
  drbac::Entity stranger = guard.create_principal("S");
  auto r = guard.select_view(Principal::of_entity(stranger), 0);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, "access-denied");
}

// ---------------------------------------------------------------- Planner

// Fixture with the paper's three-site topology built once per test.
struct ScenarioFixture : ::testing::Test {
  Scenario s = mail::build_scenario();
  Psf& psf() { return *s.psf; }
};

using PlannerScenario = ScenarioFixture;

TEST_F(PlannerScenario, ServesFromOriginWhenQosIsLoose) {
  auto session = psf().request(s.request_for(s.alice, Scenario::kNyPc));
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_EQ(session.value().provider_node, Scenario::kNyServer);
  EXPECT_FALSE(session.value().plan.uses_replica);
}

TEST_F(PlannerScenario, DeploysReplicaWhenBandwidthIsLow) {
  // Paper §2.2: PSF adapts to low available bandwidth by placing a view
  // mail server close to the client.
  framework::QoS qos;
  qos.min_bandwidth_kbps = 1000;  // WAN is only 200 kbps
  auto session = psf().request(s.request_for(s.bob, Scenario::kSdPc, qos));
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_EQ(session.value().provider_node, Scenario::kSdPc);
  EXPECT_TRUE(session.value().plan.uses_replica);
  EXPECT_FALSE(session.value().plan.uses_ciphers);
}

TEST_F(PlannerScenario, DeploysCipherPairForPrivacyOverInsecureWan) {
  // Paper §2.2: PSF adapts to insecure links by placing an
  // <encryptor/decryptor> pair.
  framework::QoS qos;
  qos.min_bandwidth_kbps = 1000;
  qos.privacy = true;
  auto session = psf().request(s.request_for(s.bob, Scenario::kSdPc, qos));
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_TRUE(session.value().plan.uses_replica);
  EXPECT_TRUE(session.value().plan.uses_ciphers);
  bool enc = false, dec = false;
  for (const auto& d : session.value().deployed) {
    if (d == "Encryptor@sd-pc") enc = true;
    if (d == "Decryptor@ny-server") dec = true;
  }
  EXPECT_TRUE(enc);
  EXPECT_TRUE(dec);
}

TEST_F(PlannerScenario, UntrustedNodeCannotHostReplica) {
  // se-pc maps onto Mail.Node only via IBM.Windows with Secure={false},
  // Trust=(0,1): the application policy (Secure=true, Trust>=5) rejects it,
  // so a replica cannot be placed there and high-bandwidth QoS cannot be
  // met.
  framework::QoS qos;
  qos.min_bandwidth_kbps = 1000;
  auto session = psf().request(s.request_for(s.charlie, Scenario::kSePc, qos));
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.error().code, "no-plan");
  EXPECT_NE(session.error().message.find("fails application policy"),
            std::string::npos);
}

TEST_F(PlannerScenario, WithoutViewsOnlyOriginIsAvailable) {
  // The §4.2 claim, as an ablation: disable views and the low-bandwidth
  // request has no feasible deployment.
  PlanProblem problem;
  problem.client_node = Scenario::kSdPc;
  problem.origin_node = Scenario::kNyServer;
  problem.client_view = "";  // irrelevant here
  problem.replica_view = "ViewMailClientReplica";
  problem.qos.min_bandwidth_kbps = 1000;
  problem.node_policy_role = s.mail->role("Node");
  problem.node_policy_attrs = {
      {"Secure", Attribute::make_set("Secure", {"true"})}};
  // Reuse the service's component identities through a fresh planner.
  Planner planner(&psf().network(), &psf().repository());
  PlannerOptions without_views;
  without_views.use_views = false;
  auto plan = planner.plan(problem, psf().node_infos(), 0, without_views);
  EXPECT_FALSE(plan.ok());

  PlannerOptions with_views;  // defaults
  // With views the replica component must be authorized; use the real one.
  problem.replica_component =
      Principal::of_entity(s.ny->create_principal("tmp.Replica"));
  s.ny->grant(problem.replica_component, "Executable",
              {{"CPU", Attribute::make_cap("CPU", 100)}});
  auto plan2 = planner.plan(problem, psf().node_infos(), 0, with_views);
  ASSERT_TRUE(plan2.ok()) << plan2.error().message;
  EXPECT_TRUE(plan2.value().uses_replica);
}

TEST_F(PlannerScenario, PlanDisplayIsReadable) {
  framework::QoS qos;
  qos.min_bandwidth_kbps = 1000;
  qos.privacy = true;
  auto session = psf().request(s.request_for(s.bob, Scenario::kSdPc, qos));
  ASSERT_TRUE(session.ok());
  const std::string text = session.value().plan.display();
  EXPECT_NE(text.find("deploy replica"), std::string::npos);
  EXPECT_NE(text.find("Encryptor"), std::string::npos);
  EXPECT_NE(text.find("switchboard channel"), std::string::npos);
}

// ------------------------------------------------- end-to-end client flows

TEST_F(PlannerScenario, AliceGetsMemberView) {
  auto session = psf().request(s.request_for(s.alice, Scenario::kNyPc));
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_EQ(session.value().view_name, "ViewMailClient_Member");
  EXPECT_EQ(session.value().matched_role, "Member");
  // Member view: full functionality, local addMeeting works.
  EXPECT_TRUE(
      session.value().view->call("addMeeting", {Value::string("bob")}).as_bool());
}

TEST_F(PlannerScenario, BobIsMemberAcrossDomains) {
  // Paper §3.3: Bob (San Diego) is Comp.NY.Member via credentials (2)+(11).
  auto session = psf().request(s.request_for(s.bob, Scenario::kSdPc));
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_EQ(session.value().view_name, "ViewMailClient_Member");
}

TEST_F(PlannerScenario, CharlieIsPartnerViaThirdPartyDelegation) {
  // Charlie proves Comp.NY.Partner via (15)+(12), with (3) authorizing
  // Comp.SD as the third-party issuer.
  auto session = psf().request(s.request_for(s.charlie, Scenario::kSePc));
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_EQ(session.value().view_name, "ViewMailClient_Partner");
  // Partner view: addMeeting is reduced to a request (returns false).
  EXPECT_FALSE(session.value()
                   .view->call("addMeeting", {Value::string("alice")})
                   .as_bool());
}

TEST_F(PlannerScenario, StrangerGetsAnonymousView) {
  drbac::Entity eve = drbac::Entity::create("Eve", psf().rng());
  framework::ClientRequest request;
  request.identity = eve;
  request.client_node = Scenario::kSePc;
  request.service = "mail";
  auto session = psf().request(request);
  ASSERT_TRUE(session.ok()) << session.error().message;
  EXPECT_EQ(session.value().view_name, "ViewMailClient_Anonymous");
  // The anonymous view exposes only AddressI.
  EXPECT_EQ(session.value()
                .view->call("getEmail", {Value::string("alice")})
                .as_string(),
            "alice@comp.ny");
  EXPECT_THROW(session.value().view->call("sendMessage",
                                          {mail::make_message("e", "a", "s", "b")}),
               minilang::EvalError);
}

TEST_F(PlannerScenario, PartnerViewRoutesToOriginOverChannel) {
  auto session = psf().request(s.request_for(s.charlie, Scenario::kSePc));
  ASSERT_TRUE(session.ok());
  // AddressI is switchboard-bound: answered by the origin at ny-server.
  EXPECT_EQ(session.value()
                .view->call("getPhone", {Value::string("bob")})
                .as_string(),
            "555-0101");
  EXPECT_GT(session.value().connection->stats().calls, 0u);
}

TEST_F(PlannerScenario, MailFlowsThroughReplicaToOrigin) {
  framework::QoS qos;
  qos.min_bandwidth_kbps = 1000;
  auto session = psf().request(s.request_for(s.bob, Scenario::kSdPc, qos));
  ASSERT_TRUE(session.ok()) << session.error().message;
  // Bob sends a message through his member view; the view pushes to the
  // replica at sd-pc, whose cache manager syncs to the origin at ny-server.
  session.value().view->call(
      "sendMessage", {mail::make_message("bob", "alice", "hi", "lunch?")});
  auto origin = psf().origin_instance("mail");
  EXPECT_EQ(origin->get_field("outbox").as_list()->size(), 1u);
}

TEST_F(PlannerScenario, RevocationMidSessionSuspendsClient) {
  auto session = psf().request(s.request_for(s.bob, Scenario::kSdPc));
  ASSERT_TRUE(session.ok());
  // Use the view once.
  session.value().view->call("getPhone", {Value::string("alice")});
  // SD-Guard revokes Bob's membership (11): the connection monitor fires.
  psf().repository().revoke(s.cred(11)->serial);
  EXPECT_TRUE(session.value().connection->suspended(
      switchboard::Connection::End::kA));
  EXPECT_THROW(session.value().view->call("getPhone", {Value::string("alice")}),
               minilang::EvalError);
}

TEST_F(PlannerScenario, SessionValidityTracksNetworkChanges) {
  framework::QoS qos;
  qos.max_latency_ms = 10;
  auto session = psf().request(s.request_for(s.alice, Scenario::kNyPc, qos));
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(psf().session_still_valid(session.value()));
  std::vector<MonitorModule::Event> seen;
  psf().monitor().subscribe(
      [&](const MonitorModule::Event& event) { seen.push_back(event); });
  // The monitoring module publishes the degradation; the session is invalid.
  psf().update_link(Scenario::kNyServer, Scenario::kNyPc,
                    {50 * util::kMillisecond, 100'000, true});
  EXPECT_FALSE(psf().session_still_valid(session.value()));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].props.latency, 50 * util::kMillisecond);
}

TEST_F(PlannerScenario, AdaptationsReuseTheViewGrant) {
  auto session = psf().request(s.request_for(s.alice, Scenario::kNyPc, {}));
  ASSERT_TRUE(session.ok()) << session.error().message;
  auto current = psf().adapt(session.value());
  ASSERT_TRUE(current.ok()) << current.error().message;
  const std::size_t size = psf().repository().size();
  const std::uint64_t epoch = psf().repository().epoch();
  for (int i = 0; i < 200; ++i) {
    current = psf().adapt(current.value());
    ASSERT_TRUE(current.ok()) << current.error().message;
  }
  EXPECT_EQ(psf().repository().size(), size);
  EXPECT_EQ(psf().repository().epoch(), epoch);
}

TEST_F(PlannerScenario, ReplicaIsReusedAcrossClients) {
  framework::QoS qos;
  qos.min_bandwidth_kbps = 1000;
  auto s1 = psf().request(s.request_for(s.bob, Scenario::kSdPc, qos));
  ASSERT_TRUE(s1.ok()) << s1.error().message;
  const auto cpu_after_first = psf().node(Scenario::kSdPc)->cpu_used();
  auto s2 = psf().request(s.request_for(s.bob, Scenario::kSdPc, qos));
  ASSERT_TRUE(s2.ok());
  // Second session deploys only the client view, not a second replica.
  EXPECT_EQ(psf().node(Scenario::kSdPc)->cpu_used(),
            cpu_after_first + 10 /*view_cpu*/);
}

// ------------------------------------------------------------ cipher pair

TEST(CipherWiring, ImagesAreCiphertextOnTheWireAndPlaintextInside) {
  // Spy target records the raw bytes it receives (the "wire").
  struct Spy : minilang::CallTarget {
    util::Bytes last;
    Value call(const std::string&, std::vector<Value> args) override {
      if (!args.empty() && args[0].is_bytes()) last = args[0].as_bytes();
      return Value::bytes(last);  // echo ciphertext back
    }
    std::string type_name() const override { return "spy"; }
  };

  minilang::ClassRegistry registry;
  mail::register_all(registry);
  const Value key = Value::bytes(util::to_bytes("shared key material"));
  auto encryptor = minilang::instantiate(registry, "Encryptor", {key});
  auto decryptor = minilang::instantiate(registry, "Decryptor", {key});

  auto spy = std::make_shared<Spy>();
  // provider side: CipherStub(spy as wire); the spy sees ciphertext.
  CipherStub stub(spy, encryptor);
  const util::Bytes image = util::to_bytes("inbox: love letters");
  const Value echoed = stub.call("mergeImageIntoObj", {Value::bytes(image)});

  EXPECT_NE(spy->last, image);                 // ciphertext on the wire
  EXPECT_EQ(echoed.as_bytes(), image);         // stub decrypts the echo

  // origin side: CipherEndpoint decrypts before dispatching.
  struct PlainSink : minilang::CallTarget {
    util::Bytes got;
    Value call(const std::string&, std::vector<Value> args) override {
      got = args[0].as_bytes();
      return Value::null();
    }
    std::string type_name() const override { return "sink"; }
  };
  auto sink = std::make_shared<PlainSink>();
  CipherEndpoint endpoint(sink, decryptor);
  endpoint.call("mergeImageIntoObj", {Value::bytes(spy->last)});
  EXPECT_EQ(sink->got, image);  // plaintext restored inside the endpoint
}

TEST(CipherWiring, NonBytesArgumentsPassThrough) {
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  auto cipher = minilang::instantiate(
      registry, "Encryptor", {Value::bytes(util::to_bytes("k"))});
  struct Echo : minilang::CallTarget {
    Value call(const std::string&, std::vector<Value> args) override {
      return args[0];
    }
    std::string type_name() const override { return "echo"; }
  };
  CipherStub stub(std::make_shared<Echo>(), cipher);
  EXPECT_EQ(stub.call("m", {Value::string("plain")}).as_string(), "plain");
  EXPECT_EQ(stub.call("m", {Value::integer(7)}).as_int(), 7);
}

}  // namespace
}  // namespace psf::framework
