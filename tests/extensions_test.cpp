// Tests for the extension features: the credential wire format and the
// policy translation bridge (the paper's §6 future-work item), plus fuzz
// suites over every external input surface.
#include <gtest/gtest.h>

#include "drbac/credential.hpp"
#include "mail/components.hpp"
#include "minilang/interp.hpp"
#include "minilang/lexer.hpp"
#include "minilang/parser.hpp"
#include "psf/policy_bridge.hpp"
#include "switchboard/authorizer.hpp"
#include "switchboard/channel.hpp"
#include "switchboard/network.hpp"
#include "util/rng.hpp"
#include "views/vig.hpp"
#include "xml/xml.hpp"

namespace psf {
namespace {

using drbac::Principal;
using minilang::Value;

// --------------------------------------------------- credential wire format

struct WireWorld {
  util::Rng rng{31};
  drbac::Entity issuer = drbac::Entity::create("Comp.NY", rng);
  drbac::Entity subject = drbac::Entity::create("Alice", rng);
};

TEST(CredentialWire, RoundTripPreservesEverything) {
  WireWorld w;
  auto original = drbac::issue(
      w.issuer, Principal::of_entity(w.subject),
      drbac::role_of(w.issuer, "Member"),
      {{"Trust", drbac::Attribute::make_range("Trust", 2, 9)},
       {"Secure", drbac::Attribute::make_set("Secure", {"true"})}},
      /*assignment=*/true, /*issued=*/5, /*expires=*/99, /*serial=*/1234,
      drbac::DiscoveryTags{false, true});

  auto decoded = drbac::decode_delegation(drbac::encode_delegation(*original));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  const drbac::Delegation& d = *decoded.value();
  EXPECT_EQ(d.serial, 1234u);
  EXPECT_EQ(d.subject.display(), "Alice");
  EXPECT_EQ(d.target.display(), "Comp.NY.Member");
  EXPECT_TRUE(d.assignment);
  EXPECT_EQ(d.attributes.size(), 2u);
  EXPECT_EQ(d.attributes.at("Trust").lo, 2);
  EXPECT_EQ(d.issued_at, 5);
  EXPECT_EQ(d.expires_at, 99);
  EXPECT_FALSE(d.tags.searchable_from_subject);
  EXPECT_TRUE(d.tags.searchable_from_object);
  // The signature survives and still verifies.
  EXPECT_TRUE(d.verify_signature());
  EXPECT_EQ(d.display(), original->display());
}

TEST(CredentialWire, TamperedWireFailsSignature) {
  WireWorld w;
  auto original = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                               drbac::role_of(w.issuer, "Member"), {}, false,
                               0, 0, 7);
  util::Bytes wire = drbac::encode_delegation(*original);
  // Flip a byte inside the subject *fingerprint* (the authoritative
  // identity; display names are deliberately unsigned).
  const std::string fp = w.subject.fingerprint();
  const util::Bytes needle = util::to_bytes(fp);
  auto it = std::search(wire.begin(), wire.end(), needle.begin(), needle.end());
  ASSERT_NE(it, wire.end());
  *it = *it == 'a' ? 'b' : 'a';
  auto decoded = drbac::decode_delegation(wire);
  if (decoded.ok()) {
    EXPECT_FALSE(decoded.value()->verify_signature());
  } else {
    SUCCEED();  // structural rejection is fine too
  }
}

TEST(CredentialWire, DecodedCredentialUsableInProofs) {
  WireWorld w;
  drbac::Repository repo;
  auto original = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                               drbac::role_of(w.issuer, "Member"), {}, false,
                               0, 0, repo.next_serial());
  auto decoded =
      drbac::decode_delegation(drbac::encode_delegation(*original));
  ASSERT_TRUE(decoded.ok());
  repo.add(decoded.value());
  drbac::Engine engine(&repo);
  EXPECT_TRUE(engine
                  .prove(Principal::of_entity(w.subject),
                         drbac::role_of(w.issuer, "Member"), 0)
                  .ok());
}

TEST(CredentialWire, FuzzDecodeNeverCrashes) {
  util::Rng rng(404);
  for (int i = 0; i < 1000; ++i) {
    const util::Bytes garbage = rng.next_bytes(rng.next_below(200));
    (void)drbac::decode_delegation(garbage);
  }
  // Truncations of a valid encoding must all be rejected cleanly.
  WireWorld w;
  auto original = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                               drbac::role_of(w.issuer, "Member"), {}, false,
                               0, 0, 7);
  const util::Bytes wire = drbac::encode_delegation(*original);
  for (std::size_t cut = 0; cut < wire.size(); cut += 3) {
    util::Bytes truncated(wire.begin(),
                          wire.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(drbac::decode_delegation(truncated).ok());
  }
}

// ------------------------------------------------- repository replication

TEST(RepositorySync, SnapshotMergeReplicatesCredentialsAndRevocations) {
  WireWorld w;
  drbac::Repository home;
  auto kept = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                           drbac::role_of(w.issuer, "Member"), {}, false, 0,
                           0, home.next_serial());
  auto dropped = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                              drbac::role_of(w.issuer, "Partner"), {}, false,
                              0, 0, home.next_serial());
  home.add(kept);
  home.add(dropped);
  home.revoke(dropped->serial);

  drbac::Repository mirror;
  auto merged = mirror.merge_snapshot(home.snapshot());
  ASSERT_TRUE(merged.ok()) << merged.error().message;
  EXPECT_EQ(merged.value().added, 2u);
  EXPECT_EQ(merged.value().revoked, 1u);
  EXPECT_EQ(merged.value().rejected, 0u);

  // Proofs work against the mirror; the revocation carried over.
  drbac::Engine engine(&mirror);
  EXPECT_TRUE(engine
                  .prove(Principal::of_entity(w.subject),
                         drbac::role_of(w.issuer, "Member"), 0)
                  .ok());
  EXPECT_FALSE(engine
                   .prove(Principal::of_entity(w.subject),
                          drbac::role_of(w.issuer, "Partner"), 0)
                   .ok());

  // Idempotent re-merge.
  auto again = mirror.merge_snapshot(home.snapshot());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().added, 0u);
  EXPECT_EQ(again.value().revoked, 0u);
}

TEST(RepositorySync, MergeRejectsForgedEntries) {
  WireWorld w;
  drbac::Repository home;
  auto good = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                           drbac::role_of(w.issuer, "Member"), {}, false, 0,
                           0, home.next_serial());
  home.add(good);
  util::Bytes snapshot = home.snapshot();
  // Corrupt the embedded credential's fingerprint bytes.
  const util::Bytes needle = util::to_bytes(w.subject.fingerprint());
  auto it = std::search(snapshot.begin(), snapshot.end(), needle.begin(),
                        needle.end());
  ASSERT_NE(it, snapshot.end());
  *it = *it == 'a' ? 'b' : 'a';

  drbac::Repository mirror;
  auto merged = mirror.merge_snapshot(snapshot);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().added, 0u);
  EXPECT_EQ(merged.value().rejected, 1u);
}

TEST(RepositorySync, MergeRevocationFiresLocalMonitors) {
  WireWorld w;
  drbac::Repository home;
  auto credential = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                                 drbac::role_of(w.issuer, "Member"), {},
                                 false, 0, 0, home.next_serial());
  home.add(credential);

  drbac::Repository mirror;
  ASSERT_TRUE(mirror.merge_snapshot(home.snapshot()).ok());
  std::vector<std::uint64_t> fired;
  mirror.subscribe([&](std::uint64_t serial) { fired.push_back(serial); });

  home.revoke(credential->serial);
  ASSERT_TRUE(mirror.merge_snapshot(home.snapshot()).ok());
  EXPECT_EQ(fired, std::vector<std::uint64_t>{credential->serial});
}

TEST(RepositorySync, MergedSerialsDoNotCollideWithLocalIssues) {
  WireWorld w;
  drbac::Repository home;
  for (int i = 0; i < 5; ++i) {
    home.add(drbac::issue(w.issuer, Principal::of_entity(w.subject),
                          drbac::role_of(w.issuer, "r" + std::to_string(i)),
                          {}, false, 0, 0, home.next_serial()));
  }
  drbac::Repository mirror;
  ASSERT_TRUE(mirror.merge_snapshot(home.snapshot()).ok());
  EXPECT_GT(mirror.next_serial(), 5u);
}

TEST(RepositorySync, FuzzMergeNeverCrashes) {
  util::Rng rng(2222);
  drbac::Repository repo;
  for (int i = 0; i < 300; ++i) {
    (void)repo.merge_snapshot(rng.next_bytes(rng.next_below(256)));
  }
  // Truncations of a valid snapshot.
  WireWorld w;
  drbac::Repository home;
  home.add(drbac::issue(w.issuer, Principal::of_entity(w.subject),
                        drbac::role_of(w.issuer, "Member"), {}, false, 0, 0,
                        home.next_serial()));
  const util::Bytes snapshot = home.snapshot();
  for (std::size_t cut = 0; cut < snapshot.size(); cut += 5) {
    util::Bytes truncated(snapshot.begin(),
                          snapshot.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(repo.merge_snapshot(truncated).ok());
  }
}

// --------------------------------------------------------- channel fixture

struct ChannelWorld {
  util::Rng rng{2025};
  std::shared_ptr<util::SimClock> clock = std::make_shared<util::SimClock>();
  switchboard::Network net;
  drbac::Repository repo;
  drbac::Entity guard = drbac::Entity::create("G", rng);
  drbac::Entity client = drbac::Entity::create("C", rng);
  drbac::Entity server = drbac::Entity::create("S", rng);
  switchboard::Switchboard a{"a", &net, clock};
  switchboard::Switchboard b{"b", &net, clock};

  ChannelWorld() {
    net.connect("a", "b", {util::kMillisecond, 0, true});
    switchboard::AuthorizationSuite suite;
    suite.identity = server;
    suite.authorizer = std::make_shared<switchboard::AcceptAllAuthorizer>();
    b.set_suite(suite);
  }

  std::shared_ptr<switchboard::Connection> connect() {
    switchboard::AuthorizationSuite suite;
    suite.identity = client;
    suite.authorizer = std::make_shared<switchboard::AcceptAllAuthorizer>();
    return a.connect(b, suite, rng).value();
  }
};

// ------------------------------------------------------------ policy bridge

TEST(PolicyBridge, TranslatesCapabilitiesToRoles) {
  util::Rng rng(5);
  drbac::Repository repo;
  framework::PolicyBridge bridge("LegacyACL", &repo, rng);
  drbac::Entity user = drbac::Entity::create("User", rng);
  bridge.register_principal(Principal::of_entity(user));

  framework::CapabilityPolicy policy;
  policy.grants[user.fingerprint()] = {"read-mail", "send-mail"};
  auto result = bridge.sync(policy);
  EXPECT_EQ(result.issued, 2u);
  EXPECT_EQ(result.revoked, 0u);

  drbac::Engine engine(&repo);
  EXPECT_TRUE(engine
                  .prove(Principal::of_entity(user),
                         bridge.role_for("read-mail"), 0)
                  .ok());
  EXPECT_FALSE(engine
                   .prove(Principal::of_entity(user),
                          bridge.role_for("admin"), 0)
                   .ok());
}

TEST(PolicyBridge, SyncIsIdempotent) {
  util::Rng rng(6);
  drbac::Repository repo;
  framework::PolicyBridge bridge("LegacyACL", &repo, rng);
  drbac::Entity user = drbac::Entity::create("User", rng);
  bridge.register_principal(Principal::of_entity(user));
  framework::CapabilityPolicy policy;
  policy.grants[user.fingerprint()] = {"read-mail"};
  bridge.sync(policy);
  auto again = bridge.sync(policy);
  EXPECT_EQ(again.issued, 0u);
  EXPECT_EQ(again.revoked, 0u);
  EXPECT_EQ(bridge.live_translations(), 1u);
}

TEST(PolicyBridge, DroppedEntriesAreRevoked) {
  util::Rng rng(7);
  drbac::Repository repo;
  framework::PolicyBridge bridge("LegacyACL", &repo, rng);
  drbac::Entity user = drbac::Entity::create("User", rng);
  bridge.register_principal(Principal::of_entity(user));
  framework::CapabilityPolicy policy;
  policy.grants[user.fingerprint()] = {"read-mail", "send-mail"};
  bridge.sync(policy);

  policy.grants[user.fingerprint()] = {"read-mail"};  // send-mail dropped
  auto result = bridge.sync(policy);
  EXPECT_EQ(result.revoked, 1u);

  drbac::Engine engine(&repo);
  EXPECT_TRUE(engine
                  .prove(Principal::of_entity(user),
                         bridge.role_for("read-mail"), 0)
                  .ok());
  EXPECT_FALSE(engine
                   .prove(Principal::of_entity(user),
                          bridge.role_for("send-mail"), 0)
                   .ok());
}

TEST(PolicyBridge, BridgedRolesChainIntoAppRoles) {
  // The point of the translation service: a domain running capability lists
  // participates in dRBAC proofs via ordinary role mapping.
  util::Rng rng(8);
  drbac::Repository repo;
  framework::PolicyBridge bridge("LegacyACL", &repo, rng);
  drbac::Entity user = drbac::Entity::create("User", rng);
  drbac::Entity app = drbac::Entity::create("App", rng);
  bridge.register_principal(Principal::of_entity(user));
  framework::CapabilityPolicy policy;
  policy.grants[user.fingerprint()] = {"mail-user"};
  bridge.sync(policy);
  // [ LegacyACL.mail-user -> App.Member ] App
  repo.add(drbac::issue(app,
                        Principal::of_role_ref(bridge.role_for("mail-user")),
                        drbac::role_of(app, "Member"), {}, false, 0, 0,
                        repo.next_serial()));
  drbac::Engine engine(&repo);
  auto proof =
      engine.prove(Principal::of_entity(user), drbac::role_of(app, "Member"), 0);
  ASSERT_TRUE(proof.ok()) << proof.error().message;
  EXPECT_EQ(proof.value().credentials.size(), 2u);

  // Revoking at the legacy side invalidates the cross-domain proof.
  framework::CapabilityPolicy empty;
  bridge.sync(empty);
  EXPECT_FALSE(engine.validate(proof.value(), 0));
}

// -------------------------------------------------------------- fuzz suites

TEST(Fuzz, XmlParserNeverCrashes) {
  util::Rng rng(1001);
  for (int i = 0; i < 500; ++i) {
    const util::Bytes garbage = rng.next_bytes(rng.next_below(128));
    (void)xml::parse(std::string(garbage.begin(), garbage.end()));
  }
  // Structured-ish garbage.
  const char* nasty[] = {
      "<", "<a", "<a b", "<a b=", "<a b=>", "<a></b>", "<a><a><a>",
      "<a/><b/>", "<a>&unknown;</a>", "<![CDATA[", "<!--", "<a b='",
      "<a>\xff\xfe</a>", "<<<>>>", "</a>", "<a a=1 a=2/>",
  };
  for (const char* s : nasty) {
    (void)xml::parse(s);
  }
  SUCCEED();
}

TEST(Fuzz, MiniLangLexerParserNeverCrash) {
  util::Rng rng(1002);
  for (int i = 0; i < 500; ++i) {
    const util::Bytes garbage = rng.next_bytes(rng.next_below(96));
    const std::string source(garbage.begin(), garbage.end());
    auto tokens = minilang::lex(source);
    if (tokens.ok()) {
      (void)minilang::parse_block_source(source);
      (void)minilang::parse_expression_source(source);
    }
  }
  const char* nasty[] = {
      "var", "var ;", "var x", "var x =", "if", "if (", "if (x) {",
      "while (true)", "return", "a.b.c.d.e(", "((((((((((", "1 + + 2",
      "x = = 1;", "\"unterminated", "a[1[2[3",
  };
  for (const char* s : nasty) {
    (void)minilang::parse_block_source(s);
  }
  SUCCEED();
}

TEST(Fuzz, ViewDefinitionFromRandomXmlNeverCrashes) {
  util::Rng rng(1003);
  const char* fragments[] = {
      "<View name=\"V\">", "<Represents name=\"MailClient\"/>",
      "<Restricts>", "</Restricts>", "<Interface name=\"MessageI\"/>",
      "<Adds_Methods>", "</Adds_Methods>", "<MSign>f()</MSign>",
      "<MBody>x;</MBody>", "</View>", "<Field name=\"f\"/>",
  };
  for (int i = 0; i < 300; ++i) {
    std::string doc;
    const std::size_t parts = 1 + rng.next_below(8);
    for (std::size_t p = 0; p < parts; ++p) {
      doc += fragments[rng.next_below(std::size(fragments))];
    }
    (void)views::ViewDefinition::from_xml(doc);
  }
  SUCCEED();
}

TEST(Fuzz, VigOnRandomDefinitionsNeverCrashes) {
  // Random but schema-valid definitions: VIG must either generate or
  // produce diagnostics, never crash.
  util::Rng rng(1004);
  minilang::ClassRegistry registry;
  mail::register_all(registry);
  const char* interfaces[] = {"MessageI", "AddressI", "NotesI", "MailI",
                              "GhostI"};
  const char* types[] = {"local", "rmi", "switchboard"};
  const char* bodies[] = {"return null;", "return missing;", "helper(1);",
                          "var x = 1; return x;", "push(inbox, 1); return 0;"};
  for (int i = 0; i < 200; ++i) {
    std::string xml = "<View name=\"F" + std::to_string(i) + "\">";
    xml += "<Represents name=\"MailClient\"/>";
    xml += "<Restricts>";
    const std::size_t iface_count = rng.next_below(4);
    for (std::size_t k = 0; k < iface_count; ++k) {
      xml += std::string("<Interface name=\"") +
             interfaces[rng.next_below(std::size(interfaces))] + "\" type=\"" +
             types[rng.next_below(std::size(types))] + "\"/>";
    }
    xml += "</Restricts><Adds_Methods>";
    if (rng.next_below(4) != 0) {
      xml += "<MSign>constructor()</MSign><MBody>return null;</MBody>";
    }
    xml += std::string("<MSign>extra()</MSign><MBody>") +
           bodies[rng.next_below(std::size(bodies))] + "</MBody>";
    xml += "</Adds_Methods></View>";
    auto def = views::ViewDefinition::from_xml(xml);
    if (!def.ok()) continue;
    views::Vig vig(&registry);
    (void)vig.generate(def.value());
  }
  SUCCEED();
}

TEST(Fuzz, ConnectionUnsealOnRandomFramesNeverCrashes) {
  ChannelWorld w;
  auto conn = w.connect();
  util::Rng rng(1005);
  for (int i = 0; i < 500; ++i) {
    const util::Bytes garbage = rng.next_bytes(rng.next_below(160));
    auto r = conn->unseal(switchboard::Connection::End::kB, garbage);
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace psf
