// Concurrency and soak tests: the repository under concurrent
// add/prove/revoke, channels under concurrent callers (already covered in
// switchboard_test), MiniLang's per-class compile cache under concurrent
// first calls, and a multi-client soak over the full framework.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "drbac/engine.hpp"
#include "mail/scenario.hpp"
#include "minilang/interp.hpp"
#include "minilang/parser.hpp"
#include "obs/metrics.hpp"
#include "psf/framework.hpp"

namespace psf {
namespace {

using drbac::Principal;
using mail::Scenario;
using minilang::Value;

TEST(RepositoryStress, ConcurrentAddProveRevoke) {
  util::Rng rng(606);
  drbac::Repository repo;
  drbac::Entity guard = drbac::Entity::create("G", rng);
  // Pre-issue a pool of users.
  std::vector<drbac::Entity> users;
  std::vector<drbac::DelegationPtr> credentials;
  for (int i = 0; i < 32; ++i) {
    users.push_back(drbac::Entity::create("u" + std::to_string(i), rng));
    auto credential =
        drbac::issue(guard, Principal::of_entity(users.back()),
                     drbac::role_of(guard, "Member"), {}, false, 0, 0,
                     repo.next_serial());
    repo.add(credential);
    credentials.push_back(credential);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> errors{0};
  std::atomic<int> proofs{0};

  // Prover threads.
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      drbac::Engine engine(&repo);
      util::Rng local(1000 + static_cast<std::uint64_t>(t));
      while (!stop.load()) {
        const auto& user = users[local.next_below(users.size())];
        try {
          auto proof = engine.prove(Principal::of_entity(user),
                                    drbac::role_of(guard, "Member"), 0);
          if (proof.ok()) {
            proofs.fetch_add(1);
            (void)engine.validate(proof.value(), 0);
          }
        } catch (...) {
          errors.fetch_add(1);
        }
      }
    });
  }
  // Revoker/re-issuer thread.
  threads.emplace_back([&] {
    util::Rng local(77);
    for (int round = 0; round < 200; ++round) {
      const std::size_t victim = local.next_below(credentials.size());
      repo.revoke(credentials[victim]->serial);
      auto fresh = drbac::issue(guard, Principal::of_entity(users[victim]),
                                drbac::role_of(guard, "Member"), {}, false, 0,
                                0, repo.next_serial());
      repo.add(fresh);
      credentials[victim] = fresh;
    }
    stop.store(true);
  });
  // Subscriber churn thread.
  threads.emplace_back([&] {
    while (!stop.load()) {
      const auto id = repo.subscribe([](std::uint64_t) {});
      repo.unsubscribe(id);
    }
  });

  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  EXPECT_GT(proofs.load(), 0);
}

TEST(MiniLangStress, ConcurrentFirstCallsCompileOncePerClass) {
  // Base.get runs on Base and on three subclasses with different field
  // layouts; threads race their first calls on every class at once.
  minilang::ClassRegistry registry;
  auto add = [&](const std::string& name, const std::string& super,
                 std::vector<std::string> fields) {
    auto cls = std::make_shared<minilang::ClassDef>();
    cls->name = name;
    cls->super_name = super;
    for (const auto& f : fields) {
      cls->fields.push_back({f, "int", Value::integer(1)});
    }
    if (super.empty()) {
      minilang::MethodDef get;
      get.name = "get";
      get.source = "return f;";
      get.body = std::move(minilang::parse_block_source(get.source)).take();
      cls->methods.push_back(std::move(get));
    }
    registry.register_class(cls);
  };
  add("Base", "", {"f"});
  add("SubA", "Base", {"a"});
  add("SubB", "Base", {"a", "b"});
  add("SubC", "Base", {"g", "h", "i"});
  const std::vector<std::string> classes = {"Base", "SubA", "SubB", "SubC"};

  auto& compiled = obs::counter("psf.minilang.methods_compiled");
  const std::uint64_t before = compiled.value();
  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      std::vector<std::shared_ptr<minilang::Instance>> objects;
      for (const auto& name : classes) {
        auto obj = minilang::instantiate(registry, name);
        obj->set_field("f", Value::integer(t));
        objects.push_back(obj);
      }
      ready.fetch_add(1);
      while (ready.load() < 4) std::this_thread::yield();
      for (int i = 0; i < 200; ++i) {
        for (const auto& obj : objects) {
          if (obj->call("get", {}).as_int() != t) wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(compiled.value() - before, classes.size());
}

TEST(FrameworkSoak, ManyClientsAcrossSitesStayConsistent) {
  Scenario s = mail::build_scenario();
  framework::Psf& psf = *s.psf;
  util::Rng rng(2077);

  struct UserSpec {
    const drbac::Entity* entity;
    const char* node;
    const char* expected_view;
  };
  const UserSpec specs[] = {
      {&s.alice, Scenario::kNyPc, "ViewMailClient_Member"},
      {&s.bob, Scenario::kSdPc, "ViewMailClient_Member"},
      {&s.charlie, Scenario::kSePc, "ViewMailClient_Partner"},
  };

  std::vector<framework::ClientSession> sessions;
  int denied = 0;
  for (int round = 0; round < 12; ++round) {
    const UserSpec& spec = specs[rng.next_below(std::size(specs))];
    framework::QoS qos;
    if (rng.next_below(2) == 0) qos.min_bandwidth_kbps = 1000;
    if (rng.next_below(3) == 0) qos.privacy = true;
    auto session = psf.request(s.request_for(*spec.entity, spec.node, qos));
    if (!session.ok()) {
      // Acceptable failures: CPU exhausted by earlier rounds, or a QoS the
      // environment genuinely cannot satisfy (Charlie's untrusted site
      // cannot host a replica, so high-bandwidth demands are infeasible).
      const bool cpu = session.error().message.find("CPU") != std::string::npos;
      const bool no_plan = session.error().code == "no-plan";
      EXPECT_TRUE(cpu || no_plan) << session.error().message;
      ++denied;
      continue;
    }
    EXPECT_EQ(session.value().view_name, spec.expected_view);
    // Every session can reach the shared directory.
    EXPECT_EQ(session.value()
                  .view->call("getEmail", {Value::string("alice")})
                  .as_string(),
              "alice@comp.ny");
    sessions.push_back(std::move(session).take());
  }
  EXPECT_GE(sessions.size(), 6u);

  // All surviving channels still open; heartbeats keep them healthy.
  for (auto& session : sessions) {
    if (session.connection != nullptr) {
      session.connection->heartbeat();
      EXPECT_TRUE(session.connection->open());
    }
  }

  // A revocation storm: every Table 2 user credential revoked; all member/
  // partner sessions must suspend.
  psf.repository().revoke(s.cred(1)->serial);
  psf.repository().revoke(s.cred(11)->serial);
  psf.repository().revoke(s.cred(15)->serial);
  for (auto& session : sessions) {
    EXPECT_THROW(
        session.view->call("getEmail", {Value::string("alice")}),
        minilang::EvalError);
  }
}

TEST(FrameworkSoak, ParallelRequestsFromDistinctClients) {
  // Requests mutate shared state (repository, registries, network): the
  // public entry point is exercised from several threads against distinct
  // client nodes to shake out data races under TSAN-like schedules.
  Scenario s = mail::build_scenario();
  std::atomic<int> failures{0};
  std::atomic<int> successes{0};
  auto run = [&](const drbac::Entity& who, const char* node) {
    for (int i = 0; i < 3; ++i) {
      auto session = s.psf->request(s.request_for(who, node));
      if (session.ok()) {
        successes.fetch_add(1);
      } else {
        failures.fetch_add(1);
      }
    }
  };
  std::thread t1(run, std::cref(s.alice), Scenario::kNyPc);
  std::thread t2(run, std::cref(s.charlie), Scenario::kSePc);
  t1.join();
  t2.join();
  EXPECT_GT(successes.load(), 0);
}

}  // namespace
}  // namespace psf
