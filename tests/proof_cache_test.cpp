// Fast-path cache correctness (ISSUE 2 satellite): SignatureCache hit
// behavior, ProofCache epoch invalidation across add/revoke/merge, the
// parallel-verify determinism guarantee, and the "a revoked or expired
// delegation is never served from any cache" acceptance criterion.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "drbac/credential.hpp"
#include "drbac/engine.hpp"
#include "drbac/entity.hpp"
#include "drbac/proof_cache.hpp"
#include "drbac/repository.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/sim_clock.hpp"

namespace psf::drbac {
namespace {

using util::SimTime;
using util::kSecond;

std::uint64_t counter(const char* name) {
  return obs::counter(name).value();
}

// Start every test from empty caches: the SignatureCache is process-wide,
// so leftovers from a previous test would hide misses.
void reset_caches(const Repository& repo) {
  SignatureCache::instance().clear();
  repo.proof_cache().clear();
}

ProveOptions uncached_options() {
  ProveOptions options;
  options.use_proof_cache = false;
  options.use_signature_cache = false;
  options.parallel_verify = false;
  return options;
}

// A `depth`-hop delegation chain user -> G0.r -> ... -> G(depth-1).r.
// `issue_last` false withholds the final link (for the merge test).
struct ChainWorld {
  util::Rng rng{7};
  Repository repo;
  Entity user{Entity::create("user", rng)};
  std::vector<Entity> guards;
  std::vector<DelegationPtr> links;
  RoleRef goal;

  explicit ChainWorld(int depth, SimTime expires_at = 0) {
    for (int i = 0; i < depth; ++i) {
      guards.push_back(Entity::create("G" + std::to_string(i), rng));
    }
    links.push_back(issue(guards[0], Principal::of_entity(user),
                          role_of(guards[0], "r"), {}, false, 0, expires_at,
                          repo.next_serial()));
    repo.add(links.back());
    for (int i = 0; i + 1 < depth; ++i) {
      links.push_back(issue(guards[i + 1], Principal::of_role(guards[i], "r"),
                            role_of(guards[i + 1], "r"), {}, false, 0,
                            expires_at, repo.next_serial()));
      repo.add(links.back());
    }
    goal = role_of(guards[depth - 1], "r");
  }

  Principal subject() const { return Principal::of_entity(user); }
};

std::vector<std::uint64_t> serials(const Proof& proof) {
  std::vector<std::uint64_t> out;
  for (const auto& c : proof.credentials) out.push_back(c->serial);
  return out;
}

// ------------------------------------------------------- SignatureCache

TEST(SignatureCache, HitAfterFirstVerify) {
  ChainWorld world(1);
  reset_caches(world.repo);
  const Delegation& cred = *world.links[0];

  EXPECT_FALSE(SignatureCache::instance().contains(cred));
  const std::uint64_t misses0 = counter("psf.drbac.sigcache.misses");
  const std::uint64_t hits0 = counter("psf.drbac.sigcache.hits");

  EXPECT_TRUE(verify_cached(cred));  // miss: runs the Schnorr verify
  EXPECT_TRUE(SignatureCache::instance().contains(cred));
  EXPECT_EQ(counter("psf.drbac.sigcache.misses"), misses0 + 1);

  EXPECT_TRUE(verify_cached(cred));  // hit: no crypto
  EXPECT_TRUE(verify_cached(cred));
  EXPECT_EQ(counter("psf.drbac.sigcache.hits"), hits0 + 2);
  EXPECT_EQ(counter("psf.drbac.sigcache.misses"), misses0 + 1);
}

TEST(SignatureCache, TamperedCopyMissesAndFails) {
  ChainWorld world(1);
  reset_caches(world.repo);
  const Delegation& cred = *world.links[0];
  ASSERT_TRUE(verify_cached(cred));

  // A tampered copy has a different content hash: it cannot ride the
  // original's cached verdict, and its own verify fails.
  Delegation tampered = cred;
  tampered.serial += 1;
  EXPECT_NE(tampered.content_hash(), cred.content_hash());
  EXPECT_FALSE(SignatureCache::instance().contains(tampered));
  EXPECT_FALSE(verify_cached(tampered));
  // The bad verdict is cached too (pure fact) without touching the good one.
  EXPECT_FALSE(verify_cached(tampered));
  EXPECT_TRUE(verify_cached(cred));
}

TEST(SignatureCache, InvalidateDropsOnlyThatEntry) {
  ChainWorld world(2);
  reset_caches(world.repo);
  ASSERT_TRUE(verify_cached(*world.links[0]));
  ASSERT_TRUE(verify_cached(*world.links[1]));
  EXPECT_EQ(SignatureCache::instance().size(), 2u);

  SignatureCache::instance().invalidate(*world.links[0]);
  EXPECT_FALSE(SignatureCache::instance().contains(*world.links[0]));
  EXPECT_TRUE(SignatureCache::instance().contains(*world.links[1]));
  EXPECT_EQ(SignatureCache::instance().size(), 1u);
}

TEST(SignatureCache, OneShotEntriesAgeOutWhileAReusedOneStays) {
  ChainWorld world(1);
  reset_caches(world.repo);
  SignatureCache& cache = SignatureCache::instance();
  const Delegation& reused = *world.links[0];
  ASSERT_TRUE(cache.verify(reused));
  // Copies with fresh serials stand in for one-shot credentials: each has
  // its own content hash, and store() records a verdict without verifying.
  Delegation one_shot = reused;
  const std::uint64_t misses0 = counter("psf.drbac.sigcache.misses");
  const std::uint64_t evictions0 = counter("psf.drbac.sigcache.evictions");
  for (std::uint64_t serial = 1000; serial < 11000; ++serial) {
    one_shot.serial = serial;
    cache.store(one_shot, true);
    if (serial % 64 == 0) {
      ASSERT_TRUE(cache.contains(reused)) << "after serial " << serial;
      ASSERT_TRUE(cache.verify(reused));
    }
  }
  EXPECT_EQ(counter("psf.drbac.sigcache.misses"), misses0);
  EXPECT_GT(counter("psf.drbac.sigcache.evictions"), evictions0);
  EXPECT_LE(cache.size(), 4096u);
  one_shot.serial = 1000;
  EXPECT_FALSE(cache.contains(one_shot));

  cache.invalidate(reused);
  EXPECT_FALSE(cache.contains(reused));
}

// ----------------------------------------------------------- ProofCache

TEST(ProofCache, WarmHitReturnsIdenticalProof) {
  ChainWorld world(4);
  reset_caches(world.repo);
  Engine engine(&world.repo);

  const std::uint64_t hits0 = counter("psf.drbac.proofcache.hits");
  auto cold = engine.prove(world.subject(), world.goal, 0);
  ASSERT_TRUE(cold.ok());
  EXPECT_GE(world.repo.proof_cache().size(), 1u);

  auto warm = engine.prove(world.subject(), world.goal, 0);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(counter("psf.drbac.proofcache.hits"), hits0 + 1);
  EXPECT_EQ(serials(warm.value()), serials(cold.value()));
  EXPECT_EQ(attributes_to_string(warm.value().effective_attributes),
            attributes_to_string(cold.value().effective_attributes));
}

TEST(ProofCache, EpochBumpsOnAddRevokeAndMerge) {
  ChainWorld world(2);
  const std::uint64_t e0 = world.repo.epoch();

  world.repo.add(issue(world.guards[0], Principal::of_entity(world.user),
                       role_of(world.guards[0], "other"), {}, false, 0, 0,
                       world.repo.next_serial()));
  EXPECT_GT(world.repo.epoch(), e0);

  const std::uint64_t e1 = world.repo.epoch();
  world.repo.revoke(world.links[1]->serial);
  EXPECT_GT(world.repo.epoch(), e1);

  // Re-revoking the same serial is not an effective mutation.
  const std::uint64_t e2 = world.repo.epoch();
  world.repo.revoke(world.links[1]->serial);
  EXPECT_EQ(world.repo.epoch(), e2);
}

TEST(ProofCache, RevokedDelegationNeverServedFromCache) {
  ChainWorld world(4);
  reset_caches(world.repo);
  Engine engine(&world.repo);

  // Warm every cache layer, then hit once to prove the fast path is live.
  auto proof = engine.prove(world.subject(), world.goal, 0);
  ASSERT_TRUE(proof.ok());
  ASSERT_TRUE(engine.prove(world.subject(), world.goal, 0).ok());
  ASSERT_TRUE(SignatureCache::instance().contains(*world.links[2]));

  // Revoke a mid-chain link: epoch bump kills the ProofCache entry and the
  // SignatureCache entry is evicted.
  world.repo.revoke(world.links[2]->serial);
  EXPECT_FALSE(SignatureCache::instance().contains(*world.links[2]));

  auto after = engine.prove(world.subject(), world.goal, 0);
  EXPECT_FALSE(after.ok());
  // The old proof object must also stop validating (continuous auth).
  EXPECT_FALSE(engine.validate(proof.value(), 0));
  // And the failure is itself cached + re-served without resurrecting it.
  EXPECT_FALSE(engine.prove(world.subject(), world.goal, 0).ok());
}

TEST(ProofCache, MergeRefreshesCachedDeadEnd) {
  // Withhold the last link, let the engine cache the dead end, then merge a
  // snapshot supplying it: the epoch bump must invalidate the negative
  // entry so the proof goes through.
  ChainWorld world(3);
  reset_caches(world.repo);
  Engine engine(&world.repo);
  Entity last = Entity::create("last", world.rng);
  const RoleRef goal = role_of(last, "r");

  EXPECT_FALSE(engine.prove(world.subject(), goal, 0).ok());
  EXPECT_GE(world.repo.proof_cache().size(), 1u);  // negative entry

  Repository other;
  other.add(issue(last, Principal::of_role(world.guards[2], "r"), goal, {},
                  false, 0, 0, 777));
  const std::uint64_t epoch_before = world.repo.epoch();
  auto merged = world.repo.merge_snapshot(other.snapshot());
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged.value().added, 1u);
  EXPECT_GT(world.repo.epoch(), epoch_before);

  auto proof = engine.prove(world.subject(), goal, 0);
  ASSERT_TRUE(proof.ok());
  EXPECT_EQ(proof.value().credentials.size(), 4u);
}

TEST(ProofCache, NoStaleProofAfterExpiryUnderSimClock) {
  util::SimClock clock;
  ChainWorld world(3, /*expires_at=*/10 * kSecond);
  reset_caches(world.repo);
  Engine engine(&world.repo);

  auto proof = engine.prove(world.subject(), world.goal, clock.now());
  ASSERT_TRUE(proof.ok());
  ASSERT_TRUE(engine.prove(world.subject(), world.goal, clock.now()).ok());

  // Advance past expiry: the cached fragment references expired
  // credentials, so the hit is refused and the live search fails too.
  clock.advance(20 * kSecond);
  const std::uint64_t expiries0 = counter("psf.drbac.proofcache.expiries");
  EXPECT_FALSE(engine.prove(world.subject(), world.goal, clock.now()).ok());
  EXPECT_EQ(counter("psf.drbac.proofcache.expiries"), expiries0 + 1);
  EXPECT_FALSE(engine.validate(proof.value(), clock.now()));
}

TEST(ProofCache, RequirementsRecheckedOnEveryHit) {
  // `required` is not part of the cache key; a cached success must still
  // fail a requirement the attenuated grant cannot satisfy.
  ChainWorld world(2);
  reset_caches(world.repo);
  Engine engine(&world.repo);

  ASSERT_TRUE(engine.prove(world.subject(), world.goal, 0).ok());

  ProveOptions demanding;
  demanding.required = {{"CPU", Attribute::make_range("CPU", 0, 10)}};
  EXPECT_FALSE(engine.prove(world.subject(), world.goal, 0, demanding).ok());
  // And the unconstrained proof still succeeds from the same entry.
  EXPECT_TRUE(engine.prove(world.subject(), world.goal, 0).ok());
}

// ------------------------------------------------- Parallel determinism

TEST(ParallelVerify, ProofsIdenticalToSerial) {
  ChainWorld world(8);
  Engine engine(&world.repo);

  reset_caches(world.repo);
  auto serial_proof =
      engine.prove(world.subject(), world.goal, 0, uncached_options());
  ASSERT_TRUE(serial_proof.ok());

  reset_caches(world.repo);
  ProveOptions parallel;  // defaults: all cache layers + parallel prewarm on
  const std::uint64_t jobs0 = counter("psf.drbac.parallel_verify.jobs");
  auto parallel_proof =
      engine.prove(world.subject(), world.goal, 0, parallel);
  ASSERT_TRUE(parallel_proof.ok());
  EXPECT_GT(counter("psf.drbac.parallel_verify.jobs"), jobs0);

  EXPECT_EQ(serials(parallel_proof.value()), serials(serial_proof.value()));
  EXPECT_EQ(attributes_to_string(parallel_proof.value().effective_attributes),
            attributes_to_string(serial_proof.value().effective_attributes));
  EXPECT_EQ(parallel_proof.value().support.size(),
            serial_proof.value().support.size());
}

}  // namespace
}  // namespace psf::drbac
