// Proof-graph construction (paper §3.1): given a subject S, a target role R,
// and the credential repository, build a chain of valid delegations proving
// that S possesses R, attenuating valued attributes along the way. The
// engine also validates existing proofs (for continuous authorization) and
// provides ProofMonitor, which turns repository revocation events into
// invalidation callbacks — the mechanism Switchboard's
// AuthorizationMonitors build on.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "drbac/repository.hpp"
#include "util/result.hpp"
#include "util/sim_clock.hpp"

namespace psf::drbac {

struct Proof {
  Principal subject;
  RoleRef target;
  AttributeMap effective_attributes;  // intersection along the main chain
  // Main chain ordered subject-end first:
  //   credentials[0].subject == subject, credentials.back().target == target.
  std::vector<DelegationPtr> credentials;
  // Assignment sub-proof credentials authorizing third-party issuers.
  std::vector<DelegationPtr> support;
  util::SimTime proved_at = 0;

  /// Every credential this proof depends on (main chain + support).
  std::vector<DelegationPtr> all_credentials() const;

  /// Human-readable multi-line rendering of the chain.
  std::string display() const;
};

struct ProveOptions {
  std::size_t max_depth = 16;
  /// When false, the engine ignores discovery tags and scans the whole
  /// repository at each step (the ablation baseline in bench_proof_engine).
  bool use_discovery_tags = true;
  /// Attributes the effective (attenuated) grant must satisfy. NOT part of
  /// the proof-cache key: the chain search never consults requirements, so
  /// one cached fragment serves every `required` map and `satisfies` is
  /// re-applied per call.
  AttributeMap required;
  /// Serve/populate the repository's ProofCache (epoch-gated memoized
  /// (subject, target) fragments). Disable to measure or exercise the raw
  /// graph search (the ablation baseline in bench_proof_engine).
  bool use_proof_cache = true;
  /// Route signature checks through the process-wide SignatureCache, so
  /// each credential pays its ~0.1 ms Schnorr verify once per lifetime.
  bool use_signature_cache = true;
  /// On a proof-cache miss, pre-verify the candidate credentials reachable
  /// from the target in parallel on a shared util::ThreadPool before the
  /// (serial, deterministic) search runs. Only populates the signature
  /// cache — proof results are bit-identical with this on or off. Implies
  /// nothing unless use_signature_cache is also true.
  bool parallel_verify = true;
};

/// Proof-graph engine with a layered fast path (DESIGN.md "Proof-engine
/// fast path"):
///
///   1. prove() first consults the repository's ProofCache: a hit re-checks
///      expiry against `now` and attribute requirements, then returns
///      without touching the graph — warm guard checks and Authorizer
///      re-evaluations cost map-lookup time.
///   2. On a miss, candidate credentials are signature-verified in parallel
///      (ProveOptions::parallel_verify) into the SignatureCache, then the
///      serial search runs against warm verdicts.
///   3. The search result — success or dead end — is recorded under the
///      repository epoch observed *before* the search, so a concurrent
///      add/revoke can never be cached as current.
///
/// Revocation and expiry are always checked live against the repository;
/// the caches only ever memoize pure facts (signature validity) or
/// epoch-gated search results, so a revoked delegation is never served from
/// any cache. Engine itself is stateless and cheap to construct; all cache
/// state lives in the Repository and the process-wide SignatureCache, and
/// every entry point is safe to call from multiple threads concurrently.
class Engine {
 public:
  explicit Engine(const Repository* repository) : repository_(repository) {}

  /// Prove that `subject` possesses `target` at time `now`.
  util::Result<Proof> prove(const Principal& subject, const RoleRef& target,
                            util::SimTime now, ProveOptions options = {}) const;

  /// Re-validate an existing proof at time `now`: every credential must
  /// still verify, be unexpired and unrevoked, and the attenuated attributes
  /// must still satisfy `required` (continuous authorization, paper §4.3).
  /// Signature checks go through the SignatureCache (revocation and expiry
  /// are re-checked live), so steady-state revalidation on the heartbeat
  /// path does no public-key cryptography.
  bool validate(const Proof& proof, util::SimTime now,
                const AttributeMap& required = {}) const;

  const Repository& repository() const { return *repository_; }

 private:
  const Repository* repository_;
};

/// Watches a proof's credentials for revocation; fires `on_invalidated`
/// (once) when any underlying credential is revoked.
class ProofMonitor {
 public:
  using Callback = std::function<void(const Proof&, std::uint64_t serial)>;

  ProofMonitor(Repository* repository, Proof proof, Callback on_invalidated);
  ~ProofMonitor();

  ProofMonitor(const ProofMonitor&) = delete;
  ProofMonitor& operator=(const ProofMonitor&) = delete;

  bool invalidated() const { return invalidated_->load(); }
  const Proof& proof() const { return proof_; }

 private:
  Repository* repository_;
  Proof proof_;
  std::shared_ptr<std::atomic<bool>> invalidated_;
  std::uint64_t subscription_ = 0;
};

}  // namespace psf::drbac
