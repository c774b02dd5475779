// Distributed credential repository (paper §3.1). One Repository instance
// models the federated store: credentials are indexed by subject and by
// object (target role), and *discovery tags* on each credential control
// which index may serve it — "searchable from subject" / "searchable from
// object". The repository is also the credentials' "home": it tracks
// revocations and pushes notifications to validity monitors.
//
// Fast-path support (DESIGN.md "Proof-engine fast path"): the repository
// carries a monotonically increasing *epoch* — bumped by every mutation
// that can change a proof outcome (add, revoke, and therefore merge) — and
// owns the ProofCache whose entries are gated on that epoch. Revoking a
// credential also evicts its SignatureCache entry, so a revoked delegation
// is never served from any cache.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>

#include "util/lock_rank.hpp"
#include <set>
#include <vector>

#include "drbac/credential.hpp"
#include "drbac/proof_cache.hpp"

namespace psf::drbac {

class Repository {
 public:
  void add(DelegationPtr credential);

  /// add() unless this exact credential (same serial and signature) is
  /// already held; returns whether it was added. Collecting re-presented
  /// credentials through this keeps the store and its epoch unchanged.
  bool add_if_absent(DelegationPtr credential);

  /// Credentials granting rights *to* this role (directed by the object
  /// index; honors searchable_from_object unless tags are disabled).
  std::vector<DelegationPtr> by_target(const RoleRef& target,
                                       bool honor_tags = true) const;

  /// Credentials whose subject is this principal (subject index; honors
  /// searchable_from_subject unless tags are disabled).
  std::vector<DelegationPtr> by_subject(const Principal& subject,
                                        bool honor_tags = true) const;

  /// Exhaustive scan (discovery-tag ablation in bench_proof_engine).
  std::vector<DelegationPtr> all() const;

  std::size_t size() const;

  /// Fresh serial for issuing (monotonic, process-wide unique).
  std::uint64_t next_serial();

  // ---- Fast-path cache support ----

  /// Mutation epoch: bumped *after* every add() and every effective
  /// revoke() (merges bump through those). ProofCache entries recorded
  /// under an older epoch are invalid. Reading the epoch before a search
  /// and re-checking it before caching the result makes the cache safe
  /// against concurrent mutation (a torn search view can only ever be
  /// stored under an already-stale epoch).
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// The proof-fragment cache scoped to this repository's credentials.
  /// Mutable through a const repository: caching is invisible to the
  /// logical credential store.
  ProofCache& proof_cache() const { return proof_cache_; }

  // ---- Revocation ("home" validation monitoring) ----

  void revoke(std::uint64_t serial);
  bool is_revoked(std::uint64_t serial) const;

  using RevocationCallback = std::function<void(std::uint64_t serial)>;

  /// Subscribe to revocation events; returns a subscription id.
  std::uint64_t subscribe(RevocationCallback callback);
  void unsubscribe(std::uint64_t subscription_id);

  // ---- Replication (the "distributed repository" of §3.1) ----

  /// Serialize every credential and the revocation set to a byte snapshot.
  util::Bytes snapshot() const;

  /// Merge a snapshot produced elsewhere: credentials with unseen serials
  /// are added (signatures verified; invalid entries are skipped and
  /// counted), revocations are applied (firing monitors). Idempotent.
  struct MergeResult {
    std::size_t added = 0;
    std::size_t revoked = 0;
    std::size_t rejected = 0;  // malformed or bad-signature entries
  };
  util::Result<MergeResult> merge_snapshot(const util::Bytes& snapshot);

 private:
  void add_locked(DelegationPtr credential);

  static std::string target_key(const RoleRef& r) {
    return r.entity_fp + "." + r.role;
  }
  static std::string subject_key(const Principal& p) {
    return p.entity_fp + "." + p.role;
  }

  mutable util::RankedMutex<std::mutex> mutex_{
      util::LockRank::kRepository, "drbac.repository"};
  std::vector<DelegationPtr> credentials_;
  std::map<std::string, std::vector<DelegationPtr>> by_target_;
  std::map<std::string, std::vector<DelegationPtr>> by_subject_;
  std::set<std::uint64_t> revoked_;
  std::map<std::uint64_t, RevocationCallback> subscribers_;
  std::uint64_t next_subscription_ = 1;
  std::atomic<std::uint64_t> next_serial_{1};
  std::atomic<std::uint64_t> epoch_{1};
  mutable ProofCache proof_cache_;
};

}  // namespace psf::drbac
