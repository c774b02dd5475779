// Proof-engine fast path (ISSUE 2 tentpole): two caches that take signature
// verification and proof-graph search off the continuous-authorization hot
// path (DESIGN.md "Proof-engine fast path").
//
//  - SignatureCache: content-hash -> "signature cryptographically valid".
//    A delegation's signature validity is a pure function of its bytes, so
//    one entry serves every copy of the credential (including re-decoded
//    copies arriving through Repository::merge_snapshot). The cache answers
//    nothing about revocation or expiry — callers must still check both —
//    but entries are evicted on revocation and on observed expiry so a dead
//    credential cannot pin cache space.
//  - ProofCache: (subject, target, search options) -> proof fragment, owned
//    by a Repository and invalidated by *epoch*, not TTL: every add(),
//    revoke(), and merge bumps Repository::epoch(), and an entry is served
//    only when its recorded epoch equals the current one (the
//    version-invalidated transactional-cache discipline). Expiry is
//    re-checked against `now` on every hit; attribute requirements are
//    re-checked by the engine, so one entry serves all `required` maps.
//
// Thread safety: SignatureCache is lock-sharded (shared_mutex per shard);
// ProofCache takes a shared_mutex (reads concurrent, inserts exclusive).
// Both store immutable DelegationPtr values, so a returned fragment is safe
// to use after any concurrent invalidation (the epoch check just makes the
// *next* lookup miss).
#pragma once

#include <cstdint>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "drbac/credential.hpp"
#include "util/lock_rank.hpp"
#include "util/sim_clock.hpp"

namespace psf::drbac {

/// Process-wide signature-verification cache keyed by delegation content
/// hash (sha256 over payload || signature — see Delegation::content_hash).
/// Hot-path cost of a hit is one hash of the (small) payload plus a sharded
/// map lookup, ~three orders of magnitude below a Schnorr verify.
class SignatureCache {
 public:
  static SignatureCache& instance();

  /// Cached Delegation::verify_signature(). Concurrent misses on the same
  /// credential may verify twice (benign: both store the same pure result).
  bool verify(const Delegation& credential);

  /// True when the credential's verdict is already cached (test hook and
  /// prewarm filter; does not verify).
  bool contains(const Delegation& credential) const;

  /// Store an externally computed verdict (the parallel prewarm path).
  void store(const Delegation& credential, bool valid);

  /// Drop the credential's entry. Wired to Repository::revoke and to the
  /// engine's expiry checks: once revoked or expired a credential can never
  /// be used again, so its entry is dead weight.
  void invalidate(const Delegation& credential);

  void clear();
  std::size_t size() const;

  SignatureCache(const SignatureCache&) = delete;
  SignatureCache& operator=(const SignatureCache&) = delete;

 private:
  SignatureCache() = default;

  // Two generations per shard instead of LRU bookkeeping. Inserts go to
  // `young`, a hit in `old` moves the entry back to `young`, and when
  // `young` is full `old` is dropped and `young` becomes `old`. A
  // credential used once per generation (the upper graph every proof
  // walks) stays; one-shot credentials (a fresh leaf per handshake) age
  // out. At most 8 x 2 x 256 = 4096 verdicts, ~0.45 MB at ~110 B an entry;
  // each saves one ~0.1 ms verify.
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kMaxEntriesPerGeneration = 1 << 8;

  struct Shard {
    mutable util::RankedMutex<std::shared_mutex> mutex{
        util::LockRank::kSignatureCache, "drbac.sigcache.shard"};
    // content hash -> valid; a key is in at most one of the two.
    std::unordered_map<std::string, bool> young, old;
  };
  Shard& shard_for(const std::string& content_hash);
  const Shard& shard_for(const std::string& content_hash) const;
  // Store a verdict in `young`, rotating the generations when it is full.
  // The caller holds the shard's unique lock.
  static void insert(Shard& shard, const std::string& key, bool valid);

  Shard shards_[kShards];
};

/// Convenience: SignatureCache::instance().verify(credential).
bool verify_cached(const Delegation& credential);

/// A memoized result of the engine's chain search for one (subject, target,
/// options) key: either a found chain (success) or a proven dead end.
/// Attribute requirements are NOT part of the entry — the search never
/// consults them, so the engine re-applies `satisfies` on every hit.
struct CachedChain {
  bool success = false;
  std::vector<DelegationPtr> chain;    // main chain, subject-end first
  std::vector<DelegationPtr> support;  // assignment sub-proof credentials
  AttributeMap attributes;             // attenuated along `chain`
};

/// Per-repository proof-fragment cache with epoch invalidation. Owned by
/// Repository (the invalidation domain); the engine consults it through
/// Repository::proof_cache().
class ProofCache {
 public:
  /// Serve `key`'s fragment if it was recorded at exactly `epoch` and no
  /// referenced credential is expired at `now`. A stale-epoch or expired
  /// entry is erased (and counted) before reporting a miss.
  std::optional<CachedChain> lookup(const std::string& key,
                                    std::uint64_t epoch, util::SimTime now);

  /// Record the search result for `key` as of `epoch`. The caller must have
  /// read `epoch` *before* running the search and re-checked it after, so a
  /// concurrent repository mutation cannot be cached under the new epoch.
  void insert(const std::string& key, std::uint64_t epoch, CachedChain chain);

  void clear();
  std::size_t size() const;

 private:
  struct Entry {
    std::uint64_t epoch = 0;
    CachedChain chain;
  };
  mutable util::RankedMutex<std::shared_mutex> mutex_{
      util::LockRank::kProofCache, "drbac.proofcache"};
  std::unordered_map<std::string, Entry> entries_;
};

}  // namespace psf::drbac
