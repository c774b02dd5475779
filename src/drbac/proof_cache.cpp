#include "drbac/proof_cache.hpp"

#include "obs/metrics.hpp"

namespace psf::drbac {

namespace {
// Fast-path cache instrumentation (psf.drbac.sigcache.* / proofcache.*).
struct CacheMetrics {
  obs::Counter& sig_hits = obs::counter("psf.drbac.sigcache.hits");
  obs::Counter& sig_misses = obs::counter("psf.drbac.sigcache.misses");
  obs::Counter& sig_invalidations =
      obs::counter("psf.drbac.sigcache.invalidations");
  obs::Counter& sig_evictions = obs::counter("psf.drbac.sigcache.evictions");
  obs::Counter& proof_hits = obs::counter("psf.drbac.proofcache.hits");
  obs::Counter& proof_misses = obs::counter("psf.drbac.proofcache.misses");
  obs::Counter& proof_invalidations =
      obs::counter("psf.drbac.proofcache.invalidations");
  obs::Counter& proof_expiries = obs::counter("psf.drbac.proofcache.expiries");
  static CacheMetrics& get() {
    static CacheMetrics m;
    return m;
  }
};
}  // namespace

SignatureCache& SignatureCache::instance() {
  static SignatureCache cache;
  return cache;
}

SignatureCache::Shard& SignatureCache::shard_for(
    const std::string& content_hash) {
  // The hash is uniformly distributed; its first byte picks the shard.
  const std::size_t index =
      content_hash.empty()
          ? 0
          : static_cast<unsigned char>(content_hash[0]) % kShards;
  return shards_[index];
}

const SignatureCache::Shard& SignatureCache::shard_for(
    const std::string& content_hash) const {
  const std::size_t index =
      content_hash.empty()
          ? 0
          : static_cast<unsigned char>(content_hash[0]) % kShards;
  return shards_[index];
}

void SignatureCache::insert(Shard& shard, const std::string& key,
                            bool valid) {
  shard.old.erase(key);
  if (shard.young.size() >= kMaxEntriesPerGeneration &&
      shard.young.count(key) == 0) {
    CacheMetrics::get().sig_evictions.inc(shard.old.size());
    shard.old = std::move(shard.young);
    shard.young.clear();
  }
  shard.young[key] = valid;
}

bool SignatureCache::verify(const Delegation& credential) {
  CacheMetrics& metrics = CacheMetrics::get();
  const std::string key = credential.content_hash();
  Shard& shard = shard_for(key);
  {
    std::shared_lock lock(shard.mutex);
    auto it = shard.young.find(key);
    if (it != shard.young.end()) {
      metrics.sig_hits.inc();
      return it->second;
    }
  }
  {
    std::unique_lock lock(shard.mutex);
    auto it = shard.old.find(key);
    if (it != shard.old.end()) {
      const bool valid = it->second;
      insert(shard, key, valid);
      metrics.sig_hits.inc();
      return valid;
    }
  }
  const bool valid = credential.verify_signature();
  metrics.sig_misses.inc();
  {
    std::unique_lock lock(shard.mutex);
    insert(shard, key, valid);
  }
  return valid;
}

bool SignatureCache::contains(const Delegation& credential) const {
  const std::string key = credential.content_hash();
  const Shard& shard = shard_for(key);
  std::shared_lock lock(shard.mutex);
  return shard.young.count(key) > 0 || shard.old.count(key) > 0;
}

void SignatureCache::store(const Delegation& credential, bool valid) {
  const std::string key = credential.content_hash();
  Shard& shard = shard_for(key);
  std::unique_lock lock(shard.mutex);
  insert(shard, key, valid);
}

void SignatureCache::invalidate(const Delegation& credential) {
  const std::string key = credential.content_hash();
  Shard& shard = shard_for(key);
  std::unique_lock lock(shard.mutex);
  if (shard.young.erase(key) + shard.old.erase(key) > 0) {
    CacheMetrics::get().sig_invalidations.inc();
  }
}

void SignatureCache::clear() {
  for (Shard& shard : shards_) {
    std::unique_lock lock(shard.mutex);
    shard.young.clear();
    shard.old.clear();
  }
}

std::size_t SignatureCache::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mutex);
    total += shard.young.size() + shard.old.size();
  }
  return total;
}

bool verify_cached(const Delegation& credential) {
  return SignatureCache::instance().verify(credential);
}

std::optional<CachedChain> ProofCache::lookup(const std::string& key,
                                              std::uint64_t epoch,
                                              util::SimTime now) {
  CacheMetrics& metrics = CacheMetrics::get();
  enum class Stale { kNo, kEpoch, kExpiry };
  Stale stale = Stale::kNo;
  {
    std::shared_lock lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      metrics.proof_misses.inc();
      return std::nullopt;
    }
    if (it->second.epoch != epoch) {
      stale = Stale::kEpoch;
    } else if (it->second.chain.success) {
      // A dead-end entry references no credentials, so only successful
      // fragments can rot by expiry. Another (longer-lived) chain may still
      // exist, so an expired fragment falls back to a full search.
      for (const auto& c : it->second.chain.chain) {
        if (c->expired_at(now)) stale = Stale::kExpiry;
      }
      for (const auto& c : it->second.chain.support) {
        if (c->expired_at(now)) stale = Stale::kExpiry;
      }
    }
    if (stale == Stale::kNo) {
      metrics.proof_hits.inc();
      return it->second.chain;
    }
  }
  (stale == Stale::kEpoch ? metrics.proof_invalidations
                          : metrics.proof_expiries)
      .inc();
  metrics.proof_misses.inc();
  std::unique_lock lock(mutex_);
  // Re-check epoch under the exclusive lock: a concurrent search may have
  // refreshed the entry since we decided it was stale.
  auto it = entries_.find(key);
  if (it != entries_.end() && it->second.epoch == epoch &&
      stale == Stale::kExpiry) {
    entries_.erase(it);
  } else if (it != entries_.end() && it->second.epoch != epoch) {
    entries_.erase(it);
  }
  return std::nullopt;
}

void ProofCache::insert(const std::string& key, std::uint64_t epoch,
                        CachedChain chain) {
  std::unique_lock lock(mutex_);
  Entry& entry = entries_[key];
  entry.epoch = epoch;
  entry.chain = std::move(chain);
}

void ProofCache::clear() {
  std::unique_lock lock(mutex_);
  entries_.clear();
}

std::size_t ProofCache::size() const {
  std::shared_lock lock(mutex_);
  return entries_.size();
}

}  // namespace psf::drbac
