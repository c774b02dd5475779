#include "drbac/repository.hpp"

#include "obs/journal.hpp"
#include "obs/metrics.hpp"

namespace psf::drbac {

namespace {
// Credential discovery instrumentation (psf.drbac.repo.*).
struct RepoMetrics {
  obs::Counter& adds = obs::counter("psf.drbac.repo.adds");
  obs::Counter& lookups = obs::counter("psf.drbac.repo.lookups");
  obs::Counter& revocations = obs::counter("psf.drbac.repo.revocations");
  obs::Gauge& size = obs::gauge("psf.drbac.repo.credentials");
  static RepoMetrics& get() {
    static RepoMetrics m;
    return m;
  }
};
}  // namespace

void Repository::add(DelegationPtr credential) {
  std::lock_guard lock(mutex_);
  add_locked(std::move(credential));
}

bool Repository::add_if_absent(DelegationPtr credential) {
  std::lock_guard lock(mutex_);
  auto it = by_subject_.find(subject_key(credential->subject));
  if (it != by_subject_.end()) {
    for (const auto& held : it->second) {
      if (held == credential || (held->serial == credential->serial &&
                                 held->signature == credential->signature)) {
        return false;
      }
    }
  }
  add_locked(std::move(credential));
  return true;
}

void Repository::add_locked(DelegationPtr credential) {
  RepoMetrics& metrics = RepoMetrics::get();
  credentials_.push_back(credential);
  by_target_[target_key(credential->target)].push_back(credential);
  by_subject_[subject_key(credential->subject)].push_back(credential);
  // Bump after the indexes are updated: a proof search that read the old
  // epoch and missed this credential caches under a now-stale epoch.
  const std::uint64_t epoch =
      epoch_.fetch_add(1, std::memory_order_release) + 1;
  obs::journal::emit(obs::journal::Subsystem::kDrbac,
                     obs::journal::kDrEpochBump, epoch, credential->serial,
                     /*kind=*/0,
                     reinterpret_cast<std::uintptr_t>(this));
  metrics.adds.inc();
  metrics.size.set(static_cast<std::int64_t>(credentials_.size()));
}

std::vector<DelegationPtr> Repository::by_target(const RoleRef& target,
                                                 bool honor_tags) const {
  RepoMetrics::get().lookups.inc();
  std::lock_guard lock(mutex_);
  std::vector<DelegationPtr> out;
  auto it = by_target_.find(target_key(target));
  if (it == by_target_.end()) return out;
  for (const auto& c : it->second) {
    if (!honor_tags || c->tags.searchable_from_object) out.push_back(c);
  }
  return out;
}

std::vector<DelegationPtr> Repository::by_subject(const Principal& subject,
                                                  bool honor_tags) const {
  RepoMetrics::get().lookups.inc();
  std::lock_guard lock(mutex_);
  std::vector<DelegationPtr> out;
  auto it = by_subject_.find(subject_key(subject));
  if (it == by_subject_.end()) return out;
  for (const auto& c : it->second) {
    if (!honor_tags || c->tags.searchable_from_subject) out.push_back(c);
  }
  return out;
}

std::vector<DelegationPtr> Repository::all() const {
  std::lock_guard lock(mutex_);
  return credentials_;
}

std::size_t Repository::size() const {
  std::lock_guard lock(mutex_);
  return credentials_.size();
}

std::uint64_t Repository::next_serial() { return next_serial_.fetch_add(1); }

void Repository::revoke(std::uint64_t serial) {
  std::map<std::uint64_t, RevocationCallback> subscribers;
  DelegationPtr revoked_credential;
  {
    std::lock_guard lock(mutex_);
    if (!revoked_.insert(serial).second) return;  // already revoked
    for (const auto& c : credentials_) {
      if (c->serial == serial) {
        revoked_credential = c;
        break;
      }
    }
    subscribers = subscribers_;
    const std::uint64_t epoch =
        epoch_.fetch_add(1, std::memory_order_release) + 1;
    obs::journal::emit(obs::journal::Subsystem::kDrbac,
                       obs::journal::kDrEpochBump, epoch, serial,
                       /*kind=*/1,
                       reinterpret_cast<std::uintptr_t>(this));
  }
  // The credential can never be used again: drop its verification verdict
  // so no cache layer retains a trace of it.
  if (revoked_credential) {
    SignatureCache::instance().invalidate(*revoked_credential);
  }
  RepoMetrics::get().revocations.inc();
  // Notify outside the lock so callbacks may re-enter the repository.
  for (const auto& [id, callback] : subscribers) callback(serial);
}

bool Repository::is_revoked(std::uint64_t serial) const {
  std::lock_guard lock(mutex_);
  return revoked_.count(serial) > 0;
}

std::uint64_t Repository::subscribe(RevocationCallback callback) {
  std::lock_guard lock(mutex_);
  const std::uint64_t id = next_subscription_++;
  subscribers_[id] = std::move(callback);
  return id;
}

void Repository::unsubscribe(std::uint64_t subscription_id) {
  std::lock_guard lock(mutex_);
  subscribers_.erase(subscription_id);
}

util::Bytes Repository::snapshot() const {
  std::vector<DelegationPtr> credentials;
  std::set<std::uint64_t> revoked;
  {
    std::lock_guard lock(mutex_);
    credentials = credentials_;
    revoked = revoked_;
  }
  util::Bytes out;
  util::append(out, "DRBREPO1");
  util::put_u32_be(out, static_cast<std::uint32_t>(credentials.size()));
  for (const auto& credential : credentials) {
    const util::Bytes wire = encode_delegation(*credential);
    util::put_u32_be(out, static_cast<std::uint32_t>(wire.size()));
    util::append(out, wire);
  }
  util::put_u32_be(out, static_cast<std::uint32_t>(revoked.size()));
  for (std::uint64_t serial : revoked) util::put_u64_be(out, serial);
  return out;
}

util::Result<Repository::MergeResult> Repository::merge_snapshot(
    const util::Bytes& snapshot) {
  using Fail = util::Result<MergeResult>;
  auto fail = [] { return Fail::failure("merge", "malformed snapshot"); };
  std::size_t pos = 0;
  if (snapshot.size() < 8 ||
      std::string(snapshot.begin(), snapshot.begin() + 8) != "DRBREPO1") {
    return fail();
  }
  pos = 8;
  if (pos + 4 > snapshot.size()) return fail();
  const std::uint32_t credential_count = util::get_u32_be(snapshot, pos);
  pos += 4;
  if (credential_count > snapshot.size()) return fail();

  MergeResult result;
  std::set<std::uint64_t> known;
  {
    std::lock_guard lock(mutex_);
    for (const auto& c : credentials_) known.insert(c->serial);
  }
  for (std::uint32_t i = 0; i < credential_count; ++i) {
    if (pos + 4 > snapshot.size()) return fail();
    const std::uint32_t wire_len = util::get_u32_be(snapshot, pos);
    pos += 4;
    if (pos + wire_len > snapshot.size()) return fail();
    const util::Bytes wire(
        snapshot.begin() + static_cast<std::ptrdiff_t>(pos),
        snapshot.begin() + static_cast<std::ptrdiff_t>(pos + wire_len));
    pos += wire_len;
    auto decoded = decode_delegation(wire);
    // Cached verify: replicas re-merging overlapping snapshots pay the
    // Schnorr check once per distinct credential, not once per merge.
    if (!decoded.ok() || !verify_cached(*decoded.value())) {
      ++result.rejected;
      continue;
    }
    if (known.insert(decoded.value()->serial).second) {
      add(decoded.value());
      ++result.added;
    }
    // Keep locally issued serials disjoint from imported ones.
    std::uint64_t current = next_serial_.load();
    const std::uint64_t floor = decoded.value()->serial + 1;
    while (current < floor &&
           !next_serial_.compare_exchange_weak(current, floor)) {
    }
  }
  if (pos + 4 > snapshot.size()) return fail();
  const std::uint32_t revoked_count = util::get_u32_be(snapshot, pos);
  pos += 4;
  if (pos + 8ull * revoked_count != snapshot.size()) return fail();
  obs::counter("psf.drbac.repo.merges").inc();
  obs::counter("psf.drbac.repo.merge.added").inc(result.added);
  obs::counter("psf.drbac.repo.merge.rejected").inc(result.rejected);
  for (std::uint32_t i = 0; i < revoked_count; ++i) {
    const std::uint64_t serial = util::get_u64_be(snapshot, pos);
    pos += 8;
    if (!is_revoked(serial)) {
      revoke(serial);  // fires monitors, exactly like a local revocation
      ++result.revoked;
    }
  }
  return result;
}

}  // namespace psf::drbac
