// dRBAC delegations (paper Table 1):
//   Self-certifying  [ Subject -> Issuer.Role ] Issuer
//   Third-party      [ Subject -> Entity.Role ] Issuer   (Issuer != Entity)
//   Assignment       [ Subject -> Entity.Role ' ] Issuer (right of assignment)
// Every delegation is signed by its issuer; the payload is a deterministic
// byte serialization so signatures are stable across processes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/sign.hpp"
#include "drbac/attribute.hpp"
#include "drbac/entity.hpp"
#include "util/result.hpp"
#include "util/sim_clock.hpp"

namespace psf::drbac {

enum class DelegationType { kSelfCertifying, kThirdParty, kAssignment };

std::string delegation_type_name(DelegationType t);

/// Discovery tags (paper §3.1): control which repository indexes may serve
/// queries about this credential.
struct DiscoveryTags {
  bool searchable_from_subject = true;
  bool searchable_from_object = true;
};

struct Delegation {
  std::uint64_t serial = 0;      // unique id; revocation handle
  Principal subject;             // entity or role receiving rights
  RoleRef target;                // Entity.Role being granted
  bool assignment = false;       // trailing ' in the paper's notation
  AttributeMap attributes;

  std::string issuer_name;
  crypto::PublicKey issuer_key;

  util::SimTime issued_at = 0;
  util::SimTime expires_at = 0;  // 0 = never expires
  bool requires_online_validation = false;  // home must be consulted
  DiscoveryTags tags;

  crypto::Signature signature;

  /// Classify per Table 1 based on issuer key vs target owner key.
  DelegationType type() const;

  /// Deterministic signing payload (everything except the signature).
  util::Bytes payload() const;

  /// Verify the embedded signature against the embedded issuer key.
  /// Unconditionally runs the Schnorr check (~0.1 ms); hot paths go
  /// through drbac::verify_cached (proof_cache.hpp), which memoizes this
  /// result by content_hash().
  bool verify_signature() const;

  /// Content hash: sha256(payload() || signature bytes), returned as the
  /// raw 32-byte digest. Covers every signed field *and* the signature, so
  /// two credentials share a hash iff they are bit-identical — the
  /// SignatureCache key. Computed on demand (hashing the ~200-byte payload
  /// costs ~1 us; not memoized so Delegation stays trivially copyable).
  std::string content_hash() const;

  bool expired_at(util::SimTime now) const {
    return expires_at != 0 && now > expires_at;
  }

  /// Paper rendering: `[ Bob -> Comp.SD.Member ] Comp.SD with CPU=(0,80)`.
  std::string display() const;
};

using DelegationPtr = std::shared_ptr<const Delegation>;

/// Issue (build + sign) a delegation. `issuer` signs with its private key.
/// `serial` must be unique per issuer; use Repository::next_serial or a
/// Guard-level counter.
DelegationPtr issue(const Entity& issuer, const Principal& subject,
                    const RoleRef& target, AttributeMap attributes = {},
                    bool assignment = false, util::SimTime issued_at = 0,
                    util::SimTime expires_at = 0, std::uint64_t serial = 0,
                    DiscoveryTags tags = {});

/// Wire format: a self-contained encoding (including the signature) so
/// credentials can travel between domains and repositories.
util::Bytes encode_delegation(const Delegation& delegation);

/// Decode and verify structure; the signature is NOT checked here (call
/// verify_signature() on the result — a relying party always must).
util::Result<DelegationPtr> decode_delegation(const util::Bytes& wire);

}  // namespace psf::drbac
