// Table 1 reproduction: the three dRBAC delegation types — self-certifying,
// third-party, and assignment — constructed, signed, classified, and
// verified. Timings cover issuance (keygen excluded) and signature
// verification per type, and the signature cost layer by layer (field,
// point, scalar multiplication, sign/verify, DH), written to
// BENCH_table1.json.
#include <algorithm>
#include <cstdio>

#include "bench_util.hpp"
#include "crypto/dh.hpp"
#include "crypto/sign.hpp"
#include "drbac/credential.hpp"
#include "util/rng.hpp"

namespace {

using namespace psf;
using drbac::Attribute;
using drbac::Principal;

struct World {
  util::Rng rng{1};
  drbac::Entity issuer = drbac::Entity::create("Issuer", rng);
  drbac::Entity entity = drbac::Entity::create("Entity", rng);
  drbac::Entity subject = drbac::Entity::create("Subject", rng);
  drbac::AttributeMap attrs = {
      {"Attr1", Attribute::make_set("Attr1", {"Val1"})},
      {"Attr2", Attribute::make_range("Attr2", 0, 2)}};
};

World& world() {
  static World w;
  return w;
}

// Median over 5 batches of the per-call time of `fn`, in microseconds.
double median_batch_us(int iters, const std::function<void()>& fn) {
  for (int i = 0; i < std::max(1, iters / 10); ++i) fn();  // warm-up
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) batches.push_back(bench::time_us(iters, fn));
  std::sort(batches.begin(), batches.end());
  return batches[2];
}

void crypto_layers() {
  using namespace psf::crypto;
  util::Rng rng(7);
  const KeyPair key = generate_keypair(rng);
  const util::Bytes message = util::to_bytes("table1 crypto layers");
  const Signature sig = sign(key, message);
  const BigUInt scalar = scalar_from_wide_bytes(rng.next_bytes(64));
  const DhKeyPair dh_ours = dh_generate(rng);
  const DhKeyPair dh_peer = dh_generate(rng);
  Point point;
  point_decode(key.public_key.encoded, point);
  const Point sum = point_add(point, point_base());  // Z != 1
  Fe fe = fe_from_bytes(rng.next_bytes(32));
  const Fe fe_other = fe_from_bytes(rng.next_bytes(32));

  struct Row {
    const char* name;
    const char* unit;
    int full_iters;
    std::function<void()> fn;
  };
  const Row rows[] = {
      {"fe_mul", "ns", 200000, [&] { fe = fe_mul(fe, fe_other); }},
      {"fe_sq", "ns", 200000, [&] { fe = fe_sq(fe); }},
      {"fe_invert", "us", 2000, [&] { fe = fe_invert(fe); }},
      {"point_double", "us", 20000,
       [&] { benchmark::DoNotOptimize(point_double(sum)); }},
      {"point_add", "us", 20000,
       [&] { benchmark::DoNotOptimize(point_add(sum, point)); }},
      {"point_decode", "us", 2000,
       [&] {
         Point out;
         benchmark::DoNotOptimize(point_decode(key.public_key.encoded, out));
       }},
      {"point_encode", "us", 2000,
       [&] { benchmark::DoNotOptimize(point_encode(sum)); }},
      {"point_mul", "us", 500,
       [&] { benchmark::DoNotOptimize(point_mul(scalar, point)); }},
      {"point_mul_base", "us", 1000,
       [&] { benchmark::DoNotOptimize(point_mul_base(scalar)); }},
      {"verify", "us", 500,
       [&] { benchmark::DoNotOptimize(verify(key.public_key, message, sig)); }},
      {"sign", "us", 1000,
       [&] { benchmark::DoNotOptimize(sign(key, message)); }},
      {"dh_generate", "us", 1000,
       [&] { benchmark::DoNotOptimize(dh_generate(rng)); }},
      {"dh_shared_secret", "us", 500,
       [&] {
         util::Bytes secret;
         benchmark::DoNotOptimize(
             dh_shared_secret(dh_ours, dh_peer.public_point, secret));
       }},
  };

  bench::Report report("table1");
  std::cout << "\n  Signature cost by layer (median of 5 batches):\n";
  for (const Row& row : rows) {
    const int iters = bench::iterations(row.full_iters, row.full_iters / 10);
    const double us = median_batch_us(iters, row.fn);
    const bool ns = std::string(row.unit) == "ns";
    const double value = ns ? us * 1000.0 : us;
    std::printf("    %-18s %10.3f %s\n", row.name, value, row.unit);
    report.add(std::string(row.name) + "_" + row.unit, value, row.unit, iters);
  }
  benchmark::DoNotOptimize(fe);
  report.write();
}

void reproduce() {
  World& w = world();
  struct Row {
    const char* label;
    drbac::DelegationPtr credential;
  };
  const Row rows[] = {
      {"Self-certifying",
       drbac::issue(w.issuer, Principal::of_entity(w.subject),
                    drbac::role_of(w.issuer, "Role"), w.attrs, false, 0, 0, 1)},
      {"Third-party",
       drbac::issue(w.issuer, Principal::of_entity(w.subject),
                    drbac::role_of(w.entity, "Role"), w.attrs, false, 0, 0, 2)},
      {"Assignment",
       drbac::issue(w.issuer, Principal::of_entity(w.subject),
                    drbac::role_of(w.entity, "Role"), w.attrs, true, 0, 0, 3)},
  };
  for (const auto& row : rows) {
    std::cout << "  " << row.label << "\t" << row.credential->display()
              << "\n    classified: "
              << drbac::delegation_type_name(row.credential->type())
              << ", signature "
              << (row.credential->verify_signature() ? "OK" : "BAD") << "\n";
  }
  crypto_layers();
}

void BM_IssueSelfCertifying(benchmark::State& state) {
  World& w = world();
  std::uint64_t serial = 100;
  for (auto _ : state) {
    auto c = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                          drbac::role_of(w.issuer, "Role"), w.attrs, false, 0,
                          0, serial++);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_IssueSelfCertifying);

void BM_IssueAssignment(benchmark::State& state) {
  World& w = world();
  std::uint64_t serial = 100;
  for (auto _ : state) {
    auto c = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                          drbac::role_of(w.entity, "Role"), w.attrs, true, 0,
                          0, serial++);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_IssueAssignment);

void BM_VerifySignature(benchmark::State& state) {
  World& w = world();
  auto c = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                        drbac::role_of(w.issuer, "Role"), w.attrs, false, 0, 0,
                        1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c->verify_signature());
  }
}
BENCHMARK(BM_VerifySignature);

void BM_ClassifyType(benchmark::State& state) {
  World& w = world();
  auto c = drbac::issue(w.issuer, Principal::of_entity(w.subject),
                        drbac::role_of(w.entity, "Role"), w.attrs, false, 0, 0,
                        1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(c->type());
  }
}
BENCHMARK(BM_ClassifyType);

}  // namespace

int main(int argc, char** argv) {
  return psf::bench::run(argc, argv,
                         "Table 1: dRBAC delegation types", reproduce);
}
