#include "crypto/ed25519.hpp"

#include <stdexcept>

namespace psf::crypto {

namespace {

Fe compute_d() {
  // d = -121665 / 121666 mod p.
  const Fe num = fe_neg(fe_from_u64(121665));
  const Fe den = fe_from_u64(121666);
  return fe_mul(num, fe_invert(den));
}

Point compute_base() {
  // y = 4/5; x recovered from the curve equation with even (bit0 == 0) x.
  const Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
  const Fe y2 = fe_sq(y);
  // x^2 = (y^2 - 1) / (d y^2 + 1)
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(curve_d(), y2), fe_one());
  Fe x;
  if (!fe_sqrt(fe_mul(u, fe_invert(v)), x)) {
    throw std::logic_error("ed25519: base point x not a square");
  }
  if (fe_is_negative(x)) x = fe_neg(x);
  Point p;
  p.x = x;
  p.y = y;
  p.z = fe_one();
  p.t = fe_mul(x, y);
  return p;
}

BigUInt compute_order() {
  // L = 2^252 + 27742317777372353535851937790883648493.
  // The additive tail fits in 125 bits; build it from two 64-bit halves:
  // tail = 0x14def9dea2f79cd6 * 2^64 + 0x5812631a5cf5d3ed.
  BigUInt l;
  util::Bytes le(32, 0);
  const std::uint64_t lo = 0x5812631a5cf5d3edULL;
  const std::uint64_t hi = 0x14def9dea2f79cd6ULL;
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(lo >> (8 * i));
  for (int i = 0; i < 8; ++i)
    le[8 + i] = static_cast<std::uint8_t>(hi >> (8 * i));
  le[31] |= 0x10;  // + 2^252
  return BigUInt::from_le_bytes(le);
}

}  // namespace

const Fe& curve_d() {
  static const Fe d = compute_d();
  return d;
}

const Point& point_base() {
  static const Point base = compute_base();
  return base;
}

const BigUInt& group_order() {
  static const BigUInt order = compute_order();
  return order;
}

BigUInt scalar_reduce(const BigUInt& x) {
  static const BigUInt mu = BigUInt::barrett_mu(group_order());
  return BigUInt::mod_barrett(x, group_order(), mu);
}

Point point_identity() {
  Point p;
  p.x = fe_zero();
  p.y = fe_one();
  p.z = fe_one();
  p.t = fe_zero();
  return p;
}

namespace {

const Fe& curve_2d() {
  static const Fe d2 = fe_add(curve_d(), curve_d());
  return d2;
}

// A point prepared as the second operand of additions: (Y + X, Y - X, 2Z,
// 2dT). Against this form add-2008-hwcd needs 8 multiplications instead of
// 9 and four fewer additions; the scalar-multiplication tables hold it.
struct Cached {
  Fe y_plus_x, y_minus_x, z2, t2d;
};

Cached to_cached(const Point& p) {
  return Cached{fe_add(p.y, p.x), fe_sub(p.y, p.x), fe_add(p.z, p.z),
                fe_mul(p.t, curve_2d())};
}

// HWCD 2008, "add-2008-hwcd" for a = -1 twisted Edwards curves.
Point add_cached(const Point& p, const Cached& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), q.y_minus_x);
  const Fe b = fe_mul(fe_add(p.y, p.x), q.y_plus_x);
  const Fe c = fe_mul(p.t, q.t2d);
  const Fe d = fe_mul(p.z, q.z2);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  Point out;
  out.x = fe_mul(e, f);
  out.y = fe_mul(g, h);
  out.t = fe_mul(e, h);
  out.z = fe_mul(f, g);
  return out;
}

// HWCD 2008, "dbl-2008-hwcd" with a = -1, arranged as ref10's ge_p2_dbl so
// no negation is needed. T is not read; `with_t` false skips computing it
// for a result that only feeds another doubling.
Point double_point(const Point& p, bool with_t) {
  const Fe xx = fe_sq(p.x);
  const Fe yy = fe_sq(p.y);
  const Fe zz = fe_sq(p.z);
  const Fe sum = fe_add(yy, xx);                      // Y^2 + X^2
  const Fe diff = fe_sub(yy, xx);                     // Y^2 - X^2
  const Fe e = fe_sub(fe_sq(fe_add(p.x, p.y)), sum);  // 2XY
  const Fe f = fe_sub(fe_add(zz, zz), diff);          // 2Z^2 - (Y^2 - X^2)
  Point out;
  out.x = fe_mul(e, f);
  out.y = fe_mul(sum, diff);
  out.t = with_t ? fe_mul(e, sum) : fe_zero();
  out.z = fe_mul(diff, f);
  return out;
}

}  // namespace

Point point_add(const Point& p, const Point& q) {
  return add_cached(p, to_cached(q));
}

Point point_double(const Point& p) { return double_point(p, true); }

Point point_neg(const Point& p) {
  Point out = p;
  out.x = fe_neg(p.x);
  out.t = fe_neg(p.t);
  return out;
}

Point point_mul(const BigUInt& scalar, const Point& p) {
  // 4-bit windowed double-and-add: one small table of p's multiples, then
  // 64 windows of (4 doublings + at most 1 addition).
  Cached table[16];
  table[0] = to_cached(point_identity());
  table[1] = to_cached(p);
  Point multiple = p;
  for (int d = 2; d < 16; ++d) {
    multiple = add_cached(multiple, table[1]);
    table[d] = to_cached(multiple);
  }

  Point result = point_identity();
  for (int i = 63; i >= 0; --i) {
    for (int k = 0; k < 3; ++k) result = double_point(result, false);
    result = double_point(result, true);
    const std::uint64_t limb = scalar.limb(static_cast<std::size_t>(i) / 16);
    const int nibble = static_cast<int>((limb >> (4 * (i % 16))) & 0xf);
    if (nibble != 0) result = add_cached(result, table[nibble]);
  }
  return result;
}

namespace {

// Fixed-base table: entries[i][d] = d * 16^i * B for nibble position
// i in [0, 64) and digit d in [0, 16). ~1k precomputed points, built once.
struct BaseTable {
  Cached entries[64][16];

  BaseTable() {
    Point radix = point_base();  // 16^i * B
    for (int i = 0; i < 64; ++i) {
      const Cached step = to_cached(radix);
      Point multiple = point_identity();
      entries[i][0] = to_cached(multiple);
      for (int d = 1; d < 16; ++d) {
        multiple = add_cached(multiple, step);
        entries[i][d] = to_cached(multiple);
      }
      radix = add_cached(multiple, step);  // 16 * (16^i * B)
    }
  }
};

const BaseTable& base_table() {
  static const BaseTable table;
  return table;
}

}  // namespace

Point point_mul_base(const BigUInt& scalar) {
  const BaseTable& table = base_table();
  Point result = point_identity();
  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint64_t limb = scalar.limb(i / 16);
    const int nibble = static_cast<int>((limb >> (4 * (i % 16))) & 0xf);
    if (nibble != 0) result = add_cached(result, table.entries[i][nibble]);
  }
  return result;
}

bool point_equal(const Point& p, const Point& q) {
  // x1/z1 == x2/z2 and y1/z1 == y2/z2, cross-multiplied.
  return fe_equal(fe_mul(p.x, q.z), fe_mul(q.x, p.z)) &&
         fe_equal(fe_mul(p.y, q.z), fe_mul(q.y, p.z));
}

bool point_is_identity(const Point& p) {
  return fe_is_zero(p.x) && fe_equal(p.y, p.z);
}

bool point_on_curve(const Point& p) {
  // -x^2 + y^2 = 1 + d x^2 y^2 with x = X/Z, y = Y/Z, multiplied by Z^4.
  const Fe x2 = fe_sq(p.x);
  const Fe y2 = fe_sq(p.y);
  const Fe z2 = fe_sq(p.z);
  const Fe lhs = fe_mul(fe_sub(y2, x2), z2);
  const Fe rhs = fe_add(fe_sq(z2), fe_mul(curve_d(), fe_mul(x2, y2)));
  return fe_equal(lhs, rhs);
}

util::Bytes point_encode(const Point& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  util::Bytes out = fe_to_bytes(y);
  if (fe_is_negative(x)) out[31] |= 0x80;
  return out;
}

bool point_decode(const util::Bytes& encoded, Point& out) {
  if (encoded.size() != 32 || !fe_bytes_canonical(encoded)) return false;
  const bool x_negative = (encoded[31] & 0x80) != 0;
  const Fe y = fe_from_bytes(encoded);
  const Fe y2 = fe_sq(y);
  // x^2 = u / v; candidate x = u v^3 (u v^7)^((p-5)/8).
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(curve_d(), y2), fe_one());
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe uv7 = fe_mul(u, fe_mul(fe_sq(v3), v));
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(uv7));
  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (!fe_equal(vx2, fe_neg(u))) return false;  // u / v is a non-residue
    x = fe_mul(x, fe_sqrt_m1());
  }
  if (fe_is_zero(x) && x_negative) return false;  // -0 is invalid
  if (fe_is_negative(x) != x_negative) x = fe_neg(x);
  out.x = x;
  out.y = y;
  out.z = fe_one();
  out.t = fe_mul(x, y);
  return point_on_curve(out);
}

}  // namespace psf::crypto
