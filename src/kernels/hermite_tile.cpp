// Every tile here must round like the scalar loop, so no a*b + c may be
// contracted into an FMA — not even when the build flags enable FMA
// (-march=native). With FMA off, as in the default x86-64 build, this
// changes no instruction.
#pragma GCC optimize("fp-contract=off")

#include "kernels/hermite_tile.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

#include "kernels/simd.hpp"

namespace jungle::kernels::hermite_tile {

namespace {

// Per-row totals of one row block, added to tile by tile.
struct RowSums {
  std::array<double, kIBlock> ax{}, ay{}, az{}, jx{}, jy{}, jz{};
};

// The reference loop: row i against the sources [jb, jend), its tile
// partial added to the row total at slot k.
inline void scalar_row(const Sources& s, std::size_t i, std::size_t jb,
                       std::size_t jend, RowSums& sums, std::size_t k) {
  const double xi = s.x[i], yi = s.y[i], zi = s.z[i];
  const double vxi = s.vx[i], vyi = s.vy[i], vzi = s.vz[i];
  double axi = 0.0, ayi = 0.0, azi = 0.0;
  double jxi = 0.0, jyi = 0.0, jzi = 0.0;
  for (std::size_t j = jb; j < jend; ++j) {
    if (j == i) continue;
    double dx = s.x[j] - xi;
    double dy = s.y[j] - yi;
    double dz = s.z[j] - zi;
    double dvx = s.vx[j] - vxi;
    double dvy = s.vy[j] - vyi;
    double dvz = s.vz[j] - vzi;
    double r2 = dx * dx + dy * dy + dz * dz + s.eps2;
    double inv_r = 1.0 / std::sqrt(r2);
    double inv_r2 = inv_r * inv_r;
    double inv_r3 = inv_r2 * inv_r;
    double rv = dx * dvx + dy * dvy + dz * dvz;
    // acc_i += m_j dr / r^3 ; jerk_i += m_j (dv - 3 rv dr / r^2) / r^3
    double alpha = 3.0 * rv * inv_r2;
    double m_r3 = s.m[j] * inv_r3;
    axi += m_r3 * dx;
    ayi += m_r3 * dy;
    azi += m_r3 * dz;
    jxi += m_r3 * (dvx - alpha * dx);
    jyi += m_r3 * (dvy - alpha * dy);
    jzi += m_r3 * (dvz - alpha * dz);
  }
  sums.ax[k] += axi;
  sums.ay[k] += ayi;
  sums.az[k] += azi;
  sums.jx[k] += jxi;
  sums.jy[k] += jyi;
  sums.jz[k] += jzi;
}

inline void write_rows(const RowSums& sums, std::size_t b0, std::size_t b1,
                       Vec3* acc, Vec3* jerk) {
  for (std::size_t i = b0; i < b1; ++i) {
    acc[i] = {sums.ax[i - b0], sums.ay[i - b0], sums.az[i - b0]};
    jerk[i] = {sums.jx[i - b0], sums.jy[i - b0], sums.jz[i - b0]};
  }
}

void scalar_tile(const Sources& s, std::size_t lo, std::size_t hi, Vec3* acc,
                 Vec3* jerk) {
  for (std::size_t b0 = lo; b0 < hi; b0 += kIBlock) {
    const std::size_t b1 = std::min(hi, b0 + kIBlock);
    RowSums sums;
    for (std::size_t jb = 0; jb < s.n; jb += kJTile) {
      const std::size_t jend = std::min(s.n, jb + kJTile);
      for (std::size_t i = b0; i < b1; ++i) {
        scalar_row(s, i, jb, jend, sums, i - b0);
      }
    }
    write_rows(sums, b0, b1, acc, jerk);
  }
}

// A vector loaded from &kLaneWindow[kMaxLanes - 1 - k] has lane k alone
// all-ones: the self-pair mask of a group's lane k.
constexpr std::size_t kMaxLanes = 4;
constexpr double kOnes = std::bit_cast<double>(~std::uint64_t{0});
constexpr double kLaneWindow[2 * kMaxLanes - 1] = {0.0, 0.0, 0.0, kOnes,
                                                   0.0, 0.0, 0.0};

// W consecutive target rows, one per lane, with their accumulators for the
// current source tile. Every member is always_inline so that the ISA entry
// point's target (avx2 or baseline) compiles the whole loop: no vector
// value ever crosses a call between differently targeted functions.
template <class Isa>
struct RowGroup {
  using V = typename Isa::VecD;

  [[gnu::always_inline]] RowGroup(const Sources& s, std::size_t i)
      : i0(i),
        x(Isa::load(s.x + i)), y(Isa::load(s.y + i)), z(Isa::load(s.z + i)),
        vx(Isa::load(s.vx + i)), vy(Isa::load(s.vy + i)),
        vz(Isa::load(s.vz + i)), eps2(Isa::set1(s.eps2)),
        one(Isa::set1(1.0)), three(Isa::set1(3.0)) {}

  // Source j against every lane, in the scalar loop's operation order. With
  // kSelf, j is the row of lane j - i0, and that lane keeps its old sums:
  // the blend is bitwise, so the inf/NaN of an unsoftened self pair never
  // reaches them.
  template <bool kSelf>
  [[gnu::always_inline]] void add(const Sources& s, std::size_t j) {
    V dx = Isa::set1(s.x[j]) - x;
    V dy = Isa::set1(s.y[j]) - y;
    V dz = Isa::set1(s.z[j]) - z;
    V dvx = Isa::set1(s.vx[j]) - vx;
    V dvy = Isa::set1(s.vy[j]) - vy;
    V dvz = Isa::set1(s.vz[j]) - vz;
    V r2 = dx * dx + dy * dy + dz * dz + eps2;
    V inv_r = one / Isa::sqrt(r2);
    V inv_r2 = inv_r * inv_r;
    V inv_r3 = inv_r2 * inv_r;
    V rv = dx * dvx + dy * dvy + dz * dvz;
    V alpha = three * rv * inv_r2;
    V m_r3 = Isa::set1(s.m[j]) * inv_r3;
    V nax = ax + m_r3 * dx;
    V nay = ay + m_r3 * dy;
    V naz = az + m_r3 * dz;
    V njx = jx + m_r3 * (dvx - alpha * dx);
    V njy = jy + m_r3 * (dvy - alpha * dy);
    V njz = jz + m_r3 * (dvz - alpha * dz);
    if constexpr (kSelf) {
      const V self = Isa::load(&kLaneWindow[kMaxLanes - 1 - (j - i0)]);
      ax = Isa::select(self, ax, nax);
      ay = Isa::select(self, ay, nay);
      az = Isa::select(self, az, naz);
      jx = Isa::select(self, jx, njx);
      jy = Isa::select(self, jy, njy);
      jz = Isa::select(self, jz, njz);
    } else {
      ax = nax;
      ay = nay;
      az = naz;
      jx = njx;
      jy = njy;
      jz = njz;
    }
  }

  // Adds this tile's partial sums to the row totals at slots [k, k + W).
  [[gnu::always_inline]] void flush(RowSums& sums, std::size_t k) const {
    Isa::store(&sums.ax[k], Isa::load(&sums.ax[k]) + ax);
    Isa::store(&sums.ay[k], Isa::load(&sums.ay[k]) + ay);
    Isa::store(&sums.az[k], Isa::load(&sums.az[k]) + az);
    Isa::store(&sums.jx[k], Isa::load(&sums.jx[k]) + jx);
    Isa::store(&sums.jy[k], Isa::load(&sums.jy[k]) + jy);
    Isa::store(&sums.jz[k], Isa::load(&sums.jz[k]) + jz);
  }

  std::size_t i0;
  V x, y, z, vx, vy, vz;
  V eps2, one, three;
  V ax = Isa::zero(), ay = Isa::zero(), az = Isa::zero();
  V jx = Isa::zero(), jy = Isa::zero(), jz = Isa::zero();
};

// The i-lane tile: each lane holds its own target row and walks the sources
// in the scalar order, so it reproduces scalar_tile bit for bit at any
// width. Rows left over after the last full group take scalar_row.
template <class Isa>
[[gnu::always_inline]] inline void lane_tile(const Sources& s, std::size_t lo,
                                             std::size_t hi, Vec3* acc,
                                             Vec3* jerk) {
  constexpr std::size_t W = Isa::kWidth;
  static_assert(W <= kMaxLanes && kIBlock % W == 0);
  for (std::size_t b0 = lo; b0 < hi; b0 += kIBlock) {
    const std::size_t b1 = std::min(hi, b0 + kIBlock);
    RowSums sums;
    for (std::size_t jb = 0; jb < s.n; jb += kJTile) {
      const std::size_t jend = std::min(s.n, jb + kJTile);
      std::size_t i = b0;
      for (; i + W <= b1; i += W) {
        // Only the sources [i, i + W) are rows of this group; the rest of
        // the tile runs unmasked.
        const std::size_t self_lo = std::clamp(i, jb, jend);
        const std::size_t self_hi = std::clamp(i + W, jb, jend);
        RowGroup<Isa> group(s, i);
        for (std::size_t j = jb; j < self_lo; ++j) {
          group.template add<false>(s, j);
        }
        for (std::size_t j = self_lo; j < self_hi; ++j) {
          group.template add<true>(s, j);
        }
        for (std::size_t j = self_hi; j < jend; ++j) {
          group.template add<false>(s, j);
        }
        group.flush(sums, i - b0);
      }
      for (; i < b1; ++i) scalar_row(s, i, jb, jend, sums, i - b0);
    }
    write_rows(sums, b0, b1, acc, jerk);
  }
}

void native_tile(const Sources& s, std::size_t lo, std::size_t hi, Vec3* acc,
                 Vec3* jerk) {
  lane_tile<simd::Native>(s, lo, hi, acc, jerk);
}

#if defined(JUNGLE_SIMD_AVX2)
// "avx2" and not "fma": see simd.hpp.
__attribute__((target("avx2"))) void avx2_tile(const Sources& s,
                                               std::size_t lo, std::size_t hi,
                                               Vec3* acc, Vec3* jerk) {
  lane_tile<simd::Avx2>(s, lo, hi, acc, jerk);
}
#endif

// ---- the symmetric path: each pair once, mirrored into both rows ----

// Pair (i, k), i < k, exactly as HermiteIntegrator's sequential loop writes
// it: added to row i, subtracted from row k.
[[gnu::always_inline]] inline void scalar_pair(const Sources& s,
                                               const Sums& out, std::size_t i,
                                               std::size_t k) {
  double dx = s.x[k] - s.x[i];
  double dy = s.y[k] - s.y[i];
  double dz = s.z[k] - s.z[i];
  double dvx = s.vx[k] - s.vx[i];
  double dvy = s.vy[k] - s.vy[i];
  double dvz = s.vz[k] - s.vz[i];
  double r2 = dx * dx + dy * dy + dz * dz + s.eps2;
  double r = std::sqrt(r2);
  double r3 = r2 * r;
  double rv = dx * dvx + dy * dvy + dz * dvz;
  double inv_r3 = 1.0 / r3;
  double alpha = 3.0 * rv / r2;
  double jpx = (dvx - alpha * dx) * inv_r3;
  double jpy = (dvy - alpha * dy) * inv_r3;
  double jpz = (dvz - alpha * dz) * inv_r3;
  double mk_r3 = s.m[k] * inv_r3;
  out.ax[i] += mk_r3 * dx;
  out.ay[i] += mk_r3 * dy;
  out.az[i] += mk_r3 * dz;
  out.jx[i] += s.m[k] * jpx;
  out.jy[i] += s.m[k] * jpy;
  out.jz[i] += s.m[k] * jpz;
  double mi_r3 = s.m[i] * inv_r3;
  out.ax[k] -= mi_r3 * dx;
  out.ay[k] -= mi_r3 * dy;
  out.az[k] -= mi_r3 * dz;
  out.jx[k] -= s.m[i] * jpx;
  out.jy[k] -= s.m[i] * jpy;
  out.jz[k] -= s.m[i] * jpz;
}

// W consecutive rows i0.. in lanes, paired with the sources j >= i0 + W.
// Lane l's sums continue row i0 + l's chain in ascending j; the lane terms
// for row j are the mirrored half, which row j must subtract in lane order
// (its chain is ascending in i). Members are always_inline for the same
// reason as RowGroup's.
template <class Isa>
struct MirrorGroup {
  using V = typename Isa::VecD;
  static constexpr std::size_t W = Isa::kWidth;

  [[gnu::always_inline]] MirrorGroup(const Sources& s, const Sums& out,
                                     std::size_t i)
      : x(Isa::load(s.x + i)), y(Isa::load(s.y + i)), z(Isa::load(s.z + i)),
        vx(Isa::load(s.vx + i)), vy(Isa::load(s.vy + i)),
        vz(Isa::load(s.vz + i)), m(Isa::load(s.m + i)),
        ax(Isa::load(out.ax + i)), ay(Isa::load(out.ay + i)),
        az(Isa::load(out.az + i)), jx(Isa::load(out.jx + i)),
        jy(Isa::load(out.jy + i)), jz(Isa::load(out.jz + i)) {}

  // The pair (lane, j) in the scalar loop's operation order: adds row j's
  // pull to the lanes and leaves the terms row j subtracts, one per lane.
  struct Terms {
    V ax, ay, az, jx, jy, jz;
  };
  [[gnu::always_inline]] Terms pair(const Sources& s, std::size_t j) {
    V dx = Isa::set1(s.x[j]) - x;
    V dy = Isa::set1(s.y[j]) - y;
    V dz = Isa::set1(s.z[j]) - z;
    V dvx = Isa::set1(s.vx[j]) - vx;
    V dvy = Isa::set1(s.vy[j]) - vy;
    V dvz = Isa::set1(s.vz[j]) - vz;
    V r2 = dx * dx + dy * dy + dz * dz + Isa::set1(s.eps2);
    V r = Isa::sqrt(r2);
    V r3 = r2 * r;
    V rv = dx * dvx + dy * dvy + dz * dvz;
    V inv_r3 = Isa::set1(1.0) / r3;
    V alpha = Isa::set1(3.0) * rv / r2;
    V jpx = (dvx - alpha * dx) * inv_r3;
    V jpy = (dvy - alpha * dy) * inv_r3;
    V jpz = (dvz - alpha * dz) * inv_r3;
    const V mj = Isa::set1(s.m[j]);
    V mj_r3 = mj * inv_r3;
    ax = ax + mj_r3 * dx;
    ay = ay + mj_r3 * dy;
    az = az + mj_r3 * dz;
    jx = jx + mj * jpx;
    jy = jy + mj * jpy;
    jz = jz + mj * jpz;
    V mi_r3 = m * inv_r3;
    return {mi_r3 * dx, mi_r3 * dy, mi_r3 * dz, m * jpx, m * jpy, m * jpz};
  }

  // Sources [j, j + W): row j + t gets terms[t]'s lanes subtracted in lane
  // order. The transpose turns that column walk into W vector subtracts
  // over the rows [j, j + W).
  [[gnu::always_inline]] static void subtract_block(V (&terms)[W],
                                                    double* row) {
    Isa::transpose(terms);
    V sum = Isa::load(row);
    for (std::size_t l = 0; l < W; ++l) sum = sum - terms[l];
    Isa::store(row, sum);
  }

  [[gnu::always_inline]] void add_block(const Sources& s, const Sums& out,
                                        std::size_t j) {
    V tax[W], tay[W], taz[W], tjx[W], tjy[W], tjz[W];
    for (std::size_t t = 0; t < W; ++t) {
      const Terms terms = pair(s, j + t);
      tax[t] = terms.ax;
      tay[t] = terms.ay;
      taz[t] = terms.az;
      tjx[t] = terms.jx;
      tjy[t] = terms.jy;
      tjz[t] = terms.jz;
    }
    subtract_block(tax, out.ax + j);
    subtract_block(tay, out.ay + j);
    subtract_block(taz, out.az + j);
    subtract_block(tjx, out.jx + j);
    subtract_block(tjy, out.jy + j);
    subtract_block(tjz, out.jz + j);
  }

  // A column-tail source: its row takes the lane terms one by one.
  [[gnu::always_inline]] static void subtract_lanes(V terms, double* row) {
    double lanes[W];
    Isa::store(lanes, terms);
    for (std::size_t l = 0; l < W; ++l) *row -= lanes[l];
  }

  [[gnu::always_inline]] void add_single(const Sources& s, const Sums& out,
                                         std::size_t j) {
    const Terms terms = pair(s, j);
    subtract_lanes(terms.ax, out.ax + j);
    subtract_lanes(terms.ay, out.ay + j);
    subtract_lanes(terms.az, out.az + j);
    subtract_lanes(terms.jx, out.jx + j);
    subtract_lanes(terms.jy, out.jy + j);
    subtract_lanes(terms.jz, out.jz + j);
  }

  [[gnu::always_inline]] void store(const Sums& out, std::size_t i) const {
    Isa::store(out.ax + i, ax);
    Isa::store(out.ay + i, ay);
    Isa::store(out.az + i, az);
    Isa::store(out.jx + i, jx);
    Isa::store(out.jy + i, jy);
    Isa::store(out.jz + i, jz);
  }

  V x, y, z, vx, vy, vz, m;
  V ax, ay, az, jx, jy, jz;
};

// The symmetric i-lane kernel. Row r's chain in the scalar loop is its
// sources in ascending order: k < r arrive as subtractions during outer
// iteration k, k > r as additions during its own. Per group of W rows, the
// pairs inside the group run first, in scalar code and the loop's order;
// then the lanes take the sources past the group. With W = 1 there are no
// pairs inside a group, the transpose is the identity, and this is the
// scalar loop itself.
template <class Isa>
[[gnu::always_inline]] inline void symmetric_rows(const Sources& s,
                                                  const Sums& out) {
  constexpr std::size_t W = Isa::kWidth;
  const std::size_t n = s.n;
  for (double* row : {out.ax, out.ay, out.az, out.jx, out.jy, out.jz}) {
    std::fill_n(row, n, 0.0);
  }
  std::size_t i0 = 0;
  for (; i0 + W <= n; i0 += W) {
    for (std::size_t i = i0; i < i0 + W; ++i) {
      for (std::size_t k = i + 1; k < i0 + W; ++k) scalar_pair(s, out, i, k);
    }
    MirrorGroup<Isa> group(s, out, i0);
    std::size_t j = i0 + W;
    for (; j + W <= n; j += W) group.add_block(s, out, j);
    for (; j < n; ++j) group.add_single(s, out, j);
    group.store(out, i0);
  }
  // Rows after the last full group: the tail of the scalar loop.
  for (std::size_t i = i0; i < n; ++i) {
    for (std::size_t k = i + 1; k < n; ++k) scalar_pair(s, out, i, k);
  }
}

void scalar_symmetric(const Sources& s, const Sums& out) {
  symmetric_rows<simd::Scalar>(s, out);
}

void native_symmetric(const Sources& s, const Sums& out) {
  symmetric_rows<simd::Native>(s, out);
}

#if defined(JUNGLE_SIMD_AVX2)
__attribute__((target("avx2"))) void avx2_symmetric(const Sources& s,
                                                    const Sums& out) {
  symmetric_rows<simd::Avx2>(s, out);
}
#endif

}  // namespace

const Tile& scalar() {
  static const Tile tile{"scalar", 1, &scalar_tile, &scalar_symmetric};
  return tile;
}

std::vector<Tile> supported() {
  std::vector<Tile> tiles;
  if constexpr (simd::Native::kWidth > 1) {
    tiles.push_back({simd::Native::kName, simd::Native::kWidth, &native_tile,
                     &native_symmetric});
  }
#if defined(JUNGLE_SIMD_AVX2)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    tiles.push_back(
        {simd::Avx2::kName, simd::Avx2::kWidth, &avx2_tile, &avx2_symmetric});
  }
#endif
  return tiles;
}

const Tile& dispatched() {
  static const Tile chosen = [] {
    std::vector<Tile> tiles = supported();
    return tiles.empty() ? scalar() : tiles.back();
  }();
  return chosen;
}

}  // namespace jungle::kernels::hermite_tile
