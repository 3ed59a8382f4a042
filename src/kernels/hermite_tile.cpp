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

}  // namespace

const Tile& scalar() {
  static const Tile tile{"scalar", 1, &scalar_tile};
  return tile;
}

std::vector<Tile> supported() {
  std::vector<Tile> tiles;
  if constexpr (simd::Native::kWidth > 1) {
    tiles.push_back({simd::Native::kName, simd::Native::kWidth, &native_tile});
  }
#if defined(JUNGLE_SIMD_AVX2)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) {
    tiles.push_back({simd::Avx2::kName, simd::Avx2::kWidth, &avx2_tile});
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
