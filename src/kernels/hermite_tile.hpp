#pragma once

// The Hermite kernel's vector force paths: for the tiled path a scalar
// reference tile and one i-lane tile per instruction set, for the
// sequential symmetric path one i-lane kernel per instruction set, and the
// run-time dispatcher that picks the widest of both the CPU runs. Internal
// to the kernel — HermiteIntegrator is the production caller; tests and the
// kernel bench include this header to run every kernel the host supports
// against the scalar references. The ISA comes only from the CPU: there is
// no option to choose it.

#include <cstddef>
#include <vector>

#include "kernels/vec3.hpp"

namespace jungle::kernels::hermite_tile {

/// A row block's accumulators live in registers/stack while a source tile
/// of the SoA arrays stays L1-resident (kJTile * 7 doubles = 28 KiB).
inline constexpr std::size_t kIBlock = 64;
inline constexpr std::size_t kJTile = 512;

/// Read-only SoA view of all n sources.
struct Sources {
  const double* x;
  const double* y;
  const double* z;
  const double* vx;
  const double* vy;
  const double* vz;
  const double* m;
  std::size_t n;
  double eps2;  // softening^2
};

/// Writes acc[i] and jerk[i] for the rows i in [lo, hi), summed over the
/// sources j in [0, n) with j != i. Every tile sums a row in the same order
/// — sources in kJTile tiles, 0..n-1, each tile's partial sum added to the
/// row total — with the same correctly-rounded operations, so all tiles
/// return the same bits for any [lo, hi).
using TileFn = void (*)(const Sources& sources, std::size_t lo,
                        std::size_t hi, Vec3* acc, Vec3* jerk);

/// Per-row force totals in SoA form, n doubles each.
struct Sums {
  double* ax;
  double* ay;
  double* az;
  double* jx;
  double* jy;
  double* jz;
};

/// Writes every row's acc and jerk for all n sources by the symmetric
/// (Newton's third law) pair walk: each pair i < j evaluated once, added to
/// row i and subtracted from row j. Returns the same bits as
/// HermiteIntegrator's sequential scalar loop, which sums each row over its
/// sources in ascending index order: lanes hold W consecutive rows, and the
/// mirrored terms, which are the exact negations of what row j would
/// compute itself, reach row j in lane order through a W x W transpose.
using SymmetricFn = void (*)(const Sources& sources, const Sums& out);

struct Tile {
  const char* isa;
  std::size_t lanes;
  TileFn run;
  SymmetricFn symmetric;
};

/// The plain scalar tile: the tiled path's bit-exactness reference
/// (set_simd(false)). Its symmetric kernel is the one-lane instantiation,
/// which reduces to the sequential scalar loop.
const Tile& scalar();

/// Every vector width this CPU can run, narrowest first: the compile-time
/// baseline (when it has more than one lane), then AVX2 where the CPU
/// supports it.
std::vector<Tile> supported();

/// The widest entry of supported(), tile and symmetric kernel together,
/// chosen on first call from the CPU and fixed for the process; scalar()
/// when there is none.
const Tile& dispatched();

}  // namespace jungle::kernels::hermite_tile
