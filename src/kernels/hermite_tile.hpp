#pragma once

// The Hermite kernel's tiled force path: a scalar reference tile, one i-lane
// tile per instruction set, and the run-time dispatcher that picks the
// widest tile the CPU runs. Internal to the kernel — HermiteIntegrator is
// the production caller; tests and the kernel bench include this header to
// run every tile the host supports against the scalar one. The ISA comes
// only from the CPU: there is no option to choose it.

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

struct Tile {
  const char* isa;
  std::size_t lanes;
  TileFn run;
};

/// The plain scalar loop: the bit-exactness reference (set_simd(false)).
const Tile& scalar();

/// Every vector tile this CPU can run, narrowest first: the compile-time
/// baseline (when it has more than one lane), then AVX2 where the CPU
/// supports it.
std::vector<Tile> supported();

/// The widest tile of supported(), chosen on first call from the CPU and
/// fixed for the process; scalar() when there is none.
const Tile& dispatched();

}  // namespace jungle::kernels::hermite_tile
