#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "amuse/ic.hpp"
#include "kernels/bhtree.hpp"
#include "kernels/hermite.hpp"
#include "kernels/hermite_tile.hpp"
#include "kernels/sph.hpp"
#include "kernels/sse.hpp"
#include "kernels/treefield.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace jungle;
using namespace jungle::kernels;

// ---------------------------------------------------------------- hermite

TEST(Hermite, TwoBodyCircularOrbitPeriod) {
  // Equal masses m=0.5 at +/-0.5 on x, circular velocity v=0.5 each:
  // total mass 1, separation 1 -> omega=1, period 2*pi.
  HermiteIntegrator::Params params;
  params.eps2 = 0.0;
  params.eta = 0.01;
  HermiteIntegrator nbody(params);
  nbody.add_particle(0.5, {0.5, 0, 0}, {0, 0.5, 0});
  nbody.add_particle(0.5, {-0.5, 0, 0}, {0, -0.5, 0});
  double period = 2.0 * M_PI;
  nbody.evolve(period);
  // Back to the start after one full orbit.
  EXPECT_NEAR(nbody.positions()[0].x, 0.5, 5e-3);
  EXPECT_NEAR(nbody.positions()[0].y, 0.0, 5e-3);
}

TEST(Hermite, EnergyConservedOverOrbit) {
  HermiteIntegrator::Params params;
  params.eps2 = 0.0;
  params.eta = 0.01;
  HermiteIntegrator nbody(params);
  nbody.add_particle(0.5, {0.5, 0, 0}, {0, 0.5, 0});
  nbody.add_particle(0.5, {-0.5, 0, 0}, {0, -0.5, 0});
  double e0 = nbody.kinetic_energy() + nbody.potential_energy();
  nbody.evolve(20.0);
  double e1 = nbody.kinetic_energy() + nbody.potential_energy();
  EXPECT_NEAR(e1, e0, std::abs(e0) * 1e-6);
}

TEST(Hermite, PlummerEnergyDriftSmall) {
  util::Rng rng(42);
  auto model = amuse::ic::plummer_sphere(128, rng);
  HermiteIntegrator nbody;  // default eps2 softening
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
  }
  double e0 = nbody.kinetic_energy() + nbody.potential_energy();
  nbody.evolve(1.0);
  double e1 = nbody.kinetic_energy() + nbody.potential_energy();
  EXPECT_LT(std::abs(e1 - e0) / std::abs(e0), 2e-3);
}

TEST(Hermite, MomentumConserved) {
  util::Rng rng(7);
  auto model = amuse::ic::plummer_sphere(64, rng);
  HermiteIntegrator nbody;
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
  }
  nbody.evolve(0.5);
  Vec3 p{};
  for (std::size_t i = 0; i < nbody.size(); ++i) {
    p += nbody.masses()[i] * nbody.velocities()[i];
  }
  EXPECT_NEAR(p.norm(), 0.0, 1e-10);
}

TEST(Hermite, PairCountGrowsQuadratically) {
  auto pairs_for = [](std::size_t n) {
    util::Rng rng(1);
    auto model = amuse::ic::plummer_sphere(n, rng);
    HermiteIntegrator nbody;
    for (std::size_t i = 0; i < n; ++i) {
      nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
    }
    nbody.evolve(0.01);
    return static_cast<double>(nbody.pair_evaluations());
  };
  double small = pairs_for(64);
  double large = pairs_for(128);
  // Per force evaluation the ratio is exactly 4; step counts differ a bit.
  EXPECT_GT(large / small, 2.5);
}

TEST(Hermite, KickChangesVelocity) {
  HermiteIntegrator nbody;
  nbody.add_particle(1.0, {0, 0, 0}, {0, 0, 0});
  nbody.kick(0, {0.5, 0, 0});
  EXPECT_DOUBLE_EQ(nbody.velocities()[0].x, 0.5);
}

TEST(Hermite, EvolveEmptySystemAdvancesTime) {
  HermiteIntegrator nbody;
  nbody.evolve(3.0);
  EXPECT_DOUBLE_EQ(nbody.time(), 3.0);
}

// ----------------------------------------------------------------- bhtree

TEST(BarnesHut, MatchesDirectSummationAtSmallTheta) {
  util::Rng rng(11);
  auto model = amuse::ic::plummer_sphere(256, rng);
  BarnesHutTree tree(0.01, 1e-4);  // theta -> 0: effectively direct
  tree.build(model.position, model.mass);
  for (int probe = 0; probe < 8; ++probe) {
    Vec3 point = model.position[probe * 20];
    Vec3 direct{};
    for (std::size_t j = 0; j < model.mass.size(); ++j) {
      Vec3 dr = model.position[j] - point;
      double d2 = dr.norm2() + 1e-4;
      direct += (model.mass[j] / (d2 * std::sqrt(d2))) * dr;
    }
    Vec3 approx = tree.accel_at(point);
    EXPECT_NEAR((approx - direct).norm(), 0.0, 1e-9);
  }
}

TEST(BarnesHut, ErrorBoundedAtModerateTheta) {
  util::Rng rng(13);
  auto model = amuse::ic::plummer_sphere(512, rng);
  BarnesHutTree tree(0.6, 1e-4);
  tree.build(model.position, model.mass);
  double worst = 0.0;
  for (int probe = 0; probe < 16; ++probe) {
    Vec3 point = model.position[probe * 30];
    Vec3 direct{};
    for (std::size_t j = 0; j < model.mass.size(); ++j) {
      Vec3 dr = model.position[j] - point;
      double d2 = dr.norm2() + 1e-4;
      direct += (model.mass[j] / (d2 * std::sqrt(d2))) * dr;
    }
    Vec3 approx = tree.accel_at(point);
    double rel = (approx - direct).norm() / (direct.norm() + 1e-12);
    worst = std::max(worst, rel);
  }
  EXPECT_LT(worst, 0.05);  // few-percent monopole accuracy
}

TEST(BarnesHut, InteractionCountSubQuadratic) {
  auto interactions_for = [](std::size_t n) {
    util::Rng rng(3);
    auto model = amuse::ic::plummer_sphere(n, rng);
    BarnesHutTree tree(0.6, 1e-4);
    tree.build(model.position, model.mass);
    for (std::size_t i = 0; i < n; ++i) tree.accel_at(model.position[i]);
    return static_cast<double>(tree.interactions());
  };
  double small = interactions_for(256);
  double large = interactions_for(1024);
  // Quadratic would be x16; N log N is ~x5-9 at these sizes.
  EXPECT_LT(large / small, 11.0);
}

TEST(BarnesHut, PotentialNegativeAndDeepestAtCentre) {
  util::Rng rng(5);
  auto model = amuse::ic::plummer_sphere(256, rng);
  BarnesHutTree tree(0.6, 1e-4);
  tree.build(model.position, model.mass);
  double centre = tree.potential_at({0, 0, 0});
  double edge = tree.potential_at({10, 0, 0});
  EXPECT_LT(centre, edge);
  EXPECT_LT(centre, 0.0);
  EXPECT_NEAR(edge, -1.0 / 10.0, 0.01);  // total mass 1 far away
}

TEST(BarnesHut, EmptyTreeGivesZero) {
  BarnesHutTree tree;
  tree.build({}, {});
  EXPECT_DOUBLE_EQ(tree.accel_at(Vec3{1, 2, 3}).norm(), 0.0);
  EXPECT_DOUBLE_EQ(tree.potential_at(Vec3{1, 2, 3}), 0.0);
}

TEST(BarnesHut, CoincidentParticlesKeepTotalMass) {
  // Regression: >= kLeafCapacity exactly-coincident particles used to be
  // folded into an interior monopole with an inconsistent normalization.
  // They now extend the deepest leaf's body list, so the far field must see
  // exactly the summed mass and the build must not blow up.
  std::vector<Vec3> positions(12, Vec3{0.25, -0.5, 0.125});
  std::vector<double> masses(12, 0.5);
  positions.push_back({1.0, 1.0, 1.0});  // one distinct particle
  masses.push_back(2.0);
  BarnesHutTree tree(0.6, 0.0);
  tree.build(positions, masses);

  // Far field: total mass 8 at distance ~100.
  Vec3 far{100.0, 0.0, 0.0};
  double phi = tree.potential_at(far);
  double expected = 0.0;
  for (std::size_t j = 0; j < masses.size(); ++j) {
    expected -= masses[j] / (positions[j] - far).norm();
  }
  EXPECT_NEAR(phi, expected, std::abs(expected) * 1e-3);

  // Near field at the distinct particle: the 12 coincident bodies act as a
  // single point of mass 6 (exact, not an approximate monopole).
  Vec3 probe = positions.back();
  Vec3 accel = tree.accel_at(probe);
  Vec3 dr = positions[0] - probe;
  double r = dr.norm();
  Vec3 direct = (6.0 / (r * r * r)) * dr;
  EXPECT_NEAR((accel - direct).norm(), 0.0, 1e-12);
}

TEST(BarnesHut, ThreeCoincidentOnlyParticlesAreExact) {
  std::vector<Vec3> positions(3, Vec3{0, 0, 0});
  std::vector<double> masses{1.0, 2.0, 3.0};
  BarnesHutTree tree(0.6, 0.0);
  tree.build(positions, masses);
  Vec3 probe{0.0, 3.0, 0.0};
  Vec3 accel = tree.accel_at(probe);
  EXPECT_NEAR(accel.y, -6.0 / 9.0, 1e-12);
  EXPECT_NEAR(accel.x, 0.0, 1e-15);
  // Potential at the coincident point skips the self-bodies cleanly.
  EXPECT_DOUBLE_EQ(tree.potential_at(Vec3{0, 0, 0}), 0.0);
}

TEST(BarnesHut, BatchedAccelMatchesSerialBitExactly) {
  util::Rng rng(17);
  auto model = amuse::ic::plummer_sphere(512, rng);
  BarnesHutTree tree(0.6, 1e-4);
  tree.build(model.position, model.mass);

  std::vector<Vec3> serial(model.position.size());
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < model.position.size(); ++i) {
    serial[i] = tree.accel_at(model.position[i], count);
  }

  util::ThreadPool pool(4);
  tree.set_thread_pool(&pool);
  std::vector<Vec3> batched(model.position.size());
  std::uint64_t before = tree.interactions();
  tree.accel_at(model.position, batched);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].x, batched[i].x) << i;
    EXPECT_EQ(serial[i].y, batched[i].y) << i;
    EXPECT_EQ(serial[i].z, batched[i].z) << i;
  }
  // Interaction accounting is identical too.
  EXPECT_EQ(tree.interactions() - before, count);
}

TEST(Hermite, ForcesIndependentOfThreadCount) {
  // N above kParallelThreshold so the tiled parallel path engages.
  const std::size_t n = 400;
  auto run = [&](unsigned lanes) {
    util::Rng rng(23);
    auto model = amuse::ic::plummer_sphere(n, rng);
    util::ThreadPool pool(lanes);
    HermiteIntegrator nbody;
    nbody.set_thread_pool(&pool);
    for (std::size_t i = 0; i < n; ++i) {
      nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
    }
    nbody.evolve(0.125);
    nbody.set_thread_pool(nullptr);  // pool dies with this lambda frame
    return nbody;
  };
  auto one = run(1);
  auto four_a = run(4);
  auto four_b = run(4);
  for (std::size_t i = 0; i < n; ++i) {
    // Same lane count => bit-identical (chunk->lane mapping cannot matter).
    EXPECT_EQ(four_a.positions()[i].x, four_b.positions()[i].x) << i;
    EXPECT_EQ(four_a.velocities()[i].y, four_b.velocities()[i].y) << i;
    // 1 lane (sequential symmetric path) vs 4 lanes (tiled path): the
    // summation order differs, so allow rounding-level drift only.
    EXPECT_NEAR(one.positions()[i].x, four_a.positions()[i].x, 1e-12) << i;
    EXPECT_NEAR(one.positions()[i].y, four_a.positions()[i].y, 1e-12) << i;
    EXPECT_NEAR(one.positions()[i].z, four_a.positions()[i].z, 1e-12) << i;
    EXPECT_NEAR(one.velocities()[i].x, four_a.velocities()[i].x, 1e-12) << i;
  }
}

namespace {

bool same_bits(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Vec3)) == 0;
}

}  // namespace

TEST(HermiteTile, EveryHostTileMatchesScalarBitForBit) {
  // n = 1030 is a multiple of neither the source tile nor any lane width.
  const std::size_t n = 1030;
  ASSERT_NE(n % hermite_tile::kJTile, 0u);
  util::Rng rng(41);
  auto model = amuse::ic::plummer_sphere(n, rng);
  std::vector<double> x(n), y(n), z(n), vx(n), vy(n), vz(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = model.position[i].x;
    y[i] = model.position[i].y;
    z[i] = model.position[i].z;
    vx[i] = model.velocity[i].x;
    vy[i] = model.velocity[i].y;
    vz[i] = model.velocity[i].z;
  }
  // Owned row ranges: the full system; a shard not starting at 0; lengths
  // that leave scalar tail rows after the last full lane group (and after
  // the last full row block); groups whose rows straddle the source-tile
  // boundary at kJTile, so their self pairs fall in two tiles; a range
  // shorter than any lane group.
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, n}, {257, 771}, {3, 70}, {5, n}, {509, 530}, {511, 600},
      {1027, n}};
  const auto tiles = hermite_tile::supported();
  std::printf("host tiles:");
  for (const auto& tile : tiles) std::printf(" %s/%zu", tile.isa, tile.lanes);
  std::printf("\n");
  // eps2 = 0 with distinct positions: the unsoftened self pair is inf/NaN,
  // which the self-pair mask must keep out of the sums.
  for (double eps2 : {1e-4, 0.0}) {
    const hermite_tile::Sources sources{x.data(),  y.data(),  z.data(),
                                        vx.data(), vy.data(), vz.data(),
                                        model.mass.data(), n, eps2};
    for (auto [lo, hi] : ranges) {
      std::vector<Vec3> ref_acc(n), ref_jerk(n);
      hermite_tile::scalar().run(sources, lo, hi, ref_acc.data(),
                                 ref_jerk.data());
      for (std::size_t i = lo; i < hi; ++i) {
        ASSERT_TRUE(std::isfinite(ref_acc[i].norm2()) &&
                    std::isfinite(ref_jerk[i].norm2()))
            << "row " << i << " eps2 " << eps2;
      }
      for (const auto& tile : tiles) {
        std::vector<Vec3> acc(n), jerk(n);
        tile.run(sources, lo, hi, acc.data(), jerk.data());
        EXPECT_TRUE(same_bits(acc, ref_acc))
            << tile.isa << " acc [" << lo << ", " << hi << ") eps2 " << eps2;
        EXPECT_TRUE(same_bits(jerk, ref_jerk))
            << tile.isa << " jerk [" << lo << ", " << hi << ") eps2 " << eps2;
      }
    }
  }
}

TEST(HermiteTile, EverySymmetricKernelMatchesScalarBitForBit) {
  // Every host width against the sequential scalar loop (set_simd(false) on
  // a 1-lane pool), plus the one-lane instantiation scalar() carries. The
  // sizes cover no full lane group, one group with and without tail rows,
  // column tails after the full source blocks, and the triple-plummer
  // model's 128 bodies.
  auto kernels = hermite_tile::supported();
  kernels.insert(kernels.begin(), hermite_tile::scalar());
  util::ThreadPool pool(1);
  for (const auto& kernel : kernels) {
    const std::size_t w = kernel.lanes;
    std::vector<std::size_t> sizes = {1,         2,   3,   w - 1, w,  w + 1,
                                      2 * w + 3, 127, 128, 130,   255};
    for (double eps2 : {1e-4, 0.0}) {
      for (std::size_t n : sizes) {
        if (n == 0) continue;
        ASSERT_LT(n, HermiteIntegrator::kParallelThreshold);
        // Distinct positions: eps2 = 0 leaves every pair finite.
        util::Rng rng(1000 + n);
        HermiteIntegrator::Params params;
        params.eps2 = eps2;
        HermiteIntegrator reference(params);
        reference.set_thread_pool(&pool);
        reference.set_simd(false);
        std::vector<double> x(n), y(n), z(n), vx(n), vy(n), vz(n), m(n);
        for (std::size_t i = 0; i < n; ++i) {
          x[i] = rng.uniform(-1, 1);
          y[i] = rng.uniform(-1, 1);
          z[i] = rng.uniform(-1, 1);
          vx[i] = rng.uniform(-1, 1);
          vy[i] = rng.uniform(-1, 1);
          vz[i] = rng.uniform(-1, 1);
          m[i] = rng.uniform(0.5, 1.5) / static_cast<double>(n);
          reference.add_particle(m[i], {x[i], y[i], z[i]},
                                 {vx[i], vy[i], vz[i]});
        }
        reference.evolve(0.0);  // forces at the initial state, no step
        const hermite_tile::Sources sources{
            x.data(), y.data(), z.data(), vx.data(), vy.data(), vz.data(),
            m.data(), n,        eps2};
        std::vector<double> ax(n, 7.0), ay(n, 7.0), az(n, 7.0), jx(n, 7.0),
            jy(n, 7.0), jz(n, 7.0);
        kernel.symmetric(sources, {ax.data(), ay.data(), az.data(),
                                   jx.data(), jy.data(), jz.data()});
        std::vector<Vec3> acc(n), jerk(n);
        for (std::size_t i = 0; i < n; ++i) {
          acc[i] = {ax[i], ay[i], az[i]};
          jerk[i] = {jx[i], jy[i], jz[i]};
          ASSERT_TRUE(std::isfinite(acc[i].norm2()) &&
                      std::isfinite(jerk[i].norm2()))
              << kernel.isa << " row " << i << " n " << n;
        }
        EXPECT_TRUE(same_bits(acc, reference.accelerations()))
            << kernel.isa << " acc n " << n << " eps2 " << eps2;
        EXPECT_TRUE(same_bits(jerk, reference.jerks()))
            << kernel.isa << " jerk n " << n << " eps2 " << eps2;
      }
    }
  }
}

TEST(HermiteTile, DispatchPicksTheWidestSupportedTile) {
  const auto tiles = hermite_tile::supported();
  const auto& chosen = hermite_tile::dispatched();
  if (tiles.empty()) {
    EXPECT_EQ(chosen.run, hermite_tile::scalar().run);
    EXPECT_EQ(chosen.symmetric, hermite_tile::scalar().symmetric);
  } else {
    EXPECT_EQ(chosen.run, tiles.back().run);
    EXPECT_EQ(chosen.symmetric, tiles.back().symmetric);
    for (const auto& tile : tiles) EXPECT_LE(tile.lanes, chosen.lanes);
  }
}

TEST(Hermite, SimdAndScalarEvolveBitIdentical) {
  // The tiled path: a 4-lane pool and N above kParallelThreshold, full and
  // sharded (a shard's rows start past 0 and end before N). The symmetric
  // path: N = 128 below the threshold on the 4-lane pool, and N = 300 on a
  // 1-lane pool.
  struct Case {
    std::size_t n;
    unsigned lanes;
    std::size_t lo, hi;
  };
  const Case cases[] = {
      {400, 4, 0, 400}, {400, 4, 101, 299}, {128, 4, 0, 128}, {300, 1, 0, 300}};
  for (const Case& c : cases) {
    util::Rng rng(29);
    auto model = amuse::ic::plummer_sphere(c.n, rng);
    util::ThreadPool pool(c.lanes);
    auto run = [&](bool simd) {
      HermiteIntegrator nbody;
      nbody.set_thread_pool(&pool);
      nbody.set_simd(simd);
      for (std::size_t i = 0; i < c.n; ++i) {
        nbody.add_particle(model.mass[i], model.position[i],
                           model.velocity[i]);
      }
      nbody.set_owned_range(c.lo, c.hi);
      nbody.evolve(1.0 / 32.0);
      return nbody;
    };
    HermiteIntegrator vec = run(true);
    HermiteIntegrator ref = run(false);
    const std::string label = "n " + std::to_string(c.n) + " lanes " +
                              std::to_string(c.lanes) + " rows [" +
                              std::to_string(c.lo) + ", " +
                              std::to_string(c.hi) + ")";
    EXPECT_GT(vec.substeps(), 1u) << label;
    EXPECT_EQ(vec.substeps(), ref.substeps()) << label;
    EXPECT_EQ(vec.pair_evaluations(), ref.pair_evaluations()) << label;
    EXPECT_TRUE(same_bits(vec.positions(), ref.positions())) << label;
    EXPECT_TRUE(same_bits(vec.velocities(), ref.velocities())) << label;
    EXPECT_TRUE(same_bits(vec.accelerations(), ref.accelerations())) << label;
    EXPECT_TRUE(same_bits(vec.jerks(), ref.jerks())) << label;
  }
}

TEST(TreeField, CrossForcesAreSymmetricInMass) {
  // Field of a 2-mass source at a probe: doubling source masses doubles
  // the acceleration.
  TreeField field(0.6, 0.0);
  std::vector<double> masses{1.0, 1.0};
  std::vector<Vec3> sources{{1, 0, 0}, {-1, 0, 0}};
  field.set_sources(masses, sources);
  Vec3 a1 = field.accel_at(std::vector<Vec3>{{0, 1, 0}})[0];
  std::vector<double> doubled{2.0, 2.0};
  field.set_sources(doubled, sources);
  Vec3 a2 = field.accel_at(std::vector<Vec3>{{0, 1, 0}})[0];
  EXPECT_NEAR(a2.norm(), 2.0 * a1.norm(), 1e-12);
}

// -------------------------------------------------------------------- sse

TEST(Sse, LifetimeDecreasesWithMass) {
  double previous = std::numeric_limits<double>::max();
  for (double mass : {0.5, 1.0, 2.0, 5.0, 10.0, 20.0}) {
    double lifetime = StellarEvolution::main_sequence_lifetime_myr(mass);
    EXPECT_LT(lifetime, previous) << "mass " << mass;
    previous = lifetime;
  }
}

TEST(Sse, SunLikeStarStaysOnMainSequence) {
  StellarEvolution se;
  se.add_star(1.0);
  se.evolve_to(4600.0);  // the Sun today
  EXPECT_EQ(se.star(0).phase, StellarEvolution::Phase::main_sequence);
  EXPECT_NEAR(se.star(0).mass, 1.0, 0.01);
}

TEST(Sse, MassiveStarExplodes) {
  StellarEvolution se;
  se.add_star(20.0);
  double t_end = StellarEvolution::main_sequence_lifetime_myr(20.0) +
                 StellarEvolution::giant_lifetime_myr(20.0) + 1.0;
  se.evolve_to(t_end);
  EXPECT_EQ(se.star(0).phase, StellarEvolution::Phase::neutron_star);
  EXPECT_DOUBLE_EQ(se.star(0).mass, 1.4);
  ASSERT_EQ(se.recent_supernovae().size(), 1u);
  EXPECT_EQ(se.recent_supernovae()[0], 0);
}

TEST(Sse, LowMassStarBecomesWhiteDwarf) {
  StellarEvolution se;
  se.add_star(2.0);
  double t_end = StellarEvolution::main_sequence_lifetime_myr(2.0) * 1.2;
  se.evolve_to(t_end);
  EXPECT_EQ(se.star(0).phase, StellarEvolution::Phase::white_dwarf);
  EXPECT_DOUBLE_EQ(se.star(0).mass, 0.6);
  EXPECT_TRUE(se.recent_supernovae().empty());
}

TEST(Sse, MassNeverIncreases) {
  StellarEvolution se;
  se.add_star(15.0);
  double previous = 15.0;
  for (double t = 0; t < 20.0; t += 0.5) {
    se.evolve_to(t);
    EXPECT_LE(se.star(0).mass, previous + 1e-12);
    previous = se.star(0).mass;
  }
}

TEST(Sse, MassLossAccumulatesDuringGiantPhase) {
  StellarEvolution se;
  se.add_star(10.0);
  double t_ms = StellarEvolution::main_sequence_lifetime_myr(10.0);
  se.evolve_to(t_ms + 0.5 * StellarEvolution::giant_lifetime_myr(10.0));
  EXPECT_EQ(se.star(0).phase, StellarEvolution::Phase::giant);
  EXPECT_GT(se.recent_mass_loss(), 0.0);
}

TEST(Sse, BackwardsEvolutionThrows) {
  StellarEvolution se;
  se.add_star(1.0);
  se.evolve_to(10.0);
  EXPECT_THROW(se.evolve_to(5.0), CodeError);
}

TEST(Sse, GiantsAreBrighterAndBigger) {
  StellarEvolution se;
  se.add_star(5.0);
  se.evolve_to(1.0);
  double l_ms = se.star(0).luminosity;
  double r_ms = se.star(0).radius;
  double t_ms = StellarEvolution::main_sequence_lifetime_myr(5.0);
  se.evolve_to(t_ms + 0.1 * StellarEvolution::giant_lifetime_myr(5.0));
  EXPECT_GT(se.star(0).luminosity, 5.0 * l_ms);
  EXPECT_GT(se.star(0).radius, 10.0 * r_ms);
}

// -------------------------------------------------------------------- sph

namespace {
/// Uniform-ish gas ball for SPH tests.
kernels::SphSystem make_gas_ball(std::size_t n, double u = 0.05,
                                 bool gravity = false) {
  SphSystem::Params params;
  params.self_gravity = gravity;
  SphSystem sph(params);
  util::Rng rng(99);
  auto gas = amuse::ic::gas_sphere(n, rng, 1.0, 1.0, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    sph.add_particle(gas.mass[i], gas.position[i], gas.velocity[i], u);
  }
  return sph;
}
}  // namespace

TEST(Sph, DensityMatchesUniformSphere) {
  auto sph = make_gas_ball(2000);
  sph.prepare_step();
  sph.compute_density(0, sph.size());
  // Homogeneous sphere of mass 1, radius 1: rho = 3/(4 pi) ~ 0.2387.
  double expected = 3.0 / (4.0 * M_PI);
  // Median density of the inner half (edges are biased low).
  std::vector<double> inner;
  for (std::size_t i = 0; i < sph.size(); ++i) {
    if (sph.positions()[i].norm() < 0.6) inner.push_back(sph.densities()[i]);
  }
  ASSERT_GT(inner.size(), 100u);
  std::sort(inner.begin(), inner.end());
  double median = inner[inner.size() / 2];
  // Summation density self-term biases high at finite neighbour number.
  EXPECT_NEAR(median, expected, 0.30 * expected);
}

TEST(Sph, MomentumConservedWithoutGravity) {
  auto sph = make_gas_ball(500);
  sph.evolve(0.05);
  Vec3 p{};
  for (std::size_t i = 0; i < sph.size(); ++i) {
    p += sph.masses()[i] * sph.velocities()[i];
  }
  EXPECT_NEAR(p.norm(), 0.0, 1e-8);
}

TEST(Sph, PressureDrivesExpansion) {
  // Hot ball, no gravity: the rarefaction wave needs about a sound-crossing
  // time to reach the centre, after which the ball blows apart.
  auto sph = make_gas_ball(400, /*u=*/1.0);
  auto mean_radius = [&] {
    double sum = 0;
    for (const Vec3& p : sph.positions()) sum += p.norm();
    return sum / static_cast<double>(sph.size());
  };
  double r0 = mean_radius();
  sph.evolve(0.8);
  EXPECT_GT(mean_radius(), 1.15 * r0);
}

TEST(Sph, EnergyInjectionRaisesThermalEnergy) {
  auto sph = make_gas_ball(300);
  sph.prepare_step();
  sph.compute_density(0, sph.size());
  double before = sph.thermal_energy();
  sph.inject_energy(0, 10.0);
  double after = sph.thermal_energy();
  EXPECT_NEAR(after - before, 10.0 * sph.masses()[0], 1e-9);
}

TEST(Sph, InjectionBeforeFirstDensityIsNotLost) {
  SphSystem sph;
  sph.params().self_gravity = false;
  sph.add_particle(1.0, {0, 0, 0}, {0, 0, 0}, 1.0);
  sph.inject_energy(0, 2.0);
  sph.prepare_step();
  sph.compute_density(0, 1);
  EXPECT_NEAR(sph.internal_energies()[0], 3.0, 1e-9);
}

TEST(Sph, SelfGravityBindsColdGas) {
  // Cold ball with gravity: it contracts (mean radius shrinks).
  auto sph = make_gas_ball(400, /*u=*/0.01, /*gravity=*/true);
  auto mean_radius = [&] {
    double sum = 0;
    for (const Vec3& p : sph.positions()) sum += p.norm();
    return sum / static_cast<double>(sph.size());
  };
  double r0 = mean_radius();
  sph.evolve(0.3);
  EXPECT_LT(mean_radius(), r0);
}

TEST(Sph, TimestepRespectsCfl) {
  auto sph = make_gas_ball(200, 1.0);
  sph.prepare_step();
  sph.compute_density(0, sph.size());
  sph.compute_forces(0, sph.size());
  double dt = sph.timestep(0, sph.size());
  EXPECT_GT(dt, 0.0);
  EXPECT_LE(dt, sph.params().dt_max);
}

namespace {
// Brute-force neighbour list in the order the grid search must return it:
// ascending grid cell, then ascending index, with the search's distance test.
std::vector<int> brute_neighbours(const SphSystem& sph, const Vec3& p,
                                  double radius) {
  std::vector<std::pair<std::size_t, int>> keyed;
  for (int j = 0; j < static_cast<int>(sph.size()); ++j) {
    if ((sph.positions()[j] - p).norm2() <= radius * radius) {
      keyed.push_back({sph.grid_cell(sph.positions()[j]), j});
    }
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<int> out;
  for (const auto& entry : keyed) out.push_back(entry.second);
  return out;
}

// Compares neighbours_of() with brute force, order included, for each
// query particle and radius. Returns how many lists were not in ascending
// index order, so callers can check the order comparison had teeth.
int expect_grid_matches_brute(const SphSystem& sph,
                              const std::vector<int>& queries,
                              const std::vector<double>& radii) {
  int reordered = 0;
  for (double radius : radii) {
    for (int i : queries) {
      auto grid = sph.neighbours_of(i, radius);
      EXPECT_EQ(grid, brute_neighbours(sph, sph.positions()[i], radius))
          << "particle " << i << " radius " << radius;
      if (!std::is_sorted(grid.begin(), grid.end())) ++reordered;
    }
  }
  return reordered;
}

// Gas on a cubic lattice of `side`^3 sites, `spacing` apart from the origin.
SphSystem make_gas_lattice(int side, double spacing) {
  SphSystem sph;
  for (int z = 0; z < side; ++z) {
    for (int y = 0; y < side; ++y) {
      for (int x = 0; x < side; ++x) {
        sph.add_particle(1e-3, {x * spacing, y * spacing, z * spacing}, {},
                         0.05);
      }
    }
  }
  return sph;
}

// Lattice sites whose coordinates each come from `picks`: with even picks on
// cell faces, this mixes face, edge, corner and interior queries.
std::vector<int> lattice_queries(int side, const std::vector<int>& picks) {
  std::vector<int> out;
  for (int z : picks) {
    for (int y : picks) {
      for (int x : picks) out.push_back((z * side + y) * side + x);
    }
  }
  return out;
}

double cubic_spline(double r, double h) {
  double q = r / h;
  double sigma = 1.0 / (M_PI * h * h * h);
  if (q < 1.0) return sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
  if (q < 2.0) return sigma * 0.25 * (2.0 - q) * (2.0 - q) * (2.0 - q);
  return 0.0;
}
}  // namespace

TEST(Sph, GridNeighboursMatchBruteForce) {
  int reordered = 0;
  {
    auto sph = make_gas_ball(800);
    sph.prepare_step();
    std::vector<int> queries;
    for (int i = 0; i < static_cast<int>(sph.size()); i += 37) {
      queries.push_back(i);
    }
    // Also exercise a radius larger than one grid cell (span > 1).
    reordered += expect_grid_matches_brute(sph, queries, {0.08, 0.25, 0.9});

    // The radii the passes use, on a grid built from evolved h.
    sph.compute_density(0, sph.size());
    sph.prepare_step();
    double h_max = *std::max_element(sph.smoothing().begin(),
                                     sph.smoothing().end());
    for (int i : queries) {
      for (double radius : {2.0 * sph.smoothing()[i],
                            sph.smoothing()[i] + h_max}) {
        EXPECT_EQ(sph.neighbours_of(i, radius),
                  brute_neighbours(sph, sph.positions()[i], radius))
            << "particle " << i << " radius " << radius;
      }
    }
  }
  {
    // Sites 1/16 apart on [0,1]^3: h = 0.1 would ask for 0.2 cells, so the
    // extent/8 cap binds at exactly 0.125 and every even site lies exactly
    // on a cell face (edges and corners where two or three coincide). The
    // support 2h = 0.2 then spans two cells per side; 1/16 hits neighbours
    // at exactly the radius.
    const int side = 17;
    auto sph = make_gas_lattice(side, 1.0 / 16.0);
    sph.prepare_step();
    reordered += expect_grid_matches_brute(
        sph, lattice_queries(side, {0, 1, 2, 5, 8, 15, 16}),
        {1.0 / 16.0, 0.125, 0.2, 0.3});
  }
  {
    // Sites 0.1 apart: faces at multiples of 0.2 are hit only up to the
    // rounding of the cell division, so sites fall on either side of them.
    const int side = 17;
    auto sph = make_gas_lattice(side, 0.1);
    sph.prepare_step();
    reordered += expect_grid_matches_brute(
        sph, lattice_queries(side, {0, 1, 2, 7, 8, 15, 16}), {0.1, 0.2, 0.35});
  }
  // Cell order differs from index order for most lists, so the exact
  // comparisons above also pin the order the density and force sums use.
  EXPECT_GT(reordered, 100);
}

TEST(Sph, NeighboursBeyondGridCapAreFound) {
  // Two particles 0.05 apart at x = 100 beside a unit ball: 0.2-wide cells
  // would need ~500 cells along x, the grid stops at 128, and build_grid()
  // clamps the pair into the last cell. The search must look there too.
  auto sph = make_gas_ball(200);
  int a = sph.add_particle(1e-3, {100.0, 0.0, 0.0}, {}, 0.05);
  int b = sph.add_particle(1e-3, {100.05, 0.0, 0.0}, {}, 0.05);
  sph.prepare_step();
  EXPECT_EQ(sph.neighbours_of(a, 0.2), (std::vector<int>{a, b}));
  EXPECT_EQ(sph.neighbours_of(b, 0.2), (std::vector<int>{a, b}));
  EXPECT_EQ(sph.neighbours_of(a, 0.01), (std::vector<int>{a}));
  // A radius reaching back into the ball's cells.
  EXPECT_EQ(sph.neighbours_of(a, 99.5),
            brute_neighbours(sph, sph.positions()[a], 99.5));
}

TEST(Sph, DensityListReuseMatchesFreshSearch) {
  // The density pass runs two fixed-point passes; when the support shrinks
  // the second pass filters the first list instead of searching again. A
  // dense clump (h shrinks from its initial 0.1) and a sparse one (h grows)
  // cover both branches. Recompute the first pass by brute force, then
  // check the second pass's density and the neighbour count of both passes.
  SphSystem sph;
  util::Rng rng(5);
  auto dense = amuse::ic::gas_sphere(300, rng, 0.3, 0.15, 0.05);
  auto sparse = amuse::ic::gas_sphere(300, rng, 0.3, 2.0, 0.05);
  for (std::size_t i = 0; i < dense.mass.size(); ++i) {
    sph.add_particle(dense.mass[i], dense.position[i], {}, 0.05);
  }
  for (std::size_t i = 0; i < sparse.mass.size(); ++i) {
    sph.add_particle(sparse.mass[i], sparse.position[i] + Vec3{4.0, 0, 0},
                     {}, 0.05);
  }
  const double h0 = sph.smoothing()[0];
  sph.prepare_step();
  sph.compute_density(0, sph.size());

  const auto& pos = sph.positions();
  const auto& mass = sph.masses();
  auto within = [&](std::size_t i, double radius) {
    std::uint64_t count = 0;
    for (std::size_t j = 0; j < sph.size(); ++j) {
      count += (pos[j] - pos[i]).norm2() <= radius * radius;
    }
    return count;
  };
  int shrank = 0, grew = 0;
  std::uint64_t count_lo = 0, count_hi = 0;
  for (std::size_t i = 0; i < sph.size(); ++i) {
    double rho1 = 0.0;
    for (std::size_t j = 0; j < sph.size(); ++j) {
      rho1 += mass[j] * cubic_spline((pos[j] - pos[i]).norm(), h0);
    }
    double h1 = sph.params().eta_h * std::cbrt(mass[i] / std::max(rho1, 1e-12));
    (h1 < h0 ? shrank : grew) += 1;
    double rho2 = 0.0;
    for (std::size_t j = 0; j < sph.size(); ++j) {
      rho2 += mass[j] * cubic_spline((pos[j] - pos[i]).norm(), h1);
    }
    EXPECT_NEAR(sph.densities()[i], rho2, 1e-9 * rho2) << i;
    // h1 is known here only to rounding: bracket the second list's length.
    std::uint64_t first = within(i, 2.0 * h0);
    count_lo += first + within(i, 2.0 * h1 * (1.0 - 1e-9));
    count_hi += first + within(i, 2.0 * h1 * (1.0 + 1e-9));
  }
  EXPECT_GT(shrank, 100);
  EXPECT_GT(grew, 100);
  EXPECT_GE(sph.neighbour_interactions(), count_lo);
  EXPECT_LE(sph.neighbour_interactions(), count_hi);
}

TEST(Sph, SlicedStepsMatchSerialEvolve) {
  // ParallelSph's phase sequence: one prepare_step() per substep, then 8
  // rank slices each run density, forces and a timestep that is
  // min-reduced before every slice integrates. It must reproduce serial
  // evolve() bit for bit.
  const double t_end = 0.05;
  auto serial = make_gas_ball(600, /*u=*/0.05, /*gravity=*/true);
  serial.evolve(t_end);

  auto sliced = make_gas_ball(600, /*u=*/0.05, /*gravity=*/true);
  const std::size_t n = sliced.size(), ranks = 8;
  const std::size_t per = (n + ranks - 1) / ranks;
  auto lo = [&](std::size_t r) { return std::min(n, per * r); };
  auto hi = [&](std::size_t r) { return std::min(n, per * r + per); };
  double t = sliced.time();
  while (t < t_end - 1e-15) {
    sliced.prepare_step();
    for (std::size_t r = 0; r < ranks; ++r) {
      sliced.compute_density(lo(r), hi(r));
    }
    double dt = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < ranks; ++r) {
      sliced.compute_forces(lo(r), hi(r));
      dt = std::min(dt, sliced.timestep(lo(r), hi(r)));
    }
    dt = std::min(dt, t_end - t);
    for (std::size_t r = 0; r < ranks; ++r) {
      sliced.integrate(lo(r), hi(r), dt);
    }
    t += dt;
    sliced.advance_time(dt);
  }
  sliced.advance_time(t_end - sliced.time());

  EXPECT_EQ(sliced.time(), serial.time());
  EXPECT_EQ(sliced.substeps(), serial.substeps());
  EXPECT_GT(serial.substeps(), 1u);
  EXPECT_EQ(sliced.neighbour_interactions(), serial.neighbour_interactions());
  EXPECT_EQ(sliced.tree_interactions(), serial.tree_interactions());
  auto same_bytes = [](const auto& a, const auto& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(a.front())) == 0;
  };
  EXPECT_TRUE(same_bytes(sliced.positions(), serial.positions()));
  EXPECT_TRUE(same_bytes(sliced.velocities(), serial.velocities()));
  EXPECT_TRUE(same_bytes(sliced.densities(), serial.densities()));
  EXPECT_TRUE(same_bytes(sliced.smoothing(), serial.smoothing()));
}

TEST(Sph, SoundSpeedCacheFollowsStateChanges) {
  // compute_forces() and timestep() share a pressure/sound-speed cache
  // filled once per substep. `warm` fills it before a second density pass;
  // `cold` never had it filled. Both then hold the same state, so every
  // per-particle timestep must agree bit for bit. The gas is hot enough
  // that the CFL term, not dt_max, sets every timestep.
  auto warm = make_gas_ball(300, /*u=*/500.0);
  auto cold = make_gas_ball(300, /*u=*/500.0);
  const std::size_t n = warm.size();
  warm.prepare_step();
  warm.compute_density(0, n);
  warm.compute_forces(0, n);
  (void)warm.timestep(0, n);
  cold.prepare_step();
  cold.compute_density(0, n);
  for (SphSystem* sph : {&warm, &cold}) {
    sph->prepare_step();
    sph->compute_density(0, n);
    sph->compute_forces(0, n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LT(cold.timestep(i, i + 1), cold.params().dt_max) << i;
    ASSERT_EQ(warm.timestep(i, i + 1), cold.timestep(i, i + 1)) << i;
  }

  // Heating a particle after the force pass must not leave it stale.
  warm.inject_energy(7, 5000.0);
  const double gamma = warm.params().gamma;
  const double u = warm.internal_energies()[7];
  const double c = std::sqrt(gamma * (gamma - 1.0) * u);
  const double cfl_dt = warm.params().cfl * warm.smoothing()[7] /
                        (c + warm.velocities()[7].norm() + 1e-12);
  EXPECT_LE(warm.timestep(7, 8), cfl_dt * (1.0 + 1e-12));
  EXPECT_LT(warm.timestep(7, 8), cold.timestep(7, 8));
}

TEST(Sph, ResultsIndependentOfThreadCount) {
  auto run = [&](unsigned lanes) {
    util::ThreadPool pool(lanes);
    auto sph = make_gas_ball(600, /*u=*/0.05, /*gravity=*/true);
    sph.set_thread_pool(&pool);
    sph.evolve(0.05);
    sph.set_thread_pool(nullptr);  // pool dies with this lambda frame
    return sph;
  };
  auto one = run(1);
  auto four_a = run(4);
  auto four_b = run(4);
  ASSERT_EQ(one.size(), four_a.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    // The density/force passes write disjoint per-particle slots in a fixed
    // neighbour order, so any lane count is bit-identical.
    EXPECT_EQ(one.densities()[i], four_a.densities()[i]) << i;
    EXPECT_EQ(one.positions()[i].x, four_a.positions()[i].x) << i;
    EXPECT_EQ(one.velocities()[i].z, four_a.velocities()[i].z) << i;
    EXPECT_EQ(four_a.positions()[i].x, four_b.positions()[i].x) << i;
  }
  EXPECT_EQ(one.neighbour_interactions(), four_a.neighbour_interactions());
  EXPECT_EQ(one.tree_interactions(), four_a.tree_interactions());
}

TEST(Sph, EvolveReachesExactEndTime) {
  auto sph = make_gas_ball(100);
  sph.evolve(0.037);
  EXPECT_DOUBLE_EQ(sph.time(), 0.037);
}

// ------------------------------------------------------------- ic checks

TEST(InitialConditions, PlummerIsVirialised) {
  util::Rng rng(123);
  auto model = amuse::ic::plummer_sphere(2000, rng);
  double kinetic = 0.0;
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    kinetic += 0.5 * model.mass[i] * model.velocity[i].norm2();
  }
  // Standard N-body units: T = 1/4.
  EXPECT_NEAR(kinetic, 0.25, 0.03);
  double total_mass =
      std::accumulate(model.mass.begin(), model.mass.end(), 0.0);
  EXPECT_NEAR(total_mass, 1.0, 1e-12);
}

TEST(InitialConditions, PlummerCentred) {
  util::Rng rng(9);
  auto model = amuse::ic::plummer_sphere(500, rng);
  Vec3 com{};
  for (std::size_t i = 0; i < model.mass.size(); ++i) {
    com += model.mass[i] * model.position[i];
  }
  EXPECT_NEAR(com.norm(), 0.0, 1e-12);
}

TEST(InitialConditions, SalpeterSlopeRoughlyRight) {
  util::Rng rng(77);
  auto masses = amuse::ic::salpeter_masses(20000, rng, 0.3, 25.0);
  // Count ratio across one decade: N(0.3..1)/N(1..10) for alpha=2.35.
  int low = 0, high = 0;
  for (double m : masses) {
    if (m < 1.0) ++low;
    else if (m < 10.0) ++high;
  }
  double ratio = static_cast<double>(low) / std::max(1, high);
  // Analytic ratio ~ (0.3^-1.35 - 1) / (1 - 10^-1.35) ~ 4.3
  EXPECT_NEAR(ratio, 4.3, 1.0);
  for (double m : masses) {
    EXPECT_GE(m, 0.3);
    EXPECT_LE(m, 25.0);
  }
}

TEST(InitialConditions, GasSphereInsideRadius) {
  util::Rng rng(31);
  auto gas = amuse::ic::gas_sphere(1000, rng, 2.0, 3.0);
  double total = std::accumulate(gas.mass.begin(), gas.mass.end(), 0.0);
  EXPECT_NEAR(total, 2.0, 1e-12);
  for (const Vec3& p : gas.position) EXPECT_LE(p.norm(), 3.0 + 1e-12);
}
