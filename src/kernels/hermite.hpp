#pragma once

#include <cstdint>
#include <vector>

#include "kernels/vec3.hpp"

namespace jungle::util {
class ThreadPool;
}

namespace jungle::kernels {

namespace hermite_tile {
struct Sources;
}

/// Direct-summation gravitational N-body integrator, the phiGRAPE analog
/// (Harfst et al. 2006): 4th-order Hermite predictor-corrector with a
/// shared adaptive timestep and Plummer softening. Works in N-body units
/// (G = 1). O(N^2) per force evaluation — the regime where GRAPE/GPU
/// hardware shines, which is what the E1/E11 experiments exercise.
class HermiteIntegrator {
 public:
  struct Params {
    double eps2 = 1e-4;     // softening^2
    double eta = 0.02;      // accuracy parameter for the shared timestep
    double dt_max = 0.0625; // upper bound on a step
  };

  HermiteIntegrator();
  explicit HermiteIntegrator(Params params);

  /// Returns the particle's index.
  int add_particle(double mass, Vec3 position, Vec3 velocity);
  std::size_t size() const noexcept { return mass_.size(); }

  /// Advance to `t_end` (exactly; the last step is clipped).
  void evolve(double t_end);
  double time() const noexcept { return time_; }

  double kinetic_energy() const;
  double potential_energy() const;

  // Bulk state access (the worker protocol moves arrays, not particles).
  const std::vector<double>& masses() const noexcept { return mass_; }
  const std::vector<Vec3>& positions() const noexcept { return pos_; }
  const std::vector<Vec3>& velocities() const noexcept { return vel_; }
  void set_mass(int index, double mass) { mass_.at(index) = mass; dirty_ = true; }
  void set_position(int index, Vec3 p) { pos_.at(index) = p; dirty_ = true; }
  void set_velocity(int index, Vec3 v) { vel_.at(index) = v; dirty_ = true; }
  /// Force a fresh force evaluation at the next evolve even when no state
  /// changed — the mass-update channel invalidates unconditionally, so the
  /// sparse (delta-compressed) and full-array forms stay bit-identical.
  void invalidate_forces() noexcept { dirty_ = true; }

  /// Velocity kick (bridge coupling applies cross-forces this way).
  void kick(int index, Vec3 delta_v) { vel_.at(index) += delta_v; }

  /// Dynamic state carried across evolve() calls. The corrector stores the
  /// forces it evaluated at the *predicted* positions, which differ from a
  /// fresh evaluation at the corrected state by roundoff — so a restarted
  /// integrator that recomputes forces diverges from one that kept running.
  /// Checkpoint/restore moves these verbatim to keep replay bit-exact.
  const std::vector<Vec3>& accelerations() const noexcept { return acc_; }
  const std::vector<Vec3>& jerks() const noexcept { return jerk_; }

  /// Install checkpointed dynamics: forces as the corrector left them and
  /// the absolute model time. Marks forces clean — the next evolve() resumes
  /// the exact substep sequence the checkpointed integrator would have run.
  void restore_dynamics(std::vector<Vec3> acc, std::vector<Vec3> jerk,
                        double time) {
    acc_ = std::move(acc);
    jerk_ = std::move(jerk);
    time_ = time;
    dirty_ = false;
  }

  Params& params() noexcept { return params_; }

  /// Pool for the parallel force path; nullptr (default) uses
  /// util::ThreadPool::global(). Unsharded systems below kParallelThreshold
  /// bodies (or on a 1-lane pool) take the sequential symmetric-update path,
  /// vectorized like the tiled one unless set_simd(false).
  void set_thread_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }
  static constexpr std::size_t kParallelThreshold = 256;

  /// Vector kernels in both force paths: each lane carries its own target
  /// row (the i-lane layout), at the widest width the CPU supports, chosen
  /// once at run time (AVX2 on x86-64 where available, else the build's
  /// SSE2/NEON baseline). Every lane runs the scalar loop's operation order
  /// — in the sequential symmetric path the mirrored half of each pair is
  /// transposed so that source rows, too, sum in the scalar order — so on
  /// and off give bit-identical forces; off runs the scalar loops, the
  /// references the vector kernels are tested and benched against.
  void set_simd(bool enabled) noexcept { simd_ = enabled; }
  bool simd_enabled() const noexcept { return simd_; }

  /// Domain-decomposed (sharded) operation: this instance holds *all* N
  /// particles but integrates only the owned rows [lo, hi) — forces for
  /// owned i over all j sources, shared timestep from owned rows only.
  /// Ghost rows (everything outside the range) drift ballistically on their
  /// last-exchanged velocity between ghost updates. The default range
  /// covers everything, and a full range takes the exact unsharded code
  /// path — that is what makes a 1-shard model bit-identical to the plain
  /// worker.
  void set_owned_range(std::size_t lo, std::size_t hi) noexcept {
    owned_lo_ = lo;
    owned_hi_ = hi;
    dirty_ = true;
  }
  std::size_t owned_lo() const noexcept {
    return owned_lo_ < mass_.size() ? owned_lo_ : mass_.size();
  }
  std::size_t owned_hi() const noexcept {
    return owned_hi_ < mass_.size() ? owned_hi_ : mass_.size();
  }
  std::size_t owned_count() const noexcept { return owned_hi() - owned_lo(); }
  bool sharded() const noexcept {
    return owned_lo() > 0 || owned_hi() < mass_.size();
  }

  /// Drop all particles and reset the clock/owned range (params and the
  /// cumulative pair/substep meters survive). Used by shard (re)priming:
  /// restore-into-a-shard is reset + add_particles + set_owned_range.
  void clear() {
    mass_.clear();
    pos_.clear();
    vel_.clear();
    acc_.clear();
    jerk_.clear();
    time_ = 0.0;
    dirty_ = true;
    owned_lo_ = 0;
    owned_hi_ = static_cast<std::size_t>(-1);
  }

  /// Pair force evaluations since construction — the honest input to the
  /// compute-cost model (flops = pairs * kFlopsPerPair).
  std::uint64_t pair_evaluations() const noexcept { return pairs_; }
  static constexpr double kFlopsPerPair = 60.0;  // acc + jerk, incl. sqrt

  /// Integrator substeps taken since construction (the adaptive shared-dt
  /// loop inside evolve) — what the scheduler's substep model estimates.
  std::uint64_t substeps() const noexcept { return substeps_; }

 private:
  // Fills the SoA source columns from AoS state.
  hermite_tile::Sources load_sources(const std::vector<Vec3>& positions,
                                     const std::vector<Vec3>& velocities);
  void compute_forces(const std::vector<Vec3>& positions,
                      const std::vector<Vec3>& velocities,
                      std::vector<Vec3>& acc, std::vector<Vec3>& jerk);
  double shared_timestep() const;

  Params params_;
  double time_ = 0.0;
  std::vector<double> mass_;
  std::vector<Vec3> pos_, vel_, acc_, jerk_;
  bool dirty_ = true;  // forces need a fresh evaluation
  bool simd_ = true;
  std::size_t owned_lo_ = 0;
  std::size_t owned_hi_ = static_cast<std::size_t>(-1);
  std::uint64_t pairs_ = 0;
  std::uint64_t substeps_ = 0;
  util::ThreadPool* pool_ = nullptr;
  // SoA scratch reused across steps: the sources of both vector force
  // paths, and the symmetric kernel's per-row sums.
  std::vector<double> sx_, sy_, sz_, svx_, svy_, svz_;
  std::vector<double> ax_, ay_, az_, jx_, jy_, jz_;
};

}  // namespace jungle::kernels
