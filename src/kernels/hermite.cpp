#include "kernels/hermite.hpp"

#include <algorithm>

#include "kernels/hermite_tile.hpp"
#include "util/parallel.hpp"

namespace jungle::kernels {

HermiteIntegrator::HermiteIntegrator() : HermiteIntegrator(Params{}) {}
HermiteIntegrator::HermiteIntegrator(Params params) : params_(params) {}

int HermiteIntegrator::add_particle(double mass, Vec3 position, Vec3 velocity) {
  mass_.push_back(mass);
  pos_.push_back(position);
  vel_.push_back(velocity);
  acc_.push_back({});
  jerk_.push_back({});
  dirty_ = true;
  return static_cast<int>(mass_.size()) - 1;
}

hermite_tile::Sources HermiteIntegrator::load_sources(
    const std::vector<Vec3>& positions, const std::vector<Vec3>& velocities) {
  const std::size_t n = mass_.size();
  for (auto* column : {&sx_, &sy_, &sz_, &svx_, &svy_, &svz_}) {
    column->resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    sx_[i] = positions[i].x;
    sy_[i] = positions[i].y;
    sz_[i] = positions[i].z;
    svx_[i] = velocities[i].x;
    svy_[i] = velocities[i].y;
    svz_[i] = velocities[i].z;
  }
  return {sx_.data(),  sy_.data(),   sz_.data(), svx_.data(), svy_.data(),
          svz_.data(), mass_.data(), n,          params_.eps2};
}

// The scalar symmetric loop below is the bit-exactness reference of the
// vector kernels in hermite_tile.cpp, so it must round like them: no a*b + c
// contracted into an FMA, even when the build flags enable FMA.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
void HermiteIntegrator::compute_forces(const std::vector<Vec3>& positions,
                                       const std::vector<Vec3>& velocities,
                                       std::vector<Vec3>& acc,
                                       std::vector<Vec3>& jerk) {
  const std::size_t n = mass_.size();
  acc.assign(n, {});
  jerk.assign(n, {});
  const std::size_t rlo = owned_lo();
  const std::size_t rhi = owned_hi();
  const bool partial = rlo > 0 || rhi < n;
  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  if (!partial && (n < kParallelThreshold || pool.lanes() == 1)) {
    pairs_ += static_cast<std::uint64_t>(n) * (n - 1) / 2 * 2;  // i-j and j-i
    if (simd_) {
      // The dispatched symmetric kernel: the loop below, W rows per vector,
      // bit for bit (see hermite_tile.hpp).
      const hermite_tile::Sources sources = load_sources(positions, velocities);
      for (auto* row : {&ax_, &ay_, &az_, &jx_, &jy_, &jz_}) row->resize(n);
      hermite_tile::dispatched().symmetric(
          sources, {ax_.data(), ay_.data(), az_.data(), jx_.data(),
                    jy_.data(), jz_.data()});
      for (std::size_t i = 0; i < n; ++i) {
        acc[i] = {ax_[i], ay_[i], az_[i]};
        jerk[i] = {jx_[i], jy_[i], jz_[i]};
      }
      return;
    }
    // Sequential path: Newton's-third-law symmetric update, half the work.
    // The scalar reference (set_simd(false)) of the symmetric kernels.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        Vec3 dr = positions[j] - positions[i];
        Vec3 dv = velocities[j] - velocities[i];
        double r2 = dr.norm2() + params_.eps2;
        double r = std::sqrt(r2);
        double r3 = r2 * r;
        double rv = dr.dot(dv);
        // acc_i += m_j dr / r^3 ; jerk_i += m_j (dv/r^3 - 3 rv dr / r^5)
        double inv_r3 = 1.0 / r3;
        double alpha = 3.0 * rv / r2;
        Vec3 jpart = (dv - alpha * dr) * inv_r3;
        acc[i] += mass_[j] * inv_r3 * dr;
        jerk[i] += mass_[j] * jpart;
        acc[j] -= mass_[i] * inv_r3 * dr;
        jerk[j] -= mass_[i] * jpart;
      }
    }
    return;
  }

  // Tiled path: each row block owns its acc/jerk rows outright (no
  // symmetric write to row j, so no contention), and walks the sources in
  // L1-sized tiles of SoA arrays. For a fixed row the source order is
  // 0..n-1 whatever the lane count or the tile's ISA, so results are
  // independent of both. A sharded integrator restricts the rows to its
  // owned range; the sources always span the full system.
  const hermite_tile::Sources sources = load_sources(positions, velocities);
  const hermite_tile::TileFn tile =
      simd_ ? hermite_tile::dispatched().run : hermite_tile::scalar().run;
  pool.parallel_for(rlo, rhi, hermite_tile::kIBlock,
                    [&](std::size_t lo, std::size_t hi, unsigned /*lane*/) {
                      tile(sources, lo, hi, acc.data(), jerk.data());
                    });
  pairs_ += static_cast<std::uint64_t>(rhi - rlo) * (n - 1);
}
#pragma GCC pop_options

double HermiteIntegrator::shared_timestep() const {
  // Sharded integrators derive the step from their owned rows only (ghost
  // rows carry zero forces); the client-level protocol does not require the
  // shards to agree on dt — each shard advances its owned rows to the same
  // t_end on its own substep sequence.
  double dt = params_.dt_max;
  for (std::size_t i = owned_lo(); i < owned_hi(); ++i) {
    double a = acc_[i].norm();
    double j = jerk_[i].norm();
    if (j > 0.0 && a > 0.0) {
      dt = std::min(dt, params_.eta * a / j);
    }
  }
  return dt;
}

void HermiteIntegrator::evolve(double t_end) {
  const std::size_t n = mass_.size();
  if (n == 0) {
    time_ = t_end;
    return;
  }
  if (dirty_) {
    compute_forces(pos_, vel_, acc_, jerk_);
    dirty_ = false;
  }
  const std::size_t rlo = owned_lo();
  const std::size_t rhi = owned_hi();
  std::vector<Vec3> pred_pos(n), pred_vel(n), new_acc(n), new_jerk(n);
  while (time_ < t_end - 1e-15) {
    double dt = std::min(shared_timestep(), t_end - time_);
    double dt2 = dt * dt / 2.0;
    double dt3 = dt2 * dt / 3.0;
    // Predictor (Taylor expansion to 3rd order in position). Ghost rows of a
    // sharded integrator carry zero acc/jerk, so the same expression drifts
    // them ballistically on their last-exchanged velocity; with the default
    // full owned range the branch below is always the Hermite one and the
    // arithmetic is identical to the unsharded integrator.
    for (std::size_t i = 0; i < n; ++i) {
      pred_pos[i] = pos_[i] + dt * vel_[i] + dt2 * acc_[i] + dt3 * jerk_[i];
      pred_vel[i] = vel_[i] + dt * acc_[i] + dt2 * jerk_[i];
    }
    compute_forces(pred_pos, pred_vel, new_acc, new_jerk);
    // Hermite corrector for owned rows; ghosts keep the drifted prediction.
    for (std::size_t i = 0; i < n; ++i) {
      if (i >= rlo && i < rhi) {
        Vec3 vel_corr = vel_[i] + dt / 2.0 * (acc_[i] + new_acc[i]) +
                        dt * dt / 12.0 * (jerk_[i] - new_jerk[i]);
        Vec3 pos_corr = pos_[i] + dt / 2.0 * (vel_[i] + vel_corr) +
                        dt * dt / 12.0 * (acc_[i] - new_acc[i]);
        pos_[i] = pos_corr;
        vel_[i] = vel_corr;
        acc_[i] = new_acc[i];
        jerk_[i] = new_jerk[i];
      } else {
        pos_[i] = pred_pos[i];
        vel_[i] = pred_vel[i];
      }
    }
    time_ += dt;
    ++substeps_;
  }
  time_ = t_end;
}

double HermiteIntegrator::kinetic_energy() const {
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    energy += 0.5 * mass_[i] * vel_[i].norm2();
  }
  return energy;
}

double HermiteIntegrator::potential_energy() const {
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    for (std::size_t j = i + 1; j < mass_.size(); ++j) {
      double r = std::sqrt((pos_[j] - pos_[i]).norm2() + params_.eps2);
      energy -= mass_[i] * mass_[j] / r;
    }
  }
  return energy;
}

}  // namespace jungle::kernels
