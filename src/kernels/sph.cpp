#include "kernels/sph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "kernels/simd.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace jungle::kernels {

namespace {
constexpr double kPi = 3.14159265358979323846;

// Gather buffers for the vectorized density pass (neighbour positions and
// masses as SoA lanes). Thread-local so the parallel density pass needs no
// per-call allocation and no sharing.
thread_local std::vector<double> tl_gx, tl_gy, tl_gz, tl_gm;
}

SphSystem::SphSystem() : SphSystem(Params{}) {}
SphSystem::SphSystem(Params params) : params_(params) {}

int SphSystem::add_particle(double mass, Vec3 position, Vec3 velocity,
                            double internal_energy) {
  mass_.push_back(mass);
  pos_.push_back(position);
  vel_.push_back(velocity);
  acc_.push_back({});
  // Entropy from u: u = A rho^(gamma-1) / (gamma-1); rho is unknown until
  // the first density pass, so stash u and convert lazily with rho=1; the
  // first prepare/density/convert cycle fixes the scale consistently
  // because we recompute A from u after the first density pass.
  entropy_.push_back(internal_energy * (params_.gamma - 1.0));
  pending_u_.push_back(internal_energy);
  h_.push_back(0.1);
  rho_.push_back(1.0);
  eos_current_ = false;
  return static_cast<int>(mass_.size()) - 1;
}

double SphSystem::kernel_w(double r, double h) const {
  // Cubic spline (Monaghan & Lattanzio 1985), support 2h, 3D normalization.
  double q = r / h;
  double sigma = 1.0 / (kPi * h * h * h);
  if (q < 1.0) {
    return sigma * (1.0 - 1.5 * q * q + 0.75 * q * q * q);
  }
  if (q < 2.0) {
    double t = 2.0 - q;
    return sigma * 0.25 * t * t * t;
  }
  return 0.0;
}

double SphSystem::kernel_dw(double r, double h) const {
  double q = r / h;
  double sigma = 1.0 / (kPi * h * h * h * h);
  if (q < 1.0) {
    return sigma * (-3.0 * q + 2.25 * q * q);
  }
  if (q < 2.0) {
    double t = 2.0 - q;
    return sigma * (-0.75 * t * t);
  }
  return 0.0;
}

void SphSystem::build_grid() {
  const std::size_t n = mass_.size();
  if (n == 0) return;
  // Cell size is the largest support radius (2 h_max) unless the extent cap
  // below binds; neighbours() visits only the cells a query can reach.
  double h_max = 0.0;
  for (double h : h_) h_max = std::max(h_max, h);
  Vec3 lo = pos_[0], hi = pos_[0];
  for (const Vec3& p : pos_) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  }
  // A single runaway h (an ejected isolated particle whose rho floors and h
  // inflates) must not collapse the whole grid to one cell and turn every
  // query O(N): cap the cell at 1/8 of the largest extent, so the grid
  // keeps at least 8 cells per axis. Queries wider than a cell still see
  // every neighbour: neighbours() spans as many cells as the radius needs.
  double max_extent =
      std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 8e-6});
  cell_size_ = std::max(1e-6, std::min(2.0 * h_max, max_extent / 8.0));
  grid_origin_ = lo;
  for (int d = 0; d < 3; ++d) {
    double extent = d == 0 ? hi.x - lo.x : d == 1 ? hi.y - lo.y : hi.z - lo.z;
    grid_dim_[d] =
        std::max(1, std::min(128, static_cast<int>(extent / cell_size_) + 1));
  }
  // Counting sort into a CSR layout: one pass to count, one to place.
  std::size_t ncells = static_cast<std::size_t>(grid_dim_[0]) * grid_dim_[1] *
                       grid_dim_[2];
  cell_start_.assign(ncells + 1, 0);
  for (const Vec3& p : pos_) ++cell_start_[grid_cell(p) + 1];
  for (std::size_t c = 0; c < ncells; ++c) cell_start_[c + 1] += cell_start_[c];
  cell_items_.resize(n);
  cell_pos_.resize(n);
  std::vector<std::int32_t> cursor(cell_start_.begin(), cell_start_.end() - 1);
  for (int i = 0; i < static_cast<int>(n); ++i) {
    std::int32_t slot = cursor[grid_cell(pos_[i])]++;
    cell_items_[slot] = i;
    cell_pos_[slot] = pos_[i];
  }
}

std::size_t SphSystem::grid_cell(const Vec3& p) const {
  int cx = std::min(grid_dim_[0] - 1,
                    std::max(0, static_cast<int>((p.x - grid_origin_.x) /
                                                 cell_size_)));
  int cy = std::min(grid_dim_[1] - 1,
                    std::max(0, static_cast<int>((p.y - grid_origin_.y) /
                                                 cell_size_)));
  int cz = std::min(grid_dim_[2] - 1,
                    std::max(0, static_cast<int>((p.z - grid_origin_.z) /
                                                 cell_size_)));
  return (static_cast<std::size_t>(cz) * grid_dim_[1] + cy) * grid_dim_[0] +
         cx;
}

void SphSystem::neighbours(const Vec3& p, double radius,
                           std::vector<int>& out) const {
  // Work in cell units: u is the query's grid coordinate, as grid_cell()
  // computes it. `reach` pads the radius by far more than the rounding of
  // these divisions, so every bound below is conservative: a cell is
  // skipped only if its box lies wholly beyond the radius. Edge cells are
  // open-ended because build_grid() clamps outlying particles into them.
  const double u[3] = {(p.x - grid_origin_.x) / cell_size_,
                       (p.y - grid_origin_.y) / cell_size_,
                       (p.z - grid_origin_.z) / cell_size_};
  const double rc = radius / cell_size_;
  const double reach =
      rc + 1e-9 * (1.0 + rc +
                   std::max({std::abs(u[0]), std::abs(u[1]), std::abs(u[2])}));
  const double reach2 = reach * reach;
  int first[3], last[3];
  for (int d = 0; d < 3; ++d) {
    const double top = grid_dim_[d] - 1;
    first[d] =
        static_cast<int>(std::clamp(std::floor(u[d] - reach), 0.0, top));
    last[d] =
        static_cast<int>(std::clamp(std::floor(u[d] + reach), 0.0, top));
  }
  // Distance from the query to cell c's slab along axis d (0 inside it).
  auto gap = [&](int d, int c) {
    double below = c > 0 ? c - u[d] : 0.0;
    double above = c < grid_dim_[d] - 1 ? u[d] - (c + 1) : 0.0;
    return std::max({0.0, below, above});
  };
  // Cells in ascending index order, particles in CSR (ascending index)
  // order within a cell: the density and force sums depend on this order.
  const double r2 = radius * radius;
  std::size_t m = out.size();
  for (int z = first[2]; z <= last[2]; ++z) {
    const double gz = gap(2, z);
    for (int y = first[1]; y <= last[1]; ++y) {
      const double gy = gap(1, y);
      const double gzy2 = gz * gz + gy * gy;
      if (gzy2 > reach2) continue;
      for (int x = first[0]; x <= last[0]; ++x) {
        const double gx = gap(0, x);
        if (gzy2 + gx * gx > reach2) continue;
        const std::size_t cell =
            (static_cast<std::size_t>(z) * grid_dim_[1] + y) * grid_dim_[0] +
            x;
        const std::int32_t begin = cell_start_[cell];
        const std::int32_t end = cell_start_[cell + 1];
        if (out.size() < m + (end - begin)) out.resize(m + (end - begin));
        int* dst = out.data();
        // Branch-free append: always write, advance only on a hit.
        for (std::int32_t k = begin; k < end; ++k) {
          const double dx = cell_pos_[k].x - p.x;
          const double dy = cell_pos_[k].y - p.y;
          const double dz = cell_pos_[k].z - p.z;
          dst[m] = cell_items_[k];
          m += dx * dx + dy * dy + dz * dz <= r2;
        }
      }
    }
  }
  out.resize(m);
}

std::vector<int> SphSystem::neighbours_of(int i, double radius) const {
  std::vector<int> found;
  neighbours(pos_.at(i), radius, found);
  return found;
}

util::ThreadPool& SphSystem::resolve_pool() const {
  return pool_ ? *pool_ : util::ThreadPool::global();
}

void SphSystem::prepare_step() {
  ++substeps_;
  eos_current_ = false;
  build_grid();
  if (params_.self_gravity) {
    tree_ = BarnesHutTree(params_.theta, params_.eps2);
    tree_.set_thread_pool(pool_);
    tree_.build(pos_, mass_);
  }
}

void SphSystem::density_at(std::size_t i, std::vector<int>& scratch,
                           std::uint64_t& ngb) {
  // Fixed-point iteration coupling h and rho: h = eta (m/rho)^{1/3}.
  double searched = 0.0;
  for (int iteration = 0; iteration < 2; ++iteration) {
    double rho = 0.0;
    const double radius = 2.0 * h_[i];
    if (iteration > 0 && radius <= searched) {
      // The support shrank: the new list is the old one minus the particles
      // beyond the new radius, in the same order. Filter with the search's
      // own test instead of searching again.
      const double r2 = radius * radius;
      std::size_t kept = 0;
      for (int j : scratch) {
        const double dx = pos_[j].x - pos_[i].x;
        const double dy = pos_[j].y - pos_[i].y;
        const double dz = pos_[j].z - pos_[i].z;
        scratch[kept] = j;
        kept += dx * dx + dy * dy + dz * dz <= r2;
      }
      scratch.resize(kept);
    } else {
      scratch.clear();
      neighbours(pos_[i], radius, scratch);
      searched = radius;
    }
    ngb += scratch.size();
    const std::size_t m = scratch.size();
    std::size_t k = 0;
    // The gather (4 SoA copies per neighbour) only pays for itself once the
    // list is a few vectors long; short lists stay on the scalar loop.
    constexpr std::size_t kGatherMin = 4 * simd::kWidth;
    if (simd_ && simd::kWidth > 1 && m >= kGatherMin) {
      // Gather the neighbour SoA, then evaluate the cubic spline on whole
      // lanes with the piecewise branches folded into bitwise selects. The
      // per-lane arithmetic mirrors kernel_w() exactly; only the summation
      // order across neighbours differs from the scalar loop.
      using sd = simd::Native;
      constexpr std::size_t W = sd::kWidth;
      tl_gx.resize(m);
      tl_gy.resize(m);
      tl_gz.resize(m);
      tl_gm.resize(m);
      for (std::size_t g = 0; g < m; ++g) {
        int j = scratch[g];
        tl_gx[g] = pos_[j].x;
        tl_gy[g] = pos_[j].y;
        tl_gz[g] = pos_[j].z;
        tl_gm[g] = mass_[j];
      }
      const double h = h_[i];
      const sd::VecD px = sd::set1(pos_[i].x), py = sd::set1(pos_[i].y),
                     pz = sd::set1(pos_[i].z);
      const sd::VecD inv_h = sd::set1(1.0 / h);
      const sd::VecD sigma = sd::set1(1.0 / (kPi * h * h * h));
      const sd::VecD onev = sd::set1(1.0), twov = sd::set1(2.0);
      const sd::VecD c15 = sd::set1(1.5), c075 = sd::set1(0.75),
                     c025 = sd::set1(0.25);
      const sd::VecD zerov = sd::zero();
      sd::VecD rhov = sd::zero();
      for (; k + W <= m; k += W) {
        sd::VecD dx = sd::load(&tl_gx[k]) - px;
        sd::VecD dy = sd::load(&tl_gy[k]) - py;
        sd::VecD dz = sd::load(&tl_gz[k]) - pz;
        sd::VecD r = sd::sqrt(dx * dx + dy * dy + dz * dz);
        sd::VecD q = r * inv_h;
        sd::VecD q2 = q * q;
        sd::VecD inner = sigma * (onev - c15 * q2 + c075 * q2 * q);
        sd::VecD t = twov - q;
        sd::VecD outer = sigma * c025 * t * t * t;
        sd::VecD w = sd::select(sd::less(q, onev), inner,
                                sd::select(sd::less(q, twov), outer, zerov));
        rhov = rhov + sd::load(&tl_gm[k]) * w;
      }
      rho += sd::hsum(rhov);
      for (; k < m; ++k) {
        int j = scratch[k];
        double r = (pos_[j] - pos_[i]).norm();
        rho += mass_[j] * kernel_w(r, h_[i]);
      }
    } else {
      for (int j : scratch) {
        double r = (pos_[j] - pos_[i]).norm();
        rho += mass_[j] * kernel_w(r, h_[i]);
      }
    }
    rho_[i] = std::max(rho, 1e-12);
    h_[i] = params_.eta_h * std::cbrt(mass_[i] / rho_[i]);
  }
  if (!pending_u_.empty() && pending_u_[i] >= 0.0) {
    // First density known: fix the entropy constant from the stored u.
    entropy_[i] = pending_u_[i] * (params_.gamma - 1.0) /
                  std::pow(rho_[i], params_.gamma - 1.0);
    pending_u_[i] = -1.0;
  }
}

void SphSystem::compute_density(std::size_t lo, std::size_t hi) {
  eos_current_ = false;
  util::ThreadPool& pool = resolve_pool();
  util::PerLane<std::vector<int>> scratch(pool);
  util::PerLane<std::uint64_t> counts(pool, 0);
  // Each particle writes only its own rho/h/entropy slots, so the pass is
  // thread-count independent.
  pool.parallel_for(lo, hi, 16,
                    [&](std::size_t a, std::size_t b, unsigned lane) {
                      for (std::size_t i = a; i < b; ++i) {
                        density_at(i, scratch[lane], counts[lane]);
                      }
                    });
  counts.for_each([&](std::uint64_t c) { ngb_count_ += c; });
}

void SphSystem::force_at(std::size_t i, double h_max,
                         std::vector<int>& scratch, std::uint64_t& ngb,
                         std::uint64_t& tree) {
  Vec3 accel{};
  double p_i = pressure_[i];
  double c_i = csound_[i];
  scratch.clear();
  // Symmetric pair rule: i and j interact iff r < h_i + h_j (the support
  // of W(r, h_mean)). Using 2 h_i here would drop one direction of a pair
  // with unequal h and break momentum conservation; the search radius must
  // therefore reach out to h_i + max_j h_j.
  neighbours(pos_[i], h_[i] + h_max, scratch);
  ngb += scratch.size();
  for (int j : scratch) {
    if (j == static_cast<int>(i)) continue;
    Vec3 dr = pos_[i] - pos_[j];
    double r = dr.norm();
    if (r <= 0.0) continue;
    if (r >= 0.5 * (h_[i] + h_[j]) * 2.0) continue;  // outside W support
    double p_j = pressure_[j];
    double h_mean = 0.5 * (h_[i] + h_[j]);
    double dw = kernel_dw(r, h_mean);
    // Artificial viscosity (Monaghan 1992).
    Vec3 dv = vel_[i] - vel_[j];
    double visc = 0.0;
    double rv = dv.dot(dr);
    if (rv < 0.0) {
      double c_j = csound_[j];
      double mu = h_mean * rv / (r * r + 0.01 * h_mean * h_mean);
      double rho_mean = 0.5 * (rho_[i] + rho_[j]);
      visc = (-params_.alpha_visc * 0.5 * (c_i + c_j) * mu +
              params_.beta_visc * mu * mu) /
             rho_mean;
    }
    double term = p_i / (rho_[i] * rho_[i]) + p_j / (rho_[j] * rho_[j]) +
                  visc;
    accel -= mass_[j] * term * dw * (1.0 / r) * dr;
  }
  if (params_.self_gravity) {
    accel += tree_.accel_at(pos_[i], tree);
  }
  acc_[i] = accel;
}

void SphSystem::update_eos() {
  if (eos_current_) return;
  // Hoist pressure and sound speed out of the pair loop: they depend only
  // on per-particle entropy/density, which are fixed for the whole force
  // pass, and the pow() per pair dominated the non-neighbour-search cost.
  // Full-range fill — the pair rule reaches neighbours outside [lo, hi) —
  // done once per substep however many slices the passes are split into.
  const double gamma = params_.gamma;
  const std::size_t n = mass_.size();
  pressure_.resize(n);
  csound_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    pressure_[j] = entropy_[j] * std::pow(rho_[j], gamma);
    csound_[j] = std::sqrt(gamma * pressure_[j] / rho_[j]);
  }
  eos_current_ = true;
}

void SphSystem::compute_forces(std::size_t lo, std::size_t hi) {
  double h_max = 0.0;
  for (double h : h_) h_max = std::max(h_max, h);
  update_eos();
  util::ThreadPool& pool = resolve_pool();
  util::PerLane<std::vector<int>> scratch(pool);
  util::PerLane<std::uint64_t> ngb(pool, 0);
  util::PerLane<std::uint64_t> tree(pool, 0);
  pool.parallel_for(lo, hi, 16,
                    [&](std::size_t a, std::size_t b, unsigned lane) {
                      for (std::size_t i = a; i < b; ++i) {
                        force_at(i, h_max, scratch[lane], ngb[lane],
                                 tree[lane]);
                      }
                    });
  ngb.for_each([&](std::uint64_t c) { ngb_count_ += c; });
  tree.for_each([&](std::uint64_t c) { tree_count_ += c; });
}

double SphSystem::timestep(std::size_t lo, std::size_t hi) {
  update_eos();
  double dt = params_.dt_max;
  for (std::size_t i = lo; i < hi; ++i) {
    double c_i = csound_[i];
    double v = vel_[i].norm();
    dt = std::min(dt, params_.cfl * h_[i] / (c_i + v + 1e-12));
    double a = acc_[i].norm();
    if (a > 0) dt = std::min(dt, 0.25 * std::sqrt(h_[i] / a));
  }
  return dt;
}

void SphSystem::integrate(std::size_t lo, std::size_t hi, double dt) {
  for (std::size_t i = lo; i < hi; ++i) {
    vel_[i] += acc_[i] * dt;
    pos_[i] += vel_[i] * dt;
  }
}

void SphSystem::evolve(double t_end) {
  if (mass_.empty()) {
    time_ = t_end;
    return;
  }
  while (time_ < t_end - 1e-15) {
    prepare_step();
    compute_density(0, size());
    compute_forces(0, size());
    double dt = std::min(timestep(0, size()), t_end - time_);
    integrate(0, size(), dt);
    time_ += dt;
  }
  time_ = t_end;
}

void SphSystem::inject_energy(int index, double delta_internal_energy) {
  eos_current_ = false;
  if (pending_u_.at(index) >= 0.0) {
    // Density not known yet: fold into the pending internal energy so the
    // first density pass converts the sum consistently.
    pending_u_[index] += delta_internal_energy;
    return;
  }
  // u = A rho^(gamma-1)/(gamma-1)  =>  dA = du (gamma-1) / rho^(gamma-1)
  entropy_.at(index) += delta_internal_energy * (params_.gamma - 1.0) /
                        std::pow(rho_.at(index), params_.gamma - 1.0);
}

std::vector<double> SphSystem::internal_energies() const {
  std::vector<double> result(mass_.size());
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    result[i] = entropy_[i] * std::pow(rho_[i], params_.gamma - 1.0) /
                (params_.gamma - 1.0);
  }
  return result;
}

double SphSystem::kinetic_energy() const {
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    energy += 0.5 * mass_[i] * vel_[i].norm2();
  }
  return energy;
}

double SphSystem::thermal_energy() const {
  double energy = 0.0;
  auto u = internal_energies();
  for (std::size_t i = 0; i < mass_.size(); ++i) energy += mass_[i] * u[i];
  return energy;
}

double SphSystem::potential_energy() const {
  // Tree-based estimate, adequate for diagnostics.
  BarnesHutTree tree(params_.theta, params_.eps2);
  tree.set_thread_pool(pool_);
  tree.build(pos_, mass_);
  std::vector<double> phi(mass_.size());
  tree.potential_at(pos_, phi);
  double energy = 0.0;
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    energy += 0.5 * mass_[i] * phi[i];
  }
  return energy;
}

}  // namespace jungle::kernels
