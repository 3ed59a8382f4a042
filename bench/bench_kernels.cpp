// E11 — §6.2 kernel claims: GPU variants of a kernel give the same physics
// dramatically faster; tree codes beat direct summation at scale. These are
// *real* wall-clock microbenchmarks of the kernels plus the virtual-cost
// ratios of the CPU/GPU device model. Writes BENCH_kernels.json — the
// SIMD-vs-scalar sweep CI gates against the committed reference
// (tools/check_kernels.py): the vector paths must beat the scalar
// references and stay inside the documented physics tolerance (for
// Hermite: bit-identical). Each row names the ISA and lane count its
// vector path ran at: the run-time dispatched tile for Hermite, the
// compile-time baseline for SPH and BH.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "amuse/ic.hpp"
#include "kernels/bhtree.hpp"
#include "kernels/hermite.hpp"
#include "kernels/hermite_tile.hpp"
#include "kernels/simd.hpp"
#include "kernels/sph.hpp"
#include "kernels/sse.hpp"
#include "sim/network.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace jungle;
using namespace jungle::kernels;

namespace {

// range(1) of the *Threads variants is the pool lane count; the plain
// variants run on an explicit 1-lane pool so the serial baseline is pinned
// regardless of JUNGLE_THREADS. items_per_second is particles advanced (or
// tree queries served) per wall-clock second — the number whose trajectory
// the speedup acceptance tracks.

void HermiteStepWithLanes(benchmark::State& state, unsigned lanes) {
  auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  auto model = amuse::ic::plummer_sphere(n, rng);
  util::ThreadPool pool(lanes);
  HermiteIntegrator nbody;
  nbody.set_thread_pool(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    nbody.add_particle(model.mass[i], model.position[i], model.velocity[i]);
  }
  double t = 0;
  for (auto _ : state) {
    t += 1.0 / 256.0;
    nbody.evolve(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["pairs_per_s"] = benchmark::Counter(
      static_cast<double>(nbody.pair_evaluations()),
      benchmark::Counter::kIsRate);
}

void Kernel_HermiteStep(benchmark::State& state) {
  HermiteStepWithLanes(state, 1);
}

void Kernel_HermiteStepThreads(benchmark::State& state) {
  HermiteStepWithLanes(state, static_cast<unsigned>(state.range(1)));
}

void TreeBuildAndForceWithLanes(benchmark::State& state, unsigned lanes) {
  auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  auto model = amuse::ic::plummer_sphere(n, rng);
  util::ThreadPool pool(lanes);
  std::vector<Vec3> accel(model.position.size());
  for (auto _ : state) {
    BarnesHutTree tree(0.6, 1e-4);
    tree.set_thread_pool(&pool);
    tree.build(model.position, model.mass);
    tree.accel_at(model.position, accel);
    benchmark::DoNotOptimize(accel.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}

void Kernel_TreeBuildAndForce(benchmark::State& state) {
  TreeBuildAndForceWithLanes(state, 1);
}

void Kernel_TreeBuildAndForceThreads(benchmark::State& state) {
  TreeBuildAndForceWithLanes(state, static_cast<unsigned>(state.range(1)));
}

void SphStepWithLanes(benchmark::State& state, unsigned lanes) {
  auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(3);
  auto gas = amuse::ic::gas_sphere(n, rng, 1.0, 1.0);
  util::ThreadPool pool(lanes);
  SphSystem sph;
  sph.set_thread_pool(&pool);
  for (std::size_t i = 0; i < n; ++i) {
    sph.add_particle(gas.mass[i], gas.position[i], gas.velocity[i],
                     gas.internal_energy[i]);
  }
  double t = 0;
  for (auto _ : state) {
    t += 1.0 / 512.0;
    sph.evolve(t);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["ngb_per_s"] = benchmark::Counter(
      static_cast<double>(sph.neighbour_interactions()),
      benchmark::Counter::kIsRate);
}

void Kernel_SphStep(benchmark::State& state) { SphStepWithLanes(state, 1); }

void Kernel_SphStepThreads(benchmark::State& state) {
  SphStepWithLanes(state, static_cast<unsigned>(state.range(1)));
}

void Kernel_SseEvolve(benchmark::State& state) {
  auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(4);
  auto masses = amuse::ic::salpeter_masses(n, rng);
  StellarEvolution se;
  for (double m : masses) se.add_star(m);
  double age = 0;
  for (auto _ : state) {
    age += 1.0;
    se.evolve_to(age);
  }
  state.counters["stars_per_s"] = benchmark::Counter(
      static_cast<double>(n) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

// The device cost model: identical physics, different virtual cost — the
// paper's Multi-Kernel point in one number.
void Kernel_CpuVsGpuCostModel(benchmark::State& state) {
  jungle::sim::Simulation simulation;
  jungle::sim::Network net{simulation};
  jungle::sim::Host& host = net.add_host("desktop", "vu", 4, 0.15);
  host.set_gpu(jungle::sim::GpuSpec{"geforce-9600gt", 4.0});
  double flops = 1e9;
  double cpu_s = host.compute_time(flops, jungle::sim::DeviceKind::cpu, 2);
  double gpu_s = host.compute_time(flops, jungle::sim::DeviceKind::gpu);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cpu_s);
    benchmark::DoNotOptimize(gpu_s);
  }
  state.counters["cpu_virt_s_per_GF"] = cpu_s;
  state.counters["gpu_virt_s_per_GF"] = gpu_s;
  state.counters["gpu_speedup"] = cpu_s / gpu_s;
}

// ---- the SIMD sweep: vector inner loops vs their scalar references ----
// Each kernel runs the identical physics twice — set_simd(true) and
// set_simd(false) — from the same ICs. Wall time is best-of-reps (robust
// against scheduler noise); the deviation is the max relative state
// difference, which only lane reassociation can produce — both Hermite
// vector kernels run the scalar order in every lane, so their deviation
// is 0. Hermite has two rows, one per force path: hermite_jblock runs on a
// 2-lane pool, which engages the tiled path at N = 1024 (its source order
// is fixed per row regardless of lane count, so the comparison stays
// deterministic); hermite_symmetric runs the fault-sweep's 128-body model
// on a 1-lane pool, the sequential symmetric path.

struct SimdRow {
  std::string name;
  std::string isa;       // ISA the vector path ran at
  std::size_t lanes;
  double scalar_ms;
  double simd_ms;
  double speedup;        // scalar / simd wall time
  double max_rel_dev;    // physics deviation of the vector path
};

double rel_dev(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    double diff = (a[i] - b[i]).norm();
    double scale = b[i].norm() + 1e-12;
    worst = std::max(worst, diff / scale);
  }
  return worst;
}

template <typename Run>
double best_of_ms(Run run, int reps = 3) {
  double best = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    auto start = std::chrono::steady_clock::now();
    run();
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    best = std::min(best, ms);
  }
  return best;
}

SimdRow sweep_hermite(const char* name, std::size_t n, unsigned lanes,
                      double t_end) {
  util::Rng rng(21);
  auto model = amuse::ic::plummer_sphere(n, rng);
  util::ThreadPool pool(lanes);
  auto evolve = [&](bool simd, std::vector<Vec3>* out) {
    HermiteIntegrator nbody;
    nbody.set_thread_pool(&pool);
    nbody.set_simd(simd);
    for (std::size_t i = 0; i < n; ++i) {
      nbody.add_particle(model.mass[i], model.position[i],
                         model.velocity[i]);
    }
    nbody.evolve(t_end);
    if (out) *out = nbody.positions();
  };
  std::vector<Vec3> scalar_pos, simd_pos;
  evolve(false, &scalar_pos);
  evolve(true, &simd_pos);
  double scalar_ms = best_of_ms([&] { evolve(false, nullptr); });
  double simd_ms = best_of_ms([&] { evolve(true, nullptr); });
  const hermite_tile::Tile& tile = hermite_tile::dispatched();
  return {name, tile.isa, tile.lanes, scalar_ms, simd_ms,
          scalar_ms / simd_ms, rel_dev(simd_pos, scalar_pos)};
}

SimdRow sweep_sph(std::size_t n) {
  util::Rng rng(22);
  auto gas = amuse::ic::gas_sphere(n, rng, 1.0, 1.0);
  util::ThreadPool pool(1);
  auto evolve = [&](bool simd, std::vector<Vec3>* out) {
    SphSystem sph;
    sph.set_thread_pool(&pool);
    sph.set_simd(simd);
    for (std::size_t i = 0; i < n; ++i) {
      sph.add_particle(gas.mass[i], gas.position[i], gas.velocity[i],
                       gas.internal_energy[i]);
    }
    // Several adaptive substeps: a single step absorbs the ~1-ulp density
    // reassociation below the velocity ulp and reports dev = 0.
    sph.evolve(1.0 / 64.0);
    if (out) *out = sph.positions();
  };
  std::vector<Vec3> scalar_pos, simd_pos;
  evolve(false, &scalar_pos);
  evolve(true, &simd_pos);
  double scalar_ms = best_of_ms([&] { evolve(false, nullptr); });
  double simd_ms = best_of_ms([&] { evolve(true, nullptr); });
  return {"sph_density", simd::kIsa, simd::kWidth, scalar_ms, simd_ms,
          scalar_ms / simd_ms, rel_dev(simd_pos, scalar_pos)};
}

SimdRow sweep_bhtree(std::size_t n) {
  util::Rng rng(23);
  auto model = amuse::ic::plummer_sphere(n, rng);
  util::ThreadPool pool(1);
  std::vector<Vec3> accel(n);
  auto force = [&](bool simd) {
    BarnesHutTree tree(0.6, 1e-4);
    tree.set_thread_pool(&pool);
    tree.set_simd(simd);
    tree.build(model.position, model.mass);
    tree.accel_at(model.position, accel);
  };
  std::vector<Vec3> scalar_acc, simd_acc;
  force(false);
  scalar_acc = accel;
  force(true);
  simd_acc = accel;
  double scalar_ms = best_of_ms([&] { force(false); });
  double simd_ms = best_of_ms([&] { force(true); });
  return {"bhtree_leaf", simd::kIsa, simd::kWidth, scalar_ms, simd_ms,
          scalar_ms / simd_ms, rel_dev(simd_acc, scalar_acc)};
}

}  // namespace

// The SIMD sweep + JSON artifact, printed after the registered benchmarks.
class KernelsReporter : public benchmark::ConsoleReporter {
 public:
  void Finalize() override {
    std::vector<SimdRow> rows;
    rows.push_back(sweep_hermite("hermite_jblock", 1024, 2, 1.0 / 64.0));
    rows.push_back(sweep_hermite("hermite_symmetric", 128, 1, 0.25));
    rows.push_back(sweep_sph(4000));
    rows.push_back(sweep_bhtree(8192));

    std::printf("\n=== SIMD vs scalar reference ===\n");
    for (const SimdRow& row : rows) {
      std::printf("  %-17s %-6s x%zu  scalar=%8.3f ms  simd=%8.3f ms  "
                  "%.2fx  dev=%.3g\n",
                  row.name.c_str(), row.isa.c_str(), row.lanes, row.scalar_ms,
                  row.simd_ms, row.speedup, row.max_rel_dev);
    }

    std::ofstream json("BENCH_kernels.json");
    json << "{\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      json << "    {\"name\": \"" << rows[i].name << "\", \"isa\": \""
           << rows[i].isa << "\", \"lanes\": " << rows[i].lanes
           << ", \"scalar_ms\": " << rows[i].scalar_ms
           << ", \"simd_ms\": " << rows[i].simd_ms
           << ", \"simd_speedup\": " << rows[i].speedup
           << ", \"max_rel_dev\": " << rows[i].max_rel_dev << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("\nwrote BENCH_kernels.json (%zu rows)\n", rows.size());
    benchmark::ConsoleReporter::Finalize();
  }
};

BENCHMARK(Kernel_HermiteStep)->Arg(256)->Arg(1024)->Unit(
    benchmark::kMillisecond);
BENCHMARK(Kernel_HermiteStepThreads)
    ->ArgsProduct({{8192}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(Kernel_TreeBuildAndForce)->Arg(1024)->Arg(8192)->Unit(
    benchmark::kMillisecond);
BENCHMARK(Kernel_TreeBuildAndForceThreads)
    ->ArgsProduct({{8192}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(Kernel_SphStep)->Arg(1000)->Arg(4000)->Unit(
    benchmark::kMillisecond);
BENCHMARK(Kernel_SphStepThreads)
    ->ArgsProduct({{4000}, {1, 2, 4, 8}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(Kernel_SseEvolve)->Arg(10000)->Unit(benchmark::kMillisecond);
BENCHMARK(Kernel_CpuVsGpuCostModel);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  KernelsReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
