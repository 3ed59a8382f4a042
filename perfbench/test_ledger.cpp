// Checks of the benchmark's own statistics: median, quartiles (against the
// values Python's statistics.quantiles gives), interval coverage, self
// time on a hand-built span tree with nested children, and the rule that
// attributes host wall only to kernel serve spans.
//
//   ctest --test-dir .bench_build/perfbench
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace {

int failures = 0;

void check_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-9) {
    std::printf("FAIL %s: got %.12g, want %.12g\n", what, got, want);
    ++failures;
  }
}

using perfbench::Clock;
using perfbench::SpanRecord;

/// Span with both clocks; wall given in seconds.
SpanRecord make_span(std::uint64_t id, std::uint64_t parent,
                     const std::string& category, const std::string& name,
                     double virt_begin, double virt_end, double wall_begin,
                     double wall_end) {
  SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.category = category;
  span.name = name;
  span.sim_begin = virt_begin;
  span.sim_end = virt_end;
  span.wall_begin_ns = static_cast<std::uint64_t>(wall_begin * 1e9 + 0.5);
  span.wall_end_ns = static_cast<std::uint64_t>(wall_end * 1e9 + 0.5);
  return span;
}

void statistics() {
  check_near(perfbench::median({3.0, 1.0, 2.0}), 2.0, "median odd");
  check_near(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5, "median even");

  auto ten = perfbench::quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  check_near(ten.q1, 2.75, "q1 of 1..10");
  check_near(ten.q2, 5.5, "q2 of 1..10");
  check_near(ten.q3, 8.25, "q3 of 1..10");
  auto two = perfbench::quartiles({2.0, 1.0});
  check_near(two.q1, 0.75, "q1 of two");
  check_near(two.q3, 2.25, "q3 of two");
  auto five = perfbench::quartiles({3.0, 1.0, 2.0, 10.0, 4.0});
  check_near(five.q1, 1.5, "q1 of five");
  check_near(five.q2, 3.0, "q2 of five");
  check_near(five.q3, 7.0, "q3 of five");
}

void coverage() {
  using perfbench::Interval;
  // Overlapping pieces count once; pieces are clipped to the outer span.
  check_near(perfbench::covered({{1, 3}, {2, 4}, {6, 12}}, {0, 10}), 7.0,
             "covered overlap+clip");
  check_near(perfbench::covered({{2, 3}, {2.2, 2.8}}, {0, 10}), 1.0,
             "covered nested");
  check_near(perfbench::covered({}, {0, 10}), 0.0, "covered empty");
}

// Two bridge steps of one run. In step 2 the client opens an evolve phase
// with two concurrent RPCs and a bottom cross-kick with one:
//   - grav_evolve serves for 5 wall s and sleeps 3 of them in its kernel
//     charge: 2 s of Hermite host wall;
//   - hydro_evolve waits on MPI ranks and has no kernel child: not
//     attributed, however long its wall;
//   - field_accel_for has two overlapping kernel charges (union 0.5 s) in
//     1.5 s: 1 s of tree host wall;
//   - a serve span with a non-kernel child is not attributed.
// Step 1 mirrors step 2 and must be skipped by the ledger.
std::vector<SpanRecord> two_steps() {
  std::vector<SpanRecord> spans;
  auto add = [&](std::uint64_t id, std::uint64_t parent, const char* cat,
                 const char* name, double vb, double ve, double wb,
                 double we) {
    spans.push_back(make_span(id, parent, cat, name, vb, ve, wb, we));
  };
  add(1, 0, "experiment", "iteration:1", 0, 10, 100, 110);
  add(2, 1, "bridge", "evolve", 0, 10, 100, 110);
  add(3, 2, "rpc", "rpc:grav_evolve", 0, 10, 100, 110);
  add(4, 3, "serve", "grav_evolve", 1, 9, 100, 108);
  add(5, 4, "kernel", "compute", 2, 9, 101, 108);

  add(10, 0, "experiment", "iteration:2", 10, 20, 200, 220);
  add(11, 10, "bridge", "evolve", 10, 18, 200, 216);
  add(12, 11, "rpc", "rpc:grav_evolve", 10, 17, 200, 215);
  add(13, 12, "serve", "grav_evolve", 11, 16, 200, 205);
  add(14, 13, "kernel", "compute", 13, 16, 202, 205);
  add(15, 11, "rpc", "rpc:hydro_evolve", 10, 18, 200, 216);
  add(16, 15, "serve", "hydro_evolve", 10.5, 17.5, 201, 216);
  add(17, 10, "bridge", "cross_kick:bottom", 18, 20, 216, 220);
  add(18, 17, "rpc", "rpc:field_accel_for", 18, 20, 216, 220);
  add(19, 18, "serve", "field_accel_for", 18.5, 19.5, 216, 217.5);
  add(20, 19, "kernel", "compute", 19, 19.5, 217, 217.5);
  add(21, 19, "kernel", "compute", 19.1, 19.3, 217.2, 217.4);
  add(22, 17, "rpc", "rpc:field_accel_for", 18, 19, 216, 218);
  add(23, 22, "serve", "field_accel_for", 18.2, 18.8, 216, 218);
  add(24, 23, "serve", "grav_get_state", 18.3, 18.4, 216.5, 217);
  add(30, 0, "deploy", "spawn:stars", 0, 0.25, 90, 91);
  return spans;
}

void span_tree() {
  auto spans = two_steps();
  perfbench::SpanTree tree(spans);
  auto index_of = [&](std::uint64_t id) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].id == id) return i;
    }
    return spans.size();
  };
  // Nested self time, virtual clock: a step fully covered by its phases
  // has none; an RPC's self time is the wire time around its serve span.
  check_near(tree.self_time(index_of(10), Clock::virt), 0.0,
             "iteration self virt");
  check_near(tree.self_time(index_of(12), Clock::virt), 2.0,
             "rpc self virt");
  check_near(tree.self_time(index_of(11), Clock::virt), 0.0,
             "evolve phase self virt");
  check_near(tree.self_time(index_of(19), Clock::wall), 1.0,
             "serve self wall with nested kernel children");
  check_near(tree.self_time(index_of(14), Clock::virt), 3.0,
             "leaf self = duration");

  check_near(perfbench::attributed_kernel_wall(tree, index_of(13)), 2.0,
             "hermite serve attributed");
  check_near(perfbench::attributed_kernel_wall(tree, index_of(16)), 0.0,
             "serve without kernel child not attributed");
  check_near(perfbench::attributed_kernel_wall(tree, index_of(23)), 0.0,
             "serve with non-kernel child not attributed");
  check_near(perfbench::attributed_kernel_wall(tree, index_of(14)), 0.0,
             "kernel span itself not attributed");

  long step = tree.enclosing(index_of(20), perfbench::is_iteration);
  if (step != static_cast<long>(index_of(10))) {
    std::printf("FAIL enclosing iteration of a kernel span: %ld\n", step);
    ++failures;
  }

  perfbench::Ledger ledger = perfbench::build_ledger(spans);
  if (ledger.iterations != 1) {
    std::printf("FAIL ledger iterations: %d\n", ledger.iterations);
    ++failures;
  }
  check_near(ledger.kernel_wall["hermite"], 2.0, "ledger hermite wall");
  check_near(ledger.kernel_wall["tree"], 1.0, "ledger tree wall");
  check_near(ledger.kernel_wall["sph"], 0.0, "ledger sph wall");
  check_near(ledger.iteration_wall, 20.0, "ledger step wall");
  check_near(ledger.nonkernel_wall(), 17.0, "ledger non-kernel wall");
  check_near(ledger.evolve_virt, 8.0, "ledger evolve virt");
  check_near(ledger.cross_kick_virt, 2.0, "ledger cross-kick virt");
  check_near(ledger.stellar_virt, 0.0, "ledger stellar virt");
  // rpc self virt: grav 7-5=2, hydro 8-7=1, accel_for 2-1=1 and 1-0.6=0.4.
  check_near(ledger.rpc_wire_virt, 4.4, "ledger rpc wire virt");
  if (ledger.rpc_latency_virt.size() != 4) {
    std::printf("FAIL ledger rpc count: %zu\n",
                ledger.rpc_latency_virt.size());
    ++failures;
  } else {
    check_near(perfbench::median(ledger.rpc_latency_virt), 4.5,
               "ledger rpc latency p50");
  }
  check_near(ledger.spawn_virt, 0.25, "ledger spawn virt");
}

}  // namespace

int main() {
  statistics();
  coverage();
  span_tree();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("all ledger checks passed\n");
  return 0;
}
