#pragma once

// Statistics and the per-layer span ledger of the jungle benchmark. Pure
// functions over plain numbers and obs::trace::SpanRecord lists, so
// test_ledger.cpp can check them on hand-built inputs.
//
// Wall-clock attribution. Every simulated process is a real thread, and
// exactly one holds the scheduler baton at a time, so the wall interval of
// a span that blocks (waits for a reply, sleeps in virtual time) also
// covers whatever other processes ran meanwhile. Overlapping wall spans
// therefore cannot be subtracted from one another. The one interval known
// to belong to a single process is the self time of a worker's `serve`
// span whose only children are `kernel` spans: the dispatcher computes
// without yielding, and the `kernel` child brackets Host::compute, the
// virtual-time charge during which *other* processes hold the baton. So
// the kernel's host wall is the serve span's wall minus its kernel
// children's wall, and the kernel span's own wall is attributed to no
// layer. Everything else in a step is reported as non-kernel host time.
// A serve span with no kernel child is not attributed either: gadget's
// MPI-parallel SPH (nranks > 1) charges each rank without a span and waits
// on its ranks inside the serve interval, so its work lands in
// host.nonkernel.wall_s.

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/trace.hpp"

namespace perfbench {

using SpanRecord = jungle::obs::trace::SpanRecord;

/// Median of `values` (mean of the middle two for an even count).
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no values");
  std::sort(values.begin(), values.end());
  std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default 'exclusive' method), so the spreads this program prints
/// match the ones computed over its JSON output. Needs two values.
inline Quartiles quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two values");
  }
  std::sort(values.begin(), values.end());
  const long count = static_cast<long>(values.size());
  const long m = count + 1;
  const long n = 4;
  double cut[3];
  for (long i = 1; i < n; ++i) {
    long j = std::clamp(i * m / n, 1L, count - 1);
    long delta = i * m - j * n;
    cut[i - 1] = (values[static_cast<std::size_t>(j - 1)] *
                      static_cast<double>(n - delta) +
                  values[static_cast<std::size_t>(j)] *
                      static_cast<double>(delta)) /
                 static_cast<double>(n);
  }
  return Quartiles{cut[0], cut[1], cut[2]};
}

struct Interval {
  double begin = 0.0;
  double end = 0.0;
};

/// Length of the part of `outer` that the union of `inner` covers.
inline double covered(std::vector<Interval> inner, Interval outer) {
  for (Interval& piece : inner) {
    piece.begin = std::max(piece.begin, outer.begin);
    piece.end = std::min(piece.end, outer.end);
  }
  std::sort(inner.begin(), inner.end(),
            [](const Interval& a, const Interval& b) {
              return a.begin < b.begin;
            });
  double total = 0.0;
  double reach = outer.begin;
  for (const Interval& piece : inner) {
    if (piece.end <= piece.begin) continue;
    double from = std::max(piece.begin, reach);
    if (piece.end > from) {
      total += piece.end - from;
      reach = piece.end;
    }
  }
  return total;
}

enum class Clock { virt, wall };

inline Interval interval(const SpanRecord& span, Clock clock) {
  if (clock == Clock::virt) return Interval{span.sim_begin, span.sim_end};
  return Interval{static_cast<double>(span.wall_begin_ns) * 1e-9,
                  static_cast<double>(span.wall_end_ns) * 1e-9};
}

inline double duration(const SpanRecord& span, Clock clock) {
  Interval range = interval(span, clock);
  return range.end - range.begin;
}

/// Parent/child index over one snapshot of recorded spans.
class SpanTree {
 public:
  explicit SpanTree(const std::vector<SpanRecord>& spans) : spans_(&spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) by_id_[spans[i].id] = i;
    children_.resize(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
      auto parent = by_id_.find(spans[i].parent);
      if (parent != by_id_.end()) children_[parent->second].push_back(i);
    }
  }

  const SpanRecord& at(std::size_t index) const { return (*spans_)[index]; }
  std::size_t size() const noexcept { return spans_->size(); }
  const std::vector<std::size_t>& children(std::size_t index) const {
    return children_[index];
  }

  /// A span's duration minus the part of it its children cover.
  double self_time(std::size_t index, Clock clock) const {
    std::vector<Interval> inner;
    for (std::size_t child : children_[index]) {
      inner.push_back(interval(at(child), clock));
    }
    return duration(at(index), clock) -
           covered(std::move(inner), interval(at(index), clock));
  }

  /// Index of the nearest ancestor (or the span itself) that `match`
  /// accepts; -1 when there is none.
  template <typename Match>
  long enclosing(std::size_t index, Match match) const {
    std::size_t guard = 0;
    long at_index = static_cast<long>(index);
    while (at_index >= 0 && guard++ <= spans_->size()) {
      const SpanRecord& span = at(static_cast<std::size_t>(at_index));
      if (match(span)) return at_index;
      auto parent = by_id_.find(span.parent);
      at_index = parent == by_id_.end() ? -1
                                        : static_cast<long>(parent->second);
    }
    return -1;
  }

 private:
  const std::vector<SpanRecord>* spans_;
  std::unordered_map<std::uint64_t, std::size_t> by_id_;
  std::vector<std::vector<std::size_t>> children_;
};

/// Host wall a worker's kernel took inside one `serve` span: the serve
/// span's wall minus its `kernel` children, when it has at least one child
/// and every child is a `kernel` span; otherwise 0 (see the file comment).
inline double attributed_kernel_wall(const SpanTree& tree, std::size_t serve) {
  const auto& kids = tree.children(serve);
  if (kids.empty()) return 0.0;
  for (std::size_t child : kids) {
    if (tree.at(child).category != "kernel") return 0.0;
  }
  return tree.self_time(serve, Clock::wall);
}

/// Which kernel a serving function runs.
inline const std::map<std::string, std::string>& kernel_of_serve() {
  static const std::map<std::string, std::string> table = {
      {"grav_evolve", "hermite"},
      {"field_accel_for", "tree"},
      {"hydro_evolve", "sph"},
  };
  return table;
}

/// Totals over the bridge iterations of one or more traced runs, skipping
/// each run's first iteration (its evolve primes every kernel's forces).
struct Ledger {
  int iterations = 0;
  std::map<std::string, double> kernel_wall;  // hermite / tree / sph
  double iteration_wall = 0.0;                // client-side step wall
  double evolve_virt = 0.0;
  double cross_kick_virt = 0.0;
  double stellar_virt = 0.0;
  double rpc_wire_virt = 0.0;  // client rpc span minus its serve child
  std::vector<double> rpc_latency_virt;  // one per client rpc span
  double spawn_virt = 0.0;               // all deploy spawn spans

  double kernel_wall_total() const {
    double total = 0.0;
    for (const auto& [name, wall] : kernel_wall) total += wall;
    return total;
  }
  /// Step wall that no kernel serve span accounts for.
  double nonkernel_wall() const { return iteration_wall - kernel_wall_total(); }
};

inline bool is_iteration(const SpanRecord& span) {
  return span.category == "experiment" &&
         span.name.rfind("iteration:", 0) == 0;
}

inline Ledger build_ledger(const std::vector<SpanRecord>& spans) {
  SpanTree tree(spans);
  Ledger ledger;
  for (const auto& [serve, kernel] : kernel_of_serve()) {
    ledger.kernel_wall[kernel] = 0.0;
  }
  auto steady = [&](std::size_t index) {
    long step = tree.enclosing(index, is_iteration);
    return step >= 0 &&
           tree.at(static_cast<std::size_t>(step)).name != "iteration:1";
  };
  for (std::size_t i = 0; i < tree.size(); ++i) {
    const SpanRecord& span = tree.at(i);
    if (span.category == "deploy" && span.name.rfind("spawn:", 0) == 0) {
      ledger.spawn_virt += duration(span, Clock::virt);
      continue;
    }
    if (!steady(i)) continue;
    if (is_iteration(span)) {
      ++ledger.iterations;
      ledger.iteration_wall += duration(span, Clock::wall);
    } else if (span.category == "bridge") {
      if (span.name == "evolve") {
        ledger.evolve_virt += duration(span, Clock::virt);
      } else if (span.name.rfind("cross_kick:", 0) == 0) {
        ledger.cross_kick_virt += duration(span, Clock::virt);
      } else if (span.name == "stellar_update") {
        ledger.stellar_virt += duration(span, Clock::virt);
      }
    } else if (span.category == "rpc") {
      ledger.rpc_wire_virt += tree.self_time(i, Clock::virt);
      ledger.rpc_latency_virt.push_back(duration(span, Clock::virt));
    } else if (span.category == "serve") {
      auto kernel = kernel_of_serve().find(span.name);
      if (kernel != kernel_of_serve().end()) {
        ledger.kernel_wall[kernel->second] += attributed_kernel_wall(tree, i);
      }
    }
  }
  return ledger;
}

}  // namespace perfbench
