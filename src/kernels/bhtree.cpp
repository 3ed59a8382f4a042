#include "kernels/bhtree.hpp"

#include <algorithm>

#include "kernels/simd.hpp"
#include "util/parallel.hpp"

namespace jungle::kernels {

namespace {

constexpr int kMaxDepth = 48;

// Mutable octree used only during build; the traversal structures are
// packed from it afterwards. Bodies of a leaf live on an intrusive chain
// through `next` so inserting is allocation-free.
struct Builder {
  struct Node {
    Vec3 center;
    double half = 0.0;
    int children[8] = {-1, -1, -1, -1, -1, -1, -1, -1};
    int head = -1;  // first body of the leaf chain
    int count = 0;  // bodies on the chain
    bool leaf = true;
    double mass = 0.0;
    Vec3 com;
  };

  std::span<const Vec3> pos;
  std::span<const double> mass;
  std::vector<Node> nodes;
  std::vector<int> next;  // body chain links

  int child_slot(const Node& node, const Vec3& p) const {
    int slot = 0;
    if (p.x >= node.center.x) slot |= 1;
    if (p.y >= node.center.y) slot |= 2;
    if (p.z >= node.center.z) slot |= 4;
    return slot;
  }

  int make_child(int node_index, int slot) {
    Node child;
    const Node& parent = nodes[node_index];
    double quarter = parent.half / 2.0;
    child.center = parent.center;
    child.center.x += (slot & 1) ? quarter : -quarter;
    child.center.y += (slot & 2) ? quarter : -quarter;
    child.center.z += (slot & 4) ? quarter : -quarter;
    child.half = quarter;
    nodes.push_back(child);
    int index = static_cast<int>(nodes.size()) - 1;
    nodes[node_index].children[slot] = index;
    return index;
  }

  void insert(int node_index, int body, int depth) {
    if (nodes[node_index].leaf) {
      Node& node = nodes[node_index];
      // Past kMaxDepth the leaf absorbs everything — coincident (or
      // near-coincident) bodies simply extend the body list and stay exact.
      if (node.count < BarnesHutTree::kLeafCapacity || depth >= kMaxDepth) {
        next[body] = node.head;
        node.head = body;
        ++node.count;
        return;
      }
      // Split: push the resident bodies one level down, then fall through.
      int chain = node.head;
      node.head = -1;
      node.count = 0;
      node.leaf = false;
      while (chain >= 0) {
        int following = next[chain];
        int slot = child_slot(nodes[node_index], pos[chain]);
        int child = nodes[node_index].children[slot] >= 0
                        ? nodes[node_index].children[slot]
                        : make_child(node_index, slot);
        insert(child, chain, depth + 1);
        chain = following;
      }
    }
    // note: make_child may reallocate nodes, so re-read each time.
    int slot = child_slot(nodes[node_index], pos[body]);
    int child = nodes[node_index].children[slot] >= 0
                    ? nodes[node_index].children[slot]
                    : make_child(node_index, slot);
    insert(child, body, depth + 1);
  }

  void compute_moments(int node_index) {
    Node& node = nodes[node_index];
    node.mass = 0.0;
    node.com = Vec3{};
    if (node.leaf) {
      for (int body = node.head; body >= 0; body = next[body]) {
        node.mass += mass[body];
        node.com += pos[body] * mass[body];
      }
    } else {
      for (int child : node.children) {
        if (child < 0) continue;
        compute_moments(child);
        node.mass += nodes[child].mass;
        node.com += nodes[child].com * nodes[child].mass;
      }
    }
    if (node.mass > 0) node.com *= 1.0 / node.mass;
  }
};

thread_local std::vector<std::int32_t> tl_stack;

}  // namespace

void BarnesHutTree::build(std::span<const Vec3> positions,
                          std::span<const double> masses) {
  src_pos_.assign(positions.begin(), positions.end());
  src_mass_.assign(masses.begin(), masses.end());
  cell_com_.clear();
  cell_mass_.clear();
  cell_size2_.clear();
  cell_first_child_.clear();
  cell_child_count_.clear();
  cell_body_begin_.clear();
  cell_body_count_.clear();
  leaf_bodies_.clear();
  leaf_x_.clear();
  leaf_y_.clear();
  leaf_z_.clear();
  leaf_m_.clear();
  if (src_pos_.empty()) return;

  Vec3 lo = src_pos_[0], hi = src_pos_[0];
  for (const Vec3& p : src_pos_) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  }
  Builder builder;
  builder.pos = src_pos_;
  builder.mass = src_mass_;
  builder.next.assign(src_pos_.size(), -1);
  builder.nodes.reserve(2 * src_pos_.size() / kLeafCapacity + 16);
  Builder::Node root;
  root.center = 0.5 * (lo + hi);
  root.half = 0.5 * std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 1e-12}) *
              1.0001;  // guard against points exactly on the boundary
  builder.nodes.push_back(root);
  for (int i = 0; i < static_cast<int>(src_pos_.size()); ++i) {
    builder.insert(0, i, 0);
  }
  builder.compute_moments(0);

  // Pack breadth-first: the children of each cell land contiguously, so a
  // traversal pushes one (first, count) range instead of eight pointers.
  std::size_t total = builder.nodes.size();
  std::vector<std::int32_t> order;
  order.reserve(total);
  order.push_back(0);
  cell_com_.reserve(total);
  cell_mass_.reserve(total);
  cell_size2_.reserve(total);
  cell_first_child_.reserve(total);
  cell_child_count_.reserve(total);
  cell_body_begin_.reserve(total);
  cell_body_count_.reserve(total);
  leaf_bodies_.reserve(src_pos_.size());
  for (std::size_t head = 0; head < order.size(); ++head) {
    const Builder::Node& node = builder.nodes[order[head]];
    cell_com_.push_back(node.com);
    cell_mass_.push_back(node.mass);
    double edge = 2.0 * node.half;
    cell_size2_.push_back(edge * edge);
    if (node.leaf) {
      cell_first_child_.push_back(-1);
      cell_child_count_.push_back(0);
      cell_body_begin_.push_back(static_cast<std::int32_t>(leaf_bodies_.size()));
      cell_body_count_.push_back(node.count);
      for (int body = node.head; body >= 0; body = builder.next[body]) {
        leaf_bodies_.push_back(body);
        leaf_x_.push_back(src_pos_[body].x);
        leaf_y_.push_back(src_pos_[body].y);
        leaf_z_.push_back(src_pos_[body].z);
        leaf_m_.push_back(src_mass_[body]);
      }
    } else {
      cell_first_child_.push_back(static_cast<std::int32_t>(order.size()));
      int children = 0;
      for (int child : node.children) {
        if (child < 0) continue;
        order.push_back(child);
        ++children;
      }
      cell_child_count_.push_back(children);
      cell_body_begin_.push_back(0);
      cell_body_count_.push_back(0);
    }
  }
}

template <bool Potential>
void BarnesHutTree::field_at(const Vec3& point, Vec3* accel, double* phi,
                             std::uint64_t& interactions) const {
  if (cell_mass_.empty()) return;
  std::vector<std::int32_t>& stack = tl_stack;
  stack.clear();
  stack.push_back(0);
  std::uint64_t count = 0;
  while (!stack.empty()) {
    std::int32_t cell = stack.back();
    stack.pop_back();
    if (cell_mass_[cell] <= 0) continue;
    Vec3 dr = cell_com_[cell] - point;
    double r2 = dr.norm2();
    if (cell_size2_[cell] < theta2_ * r2) {
      // Far cell: monopole.
      ++count;
      double d2 = r2 + eps2_;
      double d = std::sqrt(d2);
      if constexpr (Potential) {
        *phi -= cell_mass_[cell] / d;
      } else {
        *accel += (cell_mass_[cell] / (d2 * d)) * dr;
      }
    } else if (cell_first_child_[cell] >= 0) {
      std::int32_t first = cell_first_child_[cell];
      for (std::int32_t c = 0; c < cell_child_count_[cell]; ++c) {
        stack.push_back(first + c);
      }
    } else {
      // Near leaf: exact body-by-body sum (coincident bodies included).
      std::int32_t begin = cell_body_begin_[cell];
      std::int32_t n = cell_body_count_[cell];
      count += static_cast<std::uint64_t>(n);
      std::int32_t k = 0;
      if constexpr (!Potential) {
        if (simd_ && simd::kWidth > 1 &&
            n >= static_cast<std::int32_t>(simd::kWidth)) {
          using sd = simd::Native;
          constexpr std::int32_t W = static_cast<std::int32_t>(sd::kWidth);
          sd::VecD axv = sd::zero(), ayv = sd::zero(), azv = sd::zero();
          const sd::VecD px = sd::set1(point.x), py = sd::set1(point.y),
                         pz = sd::set1(point.z);
          const sd::VecD eps2v = sd::set1(eps2_), zerov = sd::zero();
          for (; k + W <= n; k += W) {
            sd::VecD dx = sd::load(&leaf_x_[begin + k]) - px;
            sd::VecD dy = sd::load(&leaf_y_[begin + k]) - py;
            sd::VecD dz = sd::load(&leaf_z_[begin + k]) - pz;
            sd::VecD d2 = dx * dx + dy * dy + dz * dz + eps2v;
            sd::VecD d = sd::sqrt(d2);
            sd::VecD w = sd::load(&leaf_m_[begin + k]) / (d2 * d);
            // d2 == 0 (coincident source, softening-free): the lane's w is
            // inf/NaN but the direction vanishes; the bitwise select drops
            // the whole lane, matching the scalar d2 > 0 guard.
            sd::VecD mask = sd::less(zerov, d2);
            axv = axv + sd::select(mask, w * dx, zerov);
            ayv = ayv + sd::select(mask, w * dy, zerov);
            azv = azv + sd::select(mask, w * dz, zerov);
          }
          accel->x += sd::hsum(axv);
          accel->y += sd::hsum(ayv);
          accel->z += sd::hsum(azv);
        }
      }
      for (; k < n; ++k) {
        std::int32_t body = leaf_bodies_[begin + k];
        Vec3 db = src_pos_[body] - point;
        double b2 = db.norm2();
        if constexpr (Potential) {
          // Self-potential exclusion: any source *exactly* at the query
          // point is skipped (callers evaluate phi at their own particle
          // positions). Mirrors the accel path, where a zero separation
          // contributes nothing because the direction vanishes.
          if (b2 < 1e-24) continue;
          *phi -= src_mass_[body] / std::sqrt(b2 + eps2_);
        } else {
          double d2 = b2 + eps2_;
          double d = std::sqrt(d2);
          if (d2 > 0.0) *accel += (src_mass_[body] / (d2 * d)) * db;
        }
      }
    }
  }
  interactions += count;
}

Vec3 BarnesHutTree::accel_at(const Vec3& point,
                             std::uint64_t& interactions) const {
  Vec3 accel{};
  field_at<false>(point, &accel, nullptr, interactions);
  return accel;
}

Vec3 BarnesHutTree::accel_at(const Vec3& point) const {
  return accel_at(point, interactions_);
}

double BarnesHutTree::potential_at(const Vec3& point,
                                   std::uint64_t& interactions) const {
  double phi = 0.0;
  field_at<true>(point, nullptr, &phi, interactions);
  return phi;
}

double BarnesHutTree::potential_at(const Vec3& point) const {
  return potential_at(point, interactions_);
}

template <typename T, typename EvalFn>
void BarnesHutTree::batch_eval(std::span<const Vec3> points, std::span<T> out,
                               EvalFn eval) const {
  util::ThreadPool& pool = pool_ ? *pool_ : util::ThreadPool::global();
  util::PerLane<std::uint64_t> counts(pool, 0);
  pool.parallel_for(0, points.size(), 64,
                    [&](std::size_t lo, std::size_t hi, unsigned lane) {
                      std::uint64_t local = 0;
                      for (std::size_t i = lo; i < hi; ++i) {
                        out[i] = eval(points[i], local);
                      }
                      counts[lane] += local;
                    });
  std::uint64_t total = 0;
  counts.for_each([&](std::uint64_t c) { total += c; });
  interactions_ += total;
}

void BarnesHutTree::accel_at(std::span<const Vec3> points,
                             std::span<Vec3> out) const {
  batch_eval(points, out, [this](const Vec3& p, std::uint64_t& count) {
    return accel_at(p, count);
  });
}

void BarnesHutTree::potential_at(std::span<const Vec3> points,
                                 std::span<double> out) const {
  batch_eval(points, out, [this](const Vec3& p, std::uint64_t& count) {
    return potential_at(p, count);
  });
}

std::vector<Vec3> BarnesHutTree::accel_at(std::span<const Vec3> points) const {
  std::vector<Vec3> result(points.size());
  accel_at(points, result);
  return result;
}

}  // namespace jungle::kernels
