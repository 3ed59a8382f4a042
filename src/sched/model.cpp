#include "sched/model.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/bhtree.hpp"
#include "kernels/hermite.hpp"
#include "kernels/sph.hpp"
#include "smartsockets/connection.hpp"

namespace jungle::sched {

static_assert(LinkCost::kMaxStreams == smartsockets::kMaxStripes,
              "model must price the stripe counts the transport uses");

double LinkCost::call_seconds(double bytes) const {
  if (!reachable || bandwidth_Bps <= 0.0) return 1e18;  // effectively never
  int streams = std::clamp(smartsockets::stripe_count(bytes), 1, kMaxStreams);
  double bandwidth = bandwidth_by_streams[streams - 1];
  if (bandwidth <= 0.0) bandwidth = bandwidth_Bps;
  return rtt_s + bytes / bandwidth;
}

LinkCost link_between(const sim::Network& net, const sim::Host& client,
                      const sim::Host& host) {
  LinkCost link;
  link.bandwidth_Bps = net.path_bandwidth(client, host);
  if (link.bandwidth_Bps <= 0.0) {
    link.reachable = false;
    return link;
  }
  for (int streams = 1; streams <= LinkCost::kMaxStreams; ++streams) {
    link.bandwidth_by_streams[streams - 1] =
        net.path_bandwidth(client, host, streams);
  }
  link.rtt_s = net.rtt(client, host);
  // Hosts we cannot connect to directly are reached through the hub
  // overlay (ssh tunnels of Fig 10): same wire, extra forwarding hop.
  link.tunneled = !net.can_connect(client, host);
  if (link.tunneled) link.rtt_s *= kTunnelRttFactor;
  link.fp_truncate = net.path_fp_truncate(client, host);
  return link;
}

double state_fetch_bytes(std::size_t n) {
  // A post-evolve state fetch ships the changed positions (mass unchanged,
  // velocities not requested by the coupling mask): 24 B/particle + span
  // framing, on top of the per-call overhead.
  return kCallOverheadBytes + static_cast<double>(n) * 24.0;
}

double state_fetch_bytes(std::size_t n, bool fp_truncate) {
  if (!fp_truncate) return state_fetch_bytes(n);
  // Positions narrowed to f32 on the wire: 12 B/particle (+ a realign pad
  // absorbed in the call overhead).
  return kCallOverheadBytes + static_cast<double>(n) * 12.0;
}

double ghost_pull_bytes(std::size_t n, int workers) {
  // All shards' owned position+velocity slices (48 B/particle, n total),
  // one concurrent get_state per shard.
  return static_cast<double>(n) * 48.0 +
         static_cast<double>(std::max(1, workers)) * kCallOverheadBytes;
}

double ghost_push_bytes(std::size_t n, int workers, bool fp_truncate) {
  int k = std::max(1, workers);
  if (k == 1) return 0.0;  // one shard owns everything: no ghosts travel
  // Each shard receives its (K-1)/K ghost rows as two contiguous frames:
  // (K-1)*n particles total, positions optionally narrowed to f32.
  double per_particle = fp_truncate ? (12.0 + 24.0) : (24.0 + 24.0);
  return static_cast<double>(k - 1) * static_cast<double>(n) * per_particle +
         2.0 * static_cast<double>(k) * kCallOverheadBytes;
}

double coupling_upload_bytes(std::size_t n_a, std::size_t n_b) {
  // The post-evolve coupler queries upload both directions' fresh inputs:
  // b's sources (mass+pos) + a's points, a's sources + b's points.
  double a = static_cast<double>(n_a);
  double b = static_cast<double>(n_b);
  return 2.0 * kCallOverheadBytes + (b * 32.0 + a * 24.0) +
         (a * 32.0 + b * 24.0);
}

double coupling_reply_bytes(std::size_t n_a, std::size_t n_b) {
  return static_cast<double>(n_a + n_b) * 24.0;
}

double kick_bytes(std::size_t n) {
  return kCallOverheadBytes + kKickHeaderBytes + static_cast<double>(n) * 24.0;
}

DatapathBytes datapath_bytes(std::size_t n_stars, std::size_t n_gas) {
  DatapathBytes bytes;
  bytes.grav_state_fetch = state_fetch_bytes(n_stars);
  bytes.hydro_state_fetch = state_fetch_bytes(n_gas);
  bytes.coupler_upload = coupling_upload_bytes(n_stars, n_gas);
  bytes.coupler_reply = coupling_reply_bytes(n_stars, n_gas);
  bytes.grav_kick = kick_bytes(n_stars);
  bytes.hydro_kick = kick_bytes(n_gas);
  bytes.kick_repeat = kCallOverheadBytes + kKickHeaderBytes;
  bytes.idle_call = kCallOverheadBytes;
  return bytes;
}

double tree_interactions_per_target(std::size_t n_sources) {
  double n = static_cast<double>(std::max<std::size_t>(n_sources, 2));
  return kTreeInteractionsPerTargetLog * std::log2(n);
}

double device_rate_flops(const sim::Host& host, bool gpu, int ncores) {
  if (gpu) {
    return host.gpu() ? host.gpu()->gflops * 1e9 : 0.0;
  }
  int used = std::clamp(ncores, 1, host.cores());
  return host.cpu_gflops_per_core() * 1e9 * used;
}

double gravity_compute_seconds(std::size_t n_stars, double dt, double rate) {
  if (rate <= 0.0) return 1e18;
  double n = static_cast<double>(n_stars);
  double substeps = std::max(1.0, dt * kGravSubstepsPerTime);
  return substeps * n * n * kernels::HermiteIntegrator::kFlopsPerPair / rate;
}

double coupler_compute_seconds(std::size_t n_a, std::size_t n_b,
                               double rate) {
  if (rate <= 0.0) return 1e18;
  double a = static_cast<double>(n_a);
  double b = static_cast<double>(n_b);
  // One recompute of the pair: rebuild both source trees, evaluate the
  // field of b at a's particles and vice versa. (The coupler recomputes
  // once per bridge step — the other cross-kick is a cache hit.)
  double build = (a + b) * kernels::BarnesHutTree::kBuildFlopsPerParticle;
  double interactions = a * tree_interactions_per_target(n_b) +
                        b * tree_interactions_per_target(n_a);
  double flops =
      build + interactions * kernels::BarnesHutTree::kFlopsPerInteraction;
  return flops / rate;
}

double stellar_compute_seconds(std::size_t n, int se_every, double rate) {
  if (rate <= 0.0) return 1e18;
  double per_exchange = static_cast<double>(n) * 500.0;
  return per_exchange / rate / std::max(1, se_every);
}

double hydro_compute_seconds(std::size_t n_gas, double dt, double rate,
                             int nranks, const LinkCost& interconnect) {
  if (rate <= 0.0) return 1e18;
  double n = static_cast<double>(n_gas);
  double substeps = std::max(1.0, dt * kSphSubstepsPerTime);
  double per_substep =
      n * kSphNeighbours * kernels::SphSystem::kFlopsPerNeighbour +
      n * tree_interactions_per_target(n_gas) *
          kernels::SphSystem::kFlopsPerTreeInteraction +
      n * kernels::BarnesHutTree::kBuildFlopsPerParticle;
  double ranks = std::max(1, nranks);
  double compute = substeps * per_substep / (rate * ranks);
  if (nranks <= 1) return compute;
  // Replicated-data slice exchanges per substep: density, positions,
  // velocities allgathers plus a barrier, over the cluster interconnect.
  double exchange_bytes = n * (8.0 + 24.0 + 24.0);
  double per_exchange =
      exchange_bytes / std::max(interconnect.bandwidth_Bps, 1.0) +
      interconnect.rtt_s * std::log2(ranks + 1.0);
  return compute + substeps * 3.0 * per_exchange;
}

}  // namespace jungle::sched
