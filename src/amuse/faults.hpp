#pragma once

#include <cstdint>
#include <vector>

#include "amuse/clients.hpp"

namespace jungle::amuse {

/// Fault-tolerance extension (the paper's §7 future work: "In theory it
/// should be possible to transparently find a replacement machine"). The
/// script checkpoints worker state after each bridge step; when a worker
/// dies (WorkerDiedError from the RPC layer), it starts a replacement on
/// another resource and reloads the checkpoint. All three evolving model
/// kinds are covered — gravity (phiGRAPE), hydro (Gadget) and the coupling
/// field kernel (Octgrav/Fi) — which is what lets the placement scheduler
/// re-place any kernel mid-run, not just the star cluster.

struct GravityCheckpoint {
  GravityState state;
  double model_time = 0.0;
  double eps2 = 1e-4;
  double eta = 0.02;
  /// Corrector-stage forces the integrator carries across evolve() calls
  /// (evaluated at *predicted* positions — a fresh evaluation at the
  /// corrected state differs by roundoff). Restored verbatim so a replayed
  /// step resumes the checkpointed substep sequence bit-for-bit. Not part
  /// of the digest: two runs agreeing on mass/position/velocity/time agree
  /// on these by construction.
  std::vector<Vec3> acc;
  std::vector<Vec3> jerk;
};

struct HydroCheckpoint {
  HydroState state;
  double model_time = 0.0;
  double eps2 = 1e-4;
  double theta = 0.6;
};

/// The field worker is stateless between kicks except for its sources; the
/// checkpoint is the last source set the client shipped. (Its eps2/theta
/// live in the WorkerSpec the replacement starts from, not here.)
struct FieldCheckpoint {
  std::vector<double> source_mass;
  std::vector<Vec3> source_position;
};

/// One consistent snapshot of the *whole* model graph. Slot-indexed in
/// declaration order; exactly one of the per-slot entries is meaningful,
/// matching the model's role (stellar models re-derive from their ZAMS
/// masses instead). Capture stages into a fresh GraphCheckpoint and the
/// runner installs it with a single move — all models commit or none, so a
/// death anywhere during checkpointing can never leave mixed-epoch saves.
struct GraphCheckpoint {
  /// Bridge steps the snapshot describes (0 = initial conditions). The
  /// rollback target is *this* number — pairing the clock with the states
  /// it belongs to by construction.
  int epoch = 0;
  /// The bridge clock at commit, bit-exact (epoch * dt re-derived by
  /// multiplication can differ from the accumulated sum in the last ulp).
  /// The rebuilt bridge restarts from these exact bits so every subsequent
  /// evolve target matches the fault-free run's.
  double time = 0.0;
  std::vector<GravityCheckpoint> gravity;
  std::vector<HydroCheckpoint> hydro;
  std::vector<FieldCheckpoint> field;

  void resize(std::size_t n_models) {
    gravity.resize(n_models);
    hydro.resize(n_models);
    field.resize(n_models);
  }
};

/// FNV-1a over the checkpoint's raw state (bit patterns of every particle
/// array plus the epoch). Two runs landing on the same digest at the same
/// epoch carry bit-for-bit identical physics — the golden-run invariant the
/// fault-schedule explorer checks after every recovery.
std::uint64_t digest(const GraphCheckpoint& save);
/// Per-model digests (same hash family) — lets the explorer pinpoint
/// *which* model diverged, not just that the graph did.
std::uint64_t digest(const GravityCheckpoint& save);
std::uint64_t digest(const HydroCheckpoint& save);
std::uint64_t digest(const FieldCheckpoint& save);

/// Snapshot live workers.
GravityCheckpoint checkpoint_gravity(GravityClient& gravity);
HydroCheckpoint checkpoint_hydro(HydroClient& hydro);
FieldCheckpoint checkpoint_field(FieldClient& field);

/// Restore a checkpoint into a *fresh* worker (local or remote). The
/// restored worker resumes on the *absolute* clock: its model time is the
/// checkpoint's, it accepts the same evolve targets as the worker it
/// replaces, and (for gravity) it carries the checkpointed corrector-stage
/// forces — so the replayed steps are bit-for-bit the fault-free ones.
void restore_gravity(GravityClient& gravity, const GravityCheckpoint& save);
void restore_hydro(HydroClient& hydro, const HydroCheckpoint& save);
void restore_field(FieldClient& field, const FieldCheckpoint& save);

}  // namespace jungle::amuse
