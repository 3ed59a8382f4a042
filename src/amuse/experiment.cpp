#include "amuse/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <string_view>

#include "amuse/diagnostics.hpp"
#include "amuse/faultpoint.hpp"
#include "amuse/faults.hpp"
#include "amuse/ic.hpp"
#include "amuse/sharded.hpp"
#include "kernels/morton.hpp"
#include "obs/metrics.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"

namespace jungle::amuse::experiment {

using sched::Role;

// ---------------------------------------------------------------- testbed

JungleTestbed::JungleTestbed(bool verbose) {
  using sim::net::gbit;
  using sim::net::ms;
  if (verbose) log::set_threshold(log::Level::info);
  obs::trace::bind_clock(
      this, [this] { return sim_.now(); },
      [this] { return sim_.current_name(); });

  // Effective per-core/GPU rates for irregular tree/N-body/SPH kernels
  // (a few percent of peak — see DESIGN.md calibration notes).
  net_.add_site("vu", 0.1 * ms, 1 * gbit);
  net_.add_site("seattle", 0.1 * ms, 1 * gbit);
  net_.add_site("uva", 0.05 * ms, 10 * gbit);
  net_.add_site("delft", 0.05 * ms, 10 * gbit);
  net_.add_site("leiden", 0.1 * ms, 1 * gbit);
  net_.add_site("das-vu", 2e-6, 32 * gbit);  // cluster interconnect

  sim::Host& desktop = net_.add_host("desktop", "vu", 4, 0.15);
  desktop.set_gpu(sim::GpuSpec{"geforce-9600gt", 1.2});
  net_.add_host("laptop", "seattle", 2, 0.12);

  sim::Host& lgm_fs = net_.add_host("fs-lgm", "leiden", 8, 0.3);
  lgm_fs.firewall().allow_inbound = false;  // ssh only, hub tunnels
  sim::Host& lgm_node = net_.add_host("lgm-node", "leiden", 8, 0.3);
  lgm_node.set_gpu(sim::GpuSpec{"tesla-c2050", 6.0});

  net_.add_host("fs-uva", "uva", 8, 0.3);
  net_.add_host("uva-node", "uva", 8, 0.3);

  net_.add_host("fs-delft", "delft", 8, 0.3);
  for (int i = 0; i < 2; ++i) {
    sim::Host& node =
        net_.add_host("delft-gpu" + std::to_string(i), "delft", 8, 0.3);
    node.set_gpu(sim::GpuSpec{"gtx480", 2.4});
  }

  net_.add_host("fs-dasvu", "das-vu", 8, 0.3);
  for (int i = 0; i < 8; ++i) {
    net_.add_host("dasvu" + std::to_string(i), "das-vu", 8, 0.3);
  }

  // Lightpaths of Figs 9/12.
  net_.add_link("vu", "uva", 0.2 * ms, 10 * gbit, "starplane-uva");
  net_.add_link("vu", "delft", 0.5 * ms, 10 * gbit, "starplane-delft");
  net_.add_link("vu", "leiden", 0.5 * ms, 1 * gbit, "lgm-lightpath");
  net_.add_link("vu", "das-vu", 0.05 * ms, 10 * gbit, "vu-campus");
  net_.add_link("seattle", "vu", 45 * ms, 1 * gbit, "transatlantic");
  net_.set_loopback(5e-6, 10 * gbit);

  client_ = &desktop;
  deployer_ = std::make_unique<deploy::Deployer>(net_, sockets_, desktop);
  auto cluster = [&](const std::string& name, const std::string& frontend,
                     std::vector<std::string> node_names) {
    gat::Resource resource;
    resource.name = name;
    resource.middleware = "sge";
    resource.frontend = &net_.host(frontend);
    for (const auto& node : node_names) {
      resource.nodes.push_back(&net_.host(node));
    }
    resource.queue_base_delay = 1.0;
    resource.queue = std::make_shared<gat::ClusterQueue>(sim_);
    resource.queue->set_meter(resource.name);
    resource.queue->set_nodes(resource.nodes);
    deployer_->add_resource(resource);
  };
  cluster("lgm", "fs-lgm", {"lgm-node"});
  cluster("das4-uva", "fs-uva", {"uva-node"});
  cluster("das4-delft", "fs-delft", {"delft-gpu0", "delft-gpu1"});
  cluster("das4-vu", "fs-dasvu",
          {"dasvu0", "dasvu1", "dasvu2", "dasvu3", "dasvu4", "dasvu5",
           "dasvu6", "dasvu7"});
}

JungleTestbed::JungleTestbed(const util::Config& config, bool verbose) {
  if (verbose) log::set_threshold(log::Level::info);
  obs::trace::bind_clock(
      this, [this] { return sim_.now(); },
      [this] { return sim_.current_name(); });
  deploy::build_topology(config, net_);
  auto names = net_.host_names();
  if (names.empty()) {
    throw ConfigError("scenario topology declares no hosts");
  }
  std::string client_name = config.has_section("scenario")
                                ? config.get_or("scenario", "client", names[0])
                                : names[0];
  client_ = &net_.host(client_name);
  deployer_ = std::make_unique<deploy::Deployer>(net_, sockets_, *client_);
  deployer_->add_resources(deploy::resources_from_config(config, net_));
}

sim::Host& JungleTestbed::client_host() {
  if (client_ == nullptr) throw ConfigError("testbed has no client host");
  return *client_;
}

IbisDaemon& JungleTestbed::daemon(sim::Host& client) {
  if (!daemon_) {
    daemon_ = std::make_unique<IbisDaemon>(*deployer_, net_, sockets_, client);
  }
  return *daemon_;
}

// ------------------------------------------------------------------- spec

namespace {

bool is_dynamic(Role role) {
  return role == Role::gravity || role == Role::hydro;
}

const char* role_label(Role role) {
  return role == Role::coupler ? "field" : sched::role_name(role);
}

bool kernel_valid(Role role, const std::string& kernel) {
  if (kernel.empty() || kernel == "auto") return true;
  switch (role) {
    case Role::gravity:
      return kernel == "phigrape" || kernel == "phigrape-gpu";
    case Role::hydro:
      return kernel == "gadget";
    case Role::coupler:
      return kernel == "fi" || kernel == "octgrav";
    case Role::stellar:
      return kernel == "sse";
  }
  return false;
}

/// The IC recipe each role knows how to generate ("" = the role default).
/// Anything else would be silently replaced by the default — reject it.
bool ic_valid(Role role, const std::string& ic) {
  if (ic.empty()) return true;
  switch (role) {
    case Role::gravity: return ic == "plummer";
    case Role::hydro: return ic == "gas-sphere";
    case Role::stellar: return ic == "salpeter";
    case Role::coupler: return false;  // field kernels own no particles
  }
  return false;
}

}  // namespace

int ExperimentSpec::find(const std::string& model_name) const {
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (models[i].name == model_name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

/// One model's own checks; validate() runs the graph-wide ones.
void validate_model(const ExperimentSpec& spec, const ModelSpec& model,
                    const std::function<void(const std::string&)>& fail) {
  if (model.name.empty()) fail("a model has no name");
  for (const ModelSpec& other : spec.models) {
    if (&other != &model && other.name == model.name) {
      fail("duplicate model name '" + model.name + "'");
    }
  }
  if (!kernel_valid(model.role, model.kernel)) {
    fail("model '" + model.name + "': kernel '" + model.kernel +
         "' does not implement the " + role_label(model.role) + " role");
  }
  if (!ic_valid(model.role, model.ic)) {
    fail("model '" + model.name + "': ic '" + model.ic +
         "' is not an IC recipe of the " + role_label(model.role) +
         " role");
  }
  if (is_dynamic(model.role) || model.role == Role::stellar) {
    if (model.n == 0) {
      fail("model '" + model.name + "' declares no particles (n = 0)");
    }
  } else if (model.n != 0) {
    fail("field model '" + model.name +
         "' declares particles; field kernels evaluate, they do not own "
         "state");
  }

  if (model.workers < 1) {
    fail("model '" + model.name + "': workers must be >= 1, got " +
         std::to_string(model.workers));
  }
  if (model.workers > 1 && model.role != Role::gravity) {
    fail("model '" + model.name + "': workers = " +
         std::to_string(model.workers) +
         " but only gravity models shard (domain decomposition)");
  }
  if (model.workers > 1 && model.kernel == "phigrape-gpu") {
    fail("model '" + model.name +
         "': sharding is CPU-only (kernel phigrape-gpu cannot split "
         "across workers)");
  }

  if (model.role == Role::stellar) {
    int target = spec.find(model.of);
    if (model.of.empty() || target < 0) {
      fail("stellar model '" + model.name + "' must name the gravity "
           "model its masses flow into (of = ...)");
    }
    if (spec.models[static_cast<std::size_t>(target)].role != Role::gravity) {
      fail("stellar model '" + model.name + "': of = '" + model.of +
           "' is not a gravity model");
    }
    if (!model.feedback.empty()) {
      int sink = spec.find(model.feedback);
      if (sink < 0 ||
          spec.models[static_cast<std::size_t>(sink)].role != Role::hydro) {
        fail("stellar model '" + model.name + "': feedback = '" +
             model.feedback + "' is not a hydro model");
      }
    }
  } else if (!model.of.empty() || !model.feedback.empty()) {
    fail("model '" + model.name +
         "' sets stellar wiring (of/feedback) but is not a stellar model");
  }
}

}  // namespace

void ExperimentSpec::validate() const {
  auto fail = [&](const std::string& what) {
    throw ConfigError("experiment '" + name + "': " + what);
  };
  if (models.empty()) fail("declares no models");
  if (dt <= 0.0) fail("dt must be positive");
  if (iterations < 1) fail("iterations must be >= 1");
  if (se_every < 1) fail("se_every must be >= 1");
  if (rpc_timeout < 0.0) fail("rpc_timeout must be >= 0 (0 disables it)");

  bool any_dynamic = false;
  for (const ModelSpec& model : models) {
    validate_model(*this, model, fail);
    if (is_dynamic(model.role)) any_dynamic = true;
  }
  if (!any_dynamic) fail("declares no dynamic (gravity/hydro) model");

  std::vector<bool> field_used(models.size(), false);
  for (const CouplingSpec& coupling : couplings) {
    std::string label =
        "coupling '" + (coupling.name.empty() ? "?" : coupling.name) + "'";
    int field = find(coupling.field);
    if (field < 0) {
      fail(label + " references unknown field model '" + coupling.field +
           "'");
    }
    if (models[static_cast<std::size_t>(field)].role != Role::coupler) {
      fail(label + ": '" + coupling.field + "' is not a field model");
    }
    field_used[static_cast<std::size_t>(field)] = true;
    for (const std::string& end : {coupling.a, coupling.b}) {
      int slot = find(end);
      if (slot < 0) {
        fail(label + " references unknown model '" + end + "'");
      }
      if (!is_dynamic(models[static_cast<std::size_t>(slot)].role)) {
        fail(label + ": '" + end + "' is not a dynamic model");
      }
    }
    if (coupling.a == coupling.b) {
      fail(label + " couples '" + coupling.a + "' to itself");
    }
    if (coupling.every < 1) fail(label + ": every must be >= 1");
    if (iterations % coupling.every != 0) {
      // A truncated window would end after an opening kick whose closing
      // half never fires — a silently lopsided trajectory.
      fail(label + ": iterations (" + std::to_string(iterations) +
           ") must cover whole coupling windows (every = " +
           std::to_string(coupling.every) + ")");
    }
  }
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (models[i].role == Role::coupler && !field_used[i]) {
      fail("field model '" + models[i].name +
           "' is not referenced by any coupling");
    }
  }
}

sched::Workload ExperimentSpec::workload() const {
  sched::Workload load;
  load.dt = dt;
  load.iterations = iterations;
  load.se_every = se_every;
  for (const ModelSpec& model : models) {
    sched::ModelLoad entry;
    entry.name = model.name;
    entry.role = model.role;
    entry.n = model.n;
    entry.kernel = model.kernel == "auto" ? "" : model.kernel;
    entry.nranks = model.nranks;
    entry.workers = model.workers;
    if (model.role == Role::stellar) entry.of = find(model.of);
    load.models.push_back(std::move(entry));
  }
  for (const CouplingSpec& coupling : couplings) {
    load.couplings.push_back(
        {find(coupling.field), find(coupling.a), find(coupling.b),
         coupling.every});
  }
  return load;
}

// -------------------------------------------------------------- INI parse

namespace {

Vec3 parse_vec3(const std::string& text, const std::string& where) {
  std::istringstream in(text);
  Vec3 value{};
  if (!(in >> value.x >> value.y >> value.z)) {
    throw ConfigError(where + ": expected three numbers, got '" + text + "'");
  }
  return value;
}

Role parse_role(const std::string& text, const std::string& where) {
  if (text == "gravity") return Role::gravity;
  if (text == "hydro") return Role::hydro;
  if (text == "field" || text == "coupler") return Role::coupler;
  if (text == "stellar") return Role::stellar;
  throw ConfigError(where + ": unknown role '" + text +
                    "' (gravity|hydro|field|stellar)");
}

// The keys each experiment section accepts, next to the code that reads
// them. Any other key is a ConfigError: a misspelt or retired switch would
// otherwise be silently ignored and change what the file means.
constexpr std::string_view kExperimentKeys[] = {
    "name", "dt", "iterations", "se_every", "seed", "datapath",
    "myr_per_nbody_time", "feedback_efficiency", "wind_specific_energy",
    "supernova_energy", "checkpointing", "rpc_timeout", "client"};
constexpr std::string_view kModelKeys[] = {
    "role", "kernel", "n", "nranks", "nodes", "workers", "eps2", "eta",
    "theta", "ic", "total_mass", "radius", "u_frac", "offset", "velocity",
    "ensure_massive", "of", "feedback", "place"};
constexpr std::string_view kCouplingKeys[] = {"field", "a", "b", "every"};

void reject_unknown_keys(const util::Config& config,
                         const std::string& section,
                         std::span<const std::string_view> accepted) {
  for (const std::string& key : config.keys(section)) {
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      throw ConfigError("unknown key '" + key + "' in [" + section + "]");
    }
  }
}

}  // namespace

bool config_declares_experiment(const util::Config& config) {
  for (const std::string& section : config.sections()) {
    if (util::starts_with(section, "model ")) return true;
  }
  return false;
}

ExperimentSpec ExperimentSpec::from_config(const util::Config& config) {
  ExperimentSpec spec;
  if (config.has_section("experiment")) {
    const std::string s = "experiment";
    reject_unknown_keys(config, s, kExperimentKeys);
    spec.name = config.get_or(s, "name", spec.name);
    spec.dt = config.get_double_or(s, "dt", spec.dt);
    spec.iterations =
        static_cast<int>(config.get_int_or(s, "iterations", spec.iterations));
    spec.se_every =
        static_cast<int>(config.get_int_or(s, "se_every", spec.se_every));
    spec.seed = static_cast<std::uint64_t>(
        config.get_int_or(s, "seed", static_cast<long>(spec.seed)));
    std::string path = config.get_or(s, "datapath", "pipelined");
    if (path == "pipelined") {
      spec.datapath = Datapath::pipelined;
    } else if (path == "synchronous") {
      spec.datapath = Datapath::synchronous;
    } else {
      throw ConfigError("experiment: unknown datapath '" + path + "'");
    }
    spec.myr_per_nbody_time =
        config.get_double_or(s, "myr_per_nbody_time", spec.myr_per_nbody_time);
    spec.feedback_efficiency = config.get_double_or(s, "feedback_efficiency",
                                                    spec.feedback_efficiency);
    spec.wind_specific_energy = config.get_double_or(
        s, "wind_specific_energy", spec.wind_specific_energy);
    spec.supernova_energy =
        config.get_double_or(s, "supernova_energy", spec.supernova_energy);
    spec.checkpointing =
        config.get_bool_or(s, "checkpointing", spec.checkpointing);
    spec.rpc_timeout =
        config.get_double_or(s, "rpc_timeout", spec.rpc_timeout);
    spec.client = config.get_or(s, "client", "");
  }

  for (const std::string& section : config.sections()) {
    if (util::starts_with(section, "model ")) {
      reject_unknown_keys(config, section, kModelKeys);
      ModelSpec model;
      model.name = util::trim(section.substr(6));
      model.role = parse_role(config.get(section, "role"), section);
      model.kernel = config.get_or(section, "kernel", "auto");
      model.n = static_cast<std::size_t>(config.get_int_or(section, "n", 0));
      model.nranks =
          static_cast<int>(config.get_int_or(section, "nranks", 0));
      model.nodes = static_cast<int>(config.get_int_or(section, "nodes", 1));
      model.workers =
          static_cast<int>(config.get_int_or(section, "workers", 1));
      model.eps2 = config.get_double_or(section, "eps2", model.eps2);
      model.eta = config.get_double_or(section, "eta", model.eta);
      model.theta = config.get_double_or(section, "theta", model.theta);
      model.ic = config.get_or(section, "ic", "");
      model.total_mass =
          config.get_double_or(section, "total_mass", model.total_mass);
      model.radius = config.get_double_or(section, "radius", model.radius);
      model.u_frac = config.get_double_or(section, "u_frac", model.u_frac);
      if (config.has_key(section, "offset")) {
        model.offset = parse_vec3(config.get(section, "offset"), section);
      }
      if (config.has_key(section, "velocity")) {
        model.bulk_velocity =
            parse_vec3(config.get(section, "velocity"), section);
      }
      model.ensure_massive =
          config.get_double_or(section, "ensure_massive", 0.0);
      model.of = config.get_or(section, "of", "");
      model.feedback = config.get_or(section, "feedback", "");
      model.place = config.get_or(section, "place", "");
      spec.models.push_back(std::move(model));
    } else if (util::starts_with(section, "coupling ")) {
      reject_unknown_keys(config, section, kCouplingKeys);
      CouplingSpec coupling;
      coupling.name = util::trim(section.substr(9));
      coupling.field = config.get(section, "field");
      coupling.a = config.get(section, "a");
      coupling.b = config.get(section, "b");
      coupling.every =
          static_cast<int>(config.get_int_or(section, "every", 1));
      spec.couplings.push_back(std::move(coupling));
    }
  }
  return spec;
}

// ------------------------------------------------------------- placement

namespace {

/// Default worker spec of a pinned model (the scheduler builds its own for
/// free models): kernel "auto" resolves by the target host's GPU.
amuse::WorkerSpec pinned_worker_spec(const ModelSpec& model,
                                     const sim::Host& host, bool local) {
  amuse::WorkerSpec spec;
  bool gpu = host.gpu().has_value();
  switch (model.role) {
    case Role::gravity:
      spec.code = model.kernel == "auto"
                      ? (gpu ? "phigrape-gpu" : "phigrape")
                      : model.kernel;
      spec.ncores = spec.code == "phigrape" ? 2 : 1;
      break;
    case Role::coupler:
      spec.code = model.kernel == "auto" ? (gpu ? "octgrav" : "fi")
                                         : model.kernel;
      spec.ncores = spec.code == "fi" ? 2 : 1;
      break;
    case Role::hydro:
      spec.code = "gadget";
      spec.nranks = model.nranks > 0 ? model.nranks : (local ? 2 : model.nodes);
      spec.ncores = local ? 1 : 2;
      break;
    case Role::stellar:
      spec.code = "sse";
      break;
  }
  return spec;
}

std::optional<sched::Assignment> resolve_pin(JungleTestbed& bed,
                                             const ModelSpec& model,
                                             sim::Host& client) {
  if (model.place.empty()) return std::nullopt;
  sched::Assignment pin;
  if (model.place == "local") {
    pin.host = &client;
    pin.spec = pinned_worker_spec(model, client, /*local=*/true);
    pin.nodes = 1;
  } else {
    auto parts = util::split(model.place, '/');
    const gat::Resource& resource = bed.deployer().resource(parts[0]);
    pin.resource = resource.name;
    const sim::Host* host = nullptr;
    if (parts.size() > 1) {
      for (const sim::Host* node : resource.nodes) {
        if (node != nullptr && node->name() == parts[1]) host = node;
      }
      if (host == nullptr) {
        throw ConfigError("model '" + model.name + "': place = '" +
                          model.place + "' names no node of resource '" +
                          resource.name + "'");
      }
    } else if (!resource.nodes.empty()) {
      host = resource.nodes.front();
    } else {
      host = resource.frontend;
    }
    if (host == nullptr) {
      throw ConfigError("model '" + model.name + "': resource '" +
                        resource.name + "' has no usable node");
    }
    pin.host = host;
    pin.spec = pinned_worker_spec(model, *host, /*local=*/false);
    pin.nodes = std::max(1, model.nodes);
  }
  return pin;
}

sim::Host& client_of(JungleTestbed& bed, const ExperimentSpec& spec) {
  return spec.client.empty() ? bed.client_host()
                             : bed.network().host(spec.client);
}

/// The spec's numeric kernel parameters always win (they are physics, not
/// placement); codes and widths were already constrained via the workload.
/// Worker-side metrics carry the model name, not the kernel code, so
/// worker.<name>.* lines up with the plan's roles and rpc.<name>.*.
void install_model_params(sched::Assignment& a, const ModelSpec& model) {
  a.spec.eps2 = model.eps2;
  a.spec.eta = model.eta;
  a.spec.theta = model.theta;
  a.spec.meter = model.name;
}

sched::Placement plan_in(JungleTestbed& bed, const ExperimentSpec& spec,
                         sim::Host& client,
                         const sched::Scheduler& scheduler) {
  sched::Workload load = spec.workload();
  std::vector<std::optional<sched::Assignment>> pins;
  pins.reserve(spec.models.size());
  for (const ModelSpec& model : spec.models) {
    pins.push_back(resolve_pin(bed, model, client));
  }
  sched::Placement plan = scheduler.plan(load, pins);
  for (std::size_t i = 0; i < spec.models.size(); ++i) {
    install_model_params(plan.roles[i], spec.models[i]);
  }
  return plan;
}

}  // namespace

sched::Placement plan_experiment(JungleTestbed& bed,
                                 const ExperimentSpec& spec) {
  spec.validate();
  sim::Host& client = client_of(bed, spec);
  sched::Scheduler scheduler(bed.network(), client,
                             bed.deployer().resources());
  return plan_in(bed, spec, client, scheduler);
}

// ------------------------------------------------------------------ runner

namespace {

/// Live clients of one model of the running graph. Exactly one of the
/// client pointers is set, matching the model's role; every per-role
/// dispatch of the runner happens here. Checkpoints live in one graph-wide
/// GraphCheckpoint (atomic commit); this model's slot `i` in it is its
/// declaration index.
struct ModelRuntime {
  std::unique_ptr<GravityClient> gravity;
  std::unique_ptr<HydroClient> hydro;
  std::unique_ptr<FieldClient> field;
  std::unique_ptr<StellarClient> stellar;

  std::vector<double> zams;
  /// A supervisor restarted the worker in place (GraphRunner::try_revive).
  bool revived = false;

  DynamicsClient* dynamics() {
    if (gravity) return gravity.get();
    return hydro.get();
  }
  /// The RPC the fault machinery watches: a sharded facade reports the
  /// first dead shard so death_cause/revive act on the actual casualty.
  RpcClient& rpc() {
    if (gravity) return gravity->fault_rpc();
    if (hydro) return hydro->fault_rpc();
    if (field) return field->rpc();
    return stellar->rpc();
  }
  /// Call `f` on the model's one client.
  template <typename F>
  void visit(F&& f) {
    if (gravity) f(*gravity);
    if (hydro) f(*hydro);
    if (field) f(*field);
    if (stellar) f(*stellar);
  }
  void close() { visit([](auto& client) { client.close(); }); }
  void set_delta_exchange(bool on) {
    visit([&](auto& client) { client.set_delta_exchange(on); });
  }
  void reset_delta_caches() {
    visit([](auto& client) { client.reset_delta_caches(); });
  }

  void attach(Role role, std::unique_ptr<RpcClient> rpc) {
    switch (role) {
      case Role::gravity:
        gravity = std::make_unique<GravityClient>(std::move(rpc));
        break;
      case Role::hydro:
        hydro = std::make_unique<HydroClient>(std::move(rpc));
        break;
      case Role::coupler:
        field = std::make_unique<FieldClient>(std::move(rpc));
        break;
      case Role::stellar:
        stellar = std::make_unique<StellarClient>(std::move(rpc));
        break;
    }
  }

  /// Draw the model's initial conditions from the shared stream, load them
  /// into the worker and into slot i of the initial checkpoint.
  void seed(const ModelSpec& model, util::Rng& rng, GraphCheckpoint& save,
            std::size_t i) {
    switch (model.role) {
      case Role::gravity: {
        auto body = ic::plummer_sphere(model.n, rng);
        double scale_r = model.radius > 0.0 ? model.radius : 1.0;
        double scale_m = model.total_mass;
        if (scale_m != 1.0 || scale_r != 1.0) {
          double scale_v = std::sqrt(scale_m / scale_r);
          for (double& m : body.mass) m *= scale_m;
          for (Vec3& p : body.position) p = p * scale_r;
          for (Vec3& v : body.velocity) v = v * scale_v;
        }
        if (model.offset.norm2() > 0.0 || model.bulk_velocity.norm2() > 0.0) {
          for (Vec3& p : body.position) p = p + model.offset;
          for (Vec3& v : body.velocity) v = v + model.bulk_velocity;
        }
        if (model.workers > 1) {
          // Domain decomposition: order the particles along the Morton
          // curve so each shard's contiguous index range is a spatially
          // compact block. Checkpoints store the permuted arrays, so
          // restores and rollbacks replay the same decomposition.
          auto order = kernels::morton_order(body.position);
          body.mass =
              kernels::permute(std::span<const double>(body.mass), order);
          body.position =
              kernels::permute(std::span<const Vec3>(body.position), order);
          body.velocity =
              kernels::permute(std::span<const Vec3>(body.velocity), order);
        }
        gravity->add_particles(body.mass, body.position, body.velocity);
        // Checkpoints start as the initial conditions: a worker lost on
        // the very first step rolls back to t=0 (epoch 0).
        save.gravity[i].state =
            GravityState{std::move(body.mass), std::move(body.position),
                         std::move(body.velocity)};
        save.gravity[i].eps2 = model.eps2;
        save.gravity[i].eta = model.eta;
        break;
      }
      case Role::hydro: {
        double radius = model.radius > 0.0 ? model.radius : 1.5;
        auto cloud = ic::gas_sphere(model.n, rng, model.total_mass, radius,
                                    model.u_frac);
        if (model.offset.norm2() > 0.0 || model.bulk_velocity.norm2() > 0.0) {
          for (Vec3& p : cloud.position) p = p + model.offset;
          for (Vec3& v : cloud.velocity) v = v + model.bulk_velocity;
        }
        hydro->add_gas(cloud.mass, cloud.position, cloud.velocity,
                       cloud.internal_energy);
        save.hydro[i].state =
            HydroState{std::move(cloud.mass), std::move(cloud.position),
                       std::move(cloud.velocity),
                       std::move(cloud.internal_energy), {}};
        save.hydro[i].eps2 = model.eps2;
        save.hydro[i].theta = model.theta;
        break;
      }
      case Role::stellar:
        zams = ic::salpeter_masses(model.n, rng);
        if (model.ensure_massive > 0.0) zams[0] = model.ensure_massive;
        stellar->add_stars(zams);
        break;
      case Role::coupler:
        break;
    }
  }

  /// A capture in flight (empty for field and stellar models, whose
  /// snapshot needs no worker call).
  struct Capture {
    std::optional<GravityCapture> gravity;
    std::optional<HydroCapture> hydro;
  };

  /// Issue the worker calls of this model's snapshot.
  Capture request_capture() {
    Capture calls;
    if (gravity) calls.gravity = amuse::request_capture(*gravity);
    if (hydro) calls.hydro = amuse::request_capture(*hydro);
    return calls;
  }

  /// Finish the snapshot into slot i of a staged graph checkpoint. Stellar
  /// models save nothing: they re-derive from their ZAMS masses.
  void finish_capture(Capture& calls, GraphCheckpoint& save, std::size_t i,
                      const ModelSpec& model) {
    if (gravity) {
      save.gravity[i] = amuse::finish_capture(*gravity, *calls.gravity);
      save.gravity[i].eps2 = model.eps2;
      save.gravity[i].eta = model.eta;
    } else if (hydro) {
      save.hydro[i] = amuse::finish_capture(*hydro, *calls.hydro);
      save.hydro[i].eps2 = model.eps2;
      save.hydro[i].theta = model.theta;
    } else if (field) {
      save.field[i] = checkpoint_field(*field);
    }
  }

  /// Digest of slot i (0 for a stellar model, which saves nothing).
  std::uint64_t digest_slot(const GraphCheckpoint& save, std::size_t i) const {
    if (gravity) return digest(save.gravity[i]);
    if (hydro) return digest(save.hydro[i]);
    if (field) return digest(save.field[i]);
    return 0;
  }

  /// Restore slot i into a blank worker. A stellar model re-adds its ZAMS
  /// masses and evolves to the checkpoint's clock.
  void restore(const GraphCheckpoint& save, std::size_t i,
               double myr_per_nbody_time) {
    if (gravity) {
      restore_gravity(*gravity, save.gravity[i]);
    } else if (hydro) {
      restore_hydro(*hydro, save.hydro[i]);
    } else if (field) {
      restore_field(*field, save.field[i]);
    } else if (stellar) {
      stellar->add_stars(zams);
      if (save.time > 0.0) stellar->evolve_to(save.time * myr_per_nbody_time);
    }
  }

  ModelResult final_state(const ModelSpec& model) {
    ModelResult state;
    state.name = model.name;
    state.role = model.role;
    if (gravity) {
      state.gravity = gravity->get_state();
      auto [kinetic, potential] = gravity->energies();
      state.kinetic = kinetic;
      state.potential = potential;
    } else {
      state.hydro = hydro->get_state();
      auto [kinetic, thermal, potential] = hydro->energies();
      state.kinetic = kinetic;
      state.thermal = thermal;
      state.potential = potential;
    }
    return state;
  }
};

/// WAN = anything that is not a host loopback or an intra-site LAN.
bool is_wan(const sim::Network::LinkReport& link) {
  return link.name != "loopback" && link.name.rfind("lan:", 0) != 0;
}

double total_bytes(const sim::Network::LinkReport& link) {
  return link.bytes_by_class[0] + link.bytes_by_class[1] +
         link.bytes_by_class[2] + link.bytes_by_class[3];
}

/// One run of an experiment graph. The members are the state the coupling
/// script carries (plan, scheduler, model clients, committed checkpoint,
/// bridge, result, counter mark); the methods are its phases: deploy,
/// seed, step, commit, report, recover, collect. Placement and the final
/// report run outside the simulation; script() is the body of the
/// simulated coupling-script process.
class GraphRunner {
 public:
  GraphRunner(JungleTestbed& bed, const ExperimentSpec& spec)
      : bed_(bed),
        spec_(spec),
        client_(client_of(bed, spec)),
        scheduler_(bed.network(), client_, bed.deployer().resources()),
        load_(spec.workload()),
        daemon_(bed.sockets(), client_),
        models_(spec.models.size()) {
    bed.daemon(client_);  // paper step 3: "start the Ibis-Daemon"
    plan_ = plan_in(bed, spec, client_, scheduler_);
    result_.experiment = spec.name;
    result_.iterations = spec.iterations;
    result_.placement = plan_.describe();
    result_.modeled_seconds_per_iteration = plan_.modeled_seconds_per_iteration;
  }

  void script() {
    // Clients close their links when destroyed: tear them (and the bridge
    // that points at them) down inside this process, however it ends.
    struct Teardown {
      GraphRunner& runner;
      ~Teardown() { runner.bridge_.reset(); runner.models_.clear(); }
    } teardown{*this};
    deploy();
    apply_datapath();
    seed_initial_conditions();
    bed_.network().reset_traffic();
    run_iterations();
    collect_final_state();
    for (ModelRuntime& model : models_) model.close();
  }

  /// WAN totals and the dashboard, once the simulation has run.
  Result finish() {
    for (const auto& link : bed_.network().traffic_report()) {
      if (!is_wan(link)) continue;
      result_.wan_bytes += total_bytes(link);
      result_.wan_ipl_bytes +=
          link.bytes_by_class[static_cast<int>(sim::TrafficClass::ipl)];
    }
    result_.wan_ipl_bytes_per_step =
        spec_.iterations > 0 ? result_.wan_ipl_bytes / spec_.iterations : 0.0;

    // Dashboard: the Figs 10/11 analog plus the placement panel — which
    // machine ran which model, and modeled vs. measured cost.
    std::ostringstream panel;
    panel << bed_.deployer().dashboard();
    panel << "-- placement (" << spec_.name << ") --\n";
    for (std::size_t i = 0; i < plan_.roles.size(); ++i) {
      const sched::Assignment& a = plan_.roles[i];
      panel << "  " << plan_.names[i] << " ("
            << sched::role_name(plan_.kinds[i]) << "): " << a.spec.code
            << " @ " << a.where() << " modeled compute=" << a.compute_seconds
            << " s comm=" << a.comm_seconds << " s\n";
    }
    panel << "  modeled=" << result_.modeled_seconds_per_iteration
          << " s/iter measured=" << result_.seconds_per_iteration
          << " s/iter";
    if (result_.restarts > 0) panel << " restarts=" << result_.restarts;
    panel << "\n";
    if (result_.calibrated_seconds_per_iteration > 0.0) {
      panel << "  calibrated=" << result_.calibrated_seconds_per_iteration
            << " s/iter drift=" << result_.precalibration_drift << "x -> "
            << result_.compute_drift << "x\n";
    }
    panel << diagnostics::iteration_table(result_.iteration_log);
    result_.dashboard = panel.str();
    return std::move(result_);
  }

 private:
  /// The clock and the monotone counters at one instant. Every
  /// per-iteration figure is the delta of two marks (the registry is
  /// process-global and never reset by a run), so reports stay correct
  /// across rollbacks and repeated runs.
  struct Mark {
    double time = 0.0;
    std::vector<double> compute_s;  // per model, worker-side
    double flops = 0.0;
    double compute_total = 0.0;
    double substeps = 0.0;
    double rpc_calls = 0.0;
    double rpc_retries = 0.0;
    double degraded_transfers = 0.0;
    std::map<std::string, double> wan_by_link;
    double wan_bytes = 0.0;  // summed over wan_by_link
  };

  double now() { return bed_.simulation().now(); }
  bool fault_tolerant() const { return spec_.checkpointing; }

  /// Initial deployment is as exposed to the jungle as any later step: a
  /// node can crash mid-spawn, a frontend can die holding half the graph.
  /// Same policy as recovery — exclude what failed, re-place, try again —
  /// keyed on the death report itself: there is no client to revive yet.
  void deploy() {
    for (std::size_t i = 0; i < models_.size(); ++i) {
      for (;;) {
        try {
          start_model(i);
          break;
        } catch (const WorkerDiedError& death) {
          if (!fault_tolerant() || plan_.roles[i].local()) throw;
          ++result_.restarts;
          note_death(death);
          if (death.cause() != WorkerDiedError::Cause::host_crash) {
            scheduler_.exclude_resource(plan_.roles[i].resource);
          }
          replace_slot(i);
        } catch (const CodeError& startup) {
          if (!fault_tolerant() || plan_.roles[i].local()) throw;
          ++result_.restarts;
          replace_after_startup_failure(i, startup);
        }
      }
    }
    // Initial deployment already deviated from the planned placement:
    // re-score so the dashboard describes what is actually running.
    if (result_.restarts > 0) rescore();
  }

  /// Start model i's worker. A sharded gravity model (workers > 1) starts
  /// K single-node workers — the cluster queue hands each its own node —
  /// and wraps them in the ShardedGravityClient facade, so the bridge,
  /// couplings and fault machinery see one model.
  void start_model(std::size_t i) {
    const ModelSpec& model = spec_.models[i];
    obs::trace::Span spawn = obs::trace::span("spawn:" + model.name, "deploy");
    if (model.role == Role::gravity && model.workers > 1) {
      std::vector<std::unique_ptr<GravityClient>> shards;
      shards.reserve(static_cast<std::size_t>(model.workers));
      for (int k = 0; k < model.workers; ++k) {
        sched::Assignment shard = plan_.roles[i];
        shard.nodes = 1;
        // Shard 0 carries the model's meter name so calibration reads
        // worker.<name>.compute_s ~ total/K, matching the modeled
        // compute / K; the others are distinguishable in traces.
        std::string meter =
            k == 0 ? model.name : model.name + "#" + std::to_string(k);
        shard.spec.meter = meter;
        shards.push_back(
            std::make_unique<GravityClient>(start_worker(shard, meter)));
      }
      models_[i].gravity =
          std::make_unique<ShardedGravityClient>(std::move(shards));
    } else {
      models_[i].attach(model.role, start_worker(plan_.roles[i], model.name));
    }
    // A model whose state exchanges cross a link flagged `fp_truncate`
    // narrows its position wire format to f32 (the cost model priced the
    // placement at the narrowed volume).
    DynamicsClient* dynamics = models_[i].dynamics();
    const sim::Host* host = plan_.roles[i].host;
    if (dynamics != nullptr && host != nullptr &&
        bed_.network().path_fp_truncate(client_, *host)) {
      dynamics->set_fp32_positions(true);
    }
  }

  /// Client-side RPC metrics go under `meter`, matching the worker-side
  /// series wired through WorkerSpec::meter.
  std::unique_ptr<RpcClient> start_worker(const sched::Assignment& a,
                                          const std::string& meter) {
    auto rpc = a.local() ? start_local_worker(bed_.sockets(), bed_.network(),
                                              client_, client_, a.spec,
                                              ChannelKind::mpi)
                         : daemon_.start_worker(a.spec, a.resource, a.nodes);
    rpc->set_call_timeout(spec_.rpc_timeout);
    rpc->set_meter(meter);
    return rpc;
  }

  /// The baseline mode turns the delta exchange off end to end so the wire
  /// behaves exactly like the pre-overhaul full-fetch path.
  void apply_datapath() {
    for (ModelRuntime& model : models_) {
      model.set_delta_exchange(spec_.datapath != Datapath::synchronous);
    }
  }

  /// Every model draws from one seeded stream in declaration order, so the
  /// spec is a reproducible experiment.
  void seed_initial_conditions() {
    committed_.resize(models_.size());
    util::Rng rng(spec_.seed);
    for (std::size_t i = 0; i < models_.size(); ++i) {
      models_[i].seed(spec_.models[i], rng, committed_, i);
    }
    bridge_ = build_bridge();
  }

  /// Wire the bridge graph at the committed checkpoint's clock: dynamic
  /// models become systems, couplings resolve to system indices, stellar
  /// models to their typed targets.
  std::unique_ptr<Bridge> build_bridge() {
    std::vector<int> system_of(models_.size(), -1);
    std::vector<Bridge::System> systems;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      if (models_[i].dynamics() == nullptr) continue;
      system_of[i] = static_cast<int>(systems.size());
      systems.push_back({spec_.models[i].name, models_[i].dynamics()});
    }
    auto slot = [&](const std::string& name) -> ModelRuntime& {
      return models_[static_cast<std::size_t>(spec_.find(name))];
    };
    std::vector<Bridge::Coupling> couplings;
    for (const CouplingSpec& coupling : spec_.couplings) {
      couplings.push_back(
          {slot(coupling.field).field.get(),
           system_of[static_cast<std::size_t>(spec_.find(coupling.a))],
           system_of[static_cast<std::size_t>(spec_.find(coupling.b))],
           coupling.every});
    }
    std::vector<Bridge::Stellar> stellar;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      if (!models_[i].stellar) continue;
      const ModelSpec& model = spec_.models[i];
      Bridge::Stellar link;
      link.client = models_[i].stellar.get();
      link.into = slot(model.of).gravity.get();
      link.feedback =
          model.feedback.empty() ? nullptr : slot(model.feedback).hydro.get();
      stellar.push_back(link);
    }
    Bridge::Config config;
    config.dt = spec_.dt;
    config.se_every = spec_.se_every;
    config.synchronous_datapath = spec_.datapath == Datapath::synchronous;
    config.myr_per_nbody_time = spec_.myr_per_nbody_time;
    config.feedback_efficiency = spec_.feedback_efficiency;
    config.wind_specific_energy = spec_.wind_specific_energy;
    config.supernova_energy = spec_.supernova_energy;
    // Absolute-clock restart: rebuilt bridges continue from the committed
    // checkpoint's exact clock bits, and restored workers carry the same
    // absolute time — evolve targets replay the fault-free sequence.
    config.t_start = committed_.time;
    config.step_offset = committed_.epoch;
    return std::make_unique<Bridge>(std::move(systems), std::move(couplings),
                                    std::move(stellar), config);
  }

  void run_iterations() {
    double wall_start = now();
    restarts_mark_ = result_.restarts;
    mark_ = take_mark();
    while (completed_ < spec_.iterations) {
      try {
        // Replay detection: a step whose index was already attempted
        // re-runs work a rollback threw away (with per-step checkpoints
        // the rollback target is always the last *completed* step, so the
        // replayed step is the attempted-and-killed one).
        bool replaying = completed_ + 1 <= attempted_steps_;
        attempted_steps_ = std::max(attempted_steps_, completed_ + 1);
        {
          obs::trace::Span iter = obs::trace::span(
              "iteration:" + std::to_string(completed_ + 1), "experiment");
          bridge_->step();
        }
        if (fault_tolerant()) commit_checkpoint();
        ++completed_;
        report_iteration(replaying);
      } catch (const WorkerDiedError& death) {
        if (!fault_tolerant()) throw;
        recover(death);
      }
    }
    result_.seconds_per_iteration = (now() - wall_start) / spec_.iterations;
  }

  /// Checkpointing itself talks to the workers and can die mid-way: stage
  /// the whole graph into a fresh snapshot, then install it with one move
  /// — the commit is atomic across the graph, so no interleaving of deaths
  /// can leave mixed-epoch checkpoints. Every model's capture calls are in
  /// flight together (one round trip for the graph, not two per model);
  /// the replies are read in model order once all are issued.
  void commit_checkpoint() {
    obs::trace::Span ckpt = obs::trace::span("checkpoint", "fault");
    double ckpt_start = now();
    GraphCheckpoint staged;
    staged.epoch = completed_ + 1;
    staged.time = bridge_->time();
    staged.resize(models_.size());
    std::vector<ModelRuntime::Capture> captures;
    captures.reserve(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i) {
      faultpoint::reach(faultpoint::Point::ckpt_capture, completed_,
                        spec_.models[i].name);
      captures.push_back(models_[i].request_capture());
    }
    for (std::size_t i = 0; i < models_.size(); ++i) {
      models_[i].finish_capture(captures[i], staged, i, spec_.models[i]);
    }
    // Named per-model commit slots: the window where a non-atomic protocol
    // would interleave. Injections here prove there is no state in which
    // some models committed and others did not.
    for (std::size_t i = 0; i < models_.size(); ++i) {
      faultpoint::Context slot;
      slot.point = faultpoint::Point::ckpt_commit;
      slot.iteration = completed_;
      slot.detail = spec_.models[i].name;
      // Per-model digest: lets the explorer name the model that diverged,
      // not just the epoch.
      if (faultpoint::active()) slot.digest = models_[i].digest_slot(staged, i);
      faultpoint::reach(slot);
    }
    committed_ = std::move(staged);
    if (faultpoint::active()) {
      faultpoint::Context done;
      done.point = faultpoint::Point::ckpt_committed;
      done.iteration = completed_;
      done.digest = digest(committed_);
      faultpoint::reach(done);
    }
    obs::metrics::counter("fault.checkpoints").increment();
    obs::metrics::histogram("fault.checkpoint_s").observe(now() - ckpt_start);
  }

  Mark take_mark() {
    Mark mark;
    mark.time = now();
    mark.compute_s.resize(models_.size());
    for (std::size_t i = 0; i < models_.size(); ++i) {
      const std::string& name = spec_.models[i].name;
      mark.compute_s[i] =
          obs::metrics::counter_value("worker." + name + ".compute_s");
      mark.compute_total += mark.compute_s[i];
      mark.flops += obs::metrics::counter_value("worker." + name + ".flops");
      mark.substeps +=
          obs::metrics::counter_value("worker." + name + ".substeps");
      mark.rpc_calls += obs::metrics::counter_value("rpc." + name + ".calls");
    }
    mark.rpc_retries = obs::metrics::counter_value("rpc.retries");
    mark.degraded_transfers =
        static_cast<double>(bed_.network().degraded_transfers());
    for (const auto& link : bed_.network().traffic_report()) {
      if (is_wan(link)) mark.wan_by_link[link.name] += total_bytes(link);
    }
    for (const auto& [name, bytes] : mark.wan_by_link) mark.wan_bytes += bytes;
    return mark;
  }

  /// Per-iteration report: deltas across the step just done.
  void report_iteration(bool replaying) {
    Mark at = take_mark();
    diagnostics::IterationReport row;
    row.iteration = completed_;
    row.seconds = at.time - mark_.time;
    row.wan_bytes = at.wan_bytes - mark_.wan_bytes;
    row.flops = at.flops - mark_.flops;
    row.compute_seconds = at.compute_total - mark_.compute_total;
    row.substeps =
        static_cast<std::uint64_t>(at.substeps - mark_.substeps + 0.5);
    row.rpc_calls =
        static_cast<std::uint64_t>(at.rpc_calls - mark_.rpc_calls + 0.5);
    row.rpc_retries =
        static_cast<std::uint64_t>(at.rpc_retries - mark_.rpc_retries + 0.5);
    row.degraded = at.degraded_transfers - mark_.degraded_transfers > 0.5;
    row.replay = replaying;
    row.restarts = result_.restarts - restarts_mark_;
    if (row.replay) obs::metrics::counter("fault.replayed_steps").increment();
    if (row.degraded) {
      // A bulk transfer this step rode on fewer streams than planned
      // (partial stripe failure): the step completed, degraded.
      obs::metrics::counter("fault.degraded_iterations").increment();
    }
    result_.iteration_log.push_back(row);

    if (!calibrated_ && !row.replay && row.restarts == 0) {
      calibrate(mark_, at);
      std::ostringstream links;
      links << "per-link WAN volume (iteration 1):";
      for (const auto& [name, bytes] : at.wan_by_link) {
        double delta = bytes - mark_.wan_by_link[name];
        if (delta <= 0.0) continue;
        links << " " << name << "=" << util::format_bytes(delta);
      }
      log::info("sched") << links.str();
    }
    restarts_mark_ = result_.restarts;
    mark_ = std::move(at);
  }

  /// The calibration loop: the first cleanly measured iteration closes the
  /// scheduler's modeled-vs-measured gap. Per-role measured compute
  /// (worker.<name>.compute_s deltas) calibrates the flop charges, and the
  /// running placement is re-scored with the calibrated model.
  void calibrate(const Mark& before, const Mark& after) {
    calibrated_ = true;
    sched::Calibration calibration;
    double pre_drift = 0.0;
    std::ostringstream table;
    table << "calibrated cost table (iteration 1):";
    for (std::size_t i = 0; i < models_.size(); ++i) {
      double measured = after.compute_s[i] - before.compute_s[i];
      double modeled = plan_.roles[i].compute_seconds;
      if (measured <= 0.0 || modeled <= 0.0) continue;
      double ratio = measured / modeled;
      calibration.set_scale(spec_.models[i].name, ratio);
      pre_drift = std::max(pre_drift, std::max(ratio, 1.0 / ratio));
      obs::metrics::gauge("sched.drift." + spec_.models[i].name).set(ratio);
      table << " " << spec_.models[i].name << ": measured=" << measured
            << " s modeled=" << modeled << " s scale="
            << calibration.scale_for(spec_.models[i].name) << ";";
    }
    result_.precalibration_drift = pre_drift;
    obs::metrics::gauge("sched.precalibration_drift").set(pre_drift);
    scheduler_.set_calibration(calibration);

    // Re-score a copy: modeled_seconds_per_iteration stays the original
    // (uncalibrated) prediction, the calibrated figure rides alongside.
    sched::Placement scored = plan_;
    scheduler_.score(load_, scored);
    result_.calibrated_seconds_per_iteration =
        scored.modeled_seconds_per_iteration;
    double post_drift = 0.0;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      double measured = after.compute_s[i] - before.compute_s[i];
      double modeled = scored.roles[i].compute_seconds;
      if (measured <= 0.0 || modeled <= 0.0) continue;
      double ratio = measured / modeled;
      post_drift = std::max(post_drift, std::max(ratio, 1.0 / ratio));
    }
    result_.compute_drift = post_drift;
    obs::metrics::gauge("sched.compute_drift").set(post_drift);
    log::info("sched") << table.str() << " drift " << pre_drift << "x -> "
                       << post_drift << "x, calibrated modeled="
                       << result_.calibrated_seconds_per_iteration
                       << " s/iter";
  }

  /// Exclude what died, re-place the affected models, and roll every
  /// evolving worker back to the last committed graph checkpoint (restored
  /// integrators resume on its absolute clock; the new bridge carries the
  /// clock offset, the SE mass mappings and the SE cadence phase forward).
  /// Recovery itself is built to survive further faults: every sub-step
  /// that talks to the jungle sits in a bounded retry, so a second death
  /// while re-placing the first is handled, not fatal.
  void recover(const WorkerDiedError& death) {
    obs::trace::Span rollback = obs::trace::span("recover", "fault");
    double recover_start = now();
    obs::metrics::counter("fault.rollbacks").increment();
    // Recovery can itself be interrupted by another death (a double
    // fault): keep recovering until a round goes through cleanly.
    WorkerDiedError current = death;
    for (;;) {
      ++result_.restarts;
      spend_attempt();
      try {
        note_death(current);
        recover_round(current);
        break;
      } catch (const WorkerDiedError& again) {
        current = again;
      }
    }
    completed_ = committed_.epoch;
    obs::metrics::histogram("fault.recover_s").observe(now() - recover_start);
    // The aborted step's partial work must not pollute the replay row's
    // figures: restart the mark at the rollback point.
    mark_ = take_mark();
  }

  void recover_round(const WorkerDiedError& death) {
    bool any_dead = false;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      if (!model_dead(i)) continue;
      any_dead = true;
      if (try_revive(i)) continue;  // in-place restart: keep the slot
      if (plan_.roles[i].local()) {
        throw CodeError("the client machine lost its own worker ('" +
                        spec_.models[i].name + "'); nothing to re-place "
                        "onto");
      }
      exclude_unless_crashed(i);
      replace_slot(i);
    }
    if (!any_dead) {
      // Stale report: nothing is actually dead. Escalate as a plain
      // CodeError — rethrowing the WorkerDiedError would bounce between
      // here and the double-fault retry loop forever.
      throw CodeError(std::string("unrecoverable death report (no model "
                                  "affected): ") +
                      death.what());
    }

    std::vector<std::pair<std::vector<double>, std::vector<double>>> mappings;
    for (std::size_t link = 0, i = 0; i < models_.size(); ++i) {
      if (!models_[i].stellar) continue;
      mappings.push_back(bridge_->se_mapping(link++));
    }
    // All dynamic models share the bridge clock: they roll back together
    // so their restored integrators agree on it. Field and stellar workers
    // are replaced only when they died.
    for (std::size_t i = 0; i < models_.size(); ++i) {
      ModelRuntime& model = models_[i];
      if (model.dynamics() != nullptr || model_dead(i) || model.revived) {
        place_and_restore(i);
      }
    }
    // Fresh clients start with empty delta caches, and restarted workers
    // mint a fresh state-id instance: nothing cached before the rollback
    // (client states, coupler sources/accels) can be mistaken for current
    // content during the replay.
    apply_datapath();

    faultpoint::reach(faultpoint::Point::recover_rebuild, committed_.epoch);
    bridge_ = build_bridge();
    for (std::size_t link = 0; link < mappings.size(); ++link) {
      bridge_->set_se_mapping(std::move(mappings[link].first),
                              std::move(mappings[link].second), link);
    }
    // Re-score the whole post-fault placement so the dashboard's
    // modeled-vs-measured panel describes what is actually running.
    rescore();
  }

  /// Restart model i (unless a supervisor already did) and restore the
  /// committed checkpoint into it. The close/start/restore can itself be
  /// hit by a fault (a fresh host crashing mid-restore, a frontend dying
  /// between the re-place decision and the submit): exclude what failed,
  /// pick another target and try again, within the budget.
  void place_and_restore(std::size_t i) {
    ModelRuntime& model = models_[i];
    for (;;) {
      try {
        // A revived slot keeps its client and relay: the supervised
        // replacement worker is blank, so it only needs the restore.
        if (!model.revived) {
          model.close();
          start_model(i);
        }
        model.restore(committed_, i, spec_.myr_per_nbody_time);
        model.revived = false;  // recovered: a later fault starts afresh
        return;
      } catch (const WorkerDiedError& again) {
        // The replacement (or the machine it landed on) died while we
        // were restoring into it.
        note_death(again);
        if (try_revive(i)) continue;  // another supervised restart
        model.revived = false;  // fall back: rebuild client and placement
        if (plan_.roles[i].local()) throw;
        exclude_unless_crashed(i);
        replace_slot(i);
      } catch (const CodeError& startup) {
        if (plan_.roles[i].local()) throw;
        replace_after_startup_failure(i, startup);
      }
    }
  }

  /// Replacement/retry budget across the whole run — generous enough for
  /// cascaded faults, small enough to turn a re-place livelock (a hole, if
  /// one existed) into a hard error rather than an endless loop.
  void spend_attempt() {
    const int budget = 8 * static_cast<int>(models_.size()) + 8;
    if (++replace_attempts_ > budget) {
      throw CodeError("fault recovery exceeded its replacement budget (" +
                      std::to_string(budget) + " attempts)");
    }
  }

  /// Global exclusions derived from one death report. Per-worker causes
  /// are handled per model (exclude_unless_crashed); this handles what the
  /// report itself names (the crashed host, and its whole resource when the
  /// dead machine is a frontend — jobs submit through it even when the
  /// compute nodes survive).
  void note_death(const WorkerDiedError& death) {
    log::warn("experiment") << "recovering from: " << death.what();
    faultpoint::reach(faultpoint::Point::recover_exclude, -1, death.host());
    if (death.cause() == WorkerDiedError::Cause::host_crash &&
        !death.host().empty()) {
      scheduler_.exclude_host(death.host());
      std::string owner = scheduler_.resource_of(death.host());
      if (!owner.empty()) {
        const gat::Resource& res = bed_.deployer().resource(owner);
        if (res.frontend != nullptr && res.frontend->name() == death.host()) {
          scheduler_.exclude_resource(owner);
        }
      }
    }
  }

  /// Per-worker cause: a crashed host is already excluded; a process crash
  /// blames neither host nor resource (the machine restarted the worker
  /// fine — revive only failed because the node went down meanwhile);
  /// anything else (link fault, timeout, unknown) condemns the whole
  /// resource — the machine may be fine, the route to it is not.
  void exclude_unless_crashed(std::size_t i) {
    RpcClient& rpc = models_[i].rpc();
    if (!rpc.alive() &&
        rpc.death_cause() != WorkerDiedError::Cause::host_crash &&
        rpc.death_cause() != WorkerDiedError::Cause::process_crash) {
      scheduler_.exclude_resource(plan_.roles[i].resource);
    }
  }

  /// The daemon could not start model i's worker (e.g. the frontend died
  /// between the re-place decision and the submit). The resource is not
  /// usable right now — place elsewhere.
  void replace_after_startup_failure(std::size_t i, const CodeError& startup) {
    log::warn("experiment") << "re-placing '" << spec_.models[i].name
                            << "' after startup failure: " << startup.what();
    scheduler_.exclude_resource(plan_.roles[i].resource);
    replace_slot(i);
  }

  /// A model needs re-placing when its client was poisoned *or* its host is
  /// gone and the client just has not noticed yet (no RPC since the crash)
  /// — restarting onto a dead machine would only fail later.
  bool model_dead(std::size_t i) {
    if (!models_[i].rpc().alive()) return true;
    const sched::Assignment& a = plan_.roles[i];
    return !a.local() && a.host != nullptr && !a.host->is_up();
  }

  void replace_slot(std::size_t i) {
    spend_attempt();
    plan_.roles[i] = scheduler_.replace(load_, plan_, static_cast<int>(i));
    // The replacement keeps the spec's kernel parameters, exactly as
    // plan_in installs them at first placement.
    install_model_params(plan_.roles[i], spec_.models[i]);
  }

  /// In-place revive: cause=process_crash means the daemon's supervisor
  /// already restarted the crashed worker on the same node and kept the
  /// relay open — revive the client over the same link and restore state
  /// into the blank replacement. No exclusions, no re-placement; re-placing
  /// stays the fallback tier (the daemon reports host_crash when the node
  /// is gone or its restart budget is spent).
  bool try_revive(std::size_t i) {
    RpcClient& rpc = models_[i].rpc();
    if (rpc.alive() ||
        rpc.death_cause() != WorkerDiedError::Cause::process_crash) {
      return false;
    }
    const sched::Assignment& a = plan_.roles[i];
    if (a.local() || (a.host != nullptr && !a.host->is_up())) return false;
    spend_attempt();
    rpc.revive();
    models_[i].reset_delta_caches();
    models_[i].revived = true;
    log::info("experiment")
        << "worker '" << spec_.models[i].name
        << "' restarted in place; reviving the client on the same link";
    return true;
  }

  /// Re-score the running placement and refresh what the result reports
  /// about it.
  void rescore() {
    scheduler_.score(load_, plan_);
    result_.placement = plan_.describe();
    result_.modeled_seconds_per_iteration = plan_.modeled_seconds_per_iteration;
  }

  /// Final observables. The pipelined path only moved mass+position during
  /// coupling; pull the full states (velocities, internal energy) once for
  /// the diagnostics, plus each model's energies.
  void collect_final_state() {
    for (std::size_t i = 0; i < models_.size(); ++i) {
      if (models_[i].dynamics() == nullptr) continue;
      result_.models.push_back(models_[i].final_state(spec_.models[i]));
    }
    // The other role's state of each model is empty, so concatenating both
    // yields all stars and all gas in declaration order.
    std::vector<double> star_mass, gas_mass, gas_u;
    std::vector<Vec3> star_pos, gas_pos, gas_vel;
    auto append = [](auto& to, const auto& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    for (const ModelResult& model : result_.models) {
      append(star_mass, model.gravity.mass);
      append(star_pos, model.gravity.position);
      append(gas_mass, model.hydro.mass);
      append(gas_pos, model.hydro.position);
      append(gas_vel, model.hydro.velocity);
      append(gas_u, model.hydro.internal_energy);
    }
    if (!gas_mass.empty()) {
      result_.bound_gas_fraction = diagnostics::bound_gas_fraction(
          gas_mass, gas_pos, gas_vel, gas_u, star_mass, star_pos);
    }
  }

  JungleTestbed& bed_;
  const ExperimentSpec& spec_;
  sim::Host& client_;
  sched::Scheduler scheduler_;
  sched::Workload load_;
  sched::Placement plan_;
  DaemonClient daemon_;
  std::vector<ModelRuntime> models_;
  /// The last committed graph-wide checkpoint: one object, installed by a
  /// single move after every model captured — all models commit or none.
  GraphCheckpoint committed_;
  std::unique_ptr<Bridge> bridge_;
  Result result_;

  int replace_attempts_ = 0;
  bool calibrated_ = false;
  int completed_ = 0;
  int attempted_steps_ = 0;
  int restarts_mark_ = 0;
  Mark mark_;  // taken after the last completed step or rollback
};

}  // namespace

Result run_experiment(JungleTestbed& bed, const ExperimentSpec& spec) {
  spec.validate();
  // Shared with the script process: a run that stalls is unwound only when
  // the testbed shuts down, after this call has returned.
  auto runner = std::make_shared<GraphRunner>(bed, spec);
  bed.simulation().spawn("amuse-script", [runner] { runner->script(); });
  bed.simulation().run();
  return runner->finish();
}

Result run_experiment(const ExperimentSpec& spec) {
  JungleTestbed bed;
  return run_experiment(bed, spec);
}

Result run_experiment_config(const util::Config& config) {
  JungleTestbed bed(config);
  return run_experiment(bed, ExperimentSpec::from_config(config));
}

}  // namespace jungle::amuse::experiment
