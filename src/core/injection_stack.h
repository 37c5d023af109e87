// InjectionStack — the per-worker half of a coupled campaign
// (DESIGN.md §7).
//
// Every campaign worker — one per --jobs thread, one per fleet worker,
// and the serial batched-policy loop — runs the fault-free, corrupted
// and hardened passes on its own deep-cloned replica.  The stack owns
// that replica and everything bound to it: its ModelProfile, a bit-exact
// copy of the stored-weight representation, the Injector, the
// ModelMonitor, the optional Protection, the arena workspaces and the
// differential-inference counters.  It hides the two orderings the
// pieces depend on:
//   * hooks fire in registration order — injector, then monitor, then
//     protection — and prefix observers are wired in the same order;
//   * destruction runs in reverse, so the injector restores corrupted
//     weights through a store that is still alive, and every hook is
//     removed before the replica goes.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/campaign_task.h"
#include "core/injector.h"
#include "core/mitigation.h"
#include "core/model_profile.h"
#include "core/monitor.h"
#include "nn/quantize.h"
#include "nn/workspace.h"
#include "util/metrics.h"

namespace alfi::core {

/// Campaign-wide, read-only inputs every worker's stack is built from.
/// The referenced objects must outlive the stacks.
struct InjectionStackSpec {
  const Scenario& scenario;            ///< duration and numeric type
  const CampaignConfigBase& config;    ///< mitigation, oracle
  const nn::StoredWeightStore* store;  ///< primary's stored weights, or null
  const RangeMap& bounds;              ///< mitigation calibration
  util::MetricsRegistry& metrics;
};

/// How the arena path lays out the coupled passes.
enum class WorkspaceLayout {
  /// One workspace per pass, so the three outputs coexist: corr and
  /// resil replay the orig workspace's prefix, with broadcast replay for
  /// a batch-1 orig pass under a same-image pack (classification).
  kPerPass,
  /// One workspace replaying its own previous pass (self-baseline): a
  /// differential pass overwrites only suffix slots, so the prefix keeps
  /// its fault-free values (detection decodes each pass before the next).
  kShared,
};

class InjectionStack {
 public:
  /// Builds the stack over `replica`, a deep clone of the campaign model
  /// taken after prepare() installed its weight representation.
  /// `probe_input` is one batch-1 sample for layer profiling.
  InjectionStack(std::shared_ptr<nn::Module> replica, const Tensor& probe_input,
                 const InjectionStackSpec& spec, WorkspaceLayout layout);

  InjectionStack(const InjectionStack&) = delete;
  InjectionStack& operator=(const InjectionStack&) = delete;

  nn::Module& model() { return *replica_; }
  Injector& injector() { return injector_; }
  ModelMonitor& monitor() { return monitor_; }
  /// Null when the campaign runs without mitigation.
  Protection* protection() { return protection_ ? &*protection_ : nullptr; }

  /// The workspace each pass runs in; null under the oracle, which runs
  /// the allocating forward() path.  Under WorkspaceLayout::kShared all
  /// three are the same one.
  nn::InferenceWorkspace* ws_orig() { return workspace_ ? &ws_orig_ : nullptr; }
  nn::InferenceWorkspace* ws_corr();
  nn::InferenceWorkspace* ws_resil();

  /// Prefix boundary for the armed passes: the earliest armed leaf in
  /// the fault-free pass's execution order, or 0 (full recompute) under
  /// the oracle.
  std::size_t diff_boundary() const;

  /// Counts one differential pass's replay into campaign.diff.*.  Only
  /// the workspace path calls it: the oracle has no workspace to pass.
  void note_diff(const nn::InferenceWorkspace& ws);

  /// Publishes the planned arena footprint to
  /// campaign.arena_high_water_bytes (same plan every unit, so the gauge
  /// is deterministic for any job count).
  void note_arena();

  /// Rewrites the injector's records of one packed pass into per-unit
  /// serial form: the recorded batch slot names the owning unit
  /// (`units[slot]`); a serial unit records batch 0 under its own
  /// inference index.  Bucketing by slot keeps the within-pass firing
  /// order, which equals each serial unit's record order.
  std::vector<std::vector<InjectionRecord>> split_pack_records(
      const std::vector<std::size_t>& units);

 private:
  // Declaration order is destruction order reversed: see the file comment.
  std::shared_ptr<nn::Module> replica_;
  ModelProfile profile_;
  std::optional<nn::StoredWeightStore> store_;
  Injector injector_;
  ModelMonitor monitor_;
  std::optional<Protection> protection_;
  bool workspace_;  // arena workspaces + prefix replay; false = oracle
  WorkspaceLayout layout_;
  nn::InferenceWorkspace ws_orig_, ws_corr_, ws_resil_;
  util::Gauge* arena_gauge_ = nullptr;
  util::Counter* diff_skipped_ = nullptr;  // campaign.diff.layers_skipped
  util::Counter* diff_hits_ = nullptr;     // passes that replayed >= 1 leaf
  util::Counter* diff_misses_ = nullptr;   // passes that fully recomputed
};

/// Resolves and activates the scenario's kernel backend — an
/// unavailable explicit choice fails here, loudly — and installs the
/// weight representation on the campaign model before calibration, so
/// hardened bounds are profiled on the model the campaign runs
/// (DESIGN.md §13).  A stored type builds `store` once: rebuilding from
/// already-dequantized values on an idempotent re-prepare could round
/// scales differently.  Returns the backend's registry name.
std::string install_inference_config(nn::Module& model, const Scenario& scenario,
                                     std::optional<nn::StoredWeightStore>& store);

}  // namespace alfi::core
