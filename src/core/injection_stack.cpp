#include "core/injection_stack.h"

#include "tensor/backend.h"

namespace alfi::core {

InjectionStack::InjectionStack(std::shared_ptr<nn::Module> replica,
                               const Tensor& probe_input,
                               const InjectionStackSpec& spec,
                               WorkspaceLayout layout)
    : replica_(std::move(replica)),
      profile_(*replica_, probe_input),
      // Bit-exact copy of the primary stored representation, rebound onto
      // the replica's parameters (never rebuilt from the dequantized
      // values — scales could round differently).
      store_(spec.store != nullptr
                 ? std::optional<nn::StoredWeightStore>(std::in_place, *replica_,
                                                        *spec.store)
                 : std::nullopt),
      injector_(*replica_, profile_, spec.scenario.duration),
      monitor_(*replica_),
      workspace_(!spec.config.oracle),
      layout_(layout) {
  injector_.set_numeric_type(spec.scenario.numeric_type);
  injector_.set_stored_weights(store_ ? &*store_ : nullptr);
  injector_.set_metrics(&spec.metrics);
  monitor_.set_metrics(&spec.metrics);
  if (spec.config.mitigation) {
    protection_.emplace(*replica_, spec.bounds, *spec.config.mitigation);
    protection_->set_enabled(false);
  }
  if (!workspace_) return;
  arena_gauge_ = &spec.metrics.gauge("campaign.arena_high_water_bytes");
  // The armed passes replay the fault-free pass's prefix; observers
  // follow the hook order on each leaf (the injector has nothing to
  // replay on unarmed layers, the monitor observes, the protection
  // validates its clamp).
  const auto wire = [this](nn::InferenceWorkspace& ws) {
    ws.add_prefix_observer(&monitor_);
    if (protection_) ws.add_prefix_observer(&*protection_);
  };
  if (layout_ == WorkspaceLayout::kShared) {
    ws_orig_.set_prefix_baseline(&ws_orig_);
    wire(ws_orig_);
  } else {
    for (nn::InferenceWorkspace* ws : {&ws_corr_, &ws_resil_}) {
      ws->set_prefix_baseline(&ws_orig_);
      // Same-image packs run the orig pass at batch 1 under a K-row
      // corr/resil pass; every packed row is the same image, so the
      // broadcast-replay row-equality contract holds (DESIGN.md §12).
      ws->set_prefix_broadcast(true);
      wire(*ws);
    }
  }
  diff_skipped_ = &spec.metrics.counter("campaign.diff.layers_skipped");
  diff_hits_ = &spec.metrics.counter("campaign.diff.prefix_hits");
  diff_misses_ = &spec.metrics.counter("campaign.diff.prefix_misses");
}

nn::InferenceWorkspace* InjectionStack::ws_corr() {
  if (!workspace_) return nullptr;
  return layout_ == WorkspaceLayout::kShared ? &ws_orig_ : &ws_corr_;
}

nn::InferenceWorkspace* InjectionStack::ws_resil() {
  if (!workspace_) return nullptr;
  return layout_ == WorkspaceLayout::kShared ? &ws_orig_ : &ws_resil_;
}

std::size_t InjectionStack::diff_boundary() const {
  return workspace_ ? diff_prefix_boundary(injector_, ws_orig_) : 0;
}

void InjectionStack::note_diff(const nn::InferenceWorkspace& ws) {
  const std::size_t reused = ws.prefix_reused_last_run();
  diff_skipped_->add(reused);
  (reused > 0 ? diff_hits_ : diff_misses_)->add();
}

void InjectionStack::note_arena() {
  if (arena_gauge_ != nullptr) {
    arena_gauge_->set(static_cast<double>(ws_corr()->high_water_bytes()));
  }
}

std::vector<std::vector<InjectionRecord>> InjectionStack::split_pack_records(
    const std::vector<std::size_t>& units) {
  std::vector<std::vector<InjectionRecord>> per_unit(units.size());
  for (InjectionRecord& record : injector_.records_mutable()) {
    const std::size_t slot = static_cast<std::size_t>(record.fault.batch);
    record.fault.batch = 0;
    record.inference_index = units[slot];
    per_unit[slot].push_back(record);
  }
  return per_unit;
}

std::string install_inference_config(nn::Module& model, const Scenario& scenario,
                                     std::optional<nn::StoredWeightStore>& store) {
  tensor::Backend& backend = tensor::resolve_backend(scenario.backend);
  tensor::set_active_backend(backend);
  if (nn::is_stored_type(scenario.numeric_type)) {
    if (!store) store.emplace(model, scenario.numeric_type);
  } else if (scenario.numeric_type != nn::NumericType::kFloat32) {
    nn::quantize_parameters(model, scenario.numeric_type);
  }
  return backend.name();
}

}  // namespace alfi::core
