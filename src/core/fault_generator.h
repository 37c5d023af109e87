// Fault generation: Scenario + ModelProfile -> FaultMatrix.
//
// Implements the paper's pre-generation step (§V.C): n = dataset_size *
// num_runs * max_faults_per_image faults are drawn before the inference
// run.  Layer choice is either uniform over the eligible layers or
// weighted by relative layer size (Eq. (1)); the location within the
// layer is uniform over the weight / output tensor; the value is a bit
// position from rnd_bit_range or a number from rnd_value_range.
#pragma once

#include "core/fault_matrix.h"
#include "core/model_profile.h"
#include "core/scenario.h"
#include "util/rng.h"

namespace alfi::core {

/// Indices (into profile.layers()) of the layers the scenario allows.
/// Throws ConfigError if the restrictions exclude every layer.
std::vector<std::size_t> eligible_layers(const Scenario& scenario,
                                         const ModelProfile& profile);

/// Draws one fault into the given layer of the profile.
Fault generate_fault_in_layer(const Scenario& scenario, const LayerInfo& layer,
                              Rng& rng);

/// Draws one fault with scenario-driven layer selection.
Fault generate_fault(const Scenario& scenario, const ModelProfile& profile,
                     const std::vector<std::size_t>& eligible,
                     const std::vector<double>& layer_weights, Rng& rng);

/// Pre-generates the whole campaign's fault matrix (n columns).
FaultMatrix generate_fault_matrix(const Scenario& scenario,
                                  const ModelProfile& profile, Rng& rng);

/// Fault groups a campaign over `scenario` consumes: one per image
/// (per_image), per batch window (per_batch) or per epoch (per_epoch).
std::size_t groups_needed(const Scenario& scenario);

/// Throws unless `faults` holds the groups_needed(scenario) *
/// max_faults_per_image columns the campaign arms — checked before a
/// campaign writes any output, so an undersized loaded fault file fails
/// up front instead of part-way through.
void check_fault_capacity(const Scenario& scenario, const FaultMatrix& faults);

/// Batch slot a per_batch neuron fault drawn for `slot` (against the
/// configured batch_size) lands on in a window scoring `occupancy`
/// images: slot % occupancy.  Full windows keep the drawn slot; the
/// short final batch of a non-divisible dataset re-maps it, so every
/// drawn fault lands on a scored image instead of being skipped.
inline std::int64_t window_slot(std::int64_t slot, std::size_t occupancy) {
  return slot % static_cast<std::int64_t>(occupancy);
}

}  // namespace alfi::core
