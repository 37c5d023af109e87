#include "core/campaign_task.h"

#include <algorithm>
#include <limits>

#include "core/fault_matrix.h"
#include "core/injector.h"
#include "core/model_profile.h"
#include "io/yaml.h"
#include "util/hash.h"

namespace alfi::core {

SteeringUnitOutcome CampaignTask::classify_unit(std::size_t t,
                                                const std::string& payload) const {
  (void)t;
  (void)payload;
  throw ConfigError("workload '" + task_kind() +
                    "' does not support campaign steering");
}

std::vector<std::string> CampaignUnitRunner::run_unit_pack(
    const std::vector<std::size_t>& units) {
  std::vector<std::string> payloads;
  payloads.reserve(units.size());
  for (const std::size_t t : units) {
    payloads.push_back(run_unit(t));
  }
  return payloads;
}

void write_fault_bytes(io::ByteWriter& writer, const Fault& fault) {
  writer.write_u8(static_cast<std::uint8_t>(fault.target));
  writer.write_u8(static_cast<std::uint8_t>(fault.value_type));
  writer.write_i64(fault.batch);
  writer.write_i64(fault.layer);
  writer.write_i64(fault.channel_out);
  writer.write_i64(fault.channel_in);
  writer.write_i64(fault.depth);
  writer.write_i64(fault.height);
  writer.write_i64(fault.width);
  writer.write_i64(fault.bit_pos);
  writer.write_f32(fault.number_value);
}

Fault read_fault_bytes(io::ByteReader& reader) {
  Fault fault;
  fault.target = static_cast<FaultTarget>(reader.read_u8());
  fault.value_type = static_cast<ValueType>(reader.read_u8());
  fault.batch = reader.read_i64();
  fault.layer = reader.read_i64();
  fault.channel_out = reader.read_i64();
  fault.channel_in = reader.read_i64();
  fault.depth = reader.read_i64();
  fault.height = reader.read_i64();
  fault.width = reader.read_i64();
  fault.bit_pos = static_cast<int>(reader.read_i64());
  fault.number_value = reader.read_f32();
  return fault;
}

void write_record_bytes(io::ByteWriter& writer, const InjectionRecord& record) {
  write_fault_bytes(writer, record.fault);
  writer.write_u64(record.inference_index);
  writer.write_f32(record.original_value);
  writer.write_f32(record.corrupted_value);
  writer.write_string(record.flip_direction);
}

InjectionRecord read_record_bytes(io::ByteReader& reader) {
  InjectionRecord record;
  record.fault = read_fault_bytes(reader);
  record.inference_index = static_cast<std::size_t>(reader.read_u64());
  record.original_value = reader.read_f32();
  record.corrupted_value = reader.read_f32();
  record.flip_direction = reader.read_string();
  return record;
}

std::uint64_t campaign_fingerprint(const Scenario& scenario,
                                   const FaultMatrix& faults) {
  // The scenario's YAML dump covers every field (including the seed);
  // the fault matrix is digested column by column so a different matrix
  // of the same size still changes the fingerprint.
  std::uint64_t h = fnv1a64(io::dump_yaml(scenario.to_yaml()));
  io::ByteWriter matrix_bytes;
  matrix_bytes.write_u64(faults.size());
  for (const Fault& fault : faults.faults()) {
    write_fault_bytes(matrix_bytes, fault);
  }
  return fnv1a64(matrix_bytes.bytes(), h);
}

std::size_t slot_pack_limit(const FaultMatrix& faults) {
  for (const Fault& fault : faults.faults()) {
    if (fault.target == FaultTarget::kWeights) return 1;
  }
  return std::numeric_limits<std::size_t>::max();
}

std::size_t effective_unit_pack(const CampaignConfigBase& config,
                                const CampaignTask& task) {
  if (config.oracle) return 1;
  return std::clamp<std::size_t>(config.unit_batch, 1,
                                 std::max<std::size_t>(1, task.max_unit_pack()));
}

SteeringCellKey steering_cell_of(const Fault& fault, const ModelProfile& profile) {
  SteeringCellKey key;
  key.layer = fault.layer;
  key.value_type = fault.value_type;
  key.bit_pos = fault.value_type == ValueType::kBitFlip ||
                        fault.value_type == ValueType::kStuckAt0 ||
                        fault.value_type == ValueType::kStuckAt1
                    ? fault.bit_pos
                    : -1;
  if (fault.layer >= 0 &&
      static_cast<std::size_t>(fault.layer) < profile.layer_count()) {
    key.role = nn::layer_kind_name(profile.layer(fault.layer).kind);
  }
  return key;
}

Tensor single_image_batch(const Tensor& image) {
  const Shape& s = image.shape();
  return image.reshaped(Shape{1, s[0], s[1], s[2]});
}

std::size_t diff_prefix_boundary(const Injector& injector,
                                 const nn::InferenceWorkspace& baseline) {
  if (!baseline.planned()) return 0;  // no cached pass to replay from
  std::size_t boundary = nn::InferenceWorkspace::kSkipAllLeaves;
  bool unmapped = false;
  injector.for_each_armed_layer([&](std::size_t layer) {
    const nn::Module* module = injector.profile().layer(layer).module;
    const std::optional<std::size_t> index = baseline.leaf_exec_index(*module);
    if (!index.has_value()) {
      unmapped = true;  // armed layer outside this workspace's pass
      return;
    }
    boundary = std::min(boundary, *index);
  });
  return unmapped ? 0 : boundary;
}

}  // namespace alfi::core
