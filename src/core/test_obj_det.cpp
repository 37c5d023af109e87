#include "core/test_obj_det.h"

#include <algorithm>
#include <filesystem>
#include <functional>

#include "core/fleet.h"
#include "util/hash.h"
#include "util/stopwatch.h"

namespace alfi::core {

namespace {

/// COCO results format: flat list of {image_id, category_id, bbox, score}.
io::Json detections_to_coco(const std::vector<std::int64_t>& image_ids,
                            const std::vector<std::vector<models::Detection>>& dets) {
  io::Json arr = io::Json::array();
  for (std::size_t img = 0; img < dets.size(); ++img) {
    for (const models::Detection& det : dets[img]) {
      io::Json entry = io::Json::object();
      entry["image_id"] = io::Json(image_ids[img]);
      entry["category_id"] = io::Json(det.category);
      io::Json bbox = io::Json::array();
      bbox.push_back(io::Json(static_cast<double>(det.box.x)));
      bbox.push_back(io::Json(static_cast<double>(det.box.y)));
      bbox.push_back(io::Json(static_cast<double>(det.box.w)));
      bbox.push_back(io::Json(static_cast<double>(det.box.h)));
      entry["bbox"] = bbox;
      entry["score"] = io::Json(static_cast<double>(det.score));
      arr.push_back(entry);
    }
  }
  return arr;
}

void write_detections(io::ByteWriter& w,
                      const std::vector<models::Detection>& dets) {
  w.write_u64(dets.size());
  for (const models::Detection& det : dets) {
    w.write_f32(det.box.x);
    w.write_f32(det.box.y);
    w.write_f32(det.box.w);
    w.write_f32(det.box.h);
    w.write_u64(det.category);
    w.write_f32(det.score);
  }
}

std::vector<models::Detection> read_detections(io::ByteReader& r) {
  std::vector<models::Detection> dets(r.read_u64());
  for (models::Detection& det : dets) {
    det.box.x = r.read_f32();
    det.box.y = r.read_f32();
    det.box.w = r.read_f32();
    det.box.h = r.read_f32();
    det.category = static_cast<std::size_t>(r.read_u64());
    det.score = r.read_f32();
  }
  return dets;
}

/// Geometry of one work unit: which fault group it arms and which batch
/// slot neuron faults are remapped from.  Closed-form in t so the same
/// unit arms the same faults on any worker, job count or resumed run.
struct UnitAddress {
  std::size_t epoch = 0;
  std::size_t img = 0;
  std::size_t group_start = 0;
  std::size_t slot = 0;  ///< batch slot for per_batch remapping, else 0
  /// Images the unit's conceptual batch actually scores: batch_size for
  /// full batches, fewer for the short final batch of a non-divisible
  /// dataset.  Fault slots are taken modulo this, so a per-batch fault
  /// drawn past the short batch still lands on a scored image instead
  /// of being silently dropped (seed-stable: the drawn matrix is
  /// untouched, only the slot comparison re-maps).
  std::size_t occupancy = 1;
};

UnitAddress address_unit(const Scenario& scenario, std::size_t t) {
  UnitAddress addr;
  addr.epoch = t / scenario.dataset_size;
  addr.img = t % scenario.dataset_size;
  std::size_t group_number = 0;
  switch (scenario.inj_policy) {
    case InjectionPolicy::kPerImage:
      group_number = t;
      break;
    case InjectionPolicy::kPerBatch: {
      const std::size_t batches_per_epoch =
          (scenario.dataset_size + scenario.batch_size - 1) / scenario.batch_size;
      group_number =
          addr.epoch * batches_per_epoch + addr.img / scenario.batch_size;
      addr.slot = addr.img % scenario.batch_size;
      const std::size_t batch_first = addr.img - addr.slot;
      addr.occupancy =
          std::min(scenario.batch_size, scenario.dataset_size - batch_first);
      break;
    }
    case InjectionPolicy::kPerEpoch:
      group_number = addr.epoch;
      break;
  }
  addr.group_start = group_number * scenario.max_faults_per_image;
  return addr;
}

/// True when the unit's addressed neuron fault applies to its image:
/// every slot for batch < 0; for per_batch the drawn slot remapped onto
/// the batch's occupancy must equal the unit's slot; other policies
/// match the slot exactly (generated faults always draw slot 0 there).
bool fault_addresses_unit(const Scenario& scenario, const Fault& fault,
                          const UnitAddress& addr) {
  if (fault.batch < 0) return true;
  if (scenario.inj_policy == InjectionPolicy::kPerBatch) {
    return window_slot(fault.batch, addr.occupancy) ==
           static_cast<std::int64_t>(addr.slot);
  }
  return fault.batch == static_cast<std::int64_t>(addr.slot);
}

}  // namespace

/// Per-worker unit engine for the detection campaign: a
/// Detector::clone() replica whose network carries one InjectionStack.
/// One self-baselined workspace suffices — detect() decodes each pass's
/// output into Detection vectors before the next pass overwrites it.
class ObjDetUnitRunner final : public CampaignUnitRunner {
 public:
  explicit ObjDetUnitRunner(TestErrorModelsObjDet& harness)
      : h_(harness),
        detector_(harness.detector_.clone()),
        stack_(std::shared_ptr<nn::Module>(detector_, &detector_->network()),
               single_image_batch(harness.dataset_.get(0).image),
               harness.stack_spec(), WorkspaceLayout::kShared) {
    detector_->set_workspace(stack_.ws_orig());
  }

  ~ObjDetUnitRunner() override { detector_->set_workspace(nullptr); }

  std::string run_unit(std::size_t t) override {
    const Scenario& scenario = h_.wrapper_.get_scenario();
    const UnitAddress addr = address_unit(scenario, t);
    const std::size_t group = scenario.max_faults_per_image;

    const data::DetectionSample sample = h_.dataset_.get(addr.img);
    const Tensor input = single_image_batch(sample.image);

    // Arms the unit's fault group, remapping each neuron fault's batch
    // slot onto this single-image inference (weight faults apply
    // regardless of slot).  fault_addresses_unit takes the drawn slot
    // modulo the batch's occupancy, so a per-batch fault drawn past a
    // short final batch arms on a scored image instead of vanishing.
    Injector& injector = stack_.injector();
    const auto arm = [&] {
      std::vector<Fault> armed;
      for (const Fault& f :
           h_.wrapper_.fault_matrix().slice(addr.group_start, group)) {
        if (f.target == FaultTarget::kWeights) {
          armed.push_back(f);
        } else if (fault_addresses_unit(scenario, f, addr)) {
          Fault remapped = f;
          remapped.batch = 0;
          armed.push_back(remapped);
        }
      }
      injector.set_inference_index(t);
      injector.arm(std::move(armed));
    };

    injector.clear_records();
    const Passes passes = run_passes(input, arm, 1);

    return payload(addr, sample, passes, 0, injector.records());
  }

  /// Packed execution (DESIGN.md §12): the given units run as one
  /// three-pass sequence over a [count, C, H, W] tensor, each unit's
  /// addressed faults armed on its own batch slot.  detect() already
  /// returns per-slot detection lists, so unpacking is direct;
  /// verdicts, payloads, records and counters match count serial units.
  std::vector<std::string> run_unit_pack(
      const std::vector<std::size_t>& units) override {
    if (units.size() == 1) return {run_unit(units[0])};
    const std::size_t count = units.size();
    const Scenario& scenario = h_.wrapper_.get_scenario();
    const std::size_t group = scenario.max_faults_per_image;

    std::vector<UnitAddress> addrs(count);
    std::vector<data::DetectionSample> samples;
    samples.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      addrs[i] = address_unit(scenario, units[i]);
      samples.push_back(h_.dataset_.get(addrs[i].img));
    }
    const Shape& s = samples[0].image.shape();
    Tensor packed(Shape{count, s[0], s[1], s[2]});
    const std::size_t per_image = samples[0].image.numel();
    for (std::size_t i = 0; i < count; ++i) {
      std::copy(samples[i].image.raw(), samples[i].image.raw() + per_image,
                packed.raw() + i * per_image);
    }

    // Arm every unit's addressed faults on its slot.  max_unit_pack()
    // guarantees no weight faults reach a packed pass (weights are
    // shared across slots).
    Injector& injector = stack_.injector();
    const auto arm = [&] {
      injector.set_inference_index(units[0]);
      std::vector<Fault> armed;
      for (std::size_t i = 0; i < count; ++i) {
        for (const Fault& f :
             h_.wrapper_.fault_matrix().slice(addrs[i].group_start, group)) {
          if (fault_addresses_unit(scenario, f, addrs[i])) {
            Fault remapped = f;
            remapped.batch = static_cast<std::int64_t>(i);
            armed.push_back(remapped);
          }
        }
      }
      injector.arm(std::move(armed));
    };

    injector.clear_records();
    const Passes passes = run_passes(packed, arm, count);
    const std::vector<std::vector<InjectionRecord>> per_unit_records =
        stack_.split_pack_records(units);

    std::vector<std::string> payloads;
    payloads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      payloads.push_back(
          payload(addrs[i], samples[i], passes, i, per_unit_records[i]));
    }
    return payloads;
  }

 private:
  /// Detections of the three coupled passes, one list per batch slot.
  struct Passes {
    std::vector<std::vector<models::Detection>> orig, corr, resil;
    std::vector<bool> due;  ///< per-slot DUE verdict of the faulty pass
  };

  /// Fault-free, faulty and (with mitigation) hardened pass over
  /// `input`'s `slots` images, re-arming `arm`'s group for each armed
  /// pass.  A packed pass (slots > 1) reads per-slot DUE verdicts at the
  /// point a serial unit reads its flag: after the faulty pass, before
  /// the hardened one.
  Passes run_passes(const Tensor& input, const std::function<void()>& arm,
                    std::size_t slots) {
    Injector& injector = stack_.injector();
    ModelMonitor& monitor = stack_.monitor();
    Protection* protection = stack_.protection();
    nn::InferenceWorkspace* ws = stack_.ws_orig();
    const float threshold = h_.config_.conf_threshold;
    Passes passes;
    if (slots > 1) monitor.set_slot_count(slots);

    // ---- pass 1: fault-free -------------------------------------------------
    injector.disarm();
    if (protection != nullptr) protection->set_enabled(false);
    passes.orig = detector_->detect(input, threshold);

    // ---- pass 2: faulty -----------------------------------------------------
    arm();
    monitor.reset();
    // Both remaining passes arm the identical fault group, so one
    // boundary serves pass 2 and pass 3 — which also guarantees pass 3
    // never replays a slot pass 2 overwrote.
    const std::size_t boundary = stack_.diff_boundary();
    if (ws != nullptr) ws->set_prefix_boundary(boundary);
    passes.corr = detector_->detect(input, threshold);
    if (ws != nullptr) stack_.note_diff(*ws);
    if (slots > 1) {
      for (std::size_t i = 0; i < slots; ++i) {
        passes.due.push_back(monitor.slot_due(i));
      }
    } else {
      passes.due.push_back(monitor.due_detected());
    }

    // ---- pass 3: hardened ---------------------------------------------------
    if (protection != nullptr) {
      injector.disarm();
      arm();
      protection->set_enabled(true);
      if (ws != nullptr) ws->set_prefix_boundary(boundary);
      passes.resil = detector_->detect(input, threshold);
      if (ws != nullptr) stack_.note_diff(*ws);
      protection->set_enabled(false);
    }
    injector.disarm();
    monitor.set_slot_count(0);
    stack_.note_arena();
    return passes;
  }

  /// Unit payload of batch slot `slot`: IVMOD verdicts, epoch-0
  /// detections for mAP (evaluated over one pass of the dataset) and the
  /// unit's injection records.
  static std::string payload(const UnitAddress& addr,
                             const data::DetectionSample& sample,
                             const Passes& passes, std::size_t slot,
                             const std::vector<InjectionRecord>& records) {
    const bool mitigated = !passes.resil.empty();
    const bool due = passes.due[slot];
    const auto& orig = passes.orig[slot];
    const bool sde = !due && detections_differ(orig, passes.corr[slot]);
    const bool resil_sde =
        mitigated && !due && detections_differ(orig, passes.resil[slot]);
    io::ByteWriter w;
    w.write_u8(due ? 1 : 0);
    w.write_u8(sde ? 1 : 0);
    w.write_u8(resil_sde ? 1 : 0);
    w.write_u8(addr.epoch == 0 ? 1 : 0);
    if (addr.epoch == 0) {
      w.write_i64(sample.meta.image_id);
      write_detections(w, orig);
      write_detections(w, passes.corr[slot]);
      w.write_u8(mitigated ? 1 : 0);
      if (mitigated) write_detections(w, passes.resil[slot]);
    }
    w.write_u64(records.size());
    for (const InjectionRecord& record : records) write_record_bytes(w, record);
    return w.take();
  }

  TestErrorModelsObjDet& h_;
  std::shared_ptr<models::Detector> detector_;
  InjectionStack stack_;
};

TestErrorModelsObjDet::TestErrorModelsObjDet(models::Detector& detector,
                                             const data::DetectionDataset& dataset,
                                             Scenario scenario,
                                             ObjDetCampaignConfig config)
    : detector_(detector),
      dataset_(dataset),
      config_(std::move(config)),
      wrapper_(detector.network(), std::move(scenario),
               single_image_batch(dataset.get(0).image)) {
  ALFI_CHECK(wrapper_.get_scenario().dataset_size <= dataset.size(),
             "scenario dataset_size exceeds the dataset");
  if (wrapper_.get_scenario().duration != FaultDuration::kTransient) {
    throw ConfigError(
        "the coupled campaign harness requires transient duration; "
        "use inj_policy per_epoch to model persistent faults");
  }
  if (!config_.fault_file.empty()) wrapper_.load_fault_matrix(config_.fault_file);
}

std::size_t TestErrorModelsObjDet::unit_count() const {
  const Scenario& scenario = wrapper_.get_scenario();
  return scenario.dataset_size * scenario.num_runs;
}

std::uint64_t TestErrorModelsObjDet::fingerprint() const {
  io::ByteWriter extra;
  extra.write_string(config_.mitigation ? to_string(*config_.mitigation)
                                        : "none");
  extra.write_f32(config_.conf_threshold);
  return fnv1a64(extra.bytes(),
                 campaign_fingerprint(wrapper_.get_scenario(),
                                      wrapper_.fault_matrix()));
}

void TestErrorModelsObjDet::prepare() {
  const Scenario& scenario = wrapper_.get_scenario();
  const bool write_outputs = !config_.output_dir.empty();

  resolved_backend_ = install_inference_config(detector_.network(), scenario, store_);

  ivmod_ = {};
  ivmod_.has_resil = config_.mitigation.has_value();
  image_ids_.clear();
  ground_truth_.clear();
  orig_all_.clear();
  corr_all_.clear();
  resil_all_.clear();
  trace_.clear();
  result_ = {};

  check_fault_capacity(scenario, wrapper_.fault_matrix());

  if (write_outputs) {
    std::filesystem::create_directories(config_.output_dir);
    const std::string base = config_.output_dir + "/" + config_.model_name;

    result_.ground_truth_json = base + "_ground_truth.json";
    io::write_json_file(result_.ground_truth_json, data::coco_ground_truth(dataset_));

    result_.scenario_yml = base + "_scenario.yml";
    io::Json meta = scenario.to_yaml();
    meta["meta"]["model"] = io::Json(config_.model_name);
    meta["meta"]["dataset"] = io::Json(dataset_.name());
    meta["meta"]["mitigation"] =
        io::Json(config_.mitigation ? to_string(*config_.mitigation) : "none");
    io::write_yaml_file(result_.scenario_yml, meta);

    result_.fault_bin = base + "_faults.bin";
    wrapper_.save_fault_matrix(result_.fault_bin);
  }

  // Mitigation: profile bounds on fault-free calibration images, once,
  // up front — every worker's Protection shares the same bounds.
  bounds_ = {};
  if (config_.mitigation) {
    std::vector<Tensor> calibration;
    const std::size_t count = std::min(config_.calibration_images, dataset_.size());
    ALFI_CHECK(count > 0, "no calibration images available");
    for (std::size_t i = 0; i < count; ++i) {
      calibration.push_back(single_image_batch(dataset_.get(i).image));
    }
    bounds_ = profile_activation_ranges(detector_.network(), calibration);
  }
}

InjectionStackSpec TestErrorModelsObjDet::stack_spec() {
  return {wrapper_.get_scenario(), config_, store_ ? &*store_ : nullptr, bounds_,
          metrics_};
}

std::unique_ptr<CampaignUnitRunner> TestErrorModelsObjDet::make_unit_runner() {
  return std::make_unique<ObjDetUnitRunner>(*this);
}

std::size_t TestErrorModelsObjDet::max_unit_pack() const {
  return slot_pack_limit(wrapper_.fault_matrix());
}

std::vector<SteeringCellKey> TestErrorModelsObjDet::steering_cells() const {
  const Scenario& scenario = wrapper_.get_scenario();
  const std::size_t units = unit_count();
  const std::size_t group = scenario.max_faults_per_image;
  const auto& matrix = wrapper_.fault_matrix();

  std::vector<SteeringCellKey> cells;
  cells.reserve(units);
  for (std::size_t t = 0; t < units; ++t) {
    const UnitAddress addr = address_unit(scenario, t);
    if (addr.group_start + group > matrix.size()) return {};
    cells.push_back(steering_cell_of(matrix.faults()[addr.group_start],
                                     wrapper_.profile()));
  }
  return cells;
}

SteeringUnitOutcome TestErrorModelsObjDet::classify_unit(
    std::size_t, const std::string& payload) const {
  io::ByteReader r(payload);
  SteeringUnitOutcome outcome;
  outcome.due = r.read_u8() != 0;
  outcome.sdc = r.read_u8() != 0;
  r.read_u8();  // resil_sde
  if (r.read_u8() != 0) {  // epoch-0 detections ride along
    r.read_i64();          // image_id
    read_detections(r);    // orig
    read_detections(r);    // corr
    if (r.read_u8() != 0) read_detections(r);  // resil
  }
  // No injection record means the armed fault never landed on this
  // image; the unit carries no vulnerability evidence.
  outcome.skipped = r.read_u64() == 0;
  return outcome;
}

void TestErrorModelsObjDet::absorb_unit(std::size_t t, const std::string& payload) {
  const UnitAddress addr = address_unit(wrapper_.get_scenario(), t);
  io::ByteReader r(payload);

  const bool due = r.read_u8() != 0;
  const bool sde = r.read_u8() != 0;
  const bool resil_sde = r.read_u8() != 0;
  ++ivmod_.total;
  ivmod_.due_images += due ? 1 : 0;
  ivmod_.sde_images += sde ? 1 : 0;
  ivmod_.resil_sde_images += resil_sde ? 1 : 0;

  if (r.read_u8() != 0) {  // epoch-0 detections present
    image_ids_.push_back(r.read_i64());
    ground_truth_.push_back(dataset_.get(addr.img).annotations);
    orig_all_.push_back(read_detections(r));
    corr_all_.push_back(read_detections(r));
    if (r.read_u8() != 0) resil_all_.push_back(read_detections(r));
  }

  const std::uint64_t num_records = r.read_u64();
  for (std::uint64_t i = 0; i < num_records; ++i) {
    trace_.push_back(read_record_bytes(r));
  }
}

void TestErrorModelsObjDet::finalize() {
  const std::size_t num_classes = detector_.num_classes();
  result_.orig_map = evaluate_coco(ground_truth_, orig_all_, num_classes);
  result_.faulty_map = evaluate_coco(ground_truth_, corr_all_, num_classes);
  if (config_.mitigation) {
    result_.resil_map = evaluate_coco(ground_truth_, resil_all_, num_classes);
  }
  result_.ivmod = ivmod_;

  if (!config_.output_dir.empty()) {
    const std::string base = config_.output_dir + "/" + config_.model_name;
    result_.orig_json = base + "_orig_detections.json";
    io::write_json_file(result_.orig_json, detections_to_coco(image_ids_, orig_all_));
    result_.corr_json = base + "_corr_detections.json";
    io::write_json_file(result_.corr_json, detections_to_coco(image_ids_, corr_all_));
    if (config_.mitigation) {
      result_.resil_json = base + "_resil_detections.json";
      io::write_json_file(result_.resil_json,
                          detections_to_coco(image_ids_, resil_all_));
    }
    result_.trace_bin = base + "_trace.bin";
    save_injection_records(trace_, result_.trace_bin);
  }
}

ObjDetCampaignResult TestErrorModelsObjDet::run() {
  const Stopwatch run_watch;
  execute_campaign_task(*this, config_, metrics_);
  result_.skipped_injections =
      metrics_.counter("injections.skipped_batch_slot").value();
  write_campaign_metrics(*this, metrics_, run_watch.elapsed_seconds(),
                         resolved_backend_);
  return result_;
}

}  // namespace alfi::core
