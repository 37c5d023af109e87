#include "core/test_img_class.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>

#include "core/fleet.h"
#include "io/csv.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace alfi::core {

namespace {

std::string fmt_float(float v) { return strformat("%.6g", v); }

/// Serializes the fault group applied to one image as a compact string:
/// "layer:c_out:c_in:d:h:w:bit" entries joined by ';'.
std::string faults_to_field(const std::vector<Fault>& faults) {
  std::vector<std::string> parts;
  parts.reserve(faults.size());
  for (const Fault& f : faults) {
    parts.push_back(strformat("%lld:%lld:%lld:%lld:%lld:%lld:%d",
                              static_cast<long long>(f.layer),
                              static_cast<long long>(f.channel_out),
                              static_cast<long long>(f.channel_in),
                              static_cast<long long>(f.depth),
                              static_cast<long long>(f.height),
                              static_cast<long long>(f.width), f.bit_pos));
  }
  return join(parts, ";");
}

bool row_has_nonfinite(std::span<const float> row) {
  for (const float v : row) {
    if (std::isnan(v) || std::isinf(v)) return true;
  }
  return false;
}

/// Verdicts and CSV rows produced by evaluating one window of images,
/// merged into the campaign totals in unit order.
struct EvalSink {
  ClassificationKpis kpis;
  std::vector<std::vector<std::string>> result_rows;
  std::vector<std::vector<std::string>> fault_free_rows;
};

/// Outputs of one coupled triple.  The pointers reference either the
/// stack's workspace root slots or the holder tensors below (the
/// allocating path), valid until the next run_triple on the same Triple.
struct Triple {
  const Tensor* orig = nullptr;
  const Tensor* corr = nullptr;
  const Tensor* resil = nullptr;  // null without mitigation
  bool window_due = false;
  Tensor orig_hold, corr_hold, resil_hold;  // allocating-path storage
};

/// Records the verdicts and CSV rows of one window of images evaluated
/// under one armed fault group.  `fault_group_for(i)` names the fault
/// columns reported for image i of the window.  `first_row` offsets the
/// logit rows read for image i (row first_row + i): a packed unit batch
/// evaluates each slot as its own one-image window against the slot's
/// row of the shared output tensors.
void evaluate_window(
    EvalSink& out, std::size_t top_k, bool make_rows, const Tensor& orig_logits,
    const Tensor& corr_logits, const Tensor* resil_logits,
    std::span<const std::size_t> labels, std::span<const data::ImageMeta> metas,
    bool window_monitor_due, std::size_t epoch,
    const std::function<std::vector<Fault>(std::size_t)>& fault_group_for,
    const std::function<std::size_t(std::size_t)>& applied_for,
    std::size_t first_row = 0) {
  const std::size_t k = orig_logits.dim(1);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::size_t row_index = first_row + i;
    const std::span<const float> orig_row{orig_logits.raw() + row_index * k, k};
    const std::span<const float> corr_row{corr_logits.raw() + row_index * k, k};

    const TopK orig_top = topk_of_logits(orig_row, top_k);
    const TopK corr_top = topk_of_logits(corr_row, top_k);
    TopK resil_top;
    if (resil_logits != nullptr) {
      const std::span<const float> resil_row{resil_logits->raw() + row_index * k,
                                             k};
      resil_top = topk_of_logits(resil_row, top_k);
    }

    const bool due = row_has_nonfinite(corr_row) || window_monitor_due;
    const bool sde = !due && corr_top.classes[0] != orig_top.classes[0];

    ++out.kpis.total;
    out.kpis.orig_correct += orig_top.classes[0] == labels[i] ? 1 : 0;
    out.kpis.faulty_correct += corr_top.classes[0] == labels[i] ? 1 : 0;
    out.kpis.due += due ? 1 : 0;
    out.kpis.sde += sde ? 1 : 0;
    if (resil_logits != nullptr) {
      out.kpis.resil_correct += resil_top.classes[0] == labels[i] ? 1 : 0;
      out.kpis.resil_sde +=
          (!due && resil_top.classes[0] != orig_top.classes[0]) ? 1 : 0;
    }

    if (make_rows) {
      std::vector<std::string> row{
          std::to_string(metas[i].image_id), metas[i].file_name,
          std::to_string(labels[i]), due ? "1" : "0", sde ? "1" : "0",
          faults_to_field(fault_group_for(i)), std::to_string(applied_for(i))};
      const auto push_topk = [&row, top_k](const TopK& top) {
        for (std::size_t j = 0; j < top_k; ++j) {
          if (j < top.classes.size()) {
            row.push_back(std::to_string(top.classes[j]));
            row.push_back(fmt_float(top.probs[j]));
          } else {
            row.push_back("");
            row.push_back("");
          }
        }
      };
      push_topk(orig_top);
      push_topk(corr_top);
      push_topk(resil_logits != nullptr ? resil_top : TopK{});
      out.result_rows.push_back(std::move(row));

      if (epoch == 0) {
        std::vector<std::string> ff_row{std::to_string(metas[i].image_id),
                                        metas[i].file_name,
                                        std::to_string(labels[i])};
        for (std::size_t j = 0; j < top_k; ++j) {
          if (j < orig_top.classes.size()) {
            ff_row.push_back(std::to_string(orig_top.classes[j]));
            ff_row.push_back(fmt_float(orig_top.probs[j]));
          } else {
            ff_row.push_back("");
            ff_row.push_back("");
          }
        }
        out.fault_free_rows.push_back(std::move(ff_row));
      }
    }
  }
}

/// Runs the coupled triple with the fault group `arm` installs on
/// `stack`.  The fault-free pass runs on `orig_images`; the corrupted
/// and hardened passes run on `faulty_images`.  A same-image unit pack
/// passes a batch-1 tensor as `orig_images` and its N-fold replication
/// as `faulty_images`, so one shared fault-free pass serves every slot
/// (the broadcast prefix replay, DESIGN.md §12); everywhere else the two
/// are the same tensor.  A packed pass (`slot_count` > 0) snapshots the
/// per-slot monitor verdicts into `slot_due` right after the corrupted
/// pass — the point a serial unit reads its window_due — before the
/// hardened pass can add detections of its own.
void run_triple(InjectionStack& stack, Triple& out, const Tensor& orig_images,
                const Tensor& faulty_images, const std::function<void()>& arm,
                std::size_t slot_count = 0,
                std::vector<std::uint8_t>* slot_due = nullptr) {
  nn::Module& model = stack.model();
  Injector& injector = stack.injector();
  ModelMonitor& monitor = stack.monitor();
  Protection* protection = stack.protection();
  const bool use_ws = stack.ws_orig() != nullptr;
  out.resil = nullptr;
  injector.disarm();
  if (protection != nullptr) protection->set_enabled(false);
  // The fault-free pass observes whole-tensor — a same-image pack runs
  // it batch-1; per-slot monitoring only matters for the armed passes.
  monitor.set_slot_count(0);
  if (use_ws) {
    out.orig = &stack.ws_orig()->run(model, orig_images);
  } else {
    out.orig_hold = model.forward(orig_images);
    out.orig = &out.orig_hold;
  }

  arm();
  monitor.set_slot_count(slot_count);
  monitor.reset();
  // The armed set is fixed for both remaining passes, so one boundary
  // serves corr and resil alike; 0 (the oracle or nothing replayable)
  // makes forward_from a plain full recompute.
  const std::size_t boundary = stack.diff_boundary();
  if (use_ws) {
    out.corr = &model.forward_from(boundary, faulty_images, *stack.ws_corr());
    stack.note_diff(*stack.ws_corr());
  } else {
    out.corr_hold = model.forward(faulty_images);
    out.corr = &out.corr_hold;
  }
  out.window_due = monitor.due_detected();
  if (slot_due != nullptr) {
    slot_due->assign(slot_count, 0);
    for (std::size_t s = 0; s < slot_count; ++s) {
      (*slot_due)[s] = monitor.slot_due(s) ? 1 : 0;
    }
  }

  if (protection != nullptr) {
    protection->set_enabled(true);
    if (use_ws) {
      out.resil = &model.forward_from(boundary, faulty_images, *stack.ws_resil());
      stack.note_diff(*stack.ws_resil());
    } else {
      out.resil_hold = model.forward(faulty_images);
      out.resil = &out.resil_hold;
    }
    protection->set_enabled(false);
  }
  injector.disarm();
  monitor.set_slot_count(0);
  stack.note_arena();
}

void write_rows(io::ByteWriter& w,
                const std::vector<std::vector<std::string>>& rows) {
  w.write_u64(rows.size());
  for (const auto& row : rows) {
    w.write_u64(row.size());
    for (const std::string& field : row) w.write_string(field);
  }
}

std::vector<std::vector<std::string>> read_rows(io::ByteReader& r) {
  std::vector<std::vector<std::string>> rows(r.read_u64());
  for (auto& row : rows) {
    row.resize(r.read_u64());
    for (std::string& field : row) field = r.read_string();
  }
  return rows;
}

/// Unit payload: KPI counter deltas, CSV rows and injection records of
/// one image evaluated under one fault group.  Deterministic in the
/// unit index alone, so journal-replayed and fresh units match.
std::string serialize_unit(const EvalSink& out,
                           const std::vector<InjectionRecord>& records) {
  io::ByteWriter w;
  w.write_u64(out.kpis.total);
  w.write_u64(out.kpis.orig_correct);
  w.write_u64(out.kpis.faulty_correct);
  w.write_u64(out.kpis.resil_correct);
  w.write_u64(out.kpis.sde);
  w.write_u64(out.kpis.due);
  w.write_u64(out.kpis.resil_sde);
  write_rows(w, out.result_rows);
  write_rows(w, out.fault_free_rows);
  w.write_u64(records.size());
  for (const InjectionRecord& record : records) write_record_bytes(w, record);
  return w.take();
}

}  // namespace

/// Per-worker unit engine for the classification campaign: one
/// InjectionStack over a deep-cloned replica, so workers share only
/// read-only state (dataset, fault matrix, calibration bounds).
class ImgClassUnitRunner final : public CampaignUnitRunner {
 public:
  explicit ImgClassUnitRunner(TestErrorModelsImgClass& harness)
      : h_(harness), stack_(harness.make_stack()) {}

  /// Global step t = epoch * dataset_size + img runs image `img` under
  /// fault columns [t*group, (t+1)*group).  The global index keeps
  /// slice positions and trace labels independent of which shard — or
  /// which process, for a resumed campaign — executes the step.
  std::string run_unit(std::size_t t) override {
    const Scenario& scenario = h_.wrapper_.get_scenario();
    const std::size_t group = scenario.max_faults_per_image;
    const data::ClassificationSample sample =
        h_.dataset_.get(t % scenario.dataset_size);
    const Tensor input = single_image_batch(sample.image);
    const std::vector<Fault> faults =
        h_.wrapper_.fault_matrix().slice(t * group, group);

    Injector& injector = stack_.injector();
    injector.clear_records();
    run_triple(stack_, trip_, input, input, [&] {
      injector.set_inference_index(t);
      injector.arm(faults);
    });

    EvalSink out;
    const std::size_t labels[1] = {sample.label};
    const data::ImageMeta metas[1] = {sample.meta};
    const std::size_t applied = injector.records().size();
    evaluate_window(out, h_.config_.top_k, /*make_rows=*/true, *trip_.orig,
                    *trip_.corr, trip_.resil, labels, metas, trip_.window_due,
                    t / scenario.dataset_size, [&](std::size_t) { return faults; },
                    [&](std::size_t) { return applied; });
    return serialize_unit(out, injector.records());
  }

  /// Packed execution (DESIGN.md §12): the given units run as one
  /// triple over a [count, C, H, W] tensor, each unit's fault group
  /// armed on its own batch slot.  The executor strides packs by
  /// dataset_size, so a pack normally holds the SAME image under
  /// different epochs' fault groups — the fault-free pass then runs
  /// batch-1 and is shared by every slot (via the broadcast prefix
  /// replay when diff is on).  Per-slot outputs are evaluated and
  /// serialized exactly as count separate run_unit calls would have —
  /// same rows, same KPIs, same records, same counters.
  std::vector<std::string> run_unit_pack(
      const std::vector<std::size_t>& units) override {
    if (units.size() == 1) return {run_unit(units[0])};
    const std::size_t count = units.size();
    const Scenario& scenario = h_.wrapper_.get_scenario();
    const std::size_t group = scenario.max_faults_per_image;

    bool same_image = true;
    for (std::size_t i = 1; i < count; ++i) {
      if (units[i] % scenario.dataset_size !=
          units[0] % scenario.dataset_size) {
        same_image = false;
        break;
      }
    }

    // Pack the units' input samples along dim 0.
    const data::ClassificationSample probe =
        h_.dataset_.get(units[0] % scenario.dataset_size);
    const Shape& s = probe.image.shape();
    Tensor packed(Shape{count, s[0], s[1], s[2]});
    const std::size_t per_image = probe.image.numel();
    std::vector<std::size_t> labels(count);
    std::vector<data::ImageMeta> metas(count);
    for (std::size_t i = 0; i < count; ++i) {
      const data::ClassificationSample sample =
          h_.dataset_.get(units[i] % scenario.dataset_size);
      std::copy(sample.image.raw(), sample.image.raw() + per_image,
                packed.raw() + i * per_image);
      labels[i] = sample.label;
      metas[i] = sample.meta;
    }
    // A same-image pack computes the fault-free pass once, batch-1.
    const Tensor orig_input = same_image ? single_image_batch(probe.image) : Tensor();

    // Arm every slot's group in one set.  Per-unit serial semantics on
    // a one-image inference: batch <= 0 applies (to slot 0), batch > 0
    // is out of range and skipped.  The packed equivalents: batch <= 0
    // arms on the unit's slot; batch > 0 is pushed past the packed
    // batch (slot count + batch) so the injector's skip accounting
    // fires exactly as it would serially.
    Injector& injector = stack_.injector();
    const auto arm = [&] {
      injector.set_inference_index(units[0]);
      std::vector<Fault> armed;
      armed.reserve(count * group);
      for (std::size_t i = 0; i < count; ++i) {
        for (Fault f : h_.wrapper_.fault_matrix().slice(units[i] * group, group)) {
          if (f.target == FaultTarget::kNeurons) {
            f.batch = f.batch > 0 ? f.batch + static_cast<std::int64_t>(count)
                                  : static_cast<std::int64_t>(i);
          }
          armed.push_back(f);
        }
      }
      injector.arm(std::move(armed));
    };

    std::vector<std::uint8_t> slot_due;
    injector.clear_records();
    run_triple(stack_, trip_, same_image ? orig_input : packed, packed, arm, count,
               &slot_due);

    // A shared fault-free pass produced one logit row; evaluate_window
    // reads the slot's row, so replicate it count ways (identical to
    // what count serial fault-free passes would each have produced).
    Tensor orig_rep;
    const Tensor* orig_logits = trip_.orig;
    if (same_image) {
      const std::size_t k = trip_.orig->dim(1);
      orig_rep = Tensor(Shape{count, k});
      for (std::size_t i = 0; i < count; ++i) {
        std::copy(trip_.orig->raw(), trip_.orig->raw() + k,
                  orig_rep.raw() + i * k);
      }
      orig_logits = &orig_rep;
    }

    const std::vector<std::vector<InjectionRecord>> per_unit_records =
        stack_.split_pack_records(units);
    std::vector<std::string> payloads;
    payloads.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t t = units[i];
      const std::vector<Fault> faults =
          h_.wrapper_.fault_matrix().slice(t * group, group);
      EvalSink out;
      const std::span<const std::size_t> label_span{labels.data() + i, 1};
      const std::span<const data::ImageMeta> meta_span{metas.data() + i, 1};
      evaluate_window(out, h_.config_.top_k, /*make_rows=*/true, *orig_logits,
                      *trip_.corr, trip_.resil, label_span, meta_span,
                      slot_due[i] != 0, t / scenario.dataset_size,
                      [&](std::size_t) { return faults; },
                      [&](std::size_t) { return per_unit_records[i].size(); },
                      /*first_row=*/i);
      payloads.push_back(serialize_unit(out, per_unit_records[i]));
    }
    return payloads;
  }

 private:
  TestErrorModelsImgClass& h_;
  InjectionStack stack_;
  Triple trip_;
};

TestErrorModelsImgClass::TestErrorModelsImgClass(
    nn::Module& model, const data::ClassificationDataset& dataset, Scenario scenario,
    ImgClassCampaignConfig config)
    : model_(model),
      dataset_(dataset),
      config_(std::move(config)),
      wrapper_(model, std::move(scenario), single_image_batch(dataset.get(0).image)) {
  ALFI_CHECK(wrapper_.get_scenario().dataset_size <= dataset.size(),
             "scenario dataset_size exceeds the dataset");
  // The tightly-coupled triple shares one model instance, so weight
  // corruption must be restorable between the three passes; persistence
  // across inferences is modeled by the injection policy instead.
  if (wrapper_.get_scenario().duration != FaultDuration::kTransient) {
    throw ConfigError(
        "the coupled campaign harness requires transient duration; "
        "use inj_policy per_epoch to model persistent faults");
  }
  if (!config_.fault_file.empty()) wrapper_.load_fault_matrix(config_.fault_file);
}

std::size_t TestErrorModelsImgClass::unit_count() const {
  const Scenario& scenario = wrapper_.get_scenario();
  return scenario.dataset_size * scenario.num_runs;
}

std::uint64_t TestErrorModelsImgClass::fingerprint() const {
  // Beyond scenario + fault matrix, the unit payloads also depend on
  // the mitigation choice and top_k — fold them in so a resume with a
  // different configuration is refused.
  io::ByteWriter extra;
  extra.write_string(config_.mitigation ? to_string(*config_.mitigation)
                                        : "none");
  extra.write_u64(config_.top_k);
  return fnv1a64(extra.bytes(),
                 campaign_fingerprint(wrapper_.get_scenario(),
                                      wrapper_.fault_matrix()));
}

void TestErrorModelsImgClass::prepare() {
  const Scenario& scenario = wrapper_.get_scenario();
  const bool write_outputs = !config_.output_dir.empty();

  resolved_backend_ = install_inference_config(model_, scenario, store_);

  kpis_ = {};
  kpis_.has_resil = config_.mitigation.has_value();
  result_rows_.clear();
  fault_free_rows_.clear();
  trace_.clear();
  result_ = {};

  header_ = {"image_id", "file_name", "gt_label", "due", "sde", "faults",
             "applied"};
  for (const char* which : {"orig", "corr", "resil"}) {
    for (std::size_t k = 1; k <= config_.top_k; ++k) {
      header_.push_back(strformat("%s_top%zu_class", which, k));
      header_.push_back(strformat("%s_top%zu_prob", which, k));
    }
  }
  ff_header_ = {"image_id", "file_name", "gt_label"};
  for (std::size_t k = 1; k <= config_.top_k; ++k) {
    ff_header_.push_back(strformat("top%zu_class", k));
    ff_header_.push_back(strformat("top%zu_prob", k));
  }

  check_fault_capacity(scenario, wrapper_.fault_matrix());

  if (write_outputs) {
    std::filesystem::create_directories(config_.output_dir);
    const std::string base = config_.output_dir + "/" + config_.model_name;

    result_.scenario_yml = base + "_scenario.yml";
    io::Json meta = scenario.to_yaml();
    meta["meta"]["model"] = io::Json(config_.model_name);
    meta["meta"]["dataset"] = io::Json(dataset_.name());
    meta["meta"]["mitigation"] =
        io::Json(config_.mitigation ? to_string(*config_.mitigation) : "none");
    io::write_yaml_file(result_.scenario_yml, meta);

    result_.fault_bin = base + "_faults.bin";
    wrapper_.save_fault_matrix(result_.fault_bin);
    result_.results_csv = base + "_results.csv";
    result_.fault_free_csv = base + "_fault_free.csv";
  }

  // Hardened path: profile activation bounds on fault-free calibration
  // batches once, up front — workers install their own Protection over
  // the same bounds, so hardened verdicts match the serial run exactly.
  bounds_ = {};
  if (config_.mitigation) {
    data::ClassificationLoader loader(dataset_, scenario.batch_size);
    std::vector<Tensor> calibration;
    const std::size_t count =
        std::min(config_.calibration_batches, loader.num_batches());
    ALFI_CHECK(count > 0, "no calibration batches available");
    for (std::size_t b = 0; b < count; ++b) {
      calibration.push_back(loader.batch(b).images);
    }
    bounds_ = profile_activation_ranges(model_, calibration);
  }
}

InjectionStack TestErrorModelsImgClass::make_stack() {
  return InjectionStack(
      model_.clone(), single_image_batch(dataset_.get(0).image),
      {wrapper_.get_scenario(), config_, store_ ? &*store_ : nullptr, bounds_,
       metrics_},
      WorkspaceLayout::kPerPass);
}

std::unique_ptr<CampaignUnitRunner> TestErrorModelsImgClass::make_unit_runner() {
  return std::make_unique<ImgClassUnitRunner>(*this);
}

std::size_t TestErrorModelsImgClass::max_unit_pack() const {
  return slot_pack_limit(wrapper_.fault_matrix());
}

std::size_t TestErrorModelsImgClass::unit_pack_stride() const {
  const Scenario& scenario = wrapper_.get_scenario();
  return scenario.num_runs > 1 ? scenario.dataset_size : 1;
}

std::vector<SteeringCellKey> TestErrorModelsImgClass::steering_cells() const {
  const Scenario& scenario = wrapper_.get_scenario();
  if (scenario.inj_policy != InjectionPolicy::kPerImage) return {};
  const std::size_t units = unit_count();
  const std::size_t group = scenario.max_faults_per_image;
  const auto& matrix = wrapper_.fault_matrix();
  if (matrix.size() < units * group) return {};

  std::vector<SteeringCellKey> cells;
  cells.reserve(units);
  for (std::size_t t = 0; t < units; ++t) {
    cells.push_back(steering_cell_of(matrix.faults()[t * group], wrapper_.profile()));
  }
  return cells;
}

SteeringUnitOutcome TestErrorModelsImgClass::classify_unit(
    std::size_t, const std::string& payload) const {
  io::ByteReader r(payload);
  r.read_u64();  // total
  r.read_u64();  // orig_correct
  r.read_u64();  // faulty_correct
  r.read_u64();  // resil_correct
  const std::uint64_t sde = r.read_u64();
  const std::uint64_t due = r.read_u64();
  r.read_u64();  // resil_sde
  read_rows(r);  // result rows
  read_rows(r);  // fault-free rows
  const std::uint64_t record_count = r.read_u64();
  SteeringUnitOutcome outcome;
  outcome.sdc = sde > 0;
  outcome.due = due > 0;
  // No injection record means the armed fault never landed (skipped
  // batch-slot backstop); the unit carries no vulnerability evidence.
  outcome.skipped = record_count == 0;
  return outcome;
}

void TestErrorModelsImgClass::absorb_unit(std::size_t, const std::string& payload) {
  io::ByteReader r(payload);
  kpis_.total += r.read_u64();
  kpis_.orig_correct += r.read_u64();
  kpis_.faulty_correct += r.read_u64();
  kpis_.resil_correct += r.read_u64();
  kpis_.sde += r.read_u64();
  kpis_.due += r.read_u64();
  kpis_.resil_sde += r.read_u64();
  for (auto& row : read_rows(r)) result_rows_.push_back(std::move(row));
  for (auto& row : read_rows(r)) fault_free_rows_.push_back(std::move(row));
  const std::uint64_t num_records = r.read_u64();
  for (std::uint64_t i = 0; i < num_records; ++i) {
    trace_.push_back(read_record_bytes(r));
  }
}

void TestErrorModelsImgClass::finalize() {
  if (!config_.output_dir.empty()) {
    io::CsvWriter results_csv(result_.results_csv, header_, io::WriteMode::kAtomic);
    io::CsvWriter fault_free_csv(result_.fault_free_csv, ff_header_,
                                 io::WriteMode::kAtomic);
    for (const auto& row : result_rows_) results_csv.write_row(row);
    for (const auto& row : fault_free_rows_) fault_free_csv.write_row(row);
    results_csv.close();
    fault_free_csv.close();

    result_.trace_bin = config_.output_dir + "/" + config_.model_name + "_trace.bin";
    save_injection_records(trace_, result_.trace_bin);
  }
  result_.kpis = kpis_;
}

ImgClassCampaignResult TestErrorModelsImgClass::run() {
  const Scenario& scenario = wrapper_.get_scenario();
  const Stopwatch run_watch;
  if (scenario.inj_policy == InjectionPolicy::kPerImage) {
    execute_campaign_task(*this, config_, metrics_);
  } else {
    // Batched windows: one fault group per batch (per_batch) or per
    // epoch (per_epoch).  These policies couple consecutive windows to
    // one armed group, so they run serially and are not
    // unit-addressable — which also rules out the fleet, checkpointing
    // and steering.
    if (config_.fleet.enabled()) {
      throw ConfigError(
          "fleet execution requires inj_policy per_image for classification "
          "(batched policies are not unit-addressable)");
    }
    if (!config_.checkpoint_dir.empty()) {
      throw ConfigError(
          "campaign checkpointing requires inj_policy per_image for "
          "classification (batched policies are not unit-addressable)");
    }
    if (config_.steering.enabled()) {
      throw ConfigError(
          "campaign steering (--budget/--steer/--vuln-map) requires inj_policy "
          "per_image for classification (batched policies are not "
          "unit-addressable)");
    }
    if (config_.jobs != 1) {
      ALFI_LOG(kInfo) << "inj_policy " << to_string(scenario.inj_policy)
                      << " runs serially; --jobs applies to per_image only";
    }
    prepare();
    run_batched();
    finalize();
  }
  result_.skipped_injections =
      metrics_.counter("injections.skipped_batch_slot").value();
  write_campaign_metrics(*this, metrics_, run_watch.elapsed_seconds(),
                         resolved_backend_);
  return result_;
}

/// The batched policies on one replica stack, window by window.  Each
/// window arms its group in closed form: per_batch arms group w (the
/// global window index, also its inference index) with neuron slots
/// remapped onto the window's occupancy; per_epoch arms the epoch's
/// group as drawn under the epoch's inference index.
void TestErrorModelsImgClass::run_batched() {
  const Scenario& scenario = wrapper_.get_scenario();
  const bool per_batch = scenario.inj_policy == InjectionPolicy::kPerBatch;
  const bool write_outputs = !config_.output_dir.empty();
  const std::size_t group = scenario.max_faults_per_image;
  const std::size_t windows_per_epoch =
      (scenario.dataset_size + scenario.batch_size - 1) / scenario.batch_size;
  data::ClassificationLoader loader(dataset_, scenario.batch_size);

  // The batched policies are not unit-addressable, so one armed window
  // is the closest analogue of an executor unit.
  util::Counter& units_total = metrics_.counter("units.total");
  util::Counter& units_computed = metrics_.counter("units.computed");
  util::Histogram& unit_ms = metrics_.histogram("campaign.unit_ms");
  // A short final batch changes the input shape, which replans the
  // workspaces for that window and again on the next epoch's first
  // full batch — correct either way, just two extra plan passes.
  InjectionStack stack = make_stack();
  Injector& injector = stack.injector();
  Triple trip;
  EvalSink out;

  for (std::size_t epoch = 0; epoch < scenario.num_runs; ++epoch) {
    std::size_t images_done = 0;
    for (std::size_t b = 0; images_done < scenario.dataset_size; ++b) {
      const data::ClassificationBatch batch = loader.batch(b);
      const std::size_t use =
          std::min(batch.size(), scenario.dataset_size - images_done);
      const std::size_t window = per_batch ? epoch * windows_per_epoch + b : epoch;
      const std::vector<Fault> faults =
          wrapper_.fault_matrix().slice(window * group, group);

      const Stopwatch window_watch;
      const std::size_t window_base = injector.records().size();
      run_triple(stack, trip, batch.images, batch.images, [&] {
        std::vector<Fault> armed = faults;
        if (per_batch) {
          // A fault drawn for a slot past the scored images of a short
          // final batch lands on window_slot() instead of being skipped.
          for (Fault& f : armed) {
            if (f.target == FaultTarget::kNeurons && f.batch >= 0) {
              f.batch = window_slot(f.batch, use);
            }
          }
        }
        injector.set_inference_index(window);
        injector.arm(std::move(armed));
      });
      evaluate_window(out, config_.top_k, write_outputs, *trip.orig, *trip.corr,
                      trip.resil,
                      std::span<const std::size_t>(batch.labels.data(), use),
                      std::span<const data::ImageMeta>(batch.metas.data(), use),
                      trip.window_due, epoch,
                      [&](std::size_t) { return faults; },
                      [&](std::size_t i) {
                        // A window shares one armed group; attribute each
                        // record to the slot it landed on (weight faults and
                        // batch-agnostic faults corrupt every slot).
                        const auto& recs = injector.records();
                        std::size_t applied = 0;
                        for (std::size_t ri = window_base; ri < recs.size(); ++ri) {
                          const Fault& f = recs[ri].fault;
                          if (f.target == FaultTarget::kWeights || f.batch < 0 ||
                              f.batch == static_cast<std::int64_t>(i)) {
                            ++applied;
                          }
                        }
                        return applied;
                      });
      unit_ms.record(window_watch.elapsed_ms());
      units_total.add();
      units_computed.add();
      images_done += use;
    }
  }
  trace_ = injector.take_records();

  kpis_.merge(out.kpis);
  result_rows_ = std::move(out.result_rows);
  fault_free_rows_ = std::move(out.fault_free_rows);
}

}  // namespace alfi::core
