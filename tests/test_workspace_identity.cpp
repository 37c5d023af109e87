// Oracle parity: the default execution path — arena workspace
// inference (DESIGN.md §10) with differential prefix replay (§11) —
// against the oracle (CampaignConfigBase::oracle: the allocating
// forward() path, full recompute, one unit per pass).  Every campaign
// artifact must be byte-identical between the two: results CSVs,
// fault/trace binaries, the unit journal, KPIs and every metrics.json
// counter except the `campaign.diff.*` bookkeeping family, which exists
// only where prefixes are replayed.  Covered axes: both harnesses,
// serial and parallel executors, the parallel default against the
// serial oracle, with and without Ranger mitigation.  The *DiffIdentity
// suites rerun those axes with the default path packing units
// (unit_batch 4) and, for classification, faults confined to the
// fully-connected tail, so every replayed prefix spans the whole
// convolutional trunk.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/test_img_class.h"
#include "core/test_obj_det.h"
#include "data/synthetic.h"
#include "io/json.h"
#include "models/classification.h"
#include "models/train.h"
#include "models/yolo_lite.h"
#include "test_common.h"

namespace alfi::core {
namespace {

/// Counter section of metrics.json with the diff-only bookkeeping
/// removed, plus the skip counter itself so tests can assert the
/// default path actually replayed prefixes (identity alone would also
/// hold for a default path that never skipped anything).  The timing
/// section — wall times and gauges such as the arena high-water mark,
/// absent under the oracle — is not part of the contract.
struct CounterView {
  std::string comparable_json;
  std::int64_t layers_skipped = 0;
};

CounterView read_counters(const std::string& metrics_path) {
  CounterView view;
  const io::Json counters = io::read_json_file(metrics_path).at("counters");
  io::Json filtered = io::Json::object();
  for (const auto& [key, value] : counters.as_object()) {
    if (key == "campaign.diff.layers_skipped") {
      view.layers_skipped = value.as_int();
      continue;
    }
    if (key.starts_with("campaign.diff.")) continue;
    filtered.as_object()[key] = value;
  }
  view.comparable_json = filtered.dump();
  return view;
}

// ---- image classification ------------------------------------------------

struct ImgRun {
  ImgClassCampaignResult result;
  CounterView counters;
  std::string journal_bytes;  // empty unless journaling was enabled
};

class WorkspaceIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesClassification(
        {.size = 32, .num_classes = 10, .seed = 17});
    model_ = models::make_mini_alexnet();
    Rng rng(17);
    nn::kaiming_init(*model_, rng);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    model_.reset();
  }

  Scenario scenario(FaultTarget target) const {
    Scenario s;
    s.target = target;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 20;
    s.rnd_bit_range_hi = 30;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.layer_types = layer_types_;
    s.dataset_size = 12;
    s.num_runs = num_runs_;
    s.max_faults_per_image = 2;
    s.batch_size = 8;
    s.rnd_seed = 4242;
    return s;
  }

  ImgRun run_campaign(bool oracle, std::size_t jobs, const std::string& dir,
                      FaultTarget target,
                      std::optional<MitigationKind> mitigation, bool journal) {
    ImgClassCampaignConfig config;
    config.model_name = "alexnet";
    config.output_dir = dir;
    config.mitigation = mitigation;
    config.jobs = jobs;
    config.oracle = oracle;
    config.unit_batch = unit_batch_;  // ignored under the oracle
    config.metrics_path = dir + "/metrics.json";
    if (journal) {
      config.checkpoint_dir = dir + "/ckpt";
      config.checkpoint_every = 4;
    }
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(target),
                                    config);
    ImgRun run;
    run.result = harness.run();
    run.counters = read_counters(config.metrics_path);
    if (journal) {
      run.journal_bytes =
          test::file_bytes(CampaignExecutor::journal_path(config.checkpoint_dir));
    }
    return run;
  }

  void expect_identical(const ImgRun& fast, const ImgRun& oracle) {
    EXPECT_EQ(test::file_bytes(fast.result.results_csv),
              test::file_bytes(oracle.result.results_csv));
    EXPECT_EQ(test::file_bytes(fast.result.fault_free_csv),
              test::file_bytes(oracle.result.fault_free_csv));
    EXPECT_EQ(test::file_bytes(fast.result.fault_bin),
              test::file_bytes(oracle.result.fault_bin));
    EXPECT_EQ(test::file_bytes(fast.result.trace_bin),
              test::file_bytes(oracle.result.trace_bin));
    EXPECT_EQ(fast.counters.comparable_json, oracle.counters.comparable_json);
    EXPECT_EQ(fast.journal_bytes, oracle.journal_bytes);
    EXPECT_EQ(fast.result.kpis.total, oracle.result.kpis.total);
    EXPECT_EQ(fast.result.kpis.sde, oracle.result.kpis.sde);
    EXPECT_EQ(fast.result.kpis.due, oracle.result.kpis.due);
    EXPECT_EQ(fast.result.kpis.orig_correct, oracle.result.kpis.orig_correct);
    EXPECT_EQ(fast.result.kpis.faulty_correct, oracle.result.kpis.faulty_correct);
    EXPECT_EQ(fast.result.kpis.resil_sde, oracle.result.kpis.resil_sde);
    // The default path must have actually replayed prefixes; the oracle
    // must not have.
    EXPECT_GT(fast.counters.layers_skipped, 0);
    EXPECT_EQ(oracle.counters.layers_skipped, 0);
  }

  // Default-path strategy and fault sites; DiffIdentity overrides them.
  std::size_t unit_batch_ = 1;
  std::size_t num_runs_ = 2;
  std::vector<nn::LayerKind> layer_types_;

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* WorkspaceIdentity::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> WorkspaceIdentity::model_;

TEST_F(WorkspaceIdentity, SerialNeuronCampaignIsByteIdenticalAcrossPaths) {
  // --jobs 1 with journaling: the journal append order is deterministic
  // on the serial executor, so the journal bytes are part of the
  // comparison here.
  test::TempDir fast_dir("oracleid_fast1");
  test::TempDir oracle_dir("oracleid_oracle1");
  const auto fast = run_campaign(false, 1, fast_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/true);
  const auto oracle = run_campaign(true, 1, oracle_dir.str(),
                                   FaultTarget::kNeurons, std::nullopt,
                                   /*journal=*/true);
  EXPECT_EQ(fast.result.kpis.total, 24u);  // 12 images * 2 runs
  expect_identical(fast, oracle);
}

TEST_F(WorkspaceIdentity, ParallelNeuronCampaignIsByteIdenticalAcrossPaths) {
  // --jobs 4: merged outputs and counters stay deterministic; the
  // journal is completion-ordered across workers, so it is not part of
  // the parallel comparison (that ordering varies run to run regardless
  // of the execution path).
  test::TempDir fast_dir("oracleid_fast4");
  test::TempDir oracle_dir("oracleid_oracle4");
  const auto fast = run_campaign(false, 4, fast_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/false);
  const auto oracle = run_campaign(true, 4, oracle_dir.str(),
                                   FaultTarget::kNeurons, std::nullopt,
                                   /*journal=*/false);
  expect_identical(fast, oracle);
}

TEST_F(WorkspaceIdentity, WorkspaceParallelMatchesAllocatingSerial) {
  // Cross-check both axes at once: the default path at --jobs 4 must
  // reproduce the serial oracle exactly.
  test::TempDir fast_dir("oracleid_fast4x");
  test::TempDir oracle_dir("oracleid_oracle1x");
  const auto fast = run_campaign(false, 4, fast_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/false);
  const auto oracle = run_campaign(true, 1, oracle_dir.str(),
                                   FaultTarget::kNeurons, std::nullopt,
                                   /*journal=*/false);
  expect_identical(fast, oracle);
}

TEST_F(WorkspaceIdentity, MitigatedWeightCampaignIsByteIdenticalAcrossPaths) {
  // Weight faults + Ranger: exercises the hardened third pass, where
  // Protection clamps the workspace slots in place and its prefix
  // observer can veto replay (out-of-bounds cached activations force
  // materialization).
  test::TempDir fast_dir("oracleid_fastm");
  test::TempDir oracle_dir("oracleid_oraclem");
  const auto fast = run_campaign(false, 1, fast_dir.str(), FaultTarget::kWeights,
                                 MitigationKind::kRanger, /*journal=*/true);
  const auto oracle = run_campaign(true, 1, oracle_dir.str(),
                                   FaultTarget::kWeights, MitigationKind::kRanger,
                                   /*journal=*/true);
  expect_identical(fast, oracle);
}

/// The same comparisons with the default path packing four epochs of
/// one image into each forward pass (weight scenarios clamp the pack to
/// one unit) and faults only in the Linear layers, so prefix replay
/// skips the whole convolutional trunk on every faulty pass.
class DiffIdentity : public WorkspaceIdentity {
 protected:
  DiffIdentity() {
    unit_batch_ = 4;
    num_runs_ = 4;
    layer_types_ = {nn::LayerKind::kLinear};
  }
};

TEST_F(DiffIdentity, SerialNeuronCampaignMatchesFullRecompute) {
  test::TempDir fast_dir("diffid_fast1");
  test::TempDir oracle_dir("diffid_oracle1");
  const auto fast = run_campaign(false, 1, fast_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/true);
  const auto oracle = run_campaign(true, 1, oracle_dir.str(),
                                   FaultTarget::kNeurons, std::nullopt,
                                   /*journal=*/true);
  EXPECT_EQ(fast.result.kpis.total, 48u);  // 12 images * 4 runs
  expect_identical(fast, oracle);
}

TEST_F(DiffIdentity, ParallelNeuronCampaignMatchesFullRecompute) {
  test::TempDir fast_dir("diffid_fast4");
  test::TempDir oracle_dir("diffid_oracle4");
  const auto fast = run_campaign(false, 4, fast_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/false);
  const auto oracle = run_campaign(true, 4, oracle_dir.str(),
                                   FaultTarget::kNeurons, std::nullopt,
                                   /*journal=*/false);
  expect_identical(fast, oracle);
}

TEST_F(DiffIdentity, DiffParallelMatchesFullRecomputeSerial) {
  test::TempDir fast_dir("diffid_fast4x");
  test::TempDir oracle_dir("diffid_oracle1x");
  const auto fast = run_campaign(false, 4, fast_dir.str(), FaultTarget::kNeurons,
                                 std::nullopt, /*journal=*/false);
  const auto oracle = run_campaign(true, 1, oracle_dir.str(),
                                   FaultTarget::kNeurons, std::nullopt,
                                   /*journal=*/false);
  expect_identical(fast, oracle);
}

TEST_F(DiffIdentity, MitigatedWeightCampaignMatchesFullRecompute) {
  test::TempDir fast_dir("diffid_fastm");
  test::TempDir oracle_dir("diffid_oraclem");
  const auto fast = run_campaign(false, 1, fast_dir.str(), FaultTarget::kWeights,
                                 MitigationKind::kRanger, /*journal=*/true);
  const auto oracle = run_campaign(true, 1, oracle_dir.str(),
                                   FaultTarget::kWeights, MitigationKind::kRanger,
                                   /*journal=*/true);
  expect_identical(fast, oracle);
}

// ---- object detection ----------------------------------------------------

class ObjDetWorkspaceIdentity : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesDetection(
        {.size = 16, .min_objects = 1, .max_objects = 2, .seed = 41});
    detector_ = new models::YoloLite(models::GridSpec{6, 48, 48}, 3, 3);
    models::TrainConfig config;
    config.epochs = 8;  // determinism test: accuracy is irrelevant
    config.batch_size = 8;
    config.learning_rate = 0.01f;
    models::train_detector(*detector_, *dataset_, config);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  Scenario scenario() const {
    Scenario s;
    s.target = FaultTarget::kNeurons;
    s.layer_range = layer_range_;
    s.rnd_bit_range_lo = 24;
    s.rnd_bit_range_hi = 30;
    s.dataset_size = 12;
    s.batch_size = 4;
    s.max_faults_per_image = 1;
    s.rnd_seed = 55;
    return s;
  }

  struct DetRun {
    ObjDetCampaignResult result;
    CounterView counters;
  };

  DetRun run_campaign(bool oracle, std::size_t jobs, const std::string& dir,
                      std::optional<MitigationKind> mitigation) const {
    ObjDetCampaignConfig config;
    config.model_name = "yolo";
    config.output_dir = dir;
    config.jobs = jobs;
    config.oracle = oracle;
    config.unit_batch = unit_batch_;  // ignored under the oracle
    config.mitigation = mitigation;
    config.metrics_path = dir + "/metrics.json";
    TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), config);
    DetRun run;
    run.result = harness.run();
    run.counters = read_counters(config.metrics_path);
    return run;
  }

  static void expect_identical(const DetRun& fast, const DetRun& oracle) {
    EXPECT_EQ(test::file_bytes(fast.result.orig_json),
              test::file_bytes(oracle.result.orig_json));
    EXPECT_EQ(test::file_bytes(fast.result.corr_json),
              test::file_bytes(oracle.result.corr_json));
    EXPECT_EQ(test::file_bytes(fast.result.trace_bin),
              test::file_bytes(oracle.result.trace_bin));
    EXPECT_EQ(fast.counters.comparable_json, oracle.counters.comparable_json);
    EXPECT_EQ(fast.result.ivmod.total, oracle.result.ivmod.total);
    EXPECT_EQ(fast.result.ivmod.sde_images, oracle.result.ivmod.sde_images);
    EXPECT_EQ(fast.result.ivmod.due_images, oracle.result.ivmod.due_images);
    EXPECT_EQ(fast.result.orig_map.ap_50, oracle.result.orig_map.ap_50);
    EXPECT_EQ(fast.result.faulty_map.ap_50, oracle.result.faulty_map.ap_50);
    EXPECT_GT(fast.counters.layers_skipped, 0);
    EXPECT_EQ(oracle.counters.layers_skipped, 0);
  }

  // Default-path strategy and fault sites; ObjDetDiffIdentity
  // overrides them.
  std::size_t unit_batch_ = 1;
  std::optional<std::pair<std::size_t, std::size_t>> layer_range_;

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* ObjDetWorkspaceIdentity::dataset_ = nullptr;
models::YoloLite* ObjDetWorkspaceIdentity::detector_ = nullptr;

TEST_F(ObjDetWorkspaceIdentity, DetectionCampaignIsByteIdenticalAcrossPaths) {
  // The detection harness replays through ONE workspace used as its own
  // baseline (self-baseline): passes 2 and 3 only overwrite suffix slots.
  test::TempDir fast_dir("oracleid_det_fast");
  test::TempDir oracle_dir("oracleid_det_oracle");
  const auto fast = run_campaign(false, 1, fast_dir.str(), std::nullopt);
  const auto oracle = run_campaign(true, 1, oracle_dir.str(), std::nullopt);
  expect_identical(fast, oracle);
}

TEST_F(ObjDetWorkspaceIdentity, ParallelDetectionCampaignMatchesSerial) {
  // Ranger-mitigated detection on the default path at --jobs 4 against
  // the serial oracle.
  test::TempDir fast_dir("oracleid_det_fast4");
  test::TempDir oracle_dir("oracleid_det_oracle1");
  const auto fast =
      run_campaign(false, 4, fast_dir.str(), MitigationKind::kRanger);
  const auto oracle =
      run_campaign(true, 1, oracle_dir.str(), MitigationKind::kRanger);
  expect_identical(fast, oracle);
}

/// Detection with the default path packing four units per pass and
/// faults kept out of the first convolution.  A pack replays the
/// prefix up to its earliest armed layer, so a fault in layer 0 on any
/// slot would leave nothing to replay for the whole pack.
class ObjDetDiffIdentity : public ObjDetWorkspaceIdentity {
 protected:
  ObjDetDiffIdentity() {
    unit_batch_ = 4;
    layer_range_ = std::make_pair(std::size_t{1}, std::size_t{3});
  }
};

TEST_F(ObjDetDiffIdentity, SerialDetectionCampaignMatchesFullRecompute) {
  test::TempDir fast_dir("diffid_det_fast");
  test::TempDir oracle_dir("diffid_det_oracle");
  const auto fast = run_campaign(false, 1, fast_dir.str(), std::nullopt);
  const auto oracle = run_campaign(true, 1, oracle_dir.str(), std::nullopt);
  expect_identical(fast, oracle);
}

TEST_F(ObjDetDiffIdentity, ParallelMitigatedDetectionMatchesFullRecompute) {
  test::TempDir fast_dir("diffid_det_fast4");
  test::TempDir oracle_dir("diffid_det_oracle4");
  const auto fast =
      run_campaign(false, 4, fast_dir.str(), MitigationKind::kRanger);
  const auto oracle =
      run_campaign(true, 4, oracle_dir.str(), MitigationKind::kRanger);
  expect_identical(fast, oracle);
}

}  // namespace
}  // namespace alfi::core
