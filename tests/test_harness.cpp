// Integration tests: the high-level campaign harnesses end-to-end.
#include "core/test_img_class.h"
#include "core/test_obj_det.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "data/synthetic.h"
#include "io/csv.h"
#include "models/classification.h"
#include "models/train.h"
#include "models/yolo_lite.h"
#include "test_common.h"

namespace alfi::core {
namespace {

/// Shared trained LeNet + dataset to keep harness tests fast.
class ImgClassHarness : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesClassification(
        {.size = 48, .num_classes = 4, .seed = 31});
    model_ = models::make_lenet({.num_classes = 4}).get();
    owned_model_ = models::make_lenet({.num_classes = 4});
    model_ = owned_model_.get();
    models::TrainConfig config;
    config.epochs = 14;
    config.batch_size = 16;
    config.learning_rate = 0.02f;
    models::train_classifier(*model_, *dataset_, config);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    owned_model_.reset();
  }

  static Scenario scenario() {
    Scenario s;
    s.target = FaultTarget::kWeights;
    s.value_type = ValueType::kBitFlip;
    s.rnd_bit_range_lo = 23;  // exponent bits: high impact
    s.rnd_bit_range_hi = 30;
    s.dataset_size = 24;
    s.batch_size = 8;
    s.max_faults_per_image = 1;
    s.rnd_seed = 77;
    return s;
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> owned_model_;
  static nn::Module* model_;
};

data::SyntheticShapesClassification* ImgClassHarness::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> ImgClassHarness::owned_model_;
nn::Module* ImgClassHarness::model_ = nullptr;

TEST_F(ImgClassHarness, ProducesAllThreeOutputSets) {
  test::TempDir dir("campaign");
  ImgClassCampaignConfig config;
  config.model_name = "lenet";
  config.output_dir = dir.str();
  TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), config);
  const ImgClassCampaignResult result = harness.run();

  // a) meta, b) fault binaries, c) result CSVs
  EXPECT_TRUE(std::filesystem::exists(result.scenario_yml));
  EXPECT_TRUE(std::filesystem::exists(result.fault_bin));
  EXPECT_TRUE(std::filesystem::exists(result.trace_bin));
  EXPECT_TRUE(std::filesystem::exists(result.results_csv));
  EXPECT_TRUE(std::filesystem::exists(result.fault_free_csv));

  EXPECT_EQ(result.kpis.total, 24u);
  // fault-free accuracy should be high on the training set
  EXPECT_GT(result.kpis.orig_accuracy(), 0.8);

  const io::CsvTable table = io::read_csv_file(result.results_csv);
  EXPECT_EQ(table.rows.size(), 24u);
  // CSV carries per-image fault positions and top-5 of all three models
  EXPECT_NO_THROW(table.column("faults"));
  EXPECT_NO_THROW(table.column("orig_top1_class"));
  EXPECT_NO_THROW(table.column("corr_top5_prob"));
  EXPECT_NO_THROW(table.column("resil_top1_class"));

  const FaultMatrix faults = FaultMatrix::load(result.fault_bin);
  EXPECT_EQ(faults.size(), 24u);
}

TEST_F(ImgClassHarness, SdeAndDueCountsAreConsistent) {
  ImgClassCampaignConfig config;  // no outputs
  Scenario s = scenario();
  s.dataset_size = 48;
  // Pin to the top exponent bit: flipping it multiplies a weight by
  // ~2^128, which is practically guaranteed to corrupt the output.
  s.rnd_bit_range_lo = 30;
  s.rnd_bit_range_hi = 30;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, config);
  const auto result = harness.run();
  EXPECT_EQ(result.kpis.total, 48u);
  EXPECT_LE(result.kpis.sde + result.kpis.due, result.kpis.total);
  EXPECT_GT(result.kpis.sde + result.kpis.due, 0u);
  // and the faulty model cannot beat the fault-free model
  EXPECT_LE(result.kpis.faulty_correct, result.kpis.orig_correct + 2);
}

TEST_F(ImgClassHarness, FaultFileReuseReproducesVerdictsExactly) {
  test::TempDir dir("reuse");
  ImgClassCampaignConfig config;
  config.model_name = "first";
  config.output_dir = dir.str();
  TestErrorModelsImgClass first(*model_, *dataset_, scenario(), config);
  const auto result1 = first.run();

  ImgClassCampaignConfig config2;
  config2.model_name = "second";
  config2.output_dir = dir.str();
  config2.fault_file = result1.fault_bin;  // replay identical faults
  Scenario s2 = scenario();
  s2.rnd_seed = 999999;  // different seed must not matter
  TestErrorModelsImgClass second(*model_, *dataset_, s2, config2);
  const auto result2 = second.run();

  EXPECT_EQ(result1.kpis.sde, result2.kpis.sde);
  EXPECT_EQ(result1.kpis.due, result2.kpis.due);
  EXPECT_EQ(result1.kpis.faulty_correct, result2.kpis.faulty_correct);
}

TEST_F(ImgClassHarness, MitigationReducesOrMatchesSde) {
  ImgClassCampaignConfig config;
  config.mitigation = MitigationKind::kRanger;
  Scenario s = scenario();
  s.dataset_size = 48;
  s.rnd_bit_range_lo = 28;  // high exponent bits: large excursions Ranger can catch
  s.rnd_bit_range_hi = 30;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, config);
  const auto result = harness.run();
  EXPECT_TRUE(result.kpis.has_resil);
  EXPECT_LE(result.kpis.resil_sde, result.kpis.sde);
}

TEST_F(ImgClassHarness, PerBatchPolicyRuns) {
  ImgClassCampaignConfig config;
  Scenario s = scenario();
  s.inj_policy = InjectionPolicy::kPerBatch;
  s.target = FaultTarget::kNeurons;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, config);
  const auto result = harness.run();
  EXPECT_EQ(result.kpis.total, 24u);
}

TEST_F(ImgClassHarness, PerEpochPolicyRuns) {
  ImgClassCampaignConfig config;
  Scenario s = scenario();
  s.inj_policy = InjectionPolicy::kPerEpoch;
  s.num_runs = 2;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, config);
  const auto result = harness.run();
  EXPECT_EQ(result.kpis.total, 48u);  // 24 images * 2 epochs
}

TEST_F(ImgClassHarness, UndersizedFaultFileFailsBeforeAnyOutput) {
  // Every policy checks the loaded matrix against the groups it arms
  // before writing anything: 24 images at batch 8 arm 3 per_batch
  // windows, and 2 epochs arm 2 per_epoch groups — one fault is short
  // of both.
  Fault f;
  f.target = FaultTarget::kNeurons;
  f.layer = 0;
  f.bit_pos = 0;
  for (const InjectionPolicy policy :
       {InjectionPolicy::kPerImage, InjectionPolicy::kPerBatch,
        InjectionPolicy::kPerEpoch}) {
    const test::TempDir dir("undersized");
    const std::size_t faults = policy == InjectionPolicy::kPerEpoch ? 1 : 2;
    FaultMatrix(std::vector<Fault>(faults, f)).save(dir.file("faults.bin"));
    ImgClassCampaignConfig config;
    config.fault_file = dir.file("faults.bin");
    config.output_dir = dir.file("out");
    Scenario s = scenario();
    s.inj_policy = policy;
    s.target = FaultTarget::kNeurons;
    s.num_runs = 2;
    TestErrorModelsImgClass harness(*model_, *dataset_, s, config);
    EXPECT_THROW(harness.run(), Error) << to_string(policy);
    EXPECT_FALSE(std::filesystem::exists(config.output_dir)) << to_string(policy);
  }
}

TEST_F(ImgClassHarness, PermanentDurationRejected) {
  ImgClassCampaignConfig config;
  Scenario s = scenario();
  s.duration = FaultDuration::kPermanent;
  EXPECT_THROW(TestErrorModelsImgClass(*model_, *dataset_, s, config), ConfigError);
}

TEST_F(ImgClassHarness, DatasetSmallerThanScenarioRejected) {
  ImgClassCampaignConfig config;
  Scenario s = scenario();
  s.dataset_size = 1000;
  EXPECT_THROW(TestErrorModelsImgClass(*model_, *dataset_, s, config), Error);
}

// ---- object detection ---------------------------------------------------------

class ObjDetHarness : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesDetection(
        {.size = 24, .min_objects = 1, .max_objects = 2, .seed = 41});
    detector_ = new models::YoloLite(models::GridSpec{6, 48, 48}, 3, 3);
    models::TrainConfig config;
    config.epochs = 50;
    config.batch_size = 12;
    config.learning_rate = 0.01f;
    models::train_detector(*detector_, *dataset_, config);
  }

  static void TearDownTestSuite() {
    delete detector_;
    detector_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
  }

  static Scenario scenario() {
    Scenario s;
    s.target = FaultTarget::kWeights;
    s.rnd_bit_range_lo = 26;
    s.rnd_bit_range_hi = 30;
    s.dataset_size = 16;
    s.batch_size = 4;
    s.max_faults_per_image = 1;
    s.rnd_seed = 55;
    return s;
  }

  static data::SyntheticShapesDetection* dataset_;
  static models::YoloLite* detector_;
};

data::SyntheticShapesDetection* ObjDetHarness::dataset_ = nullptr;
models::YoloLite* ObjDetHarness::detector_ = nullptr;

TEST_F(ObjDetHarness, ProducesAllOutputSets) {
  test::TempDir dir("objdet");
  ObjDetCampaignConfig config;
  config.model_name = "yolo";
  config.output_dir = dir.str();
  TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), config);
  const ObjDetCampaignResult result = harness.run();

  EXPECT_TRUE(std::filesystem::exists(result.ground_truth_json));
  EXPECT_TRUE(std::filesystem::exists(result.scenario_yml));
  EXPECT_TRUE(std::filesystem::exists(result.fault_bin));
  EXPECT_TRUE(std::filesystem::exists(result.trace_bin));
  EXPECT_TRUE(std::filesystem::exists(result.orig_json));
  EXPECT_TRUE(std::filesystem::exists(result.corr_json));

  EXPECT_EQ(result.ivmod.total, 16u);
  // the trained detector must find objects on its training set
  EXPECT_GT(result.orig_map.ap_50, 0.3);
  // faulty mAP cannot exceed fault-free mAP by much
  EXPECT_LE(result.faulty_map.ap_50, result.orig_map.ap_50 + 0.05);

  // orig detections JSON is valid COCO results format
  const io::Json dets = io::read_json_file(result.orig_json);
  ASSERT_TRUE(dets.is_array());
  if (!dets.as_array().empty()) {
    const io::Json& first = dets.as_array()[0];
    EXPECT_TRUE(first.contains("image_id"));
    EXPECT_TRUE(first.contains("category_id"));
    EXPECT_TRUE(first.contains("bbox"));
    EXPECT_TRUE(first.contains("score"));
  }
}

TEST_F(ObjDetHarness, IvmodCountersConsistent) {
  ObjDetCampaignConfig config;
  TestErrorModelsObjDet harness(*detector_, *dataset_, scenario(), config);
  const auto result = harness.run();
  EXPECT_LE(result.ivmod.sde_images + result.ivmod.due_images, result.ivmod.total);
}

TEST_F(ObjDetHarness, FaultReuseReproducesIvmod) {
  test::TempDir dir("objdet2");
  ObjDetCampaignConfig config;
  config.model_name = "a";
  config.output_dir = dir.str();
  TestErrorModelsObjDet first(*detector_, *dataset_, scenario(), config);
  const auto r1 = first.run();

  ObjDetCampaignConfig config2;
  config2.fault_file = r1.fault_bin;
  Scenario s2 = scenario();
  s2.rnd_seed = 31337;
  TestErrorModelsObjDet second(*detector_, *dataset_, s2, config2);
  const auto r2 = second.run();
  EXPECT_EQ(r1.ivmod.sde_images, r2.ivmod.sde_images);
  EXPECT_EQ(r1.ivmod.due_images, r2.ivmod.due_images);
}

TEST_F(ObjDetHarness, NeuronFaultsRun) {
  ObjDetCampaignConfig config;
  Scenario s = scenario();
  s.target = FaultTarget::kNeurons;
  s.dataset_size = 8;
  TestErrorModelsObjDet harness(*detector_, *dataset_, s, config);
  const auto result = harness.run();
  EXPECT_EQ(result.ivmod.total, 8u);
}

TEST_F(ObjDetHarness, MitigationPathRuns) {
  ObjDetCampaignConfig config;
  config.mitigation = MitigationKind::kRanger;
  Scenario s = scenario();
  s.dataset_size = 8;
  TestErrorModelsObjDet harness(*detector_, *dataset_, s, config);
  const auto result = harness.run();
  EXPECT_TRUE(result.ivmod.has_resil);
  EXPECT_LE(result.ivmod.resil_sde_images, result.ivmod.total);
}

}  // namespace
}  // namespace alfi::core
