// End-to-end non-finite fault sweep: a campaign whose every fault
// writes +Inf or NaN directly into an activation must (a) classify the
// affected units as DUE — never crash, never mis-rank — (b) keep every
// probability column in the results CSVs finite (the topk_of_logits
// softmax guards), and (c) stay byte-stable across executors and
// execution paths (jobs 1 vs 4, the default path vs the oracle).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/fault_generator.h"
#include "core/fault_matrix.h"
#include "core/model_profile.h"
#include "core/test_img_class.h"
#include "data/synthetic.h"
#include "io/csv.h"
#include "models/classification.h"
#include "test_common.h"

namespace alfi::core {
namespace {

class NonfiniteSweep : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesClassification(
        {.size = 12, .num_classes = 10, .seed = 23});
    model_ = models::make_mini_alexnet();
    Rng rng(23);
    nn::kaiming_init(*model_, rng);

    // Draw a normally-shaped neuron fault matrix for valid coordinates,
    // then overwrite every value with +Inf / NaN alternating — the
    // worst-case payloads a real bit flip in the exponent can produce.
    fault_dir_ = new test::TempDir("nonfinite_faults");
    const data::ClassificationSample sample = dataset_->get(0);
    const Shape& s = sample.image.shape();
    const Tensor probe = sample.image.reshaped(Shape{1, s[0], s[1], s[2]});
    ModelProfile profile(*model_, probe);
    Rng fault_rng(scenario().rnd_seed);
    std::vector<Fault> faults =
        generate_fault_matrix(scenario(), profile, fault_rng).faults();
    for (std::size_t i = 0; i < faults.size(); ++i) {
      faults[i].number_value = i % 2 == 0
                                   ? std::numeric_limits<float>::infinity()
                                   : std::numeric_limits<float>::quiet_NaN();
    }
    fault_file_ = fault_dir_->str() + "/nonfinite.bin";
    FaultMatrix(std::move(faults)).save(fault_file_);
  }

  static void TearDownTestSuite() {
    delete fault_dir_;
    fault_dir_ = nullptr;
    delete dataset_;
    dataset_ = nullptr;
    model_.reset();
  }

  static Scenario scenario() {
    Scenario s;
    s.target = FaultTarget::kNeurons;
    s.value_type = ValueType::kRandomValue;
    s.rnd_value_min = -1.0f;
    s.rnd_value_max = 1.0f;
    s.inj_policy = InjectionPolicy::kPerImage;
    s.dataset_size = 12;
    s.num_runs = 1;
    s.max_faults_per_image = 1;
    s.batch_size = 4;
    s.rnd_seed = 91;
    return s;
  }

  static ImgClassCampaignResult run_campaign(bool oracle, std::size_t jobs,
                                             const std::string& dir) {
    ImgClassCampaignConfig config;
    config.model_name = "alexnet";
    config.output_dir = dir;
    config.jobs = jobs;
    config.oracle = oracle;
    config.fault_file = fault_file_;
    TestErrorModelsImgClass harness(*model_, *dataset_, scenario(), config);
    return harness.run();
  }

  /// Every *_prob column of the results CSV parses as a finite float.
  static void expect_finite_probs(const std::string& csv_path) {
    const io::CsvTable table = io::read_csv_file(csv_path);
    for (std::size_t c = 0; c < table.header.size(); ++c) {
      if (!table.header[c].ends_with("_prob")) continue;
      for (const auto& row : table.rows) {
        if (row[c].empty()) continue;  // resil columns without mitigation
        const float v = std::stof(row[c]);
        EXPECT_TRUE(std::isfinite(v))
            << table.header[c] << " = " << row[c] << " in " << csv_path;
      }
    }
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
  static test::TempDir* fault_dir_;
  static std::string fault_file_;
};

data::SyntheticShapesClassification* NonfiniteSweep::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> NonfiniteSweep::model_;
test::TempDir* NonfiniteSweep::fault_dir_ = nullptr;
std::string NonfiniteSweep::fault_file_;

TEST_F(NonfiniteSweep, InfAndNanFaultsYieldStableDueVerdicts) {
  test::TempDir dir("nonfinite_ws1");
  const ImgClassCampaignResult result = run_campaign(false, 1, dir.str());

  // An injected Inf/NaN activation propagates to the logits on this
  // all-linear/conv/pool net, so every unit must be DUE — and DUE
  // excludes SDE by definition.
  EXPECT_EQ(result.kpis.total, 12u);
  EXPECT_EQ(result.kpis.due, 12u);
  EXPECT_EQ(result.kpis.sde, 0u);
  expect_finite_probs(result.results_csv);
  expect_finite_probs(result.fault_free_csv);
}

TEST_F(NonfiniteSweep, VerdictsAreIdenticalAcrossJobsAndInferencePaths) {
  test::TempDir ws1("nonfinite_a");
  test::TempDir ws4("nonfinite_b");
  test::TempDir alloc1("nonfinite_c");
  test::TempDir alloc4("nonfinite_d");
  const auto r_ws1 = run_campaign(false, 1, ws1.str());
  const auto r_ws4 = run_campaign(false, 4, ws4.str());
  const auto r_alloc1 = run_campaign(true, 1, alloc1.str());
  const auto r_alloc4 = run_campaign(true, 4, alloc4.str());

  const std::string golden = test::file_bytes(r_ws1.results_csv);
  EXPECT_EQ(test::file_bytes(r_ws4.results_csv), golden);
  EXPECT_EQ(test::file_bytes(r_alloc1.results_csv), golden);
  EXPECT_EQ(test::file_bytes(r_alloc4.results_csv), golden);
  for (const auto* r : {&r_ws4, &r_alloc1, &r_alloc4}) {
    EXPECT_EQ(r->kpis.due, r_ws1.kpis.due);
    EXPECT_EQ(r->kpis.sde, r_ws1.kpis.sde);
    EXPECT_EQ(r->kpis.faulty_correct, r_ws1.kpis.faulty_correct);
  }
  expect_finite_probs(r_ws4.results_csv);
  expect_finite_probs(r_alloc4.results_csv);
}

}  // namespace
}  // namespace alfi::core
