// Golden bytes for the batched classification policies.  per_batch and
// per_epoch arm one fault group per window (a batch or a whole epoch)
// instead of one per image, so their bytes come from a different arming
// rule than the per_image identity suites cover.  This suite pins FNV-1a
// digests of every artifact such a campaign writes — results CSV,
// fault-free CSV, trace.bin and the metrics.json counter section — over
// per_batch/per_epoch x neuron/weight faults x no mitigation/Ranger.
// dataset_size 10 at batch_size 8 makes every epoch end in a short
// two-image batch, and two epochs make per_batch window indices and
// per_epoch groups run past the first epoch.
//
// A digest changes only when campaign bytes change.  Refactors of the
// execution path must leave every row untouched; a deliberate change
// of campaign semantics updates the table and says so in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>

#include "core/fault_matrix.h"
#include "core/test_img_class.h"
#include "data/synthetic.h"
#include "io/json.h"
#include "models/classification.h"
#include "test_common.h"
#include "util/hash.h"

namespace alfi::core {
namespace {

std::uint64_t file_digest(const std::string& path) {
  return fnv1a64(test::file_bytes(path));
}

struct GoldenCase {
  const char* name;
  InjectionPolicy policy;
  FaultTarget target;
  bool ranger;
  std::uint64_t results_csv;
  std::uint64_t fault_free_csv;
  std::uint64_t trace_bin;
  std::uint64_t counters;
};

void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

class PolicyGolden : public ::testing::TestWithParam<GoldenCase> {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new data::SyntheticShapesClassification(
        {.size = 10, .num_classes = 10, .seed = 53});
    model_ = models::make_mini_alexnet();
    Rng rng(53);
    nn::kaiming_init(*model_, rng);
  }

  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    model_.reset();
  }

  static data::SyntheticShapesClassification* dataset_;
  static std::shared_ptr<nn::Sequential> model_;
};

data::SyntheticShapesClassification* PolicyGolden::dataset_ = nullptr;
std::shared_ptr<nn::Sequential> PolicyGolden::model_;

TEST_P(PolicyGolden, ArtifactsMatchPinnedDigests) {
  const GoldenCase& c = GetParam();
  Scenario s;
  s.target = c.target;
  s.value_type = ValueType::kBitFlip;
  s.rnd_bit_range_lo = 20;
  s.rnd_bit_range_hi = 30;
  s.inj_policy = c.policy;
  s.dataset_size = 10;
  s.batch_size = 8;
  s.num_runs = 2;
  s.max_faults_per_image = 2;
  s.rnd_seed = 9001;

  const test::TempDir dir("policy_golden");
  ImgClassCampaignConfig config;
  config.model_name = "alexnet";
  config.output_dir = dir.str();
  config.metrics_path = dir.file("metrics.json");
  if (c.ranger) config.mitigation = MitigationKind::kRanger;
  TestErrorModelsImgClass harness(*model_, *dataset_, s, config);
  const ImgClassCampaignResult result = harness.run();
  EXPECT_EQ(result.kpis.total, 20u);  // 10 images x 2 epochs

  const std::uint64_t results = file_digest(result.results_csv);
  const std::uint64_t fault_free = file_digest(result.fault_free_csv);
  const std::uint64_t trace = file_digest(result.trace_bin);
  const std::uint64_t counters =
      fnv1a64(io::read_json_file(config.metrics_path).at("counters").dump());
  // The row this run would pin, printed only when a digest differs.
  char row[160];
  std::snprintf(row, sizeof(row),
                "0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL,\n"
                "0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL",
                results, fault_free, trace, counters);
  SCOPED_TRACE(std::string("observed digests:\n") + row);
  EXPECT_EQ(results, c.results_csv);
  EXPECT_EQ(fault_free, c.fault_free_csv);
  EXPECT_EQ(trace, c.trace_bin);
  EXPECT_EQ(counters, c.counters);
}

INSTANTIATE_TEST_SUITE_P(
    BatchedPolicies, PolicyGolden,
    ::testing::Values(
        GoldenCase{"per_batch_neurons", InjectionPolicy::kPerBatch,
                   FaultTarget::kNeurons, false,
                   0x6e22f4102da0f4bbULL, 0x303f319e21be6e75ULL,
                   0xa8b06fa7ca337ee3ULL, 0xf8b5653ef412a6b8ULL},
        GoldenCase{"per_batch_neurons_ranger", InjectionPolicy::kPerBatch,
                   FaultTarget::kNeurons, true,
                   0x4ce4fb0260df9843ULL, 0x303f319e21be6e75ULL,
                   0xf881d1688c2a2589ULL, 0x7b73d76b3f6201f5ULL},
        GoldenCase{"per_batch_weights", InjectionPolicy::kPerBatch,
                   FaultTarget::kWeights, false,
                   0xcccc182ea64b3e6aULL, 0x303f319e21be6e75ULL,
                   0x63bb06046ec8aa98ULL, 0x9e5eb34315c1c10fULL},
        GoldenCase{"per_batch_weights_ranger", InjectionPolicy::kPerBatch,
                   FaultTarget::kWeights, true,
                   0x85dea99e7ecb963eULL, 0x303f319e21be6e75ULL,
                   0x63bb06046ec8aa98ULL, 0x1e5c91f287a0e6afULL},
        GoldenCase{"per_epoch_neurons", InjectionPolicy::kPerEpoch,
                   FaultTarget::kNeurons, false,
                   0xa0f0e70a7ac671a9ULL, 0x303f319e21be6e75ULL,
                   0xa0963eed2681dfe1ULL, 0xf3d62d4b1699a881ULL},
        GoldenCase{"per_epoch_neurons_ranger", InjectionPolicy::kPerEpoch,
                   FaultTarget::kNeurons, true,
                   0xce9d1d55686c6233ULL, 0x303f319e21be6e75ULL,
                   0x6f597e8eb6bee3e9ULL, 0x9ddb21066d61d11cULL},
        GoldenCase{"per_epoch_weights", InjectionPolicy::kPerEpoch,
                   FaultTarget::kWeights, false,
                   0x3f703c8d0859c632ULL, 0x303f319e21be6e75ULL,
                   0x440ca6940ae111b9ULL, 0x97675ab50aae5ed0ULL},
        GoldenCase{"per_epoch_weights_ranger", InjectionPolicy::kPerEpoch,
                   FaultTarget::kWeights, true,
                   0x3e600c334d3865f1ULL, 0x303f319e21be6e75ULL,
                   0x440ca6940ae111b9ULL, 0x36acb7ac1a5f7e80ULL}),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return std::string(info.param.name);
    });

TEST(PerEpochPolicy, WeightFaultsLogOneRecordPerWindow) {
  // 20 images at batch 8 over 2 epochs is 3 windows per epoch, 6 in
  // all.  Each window arms its epoch's single weight fault once, so the
  // trace and injections.weight_applied hold one entry per window and
  // none for the epoch itself.
  const data::SyntheticShapesClassification dataset(
      {.size = 20, .num_classes = 10, .seed = 7});
  const auto model = models::make_classifier("lenet", {});
  Rng rng(7);
  nn::kaiming_init(*model, rng);
  Scenario s;
  s.target = FaultTarget::kWeights;
  s.value_type = ValueType::kBitFlip;
  s.inj_policy = InjectionPolicy::kPerEpoch;
  s.dataset_size = 20;
  s.batch_size = 8;
  s.num_runs = 2;
  s.max_faults_per_image = 1;
  s.rnd_seed = 31;

  const test::TempDir dir("per_epoch_records");
  ImgClassCampaignConfig config;
  config.model_name = "lenet";
  config.output_dir = dir.str();
  config.metrics_path = dir.file("metrics.json");
  TestErrorModelsImgClass harness(*model, dataset, s, config);
  const ImgClassCampaignResult result = harness.run();
  EXPECT_EQ(load_injection_records(result.trace_bin).size(), 6u);
  const io::Json counters =
      io::read_json_file(config.metrics_path).at("counters");
  EXPECT_EQ(counters.at("injections.weight_applied").as_int(), 6);
}

}  // namespace
}  // namespace alfi::core
