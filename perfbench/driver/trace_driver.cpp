// alfi_trace — the traced half of the campaign benchmark.
//
// Repeats the call sequence of `alfi run-imgclass` / `alfi run-objdet`
// against the repository's libraries and records a span around each
// public call into the data, models, core, nn, tensor and io layers.
// After the campaign it profiles every leaf module on its real input and
// times every conv2d/linear shape the model runs on every registered
// kernel backend (a test-backend-ops style table).
//
// Outputs:
//   --trace-out    Chrome trace-event JSON of all spans
//   --leaf-table   CSV, one row per leaf module
//   --kernel-table CSV, one row per (kernel shape, backend)
//   stdout         one JSON object of per-layer metrics (last line)
//
// Spans stay in memory and are written when the run ends.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/alficore.h"
#include "core/mitigation.h"
#include "data/synthetic.h"
#include "models/classification.h"
#include "models/train.h"
#include "nn/layers.h"
#include "tensor/backend.h"
#include "util/drain.h"
#include "util/logging.h"

using namespace alfi;

namespace {

using Clock = std::chrono::steady_clock;

// ---- spans -----------------------------------------------------------------

struct Span {
  std::string name;
  std::string layer;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int open(const std::string& name, const std::string& layer) {
    Span span{name, layer, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()};
    spans_.push_back(span);
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_).count();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer g_tracer;

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(const std::string& name, const std::string& layer)
      : id_(g_tracer.open(name, layer)) {}
  ~Scope() { g_tracer.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

double span_seconds(const std::string& name) {
  double total = 0.0;
  for (const Span& s : g_tracer.spans()) {
    if (s.name == name) total += (s.end_us - s.start_us) * 1e-6;
  }
  return total;
}

// ---- arguments ---------------------------------------------------------------

struct Options {
  std::string task;          // imgclass | objdet
  std::string arch;          // alexnet | yolo | ...
  std::string scenario;      // YAML path
  std::string output;        // campaign output directory
  std::string mitigation;    // "" | ranger
  std::string checkpoint;    // "" | dir
  std::size_t jobs = 1;
  std::size_t fleet_workers = 0;
  std::size_t leaf_batch = 1;
  std::string trace_out;
  std::string leaf_table;
  std::string kernel_table;
};

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--task") o.task = value;
    else if (key == "--arch") o.arch = value;
    else if (key == "--scenario") o.scenario = value;
    else if (key == "--output") o.output = value;
    else if (key == "--mitigation") o.mitigation = value;
    else if (key == "--checkpoint") o.checkpoint = value;
    else if (key == "--jobs") o.jobs = std::stoul(value);
    else if (key == "--fleet-workers") o.fleet_workers = std::stoul(value);
    else if (key == "--leaf-batch") o.leaf_batch = std::stoul(value);
    else if (key == "--trace-out") o.trace_out = value;
    else if (key == "--leaf-table") o.leaf_table = value;
    else if (key == "--kernel-table") o.kernel_table = value;
    else throw ConfigError("unknown option: " + key);
  }
  if (o.task != "imgclass" && o.task != "objdet") {
    throw ConfigError("--task must be imgclass or objdet");
  }
  if (o.scenario.empty() || o.output.empty()) {
    throw ConfigError("--scenario and --output are required");
  }
  return o;
}

void apply_config(core::CampaignConfigBase& config, const Options& o) {
  config.model_name = o.arch;
  config.output_dir = o.output;
  config.metrics_path = o.output + "/metrics.json";
  config.jobs = o.jobs;
  if (o.mitigation == "ranger") config.mitigation = core::MitigationKind::kRanger;
  if (!o.checkpoint.empty()) {
    config.checkpoint_dir = o.checkpoint;
    install_drain_handlers();
  }
  if (o.fleet_workers > 0) {
    config.fleet.local_workers = o.fleet_workers;
    install_drain_handlers();
  }
}

// ---- per-layer metrics -------------------------------------------------------

std::map<std::string, double> g_metrics;

void absorb_registry(const util::MetricsRegistry& registry) {
  std::map<std::string, std::uint64_t> counters;
  for (const auto& [name, value] : registry.counters()) counters[name] = value;
  auto counter = [&](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  std::map<std::string, const util::Histogram*> histograms;
  for (const auto& [name, h] : registry.histograms()) histograms[name] = h;
  auto percentile = [&](const std::string& name, double p) {
    const auto it = histograms.find(name);
    return it == histograms.end() || it->second->count() == 0
               ? 0.0
               : it->second->percentile(p);
  };
  auto hist_sum_ms = [&](const std::string& name) {
    const auto it = histograms.find(name);
    return it == histograms.end() ? 0.0 : it->second->sum();
  };

  const double computed = counter("units.computed");
  g_metrics["core.units_computed"] = computed;
  g_metrics["core.injections_applied"] =
      counter("injections.applied") + counter("injections.weight_applied");
  g_metrics["core.unit_ms.p50"] = percentile("campaign.unit_ms", 50.0);
  g_metrics["core.unit_ms.p99"] = percentile("campaign.unit_ms", 99.0);

  double lo = 0.0, hi = 0.0;
  bool any = false;
  double arena = 0.0;
  for (const auto& [name, value] : registry.gauges()) {
    if (name == "campaign.arena_high_water_bytes") arena = value;
    if (name.rfind("worker.", 0) == 0 &&
        name.size() > 14 && name.substr(name.size() - 14) == ".units_per_sec") {
      lo = any ? std::min(lo, value) : value;
      hi = any ? std::max(hi, value) : value;
      any = true;
    }
  }
  g_metrics["core.worker_imbalance"] = any && lo > 0.0 ? hi / lo : 1.0;
  g_metrics["nn.arena_high_water_mb"] = arena / (1024.0 * 1024.0);

  const double hits = counter("campaign.diff.prefix_hits");
  const double misses = counter("campaign.diff.prefix_misses");
  g_metrics["nn.diff.hit_rate"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  g_metrics["nn.diff.layers_skipped_per_unit"] =
      computed > 0 ? counter("campaign.diff.layers_skipped") / computed : 0.0;

  g_metrics["io.journal.frames"] = counter("journal.frames");
  g_metrics["io.journal.bytes"] = counter("journal.payload_bytes");
  g_metrics["io.journal.append_ms.p99"] = percentile("journal.append_ms", 99.0);
  g_metrics["io.checkpoint.writes"] = counter("checkpoint.writes");
  g_metrics["io.checkpoint.write_ms.p99"] = percentile("checkpoint.write_ms", 99.0);
  // Journal appends and checkpoint publications run inside the campaign
  // call; their histogram sums are the io layer's self time there.
  g_metrics["io.journal_checkpoint_s"] =
      (hist_sum_ms("journal.append_ms") + hist_sum_ms("checkpoint.write_ms")) * 1e-3;

  g_metrics["fleet.leases_granted"] = counter("fleet.leases_granted");
  g_metrics["fleet.leases_reissued"] = counter("fleet.leases_reissued");
  g_metrics["fleet.worker_deaths"] = counter("fleet.worker_deaths");
}

// ---- leaf and kernel profiles ------------------------------------------------

struct CapturedLeaf {
  std::string path;
  nn::Module* module = nullptr;
  Tensor input;
};

std::vector<CapturedLeaf> capture_leaves(nn::Module& network, const Tensor& batch) {
  std::vector<CapturedLeaf> leaves;
  network.for_each_module([&](const std::string& path, nn::Module& m) {
    if (m.children().empty()) leaves.push_back({path, &m, Tensor()});
  });
  std::vector<nn::HookHandle> handles;
  for (CapturedLeaf& leaf : leaves) {
    handles.push_back(leaf.module->register_forward_hook(
        [&leaf](nn::Module&, const Tensor& input, Tensor&) {
          if (leaf.input.numel() <= 1) leaf.input = input;
        }));
  }
  network.forward(batch);
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    leaves[i].module->remove_forward_hook(handles[i]);
  }
  std::erase_if(leaves, [](const CapturedLeaf& l) { return l.input.numel() <= 1; });
  return leaves;
}

/// Median wall time (ms) of fn() over at least 5 calls and ~20 ms.
template <class Fn>
double median_ms(Fn&& fn) {
  std::vector<double> samples;
  const auto begin = Clock::now();
  while (samples.size() < 5 ||
         (std::chrono::duration<double, std::milli>(Clock::now() - begin).count() < 20.0 &&
          samples.size() < 1000)) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

std::string leaf_kind(const nn::Module& m) {
  const std::string type = m.type();
  if (type == "Conv2d") return "conv2d";
  if (type == "Linear") return "linear";
  if (core::is_activation_layer(m)) return "activation";
  if (type == "MaxPool2d" || type == "AvgPool2d" || type == "GlobalAvgPool2d") return "pool";
  return "other";
}

void profile_leaves(nn::Module& network, const std::vector<CapturedLeaf>& leaves,
                    std::size_t batch, bool mitigation, const std::string& table_path) {
  std::map<std::string, double> kind_ms;
  for (const char* kind : {"conv2d", "linear", "activation", "pool", "mitigation", "other"}) {
    kind_ms[kind] = 0.0;
  }
  std::vector<std::vector<std::string>> rows;
  std::map<const nn::Module*, double> plain_ms;
  for (const CapturedLeaf& leaf : leaves) {
    const double ms = median_ms([&] { (void)leaf.module->forward(leaf.input); });
    plain_ms[leaf.module] = ms;
    kind_ms[leaf_kind(*leaf.module)] += ms;
    rows.push_back({leaf.path, leaf.module->type(), leaf_kind(*leaf.module),
                    std::to_string(ms / static_cast<double>(batch))});
  }
  if (mitigation) {
    // Ranger clamps activation outputs through forward hooks; its cost is
    // the activation leaf's time with the hook minus without it.
    std::vector<Tensor> calibration{leaves.front().input};
    const core::RangeMap bounds = core::profile_activation_ranges(network, calibration);
    core::Protection protection(network, bounds, core::MitigationKind::kRanger);
    for (const CapturedLeaf& leaf : leaves) {
      if (!core::is_activation_layer(*leaf.module)) continue;
      const double ms = median_ms([&] { (void)leaf.module->forward(leaf.input); });
      const double extra = std::max(0.0, ms - plain_ms[leaf.module]);
      kind_ms["mitigation"] += extra;
      rows.push_back({leaf.path + "+ranger", "Ranger", "mitigation",
                      std::to_string(extra / static_cast<double>(batch))});
    }
  }
  for (const auto& [kind, ms] : kind_ms) {
    g_metrics["nn.leaf." + kind + ".ms_per_image"] = ms / static_cast<double>(batch);
  }
  std::ofstream out(table_path);
  out << "leaf,type,kind,ms_per_image\n";
  for (const auto& row : rows) out << row[0] << ',' << row[1] << ',' << row[2] << ',' << row[3] << '\n';
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    const double d = std::fabs(static_cast<double>(a.raw()[i]) - b.raw()[i]);
    if (std::isnan(d)) return INFINITY;
    worst = std::max(worst, d);
  }
  return worst;
}

void profile_kernels(const std::vector<CapturedLeaf>& leaves, std::size_t batch,
                     const std::string& table_path) {
  std::ofstream out(table_path);
  out << "op,shape,backend,flop,ms,gflops,max_abs_diff_vs_ref\n";
  std::map<std::string, double> flop_total, ms_total;
  double flop_per_forward = 0.0;
  for (const CapturedLeaf& leaf : leaves) {
    const std::string type = leaf.module->type();
    if (type != "Conv2d" && type != "Linear") continue;
    auto* m = leaf.module;
    const Tensor& weight = m->weight_param()->value;
    const Tensor& bias = m->bias_param()->value;
    const Tensor& in = leaf.input;
    std::string op, shape;
    double flop = 0.0;
    Shape out_shape;
    std::optional<ops::Conv2dPlan> plan;
    std::size_t scratch_floats = 0;
    if (type == "Conv2d") {
      const auto& conv = static_cast<const nn::Conv2d&>(*m);
      const ops::Conv2dSpec spec{conv.stride(), conv.padding()};
      const std::size_t oh = ops::conv_out_size(in.dim(2), conv.kernel(), spec.stride, spec.padding);
      const std::size_t ow = ops::conv_out_size(in.dim(3), conv.kernel(), spec.stride, spec.padding);
      out_shape = Shape{in.dim(0), conv.out_channels(), oh, ow};
      plan = ops::make_conv2d_plan(in.shape(), weight.shape(), spec);
      scratch_floats = weight.dim(1) * conv.kernel() * conv.kernel() * oh * ow;
      flop = 2.0 * static_cast<double>(in.dim(0) * conv.out_channels() * oh * ow) *
             static_cast<double>(weight.dim(1) * conv.kernel() * conv.kernel());
      op = "conv2d";
      std::ostringstream s;
      s << "in" << in.dim(0) << 'x' << in.dim(1) << 'x' << in.dim(2) << 'x' << in.dim(3)
        << "_k" << conv.kernel() << "_s" << spec.stride << "_p" << spec.padding << "_oc"
        << conv.out_channels();
      shape = s.str();
    } else {
      out_shape = Shape{in.dim(0), weight.dim(0)};
      flop = 2.0 * static_cast<double>(in.dim(0) * weight.dim(0) * weight.dim(1));
      op = "linear";
      shape = "n" + std::to_string(in.dim(0)) + "_in" + std::to_string(weight.dim(1)) +
              "_out" + std::to_string(weight.dim(0));
    }
    flop_per_forward += flop;
    std::vector<float> scratch(std::max<std::size_t>(scratch_floats, 1));
    auto run_on = [&](const tensor::Backend& backend, Tensor& dst) {
      if (plan) {
        backend.conv2d_planned(dst, in, weight, bias, *plan, scratch);
      } else {
        backend.linear_forward(dst, in, weight, bias);
      }
    };
    Tensor ref_out(out_shape);
    run_on(tensor::ref_backend(), ref_out);
    for (tensor::Backend* backend : tensor::registered_backends()) {
      Tensor dst(out_shape);
      const double ms = median_ms([&] { run_on(*backend, dst); });
      const std::string name = backend->name();
      const double diff = max_abs_diff(dst, ref_out);
      flop_total[op + "." + name] += flop;
      ms_total[op + "." + name] += ms;
      out << op << ',' << shape << ',' << name << ',' << flop << ',' << ms << ','
          << flop / (ms * 1e6) << ',' << diff << '\n';
      auto& worst = g_metrics["tensor." + op + "." + name + ".max_abs_diff"];
      worst = std::max(worst, diff);
    }
  }
  for (tensor::Backend* backend : tensor::registered_backends()) {
    for (const char* op : {"conv2d", "linear"}) {
      const std::string key = std::string(op) + "." + backend->name();
      g_metrics["tensor." + key + ".gflops"] =
          ms_total[key] > 0.0 ? flop_total[key] / (ms_total[key] * 1e6) : 0.0;
    }
  }
  g_metrics["tensor.gflop_per_image"] = flop_per_forward / static_cast<double>(batch) * 1e-9;
}

std::uintmax_t directory_bytes(const std::string& dir) {
  std::uintmax_t total = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

Tensor stack_images(const std::vector<Tensor>& images) {
  const Shape& s = images.front().shape();
  Tensor batch(Shape{images.size(), s[0], s[1], s[2]});
  const std::size_t n = images.front().numel();
  for (std::size_t i = 0; i < images.size(); ++i) {
    std::copy(images[i].raw(), images[i].raw() + n, batch.raw() + i * n);
  }
  return batch;
}

// ---- the two CLI call sequences ------------------------------------------------

/// Mirrors cmd_run_imgclass; returns the network and a leaf-profile batch.
Tensor run_imgclass(const Options& o, std::shared_ptr<nn::Module>& network_out) {
  core::Scenario scenario;
  {
    Scope s("core.scenario_load", "core");
    scenario = core::Scenario::from_yaml_file(o.scenario);
    scenario.validate();
  }
  data::ClassificationConfig data_config;
  data_config.size = std::max<std::size_t>(scenario.dataset_size, 128);
  data_config.seed = 99;
  std::unique_ptr<data::SyntheticShapesClassification> dataset;
  std::vector<Tensor> first_images;
  {
    // Rendering is lazy; the first get() of every index renders it.
    Scope s("data.render", "data");
    dataset = std::make_unique<data::SyntheticShapesClassification>(data_config);
    for (std::size_t i = 0; i < dataset->size(); ++i) {
      auto sample = dataset->get(i);
      if (i < o.leaf_batch) first_images.push_back(sample.image);
    }
  }
  core::ImgClassCampaignConfig config;
  apply_config(config, o);

  std::shared_ptr<nn::Sequential> model;
  {
    Scope s("models.make", "models");
    model = models::make_classifier(o.arch, {});
  }
  {
    Scope s("models.load", "models");
    models::TrainConfig train_config;
    train_config.epochs = 30;
    train_config.batch_size = 32;
    train_config.learning_rate = 0.02f;
    std::filesystem::create_directories("alfi_cache");
    models::train_classifier_cached(*model, *dataset, train_config,
                                    "alfi_cache/cli_" + o.arch + ".params");
  }
  {
    Scope s("models.eval", "models");
    const float accuracy = models::evaluate_classifier(*model, *dataset);
    std::fprintf(stderr, "fault-free accuracy %.3f\n", static_cast<double>(accuracy));
  }
  g_metrics["models.eval_images"] = static_cast<double>(dataset->size());
  {
    std::unique_ptr<core::TestErrorModelsImgClass> harness;
    {
      Scope s("core.plan", "core");
      harness = std::make_unique<core::TestErrorModelsImgClass>(*model, *dataset, scenario,
                                                                 config);
    }
    {
      Scope s("core.campaign", "core");
      harness->run();
    }
    absorb_registry(harness->metrics());
  }
  network_out = model;
  return stack_images(first_images);
}

/// Mirrors cmd_run_objdet.
Tensor run_objdet(const Options& o, std::unique_ptr<models::Detector>& detector_out) {
  core::Scenario scenario;
  {
    Scope s("core.scenario_load", "core");
    scenario = core::Scenario::from_yaml_file(o.scenario);
    scenario.validate();
  }
  data::DetectionConfig data_config;
  data_config.size = std::max<std::size_t>(scenario.dataset_size, 48);
  data_config.seed = 41;
  std::unique_ptr<data::SyntheticShapesDetection> dataset;
  std::vector<Tensor> first_images;
  {
    Scope s("data.render", "data");
    dataset = std::make_unique<data::SyntheticShapesDetection>(data_config);
    for (std::size_t i = 0; i < dataset->size(); ++i) {
      auto sample = dataset->get(i);
      if (i < o.leaf_batch) first_images.push_back(sample.image);
    }
  }
  scenario.dataset_size = std::min(scenario.dataset_size, dataset->size());
  core::ObjDetCampaignConfig config;
  apply_config(config, o);

  std::unique_ptr<models::Detector> detector;
  {
    Scope s("models.make", "models");
    detector = models::make_detector(o.arch, models::GridSpec{6, 48, 48}, 3, 3);
  }
  {
    Scope s("models.load", "models");
    models::TrainConfig train_config;
    train_config.epochs = 50;
    train_config.batch_size = 16;
    train_config.learning_rate = 0.01f;
    std::filesystem::create_directories("alfi_cache");
    models::train_detector_cached(*detector, *dataset, train_config,
                                  "alfi_cache/cli_" + o.arch + ".params");
  }
  {
    Scope s("models.eval", "models");
    const float recall = models::evaluate_detector_recall(*detector, *dataset, 0.4f);
    std::fprintf(stderr, "fault-free recall %.3f\n", static_cast<double>(recall));
  }
  g_metrics["models.eval_images"] = static_cast<double>(dataset->size());
  {
    std::unique_ptr<core::TestErrorModelsObjDet> harness;
    {
      Scope s("core.plan", "core");
      harness = std::make_unique<core::TestErrorModelsObjDet>(*detector, *dataset, scenario,
                                                               config);
    }
    {
      Scope s("core.campaign", "core");
      harness->run();
    }
    absorb_registry(harness->metrics());
  }
  detector_out = std::move(detector);
  return stack_images(first_images);
}

void write_trace(const std::string& path) {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  const auto& spans = g_tracer.spans();
  const int pid = static_cast<int>(getpid());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, "
                  "\"dur\": %.3f, \"pid\": %d, \"tid\": 0, \"args\": {\"id\": %zu, "
                  "\"parent\": %d}}%s\n",
                  s.name.c_str(), s.layer.c_str(), s.start_us, s.end_us - s.start_us, pid, i,
                  s.parent, i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    set_log_level(LogLevel::kWarn);
    const Options o = parse_options(argc, argv);
    const int root = g_tracer.open("driver", "driver");

    Tensor leaf_batch;
    std::shared_ptr<nn::Module> classifier;
    std::unique_ptr<models::Detector> detector;
    const double cli_begin = g_tracer.now_us();
    if (o.task == "imgclass") {
      leaf_batch = run_imgclass(o, classifier);
    } else {
      leaf_batch = run_objdet(o, detector);
    }
    {
      Scope s("io.output_scan", "io");
      g_metrics["io.output_bytes"] = static_cast<double>(directory_bytes(o.output));
    }
    const double cli_seconds = (g_tracer.now_us() - cli_begin) * 1e-6;

    nn::Module& network = classifier ? *classifier : detector->network();
    network.set_training(false);
    std::vector<CapturedLeaf> leaves;
    {
      Scope s("nn.leaf_capture", "nn");
      leaves = capture_leaves(network, leaf_batch);
    }
    {
      Scope s("nn.leaf_profile", "nn");
      profile_leaves(network, leaves, o.leaf_batch, o.mitigation == "ranger", o.leaf_table);
    }
    {
      Scope s("tensor.kernel_table", "tensor");
      profile_kernels(leaves, o.leaf_batch, o.kernel_table);
    }
    g_tracer.close(root);

    const auto& spans = g_tracer.spans();
    const double wall = (spans[0].end_us - spans[0].start_us) * 1e-6;
    double covered = 0.0;
    std::map<std::string, double> layer_seconds;
    for (const Span& s : spans) {
      if (s.parent != root) continue;
      covered += (s.end_us - s.start_us) * 1e-6;
      layer_seconds[s.layer] += (s.end_us - s.start_us) * 1e-6;
    }
    g_metrics["trace.coverage"] = covered / wall;
    g_metrics["trace.driver_wall_s"] = wall;
    g_metrics["trace.cli_sequence_s"] = cli_seconds;

    g_metrics["data.render_s"] = span_seconds("data.render");
    g_metrics["models.load_s"] = span_seconds("models.make") + span_seconds("models.load");
    g_metrics["models.eval_s"] = span_seconds("models.eval");
    g_metrics["models.eval_images_per_s"] =
        g_metrics["models.eval_images"] / g_metrics["models.eval_s"];
    g_metrics.erase("models.eval_images");
    g_metrics["core.plan_s"] = span_seconds("core.plan");
    g_metrics["core.campaign_s"] = span_seconds("core.campaign");

    // Each layer's share of the CLI call sequence (the part of the driver
    // that an `alfi run-*` process also does).  io's self time inside the
    // campaign call comes from the journal/checkpoint histograms.
    const double io_inside = g_metrics["io.journal_checkpoint_s"];
    g_metrics["share.data"] = g_metrics["data.render_s"] / cli_seconds;
    g_metrics["share.models"] =
        (g_metrics["models.load_s"] + g_metrics["models.eval_s"]) / cli_seconds;
    g_metrics["share.core"] =
        (span_seconds("core.scenario_load") + g_metrics["core.plan_s"] +
         g_metrics["core.campaign_s"] - io_inside) / cli_seconds;
    g_metrics["share.io"] = (io_inside + span_seconds("io.output_scan")) / cli_seconds;

    if (!o.trace_out.empty()) write_trace(o.trace_out);

    std::string json = "{";
    for (const auto& [name, value] : g_metrics) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", json.size() > 1 ? ", " : "",
                    name.c_str(), std::isfinite(value) ? value : -1.0);
      json += buf;
    }
    json += "}";
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alfi_trace: %s\n", e.what());
    return 1;
  }
}
