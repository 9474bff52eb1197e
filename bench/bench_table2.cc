// Regenerates Table 2: deep learning benchmark characteristics — model size,
// number of variable tensors, and single-server per-sample computation time.
//
// Sizes and variable counts come from the constructed model specs (calibrated
// layer dimensions); computation time is measured by running the model on one
// simulated machine in local mode at batch 1 and subtracting nothing — the
// measured value includes the same op-dispatch overheads a real runtime pays.
#include "bench/bench_util.h"
#include "src/models/model_spec.h"

namespace rdmadl {
namespace {

void Run() {
  bench::PrintHeader(
      "Table 2 — Deep learning benchmarks",
      "Model size (MB), variable tensor count, per-sample computation time (ms).");
  std::printf("%-14s | %10s %10s | %6s %6s | %12s %12s\n", "Benchmark", "size(MB)",
              "paper(MB)", "#vars", "paper", "compute(ms)", "paper(ms)");
  bench::PrintRule();
  for (const models::ModelSpec& model : models::AllBenchmarkModels()) {
    train::TrainingConfig config;
    config.model = model;
    config.num_machines = 1;
    config.batch_size = 1;
    config.mode = train::TrainingMode::kLocal;
    bench::StepResult result = bench::MeasureConfig(config, /*warmup=*/1, /*steps=*/3);
    CHECK(result.ok()) << result.error;
    std::printf("%-14s | %10.2f %10.2f | %6d %6d | %12.2f %12.2f\n", model.name.c_str(),
                model.SizeMb(), model.table_size_mb, model.NumVariables(),
                model.table_num_vars, result.step_ms, model.per_sample_time_ms);
  }
  bench::PrintRule();
  std::printf("Note: LSTM/GRU configured with hidden size 1024 (step size 80 folded into the\n"
              "per-sample cost); FCN-5 has 3 hidden layers of width 4096 (see DESIGN.md).\n");
}

}  // namespace
}  // namespace rdmadl

int main() {
  rdmadl::Run();
  return 0;
}
