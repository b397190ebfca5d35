// perfbench_runner: one workload of the wall-clock benchmark. run.py builds
// this binary and runs it as
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//       [--expected FILE] [--emit-expected] [--spans FILE]
//
// It prints the host fingerprint, a table of the metrics, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
#include <algorithm>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "simt/vgpu.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The clone the loader binds for the target_clones batch kernels: GCC's
/// resolver takes the first supported of avx512f, avx2, default.
std::string batch_isa() {
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "default";
#else
  return "none";
#endif
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

void print_fingerprint(const RunContext& ctx) {
  // Read back through the same default the program's policies use, after
  // pinning, so the line shows what the workload actually ran.
  const gpu_mcts::simt::ExecutionPolicy policy =
      gpu_mcts::simt::ExecutionPolicy::from_env();
  std::cout << "host: {\"nproc\": " << ctx.nproc
            << ", \"batch_isa\": " << json_string(batch_isa())
            << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
            << ", \"cxx_flags\": " << json_string(PERFBENCH_CXX_FLAGS)
            << ", \"warp_backend\": "
            << json_string(gpu_mcts::simt::warp_backend_name(
                   policy.warp_backend))
            << ", \"exec_threads\": " << policy.threads << "}\n";
}

RunContext parse_args(int argc, char** argv, std::string& spans_path) {
  RunContext ctx;
  ctx.nproc =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--emit-expected") {
      ctx.emit_expected = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      ctx.workload = find_workload(value);
      if (ctx.workload == nullptr) {
        throw std::invalid_argument("unknown workload " + value);
      }
    } else if (flag == "--seed") {
      ctx.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      ctx.seconds = std::stod(value);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--expected") {
      ctx.expected_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (ctx.workload == nullptr) {
    throw std::invalid_argument("--workload is required");
  }
  return ctx;
}

}  // namespace

int main(int argc, char** argv) {
  RunContext ctx;
  std::string spans_path;
  try {
    ctx = parse_args(argc, argv, spans_path);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << '\n';
    return 2;
  }
  pin_execution(gpu_mcts::simt::WarpBackend::kBatched, kExecThreads);
  print_fingerprint(ctx);
  std::cout << "workload: " << ctx.workload->name << " ("
            << ctx.workload->signature() << ")  seed " << ctx.seed
            << "  trace " << (ctx.trace ? 1 : 0) << '\n';

  Spans spans(ctx.trace);
  Gate gate;
  Metrics metrics;
  try {
    const Scope scope(spans, "bench", ctx.workload->name);
    if (ctx.workload->serve) {
      run_serve_workload(ctx, spans, gate, metrics);
    } else {
      run_searcher_workload(ctx, spans, gate, metrics);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << '\n';
    return 1;
  }
  spans.write(spans_path);
  if (ctx.emit_expected) {
    std::cout << "wrote " << ctx.expected_path << '\n';
    return 0;
  }

  const double error_rate =
      gate.attempted() > 0
          ? static_cast<double>(gate.failed()) /
                static_cast<double>(gate.attempted())
          : 1.0;
  metrics.print_table();
  std::cout << "  error_rate " << json_number(error_rate) << " ("
            << gate.failed() << " of " << gate.attempted()
            << " checked results wrong)\n";
  const bool correct = gate.failed() == 0 && gate.attempted() > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << gate.attempted()
            << ", \"failed\": " << gate.failed()
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return 0;
}
