// The workloads (searcher decisions and the multi-tenant service) and the
// per-layer ladder, driven only through the program's public calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "simt/vgpu.hpp"

namespace perfbench {

/// Every workload runs on one exec thread; the threaded path is checked and
/// timed by the traced run instead (see run_searcher_workload).
inline constexpr int kExecThreads = 1;

/// Positions per searcher pass.
inline constexpr int kPositions = 24;

/// A workload's generating parameters. Its positions are random legal
/// prefixes whose lengths spread over 0..max_plies. A searcher workload
/// runs `spec` at `budget_vs` virtual seconds per decision; a serve workload
/// opens `sessions` sessions of scheme `spec` on a grid_blocks x grid_threads
/// service and submits `tickets_per_session` tickets of `budget_vs` to each,
/// arriving as a Poisson stream of `rate_per_session` per virtual second.
struct Workload {
  std::string name;
  bool serve = false;
  std::string spec;
  double budget_vs = 0.0;
  int max_plies = 50;
  int grid_blocks = 0;
  int grid_threads = 0;
  int sessions = 0;
  int tickets_per_session = 0;
  double rate_per_session = 0.0;

  /// "key=value;...": the first line of the workload's expected-value
  /// files, naming the parameters they were generated for.
  [[nodiscard]] std::string signature() const;
};

/// The workload named `name`, or nullptr.
[[nodiscard]] const Workload* find_workload(const std::string& name);

struct RunContext {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
  std::string expected_path;  ///< committed expected values for this seed
  bool emit_expected = false; ///< write reference values to expected_path
};

/// Points the environment knobs that ExecutionPolicy defaults read at the
/// given backend and thread count, so a stray GPU_MCTS_WARP_BACKEND or
/// GPU_MCTS_EXEC_THREADS cannot change what a workload measures.
void pin_execution(gpu_mcts::simt::WarpBackend backend, int threads);

/// Runs a searcher workload (block-flagship, cpu-seq).
void run_searcher_workload(const RunContext& ctx, Spans& spans, Gate& gate,
                           Metrics& metrics);

/// Runs the serve-tenants workload.
void run_serve_workload(const RunContext& ctx, Spans& spans, Gate& gate,
                        Metrics& metrics);

/// Per-layer probes common to every workload, on the workload's positions.
void run_ladder(const RunContext& ctx, const std::vector<State>& positions,
                Spans& spans, Gate& gate, Metrics& metrics);

}  // namespace perfbench
