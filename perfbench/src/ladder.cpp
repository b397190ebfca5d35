// The per-layer ladder: Reversi primitives -> one simt launch -> mcts tree
// operations, each timed from outside around its public call, on the running
// workload's positions. The serve layer is measured by serve-tenants itself.
#include <algorithm>
#include <array>

#include "engine/spec.hpp"
#include "mcts/playout.hpp"
#include "mcts/tree.hpp"
#include "reversi/bitboard.hpp"
#include "simt/playout_kernel.hpp"
#include "simt/vgpu.hpp"
#include "util/clock.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace reversi = gpu_mcts::reversi;
namespace simt = gpu_mcts::simt;
using reversi::Bitboard;

// Consumes the timed loops' results so they cannot be optimized away.
volatile std::uint64_t g_sink = 0;

// Probe sizes. Each timed loop is repeated kRepeats times and reports the
// median per call.
constexpr int kRepeats = 5;
constexpr int kLegalCalls = 200000;
constexpr int kPlayouts = 4000;
constexpr int kBatchCalls = 20000;
constexpr int kLaunchRepeats = 3;
// Trees grown by select/playout/backpropagate to about cpu-seq's size, then
// probed with kTreeOps more calls each.
constexpr int kTrees = 3;
constexpr int kTreeGrow = 25000;
constexpr int kTreeOps = 5000;

/// Median over `repeats` of seconds-per-item of `body(items)`.
template <typename Body>
double median_seconds_per_item(int repeats, int items, Body&& body) {
  std::vector<double> samples;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    body(items);
    samples.push_back(seconds_between(t0, Clock::now()) /
                      static_cast<double>(items));
  }
  return median(samples);
}

void reversi_rung(const std::vector<State>& positions, std::uint64_t seed,
                  Spans& spans, Metrics& metrics) {
  const std::size_t n = positions.size();
  std::uint64_t sink = 0;
  {
    const Scope scope(spans, "reversi", "legal_moves");
    std::array<Game::Move, Game::kMaxMoves> moves{};
    const double s = median_seconds_per_item(
        kRepeats, kLegalCalls, [&](int items) {
          for (int k = 0; k < items; ++k) {
            sink += static_cast<std::uint64_t>(Game::legal_moves(
                        positions[static_cast<std::size_t>(k) % n], moves)) +
                    moves[0];
          }
        });
    metrics.set("reversi.legal_moves_ns", s * 1e9, "ns");
  }
  {
    const Scope scope(spans, "reversi", "random_playout");
    SplitMix rng(mix_seed(seed, 0x91a7ULL));
    const double s = median_seconds_per_item(
        kRepeats, kPlayouts, [&](int items) {
          for (int k = 0; k < items; ++k) {
            sink += gpu_mcts::mcts::random_playout<Game>(
                        positions[static_cast<std::size_t>(k) % n], rng)
                        .plies;
          }
        });
    metrics.set("reversi.playout_us", s * 1e6, "us");
  }
  // SoA lanes: kBatches batches of 32 lanes cycling through the positions,
  // each lane placing its lowest legal move (0 = no placement).
  constexpr int kLanes = 32;
  constexpr int kBatches = 16;
  std::vector<Bitboard> own(kLanes * kBatches);
  std::vector<Bitboard> opp(kLanes * kBatches);
  std::vector<Bitboard> placed(kLanes * kBatches);
  std::vector<Bitboard> out(kLanes);
  for (std::size_t i = 0; i < own.size(); ++i) {
    const State& s = positions[i % n];
    own[i] = s.own();
    opp[i] = s.opp();
    const Bitboard moves = reversi::legal_moves_mask(own[i], opp[i]);
    placed[i] = moves & (~moves + 1);
  }
  {
    const Scope scope(spans, "reversi", "legal_moves_mask_batch");
    const double s =
        median_seconds_per_item(kRepeats, kBatchCalls, [&](int items) {
          for (int k = 0; k < items; ++k) {
            const std::size_t b =
                static_cast<std::size_t>(k % kBatches) * kLanes;
            reversi::legal_moves_mask_batch(&own[b], &opp[b], out.data(),
                                            kLanes);
            sink += out[static_cast<std::size_t>(k) % kLanes];
          }
        });
    metrics.set("reversi.batch_legal_ns_per_lane", s * 1e9 / kLanes, "ns");
  }
  {
    const Scope scope(spans, "reversi", "flips_for_moves_batch");
    const double s =
        median_seconds_per_item(kRepeats, kBatchCalls, [&](int items) {
          for (int k = 0; k < items; ++k) {
            const std::size_t b =
                static_cast<std::size_t>(k % kBatches) * kLanes;
            reversi::flips_for_moves_batch(&own[b], &opp[b], &placed[b],
                                           out.data(), kLanes);
            sink += out[static_cast<std::size_t>(k) % kLanes];
          }
        });
    metrics.set("reversi.batch_flips_ns_per_lane", s * 1e9 / kLanes, "ns");
  }
  g_sink = sink;
}

struct LaunchSample {
  std::vector<double> wall_s;
  std::vector<double> lane_steps_per_s;
  std::vector<simt::BlockResult> results;  ///< of the last launch
  std::vector<simt::LaunchStats> stats;
};

/// Launches the paper's 112x128 playout grid `repeats` times on fresh
/// per-launch kernels (round = repeat index), one root per block.
LaunchSample launch_grid(const std::vector<State>& roots, std::uint64_t seed,
                         int repeats, int threads, Spans& spans,
                         const char* name) {
  simt::VirtualGpu gpu;
  gpu.set_execution_policy(simt::ExecutionPolicy{
      .threads = threads, .warp_backend = simt::WarpBackend::kBatched});
  const simt::LaunchConfig cfg{.blocks = 112, .threads_per_block = 128};
  LaunchSample out;
  std::vector<simt::BlockResult> results(roots.size());
  for (int r = 0; r < repeats; ++r) {
    std::fill(results.begin(), results.end(), simt::BlockResult{});
    simt::PlayoutKernelFor<Game> kernel(roots, seed,
                                        static_cast<std::uint64_t>(r), results);
    gpu_mcts::util::VirtualClock clock(gpu.host().clock_hz);
    const Scope scope(spans, "simt", name);
    const Clock::time_point t0 = Clock::now();
    const simt::LaunchResult launched = gpu.launch(cfg, kernel, clock);
    const double wall = seconds_between(t0, Clock::now());
    out.wall_s.push_back(wall);
    out.lane_steps_per_s.push_back(
        static_cast<double>(launched.stats.total_active_lane_steps) / wall);
    out.stats.push_back(launched.stats);
  }
  out.results = results;
  return out;
}

[[nodiscard]] bool same_launch(const LaunchSample& a, const LaunchSample& b) {
  if (a.results.size() != b.results.size() || a.stats.size() != b.stats.size())
    return false;
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    const simt::BlockResult& x = a.results[i];
    const simt::BlockResult& y = b.results[i];
    if (x.value_first != y.value_first ||
        x.value_sq_first != y.value_sq_first ||
        x.simulations != y.simulations || x.total_plies != y.total_plies)
      return false;
  }
  for (std::size_t i = 0; i < a.stats.size(); ++i) {
    if (a.stats[i].total_active_lane_steps !=
            b.stats[i].total_active_lane_steps ||
        a.stats[i].total_lane_slots != b.stats[i].total_lane_slots)
      return false;
  }
  return true;
}

void simt_rung(const RunContext& ctx, const std::vector<State>& positions,
               Spans& spans, Gate& gate, Metrics& metrics) {
  std::vector<State> roots;
  for (std::size_t b = 0; b < 112; ++b) {
    roots.push_back(positions[b % positions.size()]);
  }
  const std::uint64_t seed = mix_seed(ctx.seed, 0x1a0c4ULL);
  const LaunchSample one =
      launch_grid(roots, seed, kLaunchRepeats, 1, spans, "launch_1_thread");
  const LaunchSample many = launch_grid(roots, seed, kLaunchRepeats,
                                        ctx.nproc, spans, "launch_nproc");
  gate.check(same_launch(one, many),
             "112x128 launch at " + std::to_string(ctx.nproc) +
                 " exec threads is bit-identical to 1 thread");
  const double rate_one = median(one.lane_steps_per_s);
  const double rate_many = median(many.lane_steps_per_s);
  double useful = 0.0;
  double slots = 0.0;
  for (const simt::LaunchStats& s : one.stats) {
    useful += static_cast<double>(s.total_active_lane_steps);
    slots += static_cast<double>(s.total_lane_slots);
  }
  metrics.set("simt.launch_ms", median(one.wall_s) * 1e3, "ms");
  metrics.set("simt.lane_steps_per_s", rate_one, "1/s");
  metrics.set("simt.launch_ms_mt", median(many.wall_s) * 1e3, "ms");
  metrics.set("simt.exec_scaling", rate_many / rate_one / ctx.nproc, "ratio");
  metrics.set("simt.divergence_waste", 1.0 - useful / slots, "ratio");
}

void mcts_rung(const RunContext& ctx, const std::vector<State>& positions,
               Spans& spans, Metrics& metrics) {
  const gpu_mcts::mcts::SearchConfig config =
      gpu_mcts::engine::SchemeSpec::parse("seq").search;
  double select_s = 0.0;
  double backprop_s = 0.0;
  const Scope scope(spans, "mcts", "tree_ops");
  for (int t = 0; t < kTrees; ++t) {
    const State& root =
        positions[static_cast<std::size_t>(t) * positions.size() /
                  static_cast<std::size_t>(kTrees)];
    gpu_mcts::mcts::Tree<Game> tree(root, config,
                                    mix_seed(ctx.seed, 0x7ee + t));
    SplitMix rng(mix_seed(ctx.seed, 0x7ee0 + t));
    const auto value_of = [&](const gpu_mcts::mcts::Selection<Game>& sel) {
      return sel.terminal
                 ? gpu_mcts::game::value_of(Game::outcome_for(
                       sel.state, gpu_mcts::game::Player::kFirst))
                 : gpu_mcts::mcts::random_playout<Game>(sel.state, rng)
                       .value_first;
    };
    {
      const Scope s(spans, "mcts", "grow");
      for (int k = 0; k < kTreeGrow; ++k) {
        const auto sel = tree.select();
        const double v = value_of(sel);
        tree.backpropagate(sel.node, v, 1, v * v);
      }
    }
    const Scope s(spans, "mcts", "select_backpropagate");
    for (int k = 0; k < kTreeOps; ++k) {
      const Clock::time_point t0 = Clock::now();
      const auto sel = tree.select();
      const Clock::time_point t1 = Clock::now();
      const double v = value_of(sel);
      const Clock::time_point t2 = Clock::now();
      tree.backpropagate(sel.node, v, 1, v * v);
      const Clock::time_point t3 = Clock::now();
      select_s += seconds_between(t0, t1);
      backprop_s += seconds_between(t2, t3);
    }
  }
  const double calls = static_cast<double>(kTreeOps) * kTrees;
  metrics.set("mcts.select_ns", select_s / calls * 1e9, "ns");
  metrics.set("mcts.backprop_ns", backprop_s / calls * 1e9, "ns");
}

}  // namespace

void run_ladder(const RunContext& ctx, const std::vector<State>& positions,
                Spans& spans, Gate& gate, Metrics& metrics) {
  const Scope scope(spans, "bench", "ladder");
  reversi_rung(positions, ctx.seed, spans, metrics);
  simt_rung(ctx, positions, spans, gate, metrics);
  mcts_rung(ctx, positions, spans, metrics);
}

}  // namespace perfbench
