// Shared pieces of the wall-clock benchmark: seeded input generation, the
// correctness gate, expected-value files, wall-clock spans and the small
// statistics the metrics need.
#pragma once

#include <chrono>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "reversi/reversi_game.hpp"

namespace perfbench {

using Game = gpu_mcts::reversi::ReversiGame;
using State = Game::State;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// SplitMix64 finalizer over (a, b): derives independent seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b);

/// Minimal RNG with the next_below() draw the playout code needs.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  std::uint32_t next_below(std::uint32_t n) {
    return static_cast<std::uint32_t>(((next() >> 32) * n) >> 32);
  }

 private:
  std::uint64_t state_;
};

/// A random legal prefix of up to `plies` plies from the initial position;
/// it stops early rather than enter a terminal position.
[[nodiscard]] State random_prefix(std::mt19937_64& rng, int plies);

/// `count` positions whose prefix lengths are spread evenly over
/// 0..max_plies (position i has i * max_plies / (count - 1) plies), each
/// with its own seeded move sequence. Even spreading keeps the game-phase
/// mix, and with it the playout length, the same for every seed.
[[nodiscard]] std::vector<State> stratified_positions(std::uint64_t seed,
                                                      int count,
                                                      int max_plies);

[[nodiscard]] bool is_legal(const State& state, int move);

/// The observable result of one move decision or ticket.
struct Record {
  int move = -1;
  std::uint64_t simulations = 0;
  std::uint64_t tree_nodes = 0;
  std::uint64_t rounds = 0;
  double virtual_seconds = 0.0;
  /// Service timeline completion (tickets only; -1 for decisions).
  double completion_seconds = -1.0;
};

[[nodiscard]] std::string describe(const Record& r);

/// The record without its service completion time, which a standalone
/// searcher does not have.
[[nodiscard]] inline Record without_completion(Record r) {
  r.completion_seconds = -1.0;
  return r;
}

/// FNV-1a over every field, doubles by bit pattern: what the expected-value
/// files hold per decision or ticket.
[[nodiscard]] std::uint64_t digest(const Record& r);

/// Reads the expected digests of one workload family and seed; false when
/// the file is missing or was written for other generating parameters.
[[nodiscard]] bool load_expected(const std::string& path,
                                 const std::string& signature,
                                 std::vector<std::uint64_t>& out);
void write_expected(const std::string& path, const std::string& signature,
                    const std::vector<std::uint64_t>& digests);

/// Counts checked decisions and mismatches; a mismatch, exception or
/// refused ticket is a failure.
class Gate {
 public:
  void check(bool ok, const std::string& what);
  /// Passes when `got` is a legal move in `state` and its digest is `want`.
  void expect(const Record& got, std::uint64_t want, const State& state,
              const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  int reported_ = 0;
};

/// Wall-clock spans recorded from outside the program, around the calls into
/// each layer. Kept in memory and written out as JSON lines at the end.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  int begin(const char* layer, std::string name);
  void end(int id);
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    std::string name;
    double start_us;
    double end_us;
    int parent;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Spans& spans, const char* layer, std::string name)
      : spans_(spans), id_(spans.begin(layer, std::move(name))) {}
  ~Scope() { spans_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans& spans_;
  int id_;
};

/// Nearest-rank percentile, p in [0, 1].
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double peak_rss_mb();

/// Metrics in the order they were set; each name is set once.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;
  /// Prints one row per metric, marking the exact counts: metrics that are
  /// deterministic for a seed, so that a change means modeled behaviour
  /// moved.
  void print_table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
