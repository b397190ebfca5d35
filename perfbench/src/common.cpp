#include "common.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t SplitMix::next() {
  state_ += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

State random_prefix(std::mt19937_64& rng, int plies) {
  State state = Game::initial_state();
  std::array<Game::Move, Game::kMaxMoves> moves{};
  for (int p = 0; p < plies; ++p) {
    const int n = Game::legal_moves(state, moves);
    const State next =
        Game::apply(state, moves[rng() % static_cast<std::uint64_t>(n)]);
    if (Game::is_terminal(next)) break;
    state = next;
  }
  return state;
}

std::vector<State> stratified_positions(std::uint64_t seed, int count,
                                        int max_plies) {
  std::vector<State> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const int plies = count > 1 ? i * max_plies / (count - 1) : 0;
    std::mt19937_64 rng(mix_seed(seed, static_cast<std::uint64_t>(i)));
    out.push_back(random_prefix(rng, plies));
  }
  return out;
}

bool is_legal(const State& state, int move) {
  std::array<Game::Move, Game::kMaxMoves> moves{};
  const int n = Game::legal_moves(state, moves);
  return std::find(moves.begin(), moves.begin() + n,
                   static_cast<Game::Move>(move)) != moves.begin() + n;
}

std::string describe(const Record& r) {
  std::ostringstream out;
  out << "move=" << r.move << " simulations=" << r.simulations
      << " tree_nodes=" << r.tree_nodes << " rounds=" << r.rounds
      << " virtual_seconds=" << json_number(r.virtual_seconds);
  if (r.completion_seconds >= 0.0) {
    out << " completion=" << json_number(r.completion_seconds);
  }
  return out.str();
}

std::uint64_t digest(const Record& r) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  const auto add = [&hash](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (v >> (8 * byte)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  };
  add(static_cast<std::uint64_t>(r.move));
  add(r.simulations);
  add(r.tree_nodes);
  add(r.rounds);
  add(std::bit_cast<std::uint64_t>(r.virtual_seconds));
  add(std::bit_cast<std::uint64_t>(r.completion_seconds));
  return hash;
}

bool load_expected(const std::string& path, const std::string& signature,
                   std::vector<std::uint64_t>& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string header;
  std::getline(in, header);
  if (header != "# " + signature) return false;
  out.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) out.push_back(std::stoull(line, nullptr, 16));
  }
  return !out.empty();
}

void write_expected(const std::string& path, const std::string& signature,
                    const std::vector<std::uint64_t>& digests) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# " << signature << '\n';
  char buf[20];
  for (const std::uint64_t d : digests) {
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(d));
    out << buf << '\n';
  }
}

void Gate::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (reported_++ < 10) std::cerr << "perfbench: FAILED " << what << '\n';
}

void Gate::expect(const Record& got, std::uint64_t want, const State& state,
                  const std::string& what) {
  const bool legal = is_legal(state, got.move);
  char digests[64];
  std::snprintf(digests, sizeof digests, " (digest %016llx, want %016llx)",
                static_cast<unsigned long long>(digest(got)),
                static_cast<unsigned long long>(want));
  check(legal && digest(got) == want, what + (legal ? "" : " (illegal move)") +
                                          ": got " + describe(got) + digests);
}

int Spans::begin(const char* layer, std::string name) {
  if (!enabled_) return -1;
  const double now =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  spans_.push_back({layer, std::move(name), now, now,
                    open_.empty() ? -1 : open_.back()});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us =
      std::chrono::duration<double, std::micro>(Clock::now() - origin_)
          .count();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Spans::write(const std::string& path) const {
  if (!enabled_ || path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << '\n';
    return;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"layer\":\""
        << s.layer << "\",\"name\":\"" << s.name
        << "\",\"start_us\":" << json_number(s.start_us)
        << ",\"end_us\":" << json_number(s.end_us) << "}\n";
  }
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec and would report the
  // launching interpreter's footprint.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void Metrics::set(const std::string& name, double value,
                  const std::string& unit) {
  entries_.push_back({name, value, unit});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + entries_[i].name + "\": {\"value\": " +
           json_number(entries_[i].value) + ", \"unit\": \"" +
           entries_[i].unit + "\"}";
  }
  return out + "}";
}

void Metrics::print_table() const {
  static const std::array<std::string, 6> kExactCounts = {
      "virtual_sims_per_s",      "ticket_latency_p50_vms",
      "ticket_latency_p99_vms",  "driver.rounds_per_decision",
      "mcts.nodes_per_decision", "simt.divergence_waste"};
  for (const Entry& e : entries_) {
    const bool is_exact =
        std::find(kExactCounts.begin(), kExactCounts.end(), e.name) !=
        kExactCounts.end();
    std::printf("  %-34s %18.8g %s%s\n", e.name.c_str(), e.value,
                e.unit.c_str(), is_exact ? "  (exact count)" : "");
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
