#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <utility>

#include "engine/factory.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"

namespace perfbench {

using gpu_mcts::engine::SchemeSpec;
using gpu_mcts::simt::ExecutionPolicy;
using gpu_mcts::simt::WarpBackend;
using SearcherPtr = std::unique_ptr<gpu_mcts::mcts::Searcher<Game>>;
using Service = gpu_mcts::serve::SearchService<Game>;

namespace {

// The reason for each choice is in BENCHMARK.json's `why` lines.
const std::vector<Workload> kWorkloads = {
    {.name = "block-flagship", .spec = "block:112x128", .budget_vs = 0.015},
    // Prefixes stop at 40 plies: from about 46 on, seq at this budget starts
    // solving the endgame, and the simulation count of such a position
    // swings 2.5x with the seed and outweighs the rest of the pass.
    {.name = "cpu-seq", .spec = "seq", .budget_vs = 1.0, .max_plies = 40},
    {.name = "serve-tenants",
     .serve = true,
     .spec = "block:14x32",
     .budget_vs = 0.005,
     .grid_blocks = 112,
     .grid_threads = 32,
     .sessions = 24,
     .tickets_per_session = 84,
     .rate_per_session = 12.5},
};

[[nodiscard]] std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

}  // namespace

std::string Workload::signature() const {
  const std::string plies = "max_plies=" + std::to_string(max_plies);
  if (!serve) {
    return "spec=" + spec + ";budget_vs=" + fmt(budget_vs) +
           ";positions=" + std::to_string(kPositions) + ";" + plies;
  }
  return "grid=" + std::to_string(grid_blocks) + "x" +
         std::to_string(grid_threads) + ";session_spec=" + spec +
         ";sessions=" + std::to_string(sessions) +
         ";tickets_per_session=" + std::to_string(tickets_per_session) +
         ";budget_vs=" + fmt(budget_vs) +
         ";rate_per_session=" + fmt(rate_per_session) + ";" + plies;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void pin_execution(WarpBackend backend, int threads) {
  setenv("GPU_MCTS_WARP_BACKEND", gpu_mcts::simt::warp_backend_name(backend),
         1);
  setenv("GPU_MCTS_EXEC_THREADS", std::to_string(threads).c_str(), 1);
}

namespace {

// A searcher run measures at least kMinDecisions decisions, so that p90 has
// ten samples beyond it, and stops after kMaxMeasureSeconds whatever
// --seconds says, well inside its time limit.
constexpr int kMinDecisions = 100;
constexpr double kMaxMeasureSeconds = 100.0;

// A set-up sample is the mean over a batch of constructions, each timed on
// its own and destroyed before the next so that the batch leaves no trace in
// peak RSS. A searcher takes about a microsecond to build, too close to the
// clock for single samples; a service with its sessions about 20 us.
// Within one process the cost sits at one of several levels up to 2x apart,
// fixed by the allocator's state, which each decision reshuffles; samples
// are therefore taken between decisions (every kServiceSetupEvery tickets of
// a drain), so that their median spans many such states.
constexpr int kSearcherSetupBatch = 400;
constexpr int kServiceSetupBatch = 40;
constexpr std::size_t kServiceSetupEvery = 64;

[[nodiscard]] std::uint64_t decision_seed(std::uint64_t seed, std::size_t i) {
  return mix_seed(mix_seed(seed, 0xdec15e5dULL), i);
}

[[nodiscard]] Record record_of(int move,
                               const gpu_mcts::mcts::SearchStats& stats) {
  Record r;
  r.move = move;
  r.simulations = stats.simulations;
  r.tree_nodes = stats.tree_nodes;
  r.rounds = stats.rounds;
  r.virtual_seconds = stats.virtual_seconds;
  return r;
}

[[nodiscard]] SearcherPtr make_searcher(const std::string& spec_text,
                                        int threads) {
  SchemeSpec spec = SchemeSpec::parse(spec_text);
  spec.exec_threads = threads;
  return gpu_mcts::engine::make_searcher<Game>(spec);
}

[[nodiscard]] double launch_wall_seconds(const gpu_mcts::obs::Tracer& tracer) {
  const auto& histograms = tracer.metrics().histograms();
  const auto it = histograms.find("launch_wall_us");
  return it == histograms.end() ? 0.0 : it->second.sum() * 1e-6;
}

/// Loads the committed expected digests, or computes them with the
/// reference path and, with --emit-expected, writes them for committing.
template <typename Reference>
std::vector<std::uint64_t> expected_digests(const RunContext& ctx,
                                            const std::string& signature,
                                            std::size_t count, Spans& spans,
                                            Reference&& reference) {
  std::vector<std::uint64_t> digests;
  if (!ctx.emit_expected &&
      load_expected(ctx.expected_path, signature, digests) &&
      digests.size() == count) {
    std::cout << "expected: committed " << ctx.expected_path << '\n';
    return digests;
  }
  digests.clear();
  {
    const Scope scope(spans, "bench", "reference");
    for (const Record& r : reference()) digests.push_back(digest(r));
  }
  if (ctx.emit_expected) write_expected(ctx.expected_path, signature, digests);
  std::cout << "expected: regenerated by the reference path for seed "
            << ctx.seed << '\n';
  return digests;
}

/// `sims_per_wall_s` comes in precomputed: a searcher workload reports the
/// median over passes of each pass's throughput, the service its drain
/// throughput over the run. `peak_mb` is VmHWM read after the first pass or
/// drain: later ones repeat the same work, and all they added to the peak was
/// allocator fragmentation that varied by up to 15% from run to run.
void set_end_to_end(Metrics& m, double sims_per_wall_s, double sims,
                    double virtual_s, double wall_s, double peak_mb,
                    const std::vector<double>& decision_wall_s,
                    const std::vector<double>& latency_vs,
                    const std::vector<double>& setup_s) {
  std::vector<double> wall_ms = decision_wall_s;
  for (double& w : wall_ms) w *= 1e3;
  std::vector<double> latency_ms = latency_vs;
  for (double& l : latency_ms) l *= 1e3;
  const std::size_t decisions = decision_wall_s.size();
  m.set("sims_per_wall_s", sims_per_wall_s, "1/s");
  m.set("decision_wall_p50_ms", percentile(wall_ms, 0.50), "ms");
  m.set("decision_wall_p90_ms", percentile(wall_ms, 0.90), "ms");
  m.set("virtual_sims_per_s", virtual_s > 0.0 ? sims / virtual_s : 0.0, "1/s");
  // A run whose every drain failed has no wall time; it reports zero.
  m.set("tickets_per_wall_s",
        wall_s > 0.0 ? static_cast<double>(decisions) / wall_s : 0.0, "1/s");
  m.set("ticket_latency_p50_vms", percentile(latency_ms, 0.50), "vms");
  m.set("ticket_latency_p99_vms", percentile(latency_ms, 0.99), "vms");
  m.set("setup_s", median(setup_s), "s");
  m.set("peak_rss_mb", peak_mb, "MB");
  std::cout << "samples: " << decisions << " decisions, " << setup_s.size()
            << " set-up batches\n";
}

/// Wall-clock split of traced decisions.
struct LaunchSplit {
  double choose_wall_s = 0.0;
  double launch_wall_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t decisions = 0;
  std::uint64_t tree_nodes = 0;

  void add(const gpu_mcts::obs::Tracer& tracer, double wall,
           const Record& r) {
    choose_wall_s += wall;
    launch_wall_s += launch_wall_seconds(tracer);
    rounds += r.rounds;
    tree_nodes += r.tree_nodes;
    decisions += 1;
  }

  void report(Metrics& metrics) const {
    const double n = static_cast<double>(decisions);
    const double r = static_cast<double>(rounds);
    metrics.set("simt.launch_share", launch_wall_s / choose_wall_s, "ratio");
    metrics.set("driver.host_ms_per_round",
                (choose_wall_s - launch_wall_s) / r * 1e3, "ms");
    metrics.set("driver.rounds_per_decision", r / n, "count");
    metrics.set("mcts.nodes_per_decision",
                static_cast<double>(tree_nodes) / n, "count");
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Searcher workloads
// ---------------------------------------------------------------------------

void run_searcher_workload(const RunContext& ctx, Spans& spans, Gate& gate,
                           Metrics& metrics) {
  const Workload& w = *ctx.workload;
  const std::vector<State> positions =
      stratified_positions(ctx.seed, kPositions, w.max_plies);
  const std::size_t n = positions.size();

  const auto decide = [&](gpu_mcts::mcts::Searcher<Game>& searcher,
                          std::size_t i) {
    searcher.reseed(decision_seed(ctx.seed, i));
    const int move =
        static_cast<int>(searcher.choose_move(positions[i], w.budget_vs));
    return record_of(move, searcher.last_stats());
  };

  // Results are checked once measuring is over: off the committed seeds the
  // expected values come from running the reference path, whose footprint
  // must not count toward peak_rss_mb.
  const auto expected = [&] {
    std::vector<std::uint64_t> digests =
        expected_digests(ctx, w.signature(), n, spans, [&] {
          // The scalar warp interpreter on one thread is the reference path
          // the repository's own bit-exactness tests compare against.
          pin_execution(WarpBackend::kScalar, 1);
          SearcherPtr reference = make_searcher(w.spec, 1);
          std::vector<Record> out;
          for (std::size_t i = 0; i < n; ++i) {
            out.push_back(decide(*reference, i));
          }
          return out;
        });
    pin_execution(WarpBackend::kBatched, kExecThreads);
    return digests;
  };
  if (ctx.emit_expected) {
    (void)expected();
    return;
  }

  std::vector<std::pair<std::size_t, Record>> results;
  const auto checked = [&](gpu_mcts::mcts::Searcher<Game>& searcher,
                           std::size_t i, double* wall_s) {
    try {
      const Clock::time_point t0 = Clock::now();
      const Record got = decide(searcher, i);
      if (wall_s != nullptr) *wall_s = seconds_between(t0, Clock::now());
      results.emplace_back(i, got);
      return got;
    } catch (const std::exception& e) {
      gate.check(false, w.name + " decision " + std::to_string(i) +
                            " threw: " + e.what());
      return Record{};
    }
  };
  const auto check_results = [&] {
    const std::vector<std::uint64_t> want = expected();
    for (const auto& [i, got] : results) {
      gate.expect(got, want[i], positions[i],
                  w.name + " decision " + std::to_string(i));
    }
  };

  // One sample before the first decision and one after every decision.
  std::vector<double> setup_s;
  const auto sample_setup = [&] {
    const Scope scope(spans, "engine", "setup");
    double total = 0.0;
    for (int b = 0; b < kSearcherSetupBatch; ++b) {
      const Clock::time_point t0 = Clock::now();
      SearcherPtr built = make_searcher(w.spec, kExecThreads);
      total += seconds_between(t0, Clock::now());
    }
    setup_s.push_back(total / kSearcherSetupBatch);
  };
  if (!ctx.trace) sample_setup();
  SearcherPtr searcher = make_searcher(w.spec, kExecThreads);
  // Warm-up decision: lazy pools and first-touch pages, not measured.
  (void)checked(*searcher, 0, nullptr);

  if (ctx.trace) {
    run_ladder(ctx, positions, spans, gate, metrics);
    // Each decision runs twice, untraced then traced, so drift on the host
    // hits both sides of obs.trace_overhead alike.
    LaunchSplit split;
    double untraced_s = 0.0;
    const Scope scope(spans, "mcts.searcher", "traced_pass");
    for (std::size_t i = 0; i < n; ++i) {
      double wall = 0.0;
      {
        const Scope s(spans, "mcts.searcher", "choose_move");
        (void)checked(*searcher, i, &wall);
      }
      untraced_s += wall;
      gpu_mcts::obs::Tracer tracer;
      searcher->set_tracer(&tracer);
      Record got;
      {
        const Scope s(spans, "mcts.searcher", "choose_move_traced");
        got = checked(*searcher, i, &wall);
      }
      searcher->set_tracer(nullptr);
      split.add(tracer, wall, got);
    }
    split.report(metrics);
    metrics.set("obs.trace_overhead", split.choose_wall_s / untraced_s - 1.0,
                "ratio");
    // The contract asks every traced run for every per-layer metric; a
    // searcher workload runs no service, so it reports the ratio as 0.
    metrics.set("serve.multiplex_ratio", 0.0, "ratio");
    std::cout << "serve.multiplex_ratio is measured on serve-tenants only; "
                 "it reads 0 here\n";
    // The threaded execution path must reproduce every decision bit for
    // bit. It is checked here rather than timed as a workload of its own:
    // on a shared virtual host, hypervisor steal on the busy cores spread
    // its wall figures beyond any usable bound.
    const Scope threaded(spans, "mcts.searcher", "threaded_replay");
    SearcherPtr parallel = make_searcher(w.spec, ctx.nproc);
    for (std::size_t i = 0; i < n; ++i) (void)checked(*parallel, i, nullptr);
    check_results();
    return;
  }

  // Every pass decides all positions once. A pass's throughput is its
  // simulations over its wall time; the run reports the median pass.
  std::vector<double> walls;
  std::vector<double> latency_vs;
  std::vector<double> pass_rates;
  double sims = 0.0;
  double virtual_s = 0.0;
  double peak_mb = 0.0;
  const Clock::time_point start = Clock::now();
  for (;;) {
    double pass_sims = 0.0;
    double pass_wall = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double wall = 0.0;
      const Record got = checked(*searcher, i, &wall);
      walls.push_back(wall);
      latency_vs.push_back(got.virtual_seconds);
      pass_sims += static_cast<double>(got.simulations);
      pass_wall += wall;
      virtual_s += got.virtual_seconds;
      sample_setup();
    }
    sims += pass_sims;
    pass_rates.push_back(pass_sims / pass_wall);
    if (peak_mb == 0.0) peak_mb = peak_rss_mb();
    const double elapsed = seconds_between(start, Clock::now());
    if ((elapsed >= ctx.seconds &&
         static_cast<int>(walls.size()) >= kMinDecisions) ||
        elapsed >= kMaxMeasureSeconds) {
      break;
    }
  }
  const double wall_s = std::accumulate(walls.begin(), walls.end(), 0.0);
  set_end_to_end(metrics, median(pass_rates), sims, virtual_s, wall_s,
                 peak_mb, walls, latency_vs, setup_s);
  check_results();
}

// ---------------------------------------------------------------------------
// serve-tenants
// ---------------------------------------------------------------------------

namespace {

struct Ticket {
  int session = 0;
  State state{};
  double arrival_vs = 0.0;
};

/// Tickets in session-major order; within a session in arrival order.
struct Schedule {
  std::vector<std::uint64_t> session_seeds;
  std::vector<Ticket> tickets;
};

/// Seeded Poisson arrivals per session, at seeded random prefixes.
Schedule make_schedule(std::uint64_t seed, const Workload& w) {
  Schedule out;
  for (int s = 0; s < w.sessions; ++s) {
    const std::uint64_t session_seed =
        mix_seed(mix_seed(seed, 0x5e55105eULL), static_cast<std::uint64_t>(s));
    out.session_seeds.push_back(session_seed);
    std::mt19937_64 rng(session_seed);
    double arrival = 0.0;
    for (int k = 0; k < w.tickets_per_session; ++k) {
      // Exponential inter-arrival from a 53-bit uniform in (0, 1].
      const double u =
          (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
      arrival += -std::log(u) / w.rate_per_session;
      Ticket t;
      t.session = s;
      t.arrival_vs = arrival;
      // Prefix lengths step by 37 modulo max_plies + 1 (coprime with 51),
      // so the game-phase mix is the same for every seed; only the moves
      // and arrivals are random.
      const int ticket = s * w.tickets_per_session + k;
      t.state = random_prefix(rng, (ticket * 37) % (w.max_plies + 1));
      out.tickets.push_back(t);
    }
  }
  return out;
}

struct Drain {
  std::vector<Record> records;  ///< per ticket, schedule order
  double wall_s = 0.0;          ///< wall time of the drain
  double setup_s = 0.0;         ///< options -> service with open sessions
  /// Per-ticket wall latency: from the last ticket completion at or before
  /// the ticket's arrival on the service clock to the first completion
  /// event at or after its own completion (an upper bound resolved to
  /// completion events, which are the only points a caller can observe).
  std::vector<double> wall_latency_s;
  std::vector<double> latency_vs;  ///< service-clock latency per ticket
};

/// Drains the schedule through a fresh service. `between`, when set, runs
/// after every kServiceSetupEvery completed tickets; the service does no
/// work outside wait(), and the time spent in `between` is left out of the
/// drain's wall clock.
Drain drain_service(const Workload& w, const Schedule& schedule,
                    ExecutionPolicy exec, bool traced,
                    const std::function<void()>& between = {}) {
  const int sessions = static_cast<int>(schedule.session_seeds.size());
  const std::size_t tickets = schedule.tickets.size();
  Drain out;
  gpu_mcts::obs::Tracer service_tracer;
  std::vector<gpu_mcts::obs::Tracer> session_tracers(
      traced ? static_cast<std::size_t>(sessions) : 0);

  const Clock::time_point t0 = Clock::now();
  gpu_mcts::serve::ServiceOptions options;
  options.grid = {.blocks = w.grid_blocks, .threads_per_block = w.grid_threads};
  options.max_sessions = sessions;
  options.max_queued_per_session = std::max<std::size_t>(1, tickets);
  options.exec = exec;
  auto service = std::make_unique<Service>(options);
  if (traced) service->set_tracer(&service_tracer);
  std::vector<gpu_mcts::serve::SessionId> ids;
  for (int s = 0; s < sessions; ++s) {
    const std::uint64_t seed =
        schedule.session_seeds[static_cast<std::size_t>(s)];
    ids.push_back(service->open_session(
        SchemeSpec::parse(w.spec).with_seed(seed), seed,
        traced ? &session_tracers[static_cast<std::size_t>(s)] : nullptr));
  }
  out.setup_s = seconds_between(t0, Clock::now());

  const gpu_mcts::mcts::SearchBudget budget =
      gpu_mcts::mcts::SearchBudget::from_seconds(w.budget_vs);
  std::vector<gpu_mcts::serve::TicketId> ticket_ids;
  for (const Ticket& t : schedule.tickets) {
    gpu_mcts::serve::SubmitOptions submit;
    submit.arrival_virtual_seconds = t.arrival_vs;
    ticket_ids.push_back(service->submit(
        ids[static_cast<std::size_t>(t.session)], t.state, budget, submit));
  }
  std::vector<std::size_t> order(tickets);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return schedule.tickets[a].arrival_vs <
                            schedule.tickets[b].arrival_vs;
                   });

  // (service clock, wall) after each wait() returns: the points at which a
  // caller observes progress.
  std::vector<std::pair<double, double>> checkpoints{{0.0, 0.0}};
  const Clock::time_point start = Clock::now();
  double paused_s = 0.0;
  const auto wall_now = [&] {
    return seconds_between(start, Clock::now()) - paused_s;
  };
  for (std::size_t k = 0; k < tickets; ++k) {
    (void)service->wait(ticket_ids[order[k]]);
    checkpoints.emplace_back(service->virtual_now_seconds(), wall_now());
    if (between && (k + 1) % kServiceSetupEvery == 0) {
      const Clock::time_point p0 = Clock::now();
      between();
      paused_s += seconds_between(p0, Clock::now());
    }
  }
  out.wall_s = wall_now();

  for (std::size_t i = 0; i < tickets; ++i) {
    const auto result = service->poll(ticket_ids[i]);
    Record r = record_of(static_cast<int>(result->move), result->stats);
    r.completion_seconds = result->completion_virtual_seconds;
    out.records.push_back(r);
    out.latency_vs.push_back(result->latency_virtual_seconds());
    const double arrival = result->arrival_virtual_seconds;
    const double completion = result->completion_virtual_seconds;
    double wall_arrival = 0.0;
    for (const auto& [vs, wall] : checkpoints) {
      if (vs > arrival) break;
      wall_arrival = wall;
    }
    double wall_done = checkpoints.back().second;
    for (const auto& [vs, wall] : checkpoints) {
      if (vs >= completion) {
        wall_done = wall;
        break;
      }
    }
    out.wall_latency_s.push_back(wall_done - wall_arrival);
  }
  for (const auto id : ids) service->close_session(id);
  return out;
}

/// The same tickets on one standalone searcher per session (bit-identical
/// to the service by the ServeBitIdentity contract). Returns the records and
/// the wall time spent in choose_move; fills `split` when traced.
std::vector<Record> run_standalone(const Workload& w, const Schedule& schedule,
                                   LaunchSplit* split, double& wall_s) {
  std::vector<Record> out;
  wall_s = 0.0;
  SearcherPtr searcher;
  int session = -1;
  for (const Ticket& t : schedule.tickets) {
    if (t.session != session) {
      session = t.session;
      SchemeSpec spec = SchemeSpec::parse(w.spec).with_seed(
          schedule.session_seeds[static_cast<std::size_t>(session)]);
      spec.exec_threads = kExecThreads;
      searcher = gpu_mcts::engine::make_searcher<Game>(spec);
    }
    gpu_mcts::obs::Tracer tracer;
    if (split != nullptr) searcher->set_tracer(&tracer);
    const Clock::time_point t0 = Clock::now();
    const int move =
        static_cast<int>(searcher->choose_move(t.state, w.budget_vs));
    const double wall = seconds_between(t0, Clock::now());
    wall_s += wall;
    out.push_back(record_of(move, searcher->last_stats()));
    if (split != nullptr) {
      searcher->set_tracer(nullptr);
      split->add(tracer, wall, out.back());
    }
  }
  return out;
}

}  // namespace

void run_serve_workload(const RunContext& ctx, Spans& spans, Gate& gate,
                        Metrics& metrics) {
  const Workload& w = *ctx.workload;
  const Schedule schedule = make_schedule(ctx.seed, w);
  const std::size_t n = schedule.tickets.size();
  const ExecutionPolicy exec{.threads = kExecThreads,
                             .warp_backend = WarpBackend::kBatched};
  pin_execution(WarpBackend::kBatched, kExecThreads);

  // Drains are checked against the expected values once measuring is over,
  // for the reason given in run_searcher_workload.
  const auto expected = [&] {
    return expected_digests(ctx, w.signature(), n, spans, [&] {
      return drain_service(
                 w, schedule,
                 ExecutionPolicy{.threads = 1,
                                 .warp_backend = WarpBackend::kScalar},
                 false)
          .records;
    });
  };
  if (ctx.emit_expected) {
    (void)expected();
    return;
  }

  const auto check_tickets = [&](const std::vector<Record>& got,
                                 const std::vector<std::uint64_t>& want,
                                 const std::string& what) {
    for (std::size_t i = 0; i < n; ++i) {
      gate.expect(i < got.size() ? got[i] : Record{},
                  i < want.size() ? want[i] : 0, schedule.tickets[i].state,
                  w.name + " " + what + " ticket " + std::to_string(i));
    }
  };
  // Standalone searchers must reproduce the service's results bit for bit
  // (ServeBitIdentity), all but the service's completion time.
  const auto served_digests = [](const std::vector<Record>& served) {
    std::vector<std::uint64_t> out;
    for (const Record& r : served) out.push_back(digest(without_completion(r)));
    return out;
  };
  std::vector<std::pair<std::string, std::vector<Record>>> drained;
  const auto check_drains = [&] {
    const std::vector<std::uint64_t> want = expected();
    for (const auto& [what, records] : drained) {
      check_tickets(records, want, what);
    }
  };
  // Runs one drain; an exception (AdmissionError included) fails every
  // ticket of the drain.
  const auto guarded = [&](bool traced, Drain& out,
                           const std::function<void()>& between) {
    try {
      out = drain_service(w, schedule, exec, traced, between);
      drained.emplace_back(traced ? "traced drain" : "drain", out.records);
      return true;
    } catch (const std::exception& e) {
      for (std::size_t i = 0; i < n; ++i) {
        gate.check(false, w.name + " drain threw: " + e.what());
      }
      return false;
    }
  };

  if (ctx.trace) {
    std::vector<State> pool;
    for (const Ticket& t : schedule.tickets) pool.push_back(t.state);
    run_ladder(ctx, pool, spans, gate, metrics);
    Drain untraced;
    Drain traced;
    {
      const Scope scope(spans, "serve", "drain");
      guarded(false, untraced, {});
    }
    {
      const Scope scope(spans, "serve", "drain_traced");
      guarded(true, traced, {});
    }
    double standalone_s = 0.0;
    {
      const Scope scope(spans, "mcts.searcher", "standalone");
      check_tickets(run_standalone(w, schedule, nullptr, standalone_s),
                    served_digests(untraced.records), "standalone");
    }
    LaunchSplit split;
    {
      const Scope scope(spans, "mcts.searcher", "standalone_traced");
      double traced_standalone_s = 0.0;
      check_tickets(
          run_standalone(w, schedule, &split, traced_standalone_s),
          served_digests(untraced.records), "traced standalone");
    }
    split.report(metrics);
    metrics.set("serve.multiplex_ratio", standalone_s / untraced.wall_s,
                "ratio");
    metrics.set("obs.trace_overhead", traced.wall_s / untraced.wall_s - 1.0,
                "ratio");
    check_drains();
    return;
  }

  // Set-up samples, each over services with all sessions open but no
  // tickets, are taken before every drain and during it.
  std::vector<double> setup_s;
  const Schedule no_tickets{schedule.session_seeds, {}};
  const std::function<void()> sample_setup = [&] {
    const Scope scope(spans, "serve", "setup");
    double total = 0.0;
    for (int b = 0; b < kServiceSetupBatch; ++b) {
      total += drain_service(w, no_tickets, exec, false).setup_s;
    }
    setup_s.push_back(total / kServiceSetupBatch);
  };
  std::vector<double> wall_latency_s;
  std::vector<double> latency_vs;
  double sims = 0.0;
  double virtual_s = 0.0;
  double wall_s = 0.0;
  double peak_mb = 0.0;
  // Whole drains run until --seconds have passed, so the last one may run
  // past the deadline.
  const Clock::time_point start = Clock::now();
  for (;;) {
    sample_setup();
    Drain d;
    if (!guarded(false, d, sample_setup)) break;
    if (peak_mb == 0.0) peak_mb = peak_rss_mb();
    wall_s += d.wall_s;
    wall_latency_s.insert(wall_latency_s.end(), d.wall_latency_s.begin(),
                          d.wall_latency_s.end());
    latency_vs.insert(latency_vs.end(), d.latency_vs.begin(),
                      d.latency_vs.end());
    for (const Record& r : d.records) {
      sims += static_cast<double>(r.simulations);
      virtual_s += r.virtual_seconds;
    }
    if (seconds_between(start, Clock::now()) >= ctx.seconds) break;
  }
  const double sims_per_wall_s = wall_s > 0.0 ? sims / wall_s : 0.0;
  set_end_to_end(metrics, sims_per_wall_s, sims, virtual_s, wall_s, peak_mb,
                 wall_latency_s, latency_vs, setup_s);
  check_drains();
}

}  // namespace perfbench
