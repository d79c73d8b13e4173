// pasbench_harness — drives PASim through its public API for the benchmark.
//
// Every mode runs in a fresh process started by pasbench/run.py and
// prints one JSON object on stdout. Timings are std::chrono::steady_clock
// spans taken around calls into the layers' public functions; nothing
// inside src/ is instrumented.
//
//   grid        the paper grid as full_report --no-cache renders it
//               (REPORT.md + CSVs into --out), through SweepExecutor::run
//   grid-trace  the same grid at jobs 1, decomposed into the executor's
//               column order: RunMatrix::run_one column heads recording a
//               ledger, then BatchRepricer::reprice for the other
//               frequencies, with spans around every call
//   faults      EP/FT/LU over the paper grid at fault rates 0.02 and 0.10
//   faults-trace  the same ensemble point by point through
//               RunMatrix::run_one with the executor's retry policy
//   probes      per-layer microprobes (npb, mpi, codecs, cache, journal,
//               checkpoint, subprocess)
//   loadgen     the serve_mixed closed-loop client plus its offline oracle
//
// Common flags: --small (test-size presets), --jobs N, --seed N,
// --trace-out FILE (span dump, traced modes).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pas/analysis/batch_repricer.hpp"
#include "pas/analysis/error_table.hpp"
#include "pas/analysis/experiment.hpp"
#include "pas/analysis/figures.hpp"
#include "pas/analysis/run_cache.hpp"
#include "pas/analysis/sweep_executor.hpp"
#include "pas/analysis/sweep_journal.hpp"
#include "pas/core/baseline_models.hpp"
#include "pas/core/isoefficiency.hpp"
#include "pas/core/workload_fit.hpp"
#include "pas/fault/fault.hpp"
#include "pas/mpi/runtime.hpp"
#include "pas/obs/metrics.hpp"
#include "pas/serve/artifact_store.hpp"
#include "pas/serve/client.hpp"
#include "pas/serve/protocol.hpp"
#include "pas/sim/checkpoint.hpp"
#include "pas/tools/membench.hpp"
#include "pas/util/cli.hpp"
#include "pas/util/format.hpp"
#include "pas/util/fs.hpp"
#include "pas/util/json.hpp"
#include "pas/util/subprocess.hpp"
#include "pas/util/thread_pool.hpp"

namespace {

using namespace pas;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CLOCK_MONOTONIC seconds (steady_clock on Linux), comparable with
/// Python's time.monotonic() in the parent that launched this process.
double mono_now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double cpu_self_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

util::Json num(double v) { return util::Json(v); }

util::Json num_array(const std::vector<double>& v) {
  util::Json a = util::Json::array();
  for (double x : v) a.push_back(util::Json(x));
  return a;
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and query id, kept in memory per
// thread and written out when the run ends.

class Spans {
 public:
  explicit Spans(bool on, Clock::time_point origin = Clock::now())
      : on_(on), origin_(origin) {}

  int open(const std::string& name, long qid = -1) {
    if (!on_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now(), 0.0, parent, qid});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int idx) {
    if (idx < 0) return;
    spans_[static_cast<std::size_t>(idx)].t1 = now();
    stack_.pop_back();
  }

  struct Scope {
    Scope(Spans& s, const std::string& name, long qid = -1)
        : spans(s), idx(s.open(name, qid)) {}
    ~Scope() { spans.close(idx); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Spans& spans;
    int idx;
  };

  /// Seconds covered by top-level spans.
  double covered_s() const {
    double s = 0.0;
    for (const Span& sp : spans_)
      if (sp.parent < 0) s += sp.t1 - sp.t0;
    return s;
  }

  /// Per span name: count, total, self (duration minus child spans) and
  /// max duration, in seconds.
  util::Json summary() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& sp : spans_)
      if (sp.parent >= 0) child[static_cast<std::size_t>(sp.parent)] += sp.t1 - sp.t0;
    struct Acc {
      double n = 0, total = 0, self = 0, max = 0;
    };
    std::map<std::string, Acc> acc;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].t1 - spans_[i].t0;
      Acc& a = acc[spans_[i].name];
      a.n += 1;
      a.total += d;
      a.self += d - child[i];
      a.max = std::max(a.max, d);
    }
    util::Json out = util::Json::object();
    for (const auto& [name, a] : acc) {
      util::Json o = util::Json::object();
      o.set("count", num(a.n));
      o.set("total_s", num(a.total));
      o.set("self_s", num(a.self));
      o.set("max_s", num(a.max));
      out.set(name, std::move(o));
    }
    return out;
  }

  /// One JSON object per line: name, start_s, end_s, parent, qid, tid.
  void append_to(std::string& out, int tid) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      out += util::strf(
          "{\"id\":%zu,\"tid\":%d,\"name\":\"%s\",\"start_s\":%.9f,"
          "\"end_s\":%.9f,\"parent\":%d,\"qid\":%ld}\n",
          i, tid, sp.name.c_str(), sp.t0, sp.t1, sp.parent, sp.qid);
    }
  }

  /// Appends another thread's spans (parents re-based) for summary().
  void merge_from(const Spans& other) {
    const int base = static_cast<int>(spans_.size());
    for (const Span& sp : other.spans_) {
      spans_.push_back(sp);
      if (sp.parent >= 0) spans_.back().parent += base;
    }
  }

 private:
  struct Span {
    std::string name;
    double t0 = 0.0;
    double t1 = 0.0;
    int parent = -1;
    long qid = -1;
  };
  double now() const { return seconds_since(origin_); }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

bool write_file(const std::string& path, const std::string& text) {
  if (path.empty()) return true;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------
// Record digests: fnv1a-64 chained over the cas record encoding (status,
// error text and the RunCache canonical bytes) of every record.

std::uint64_t chain_digest(std::uint64_t h, const analysis::RunRecord& rec) {
  return util::fnv1a(serve::cas_encode_record(rec), h);
}

std::string hex64(std::uint64_t h) {
  return util::strf("%016llx", static_cast<unsigned long long>(h));
}

// ---------------------------------------------------------------------
// Paper grid (full_report --no-cache).

const char* const kGridKernels[] = {"EP", "FT", "LU", "CG", "MG"};

struct GridSetup {
  analysis::SweepSpec spec;
  analysis::ExperimentEnv env;
  analysis::Scale scale = analysis::Scale::kPaper;
  std::unique_ptr<analysis::SweepExecutor> exec;
  std::vector<std::unique_ptr<npb::Kernel>> kernels;
};

GridSetup make_grid_setup(bool small, int jobs) {
  GridSetup g;
  if (small) g.spec.scale = "small";
  g.spec.options.jobs = jobs;
  g.spec.options.use_cache = false;
  g.env = analysis::env_for_spec(g.spec);
  g.scale = g.spec.resolved_scale();
  g.exec = std::make_unique<analysis::SweepExecutor>(g.spec);
  for (const char* name : kGridKernels)
    g.kernels.push_back(analysis::make_kernel(name, g.scale));
  return g;
}

/// Builds the set-up; stores the CLOCK_MONOTONIC time it finished in
/// `end_mono`, so the launching process can time launch-to-ready.
template <typename Make>
auto timed_setup(Make make, double* end_mono) {
  auto s = make();
  *end_mono = mono_now_s();
  return s;
}

/// REPORT.md plus one CSV per table, exactly as full_report writes them.
struct Report {
  std::filesystem::path dir;
  std::string md;
  bool write_failed = false;

  void save_csv(const std::string& name, const util::TextTable& t) {
    if (const obs::WriteResult r = t.write_csv((dir / name).string()); !r) {
      std::fprintf(stderr, "report: %s\n", r.to_string().c_str());
      write_failed = true;
    }
    md += util::strf("\n```\n%s```\n*(CSV: `%s`)*\n", t.to_string().c_str(),
                     name.c_str());
  }
  void h2(const std::string& title) { md += "\n## " + title + "\n"; }
  void p(const std::string& text) { md += "\n" + text + "\n"; }
};

using SweepFn = std::function<analysis::MatrixResult(const npb::Kernel&)>;

struct GridOutcome {
  std::vector<double> sweep_s;  ///< one per kernel sweep
  std::uint64_t digest = util::fnv1a("");
  std::size_t points = 0;
  bool write_failed = false;
};

/// The full_report pipeline with the sweep supplied by the caller.
/// `spans` brackets model fits (core) and rendering/writes (obs).
GridOutcome run_report(const GridSetup& g, const std::string& out_dir,
                       const SweepFn& sweep, Spans& spans) {
  GridOutcome res;
  const analysis::ExperimentEnv& env = g.env;
  Report report;
  report.dir = out_dir;
  std::filesystem::create_directories(report.dir);
  report.md =
      "# PASim reproduction report\n\n"
      "Regenerated artifacts for *Power-Aware Speedup* (Ge & Cameron, "
      "IPDPS 2007) on the simulated 16-node Pentium-M testbed. Base "
      "configuration: 1 node @ 600 MHz.\n";

  for (std::size_t k = 0; k < g.kernels.size(); ++k) {
    const char* name = kGridKernels[k];
    const auto t0 = Clock::now();
    const analysis::MatrixResult m = sweep(*g.kernels[k]);
    res.sweep_s.push_back(seconds_since(t0));
    for (const analysis::RunRecord& rec : m.records)
      res.digest = chain_digest(res.digest, rec);
    res.points += m.records.size();

    const int rs = spans.open("obs.report");
    report.h2(util::strf("%s — execution-time and speedup surfaces", name));
    bool all_verified = true;
    for (const auto& rec : m.records) all_verified &= rec.verified;
    report.p(util::strf("All %zu runs verified: **%s**.", m.records.size(),
                        all_verified ? "yes" : "NO"));
    report.save_csv(util::strf("%s_time.csv", name),
                    analysis::execution_time_table(
                        m.times, env.nodes, env.freqs_mhz,
                        util::strf("%s execution time (s)", name)));
    report.save_csv(util::strf("%s_speedup.csv", name),
                    analysis::speedup_surface(
                        m.times, env.nodes, env.freqs_mhz, env.base_f_mhz,
                        util::strf("%s power-aware speedup", name)));
    spans.close(rs);

    const int fs = spans.open("core.fit");
    const analysis::ErrorTable eq3 = analysis::speedup_error_table(
        m.times,
        [&](int n, double f) {
          return core::eq3_product_prediction(m.times, n, f, 1,
                                              env.base_f_mhz);
        },
        env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);
    core::SimplifiedParameterization sp(env.base_f_mhz);
    sp.ingest(m.times);
    const analysis::ErrorTable sp_err = analysis::speedup_error_table(
        m.times, [&](int n, double f) { return sp.predict_speedup(n, f); },
        env.parallel_nodes, env.freqs_mhz, 1, env.base_f_mhz);
    const core::WorkloadFit fit = core::fit_workload(m.times, env.base_f_mhz);
    std::string iso = "isoefficiency k(N) at E=0.7:";
    for (const auto& pt :
         core::isoefficiency_curve(fit, env.parallel_nodes, 0.7)) {
      iso += util::strf(" k(%d)=%.2f", pt.nodes, pt.workload_factor);
    }
    spans.close(fs);

    const int rs2 = spans.open("obs.report");
    report.p(util::strf(
        "Eq 3 product-form speedup error: max %.1f%%, mean %.1f%% — "
        "power-aware SP error: max %.1f%%, mean %.1f%%.",
        eq3.max_error() * 100, eq3.mean_error() * 100,
        sp_err.max_error() * 100, sp_err.mean_error() * 100));
    report.save_csv(util::strf("%s_eq3_errors.csv", name),
                    eq3.render(util::strf("%s Eq 3 errors", name)));
    report.save_csv(util::strf("%s_sp_errors.csv", name),
                    sp_err.render(util::strf("%s SP errors", name)));
    report.p(util::strf(
        "Workload fit (R^2 %.3f): serial %.4fs, parallel %.4fs, overhead "
        "%.4fs + %.4fs/N. %s",
        fit.r2, fit.serial_s, fit.parallel_s, fit.invariant_s,
        fit.overhead_per_n_s, iso.c_str()));
    spans.close(rs2);
  }

  {
    Spans::Scope s(spans, "core.fit");  // Table 6 probes feed the fits
    report.h2("Probe measurements (Table 6)");
    tools::MemBench membench(sim::CpuModel(
        env.cluster.cpu, env.cluster.memory, env.cluster.operating_points));
    util::TextTable probes("Seconds per workload by level and frequency");
    probes.set_header(
        {"f (MHz)", "reg (ns)", "L1 (ns)", "L2 (ns)", "mem (ns)"});
    for (double f : env.freqs_mhz) {
      const tools::LevelTimes t = membench.probe(f);
      probes.add_row({util::strf("%.0f", f),
                      util::strf("%.2f", t.reg_s * 1e9),
                      util::strf("%.2f", t.l1_s * 1e9),
                      util::strf("%.2f", t.l2_s * 1e9),
                      util::strf("%.0f", t.mem_s * 1e9)});
    }
    Spans::Scope w(spans, "obs.report");
    report.save_csv("probe_levels.csv", probes);
  }
  {
    Spans::Scope s(spans, "obs.report");
    if (const obs::WriteResult r = obs::write_text_file(
            (report.dir / "REPORT.md").string(), report.md);
        !r) {
      std::fprintf(stderr, "report: %s\n", r.to_string().c_str());
      report.write_failed = true;
    }
  }
  res.write_failed = report.write_failed;
  return res;
}

/// Layer tallies of a decomposed (traced) sweep.
struct LayerTally {
  std::vector<double> column_s;        ///< ledger-recording column heads
  std::vector<double> point_s;         ///< fully simulated points
  double repricer_s = 0.0;
  double repricer_lanes = 0.0;
  double repricer_lane_ops = 0.0;      ///< ledger ops x lanes
  double ledger_ops = 0.0;
  double ledger_bytes = 0.0;
  double messages = 0.0;               ///< over the column heads
  double declined = 0.0;               ///< columns that could not record
};

/// One fault-free sweep in the executor's order at jobs 1: per node
/// count, the first frequency simulates while recording its charged-work
/// ledger, then one BatchRepricer pass prices the other frequencies.
analysis::MatrixResult decomposed_sweep(const npb::Kernel& kernel,
                                        const analysis::ExperimentEnv& env,
                                        analysis::RunMatrix& matrix,
                                        const analysis::BatchRepricer& repricer,
                                        double comm_dvfs, Spans& spans,
                                        LayerTally& tally) {
  std::vector<analysis::RunRecord> records;
  const bool fast = kernel.frequency_invariant_control_flow();
  for (const int n : env.nodes) {
    std::vector<double> rest;
    if (fast) {
      sim::WorkLedger ledger;
      analysis::RunRecord head;
      const auto t0 = Clock::now();
      {
        Spans::Scope s(spans, "analysis.run_matrix.column");
        matrix.ledger_recorder().begin(n, comm_dvfs);
        head = matrix.run_one(kernel, n, env.freqs_mhz.front(), comm_dvfs, 0);
        ledger = matrix.ledger_recorder().take();
        ledger.verified = head.verified;
      }
      tally.column_s.push_back(seconds_since(t0));
      tally.messages += head.messages_per_rank * n;
      records.push_back(head);
      rest.assign(env.freqs_mhz.begin() + 1, env.freqs_mhz.end());
      if (ledger.replayable && !head.failed()) {
        tally.ledger_ops += static_cast<double>(ledger.total_ops());
        tally.ledger_bytes += static_cast<double>(ledger.arena_bytes());
        const auto r0 = Clock::now();
        std::vector<analysis::RunRecord> priced;
        {
          Spans::Scope s(spans, "analysis.repricer");
          priced = repricer.reprice(ledger, rest);
        }
        tally.repricer_s += seconds_since(r0);
        tally.repricer_lanes += static_cast<double>(rest.size());
        tally.repricer_lane_ops +=
            static_cast<double>(ledger.total_ops() * rest.size());
        for (auto& r : priced) records.push_back(std::move(r));
        continue;
      }
      tally.declined += 1;
    } else {
      rest = env.freqs_mhz;
    }
    for (const double f : rest) {
      const auto t0 = Clock::now();
      Spans::Scope s(spans, "analysis.run_matrix.point");
      records.push_back(matrix.run_one(kernel, n, f, comm_dvfs, 0));
      tally.point_s.push_back(seconds_since(t0));
    }
  }
  analysis::MatrixResult m;
  for (auto& r : records) m.add(std::move(r));
  return m;
}

util::Json tally_json(const LayerTally& t) {
  util::Json o = util::Json::object();
  double col = 0.0, col_max = 0.0;
  for (double s : t.column_s) {
    col += s;
    col_max = std::max(col_max, s);
  }
  o.set("column_s", num(col));
  o.set("column_max_s", num(col_max));
  o.set("columns", num(static_cast<double>(t.column_s.size())));
  double pts = 0.0, pts_max = 0.0;
  for (double s : t.point_s) {
    pts += s;
    pts_max = std::max(pts_max, s);
  }
  o.set("point_s", num(pts));
  o.set("point_max_s", num(pts_max));
  o.set("points_simulated", num(static_cast<double>(t.point_s.size())));
  o.set("repricer_s", num(t.repricer_s));
  o.set("repricer_lanes", num(t.repricer_lanes));
  o.set("repricer_ns_per_op",
        num(t.repricer_lane_ops > 0 ? 1e9 * t.repricer_s / t.repricer_lane_ops
                                    : 0.0));
  o.set("ledger_ops", num(t.ledger_ops));
  o.set("ledger_bytes", num(t.ledger_bytes));
  o.set("messages", num(t.messages));
  o.set("declined_columns", num(t.declined));
  return o;
}

int mode_grid(const util::Cli& cli, bool traced) {
  const bool small = cli.has("small");
  const int jobs = traced ? 1 : static_cast<int>(cli.get_int("jobs", 1));
  const std::string out = cli.get("out", "pasbench_report");
  const int passes = static_cast<int>(cli.get_int("passes", 1));
  const auto start = Clock::now();
  Spans spans(traced, start);

  double setup_end_mono = 0.0;
  GridSetup g = [&] {
    Spans::Scope s(spans, "setup");
    return timed_setup([&] { return make_grid_setup(small, jobs); },
                       &setup_end_mono);
  }();

  util::Json res = util::Json::object();
  res.set("setup_end_mono", num(setup_end_mono));
  if (cli.has("setup-only")) {
    std::printf("%s\n", res.dump().c_str());
    return 0;
  }
  util::Json pass_walls = util::Json::array();
  util::Json pass_sweeps = util::Json::array();  ///< per pass, one per kernel
  GridOutcome outcome;
  LayerTally tally;
  double wall_s = 0.0;
  // Extra passes in one process exist only for the self-test: they show
  // how much in-process memoization a warm pass skips.
  for (int pass = 0; pass < passes; ++pass) {
    const auto t0 = Clock::now();
    if (traced) {
      analysis::RunMatrix matrix(g.exec->cluster(), g.spec.power);
      const analysis::BatchRepricer repricer(g.exec->cluster(), g.spec.power);
      outcome = run_report(
          g, out,
          [&](const npb::Kernel& k) {
            return decomposed_sweep(k, g.env, matrix, repricer,
                                    g.spec.comm_dvfs_mhz, spans, tally);
          },
          spans);
    } else {
      outcome = run_report(
          g, out,
          [&](const npb::Kernel& k) {
            return g.exec->run({&k, g.env.nodes, g.env.freqs_mhz,
                                g.spec.comm_dvfs_mhz});
          },
          spans);
    }
    const double w = seconds_since(t0);
    if (pass == 0) wall_s = w;
    pass_walls.push_back(num(w));
    pass_sweeps.push_back(num_array(outcome.sweep_s));
  }
  res.set("wall_s", num(wall_s));
  res.set("total_s", num(seconds_since(start)));
  res.set("pass_wall_s", std::move(pass_walls));
  res.set("pass_sweep_s", std::move(pass_sweeps));
  res.set("sweep_s", num_array(outcome.sweep_s));
  res.set("points", num(static_cast<double>(outcome.points)));
  res.set("digest", util::Json(hex64(outcome.digest)));
  res.set("write_failed", util::Json(outcome.write_failed));
  res.set("jobs", num(g.exec->jobs()));
  res.set("repricer_lanes_counter",
          num(static_cast<double>(
              obs::registry().counter("repricer.batch_lanes").value())));
  if (traced) {
    const double traced_wall = seconds_since(start);
    res.set("traced_wall_s", num(traced_wall));
    res.set("coverage", num(spans.covered_s() / traced_wall));
    res.set("layers", tally_json(tally));
    res.set("spans", spans.summary());
    std::string dump;
    spans.append_to(dump, 0);
    write_file(cli.get("trace-out", ""), dump);
  }
  std::printf("%s\n", res.dump().c_str());
  return outcome.write_failed ? 1 : 0;
}

// ---------------------------------------------------------------------
// Fault ensemble (resilience_sweep at rates 0.02 and 0.10, no clean
// reference, --no-cache).

const char* const kFaultKernels[] = {"EP", "FT", "LU"};
const double kFaultRates[] = {0.02, 0.10};

struct FaultSetup {
  analysis::ExperimentEnv env;
  std::vector<analysis::SweepSpec> specs;  ///< one per rate
  std::vector<std::unique_ptr<analysis::SweepExecutor>> execs;
  std::vector<std::unique_ptr<npb::Kernel>> kernels;
};

FaultSetup make_fault_setup(bool small, int jobs, std::uint64_t seed) {
  FaultSetup s;
  analysis::SweepSpec base;
  if (small) base.scale = "small";
  base.options.jobs = jobs;
  base.options.use_cache = false;
  s.env = analysis::env_for_spec(base);
  for (const double rate : kFaultRates) {
    analysis::SweepSpec spec = base;
    spec.fault = fault::FaultConfig::scaled(rate, seed);
    s.execs.push_back(std::make_unique<analysis::SweepExecutor>(spec));
    s.specs.push_back(std::move(spec));
  }
  for (const char* name : kFaultKernels)
    s.kernels.push_back(analysis::make_kernel(name, base.resolved_scale()));
  return s;
}

/// One point through RunMatrix::run_one with the executor's fail-soft
/// policy: transient fault aborts retry with an attempt-salted plan,
/// the last failure is recorded.
analysis::RunRecord failsoft_point(analysis::RunMatrix& matrix,
                                   const npb::Kernel& kernel, int n, double f,
                                   double comm, int run_retries) {
  const int max_attempts =
      1 + (matrix.cluster().fault.enabled() ? std::max(0, run_retries) : 0);
  for (int attempt = 0;; ++attempt) {
    analysis::RunStatus status;
    std::string error;
    try {
      analysis::RunRecord rec = matrix.run_one(kernel, n, f, comm, attempt);
      rec.attempts = attempt + 1;
      return rec;
    } catch (const fault::NodeFailedError& e) {
      status = analysis::RunStatus::kNodeFailure;
      error = e.what();
    } catch (const fault::MessageLossError& e) {
      status = analysis::RunStatus::kMessageLoss;
      error = e.what();
    } catch (const mpi::TimeoutError& e) {
      status = analysis::RunStatus::kTimeout;
      error = e.what();
    } catch (const mpi::DeadlockError& e) {
      status = analysis::RunStatus::kDeadlock;
      error = e.what();
    }
    if (attempt + 1 < max_attempts) continue;
    analysis::RunRecord rec;
    rec.nodes = n;
    rec.frequency_mhz = f;
    rec.status = status;
    rec.error = std::move(error);
    rec.attempts = attempt + 1;
    return rec;
  }
}

int mode_faults(const util::Cli& cli, bool traced) {
  const bool small = cli.has("small");
  const int jobs = traced ? 1 : static_cast<int>(cli.get_int("jobs", 1));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  const auto start = Clock::now();
  Spans spans(traced, start);

  double setup_end_mono = 0.0;
  FaultSetup s = [&] {
    Spans::Scope sc(spans, "setup");
    return timed_setup([&] { return make_fault_setup(small, jobs, seed); },
                       &setup_end_mono);
  }();
  if (cli.has("setup-only")) {
    util::Json res = util::Json::object();
    res.set("setup_end_mono", num(setup_end_mono));
    std::printf("%s\n", res.dump().c_str());
    return 0;
  }
  obs::Registry& reg = obs::registry();
  const char* const counters[] = {"fault.message_drops", "fault.message_delays",
                                  "mpi.deadlocks", "sweep.run_retries",
                                  "sweep.send_retries"};
  std::map<std::string, double> before;
  for (const char* c : counters)
    before[c] = static_cast<double>(reg.counter(c).value());

  std::uint64_t digest = util::fnv1a("");
  std::vector<double> sweep_s, point_s;
  double points = 0, aborted = 0, run_retries = 0, send_retries = 0;
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < s.kernels.size(); ++k) {
    for (std::size_t r = 0; r < s.execs.size(); ++r) {
      const npb::Kernel& kernel = *s.kernels[k];
      analysis::SweepExecutor& exec = *s.execs[r];
      const auto ts = Clock::now();
      std::vector<analysis::RunRecord> records;
      if (traced) {
        analysis::RunMatrix matrix(exec.cluster(), s.specs[r].power);
        for (const int n : s.env.nodes)
          for (const double f : s.env.freqs_mhz) {
            const auto tp = Clock::now();
            Spans::Scope sc(spans, "analysis.run_matrix.faulted_point");
            records.push_back(failsoft_point(matrix, kernel, n, f, 0.0,
                                             s.specs[r].options.run_retries));
            point_s.push_back(seconds_since(tp));
          }
      } else {
        records = exec.run({&kernel, s.env.nodes, s.env.freqs_mhz, 0.0}).records;
      }
      sweep_s.push_back(seconds_since(ts));
      for (const analysis::RunRecord& rec : records) {
        digest = chain_digest(digest, rec);
        points += 1;
        aborted += rec.failed() ? 1 : 0;
        run_retries += rec.attempts - 1;
        send_retries += rec.send_retries;
      }
    }
  }
  const double wall_s = seconds_since(t0);

  util::Json res = util::Json::object();
  res.set("setup_end_mono", num(setup_end_mono));
  res.set("wall_s", num(wall_s));
  res.set("total_s", num(seconds_since(start)));
  res.set("sweep_s", num_array(sweep_s));
  res.set("points", num(points));
  res.set("digest", util::Json(hex64(digest)));
  res.set("jobs", num(s.execs.front()->jobs()));
  util::Json c = util::Json::object();
  for (const char* name : counters)
    c.set(name, num(static_cast<double>(reg.counter(name).value()) - before[name]));
  c.set("aborted_points", num(aborted));
  c.set("record_run_retries", num(run_retries));
  c.set("record_send_retries", num(send_retries));
  c.set("repricer_lanes",
        num(static_cast<double>(reg.counter("repricer.batch_lanes").value())));
  res.set("counters", std::move(c));
  if (traced) {
    double sum = 0.0, mx = 0.0;
    for (double p : point_s) {
      sum += p;
      mx = std::max(mx, p);
    }
    res.set("faulted_point_s", num(sum));
    res.set("faulted_point_max_s", num(mx));
    const double traced_wall = seconds_since(start);
    res.set("traced_wall_s", num(traced_wall));
    res.set("coverage", num(spans.covered_s() / traced_wall));
    res.set("spans", spans.summary());
    std::string dump;
    spans.append_to(dump, 0);
    write_file(cli.get("trace-out", ""), dump);
  }
  std::printf("%s\n", res.dump().c_str());
  return 0;
}

// ---------------------------------------------------------------------
// Per-layer microprobes.

/// Seconds per call of `fn`, the median of `rounds` rounds of `reps`.
double per_call_s(int rounds, int reps, const std::function<void(int)>& fn) {
  std::vector<double> v;
  int i = 0;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    for (int k = 0; k < reps; ++k) fn(i++);
    v.push_back(seconds_since(t0) / reps);
  }
  return median(v);
}

int mode_probes(const util::Cli& cli) {
  const bool small = cli.has("small");
  const std::filesystem::path scratch = cli.get("scratch", "pasbench_scratch");
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const int scale_div = small ? 10 : 1;
  util::Json res = util::Json::object();
  const analysis::Scale scale =
      small ? analysis::Scale::kSmall : analysis::Scale::kPaper;
  const analysis::ExperimentEnv env =
      small ? analysis::ExperimentEnv::small() : analysis::ExperimentEnv::paper();

  // npb: each kernel once at N=1, 600 MHz, first in this fresh process
  // so no memoized state is warm.
  analysis::RunMatrix matrix(env.cluster);
  analysis::RunRecord sample;
  for (const char* name : kGridKernels) {
    const auto kernel = analysis::make_kernel(name, scale);
    const auto t0 = Clock::now();
    analysis::RunRecord rec = matrix.run_one(*kernel, 1, 600.0);
    std::string lower = name;
    for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
    res.set("npb." + lower + ".n1_s", num(seconds_since(t0)));
    if (std::string(name) == "FT") sample = rec;
  }

  // mpi: Runtime::run with communication-only bodies.
  {
    mpi::Runtime rt(sim::ClusterConfig::paper_testbed());
    const int p2p = 2000 / scale_div, bar = 200 / scale_div,
              a2a = 100 / scale_div;
    rt.run(16, 600.0, [](mpi::Comm& c) { c.barrier(); });  // spawn ranks
    auto timed = [&](int nranks, const mpi::Runtime::RankBody& body) {
      std::vector<double> v;
      for (int r = 0; r < 5; ++r) {
        const auto t0 = Clock::now();
        rt.run(nranks, 600.0, body);
        v.push_back(seconds_since(t0));
      }
      return median(v);
    };
    const double p2p_s = timed(2, [&](mpi::Comm& c) {
      for (int i = 0; i < p2p; ++i) {
        if (c.rank() == 0) {
          c.send_bytes(1, 7, 8);
          c.recv_bytes(1, 7);
        } else {
          c.recv_bytes(0, 7);
          c.send_bytes(0, 7, 8);
        }
      }
    });
    res.set("mpi.p2p_us", num(1e6 * p2p_s / (2.0 * p2p)));
    const double bar_s = timed(16, [&](mpi::Comm& c) {
      for (int i = 0; i < bar; ++i) c.barrier();
    });
    res.set("mpi.barrier16_us", num(1e6 * bar_s / bar));
    const double a2a_s = timed(16, [&](mpi::Comm& c) {
      for (int i = 0; i < a2a; ++i)
        c.alltoall(std::vector<mpi::Payload>(16, mpi::Payload(1, 1.0)));
    });
    res.set("mpi.alltoall16_us", num(1e6 * a2a_s / a2a));
  }

  // serve.protocol and CAS codecs on a real record.
  const int codec = 2000 / scale_div;
  std::string line = serve::encode_point_line(0, sample, false);
  res.set("serve.protocol.encode_us",
          num(1e6 * per_call_s(5, codec, [&](int i) {
                line = serve::encode_point_line(static_cast<std::size_t>(i),
                                                sample, false);
              })));
  line = serve::encode_point_line(0, sample, false);
  bool ok = true;
  res.set("serve.protocol.decode_us",
          num(1e6 * per_call_s(5, codec, [&](int) {
                serve::PointLine pl;
                ok &= serve::decode_point_line(util::Json::parse(line), &pl);
              })));
  res.set("serve.cas.codec_us",
          num(1e6 * per_call_s(5, codec, [&](int) {
                analysis::RunRecord r;
                ok &= serve::cas_decode_record(serve::cas_encode_record(sample),
                                               &r);
              })));

  // analysis.run_cache / journal against disk, fsync'd publish.
  const int io = std::max(5, 40 / scale_div);
  const std::string cache_dir = (scratch / "cache").string();
  std::vector<std::string> keys;
  for (int i = 0; i < 5 * io; ++i) keys.push_back(util::strf("pasbench-key-%d", i));
  {
    analysis::RunCache cache(cache_dir);
    res.set("analysis.run_cache.store_ms",
            num(1e3 * per_call_s(5, io, [&](int i) {
                  cache.store(keys[static_cast<std::size_t>(i)], sample);
                })));
  }
  {
    analysis::RunCache fresh(cache_dir);  // cold memory: reads hit disk
    res.set("analysis.run_cache.lookup_ms",
            num(1e3 * per_call_s(5, io, [&](int i) {
                  ok &= fresh.lookup(keys[static_cast<std::size_t>(i)]).has_value();
                })));
  }
  // A small-scale LU column head gives a real ledger and checkpoint.
  const auto lu = analysis::make_kernel("LU", analysis::Scale::kSmall);
  analysis::RunMatrix small_matrix(sim::ClusterConfig::paper_testbed(4));
  small_matrix.ledger_recorder().begin(4, 0.0);
  small_matrix.run_one(*lu, 4, 600.0);
  const sim::WorkLedger ledger = small_matrix.ledger_recorder().take();
  {
    analysis::RunCache cache(cache_dir);
    res.set("analysis.run_cache.ledger_store_ms",
            num(1e3 * per_call_s(5, io, [&](int i) {
                  cache.store_ledger("ledger-" + keys[static_cast<std::size_t>(i)],
                                     ledger);
                })));
  }
  {
    analysis::SweepJournal journal((scratch / "probe.journal").string(), false);
    res.set("analysis.journal.append_ms",
            num(1e3 * per_call_s(5, io, [&](int i) {
                  ok &= journal.append(keys[static_cast<std::size_t>(i)], sample);
                })));
  }
  {
    sim::Checkpoint ckpt;
    analysis::SegmentOptions seg;
    seg.stop_at = 1;
    seg.capture = &ckpt;
    small_matrix.run_segment(*lu, 4, 600.0, 0.0, 0, seg);
    std::string blob = ckpt.encode();
    const int ck = 200 / scale_div;
    res.set("sim.checkpoint.encode_ms",
            num(1e3 * per_call_s(5, ck, [&](int) { blob = ckpt.encode(); })));
    res.set("sim.checkpoint.decode_ms",
            num(1e3 * per_call_s(5, ck, [&](int) {
                  sim::Checkpoint back;
                  ok &= sim::Checkpoint::decode(blob, &back);
                })));
    res.set("sim.checkpoint.bytes", num(static_cast<double>(blob.size())));
  }
  res.set("util.subprocess.spawn_ms",
          num(1e3 * per_call_s(5, io, [&](int) {
                ok &= util::Subprocess::call([] { return 0; }).ok();
              })));
  res.set("ok", util::Json(ok));
  std::filesystem::remove_all(scratch);
  std::printf("%s\n", res.dump().c_str());
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------------
// serve_mixed load generator.

enum QueryClass { kCold = 0, kRepeat = 1, kExtend = 2 };
const char* const kClassNames[] = {"cold", "repeat", "extend"};

struct Column {
  int kernel = 0;  ///< index into kGridKernels
  int nodes = 1;
  double comm = 0.0;
  int depth = 0;   ///< iterations override; 0 for EP (no hooks)
  int freqset = 0;
  bool operator<(const Column& o) const {
    return std::tie(kernel, nodes, comm, depth, freqset) <
           std::tie(o.kernel, o.nodes, o.comm, o.depth, o.freqset);
  }
};

analysis::SweepSpec column_spec(const Column& c) {
  analysis::SweepSpec s;
  s.kernel = kGridKernels[c.kernel];
  s.scale = "small";
  s.nodes = {c.nodes};
  if (c.freqset == 1) s.freqs_mhz = {800.0, 1200.0};
  s.comm_dvfs_mhz = c.comm;
  s.iterations = c.depth;
  s.options.checkpoints = c.kernel != 0;
  return s;
}

struct Query {
  QueryClass cls = kCold;
  Column col;
  int broker = 0;
  long ref = -1;  ///< the earlier query a repeat/extension builds on
};

/// The seeded query mix, stratified so every block of ten queries holds
/// exactly five cold columns, three repeats (half sent to the non-owner
/// broker) and two deeper-iteration extensions of an earlier FT/LU/CG/MG
/// column, in a seeded order; cold columns cycle through the kernels.
/// Only the generated specs reach the brokers.
std::vector<Query> make_plan(std::uint64_t seed, std::size_t length,
                             const std::vector<std::string>& brokers) {
  std::mt19937_64 rng(seed);
  const int node_opts[] = {1, 2, 4};
  const double comm_opts[] = {0.0, 600.0, 800.0, 1000.0, 1200.0};
  constexpr int kColdDepthMax = 8, kDepthMax = 16, kLag = 8;
  std::set<Column> used;
  std::vector<Query> plan;
  auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  analysis::RunCache dummy;
  serve::ArtifactStore ring(&dummy, brokers.at(0), {brokers.at(1)});
  auto owner_of = [&](const Column& c) {
    const analysis::SweepSpec spec = column_spec(c);
    const auto kernel = analysis::make_spec_kernel(spec);
    return ring.owner_of(analysis::RunCache::ledger_key(
               *kernel, spec.resolved_cluster(), c.nodes, c.comm)) < 0
               ? 0
               : 1;
  };
  int next_kernel = 0;
  auto fresh_cold = [&](Column* out) {
    for (int tries = 0; tries < 5 * 64; ++tries) {
      Column c;
      c.kernel = (next_kernel + tries / 64) % 5;
      c.nodes = node_opts[pick(3)];
      c.comm = comm_opts[pick(5)];
      c.freqset = pick(2);
      c.depth = c.kernel == 0 ? 0 : 1 + pick(kColdDepthMax);
      if (used.insert(c).second) {
        next_kernel = (c.kernel + 1) % 5;
        *out = c;
        return true;
      }
    }
    return false;
  };
  std::vector<QueryClass> block;
  while (plan.size() < length) {
    const long i = static_cast<long>(plan.size());
    if (block.empty()) {
      block = {kCold, kCold, kCold, kCold, kCold, kRepeat, kRepeat, kRepeat,
               kExtend, kExtend};
      std::shuffle(block.begin(), block.end(), rng);
    }
    const QueryClass want = i < kLag ? kCold : block.back();
    block.pop_back();
    Query q;
    bool made = false;
    if (want == kRepeat) {
      q.cls = kRepeat;
      q.ref = pick(static_cast<int>(i - kLag + 1));
      q.col = plan[static_cast<std::size_t>(q.ref)].col;
      const int owner = owner_of(q.col);
      q.broker = (rng() & 1) ? owner : 1 - owner;
      made = true;
    } else if (want == kExtend) {
      for (int tries = 0; tries < 64 && !made; ++tries) {
        const long ref = pick(static_cast<int>(i - kLag + 1));
        const Query& base = plan[static_cast<std::size_t>(ref)];
        if (base.col.kernel == 0) continue;
        for (int d = base.col.depth + 1; d <= kDepthMax && !made; ++d) {
          Column c = base.col;
          c.depth = d;
          if (used.insert(c).second) {
            q.cls = kExtend;
            q.col = c;
            q.ref = ref;
            q.broker = pick(2);
            made = true;
          }
        }
      }
    }
    if (!made) {
      q = Query{};
      q.cls = kCold;
      if (!fresh_cold(&q.col)) break;  // column space exhausted
      q.broker = pick(2);
    }
    plan.push_back(q);
  }
  return plan;
}

struct Served {
  bool done = false;
  bool ok = false;
  double latency_s = 0.0;
  bool all_from_cache = false;
  std::vector<analysis::RunRecord> records;
  std::string error;
};

/// The oracle file: one entry per column, its records' CAS encodings and
/// the seconds its offline run took.
util::Json oracle_json(const std::map<Column, std::vector<std::string>>& oracle,
                       const std::map<Column, double>& seconds) {
  util::Json out = util::Json::array();
  for (const auto& [c, records] : oracle) {
    util::Json e = util::Json::object();
    e.set("kernel", util::Json(c.kernel));
    e.set("nodes", util::Json(c.nodes));
    e.set("comm", num(c.comm));
    e.set("depth", util::Json(c.depth));
    e.set("freqset", util::Json(c.freqset));
    e.set("seconds", num(seconds.at(c)));
    util::Json recs = util::Json::array();
    for (const std::string& r : records) recs.push_back(util::Json(r));
    e.set("records", std::move(recs));
    out.push_back(std::move(e));
  }
  return out;
}

/// Reads an oracle file if there is one; a missing or unreadable file
/// leaves the maps empty, so every column is computed.
void load_oracle(const std::string& path,
                 std::map<Column, std::vector<std::string>>* oracle,
                 std::map<Column, double>* seconds) {
  const std::optional<std::string> text = util::read_file(path);
  if (!text) return;
  auto field = [](const util::Json& e, const char* key) -> const util::Json& {
    const util::Json* v = e.find(key);
    if (v == nullptr) throw std::runtime_error(std::string("oracle: no ") + key);
    return *v;
  };
  try {
    const util::Json doc = util::Json::parse(*text);
    for (const util::Json& e : doc.items()) {
      Column c;
      c.kernel = static_cast<int>(field(e, "kernel").as_number());
      c.nodes = static_cast<int>(field(e, "nodes").as_number());
      c.comm = field(e, "comm").as_number();
      c.depth = static_cast<int>(field(e, "depth").as_number());
      c.freqset = static_cast<int>(field(e, "freqset").as_number());
      std::vector<std::string> records;
      for (const util::Json& r : field(e, "records").items())
        records.push_back(r.as_string());
      (*oracle)[c] = std::move(records);
      (*seconds)[c] = field(e, "seconds").as_number();
    }
  } catch (const std::exception&) {
    oracle->clear();
    seconds->clear();
  }
}

int mode_loadgen(const util::Cli& cli) {
  const std::vector<std::string> brokers = cli.get_list("broker");
  const std::vector<std::string> cache_dirs = cli.get_list("cache-dir");
  if (brokers.size() != 2 || cache_dirs.size() != 2) {
    std::fprintf(stderr, "loadgen: needs two --broker and two --cache-dir\n");
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  // The window is a fixed number of queries; --max-seconds only caps it.
  const double window_s = cli.get_double("max-seconds", 120.0);
  const int clients = static_cast<int>(cli.get_int("clients", 4));
  const bool traced = cli.has("trace-out");
  const std::size_t plan_len =
      static_cast<std::size_t>(cli.get_int("queries", 2000));

  const std::vector<Query> plan = make_plan(seed, plan_len, brokers);
  std::vector<Served> served(plan.size());
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  std::vector<std::unique_ptr<Spans>> spans;
  for (int c = 0; c < clients; ++c)
    spans.push_back(std::make_unique<Spans>(traced, start));
  const double cpu0 = cpu_self_s();

  auto client_loop = [&](int cid) {
    std::unique_ptr<serve::Client> conn[2];
    Spans& sp = *spans[static_cast<std::size_t>(cid)];
    for (;;) {
      if (seconds_since(start) >= window_s) return;
      const std::size_t i = next.fetch_add(1);
      if (i >= plan.size()) return;
      const Query& q = plan[i];
      Served& out = served[i];
      const analysis::SweepSpec spec = column_spec(q.col);
      const auto t0 = Clock::now();
      try {
        Spans::Scope s(sp, std::string("serve.client.") + kClassNames[q.cls],
                       static_cast<long>(i));
        auto& cl = conn[q.broker];
        if (!cl) {
          Spans::Scope c(sp, "serve.client.connect", static_cast<long>(i));
          serve::ClientOptions opts;
          const std::string& addr = brokers[static_cast<std::size_t>(q.broker)];
          opts.host = addr.substr(0, addr.rfind(':'));
          opts.tcp_port = std::stoi(addr.substr(addr.rfind(':') + 1));
          opts.connect_retries = 3;
          opts.recv_timeout_s = 60.0;
          cl = std::make_unique<serve::Client>(opts);
        }
        serve::SweepReply reply;
        {
          Spans::Scope w(sp, "serve.client.sweep", static_cast<long>(i));
          reply = cl->sweep(spec);
        }
        out.latency_s = seconds_since(t0);
        out.all_from_cache = !reply.from_cache.empty();
        for (char fc : reply.from_cache) out.all_from_cache &= fc != 0;
        out.records = std::move(reply.records);
        out.ok = true;
      } catch (const std::exception& e) {
        out.latency_s = seconds_since(t0);
        out.error = e.what();
        conn[q.broker].reset();
      }
      out.done = true;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();
  const double elapsed = seconds_since(start);
  const double cpu_window = cpu_self_s() - cpu0;

  // Offline oracle, outside the timed window: every distinct served spec
  // through an in-harness SweepExecutor::run (in-memory cache, so
  // checkpointed specs take the same capture-and-resume path). Windows
  // that replay one plan share it through --oracle FILE: columns found
  // there are read back, the rest are computed and the file rewritten.
  // A traced window always computes, because it times the oracle.
  const std::string oracle_path = traced ? "" : cli.get("oracle", "");
  std::map<Column, std::vector<std::string>> oracle;
  std::map<Column, double> oracle_s;
  if (!oracle_path.empty()) load_oracle(oracle_path, &oracle, &oracle_s);
  std::vector<Column> todo;
  for (std::size_t i = 0; i < plan.size(); ++i)
    if (served[i].done && !oracle.count(plan[i].col)) {
      oracle[plan[i].col] = {};
      todo.push_back(plan[i].col);
    }
  std::mutex oracle_mutex;
  std::atomic<std::size_t> onext{0};
  const int oracle_threads =
      traced ? 1 : std::max(1, std::min(clients, util::ThreadPool::default_jobs()));
  auto oracle_loop = [&] {
    for (;;) {
      const std::size_t j = onext.fetch_add(1);
      if (j >= todo.size()) return;
      analysis::SweepSpec spec = column_spec(todo[j]);
      spec.options.jobs = 1;
      const auto t0 = Clock::now();
      analysis::SweepExecutor exec(spec);
      const analysis::MatrixResult m = exec.run();
      const double s = seconds_since(t0);
      std::vector<std::string> bytes;
      for (const analysis::RunRecord& r : m.records)
        bytes.push_back(serve::cas_encode_record(r));
      std::lock_guard<std::mutex> lock(oracle_mutex);
      oracle[todo[j]] = std::move(bytes);
      oracle_s[todo[j]] = s;
    }
  };
  std::vector<std::thread> oracle_pool;
  for (int t = 0; t < oracle_threads; ++t) oracle_pool.emplace_back(oracle_loop);
  for (std::thread& t : oracle_pool) t.join();
  if (!oracle_path.empty() && !todo.empty() &&
      !write_file(oracle_path, oracle_json(oracle, oracle_s).dump())) {
    std::fprintf(stderr, "loadgen: cannot write %s\n", oracle_path.c_str());
    return 2;
  }

  // Checkpoint evidence for extensions, read from the brokers' caches:
  // the broker holding the extension's own checkpoint executed it, and
  // it warm-started when that cache also holds a shallower one.
  std::vector<std::unique_ptr<analysis::RunCache>> caches;
  for (const std::string& d : cache_dirs)
    caches.push_back(std::make_unique<analysis::RunCache>(d));

  double attempted = 0, failed = 0, mismatched = 0, errors = 0;
  std::vector<double> lat_ms, class_ms[3], cold_offline_ms, cold_overhead_ms;
  double repeats = 0, warm_repeats = 0, extends = 0, warm_extends = 0;
  std::string first_error;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    const Served& s = served[i];
    if (!s.done) continue;
    attempted += 1;
    const Query& q = plan[i];
    bool good = s.ok;
    if (!s.ok) {
      errors += 1;
      if (first_error.empty()) first_error = s.error;
    } else {
      const std::vector<std::string>& want = oracle[q.col];
      bool same = want.size() == s.records.size();
      for (std::size_t k = 0; same && k < want.size(); ++k)
        same = serve::cas_encode_record(s.records[k]) == want[k];
      if (!same) {
        mismatched += 1;
        good = false;
        if (first_error.empty())
          first_error = util::strf("query %zu: served records differ from the offline oracle", i);
      }
    }
    if (!good) {
      failed += 1;
      continue;
    }
    lat_ms.push_back(1e3 * s.latency_s);
    class_ms[q.cls].push_back(1e3 * s.latency_s);
    if (q.cls == kCold) {
      cold_offline_ms.push_back(1e3 * oracle_s[q.col]);
      cold_overhead_ms.push_back(1e3 * (s.latency_s - oracle_s[q.col]));
    } else if (q.cls == kRepeat) {
      repeats += 1;
      warm_repeats += s.all_from_cache ? 1 : 0;
    } else {
      extends += 1;
      const analysis::SweepSpec spec = column_spec(q.col);
      const auto kernel = analysis::make_spec_kernel(spec);
      const std::string key = analysis::RunCache::checkpoint_key(
          *kernel, spec.resolved_cluster(), q.col.nodes,
          spec.resolved_freqs().front(), q.col.comm);
      for (auto& cache : caches) {
        const auto own = cache->lookup_checkpoint(key, q.col.depth);
        if (own && own->boundary == q.col.depth) {
          warm_extends += cache->lookup_checkpoint(key, q.col.depth - 1) ? 1 : 0;
          break;
        }
      }
    }
  }

  util::Json res = util::Json::object();
  res.set("planned", num(static_cast<double>(plan.size())));
  res.set("attempted", num(attempted));
  res.set("failed", num(failed));
  res.set("errors", num(errors));
  res.set("mismatched", num(mismatched));
  res.set("first_error", util::Json(first_error));
  res.set("elapsed_s", num(elapsed));
  res.set("qps", num((attempted - failed) / elapsed));
  res.set("samples", num(static_cast<double>(lat_ms.size())));
  res.set("latencies_ms", num_array(lat_ms));
  for (int c = 0; c < 3; ++c) {
    res.set(std::string(kClassNames[c]) + "_ms_p50", num(median(class_ms[c])));
    res.set(std::string(kClassNames[c]) + "_count",
            num(static_cast<double>(class_ms[c].size())));
  }
  res.set("offline_ms_cold", num(median(cold_offline_ms)));
  res.set("overhead_ms_cold", num(median(cold_overhead_ms)));
  res.set("warm_ratio", num(repeats > 0 ? warm_repeats / repeats : 0.0));
  res.set("warmstart_ratio", num(extends > 0 ? warm_extends / extends : 0.0));
  res.set("cpu_window_s", num(cpu_window));
  if (traced) {
    Spans all(true, start);
    std::string dump;
    for (std::size_t c = 0; c < spans.size(); ++c) {
      spans[c]->append_to(dump, static_cast<int>(c));
      all.merge_from(*spans[c]);
    }
    res.set("spans", all.summary());
    write_file(cli.get("trace-out", ""), dump);
  }
  std::printf("%s\n", res.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const pas::util::Cli cli(argc, argv);
  if (cli.positional().empty()) {
    std::fprintf(stderr,
                 "usage: pasbench_harness grid|grid-trace|faults|faults-trace|"
                 "probes|loadgen [flags]\n");
    return 2;
  }
  const std::string mode = cli.positional().front();
  try {
    if (mode == "grid") return mode_grid(cli, false);
    if (mode == "grid-trace") return mode_grid(cli, true);
    if (mode == "faults") return mode_faults(cli, false);
    if (mode == "faults-trace") return mode_faults(cli, true);
    if (mode == "probes") return mode_probes(cli);
    if (mode == "loadgen") return mode_loadgen(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pasbench_harness %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "pasbench_harness: unknown mode %s\n", mode.c_str());
  return 2;
}
