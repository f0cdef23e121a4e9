// The paper-reproduction driver: every table, figure and study of the
// paper's evaluation is one named case of this program.
//
//   bench_paper [case ...] [options]      (no case = every case, in order)
//
//   table2      Table 2, dataset details            BENCH_table2_datasets.json
//   table3      Table 3, L2/PVB vs SOTA             BENCH_table3_sota.json
//   table4      Table 4, EPE and TAT                BENCH_table4_epe_tat.json
//   fig3        Fig. 3, loss convergence curves     BENCH_fig3_convergence.json
//                                                   + fig3_<case>.csv
//   fig5        Fig. 5, per-step loss mean/STD      BENCH_fig5_meanstd.json
//                                                   + fig5_<suite>.csv
//   ablation_k  Sec. 4.2, hypergradient budget K    BENCH_ablation_k.json
//   activation  Sec. 3.1, sigmoid vs cosine         BENCH_activation.json
//   accel       Sec. 3.1/4.1, Abbe vs Hopkins cost  BENCH_abbe_accel.json
//
// One process builds the three suites and the thread pool once.  Tables 3
// and 4 read the same comparison run (every method on every clip), which
// is made on first use, so Table 4's TAT is always that of this build.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "grad/hopkins_grad.hpp"
#include "io/csv.hpp"
#include "io/table.hpp"
#include "litho/hopkins.hpp"
#include "math/grid_ops.hpp"
#include "math/statistics.hpp"

namespace {

using namespace bismo;
using namespace bismo::bench;

/// One (method, clip) outcome of the Table 3/4 comparison.
struct CaseResult {
  std::string dataset;
  std::string clip;
  Method method = Method::kAbbeMo;
  double l2_nm2 = 0.0;
  double pvb_nm2 = 0.0;
  double epe = 0.0;
  double tat_seconds = 0.0;
  long grad_evals = 0;
  double final_loss = 0.0;
};

/// Build the ICCAD13 / ICCAD-L / ISPD19-like suites at bench scale.
std::vector<Dataset> make_bench_datasets(const BenchArgs& args) {
  std::vector<Dataset> suites;
  for (DatasetKind kind :
       {DatasetKind::kIccad13, DatasetKind::kIccadL, DatasetKind::kIspd19}) {
    DatasetSpec spec = dataset_spec(kind);
    spec.tile_nm = args.tile_nm;
    suites.push_back(make_dataset(spec, args.cases_per_dataset, args.seed));
  }
  return suites;
}

/// Run `method` on one clip and collect metrics.
CaseResult run_case(const BenchArgs& args, const Dataset& suite,
                    std::size_t clip_index, Method method, ThreadPool& pool) {
  const SmoConfig cfg = args.config();
  const SmoProblem problem(cfg, suite.clips[clip_index], &pool);
  const RunResult run = run_method(problem, method);
  const SolutionMetrics metrics =
      problem.evaluate_solution(run.theta_m, run.theta_j);
  CaseResult out;
  out.dataset = suite.spec.name;
  out.clip = suite.names[clip_index];
  out.method = method;
  out.l2_nm2 = metrics.l2_nm2;
  out.pvb_nm2 = metrics.pvb_nm2;
  out.epe = static_cast<double>(metrics.epe_violations);
  out.tat_seconds = run.wall_seconds;
  out.grad_evals = run.gradient_evaluations;
  out.final_loss = run.final_loss();
  return out;
}

/// Run every method over every clip of `suites` (the Table 3/4 protocol).
std::vector<CaseResult> run_full_comparison(const BenchArgs& args,
                                            const std::vector<Dataset>& suites,
                                            ThreadPool& pool) {
  std::vector<CaseResult> results;
  for (const Dataset& suite : suites) {
    for (std::size_t c = 0; c < suite.clips.size(); ++c) {
      for (Method method : all_methods()) {
        std::fprintf(stderr, "  running %s on %s...\n",
                     to_string(method).c_str(), suite.names[c].c_str());
        results.push_back(run_case(args, suite, c, method, pool));
      }
    }
  }
  return results;
}

/// What every case of one process shares.
struct Paper {
  explicit Paper(const BenchArgs& a)
      : args(a), suites(make_bench_datasets(a)), pool(a.threads) {}

  /// The Table 3/4 comparison, run on first use.
  const std::vector<CaseResult>& comparison() {
    if (!comparison_) comparison_ = run_full_comparison(args, suites, pool);
    return *comparison_;
  }

  BenchArgs args;
  std::vector<Dataset> suites;
  ThreadPool pool;

 private:
  std::optional<std::vector<CaseResult>> comparison_;
};

// Table 2: "Details of the Dataset" -- per-suite statistics of the
// synthetic benchmark clips standing in for ICCAD13 / ICCAD-L / ISPD19
// (the generator rationale is in src/layout/generators.hpp).
void table2(Paper& p) {
  BenchReport report("table2_datasets", p.args);
  TablePrinter table({"Dataset", "From", "Area (avg nm^2)", "Test num.",
                      "Layer", "CD", "tile"});
  for (const Dataset& suite : p.suites) {
    RunningStats area;
    for (const Layout& clip : suite.clips) area.push(clip.union_area_nm2());
    report.add(suite.spec.name,
               {{"area_avg_nm2", area.mean()},
                {"area_std_nm2", area.stddev()},
                {"test_count", static_cast<double>(suite.clips.size())},
                {"cd_nm", suite.spec.cd_nm},
                {"tile_um2",
                 suite.spec.tile_nm * suite.spec.tile_nm / 1e6}});
    table.add_row({suite.spec.name,
                   "synthetic generator",
                   TablePrinter::num(area.mean(), 0),
                   std::to_string(suite.clips.size()),
                   suite.spec.layer,
                   TablePrinter::num(suite.spec.cd_nm, 0) + " nm",
                   TablePrinter::num(suite.spec.tile_nm * suite.spec.tile_nm /
                                         1e6,
                                     3) +
                       " um^2"});
  }
  table.print(std::cout);
  report.write();
  std::cout << "\nPaper (Table 2, 4 um^2 tiles): ICCAD13 202655 / 10 / Metal"
               " / 32 nm; ICCAD-L 475571 / 10 / Metal / 32 nm;"
               " ISPD19 698743 / 100 / Metal+Via / 28 nm.\n"
               "Reproduction target: the area ratios across suites and the"
               " CD/layer composition.\n";
}

// Table 3: "Result comparison with SOTA" -- L2 and PVB for the three MO
// baselines, the two AM-SMO baselines and the three BiSMO variants, per
// dataset, with Average and Ratio rows (ratios normalized to BiSMO-NMN, as
// in the paper).
void table3(Paper& p) {
  const std::vector<CaseResult>& results = p.comparison();

  // Aggregate: per (method, dataset) means.
  std::map<Method, std::map<std::string, RunningStats>> l2;
  std::map<Method, std::map<std::string, RunningStats>> pvb;
  std::map<Method, RunningStats> l2_all;
  std::map<Method, RunningStats> pvb_all;
  std::vector<std::string> datasets;
  for (const CaseResult& r : results) {
    l2[r.method][r.dataset].push(r.l2_nm2);
    pvb[r.method][r.dataset].push(r.pvb_nm2);
    l2_all[r.method].push(r.l2_nm2);
    pvb_all[r.method].push(r.pvb_nm2);
    if (std::find(datasets.begin(), datasets.end(), r.dataset) ==
        datasets.end()) {
      datasets.push_back(r.dataset);
    }
  }

  std::vector<std::string> headers{"Bench"};
  for (Method m : all_methods()) {
    headers.push_back(to_string(m) + " L2");
    headers.push_back(to_string(m) + " PVB");
  }
  TablePrinter table(headers);
  for (const std::string& dataset : datasets) {
    std::vector<std::string> row{dataset};
    for (Method m : all_methods()) {
      row.push_back(TablePrinter::num(l2[m][dataset].mean(), 0));
      row.push_back(TablePrinter::num(pvb[m][dataset].mean(), 0));
    }
    table.add_row(row);
  }
  table.add_separator();
  std::vector<std::string> avg_row{"Average"};
  for (Method m : all_methods()) {
    avg_row.push_back(TablePrinter::num(l2_all[m].mean(), 0));
    avg_row.push_back(TablePrinter::num(pvb_all[m].mean(), 0));
  }
  table.add_row(avg_row);
  const double ref_l2 = l2_all[Method::kBismoNmn].mean();
  const double ref_pvb = pvb_all[Method::kBismoNmn].mean();
  std::vector<std::string> ratio_row{"Ratio"};
  for (Method m : all_methods()) {
    ratio_row.push_back(
        TablePrinter::num(l2_all[m].mean() / std::max(ref_l2, 1e-12), 2));
    ratio_row.push_back(
        TablePrinter::num(pvb_all[m].mean() / std::max(ref_pvb, 1e-12), 2));
  }
  table.add_row(ratio_row);
  table.print(std::cout);

  BenchReport report("table3_sota", p.args);
  for (const CaseResult& r : results) {
    report.add(r.clip + "/" + to_string(r.method),
               {{"l2_nm2", r.l2_nm2},
                {"pvb_nm2", r.pvb_nm2},
                {"epe", r.epe},
                {"tat_seconds", r.tat_seconds},
                {"grad_evals", static_cast<double>(r.grad_evals)},
                {"final_loss", r.final_loss}});
  }
  for (Method m : all_methods()) {
    report.add("average/" + to_string(m),
               {{"l2_nm2", l2_all[m].mean()},
                {"pvb_nm2", pvb_all[m].mean()},
                {"l2_ratio", l2_all[m].mean() / std::max(ref_l2, 1e-12)},
                {"pvb_ratio", pvb_all[m].mean() / std::max(ref_pvb, 1e-12)}});
  }
  report.write();

  std::cout << "\nPaper Table 3 average ratios (vs BiSMO-NMN): NILT 2.56/2.44,"
               " DAC23-MILT 2.07/2.03, Abbe-MO 1.56/1.65, AM(A-H) 1.93/1.85,"
               " AM(A-A) 1.41/1.46, FD 1.03/1.09, CG 1.03/1.03, NMN 1.00/1.00.\n"
               "Reproduction target: ordering MO-family > AM-family > BiSMO"
               " on the continuous objective; margins compress at bench"
               " scale.\n";
}

// Table 4: "EPE and runtime comparison" -- average EPE violation counts
// and turnaround time (TAT) per method, with ratios normalized to
// BiSMO-NMN, over Table 3's runs.
void table4(Paper& p) {
  std::map<Method, RunningStats> epe;
  std::map<Method, RunningStats> tat;
  std::map<Method, RunningStats> evals;
  for (const CaseResult& r : p.comparison()) {
    epe[r.method].push(r.epe);
    tat[r.method].push(r.tat_seconds);
    evals[r.method].push(static_cast<double>(r.grad_evals));
  }

  std::vector<std::string> headers{"Metric"};
  for (Method m : all_methods()) headers.push_back(to_string(m));
  TablePrinter table(headers);
  auto add_metric = [&table](const std::string& name,
                             std::map<Method, RunningStats>& stats,
                             int digits) {
    std::vector<std::string> row{name};
    for (Method m : all_methods()) {
      row.push_back(TablePrinter::num(stats[m].mean(), digits));
    }
    table.add_row(row);
  };
  auto add_ratio = [&table](const std::string& name,
                            std::map<Method, RunningStats>& stats) {
    const double ref = stats[Method::kBismoNmn].mean();
    std::vector<std::string> row{name};
    for (Method m : all_methods()) {
      row.push_back(TablePrinter::num(stats[m].mean() / std::max(ref, 1e-12), 2));
    }
    table.add_row(row);
  };
  add_metric("EPE avg.", epe, 1);
  add_ratio("EPE ratio", epe);
  table.add_separator();
  add_metric("TAT avg. (s)", tat, 1);
  add_ratio("TAT ratio", tat);
  table.add_separator();
  add_metric("grad evals", evals, 0);
  table.print(std::cout);

  BenchReport report("table4_epe_tat", p.args);
  const double epe_ref = epe[Method::kBismoNmn].mean();
  const double tat_ref = tat[Method::kBismoNmn].mean();
  for (Method m : all_methods()) {
    report.add(to_string(m),
               {{"epe_avg", epe[m].mean()},
                {"epe_ratio", epe[m].mean() / std::max(epe_ref, 1e-12)},
                {"tat_seconds", tat[m].mean()},
                {"tat_ratio", tat[m].mean() / std::max(tat_ref, 1e-12)},
                {"grad_evals", evals[m].mean()}});
  }
  report.write();

  std::cout << "\nPaper Table 4: EPE avg 10.1 / 3.6 / 2.8 / 3.3 / 2.4 /"
               " 1.8 / 1.6 / 1.6; TAT avg (s) 12.4 / 3.8 / 11.7 / 287 /"
               " 122.5 / 12.6 / 15.3 / 14.7 (AM methods 8.3x-19.5x slower"
               " than BiSMO).\n"
               "Reproduction target: NILT-proxy worst EPE; AM(A-H) slowest"
               " (per-cycle TCC rebuilds); BiSMO variants clustered.  Note:"
               " our AM budgets are fixed small (not run-to-convergence), so"
               " the raw AM TAT advantage of BiSMO appears via grad-eval"
               " efficiency instead.\n";
}

// Figure 3: log10(Lsmo) convergence curves comparing MO methods (dashed in
// the paper) against SMO methods (solid) on one random case per dataset
// plus a second ICCAD13 case -- four panels, six methods.  Emits one CSV
// per case (fig3_<case>.csv: step + one column per method) and a
// first/last summary to stdout.
void fig3(Paper& p) {
  const std::vector<Method> methods = {
      Method::kDac23Proxy, Method::kAbbeMo,  Method::kAmAbbeAbbe,
      Method::kBismoFd,    Method::kBismoCg, Method::kBismoNmn,
  };
  BenchReport report("fig3_convergence", p.args);

  // Panels: ICCAD13 case 0, ICCAD13 case 1, ICCAD-L case 0, ISPD19 case 0
  // (stand-ins for the paper's test5 / test7 / test17 / test62).
  struct Panel {
    std::size_t suite;
    std::size_t clip;
  };
  std::vector<Panel> panels{{0, 0}, {0, 1}, {1, 0}, {2, 0}};

  for (const Panel& panel : panels) {
    const Dataset& suite = p.suites[panel.suite];
    if (panel.clip >= suite.clips.size()) continue;
    const std::string case_name = suite.names[panel.clip];
    std::cout << "case " << case_name << ":\n";

    const SmoConfig cfg = p.args.config();
    const SmoProblem problem(cfg, suite.clips[panel.clip], &p.pool);

    std::vector<std::string> columns{"step"};
    std::vector<std::vector<double>> series;
    std::size_t max_len = 0;
    std::vector<std::vector<double>> logs;
    for (Method method : methods) {
      const RunResult run = run_method(problem, method);
      std::vector<double> curve;
      curve.reserve(run.trace.size());
      for (const StepRecord& rec : run.trace) {
        curve.push_back(std::log10(std::max(rec.loss, 1e-12)));
      }
      std::cout << "  " << to_string(method) << ": log10(L) "
                << (curve.empty() ? 0.0 : curve.front()) << " -> "
                << (curve.empty() ? 0.0 : curve.back()) << " ("
                << curve.size() << " steps)\n";
      report.add(case_name + "/" + to_string(method),
                 {{"log10_loss_first", curve.empty() ? 0.0 : curve.front()},
                  {"log10_loss_last", curve.empty() ? 0.0 : curve.back()},
                  {"steps", static_cast<double>(curve.size())},
                  {"tat_seconds", run.wall_seconds}});
      columns.push_back(to_string(method));
      max_len = std::max(max_len, curve.size());
      logs.push_back(std::move(curve));
    }
    // Pad ragged traces (methods step at different granularity) with their
    // last value so the CSV is rectangular.
    std::vector<double> steps(max_len);
    for (std::size_t i = 0; i < max_len; ++i) steps[i] = static_cast<double>(i);
    series.push_back(std::move(steps));
    for (auto& curve : logs) {
      if (!curve.empty()) curve.resize(max_len, curve.back());
      if (curve.empty()) curve.assign(max_len, 0.0);
      series.push_back(std::move(curve));
    }
    std::string file = "fig3_" + case_name + ".csv";
    std::replace(file.begin(), file.end(), ':', '_');
    write_csv(file, columns, series);
    std::cout << "  wrote " << file << "\n\n";
  }
  report.write();
  std::cout << "Reproduction target (paper Fig. 3): SMO curves settle below"
               " MO curves; AM-SMO shows a zig-zag; BiSMO variants converge"
               " lowest and smoothest.\n";
}

// Figure 5: per-step mean and standard deviation of Lsmo across the
// ICCAD13 (panel a) and ICCAD-L (panel b) suites for the three BiSMO
// variants -- the ablation showing NMN's stability and CG's large STD.
// Emits fig5_<suite>.csv (step, mean/std per variant) and a summary.
void fig5(Paper& p) {
  BenchReport report("fig5_meanstd", p.args);
  const std::vector<Method> methods{Method::kBismoFd, Method::kBismoCg,
                                    Method::kBismoNmn};

  for (std::size_t suite_idx : {std::size_t{0}, std::size_t{1}}) {
    const Dataset& suite = p.suites[suite_idx];
    std::cout << "suite " << suite.spec.name << " (" << suite.clips.size()
              << " clips):\n";
    const SmoConfig cfg = p.args.config();

    std::vector<std::string> names{"step"};
    std::vector<std::vector<double>> columns;
    std::size_t steps = 0;
    std::vector<std::vector<double>> all_mean;
    std::vector<std::vector<double>> all_std;

    for (Method method : methods) {
      // One trace per clip.
      std::vector<std::vector<double>> traces;
      for (std::size_t c = 0; c < suite.clips.size(); ++c) {
        const SmoProblem problem(cfg, suite.clips[c], &p.pool);
        const RunResult run = run_method(problem, method);
        std::vector<double> losses;
        losses.reserve(run.trace.size());
        for (const StepRecord& rec : run.trace) losses.push_back(rec.loss);
        traces.push_back(std::move(losses));
      }
      steps = traces.front().size();
      std::vector<double> mean_curve(steps, 0.0);
      std::vector<double> std_curve(steps, 0.0);
      for (std::size_t s = 0; s < steps; ++s) {
        RunningStats stats;
        for (const auto& t : traces) {
          if (s < t.size()) stats.push(t[s]);
        }
        mean_curve[s] = stats.mean();
        std_curve[s] = stats.stddev();
      }
      const double final_mean = mean_curve.back();
      RunningStats overall_std;
      for (double s : std_curve) overall_std.push(s);
      std::cout << "  " << to_string(method) << ": final mean loss "
                << final_mean << ", avg STD " << overall_std.mean() << "\n";
      report.add(suite.spec.name + "/" + to_string(method),
                 {{"final_mean_loss", final_mean},
                  {"avg_std", overall_std.mean()},
                  {"steps", static_cast<double>(steps)}});
      names.push_back(to_string(method) + " mean");
      names.push_back(to_string(method) + " std");
      all_mean.push_back(std::move(mean_curve));
      all_std.push_back(std::move(std_curve));
    }

    std::vector<double> step_col(steps);
    for (std::size_t s = 0; s < steps; ++s) step_col[s] = static_cast<double>(s);
    columns.push_back(std::move(step_col));
    for (std::size_t v = 0; v < methods.size(); ++v) {
      columns.push_back(std::move(all_mean[v]));
      columns.push_back(std::move(all_std[v]));
    }
    const std::string file = "fig5_" + suite.spec.name + ".csv";
    write_csv(file, names, columns);
    std::cout << "  wrote " << file << "\n\n";
  }
  report.write();
  std::cout << "Reproduction target (paper Fig. 5): NMN converges lowest;"
               " CG exhibits the largest standard deviation (instability"
               " from indefinite inner Hessians); FD weakest but cheapest.\n";
}

// Ablation (Sec. 4.2): the effect of the hypergradient budget K on
// BiSMO-NMN and BiSMO-CG -- quality (final loss, binarized L2) vs cost
// (TAT).  K = 0 reduces NMN to FD (Sec. 3.2.4), making the FD column
// implicit in this sweep; the paper uses K = 5.
void ablation_k(Paper& p) {
  SmoConfig cfg = p.args.config();
  TablePrinter table(
      {"variant", "K", "final loss", "L2 (nm^2)", "PVB (nm^2)", "TAT (s)",
       "grad evals"});
  BenchReport report("ablation_k", p.args);
  for (Method method : {Method::kBismoNmn, Method::kBismoCg}) {
    for (int k : {0, 1, 3, 5}) {
      cfg.hyper_terms = k;
      const SmoProblem problem(cfg, p.suites[0].clips[0], &p.pool);
      const RunResult run = run_method(problem, method);
      const SolutionMetrics m =
          problem.evaluate_solution(run.theta_m, run.theta_j);
      table.add_row({to_string(method), std::to_string(k),
                     TablePrinter::num(run.final_loss(), 2),
                     TablePrinter::num(m.l2_nm2, 0),
                     TablePrinter::num(m.pvb_nm2, 0),
                     TablePrinter::num(run.wall_seconds, 1),
                     std::to_string(run.gradient_evaluations)});
      report.add(to_string(method) + "/K" + std::to_string(k),
                 {{"final_loss", run.final_loss()},
                  {"l2_nm2", m.l2_nm2},
                  {"pvb_nm2", m.pvb_nm2},
                  {"tat_seconds", run.wall_seconds},
                  {"grad_evals",
                   static_cast<double>(run.gradient_evaluations)}});
    }
    table.add_separator();
  }
  table.print(std::cout);
  report.write();
  std::cout << "\nExpectation: quality saturates after a few terms while TAT"
               " grows linearly in K -- K ~ 3-5 is the sweet spot the paper"
               " lands on (K = 5).\n";
}

// Ablation (Sec. 3.1): sigmoid vs cosine parameter activation.  The paper
// rejects the cosine alternative because its saturation produces zero
// gradients and unstable training; this case reproduces that comparison
// with Abbe-MO under both activations.
void activation(Paper& p) {
  TablePrinter table({"activation", "initial loss", "final loss",
                      "L2 (nm^2)", "PVB (nm^2)"});
  BenchReport report("activation", p.args);
  for (ActivationKind kind :
       {ActivationKind::kSigmoid, ActivationKind::kCosine}) {
    SmoConfig cfg = p.args.config();
    cfg.activation.kind = kind;
    if (kind == ActivationKind::kCosine) {
      // Cosine saturates at |alpha * theta| >= 1: the Table 1 init values
      // must be rescaled into its domain or every parameter starts frozen.
      cfg.activation.mask_init = 0.08;
      cfg.activation.source_init = 0.4;
    }
    const SmoProblem problem(cfg, p.suites[0].clips[0], &p.pool);
    const RunResult run = run_method(problem, Method::kAbbeMo);
    const SolutionMetrics m =
        problem.evaluate_solution(run.theta_m, run.theta_j);
    const char* label = kind == ActivationKind::kSigmoid ? "sigmoid" : "cosine";
    table.add_row({label, TablePrinter::num(run.trace.front().loss, 2),
                   TablePrinter::num(run.final_loss(), 2),
                   TablePrinter::num(m.l2_nm2, 0),
                   TablePrinter::num(m.pvb_nm2, 0)});
    report.add(label, {{"initial_loss", run.trace.front().loss},
                       {"final_loss", run.final_loss()},
                       {"l2_nm2", m.l2_nm2},
                       {"pvb_nm2", m.pvb_nm2}});
  }
  table.print(std::cout);
  report.write();
  std::cout << "\nExpectation: the sigmoid path converges further; the"
               " cosine path stalls whenever parameters hit its hard"
               " saturation (zero-gradient region), reproducing the paper's"
               " reason for choosing the sigmoid.\n";
}

using Clock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& fn, int reps) {
  fn();  // warm-up
  const auto t0 = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  return std::chrono::duration<double>(Clock::now() - t0).count() * 1e3 /
         reps;
}

// The Sec. 3.1 / Sec. 4.1 acceleration study: per-iteration runtime of the
// (accelerated) Abbe engine vs the Hopkins engine across parallel widths P
// (powers of two up to the hardware width, on pools of their own), the
// effective-source-point vs kernel-count ratio sigma/Q that governs the
// theoretical ceil(sigma/P)/ceil(Q/P) model, and the TCC/SOCS rebuild cost
// that penalizes the Abbe-Hopkins hybrid AM-SMO.
void accel(Paper& p) {
  const SmoConfig cfg = p.args.config();
  const Layout& clip = p.suites[0].clips[0];
  BenchReport report("abbe_accel", p.args);

  const std::size_t hw = std::max<std::size_t>(
      1, std::thread::hardware_concurrency());
  TablePrinter table({"engine", "P (threads)", "fwd+grad ms/iter", "vs P=1"});
  double abbe_p1 = 0.0;
  double hopkins_p1 = 0.0;
  std::size_t sigma_eff = 0;
  std::size_t q_kernels = 0;

  for (std::size_t width = 1; width <= hw; width *= 2) {
    ThreadPool pool(width);
    const SmoProblem problem(cfg, clip, &pool);
    const RealGrid theta_m = problem.initial_theta_m();
    const RealGrid theta_j = problem.initial_theta_j();
    sigma_eff = effective_point_count(
        problem.geometry(), problem.source_image(theta_j), 1e-4);

    // Alternating masks: every timed call misses the engine's image cache
    // and runs the full forward + adjoint imaging chains.
    const RealGrid theta_m_alt = theta_m * 0.999;
    bool alt = false;
    const double abbe_ms = time_ms(
        [&] {
          alt = !alt;
          (void)problem.engine().evaluate(alt ? theta_m_alt : theta_m,
                                          theta_j, GradRequest{});
        },
        3);
    if (width == 1) abbe_p1 = abbe_ms;
    table.add_row({"Abbe (sigma=" + std::to_string(sigma_eff) + ")",
                   std::to_string(width), TablePrinter::num(abbe_ms, 1),
                   TablePrinter::num(abbe_p1 / abbe_ms, 2) + "x"});
    report.add("abbe/P" + std::to_string(width),
               {{"ms_per_iter", abbe_ms},
                {"speedup_vs_p1", abbe_p1 / abbe_ms},
                {"sigma_eff", static_cast<double>(sigma_eff)}});

    const RealGrid source = problem.source_image(theta_j);
    const SocsDecomposition socs(problem.abbe(), source, cfg.socs_kernels);
    q_kernels = socs.kernels().size();
    const HopkinsImaging hopkins(cfg.optics, socs, &pool);
    const HopkinsGradientEngine hengine(hopkins, problem.target(), cfg.resist,
                                        cfg.activation, cfg.weights,
                                        cfg.process_window);
    const double hopkins_ms =
        time_ms([&] { (void)hengine.evaluate(theta_m); }, 3);
    if (width == 1) hopkins_p1 = hopkins_ms;
    table.add_row({"Hopkins (Q=" + std::to_string(q_kernels) + ")",
                   std::to_string(width), TablePrinter::num(hopkins_ms, 1),
                   TablePrinter::num(hopkins_p1 / hopkins_ms, 2) + "x"});
    report.add("hopkins/P" + std::to_string(width),
               {{"ms_per_iter", hopkins_ms},
                {"speedup_vs_p1", hopkins_p1 / hopkins_ms},
                {"q_kernels", static_cast<double>(q_kernels)}});
  }
  table.print(std::cout);

  // TCC rebuild cost: the per-cycle penalty of the Abbe-Hopkins hybrid.
  {
    ThreadPool pool(hw);
    const SmoProblem problem(cfg, clip, &pool);
    const RealGrid source = problem.source_image(problem.initial_theta_j());
    const double rebuild_ms = time_ms(
        [&] {
          const SocsDecomposition socs(problem.abbe(), source,
                                       cfg.socs_kernels);
          (void)socs.kernels().size();
        },
        3);
    std::cout << "\nSOCS/TCC rebuild (Gram + Jacobi eig + kernel map): "
              << TablePrinter::num(rebuild_ms, 1)
              << " ms -- paid by AM-SMO(A-H) every cycle.\n";
    report.add("tcc_rebuild", {{"ms", rebuild_ms}});
  }

  const double ratio =
      static_cast<double>(sigma_eff) / static_cast<double>(q_kernels);
  report.add("cost_model", {{"sigma_over_q", ratio}});
  report.write();
  std::cout << "theoretical serial Abbe/Hopkins cost ratio sigma/Q = "
            << TablePrinter::num(ratio, 2)
            << "; with P >= sigma the parallel ratio approaches"
               " ceil(sigma/P)/ceil(Q/P) -> 1 (paper: 0.16 s vs 0.12 s per"
               " iteration on GPU).\n";
}

/// One registry row: `bench_paper <name>` runs `run` under `title`.
struct PaperCase {
  const char* name;
  const char* title;
  void (*run)(Paper&);
};

constexpr PaperCase kCases[] = {
    {"table2", "Table 2: Details of the Dataset (synthetic stand-ins)",
     table2},
    {"table3", "Table 3: Result comparison with SOTA (L2 / PVB, nm^2)",
     table3},
    {"table4", "Table 4: EPE and runtime (TAT) comparison", table4},
    {"fig3", "Figure 3: loss convergence, MO (dashed) vs SMO (solid)", fig3},
    {"fig5", "Figure 5: mean/STD of Lsmo across each dataset", fig5},
    {"ablation_k", "Ablation: hypergradient budget K (NMN / CG)",
     ablation_k},
    {"activation", "Ablation: sigmoid vs cosine activation (Sec. 3.1)",
     activation},
    {"accel", "Sec. 4.1: Abbe vs Hopkins per-iteration runtime", accel},
};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> names;
  const BenchArgs args = BenchArgs::parse(argc, argv, &names);

  std::vector<const PaperCase*> selected;
  for (const std::string& name : names) {
    const auto* it = std::find_if(
        std::begin(kCases), std::end(kCases),
        [&name](const PaperCase& c) { return name == c.name; });
    if (it == std::end(kCases)) {
      std::fprintf(stderr, "unknown case: %s\ncases:", name.c_str());
      for (const PaperCase& c : kCases) std::fprintf(stderr, " %s", c.name);
      std::fprintf(stderr, "\n");
      usage_and_exit(argv[0], /*operands=*/true);
    }
    selected.push_back(it);
  }
  if (selected.empty()) {
    for (const PaperCase& c : kCases) selected.push_back(&c);
  }

  args.print_banner("bench_paper");
  Paper paper(args);
  for (const PaperCase* c : selected) {
    std::printf("== %s ==\n", c->title);
    c->run(paper);
    std::cout << "\n";
  }
  return 0;
}
