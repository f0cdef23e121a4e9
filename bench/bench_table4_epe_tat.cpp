// Reproduces Table 4: "EPE and runtime comparison" -- average EPE violation
// counts and turnaround time (TAT) per method, with ratios normalized to
// BiSMO-NMN.  Reuses Table 3's runs through the shared result cache when
// the configuration matches (run bench_table3_sota first).
#include <iostream>
#include <map>

#include "bench_common.hpp"
#include "io/table.hpp"
#include "math/statistics.hpp"
#include "parallel/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace bismo;
  using namespace bismo::bench;
  BenchArgs args = BenchArgs::parse(argc, argv);
  args.print_banner("Table 4: EPE and runtime (TAT) comparison");

  ThreadPool pool(args.threads);
  const std::vector<CaseResult> results = run_full_comparison(args, pool);

  std::map<Method, RunningStats> epe;
  std::map<Method, RunningStats> tat;
  std::map<Method, RunningStats> evals;
  for (const CaseResult& r : results) {
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

  BenchReport report("table4_epe_tat", args);
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
  return 0;
}
