// Reproduces Table 3: "Result comparison with SOTA" -- L2 and PVB for the
// three MO baselines, the two AM-SMO baselines and the three BiSMO
// variants, per dataset, with Average and Ratio rows (ratios normalized to
// BiSMO-NMN, as in the paper).
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
  args.print_banner("Table 3: Result comparison with SOTA (L2 / PVB, nm^2)");

  ThreadPool pool(args.threads);
  const std::vector<CaseResult> results = run_full_comparison(args, pool);

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
    if (datasets.empty() || datasets.back() != r.dataset) {
      bool seen = false;
      for (const auto& d : datasets) seen = seen || d == r.dataset;
      if (!seen) datasets.push_back(r.dataset);
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

  BenchReport report("table3_sota", args);
  report.add_case_results(results);
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
  return 0;
}
