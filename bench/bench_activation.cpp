// Ablation (Sec. 3.1): sigmoid vs cosine parameter activation.  The paper
// rejects the cosine alternative because its saturation produces zero
// gradients and unstable training; this bench reproduces that comparison
// with Abbe-MO under both activations.
#include <iostream>

#include "bench_common.hpp"
#include "io/table.hpp"
#include "parallel/thread_pool.hpp"

int main(int argc, char** argv) {
  using namespace bismo;
  using namespace bismo::bench;
  BenchArgs args = BenchArgs::parse(argc, argv);
  args.print_banner("Ablation: sigmoid vs cosine activation (Sec. 3.1)");
  ThreadPool pool(args.threads);
  const BenchDatasets data = make_bench_datasets(args);

  TablePrinter table({"activation", "initial loss", "final loss",
                      "L2 (nm^2)", "PVB (nm^2)"});
  BenchReport report("activation", args);
  for (ActivationKind kind :
       {ActivationKind::kSigmoid, ActivationKind::kCosine}) {
    SmoConfig cfg = args.config();
    cfg.activation.kind = kind;
    if (kind == ActivationKind::kCosine) {
      // Cosine saturates at |alpha * theta| >= 1: the Table 1 init values
      // must be rescaled into its domain or every parameter starts frozen.
      cfg.activation.mask_init = 0.08;
      cfg.activation.source_init = 0.4;
    }
    const SmoProblem problem(cfg, data.suites[0].clips[0], &pool);
    const RunResult run = run_method(problem, Method::kAbbeMo);
    const SolutionMetrics m =
        problem.evaluate_solution(run.theta_m, run.theta_j);
    table.add_row({kind == ActivationKind::kSigmoid ? "sigmoid" : "cosine",
                   TablePrinter::num(run.trace.front().loss, 2),
                   TablePrinter::num(run.final_loss(), 2),
                   TablePrinter::num(m.l2_nm2, 0),
                   TablePrinter::num(m.pvb_nm2, 0)});
    report.add(kind == ActivationKind::kSigmoid ? "sigmoid" : "cosine",
               {{"initial_loss", run.trace.front().loss},
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
  return 0;
}
