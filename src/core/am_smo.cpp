#include "core/am_smo.hpp"

#include "grad/hopkins_grad.hpp"
#include "litho/hopkins.hpp"

namespace bismo {

RunResult run_am_smo(const SmoProblem& problem, Method method,
                     const RunControl& control) {
  const SmoConfig& cfg = problem.config();
  const AbbeGradientEngine& abbe = problem.engine();
  RunRecorder rec(cfg, control);

  RealGrid theta_m = problem.initial_theta_m();
  RealGrid theta_j = problem.initial_theta_j();
  // Fresh optimizer state per epoch (each argmin of Algorithm 1 is its own
  // minimization); the parameters themselves carry over.
  for (int cycle = 0; cycle < cfg.am_cycles && !rec.stopped(); ++cycle) {
    // ---- SO epoch (line 3): theta_M fixed. Always on the Abbe engine. ----
    rec.descend(cfg.am_so_steps, cfg.optimizer, cfg.lr_source, theta_j,
                &SmoGradient::grad_theta_j, [&] {
                  return abbe.evaluate(theta_m, theta_j,
                                       GradRequest{false, true});
                });
    if (rec.stopped()) break;

    // ---- MO epoch (line 5): theta_J fixed. ----
    if (method == Method::kAmAbbeAbbe) {
      rec.descend(cfg.am_mo_steps, cfg.optimizer, cfg.lr_mask, theta_m,
                  &SmoGradient::grad_theta_m, [&] {
                    return abbe.evaluate(theta_m, theta_j,
                                         GradRequest{true, false});
                  });
      continue;
    }
    // Abbe-Hopkins hybrid [13]: regenerate the TCC from the *updated*
    // source, then run Hopkins-based MO.  The rebuild cost (Gram matrix +
    // eigendecomposition every cycle) is the method's bottleneck.  The
    // rebuilt engine shares the problem's per-slot workspaces, so the
    // per-cycle rebuild allocates no new scratch.
    const RealGrid source = problem.source_image(theta_j);
    const SocsDecomposition socs(problem.abbe(), source, cfg.socs_kernels,
                                 cfg.source_cutoff);
    const HopkinsImaging hopkins(cfg.optics, socs, problem.pool(),
                                 problem.workspaces());
    const HopkinsGradientEngine hopkins_engine(
        hopkins, problem.target(), cfg.resist, cfg.activation, cfg.weights,
        cfg.process_window);
    rec.descend(cfg.am_mo_steps, cfg.optimizer, cfg.lr_mask, theta_m,
                &SmoGradient::grad_theta_m,
                [&] { return hopkins_engine.evaluate(theta_m); });
  }
  return rec.finish(std::move(theta_m), std::move(theta_j));
}

}  // namespace bismo
