"""Monte Carlo validation of the tail bound on the unit square.

The field is sampled exactly on a regular grid (the squared exponential's
grid covariance is a Kronecker product, so one low-rank pivoted-Cholesky
factor per axis, and a replicate draws only the product of their ranks in
normals), the empirical exceedance probability of the grid maximum is
compared against the analytic tail bound, and the grid is refined up to the
100 x 100 sampling cap to show the grid bias.  Grid maxima underestimate
the continuous maximum, so "bound_respected" verdicts are conservative
evidence.
"""
from gaussmax import simulate
from gaussmax.model import make_squared_exponential

m = make_squared_exponential(0.5)
grid = simulate.FieldGrid((1.0, 1.0), 25)

report = simulate.validate_bound(m, grid, (0.5, 1.0, 1.5, 2.0, 2.5),
                                 reps=10_000, seed=21, refinements=(1, 2, 4))

print("unit square, squared exponential c = 1/2, 10000 replicates,")
print("25x25 grid refined to 100x100 (verdicts score the 100x100 grid)\n")
print("    u   emp_mean  emp_stderr  pbar_tail   pE_tail  verdict")
for u, e, pbar, pe, verdict in zip(report.u_values, report.empirical,
                                   report.pbar_tails, report.pE_tails,
                                   report.verdicts):
    print(f"  {u:3.1f}  {e.mean:9.4f}  {e.stderr:10.4f}  {pbar:9.4f}  "
          f"{pe:8.4f}  {verdict}")

print("\nrefinement sequence (empirical tail per grid):")
for k, row in zip(report.refinement_factors, report.empirical_by_refinement):
    tails = "  ".join(f"{e.mean:.4f}" for e in row)
    print(f"  x{k:<2d} ({25 * k}x{25 * k}): {tails}")

for note in report.notes:
    print(f"\nnote: {note}")
