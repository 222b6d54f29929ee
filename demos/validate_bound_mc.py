"""Monte Carlo validation of the tail bound on the unit square.

The field is sampled exactly on a regular grid (dense Cholesky of the
covariance), the empirical exceedance probability of the grid maximum is
compared against the analytic tail bound, and the grid is refined to show
the discretization has stabilized.  Grid maxima underestimate the continuous
maximum, so "bound_respected" verdicts are conservative evidence.
"""
from gaussmax import simulate
from gaussmax.model import make_squared_exponential

m = make_squared_exponential(0.5)
grid = simulate.make_grid((1.0, 1.0), 15)

report = simulate.validate_bound(m, grid, (0.5, 1.0, 1.5, 2.0, 2.5),
                                 reps=4_000, seed=21, refinements=(1, 2))

print("unit square, squared exponential c = 1/2, 4000 replicates,")
print("15x15 grid refined to 30x30\n")
print(report.to_csv())

print("refinement sequence (empirical tail per grid):")
for k, row in zip(report.refinement_factors, report.empirical_by_refinement):
    tails = "  ".join(f"{e.mean:.4f}" for e in row)
    print(f"  x{k:<2d} ({15 * k}x{15 * k}): {tails}")

for note in report.notes:
    print(f"\nnote: {note}")
