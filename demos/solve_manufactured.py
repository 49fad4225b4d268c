"""
Solve a manufactured problem and recover the known potential
============================================================

Pick a potential u*, build the source that makes it the exact solution,
then hand the solver only the source and check what comes back.
"""

import os
import tempfile

import numpy as np

from khessian import (
    TorusGrid,
    manufactured_source,
    metric_preset,
    recovery_error,
    residual_field,
    solve,
)

n, k, N = 2, 2, 12
grid = TorusGrid(n, N)

# A non-Kahler metric: diagonal blocks modulated across coordinates.
g = metric_preset(grid, "torsion", epsilon=0.1)

# The potential we intend to recover. Two modes, one per holomorphic
# direction, small enough to stay inside the ellipticity cone.
u_star = grid.trig_field([
    (0.025, (1, 1, 0, 0), 0.0),
    (0.025, (1, -1, 0, 0), 0.0),
    (0.05, (0, 0, 1, 0), 0.0),
])

f = manufactured_source(grid, g, u_star, k)
print(f"source range: [{f.min():+.4f}, {f.max():+.4f}]")

report = solve(grid, g, f, k)
assert report.success, report.message

print(f"\nsolved in {report.wall_seconds:.1f}s, offset b = {report.b:+.3e}")
print("stage   t      newton  gmres  residual")
for s in report.stages:
    print(f"  {s.t:5.3f}   {s.newton_iterations:3d}   {s.gmres_iterations:5d}"
          f"   {s.final_residual:9.2e}")

# The solver fixes the additive gauge by sup u = 0, so compare up to a shift.
err = recovery_error(report, u_star)
print(f"\nrecovery error (gauge matched): {err:.2e}")

# Round-trip the solution through numpy's .npy format, as `khessian solve`
# writes it with save_fields, and recheck the equation residual on the
# loaded copy.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "u.npy")
    np.save(path, report.u)
    u_back = np.load(path)
res = residual_field(grid, u_back, report.b, f, g, k)
print(f"reloaded field shape={u_back.shape}, "
      f"sup residual {np.abs(res).max():.2e}")
