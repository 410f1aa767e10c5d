"""
Dose-response estimation when effects track the graph
=====================================================

Outcome slopes equal to each unit's neighborhood size make pooled
regression on exposure badly biased: units with many neighbors have both
the largest effects and the least exposure variance, so they barely move
the pooled slope. Conditioning on the propensity score repairs this.
The demo fits the three shipped surface estimators on one realized
experiment, prints the fitted curve, then repeats the experiment to show
where each estimator's average lands.

Run:  python3 demos/03_dose_response.py
"""

import numpy as np

from bipexp.design import AssignmentDesign, draw_assignments, linear_exposure
from bipexp.errors import DataError
from bipexp.estimators import (
    Dataset,
    ate,
    beta_cell_means,
    beta_krr_fit,
    beta_poly_fit,
    dose_response,
    naive_ols,
)
from bipexp.graph import GraphSpec, synth_graph
from bipexp.seeding import substream
from bipexp.simlab import DgpSpec, default_gps_table, generate_outcomes, run_study, true_ate

spec = GraphSpec(kind="uniform-degree", n_outcome=600, m_diversion=80, deg_min=1, deg_max=8)
graph = synth_graph(spec, substream(20260819, 64))
design = AssignmentDesign.bernoulli(0.5)
dgp = DgpSpec(graph=graph, design=design, effect="heterogeneous", sigma2_eps=0.25)
truth = true_ate(dgp, graph)
print(f"true effect (mean neighborhood size): {truth:.3f}")

# one experiment
rng = substream(20260819, 65)
z = draw_assignments(design, graph.m_diversion, 1, rng)[:, 0]
e = linear_exposure(graph, z)
y = generate_outcomes(dgp, graph, e, rng)
table = default_gps_table(graph, design)
data = Dataset.build(graph, table, y, e)

print(f"\npooled regression slope on this draw: {naive_ols(data):.3f}")

grid = np.linspace(0.0, 1.0, 6)
fits = {"cell means": beta_cell_means, "quadratic": beta_poly_fit, "kernel ridge": beta_krr_fit}
print("\nfitted exposure-response curve mu(e):")
print("  e        " + "".join(f"{name:>14s}" for name in fits))
curves = {}
for name, fitter in fits.items():
    try:
        curves[name] = dose_response(fitter(data), table, grid)
    except DataError as exc:  # cell means can have empty cells off {0, 1}
        curves[name] = None
        print(f"  ({name} unavailable on this grid: {exc})")
for k, level in enumerate(grid):
    cells = "".join(
        f"{curves[name].mu_hat[k]:14.3f}" if curves[name] is not None else " " * 14
        for name in fits
    )
    print(f"  {level:.1f}  {cells}")
for name, curve in curves.items():
    if curve is not None:
        print(f"ate via {name}: {ate(curve):+.3f}")

# averages over repeated experiments
res = run_study(
    dgp, ["naive-ols", "gps-krr", "correct-spec"], n_sims=30, master_seed=20260819
)
print(f"\nmean estimate over {res.n_sims} repeated experiments (truth {truth:.3f}):")
for name in ("naive-ols", "gps-krr", "correct-spec"):
    print(f"  {name:14s} bias {res.bias(name):+.3f}   rmse {res.rmse(name):.3f}")
