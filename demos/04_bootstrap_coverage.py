"""
Interval coverage when errors travel through the graph
======================================================

Noise attached to diversion units reaches every downstream outcome unit,
so observations sharing neighbors are correlated and resampling them as
if independent understates uncertainty. The parametric bootstrap refits
the outcome model, splits the residual variance into unit-level and
graph-propagated parts, and simulates both when rebuilding replicates.
The demo sizes both intervals on one dataset, then measures coverage
over repeated experiments.

Run:  python3 demos/04_bootstrap_coverage.py
"""

import numpy as np

from bipexp.design import AssignmentDesign, draw_assignments, linear_exposure
from bipexp.estimators import Dataset
from bipexp.graph import GraphSpec, synth_graph
from bipexp.inference import estimate_sigmas, naive_bootstrap, parametric_bootstrap
from bipexp.seeding import substream
from bipexp.simlab import DgpSpec, default_gps_table, generate_outcomes, run_study

spec = GraphSpec(kind="uniform-degree", n_outcome=800, m_diversion=100, deg_min=1, deg_max=6)
graph = synth_graph(spec, substream(20260819, 66))
design = AssignmentDesign.bernoulli(0.5)
dgp = DgpSpec(
    graph=graph, design=design, effect="homogeneous", sigma2_eps=0.5, sigma2_gamma=0.5
)

# one dataset: recover the two variance components, then size intervals
rng = substream(20260819, 67)
z = draw_assignments(design, graph.m_diversion, 1, rng)[:, 0]
e = linear_exposure(graph, z)
y = generate_outcomes(dgp, graph, e, rng)
table = default_gps_table(graph, design)
data = Dataset.build(graph, table, y, e)

phi = np.column_stack([np.ones(graph.n_outcome), e])
sig = estimate_sigmas(y, phi, graph)
print(f"variance split on one dataset (truth 0.5 / 0.5):")
print(f"  unit-level  sigma2_eps   {sig.sigma2_eps:.3f}")
print(f"  graph noise sigma2_gamma {sig.sigma2_gamma:.3f}")

slope = lambda d: float(np.polyfit(d.exposure, d.y, 1)[0])
naive_iv = naive_bootstrap(data, slope, n_replicates=500, rng=substream(20260819, 68))
# the linear design (phi, y, contrast): the slope is [0, 1] @ ols(phi, y).coef
para = parametric_bootstrap(
    data, (phi, y, [0.0, 1.0]), n_replicates=500, rng=substream(20260819, 69)
)
print(f"\nslope interval, same dataset, same nominal 95%:")
print(f"  naive bootstrap      [{naive_iv.lower:+.3f}, {naive_iv.upper:+.3f}]  width {naive_iv.width:.3f}")
print(f"  parametric bootstrap [{para.lower:+.3f}, {para.upper:+.3f}]  width {para.width:.3f}")

# coverage over repeated experiments
res = run_study(
    dgp, ["naive-ols"],
    {"naive-ols": ("naive-bootstrap", "parametric-bootstrap")},
    n_sims=80, b_replicates=200, master_seed=20260819,
)
print(f"\ncoverage of the true effect over {res.n_sims} experiments (nominal 95%):")
print(f"  naive bootstrap      {res.coverage('naive-ols', 'naive-bootstrap'):.2f}")
print(f"  parametric bootstrap {res.coverage('naive-ols', 'parametric-bootstrap'):.2f}")
