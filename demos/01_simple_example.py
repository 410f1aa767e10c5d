"""
The two-unit-type example: why averaging over exposed units misleads
====================================================================

Half the outcome units ("singles") follow one diversion unit and never
respond to it; the other half ("doubles") split attention across a
dedicated pair and respond one-for-one. The exposure-response line is
e/2, so the effect of moving everyone from no exposure to full exposure
is 1/2. A plain average of outcomes among fully exposed units converges
to 1/3 instead, because doubles reach full exposure only when both
neighbors are treated and are therefore underrepresented there.

Run:  python3 demos/01_simple_example.py
"""

import numpy as np

from bipexp.design import draw_assignments, linear_exposure_many
from bipexp.estimators import (
    Dataset,
    ate,
    beta_cell_means,
    dose_response,
    ht_estimate,
    naive_mean,
    naive_ols,
)
from bipexp.gps import exact_gps_table
from bipexp.seeding import substream
from bipexp.simlab import simple_example

example = simple_example(n_single=1000, n_double=1000, p=0.5)
graph = example.graph
print(f"graph: {graph.n_outcome} outcome units, {graph.m_diversion} diversion units")
print(f"true effect of full vs no exposure: {example.true_ate}")

# every unit's exposure distribution under the fair-coin design, exactly
table = exact_gps_table(graph, example.design)
single = table.distribution(0)
double = table.distribution(graph.n_outcome - 1)
print("\nexposure distribution of a single:", {float(p): float(q) for p, q in zip(*single)})
print("exposure distribution of a double:", {float(p): float(q) for p, q in zip(*double)})

# one realized experiment
z = draw_assignments(example.design, graph.m_diversion, 400, substream(20260819, 60))
exposures = linear_exposure_many(graph, z)

rows = np.zeros((exposures.shape[1], 4))
for t in range(exposures.shape[1]):
    e = exposures[:, t]
    data = Dataset.build(graph, table, example.outcomes(e), e)
    rows[t] = (
        naive_mean(data, 1.0),
        naive_ols(data),
        ht_estimate(data, 1.0),
        ate(dose_response(beta_cell_means(data), table, (0.0, 1.0))),
    )

labels = ("naive mean at e=1", "naive ols slope", "ht estimate at e=1", "gps dose-response ate")
print(f"\naverages over {exposures.shape[1]} independent assignments (truth 0.5):")
for name, mean in zip(labels, rows.mean(axis=0)):
    print(f"  {name:24s} {mean:+.4f}")
print("\nthe naive estimates settle near 1/3; the score-aware ones near 1/2")
