"""
Exposure distributions: exact convolution, Monte Carlo, and balancing
=====================================================================

The probability that a unit lands at each exposure level is the
convolution of its weighted neighbor assignments. Small neighborhoods
get the exact distribution, under Bernoulli and completely randomized
designs alike; larger ones fall back to Monte Carlo over binned
exposures. The score at a level acts as a balancing weight: among
units sharing r(1, W_i), full exposure occurs with exactly that
frequency, whatever else distinguishes them.

Run:  python3 demos/02_exposure_distributions.py
"""

import numpy as np

from bipexp.design import AssignmentDesign, draw_assignments, linear_exposure_many
from bipexp.gps import exact_gps_table, mc_gps
from bipexp.graph import GraphSpec, synth_graph
from bipexp.seeding import substream

graph = synth_graph(
    GraphSpec(kind="uniform-degree", n_outcome=150, m_diversion=30, deg_min=1, deg_max=6),
    substream(20260819, 61),
)
design = AssignmentDesign.bernoulli(0.5)

# exact table: one distribution per distinct weight row
table = exact_gps_table(graph, design)
print(f"{graph.n_outcome} units share {table.n_dists} distinct exposure distributions")
unit = int(np.argmax(graph.degrees))
print(f"\nunit {unit} (degree {graph.degrees[unit]}):")
for point, prob in zip(*table.distribution(unit)):
    print(f"  P(E = {point:.3f}) = {prob:.4f}")

# monte carlo agrees bin by bin: 11 bins (11 is prime) are narrower than
# the 1/d atom spacing and no inner edge k/11 equals an atom j/d with d <= 6,
# so each bin holds at most one atom of a unit and its mass is that atom's
n_bins = 11
mc = mc_gps(graph, design, n_bins=n_bins, n_draws=50_000, rng=substream(20260819, 62))
err, atoms_per_bin = 0.0, 0
for i in range(graph.n_outcome):
    support, probs = table.distribution(i)
    bins = np.minimum(np.searchsorted(mc.edges, support, side="right") - 1, n_bins - 1)
    atoms_per_bin = max(atoms_per_bin, int(np.bincount(bins).max()))
    err = max(err, np.abs(mc.distribution(i)[1] - np.bincount(bins, probs, n_bins)).max())
assert atoms_per_bin == 1
print(f"\nmax |monte carlo - exact| over every unit and bin: {err:.4f} (50k draws)")

# balancing: group units by their score at full exposure and compare the
# observed frequency of E=1 against the score
k_draws = 4000
z = draw_assignments(design, graph.m_diversion, k_draws, substream(20260819, 63))
full = np.abs(linear_exposure_many(graph, z) - 1.0) <= 1e-9
scores = table.imputed_scores(1.0)
print(f"\nbalancing check over {k_draws} assignments:")
print(f"  {'r(1, W)':>10s} {'units':>6s} {'freq of E=1':>12s}")
for r in np.unique(np.round(scores, 12)):
    members = np.abs(scores - r) <= 1e-12
    print(f"  {r:10.4f} {int(members.sum()):6d} {full[members].mean():12.4f}")
