"""Simulation studies: bias, RMSE, and interval coverage by construction.

A `DgpSpec` fixes the realized graph, the assignment design,
the exposure-effect form, and the two noise variances. `run_study` replays
the whole pipeline n_sims times on that one graph, with per-replicate
random substreams, and aggregates per (estimator, interval-method) bias,
RMSE, and coverage of the true ATE. `edges_cut_sweep` runs the
clustered-vs-iid resampling comparison across graphs with increasing
cross-component wiring.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from contextlib import nullcontext
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .design import AssignmentDesign, draw_assignments, linear_exposure
from .errors import ConfigError, DataError, NumericalError
from .estimators import (
    Dataset,
    _ht_design,
    _imputed_levels,
    _krr_cells,
    _krr_surface_counts,
    _level_means,
    _poly_features,
    _poly_rows,
    ate,
    beta_cell_means,
    beta_krr_fit,
    beta_poly_fit,
    dose_response,
    ht_estimate,
    naive_mean,
    naive_ols,
    stratified_estimate,
)
from .gps import GpsTable, default_gps_table
from .graph import (
    BipartiteGraph,
    GraphSpec,
    _write_csv_rows,
    _write_json,
    contiguous_blocks,
    synth_graph,
)
from .inference import (
    MIN_BOOTSTRAP,
    IntervalEstimate,
    _CountStatistic,
    block_bootstrap,
    naive_bootstrap,
    ols_asymptotic_interval,
    parametric_bootstrap,
)
from .numerics import ols
from .seeding import substream

HOMOGENEOUS = "homogeneous"
HETEROGENEOUS = "heterogeneous"

# substream tags: keep these distinct so study-level draws never collide
# with per-replicate draws under any (master_seed, n_sims); tag 0 drew the
# graph of a recipe study and tag 2 an earlier study's table, and neither
# is reused. A table's tag is the one `bipexp` commands draw theirs from,
# so a study and the CLI build the same table at the same seed.
_SIM_STREAM = 1
_SWEEP_STREAM = 3
_GPS_STREAM = 11

SEED_SCHEME = "SeedSequence([master_seed, 1, sim_index])"


@dataclass(frozen=True)
class DgpSpec:
    """Data-generating process for one study.

    The effect form sets each unit's exposure slope: `homogeneous` gives
    every unit the population mean degree (one shared linear effect), and
    `heterogeneous` gives each unit its own degree. Outcomes are
    Y_i = slope_i * E_i + (W @ gamma)_i + eps_i with gamma and eps i.i.d.
    centered normals of variance sigma2_gamma and sigma2_eps. The graph
    is a realized `BipartiteGraph`; `synth_graph` realizes a `GraphSpec`.
    """

    graph: BipartiteGraph
    design: AssignmentDesign
    effect: str = HOMOGENEOUS
    sigma2_eps: float = 0.0
    sigma2_gamma: float = 0.0
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.graph, BipartiteGraph):
            raise ConfigError(
                f"DgpSpec.graph must be a BipartiteGraph, not {type(self.graph).__name__}; "
                "realize a GraphSpec with synth_graph first"
            )
        _check_study(self.effect, self.sigma2_eps, self.sigma2_gamma)


def _check_study(effect: str, sigma2_eps: float, sigma2_gamma: float, n_sims: int = 1) -> None:
    """Reject a replicate count, effect form or noise variance before any graph is built."""
    if n_sims <= 0:
        raise ConfigError("n_sims must be positive")
    if effect not in (HOMOGENEOUS, HETEROGENEOUS):
        raise ConfigError(f"unknown effect form {effect!r}")
    # written so that NaN fails as well
    if not (0 <= sigma2_eps < np.inf and 0 <= sigma2_gamma < np.inf):
        raise ConfigError("noise variances must be nonnegative and finite")


def effect_slopes(dgp: DgpSpec, graph: BipartiteGraph) -> np.ndarray:
    degrees = graph.degrees.astype(np.float64)
    if dgp.effect == HOMOGENEOUS:
        return np.full(graph.n_outcome, degrees.mean())
    return degrees


def true_ate(dgp: DgpSpec, graph: BipartiteGraph) -> float:
    """Population ATE for the realized graph: the mean exposure slope."""
    return float(effect_slopes(dgp, graph).mean())


def generate_outcomes(dgp: DgpSpec, graph: BipartiteGraph, exposure, rng) -> np.ndarray:
    """Draw outcomes at the given exposures (gamma first, then eps)."""
    exposure = np.asarray(exposure, dtype=np.float64)
    y = effect_slopes(dgp, graph) * exposure
    if dgp.sigma2_gamma > 0:
        gamma = rng.normal(0.0, np.sqrt(dgp.sigma2_gamma), size=graph.m_diversion)
        y = y + graph.to_csr() @ gamma
    if dgp.sigma2_eps > 0:
        y = y + rng.normal(0.0, np.sqrt(dgp.sigma2_eps), size=graph.n_outcome)
    return y


# -- estimator registry --------------------------------------------------------

ENDPOINT_GRID = (0.0, 1.0)


@dataclass(frozen=True)
class StudyEstimator:
    """Named ATE estimator: a point function, an optional linear design, what
    the resampling bootstraps resample, and an optional response surface.

    `point` maps a Dataset to an ATE estimate. `design`, when present, maps
    a Dataset to the linear design (phi, target, contrast) that every
    interval function in `inference` takes, with estimate
    contrast @ ols(phi, target).coef; the parametric bootstrap and the
    asymptotic interval need it and centre on it. For `naive-ols`,
    `correct-spec` and `gps-poly` that equals the point estimate; `ht`'s
    design is the ratio (Hajek) form, whose level coefficients divide the
    inverse-weighted outcome sum by the inverse-weight sum, not by n.

    `resampled`, when present, maps a Dataset to the statistic the naive
    and block bootstraps take in place of `point`: one that equals `point`
    on every resample up to rounding and needs no resampled Dataset. For
    `naive-ols` and `correct-spec` it is the design, whose contrast does
    not depend on the rows, refit from the row counts in one batch; for
    `gps-krr` it is a count statistic, one kernel fit per resample's row
    counts, which gives `point` bit for bit at unit counts (see
    `inference.naive_bootstrap`). Without it the bootstraps resample
    `point` through `Dataset.take`, as they do for the other estimators
    (`stratified`'s quantile strata depend on the resample).

    `surface`, when present, fits the response surface of a Dataset whose
    average at the endpoints is the point (`_surface_ate`); `bipexp
    estimate` averages it at each level of its `grid` as well.
    """

    name: str
    point: object
    design: object | None = None
    resampled: object | None = None
    surface: object | None = None


def _point_naive_mean(data: Dataset) -> float:
    return naive_mean(data, 1.0) - naive_mean(data, 0.0)


def _design_naive_ols(data: Dataset):
    phi = np.column_stack([np.ones(data.n_units), data.exposure])
    return phi, data.y, np.array([0.0, 1.0])


def _mean_degree(data: Dataset) -> float:
    # the estimand multiplies the slope by the mean degree of the graph's
    # outcome units that have a neighbour (the units `Dataset.build` keeps),
    # a population quantity: every resample shares the graph, so bootstrap
    # resamples add no mean-degree noise the estimator never faces
    degrees = data.graph.degrees
    return float(degrees[degrees > 0].mean())


def _design_correct_spec(data: Dataset):
    # true surface under the heterogeneous DGP: per-unit slope = degree
    s = data.degrees.astype(np.float64)
    phi = np.column_stack([np.ones(data.n_units), s * data.exposure])
    return phi, data.y, np.array([0.0, _mean_degree(data)])


def _point_correct_spec(data: Dataset) -> float:
    phi, y, _ = _design_correct_spec(data)
    fit = ols(phi, y, labels=("const", "degree_x_exposure"))
    return _mean_degree(data) * float(fit.coef[1])


def _point_ht(data: Dataset) -> float:
    return ht_estimate(data, 1.0) - ht_estimate(data, 0.0)


def _design_ht(data: Dataset):
    phi, target = _ht_design(data, ENDPOINT_GRID)
    return phi, target, np.array([-1.0, 1.0])


def _surface_ate(name: str, data: Dataset) -> float:
    """The point of a surface estimator: its surface averaged at both endpoints.

    The surface is read from the registry entry `name` at call time, so a
    rebound entry's surface is the one that runs.
    """
    surface = ESTIMATOR_REGISTRY[name].surface(data)
    return ate(dose_response(surface, data.gps, ENDPOINT_GRID))


def _design_gps_poly(data: Dataset):
    phi = _poly_rows(data)
    f1 = _poly_features(np.ones(data.n_units), data.imputed_scores(1.0)).mean(axis=0)
    f0 = _poly_features(np.zeros(data.n_units), data.imputed_scores(0.0)).mean(axis=0)
    return phi, data.y, f1 - f0


def _counts_gps_krr(data: Dataset) -> _CountStatistic:
    """`gps-krr` as a function of the row counts; its point at unit counts.

    The rows collapse once into their distinct (exposure, observed score)
    cells (`_krr_cells`), and each unit is labelled by its distinct imputed
    score at each endpoint. A resample fits the cells it takes
    (`_krr_surface_counts`) and averages the surface over the imputed
    scores with each unit weighted by its count.
    """
    cells, label = _krr_cells(data)
    levels = _imputed_levels(data.gps, ENDPOINT_GRID)

    def at(counts):
        surface = _krr_surface_counts(cells, label, data.y, counts)
        mu = _level_means(surface, ENDPOINT_GRID, levels, counts)
        return mu[1] - mu[0]

    return _CountStatistic(at)


def _point_stratified(data: Dataset) -> float:
    return stratified_estimate(data, 1.0) - stratified_estimate(data, 0.0)


ESTIMATOR_REGISTRY: dict[str, StudyEstimator] = {
    "naive-mean": StudyEstimator("naive-mean", _point_naive_mean),
    "naive-ols": StudyEstimator(
        "naive-ols", naive_ols, _design_naive_ols, resampled=_design_naive_ols
    ),
    "correct-spec": StudyEstimator(
        "correct-spec", _point_correct_spec, _design_correct_spec, resampled=_design_correct_spec
    ),
    "ht": StudyEstimator("ht", _point_ht, _design_ht),
    "gps-cell": StudyEstimator(
        "gps-cell", partial(_surface_ate, "gps-cell"), surface=beta_cell_means
    ),
    "gps-poly": StudyEstimator(
        "gps-poly", partial(_surface_ate, "gps-poly"), _design_gps_poly, surface=beta_poly_fit
    ),
    "gps-krr": StudyEstimator(
        "gps-krr", partial(_surface_ate, "gps-krr"), resampled=_counts_gps_krr,
        surface=beta_krr_fit,
    ),
    "stratified": StudyEstimator("stratified", _point_stratified),
}


# -- interval methods -----------------------------------------------------------


@dataclass(frozen=True)
class _IntervalMethod:
    """How one interval method runs on an estimator.

    `run` is the `inference` function. With `linear` it takes the
    estimator's linear design, which the estimator must have; otherwise
    its resampled statistic (`resampled(data)`, else `point`). A method
    that `resamples` also takes the data, the replicate count and the
    generator, and needs at least `MIN_BOOTSTRAP` replicates; one with
    `blocks` takes the study's block labels.
    """

    run: object
    linear: bool
    resamples: bool
    blocks: bool = False


INTERVAL_METHODS = {
    "naive-bootstrap": _IntervalMethod(naive_bootstrap, linear=False, resamples=True),
    "block-bootstrap": _IntervalMethod(block_bootstrap, linear=False, resamples=True, blocks=True),
    "parametric-bootstrap": _IntervalMethod(parametric_bootstrap, linear=True, resamples=True),
    "ols-asymptotic": _IntervalMethod(ols_asymptotic_interval, linear=True, resamples=False),
}


def _interval(data, est, method, b_replicates, level, rng, block_labels) -> IntervalEstimate:
    """The `method` interval of `est`'s ATE on `data`; the one dispatch of every interval."""
    how = INTERVAL_METHODS[method]
    if how.linear:
        taken = est.design(data)
    else:
        taken = est.point if est.resampled is None else est.resampled(data)
    if not how.resamples:
        return how.run(taken, level=level)
    labels = {"labels": block_labels} if how.blocks else {}
    return how.run(data, taken, n_replicates=b_replicates, level=level, rng=rng, **labels)


def check_request(
    estimators, intervals, b_replicates: int, level: float
) -> tuple[list[StudyEstimator], dict[str, tuple]]:
    """The estimators and interval map of a request, checked before any computation.

    `estimators` must be a nonempty list or tuple of registry names or
    `StudyEstimator`s, and `intervals` None or a mapping from their names
    to lists or tuples of `INTERVAL_METHODS` names. The level must lie in
    (0, 1), a `linear` method needs an estimator with a linear design, and
    a method that resamples needs at least `MIN_BOOTSTRAP` replicates.
    Any other request raises `ConfigError`. Returns the estimators and
    the map with each method list as a tuple.
    """
    if not isinstance(estimators, (list, tuple)) or not estimators:
        raise ConfigError(f"estimators must be a nonempty list or tuple, got {estimators!r}")
    intervals = {} if intervals is None else intervals
    if not isinstance(intervals, Mapping):
        raise ConfigError(
            "intervals must be a mapping from estimator names to lists of interval methods, "
            f"got {intervals!r}"
        )
    ests = []
    for est in estimators:
        if isinstance(est, str) and est in ESTIMATOR_REGISTRY:
            est = ESTIMATOR_REGISTRY[est]
        elif not isinstance(est, StudyEstimator):
            known = ", ".join(sorted(ESTIMATOR_REGISTRY))
            raise ConfigError(f"unknown estimator {est!r} (known: {known})")
        ests.append(est)
    if not 0.0 < level < 1.0:
        raise ConfigError(f"level must be in (0, 1), got {level}")
    by_name = {e.name: e for e in ests}
    for name, methods in intervals.items():
        if name not in by_name:
            raise ConfigError(f"interval map names unknown estimator {name!r}")
        if not isinstance(methods, (list, tuple)):
            raise ConfigError(
                f"the interval methods of estimator {name!r} must be a list or tuple of "
                f"method names, not {type(methods).__name__}"
            )
        for m in methods:
            if not isinstance(m, str) or m not in INTERVAL_METHODS:
                known = ", ".join(sorted(INTERVAL_METHODS))
                raise ConfigError(f"unknown interval method {m!r} (known: {known})")
            if INTERVAL_METHODS[m].linear and by_name[name].design is None:
                raise ConfigError(
                    f"estimator {name!r} has no linear design; the {m} interval does not apply"
                )
            if INTERVAL_METHODS[m].resamples and b_replicates < MIN_BOOTSTRAP:
                raise ConfigError(
                    f"b_replicates must be at least {MIN_BOOTSTRAP} "
                    f"for bootstrap intervals, got {b_replicates}"
                )
    return ests, {name: tuple(methods) for name, methods in intervals.items()}


# -- study runner ----------------------------------------------------------------


@dataclass(frozen=True)
class SimStudyResult:
    """Per-replicate estimates and coverage flags, plus aggregation helpers."""

    label: str
    n_sims: int
    n_requested: int
    b_replicates: int
    level: float
    master_seed: int
    truth: np.ndarray
    estimates: dict[str, np.ndarray]
    covered: dict[tuple[str, str], np.ndarray]
    point_failures: dict[str, int]
    interval_failures: dict[tuple[str, str], int]
    seed_scheme = SEED_SCHEME

    def bias(self, estimator: str) -> float:
        return float(np.nanmean(self.estimates[estimator] - self.truth))

    def rmse(self, estimator: str) -> float:
        dev = self.estimates[estimator] - self.truth
        return float(np.sqrt(np.nanmean(dev * dev)))

    def coverage(self, estimator: str, method: str) -> float:
        return float(np.nanmean(self.covered[(estimator, method)]))

    def summary(self) -> list[dict]:
        """One row per estimator, then one per (estimator, interval method)."""
        rows = []
        for name in self.estimates:
            rows.append(
                {
                    "estimator": name,
                    "interval_method": "",
                    "bias": self.bias(name),
                    "rmse": self.rmse(name),
                    "coverage": "",
                    "n_sims": self.n_sims,
                    "b_replicates": "",
                    "failures": self.point_failures.get(name, 0),
                }
            )
        for (name, method) in self.covered:
            rows.append(
                {
                    "estimator": name,
                    "interval_method": method,
                    "bias": self.bias(name),
                    "rmse": self.rmse(name),
                    "coverage": self.coverage(name, method),
                    "n_sims": self.n_sims,
                    "b_replicates": self.b_replicates,
                    "failures": self.interval_failures.get((name, method), 0),
                }
            )
        return rows

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "n_sims": self.n_sims,
            "n_requested": self.n_requested,
            "b_replicates": self.b_replicates,
            "level": self.level,
            "master_seed": self.master_seed,
            "seed_scheme": self.seed_scheme,
            "truth": [float(t) for t in self.truth],
            "estimates": {k: [float(v) for v in arr] for k, arr in self.estimates.items()},
            "covered": {
                f"{name}|{method}": [None if np.isnan(v) else float(v) for v in arr]
                for (name, method), arr in self.covered.items()
            },
            "point_failures": dict(self.point_failures),
            "interval_failures": {
                f"{name}|{method}": v for (name, method), v in self.interval_failures.items()
            },
            "summary": self.summary(),
        }

    def write_csv(self, dest) -> None:
        _write_csv_rows(self.summary(), dest)

    def write_json(self, dest) -> None:
        _write_json(self.as_dict(), dest)


def _check_workers(workers) -> None:
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")


def _simulate_one(ctx: dict, t: int):
    """One replicate on the study's graph: draw, estimate, cover. Pure given (ctx, t)."""
    dgp: DgpSpec = ctx["dgp"]
    graph, truth = dgp.graph, ctx["truth"]
    rng = substream(ctx["master_seed"], _SIM_STREAM, t)
    z = draw_assignments(dgp.design, graph.m_diversion, 1, rng)[:, 0]
    exposure = linear_exposure(graph, z)
    y = generate_outcomes(dgp, graph, exposure, rng)
    data = Dataset.build(graph, ctx["gps"], y, exposure)

    estimates: dict[str, float] = {}
    point_fail: dict[str, int] = {}
    for est in ctx["estimators"]:
        try:
            estimates[est.name] = float(est.point(data))
        except (DataError, NumericalError):
            estimates[est.name] = np.nan
            point_fail[est.name] = 1
    covered: dict[tuple[str, str], float] = {}
    iv_fail: dict[tuple[str, str], int] = {}
    for est in ctx["estimators"]:
        for method in ctx["intervals"].get(est.name, ()):
            try:
                iv = _interval(data, est, method, ctx["b_replicates"], ctx["level"], rng,
                               ctx["block_labels"])
                covered[(est.name, method)] = 1.0 if iv.covers(truth) else 0.0
            except (DataError, NumericalError):
                covered[(est.name, method)] = np.nan
                iv_fail[(est.name, method)] = 1
    return estimates, covered, point_fail, iv_fail


def run_study(
    dgp: DgpSpec,
    estimators,
    intervals: dict[str, tuple] | None = None,
    *,
    n_sims: int = 100,
    b_replicates: int = 200,
    level: float = 0.95,
    master_seed: int = 0,
    workers: int = 1,
    gps: GpsTable | None = None,
    block_labels: np.ndarray | None = None,
    progress=None,
) -> SimStudyResult:
    """Replay assignment -> exposure -> outcomes -> estimates n_sims times.

    All replicates share one graph, one propensity table (without `gps`,
    `default_gps_table`'s on `substream(master_seed, 11)`, as the CLI
    builds it) and so one true ATE. Each replicate draws from
    its own substream of the master seed, so results are bit-identical
    for any worker count. Estimator or interval failures inside a
    replicate are recorded (NaN + census), not fatal. A KeyboardInterrupt
    truncates the study to the completed prefix. Before any table is
    built or replicate run, `ConfigError` is raised for `n_sims` or
    `workers` below 1, an unknown estimator or interval method, a level
    outside (0, 1), and every other request `check_request` refuses.
    """
    _check_study(dgp.effect, dgp.sigma2_eps, dgp.sigma2_gamma, n_sims)
    _check_workers(workers)
    ests, intervals = check_request(estimators, intervals, b_replicates, level)

    if gps is None:
        gps = default_gps_table(dgp.graph, dgp.design, rng=substream(master_seed, _GPS_STREAM))
    truth = true_ate(dgp, dgp.graph)

    ctx = {
        "dgp": dgp,
        "gps": gps,
        "truth": truth,
        "estimators": ests,
        "intervals": intervals,
        "b_replicates": b_replicates,
        "level": level,
        "master_seed": master_seed,
        "block_labels": block_labels,
    }

    results: list = []
    try:
        with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
            replicates = map if pool is None else pool.map
            for out in replicates(_sim_worker, [(ctx, t) for t in range(n_sims)]):
                results.append(out)
                if progress is not None:
                    progress(len(results), n_sims)
    except KeyboardInterrupt:
        pass
    if not results:
        raise DataError("study interrupted before any replicate completed")

    estimates = {e.name: np.array([r[0][e.name] for r in results]) for e in ests}
    covered = {
        (e.name, m): np.array([r[1].get((e.name, m), np.nan) for r in results])
        for e in ests
        for m in intervals.get(e.name, ())
    }
    point_failures, interval_failures = Counter(), Counter()
    for r in results:
        point_failures.update(r[2])
        interval_failures.update(r[3])
    return SimStudyResult(
        label=dgp.label,
        n_sims=len(results),
        n_requested=n_sims,
        b_replicates=b_replicates,
        level=level,
        master_seed=master_seed,
        truth=np.full(len(results), truth),
        estimates=estimates,
        covered=covered,
        point_failures=point_failures,
        interval_failures=interval_failures,
    )


def _sim_worker(args):
    return _simulate_one(*args)


# -- edges-cut sweep --------------------------------------------------------------


def edges_cut_sweep(
    base_spec: GraphSpec,
    cut_shares,
    *,
    design: AssignmentDesign,
    sigma2_eps: float = 0.5,
    sigma2_gamma: float = 0.5,
    estimator: str = "naive-ols",
    n_sims: int = 100,
    b_replicates: int = 200,
    level: float = 0.95,
    master_seed: int = 0,
    workers: int = 1,
) -> list[dict]:
    """Coverage of block vs iid resampling as cross-block wiring grows.

    For each share, draws a block graph whose cross-block edge fraction is
    that share, runs a homogeneous-effect study with graph-propagated
    noise, and reports coverage for both resampling schemes. Blocks for
    the clustered scheme are the generator's block partition: resampling
    acts as if cross-block edges were cut, which is the point. Before any
    graph is drawn, `ConfigError` is raised for a recipe that is not
    `blocks`, `n_sims` or `workers` below 1, a negative noise variance, an
    unknown estimator, a level outside (0, 1), and fewer than
    `MIN_BOOTSTRAP` replicates.
    """
    if base_spec.kind != "blocks":
        raise ConfigError("edges_cut_sweep needs a block graph recipe")
    _check_study(HOMOGENEOUS, sigma2_eps, sigma2_gamma, n_sims)
    _check_workers(workers)
    methods = ("naive-bootstrap", "block-bootstrap")
    check_request([estimator], {estimator: methods}, b_replicates, level)
    rows: list[dict] = []
    labels = contiguous_blocks(base_spec.n_outcome, base_spec.n_blocks)
    for k, share in enumerate(cut_shares):
        spec_k = replace(base_spec, cross_share=float(share))
        graph_k = synth_graph(spec_k, substream(master_seed, _SWEEP_STREAM, k))
        dgp = DgpSpec(
            graph=graph_k,
            design=design,
            effect=HOMOGENEOUS,
            sigma2_eps=sigma2_eps,
            sigma2_gamma=sigma2_gamma,
            label=f"cut-share-{share:g}",
        )
        res = run_study(
            dgp,
            [estimator],
            {estimator: methods},
            n_sims=n_sims,
            b_replicates=b_replicates,
            level=level,
            master_seed=master_seed + k + 1,
            workers=workers,
            block_labels=labels,
        )
        for method in methods:
            rows.append(
                {
                    "cut_share": float(share),
                    "estimator": estimator,
                    "interval_method": method,
                    "coverage": res.coverage(estimator, method),
                    "bias": res.bias(estimator),
                    "rmse": res.rmse(estimator),
                    "n_sims": res.n_sims,
                    "failures": res.interval_failures.get((estimator, method), 0),
                }
            )
    return rows


# -- worked two-type fixture ---------------------------------------------------


@dataclass(frozen=True)
class SimpleExample:
    """Two unit types: singles see one diversion unit at weight 1, doubles
    split weight across a dedicated pair. Outcomes equal exposure for
    doubles and zero for singles, so the exposure-response line is e/2
    and the ATE is 1/2, while simple averaging lands on 1/3."""

    graph: BipartiteGraph
    design: AssignmentDesign
    double_mask: np.ndarray
    true_ate = 0.5

    def outcomes(self, exposure) -> np.ndarray:
        return np.where(self.double_mask, np.asarray(exposure, dtype=np.float64), 0.0)


def simple_example(n_single: int = 200, n_double: int = 200, p: float = 0.5) -> SimpleExample:
    if n_single <= 0 or n_double <= 0:
        raise ConfigError("need at least one unit of each type")
    rows = []
    for i in range(n_single):
        rows.append([(i, 1.0)])
    base = n_single
    for d in range(n_double):
        rows.append([(base + 2 * d, 0.5), (base + 2 * d + 1, 0.5)])
    graph = BipartiteGraph.from_rows(rows, m_diversion=base + 2 * n_double)
    mask = np.zeros(n_single + n_double, dtype=bool)
    mask[n_single:] = True
    return SimpleExample(
        graph=graph, design=AssignmentDesign.bernoulli(p), double_mask=mask
    )
