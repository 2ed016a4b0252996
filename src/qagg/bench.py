"""Seeded Monte Carlo harness for risk and regret experiments.

A config describes a ground-truth scenario (mean shape, noise level,
dimension), one or more Tikhonov families (penalty + tuning grid), the
methods to compare, a replicate count and a seed.  Each replicate draws
y = mu + eps with its own generator derived from (seed, replicate
index), runs every configured method, and records the realized loss
||fit - mu||^2 together with the per-draw excess over the exact oracle
member.  Regrets are reported against the analytic oracle risk R*, not
a simulated one.

Replicates run in blocks whose width the config sets (_block_width): as
many replicates as keep a block's per-member arrays within BLOCK_ENTRIES
entries, and at least 32.  One pass per block gives the spectral
coordinates of every draw; the selection baselines, the exponential
weights, the member losses and the whole aggregation solve are evaluated
for the block in those coordinates, from one read-only Cp array per block.
The solve's vertex and segment stages decide most draws in closed form; the
draws they leave undecided go on together through the active-set pivots of
the block, so no draw gets a solve of its own.  ``solve_stages`` counts the
draws decided at each stage.

All randomness flows from the config seed: the design matrix uses the
(seed, 0) stream and replicate i the (seed, 1, i) stream.  The block is
the unit of work handed to worker processes: blocks start at multiples of
the width and are never split, so serial and parallel runs agree bit for
bit.

The points of one M or q sweep share ``_sweep_store`` while it runs.  It keeps
only what varies within the sweep, whose points share seed, n, p and so X:
under "noise" one read-only array whose row i holds replicate i's standard
normals, the first rows up to NOISE_STORE_BYTES, of which each block reads its
slice, and under a penalty diagonal's bytes the first family built on it,
which later grids on that diagonal regrid.  The first point draws the rows the
store can keep before its blocks run, so the workers of a pool inherit them.
A point does the arithmetic of a run of its own on the same inputs, so its
report is byte-identical to that run's.  The store is a context variable: a
run or sweep in another thread (or asyncio task) sees only its own, so runs
and sweeps may be called from several threads at once.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import json
import math
import time
import typing
from dataclasses import dataclass, field, replace

import numpy as np

from qagg.aggregate import (
    SOLVE_STAGES, _block_solve, _cp, _gcv_degenerate, _gcv_scores, _softmax, excess_bound_gap,
)
from qagg.smoother import (
    FamilyUnion, GroundTruth, _check_sigma, _response, member_risks, oracle_index,
)
from qagg.spectral import DesignProblem, SpectralFamily, _regrid, build_tikhonov_family

__all__ = [
    "ConfigError",
    "MeanSpec",
    "PenaltySpec",
    "GridSpec",
    "FamilySpec",
    "ScenarioSpec",
    "ExperimentConfig",
    "Instance",
    "MethodStats",
    "RegretReport",
    "METHODS",
    "build_instance",
    "run_experiment",
    "regret_vs_M_sweep",
    "regret_vs_q_sweep",
    "write_report_json",
    "write_reports_csv",
]

METHODS = ("q_agg", "cp_select", "gcv", "exp_weights", "oracle")

MEAN_SHAPES = ("zero", "spectral-decay", "single-spike", "explicit")

EXCESS_QUANTILES = (0.5, 0.9, 0.99)

# z-value for the >= 95% confidence half-widths in the reports
CI_Z = 1.96

# Budget, in (replicate, member) entries, of one block's per-member arrays
# (see _block_width).  Each block pays a fixed dispatch cost, so a point runs
# in as few blocks as this allows.  Per point on the AC-3 union sweep at 200
# replicates (2-core VM, single-threaded BLAS): q = 4 (M = 64) took 15.2 ms in
# blocks of 32 and 6.2 ms in one block of 200; q = 16 (M = 256) 37.2 ms at 32
# and 19.5 ms at 100.  At M = 1000 (AC-2) a width of 200 was slower than 32,
# 13.2 against 9.7 ms.
BLOCK_ENTRIES = 25_600

# Longest file name, in bytes, that common file systems accept.
NAME_MAX = 255


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the offending key."""


# Configs and reports are read and written field by field from their
# dataclasses.  A field's JSON key is its name, or the key path in its "key"
# metadata, which nests flat fields under one shared object (the "sweep" block
# of a config).

_TYPE_NAMES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


def _key(f: dataclasses.Field) -> tuple[str, ...]:
    return f.metadata.get("key", (f.name,))


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


@functools.cache
def _schema(cls) -> tuple[dict, dict]:
    """Resolved field types of a dataclass and its key tree (key -> field or subtree)."""
    tree: dict = {}
    for f in dataclasses.fields(cls):
        *outer, last = _key(f)
        node = tree
        for name in outer:
            node = node.setdefault(name, {})
        node[last] = f
    return typing.get_type_hints(cls), tree


def _gather(tree: dict, data, where: str, hints: dict, out: dict) -> None:
    if not isinstance(data, dict):
        name = f"key '{where}'" if where else "config root"
        raise ConfigError(f"{name} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - set(tree))
    if unknown:
        raise ConfigError(f"unknown key '{_at(where, unknown[0])}'")
    for key, node in tree.items():
        if key not in data:
            continue
        if isinstance(node, dict):
            _gather(node, data[key], _at(where, key), hints, out)
        else:
            out[node.name] = _load(hints[node.name], data[key], _at(where, key))


def _load(tp, data, where: str):
    """Value of type tp read from parsed JSON; errors name the key at fault."""
    args = typing.get_args(tp)
    if type(None) in args:  # X | None
        inner = next(a for a in args if a is not type(None))
        return None if data is None else _load(inner, data, where)
    if dataclasses.is_dataclass(tp):
        hints, tree = _schema(tp)
        fields = dataclasses.fields(tp)
        if isinstance(data, str) and hints[fields[0].name] is str:
            data = {fields[0].name: data}  # "identity" stands for {"kind": "identity"}
        kwargs: dict = {}
        _gather(tree, data, where, hints, kwargs)
        for f in fields:
            if f.name not in kwargs and f.default is dataclasses.MISSING:
                raise ConfigError(f"missing key '{_at(where, '.'.join(_key(f)))}'")
        return tp(**kwargs)
    if typing.get_origin(tp) is tuple:
        if not isinstance(data, (list, tuple)):
            raise ConfigError(f"key '{where}' must be a list, got {data!r}")
        return tuple(_load(args[0], v, f"{where}[{i}]") for i, v in enumerate(data))
    if tp is float and isinstance(data, int) and not isinstance(data, bool):
        data = float(data)
    if not isinstance(data, tp) or isinstance(data, bool) is not (tp is bool):
        raise ConfigError(f"key '{where}' must be {_TYPE_NAMES[tp]}, got {data!r}")
    if tp is float and not math.isfinite(data):  # JSON and TOML both read nan and inf
        raise ConfigError(f"key '{where}' must be a finite number, got {data!r}")
    return data


def _dump(obj):
    """JSON-ready form of a value; dataclasses become objects keyed as _load reads them."""
    if dataclasses.is_dataclass(obj):
        out: dict = {}
        for f in dataclasses.fields(obj):
            *outer, last = _key(f)
            node = out
            for name in outer:
                node = node.setdefault(name, {})
            node[last] = _dump(getattr(obj, f.name))
        return out
    if isinstance(obj, (list, tuple)):
        return [_dump(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _dump(v) for k, v in obj.items()}
    return obj


@dataclass(frozen=True)
class MeanSpec:
    """Ground-truth mean generator.

    Spectral shapes place coefficients directly on the eigenbasis of
    the first family: 'spectral-decay' uses coefficients i^(-rate),
    'single-spike' a unit coefficient on one coordinate.  When
    target_risk is set the coefficients are rescaled so the oracle risk
    of the candidate set matches it.
    """

    shape: str = "zero"
    rate: float = 1.0
    coordinate: int = 0
    scale: float = 1.0
    target_risk: float | None = None
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.shape not in MEAN_SHAPES:
            raise ConfigError(
                f"key 'scenario.mean.shape' must be one of {MEAN_SHAPES}, got {self.shape!r}"
            )
        if self.shape == "explicit" and self.values is None:
            raise ConfigError("key 'scenario.mean.values' is required for explicit means")
        if self.shape != "explicit" and self.values is not None:
            raise ConfigError(
                f"key 'scenario.mean.values' needs the explicit mean shape, got {self.shape!r}"
            )
        if self.target_risk is not None and self.shape in ("zero", "explicit"):
            raise ConfigError(
                "key 'scenario.mean.target_risk' needs a spectral mean shape"
            )


@dataclass(frozen=True)
class PenaltySpec:
    """Diagonal penalty K = diag(d): identity (d = 1) or d_i = i^exponent, i = 1..p.

    Only diagonal penalties are built, so the relative grid's scale is read
    off the design without a factorization (see ``_build_families``).
    """

    kind: str = "identity"
    exponent: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "diag-power"):
            raise ConfigError(
                f"key 'penalty.kind' must be 'identity' or 'diag-power', got {self.kind!r}"
            )

    def diagonal(self, p: int) -> np.ndarray:
        """The penalty's diagonal; ValueError unless every entry is finite and positive."""
        if self.kind == "identity" or self.exponent == 0.0:
            return np.ones(p)
        with np.errstate(over="ignore"):
            d = np.arange(1.0, p + 1.0) ** self.exponent
        if not (np.all(np.isfinite(d)) and d.min() > 0.0):
            raise ValueError(f"i^{self.exponent} for i = 1..{p} is not finite and positive")
        return d


@dataclass(frozen=True)
class GridSpec:
    """Geometric tuning grid.

    Bounds are multiples of the mean squared singular value of the
    whitened design B = X K^{-1/2}, that is ||B||_F^2 / min(n, p), unless
    ``absolute`` is set, so the default range [1e-3, 1e3] covers
    near-interpolation through near-zero fits.
    """

    min: float = 1e-3
    max: float = 1e3
    count: int = 20
    absolute: bool = False

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"key 'grid.count' must be >= 1, got {self.count}")
        if not 0 < self.min <= self.max:
            raise ConfigError(
                f"key 'grid.min'/'grid.max' must satisfy 0 < min <= max, "
                f"got ({self.min}, {self.max})"
            )
        if self.count > 1 and self.min == self.max:
            raise ConfigError("key 'grid.count' > 1 needs grid.min < grid.max")

    def build(self, scale: float) -> np.ndarray:
        factor = 1.0 if self.absolute else scale
        with np.errstate(over="ignore"):  # DesignProblem rejects a grid that overflows
            return factor * np.geomspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class FamilySpec:
    """One Tikhonov family: coefficient dimension, penalty and grid."""

    p: int
    penalty: PenaltySpec = PenaltySpec()
    grid: GridSpec = GridSpec()

    def __post_init__(self):
        if self.p < 1:
            raise ConfigError(f"key 'families[].p' must be >= 1, got {self.p}")


@dataclass(frozen=True)
class ScenarioSpec:
    """Gaussian mean model parameters for simulation."""

    n: int
    sigma: float = 1.0
    mean: MeanSpec = MeanSpec()

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"key 'scenario.n' must be >= 1, got {self.n}")
        try:
            _check_sigma(self.sigma, self.n)
        except ValueError as exc:
            raise ConfigError(f"key 'scenario.sigma': {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment."""

    scenario: ScenarioSpec
    families: tuple[FamilySpec, ...]
    replicates: int
    seed: int
    methods: tuple[str, ...] = METHODS
    lemma_check: bool = False
    label: str = "experiment"
    sweep_m: tuple[int, ...] | None = field(default=None, metadata={"key": ("sweep", "M")})
    sweep_q: tuple[int, ...] | None = field(default=None, metadata={"key": ("sweep", "q")})
    members_per_family: int = field(default=16, metadata={"key": ("sweep", "members_per_family")})

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError(f"key 'replicates' must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ConfigError(f"key 'seed' must be >= 0, got {self.seed}")
        if not self.label or any(c in self.label for c in '/\\\0,"\n\r'):
            raise ConfigError(
                f"key 'label' must be a nonempty file-name and CSV field part without "
                f"'/', '\\', NUL, ',', '\"' or a line break, got {self.label!r}"
            )
        if not self.families:
            raise ConfigError("key 'families' must list at least one family")
        p0 = self.families[0].p
        if any(f.p != p0 for f in self.families):
            raise ConfigError("key 'families[].p' must be equal across families (shared design)")
        for i, name in enumerate(self.methods):
            if name not in METHODS:
                raise ConfigError(f"key 'methods' contains unknown method {name!r}")
            if name in self.methods[:i]:
                raise ConfigError(f"key 'methods' lists method {name!r} more than once")
        if not self.methods:
            raise ConfigError("key 'methods' must name at least one method")
        if self.lemma_check and "q_agg" not in self.methods:
            raise ConfigError("key 'lemma_check' requires the 'q_agg' method")
        if self.members_per_family < 1:
            raise ConfigError(
                f"key 'sweep.members_per_family' must be >= 1, got {self.members_per_family}"
            )
        object.__setattr__(self, "families", tuple(self.families))
        object.__setattr__(self, "methods", tuple(self.methods))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Config read from parsed JSON.

        Its label must keep every report name a run or sweep of it writes,
        report_<label>[-M<m> | -q<q>].json, within NAME_MAX bytes.
        """
        config = _load(cls, data, "")
        suffixes = [f"-M{m}" for m in config.sweep_m or ()]
        suffixes += [f"-q{q}" for q in config.sweep_q or ()]
        longest = max(
            len(f"report_{config.label}{s}.json".encode(errors="surrogatepass"))
            for s in ["", *suffixes]
        )
        if longest > NAME_MAX:
            raise ConfigError(
                f"key 'label' is too long: its longest report file name takes {longest} "
                f"bytes, over the {NAME_MAX}-byte limit"
            )
        return config

    def to_dict(self) -> dict:
        return _dump(self)


@dataclass(frozen=True)
class Instance:
    """Realized candidate set and ground truth for one experiment."""

    candidates: FamilyUnion
    truth: GroundTruth
    oracle_member: int
    oracle_risk: float


def _design_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def _replicate_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, index)))


# What the points of the running sweep share (see the module doc), else None.
_sweep_store: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "qagg.bench.sweep_store", default=None
)

# Most bytes of noise rows a sweep keeps; a row past it is drawn again at
# every point.  The benchmark sweeps keep 200 x 100 draws, 160 KiB.
NOISE_STORE_BYTES = 64 * 2**20


def _noise(seed: int, n: int, start: int, stop: int) -> np.ndarray:
    """Standard normals of replicates [start, stop), one row each; each drawn once per sweep.

    A sweep keeps its first rows as one read-only array (see run_experiment), and a
    block reads its slice of it, so points whose blocks differ in width share them.
    """
    store = _sweep_store.get()
    kept = () if store is None else store["noise"]
    if stop <= len(kept):
        return kept[start:stop]
    fresh = (_replicate_rng(seed, i).standard_normal(n) for i in range(max(start, len(kept)), stop))
    return np.stack([*kept[start:], *fresh])  # rows past what the sweep keeps are drawn again


def _build_families(config: ExperimentConfig) -> list[SpectralFamily]:
    """One ``build_tikhonov_family(DesignProblem(X, diag(d), grid))`` per spec, on a shared X.

    The relative grid's scale, the mean squared singular value of X K^{-1/2},
    is ||X K^{-1/2}||_F^2 / min(n, p) = sum_ij X_ij^2 / d_j / min(n, p): no SVD.
    A penalty or grid that is rejected raises a ConfigError naming the family's key.
    """
    n, p = config.scenario.n, config.families[0].p
    X = _design_rng(config.seed).standard_normal((n, p))
    store = _sweep_store.get()
    if store is None:
        store = {}
    families = []
    for idx, spec in enumerate(config.families):
        key = f"families[{idx}]"
        try:
            d = spec.penalty.diagonal(p)
            with np.errstate(over="ignore"):
                scale = float(np.sum(X**2 / d)) / min(n, p)
            if not math.isfinite(scale):
                raise ValueError(f"the whitened design overflows (scale {scale})")
        except ValueError as exc:
            raise ConfigError(f"key '{key}.penalty.exponent': {exc}") from None
        try:
            problem = DesignProblem(X=X, K=np.diag(d), lambdas=spec.grid.build(scale))
        except ValueError as exc:
            raise ConfigError(f"key '{key}.grid': {exc}") from None
        family = store.get(d.tobytes())  # the first family built on X and K = diag(d)
        if family is None:
            family = store[d.tobytes()] = build_tikhonov_family(problem)
        else:
            family = _regrid(family, problem.lambdas)
        families.append(family)
    return families


def _mean_unit(spec: MeanSpec, basis_family: SpectralFamily, n: int) -> np.ndarray:
    if spec.shape == "zero":
        return np.zeros(n)
    if spec.shape == "explicit":
        values = np.asarray(spec.values, dtype=float)
        if values.shape != (n,):
            raise ConfigError(
                f"key 'scenario.mean.values' must have length {n}, got {values.shape}"
            )
        return values
    r = basis_family.rank
    coef = np.zeros(r)
    if spec.shape == "spectral-decay":
        coef = np.arange(1.0, r + 1.0) ** (-spec.rate)
    else:  # single-spike
        if not 0 <= spec.coordinate < r:
            raise ConfigError(
                f"key 'scenario.mean.coordinate' must lie in [0, {r}), got {spec.coordinate}"
            )
        coef[spec.coordinate] = 1.0
    return basis_family.basis @ coef


def _calibrate_mean(candidates, mu_unit: np.ndarray, sigma: float, target: float) -> np.ndarray:
    """Scale mu_unit so that the oracle risk of the candidate set hits target.

    At scale t member j has risk v_j + t^2 b_j (variance plus squared bias),
    so the oracle risk min_j (v_j + t^2 b_j) is nondecreasing in t^2 and first
    reaches target at t^2 = max over biased members (b_j > 0) of (target - v_j) / b_j.
    """
    variances = member_risks(candidates, GroundTruth(mu=np.zeros(mu_unit.size), sigma=sigma))
    bias_unit = member_risks(candidates, GroundTruth(mu=mu_unit, sigma=sigma)) - variances
    unbiased = bias_unit <= 1e-12 * max(1.0, float(np.abs(bias_unit).max()))
    if unbiased.any():
        cap = float(variances[unbiased].min())
        if target >= cap:
            raise ConfigError(
                f"key 'scenario.mean.target_risk' = {target} is unreachable: the grid "
                f"contains an (almost) unbiased member with variance {cap:.6g}"
            )
    if float(variances.min()) >= target:
        raise ConfigError(
            f"key 'scenario.mean.target_risk' = {target} is below the pure-variance "
            f"floor {float(variances.min()):.6g}"
        )
    t2 = np.max((target - variances[~unbiased]) / bias_unit[~unbiased])
    return math.sqrt(t2) * mu_unit


def build_instance(config: ExperimentConfig, mu_override: np.ndarray | None = None) -> Instance:
    """Materialize the candidate families and ground truth of a config."""
    families = _build_families(config)
    candidates = FamilyUnion(families=tuple(families))
    sigma = config.scenario.sigma
    if mu_override is not None:
        mu = np.asarray(mu_override, dtype=float)
    else:
        spec = config.scenario.mean
        mu_unit = _mean_unit(spec, families[0], config.scenario.n)
        if spec.target_risk is not None:
            mu = _calibrate_mean(candidates, mu_unit, sigma, spec.target_risk)
        else:
            mu = spec.scale * mu_unit
    truth = GroundTruth(mu=mu, sigma=sigma)
    j_star, r_star = oracle_index(candidates, truth)
    return Instance(candidates=candidates, truth=truth, oracle_member=j_star, oracle_risk=r_star)


def _block_losses(instance: Instance, resp, methods, mean, cp) -> dict[str, np.ndarray]:
    """Loss on every column of a block pass of each method other than q_agg, given its Cp."""
    sigma = instance.truth.sigma
    out = {}
    for name in methods:
        if name == "oracle":
            oracle = np.full(cp.shape[0], instance.oracle_member)
            out[name] = resp.member_losses(oracle, mean)
        elif name == "cp_select":
            out[name] = resp.member_losses(cp.argmin(axis=-1), mean)
        elif name == "gcv":
            out[name] = resp.member_losses(_gcv_scores(resp).argmin(axis=-1), mean)
        elif name == "exp_weights":
            out[name] = resp.weight_losses(_softmax(cp, sigma), mean)
    return out


def _block_width(config: ExperimentConfig) -> int:
    """Replicates per block of a config: max(32, min(replicates, BLOCK_ENTRIES // M)).

    It depends on the config alone, never on the thread count, since a
    column's arithmetic depends on the width of its block.
    """
    members = sum(spec.grid.count for spec in config.families)
    return max(32, min(config.replicates, BLOCK_ENTRIES // members))


def _replicate_block(instance: Instance, config: ExperimentConfig, mean, start: int) -> dict:
    """Per-draw arrays of the block of replicates from start, a multiple of _block_width.

    Each method's loss under its name and, with q_agg, its excess over the
    oracle member, solve stage, convergence, ridge fallbacks, stalls and, with
    lemma_check, lemma gap.  mean is the pass of mu.
    """
    mu, sigma, candidates = instance.truth.mu, instance.truth.sigma, instance.candidates
    stop = min(start + _block_width(config), config.replicates)
    draws = _noise(config.seed, mu.size, start, stop) * sigma
    draws += mu  # row b is the draw y = mu + sigma * eps of replicate start + b
    resp = _response(candidates, draws.T, block=True)
    cp = _cp(resp, sigma)
    cp.setflags(write=False)  # read by every method of the block
    out = _block_losses(instance, resp, config.methods, mean, cp)
    if "q_agg" not in config.methods:
        return out
    theta, objective, kkt, stage, _, converged, ridge, stalled = _block_solve(resp, sigma, cp)
    # a draw left on one member is scored by the function that scores the
    # oracle, so a draw at the oracle vertex has an excess of exactly zero
    q_loss = resp.member_losses(theta.argmax(axis=1), mean)
    mixed = (theta > 0).sum(axis=1) > 1
    if mixed.any():
        q_loss[mixed] = resp.weight_losses(theta, mean)[mixed]
    oracle = out.get("oracle")
    if oracle is None:
        oracle = resp.member_losses(np.full_like(stage, instance.oracle_member), mean)
    out.update(q_agg=q_loss, excess=q_loss - oracle, stage=stage,
               converged=converged, ridge=ridge, stalled=stalled)
    if config.lemma_check:
        out["lemma_gap"] = np.array([
            excess_bound_gap(candidates, theta[b], draws[b], sigma, mu)
            - (max(0.0, -kkt[b]) + 1e-9 * (1.0 + abs(objective[b])))  # gap - slack
            for b in range(stop - start)
        ])
    return out


@dataclass(frozen=True)
class MethodStats:
    """Monte Carlo summary of one method."""

    method: str
    mean_risk: float
    std_error: float
    regret: float
    ci_half_width: float


@dataclass(frozen=True)
class RegretReport:
    """Aggregated experiment outcome.

    Regrets are mean realized loss minus the exact oracle risk R*;
    confidence half-widths are CI_Z standard errors.  Per-draw excess
    quantiles of the aggregation method support tail checks.
    ``solve_stages`` counts the q_agg draws decided at each of SOLVE_STAGES;
    ``solver_fallbacks`` sums their solves' face systems solved again with a
    ridge ("ridge") and pivots stopped by a stall ("stalled").
    """

    label: str
    member_total: int
    family_total: int
    seed: int
    replicates: int
    oracle_member: int
    oracle_risk: float
    stats: dict[str, MethodStats] = field(metadata={"key": ("methods",)})
    excess_quantiles: dict[str, float]
    solver_failures: int
    solve_stages: dict[str, int]
    solver_fallbacks: dict[str, int]
    lemma_violations: int | None
    lemma_worst_gap: float | None
    runtime_seconds: float
    config: ExperimentConfig

    def to_dict(self) -> dict:
        return _dump(self)


# In a worker process of run_experiment, the block function of the run it serves.
_worker_run = None


def _start_worker(block) -> None:
    global _worker_run
    _worker_run = block


def _worker_block(start: int) -> dict:
    return _worker_run(start)


def run_experiment(
    config: ExperimentConfig,
    *,
    threads: int = 1,
    mu_override: np.ndarray | None = None,
) -> RegretReport:
    """Run all replicates of a config and aggregate into a report.

    The replicate block is the unit of work: with threads > 1 the blocks are
    handed to worker processes, each worker taking one contiguous run of
    them.  Each worker receives the instance once, when it starts, and then
    only block starts.  The per-replicate generators depend only on (seed,
    replicate index) and the blocks only on the config, so the result is
    identical for any thread count.
    """
    t0 = time.perf_counter()
    instance = build_instance(config, mu_override=mu_override)
    if "gcv" in config.methods and _gcv_degenerate(instance.candidates).all():
        raise ConfigError("key 'methods' lists 'gcv', which is undefined here: every member "
                          "has trace within 1e-8 n of n")
    mu_pass = _response(instance.candidates, instance.truth.mu)  # one pass for every block
    block = functools.partial(_replicate_block, instance, config, mu_pass)
    starts = range(0, config.replicates, _block_width(config))
    store, n = _sweep_store.get(), config.scenario.n
    kept = min(config.replicates, NOISE_STORE_BYTES // (8 * n))  # rows the store can keep
    if store is not None and len(store["noise"]) < kept:  # before a pool forks: workers have them
        store["noise"] = _noise(config.seed, n, 0, kept)
        store["noise"].setflags(write=False)
    workers = min(threads, len(starts))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # slow to import

        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(block,)) as pool:
            parts = list(pool.map(_worker_block, starts, chunksize=-(-len(starts) // workers)))
    else:
        parts = [block(start) for start in starts]
    draws = {key: np.concatenate([part[key] for part in parts]) for key in parts[0]}

    # every draw is scored, non-converged solves with the best iterate they
    # return; solver_failures counts those draws separately
    stats: dict[str, MethodStats] = {}
    for name in config.methods:
        vals = draws[name]
        mean = float(vals.mean())
        se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
        stats[name] = MethodStats(
            method=name,
            mean_risk=mean,
            std_error=se,
            regret=mean - instance.oracle_risk,
            ci_half_width=CI_Z * se,
        )

    excess_quantiles: dict[str, float] = {}
    stages, failures = np.zeros(len(SOLVE_STAGES), dtype=int), 0
    fallbacks = {"ridge": 0, "stalled": 0}
    if "q_agg" in config.methods:
        qs = _quantiles(draws["excess"], EXCESS_QUANTILES)
        excess_quantiles = {f"q{int(100 * q)}": float(v) for q, v in zip(EXCESS_QUANTILES, qs)}
        stages = np.bincount(draws["stage"], minlength=len(SOLVE_STAGES))
        fallbacks = {key: int(draws[key].sum()) for key in fallbacks}
        failures = int((~draws["converged"]).sum())

    lemma_violations = lemma_worst = None
    if config.lemma_check:
        lemma_violations = int((draws["lemma_gap"] > 0.0).sum())
        lemma_worst = float(draws["lemma_gap"].max())

    return RegretReport(
        label=config.label,
        member_total=instance.candidates.member_count,
        family_total=instance.candidates.q,
        seed=config.seed,
        replicates=config.replicates,
        oracle_member=instance.oracle_member,
        oracle_risk=instance.oracle_risk,
        stats=stats,
        excess_quantiles=excess_quantiles,
        solver_failures=failures,
        solve_stages={name: int(k) for name, k in zip(SOLVE_STAGES, stages)},
        solver_fallbacks=fallbacks,
        lemma_violations=lemma_violations,
        lemma_worst_gap=lemma_worst,
        runtime_seconds=time.perf_counter() - t0,
        config=config,
    )


def _quantiles(values: np.ndarray, qs) -> np.ndarray:
    """np.quantile(values, qs) by its default linear rule, from one sort.

    np.quantile calls np.unique, whose first use in a process imports numpy.ma
    (about 10 ms).  Quantile q lies at position (n - 1) q of the sorted values,
    between a and b = a + d with fraction g: a + d g when g < 1/2, else
    b - d (1 - g), as numpy interpolates.
    """
    s = np.sort(values)
    pos = (s.size - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(pos).astype(int)
    a, b, g = s[lo], s[np.minimum(lo + 1, s.size - 1)], pos - lo
    d = b - a
    return np.where(g < 0.5, a + d * g, b - d * (1.0 - g))


def _sweep(config: ExperimentConfig, reference, points: list, threads: int) -> list[RegretReport]:
    """One report per (label suffix, families) point, the mean calibrated on ``reference``.

    The points share ``_sweep_store`` until the sweep returns or raises (see the module doc).
    """
    token = _sweep_store.set({"noise": np.empty((0, config.scenario.n))})
    try:
        mu = build_instance(replace(config, families=reference)).truth.mu
        return [
            run_experiment(
                replace(config, label=f"{config.label}-{suffix}", families=families,
                        sweep_m=None, sweep_q=None),
                threads=threads, mu_override=mu,
            )
            for suffix, families in points
        ]
    finally:
        _sweep_store.reset(token)


def _sweep_arguments(config: ExperimentConfig, key: str, values, counts: str,
                     sweep: str) -> tuple[list[int], FamilySpec]:
    """The sweep's values as positive ints and the config's one family, or a ConfigError."""
    values = [int(v) for v in values]
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"key 'sweep.{key}' must list positive {counts}, got {values}")
    if len(config.families) != 1:
        raise ConfigError(f"{sweep} needs a single-family config, but key 'families' "
                          f"lists {len(config.families)}")
    return values, config.families[0]


def regret_vs_M_sweep(
    config: ExperimentConfig, m_values, *, threads: int = 1
) -> list[RegretReport]:
    """Re-run one single-family config over refining grid sizes.

    The ground truth is calibrated once against the densest grid of the
    sweep and then held fixed, and the replicate noise streams are
    shared across grid sizes, so differences across M reflect the grids
    alone.
    """
    m_values, base = _sweep_arguments(config, "M", m_values, "grid sizes", "an M sweep")
    if any(a >= b for a, b in zip(m_values, m_values[1:])):
        raise ConfigError(f"key 'sweep.M' must be strictly ascending, got {m_values}")
    points = [(f"M{m}", (replace(base, grid=replace(base.grid, count=m)),)) for m in m_values]
    return _sweep(config, points[-1][1], points, threads)  # calibrated on the densest grid


def _q_sweep_families(base: FamilySpec, q: int, members_per_family: int) -> tuple[FamilySpec, ...]:
    exponents = np.linspace(0.0, 3.0, q) if q > 1 else np.array([0.0])
    grid = replace(base.grid, count=members_per_family)
    return tuple(
        FamilySpec(p=base.p, penalty=PenaltySpec(kind="diag-power", exponent=float(g)), grid=grid)
        for g in exponents
    )


def regret_vs_q_sweep(
    config: ExperimentConfig, q_values, *, threads: int = 1
) -> list[RegretReport]:
    """Re-run a config over unions of q distinct diagonal-penalty families.

    Family m uses the penalty diag(i^exponent_m) with exponents spread
    over [0, 3] and a fresh copy of the base grid with
    ``members_per_family`` points, so the config's one family must have the
    default identity penalty.  The ground truth is calibrated on
    the q = 1 candidate set and held fixed across q.
    """
    q_values, base = _sweep_arguments(config, "q", q_values, "family counts", "a q sweep")
    if len(set(q_values)) != len(q_values):
        raise ConfigError(f"key 'sweep.q' must list distinct family counts, got {q_values}")
    if base.penalty != PenaltySpec():  # the sweep sets every family's penalty itself
        raise ConfigError(
            f"key 'families[0].penalty' must be the identity for a q sweep, got {base.penalty}"
        )
    points = [(f"q{q}", _q_sweep_families(base, q, config.members_per_family)) for q in q_values]
    return _sweep(config, _q_sweep_families(base, 1, config.members_per_family), points, threads)


def _write_json(data, path) -> None:
    """The one layout of every JSON file qagg writes: 2-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cell(value) -> str:
    """The one CSV cell rule: a float as its repr, None as an empty cell, anything else by str."""
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def _write_csv(path, rows, header=None) -> None:
    """A CSV file of the header's names, if given, then one line of cells per row."""
    with open(path, "w", newline="") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_report_json(report: RegretReport, path) -> None:
    _write_json(report.to_dict(), path)


CSV_COLUMNS = ("label", "members", "families", "seed", "replicates", "method", "mean_risk",
               "std_error", "oracle_risk", "regret", "ci_half_width", "excess_q50",
               "excess_q90", "excess_q99")


def write_reports_csv(reports, path) -> None:
    """Flat CSV with one row per (config, method); deterministic bytes for a fixed seed.

    A row fills its cells by column name, the excess quantiles on the q_agg row only.
    """
    rows = []
    for report in reports:
        for name, s in report.stats.items():
            row = dict.fromkeys(CSV_COLUMNS)
            row.update(label=report.label, members=report.member_total,
                       families=report.family_total, seed=report.seed,
                       replicates=report.replicates, oracle_risk=report.oracle_risk, **vars(s))
            if name == "q_agg":
                row.update((f"excess_{k}", v) for k, v in report.excess_quantiles.items())
            rows.append(row.values())
    _write_csv(path, rows, CSV_COLUMNS)
