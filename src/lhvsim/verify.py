"""Statistical certification of protocol runs against the Born oracle.

Provides the comparison metrics (total variation distance, chi-square), a
CHSH estimator, and the analytic property suites for the hemisphere law and
for the sub-normalized density rhot_x.  The setting grids the runs use live
in ``bloch``, so building settings loads neither this module nor the
simulator.

Tolerances are derived from the round count, never hard-coded: the default
pass threshold for a table of M rounds is ``max(0.005, 5/sqrt(M))``.

numpy is the only dependency.  ``area_quadrature`` sums fixed 64-node
Gauss-Legendre rules between the kinks of its integrand, and
``Chi2Result.pvalue`` is the closed-form chi-square tail of an integer dof.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Optional

import numpy as np

from .bloch import (
    JointDistribution,
    State,
    Z_AXIS,
    born_tables,
    check_unit,
    chsh_setting_pairs,
    chsh_value,
    collapse,
    dot3,
    sign_pm,
    theta,
    unwrap_0d,
)
from .errors import ValidationError
from .protocols import (
    CH_SHARED,
    CHUNK,
    ProtocolId,
    SimulationResult,
    simulate,
)
from .sampling import (
    _frame,
    _hemisphere_points,
    _is_integer,
    _rho_tilde_given,
    check_seed,
    eval_rho_tilde,
    generator_at,
    make_generator,
    rho_tilde_bound,
    rho_tilde_max_cos,
    sample_uniform_sphere,
    stream_key,
)


def pass_threshold(rounds: int) -> float:
    """Default TVD pass threshold for a table of given size."""
    return max(0.005, 5.0 / np.sqrt(max(rounds, 1)))


# ---------------------------------------------------------------------------
# metrics of (2, 2) count tables n(a, b), index 0 -> outcome +1.  The last two
# axes of an array are one table; the one-table functions are the case of no
# other axis.


def _tvd_rows(counts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """(1/2) sum |n(a,b)/M - p(a,b)| of each table, M its count."""
    m = counts.sum(axis=(-2, -1), keepdims=True)
    if np.any(m == 0):
        raise ValidationError("empirical table has no rounds")
    return 0.5 * np.abs(counts / m - probs).sum(axis=(-2, -1))


def tvd(counts: np.ndarray, oracle: JointDistribution) -> float:
    """Total variation distance (1/2) sum |n(a,b)/M - p(a,b)|, M = counts.sum()."""
    return float(_tvd_rows(np.asarray(counts), oracle.probs))


@dataclass
class Chi2Result:
    statistic: float
    dof: int

    @cached_property
    def pvalue(self) -> float:
        """The chi2(dof) upper tail at ``statistic``, computed on first read."""
        if self.statistic == float("inf"):
            return 0.0  # a cell the oracle rules out was hit
        return _chi2_tail(self.statistic, self.dof)


def _chi2_tail(x: float, dof: int) -> float:
    """P(chi2(dof) > x) for an integer dof, nan for dof < 1 (Abramowitz &
    Stegun 26.4.4-5): with h = (dof % 2) / 2, the sum over j < dof // 2 of
    exp(-x/2) (x/2)^(j+h) / Gamma(j+h+1), plus erfc(sqrt(x/2)) for odd dof.
    Each term is the exp of its log: exp(-x/2) alone underflows past x = 1490.
    """
    if dof < 1:
        return float("nan")
    if x <= 0.0:
        return 1.0
    h, half = 0.5 * (dof % 2), 0.5 * x
    terms = [math.erfc(math.sqrt(half))] if h else []
    for j in range(dof // 2):
        terms.append(math.exp((j + h) * math.log(half) - half - math.lgamma(j + h + 1.0)))
    return math.fsum(terms)


def _chi2_rows(counts: np.ndarray, probs: np.ndarray) -> tuple:
    """Pearson chi-square of each table against its probabilities, and its
    degrees of freedom (``_pearson_rows`` over the four cells)."""
    m = counts.sum(axis=(-2, -1), keepdims=True)
    if np.any(m == 0):
        raise ValidationError("chi-square needs at least one round")
    cells = counts.shape[:-2] + (4,)
    exp = (m * probs).reshape(cells)
    return _pearson_rows(counts.reshape(cells).astype(float), exp, exp > 0.0)


def chi2_stat(counts: np.ndarray, oracle: JointDistribution) -> Chi2Result:
    """Pearson chi-square of the counts against the oracle probabilities.

    Cells with zero oracle probability contribute infinity if they were ever
    observed and are dropped from the degrees of freedom otherwise.
    """
    stat, dof = _chi2_rows(np.asarray(counts), oracle.probs)
    return Chi2Result(float(stat), int(dof))


def _pearson_rows(obs: np.ndarray, exp: np.ndarray, live: np.ndarray) -> tuple:
    """Pearson chi-square over the ``live`` cells of each row (last axis), and
    its degrees of freedom; infinite where a dead cell was hit.

    A dead cell's term is +0.0.  Every term is a square over a positive
    expectation, so >= +0.0, and x + 0.0 == x for such x: numpy sums a row of
    fewer than 8 cells in order, so a row's sum has the bytes of the sum
    over its live cells alone.
    """
    dof = live.sum(axis=-1) - 1
    terms = np.divide((obs - exp) ** 2, exp, out=np.zeros(np.shape(exp)), where=live)
    hit = np.any((obs > 0) & ~live, axis=-1)
    return np.where(hit, np.inf, terms.sum(axis=-1)), dof


def _pearson(obs: np.ndarray, exp: np.ndarray, live: np.ndarray) -> Chi2Result:
    """Pearson chi-square over the ``live`` cells; infinite if a dead cell was hit."""
    stat, dof = _pearson_rows(np.asarray(obs), np.asarray(exp), np.asarray(live))
    return Chi2Result(float(stat), int(dof))


# ---------------------------------------------------------------------------
# quadrature oracles for the cos(theta) marginals


def hemisphere_axis_marginal(v: np.ndarray, c):
    """Azimuthal integral of Theta(lam.v)/pi over the circle lam.z = c.

    With A = c*v_z and B = sqrt(1-c^2)*sqrt(1-v_z^2) the integrand is
    max(0, A + B cos phi)/pi, which integrates to 2A if A >= B, 0 if
    A <= -B, and (2A*phi0 + 2B*sin(phi0))/pi with phi0 = arccos(-A/B)
    in between.  Integrating the result over c in [-1, 1] gives 1.
    ``c`` may be an array; the result then has its shape.
    """
    vz = float(np.clip(v[2], -1.0, 1.0))
    c = np.asarray(c, dtype=float)
    a = c * vz
    b = np.sqrt(np.maximum(1.0 - c * c, 0.0)) * np.sqrt(max(1.0 - vz * vz, 0.0))
    inside = np.abs(a) < b  # the circle crosses the plane lam.v = 0
    phi0 = np.arccos(np.divide(-a, b, out=np.zeros_like(a), where=inside))
    # outside, Theta(A + B cos phi) is A + B cos phi (A >= B) or 0 (A <= -B)
    out = np.where(inside, (2.0 * a * phi0 + 2.0 * b * np.sin(phi0)) / np.pi, 2.0 * theta(a))
    return unwrap_0d(out)


def _cos_marginal(coll, const: float):
    """lam.z density of rho_x - const * Theta(lam.z)/pi, azimuth integrated out.

    ``const`` = 0 gives rho_x, ``const`` = 2p-1 gives rhot_x.  ``g`` takes a
    value of lam.z or an array of them.
    """

    def g(c):
        rho = coll.p_plus * hemisphere_axis_marginal(coll.v_plus, c) + (
            coll.p_minus * hemisphere_axis_marginal(coll.v_minus, c)
        )
        return rho - const * hemisphere_axis_marginal(Z_AXIS, c) if const else rho

    return g


# ---------------------------------------------------------------------------
# analytic property suites


@dataclass
class HemisphereLawResult:
    v: np.ndarray
    y: np.ndarray
    rounds: int
    p_hat: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return abs(self.p_hat - self.expected) <= self.tolerance


def _check_integers(**counts) -> None:
    """Raise ValidationError unless every count is an integer (not a bool)."""
    for name, value in counts.items():
        if not _is_integer(value):
            raise ValidationError(f"{name} must be an integer, got {value!r}")


def hemisphere_law_check(v: np.ndarray, y: np.ndarray, rounds: int, seed: int) -> HemisphereLawResult:
    """Empirical check that the hemisphere law encodes the qubit state v.

    Draws lam ~ Theta(lam.v)/pi, outputs b = sgn(y.lam), and compares
    p_hat(b=+1) with (1 + y.v)/2 at a 4-sigma tolerance.  The vectors are
    the protocols' own z-hemisphere rows, ``_hemisphere_points``, read in
    the frame (e1, e2, v) of ``_frame(v)``: y.lam is a row's dot product
    with (y.e2, -y.e1, y.v).  The rounds are drawn from one generator in
    pieces of ``CHUNK``, which read the uniforms of one whole draw, and only
    the +1 outcomes are counted, so memory is O(CHUNK) and p_hat is the mean
    over the whole draw.
    """
    _check_integers(rounds=rounds)
    if rounds < 1:
        raise ValidationError(f"the hemisphere-law check needs at least one round, got {rounds}")
    v = check_unit(v, "v")
    y = check_unit(y, "y")
    e1, e2 = _frame(v)
    y_in_frame = np.array([y @ e2, -(y @ e1), y @ v])
    rng = make_generator(check_seed(seed), CH_SHARED)
    plus = 0
    for lo in range(0, rounds, CHUNK):
        u = rng.random((min(CHUNK, rounds - lo), 2))
        lam = _hemisphere_points(u[:, 0], u[:, 1])
        plus += int(np.count_nonzero(sign_pm(dot3(lam, y_in_frame)) == 1))
    return HemisphereLawResult(
        v=v,
        y=y,
        rounds=rounds,
        p_hat=plus / rounds,
        expected=(1.0 + float(y @ v)) / 2.0,
        tolerance=4.0 * np.sqrt(0.25 / rounds),
    )


@dataclass
class PropertyMargin:
    name: str
    worst: float
    limit: float
    witness: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.worst <= self.limit


@dataclass
class AreaResult:
    p: float
    expected: float
    monte_carlo: float
    mc_stderr: float
    quadrature: float
    mc_tolerance: float
    quad_tolerance: float

    @property
    def passed(self) -> bool:
        return (
            abs(self.monte_carlo - self.expected) <= self.mc_tolerance
            and abs(self.quadrature - self.expected) <= self.quad_tolerance
        )


@dataclass
class DensityPropertyReport:
    margins: list
    areas: list
    max_density: dict

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.margins) and all(a.passed for a in self.areas)

    def failures(self):
        return [m for m in self.margins if not m.passed] + [a for a in self.areas if not a.passed]


@cache
def _gauss_legendre() -> tuple:
    """The nodes and weights of the 64-node Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(64)


def area_quadrature(state: State, x: np.ndarray) -> float:
    """Integral of rhot_x over the sphere by quadrature of its lam.z marginal.

    The marginal g(c) has derivative kinks at c = +-sin(angle(v)) for each of
    v_+, v_-, z, and sqrt(1 - c^2) terms whose slope is infinite at c = +-1.
    With c = sin u these become u = +-arccos(|v_z|) and cos u, so the
    integral of g(sin u) cos u over [-pi/2, pi/2] is summed by 64-node
    Gauss-Legendre between consecutive kinks, each interval's nodes as one
    array.
    """
    coll = collapse(state, x)
    g = _cos_marginal(coll, state.c)
    nodes, weights = _gauss_legendre()
    kinks = {float(np.arccos(min(abs(v[2]), 1.0))) for v in (coll.v_plus, coll.v_minus, Z_AXIS)}
    edges = sorted({sign * u for u in kinks | {0.5 * np.pi} for sign in (-1.0, 1.0)})
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        us = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(weights @ (g(np.sin(us)) * np.cos(us)))
    return float(total)


def density_property_suite(
    p_list,
    trials: int = 10**5,
    seed: int = 0,
    area_samples: int = 10**6,
    area_points: Optional[list] = None,
) -> DensityPropertyReport:
    """Check the proven properties of rhot_x on random (p, x, lam) triples.

    Pointwise properties (non-negativity, point symmetry, the per-sign
    bounds, the envelope, and the constant bound) are evaluated with a
    1e-12 float guard band.  The area 2(1-p) is checked by Monte Carlo
    (1 percent) and by marginal quadrature (1e-6); ``area_points``
    restricts those heavier checks to a subset of p.
    """
    _check_integers(trials=trials, area_samples=area_samples)
    if trials < 1 or area_samples < 1:
        raise ValidationError(
            f"the density properties need at least one trial and one area sample, "
            f"got {trials} and {area_samples}"
        )
    guard = 1e-12
    worst = {
        k: -np.inf
        for k in ("nonnegative", "symmetric", "per_sign_bound", "envelope_bound", "constant_bound")
    }
    witness = {k: None for k in worst}
    max_density: dict = {}
    areas = []
    # per p, the settings, the trials' lam and the area samples follow one another
    # on stream (seed, 0), two uniforms per vector; each is read on from its place
    key, at = stream_key(check_seed(seed), 0), 0
    for p in p_list:
        state = State(float(p))
        settings = max(trials // 100, 1)
        x_rng, lam_rng = generator_at(key, at), generator_at(key, at + 2 * settings)
        at += 2 * (settings + trials)
        block = trials // settings  # the last trials % settings lam go unread
        max_rt = 0.0
        for x in sample_uniform_sphere(x_rng, settings):
            lam = sample_uniform_sphere(lam_rng, block)
            coll = collapse(state, x)  # once per setting, for lam and -lam
            rt = _rho_tilde_given(state, coll, lam, clamp=False)
            rt_neg = _rho_tilde_given(state, coll, -lam, clamp=False)
            max_rt = max(max_rt, float(rt.max()))
            checks = {
                "nonnegative": -rt,
                "symmetric": np.abs(rt - rt_neg),
                "per_sign_bound": rt
                - np.minimum(
                    coll.p_plus * np.abs(dot3(lam, coll.v_plus)),
                    coll.p_minus * np.abs(dot3(lam, coll.v_minus)),
                )
                / np.pi,
                "envelope_bound": rt - rho_tilde_max_cos(state, lam[:, 2]),
                "constant_bound": rt - rho_tilde_bound(state),
            }
            for name, vals in checks.items():
                k = int(np.argmax(vals))
                if float(vals[k]) > worst[name]:
                    worst[name] = float(vals[k])
                    witness[name] = (float(p), tuple(x), tuple(lam[k]))
        max_density[float(p)] = max_rt

        if area_points is not None and p not in area_points:
            continue
        expected = 2.0 * (1.0 - p)
        rng = generator_at(key, at)
        at += 2 * (area_samples + 1)
        mc_lam = sample_uniform_sphere(rng, area_samples)
        mc_x = sample_uniform_sphere(rng, 1)[0]
        vals = 4.0 * np.pi * eval_rho_tilde(state, mc_x, mc_lam)
        mc = float(vals.mean())
        mc_stderr = float(vals.std() / np.sqrt(area_samples))
        quad = area_quadrature(state, mc_x)
        areas.append(
            AreaResult(
                p=float(p),
                expected=expected,
                monte_carlo=mc,
                mc_stderr=mc_stderr,
                quadrature=quad,
                # one percent of the area once sampling noise allows it
                mc_tolerance=max(0.01 * expected, 6.0 * mc_stderr),
                quad_tolerance=1e-6,
            )
        )

    margins = [PropertyMargin(k, worst[k], guard, witness[k]) for k in worst]
    return DensityPropertyReport(margins=margins, areas=areas, max_density=max_density)


# ---------------------------------------------------------------------------
# CHSH estimation


@dataclass
class ChshEstimate:
    value: float
    stderr: float
    correlations: list
    oracle: float


def chsh_from_result(sim: SimulationResult, settings) -> ChshEstimate:
    """Assemble the CHSH estimate from a finished run over the 4 CHSH pairs.

    ``sim`` must have been produced over ``chsh_setting_pairs(settings)``
    (order [(x1,y1), (x1,y2), (x2,y1), (x2,y2)]).
    """
    x1, x2, y1, y2 = (check_unit(v) for v in settings)
    if len(sim.settings) != 4:
        raise ValidationError("a CHSH estimate needs exactly the four correlation pairs")
    if any(s.rounds == 0 for s in sim.settings):
        raise ValidationError("a CHSH estimate needs at least one round per pair")
    es = []
    var = 0.0
    for s in sim.settings:
        f = s.counts / s.rounds
        e = float(f[0, 0] - f[0, 1] - f[1, 0] + f[1, 1])
        es.append(e)
        var += max(1.0 - e * e, 0.0) / s.rounds
    value = es[0] + es[1] + es[2] - es[3]
    return ChshEstimate(
        value=value,
        stderr=float(np.sqrt(var)),
        correlations=es,
        oracle=chsh_value(sim.state, x1, x2, y1, y2),
    )


def chsh_estimate(
    protocol: ProtocolId,
    state: State,
    settings,
    rounds: int,
    seed: int,
) -> ChshEstimate:
    """Estimate the CHSH value S from simulated correlations.

    ``settings`` is the 4-tuple (x1, x2, y1, y2); the four correlation pairs
    are run with ``rounds`` rounds each.
    """
    pairs = chsh_setting_pairs(settings)
    sim = simulate(protocol, state, pairs, rounds, seed)
    return chsh_from_result(sim, settings)


# ---------------------------------------------------------------------------
# reports


@dataclass
class VerificationReport:
    """A run against the Born oracle: the TVD and chi-square of each setting
    pair, in ``sim.settings`` order.  The pass flags, the maximum TVD and the
    communication cost follow from these and the run, and are derived where
    read."""

    sim: SimulationResult
    tvd: list
    chi2: list
    tolerance: float
    meta: dict
    chsh: Optional[ChshEstimate] = None

    @property
    def max_tvd(self) -> float:
        return max(self.tvd, default=0.0)

    @property
    def passed(self) -> bool:
        return bool(self.max_tvd <= self.tolerance)

    @property
    def comm(self) -> dict:
        """The run's communication cost, as report.json writes it."""
        sim = self.sim
        return {
            "mean_bits": sim.mean_bits,
            "stderr": sim.bits_stderr,
            "worst_bits": sim.worst_bits,
            "no_message_fraction": sim.no_message_fraction,
            "total_rounds": sim.total_rounds,
        }

    def rows(self) -> list:
        """Each setting pair's entry of report.json's "settings"; settings.csv
        writes the same values."""
        return [
            {
                "x": [float(c) for c in s.x],
                "y": [float(c) for c in s.y],
                "rounds": s.rounds,
                "tvd": dist,
                "chi2": chi,
                "bits_mean": s.bits_sum / max(s.rounds, 1),
                "pass": bool(dist <= self.tolerance),
            }
            for s, dist, chi in zip(self.sim.settings, self.tvd, self.chi2)
        ]


def check_tolerance(tolerance: Optional[float]) -> None:
    """Raise ValidationError unless ``tolerance`` is None (the default
    threshold) or a finite number >= 0."""
    if tolerance is not None and not 0.0 <= tolerance < np.inf:
        raise ValidationError(f"tolerance must be a finite number >= 0, got {tolerance!r}")


def verification_report(
    sim: SimulationResult,
    tolerance: Optional[float] = None,
    meta: Optional[dict] = None,
    chsh: Optional[ChshEstimate] = None,
) -> VerificationReport:
    """Compare every setting of a run against the Born oracle.

    The oracle tables, the TVDs and the chi-squares of all the settings are
    each one array pass (``born_tables``, ``_tvd_rows``, ``_chi2_rows``), with
    the bytes of the one-setting functions."""
    check_tolerance(tolerance)
    tol = pass_threshold(sim.rounds_per_setting) if tolerance is None else tolerance
    settings = sim.settings
    probs = born_tables(sim.state, [s.x for s in settings], [s.y for s in settings])
    counts = np.array([s.counts for s in settings], dtype=np.int64).reshape(-1, 2, 2)
    dists = _tvd_rows(counts, probs).tolist()
    chis = _chi2_rows(counts, probs)[0].tolist()
    if sim.total_rounds == 0:
        raise ValidationError("communication statistics need at least one round")
    return VerificationReport(sim, dists, chis, tol, dict(meta or {}), chsh)


def _fmt_vec(v: np.ndarray) -> str:
    return ":".join(repr(float(c)) for c in v)


def report_rows_csv(report: VerificationReport) -> str:
    """Per-setting rows; one line per setting pair, deterministic bytes."""
    lines = ["p,protocol,x_xyz,y_xyz,M,tvd,chi2,bits_mean,pass"]
    run = [repr(float(report.sim.state.p)), report.sim.protocol.value]
    for r in report.rows():
        cols = [_fmt_vec(r["x"]), _fmt_vec(r["y"]), str(r["rounds"])]
        cols += [repr(float(r[k])) for k in ("tvd", "chi2", "bits_mean")]
        lines.append(",".join(run + cols + ["1" if r["pass"] else "0"]))
    return "\n".join(lines) + "\n"


def report_to_json(report: VerificationReport) -> str:
    """Deterministic JSON rendering (byte-identical across re-runs)."""
    doc = {
        "meta": report.meta,
        "tolerance": float(report.tolerance),
        "max_tvd": float(report.max_tvd),
        "pass": report.passed,
        "communication": report.comm,
        "settings": report.rows(),
    }
    if report.chsh is not None:
        doc["chsh"] = {
            "value": report.chsh.value,
            "stderr": report.chsh.stderr,
            "correlations": report.chsh.correlations,
            "oracle": report.chsh.oracle,
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
