"""Statistical certification of protocol runs against the Born oracle.

Provides the comparison metrics (total variation distance, chi-square), a
CHSH estimator, deterministic setting grids, and the analytic property
suites for the hemisphere law and for the sub-normalized density rhot_x.

Tolerances are derived from the round count, never hard-coded: the default
pass threshold for a table of M rounds is ``max(0.005, 5/sqrt(M))``.

scipy is imported inside the functions that call it (``area_quadrature``
and ``Chi2Result.pvalue``), so a report never loads it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .bloch import (
    JointDistribution,
    State,
    Z_AXIS,
    born_joint,
    check_unit,
    chsh_value,
    collapse,
    dot3,
    sign_pm,
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
    eval_rho_tilde,
    eval_rho_tilde_max,
    make_generator,
    rho_tilde_bound,
    sample_theta_hemisphere,
    sample_uniform_sphere,
)


def pass_threshold(rounds: int) -> float:
    """Default TVD pass threshold for a table of given size."""
    return max(0.005, 5.0 / np.sqrt(max(rounds, 1)))


# ---------------------------------------------------------------------------
# metrics of a (2, 2) count table n(a, b), index 0 -> outcome +1


def tvd(counts: np.ndarray, oracle: JointDistribution) -> float:
    """Total variation distance (1/2) sum |n(a,b)/M - p(a,b)|, M = counts.sum()."""
    m = counts.sum()
    if m == 0:
        raise ValidationError("empirical table has no rounds")
    return 0.5 * float(np.abs(counts / m - oracle.probs).sum())


@dataclass
class Chi2Result:
    statistic: float
    dof: int

    @cached_property
    def pvalue(self) -> float:
        """The chi2(dof) upper tail at ``statistic``, computed on first read."""
        if self.statistic == float("inf"):
            return 0.0  # a cell the oracle rules out was hit
        from scipy import stats

        return float(stats.chi2.sf(self.statistic, self.dof))


def chi2_stat(counts: np.ndarray, oracle: JointDistribution) -> Chi2Result:
    """Pearson chi-square of the counts against the oracle probabilities.

    Cells with zero oracle probability contribute infinity if they were ever
    observed and are dropped from the degrees of freedom otherwise.
    """
    m = counts.sum()
    if m == 0:
        raise ValidationError("chi-square needs at least one round")
    exp = m * oracle.probs.ravel()
    return _pearson(counts.ravel().astype(float), exp, exp > 0.0)


def _pearson(obs: np.ndarray, exp: np.ndarray, live: np.ndarray) -> Chi2Result:
    """Pearson chi-square over the ``live`` cells; infinite if a dead cell was hit."""
    dof = int(live.sum()) - 1
    if np.any(obs[~live] > 0):
        return Chi2Result(float("inf"), dof)
    return Chi2Result(float(np.sum((obs[live] - exp[live]) ** 2 / exp[live])), dof)


# ---------------------------------------------------------------------------
# deterministic setting grids


def fibonacci_sphere(n: int) -> np.ndarray:
    """n deterministic, roughly equidistributed unit vectors."""
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _grid_rotation() -> np.ndarray:
    # fixed rotation applied to the y grid so x and y settings never coincide
    a, b = 0.7, 0.4
    ry = np.array(
        [[np.cos(a), 0.0, np.sin(a)], [0.0, 1.0, 0.0], [-np.sin(a), 0.0, np.cos(a)]]
    )
    rz = np.array(
        [[np.cos(b), -np.sin(b), 0.0], [np.sin(b), np.cos(b), 0.0], [0.0, 0.0, 1.0]]
    )
    return ry @ rz


def default_setting_pairs(n: int = 20):
    """The standard verification grid: n pairs subsampled from an n x n grid.

    Alice's settings are a Fibonacci sphere; Bob's are the same sphere under
    a fixed rotation; pair k combines x_k with y_((7k+3) mod n).
    """
    xs = fibonacci_sphere(n)
    ys = fibonacci_sphere(n) @ _grid_rotation().T
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    return [(xs[k], ys[(7 * k + 3) % n]) for k in range(n)]


def chsh_setting_pairs(settings=None):
    """The four CHSH correlation pairs [(x1,y1), (x1,y2), (x2,y1), (x2,y2)]."""
    if settings is None:
        from .bloch import tsirelson_settings

        settings = tsirelson_settings()
    x1, x2, y1, y2 = (check_unit(v) for v in settings)
    return [(x1, y1), (x1, y2), (x2, y1), (x2, y2)]


# ---------------------------------------------------------------------------
# quadrature oracles for the cos(theta) marginals


def hemisphere_axis_marginal(v: np.ndarray, c: float) -> float:
    """Azimuthal integral of Theta(lam.v)/pi over the circle lam.z = c.

    With A = c*v_z and B = sqrt(1-c^2)*sqrt(1-v_z^2) the integrand is
    max(0, A + B cos phi)/pi, which integrates to 2A if A >= B, 0 if
    A <= -B, and (2A*phi0 + 2B*sin(phi0))/pi with phi0 = arccos(-A/B)
    in between.  Integrating the result over c in [-1, 1] gives 1.
    """
    vz = float(np.clip(v[2], -1.0, 1.0))
    a = c * vz
    b = float(np.sqrt(max(1.0 - c * c, 0.0)) * np.sqrt(max(1.0 - vz * vz, 0.0)))
    if a >= b:
        return 2.0 * a
    if a <= -b:
        return 0.0
    phi0 = float(np.arccos(-a / b))
    return (2.0 * a * phi0 + 2.0 * b * np.sin(phi0)) / np.pi


def _cos_marginal(coll, const: float):
    """lam.z density of rho_x - const * Theta(lam.z)/pi, azimuth integrated out.

    ``const`` = 0 gives rho_x, ``const`` = 2p-1 gives rhot_x.
    """

    def g(c: float) -> float:
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


def hemisphere_law_check(v: np.ndarray, y: np.ndarray, rounds: int, seed: int) -> HemisphereLawResult:
    """Empirical check that the hemisphere law encodes the qubit state v.

    Draws lam ~ Theta(lam.v)/pi, outputs b = sgn(y.lam), and compares
    p_hat(b=+1) with (1 + y.v)/2 at a 4-sigma tolerance.  The rounds are
    drawn from one generator in pieces of ``CHUNK``, which read the uniforms
    of one whole draw, and only the +1 outcomes are counted, so memory is
    O(CHUNK) and p_hat is the mean over the whole draw.
    """
    if rounds < 1:
        raise ValidationError(f"the hemisphere-law check needs at least one round, got {rounds}")
    v = check_unit(v, "v")
    y = check_unit(y, "y")
    rng = make_generator(seed, CH_SHARED)
    plus = 0
    for lo in range(0, rounds, CHUNK):
        lam = sample_theta_hemisphere(rng, v, min(CHUNK, rounds - lo))
        plus += int(np.count_nonzero(sign_pm(dot3(lam, y)) == 1))
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


def area_quadrature(state: State, x: np.ndarray) -> float:
    """Integral of rhot_x over the sphere by quadrature of its lam.z marginal.

    The marginal has derivative kinks at c = +-sin(angle(v)) for each of
    v_+, v_-, z; those breakpoints are handed to the integrator.
    """
    from scipy import integrate

    coll = collapse(state, x)
    g = _cos_marginal(coll, state.c)
    kinks = set()
    for v in (coll.v_plus, coll.v_minus, Z_AXIS):
        s = float(np.sqrt(max(1.0 - min(v[2] * v[2], 1.0), 0.0)))
        kinks.update((-s, s))
    points = sorted(k for k in kinks if -1.0 < k < 1.0)
    val, _ = integrate.quad(g, -1.0, 1.0, points=points or None, limit=400, epsabs=1e-9)
    return val


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
    rng = make_generator(seed, 0)
    for p in p_list:
        state = State(float(p))
        xs = sample_uniform_sphere(rng, max(trials // 100, 1))
        lams = sample_uniform_sphere(rng, trials)
        block = trials // xs.shape[0]
        max_rt = 0.0
        for j, x in enumerate(xs):
            lam = lams[j * block : (j + 1) * block]
            if lam.shape[0] == 0:
                continue
            coll = collapse(state, x)
            rt = eval_rho_tilde(state, x, lam, clamp=False)
            rt_neg = eval_rho_tilde(state, x, -lam, clamp=False)
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
                "envelope_bound": rt - eval_rho_tilde_max(state, lam),
                "constant_bound": rt - rho_tilde_bound(state),
            }
            for key, vals in checks.items():
                k = int(np.argmax(vals))
                if float(vals[k]) > worst[key]:
                    worst[key] = float(vals[k])
                    witness[key] = (float(p), tuple(x), tuple(lam[k]))
        max_density[float(p)] = max_rt

        if area_points is not None and p not in area_points:
            continue
        expected = 2.0 * (1.0 - p)
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
class SettingRow:
    p: float
    protocol: str
    x: np.ndarray
    y: np.ndarray
    rounds: int
    tvd: float
    chi2: float
    bits_mean: float
    passed: bool


@dataclass
class VerificationReport:
    meta: dict
    rows: list
    max_tvd: float
    comm: dict  # the run's communication cost, as report.json writes it
    tolerance: float
    chsh: Optional[ChshEstimate] = None

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


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
    """Compare every setting of a run against the Born oracle."""
    check_tolerance(tolerance)
    tol = pass_threshold(sim.rounds_per_setting) if tolerance is None else tolerance
    rows = []
    for s in sim.settings:
        oracle = born_joint(sim.state, s.x, s.y)
        dist = tvd(s.counts, oracle)
        chi = chi2_stat(s.counts, oracle)
        rows.append(
            SettingRow(
                p=sim.state.p,
                protocol=sim.protocol.value,
                x=s.x,
                y=s.y,
                rounds=s.rounds,
                tvd=dist,
                chi2=chi.statistic,
                bits_mean=s.bits_sum / max(s.rounds, 1),
                passed=bool(dist <= tol),
            )
        )
    if sim.total_rounds == 0:
        raise ValidationError("communication statistics need at least one round")
    return VerificationReport(
        meta=dict(meta or {}),
        rows=rows,
        max_tvd=max((r.tvd for r in rows), default=0.0),
        comm={
            "mean_bits": sim.mean_bits,
            "stderr": sim.bits_stderr,
            "worst_bits": sim.worst_bits,
            "no_message_fraction": sim.no_message_fraction,
            "total_rounds": sim.total_rounds,
        },
        tolerance=tol,
        chsh=chsh,
    )


def _fmt_vec(v: np.ndarray) -> str:
    return ":".join(repr(float(c)) for c in v)


def report_rows_csv(report: VerificationReport) -> str:
    """Per-setting rows; one line per setting pair, deterministic bytes."""
    lines = ["p,protocol,x_xyz,y_xyz,M,tvd,chi2,bits_mean,pass"]
    for r in report.rows:
        lines.append(
            ",".join(
                [
                    repr(float(r.p)),
                    r.protocol,
                    _fmt_vec(r.x),
                    _fmt_vec(r.y),
                    str(r.rounds),
                    repr(float(r.tvd)),
                    repr(float(r.chi2)),
                    repr(float(r.bits_mean)),
                    "1" if r.passed else "0",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def report_to_json(report: VerificationReport) -> str:
    """Deterministic JSON rendering (byte-identical across re-runs)."""
    doc = {
        "meta": report.meta,
        "tolerance": float(report.tolerance),
        "max_tvd": float(report.max_tvd),
        "pass": bool(report.passed),
        "communication": report.comm,
        "settings": [
            {
                "x": [float(c) for c in r.x],
                "y": [float(c) for c in r.y],
                "rounds": r.rounds,
                "tvd": r.tvd,
                "chi2": r.chi2,
                "bits_mean": r.bits_mean,
                "pass": r.passed,
            }
            for r in report.rows
        ],
    }
    if report.chsh is not None:
        doc["chsh"] = {
            "value": report.chsh.value,
            "stderr": report.chsh.stderr,
            "correlations": report.chsh.correlations,
            "oracle": report.chsh.oracle,
        }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
