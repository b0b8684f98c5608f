"""Tests for the certification layer: metrics, grids, suites, reports."""

import dataclasses

import numpy as np
import pytest

from lhvsim.bloch import (
    State,
    born_joint,
    born_tables,
    X_AXIS,
    Z_AXIS,
    chsh_value,
    default_setting_pairs,
    dot3,
    fibonacci_sphere,
    sign_pm,
    theta,
    tsirelson_settings,
)
from lhvsim import protocols, sampling, verify
from lhvsim.errors import DomainError, ValidationError
from lhvsim.protocols import CH_SHARED, CHUNK, PROTOCOLS, ProtocolId, _envelope, _uniform, simulate
from lhvsim.sampling import _frame, _hemisphere_points, make_generator, n_of_p
from lhvsim.verify import (
    Chi2Result,
    area_quadrature,
    chi2_stat,
    chsh_estimate,
    hemisphere_axis_marginal,
    hemisphere_law_check,
    density_property_suite,
    pass_threshold,
    report_rows_csv,
    report_to_json,
    tvd,
    verification_report,
)
from oracles import frame_hemisphere, lambda_chi2_check, rho_cos_bin_probs


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def table(counts):
    return np.asarray(counts, dtype=np.int64)


class TestTvd:
    def test_exact_match_is_zero(self):
        oracle = np.array([[0.4, 0.1], [0.1, 0.4]])
        t = table([[4000, 1000], [1000, 4000]])
        assert tvd(t, oracle) == 0.0

    def test_point_mass_vs_uniform(self):
        oracle = np.full((2, 2), 0.25)
        t = table([[100, 0], [0, 0]])
        assert tvd(t, oracle) == pytest.approx(0.75)

    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError):
            tvd(table([[0, 0], [0, 0]]), np.full((2, 2), 0.25))

    def test_simulated_run_is_close(self):
        res = simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], 10**6, seed=40)
        assert tvd(res.settings[0].counts, born_joint(State(0.7), X_AXIS, Z_AXIS)) <= 0.005


class TestChi2:
    def test_empty_table_rejected(self):
        with pytest.raises(ValidationError, match="at least one round"):
            chi2_stat(table([[0, 0], [0, 0]]), np.full((2, 2), 0.25))

    def test_perfect_match_has_high_pvalue(self):
        oracle = np.full((2, 2), 0.25)
        r = chi2_stat(table([[250, 250], [250, 250]]), oracle)
        assert r.statistic == 0.0 and r.pvalue == 1.0

    def test_zero_cells_handled(self):
        oracle = np.array([[1.0, 0.0], [0.0, 0.0]])
        ok = chi2_stat(table([[10, 0], [0, 0]]), oracle)
        assert ok.statistic == 0.0 and ok.dof == 0
        bad = chi2_stat(table([[9, 1], [0, 0]]), oracle)
        assert bad.statistic == float("inf") and bad.pvalue == 0.0

    def test_pvalue_is_computed_on_first_read(self, monkeypatch):
        from scipy import stats

        calls = []
        tail = verify._chi2_tail
        monkeypatch.setattr(verify, "_chi2_tail", lambda *a: calls.append(a) or tail(*a))
        res = simulate(ProtocolId.TRIT, State(0.7), default_setting_pairs(3), 1000, seed=42)
        verification_report(res)
        assert calls == []  # the report reads statistics only
        r = chi2_stat(table([[240, 260], [255, 245]]), np.full((2, 2), 0.25))
        first = r.pvalue
        assert r.pvalue == first and len(calls) == 1  # cached after the first read
        assert first == pytest.approx(float(stats.chi2.sf(r.statistic, 3)), rel=1e-12, abs=0.0)

    def test_pvalue_is_scipys_tail(self):
        # past x = 1490 exp(-x/2) underflows, so a product with it would read 0
        from scipy import stats

        xs = np.concatenate([[1e-9, 0.01, 0.5], np.geomspace(1.0, 2000.0, 60)])
        for dof in range(1, 61):
            for x in xs:
                want = float(stats.chi2.sf(x, dof))
                if want >= 1e-300:
                    got = Chi2Result(float(x), dof).pvalue
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (dof, x)
        assert Chi2Result(0.0, 5).pvalue == 1.0
        assert np.isnan(Chi2Result(3.0, 0).pvalue)
        assert Chi2Result(float("inf"), 0).pvalue == 0.0


class TestCommStats:
    # the report's communication block, as report.json writes it
    def test_one_bit_is_constant(self):
        res = simulate(ProtocolId.ONE_BIT, State(0.95), [(X_AXIS, Z_AXIS)], 20000, seed=41)
        c = verification_report(res).comm
        assert c["mean_bits"] == 1.0 and c["worst_bits"] == 1.0 and c["stderr"] == 0.0
        assert c["no_message_fraction"] == 0.0 and c["total_rounds"] == 20000

    def test_improved_one_bit_average(self):
        res = simulate(ProtocolId.IMPROVED_ONE_BIT, State(0.9), [(X_AXIS, Z_AXIS)], 10**5, seed=42)
        c = verification_report(res).comm
        assert abs(c["mean_bits"] - n_of_p(0.9)) < 0.01
        assert c["worst_bits"] == 1.0

    def test_local_content_silent_fraction(self):
        res = simulate(ProtocolId.LOCAL_CONTENT, State(0.7), [(X_AXIS, Z_AXIS)], 10**5, seed=43)
        c = verification_report(res).comm
        assert abs(c["no_message_fraction"] - 0.4) < 0.01


class TestGrids:
    def test_fibonacci_sphere_is_unit_and_deterministic(self):
        a = fibonacci_sphere(20)
        b = fibonacci_sphere(20)
        assert np.array_equal(a, b)
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-12)

    def test_default_pairs(self):
        pairs = default_setting_pairs(20)
        assert len(pairs) == 20
        # x and y grids never coincide and pairs are all distinct
        for x, y in pairs:
            assert np.linalg.norm(x - y) > 1e-6
        keys = {tuple(np.round(np.concatenate([x, y]), 12)) for x, y in pairs}
        assert len(keys) == 20

    def test_threshold_rule(self):
        assert pass_threshold(10**6) == 0.005
        assert pass_threshold(10**4) == pytest.approx(0.05)


class TestMarginalOracles:
    def test_azimuthal_closed_form_vs_bruteforce(self):
        rng = np.random.default_rng(44)
        phi = np.linspace(0.0, 2.0 * np.pi, 20001)
        for _ in range(10):
            v = random_unit(rng)
            c = rng.uniform(-1.0, 1.0)
            s = np.sqrt(1.0 - c * c)
            lam_dot_v = c * v[2] + s * (np.cos(phi) * v[0] + np.sin(phi) * v[1])
            brute = np.trapezoid(theta(lam_dot_v) / np.pi, phi)
            assert hemisphere_axis_marginal(v, c) == pytest.approx(brute, abs=1e-6)

    def test_bin_probs_sum_to_one(self):
        rng = np.random.default_rng(45)
        edges = np.linspace(-1.0, 1.0, 21)
        for p in (0.5, 0.8, 1.0):
            probs = rho_cos_bin_probs(State(p), random_unit(rng), edges)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs >= -1e-15)

    @pytest.mark.parametrize(
        "pid,p",
        [
            (ProtocolId.ONE_BIT, 0.95),
            (ProtocolId.TRIT, 0.7),
            (ProtocolId.DEGORRE, 0.5),
            (ProtocolId.TELEPORTATION, 0.8),
            (ProtocolId.IMPROVED_ONE_BIT, 0.9),
            (ProtocolId.LOCAL_CONTENT, 0.7),
        ],
    )
    def test_lambda_distribution_matches_rho(self, pid, p):
        # the chosen vector, aggregated over a fixed x, must follow rho_x
        rng = np.random.default_rng(46)
        x, y = random_unit(rng), random_unit(rng)
        res = simulate(pid, State(p), [(x, y)], 3 * 10**5, seed=47, keep_lambdas=True)
        check = lambda_chi2_check(State(p), x, res.settings[0].lam_seq)
        assert check.pvalue > 0.001


class TestHemisphereLaw:
    def test_aligned_is_exact(self):
        rng = np.random.default_rng(48)
        v = random_unit(rng)
        r = hemisphere_law_check(v, v, 10**5, seed=49)
        assert r.p_hat == 1.0 and r.passed

    def test_opposed_is_zero(self):
        rng = np.random.default_rng(50)
        v = random_unit(rng)
        r = hemisphere_law_check(v, -v, 10**5, seed=51)
        assert r.expected == pytest.approx(0.0, abs=1e-12)
        assert r.p_hat <= r.tolerance and r.passed

    def test_pieces_read_one_draw(self):
        # p_hat of a check drawn in CHUNK-row pieces is that of one whole draw
        rng = np.random.default_rng(56)
        v, y = random_unit(rng), random_unit(rng)
        n = 2 * CHUNK + 5
        u = make_generator(57, CH_SHARED).random((n, 2))
        lam = _hemisphere_points(u[:, 0], u[:, 1])
        e1, e2 = _frame(v)
        want = float(np.mean(sign_pm(dot3(lam, np.array([y @ e2, -(y @ e1), y @ v]))) == 1))
        assert hemisphere_law_check(v, y, n, seed=57).p_hat == want

    def test_equals_the_law_drawn_about_v(self):
        # the z-axis rows read in v's frame count the +1 outcomes of the
        # vectors that the frame formula draws about v from the same uniforms
        rng = np.random.default_rng(60)
        for i in range(20):
            v, y = random_unit(rng), random_unit(rng)
            lam = frame_hemisphere(make_generator(200 + i, CH_SHARED), v, 10**5)
            want = float(np.mean(sign_pm(dot3(lam, y)) == 1))
            assert hemisphere_law_check(v, y, 10**5, seed=200 + i).p_hat == want

    def test_memory_is_bounded(self):
        import tracemalloc

        rng = np.random.default_rng(58)
        v, y = random_unit(rng), random_unit(rng)
        tracemalloc.start()
        try:
            hemisphere_law_check(v, y, 10**6, seed=59)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one 10^6-round draw held about 84 MiB; one CHUNK piece about 6 MiB
        assert peak < 16 * 2**20

    def test_random_pairs(self):
        rng = np.random.default_rng(52)
        for i in range(10):
            v, y = random_unit(rng), random_unit(rng)
            assert hemisphere_law_check(v, y, 10**5, seed=100 + i).passed


BAD_ARGUMENTS = {
    "rounds": lambda bad: hemisphere_law_check(Z_AXIS, X_AXIS, bad, 0),
    "seed": lambda bad: hemisphere_law_check(Z_AXIS, X_AXIS, 10, bad),
    "trials": lambda bad: density_property_suite([0.7], trials=bad, area_points=[]),
    "area_samples": lambda bad: density_property_suite([0.7], trials=10, area_samples=bad),
    "suite seed": lambda bad: density_property_suite([0.7], trials=10, seed=bad, area_points=[]),
}


@pytest.mark.parametrize(
    "name, bad, match",
    [(name, bad, "integer") for name in ("rounds", "trials", "area_samples") for bad in (2.5, True)]
    + [(name, bad, "seed must be an integer") for name in ("seed", "suite seed")
       for bad in (2.5, True, -1, 2**64)]
    + [("rounds", 0, "at least one round"), ("trials", 0, "at least one trial"),
       ("area_samples", -1, "at least one trial and one area sample")],
)
def test_bad_counts_and_seeds_are_validation_errors(name, bad, match):
    with pytest.raises(ValidationError, match=match):
        BAD_ARGUMENTS[name](bad)


class TestDensityProperties:
    def test_suite_passes(self):
        rep = density_property_suite([0.5, 0.7, 0.933, 1.0], trials=2 * 10**4, seed=53, area_samples=10**6)
        assert rep.passed, rep.failures()
        for m in rep.margins:
            assert m.worst <= 1e-12

    def test_area_quadrature_precision(self):
        rng = np.random.default_rng(54)
        cases = [(p, random_unit(rng)) for p in (0.5, 0.7, 0.9, 0.99, 1.0)]
        # the marginal's slope is infinite at c = +-1 for x on the equator at
        # p = 1/2; x = +-z puts the kinks of v_+- on the poles
        cases += [(0.5, X_AXIS), (0.9, Z_AXIS), (0.9, -Z_AXIS), (1.0, X_AXIS)]
        for p, x in cases:
            assert area_quadrature(State(p), x) == pytest.approx(2 * (1 - p), abs=1e-6)

    def test_area_quadrature_is_exact_to_1e_9(self):
        rng = np.random.default_rng(56)
        xs = [X_AXIS, np.array([0.0, 1.0, 0.0]), Z_AXIS, -Z_AXIS]
        xs += [random_unit(rng) for _ in range(36)]
        for p in (0.5, 0.6, 0.7, 0.835, 0.9, 0.933, 0.99, 0.999, 1.0):
            for x in xs:
                assert abs(area_quadrature(State(p), x) - 2 * (1 - p)) <= 1e-9, (p, x)

    def test_area_quadrature_builds_its_rule_once(self, monkeypatch):
        from numpy.polynomial import legendre

        calls = []
        real = legendre.leggauss
        monkeypatch.setattr(legendre, "leggauss", lambda deg: calls.append(deg) or real(deg))
        verify._gauss_legendre.cache_clear()
        try:
            for p in (0.5, 0.7, 0.9, 1.0):
                for x in (X_AXIS, Z_AXIS, np.array([0.6, 0.0, 0.8])):
                    assert area_quadrature(State(p), x) == pytest.approx(2 * (1 - p), abs=1e-9)
        finally:
            verify._gauss_legendre.cache_clear()  # drop the counted rule
        assert calls == [64]

    @staticmethod
    def _whole_draw_suite(p_list, trials, seed, area_samples, area_points):
        """The suite's worst margins, witnesses, peak densities and (Monte Carlo,
        its error, quadrature) areas, with each draw taken whole from one
        generator."""
        from lhvsim.sampling import (
            eval_rho_tilde, rho_tilde_bound, rho_tilde_max_cos, sample_uniform_sphere,
        )
        from lhvsim.bloch import collapse

        worst, witness, peak, areas = {}, {}, {}, []
        rng = make_generator(seed, 0)
        for p in p_list:
            state = State(p)
            xs = sample_uniform_sphere(rng, max(trials // 100, 1))
            lams = sample_uniform_sphere(rng, trials)
            block = trials // xs.shape[0]
            peak[p] = 0.0
            for j, x in enumerate(xs):
                lam = lams[j * block : (j + 1) * block]
                coll = collapse(state, x)
                rt = eval_rho_tilde(state, x, lam, clamp=False)
                peak[p] = max(peak[p], float(rt.max()))
                bound = np.minimum(
                    coll.p_plus * np.abs(dot3(lam, coll.v_plus)),
                    coll.p_minus * np.abs(dot3(lam, coll.v_minus)),
                )
                checks = {
                    "nonnegative": -rt,
                    "symmetric": np.abs(rt - eval_rho_tilde(state, x, -lam, clamp=False)),
                    "per_sign_bound": rt - bound / np.pi,
                    "envelope_bound": rt - rho_tilde_max_cos(state, lam[:, 2]),
                    "constant_bound": rt - rho_tilde_bound(state),
                }
                for name, vals in checks.items():
                    k = int(np.argmax(vals))
                    if float(vals[k]) > worst.get(name, -np.inf):
                        worst[name] = float(vals[k])
                        witness[name] = (p, tuple(x), tuple(lam[k]))
            if p in area_points:
                mc_lam = sample_uniform_sphere(rng, area_samples)
                mc_x = sample_uniform_sphere(rng, 1)[0]
                vals = 4.0 * np.pi * eval_rho_tilde(state, mc_x, mc_lam)
                stderr = float(vals.std() / np.sqrt(area_samples))
                areas.append((float(vals.mean()), stderr, area_quadrature(state, mc_x)))
        return worst, witness, peak, areas

    @pytest.mark.parametrize("trials", [1, 57, 12345])
    def test_suite_equals_its_whole_draw_form(self, trials):
        # the suite reads its settings, lam and area samples on from their
        # places in the stream, so it sees the values of whole draws
        p_list, area_points = [0.6, 0.9, 1.0], [0.6, 1.0]
        rep = density_property_suite(
            p_list, trials=trials, seed=57, area_samples=3000, area_points=area_points
        )
        worst, witness, peak, areas = self._whole_draw_suite(p_list, trials, 57, 3000, area_points)
        assert {m.name: (m.worst, m.witness) for m in rep.margins} == {
            name: (worst[name], witness[name]) for name in worst
        }
        assert rep.max_density == peak
        assert [(a.p, a.monte_carlo, a.mc_stderr, a.quadrature) for a in rep.areas] == [
            (p, *area) for p, area in zip(area_points, areas)
        ]

    def test_suite_collapses_each_setting_once(self, monkeypatch):
        # one collapse serves rhot_x at lam and at -lam; the margins, witnesses
        # and peaks are those of evaluating each with its own collapse
        p_list, trials = [0.6, 0.9], 5000
        worst, witness, peak, _ = self._whole_draw_suite(p_list, trials, 59, 1, [])
        calls = []
        for module in (verify, sampling):  # eval_rho_tilde collapses in sampling
            real = module.collapse
            monkeypatch.setattr(
                module, "collapse", lambda state, x, real=real: calls.append(x) or real(state, x)
            )
        rep = density_property_suite(p_list, trials=trials, seed=59, area_points=[])
        assert len(calls) == len(p_list) * trials // 100
        assert {m.name: (m.worst, m.witness) for m in rep.margins} == {
            name: (worst[name], witness[name]) for name in worst
        }
        assert rep.max_density == peak

    def test_suite_memory_does_not_grow_with_trials(self):
        # drawing 10^6 lam at once held about 46 MiB
        import tracemalloc

        density_property_suite([0.7], trials=100, seed=58, area_points=[])
        tracemalloc.start()
        try:
            density_property_suite([0.7], trials=10**6, seed=58, area_points=[])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_product_state_has_zero_density(self):
        rep = density_property_suite([1.0], trials=5000, seed=55, area_samples=10**4)
        assert rep.max_density[1.0] == 0.0

    def test_feasibility_edge_at_one_bit_threshold(self):
        # at p = 1/2 + sqrt(3)/4 the global maximum of rhot is exactly 1/(4pi)
        from lhvsim.sampling import one_bit_threshold, rho_tilde_bound, eval_rho_tilde

        thr = one_bit_threshold()
        assert rho_tilde_bound(thr) == pytest.approx(1.0 / (4.0 * np.pi), abs=1e-12)
        # a coarse search should get close to the bound and never exceed it
        state = State(thr)
        best = 0.0
        for alpha in np.linspace(0.0, np.pi, 181):
            x = np.array([np.sin(alpha), 0.0, np.cos(alpha)])
            for beta in np.linspace(0.0, np.pi, 181):
                lam = np.array([np.sin(beta), 0.0, np.cos(beta)])
                best = max(best, float(eval_rho_tilde(state, x, lam)))
        assert best <= 1.0 / (4.0 * np.pi) + 1e-12
        assert best > 0.999 / (4.0 * np.pi)


class TestChshEstimate:
    def test_degorre_reaches_tsirelson(self):
        est = chsh_estimate(ProtocolId.DEGORRE, State(0.5), tsirelson_settings(), 2 * 10**5, seed=56)
        assert est.oracle == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)
        assert abs(est.value - est.oracle) < 0.02

    def test_product_state_is_local(self):
        est = chsh_estimate(ProtocolId.TRIT, State(1.0), tsirelson_settings(), 10**5, seed=57)
        assert abs(est.value) <= 2.0 + 3.0 * est.stderr

    def test_partially_entangled_grid_search(self):
        # coarse x-z plane grid search for good settings, then compare to oracle
        state = State(0.7)
        best, best_s = None, -np.inf
        angles = np.linspace(0.0, np.pi, 13)

        def vec(a):
            return np.array([np.sin(a), 0.0, np.cos(a)])

        for a1 in angles:
            for a2 in angles:
                for b1 in angles:
                    for b2 in angles:
                        s = chsh_value(state, vec(a1), vec(a2), vec(b1), vec(b2))
                        if s > best_s:
                            best_s, best = s, (a1, a2, b1, b2)
        settings = tuple(vec(a) for a in best)
        est = chsh_estimate(ProtocolId.TRIT, state, settings, 4 * 10**5, seed=58)
        assert best_s > 2.0  # the searched settings witness nonlocality
        assert abs(est.value - est.oracle) < 0.01


class TestReports:
    def test_report_passes_and_serializes_deterministically(self):
        pairs = default_setting_pairs(4)
        res1 = simulate(ProtocolId.TRIT, State(0.7), pairs, 10**5, seed=59)
        res2 = simulate(ProtocolId.TRIT, State(0.7), pairs, 10**5, seed=59)
        rep1 = verification_report(res1, meta={"seed": 59})
        rep2 = verification_report(res2, meta={"seed": 59})
        assert rep1.passed
        assert report_to_json(rep1) == report_to_json(rep2)
        assert report_rows_csv(rep1) == report_rows_csv(rep2)

    def test_csv_columns(self):
        res = simulate(ProtocolId.DEGORRE, State(0.5), [(X_AXIS, Z_AXIS)], 1000, seed=60)
        csv = report_rows_csv(verification_report(res))
        header, row = csv.strip().split("\n")
        assert header == "p,protocol,x_xyz,y_xyz,M,tvd,chi2,bits_mean,pass"
        fields = row.split(",")
        assert fields[1] == "degorre"
        assert fields[4] == "1000"

    def test_zero_rounds_rejected(self):
        res = simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], 0, seed=62)
        with pytest.raises(ValidationError, match="empirical table has no rounds"):
            verification_report(res)
        res = simulate(ProtocolId.TRIT, State(0.7), [], 10, seed=62)
        with pytest.raises(ValidationError, match="communication statistics"):
            verification_report(res)

    def test_rows_equal_the_one_table_functions(self):
        # the report takes the oracle, TVD and chi-square of every pair in one
        # array pass; each row has the bytes of the one-table functions and of
        # the per-pair formulas that the pass replaced
        def per_pair_tvd(counts, probs):
            return 0.5 * float(np.abs(counts / counts.sum() - probs).sum())

        def per_pair_chi2(counts, probs):
            exp = counts.sum() * probs.ravel()
            obs, live = counts.ravel().astype(float), exp > 0.0
            if np.any(obs[~live] > 0):
                return float("inf")
            return float(np.sum((obs[live] - exp[live]) ** 2 / exp[live]))

        # at p = 1, x = +-z fixes a, so two cells of the table are dead
        poles = [(Z_AXIS, X_AXIS), (-Z_AXIS, Z_AXIS), (X_AXIS, -Z_AXIS)]
        pairs = default_setting_pairs(20) + poles
        sims = [
            simulate(ProtocolId.TRIT, State(p), pairs, 300, seed=63)
            for p in (0.5, 0.7, 0.835, 0.9, 0.933, 0.95, 1.0)
        ]
        one = sims[-1].settings[20]  # x = z at p = 1: a = -1 never happens
        hit = dataclasses.replace(one, counts=one.counts + np.array([[0, 0], [1, 0]]))
        sims.append(dataclasses.replace(sims[-1], settings=[one, hit]))
        dofs = set()
        for sim in sims:
            rep = verification_report(sim)
            rows = rep.rows()
            assert len(rows) == len(sim.settings)
            # a table's bytes do not depend on its batch (test_bloch)
            xs, ys = [s.x for s in sim.settings], [s.y for s in sim.settings]
            tables = born_tables(sim.state, xs, ys)
            for row, s, oracle in zip(rows, sim.settings, tables):
                chi = chi2_stat(s.counts, oracle)
                dofs.add(chi.dof)
                assert row["tvd"].hex() == tvd(s.counts, oracle).hex()
                assert row["tvd"].hex() == per_pair_tvd(s.counts, oracle).hex()
                assert row["chi2"].hex() == chi.statistic.hex()
                assert row["chi2"].hex() == per_pair_chi2(s.counts, oracle).hex()
        assert dofs == {0, 1, 3}  # dead cells at p = 1
        assert [row["chi2"] for row in rep.rows()][1] == float("inf")

    def test_a_table_of_no_rounds_is_rejected_among_others(self):
        res = simulate(ProtocolId.TRIT, State(0.7), default_setting_pairs(3), 100, seed=62)
        empty = dataclasses.replace(res.settings[1], counts=np.zeros((2, 2), dtype=np.int64))
        res.settings[1] = empty
        with pytest.raises(ValidationError, match="empirical table has no rounds"):
            verification_report(res)
        counts = np.array([s.counts for s in res.settings])
        probs = np.full((3, 2, 2), 0.25)
        with pytest.raises(ValidationError, match="chi-square needs at least one round"):
            verify._chi2_rows(counts, probs)

    def test_failed_row_fails_report(self):
        res = simulate(ProtocolId.TRIT, State(0.7), [(X_AXIS, Z_AXIS)], 10**5, seed=61)
        rep = verification_report(res, tolerance=1e-9)
        assert not rep.passed


class TestGatePower:
    """A known-wrong protocol fails the certification gate."""

    def test_improved_one_bit_without_its_envelope_fails(self, monkeypatch):
        # lam1 drawn uniformly in place of the envelope law: a max TVD of
        # about 0.023 against the gate's 0.0112 at 2e5 rounds per pair, where
        # the true protocol reads about 0.003 on the same streams
        pid, state, pairs = ProtocolId.IMPROVED_ONE_BIT, State(0.9), default_setting_pairs(20)

        def report():
            return verification_report(simulate(pid, state, pairs, 2 * 10**5, seed=11, workers=2))

        true = report()
        info = PROTOCOLS[pid]
        shared = tuple((name, _uniform if law is _envelope else law) for name, law in info.shared)
        monkeypatch.setitem(PROTOCOLS, pid, dataclasses.replace(info, shared=shared))
        mutant = report()
        assert true.passed and not mutant.passed

    def test_one_bit_clamped_below_its_threshold_fails(self, monkeypatch):
        # one-bit run at p = 0.7, below its domain, with its acceptance
        # probability clamped to 1 where it exceeds 1: a max TVD of about
        # 0.044 against the gate's 0.0224 at 5e4 rounds per pair
        pid, state, pairs = ProtocolId.ONE_BIT, State(0.7), default_setting_pairs(20)
        with pytest.raises(DomainError):
            simulate(pid, state, pairs, 5 * 10**4, seed=11)
        info = PROTOCOLS[pid]
        monkeypatch.setitem(PROTOCOLS, pid, dataclasses.replace(info, applies=lambda p: True))
        monkeypatch.setattr(protocols, "RATIO_GUARD", np.inf)
        mutant = verification_report(simulate(pid, state, pairs, 5 * 10**4, seed=11, workers=2))
        assert not mutant.passed
