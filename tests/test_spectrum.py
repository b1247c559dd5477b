import math

import numpy as np
import pytest
from scipy.special import erf

from rfensemble import (
    ChannelSpec,
    ConfigError,
    ModelConfig,
    NumericalError,
    SolveOptions,
    SpectralModel,
    activation_coeffs,
    gauss_hermite_rule,
    mp_spectral_model,
    solve_fixed_point,
    spectral_integral,
)
from rfensemble import spectrum

from oracles import empirical_spectrum

RULE = gauss_hermite_rule(201)
ERF_COEFFS = activation_coeffs(erf, RULE)

# closed-form moments of the erf activation under a standard normal
KAPPA1_EXACT = 2.0 / math.sqrt(3.0 * math.pi)
SECOND_MOMENT_EXACT = (2.0 / math.pi) * math.asin(2.0 / 3.0)
KSTAR_SQ_EXACT = SECOND_MOMENT_EXACT - KAPPA1_EXACT**2


class TestActivationCoeffs:
    def test_identity_activation(self):
        c = activation_coeffs(lambda x: x, RULE)
        assert c.kappa0 == pytest.approx(0.0, abs=1e-14)
        assert c.kappa1 == pytest.approx(1.0, abs=1e-12)
        assert c.kappa_star == pytest.approx(0.0, abs=1e-7)

    def test_erf_is_odd(self):
        assert abs(ERF_COEFFS.kappa0) < 1e-12

    def test_erf_coefficients_match_closed_forms(self):
        assert ERF_COEFFS.kappa1 == pytest.approx(KAPPA1_EXACT, abs=1e-12)
        assert ERF_COEFFS.kappa_star_sq == pytest.approx(KSTAR_SQ_EXACT, abs=1e-10)

    def test_scaling_property(self):
        base = activation_coeffs(np.tanh, RULE)
        scaled = activation_coeffs(lambda x: 2.5 * np.tanh(x), RULE)
        assert scaled.kappa0 == pytest.approx(2.5 * base.kappa0, abs=1e-12)
        assert scaled.kappa1 == pytest.approx(2.5 * base.kappa1, rel=1e-12)
        assert scaled.kappa_star == pytest.approx(2.5 * base.kappa_star, rel=1e-9)


class TestMpSpectralModel:
    def test_square_case_support_and_no_atom(self):
        model = mp_spectral_model(1.0, 1.0, ERF_COEFFS)
        assert model.atom_mass == 0.0
        assert model.support_min == pytest.approx(ERF_COEFFS.kappa_star_sq, abs=1e-12)
        assert model.support_max == pytest.approx(ERF_COEFFS.kappa_star_sq + 4 * ERF_COEFFS.kappa1**2, abs=1e-12)

    def test_large_gamma_concentrates(self):
        model = mp_spectral_model(1.0, 1e3, ERF_COEFFS)
        center = ERF_COEFFS.kappa_star_sq + ERF_COEFFS.kappa1**2
        spread = model.support_max - model.support_min
        assert spread < 0.2 * center
        assert spectral_integral(model, lambda s: s) == pytest.approx(center, rel=1e-8)

    def test_rank_deficient_atom(self):
        model = mp_spectral_model(1.0, 0.5, ERF_COEFFS)
        assert model.atom_mass == pytest.approx(0.5, abs=1e-12)
        assert model.atom_location == pytest.approx(ERF_COEFFS.kappa_star_sq, abs=1e-14)

    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0, 2.0, 10.0])
    def test_mass_conservation(self, gamma):
        model = mp_spectral_model(1.0, gamma, ERF_COEFFS)
        assert spectral_integral(model, np.ones_like) == pytest.approx(1.0, abs=1e-8)

    def test_rejects_noncentered_activation(self):
        shifted = activation_coeffs(lambda x: erf(x) + 0.3, RULE)
        with pytest.raises(ConfigError, match="kappa0"):
            mp_spectral_model(1.0, 1.0, shifted)

    def test_rejects_nonpositive_ratios(self):
        with pytest.raises(ConfigError):
            mp_spectral_model(0.0, 1.0, ERF_COEFFS)
        with pytest.raises(ConfigError):
            mp_spectral_model(1.0, -2.0, ERF_COEFFS)


class TestSpectralModel:
    @pytest.mark.parametrize("aspect", [0.25, 1.0, 4.0])
    def test_atom_is_derived_from_aspect(self, aspect):
        model = SpectralModel(aspect=aspect, scale=0.7, shift=0.2, bulk_nodes=51)
        assert model.atom_mass == max(0.0, 1.0 - aspect)
        assert model.atom_location == model.shift
        assert len(model.support_nodes) == 51 + (model.atom_mass > 0)

    def test_atom_is_not_settable(self):
        with pytest.raises(TypeError):
            SpectralModel(aspect=0.5, scale=0.7, shift=0.2, atom_mass=0.3)

    def test_equal_fields_compare_equal(self):
        # no array field is left, so field-wise equality and hashing are safe;
        # a cached grid on one model does not change that
        a = mp_spectral_model(1.0, 0.5, ERF_COEFFS)
        b = mp_spectral_model(1.0, 0.5, ERF_COEFFS)
        a.bulk_grid
        assert a == b
        assert len({a, b}) == 1
        assert a != mp_spectral_model(1.0, 0.5, ERF_COEFFS, bulk_nodes=4001)


class TestEmpiricalSpectrum:
    def test_scalar_case(self):
        eigs = empirical_spectrum(5, 1, 1, ERF_COEFFS)
        F11 = np.random.default_rng(5).standard_normal((1, 1))[0, 0]
        want = ERF_COEFFS.kappa1**2 * F11**2 + ERF_COEFFS.kappa_star_sq
        np.testing.assert_allclose(eigs, [want], atol=1e-12)

    def test_rank_deficiency_pins_half_the_spectrum(self):
        eigs = empirical_spectrum(0, 2000, 1000, ERF_COEFFS)
        pinned = np.sum(np.abs(eigs - ERF_COEFFS.kappa_star_sq) < 1e-8)
        assert pinned == 1000

    def test_mean_eigenvalue_is_trace(self):
        p = 1500
        eigs = empirical_spectrum(1, p, 750, ERF_COEFFS)
        want = ERF_COEFFS.kappa1**2 + ERF_COEFFS.kappa_star_sq
        assert np.mean(eigs) == pytest.approx(want, abs=5.0 / math.sqrt(p))


class TestSpectralIntegral:
    def test_unit_mass(self):
        model = mp_spectral_model(1.0, 0.7, ERF_COEFFS)
        assert spectral_integral(model, lambda s: np.ones_like(s)) == pytest.approx(1.0, abs=1e-8)

    def test_first_moment_square_case(self):
        # trace identity E tr(Omega)/p = kappa1^2 + kappa_star^2, cross-checked empirically
        model = mp_spectral_model(1.0, 1.0, ERF_COEFFS)
        want = ERF_COEFFS.kappa1**2 + ERF_COEFFS.kappa_star_sq
        assert spectral_integral(model, lambda s: s) == pytest.approx(want, abs=1e-6)
        emp = empirical_spectrum(3, 2000, 2000, ERF_COEFFS)
        assert np.mean(emp) == pytest.approx(want, rel=0.02)

    def test_empirical_first_moment_is_exact_trace(self):
        eigs = empirical_spectrum(9, 300, 200, ERF_COEFFS)
        F = np.random.default_rng(9).standard_normal((300, 200))
        omega = ERF_COEFFS.kappa1**2 * F @ F.T / 200 + ERF_COEFFS.kappa_star_sq * np.eye(300)
        assert np.mean(eigs) == pytest.approx(np.trace(omega) / 300, rel=1e-12)

    @pytest.mark.parametrize("g", [lambda s: s / (1 + s), lambda s: 1.0 / (0.1 + s), lambda s: np.exp(-s)])
    def test_closed_form_matches_empirical_within_two_percent(self, g):
        gamma = 0.5
        closed = mp_spectral_model(1.0, gamma, ERF_COEFFS)
        a = spectral_integral(closed, g)
        b = np.mean(g(empirical_spectrum(2, 2000, 1000, ERF_COEFFS)))
        assert a == pytest.approx(b, rel=0.02)


def _three_rows(s):
    return np.array([s / (0.3 + 1.7 * s), np.exp(-s) * s**2, 1.0 / (0.05 + s) ** 2])


class TestStackedSpectralIntegral:
    @pytest.mark.parametrize(
        "make_model",
        [
            lambda: mp_spectral_model(1.0, 0.5, ERF_COEFFS),
            lambda: mp_spectral_model(1.0, 2.0, ERF_COEFFS),
        ],
        ids=["mp-atom", "mp-no-atom"],
    )
    def test_rows_equal_scalar_calls_bit_for_bit(self, make_model):
        model = make_model()
        stacked = spectral_integral(model, _three_rows)
        assert len(stacked) == 3
        for k in range(3):
            assert stacked[k] == spectral_integral(model, lambda s: _three_rows(s)[k])

    def test_non_finite_bulk_row_raises(self):
        model = mp_spectral_model(1.0, 2.0, ERF_COEFFS)
        mid = 0.5 * (model.support_min + model.support_max)
        g = lambda s: np.array([np.ones_like(s), np.where(s > mid, np.nan, 1.0)])
        with pytest.raises(NumericalError, match="bulk"):
            spectral_integral(model, g)

    def test_non_finite_atom_row_raises(self):
        model = mp_spectral_model(1.0, 0.5, ERF_COEFFS)
        assert model.atom_mass > 0
        # every bulk node lies above the atom, so only the atom sees the inf
        g = lambda s: np.array([np.ones_like(s), np.where(s <= model.atom_location, np.inf, 1.0)])
        with pytest.raises(NumericalError, match="atom"):
            spectral_integral(model, g)

    def test_finite_row_whose_sum_overflows_raises(self):
        # a one-node bulk grid at p/d = 2 carries weight 4/3, so the largest
        # float is a finite integrand value whose weighted sum overflows
        model = mp_spectral_model(1.0, 2.0, ERF_COEFFS, bulk_nodes=1)
        assert model.bulk_grid[1][0] == pytest.approx(4.0 / 3.0)
        g = lambda s: np.array([np.ones_like(s), np.full_like(s, np.finfo(float).max)])
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="bulk"):
            spectral_integral(model, g)


def _two_call_integral(model, g):
    """The MP integral as it was taken before the one-call contract: g on the
    bulk nodes, then g again on a one-element array holding the atom."""
    s, w = model.bulk_grid
    vals = np.asarray(g(s), dtype=float)
    rows = vals if vals.ndim == 2 else vals[np.newaxis]
    out = [float(row @ w) for row in rows]
    if model.atom_mass > 0:
        atom_vals = np.asarray(g(np.array([model.atom_location])), dtype=float).reshape(len(out))
        out = [x + model.atom_mass * float(a) for x, a in zip(out, atom_vals)]
    return out if vals.ndim == 2 else out[0]


class TestOneCallIntegral:
    @pytest.mark.parametrize(
        "g",
        [lambda s: s / (0.3 + 1.7 * s), _three_rows],
        ids=["scalar", "three-rows"],
    )
    @pytest.mark.parametrize("gamma", [0.5, 2.0], ids=["atom", "no-atom"])
    def test_one_call_on_bulk_and_atom_equals_two_call_form(self, g, gamma):
        model = mp_spectral_model(1.0, gamma, ERF_COEFFS)
        seen = []

        def counting(s):
            seen.append(np.array(s))
            return g(s)

        got = spectral_integral(model, counting)
        assert len(seen) == 1
        nodes = model.bulk_grid[0]
        if model.atom_mass > 0:
            np.testing.assert_array_equal(seen[0], np.append(nodes, model.atom_location))
        else:
            np.testing.assert_array_equal(seen[0], nodes)
        want = _two_call_integral(model, g)
        if isinstance(want, list):
            assert [x.hex() for x in got] == [x.hex() for x in want]
        else:
            assert got.hex() == want.hex()

    def test_support_nodes_are_cached_and_read_only(self):
        model = mp_spectral_model(1.0, 0.5, ERF_COEFFS)
        nodes = model.support_nodes
        assert model.support_nodes is nodes
        assert len(nodes) == len(model.bulk_grid[0]) + 1
        with pytest.raises(ValueError):
            nodes[0] = 0.0


class TestBulkGridCache:
    def test_cached_grid_equals_fresh_grid_and_is_read_only(self):
        model = mp_spectral_model(1.0, 0.5, ERF_COEFFS)
        nodes, weights = model.bulk_grid
        fresh_nodes, fresh_weights = spectrum._mp_bulk_grid(model)
        np.testing.assert_array_equal(nodes, fresh_nodes)
        np.testing.assert_array_equal(weights, fresh_weights)
        assert model.bulk_grid[0] is nodes
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_each_node_count_gets_its_own_grid(self):
        coarse = mp_spectral_model(1.0, 0.5, ERF_COEFFS)
        assert len(coarse.bulk_grid[0]) == spectrum.DEFAULT_BULK_NODES
        fine = mp_spectral_model(1.0, 0.5, ERF_COEFFS, bulk_nodes=4001)
        assert len(fine.bulk_grid[0]) == 4001

    def test_solve_builds_the_grid_once_per_model(self, monkeypatch):
        calls = []
        real = spectrum._mp_bulk_grid

        def counting(model):
            calls.append(model.bulk_nodes)
            return real(model)

        monkeypatch.setattr(spectrum, "_mp_bulk_grid", counting)
        square = ChannelSpec(loss="square", teacher="linear")
        for nodes in (2001, 4001):
            model = ModelConfig(
                alpha=1.25, gamma=0.5, rho=1.0, lam=1e-2, K=1, spec=square,
                spectrum=mp_spectral_model(1.25, 0.5, ERF_COEFFS, bulk_nodes=nodes), coeffs=ERF_COEFFS,
            )
            fp = solve_fixed_point(model, SolveOptions(tol=1e-10))
            assert fp.converged and fp.iterations > 10
        assert calls == [2001, 4001]
