import math

import numpy as np
import pytest

from cmclab import (
    UsageError, make_cone, link_spectrum, stability, indicial_exponents,
    gamma_pm, RadialFunction, lc_residual,
)
from oracles import link_eigenvalues_oracle, rational_link_spectrum
from support import traced_peak

PAIRS = [(p, q) for p in range(1, 5) for q in range(p, 5)]
# The three Clifford cones of ambient dimension 8 and two with p != q.
SPECTRUM_PAIRS = [(1, 5), (2, 4), (3, 3), (2, 5), (4, 1)]


class TestMakeCone:
    def test_balanced_pair_values(self):
        cone = make_cone(3, 3)
        assert cone.n == 7
        assert cone.a == pytest.approx(math.sqrt(0.5), abs=0)
        assert cone.b == cone.a
        assert cone.A2 == 6.0

    def test_general_values(self):
        cone = make_cone(2, 5)
        assert cone.n == 8
        assert cone.a**2 == pytest.approx(2 / 7, rel=1e-15)
        assert cone.b**2 == pytest.approx(5 / 7, rel=1e-15)
        assert cone.A2 == 7.0

    def test_validation(self):
        with pytest.raises(UsageError):
            make_cone(0, 3)
        with pytest.raises(UsageError):
            make_cone(2, -1)
        with pytest.raises(UsageError):
            make_cone(1.5, 2)


class TestLinkSpectrum:
    def test_lowest_eigenvalue_is_minus_dim_sum(self):
        for p, q in PAIRS:
            spectrum = link_spectrum(make_cone(p, q), 1)
            assert spectrum.eigenvalues[0] == -float(p + q)
            assert spectrum.multiplicities[0] == 1

    def test_balanced_zero_modes(self):
        # the second distinct eigenvalue is 0, carried by the degree-one
        # harmonics of both factors: 2 * dim H_1(S^3) = 8
        spectrum = link_spectrum(make_cone(3, 3), 12)
        distinct = sorted(set(spectrum.eigenvalues))
        assert distinct[0] == -6.0
        assert distinct[1] == 0.0
        entries0 = [m for ev, m in zip(spectrum.eigenvalues,
                                       spectrum.multiplicities) if ev == 0.0]
        assert len(entries0) == 8
        assert set(entries0) == {8}

    def test_sorted_with_multiplicity(self):
        spectrum = link_spectrum(make_cone(2, 3), 9)
        evs = np.array(spectrum.eigenvalues)
        assert np.all(np.diff(evs) >= 0)
        assert all(m >= 1 for m in spectrum.multiplicities)
        assert len(spectrum.eigenvalues) == len(spectrum.multiplicities)

    def test_count_validation(self):
        with pytest.raises(UsageError):
            link_spectrum(make_cone(3, 3), 0)

    def test_matches_rational_enumeration(self):
        for p, q in SPECTRUM_PAIRS:
            spectrum = link_spectrum(make_cone(p, q), 100)
            assert ((spectrum.eigenvalues, spectrum.multiplicities)
                    == rational_link_spectrum(p, q, 100))

    def test_each_spectrum_is_a_prefix_of_the_next(self):
        # Cuts at every K, inside a group of equal eigenvalues as well as
        # between groups.
        for p, q in SPECTRUM_PAIRS:
            cone = make_cone(p, q)
            prev = link_spectrum(cone, 1)
            for K in range(2, 202):
                spectrum = link_spectrum(cone, K)
                assert spectrum.eigenvalues[:K - 1] == prev.eigenvalues
                assert spectrum.multiplicities[:K - 1] == prev.multiplicities
                prev = spectrum

    def test_memory_at_the_eigenvalue_budget(self):
        # An equal eigenvalue's entries share one float: 34.0 MB, where
        # one float per entry read 56.9 MB.
        assert traced_peak(
            lambda: link_spectrum(make_cone(3, 3), 10**6)) < 40.0

    def test_matches_sturm_liouville_oracle(self):
        for p, q in PAIRS:
            spectrum = link_spectrum(make_cone(p, q), 150)
            closed = sorted(set(spectrum.eigenvalues))[:5]
            oracle = link_eigenvalues_oracle(p, q, 5)
            assert len(closed) == 5
            for a, b in zip(closed, oracle):
                assert abs(a - b) <= 1e-2 * max(1.0, abs(a))


class TestStability:
    def test_table(self):
        for p, q in PAIRS:
            assert stability(make_cone(p, q)) == (p + q >= 6)

    def test_named_cases(self):
        assert stability(make_cone(3, 3))
        assert not stability(make_cone(1, 1))
        assert not stability(make_cone(2, 2))


class TestExponents:
    def test_balanced_pair(self):
        assert gamma_pm(make_cone(3, 3)) == (2.0, 3.0)

    def test_vieta_identities(self):
        for p, q in PAIRS:
            cone = make_cone(p, q)
            if not stability(cone):
                continue
            gm, gp = gamma_pm(cone)
            assert 0 < gm <= gp
            assert abs((gm + gp) - (cone.n - 2)) <= 1e-12
            assert abs(gm * gp - (p + q)) <= 1e-12

    def test_hyperplane_case(self):
        assert indicial_exponents(5, 0.0) == (0.0, 3.0)
        assert indicial_exponents(9, 0.0) == (0.0, 7.0)

    def test_unstable_rejected(self):
        with pytest.raises(UsageError):
            gamma_pm(make_cone(1, 1))
        with pytest.raises(UsageError) as err:
            indicial_exponents(4, -9.0)
        assert "(n-2)^2/4" in str(err.value)


class TestRadialFunction:
    def test_log_uniform_grid(self):
        f = RadialFunction.from_callable(lambda r: r, 1.0, 8.0, 16)
        assert f.r[0] == pytest.approx(1.0)
        assert f.r[-1] == pytest.approx(8.0)
        ratios = f.r[1:] / f.r[:-1]
        assert np.allclose(ratios, ratios[0])
        assert f.dt == pytest.approx(math.log(8.0) / 15)

    def test_validation(self):
        with pytest.raises(UsageError):
            RadialFunction(1.0, 2.0, np.array([1.0]))
        with pytest.raises(UsageError):
            RadialFunction(1.0, 2.0, np.array([1.0, np.inf]))
        with pytest.raises(UsageError):
            RadialFunction(2.0, 1.0, np.array([1.0, 1.0]))


class TestLcResidual:
    def test_pure_modes_near_truncation_level(self):
        # the exact operator annihilates both modes; what remains is the
        # second-order stencil truncation, about (k dt)^2 in size
        cone = make_cone(3, 3)
        for gamma in (2.0, 3.0):
            f = RadialFunction.from_callable(lambda r: r**-gamma,
                                             1.0, 4.0, 128)
            assert lc_residual(cone, f) < 5e-3

    def test_non_mode_detected(self):
        cone = make_cone(3, 3)
        f = RadialFunction.from_callable(lambda r: r**-1.0, 1.0, 4.0, 128)
        # exact operator value on r^-1 is 2 r^-3, max near 2 at the first
        # interior node
        assert lc_residual(cone, f) == pytest.approx(2.0, rel=0.05)

    def test_refinement_decreases_residual(self):
        cone = make_cone(3, 3)
        vals = [lc_residual(cone, RadialFunction.from_callable(
            lambda r: r**-2.0, 1.0, 4.0, n)) for n in (64, 128, 256)]
        assert vals[0] > vals[1] > vals[2]

    def test_node_gate(self):
        cone = make_cone(3, 3)
        with pytest.raises(UsageError):
            lc_residual(cone, RadialFunction.from_callable(
                lambda r: r, 1.0, 2.0, 8))
