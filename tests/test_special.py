import math

import pytest
from scipy import special as sps

from lambert import lambert_w_minus1
from rdbp.special import (
    ConvergenceError,
    inverse_regularized_incomplete_beta,
    regularized_incomplete_beta,
)

mpmath = pytest.importorskip("mpmath")

AB_GRID = [(0.5, 0.5), (1.0, 1.0), (1.0, 3.0), (2.0, 1.0), (2.0, 5.0), (7.5, 0.8), (30.0, 30.0)]
X_GRID = [0.01, 0.2, 0.5, 0.8, 0.99]


def _mp_betainc(a, b, x):
    with mpmath.workdps(40):
        return float(mpmath.betainc(mpmath.mpf(a), mpmath.mpf(b), 0, mpmath.mpf(x), regularized=True))


class TestIncompleteBeta:
    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_matches_scipy(self, a, b):
        for x in X_GRID:
            ours = regularized_incomplete_beta(a, b, x)
            ref = sps.betainc(a, b, x)
            assert ours == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_matches_mpmath_at_extremes(self, a, b):
        # scipy itself drifts ~1e-12 at the endpoints, so the oracle here is
        # a 40-digit evaluation at the exact stored double
        for x in (1e-9, 1e-3, 1 - 1e-3, 1 - 1e-9):
            ours = regularized_incomplete_beta(a, b, x)
            ref = _mp_betainc(a, b, x)
            assert ours == pytest.approx(ref, rel=5e-13, abs=1e-300)

    def test_edges(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_reflection_identity(self):
        for a, b in AB_GRID:
            for x in (0.1, 0.4, 0.7):
                lhs = regularized_incomplete_beta(a, b, x)
                rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
                assert lhs == pytest.approx(rhs, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, -0.1)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.1)


class TestInverseIncompleteBeta:
    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_roundtrip(self, a, b):
        for p in (1e-6, 0.1, 0.5, 0.9, 1 - 1e-6):
            x = inverse_regularized_incomplete_beta(a, b, p)
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("a,b", AB_GRID)
    def test_matches_scipy(self, a, b):
        for p in (0.05, 0.5, 0.95):
            ours = inverse_regularized_incomplete_beta(a, b, p)
            ref = sps.betaincinv(a, b, p)
            assert ours == pytest.approx(ref, abs=1e-9)

    def test_edges(self):
        assert inverse_regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert inverse_regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0


class TestLambertWMinus1:
    def test_matches_scipy(self):
        for z in (-0.367, -0.3, -0.1, -1e-3, -1e-9):
            ours = lambert_w_minus1(z)
            ref = float(sps.lambertw(z, k=-1).real)
            assert ours == pytest.approx(ref, rel=1e-10)

    def test_near_branch_point_matches_mpmath(self):
        # scipy's iteration stalls this close to -1/e; mpmath referees instead.
        # Forming 1 + e z in doubles costs ~1e-16 absolute, which the square
        # root blows up to ~5e-11 on w: that is the attainable precision here.
        for eps in (1e-12, 1e-10, 1e-8):
            z = -1 / math.e + eps
            ours = lambert_w_minus1(z)
            with mpmath.workdps(40):
                ref = float(mpmath.lambertw(mpmath.mpf(z), -1).real)
            assert ours == pytest.approx(ref, abs=5e-10)

    def test_defining_identity(self):
        for z in (-0.35, -0.2, -0.05, -1e-4):
            w = lambert_w_minus1(z)
            assert w * math.exp(w) == pytest.approx(z, rel=1e-12)
            assert w <= -1.0

    def test_branch_point(self):
        assert lambert_w_minus1(-1 / math.e) == pytest.approx(-1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            lambert_w_minus1(0.1)
        with pytest.raises(ValueError):
            lambert_w_minus1(0.0)
        with pytest.raises(ValueError):
            lambert_w_minus1(-1.0)


def test_convergence_error_is_arithmetic():
    assert issubclass(ConvergenceError, ArithmeticError)
