import math

import pytest
from scipy import special as sps

import rdbp
from lambert import lambert_w_minus1
from rdbp.criteria import ConvergenceError

mpmath = pytest.importorskip("mpmath")


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
    assert rdbp.ConvergenceError is ConvergenceError
