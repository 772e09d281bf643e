import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracpois.frac_ops import (apply_frac_difference, beta_form_coeff,
                               frac_binom_coeff, frac_binom_coeffs)


def test_leading_coefficients():
    assert frac_binom_coeff(0.7, 0) == 1.0
    assert frac_binom_coeff(0.5, 1) == -0.5
    assert frac_binom_coeff(0.5, 2) == pytest.approx(-0.125)


def test_alpha_one_truncates_to_first_difference():
    c = frac_binom_coeffs(1.0, 10)
    assert c[0] == 1.0 and c[1] == -1.0
    assert np.all(c[2:] == 0.0)


def test_negative_sign_pattern():
    for alpha in (0.3, 0.5, 0.8):
        c = frac_binom_coeffs(alpha, 200)
        assert np.all(c[1:] < 0.0)


def test_partial_sums_tend_to_zero():
    # sum_r c_r(alpha) = (1-x)**alpha at x=1 = 0; the partial sums decay
    # like R**-alpha / Gamma(1-alpha)
    import math
    for alpha in (0.3, 0.5, 0.8):
        c = frac_binom_coeffs(alpha, 1000)
        partial = np.cumsum(c)
        assert abs(partial[-1]) == pytest.approx(
            1000.0 ** -alpha / math.gamma(1.0 - alpha), rel=0.02)
        checkpoints = np.abs(partial[[10, 100, 1000]])
        assert np.all(np.diff(checkpoints) < 0)


def test_apply_frac_difference_delta_alpha_one():
    out = apply_frac_difference([1.0, 0.0, 0.0], 1.0)
    assert out == pytest.approx([1.0, -1.0, 0.0])


def test_apply_frac_difference_delta_half():
    out = apply_frac_difference([1.0, 0.0, 0.0, 0.0], 0.5)
    assert out == pytest.approx([1.0, -0.5, -0.125, -0.0625])


def test_apply_frac_difference_is_first_difference_at_alpha_one():
    import math
    mu = 2.0
    p = np.exp(-mu) * mu ** np.arange(12) / [math.factorial(k)
                                             for k in range(12)]
    out = apply_frac_difference(p, 1.0)
    expect = p - np.concatenate([[0.0], p[:-1]])
    assert out == pytest.approx(expect, abs=1e-15)


def test_beta_form_values():
    assert beta_form_coeff(0.5, 2) == pytest.approx(0.125, rel=1e-13)
    assert beta_form_coeff(0.5, 3) == pytest.approx(0.0625, rel=1e-13)


@given(alpha=st.floats(0.05, 0.95), r=st.integers(2, 40))
def test_beta_form_is_reflection_of_binomial_coeff(alpha, r):
    assert beta_form_coeff(alpha, r) + frac_binom_coeff(alpha, r) == \
        pytest.approx(0.0, abs=1e-12)


def test_beta_form_domain():
    """The coefficients and the difference operator refuse inputs outside
    their domains."""
    with pytest.raises(ValueError):
        beta_form_coeff(1.0, 2)
    with pytest.raises(ValueError):
        beta_form_coeff(0.5, 1)
    with pytest.raises(ValueError, match="r must be >= 0"):
        frac_binom_coeff(0.5, -1)
    for alpha in (0.0, 1.5):
        with pytest.raises(ValueError, match="alpha must lie in"):
            frac_binom_coeffs(alpha, 3)
    with pytest.raises(ValueError, match="1-d mass vector"):
        apply_frac_difference(np.ones((2, 2)), 0.5)


def test_three_forms_agree_on_a_pmf_vector():
    """RHS from the binomial coefficients vs the beta-identity expansion."""
    from fracpois import dist
    params = dist.ProcessParams(1.0, 0.6, 1.0)
    p = np.array([r.p for r in dist.pmf_row(params, 1.0, 12)])
    lam_a = params.lam ** params.alpha
    rhs_ira = -lam_a * apply_frac_difference(p, params.alpha)
    K = p.size
    rhs_beta = np.empty(K)
    for k in range(K):
        acc = -lam_a * p[k]
        if k >= 1:
            acc += params.alpha * lam_a * p[k - 1]
        for r in range(2, k + 1):
            acc += lam_a * beta_form_coeff(params.alpha, r) * p[k - r]
        rhs_beta[k] = acc
    assert rhs_ira == pytest.approx(rhs_beta, abs=1e-12)
