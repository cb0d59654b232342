"""Powers of chamber conjugates as an exact oracle for mu.

For g = k exp(H) k^-1 with k in the maximal compact group, mu(g^n) = nH
exactly. The float product g^n is a symmetric (Hermitian for O(n, C))
matrix within about n eps s_0 of the true one, so each singular value
s_i moves by at most that much (Weyl). kak reads mu_i to about
eps s_0 / s_i off the SVD, and to about eps (s_0 / s_i)^2 on opq's
squared path below spectral norm 1e6; the tolerance below is a small
multiple of that resolution, plus the rounding of nH itself.
"""

from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anoctl.cartan import MuVector, chamber_exp, complex_pm_basis, kak
from anoctl.forms import make_witt_form
from conftest import random_orthogonal
from test_cartan import complex_form, random_opq_K
from test_cli import pingpong_o32

EPS = np.finfo(float).eps
# kak's opq path squares g up to this spectral norm
SQUARED_NORM = 1e6


def assert_power_mu(g, form, h, n):
    """mu(g^n) = n h within kak's resolution, for a chamber conjugate g
    whose exponents h clear kak's band rule."""
    nh = n * np.asarray(h, dtype=float)
    mu = kak(reduce(np.matmul, [g] * n), form).mu.values
    ratio = np.exp(nh[0] - nh)
    if form is not None and not form.is_complex and nh[0] <= np.log(SQUARED_NORM) + 1e-6:
        ratio = ratio ** 2
    tol = 16 * n * EPS * (ratio + np.abs(nh))
    assert np.all(np.abs(mu - nh) <= tol), (mu, nh, tol)


def chamber_conjugate(group, h, seed):
    """(form, k exp(h) k^-1) for a compact k drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    if group == "gl3":
        k = random_orthogonal(rng, 3)
        return None, k @ np.diag(np.exp(h)) @ k.T
    if group == "o3C":
        form = complex_form(3)
        t = complex_pm_basis(3)
        k = t @ random_orthogonal(rng, 3) @ t.conj().T
        return form, k @ chamber_exp(MuVector("onC", h), form) @ k.conj().T
    p, q = {"o21": (2, 1), "o32": (3, 2)}[group]
    form = make_witt_form(p, q)
    k = random_opq_K(rng, p, q)
    return form, k @ chamber_exp(MuVector("opq", h), form) @ k.T


@settings(max_examples=80, deadline=None, derandomize=True)
@given(group=st.sampled_from(["o21", "o32", "gl3", "o3C"]), n=st.integers(1, 8),
       top=st.floats(0.0, 4.0),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mu_of_powers_of_chamber_conjugates(group, n, top, fractions, seed):
    if group == "gl3":
        # exponents of either sign, spread at most 4
        h = np.sort([top / 2, *(top * (f - 0.5) for f in fractions)])[::-1]
    else:
        r = 2 if group == "o32" else 1
        h = np.array([top, *sorted((top * f for f in fractions), reverse=True)])[:r]
        # kak reads as 0 each exponent whose singular value lies below
        # 1 + 3e6 eps s_0: draw each exponent 0 or well clear of that band
        band = 1.0 + 3e6 * EPS * np.exp(n * top)
        assume(np.all((h == 0) | (np.exp(n * h) >= 2 * band)))
    form, g = chamber_conjugate(group, h, seed)
    assert_power_mu(g, form, h, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(
    6, marks=pytest.mark.xfail(strict=True, reason="α₂ band rule, ROADMAP item 2"))])
def test_mu_of_powers_of_the_pingpong_generator(n):
    # pingpong-o32's generator a is a K-conjugate of exp(6, 2); at n = 6
    # its second singular value e^12 lies inside the band of s_0 = e^36,
    # so kak prints mu_2 = 0
    (_, a), _ = pingpong_o32(0)
    assert_power_mu(a, make_witt_form(3, 2), [6.0, 2.0], n)
