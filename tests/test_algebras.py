import numpy as np
import pytest
import scipy.linalg

from anoctl.algebras import adjoint_rep, get_algebra
from anoctl.forms import signature


def test_dimensions():
    assert get_algebra("sl2").dim == 3
    assert get_algebra("sl3").dim == 8
    assert get_algebra("sl4").dim == 15
    assert get_algebra("o21").dim == 3
    assert get_algebra("o32").dim == 10
    assert get_algebra("o41").dim == 10
    assert get_algebra("o22").dim == 6


def test_compact_dimensions():
    # dim k = dim so(n) for sl_n, dim(so(p) x so(q)) for o(p,q)
    assert get_algebra("sl3").dim_k == 3
    assert get_algebra("sl4").dim_k == 6
    assert get_algebra("o32").dim_k == 4
    assert get_algebra("o21").dim_k == 1


def test_unsupported_tags():
    for tag in ("sl5", "o33", "o11", "su2"):
        with pytest.raises(ValueError):
            get_algebra(tag)


def test_basis_is_frobenius_orthonormal():
    for tag in ("sl3", "o32"):
        alg = get_algebra(tag)
        for i, a in enumerate(alg.basis):
            for j, b in enumerate(alg.basis):
                ip = np.trace(a @ b.T)
                assert abs(ip - (1.0 if i == j else 0.0)) < 1e-12


def test_killing_negative_definite_on_compact():
    for tag in ("sl2", "sl3", "o21", "o32", "o41"):
        alg = get_algebra(tag)
        kb = alg.compact_subalgebra
        restricted = kb.T @ alg.killing_gram @ kb
        assert np.all(np.linalg.eigvalsh(restricted) < -1e-10)


def test_sl2_killing_signature():
    kappa = get_algebra("sl2").killing_gram
    assert signature(kappa, 1e-10) == (2, 1, 0)


def test_root_space_multiplicities():
    # o(3,2): all four positive roots have multiplicity 1 (split form)
    o32 = get_algebra("o32")
    for eps, _ in o32.positive_root_list():
        assert o32.root_space(eps).shape[1] == 1
    assert o32.zero_space().shape[1] == 2
    # o(4,1): the short root has multiplicity p - q = 3
    o41 = get_algebra("o41")
    (eps, _), = o41.positive_root_list()
    assert o41.root_space(eps).shape[1] == 3
    # sl3: six roots of multiplicity 1, Cartan of dimension 2
    sl3 = get_algebra("sl3")
    assert all(sl3.root_space(eps).shape[1] == 1
               for eps, _ in sl3.positive_root_list())
    assert sl3.zero_space().shape[1] == 2


def test_root_space_eigen_relation():
    for tag in ("o32", "sl3"):
        alg = get_algebra(tag)
        for eps, _ in alg.positive_root_list():
            space = alg.root_space(eps)
            assert space.shape[1] >= 1
            for hmat in alg.cartan:
                adh = alg.ad(hmat)
                val = alg.eps_pairing(eps, hmat)
                assert np.linalg.norm(adh @ space - val * space) < 1e-9


def test_adjoint_identity_and_killing_preservation(rng):
    ad_id, kappa = adjoint_rep(np.eye(3), "sl3")
    assert np.linalg.norm(ad_id - np.eye(8)) < 1e-12
    sl3 = get_algebra("sl3")
    g = scipy.linalg.expm(sl3.from_coords(rng.standard_normal(8) * 0.4))
    adg, kappa = adjoint_rep(g, "sl3")
    assert np.linalg.norm(adg.T @ kappa.gram @ adg - kappa.gram) < 1e-8


def test_adjoint_exponential_series_oracle(rng):
    for tag in ("sl2", "o32"):
        alg = get_algebra(tag)
        for _ in range(10):
            x = alg.from_coords(0.1 * rng.standard_normal(alg.dim))
            lhs, _ = adjoint_rep(scipy.linalg.expm(x), tag)
            rhs = scipy.linalg.expm(alg.ad(x))
            assert np.linalg.norm(lhs - rhs) < 1e-8


def test_adjoint_of_compact_is_orthogonal(rng):
    from conftest import random_orthogonal
    k = random_orthogonal(rng, 3)
    k = k * np.linalg.det(k)  # force det 1 for sl3
    adk, _ = adjoint_rep(k, "sl3")
    assert np.linalg.norm(adk.T @ adk - np.eye(8)) < 1e-10


def test_adjoint_rejects_outsiders():
    with pytest.raises(ValueError):
        adjoint_rep(np.diag([2.0, 1.0, 1.0]), "sl3")
    with pytest.raises(ValueError):
        adjoint_rep(np.diag([2.0, 1.0, 1.0]), "o21")
