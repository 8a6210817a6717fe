import numpy as np
import pytest

from oracles import gram_block_inverse, orth_projector, range_projector
from risbc.linalg import eigh_descending


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_hpd(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A @ A.conj().T + n * np.eye(n)


# ------------------------------------------- projectors (test-side oracles)


def test_orth_projector_canonical():
    e1 = np.zeros(4)
    e1[0] = 1.0
    P = orth_projector(e1)
    assert np.allclose(P, np.diag([0.0, 1.0, 1.0, 1.0]))


def test_orth_projector_two_dim():
    b = np.array([1.0, 1.0]) / np.sqrt(2)
    P = orth_projector(b)
    assert np.allclose(P, np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_orth_projector_properties():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        b = random_unit(rng, rng.integers(2, 9))
        P = orth_projector(b)
        assert np.linalg.norm(P @ b) < 1e-12
        assert np.linalg.norm(P @ P - P) < 1e-12
        assert np.linalg.norm(P - P.conj().T) < 1e-12


def test_orth_projector_rejects_unnormalized():
    with pytest.raises(ValueError, match="unnormalized"):
        orth_projector(np.array([1.0, 1.0]))


def test_range_projector_rank_one():
    rng = np.random.default_rng(2)
    b = random_unit(rng, 6)
    P = range_projector(b[None, :].conj())
    assert np.allclose(P, np.outer(b, b.conj()), atol=1e-12)


def test_range_projector_orthonormal_rows():
    # M with orthonormal rows: projector is M^H M.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
    q, _ = np.linalg.qr(A.conj().T)
    M = q[:, :3].conj().T
    assert np.allclose(range_projector(M), M.conj().T @ M, atol=1e-12)


def test_range_projector_defining_property():
    rng = np.random.default_rng(4)
    for _ in range(100):
        M = rng.standard_normal((3, 8)) + 1j * rng.standard_normal((3, 8))
        P = range_projector(M)
        assert np.linalg.norm(P @ M.conj().T - M.conj().T) < 1e-10
        assert np.linalg.norm(P @ P - P) < 1e-12
        assert np.linalg.norm(P - P.conj().T) < 1e-12
        # matches the explicit formula M^H (M M^H)^{-1} M
        explicit = M.conj().T @ np.linalg.solve(M @ M.conj().T, M)
        assert np.linalg.norm(P - explicit) < 1e-10


def test_range_projector_rejects_rank_deficient():
    M = np.ones((2, 5), dtype=complex)
    with pytest.raises(ValueError, match="rank deficient"):
        range_projector(M)


# ----------------------------------- gram block inverse (test-side oracle)


def assemble_gram(C_s, d_s, g):
    K = C_s.shape[0]
    G = np.empty((K + 1, K + 1), dtype=complex)
    G[:K, :K] = C_s + np.outer(d_s, d_s.conj()) / g
    G[:K, K] = d_s
    G[K, :K] = d_s.conj()
    G[K, K] = g
    return G


def test_gram_block_inverse_decoupled():
    K = 3
    out = gram_block_inverse(np.eye(K), np.zeros(K), 1.0)
    assert np.allclose(out, np.eye(K + 1), atol=1e-14)


def test_gram_block_inverse_k1():
    C_s = np.array([[2.0 + 0j]])
    d_s = np.array([1.0 + 0j])
    out = gram_block_inverse(C_s, d_s, 1.0)
    direct = np.linalg.inv(assemble_gram(C_s, d_s, 1.0))
    assert np.allclose(out, direct, atol=1e-12)


def test_gram_block_inverse_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        K = int(rng.integers(1, 5))
        C_s = random_hpd(rng, K)
        d_s = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        g = float(rng.uniform(0.1, 10.0))
        out = gram_block_inverse(C_s, d_s, g)
        G = assemble_gram(C_s, d_s, g)
        direct = np.linalg.inv(G)
        rel = np.linalg.norm(out - direct) / np.linalg.norm(direct)
        assert rel < 1e-10
        # bottom-right entry is (1 + d^H C^{-1} d / g) / g
        mit = np.real(np.vdot(d_s, np.linalg.solve(C_s, d_s))) / g
        assert abs(out[K, K] - (1.0 + mit) / g) < 1e-10 * abs(out[K, K])


def test_gram_block_inverse_rejects_nonpositive_gain():
    with pytest.raises(ValueError, match="weak user unreachable"):
        gram_block_inverse(np.eye(2), np.zeros(2), 0.0)


# ------------------------------------------------------------------ eigh


def test_eigh_descending_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        A = random_hpd(rng, n)
        w, U = eigh_descending(A)
        assert np.all(np.diff(w) <= 1e-12)
        rec = U @ np.diag(w) @ U.conj().T
        assert np.linalg.norm(rec - A) / np.linalg.norm(A) < 1e-10
        assert np.linalg.norm(U.conj().T @ U - np.eye(n)) < 1e-10
        assert abs(np.sum(w) - np.real(np.trace(A))) < 1e-10 * abs(np.trace(A))


def test_eigh_descending_deterministic_sign():
    rng = np.random.default_rng(7)
    A = random_hpd(rng, 5)
    w1, U1 = eigh_descending(A)
    w2, U2 = eigh_descending(A.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(U1, U2)


def test_eigh_descending_singular_keeps_pairs():
    # rank-one PSD matrix still returns n eigenpairs with zeros kept
    v = np.array([1.0, 1j, 0.0]) / np.sqrt(2)
    A = np.outer(v, v.conj())
    w, U = eigh_descending(A)
    assert w.shape == (3,)
    assert abs(w[0] - 1.0) < 1e-12
    assert np.all(np.abs(w[1:]) < 1e-12)
    assert np.linalg.norm(U @ np.diag(w) @ U.conj().T - A) < 1e-12
