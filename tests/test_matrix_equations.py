import os
import subprocess
import sys
import warnings

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import pytest
from hypothesis import given, settings, strategies as st

from qbmor.errors import (
    NonDiagonalizable, NotStable, SingularShift, PairingViolation,
    SolverBreakdown,
)
from qbmor.matrix_equations import (
    HurwitzSchur, ShiftedLU, conjugate_pairs, hurwitz_schur,
    spectral_decompose,
    solve_lyapunov,
    solve_sylvester_shifted, shifted_lu, reflect_unstable, realify_basis,
    _solve_lyapunov_blocks, _solve_lyapunov_quasi_triangular,
    _solve_quasi_triangular,
)
from qbmor.benchmarks import chafee_infante, fitzhugh_nagumo
from conftest import record_band_factors, rng_for


def random_stable(n, rng):
    S = rng.standard_normal((n, n))
    return -np.eye(n) * (1 + rng.uniform(0, 1, n)) + 0.4 * (S - S.T)


# ------------------------------------------------------------------- spectral

def test_spectral_diagonal_sorted():
    f = spectral_decompose(np.diag([-1.0, -2.0]))
    assert np.allclose(f.lam, [-2.0, -1.0])
    P = np.abs(f.R)
    assert np.allclose(P @ P.T, np.eye(2), atol=1e-12)


def test_spectral_complex_pair():
    A = np.array([[0.0, 1.0], [-2.0, -2.0]])
    f = spectral_decompose(A)
    assert np.allclose(sorted(f.lam.imag), [-1.0, 1.0])
    assert np.allclose(f.lam.real, [-1.0, -1.0])
    # negative imaginary part first, pair adjacent
    assert f.lam[0].imag < 0 < f.lam[1].imag
    assert np.allclose(f.lam[1], np.conj(f.lam[0]))


def test_spectral_jordan_block_rejected():
    with pytest.raises(NonDiagonalizable):
        spectral_decompose(np.array([[-1.0, 1.0], [0.0, -1.0]]))


def test_spectral_reconstruction_up_to_40():
    rng = rng_for(1)
    for r in (5, 17, 40):
        A = random_stable(r, rng)
        f = spectral_decompose(A)
        rec = (f.R * f.lam) @ f.Rinv
        assert np.linalg.norm(rec - A) <= 1e-9 * np.linalg.norm(A)
        assert np.linalg.norm(f.R @ f.Rinv - np.eye(r)) <= 1e-9 * np.linalg.cond(f.R)


def permuted_shared_real_part(rng):
    # pairs share one real part bit for bit, and some imaginary parts agree
    # to 1e-10, closer than any pair-matching tolerance
    a = -float(rng.integers(1, 3))
    blocks = [[[a]]]
    for j in range(4):
        b = rng.uniform(0.5, 3.0) if rng.random() < 0.5 else 1.0 + 1e-10 * j
        blocks.append([[a, b], [-b, a]])
    p = rng.permutation(9)
    return sla.block_diag(*blocks)[p][:, p]


def test_spectral_pairs_adjacent_random():
    rng = rng_for(2)
    for k in range(40):
        A = random_stable(9, rng) if k < 20 else permuted_shared_real_part(rng)
        f = spectral_decompose(A)
        i = 0
        while i < 9:
            if f.lam[i].imag != 0.0:
                assert f.lam[i + 1] == np.conj(f.lam[i])
                assert np.array_equal(f.R[:, i + 1], np.conj(f.R[:, i]))
                i += 2
            else:
                i += 1


def test_spectral_inverse_pair_rows_exact_conjugates():
    # inv(R) alone leaves a pair's rows conjugate only to rounding
    rng = rng_for(3)
    pairs = 0
    for _ in range(50):
        A = rng.standard_normal((10, 10))
        f = spectral_decompose(A)
        for i in np.flatnonzero(f.lam.imag < 0.0):
            assert np.array_equal(f.Rinv[i + 1], np.conj(f.Rinv[i]))
            pairs += 1
        assert (np.linalg.norm(f.R @ f.Rinv - np.eye(10))
                <= 1e-9 * np.linalg.cond(f.R))
    assert pairs > 100


def test_spectral_pair_adjacency_with_tied_real_parts():
    # a real eigenvalue whose real part ties the pair must not split it
    A = np.array([
        [-1.0, 1.0, 0.0],
        [-1.0, -1.0, 0.0],
        [0.0, 0.0, -1.0],
    ])
    f = spectral_decompose(A)
    pair_pos = [i for i in range(3) if abs(f.lam[i].imag) > 0]
    assert pair_pos == [0, 1] or pair_pos == [1, 2]
    i = pair_pos[0]
    assert np.isclose(f.lam[i + 1], np.conj(f.lam[i]))
    rec = (f.R * f.lam) @ f.Rinv
    assert np.allclose(rec, A, atol=1e-12)
    # nested pairs on one real part: sorted by |Im|, negative Im first
    a = -1.0
    for b, c in ((3.0, 0.5), (1.0, 1.0 + 1e-10)):
        A = sla.block_diag([[a, b], [-b, a]], [[a, c], [-c, a]], [[a]])
        f = spectral_decompose(A)
        lo, hi = sorted((b, c))
        assert np.allclose(f.lam.imag, [0.0, -lo, lo, -hi, hi], rtol=1e-13,
                           atol=0.0)
        assert f.lam[2] == np.conj(f.lam[1]) and f.lam[4] == np.conj(f.lam[3])


def test_spectral_repeated_pair_stays_paired():
    # LAPACK returns the two copies of the pair with bit-equal values
    rot = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    f = spectral_decompose(sla.block_diag(rot, rot))
    assert np.allclose(f.lam, [-1 - 2j, -1 + 2j, -1 - 2j, -1 + 2j])
    for i in (0, 2):
        assert f.lam[i + 1] == np.conj(f.lam[i])
        assert np.array_equal(f.R[:, i + 1], np.conj(f.R[:, i]))
    assert np.allclose((f.R * f.lam) @ f.Rinv, sla.block_diag(rot, rot),
                       atol=1e-12)


def test_spectral_rejects_a_broken_pair(monkeypatch):
    # LAPACK never returns this; the check guards the rule all consumers read
    lam = np.array([-1 + 1j, -1 - (1 + 1e-15) * 1j])
    monkeypatch.setattr(sla, "eig", lambda A: (lam, np.eye(2, dtype=complex)))
    with pytest.raises(PairingViolation):
        spectral_decompose(-np.eye(2))


# ------------------------------------------------------------------- lyapunov

def test_lyapunov_identity_case():
    X = solve_lyapunov(-np.eye(3), 2.0 * np.eye(3))
    assert np.allclose(X, np.eye(3), atol=1e-13)


def test_lyapunov_diagonal_entrywise():
    A = np.diag([-1.0, -2.0])
    Q = np.array([[2.0, 3.0], [3.0, 4.0]])
    X = solve_lyapunov(A, Q)
    assert np.allclose(X, np.ones((2, 2)), atol=1e-13)


def test_lyapunov_residual_and_symmetry():
    rng = rng_for(3)
    for n in (5, 20, 200):
        A = random_stable(n, rng)
        B = rng.standard_normal((n, 2))
        Q = B @ B.T
        X = solve_lyapunov(A, Q)
        assert np.array_equal(X, X.T)
        res = np.linalg.norm(A @ X + X @ A.T + Q)
        assert res <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(X) + np.linalg.norm(Q))
        assert np.min(np.linalg.eigvalsh(X)) >= -1e-10 * np.linalg.norm(X, 2)


@pytest.mark.parametrize("n", [5, 150])
def test_lyapunov_nonsymmetric_q_solves_its_symmetric_part(n):
    rng = rng_for(17)
    A = random_stable(n, rng)
    Q = rng.standard_normal((n, n))
    for transpose, coef in ((False, A), (True, A.T)):
        X = solve_lyapunov(A, Q, transpose=transpose)
        ref = sla.solve_continuous_lyapunov(coef, -Q)
        ref = 0.5 * (ref + ref.T)
        assert np.linalg.norm(X - ref) <= 1e-11 * np.linalg.norm(ref)


def test_lyapunov_rejects_unstable():
    with pytest.raises(NotStable):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))


def test_lyapunov_shared_schur_matches_scipy_both_ways():
    rng = rng_for(4)
    n = 30
    A = random_stable(n, rng) + 0.3 * rng.standard_normal((n, n))
    assert np.linalg.eigvals(A).real.max() < 0
    B = rng.standard_normal((n, 3))
    Q = B @ B.T
    S = hurwitz_schur(A)
    for transpose, coef in ((False, A), (True, A.T)):
        X = lyapunov_via(S, Q, transpose)
        ref = sla.solve_continuous_lyapunov(coef, -Q)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
        # the matrix solve is the documented composition on its form
        assert np.array_equal(solve_lyapunov(A, Q, transpose=transpose), X)


def lyapunov_via(S, Q, transpose=False):
    """X of A X + X A^T + Q = 0 (or its transpose) for the form S of A, as
    ``solve_lyapunov`` composes it for a matrix: the Schur solve on
    S.congruence(Q), lifted by S.lift and symmetrized."""
    X = S.lift(solve_lyapunov(S, S.congruence(Q), transpose=transpose))
    return 0.5 * (X + X.T)


def test_matrix_solve_is_one_call(monkeypatch):
    # the matrix path runs the Schur-form body itself, not a second call
    # through the module global (which a wrapper would count twice)
    import qbmor.matrix_equations as me
    rng = rng_for(47)
    A = random_stable(6, rng)
    B = rng.standard_normal((6, 2))
    ref = solve_lyapunov(A, B @ B.T)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    original = me.solve_lyapunov
    monkeypatch.setattr(me, "solve_lyapunov", counted)
    X = me.solve_lyapunov(A, B @ B.T)
    assert len(calls) == 1
    assert np.array_equal(X, ref)


@pytest.mark.parametrize("transpose", [False, True])
def test_schur_form_solve_changes_no_basis(transpose, monkeypatch):
    # given the form, F and X are Schur coordinates: the solve is the block
    # solve on the symmetric part of -F, and no basis change runs
    rng = rng_for(44)
    A = permuted_block_diagonal(rng)
    S = hurwitz_schur(A)
    B = rng.standard_normal((A.shape[0], 3))
    F = S.congruence(B @ B.T)
    ref = -0.5 * (F + F.T)
    _solve_lyapunov_blocks(S, ref, transpose)

    def boom(*args, **kwargs):
        raise AssertionError("a basis change ran")

    monkeypatch.setattr(HurwitzSchur, "left", boom)
    monkeypatch.setattr(HurwitzSchur, "right", boom)
    X = solve_lyapunov(S, F, transpose=transpose)
    assert np.array_equal(X, 0.5 * (ref + ref.T))


def test_lyapunov_stability_read_from_schur_blocks():
    # the 2x2 Schur block carries Re = 0.1 on its diagonal
    rot = np.array([[0.1, 1.0], [-1.0, 0.1]])
    A = sla.block_diag(rot, [[-1.0]])
    for bad in (A, sla.block_diag([[0.0, 1.0], [-1.0, 0.0]], [[-1.0]])):
        with pytest.raises(NotStable):
            hurwitz_schur(bad)
        with pytest.raises(NotStable):
            solve_lyapunov(bad, np.eye(3))
    # the same pair moved into the left half-plane passes
    X = solve_lyapunov(sla.block_diag(rot - 0.2 * np.eye(2), [[-1.0]]),
                       np.eye(3))
    assert np.all(np.isfinite(X))


def schur_form_split_pair(n, rng):
    """(T, Z) of a Hurwitz Schur form whose T has a 2x2 block across the
    midpoint split, rows n//2 - 1 and n//2, and more 2x2 blocks
    scattered."""
    T = np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    mid = n // 2
    i = 0
    while i < n:
        pair = i + 1 < n and (i == mid - 1
                              or (i + 1 != mid - 1 and rng.random() < 0.3))
        if pair:
            a = -rng.uniform(0.5, 2.0)
            T[i, i] = T[i + 1, i + 1] = a
            T[i, i + 1] = rng.uniform(0.5, 2.0)
            T[i + 1, i] = -rng.uniform(0.5, 2.0)
            i += 2
        else:
            T[i, i] = -rng.uniform(0.5, 2.0)
            i += 1
    Z = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return T, Z


def one_block(T, Z):
    """The form of one coupled block with Schur factor T and basis Z."""
    return HurwitzSchur([(np.arange(T.shape[0]), Z, T)])


def trsyl_route(T, F, transpose):
    """The unblocked route on Schur coordinates F: one trsyl call on the
    whole of T."""
    trsyl = sla.get_lapack_funcs("trsyl", (T,))
    trana, tranb = ("T", "N") if transpose else ("N", "T")
    Y, scale, info = trsyl(T, T, -0.5 * (F + F.T), trana=trana, tranb=tranb)
    assert info == 0 and scale == 1.0
    return 0.5 * (Y + Y.T)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
def test_lyapunov_blocked_matches_scipy_both_ways(n):
    rng = rng_for(n)
    T, Z = schur_form_split_pair(n, rng)
    S = one_block(T, Z)
    if n > 1:
        assert T[n // 2, n // 2 - 1] != 0.0
    A = Z @ T @ Z.T
    B = rng.standard_normal((n, 3))
    Q = B @ B.T
    for transpose, coef in ((False, A), (True, A.T)):
        X = lyapunov_via(S, Q, transpose)
        ref = sla.solve_continuous_lyapunov(coef, -Q)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
        res = np.linalg.norm(coef @ X + X @ coef.T + Q)
        assert res <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(X)
                               + np.linalg.norm(Q))
        if n <= 64:
            # one block: bit-identical to a single trsyl call
            F = S.congruence(Q)
            assert np.array_equal(solve_lyapunov(S, F, transpose=transpose),
                                  trsyl_route(T, F, transpose))


@pytest.mark.parametrize("transpose", [False, True])
def test_lyapunov_recursion_matches_sylvester_recursion(transpose):
    # n > 64 recurses; T has a 2x2 block across its first split
    n = 150
    rng = rng_for(17)
    T = schur_form_split_pair(n, rng)[0]
    assert T[n // 2, n // 2 - 1] != 0.0
    B = rng.standard_normal((n, 4))
    F = B @ B.T
    Y = F.copy()
    _solve_lyapunov_quasi_triangular(T, Y, transpose)
    ref = F.copy()
    _solve_quasi_triangular(T, T, ref, transpose)
    assert np.linalg.norm(Y - Y.T) <= 1e-13 * np.linalg.norm(ref)
    assert np.linalg.norm(Y - ref) <= 1e-13 * np.linalg.norm(ref)


# symmetric: the eigenbasis path divides, -1e160 / (2 * -1e-160)
_DIVISION = (np.array([[-1e-160]]), np.array([[1e160]]), "non-finite")
# nonsymmetric: X11 = 1e300 / (2e-10) overflows; trsyl rescales it and
# reports scale < 1, which must not pass as a finite answer
_TRSYL = (np.array([[-1e-10, 1.0], [0.0, -1.0]]), np.diag([1e300, 1.0]),
          "trsyl scale")


@pytest.mark.parametrize("A, Q, match, transpose", [
    _DIVISION + (False,), _DIVISION + (True,),
    _TRSYL + (False,), _TRSYL + (True,),
], ids=["False", "True", "trsyl-False", "trsyl-True"])
def test_lyapunov_overflow_is_a_breakdown(A, Q, match, transpose):
    S = hurwitz_schur(A)
    assert (S.nd == S.n) == np.array_equal(A, A.T)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverBreakdown, match=match):
            solve_lyapunov(A, Q, transpose=transpose)


def test_symmetric_coefficient_errors_are_typed():
    nan = np.array([[-1.0, np.nan], [np.nan, -1.0]])
    with pytest.raises(SolverBreakdown):
        hurwitz_schur(nan)
    with pytest.raises(SolverBreakdown):
        solve_lyapunov(nan, np.eye(2))
    # eigenvalues -1 and 0, then -1 and 1
    for bad in (np.array([[-0.5, 0.5], [0.5, -0.5]]),
                np.array([[0.0, 1.0], [1.0, 0.0]])):
        with pytest.raises(NotStable):
            hurwitz_schur(bad)
        with pytest.raises(NotStable):
            solve_lyapunov(bad, np.eye(2))


def test_schur_failure_is_a_breakdown(monkeypatch):
    # a LAPACK failure in a nonsymmetric block surfaces as a typed error
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(sla, "schur", fail)
    with pytest.raises(SolverBreakdown,
                       match="Schur factorization failed: forced"):
        hurwitz_schur(np.array([[-1.0, 2.0], [0.0, -3.0]]))


@pytest.mark.parametrize("transpose", [False, True])
def test_symmetric_coefficient_solves_in_its_eigenbasis(transpose):
    # n > _TRSYL_LEAF, so a nonsymmetric A of this size would recurse
    n = 150
    rng = rng_for(19)
    A = random_stable(n, rng)
    A = 0.5 * (A + A.T)
    S = hurwitz_schur(sp.csr_array(A))
    assert S.nd == S.n and len(S.blocks) == 1 and S.blocks[0].T.ndim == 1
    B = rng.standard_normal((n, 3))
    Q = B @ B.T
    X = solve_lyapunov(sp.csr_array(A), Q, transpose=transpose)
    ref = sla.solve_continuous_lyapunov(A, -Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
    # given the form, the same solve works on Schur coordinates
    Xs = solve_lyapunov(S, S.congruence(Q), transpose=transpose)
    assert np.linalg.norm(S.lift(Xs) - ref) <= 1e-12 * np.linalg.norm(ref)


def test_nonsymmetric_coefficient_keeps_the_schur_form():
    rng = rng_for(20)
    A = random_stable(80, rng)
    S = hurwitz_schur(A)
    assert S.nd != S.n
    Q = np.eye(80)
    ref = sla.solve_continuous_lyapunov(A, -Q)
    Xs = solve_lyapunov(S, S.congruence(Q))
    assert np.linalg.norm(S.lift(Xs) - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("transpose", [False, True])
def test_lyapunov_breakdown_in_a_deep_block_is_typed(transpose):
    # eigenvalues +1 and -1 in different halves make T Y + Y T^T singular;
    # only the trsyl of one off-diagonal block of side 50 sees both
    n = 200
    rng = rng_for(6)
    T = np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    d = -np.linspace(2.0, 4.0, n)
    d[10], d[150] = 1.0, -1.0
    T[np.diag_indices(n)] = d
    S = one_block(T, np.linalg.qr(rng.standard_normal((n, n)))[0])
    with pytest.raises(SolverBreakdown):
        solve_lyapunov(S, np.eye(n), transpose=transpose)


def permuted_block_diagonal(rng):
    """A Hurwitz A, symmetrically permuted, whose pattern falls into a
    symmetric 6 x 6 block, nonsymmetric 5 x 5 and 70 x 70 blocks (the
    larger one recurses past the trsyl leaf) and three 1 x 1 blocks."""
    G = rng.standard_normal((6, 6))
    A = sla.block_diag(-(G @ G.T) - np.eye(6), random_stable(5, rng),
                       np.diag([-1.0, -2.5, -0.5]), random_stable(70, rng))
    perm = rng.permutation(A.shape[0])
    return A[np.ix_(perm, perm)]


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
def test_hurwitz_schur_splits_the_decoupled_blocks(sparse):
    A = permuted_block_diagonal(rng_for(40))
    n = A.shape[0]
    S = hurwitz_schur(sp.csr_array(A) if sparse else A)
    # the 1 x 1 blocks share the identity basis; diagonal blocks come first
    assert [b.T.ndim for b in S.blocks] == [1, 1, 2, 2]
    assert sorted((b.T.ndim, b.T.shape[0], b.Z is None)
                  for b in S.blocks) == [(1, 3, True), (1, 6, False),
                                         (2, 5, False), (2, 70, False)]
    assert S.nd == 9 and S.nd != S.n
    Z = S.left(np.eye(n))
    assert np.linalg.norm(Z.T @ Z - np.eye(n)) <= 1e-13 * n
    T = np.zeros((n, n))
    for b in S.blocks:
        T[b.seg, b.seg] = np.diag(b.T) if b.T.ndim == 1 else b.T
    for rec in (Z @ T @ Z.T, S.lift(T)):
        assert np.linalg.norm(rec - A) <= 1e-13 * np.linalg.norm(A)
    assert np.linalg.norm(S.congruence(A) - T) <= 1e-13 * np.linalg.norm(A)
    F = rng_for(41).standard_normal((n, 3))
    assert np.allclose(S.left(F, transpose=True), Z.T @ F, atol=1e-14)
    assert np.allclose(S.right(F.T), F.T @ Z, atol=1e-14)
    assert np.allclose(S.right(F.T, transpose=True), F.T @ Z.T, atol=1e-14)


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("in_basis", [False, True],
                         ids=["original", "in_schur_basis"])
def test_block_lyapunov_matches_one_coupled_block(transpose, in_basis):
    rng = rng_for(42)
    A = permuted_block_diagonal(rng)
    n = A.shape[0]
    T, Z = sla.schur(A, output="real")
    coupled = HurwitzSchur([(np.arange(n), Z, T)])
    B = rng.standard_normal((n, 3))
    Q = B @ B.T
    ref = lyapunov_via(coupled, Q, transpose)
    S = hurwitz_schur(A)
    if in_basis:
        X = S.lift(solve_lyapunov(S, S.congruence(Q), transpose=transpose))
    else:
        X = solve_lyapunov(A, Q, transpose=transpose)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)


def test_one_block_keeps_the_dense_arithmetic():
    # a connected A is the one-block case: every basis change and the
    # solve are bit-identical to the dense products of a single Schur form
    rng = rng_for(43)
    n = 90
    A = random_stable(n, rng)
    S = hurwitz_schur(A)
    assert len(S.blocks) == 1 and S.blocks[0].idx == slice(0, n)
    Z, T = S.blocks[0].Z, S.blocks[0].T
    X = rng.standard_normal((n, n))
    F = rng.standard_normal((n, 4))
    assert np.array_equal(S.left(F, transpose=True), Z.T @ F)
    assert np.array_equal(S.left(F), Z @ F)
    assert np.array_equal(S.right(F.T), F.T @ Z)
    assert np.array_equal(S.congruence(X), Z.T @ X @ Z)
    assert np.array_equal(S.lift(X), Z @ X @ Z.T)
    for transpose in (False, True):
        Y = X + X.T
        ref = Y.copy()
        _solve_lyapunov_quasi_triangular(T, ref, transpose)
        _solve_lyapunov_blocks(S, Y, transpose)
        assert np.array_equal(Y, ref)


def test_hurwitz_schur_reads_explicit_zeros_as_no_coupling():
    # a stored zero does not join two blocks, and a non-finite entry is a
    # typed breakdown wherever it sits
    A = sp.csr_array(([-1.0, 0.0, -2.0, -3.0], ([0, 0, 1, 2], [0, 2, 1, 2])),
                     shape=(3, 3))
    assert A.nnz == 4
    before = [a.copy() for a in (A.data, A.indices, A.indptr)]
    S = hurwitz_schur(A)
    assert len(S.blocks) == 1 and S.blocks[0].Z is None and S.nd == S.n
    # the form drops the stored zero from its own copy, not from A
    for a, b in zip((A.data, A.indices, A.indptr), before):
        assert np.array_equal(a, b)
    assert np.array_equal(S.d, [-1.0, -2.0, -3.0])
    with pytest.raises(SolverBreakdown):
        hurwitz_schur(np.diag([-1.0, np.inf]))


def _flagship_model_A():
    from qbmor import IrkaConfig, tqb_irka
    red, _, _ = tqb_irka(chafee_infante(100),
                         IrkaConfig(r=10, gamma=0.01, seed=0))
    return red.A


@pytest.mark.parametrize("case", ["chafee", "random", "flagship_model"])
def test_hurwitz_schur_of_dense_input_equals_its_csr_copy(case):
    A = {"chafee": lambda: chafee_infante(100).A.toarray(),
         "random": lambda: random_stable(50, rng_for(44)),
         "flagship_model": _flagship_model_A}[case]()
    dense, csr = hurwitz_schur(A), hurwitz_schur(sp.csr_array(A))
    assert len(dense.blocks) == len(csr.blocks)
    for a, b in zip(dense.blocks, csr.blocks):
        assert np.array_equal(np.arange(A.shape[0])[a.idx],
                              np.arange(A.shape[0])[b.idx])
        assert a.seg == b.seg
        assert (a.Z is None) == (b.Z is None)
        assert a.Z is None or np.array_equal(a.Z, b.Z)
        assert np.array_equal(a.T, b.T)


# ------------------------------------------------------------------ sylvester

def test_sylvester_scalar_example():
    A = -np.eye(2)
    V = solve_sylvester_shifted(A, np.array([2.0]), np.eye(2)[:, :1])
    assert np.allclose(V, -np.eye(2)[:, :1], atol=1e-14)


def test_sylvester_empty(monkeypatch):
    band_lu = record_band_factors(monkeypatch)
    dense_lu = _record_factor_dtypes(monkeypatch, sla, "lu_factor")
    # a dense pencil and a band one (the identity fills 1/40 of n^2)
    forms = [shifted_lu(-np.eye(3)), shifted_lu(-sp.eye_array(40))]
    assert forms[0].band is None and forms[1].band is not None
    for form in forms:
        n = form.A.shape[0]
        V = solve_sylvester_shifted(form, np.zeros(0, dtype=complex),
                                    np.zeros((n, 0)))
        assert V.shape == (n, 0)
    assert band_lu == [] and dense_lu == []


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_sylvester_residual(seed):
    rng = rng_for(seed)
    n, r = 10, 4
    A = random_stable(n, rng)
    lam = rng.uniform(0.5, 3.0, r) + 1j * rng.standard_normal(r)
    Rhs = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
    V = solve_sylvester_shifted(A, lam, Rhs)
    res = -V @ np.diag(lam) - A @ V - Rhs
    scale = np.linalg.norm(A) * np.linalg.norm(V) + np.linalg.norm(Rhs)
    assert np.linalg.norm(res) <= 1e-10 * scale


def test_sylvester_with_mass_matrix():
    rng = rng_for(5)
    n, r = 8, 3
    A = random_stable(n, rng)
    E = np.eye(n) + 0.2 * rng.standard_normal((n, n))
    lam = rng.uniform(0.5, 2.0, r).astype(complex)
    Rhs = rng.standard_normal((n, r)).astype(complex)
    V = solve_sylvester_shifted(A, lam, Rhs, E=E)
    res = -E @ V @ np.diag(lam) - A @ V - Rhs
    assert np.linalg.norm(res) <= 1e-10 * (np.linalg.norm(A) + np.linalg.norm(E)) * max(
        1.0, np.linalg.norm(V))


def test_sylvester_conjugate_pair_columns_exact():
    rng = rng_for(6)
    n = 6
    A = random_stable(n, rng)
    lam0 = 1.0 - 2.0j
    lam = np.array([lam0, np.conj(lam0)])
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    Rhs = np.column_stack([b, np.conj(b)])
    V = solve_sylvester_shifted(A, lam, Rhs)
    assert np.array_equal(V[:, 1], np.conj(V[:, 0]))
    res = -V @ np.diag(lam) - A @ V - Rhs
    assert np.linalg.norm(res) <= 1e-11 * np.linalg.norm(V)


def test_sylvester_singular_shift_detected():
    A = -np.eye(2)
    with pytest.raises(SingularShift):
        solve_sylvester_shifted(A, np.array([1.0 + 0.0j]), np.ones((2, 1)))


_THREAD_DIGEST = """
import hashlib, warnings
import numpy as np
from qbmor import (IrkaConfig, chafee_infante, optimality_residuals,
                   rescale, solve_bases, tqb_irka)
h = hashlib.sha1()
sys_ = chafee_infante(10)
for seed in (0, 1):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        red, bases, _ = tqb_irka(sys_, IrkaConfig(r=4, gamma=0.01, seed=seed))
    ssys, sred = rescale(sys_, 0.01), red.rescaled(0.01)
    res = optimality_residuals(ssys, sred, solve_bases(ssys, sred))
    for a in (red.A, red.H.mode1(), red.B, red.C, *red.N, bases.V, bases.W,
              [v for _, v in res.items()], res.Phi_C, res.Phi_B, res.Phi_N,
              res.Phi_H, res.Phi_lambda):
        h.update(np.ascontiguousarray(a).tobytes())
print(h.hexdigest())
"""


def test_dense_pencil_results_do_not_depend_on_the_blas_thread_count():
    # chafee_infante(10)'s pencils and its models' are dense; OpenBLAS's
    # complex getrs rounded their one-column shifted solves differently at
    # one and two threads, which moved the reductions and the residuals
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        sys.modules["qbmor"].__file__)))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, QBMOR_THREADS=threads,
                   **{var: threads for var in (
                       "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                       "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")})
        out = subprocess.run([sys.executable, "-c", _THREAD_DIGEST], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1]


# a real shift, a lone complex shift, and a conjugate pair whose right-hand
# side columns are not conjugate, so the partner is solved on conj factors
_MIXED_SHIFTS = np.array([0.7, 1.5 - 0.4j, 0.9 - 2.0j, 0.9 + 2.0j])


@pytest.mark.parametrize("with_mass", [False, True])
@pytest.mark.parametrize("transposed", [False, True])
def test_sylvester_shared_form_both_ways(with_mass, transposed):
    rng = rng_for(12)
    n = 9
    A = random_stable(n, rng)
    E = np.eye(n) + 0.2 * rng.standard_normal((n, n)) if with_mass else None
    lam = _MIXED_SHIFTS
    Rhs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    form = shifted_lu(A, E)
    Aop, Eop = (A.T, None if E is None else E.T) if transposed else (A, E)
    V = solve_sylvester_shifted(form, lam, Rhs, transpose=transposed)
    direct = solve_sylvester_shifted(Aop, lam, Rhs, E=Eop)
    assert np.linalg.norm(V - direct) <= 1e-12 * np.linalg.norm(V)
    Em = np.eye(n) if Eop is None else Eop
    res = -Em @ V @ np.diag(lam) - Aop @ V - Rhs
    scale = (np.linalg.norm(Aop) + np.linalg.norm(Em)) * np.linalg.norm(V)
    assert np.linalg.norm(res) <= 1e-10 * (scale + np.linalg.norm(Rhs))
    for i, li in enumerate(lam):
        ref = np.linalg.solve(Aop + li * Em, -Rhs[:, i])
        assert np.allclose(V[:, i], ref, rtol=1e-11, atol=1e-12)


# repeated real, lone complex and paired shifts: the first pair's partner
# right-hand side is the conjugate of its lead's, the second's is not
_REPEATED_SHIFTS = np.array([0.7, 1.5 - 0.4j, 0.9 - 2.0j, 0.9 + 2.0j, 0.7,
                             0.9 - 2.0j, 0.9 + 2.0j, 1.5 - 0.4j])


@pytest.mark.parametrize("with_mass", [False, True])
@pytest.mark.parametrize("sparse", [False, True])
def test_sylvester_block_solve_matches_per_column(sparse, with_mass,
                                                  monkeypatch):
    rng = rng_for(16)
    if sparse:
        n = 80
        A, E = _sparse_pencil(n, with_mass, rng)
        Ain, Ein = sp.csr_array(A), None if E is None else sp.csr_array(E)
    else:
        n = 9
        A = random_stable(n, rng)
        E = (np.eye(n) + 0.2 * rng.standard_normal((n, n)) if with_mass
             else None)
        Ain, Ein = A, E
    form = shifted_lu(Ain, Ein)
    assert (form.band is not None) == sparse
    band_lu = record_band_factors(monkeypatch)
    dense_lu = _record_factor_dtypes(monkeypatch, sla, "lu_factor")
    lam = _REPEATED_SHIFTS
    Em = np.eye(n) if E is None else E
    for transposed in (False, True):
        Aop, Eop = (A.T, Em.T) if transposed else (A, Em)
        Rhs = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        Rhs[:, 3] = np.conj(Rhs[:, 2])
        V = solve_sylvester_shifted(form, lam, Rhs, transpose=transposed)
        ref = np.column_stack([np.linalg.solve(Aop + li * Eop, -Rhs[:, i])
                               for i, li in enumerate(lam)])
        assert np.linalg.norm(V - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(V[:, 3], np.conj(V[:, 2]))
        assert np.abs(V[:, 6] - np.conj(V[:, 5])).max() > 1e-3
    # both directions share one complex factorization over the one
    # distinct real shift and the two distinct complex leads
    if sparse:
        assert band_lu == [(np.complex128, 3 * n)]
        assert dense_lu == []
    else:
        assert dense_lu == [np.complex128]
        assert band_lu == []


def test_sylvester_rejects_a_right_hand_side_of_the_wrong_shape():
    # a 2 x 3 Rhs holds six entries, as an n x 2 one does for n = 3, but
    # is no right-hand side of two shifts
    A = random_stable(3, rng_for(18))
    lam = np.array([1.0, 2.0])
    for Rhs in (np.ones((2, 3)), np.ones(6), np.ones((3, 1)), np.ones(3)):
        with pytest.raises(ValueError, match="shape"):
            solve_sylvester_shifted(A, lam, Rhs)
    # a vector of length n is the one column of a single shift
    V = solve_sylvester_shifted(A, lam[:1], np.ones(3))
    assert V.shape == (3, 1)
    assert np.allclose(V[:, 0], np.linalg.solve(A + np.eye(3), -np.ones(3)))


def test_sylvester_form_rejects_a_second_mass_matrix():
    form = shifted_lu(-np.eye(2))
    with pytest.raises(ValueError):
        solve_sylvester_shifted(form, np.array([1.0]), np.ones((2, 1)),
                                E=np.eye(2))


def _record_factor_dtypes(monkeypatch, module, name, shapes=None):
    factored = []
    factor = getattr(module, name)

    def counting(M, *args, **kwargs):
        factored.append(M.dtype)
        if shapes is not None:
            shapes.append(M.shape)
        return factor(M, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return factored


def _four_solves(form, n, rng):
    for transpose in (False, False, True, True):
        Rhs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        Rhs[:, 0] = Rhs[:, 0].real
        V = solve_sylvester_shifted(form, _MIXED_SHIFTS, Rhs,
                                    transpose=transpose)
        # the real shift's column of a real Rhs is real to the bit, so
        # realify_basis drops nothing by keeping its real part
        assert np.all(V[:, 0].imag == 0.0)


def test_sylvester_factors_once_per_shift_in_one_complex_batch(monkeypatch):
    rng = rng_for(13)
    n = 7
    A = random_stable(n, rng)
    shapes = []
    factored = _record_factor_dtypes(monkeypatch, sla, "lu_factor", shapes)
    _four_solves(shifted_lu(A), n, rng)
    # one batch over the real shift, the lone complex shift and the pair's
    # lead; the pair's partner is never factored
    assert factored == [np.complex128]
    assert shapes == [(3, n, n)]


def test_sylvester_sparse_factors_once_per_shift(monkeypatch):
    rng = rng_for(13)
    n = 80
    A = sp.csr_array(_sparse_pencil(n, False, rng)[0])
    factored = record_band_factors(monkeypatch)
    dense = _record_factor_dtypes(monkeypatch, sla, "lu_factor")
    _four_solves(shifted_lu(A), n, rng)
    # one block-diagonal band matrix over the real shift and the two
    # complex shifts that are factored
    assert factored == [(np.complex128, 3 * n)]
    assert dense == []


def _sparse_pencil(n, with_mass, rng):
    """A with a few zeros on its diagonal and E (None, or the identity plus
    a few entries, one of which cancels an entry of A), filling less than
    1/20 of n^2 together."""
    A = (np.diag(-(1.0 + rng.uniform(0, 1, n)) * (rng.uniform(0, 1, n) < 0.8))
         + rng.standard_normal((n, n)) * (rng.uniform(0, 1, (n, n)) < 0.02))
    if not with_mass:
        return A, None
    E = np.eye(n) + 0.2 * rng.standard_normal((n, n)) * (
        rng.uniform(0, 1, (n, n)) < 0.01)
    i, j = np.argwhere(A - np.diag(np.diag(A)) != 0.0)[0]
    E[i, j] = -A[i, j]  # A + 1 E has a zero where both patterns have entries
    return A, E


@pytest.mark.parametrize("with_mass", [False, True])
def test_sylvester_sparse_form_matches_dense(with_mass):
    rng = rng_for(14)
    n = 80
    A, E = _sparse_pencil(n, with_mass, rng)
    # dense input made sparse by the fill rule, and sparse input
    Es = None if E is None else sp.csr_array(E)
    forms = [shifted_lu(A, E), shifted_lu(sp.csr_array(A), Es)]
    assert all(form.band is not None for form in forms)
    Em = np.eye(n) if E is None else E
    for transposed in (False, True):
        Aop, Eop = (A.T, Em.T) if transposed else (A, Em)
        Rhs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        ref = np.column_stack([np.linalg.solve(Aop + lam * Eop, -Rhs[:, i])
                               for i, lam in enumerate(_MIXED_SHIFTS)])
        for form in forms:
            V = solve_sylvester_shifted(form, _MIXED_SHIFTS, Rhs,
                                        transpose=transposed)
            assert np.linalg.norm(V - ref) <= 1e-12 * np.linalg.norm(ref)


def _check_singular_shift_and_non_finite_rhs(form, singular, transpose):
    n = form.A.shape[0]
    for lam in singular:
        with pytest.raises(SingularShift):
            solve_sylvester_shifted(form, np.array(lam),
                                    np.ones((n, len(lam))),
                                    transpose=transpose)
    bad = np.ones((n, 2))
    bad[1, 0] = np.nan
    for lam in ([3.0, 4.0], [3.0 - 1.0j, 3.0 + 1.0j]):
        with pytest.raises(SingularShift):
            solve_sylvester_shifted(form, np.array(lam), bad,
                                    transpose=transpose)


# A + 1 I has a zero column
_SINGULAR_AT_ONE = np.array([[-1.0, 5.0], [0.0, -2.0]])


@pytest.mark.parametrize("transposed", [False, True])
def test_sylvester_form_singular_shift_and_non_finite_rhs(transposed):
    form = shifted_lu(_SINGULAR_AT_ONE)
    assert form.band is None
    _check_singular_shift_and_non_finite_rhs(
        form, ([1.0 + 0.0j], [3.0, 1.0]), transposed)


def _sparse_singular_pencil(n):
    """diag(-1, -2, ..., -2) with a 5 above the -1, so A + 1 I has a zero
    column, and a block [[-1, 1], [-1, -1]] with eigenvalues -1 +- i, so
    A + (1 -+ i) I is exactly singular; 105 of n^2 entries."""
    A = sp.lil_array((n, n))
    A.setdiag(-2.0)
    A[0, 0], A[0, 1] = -1.0, 5.0
    A[2, 2], A[2, 3], A[3, 2], A[3, 3] = -1.0, 1.0, -1.0, -1.0
    return sp.csc_array(A)


@pytest.mark.parametrize("transposed", [False, True])
def test_sylvester_sparse_form_singular_shift_and_non_finite_rhs(transposed):
    A = _sparse_singular_pencil(100)
    form = shifted_lu(A)
    assert form.band is not None
    # one singular block among real blocks, and among complex blocks (a
    # pair lead, beside a lone complex shift)
    singular = ([1.0 + 0.0j], [3.0, 1.0, 4.0], [3.0, 1.0 + 1.0j, 1.0 - 1.0j],
                [2.5 - 0.5j, 1.0 - 1.0j, 1.0 + 1.0j])
    _check_singular_shift_and_non_finite_rhs(form, singular, transposed)
    # the same form solves nonsingular shift vectors exactly
    A = A.toarray()
    lam = np.array([3.0, 2.5 - 0.5j, 1.0 + 2.0j, 1.0 - 2.0j])
    Rhs = np.ones((100, 4), dtype=complex)
    V = solve_sylvester_shifted(form, lam, Rhs, transpose=transposed)
    Aop = A.T if transposed else A
    ref = np.column_stack([np.linalg.solve(Aop + s * np.eye(100), -Rhs[:, i])
                           for i, s in enumerate(lam)])
    assert np.linalg.norm(V - ref) <= 1e-13 * np.linalg.norm(ref)


def test_shifted_lu_format_rule():
    # pattern of A plus the diagonal: 398 of 200^2 cells, 38 of 20^2; the
    # rule reads sparse and dense input alike
    for A in (chafee_infante(100).A, chafee_infante(100).A.toarray()):
        assert shifted_lu(A).band is not None
    for A in (chafee_infante(10).A, chafee_infante(10).A.toarray()):
        assert shifted_lu(A).band is None
    assert shifted_lu(random_stable(50, rng_for(15))).band is None
    # a sparse array that fills more than 1/20 of n^2 is factored dense
    form = shifted_lu(sp.csr_array(-np.ones((3, 3))))
    assert form.band is None and form.E is None
    assert np.array_equal(form.A, -np.ones((3, 3)))
    form = shifted_lu(-np.eye(3), sp.eye_array(3))
    assert form.band is None
    assert np.array_equal(form.E, np.eye(3))
    # a sparse mass matrix with a sparse pencil stays on the shared pattern,
    # its band storage that of the identity a pencil without one holds
    form = shifted_lu(-np.eye(100), sp.eye_array(100))
    assert form.band is not None
    assert np.array_equal(form.E, shifted_lu(-np.eye(100)).E)


def _dense_mass_pencil():
    rng = rng_for(18)
    G = rng.standard_normal((50, 50))
    return random_stable(50, rng), G @ G.T + 50 * np.eye(50)


@pytest.mark.parametrize("case", ["chafee", "random", "flagship_model",
                                  "band_mass", "dense_mass"])
def test_shifted_lu_of_dense_input_equals_its_csr_copy(case):
    A, E = {"chafee": lambda: (chafee_infante(100).A.toarray(), None),
            "random": lambda: (random_stable(50, rng_for(15)), None),
            "flagship_model": lambda: (_flagship_model_A(), None),
            "band_mass": lambda: _sparse_pencil(80, True, rng_for(18)),
            "dense_mass": _dense_mass_pencil}[case]()
    ref = shifted_lu(A, E)
    if case in ("chafee", "band_mass"):
        assert ref.band is not None
    else:
        assert ref.band is None
    csr = [sp.csr_array(A), None if E is None else sp.csr_array(E)]
    mixed = [(csr[0], E)] + ([] if E is None else [(A, csr[1])])
    for form in [shifted_lu(*csr)] + [shifted_lu(*p) for p in mixed]:
        if ref.band is None:
            assert form.band is None
        else:
            for field in ("order", "kl", "ku"):
                assert np.array_equal(getattr(form.band, field),
                                      getattr(ref.band, field))
        assert np.array_equal(form.A, ref.A)
        assert (form.E is None) == (ref.E is None)
        assert ref.E is None or np.array_equal(form.E, ref.E)


def _band_pencils():
    rng = rng_for(17)
    A, E = _sparse_pencil(80, True, rng)
    return {"chafee": (chafee_infante(100).A, None),
            "fhn": (fitzhugh_nagumo(67).A, None),
            "random_mass": (sp.csr_array(A), sp.csr_array(E))}


@pytest.mark.parametrize("case", ["chafee", "fhn", "random_mass"])
def test_band_form_matches_dense_form(case):
    A, E = _band_pencils()[case]
    form = shifted_lu(A, E)
    band = form.band
    n = A.shape[0]
    # chafee is tridiagonal as it stands; fhn needs the reordering; the
    # random pencil's band is nearly full
    if case == "chafee":
        assert (band.kl, band.ku) == (1, 1)
    if case == "fhn":
        assert max(band.kl, band.ku) < 10
        assert not np.array_equal(band.rank, np.arange(n))
    Ad = A.toarray()
    Ed = None if E is None else E.toarray()
    dense = ShiftedLU(Ad, Ed)
    Em = np.eye(n) if Ed is None else Ed
    rng = rng_for(18)
    for transposed in (False, True):
        Rhs = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        Rhs[:, 3] = np.conj(Rhs[:, 2])
        V = solve_sylvester_shifted(form, _REPEATED_SHIFTS, Rhs,
                                    transpose=transposed)
        ref = solve_sylvester_shifted(dense, _REPEATED_SHIFTS, Rhs,
                                      transpose=transposed)
        assert np.linalg.norm(V - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(V[:, 3], np.conj(V[:, 2]))
        Aop, Eop = (Ad.T, Em.T) if transposed else (Ad, Em)
        res = -Eop @ V @ np.diag(_REPEATED_SHIFTS) - Aop @ V - Rhs
        assert np.linalg.norm(res) <= 1e-12 * (
            np.linalg.norm(Aop) + np.linalg.norm(Eop)) * np.linalg.norm(V)


def test_band_form_singular_shift_in_reordered_pencil():
    # the singular pencil with its rows and columns shuffled: the band
    # order differs from the given one, and the zero pivot still shows
    n = 100
    p = rng_for(19).permutation(n)
    A = _sparse_singular_pencil(n)[p][:, p]
    form = shifted_lu(A)
    assert not np.array_equal(form.band.rank, np.arange(n))
    for lam in ([1.0], [3.0, 1.0 + 1.0j, 1.0 - 1.0j]):
        with pytest.raises(SingularShift):
            solve_sylvester_shifted(form, np.array(lam),
                                    np.ones((n, len(lam))))


def test_dense_shifted_solve_is_one_lu_solve_call(monkeypatch):
    # three distinct own shifts, one of them repeated and one a pair's lead
    # with a partner Rhs that is not conjugate: each solve stacks every
    # column into one batched call
    calls = []

    def counting(lu_and_piv, b, *args, _f=sla.lu_solve, **kwargs):
        calls.append(b.shape)
        return _f(lu_and_piv, b, *args, **kwargs)

    monkeypatch.setattr(sla, "lu_solve", counting)
    n = 20
    A = random_stable(n, rng_for(21))
    form = shifted_lu(A)
    assert form.band is None
    lam = np.array([0.7, 1.5 - 0.4j, 1.5 + 0.4j, 0.7, 2.0])
    Rhs = rng_for(22).standard_normal((n, 5)) + 0j
    for transposed in (False, True):
        calls.clear()
        V = solve_sylvester_shifted(form, lam, Rhs, transpose=transposed)
        assert calls == [(3, n, 2)]
        Aop = A.T if transposed else A
        ref = np.column_stack([np.linalg.solve(Aop + s * np.eye(n),
                                               -Rhs[:, i])
                               for i, s in enumerate(lam)])
        assert np.linalg.norm(V - ref) <= 1e-12 * np.linalg.norm(ref)


def test_band_rhs_of_both_infinities_raises_singular_shift():
    # a diagonal band solves the column to +inf and -inf with no NaN, so a
    # sum over it would warn "invalid value" in place of the typed error
    n = 40
    form = shifted_lu(sp.csr_array(-3.0 * np.eye(n)))
    assert form.band is not None
    Rhs = np.zeros((n, 1))
    Rhs[0, 0], Rhs[1, 0] = np.inf, -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularShift, match="singular"):
            solve_sylvester_shifted(form, np.array([2.0]), Rhs)


@pytest.mark.parametrize("kind", ["dense", "band"])
def test_singular_shift_named_then_form_solves_on(kind):
    A = _SINGULAR_AT_ONE if kind == "dense" else _sparse_singular_pencil(100)
    form = shifted_lu(A)
    assert (form.band is None) == (kind == "dense")
    n = A.shape[0]
    Ad = A if kind == "dense" else A.toarray()
    lam = np.array([3.0, 2.5 - 0.5j, 1.0 + 2.0j, 1.0 - 2.0j])
    Rhs = rng_for(23).standard_normal((n, 4)) + 0j
    for transposed in (False, True):
        # names the singular shift, among any whose blocks a transposed
        # band solve reaches after it
        with pytest.raises(SingularShift, match=r"singular.*\(1\+0j\)"):
            solve_sylvester_shifted(form, np.array([3.0, 1.0]),
                                    np.ones((n, 2)), transpose=transposed)
        V = solve_sylvester_shifted(form, lam, Rhs, transpose=transposed)
        Aop = Ad.T if transposed else Ad
        res = -V @ np.diag(lam) - Aop @ V - Rhs
        assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(Rhs)


def test_sparse_shifted_solves_never_call_splu(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(spla, "splu", refuse)
    rng = rng_for(20)
    for A, E in _band_pencils().values():
        form = shifted_lu(A, E)
        assert form.band is not None
        _four_solves(form, A.shape[0], rng)
        solve_sylvester_shifted(A, _MIXED_SHIFTS,
                                np.ones((A.shape[0], 4)), E=E)


# -------------------------------------------------------------- pair rule

def _pairs(lam, strict=True):
    return [ix.tolist() for ix in conjugate_pairs(np.array(lam, dtype=complex),
                                                  strict)]


def test_conjugate_pairs_empty():
    assert _pairs([]) == [[], [], []]
    assert all(ix.dtype == np.intp for ix in conjugate_pairs(np.array([])))


def test_conjugate_pairs_repeated_pair_is_walked_greedily():
    # entry 1 equals conj(entry 2) too; the walk must not pair them
    a = -1.0 + 2.0j
    assert _pairs([a, a.conjugate(), a, a.conjugate()]) == [[], [0, 2], [1, 3]]
    assert _pairs([-3.0, a, a.conjugate(), -0.5]) == [[0, 3], [1], [2]]


def test_conjugate_pairs_trailing_lone_entry():
    lam = [-1.0 + 1j, -1.0 - 1j, -2.0 + 1j]
    with pytest.raises(PairingViolation):
        conjugate_pairs(np.array(lam))
    assert _pairs(lam, strict=False) == [[], [0, 2], [1]]


def test_conjugate_pairs_negative_zero_imaginary_is_real():
    lam = np.array([complex(-1.0, -0.0), complex(-2.0, 0.0)])
    assert np.signbit(lam[0].imag)
    assert _pairs(lam) == [[0, 1], [], []]


# -------------------------------------------------------------------- reflect

def test_reflect_examples():
    assert np.array_equal(reflect_unstable(np.array([-1.0, -2.0], dtype=complex)),
                          np.array([-1.0, -2.0], dtype=complex))
    out = reflect_unstable(np.array([1 + 2j, 1 - 2j]))
    assert np.array_equal(out, np.array([-1 + 2j, -1 - 2j]))
    out = reflect_unstable(np.array([1j]))
    assert out[0] == complex(-1e-8, 1.0)


def test_reflect_keeps_imaginary_parts_bit_exact():
    lam = np.array([complex(2.0, 3.0), complex(2.0, -3.0), complex(0.0, -0.0),
                    complex(-0.0, 0.0), complex(-1.0, -0.0),
                    complex(0.0, 1.5), complex(0.0, -1.5), complex(4.0, -0.0)])
    out = reflect_unstable(lam)
    assert np.array_equal(out.imag.view(np.int64), lam.imag.view(np.int64))
    assert np.array_equal(out.real, [-2.0, -2.0, -1e-8, -1e-8, -1.0,
                                     -1e-8, -1e-8, -4.0])
    # both members of each pair share their new real part
    _, lead, partner = conjugate_pairs(out)
    assert lead.size == 2
    assert np.array_equal(out[partner], out[lead].conj())


# -------------------------------------------------------------------- realify

def test_realify_all_real():
    rng = rng_for(7)
    Vc = rng.standard_normal((4, 3)).astype(complex)
    lam = np.array([-1.0, -2.0, -3.0], dtype=complex)
    assert np.array_equal(realify_basis(Vc, lam), Vc.real)


def test_realify_pair_columns():
    a = np.array([1.0, 2.0])
    b = np.array([3.0, 4.0])
    Vc = np.column_stack([a + 1j * b, a - 1j * b])
    lam = np.array([-1 - 1j, -1 + 1j])
    out = realify_basis(Vc, lam)
    assert np.array_equal(out, np.column_stack([a, b]))


def test_realify_tiny_imaginary_pair_gives_independent_columns():
    # a real cluster that LAPACK splits into an exact pair with Im ~ 1e-11
    rng = rng_for(11)
    v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    lam = np.array([-4e4 - 7e-12j, -4e4 + 7e-12j])
    out = realify_basis(np.column_stack([v, np.conj(v)]), lam)
    assert np.array_equal(out, np.column_stack([v.real, v.imag]))
    assert np.linalg.matrix_rank(out) == 2


def test_realify_preserves_real_span():
    rng = rng_for(8)
    n = 6
    A = random_stable(n, rng)
    f = spectral_decompose(A)
    Vr = realify_basis(f.R, f.lam)
    # compare orthogonal projectors of the two column spans
    Q1, _ = np.linalg.qr(Vr)
    stacked = np.column_stack([f.R.real, f.R.imag])
    Q2, _ = np.linalg.qr(stacked)
    rank = np.linalg.matrix_rank(stacked)
    P1 = Q1 @ Q1.T
    P2 = Q2[:, :rank] @ Q2[:, :rank].T
    assert np.allclose(P1, P2, atol=1e-10)


def test_realify_rejects_bad_pairing():
    Vc = np.ones((3, 2), dtype=complex)
    for lam in ([-1 + 1j, -2 - 1j], [-1 - 1j, -1 + (1 + 1e-15) * 1j]):
        with pytest.raises(PairingViolation):
            realify_basis(Vc, np.array(lam))


def test_sylvester_then_realify_conjugate_closed_data():
    # conjugate-closed shifts and right-hand side give conjugate-paired
    # columns, real columns for real shifts, and an exact realification
    rng = rng_for(9)
    n, r = 7, 4
    A = random_stable(n, rng)
    f = spectral_decompose(random_stable(r, rng))
    lam = -f.lam  # mirrored spectrum, conjugate-closed and adjacent
    B = rng.standard_normal((n, 2))
    Btil = f.Rinv @ rng.standard_normal((r, 2))
    Rhs = B @ Btil.T  # rows of Btil inherit the conjugate pairing
    V = solve_sylvester_shifted(A, lam, Rhs)
    i = 0
    while i < r:
        if lam[i].imag != 0.0:
            assert np.array_equal(V[:, i + 1], np.conj(V[:, i]))
            i += 2
        else:
            assert np.max(np.abs(V[:, i].imag)) <= 1e-12 * max(1.0, np.abs(V[:, i]).max())
            i += 1
    Vr = realify_basis(V, lam)
    assert Vr.dtype == float
