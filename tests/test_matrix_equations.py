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
    HurwitzSchur, hurwitz_schur, spectral_decompose, solve_lyapunov,
    solve_sylvester_shifted, shifted_lu, reflect_unstable, realify_basis,
    _solve_lyapunov_quasi_triangular, _solve_quasi_triangular,
)
from qbmor.benchmarks import chafee_infante
from conftest import rng_for


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
        X = solve_lyapunov(S, Q, transpose=transpose)
        ref = sla.solve_continuous_lyapunov(coef, -Q)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
        # the matrix and the factored form give the same solve
        assert np.array_equal(solve_lyapunov(A, Q, transpose=transpose), X)


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
    """Hurwitz Schur form whose T has a 2x2 block across the midpoint
    split, rows n//2 - 1 and n//2, and more 2x2 blocks scattered."""
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
    return HurwitzSchur(T=T, Z=Z)


def trsyl_route(S, Q, transpose):
    """The unblocked route: one trsyl call on the whole of T."""
    T, Z = S.T, S.Z
    trsyl = sla.get_lapack_funcs("trsyl", (T,))
    F = Z.T.dot((-Q).dot(Z))
    trana, tranb = ("T", "N") if transpose else ("N", "T")
    Y, scale, info = trsyl(T, T, F, trana=trana, tranb=tranb)
    assert info == 0 and scale == 1.0
    X = Z.dot(Y).dot(Z.T)
    return 0.5 * (X + X.T)


@pytest.mark.parametrize("n", [1, 63, 64, 65, 129, 300])
def test_lyapunov_blocked_matches_scipy_both_ways(n):
    rng = rng_for(n)
    S = schur_form_split_pair(n, rng)
    if n > 1:
        assert S.T[n // 2, n // 2 - 1] != 0.0
    A = S.Z @ S.T @ S.Z.T
    B = rng.standard_normal((n, 3))
    Q = B @ B.T
    for transpose, coef in ((False, A), (True, A.T)):
        X = solve_lyapunov(S, Q, transpose=transpose)
        ref = sla.solve_continuous_lyapunov(coef, -Q)
        assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
        res = np.linalg.norm(coef @ X + X @ coef.T + Q)
        assert res <= 1e-10 * (np.linalg.norm(A) * np.linalg.norm(X)
                               + np.linalg.norm(Q))
        if n <= 64:
            # one block: bit-identical to a single trsyl call
            assert np.array_equal(X, trsyl_route(S, Q, transpose))


@pytest.mark.parametrize("transpose", [False, True])
def test_lyapunov_recursion_matches_sylvester_recursion(transpose):
    # n > 64 recurses; T has a 2x2 block across its first split
    n = 150
    rng = rng_for(17)
    T = schur_form_split_pair(n, rng).T
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
    assert hurwitz_schur(A).diagonal == np.array_equal(A, A.T)
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


@pytest.mark.parametrize("transpose", [False, True])
def test_symmetric_coefficient_solves_in_its_eigenbasis(transpose):
    # n > _TRSYL_LEAF, so a nonsymmetric A of this size would recurse
    n = 150
    rng = rng_for(19)
    A = random_stable(n, rng)
    A = 0.5 * (A + A.T)
    S = hurwitz_schur(sp.csr_array(A))
    assert S.diagonal
    assert np.array_equal(S.T, np.diag(np.diag(S.T)))
    B = rng.standard_normal((n, 3))
    Q = B @ B.T
    X = solve_lyapunov(S, Q, transpose=transpose)
    ref = sla.solve_continuous_lyapunov(A, -Q)
    assert np.linalg.norm(X - ref) <= 1e-12 * np.linalg.norm(ref)
    # in the form's own basis the same solve skips both basis changes
    Xs = solve_lyapunov(S.in_schur_basis(), S.Z.T @ Q @ S.Z,
                        transpose=transpose)
    assert np.linalg.norm(S.Z @ Xs @ S.Z.T - ref) \
        <= 1e-12 * np.linalg.norm(ref)


def test_nonsymmetric_coefficient_keeps_the_schur_form():
    rng = rng_for(20)
    A = random_stable(80, rng)
    S = hurwitz_schur(A)
    assert not S.diagonal
    Q = np.eye(80)
    ref = sla.solve_continuous_lyapunov(A, -Q)
    Xs = solve_lyapunov(S.in_schur_basis(), S.Z.T @ Q @ S.Z)
    assert np.linalg.norm(S.Z @ Xs @ S.Z.T - ref) \
        <= 1e-12 * np.linalg.norm(ref)


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
    S = HurwitzSchur(T=T, Z=np.linalg.qr(rng.standard_normal((n, n)))[0])
    with pytest.raises(SolverBreakdown):
        solve_lyapunov(S, np.eye(n), transpose=transpose)


# ------------------------------------------------------------------ sylvester

def test_sylvester_scalar_example():
    A = -np.eye(2)
    V = solve_sylvester_shifted(A, np.array([2.0]), np.eye(2)[:, :1])
    assert np.allclose(V, -np.eye(2)[:, :1], atol=1e-14)


def test_sylvester_empty():
    V = solve_sylvester_shifted(-np.eye(3), np.zeros(0, dtype=complex),
                                np.zeros((3, 0)))
    assert V.shape == (3, 0)


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
    V = solve_sylvester_shifted(form.T if transposed else form, lam, Rhs)
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
    assert sp.issparse(form.A) == sparse
    sparse_lu = _record_factor_dtypes(monkeypatch, spla, "splu")
    dense_lu = _record_factor_dtypes(monkeypatch, sla, "lu_factor")
    lam = _REPEATED_SHIFTS
    Em = np.eye(n) if E is None else E
    for transposed in (False, True):
        Aop, Eop = (A.T, Em.T) if transposed else (A, Em)
        Rhs = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
        Rhs[:, 3] = np.conj(Rhs[:, 2])
        V = solve_sylvester_shifted(form.T if transposed else form, lam, Rhs)
        ref = np.column_stack([np.linalg.solve(Aop + li * Eop, -Rhs[:, i])
                               for i, li in enumerate(lam)])
        assert np.linalg.norm(V - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(V[:, 3], np.conj(V[:, 2]))
        assert np.abs(V[:, 6] - np.conj(V[:, 5])).max() > 1e-3
    # both directions share one real and one complex factorization
    assert (sparse_lu if sparse else dense_lu) == [np.float64, np.complex128]
    assert (dense_lu if sparse else sparse_lu) == []


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
    for op in (form, form, form.T, form.T):
        Rhs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        solve_sylvester_shifted(op, _MIXED_SHIFTS, Rhs)


def test_sylvester_factors_once_per_shift_real_in_real_arithmetic(monkeypatch):
    rng = rng_for(13)
    n = 7
    A = random_stable(n, rng)
    shapes = []
    factored = _record_factor_dtypes(monkeypatch, sla, "lu_factor", shapes)
    _four_solves(shifted_lu(A), n, rng)
    # one batch over the real shift, one over the lone complex shift and
    # the pair's lead; the pair's partner is never factored
    assert factored == [np.float64, np.complex128]
    assert shapes == [(1, n, n), (2, n, n)]


def test_sylvester_sparse_factors_once_per_shift(monkeypatch):
    rng = rng_for(13)
    n = 80
    A = sp.csr_array(_sparse_pencil(n, False, rng)[0])
    shapes = []
    factored = _record_factor_dtypes(monkeypatch, spla, "splu", shapes)
    dense = _record_factor_dtypes(monkeypatch, sla, "lu_factor")
    _four_solves(shifted_lu(A), n, rng)
    # one block-diagonal matrix over the real shift, one over the two
    # complex shifts that are factored
    assert factored == [np.float64, np.complex128]
    assert shapes == [(n, n), (2 * n, 2 * n)]
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
    assert all(sp.issparse(form.A) for form in forms)
    Em = np.eye(n) if E is None else E
    for transposed in (False, True):
        Aop, Eop = (A.T, Em.T) if transposed else (A, Em)
        Rhs = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        ref = np.column_stack([np.linalg.solve(Aop + lam * Eop, -Rhs[:, i])
                               for i, lam in enumerate(_MIXED_SHIFTS)])
        for form in forms:
            V = solve_sylvester_shifted(form.T if transposed else form,
                                        _MIXED_SHIFTS, Rhs)
            assert np.linalg.norm(V - ref) <= 1e-12 * np.linalg.norm(ref)


def _check_singular_shift_and_non_finite_rhs(form, singular):
    n = form.A.shape[0]
    for lam in singular:
        with pytest.raises(SingularShift):
            solve_sylvester_shifted(form, np.array(lam), np.ones((n, len(lam))))
    bad = np.ones((n, 2))
    bad[1, 0] = np.nan
    for lam in ([3.0, 4.0], [3.0 - 1.0j, 3.0 + 1.0j]):
        with pytest.raises(SingularShift):
            solve_sylvester_shifted(form, np.array(lam), bad)


# A + 1 I has a zero column
_SINGULAR_AT_ONE = np.array([[-1.0, 5.0], [0.0, -2.0]])


@pytest.mark.parametrize("transposed", [False, True])
def test_sylvester_form_singular_shift_and_non_finite_rhs(transposed):
    form = shifted_lu(_SINGULAR_AT_ONE)
    assert isinstance(form.A, np.ndarray)
    _check_singular_shift_and_non_finite_rhs(
        form.T if transposed else form, ([1.0 + 0.0j], [3.0, 1.0]))


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
    form = shifted_lu(_sparse_singular_pencil(100))
    assert sp.issparse(form.A)
    # one singular block among real blocks, and among complex blocks (a
    # pair lead, beside a lone complex shift)
    singular = ([1.0 + 0.0j], [3.0, 1.0, 4.0], [3.0, 1.0 + 1.0j, 1.0 - 1.0j],
                [2.5 - 0.5j, 1.0 - 1.0j, 1.0 + 1.0j])
    _check_singular_shift_and_non_finite_rhs(
        form.T if transposed else form, singular)
    # the same form solves nonsingular shift vectors exactly
    A = form.A.toarray()
    lam = np.array([3.0, 2.5 - 0.5j, 1.0 + 2.0j, 1.0 - 2.0j])
    Rhs = np.ones((100, 4), dtype=complex)
    V = solve_sylvester_shifted(form.T if transposed else form, lam, Rhs)
    Aop = A.T if transposed else A
    ref = np.column_stack([np.linalg.solve(Aop + s * np.eye(100), -Rhs[:, i])
                           for i, s in enumerate(lam)])
    assert np.linalg.norm(V - ref) <= 1e-13 * np.linalg.norm(ref)


def test_shifted_lu_format_rule():
    # pattern of A plus the diagonal: 398 of 200^2 cells, 38 of 20^2; the
    # rule reads sparse and dense input alike
    for A in (chafee_infante(100).A, chafee_infante(100).A.toarray()):
        assert sp.issparse(shifted_lu(A).A)
    for A in (chafee_infante(10).A, chafee_infante(10).A.toarray()):
        assert isinstance(shifted_lu(A).A, np.ndarray)
    assert not sp.issparse(shifted_lu(random_stable(50, rng_for(15))).A)
    # a sparse array that fills more than 1/20 of n^2 is factored dense
    form = shifted_lu(sp.csr_array(-np.ones((3, 3))))
    assert isinstance(form.A, np.ndarray) and form.E is None
    form = shifted_lu(-np.eye(3), sp.eye_array(3))
    assert isinstance(form.A, np.ndarray)
    assert np.array_equal(form.E, np.eye(3))
    # a sparse mass matrix with a sparse pencil stays on the shared pattern
    form = shifted_lu(-np.eye(100), sp.eye_array(100))
    assert sp.issparse(form.A) and sp.issparse(form.E)


# -------------------------------------------------------------------- reflect

def test_reflect_examples():
    assert np.array_equal(reflect_unstable(np.array([-1.0, -2.0], dtype=complex)),
                          np.array([-1.0, -2.0], dtype=complex))
    out = reflect_unstable(np.array([1 + 2j, 1 - 2j]))
    assert np.array_equal(out, np.array([-1 + 2j, -1 - 2j]))
    out = reflect_unstable(np.array([1j]))
    assert out[0] == complex(-1e-8, 1.0)


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
