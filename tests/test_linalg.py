"""Eigensolver contracts, Kronecker words and spectral projections; the
solvers take real symmetric input only."""

import numpy as np
import pytest

from heisenkit.linalg import (exceeds, hermitian_norm, hermitian_operator,
                              min_eigenvalue, spectral_norm,
                              spectral_projection)
from heisenkit.rotation import RationalAngle, x_op, y_op
from oracles import char_poly_coeffs, jacobi_eigenvalues, tensor_word

SQRT2 = np.sqrt(2.0)


def random_hermitian(rng, dim):
    a = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    return (a + a.conj().T) / 2


def test_eig_diagonal():
    a = np.diag([0.0, 4.0])
    assert min_eigenvalue(a) == 0.0
    assert np.allclose(jacobi_eigenvalues(a), [0.0, 4.0], atol=1e-14)


def test_eig_closed_form_2x2():
    # char poly of [[2,2],[2,-2]] is t^2 - 8: eigenvalues -2 sqrt 2, 2 sqrt 2
    a = np.array([[2.0, 2.0], [2.0, -2.0]])
    assert min_eigenvalue(a) == pytest.approx(-2 * SQRT2, abs=1e-12)
    assert np.allclose(np.roots(char_poly_coeffs(a)).real,
                       [2 * SQRT2, -2 * SQRT2], atol=1e-12)


def test_eig_y_half():
    a = np.array([[2.0, -2.0], [-2.0, 2.0]])
    assert min_eigenvalue(a) == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(jacobi_eigenvalues(a), [0.0, 4.0], atol=1e-12)


def test_eig_matches_char_poly_roots():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        for _ in range(10):
            a = random_hermitian(rng, dim).real
            w = np.linalg.eigvalsh(hermitian_operator(a))
            roots = np.sort(np.roots(char_poly_coeffs(a)).real)
            assert np.allclose(w, roots, atol=1e-8)
            assert min_eigenvalue(a) == w[0]


def test_eig_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        min_eigenvalue(np.array([[np.nan, 0], [0, 1.0]]))
    with pytest.raises(ValueError, match="not Hermitian"):
        min_eigenvalue(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        min_eigenvalue(np.zeros((2, 3)))


def test_real_input_stays_real(monkeypatch):
    solved = []

    def spy(a, *args, **kwargs):
        solved.append(a.dtype)
        return eigvalsh(a, *args, **kwargs)

    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    a = np.array([[2.0, 2.0], [2.0, -2.0]])
    assert hermitian_operator(a).dtype == np.float64
    assert hermitian_operator(np.eye(2, dtype=int)).dtype == np.float64
    assert min_eigenvalue(a) == pytest.approx(-2 * SQRT2, abs=1e-12)
    assert spectral_norm(a) == pytest.approx(2 * SQRT2, abs=1e-12)
    assert solved == [np.float64, np.float64]
    assert spectral_projection(a, [0.0]).dtype == np.float64


EVERY_SOLVER = (hermitian_operator, min_eigenvalue, hermitian_norm,
                spectral_norm, lambda a: spectral_projection(a, [0.05]),
                lambda a: exceeds(a, -10.0))


def test_complex_input_is_refused():
    # every operator heisenkit solves is real symmetric; complex input
    # used to be solved as complex128 Hermitian
    rng = np.random.default_rng(5)
    for a in (random_hermitian(rng, 3), np.eye(2, dtype=complex),
              np.eye(2, dtype=np.complex64), [[1.0, 1j], [-1j, 1.0]]):
        for solve in EVERY_SOLVER:
            with pytest.raises(ValueError, match="expected real entries"):
                solve(a)


def test_bad_input_rejected_for_real_and_complex():
    asym = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        min_eigenvalue(asym)
    with pytest.raises(ValueError, match="not Hermitian"):
        spectral_projection(asym, [0.5])
    for bad in (np.nan, np.inf):
        m = np.array([[1.0, bad], [bad, 1.0]])
        for fn in (min_eigenvalue, spectral_norm, hermitian_operator):
            with pytest.raises(ValueError, match="non-finite"):
                fn(m)
        with pytest.raises(ValueError, match="non-finite"):
            spectral_projection(m, [0.5])
        # complex input is refused as complex before it is looked at
        for solve in EVERY_SOLVER:
            with pytest.raises(ValueError, match="expected real entries"):
                solve(m.astype(complex))


def test_operator_norm_examples():
    assert spectral_norm(np.zeros((3, 3))) == 0.0
    assert spectral_norm(np.array([[2.0, 2.0], [2.0, -2.0]])) == pytest.approx(2 * SQRT2, abs=1e-12)
    for q in (1, 5, 9):
        assert spectral_norm(np.eye(q)) == pytest.approx(1.0, abs=1e-14)


def test_min_eigenvalue_examples():
    # X + Y at angle 1/2: [[2,-2],[-2,6]], min eig 4 - 2 sqrt 2
    m = np.array([[2.0, -2.0], [-2.0, 6.0]])
    assert min_eigenvalue(m) == pytest.approx(4 - 2 * SQRT2, abs=1e-12)
    assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-14)
    assert min_eigenvalue(np.diag([0.0, 4.0])) == pytest.approx(0.0, abs=1e-14)


def test_psd_agrees_with_principal_minors():
    # PSD iff every principal minor determinant is >= 0 (dim <= 4)
    rng = np.random.default_rng(23)
    from itertools import combinations
    for _ in range(40):
        dim = rng.integers(2, 5)
        a = random_hermitian(rng, dim).real
        a = (a + a.T) / 2
        me = min_eigenvalue(a)
        if abs(me) < 1e-6:
            continue  # skip numerically borderline draws
        minors_ok = all(
            np.linalg.det(a[np.ix_(idx, idx)]) >= -1e-10
            for r in range(1, dim + 1)
            for idx in combinations(range(dim), r)
        )
        assert minors_ok == (me >= 0)


def test_kron_block_structure():
    a = RationalAngle(1, 3)
    y = y_op(a)
    k = tensor_word(a, "IIY")
    assert k.shape == (27, 27)
    for i in range(9):
        assert np.array_equal(k[3 * i:3 * i + 3, 3 * i:3 * i + 3], y)
    assert np.count_nonzero(k) == 9 * np.count_nonzero(y)
    assert np.array_equal(tensor_word(RationalAngle(1, 2), "XI"),
                          np.diag([0.0, 0.0, 4.0, 4.0]))


def test_kron_norm_multiplicative():
    for a in (RationalAngle(1, 3), RationalAngle(2, 5), RationalAngle(3, 7)):
        x, y = x_op(a), y_op(a)
        letters = {"X": x, "Y": y, "S": x @ y + y @ x}
        for word in ("XY", "YS", "SX"):
            assert spectral_norm(tensor_word(a, word)) == pytest.approx(
                spectral_norm(letters[word[0]]) * spectral_norm(letters[word[1]]),
                rel=1e-10)


def test_kron_associative_exact():
    # at angle 1/2 every letter has small integer entries, so triple
    # products are exact in floats
    a = RationalAngle(1, 2)
    x, y = x_op(a), y_op(a)
    s = x @ y + y @ x
    xys = tensor_word(a, "XYS")
    assert np.array_equal(xys, np.kron(tensor_word(a, "XY"), s))
    assert np.array_equal(xys, np.kron(x, tensor_word(a, "YS")))


def test_spectral_projection_diagonal():
    x = x_op(RationalAngle(1, 2))  # diag(0, 4)
    proj = spectral_projection(x, [1.0])[0]
    assert np.allclose(proj, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.linalg.matrix_rank(proj) == 1


def test_spectral_projection_above_norm_is_identity():
    a = np.array([[1.0, 0.5], [0.5, -1.0]])
    proj = spectral_projection(a, [spectral_norm(a) + 1.0])[0]
    assert np.allclose(proj, np.eye(2), atol=1e-12)


def test_spectral_projection_is_orthogonal():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 6).real
    p = spectral_projection(a, [0.05])[0]
    assert np.max(np.abs(p - p.conj().T)) <= 1e-9
    assert np.max(np.abs(p @ p - p)) <= 1e-9
    assert np.linalg.matrix_rank(p) == np.sum(np.linalg.eigvalsh(a) <= 0.05)


def test_spectral_projection_ambiguous_cut():
    with pytest.raises(ValueError, match="ambiguous"):
        spectral_projection(np.diag([0.0, 4.0]), [4.0 + 1e-10])


def test_projection_product_bound_third():
    # ||P_{Y<=d} P_{X<=d}|| <= sqrt(2/(4-d)) at angle 1/3, d = 0.5
    a = RationalAngle(1, 3)
    px = spectral_projection(x_op(a), [0.5])[0]
    py = spectral_projection(y_op(a), [0.5])[0]
    norm = spectral_norm(py @ px)
    assert norm <= np.sqrt(2.0 / 3.5) + 1e-9


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3, 6, 12):
        a = random_hermitian(rng, dim).real
        w_j = jacobi_eigenvalues(a)
        w_l = np.linalg.eigvalsh(hermitian_operator(a))
        assert np.allclose(w_j, w_l, atol=1e-8)
    assert np.allclose(jacobi_eigenvalues(np.array([[2.0, 2.0], [2.0, -2.0]])),
                       [-2 * SQRT2, 2 * SQRT2], atol=1e-10)


def test_symmetry_is_checked_not_repaired():
    # one entry one ulp off its mirror, in one matrix of a stack, is
    # refused by every solver; exactly symmetric input comes back uncopied
    rng = np.random.default_rng(47)
    stack = np.stack([random_hermitian(rng, 4).real for _ in range(3)])
    assert hermitian_operator(stack) is stack
    stack[1, 2, 0] = np.nextafter(stack[1, 0, 2], np.inf)
    for solve in (min_eigenvalue, hermitian_norm,
                  lambda a: spectral_projection(a, [0.0]),
                  lambda a: exceeds(a[1], -10.0)):
        with pytest.raises(ValueError, match="not Hermitian"):
            solve(stack)
    h = random_hermitian(rng, 3)
    h[1, 1] += 1j * np.nextafter(0.0, 1.0)  # a diagonal that is not real
    with pytest.raises(ValueError, match="expected real entries"):
        min_eigenvalue(h)


def test_stack_is_validated_per_matrix():
    rng = np.random.default_rng(29)
    stack = np.stack([random_hermitian(rng, 4).real for _ in range(5)])
    assert np.array_equal(min_eigenvalue(stack),
                          [min_eigenvalue(a) for a in stack])
    for fn in (hermitian_operator, min_eigenvalue, hermitian_norm):
        bad = stack.copy()
        bad[2, 0, 1] += 1e-6  # one non-symmetric matrix in the middle
        with pytest.raises(ValueError, match="not Hermitian"):
            fn(bad)
        bad = stack.copy()
        bad[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            fn(bad)
    bad = stack.copy()
    bad[2, 3, 3] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        spectral_norm(bad)
    with pytest.raises(ValueError, match="non-finite"):
        spectral_projection(bad, [0.1])


def test_stacked_solvers_match_single_solves():
    rng = np.random.default_rng(31)
    stack = np.stack([random_hermitian(rng, 5).real for _ in range(4)])
    norms = hermitian_norm(stack)
    for i, a in enumerate(stack):
        assert norms[i] == pytest.approx(spectral_norm(a), abs=1e-12)
        assert hermitian_norm(a) == norms[i]
    assert np.array_equal(spectral_norm(stack), [spectral_norm(a) for a in stack])
    cuts = spectral_projection(stack, [-0.3, 0.2])
    assert cuts.shape == (2, 4, 5, 5)
    for k, delta in enumerate((-0.3, 0.2)):
        for i, a in enumerate(stack):
            single = spectral_projection(a, [delta])[0]
            assert np.max(np.abs(cuts[k, i] - single)) <= 1e-12


def test_stacked_projection_refuses_an_ambiguous_cut():
    # an eigenvalue within 1e-8 of one cut, in one matrix of the stack
    stack = np.stack([np.diag([0.0, 4.0]), np.diag([1.0, 0.3 + 5e-9]),
                      np.diag([2.0, 3.0])])
    with pytest.raises(ValueError, match="ambiguous"):
        spectral_projection(stack, [0.3])
    with pytest.raises(ValueError, match=r"ambiguous.*delta=0\.3$"):
        spectral_projection(stack, [0.1, 0.3, 0.5])
    assert spectral_projection(stack, [0.1, 0.5]).shape == (2, 3, 2, 2)


def test_exceeds_certifies_a_level_clearly_below_lambda_min():
    rng = np.random.default_rng(37)
    for dim in (2, 5, 40, 125):
        a = random_hermitian(rng, dim).real
        low = min_eigenvalue(a)
        assert exceeds(a, low - 1e-6)
        assert exceeds(a, low - 1.0)
    h = random_hermitian(rng, 6).real
    assert exceeds(h, min_eigenvalue(h) - 1e-6)


def test_exceeds_is_never_true_below_the_dense_eigenvalue():
    # levels approach the computed lambda_min from below down to rounding;
    # a certified level never exceeds it
    rng = np.random.default_rng(41)
    for dim in (1, 3, 17, 64):
        a = random_hermitian(rng, dim).real * 10.0 ** rng.integers(-3, 4)
        low = min_eigenvalue(a)
        scale = max(1.0, np.abs(a).max())
        for gap in 10.0 ** -np.arange(4.0, 17.0):
            level = low - gap * scale
            if exceeds(a, level):
                assert low >= level


def test_exceeds_refuses_levels_at_and_above_lambda_min():
    a = np.diag([1.0, 2.0, 3.0])
    assert not exceeds(a, 1.0)
    assert not exceeds(a, 1.5)
    rng = np.random.default_rng(43)
    b = random_hermitian(rng, 30).real
    assert not exceeds(b, min_eigenvalue(b))
    assert not exceeds(b, min_eigenvalue(b) + 1e-3)


def test_exceeds_refuses_lambda_min_inside_the_allowance_band():
    # diag(1, 2, 3) - level I is factored exactly, so only the allowance
    # refuses a level one ulp below lambda_min = 1; another ulp is far
    # inside the band for any sound allowance
    a = np.diag([1.0, 2.0, 3.0])
    level = np.nextafter(1.0, 0.0)
    assert np.linalg.cholesky(a - level * np.eye(3)).shape == (3, 3)
    assert not exceeds(a, level)
    assert not exceeds(a, np.nextafter(level, 0.0))


def test_exceeds_on_a_1x1_matrix():
    assert exceeds(np.array([[2.0]]), 1.0)
    assert exceeds(np.array([[-2.0]]), -3.0)
    assert not exceeds(np.array([[2.0]]), 2.0)
    assert not exceeds(np.array([[2.0]]), 3.0)


def test_exceeds_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        exceeds(np.array([[np.nan, 0], [0, 1.0]]), 0.0)
    with pytest.raises(ValueError, match="not Hermitian"):
        exceeds(np.array([[0.0, 1.0], [0.0, 0.0]]), -5.0)
    with pytest.raises(ValueError, match="one matrix"):
        exceeds(np.stack([np.eye(2), np.eye(2)]), 0.0)
    with pytest.raises(ValueError, match="finite"):
        exceeds(np.eye(2), np.nan)


def test_exceeds_leaves_its_input_unchanged():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    before = a.copy()
    assert exceeds(a, 0.5)
    assert np.array_equal(a, before)
