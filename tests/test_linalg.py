import numpy as np
import pytest

from bwinr import (
    InvalidInputError,
    ShapeError,
    condition_number,
    gershgorin_discs,
    sym_eigvals,
)


def random_orthogonal(n, rng):
    # Gram-Schmidt of a random square matrix.
    a = rng.standard_normal((n, n))
    q = np.zeros_like(a)
    for i in range(n):
        v = a[:, i]
        for j in range(i):
            v = v - (q[:, j] @ v) * q[:, j]
        q[:, i] = v / np.linalg.norm(v)
    return q


class TestSymEigvals:
    def test_diagonal(self):
        assert np.allclose(sym_eigvals(np.diag([4.0, 1.0])), [1.0, 4.0])

    def test_characteristic_polynomial(self):
        # [[2,1],[1,2]] has eigenvalues 1 and 3.
        eigs = sym_eigvals(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(eigs, [1.0, 3.0], atol=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidInputError):
            sym_eigvals(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            sym_eigvals(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [2, 5, 17, 64])
    def test_similarity_recovers_diagonal(self, n):
        rng = np.random.default_rng(n)
        d = np.sort(rng.uniform(0.5, 10.0, size=n))
        q = random_orthogonal(n, rng)
        eigs = sym_eigvals(q.T @ np.diag(d) @ q)
        assert np.allclose(eigs, d, atol=1e-9)

    @pytest.fixture
    def eigvalsh_inputs(self, monkeypatch):
        inputs = []
        original = np.linalg.eigvalsh

        def recorded(a, *args, **kwargs):
            inputs.append(a)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        return inputs

    def test_exactly_symmetric_input_decomposed_as_is(self, eigvalsh_inputs):
        m = np.random.default_rng(3).standard_normal((9, 9))
        a = m + m.T
        eigs = sym_eigvals(a)
        assert len(eigvalsh_inputs) == 1 and eigvalsh_inputs[0] is a
        reference = np.linalg.eigvalsh((a + a.T) / 2.0)
        assert np.array_equal(eigs.view(np.int64), reference.view(np.int64))

    @pytest.mark.parametrize("big", [1e3, -1e3], ids=["positive", "negative"])
    def test_asymmetry_within_tolerance_symmetrized(self, eigvalsh_inputs, big):
        # The tolerance is relative to the largest |entry|, of either sign.
        a = np.array([[big, 1.0], [1.0 + 1e-8, 2.0]])
        sym_eigvals(a)
        assert len(eigvalsh_inputs) == 1
        assert np.array_equal(eigvalsh_inputs[0], (a + a.T) / 2.0)

    @pytest.mark.parametrize("big", [1e3, -1e3], ids=["positive", "negative"])
    def test_asymmetry_beyond_tolerance_rejected(self, big):
        with pytest.raises(InvalidInputError):
            sym_eigvals(np.array([[big, 1.0], [1.0 + 1e-6, 2.0]]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_equals_eigenvalue_sum(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((12, 12))
        a = m + m.T
        assert np.trace(a) == pytest.approx(sym_eigvals(a).sum(), abs=1e-9)


@pytest.mark.parametrize("fn", [sym_eigvals, gershgorin_discs])
@pytest.mark.parametrize("a, error", [
    (np.ones(3), ShapeError),
    (np.zeros((2, 3)), ShapeError),
    (np.array([[1.0, np.nan], [np.nan, 1.0]]), InvalidInputError),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), InvalidInputError),
    (np.array([[1.0, -np.inf], [-np.inf, 1.0]]), InvalidInputError),
], ids=["1-d", "non-square", "nan", "inf", "symmetric-inf"])
def test_matrix_input_checked(fn, a, error):
    with pytest.raises(error):
        fn(a)


class TestConditionNumber:
    def test_identity(self):
        cond = condition_number(sym_eigvals(np.eye(5)))
        assert cond.value == pytest.approx(1.0)
        assert not cond.floored

    def test_diagonal_ratio(self):
        cond = condition_number(sym_eigvals(np.diag([9.0, 1.0])))
        assert cond.value == pytest.approx(9.0)
        assert not cond.floored

    def test_rank_deficient_hits_floor(self):
        # eigenvalues {0, 2}: the zero eigenvalue is floored at 1e-14*2.
        cond = condition_number(sym_eigvals(np.array([[1.0, 1.0], [1.0, 1.0]])))
        assert cond.floored
        assert cond.value == pytest.approx(1e14, rel=1e-6)

    @pytest.mark.parametrize("c", [0.1, 1.0, 250.0])
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((9, 9))
        a = m @ m.T + 0.1 * np.eye(9)
        base = condition_number(sym_eigvals(a)).value
        assert condition_number(sym_eigvals(c * a)).value == pytest.approx(base, rel=1e-9)

    def test_zero_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            condition_number(sym_eigvals(np.zeros((3, 3))))

    @pytest.mark.parametrize("eigs", [np.eye(3), np.zeros(0)], ids=["matrix", "empty"])
    def test_takes_a_spectrum(self, eigs):
        with pytest.raises(ShapeError):
            condition_number(eigs)


class TestGershgorin:
    def test_diagonal_matrix(self):
        assert gershgorin_discs(np.diag([1.0, 2.0])) == [(1.0, 0.0), (2.0, 0.0)]

    def test_wavelet_overlap_constants(self):
        c1 = 0.030864
        discs = gershgorin_discs(np.array([[1 / 6, c1], [c1, 1 / 6]]))
        for center, radius in discs:
            assert center == pytest.approx(1 / 6)
            assert radius == pytest.approx(c1)

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_eigenvalues_lie_in_disc_union(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((10, 10))
        a = m + m.T
        discs = gershgorin_discs(a)
        for lam in sym_eigvals(a):
            assert any(abs(lam - c) <= r + 1e-12 for c, r in discs)
