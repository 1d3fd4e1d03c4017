"""Dense symmetric linear algebra used by the conditioning diagnostics.

Matrices are plain float64 2-D ``numpy`` arrays (row-major). Eigenvalues
of symmetric matrices are delegated to LAPACK via ``numpy.linalg.eigvalsh``,
which meets the accuracy contract here (all matrices are dense, n <= ~1000).
Condition numbers are read off a spectrum already in hand; those of
near-singular positive semidefinite matrices are floored so that
downstream logs stay finite, and the floor is always flagged.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, ShapeError

# Relative floor applied to the smallest eigenvalue when computing
# condition numbers of PSD matrices. Feature Grams of ReLU networks are
# routinely numerically singular, so a finite, flagged value is reported
# instead of inf.
COND_FLOOR_REL = 1e-14

SYM_TOL_DEFAULT = 1e-10


def _as_matrix(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ShapeError(f"matrix must be 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains non-finite entries")
    return a


def sym_eigvals(a):
    """Eigenvalues of a symmetric matrix, sorted ascending.

    ``a`` must be square and symmetric up to ``SYM_TOL_DEFAULT`` relative
    to its largest entry; the symmetrized matrix (a + a.T)/2 is what gets
    decomposed, so the result is insensitive to round-off asymmetry. An
    exactly symmetric ``a`` is decomposed as it is, which differs from that
    only where a + a.T overflows (entries above about 9e307) or a zero's
    sign differs from its mirror's.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    scale = max(1.0, float(a.max()), -float(a.min()))
    # a - a.T is antisymmetric, so its largest entry is its largest |entry|.
    asym = float((a - a.T).max())
    if asym > SYM_TOL_DEFAULT * scale:
        raise InvalidInputError(
            f"matrix is not symmetric: max |a - a.T| = {asym:.3e} "
            f"exceeds {SYM_TOL_DEFAULT:.1e} * {scale:.3e}"
        )
    if asym > 0.0:
        a = (a + a.T) / 2.0
    return np.linalg.eigvalsh(a)


class ConditionNumber(NamedTuple):
    """Condition number lambda_max / lambda_min of a symmetric PSD matrix.

    When lambda_min falls below the relative floor, ``value`` is computed
    against the floor instead and ``floored`` is set.
    """

    value: float
    floored: bool


def condition_number(eigs):
    """Condition number of a symmetric PSD matrix, with singularity floor.

    ``eigs`` is the matrix's ascending spectrum as ``sym_eigvals`` returns
    it, so one decomposition serves both the spectrum and its condition.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1 or eigs.size == 0:
        raise ShapeError(f"expected a 1-D spectrum, got shape {eigs.shape}")
    lam_max = float(eigs[-1])
    lam_min = float(eigs[0])
    if lam_max <= 0.0:
        raise InvalidInputError(
            f"matrix has no positive eigenvalue (lambda_max={lam_max:.3e})"
        )
    floor = COND_FLOOR_REL * lam_max
    if lam_min < floor:
        return ConditionNumber(lam_max / floor, True)
    return ConditionNumber(lam_max / lam_min, False)


def gershgorin_discs(a):
    """Per-row Gershgorin discs as (center, radius) pairs.

    Center is the diagonal entry, radius the absolute sum of the row's
    off-diagonal entries. Every eigenvalue lies in the union of the discs.
    """
    a = _as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ShapeError(f"matrix must be square, got {a.shape}")
    abs_a = np.abs(a)
    radii = abs_a.sum(axis=1) - np.diag(abs_a)
    return list(zip(np.diag(a).tolist(), radii.tolist()))
