"""Eigenanalysis of the cumulative lag-autocovariance operator.

The operator of interest is K(u, v) = sum over lags k = 1..p of the
composition of the lag-k autocovariance kernel with its adjoint. Every
centered curve lies in the span of the panel's centered curves, and so
does the range of K, so its nonzero spectrum is that of an r x r matrix,
r being the panel's numerical rank (the method of snapshots, Sirovich,
1987). This module solves it there, and only there.

Every step takes a stack: K panels of n curves on one m-point grid, as
a (K, n, m) array, so many same-shape panels cost a few numpy calls
each, not a few per panel. ``_span_coordinates`` forms X, each panel's
root-weighted centered curves over 2^exponent, once, and finds an
orthonormal basis Q of their span. A diagonally pivoted Cholesky
factorization of the curve Gram matrix X X^T (a short numpy loop over
pivots, all panels at once) picks r pivot curves and forms only its
pivots' Gram rows, so no n x n or m x m matrix is built. Each panel
stops at LAPACK ``dpstrf``'s tolerance, n * eps times the largest
squared norm of its uncentered curves, while the others go on. The
panels are then grouped by rank r, and Householder ``qr``
orthonormalizes each group's pivot curves. The basis costs O(r n m) per
panel. In the coordinates X Q the quadrature weights are one, and
``_reduced_operator`` builds the r x r matrices sum_k M_k M_k^T with
M_k = Z_0^T Z_k / (n-p), Z being those coordinates. Every numpy call on
a stack makes, slice by slice, the call the panel alone would make, so
a panel's results do not depend on the stack it is solved in: they are
the same to the bit. ``_solve_stack`` is the one place that runs span
basis, rank groups and eigensolve (``eigvalsh``, or ``eigh`` and the
eigenfunctions where eigenvectors are wanted); ``decompose``,
``operator_eigenvalues_stack`` and the subspace-error study each read
what they need from its result.

``decompose`` is the entry point for an observed panel, a stack of one:
one symmetric eigensolve of that r x r matrix gives the spectrum,
clamped to zero below EIGENVALUE_CLAMP of the leading eigenvalue (the
rule every report and decision applies) and exactly zero past r, and r
sign-fixed eigenfunctions, a quadrature-orthonormal basis of the span.
The ``EigenDecomposition`` also carries its panel, its lag budget and
the centered curves' loadings on the eigenfunctions, in the curves'
units: the commands write those and fit their VAR, and the bootstrap
resamples them, so each panel is scaled, weighted, centered and
projected once.
``operator_eigenvalues`` (and ``operator_eigenvalues_stack``) is the
raw, unclamped, eigenvalues-only solve for the Monte Carlo studies.
Both agree with the m x m quadrature-weighted grid operator to roundoff
(about 1e-15 of the leading eigenvalue).

Every operator and span basis is built from the panel's values divided
by 2^``panel.exponent``, the binary exponent of their largest magnitude.
Dividing by a power of two is exact, so the spectrum maps back to the
curves' units exactly (times 2^(4 exponent)) and the decisions do not
depend on the curves' scale; only a leading eigenvalue that the curves'
units cannot hold as a normal double is an error (``ValidationError``).

This is the package's only eigen route. The grid-weighted m x m operator
and the paper's (n-p) x (n-p) dual matrix, built from lagged Gram
matrices of the centered curves, have the same nonzero spectrum; they
live in the test suite's ``tests/reference.py``, which acceptance
criterion 1 and the eigen tests check this module against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, NumericalFailureError, ParseError, ValidationError
from .grids import (
    FLOAT,
    CurvePanel,
    Grid,
    binary_exponents,
    centered_values,
    check_lag_budget,
    read_float_rows,
    write_csv_rows,
    write_json,
)

# Eigenvalues this far below the leading one are numerical noise and are
# clamped to zero in reports.
EIGENVALUE_CLAMP = 1e-12


@dataclass(frozen=True)
class EigenDecomposition:
    """Ordered spectrum and orthonormal eigenfunctions of ``panel``'s operator at ``p``.

    ``eigenvalues`` holds the m-entry spectrum (descending, entries below
    EIGENVALUE_CLAMP of the leading one clamped to zero, exact zeros past
    the numerical rank r), and ``eigenfunctions`` one orthonormal
    sign-fixed curve for each of the leading r: a basis of the span of
    the panel's centered curves. ``loadings`` (n x r) holds those curves'
    loadings on the r eigenfunctions, in the curves' units:
    ``loadings(panel, eigenfunctions)`` to roundoff.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    loadings: np.ndarray
    panel: CurvePanel
    p: int


def _clamp(eigenvalues: np.ndarray) -> np.ndarray:
    """Copy of descending spectra (one per row of a stack, or one alone)
    with entries below EIGENVALUE_CLAMP of their leading one set to zero."""
    lam = eigenvalues.copy()
    lam[lam < EIGENVALUE_CLAMP * np.maximum(lam[..., :1], 0.0)] = 0.0
    return lam


def _in_curve_units(lam: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Descending spectra (K x m) of the operators of K panels' values over
    2^exponent, each times 2^(4 exponent): the spectra in the curves' own
    units. A positive leading eigenvalue that overflows there, or falls
    below the smallest normal double, raises ``ValidationError``."""
    e = 4 * exponents
    # The leading eigenvalue in the curves' units lies in [2^(top-1), 2^top).
    top = np.frexp(lam[:, 0])[1] + e
    bad = (lam[:, 0] > 0) & ~((FLOAT.minexp < top) & (top <= FLOAT.maxexp))
    if bad.any():
        k = int(np.argmax(bad))
        raise ValidationError(
            f"curve values of magnitude {np.ldexp(0.5, exponents[k]):.3g} put the leading "
            f"eigenvalue ({lam[k, 0]:.3g} x 2^{e[k]}) outside the normal double range; "
            "rescale the curves"
        )
    return np.ldexp(lam, e[:, None])


def _symmetric_solve(a: np.ndarray, vectors: bool = False):
    """Ascending ``eigvalsh`` (or ``eigh`` with ``vectors``) of a stack of
    symmetric matrices."""
    try:
        return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc


def _reduced_operator(z: np.ndarray, p: int) -> np.ndarray:
    """The symmetric operators sum_k M_k M_k^T of a stack of panels whose
    centered curves are given as the rows of each z[i] in orthonormal
    coordinates, such as ``_span_coordinates``'s: M_k = Z_0^T Z_k / (n-p)
    is the lag-k product of the rows. numpy forms each M_k M_k^T as a
    symmetric product, so every sum is exactly symmetric."""
    n_eff = z.shape[1] - p
    z0t = z[:, :n_eff].transpose(0, 2, 1)
    acc = np.zeros((z.shape[0], z.shape[2], z.shape[2]))
    for k in range(1, p + 1):
        mk = z0t @ z[:, k : k + n_eff] / n_eff
        acc += mk @ mk.transpose(0, 2, 1)
    return acc


def _cholesky_pivots(x: np.ndarray, tol: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivot curves of the diagonally pivoted Cholesky factorization of
    X X^T (Higham, 1990) for each panel X = x[i] of a stack, as the pivot
    indices (K x steps, in pivot order) and the count r of each panel's.
    Each step pivots every panel on the largest diagonal entry of the Schur
    complement left by its previous pivots and forms only that pivot's Gram
    row (Harbrecht, Peters and Schneider, 2012); a panel stops once no entry
    exceeds its ``tol``, as LAPACK's ``dpstrf`` does, and its pivot curves
    span the rest to within it. A stopped panel's later steps divide by
    infinity, so they add nothing to its Schur complement.
    """
    count, n = x.shape[:2]
    factor = np.empty((count, min(x.shape[1:]), n))  # [i, j]: column j of panel i's factor
    pivots = np.empty((count, factor.shape[1]), dtype=np.intp)
    ranks = np.zeros(count, dtype=np.intp)
    diag = np.einsum("kij,kij->ki", x, x)
    live = np.ones(count, dtype=bool)
    at = np.arange(count)
    for j in range(factor.shape[1]):
        i = np.argmax(diag, axis=1)
        top = diag[at, i]
        live &= top > tol
        if not live.any():
            break
        ranks += live
        pivots[:, j] = i
        col = factor[:, j]
        np.subtract((x @ x[at, i, :, None])[..., 0],
                    (factor[at, None, :j, i] @ factor[:, :j])[:, 0], out=col)
        col /= np.sqrt(np.where(live, top, np.inf))[:, None]
        diag -= col * col
        diag[at, i] = -np.inf
    return pivots, ranks


def _span_coordinates(values: np.ndarray, weights: np.ndarray, p: int):
    """Span bases of a (K, n, m) stack of panels on one grid with quadrature
    ``weights``, after checking the lag budget ``p``: the binary exponent
    of each panel's values, then one (panels, Q, Z) group per numerical
    rank r found. Q (k x m x r) holds the orthonormal bases of the spans
    of X, the root-weighted centered curves over 2^exponent, of the k
    panels of that rank, and Z (k x n x r) their coordinates X Q. The rank
    tolerance is taken on the uncentered curves: what centering leaves of
    a panel of identical curves is roundoff, rank 0.
    """
    check_lag_budget(values.shape[1], p)
    exponents = binary_exponents(values)
    # Scaled, weighted and centered in place: each new buffer of this size
    # costs its page faults.
    x = np.ldexp(values, -exponents[:, None, None])
    x *= np.sqrt(weights)
    tol = x.shape[1] * FLOAT.eps * np.einsum("kij,kij->ki", x, x).max(axis=1)
    x -= x.mean(axis=1, keepdims=True)
    pivots, ranks = _cholesky_pivots(x, tol)
    groups = []
    for r in sorted(set(ranks.tolist())):  # np.unique would import numpy.ma, about 15 ms
        at = np.flatnonzero(ranks == r)
        xs = x if at.size == len(x) else x[at]
        q = np.linalg.qr(xs[np.arange(at.size)[:, None], pivots[at, :r]].transpose(0, 2, 1))[0]
        groups.append((at, q, xs @ q))
    return exponents, groups


def _solve_stack(values: np.ndarray, grid: Grid, p: int, vectors: bool = False):
    """The one stacked solve behind every entry point: span coordinates,
    then each rank group's reduced operator and its symmetric eigensolve.

    Returns ``exponents``, the binary exponent of each of the K panels of
    the (K, n, m) stack ``values``; ``lam``, their descending unclamped
    spectra (K x m) of the values over 2^exponent, exact zeros past each
    rank r; and one (at, f, z, v) per rank group: the group's panel
    indices, its coordinates as ``_span_coordinates`` gives them and,
    with ``vectors`` (else None), its eigenfunctions f (k x r x m) with
    no sign fix and the eigenvectors v (k x r x r) in the coordinates,
    both in descending order. An eigenfunction is its basis vector over
    sqrt(w); the product q v keeps every column, as numpy's matmul loop
    can round the leading columns of a narrower product differently
    (measured: one column, and 1-4 or 9-12 of 16 or more).
    """
    exponents, groups = _span_coordinates(values, grid.weights, p)
    lam = np.zeros((len(values), len(grid)))
    solved = []
    for at, q, z in groups:
        s = _symmetric_solve(_reduced_operator(z, p), vectors)
        f = v = None
        if vectors:
            s, v = s[0], s[1][:, :, ::-1]
            f = (q @ v).transpose(0, 2, 1) / np.sqrt(grid.weights)
        lam[at, : s.shape[1]] = s[:, ::-1]
        solved.append((at, f, z, v))
    return exponents, lam, solved


def operator_eigenvalues_stack(values: np.ndarray, grid: Grid, p: int) -> np.ndarray:
    """``operator_eigenvalues`` of each panel of a (K, n, m) stack of panel
    values on ``grid``, as the rows of a K x m array."""
    exponents, lam, _ = _solve_stack(values, grid, p)
    return _in_curve_units(lam, exponents)


def operator_eigenvalues(panel: CurvePanel, p: int) -> np.ndarray:
    """Descending unclamped eigenvalues of the cumulative lag operator: the
    r eigenvalues of its span operator, then m - r exact zeros."""
    return operator_eigenvalues_stack(panel.values[None], panel.grid, p)[0]


def decompose(panel: CurvePanel, p: int = 5) -> EigenDecomposition:
    """Full pipeline: spectrum plus orthonormal eigenfunction curves.

    The spectrum has m entries: the r eigenvalues of the span operator,
    clamped, then m - r exact zeros. The eigenfunctions are the r
    eigenvectors of the span operator mapped back to the grid, in the
    same order, so they are a quadrature-orthonormal basis of the span of
    the centered curves; callers keep the leading k with
    ``eigenfunctions[:k]``. Each eigenfunction, and its column of
    ``loadings``, is flipped so its largest-magnitude grid value is
    positive, so output is deterministic.
    """
    exponents, lam, [(_, f, z, v)] = _solve_stack(panel.values[None], panel.grid, p, vectors=True)
    peaks = np.take_along_axis(f, np.argmax(np.abs(f), axis=2)[:, :, None], axis=2)
    sign = np.where(peaks < 0, -1.0, 1.0)
    scores = np.ldexp((z @ v) * sign.transpose(0, 2, 1), exponents[:, None, None])
    [lam] = _in_curve_units(_clamp(lam), exponents)
    return EigenDecomposition(lam, (f * sign)[0], scores[0], panel, p)


def loadings(panel: CurvePanel, eigenfunctions: np.ndarray) -> np.ndarray:
    """Project centered curves on orthonormal eigenfunctions.

    Entry [t, j] is the quadrature inner product of the centered curve t
    with eigenfunction j; columns have mean zero by construction because
    the centered curves sum to zero over all n.
    """
    funcs = np.asarray(eigenfunctions, dtype=np.float64)
    if funcs.ndim != 2 or funcs.shape[1] != len(panel.grid):
        raise GridMismatchError("eigenfunctions do not match the panel grid")
    return (centered_values(panel) * panel.grid.weights) @ funcs.T


def write_decomposition_json(eigenvalues: np.ndarray, count: int, path) -> None:
    """A spectrum and the number of eigenfunctions kept with it."""
    write_json(path, {"eigenvalues": eigenvalues, "count": count})


def write_loadings_csv(values: np.ndarray, path) -> None:
    header = [f"component_{j + 1}" for j in range(values.shape[1])]
    write_csv_rows(path, values, header)


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def read_loadings_csv(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not any(map(str.strip, lines)):
        # write_loadings_csv's file for a report with d_hat = 0: a blank
        # header and one blank line per curve.
        raise ParseError(f"{path}: holds no components (the report found d_hat = 0)")
    # A header is the first non-blank line, when none of its fields is a number.
    head = next((i for i, line in enumerate(lines) if line.strip()), 0)
    columns = None
    if lines and not any(map(_is_float, lines[head].split(","))):
        columns = lines[head].count(",") + 1  # rows hold one value per header field
        lines[head] = ""  # header row
    rows = read_float_rows(lines, path, columns=columns)
    if rows.shape[0] == 0:
        raise ParseError(f"{path}: no loading rows")
    return rows
