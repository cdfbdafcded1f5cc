"""Kernel catalog, sample Grams, and the irreducibility partition.

Catalog variants and their domains:

====================  ==========================================  ==================
variant               formula                                     domain
====================  ==========================================  ==================
``Szego``             ``1 / (1 - conj(x) y)``                     ``|z| < 1``
``Bergman``           ``1 / (1 - conj(x) y)^2``                   ``|z| < 1``
``Dirichlet``         ``-log(1 - conj(x) y) / (conj(x) y)``       ``|z| < 1``
``Sobolev``           ``cosh(min) cosh(1 - max) / sinh(1)``       ``t in [0, 1]``
``Ball(m)``           ``1 / (1 - <x, y>)`` on ``l^2_m``           ``|x| < 1``
``ExplicitGram``      stored matrix, points are row indices       n/a
====================  ==========================================  ==================

``Ball(1)`` coincides entrywise with ``Szego``. ``Bergman`` is a catalog
addition used as a negative control in certification tests.

The ``Sobolev`` entry is the reproducing kernel of the space of functions on
``[0, 1]`` with ``int |g|^2 + |g'|^2 < inf``. It is derived here from the
boundary-value problem ``k - k'' = delta_s``, ``k'(0) = k'(1) = 0`` (printed
formulas for this kernel in the literature are not all mutually consistent,
so the kit derives its own and unit-tests the reproducing property against
numerical quadrature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hermitian import DEFAULT_TOL, HermitianMatrix, Tolerances, _hermitian_part, as_hermitian

__all__ = [
    "Kernel",
    "Szego",
    "Bergman",
    "Dirichlet",
    "Sobolev",
    "Ball",
    "ExplicitGram",
    "SampleSet",
    "Partition",
    "kernel_from_json",
    "gram",
    "irreducible_partition",
]


class Kernel:
    """Base class of catalog kernels. Subclasses are immutable value objects.

    A subclass supplies ``coerce_point`` and ``cross``, its one formula;
    ``evaluate`` and ``gram_matrix`` are read off ``cross``.
    """

    name = "abstract"

    def coerce_point(self, p):
        """Validate and normalize a raw point into this kernel's point type."""
        raise NotImplementedError

    def cross(self, xs, ys) -> np.ndarray:
        """Matrix of kernel values ``k(x, y)``, rows over ``xs``, columns over ``ys``."""
        raise NotImplementedError

    def evaluate(self, x, y) -> complex:
        """Kernel value ``k(x, y)``; satisfies ``k(y, x) = conj(k(x, y))``."""
        return complex(self.cross([x], [y])[0, 0])

    def gram_matrix(self, points) -> np.ndarray:
        """Hermitian part of ``cross(points, points)``: rounding skew can exceed
        the construction tolerance, as for the Dirichlet kernel near ``|z| = 1``."""
        return _hermitian_part(self.cross(points, points))

    def to_json(self) -> dict:
        return {"type": self.name}

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


def _scalar(p, kernel_name: str):
    """``p``, refused when it is a coordinate array meant for the ball kernel."""
    if isinstance(p, np.ndarray):
        raise DomainError(f"{kernel_name} kernel needs a scalar point, got {p.size} coordinates")
    return p


def _disk_point(p, kernel_name: str) -> complex:
    z = complex(_scalar(p, kernel_name))
    if not abs(z) < 1.0:  # also refuses NaN
        raise DomainError(f"{kernel_name} kernel needs |z| < 1, got |z| = {abs(z):.6g}")
    return z


def _disk_products(xs, ys) -> np.ndarray:
    return np.outer(np.asarray(xs, dtype=complex).conj(), np.asarray(ys, dtype=complex))


class Szego(Kernel):
    """Hardy-space kernel of the unit disk, ``1 / (1 - conj(x) y)``."""

    name = "szego"

    def coerce_point(self, p) -> complex:
        return _disk_point(p, self.name)

    def cross(self, xs, ys) -> np.ndarray:
        return 1.0 / (1.0 - _disk_products(xs, ys))


class Bergman(Kernel):
    """Bergman kernel of the unit disk, ``1 / (1 - conj(x) y)^2``.

    Not a complete Nevanlinna-Pick kernel; kept as a negative control.
    """

    name = "bergman"

    def coerce_point(self, p) -> complex:
        return _disk_point(p, self.name)

    def cross(self, xs, ys) -> np.ndarray:
        return 1.0 / (1.0 - _disk_products(xs, ys)) ** 2


class Dirichlet(Kernel):
    """Dirichlet-space kernel ``-log(1 - w) / w`` with ``w = conj(x) y``.

    Evaluated as ``-log1p(-w) / w``. numpy's complex ``log1p`` forms
    ``|1 - w|`` and so loses relative accuracy like ``eps / |w|`` (1e-15 at
    ``|w| = 0.2``); below ``|w| = 0.25`` the power series
    ``sum w^p / (p + 1)`` is used instead, whose first 24 terms reach double
    precision there and which covers the removable singularity at 0.
    """

    name = "dirichlet"

    def coerce_point(self, p) -> complex:
        return _disk_point(p, self.name)

    def cross(self, xs, ys) -> np.ndarray:
        w = _disk_products(xs, ys)
        near = np.abs(w) < 0.25
        out = np.empty_like(w)
        wn, wf = w[near], w[~near]
        series = np.zeros_like(wn)
        for p in range(23, -1, -1):
            series = series * wn + 1.0 / (p + 1)
        out[near] = series
        out[~near] = -np.log1p(-wf) / wf
        return out


class Sobolev(Kernel):
    """Reproducing kernel of first-order square-integrable functions on [0, 1].

    ``k(s, t) = cosh(min(s, t)) cosh(1 - max(s, t)) / sinh(1)``, the Green's
    function of ``k - k'' = delta`` with Neumann boundary conditions.
    """

    name = "sobolev"

    def coerce_point(self, p) -> float:
        t = complex(_scalar(p, self.name))
        if t.imag != 0:
            raise DomainError(f"sobolev kernel needs a real point, got {p!r}")
        t = float(t.real)
        if not 0.0 <= t <= 1.0:
            raise DomainError(f"sobolev kernel needs t in [0, 1], got {t:.6g}")
        return t

    def cross(self, xs, ys) -> np.ndarray:
        s, t = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
        lo = np.minimum.outer(s, t)
        hi = np.maximum.outer(s, t)
        return (np.cosh(lo) * np.cosh(1.0 - hi) / np.sinh(1.0)).astype(complex)


class Ball(Kernel):
    """Unit-ball kernel ``1 / (1 - <x, y>)`` on m-dimensional Hilbert space.

    ``<x, y> = sum_l conj(x_l) y_l``, so ``Ball(1)`` is the ``Szego`` kernel.
    This is the universal target of ``embed.universal_embedding``.
    """

    name = "ball"

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("ball dimension m must be >= 1")
        self.m = int(m)

    def coerce_point(self, p) -> np.ndarray:
        x = np.atleast_1d(np.array(p, dtype=complex))
        if x.ndim != 1 or x.size != self.m:
            raise DomainError(f"ball({self.m}) point must have {self.m} coordinates")
        if not np.linalg.norm(x) < 1.0:  # also refuses NaN
            raise DomainError(
                f"ball point must have norm < 1, got {np.linalg.norm(x):.6g}"
            )
        x.setflags(write=False)
        return x

    def cross(self, xs, ys) -> np.ndarray:
        X, Y = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
        return 1.0 / (1.0 - X.conj() @ Y.T)

    def to_json(self) -> dict:
        return {"type": self.name, "m": self.m}

    def __repr__(self) -> str:
        return f"Ball(m={self.m})"


class ExplicitGram(Kernel):
    """Kernel given directly by a Hermitian Gram matrix; points are indices."""

    name = "gram"

    def __init__(self, matrix, labels=None):
        self.matrix = as_hermitian(matrix)
        n = self.matrix.dim
        self.labels = tuple(str(x) for x in labels) if labels is not None else tuple(
            str(i) for i in range(n)
        )
        if len(self.labels) != n:
            raise ValueError("labels length must match matrix dimension")

    def coerce_point(self, p) -> int:
        z = _scalar(p, self.name)
        try:
            i = int(z.real)
        except (ValueError, OverflowError):  # NaN or infinite
            i = None
        if z != i:
            raise DomainError(f"gram index must be an integer, got {p!r}")
        if not 0 <= i < self.matrix.dim:
            raise DomainError(f"gram index {i} out of range [0, {self.matrix.dim})")
        return i

    def cross(self, xs, ys) -> np.ndarray:
        return self.matrix.a[np.ix_(np.asarray(xs, dtype=int), np.asarray(ys, dtype=int))]

    def to_json(self) -> dict:
        from .serialize import complex_matrix_to_json

        return {
            "type": self.name,
            "matrix": complex_matrix_to_json(self.matrix.a),
            "labels": list(self.labels),
        }

    def __repr__(self) -> str:
        return f"ExplicitGram(dim={self.matrix.dim})"


def kernel_from_json(doc: dict) -> Kernel:
    """Build a catalog kernel from its JSON description; extra keys are ignored."""
    if not isinstance(doc, dict):
        raise DomainError(f"kernel must be a JSON object, got {doc!r}")
    kind = doc.get("type")
    if kind == "szego":
        return Szego()
    if kind == "bergman":
        return Bergman()
    if kind == "dirichlet":
        return Dirichlet()
    if kind == "sobolev":
        return Sobolev()
    if kind == "ball":
        m = doc.get("m")
        if not isinstance(m, int) or isinstance(m, bool):
            raise DomainError("ball kernel JSON needs an integer field 'm'")
        return Ball(m=m)
    if kind == "gram":
        from .serialize import complex_matrix_from_json

        labels = doc.get("labels")
        if "matrix" not in doc or not (labels is None or isinstance(labels, list)):
            raise DomainError("explicit-gram JSON needs 'matrix' and an optional 'labels' list")
        return ExplicitGram(complex_matrix_from_json(doc["matrix"]), labels=labels)
    raise DomainError(f"unknown kernel type {kind!r}")


@dataclass(frozen=True)
class SampleSet:
    """A kernel together with distinct in-domain points and the cached Gram."""

    kernel: Kernel
    points: tuple
    gram: HermitianMatrix

    @property
    def n(self) -> int:
        return len(self.points)

    def point_labels(self) -> tuple[str, ...]:
        if isinstance(self.kernel, ExplicitGram):
            return tuple(self.kernel.labels[i] for i in self.points)
        return tuple(_fmt_point(p) for p in self.points)


def _fmt_point(p) -> str:
    if isinstance(p, np.ndarray):
        return "(" + ", ".join(_fmt_point(c) for c in p) + ")"
    z = complex(p)
    if z.imag == 0:
        return f"{z.real:.12g}"
    return f"{z.real:.12g}{z.imag:+.12g}j"


def _first_equal_pair(xs, ys=None) -> tuple[int, int] | None:
    """Lexicographically first ``(i, j)`` with ``xs[i] == ys[j]``; no ``ys``: ``i < j``."""
    a = np.asarray(xs)
    b = a if ys is None else np.asarray(ys).reshape((-1,) + a.shape[1:])
    eq = np.all(a[:, None] == b[None], axis=tuple(range(2, a.ndim + 1)))  # ball: every coordinate
    if ys is None:
        np.fill_diagonal(eq, False)  # eq is symmetric: its first hit has i < j
    hits = np.flatnonzero(eq)
    return divmod(int(hits[0]), eq.shape[1]) if hits.size else None


def gram(kernel: Kernel, points, tol: Tolerances = DEFAULT_TOL) -> SampleSet:
    """Assemble and validate the Gram matrix of ``kernel`` on ``points``.

    Points must be pairwise distinct and in the kernel's domain, and the Gram
    must be positive (semi)definite within tolerance: a minimum eigenvalue
    below ``tol.psd_floor`` is rejected.
    """
    pts = [kernel.coerce_point(p) for p in points]
    if not pts:
        raise DomainError("a sample needs at least one point")
    if pair := _first_equal_pair(pts):
        raise DomainError(f"duplicate points at positions {pair[0]} and {pair[1]}")
    h = as_hermitian(kernel.gram_matrix(pts))
    w = np.linalg.eigvalsh(h.a)
    _require_psd(w[0], tol.psd_floor(w))
    return SampleSet(kernel=kernel, points=tuple(pts), gram=h)


def _require_psd(min_eigenvalue: float, floor: float) -> None:
    if min_eigenvalue < floor:
        raise DomainError(f"Gram matrix is not positive definite within tolerance: "
                          f"min eigenvalue {min_eigenvalue:.6e} < {floor:.3e}")


@dataclass(frozen=True)
class Partition:
    """Zero-pattern partition of sample indices into irreducible blocks.

    ``blocks`` are the connected components of the graph whose edges are the
    nonzero Gram entries. For a Nevanlinna-Pick kernel the zero pattern is an
    equivalence, i.e. block-diagonal under permutation; ``consistent`` is
    False when some pair inside a component has a zero entry, which already
    refutes the Nevanlinna-Pick property of the kernel. ``violations`` lists
    such pairs.
    """

    blocks: tuple[tuple[int, ...], ...]
    consistent: bool
    violations: tuple[tuple[int, int], ...]


def _gram_array(sample_or_gram) -> np.ndarray:
    if isinstance(sample_or_gram, SampleSet):
        return sample_or_gram.gram.a
    return as_hermitian(sample_or_gram).a


def irreducible_partition(sample_or_gram, tol: Tolerances = DEFAULT_TOL) -> Partition:
    """Partition indices into blocks connected by nonzero Gram entries.

    Accepts a ``SampleSet`` or a raw Hermitian matrix (arbitrary Grams may
    violate the block structure; that is reported, never raised). An entry
    counts as zero by ``tol.zero_entries``.
    """
    K = _gram_array(sample_or_gram)
    n = K.shape[0]
    nonzero = ~tol.zero_entries(K)

    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if nonzero[i, j]:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    blocks = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))

    violations = []
    for block in blocks:
        for a in range(len(block)):
            for b in range(a + 1, len(block)):
                i, j = block[a], block[b]
                if not nonzero[i, j]:
                    violations.append((i, j))
    return Partition(
        blocks=blocks,
        consistent=not violations,
        violations=tuple(violations),
    )
