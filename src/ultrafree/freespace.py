"""Exact free-space (transport) norms over finite pointed metric spaces.

A coefficient vector over the non-base points represents an element of the
free space spanned by the point evaluations.  Its norm is the cheapest
nonnegative flow on the complete directed graph whose net divergence at each
non-base point equals the coefficient there (the base point is an
unconstrained source/sink).  Each evaluation is certified against the dual
side: the best 1-Lipschitz potential vanishing at the base must attain the
same value exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .metric import CertificationError, FiniteMetricSpace, _pair_ratios
from .rational import parse_rational
from .simplex import solve_lp


@dataclass(frozen=True)
class FreeVector:
    """One rational coefficient per non-base point; index k is point k+1."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(parse_rational(c) for c in self.coeffs))

    def __add__(self, other: "FreeVector") -> "FreeVector":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("dimension mismatch")
        return FreeVector(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        return self + (-other)

    def __neg__(self) -> "FreeVector":
        return FreeVector(tuple(-a for a in self.coeffs))

    def __mul__(self, scalar) -> "FreeVector":
        s = parse_rational(scalar)
        return FreeVector(tuple(s * a for a in self.coeffs))

    __rmul__ = __mul__

    def support(self) -> tuple[int, ...]:
        """Indices of the non-base points carrying a nonzero coefficient."""
        return tuple(k + 1 for k, c in enumerate(self.coeffs) if c)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@dataclass(frozen=True)
class LipFunction:
    """One value per point, forced to 0 at the base."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        values = tuple(parse_rational(v) for v in self.values)
        if not values or values[0] != 0:
            raise ValueError("a Lipschitz function must vanish at the base point")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PointMap:
    """A base-preserving map between finite pointed metric spaces."""

    domain: FiniteMetricSpace
    codomain: FiniteMetricSpace
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        image = tuple(int(i) for i in self.image)
        if len(image) != len(self.domain):
            raise ValueError("one image point per domain point required")
        if any(not 0 <= i < len(self.codomain) for i in image):
            raise ValueError("image index out of range")
        if image[0] != 0:
            raise ValueError("the map must send base to base")
        object.__setattr__(self, "image", image)


@dataclass(frozen=True)
class FreeNormCertificate:
    """Norm value with its optimal flow and optimal dual potential."""

    value: Fraction
    flow: tuple[tuple[int, int, Fraction], ...]
    potential: LipFunction


def zero_vector(space: FiniteMetricSpace) -> FreeVector:
    return FreeVector((Fraction(0),) * (len(space) - 1))


def dirac(space: FiniteMetricSpace, point: int) -> FreeVector:
    """The evaluation vector of a point; the base evaluates to zero."""
    if not 0 <= point < len(space):
        raise ValueError(f"point {point} out of range")
    coeffs = [Fraction(0)] * (len(space) - 1)
    if point != 0:
        coeffs[point - 1] = Fraction(1)
    return FreeVector(tuple(coeffs))


def molecule(space: FiniteMetricSpace, i: int, j: int) -> FreeVector:
    """Normalized difference of two evaluations; always has norm exactly 1."""
    if i == j:
        raise ValueError("a molecule needs two distinct points")
    scale = 1 / space.dist[i][j]
    return scale * (dirac(space, i) - dirac(space, j))


def lip_norm(space: FiniteMetricSpace, f: LipFunction) -> Fraction:
    """Exact maximum of |f(x) - f(y)| / d(x, y) over all pairs."""
    if len(f.values) != len(space):
        raise ValueError("function dimension does not match the space")
    vals = f.values
    return max(_pair_ratios(space, lambda i, j: abs(vals[i] - vals[j])), default=Fraction(0))


def _transport_program(space: FiniteMetricSpace, lead: Sequence[Fraction]):
    """Arcs, costs and divergence columns of the transport program, plus a start basis.

    The flow lives on all ordered pairs of points (base included); row k is
    the net divergence at point k+1.  The basis routes coefficient k of
    ``lead`` through the base, which is primal feasible for right-hand side
    ``lead``, so phase one is never needed.
    """
    n = len(space)
    arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    arc_index = {arc: k for k, arc in enumerate(arcs)}
    costs = [space.dist[i][j] for i, j in arcs]
    columns = []
    for i, j in arcs:
        col = []
        if i != 0:
            col.append((i - 1, Fraction(1)))
        if j != 0:
            col.append((j - 1, Fraction(-1)))
        columns.append(col)
    basis = [
        arc_index[(k + 1, 0)] if lead[k] >= 0 else arc_index[(0, k + 1)]
        for k in range(n - 1)
    ]
    return arcs, costs, columns, basis


def free_norm_certificate(space: FiniteMetricSpace, v: FreeVector) -> FreeNormCertificate:
    """Solve the transport program for v and certify primal/dual equality.

    The program is the one of :func:`_transport_program`, started from its
    base-routing basis.  The dual solution, read as a potential vanishing at
    the base, must be 1-Lipschitz and attain the same objective exactly;
    anything else raises :class:`CertificationError`.
    """
    n = len(space)
    if len(v.coeffs) != n - 1:
        raise ValueError("vector dimension does not match the space")
    if n == 1 or v.is_zero():
        return FreeNormCertificate(Fraction(0), (), LipFunction((Fraction(0),) * n))

    arcs, costs, columns, basis = _transport_program(space, v.coeffs)
    result = solve_lp(costs, columns, v.coeffs, basis=basis)

    potential = LipFunction((Fraction(0),) + result.dual)
    if lip_norm(space, potential) > 1:
        raise CertificationError("dual potential is not 1-Lipschitz")
    dual_value = sum(c * g for c, g in zip(v.coeffs, result.dual))
    if dual_value != result.value:
        raise CertificationError("primal and dual transport optima differ")
    flow = tuple(
        (arcs[k][0], arcs[k][1], amount) for k, amount in enumerate(result.x) if amount
    )
    return FreeNormCertificate(result.value, flow, potential)


def free_norm(space: FiniteMetricSpace, v: FreeVector) -> Fraction:
    return free_norm_certificate(space, v).value


def lipschitz_constant(point_map: PointMap) -> Fraction:
    """Exact maximum of d(Lx, Ly) / d(x, y) over domain pairs."""
    cod, img = point_map.codomain, point_map.image
    return max(_pair_ratios(point_map.domain, lambda i, j: cod.dist[img[i]][img[j]]), default=Fraction(0))


def push_forward(point_map: PointMap, v: FreeVector) -> FreeVector:
    """Apply the linearized map: each evaluation goes to the evaluation of its image."""
    if len(v.coeffs) != len(point_map.domain) - 1:
        raise ValueError("vector dimension does not match the domain")
    out = [Fraction(0)] * (len(point_map.codomain) - 1)
    for k, c in enumerate(v.coeffs):
        if c:
            target = point_map.image[k + 1]
            if target != 0:
                out[target - 1] += c
    return FreeVector(tuple(out))


def operator_norm_of_extension(point_map: PointMap) -> Fraction:
    """Operator norm of the linearized map, by maximizing over domain molecules.

    Molecules are the extreme points of the domain unit ball, so the maximum
    of the transport norm of their images is the exact operator norm.  The
    value must coincide with the Lipschitz constant of the underlying point
    map; a mismatch means the solver is broken, and raises.
    """
    dom = point_map.domain
    best = Fraction(0)
    n = len(dom)
    for i in range(n):
        for j in range(i + 1, n):
            image = push_forward(point_map, molecule(dom, i, j))
            value = free_norm(point_map.codomain, image)
            if value > best:
                best = value
    expected = lipschitz_constant(point_map)
    if best != expected:
        raise CertificationError(
            f"operator norm {best} differs from Lipschitz constant {expected}"
        )
    return best
