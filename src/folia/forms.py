"""Polynomial differential forms in any number of variables.

A :class:`DifferentialForm` of degree k stores its components on the
basis ``dx_I`` (strictly increasing index tuples I of length k) as exact
polynomials.  Wedge products and the exterior derivative are implemented
for arbitrary degree; the package only ever needs k <= 3, which is where
the integrability obstruction ``omega ^ d(omega)`` of a 1-form in three
variables lives.

Plane 1-forms follow the convention ``omega = P dy - Q dx`` for the dual
vector field ``X = P d/dx + Q d/dy``, so leaves of ``omega = 0`` are
orbits of ``X``.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InputError
from .poly import Poly, add_term

Index = tuple[int, ...]


def _sort_with_sign(indices: Index) -> tuple[int, Index]:
    """Sort an index tuple, returning the permutation sign (0 on repeats)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return 0, tuple(idx)
    return sign, tuple(idx)


class DifferentialForm:
    """A polynomial k-form on affine space with named coordinates."""

    __slots__ = ("vars", "degree", "comps")

    def __init__(self, variables: Sequence[str], degree: int,
                 comps: dict[Index, Poly] | None = None):
        self.vars = tuple(variables)
        n = len(self.vars)
        if degree < 0 or degree > n:
            raise InputError(f"degree {degree} impossible in {n} variables")
        self.degree = degree
        clean: dict[Index, Poly] = {}
        for idx, p in (comps or {}).items():
            idx = tuple(idx)
            if len(idx) != degree:
                raise InputError(f"index {idx} has wrong length for a {degree}-form")
            if any(i < 0 or i >= n for i in idx):
                raise InputError(f"index {idx} out of range for {n} variables")
            if list(idx) != sorted(idx) or len(set(idx)) != len(idx):
                raise InputError(f"component index {idx} must be strictly increasing")
            if not isinstance(p, Poly):
                raise InputError("form components must be Poly")
            if p.vars != self.vars:
                raise InputError("component variables disagree with the form's")
            add_term(clean, idx, p)
        self.comps = clean

    # ---- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str], degree: int) -> "DifferentialForm":
        return cls(variables, degree, {})

    @classmethod
    def function(cls, p: Poly) -> "DifferentialForm":
        return cls(p.vars, 0, {(): p})

    @classmethod
    def one_form(cls, coeffs: Sequence[Poly]) -> "DifferentialForm":
        """Build ``sum coeffs[i] dx_i`` from one polynomial per variable."""
        if not coeffs:
            raise InputError("need at least one coefficient")
        vs = coeffs[0].vars
        if len(coeffs) != len(vs):
            raise InputError(
                f"need {len(vs)} coefficients for variables {vs}, got {len(coeffs)}"
            )
        return cls(vs, 1, {(i,): c for i, c in enumerate(coeffs)})

    # ---- structure --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.comps

    def coeff(self, *idx: int) -> Poly:
        """Component on ``dx_idx`` (indices need not be sorted)."""
        sign, key = _sort_with_sign(tuple(idx))
        if sign == 0:
            return Poly.zero(self.vars)
        p = self.comps.get(key)
        if p is None:
            return Poly.zero(self.vars)
        return p if sign > 0 else -p

    def coefficients(self) -> list[Poly]:
        """For a 1-form: the list of components, one per variable."""
        if self.degree != 1:
            raise InputError("coefficients() is for 1-forms")
        return [self.coeff(i) for i in range(len(self.vars))]

    def _check_compat(self, other: "DifferentialForm", same_degree=True):
        if self.vars != other.vars:
            raise InputError("forms live on different coordinate sets")
        if same_degree and self.degree != other.degree:
            raise InputError("degree mismatch")

    # ---- algebra ---------------------------------------------------------

    def __add__(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check_compat(other)
        comps = dict(self.comps)
        for idx, p in other.comps.items():
            add_term(comps, idx, p)
        return DifferentialForm(self.vars, self.degree, comps)

    def __sub__(self, other: "DifferentialForm") -> "DifferentialForm":
        return self + (-other)

    def __neg__(self) -> "DifferentialForm":
        return DifferentialForm(
            self.vars, self.degree, {i: -p for i, p in self.comps.items()}
        )

    def __mul__(self, scalar) -> "DifferentialForm":
        """Multiply by a Poly or a number (degree unchanged)."""
        if isinstance(scalar, DifferentialForm):
            raise InputError("use wedge() for products of forms")
        return DifferentialForm(
            self.vars, self.degree, {i: p * scalar for i, p in self.comps.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, DifferentialForm):
            return NotImplemented
        return (self.vars == other.vars and self.degree == other.degree
                and self.comps == other.comps)

    def wedge(self, other: "DifferentialForm") -> "DifferentialForm":
        self._check_compat(other, same_degree=False)
        deg = self.degree + other.degree
        n = len(self.vars)
        if deg > n:
            # identically zero; report it as the zero top form
            return DifferentialForm.zero(self.vars, n)
        comps: dict[Index, Poly] = {}
        for i1, p1 in self.comps.items():
            for i2, p2 in other.comps.items():
                sign, key = _sort_with_sign(i1 + i2)
                if sign == 0:
                    continue
                t = p1 * p2
                add_term(comps, key, t if sign > 0 else -t)
        return DifferentialForm(self.vars, deg, comps)

    def exterior_d(self) -> "DifferentialForm":
        n = len(self.vars)
        if self.degree >= n:
            return DifferentialForm.zero(self.vars, n)
        comps: dict[Index, Poly] = {}
        for idx, p in self.comps.items():
            for i in range(n):
                if i in idx:
                    continue
                dp = p.diff(i)
                sign, key = _sort_with_sign((i,) + idx)
                add_term(comps, key, dp if sign > 0 else -dp)
        return DifferentialForm(self.vars, self.degree + 1, comps)

    def contract(self, field: Sequence[Poly]) -> "DifferentialForm":
        """Interior product with a polynomial vector field (degree drops by 1)."""
        if self.degree == 0:
            raise InputError("cannot contract a 0-form")
        if len(field) != len(self.vars):
            raise InputError("field dimension mismatch")
        comps: dict[Index, Poly] = {}
        for idx, p in self.comps.items():
            for pos, i in enumerate(idx):
                t = p * field[i]
                add_term(comps, idx[:pos] + idx[pos + 1:], -t if pos % 2 else t)
        return DifferentialForm(self.vars, self.degree - 1, comps)

    def __str__(self):
        if not self.comps:
            return "0"
        if self.degree == 0:
            return str(self.comps[()])
        pieces = []
        for idx in sorted(self.comps):
            basis = "^".join(f"d{self.vars[i]}" for i in idx)
            pieces.append(f"({self.comps[idx]})*{basis}")
        return " + ".join(pieces)

    def __repr__(self):
        return f"DifferentialForm({self.degree}-form, {str(self)!r})"


# ---- plane-specific helpers ----------------------------------------------


def pq_form(p: Poly, q: Poly) -> DifferentialForm:
    """The 1-form ``P dy - Q dx`` dual to the field ``(P, Q)``."""
    if p.vars != q.vars or len(p.vars) != 2:
        raise InputError("pq_form needs two polynomials in the same two variables")
    return DifferentialForm(p.vars, 1, {(0,): -q, (1,): p})


def dual_field(omega: DifferentialForm) -> tuple[Poly, Poly]:
    """Recover ``(P, Q)`` from a plane 1-form ``A dx + B dy = P dy - Q dx``."""
    if omega.degree != 1 or len(omega.vars) != 2:
        raise InputError("dual_field needs a plane 1-form")
    a, b = omega.coefficients()
    return b, -a


def d_poly(f: Poly) -> DifferentialForm:
    """The exact 1-form df."""
    return DifferentialForm.function(f).exterior_d()
