"""Exact multivariate polynomials over the Gaussian rationals.

Everything downstream (differential forms, foliation records, the
Picard-Fuchs reduction) is built on the two classes here:

``GaussianRational``
    An element of Q(i), stored as a pair of ``fractions.Fraction``.  Real
    data stays real; the imaginary part only becomes nonzero through
    complex residues supplied in input files.

``Poly``
    A sparse polynomial in a fixed tuple of named variables, mapping
    exponent tuples to nonzero ``GaussianRational`` coefficients.  All
    ring operations are exact.  Printing uses graded lexicographic order,
    descending, with explicit ``*`` and ``^``, so that equal polynomials
    always print identically.

The expression grammar accepted by :func:`parse_poly`::

    expr     := ['+'|'-'] term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | varname | '(' expr ')'
    rational := uint ('/' uint)?

There is no implicit multiplication and no ``i`` literal; nonreal
coefficients are printed as ``(a+b*i)`` for human eyes but do not
round-trip through the parser.  Exponents and degrees are capped.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InputError, ParseError

_FractionLike = int | Fraction

# Cap on exponents and on the degree of every product and power parsed:
# above every degree the tests parse (15), and (x+y+z+1)^24 expands in
# about 3 s on a 2-core x86 host, while "(x+1)^40000" is refused unexpanded.
MAX_PARSE_DEGREE = 24


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        # exact binary expansion, no rounding
        return Fraction(v)
    raise InputError(f"cannot interpret {v!r} as a rational number")


def join_terms(terms: Iterable[tuple[bool, object, str]]) -> str:
    """Print signed terms ``(negative, magnitude, monomial)`` in the given
    order as ``-3/2*x^2 + y - 1``: a bare magnitude for a constant, a bare
    monomial for magnitude 1.  No terms print as ``0``."""
    pieces = []
    for neg, mag, mono in terms:
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces) or "0"


class GaussianRational:
    """An exact element ``re + im*i`` of Q(i)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _as_fraction(re)
        self.im = _as_fraction(im)

    @classmethod
    def from_number(cls, v) -> "GaussianRational":
        """Coerce an int, Fraction, float, complex or GaussianRational."""
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, complex):
            return cls(_as_fraction(v.real), _as_fraction(v.imag))
        return cls(_as_fraction(v))

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        o = GaussianRational.from_number(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = GaussianRational.from_number(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return GaussianRational.from_number(other) - self

    def __mul__(self, other):
        o = GaussianRational.from_number(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = GaussianRational.from_number(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        return GaussianRational.from_number(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __float__(self):
        if self.im != 0:
            raise InputError("nonreal value has no float representation")
        return float(self.re)

    def __repr__(self):
        if self.im == 0:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        mag = abs(self.im)
        ibody = "i" if mag == 1 else f"{mag}*i"
        isign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return ibody if isign == "+" else f"-{ibody}"
        return f"{self.re}{isign}{ibody}"


_ZERO = GaussianRational(0)
_ONE = GaussianRational(1)


def _coerce_coeff(v) -> GaussianRational:
    return v if isinstance(v, GaussianRational) else GaussianRational.from_number(v)


def add_term(terms: dict, key, c) -> None:
    """Add ``c`` to ``terms[key]``, keeping no zero: the key is dropped
    when the sum vanishes.  ``c`` may be anything with ``+`` and
    ``is_zero``, a coefficient or a polynomial."""
    if key in terms:
        s = terms[key] + c
        if s.is_zero:
            del terms[key]
        else:
            terms[key] = s
    elif not c.is_zero:
        terms[key] = c


# terms per generated line: one sum of about 3,000 terms, which a degree-24
# parse can make, exceeds CPython's recursion limit during compilation
_SUM_CHUNK = 64


@functools.lru_cache(maxsize=1024)
def _evaluator_factory(nvars: int, support: tuple) -> Callable:
    """``make(c0, c1, ...)``: returns the numeric evaluator of a polynomial
    in ``nvars`` variables whose exponent tuples, sorted, are ``support``
    and whose coefficients, in that order, are ``c0, c1, ...``.

    The generated body is straight-line code, ``0.0 + c0*v0*v1**2 + c1*v0
    + ...`` summed left to right: term k is ``ck`` times each variable
    with a nonzero exponent, in variable order, as ``*vi`` for exponent 1
    and ``*vi**e`` above.  The source holds only the names ``v*`` and
    ``c*`` and integer exponents; coefficients arrive as arguments.
    """
    cs = [f"c{k}" for k in range(len(support))]
    terms = [c + "".join(f"*v{i}" if e == 1 else f"*v{i}**{int(e)}"
                         for i, e in enumerate(exps) if e)
             for c, exps in zip(cs, support)]
    vs = "".join(f"v{i}, " for i in range(nvars))
    lines = [f"def make({', '.join(cs)}):",
             "    def f(*coords):",
             f"        if len(coords) != {nvars}:",
             "            raise InputError('point dimension mismatch')"]
    if nvars:
        lines.append(f"        {vs}= coords")
    total = "0.0"
    for k in range(0, len(terms), _SUM_CHUNK):
        lines.append("        total = " + " + ".join([total, *terms[k:k + _SUM_CHUNK]]))
        total = "total"
    lines += [f"        return {total}", "    return f"]
    namespace = {"InputError": InputError}
    exec(compile("\n".join(lines), "<folia.poly evaluator>", "exec"), namespace)
    return namespace["make"]


class Poly:
    """Sparse exact polynomial in named variables.

    Parameters
    ----------
    variables : tuple of str
        Ordered variable names.  Two polynomials interoperate only if
        their variable tuples are identical.
    terms : dict
        Maps exponent tuples (one entry per variable, nonnegative ints)
        to coefficients.  Zero coefficients are dropped on construction.
    """

    __slots__ = ("vars", "terms", "_compiled_cache")

    def __init__(self, variables: Sequence[str], terms: dict | None = None):
        self.vars = tuple(variables)
        if len(set(self.vars)) != len(self.vars):
            raise InputError(f"duplicate variable names in {self.vars}")
        clean: dict[tuple[int, ...], GaussianRational] = {}
        if terms:
            n = len(self.vars)
            for exps, c in terms.items():
                exps = tuple(exps)
                if len(exps) != n or any(e < 0 or not isinstance(e, int) for e in exps):
                    raise InputError(f"bad exponent tuple {exps} for {n} variables")
                add_term(clean, exps, _coerce_coeff(c))
        self.terms = clean
        self._compiled_cache = None

    @staticmethod
    def _raw(variables: tuple, terms: dict) -> "Poly":
        """A Poly on terms already checked and free of zeros."""
        out = Poly.__new__(Poly)
        out.vars, out.terms, out._compiled_cache = variables, terms, None
        return out

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "Poly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value) -> "Poly":
        venv = tuple(variables)
        return cls(venv, {(0,) * len(venv): value})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "Poly":
        venv = tuple(variables)
        if name not in venv:
            raise InputError(f"unknown variable {name!r} (have {venv})")
        exps = tuple(1 if v == name else 0 for v in venv)
        return cls(venv, {exps: 1})

    def zero_like(self) -> "Poly":
        return Poly.zero(self.vars)

    def one_like(self) -> "Poly":
        return Poly.constant(self.vars, 1)

    # ---- structure ----------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.vars)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> GaussianRational:
        if not self.is_constant:
            raise InputError("polynomial is not constant")
        return self.terms.get((0,) * self.nvars, _ZERO)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def is_real(self) -> bool:
        return all(c.is_real for c in self.terms.values())

    def coefficient(self, exps: Sequence[int]) -> GaussianRational:
        return self.terms.get(tuple(exps), _ZERO)

    def _check_vars(self, other: "Poly"):
        if self.vars != other.vars:
            raise InputError(
                f"variable mismatch: {self.vars} vs {other.vars}"
            )

    # ---- ring operations ----------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.vars, other)
        self._check_vars(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            add_term(terms, exps, c)
        return Poly._raw(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = _coerce_coeff(other)
            if c.is_zero:
                return self.zero_like()
            return Poly._raw(self.vars, {e: v * c for e, v in self.terms.items()})
        self._check_vars(other)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return Poly._raw(self.vars, terms)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise InputError("polynomial powers must be nonnegative integers")
        result = self.one_like()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = _coerce_coeff(other)
            if c.is_zero:
                return self.is_zero
            return self.is_constant and self.constant_value() == c
        return NotImplemented

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # ---- calculus and substitution ------------------------------------

    def diff(self, i: int) -> "Poly":
        """Partial derivative with respect to variable index ``i``."""
        terms = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e:
                add_term(terms, exps[:i] + (e - 1,) + exps[i + 1:], c * e)
        return Poly._raw(self.vars, terms)

    def compose(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute ``images[i]`` for variable ``i``.

        The images must all share one variable tuple, which becomes the
        variable tuple of the result.
        """
        if len(images) != self.nvars:
            raise InputError(
                f"need {self.nvars} substitution images, got {len(images)}"
            )
        tvars = images[0].vars
        for im in images:
            if im.vars != tvars:
                raise InputError("substitution images disagree on variables")
        # cache powers of each image as needed
        powers: list[dict[int, Poly]] = [{0: Poly.constant(tvars, 1)} for _ in images]

        def pw(i: int, e: int) -> Poly:
            tab = powers[i]
            if e not in tab:
                tab[e] = pw(i, e - 1) * images[i]
            return tab[e]

        acc = Poly.zero(tvars)
        for exps, c in self.terms.items():
            t = Poly.constant(tvars, c)
            for i, e in enumerate(exps):
                if e:
                    t = t * pw(i, e)
            acc = acc + t
        return acc

    def eval_exact(self, point: Sequence) -> GaussianRational:
        """Evaluate at a point of Q(i)^n, exactly."""
        pt = [_coerce_coeff(v) for v in point]
        if len(pt) != self.nvars:
            raise InputError("point dimension mismatch")
        acc = GaussianRational(0)
        for exps, c in self.terms.items():
            t = c
            for v, e in zip(pt, exps):
                for _ in range(e):
                    t = t * v
            acc = acc + t
        return acc

    def __call__(self, *point):
        """Numeric evaluation; accepts floats, complex, or numpy arrays."""
        return self.compiled()(*point)

    def compiled(self) -> Callable:
        """Return a fast numeric evaluator (cached).

        Coefficients become floats when the polynomial is real, complex
        otherwise, so real input yields real output for real data.
        """
        if self._compiled_cache is None:
            items = sorted(self.terms.items())
            if self.is_real():
                coeffs = [float(c.re) for _, c in items]
            else:
                coeffs = [complex(c) for _, c in items]
            make = _evaluator_factory(self.nvars, tuple(e for e, _ in items))
            self._compiled_cache = make(*coeffs)
        return self._compiled_cache

    # ---- univariate views and resultants -------------------------------

    def univariate_in(self, i: int) -> list["Poly"]:
        """Coefficients with respect to variable ``i``, ascending degree.

        Each coefficient is a polynomial in the same variable tuple with
        variable ``i`` absent.  The zero polynomial yields ``[]``.
        """
        d = self.degree_in(i)
        if d < 0:
            return []
        coeffs = [dict() for _ in range(d + 1)]
        for exps, c in self.terms.items():
            coeffs[exps[i]][exps[:i] + (0,) + exps[i + 1:]] = c
        return [Poly._raw(self.vars, t) for t in coeffs]

    # ---- printing -------------------------------------------------------

    def __str__(self):
        items = sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]),
                       reverse=True)
        terms = []
        for exps, c in items:
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.vars, exps) if e
            )
            if c.is_real:
                terms.append((c.re < 0, abs(c.re), mono))
            else:
                terms.append((False, f"({c})", mono))
        return join_terms(terms)

    def __repr__(self):
        return f"Poly({self.vars!r}, {str(self)!r})"


# ---- resultants ---------------------------------------------------------
#
# A Gaussian integer is an (re, im) pair of ints; a polynomial with such
# coefficients is a dict from exponent tuples to pairs.


def _gaussian_int_coeffs(p: Poly, var_index: int, rest: list[int]):
    """Scale ``p`` by the lcm L of the denominators of its coefficients'
    real and imaginary parts.  Returns L and the coefficients of L*p in
    variable ``var_index``, descending, each a Gaussian-integer polynomial
    in the variables ``rest``."""
    lcm = math.lcm(*(f.denominator for c in p.terms.values() for f in (c.re, c.im)))
    d = p.degree_in(var_index)
    coeffs: list[dict] = [{} for _ in range(d + 1)]
    for exps, c in p.terms.items():
        coeffs[d - exps[var_index]][tuple(exps[v] for v in rest)] = (
            c.re.numerator * (lcm // c.re.denominator),
            c.im.numerator * (lcm // c.im.denominator))
    return lcm, coeffs


def _degree_bound(a: Poly, b: Poly, i: int, v: int) -> int:
    """Bound on the degree in variable ``v`` of the resultant in ``i``.

    In the Sylvester matrix at the formal degrees da, db, the entry of
    a's row k in column c has degree at most deg_{i,v}(a) - da + c - k
    in v, where deg_{i,v} is the total degree in i and v (likewise for
    b's rows); summed over any permutation this is
    db*deg_{i,v}(a) + da*deg_{i,v}(b) - da*db.  Bounding each entry by
    deg_v instead gives db*deg_v(a) + da*deg_v(b); the smaller holds.
    """
    da, db = a.degree_in(i), b.degree_in(i)
    tv_a = max(e[i] + e[v] for e in a.terms)
    tv_b = max(e[i] + e[v] for e in b.terms)
    return min(db * tv_a + da * tv_b - da * db,
               db * a.degree_in(v) + da * b.degree_in(v))


def _specialise(c: dict, t: int) -> dict:
    """Substitute ``t`` for the first variable of a Gaussian-integer
    polynomial."""
    out: dict = {}
    for exps, (re, im) in c.items():
        w = t ** exps[0]
        r0, i0 = out.get(exps[1:], (0, 0))
        out[exps[1:]] = (r0 + re * w, i0 + im * w)
    return out


def _gaussian_det(m: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """Fraction-free determinant (Bareiss) of a square matrix of Gaussian
    integers, which it overwrites.  Each step divides by the previous pivot, a minor that
    divides the numerator in Z[i], so the integer divisions are exact."""
    n = len(m)
    sign, pr, pi = 1, 1, 0
    for p in range(n - 1):
        if m[p][p] == (0, 0):
            for r in range(p + 1, n):
                if m[r][p] != (0, 0):
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return (0, 0)
        row_p = m[p]
        ar, ai = row_p[p]
        nrm = pr * pr + pi * pi
        for row in m[p + 1:]:
            br, bi = row[p]
            for j in range(p + 1, n):
                cr, ci = row[j]
                dr, di = row_p[j]
                # (c*a - b*d) / prev, as (c*a - b*d) * conj(prev) / |prev|^2
                nr = cr * ar - ci * ai - br * dr + bi * di
                ni = cr * ai + ci * ar - br * di - bi * dr
                row[j] = ((nr * pr + ni * pi) // nrm, (ni * pr - nr * pi) // nrm)
        pr, pi = ar, ai
    dr, di = m[n - 1][n - 1]
    return (dr, di) if sign > 0 else (-dr, -di)


def _newton_interpolate(values: list[int], start: int) -> list[int]:
    """Ascending coefficients of the integer polynomial of degree below
    ``len(values)`` that takes ``values`` at start, start + 1, ...

    With unit spacing the divided differences of an integer polynomial
    are integers (the j-th is its j-th forward difference over j!), so
    every division is exact.
    """
    c = list(values)
    n = len(c)
    for j in range(1, n):
        for k in range(n - 1, j - 1, -1):
            c[k] = (c[k] - c[k - 1]) // j
    out = [c[-1]]
    for k in range(n - 2, -1, -1):
        x = start + k     # out <- out * (v - x) + c[k]
        out = ([c[k] - x * out[0]]
               + [out[e - 1] - x * out[e] for e in range(1, len(out))]
               + [out[-1]])
    return out


def _interpolated_det(ca: list[dict], cb: list[dict], bounds: list[int]) -> dict:
    """Determinant of the Sylvester matrix of the descending coefficient
    lists ``ca`` and ``cb``, Gaussian-integer polynomials whose degree in
    their k-th variable is at most ``bounds[k]``."""
    if not bounds:
        zero = (0, 0)
        pa = [c.get((), zero) for c in ca]
        pb = [c.get((), zero) for c in cb]
        da, db = len(pa) - 1, len(pb) - 1
        rows = [[zero] * k + pa + [zero] * (db - 1 - k) for k in range(db)]
        rows += [[zero] * k + pb + [zero] * (da - 1 - k) for k in range(da)]
        return {(): _gaussian_det(rows)}
    start = -(bounds[0] // 2)
    nodes = range(start, start + bounds[0] + 1)
    values = [_interpolated_det([_specialise(c, t) for c in ca],
                                [_specialise(c, t) for c in cb], bounds[1:])
              for t in nodes]
    out = {}
    for key in set().union(*values):
        pairs = [v.get(key, (0, 0)) for v in values]
        re = _newton_interpolate([r for r, _ in pairs], start)
        im = _newton_interpolate([i for _, i in pairs], start)
        for e, (r, i) in enumerate(zip(re, im)):
            if r or i:
                out[(e,) + key] = (r, i)
    return out


def resultant(a: Poly, b: Poly, var_index: int) -> Poly:
    """Resultant of ``a`` and ``b`` with respect to one variable.

    Returns a polynomial in the same variable tuple in which the
    eliminated variable no longer appears.  Degenerate degrees follow
    the usual conventions: if both inputs are constant in the variable
    the resultant is 1; if exactly one is constant ``c`` the result is
    ``c`` raised to the other's degree.

    Computed by evaluation and interpolation (Collins, JACM 18, 1971):
    the inputs are scaled to Gaussian-integer coefficients, using
    Res(La*a, Lb*b) = La^db * Lb^da * Res(a, b); each remaining variable
    is set to as many consecutive integers as its degree bound needs,
    one at a time; the Sylvester determinant at the formal degrees da,
    db of each point is a fraction-free Bareiss elimination over Z[i];
    and the real and imaginary parts are interpolated back, exactly.
    The determinant commutes with evaluating its entries, so no node is
    skipped and the result is exact.
    """
    a._check_vars(b)
    if a.is_zero or b.is_zero:
        return a.zero_like()
    da = a.degree_in(var_index)
    db = b.degree_in(var_index)
    if da == 0 and db == 0:
        return a.one_like()
    if da == 0:
        return a**db
    if db == 0:
        return b**da
    rest = [v for v in range(a.nvars) if v != var_index]
    la, ca = _gaussian_int_coeffs(a, var_index, rest)
    lb, cb = _gaussian_int_coeffs(b, var_index, rest)
    det = _interpolated_det(ca, cb, [_degree_bound(a, b, var_index, v) for v in rest])
    scale = la**db * lb**da
    terms = {}
    for key, (re, im) in det.items():
        exps = list(key)
        exps.insert(var_index, 0)
        terms[tuple(exps)] = GaussianRational(Fraction(re, scale), Fraction(im, scale))
    return Poly(a.vars, terms)


# ---- parsing -------------------------------------------------------------


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in "+-*^()/":
            tokens.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("EOF", "", n))
    return tokens


def _int_literal(text: str, off: int) -> int:
    try:
        return int(text)
    except ValueError:      # beyond the interpreter's digit limit
        raise ParseError("integer literal too long", off) from None


def _check_budget(what: str, value: int, off: int):
    if value > MAX_PARSE_DEGREE:
        raise ParseError(f"{what} {value} is above the parser's budget "
                         f"{MAX_PARSE_DEGREE}", off)


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.text = text
        self.vars = tuple(variables)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        kind, val, off = self.peek()
        if kind != "EOF":
            raise ParseError(f"unexpected {val!r}", off)
        return p

    def expr(self) -> Poly:
        sign = 1
        kind, val, _ = self.peek()
        if kind == "OP" and val in "+-":
            self.advance()
            sign = -1 if val == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val in "+-":
                self.advance()
                t = self.term()
                acc = acc - t if val == "-" else acc + t
            else:
                return acc

    def term(self) -> Poly:
        acc = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "OP" and val == "*":
                _, _, off = self.advance()
                f = self.factor()
                _check_budget("degree", acc.total_degree() + f.total_degree(),
                              off)
                acc = acc * f
            else:
                return acc

    def factor(self) -> Poly:
        base = self.base()
        kind, val, _ = self.peek()
        if kind == "OP" and val == "^":
            self.advance()
            kind, val, off = self.advance()
            if kind != "INT":
                raise ParseError("expected a nonnegative integer exponent", off)
            e = _int_literal(val, off)
            _check_budget("exponent", e, off)
            _check_budget("degree", base.total_degree() * e, off)
            return base ** e
        return base

    def base(self) -> Poly:
        kind, val, off = self.advance()
        if kind == "INT":
            num = _int_literal(val, off)
            k2, v2, _ = self.peek()
            if k2 == "OP" and v2 == "/":
                self.advance()
                k3, v3, off3 = self.advance()
                if k3 != "INT":
                    raise ParseError("expected an integer denominator", off3)
                den = _int_literal(v3, off3)
                if den == 0:
                    raise ParseError("zero denominator", off3)
                return Poly.constant(self.vars, Fraction(num, den))
            return Poly.constant(self.vars, num)
        if kind == "NAME":
            if val not in self.vars:
                raise ParseError(f"unknown variable {val!r}", off)
            return Poly.variable(self.vars, val)
        if kind == "OP" and val == "(":
            p = self.expr()
            kind, val, off = self.advance()
            if not (kind == "OP" and val == ")"):
                raise ParseError("expected ')'", off)
            return p
        if kind == "EOF":
            raise ParseError("unexpected end of input", off)
        raise ParseError(f"unexpected {val!r}", off)


def parse_poly(text: str, variables: Sequence[str]) -> Poly:
    """Parse an expression into a :class:`Poly` over the given variables."""
    if not isinstance(text, str):
        raise InputError("polynomial expression must be a string")
    return _Parser(text, variables).parse()
