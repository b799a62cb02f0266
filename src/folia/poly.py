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
                cc = _coerce_coeff(c)
                if not cc.is_zero:
                    clean[exps] = clean[exps] + cc if exps in clean else cc
                    if exps in clean and clean[exps].is_zero:
                        del clean[exps]
        self.terms = clean
        self._compiled_cache = None

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
            s = terms.get(exps, _ZERO) + c
            if s.is_zero:
                terms.pop(exps, None)
            else:
                terms[exps] = s
        out = Poly.__new__(Poly)
        out.vars, out.terms, out._compiled_cache = self.vars, terms, None
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Poly.__new__(Poly)
        out.vars = self.vars
        out.terms = {e: -c for e, c in self.terms.items()}
        out._compiled_cache = None
        return out

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
            out = Poly.__new__(Poly)
            out.vars = self.vars
            out.terms = {e: v * c for e, v in self.terms.items()}
            out._compiled_cache = None
            return out
        self._check_vars(other)
        terms: dict[tuple[int, ...], GaussianRational] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = terms.get(e, _ZERO) + c1 * c2
                if s.is_zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = Poly.__new__(Poly)
        out.vars, out.terms, out._compiled_cache = self.vars, terms, None
        return out

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
                ne = exps[:i] + (e - 1,) + exps[i + 1:]
                nc = terms.get(ne, _ZERO) + c * e
                if not nc.is_zero:
                    terms[ne] = nc
        out = Poly.__new__(Poly)
        out.vars, out.terms, out._compiled_cache = self.vars, terms, None
        return out

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
            if self.is_real():
                data = [(float(c.re), e) for e, c in sorted(self.terms.items())]
            else:
                data = [(complex(c), e) for e, c in sorted(self.terms.items())]
            nv = self.nvars

            def f(*coords):
                if len(coords) != nv:
                    raise InputError("point dimension mismatch")
                total = 0.0
                for c, exps in data:
                    t = c
                    for v, e in zip(coords, exps):
                        if e == 1:
                            t = t * v
                        elif e:
                            t = t * v**e
                    total = total + t
                return total

            self._compiled_cache = f
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
            e = exps[i]
            rest = exps[:i] + (0,) + exps[i + 1:]
            coeffs[e][rest] = coeffs[e].get(rest, _ZERO) + c
        return [Poly(self.vars, t) for t in coeffs]

    def exact_div(self, other: "Poly") -> "Poly":
        """Exact polynomial division; raises if the quotient is not exact.

        Used internally by the fraction-free determinant, where theory
        guarantees divisibility.
        """
        self._check_vars(other)
        if other.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return self.zero_like()
        rem = dict(self.terms)
        quot: dict[tuple[int, ...], GaussianRational] = {}
        key = lambda e: (sum(e), e)
        lt_o = max(other.terms, key=key)
        lc_o = other.terms[lt_o]
        while rem:
            lt_r = max(rem, key=key)
            if any(a < b for a, b in zip(lt_r, lt_o)):
                raise ValueError("division is not exact")
            q_exp = tuple(a - b for a, b in zip(lt_r, lt_o))
            q_c = rem[lt_r] / lc_o
            quot[q_exp] = quot.get(q_exp, _ZERO) + q_c
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(q_exp, e2))
                s = rem.get(e, _ZERO) - q_c * c2
                if s.is_zero:
                    rem.pop(e, None)
                else:
                    rem[e] = s
        return Poly(self.vars, quot)

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


def _bareiss_det(m: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a square matrix of polynomials."""
    n = len(m)
    if n == 0:
        raise InputError("empty matrix")
    zero = m[0][0].zero_like()
    one = m[0][0].one_like()
    m = [row[:] for row in m]
    sign = 1
    prev = one
    for p in range(n - 1):
        if m[p][p].is_zero:
            for r in range(p + 1, n):
                if not m[r][p].is_zero:
                    m[p], m[r] = m[r], m[p]
                    sign = -sign
                    break
            else:
                return zero
        piv = m[p][p]
        for i in range(p + 1, n):
            for j in range(p + 1, n):
                num = m[i][j] * piv - m[i][p] * m[p][j]
                m[i][j] = num.exact_div(prev)
            m[i][p] = zero
        prev = piv
    det = m[n - 1][n - 1]
    return -det if sign < 0 else det


def resultant(a: Poly, b: Poly, var_index: int) -> Poly:
    """Resultant of ``a`` and ``b`` with respect to one variable.

    Returns a polynomial in the same variable tuple in which the
    eliminated variable no longer appears.  Degenerate degrees follow
    the usual conventions: if both inputs are constant in the variable
    the resultant is 1; if exactly one is constant ``c`` the result is
    ``c`` raised to the other's degree.
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
    ca = a.univariate_in(var_index)  # ascending
    cb = b.univariate_in(var_index)
    n = da + db
    zero = a.zero_like()
    rows: list[list[Poly]] = []
    for i in range(db):
        row = [zero] * n
        for k, c in enumerate(reversed(ca)):  # descending coefficients
            row[i + k] = c
        rows.append(row)
    for i in range(da):
        row = [zero] * n
        for k, c in enumerate(reversed(cb)):
            row[i + k] = c
        rows.append(row)
    return _bareiss_det(rows)


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
