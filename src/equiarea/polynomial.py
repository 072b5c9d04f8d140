"""Small exact polynomial kit over the rationals.

Univariate: arithmetic, gcd, squarefree part, Sturm real-root counting,
rational roots. Bivariate: dense-dict arithmetic, substitution, homogeneous
parts, and the Sylvester resultant in y via evaluation plus Lagrange
interpolation.

Rational roots are found without factoring any integers: isolate each real
root by exact Sturm bisection, shrink the interval below 1/(2L^2) where L
bounds the denominator (L = |leading coefficient| of the primitive squarefree
part), then the only possible candidate is Fraction.limit_denominator of the
midpoint, which is verified by exact substitution.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import InvariantViolation


class UnivariatePoly:
    """Dense univariate polynomial with Fraction coefficients, low degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UnivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UnivariatePoly({list(self.coeffs)!r})"

    def __add__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePoly(
            (self.coeffs[i] if i < len(self.coeffs) else 0)
            + (other.coeffs[i] if i < len(other.coeffs) else 0)
            for i in range(n)
        )

    def __neg__(self) -> "UnivariatePoly":
        return UnivariatePoly(-c for c in self.coeffs)

    def __sub__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        return self + (-other)

    def __mul__(self, other: "UnivariatePoly") -> "UnivariatePoly":
        if self.is_zero() or other.is_zero():
            return UnivariatePoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UnivariatePoly(out)

    def scale(self, k: Fraction | int) -> "UnivariatePoly":
        k = Fraction(k)
        return UnivariatePoly(c * k for c in self.coeffs)

    def evaluate(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def divmod(self, other: "UnivariatePoly") -> tuple["UnivariatePoly", "UnivariatePoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UnivariatePoly(), self
        quo = [Fraction(0)] * (dq + 1)
        lead = other.coeffs[-1]
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top == 0:
                continue
            q = top / lead
            quo[k] = q
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= q * b
        return UnivariatePoly(quo), UnivariatePoly(rem)

    def primitive(self) -> "UnivariatePoly":
        """Integer-coefficient version with content 1, sign preserved."""
        if self.is_zero():
            return self
        den = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = math.gcd(*ints)
        return UnivariatePoly(Fraction(c, g) for c in ints)


def poly_gcd(a: UnivariatePoly, b: UnivariatePoly) -> UnivariatePoly:
    """Gcd, normalized primitive with positive leading coefficient."""
    a, b = a.primitive(), b.primitive()
    while not b.is_zero():
        _, r = a.divmod(b)
        a, b = b, r.primitive()
    if a.is_zero():
        return a
    if a.coeffs[-1] < 0:
        a = a.scale(-1)
    return a


def squarefree_part(p: UnivariatePoly) -> UnivariatePoly:
    if p.degree <= 0:
        return p.primitive()
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.primitive()
    q, r = p.divmod(g)
    if not r.is_zero():
        raise InvariantViolation("gcd with the derivative does not divide the polynomial")
    return q.primitive()


def _sturm_chain(p: UnivariatePoly) -> list[UnivariatePoly]:
    chain = [p.primitive(), p.derivative().primitive()]
    while not chain[-1].is_zero():
        _, r = chain[-2].divmod(chain[-1])
        if r.is_zero():
            break
        # Dividing by the (positive) content keeps coefficients small without
        # disturbing signs, which is all the chain cares about.
        chain.append((-r).primitive())
    return [c for c in chain if not c.is_zero()]


def _variations(values: Iterable[Fraction]) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _variations_at(chain: Sequence[UnivariatePoly], x: Fraction) -> int:
    return _variations(c.evaluate(x) for c in chain)


def root_bound(p: UnivariatePoly) -> Fraction:
    """A strict Cauchy bound: every real root lies in (-B, B)."""
    if p.degree < 1:
        return Fraction(1)
    lead = abs(p.coeffs[-1])
    rest = max((abs(c) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + rest / lead


def count_real_roots(p: UnivariatePoly) -> int:
    """Number of distinct real roots (exact, via Sturm on the squarefree part)."""
    sf = squarefree_part(p)
    if sf.degree <= 0:
        return 0
    chain = _sturm_chain(sf)
    b = root_bound(sf)
    return _variations_at(chain, -b) - _variations_at(chain, b)


def _isolate_or_hit(sf: UnivariatePoly) -> tuple[list[tuple[Fraction, Fraction]], Fraction | None]:
    """Isolate real roots of a squarefree poly whose endpoints are non-roots.

    Returns (intervals, None) on success, or ((), hit) when bisection landed
    exactly on a root; the caller deflates and retries. Interval endpoints are
    guaranteed non-roots, so each interval brackets its root with a sign change.
    """
    chain = _sturm_chain(sf)
    b = root_bound(sf)
    intervals: list[tuple[Fraction, Fraction]] = []
    stack = [(-b, b, _variations_at(chain, -b), _variations_at(chain, b))]
    while stack:
        lo, hi, vlo, vhi = stack.pop()
        count = vlo - vhi
        if count == 0:
            continue
        if count == 1:
            intervals.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if sf.evaluate(mid) == 0:
            return [], mid
        vmid = _variations_at(chain, mid)
        stack.append((lo, mid, vlo, vmid))
        stack.append((mid, hi, vmid, vhi))
    return sorted(intervals), None


def rational_roots(p: UnivariatePoly) -> list[Fraction]:
    """All distinct rational roots, exactly, without integer factorization."""
    if p.degree <= 0:
        return []
    roots: set[Fraction] = set()
    sf = squarefree_part(p)
    while sf.degree >= 1 and sf.coeffs[0] == 0:
        roots.add(Fraction(0))
        sf = UnivariatePoly(sf.coeffs[1:])
    while sf.degree >= 1:
        intervals, hit = _isolate_or_hit(sf)
        if hit is not None:
            roots.add(hit)
            sf, rem = sf.divmod(UnivariatePoly([-hit, 1]))
            if not rem.is_zero():
                raise InvariantViolation(f"root {hit} left a remainder")
            sf = sf.primitive()
            continue
        lead = abs(int(sf.coeffs[-1]))
        width_limit = Fraction(1, 2 * lead * lead + 1)
        for lo, hi in intervals:
            flo = sf.evaluate(lo)
            found = None
            while hi - lo > width_limit:
                mid = (lo + hi) / 2
                fmid = sf.evaluate(mid)
                if fmid == 0:
                    found = mid
                    break
                if (flo > 0) != (fmid > 0):
                    hi = mid
                else:
                    lo, flo = mid, fmid
            if found is None:
                cand = ((lo + hi) / 2).limit_denominator(lead)
                if sf.evaluate(cand) == 0:
                    found = cand
            if found is not None:
                roots.add(found)
        break
    return sorted(roots)


def rational_roots_with_multiplicity(p: UnivariatePoly) -> list[tuple[Fraction, int]]:
    out = []
    for r in rational_roots(p):
        factor = UnivariatePoly([-r, 1])
        mult = 0
        q = p
        while True:
            quo, rem = q.divmod(factor)
            if not rem.is_zero():
                break
            mult += 1
            q = quo
        out.append((r, mult))
    return out


class BivariatePoly:
    """Sparse exact polynomial in (x, y), keyed by (i, j) exponent pairs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction | int] | None = None):
        cleaned: dict[tuple[int, int], Fraction] = {}
        for key, val in (coeffs or {}).items():
            v = Fraction(val)
            if v != 0:
                cleaned[key] = v
        self.coeffs = cleaned

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def constant(cls, c: Fraction | int) -> "BivariatePoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def linear(cls, cx: Fraction | int, cy: Fraction | int, c0: Fraction | int) -> "BivariatePoly":
        return cls({(1, 0): cx, (0, 1): cy, (0, 0): c0})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BivariatePoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        items = ", ".join(f"x^{i}y^{j}: {c}" for (i, j), c in sorted(self.coeffs.items()))
        return f"BivariatePoly({{{items}}})"

    def coeff(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

    def __add__(self, other: "BivariatePoly") -> "BivariatePoly":
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + val
        return BivariatePoly(out)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: "BivariatePoly") -> "BivariatePoly":
        return self + (-other)

    def __mul__(self, other: "BivariatePoly") -> "BivariatePoly":
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), a in self.coeffs.items():
            for (i2, j2), b in other.coeffs.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, Fraction(0)) + a * b
        return BivariatePoly(out)

    def scale(self, k: Fraction | int) -> "BivariatePoly":
        k = Fraction(k)
        return BivariatePoly({key: v * k for key, v in self.coeffs.items()})

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def homogeneous_part(self, d: int) -> "BivariatePoly":
        return BivariatePoly({k: v for k, v in self.coeffs.items() if k[0] + k[1] == d})

    def evaluate(self, x: Fraction | int, y: Fraction | int) -> Fraction:
        x, y = Fraction(x), Fraction(y)
        total = Fraction(0)
        for (i, j), c in self.coeffs.items():
            total += c * x**i * y**j
        return total

    def substitute(self, px: "BivariatePoly", py: "BivariatePoly") -> "BivariatePoly":
        """Compose: self(px(u, v), py(u, v))."""
        if not self.coeffs:
            return BivariatePoly.zero()
        max_i = max(i for i, _ in self.coeffs)
        max_j = max(j for _, j in self.coeffs)
        xpow = [BivariatePoly.constant(1)]
        for _ in range(max_i):
            xpow.append(xpow[-1] * px)
        ypow = [BivariatePoly.constant(1)]
        for _ in range(max_j):
            ypow.append(ypow[-1] * py)
        out = BivariatePoly.zero()
        for (i, j), c in self.coeffs.items():
            out = out + (xpow[i] * ypow[j]).scale(c)
        return out

    def shear_x(self, t: Fraction | int) -> "BivariatePoly":
        """Substitute x -> x + t*y (keeps total degree, fixes the y-leading term)."""
        return self.substitute(
            BivariatePoly.linear(1, Fraction(t), 0), BivariatePoly.linear(0, 1, 0)
        )

    def y_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(j for _, j in self.coeffs)

    def y_coefficients(self) -> list[UnivariatePoly]:
        """Coefficient of y^j as a polynomial in x, for j = 0..y_degree."""
        dy = self.y_degree()
        if dy < 0:
            return []
        cols: list[dict[int, Fraction]] = [dict() for _ in range(dy + 1)]
        for (i, j), c in self.coeffs.items():
            cols[j][i] = c
        out = []
        for col in cols:
            n = max(col) + 1 if col else 0
            out.append(UnivariatePoly([col.get(i, Fraction(0)) for i in range(n)]))
        return out

    def section_at_x(self, x0: Fraction | int) -> UnivariatePoly:
        """The univariate slice f(x0, y)."""
        x0 = Fraction(x0)
        dy = self.y_degree()
        vals = [Fraction(0)] * (dy + 1 if dy >= 0 else 0)
        for (i, j), c in self.coeffs.items():
            vals[j] += c * x0**i
        return UnivariatePoly(vals)

    def restrict_to_line(self, slope_: Fraction, offset: Fraction) -> UnivariatePoly:
        """f(t, slope*t + offset) as a univariate polynomial in t."""
        sub = self.substitute(
            BivariatePoly.linear(1, 0, 0),
            BivariatePoly.linear(Fraction(slope_), 0, Fraction(offset)),
        )
        deg = max((i for i, _ in sub.coeffs), default=-1)
        return UnivariatePoly([sub.coeff(i, 0) for i in range(deg + 1)])

    def divide_by_linear(
        self, cx: Fraction | int, cy: Fraction | int, c0: Fraction | int
    ) -> tuple["BivariatePoly", "BivariatePoly"]:
        """Divide by cx*x + cy*y + c0; returns (quotient, remainder)."""
        cx, cy, c0 = Fraction(cx), Fraction(cy), Fraction(c0)
        if cx == 0 and cy == 0:
            raise ZeroDivisionError("not a linear form")
        # Change coordinates so the divisor becomes the first variable u,
        # divide by shifting exponents, then map back.
        if cx != 0:
            # u = cx*x + cy*y + c0, v = y  =>  x = (u - cy*v - c0)/cx, y = v
            fu = self.substitute(
                BivariatePoly({(1, 0): 1 / cx, (0, 1): -cy / cx, (0, 0): -c0 / cx}),
                BivariatePoly.linear(0, 1, 0),
            )
            back_u = BivariatePoly.linear(cx, cy, c0)
            back_v = BivariatePoly.linear(0, 1, 0)
        else:
            # u = cy*y + c0, v = x  =>  y = (u - c0)/cy, x = v
            fu = self.substitute(
                BivariatePoly.linear(0, 1, 0),
                BivariatePoly({(1, 0): 1 / cy, (0, 0): -c0 / cy}),
            )
            back_u = BivariatePoly.linear(0, cy, c0)
            back_v = BivariatePoly.linear(1, 0, 0)
        quo_u = BivariatePoly({(i - 1, j): c for (i, j), c in fu.coeffs.items() if i >= 1})
        rem_u = BivariatePoly({(0, j): c for (i, j), c in fu.coeffs.items() if i == 0})
        return quo_u.substitute(back_u, back_v), rem_u.substitute(back_u, back_v)


def lagrange_interpolate(samples: Sequence[tuple[Fraction, Fraction]]) -> UnivariatePoly:
    """Exact interpolation through (x, value) samples with distinct x."""
    total = UnivariatePoly()
    for i, (xi, yi) in enumerate(samples):
        if yi == 0:
            continue
        basis = UnivariatePoly([1])
        denom = Fraction(1)
        for j, (xj, _) in enumerate(samples):
            if i == j:
                continue
            basis = basis * UnivariatePoly([-xj, 1])
            denom *= xi - xj
        total = total + basis.scale(yi / denom)
    return total


def _det_fraction(matrix: list[list[Fraction]]) -> Fraction:
    """Determinant by fraction Gaussian elimination with partial pivoting."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            factor = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return det


def sylvester_resultant_y(f: BivariatePoly, g: BivariatePoly) -> UnivariatePoly:
    """Resultant of f and g with respect to y, as a polynomial in x.

    Computed by evaluating the Sylvester determinant at enough x values and
    interpolating, which avoids determinants with polynomial entries. Both
    y-leading coefficients must be nonzero constants (shear the inputs first
    when necessary) so one fixed matrix shape is valid at every sample.
    """
    fc = f.y_coefficients()
    gc = g.y_coefficients()
    n, m = len(fc) - 1, len(gc) - 1
    if n < 1 or m < 1:
        raise ValueError("both polynomials must involve y")
    if fc[-1].degree != 0 or gc[-1].degree != 0:
        raise ValueError("y-leading coefficients must be constants; shear first")
    deg_bound = sum(max(p.degree, 0) for p in fc) + sum(max(p.degree, 0) for p in gc)
    size = n + m
    samples: list[tuple[Fraction, Fraction]] = []
    for k in range(deg_bound + 1):
        x0 = Fraction(k)
        frow = [p.evaluate(x0) for p in reversed(fc)]
        grow = [p.evaluate(x0) for p in reversed(gc)]
        matrix = []
        for shift in range(m):
            row = [Fraction(0)] * size
            row[shift : shift + n + 1] = frow
            matrix.append(row)
        for shift in range(n):
            row = [Fraction(0)] * size
            row[shift : shift + m + 1] = grow
            matrix.append(row)
        samples.append((x0, _det_fraction(matrix)))
    return lagrange_interpolate(samples)
