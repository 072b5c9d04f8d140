"""The Fraction polynomials the package used before its integer kits, the
Fraction `make_bundle` of a generator pair, and the Fraction shear rule and
incidence listing, kept as the tests' oracles.

`UnivariatePoly` is a dense Fraction polynomial with its own coercing
constructor, so arithmetic on it stays exact whatever it was built from.
The package's univariate kit takes integer coefficient sequences: `ints`
clears a polynomial into one (through `cleared`), and `of` reads the
package's integer resultant back. `BivariatePoly` is a sparse Fraction
polynomial in (x, y) that exists only here: the package's one bivariate
representation is 10 integer coefficients in MONOMIALS order. `slots`
clears a polynomial into that form, the way to hand it to the package
(`BivariateCubic.from_ints`, `sylvester_resultant_y`), and `from_slots`
reads one back.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from equiarea import polynomial
from equiarea.geometry import Line, Point, cleared, line_through
from equiarea.incidence import VerticalLinePresent
from equiarea.matching import IncidencePairParam, to_param


class UnivariatePoly:
    """Dense univariate polynomial with Fraction coefficients and
    arithmetic, low degree first, without trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def of(cls, p: polynomial.UnivariatePoly) -> "UnivariatePoly":
        return cls(p.coeffs)

    def ints(self) -> list[int]:
        """The coefficients with denominators cleared: the integer sequence
        the package's univariate kit takes."""
        return cleared(self.coeffs)[0]

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

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
        ints, _ = cleared(self.coeffs)
        g = math.gcd(*ints)
        return UnivariatePoly(c // g for c in ints) if g else UnivariatePoly()


class BivariatePoly:
    """Sparse exact polynomial in (x, y) with Fraction arithmetic, keyed by
    (i, j) exponent pairs."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[tuple[int, int], Fraction | int] | None = None):
        cleaned: dict[tuple[int, int], Fraction] = {}
        for key, val in (coeffs or {}).items():
            v = Fraction(val)
            if v != 0:
                cleaned[key] = v
        self.coeffs = cleaned

    @classmethod
    def from_slots(cls, cs: Sequence[int]) -> "BivariatePoly":
        """The polynomial of coefficients in MONOMIALS order."""
        return cls(dict(zip(polynomial.MONOMIALS, cs)))

    def slots(self) -> list[int]:
        """The coefficients in MONOMIALS order, denominators cleared once: the
        form the package's cubic kit takes."""
        if self.total_degree() > 3:
            raise ValueError("degree exceeds 3")
        return cleared(self.coeff(i, j) for i, j in polynomial.MONOMIALS)[0]

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

    def total_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def y_degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(j for _, j in self.coeffs)

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def constant(cls, c: Fraction | int) -> "BivariatePoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def linear(cls, cx: Fraction | int, cy: Fraction | int, c0: Fraction | int) -> "BivariatePoly":
        return cls({(1, 0): cx, (0, 1): cy, (0, 0): c0})

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


def make_bundle(p1: IncidencePairParam, p2: IncidencePairParam) -> dict:
    """The linear-form bundle of two generators, written out in Fractions, in
    the layout of `CurveCase.bundle`."""
    a1, b1, k1 = p1.a, p1.b, p1.kappa
    a2, b2, k2 = p2.a, p2.b, p2.kappa
    d = 2 * k1 * k2 * (a2 - a1) - (k1 + k2) * (b2 - b1)
    e = 2 * (b2 - b1) - (k1 + k2) * (a2 - a1)
    f = k1 * k2 * (a1**2 - a2**2) + (k1 + k2) * (a2 * b2 - a1 * b1) + (b1**2 - b2**2)
    forms = {
        "L1": (-k1, 1, k1 * a1 - b1),  # y - b1 - k1*(x - a1)
        "L2": (-k2, 1, k2 * a2 - b2),
        "L3": (b2 - b1, -(a2 - a1), a2 * b1 - a1 * b2),
        "L4": (-k2, 1, k2 * a1 - b1),
        "L5": (-k1, 1, k1 * a2 - b2),
        "L6": (d, e, f),
    }
    s = (b2 - b1) - k2 * (a2 - a1)
    return {**{name: tuple(map(Fraction, form)) for name, form in forms.items()},
            "C": k1 - k2, "D": d, "E": e, "F": f, "s": s}


def fraction_find_shear(points: Sequence[Point]) -> Fraction:
    """The first t in 0, 1, 1/2, 1/3, ... after which no two of the distinct
    `points` share an x coordinate, found by shearing in Fractions."""
    t, j = Fraction(0), 1
    while len({p.x + t * p.y for p in points}) < len(points):
        t, j = Fraction(1, j), j + 1
    return t


def fraction_incidence_pairs(points: Sequence[Point], k: int) -> list[IncidencePairParam]:
    """One pair per (line, member) over the lines through at least k points:
    every point pair grouped by `line_through`, the lines sorted, members
    ascending, and `to_param` on each. The first vertical one of those lines
    raises VerticalLinePresent."""
    members: dict[Line, set[Point]] = {}
    for p, q in combinations(points, 2):
        members.setdefault(line_through(p, q), set()).update((p, q))
    rich = sorted((line, sorted(on)) for line, on in members.items() if len(on) >= k)
    for line, _ in rich:
        if line.is_vertical:
            raise VerticalLinePresent(f"{line} is rich and vertical")
    return [to_param(line, p) for line, on in rich for p in on]
