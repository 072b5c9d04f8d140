"""The Fraction arithmetic on `BivariatePoly` and `UnivariatePoly` that the
package used before its integer kits, kept as the tests' oracle.

Both classes here subclass the package's containers, so their instances go
wherever the package takes one (`BivariateCubic.from_poly`,
`sylvester_resultant_y`, `rational_roots`), and every operation returns the
subclass. Wrap a polynomial the package returns with `of` before doing
arithmetic on it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from equiarea import polynomial


class UnivariatePoly(polynomial.UnivariatePoly):
    """Dense univariate polynomial with Fraction arithmetic."""

    __slots__ = ()

    @classmethod
    def of(cls, p: polynomial.UnivariatePoly) -> "UnivariatePoly":
        return cls(p.coeffs)

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
        ints, _ = polynomial.cleared(self.coeffs)
        g = math.gcd(*ints)
        return UnivariatePoly(c // g for c in ints) if g else UnivariatePoly()




class BivariatePoly(polynomial.BivariatePoly):
    """Sparse exact polynomial in (x, y) with Fraction arithmetic."""

    __slots__ = ()

    @classmethod
    def of(cls, p: polynomial.BivariatePoly) -> "BivariatePoly":
        return cls(p.coeffs)

    @classmethod
    def zero(cls) -> "BivariatePoly":
        return cls()

    @classmethod
    def constant(cls, c: Fraction | int) -> "BivariatePoly":
        return cls({(0, 0): Fraction(c)})

    @classmethod
    def linear(cls, cx: Fraction | int, cy: Fraction | int, c0: Fraction | int) -> "BivariatePoly":
        return cls({(1, 0): cx, (0, 1): cy, (0, 0): c0})

    def __add__(self, other: polynomial.BivariatePoly) -> "BivariatePoly":
        out = dict(self.coeffs)
        for key, val in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + val
        return BivariatePoly(out)

    def __neg__(self) -> "BivariatePoly":
        return BivariatePoly({k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other: polynomial.BivariatePoly) -> "BivariatePoly":
        return self + (-BivariatePoly.of(other))

    def __mul__(self, other: polynomial.BivariatePoly) -> "BivariatePoly":
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
