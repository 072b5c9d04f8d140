"""Small exact polynomial kit over the rationals.

Univariate: a polynomial is a sequence of ints, low degree first; gcd, Sturm
real-root counting, rational roots (with the real-root count from the same
Sturm chain) and root isolation, each on the primitive part (signed
pseudo-remainders, homogeneous Horner signs at dyadic points, no integer
factoring). Reduction modulo the primes up to 47 proves most polynomials
free of rational roots, and then the real-root count comes from the Sturm
chain with no bisection. Bivariate: one representation, 10 integer
coefficients in MONOMIALS order, and a cubic kit on it (products with linear
forms, affine substitution scaled by the cube of its denominator, sections
and values homogeneous in a denominator, the total degree), with the
Sylvester resultant in y by Bareiss elimination at integer samples plus
Newton interpolation, checked by one sample beyond the Bezout bound.
Callers clear denominators once, with `geometry.cleared`, where a
Fraction-valued polynomial or value comes in.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import InvariantViolation


class UnivariatePoly:
    """The exact integer coefficients of a resultant, low degree first,
    without trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1


# ---------------------------------------------------------------------------
# Integer kit. Each public function takes a sequence of ints, low degree
# first, and works on its primitive part: trailing zeros and the content
# stripped by `_primitive`. A point is a fraction n/d with d > 0, where the
# kit takes the integer d^deg * p(n/d), which has the sign of p(n/d).

_Interval = tuple[int, int, int]  # (lo, hi, d): the open interval (lo/d, hi/d)


def _primitive(cs: Sequence[int]) -> tuple[int, ...]:
    """Strip trailing zeros and divide by the (positive) content."""
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    g = math.gcd(*cs)
    return tuple(c // g for c in cs) if g > 1 else tuple(cs)


def _derivative(a: tuple[int, ...]) -> tuple[int, ...]:
    return _primitive([i * c for i, c in enumerate(a)][1:])


def _value(a: Sequence[int], n: int, d: int = 1) -> int:
    """Homogeneous Horner: the sum of c_i n^i d^(deg - i)."""
    acc, dk = 0, 1
    for c in reversed(a):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Remainder of a by b times a positive integer, made primitive. Each
    step scales by |lc(b)|, so the sign a Sturm chain needs is kept."""
    lb, sb, db = abs(b[-1]), (1 if b[-1] > 0 else -1), len(b) - 1
    r = list(a)
    while len(r) > db:
        top = r.pop() * sb
        shift = len(r) - db
        r = [c * lb for c in r]
        for j in range(db):
            r[shift + j] -= top * b[j]
        while r and r[-1] == 0:
            r.pop()
    return _primitive(r)


def _quotient(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...] | None:
    """a / b if the primitive b divides a, else None. By Gauss's lemma such a
    quotient is integral, so a non-integral step means b does not divide."""
    db, lb = len(b) - 1, b[-1]
    r, q = list(a), [0] * max(len(a) - db, 0)
    for k in range(len(q) - 1, -1, -1):
        q[k], rem = divmod(r[k + db], lb)
        if rem:
            return None
        for j in range(db):
            r[k + j] -= q[k] * b[j]
    return None if any(r[:db]) else tuple(q)


def _gcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Gcd of primitive a and b, with a positive leading coefficient."""
    while b:
        a, b = b, _prem(a, b)
    return tuple(-c for c in a) if a and a[-1] < 0 else a


def _squarefree(a: tuple[int, ...]) -> tuple[int, ...]:
    """The squarefree part of a primitive a, with a's leading sign."""
    if len(a) <= 2:
        return a
    q = _quotient(a, _gcd(a, _derivative(a)))
    if q is None:
        raise InvariantViolation("gcd with the derivative does not divide the polynomial")
    return q


def _sturm_chain(a: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Signed pseudo-remainder sequence of a squarefree a."""
    chain = [a, _derivative(a)]
    while len(chain[-1]) > 1 and (r := _prem(chain[-2], chain[-1])):
        chain.append(tuple(-c for c in r))
    return chain


def _variations(values: Iterable[int]) -> int:
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _infinity_count(chain: list[tuple[int, ...]]) -> int:
    """The distinct real roots of chain[0]: the chain's sign variations at
    -inf less those at +inf, read off its leading terms."""
    return _variations(c[-1] * (-1) ** (len(c) - 1) for c in chain) - _variations(c[-1] for c in chain)


# Primes for the no-rational-root certificate. A root n/q in lowest terms of
# an integer polynomial has q | lc, so for a prime l that does not divide lc,
# q is a unit mod l and n * q^-1 is a root mod l.
_CERTIFICATE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _no_rational_root(a: tuple[int, ...]) -> bool:
    """True when a prime of the table that does not divide a's leading
    coefficient leaves a without a root mod it, which proves that a has no
    rational root; False proves nothing."""
    for ell in _CERTIFICATE_PRIMES:
        if a[-1] % ell:
            high_first = [c % ell for c in reversed(a)]
            for x in range(ell):
                v = 0
                for c in high_first:
                    v = v * x + c
                if v % ell == 0:
                    break
            else:
                return True
    return False


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Gcd, normalized primitive with positive leading coefficient."""
    return _gcd(_primitive(a), _primitive(b))


def count_real_roots(p: Sequence[int]) -> int:
    """Number of distinct real roots: Sturm on the squarefree part, with the
    chain's signs at -inf and +inf read off its leading terms."""
    sf = _squarefree(_primitive(p))
    return _infinity_count(_sturm_chain(sf)) if len(sf) > 1 else 0


def _isolate_or_hit(chain: list[tuple[int, ...]]) -> tuple[list[_Interval], tuple[int, int] | None]:
    """Sturm bisection of (-2^k, 2^k), which strictly contains the Cauchy
    bound, for the squarefree chain[0]: (intervals, None), one per real root,
    with non-root endpoints; or ([], (n, d)) when the bisection point n/d is
    a root, for the caller to deflate and retry."""
    sf = chain[0]
    b = 1 << (max(map(abs, sf[:-1]), default=0) // abs(sf[-1]) + 2).bit_length()
    intervals: list[_Interval] = []
    stack = [(-b, b, 1, *(_variations(_value(c, x) for c in chain) for x in (-b, b)))]
    while stack:
        lo, hi, d, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            intervals.append((lo, hi, d))
        elif vlo - vhi > 1:
            mid, d = lo + hi, 2 * d
            if _value(sf, mid, d) == 0:
                return [], (mid, d)
            vmid = _variations(_value(c, mid, d) for c in chain)
            stack += [(2 * lo, mid, d, vlo, vmid), (mid, 2 * hi, d, vmid, vhi)]
    return intervals, None


def _narrow(a: tuple[int, ...], interval: _Interval, width: Fraction) -> _Interval:
    """Bisect an isolating interval to width <= `width`; (n, n, d) when the
    bisection point n/d is the root."""
    lo, hi, d = interval
    low_positive = _value(a, lo, d) > 0
    while (hi - lo) * width.denominator > width.numerator * d:
        mid, d = lo + hi, 2 * d
        v = _value(a, mid, d)
        if v == 0:
            return mid, mid, d
        lo, hi = (mid, 2 * hi) if (v > 0) == low_positive else (2 * lo, mid)
    return lo, hi, d


def _real_roots(chain: list[tuple[int, ...]], width: Fraction) -> list[_Interval]:
    """One interval of width <= `width` around each real root of the
    squarefree chain[0], given its Sturm chain, or (n, n, d) for a root n/d
    that bisection hit."""
    hits, intervals = [], []
    while len(chain[0]) > 1:
        intervals, hit = _isolate_or_hit(chain)
        if hit is None:
            break
        g = math.gcd(*hit)
        hits.append((hit[0], hit[0], hit[1]))
        a, intervals = _quotient(chain[0], (-hit[0] // g, hit[1] // g)), []
        if a is None:
            raise InvariantViolation(f"root {hit[0]}/{hit[1]} left a remainder")
        chain = _sturm_chain(a)
    return hits + [_narrow(chain[0], interval, width) for interval in intervals]


def real_and_rational_roots(p: Sequence[int]) -> tuple[int, list[Fraction]]:
    """The number of distinct real roots and all distinct rational roots,
    exactly, from the squarefree part and its Sturm chain; no integer
    factorization.

    First a certificate: if a prime of a small table, not dividing the
    leading coefficient, leaves the squarefree part with no root mod it,
    there is no rational root, and the count is read off the chain at -inf
    and +inf with no bisection. Otherwise the isolation leaves one interval
    per real root. A rational root of the primitive squarefree part is k/L
    for an integer k, with L its |leading coefficient|, and an open interval
    no wider than 1/L holds at most one such fraction: each root's narrowed
    interval has one candidate, which exact evaluation decides.
    """
    sf = _squarefree(_primitive(p))
    if len(sf) <= 1:
        return 0, []
    chain = _sturm_chain(sf)
    if _no_rational_root(sf):
        return _infinity_count(chain), []
    lead, roots = abs(sf[-1]), set()
    isolated = _real_roots(chain, Fraction(1, lead))
    for lo, hi, d in isolated:
        if lo == hi:
            roots.add(Fraction(lo, d))
        elif (k := lo * lead // d + 1) * d < hi * lead and _value(sf, k, lead) == 0:
            roots.add(Fraction(k, lead))
    return len(isolated), sorted(roots)


def rational_roots(p: Sequence[int]) -> list[Fraction]:
    """All distinct rational roots, exactly (see `real_and_rational_roots`)."""
    return real_and_rational_roots(p)[1]


def rational_factors(a: Sequence[int]) -> tuple[list[tuple[Fraction, int]], tuple[int, ...]]:
    """The distinct rational roots of the integer polynomial a with their
    multiplicities, and the primitive part of a with their linear factors
    divided out."""
    a, out = _primitive(a), []
    for r in rational_roots(a):
        factor, mult = (-r.numerator, r.denominator), 0
        while (q := _quotient(a, factor)) is not None:
            a, mult = q, mult + 1
        out.append((r, mult))
    return out, a


def nearest_real_root(p: Sequence[int], width: Fraction) -> Fraction | None:
    """Within width/2 of the real root of p nearest 0 (exactly it when
    bisection hit it), or None when p has no real root; 0 for p = 0. The
    width must be positive."""
    if width <= 0:
        raise ValueError(f"root width must be positive, got {width}")
    a = _primitive(p)
    if not a:
        return Fraction(0)
    near = [Fraction(lo + hi, 2 * d) for lo, hi, d in _real_roots(_sturm_chain(_squarefree(a)), width)]
    return min(near, key=abs, default=None)


# ---------------------------------------------------------------------------
# Cubic kit. A polynomial of total degree <= 3 in (x, y) is a sequence of 10
# ints, its coefficients in MONOMIALS order. A nonzero integer factor changes
# no zero set, root or coefficient ratio, so the kit scales freely: an
# affine substitution with denominator w comes back multiplied by w^3.

# Graded-lex descending monomial order; also the canonical sign-rule order.
MONOMIALS: tuple[tuple[int, int], ...] = (
    (3, 0), (2, 1), (1, 2), (0, 3),
    (2, 0), (1, 1), (0, 2),
    (1, 0), (0, 1),
    (0, 0),
)
_SLOT = {m: k for k, m in enumerate(MONOMIALS)}
_TIMES_X = tuple(_SLOT.get((i + 1, j)) for i, j in MONOMIALS)
_TIMES_Y = tuple(_SLOT.get((i, j + 1)) for i, j in MONOMIALS)
# Every monomial but 1 as (slot, slot of a monomial of one degree less, 0 to
# multiply that one by x or 1 for y), by ascending degree.
_BUILD = tuple(
    (k, _SLOT[(i - 1, j)] if i else _SLOT[(i, j - 1)], 0 if i else 1)
    for k, (i, j) in reversed(list(enumerate(MONOMIALS))) if i + j
)
_ONE = (0,) * 9 + (1,)
# Slots of x^i y^j for i = 0..3-j, one tuple per j: the y-columns.
Y_COLUMNS = tuple(tuple(_SLOT[(i, j)] for i in range(4 - j)) for j in range(4))
AffineForm = tuple[int, int, int]  # (a, b, c): a*u + b*v + c


def times_linear(p: Sequence[int], a: int, b: int, c: int) -> list[int]:
    """p * (a*x + b*y + c), for p of total degree <= 2."""
    if any(p[:4]):
        raise ValueError("product would exceed degree 3")
    out = [c * v for v in p]
    for k in range(4, 10):
        if v := p[k]:
            out[_TIMES_X[k]] += a * v
            out[_TIMES_Y[k]] += b * v
    return out


def substitute(f: Sequence[int], px: AffineForm, py: AffineForm, w: int = 1) -> list[int]:
    """w^3 * f(px(u, v) / w, py(u, v) / w), in the new variables (u, v)."""
    table: list[Sequence[int]] = [_ONE] * 10
    for k, lower, by_y in _BUILD:
        table[k] = times_linear(table[lower], *(py if by_y else px))
    wpow = (w**3, w * w, w, 1)
    out = [0] * 10
    for k, (i, j) in enumerate(MONOMIALS):
        if c := f[k] * wpow[i + j]:
            out = [o + c * t for o, t in zip(out, table[k])]
    return out


def on_line(f: Sequence[int], px: tuple[int, int], py: tuple[int, int], w: int = 1) -> tuple[int, ...]:
    """f along x = (px[0] + px[1]*t) / w, y = (py[0] + py[1]*t) / w, as a
    polynomial in t, low degree first: w^3 times it, divided by its content."""
    g = substitute(f, (px[1], 0, px[0]), (py[1], 0, py[0]), w)
    return _primitive((g[9], g[7], g[4], g[0]))


def x_section(f: Sequence[int], n: int, d: int = 1) -> tuple[int, ...]:
    """f(n/d, y) as a polynomial in y, low degree first: d^3 times it,
    divided by its content."""
    out, npow, dpow = [0] * 4, (1, n, n * n, n**3), (d**3, d * d, d, 1)
    for c, (i, j) in zip(f, MONOMIALS):
        out[j] += c * npow[i] * dpow[i]
    return _primitive(out)


def form_value(form: Sequence[int], x: int, y: int) -> int:
    """A binary form at (x, y), its coefficients in MONOMIALS order: the
    sum of form[k] * x^(d-k) * y^k."""
    return _value(form[::-1], x, y)


def cubic_value(f: Sequence[int], x: int, y: int, w: int = 1) -> int:
    """w^3 * f(x/w, y/w)."""
    return form_value(f[:4], x, y) + w * (form_value(f[4:7], x, y) + w * (form_value(f[7:9], x, y) + w * f[9]))


def cubic_degree(f: Sequence[int]) -> int:
    """Total degree of f, coefficients in MONOMIALS order; -1 for zero."""
    return next((i + j for (i, j), c in zip(MONOMIALS, f) if c), -1)


def _y_columns(f: Sequence[int]) -> list[list[int]]:
    """f's y-coefficients as polynomials in x, low degree first, up to f's
    y-degree."""
    cols = [[f[k] for k in col] for col in Y_COLUMNS]
    while cols and not any(cols[-1]):
        cols.pop()
    return cols


def _bareiss(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968); every division is exact."""
    n, sign, prev = len(rows), 1, 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if rows[r][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap], sign = rows[swap], rows[k], -sign
        pivot, top = rows[k][k], rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - lead * top[j]) // prev
        prev = pivot
    return sign * rows[-1][-1]


def sylvester_resultant_y(f: Sequence[int], g: Sequence[int]) -> UnivariatePoly:
    """Resultant of f and g with respect to y, as a polynomial in x; f and g
    are integer coefficients in MONOMIALS order.

    The Sylvester determinant is taken by Bareiss elimination at x = 0..D+1,
    with D = deg f * deg g the Bezout bound on its degree, and the polynomial
    is rebuilt from the first D+1 samples' forward differences (Newton), with
    one final exact division. The extra sample checks the bound: the (D+1)-th
    difference of a polynomial of degree <= D is 0. Both y-leading
    coefficients must be nonzero constants (shear the inputs first when
    necessary) so one fixed matrix shape is valid at every sample.
    """
    fc, gc = _y_columns(f), _y_columns(g)
    n, m = len(fc) - 1, len(gc) - 1
    if n < 1 or m < 1:
        raise ValueError("both polynomials must involve y")
    if any(fc[-1][1:]) or any(gc[-1][1:]):
        raise ValueError("y-leading coefficients must be constants; shear first")
    bound = cubic_degree(f) * cubic_degree(g)
    values = []
    for x in range(bound + 2):
        frow = [_value(col, x) for col in reversed(fc)]
        grow = [_value(col, x) for col in reversed(gc)]
        rows = [[0] * s + frow + [0] * (m - 1 - s) for s in range(m)]
        rows += [[0] * s + grow + [0] * (n - 1 - s) for s in range(n)]
        values.append(_bareiss(rows))
    # bound! * Res = sum over k of (k-th difference at 0) * bound!/k! * x(x-1)...(x-k+1)
    fact = scale = math.factorial(bound)
    total, falling = [0] * (bound + 1), [1]
    for k in range(bound + 1):
        for i, c in enumerate(falling):
            total[i] += values[0] * scale * c
        values = [b - a for a, b in zip(values, values[1:])]
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
        scale //= k + 1
    if values != [0]:
        raise InvariantViolation(f"resultant samples are not of degree <= {bound}")
    if any(c % fact for c in total):
        raise InvariantViolation("interpolated resultant is not integral")
    while total and not total[-1]:
        total.pop()
    return UnivariatePoly(tuple(c // fact for c in total))
