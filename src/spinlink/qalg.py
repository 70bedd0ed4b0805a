"""Exact scalar arithmetic for quantum-integer computations.

Everything downstream works over the field Q(q^{1/2}).  Internally a
Laurent polynomial is stored in the variable v = q^{1/2}, as a sparse map
from integer v-exponent to an exact rational coefficient, so a single
integer-exponent ring serves both q and q^{1/2} contexts.  On top of that
sit rational functions (RatFunc) with a canonical reduced form, kept for
the quotients that are real (operator scalars, the X^(k) coefficients and
the identity battery), and GradedScalar, a link value: q^r times a Laurent
polynomial, with an exact rational exponent offset r so that q^{1/N}
prefactors stay exact without adjoining roots to the polynomial ring.
Every link polynomial is such a value, so no evaluation route builds a
quotient.

The module also houses the quantum-integer zoo: [n], q^k + q^{-k},
quantum binomials, the signed "devil" product of quantum integers, the
d-values (products of q^{2l-1} + q^{1-2l}), the rho recurrence, and the
identity battery over all of these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

Coeff = Union[int, Fraction]


def _norm_coeff(c: Coeff) -> Coeff:
    # exact type first: isinstance(c, Fraction) goes through the numbers ABCs
    if type(c) is int:
        return c
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class LaurentPoly:
    """A Laurent polynomial in v = q^{1/2} with exact rational coefficients.

    Exponents are stored in v-units (so the q-exponent is half the stored
    integer).  Zero coefficients are never stored.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs: Mapping[int, Coeff] | None = None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _norm_coeff(c)
                if c:
                    d[e] = c
        self.c = d

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def const(c: Coeff) -> "LaurentPoly":
        return LaurentPoly({0: c})

    @staticmethod
    def q_pow(e: int, c: Coeff = 1) -> "LaurentPoly":
        """The monomial c * q^e (integer q-exponent)."""
        return LaurentPoly({2 * e: c})

    @staticmethod
    def v_pow(e: int, c: Coeff = 1) -> "LaurentPoly":
        """The monomial c * v^e = c * q^{e/2}."""
        return LaurentPoly({e: c})

    # -- ring structure ------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.c)

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        c = self.c  # no dict literal: this runs once per entry in operator products
        return len(c) == 1 and c.get(0) == 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.c, other.c
        if not a:
            return other
        if not b:
            return self
        d = dict(a)
        for e, c in b.items():
            s = d.get(e, 0) + c
            if s:
                d[e] = s
            else:
                del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = d
        return out

    def __neg__(self) -> "LaurentPoly":
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = {e: -c for e, c in self.c.items()}
        return out

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other) -> "LaurentPoly":
        if type(other) is not LaurentPoly and isinstance(other, (int, Fraction)):
            return self.scale(other)
        a, b = self.c, other.c
        if not a or not b:
            return _ZERO
        if len(a) > len(b):
            a, b = b, a
        d: dict = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = ea + eb
                s = d.get(e, 0) + ca * cb
                if s:
                    d[e] = s
                else:
                    del d[e]
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = d
        return out

    __rmul__ = __mul__

    def scale(self, k: Coeff) -> "LaurentPoly":
        k = _norm_coeff(k)
        if not k:
            return _ZERO
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = {e: _norm_coeff(c * k) for e, c in self.c.items()}
        return out

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self.c) != 1:
                raise ValueError("negative power of a non-monomial")
            ((e, c),) = self.c.items()
            return LaurentPoly({e * n: Fraction(1) / Fraction(c) ** (-n)})
        r = LaurentPoly.one()
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def shift(self, e: int) -> "LaurentPoly":
        """Multiply by v^e."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = {k + e: c for k, c in self.c.items()}
        return out

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^{-1} (equivalently v -> v^{-1})."""
        out = LaurentPoly.__new__(LaurentPoly)
        out.c = {-e: c for e, c in self.c.items()}
        return out

    # -- inspection ------------------------------------------------------

    def v_valuation(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no valuation")
        return min(self.c)

    def v_degree(self) -> int:
        if not self.c:
            raise ValueError("zero polynomial has no degree")
        return max(self.c)

    def leading_coeff(self) -> Coeff:
        return self.c[self.v_degree()]

    def subs_v(self, v: Fraction) -> Fraction:
        """Evaluate at a nonzero rational value of v."""
        return sum((Fraction(c) * v ** e for e, c in self.c.items()), Fraction(0))

    # -- printing / serialization ----------------------------------------

    def __str__(self) -> str:
        if not self.c:
            return "0"
        parts = []
        for e, c in sorted(self.c.items(), reverse=True):
            cs = str(c) if c > 0 else f"({c})"
            if e == 0:
                parts.append(cs)
                continue
            eq = Fraction(e, 2)
            if eq.denominator == 1:
                es = "q" if eq == 1 else f"q^{eq.numerator}"
            else:
                es = f"q^({eq.numerator}/{eq.denominator})"
            head = "" if c == 1 else ("-" if c == -1 else cs + "*")
            parts.append(head + es)
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})


# -- integer-content and gcd helpers -------------------------------------


def _content_and_primitive(p: LaurentPoly) -> tuple[Fraction, dict[int, int]]:
    """Write p = content * primitive with primitive integer coefficients of gcd 1
    and positive leading coefficient, shifted to valuation 0."""
    if not p.c:
        return Fraction(0), {}
    val = p.v_valuation()
    den_lcm = 1
    for c in p.c.values():
        if type(c) is not int and isinstance(c, Fraction):
            den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    ints = {
        e - val: int(c * den_lcm) if type(c) is not int and isinstance(c, Fraction) else c * den_lcm
        for e, c in p.c.items()
    }
    g = 0
    for c in ints.values():
        g = math.gcd(g, abs(c))
    lead = ints[max(ints)]
    sgn = 1 if lead > 0 else -1
    prim = {e: c // (g * sgn) for e, c in ints.items()}
    content = Fraction(g * sgn, den_lcm)
    return content, prim


def _eliminate(r: dict[int, int], y: dict[int, int], shift: int, f: int) -> None:
    """r -= f * v^shift * y, in place (integer coefficients, zeros dropped)."""
    for e, c in y.items():
        ne = shift + e
        s = r.get(ne, 0) - f * c
        if s:
            r[ne] = s
        else:
            r.pop(ne, None)


def poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The gcd in canonical form: integer coefficients with content 1, a
    positive leading coefficient and valuation 0.

    Runs a primitive pseudo-remainder sequence over the integers, which is
    far cheaper than fraction arithmetic; each remainder is put in canonical
    form, and the last nonzero one is the gcd."""
    _, x = _content_and_primitive(a)
    _, y = _content_and_primitive(b)
    if not x or not y:
        return LaurentPoly(x or y)
    if max(x) < max(y):
        x, y = y, x
    while y:
        dx, dy = max(x), max(y)
        if dx < dy:
            x, y = y, x
            dx, dy = dy, dx
        ly = y[dy]
        # pseudo-division: multiply x by ly^(dx-dy+1) then divide out y
        r = {e: c * ly ** (dx - dy + 1) for e, c in x.items()}
        while r and max(r) >= dy:
            dr = max(r)
            f, rem = divmod(r[dr], ly)
            if rem:
                # stay exact: scale up once more (rare; powers above keep
                # leading coefficients divisible in the common case)
                r = {e: c * ly for e, c in r.items()}
                f = r[dr] // ly
            _eliminate(r, y, dr - dy, f)
        if r:
            g = 0
            for c in r.values():
                g = math.gcd(g, c)
            sgn = 1 if r[max(r)] > 0 else -1
            val = min(r)
            r = {e - val: c // (g * sgn) for e, c in r.items()}
        x, y = y, r
    return LaurentPoly(x)


def poly_divexact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact division a / b; raises if b does not divide a.  With b = content
    * v^val * primitive, a / primitive is poly_quotient's one long division."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    content, prim = _content_and_primitive(b)
    q = poly_quotient(a, LaurentPoly(prim))
    if q is None:
        raise ValueError("inexact polynomial division")
    return q.shift(-b.v_valuation()).scale(1 / content)


def poly_quotient(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly | None:
    """a / b if b divides a, else None, for b in canonical form: integer
    coefficients with content 1, a positive leading coefficient and
    valuation 0, as every denominator of a RatFunc or an operator is.  b is
    used as it stands, so dividing many entries by one denominator puts it
    in that form only once, where it is made.

    Long division of a's integer multiple: b is primitive, so if b divides
    an integer polynomial the quotient is integral (Gauss's lemma), and a
    quotient coefficient that is not an integer proves b does not divide."""
    x, y = a.c, b.c
    if not x:
        return _ZERO
    scale = 1
    if any(type(c) is not int for c in x.values()):
        for c in x.values():
            d = Fraction(c).denominator
            scale = scale * d // math.gcd(scale, d)
        x = {e: int(c * scale) for e, c in x.items()}
    else:
        x = dict(x)
    dy = max(y)
    ly, lo = y[dy], min(x) + dy  # an exact quotient has valuation min(a), so no remainder term lies below lo
    q: dict[int, Coeff] = {}
    while x:
        dx = max(x)
        if dx < lo:
            return None
        f, rem = divmod(x[dx], ly)
        if rem:
            return None
        q[dx - dy] = f
        _eliminate(x, y, dx - dy, f)
    if scale != 1:
        q = {e: _norm_coeff(Fraction(c, scale)) for e, c in q.items()}
    out = LaurentPoly.__new__(LaurentPoly)
    out.c = q
    return out


class RatFunc:
    """A ratio of Laurent polynomials in canonical reduced form.

    The denominator is nonzero, has integer coefficients with content 1,
    positive leading coefficient, and valuation 0; the numerator carries
    everything else.  Two RatFuncs are equal iff their parts are equal.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if den is None:
            den = _ONE
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num, self.den = _ZERO, _ONE
            return
        if den.is_one():
            self.num, self.den = num, _ONE
            return
        g = poly_gcd(num, den)
        if not g.is_one():
            num = poly_divexact(num, g)
            den = poly_divexact(den, g)
        # push units (monomials and rational content) into the numerator
        content, prim = _content_and_primitive(den)
        shift = den.v_valuation()
        den_canon = LaurentPoly(prim)
        num = num.shift(-shift).scale(Fraction(1, 1) / content)
        if den_canon.is_one():
            self.num, self.den = num, _ONE
        else:
            self.num, self.den = num, den_canon

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = p, _ONE
        return r

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc.from_poly(_ZERO)

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc.from_poly(_ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = RatFunc.from_poly(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num + other.num)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        r = RatFunc.__new__(RatFunc)
        r.num, r.den = -self.num, self.den
        return r

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other) -> "RatFunc":
        if type(other) is not RatFunc:
            if isinstance(other, (int, Fraction)):
                r = RatFunc.__new__(RatFunc)
                r.num, r.den = self.num.scale(other), self.den
                return r if other else RatFunc.zero()
            if isinstance(other, LaurentPoly):
                other = RatFunc.from_poly(other)
        if self.num.is_zero() or other.num.is_zero():
            return RatFunc.zero()
        if self.den.is_one() and other.den.is_one():
            r = RatFunc.__new__(RatFunc)
            r.num, r.den = self.num * other.num, _ONE
            return r
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "RatFunc":
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if isinstance(other, LaurentPoly):
            other = RatFunc.from_poly(other)
        return self * other.inv()

    def bar(self) -> "RatFunc":
        return RatFunc(self.num.bar(), self.den.bar())

    def as_poly(self) -> LaurentPoly:
        """Return the numerator if the denominator is 1, else raise."""
        if not self.den.is_one():
            raise ValueError(f"not a Laurent polynomial: {self}")
        return self.num

    def subs_v(self, v: Fraction) -> Fraction:
        d = self.den.subs_v(v)
        if d == 0:
            raise ZeroDivisionError("denominator vanishes at specialization point")
        return self.num.subs_v(v) / d

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self) -> str:
        return f"RatFunc({self})"


class GradedScalar:
    """An exact value q^r * f where r is rational and f is a LaurentPoly.

    The canonical form absorbs every integer power of v = q^{1/2} into f,
    leaving 0 <= r < 1/2; equality is then structural.  Addition is only
    defined between scalars whose canonical offsets agree (all uses in
    this package satisfy that).
    """

    __slots__ = ("offset", "body")

    def __init__(self, offset: Fraction | int, body: LaurentPoly):
        if not isinstance(body, LaurentPoly):
            raise TypeError(f"a GradedScalar body is a LaurentPoly, not {type(body).__name__}")
        twice = 2 * Fraction(offset)
        k = twice.numerator // twice.denominator  # floor
        if body.is_zero():
            self.offset, self.body = Fraction(0), body
        else:
            self.offset, self.body = (twice - k) / 2, body.shift(k) if k else body

    @staticmethod
    def zero() -> "GradedScalar":
        return GradedScalar(0, _ZERO)

    @staticmethod
    def one() -> "GradedScalar":
        return GradedScalar(0, _ONE)

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            other = GradedScalar(0, other)
        if not isinstance(other, GradedScalar):
            return NotImplemented
        return self.offset == other.offset and self.body == other.body

    def __hash__(self):
        return hash((self.offset, self.body))

    def __add__(self, other: "GradedScalar") -> "GradedScalar":
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.offset != other.offset:
            raise ValueError("cannot add scalars with incompatible exponent offsets")
        return GradedScalar(self.offset, self.body + other.body)

    def __neg__(self) -> "GradedScalar":
        return GradedScalar(self.offset, -self.body)

    def __sub__(self, other: "GradedScalar") -> "GradedScalar":
        return self + (-other)

    def __mul__(self, other) -> "GradedScalar":
        if isinstance(other, (int, Fraction)):
            return GradedScalar(self.offset, self.body.scale(other))
        if isinstance(other, LaurentPoly):
            other = GradedScalar(0, other)
        return GradedScalar(self.offset + other.offset, self.body * other.body)

    __rmul__ = __mul__

    def inv(self) -> "GradedScalar":
        """The inverse of a monomial; anything else raises ValueError."""
        return GradedScalar(-self.offset, self.body ** -1)

    def bar(self) -> "GradedScalar":
        """q -> q^{-1}."""
        return GradedScalar(-self.offset, self.body.bar())

    def json_terms(self) -> list[list[int]]:
        """Terms as [exp_num, exp_den, coeff_num, coeff_den] with the offset
        folded into each exponent.  With offset 0 (every spin value) an
        exponent is e/2 in lowest terms and an int coefficient is c/1, so no
        Fraction is built for them."""
        out = []
        offset = self.offset
        for e, c in sorted(self.body.c.items()):
            if not offset and type(c) is int:
                out.append([e // 2, 1, c, 1] if e % 2 == 0 else [e, 2, c, 1])
            else:
                ex, cf = Fraction(e, 2) + offset, Fraction(c)
                out.append([ex.numerator, ex.denominator, cf.numerator, cf.denominator])
        return out

    def __str__(self) -> str:
        if self.offset == 0:
            return str(self.body)
        return f"q^({self.offset}) * ({self.body})"

    def __repr__(self) -> str:
        return f"GradedScalar({self})"


# -- packed coefficients (Kronecker substitution) ----------------------------
# Evaluation at v^step = 2^bits is a ring homomorphism Z[v] -> Z: a product of
# polynomials is one product of ints.  Balanced digits decode an int exactly when
# every coefficient is below 2^(bits-1) in absolute value, which each packed route
# proves by an l1 majorant: spinpoly and schur per word, iqsym per value.


def _pack(poly: LaurentPoly, low: int, step: int, bits: int) -> int:
    """poly / v^low evaluated at v^step = 2^bits (every exponent is low plus a
    nonnegative multiple of step; coefficients are integers)."""
    return sum(c << bits * ((e - low) // step) for e, c in poly.c.items())


def _unpack(x: int, bits: int, offset: int, step: int) -> LaurentPoly:
    """The Laurent polynomial whose coefficient at v^(offset + step k) is the k-th
    balanced base-2^bits digit of x (each in [-2^(bits-1), 2^(bits-1)))."""
    coeffs, mask, half = {}, (1 << bits) - 1, 1 << bits - 1
    e = offset
    while x:
        digit = x & mask
        if digit >= half:
            digit -= 1 << bits
        if digit:
            coeffs[e] = digit
        x = (x - digit) >> bits
        e += step
    return LaurentPoly(coeffs)


def _slot_bits(bound: int) -> int:
    """A slot width that decodes every coefficient of absolute value at most
    bound, rounded up to a multiple of 8 so that words share packed tables."""
    return -(-(bound.bit_length() + 1) // 8) * 8


# -- linear combinations of words ------------------------------------------
# A combination is a dict from a word (a tuple) to a nonzero coefficient; the
# symbolic X-letter algebra and the idempotented Schur algebra share these.


def _add_terms(a: dict, b: dict) -> dict:
    """The sum of two linear combinations of words."""
    out = dict(a)
    for w, c in b.items():
        s = out.get(w)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(w, None)
        else:
            out[w] = s
    return out


def _concat_terms(a: dict, b: dict) -> dict:
    """The product of two linear combinations, words concatenated; a zero sum
    is kept (the caller drops it)."""
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w, c = w1 + w2, c1 * c2
            s = out.get(w)
            out[w] = c if s is None else s + c
    return out


# -- quantum integers and friends -----------------------------------------


def qint(n: int) -> LaurentPoly:
    """The quantum integer [n] = (q^n - q^{-n}) / (q - q^{-1})."""
    return qint_base(n, 1)


def qint_base(n: int, s: int) -> LaurentPoly:
    """[n] in the variable q^s."""
    if n == 0:
        return _ZERO
    if n < 0:
        return -qint_base(-n, s)
    return LaurentPoly({2 * s * e: 1 for e in range(-(n - 1), n, 2)})


def qtwo(k: int) -> LaurentPoly:
    """q^k + q^{-k} (equal to 2 when k = 0)."""
    if k == 0:
        return LaurentPoly.const(2)
    return LaurentPoly({2 * k: 1, -2 * k: 1})


def qbinom(n: int, k: int) -> LaurentPoly:
    """Quantum binomial [n choose k]; zero outside 0 <= k <= n."""
    return qbinom_base(n, k, 1)


def qbinom_base(n: int, k: int, s: int) -> LaurentPoly:
    """Quantum binomial in the variable q^s."""
    if k < 0 or k > n:
        return _ZERO
    k = min(k, n - k)
    num, den = _ONE, _ONE
    for t in range(1, k + 1):
        num = num * qint_base(n - t + 1, s)
        den = den * qint_base(t, s)
    return poly_divexact(num, den)


def devil(m: int, n: int) -> LaurentPoly:
    """The signed product "[m][n]" = sum_{i<min} (-1)^i [n+m-2i-1].

    Symmetric by definition, so arguments are sorted internally; the
    expansion itself needs the smaller argument first.
    """
    if m < 0 or n < 0:
        raise ValueError("devil product needs nonnegative arguments")
    if m > n:
        m, n = n, m
    total = _ZERO
    for i in range(m):
        term = qint(n + m - 2 * i - 1)
        total = total + (term if i % 2 == 0 else -term)
    return total


def devil_ratio(l: int, k: int) -> RatFunc:
    """prod_{t=1}^{k} "[l+1-t][l+t]" / "[t]^2", the ratio of devil products
    shared by the trace rule and the I-to-X change of basis."""
    out = RatFunc.one()
    for t in range(1, k + 1):
        out = out * RatFunc(devil(l + 1 - t, l + t), devil(t, t))
    return out


def d_value(i: int) -> LaurentPoly:
    """d_i = prod_{l=1}^{i} (q^{2l-1} + q^{1-2l})."""
    p = _ONE
    for l in range(1, i + 1):
        p = p * qtwo(2 * l - 1)
    return p


def rho(l: int) -> RatFunc:
    """rho_1 for the given level, computed by unrolling the recurrence
    rho_t = (-1)^{C(l+2-t,2)} + q^{-1} * ("[l+1-t][l+t]" / "[t]^2") * rho_{t+1}
    downward from rho_{l+1} = 1.  The result is a Laurent monomial."""
    if l < 1:
        raise ValueError("level must be >= 1")
    r = RatFunc.one()
    qinv = RatFunc.from_poly(LaurentPoly.q_pow(-1))
    for t in range(l, 0, -1):
        sign = (-1) ** binom2(l + 2 - t)
        coeff = RatFunc(devil(l + 1 - t, l + t), devil(t, t))
        r = RatFunc.from_poly(LaurentPoly.const(sign)) + qinv * coeff * r
    return r


def binom2(k: int) -> int:
    """Binomial coefficient C(k, 2), allowing k < 2 (where it is 0)."""
    return k * (k - 1) // 2


def self_conjugate_partitions(n: int) -> Iterable[tuple[int, ...]]:
    """All self-transpose partitions whose Young diagram fits in an n x n box."""
    for lam in _partitions_in_box(n):
        if _transpose(lam) == lam:
            yield lam


def _partitions_in_box(n: int) -> Iterable[tuple[int, ...]]:
    def gen(rows_left, maxpart, prefix):
        yield tuple(prefix)
        if rows_left == 0:
            return
        for p in range(min(maxpart, n), 0, -1):
            yield from gen(rows_left - 1, p, prefix + [p])

    yield from gen(n, n, [])


def _transpose(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p > i) for i in range(lam[0]))


def selfconj_sum(n: int) -> LaurentPoly:
    """Sum of q^{2|lambda|} over self-transpose partitions in the n x n box,
    by direct enumeration."""
    total = _ZERO
    for lam in self_conjugate_partitions(n):
        total = total + LaurentPoly.q_pow(2 * sum(lam))
    return total


# -- the A/B alternating sums and the identity battery ---------------------


def _two_product(c: int, d: int, primed: bool) -> LaurentPoly:
    """First d factors of [2]_{c+1}[2]_{c-1}[2]_{c+3}[2]_{c-3}... (unprimed)
    or [2]_{c-1}[2]_{c+1}[2]_{c-3}[2]_{c+3}... (primed)."""
    offsets = []
    step = 1
    while len(offsets) < d:
        offsets.extend([step, -step] if not primed else [-step, step])
        step += 2
    p = _ONE
    for off in offsets[:d]:
        p = p * qtwo(abs(c + off))
    return p


def sum_A(a: int, b: int, eps: int, primed: bool = False) -> LaurentPoly:
    total = _ZERO
    for i in range(0, b + 1):
        t = _two_product(a, 2 * i, primed) * qbinom_base(b + i, 2 * i, 2)
        t = t.shift(4 * i * eps)
        total = total + (t if i % 2 == 0 else -t)
    return total


def sum_B(a: int, b: int, eps: int, primed: bool = False) -> LaurentPoly:
    total = _ZERO
    for i in range(0, b + 1):
        t = _two_product(a, 2 * i + 1, primed) * qbinom_base(b + i, 2 * i + 1, 2)
        t = t.shift(4 * i * eps)
        total = total + (t if i % 2 == 0 else -t)
    return total


def _rho_via_AB(l: int, k: int) -> LaurentPoly:
    """The closed expression for rho_1 at level l using the A/B sums at
    reduction depth k (valid for 0 <= k <= the depth bound for l's residue)."""
    q = LaurentPoly.q_pow
    if l % 4 == 0:
        n = l // 4
        pre = q(-8 * n - 2, -1) ** k if k else _ONE
        body = sum_A(4 * n, 2 * n - k, -1) + q(2 * k - 1) * sum_B(4 * n, 2 * n - k, -1)
    elif l % 4 == 1:
        n = (l - 1) // 4
        pre = q(-8 * n - 2, -1) ** k if k else _ONE
        body = -sum_A(4 * n + 2, 2 * n - k, -1, primed=True) + q(-2 * k - 1) * sum_B(
            4 * n + 2, 2 * n + 1 - k, -1, primed=True
        )
    elif l % 4 == 2:
        n = (l - 2) // 4
        pre = q(-8 * n - 6, -1) ** k if k else _ONE
        body = -sum_A(4 * n + 2, 2 * n + 1 - k, -1) - q(2 * k - 1) * sum_B(4 * n + 2, 2 * n + 1 - k, -1)
    else:
        n = (l - 3) // 4
        pre = q(-8 * n - 6, -1) ** k if k else _ONE
        body = sum_A(4 * n + 4, 2 * n + 1 - k, -1, primed=True) - q(-2 * k - 1) * sum_B(
            4 * n + 4, 2 * n + 2 - k, -1, primed=True
        )
    return pre * body


def _rho_depth_bound(l: int) -> int:
    if l % 4 == 0:
        return l // 2
    if l % 4 == 1:
        return (l - 1) // 2
    if l % 4 == 2:
        return l // 2
    return (l - 3) // 2 + 1


def report_entry(name: str, parameters: dict, ok: bool, witness=None) -> dict:
    """One entry of a verification report: status "pass" or "fail", and on
    failure the witness as a string, if there is one."""
    entry = {"identity_id": name, "parameters": parameters, "status": "pass" if ok else "fail"}
    if witness is not None and not ok:
        entry["witness"] = str(witness)
    return entry


def appendixA_suite(bound: int = 12) -> list[dict]:
    """Verify the quantum-combinatorial identity battery up to the bound.

    Returns one report entry per identity family with status "pass" or
    "fail"; a failure records the first offending parameter tuple.
    """
    if bound > 12:
        raise ValueError("suite is desk-scale; bound must be <= 12")
    checks: list[tuple[str, Callable[[], tuple[bool, object]]]] = []

    def check_2mn():
        for n in range(1, bound + 1):
            for m in range(1, n + 1):
                lhs = qtwo(1) * devil(m, n)
                rhs = qint(n + m) + qint(n - m).scale((-1) ** (m - 1))
                if lhs != rhs:
                    return False, (m, n)
        return True, None

    def check_devils_numbers_2():
        for n in range(0, bound + 1):
            if devil(n, n) != qint_base(n, 2):
                return False, (n,)
        return True, None

    def check_q_pascal():
        for s in (1, 2):
            for x in range(1, bound + 1):
                for y in range(0, x + 1):
                    lhs = qbinom_base(x, y, s)
                    r1 = qbinom_base(x - 1, y, s).shift(2 * s * y) + qbinom_base(x - 1, y - 1, s).shift(
                        2 * s * (y - x)
                    )
                    r2 = qbinom_base(x - 1, y, s).shift(-2 * s * y) + qbinom_base(x - 1, y - 1, s).shift(
                        2 * s * (x - y)
                    )
                    if lhs != r1 or lhs != r2:
                        return False, (x, y, s)
        return True, None

    def check_AB():
        q = LaurentPoly.q_pow
        for a in range(0, bound + 1):
            for b in range(1, bound // 2 + 1):
                ab1 = sum_A(a, b, -1) == (
                    sum_A(a, b - 1, 1) - q(a - 2 * b - 1) * sum_B(a, b, -1) - q(-a - 2 * b + 1) * sum_B(a, b, 1)
                )
                ab2 = sum_B(a, b, 1) == (
                    q(-2) * sum_B(a, b - 1, -1)
                    + q(a + 2 * b - 1) * sum_A(a, b - 1, 1)
                    + q(-a + 2 * b - 3) * sum_A(a, b - 1, -1)
                )
                ab3 = sum_A(a, b, 1, True) == (
                    sum_A(a, b - 1, -1, True)
                    - q(a + 2 * b + 1) * sum_B(a, b, 1, True)
                    - q(-a + 2 * b - 1) * sum_B(a, b, -1, True)
                )
                ab4 = sum_B(a, b, -1, True) == (
                    q(2) * sum_B(a, b - 1, 1, True)
                    + q(a - 2 * b + 1) * sum_A(a, b - 1, -1, True)
                    + q(-a - 2 * b + 3) * sum_A(a, b - 1, 1, True)
                )
                if not (ab1 and ab2 and ab3 and ab4):
                    return False, (a, b)
        return True, None

    def check_AB_base():
        for a in range(0, bound + 1):
            for eps in (1, -1):
                if sum_A(a, 0, eps) != _ONE or sum_A(a, 0, eps, True) != _ONE:
                    return False, (a, eps, "A")
                if not sum_B(a, 0, eps).is_zero() or not sum_B(a, 0, eps, True).is_zero():
                    return False, (a, eps, "B")
                if sum_B(a, 1, eps, True) != qtwo(abs(a - 1)):
                    return False, (a, eps, "B'1")
        return True, None

    def check_rho_monomial():
        for l in range(1, bound + 1):
            expect = RatFunc.from_poly(LaurentPoly.q_pow(-l * (l + 1)))
            if rho(l) != expect:
                return False, (l,)
        return True, None

    def check_rho_difference():
        for l in range(1, bound + 1):
            target = rho(l)
            for k in range(0, _rho_depth_bound(l) + 1):
                if RatFunc.from_poly(_rho_via_AB(l, k)) != target:
                    return False, (l, k)
        return True, None

    def check_selfconj():
        for n in range(0, min(bound, 8) + 1):
            if selfconj_sum(n) != LaurentPoly.q_pow(n * n) * d_value(n):
                return False, (n,)
        return True, None

    checks = [
        ("two-times-devil", check_2mn),
        ("devil-square", check_devils_numbers_2),
        ("q-pascal-both", check_q_pascal),
        ("alternating-AB-recurrences", check_AB),
        ("alternating-AB-base-values", check_AB_base),
        ("rho-is-a-monomial", check_rho_monomial),
        ("rho-AB-closed-forms", check_rho_difference),
        ("selfconjugate-partition-sum", check_selfconj),
    ]

    report = []
    for name, fn in checks:
        ok, witness = fn()
        report.append(report_entry(name, {"bound": bound}, ok, repr(witness)))
    return report
