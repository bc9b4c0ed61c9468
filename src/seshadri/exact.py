"""Exact arithmetic over Q and real quadratic extensions Q(sqrt(n)).

Everything downstream (curve loci, threshold comparisons, the branch-and-bound
certifier) reduces to statements about numbers of the form a + b*sqrt(n) with
a, b rational and n a nonnegative integer, so this module provides exactly
that: quadratic numbers with decidable comparison and rational closed
intervals.

Normalization makes representations canonical: the radicand is reduced to its
squarefree part on construction (squarefree_decomposition, or for a block of
radicands one sieve, squarefree_block) and b == 0 forces rad == 0.  Canonical
forms turn value equality into structural equality, because 1 and sqrt(n) are
linearly independent over Q for squarefree n > 1 and sqrt(n), sqrt(m) generate
different fields for distinct squarefree n, m > 1.  Order is decided by an
exact sign test in integers: the sign of a + b*sqrt(n) follows from the signs
of a and b, or, when they differ, from one squaring (a^2 against b^2*n); a
comparison across two fields needs one more squaring.  No enclosure is
involved, so there is nothing to refine and no termination argument.

All interval endpoint arithmetic is exact rational arithmetic.  The only
outward rounding in the package happens in sqrt_enclosure.

Every value type of the package derives from Frozen: a slotted class that
lists its compared fields in _fields.  A record that checks nothing uses
Frozen.__init__, which sets each field once: positional arguments bind in
_fields order, then keywords, and a missing, unknown or repeated field, or
a surplus positional argument, raises TypeError.  A checked class checks
and normalises its arguments in its own __init__ before it sets a field;
RationalInterval and CurveClass check in a __post_init__ that __init__
calls.  A checked class sets each slot through its member descriptor's
__set__, bound once per module: verify builds several curve classes,
pairs, verdicts and quadratic numbers at every r, and that setter skips the
name lookup object.__setattr__ makes on each call.  A checked value moved
to another r is re-seated, not rebuilt (search._reseated): the setters
copy its other fields, and the rule is that a re-seat re-runs every check
that reads r, with the constructor's messages.  Assigning or deleting a
field afterwards raises AttributeError.  Two instances are equal when they
are of the same class and their field tuples are equal, the hash is the
hash of that tuple, the repr is Name(field=value, ...), and pickle and copy
rebuild an instance by calling the class on its field tuple.  Instances
have no __dict__.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import isqrt

from .errors import (
    DivisionByZeroInterval,
    IncompatibleRadicands,
    NegativeRadicand,
    NegativeRadicandInterval,
)

RationalLike = Fraction | int

DEFAULT_SQRT_WIDTH_EXPONENT = 32
DEFAULT_SQRT_WIDTH = Fraction(1, 2**DEFAULT_SQRT_WIDTH_EXPONENT)
_ZERO = Fraction(0)


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


def squarefree_decomposition(n: int) -> tuple[int, int]:
    """Split n >= 0 as f**2 * m with m squarefree; returns (f, m).

    The route for a single radicand: Delta in check_pair, a --mu0 radicand,
    and r + 1 in threshold, classify and verify_coverage when called alone.
    A range of r + 1 goes through squarefree_block, whose test oracle this
    is.  Trial division runs only up to the cube root of n, so the cost is
    O(n^(1/3)), about 25 ms near 10^18: once every prime p <= n^(1/3) is
    stripped, the cofactor has at most two prime factors (_split_cofactor).
    The loop also stops once p^2 > c, because c is then 1 or a prime.
    """
    if n < 0:
        raise NegativeRadicand(f"radicand must be nonnegative, got {n}")
    if n in (0, 1):
        return 1, n
    f = m = 1
    c = n
    p = 2
    while p * p <= c and p * p * p <= n:
        if c % p == 0:
            e = 0
            while c % p == 0:
                c //= p
                e += 1
            f *= p ** (e // 2)
            if e % 2:
                m *= p
        p += 1 if p == 2 else 2
    return _split_cofactor(f, m, c)


def _split_cofactor(f: int, m: int, c: int) -> tuple[int, int]:
    """(f, m) with the cofactor c taken in, once c has at most two prime
    factors: every prime up to the cube root of n = f**2 * m * c is
    stripped, so each prime factor left exceeds n^(1/3).  c is then 1, a
    prime or a product of two distinct primes, which m takes, or the square
    of one prime, which isqrt detects and whose root f takes."""
    root = isqrt(c)
    if root * root == c:
        return f * root, m
    return f, m * c


def squarefree_block(lo: int, hi: int) -> list[tuple[int, int]]:
    """squarefree_decomposition(n) for every n in lo..hi, 1 <= lo <= hi, by
    one segmented sieve.

    The primes up to top = floor(hi^(1/3)) are sieved into a bytearray.
    Each prime p is stripped from the block through its multiples, which
    start at offset -lo mod p, so a prime costs one step plus one per
    multiple, whatever the size of n.  Every prime factor left in a
    cofactor then exceeds top, and so the cube root of its n, and
    _split_cofactor decides it.  Near 10^18 on a 2-vCPU host one value
    costs about 17 ms, nearly all of it listing the primes up to 10^6, and
    10^5 values about 0.1 s.
    """
    if not 1 <= lo <= hi:
        raise ValueError(f"need 1 <= lo <= hi, got {lo}..{hi}")
    top = int(round(hi ** (1 / 3)))
    while top**3 > hi:
        top -= 1
    while (top + 1) ** 3 <= hi:
        top += 1
    sieve = bytearray(2) + bytearray(b"\x01") * (top - 1)
    for p in range(2, isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
    rest = list(range(lo, hi + 1))
    size = len(rest)
    squares = [1] * size
    free = [1] * size
    for p in compress(range(top + 1), sieve):
        for i in range(-lo % p, size, p):
            c = rest[i] // p
            e = 1
            while not c % p:
                c //= p
                e += 1
            rest[i] = c
            if e > 1:
                squares[i] *= p ** (e // 2)
            if e & 1:
                free[i] *= p
    return list(map(_split_cofactor, squares, free, rest))


def sqrt_enclosure(x: RationalLike, width: RationalLike) -> RationalInterval:
    """Closed rational interval containing sqrt(x), at most `width` wide.

    Exact at perfect squares of rationals: lo == hi == sqrt(x).  Raises
    NegativeRadicand for x < 0 and ValueError for width <= 0.
    """
    x = _as_fraction(x)
    width = _as_fraction(width)
    if x < 0:
        raise NegativeRadicand(f"cannot enclose sqrt of {x}")
    if width <= 0:
        raise ValueError(f"enclosure width must be positive, got {width}")
    lo, hi = sqrt_bracket(x.numerator, x.denominator, width)
    return RationalInterval(Fraction(*lo), Fraction(*hi))


def sqrt_bracket(
    num: int, den: int, width: Fraction
) -> tuple[tuple[int, int], tuple[int, int]]:
    """The endpoints of sqrt_enclosure(num/den, width) as integer pairs
    (numerator, denominator), for num >= 0, den > 0 and width > 0.

    num/den need not be in lowest terms, and the pairs are not reduced: the
    bracket depends only on the value, because num/den is the square of a
    rational exactly when num*den is a perfect square, and floor(num/den *
    d^2) does not depend on the representation.
    """
    n = num * den
    root = isqrt(n)
    if root * root == n:
        return (root, den), (root, den)
    # denominator d with 1/d <= width; floor(x * d^2) brackets sqrt within 1/d
    d = -((-width.denominator) // width.numerator)
    s = isqrt(num * d * d // den)
    return (s, d), (s + 1, d)


class Frozen:
    """Base of the immutable value types: construction, equality, hash, repr
    and pickling over the field tuple named by _fields (see the module
    docstring)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object, **named: object) -> None:
        fields = self._fields
        # every field once: the first len(values) by position, the rest by
        # name; the binding is checked only when not every field is positional
        if named or len(values) != len(fields):
            if len(values) > len(fields) or named.keys() != set(fields[len(values):]):
                raise TypeError(
                    f"{self.__class__.__name__}() takes the fields {', '.join(fields)} "
                    f"by position or keyword, got {len(values)} positional arguments "
                    f"and the keywords {', '.join(named) or 'none'}"
                )
            for field, value in named.items():
                object.__setattr__(self, field, value)
        for field, value in zip(fields, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({body})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class RationalInterval(Frozen):
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = _fields = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        _RI_LO(self, lo)
        _RI_HI(self, hi)
        self.__post_init__()

    def __post_init__(self) -> None:
        _RI_LO(self, _as_fraction(self.lo))
        _RI_HI(self, _as_fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @staticmethod
    def point(x: RationalLike) -> RationalInterval:
        x = _as_fraction(x)
        return RationalInterval(x, x)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x: RationalLike) -> bool:
        x = _as_fraction(x)
        return self.lo <= x <= self.hi

    def intersect(self, other: RationalInterval) -> RationalInterval | None:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return RationalInterval(lo, hi) if lo <= hi else None

    def _coerce(self, other: RationalInterval | RationalLike) -> RationalInterval:
        if isinstance(other, RationalInterval):
            return other
        return RationalInterval.point(other)

    def __add__(self, other: RationalInterval | RationalLike) -> RationalInterval:
        o = self._coerce(other)
        return RationalInterval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> RationalInterval:
        return RationalInterval(-self.hi, -self.lo)

    def __sub__(self, other: RationalInterval | RationalLike) -> RationalInterval:
        return self + (-self._coerce(other))

    def __rsub__(self, other: RationalLike) -> RationalInterval:
        return (-self) + other

    def __mul__(self, other: RationalInterval | RationalLike) -> RationalInterval:
        o = self._coerce(other)
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RationalInterval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other: RationalInterval | RationalLike) -> RationalInterval:
        o = self._coerce(other)
        if o.lo <= 0 <= o.hi:
            raise DivisionByZeroInterval(f"divisor {o} contains zero")
        quotients = (self.lo / o.lo, self.lo / o.hi, self.hi / o.lo, self.hi / o.hi)
        return RationalInterval(min(quotients), max(quotients))

    def __rtruediv__(self, other: RationalLike) -> RationalInterval:
        return RationalInterval.point(other) / self

    def sqrt(self, width: RationalLike = DEFAULT_SQRT_WIDTH) -> RationalInterval:
        """Enclosure of sqrt over the interval.

        A lower endpoint slightly below zero is clamped to zero: callers use
        this on radicands they know are nonnegative (e.g. mu^2 - r for
        mu >= sqrt(r)) where outward rounding may have leaked below zero.
        Raises NegativeRadicandInterval when even hi < 0.
        """
        if self.hi < 0:
            raise NegativeRadicandInterval(f"radicand interval {self} is negative")
        lo = max(self.lo, Fraction(0))
        return RationalInterval(
            sqrt_enclosure(lo, width).lo, sqrt_enclosure(self.hi, width).hi
        )

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


# Slot setters bound once (see the module docstring).
_RI_LO = RationalInterval.lo.__set__
_RI_HI = RationalInterval.hi.__set__


class QuadraticNumber(Frozen):
    """Exact real number a + b*sqrt(rad) with a, b rational, rad an integer >= 0.

    Canonical invariants, enforced on construction: rad is squarefree,
    and b == 0 iff rad == 0.  Hence two instances are equal as numbers iff
    they are equal as triples.
    """

    __slots__ = _fields = ("a", "b", "rad")

    def __init__(self, a: Fraction, b: Fraction = _ZERO, rad: int = 0) -> None:
        a = _as_fraction(a)
        b = _as_fraction(b)
        if not isinstance(rad, int):
            raise TypeError(f"radicand must be an int, got {type(rad).__name__}")
        if rad < 0:
            raise NegativeRadicand(f"radicand must be nonnegative, got {rad}")
        f, m = squarefree_decomposition(rad)
        if m <= 1:
            # sqrt(rad) = f (m == 1) or 0 (m == 0): the number is rational
            a, b, rad = a + b * f * m, Fraction(0), 0
        else:
            b, rad = b * f, m
            if b == 0:
                rad = 0
        _QN_A(self, a)
        _QN_B(self, b)
        _QN_RAD(self, rad)

    @classmethod
    def _canonical(cls, a: Fraction, b: Fraction, rad: int) -> QuadraticNumber:
        """Instance from rational a, b and a radicand that is already
        squarefree or 0, as every arithmetic result's is; skips
        squarefree_decomposition and only enforces b == 0 => rad == 0."""
        self = object.__new__(cls)
        _QN_A(self, a)
        _QN_B(self, b)
        _QN_RAD(self, rad if b else 0)
        return self

    @staticmethod
    def from_rational(x: RationalLike) -> QuadraticNumber:
        return QuadraticNumber(_as_fraction(x))

    @staticmethod
    def sqrt(x: RationalLike) -> QuadraticNumber:
        """sqrt of a nonnegative rational, as an exact quadratic number.

        Decided on integers: an int is read as p/1 and a Fraction as its
        numerator and denominator, so the result's coefficient is the only
        Fraction built, from one int when q = 1 (Fraction's quickest path).
        """
        if type(x) is int:  # a bool goes through _as_fraction
            p, q = x, 1
        else:
            x = _as_fraction(x)
            p, q = x.numerator, x.denominator
        if p < 0:
            raise NegativeRadicand(f"cannot take the square root of {x}")
        # sqrt(p/q) = sqrt(p*q)/q = f*sqrt(m)/q with p*q = f^2*m, m squarefree
        f, m = squarefree_decomposition(p * q)
        return _split_root(f, m, q)

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @staticmethod
    def _coerce(x: QuadraticLike) -> QuadraticNumber:
        if isinstance(x, QuadraticNumber):
            return x
        return QuadraticNumber._canonical(_as_fraction(x), _ZERO, 0)

    def _common_rad(self, other: QuadraticNumber) -> int:
        if self.b == 0:
            return other.rad
        if other.b == 0:
            return self.rad
        if self.rad != other.rad:
            raise IncompatibleRadicands(
                f"cannot combine sqrt({self.rad}) with sqrt({other.rad})"
            )
        return self.rad

    def __add__(self, other: QuadraticLike) -> QuadraticNumber:
        o = self._coerce(other)
        rad = self._common_rad(o)
        return QuadraticNumber._canonical(self.a + o.a, self.b + o.b, rad)

    __radd__ = __add__

    def __neg__(self) -> QuadraticNumber:
        return QuadraticNumber._canonical(-self.a, -self.b, self.rad)

    def __sub__(self, other: QuadraticLike) -> QuadraticNumber:
        return self + (-self._coerce(other))

    def __rsub__(self, other: QuadraticLike) -> QuadraticNumber:
        return (-self) + other

    def __mul__(self, other: QuadraticLike) -> QuadraticNumber:
        o = self._coerce(other)
        rad = self._common_rad(o)
        # (a1 + b1 s)(a2 + b2 s) with s^2 = rad; b1 or b2 is 0 when rads differ
        return QuadraticNumber._canonical(
            self.a * o.a + self.b * o.b * rad, self.a * o.b + self.b * o.a, rad
        )

    __rmul__ = __mul__

    def __truediv__(self, other: QuadraticLike) -> QuadraticNumber:
        o = self._coerce(other)
        if o.a == 0 and o.b == 0:
            raise ZeroDivisionError("division by zero")
        rad = self._common_rad(o)
        # multiply by the conjugate; norm a2^2 - b2^2*rad is nonzero for
        # nonzero o because sqrt(rad) is irrational or b2 == 0
        norm = o.a * o.a - o.b * o.b * rad
        num = self * QuadraticNumber._canonical(o.a, -o.b, rad)
        return QuadraticNumber._canonical(num.a / norm, num.b / norm, num.rad)

    def __rtruediv__(self, other: QuadraticLike) -> QuadraticNumber:
        return self._coerce(other) / self

    def enclosure(self, width: RationalLike = DEFAULT_SQRT_WIDTH) -> RationalInterval:
        """Closed rational interval containing the value, at most `width` wide."""
        if self.b == 0:
            return RationalInterval.point(self.a)
        width = _as_fraction(width)
        if width <= 0:
            raise ValueError(f"enclosure width must be positive, got {width}")
        s = sqrt_enclosure(self.rad, width / abs(self.b))
        lo = self.a + self.b * (s.lo if self.b > 0 else s.hi)
        hi = self.a + self.b * (s.hi if self.b > 0 else s.lo)
        return RationalInterval(lo, hi)

    def sign(self) -> int:
        return compare(self, 0)

    def approx_decimal(self, digits: int = 6) -> str:
        """Decimal string within 10**-digits of the value. Deterministic."""
        scale = 10**digits
        mid = self.enclosure(Fraction(1, 4 * scale)).midpoint
        scaled = round(mid * scale)
        sign = "-" if scaled < 0 else ""
        whole, frac = divmod(abs(scaled), scale)
        return f"{sign}{whole}.{frac:0{digits}d}"

    def __lt__(self, other: QuadraticLike) -> bool:
        return compare(self, other) < 0

    def __le__(self, other: QuadraticLike) -> bool:
        return compare(self, other) <= 0

    def __gt__(self, other: QuadraticLike) -> bool:
        return compare(self, other) > 0

    def __ge__(self, other: QuadraticLike) -> bool:
        return compare(self, other) >= 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (QuadraticNumber, Fraction, int)):
            o = self._coerce(other)
            return (self.a, self.b, self.rad) == (o.a, o.b, o.rad)
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.a)
        return hash((self.a, self.b, self.rad))

    def render(self) -> str:
        """Canonical string: "p/q", "sqrt(n)", "p/q + r/s*sqrt(n)", etc.

        Fractions are reduced, a unit coefficient on the root is omitted,
        a zero rational part is omitted, and the root term's sign becomes
        the connective ("a - b*sqrt(n)" rather than "a + -b*sqrt(n)").
        Decided on integers: the root term is written from b's numerator and
        denominator, with no Fraction arithmetic.
        """
        b = self.b
        num = b.numerator
        if not num:
            return str(self.a)
        den = b.denominator
        mag = num if num > 0 else -num
        if den != 1:
            root = f"{mag}/{den}*sqrt({self.rad})"
        elif mag != 1:
            root = f"{mag}*sqrt({self.rad})"
        else:
            root = f"sqrt({self.rad})"
        if not self.a:
            return root if num > 0 else f"-{root}"
        return f"{self.a} {'+' if num > 0 else '-'} {root}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.render()!r})"


# Slot setters bound once (see the module docstring).
_QN_A = QuadraticNumber.a.__set__
_QN_B = QuadraticNumber.b.__set__
_QN_RAD = QuadraticNumber.rad.__set__


def _split_root(f: int, m: int, q: int) -> QuadraticNumber:
    """f*sqrt(m)/q for m squarefree or 0 and q >= 1: a rational when m <= 1."""
    if m <= 1:
        a = Fraction(f * m) if q == 1 else Fraction(f * m, q)
        return QuadraticNumber._canonical(a, _ZERO, 0)
    b = Fraction(f) if q == 1 else Fraction(f, q)
    return QuadraticNumber._canonical(_ZERO, b, m)


def sqrt_block(lo: int, hi: int) -> list[QuadraticNumber]:
    """QuadraticNumber.sqrt(n) for every n in lo..hi, 1 <= lo <= hi, from
    the splits of one squarefree_block.  A single n is QuadraticNumber.sqrt
    itself, whose trial division splits an n below 100 in 0.2 microseconds
    against the sieve's 1.2 (near 10^18 they take about 25 and 17 ms)."""
    if lo == hi:
        return [QuadraticNumber.sqrt(lo)]
    return [_split_root(f, m, 1) for f, m in squarefree_block(lo, hi)]


QuadraticLike = QuadraticNumber | Fraction | int


_RATIONAL_RE = r"-?\d+(?:/\d+)?"
_QN_FULL_RE = re.compile(
    rf"^(?P<a>{_RATIONAL_RE})\s*(?P<op>[+-])\s*(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt\((?P<n>\d+)\)$"
)
_QN_ROOT_RE = re.compile(
    rf"^(?P<sign>-?)(?:(?P<b>\d+(?:/\d+)?)\*)?sqrt\((?P<n>\d+)\)$"
)
_QN_RATIONAL_RE = re.compile(rf"^(?P<a>{_RATIONAL_RE})$")


def _read_quadratic(text: str) -> tuple[Fraction, Fraction, int]:
    """a, b and n of the text of a + b*sqrt(n), as written (n not split)."""
    s = text.strip()
    try:
        m = _QN_RATIONAL_RE.match(s)
        if m:
            return Fraction(m.group("a")), _ZERO, 0
        m = _QN_ROOT_RE.match(s)
        if m:
            b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
            if m.group("sign") == "-":
                b = -b
            return _ZERO, b, int(m.group("n"))
        m = _QN_FULL_RE.match(s)
        if m:
            b = Fraction(m.group("b")) if m.group("b") else Fraction(1)
            if m.group("op") == "-":
                b = -b
            return Fraction(m.group("a")), b, int(m.group("n"))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in quadratic number {text!r}") from None
    raise ValueError(f"cannot parse quadratic number from {text!r}")


def parse_quadratic(text: str) -> QuadraticNumber:
    """Inverse of QuadraticNumber.render (accepts any valid spacing).

    Raises ValueError on text it cannot read, a zero denominator included.
    """
    return QuadraticNumber(*_read_quadratic(text))


def read_rendered(text: str) -> QuadraticNumber:
    """parse_quadratic for text QuadraticNumber.render wrote, which is
    canonical already: its radicand is not split again (25 ms near 10^18)."""
    return QuadraticNumber._canonical(*_read_quadratic(text))


def _field_sign(a: int, b: int, n: int) -> int:
    """Sign of a + b*sqrt(n) for integers a, b and n >= 0, decided on
    integers.

    Equal signs, or a zero term, decide at once.  Otherwise
    a + b*sqrt(n) = (a^2 - b^2*n) / (a - b*sqrt(n)), whose denominator has
    the sign of a, so the answer is sign(a) * sign(a^2 - b^2*n).
    """
    if not b or not n:
        return (a > 0) - (a < 0)
    if not a or (a > 0) == (b > 0):
        return 1 if b > 0 else -1
    norm = a * a - b * b * n
    return (norm > 0) - (norm < 0) if a > 0 else (norm < 0) - (norm > 0)


def compare(x: QuadraticLike, y: QuadraticLike) -> int:
    """Exact trichotomous comparison: -1, 0, or +1.

    Decided by an algebraic sign test in integers.  Scaling by a positive
    common denominator D turns x - y into (A + U*sqrt(p) - V*sqrt(q)) / D
    with integers A, U, V.  In one field (p == q, or one side rational) that
    is the sign of A + (U - V)*sqrt(p), from _field_sign.  Across fields,
    s = A + U*sqrt(p) and w = V*sqrt(q) decide when their signs differ;
    otherwise s - w = (s^2 - w^2) / (s + w) has sign(s) times the sign of
    (A^2 + U^2*p - V^2*q) + 2AU*sqrt(p), a second one-field test.  A
    cross-field difference is never 0, since sqrt(p) and sqrt(q) are
    independent over Q for distinct squarefree p, q > 1.
    """
    qx = QuadraticNumber._coerce(x)
    qy = QuadraticNumber._coerce(y)
    ax, ay, bx, by = qx.a, qy.a, qx.b, qy.b
    da = ax.denominator * ay.denominator
    db = bx.denominator * by.denominator
    a = (ax.numerator * ay.denominator - ay.numerator * ax.denominator) * db
    u = bx.numerator * by.denominator * da
    v = by.numerator * bx.denominator * da
    p, q = qx.rad, qy.rad
    if p == q or not p or not q:
        return _field_sign(a, u - v, p or q)
    s, w = _field_sign(a, u, p), (v > 0) - (v < 0)
    if s != w:
        return 1 if s > w else -1
    return s * _field_sign(a * a + u * u * p - v * v * q, 2 * a * u, p)
