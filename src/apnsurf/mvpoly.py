"""Polynomials over GF(2^m): univariate, and sparse in three variables.

``UniPoly`` is dense (ascending coefficient list); over GF(2) it
multiplies and divides on packed bit masks.  ``TriPoly`` is a sparse
dict keyed by exponent triples (x0, x1, x2): the quotient surface, its
curve at infinity, and the witnesses that refute a criterion are forms
in these three variables.  Monomials are ordered graded-lex with
x0 > x1 > x2.

The bivariate layer (gcd, resultant, squarefree part, factorization)
has one representation, which it takes and returns: the rows of a
chart, a polynomial in x0 with coefficients in F[x1] held as a list of
UniPoly in x1 indexed by the x0 exponent.  ``_chart_rows`` builds the
rows of a form's chart x2 = 1 in one pass over its terms, and
``bi_to_tri`` turns rows back into a TriPoly where a witness needs one.
The resultant eliminates x0 and is a UniPoly in x1.  ``bi_gcd`` first
specializes x1 at one point of a field of at least 2^8 elements and
skips the remainder sequence when the two images are coprime there,
which proves the pair shares nothing beyond its contents.
Factorization lifts a split of one specialization by Hensel lifting,
shifted so the specialization point sits at w = 0 and truncated below
w^n.  The lift holds each factor as its slices, the coefficients of
w^k (the transpose of the rows, UniPoly in x0), so order k forms each
product of lower slices it needs once.  Recombination forms each
subset's product once, from its prefix's, and rejects a subset whose
product breaks the total-degree bound of a true factor before any
trial division.

Field elements are checked where they enter: ``TriPoly(field, terms)``,
the TriPoly methods that take an element (``const``, ``eval_at``,
``substitute_const``), ``UniPoly.scale``, ``eval_at`` and
``taylor_shift``, ``Embedding.map``, and outside this module ``Field``'s
own operations, ``PolyFunc`` and the parsers.  Every coefficient computed
from checked operands of one field is an int in [0, q) already, so
``UniPoly(field, coeffs)`` (not exported) only trims its list and
``TriPoly._of`` takes a dict of nonzero coefficients as it is.  Mixing
fields is caught by ``common_field`` on every binary operation.
"""

import functools
import heapq
import itertools
import random

from .errors import (
    ApnToolError,
    DegreeCapExceeded,
    DivisionByZero,
    InvalidParameters,
    NoGoodEvaluationPoint,
    NotDivisible,
)
from .gf2m import Field, common_field

NEG_INF = float("-inf")

FACTOR_DEGREE_CAP = 32


# ---------------------------------------------------------------- univariate

_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _pack_gf2(c):
    """A GF(2) coefficient list as a bit mask, bit i for x^i."""
    return int(bytes(c[::-1]).translate(_TO_DIGITS) or b"0", 2)


def _unpack_gf2(r):
    """The coefficient list of the bit mask r, [0] for r = 0."""
    return list(bin(r)[:1:-1].encode().translate(_FROM_DIGITS))


class UniPoly:
    """Dense univariate polynomial; coefficient i of attribute c is for x^i."""

    __slots__ = ("field", "c")

    def __init__(self, field, coeffs):
        self.field = field
        c = list(coeffs)
        while c and c[-1] == 0:
            c.pop()
        self.c = c

    @classmethod
    def from_terms(cls, field, terms):
        """terms: iterable of (exponent, coefficient); repeats accumulate."""
        d = {}
        for e, v in terms:
            d[e] = d.get(e, 0) ^ v
        n = max(d, default=-1) + 1
        out = [0] * n
        for e, v in d.items():
            out[e] = v
        return cls(field, out)

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [1])

    @classmethod
    def const(cls, field, v):
        return cls(field, [v])

    @classmethod
    def x(cls, field):
        return cls(field, [0, 1])

    @property
    def degree(self):
        return len(self.c) - 1 if self.c else NEG_INF

    @property
    def is_zero(self):
        return not self.c

    @property
    def lead(self):
        if not self.c:
            raise DivisionByZero("zero polynomial has no leading coefficient")
        return self.c[-1]

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.c == other.c)

    def __hash__(self):
        return hash((self.field, tuple(self.c)))

    def __add__(self, other):
        common_field(self.field, other.field)
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] ^= v
        return UniPoly(self.field, out)

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other):
        f = common_field(self.field, other.field)
        if self.is_zero or other.is_zero:
            return UniPoly.zero(f)
        if f.m == 1:
            return self._mul_gf2(other)
        a, b = self.c, other.c
        out = [0] * (len(a) + len(b) - 1)
        mul = f._mul
        for i, av in enumerate(a):
            if av:
                for j, bv in enumerate(b):
                    if bv:
                        out[i + j] ^= mul(av, bv)
        return UniPoly(f, out)

    def _mul_gf2(self, other):
        # carry-less multiply on packed bit masks
        a = _pack_gf2(self.c)
        b = _pack_gf2(other.c)
        r = 0
        while b:
            low = b & -b
            r ^= a << (low.bit_length() - 1)
            b ^= low
        return UniPoly(self.field, _unpack_gf2(r))

    def scale(self, v):
        f = self.field
        f.check(v)
        if v == 0:
            return UniPoly.zero(f)
        return UniPoly(f, [f._mul(v, x) for x in self.c])

    def shift(self, k):
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return UniPoly(self.field, [0] * k + self.c)

    def __divmod__(self, other):
        f = common_field(self.field, other.field)
        if other.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        if self.degree < other.degree:
            return UniPoly.zero(f), self
        if f.m == 1:
            return self._divmod_gf2(other)
        inv_lead = f.inv(other.lead)
        rem = list(self.c)
        db = other.degree
        qc = [0] * (len(rem) - db)
        mul = f._mul
        for i in range(len(rem) - 1, db - 1, -1):
            v = rem[i]
            if v:
                qv = mul(v, inv_lead)
                qc[i - db] = qv
                for j, bv in enumerate(other.c):
                    if bv:
                        rem[i - db + j] ^= mul(qv, bv)
        return UniPoly(f, qc), UniPoly(f, rem)

    def _divmod_gf2(self, other):
        # long division on packed bit masks; over GF(2) every nonzero
        # divisor is monic
        a = _pack_gf2(self.c)
        b = _pack_gf2(other.c)
        db = b.bit_length()
        q = 0
        while (n := a.bit_length()) >= db:
            q |= 1 << (n - db)
            a ^= b << (n - db)
        f = self.field
        return UniPoly(f, _unpack_gf2(q)), UniPoly(f, _unpack_gf2(a))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise NotDivisible("univariate division left a remainder", remainder=r)
        return q

    def monic(self):
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.lead))

    def derivative(self):
        f = self.field
        out = [self.c[i] if i % 2 == 1 else 0 for i in range(1, len(self.c))]
        return UniPoly(f, out)

    def eval_at(self, x):
        f = self.field
        f.check(x)
        acc = 0
        mul = f._mul
        for v in reversed(self.c):
            acc = mul(acc, x) ^ v
        return acc

    def pow_(self, e):
        f = self.field
        if e == 0:
            return UniPoly.one(f)
        r = None
        b = self
        while e:
            if e & 1:
                r = b if r is None else r * b
            e >>= 1
            if e:
                b = b * b
        return r

    def taylor_shift(self, a):
        """p(x + a)."""
        f = self.field
        f.check(a)
        out = UniPoly.zero(f)
        xa = UniPoly(f, [a, 1])
        for v in reversed(self.c):
            out = out * xa + UniPoly.const(f, v)
        return out

    def sqrt_even(self):
        """s with s^2 == self; requires every odd-exponent coefficient zero."""
        f = self.field
        if any(self.c[i] for i in range(1, len(self.c), 2)):
            raise InvalidParameters("polynomial is not a square")
        return UniPoly(f, [f.sqrt(self.c[i]) for i in range(0, len(self.c), 2)])

    def key(self):
        return (len(self.c), tuple(self.c))

    def __repr__(self):
        if self.is_zero:
            return "UniPoly(0)"
        terms = [f"{v:#x}*x^{i}" for i, v in enumerate(self.c) if v]
        return "UniPoly(" + " + ".join(terms) + ")"


def uni_gcd(a, b):
    """Monic gcd."""
    common_field(a.field, b.field)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def uni_gcd_many(polys):
    """Gcd taken smallest degree first, stopping as soon as it reaches 1;
    monic unless there is only one polynomial."""
    polys = sorted(polys, key=lambda p: p.degree)
    g = polys[0]
    for p in polys[1:]:
        g = uni_gcd(g, p)
        if g.degree == 0:
            break
    return g


def uni_squarefree_part(p):
    """Product of the distinct irreducible factors of p (monic)."""
    if p.is_zero:
        raise InvalidParameters("squarefree part of the zero polynomial")
    p = p.monic()
    if p.degree <= 0:
        return UniPoly.one(p.field)
    dp = p.derivative()
    if dp.is_zero:
        return uni_squarefree_part(p.sqrt_even())
    g = uni_gcd(p, dp)
    w = p.exact_div(g)  # odd-multiplicity factors, once each
    r = g
    while True:
        c = uni_gcd(r, w)
        if c.degree <= 0:
            break
        r = r.exact_div(c)
    # r now carries the even-multiplicity factors only, at even powers
    if r.degree <= 0:
        return w
    return w * uni_squarefree_part(r.sqrt_even())


def _frob_pow_mod(r, p, m):
    """r^(2^m) mod p."""
    for _ in range(m):
        r = (r * r) % p
    return r


def _ddf(s):
    """Distinct-degree split of squarefree monic s: list of (product, degree)."""
    f = s.field
    out = []
    x = UniPoly.x(f)
    r = x % s
    i = 0
    cur = s
    while cur.degree > 0:
        i += 1
        if 2 * i > cur.degree:
            out.append((cur, cur.degree))
            break
        r = _frob_pow_mod(r, cur, f.m)
        g = uni_gcd(r + (x % cur), cur)
        if g.degree > 0:
            out.append((g, i))
            cur = cur.exact_div(g)
            r = r % cur
    return out


def _edf(g, i, rng):
    """Split monic squarefree g, all of whose factors have degree i."""
    f = g.field
    n = g.degree
    if n == i:
        return [g]
    x = UniPoly.x(f)
    while True:
        h = UniPoly(f, [rng.randrange(f.q) for _ in range(n)])
        if h.degree < 1:
            continue
        # trace map over GF(2) of h modulo g
        t = h % g
        acc = t
        for _ in range(f.m * i - 1):
            t = (t * t) % g
            acc = acc + t
        s = uni_gcd(acc, g)
        if 0 < s.degree < n:
            return _edf(s, i, rng) + _edf(g.exact_div(s), i, rng)


def uni_factor(p):
    """Full factorization.

    Returns (unit, factors) with unit in the field and factors a list of
    (monic irreducible UniPoly, multiplicity), sorted canonically; the
    product of unit and the factor powers reconstructs p.
    """
    if p.is_zero:
        raise InvalidParameters("cannot factor the zero polynomial")
    unit = p.lead
    p = p.monic()
    if p.degree == 0:
        return unit, []
    # the factors are sorted below, so the split order the generator
    # happens to take never shows in the result
    rng = random.Random(0)
    sq = uni_squarefree_part(p)
    irreducibles = []
    for block, i in _ddf(sq):
        irreducibles.extend(_edf(block, i, rng))
    out = []
    rest = p
    for f_ in sorted(irreducibles, key=UniPoly.key):
        mult = 0
        while True:
            q, r = divmod(rest, f_)
            if not r.is_zero:
                break
            rest = q
            mult += 1
        out.append((f_, mult))
    if rest.degree != 0:
        raise ApnToolError(
            f"factors leave a cofactor of degree {rest.degree}")
    return unit, out


def uni_roots(p):
    """Roots in the coefficient field, ascending."""
    _, facs = uni_factor(p)
    out = []
    for f_, _ in facs:
        if f_.degree == 1:
            out.append(f_.c[0])  # monic x + r has root r (char 2)
    return sorted(out)


# ------------------------------------------------------------ field embedding

class Embedding:
    """Embedding of GF(2^k) into GF(2^(k*e)) along a chosen root of the
    small field's modulus; the smallest root is used, so the map is
    deterministic for a given pair of fields."""

    def __init__(self, small, big):
        if big.m % small.m != 0:
            raise InvalidParameters(
                f"GF(2^{small.m}) does not embed in GF(2^{big.m})")
        self.small = small
        self.big = big
        if small.m == 1 or small == big:
            self._pow = None
            return
        mod = UniPoly(big, [(small.poly >> i) & 1 for i in range(small.m + 1)])
        roots = uni_roots(mod)
        if not roots:
            raise ApnToolError(
                f"modulus {small.poly:#x} has no root in GF(2^{big.m})")
        pows = [1]
        for _ in range(small.m - 1):
            pows.append(big._mul(pows[-1], roots[0]))
        self._pow = pows

    def map(self, a):
        return self._map(self.small.check(a))

    def _map(self, a):
        if self._pow is None:
            return a
        acc = 0
        for i in range(self.small.m):
            if (a >> i) & 1:
                acc ^= self._pow[i]
        return acc

    def map_uni(self, p):
        common_field(p.field, self.small)
        return UniPoly(self.big, [self._map(v) for v in p.c])

    def map_tri(self, p):
        common_field(p.field, self.small)
        return TriPoly._of(self.big,
                           {e: self._map(v) for e, v in p.terms.items()})


@functools.cache
def extension(field, k):
    """Embedding of field into GF(2^(m*k)), the identity for k = 1; one
    per (field, k), since each one factors the modulus to find its root."""
    return Embedding(field, field if k == 1 else Field(field.m * k))


# ---------------------------------------------------------------- trivariate

def _grlex_key(e):
    return (e[0] + e[1] + e[2], e)


def _heap_key(e):
    """Negated grlex key: the smallest heap key is the largest term."""
    return (-(e[0] + e[1] + e[2]), -e[0], -e[1], -e[2])


class TriPoly:
    """Sparse polynomial in x0, x1, x2.

    terms maps exponent triples to nonzero coefficients.
    """

    __slots__ = ("field", "terms")

    def __init__(self, field, terms):
        self.field = field
        t = {}
        for e, v in terms.items():
            if len(e) != 3:
                raise InvalidParameters(
                    f"exponent {e!r} is not a triple (x0, x1, x2)")
            v = field.check(v)
            if v:
                t[tuple(e)] = v
        self.terms = t

    @classmethod
    def _of(cls, field, terms):
        """Unchecked constructor: takes ownership of terms, a dict of
        nonzero field elements keyed by exponent triples."""
        out = cls.__new__(cls)
        out.field = field
        out.terms = terms
        return out

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def const(cls, field, v):
        return cls(field, {(0, 0, 0): v})

    @classmethod
    def var(cls, field, i):
        e = [0, 0, 0]
        e[i] = 1
        return cls(field, {tuple(e): 1})

    @property
    def is_zero(self):
        return not self.terms

    @property
    def total_degree(self):
        return max((sum(e) for e in self.terms), default=NEG_INF)

    def lead_term(self):
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def __eq__(self, other):
        return (isinstance(other, TriPoly) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        common_field(self.field, other.field)
        t = dict(self.terms)
        for e, v in other.terms.items():
            w = t.get(e, 0) ^ v
            if w:
                t[e] = w
            else:
                t.pop(e, None)
        return TriPoly._of(self.field, t)

    __sub__ = __add__

    def __mul__(self, other):
        f = common_field(self.field, other.field)
        mul = f._mul
        t = {}
        for e1, v1 in self.terms.items():
            for e2, v2 in other.terms.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                w = t.get(e, 0) ^ mul(v1, v2)
                if w:
                    t[e] = w
                else:
                    del t[e]
        return TriPoly._of(f, t)

    def square(self):
        # squaring doubles exponents and squares coefficients
        f = self.field
        mul = f._mul
        return TriPoly._of(f, {(2 * e[0], 2 * e[1], 2 * e[2]):
                               mul(v, v) for e, v in self.terms.items()})

    def pow_(self, e):
        f = self.field
        if e == 0:
            return TriPoly.const(f, 1)
        r = None
        b = self
        while e:
            if e & 1:
                r = b if r is None else r * b
            e >>= 1
            if e:
                b = b.square()
        return r

    def eval_at(self, point):
        """Value at (x0, x1, x2), the first three entries of point."""
        f = self.field
        pt = [f.check(v) for v in point[:3]]
        mul = f._mul
        powc = [{}, {}, {}]
        acc = 0

        def pw(i, e):
            cache = powc[i]
            if e not in cache:
                cache[e] = f.pow_(pt[i], e)
            return cache[e]

        for e, v in self.terms.items():
            t = v
            for i in range(3):
                if e[i]:
                    t = mul(t, pw(i, e[i]))
                    if t == 0:
                        break
            acc ^= t
        return acc

    def partial(self, var):
        """Formal partial derivative (characteristic 2)."""
        f = self.field
        t = {}
        for e, v in self.terms.items():
            if e[var] % 2 == 1:
                ne = list(e)
                ne[var] -= 1
                t[tuple(ne)] = v
        return TriPoly._of(f, t)

    def substitute_const(self, var, val):
        """Replace a variable by a field constant."""
        f = self.field
        f.check(val)
        mul = f._mul
        t = {}
        for e, v in self.terms.items():
            # x_var = 1 leaves every coefficient as it is
            w = mul(v, f.pow_(val, e[var])) if e[var] and val != 1 else v
            if w:
                ne = list(e)
                ne[var] = 0
                ne = tuple(ne)
                t[ne] = t.get(ne, 0) ^ w
        return TriPoly._of(f, {e: v for e, v in t.items() if v})

    def homogeneous_component(self, deg):
        return TriPoly._of(self.field, {e: v for e, v in self.terms.items()
                                        if sum(e) == deg})

    def dehomogenize(self):
        """The chart x2 = 1, a polynomial in x0 and x1."""
        return self.substitute_const(2, 1)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def exact_divide(self, den):
        """Exact multivariate division; raises NotDivisible with the
        remainder when the division does not come out even."""
        f = common_field(self.field, den.field)
        if den.is_zero:
            raise DivisionByZero("division by the zero polynomial")
        de, dc = den.lead_term()
        dinv = f.inv(dc)
        mul = f._mul
        rem = dict(self.terms)
        quo = {}
        # max-heap on grlex; entries whose term has cancelled are skipped
        heap = [(_heap_key(e), e) for e in rem]
        heapq.heapify(heap)
        while rem:
            e = heapq.heappop(heap)[1]
            if e not in rem:
                continue
            v = rem[e]
            t = (e[0] - de[0], e[1] - de[1], e[2] - de[2])
            if min(t) < 0:
                raise NotDivisible("leading term not divisible",
                                   remainder=TriPoly._of(f, rem))
            cv = mul(v, dinv)
            quo[t] = cv
            for e2, v2 in den.terms.items():
                ne = (t[0] + e2[0], t[1] + e2[1], t[2] + e2[2])
                prev = rem.get(ne, 0)
                w = prev ^ mul(cv, v2)
                if w:
                    rem[ne] = w
                    if not prev:
                        heapq.heappush(heap, (_heap_key(ne), ne))
                else:
                    del rem[ne]
        return TriPoly._of(f, quo)

    def divide_linear(self, i, j):
        """Exact division by x_i + x_j, i != j, by synthetic division in
        x_i: with P = sum of P_k*x_i^k, the quotient's levels are
        Q_(k-1) = P_k + x_j*Q_k from the top level down.  Raises
        NotDivisible carrying P_0 + x_j*Q_0, which is P with x_j put for
        x_i and vanishes exactly when x_i + x_j divides P.  Linear in the
        terms, with no field multiplication: the divisor is monic."""
        if i == j or not {i, j} <= {0, 1, 2}:
            raise InvalidParameters(f"x{i} + x{j} is not a linear form "
                                    f"in two of x0, x1, x2")
        f = self.field
        levels = {}
        for e, v in self.terms.items():
            levels.setdefault(e[i], []).append((e, v))
        # a term e of x_i*Q_(k-1) is e/x_i in Q_(k-1), e*x_j/x_i in
        # x_j*Q_(k-1)
        down = tuple(-(n == i) for n in range(3))
        over = tuple((n == j) - (n == i) for n in range(3))
        quo = {}
        rem = {}
        for k in range(max(levels, default=0), -1, -1):
            # rem holds x_j*Q_k; with P_k added it is x_i*Q_(k-1), or at
            # k = 0 the remainder
            for e, v in levels.get(k, ()):
                w = rem.pop(e, 0) ^ v
                if w:
                    rem[e] = w
            if k:
                carry = {}
                for e, v in rem.items():
                    quo[(e[0] + down[0], e[1] + down[1], e[2] + down[2])] = v
                    carry[(e[0] + over[0], e[1] + over[1], e[2] + over[2])] = v
                rem = carry
        if rem:
            raise NotDivisible(f"x{i} + x{j} does not divide",
                               remainder=TriPoly._of(f, rem))
        return TriPoly._of(f, quo)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda ev: _grlex_key(ev[0]),
                      reverse=True)

    def __repr__(self):
        names = ("x0", "x1", "x2")
        if self.is_zero:
            return "TriPoly(0)"
        parts = []
        for e, v in self.sorted_terms():
            bits = [] if v == 1 and any(e) else [f"{v:#x}"]
            for i in range(3):
                if e[i] == 1:
                    bits.append(names[i])
                elif e[i] > 1:
                    bits.append(f"{names[i]}^{e[i]}")
            parts.append("*".join(bits) if bits else "1")
        return "TriPoly(" + " + ".join(parts) + ")"


# ------------------------------------------------------- bivariate utilities

def _chart_rows(p):
    """The rows of the chart x2 = 1 of a TriPoly, built in one pass over
    its terms: terms that differ only in x2 add up.  Trailing zero rows
    are stripped down to one row."""
    rows = []
    for (i, j, _), v in p.terms.items():
        if i >= len(rows):
            rows.extend([] for _ in range(i + 1 - len(rows)))
        row = rows[i]
        if j >= len(row):
            row.extend([0] * (j + 1 - len(row)))
        row[j] ^= v
    f = p.field
    out = [UniPoly(f, r) for r in rows]
    while len(out) > 1 and out[-1].is_zero:
        out.pop()
    return out or [UniPoly.zero(f)]


def bi_to_tri(rows, field):
    """The TriPoly in x0 and x1 whose x0^i coefficient is rows[i]."""
    return TriPoly._of(field, {(i, j, 0): v for i, p in enumerate(rows)
                               for j, v in enumerate(p.c) if v})


def _bl_strip(rows):
    while rows and rows[-1].is_zero:
        rows.pop()
    return rows


def _bl_deg(rows):
    return len(rows) - 1 if rows else -1


def _bl_tdeg(rows):
    """Total degree: the largest j + deg rows[j] over the nonzero rows."""
    return max(j + p.degree for j, p in enumerate(rows) if not p.is_zero)


def _bl_add(a, b):
    f = (a[0] if a else b[0]).field
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        pa = a[i] if i < len(a) else UniPoly.zero(f)
        pb = b[i] if i < len(b) else UniPoly.zero(f)
        out.append(pa + pb)
    return _bl_strip(out)


def _bl_primitive(rows):
    """The content, the gcd of the nonzero rows, and rows divided by it."""
    c = uni_gcd_many([p for p in rows if not p.is_zero])
    if c.c == [1]:
        return c, rows
    return c, [p.exact_div(c) for p in rows]


def _bl_pseudo_rem(a, b, field):
    """lc(b)^(deg a - deg b + 1) * a mod b, all in F[x1][x0].

    One scale by lc(b) per step, da - db + 1 steps in all, so the result is
    the classical pseudo-remainder the subresultant recurrences expect.
    When lc(b) is the constant 1 the scales are skipped: that
    pseudo-remainder is the remainder."""
    da, db = _bl_deg(a), _bl_deg(b)
    lb = b[-1]
    unit = lb.c == [1]
    r = list(a)
    for i in range(da, db - 1, -1):
        dr = _bl_deg(r)
        scaled = r if unit else [p * lb for p in r]
        if dr == i:
            top = r[-1]
            sub = [UniPoly.zero(field)] * (i - db) + [p * top for p in b]
            r = _bl_strip(_bl_add(scaled, sub))
        elif not unit:
            r = _bl_strip(scaled)
    return r


def _bl_coprime_at_point(a, b, field):
    """Whether a and b (x0-degree >= 1) have coprime images at the first
    point t0 >= 2 where neither leading coefficient vanishes, in the
    evaluation field: the smallest GF(2^(m*k)) with at least 2^8
    elements.  A common factor of positive x0-degree has a leading
    coefficient dividing both, so it keeps its degree at t0 and divides
    both images: True proves the primitive parts coprime.  The points 0
    and 1 are skipped: on charts with GF(2) coefficients they are often
    unlucky, giving images with a common factor the pair lacks.

    Only the two leading rows are mapped into the evaluation field, for
    the search for t0; every row is then evaluated from one table of
    t0's powers, its coefficients mapped one by one, and a coefficient
    of 1 adds its power with no product."""
    emb = extension(field, -(-8 // field.m))
    big = emb.big
    lead_a, lead_b = emb.map_uni(a[-1]), emb.map_uni(b[-1])
    for t0 in range(2, big.q):
        if lead_a.eval_at(t0) and lead_b.eval_at(t0):
            break
    else:
        return False
    mul, emb_map = big._mul, emb._map
    powers = [1]
    for _ in range(max(len(p.c) for p in a + b) - 1):
        powers.append(mul(powers[-1], t0))

    def value(row):
        acc = 0
        for v, w in zip(row.c, powers):
            if v == 1:
                acc ^= w
            elif v:
                acc ^= mul(emb_map(v), w)
        return acc
    ia = UniPoly(big, [value(p) for p in a])
    ib = UniPoly(big, [value(p) for p in b])
    return uni_gcd(ia, ib).degree == 0


def bi_gcd(a, b, f):
    """Gcd of two row lists over f, normalized so its leading x0
    coefficient is monic: [] when both are zero, [1] at once when either
    is a nonzero constant.  A pair with coprime images at one point is
    coprime up to the gcd of its contents; any other pair runs a
    primitive remainder sequence over F[x1]."""
    if any(len(x) == 1 and x[0].degree == 0 for x in (a, b)):
        return [UniPoly.one(f)]
    a = _bl_strip(list(a))
    b = _bl_strip(list(b))
    if not a:
        return _bl_normalize(b, f)
    if not b:
        return _bl_normalize(a, f)
    if _bl_deg(a) >= 1 and _bl_deg(b) >= 1 and _bl_coprime_at_point(a, b, f):
        return [uni_gcd_many([p for p in a + b if not p.is_zero])]
    ca, a = _bl_primitive(a)
    cb, b = _bl_primitive(b)
    cg = uni_gcd(ca, cb)
    if _bl_deg(a) < _bl_deg(b):
        a, b = b, a
    while True:
        if _bl_deg(b) < 0:
            g = a
            break
        if _bl_deg(b) == 0:
            # x0-degree 0: gcd divides a unit times content, already stripped
            g = [UniPoly.one(f)]
            break
        r = _bl_pseudo_rem(a, b, f)
        r = _bl_strip(r)
        if r:
            _, r = _bl_primitive(r)
        a, b = b, r
    if cg.c != [1]:
        g = [p * cg for p in g]
    return _bl_normalize(g, f)


def _bl_normalize(rows, field):
    """Stripped rows scaled so the leading x0 coefficient is monic."""
    if not rows:
        return rows
    inv = field.inv(rows[-1].lead)
    if inv == 1:
        return rows
    return [p.scale(inv) for p in rows]


def bi_resultant(a, b, f):
    """Resultant of two row lists over f with respect to x0, as a UniPoly
    in x1.  Subresultant remainder sequence; characteristic 2 makes every
    sign factor trivial."""
    a = _bl_strip(list(a))
    b = _bl_strip(list(b))
    if not a or not b:
        return UniPoly.zero(f)
    da, db = _bl_deg(a), _bl_deg(b)
    if da < db:
        a, b = b, a
        da, db = db, da
    if da == 0:
        return UniPoly.one(f)
    if db == 0:
        return b[0].pow_(da)
    one = UniPoly.one(f)
    g, h = one, one
    while True:
        da, db = _bl_deg(a), _bl_deg(b)
        delta = da - db
        r = _bl_pseudo_rem(a, b, f)
        a = b
        denom = g * h.pow_(delta)
        b = _bl_strip([p.exact_div(denom) for p in r])
        g = a[-1]
        if delta == 0:
            pass
        elif delta == 1:
            h = g
        else:
            h = g.pow_(delta).exact_div(h.pow_(delta - 1))
        if _bl_deg(b) <= 0:
            break
    if not b:
        return UniPoly.zero(f)
    e = _bl_deg(a)
    s = b[0]
    if e == 0:
        return one
    if e == 1:
        return s
    return s.pow_(e).exact_div(h.pow_(e - 1))


def _bl_partials(rows, field):
    """The partials in x0 and in x1 of rows, each stripped."""
    zero = UniPoly.zero(field)
    d0 = [rows[k + 1] if k % 2 == 0 else zero for k in range(len(rows) - 1)]
    return _bl_strip(d0), _bl_strip([p.derivative() for p in rows])


def _bl_partials_gcd(rows, field):
    """gcd(p, dp/dx0, dp/dx1) of the stripped rows of a nonzero p, or rows
    itself when both partials vanish; constant exactly when p is
    squarefree (docs/decisions.md, "Squarefree layer by one gcd chain")."""
    g = rows
    for d in _bl_partials(rows, field):
        if d:
            g = bi_gcd(g, d, field)
    return g


def bi_squarefree(rows, f):
    """Squarefree part of a row list over f: each irreducible factor
    exactly once, normalized so the graded-lex leading coefficient is 1."""
    p = _bl_strip(list(rows))
    if not p:
        raise InvalidParameters("squarefree part of the zero polynomial")
    if _bl_tdeg(p) == 0:
        return [UniPoly.one(f)]
    g = _bl_partials_gcd(p, f)
    if g is p:  # both partials vanish: p is a square
        return bi_squarefree(_bl_sqrt(p), f)
    if _bl_tdeg(g) == 0:
        return _bl_grlex_normalize(p, f)
    w = _bl_exact_div(p, g, f)
    r = g
    while True:
        c = bi_gcd(r, w, f)
        if _bl_tdeg(c) == 0:
            break
        r = _bl_exact_div(r, c, f)
    if _bl_tdeg(r) == 0:
        return _bl_grlex_normalize(w, f)
    s = bi_squarefree(_bl_sqrt(r), f)
    # truncated past the product's x1-degree, the product is exact
    n = _bl_tdeg(w) + _bl_tdeg(s) + 1
    return _bl_grlex_normalize(_bl_mul_trunc(w, s, n), f)


def _bl_exact_div(a, b, f):
    q = _bl_try_exact_div(a, b, f)
    if q is None:
        raise NotDivisible("bivariate division left a remainder")
    return q


def _bl_sqrt(rows):
    """s with s^2 == rows, for stripped rows."""
    if any(not p.is_zero for p in rows[1::2]):
        raise InvalidParameters("polynomial is not a square")
    return [p.sqrt_even() for p in rows[::2]]


def _bl_grlex_lead(rows):
    """The coefficient of the graded-lex leading term of nonzero rows."""
    _, i = max((j + p.degree, j) for j, p in enumerate(rows) if not p.is_zero)
    return rows[i].lead


def _bl_grlex_normalize(rows, field):
    """Nonzero rows scaled so the graded-lex leading coefficient is 1."""
    inv = field.inv(_bl_grlex_lead(rows))
    if inv == 1:
        return rows
    return [p.scale(inv) for p in rows]


# ------------------------------------------------- truncated power series

def _bl_mul_trunc(a, b, n):
    """Product of two row lists with each row truncated below w^n."""
    if not a or not b:
        return []
    f = a[0].field
    mul = f._mul
    out = [[0] * n for _ in range(len(a) + len(b) - 1)]
    for i, pa in enumerate(a):
        for j, pb in enumerate(b):
            tgt = out[i + j]
            for s, av in enumerate(pa.c[:n]):
                if av:
                    for t, bv in enumerate(pb.c[:n - s]):
                        if bv:
                            tgt[s + t] ^= mul(av, bv)
    return _bl_strip([UniPoly(f, r) for r in out])


def _transpose(polys, n):
    """The n polynomials whose coefficient j is coefficient k of polys[j],
    for k = 0 .. n-1: turns rows into their w-coefficients (slices, each a
    polynomial in x0) and back."""
    f = polys[0].field
    return [UniPoly(f, [p.c[k] if k < len(p.c) else 0 for p in polys])
            for k in range(n)]


def _uni_bezout(a, b):
    """s with s*a = 1 mod b, for coprime a, b."""
    f = a.field
    r0, r1 = a, b
    s0, s1 = UniPoly.one(f), UniPoly.zero(f)
    while not r1.is_zero:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 + q * s1
    if r0.degree != 0:
        raise ApnToolError(
            f"Bezout inputs share a factor of degree {r0.degree}")
    return s0.scale(f.inv(r0.c[0]))


def _hensel_pair(pstar, g0, h0):
    """Lift the coprime monic split p*(u, 0) = g0*h0 to monic g, h over the
    series ring with p* = g*h modulo w^n, all three held as their n slices.
    Order k needs only the sum of g_i*h_(k-i) over 0 < i < k: each product
    is formed once."""
    s = _uni_bezout(g0, h0)
    g, h = [g0], [h0]
    for k in range(1, len(pstar)):
        e = pstar[k]  # char 2: difference == sum
        for i in range(1, k):
            e = e + g[i] * h[k - i]
        dh = (s * e) % h0
        g.append((e + g0 * dh).exact_div(h0))
        h.append(dh)
    return g, h


def _lift_all(pstar, local):
    """Lift each monic local factor in turn against the product of the rest."""
    if len(local) == 1:
        return [pstar]
    g0 = local[0]
    h0 = UniPoly.one(g0.field)
    for p in local[1:]:
        h0 = h0 * p
    g, h = _hensel_pair(pstar, g0, h0)
    return [g] + _lift_all(h, local[1:])


def _bl_try_exact_div(a, b, f):
    """Quotient of a by b in F[x1][x0] if the division is exact, else None."""
    a = list(a)
    db = _bl_deg(b)
    da = _bl_deg(a)
    if db < 0 or da < db:
        return None
    lb = b[-1]
    q = [UniPoly.zero(f) for _ in range(da - db + 1)]
    for i in range(da, db - 1, -1):
        p = a[i]
        if p.is_zero:
            continue
        try:
            t = p.exact_div(lb)
        except NotDivisible:
            return None
        q[i - db] = t
        for j in range(db + 1):
            a[i - db + j] = a[i - db + j] + t * b[j]
    if any(not p.is_zero for p in a):
        return None
    return _bl_strip(q)


# ------------------------------------------------------------- factorization

def bi_factor(rows, f):
    """Factor a squarefree row list over f into irreducibles over f.

    Returns (unit, factors): a field element and a list of
    graded-lex-normalized row lists whose product scaled by the unit
    reconstructs the input, sorted by total degree, then by the list of
    (x0, x1) exponents and coefficients of the terms in ascending order.
    Raises NoGoodEvaluationPoint when no specialization of x1 inside the
    base field is usable; callers may retry after embedding the rows
    into an extension field.
    """
    p = _bl_strip(list(rows))
    if not p:
        raise InvalidParameters("cannot factor the zero polynomial")
    tdeg = _bl_tdeg(p)
    if tdeg > FACTOR_DEGREE_CAP:
        raise DegreeCapExceeded(
            f"total degree {tdeg} above cap {FACTOR_DEGREE_CAP}")
    if tdeg == 0:
        return p[0].c[0], []
    # the content (all of p when p is univariate in x1) factors as a
    # univariate polynomial
    cont, prim = _bl_primitive(p)
    unit, facs = uni_factor(cont)
    factors = [[fac] for fac, mult in facs for _ in range(mult)]
    if _bl_deg(prim) > 0:
        factors.extend(_bi_factor_primitive(prim, f))
        # each factor has grlex leading coefficient 1, and grlex is a
        # monomial order, so their product does too
        unit = f._mul(unit, _bl_grlex_lead(prim))
    return unit, sorted(factors, key=lambda r: (_bl_tdeg(r), [
        (i, j, v) for i, row in enumerate(r) for j, v in enumerate(row.c)
        if v]))


def _bi_factor_primitive(rows, f):
    """Irreducible factors of a primitive squarefree bivariate polynomial
    given as its x0 coefficient list over F[x1]."""
    lc = rows[-1]
    maxv = max(int(p.degree) for p in rows if not p.is_zero)
    n = int(lc.degree) + maxv + 1  # series precision covers any true factor
    for a in f.elements():
        if lc.eval_at(a) == 0:
            continue
        spec = UniPoly(f, [p.eval_at(a) for p in rows])
        if uni_gcd(spec, spec.derivative()).degree == 0:
            break
    else:
        raise NoGoodEvaluationPoint(
            "no usable specialization point in the coefficient field")
    # shift so the chosen point sits at the series origin (w = x1 + a)
    work = [p.taylor_shift(a) for p in rows]
    spec = UniPoly(f, [p.c[0] if p.c else 0 for p in work])
    _, sfacs = uni_factor(spec)
    if any(mult != 1 for _, mult in sfacs):
        raise ApnToolError("specialization at the chosen point is not squarefree")
    local = sorted((fac for fac, _ in sfacs), key=UniPoly.key)
    if len(local) == 1:
        return [_bl_grlex_normalize(rows, f)]
    # the rows made monic modulo w^n, lifted as slices
    inv = _uni_bezout(work[-1], UniPoly.one(f).shift(n))
    pstar = _transpose([p * inv for p in work], n)
    lifted = [_transpose(g, len(g[0].c)) for g in _lift_all(pstar, local)]
    # each subset's product, formed from its prefix's: sizes ascend, so
    # the prefix (a smaller degree, never skipped) always comes first.  A
    # product of the round's largest size is no prefix, and only a hit at
    # that size ends the round once it is formed, leaving too few factors
    # for that size again; so it is not kept
    prods = {(i,): g for i, g in enumerate(lifted)}
    remaining = list(range(len(local)))
    cur = work  # shifted coordinates throughout the recombination
    found_shifted = []
    while remaining and _bl_deg(cur) > 0:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(remaining, size)
            for size in range(1, len(remaining) // 2 + 1))
        for combo in subsets:
            if sum(_bl_deg(lifted[i]) for i in combo) < _bl_deg(cur):
                prod = prods.get(combo)
                if prod is None:
                    prod = _bl_mul_trunc(prods[combo[:-1]],
                                         lifted[combo[-1]], n)
                    if len(combo) < len(remaining) // 2:
                        prods[combo] = prod
                hit = _try_combo(cur, prod, f, n)
                if hit is not None:
                    break
        else:
            break  # no subset splits off: cur is irreducible
        fac_rows, cur = hit
        found_shifted.append(fac_rows)
        remaining = [i for i in remaining if i not in combo]
    if _bl_deg(cur) > 0:
        found_shifted.append(cur)
    out = []
    for fr in found_shifted:
        back = _bl_strip([p.taylor_shift(a) for p in fr])  # char 2: shift back
        out.append(_bl_grlex_normalize(back, f))
    return out


def _try_combo(cur, prod, f, n):
    """Build the candidate factor from the product of a subset of lifted
    local factors and test it by total degree, then by exact division;
    returns (factor rows, quotient rows) or None."""
    # scale the monic candidate by the current leading coefficient and take
    # the primitive part: for a true subset this is exactly the factor
    cand = _bl_mul_trunc(prod, [cur[-1]], n)
    if not cand:
        return None
    _, cand = _bl_primitive(cand)
    # a true factor G of cur with cofactor H: the excesses tdeg - deg_x0 of
    # G and H are >= 0 and add up to that of cur, and the shift w = x1 + a
    # keeps total degree, so every row j of G has j + deg_w <= k + excess
    bound = _bl_deg(cand) + _bl_tdeg(cur) - _bl_deg(cur)
    if _bl_tdeg(cand) > bound:
        return None
    quo = _bl_try_exact_div(cur, cand, f)
    if quo is None:
        return None
    return cand, quo
