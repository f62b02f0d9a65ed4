"""Polynomial maps on GF(2^m).

A ``PolyFunc`` wraps a univariate polynomial read as a function on the
field; exponents at or above q are folded back with x^e = x^(1+((e-1) mod
(q-1))), which preserves the induced map.  Normalization strips the parts
that never affect differential behaviour: the constant term and every
linearized monomial (exponent a power of two).
"""

import math

from .errors import BecameZero, InvalidParameters, ParseError, ZeroScalar
from .gf2m import _is_pow2
from .mvpoly import UniPoly


def _fold_exponent(e, q):
    if e == 0 or e < q:
        return e
    return 1 + (e - 1) % (q - 1)


class PolyFunc:
    """A polynomial map, canonically reduced."""

    __slots__ = ("field", "poly")

    def __init__(self, field, terms):
        """terms: iterable of (exponent, coefficient)."""
        folded = {}
        for e, c in terms:
            if e < 0:
                raise InvalidParameters(f"negative exponent {e}")
            c = field.check(c)
            e = _fold_exponent(e, field.q)
            folded[e] = folded.get(e, 0) ^ c
        self.field = field
        self.poly = UniPoly.from_terms(field, folded.items())

    @classmethod
    def monomial(cls, field, e, c=1):
        return cls(field, [(e, c)])

    @property
    def degree(self):
        return self.poly.degree

    @property
    def is_zero(self):
        return self.poly.is_zero

    def terms(self):
        return [(i, v) for i, v in enumerate(self.poly.c) if v]

    def __eq__(self, other):
        return (isinstance(other, PolyFunc) and self.field == other.field
                and self.poly == other.poly)

    def __hash__(self):
        return hash((self.field, self.poly))

    def __repr__(self):
        if self.is_zero:
            return "PolyFunc(0)"
        parts = []
        for e, c in reversed(self.terms()):
            if e == 0:
                parts.append(f"{c:#x}")
            else:
                xs = "x" if e == 1 else f"x^{e}"
                parts.append(xs if c == 1 else f"{c:#x}*{xs}")
        return "PolyFunc(" + " + ".join(parts) + ")"


def is_q_affine(f):
    """True when every term is constant or has a power-of-two exponent,
    i.e. the map is additive up to a constant."""
    return all(e == 0 or _is_pow2(e) for e, _ in f.terms())


def normalize(f):
    """Strip the constant term and all linearized monomials.

    Raises BecameZero when nothing remains; the result is what the surface
    construction and the scans operate on.
    """
    keep = [(e, c) for e, c in f.terms() if e != 0 and not _is_pow2(e)]
    if not keep:
        raise BecameZero("no terms left after stripping the additive part")
    return PolyFunc(f.field, keep)


def affine_transform(f, a, b, c):
    """The map x -> c * f(a*x + b).

    a and c must be nonzero; the differential spectrum is unchanged by this
    transform (and by adding any additive map on top).
    """
    fld = f.field
    a = fld.check(a)
    b = fld.check(b)
    c = fld.check(c)
    if a == 0 or c == 0:
        raise ZeroScalar("affine substitution needs nonzero scale factors")
    out = {}
    for e, coeff in f.terms():
        if b == 0:
            v = fld.mul(coeff, fld.pow_(a, e))
            out[e] = out.get(e, 0) ^ v
            continue
        # (a x + b)^e = sum over bit-submasks k of e of (a x)^k b^(e-k)
        k = e
        while True:
            v = fld.mul(coeff,
                        fld.mul(fld.pow_(a, k), fld.pow_(b, e - k)))
            out[k] = out.get(k, 0) ^ v
            if k == 0:
                break
            k = (k - 1) & e
    return PolyFunc(fld, [(e, fld.mul(c, v)) for e, v in out.items() if v])


# ------------------------------------------------------------ known families

FAMILIES = ("gold", "kasami", "welch", "niho", "inverse", "dobbertin")


def known_apn_exponent(family, m, h=None):
    """Exponent of a classical plateau of maps x^d with differential
    uniformity two, for the given extension degree.

    The catalogue is frozen to the six classical families; parameter
    validity is checked and InvalidParameters raised otherwise.
    """
    if family not in FAMILIES:
        raise InvalidParameters(f"unknown family {family!r}")
    if m < 2:
        raise InvalidParameters("need m >= 2")
    if family == "gold":
        if h is None or not 1 <= h < m or math.gcd(h, m) != 1:
            raise InvalidParameters(f"gold needs h coprime to m in 1..m-1, got {h!r}")
        return (1 << h) + 1
    if family == "kasami":
        if h is None or not 1 <= h < m or math.gcd(h, m) != 1:
            raise InvalidParameters(f"kasami needs h coprime to m in 1..m-1, got {h!r}")
        return (1 << (2 * h)) - (1 << h) + 1
    if h is not None:
        raise InvalidParameters(f"{family} takes no h parameter")
    if family == "welch":
        if m % 2 == 0 or m < 3:
            raise InvalidParameters("welch needs odd m >= 3")
        return (1 << ((m - 1) // 2)) + 3
    if family == "niho":
        if m % 2 == 0 or m < 3:
            raise InvalidParameters("niho needs odd m >= 3")
        t = (m - 1) // 2
        if t % 2 == 0:
            return (1 << t) + (1 << (t // 2)) - 1
        return (1 << t) + (1 << ((3 * t + 1) // 2)) - 1
    if family == "inverse":
        if m % 2 == 0:
            raise InvalidParameters("inverse needs odd m")
        return (1 << m) - 2
    # dobbertin
    if m % 5 != 0:
        raise InvalidParameters("dobbertin needs m divisible by 5")
    k = m // 5
    return (1 << (4 * k)) + (1 << (3 * k)) + (1 << (2 * k)) + (1 << k) - 1


def catalogue(m):
    """Every valid (family, h, exponent) triple at extension degree m."""
    out = []
    for h in range(1, m):
        if math.gcd(h, m) == 1:
            out.append(("gold", h, known_apn_exponent("gold", m, h)))
    for h in range(1, m):
        if math.gcd(h, m) == 1:
            out.append(("kasami", h, known_apn_exponent("kasami", m, h)))
    for family in ("welch", "niho", "inverse", "dobbertin"):
        try:
            out.append((family, None, known_apn_exponent(family, m)))
        except InvalidParameters:
            pass
    return out


# ------------------------------------------------------------------- parsing

def _tokenize(text):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if text.startswith("**", i):
            toks.append(("^", "^"))
            i += 2
            continue
        if ch in "+*^()":
            toks.append((ch, ch))
            i += 1
            continue
        if ch == "0" and i + 1 < len(text) and text[i + 1] in "xX":
            j = i + 2
            while j < len(text) and text[j] in "0123456789abcdefABCDEF":
                j += 1
            if j == i + 2:
                raise ParseError(f"bad hex literal at position {i}")
            toks.append(("int", int(text[i:j], 16)))
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j])))
            i = j
            continue
        if ch.isalpha():
            toks.append(("name", ch))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r} at position {i}")
    return toks


def _parse_terms(text):
    """Split into additive terms: each is (x_exponent, const_or_None, letter_or_None).

    A term is a product of factors; factors are x (optionally with ^e), an
    integer constant, or a single placeholder letter.
    """
    toks = _tokenize(text)
    if not toks:
        raise ParseError("empty expression")
    terms = []
    pos = 0

    def take_power(pos):
        if pos < len(toks) and toks[pos][0] == "^":
            pos += 1
            if pos >= len(toks) or toks[pos][0] != "int":
                raise ParseError("expected an integer exponent after '^'")
            return toks[pos][1], pos + 1
        return 1, pos

    while pos < len(toks):
        xexp = 0
        const = None
        letter = None
        saw = False
        while pos < len(toks) and toks[pos][0] != "+":
            kind, val = toks[pos]
            if kind == "*":
                pos += 1
                continue
            if kind == "name" and val in ("x", "X"):
                pos += 1
                e, pos = take_power(pos)
                xexp += e
                saw = True
                continue
            if kind == "int":
                pos += 1
                e, pos = take_power(pos)
                if e != 1:
                    val = ("pow", val, e)
                const = val if const is None else ("mul", const, val)
                saw = True
                continue
            if kind == "name":
                if letter is not None:
                    raise ParseError("at most one placeholder letter per term")
                letter = val
                pos += 1
                saw = True
                continue
            raise ParseError(f"unexpected token {val!r}")
        if not saw:
            raise ParseError("empty term")
        terms.append((xexp, const, letter))
        if pos < len(toks):
            pos += 1  # skip '+'
            if pos >= len(toks):
                raise ParseError("trailing '+'")
    return terms


def _eval_const(spec, field):
    if spec is None:
        return 1
    if isinstance(spec, int):
        return field.check(spec)
    op = spec[0]
    if op == "mul":
        return field.mul(_eval_const(spec[1], field), _eval_const(spec[2], field))
    if op == "pow":
        return field.pow_(field.check(spec[1]), spec[2])
    raise ParseError(f"bad constant expression {spec!r}")


def parse_poly(field, text, bindings=None):
    """Parse a polynomial expression into a PolyFunc.

    Placeholder letters must all be resolved through ``bindings``.
    """
    bindings = bindings or {}
    out = []
    for xexp, const, letter in _parse_terms(text):
        c = _eval_const(const, field)
        if letter is not None:
            if letter not in bindings:
                raise ParseError(f"unbound coefficient {letter!r}")
            c = field.mul(c, field.check(bindings[letter]))
        out.append((xexp, c))
    return PolyFunc(field, out)


def parse_family(field, text, bindings=None):
    """Parse an expression with free placeholder letters.

    Returns (fixed_terms, free): fixed_terms is a list of (exponent,
    coefficient) for the bound part, free a list of (letter, exponent) in
    order of first appearance.  Each letter may appear only once.
    """
    bindings = bindings or {}
    fixed = []
    free = []
    seen = set()
    for xexp, const, letter in _parse_terms(text):
        c = _eval_const(const, field)
        if letter is not None and letter in bindings:
            c = field.mul(c, field.check(bindings[letter]))
            letter = None
        if letter is None:
            fixed.append((xexp, c))
            continue
        if letter in seen:
            raise ParseError(f"placeholder {letter!r} used twice")
        if c != 1:
            raise ParseError("placeholder terms cannot carry extra constants")
        seen.add(letter)
        free.append((letter, xexp))
    return fixed, free
