"""Arithmetic in GF(2^m).

Field elements are plain Python ints in [0, 2^m), read as coefficient
vectors of the polynomial basis: bit i is the coefficient of x^i.  A
``Field`` instance fixes the extension degree and the irreducible
reduction modulus; all operations go through it.

For m <= 16 multiplication runs on discrete log/antilog tables built at
construction time; larger fields use shift-and-add multiplication with
modular reduction.  The tables are built once as Python lists, which the
scalar operations read and which return builtin ints; the numpy arrays
that the kernels read (``Field.tables()``) are made from those lists.
"""

import numpy as np

from .errors import (
    DegreeMismatch,
    DivisionByZero,
    FieldMismatch,
    InvalidParameters,
    ReduciblePolynomial,
)

_TABLE_LIMIT = 16
_MAX_M = 32


# ---- polynomial arithmetic over GF(2), ints as bit vectors ----

def _pmod(a, b):
    """a mod b in GF(2)[x], both encoded as ints."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def _pgcd(a, b):
    while b:
        a, b = b, _pmod(a, b)
    return a


def _pmulmod(a, b, mod):
    """a*b mod 'mod' in GF(2)[x]."""
    r = 0
    dm = mod.bit_length()
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a.bit_length() == dm:
            a ^= mod
    return r


def _is_pow2(n):
    return n >= 1 and (n & (n - 1)) == 0


def _prime_factors(n):
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(mask):
    """Whether the GF(2)[x] polynomial encoded by ``mask`` is irreducible."""
    m = mask.bit_length() - 1
    if m < 1:
        return False
    if m == 1:
        return True
    # x^(2^m) == x mod f, and x^(2^(m/p)) - x coprime to f for prime p | m
    r = 0b10
    for _ in range(m):
        r = _pmulmod(r, r, mask)
    if r != 0b10:
        return False
    for p in _prime_factors(m):
        r = 0b10
        for _ in range(m // p):
            r = _pmulmod(r, r, mask)
        if _pgcd(r ^ 0b10, mask) != 1:
            return False
    return True


_DEFAULT_MODULI = {}


def default_modulus(m):
    """Lexicographically smallest irreducible polynomial of degree m."""
    if m not in _DEFAULT_MODULI:
        for mask in range(1 << m | 1, 1 << (m + 1), 2):
            if is_irreducible(mask):
                _DEFAULT_MODULI[m] = mask
                break
    return _DEFAULT_MODULI[m]


# ---- the field itself ----

class Field:
    """GF(2^m) with a fixed reduction modulus.

    Attributes:
        m: extension degree.
        q: field size, 2^m.
        poly: reduction modulus as an int mask (degree-m bit set).
        generator: a fixed multiplicative generator (None for m > 16).
    """

    def __init__(self, m, poly=None):
        if not isinstance(m, int) or not 1 <= m <= _MAX_M:
            raise InvalidParameters(f"extension degree must be in 1..{_MAX_M}, got {m!r}")
        if poly is None:
            poly = default_modulus(m)
        else:
            if poly.bit_length() - 1 != m:
                raise DegreeMismatch(
                    f"modulus degree {poly.bit_length() - 1} != requested degree {m}")
            if not is_irreducible(poly):
                raise ReduciblePolynomial(f"modulus {poly:#x} is reducible over GF(2)")
        self.m = m
        self.q = 1 << m
        self.poly = poly
        self.generator = None
        self._exp = None
        self._log = None
        self._exp_ext = None
        self._pair = None
        # scalar tables: log, and the antilog twice over (None for m > 16)
        self._log_list = None
        self._exp2_list = None
        if m <= _TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers --

    def _build_tables(self):
        q = self.q
        n = q - 1
        facs = _prime_factors(n) if n > 1 else []
        g = None
        for cand in range(2, q):
            if all(self._pow_raw(cand, n // p) != 1 for p in facs):
                g = cand
                break
        if g is None:
            g = 1  # q == 2
        self.generator = g
        ints = list(range(q))  # one int object per value, shared by the lists
        exp = []
        log = [0] * q
        acc = 1
        for i in ints[:n]:
            exp.append(ints[acc])
            log[acc] = i
            acc = _pmulmod(acc, g, self.poly)
        exp2 = exp + exp
        logzero = 2 * n
        log[0] = logzero
        self._log_list = log
        self._exp2_list = exp2
        # padded antilog for the kernels: real log sums land below logzero,
        # anything involving a zero operand lands at or above it and reads 0
        ext = np.zeros(2 * logzero + 1, dtype=np.int64)
        ext[:logzero - 1] = exp2[:logzero - 1]
        self._exp = np.array(exp, dtype=np.int64)
        self._log = np.array(log, dtype=np.int64)
        self._exp_ext = ext

    def _pow_raw(self, a, e):
        r = 1
        while e:
            if e & 1:
                r = _pmulmod(r, a, self.poly)
            a = _pmulmod(a, a, self.poly)
            e >>= 1
        return r

    def _build_trace_mask(self):
        mask = 0
        for i in range(self.m):
            b = 1 << i
            t = 0
            s = b
            for _ in range(self.m):
                t ^= s
                s = _pmulmod(s, s, self.poly)
            if t:  # absolute trace of a basis element is 0 or 1
                mask |= 1 << i
        return mask

    # -- scalar operations --

    def check(self, a):
        if isinstance(a, np.integer):
            a = int(a)
        if not isinstance(a, int) or not 0 <= a < self.q:
            raise FieldMismatch(f"{a!r} is not an element of GF(2^{self.m})")
        return a

    def add(self, a, b):
        return self.check(a) ^ self.check(b)

    def mul(self, a, b):
        return self._mul(self.check(a), self.check(b))

    def _mul(self, a, b):
        log = self._log_list
        if log is None:
            return _pmulmod(a, b, self.poly)
        return self._exp2_list[log[a] + log[b]] if a and b else 0

    def inv(self, a):
        a = self.check(a)
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        if self._log_list is not None:
            return self._exp2_list[self.q - 1 - self._log_list[a]]
        return self._pow_raw(a, self.q - 2)

    def div(self, a, b):
        return self._mul(self.check(a), self.inv(b))

    def pow_(self, a, e):
        a = self.check(a)
        if not isinstance(e, int) or e < 0:
            raise InvalidParameters(f"exponent must be a non-negative int, got {e!r}")
        if a == 0:
            return 1 if e == 0 else 0
        if self._log_list is not None:
            return self._exp2_list[(self._log_list[a] * e) % (self.q - 1)]
        return self._pow_raw(a, e)

    def sqrt(self, a):
        """The unique square root (squaring is a bijection here)."""
        a = self.check(a)
        return self.pow_(a, 1 << (self.m - 1)) if self.m > 1 else a

    def elements(self):
        """All field elements in ascending integer order."""
        return range(self.q)

    # -- bulk tables for the numeric kernels --

    def tables(self):
        """(exp_ext, log) numpy arrays for kernel code; m <= 16 only."""
        if self._log is None:
            raise InvalidParameters(f"no multiplication tables for m = {self.m} > {_TABLE_LIMIT}")
        return self._exp_ext, self._log

    def mul_vec(self, a, b):
        """Elementwise product of two int64 arrays of field elements."""
        ext, log = self.tables()
        return ext[log[a] + log[b]]

    def pair_table(self):
        """pm[x] with bit i equal to trace(basis_i * x); built lazily, m <= 16."""
        if self._pair is None:
            xs = np.arange(self.q, dtype=np.int64)
            pm = np.zeros(self.q, dtype=np.int64)
            mask = self._build_trace_mask()
            for i in range(self.m):
                prod = self.mul_vec(np.full(self.q, 1 << i, dtype=np.int64), xs)
                tr = _parity_table(self.q)[prod & mask]
                pm |= tr.astype(np.int64) << i
            self._pair = pm
        return self._pair

    # -- misc --

    def __eq__(self, other):
        return isinstance(other, Field) and self.m == other.m and self.poly == other.poly

    def __hash__(self):
        return hash((self.m, self.poly))

    def __repr__(self):
        return f"Field(m={self.m}, poly={self.poly:#x})"


_PARITY_CACHE = {}


def _parity_table(q):
    if q not in _PARITY_CACHE:
        xs = np.arange(q, dtype=np.int64)
        p = np.zeros(q, dtype=np.uint8)
        while xs.max(initial=0) > 0:
            p ^= (xs & 1).astype(np.uint8)
            xs >>= 1
        _PARITY_CACHE[q] = p
    return _PARITY_CACHE[q]


def common_field(*fields):
    """Assert all arguments are the same field and return it."""
    f0 = fields[0]
    for f in fields[1:]:
        if f != f0:
            raise FieldMismatch(f"{f!r} vs {f0!r}")
    return f0
