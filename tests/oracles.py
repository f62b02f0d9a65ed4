"""Brute-force references for the quotient surface.

kernels.count_affine reaches the count through the derivative histogram
without looking at the surface; brute_count evaluates the quotient form
itself at every point of the affine 3-space, so the two share no logic
beyond the field tables.

surface.build_surface sums cached quotients of monomials; four_point_sum
expands the numerator of the whole map term by term instead, without
polynomial powers or division.

search.scan verifies its survivors in stacked passes, each survivor's
value table built from its digits; verify_hit_py verifies one survivor
at a time from its own PolyFunc, over the rows of the map's scaling
group.

search._degree9_reduction_note sweeps each hit's whole (a, b) grid with
array arithmetic; reduction_note_brute_force substitutes one (a, b) at
a time through affine_transform and normalize.

The kernels module vectorizes its loops over whole rows and batches of
tables; spectrum_hist_py, is_apn_py, walsh_hist_py and scan_py walk the
same sums one element at a time.  kernels._candidate_tables xors rows of
per-digit product tables; candidate_tables_per_digit multiplies every
cell of every candidate by each of its digits instead.

surface.diagonal_infinity_singular reads (1:1:1:0) off the partials of
the top homogeneous component; diagonal_infinity_singular_ref builds the
projective closure in x0, x1, x2 and z from every component, as its own
dict of exponent 4-tuples, evaluates it and its four partials there, and
finds the diagonal roots by trying every element.

mvpoly.bi_factor lifts a split of one specialization and recombines the
lifted factors; bi_is_irreducible instead tries every possible factor of
at most half the degree by exact division.

criteria.binomial_criterion tests the odd layer first and stops the
squarefree test at gcd(chart, partials); binomial_criterion_py tests
the layers in the order (d, r), each by the degree of its whole
bi_squarefree part.

Field.pair_table reads absolute traces through a mask of the basis
elements' traces; trace_py sums the conjugates a + a^2 + ... + a^(2^(m-1))
of one element through scalar multiplication.

bounds._sign_p_plus_s_sqrtq decides the sign of p + s*sqrt(q) in one
case split on the signs of p and s; sign_p_plus_s_sqrtq splits on the
parity of m instead, with an integer sqrt(q) for even m and sqrt(2) for
odd m.
"""

import itertools

import numpy as np

from apnsurf import kernels
from apnsurf.bounds import _sign
from apnsurf.differential import (differential_spectrum, fingerprint_digest,
                                  walsh_fingerprint)
from apnsurf.errors import (ApnToolError, DegreeTooSmall,
                            DiagonalNotConstant, NotDivisible)
from apnsurf.criteria import CriterionVerdict
from apnsurf.mvpoly import TriPoly, bi_gcd, bi_squarefree, uni_factor
from apnsurf.polyfunc import (PolyFunc, affine_transform, is_q_affine,
                              normalize)
from apnsurf.surface import infinity_curve


def evaluate(f, x):
    """f(x) for one field element, by Horner's rule on the map's
    polynomial."""
    return f.poly.eval_at(x)


def candidate(job, index):
    """The family member of a SearchJob at one candidate index."""
    terms = list(job.fixed_terms)
    terms.extend(zip(job.free_degrees, job.coeff_vector(index)))
    return PolyFunc(job.field, terms)


def trace_py(field, a):
    """Absolute trace a + a^2 + ... + a^(2^(m-1)) down to GF(2), as 0
    or 1."""
    t, s = 0, field.check(a)
    for _ in range(field.m):
        t ^= s
        s = field.mul(s, s)
    if t not in (0, 1):
        raise ApnToolError("trace of %d is %d, not in GF(2)" % (a, t))
    return t


def frobenius_twist(f):
    """The map x -> f(x)^2 expressed again as a PolyFunc."""
    return PolyFunc(f.field, [(2 * e, f.field.mul(c, c)) for e, c in f.terms()])


def uni_is_irreducible(p):
    if p.is_zero or p.degree < 1:
        return False
    _, facs = uni_factor(p)
    return len(facs) == 1 and facs[0][1] == 1



def bi_is_irreducible(p):
    """Irreducibility over the coefficient field of a TriPoly in x0, x1, by
    trial division.  A reducible p of total degree n has a factor of total
    degree at most n // 2, and that factor scaled to graded-lex leading
    coefficient 1 still divides p; so every such candidate is tried.  The
    work is q^((k+1)(k+2)/2) divisions for k = n // 2: keep n and q small."""
    field = p.field
    n = p.total_degree
    if n < 1:
        return False
    half = n // 2
    monomials = [(i, k - i, 0) for k in range(half + 1) for i in range(k + 1)]
    for coeffs in itertools.product(range(field.q), repeat=len(monomials)):
        cand = TriPoly(field, dict(zip(monomials, coeffs)))
        if cand.total_degree < 1 or cand.lead_term()[1] != 1:
            continue
        try:
            p.exact_divide(cand)
        except NotDivisible:
            continue
        return False
    return True


def binomial_criterion_py(d, r):
    """criteria.binomial_criterion, d > r >= 3, with the layers in the
    order (d, r), each decided squarefree when its bi_squarefree part
    keeps the chart's total degree."""
    name = "binomial_criterion"
    if d & (d - 1) == 0 or r & (r - 1) == 0:
        return CriterionVerdict("unknown", name, note="a layer is linearized")
    if r == 3:
        return CriterionVerdict(
            "unknown", name,
            note="lower layer has a constant curve at infinity")
    cd, cr = infinity_curve(d), infinity_curve(r)
    if min(e[2] for e in cd.terms) and min(e[2] for e in cr.terms):
        return CriterionVerdict("unknown", name,
                                note="curves share the line x2 = 0")
    chart_d, chart_r = cd.dehomogenize(), cr.dehomogenize()
    g = bi_gcd(chart_d, chart_r)
    if g.total_degree > 0:
        return CriterionVerdict("unknown", name,
                                note="curves share a component", witness=g)
    for cur, ch in ((cd, chart_d), (cr, chart_r)):
        if (min(e[2] for e in cur.terms) <= 1
                and bi_squarefree(ch).total_degree == ch.total_degree):
            return CriterionVerdict("established", name,
                                    note="coprime curves, squarefree layer")
    return CriterionVerdict("unknown", name, note="no squarefree layer")


def four_point_sum(f):
    """f(x0)+f(x1)+f(x2)+f(x0+x1+x2) as a TriPoly.

    Over characteristic 2 the multinomial coefficient of
    x0^a x1^b x2^c in (x0+x1+x2)^e is odd exactly when a, b, c split
    the bits of e (Lucas), so each power expands by submasks.
    """
    t = {}

    def add(key, v):
        w = t.get(key, 0) ^ v
        if w:
            t[key] = w
        else:
            t.pop(key, None)

    for e, v in f.terms():
        for i in range(3):
            key = [0, 0, 0]
            key[i] = e
            add(tuple(key), v)
        a = e
        while True:
            rest = e ^ a
            b = rest
            while True:
                add((a, b, rest ^ b), v)
                if b == 0:
                    break
                b = (b - 1) & rest
            if a == 0:
                break
            a = (a - 1) & e
    return TriPoly(f.field, t)


def _partial4(terms, i):
    """Formal partial in variable i of a dict keyed by exponent 4-tuples."""
    out = {}
    for e, v in terms.items():
        if e[i] % 2:
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = v
    return out


def _eval4(field, terms, point):
    acc = 0
    for e, v in terms.items():
        for x, k in zip(point, e):
            v = field.mul(v, field.pow_(x, k))
        acc ^= v
    return acc


def diagonal_infinity_singular_ref(surface):
    """Whether (1:1:1:0) is singular on F = sum of phi_k*z^(D-k), D = d-3,
    the closure built from the homogeneous components phi_k of the form."""
    d = surface.source_degree
    if d < 5:
        raise DegreeTooSmall(f"source degree {d} below 5")
    field = surface.field
    top = d - 3
    comps = [surface.poly.homogeneous_component(k) for k in range(top + 1)]
    # the diagonal restriction is sum of phi_k(1,1,1)*t^k
    if any(phi.eval_at((1, 1, 1)) for phi in comps[1:]):
        raise DiagonalNotConstant(
            "diagonal restriction is not constant",
            points=[(r, r, r) for r in range(field.q)
                    if surface.poly.eval_at((r, r, r)) == 0])
    # phi_k * z^(D-k), term by term: the components have disjoint terms
    closure = {e + (top - sum(e),): v for e, v in surface.poly.terms.items()}
    point = (1, 1, 1, 0)
    return all(_eval4(field, p, point) == 0
               for p in [closure] + [_partial4(closure, i) for i in range(4)])


def brute_count(surface):
    """(affine zeros, zeros on the triple locus) of the quotient form, by
    evaluation at all q^3 points."""
    field = surface.field
    q = field.q
    # group the terms by (e0, e1); each group is a polynomial in x2
    rows = {}
    for e, v in surface.poly.terms.items():
        rows.setdefault((e[0], e[1]), []).append((e[2], v))
    vals = np.zeros((q, q, q), dtype=np.int64)
    for (e0, e1), inner in rows.items():
        col = kernels.value_table(field, inner)
        plane = field.mul_vec(kernels.power_table(field, e0)[:, None],
                              kernels.power_table(field, e1)[None, :])
        vals ^= field.mul_vec(plane[:, :, None], col[None, None, :])
    xs = np.arange(q)
    x0, x1, x2 = xs[:, None, None], xs[None, :, None], xs[None, None, :]
    zero = vals == 0
    locus = (x0 == x1) | (x1 == x2) | (x0 == x2)
    return int(zero.sum()), int((zero & locus).sum())


def verify_hit_py(job, index):
    """(index, coeffs, delta, digest) of one scan survivor, or None for a
    zero or q-affine map; any other survivor must have uniformity two."""
    f = candidate(job, index)
    if f.is_zero or is_q_affine(f):
        return None
    spec = differential_spectrum(f)
    if spec.delta != 2:
        raise ApnToolError("scan survivor %d has differential uniformity %d"
                           % (index, spec.delta))
    digest = fingerprint_digest(walsh_fingerprint(f))
    return index, job.coeff_vector(index), spec.delta, digest


def reduction_note_brute_force(field, full_hits, reduced_hit_sets):
    """Check every full-family hit lands in a reduced family under some
    substitution x -> a*x + b with the output rescaled monic, and
    report the outcome."""
    q = field.q
    escapees = []
    for h in full_hits:
        f = PolyFunc(field, [(9, 1), (7, h.coeffs[3]), (6, h.coeffs[2]),
                             (5, h.coeffs[1]), (3, h.coeffs[0])])
        found = False
        for a in range(1, q):
            if found:
                break
            c = field.pow_(field.inv(a), 9)
            for b in range(q):
                new = dict(normalize(affine_transform(f, a, b, c)).terms())
                key = set(new)
                for degs, ones, hitset in reduced_hit_sets:
                    shape = {9} | set(degs) | set(ones)
                    if key <= shape and all(new.get(e) == 1 for e in ones):
                        if tuple(new.get(e, 0) for e in degs) in hitset:
                            found = True
                            break
                if found:
                    break
        if not found:
            escapees.append(h.coeffs)
    if escapees:
        return ("full-family hits escaping the reduced families: %r"
                % (escapees,))
    return ("every full-family hit maps into a reduced family under "
            "affine substitution")


# ------------------------------------------------------------- scalar loops

def spectrum_hist_py(table, q, avals):
    hist = np.zeros(q + 1, dtype=np.int64)
    counts = np.zeros(q, dtype=np.int64)
    for a in avals:
        for b in range(q):
            counts[b] = 0
        for x in range(q):
            counts[table[x ^ a] ^ table[x]] += 1
        for b in range(q):
            hist[counts[b]] += 1
    return hist


def is_apn_py(table, q, avals):
    counts = np.zeros(q, dtype=np.int64)
    for a in avals:
        for b in range(q):
            counts[b] = 0
        for x in range(q):
            bb = table[x ^ a] ^ table[x]
            c = counts[bb] + 1
            counts[bb] = c
            if c >= 4:
                return False
    return True


def walsh_hist_py(pmf_perm, par, q, bvals):
    hist = np.zeros(2 * q + 1, dtype=np.int64)
    t = np.zeros(q, dtype=np.int64)
    for b in bvals:
        for u in range(q):
            t[u] = 1 - 2 * par[pmf_perm[u] & b]
        h = 1
        while h < q:
            for i in range(0, q, 2 * h):
                for j in range(i, i + h):
                    x = t[j]
                    y = t[j + h]
                    t[j] = x + y
                    t[j + h] = x - y
            h *= 2
        for u in range(q):
            hist[t[u] + q] += 1
    return hist


def candidate_tables_per_digit(fixed_table, mono_tables, field, cands):
    """Value table of every candidate in cands, one row each: digit j of
    the candidate in base q scales mono_tables[j] on top of fixed_table."""
    q = field.q
    tables = np.broadcast_to(fixed_table, (cands.shape[0], q)).copy()
    t = cands.copy()
    for mono in mono_tables:
        digits = t % q
        t //= q
        tables ^= field.mul_vec(digits[:, None], mono[None, :])
    return tables


def scan_py(fixed_table, mono_tables, q, nfree, start, stop, ext, log,
            hits_out):
    cap = hits_out.shape[0]
    nh = 0
    table = np.zeros(q, dtype=np.int64)
    counts = np.zeros(q, dtype=np.int64)
    for cand in range(start, stop):
        t = cand
        for x in range(q):
            table[x] = fixed_table[x]
        for j in range(nfree):
            digit = t % q
            t //= q
            if digit:
                lg = log[digit]
                for x in range(q):
                    mv = mono_tables[j, x]
                    if mv:
                        table[x] ^= ext[lg + log[mv]]
        ok = True
        for a in range(1, q):
            for b in range(q):
                counts[b] = 0
            for x in range(q):
                bb = table[x ^ a] ^ table[x]
                c = counts[bb] + 1
                counts[bb] = c
                if c >= 4:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            if nh < cap:
                hits_out[nh] = cand
            nh += 1
    return nh


def sign_p_plus_s_sqrt2(p, s):
    """Sign of p + s*sqrt(2) for rational p, s, without floating point."""
    if s == 0:
        return _sign(p)
    if p == 0:
        return _sign(s)
    if p > 0 and s > 0:
        return 1
    if p < 0 and s < 0:
        return -1
    if p > 0:
        return 1 if p * p > 2 * s * s else -1
    return 1 if p * p < 2 * s * s else -1


def sign_p_plus_s_sqrtq(p, s, m):
    """Sign of p + s*sqrt(2^m) for rational p, s."""
    if m % 2 == 0:
        return _sign(p + s * (1 << (m // 2)))
    return sign_p_plus_s_sqrt2(p, s * (1 << ((m - 1) // 2)))
