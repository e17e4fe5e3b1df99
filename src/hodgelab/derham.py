"""De Rham complexes of (Laurent) polynomial algebras, weight strand by
weight strand: cohomology over Z / Q / F_p, the Cartier isomorphism and
the Cech-Alexander comparison for F_p[x].

A form is a sparse sum of basis forms x^exps dx_{i_1} ^ ... ^ dx_{i_k},
each keyed (exps, idxs) as in :meth:`DgaForms.strand_basis`; dx inherits
the weight of x, so every complex here splits into finite weight
strands.  d is defined once, on a basis key: the strand matrices read it
column by column and :meth:`Form.d` sums it over a form's terms.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain, combinations
from math import factorial

from .exactlin import (CompositionNonzero, IntMat, complex_cohomology,
                       fp_kernel, fp_rank)
from .gralg import (FP, ZZ, PDContext, RingMismatch, TruncationOverflow,
                    ZP2)

__all__ = [
    "UnsupportedBase", "NotCharP", "TruncationTooSmall", "DgaForms", "Form",
    "de_rham_cohomology", "cartier_inverse", "verify_cartier_iso",
    "cartier_multiplicativity", "CAComplex",
    "cech_alexander_compare",
]


class UnsupportedBase(Exception):
    pass


class NotCharP(Exception):
    pass


class TruncationTooSmall(Exception):
    pass


class DgaForms:
    """Differential forms over a graded polynomial/Laurent base.

    vars: sequence of (name, weight) or (name, weight, invertible).
    Exponents are ints; only an invertible variable takes negative ones.
    Strand enumeration requires the non-invertible weights to share a
    sign and at most one invertible variable (enough for every base the
    engine meets; anything else raises UnsupportedBase).
    """

    def __init__(self, ring, vars):
        self.ring = ring
        self.names = tuple(spec[0] for spec in vars)
        self.weights = tuple(spec[1] for spec in vars)
        self.invertible = tuple(len(spec) > 2 and bool(spec[2])
                                for spec in vars)
        self.nvars = len(self.names)

    # -- elements -----------------------------------------------------------

    def zero(self):
        return Form(self, {})

    def monomial_form(self, exps, idxs, coeff=1):
        """coeff * x^exps dx_idxs, idxs increasing.

        Callers' keys enter here, so this is where their exponents are
        checked.
        """
        exps = tuple(exps)
        for name, inv, e in zip(self.names, self.invertible, exps):
            if not isinstance(e, int):
                raise TruncationOverflow("exponent %s is not an integer"
                                         % (e,))
            if e < 0 and not inv:
                raise ValueError("negative exponent on non-invertible %s"
                                 % name)
        return Form(self, {(exps, tuple(idxs)): coeff})

    def dx(self, i):
        return self.monomial_form((0,) * self.nvars, (i,))

    # -- strand bases ---------------------------------------------------------

    def _check_enumerable(self):
        if any(w == 0 for w in self.weights):
            raise UnsupportedBase("weight-0 variables are not strand-finite")
        if any(self.invertible) and self.nvars > 1:
            raise UnsupportedBase("inverted variables mix infinitely with"
                                  " bounded ones")
        pos = [w for w, inv in zip(self.weights, self.invertible) if not inv]
        if pos and not (all(w > 0 for w in pos) or all(w < 0 for w in pos)):
            raise UnsupportedBase("mixed-sign bounded variables")

    def monomials(self, w):
        """Exponent tuples of weight exactly w, sorted."""
        self._check_enumerable()
        weights = self.weights
        if any(self.invertible):
            q = weights[0]
            return [(w // q,)] if w % q == 0 else []
        # sign normalization so the bounded exponent search decreases
        sign = -1 if any(wt < 0 for wt in weights) else 1
        out = []

        def rec(i, rem, exps):
            if i == self.nvars:
                if rem == 0:
                    out.append(tuple(exps))
                return
            q = weights[i] * sign
            e = 0
            while e * q <= rem * sign:
                rec(i + 1, rem - e * weights[i], exps + [e])
                e += 1

        rec(0, w, [])
        del rec  # rec holds itself through its closure cell: free that cycle
        return sorted(out)

    def strand_basis(self, i, w):
        """Basis of Omega^i in weight w: (exps, idxs) pairs, sorted."""
        out = []
        for idxs in combinations(range(self.nvars), i):
            dw = sum(self.weights[j] for j in idxs)
            for exps in self.monomials(w - dw):
                out.append((exps, idxs))
        return sorted(out, key=lambda t: (t[1], t[0]))

    def strand_matrix(self, i, w):
        """d: Omega^i_w -> Omega^{i+1}_w as an integer matrix."""
        return IntMat.from_images(self.strand_basis(i, w),
                                  self.strand_basis(i + 1, w), _d_key)


def _d_key(key):
    """d of the basis form x^exps dx_idxs, as {key: int}.

    d(x^e dx_I) = sum_v e_v x^(e - 1_v) dx_v ^ dx_I; each variable v
    lands on its own dx_v, so no key repeats.
    """
    exps, idxs = key
    out = {}
    for v, e in enumerate(exps):
        if e and v not in idxs:
            nidxs, sign = _insert_index(idxs, v)
            out[exps[:v] + (e - 1,) + exps[v + 1:], nidxs] = sign * e
    return out


def _insert_index(idxs, v):
    """Insert v, not in idxs, into the ordered tuple idxs; return
    (tuple, sign)."""
    pos = 0
    while pos < len(idxs) and idxs[pos] < v:
        pos += 1
    return idxs[:pos] + (v,) + idxs[pos:], (-1) ** pos


class Form:
    """A differential form {(exps, idxs): coeff} over the strand keys of
    its DgaForms, coefficients normalized in dga.ring, zeros dropped.

    Build forms with :meth:`DgaForms.monomial_form`, which checks the
    exponents; the operations here only combine keys that passed it.
    """

    __slots__ = ("dga", "terms")

    def __init__(self, dga, terms):
        self.dga = dga
        normalize = dga.ring.normalize
        self.terms = {}
        for key, c in terms.items():
            c = normalize(c)
            if c:
                self.terms[key] = c

    def _require(self, other):
        if self.dga is not other.dga:
            raise RingMismatch("forms over different bases")

    def __add__(self, other):
        self._require(other)
        return _form_sum(self.dga, chain(self.terms.items(),
                                         other.terms.items()))

    def __neg__(self):
        return Form(self.dga, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def wedge(self, other):
        """Exponents add; _merge_indices gives the sign."""
        self._require(other)
        out = []
        for (e1, i1), c1 in self.terms.items():
            for (e2, i2), c2 in other.terms.items():
                idxs, sign = _merge_indices(i1, i2)
                if idxs is not None:
                    exps = tuple(a + b for a, b in zip(e1, e2))
                    out.append(((exps, idxs), sign * c1 * c2))
        return _form_sum(self.dga, out)

    def d(self):
        return _form_sum(self.dga, ((k, c * e)
                                    for key, c in self.terms.items()
                                    for k, e in _d_key(key).items()))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Form) and self.dga is other.dga
                and self.terms == other.terms)

    def __repr__(self):
        names = self.dga.names
        bits = ["*".join([str(c)]
                         + ["%s^%s" % (n, e) for n, e in zip(names, exps) if e]
                         + ["d%s" % names[j] for j in idxs])
                for (exps, idxs), c in sorted(self.terms.items())]
        return " + ".join(bits) or "0"


def _form_sum(dga, terms):
    """The form summing (key, coeff) pairs in which a key may repeat."""
    out = Form(dga, {})
    add_to = dga.ring.add_to
    for key, c in terms:
        add_to(out.terms, key, c)
    return out


def _merge_indices(i1, i2):
    if set(i1) & set(i2):
        return None, 0
    merged = i1 + i2
    # bubble-sort sign
    sign = 1
    lst = list(merged)
    for a in range(len(lst)):
        for b in range(len(lst) - 1 - a):
            if lst[b] > lst[b + 1]:
                lst[b], lst[b + 1] = lst[b + 1], lst[b]
                sign = -sign
    return tuple(lst), sign


# -- cohomology ---------------------------------------------------------------


def de_rham_cohomology(dga, w):
    """[H^0, ..., H^nvars] of the de Rham strand w, read from the one
    complex Omega^0_w -> ... -> Omega^nvars_w: AbGroups over Z,
    dimensions over fields."""
    ring = dga.ring
    if ring is not ZZ and not ring.is_field():
        raise UnsupportedBase("cohomology over Z/p^2 is not strand-finite"
                              " in this model")
    mats = [dga.strand_matrix(i, w) for i in range(dga.nvars)]
    dims = [len(dga.strand_basis(0, w))] + [d.nrows for d in mats]
    return complex_cohomology(dims, mats, ring)


# -- Cartier ------------------------------------------------------------------


def cartier_inverse(form, p):
    """C^{-1} on keys: x^e dx_I -> x^(pe) prod_{i in I} x_i^(p-1) dx_I,
    the coefficient kept (c^p = c in F_p).

    Multiplicative and Frobenius-semilinear; the result is a cocycle of
    the pushed-forward complex.
    """
    dga = form.dga
    if dga.ring.char != p:
        raise NotCharP("Cartier needs characteristic %d" % p)
    # e -> p e + (p - 1) chi_I is injective, so no two images collide
    return Form(dga, {(tuple(p * e + (p - 1) * (v in idxs)
                             for v, e in enumerate(exps)), idxs): c
                      for (exps, idxs), c in form.terms.items()})


def verify_cartier_iso(p, d, w_max):
    """Strandwise bijectivity of C^{-1}: Omega^i_(w) -> H^i(Omega)_{pw}.

    Returns a list of entry dicts, one per (i, w <= w_max) target strand:
    off-p-multiple strands must have vanishing H^i, p-multiples must be
    hit bijectively from weight w/p.  dim H^i is read off
    :func:`de_rham_cohomology`'s row for weight w, built once per weight,
    which raises CompositionNonzero unless d o d = 0 mod p.  A failed
    check becomes a False verdict; an image of C^{-1} off the weight-w
    basis, which C^{-1} cannot produce, raises AssertionError.
    """
    base = DgaForms(FP(p), [("x%d" % (k + 1), 1) for k in range(d)])

    def cartier_image(key):
        return cartier_inverse(base.monomial_form(*key), p).terms

    rows = [de_rham_cohomology(base, w) for w in range(w_max + 1)]
    entries = []
    for i in range(0, d + 1):
        for w in range(0, w_max + 1):
            dim_h = rows[w][i]
            if w % p != 0:
                entries.append({"i": i, "w": w, "dim_h": dim_h,
                                "source_dim": 0, "ok": dim_h == 0})
                continue
            src = base.strand_basis(i, w // p)
            ok = dim_h == len(src)
            if ok and src:
                # images and boundaries span the cocycles: H^i of
                # Omega^(i-1) + src -> Omega^i -> Omega^(i+1) vanishes,
                # and its d o d check is the cocycle check
                imat = IntMat.from_images(src, base.strand_basis(i, w),
                                          cartier_image)
                bounds = base.strand_matrix(i - 1, w).columns() if i else []
                hit = IntMat.from_columns(imat.columns() + bounds,
                                          imat.nrows)
                try:
                    ok = complex_cohomology(
                        [hit.ncols, hit.nrows],
                        [hit, base.strand_matrix(i, w)], base.ring)[1] == 0
                except CompositionNonzero:
                    ok = False
            entries.append({"i": i, "w": w, "dim_h": dim_h,
                            "source_dim": len(src), "ok": ok})
    return entries


def cartier_multiplicativity(p, d, w_max, pairs=100, seed=0):
    """C^{-1}(a ^ b) == C^{-1}(a) ^ C^{-1}(b) on seeded random pairs."""
    import random
    rng = random.Random(seed)
    base = DgaForms(FP(p), [("x%d" % (k + 1), 1) for k in range(d)])
    failures = 0
    for _ in range(pairs):
        a = _random_form(base, rng, d, w_max)
        b = _random_form(base, rng, d, w_max)
        lhs = cartier_inverse(a.wedge(b), p)
        rhs = cartier_inverse(a, p).wedge(cartier_inverse(b, p))
        if not (lhs - rhs).is_zero():
            failures += 1
    return failures


def _random_form(base, rng, d, w_max):
    i = rng.randint(0, d)
    w = rng.randint(i, max(i, w_max // 2))
    basis = base.strand_basis(i, w)
    if not basis:
        return base.zero()
    out = base.zero()
    for _ in range(rng.randint(1, 3)):
        exps, idxs = rng.choice(basis)
        out = out + base.monomial_form(exps, idxs, rng.randint(1, base.ring.p))
    return out


# -- Cech-Alexander -----------------------------------------------------------


class CAComplex:
    """Weight-truncated Cech-Alexander nerve of B = F_p[x], levels 1..3.

    Level j is the PD envelope D(j) of ker(F_p[x_1..x_j] -> F_p[x]) with
    its forms, over generators with p^depth-th roots adjoined; the
    three cofaces D(2) -> D(3) drop one coordinate of (x_1, x_2, x_3)
    each.  A parallel Z/p^2 model supports the exact division by p that
    builds the comparison element.
    """

    def __init__(self, p, w_max, depth=0):
        self.p = p
        self.w_max = w_max
        cap = w_max + 1
        self.d1 = PDContext(FP(p), 1, [], depth=depth, max_weight=cap)
        self.d2 = PDContext(FP(p), 2, [("diff", 0, 1)], depth=depth,
                            max_weight=cap)
        self.d3 = PDContext(FP(p), 3, [("diff", 0, 1), ("diff", 1, 2)],
                            depth=depth, max_weight=cap)
        self.d2_lift = PDContext(ZP2(p), 2, [("diff", 0, 1)], depth=depth,
                                 max_weight=cap)
        self._s_images = {}

    # cosimplicial structure maps on basis keys

    def coface12(self, el, which):
        """D(1) -> D(2): x -> x_1 (which=0) or x -> x_2 (which=1)."""
        out = self.d2.zero()
        for (exps, _pd), c in el.terms.items():
            e = exps[0]
            tgt = [0, 0]
            tgt[which] = e
            out += self.d2.monomial(tuple(tgt), (0,), c)
        return out

    def coface23(self, el, which):
        """D(2) -> D(3) keeping coordinates (1,2), (1,3) or (2,3)."""
        keep = {0: (0, 1), 1: (0, 2), 2: (1, 2)}[which]
        out = self.d3.zero()
        for (exps, pd), c in el.terms.items():
            tgt = [0, 0, 0]
            tgt[keep[0]] = exps[0]
            tgt[keep[1]] = exps[1]
            term = self.d3.monomial(tuple(tgt), (0, 0), c)
            if pd[0]:
                term = term * self._image_of_s(keep, pd[0])
            out += term
        return out

    def _image_of_s(self, keep, k):
        # s = x_a - x_b maps to a sum of the target PD generators; each
        # image is built once per complex, and no caller mutates it
        out = self._s_images.get((keep, k))
        if out is not None:
            return out
        if keep == (0, 1):
            out = self.d3.pd_gen(0, k)
        elif keep == (1, 2):
            out = self.d3.pd_gen(1, k)
        else:
            # x_1 - x_3 = s_1 + s_2: gamma_k(u+v) = sum gamma_a(u) gamma_b(v)
            out = self.d3.zero()
            for a in range(k + 1):
                out += self.d3.monomial((0, 0, 0), (a, k - a), 1)
        self._s_images[keep, k] = out
        return out

    def delta1(self, el):
        return self.coface12(el, 0) - self.coface12(el, 1)

    def delta2(self, el):
        return (self.coface23(el, 0) - self.coface23(el, 1)
                + self.coface23(el, 2))

    def delta1_forms(self, parts):
        """Cech difference on 1-forms over D(1): {(0,): f} -> D(2) forms."""
        out = {}
        f = parts.get((0,))
        if f is not None:
            out[(0,)] = self.coface12(f, 0)
            out[(1,)] = -self.coface12(f, 1)
        return out

    # de Rham differential on PD elements (integral exponents here)

    def d_dr(self, ctx, el):
        """d of a 0-form over a PD model; returns {(i,): PDElement}."""
        out = defaultdict(ctx.zero)
        rel_ds = []
        for rel in ctx.relators:
            rel_ds.append((rel[1], rel[2]) if rel[0] == "diff"
                          else (rel[1], None))
        for (exps, pd), c in el.terms.items():
            for v in range(ctx.nvars):
                e = exps[v]
                if e == 0:
                    continue
                ne = list(exps)
                ne[v] = e - 1
                out[(v,)] += ctx.monomial(tuple(ne), pd, c * e)
            for j, k in enumerate(pd):
                if k == 0:
                    continue
                npd = list(pd)
                npd[j] = k - 1
                base = ctx.monomial(exps, tuple(npd), c)
                a, b = rel_ds[j]
                out[(a,)] += base
                if b is not None:
                    out[(b,)] += -base
        return {k: v for k, v in out.items() if not v.is_zero()}

    def element_a(self):
        """(x_1^p - x_2^p)/p constructed by exact division in Z/p^2."""
        p = self.p
        lift = self.d2_lift.var(0, p) - self.d2_lift.var(1, p)
        out = self.d2.zero()
        for key, c in lift.terms.items():
            if c % p:
                raise AssertionError("lift not divisible by p")
            out += self.d2.monomial(key[0], key[1], (c // p) % p)
        return out


def cech_alexander_compare(p, w_max):
    """Certify the crystalline comparison for B = F_p[x].

    Entries: (a) the weight-p zigzag lands on the exact divided element
    a = (x_1^p - x_2^p)/p modulo Fil_0^conj with top term
    (p-1)! (x_1-x_2)^{[p]}; (b) the weight-1 zigzag gives x_1 - x_2 on
    the nose; (c) totalized H^0/H^1 strand dimensions match de Rham.
    Raises TruncationTooSmall when w_max < 2p.
    """
    if w_max < 2 * p:
        raise TruncationTooSmall("need w_max >= 2p")
    ca = CAComplex(p, w_max)
    entries = []

    # (b) weight 1: solve d v = delta(dx)
    s = ca.d2.var(0) - ca.d2.var(1)
    assert s == ca.d2.pd_gen(0, 1)
    dv = ca.d_dr(ca.d2, s)
    expect = {(0,): ca.coface12(ca.d1.one(), 0),
              (1,): -ca.coface12(ca.d1.one(), 1)}
    ok_b = dv == {k: v for k, v in expect.items() if not v.is_zero()}
    # uniqueness: ker(d) in weight 1 must vanish
    kermat = _ca_d_matrix(ca, 1)
    ok_b = ok_b and fp_rank(kermat, p) == kermat.ncols
    entries.append({"id": "dx-to-x1-minus-x2", "w": 1, "ok": bool(ok_b)})

    # (a) weight p: a from exact division; d a = delta(x^{p-1} dx)
    a = ca.element_a()
    omega = {(0,): ca.d1.var(0, p - 1)}  # x^{p-1} dx over D(1)
    delta_omega = ca.delta1_forms(omega)
    ok_a = ca.d_dr(ca.d2, a) == delta_omega
    ok_a = ok_a and ca.delta2(a).is_zero()
    # modulo Fil_0^conj (terms with PD exponent < p) only the top survives
    top = ca.d2.pd_gen(0, p).scale(factorial(p - 1))
    diff = a - top
    ok_a = ok_a and all(k[1][0] < p for k in diff.terms)
    # every solution of d v = delta omega agrees with a mod Fil_0:
    # ker(d) on the weight-p strand must lie inside the Fil_0 span
    keysp = ca.d2.strand_basis(p)
    dmat = _ca_d_matrix(ca, p)
    for kv in fp_kernel(dmat, p):
        for key, c in zip(keysp, kv):
            if c % p and key[1][0] >= p:
                ok_a = False
    # a itself is no coboundary: delta1 vanishes on the weight-p strand
    xp = ca.d1.var(0, p)
    ok_a = ok_a and ca.delta1(xp).is_zero() and not a.is_zero()
    entries.append({"id": "xp-1dx-to-divided-a", "w": p, "ok": bool(ok_a)})

    # (c) totalization dims vs de Rham per strand
    base = DgaForms(FP(p), [("x", 1)])
    for w in range(0, w_max + 1):
        got0, got1 = _ca_tot_dims(ca, w)
        want0, want1 = de_rham_cohomology(base, w)
        entries.append({"id": "tot-vs-derham", "w": w,
                        "h0": got0, "h1": got1,
                        "ok": bool(got0 == want0 and got1 == want1)})
    return entries


def _coords(level, el, form=None):
    """Coordinates (level, form, key) of a PD element over D(level): a
    function when form is None, else the dx_form part of a 1-form."""
    return {(level, form, key): c for key, c in el.terms.items()}


def _form_coords(level, parts):
    """Coordinates of a 1-form {(i,): element} over D(level)."""
    out = {}
    for (i,), el in parts.items():
        out.update(_coords(level, el, i))
    return out


def _ca_d_matrix(ca, w):
    """Matrix of d_dR on the weight-w strand of 0-forms over D(2)."""
    tkeys = ca.d2.strand_basis(w - 1)
    return IntMat.from_images(
        ca.d2.strand_basis(w), [(2, i, k) for i in range(2) for k in tkeys],
        lambda key: _form_coords(2, ca.d_dr(ca.d2, ca.d2.monomial(*key))))


def _ca_tot_dims(ca, w):
    """(dim H^0, dim H^1) of the truncated totalization in weight w."""
    tot = [[(1, None, k) for k in ca.d1.strand_basis(w)],
           [(1, 0, k) for k in ca.d1.strand_basis(w - 1)]
           + [(2, None, k) for k in ca.d2.strand_basis(w)],
           [(2, i, k) for i in range(2) for k in ca.d2.strand_basis(w - 1)]
           + [(3, None, k) for k in ca.d3.strand_basis(w)]]

    def d0(coord):
        # f -> (d f, delta1 f)
        el = ca.d1.monomial(*coord[2])
        return {**_form_coords(1, ca.d_dr(ca.d1, el)),
                **_coords(2, ca.delta1(el))}

    def d1(coord):
        # (omega, v) -> (delta1 omega - d v, delta2 v)
        level, _, key = coord
        if level == 1:
            return _form_coords(2, ca.delta1_forms(
                {(0,): ca.d1.monomial(*key)}))
        el = ca.d2.monomial(*key)
        dv = ca.d_dr(ca.d2, el)
        return {**_form_coords(2, {k: -v for k, v in dv.items()}),
                **_coords(3, ca.delta2(el))}

    mats = [IntMat.from_images(tot[0], tot[1], d0),
            IntMat.from_images(tot[1], tot[2], d1)]
    return tuple(complex_cohomology([len(tot[0]), len(tot[1])], mats,
                                    FP(ca.p)))
