"""Weight-truncated crystalline-period models for quasiregular semiperfect
rings of the shape F_p[x_1^{1/p^inf},...]/(regular monomial relators).

The mod-p and mod-p^2 period rings are divided-power envelopes over the
truncated perfection; everything is strand-by-strand linear algebra on
explicit PD monomial bases.  The module computes the Hodge, conjugate
and Nygaard filtrations, the graded Cartier map kappa, the splitting of
the conjugate filtration induced by a flat lift, and the cosimplicial
unfolding that recovers de Rham cohomology of F_p[x].  The unfolding
holds no PD models of its own: it reads the cofaces of the
Cech-Alexander nerve :class:`hodgelab.derham.CAComplex`, built over
p^depth-th roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .derham import (CAComplex, DgaForms, TruncationTooSmall,
                     de_rham_cohomology)
from .exactlin import (IntMat, complex_cohomology, fp_rank, fp_rref,
                       kernel_basis)
from .gralg import FP, PDContext, TruncationOverflow, ZP2

__all__ = [
    "NotALift", "TruncationOverflow", "TruncationTooSmall",
    "SemiperfectModel", "CrysAlgebra", "acrys_mod",
    "hodge_fil", "conj_fil", "gr_conj_basis", "nygaard", "kappa",
    "kappa_scalar", "verify_kappa_iso", "di_splitting", "unfold_derham",
]


class NotALift(Exception):
    pass


class SemiperfectModel:
    """S = F_p[x_1^{1/p^m},..,x_d^{1/p^m}] / (relators), weight-truncated.

    Relators are ('var', i) for x_i = 0 or ('diff', i, j) for x_i = x_j,
    with strictly increasing leading indices (a regular sequence).  The
    model keeps exponents with denominator up to p^depth and total
    weight up to w_max.
    """

    def __init__(self, p, nvars, relators, depth, w_max):
        if depth < 1:
            raise ValueError("semiperfect models need depth >= 1")
        if w_max < p:
            raise ValueError("weight bound below p sees nothing")
        self.p = p
        self.nvars = nvars
        self.relators = [tuple(r) for r in relators]
        self.depth = depth
        self.w_max = w_max
        # constructing the PD context validates p and the relator shapes
        self._probe = PDContext(FP(p), nvars, self.relators, depth=depth,
                                max_weight=w_max)


class CrysAlgebra:
    """A truncated crystalline period ring A/p or A/p^2 of a model S.

    The underlying module is the PD envelope basis x^e * prod s_j^[k_j]
    (leading exponents in [0,1)); theta kills the positive divided
    powers, and the Frobenius acts by x^e -> x^(pe) together with the
    exact integral scalars on divided powers.
    """

    def __init__(self, S, modulus):
        self.S = S
        self.p = S.p
        if modulus == S.p:
            ring = FP(S.p)
        elif modulus == S.p ** 2:
            ring = ZP2(S.p)
        else:
            raise ValueError("modulus must be p or p^2")
        self.modulus = modulus
        self.ctx = PDContext(ring, S.nvars, S.relators, depth=S.depth,
                             max_weight=S.w_max)
        self._phi_gen_cache = {}
        self._basis_cache = {}

    # -- bases ---------------------------------------------------------------

    def strand_basis(self, w):
        w = Fraction(w)
        got = self._basis_cache.get(w)
        if got is None:
            got = self.ctx.strand_basis(w)
            self._basis_cache[w] = got
        return got

    def s_basis(self, w):
        """Strand basis of the image of S (divided-power-free keys)."""
        return [k for k in self.strand_basis(w) if not any(k[1])]

    # -- structure maps -------------------------------------------------------

    def theta(self, el):
        """Projection to S (and to the lift when the modulus is p^2)."""
        out = self.ctx.zero()
        for (exps, pd), c in el.terms.items():
            if not any(pd):
                out += self.ctx.monomial(exps, pd, c)
        return out

    def frobenius(self, el):
        """The crystalline Frobenius: Teichmueller p-th power on the
        perfection, exact integral scalars on divided powers."""
        out = self.ctx.zero()
        zero_pd = (0,) * len(self.ctx.relators)
        for (exps, pd), c in el.terms.items():
            term = self.ctx.monomial(tuple(e * self.p for e in exps),
                                     zero_pd, c)
            for j, k in enumerate(pd):
                if k:
                    term = term * self._phi_pd_gen(j, k)
            out += term
        return out

    def _phi_pd_gen(self, j, k):
        """phi(s_j^[k]) as an element, cached."""
        got = self._phi_gen_cache.get((j, k))
        if got is None:
            got = self._phi_gen_cache[j, k] = self._gamma_of_phi_s(j, k)
        return got

    def _gamma_of_phi_s(self, j, k):
        """gamma_k(x_i^p - x_t^p) for the relator s_j = x_i - x_t, and
        gamma_k(x_i^p) = ((pk)!/k!) gamma_pk(s) for s_j = x_i."""
        p = self.p
        rel = self.ctx.relators[j]
        # phi(s) = sum_{c=1}^{p} binom(p,c) c! x_t^(p-c) gamma_c(s); s_j = x_i
        # has no x_t, so only c = p is left, where t = i gets x^0
        first, t = (1, rel[2]) if rel[0] == "diff" else (p, rel[1])
        parts = [(comb(p, c) * factorial(c), p - c, c)
                 for c in range(first, p + 1)]
        out = self.ctx.zero()
        for split in _compositions(k, len(parts)):
            term = self.ctx.one()
            for (scal, texp, c), a in zip(parts, split):
                if a == 0:
                    continue
                # gamma_a(scal * x_t^texp * gamma_c(s)) =
                #   scal^a x_t^(a*texp) ((ac)!/(a!(c!)^a)) gamma_(ac)(s),
                # scalar included, so a vanishing factor skips the cap test
                exps = [0] * self.ctx.nvars
                exps[t] = a * texp * self.ctx.q
                pd = [0] * len(self.ctx.relators)
                pd[j] = a * c
                term = term * self.ctx.monomial(
                    tuple(exps), tuple(pd), scal ** a * factorial(a * c)
                    // (factorial(a) * factorial(c) ** a))
            out += term
        return out

    def theta_matrix(self, w):
        """Matrix of theta from the weight-w strand onto its image of S."""
        return IntMat.from_images(
            self.strand_basis(w), self.s_basis(w),
            lambda key: self.theta(self.ctx.monomial(*key)).terms)

    def phi_matrix(self, w):
        """Integer matrix of phi from strand w to strand p*w."""
        src = self.strand_basis(w)
        tgt = self.strand_basis(self.p * Fraction(w))
        mat = IntMat.from_images(src, tgt, lambda key: self.frobenius(
            self.ctx.monomial(*key)).terms)
        return mat, src, tgt


def _compositions(total, nparts):
    if nparts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, nparts - 1):
            yield (first,) + rest


def acrys_mod(S, modulus):
    """The truncated period ring of S at the given modulus (p or p^2)."""
    return CrysAlgebra(S, modulus)


# -- filtrations ---------------------------------------------------------------


def hodge_fil(A, r, w):
    """Keys spanning the r-th divided-power ideal in weight w."""
    if r < 0:
        raise ValueError("filtration index must be >= 0")
    return [k for k in A.strand_basis(w) if sum(k[1]) >= r]


def conj_fil(A, r, w):
    """Keys spanning the rising conjugate stage r in weight w: total
    divided-power exponent below (r+1)p."""
    if r < 0:
        raise ValueError("filtration index must be >= 0")
    return [k for k in A.strand_basis(w) if sum(k[1]) < (r + 1) * A.p]


def gr_conj_basis(A, r, w):
    p = A.p
    return [k for k in A.strand_basis(w) if r * p <= sum(k[1]) < (r + 1) * p]


def nygaard(A, i, w):
    """Mod-p image of the Nygaard stage N^(>=i) on the weight-w strand.

    Membership is decided on the mod-p^2 model: a lattice vector v lies
    in the stage when phi(v) is divisible by p^i there.  Returns F_p
    row vectors over the strand basis.
    """
    if A.modulus != A.p ** 2:
        raise ValueError("Nygaard detection needs the mod-p^2 model")
    if i > 2:
        raise ValueError("the mod-p^2 model resolves divisibility to p^2")
    if i == 0:
        n = len(A.strand_basis(w))
        return [[1 if t == c else 0 for t in range(n)] for c in range(n)]
    mat, _src, _tgt = A.phi_matrix(w)
    return _kernel_mod_image(mat, A.p ** i, A.p)


def _kernel_mod_image(mat, q, p):
    """F_p basis of the mod-p image of {v : mat v == 0 mod q}.

    That lattice is the projection to Z^n of ker [mat | q I], so the
    first n entries of an exact kernel basis of [mat | q I] span it.
    """
    n = mat.ncols
    wide = IntMat(mat.nrows, n + mat.nrows, {
        **mat.entries, **{(i, n + i): q for i in range(mat.nrows)}})
    gens = [[col.get(i, 0) % p for i in range(n)]
            for col in kernel_basis(wide).columns()]
    _, piv = fp_rref(IntMat.from_columns(gens, n), p)
    return [gens[j] for j in piv]


def depth_restrict(keys, ctx, d):
    """Keys of ctx whose variable exponents have denominator at most p^d,
    for 0 <= d <= ctx.depth.

    A key exponent u stands for u/q, q = p^depth, whose denominator
    divides p^d exactly when p^(depth-d) divides u.  Frobenius-built
    maps out of a depth-m model land in this sub-basis with d = m-1;
    bijectivity statements at finite truncation compare against it
    rather than the full strand.
    """
    step = ctx.p ** (ctx.depth - d)
    return [k for k in keys if all(u % step == 0 for u in k[0])]


# -- kappa ---------------------------------------------------------------------


def kappa_scalar(p, k):
    """(pk)!/(p^k k!), the p-adic unit in the graded Cartier formula."""
    return factorial(p * k) // (p ** k * factorial(k))


def kappa(A, r, elt):
    """The graded Cartier map on Gamma^r(I/I^2), Frobenius-twisted.

    elt: {(exps, comps): coeff} where exps indexes a divided-power-free
    basis monomial of S and comps are the divided exponents (k_1..k_m)
    with sum r.  Returns the representative
    phi(x^e) * prod ((pk_j)!/(p^kj kj!)) s_j^[p k_j] in Fil_r.
    """
    p = A.p
    m = len(A.ctx.relators)
    out = A.ctx.zero()
    for (exps, comps), coeff in elt.items():
        comps = tuple(comps) + (0,) * (m - len(comps))
        if sum(comps) != r:
            raise ValueError("divided exponents must sum to the grade")
        scal = 1
        for k in comps:
            scal *= kappa_scalar(p, k)
        pd = tuple(p * k for k in comps)
        pexps = tuple(e * p for e in exps)
        term = A.ctx.monomial(pexps, pd, coeff)
        out += term.scale(scal)
    return out


def _twist_sources(A, r, v):
    """Basis of Gamma^r(I/I^2) twisted, at source weight v: pairs of an
    S-monomial exponent tuple and a divided multi-exponent of total r."""
    m = len(A.ctx.relators)
    if m == 0:
        return [(k[0], ()) for k in A.s_basis(v - r)] if r == 0 else []
    out = []
    for skey in A.s_basis(v - r):
        for comp in _compositions(r, m):
            out.append((skey[0], comp))
    return out


def verify_kappa_iso(S, r_max):
    """Strandwise bijectivity of kappa_r onto gr_r^conj, r <= r_max.

    Two routes per (r, target weight): the source count must equal an
    independently enumerated gr-strand dimension, and the kappa matrix
    must be invertible mod p.  The graded side is taken at the exponent
    granularity the depth-m Frobenius can reach (denominators up to
    p^(m-1)); target weights run up to S.w_max in steps of that
    granularity.
    """
    p = S.p
    A = acrys_mod(S, p)
    entries = []
    step = Fraction(1, p ** (S.depth - 1))
    for r in range(0, r_max + 1):
        w = Fraction(r * p)
        while w <= S.w_max:
            srcs = _twist_sources(A, r, w / p)
            gr_keys = depth_restrict(gr_conj_basis(A, r, w), A.ctx,
                                     S.depth - 1)
            ok = len(srcs) == len(gr_keys)
            if srcs and ok:
                ok = fp_rank(IntMat.from_images(
                    srcs, gr_keys, lambda src: kappa(A, r, {src: 1}).terms),
                    p) == len(srcs)
            entries.append({"r": r, "w": str(w), "source_dim": len(srcs),
                            "gr_dim": len(gr_keys), "ok": bool(ok)})
            w += step
    return entries


# -- the lift-induced splitting --------------------------------------------------


def di_splitting(S, r_max=None):
    """Splitting of the conjugate filtration from the tautological flat
    lift of S, read in the Z/p^2 model acrys_mod(S, p^2).

    Builds f on Gamma^(<=r_max)(I/I^2) (default r_max = p-1): the S
    factor goes through phi, a divided generator through the divided
    Frobenius phi_1 of its Teichmueller lift in K = ker theta_2, and
    higher grades multiplicatively.  Returns (f, entries) where f maps
    {(exps, comps): coeff} dictionaries to mod-p elements, and entries
    certify injectivity, complementarity to the lower conjugate stage,
    agreement with kappa on the graded pieces, and the p-intertwining
    of phi_0 and phi_1.
    """
    p = S.p
    if r_max is None:
        r_max = p - 1
    if r_max > p - 1:
        raise TruncationOverflow("the splitting extends only to grade p-1")
    A2 = acrys_mod(S, p * p)
    A1 = acrys_mod(S, p)
    m = len(S.relators)

    # theta_2 surjects onto the lift: the divided-power-free keys map
    # identically, so a strand spot-check suffices.  w = 1/p is in every
    # model (depth >= 1) and has keys of S there; on the point model the
    # strands w = 1, 2 of S are empty
    for w in (Fraction(1, p), 1, 2):
        theta = A2.theta_matrix(w)
        if {i for (i, _c) in theta.entries} != set(range(theta.nrows)):
            raise NotALift("theta_2 misses part of the lift")

    phi1_gen = []
    for j in range(m):
        img = A2._phi_pd_gen(j, 1)
        el1 = A1.ctx.zero()
        for key, c in img.terms.items():
            c = int(c)
            if c % p:
                raise AssertionError("phi(K) escaped p A/p^2")
            el1 += A1.ctx.monomial(key[0], key[1], (c // p) % p)
        phi1_gen.append(el1)

    def f(elt):
        out = A1.ctx.zero()
        for (exps, comps), coeff in elt.items():
            term = A1.ctx.monomial(tuple(e * p for e in exps),
                                   (0,) * m, coeff)
            for j, k in enumerate(comps):
                if k:
                    term = term * phi1_gen[j].divided_power(k)
            out += term
        return out

    entries = []
    step = Fraction(1, p ** (S.depth - 1))
    for r in range(0, r_max + 1):
        w = Fraction(r * p)
        while w <= S.w_max:
            srcs = _twist_sources(A1, r, w / p)
            fil_r = depth_restrict(conj_fil(A1, r, w), A1.ctx, S.depth - 1)
            lower = depth_restrict(conj_fil(A1, r - 1, w), A1.ctx,
                                   S.depth - 1) if r else []
            gr_keys = depth_restrict(gr_conj_basis(A1, r, w), A1.ctx,
                                     S.depth - 1)
            try:
                fmat = IntMat.from_images(srcs, fil_r,
                                          lambda src: f({src: 1}).terms)
            except AssertionError:
                # the image left the expected conjugate stage
                entries.append({"r": r, "w": str(w),
                                "source_dim": len(srcs),
                                "fil_dim": len(fil_r), "ok": False})
                w += step
                continue
            low = IntMat.from_images(lower, fil_r, lambda key: {key: 1})
            rank = fp_rank(IntMat.from_columns(
                fmat.columns() + low.columns(), len(fil_r)), p)
            # on gr_r, the quotient of fil_r by the lower stage, f agrees
            # with kappa; both sides have their coefficients in 0..p-1
            gr = set(gr_keys)
            to_gr = IntMat.from_images(
                fil_r, gr_keys, lambda key: {key: 1} if key in gr else {})
            agrees = to_gr.matmul(fmat) == IntMat.from_images(
                srcs, gr_keys, lambda src: kappa(A1, r, {src: 1}).terms)
            # injective, misses the lower stage, and together they fill it
            ok = (rank == len(srcs) + len(lower) and rank == len(fil_r)
                  and agrees)
            entries.append({"r": r, "w": str(w), "source_dim": len(srcs),
                            "fil_dim": len(fil_r), "ok": bool(ok)})
            w += step
    # p-intertwining: phi_1(p u) = phi_0(u) for u in the lift of S
    inter_ok = True
    for w in range(1, min(4, int(S.w_max // p)) + 1):
        for key in A2.s_basis(w):
            img = A2.frobenius(A2.ctx.monomial(key[0], key[1], p))
            half = A1.ctx.zero()
            for k2, c in img.terms.items():
                c = int(c)
                if c % p:
                    inter_ok = False
                half += A1.ctx.monomial(k2[0], k2[1], (c // p) % p)
            direct = A1.frobenius(A1.ctx.monomial(key[0], key[1], 1))
            if not (half - direct).is_zero():
                inter_ok = False
    entries.append({"r": "phi-intertwine", "w": "-", "source_dim": 0,
                    "fil_dim": 0, "ok": bool(inter_ok)})
    return f, entries


# -- the unfolding ---------------------------------------------------------------


def _unfold_strand_dims(ca, w):
    """(dim H^0, dim H^1) of the nerve's three levels at strand w."""
    b0 = ca.d1.strand_basis(w)
    b1 = ca.d2.strand_basis(w)
    d0 = IntMat.from_images(
        b0, b1, lambda key: ca.delta1(ca.d1.monomial(*key)).terms)
    d1 = IntMat.from_images(b1, ca.d3.strand_basis(w),
                            lambda key: ca.delta2(ca.d2.monomial(*key)).terms)
    return tuple(complex_cohomology([len(b0), len(b1)], [d0, d1],
                                    FP(ca.p)))


def unfold_derham(p, w_max, depth=None):
    """Compare the truncated cosimplicial period complex of F_p[x] with
    de Rham cohomology, strand by strand up to w_max.

    The complex is the first three levels of the Cech-Alexander nerve
    (:class:`hodgelab.derham.CAComplex`) over roots of depth ``depth``.
    Each strand is computed at that depth and at depth-1; disagreement
    raises TruncationTooSmall rather than reporting either answer.
    """
    if depth is None:
        depth = 3 if p == 2 else 2
    if depth < 2:
        raise TruncationTooSmall("need depth >= 2 for the stability check")
    if w_max < p:
        raise TruncationTooSmall("w_max below p sees no torsion strand")
    deep = CAComplex(p, w_max, depth)
    shallow = CAComplex(p, w_max, depth - 1)
    base = DgaForms(FP(p), [("x", 1)])
    entries = []
    for w in range(0, w_max + 1):
        got = _unfold_strand_dims(deep, w)
        if got != _unfold_strand_dims(shallow, w):
            raise TruncationTooSmall(
                "strand %s has not stabilized at depth %d" % (w, depth))
        want = tuple(de_rham_cohomology(base, w))
        entries.append({"w": w, "h0": got[0], "h1": got[1],
                        "dr0": want[0], "dr1": want[1],
                        "ok": bool(got == want)})
    # a few fractional strands must vanish on both sides
    for num in (1, p + 1):
        w = Fraction(num, p)
        if w > w_max:
            continue
        got = _unfold_strand_dims(deep, w)
        entries.append({"w": str(w), "h0": got[0], "h1": got[1],
                        "dr0": 0, "dr1": 0, "ok": bool(got == (0, 0))})
    return entries
