"""Weight-strand cohomology of the additive group scheme.

The standard complex of G_a has C^n = Z[x_1..x_n] (normalized: monomials
divisible by every variable) with the inhomogeneous differential

    d(f)(x_1..x_{n+1}) = f(x_2..x_{n+1})
                         + sum_i (-1)^i f(x_1,..,x_i+x_{i+1},..,x_{n+1})
                         + (-1)^{n+1} f(x_1..x_n).

Each variable has weight 2, so the complex splits into finite strands
indexed by (cohomological degree n, weight w).  This module computes the
strand cohomology over Z, Q and F_p, the distinguished classes v_1,
v_{p^i} = [d(x^{p^i})/p] and w_{p^i} = [x^{p^i} mod p], cup products by
concatenation, Bockstein operators, and the torsion census tables.

:func:`group_table` certifies the ranks of the maps of each strand from
lower weights, by this lemma.  For n >= 1 and every w,

    rank(d^n_w) >= sum over a >= 1 of rank(d^(n-1)_(w-2a)),

over Q and mod p alike.  Proof: order the monomials of C^n_w
lexicographically and let a be the first exponent.  d only splits one
exponent, so every term of d(e) has first exponent <= e_1, and d^n_w is
block lower-triangular in a: the block from first exponent a to first
exponent b vanishes unless b <= a.  The terms that keep e_1 = a come from
splitting e_2..e_n; their signs shift by one, so the a-th diagonal block
is exactly -d^(n-1)_(w-2a) on the tails.  The union of nonsingular
minors of the diagonal blocks is a nonsingular block-triangular minor,
whence the bound.  d^n o d^(n-1) = 0, which is checked, gives
r_(n-1) + r_n <= dim C^n; where the lower bounds meet that upper bound,
both ranks are exact, with no rank elimination at all.

Corollary: the Smith modulus.  Where the bound is the rank r of d^n_w,
every union of r_a x r_a minors of the diagonal blocks, r_a the rank of
d^(n-1)_(w-2a), is an r x r minor of d^n_w, and block triangular, so
its determinant is the product of theirs.  The gcd of those
determinants is the product over a of the gcd of the r_a x r_a minors
of d^(n-1)_(w-2a), the product of its invariant factors: the torsion
order of H^n_(w-2a).  So s_1...s_r of d^n_w divides the product of the
torsion orders of H^n at the lower weights, and the Smith form of
d^n_w takes that product as its modulus with no determinant of its
own.  d^1_w has one column, whose gcd is its one invariant factor.
"""

from __future__ import annotations

from math import comb, gcd, prod

from .exactlin import IntMat, complex_cohomology, fp_solve, snf_diagonal
from .gralg import FP, QQ_R, ZZ

__all__ = [
    "NotACocycle", "LiftNotExact", "CohClass",
    "strand_basis", "strand_matrix", "group_cohomology", "group_table",
    "phi_class", "torsion_class", "cup", "bockstein", "torsion_census",
    "class_is_zero", "classes_equal", "hilbert_dims_f2", "hilbert_dims_odd",
    "apply_d",
]


class NotACocycle(Exception):
    pass


class LiftNotExact(Exception):
    """d(integral lift) is not divisible by p: the input was no cocycle."""


def strand_basis(n, w):
    """Lexicographically ordered monomials of C^n of weight w.

    Monomials are exponent tuples (e_1..e_n), all e_i >= 1, sum = w/2.
    """
    if w < 0 or w % 2:
        return []
    m = w // 2
    if n == 0:
        return [()] if m == 0 else []
    if m < n:
        return []

    out = []

    def rec(prefix, left, slots):
        if slots == 1:
            out.append(prefix + (left,))
            return
        for e in range(1, left - slots + 2):
            rec(prefix + (e,), left - e, slots - 1)

    rec((), m, n)
    del rec  # rec holds itself through its closure cell: free that cycle
    out.sort()
    return out


def _split_terms(exps):
    # d on one strand monomial by the normalized formula, sum over i of
    # (-1)^i sum over 0 < c < e_i of C(e_i, c) (e_i split at c): the
    # terms of the inhomogeneous formula above on degenerate monomials
    # cancel in pairs (split i at e_i against split i + 1 at 0, the
    # first face against split 1 at 0 and the last against split n at
    # e_n), and no two splits give the same monomial
    terms = {}
    for i, e in enumerate(exps, 1):
        sign = -1 if i % 2 else 1
        head, tail = exps[: i - 1], exps[i:]
        for c in range(1, e):
            terms[head + (c, e - c) + tail] = sign * comb(e, c)
    return terms


def strand_matrix(n, w):
    """The differential C^n_w -> C^{n+1}_w as an integer matrix.

    Built from the normalized formula; a term on a monomial outside the
    target basis raises.
    """
    return IntMat.from_images(strand_basis(n, w), strand_basis(n + 1, w),
                              _split_terms)


def apply_d(n, w, cochain):
    """Apply the differential to an integer cochain {monomial: coeff}.

    The monomials are strand monomials (every exponent >= 1), and d on
    each is the normalized formula that :func:`strand_matrix` reads.
    """
    out = {}
    for exps, c in cochain.items():
        for key, dc in _split_terms(exps).items():
            ZZ.add_to(out, key, c * dc)
    return out


def group_cohomology(n, w, ring=ZZ):
    """H^n(G_a)_w: an AbGroup over Z, a dimension over Q or F_p."""
    d_out = strand_matrix(n, w)
    d_in = (strand_matrix(n - 1, w) if n >= 1
            else IntMat.zeros(d_out.ncols, 0))
    return complex_cohomology([d_in.ncols, d_out.ncols], [d_in, d_out],
                              ring)[1]


def group_table(n_max, w_max):
    """{(n, w): H^n(G_a, Z)_w} for every n <= n_max and w <= w_max.

    Weights go up in order, and each strand's complex C^0_w -> ... ->
    C^(n_max+1)_w is built once and read in every degree by
    :func:`complex_cohomology`.  The rank of each map of degree k >= 2
    is bounded below by the lemma above, from the ranks of d^(k-1) at
    lower weights, once :func:`_block_lower_bound` has checked the block
    shape against the kept lower-weight matrices.  Those ranks come from
    the rows: r_n = dim C^n - r_(n-1) - rank H^n.  Only the matrices of
    degree < n_max are kept.  The same check gives each map's Smith
    modulus by the corollary above, from the torsion of the table's
    lower weights; :func:`complex_cohomology` takes it where the bound
    is the certified rank.

    >>> group_table(2, 6)[2, 6]
    AbGroup(rank=0, torsion=(3,))
    """
    table, kept, ranks = {}, {}, {}
    for w in range(w_max + 1):
        mats = [strand_matrix(n, w) for n in range(n_max + 1)]
        lower, moduli = [None] * (n_max + 1), [None] * (n_max + 1)
        if n_max >= 1 and not mats[1].is_zero():
            lower[1], moduli[1] = 1, gcd(*mats[1].entries.values())
        for k in range(2, n_max + 1):
            lower[k] = _block_lower_bound(mats[k], k, w, kept, ranks)
            if lower[k] is not None:
                moduli[k] = _block_modulus(table, k, w)
        row = complex_cohomology([m.ncols for m in mats], mats, ZZ, lower,
                                 moduli)
        r = 0
        for n, g in enumerate(row):
            table[n, w] = g
            if n < n_max:
                r = mats[n].ncols - r - g.rank
                ranks[n, w] = r
                kept[n, w] = mats[n]
    return table


def _block_lower_bound(mat, k, w, kept, ranks):
    # sum over a >= 1 of rank(d^(k-1)_(w-2a)), the lemma's lower bound on
    # the rank of mat = d^k_w, or None unless mat is block triangular
    # with diagonal blocks exactly -d^(k-1)_(w-2a), checked entry by
    # entry against kept[k - 1, w - 2a]
    blocks = [kept[k - 1, w - 2 * a] for a in range(1, w // 2 + 1)]
    col_block, row_block, col_off, row_off = [], [], [], []
    for a, blk in enumerate(blocks):
        col_off.append(len(col_block))
        row_off.append(len(row_block))
        col_block += [a] * blk.ncols
        row_block += [a] * blk.nrows
    if (len(row_block), len(col_block)) != mat.shape:
        return None
    on_diagonal = 0
    for (i, j), v in mat.entries.items():
        a, b = col_block[j], row_block[i]
        if b > a:
            return None
        if b == a:
            if blocks[a].entries.get((i - row_off[a], j - col_off[a])) != -v:
                return None
            on_diagonal += 1
    if on_diagonal != sum(len(blk.entries) for blk in blocks):
        return None
    return sum(ranks[k - 1, w - 2 * a] for a in range(1, w // 2 + 1))


def _block_modulus(table, k, w):
    # the corollary's multiple of s_1...s_r for d^k_w at the lemma's
    # bound: the product over a >= 1 of the torsion order of H^k_(w-2a)
    return prod(prod(table[k, w - 2 * a].torsion)
                for a in range(1, w // 2 + 1))


class CohClass:
    """A cocycle representative in one strand.

    cocycle maps strand-basis monomials to coefficients (ints; classes
    over F_p keep representatives in 0..p-1).
    """

    __slots__ = ("cohdeg", "weight", "cocycle", "ring")

    def __init__(self, cohdeg, weight, cocycle, ring=ZZ, check=True):
        self.cohdeg = cohdeg
        self.weight = weight
        self.cocycle = {k: v for k, v in cocycle.items() if v}
        self.ring = ring
        if check and not self._is_cocycle():
            raise NotACocycle("d(cochain) != 0 in strand (%d, %d)"
                              % (cohdeg, weight))

    def _is_cocycle(self):
        img = apply_d(self.cohdeg, self.weight, self.cocycle)
        if self.ring is ZZ or self.ring is QQ_R:
            return not img
        p = self.ring.p
        return all(v % p == 0 for v in img.values())

    def vector(self):
        basis = strand_basis(self.cohdeg, self.weight)
        return [self.cocycle.get(m, 0) for m in basis]

    def scale(self, c):
        return CohClass(self.cohdeg, self.weight,
                        {k: self.ring.normalize(v * c)
                         for k, v in self.cocycle.items()},
                        self.ring, check=False)

    def __repr__(self):
        return "CohClass(n=%d, w=%d, %r over %s)" % (
            self.cohdeg, self.weight, self.cocycle, self.ring)


def phi_class(n):
    """The coboundary d_1(x^n) as a cochain dict in C^2 of weight 2n."""
    if n < 1:
        raise ValueError("n >= 1")
    return apply_d(1, 2 * n, {(n,): 1})


def torsion_class(p, i):
    """v_{p^i} = [d(x^{p^i})/p], a nonzero p-torsion class in H^2."""
    q = p ** i
    phi = phi_class(q)
    cocycle = {}
    for k, c in phi.items():
        if c % p:
            raise LiftNotExact("d(x^%d) not divisible by %d" % (q, p))
        cocycle[k] = c // p
    return CohClass(2, 2 * q, cocycle, ZZ)


def v_one():
    return CohClass(1, 2, {(1,): 1}, ZZ)


def w_class(p, i):
    """w_{p^i} = [x^{p^i}] over F_p, a degree-1 mod-p cocycle."""
    return CohClass(1, 2 * p ** i, {(p ** i,): 1}, FP(p))


def cup(a, b):
    """Concatenation product of cocycles; lands in the sum bidegree."""
    if a.ring is not b.ring:
        raise ValueError("cup needs matching coefficient rings")
    ring = a.ring
    out = {}
    for e1, c1 in a.cocycle.items():
        for e2, c2 in b.cocycle.items():
            ring.add_to(out, e1 + e2, c1 * c2)
    cl = CohClass(a.cohdeg + b.cohdeg, a.weight + b.weight, out, ring,
                  check=False)
    if not cl._is_cocycle():
        raise NotACocycle("cup of non-cocycles")
    return cl


def bockstein(p, a):
    """Bockstein of an F_p class: lift to Z, apply d, divide by p, reduce."""
    if a.ring is not FP(p):
        raise ValueError("bockstein expects an F_%d class" % p)
    lift = {k: int(v) % p for k, v in a.cocycle.items()}
    img = apply_d(a.cohdeg, a.weight, lift)
    out = {}
    for k, c in img.items():
        if c % p:
            raise LiftNotExact("input was not an F_%d cocycle" % p)
        if (c // p) % p:
            out[k] = (c // p) % p
    return CohClass(a.cohdeg + 1, a.weight, out, FP(p))


def class_is_zero(cl):
    """Is the class a coboundary (exactly over Z, mod p over F_p)?

    Over Z, b lies in im(A) exactly when A and [A | b] have invariant
    factors of the same count and the same product: Z^m/im A maps onto
    Z^m/im [A | b], and an onto map between finitely generated abelian
    groups of equal rank and equal torsion order is an isomorphism.
    """
    d_in = strand_matrix(cl.cohdeg - 1, cl.weight)
    vec = cl.vector()
    if cl.ring is ZZ:
        before = snf_diagonal(d_in)
        after = snf_diagonal(IntMat.from_columns(d_in.columns() + [vec],
                                                 d_in.nrows))
        return len(before) == len(after) and prod(before) == prod(after)
    return fp_solve(d_in, vec, cl.ring.p) is not None


def classes_equal(a, b):
    if (a.cohdeg, a.weight, a.ring) != (b.cohdeg, b.weight, b.ring):
        return False
    diff = dict(a.cocycle)
    for k, v in b.cocycle.items():
        a.ring.add_to(diff, k, -v)
    return class_is_zero(CohClass(a.cohdeg, a.weight, diff, a.ring,
                                  check=False))


def is_scalar_multiple(a, b, p):
    """Does [a] = c[b] hold for some nonzero c in F_p?"""
    for c in range(1, p):
        if classes_equal(a, b.scale(c)):
            return c
    return None


def torsion_census(p, n, w_max):
    """[(w, H^n(G_a, Z)_w)] for even w <= w_max, with Z/p counts downstream.

    The number of Z/p summands in a strand group g is g.torsion_count(p).
    """
    return [(w, group_cohomology(n, w, ZZ)) for w in range(0, w_max + 1, 2)]


# -- dimension oracles -------------------------------------------------------


def hilbert_dims_f2(n_max, w_max):
    """dim table of F_2[w_1, w_2, w_4, ...], generator w_{2^i} in (1, 2^{i+1}).

    Returns {(n, w): dim} for n <= n_max, w <= w_max.
    """
    gens = []
    q = 1
    while 2 * q <= w_max:
        gens.append((1, 2 * q))
        q *= 2
    return _poly_algebra_dims(gens, [], n_max, w_max)


def hilbert_dims_odd(p, n_max, w_max):
    """dim table of Lambda(w_{p^i}: i>=0) tensor Sym(v_{p^i}: i>=1).

    w_{p^i} sits in bidegree (1, 2p^i); v_{p^i} in (2, 2p^i).  Every
    generator whose weight fits the window is included (for p = 3,
    w <= 24 that means v_9 as well as v_3).
    """
    ext, sym = [], []
    q = 1
    while 2 * q <= w_max:
        ext.append((1, 2 * q))
        if q > 1:
            sym.append((2, 2 * q))
        q *= p
    return _poly_algebra_dims(sym, ext, n_max, w_max)


def _poly_algebra_dims(sym_gens, ext_gens, n_max, w_max):
    # unbounded-knapsack pass per symmetric generator, one-shot per
    # exterior generator
    table = {(0, 0): 1}
    for dn, dw in sym_gens:
        for n in range(n_max + 1):
            for w in range(w_max + 1):
                c = table.get((n, w))
                if c and n + dn <= n_max and w + dw <= w_max:
                    key = (n + dn, w + dw)
                    table[key] = table.get(key, 0) + c
    for dn, dw in ext_gens:
        new = dict(table)
        for (n, w), c in table.items():
            if n + dn <= n_max and w + dw <= w_max:
                key = (n + dn, w + dw)
                new[key] = new.get(key, 0) + c
        table = new
    return {k: v for k, v in table.items() if v}

