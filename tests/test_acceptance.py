"""End-to-end verification gate: one test per headline claim.

Each test runs a full window with exact arithmetic: the integral and
mod-p censuses for G_a, the Bockstein structure, the Cartier
isomorphism, the kappa-map and lift splitting, the Cech-Alexander
comparison, quasisyntomic unfolding, stack degeneration verdicts,
torsion growth, and the seeded property suites behind them.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from math import comb

from hodgelab import cobar, derham
from hodgelab.cobar import (
    bockstein, class_is_zero, classes_equal, cup, group_cohomology,
    group_table, hilbert_dims_f2, hilbert_dims_odd, is_scalar_multiple,
    torsion_census, torsion_class, v_one, w_class,
)
from hodgelab.crystal import (
    SemiperfectModel, di_splitting, unfold_derham, verify_kappa_iso,
)
from hodgelab.derham import (
    DgaForms, cartier_multiplicativity, cech_alexander_compare,
    verify_cartier_iso,
)
from hodgelab.exactlin import (
    IntMat, fp_rank_sparse, kernel_basis, smith_normal_form, snf_diagonal,
)
from hodgelab.gralg import FP, PDContext
from hodgelab.specseq import FilteredComplex, cohomology_dims, pages
from hodgelab.stacks import (
    BGa, BGm, GradedAffine, cartan_model_dims, derham_cohomology, hdr_report,
    verify_cartan_homotopy,
)
from hodgelab.utils import PROPERTY_SEEDS


@lru_cache(maxsize=None)
def _zz(n, w):
    return group_cohomology(n, w)


def _squarefree(m):
    return all(m % (q * q) for q in range(2, int(m ** 0.5) + 1))


def _prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        if all(q % d for d in range(2, q)):
            k = q
            while k <= limit:
                out.append((q, k))
                k *= q
    return sorted(out, key=lambda t: t[1])


def test_integral_cohomology_census():
    # n <= 3, w <= 54 over Z: free part only in H^0 and H^1, elementary
    # torsion everywhere, a Z/q summand at every weight 2q^i <= 54
    start = time.monotonic()
    for w in range(55):
        g = _zz(0, w)
        assert (g.rank, g.torsion) == ((1, ()) if w == 0 else (0, ()))
        g = _zz(1, w)
        assert (g.rank, g.torsion) == ((1, ()) if w == 2 else (0, ()))
    for n in (2, 3):
        for w in range(55):
            g = _zz(n, w)
            assert g.rank == 0, (n, w)
            assert all(_squarefree(t) for t in g.torsion), (n, w)
    for q, qi in _prime_powers(27):
        assert _zz(2, 2 * qi).torsion_count(q) >= 1, (q, qi)
    v1 = v_one()
    assert classes_equal(cup(v1, v1), torsion_class(2, 1))
    assert time.monotonic() - start < 600


def _torsion_drops(n, w, group, ells):
    # universal coefficients on d_in = d^(n-1)_w: H^n has one Z/l^k
    # summand for each unit of rank that d_in loses mod l
    d_in = cobar.strand_matrix(n - 1, w)
    rank_q = d_in.ncols - kernel_basis(d_in).ncols
    for ell in ells:
        drop = rank_q - fp_rank_sparse(d_in.entries, ell)
        assert group.torsion_count(ell) == drop, (n, w, ell)


def test_integral_census_past_the_smith_wall():
    # integral H^4 for w <= 40 and H^5 for w <= 26, read from the
    # certified-rank tables: rank 0, squarefree torsion, and on the
    # deepest strands a Z/l summand exactly where the rank of d_in drops
    # mod l; past the dense determinant's old wall, the single strands
    # H^4_50 and H^5_34 are Z/2, checked the same way at l = 2 and 3
    start = time.monotonic()
    tables = {n: group_table(n, wmax) for n, wmax in ((4, 40), (5, 26))}
    for n, wmax in ((4, 40), (5, 26)):
        for w in range(wmax + 1):
            g = tables[n][n, w]
            assert g.rank == 0, (n, w)
            assert all(_squarefree(t) for t in g.torsion), (n, w)
    for n, w in ((4, 30), (4, 32), (4, 34), (4, 36), (4, 38), (4, 40),
                 (5, 22), (5, 24), (5, 26)):
        _torsion_drops(n, w, tables[n][n, w],
                       [q for q, qi in _prime_powers(w // 2 + 3) if q == qi])
    for n, w in ((4, 50), (5, 34)):
        g = group_cohomology(n, w)
        assert str(g) == "Z/2", (n, w)
        _torsion_drops(n, w, g, (2, 3))
    assert time.monotonic() - start < 60


def test_mod_p_hilbert_series():
    for p, wmax, dims in ((2, 32, hilbert_dims_f2(4, 32)),
                          (3, 24, hilbert_dims_odd(3, 4, 24))):
        for n in range(5):
            for w in range(wmax + 1):
                got = group_cohomology(n, w, ring=FP(p))
                assert got == dims.get((n, w), 0), (p, n, w)
        # universal coefficients against the integral census; the Tor
        # term in degree 3 needs integral H^4, kept to w <= 24 where
        # the exact Smith reduction stays cheap
        for n in range(4):
            top = wmax if n < 3 else min(wmax, 24)
            for w in range(top + 1):
                want = (_zz(n, w).rank + _zz(n, w).torsion_count(p)
                        + _zz(n + 1, w).torsion_count(p))
                assert dims.get((n, w), 0) == want, (p, n, w)


def test_bockstein_relations():
    b2 = bockstein(2, w_class(2, 1))
    assert b2.cocycle == {(1, 1): 1}
    assert classes_equal(b2, cup(w_class(2, 0), w_class(2, 0)))
    vbar3 = cobar.CohClass(2, 6, {k: v % 3 for k, v in
                                  torsion_class(3, 1).cocycle.items()},
                           FP(3))
    scal = is_scalar_multiple(bockstein(3, w_class(3, 1)), vbar3, 3)
    assert scal in (1, 2)
    for p in (2, 3):
        assert bockstein(p, w_class(p, 0)).cocycle == {}
        for cls in (w_class(p, 0), w_class(p, 1), w_class(p, 2)):
            assert class_is_zero(bockstein(p, bockstein(p, cls)))


def test_cartier_isomorphism():
    windows = ((2, 1, 8), (2, 2, 8), (3, 1, 12), (3, 2, 12), (5, 1, 20))
    for p, nvars, wmax in windows:
        entries = verify_cartier_iso(p, nvars, wmax)
        assert entries and all(e["ok"] for e in entries), (p, nvars)
        fails = cartier_multiplicativity(p, nvars, wmax, pairs=100,
                                         seed=PROPERTY_SEEDS["cartier_pairs"])
        assert fails == 0, (p, nvars)


def test_kappa_isomorphism():
    for p, wmax in ((2, 8), (3, 18)):
        s = SemiperfectModel(p, 1, [("var", 0)], depth=3, w_max=wmax)
        entries = verify_kappa_iso(s, p - 1)
        assert entries and all(e["ok"] for e in entries), p
        assert {e["r"] for e in entries} == set(range(p))
    glued = SemiperfectModel(2, 2, [("diff", 0, 1)], depth=2, w_max=6)
    entries = verify_kappa_iso(glued, 1)
    assert entries and all(e["ok"] for e in entries)


def test_lift_splitting():
    for p, wmax in ((2, 8), (3, 18)):
        s = SemiperfectModel(p, 1, [("var", 0)], depth=3, w_max=wmax)
        f, entries = di_splitting(s)
        assert entries and all(e["ok"] for e in entries), p
        assert sum(1 for e in entries if e["r"] == "phi-intertwine") == 1
        # on the degree-one generator the section hits (p-1)! s^[p],
        # with no lower-stage correction for the point model
        img = f({((Fraction(0),), (1,)): 1})
        scal = 1 if p == 2 else 2
        assert dict(img.terms) == {((Fraction(0),), (p,)): scal}


def test_cech_alexander_comparison():
    for p in (2, 3, 5):
        entries = cech_alexander_compare(p, 2 * p)
        assert all(e["ok"] for e in entries), p
        ids = [e["id"] for e in entries]
        assert ids.count("dx-to-x1-minus-x2") == 1
        assert ids.count("xp-1dx-to-divided-a") == 1
        assert ids.count("tot-vs-derham") == 2 * p + 1


def test_quasisyntomic_unfolding():
    for p, depth in ((2, 3), (3, 2)):
        entries = unfold_derham(p, p * p, depth=depth)
        assert entries and all(e["ok"] for e in entries), p
        assert set(range(p * p + 1)) <= {e["w"] for e in entries}


def test_degeneration_verdicts():
    for stack in (BGm(), GradedAffine((1,))):
        rep = hdr_report(stack, 4)
        assert rep["degenerate"] and not rep["failures"], stack
        assert rep["e1_totals"] == [1, 0, 1, 0, 1]
        assert rep["derham"] == [1, 0, 1, 0, 1]
        assert rep["specseq"]["degenerate"]
    rep = hdr_report(BGa(), 2)
    assert not rep["degenerate"]
    assert not rep["specseq"]["degenerate"]
    assert rep["derham"][1] == 0
    assert 1 in rep["failures"]
    arrows = [a for a in rep["located_d1"] if a["source"] == (0, 1)]
    assert len(arrows) == 1
    assert arrows[0]["target"] == (1, 1)
    assert arrows[0]["rank"] == 1
    assert arrows[0]["source_dim"] + arrows[0]["target_dim"] == 2


def test_mixed_sign_quotients_read_bgm():
    # [A^2 / G_m] with weights of both signs retracts G_m-equivariantly
    # to the origin, so de Rham cohomology is Q[u] on both routes
    for weights in ((1, -1), (1, -2), (2, -3)):
        stack = GradedAffine(weights)
        assert derham_cohomology(stack, 4) == [1, 0, 1, 0, 1], weights
        assert cartan_model_dims(stack, 4) == [1, 0, 1, 0, 1], weights


def test_torsion_growth_census():
    data = torsion_census(2, 2, 32)
    counts = {w: g.torsion_count(2) for w, g in data}
    weights = sorted(w for w, c in counts.items() if c)
    assert len(weights) >= 4
    assert set(weights) >= {4, 8, 16, 32}
    totals = [sum(c for w, c in counts.items() if w <= x)
              for x in (4, 8, 16, 32)]
    assert all(a < b for a, b in zip(totals, totals[1:]))


def test_property_suites(minor_divisors):
    # Smith form: the minors oracle, divisibility, basis-change invariance
    rng = random.Random(PROPERTY_SEEDS["snf"])
    for _ in range(40):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        m = IntMat.from_rows(rows)
        d = smith_normal_form(m)
        diag = d.diagonal()
        assert diag == minor_divisors(rows)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))
        if r >= 2:
            i, k = rng.randrange(r), rng.randrange(r)
            if i != k:
                rows2 = [list(x) for x in rows]
                rows2[i] = [a + 3 * b for a, b in zip(rows2[i], rows2[k])]
                assert snf_diagonal(IntMat.from_rows(rows2)) == \
                    snf_diagonal(m)

    # divided-power product rule
    p = rng.choice([3, 5, 7])
    ctx = PDContext(FP(p), 1, [("var", 0)])
    for a in range(4):
        for b in range(4):
            assert ctx.pd_gen(0, a) * ctx.pd_gen(0, b) == \
                ctx.pd_gen(0, a + b).scale(comb(a + b, a) % p)

    # d^2 = 0 on sampled strands of both complexes
    rng2 = random.Random(PROPERTY_SEEDS["derham_forms"])
    for _ in range(10):
        n, w = rng2.randint(0, 2), rng2.randint(0, 14)
        assert cobar.strand_matrix(n + 1, w).matmul(
            cobar.strand_matrix(n, w)).is_zero()
    forms = DgaForms(FP(3), [("x", 1), ("y", 2)])
    for w in range(1, 8):
        assert forms.strand_matrix(1, w).matmul(
            forms.strand_matrix(0, w)).is_zero()

    # pages shrink and the stable page sums to cohomology
    rng3 = random.Random(PROPERTY_SEEDS["specseq"])
    for _ in range(6):
        p = rng3.choice([2, 3])
        w = rng3.randint(1, 9)
        d0 = DgaForms(FP(p), [("x", 1)]).strand_matrix(0, w)
        fc = FilteredComplex(FP(p), [[0] * d0.ncols, [1] * d0.nrows], [d0])
        pgs = pages(fc, 3)
        for r in range(len(pgs) - 1):
            for key, val in pgs[r + 1].entries.items():
                assert val <= pgs[r].entries.get(key, 0)
        h = cohomology_dims(fc)
        assert [pgs[-1].total(n) for n in range(fc.top + 1)] == h

    # Euler-contraction homotopy as an exact matrix identity
    ent = verify_cartan_homotopy(GradedAffine((1, 2)),
                                 seed=PROPERTY_SEEDS["cartan"])
    assert ent and all(e["ok"] for e in ent)
    assert sum(e["dim"] for e in ent) > 0
