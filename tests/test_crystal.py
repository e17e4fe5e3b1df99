"""Crystalline period models: filtrations, kappa, lift splittings, unfolding."""

import inspect
import random
from fractions import Fraction
from itertools import product

import pytest

from hodgelab import cli, crystal
from hodgelab.crystal import (
    CrysAlgebra, NotALift, SemiperfectModel, TruncationOverflow,
    TruncationTooSmall, acrys_mod, conj_fil, di_splitting, gr_conj_basis,
    hodge_fil, kappa, kappa_scalar, nygaard, unfold_derham, verify_kappa_iso,
)
from hodgelab.derham import CAComplex
from hodgelab.exactlin import CompositionNonzero, IntMat, fp_kernel, fp_rref
from hodgelab.utils import PROPERTY_SEEDS

# x^{1/2} in the default point model: 4 units of 1/8 at depth 3
HALF = 4


def point_model(p, depth=3, w_max=8):
    """F_p[x^{1/p^inf}]/(x), the divided-power point."""
    return SemiperfectModel(p, 1, [("var", 0)], depth=depth, w_max=w_max)


def glued_model(p=2, depth=2, w_max=6):
    """F_p[x^{1/p^inf}, y^{1/p^inf}]/(x - y)."""
    return SemiperfectModel(p, 2, [("diff", 0, 1)], depth=depth, w_max=w_max)


def test_envelope_basis_low_weights():
    A = acrys_mod(point_model(2), 2)
    keys = []
    for num in range(1, 5):
        keys += A.strand_basis(Fraction(num, 2))
    assert ((HALF,), (0,)) in keys          # x^{1/2}
    assert ((Fraction(0),), (1,)) in keys   # x itself
    assert ((Fraction(0),), (2,)) in keys   # gamma_2(x)
    # no key carries an exponent >= 1: absorbed into divided powers
    assert all(k[0][0] < A.ctx.q for k in keys)


def test_theta_kills_exactly_divided_powers():
    A = acrys_mod(point_model(2), 2)
    g2 = A.ctx.monomial((Fraction(0),), (2,))
    assert not A.theta(g2).terms
    half = A.ctx.monomial((HALF,), (0,))
    assert A.theta(half).terms
    # kernel of theta on each strand = span of pd-positive keys
    for num in range(1, 9):
        w = Fraction(num, 2)
        keys = A.strand_basis(w)
        theta = A.theta_matrix(w)
        assert theta.shape == (len(A.s_basis(w)), len(keys))
        live = {c for (_, c), v in theta.entries.items() if v % 2}
        for j, k in enumerate(keys):
            assert (sum(k[1]) > 0) == (j not in live)


def test_hodge_filtration_chain_and_products():
    A = acrys_mod(point_model(3, w_max=9), 3)
    for w in range(1, 10):
        prev = None
        for r in range(4):
            cur = set(hodge_fil(A, r, w))
            assert cur <= set(A.strand_basis(w))
            if prev is not None:
                assert cur <= prev
            prev = cur
    # I^[a] * I^[b] lands in I^[a+b]
    g1 = A.ctx.monomial((Fraction(0),), (1,))
    g2 = A.ctx.monomial((Fraction(0),), (2,))
    prod = g1 * g2
    assert set(prod.terms) <= set(hodge_fil(A, 3, 3))


def test_conjugate_filtration_rises_and_exhausts():
    A = acrys_mod(point_model(2, w_max=6), 2)
    for w in range(1, 7):
        strand = set(A.strand_basis(w))
        chain = [set(conj_fil(A, r, w)) for r in range(4)]
        for lo, hi in zip(chain, chain[1:]):
            assert lo <= hi
        assert chain[-1] == strand
        grs = [set(gr_conj_basis(A, r, w)) for r in range(4)]
        assert set().union(*grs) == strand
        assert sum(len(g) for g in grs) == len(strand)


def test_conjugate_filtration_multiplicative():
    """Products of Fil_a and Fil_b strand keys stay in Fil_{a+b} mod p."""
    p = 2
    A = acrys_mod(point_model(p, w_max=8), p)
    rng = random.Random(PROPERTY_SEEDS["acrys"])
    pairs = 0
    for _ in range(60):
        wa, wb = rng.randrange(1, 5), rng.randrange(1, 4)
        ka = conj_fil(A, 1, wa)
        kb = conj_fil(A, 1, wb)
        if not ka or not kb:
            continue
        a = A.ctx.monomial(*rng.choice(ka))
        b = A.ctx.monomial(*rng.choice(kb))
        prod = a * b
        assert set(prod.terms) <= set(conj_fil(A, 2, wa + wb))
        pairs += 1
    assert pairs > 30


def test_frobenius_is_a_ring_map_both_moduli():
    S = point_model(2, w_max=6)
    rng = random.Random(PROPERTY_SEEDS["acrys"])

    def sample(A):
        el = A.ctx.zero()
        for num in range(1, 7):
            for key in A.strand_basis(Fraction(num, 2)):
                if rng.random() < 0.3:
                    el = el + A.ctx.monomial(*key) * rng.randrange(1, 4)
        return el

    for modulus in (2, 4):
        A = acrys_mod(S, modulus)
        for _ in range(8):
            a, b = sample(A), sample(A)
            assert not (A.frobenius(a * b)
                        - A.frobenius(a) * A.frobenius(b)).terms
            assert not (A.frobenius(a + b)
                        - A.frobenius(a) - A.frobenius(b)).terms


def test_kappa_scalars_are_p_adic_units():
    for p in (2, 3, 5):
        for k in range(1, 5):
            assert kappa_scalar(p, k) % p != 0


def test_kappa_grade_zero_is_frobenius():
    A = acrys_mod(point_model(2), 2)
    for num in (1, 2, 3):
        w = Fraction(num, 4)
        for key in A.s_basis(w):
            got = kappa(A, 0, {(key[0], ()): 1})
            want = A.frobenius(A.ctx.monomial(*key))
            assert not (got - want).terms


def test_kappa_grade_one_pinned_values():
    # kappa_1(s) = (p-1)! * s^[p] on the divided-power point
    A3 = acrys_mod(point_model(3, w_max=9), 3)
    out = kappa(A3, 1, {((Fraction(0),), (1,)): 1})
    assert dict(out.terms) == {((Fraction(0),), (3,)): 2}
    A2 = acrys_mod(point_model(2), 2)
    out = kappa(A2, 1, {((Fraction(0),), (1,)): 1})
    assert dict(out.terms) == {((Fraction(0),), (2,)): 1}


def test_kappa_rejects_mismatched_grade():
    A = acrys_mod(point_model(2), 2)
    with pytest.raises(ValueError):
        kappa(A, 2, {((Fraction(0),), (1,)): 1})


def test_kappa_iso_point_models():
    for p, w_max, r_max in ((2, 8, 1), (3, 18, 2)):
        entries = verify_kappa_iso(point_model(p, w_max=w_max), r_max)
        assert entries and all(e["ok"] for e in entries)
        assert {e["r"] for e in entries} == set(range(r_max + 1))


def test_kappa_iso_glued_model():
    entries = verify_kappa_iso(glued_model(), 1)
    assert entries and all(e["ok"] for e in entries)


def test_kappa_iso_rejects_a_non_unit_kappa_scalar(monkeypatch):
    # negative control: kappa_r with a scalar divisible by p is not
    # invertible mod p, so some strand of grade r >= 1 must fail
    S = cli._crystal_model(2, 2, 8, "point")
    assert all(e["ok"] for e in verify_kappa_iso(S, 1))
    true_scalar = crystal.kappa_scalar
    monkeypatch.setattr(crystal, "kappa_scalar", lambda p, k:
                        p * true_scalar(p, k) if k >= 1
                        else true_scalar(p, k))
    entries = verify_kappa_iso(S, 1)
    assert any(not e["ok"] for e in entries)
    assert all(e["ok"] for e in entries if e["r"] == 0)


def test_nygaard_one_reduces_to_the_pd_ideal():
    S = point_model(2, w_max=6)
    A2 = acrys_mod(S, 4)
    for num in (2, 3, 4, 5, 6):
        w = Fraction(num, 2)
        keys = A2.strand_basis(w)
        pos = {j for j, k in enumerate(keys) if sum(k[1]) >= 1}
        vecs = nygaard(A2, 1, w)
        assert len(vecs) == len(pos)
        for v in vecs:
            assert all(v[j] % 2 == 0 for j in range(len(keys))
                       if j not in pos)


def test_nygaard_two_inside_second_pd_power():
    A2 = acrys_mod(point_model(2, w_max=6), 4)
    for w in (2, 3, 4):
        keys = A2.strand_basis(w)
        deep = {j for j, k in enumerate(keys) if sum(k[1]) >= 2}
        for v in nygaard(A2, 2, w):
            assert all(v[j] % 2 == 0 for j in range(len(keys))
                       if j not in deep)


def test_nygaard_is_multiplicative_through_frobenius():
    """u, v in N^{>=1} forces phi(uv) = 0 mod p^2."""
    A2 = acrys_mod(point_model(2, w_max=6), 4)
    for wu, wv in ((1, 1), (1, 2), (2, 2)):
        for vu in nygaard(A2, 1, wu):
            for vv in nygaard(A2, 1, wv):
                u = _from_vector(A2, wu, vu)
                v = _from_vector(A2, wv, vv)
                img = A2.frobenius(u * v)
                assert all(int(c) % 4 == 0 for c in img.terms.values())


def _fp_span(vectors, n, p):
    rref, piv = fp_rref(IntMat.from_columns(vectors, n).transpose(), p)
    return rref.to_rows()[:len(piv)]


def test_kernel_mod_image_matches_brute_force():
    # {v : mat v == 0 mod q} mod p, against every v in (Z/q)^n; the mod-p
    # image is often smaller than the kernel of mat mod p, as for [[p]]
    rng = random.Random(PROPERTY_SEEDS["snf"])
    cases = [([[2]], 4, 2), ([[3, 0]], 9, 3)]
    for _ in range(30):
        q, p = rng.choice(((4, 2), (9, 3), (25, 5)))
        m, n = rng.randint(1, 3), rng.randint(1, 4 if q < 25 else 3)
        cases.append(([[rng.randint(-q, q) for _ in range(n)]
                       for _ in range(m)], q, p))
    smaller = 0
    for rows, q, p in cases:
        n = len(rows[0])
        got = crystal._kernel_mod_image(IntMat.from_rows(rows), q, p)
        seen = {tuple(x % p for x in v) for v in product(range(q), repeat=n)
                if all(sum(a * x for a, x in zip(row, v)) % q == 0
                       for row in rows)}
        assert len(_fp_span(got, n, p)) == len(got), (rows, q)
        assert _fp_span(got, n, p) == _fp_span(sorted(seen), n, p), (rows, q)
        smaller += len(got) < len(fp_kernel(IntMat.from_rows(rows), p))
    assert smaller >= 3


def _from_vector(A, w, vec):
    el = A.ctx.zero()
    for key, c in zip(A.strand_basis(w), vec):
        el = el + A.ctx.monomial(*key) * int(c)
    return el


def test_frobenius_and_the_splitting_leave_their_cached_generators_alone():
    # sums run in place, so a cached element must never be a left
    # operand: after Frobenius and the splitting have used them, phi of
    # each divided generator and the splitting's phi_1 generators equal
    # a fresh computation
    S = glued_model(p=3)
    A = acrys_mod(S, 9)
    for num in range(1, 2 * 9 + 1):
        for key in A.strand_basis(Fraction(num, 9)):
            A.frobenius(A.ctx.monomial(*key) + A.ctx.one())
    assert A._phi_gen_cache
    fresh = acrys_mod(S, 9)
    for (j, k), el in A._phi_gen_cache.items():
        assert el.terms == fresh._phi_pd_gen(j, k).terms
    f, entries = di_splitting(S)
    assert all(e["ok"] for e in entries)
    z = Fraction(0)
    f({((z, z), (1,)): 1, ((z, z), (0,)): 1})
    (phi1,) = inspect.getclosurevars(f).nonlocals["phi1_gen"]
    img = fresh._phi_pd_gen(0, 1)
    assert phi1.terms == {key: c // 3 for key, c in img.terms.items()}


def test_coface23_leaves_its_cached_images_of_s_alone():
    ca = CAComplex(3, 6, depth=1)
    for num in range(0, 6 * 3 + 1):
        for key in ca.d2.strand_basis(Fraction(num, 3)):
            ca.delta2(ca.d2.monomial(*key) + ca.d2.one())
    assert any(keep == (0, 2) and k > 1 for keep, k in ca._s_images)
    fresh = CAComplex(3, 6, depth=1)
    for (keep, k), el in ca._s_images.items():
        assert el.terms == fresh._image_of_s(keep, k).terms


def test_lift_splitting_point_models():
    for p, w_max in ((2, 8), (3, 18)):
        S = point_model(p, w_max=w_max)
        f, entries = di_splitting(S)
        assert all(e["ok"] for e in entries)
        # the section hits (p-1)! s^[p] on the degree-one generator
        img = f({((Fraction(0),), (1,)): 1})
        scal = 1 if p == 2 else 2
        assert dict(img.terms) == {((Fraction(0),), (p,)): scal}


def test_lift_splitting_glued_model():
    S = glued_model()
    f, entries = di_splitting(S)
    assert all(e["ok"] for e in entries)
    z = Fraction(0)
    img = f({((z, z), (1,)): 1})
    # f(s) = s^[2] + (terms of lower conjugate stage)
    assert img.terms.get(((z, z), (2,))) == 1
    for key, c in img.terms.items():
        if key != ((z, z), (2,)):
            assert sum(key[1]) < 2


def test_lift_splitting_reports_phi_intertwine():
    S = point_model(2)
    _, entries = di_splitting(S)
    tags = [e for e in entries if e["r"] == "phi-intertwine"]
    assert len(tags) == 1 and tags[0]["ok"]


def test_lift_splitting_rejects_kappa_scaled_by_p(monkeypatch):
    # negative control: p * kappa vanishes mod p, so the splitting can no
    # longer agree with kappa on any graded piece it hits
    S = point_model(2)
    true_kappa = crystal.kappa
    monkeypatch.setattr(crystal, "kappa", lambda A, r, elt:
                        true_kappa(A, r, elt).scale(A.p))
    _, entries = di_splitting(S)
    assert any(not e["ok"] for e in entries)
    assert all(e["ok"] for e in entries if e["r"] == "phi-intertwine")


def test_lift_splitting_rejects_a_theta_missing_part_of_the_lift(
        monkeypatch):
    # negative control: with row 0 dropped theta_2 misses a key of S,
    # which every model has at w = 1/p
    true_theta = CrysAlgebra.theta_matrix

    def theta_matrix(self, w):
        mat = true_theta(self, w)
        return IntMat(mat.nrows, mat.ncols, {
            (i, j): c for (i, j), c in mat.entries.items() if i})

    monkeypatch.setattr(CrysAlgebra, "theta_matrix", theta_matrix)
    for S in (point_model(2), point_model(3, w_max=9), glued_model()):
        with pytest.raises(NotALift):
            di_splitting(S)


def test_lift_splitting_rejects_grades_past_p_minus_one():
    with pytest.raises(TruncationOverflow):
        di_splitting(point_model(2), r_max=2)


def test_unfold_matches_de_rham_p2():
    entries = unfold_derham(2, 4)
    assert all(e["ok"] for e in entries)
    by_w = {e["w"]: (e["h0"], e["h1"]) for e in entries}
    assert by_w[0] == (1, 0)
    assert by_w[2] == (1, 1)
    assert by_w[4] == (1, 1)
    assert by_w[1] == (0, 0) and by_w[3] == (0, 0)
    # fractional strands carry nothing
    assert by_w["1/2"] == (0, 0) and by_w["3/2"] == (0, 0)


def test_unfold_matches_de_rham_p3():
    entries = unfold_derham(3, 9, depth=2)
    assert all(e["ok"] for e in entries)
    by_w = {e["w"]: (e["h0"], e["h1"]) for e in entries}
    for w in (3, 6, 9):
        assert by_w[w] == (1, 1)
    for w in (1, 2, 4, 5, 7, 8):
        assert by_w[w] == (0, 0)


def test_unfold_rejects_a_dropped_coface(monkeypatch):
    # negative control: without the third coface the unfolding is no
    # longer a complex, and the d∘d check must refuse it
    true_coface = CAComplex.coface23
    monkeypatch.setattr(CAComplex, "coface23", lambda ca, el, which:
                        ca.d3.zero() if which == 2
                        else true_coface(ca, el, which))
    with pytest.raises(CompositionNonzero):
        unfold_derham(2, 4)


def test_unfold_guards():
    with pytest.raises(TruncationTooSmall):
        unfold_derham(2, 8, depth=1)
    with pytest.raises(TruncationTooSmall):
        unfold_derham(2, 1)


def test_model_validation():
    with pytest.raises(ValueError):
        SemiperfectModel(4, 1, [("var", 0)], depth=2, w_max=4)
    with pytest.raises(ValueError):
        SemiperfectModel(2, 1, [("var", 0)], depth=0, w_max=4)
    with pytest.raises(ValueError):
        acrys_mod(point_model(2), 8)
