"""De Rham strands, Cartier, Cech-Alexander."""

import random

import pytest

from hodgelab.derham import (
    CAComplex, DgaForms, TruncationTooSmall, UnsupportedBase,
    cartier_inverse, cartier_multiplicativity, cech_alexander_compare,
    de_rham_cohomology, verify_cartier_iso, NotCharP,
)
from hodgelab import derham
from hodgelab.exactlin import (AbGroup, CompositionNonzero, IntMat,
                               complex_cohomology)
from hodgelab.gralg import FP, QQ_R, ZZ
from hodgelab.utils import PROPERTY_SEEDS


def poly_line(ring):
    return DgaForms(ring, [("x", 1)])


def test_affine_line_rational():
    base = poly_line(QQ_R)
    assert de_rham_cohomology(base, 0)[0] == 1
    for w in range(1, 8):
        assert de_rham_cohomology(base, w) == [0, 0]


def test_laurent_line_rational():
    base = DgaForms(QQ_R, [("x", 1, True)])
    assert de_rham_cohomology(base, 0) == [1, 1]  # H^1: the dlog class
    for w in (-3, -1, 1, 2, 5):
        assert de_rham_cohomology(base, w) == [0, 0]


def test_integral_line_torsion():
    base = poly_line(ZZ)
    # d(x^m) = m x^{m-1} dx, so H^1 in weight m is Z/m
    assert de_rham_cohomology(base, 4)[1] == AbGroup(0, (4,))
    assert de_rham_cohomology(base, 1)[1] == AbGroup(0, ())
    assert de_rham_cohomology(base, 0)[0] == AbGroup(1, ())


def test_char_p_line_strands():
    # dx carries the weight of x, so H^1 = span{x^{pk-1} dx} sits in
    # weights pk, k >= 1
    p = 3
    base = poly_line(FP(p))
    for w in range(0, 19):
        h0, h1 = de_rham_cohomology(base, w)
        assert h0 == (1 if w % p == 0 else 0)
        assert h1 == (1 if w % p == 0 and w > 0 else 0)


def test_kunneth_two_variables():
    p = 2
    line = poly_line(FP(p))
    plane = DgaForms(FP(p), [("x", 1), ("y", 1)])
    # a line's row [H^0, H^1], padded with its H^2 = 0
    rows = [de_rham_cohomology(line, u) + [0] for u in range(0, 9)]
    for n in range(0, 3):
        for w in range(0, 9):
            want = 0
            for i in range(0, n + 1):
                for u in range(0, w + 1):
                    want += rows[u][i] * rows[w - u][n - i]
            assert de_rham_cohomology(plane, w)[n] == want


def _per_degree(dga, n, w):
    """Oracle: H^n of the de Rham strand w from the two maps around
    degree n, each complex read at its own degree 1."""
    d_out = dga.strand_matrix(n, w)
    d_in = (dga.strand_matrix(n - 1, w) if n
            else IntMat.zeros(d_out.ncols, 0))
    return complex_cohomology([d_in.ncols, d_out.ncols], [d_in, d_out],
                              dga.ring)[1]


@pytest.mark.parametrize("ring", [ZZ, QQ_R, FP(2), FP(3)], ids=str)
def test_row_matches_the_per_degree_oracle(ring):
    for base, weights in ((poly_line(ring), range(0, 13)),
                          (DgaForms(ring, [("x", 1, True)]), range(-6, 7)),
                          (DgaForms(ring, [("x", 1), ("y", 1)]), range(0, 9)),
                          (DgaForms(ring, [("x", 1), ("y", 2)]), range(0, 9))):
        for w in weights:
            assert de_rham_cohomology(base, w) == [
                _per_degree(base, n, w) for n in range(base.nvars + 1)]


def test_cartier_iso_checks_d_squared_mod_p(monkeypatch):
    # negative control: with every dx_v inserted with sign +1, d(dx dy)
    # terms no longer cancel, so d o d = 2 x^a y^b dx dy != 0 mod 3; at
    # p = 2 that mutant is invisible, since 2ab = 0
    assert all(e["ok"] for e in verify_cartier_iso(3, 2, 6))
    true_insert = derham._insert_index
    monkeypatch.setattr(derham, "_insert_index",
                        lambda idxs, v: (true_insert(idxs, v)[0], 1))
    with pytest.raises(CompositionNonzero):
        verify_cartier_iso(3, 2, 6)


def test_d_squares_to_zero_random_forms():
    rng = random.Random(PROPERTY_SEEDS["derham_forms"])
    base = DgaForms(FP(5), [("x", 1), ("y", 2), ("z", 1)])
    for _ in range(40):
        form = base.zero()
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(0, 2)
            idxs = tuple(sorted(rng.sample(range(3), i)))
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            form = form + base.monomial_form(exps, idxs, rng.randint(1, 4))
        assert form.d().d().is_zero()


@pytest.mark.parametrize("ring", [ZZ, FP(2), FP(3)], ids=str)
def test_strand_matrix_columns_are_d_of_the_basis_forms(ring):
    # column j of strand_matrix(i, w), read in ring, is Form.d of the
    # j-th basis form written in the target basis
    for base in (poly_line(ring), DgaForms(ring, [("x", 1), ("y", 2)]),
                 DgaForms(ring, [("t", 1, True)])):
        for i in range(base.nvars):
            for w in range(-3, 7):
                src = base.strand_basis(i, w)
                tgt = base.strand_basis(i + 1, w)
                cols = base.strand_matrix(i, w).columns()
                assert len(cols) == len(src)
                for (exps, idxs), col in zip(src, cols):
                    img = base.monomial_form(exps, idxs).d()
                    want = {tgt.index(key): c
                            for key, c in img.terms.items()}
                    got = {r: ring.normalize(c) for r, c in col.items()}
                    assert {r: c for r, c in got.items() if c} == want


def test_leibniz_on_random_pairs():
    rng = random.Random(PROPERTY_SEEDS["derham_forms"] + 1)
    base = DgaForms(FP(7), [("x", 1), ("y", 1)])
    for _ in range(30):
        def rand_form(deg):
            basis = base.strand_basis(deg, rng.randint(deg, 5))
            if not basis:
                return base.zero(), deg
            exps, idxs = rng.choice(basis)
            return base.monomial_form(exps, idxs, rng.randint(1, 6)), deg
        i = rng.randint(0, 1)
        a, _ = rand_form(i)
        b, _ = rand_form(rng.randint(0, 1))
        lhs = a.wedge(b).d()
        sign = (-1) ** i
        rhs = a.d().wedge(b) + (a.wedge(b.d()) if sign == 1
                                else -(a.wedge(b.d())))
        assert (lhs - rhs).is_zero()


def test_wedge_anticommutes():
    base = DgaForms(QQ_R, [("x", 1), ("y", 1)])
    a = base.dx(0)
    b = base.dx(1)
    assert (a.wedge(b) + b.wedge(a)).is_zero()
    assert a.wedge(a).is_zero()


def test_strand_enumeration_guards():
    with pytest.raises(UnsupportedBase):
        DgaForms(QQ_R, [("x", 0)]).monomials(0)
    with pytest.raises(UnsupportedBase):
        DgaForms(QQ_R, [("x", 1, True), ("y", 1)]).monomials(2)
    with pytest.raises(UnsupportedBase):
        DgaForms(QQ_R, [("x", 1), ("y", -1)]).monomials(0)


def test_cartier_inverse_formula():
    p = 3
    base = poly_line(FP(p))
    form = base.monomial_form((2,), (0,))  # x^2 dx
    img = cartier_inverse(form, p)
    assert img == base.monomial_form((8,), (0,))  # x^6 * x^2 dx
    assert img.d().is_zero()
    with pytest.raises(NotCharP):
        cartier_inverse(base.monomial_form((1,), ()), 5)


def test_cartier_iso_pinned_configs():
    for p, d, w_max in [(2, 1, 8), (2, 2, 8), (3, 1, 12), (3, 2, 12),
                        (5, 1, 20)]:
        entries = verify_cartier_iso(p, d, w_max)
        assert entries and all(e["ok"] for e in entries)
        assert cartier_multiplicativity(
            p, d, w_max, pairs=100,
            seed=PROPERTY_SEEDS["cartier_pairs"]) == 0


def test_cartier_iso_rejects_a_corrupted_inverse(monkeypatch):
    # negative control: C^{-1}(1) with its one coefficient zeroed leaves
    # H^0 in weight 0 unhit, so that entry's rank check must fail
    assert all(e["ok"] for e in verify_cartier_iso(3, 1, 6))
    true_inverse = derham.cartier_inverse
    calls = []

    def corrupted(form, p):
        img = true_inverse(form, p)
        calls.append(form)
        return img - img if len(calls) == 1 else img

    monkeypatch.setattr(derham, "cartier_inverse", corrupted)
    entries = verify_cartier_iso(3, 1, 6)
    assert [(e["i"], e["w"]) for e in entries if not e["ok"]] == [(0, 0)]


def test_cartier_iso_rejects_an_image_that_is_no_cocycle(monkeypatch):
    # negative control: C^{-1}(dx_1) = x_2^2 dx_1 keeps weight 3, but
    # d of it is 2 x_2 dx_2 ^ dx_1 != 0 mod 3
    true_inverse = derham.cartier_inverse

    def moved(form, p):
        if form.terms == {((0, 0), (0,)): 1}:
            return form.dga.monomial_form((0, p - 1), (0,))
        return true_inverse(form, p)

    monkeypatch.setattr(derham, "cartier_inverse", moved)
    entries = verify_cartier_iso(3, 2, 6)
    assert [(e["i"], e["w"]) for e in entries if not e["ok"]] == [(1, 3)]


def test_cartier_multiplicativity_rejects_a_non_multiplicative_inverse(
        monkeypatch):
    # negative control: C^{-1} followed by x_1 ^ (-) is additive but not
    # multiplicative, since C^{-1}(a ^ b) picks up one x_1 and
    # C^{-1}(a) ^ C^{-1}(b) two; its images leave their weight, so
    # verify_cartier_iso would raise on it
    true_inverse = derham.cartier_inverse

    def shifted(form, p):
        x1 = form.dga.monomial_form((1,) + (0,) * (form.dga.nvars - 1), ())
        return true_inverse(form, p).wedge(x1)

    monkeypatch.setattr(derham, "cartier_inverse", shifted)
    assert cartier_multiplicativity(
        3, 2, 12, pairs=100, seed=PROPERTY_SEEDS["cartier_pairs"]) > 0


def test_cech_alexander_window():
    for p in (2, 3):
        entries = cech_alexander_compare(p, max(2 * p, 8))
        assert all(e["ok"] for e in entries)
        ids = {e["id"] for e in entries}
        assert "dx-to-x1-minus-x2" in ids
        assert "xp-1dx-to-divided-a" in ids


def test_cech_alexander_rejects_a_zero_d_matrix(monkeypatch):
    # negative control: with d_dR zeroed, weight 1 has a kernel, so the
    # uniqueness of the zigzag solution for dx must fail
    true_matrix = derham._ca_d_matrix
    monkeypatch.setattr(derham, "_ca_d_matrix", lambda *args:
                        IntMat.zeros(*true_matrix(*args).shape))
    for p in (2, 3):
        entries = cech_alexander_compare(p, max(2 * p, 8))
        (dx,) = [e for e in entries if e["id"] == "dx-to-x1-minus-x2"]
        assert dx["ok"] is False


def test_cech_alexander_guard():
    with pytest.raises(TruncationTooSmall):
        cech_alexander_compare(3, 4)


def test_divided_element_shape():
    p = 3
    ca = CAComplex(p, 8)
    a = ca.element_a()
    # top divided term (p-1)! s^[p] plus lower filtration noise
    top = a.terms.get(((0, 0), (p,)))
    assert top == 2  # (3-1)! mod 3
    assert all(k[1][0] <= p for k in a.terms)
