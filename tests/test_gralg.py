"""Algebra substrate tests: rings, polynomial forms, PD normal forms."""

import gc

import pytest
from fractions import Fraction
from itertools import product
from math import comb, factorial

from hypothesis import given, settings, strategies as st

from hodgelab import cobar, stacks
from hodgelab.derham import DgaForms
from hodgelab.gralg import (
    FP, ZP2, ZZ, QQ_R, PDContext, RingMismatch, TruncationOverflow,
    WeightOverflow,
)


def _rand_form(forms, data, max_terms=4, max_exp=3):
    out = forms.zero()
    for _ in range(data.draw(st.integers(0, max_terms))):
        exps = tuple(data.draw(st.integers(0, max_exp))
                     for _ in range(forms.nvars))
        idxs = data.draw(st.sets(st.integers(0, forms.nvars - 1)))
        out = out + forms.monomial_form(exps, sorted(idxs),
                                        data.draw(st.integers(-9, 9)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_ring_axioms(data):
    # forms over a polynomial base: + is an abelian group law, and wedge
    # is associative, unital and distributes over +
    ring = data.draw(st.sampled_from([ZZ, FP(5), ZP2(3)]))
    forms = DgaForms(ring, [("x", 1), ("y", 2)])
    a, b, c = (_rand_form(forms, data) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a.wedge(b).wedge(c) == a.wedge(b.wedge(c))
    assert a.wedge(b + c) == a.wedge(b) + a.wedge(c)
    assert a + forms.zero() == a
    assert a.wedge(forms.monomial_form((0, 0), ())) == a
    assert (a - a).is_zero()


def test_poly_fractional_exponents_and_depth():
    # form exponents are ints, negative only on an invertible variable;
    # roots of generators live in the PD models, whose exponents count
    # units of 1/p^depth
    plain = DgaForms(ZZ, [("x", 1)])
    for e in (Fraction(1, 2), Fraction(3, 4)):
        with pytest.raises(TruncationOverflow):
            plain.monomial_form((e,), ())
    with pytest.raises(ValueError):
        plain.monomial_form((-1,), (0,))
    ctx = PDContext(FP(2), 1, [], depth=2)
    assert ctx.var(0, Fraction(3, 4)).terms == {((3,), ()): 1}
    with pytest.raises(TruncationOverflow):
        ctx.var(0, Fraction(1, 8))
    with pytest.raises(TruncationOverflow):
        ctx.monomial((Fraction(1, 2),), ())


def test_poly_laurent_and_substitution():
    forms = DgaForms(QQ_R, [("s", 1, True)])
    s, inv = forms.monomial_form((1,), ()), forms.monomial_form((-1,), ())
    assert s.wedge(inv) == forms.monomial_form((0,), ())


def test_ring_mismatch_guard():
    a = DgaForms(ZZ, [("x", 1)]).dx(0)
    b = DgaForms(FP(3), [("x", 1)]).dx(0)
    for op in (a.__add__, a.__sub__, a.wedge):
        with pytest.raises(RingMismatch):
            op(b)


def test_fp_and_zp2_refuse_a_non_prime():
    # Z/4 is no field: FP(4) once reported cohomology dimensions over it
    for make in (FP, ZP2):
        for p in (0, 1, 4, 6):
            with pytest.raises(ValueError):
                make(p)
        for p in (2, 2147483647):
            assert make(p).p == p


def test_ring_characteristics():
    # Z/p^2 has characteristic p^2, so Cartier refuses it as not char p
    assert FP(3).char == 3
    assert ZP2(3).char == 9


def test_normalize_maps_fractions_exactly_and_refuses_floats():
    assert FP(3).normalize(Fraction(1, 2)) == 2
    assert ZP2(3).normalize(Fraction(1, 2)) == 5
    assert DgaForms(FP(3), [("x", 1)]).monomial_form(
        (0,), (), Fraction(1, 2)).terms == {((0,), ()): 2}
    assert QQ_R.normalize(Fraction(1, 2)) == Fraction(1, 2)
    assert ZZ.normalize(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        ZZ.normalize(Fraction(1, 2))
    for ring in (FP(3), ZP2(3)):
        with pytest.raises(ZeroDivisionError):
            ring.normalize(Fraction(1, 3))
    for ring in (ZZ, QQ_R, FP(3), ZP2(3)):
        with pytest.raises(TypeError):
            ring.normalize(0.5)
        with pytest.raises(TypeError):
            ring.normalize(1.0)
    assert [r.is_field() for r in (ZZ, QQ_R, FP(3), ZP2(3))] == [
        False, True, True, False]


def test_add_to_folds_in_place_and_drops_a_zero_sum():
    # the one sparse accumulation: a cancelling sum leaves no key, a new
    # key enters normalized, and every other key stays as it was
    for ring, c in ((ZZ, 3), (QQ_R, Fraction(1, 2)), (FP(5), 3),
                    (ZP2(3), 4)):
        terms = {"a": ring.normalize(c), "b": ring.one}
        ring.add_to(terms, "a", -c)
        assert terms == {"b": ring.one}
        ring.add_to(terms, "c", c)
        ring.add_to(terms, "b", 1)
        assert terms == {"b": ring.normalize(2), "c": ring.normalize(c)}
    # a sum that vanishes only in the ring is dropped too
    terms = {"a": 2}
    FP(5).add_to(terms, "a", 3)
    assert terms == {}
    FP(5).add_to(terms, "a", 7)
    assert terms == {"a": 2}


# -- PD models --------------------------------------------------------------


def test_pd_var_relator_absorption():
    # x^a s^[k] = ((k+a)!/k!) s^[k+a] with x the relator itself
    ctx = PDContext(FP(7), 1, [("var", 0)])
    x = ctx.var(0, 2)
    assert x == ctx.pd_gen(0, 2).scale(2)  # x^2 = 2! s^[2]
    m = ctx.var(0) * ctx.pd_gen(0, 3)
    assert m == ctx.pd_gen(0, 4).scale(4)


def test_pd_binomial_products():
    ctx = PDContext(FP(5), 1, [("var", 0)])
    for a in range(4):
        for b in range(4):
            lhs = ctx.pd_gen(0, a) * ctx.pd_gen(0, b)
            assert lhs == ctx.pd_gen(0, a + b).scale(comb(a + b, a) % 5)


def test_pd_difference_relator_rewrite():
    # x1 = x2 + s in normal form
    ctx = PDContext(FP(3), 2, [("diff", 0, 1)])
    x1, x2, s = ctx.var(0), ctx.var(1), ctx.pd_gen(0)
    assert x1 == x2 + s
    assert x1 ** 2 == x2 ** 2 + (x2 * s).scale(2) + ctx.pd_gen(0, 2).scale(2)
    # chained relators terminate: x1 -> x2 -> x3
    ch = PDContext(FP(3), 3, [("diff", 0, 1), ("diff", 1, 2)])
    y1, y3 = ch.var(0), ch.var(2)
    s1, s2 = ch.pd_gen(0), ch.pd_gen(1)
    assert y1 == y3 + s1 + s2


def test_pd_scaled_divided_power():
    # (c*s)^[n] = c^n s^[n] for n < p
    ctx = PDContext(FP(7), 1, [("var", 0)])
    s = ctx.pd_gen(0)
    for c in (2, 3, 5):
        for n in (2, 3, 4):
            assert s.scale(c).divided_power(n) == \
                ctx.pd_gen(0, n).scale(pow(c, n, 7))


def test_pd_composed_divided_powers():
    # gamma_m(gamma_n(s)) = ((mn)! / (m! n!^m)) gamma_{mn}(s)
    ctx = PDContext(FP(11), 1, [("var", 0)])
    s = ctx.pd_gen(0)
    for m, n in [(2, 2), (2, 3), (3, 2)]:
        lhs = s.divided_power(n).divided_power(m)
        coef = factorial(m * n) // (factorial(m) * factorial(n) ** m)
        assert lhs == ctx.pd_gen(0, m * n).scale(coef % 11)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pd_ring_axioms(data):
    ctx = PDContext(FP(3), 2, [("diff", 0, 1)], depth=1)
    keys = ctx.strand_basis(2) + ctx.strand_basis(Fraction(5, 3))

    def rand():
        el = ctx.zero()
        for _ in range(data.draw(st.integers(0, 3))):
            key = data.draw(st.sampled_from(keys))
            el = el + ctx.monomial(key[0], key[1],
                                   data.draw(st.integers(1, 2)))
        return el

    a, b, c = rand(), rand(), rand()
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_pd_sums_change_only_their_left_operand():
    # a + b copies a; a += b folds b into a and leaves b as it was
    ctx = PDContext(FP(2), 2, [("diff", 0, 1)])
    a = ctx.var(1) + ctx.pd_gen(0, 2)
    b = ctx.var(0)  # x1 = x2 + s, so the x2 terms cancel in a + b
    a_terms, b_terms = dict(a.terms), dict(b.terms)
    c = a + b
    assert c.terms == {((0, 0), (1,)): 1, ((0, 0), (2,)): 1}
    c += b
    assert a.terms == a_terms and b.terms == b_terms
    a += b
    assert a.terms == {((0, 0), (1,)): 1, ((0, 0), (2,)): 1}
    assert b.terms == b_terms
    # the right operand may be the left one: 2a = 0 in characteristic 2
    a += a
    assert a.is_zero()
    with pytest.raises(RingMismatch):
        a += PDContext(FP(2), 2, [("diff", 0, 1)]).one()


def test_pd_strand_enumeration():
    ctx = PDContext(FP(2), 1, [("var", 0)], depth=1)
    # weight 2: e + k = 2, e in {0, 1/2}: only (0, 2)
    assert ctx.strand_basis(2) == [((0,), (2,))]
    # weight 5/2: x^{1/2}, one unit of 1/2, times s^[2]
    assert ctx.strand_basis(Fraction(5, 2)) == [((1,), (2,))]
    free = PDContext(FP(2), 2, [], depth=0)
    assert len(free.strand_basis(3)) == 4  # monomials of degree 3 in 2 vars


def _strand_oracle(ctx, w_max):
    """Brute force: every key of weight <= w_max, bucketed by weight."""
    q = ctx.p ** ctx.depth
    led = {rel[1] for rel in ctx.relators}
    units = [range(q) if i in led else range(w_max * q + 1)
             for i in range(ctx.nvars)]
    pds = [range(w_max + 1)] * len(ctx.relators)
    by_weight = {}
    for us, pd in product(product(*units), product(*pds)):
        w = Fraction(sum(us), q) + sum(pd)
        if w <= w_max:
            by_weight.setdefault(w, []).append((us, pd))
    return {w: sorted(keys) for w, keys in by_weight.items()}


def _key_types(keys):
    return [(tuple(map(type, e)), tuple(map(type, k))) for e, k in keys]


def test_pd_strand_basis_matches_brute_force():
    # the enumeration walks the last exponent slot over the residue of
    # what is left mod q only: these shapes end on a free slot, on a
    # relator's slot, and with no relator at all
    shapes = [(1, []), (2, []), (1, [("var", 0)]), (2, [("diff", 0, 1)]),
              (3, [("diff", 0, 1), ("var", 2)]),
              (3, [("diff", 0, 1), ("diff", 1, 2)]),
              (2, [("var", 0), ("var", 1)])]
    for p, depths in ((2, (0, 1, 2)), (3, (0, 1, 2)), (5, (0, 1))):
        for depth in depths:
            q = p ** depth
            weights = {Fraction(n, d) for d in (1, q, p * q, 3)
                       for n in range(-2, 3 * d + 1)}
            for nvars, relators in shapes:
                ctx = PDContext(FP(p), nvars, relators, depth=depth)
                want = _strand_oracle(ctx, 3)
                for w in weights:
                    got = ctx.strand_basis(w)
                    assert got == want.get(w, []), (p, depth, relators, w)
                    assert _key_types(got) == _key_types(want.get(w, []))


def test_pd_strand_basis_leaves_no_garbage_cycle():
    # a recursive closure that holds itself would keep each call's output
    # alive until the next cyclic collection, which raised fp-crystal's
    # peak RSS; the same shape recurs in every strand enumerator
    ctx = PDContext(FP(2), 2, [("var", 0)], depth=1)
    forms = DgaForms(FP(2), [("x", 1), ("y", 1)])
    for enumerate_strand in (lambda: ctx.strand_basis(3),
                             lambda: cobar.strand_basis(4, 50),
                             lambda: forms.monomials(6),
                             lambda: stacks._slot_tuples("gm", 2, 3, 1)):
        gc.collect()
        gc.disable()
        try:
            assert enumerate_strand()
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_pd_context_rejects_bad_depth():
    for depth in (-1, Fraction(1, 2), 1.0, "1"):
        with pytest.raises(ValueError):
            PDContext(FP(2), 1, [("var", 0)], depth=depth)


def test_pd_weight_cap():
    ctx = PDContext(FP(3), 1, [("var", 0)], max_weight=4)
    s = ctx.pd_gen(0)
    with pytest.raises(WeightOverflow):
        ctx.pd_gen(0, 3) * ctx.pd_gen(0, 2)
    assert (s * ctx.pd_gen(0, 3)).coeff(((0,), (4,))) == 4 % 3
    # at depth 1 over F_3 a divided power weighs q = 3 units, x_2^(1/3) one
    deep = PDContext(FP(3), 2, [("var", 0)], depth=1, max_weight=3)
    top = deep.var(1, Fraction(2, 3)) * deep.pd_gen(0, 2)
    assert top.terms == {((0, 2), (2,)): 1}
    with pytest.raises(WeightOverflow):
        deep.pd_gen(0, 1) * deep.pd_gen(0, 3)
    with pytest.raises(WeightOverflow):
        top * deep.var(1, Fraction(2, 3))
    # past the cap only a nonzero normal-form term raises: a product that
    # vanishes mod p is zero, since the zero test comes before the cap test
    low = PDContext(FP(3), 1, [("var", 0)], max_weight=2)
    s = low.pd_gen(0)
    assert (s * low.pd_gen(0, 2)).is_zero()  # C(3, 1) s^[3]
    assert (s * s * s).is_zero()  # 2 s^[2] * s = 6 s^[3]
    diff = PDContext(FP(2), 2, [("diff", 0, 1)], depth=1, max_weight=1)
    s = diff.pd_gen(0)
    assert (s * s).is_zero()  # 2 s^[2]
    x1 = diff.var(0)
    with pytest.raises(WeightOverflow):
        x1 * x1  # (x_2 + s)^2 = x_2^2 + 2 x_2 s + 2 s^[2], and x_2^2 stays


def test_pd_zp2_coefficients():
    ctx = PDContext(ZP2(3), 1, [("var", 0)])
    x = ctx.var(0)
    # x^3 = 3! s^[3] = 6 s^[3] mod 9
    assert x ** 3 == ctx.pd_gen(0, 3).scale(6)
