"""Algebra substrate tests: rings, sparse polynomials, PD normal forms,
length-2 Witt vectors (with the Z/p^2 isomorphism as oracle)."""

import pytest
from fractions import Fraction
from itertools import product
from math import comb, factorial

from hypothesis import given, settings, strategies as st

from hodgelab.gralg import (
    FP, ZP2, ZZ, QQ_R, MultiPoly, PDContext, PolyContext,
    RingMismatch, TruncationOverflow, WeightOverflow, Witt2,
    _exp_norm, _key_sort, poly_div_int, teichmuller_scalar,
)


def _rand_poly(ctx, data, max_terms=4, max_exp=3):
    terms = {}
    n = ctx.nvars()
    for _ in range(data.draw(st.integers(0, max_terms))):
        exps = tuple(data.draw(st.integers(0, max_exp)) for _ in range(n))
        terms[exps] = data.draw(st.integers(-9, 9))
    return MultiPoly(ctx, terms)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_poly_ring_axioms(data):
    ring = data.draw(st.sampled_from([ZZ, FP(5), ZP2(3)]))
    ctx = PolyContext(ring, [("x", 1), ("y", 2)])
    a, b, c = (_rand_poly(ctx, data) for _ in range(3))
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ctx.zero() == a
    assert a * ctx.one() == a
    assert (a - a).is_zero()


def test_poly_weights_and_parts():
    ctx = PolyContext(ZZ, [("x", 2), ("y", 4)])
    f = ctx.var("x") ** 2 + 3 * ctx.var("y")
    assert f.is_homogeneous() and f.weight() == 4
    g = f + ctx.var("x")
    parts = g.weight_parts()
    assert set(parts) == {2, 4}
    assert parts[4] == f


def test_poly_weight_cap_raises():
    ctx = PolyContext(ZZ, [("x", 2)], max_weight=6)
    x = ctx.var("x")
    assert (x ** 3).coeff((3,)) == 1
    with pytest.raises(WeightOverflow):
        x ** 4


def test_poly_fractional_exponents_and_depth():
    ctx = PolyContext(FP(2), [("x", 1)], depth=(2, 2))
    f = ctx.var("x", Fraction(3, 4))
    assert f.coeff((Fraction(3, 4),)) == 1
    with pytest.raises(TruncationOverflow):
        ctx.var("x", Fraction(1, 8))
    plain = PolyContext(ZZ, [("x", 1)])
    with pytest.raises(TruncationOverflow):
        plain.var("x", Fraction(1, 2))


def test_poly_laurent_and_substitution():
    ctx = PolyContext(QQ_R, [("s", 1, True)])
    s = ctx.var("s")
    inv = ctx.var("s", -1)
    assert s * inv == ctx.one()
    # gluing-type substitution s -> t^{-1}
    tctx = PolyContext(QQ_R, [("t", -1, True)])
    img = {"s": tctx.var("t", -1)}
    f = s ** 2 + 2 * s
    g = f.substitute(img)
    assert g.coeff((-2,)) == 1 and g.coeff((-1,)) == 2


def test_poly_substitution_binomial():
    ctx = PolyContext(ZZ, [("x", 1), ("y", 1)])
    x, y = ctx.var("x"), ctx.var("y")
    f = x ** 3
    g = f.substitute({"x": x + y, "y": y})
    assert g == x ** 3 + 3 * x ** 2 * y + 3 * x * y ** 2 + y ** 3


def test_poly_frobenius_semilinearity():
    ctx = PolyContext(FP(3), [("x", 1), ("y", 1)])
    x, y = ctx.var("x"), ctx.var("y")
    f = x + 2 * y
    # in characteristic p the Frobenius twist agrees with cubing here
    assert f.frobenius() == f ** 3
    g = 2 * x * y
    assert g.frobenius().coeff((3, 3)) == 2  # coefficients untouched


def test_poly_div_int_exact():
    ctx = PolyContext(ZZ, [("x", 1)])
    f = 6 * ctx.var("x") + 9 * ctx.one()
    assert poly_div_int(f, 3) == 2 * ctx.var("x") + 3 * ctx.one()
    with pytest.raises(ValueError):
        poly_div_int(f, 4)


def test_ring_mismatch_guard():
    a = PolyContext(ZZ, [("x", 1)]).var("x")
    b = PolyContext(FP(3), [("x", 1)]).var("x")
    with pytest.raises(RingMismatch):
        a + b


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


def test_pd_strand_enumeration():
    ctx = PDContext(FP(2), 1, [("var", 0)], depth=1)
    # weight 2: e + k = 2, e in {0, 1/2}: only (0, 2)
    assert ctx.strand_basis(2) == [((0,), (2,))]
    assert ctx.strand_basis(Fraction(5, 2)) == [((Fraction(1, 2),), (2,))]
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
            key = (tuple(_exp_norm(Fraction(u, q)) for u in us), pd)
            by_weight.setdefault(w, []).append(key)
    return {w: sorted(keys, key=_key_sort) for w, keys in by_weight.items()}


def _key_types(keys):
    return [(tuple(map(type, e)), tuple(map(type, k))) for e, k in keys]


def test_pd_strand_basis_matches_brute_force():
    shapes = [(1, []), (2, []), (1, [("var", 0)]), (2, [("diff", 0, 1)]),
              (3, [("diff", 0, 1), ("var", 2)]),
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


def test_pd_context_rejects_bad_depth():
    for depth in (-1, Fraction(1, 2), 1.0, "1"):
        with pytest.raises(ValueError):
            PDContext(FP(2), 1, [("var", 0)], depth=depth)


def test_poly_context_rejects_bad_depth():
    for m in (-1, Fraction(1, 2), 0.5, 1.0):
        with pytest.raises(ValueError):
            PolyContext(FP(2), [("x", 1)], depth=(2, m))
    ctx = PolyContext(FP(2), [("x", 1)], depth=(2, 0))
    assert ctx.var("x", 3) == ctx.var("x") ** 3


def test_pd_weight_cap():
    ctx = PDContext(FP(3), 1, [("var", 0)], max_weight=4)
    s = ctx.pd_gen(0)
    with pytest.raises(WeightOverflow):
        ctx.pd_gen(0, 3) * ctx.pd_gen(0, 2)
    assert (s * ctx.pd_gen(0, 3)).coeff(((0,), (4,))) == 4 % 3


def test_pd_zp2_coefficients():
    ctx = PDContext(ZP2(3), 1, [("var", 0)])
    x = ctx.var(0)
    # x^3 = 3! s^[3] = 6 s^[3] mod 9
    assert x ** 3 == ctx.pd_gen(0, 3).scale(6)


# -- Witt vectors ------------------------------------------------------------


def _const_witt(ctx, a0, a1):
    return Witt2(ctx.const(a0), ctx.const(a1))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_witt2_matches_zp2(data):
    # (a0, a1) -> a0^p + p a1 mod p^2 is a ring isomorphism W_2(F_p) = Z/p^2
    p = data.draw(st.sampled_from([2, 3, 5]))
    ctx = PolyContext(FP(p), [("x", 1)])

    def enc(w):
        g0, g1 = w.ghost()
        return g1.coeff((0,) * 1) % (p * p)

    a = _const_witt(ctx, data.draw(st.integers(0, p - 1)),
                    data.draw(st.integers(0, p - 1)))
    b = _const_witt(ctx, data.draw(st.integers(0, p - 1)),
                    data.draw(st.integers(0, p - 1)))
    assert enc(a + b) == (enc(a) + enc(b)) % (p * p)
    assert enc(a * b) == (enc(a) * enc(b)) % (p * p)
    assert enc(a - a) == 0
    assert enc(a + (-a)) == 0


def test_witt2_polynomial_ghost_additivity():
    # ghost components of a sum agree with sums of ghosts mod (p, p^2)
    for p in (2, 3):
        ctx = PolyContext(FP(p), [("x", 1), ("y", 1)])
        a = Witt2(ctx.var("x"), ctx.zero())
        b = Witt2(ctx.var("y"), ctx.var("x"))
        s = a + b
        ga, gb, gs = a.ghost(), b.ghost(), s.ghost()
        diff0 = (gs[0] - (ga[0] + gb[0])).map_coeffs(lambda c: c % p)
        diff1 = (gs[1] - (ga[1] + gb[1])).map_coeffs(lambda c: c % (p * p))
        assert diff0.is_zero() and diff1.is_zero()


def test_witt2_frobenius_carry_p2():
    # classic: (x,0) + (y,0) = (x+y, -xy) over F_2
    ctx = PolyContext(FP(2), [("x", 1), ("y", 1)])
    x, y = ctx.var("x"), ctx.var("y")
    s = Witt2(x, ctx.zero()) + Witt2(y, ctx.zero())
    assert s.a0 == x + y
    assert s.a1 == x * y  # -xy = xy mod 2


def test_teichmuller_scalar():
    assert teichmuller_scalar(2, 3) == 8
    for p in (2, 3, 5):
        for c in range(1, p):
            t = teichmuller_scalar(c, p)
            assert t % p == c and pow(t, p, p * p) == t
