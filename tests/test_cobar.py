"""Strand cohomology of the additive group: frozen small values, universal
coefficients as the independent oracle, distinguished classes, cup and
Bockstein structure, and the regrading identity."""

import random
from math import comb, prod

import pytest

from hypothesis import given, settings, strategies as st

from hodgelab import cobar, exactlin
from hodgelab.cobar import (
    CohClass, LiftNotExact, NotACocycle, apply_d, bockstein, class_is_zero,
    classes_equal, cup, group_cohomology, group_table, hilbert_dims_f2,
    hilbert_dims_odd, is_scalar_multiple, phi_class,
    strand_basis, strand_matrix, torsion_census, torsion_class, v_one,
    w_class,
)
from hodgelab.exactlin import AbGroup
from hodgelab.gralg import FP, QQ_R, ZP2, ZZ


def test_strand_basis_shape():
    # compositions of w/2 into n positive parts, lex ordered
    assert strand_basis(0, 0) == [()]
    assert strand_basis(0, 4) == []
    assert strand_basis(1, 6) == [(3,)]
    assert strand_basis(2, 8) == [(1, 3), (2, 2), (3, 1)]
    for n in range(1, 5):
        for m in range(n, 10):
            assert len(strand_basis(n, 2 * m)) == comb(m - 1, n - 1)
    assert strand_basis(3, 7) == []  # odd weights are empty


def test_differential_examples():
    # d(x) = x2 - (x1+x2) + x1 = 0 and d(x^2) = -2 x1 x2
    assert apply_d(1, 2, {(1,): 1}) == {}
    assert phi_class(2) == {(1, 1): -2}
    assert phi_class(1) == {}
    # weight-0 strand at n=0 is the base ring with zero differential
    assert strand_matrix(0, 0).is_zero()


def test_standard_complex_strand_examples():
    # d o d = 0 is covered by test_dd_zero_on_random_cochains and by the
    # composition checks inside complex_cohomology
    assert strand_basis(2, 8) == [(1, 3), (2, 2), (3, 1)]
    d = strand_matrix(1, 4)
    assert d.columns()[0] == {0: -2}  # d(x^2) against basis [(1,1)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_dd_zero_on_random_cochains(data):
    n = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(n, 8))
    basis = strand_basis(n, 2 * m)
    cochain = {}
    for _ in range(data.draw(st.integers(1, 3))):
        cochain[data.draw(st.sampled_from(basis))] = data.draw(
            st.integers(-5, 5))
    once = apply_d(n, 2 * m, cochain)
    assert apply_d(n + 1, 2 * m, once) == {}


def test_integral_strand_values():
    assert group_cohomology(1, 2, ZZ) == AbGroup(1)
    assert group_cohomology(1, 6, ZZ) == AbGroup(0)
    assert group_cohomology(2, 4, ZZ) == AbGroup(0, (2,))
    assert group_cohomology(2, 6, ZZ) == AbGroup(0, (3,))
    assert group_cohomology(2, 12, ZZ) == AbGroup(0)  # 6 is no prime power
    assert group_cohomology(0, 0, ZZ) == AbGroup(1)
    assert group_cohomology(0, 4, ZZ) == AbGroup(0)
    assert group_cohomology(3, 6, ZZ) == AbGroup(0, (2,))


def test_group_table_matches_per_strand_groups():
    table = group_table(5, 20)
    assert set(table) == {(n, w) for n in range(6) for w in range(21)}
    for (n, w), g in table.items():
        assert g == group_cohomology(n, w), (n, w)


def test_group_table_ranks_without_elimination(monkeypatch):
    # the lemma's lower bounds meet the d o d = 0 bound on every map, so
    # certifying the ranks makes no modular rank and no exact kernel
    calls = []
    for name in ("fp_rank", "kernel_basis"):
        real = getattr(exactlin, name)
        monkeypatch.setattr(exactlin, name, lambda *a, _f=real, _n=name:
                            calls.append(_n) or _f(*a))
    for n_max, w_max in ((3, 54), (4, 28), (5, 20)):
        assert group_table(n_max, w_max)
        assert calls == [], (n_max, w_max)


def _first_exponents(k, w):
    # first exponent of each source and each target monomial of d^k_w
    return ([e[0] for e in strand_basis(k, w)],
            [e[0] for e in strand_basis(k + 1, w)])


def _flip_diagonal_entry(ent, src, tgt):
    key = min(key for key in ent if tgt[key[0]] == src[key[1]])
    ent[key] = -ent[key]


def _drop_embedding_entry(ent, src, tgt):
    del ent[min(key for key in ent if tgt[key[0]] < src[key[1]])]


def _double_a_binomial(ent, src, tgt):
    # every entry of one off-diagonal block (c, a): -2 C(a, c) for -C(a, c)
    i, j = min(key for key in ent if tgt[key[0]] < src[key[1]])
    for key in ent:
        if (tgt[key[0]], src[key[1]]) == (tgt[i], src[j]):
            ent[key] *= 2


@pytest.mark.parametrize("corrupt", [_flip_diagonal_entry,
                                     _drop_embedding_entry,
                                     _double_a_binomial])
def test_d_of_d_rejects_a_corrupted_assembly(monkeypatch, corrupt):
    # a mutant of the lemma's assembly: the first assembled map that has
    # an off-diagonal block is corrupted, and the d o d = 0 check of
    # complex_cohomology must raise before any group is read off it
    real = cobar._assembled_map
    seen = []

    def mutant(k, w, kept, starts):
        mat = real(k, w, kept, starts)
        src, tgt = _first_exponents(k, w)
        if seen or not any(b < a for a in src for b in tgt):
            return mat
        ent = dict(mat.entries)
        corrupt(ent, src, tgt)
        assert ent != mat.entries
        seen.append((k, w))
        return exactlin.IntMat(mat.nrows, mat.ncols, ent)

    monkeypatch.setattr(cobar, "_assembled_map", mutant)
    with pytest.raises(exactlin.CompositionNonzero):
        group_table(4, 24)
    assert seen


def test_group_table_hands_on_the_formula_maps(monkeypatch):
    # every map the table hands to complex_cohomology, assembled from
    # the blocks for k >= 2, is the formula's strand_matrix(k, w)
    real = cobar.complex_cohomology
    seen = []

    def spy(dims, mats, ring, lower=None, det_multiples=None):
        seen.append(list(mats))
        return real(dims, mats, ring, lower, det_multiples)

    monkeypatch.setattr(cobar, "complex_cohomology", spy)
    group_table(5, 30)
    assert len(seen) == 31
    for w, mats in enumerate(seen):
        assert len(mats) == 6
        for k, mat in enumerate(mats):
            assert mat == strand_matrix(k, w), (k, w)


@pytest.mark.parametrize("n_max, w_max", [(0, 12), (1, 20), (4, 30),
                                          (3, 60)])
def test_group_table_matches_the_per_strand_oracle(n_max, w_max):
    # group_cohomology takes no block modulus: each Smith form finds its
    # own by the prime search and a minor's determinant
    table = group_table(n_max, w_max)
    assert set(table) == {(n, w) for n in range(n_max + 1)
                          for w in range(w_max + 1)}
    for (n, w), g in table.items():
        assert g == group_cohomology(n, w), (n, w)


def test_group_table_takes_every_smith_modulus_from_the_blocks(monkeypatch):
    # with the block modulus no Smith form of the table searches for a
    # prime or takes a minor's determinant
    calls = []
    for name in ("fp_rref", "_minor_abs_det"):
        real = getattr(exactlin, name)
        monkeypatch.setattr(exactlin, name, lambda *a, _f=real, _n=name:
                            calls.append(_n) or _f(*a))
    for n_max, w_max in ((3, 54), (4, 28), (5, 20)):
        assert group_table(n_max, w_max)
        assert calls == [], (n_max, w_max)


def test_a_modulus_without_the_first_block_is_refused(monkeypatch):
    # leaving the a = 1 block's torsion out of the product gives a D that
    # s_1...s_r need not divide: the Smith form must raise, or the table
    # must disagree with the per-strand oracle
    def mutant(table, k, w):
        return prod(prod(table[k, w - 2 * a].torsion)
                    for a in range(2, w // 2 + 1))

    monkeypatch.setattr(cobar, "_block_modulus", mutant)
    try:
        table = group_table(3, 30)
    except exactlin.ExactLinError as e:
        assert "lost the rank" in str(e)
        return
    assert any(g != group_cohomology(n, w) for (n, w), g in table.items())


def _differential_terms(exps):
    # the oracle: the inhomogeneous formula of the cobar docstring on one
    # monomial, every face written out, degenerate terms included
    n = len(exps)
    terms = {}

    def add(key, c):
        nc = terms.get(key, 0) + c
        if nc:
            terms[key] = nc
        else:
            terms.pop(key, None)

    add((0,) + exps, 1)
    for i in range(1, n + 1):
        sign = -1 if i % 2 else 1
        e = exps[i - 1]
        head, tail = exps[: i - 1], exps[i:]
        for c in range(e + 1):
            add(head + (c, e - c) + tail, sign * comb(e, c))
    add(exps + (0,), -1 if (n + 1) % 2 else 1)
    return terms


def test_strand_matrix_matches_the_unnormalized_differential():
    # the 2n + 2 degenerate terms of d cancel in pairs, so the normalized
    # formula gives the same matrix
    for n in range(6):
        for w in range(31):
            want = exactlin.IntMat.from_images(
                strand_basis(n, w), strand_basis(n + 1, w),
                _differential_terms)
            assert strand_matrix(n, w) == want, (n, w)


def test_apply_d_matches_the_oracle_and_the_strand_matrix():
    # on seeded random cochains, apply_d is the unnormalized formula
    # summed over the cochain, and the same combination of the columns
    # of strand_matrix(n, w)
    rng = random.Random(29)
    seen = 0
    for n in range(5):
        for w in range(0, 25, 2):
            basis = strand_basis(n, w)
            if not basis:
                continue
            target = strand_basis(n + 1, w)
            cols = strand_matrix(n, w).columns()
            for _ in range(3):
                vec = [rng.choice((0, 0, rng.randint(-9, 9)))
                       for _ in basis]
                cochain = {m: c for m, c in zip(basis, vec) if c}
                oracle = {}
                for exps, c in cochain.items():
                    for key, dc in _differential_terms(exps).items():
                        oracle[key] = oracle.get(key, 0) + c * dc
                by_matrix = {}
                for j, c in enumerate(vec):
                    for i, v in cols[j].items():
                        by_matrix[target[i]] = (by_matrix.get(target[i], 0)
                                                + c * v)
                got = apply_d(n, w, cochain)
                assert got == {k: v for k, v in oracle.items() if v}, (n, w)
                assert got == {k: v for k, v in by_matrix.items() if v}
                seen += bool(got)
    assert seen > 60


def test_a_degenerate_split_leaves_the_target_basis(monkeypatch):
    # a split at c = 0 lands on a monomial with an exponent 0
    def mutant(exps):
        terms = {}
        for i, e in enumerate(exps, 1):
            for c in range(0, e):
                key = exps[: i - 1] + (c, e - c) + exps[i:]
                terms[key] = (-1 if i % 2 else 1) * comb(e, c)
        return terms

    monkeypatch.setattr(cobar, "_split_terms", mutant)
    with pytest.raises(AssertionError, match="leaves the target basis"):
        strand_matrix(2, 8)


def test_universal_coefficients_oracle():
    # dim H^n(F_p) = dim H^n(Z) (x) F_p + dim Tor(H^{n+1}(Z), F_p)
    # the F_p side runs the sparse mod-p eliminator, the Z side the
    # Smith form, so this checks one against the other
    for p in (2, 3, 5):
        for n in range(4):
            for w in range(0, 25, 2):
                lhs = group_cohomology(n, w, FP(p))
                hz = group_cohomology(n, w, ZZ)
                hz1 = group_cohomology(n + 1, w, ZZ)
                assert lhs == (hz.rank + hz.torsion_count(p)
                               + hz1.torsion_count(p)), (p, n, w)


def test_rational_dimensions():
    assert group_cohomology(1, 2, QQ_R) == 1
    assert group_cohomology(2, 4, QQ_R) == 0
    assert group_cohomology(1, 4, QQ_R) == 0


def test_no_strand_route_over_z_mod_p_squared():
    # Z/4 is no field, so no dimension answers this; the F_2 one is 1
    with pytest.raises(ValueError):
        group_cohomology(2, 4, ZP2(2))


def test_torsion_class_order_p():
    for p, i in [(2, 1), (3, 1), (2, 2)]:
        v = torsion_class(p, i)
        assert v.cohdeg == 2 and v.weight == 2 * p ** i
        assert not class_is_zero(v)
        assert class_is_zero(v.scale(p))  # p v = d(x^{p^i}) cobounds


def test_class_is_zero_over_z_sees_v1():
    # H^1 at weight 2 is Z, spanned by v1: neither v1 nor 2 v1 cobounds.
    # d_in there is 1 x 0 and [d_in | b] is 1 x 1, so both invariant
    # factor products are 1 and only their counts tell them apart
    v1 = v_one()
    assert not class_is_zero(v1)
    assert not class_is_zero(v1.scale(2))
    assert class_is_zero(v1.scale(0))


def test_cup_unit_and_v1_square():
    v1 = v_one()
    sq = cup(v1, v1)
    assert sq.cocycle == {(1, 1): 1}
    v2 = torsion_class(2, 1)
    assert classes_equal(sq, v2)
    # in Z/2 the sign is invisible: -v2 is the same class
    assert classes_equal(sq, v2.scale(-1))
    one = CohClass(0, 0, {(): 1}, ZZ)
    assert cup(one, v1).cocycle == v1.cocycle


def test_cup_graded_commutativity():
    v1, v2 = v_one(), torsion_class(2, 1)
    assert classes_equal(cup(v1, v2), cup(v2, v1))  # (-1)^{1*2} = +1
    p = 3
    a, b = w_class(p, 0), w_class(p, 1)
    ab, ba = cup(a, b), cup(b, a)
    assert classes_equal(ab, ba.scale(p - 1))  # odd-odd anticommute


def test_bockstein_w2_is_w1_squared():
    w2 = w_class(2, 1)
    b = bockstein(2, w2)
    assert b.cocycle == {(1, 1): 1}  # on the nose, not just up to class
    w1 = w_class(2, 0)
    assert classes_equal(b, cup(w1, w1))


def test_bockstein_kills_w1_and_squares_to_zero():
    for p in (2, 3, 5):
        w1 = w_class(p, 0)
        assert bockstein(p, w1).cocycle == {}
        b = bockstein(p, w_class(p, 1))
        assert class_is_zero(bockstein(p, b))


def test_bockstein_w3_hits_v3():
    b = bockstein(3, w_class(3, 1))
    v3bar = CohClass(2, 6, {k: v % 3 for k, v in
                            torsion_class(3, 1).cocycle.items()}, FP(3))
    assert is_scalar_multiple(b, v3bar, 3) is not None


def test_bockstein_rejects_non_cocycle():
    bad = CohClass(1, 4, {(2,): 1}, FP(3), check=False)  # d(x^2) != 0 mod 3
    with pytest.raises(LiftNotExact):
        bockstein(3, bad)
    with pytest.raises(NotACocycle):
        CohClass(1, 4, {(2,): 1}, FP(3))


def test_hilbert_oracle_f2_small_window():
    dims = hilbert_dims_f2(3, 16)
    for n in range(0, 4):
        for w in range(0, 17, 2):
            assert group_cohomology(n, w, FP(2)) == dims.get((n, w), 0), (n, w)


def test_hilbert_oracle_f3_includes_weight18_polynomial_generator():
    dims = hilbert_dims_odd(3, 3, 18)
    assert dims.get((2, 18)) == 1  # the second polynomial generator
    for n in range(0, 4):
        for w in range(0, 19, 2):
            assert group_cohomology(n, w, FP(3)) == dims.get((n, w), 0), (n, w)


def test_oracle_euler_characteristic_vanishes():
    for p in (2, 3):
        dims = (hilbert_dims_f2 if p == 2 else
                lambda n, w: hilbert_dims_odd(3, n, w))(4, 8)
        # vanishes for w >= 4 (at w = 2 the strand complex is Z x alone)
        for w in (4, 6, 8):
            chi = sum((-1) ** n * dims.get((n, w), 0) for n in range(0, 5))
            assert chi == 0, (p, w)


def phi_span_divisors(n):
    """Elementary divisors of the two differential-convention spans.

    Returns (ours, alternate) where ours is the span of d_1(x^n) and the
    alternate is the span of (y-z)^n - y^n + z^n, both inside the full
    weight-2n bidegree-(2) monomial lattice.  The two conventions differ
    by an antipode twist; their coboundary lattices must agree up to
    elementary divisors.
    """
    ours = phi_class(n)
    alt = {}
    for j in range(0, n + 1):
        c = comb(n, j) * ((-1) ** (n - j))
        if j == n:
            c -= 1
        if j == 0:
            c += 1
        if c:
            alt[(j, n - j)] = c
    full = [(j, n - j) for j in range(0, n + 1)]

    def divisors(vec_dict):
        col = [[vec_dict.get(m, 0)] for m in full]
        mat = exactlin.IntMat.from_rows(col)
        return exactlin.snf_diagonal(mat)

    return divisors(ours), divisors(alt)


def test_phi_span_convention_invariance():
    for n in (2, 3, 4, 6, 8, 9, 12):
        ours, alt = phi_span_divisors(n)
        assert ours == alt, n


def kzthree_group(m):
    """The regraded sum of strand groups with n = cohdeg + weight.

    Matches the low-degree singular cohomology of the third integral
    Eilenberg-MacLane space under the doubling convention used here.
    """
    rank = 0
    torsion = []
    for i in range(0, m + 1):
        w = m - i
        if w < 0 or w % 2:
            continue
        if i == 0:
            g = AbGroup(1, ()) if w == 0 else AbGroup(0, ())
        else:
            g = group_cohomology(i, w, ZZ)
        rank += g.rank
        torsion.extend(g.torsion)
    return AbGroup(rank, tuple(torsion))


def test_kzthree_regrading():
    expected = [
        AbGroup(1), AbGroup(0), AbGroup(0), AbGroup(1), AbGroup(0),
        AbGroup(0), AbGroup(0, (2,)), AbGroup(0), AbGroup(0, (3,)),
    ]
    for m, g in enumerate(expected):
        assert kzthree_group(m) == g, m


def test_torsion_census_tables():
    rows = dict(torsion_census(2, 2, 16))
    assert rows[4].torsion_count(2) == 1
    assert rows[8].torsion_count(2) == 1
    assert rows[16].torsion_count(2) == 1
    assert rows[12] == AbGroup(0)
    rows1 = dict(torsion_census(2, 1, 12))
    assert rows1[2] == AbGroup(1)
    assert all(rows1[w] == AbGroup(0) for w in rows1 if w != 2)
    rows0 = dict(torsion_census(5, 0, 8))
    assert rows0[0] == AbGroup(1)
    assert all(rows0[w] == AbGroup(0) for w in rows0 if w != 0)
