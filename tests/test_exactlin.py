from __future__ import annotations

import random
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgelab import exactlin
from hodgelab.cobar import strand_basis, strand_matrix
from hodgelab.exactlin import (_RANK_PRIMES, AbGroup, CompositionNonzero,
                               ExactLinError, IntMat, cohomology_of_pair,
                               complex_cohomology, field_rank, field_rref,
                               fp_kernel, fp_rank, fp_rank_sparse, fp_rref,
                               fp_solve, kernel_basis, smith_normal_form,
                               snf_diagonal)
from hodgelab.gralg import FP, QQ_R, ZP2, ZZ, _is_prime
from hodgelab.stacks import BGm, _TotModel
from hodgelab.utils import PROPERTY_SEEDS


def test_snf_seed_example():
    m = IntMat.from_rows([[2, 4], [6, 8]])
    d = smith_normal_form(m)
    assert d.diagonal() == [2, 4]
    assert d.shape == m.shape and d == IntMat.from_rows([[2, 0], [0, 4]])


def test_snf_matches_minor_oracle(minor_divisors):
    rng = random.Random(7)
    # N = 2 |det| of the top 2 x 2 minor has the cofactor 1031 * 1033 *
    # 2111 past the primes below 2^10, its own base; the first row's
    # entries, 2 * 1033 and -4 * 1031 * 1039, have the gcds 1033 and 1031
    # with it and neither is a unit, so the cofactor splits
    cases = [[[2066, -4284836], [-4260092, -3195069], [0, 4260092]]]
    for _ in range(25):
        r = rng.randint(1, 4)
        c = rng.randint(1, 4)
        cases.append([[rng.randint(-9, 9) for _ in range(c)]
                      for _ in range(r)])
    for rows in cases:
        m = IntMat.from_rows(rows)
        assert snf_diagonal(m) == minor_divisors(rows)


def test_snf_divisibility_chain_and_transforms(minor_divisors):
    rng = random.Random(11)
    for _ in range(40):
        r = rng.randint(1, 5)
        c = rng.randint(1, 5)
        rows = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        m = IntMat.from_rows(rows)
        d = smith_normal_form(m)
        assert d.shape == m.shape
        diag = d.diagonal()
        assert diag == minor_divisors(rows)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
        for (i, j), val in d.entries.items():
            assert i == j and val > 0


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-8, 8), min_size=3, max_size=3),
                min_size=2, max_size=4),
       st.integers(0, 5))
def test_snf_invariant_under_unimodular_changes(rows, seed):
    # elementary divisors are basis-change invariants
    m = IntMat.from_rows(rows)
    rng = random.Random(seed)
    rows2 = [list(r) for r in rows]
    for _ in range(4):
        i, k = rng.randrange(len(rows2)), rng.randrange(len(rows2))
        if i != k:
            q = rng.randint(-2, 2)
            rows2[i] = [a + q * b for a, b in zip(rows2[i], rows2[k])]
    m2 = IntMat.from_rows(rows2)
    assert snf_diagonal(m) == snf_diagonal(m2)


def _sparse_big(rng, m, n, p=None):
    # a seeded sparse integer matrix with entries up to 10^6 in size;
    # with p given, about a third of them are multiples of p
    entries = {}
    for _ in range(rng.randint(1, m * n // 3 + 1)):
        v = rng.randint(-10 ** 6, 10 ** 6)
        if p and rng.randrange(3) == 0:
            v = p * rng.randint(-3, 3)
        entries[(rng.randrange(m), rng.randrange(n))] = v
    return IntMat(m, n, entries)


def _engine_inputs(rng, p=None):
    # the larger inputs of the two engine property tests: seeded sparse
    # matrices up to 40 x 40, cobar strands and one stacks total-model map
    shapes = [(40, 40), (25, 40), (40, 25), (30, 38), (12, 30), (8, 8)]
    return ([_sparse_big(rng, m, n, p) for m, n in shapes]
            + [strand_matrix(n, w) for n, w in ((2, 24), (4, 16), (5, 16))]
            + [_TotModel(BGm(), 4, 1).mats[3]])


def test_kernel_is_saturated_and_correct():
    rng = random.Random(3)
    cases = []
    for _ in range(30):
        r = rng.randint(1, 5)
        c = rng.randint(1, 6)
        cases.append(IntMat.from_rows([[rng.randint(-6, 6) for _ in range(c)]
                                       for _ in range(r)]))
    seen = 0
    for m in cases + _engine_inputs(rng):
        k = kernel_basis(m)
        assert m.matmul(k).is_zero()
        # rank-nullity over Q
        qrank = field_rank([[QQ_R.normalize(x) for x in row]
                            for row in m.to_rows()], m.ncols, QQ_R)
        assert k.ncols == m.ncols - qrank
        if k.ncols:
            # saturated: SNF divisors of the basis matrix are all 1
            assert snf_diagonal(k, k.ncols) == [1] * k.ncols
            seen += max(abs(v) for v in m.entries.values()) > 10 ** 5
    assert seen >= 2


def test_abgroup_normalisation():
    assert AbGroup(0, (6, 4)).torsion == (2, 12)
    assert AbGroup(1, (1, 1)).torsion == ()
    assert AbGroup(0, (2, 2, 2)).torsion == (2, 2, 2)
    g = AbGroup(2, (2, 4))
    assert g.torsion_count(2) == 2 and g.torsion_count(3) == 0
    assert str(AbGroup(0)) == "0"
    assert AbGroup(0, (2, 3)).torsion == (6,)


def test_cohomology_of_pair_small():
    # 0 -> Z^2 --diag(2,3)--> Z^2 -> 0 at the right spot
    d_in = IntMat.from_rows([[2, 0], [0, 3]])
    d_out = IntMat.zeros(0, 2)
    assert cohomology_of_pair(d_in, d_out) == AbGroup(0, (2, 3))
    # kernel with free quotient
    d_in2 = IntMat.zeros(2, 0)
    assert cohomology_of_pair(d_in2, d_out) == AbGroup(2)


def strand_cohomology(d_in, d_out, ring):
    # the per-pair, per-ring oracle: ker(d_out)/im(d_in) as an AbGroup
    # over Z, its rank over Q, degree 1 of the two-map complex over F_p
    if ring is ZZ:
        return cohomology_of_pair(d_in, d_out)
    if ring is QQ_R:
        return cohomology_of_pair(d_in, d_out).rank
    return complex_cohomology([d_in.ncols, d_in.nrows], [d_in, d_out],
                              ring)[1]


def test_cohomology_composition_check():
    d_in = IntMat.from_rows([[1], [0]])
    d_out = IntMat.from_rows([[1, 0]])
    with pytest.raises(CompositionNonzero):
        cohomology_of_pair(d_in, d_out)
    for ring in (ZZ, QQ_R, FP(3)):
        with pytest.raises(CompositionNonzero):
            strand_cohomology(d_in, d_out, ring)
        with pytest.raises(CompositionNonzero):
            complex_cohomology([1, 2, 1], [d_in, d_out], ring)


def test_z_mod_p_squared_is_refused_on_every_route():
    # Z/p^2 is no field, so no dimension answers; complex_cohomology
    # refuses it, G_a strands through it, and de Rham strands before it
    from hodgelab.cobar import group_cohomology
    from hodgelab.derham import DgaForms, UnsupportedBase, de_rham_cohomology
    for p in (2, 3):
        with pytest.raises(ValueError, match="no strand cohomology route"):
            complex_cohomology([1, 1], [IntMat.from_rows([[p]])], ZP2(p))
        with pytest.raises(ValueError, match="no strand cohomology route"):
            group_cohomology(2, 2 * p, ZP2(p))
        with pytest.raises(UnsupportedBase, match="Z/p\\^2"):
            de_rham_cohomology(DgaForms(ZP2(p), [("x", 1)]), p)


def test_strand_cohomology_checks_composition_mod_p():
    # d_out @ d_in = (3): a cochain pair over F_3 but not over F_2
    d_in = IntMat.from_rows([[1]])
    d_out = IntMat.from_rows([[3]])
    assert strand_cohomology(d_in, d_out, FP(3)) == 0
    with pytest.raises(CompositionNonzero):
        strand_cohomology(d_in, d_out, FP(2))


def test_complex_cohomology_matches_per_degree_strands():
    # cobar strands of G_a carry torsion over Z; cutting mats short
    # leaves zero maps past its end
    seen_torsion = False
    for w in (4, 6, 12):
        dims = [len(strand_basis(n, w)) for n in range(w // 2 + 1)]
        full = [strand_matrix(n, w) for n in range(len(dims))]
        for cut in (len(dims), len(dims) - 1, 2):
            padded = full[:cut] + [IntMat.zeros(dims[n + 1], dims[n])
                                   for n in range(cut, len(dims) - 1)]
            if cut < len(dims):
                padded.append(IntMat.zeros(0, dims[-1]))
            ins = [IntMat.zeros(dims[0], 0)] + padded[:-1]
            for ring in (ZZ, QQ_R, FP(3)):
                want = [strand_cohomology(d_in, d_out, ring)
                        for d_in, d_out in zip(ins, padded)]
                got = complex_cohomology(dims, full[:cut], ring)
                assert got == want, (w, cut, ring)
                seen_torsion |= ring is ZZ and any(h.torsion for h in got)
    assert seen_torsion
    assert complex_cohomology([], [], FP(3)) == []
    with pytest.raises(ValueError):
        complex_cohomology([1, 2], [IntMat.zeros(1, 1)], QQ_R)


def test_complex_cohomology_checks_every_pair_mod_p():
    # the pair in degree 2 is a cochain pair mod 3 but not mod 2
    dims = [1, 1, 1, 1]
    mats = [IntMat.zeros(1, 1), IntMat.from_rows([[1]]),
            IntMat.from_rows([[3]])]
    assert complex_cohomology(dims, mats, FP(3)) == [1, 0, 0, 1]
    with pytest.raises(CompositionNonzero):
        complex_cohomology(dims, mats, FP(2))


def test_cohomology_random_consistency():
    # H of (A, B) with B @ A = 0 built from a factored pair; the rank is
    # checked against an exact kernel, not the modular rank the code uses
    rng = random.Random(13)
    seen_rank = seen_torsion = False
    for _ in range(15):
        n = rng.randint(2, 5)
        # build d_out with known kernel, then d_in inside that kernel
        d_out = IntMat.from_rows([[rng.randint(-3, 3) for _ in range(n)]])
        k = kernel_basis(d_out)
        if k.ncols == 0:
            continue
        ncols_in = rng.randint(1, 3)
        coeffs = IntMat.from_rows([[rng.randint(-3, 3) for _ in range(ncols_in)]
                                   for _ in range(k.ncols)])
        d_in = k.matmul(coeffs)
        h = cohomology_of_pair(d_in, d_out)
        diag_in = snf_diagonal(d_in)
        assert h.rank == k.ncols - len(diag_in)
        assert h.torsion == AbGroup(0, diag_in).torsion
        seen_rank = seen_rank or h.rank > 0
        seen_torsion = seen_torsion or bool(h.torsion)
    assert seen_rank and seen_torsion


def test_cohomology_of_pair_falls_back_to_exact_kernel(monkeypatch):
    # rank 1 over Z, rank 0 mod both certifying primes: the modular rank
    # never reaches the bound.  One column is ranked by being nonzero;
    # with two, only the exact kernel gives H = 0
    big = 2147483647 * 998244353
    d_out = IntMat.from_rows([[big]])
    assert all(fp_rank(d_out, p) == 0 for p in _RANK_PRIMES)
    assert cohomology_of_pair(IntMat.zeros(1, 0), d_out) == AbGroup(0)
    kernels = []
    real = exactlin.kernel_basis
    monkeypatch.setattr(exactlin, "kernel_basis",
                        lambda mat: kernels.append(mat) or real(mat))
    d_out = IntMat.from_rows([[big, 0], [0, big]])
    assert cohomology_of_pair(IntMat.zeros(2, 0), d_out) == AbGroup(0)
    assert kernels == [d_out]


def test_complex_cohomology_rejects_rank_bounds_past_dd_zero():
    # ranks 1 and 1 meet the d o d = 0 bound at C^1 = Z^2; a claimed
    # lower bound of 2 on d0 breaks it and must raise
    d0 = IntMat.from_rows([[1, 0], [0, 0]])
    d1 = IntMat.from_rows([[0, 1]])
    want = [AbGroup(1), AbGroup(0), AbGroup(0)]
    assert complex_cohomology([2, 2, 1], [d0, d1], ZZ, [1, 1]) == want
    with pytest.raises(ExactLinError):
        complex_cohomology([2, 2, 1], [d0, d1], ZZ, [2, None])


def test_complex_cohomology_takes_a_det_multiple_only_at_its_bound():
    # d0 = 2 I has rank 2 and s_1 s_2 = 4.  D = 1 is no multiple of 4:
    # taken at the bound 2 it loses the rank, and below the true rank
    # (lower 1) it must not be taken at all
    d0 = IntMat.from_rows([[2, 0], [0, 2]])
    want = [AbGroup(0), AbGroup(0, (2, 2))]
    assert complex_cohomology([2, 2], [d0], ZZ, [2], [4]) == want
    assert complex_cohomology([2, 2], [d0], ZZ, [1], [1]) == want
    with pytest.raises(ExactLinError, match="lost the rank"):
        complex_cohomology([2, 2], [d0], ZZ, [2], [1])


def _unimodular(rng, n):
    # a few elementary steps from the identity: sparse, small entries
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n + 1):
        i, k = rng.randrange(n), rng.randrange(n)
        step = rng.choice(("add", "swap", "neg"))
        if step == "add" and i != k:
            q = rng.choice((-2, -1, 1, 2))
            rows[i] = [a + q * b for a, b in zip(rows[i], rows[k])]
        elif step == "swap":
            rows[i], rows[k] = rows[k], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMat.from_rows(rows)


_BIG = (2147483647, 998244353, 2147483647 * 998244353)


def _planted(rng, m, n, even):
    # U diag V with the diagonal drawn from units, small torsion and the
    # two rank primes and their product; `even` doubles every diagonal
    # entry, so no entry of the product is a unit.  Returns the product
    # and the planted diagonal
    pool = (1, 1, 1, 2, 3, 4, 6, 12) + _BIG
    diag = [rng.choice(pool) * (2 if even else 1)
            for _ in range(rng.randint(0, min(m, n)))]
    mid = IntMat(m, n, {(t, t): d for t, d in enumerate(diag)})
    return (_unimodular(rng, m).matmul(mid).matmul(_unimodular(rng, n)),
            diag)


def test_snf_diagonal_matches_planted_diagonal(monkeypatch):
    # the Smith route against the diagonal planted under unimodular
    # changes of basis, normalised to a divisor chain (so [1] for the
    # column (p, q, pq) and [1, pq] for diag(p, q)), with the core left
    # after the unit pass recorded through its rank certificate
    cores = []
    real = exactlin.kernel_basis
    monkeypatch.setattr(exactlin, "kernel_basis",
                        lambda mat: cores.append(mat) or real(mat))
    p, q = _BIG[:2]
    cases = [(IntMat.zeros(3, 4), []), (IntMat(0, 5), []),
             (IntMat(5, 0), []),
             (IntMat.from_rows([[p], [q], [p * q]]), [1]),
             (IntMat.from_rows([[p, 0], [0, q]]), [p, q])]
    rng = random.Random(PROPERTY_SEEDS["snf"])
    cases += [_planted(rng, rng.randint(1, 7), rng.randint(1, 7), k % 3 == 0)
              for k in range(150)]
    kinds = set()
    for m, diag in cases:
        before = len(cores)
        torsion = AbGroup(0, diag).torsion
        want = [1] * (len(diag) - len(torsion)) + list(torsion)
        assert snf_diagonal(m) == want, m.to_rows()
        if m.is_zero():
            continue
        if len(cores) == before:
            kinds.add("emptied")
        elif len(cores[before].entries) == len(m.entries):
            kinds.add("untouched")
        else:
            kinds.add("reduced")
    assert kinds == {"emptied", "untouched", "reduced"}


# invariant factors with 2^3, 2^4, 3^3 and 3^4 and the prime 1031 past
# 2^10: the Smith route then takes parts 2^v and 3^v level by level, and
# the cofactor past 2^10 level by level at its own base
_LOCAL = (2, 8, 16, 9, 27, 81, 24, 216, 1031, 2 * 1031, 8 * 1031,
          27 * 1031)


def test_snf_route_matches_the_minor_oracle_on_planted_local_factors(
        monkeypatch, minor_divisors):
    levels, cofactors = set(), []
    real_local = exactlin._local_diagonal

    def local(entries, base, part):
        found, g = real_local(entries, base, part)
        if found is not None:
            levels.update((base, f) for f in found)
            if base > 1 << 10:
                cofactors.append(part)
        return found, g

    monkeypatch.setattr(exactlin, "_local_diagonal", local)
    rng = random.Random(PROPERTY_SEEDS["snf_local"])
    for k in range(80):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        diag = [rng.choice(_LOCAL) for _ in range(rng.randint(1, min(m, n)))]
        if k % 3 == 0:
            diag[0] = 1
        mid = IntMat(m, n, {(t, t): d for t, d in enumerate(diag)})
        mat = _unimodular(rng, m).matmul(mid).matmul(_unimodular(rng, n))
        want = minor_divisors(mat.to_rows())
        assert snf_diagonal(mat) == want, mat.to_rows()
        assert snf_diagonal(mat, len(want)) == want, mat.to_rows()
    assert {(2, 8), (2, 16), (3, 27), (3, 81)} <= levels
    assert any(c > 1 << 10 for c in cofactors)


def test_a_given_det_multiple_gives_the_same_smith_form(minor_divisors):
    # any positive multiple D of s_1...s_r serves as the modulus's D,
    # with no prime search and no minor's determinant
    rng = random.Random(PROPERTY_SEEDS["snf_local"] + 1)
    for k in range(60):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        diag = [rng.choice(_LOCAL) for _ in range(rng.randint(1, min(m, n)))]
        if k % 3 == 0:
            diag[0] = 1
        mid = IntMat(m, n, {(t, t): d for t, d in enumerate(diag)})
        mat = _unimodular(rng, m).matmul(mid).matmul(_unimodular(rng, n))
        want = minor_divisors(mat.to_rows())
        dm = prod(want) * rng.choice((1, 2, 3, 1031, 2111 * 1033))
        assert snf_diagonal(mat, len(want), dm) == want, mat.to_rows()


def test_a_det_multiple_with_a_wrong_rank_is_refused():
    # one rank too low: the rank mod the first rank prime exceeds it; one
    # too high: the pivots mod 2D come one short
    for mat, dm in ((strand_matrix(2, 24), 66),
                    (IntMat.from_rows([[2, 4], [6, 8]]), 8),
                    (strand_matrix(3, 28), prod(snf_diagonal(
                        strand_matrix(3, 28))))):
        r = len(snf_diagonal(mat))
        assert snf_diagonal(mat, r, dm) == snf_diagonal(mat)
        with pytest.raises(ExactLinError, match="rank mod 2147483647"):
            snf_diagonal(mat, r - 1, dm)
        with pytest.raises(ExactLinError, match="lost the rank"):
            snf_diagonal(mat, r + 1, dm)
    with pytest.raises(ValueError):
        snf_diagonal(IntMat.from_rows([[2]]), None, 2)


def test_a_local_level_cuts_its_base_to_the_modulus():
    # at level 1031 * 1033 the modulus is 1031^3, so the next level
    # divides by 1031 alone, not by the whole base
    assert exactlin._local_diagonal(
        {(0, 0): 1031 ** 2 * 1033 ** 2 * 5}, 1031 * 1033,
        1031 ** 4 * 1033) == ([1031 ** 2 * 1033], None)


# invariant factors on the primes 1031 and 1033 past 2^10 with unequal
# exponents: the cofactor of N is their product, its own base, and it
# splits wherever a row holds no unit but a factor of it
_SPLIT = (1031 ** 4 * 1033, 1031 ** 2 * 1033 ** 2, 1033 ** 3 * 1031,
          1031, 1033, 2 * 1031 * 1033)


def test_a_cofactor_splits_into_its_primes(monkeypatch, minor_divisors):
    splits = []
    real_local = exactlin._local_diagonal

    def local(entries, base, part):
        found, g = real_local(entries, base, part)
        if g is not None:
            splits.append((base, g))
        return found, g

    monkeypatch.setattr(exactlin, "_local_diagonal", local)
    rng = random.Random(PROPERTY_SEEDS["snf_local"] + 2)
    for k in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        diag = [rng.choice(_SPLIT) for _ in range(rng.randint(1, min(m, n)))]
        if k % 3 == 0:
            diag[0] = 1
        mid = IntMat(m, n, {(t, t): d for t, d in enumerate(diag)})
        mat = _unimodular(rng, m).matmul(mid).matmul(_unimodular(rng, n))
        want = minor_divisors(mat.to_rows())
        assert snf_diagonal(mat) == want, mat.to_rows()
        assert snf_diagonal(mat, len(want)) == want, mat.to_rows()
    assert splits


def _coprime_parts_by_every_factor(n):
    # the old loop: every f < 2^10, composites included
    parts = []
    for f in range(2, 1 << 10):
        if n % f == 0:
            q = 1
            while n % f == 0:
                n, q = n // f, q * f
            parts.append((f, q))
    return parts + [(n, n)] if n > 1 else parts


def test_coprime_parts_try_only_the_primes_below_2_to_the_10():
    assert len(exactlin._SMALL_PRIMES) == 172
    cases = [1, 2, 1 << 10, 1 << 40, 2 * 3 * 5 * 7 * 11 * 13,
             2 ** 5 * 3 ** 4 * 1021 ** 2, 1031, 2 * 1031 * 1033,
             2 ** 3 * 3 * 2111 * 1033, 79833600, 2 * (2 ** 61 - 1)]
    for n in cases:
        assert exactlin._coprime_parts(n) == \
            _coprime_parts_by_every_factor(n), n


def _dense_abs_det(rows):
    # |det| of a nonsingular square integer matrix by dense fraction-free
    # (Bareiss) elimination, every intermediate entry a minor: the oracle
    # for the sparse minor determinant of the Smith route
    a = [list(r) for r in rows]
    prev = 1
    for k in range(len(a)):
        s = next(i for i in range(k, len(a)) if a[i][k])
        a[k], a[s] = a[s], a[k]
        piv, rk = a[k][k], a[k]
        for i in range(k + 1, len(a)):
            ri, f = a[i], a[i][k]
            a[i] = ri[:k + 1] + [(x * piv - f * y) // prev
                                 for x, y in zip(ri[k + 1:], rk[k + 1:])]
        prev = piv
    return abs(prev)


@pytest.mark.parametrize("n, w", [(3, 28), (4, 20)])
def test_minor_determinant_matches_dense_bareiss(n, w):
    # the pivot columns of the rank prime's echelon form, and the rows
    # that the sparse elimination picks, give a minor of no +-1 entry
    mat = strand_matrix(n, w)
    cols = fp_rref(mat, _RANK_PRIMES[0])[1]
    det, rows = exactlin._minor_abs_det(mat, cols)
    assert len(rows) == len(cols) == len(snf_diagonal(mat))
    assert det == _dense_abs_det([[mat.get(i, j) for j in cols]
                                  for i in rows])
    with pytest.raises(ExactLinError, match="dependent"):
        exactlin._minor_abs_det(mat, list(range(mat.ncols)))


def test_snf_diagonal_normalises_before_dropping_zeros():
    # mod N = 79833600 the pivots need the gcd/lcm step before the
    # entries equal to N (zeros mod N) are dropped
    assert snf_diagonal(strand_matrix(2, 24)) == [1] * 9 + [66]


def test_snf_diagonal_cross_checks_a_given_rank(monkeypatch):
    # one rank too low: a rank prime sees more pivots; one too high: no
    # rank prime reaches it, and the core's exact kernel refutes it
    # before the prime search goes on
    m = strand_matrix(3, 28)
    want = snf_diagonal(m)
    r = len(want)
    assert snf_diagonal(m, r) == want
    kernels = []
    real = exactlin.kernel_basis
    monkeypatch.setattr(exactlin, "kernel_basis",
                        lambda mat: kernels.append(mat) or real(mat))
    with pytest.raises(ExactLinError, match="rank mod 2147483647"):
        snf_diagonal(m, r - 1)
    assert kernels == []
    with pytest.raises(ExactLinError, match="exact kernel"):
        snf_diagonal(m, r + 1)
    assert len(kernels) == 1
    # no core at all: the unit pivots alone must match the rank
    unit = IntMat.from_rows([[1, 0], [0, 1]])
    big = IntMat.from_rows([[2147483647 * 998244353]])
    for mat, right in ((unit, 2), (big, 1)):
        assert snf_diagonal(mat, right) == snf_diagonal(mat)
        for wrong in (right - 1, right + 1):
            with pytest.raises(ExactLinError):
                snf_diagonal(mat, wrong)


def test_snf_diagonal_falls_back_when_no_rank_prime_sees_the_rank(
        monkeypatch):
    # rank 1 and 2 over Z, rank 0 mod both rank primes: the search goes
    # on to the primes below 2^31 - 1 for a nonsingular minor
    primes = []
    real = exactlin.fp_rref
    monkeypatch.setattr(exactlin, "fp_rref",
                        lambda mat, p: primes.append(p) or real(mat, p))
    pq = 2147483647 * 998244353
    for rows, want in (([[pq]], [pq]), ([[pq, 0], [0, pq]], [pq, pq])):
        del primes[:]
        m = IntMat.from_rows(rows)
        assert all(fp_rank(m, p) == 0 for p in _RANK_PRIMES)
        assert snf_diagonal(m) == want
        assert snf_diagonal(m, len(want)) == want
        assert set(primes) - set(_RANK_PRIMES)


def test_an_open_last_map_is_ranked_by_its_kernel(monkeypatch):
    # rank 0 mod the first rank prime and 2 mod the second: the one
    # prime leaves d_out's bound open, so its exact kernel ranks it
    big = _RANK_PRIMES[0]
    d_out = IntMat.from_rows([[big, 0], [0, big]])
    assert [fp_rank(d_out, p) for p in _RANK_PRIMES] == [0, 2]
    kernels = []
    real = exactlin.kernel_basis
    monkeypatch.setattr(exactlin, "kernel_basis",
                        lambda mat: kernels.append(mat) or real(mat))
    assert cohomology_of_pair(IntMat.zeros(2, 0), d_out) == AbGroup(0)
    assert kernels == [d_out]


def test_certified_ranks_use_the_first_rank_prime_only(monkeypatch):
    # the rank bounds are raised mod the first rank prime only; a bound
    # it leaves open goes straight to the exact route, not a second prime
    primes = []
    real = exactlin.fp_rank
    monkeypatch.setattr(exactlin, "fp_rank",
                        lambda mat, p: primes.append(p) or real(mat, p))
    assert _TotModel(BGm(), 5, 2).cohomology(4) == [1, 0, 1, 0, 1]
    assert primes and set(primes) == {_RANK_PRIMES[0]}


def test_lattice_quotient():
    # Z^n / (columns of sub) is the degree-1 group of sub followed by
    # the zero map out of Z^n
    sub = IntMat.from_rows([[2, 0], [0, 2]])
    assert cohomology_of_pair(sub, IntMat.zeros(0, 2)) == AbGroup(0, (2, 2))
    tall = IntMat.from_rows([[2, 0], [0, 2], [0, 0]])
    assert cohomology_of_pair(tall, IntMat.zeros(0, 3)) == AbGroup(1, (2, 2))
    assert cohomology_of_pair(IntMat.zeros(3, 0), IntMat.zeros(0, 3)) == \
        AbGroup(3)


def test_fp_helpers():
    rows = [[1, 2, 0], [0, 1, 1]]
    a = IntMat.from_rows(rows)
    assert fp_rank(a, 3) == 2
    ker = fp_kernel(a, 3)
    assert len(ker) == 1

    def image(x):
        return [sum(r * v for r, v in zip(row, x)) % 3 for row in rows]

    assert all(image(v) == [0, 0] for v in ker)
    b = [1, 1]
    x = fp_solve(a, b, 3)
    assert image(x) == b


def test_field_helpers_q_and_fp(field_kernel, field_solve):
    from fractions import Fraction
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert field_rank(rows, 2, QQ_R) == 1
    ker = field_kernel(rows, 2, QQ_R)
    assert len(ker) == 1
    f5 = FP(5)
    rows5 = [[1, 2], [3, 4]]
    assert field_rank(rows5, 2, f5) == 2
    sol = field_solve(rows5, 2, [1, 1], f5)
    assert sol is not None
    assert (rows5[0][0] * sol[0] + rows5[0][1] * sol[1]) % 5 == 1
    for ring in (ZZ, ZP2(3)):
        with pytest.raises(ValueError):
            field_rref(rows5, 2, ring)


def _random_fp_rows(rng, m, n, p):
    # full range, low rank, or every entry p - 1, with a zero row and a
    # zero column when there is room for them
    mode = rng.choice(("full", "low", "top"))
    if mode == "full":
        rows = [[rng.randrange(p) for _ in range(n)] for _ in range(m)]
    elif mode == "top":
        rows = [[p - 1] * n for _ in range(m)]
    else:
        k = rng.randint(0, min(m, n))
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
        right = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        rows = [[sum(row[t] * right[t][j] for t in range(k)) % p
                 for j in range(n)] for row in left]
    if m > 2 and n > 2:
        i, j = rng.randrange(m), rng.randrange(n)
        rows[i] = [0] * n
        for row in rows:
            row[j] = 0
    return rows


def test_fp_rref_matches_field_rref_exactly(field_kernel, field_solve):
    rng = random.Random(PROPERTY_SEEDS["snf"])
    shapes = [(0, 5), (5, 0), (0, 0), (1, 1), (40, 40), (40, 7), (7, 40),
              (25, 25), (12, 30), (30, 12), (3, 3), (2, 9)]
    for p in (2, 3, 998244353, 2147483647, 2 ** 61 - 1):
        for m, n in shapes:
            rows = _random_fp_rows(rng, m, n, p)
            entries = {(i, j): v for i, row in enumerate(rows)
                       for j, v in enumerate(row) if v}
            a = IntMat(m, n, entries)
            rref, piv = fp_rref(a, p)
            want, want_piv = field_rref(rows, n, FP(p))
            assert piv == want_piv
            assert rref.shape == (m, n)
            assert rref.to_rows() == want
            assert fp_kernel(a, p) == field_kernel(rows, n, FP(p))
            for b in ([sum(row) % p for row in rows], list(range(1, m + 1))):
                assert fp_solve(a, b, p) == field_solve(rows, n, b, FP(p))
            assert a == IntMat(m, n, entries)


def test_mod_p_rank_is_exact_past_int64_products():
    # rank 1 (second row = 7 * first); at p = 2^61 - 1 the products of
    # residues are far past int64, and every route must still say 1
    a = IntMat.from_rows([[3, 5], [21, 35]])
    for p in (2 ** 61 - 1, 2147483647, 998244353):
        assert fp_rank(a, p) == 1
        assert fp_rank_sparse(a.entries, p) == 1
        assert fp_rref(a, p)[1] == [0]


def test_mod_p_rank_is_exact_past_2_to_the_32():
    # p = 4000000007 is prime; the rank mod p of [[1, 2], [3, 6 + p]] is 1
    # and its rank over Q is 2, and random matrices rank as the dense
    # elimination over F_p ranks them
    p = 4000000007
    assert fp_rank(IntMat.from_rows([[1, 2], [3, 6 + p]]), p) == 1
    assert fp_rank(IntMat.from_rows([[1, 2], [3, 7 + p]]), p) == 2
    rng = random.Random(PROPERTY_SEEDS["snf"])
    for m, n in ((6, 6), (8, 5), (5, 8), (12, 12)):
        rows = _random_fp_rows(rng, m, n, p)
        assert fp_rank(IntMat.from_rows(rows), p) == \
            field_rank(rows, n, FP(p))


def test_is_prime_matches_sieve():
    limit = 10 ** 4
    sieve = [False, False] + [True] * (limit - 2)
    for q in range(2, limit):
        if sieve[q]:
            for m in range(q * q, limit, q):
                sieve[m] = False
    assert [n for n in range(-3, limit) if _is_prime(n)] == \
        [n for n in range(limit) if sieve[n]]
    # Carmichael numbers with no factor <= 41, and strong pseudoprimes
    # to every base up to 7 and up to 37
    for n in (56052361, 118901521, 3215031751, 318665857834031151167461):
        assert not _is_prime(n), n
    assert _is_prime(2 ** 31 - 1) and _is_prime(2 ** 61 - 1)
    with pytest.raises(ValueError):
        _is_prime(2 ** 89 - 1)  # prime, but past the certified range


def test_sparse_rank_matches_dense():
    rng = random.Random(PROPERTY_SEEDS["snf"])
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        entries = {}
        for _ in range(rng.randint(0, m * n)):
            entries[(rng.randrange(m), rng.randrange(n))] = rng.randint(-9, 9)
        rows = [[entries.get((i, j), 0) for j in range(n)] for i in range(m)]
        assert fp_rank_sparse(entries, p) == field_rank(rows, n, FP(p))
    for p in (2, 3, 2 ** 31 - 1):
        for a in _engine_inputs(rng, p):
            rows = [[x % p for x in row] for row in a.to_rows()]
            assert fp_rank_sparse(a.entries, p) == \
                field_rank(rows, a.ncols, FP(p))


def test_from_images_reads_rows_in_tgt_order_and_columns_in_src_order():
    image = {"a": {"x": 2}, "b": {"y": -1, "x": 3}, "c": {}}
    m = IntMat.from_images(["a", "b", "c"], ["y", "x"], image.get)
    assert m.to_rows() == [[0, -1, 0], [2, 3, 0]]


def test_from_images_refuses_a_term_off_the_target_basis():
    image = {"a": {"x": 1, "z": 5}}.get
    with pytest.raises(AssertionError, match="'z'"):
        IntMat.from_images(["a"], ["x"], image)
    # a zero coefficient on a stray key is no term at all
    zero = {"a": {"x": 1, "z": 0}}.get
    assert IntMat.from_images(["a"], ["x"], zero).to_rows() == [[1]]
