"""Filtered complexes and their pages."""

import random

import pytest

from hodgelab import specseq, stacks
from hodgelab.derham import DgaForms
from hodgelab.exactlin import IntMat
from hodgelab.gralg import FP, QQ_R, ZP2, ZZ
from hodgelab.specseq import (
    FilteredComplex, FiltrationNotPreserved, cohomology_dims,
    degenerates_at, pages,
)
from hodgelab.utils import PROPERTY_SEEDS


def hodge_filtered_line(p, w):
    """De Rham strand of F_p[x] in weight w with its Hodge filtration."""
    d0 = DgaForms(FP(p), [("x", 1)]).strand_matrix(0, w)
    # F^1 = Omega^{>=1}
    return FilteredComplex(FP(p), [[0] * d0.ncols, [1] * d0.nrows], [d0])


def test_hodge_line_degenerates_on_frobenius_strands():
    p = 3
    fc = hodge_filtered_line(p, 6)
    verdict = degenerates_at(fc, 1)
    assert verdict["degenerate"] is True
    assert verdict["by_dimension"] is True
    assert cohomology_dims(fc) == [1, 1]


def test_hodge_line_nondegenerate_off_strand():
    p = 3
    fc = hodge_filtered_line(p, 4)  # d is multiplication by 4, a unit
    verdict = degenerates_at(fc, 1)
    assert verdict["degenerate"] is False
    assert verdict["first_nonzero"] == (1, 0, 0)
    assert degenerates_at(fc, 2)["degenerate"] is True
    assert cohomology_dims(fc) == [0, 0]


def test_page_dims_decrease_and_stabilize():
    for w in (3, 4, 6, 7, 9):
        fc = hodge_filtered_line(3, w)
        pgs = pages(fc, 3)
        keys = set()
        for pg in pgs:
            keys |= set(pg.entries)
        for r in range(len(pgs) - 1):
            for key in keys:
                assert pgs[r + 1].entries.get(key, 0) <= \
                    pgs[r].entries.get(key, 0)
        h = cohomology_dims(fc)
        last = pgs[-1]
        for n in range(fc.top + 1):
            assert last.total(n) == h[n]


def test_conjugate_filtration_from_kernel_embedding():
    p = 2
    w = 4
    base = DgaForms(FP(p), [("x", 1)])
    # the kernel of d on the 1-dimensional strand is all of it, so the
    # decreasing reindex of the rising truncation, F^1 = tau^{<=0}, is a
    # coordinate filtration
    d0 = base.strand_matrix(0, w)
    assert d0.shape == (1, 1) and d0.get(0, 0) % p == 0
    fc = FilteredComplex(FP(p), [[1] * d0.ncols, [0] * d0.nrows], [d0])
    verdict = degenerates_at(fc, 1)
    assert verdict["degenerate"] is True


def test_rings_that_are_not_fields_are_refused():
    for ring in (ZZ, ZP2(3)):
        with pytest.raises(ValueError, match="Q or F_p"):
            FilteredComplex(ring, [[0], [0]], [IntMat(1, 1, {(0, 0): 2})])


def test_two_step_rational_example():
    # 0 -> Q^2 -> Q -> 0 with d = (1 0); F^1 = span{e2} + 0
    fc = FilteredComplex(QQ_R, [[0, 1], [0]], [IntMat.from_rows([[1, 0]])])
    assert cohomology_dims(fc) == [1, 0]
    pgs = pages(fc)
    assert pgs[1].total(0) == 1
    assert degenerates_at(fc, 1)["degenerate"] is True


def test_e0_is_graded_complex():
    fc = hodge_filtered_line(5, 10)
    e0 = pages(fc, 0)[0]
    assert e0.dim(0, 0) == 1
    assert e0.dim(1, 1) == 1


def test_level_lists_reject_an_entry_into_a_lower_level():
    # d e = e' with e at level 1 and e' at level 0: d leaves F^1
    with pytest.raises(FiltrationNotPreserved):
        FilteredComplex(QQ_R, [[1], [0]], [IntMat(1, 1, {(0, 0): 1})])
    fc = FilteredComplex(QQ_R, [[0], [1]], [IntMat(1, 1, {(0, 0): 1})])
    assert pages(fc)[1].ranks == {(0, 0): 1}


def test_level_lists_reject_a_nonzero_square():
    with pytest.raises(ValueError, match="square"):
        FilteredComplex(
            QQ_R, [[0], [0], [0]],
            [IntMat(1, 1, {(0, 0): 1}), IntMat(1, 1, {(0, 0): 1})])
    # d o d is taken in the field: 2 * 1 vanishes in F_2 only
    twice = [IntMat(1, 1, {(0, 0): 2}), IntMat(1, 1, {(0, 0): 1})]
    with pytest.raises(ValueError, match="square"):
        FilteredComplex(QQ_R, [[0], [0], [0]], twice)
    assert cohomology_dims(FilteredComplex(FP(2), [[0], [0], [0]],
                                           twice)) == [1, 0, 0]


def test_a_lost_pivot_pair_makes_the_routes_disagree(monkeypatch):
    """hodge_filtered_line(3, 4) has one pair, a unit d_1.  A reduction
    that misses it leaves both ends unpaired: no d_r survives, so the
    vanishing route says degenerate while the E_1 totals [1, 1] exceed
    H = [0, 0]."""
    fc = hodge_filtered_line(3, 4)
    real = specseq._pairs
    assert real(fc) == ([(0, 1, 0)], [])

    def lose_pairs(fc):
        pairs, essential = real(fc)
        return [], essential + [(a, n) for a, _, n in pairs] + [
            (b, n + 1) for _, b, n in pairs]

    monkeypatch.setattr(specseq, "_pairs", lose_pairs)
    with pytest.raises(AssertionError, match="degeneration routes disagree"):
        degenerates_at(fc, 1)


# -- the filtered reduction against the subquotient oracle -----------------


def _unit_filt(levels):
    """Spanning vectors of F^1 .. F^top for coordinate levels."""
    top = max((lv for lvl in levels for lv in lvl), default=0)
    return [[[[int(i == t) for t in range(len(lvl))]
              for i, lv in enumerate(lvl) if lv >= j] for lvl in levels]
            for j in range(1, top + 1)]


def _elementary_product(rng, dim, allowed, steps):
    """(M, M^-1) for a product of row additions e_i += c e_j over the
    pairs allowed(i, j), as integer row lists."""
    m = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inv = [row[:] for row in m]
    pairs = [(i, j) for i in range(dim) for j in range(dim)
             if i != j and allowed(i, j)]
    for _ in range(steps if pairs else 0):
        i, j = rng.choice(pairs)
        c = rng.choice((-2, -1, 1, 2, 3))
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        inv = [[row[t] - c * row[i] if t == j else row[t]
                for t in range(dim)] for row in inv]
    return m, inv


def _matmul(a, b, inner):
    return [[sum(a[i][t] * b[t][j] for t in range(inner))
             for j in range(len(b[0]) if b else 0)] for i in range(len(a))]


def _random_filtered(rng):
    """(levels, diffs) of a random coordinate-filtered complex: a sum of
    pairs d e = c e' (target level >= source level) and lone vectors,
    conjugated by a filtration-preserving change of basis per degree."""
    top_level = rng.randint(1, 3)
    dims = [rng.randint(0, 4) for _ in range(rng.randint(2, 4))]
    levels = [[rng.randint(0, top_level) for _ in range(d)] for d in dims]
    diffs = [[[0] * dims[n] for _ in range(dims[n + 1])]
             for n in range(len(dims) - 1)]
    used = [set() for _ in dims]
    for n in range(len(dims) - 1):
        for j in range(dims[n]):
            if j in used[n] or rng.random() < 0.3:
                continue
            free = [i for i in range(dims[n + 1]) if i not in used[n + 1]
                    and levels[n + 1][i] >= levels[n][j]]
            if free:
                i = rng.choice(free)
                diffs[n][i][j] = rng.choice((1, 2, 3, -1))
                used[n].add(j)
                used[n + 1].add(i)
    mats = [_elementary_product(
        rng, d, lambda i, j, lv=lv: lv[i] >= lv[j], 2 * d)
        for d, lv in zip(dims, levels)]
    diffs = [_matmul(_matmul(mats[n + 1][0], diffs[n], dims[n + 1]),
                     mats[n][1], dims[n])
             for n in range(len(dims) - 1)]
    return levels, diffs


def _assert_pages_match(fc, oracle):
    got = pages(fc)
    assert len(got) == len(oracle) == fc.n_levels() + 2
    for r, (pg, (entries, ranks)) in enumerate(zip(got, oracle)):
        assert pg.r == r
        assert pg.entries == entries, r
        assert pg.ranks == ranks, r


def test_pages_match_the_subquotient_oracle(subquotient_pages):
    """Seeded coordinate-filtered complexes over Q, F_2 and F_3."""
    rng = random.Random(PROPERTY_SEEDS["specseq"])
    nonzero_ranks = 0
    for fld in (QQ_R, FP(2), FP(3)):
        for _ in range(12):
            levels, diffs = _random_filtered(rng)
            dims = [len(lvl) for lvl in levels]
            filt = _unit_filt(levels)
            oracle = subquotient_pages(fld, dims, diffs, filt,
                                       len(filt) + 1)
            fc = FilteredComplex(
                fld, levels, [IntMat.from_rows(rows) if rows else
                              IntMat.zeros(0, dims[n])
                              for n, rows in enumerate(diffs)])
            _assert_pages_match(fc, oracle)
            nonzero_ranks += sum(len(ranks) for _, ranks in oracle[1:])
    # the seeded complexes exercise d_r for some r >= 1
    assert nonzero_ranks > 10


def test_bga_strand_pages_match_the_subquotient_oracle(subquotient_pages):
    """The B G_a weight strands w <= 4 that hdr --nmax 3 pages."""
    for w, strand in enumerate(stacks._bga_derham(3)[1]):
        if w > 4:
            break
        fc = stacks._bga_strand_filtered(strand)
        oracle = subquotient_pages(
            QQ_R, fc.dims, [m.to_rows() for m in strand.mats],
            _unit_filt(fc.levels), fc.n_levels() + 1)
        _assert_pages_match(fc, oracle)
