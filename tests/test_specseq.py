"""Filtered complexes and their pages."""

import pytest

from hodgelab.derham import DgaForms, filtration
from hodgelab.gralg import FP, QQ_R, ZZ
from hodgelab.specseq import (
    FilteredComplex, FiltrationNotPreserved, cohomology_dims,
    degenerates_at, pages,
)


def hodge_filtered_line(p, w):
    """De Rham strand of F_p[x] in weight w with its Hodge filtration."""
    base = DgaForms(FP(p), [("x", 1)])
    d0 = base.strand_matrix(0, w)
    dims = [d0.ncols, d0.nrows]
    rows = [[d0.entries.get((i, j), 0) for j in range(d0.ncols)]
            for i in range(d0.nrows)]
    full1 = [[1 if i == j else 0 for j in range(dims[1])]
             for i in range(dims[1])]
    filt = [[[], full1]]  # F^1 = Omega^{>=1}
    return FilteredComplex(FP(p), dims, [rows], filt)


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
    st = filtration(base, "conjugate", 0, w)
    ker = st.embeddings[0]
    d0 = base.strand_matrix(0, w)
    dims = [d0.ncols, d0.nrows]
    rows = [[d0.entries.get((i, j), 0) for j in range(d0.ncols)]
            for i in range(d0.nrows)]
    # decreasing reindex of the rising truncation: F^1 = tau^{<=0}
    lvl0 = [[ker.get(i, j) for i in range(ker.shape[0])]
            for j in range(ker.shape[1])]
    fc = FilteredComplex(FP(p), dims, [rows], [[lvl0, []]])
    verdict = degenerates_at(fc, 1)
    assert verdict["degenerate"] is True


def test_unpreserved_filtration_rejected():
    with pytest.raises(FiltrationNotPreserved):
        FilteredComplex(QQ_R, [1, 1], [[[1]]], [[[[1]], []]])


def test_nested_levels_enforced():
    # F^2 not inside F^1
    with pytest.raises(FiltrationNotPreserved):
        FilteredComplex(
            QQ_R, [2, 0], [[]],
            [[[[1, 0]], []], [[[0, 1]], []]])


def test_integer_route_reports_vanishing_only():
    fc = FilteredComplex(ZZ, [1, 1], [[[2]]], [])
    verdict = degenerates_at(fc, 1)
    assert verdict["degenerate"] is True
    assert verdict["by_dimension"] is None
    assert cohomology_dims(fc) == [0, 0]


def test_two_step_rational_example():
    # 0 -> Q^2 -> Q -> 0 with d = (1 0); F^1 = span{e2} + 0
    fc = FilteredComplex(
        QQ_R, [2, 1], [[[1, 0]]], [[[[0, 1]], []]])
    assert cohomology_dims(fc) == [1, 0]
    pgs = pages(fc)
    assert pgs[1].total(0) == 1
    assert degenerates_at(fc, 1)["degenerate"] is True


def test_e0_is_graded_complex():
    fc = hodge_filtered_line(5, 10)
    e0 = pages(fc, 0)[0]
    assert e0.dim(0, 0) == 1
    assert e0.dim(1, 1) == 1
