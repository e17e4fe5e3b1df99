"""Spectral sequences of filtered cochain complexes, computed exactly.

A FilteredComplex is a finite complex over Q or F_p together with a
decreasing exhaustive filtration, held in a basis adapted to it: every
basis vector of C^n carries a level l, and F^s C^n is spanned by the
vectors of level >= s.  Its maps are integer matrices read in a field
ring of :mod:`hodgelab.gralg`, ``fld``: QQ_R or FP(p).

Every page comes from one column reduction per map (Edelsbrunner,
Letscher and Zomorodian, "Topological persistence and simplification",
2002; Basu and Parida, "Spectral sequences, exact couples and persistent
homology of filtrations", 2017).  The columns of d: C^n -> C^(n+1) are
taken by level descending, each pivot is the column's lowest-level row,
and a column is only added into columns of equal or lower level.  A
pivot pair from level a to level b survives on the pages E_0 .. E_(b-a)
at both ends and adds 1 to the rank of d_(b-a) out of (a, n); a basis
vector in no pair survives to E_infinity.  The classical subquotient
formula

    Z_r^(s,n) = {x in F^s C^n : d x in F^(s+r)}
    E_r^(s,n) = Z_r^(s,n) / (Z_(r-1)^(s+1,n) + d Z_(r-1)^(s-r+1,n-1))

is kept in the tests as the oracle the pairs are checked against.

Degeneration verdicts run two independent routes (all higher
differentials vanish; page totals equal cohomology) and insist they
agree.
"""

from __future__ import annotations

from .exactlin import field_rank

__all__ = [
    "FiltrationNotPreserved", "FilteredComplex", "SSPage", "pages",
    "degenerates_at", "cohomology_dims",
]


class FiltrationNotPreserved(Exception):
    pass


class FilteredComplex:
    """Finite complex over the field ``fld``, filtered by coordinates.

    d^n = mats[n], an IntMat read in fld; basis vector i of C^n lies in
    exactly F^0 .. F^levels[n][i].  Raises ValueError unless fld is Q or
    F_p and d o d = 0 in fld, and FiltrationNotPreserved if an entry of
    d maps a level into a lower one.
    """

    def __init__(self, fld, levels, mats):
        if not fld.is_field():
            raise ValueError("coefficients must be Q or F_p")
        if len(mats) != len(levels) - 1:
            raise ValueError("need one differential per adjacent pair")
        cols = []
        for n, mat in enumerate(mats):
            lvl, tgt = levels[n], levels[n + 1]
            if mat.shape != (len(tgt), len(lvl)):
                raise ValueError("differential %d has the wrong shape" % n)
            if n and not all(fld.is_zero(v) for v in
                             mat.matmul(mats[n - 1]).entries.values()):
                raise ValueError("d does not square to zero")
            out = [{} for _ in lvl]
            for (i, j), v in mat.entries.items():
                x = fld.normalize(v)
                if not fld.is_zero(x):
                    if tgt[i] < lvl[j]:
                        raise FiltrationNotPreserved(
                            "d leaves level %d in degree %d" % (lvl[j], n))
                    out[j][i] = x
            cols.append(out)
        self.fld = fld
        self.levels = [list(lvl) for lvl in levels]
        self.dims = [len(lvl) for lvl in levels]
        self.top = len(self.dims) - 1
        self.diffs = cols
        self._n_levels = max((lv for lvl in levels for lv in lvl), default=0)

    def n_levels(self):
        return self._n_levels


class SSPage:
    """One page, keyed by (filtration index s, total degree n).

    entries[(s, n)] is dim E_r^(s,n) and ranks[(s, n)] the rank of
    d_r: E_r^(s,n) -> E_r^(s+r,n+1); both list only nonzero values."""

    def __init__(self, r, entries, ranks):
        self.r = r
        self.entries = entries
        self.ranks = ranks

    def dim(self, s, n):
        return self.entries.get((s, n), 0)

    def total(self, n):
        return sum(v for (s, m), v in self.entries.items() if m == n)


def _pairs(fc):
    """The filtered reduction: ([(a, b, n)], essential) with one
    (source level, target level, source degree) per pivot pair of
    d: C^n -> C^(n+1), and the (level, degree) of every basis vector in
    no pair."""
    fld = fc.fld
    pairs = []
    paired = set()
    for n, mat in enumerate(fc.diffs):
        lvl, tgt = fc.levels[n], fc.levels[n + 1]
        # a row's place in the target order (level descending): the
        # pivot of a column is its row of greatest place
        place = [(-lv, i) for i, lv in enumerate(tgt)]
        owner = {}
        for j in sorted(range(len(mat)), key=lambda j: (-lvl[j], j)):
            col = dict(mat[j])
            while col:
                piv = max(col, key=place.__getitem__)
                other = owner.get(piv)
                if other is None:
                    owner[piv] = col
                    pairs.append((lvl[j], tgt[piv], n))
                    paired.add((n, j))
                    paired.add((n + 1, piv))
                    break
                a = fld.neg(fld.div(col[piv], other[piv]))
                for i, v in other.items():
                    fld.add_to(col, i, a * v)
    essential = [(lv, n) for n, lvl in enumerate(fc.levels)
                 for i, lv in enumerate(lvl) if (n, i) not in paired]
    return pairs, essential


def pages(fc, r_max=None):
    """Pages E_0 .. E_r_max (default: levels + 1, where everything is
    stable), all read off one filtered reduction.

    >>> from hodgelab.exactlin import IntMat
    >>> from hodgelab.gralg import QQ_R
    >>> fc = FilteredComplex(QQ_R, [[0, 1], [0]], [IntMat.from_rows([[1, 0]])])
    >>> e = pages(fc)
    >>> [pg.total(n) for pg in e for n in range(fc.top + 1)]
    [2, 1, 1, 0, 1, 0]
    >>> [pg.ranks for pg in e]
    [{(0, 0): 1}, {}, {}]
    """
    if r_max is None:
        r_max = fc.n_levels() + 1
    pairs, essential = _pairs(fc)
    out = []
    for r in range(r_max + 1):
        entries, ranks = {}, {}
        for key in essential:
            entries[key] = entries.get(key, 0) + 1
        for a, b, n in pairs:
            if b - a >= r:
                for key in ((a, n), (b, n + 1)):
                    entries[key] = entries.get(key, 0) + 1
            if b - a == r:
                ranks[(a, n)] = ranks.get((a, n), 0) + 1
        out.append(SSPage(r, entries, ranks))
    return out


def cohomology_dims(fc):
    """Dimensions of H^n of the underlying complex over the field."""
    fld = fc.fld
    ranks = [field_rank([[col.get(i, fld.zero) for col in mat]
                         for i in range(fc.dims[n + 1])], fc.dims[n], fld)
             for n, mat in enumerate(fc.diffs)]
    return [dim - (ranks[n] if n < fc.top else 0) - (ranks[n - 1] if n else 0)
            for n, dim in enumerate(fc.dims)]


def degenerates_at(fc, r):
    """Does the sequence degenerate at page r?

    Two routes: (1) every d_r' for r' >= r vanishes, and (2) the page-r
    totals already equal the cohomology dimensions, which the verdict
    carries as "cohomology_dims".  The routes must agree or an
    AssertionError flags the engine itself.
    """
    stable = fc.n_levels() + 1
    pgs = pages(fc, max(r, stable))[r:]
    first_nonzero = next(((pg.r,) + key for pg in pgs
                          for key in sorted(pg.ranks)), None)
    by_vanishing = first_nonzero is None
    h = cohomology_dims(fc)
    by_dimension = all(pgs[0].total(n) == h[n] for n in range(fc.top + 1))
    if by_dimension != by_vanishing:
        raise AssertionError(
            "degeneration routes disagree: vanishing=%s dimension=%s"
            % (by_vanishing, by_dimension))
    return {
        "page": r,
        "degenerate": by_vanishing,
        "by_vanishing": by_vanishing,
        "by_dimension": by_dimension,
        "first_nonzero": first_nonzero,
        "cohomology_dims": h,
    }
