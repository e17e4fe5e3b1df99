"""Spectral sequences of filtered cochain complexes, computed exactly.

A FilteredComplex is a finite complex over Q, F_p or Z together with a
decreasing exhaustive filtration, held in a basis adapted to it: every
basis vector of C^n carries a level l, and F^s C^n is spanned by the
vectors of level >= s.  Its entries lie in a field ring of
:mod:`hodgelab.gralg`, ``fld``: QQ_R over Z and Q, FP(p) over F_p.  It
is built from a level per coordinate
(:meth:`FilteredComplex.from_levels`) or from spanning vectors per level
and degree, in which case d is rewritten once in an adapted basis.

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

Degeneration verdicts run two independent routes over a field (all
higher differentials vanish; page totals equal cohomology) and insist
they agree; over Z the pages are taken with rational coefficients and
only the vanishing route is reported.
"""

from __future__ import annotations

from .exactlin import field_rank
from .gralg import QQ_R, ZZ

__all__ = [
    "FiltrationNotPreserved", "FilteredComplex", "SSPage", "pages",
    "degenerates_at", "cohomology_dims",
]


class FiltrationNotPreserved(Exception):
    pass


def _field_of(ring):
    # over Z the pages are taken with rational coefficients
    fld = QQ_R if ring is ZZ else ring
    if not fld.is_field():
        raise ValueError("coefficients must be Z, Q or F_p")
    return fld


def _axpy(fld, y, a, x):
    """y += a x for sparse vectors {index: value}, dropping zeros."""
    for i, v in x.items():
        s = fld.add(y.get(i, fld.zero), fld.mul(a, v))
        if fld.is_zero(s):
            y.pop(i, None)
        else:
            y[i] = s


def _reduce(fld, vec, echelon):
    """Reduce vec against echelon, a list of (pivot, row) in the order
    added, each row zero at every earlier pivot.  Returns the coordinates
    {k: c} with vec = sum c row_k + rest, and rest."""
    rest = dict(vec)
    coords = {}
    for k, (piv, row) in enumerate(echelon):
        c = rest.get(piv)
        if c is not None:
            c = fld.div(c, row[piv])
            coords[k] = c
            _axpy(fld, rest, fld.neg(c), row)
    return coords, rest


class FilteredComplex:
    """Finite complex with a decreasing filtration by spanning vectors.

    dims[n] is the dimension of C^n; diffs[n] the matrix of
    d: C^n -> C^(n+1) as a list of rows; filt[j][n] spans F^(j+1) C^n
    (level 0 is the whole complex, levels beyond the last are zero).
    Raises ValueError unless d o d = 0, and FiltrationNotPreserved unless
    the levels are nested and d(F^j) stays inside F^j.
    """

    def __init__(self, ring, dims, diffs, filt):
        fld = _field_of(ring)
        dims = list(dims)
        cols = []
        for n, mat in enumerate(diffs):
            rows = [[fld.normalize(x) for x in row] for row in mat]
            if len(rows) != dims[n + 1] or any(
                    len(r) != dims[n] for r in rows):
                raise ValueError("differential %d has the wrong shape" % n)
            cols.append([{i: row[j] for i, row in enumerate(rows)
                          if not fld.is_zero(row[j])}
                         for j in range(dims[n])])
        if len(cols) != len(dims) - 1:
            raise ValueError("need one differential per adjacent pair")
        _check_square_zero(fld, cols)
        # adapted basis per degree, built from the top level down: each
        # level's spanning vectors extend the basis of the level above
        levels, bases = [], []
        for n, dim in enumerate(dims):
            echelon, lvl = [], []
            for j in range(len(filt), -1, -1):
                if j:
                    vecs = [[fld.normalize(x) for x in v] for v in filt[j - 1][n]]
                    if any(len(v) != dim for v in vecs):
                        raise ValueError("filtration vector length mismatch")
                else:
                    vecs = [[fld.one if i == t else fld.zero
                             for t in range(dim)] for i in range(dim)]
                for v in vecs:
                    _, rest = _reduce(fld, {i: x for i, x in enumerate(v)
                                            if not fld.is_zero(x)}, echelon)
                    if rest:
                        echelon.append((min(rest), rest))
                        lvl.append(j)
                if j and len(echelon) != field_rank(vecs, dim, fld):
                    raise FiltrationNotPreserved(
                        "level %d is not inside level %d in degree %d"
                        % (j + 1, j, n))
            levels.append(lvl)
            bases.append(echelon)
        # d in the adapted bases: apply d to each basis vector of C^n and
        # read off its coordinates in the basis of C^(n+1)
        adapted = []
        for n, mat in enumerate(cols):
            out = []
            for _, vec in bases[n]:
                img = {}
                for j, x in vec.items():
                    _axpy(fld, img, x, mat[j])
                out.append(_reduce(fld, img, bases[n + 1])[0])
            adapted.append(out)
        self._setup(ring, fld, levels, adapted, len(filt))

    @classmethod
    def from_levels(cls, ring, levels, mats):
        """The complex with d^n = mats[n] (an IntMat), filtered by
        coordinates: basis vector i of C^n lies in exactly F^0 ..
        F^levels[n][i].  Raises ValueError unless d o d = 0, and
        FiltrationNotPreserved if an entry of d maps a level into a
        lower one."""
        fld = _field_of(ring)
        if len(mats) != len(levels) - 1:
            raise ValueError("need one differential per adjacent pair")
        cols = []
        for n, mat in enumerate(mats):
            if mat.shape != (len(levels[n + 1]), len(levels[n])):
                raise ValueError("differential %d has the wrong shape" % n)
            out = [{} for _ in levels[n]]
            for (i, j), v in mat.entries.items():
                x = fld.normalize(v)
                if not fld.is_zero(x):
                    out[j][i] = x
            cols.append(out)
        _check_square_zero(fld, cols)
        top = max((lv for lvl in levels for lv in lvl), default=0)
        fc = cls.__new__(cls)
        fc._setup(ring, fld, [list(lvl) for lvl in levels], cols, top)
        return fc

    def _setup(self, ring, fld, levels, cols, n_levels):
        for n, mat in enumerate(cols):
            for j, col in enumerate(mat):
                if any(levels[n + 1][i] < levels[n][j] for i in col):
                    raise FiltrationNotPreserved(
                        "d leaves level %d in degree %d" % (levels[n][j], n))
        self.ring = ring
        self.fld = fld
        self.levels = levels
        self.dims = [len(lvl) for lvl in levels]
        self.top = len(self.dims) - 1
        self.diffs = cols
        self._n_levels = n_levels

    def n_levels(self):
        return self._n_levels


def _check_square_zero(fld, cols):
    for n in range(len(cols) - 1):
        for col in cols[n]:
            img = {}
            for i, x in col.items():
                _axpy(fld, img, x, cols[n + 1][i])
            if img:
                raise ValueError("d does not square to zero")


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
                _axpy(fld, col, fld.neg(fld.div(col[piv], other[piv])),
                      other)
    essential = [(lv, n) for n, lvl in enumerate(fc.levels)
                 for i, lv in enumerate(lvl) if (n, i) not in paired]
    return pairs, essential


def pages(fc, r_max=None):
    """Pages E_0 .. E_r_max (default: levels + 1, where everything is
    stable), all read off one filtered reduction.

    >>> fc = FilteredComplex(QQ_R, [2, 1], [[[1, 0]]], [[[[0, 1]], []]])
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
    """Dimensions of H^n of the underlying complex over the field
    (rational dimensions when the ring is Z)."""
    fld = fc.fld
    ranks = [field_rank([[col.get(i, fld.zero) for col in mat]
                         for i in range(fc.dims[n + 1])], fc.dims[n], fld)
             for n, mat in enumerate(fc.diffs)]
    return [dim - (ranks[n] if n < fc.top else 0) - (ranks[n - 1] if n else 0)
            for n, dim in enumerate(fc.dims)]


def degenerates_at(fc, r):
    """Does the sequence degenerate at page r?

    Two routes over a field: (1) every d_r' for r' >= r vanishes, and
    (2) the page-r totals already equal the cohomology dimensions.  The
    routes must agree or an AssertionError flags the engine itself.
    Over Z only route (1) runs (with rational pages) and the dimension
    verdict is None.
    """
    stable = fc.n_levels() + 1
    pgs = pages(fc, max(r, stable))[r:]
    first_nonzero = next(((pg.r,) + key for pg in pgs
                          for key in sorted(pg.ranks)), None)
    by_vanishing = first_nonzero is None
    by_dimension = None
    if fc.ring is not ZZ:
        h = cohomology_dims(fc)
        by_dimension = all(pgs[0].total(n) == h[n]
                           for n in range(fc.top + 1))
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
    }
