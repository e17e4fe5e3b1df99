"""Spectral sequences of filtered cochain complexes, computed exactly.

A FilteredComplex is a finite complex over Q, F_p or Z together with a
decreasing exhaustive filtration given by spanning vectors per level and
degree.  Pages come from the classical subquotient formula

    Z_r^(s,n) = {x in F^s C^n : d x in F^(s+r)}
    E_r^(s,n) = Z_r^(s,n) / (Z_(r-1)^(s+1,n) + d Z_(r-1)^(s-r+1,n-1))

with d_r induced by d.  Degeneration verdicts run two independent
routes over a field (all higher differentials vanish; page totals equal
cohomology) and insist they agree; over Z the pages are taken with
rational coefficients and only the vanishing route is reported.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import (GFp, QQ, field_kernel, field_rank, field_rref,
                       field_solve)
from .gralg import FP, QQ_R, ZZ

__all__ = [
    "FiltrationNotPreserved", "FilteredComplex", "SSPage", "pages",
    "degenerates_at", "cohomology_dims",
]


class FiltrationNotPreserved(Exception):
    pass


def _field_of(ring):
    if ring is ZZ or ring is QQ_R:
        return QQ
    if ring.char and ring.modulus == ring.char:
        return GFp(ring.p)
    raise ValueError("coefficients must be Z, Q or F_p")


def _rref_basis(vectors, ncols, fld):
    """Canonical basis (nonzero rref rows) of the span of the vectors."""
    if not vectors:
        return []
    rows, _ = field_rref(vectors, ncols, fld)
    return [r for r in rows if any(not fld.is_zero(x) for x in r)]


def _in_span(basis, vec, fld):
    if all(fld.is_zero(x) for x in vec):
        return True
    if not basis:
        return False
    n = len(vec)
    return field_rank(basis + [vec], n, fld) == len(basis)


class FilteredComplex:
    """Finite complex with a decreasing filtration by spanning vectors.

    dims[n] is the dimension of C^n; diffs[n] the matrix of
    d: C^n -> C^(n+1) as a list of rows; filt[j][n] spans F^(j+1) C^n
    (level 0 is the whole complex, levels beyond the last are zero).
    Raises FiltrationNotPreserved unless d(F^j) stays inside F^j and
    the levels are nested.
    """

    def __init__(self, ring, dims, diffs, filt):
        self.ring = ring
        self.fld = _field_of(ring)
        fld = self.fld
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.diffs = []
        for n, mat in enumerate(diffs):
            rows = [[fld.make(x) for x in row] for row in mat]
            want_rows = self.dims[n + 1]
            if len(rows) != want_rows or any(
                    len(r) != self.dims[n] for r in rows):
                raise ValueError("differential %d has the wrong shape" % n)
            self.diffs.append(rows)
        if len(self.diffs) != self.top:
            raise ValueError("need one differential per adjacent pair")
        for n in range(self.top - 1):
            for col in range(self.dims[n]):
                v = [row[col] for row in self.diffs[n]]
                w = self._apply_d(n + 1, v)
                if any(not fld.is_zero(x) for x in w):
                    raise ValueError("d does not square to zero")
        # normalize filtration levels: list over j of per-degree bases
        self.levels = []
        for level in filt:
            per_deg = []
            for n in range(self.top + 1):
                vecs = [[fld.make(x) for x in v] for v in level[n]]
                if any(len(v) != self.dims[n] for v in vecs):
                    raise ValueError("filtration vector length mismatch")
                per_deg.append(_rref_basis(vecs, self.dims[n], fld))
            self.levels.append(per_deg)
        self._validate()

    def _apply_d(self, n, vec):
        fld = self.fld
        if n >= self.top:
            return []
        out = []
        for row in self.diffs[n]:
            acc = fld.zero
            for a, b in zip(row, vec):
                acc = fld.add(acc, fld.mul(a, b))
            out.append(acc)
        return out

    def f_basis(self, j, n):
        """Canonical basis of F^j C^n (full below 1, zero past the end)."""
        if n < 0 or n > self.top:
            return []
        if j <= 0:
            eye = []
            for i in range(self.dims[n]):
                v = [self.fld.zero] * self.dims[n]
                v[i] = self.fld.one
                eye.append(v)
            return eye
        if j > len(self.levels):
            return []
        return self.levels[j - 1][n]

    def _validate(self):
        fld = self.fld
        for j in range(1, len(self.levels) + 1):
            for n in range(self.top + 1):
                outer = self.f_basis(j - 1, n)
                for v in self.f_basis(j, n):
                    if not _in_span(outer, v, fld):
                        raise FiltrationNotPreserved(
                            "level %d is not inside level %d in degree %d"
                            % (j, j - 1, n))
                tgt = self.f_basis(j, n + 1)
                for v in self.f_basis(j, n):
                    w = self._apply_d(n, v)
                    if w and not _in_span(tgt, w, fld):
                        raise FiltrationNotPreserved(
                            "d leaves level %d in degree %d" % (j, n))

    def n_levels(self):
        return len(self.levels)


class SSPage:
    """One page: entry dims and induced differentials, keyed by
    (filtration index s, total degree n)."""

    def __init__(self, r, entries, diffs):
        self.r = r
        self.entries = entries
        self.diffs = diffs

    def dim(self, s, n):
        return self.entries.get((s, n), 0)

    def total(self, n):
        return sum(v for (s, m), v in self.entries.items() if m == n)


def _mat_is_zero(rows):
    return all(all(x == 0 or x == Fraction(0) for x in r) for r in rows)


def _z_space(fc, s, r, n):
    """Basis of Z_r^(s,n) = {x in F^s C^n : d x in F^(s+r)}."""
    fld = fc.fld
    if n < 0 or n > fc.top:
        return []
    gens = fc.f_basis(s, n)
    if not gens:
        return []
    tgt = fc.f_basis(s + r, n + 1)
    if n == fc.top:
        return list(gens)
    m = fc.dims[n + 1]
    # solve (d G) c + T y = 0; the c-parts span the solutions
    cols = []
    for g in gens:
        cols.append(fc._apply_d(n, g))
    for t in tgt:
        cols.append(t)
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(m)]
    ker = field_kernel(rows, len(cols), fld)
    out = []
    for kv in ker:
        vec = [fld.zero] * fc.dims[n]
        for ci, g in enumerate(gens):
            c = kv[ci]
            if fld.is_zero(c):
                continue
            vec = [fld.add(a, fld.mul(c, b)) for a, b in zip(vec, g)]
        out.append(vec)
    return _rref_basis(out, fc.dims[n], fld)


def _boundary_space(fc, s, r, n):
    """Basis of Z_(r-1)^(s+1,n) + d Z_(r-1)^(s-r+1,n-1)."""
    fld = fc.fld
    vecs = list(_z_space(fc, s + 1, r - 1, n))
    for z in _z_space(fc, s - r + 1, r - 1, n - 1):
        vecs.append(fc._apply_d(n - 1, z))
    return _rref_basis(vecs, fc.dims[n], fld)


def _page(fc, r):
    fld = fc.fld
    smax = fc.n_levels()
    entries = {}
    reps = {}
    bnds = {}
    for n in range(fc.top + 1):
        for s in range(0, smax + 1):
            z = _z_space(fc, s, r, n)
            b = _boundary_space(fc, s, r, n)
            chosen = []
            cur = list(b)
            for v in z:
                if not _in_span(cur, v, fld):
                    chosen.append(v)
                    cur = _rref_basis(cur + [v], fc.dims[n], fld)
            if chosen:
                entries[(s, n)] = len(chosen)
            reps[(s, n)] = chosen
            bnds[(s, n)] = b
    diffs = {}
    for (s, n), chosen in reps.items():
        if not chosen:
            continue
        t_reps = reps.get((s + r, n + 1), [])
        t_bnd = bnds.get((s + r, n + 1), [])
        if not t_reps:
            if any(not _in_span(t_bnd, fc._apply_d(n, v), fld)
                   for v in chosen if n < fc.top):
                raise AssertionError("d_r image escaped the target entry")
            continue
        mat = [[fld.zero] * len(chosen) for _ in t_reps]
        ncols_t = fc.dims[n + 1]
        sys_rows = [[(t_reps + t_bnd)[j][i] for j in range(len(t_reps)
                                                           + len(t_bnd))]
                    for i in range(ncols_t)]
        for c, v in enumerate(chosen):
            w = fc._apply_d(n, v)
            sol = field_solve(sys_rows, len(t_reps) + len(t_bnd), w, fld)
            if sol is None:
                raise AssertionError("d_r image escaped the target entry")
            for i in range(len(t_reps)):
                mat[i][c] = sol[i]
        if not _mat_is_zero(mat):
            diffs[(s, n)] = mat
    return SSPage(r, entries, diffs)


def pages(fc, r_max=None):
    """Pages E_0 .. E_r_max (default: levels + 1, where everything is
    stable)."""
    if r_max is None:
        r_max = fc.n_levels() + 1
    return [_page(fc, r) for r in range(0, r_max + 1)]


def cohomology_dims(fc):
    """Dimensions of H^n of the underlying complex over the field
    (rational dimensions when the ring is Z)."""
    fld = fc.fld
    out = []
    for n in range(fc.top + 1):
        if n < fc.top:
            cols = fc.dims[n]
            rows = fc.diffs[n]
            rk_out = field_rank(rows, cols, fld) if rows else 0
        else:
            rk_out = 0
        if n > 0:
            rk_in = (field_rank(fc.diffs[n - 1], fc.dims[n - 1], fld)
                     if fc.diffs[n - 1] else 0)
        else:
            rk_in = 0
        out.append(fc.dims[n] - rk_out - rk_in)
    return out


def degenerates_at(fc, r):
    """Does the sequence degenerate at page r?

    Two routes over a field: (1) every d_r' for r' >= r vanishes, and
    (2) the page-r totals already equal the cohomology dimensions.  The
    routes must agree or an AssertionError flags the engine itself.
    Over Z only route (1) runs (with rational pages) and the dimension
    verdict is None.
    """
    stable = fc.n_levels() + 1
    top_page = max(r, stable)
    pgs = {rr: _page(fc, rr) for rr in range(r, top_page + 1)}
    first_nonzero = None
    for rr in sorted(pgs):
        for key, mat in sorted(pgs[rr].diffs.items()):
            if not _mat_is_zero(mat):
                first_nonzero = (rr, key[0], key[1])
                break
        if first_nonzero:
            break
    by_vanishing = first_nonzero is None
    by_dimension = None
    if fc.ring is not ZZ:
        h = cohomology_dims(fc)
        by_dimension = all(pgs[r].total(n) == h[n]
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
