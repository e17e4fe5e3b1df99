from itertools import combinations
from math import gcd

import pytest

from hodgelab.exactlin import field_rank, field_rref


def _det(sq):
    n = len(sq)
    if n == 1:
        return sq[0][0]
    tot = 0
    for j in range(n):
        if sq[0][j]:
            sub = [row[:j] + row[j + 1:] for row in sq[1:]]
            tot += (-1) ** j * sq[0][j] * _det(sub)
    return tot


def _minor_divisors(rows):
    # d1...dk with d1...di = gcd of all i x i minors
    m = len(rows)
    n = len(rows[0]) if m else 0
    prev = 1
    out = []
    for k in range(1, min(m, n) + 1):
        g = 0
        for rs in combinations(range(m), k):
            for cs in combinations(range(n), k):
                sub = [[rows[i][j] for j in cs] for i in rs]
                g = gcd(g, _det(sub))
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return out


@pytest.fixture
def minor_divisors():
    """The invariant factors of a list of integer rows from its minors:
    an oracle independent of every elimination in hodgelab."""
    return _minor_divisors


# -- dense field helpers and the subquotient pages: test oracles -----------


def _field_kernel(rows, ncols, fld):
    """Right kernel basis (list of column vectors) of a rows x ncols map."""
    if ncols == 0:
        return []
    if not rows:
        basis = []
        for j in range(ncols):
            v = [fld.zero] * ncols
            v[j] = fld.one
            basis.append(v)
        return basis
    r, piv = field_rref(rows, ncols, fld)
    pivset = set(piv)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    for f in free:
        v = [fld.zero] * ncols
        v[f] = fld.one
        for i, c in enumerate(piv):
            v[c] = fld.sub(fld.zero, r[i][f])
        basis.append(v)
    return basis


def _field_solve(rows, ncols, rhs, fld):
    """Solve A x = rhs over the field; None if inconsistent."""
    m = len(rows)
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    r, piv = field_rref(aug, ncols + 1, fld)
    if ncols in piv:
        return None
    x = [fld.zero] * ncols
    for i, c in enumerate(piv):
        x[c] = r[i][ncols]
    return x


@pytest.fixture
def field_kernel():
    """Dense right kernel over a field ring (QQ_R or FP(p))."""
    return _field_kernel


@pytest.fixture
def field_solve():
    """Dense solution of A x = b over a field ring, or None."""
    return _field_solve


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


class _Subquotient:
    """A filtered complex in its given coordinates: dims, diffs[n] as
    rows over fld, filt[j][n] spanning F^(j+1) C^n."""

    def __init__(self, fld, dims, diffs, filt):
        self.fld = fld
        self.dims = list(dims)
        self.top = len(self.dims) - 1
        self.diffs = [[[fld.normalize(x) for x in row] for row in mat]
                      for mat in diffs]
        self.levels = [[_rref_basis([[fld.normalize(x) for x in v]
                                     for v in level[n]], self.dims[n], fld)
                        for n in range(self.top + 1)] for level in filt]

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

    def n_levels(self):
        return len(self.levels)


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
    ker = _field_kernel(rows, len(cols), fld)
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
    """(entries, ranks) of E_r from the subquotient formula, with d_r
    induced by d; both dicts list only nonzero values."""
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
    ranks = {}
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
            sol = _field_solve(sys_rows, len(t_reps) + len(t_bnd), w, fld)
            if sol is None:
                raise AssertionError("d_r image escaped the target entry")
            for i in range(len(t_reps)):
                mat[i][c] = sol[i]
        rank = field_rank(mat, len(chosen), fld)
        if rank:
            ranks[(s, n)] = rank
    return entries, ranks


@pytest.fixture
def subquotient_pages():
    """[(entries, ranks) of E_r for r = 0 .. r_max] of the complex
    (fld, dims, diffs, filt), each page from the subquotient formula
    Z_r / (Z_(r-1) + d Z_(r-1)) in the given coordinates: an oracle
    independent of the filtered reduction in hodgelab.specseq."""
    def pages(fld, dims, diffs, filt, r_max):
        fc = _Subquotient(fld, dims, diffs, filt)
        return [_page(fc, r) for r in range(r_max + 1)]
    return pages
