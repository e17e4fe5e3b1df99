"""Exact linear algebra over Z, F_p and Q.

Everything here is exact: integer work uses arbitrary-precision ints and
Smith normal forms, computed modulo twice a nonsingular minor's
determinant, or twice a caller's multiple of the product of the
invariant factors, so that no entry outgrows it; rational work uses
Fractions.  One sparse elimination engine, exact over Z or mod any
modulus in Python ints, gives the rank mod p (:func:`fp_rank_sparse`),
the saturated integer kernel (:func:`kernel_basis`), the Smith unit
pass, the fraction-free minor determinant and the level-by-level
diagonal mod each coprime part of N; :func:`fp_rref`, the leftmost-pivot
reduced echelon form, gives pivot columns, kernels and solutions mod p.
No floating point is ever produced.

:meth:`IntMat.from_images` is the one way a map becomes a matrix: every
differential and structure map in the package is read from its source
basis, its target basis and the {key: coeff} image of each source key,
and a nonzero term off the target basis always raises.

The central consumer-facing pieces are

* :func:`smith_normal_form` -- the diagonal D of the Smith form, its
  nonzero entries forming a divisibility chain d1 | d2 | ...;
* :func:`complex_cohomology` -- every degree of one complex at once,
  over Z, Q or F_p, the one place that picks the route for each ring.
  Over Z it certifies each map's rank once, from lower bounds (the
  caller's, a nonzero map's 1, the rank mod one prime) that meet the
  d o d = 0 upper bounds, with an exact kernel only where no such chain
  closes, and takes each map's Smith form once from that rank; over Q
  each degree is the rank of the group over Z; over F_p it ranks each
  map once.  One pair's quotient ker(d_out)/im(d_in) is degree 1 of the
  two-map complex;
* :func:`cohomology_of_pair` -- that quotient over Z, as a finitely
  generated abelian group.

>>> m = IntMat.from_rows([[2, 4], [6, 8]])
>>> smith_normal_form(m).diagonal()
[2, 4]
"""

from __future__ import annotations

import heapq
from math import gcd

from .gralg import QQ_R, ZZ, _is_prime


class ExactLinError(Exception):
    pass


class CompositionNonzero(ExactLinError):
    """d_out @ d_in != 0 where a cochain pair was required."""


def _divisor_chain(values):
    # Normalise a multiset of nonzero integers into the invariant-factor
    # chain with the same product structure, without factoring anything.
    vals = [abs(int(v)) for v in values if abs(int(v)) != 1]
    if any(v == 0 for v in vals):
        raise ValueError("torsion divisors must be nonzero")
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if b % a != 0:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
        vals = [v for v in vals if v != 1]
        vals.sort()
    return tuple(vals)


class AbGroup:
    """A finitely generated abelian group Z^rank x prod Z/d_i.

    Torsion coefficients are stored as a divisibility chain with every
    entry >= 2.

    >>> AbGroup(1, (2, 4))
    AbGroup(rank=1, torsion=(2, 4))
    >>> AbGroup(0, (6, 4)).torsion     # renormalised to a chain
    (2, 12)
    """

    __slots__ = ("rank", "torsion")

    def __init__(self, rank, torsion=()):
        if rank < 0:
            raise ValueError("rank must be >= 0")
        self.rank = int(rank)
        self.torsion = _divisor_chain(torsion)

    def torsion_count(self, p):
        """Number of cyclic summands with order divisible by p."""
        return sum(1 for d in self.torsion if d % p == 0)

    def __eq__(self, other):
        return (isinstance(other, AbGroup) and self.rank == other.rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def __repr__(self):
        return "AbGroup(rank=%d, torsion=%s)" % (self.rank, self.torsion)

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " + ".join(parts) if parts else "0"


class IntMat:
    """Sparse integer matrix with explicit shape.

    Entries live in a dict keyed by (row, col); zero entries are absent.
    Columns are understood as images of source basis vectors.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows, ncols, entries=None):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.entries = {}
        if entries:
            for (i, j), v in entries.items():
                v = int(v)
                if v:
                    if not (0 <= i < self.nrows and 0 <= j < self.ncols):
                        raise IndexError("entry out of shape")
                    self.entries[(i, j)] = v

    @classmethod
    def _built(cls, nrows, ncols, entries):
        # a matrix on an entries dict that is in shape, nonzero and int by
        # construction, taken as it is rather than copied by __init__
        mat = cls(nrows, ncols)
        mat.entries = entries
        return mat

    @classmethod
    def from_rows(cls, rows):
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if int(v):
                    ent[(i, j)] = int(v)
        return cls._built(nr, nc, ent)

    @classmethod
    def identity(cls, n):
        return cls._built(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(nrows, ncols)

    @classmethod
    def from_images(cls, src, tgt, image):
        """The matrix of a map from the basis src to the basis tgt.

        Column j is image(src[j]), a {key: coeff} dict read in tgt: row
        i holds the coefficient of tgt[i].  A nonzero coefficient on a
        key that is not in tgt raises AssertionError: a truncated model
        must be closed under its own maps.

        >>> shift = lambda n: {n: 2, n + 1: 1}
        >>> IntMat.from_images([0, 1], [0, 1, 2], shift).to_rows()
        [[2, 0], [1, 2], [0, 1]]
        >>> IntMat.from_images([0, 1], [0, 1], shift)
        Traceback (most recent call last):
        ...
        AssertionError: the image of 1 leaves the target basis at 2
        """
        row = {key: i for i, key in enumerate(tgt)}
        entries = {}
        for j, s in enumerate(src):
            for key, c in image(s).items():
                if not c:
                    continue
                i = row.get(key)
                if i is None:
                    raise AssertionError(
                        "the image of %r leaves the target basis at %r"
                        % (s, key))
                entries[i, j] = int(c)
        return cls._built(len(tgt), len(src), entries)

    @classmethod
    def from_columns(cls, cols, nrows):
        ent = {}
        for j, col in enumerate(cols):
            for i, v in col.items() if isinstance(col, dict) else enumerate(col):
                if int(v):
                    if not 0 <= i < nrows:
                        raise IndexError("entry out of shape")
                    ent[(i, j)] = int(v)
        return cls._built(nrows, len(cols), ent)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def is_zero(self):
        return not self.entries

    def get(self, i, j):
        return self.entries.get((i, j), 0)

    def columns(self):
        cols = [dict() for _ in range(self.ncols)]
        for (i, j), v in self.entries.items():
            cols[j][i] = v
        return cols

    def to_rows(self):
        rows = [[0] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def transpose(self):
        return IntMat._built(self.ncols, self.nrows,
                             {(j, i): v for (i, j), v in self.entries.items()})

    def diagonal(self):
        return [self.get(t, t) for t in range(min(self.nrows, self.ncols))
                if self.get(t, t) != 0]

    def matmul(self, other):
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        by_col = [dict() for _ in range(other.ncols)]
        for (k, j), v in other.entries.items():
            by_col[j][k] = v
        by_row = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(k, []).append((i, v))
        ent = {}
        for j in range(other.ncols):
            acc = {}
            for k, w in by_col[j].items():
                for i, v in by_row.get(k, ()):
                    acc[i] = acc.get(i, 0) + v * w
            for i, v in acc.items():
                if v:
                    ent[(i, j)] = v
        return IntMat._built(self.nrows, other.ncols, ent)

    def __eq__(self, other):
        return (isinstance(other, IntMat) and self.shape == other.shape
                and self.entries == other.entries)

    def __repr__(self):
        return "IntMat(%d x %d, %d nonzero)" % (self.nrows, self.ncols,
                                                len(self.entries))


_RANK_PRIMES = (2147483647, 998244353)


class _SchurWork:
    # The one sparse elimination engine: rows {i: {j: v}} with a column
    # index and a lazy heap of row lengths.  Entries are exact over Z, or
    # residues mod `modulus` when one is given.  Rank mod p, the integer
    # kernel, the Smith unit pass, the minor determinant and the levels
    # mod each coprime part of N all drive it.

    def __init__(self, entries, modulus=None):
        self.mod = modulus
        self.rows, self.cols = rows, cols = {}, {}
        for (i, j), v in entries.items():
            v = v % modulus if modulus else v
            if v:
                row = rows.get(i)
                if row is None:
                    row = rows[i] = {}
                row[j] = v
                col = cols.get(j)
                if col is None:
                    col = cols[j] = set()
                col.add(i)
        self.heap = [(len(row), i) for i, row in self.rows.items()]
        heapq.heapify(self.heap)

    def shortest_row(self):
        # a shortest nonzero row not popped since it last changed, or None
        while self.heap:
            size, i = heapq.heappop(self.heap)
            row = self.rows.get(i)
            if row is not None and len(row) == size:
                return i
        return None

    def _set_row(self, i, new):
        old = self.rows.pop(i, {})
        for j in old.keys() - new.keys():
            self.cols[j].discard(i)
        for j in new.keys() - old.keys():
            self.cols.setdefault(j, set()).add(i)
        if new:
            self.rows[i] = new
            heapq.heappush(self.heap, (len(new), i))

    def _combine(self, a, x, b, y):
        # the row a*x + b*y, mod the modulus when there is one
        out = {}
        for j in x.keys() | y.keys():
            v = a * x.get(j, 0) + b * y.get(j, 0)
            v = v % self.mod if self.mod else v
            if v:
                out[j] = v
        return out

    def pivot_out(self, i0, j0, factor):
        # Schur complement on the pivot (i0, j0): every other row i with
        # b = row_i[j0] becomes row_i - factor(b) * row_i0, which clears
        # column j0; row i0 then holds the only entry of column j0, so
        # column operations clear the rest of it without touching any
        # other row, and it is dropped
        rows, cols, mod, heap = self.rows, self.cols, self.mod, self.heap
        prow = rows.pop(i0)
        others = [(j, v) for j, v in prow.items() if j != j0]
        for j, _ in others:
            cols[j].discard(i0)
        pivot_col = cols.pop(j0)
        pivot_col.discard(i0)
        for i in pivot_col:
            row = rows[i]
            q = factor(row.pop(j0))
            for j, v in others:
                nv = row.get(j, 0) - q * v
                nv = nv % mod if mod else nv
                if nv:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = nv
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
            if row:
                heapq.heappush(heap, (len(row), i))
            else:
                del rows[i]

    def sub_col(self, j, j0, q):
        # column j -= q * column j0, which changes only column j0's rows
        for i in self.cols[j0]:
            row = self.rows[i]
            nv = row.get(j, 0) - q * row[j0]
            nv = nv % self.mod if self.mod else nv
            if nv:
                if j not in row:
                    self.cols.setdefault(j, set()).add(i)
                    heapq.heappush(self.heap, (len(row) + 1, i))
                row[j] = nv
            elif j in row:
                del row[j]
                self.cols[j].discard(i)
                heapq.heappush(self.heap, (len(row), i))

    def pivot_out_exact(self, i0, j0):
        # fraction-free Schur step over Z on the pivot (i0, j0): every other
        # row i with b = row_i[j0] becomes (s*row_i - q*row_i0)/c, with
        # s/q = a/b in lowest terms for a = row_i0[j0] and c the content
        # of the result.  Row i0 is dropped, and {i: (s, c)} returned
        prow = self.rows[i0]
        a = prow[j0]
        self._set_row(i0, {})
        scaled = {}
        for i in list(self.cols[j0]):
            row = self.rows[i]
            b = row[j0]
            g = gcd(a, b)
            s, q = a // g, b // g
            new = self._combine(s, row, -q, prow)
            c = gcd(*new.values()) if new else 1
            if c != 1:
                new = {j: v // c for j, v in new.items()}
            self._set_row(i, new)
            scaled[i] = (s, c)
        del self.cols[j0]
        return scaled

    def divide(self, f):
        # every entry and the modulus are multiples of f: divide them by f,
        # and queue every row again
        self.mod //= f
        for row in self.rows.values():
            for j in row:
                row[j] //= f
        self.heap = [(len(row), i) for i, row in self.rows.items()]
        heapq.heapify(self.heap)


def _minor_abs_det(mat, cols):
    # (|det|, rows) of a nonsingular r x r minor of mat on the r given
    # columns, which must be independent over Q: sparse fraction-free
    # elimination on mat[:, cols], a shortest row's sparsest column first.
    # Each updated row is divided by its content, and each row keeps the
    # factor a/h by which it has been scaled; the factor leaves the
    # determinant, num/den, only when the row becomes a pivot
    index = {j: k for k, j in enumerate(cols)}
    work = _SchurWork({(i, index[j]): v for (i, j), v in mat.entries.items()
                       if j in index})
    num = den = 1
    scale, rows = {}, []
    while (i := work.shortest_row()) is not None:
        row = work.rows[i]
        j = min(row, key=lambda c: (len(work.cols[c]), c))
        a, h = scale.pop(i, (1, 1))
        num, den = num * abs(row[j]) * h, den * a
        for k, (s, c) in work.pivot_out_exact(i, j).items():
            if abs(s) != c:
                a, h = scale.get(k, (1, 1))
                scale[k] = (a * abs(s), h * c)
        rows.append(i)
    det, rest = divmod(num, den)
    if len(rows) != len(cols) or rest:
        raise ExactLinError("the columns of the minor are dependent")
    return det, sorted(rows)


_SMALL_PRIMES = tuple(filter(_is_prime, range(2, 1 << 10)))


def _strip(n, g):
    # (q, n // q) for q the part of n on the primes of g
    q = 1
    while (c := gcd(n, g)) > 1:
        n, q = n // c, q * c
    return q, n


def _coprime_parts(n):
    # n > 0 as pairwise coprime factors (base, part): the full power of
    # each prime below 2^10 that divides it, based at that prime, then
    # the cofactor, based at itself, if it is not 1
    parts = []
    for f in _SMALL_PRIMES:
        if n % f == 0:
            q, n = _strip(n, f)
            parts.append((f, q))
    return parts + [(n, n)] if n > 1 else parts


def _local_diagonal(entries, base, part):
    # (gcd(pivot, part) for each pivot of a diagonalisation over Z/part,
    # None), for a base whose primes are those of part, level by level:
    # at level t every entry is a multiple of t, held divided by it mod
    # part / t.  Each entry prime to base is a unit there and is pivoted
    # out as the pivot t; once none is left, base is cut to its gcd with
    # the modulus, and what remains is divided by it for the next level.
    # The loop ends when nothing is left, which for a matrix of rank r is
    # once r pivots are found: a pivot past r is a rank too low, for the
    # caller to refuse.  A row with no unit but an entry whose gcd g with
    # base is neither 1 nor base splits base instead: (None, g) is
    # returned, for the caller to diagonalise the factor of part on g's
    # primes and the rest of part apart
    work = _SchurWork(entries, part)
    found, level = [], 1
    while True:
        while (i := work.shortest_row()) is not None:
            row = work.rows[i]
            units = [j for j, v in row.items() if gcd(v, base) == 1]
            if units:
                j = min(units, key=lambda c: (len(work.cols[c]), c))
                inv = pow(row[j], -1, work.mod)
                work.pivot_out(i, j, lambda b: b * inv)
                found.append(level)
                continue
            for v in row.values():
                if (g := gcd(v, base)) != base:
                    return None, g
        if not work.rows:
            return found, None
        base = gcd(base, work.mod)
        work.divide(base)
        level *= base


def _rank_primes():
    # the two rank primes, then every odd prime below 2^31 - 1, descending
    yield from _RANK_PRIMES
    yield from filter(_is_prime, range(_RANK_PRIMES[0] - 2, 2, -2))


def _kernel_rank(mat):
    return mat.ncols - kernel_basis(mat).ncols


def smith_normal_form(mat, rank=None, det_multiple=None):
    """The Smith normal form D of mat, an :class:`IntMat` of its shape.

    D is zero off the diagonal, and its nonzero entries d1 | d2 | ... are
    mat's invariant factors, positive and first on the diagonal.  The
    transforms are not computed.  ``rank``, when given, is mat's rank
    over Q as the caller has certified it.  ``det_multiple``, when given
    (only with ``rank``), is a positive multiple of the product s_1...s_r
    of mat's invariant factors, such as the gcd of a family of its
    r x r minors that the caller knows.  No entry grows past N = 2D,
    D = ``det_multiple`` or else |det| of one nonsingular r x r minor:

    1. +-1 pivots are eliminated exactly over Z by Schur complement, each
       one an invariant factor 1; a matrix with no +-1 entry is its own
       core, with no unit pass and no copy;
    2. the rank r of what is left (the core) is the given rank minus
       those pivots or, with no rank given, its column count minus the
       size of :func:`kernel_basis` of it;
    3. with no ``det_multiple``, primes are tried in turn: the two rank
       primes, then every prime below 2^31 - 1, descending.  The first
       prime whose rank mod p is r gives, from one :func:`fp_rref` of
       the core, r pivot columns independent over Q.  Sparse
       fraction-free elimination on those columns, a shortest row's
       sparsest column first, picks r pivot rows and D, the |det| of
       that minor.  Each updated row is divided by its content, and the
       factor by which it has been scaled enters D only when the row
       becomes a pivot;
    4. the core is diagonalised over Z/N one coprime part of N at a time,
       keeping gcd(pivot, part) for each pivot and the part for each
       missing one, on the side of the core with fewer rows (the
       transpose has the same Smith form).  Each part has a base with
       the same primes: the power of each prime l below 2^10 has the base
       l, and the cofactor is its own base.  A part l^v whose rank mod l
       is r gives r unit pivots.  Any other is diagonalised level by
       level: every entry prime to the base is pivoted out as the pivot
       t of level t, then the base is cut to its gcd with the modulus
       and what is left is divided by it for the next level, until
       nothing is left.  A row with no such entry, but one whose gcd g
       with the base is neither 1 nor the base, splits the part into its
       factor on g's primes, with the base g, and the rest, with the
       base stripped of g's primes; each is diagonalised afresh;
    5. the pairwise gcd/lcm normal form of all of these is the Smith form
       mod N; only then are the entries equal to N dropped, and exactly r
       must remain, else :class:`ExactLinError`.

    s_1...s_r divides D, so each s_i < N and gcd(s_i, N) = s_i.  A rank
    mod p falls short of r only when p divides the gcd of the r x r
    minors, which is nonzero, so the prime search ends; an input built
    for it, such as [[2147483647 * 998244353]], takes one prime past the
    rank primes.  A given rank is cross-checked, and every check raises
    :class:`ExactLinError`: more unit pivots than it, a larger rank mod
    some prime, a core whose exact kernel disagrees with it once neither
    rank prime reaches it (so a rank too high cannot send the search past
    every prime), pivots past r in some part, and pivot columns that the
    fraction-free elimination finds dependent.  With a ``det_multiple``
    there is no prime search: the rank of the core's short side mod the
    first rank prime may not exceed r, and the count in step 5 refuses
    a rank too high, or a D that s_1...s_r does not divide, wherever
    that loses a pivot.

    >>> smith_normal_form(IntMat.from_rows([[2, 4], [6, 8]])).to_rows()
    [[2, 0], [0, 4]]
    >>> smith_normal_form(IntMat.from_rows([[2, 4], [6, 8]]), 2, 8).diagonal()
    [2, 4]
    """
    if det_multiple is not None and (rank is None or det_multiple < 1):
        raise ValueError("det_multiple must be a positive int, with a rank")
    ones, core = 0, mat
    if any(v == 1 or v == -1 for v in mat.entries.values()):
        work = _SchurWork(mat.entries)
        while (i := work.shortest_row()) is not None:
            row = work.rows[i]
            units = [j for j, v in row.items() if v == 1 or v == -1]
            if units:
                j = min(units, key=lambda c: (len(work.cols[c]), c))
                u = row[j]
                work.pivot_out(i, j, lambda b: b * u)
                ones += 1
        core = IntMat._built(mat.nrows, mat.ncols, {
            (i, j): v for i, row in work.rows.items() for j, v in row.items()})
    if rank is not None and (ones > rank or core.is_zero() and ones < rank):
        raise ExactLinError("rank %d given, %d unit pivots found%s" % (
            rank, ones, " and nothing else" if core.is_zero() else ""))
    if core.is_zero():
        return IntMat._built(mat.nrows, mat.ncols,
                             {(t, t): 1 for t in range(ones)})
    r = _kernel_rank(core) if rank is None else rank - ones
    # Z/N is the product of the rings Z/part over coprime parts, so one
    # diagonal mod N is the pivots' gcds mod every part, with each part's
    # missing pivots as zeros (the part itself); the pairwise gcd/lcm
    # normal form of them all is then the Smith form mod N.  The Smith
    # form of the transpose is the same, so each part is diagonalised on
    # the side of the core with fewer rows
    nrows = len({i for i, _ in core.entries})
    ncols = len({j for _, j in core.entries})
    short = core.entries if nrows <= ncols else core.transpose().entries
    size = min(nrows, ncols)
    if det_multiple is None:
        n_mod = 2 * _minor_modulus(core, rank, r, ones)
    else:
        p = _RANK_PRIMES[0]
        if fp_rank_sparse(short, p) > r:
            raise ExactLinError("rank mod %d exceeds the rank %d" % (
                p, ones + r))
        n_mod = 2 * det_multiple
    found, parts = [], _coprime_parts(n_mod)
    for base, part in parts:  # a split appends its two parts to parts
        if base < 1 << 10 and fp_rank_sparse(short, base) == r:
            pivots = [1] * r
        else:
            pivots, g = _local_diagonal(short, base, part)
            if g is not None:
                q, rest = _strip(part, g)
                parts.append((g, q))
                if rest > 1:
                    parts.append((_strip(base, g)[1], rest))
                continue
        found += pivots + [part] * (size - len(pivots))
    chain = _divisor_chain(found)
    torsion = [d for d in chain if d != n_mod]
    if len(chain) - len(torsion) != size - r:
        raise ExactLinError("Smith form mod %d lost the rank %d" % (n_mod, r))
    diag = [1] * (ones + r - len(torsion)) + torsion
    return IntMat._built(mat.nrows, mat.ncols,
                         {(t, t): d for t, d in enumerate(diag)})


def _minor_modulus(core, rank, r, ones):
    # |det| of a nonsingular r x r minor of the core, step 3 of
    # smith_normal_form: pivot columns from the first prime whose rank
    # mod p is r, then the fraction-free minor on them
    for k, p in enumerate(_rank_primes()):
        if (k == len(_RANK_PRIMES) and rank is not None
                and _kernel_rank(core) != r):
            raise ExactLinError("rank %d given, the exact kernel of the "
                                "core disagrees" % rank)
        pivot_cols = fp_rref(core, p)[1]
        if len(pivot_cols) > r:
            raise ExactLinError("rank mod %d exceeds the rank %d" % (
                p, ones + r))
        if len(pivot_cols) == r:
            return _minor_abs_det(core, pivot_cols)[0]
    raise ExactLinError("no prime below 2^31 reaches the rank %d"
                        % (ones + r))


def snf_diagonal(mat, rank=None, det_multiple=None):
    """The nonzero invariant factors of mat, ascending: the diagonal of
    :func:`smith_normal_form`.  The rank is the caller's certified
    ``rank`` when given, which the route cross-checks; otherwise an exact
    kernel of the core left after the unit pivots certifies it.  A
    ``det_multiple`` of s_1...s_r, given with the rank, replaces the
    prime search and the minor's determinant as the modulus's D; the
    rank mod one prime and the count of pivots mod 2D check both.

    >>> snf_diagonal(IntMat.from_rows([[2, 4], [6, 8]]))
    [2, 4]
    >>> snf_diagonal(IntMat.from_rows([[2, 4], [6, 8]]), rank=2)
    [2, 4]
    """
    return smith_normal_form(mat, rank, det_multiple).diagonal()


def kernel_basis(mat):
    """Columns spanning ker(mat) as a saturated sublattice of Z^ncols.

    The basis extends to a basis of the ambient lattice, so integral
    membership tests against it are exact.

    Unimodular column steps (Cohen, section 2.4) on the sparse elimination
    engine that also ranks mod p.  In a shortest row, Euclid's quotient
    steps reduce every column by the one holding the smallest entry until
    a single column holds the row's gcd.  That forces the column's
    coefficient to 0 in every kernel vector, so it is set aside and its
    transform dropped; the transforms of the columns never set aside
    span the kernel.
    """
    n = mat.ncols
    work = _SchurWork(mat.entries)
    basis = {j: {j: 1} for j in range(n)}  # live column -> its transform
    while (i := work.shortest_row()) is not None:
        row = work.rows[i]
        while len(row) > 1:
            j0 = min(row, key=lambda c: (abs(row[c]), c))
            for j in sorted(row.keys() - {j0}):
                q = row[j] // row[j0]
                if q:
                    work.sub_col(j, j0, q)
                    _sub_row(basis[j], q, basis[j0])
        j0 = next(iter(row))
        work.pivot_out(i, j0, lambda b: 0)
        del basis[j0]
    return IntMat.from_columns([basis[j] for j in sorted(basis)], n)


def cohomology_of_pair(d_in, d_out):
    """ker(d_out)/im(d_in) as an :class:`AbGroup`.

    d_in maps C^{n-1} -> C^n and d_out maps C^n -> C^{n+1}; both are
    matrices whose columns are images of basis vectors.  Raises
    :class:`CompositionNonzero` unless d_out @ d_in == 0.

    This is degree 1 of the two-map complex C^{n-1} -> C^n -> C^{n+1}
    over Z, so both ranks are certified and d_in's torsion read as in
    :func:`complex_cohomology`.

    >>> d0 = IntMat.zeros(2, 0)
    >>> d1 = IntMat.from_rows([[2, 0], [0, 3]])   # Z^2 --diag(2,3)--> Z^2
    >>> cohomology_of_pair(d1, IntMat.zeros(0, 2))
    AbGroup(rank=0, torsion=(6,))
    """
    return complex_cohomology([d_in.ncols, d_in.nrows], [d_in, d_out],
                              ZZ)[1]


def complex_cohomology(dims, mats, ring, lower=None, det_multiples=None):
    """[H^0, ..., H^(len(dims)-1)] of the complex with dim C^n = dims[n]
    and d: C^n -> C^(n+1) given by mats[n]; maps past the end of mats
    are zero.  Every consecutive pair is checked to compose to zero (mod
    p over F_p), else :class:`CompositionNonzero`.

    Over F_p each map is ranked once with :func:`fp_rank_sparse`.  Over
    Q each degree is the rank of :func:`cohomology_of_pair`, exact since
    Q is flat over Z.  Any other ring, such as Z/p^2, raises ValueError.
    Over Z each map's rank r_n over Q is certified once (see
    :func:`_certified_ranks`; ``lower[n]``, when given and not None, is a
    certified lower bound on r_n): by the rank mod the first rank prime
    where the d o d = 0 bounds then close, else by an exact kernel.
    Each map's Smith form is taken once by :func:`snf_diagonal`, from
    that rank or while ranking it.  ``det_multiples[n]``, given with
    ``lower`` at least as long, and not None, must be a multiple of the
    product of d_n's invariant factors whenever r_n equals ``lower[n]``.
    Where it does, the Smith form takes it as its D (see
    :func:`smith_normal_form`) in place of a prime search and a minor's
    determinant, and cross-checks r_n by the rank mod one prime and by
    its count of pivots mod 2D.
    H^n = Z^(dims[n] - r_(n-1) - r_n) plus the torsion of d_(n-1).
    That torsion is all of it: C^n/ker(d_n) is free, so
    0 -> ker/im -> C^n/im -> C^n/ker -> 0 splits, and the torsion of
    C^n/im(d_(n-1)) is read off d_(n-1)'s invariant factors.

    >>> from hodgelab.gralg import FP
    >>> d = IntMat.from_rows([[2]])
    >>> complex_cohomology([1, 1], [d], ZZ)
    [AbGroup(rank=0, torsion=()), AbGroup(rank=0, torsion=(2,))]
    >>> complex_cohomology([1, 1], [d], FP(2))
    [1, 1]
    """
    top = len(dims)
    outs = list(mats[:top])
    for n in range(len(outs), top):
        outs.append(IntMat.zeros(dims[n + 1] if n + 1 < top else 0, dims[n]))
    for n, d in enumerate(outs):
        if d.ncols != dims[n] or (n + 1 < top and d.nrows != dims[n + 1]):
            raise ValueError("chain degrees do not line up")
    if ring is QQ_R:
        ins = [IntMat.zeros(dims[0], 0)] + outs[:-1] if top else []
        return [cohomology_of_pair(d_in, d_out).rank
                for d_in, d_out in zip(ins, outs)]
    if ring is ZZ:
        for d_in, d_out in zip(outs, outs[1:]):
            if not d_out.matmul(d_in).is_zero():
                raise CompositionNonzero("d_out @ d_in != 0")
        if not top:
            return []
        ranks, diags = _certified_ranks(list(dims) + [outs[-1].nrows],
                                        outs, lower)
        torsion, given = [()], det_multiples or ()
        for n, mat in enumerate(outs[:-1]):
            if n not in diags:
                dm = (given[n] if n < len(given) and lower[n] == ranks[n]
                      else None)
                diags[n] = snf_diagonal(mat, ranks[n], dm) if ranks[n] else []
            torsion.append([d for d in diags[n] if d > 1])
        return [AbGroup(dims[n] - ranks[n] - (ranks[n - 1] if n else 0),
                        torsion[n]) for n in range(top)]
    if not ring.is_field():
        raise ValueError("no strand cohomology route over %r" % (ring,))
    p = ring.p
    for d_in, d_out in zip(outs, outs[1:]):
        if any(v % p for v in d_out.matmul(d_in).entries.values()):
            raise CompositionNonzero("d_out @ d_in != 0 mod %d" % p)
    ranks = [fp_rank_sparse(d.entries, p) for d in outs]
    return [dims[n] - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(top)]


def _certified_ranks(dims, mats, lower=None):
    # (ranks, diags): the rank over Q of each integer map mats[n]: C^n ->
    # C^(n+1) of a complex with dim C^n = dims[n], len(dims) ==
    # len(mats) + 1, whose consecutive maps compose to zero, and the
    # Smith diagonals computed on the way.  Every rank r_n has a lower
    # bound l_n: 0 for a zero map, else the larger of 1 and lower[n],
    # raised where needed by the rank mod the first rank prime alone (a
    # rank mod p is at most the rank over Q; where it falls short, the
    # exact route below fixes the rank, so a second prime is waste).
    # d o d = 0 gives r_(n-1) + r_n <= dims[n], with r_(-1) = 0 and no map
    # out of the last space, so where l_(n-1) + l_n == dims[n] both bounds
    # are exact.  Only a map that no such closed chain reaches is ranked
    # by an exact kernel: the last map by :func:`kernel_basis`, any other
    # by the length of its unranked :func:`snf_diagonal`, whose own
    # certificate is the kernel of the core left after the unit pivots,
    # and whose diagonal the caller needs for the torsion anyway.
    top = len(mats)
    low, exact = [], []
    for n, mat in enumerate(mats):
        given = lower[n] if lower and n < len(lower) else None
        exact.append(mat.is_zero())
        low.append(0 if exact[-1] else max(1, given or 0))

    def close():
        for n in range(top + 1):
            bound = (low[n - 1] if n else 0) + (low[n] if n < top else 0)
            if bound > dims[n]:
                raise ExactLinError("rank bounds %d exceed dim C^%d = %d"
                                    % (bound, n, dims[n]))
            if bound == dims[n]:
                for k in (n - 1, n):
                    if 0 <= k < top:
                        exact[k] = True
        return [n for n in range(top) if not exact[n]]

    for n in close():
        low[n] = max(low[n], fp_rank(mats[n], _RANK_PRIMES[0]))
    todo = close()
    diags = {}
    for n in todo:
        if exact[n]:
            continue
        if n < top - 1:
            diags[n] = snf_diagonal(mats[n])
            low[n] = len(diags[n])
        else:
            low[n] = _kernel_rank(mats[n])
        exact[n] = True
        close()
    return low, diags


# ---------------------------------------------------------------------------
# small dense elimination over a field ring (Q or F_p), for specseq


def field_rref(rows, ncols, fld):
    """(rref, pivot columns) of a list of rows of normalized entries over
    fld, a field ring of :mod:`hodgelab.gralg`; the rows are not
    modified.  Raises ValueError unless fld is a field."""
    if not fld.is_field():
        raise ValueError("field_rref needs Q or F_p, not %r" % (fld,))
    a = [list(r) for r in rows]
    m = len(a)
    piv = []
    r = 0
    for c in range(ncols):
        if r >= m:
            break
        sel = None
        for i in range(r, m):
            if not fld.is_zero(a[i][c]):
                sel = i
                break
        if sel is None:
            continue
        a[r], a[sel] = a[sel], a[r]
        inv = fld.inv(a[r][c])
        a[r] = [fld.mul(inv, x) for x in a[r]]
        for i in range(m):
            if i != r and not fld.is_zero(a[i][c]):
                f = a[i][c]
                a[i] = [fld.sub(x, fld.mul(f, y)) for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    return a, piv


def field_rank(rows, ncols, fld):
    if not rows or ncols == 0:
        return 0
    return len(field_rref(rows, ncols, fld)[1])


# ---------------------------------------------------------------------------
# sparse elimination mod p in Python ints, for any prime p


def fp_rank_sparse(entries, p):
    """Rank mod p of a sparse matrix given as {(i, j): value}: Markowitz
    pivoting on the sparse elimination engine, a shortest row's sparsest
    column first."""
    work = _SchurWork(entries, p)
    rank = 0
    while (i := work.shortest_row()) is not None:
        row = work.rows[i]
        j = min(row, key=lambda c: (len(work.cols[c]), c))
        inv = pow(row[j], -1, p)
        work.pivot_out(i, j, lambda b: b * inv)
        rank += 1
    return rank


def fp_rank(mat, p):
    """Rank of an :class:`IntMat` mod p, by :func:`fp_rank_sparse`."""
    return fp_rank_sparse(mat.entries, p)


def fp_rref(mat, p):
    """The reduced row echelon form of an :class:`IntMat` mod p.

    Returns (rref, pivot_cols): rref has mat's shape, entries in [0, p),
    its first len(pivot_cols) rows nonzero, a 1 at each pivot and zeros
    elsewhere in the pivot columns.  That form is unique, so the order of
    elimination does not change it.  Rows enter one at a time: each is
    cleared at every pivot column so far, a remainder takes its leftmost
    column as a new pivot, and that column is cleared from the rows
    already in.  The input is not modified.

    >>> rref, piv = fp_rref(IntMat.from_rows([[2, 4, 1], [1, 2, 0]]), 3)
    >>> rref.to_rows(), piv
    ([[1, 2, 0], [0, 0, 1]], [0, 2])
    """
    rows = {}
    for (i, j), v in mat.entries.items():
        if v % p:
            rows.setdefault(i, {})[j] = v % p
    basis = {}  # pivot column -> its row: 1 there, 0 at every other pivot
    for i in sorted(rows):
        x = rows[i]
        for c in [c for c in x if c in basis]:
            _sub_row(x, x[c], basis[c], p)
        if not x:
            continue
        c = min(x)
        inv = pow(x[c], -1, p)
        x = {j: v * inv % p for j, v in x.items()}
        for row in basis.values():
            if c in row:
                _sub_row(row, row[c], x, p)
        basis[c] = x
    pivots = sorted(basis)
    return IntMat(mat.nrows, mat.ncols, {
        (k, j): v for k, c in enumerate(pivots)
        for j, v in basis[c].items()}), pivots


def _sub_row(row, f, other, p=None):
    # row -= f * other, mod p when given, in place, dropping the zeros
    for j, v in other.items():
        nv = row.get(j, 0) - f * v
        nv = nv % p if p else nv
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)


def fp_kernel(mat, p):
    """Basis of the right kernel of mat mod p, one list per free column."""
    rref, pivots = fp_rref(mat, p)
    basis = []
    for f in sorted(set(range(mat.ncols)) - set(pivots)):
        v = [0] * mat.ncols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -rref.get(i, f) % p
        basis.append(v)
    return basis


def fp_solve(mat, b, p):
    """One solution x of mat @ x = b mod p as a list, or None.

    b is a list, or a dict {row: value}, of length mat.nrows.
    """
    n = mat.ncols
    rref, pivots = fp_rref(IntMat.from_columns(mat.columns() + [b],
                                               mat.nrows), p)
    if n in pivots:
        return None
    x = [0] * n
    for i, c in enumerate(pivots):
        x[c] = rref.get(i, n)
    return x
