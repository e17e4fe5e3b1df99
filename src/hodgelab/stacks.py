"""Hodge and de Rham cohomology of G_m-quotient stacks over Q.

A stack [X/G] is data, a :class:`GmQuotient`: the group G (G_m or
G_a) and the affine charts of X, each a sector that carries its
chart-Cech degree, its variables' weights, which of them are inverted,
and its restriction to the overlap.  The constructors are BGm, BGa,
GradedAffine (a graded polynomial or Laurent algebra A, [Spec A/G_m])
and TwoChartP1 (P^1 with a scaling action).  Hodge cohomology of every
G_m-quotient, BG_m = [pt/G_m] included, comes from the weight-zero
Koszul model of the exterior powers of the cotangent complex; for B G_a
it is the rational group cohomology read off cobar.group_table.  De
Rham cohomology comes from a truncated Cech totalization over the
action nerve X x G^s, reduced to the weight-zero strand, with a small
Cartan model as an independent second route.  Both sides of the
comparison build each complex once, up to the top degree asked for,
and read every degree from it: de Rham dimensions once per stack,
Hodge dimensions once per exterior power p (B G_a: one cobar table for
every p).  The filtered complexes
for the spectral sequences come from one coordinate filtration builder.

Every model keeps the forms x^e dx_I = x^c dlog x_I whose character
c = e + eps_I has every |c_i| <= _CHAR_BOUND.  d, the Euler contraction
and the G_m action coface keep c, and a chart restriction x_i ->
x_i^(+-1) sends it to flips * c, which keeps the bound; so each model
is a sum of whole character summands and IntMat.from_images reads every
differential with no term dropped: a term off the target basis raises,
as does a unit slot that survives the total model's coface sum
:func:`_coface_terms`.

The G_m total model is graded in the slot direction too: the cofaces,
the slot d, d_x and the chart restriction all keep the set E of nonzero
G-slot exponents of a key.  The reported de Rham model is the window
at slot bound 1, the keys with E within {-1, 1}; the window at slot
bound 2 adds one summand per other E, and each of those is ranked on
its own and must be acyclic.
"""

from itertools import combinations, product
from math import comb

from . import cobar
from .derham import _d_key
from .exactlin import IntMat, complex_cohomology
from .gralg import QQ_R
from .specseq import FilteredComplex, cohomology_dims, degenerates_at, pages
from .utils import PROPERTY_SEEDS

__all__ = [
    "UnsupportedStack", "UnstableTruncation", "GmQuotient",
    "BGm", "BGa", "GradedAffine", "TwoChartP1",
    "hodge_cohomology", "derham_cohomology", "cartan_model_dims",
    "verify_cartan_homotopy", "koszul_consistency", "hdr_report",
]


class UnsupportedStack(Exception):
    pass


class UnstableTruncation(AssertionError):
    """H^q(Lambda^p) of the truncated Koszul model moved when the
    character bound grew, so no window count is reported.  A stack that
    is not Hodge-proper, such as affine:1,-1, ends here.

    Carries (p, q), the two bounds and the two dimensions read there.
    """

    def __init__(self, p, q, bounds, values):
        super().__init__(
            "Koszul strand not stable under truncation at (%d, %d): "
            "dim %d at bound %d, %d at bound %d"
            % (p, q, values[0], bounds[0], values[1], bounds[1]))
        self.p, self.q = p, q
        self.bounds, self.values = bounds, values


class GmQuotient:
    """A quotient stack [X/G] as data: G is "gm" or "ga", and X is glued
    from the affine charts in `sectors`, each a :class:`_Sector` that
    carries its own chart-Cech restriction.  The repr is `name`.
    """

    def __init__(self, name, group, sectors):
        self.name = name
        self.group = group
        self.sectors = tuple(sectors)

    def __repr__(self):
        return self.name


class _Sector:
    """One affine piece of X at a fixed chart-Cech degree: x_i has weight
    weights[i] and is inverted when i is in laurent.  restrict is None
    or (target, sign, flips): sign times the pullback x_i -> x_i^flips[i]
    into the coordinates of sector `target`."""

    def __init__(self, cech, weights, laurent=frozenset(), restrict=None):
        self.cech = cech
        self.weights = weights
        self.laurent = laurent
        self.restrict = restrict


def BGm():
    return GmQuotient("BGm", "gm", [_Sector(0, ())])


def BGa():
    return GmQuotient("BGa", "ga", [_Sector(0, ())])


def GradedAffine(weights, laurent=()):
    weights = tuple(int(w) for w in weights)
    laurent = frozenset(laurent)
    stray = laurent.difference(range(len(weights)))
    if stray:
        raise UnsupportedStack("Laurent indices %s name no variable of "
                               "an affine quotient" % sorted(stray, key=repr))
    if not weights:
        raise UnsupportedStack("affine quotient needs variables")
    if any(w == 0 for w in weights):
        raise UnsupportedStack("weight-zero variables give infinite strands")
    return GmQuotient("GradedAffine(weights=%s%s)" % (
        weights, ", laurent=%s" % sorted(laurent) if laurent else ""),
        "gm", [_Sector(0, weights, laurent)])


def TwoChartP1(weight=1):
    w = int(weight)
    if w == 0:
        raise UnsupportedStack("P^1 takes one nonzero chart weight")
    # (delta f)_01 = f_1 - f_0 on the overlap, Laurent in x; y = 1/x
    return GmQuotient("TwoChartP1(%d)" % w, "gm", [
        _Sector(0, (w,), restrict=(2, -1, (1,))),     # chart 0, x
        _Sector(0, (-w,), restrict=(2, 1, (-1,))),    # chart 1, y
        _Sector(1, (w,), frozenset([0])),             # the overlap
    ])


# -- chart sectors (the X direction) ---------------------------------------


def _sector_monomials(sec, weight, bound, nforms):
    """Weight-`weight` forms x^e dx_I in one sector whose character
    c = e + eps_I has every |c_i| <= bound; the weight is w.c, and
    c_i >= 1 for i in I on a polynomial variable."""
    nv = len(sec.weights)
    out = []
    for idxs in combinations(range(nv), nforms):
        ranges = [range(-bound if i in sec.laurent else int(i in idxs),
                        bound + 1) for i in range(nv)]
        for chars in product(*ranges):
            if sum(c * w for c, w in zip(chars, sec.weights)) == weight:
                out.append((tuple(c - (i in idxs)
                                  for i, c in enumerate(chars)), idxs))
    return out


def _x_basis(stack):
    """Weight-zero strand of the chart-Cech de Rham model of X, by degree.

    Returns {degree: [(sector_id, exps, idxs), ...]}.
    """
    table = {}
    for sid, sec in enumerate(stack.sectors):
        for nf in range(len(sec.weights) + 1):
            for exps, idxs in _sector_monomials(sec, 0, _CHAR_BOUND, nf):
                deg = sec.cech + nf
                table.setdefault(deg, []).append((sid, exps, idxs))
    for deg in table:
        table[deg].sort()
    return table


def _restrict(sec, exps, idxs):
    """Chart-Cech restriction of x^e dx_I = x^c dlog x_I out of sec, as
    (target, coeff, exps, idxs), or None.  The pullback x_i ->
    x_i^flips[i] is linear in character coordinates: c -> flips * c and
    dlog x_i -> flips[i] dlog x_i."""
    if sec.restrict is None:
        return None
    target, coeff, flips = sec.restrict
    e2 = []
    for i, (e, f) in enumerate(zip(exps, flips)):
        eps = i in idxs
        e2.append(f * (e + eps) - eps)
        if eps:
            coeff *= f
    return target, coeff, tuple(e2), idxs


def _iota(sec, exps, idxs):
    """Contraction with the Euler field of the grading."""
    out = []
    for m, i in enumerate(idxs):
        sign = -1 if m % 2 else 1
        e2 = list(exps)
        e2[i] += 1
        out.append((sign * sec.weights[i], tuple(e2),
                    idxs[:m] + idxs[m + 1:]))
    return out


# -- group slots (the Cech nerve direction) --------------------------------

# slot contents: ("f", a) is t^a - 1 (G_m) or u^a (G_a); ("w", b) is
# t^b dlog t (G_m) or u^b du (G_a); None marks a unit slot, which only
# appears transiently inside coface expansions.


def _slot_contents(group, bound):
    if group == "gm":
        fs = [("f", a) for a in range(-bound, bound + 1) if a]
        ws = [("w", b) for b in range(-bound, bound + 1)]
    else:
        fs = [("f", k) for k in range(1, bound + 1)]
        ws = [("w", k) for k in range(0, bound + 1)]
    return fs, ws


def _slot_weight(group, content):
    if group == "gm" or content is None:
        return 0
    kind, k = content
    return k if kind == "f" else k + 1


def _slot_d(group, content):
    """De Rham differential of one slot content; it keeps the exponent."""
    kind, k = content
    if kind == "w":
        return []
    if group == "gm":
        return [(k, ("w", k))]
    return [(k, ("w", k - 1))]


def _form_d(group, key):
    """De Rham d of x^e dx_I (x) slots on U x G^s, for key (exps, idxs,
    slots), as {key: coeff}: d_x, then the slot d past the forms before
    it.  Each term changes a different part of the key, so none
    repeats."""
    exps, idxs, slots = key
    out = {(e2, i2, slots): c for (e2, i2), c in _d_key((exps, idxs)).items()}
    sign = -1 if len(idxs) % 2 else 1
    for j, content in enumerate(slots):
        if content[0] == "w":
            sign = -sign
            continue
        for coeff, new in _slot_d(group, content):
            out[exps, idxs, slots[:j] + (new,) + slots[j + 1:]] = sign * coeff
    return out


def _comult(group, content):
    """Expansion of a slot under the multiplication coface.

    Returns [(coeff, left, right)] where left/right are contents or
    None for a unit slot.  No exponent in the expansion passes the
    slot's own, so a slot window is closed under it.
    """
    kind, k = content
    out = []
    if group == "gm":
        if kind == "f":
            out = [(1, content, None), (1, None, content),
                   (1, content, content)]
        else:
            parts = [(1, None)] if k == 0 else [(1, None), (1, ("f", k))]
            for c, other in parts:
                out.append((c, ("w", k), other))
                out.append((c, other, ("w", k)))
        return out
    if kind == "f":
        for i in range(k + 1):
            left = ("f", i) if i else None
            right = ("f", k - i) if k - i else None
            out.append((comb(k, i), left, right))
        return out
    for i in range(k + 1):
        c = comb(k, i)
        right = ("f", k - i) if k - i else None
        out.append((c, ("w", i), right))
        left = ("f", i) if i else None
        out.append((c, left, ("w", k - i)))
    return out


def _slot_tuples(group, bound, s, max_forms, weight=None):
    """Normalized s-slot tuples with at most max_forms form slots and,
    when weight is given, of that total weight; in product order, as
    (slots, form count, mask).  For G_m, bit a + bound of mask is set
    when some slot has the exponent a != 0; a G_a mask is 0, since its
    comultiplication splits exponents."""
    fs, ws = _slot_contents(group, bound)
    pool = [(c, c[0] == "w", _slot_weight(group, c),
             1 << (c[1] + bound) if group == "gm" and c[1] else 0)
            for c in fs + ws]
    lightest = min(cw for _, _, cw, _ in pool)
    heaviest = max(cw for _, _, cw, _ in pool)
    out = []

    def grow(prefix, forms, left, mask):
        k = len(prefix)
        if k == s:
            if not left:
                out.append((tuple(prefix), max_forms - forms, mask))
            return
        if left is not None and not (
                (s - k) * lightest <= left <= (s - k) * heaviest):
            return
        for c, is_form, cw, bit in pool:
            if (is_form and not forms) or (left is not None and cw > left):
                continue
            prefix.append(c)
            grow(prefix, forms - is_form,
                 None if left is None else left - cw, mask | bit)
            prefix.pop()

    grow([], max_forms, weight, 0)
    del grow  # grow holds itself through its closure cell: free that cycle
    return out


def _coface_terms(group, weights, key):
    """The alternating coface sum on a total-model key (sid, exps, idxs,
    slots) over a sector with these weights, as {key: coeff}.

    The unit slots of the first and last faces cancel against the
    comultiplications; one that survives raises AssertionError.
    """
    sid, exps, idxs, slots = key
    s = len(slots)
    # the terms with a unit slot are summed apart, in `units`, and must
    # all cancel.  j = 0: the action face.  Prepends a slot; on the weight-zero
    # strand the pullback is id + (dlog t_1 ^ iota_v), slotwise a unit
    # or a ("w", 0) insertion, whose keys no other face makes.
    units = {(sid, exps, idxs, (None,) + slots): 1}
    acc = {}
    if group == "gm":
        k = len(idxs)
        for m, i in enumerate(idxs):
            e2 = list(exps)
            e2[i] += 1
            sign = -1 if (k - m - 1) % 2 else 1
            acc[sid, tuple(e2), idxs[:m] + idxs[m + 1:],
                (("w", 0),) + slots] = sign * weights[i]
    # j = 1..s: comultiplication of slot j
    for j in range(1, s + 1):
        sign = -1 if j % 2 else 1
        head, tail = slots[:j - 1], slots[j:]
        for coeff, left, right in _comult(group, slots[j - 1]):
            new = (sid, exps, idxs, head + (left, right) + tail)
            sums = units if left is None or right is None else acc
            sums[new] = sums.get(new, 0) + sign * coeff
    # j = s + 1: append a unit slot
    new = (sid, exps, idxs, slots + (None,))
    units[new] = units.get(new, 0) + (-1 if (s + 1) % 2 else 1)
    if any(units.values()):
        raise AssertionError("unit slot survived the coface alternating sum")
    return {k: c for k, c in acc.items() if c}


# -- the Cech-de Rham total complex -----------------------------------------


def _tot_keys(stack, degree_cap, g_bound, weight=None):
    """The total-model keys (sector_id, exps, idxs, slots) of degree <=
    degree_cap, unsorted and filed by the mask of their slot tuple (see
    :func:`_slot_tuples`): {mask: [keys of degree n for n <= cap]}.

    The slot tuples of each slot count are enumerated once, at the form
    budget of the lowest x degree, and each is filed under every x
    degree whose budget its form count fits."""
    x_table = sorted(_x_basis(stack).items())
    parts = {}
    for s in range(degree_cap + 1):
        max_forms = degree_cap - s - x_table[0][0]
        if max_forms < 0:
            continue
        for slots, nf, mask in _slot_tuples(stack.group, g_bound, s,
                                            max_forms, weight):
            part = parts.get(mask)
            if part is None:
                part = parts[mask] = [[] for _ in range(degree_cap + 1)]
            for xdeg, xs in x_table:
                if s + xdeg + nf > degree_cap:
                    break
                part[s + xdeg + nf] += [(sid, exps, idxs, slots)
                                        for sid, exps, idxs in xs]
    return parts


def _window_summands(stack, degree_cap):
    """The G_m total model at slot bound 2, split by the set E of nonzero
    slot exponents of a key, which every piece of d keeps: (narrow,
    wide), where narrow holds the keys with E within {-1, 1}, the model
    at slot bound 1, and wide is {E: keys} for every other E, each an
    unsorted list of keys per degree."""
    narrow = [[] for _ in range(degree_cap + 1)]
    wide = {}
    for mask, part in _tot_keys(stack, degree_cap, 2).items():
        exps = tuple(a for a in range(-2, 3) if mask >> (a + 2) & 1)
        if set(exps) <= {-1, 1}:
            for keys, more in zip(narrow, part):
                keys += more
        else:
            wide[exps] = part
    return narrow, wide


class _TotModel:
    """Weight-zero truncated Cech-de Rham bicomplex of [X/G].

    Keys are (sector_id, exps, idxs, slots); the total degree is
    chart-Cech + #dx + #slots + #dlog-slots.  Characters and slot
    exponents are bounded (the latter by g_bound) and every differential
    keeps both.  d o d = 0 is checked where a pair is read:
    complex_cohomology checks each pair up to the degree it reports, and
    a FilteredComplex its whole chain.  basis[n] for n <= degree_cap
    and mats[n] for n < degree_cap do not depend on the cap, so one
    model serves every degree below it.  weight keeps one G_a strand.
    keys, when given, are the model's keys per degree, such as one
    summand of :func:`_window_summands`, in place of the whole window.
    """

    def __init__(self, stack, degree_cap, g_bound, *, weight=None,
                 keys=None):
        self.secs = stack.sectors
        self.group = stack.group
        if keys is None:
            keys = [[] for _ in range(degree_cap + 1)]
            for part in _tot_keys(stack, degree_cap, g_bound,
                                  weight).values():
                for basis, more in zip(keys, part):
                    basis += more
        self.basis = [sorted(basis) for basis in keys]
        self.mats = [IntMat.from_images(self.basis[n], self.basis[n + 1],
                                        self._d_terms)
                     for n in range(degree_cap)]

    def _d_terms(self, key):
        # the cofaces add a slot and the level differential (the chart
        # restriction into another sector, then d with the chart-Cech
        # sign) keeps the slot count, so no two parts share a key
        sid, exps, idxs, slots = key
        sec = self.secs[sid]
        out = _coface_terms(self.group, sec.weights, key)
        lsign = -1 if len(slots) % 2 else 1
        res = _restrict(sec, exps, idxs)
        if res is not None:
            target, coeff, e2, i2 = res
            out[target, e2, i2, slots] = lsign * coeff
        csign = -lsign if sec.cech % 2 else lsign
        for (e2, i2, s2), c in _form_d(self.group, key[1:]).items():
            out[sid, e2, i2, s2] = csign * c
        return out

    def cohomology(self, n_max):
        """[dim H^0, ..., dim H^n_max]; exact for n_max < cap."""
        return complex_cohomology([len(b) for b in self.basis[:n_max + 1]],
                                  self.mats, QQ_R)


def _require_rational(ring):
    if ring is not QQ_R:
        raise UnsupportedStack("only the rational theory is modeled")


# -- the public operations ---------------------------------------------------


_BGA_WEIGHT_CAP = 10

# Every stacks model keeps the forms x^c dlog x_I with |c_i| <= _CHAR_BOUND.
_CHAR_BOUND = 2


def hodge_cohomology(stack, p, q_max, ring=QQ_R):
    """[dim H^0, ..., dim H^q_max](X, Lambda^p of the cotangent complex)
    over Q ([] for q_max < 0, zeros for p < 0).

    For every G_m-quotient, BG_m = [pt/G_m] included, H^q is H^q of the
    weight-zero Koszul model, exact since G_m is linearly reductive,
    built at the character bounds B and B + max|w_i| and checked equal in
    every degree asked for: an infinite weight-zero strand has a
    character of max-norm <= max|w_i|, whose multiples add an H^0(O)
    class in every shell that wide.  With no weights (BG_m) one build is
    exact.  For B G_a, H^q is H^(q-p)(G_a, Sym^p g*) with
    the one-dimensional Sym twist: the ranks of cobar.group_table,
    summed over the weights w <= _BGA_WEIGHT_CAP.

    >>> hodge_cohomology(TwoChartP1(1), 1, 3)
    [0, 2, 0, 0]
    >>> hodge_cohomology(BGm(), 1, 2)
    [0, 1, 0]
    >>> hodge_cohomology(BGa(), 1, 3)
    [0, 1, 1, 0]
    """
    _require_rational(ring)
    if q_max < 0 or p < 0:
        return [0] * (q_max + 1)
    if stack.group == "ga":
        return _bga_hodge_row(cobar.group_table(q_max - p, _BGA_WEIGHT_CAP),
                              p, q_max)
    spread = max((abs(w) for sec in stack.sectors for w in sec.weights),
                 default=0)
    bounds = (_CHAR_BOUND, _CHAR_BOUND + spread) if spread else (_CHAR_BOUND,)
    rows = []
    for bound in bounds:
        basis, mats = _koszul_complex(stack, p, bound)
        row = complex_cohomology([len(b) for b in basis[:q_max + 1]],
                                 mats, QQ_R)
        rows.append(row + [0] * (q_max + 1 - len(row)))
    for q in range(q_max + 1):
        if rows[0][q] != rows[-1][q]:
            raise UnstableTruncation(p, q, bounds, (rows[0][q], rows[-1][q]))
    return rows[0]


def _bga_hodge_row(table, p, q_max):
    # H^q(B G_a, Lambda^p) = H^(q-p)(G_a, Sym^p g*), read off a
    # cobar.group_table that reaches degree q_max - p
    return [sum(g.rank for (m, _w), g in table.items() if p + m == q)
            for q in range(q_max + 1)]


def _hodge_rows(stack, q_maxes):
    """[hodge_cohomology(stack, p, q_max) for p, q_max in
    enumerate(q_maxes)], every B G_a row read off one cobar table at the
    largest q_max - p: H^m of a weight strand does not depend on the
    table's top degree."""
    if stack.group != "ga":
        return [hodge_cohomology(stack, p, q_max)
                for p, q_max in enumerate(q_maxes)]
    table = cobar.group_table(max(q - p for p, q in enumerate(q_maxes)),
                              _BGA_WEIGHT_CAP)
    return [_bga_hodge_row(table, p, q_max)
            for p, q_max in enumerate(q_maxes)]


def _koszul_complex(stack, p, bound):
    """Stages Lambda^(p-j) Omega^1 (tensor the trivial line) of the
    weight-zero Koszul model, as per-degree bases plus matrices."""
    table = {}
    for j in range(p + 1):
        for sid, sec in enumerate(stack.sectors):
            for exps, idxs in _sector_monomials(sec, 0, bound, p - j):
                deg = sec.cech + j
                table.setdefault(deg, []).append((j, sid, exps, idxs))
    basis = [sorted(table.get(n, []))
             for n in range(max(table, default=0) + 1)]
    mats = [IntMat.from_images(
        src, tgt, lambda key: _restrict_iota_terms(stack.sectors, key, 1))
        for src, tgt in zip(basis, basis[1:])]
    return basis, mats


def _restrict_iota_terms(secs, key, iota_sign):
    """Image of a Koszul or Cartan key (j, sid, exps, idxs) under the
    chart-Cech restriction, which keeps j, plus iota_sign times the
    Euler contraction, which raises j."""
    j, sid, exps, idxs = key
    out = {}
    res = _restrict(secs[sid], exps, idxs)
    if res is not None:
        target, coeff, e2, i2 = res
        out[j, target, e2, i2] = coeff
    csign = -1 if secs[sid].cech % 2 else 1
    for coeff, e2, i2 in _iota(secs[sid], exps, idxs):
        out[j + 1, sid, e2, i2] = iota_sign * csign * coeff
    return out


def koszul_consistency(stack, p):
    """Cross-check H^q of the Koszul model against the spectral
    sequence of its filtration by exterior-power stage.

    The filtration (stages >= j) is preserved since both differential
    pieces keep or raise the stage index; the stable-page totals must
    reproduce the directly computed dimensions in every degree.
    """
    if not stack.sectors[0].weights:
        raise UnsupportedStack("Koszul model applies to quotient models")
    basis, mats = _koszul_complex(stack, p, _CHAR_BOUND)
    stable = pages(_coordinate_filtered(basis, mats, lambda key: key[0]))[-1]
    direct = complex_cohomology([len(b) for b in basis], mats, QQ_R)
    return [{"q": q, "direct": d, "ss_total": stable.total(q),
             "ok": d == stable.total(q)} for q, d in enumerate(direct)]


def derham_cohomology(stack, n_max, ring=QQ_R):
    """[dim H^0, ..., dim H^n_max] over Q via the truncated Cech
    totalization ([] for n_max < 0).

    Every degree is read from one model of degree cap n_max + 1, the
    least cap whose maps reach H^n_max.  A character c != 0 spans an
    acyclic summand (L_E = [d - u iota_v, iota_E] for an Euler field E
    with <c, E> != 0), so the character bound is exact.  A G_m-type
    model is read at slot bound 1 and checked at slot bound 2 through
    the grading by the set of nonzero slot exponents: one enumeration
    at bound 2 gives the reported model, the keys whose exponents lie in
    {-1, 1}, and one summand per other exponent set, each built on its
    own keys and required to be acyclic through n_max.  That is the
    comparison of the two windows, since the wider one is the narrower
    plus those summands.  The B G_a complex splits into exact finite
    weight strands, one model per weight w <= n_max + 2 at degree cap
    n_max + 2, and degree n sums the strands w <= n + 2; its answer
    needs no stability pass.
    """
    _require_rational(ring)
    if n_max < 0:
        return []
    if stack.group == "ga":
        return _bga_derham(n_max)[0]
    cap = n_max + 1
    narrow, wide = _window_summands(stack, cap)
    dims = _TotModel(stack, cap, 1, keys=narrow).cohomology(n_max)
    unstable = []
    for exps, keys in sorted(wide.items()):
        row = _TotModel(stack, cap, 2, keys=keys).cohomology(n_max)
        unstable += [(n, exps) for n, d in enumerate(row) if d]
    if unstable:
        n, exps = min(unstable)
        raise AssertionError(
            "de Rham dim not stable under truncation at degree %d: the "
            "summand with slot exponents %s is not acyclic" % (n, list(exps)))
    return dims


def _bga_derham(n_max):
    """B G_a de Rham dims [H^0, ..., H^n_max] and the weight strands
    w = 0, ..., n_max + 2 (degree cap n_max + 2) that they sum."""
    cap = n_max + 2
    strands = [_TotModel(BGa(), cap, max(w, 1), weight=w)
               for w in range(cap + 1)]
    dims = [0] * (n_max + 1)
    for w, strand in enumerate(strands):
        for n, d in enumerate(strand.cohomology(n_max)):
            if w <= n + 2:
                dims[n] += d
    return dims, strands


def cartan_model_dims(stack, n_max):
    """H^n of the small Cartan model ((Omega_X x Q[u])^(wt 0), d - u iota)
    for n <= n_max; the independent second route to de Rham dims."""
    if stack.group == "ga":
        raise UnsupportedStack("no Cartan model for a unipotent group")
    return cohomology_dims(_cartan_complex(stack, n_max))[:n_max + 1]


def _cartan_complex(stack, n_max):
    """The Cartan model as a FilteredComplex (Hodge filtration by
    form degree + u power)."""
    secs = stack.sectors
    x_table = _x_basis(stack)
    cap = n_max + 1
    basis = [[] for _ in range(cap + 1)]
    for xdeg, xs in x_table.items():
        for j in range(0, (cap - xdeg) // 2 + 1):
            n = xdeg + 2 * j
            if n <= cap:
                for key in xs:
                    basis[n].append((j,) + key)
    for keys in basis:
        keys.sort()

    def image(key):
        # d - u iota; d_x keeps the u power j and adds a dx, so its keys
        # are new
        j, sid, exps, idxs = key
        out = _restrict_iota_terms(secs, key, -1)
        csign = -1 if secs[sid].cech % 2 else 1
        for (e2, i2), coeff in _d_key((exps, idxs)).items():
            out[j, sid, e2, i2] = csign * coeff
        return out

    mats = [IntMat.from_images(src, tgt, image)
            for src, tgt in zip(basis, basis[1:])]
    # Hodge filtration: F^r is spanned by u^j (form degree i) with i+j >= r
    return _coordinate_filtered(basis, mats, lambda key: key[0] + len(key[3]))


def _coordinate_filtered(basis, mats, level):
    """The complex with per-degree bases ``basis`` and differentials
    ``mats`` as a FilteredComplex over Q, filtered by coordinates: F^r
    is spanned by the basis vectors whose key has level(key) >= r."""
    return FilteredComplex(
        QQ_R, [[level(key) for key in keys] for keys in basis], mats)


def verify_cartan_homotopy(stack, seed=None):
    """Check iota_v d + d iota_v = k id on nonzero-weight strands.

    Builds unreduced weight-k de Rham strands of X x G^s, at character
    bound 3, for sampled weights 0 < |k| < 6 and s <= 2, and verifies
    the homotopy identity as an exact matrix identity.  Entries report
    each strand checked.
    """
    import random
    if stack.group == "ga":
        raise UnsupportedStack("the Euler homotopy needs a G_m grading")
    rng = random.Random(PROPERTY_SEEDS["cartan"] if seed is None else seed)
    weights = sorted({rng.randrange(1, 6) * rng.choice((1, -1))
                      for _ in range(4)})
    entries = []
    for k in weights:
        for s in range(3):
            for sid, sec in enumerate(stack.sectors):
                ok, dim = _homotopy_identity(sec, k, s, 3)
                entries.append({"weight": k, "level": s, "sector": sid,
                                "dim": dim, "ok": ok})
    return entries


def _homotopy_identity(sec, k, s, bound):
    """(iota d + d iota == k I, dim) on the weight-k strand of
    Omega(U x G^s), both maps read off the model's own d and iota."""
    basis = []
    for nf in range(len(sec.weights) + 1):
        for exps, idxs in _sector_monomials(sec, k, bound, nf):
            for slots, _, _ in _slot_tuples("gm", 1, s, s):
                basis.append((exps, idxs, slots))
    d = IntMat.from_images(basis, basis, lambda key: _form_d("gm", key))
    iota = IntMat.from_images(basis, basis, lambda key: {
        (e2, i2, key[2]): c for c, e2, i2 in _iota(sec, key[0], key[1])})
    excess = {(i, i): -k for i in range(len(basis))}
    for prod in (iota.matmul(d), d.matmul(iota)):
        for ij, c in prod.entries.items():
            excess[ij] = excess.get(ij, 0) + c
    return not any(excess.values()), len(basis)


# -- Hodge-to-de Rham assembly ----------------------------------------------


def _bga_strand_filtered(model):
    """One B G_a weight strand, Hodge-filtered by its form count."""
    return _coordinate_filtered(
        model.basis, model.mats,
        lambda key: len(key[2]) + sum(1 for c in key[3] if c[0] == "w"))


def _located_d1(fc):
    """Nonzero d_1 arrows of a filtered complex, as report entries."""
    pg = pages(fc, 1)[1]
    return [{"source": (s, n - s), "target": (s + 1, n - s),
             "source_dim": pg.dim(s, n), "target_dim": pg.dim(s + 1, n + 1),
             "rank": rank}
            for (s, n), rank in sorted(pg.ranks.items())]


def hdr_report(stack, n_max):
    """Hodge-to-de Rham comparison for one stack.

    Assembles the E_1 table from hodge_cohomology, total de Rham
    dimensions from the Cech model (with the Cartan model as a
    cross-check where it exists), and reports degeneration: the pages
    collapse exactly when every Hodge total matches the de Rham
    dimension.  For B G_a the failure is witnessed by the located
    nonzero d_1, which leaves degree 1, so B G_a needs n_max >= 1 for
    the dimension verdict to see it; a smaller n_max raises
    :class:`UnsupportedStack`.
    """
    if stack.group == "ga" and n_max < 1:
        raise UnsupportedStack("hdr for B G_a needs n_max >= 1: its first "
                               "nonzero d_1 leaves degree 1")
    hodge = {}
    rows = _hodge_rows(stack, [n_max + 1 - p2 for p2 in range(n_max + 2)])
    for p2, row in enumerate(rows):
        for q, d in enumerate(row):
            if d:
                hodge[(p2, q)] = d
    e1_totals = [sum(d for (p2, q), d in hodge.items() if p2 + q == n)
                 for n in range(n_max + 1)]
    if stack.group == "ga":
        derham, strands = _bga_derham(n_max)
        filtered = [_bga_strand_filtered(s) for s in strands[1:n_max + 2]]
        verdict = degenerates_at(filtered[0], 1)
    else:
        derham = derham_cohomology(stack, n_max)
        verdict = degenerates_at(_cartan_complex(stack, n_max), 1)
    entry = {
        "stack": repr(stack),
        "n_max": n_max,
        "hodge": {"%d,%d" % k: v for k, v in sorted(hodge.items())},
        "e1_totals": e1_totals,
        "derham": derham,
    }
    if stack.group != "ga":
        # the verdict ranked the Cartan complex once, for its dimension
        # route; that is the second route to de Rham dims
        entry["cartan"] = verdict["cohomology_dims"][:n_max + 1]
        if entry["cartan"] != list(derham):
            raise AssertionError("Cech and Cartan de Rham routes disagree")
    failures = [n for n in range(n_max + 1) if e1_totals[n] != derham[n]]
    entry["degenerate"] = not failures
    entry["failures"] = failures
    if stack.group == "ga":
        entry["located_d1"] = [a for fc in filtered for a in _located_d1(fc)]
    else:
        entry["located_d1"] = []
    entry["specseq"] = verdict
    if entry["degenerate"] != entry["specseq"]["degenerate"]:
        raise AssertionError("dimension and page verdicts disagree")
    return entry
