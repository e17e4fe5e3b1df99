"""Hodge/de Rham cohomology of G_m-quotient stacks: pinned dimensions,
dual-route agreement, and the non-degeneration witness for B G_a."""

import random
from itertools import product

import pytest

from hodgelab import stacks
from hodgelab.exactlin import CompositionNonzero, IntMat, complex_cohomology
from hodgelab.gralg import FP, QQ_R
from hodgelab.specseq import pages
from hodgelab.stacks import (
    BGa,
    BGm,
    GradedAffine,
    TwoChartP1,
    UnstableTruncation,
    UnsupportedStack,
    _TotModel,
    _cartan_complex,
    _coface_terms,
    _slot_contents,
    _slot_tuples,
    _slot_weight,
    cartan_model_dims,
    derham_cohomology,
    hdr_report,
    hodge_cohomology,
    koszul_consistency,
    verify_cartan_homotopy,
)
from hodgelab.utils import PROPERTY_SEEDS


def hodge_table(stack, n):
    return {(p, q): d for p in range(n + 1)
            for q, d in enumerate(hodge_cohomology(stack, p, n))}


def test_bgm_hodge_sits_on_the_diagonal():
    tab = hodge_table(BGm(), 3)
    for (p, q), d in tab.items():
        assert d == (1 if p == q else 0), (p, q, d)


def _gm_bar_row(m_max, bound):
    """[dim H^0, ..., dim H^m_max](G_m, Q) from the reduced bar complex
    of Q[t, 1/t] truncated to |exponent| <= bound: the total model's keys
    with no X part and no form slots."""
    bases = [[(0, (), (), slots)
              for slots, _, _ in _slot_tuples("gm", bound, s, 0)]
             for s in range(m_max + 2)]
    mats = [IntMat.from_images(src, tgt, lambda key: _coface_terms(
        "gm", (), key)) for src, tgt in zip(bases, bases[1:])]
    return complex_cohomology([len(b) for b in bases[:-1]], mats, QQ_R)


def test_bgm_hodge_matches_the_bar_complex_oracle():
    """The Koszul route for BG_m against H^(q-p)(G_m, Q) of the bar
    complex, read at two exponent windows."""
    for bound in (2, 3):
        bar = _gm_bar_row(4, bound)
        assert bar == [1, 0, 0, 0, 0], bound
        for p in range(4):
            for q_max in range(5):
                assert hodge_cohomology(BGm(), p, q_max) == \
                    ([0] * p + bar)[:q_max + 1], (bound, p, q_max)


def test_bga_hodge_fills_two_diagonals():
    """H^q(B G_a, Lambda^p L) = H^(q-p)(G_a, Q), one dimension on each
    of the diagonals q = p and q = p + 1."""
    tab = hodge_table(BGa(), 3)
    for (p, q), d in tab.items():
        assert d == (1 if q - p in (0, 1) else 0), (p, q, d)


def test_affine_line_hodge_pinned():
    a1 = GradedAffine((1,))
    assert hodge_cohomology(a1, 0, 1) == [1, 0]
    assert hodge_cohomology(a1, 1, 1) == [0, 1]


def test_hodge_rows_do_not_depend_on_the_top_degree():
    """Each row is read from one complex per p, so a shorter row is a
    prefix of a longer one."""
    for stack in (BGm(), BGa(), GradedAffine((1,)), TwoChartP1(1)):
        for p in range(4):
            assert hodge_cohomology(stack, p, 2) == \
                hodge_cohomology(stack, p, 4)[:3], (repr(stack), p)


def test_hodge_rows_of_one_report_match_row_by_row():
    """A report reads every B G_a row off one cobar table; each row is
    the one hodge_cohomology reads off a table of its own."""
    for stack in (BGm(), BGa(), GradedAffine((1,))):
        for q_maxes in ([4, 3, 2, 1, 0], [3] * 4):
            assert stacks._hodge_rows(stack, q_maxes) == [
                hodge_cohomology(stack, p, q)
                for p, q in enumerate(q_maxes)], (repr(stack), q_maxes)


def test_bga_is_de_rham_contractible():
    assert derham_cohomology(BGa(), 4) == [1, 0, 0, 0, 0]


def test_bgm_derham_is_a_polynomial_ring_on_a_degree_two_class():
    assert derham_cohomology(BGm(), 4) == [1, 0, 1, 0, 1]


def test_affine_line_quotient_matches_bgm():
    a1 = GradedAffine((1,))
    dims = derham_cohomology(a1, 4)
    assert dims == [1, 0, 1, 0, 1]
    assert cartan_model_dims(a1, 4) == dims


def test_p1_quotient_counts_both_fixed_points():
    """The scaling action on P^1 has two fixed points, so every even
    degree above 0 carries two classes."""
    p1 = TwoChartP1(1)
    dims = derham_cohomology(p1, 4)
    assert dims == [1, 0, 2, 0, 2]
    assert cartan_model_dims(p1, 4) == dims


def test_laurent_quotients_are_the_free_orbits():
    """[G_m / G_m] is a point and [G_m^2 / G_m] at weights (1, 2) is a
    free quotient isomorphic to G_m, on both de Rham routes; the point
    has Hodge cohomology O in degree 0 only."""
    point = GradedAffine((1,), laurent=(0,))
    assert derham_cohomology(point, 3) == [1, 0, 0, 0]
    assert cartan_model_dims(point, 3) == [1, 0, 0, 0]
    assert [hodge_cohomology(point, p, 2) for p in range(2)] == \
        [[1, 0, 0], [0, 0, 0]]
    torus = GradedAffine((1, 2), laurent=(0, 1))
    assert repr(torus) == "GradedAffine(weights=(1, 2), laurent=[0, 1])"
    assert derham_cohomology(torus, 3) == [1, 1, 0, 0]
    assert cartan_model_dims(torus, 3) == [1, 1, 0, 0]


def test_cech_and_cartan_routes_agree_everywhere():
    for stack in (BGm(), GradedAffine((1,)), GradedAffine((2,)),
                  GradedAffine((1, 1)), TwoChartP1(1), TwoChartP1(2)):
        cech = derham_cohomology(stack, 3)
        assert cartan_model_dims(stack, 3) == cech, repr(stack)


def test_derham_degrees_do_not_depend_on_the_top_degree():
    """Degrees below the model's cap are read from the same bases and
    maps whatever the cap, so a shorter list is a prefix."""
    for stack in (BGm(), BGa(), GradedAffine((1,)), TwoChartP1(1)):
        assert derham_cohomology(stack, 2) == derham_cohomology(stack, 4)[:3]


def _slot_tuples_oracle(group, bound, s):
    """(tuple, form count, mask, weight) for every s-slot tuple, product
    order; the G_m mask sets bit a + bound for each slot exponent a != 0."""
    fs, ws = _slot_contents(group, bound)
    return [(t, sum(1 for c in t if c[0] == "w"),
             sum(1 << (a + bound) for a in {c[1] for c in t} if a)
             if group == "gm" else 0,
             sum(_slot_weight(group, c) for c in t))
            for t in product(fs + ws, repeat=s)]


def test_slot_tuples_match_the_product_oracle():
    # every cell of bounds 0-3 and s <= 5 but G_m at (3, 5): its 13^5
    # tuples cost seconds and the models use G_m bounds <= 2 only
    checked = 0
    for group in ("gm", "ga"):
        for bound in range(4):
            for s in range(6):
                if (group, bound, s) == ("gm", 3, 5):
                    continue
                oracle = _slot_tuples_oracle(group, bound, s)
                for max_forms in range(s + 2):
                    for weight in (None,) + tuple(range(9)):
                        want = [(t, nf, mask) for t, nf, mask, wt in oracle
                                if nf <= max_forms and weight in (None, wt)]
                        got = _slot_tuples(group, bound, s, max_forms, weight)
                        assert got == want, (group, bound, s, max_forms,
                                             weight)
                        checked += 1
    assert checked == (2 * 4 * sum(s + 2 for s in range(6)) - 7) * 10


def _tot_keys_per_x_degree(stack, cap, g_bound):
    # the per-(slot count, x degree) enumeration, as key sets per mask
    # and degree
    parts = {}
    for s in range(cap + 1):
        for xdeg, xs in stacks._x_basis(stack).items():
            if cap - s - xdeg < 0:
                continue
            for slots, nf, mask in _slot_tuples(stack.group, g_bound, s,
                                                cap - s - xdeg):
                part = parts.setdefault(mask, [set() for _ in range(cap + 1)])
                part[s + xdeg + nf] |= {(sid, exps, idxs, slots)
                                        for sid, exps, idxs in xs}
    return parts


def test_tot_keys_enumerate_the_slot_tuples_once_per_slot_count(
        monkeypatch):
    calls = []
    real = stacks._slot_tuples
    monkeypatch.setattr(stacks, "_slot_tuples",
                        lambda *a: calls.append(a[2]) or real(*a))
    for stack in (TwoChartP1(1), BGm(), GradedAffine((1, -1))):
        for cap, g_bound in ((5, 1), (5, 2)):
            del calls[:]
            got = stacks._tot_keys(stack, cap, g_bound)
            assert calls == list(range(cap + 1)), repr(stack)
            want = _tot_keys_per_x_degree(stack, cap, g_bound)
            assert list(got) == list(want), repr(stack)
            for mask, part in got.items():
                assert [set(keys) for keys in part] == want[mask]
                assert all(len(set(keys)) == len(keys) for keys in part)


def test_cartan_e1_page_is_the_hodge_table():
    """The Hodge filtration of the Cartan model (form degree + u power)
    has E_1 equal to Hodge cohomology from the Koszul model; a wrong
    filtration level moves the P^1 classes off the diagonal."""
    for stack in (TwoChartP1(1), GradedAffine((1, 2))):
        e1 = pages(_cartan_complex(stack, 3), 1)[1]
        for p in range(4):
            for q, d in enumerate(hodge_cohomology(stack, p, 3 - p)):
                assert e1.dim(p, p + q) == d, (repr(stack), p, q)


def test_cartan_homotopy_is_an_exact_matrix_identity():
    checked = 0
    for stack in (GradedAffine((1,)), TwoChartP1(1),
                  GradedAffine((1, 2, -1))):
        entries = verify_cartan_homotopy(stack)
        assert all(e["ok"] for e in entries), repr(stack)
        checked += sum(e["dim"] for e in entries)
    # the sampled strands must actually contain forms
    assert checked > 100


def test_cartan_homotopy_randomized_weights():
    rng = random.Random(PROPERTY_SEEDS["cartan"])
    for _ in range(3):
        seed = rng.randrange(10 ** 6)
        entries = verify_cartan_homotopy(GradedAffine((1, 3)), seed=seed)
        assert all(e["ok"] for e in entries)


def test_koszul_stage_filtration_pages(monkeypatch):
    """koszul_consistency filters by exterior-power stage: E_0 counts the
    stage-j keys per degree.  On the affine line there is no chart-Cech
    differential, so E_1 = E_0; on P^1 the stage-p functions glue to one
    constant and the stage-(p-1) forms leave dx/x on the overlap."""
    captured = []
    true_pages = stacks.pages

    def capture(fc, *args):
        captured.append(fc)
        return true_pages(fc, *args)

    monkeypatch.setattr(stacks, "pages", capture)
    for stack in (GradedAffine((1,)), TwoChartP1(1)):
        for p in (1, 2):
            captured.clear()
            koszul_consistency(stack, p)
            e0, e1 = true_pages(captured[0], 1)
            basis, _ = stacks._koszul_complex(stack, p, stacks._CHAR_BOUND)
            counts = {}
            for n, keys in enumerate(basis):
                for key in keys:
                    counts[(key[0], n)] = counts.get((key[0], n), 0) + 1
            assert e0.entries == counts, (repr(stack), p)
            if all(sec.restrict is None for sec in stack.sectors):
                assert e1.entries == counts, (repr(stack), p)
            else:
                assert e1.entries == {(p, p): 1, (p - 1, p): 1}, p


def test_koszul_totals_match_their_spectral_sequence():
    for stack, p in ((GradedAffine((1,)), 1), (GradedAffine((1, 2)), 2),
                     (TwoChartP1(1), 1), (TwoChartP1(1), 2)):
        for entry in koszul_consistency(stack, p):
            assert entry["ok"], (repr(stack), p, entry)


def test_hdr_report_bgm_degenerates():
    rep = hdr_report(BGm(), 4)
    assert rep["degenerate"]
    assert rep["failures"] == []
    assert rep["e1_totals"] == [1, 0, 1, 0, 1]
    assert rep["derham"] == [1, 0, 1, 0, 1]
    assert rep["specseq"]["degenerate"]
    assert rep["located_d1"] == []


def test_hdr_report_affine_line_degenerates():
    rep = hdr_report(GradedAffine((1,)), 3)
    assert rep["degenerate"]
    assert rep["derham"] == [1, 0, 1, 0]
    assert rep["cartan"] == [1, 0, 1, 0]


def test_hdr_report_bga_locates_the_nonzero_d1():
    """B G_a: E_1 carries two extra diagonals which a rank-one d_1
    cancels in pairs, so the sequence cannot degenerate.  The witness
    arrow at total degree 1 runs (0,1) -> (1,1)."""
    rep = hdr_report(BGa(), 3)
    assert not rep["degenerate"]
    assert 1 in rep["failures"]
    assert rep["derham"][1] == 0
    assert not rep["specseq"]["degenerate"]
    first = [e for e in rep["located_d1"] if e["source"] == (0, 1)]
    assert first and first[0]["target"] == (1, 1)
    assert first[0]["source_dim"] + first[0]["target_dim"] == 2
    assert first[0]["rank"] == 1
    # every located arrow moves one step along the Hodge filtration
    for e in rep["located_d1"]:
        p, q = e["source"]
        assert e["target"] == (p + 1, q)
        assert e["rank"] == 1


def test_hdr_report_is_deterministic():
    assert hdr_report(BGa(), 2) == hdr_report(BGa(), 2)


def test_chart_restriction_pulls_back_in_character_coordinates():
    """P^1's chart-Cech restriction, (delta f)_01 = f_1 - f_0: chart 0
    enters the overlap with sign -1 as it is, and chart 1 through
    y = 1/x, so y^e = x^(-e) and y^e dy = -x^(-e-2) dx."""
    chart0, chart1, overlap = TwoChartP1(3).sectors
    for e in range(-3, 4):
        assert stacks._restrict(chart0, (e,), ()) == (2, -1, (e,), ())
        assert stacks._restrict(chart0, (e,), (0,)) == (2, -1, (e,), (0,))
        assert stacks._restrict(chart1, (e,), ()) == (2, 1, (-e,), ())
        assert stacks._restrict(chart1, (e,), (0,)) == \
            (2, -1, (-e - 2,), (0,))
        assert stacks._restrict(overlap, (e,), (0,)) is None
    sec = GradedAffine((1, 2)).sectors[0]
    assert stacks._restrict(sec, (1, 0), (1,)) is None


def test_cotangent_two_term_contraction():
    """a^*(f dg) = f wt(g) g on homogeneous coordinates."""
    sec = stacks._Sector(0, (3, 5), frozenset())
    assert stacks._iota(sec, (1, 0), (1,)) == [(5, (1, 1), ())]
    assert stacks._iota(sec, (2, 0), (0,)) == [(3, (3, 0), ())]
    out = stacks._iota(sec, (0, 0), (0, 1))
    assert out == [(3, (1, 0), (1,)), (-5, (0, 1), (0,))]


def test_koszul_and_cartan_refuse_a_term_off_the_weight_zero_strand(
        monkeypatch):
    # negative control: a term that drops dx_i without raising x_i has
    # weight -wt(x_i) but exponents inside the bound, so it misses the
    # target basis inside the window and must raise, not vanish
    true_iota = stacks._iota

    def leaky(sec, exps, idxs):
        out = true_iota(sec, exps, idxs)
        if idxs:
            out.append((1, exps, idxs[1:]))
        return out

    monkeypatch.setattr(stacks, "_iota", leaky)
    for stack in (TwoChartP1(1), GradedAffine((1,), laurent=(0,))):
        with pytest.raises(AssertionError, match="leaves the target basis"):
            stacks._koszul_complex(stack, 1, 2)
        with pytest.raises(AssertionError, match="leaves the target basis"):
            _cartan_complex(stack, 2)


def test_unsupported_shapes_are_refused():
    with pytest.raises(UnsupportedStack):
        GradedAffine((0, 1))
    with pytest.raises(UnsupportedStack):
        GradedAffine(())
    with pytest.raises(UnsupportedStack):
        TwoChartP1(0)
    # a Laurent index must name a variable of an affine quotient, else
    # affine:1 with laurent=(3,) would silently be the polynomial A^1
    with pytest.raises(UnsupportedStack, match="name no variable"):
        GradedAffine((1,), laurent=(3,))
    with pytest.raises(UnsupportedStack, match="name no variable"):
        GradedAffine((1, 2), laurent=(0, -1))
    with pytest.raises(UnsupportedStack):
        cartan_model_dims(BGa(), 2)
    with pytest.raises(UnsupportedStack):
        verify_cartan_homotopy(BGa())
    with pytest.raises(UnsupportedStack):
        koszul_consistency(BGm(), 1)
    with pytest.raises(UnsupportedStack):
        hodge_cohomology(BGm(), 1, 1, ring=FP(5))
    with pytest.raises(UnsupportedStack):
        derham_cohomology(BGm(), 2, ring=FP(5))


def test_unstable_truncation_is_detected():
    # weights of both signs leave an infinite weight-zero strand; the
    # truncated model must refuse rather than report a window count
    with pytest.raises(AssertionError, match=r"at \(0, 0\)"):
        hodge_cohomology(GradedAffine((1, -1)), 0, 0)


def test_unstable_truncation_carries_both_values(monkeypatch):
    # H^0(O) of affine:1,-1 is k[xy]: 3 monomials at bound 2, 4 at bound
    # 2 + max|w| = 3
    with pytest.raises(UnstableTruncation) as err:
        hodge_cohomology(GradedAffine((1, -1)), 0, 2)
    e = err.value
    assert (e.p, e.q, e.bounds, e.values) == (0, 0, (2, 3), (3, 4))
    monkeypatch.setattr(stacks, "_CHAR_BOUND", 3)
    with pytest.raises(UnstableTruncation) as err:
        hodge_cohomology(GradedAffine((1, -1)), 0, 0)
    assert (err.value.bounds, err.value.values) == ((3, 4), (4, 5))


def test_unstable_truncation_compares_shells_as_wide_as_the_weights():
    # H^0(O) of [G_m^2 / G_m] at weights (1, 2) is Q[t, 1/t], t = x^-2 y:
    # the characters (-2k, k) reach one more k only when the bound grows
    # by max|w| = 2, so a bound one wider would see no growth
    with pytest.raises(UnstableTruncation) as err:
        hodge_cohomology(GradedAffine((1, 2), laurent=(0, 1)), 0, 2)
    assert (err.value.bounds, err.value.values) == ((2, 4), (3, 5))
    with pytest.raises(UnstableTruncation) as err:
        hodge_cohomology(GradedAffine((1, -2)), 1, 1)
    assert err.value.bounds == (2, 4)


def test_mixed_sign_quotients_have_the_cohomology_of_bgm():
    """[A^2 / G_m] with weights of both signs is G_m-equivariantly
    contractible, so its de Rham cohomology is Q[u], on both routes.  An
    exponent window that drops the terms crossing its edge would read
    [1, 0, 2, 0, 2] on affine:1,-1 and break d o d on the other two."""
    for weights in ((1, -1), (1, -2), (2, -3)):
        stack = GradedAffine(weights)
        assert derham_cohomology(stack, 4) == [1, 0, 1, 0, 1], weights
        assert cartan_model_dims(stack, 4) == [1, 0, 1, 0, 1], weights


def test_a_model_missing_part_of_a_character_refuses_to_build(monkeypatch):
    # each model takes in whole characters up to the bound with no term
    # dropped.  Negative control: drop the functions x^c whose character
    # sits at the bound but keep the 1-forms of that character; the
    # contraction and the action coface then send a kept form off the
    # basis.  These quotients have a weight-zero character at the bound 2:
    # (2, 2), (2, 1) and (-2, 1)
    at_the_bound = (GradedAffine((1, -1)), GradedAffine((1, -2)),
                    GradedAffine((1, 2), laurent=(0, 1)))

    def builds(stack):
        return [lambda: stacks._koszul_complex(stack, 1, stacks._CHAR_BOUND),
                lambda: _cartan_complex(stack, 3),
                lambda: _TotModel(stack, 3, 1)]

    for stack in at_the_bound:
        for build in builds(stack):
            build()
    true_monomials = stacks._sector_monomials

    def ragged(sec, weight, bound, nforms):
        out = true_monomials(sec, weight, bound, nforms)
        if nforms:
            return out
        return [(exps, idxs) for exps, idxs in out
                if max(map(abs, exps), default=0) < bound]

    monkeypatch.setattr(stacks, "_sector_monomials", ragged)
    for stack in at_the_bound:
        for build in builds(stack):
            with pytest.raises(AssertionError,
                               match="leaves the target basis"):
                build()


def test_a_surviving_unit_slot_refuses_to_build(monkeypatch):
    # the unit slots of the first and last cofaces cancel against the
    # comultiplications.  Negative control: drop the (form, unit) term
    # of every form slot's comultiplication, and the last coface's unit
    # slot survives the alternating sum
    true_comult = stacks._comult

    def lossy(group, content):
        out = true_comult(group, content)
        if content[0] == "w":
            out = [t for t in out if t[1:] != (content, None)]
        return out

    monkeypatch.setattr(stacks, "_comult", lossy)
    with pytest.raises(AssertionError, match="unit slot survived"):
        _TotModel(BGm(), 3, 1)


def test_negative_degrees_vanish():
    assert hodge_cohomology(BGm(), -1, 0) == [0]
    assert hodge_cohomology(BGm(), 0, -2) == []
    assert derham_cohomology(BGm(), -1) == []


# negative controls: corrupt one ingredient, the verdict must turn


def test_koszul_consistency_flags_a_corrupted_direct_route(monkeypatch):
    true_complex_cohomology = stacks.complex_cohomology

    def off_by_one(dims, mats, ring):
        out = true_complex_cohomology(dims, mats, ring)
        out[-1] += 1
        return out

    monkeypatch.setattr(stacks, "complex_cohomology", off_by_one)
    rows = koszul_consistency(GradedAffine((1,)), 1)
    assert [r["ok"] for r in rows] == [True] * (len(rows) - 1) + [False]


def test_cartan_homotopy_flags_a_doubled_contraction(monkeypatch):
    true_iota = stacks._iota

    def doubled(sec, exps, idxs):
        return [(2 * c, e2, i2) for c, e2, i2 in true_iota(sec, exps, idxs)]

    monkeypatch.setattr(stacks, "_iota", doubled)
    entries = verify_cartan_homotopy(GradedAffine((1,)))
    assert any(e["dim"] for e in entries)
    assert not all(e["ok"] for e in entries)


def test_hdr_report_rejects_a_wrong_cartan_route(monkeypatch):
    # the Cartan row is the dimension route of the degeneration verdict
    true = stacks.degenerates_at
    monkeypatch.setattr(stacks, "degenerates_at", lambda fc, r: dict(
        true(fc, r), cohomology_dims=[1] * len(fc.dims)))
    with pytest.raises(AssertionError, match="Cartan"):
        hdr_report(BGm(), 2)


def test_tot_model_below_its_cap_does_not_depend_on_it():
    """derham_cohomology reads H^0 .. H^n from a model of cap n + 1:
    basis[:n + 2] and mats[:n + 1] must be those of the cap n + 2 model."""
    n = 3
    for stack in (BGm(), GradedAffine((1,)), GradedAffine((1, 2)),
                  TwoChartP1(1)):
        for g_bound in (1, 2):
            lo = _TotModel(stack, n + 1, g_bound)
            hi = _TotModel(stack, n + 2, g_bound)
            assert lo.basis == hi.basis[:n + 2], (repr(stack), g_bound)
            assert lo.mats == hi.mats[:n + 1], (repr(stack), g_bound)
            assert lo.cohomology(n) == hi.cohomology(n)


def _slot_exponents(key):
    """E: the nonzero slot exponents of a total-model key."""
    return frozenset(c[1] for c in key[3] if c[1])


GRADED = {"BGm": BGm(), "P1": TwoChartP1(1),
          "affine:1,-1": GradedAffine((1, -1)),
          "affine:1,2": GradedAffine((1, 2)),
          "affine:2,-3": GradedAffine((2, -3))}


@pytest.mark.parametrize("name", ["BGm", "P1", "affine:1,-1", "affine:1,2"])
def test_every_map_of_the_wide_window_keeps_the_slot_exponents(name):
    """The G_m total model is a direct sum over E: each coface, the slot
    d, d_x and the chart restriction keep the set of nonzero slot
    exponents."""
    model = _TotModel(GRADED[name], 5, 2)
    assert any(mat.entries for mat in model.mats)
    for n, mat in enumerate(model.mats):
        src, tgt = model.basis[n], model.basis[n + 1]
        for i, j in mat.entries:
            assert _slot_exponents(tgt[i]) == _slot_exponents(src[j]), \
                (name, tgt[i], src[j])


@pytest.mark.parametrize("name", sorted(GRADED))
def test_the_window_summands_split_the_wide_model(name):
    """One enumeration at slot bound 2 files every key by E: the part
    with E within {-1, 1} is the slot bound 1 model, basis and maps, and
    with the other summands it makes up the slot bound 2 model."""
    stack, cap = GRADED[name], 4
    narrow, wide = stacks._window_summands(stack, cap)
    lo = _TotModel(stack, cap, 1)
    built = _TotModel(stack, cap, 1, keys=narrow)
    assert built.basis == lo.basis and built.mats == lo.mats
    assert wide and all(not set(exps) <= {-1, 1} for exps in wide)
    for exps, keys in wide.items():
        assert all(_slot_exponents(key) == set(exps)
                   for basis in keys for key in basis)
    hi = _TotModel(stack, cap, 2)
    assert hi.basis == [sorted(lo.basis[n] + [key for keys in wide.values()
                                              for key in keys[n]])
                        for n in range(cap + 1)]


def test_a_coface_that_changes_the_slot_exponents_breaks_a_summand(
        monkeypatch):
    # negative control: f_a (x) f_a -> f_a (x) f_-a in the G_m
    # comultiplication moves a term from E = {a} to {-a, a}.  The whole
    # slot bound 2 window still holds that term, but the summand of
    # E = {2} does not, and its build must raise
    true_comult = stacks._comult

    def mixed(group, content):
        kind, k = content
        return [(c, left, ("f", -k) if (left, right) == (content, content)
                 and kind == "f" else right)
                for c, left, right in true_comult(group, content)]

    monkeypatch.setattr(stacks, "_comult", mixed)
    _TotModel(BGm(), 3, 2)
    _, wide = stacks._window_summands(BGm(), 3)
    with pytest.raises(AssertionError, match="leaves the target basis"):
        _TotModel(BGm(), 3, 2, keys=wide[(2,)])


def test_a_wide_summand_with_a_class_fails_the_window_verdict(monkeypatch):
    # negative control: the wide window is the reported model plus the
    # summands with a slot exponent of size 2, each acyclic.  Give the
    # summand of E = {2} one class in H^2, and the verdict must turn
    assert derham_cohomology(BGm(), 4) == [1, 0, 1, 0, 1]
    true_cohomology = _TotModel.cohomology

    def with_a_class(model, n_max):
        row = true_cohomology(model, n_max)
        if {_slot_exponents(key) for keys in model.basis
                for key in keys} == {frozenset({2})}:
            row[2] += 1
        return row

    monkeypatch.setattr(_TotModel, "cohomology", with_a_class)
    with pytest.raises(AssertionError) as err:
        derham_cohomology(BGm(), 4)
    assert str(err.value) == (
        "de Rham dim not stable under truncation at degree 2: the summand "
        "with slot exponents [2] is not acyclic")


def test_hdr_report_bga_nmax4_is_pinned():
    """The deepest B G_a report in the tests, pinned to the values of
    the subquotient pages: three rank-one d_1 arrows, and E_1 totals of
    1 in every degree against de Rham [1, 0, 0, 0, 0]."""
    rep = hdr_report(BGa(), 4)
    assert rep["located_d1"] == [
        {"source": (0, 1), "target": (1, 1), "source_dim": 1,
         "target_dim": 1, "rank": 1},
        {"source": (1, 2), "target": (2, 2), "source_dim": 1,
         "target_dim": 1, "rank": 1},
        {"source": (2, 3), "target": (3, 3), "source_dim": 1,
         "target_dim": 1, "rank": 1},
    ]
    assert rep["derham"] == [1, 0, 0, 0, 0]
    assert rep["e1_totals"] == [1, 1, 1, 1, 1]
    assert rep["degenerate"] is False
    assert rep["failures"] == [1, 2, 3, 4]
    assert rep["specseq"] == {
        "page": 1, "degenerate": False, "by_vanishing": False,
        "by_dimension": False, "first_nonzero": (1, 0, 1),
        "cohomology_dims": [0, 0, 0, 0, 0, 0, 0]}


@pytest.mark.parametrize("n_max", [1, 2, 3, 4])
def test_bga_strand_bounds_past_the_used_ones_change_no_report(n_max):
    # every strand of weight w >= 1 is acyclic through n_max, so summing
    # w <= n + 3 instead of w <= n + 2 adds nothing to a de Rham row; and
    # the last strand hdr_report locates arrows on has none, so dropping
    # it leaves located_d1 as it is
    dims, strands = stacks._bga_derham(n_max)
    assert dims == [1] + [0] * n_max
    for strand in strands[1:]:
        assert strand.cohomology(n_max) == [0] * (n_max + 1)
    last = stacks._bga_strand_filtered(strands[n_max + 1])
    assert stacks._located_d1(last) == []


def test_bga_derham_reads_no_strand_top_pair(monkeypatch):
    # derham-stack builds each B G_a strand to degree cap n_max + 2 and
    # reads degrees <= n_max, so mats[n_max + 1] enters no printed number
    # and no d o d check: replacing it in every strand leaves the row,
    # while corrupting mats[n_max] raises or changes it
    n_max = 4
    want = derham_cohomology(BGa(), n_max)
    assert want == [1, 0, 0, 0, 0]
    build = _TotModel.__init__
    replaced = []

    def with_ones_at(k):
        def init(model, *args, **kwargs):
            build(model, *args, **kwargs)
            old = model.mats[k]
            ones = IntMat(old.nrows, old.ncols,
                          {(i, j): 1 for i in range(old.nrows)
                           for j in range(old.ncols)})
            replaced.append((k, ones != old))
            model.mats[k] = ones
        return init

    monkeypatch.setattr(_TotModel, "__init__", with_ones_at(n_max + 1))
    assert derham_cohomology(BGa(), n_max) == want
    assert sum(changed for k, changed in replaced if k == n_max + 1) >= 3
    monkeypatch.setattr(_TotModel, "__init__", with_ones_at(n_max))
    try:
        row = derham_cohomology(BGa(), n_max)
    except CompositionNonzero:
        return
    assert row != want
