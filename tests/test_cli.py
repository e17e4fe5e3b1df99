"""Batch front end: exit codes, report determinism, config layering."""

import hashlib
import json

import pytest

from hodgelab import cli, cobar, crystal, stacks
from hodgelab.exactlin import AbGroup, IntMat


def run_main(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_bockstein_command_passes(capsys):
    code, out = run_main(["bockstein", "--p", "2"], capsys)
    assert code == 0
    assert "summary: pass=3 fail=0" in out


def test_json_runs_are_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, out = run_main(
            ["census", "--wmax", "16", "--format", "json",
             "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
    assert a.read_bytes() == b.read_bytes()


def test_json_report_round_trips(tmp_path, capsys):
    path = tmp_path / "r.json"
    run_main(["unfold", "--p", "2", "--format", "json", "--out", str(path)],
             capsys)
    text = path.read_text()
    report = json.loads(text)
    assert json.dumps(report, sort_keys=True, indent=2) + "\n" == text
    assert report["command"] == "unfold"
    assert report["summary"]["fail"] == 0


def test_expectation_mismatch_exits_two(capsys):
    code, out = run_main(
        ["hdr", "--stack", "BGa", "--nmax", "1", "--expect", "degenerate"],
        capsys)
    assert code == 2
    assert "FAIL" in out


def test_default_expectation_tracks_the_stack(capsys):
    code, out = run_main(["hdr", "--stack", "BGa", "--nmax", "1"], capsys)
    assert code == 0
    assert "computed=\"non-degenerate\"" in out


def test_usage_errors_exit_one(capsys):
    for argv in (["bockstein", "--p", "4"],
                 ["cartier", "--p", str(10 ** 30 + 57)],
                 ["nosuch"],
                 [],
                 ["census", "--wmax", "-3"],
                 ["hodge", "--stack", "Qux"],
                 ["acrys", "--model", "blob"]):
        assert cli.main(argv) == 1
        capsys.readouterr()


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("bogus = 1\n")
    assert cli.main(["census", "--config", str(cfg)]) == 1
    capsys.readouterr()


def test_config_file_layering(tmp_path, capsys):
    # file supplies p and wmax, the flag overrides p only
    cfg = tmp_path / "h.cfg"
    cfg.write_text("p = 3\nwmax = 12\nformat = json\n")
    code, out = run_main(
        ["bga-fp", "--config", str(cfg), "--p", "2"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["params"]["p"] == 2
    assert report["params"]["wmax"] == 12


def test_entries_are_ordered_by_strand(capsys):
    code, out = run_main(["bga-fp", "--wmax", "8", "--format", "json"],
                         capsys)
    assert code == 0
    keys = [(e["n"], e["w"]) for e in json.loads(out)["entries"]
            if "n" in e]
    assert keys == sorted(keys)


def test_bga_rejects_a_corrupted_strand_group(monkeypatch):
    # Z/4 at (3, 6) is not squarefree torsion: that row alone must fail
    real = cobar.group_table

    def corrupted(n_max, w_max):
        table = real(n_max, w_max)
        table[3, 6] = AbGroup(0, (4,))
        return table

    monkeypatch.setattr(cobar, "group_table", corrupted)
    report, code = cli.run(cli.RunConfig("bga", {"nmax": 3, "wmax": 12}))
    assert code != 0
    bad = [e for e in report["entries"] if not e["ok"]]
    assert [(e["n"], e["w"], e["result"]) for e in bad] == \
        [(3, 6, {"rank": 0, "torsion": [4]})]


def test_bga_rejects_a_wrong_v1_square(monkeypatch):
    # v2 has order 2, so the doubled class is 0 and v1 u v1 = v2 is
    # false: that row alone must fail
    real = cobar.torsion_class
    monkeypatch.setattr(cobar, "torsion_class",
                        lambda p, i: real(p, i).scale(2))
    report, code = cli.run(cli.RunConfig("bga", {"nmax": 2, "wmax": 4}))
    assert code != 0
    bad = [e for e in report["entries"] if not e["ok"]]
    assert [e.get("id") for e in bad] == ["v1-cup-v1-is-v2"]


def test_bga_fp_rejects_an_off_by_one_hilbert_oracle(monkeypatch):
    # the F_2 Hilbert oracle off by one at (2, 4): that row alone fails
    real = cobar.hilbert_dims_f2

    def corrupted(n_max, w_max):
        dims = real(n_max, w_max)
        dims[2, 4] = dims.get((2, 4), 0) + 1
        return dims

    monkeypatch.setattr(cobar, "hilbert_dims_f2", corrupted)
    report, code = cli.run(cli.RunConfig("bga-fp", {"wmax": 8}))
    assert code == 2
    bad = [e for e in report["entries"] if not e["ok"]]
    assert [(e["n"], e["w"]) for e in bad] == [(2, 4)]
    assert bad[0]["oracle"] == bad[0]["dim"] + 1


def test_bockstein_rejects_a_zero_bockstein(monkeypatch):
    # beta returning the zero class of the right bidegree kills
    # w1, and beta(beta) = 0 holds trivially; only the relation that
    # names beta(w_p) must fail
    monkeypatch.setattr(cobar, "bockstein", lambda p, a: cobar.CohClass(
        a.cohdeg + 1, a.weight, {}, a.ring))
    for p, relation in ((2, "beta-w2-is-w1-squared"), (3, "beta-wp-hits-vp")):
        report, code = cli.run(cli.RunConfig("bockstein", {"p": p}))
        assert code == 2
        assert [e["id"] for e in report["entries"] if not e["ok"]] == \
            [relation]


def _koszul_with_an_extra_class(monkeypatch):
    # BG_m's Koszul model for Lambda^p is one key in degree p; a closed
    # key in degree p + 1 adds a class to H^(p+1)
    real = stacks._koszul_complex

    def corrupted(stack, p, bound):
        basis, mats = real(stack, p, bound)
        assert len(basis) == p + 1
        extra = [("extra",)]
        return basis + [extra], mats + [
            IntMat.from_images(basis[p], extra, lambda key: {})]

    monkeypatch.setattr(stacks, "_koszul_complex", corrupted)


def _group_table_with_an_extra_class(monkeypatch):
    # one free class more in H^2(G_a, Z) at weight 4
    real = cobar.group_table

    def corrupted(n_max, w_max):
        table = real(n_max, w_max)
        if (2, 4) in table:
            g = table[2, 4]
            table[2, 4] = AbGroup(g.rank + 1, g.torsion)
        return table

    monkeypatch.setattr(cobar, "group_table", corrupted)


@pytest.mark.parametrize("stack, corrupt, extra", [
    ("BGm", _koszul_with_an_extra_class, 1),
    ("BGa", _group_table_with_an_extra_class, 2)])
def test_hodge_rejects_a_group_row_with_an_extra_class(
        monkeypatch, stack, corrupt, extra):
    # one class too many in H^extra(G): exactly the rows (p, p + extra)
    corrupt(monkeypatch)
    report, code = cli.run(cli.RunConfig("hodge", {"stack": stack,
                                                   "nmax": 3}))
    assert code == 2
    bad = [(e["p"], e["q"]) for e in report["entries"] if not e["ok"]]
    assert bad == [(p, p + extra) for p in range(4 - extra)]


@pytest.mark.parametrize("cmd, top", [("hodge", 3), ("hdr", 4)])
def test_bga_hodge_rows_come_from_one_cobar_table(monkeypatch, cmd, top):
    # H^m of a weight strand does not depend on the table's top degree,
    # so one table, reaching the largest q - p, serves every row p
    tops = []
    real = cobar.group_table
    monkeypatch.setattr(cobar, "group_table", lambda n_max, w_max: (
        tops.append(n_max) or real(n_max, w_max)))
    report, code = cli.run(cli.RunConfig(cmd, {"stack": "BGa", "nmax": 3}))
    assert code == 0 and report["entries"]
    assert tops == [top]


@pytest.mark.parametrize("stack", ["A1", "P1", "affine:1,2"])
def test_hodge_rejects_a_quotient_row_off_the_cartan_e1_page(
        monkeypatch, stack):
    # one class too many at (1, 1): the Cartan E_1 route must flag
    # exactly that row
    real = stacks.hodge_cohomology
    monkeypatch.setattr(stacks, "hodge_cohomology", lambda st, p, q_max: [
        d + (p == q == 1) for q, d in enumerate(real(st, p, q_max))])
    report, code = cli.run(cli.RunConfig("hodge", {"stack": stack,
                                                   "nmax": 3}))
    assert code == 2
    assert [(e["p"], e["q"]) for e in report["entries"]
            if not e["ok"]] == [(1, 1)]


def test_census_rejects_a_census_without_torsion(monkeypatch):
    real = cobar.torsion_census
    monkeypatch.setattr(cobar, "torsion_census", lambda p, n, w_max: [
        (w, AbGroup(g.rank, ())) for w, g in real(p, n, w_max)])
    report, code = cli.run(cli.RunConfig("census", {"wmax": 16}))
    assert code == 2
    assert [e["id"] for e in report["entries"] if not e["ok"]] == \
        ["distinct-weights"]


def test_census_counts_distinct_weights_only_in_degree_two():
    # H^3 has no class below weight 6, so a count of one Z/2 weight per
    # power of 2 up to wmax / 2 would fail a correct table
    report, code = cli.run(cli.RunConfig("census", {"n": 3, "wmax": 4}))
    assert code == 0
    assert [e.get("id") for e in report["entries"]] == ["cumulative-monotone"]


def _acrys_failures(monkeypatch, owner, name, corrupt):
    true_fn = getattr(owner, name)
    monkeypatch.setattr(owner, name, corrupt(true_fn))
    report, code = cli.run(cli.RunConfig("acrys", {}))
    assert code == 2
    return [e for e in report["entries"] if not e["ok"]]


def test_acrys_rejects_a_frobenius_that_is_no_ring_map(monkeypatch):
    # phi(x) + 1 is additive-affine, not multiplicative
    bad = _acrys_failures(
        monkeypatch, crystal.CrysAlgebra, "frobenius",
        lambda true: lambda self, el: true(self, el) + self.ctx.one())
    assert [e.get("id") for e in bad] == ["frobenius-ring-map"]


def test_acrys_rejects_a_theta_matrix_with_a_dropped_entry(monkeypatch):
    def corrupt(true):
        def theta_matrix(self, w):
            theta = true(self, w)
            ent = dict(theta.entries)
            if ent:
                del ent[min(ent)]
            return IntMat(theta.nrows, theta.ncols, ent)
        return theta_matrix

    bad = _acrys_failures(monkeypatch, crystal.CrysAlgebra, "theta_matrix",
                          corrupt)
    assert bad and all("theta_kernel" in e for e in bad)
    assert all(e["theta_kernel"] == e["pd_positive"] + 1 for e in bad)


def test_acrys_rejects_a_rising_hodge_filtration(monkeypatch):
    # stages 0 and 1 swapped: Fil^1 is then the whole strand
    bad = _acrys_failures(
        monkeypatch, crystal, "hodge_fil",
        lambda true: lambda A, r, w: true(A, {0: 1, 1: 0}.get(r, r), w))
    assert bad and all(e.get("id") == "filtrations" for e in bad)


def test_unstable_truncation_exits_two_without_traceback(capsys):
    # affine:1,-1 is not Hodge-proper: H^0(O) = k[xy] grows with the bound
    for cmd in ("hodge", "hdr"):
        code = cli.main([cmd, "--stack", "affine:1,-1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("hodgelab: error: Koszul strand not stable")
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["kappa", "--p", "11"], ["acrys", "--p", "11"], ["di-split", "--p", "11"],
    ["unfold", "--p", "2", "--wmax", "1"],
    ["unfold", "--p", "2", "--depth", "1"],
    ["cech-alexander", "--p", "3", "--wmax", "2"],
    ["di-split", "--p", "3", "--rmax", "5"],
    ["census", "--n", "0"], ["census", "--n", "1"]])
def test_a_refused_truncation_exits_one_without_traceback(argv, capsys):
    # a weight bound below p, a truncation too small for the stability
    # check, a splitting past grade p - 1, or a census degree whose
    # cohomology has no torsion is refused before any report
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("hodgelab: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["hodge", "--stack", "p1:x"], ["hodge", "--stack", "p1:"],
    ["hodge", "--config", "{cfg}"], ["bockstein", "--out", "{tmp}/no/x"]])
def test_a_bad_stack_spec_or_output_path_exits_one_without_traceback(
        argv, tmp_path, capsys):
    cfg = tmp_path / "p1.cfg"
    cfg.write_text("stack = p1:y\n")
    code = cli.main([a.format(cfg=cfg, tmp=tmp_path) for a in argv])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("hodgelab: error: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("out", ["{tmp}/no/x", "{tmp}"])
def test_an_unwritable_out_path_is_refused_before_the_run(
        out, tmp_path, monkeypatch, capsys):
    def spy(config):
        raise AssertionError("the suite ran before --out was checked")
    monkeypatch.setattr(cli, "run", spy)
    code = cli.main(["bockstein", "--out", out.format(tmp=tmp_path)])
    stdout, err = capsys.readouterr()
    assert code == 1 and stdout == ""
    assert err.startswith("hodgelab: error: cannot write ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("name", ["old.json", "new.json"])
def test_an_out_file_is_written_only_once_its_report_exists(
        name, tmp_path, monkeypatch):
    (tmp_path / "old.json").write_text("kept\n")
    path = tmp_path / name
    real = cli.run

    def spy(config):
        # the check before the run neither truncates nor creates the file
        assert [f.name for f in tmp_path.iterdir()] == ["old.json"]
        assert (tmp_path / "old.json").read_text() == "kept\n"
        return real(config)
    monkeypatch.setattr(cli, "run", spy)
    assert cli.main(["bockstein", "--format", "json", "--out",
                     str(path)]) == 0
    assert json.loads(path.read_text())["command"] == "bockstein"


# the sha256 of each whole JSON report, taken before the divided-power
# rewrite rule was folded into one loop
GLUED_ACRYS_SHA256 = {
    ("--p", "2"):
        "9f408493c21d4f84072acafd53f69e690dcda149524515c6de22fc0f2eaf4c81",
    ("--p", "3", "--depth", "2"):
        "e3819cbee90a1d268ad1b66ef8998347209dd603e9e454d148e396e0c39ce36a",
    ("--p", "2", "--depth", "2"):
        "6e07a1754d3c69069aab81900e210aa450232a6e8eb186953b3c2367543edf23",
    ("--p", "2", "--wmax", "8"):
        "f4517c9bacf9ddda5c45f5fb78f2ab3018dbe1477fcc4976d919d9cf8f04f3cd",
}


@pytest.mark.parametrize("argv", list(GLUED_ACRYS_SHA256))
def test_glued_acrys_checks_frobenius_inside_its_window(argv, capsys):
    # Frobenius images of the samples reach weight p * wmax, past the
    # report's window; the glued model's terms there do not vanish
    code = cli.main(["acrys", "--model", "glued", "--format", "json"]
                    + list(argv))
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    (row,) = [e for e in json.loads(out)["entries"]
              if e.get("id") == "frobenius-ring-map"]
    assert row == {"id": "frobenius-ring-map", "pairs": 12, "failures": 0,
                   "ok": True}
    assert (hashlib.sha256(out.encode()).hexdigest()
            == GLUED_ACRYS_SHA256[argv])


# each stack spec and the name that `hdr` writes into its report
STACK_NAMES = {
    "BGm": "BGm", "BGa": "BGa", "A1": "GradedAffine(weights=(1,))",
    "P1": "TwoChartP1(1)", "P1:2": "TwoChartP1(2)",
    "affine:1,2": "GradedAffine(weights=(1, 2))",
    "affine:1,-1": "GradedAffine(weights=(1, -1))",
    "affine:1,-2": "GradedAffine(weights=(1, -2))",
    "affine:2,-3": "GradedAffine(weights=(2, -3))",
}


def test_stack_specs_print_their_names():
    for spec, name in STACK_NAMES.items():
        assert repr(cli._parse_stack(spec)) == name


@pytest.mark.parametrize("stack", list(STACK_NAMES))
def test_hdr_ends_in_a_report_or_one_error_line(stack, capsys):
    # hdr, hodge and derham-stack at every n_max from 0 to 4: a JSON
    # report, or one error line and no traceback; hdr on B G_a at n_max 0
    # is refused, since its first nonzero d_1 leaves degree 1, and
    # derham-stack always reports
    for cmd in ("hdr", "hodge", "derham-stack"):
        for nmax in range(5):
            code = cli.main([cmd, "--stack", stack, "--nmax", str(nmax),
                             "--format", "json"])
            out, err = capsys.readouterr()
            if err:
                assert code in (1, 2) and out == "", (cmd, stack, nmax)
                assert err.startswith("hodgelab: error: ")
                assert err.count("\n") == 1 and "Traceback" not in err
            else:
                assert code in (0, 2) and json.loads(out)["entries"]
            if (cmd, stack, nmax) == ("hdr", "BGa", 0):
                # an input error, not a failed verdict
                assert code == 1 and err
            if cmd == "derham-stack":
                assert code == 0, (stack, nmax)


def test_runconfig_rejects_unknown_parameter():
    with pytest.raises(cli.ConfigError):
        cli.RunConfig("census", {"pmax": 1})


def test_runconfig_bounds_p_below_2_to_the_31():
    # 2147483647 = 2^31 - 1 is prime, and so is the next prime 2147483659:
    # every mod-p route is exact past 2^31, and only a p whose primality
    # Miller-Rabin cannot certify is refused, besides a composite
    for p in (2147483647, 2147483659):
        assert cli.RunConfig("census", {"p": p}).params["p"] == p
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig("census", {"p": 2147483661})
    assert str(err.value) == "p must be a prime, got 2147483661"
    big = 10 ** 30 + 57
    with pytest.raises(cli.ConfigError) as err:
        cli.RunConfig("census", {"p": big})
    assert str(err.value).startswith("p = %d: primality past" % big)


def test_selftest_fast_is_green(capsys):
    code, out = run_main(["selftest", "--fast"], capsys)
    assert code == 0
    assert "fail=0" in out.splitlines()[-3]
