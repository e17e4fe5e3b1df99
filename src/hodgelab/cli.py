"""Batch verification front end.

Each subcommand runs one named verification suite against the library
and emits a deterministic report, as a text table or as JSON with
sorted keys.  Exit status: 0 when every verdict matches expectation,
2 when any check fails or a truncated model is not stable under its
truncation, 1 on usage or configuration errors and on a truncation
too small for the request.  A flat key=value config file can supply
defaults; command-line flags win.
"""

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction
from math import isqrt

from . import __version__, cobar, crystal, derham, stacks
from .exactlin import AbGroup, fp_rank
from .gralg import FP, _is_prime
from .specseq import pages
from .utils import PROPERTY_SEEDS

__all__ = ["ConfigError", "RunConfig", "run", "main"]


class ConfigError(Exception):
    pass


# per-command parameter schema with defaults; None means "derived from
# the other parameters inside the runner"
_SCHEMAS = {
    "bga": {"nmax": 3, "wmax": 20},
    "bga-fp": {"p": 2, "nmax": 4, "wmax": 16},
    "bockstein": {"p": 2},
    "cartier": {"p": 2, "vars": 1, "wmax": 8, "pairs": 100,
                "seed": PROPERTY_SEEDS["cartier_pairs"]},
    "cech-alexander": {"p": 2, "wmax": None},
    "acrys": {"p": 2, "depth": 3, "wmax": 6, "model": "point"},
    "kappa": {"p": 2, "depth": 3, "wmax": 8, "rmax": None,
              "model": "point"},
    "di-split": {"p": 2, "depth": 3, "wmax": 8, "rmax": None,
                 "model": "point"},
    "unfold": {"p": 2, "wmax": None, "depth": None},
    "hodge": {"stack": "BGm", "nmax": 3},
    "derham-stack": {"stack": "BGm", "nmax": 4},
    "hdr": {"stack": "BGa", "nmax": 3, "expect": None},
    "census": {"p": 2, "n": 2, "wmax": 32},
    "selftest": {"fast": False},
}

_STR_PARAMS = {"model", "stack", "expect"}
_BOOL_PARAMS = {"fast"}
_GLOBAL_KEYS = {"format", "out"}


class RunConfig:
    """One resolved invocation: command, parameters, output routing."""

    def __init__(self, command, params, fmt="text", out=None):
        if command not in _SCHEMAS:
            raise ConfigError("unknown command %r" % command)
        self.command = command
        self.params = dict(params)
        self.fmt = fmt
        self.out = out
        _validate(command, self.params)
        if fmt not in ("text", "json"):
            raise ConfigError("unknown format %r" % fmt)


def _prime_power_base(m):
    """q when m = q^i for a prime q and i >= 1, else None."""
    if m < 2:
        return None
    for q in range(2, m + 1):
        if _is_prime(q):
            k = m
            while k % q == 0:
                k //= q
            if k == 1:
                return q
            if m % q == 0:
                return None
    return None


def _validate(command, params):
    schema = _SCHEMAS[command]
    for key, value in params.items():
        if key not in schema:
            raise ConfigError("unknown key %r for command %s"
                              % (key, command))
        if value is None:
            continue
        if key == "p":
            try:
                prime = _is_prime(value)
            except ValueError as e:
                raise ConfigError("p = %r: %s" % (value, e))
            if not prime:
                raise ConfigError("p must be a prime, got %r" % (value,))
        if key in ("nmax", "wmax", "depth", "vars", "pairs", "rmax"):
            if value < 0 or (key in ("depth", "vars") and value < 1):
                raise ConfigError("%s out of range: %r" % (key, value))
        if key == "n" and value < 2:
            # H^0 and H^1 of G_a over Z are torsion-free
            raise ConfigError("census needs n >= 2, got %r" % (value,))
        if key == "model" and value not in ("point", "glued"):
            raise ConfigError("model must be point or glued, got %r"
                              % (value,))
        if key == "expect" and value not in ("degenerate", "non-degenerate"):
            raise ConfigError("expect must be degenerate or non-degenerate")
    for key, dflt in schema.items():
        params.setdefault(key, dflt)


def _parse_stack(spec):
    s = str(spec).strip()
    low = s.lower()
    if low == "bgm":
        return stacks.BGm()
    if low == "bga":
        return stacks.BGa()
    if low == "a1":
        return stacks.GradedAffine((1,))
    try:
        if low == "p1" or low.startswith("p1:"):
            return stacks.TwoChartP1(int(s.split(":", 1)[1])
                                     if ":" in s else 1)
        if low.startswith("affine:"):
            return stacks.GradedAffine(
                tuple(int(x) for x in s.split(":", 1)[1].split(",")))
    except (ValueError, stacks.UnsupportedStack) as e:
        raise ConfigError("bad stack spec %r: %s" % (spec, e))
    raise ConfigError("unknown stack spec %r (use BGm, BGa, A1, P1[:w], "
                      "affine:w1,w2,...)" % (spec,))


def _crystal_model(p, depth, wmax, model):
    relators = [("var", 0)] if model == "point" else [("diff", 0, 1)]
    nvars = 1 if model == "point" else 2
    try:
        return crystal.SemiperfectModel(p, nvars, relators, depth, wmax)
    except ValueError as e:
        raise ConfigError(str(e))


# -- runners; each returns a list of entry dicts carrying "ok" --------------


def _run_bga(ps):
    nmax, wmax = ps["nmax"], ps["wmax"]
    jobs = [(n, w) for n in range(nmax + 1) for w in range(wmax + 1)]
    table = cobar.group_table(nmax, wmax)
    groups = [table[job] for job in jobs]
    entries, zeros = [], 0
    for (n, w), g in zip(jobs, groups):
        ok = _bga_strand_ok(n, w, g)
        if g.rank == 0 and not g.torsion and ok:
            zeros += 1
            continue
        entries.append({"n": n, "w": w, "result": g, "ok": ok})
    entries.append({"id": "zero-strands", "count": zeros, "ok": True})
    v1 = cobar.v_one()
    entries.append({
        "id": "v1-cup-v1-is-v2",
        "ok": cobar.classes_equal(cobar.cup(v1, v1), cobar.torsion_class(2, 1)),
    })
    return entries


def _squarefree(m):
    return all(m % (q * q) for q in range(2, isqrt(m) + 1))


def _bga_strand_ok(n, w, g):
    if n == 0:
        return g.rank == (1 if w == 0 else 0) and not g.torsion
    if n == 1:
        return g.rank == (1 if w == 2 else 0) and not g.torsion
    ok = g.rank == 0 and all(_squarefree(t) for t in g.torsion)
    if n == 2:
        if w % 2:
            return ok and not g.torsion
        q = _prime_power_base(w // 2)
        if q is not None:
            ok = ok and g.torsion_count(q) >= 1
    return ok


def _run_bga_fp(ps):
    p, nmax, wmax = ps["p"], ps["nmax"], ps["wmax"]
    if p == 2:
        oracle = cobar.hilbert_dims_f2(nmax, wmax)
    else:
        oracle = cobar.hilbert_dims_odd(p, nmax, wmax)
    jobs = [(n, w) for n in range(nmax + 1) for w in range(wmax + 1)]
    dims = [cobar.group_cohomology(n, w, ring=FP(p)) for n, w in jobs]
    entries, zeros = [], 0
    for (n, w), d in zip(jobs, dims):
        expect = oracle.get((n, w), 0)
        if d == 0 and expect == 0:
            zeros += 1
            continue
        entries.append({"n": n, "w": w, "dim": d, "oracle": expect,
                        "ok": d == expect})
    entries.append({"id": "zero-strands", "count": zeros, "ok": True})
    return entries


def _run_bockstein(ps):
    p = ps["p"]
    entries = []
    w1 = cobar.w_class(p, 0)
    entries.append({"id": "beta-kills-w1", "p": p,
                    "ok": cobar.bockstein(p, w1).cocycle == {}})
    b = cobar.bockstein(p, cobar.w_class(p, 1))
    if p == 2:
        ok = (b.cocycle == {(1, 1): 1}
              and cobar.classes_equal(b, cobar.cup(w1, w1)))
        entries.append({"id": "beta-w2-is-w1-squared", "p": p, "ok": ok})
    else:
        vbar = cobar.CohClass(2, 2 * p,
                              {k: v % p for k, v in
                               cobar.torsion_class(p, 1).cocycle.items()},
                              FP(p))
        scal = cobar.is_scalar_multiple(b, vbar, p)
        entries.append({"id": "beta-wp-hits-vp", "p": p, "scalar": scal,
                        "ok": scal is not None})
    entries.append({"id": "beta-squared-is-zero", "p": p,
                    "ok": cobar.class_is_zero(cobar.bockstein(p, b))})
    return entries


def _run_cartier(ps):
    entries = list(derham.verify_cartier_iso(ps["p"], ps["vars"],
                                             ps["wmax"]))
    fails = derham.cartier_multiplicativity(ps["p"], ps["vars"], ps["wmax"],
                                            pairs=ps["pairs"],
                                            seed=ps["seed"])
    entries.append({"id": "multiplicativity", "pairs": ps["pairs"],
                    "failures": fails, "ok": fails == 0})
    return entries


def _run_cech_alexander(ps):
    wmax = ps["wmax"] if ps["wmax"] is not None else ps["p"] ** 2
    return list(derham.cech_alexander_compare(ps["p"], wmax))


def _run_acrys(ps):
    p, depth, wmax = ps["p"], ps["depth"], ps["wmax"]
    s = _crystal_model(p, depth, wmax, ps["model"])
    a = crystal.acrys_mod(s, p * p)
    den = p ** (depth - 1)
    entries = []
    for num in range(wmax * den + 1):
        w = Fraction(num, den)
        basis = a.strand_basis(w)
        if not basis:
            continue
        theta = a.theta_matrix(w)
        kernel = theta.ncols - fp_rank(theta, p)
        pd_pos = sum(1 for _, comps in basis if sum(comps) > 0)
        entries.append({"w": w, "dim": len(basis), "theta_kernel": kernel,
                        "pd_positive": pd_pos, "ok": kernel == pd_pos})
    for w in range(wmax + 1):
        dim = len(a.strand_basis(w))
        reached = None
        for r in range(2 * wmax + 3):
            if len(crystal.conj_fil(a, r, w)) == dim:
                reached = r
                break
        hodge_dims = [len(crystal.hodge_fil(a, r, w))
                      for r in range(wmax + 2)]
        falls = all(x >= y for x, y in zip(hodge_dims, hodge_dims[1:]))
        entries.append({"id": "filtrations", "w": w, "conj_full_at": reached,
                        "ok": reached is not None and falls})
    rng = random.Random(PROPERTY_SEEDS["acrys"])
    # Frobenius multiplies weights by p, so the ring-map check runs in a
    # model of cap p * wmax; its strands below the cap are those of s
    wide = _crystal_model(p, depth, p * wmax, ps["model"])

    def sample(alg):
        # weights at most wmax/2, so products stay inside the window
        # wmax and their Frobenius images inside p * wmax
        el = alg.ctx.zero()
        for num in range(1, (wmax * den) // 2 + 1):
            for key in alg.strand_basis(Fraction(num, den)):
                if rng.randrange(4) == 0:
                    el += alg.ctx.monomial(*key) * rng.randrange(1, p + 2)
        return el

    fails = 0
    for modulus in (p, p * p):
        am = crystal.acrys_mod(wide, modulus)
        for _ in range(6):
            x, y = sample(am), sample(am)
            if (am.frobenius(x * y)
                    - am.frobenius(x) * am.frobenius(y)).terms:
                fails += 1
    entries.append({"id": "frobenius-ring-map", "pairs": 12,
                    "failures": fails, "ok": fails == 0})
    return entries


def _run_kappa(ps):
    p = ps["p"]
    rmax = ps["rmax"] if ps["rmax"] is not None else p - 1
    s = _crystal_model(p, ps["depth"], ps["wmax"], ps["model"])
    return list(crystal.verify_kappa_iso(s, rmax))


def _run_di_split(ps):
    p = ps["p"]
    s = _crystal_model(p, ps["depth"], ps["wmax"], ps["model"])
    _, entries = crystal.di_splitting(s, r_max=ps["rmax"])
    return list(entries)


def _run_unfold(ps):
    p = ps["p"]
    wmax = ps["wmax"] if ps["wmax"] is not None else p * p
    depth = ps["depth"] if ps["depth"] is not None else (3 if p == 2 else 2)
    return list(crystal.unfold_derham(p, wmax, depth=depth))


def _run_hodge(ps):
    stack = _parse_stack(ps["stack"])
    nmax = ps["nmax"]
    rows = stacks._hodge_rows(stack, [nmax] * (nmax + 1))
    has_x = bool(stack.sectors[0].weights)
    if has_x:
        # the second route: E_1 of the Cartan model's Hodge filtration
        e1 = pages(stacks._cartan_complex(stack, 2 * nmax), 1)[1]
    entries = []
    for pp, row in enumerate(rows):
        for q, d in enumerate(row):
            if has_x:
                ok = d == e1.dim(pp, pp + q)
            elif stack.group == "ga":
                ok = d == (1 if q - pp in (0, 1) else 0)
            else:
                ok = d == (1 if pp == q else 0)
            if d or not ok:
                entries.append({"p": pp, "q": q, "dim": d, "ok": ok})
    if has_x:
        for pp in range(1, nmax + 1):
            rows = stacks.koszul_consistency(stack, pp)
            entries.append({"id": "koszul-consistency", "p": pp,
                            "ok": all(r["ok"] for r in rows)})
    return entries


def _run_derham_stack(ps):
    stack = _parse_stack(ps["stack"])
    nmax = ps["nmax"]
    dims = stacks.derham_cohomology(stack, nmax)
    entries = []
    if stack.group == "ga":
        for n, d in enumerate(dims):
            entries.append({"n": n, "dim": d,
                            "ok": d == (1 if n == 0 else 0)})
        return entries
    cartan = stacks.cartan_model_dims(stack, nmax)
    for n, d in enumerate(dims):
        entries.append({"n": n, "dim": d, "cartan_dim": cartan[n],
                        "ok": d == cartan[n]})
    if stack.sectors[0].weights:
        hom = stacks.verify_cartan_homotopy(stack)
        entries.append({"id": "euler-homotopy",
                        "strands": len(hom),
                        "forms": sum(e["dim"] for e in hom),
                        "ok": all(e["ok"] for e in hom)})
    return entries


def _run_hdr(ps):
    stack = _parse_stack(ps["stack"])
    rep = stacks.hdr_report(stack, ps["nmax"])
    expect = ps["expect"]
    if expect is None:
        expect = "non-degenerate" if stack.group == "ga" else "degenerate"
    computed = "degenerate" if rep["degenerate"] else "non-degenerate"
    entries = []
    for n in range(ps["nmax"] + 1):
        entries.append({"n": n, "e1_total": rep["e1_totals"][n],
                        "derham": rep["derham"][n],
                        "agree": n not in rep["failures"], "ok": True})
    for arrow in rep["located_d1"]:
        e = {"id": "d1"}
        e.update(arrow)
        e["ok"] = True
        entries.append(e)
    entries.append({"id": "verdict", "computed": computed,
                    "expected": expect,
                    "specseq_degenerate": rep["specseq"]["degenerate"],
                    "ok": computed == expect})
    return entries


def _run_census(ps):
    p, n, wmax = ps["p"], ps["n"], ps["wmax"]
    data = cobar.torsion_census(p, n, wmax)
    entries, cum, distinct = [], 0, 0
    counts = []
    for w, g in data:
        c = g.torsion_count(p)
        cum += c
        counts.append(cum)
        if c:
            distinct += 1
            entries.append({"w": w, "count": c, "cumulative": cum,
                            "result": g, "ok": True})
    if n == 2:
        # H^2 holds the p-torsion class v_q = [d(x^q)/p] of weight 2q for
        # each power q > 1 of p, so one Z/p weight per q; no other degree
        # has a class in each such weight
        need = 0
        k = p
        while 2 * k <= wmax:
            need += 1
            k *= p
        entries.append({"id": "distinct-weights", "found": distinct,
                        "required": need, "ok": distinct >= need})
    entries.append({"id": "cumulative-monotone",
                    "ok": all(x <= y for x, y in zip(counts, counts[1:]))})
    return entries


_SELFTEST = [
    ("integral-census", "bga", {"nmax": 3, "wmax": 54}, {"wmax": 20}),
    ("fp-hilbert-p2", "bga-fp", {"p": 2, "nmax": 4, "wmax": 32},
     {"wmax": 16}),
    ("fp-hilbert-p3", "bga-fp", {"p": 3, "nmax": 4, "wmax": 24},
     {"wmax": 12}),
    ("bockstein-p2", "bockstein", {"p": 2}, None),
    ("bockstein-p3", "bockstein", {"p": 3}, None),
    ("cartier-p2-d1", "cartier", {"p": 2, "vars": 1, "wmax": 8}, None),
    ("cartier-p2-d2", "cartier", {"p": 2, "vars": 2, "wmax": 8}, None),
    ("cartier-p3-d1", "cartier", {"p": 3, "vars": 1, "wmax": 12}, None),
    ("cartier-p3-d2", "cartier", {"p": 3, "vars": 2, "wmax": 12},
     {"wmax": 9}),
    ("cartier-p5-d1", "cartier", {"p": 5, "vars": 1, "wmax": 20}, "skip"),
    ("comparison-p2", "cech-alexander", {"p": 2}, None),
    ("comparison-p3", "cech-alexander", {"p": 3}, None),
    ("acrys-p2", "acrys", {"p": 2}, None),
    ("kappa-p2", "kappa", {"p": 2, "wmax": 8}, None),
    ("kappa-p3", "kappa", {"p": 3, "wmax": 18}, {"wmax": 9}),
    ("kappa-glued", "kappa", {"p": 2, "depth": 2, "wmax": 6,
                              "model": "glued"}, None),
    ("di-split-p2", "di-split", {"p": 2, "wmax": 8}, None),
    ("di-split-p3", "di-split", {"p": 3, "wmax": 18}, {"wmax": 9}),
    ("di-split-glued", "di-split", {"p": 2, "depth": 2, "wmax": 6,
                                    "model": "glued"}, None),
    ("unfold-p2", "unfold", {"p": 2}, None),
    ("unfold-p3", "unfold", {"p": 3}, None),
    ("hodge-bgm", "hodge", {"stack": "BGm"}, None),
    ("hodge-bga", "hodge", {"stack": "BGa"}, None),
    ("derham-bgm", "derham-stack", {"stack": "BGm", "nmax": 4},
     {"nmax": 3}),
    ("derham-bga", "derham-stack", {"stack": "BGa", "nmax": 4},
     {"nmax": 3}),
    ("hdr-bgm", "hdr", {"stack": "BGm", "nmax": 4}, {"nmax": 3}),
    ("hdr-affine-line", "hdr", {"stack": "affine:1", "nmax": 4},
     {"nmax": 3}),
    ("hdr-bga", "hdr", {"stack": "BGa", "nmax": 3}, {"nmax": 2}),
    ("torsion-growth", "census", {"p": 2, "n": 2, "wmax": 32},
     {"wmax": 16}),
]


def _run_selftest(ps):
    entries = []
    for name, cmd, params, fast_override in _SELFTEST:
        if ps["fast"] and fast_override == "skip":
            entries.append({"suite": name, "skipped": True, "ok": True})
            continue
        sub = dict(params)
        if ps["fast"] and isinstance(fast_override, dict):
            sub.update(fast_override)
        _validate(cmd, sub)
        rows = _RUNNERS[cmd](sub)
        bad = sum(1 for r in rows if not r.get("ok", True))
        entries.append({"suite": name, "checks": len(rows), "failed": bad,
                        "ok": bad == 0})
    return entries


_RUNNERS = {
    "bga": _run_bga,
    "bga-fp": _run_bga_fp,
    "bockstein": _run_bockstein,
    "cartier": _run_cartier,
    "cech-alexander": _run_cech_alexander,
    "acrys": _run_acrys,
    "kappa": _run_kappa,
    "di-split": _run_di_split,
    "unfold": _run_unfold,
    "hodge": _run_hodge,
    "derham-stack": _run_derham_stack,
    "hdr": _run_hdr,
    "census": _run_census,
    "selftest": _run_selftest,
}


# -- report assembly and emission --------------------------------------------


def _jsonable(x):
    if isinstance(x, AbGroup):
        return {"rank": x.rank, "torsion": [int(t) for t in x.torsion]}
    if isinstance(x, bool) or x is None:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x) if not isinstance(x, str) else x


def run(config):
    """Execute one configured command; returns (report, exit_code)."""
    entries = _RUNNERS[config.command](config.params)
    entries = [_jsonable(e) for e in entries]
    failed = sum(1 for e in entries if not e.get("ok", True))
    skipped = sum(1 for e in entries if e.get("skipped") is True)
    report = {
        "command": config.command,
        "params": _jsonable(config.params),
        "entries": entries,
        "summary": {"pass": len(entries) - failed - skipped, "fail": failed,
                    "skipped": skipped},
        "version": __version__,
    }
    return report, (0 if failed == 0 else 2)


def _format_text(report, elapsed):
    lines = ["hodgelab %s" % report["command"]]
    params = " ".join("%s=%s" % (k, v)
                      for k, v in sorted(report["params"].items()))
    lines.append("params: %s" % params)
    for e in report["entries"]:
        tag = "ok  " if e.get("ok", True) else "FAIL"
        fields = []
        if "id" in e:
            fields.append(str(e["id"]))
        if "suite" in e:
            fields.append(str(e["suite"]))
        for k in sorted(e):
            if k in ("ok", "id", "suite"):
                continue
            fields.append("%s=%s" % (k, json.dumps(e[k], sort_keys=True)))
        lines.append("%s %s" % (tag, " ".join(fields)))
    s = report["summary"]
    lines.append("summary: pass=%d fail=%d skipped=%d"
                 % (s["pass"], s["fail"], s["skipped"]))
    lines.append("version: %s" % report["version"])
    lines.append("elapsed: %.2fs" % elapsed)
    return "\n".join(lines) + "\n"


def _format_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _read_config_file(path):
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError("%s:%d: expected key=value"
                                      % (path, lineno))
                k, v = (part.strip() for part in line.split("=", 1))
                out[k] = v
    except OSError as e:
        raise ConfigError("cannot read config file: %s" % e)
    return out


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser():
    parser = _Parser(prog="hodgelab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command")
    for cmd, schema in _SCHEMAS.items():
        sp = subs.add_parser(cmd, add_help=True)
        for key in schema:
            if key in _BOOL_PARAMS:
                sp.add_argument("--" + key, action="store_true",
                                default=None)
            elif key in _STR_PARAMS:
                sp.add_argument("--" + key, type=str, default=None)
            else:
                sp.add_argument("--" + key, type=int, default=None)
        sp.add_argument("--format", choices=("text", "json"), default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--config", type=str, default=None)
    return parser


def _coerce(key, value):
    if key in _STR_PARAMS or key in ("format", "out"):
        return value
    if key in _BOOL_PARAMS:
        if value.lower() in ("1", "true", "yes", "on"):
            return True
        if value.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError("bad boolean for %s: %r" % (key, value))
    try:
        return int(value)
    except ValueError:
        raise ConfigError("bad integer for %s: %r" % (key, value))


def build_config(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise ConfigError("a command is required (try --help)")
    schema = _SCHEMAS[args.command]
    filecfg = {}
    if args.config:
        for k, v in _read_config_file(args.config).items():
            if k not in schema and k not in _GLOBAL_KEYS:
                raise ConfigError("unknown key %r in config file" % k)
            filecfg[k] = _coerce(k, v)
    params = {}
    for key in schema:
        cli_val = getattr(args, key.replace("-", "_"))
        if cli_val is not None:
            params[key] = cli_val
        elif key in filecfg:
            params[key] = filecfg[key]
    fmt = args.format or filecfg.get("format") or "text"
    out = args.out or filecfg.get("out")
    return RunConfig(args.command, params, fmt=fmt, out=out)


def _check_out(path):
    """Refuse an --out path that cannot be written, before the run and
    without creating or truncating the file."""
    there = path if os.path.exists(path) else os.path.dirname(
        os.path.abspath(path))
    if os.path.isdir(path) or not os.access(there, os.W_OK):
        raise ConfigError("cannot write %s: not a writable file path" % path)


def main(argv=None):
    try:
        config = build_config(argv)
        if config.out:
            _check_out(config.out)
        start = time.time()
        report, code = run(config)
        elapsed = time.time() - start
        if config.fmt == "json":
            text = _format_json(report)
        else:
            text = _format_text(report, elapsed)
        if config.out:
            try:
                with open(config.out, "w") as fh:
                    fh.write(text)
            except OSError as e:
                raise ConfigError("cannot write %s: %s" % (config.out, e))
        else:
            sys.stdout.write(text)
        return code
    except (ConfigError, stacks.UnsupportedStack, crystal.TruncationOverflow,
            crystal.TruncationTooSmall) as e:
        sys.stderr.write("hodgelab: error: %s\n" % e)
        return 1
    except stacks.UnstableTruncation as e:
        sys.stderr.write("hodgelab: error: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
