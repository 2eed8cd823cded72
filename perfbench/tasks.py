"""Task kinds of the benchmark: how each task calls into reslab, and the
oracle that decides whether its answer is right.

A task is a JSON-able dict ``{"kind": ..., **params}``.  ``run`` makes one
call into a public entry point of reslab (a module function, or
``cli.main`` with ``--out`` set to a scratch directory) and reduces the
result to a JSON-able answer.  ``check`` returns None for a right answer
and a short reason otherwise.  Oracles use closed forms where the maths
gives them; the other kinds draw their inputs from a fixed menu whose
answers were recorded by ``record_reference.py`` and are compared with the
acceptance tolerances of the test suite.

Every call into reslab goes through a module attribute (``zeros.refine_zero``,
not an imported name), so the tracer's wrappers see it.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Optional

# Critical exponents pinned in tests/test_acceptance.py; the cylinder's is 0.
DELTA = {
    "cylinder": 0.0,
    "symmetric3": 0.2515811641598957,
    "sl2z-pair": 0.3939196600212,
    "sl2z-crossed": 0.5434342722006,
}
# Length of the cylinder(3) geodesic: its resonances are 2 pi i k / ELL,
# each of multiplicity 2.
ELL = 2.0 * math.acosh(1.5)
LATTICE = 2.0 * math.pi / ELL

TOL_DELTA = 1e-8      # criterion 01/06: zeros at delta
TOL_LATTICE = 1e-7    # criterion 03: cylinder lattice
TOL_ZERO = 1e-6       # criterion 04: zero multisets
TOL_DET = 1e-8        # criterion 01: determinant values
TOL_MASS = 1e-10      # criterion 11: test-function mass
TOL_CLOSED = 1e-12    # closed-form spectra and Cheeger constants
TOL_RECORDED = 1e-9   # other recorded floats, relative


@dataclass(frozen=True)
class Kind:
    run: Callable
    check: Callable


KINDS: dict[str, Kind] = {}


def _register(name: str, run: Callable, check: Callable) -> None:
    KINDS[name] = Kind(run=run, check=check)


def ref_key(task: dict) -> str:
    return json.dumps(task, sort_keys=True)


# ---------------------------------------------------------------------------
# helpers

def _twist(spec):
    from reslab.transfer import TwistSpec

    if spec is None:
        return TwistSpec.trivial()
    name, vals = spec
    if name == "abelian":
        return TwistSpec.abelian(vals)
    if name == "regular":
        return TwistSpec.regular(vals)
    raise ValueError(f"unknown twist {spec!r}")


def _c(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _zeros_list(zs) -> list:
    return [[complex(z).real, complex(z).imag, int(m)] for z, m in zs]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _lattice_points(y0: float, y1: float) -> list[float]:
    return [k * LATTICE for k in range(math.floor(y0 / LATTICE) - 1,
                                       math.ceil(y1 / LATTICE) + 2)
            if y0 < k * LATTICE < y1]


def _zeros_match(got: list, want: list, tol: float) -> Optional[str]:
    if len(got) != len(want):
        return f"{len(got)} zeros, expected {len(want)}"
    left = [(complex(r, i), m) for r, i, m in got]
    for wr, wi, wm in want:
        w = complex(wr, wi)
        z, m = min(left, key=lambda zm: abs(zm[0] - w))
        if m != wm or abs(z - w) > tol:
            return f"zero {z} (x{m}) vs {w} (x{wm})"
        left.remove((z, m))
    return None


def _one_zero_at_delta(zs: list, delta: float) -> Optional[str]:
    if len(zs) != 1 or zs[0][2] != 1:
        return f"expected one simple zero at delta, got {zs}"
    if abs(complex(zs[0][0], zs[0][1]) - delta) > TOL_DELTA:
        return f"zero {zs[0][:2]} is not delta={delta}"
    return None


def _cli(ctx, argv: list) -> tuple[int, str]:
    from reslab import cli

    out = ctx.out_dir()
    return cli.main([str(a) for a in argv] + ["--out", out]), out


def _read_json(out: str, name: str) -> dict:
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _read_csv(out: str, name: str) -> list[dict]:
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _recorded(answer, ref, keys=None) -> Optional[str]:
    """Compare an answer with its recorded value: integers and strings
    exactly, floats to TOL_RECORDED relative, recursively."""
    if ref is None:
        return "no recorded reference for this input"
    if isinstance(ref, dict):
        for k in (keys or ref):
            err = _recorded(answer.get(k) if isinstance(answer, dict) else None,
                            ref[k])
            if err:
                return f"{k}: {err}"
        return None
    if isinstance(ref, list):
        if not isinstance(answer, list) or len(answer) != len(ref):
            return f"length {len(answer) if isinstance(answer, list) else answer} vs {len(ref)}"
        for a, r in zip(answer, ref):
            err = _recorded(a, r)
            if err:
                return err
        return None
    if isinstance(ref, float):
        if not isinstance(answer, (int, float)) or not _close(answer, ref, TOL_RECORDED):
            return f"{answer} vs {ref}"
        return None
    return None if answer == ref else f"{answer} vs {ref}"


# ---------------------------------------------------------------------------
# contour: the determinant at a new s on almost every call

def _run_count_zeros(ctx, t):
    from reslab import zeros

    return zeros.count_zeros(ctx.data("cylinder"), _twist(None), tuple(t["rect"]),
                             lmax=t["lmax"])


def _check_count_zeros(t, ans, ref):
    x0, x1, y0, y1 = t["rect"]
    want = 2 * len(_lattice_points(y0, y1)) if x0 < 0.0 < x1 else 0
    return None if ans == want else f"count {ans}, expected {want}"


_register("count_zeros", _run_count_zeros, _check_count_zeros)


def _run_refine(ctx, t):
    from reslab import zeros

    s, res, ok = zeros.refine_zero(ctx.data(t["preset"]), _twist(t.get("twist")),
                                   complex(*t["start"]), lmax=t["lmax"])
    return {"s": _c(s), "residual": float(res), "converged": bool(ok)}


def _check_refine(t, ans, ref):
    if not ans["converged"]:
        return "Newton did not converge"
    err = abs(complex(*ans["s"]) - DELTA[t["preset"]])
    return None if err <= TOL_DELTA else f"|s - delta| = {err:.3e}"


_register("refine_zero", _run_refine, _check_refine)


def _run_resonances(ctx, t):
    from reslab import zeros

    rs = zeros.resonances(ctx.data(t["preset"]), _twist(t.get("twist")),
                          tuple(t["rect"]), lmax=t["lmax"])
    return {"zeros": _zeros_list(rs.zeros), "unresolved": len(rs.unresolved),
            "contour_count": rs.contour_count}


def _check_resonances_delta(t, ans, ref):
    if ans["unresolved"]:
        return f"{ans['unresolved']} unresolved cells"
    return _one_zero_at_delta(ans["zeros"], DELTA[t["preset"]])


_register("resonances_delta", _run_resonances, _check_resonances_delta)


def _run_cli_resonances(ctx, t):
    code, out = _cli(ctx, ["resonances", "--preset", t["preset"], "--rect",
                           ",".join(repr(v) for v in t["rect"])])
    if code != 0:
        return {"exit": code}
    doc = _read_json(out, "resonances.json")
    return {"exit": code, "zeros": [[z["re"], z["im"], z["multiplicity"]]
                                    for z in doc["zeros"]]}


def _check_cli_resonances(t, ans, ref):
    # closed forms: the cylinder lattice, or the one zero at delta
    if ans["exit"] != 0:
        return f"exit code {ans['exit']}"
    if t["preset"] == "cylinder":
        # zeros.resonances pads the rectangle by 1e-3 on each side
        y0, y1 = t["rect"][2] - 1e-3, t["rect"][3] + 1e-3
        want = [[0.0, y, 2] for y in _lattice_points(y0, y1)]
        return _zeros_match(ans["zeros"], want, TOL_LATTICE)
    return _one_zero_at_delta(ans["zeros"], DELTA[t["preset"]])


_register("cli_resonances", _run_cli_resonances, _check_cli_resonances)


def _run_cli_zeta_scan(ctx, t):
    code, out = _cli(ctx, ["zeta-scan", "--preset", t["preset"], "--rect",
                           ",".join(repr(v) for v in t["rect"]),
                           "--grid", ",".join(str(n) for n in t["grid"]),
                           "--threads", t["threads"]])
    if code != 0:
        return {"exit": code}
    rows = _read_csv(out, "zeta_scan.csv")
    return {"exit": code,
            "det": [[float(r["re_det"]), float(r["im_det"])] for r in rows]}


def _check_cli_zeta_scan(t, ans, ref):
    if ans["exit"] != 0:
        return f"exit code {ans['exit']}"
    if ref is None:
        return "no recorded reference for this input"
    if len(ans["det"]) != len(ref["det"]):
        return f"{len(ans['det'])} samples, expected {len(ref['det'])}"
    for got, want in zip(ans["det"], ref["det"]):
        g, w = complex(*got), complex(*want)
        if abs(g - w) > TOL_DET * max(1.0, abs(w)):
            return f"det {g} vs recorded {w}"
    return None


_register("cli_zeta_scan", _run_cli_zeta_scan, _check_cli_zeta_scan)


def _run_cli_probe(ctx, t):
    argv = list(t["argv"])
    if t.get("group_without_discs"):
        path = os.path.join(ctx.out_dir(), "group.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"m": 1, "generators": [[[1.5, 1.118033988749895],
                                               [1.118033988749895, 1.5]]]}, fh)
        argv += ["--group", path]
    code, _ = _cli(ctx, argv)
    return {"exit": code}


def _check_cli_probe(t, ans, ref):
    if ans["exit"] != t["expect"]:
        return f"exit code {ans['exit']}, documented {t['expect']}"
    return None


_register("cli_probe", _run_cli_probe, _check_cli_probe)


# ---------------------------------------------------------------------------
# covers: many twists, at one s or along a curve

def _run_theta_pair(ctx, t):
    from reslab import zeros

    data = ctx.data("symmetric3")
    start = complex(ctx.delta("symmetric3"))
    out = {}
    for label, sign in (("plus", 1.0), ("minus", -1.0)):
        theta = [sign * v for v in t["theta"]]
        s, _, ok = zeros.refine_zero(data, _twist(["abelian", theta]), start,
                                     lmax=t["lmax"])
        out[label] = _c(s) + [bool(ok)]
    return out


def _check_theta_pair(t, ans, ref):
    plus, minus = ans["plus"], ans["minus"]
    if not (plus[2] and minus[2]):
        return "continuation did not converge"
    if max(abs(plus[1]), abs(minus[1])) > 1e-7:
        return "phi(theta) is not real to 1e-7"
    if abs(plus[0] - minus[0]) > TOL_DELTA:
        return "phi(theta) != phi(-theta)"
    if plus[0] > DELTA["symmetric3"] + TOL_DELTA:
        return "a twisted zero lies right of delta"
    return None


_register("theta_pair", _run_theta_pair, _check_theta_pair)


def _run_nonvanishing(ctx, t):
    from reslab import abelian

    delta = ctx.delta(t["preset"]) if t["delta"] == "setup" else None
    scan = abelian.nonvanishing_scan(ctx.data(t["preset"]), grid_n=t["grid_n"],
                                     delta=delta, exclusion=0.05)
    return {"min_offlattice": float(scan["min_offlattice"]),
            "residual_at_zero": float(scan["residual_at_zero"])}


def _check_nonvanishing(t, ans, ref):
    # criterion 05: off-lattice minimum above 1e3 x the residual at theta = 0
    if not ans["min_offlattice"] > 1e3 * ans["residual_at_zero"]:
        return (f"min {ans['min_offlattice']} vs residual "
                f"{ans['residual_at_zero']}")
    return None


_register("nonvanishing_scan", _run_nonvanishing, _check_nonvanishing)


def _run_cover_zeta_zeros(ctx, t):
    from reslab import abelian

    per_char = abelian.cover_zeta_zeros(
        ctx.data("symmetric3"), abelian.AbelianQuotient(tuple(t["moduli"])),
        tuple(t["rect"]), lmax=t["lmax"])
    return {"|".join(map(str, alpha)): _zeros_list(rs.zeros)
            for alpha, rs in sorted(per_char.items())}


def _check_cover_zeta_zeros(t, ans, ref):
    if ref is None:
        return "no recorded reference for this input"
    if sorted(ans) != sorted(ref):
        return f"characters {sorted(ans)} vs {sorted(ref)}"
    for alpha in ref:
        err = _zeros_match(ans[alpha], ref[alpha], TOL_ZERO)
        if err:
            return f"character {alpha}: {err}"
    return None


_register("cover_zeta_zeros", _run_cover_zeta_zeros,
                                         _check_cover_zeta_zeros)


def _run_implicit_curve(ctx, t):
    from reslab import abelian

    delta = ctx.delta("symmetric3") if t["delta"] == "setup" else None
    curve = abelian.implicit_curve(ctx.data("symmetric3"), t["epsilon"],
                                   grid_n=t["grid_n"], delta=delta)
    return {"epsilon": curve.epsilon,
            "samples": [[float(a) for a in theta] + _c(phi)
                        for theta, phi in curve.samples]}


def _check_implicit_curve(t, ans, ref):
    # criterion 06: phi real, phi(0) = delta, phi even
    table = {(round(a, 12), round(b, 12)): complex(re, im)
             for a, b, re, im in ans["samples"]}
    if abs(table.get((0.0, 0.0), math.inf) - DELTA["symmetric3"]) > TOL_DELTA:
        return "phi(0) != delta"
    for (a, b), phi in table.items():
        if abs(phi.imag) > 1e-7:
            return f"phi{(a, b)} not real"
        mirror = table.get((round(-a, 12) + 0.0, round(-b, 12) + 0.0))
        if mirror is None or abs(phi - mirror) > TOL_DELTA:
            return f"phi{(a, b)} != phi(-theta)"
    return None


_register("implicit_curve", _run_implicit_curve, _check_implicit_curve)


def _run_curve_hessian(ctx, t):
    from reslab import abelian

    H = abelian.curve_hessian(ctx.data("symmetric3"), h=t["h"],
                              delta=ctx.delta("symmetric3"))
    return [[float(v) for v in row] for row in H]


def _check_curve_hessian(t, ans, ref):
    (a, b), (c, d) = ans
    if abs(b - c) > TOL_CLOSED * max(1.0, abs(b)):
        return "Hessian not symmetric"
    if not (a + d < 0 and a * d - b * c > 0):
        return f"Hessian {ans} not negative definite"
    return None


_register("curve_hessian", _run_curve_hessian, _check_curve_hessian)


def _run_equidistribution(ctx, t):
    from reslab import abelian

    res = abelian.equidistribution_experiment(
        ctx.data(t["preset"]), [tuple(m) for m in t["moduli"]],
        lmax=t["lmax"], fine=t["fine"])
    return {"kolmogorov": [float(k) for k in res.kolmogorov],
            "counts": [int(n) for n in res.counts]}


_register("equidistribution", _run_equidistribution, lambda t, ans, ref: _recorded(ans, ref))


def _run_cli_cover_abelian(ctx, t):
    code, out = _cli(ctx, ["cover-abelian", "--preset", "symmetric3",
                           "--rect", ",".join(repr(v) for v in t["rect"]),
                           "--moduli", ",".join(map(str, t["moduli"])),
                           "--lmax", t["lmax"]])
    if code != 0:
        return {"exit": code}
    doc = _read_json(out, "cover_abelian.json")
    rows = [[r["alpha"], float(r["re"]), float(r["im"]), int(r["multiplicity"])]
            for r in _read_csv(out, "cover_abelian.csv")]
    return {"exit": code, "characters": doc["characters"],
            "total_multiplicity": doc["total_multiplicity"], "rows": rows}


def _check_cli_cover_abelian(t, ans, ref):
    if ans["exit"] != 0:
        return f"exit code {ans['exit']}"
    err = _recorded(ans, ref, keys=("characters", "total_multiplicity"))
    if err:
        return err
    if [r[0] for r in ans["rows"]] != [r[0] for r in ref["rows"]]:
        return "characters carrying zeros differ"
    return _zeros_match([r[1:] for r in ans["rows"]],
                        [r[1:] for r in ref["rows"]], TOL_ZERO)


_register("cli_cover_abelian", _run_cli_cover_abelian,
                                          _check_cli_cover_abelian)


def _run_cli_equidist(ctx, t):
    code, out = _cli(ctx, ["equidist", "--preset", t["preset"], "--covers",
                           ",".join(map(str, t["covers"])), "--axis", t["axis"],
                           "--lmax", t["lmax"], "--fine", t["fine"]])
    if code != 0:
        return {"exit": code}
    doc = _read_json(out, "equidist.json")
    return {"exit": code, "kolmogorov": doc["kolmogorov"], "counts": doc["counts"]}


_register("cli_equidist", _run_cli_equidist, lambda t, ans, ref: _recorded(ans, ref))


# ---------------------------------------------------------------------------
# combinatorics: no transfer operator

def _run_class_statistics(ctx, t):
    from reslab import congruence

    stats = congruence.class_statistics(t["p"])
    return {"classes": len(stats), "order": sum(s for s, _ in stats.values())}


def _check_class_statistics(t, ans, ref):
    p = t["p"]
    if ans["classes"] != p + 4:
        return f"{ans['classes']} classes, expected p + 4 = {p + 4}"
    if ans["order"] != p * (p * p - 1):
        return f"class equation sums to {ans['order']}, not p(p^2-1)"
    return None


_register("class_statistics", _run_class_statistics, _check_class_statistics)


def _run_conj1(ctx, t):
    from reslab import congruence

    return len(congruence.conj1_check(ctx.data(t["preset"]), t["p"], t["beta"]))


_register("conj1_check", _run_conj1,
                     lambda t, ans, ref: None if ans == 0 else f"{ans} violations")


def _run_character_average(ctx, t):
    from reslab import congruence

    avg = congruence.character_average(ctx.data(t["preset"]), t["p"])
    return {"S": float(avg["S"]), "lower_bound": int(avg["lower_bound"]),
            "paired_count": int(avg["paired_count"]),
            "min_nontrivial_dim": int(avg["min_nontrivial_dim"])}


def _check_character_average(t, ans, ref):
    p = t["p"]
    if ans["min_nontrivial_dim"] != (p - 1) // 2:
        return "minimal nontrivial dimension is not (p-1)/2"
    if ans["lower_bound"] != (p - 1) * ans["paired_count"]:
        return "lower bound is not (p-1) x paired count"
    return _recorded(ans, ref)


_register("character_average", _run_character_average,
                                          _check_character_average)


def _run_sandwich(ctx, t):
    from reslab import cayley

    rep = cayley.sandwich_check(cayley.cycle_graph(t["n"]))
    return {"cheeger": float(rep["cheeger"]), "lambda1": float(rep["lambda1"]),
            "exact": bool(rep["cheeger_exact"])}


def _check_sandwich(t, ans, ref):
    n = t["n"]
    if not ans["exact"] or abs(ans["cheeger"] - 2.0 / (n // 2)) > TOL_CLOSED:
        return f"h(C_{n}) = {ans['cheeger']}, expected 2/{n // 2}"
    if abs(ans["lambda1"] - (1.0 - math.cos(2.0 * math.pi / n))) > TOL_CLOSED:
        return f"lambda1(C_{n}) = {ans['lambda1']}"
    return None


_register("sandwich_check", _run_sandwich, _check_sandwich)


def _gap_constant(Ns) -> float:
    return sum(N * N * (1.0 - math.cos(2.0 * math.pi / N)) for N in Ns) / len(Ns)


def _run_gap_decay(ctx, t):
    from reslab import cayley

    exp = cayley.gap_decay_experiment(t["Ns"])
    return {"lambda1": [float(r["lambda1"]) for r in exp["rows"]],
            "fitted_constant": float(exp["fitted_constant"]),
            "relative_spread": float(exp["relative_spread"])}


def _check_gap_decay(t, ans, ref):
    for N, lam in zip(t["Ns"], ans["lambda1"]):
        if abs(lam - (1.0 - math.cos(2.0 * math.pi / N))) > TOL_CLOSED:
            return f"lambda1(Z/{N}) = {lam}"
    if len(ans["lambda1"]) != len(t["Ns"]):
        return "row count differs from the covers requested"
    if not _close(ans["fitted_constant"], _gap_constant(t["Ns"]), TOL_RECORDED):
        return "fitted constant differs from the closed form"
    # criterion 12: relative spread of lambda1 N^2 under 5%
    return None if ans["relative_spread"] < 0.05 else "relative spread >= 5%"


_register("gap_decay", _run_gap_decay, _check_gap_decay)


def _run_primitive_geodesics(ctx, t):
    from reslab import schottky

    classes = schottky.primitive_geodesics(ctx.data(t["preset"]), t["T"], warn=[])
    bad = sum(1 for c in classes
              if c.length > t["T"]
              or abs(c.length - 2.0 * math.acosh(abs(c.trace) / 2.0)) > 1e-9)
    return {"count": len(classes), "total_length": float(sum(c.length for c in classes)),
            "inconsistent": bad}


_register("primitive_geodesics", _run_primitive_geodesics, lambda t, ans, ref: _recorded(ans, ref))


def _run_trace_multiplicities(ctx, t):
    from reslab import congruence

    mt = congruence.trace_multiplicities(ctx.data(t["preset"]), t["T"])
    return sorted([int(k), int(v)] for k, v in mt.items())


_register("trace_multiplicities", _run_trace_multiplicities, lambda t, ans, ref: _recorded(ans, ref))


def _run_build_test_function(ctx, t):
    from reslab import explicit_formula

    tf = explicit_formula.build_test_function(t["eps"], t["J"])
    return {"mass": tf.mass(), "support_radius": tf.support_radius,
            "min_value": float(tf.values.min())}


def _check_build_test_function(t, ans, ref):
    # criterion 11: mass 1, support inside [-1, 1], nonnegative
    if abs(ans["mass"] - 1.0) > TOL_MASS:
        return f"mass {ans['mass']}"
    if not ans["support_radius"] < 1.0:
        return "support leaves [-1, 1]"
    return None if ans["min_value"] >= 0.0 else "negative values"


_register("build_test_function", _run_build_test_function, _check_build_test_function)


PHI = {
    "box": lambda x: 1.0 if abs(x) <= 1.0 else 0.0,
    "tent": lambda x: max(0.0, 1.0 - abs(x)),
}


def _run_geodesic_sum(ctx, t):
    from reslab import explicit_formula

    return _c(explicit_formula.geodesic_sum(ctx.data(t["preset"]), t["T"],
                                            PHI[t["phi"]]))


_register("geodesic_sum", _run_geodesic_sum, lambda t, ans, ref: _recorded(ans, ref))


def _run_cli_validate(ctx, t):
    code, out = _cli(ctx, ["validate", "--preset", t["preset"]])
    if code != 0:
        return {"exit": code}
    return {"exit": code, "passed": _read_json(out, "validate.json")["passed"]}


_register("cli_validate", _run_cli_validate,
                      lambda t, ans, ref: None if ans == {"exit": 0, "passed": True}
                      else f"validate: {ans}")


def _run_cli_congruence(ctx, t):
    code, out = _cli(ctx, ["congruence", "--preset", t["preset"],
                           "--prime", t["p"]])
    if code != 0:
        return {"exit": code}
    doc = _read_json(out, "congruence.json")
    return {"exit": code, "class_count": doc["class_count"],
            "group_order": doc["group_order"],
            "conj1_violations": doc["conj1_violations"], "S": doc["S"]}


def _check_cli_congruence(t, ans, ref):
    p = t["p"]
    if ans["exit"] != 0:
        return f"exit code {ans['exit']}"
    if ans["class_count"] != p + 4 or ans["group_order"] != p * (p * p - 1):
        return "class table is not the closed form"
    if ans["conj1_violations"] != 0:
        return "trace rigidity violated"
    return _recorded(ans, ref, keys=("S",))


_register("cli_congruence", _run_cli_congruence, _check_cli_congruence)


def _run_cli_cayley(ctx, t):
    code, out = _cli(ctx, ["cayley", "--covers", ",".join(map(str, t["covers"]))])
    if code != 0:
        return {"exit": code}
    doc = _read_json(out, "cayley.json")
    return {"exit": code, "fitted_constant": doc["fitted_constant"],
            "relative_spread": doc["relative_spread"]}


def _check_cli_cayley(t, ans, ref):
    if ans["exit"] != 0:
        return f"exit code {ans['exit']}"
    if not _close(ans["fitted_constant"], _gap_constant(t["covers"]), TOL_RECORDED):
        return "fitted constant differs from the closed form"
    return None if ans["relative_spread"] < 0.05 else "relative spread >= 5%"


_register("cli_cayley", _run_cli_cayley, _check_cli_cayley)


def _run_cli_explicit_formula(ctx, t):
    code, out = _cli(ctx, ["explicit-formula", "--preset", t["preset"],
                           "--order", t["order"]])
    if code != 0:
        return {"exit": code}
    doc = _read_json(out, "explicit_formula.json")
    return {"exit": code, "mass": doc["mass"], "passed": doc["envelope"]["passed"],
            "geodesic_sums": doc["geodesic_sums"]}


def _check_cli_explicit_formula(t, ans, ref):
    if ans["exit"] != 0:
        return f"exit code {ans['exit']}"
    if abs(ans["mass"] - 1.0) > TOL_MASS:
        return f"mass {ans['mass']}"
    if not ans["passed"]:
        return "envelope check failed"
    return _recorded(ans, ref, keys=("geodesic_sums",))


_register("cli_explicit_formula", _run_cli_explicit_formula,
                                             _check_cli_explicit_formula)
