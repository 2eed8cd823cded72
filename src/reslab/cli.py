"""Command line front end: experiment orchestration, JSON config with flag
overrides, and deterministic artifact emission.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 numerical
non-convergence."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

import numpy as np

from . import abelian, cayley, congruence, explicit_formula, report
from . import schottky as sk
from . import thermo, transfer, zeros
from .transfer import TwistSpec

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3

EXPERIMENTS = ("validate", "delta", "zeta-scan", "resonances", "cover-abelian",
               "equidist", "congruence", "explicit-formula", "cayley")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class ValidationFailure(Exception):
    pass


class NonConvergence(Exception):
    pass


def _threads(value: Optional[int]) -> int:
    if value is not None:
        return max(1, int(value))
    env = os.environ.get("RESLAB_THREADS", "").strip()
    return max(1, int(env)) if env else 1


def _parse_floats(text: str, n: Optional[int] = None, label: str = "value"):
    try:
        vals = tuple(float(x) for x in str(text).split(","))
    except ValueError:
        raise ValidationFailure(f"cannot parse {label}: {text!r}")
    if n is not None and len(vals) != n:
        raise ValidationFailure(f"{label} needs {n} comma-separated numbers")
    return vals


def _parse_ints(text: str, label: str = "value"):
    try:
        return tuple(int(x) for x in str(text).split(","))
    except ValueError:
        raise ValidationFailure(f"cannot parse {label}: {text!r}")


def _parse_rect(args):
    """re_min,re_max,im_min,im_max with both sides of positive length."""
    rect = _parse_floats(args.rect, 4, "rect")
    if not (rect[0] < rect[1] and rect[2] < rect[3]):
        raise ValidationFailure(
            f"rect needs re_min < re_max and im_min < im_max: {args.rect!r}")
    return rect


def _number(args, name: str, default, kind):
    """Flag value converted by kind, or the default when the flag is unset;
    an explicit 0 is a value like any other."""
    value = getattr(args, name, None)
    if value is None:
        return default
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationFailure(f"cannot parse {name}: {value!r}")


def _lmax(args, default: int) -> int:
    """Bergman truncation order from --lmax; the transfer matrix needs >= 2."""
    lmax = _number(args, "lmax", default, int)
    if lmax < 2:
        raise ValidationFailure(f"lmax must be >= 2, got {lmax}")
    return lmax


def _load_group(args) -> sk.SchottkyData:
    if getattr(args, "group", None):
        with open(args.group) as fh:
            return sk.load_group_json(json.load(fh))
    name = getattr(args, "preset", None) or "symmetric3"
    kwargs = {}
    if getattr(args, "trace", None) is not None:
        kwargs["t"] = float(args.trace)
    try:
        return sk.preset(name, **kwargs)
    except ValueError as exc:
        raise ValidationFailure(f"schottky: {exc}")


def _twist(args, data: sk.SchottkyData) -> TwistSpec:
    theta = getattr(args, "theta", None)
    if theta is None:
        return TwistSpec.trivial()
    vals = _parse_floats(theta, data.m, "theta")
    return TwistSpec.abelian(vals)


def _out_path(args, name: str) -> str:
    out = getattr(args, "out", None) or "."
    return os.path.join(out, name)


# ---------------------------------------------------------------------------
# experiment runners

def _run_validate(args) -> int:
    data = _load_group(args)
    rep = sk.validate(data)
    print(rep.summary())
    if getattr(args, "out", None):
        report.write_json(_out_path(args, "validate.json"), {
            "experiment": "validate",
            "group": sk.group_to_json(data),
            "passed": rep.passed,
            "checks": [{"name": c.name, "passed": c.passed, "margin": c.margin,
                        "detail": c.detail} for c in rep.checks],
        })
    return EXIT_OK if rep.passed else EXIT_VALIDATION


def _run_delta(args) -> int:
    data = _load_group(args)
    lmax = _lmax(args, 16)
    tol = _number(args, "tol", 1e-12, float)
    if not tol > 0:
        raise ValidationFailure(f"tol must be positive, got {tol}")
    try:
        delta = thermo.critical_exponent(data, lmax=lmax, tol=tol)
    except (RuntimeError, ValueError) as exc:
        raise NonConvergence(f"thermo: {exc}")
    print(report.fmt_float(delta))
    if getattr(args, "out", None):
        report.write_json(_out_path(args, "delta.json"), {
            "experiment": "delta", "group": data.name, "lmax": lmax,
            "tol": tol, "delta": delta,
        })
    return EXIT_OK


def _run_zeta_scan(args) -> int:
    data = _load_group(args)
    twist = _twist(args, data)
    lmax = _lmax(args, 16)
    rect = _parse_rect(args)
    grid = _parse_ints(args.grid or "40,40", "grid")
    if len(grid) != 2 or min(grid) < 2:
        raise ValidationFailure("zeta-scan: grid must be n_re,n_im, at least 2x2")
    nre, nim = grid
    det = zeros.make_det(data, twist, lmax)
    res = np.linspace(rect[0], rect[1], nre)
    ims = np.linspace(rect[2], rect[3], nim)

    def scan_row(im):
        return [det(complex(re, im)) for re in res]

    with ThreadPoolExecutor(max_workers=_threads(args.threads)) as pool:
        rows = list(pool.map(scan_row, ims))
    out_rows = []
    for im, row in zip(ims, rows):
        for re, d in zip(res, row):
            out_rows.append((re, im, abs(d), d.real, d.imag))
    report.write_csv(_out_path(args, "zeta_scan.csv"),
                     ("re", "im", "abs_det", "re_det", "im_det"), out_rows)
    print(f"zeta-scan: {len(out_rows)} samples on {data.name}")
    return EXIT_OK


def _run_resonances(args) -> int:
    data = _load_group(args)
    twist = _twist(args, data)
    lmax = _lmax(args, 16)
    rect = _parse_rect(args)
    try:
        rs = zeros.resonances(data, twist, rect, lmax=lmax)
    except zeros.ContourError as exc:
        raise NonConvergence(f"zeros: {exc}")
    if rs.unresolved:
        raise NonConvergence(f"zeros: unresolved cells {rs.unresolved}")
    rows = [(z.real, z.imag, mult, res)
            for (z, mult), res in zip(rs.zeros, rs.residuals)]
    report.write_csv(_out_path(args, "resonances.csv"),
                     ("re", "im", "multiplicity", "residual"), rows)
    report.write_json(_out_path(args, "resonances.json"), {
        "experiment": "resonances", "group": data.name, "lmax": lmax,
        "rectangle": list(rect), "contour_count": rs.contour_count,
        "total_multiplicity": rs.total_multiplicity,
        "zeros": [{"re": z.real, "im": z.imag, "multiplicity": m}
                  for z, m in rs.zeros],
    })
    delta = thermo.critical_exponent(data)
    report.emit_svg([(z.real, z.imag, float(m)) for z, m in rs.zeros],
                    _out_path(args, "resonances.svg"),
                    annotations=[(delta, 0.0, "delta")],
                    title="resonances: " + data.name,
                    xlabel="Re s", ylabel="Im s")
    print(f"resonances: {rs.total_multiplicity} zeros (contour count "
          f"{rs.contour_count}) in {rect} on {data.name}")
    return EXIT_OK


def _run_cover_abelian(args) -> int:
    data = _load_group(args)
    moduli = _parse_ints(args.moduli or "2,1", "moduli")
    lmax = _lmax(args, 16)
    rect = _parse_rect(args)
    try:
        quotient = abelian.AbelianQuotient(moduli)
        per_char = abelian.cover_zeta_zeros(data, quotient, rect, lmax=lmax)
    except ValueError as exc:
        raise ValidationFailure(f"abelian: {exc}")
    rows = []
    for alpha in sorted(per_char):
        for z, mult in per_char[alpha].zeros:
            rows.append(("|".join(str(a) for a in alpha), z.real, z.imag, mult))
    report.write_csv(_out_path(args, "cover_abelian.csv"),
                     ("alpha", "re", "im", "multiplicity"), rows)
    total = sum(rs.total_multiplicity for rs in per_char.values())
    report.write_json(_out_path(args, "cover_abelian.json"), {
        "experiment": "cover-abelian", "group": data.name,
        "moduli": list(moduli), "rectangle": list(rect), "lmax": lmax,
        "characters": len(per_char), "total_multiplicity": total,
    })
    print(f"cover-abelian: order {quotient.order} cover, {total} zeros")
    return EXIT_OK


def _run_equidist(args) -> int:
    data = _load_group(args)
    Ns = _parse_ints(args.covers or "8,16,32", "covers")
    lmax = _lmax(args, 12)
    fine = _number(args, "fine", 256, int)
    axis = _number(args, "axis", 0, int)
    if fine < 1:
        raise ValidationFailure(f"fine must be >= 1, got {fine}")
    if not 0 <= axis < data.m:
        raise ValidationFailure(f"axis must lie in 0..{data.m - 1}, got {axis}")
    seq = []
    for N in Ns:
        moduli = [1] * data.m
        moduli[axis] = int(N)
        seq.append(tuple(moduli))
    res = abelian.equidistribution_experiment(data, seq, lmax=lmax, fine=fine)
    rows = []
    for (moduli, hist) in zip(res.moduli_sequence, res.histograms):
        for lo, hi, count in hist:
            rows.append((max(moduli), lo, hi, count))
    report.write_csv(_out_path(args, "equidist_hist.csv"),
                     ("N", "bin_lo", "bin_hi", "count"), rows)
    report.write_json(_out_path(args, "equidist.json"), {
        "experiment": "equidist", "group": data.name, "lmax": lmax,
        "fine": fine, "axis": axis, "covers": list(Ns),
        "window": list(res.window),
        "kolmogorov": list(res.kolmogorov),
        "counts": list(res.counts),
        "density_exponent": res.density_exponent,
    })
    ks = ", ".join(report.fmt_float(k) for k in res.kolmogorov)
    print(f"equidist: KS distances [{ks}] on {data.name}")
    return EXIT_OK


def _run_congruence(args) -> int:
    data = _load_group(args)
    p = _number(args, "prime", 101, int)
    beta = _number(args, "beta", 1.5, float)
    try:
        stats = congruence.class_statistics(p)
        violations = congruence.conj1_check(data, p, beta)
        avg = congruence.character_average(data, p, beta=beta)
    except ValueError as exc:
        raise ValidationFailure(f"congruence: {exc}")
    mt = congruence.trace_multiplicities(data, beta * math.log(p))
    report.write_csv(_out_path(args, "trace_multiplicities.csv"),
                     ("trace", "multiplicity"),
                     sorted(mt.items()))
    report.write_json(_out_path(args, "congruence.json"), {
        "experiment": "congruence", "group": data.name, "p": p, "beta": beta,
        "class_count": len(stats),
        "group_order": congruence.group_order(p),
        "conj1_violations": len(violations),
        "S": avg["S"], "lower_bound": avg["lower_bound"],
        "paired_count": avg["paired_count"],
        "min_nontrivial_dim": avg["min_nontrivial_dim"],
    })
    print(f"congruence: p={p}, {len(stats)} classes, "
          f"{len(violations)} trace-rigidity violations, "
          f"S(p)={report.fmt_float(avg['S'])}")
    return EXIT_OK


def _run_explicit_formula(args) -> int:
    data = _load_group(args)
    J = _number(args, "order", 12, int)
    eps = _number(args, "eps", 0.5, float)
    alpha = _number(args, "alpha", 0.5, float)
    T = _number(args, "T", 8.0, float)
    try:
        tf = explicit_formula.build_test_function(eps, J)
    except ValueError as exc:
        raise ValidationFailure(f"explicit_formula: {exc}")
    envelope = explicit_formula.fourier_envelope_check(tf, alpha=alpha)
    Ts = [0.5 * T, 0.75 * T, T]
    try:
        sums = [explicit_formula.geodesic_sum(data, t, tf).real for t in Ts]
    except ValueError as exc:
        raise ValidationFailure(f"explicit_formula: {exc}")
    report.write_csv(_out_path(args, "test_function.csv"), ("x", "phi0"),
                     zip(tf.x.tolist(), tf.values.tolist()))
    report.write_json(_out_path(args, "explicit_formula.json"), {
        "experiment": "explicit-formula", "group": data.name,
        "J": J, "eps": eps, "alpha": alpha,
        "widths": list(tf.widths), "tail_deficit": tf.tail_deficit,
        "mass": tf.mass(), "envelope": envelope,
        "T_values": Ts, "geodesic_sums": sums,
    })
    tag = "passed" if envelope["passed"] else "failed"
    print(f"explicit-formula: J={J} envelope {tag}, "
          f"C2={report.fmt_float(envelope['C2_certified'])}")
    return EXIT_OK


def _run_cayley(args) -> int:
    data = _load_group(args) if (args.group or args.preset) else None
    Ns = _parse_ints(args.covers or "64,128,256,512,1024", "covers")
    try:
        exp = cayley.gap_decay_experiment(Ns, data=data)
    except ValueError as exc:
        raise ValidationFailure(f"cayley: {exc}")
    rows = [(r["N"], r["lambda1"], r["scaled"], r["h_or_bound"], r["h_exact"])
            for r in exp["rows"]]
    report.write_csv(_out_path(args, "cayley.csv"),
                     ("N", "lambda1", "lambda1_N2", "h_or_bound", "h_exact"),
                     rows)
    report.write_json(_out_path(args, "cayley.json"), {
        "experiment": "cayley", "covers": list(Ns),
        "fitted_constant": exp["fitted_constant"],
        "relative_spread": exp["relative_spread"],
        "reference_constant": exp["reference_constant"],
        "h_bound_infimum": exp["h_bound_infimum"],
    })
    pts = [(math.log10(r["N"]), math.log10(max(r["lambda1"], 1e-300)))
           for r in exp["rows"]]
    report.emit_svg(pts, _out_path(args, "cayley.svg"),
                    title="spectral gap decay", xlabel="log10 N",
                    ylabel="log10 lambda1")
    print(f"cayley: lambda1*N^2 -> {report.fmt_float(exp['fitted_constant'])} "
          f"(spread {report.fmt_float(exp['relative_spread'])})")
    return EXIT_OK


_DISPATCH = {
    "validate": _run_validate,
    "delta": _run_delta,
    "zeta-scan": _run_zeta_scan,
    "resonances": _run_resonances,
    "cover-abelian": _run_cover_abelian,
    "equidist": _run_equidist,
    "congruence": _run_congruence,
    "explicit-formula": _run_explicit_formula,
    "cayley": _run_cayley,
}

# allowed config keys per experiment (superset of argparse dests)
_COMMON_KEYS = {"preset", "group", "trace", "out", "threads", "lmax", "seed"}
_EXTRA_KEYS = {
    "validate": set(),
    "delta": {"tol"},
    "zeta-scan": {"rect", "grid", "theta"},
    "resonances": {"rect", "theta"},
    "cover-abelian": {"rect", "moduli"},
    "equidist": {"covers", "fine", "axis"},
    "congruence": {"prime", "beta"},
    "explicit-formula": {"order", "eps", "alpha", "T"},
    "cayley": {"covers"},
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="reslab", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    for name in EXPERIMENTS:
        p = sub.add_parser(name, prog=f"reslab {name}")
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--preset", help="group preset name")
        p.add_argument("--trace", type=float, help="preset trace parameter")
        p.add_argument("--group", help="path to a group JSON file")
        p.add_argument("--out", help="output directory for artifacts")
        p.add_argument("--threads", type=int, help="worker threads "
                       "(fallback: RESLAB_THREADS)")
        p.add_argument("--lmax", type=int, help="Bergman truncation order")
        p.add_argument("--seed", type=int, help="random seed")
        extra = _EXTRA_KEYS[name]
        if "tol" in extra:
            p.add_argument("--tol", type=float)
        if "rect" in extra:
            p.add_argument("--rect", help="re_min,re_max,im_min,im_max")
        if "grid" in extra:
            p.add_argument("--grid", help="n_re,n_im")
        if "theta" in extra:
            p.add_argument("--theta", help="abelian character, comma separated")
        if "moduli" in extra:
            p.add_argument("--moduli", help="cover moduli, comma separated")
        if "covers" in extra:
            p.add_argument("--covers", help="growing modulus values")
        if "fine" in extra:
            p.add_argument("--fine", type=int)
        if "axis" in extra:
            p.add_argument("--axis", type=int)
        if "prime" in extra:
            p.add_argument("--prime", type=int)
        if "beta" in extra:
            p.add_argument("--beta", type=float)
        if "order" in extra:
            p.add_argument("--order", type=int, help="convolution order J")
        if "eps" in extra:
            p.add_argument("--eps", type=float)
        if "alpha" in extra:
            p.add_argument("--alpha", type=float)
        if "T" in extra:
            p.add_argument("--T", type=float)
    return parser


def _apply_config(args) -> None:
    if not getattr(args, "config", None):
        return
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValidationFailure("config: top level must be an object")
    allowed = _COMMON_KEYS | _EXTRA_KEYS[args.command] | {"experiment"}
    for key, value in cfg.items():
        if key not in allowed:
            raise ValidationFailure(f"config: unknown key {key!r}")
        if key == "experiment":
            if value != args.command:
                raise ValidationFailure(
                    f"config: experiment {value!r} does not match "
                    f"subcommand {args.command!r}")
            continue
        if getattr(args, key, None) is None:
            setattr(args, key, value)


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise _UsageError(f"{args.command}: missing required option --{name}")


_VALUE_FLAGS = {"--rect", "--theta", "--grid", "--moduli", "--covers"}


def _merge_negative_values(argv: list) -> list:
    """Join flag values that begin with a minus sign (e.g. --rect -0.5,...)
    so argparse does not mistake them for options."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")
                and any(ch.isdigit() for ch in argv[i + 1])):
            out.append(tok + "=" + argv[i + 1])
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise _UsageError("no subcommand given")
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"experiments: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return EXIT_USAGE
    try:
        _apply_config(args)
        if args.command in ("zeta-scan", "resonances", "cover-abelian"):
            _require(args, "rect")
        return _DISPATCH[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
