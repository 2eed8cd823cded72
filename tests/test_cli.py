import argparse
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from reslab import cli, report, thermo, transfer, zeros
from reslab import schottky as sk
from reslab.transfer import TwistSpec


def run(argv):
    return cli.main(argv)


def test_usage_errors(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["delta", "--nosuchflag"]) == 1
    assert run(["resonances", "--preset", "cylinder"]) == 1  # missing --rect


def test_usage_error_messages(capsys):
    """No subcommand and an unknown one go through the full parser: exit 1,
    the argparse reason, then every experiment."""
    listing = "experiments: " + ", ".join(cli.EXPERIMENTS) + "\n"
    assert run([]) == 1
    assert capsys.readouterr().err == "usage error: no subcommand given\n" + listing
    assert run(["bogus"]) == 1
    first, second = capsys.readouterr().err.splitlines(keepends=True)
    assert first.startswith("usage error: argument command: invalid choice: 'bogus'")
    assert all(f"'{name}'" in first for name in cli.EXPERIMENTS)
    assert second == listing


def test_top_level_help_lists_every_experiment(capsys):
    with pytest.raises(SystemExit) as exit_:
        run(["--help"])
    assert exit_.value.code == 0
    assert "{" + ",".join(cli.EXPERIMENTS) + "}" in capsys.readouterr().out


_FLAG_VALUES = {int: "3", float: "0.25", None: "x"}
_TEXT_VALUES = {"rect": "-0.5,0.5,0,4", "theta": "-0.25", "grid": "5,7",
                "moduli": "3,1", "covers": "4,8"}


@pytest.mark.parametrize("name", cli.EXPERIMENTS)
def test_one_subcommand_parser_matches_the_full_one(name):
    """The parser main builds for one experiment reads every flag of it,
    a negative --rect and --config included, as the nine-subcommand one."""
    argv = [name, "--config", "cfg.json"]
    for flag in cli._COMMON_FLAGS + cli._EXPERIMENT_FLAGS[name]:
        argv += ["--" + flag, _TEXT_VALUES.get(flag, _FLAG_VALUES[cli._FLAGS[flag][0]])]
    argv = cli._merge_negative_values(argv)
    one = cli._build_parser([name]).parse_args(argv)
    assert one == cli._build_parser().parse_args(argv)
    assert one.command == name and one.config == "cfg.json"
    assert all(getattr(one, flag) is not None for flag in cli._EXPERIMENT_FLAGS[name])


def test_each_call_imports_only_what_it_runs(tmp_path):
    """In one interpreter, validate and a cylinder resonance count load none
    of the cover, Cayley, congruence or explicit-formula modules; congruence
    then loads its own module and no other."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import sys; from reslab import cli; "
            "lazy = ('abelian', 'cayley', 'congruence', 'explicit_formula'); "
            f"out = {str(tmp_path)!r}; "
            "calls = [['validate', '--preset', 'cylinder'], "
            "['resonances', '--preset', 'cylinder', '--rect', '0.2,0.8,-0.5,0.5', "
            "'--lmax', '6', '--out', out], "
            "['congruence', '--preset', 'sl2z-pair', '--prime', '5', '--out', out]]\n"
            "for argv in calls:\n"
            "    code = cli.main(argv)\n"
            "    print('loaded', code, *[m for m in lazy if 'reslab.' + m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    loaded = [line.split()[1:] for line in out.splitlines() if line.startswith("loaded")]
    assert loaded == [["0"], ["0"], ["0", "congruence"]]


def test_validate_pass_and_fail(tmp_path, capsys):
    assert run(["validate", "--preset", "cylinder"]) == 0
    # overlapping discs: invalid group file
    bad = {"m": 1,
           "discs": [{"center": -0.5, "radius": 1.0},
                     {"center": 0.5, "radius": 1.0}],
           "generators": [[[1.5, 1.118033988749895],
                           [1.118033988749895, 1.5]]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["validate", "--group", str(path)]) == 2


@pytest.mark.parametrize("argv", [
    ["zeta-scan", "--preset", "symmetric3", "--rect", "0.2,0.4,0,1",
     "--grid", "4,x"],
    ["resonances", "--preset", "cylinder", "--rect", "1,0,0,1"],
    ["resonances", "--preset", "cylinder", "--rect", "-0.5,0.5,0,4",
     "--lmax", "1"],
    # a quotient above cayley.MAX_ORDER is refused before its generators
    # are checked
    ["cayley", "--covers", "2000000"],
    # order 2^64, which an int64 product would read as 0
    ["cover-abelian", "--preset", "symmetric3", "--rect", "0.17,0.3,-0.05,0.05",
     "--moduli", "4294967296,4294967296"],
    # an integer flag is not checked as a float, which would overflow
    ["congruence", "--preset", "sl2z-pair", "--prime", "9" * 400],
], ids=["grid_not_int", "reversed_rect", "lmax_1", "cayley_order_above_cap",
        "cover_order_above_cap", "prime_beyond_float_range"])
def test_malformed_input_is_validation_failure(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "validation failure" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, artifact, key", [
    (["delta", "--preset", "cylinder", "--tol", "0"], 2, None, None),
    (["equidist", "--preset", "symmetric3", "--covers", "2", "--fine", "0"],
     2, None, None),
    (["equidist", "--preset", "symmetric3", "--covers", "2", "--lmax", "8",
      "--fine", "2", "--axis", "0"], 0, "equidist.json", "axis"),
    (["congruence", "--preset", "sl2z-pair", "--prime", "0"], 2, None, None),
    (["congruence", "--preset", "sl2z-pair", "--prime", "5", "--beta", "0"],
     2, None, None),
    (["explicit-formula", "--preset", "symmetric3", "--order", "0"],
     2, None, None),
    (["explicit-formula", "--preset", "symmetric3", "--eps", "0"],
     2, None, None),
    (["explicit-formula", "--preset", "symmetric3", "--alpha", "0"],
     0, "explicit_formula.json", "alpha"),
    (["explicit-formula", "--preset", "symmetric3", "--T", "0"], 2, None, None),
], ids=["tol", "fine", "axis", "prime", "beta", "order", "eps", "alpha", "T"])
def test_explicit_zero_is_used_or_rejected(argv, code, artifact, key,
                                           tmp_path, capsys):
    """A flag given as 0 is never replaced by its default: the run either
    records the 0 or ends in a validation failure."""
    assert run(argv + ["--out", str(tmp_path)]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert "validation failure" in err
        if "--beta" in argv:
            assert "--beta" in err
    else:
        body = json.loads((tmp_path / artifact).read_text())
        assert body[key] == 0


@pytest.mark.parametrize("argv, flag", [
    (["zeta-scan", "--preset", "cylinder", "--rect", "0,1,0,1", "--grid", "2,2",
      "--theta", "inf"], "--theta"),
    (["zeta-scan", "--preset", "cylinder", "--rect", "0,1,0,1", "--grid", "2,2",
      "--theta", "nan"], "--theta"),
    (["resonances", "--preset", "cylinder", "--rect", "0,1,0,inf"], "--rect"),
    (["explicit-formula", "--eps", "inf"], "--eps"),
    (["delta", "--preset", "cylinder", "--tol", "inf"], "--tol"),
    (["validate", "--preset", "cylinder", "--trace", "nan"], "--trace"),
], ids=["theta_inf", "theta_nan", "rect_inf", "eps_inf", "tol_inf", "trace_nan"])
def test_non_finite_value_is_refused_at_the_flag(argv, flag, tmp_path, capsys):
    """An infinity or a NaN is a validation failure naming its flag, before
    any determinant, warning or artifact: a NaN theta once wrote a scan of
    NaN determinants with exit 0, and an infinite --tol printed delta 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"validation failure: {flag} must be finite")
    assert list(tmp_path.iterdir()) == []


def test_beta_at_upper_end_is_rejected_at_the_flag(tmp_path, capsys):
    assert run(["congruence", "--preset", "sl2z-pair", "--prime", "5",
                "--beta", "2", "--out", str(tmp_path)]) == 2
    assert "--beta must be in (0, 2)" in capsys.readouterr().err


def test_congruence_prime_above_group_order_cap_is_rejected(tmp_path, capsys):
    """SL2(F_509) has 1.3e8 elements, about 12 GB as listed rows; the run
    is refused before any element is listed."""
    assert run(["congruence", "--preset", "sl2z-pair", "--prime", "509",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "validation failure" in err and "cap" in err
    assert list(tmp_path.iterdir()) == []


def test_explicit_formula_beyond_word_budget_is_rejected(tmp_path, capsys):
    """Length 100 on symmetric3 would need word depths whose listings do not
    fit in memory; enumeration stops at the word budget and the run exits 2."""
    assert run(["explicit-formula", "--preset", "symmetric3", "--T", "100",
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "geodesic table incomplete" in err and "budget" in err


def test_group_file_failing_validation_is_rejected_before_the_experiment(tmp_path, capsys):
    """symmetric3 with every radius tripled: the discs overlap and the
    generators no longer pair their boundaries."""
    group = sk.group_to_json(sk.preset("symmetric3"))
    for disc in group["discs"]:
        disc["radius"] *= 3
    path = tmp_path / "tripled.json"
    path.write_text(json.dumps(group))
    assert run(["validate", "--group", str(path)]) == 2
    assert "[FAIL] disc_disjointness" in capsys.readouterr().out
    assert run(["delta", "--group", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "disc_disjointness" in captured.err and "boundary_mapping" in captured.err


def test_group_file_with_a_pole_in_a_target_disc_exits_2(tmp_path, capsys):
    """The cylinder with its two discs swapped puts the pole of each
    generator in the target disc of a pair, where the transfer blocks'
    Taylor series diverge (`_pair_series` raises ValueError); the file
    fails the boundary check, so every experiment refuses it with exit 2
    before assembling anything."""
    cyl = sk.preset("cylinder")
    swapped = sk.SchottkyData(m=1, discs=cyl.discs[::-1], generators=cyl.generators)
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(sk.group_to_json(swapped)))
    for argv in (["delta"], ["resonances", "--rect", "-0.5,0.5,0,3"], ["validate"]):
        assert run(argv + ["--group", str(path)]) == 2, argv
        captured = capsys.readouterr()
        assert "boundary_mapping" in captured.err + captured.out
        assert "Traceback" not in captured.err


def _cylinder_group(**change):
    group = sk.group_to_json(sk.preset("cylinder"))
    group.update(change)
    return group


@pytest.mark.parametrize("group, message", [
    (_cylinder_group(discs=[{"center": -2.0, "radius": -1.0},
                            {"center": 2.0, "radius": 1.0}]),
     "disc radius must be positive"),
    (_cylinder_group(discs=[{"center": c, "radius": 0.5} for c in (-2.0, 0.0, 2.0)]),
     "expected 2 discs, got 3"),
    (_cylinder_group(generators=[[[1.0, 2.0], [3.0, 1.0]]]),
     "positive determinant, got -5"),
], ids=["negative_radius", "three_discs_for_m1", "determinant_minus_5"])
def test_group_file_values_the_schema_rejects_exit_2(tmp_path, capsys, group, message):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group))
    assert run(["delta", "--group", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def test_valid_group_file_gives_the_preset_delta(tmp_path, capsys):
    path = tmp_path / "sym3.json"
    path.write_text(json.dumps(sk.group_to_json(sk.preset("symmetric3"))))
    assert run(["delta", "--group", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert run(["delta", "--preset", "symmetric3"]) == 0
    assert capsys.readouterr().out == from_file


def test_delta_lmax_below_pressure_minimum_is_validation_failure(capsys):
    assert run(["delta", "--preset", "symmetric3", "--lmax", "3"]) == 2
    assert "lmax must be >= 4" in capsys.readouterr().err


@pytest.mark.parametrize("patch", ["no_sign_change", "iteration_cap"])
def test_delta_arithmetic_error_is_nonconvergence(patch, capsys, monkeypatch):
    if patch == "no_sign_change":
        monkeypatch.setattr(thermo, "pressure", lambda data, sigma, lmax: 1.0)
    else:
        monkeypatch.setattr(thermo, "ROOT_MAXITER", 2)
    assert run(["delta", "--preset", "symmetric3"]) == 3
    assert "non-convergence: thermo:" in capsys.readouterr().err


def test_delta_at_tiny_tolerance(capsys):
    """A tolerance below the float spacing stops when the bracket is down to
    adjacent floats, not at the iteration cap."""
    assert run(["delta", "--preset", "symmetric3", "--tol", "1e-30"]) == 0
    assert abs(float(capsys.readouterr().out) - 0.2515811641598957) < 1e-12


def test_delta_stdout_deterministic(capsys):
    assert run(["delta", "--preset", "symmetric3"]) == 0
    first = capsys.readouterr().out.strip()
    assert run(["delta", "--preset", "symmetric3"]) == 0
    second = capsys.readouterr().out.strip()
    assert first == second
    assert abs(float(first) - 0.2515811641598957) < 1e-10


def _cylinder_lattice_run(rect, lattice, tmp_path):
    """resonances on the cylinder exits 0 and writes the lattice points
    2 pi i k / l for k in lattice, each of multiplicity 2, to 1e-7."""
    code = run(["resonances", "--preset", "cylinder",
                "--rect", rect, "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "resonances.csv").read_text().splitlines()
    assert lines[0] == "re,im,multiplicity,residual"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == len(lattice)
    assert all(r[2] == "2" for r in rows)
    ell = 2 * math.acosh(1.5)
    ims = sorted(float(r[1]) for r in rows)
    for k, im in zip(lattice, ims):
        assert abs(im - 2 * math.pi * k / ell) < 1e-7
    assert (tmp_path / "resonances.svg").exists()
    report = json.loads((tmp_path / "resonances.json").read_text())
    assert report["total_multiplicity"] == 2 * len(lattice)
    assert report["schema_version"] == 1


def test_resonances_cylinder_lattice(tmp_path, capsys):
    _cylinder_lattice_run("-0.5,0.5,0,7", (0, 1, 2), tmp_path)


def test_resonances_off_centre_box_exits_0(tmp_path, capsys):
    """Split lines of the bisection passed within 1e-6 of the double zero
    in this box, which ended in exit 3."""
    _cylinder_lattice_run("-0.2592,0.1713,1.2746,4.9494", (1,), tmp_path)


def test_resonances_next_to_the_double_zero_at_0(tmp_path, capsys):
    """The left edge passes 0.0123 from the double zero at s = 0: a walk
    that halved on the phase of the product, not of its factors, counted
    one zero here and reported s = 0 as simple with exit 0."""
    _cylinder_lattice_run("-0.0123,0.4224,-2.318,1.2657", (0,), tmp_path)
    (row,) = (tmp_path / "resonances.csv").read_text().splitlines()[1:]
    re, im, _, _ = map(float, row.split(","))
    assert abs(complex(re, im)) < 1e-7


def test_resonances_on_an_ordinary_symmetric3_box(tmp_path, capsys):
    """This ordinary symmetric3 box holds 15 zeros: the fixed base
    subdivision counted 11, and a split cell read a negative count (exit
    3).  The interpolant walk finds all 15, the double zero at 0 among
    them, each with a residual below 1e-10."""
    code = run(["resonances", "--preset", "symmetric3",
                "--rect", "-0.5,0.4,-3,3", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "resonances.json").read_text())
    assert doc["total_multiplicity"] == doc["contour_count"] == 15
    rows = [ln.split(",") for ln in (tmp_path / "resonances.csv").read_text().splitlines()[1:]]
    assert sorted(int(r[2]) for r in rows) == [1] * 13 + [2]
    assert all(float(r[3]) < 1e-10 for r in rows)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "delta", "preset": "cylinder"}))
    assert run(["delta", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out)) < 1e-10
    # flag overrides the config preset
    assert run(["delta", "--config", str(cfg), "--preset", "symmetric3"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 0.2515811641598957) < 1e-8


def test_config_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "delta", "wibble": 3}))
    assert run(["delta", "--config", str(cfg)]) == 2


def test_seed_is_not_an_option(tmp_path, capsys):
    assert run(["delta", "--preset", "cylinder", "--seed", "1"]) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "delta", "preset": "cylinder",
                               "seed": 1}))
    assert run(["delta", "--config", str(cfg)]) == 2
    assert "unknown key 'seed'" in capsys.readouterr().err


_COMMON_OPTIONS = ["-h", "--help", "--config", "--preset", "--trace", "--group",
                   "--out", "--threads", "--lmax"]


def test_parser_options_per_subcommand():
    expected = {
        "validate": [],
        "delta": ["--tol"],
        "zeta-scan": ["--rect", "--grid", "--theta"],
        "resonances": ["--rect", "--theta"],
        "cover-abelian": ["--rect", "--moduli"],
        "equidist": ["--covers", "--fine", "--axis"],
        "congruence": ["--prime", "--beta"],
        "explicit-formula": ["--order", "--eps", "--alpha", "--T"],
        "cayley": ["--covers"],
    }
    parser = cli._build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(expected)
    for name, extra in expected.items():
        options = [s for a in subparsers.choices[name]._actions
                   for s in a.option_strings]
        assert options == _COMMON_OPTIONS + extra, name


def test_config_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "cayley"}))
    assert run(["delta", "--config", str(cfg)]) == 2


def test_zeta_scan_thread_determinism(tmp_path, capsys):
    outputs = {}
    for threads in (1, 2, 8):
        # cold table caches, so that every run builds its tables afresh
        transfer._plan.cache_clear()
        sub = tmp_path / f"t{threads}"
        sub.mkdir()
        code = run(["zeta-scan", "--preset", "symmetric3",
                    "--rect", "0.1,0.4,0,1", "--grid", "6,6",
                    "--threads", str(threads), "--out", str(sub)])
        assert code == 0
        outputs[threads] = (sub / "zeta_scan.csv").read_bytes()
    assert outputs[1] == outputs[2] == outputs[8]


@pytest.mark.parametrize("preset, theta, lmax", [
    ("symmetric3", None, 16),
    ("cylinder", 0.3, 8),
], ids=["trivial", "abelian"])
def test_zeta_scan_rows_are_the_per_point_determinants(preset, theta, lmax, tmp_path,
                                                        capsys):
    """The grid goes through det.many; each row, in CSV order (im outer, re
    inner), is what a fresh closure gives at that point alone."""
    argv = ["zeta-scan", "--preset", preset, "--rect", "-0.5,0.5,-3,3", "--grid", "7,4",
            "--lmax", str(lmax), "--out", str(tmp_path)]
    twist = TwistSpec.trivial()
    if theta is not None:
        argv += ["--theta", str(theta)]
        twist = TwistSpec.abelian([theta])
    assert run(argv) == 0
    det = zeros.make_det(sk.preset(preset), twist, lmax)
    rows = []
    for im in np.linspace(-3, 3, 4):
        for re in np.linspace(-0.5, 0.5, 7):
            d = det(complex(re, im))
            rows.append((re, im, abs(d), d.real, d.imag))
    report.write_csv(str(tmp_path / "want.csv"),
                     ("re", "im", "abs_det", "re_det", "im_det"), rows)
    assert ((tmp_path / "zeta_scan.csv").read_bytes()
            == (tmp_path / "want.csv").read_bytes())


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RESLAB_THREADS", "2")
    sub = tmp_path / "env"
    sub.mkdir()
    assert run(["zeta-scan", "--preset", "cylinder",
                "--rect", "1,2,0,1", "--grid", "4,4",
                "--out", str(sub)]) == 0
    assert (sub / "zeta_scan.csv").exists()


@pytest.mark.parametrize("argv, cfg", [
    (["delta"], {"experiment": "delta", "trace": "abc"}),
    (["zeta-scan", "--preset", "cylinder", "--rect", "1,2,0,1", "--grid", "2,2"],
     {"experiment": "zeta-scan", "threads": "x"}),
], ids=["trace_abc", "threads_x"])
def test_config_value_of_wrong_type_is_validation_failure(argv, cfg, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert run(argv + ["--config", str(path), "--out", str(tmp_path)]) == 2
    assert "validation failure" in capsys.readouterr().err


def test_config_values_take_their_flag_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "delta", "preset": "symmetric3",
                               "trace": "6", "lmax": "16"}))
    assert run(["delta", "--config", str(cfg)]) == 0
    assert abs(float(capsys.readouterr().out) - 0.2515811641598957) < 1e-8


_ZETA_SCAN = ["zeta-scan", "--preset", "cylinder", "--rect", "1,2,0,1", "--grid", "2,2"]


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_rejected(threads, tmp_path, capsys):
    assert run(_ZETA_SCAN + ["--threads", threads, "--out", str(tmp_path)]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err


def test_threads_env_unparsable_rejected(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RESLAB_THREADS", "abc")
    assert run(_ZETA_SCAN + ["--out", str(tmp_path)]) == 2
    assert "cannot parse RESLAB_THREADS" in capsys.readouterr().err


def test_every_experiment_checks_the_thread_count(tmp_path, capsys, monkeypatch):
    """--threads is a flag of every experiment, so every one refuses a bad
    count, before any computation."""
    assert run(["delta", "--preset", "cylinder", "--threads", "0"]) == 2
    assert "--threads must be >= 1" in capsys.readouterr().err
    monkeypatch.setenv("RESLAB_THREADS", "abc")
    assert run(["validate", "--preset", "cylinder", "--out", str(tmp_path)]) == 2
    assert "cannot parse RESLAB_THREADS" in capsys.readouterr().err


def test_cayley_outputs(tmp_path, capsys):
    code = run(["cayley", "--covers", "64,128,256", "--out", str(tmp_path)])
    assert code == 0
    body = json.loads((tmp_path / "cayley.json").read_text())
    assert body["relative_spread"] < 0.05
    assert (tmp_path / "cayley.svg").exists()
    lines = (tmp_path / "cayley.csv").read_text().splitlines()
    assert lines[0] == "N,lambda1,lambda1_N2,h_or_bound,h_exact"
    assert len(lines) == 4


@pytest.mark.parametrize("argv", [
    ["cayley", "--preset", "sl2z-pair", "--covers", "1,4"],
    ["cayley", "--covers", "1,4"],
], ids=["preset", "cycle"])
def test_cayley_cover_below_two_is_refused(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "validation failure: cayley: cover order N must be >= 2, got N = 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cayley.csv").exists()


def test_cayley_cover_of_order_two(tmp_path, capsys):
    # C_2 has one generator, +1 = -1, as the preset path's N = 2 has
    assert run(["cayley", "--covers", "2,4", "--out", str(tmp_path)]) == 0
    err = capsys.readouterr().err
    assert "duplicates" not in err and "Traceback" not in err
    lines = (tmp_path / "cayley.csv").read_text().splitlines()
    assert lines[1] == "2,2,8,1,true"


def test_congruence_output(tmp_path, capsys):
    code = run(["congruence", "--preset", "sl2z-pair", "--prime", "7",
                "--out", str(tmp_path)])
    assert code == 0
    body = json.loads((tmp_path / "congruence.json").read_text())
    assert body["group_order"] == 336
    assert body["conj1_violations"] == 0
    mt = (tmp_path / "trace_multiplicities.csv").read_text().splitlines()
    assert mt[0] == "trace,multiplicity"


def test_explicit_formula_output(tmp_path, capsys):
    code = run(["explicit-formula", "--preset", "sl2z-pair",
                "--out", str(tmp_path)])
    assert code == 0
    body = json.loads((tmp_path / "explicit_formula.json").read_text())
    assert body["envelope"]["passed"] is True
    assert abs(body["mass"] - 1.0) < 1e-10


def test_explicit_formula_refuses_boxes_narrower_than_the_envelope_range(tmp_path, capsys):
    """At eps = 0.05 every box is narrower than 1/xi_min: the envelope
    check has nothing to certify there, so the run exits 2 without a
    division-by-zero warning and writes no report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["explicit-formula", "--preset", "sl2z-pair", "--eps", "0.05",
                    "--order", "12", "--out", str(tmp_path)])
    assert code == 2
    assert "widest box" in capsys.readouterr().err
    assert not (tmp_path / "explicit_formula.json").exists()


def test_explicit_formula_refuses_a_range_that_passes_a_single_box(tmp_path, capsys):
    """At eps = 0.08 the widest box is just past 1/xi_min and a single box
    read a shape ratio of 1.69, a pass; the run now exits 2."""
    assert run(["explicit-formula", "--preset", "sl2z-pair", "--eps", "0.08",
                "--order", "1", "--out", str(tmp_path)]) == 2
    assert "widest box" in capsys.readouterr().err
    assert not (tmp_path / "explicit_formula.json").exists()


def test_cover_abelian_output(tmp_path, capsys):
    code = run(["cover-abelian", "--preset", "symmetric3",
                "--rect", "0.2,0.3,-0.02,0.02", "--moduli", "2,1",
                "--lmax", "12", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "cover_abelian.csv").read_text().splitlines()
    assert lines[0] == "alpha,re,im,multiplicity"
    assert any(ln.startswith("0|0,") for ln in lines[1:])


def _contour_through_a_zero(data, twist, rect, lmax):
    raise zeros.ContourError(complex(0.25, 0.02), 1e-15)


@pytest.mark.parametrize("fake, message", [
    (_contour_through_a_zero, "contour too close to zero"),
], ids=["contour_error"])
def test_cover_abelian_contour_failure_is_nonconvergence(fake, message, tmp_path, capsys,
                                                         monkeypatch):
    """A contour through a zero ends in exit 3, as under resonances, and
    no zero is written."""
    monkeypatch.setattr(zeros, "resonances", fake)
    assert run(["cover-abelian", "--preset", "symmetric3",
                "--rect", "0.2,0.3,-0.02,0.02", "--moduli", "2,1",
                "--lmax", "12", "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "non-convergence" in err and message in err
    assert not (tmp_path / "cover_abelian.csv").exists()


@pytest.mark.parametrize("covers", ["0", "8,-1"])
def test_equidist_cover_below_one_is_validation_failure(covers, tmp_path, capsys):
    assert run(["equidist", "--preset", "sl2z-crossed", "--covers", covers,
                "--axis", "1", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "covers must be >= 1" in err and "Traceback" not in err


def test_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for sub in (a, b):
        assert run(["resonances", "--preset", "cylinder",
                    "--rect", "-0.5,0.5,0,4", "--out", str(sub)]) == 0
    for name in ("resonances.csv", "resonances.json", "resonances.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_equidist_takes_its_reference_along_the_axis_flag(tmp_path, monkeypatch):
    """With one cover every modulus is 1, so nothing but --axis names the
    continued coordinate: the reference curve is sampled along axis 1."""
    from reslab import abelian

    axes = []
    original = abelian._reference_samples

    def spy(data, window, delta, lmax, axis, fine=512):
        axes.append(axis)
        return original(data, window, delta, lmax, axis, fine=fine)

    monkeypatch.setattr(abelian, "_reference_samples", spy)
    assert run(["equidist", "--preset", "symmetric3", "--covers", "1", "--axis", "1",
                "--lmax", "6", "--fine", "2", "--out", str(tmp_path)]) == 0
    assert axes == [1]
    assert json.loads((tmp_path / "equidist.json").read_text())["axis"] == 1
