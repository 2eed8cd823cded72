import json
import math
import os

import pytest

from reslab import cli, transfer


def run(argv):
    return cli.main(argv)


def test_usage_errors(capsys):
    assert run([]) == 1
    assert run(["frobnicate"]) == 1
    assert run(["delta", "--nosuchflag"]) == 1
    assert run(["resonances", "--preset", "cylinder"]) == 1  # missing --rect


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
], ids=["grid_not_int", "reversed_rect", "lmax_1"])
def test_malformed_input_is_validation_failure(argv, tmp_path, capsys):
    assert run(argv + ["--out", str(tmp_path)]) == 2
    assert "validation failure" in capsys.readouterr().err


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
        assert "validation failure" in capsys.readouterr().err
    else:
        body = json.loads((tmp_path / artifact).read_text())
        assert body[key] == 0


def test_delta_stdout_deterministic(capsys):
    assert run(["delta", "--preset", "symmetric3"]) == 0
    first = capsys.readouterr().out.strip()
    assert run(["delta", "--preset", "symmetric3"]) == 0
    second = capsys.readouterr().out.strip()
    assert first == second
    assert abs(float(first) - 0.2515811641598957) < 1e-10


def test_resonances_cylinder_lattice(tmp_path, capsys):
    code = run(["resonances", "--preset", "cylinder",
                "--rect", "-0.5,0.5,0,7", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "resonances.csv").read_text().splitlines()
    assert lines[0] == "re,im,multiplicity,residual"
    rows = [ln.split(",") for ln in lines[1:]]
    assert len(rows) == 3
    assert all(r[2] == "2" for r in rows)
    ell = 2 * math.acosh(1.5)
    ims = sorted(float(r[1]) for r in rows)
    for k, im in enumerate(ims):
        assert abs(im - 2 * math.pi * k / ell) < 1e-7
    assert (tmp_path / "resonances.svg").exists()
    report = json.loads((tmp_path / "resonances.json").read_text())
    assert report["total_multiplicity"] == 6
    assert report["schema_version"] == 1


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


def test_config_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "cayley"}))
    assert run(["delta", "--config", str(cfg)]) == 2


def test_zeta_scan_thread_determinism(tmp_path, capsys):
    outputs = {}
    for threads in (1, 2, 8):
        # cold table cache: the pool's threads race to build the tables
        transfer._sample_tables.cache_clear()
        sub = tmp_path / f"t{threads}"
        sub.mkdir()
        code = run(["zeta-scan", "--preset", "symmetric3",
                    "--rect", "0.1,0.4,0,1", "--grid", "6,6",
                    "--threads", str(threads), "--out", str(sub)])
        assert code == 0
        outputs[threads] = (sub / "zeta_scan.csv").read_bytes()
    assert outputs[1] == outputs[2] == outputs[8]


def test_threads_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("RESLAB_THREADS", "2")
    sub = tmp_path / "env"
    sub.mkdir()
    assert run(["zeta-scan", "--preset", "cylinder",
                "--rect", "1,2,0,1", "--grid", "4,4",
                "--out", str(sub)]) == 0
    assert (sub / "zeta_scan.csv").exists()


def test_cayley_outputs(tmp_path, capsys):
    code = run(["cayley", "--covers", "64,128,256", "--out", str(tmp_path)])
    assert code == 0
    body = json.loads((tmp_path / "cayley.json").read_text())
    assert body["relative_spread"] < 0.05
    assert (tmp_path / "cayley.svg").exists()
    lines = (tmp_path / "cayley.csv").read_text().splitlines()
    assert lines[0] == "N,lambda1,lambda1_N2,h_or_bound,h_exact"
    assert len(lines) == 4


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


def test_cover_abelian_output(tmp_path, capsys):
    code = run(["cover-abelian", "--preset", "symmetric3",
                "--rect", "0.2,0.3,-0.02,0.02", "--moduli", "2,1",
                "--lmax", "12", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "cover_abelian.csv").read_text().splitlines()
    assert lines[0] == "alpha,re,im,multiplicity"
    assert any(ln.startswith("0|0,") for ln in lines[1:])


def test_rerun_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    for sub in (a, b):
        assert run(["resonances", "--preset", "cylinder",
                    "--rect", "-0.5,0.5,0,4", "--out", str(sub)]) == 0
    for name in ("resonances.csv", "resonances.json", "resonances.svg"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
