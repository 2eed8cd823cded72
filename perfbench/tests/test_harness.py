"""Tests of the benchmark harness itself: seeded inputs, oracles, tracer."""

import copy
import importlib
import inspect
import json
import math

import pytest

import run
import tasks
import tracer
import worker
import workloads
from tasks import DELTA, KINDS, LATTICE, ref_key


@pytest.fixture(scope="module")
def reference():
    return worker.load_reference()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_generates_same_inputs(name):
    a = workloads.generate(name, 7)
    assert json.dumps(a) == json.dumps(workloads.generate(name, 7))
    assert json.dumps(a) != json.dumps(workloads.generate(name, 8))
    # a pass has at least 100 well-formed tasks, so its p90 has >= 10 beyond
    assert sum(1 for t in a if not t.get("probe")) >= 100
    assert all(t["kind"] in KINDS for t in a)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_recipe_and_order_independent_of_seed(name):
    def recipe(seed):
        return [t["kind"] for t in workloads.generate(name, seed)]

    assert recipe(1) == recipe(2) == recipe(3)


def test_every_menu_input_has_a_recorded_answer(reference):
    for kind, menu in workloads.MENUS.items():
        for item in menu:
            assert ref_key(dict(item, kind=kind)) in reference


def _perturb(answer):
    """Change the first number found in an answer (depth first)."""
    if isinstance(answer, bool):
        return not answer, True
    if isinstance(answer, int):
        return answer + 1, True
    if isinstance(answer, float):
        return answer * (1 + 1e-5) + 1e-5, True
    if isinstance(answer, list):
        out = list(answer)
        for i, v in enumerate(out):
            out[i], done = _perturb(v)
            if done:
                return out, True
        return out, False
    if isinstance(answer, dict):
        out = dict(answer)
        for k in sorted(out):
            if k == "exit":
                continue
            out[k], done = _perturb(out[k])
            if done:
                return out, True
        return out, False
    return answer, False


def test_oracles_reject_perturbed_recorded_answers(reference):
    for kind, menu in workloads.MENUS.items():
        for item in menu:
            task = dict(item, kind=kind)
            ref = reference[ref_key(task)]
            assert KINDS[kind].check(task, copy.deepcopy(ref), ref) is None, task
            bad, done = _perturb(copy.deepcopy(ref))
            assert done, task
            assert KINDS[kind].check(task, bad, ref) is not None, task


def _closed_form_cases():
    d3 = DELTA["symmetric3"]
    rect = [-0.3, 0.4, -0.5 * LATTICE, 1.5 * LATTICE]  # lattice points 0, 1
    return [
        ({"kind": "count_zeros", "lmax": 16, "rect": rect}, 4, 2),
        ({"kind": "refine_zero", "preset": "symmetric3", "lmax": 16,
          "start": [d3, 0.0]},
         {"s": [d3, 0.0], "residual": 0.0, "converged": True},
         {"s": [d3 + 1e-7, 0.0], "residual": 0.0, "converged": True}),
        ({"kind": "resonances_delta", "preset": "sl2z-pair", "lmax": 16,
          "rect": [0.3, 0.5, -0.1, 0.1]},
         {"zeros": [[DELTA["sl2z-pair"], 0.0, 1]], "unresolved": 0, "contour_count": 1},
         {"zeros": [[DELTA["sl2z-pair"], 0.0, 2]], "unresolved": 0, "contour_count": 2}),
        ({"kind": "cli_resonances", "preset": "cylinder", "rect": [-0.5, 0.5, 0.0, 4.0]},
         {"exit": 0, "zeros": [[0.0, 0.0, 2], [0.0, LATTICE, 2]]},
         {"exit": 0, "zeros": [[0.0, 0.0, 2], [0.0, LATTICE + 1e-6, 2]]}),
        ({"kind": "cli_probe", "argv": ["validate"], "expect": 2},
         {"exit": 2}, {"exit": 0}),
        ({"kind": "theta_pair", "lmax": 16, "theta": [0.01, 0.02]},
         {"plus": [0.24, 0.0, True], "minus": [0.24, 0.0, True]},
         {"plus": [0.24, 0.0, True], "minus": [0.24 + 1e-7, 0.0, True]}),
        ({"kind": "nonvanishing_scan", "preset": "symmetric3", "grid_n": 8,
          "delta": "setup"},
         {"min_offlattice": 0.06, "residual_at_zero": 1e-14},
         {"min_offlattice": 0.06, "residual_at_zero": 1e-4}),
        ({"kind": "implicit_curve", "grid_n": 3, "delta": "setup", "epsilon": 0.05},
         {"epsilon": 0.05, "samples": [[-0.05, 0.0, 0.23, 0.0], [0.0, 0.0, d3, 0.0],
                                       [0.05, 0.0, 0.23, 0.0]]},
         {"epsilon": 0.05, "samples": [[-0.05, 0.0, 0.23, 0.0], [0.0, 0.0, d3, 0.0],
                                       [0.05, 0.0, 0.2300001, 0.0]]}),
        ({"kind": "curve_hessian", "h": 0.01},
         [[-11.0, -0.5], [-0.5, -11.0]], [[-11.0, -0.5], [-0.5, 11.0]]),
        ({"kind": "class_statistics", "p": 7},
         {"classes": 11, "order": 336}, {"classes": 11, "order": 337}),
        ({"kind": "conj1_check", "preset": "sl2z-pair", "p": 7, "beta": 1.5}, 0, 1),
        ({"kind": "sandwich_check", "n": 9},
         {"cheeger": 0.5, "lambda1": 1 - math.cos(2 * math.pi / 9), "exact": True},
         {"cheeger": 0.5 + 1e-9, "lambda1": 1 - math.cos(2 * math.pi / 9),
          "exact": True}),
        ({"kind": "gap_decay", "Ns": [64, 128]},
         {"lambda1": [1 - math.cos(2 * math.pi / N) for N in (64, 128)],
          "fitted_constant": tasks._gap_constant([64, 128]), "relative_spread": 0.001},
         {"lambda1": [1 - math.cos(2 * math.pi / N) for N in (64, 128)],
          "fitted_constant": tasks._gap_constant([64, 128]), "relative_spread": 0.06}),
        ({"kind": "build_test_function", "eps": 0.5, "J": 8},
         {"mass": 1.0, "support_radius": 0.9, "min_value": 0.0},
         {"mass": 1.0 + 1e-9, "support_radius": 0.9, "min_value": 0.0}),
        ({"kind": "cli_validate", "preset": "sl2z-pair"},
         {"exit": 0, "passed": True}, {"exit": 0, "passed": False}),
        ({"kind": "cli_cayley", "covers": [64, 128]},
         {"exit": 0, "fitted_constant": tasks._gap_constant([64, 128]),
          "relative_spread": 0.001},
         {"exit": 0, "fitted_constant": tasks._gap_constant([64, 128]) * 1.001,
          "relative_spread": 0.001}),
    ]


@pytest.mark.parametrize("task,right,wrong", _closed_form_cases(),
                         ids=lambda v: v["kind"] if isinstance(v, dict) and "kind" in v else "")
def test_closed_form_oracles(task, right, wrong):
    check = KINDS[task["kind"]].check
    assert check(task, right, None) is None
    assert check(task, wrong, None) is not None


def _module_functions():
    out = {}
    for modname in tracer.MODULES:
        mod = importlib.import_module("reslab." + modname)
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj):
                out[(modname, name)] = obj
    return out


def test_tracer_restores_every_name_after_an_error():
    before = _module_functions()
    t = tracer.Tracer()
    t.install()
    assert t.patched, "nothing was wrapped"
    with pytest.raises(ValueError):
        try:
            from reslab import transfer

            transfer.assemble_blocks(None, 0.5, 1)  # lmax < 2 raises
        finally:
            t.restore()
    assert _module_functions() == before
    assert all(a is b for a, b in zip(_module_functions().values(), before.values()))


def test_self_time_subtracts_union_of_children():
    t = tracer.Tracer()
    t.spans = [(0, "a", 0, None, 0.0, 10.0), (1, "b", 0, 0, 1.0, 3.0),
               (2, "b", 0, 0, 2.0, 5.0), (3, "c", 0, 1, 1.5, 2.5)]
    st = t.self_times()
    assert st["a"] == pytest.approx(6.0)
    assert st["b"] == pytest.approx(1.0 + 3.0)
    assert st["c"] == pytest.approx(1.0)


def _small_tasks():
    d3 = DELTA["symmetric3"]
    return [
        {"kind": "count_zeros", "lmax": 8, "rect": [-0.3, 0.4, -1.6, 1.6]},
        {"kind": "refine_zero", "preset": "symmetric3", "lmax": 8, "start": [d3, 0.01]},
        dict(workloads.MENUS["cli_zeta_scan"][0], kind="cli_zeta_scan"),
        {"kind": "class_statistics", "p": 5},
        {"kind": "sandwich_check", "n": 6},
        {"kind": "conj1_check", "preset": "sl2z-pair", "p": 7, "beta": 1.5},
        dict(workloads.PROBES["combinatorics"][0], probe=True),
    ]


def test_traced_passes_give_identical_counts_and_restore_names(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "generate", lambda name, seed: _small_tasks())
    from reslab import schottky, zeros

    before = _module_functions()
    results = []
    for i in range(2):
        # each pass of the harness starts in a fresh process, with cold caches
        schottky._classes_at_depth.cache_clear()
        zeros._delta_of.cache_clear()
        results.append(worker.run_pass("contour", 0, str(tmp_path / f"w{i}"), trace=True,
                                       spans_path=str(tmp_path / f"s{i}.jsonl")))
    assert all(a is b for a, b in zip(_module_functions().values(), before.values()))
    assert _module_functions().keys() == before.keys()
    a, b = results
    assert a["counts"] == b["counts"]
    assert a["counts"]["transfer.assemble.calls"] > 0
    assert a["counts"]["zeros.det_evals"] > 0
    assert a["counts"]["cayley.cheeger_exhaustive.subsets"] == 2 ** 6
    # the zeta-scan pool threads' spans hang under cli.main
    spans = [json.loads(line) for line in open(tmp_path / "s0.jsonl")]
    by_id = {s["id"]: s for s in spans}
    assert all(s["parent"] in by_id for s in spans if s["parent"] is not None)
    assert all(s["parent"] is not None for s in spans if s["name"] == "transfer.assemble")
    # only the probe fails, and it is flagged as one
    assert [f[3] for f in a["failures"]] == [True]


def _fake_pass(latencies, calibration):
    return {"tasks": [["k", lat, True, False] for lat in latencies],
            "calibration_s": calibration}


def test_speed_scaling_cancels_a_slow_spell():
    """A spell in which the calibration units take twice as long, and the
    tasks 2 ** SPEED_EXPONENT times as long, reads the same as the steady
    machine; slower code does not."""
    lat = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
    steady = run.scaled_latencies(_fake_pass(lat, [2e-3] * 7))
    factor = (run.CAL_REF_S / 2e-3) ** run.SPEED_EXPONENT
    assert steady == pytest.approx([x * factor for x in lat])
    slow = 2 ** run.SPEED_EXPONENT
    spell = run.scaled_latencies(_fake_pass([slow * x for x in lat],
                                            [2e-3] * 3 + [4e-3] * 4))
    assert spell[-1] == pytest.approx(steady[-1])
    slower = run.scaled_latencies(_fake_pass([1.5 * x for x in lat], [2e-3] * 7))
    assert slower == pytest.approx([1.5 * x for x in steady])


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(n, u, b) for n, u, b, _ in run.PER_LAYER] + [run.OVERHEAD]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert tuple(run.WORKLOADS) == workloads.WORKLOADS
