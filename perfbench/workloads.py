"""Seeded task lists of the three workloads.

Each workload is a fixed recipe: so many tasks of each kind, in a fixed
order, with inputs drawn from the seed.  Fixing the recipe keeps the cost
of a pass nearly independent of the seed, so runs with different seeds
can be compared; the seed varies the inputs inside each kind (rectangles,
start points, twists, primes, lengths).  Kinds whose
oracle is a recorded value draw their inputs from ``MENUS``; most others
draw continuous inputs and are checked against closed forms.

Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import math
import random

from tasks import DELTA, LATTICE

WORKLOADS = ("contour", "covers", "combinatorics")

# Presets each workload builds in its set-up, and those whose critical
# exponent the set-up computes (tasks use it as a Newton start).
PRESETS = {
    "contour": ("cylinder", "symmetric3", "sl2z-pair", "sl2z-crossed"),
    "covers": ("symmetric3", "sl2z-crossed"),
    "combinatorics": ("sl2z-pair", "sl2z-crossed"),
}
SETUP_DELTAS = {
    "contour": (),
    "covers": ("symmetric3", "sl2z-crossed"),
    "combinatorics": (),
}

_D3 = DELTA["symmetric3"]
_RECT_CRIT04 = [_D3 - 0.08, _D3 + 0.04, -0.05, 0.05]
SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)
T_GRID = tuple(4.0 + 0.25 * i for i in range(21))  # 4.0 .. 9.0

# Fixed menus of inputs; record_reference.py records an answer for every
# entry, which the kinds without a closed-form oracle are checked against.
MENUS = {
    "cli_zeta_scan": [
        {"preset": "symmetric3", "rect": [x0, x0 + 0.3, y0, y0 + 1.5],
         "grid": [8, 8], "threads": 2}
        for x0 in (0.3, 0.45, 0.6, 0.75) for y0 in (-2.0, 0.5)
    ],
    # the certified cylinder rectangles of criteria 03 and 13 and of
    # tests/test_zeros.py; the resonance bisection fails on nearby ones
    # (see PROBES)
    "cli_resonances": [
        {"preset": "cylinder", "rect": rect}
        for rect in ([-0.5, 0.5, 0.0, 4.0], [-0.5, 0.5, 0.0, 7.0],
                     [-0.5, 0.5, -4.0, 4.0])
    ],
    "cover_zeta_zeros": [
        {"moduli": [2, 1], "rect": _RECT_CRIT04, "lmax": 12},
    ],
    # scaled-down criterion 07: symmetric3 through the module, sl2z-crossed
    # through the CLI
    "equidistribution": [
        {"preset": "symmetric3", "moduli": [[2, 1]], "lmax": 10, "fine": 4},
    ],
    "cli_cover_abelian": [
        {"rect": _RECT_CRIT04, "moduli": [2, 1], "lmax": 12},
    ],
    "cli_equidist": [
        {"preset": "sl2z-crossed", "covers": [2], "axis": 1, "lmax": 6, "fine": 2},
    ],
    "character_average": [
        {"preset": preset, "p": p}
        for preset in ("sl2z-pair", "sl2z-crossed") for p in SMALL_PRIMES
    ],
    "primitive_geodesics": [
        {"preset": "sl2z-crossed", "T": T} for T in T_GRID
    ],
    "trace_multiplicities": [
        {"preset": "sl2z-crossed", "T": T} for T in T_GRID
    ],
    "geodesic_sum": [
        {"preset": preset, "T": T, "phi": phi}
        for preset in ("sl2z-pair", "sl2z-crossed")
        for T in (4.0, 5.0, 6.0, 7.0, 8.0) for phi in ("box", "tent")
    ],
    "cli_congruence": [
        {"preset": "sl2z-pair", "p": p} for p in (5, 7, 11, 13)
    ],
    "cli_explicit_formula": [
        {"preset": preset, "order": J}
        for preset in ("sl2z-pair", "sl2z-crossed") for J in (8, 10, 12)
    ],
}

# Known defects of the baseline, one task each, run in every pass: the
# malformed inputs listed in ROADMAP.md, which must end in their documented
# exit code (2: validation failure), and two inputs on which the zero
# finders answer wrongly.  They count in ok_share, not among the workload's
# failed operations, so that fixing them raises ok_share.
_MALFORMED = {
    "reversed_rect": {"kind": "cli_probe", "expect": 2, "argv": [
        "resonances", "--preset", "cylinder", "--rect", "1,0,0,1"]},
    "bad_grid": {"kind": "cli_probe", "expect": 2, "argv": [
        "zeta-scan", "--preset", "symmetric3", "--rect", "0.2,0.4,0,1",
        "--grid", "4,x"]},
    "lmax_1": {"kind": "cli_probe", "expect": 2, "argv": [
        "resonances", "--preset", "cylinder", "--rect", "-0.5,0.5,0,4",
        "--lmax", "1"]},
    "group_without_discs": {"kind": "cli_probe", "expect": 2,
                            "argv": ["validate"], "group_without_discs": True},
}
PROBES = {
    "contour": [
        _MALFORMED["reversed_rect"], _MALFORMED["bad_grid"], _MALFORMED["lmax_1"],
        # an edge 0.085 from the double zeros on Re s = 0: the winding
        # misses a turn and counts 2 of the 4 zeros
        {"kind": "count_zeros", "lmax": 16,
         "rect": [-0.0848, 0.3349, -2.1485, 5.5495]},
        # split lines of the bisection pass within 1e-6 of a double zero:
        # ContourError, exit 3
        {"kind": "cli_resonances", "preset": "cylinder",
         "rect": [-0.2592, 0.1713, 1.2746, 4.9494]},
    ],
    "covers": [],
    "combinatorics": [_MALFORMED["group_without_discs"]],
}


def _menu(rng: random.Random, kind: str, n: int) -> list[dict]:
    return [dict(rng.choice(MENUS[kind]), kind=kind) for _ in range(n)]


def _cylinder_rect(rng: random.Random, on_axis: bool, span: int,
                   k0: int) -> list[float]:
    """A rectangle whose edges keep at least 0.2 lattice steps from the
    zeros 2 pi i k / l in height and 0.25 in width, the margins of
    criterion 03; nearer edges are a known defect (see PROBES)."""
    y0 = (k0 - 0.5 + rng.uniform(-0.3, 0.3)) * LATTICE
    y1 = (k0 + span - 0.5 + rng.uniform(-0.3, 0.3)) * LATTICE
    if on_axis:
        x0, x1 = -rng.uniform(0.25, 0.5), rng.uniform(0.25, 0.5)
    else:
        x0 = rng.uniform(0.25, 0.45)
        x1 = x0 + rng.uniform(0.1, 0.3)
    return [x0, x1, y0, y1]


def _stratum(rng: random.Random, i: int, n: int, lo: float, hi: float) -> float:
    """A draw from the i-th of n equal slices of [lo, hi]: the multiset of
    values, and so the cost they drive, is nearly the same for every seed."""
    return lo + (hi - lo) * (i + rng.random()) / n


def _near(rng: random.Random, preset: str, radius: float) -> list[float]:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return [DELTA[preset] + radius * math.cos(angle), radius * math.sin(angle)]


def _delta_rect(rng: random.Random, preset: str, size: float) -> list[float]:
    d = DELTA[preset]
    a, b, c, e = (size * rng.uniform(0.95, 1.05) for _ in range(4))
    return [d - a, d + b, -c, e]


def _contour(rng: random.Random) -> list[dict]:
    # Each percentile is placed high inside a group of like tasks: p50 in
    # count_zeros at lmax 16, p90 in the lmax-32 group under the six
    # heaviest tasks.  A spell of faster machine speed then moves a group's
    # lower samples, not the percentile.
    tasks = []
    for i in range(50):
        tasks.append({"kind": "count_zeros", "lmax": 16,
                      "rect": _cylinder_rect(rng, on_axis=i % 8 < 6, span=1 + i % 2,
                                             k0=(i // 2) % 4 - 2)})
    for i in range(13):
        tasks.append({"kind": "count_zeros", "lmax": 32,
                      "rect": _cylinder_rect(rng, on_axis=i % 8 < 6, span=1 + i % 2,
                                             k0=(i // 2) % 4 - 2)})
    for i in range(20):
        preset = ("symmetric3", "sl2z-pair")[i % 2]
        tasks.append({"kind": "refine_zero", "preset": preset, "lmax": 16,
                      "start": _near(rng, preset, _stratum(rng, i // 2, 10, 0.004, 0.02))})
    for i in range(12):
        preset = ("symmetric3", "sl2z-pair")[i % 2]
        tasks.append({"kind": "refine_zero", "preset": preset, "lmax": 32,
                      "start": _near(rng, preset, _stratum(rng, i // 2, 6, 0.004, 0.02))})
    tasks.append({"kind": "refine_zero", "preset": "sl2z-crossed", "lmax": 32,
                  "start": _near(rng, "sl2z-crossed", rng.uniform(0.004, 0.02))})
    for preset in ("symmetric3", "sl2z-pair"):
        tasks.append({"kind": "resonances_delta", "preset": preset, "lmax": 16,
                      "rect": _delta_rect(rng, preset, 0.05)})
    tasks += _menu(rng, "cli_resonances", 1)
    tasks.append({"kind": "cli_resonances", "preset": "symmetric3",
                  "rect": _delta_rect(rng, "symmetric3", 0.05)})
    tasks += _menu(rng, "cli_zeta_scan", 1)
    return tasks


def _covers(rng: random.Random) -> list[dict]:
    tasks = []
    for i in range(16):
        r = _stratum(rng, i, 16, 0.005, 0.05)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        tasks.append({"kind": "theta_pair", "lmax": 16,
                      "theta": [r * math.cos(angle), r * math.sin(angle)]})
    for i in range(66):
        tasks.append({"kind": "nonvanishing_scan", "preset": "symmetric3",
                      "grid_n": 6 + i % 4, "delta": "none" if i % 11 == 5 else "setup"})
    tasks.append({"kind": "nonvanishing_scan", "preset": "sl2z-crossed",
                  "grid_n": 3, "delta": "setup"})
    for i in range(12):
        tasks.append({"kind": "refine_zero", "preset": "symmetric3", "lmax": 12,
                      "twist": ["regular", [2 + i % 3, 1]],
                      "start": _near(rng, "symmetric3", _stratum(rng, i // 3, 4, 0.002, 0.01))})
    for kind in ("cover_zeta_zeros", "equidistribution", "cli_cover_abelian",
                 "cli_equidist"):
        tasks += [dict(t, kind=kind) for t in MENUS[kind]]
    tasks.append({"kind": "implicit_curve", "grid_n": 3, "delta": "none",
                  "epsilon": rng.uniform(0.045, 0.055)})
    tasks.append({"kind": "curve_hessian", "h": rng.uniform(0.009, 0.011)})
    return tasks


def _combinatorics(rng: random.Random) -> list[dict]:
    # p50 falls high inside the sub-millisecond group (trace rigidity,
    # character sums, cached geodesic tables); p90 between Cheeger on C_17
    # and class_statistics(17), under the larger primes, Cheeger on C_18
    # and the explicit-formula CLI tasks, and above the build_test_function
    # group.  That group's sums over 2e6-element arrays are bound by memory
    # and slow down less than interpreted code when the machine is busy,
    # so a percentile inside it would move with the speed scaling of
    # run.py.  The group runs after the explicit-formula CLI tasks, which
    # make the pass's first such arrays: the first one faults its pages in
    # and took twice as long, up at the p90.
    tasks = [{"kind": "class_statistics", "p": p} for p in SMALL_PRIMES + (37, 41, 43)]
    for preset in ("sl2z-pair", "sl2z-crossed"):
        tasks += [{"kind": "conj1_check", "preset": preset, "p": p, "beta": 1.5}
                  for p in SMALL_PRIMES]
    tasks += [dict(t, kind="character_average") for t in MENUS["character_average"]]
    tasks += [{"kind": "sandwich_check", "n": n} for n in range(5, 19)]
    for _ in range(6):
        Ns = sorted(rng.sample([64, 96, 128, 192, 256, 384, 512, 768, 1024], 4))
        tasks.append({"kind": "gap_decay", "Ns": Ns})
    for kind in ("primitive_geodesics", "trace_multiplicities"):
        for i in range(10):
            T = rng.choice(T_GRID[2 * i:2 * i + 2])
            tasks.append({"kind": kind, "preset": "sl2z-crossed", "T": T})
    # one geodesic sum per preset and length, so that the seed (which only
    # picks the test function) cannot move these cheap tasks across the p50
    for preset in ("sl2z-pair", "sl2z-crossed"):
        for T in (4.0, 6.0, 8.0):
            tasks.append({"kind": "geodesic_sum", "preset": preset, "T": T,
                          "phi": rng.choice(("box", "tent"))})
    for preset in ("sl2z-pair", "sl2z-crossed"):
        tasks.append({"kind": "cli_validate", "preset": preset})
    tasks += _menu(rng, "cli_congruence", 2)
    for _ in range(2):
        covers = sorted(rng.sample([64, 128, 256, 512, 1024], 3))
        tasks.append({"kind": "cli_cayley", "covers": covers})
    tasks += _menu(rng, "cli_explicit_formula", 2)
    for i in range(6):
        tasks.append({"kind": "build_test_function", "eps": rng.uniform(0.3, 1.0),
                      "J": 6 + i})
    return tasks


_RECIPES = {"contour": _contour, "covers": _covers,
            "combinatorics": _combinatorics}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's task list for this seed, probes included, in the
    order in which a pass runs them.

    The order is the recipe's, the same for every seed.  A task's time
    depends on what the tasks before it left in the caches and the heap;
    in a seeded order, the interpreted SL2(F_p) tasks moved by up to a
    third from seed to seed, though their inputs do not depend on it."""
    rng = random.Random(f"{workload}:{seed}")
    return _RECIPES[workload](rng) + [dict(p, probe=True)
                                      for p in PROBES[workload]]
