"""Record the answers of every menu input into reference.json.

    python3 perfbench/record_reference.py

Run it at the commit whose answers are the reference (the benchmark's
baseline); the oracles of the recorded kinds compare later answers with
these, at the tolerances in tasks.py.  Every recorded answer must also pass
its kind's own closed-form checks, or recording stops.
"""

from __future__ import annotations

import json
import sys
import tempfile

import worker
from tasks import KINDS, ref_key
from workloads import MENUS, PRESETS


def main() -> int:
    worker.import_reslab()
    presets = sorted({p for names in PRESETS.values() for p in names})
    reference = {}
    scratch = worker.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as work:
        ctx = worker.Context(presets, (), work, reference)
        for kind, menu in MENUS.items():
            for item in menu:
                task = dict(item, kind=kind)
                answer = KINDS[kind].run(ctx, task)
                reference[ref_key(task)] = answer
                err = KINDS[kind].check(task, answer, answer)
                if err:
                    print(f"{kind} {item}: {err}", file=sys.stderr)
                    return 1
    with open(worker.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reference)} answers", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
