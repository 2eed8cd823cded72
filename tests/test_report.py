import os

import numpy as np
import pytest

from reslab import report


def test_fmt_float_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-300, 300))
        assert float(report.fmt_float(x)) == x


def test_atomic_write_no_partial(tmp_path):
    path = str(tmp_path / "out.txt")
    report.atomic_write(path, "hello\n")
    assert open(path).read() == "hello\n"
    report.atomic_write(path, "replaced\n")
    assert open(path).read() == "replaced\n"
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
    assert leftovers == []


def test_write_csv_format(tmp_path):
    path = str(tmp_path / "t.csv")
    report.write_csv(path, ("a", "b", "c"), [(1, 0.5, "x,y"), (2, -1.0, "z")])
    lines = open(path).read().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == '1,0.5,"x,y"'
    assert lines[2] == "2,-1,z"


def _csv_cell_by_cell(header, rows):
    """write_csv's text with every cell rendered by _cell on its own."""
    lines = [",".join(header)] + [",".join(report._cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_write_csv_matches_cell_by_cell_rendering(tmp_path):
    rng = np.random.default_rng(1)
    header = ("flag", "n", "k", "x", "y", "label", "mixed")
    rows = []
    for i in range(50):
        rows.append((
            bool(i % 3),
            i - 25,
            (np.int64, np.int32, int)[i % 3](-(3 ** (i % 19))),
            (np.float64, np.float32)[i % 2](rng.normal() * 10.0 ** rng.integers(-30, 30)),
            float(rng.normal()) if i % 7 else float("nan"),
            ('a,b' if i % 2 else 'say "hi"') + str(i),
            (1, 0.1, np.int32(-2), np.float32(0.3), True, "t", None, 1e300)[i % 8],
        ))
    path = tmp_path / "mixed.csv"
    report.write_csv(str(path), header, iter(rows))
    assert path.read_bytes() == _csv_cell_by_cell(header, rows).encode()


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        report.write_csv(str(tmp_path / "r.csv"), ("a", "b"), [(1, 2), (3,)])


def test_write_json_schema_version_and_order(tmp_path):
    path = str(tmp_path / "t.json")
    report.write_json(path, {"zeta": 1.5, "alpha": [1, 2], "flag": True})
    text = open(path).read()
    assert '"schema_version": 1' in text
    assert text.index('"alpha"') < text.index('"flag"') < text.index('"zeta"')
    import json
    parsed = json.loads(text)
    assert parsed["zeta"] == 1.5 and parsed["alpha"] == [1, 2]


def test_write_json_17_digits(tmp_path):
    path = str(tmp_path / "t.json")
    x = 0.1 + 0.2
    report.write_json(path, {"x": x})
    import json
    assert json.loads(open(path).read())["x"] == x


def test_emit_svg_empty(tmp_path):
    path = str(tmp_path / "e.svg")
    report.emit_svg([], path)
    text = open(path).read()
    assert text.startswith("<?xml")
    assert "<svg" in text and "</svg>" in text
    assert "<line" in text  # axes present


def test_emit_svg_points_and_annotations(tmp_path):
    path = str(tmp_path / "p.svg")
    report.emit_svg([(0.0, 0.0, 1.0), (1.0, 2.0, 2.0)], path,
                    annotations=[(0.5, 0.5, "delta")])
    text = open(path).read()
    assert text.count("<circle") == 3
    assert "delta" in text


def test_emit_svg_deterministic(tmp_path):
    a = str(tmp_path / "a.svg")
    b = str(tmp_path / "b.svg")
    pts = [(float(i), float(i * i % 7), 1.0) for i in range(20)]
    report.emit_svg(pts, a, title="t")
    report.emit_svg(pts, b, title="t")
    assert open(a, "rb").read() == open(b, "rb").read()
