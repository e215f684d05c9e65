"""Golden files: the writers' exact bytes, track's outputs on seeded walks, and
the bytes of those walks' trace, truth and evaluation files.

tests/make_golden.py builds the inputs and rewrites tests/golden/.
"""

import json
import math

import numpy as np
import pytest

import make_golden
from seamloc import evaluate, harness
from seamloc.harness import EVENTS_HEADER, PATH_HEADER

EMPTY = None  # a column the line leaves empty

# File name -> (field spec, head, sep, records): every column of each
# record as the file holds it, None where the column is empty.
WRITTEN = {
    "plan.txt": (
        harness._FLOORPLAN,
        "version: 1",
        None,
        [
            ("wall", (0.0, 0.0, 10.0, 0.0)),
            ("wall", (-0.0, 1e100, 5e-324, 2.5)),
            ("door", ("doorA", 10.0, 4.0, 0.0, 1.0, "indoor", "outdoor")),
            ("door", ("doorB", 20.0, -0.0, -1.0, -0.0, "hall", "yard")),
            ("start", (4.0, 4.0, 0.0, "indoor")),
        ],
    ),
    "plan_no_start.txt": (
        harness._FLOORPLAN,
        "version: 1",
        None,
        [("wall", (0.1, 0.2, 0.30000000000000004, 0.2))],
    ),
    "radiomap.txt": (
        harness._RADIOMAP,
        "version: 1",
        None,
        [
            ("point", (1.0, 2.0, ("ap1", -50.0), ("ap10", -120.0), ("ap2", -0.0))),
            ("point", (1e300, 5e-324, ("a", -73.25), ("b", -5e-324))),
        ],
    ),
    "truth_group.txt": (
        harness._TRUTH,
        "version: 1",
        None,
        [
            ("group", ("phone", "A")),
            ("initial", (0.0, -0.0, 0.0, "indoor")),
            ("final", (1e300, 5e-324)),
            ("step", (0, 0.5, 0.75, 0.0, 0.0, "indoor")),
            ("step", (1, 1.0, 1.5, -0.0, -0.0, "outdoor")),
            ("step", (2, 1e300, 1e300, 5e-324, 3.141592653589793, "outdoor")),
            ("door_open", (0.25, 0.75)),
            ("door_open", (5e-324, 1e300)),
            ("crossing", (1, "doorA")),
            ("turn_back", (2, "doorB")),
        ],
    ),
    "truth_no_group.txt": (
        harness._TRUTH,
        "version: 1",
        None,
        [
            ("initial", (0.0, 0.0, 0.0, "outdoor")),
            ("final", (2.0, 0.0)),
            ("step", (0, 1.0, 1.0, 0.0, 0.0, "outdoor")),
            ("step", (1, 2.0, 2.0, 0.0, 0.0, "outdoor")),
        ],
    ),
    "trial.events.csv": (
        harness._EVENTS,
        EVENTS_HEADER,
        ",",
        [
            ("switch", (7, 0.0, "doorB", -0.0, 5e-324, EMPTY, EMPTY, EMPTY, "outdoor", "indoor")),
            ("door_open", (EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, 5e-324, 0.25, 2, EMPTY, EMPTY)),
            ("step", (0, 0.5, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY)),
            ("step", (1, 1.0, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY)),
            ("door_open", (EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, 1.0, 2.0, 4, EMPTY, EMPTY)),
            ("switch", (1, 1.0, "doorA", 10.0, 4.0, EMPTY, EMPTY, EMPTY, "indoor", "outdoor")),
            ("step", (2, 1e300, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY, EMPTY)),
        ],
    ),
    "trial.path.csv": (
        harness._PATH,
        PATH_HEADER,
        ",",
        [
            (None, (0, 0.5, 1.0, 0.0, 0.0, "indoor")),
            (None, (1, 1.0, 0.75, -0.0, -0.0, "outdoor")),
            (None, (2, 1e300, 1e300, -5e-324, 3.141592653589793, "")),
        ],
    ),
}


def kept(convs, values):
    """The values _read returns for a record: a None converter skips its column."""
    convs = [conv for conv in convs if not isinstance(conv, str)]
    if convs[-1] is ...:
        convs = convs[:-1] + convs[-2:-1] * (len(values) - len(convs) + 1)
    return tuple(value for conv, value in zip(convs, values) if conv is not None)


def signed(value):
    """value with each float's sign made visible, so that -0.0 != 0.0."""
    if isinstance(value, tuple):
        return tuple(map(signed, value))
    return (value, math.copysign(1.0, value)) if isinstance(value, float) else value


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_writer_bytes(tmp_path, name):
    save, obj = make_golden.writer_cases()[name]
    save(obj, tmp_path / name)
    assert (tmp_path / name).read_bytes() == (make_golden.GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(WRITTEN))
def test_read_gives_back_the_written_records(name):
    fields, head, sep, written = WRITTEN[name]
    records = harness._read(make_golden.GOLDEN / name, fields, head, sep)
    in_file_order = sorted((lineno, key, values) for key, rows in records.items() for lineno, values in rows)
    assert [key for _, key, _ in in_file_order] == [key for key, _ in written]
    got = [values for _, _, values in in_file_order]
    want = [kept(fields[key], values) for key, values in written]
    assert signed(tuple(got)) == signed(tuple(want))


def test_track_matches_golden():
    want = json.loads((make_golden.GOLDEN / "track.json").read_text(encoding="utf-8"))
    got = make_golden.track_records()
    assert [r["name"] for r in got] == [r["name"] for r in want]
    for g, w in zip(got, want):
        for key in ("steps", "door_opens", "switches", "environments"):
            assert g[key] == w[key], f"{g['name']}: {key}"
        for key in ("poses", "crossing_points"):
            assert len(g[key]) == len(w[key]), f"{g['name']}: {key}"
            np.testing.assert_allclose(g[key], w[key], rtol=0, atol=1e-9, err_msg=f"{g['name']}: {key}")


def test_walk_files_match_golden():
    want = json.loads((make_golden.GOLDEN / "walks.json").read_text(encoding="utf-8"))
    assert make_golden.walk_digests() == want


@pytest.mark.parametrize("case", sorted(make_golden.report_cases()))
def test_report_files_match_golden(tmp_path, case):
    harness.save_report(evaluate(make_golden.report_cases()[case]), tmp_path)
    for name in make_golden.REPORT_FILES:
        assert (tmp_path / name).read_bytes() == (make_golden.GOLDEN / f"report_{case}" / name).read_bytes(), name
