"""Self-tests of the benchmark: span arithmetic, tracing from outside,
import-time parsing, generator determinism and agreement with BENCHMARK.json.

Run from the repository root: python3 -m pytest bench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import robocal.geometry  # noqa: E402
import robocal.metrics  # noqa: E402
import robocal.simulate  # noqa: E402
from catalogue import END_TO_END, PER_LAYER  # noqa: E402
from spans import Tracer, parse_importtime, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds child [2, 5], which holds grandchild [3, 4], and child [6, 7]
    own = self_times(start=[0, 2, 3, 6], end=[10, 5, 4, 7], parent=[-1, 0, 1, 0])
    np.testing.assert_allclose(own, [6, 2, 1, 1])


def test_tracer_links_nested_calls_and_conserves_time():
    tracer = Tracer()
    inner = tracer.wrap("m.inner", lambda: sum(range(1000)))
    outer = tracer.wrap("m.outer", lambda: [inner() for _ in range(3)])
    outer()
    assert list(tracer.parent) == [-1, 0, 0, 0]
    stats = tracer.summarize()
    assert stats["m.outer"].calls == 1 and stats["m.inner"].calls == 3
    total = stats["m.outer"].self_s + stats["m.inner"].self_s
    assert total == pytest.approx(tracer.end[0] - tracer.start[0], rel=1e-9)


def test_installed_rebinds_copied_references_and_restores_them():
    compose, post_init = robocal.geometry.compose, robocal.geometry.Pose.__post_init__
    tracer = Tracer()
    with tracer.installed():
        assert robocal.simulate.compose is robocal.geometry.compose is not compose
        pose = robocal.geometry.Pose(np.eye(3), np.zeros(3))
        robocal.metrics.pointwise_rmse(np.ones((4, 3)), pose, pose)
    assert robocal.simulate.compose is compose
    assert robocal.geometry.Pose.__post_init__ is post_init
    names = set(tracer.summarize())
    assert {"geometry.pose_new", "metrics.pointwise_rmse", "geometry.apply"} <= names


def test_parse_importtime_sums_outermost_entries_per_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     scipy.sparse",
        "import time:        20 |         30 |   scipy.spatial",
        "import time:        40 |         40 |   scipy.linalg",
        "import time:         5 |        225 | robocal.geometry",
    ])
    got = parse_importtime(stderr)
    assert got == pytest.approx({"numpy": 150e-6, "scipy": 70e-6, "robocal": 225e-6})


def _generated(name, seed, workdir):
    workdir.mkdir()
    prepared = WORKLOADS[name].prepare(seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    return prepared.commands, files


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_depends_on_seed_only(name, tmp_path):
    first = _generated(name, 3, tmp_path / "a")
    assert _generated(name, 3, tmp_path / "b") == first
    assert _generated(name, 4, tmp_path / "c") != first


def test_benchmark_json_matches_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert spec["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in END_TO_END]
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]


def test_reference_program_is_independent_of_robocal():
    # the end-to-end times are divided by its speed, so no change to the
    # program may change it
    source = (BENCH / "reference.py").read_text()
    assert "robocal" not in source.split('"""', 2)[2]
