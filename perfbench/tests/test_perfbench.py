"""Tests of the benchmark's own code. Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import bench  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
from planrec import runner  # noqa: E402

# two cheap instances of benchmark A, checked against its recorded references
SMALL = bench.Workload("a3-paper", bench.load_workload("a3-paper").domain,
                       (1011, 1014), "paper", (None,))


@pytest.fixture
def small(tmp_path):
    lib_path, obs_paths = bench.materialize(SMALL, tmp_path)
    return lib_path, obs_paths, tmp_path


def _pass(small, span=bench._no_span):
    lib_path, obs_paths, scratch = small
    order = bench.shuffled(SMALL.instances, random.Random(0))
    return bench.run_pass(SMALL, lib_path, obs_paths, order, scratch, span)


def test_tail_percentile_leaves_ten_samples_beyond():
    assert bench.tail_percentile(180) == 90
    assert bench.tail_percentile(108) == 90
    assert bench.tail_percentile(99) == 80
    assert bench.tail_percentile(63) == 80
    assert bench.tail_percentile(20) == 50
    with pytest.raises(ValueError):
        bench.tail_percentile(19)
    for n in range(20, 2000):
        p = bench.tail_percentile(n)
        assert n * (100 - p) / 100 >= 10
        higher = [q for q in bench.PERCENTILES if q > p]
        assert not higher or n * (100 - higher[0]) / 100 < 10


def test_percentile_interpolates_between_ranks():
    samples = [float(v) for v in range(1, 11)]
    assert bench.percentile(samples, 50) == pytest.approx(5.5)
    assert bench.percentile(samples, 90) == pytest.approx(9.1)
    assert bench.percentile([3.0], 90) == 3.0


def test_tail_mean_averages_the_samples_beyond_the_percentile():
    samples = [float(v) for v in range(1, 101)]
    assert bench.tail_mean(samples, 90) == pytest.approx(sum(range(91, 101)) / 10)
    assert bench.tail_mean(list(reversed(samples)), 80) == pytest.approx(90.5)


def test_probe_widens_to_the_nearest_samples():
    probe = hostspeed.SpeedProbe(reference_s=1.0, kernel_n=10, interval=1.0, min_samples=3)
    probe.at = [1.0, 2.0, 3.0, 4.0, 5.0]
    probe.took = [2.0, 2.0, 4.0, 4.0, 4.0]
    assert probe.kernel_time(1.5, 4.5) == 4.0  # three inside
    assert probe.kernel_time(3.5, 5.5) == 4.0  # two inside, one added on the left
    assert probe.kernel_time(0.0, 1.5) == 2.0  # one inside, two added on the right


def test_probe_scales_only_while_running():
    probe = hostspeed.SpeedProbe(reference_s=1.0, kernel_n=10, interval=1.0, min_samples=3)
    now = time.perf_counter()
    probe.at = [now - 2.0, now - 1.5, now - 1.0]
    probe.took = [0.5, 0.5, 0.5]
    probe.busy = 0.25  # the probe's own time inside the interval is left out
    assert probe.stop((now - 2.0, 0.0)) == pytest.approx(1.75, abs=0.05)
    probe.active = True
    assert probe.stop((now - 2.0, 0.0)) == pytest.approx(3.5, abs=0.1)


def test_probe_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    probe = hostspeed.SpeedProbe(reference_s=1e-4, kernel_n=100, interval=0.005, min_samples=3)
    with probe.running():
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    samples, kernel_s = probe.summary()
    assert samples > 3 + 10 and kernel_s > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert not probe.active


def test_clean_pass_matches_references(small):
    result = _pass(small)
    bench.check_outputs(SMALL, result, bench.load_references())
    assert result.attempted == 6
    assert result.failures == {}
    assert result.times["phatt_s"] > 0 and result.times["slim_td_s"] > 0


def test_bad_observation_file_counts_as_failed_not_fatal(small):
    lib_path, obs_paths, _ = small
    bad = obs_paths["inst_1011"]
    bad.write_text(bad.read_text() + " no_such_action\n")
    result = _pass(small)
    bench.check_outputs(SMALL, result, bench.load_references())
    assert result.attempted == 6
    assert sorted(result.failures) == ["inst_1011/phatt", "inst_1011/slim-0",
                                       "inst_1011/slim-all"]
    assert "LibraryError" in result.failures["inst_1011/phatt"]


def test_changed_output_fails_the_check(small):
    result = _pass(small)
    references = json.loads(json.dumps(bench.load_references()))
    references["a3-paper"]["inst_1014"]["slim-0"]["hypotheses"] = "0" * 64
    bench.check_outputs(SMALL, result, references)
    assert list(result.failures) == ["inst_1014/slim-0"]


def test_digests_equal_the_runners_own_output(small):
    lib_path, obs_paths, scratch = small
    result = _pass(small)
    for algorithm, k, tag in (("phatt", 0, "phatt"), ("slim", "all", "slim-all")):
        emit, csv = scratch / f"{tag}.txt", scratch / f"{tag}.csv"
        runner.run_recognition(lib_path, obs_paths["inst_1011"], algorithm, k=k,
                               emit_path=emit, csv_path=csv)
        rows = [",".join(c for i, c in enumerate(line.split(","))
                         if i != bench.ELAPSED_COLUMN)
                for line in csv.read_text().splitlines()]
        got = result.digests["inst_1011"][tag]
        assert got["hypotheses"] == bench._sha(emit.read_bytes())
        assert got["csv"] == bench._sha("\n".join(rows).encode())


def test_tracer_restores_every_wrapper(small):
    before = tracing.patch_targets()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer.installed():
            import planrec.slim
            import planrec.trees
            assert planrec.slim.try_fuse is not before[("planrec.slim", "try_fuse")]
            assert planrec.slim.try_fuse is planrec.trees.try_fuse
            raise RuntimeError("inside")
    after = tracing.patch_targets()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_pass_keeps_outputs_and_reports_every_layer(small):
    before = tracing.patch_targets()
    untraced = _pass(small)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = _pass(small, span=tracer.span)
    assert all(tracing.patch_targets()[key] is before[key] for key in before)
    assert traced.digests == untraced.digests
    layers = tracing.layer_metrics(tracer, traced.zero_yield, untraced.wall_s, traced.wall_s)
    assert set(layers) == set(bench.DESIGN["per_layer_to_end_to_end"])
    assert layers["phatt.step.s"][0] > 0 and layers["trees.try_fuse.calls"][0] > 0
    steps = [s for s in tracer.spans if s["name"] == "phatt.step"]
    parents = {s["id"]: s for s in tracer.spans}
    assert steps and all(parents[s["parent"]]["name"] == "drive" for s in steps)


def test_run_fails_cleanly_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "a3-paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
