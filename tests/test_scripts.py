import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=60)


def test_run_paper_benchmark_smoke(tmp_path):
    done = run_script("run_paper_benchmark.py",
                      ["--depth", "2", "--instances", "1000,1001", "--k-list", "0,all",
                       "--out-dir", "out"], tmp_path)
    assert done.returncode == 0, done.stderr
    out = tmp_path / "out"
    assert sorted(p.name for p in (out / "observations").iterdir()) == \
        ["inst_1000.txt", "inst_1001.txt"]
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {"phatt", "slim-0", "slim-all"}
    assert all(row.endswith(",ok") for row in rows)
    assert "algorithm slim-all" in done.stdout


def test_run_paper_benchmark_rejects_bad_k_list(tmp_path):
    done = run_script("run_paper_benchmark.py",
                      ["--depth", "2", "--k-list", "0,x", "--out-dir", "out"], tmp_path)
    assert done.returncode == 2
    assert "argument --k-list: invalid" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()  # rejected before the domain is built


@pytest.mark.parametrize("algorithms", ["foo", "phatt,foo"])
def test_run_paper_benchmark_rejects_unknown_algorithm(tmp_path, algorithms):
    done = run_script("run_paper_benchmark.py",
                      ["--depth", "2", "--algorithms", algorithms, "--out-dir", "out"],
                      tmp_path)
    assert done.returncode == 2
    assert "argument --algorithms: invalid" in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()  # rejected before the domain is built


@pytest.mark.parametrize("args, message", [
    (["--and-branch", "1"], "branch factors must be >= 2"),
    (["--instances", "1,x"], "argument --instances: invalid"),
    (["--k-list", ""], "argument --k-list: invalid"),
    (["--k-list", "0,0"], "argument --k-list: invalid"),
    (["--algorithms", ","], "argument --algorithms: invalid"),
    (["--algorithms", "phatt,phatt"], "argument --algorithms: invalid"),
])
def test_run_paper_benchmark_rejects_bad_values(tmp_path, args, message):
    done = run_script("run_paper_benchmark.py",
                      ["--depth", "2", *args, "--out-dir", "out"], tmp_path)
    assert done.returncode == 2
    assert message in done.stderr
    assert "Traceback" not in done.stderr
    assert not (tmp_path / "out").exists()  # rejected before the domain is built


def test_find_bench_instances_smoke(tmp_path):
    done = run_script("find_bench_instances.py",
                      ["--depth", "2", "--count", "3", "--low", "1", "--high", "1000"],
                      tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == \
        ["seed 2000", "seed 2001", "seed 2002"]
    assert lines[-1] == "selected: [2000, 2001, 2002]"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name.removesuffix(".py"), SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def perfbench_stdout(failed=0, **metrics):
    """A perfbench run's output: a readable summary, then one JSON line;
    ``failed`` of its 3 operations failed."""
    result = {"correct": failed == 0, "attempted": 3, "failed": failed,
              "metrics": {name: {"value": value, "unit": "s"}
                          for name, value in metrics.items()}}
    return f"workload w (seed 1, trace 0)\n  slim_td_s ...\n{json.dumps(result)}\n"


def test_bench_pairs_summary(tmp_path):
    pairs = load_script("bench_pairs.py")
    parent_td = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change_td = [0.80, 0.81, 0.79, 0.80, 0.82, 0.78, 0.80, 1.10, 0.81, 0.79]
    parent_bu = [0.50, 0.51, 0.49, 0.52, 0.48, 0.50, 0.51, 0.49, 0.50, 0.50]
    change_bu = [0.49, 0.52, 0.50, 0.51, 0.49, 0.51, 0.50, 0.50, 0.49, 0.51]
    parent_rss = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change_rss = [130, 128, 131, 126, 130, 129, 132, 130, 127, 130]
    parent = [pairs.last_json(perfbench_stdout(slim_td_s=td, slim_bu_s=bu, hits=1.0, rss=rss))
              for td, bu, rss in zip(parent_td, parent_bu, parent_rss)]
    change = [pairs.last_json(perfbench_stdout(slim_td_s=td, slim_bu_s=bu, hits=2.0, rss=rss))
              for td, bu, rss in zip(change_td, change_bu, change_rss)]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "slim_td_s", "better": "lower", "bound": 0.25},
        {"name": "slim_bu_s", "better": "lower", "bound": 0.25},
        {"name": "hits", "better": "higher"},
        {"name": "rss", "better": "lower", "bound": 0.25},
    ]}))
    better, bounds = pairs._design(tmp_path)
    assert better == {"slim_td_s": "lower", "slim_bu_s": "lower", "hits": "higher",
                      "rss": "lower"}
    assert bounds == {"slim_td_s": 0.25, "slim_bu_s": 0.25, "rss": 0.25}
    assert pairs._design(tmp_path / "none") == ({}, {})
    rows = {r["metric"]: r for r in pairs.summarize(parent, change, better, bounds)}
    assert list(rows) == ["slim_td_s", "slim_bu_s", "hits", "rss"]
    # regressed: the change's median worse than the parent's by more than
    # its bound, a share of the parent's median; None without a bound
    assert {name: r["regressed"] for name, r in rows.items()} == \
        {"slim_td_s": False, "slim_bu_s": False, "hits": None, "rss": True}
    rss = rows["rss"]  # median 100 to 130: 30% worse, beyond a 25% bound
    assert (rss["ratio"], rss["wins"], rss["claim"]) == (pytest.approx(1.3), 0, False)
    td = rows["slim_td_s"]
    assert td["parent"] == pytest.approx((0.9825, 1.0, 1.0175))
    assert td["change"] == pytest.approx((0.7925, 0.80, 0.81))
    assert td["ratio"] == pytest.approx(0.8)
    assert (td["wins"], td["pairs"], td["claim"]) == (9, 10, True)  # one pair lost
    bu = rows["slim_bu_s"]  # within noise: the gap is below the quartile distance
    assert (bu["wins"], bu["claim"]) == (4, False)
    assert (rows["hits"]["wins"], rows["hits"]["claim"]) == (10, True)
    # nine pairs cannot carry a claim, however clear
    assert not pairs.summarize(parent[:9], change[:9])[0]["claim"]
    text = pairs.format_rows(list(rows.values()))
    lines = text.splitlines()
    assert lines[0].split()[-2:] == ["claim", "regressed"]
    assert [line.split()[-3:] for line in lines[1:]] == \
        [["9/10", "yes", "no"], ["4/10", "no", "no"], ["10/10", "yes", "-"], ["0/10", "no", "yes"]]
    with pytest.raises(ValueError):
        pairs.summarize(parent, change[:9])


def test_bench_pairs_claims_nothing_over_failures():
    pairs = load_script("bench_pairs.py")
    parent_td = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]

    def runs(values, failed=()):
        return [pairs.last_json(perfbench_stdout(failed=i in failed, slim_td_s=value))
                for i, value in enumerate(values)]

    parent = runs(parent_td)
    faster = [value * 0.8 for value in parent_td]
    assert pairs.summarize(parent, runs(faster))[0]["claim"]
    # a change that is not correct in one run claims nothing, however fast
    wrong = runs(faster, failed={3})
    assert not wrong[3]["correct"]
    assert pairs.failed_share(wrong) == pytest.approx(1 / 30)
    assert not pairs.summarize(parent, wrong)[0]["claim"]
    # nor does one compared against a parent that is not correct: both sides
    # must be, even when the change fails no more than the parent
    assert pairs.failed_share(parent) == 0.0
    assert not pairs.summarize(runs(parent_td, failed={3}), wrong)[0]["claim"]
    # a share is summed over the runs; runs that attempted nothing fail none
    assert pairs.failed_share([{"attempted": 3, "failed": 1}, {"attempted": 1, "failed": 1}]) \
        == 0.5
    assert pairs.failed_share([{"attempted": 0, "failed": 0}]) == 0.0


BENCH_ENTRY_KEYS = {"commit", "python", "seeds", "runs", "correct", "kernel_ms", "metrics"}


def check_bench_file(path):
    """The schema of a ``BENCH_<label>.json`` that ``bench_pairs.py`` writes."""
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == {"label", "workloads"}
    assert path.name == f"BENCH_{record['label']}.json"
    assert record["workloads"]
    for entry in record["workloads"].values():
        # files written before per-variant medians were recorded lack them
        assert set(entry) - {"variants"} == BENCH_ENTRY_KEYS
        assert entry["commit"] is None or isinstance(entry["commit"], str)
        assert entry["runs"] == len(entry["seeds"]) > 0
        assert all(isinstance(seed, int) for seed in entry["seeds"])
        assert isinstance(entry["correct"], bool)
        assert entry["kernel_ms"] is None or entry["kernel_ms"] > 0
        assert entry["metrics"]
        for stats in entry["metrics"].values():
            assert set(stats) == {"unit", "q1", "median", "q3"}
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        for stats in entry.get("variants", {}).values():
            assert set(stats) == {"q1", "median", "q3"}
            assert 0 <= stats["q1"] <= stats["median"] <= stats["q3"]
    return record


def test_bench_pairs_writes_one_file_per_side(tmp_path):
    pairs = load_script("bench_pairs.py")
    stdout = [perfbench_stdout(slim_bu_s=bu, rss=rss).replace(
        "  slim_td_s ...", f"  host speed: 90 probe samples, median kernel {kernel} ms\n"
        f"  per variant (median s): phatt {phatt:.3f}, slim-0 {bu:.3f}, slim-all 1.250")
        for bu, rss, kernel, phatt in [(0.7, 180, 0.61, 0.2), (0.5, 170, 0.55, 0.3),
                                       (0.6, 190, 0.58, 0.1)]]
    runs = [pairs.parse_run(text) for text in stdout]
    assert [run["kernel_ms"] for run in runs] == [0.61, 0.55, 0.58]
    assert runs[0]["variants"] == {"phatt": 0.2, "slim-0": 0.7, "slim-all": 1.25}
    bare = pairs.parse_run(perfbench_stdout(slim_bu_s=1.0))
    assert (bare["kernel_ms"], bare["variants"]) == (None, {})
    entry = pairs.bench_entry(runs, [5, 6, 7], "abc1234")
    assert entry["metrics"]["slim_bu_s"] == \
        {"unit": "s", "q1": pytest.approx(0.55), "median": 0.6, "q3": pytest.approx(0.65)}
    assert entry["variants"] == {
        "phatt": {"q1": pytest.approx(0.15), "median": 0.2, "q3": pytest.approx(0.25)},
        "slim-0": {"q1": pytest.approx(0.55), "median": 0.6, "q3": pytest.approx(0.65)},
        "slim-all": {"q1": 1.25, "median": 1.25, "q3": 1.25}}
    assert (entry["seeds"], entry["runs"], entry["correct"], entry["kernel_ms"]) == \
        ([5, 6, 7], 3, True, 0.58)
    # a second workload joins the first in the same file
    path = pairs.write_bench(tmp_path / "bench", "abc1234", "b4-paper", entry)
    assert pairs.write_bench(tmp_path / "bench", "abc1234", "a3-paper", entry) == path
    record = check_bench_file(path)
    assert list(record["workloads"]) == ["a3-paper", "b4-paper"]
    # a directory that is no git work tree's top records no commit
    assert pairs.commit_of(tmp_path / "bench") is None
    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@t"]
    (tmp_path / "f.txt").write_text("1")
    for args in (["init", "-q"], ["add", "f.txt"], ["commit", "-qm", "f"]):
        subprocess.run(git + args, check=True, capture_output=True)
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                          text=True).stdout.strip()
    assert pairs.commit_of(tmp_path) == head
    (tmp_path / "f.txt").write_text("2")
    assert pairs.commit_of(tmp_path) == head + "+dirty"


@pytest.mark.parametrize("path", sorted((SCRIPTS.parent / "bench").glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_committed_bench_files_follow_the_schema(path):
    record = check_bench_file(path)
    for entry in record["workloads"].values():
        assert entry["correct"] and entry["commit"]
