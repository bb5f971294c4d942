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
