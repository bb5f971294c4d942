import tracemalloc

import pytest

from planrec.cli import main
from planrec.domains import generate_domain, simulate_agent
from planrec.grammar import ObservationError, parse_library
from planrec.metrics import predicted_bound
from planrec.phatt import PhattEngine, RecognitionFailure
from planrec.runner import (
    CSV_COLUMNS,
    emit_hypotheses,
    parse_k,
    read_observations,
    run_benchmark,
    run_recognition,
)
from planrec.slim import SlimEngine, TopDownConfig
from planrec.trees import EMPTY_HYPOTHESIS, rank_key

from conftest import RUNNING_EXAMPLE, drive_engine
from test_acceptance import BENCH_B


@pytest.fixture
def workspace(tmp_path):
    lib_path = tmp_path / "lib.txt"
    lib_path.write_text(RUNNING_EXAMPLE)
    obs_dir = tmp_path / "obs"
    obs_dir.mkdir()
    (obs_dir / "obs_000.txt").write_text("a c b\n")
    (obs_dir / "obs_001.txt").write_text("a b c\n")
    (obs_dir / "obs_002.txt").write_text("c a b\n")
    return tmp_path, lib_path, obs_dir


# ---------------------------------------------------------------------------
# predicted_bound
# ---------------------------------------------------------------------------


def test_predicted_bound_examples():
    assert predicted_bound("phatt", 1, 1, 5) == 1.0
    assert predicted_bound("phatt", 2, 3, 2) == 36.0
    assert predicted_bound("slim", 2, 3, 2) == pytest.approx(36.0)
    # diverges as depth grows with width fixed
    assert predicted_bound("slim", 2, 3, 10) < predicted_bound("phatt", 2, 3, 10)


def test_predicted_bound_validation():
    with pytest.raises(ValueError):
        predicted_bound("phatt", 0, 1, 1)
    with pytest.raises(ValueError):
        predicted_bound("nope", 1, 1, 1)


# ---------------------------------------------------------------------------
# run_recognition
# ---------------------------------------------------------------------------


def test_run_recognition_slim_k0(workspace):
    tmp, lib_path, obs_dir = workspace
    record = run_recognition(lib_path, obs_dir / "obs_000.txt", "slim", k=0)
    assert record.algorithm == "slim-0"
    assert record.final_hypotheses == 4
    assert record.goal_rooted == 0
    assert [s.step for s in record.steps] == [1, 2, 3]


def test_run_recognition_phatt(workspace):
    tmp, lib_path, obs_dir = workspace
    record = run_recognition(lib_path, obs_dir / "obs_000.txt", "phatt")
    assert record.final_hypotheses == 2
    assert record.goal_rooted == 2


def test_run_recognition_slim_all_matches_phatt(workspace):
    tmp, lib_path, obs_dir = workspace
    slim = run_recognition(lib_path, obs_dir / "obs_000.txt", "slim", k="all")
    phatt = run_recognition(lib_path, obs_dir / "obs_000.txt", "phatt")
    assert slim.algorithm == "slim-all"
    assert slim.goal_rooted == phatt.goal_rooted


def test_run_recognition_failure(workspace, tmp_path):
    tmp, lib_path, obs_dir = workspace
    bad = tmp_path / "bad.txt"
    bad.write_text("b a c\n")
    with pytest.raises(RecognitionFailure):
        run_recognition(lib_path, bad, "phatt")


def test_run_recognition_failure_names_the_observation(workspace, tmp_path):
    tmp, lib_path, obs_dir = workspace
    bad = tmp_path / "bad.txt"
    bad.write_text("b a c\n")
    with pytest.raises(RecognitionFailure) as err:
        run_recognition(lib_path, bad, "phatt")
    assert err.value.obs == "b" and err.value.step == 1
    assert str(err.value) == "observation 'b' at step 1 cannot be explained"


def test_run_recognition_failure_csv_keeps_earlier_steps(workspace, tmp_path):
    tmp, lib_path, obs_dir = workspace
    bad = tmp_path / "late.txt"
    bad.write_text("c b\n")  # b would need A complete first
    csv_path = tmp / "fail.csv"
    with pytest.raises(RecognitionFailure) as err:
        run_recognition(lib_path, bad, "phatt", csv_path=csv_path)
    assert err.value.step == 2
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2  # header + the one step before the failure
    assert lines[1].startswith("late,phatt,1,1,")
    assert lines[1].endswith(",fail@2")


def test_emit_hypotheses_format(workspace, lib):
    tmp, lib_path, obs_dir = workspace
    locals_, _ = drive_engine(SlimEngine(lib, TopDownConfig.for_library(lib, k=0)), ["a", "c", "b"])
    out = tmp / "dump.txt"
    emit_hypotheses(locals_, out)
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    for line in lines:
        weight, plans = line.split("\t")
        assert float(weight) > 0
        assert plans
    emit_hypotheses(locals_, tmp / "dump2.txt")
    assert out.read_bytes() == (tmp / "dump2.txt").read_bytes()
    emit_hypotheses([], tmp / "empty.txt")
    assert (tmp / "empty.txt").read_text() == ""


def whole_text(hyps):
    """The hypothesis file's bytes, built as one string."""
    return "".join(f"{h.weight!r}\t{h.canon}\n" for h in sorted(hyps, key=rank_key)).encode()


def bench_b_2071_phatt():
    """PHATT's 9,660 final hypotheses on benchmark B's instance 2071."""
    lib = generate_domain(BENCH_B)
    return drive_engine(PhattEngine(lib), simulate_agent(lib, 2071))[0]


AMBIGUOUS = ("terminals: a b\nnonterminals: X\ngoals: X\n"
             "rule: X -> a b | | 0.5\nrule: X -> a b | (1,2) | 0.5")


@pytest.mark.parametrize("make", [
    bench_b_2071_phatt,
    lambda: drive_engine(SlimEngine(parse_library(RUNNING_EXAMPLE)), ["a", "c", "b"])[0],
    lambda: drive_engine(PhattEngine(parse_library(AMBIGUOUS)), ["a", "b"])[0],
    lambda: [],
], ids=["phatt", "slim-locals", "ambiguous-rhs", "empty"])
def test_emit_hypotheses_writes_the_whole_text(tmp_path, make):
    hyps = make()
    emit_hypotheses(hyps, tmp_path / "out.txt")
    assert (tmp_path / "out.txt").read_bytes() == whole_text(hyps)


def test_ambiguous_rhs_hypotheses_mark_their_rules():
    hyps = drive_engine(PhattEngine(parse_library(AMBIGUOUS)), ["a", "b"])[0]
    assert hyps and all("X#" in h.canon for h in hyps)


def test_emit_hypotheses_streams_its_lines(tmp_path):
    # a first emit builds every canon, which the hypotheses keep; beyond
    # them the writer holds a line at a time, never the whole file
    hyps = bench_b_2071_phatt()
    assert len(hyps) == 9660 and all(h._canon is None for h in hyps)
    path = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        emit_hypotheses(hyps, path)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2 * path.stat().st_size


def test_emit_hypotheses_keeps_the_file_when_ranking_fails(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"1.0\tX(a@1)\n")
    with pytest.raises(AttributeError):
        emit_hypotheses([EMPTY_HYPOTHESIS, object()], path)
    assert path.read_bytes() == b"1.0\tX(a@1)\n"


def test_metrics_csv_schema(workspace):
    tmp, lib_path, obs_dir = workspace
    csv_path = tmp / "m.csv"
    run_recognition(lib_path, obs_dir / "obs_000.txt", "phatt", csv_path=csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4  # header + 3 steps
    assert lines[1].startswith("obs_000,phatt,1,")


# ---------------------------------------------------------------------------
# run_benchmark
# ---------------------------------------------------------------------------


def test_benchmark_row_count_and_summary(workspace):
    tmp, lib_path, obs_dir = workspace
    csv_path = tmp / "bench.csv"
    summary = run_benchmark(lib_path, obs_dir, ["phatt", "slim"], [0, None],
                            csv_path=csv_path)
    lines = csv_path.read_text().splitlines()
    # 3 instances x (phatt + slim-0 + slim-all) x 3 steps + header
    assert len(lines) == 1 + 3 * 3 * 3
    algos = summary["algorithms"]
    assert set(algos) == {"phatt", "slim-0", "slim-all"}
    assert set(algos["phatt"]["steps"]) == {1, 2, 3}
    # slim variants share the bottom-up pass: identical step rows
    s0 = [line for line in lines if ",slim-0," in line]
    sall = [line for line in lines if ",slim-all," in line]
    strip = lambda row: ",".join(
        col for i, col in enumerate(row.split(",")) if CSV_COLUMNS[i] != "elapsed_us"
    )
    assert [strip(r) for r in s0] == [
        strip(r.replace("slim-all", "slim-0")) for r in sall
    ]


def test_benchmark_csv_determinism_modulo_elapsed(workspace):
    tmp, lib_path, obs_dir = workspace
    a, b = tmp / "a.csv", tmp / "b.csv"
    run_benchmark(lib_path, obs_dir, ["phatt", "slim"], [0], csv_path=a)
    run_benchmark(lib_path, obs_dir, ["phatt", "slim"], [0], csv_path=b)

    def normalize(path):
        lines = path.read_text().splitlines()
        keep = [i for i, c in enumerate(CSV_COLUMNS) if c != "elapsed_us"]
        return ["," .join(line.split(",")[i] for i in keep) for line in lines]

    assert normalize(a) == normalize(b)


def test_benchmark_records_failures_without_aborting(workspace):
    tmp, lib_path, obs_dir = workspace
    (obs_dir / "obs_003.txt").write_text("b\n")
    csv_path = tmp / "bench.csv"
    summary = run_benchmark(lib_path, obs_dir, ["phatt"], [0], csv_path=csv_path)
    statuses = {r.status for r in summary["records"]}
    assert "fail@1" in statuses and "ok" in statuses
    assert "fail@1" in csv_path.read_text()


@pytest.mark.parametrize("bad_obs, status", [("a z\n", "error@2"), ("a X\n", "error@2")],
                         ids=["unknown", "nonterminal"])
def test_benchmark_records_bad_observations_without_aborting(tmp_path, bad_obs, status):
    lib_path = tmp_path / "lib.txt"
    lib_path.write_text(RUNNING_EXAMPLE)
    obs_dir = tmp_path / "obs"
    obs_dir.mkdir()
    (obs_dir / "bad.txt").write_text(bad_obs)
    (obs_dir / "good.txt").write_text("a c b\n")
    csv_path = tmp_path / "bench.csv"
    summary = run_benchmark(lib_path, obs_dir, ["phatt", "slim"], [0, None], csv_path=csv_path)
    statuses = {(r.instance, r.algorithm): r.status for r in summary["records"]}
    assert statuses == {
        ("bad", "phatt"): status, ("bad", "slim-0"): status, ("bad", "slim-all"): status,
        ("good", "phatt"): "ok", ("good", "slim-0"): "ok", ("good", "slim-all"): "ok",
    }
    rows = csv_path.read_text().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"bad", "good"}
    # the step before the bad token keeps its row
    assert all(row.endswith(status) for row in rows if row.startswith("bad,"))
    assert sum(row.startswith("bad,phatt,1,") for row in rows) == 1
    # a single recognition still raises, so `planrec recognize` exits 5
    with pytest.raises(ObservationError):
        run_recognition(lib_path, obs_dir / "bad.txt", "slim")
    assert main(["recognize", "--library", str(lib_path), "--observations",
                 str(obs_dir / "bad.txt"), "--algorithm", "phatt"]) == 5


def test_parse_k():
    assert parse_k("all") is None
    assert parse_k(None) is None
    assert parse_k("7") == 7
    assert parse_k(0) == 0
    with pytest.raises(ValueError):
        parse_k("-1")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_recognize_ok(workspace, capsys):
    tmp, lib_path, obs_dir = workspace
    code = main([
        "recognize", "--library", str(lib_path),
        "--observations", str(obs_dir / "obs_000.txt"),
        "--algorithm", "slim", "--k", "0",
    ])
    assert code == 0
    assert "4 hypotheses" in capsys.readouterr().out


@pytest.mark.parametrize("algorithm, k", [("phatt", "0"), ("slim", "0"), ("slim", "100"),
                                          ("slim", "all")])
def test_cli_recognize_empty_observations(workspace, tmp_path, capsys, algorithm, k):
    tmp, lib_path, obs_dir = workspace
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code = main(["recognize", "--library", str(lib_path), "--observations", str(empty),
                 "--algorithm", algorithm, "--k", k])
    assert code == 0
    # the empty hypothesis explains nothing, so no goal is recognized
    assert "1 hypotheses (0 goal-rooted) after 0 observations" in capsys.readouterr().out


def test_cli_recognize_failure_exit_code(workspace, tmp_path, capsys):
    tmp, lib_path, obs_dir = workspace
    bad = tmp_path / "bad.txt"
    bad.write_text("b\n")
    code = main([
        "recognize", "--library", str(lib_path), "--observations", str(bad),
        "--algorithm", "phatt",
    ])
    assert code == 6
    err = capsys.readouterr().err
    assert "observation 1" in err and "'b'" in err


@pytest.mark.parametrize("algorithm", ["phatt", "slim"])
@pytest.mark.parametrize("token, problem", [("X", "is not a terminal"),
                                            ("z", "is not in the library")],
                         ids=["nonterminal", "unknown"])
def test_cli_recognize_bad_observation_exit_code(workspace, tmp_path, capsys,
                                                 algorithm, token, problem):
    tmp, lib_path, obs_dir = workspace
    bad = tmp_path / "bad.txt"
    bad.write_text(f"a c {token} b\n")
    code = main(["recognize", "--library", str(lib_path), "--observations", str(bad),
                 "--algorithm", algorithm])
    assert code == 5
    err = capsys.readouterr().err
    assert f"{bad}: observation '{token}' at step 3 {problem}" in err
    assert "library error" not in err


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad_lib = tmp_path / "bad.txt"
    bad_lib.write_text("terminals: a\nnonterminals: X\ngoals: X\nrule: X -> q | | 1.0\n")
    obs = tmp_path / "obs.txt"
    obs.write_text("a\n")
    code = main([
        "recognize", "--library", str(bad_lib), "--observations", str(obs),
        "--algorithm", "phatt",
    ])
    assert code == 3
    assert "library error" in capsys.readouterr().err


def test_cli_duplicate_goal_is_a_library_error(workspace, capsys):
    _, lib_path, obs_dir = workspace
    lib_path.write_text(RUNNING_EXAMPLE.replace("goals: X", "goals: X X"))
    code = main(["recognize", "--library", str(lib_path),
                 "--observations", str(obs_dir / "obs_000.txt"), "--algorithm", "phatt"])
    assert code == 3
    err = capsys.readouterr().err
    assert "library error: duplicate goal 'X'" in err
    assert "Traceback" not in err


def test_cli_io_error_exit_code(tmp_path, capsys):
    code = main([
        "recognize", "--library", str(tmp_path / "missing.txt"),
        "--observations", str(tmp_path / "missing2.txt"), "--algorithm", "phatt",
    ])
    assert code == 4


@pytest.mark.parametrize("command, bad", [
    ("recognize", "library"), ("recognize", "observations"), ("simulate", "library"),
])
def test_cli_text_that_is_not_utf8_is_an_io_error(workspace, capsys, command, bad):
    tmp, lib_path, obs_dir = workspace
    obs_path = obs_dir / "obs_001.txt"
    bad_path = lib_path if bad == "library" else obs_path
    bad_path.write_bytes(b"\xff\xfea c b\n")
    written = [tmp / "out.txt", tmp / "m.csv"]
    argv = {
        "recognize": ["recognize", "--library", str(lib_path), "--observations", str(obs_path),
                      "--algorithm", "slim", "--emit-hypotheses", str(written[0]),
                      "--metrics-csv", str(written[1])],
        "simulate": ["simulate", "--library", str(lib_path), "--out", str(written[0])],
    }[command]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"i/o error: {bad_path}: not UTF-8 text" in err
    assert "Traceback" not in err
    assert not any(path.exists() for path in written)


def test_bench_records_an_unreadable_instance_and_goes_on(workspace, capsys):
    # an instance that is not UTF-8 is error@0 for every variant; the other
    # one still runs and the bench exits 0
    tmp, lib_path, obs_dir = workspace
    (obs_dir / "obs_001.txt").write_bytes(b"\xff\xfea c b\n")
    (obs_dir / "obs_002.txt").unlink()
    csv_path = tmp / "m.csv"
    assert main(["bench", "--library", str(lib_path), "--obs-dir", str(obs_dir),
                 "--k-list", "0,all", "--metrics-csv", str(csv_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    variants = ["phatt", "slim-0", "slim-all"]
    assert {(row[0], row[1]): row[-1] for row in rows} == {
        **{("obs_000", v): "ok" for v in variants},
        **{("obs_001", v): "error@0" for v in variants},
    }
    assert [row[1:3] for row in rows if row[0] == "obs_001"] == [[v, "0"] for v in variants]


def test_cli_generate_and_simulate_and_bench(tmp_path, capsys):
    lib_path = tmp_path / "domain.txt"
    code = main([
        "generate", "--goals", "2", "--and-branch", "2", "--or-branch", "2",
        "--depth", "2", "--terminals", "6", "--ordered-fraction", "1.0",
        "--seed", "3", "--out", str(lib_path),
    ])
    assert code == 0
    assert lib_path.exists()
    obs_dir = tmp_path / "runs"
    code = main([
        "simulate", "--library", str(lib_path), "--seed", "10",
        "--count", "4", "--out", str(obs_dir),
    ])
    assert code == 0
    files = sorted(obs_dir.glob("*.txt"))
    assert len(files) == 4
    assert all(read_observations(f) for f in files)
    csv_path = tmp_path / "m.csv"
    code = main([
        "bench", "--library", str(lib_path), "--obs-dir", str(obs_dir),
        "--algorithms", "phatt,slim", "--k-list", "0,all",
        "--metrics-csv", str(csv_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "algorithm phatt" in out and "algorithm slim-all" in out
    assert csv_path.exists()


@pytest.mark.parametrize("flags", [
    ["--k", "abc"], ["--k", "-1"], ["--max-depth", "-1"], ["--max-depth", "0"],
])
def test_cli_recognize_rejects_bad_values_without_traceback(workspace, capsys, flags):
    tmp, lib_path, obs_dir = workspace
    with pytest.raises(SystemExit) as exit_info:
        main(["recognize", "--library", str(lib_path),
              "--observations", str(obs_dir / "obs_000.txt"),
              "--algorithm", "slim", *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[0]}: invalid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags", [
    ["--k-list", "0,abc"], ["--k-list", "100,-1"], ["--max-depth", "-1"],
    ["--algorithms", "foo"], ["--algorithms", "phatt,foo"],
    ["--k-list", ""], ["--k-list", ","], ["--k-list", "0,0"], ["--k-list", "all,100,all"],
    ["--algorithms", ""], ["--algorithms", ","], ["--algorithms", "slim,phatt,slim"],
])
def test_cli_bench_rejects_bad_values_without_traceback(workspace, capsys, flags):
    tmp, lib_path, obs_dir = workspace
    with pytest.raises(SystemExit) as exit_info:
        main(["bench", "--library", str(lib_path), "--obs-dir", str(obs_dir), *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flags[0]}: invalid" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, message", [
    (["--and-branch", "1"], "branch factors must be >= 2"),
    (["--or-branch", "0"], "branch factors must be >= 2"),
    (["--ordered-fraction", "2"], "ordered_fraction must be in [0, 1]"),
    (["--goals", "0"], "num_goals must be >= 1"),
    (["--depth", "0"], "depth must be >= 1"),
    (["--terminals", "0"], "num_terminals must be >= 1"),
])
def test_cli_generate_rejects_bad_values_without_traceback(tmp_path, capsys, flags, message):
    out = tmp_path / "lib.txt"
    with pytest.raises(SystemExit) as exit_info:
        main(["generate", "--out", str(out), *flags])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: generate: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("count", ["-2", "0", "x"])
def test_cli_simulate_rejects_bad_count_without_traceback(workspace, capsys, count):
    tmp, lib_path, obs_dir = workspace
    out = tmp / "sims"
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--library", str(lib_path), "--count", count, "--out", str(out)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --count: invalid" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("library, message", [
    ("terminals: a\nnonterminals: G\ngoals: G\n"
     "rule: G -> G G | | 0.9\nrule: G -> a | | 0.1\n", "exceeded expansion budget"),
    ("terminals: a\nnonterminals: X\ngoals: X\n", "nonterminal 'X' has no rules"),
], ids=["recursive", "rule-less-goal"])
def test_cli_simulate_unsampleable_library_is_a_library_error(tmp_path, capsys,
                                                               library, message):
    lib_path = tmp_path / "lib.txt"
    lib_path.write_text(library)
    out = tmp_path / "sims"
    code = main(["simulate", "--library", str(lib_path), "--count", "2", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "library error: " in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_generate_determinism(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert main(["generate", "--seed", "5", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
