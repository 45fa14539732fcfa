import json
import os
import subprocess
import sys
import textwrap

import pytest

import wordmeasure
from wordmeasure import surfaces, trace
from wordmeasure.cli import canonical_dumps, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


WORD_FORMS = {
    "[x,y]": "x1 x2 X1 X2",
    "[x^2,y]": "x1 x1 x2 X1 X1 X2",
    "[x,y]^2": "x1 x2 X1 X2 x1 x2 X1 X2",
    "[x,y]^3": "x1 x2 X1 X2 x1 x2 X1 X2 x1 x2 X1 X2",
    "[x,y][x,z]": "x1 x2 X1 X2 x1 x3 X1 X3",
    "[x,y][x^2y^2,z]": "x1 x2 X1 X2 x1 x1 x2 x2 x3 X2 X2 X1 X1 X3",
    "[x,y][x,z][x,t]": "x1 x2 X1 X2 x1 x3 X1 X3 x1 x4 X1 X4",
}

# (word, rank, budget, bound) on the golden words
SCL_GOLDEN = [
    ("[x,y]", 2, 3, "1/2"),
    ("[x^2,y]", 2, 3, "1/2"),
    ("[x,y]^2", 2, 3, "1"),
    ("[x,y]^3", 2, 3, "3/2"),
    ("[x,y][x,z]", 3, 3, "1"),
    ("[x,y][x^2y^2,z]", 3, 2, "5/4"),
    ("[x,y][x^2y^2,z]", 3, 3, "5/4"),
    ("[x,y][x,z][x,t]", 4, 2, "2"),
]


class TestTrace:
    def test_golden_output(self, capsys):
        code, out, _ = run(capsys, "trace", "-w", "[x,y]^2")
        assert code == 0
        assert "(-4)/(n^3 - n)" in out

    def test_unbalanced(self, capsys):
        code, out, _ = run(capsys, "trace", "-w", "x")
        assert code == 0
        assert "0 (unbalanced)" in out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "trace", "-w", "[x,y]^2", "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["schema_version"] == "1"
        assert canonical_dumps(obj) == out.strip()

    def test_multiple_words(self, capsys):
        code, out, _ = run(capsys, "trace", "-w", "x", "-w", "X", "--json")
        obj = json.loads(out)
        assert obj["function"]["human"] == "1"

    @pytest.mark.parametrize("min_scan", [None, 0])
    def test_jobs_output_identical(self, capsys, monkeypatch, min_scan):
        if min_scan is not None:  # force the worker pool on this small scan
            monkeypatch.setattr(surfaces, "PARALLEL_MIN_SCAN", min_scan)
        _, serial, _ = run(capsys, "trace", "-w", "[x,y]^3", "--json", "--jobs", "1")
        code, parallel, _ = run(capsys, "trace", "-w", "[x,y]^3", "--json", "--jobs", "2")
        assert code == 0
        assert parallel == serial

    def test_one_scan_and_one_assembly(self, capsys, monkeypatch):
        calls = {"class_counts": 0, "_assemble": 0}

        def counted(name):
            original = getattr(trace, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(trace, name, wrapper)

        counted("class_counts")
        counted("_assemble")
        code, out, _ = run(capsys, "trace", "-w", "[x,y]^2")
        assert code == 0
        assert "ch-order term: exponent -3, coefficient -4" in out
        assert "parity check: ok" in out
        assert calls == {"class_counts": 1, "_assemble": 1}

    def test_laurent_depth_flag(self, capsys):
        code, out, _ = run(
            capsys, "trace", "-w", "[x,y]^2", "--laurent", "3", "--json"
        )
        obj = json.loads(out)
        assert obj["laurent"]["truncation_order"] == 3
        assert len(obj["laurent"]["coefficients"]) == 3


class TestChi:
    def test_example_line(self, capsys):
        code, out, _ = run(capsys, "chi", "-w", "[x,y][x,z]")
        assert code == 0
        assert "ch = -3, cl = 2" in out

    def test_histogram_flag(self, capsys):
        code, out, _ = run(capsys, "chi", "-w", "[x,y]^2", "--histogram")
        assert '{"-3": 12, "-5": 4}' in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "chi", "-w", "[x,y]^2", "--json")
        obj = json.loads(out)
        assert obj["ch"] == -3 and obj["cl"] == 2
        assert canonical_dumps(obj) == out.strip()


class TestClasses:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "classes", "-w", "[x^2,y]")
        assert code == 0
        assert "solution classes: 2" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "classes", "-w", "[x,y]^2", "--json")
        obj = json.loads(out)
        assert len(obj["classes"]) == 1
        cls = obj["classes"][0]
        assert cls["f_vector"] == [12, 16, 0]
        assert cls["pi1"]["generators"] == 5
        assert canonical_dumps(obj) == out.strip()

    def test_unbalanced_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classes", "-w", "x")
        assert code == 1
        assert "balanced" in err


class TestOtherCommands:
    def test_wg_table(self, capsys):
        code, out, _ = run(capsys, "wg", "--L", "2")
        assert code == 0
        assert "(1)/(n^2 - 1)" in out
        assert "(-1)/(n^3 - n)" in out

    def test_wg_json(self, capsys):
        code, out, _ = run(capsys, "wg", "--L", "3", "--json")
        obj = json.loads(out)
        assert len(obj["entries"]) == 3
        assert canonical_dumps(obj) == out.strip()

    def test_wg_empty_partition(self, capsys):
        # L = 0: one empty cycle type, an empty content product, value 1
        code, out, _ = run(capsys, "wg", "--L", "0")
        assert code == 0
        assert out == "Weingarten table for L = 0\n  ()               1\n"
        code, out, _ = run(capsys, "wg", "--L", "0", "--json")
        assert code == 0
        assert out == (
            '{"L": 0, "entries": [{"cycle_type": [], "value": {"den": [[1, 1]], '
            '"human": "1", "num": [[1, 1]]}}], "schema_version": "1"}\n'
        )

    def test_scl(self, capsys):
        code, out, _ = run(capsys, "scl", "-w", "[x,y]", "--budget", "2")
        assert code == 0
        assert "1/2" in out

    @pytest.mark.parametrize("text, rank, budget, bound", SCL_GOLDEN, ids=[
        f"{text}-{budget}" for text, _, budget, _ in SCL_GOLDEN
    ])
    def test_scl_golden_bytes(self, capsys, text, rank, budget, bound):
        # the bytes a full diagonal scan of every power tuple printed
        word = WORD_FORMS[text]
        argv = ["scl", "-w", text, "--rank", str(rank), "--budget", str(budget)]
        assert run(capsys, *argv) == (0, f"scl({word}) <= {bound}  (budget {budget})\n", "")
        num, _, den = bound.partition("/")
        assert run(capsys, *argv, "--json") == (
            0,
            f'{{"bound": [{num}, {den or 1}], "budget": {budget}, "rank": {rank}, '
            f'"schema_version": "1", "word": "{word}"}}\n',
            "",
        )

    def test_incompressible(self, capsys):
        code, out, _ = run(
            capsys, "incompressible", "-w", "[x^2,y]",
            "--sigma", "2,1;1", "--tau", "2,1;1",
        )
        assert code == 0
        assert "incompressible: yes" in out

    def test_verify_mc(self, capsys):
        code, out, _ = run(
            capsys, "verify-mc", "-w", "[x,y]", "--n", "3",
            "--samples", "20000", "--seed", "4", "--json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["within_4_sigma"] is True


class TestErrorsAndConfig:
    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(capsys, "trace", "-w", "[x,y")
        assert code == 1
        assert "error" in err

    def test_rank_error(self, capsys):
        code, _, err = run(capsys, "trace", "-w", "z", "--rank", "2")
        assert code == 1

    def test_no_words(self, capsys):
        code, _, err = run(capsys, "trace")
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_pair_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "chi", "-w", "[x,y]^2", "--pair-cap", "4"
        )
        assert code == 2
        assert "limit" in err

    def test_scl_cap_names_the_matchings_of_w(self, capsys):
        # w itself has 2! 2! = 4 matchings; every later total has more
        code, out, err = run(
            capsys, "scl", "-w", "[x,y]^2", "--budget", "2", "--pair-cap", "1"
        )
        assert (code, out) == (2, "")
        assert err == "limit exceeded: enumeration of 4 matchings exceeds the cap 1\n"

    def test_incompressible_cap_names_the_visited_pairs(self, capsys):
        code, out, err = run(
            capsys, "incompressible", "-w", "[x,y]^3",
            "--sigma", "1,2,3;1,2,3", "--tau", "2,1,3;1,2,3", "--pair-cap", "2",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "limit exceeded: the incompressibility search visited 3 pairs, "
            "past the cap 2\n"
        )

    def test_help_exits_zero(self, capsys):
        code, _, _ = run(capsys, "--help")
        assert code == 0

    def test_words_file(self, capsys, tmp_path):
        path = tmp_path / "words.txt"
        path.write_text("# regression words\nrank=3\n[x,y][x,z]\n")
        code, out, _ = run(capsys, "chi", "--words-file", str(path))
        assert code == 0
        assert "ch = -3" in out

    def test_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WORDMEASURE_SEED", "21")
        code, out, _ = run(
            capsys, "verify-mc", "-w", "x", "-w", "X", "--rank", "1",
            "--n", "2", "--samples", "1000", "--json",
        )
        assert json.loads(out)["seed"] == 21

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "classes", "-w", "[x,y][x,z]", "--json")
        _, second, _ = run(capsys, "classes", "-w", "[x,y][x,z]", "--json")
        assert first == second


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-mc", "-w", "[x,y]", "--n", "3", "--samples", "0"],
        ["verify-mc", "-w", "[x,y]", "--n", "3", "--samples", "-5"],
        ["wg", "--L", "-1"],
        ["trace", "-w", "[x,y]", "--jobs", "0"],
        ["chi", "-w", "[x,y]", "--pair-cap", "0"],
        ["classes", "-w", "[x,y]", "--pair-cap", "-3"],
    ],
    ids=[
        "samples-zero", "samples-negative", "wg-negative-L", "jobs-zero",
        "pair-cap-zero", "pair-cap-negative",
    ],
)
def test_invalid_values_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--n", "0"], "error: dimension must be positive\n"),
        (["--n", "3", "--samples", "0"], "error: sample count must be positive, got 0\n"),
    ],
    ids=["n-zero", "samples-zero"],
)
def test_verify_mc_rejects_before_the_scan(capsys, monkeypatch, flags, message):
    def no_scan(*_, **__):
        raise AssertionError("verify-mc scanned pairs")

    monkeypatch.setattr(surfaces, "class_counts", no_scan)
    monkeypatch.setattr(trace, "class_counts", no_scan)
    code, out, err = run(capsys, "verify-mc", "-w", "[x,y]^4", *flags)
    assert (code, out, err) == (1, "", message)


def test_non_integer_rank_header_names_the_file(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("rank=abc\n[x,y]\n")
    code, out, err = run(capsys, "trace", "--words-file", str(path))
    assert (code, out) == (1, "")
    assert err == f"error: {path}: the rank= header must be an integer, got 'abc'\n"


@pytest.mark.parametrize("flag", ["--sigma", "--tau"])
def test_non_integer_matching_names_the_flag(capsys, flag):
    values = {"--sigma": "", "--tau": ""} | {flag: "2,abc;1"}
    code, out, err = run(
        capsys, "incompressible", "-w", "[x^2,y]",
        "--sigma", values["--sigma"], "--tau", values["--tau"],
    )
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must list integers, got '2,abc'\n"


@pytest.mark.parametrize("flag", ["--sigma", "--tau"])
def test_matching_segment_past_the_rank_names_the_flag(capsys, flag):
    values = {"--sigma": "1;1", "--tau": "1;1"} | {flag: "1;1;7,8"}
    code, out, err = run(
        capsys, "incompressible", "-w", "[x,y]",
        "--sigma", values["--sigma"], "--tau", values["--tau"],
    )
    assert (code, out) == (1, "")
    assert err == f"error: {flag} has a segment past the rank 2, got '7,8'\n"
    # empty trailing segments are still the identity
    values[flag] = "1;1; ;"
    code, out, _ = run(
        capsys, "incompressible", "-w", "[x,y]",
        "--sigma", values["--sigma"], "--tau", values["--tau"],
    )
    assert (code, out) == (0, "pair chi = -1\nincompressible: yes\n")


def test_non_integer_jobs_env_is_named(capsys, monkeypatch):
    monkeypatch.setenv("WORDMEASURE_PARALLELISM", "abc")
    code, out, err = run(capsys, "chi", "-w", "[x,y]")
    assert code == 1
    assert err.startswith("error:")
    assert "WORDMEASURE_PARALLELISM" in err and "'abc'" in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["scl", "-w", "[x,y]", "--budget", "2"],
        ["incompressible", "-w", "[x^2,y]", "--sigma", "2,1;1", "--tau", "2,1;1"],
        ["classes", "-w", "[x,y]"],
    ],
    ids=["scl", "incompressible", "classes"],
)
def test_jobs_rejected_where_nothing_is_split(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv, "--jobs", "2")
    assert code == 1
    assert "unrecognized arguments: --jobs 2" in err
    assert out == ""
    # the environment setting is not read either
    monkeypatch.setenv("WORDMEASURE_PARALLELISM", "abc")
    code, _, _ = run(capsys, *argv)
    assert code == 0


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this wordmeasure."""
    src = os.path.dirname(os.path.dirname(wordmeasure.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "-w", "[x,y]^2"],
        ["chi", "-w", "[x,y]^2"],
        ["wg", "--L", "4"],
        ["classes", "-w", "[x,y]^2"],
        ["incompressible", "-w", "[x^2,y]", "--sigma", "2,1;1", "--tau", "2,1;1"],
        ["scl", "-w", "[x,y]", "--budget", "2"],
    ],
    ids=["trace", "chi", "wg", "classes", "incompressible", "scl"],
)
def test_exact_subcommands_do_not_load_numpy(argv):
    proc = run_fresh(f"""
        import sys
        import wordmeasure.cli
        assert wordmeasure.cli.main({argv!r}) == 0
        assert "numpy" not in sys.modules, "numpy loaded"
    """)
    assert proc.returncode == 0, proc.stderr


def test_verify_mc_loads_numpy_and_runs():
    proc = run_fresh("""
        import sys
        import wordmeasure.cli
        argv = ["verify-mc", "-w", "[x,y]", "--n", "3", "--samples", "2000", "--json"]
        assert wordmeasure.cli.main(argv) == 0
        assert "numpy" in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["within_4_sigma"] is True


def test_package_serves_monte_carlo_names_on_first_use():
    proc = run_fresh("""
        import sys
        import wordmeasure
        assert "numpy" not in sys.modules
        from wordmeasure import McEstimate, estimate, sample_haar
        from wordmeasure import montecarlo
        assert (McEstimate, estimate, sample_haar) == (
            montecarlo.McEstimate, montecarlo.estimate, montecarlo.sample_haar
        )
    """)
    assert proc.returncode == 0, proc.stderr


def test_package_rejects_unknown_names():
    proc = run_fresh("""
        import sys
        import wordmeasure
        try:
            wordmeasure.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise SystemExit("no AttributeError")
        assert "numpy" not in sys.modules
    """)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "argv",
    [["classes", "-w", "[x,y]^2", "--json"], ["trace", "-w", "[x,y]", "--json"]],
    ids=["classes", "trace"],
)
def test_benchmark_replay_wraps_and_runs_this_package(capsys, argv):
    # replay.py wraps each function of its TRACED table before it runs
    # the CLI, so dropping or renaming one of them fails here
    replay = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "replay.py")
    src = os.path.dirname(os.path.dirname(wordmeasure.__file__))
    proc = subprocess.run(
        [sys.executable, replay, *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    code, out, err = run(capsys, *argv)
    assert (record["exit"], record["stdout"], record["stderr"]) == (0, out, err)
    assert (code, err) == (0, "")
