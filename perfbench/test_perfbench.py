"""Self-tests of the benchmark: python3 -m pytest perfbench"""

import json
import sys

import pytest

import checks
import run
import workloads

sys.path.insert(0, str(run.SRC))

from wordmeasure.surfaces import occurrences  # noqa: E402
from wordmeasure.words import parse, word_tuple  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECTED = checks.load_expected()


def _output(argv: list[str]) -> str:
    return EXPECTED["outputs"][checks.key(argv)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_requests(workload):
    assert workloads.requests(workload, 7) == workloads.requests(workload, 7)
    assert workloads.requests(workload, 7) != workloads.requests(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stated_sizes_are_what_the_program_scans(workload, seed):
    for req in workloads.requests(workload, seed):
        argv = req["argv"]
        texts = [argv[i + 1] for i, a in enumerate(argv) if a == "-w"]
        if not texts:
            continue
        t = word_tuple([parse(text, 4) for text in texts])
        reduced = t.cyclically_reduced()
        assert reduced.total_length == t.total_length, argv
        occ = occurrences(reduced)
        assert (occ.pair_count(), occ.match_count()) == (req["pairs"], req["matchings"]), argv


def test_every_anchor_has_a_recorded_output():
    for workload in workloads.WORKLOADS:
        for req in workloads.requests(workload, 1):
            if req["kind"] == "anchor":
                assert checks.key(req["argv"]) in EXPECTED["outputs"]


def test_metric_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == run.PER_LAYER_UNITS
    assert BENCHMARK["paths"] == [run.HERE.name]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def _request(wall, spans=None, id=0):
    r = {"id": id, "wall": wall, "cpu": wall, "rss_kb": 2048, "failure": None}
    if spans is not None:
        r["spans"] = spans
    return r


def _span(name, parent, start, end, **counts):
    s = {"name": name, "parent": parent, "start": start, "end": end}
    if counts:
        s["counts"] = counts
    return s


def test_printed_metrics_match_benchmark_json():
    runs = [_request(1.0, id=0), _request(2.0, id=1), _request(1.2, id=0), _request(1.4, id=0)]
    runs[1]["failure"] = "exit code 1"
    printed = run.end_to_end([0.2, 0.3, 0.25], runs)
    assert {k: m["unit"] for k, m in printed.items()} == run.END_TO_END_UNITS
    assert printed["setup_s"]["value"] == 0.3
    assert printed["wall_s"]["value"] == pytest.approx(1.4 + 2.0)
    assert printed["request_p50_s"]["value"] == pytest.approx((1.4 + 2.0) / 2)
    assert printed["peak_rss_mb"]["value"] == 2.0
    assert printed["ok_frac"]["value"] == 0.75

    spans = [
        _span("cli.import", None, 0.0, 0.2),
        _span("cli.main", None, 0.2, 1.0),
        _span("trace.trace_exact", 1, 0.3, 0.7),
        _span("surfaces.class_counts", 2, 0.3, 0.5, pairs=100, classes=3),
        _span("weingarten.wg", 2, 0.5, 0.6, types=1),
        _span("trace.parity_report", 1, 0.7, 0.9),
        _span("trace.trace_exact", 5, 0.7, 0.9),
    ]
    printed = run.per_layer([_request(1.2, spans)], untraced_wall=1.0)
    assert {k: m["unit"] for k, m in printed.items()} == run.PER_LAYER_UNITS
    values = {k: m["value"] for k, m in printed.items()}
    assert values["trace.trace_exact_s"] == pytest.approx(0.4)  # not the nested call
    assert values["trace.parity_report_s"] == pytest.approx(0.2)
    assert values["trace.self_s"] == pytest.approx(0.2)
    assert values["surfaces.pairs"] == 100
    assert values["surfaces.ns_per_pair"] == pytest.approx(0.2 / 100 * 1e9)
    assert values["weingarten.distinct_types"] == 1
    assert values["self_time.trace_s"] == pytest.approx(0.1 + 0.0 + 0.2)
    assert values["self_time.cli_s"] == pytest.approx(0.8 - 0.4 - 0.2)
    assert values["cli.overhead_s"] == pytest.approx(1.2 - 0.2 - 0.8)
    assert values["tracing_overhead_s"] == pytest.approx(0.2)


def _corrupt_json(text: str, edit) -> str:
    obj = json.loads(text)
    edit(obj)
    return json.dumps(obj)


def test_check_accepts_good_and_flags_corrupted_anchor_output():
    req = {"kind": "anchor", "argv": ["trace", "-w", "[x,y]^4", "--json"]}
    good = _output(req["argv"])
    assert checks.check(req, 0, good, "", EXPECTED, {}) is None
    assert checks.check(req, 0, good.replace("-256", "-255", 1), "", EXPECTED, {}) is not None
    assert checks.check(req, 0, good + "\n", "", EXPECTED, {}) is not None
    assert checks.check(req, 1, good, "", EXPECTED, {}) is not None
    tb = "Traceback (most recent call last):\n"
    assert checks.check(req, 0, good, tb, EXPECTED, {}) is not None


def test_check_flags_corrupted_seeded_outputs():
    word = "[x^2,y^2]^2"
    trace = _output(["trace", "-w", word, "--json"])
    classes = _output(["classes", "-w", word, "--json"])
    # no workload runs this chi as an anchor, so it has no recorded output
    chi = run.run_child(run.cli_cmd(["chi", "-w", word, "--histogram", "--json"]), run.child_env())
    assert chi["code"] == 0, chi["stderr"]
    chi = chi["stdout"]
    routes = {"trace": json.loads(trace), "chi": json.loads(chi), "classes": json.loads(classes)}

    def verdicts(kind, argv, stdout, edits, **extra):
        req = {"kind": kind, "argv": argv, **extra}
        assert checks.check(req, 0, stdout, "", EXPECTED, routes) is None, kind
        for edit in edits:
            bad = _corrupt_json(stdout, edit)
            assert checks.check(req, 0, bad, "", EXPECTED, routes) is not None, (kind, bad)

    def bump(*path):
        def edit(obj):
            for k in path[:-1]:
                obj = obj[k]
            obj[path[-1]] += 2
        return edit

    verdicts("seeded-trace", ["trace", "-w", word, "--json"], trace, [
        lambda o: o.update(parity_ok=False),
        bump("ch_term", "exponent"),
        bump("ch_term", "coefficient"),
    ])
    verdicts("seeded-chi", ["chi", "-w", word, "--histogram", "--json"], chi, [
        bump("ch"),
        lambda o: o["histogram"].update({k: n + 1 for k, n in list(o["histogram"].items())[:1]}),
    ], pairs=331776)
    verdicts("seeded-classes", ["classes", "-w", word, "--json"], classes, [
        bump("leading", "coefficient"),
        bump("leading", "exponent"),
    ])
    mc = json.dumps({"exact": EXPECTED["mc_exact"]["[x,y]^2"], "within_4_sigma": True})
    verdicts("seeded-mc", ["verify-mc", "-w", "[x,y]^2", "--json"], mc, [
        lambda o: o.update(within_4_sigma=False),
        lambda o: o.update(exact=[0, 1]),
    ])
    incompressible = json.dumps({"chi": -1, "incompressible": True})
    verdicts(
        "seeded-incompressible", ["incompressible", "-w", "[x,y]", "--rank", "2", "--json"],
        incompressible, [lambda o: o.update(chi=1), lambda o: o.update(incompressible=False)],
    )
