"""End-to-end benchmark of the wordmeasure CLI, with an optional traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload trace-ladder --seed 1 --seconds 35 --trace 0

Each workload is a list of CLI requests generated from the seed
(``workloads.py``).  One client sends them in a closed loop, one request
at a time, each a fresh ``python -m wordmeasure.cli`` process, exactly
as a user would; ``--jobs`` is never passed.  The list repeats for
``--seconds`` (see ``measure``); each request runs at least once, so a
run lasts at least one pass.  Every output is checked (``checks.py``);
a bad output counts as a failed request and does not stop the run.

``--trace 0`` prints the end-to-end metrics:

- setup_s: time from a fresh interpreter to ``import wordmeasure.cli``
  done, the slowest of SETUP_REPEATS starts spread over the run;
- wall_s: wall time of one pass over the list: the sum over requests of
  the slowest wall time of each, process start included;
- request_p50_s: median over the requests of their slowest wall time;
- cpu_s: user+sys CPU of the request processes in one pass, summed the
  same way; it shows parallelism that wall_s hides;
- peak_rss_mb: largest max-RSS of any request process;
- ok_frac: requests that exited 0 without a traceback and passed their
  check, over requests attempted.  It is reported as the complement of
  the failed fraction so that it is never 0; both counts are printed.

Every time is the slowest of its repeats in the run, not their median.
On a shared host the machine alternates between a contended speed,
which repeats from run to run, and faster spells whose length does not.
Over two sets of ten seeds per workload on a shared 2-vCPU virtual
machine, the slowest repeat spread less than the median one (IQR over
median at most 0.14 against 0.23) and its median moved less between the
two sets (at most 0.13 against 0.21).

``--trace 1`` measures as above and then replays every request once in a
fresh process through ``replay.py``, which records a span around each
call into a layer of the program.  It prints the per-layer metrics,
a self-time table per layer and the tracing overhead (traced pass wall
time minus untraced pass wall time).  End-to-end metrics always come
from untraced passes.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The request list, the
per-request timings and, when traced, all spans are also written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
REQUEST_TIMEOUT_S = 150
DEFAULT_SEED = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "request_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# metrics computed from other metrics rather than read off one span
DERIVED = {
    "cli.overhead_s", "surfaces.ns_per_pair", "trace.self_s",
    "solutions.components_s", "montecarlo.samples_per_s", "tracing_overhead_s",
}

LAYERS = ("cli", "words", "surfaces", "trace", "weingarten", "solutions", "montecarlo")

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "words.parse_s": "s",
    "surfaces.class_counts_s": "s",
    "surfaces.pairs": "count",
    "surfaces.ns_per_pair": "ns",
    "surfaces.distinct_classes": "count",
    "surfaces.pair_statistics_s": "s",
    "surfaces.diagonal_max_euler_s": "s",
    "surfaces.diagonal_matchings": "count",
    "trace.trace_exact_s": "s",
    "trace.trace_leading_s": "s",
    "trace.parity_report_s": "s",
    "trace.self_s": "s",
    "trace.scl_upper_bound_s": "s",
    "weingarten.wg_table_s": "s",
    "weingarten.wg_cold_s": "s",
    "weingarten.distinct_types": "count",
    "solutions.solution_classes_s": "s",
    "solutions.argmax_pairs": "count",
    "solutions.classes": "count",
    "solutions.poset_s": "s",
    "solutions.order_complex_s": "s",
    "solutions.pi1_s": "s",
    "solutions.components_s": "s",
    "montecarlo.estimate_s": "s",
    "montecarlo.samples_per_s": "1/s",
    **{f"self_time.{layer}_s": "s" for layer in LAYERS},
    "tracing_overhead_s": "s",
}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("WORDMEASURE_PARALLELISM", None)
    env.pop("WORDMEASURE_SEED", None)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], env: dict) -> dict:
    """Run one process to completion; wall time, CPU, max-RSS and output."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT
    )
    chunks: dict[str, bytes] = {}

    def drain(name, stream):
        chunks[name] = stream.read()
        stream.close()

    readers = [
        threading.Thread(target=drain, args=("out", proc.stdout)),
        threading.Thread(target=drain, args=("err", proc.stderr)),
    ]
    for reader in readers:
        reader.start()
    timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        # wait4 rather than wait: it returns this child's own rusage
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for reader in readers:
        reader.join()
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "code": proc.returncode,
        "stdout": chunks["out"].decode("utf-8", "replace"),
        "stderr": chunks["err"].decode("utf-8", "replace"),
    }


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "wordmeasure.cli", *argv]


def replay_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "replay.py"), *argv]


def environment(env: dict) -> dict:
    probe = run_child([sys.executable, "-c", "import numpy; print(numpy.__version__)"], env)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": probe["stdout"].strip(),
        "loadavg": os.getloadavg(),
    }


def import_time(env: dict) -> float:
    result = run_child([sys.executable, "-c", "import wordmeasure.cli"], env)
    if result["code"] != 0:
        raise RuntimeError(f"import wordmeasure.cli failed:\n{result['stderr']}")
    return result["wall"]


def run_counterparts(reqs: list[dict], env: dict) -> dict:
    """Parsed output (None on failure) of every counterpart request."""
    routes = {}
    for req in reqs:
        for argv in checks.counterparts(req):
            k = checks.key(argv)
            if k in routes:
                continue
            result = run_child(cli_cmd(argv), env)
            routes[k] = None
            if result["code"] == 0 and "Traceback" not in result["stderr"]:
                try:
                    routes[k] = json.loads(result["stdout"])
                except ValueError:
                    pass
    return routes


def execute(req: dict, env: dict, expected: dict, routes: dict, traced: bool) -> dict:
    """Run one request, untraced or through replay.py, and check its output."""
    result = run_child((replay_cmd if traced else cli_cmd)(req["argv"]), env)
    code, stdout, stderr = result.pop("code"), result.pop("stdout"), result.pop("stderr")
    if traced and code == 0:
        replayed = json.loads(stdout)
        code, stdout, stderr = replayed["exit"], replayed["stdout"], replayed["stderr"]
        result["spans"] = [span | {"request": req["id"]} for span in replayed["spans"]]
    mine = {argv[0]: routes[checks.key(argv)] for argv in checks.counterparts(req)}
    result["failure"] = checks.check(req, code, stdout, stderr, expected, mine)
    result["id"] = req["id"]
    return result


def measure(reqs: list[dict], seconds: float, env: dict, expected: dict, routes: dict):
    """Run the requests in list order, wrapping around, for ``seconds``.

    Every request runs at least once.  After that a request starts only
    if its last run would still have ended before the deadline, so a
    long request never runs far past it.  The SETUP_REPEATS import-time
    samples are spread evenly over the same window: the machine's speed
    drifts over seconds, and samples taken together would all see one
    moment of it.  Returns (request runs, import times).
    """
    import_time(env)  # warm the bytecode and file caches
    start = time.perf_counter()
    deadline = start + seconds
    runs: list[dict] = []
    setup: list[float] = []
    last: dict[int, float] = {}
    while True:
        now = time.perf_counter()
        if len(setup) < SETUP_REPEATS and now - start >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(import_time(env))
            continue
        req = reqs[len(runs) % len(reqs)]
        if len(runs) >= len(reqs) and now + last[req["id"]] > deadline:
            break
        runs.append(execute(req, env, expected, routes, traced=False))
        last[req["id"]] = runs[-1]["wall"]
    while len(setup) < SETUP_REPEATS:
        setup.append(import_time(env))
    return runs, setup


def _per_request(runs: list[dict], field: str, stat) -> list[float]:
    by_id: dict[int, list[float]] = {}
    for r in runs:
        by_id.setdefault(r["id"], []).append(r[field])
    return [stat(v) for v in by_id.values()]


def end_to_end(setup: list[float], runs: list[dict]) -> dict:
    """A pass is estimated request by request: the sum over requests of
    the slowest of their runs."""
    failed = sum(1 for r in runs if r["failure"])
    values = {
        "setup_s": max(setup),
        "wall_s": sum(_per_request(runs, "wall", max)),
        "request_p50_s": statistics.median(_per_request(runs, "wall", max)),
        "cpu_s": sum(_per_request(runs, "cpu", max)),
        "peak_rss_mb": max(r["rss_kb"] for r in runs) / 1024,
        "ok_frac": 1 - failed / len(runs),
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def _ancestors(spans: list[dict], i: int):
    parent = spans[i]["parent"]
    while parent is not None:
        yield spans[parent]["name"]
        parent = spans[parent]["parent"]


def _total(spans, name, *, under=None, not_under=None, count=None) -> float:
    """Sum of durations (or of a count) of spans called ``name``.

    ``under`` keeps spans with an ancestor of that name; ``not_under``
    drops spans with an ancestor whose name starts with that prefix.
    """
    total = 0
    for i, span in enumerate(spans):
        if span["name"] != name:
            continue
        above = list(_ancestors(spans, i))
        if under is not None and under not in above:
            continue
        if not_under is not None and any(a.startswith(not_under) for a in above):
            continue
        total += span["counts"][count] if count else span["end"] - span["start"]
    return total


def self_times(spans: list[dict]) -> dict:
    """Per-layer self time: span duration minus its children's durations."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    out = dict.fromkeys(LAYERS, 0.0)
    for span, below in zip(spans, child_time):
        if span["name"] != "cli.import":
            out[span["name"].split(".")[0]] += span["end"] - span["start"] - below
    return out


def per_layer(traced: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics of one traced pass, summed over its requests."""
    v = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    for result in traced:
        spans = result.get("spans", [])
        t = lambda name, **kw: _total(spans, name, **kw)  # noqa: E731
        v["cli.import_s"] += t("cli.import")
        v["cli.overhead_s"] += result["wall"] - t("cli.import") - t("cli.main")
        v["words.parse_s"] += t("words.parse")
        v["surfaces.class_counts_s"] += t("surfaces.class_counts")
        v["surfaces.pairs"] += t("surfaces.class_counts", count="pairs")
        v["surfaces.distinct_classes"] += t("surfaces.class_counts", count="classes")
        v["surfaces.pair_statistics_s"] += t("surfaces.pair_statistics")
        v["surfaces.diagonal_max_euler_s"] += t("surfaces.diagonal_max_euler")
        v["surfaces.diagonal_matchings"] += t("surfaces.diagonal_max_euler", count="matchings")
        # trace_exact as called from outside the trace layer: the call that
        # parity_report makes again is part of parity_report_s
        v["trace.trace_exact_s"] += t("trace.trace_exact", not_under="trace.")
        v["trace.trace_leading_s"] += t("trace.trace_leading")
        v["trace.parity_report_s"] += t("trace.parity_report")
        v["trace.scl_upper_bound_s"] += t("trace.scl_upper_bound")
        v["weingarten.wg_table_s"] += t("weingarten.wg_table")
        # first calls per cycle type, apart from those filling a wg table
        v["weingarten.wg_cold_s"] += t("weingarten.wg", not_under="weingarten.wg_table")
        v["weingarten.distinct_types"] += t(
            "weingarten.wg", not_under="weingarten.wg_table", count="types"
        )
        classes = t("solutions.solution_classes")
        v["solutions.solution_classes_s"] += classes
        v["solutions.argmax_pairs"] += t(
            "surfaces.pair_statistics", under="solutions.solution_classes", count="argmax"
        )
        v["solutions.classes"] += t("solutions.solution_classes", count="classes")
        v["solutions.poset_s"] += t("solutions.build_poset")
        v["solutions.order_complex_s"] += t("solutions.order_complex")
        v["solutions.pi1_s"] += t("solutions.pi1_presentation")
        v["solutions.components_s"] += classes - (
            t("surfaces.pair_statistics", under="solutions.solution_classes")
            + t("solutions.build_poset", under="solutions.solution_classes")
            + t("solutions.order_complex", under="solutions.solution_classes")
            + t("solutions.pi1_presentation", under="solutions.solution_classes")
        )
        v["montecarlo.estimate_s"] += t("montecarlo.estimate")
        v["montecarlo.samples_per_s"] += t("montecarlo.estimate", count="samples")
        for layer, seconds in self_times(spans).items():
            v[f"self_time.{layer}_s"] += seconds
    # Weingarten and ratfn assembly inside trace_exact
    v["trace.self_s"] = v["trace.trace_exact_s"] - v["surfaces.class_counts_s"]
    if v["surfaces.pairs"]:
        v["surfaces.ns_per_pair"] = v["surfaces.class_counts_s"] / v["surfaces.pairs"] * 1e9
    if v["montecarlo.estimate_s"]:
        v["montecarlo.samples_per_s"] /= v["montecarlo.estimate_s"]
    v["tracing_overhead_s"] = sum(r["wall"] for r in traced) - untraced_wall
    return {name: {"value": x, "unit": PER_LAYER_UNITS[name]} for name, x in v.items()}


def layer_table(metrics: dict, traced_wall: float) -> list[str]:
    rows = [("import", metrics["cli.import_s"]["value"])]
    rows += [(layer, metrics[f"self_time.{layer}_s"]["value"]) for layer in LAYERS]
    rows.append(("process", metrics["cli.overhead_s"]["value"]))
    lines = [f"{'layer':<12}{'self_s':>10}{'share':>8}"]
    for layer, seconds in rows:
        lines.append(f"{layer:<12}{seconds:>10.3f}{seconds / traced_wall:>8.1%}")
    lines.append(
        f"traced pass {traced_wall:.3f} s; tracing overhead "
        f"{metrics['tracing_overhead_s']['value']:+.3f} s"
    )
    return lines


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wordmeasure" / "cli.py").is_file():
        print(f"error: no wordmeasure sources under {SRC}", file=sys.stderr)
        return 2
    env = child_env()
    expected = checks.load_expected()
    reqs = workloads.requests(args.workload, args.seed)
    run = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(env), "requests": reqs,
    }
    print(json.dumps({k: run[k] for k in ("workload", "seed", "environment")}))
    for req in reqs:
        sizes = " ".join(f"{k}={req[k]}" for k in ("pairs", "matchings") if k in req)
        print(f"request {req['id']:>2} {req['kind']:<22} {' '.join(req['argv'])}  {sizes}")

    routes = run_counterparts(reqs, env)
    runs, setup = measure(reqs, args.seconds, env, expected, routes)
    metrics = end_to_end(setup, runs)
    executed = list(runs)
    if args.trace:
        traced = [execute(req, env, expected, routes, traced=True) for req in reqs]
        executed += traced
        # the traced pass runs each request once, so it is compared with
        # the untraced median run of each, not the slowest
        metrics = per_layer(traced, sum(_per_request(runs, "wall", statistics.median)))
        print("\n".join(layer_table(metrics, sum(r["wall"] for r in traced))))
    failures = [r for r in executed if r["failure"]]
    for r in failures:
        print(f"FAILED request {r['id']}: {r['failure']}")
    print(
        f"untraced runs {len(runs)} for {len(reqs)} requests; failed_frac "
        f"{len(failures)}/{len(executed)} = {len(failures) / len(executed):.4f}"
    )
    for name, m in metrics.items():
        label = " (derived)" if name in DERIVED else ""
        print(f"{name:<32}{m['value']:>14.6f} {m['unit']}{label}")

    run |= {"setup_s": setup, "routes": routes, "runs": executed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(run, indent=1))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(executed),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
