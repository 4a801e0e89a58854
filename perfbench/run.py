"""ywx benchmark: wall time of the documented ``ywx`` commands on seeded scripts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 60 --trace 0

Each session runs the workload's fixed command mix on one script, in process,
through ``ywx.cli.run``; sessions repeat until ``--seconds`` have passed. With
``--trace 0`` the last line of output reports the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` sessions alternate between untraced and
traced, and it reports the per-layer metrics. Every output is checked (see
checks.py). Details that do not fit the last line -- tail percentiles, sample
counts, input statistics, host-speed probe, output digests and failures --
go to ``.perfbench/results/`` and to the lines printed before it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up is sampled before the sessions and as often again after them, never
# between two: a spawned interpreter leaves the caches cold for the next command.
SETUP_SAMPLES = 8
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def probe() -> float:
    """Milliseconds for a fixed stdlib-only loop, median of five; reported only."""
    times = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((perf_counter() - start) * 1000.0)
    return statistics.median(times)


def setup_seconds(samples: int) -> list[float]:
    """Wall time of fresh interpreters that import ywx.cli, as a CLI call pays."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    found = []
    for _ in range(samples):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import ywx.cli"], env=env, cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL)
        found.append(perf_counter() - start)
    return found


# One unchecked session in a fresh interpreter; its steps arrive as JSON on
# stdin. It prints its own peak RSS in kB. The peak is read from VmHWM, not
# from rusage: a spawned child's ru_maxrss starts at its parent's RSS.
PEAK_SESSION = """
import json, sys
import ywx.cli as cli
from session import Invocation, run_session
run_session([Invocation(*step) for step in json.load(sys.stdin)], cli)
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""


def program_peak_rss_mb(steps) -> float:
    """Peak RSS of a fresh interpreter running one session, as a CLI process has it.

    The child holds none of the benchmark's inputs, records or checks, so this
    is the program's own high-water mark.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(ROOT / "src")]))
    steps_json = json.dumps([[s.label, s.argv, s.output] for s in steps])
    child = subprocess.run([sys.executable, "-c", PEAK_SESSION], env=env, input=steps_json,
                           capture_output=True, text=True, check=True)
    return int(child.stdout.split()[-1]) / 1024.0


def summary(values: list[float]) -> dict:
    """Mean, median, the highest percentile with at least ten samples beyond it, and n."""
    ordered = sorted(values)
    result = {"mean": statistics.fmean(ordered), "median": statistics.median(ordered),
              "n": len(ordered)}
    for p in TAIL_PERCENTILES:
        if len(ordered) * (1 - p / 100) >= 10:
            result[f"p{p:g}"] = ordered[min(len(ordered) - 1, int(len(ordered) * p / 100))]
            break
    return result


def input_stats(cases) -> dict:
    from support import oracle_channels

    lines = [c.text.count("\n") for c in cases]
    trees = [c.tree for c in cases if c.tree is not None]
    return {
        "scripts": len(cases),
        "lines": sum(lines),
        "median_lines": statistics.median(lines),
        "blocks": sum(sum(1 for _ in t.walk()) for t in trees),
        "channels": sum(len(oracle_channels(t)[0]) for t in trees),
        "root_outputs": sum(len(t.outs) for t in trees),
    }


def prepare(cases, seed: int) -> dict:
    """Write every script and manifest into the work directory; plan sessions.

    Fixtures carry no generated tree: theirs is read from the model the
    library builds, and their query arguments are chosen from it.
    """
    from checks import tree_from_model
    from session import plan
    from ywx.errors import YwxError
    from ywx.model import build_model
    from ywx.annotations import parse_annotations
    from ywx.comments import LANGUAGES, extract_comments

    Path("scripts").mkdir()
    Path("out").mkdir()
    plans = {}
    for case in cases:
        script = f"scripts/{case.name}"
        Path(script).write_text(case.text)
        manifest = None
        if case.manifest is not None:
            manifest = f"scripts/{Path(case.name).stem}.manifest.json"
            Path(manifest).write_text(json.dumps(case.manifest, indent=2))
        if case.kind == "fixture":
            try:
                comments = extract_comments(case.text, LANGUAGES[case.language], script)
                case.tree = tree_from_model(build_model(parse_annotations(comments)))
            except YwxError:
                case.tree = None
            case.choose_queries(random.Random(f"{seed}:{case.name}"))
        plans[case.name] = (script, plan(script, case.queries, manifest))
    return plans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    missing = [p for p in ("src/ywx/cli.py", "tests/support.py") if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}: run from a ywx checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]
    import ywx.cli as cli
    from checks import Checker
    from session import run_session, timings
    from tracing import Tracer
    from workloads import WORKLOADS

    probe_start = probe()
    cases = WORKLOADS[args.workload](args.seed)
    setup = setup_seconds(SETUP_SAMPLES)
    checker = Checker()
    tracer = Tracer() if args.trace else None
    untraced, traced, ratios = [], [], []
    cwd = os.getcwd()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=ROOT / ".perfbench")
    try:
        os.chdir(work)
        plans = prepare(cases, args.seed)
        stats = input_stats(cases)
        deadline = perf_counter() + args.seconds
        index = 0
        while True:
            case = cases[index % len(cases)]
            script, steps = plans[case.name]
            # Traced runs pair each untraced session with a traced one on the
            # same script, alternating which goes first.
            order = (False,) if tracer is None else ((False, True), (True, False))[index % 2]
            pair = {}
            for traced_now in order:
                # Leave the benchmark's own objects out of the program's GC passes,
                # and start with an empty regex cache, as a CLI process would.
                gc.collect()
                gc.freeze()
                re.purge()
                if traced_now:
                    tracer.install()
                    tracer.session = index
                outcomes = run_session(steps, cli)
                if traced_now:
                    tracer.count("cli.output_bytes", sum(len(o.output or b"") for o in outcomes))
                    tracer.session = None
                    tracer.uninstall()
                pair[traced_now] = timings(steps, outcomes)
                checker.check(case, script, outcomes)
            untraced.append(pair[False])
            if tracer is not None:
                traced.append(index)
                ratios.append(pair[True]["session"] / pair[False]["session"])
            index += 1
            if perf_counter() >= deadline:
                break
        peak_rss_mb = None
        if tracer is None:
            largest = max(cases, key=lambda c: len(c.text))
            peak_rss_mb = program_peak_rss_mb(plans[largest.name][1])
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    setup += setup_seconds(SETUP_SAMPLES)
    probe_end = probe()

    samples = {
        f"{key}_ms": [t[key] for t in untraced]
        for key in ("extract", "model", "graph", "query", "validate", "replay", "session")
    }
    samples["setup_s"] = setup
    details = {name: summary(values) for name, values in samples.items()}
    absent = []
    if tracer is None:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        # A command's timing is its mean over the run's sessions; set-up time is
        # the median of its samples.
        values = {name: details[name]["mean"] for name in units if name.endswith("_ms")}
        values["setup_s"] = details["setup_s"]["median"]
        values["peak_rss_mb"] = peak_rss_mb
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        names = [n for n in units if n != "trace.overhead_ratio"]
        values, absent = tracer.metrics(names, traced)
        values["trace.overhead_ratio"] = statistics.median(ratios)
    unknown = set(units) - set(values)
    if unknown:
        raise SystemExit(f"perfbench: no measurement for {sorted(unknown)}")

    failures = sorted(checker.failures.values(), key=lambda f: (f["input"], f["command"]))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "sessions": len(untraced),
        "inputs": stats,
        "probe_ms": {"start": probe_start, "end": probe_end},
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "timings": details,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "ops_failed_ratio": checker.failed / checker.attempted,
        "failures": failures,
        "absent": absent,
        "digests": checker.digests(),
    }
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        with open(results / f"{stem}-spans.jsonl", "w") as spans:
            for span in tracer.spans:
                spans.write(json.dumps(span) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(untraced)} sessions, inputs {json.dumps(stats)}")
    print(f"host probe {probe_start:.2f} ms at start, {probe_end:.2f} ms at end")
    for name in units:
        line = f"{name} {values[name]:.6g} {units[name]}"
        if name in details:
            stat = "mean" if name.endswith("_ms") else "median"
            extra = ", ".join(f"{k} {v:.6g}" for k, v in details[name].items() if k != stat)
            line += f" ({stat}; {extra})"
        print(line + (" ABSENT" if name in absent else ""))
    print(f"ops_failed_ratio {result['ops_failed_ratio']:.6g} ratio "
          f"({checker.failed} of {checker.attempted} invocations)")
    for failure in failures:
        print(f"FAILED {failure['input']} {failure['command']} x{failure['count']}: "
              f"{failure['reason']}")
    print(f"details in {(results / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
