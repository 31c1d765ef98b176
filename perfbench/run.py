"""scenefuse benchmark: run the CLI on a seeded workload, check its outputs, report metrics.

    python3 perfbench/run.py --workload synth_mcb --seed 1 --seconds 50 --trace 0
    for w in synth_mcb text_topic vqa_answers; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 50 --trace 0; done

Run from the root of a scenefuse checkout; the program is taken from its
``src/``.  Inputs are generated from ``--seed`` under ``.perfbench/`` and
removed afterwards.  Workloads: synth_mcb, text_topic, vqa_answers; the last
is left out of ``BENCHMARK.json``, so that the listed ones can measure longer
within the benchmark's time budget, and is run by hand.

``--trace 0`` runs passes until ``--seconds`` is spent and reports medians
over them.  A pass times ``python -m scenefuse --version`` a few times
(``setup_s``), then runs the workload's commands as child processes (through
``launch.py``, which records each one's peak RSS), one at a time.
``--trace 1`` instead calls ``scenefuse.cli.main`` in-process, alternating an
untraced pass with a traced one (see ``tracing.py``).  It reports the
per-layer metrics of the traced pass with the median wall time, so its layer
self times and ``cli.self_s`` add up to its wall time, and the median of the
traced-minus-untraced wall times as ``trace.overhead_s``.

Either way the outputs of the last pass are checked, every metric is printed
as ``name value unit``, then the environment, and the last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the ``end_to_end`` metrics of ``BENCHMARK.json`` untraced, its ``per_layer``
metrics traced).  A full record goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().with_name("launch.py")
SETUP_PER_PASS = 3
RUN_LIMIT_S = 165.0  # children still running this long after start are killed
# One BLAS/OpenMP thread: with a thread per core, any other process on the
# machine stalls OpenBLAS's spinning threads and a command can take 10x longer.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment(args, workload) -> dict:
    import numpy as np

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes,
    }


# -- running commands ----------------------------------------------------------


def run_child(cmd: list[str], env: dict, log: Path, deadline: float) -> tuple[float, int]:
    """Run one child to completion, killed at ``deadline``: (wall seconds, exit code)."""
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        # a blocking wait: Popen.wait(timeout) polls, adding up to 50 ms to each time
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        return time.perf_counter() - start, code


def inprocess_pass(workload, main) -> list[tuple[str, float, int]]:
    results = []
    for kind, argv in workload.commands:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:  # argparse exits so on a bad argv; keep its status
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        except Exception:  # a crashing command is counted as failed; the run goes on
            traceback.print_exc()
            code = -1
        results.append((kind, time.perf_counter() - start, code))
        if code != 0:
            print(sink.getvalue(), file=sys.stderr)
    return results


def repeat(step, seconds: float) -> list:
    """Call ``step`` until another call would overrun ``seconds``; at least once."""
    results = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return results


# -- the two modes -------------------------------------------------------------


def untraced(workload, args, log: Path, deadline: float) -> tuple[dict, dict, int, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    peak_file = log.with_name("peak_kb")

    def command(kind, argv):
        peak_file.unlink(missing_ok=True)
        wall, code = run_child([sys.executable, str(LAUNCH), str(peak_file), *argv], env, log, deadline)
        peak_mb = int(peak_file.read_text()) / 1024 if peak_file.exists() else 0.0
        return kind, wall, code, peak_mb

    def one_pass():
        # set-up is sampled in every pass, so host drift reaches it as it does the passes
        setup = [("setup", *run_child([sys.executable, "-m", "scenefuse", "--version"], env, log, deadline))
                 for _ in range(SETUP_PER_PASS)]
        return setup, [command(kind, argv) for kind, argv in workload.commands]

    runs = repeat(one_pass, args.seconds)
    setup = [r for s, _ in runs for r in s]
    passes = [p for _, p in runs]
    walls = [sum(r[1] for r in p) for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "rows_per_s": statistics.median(workload.rows / w for w in walls),
        "peak_rss_mb": statistics.median(max(r[3] for r in p) for p in passes),
        "setup_s": statistics.median(r[1] for r in setup),
    }
    per_command = {kind.replace("-", "_") + "_s": statistics.median(
        sum(r[1] for r in p if r[0] == kind) for p in passes) for kind, _ in workload.commands}
    commands = setup + [r for p in passes for r in p]
    failed = sum(1 for r in commands if r[2] != 0)
    extra = {"passes": len(passes), "pass_wall_s": walls, "per_command": per_command}
    return metrics, extra, len(commands), failed


def traced(workload, args, spans_path: Path) -> tuple[dict, dict, int, int]:
    import tracing
    from scenefuse.cli import main

    tracer = tracing.Tracer()
    pairs = []

    def timed(with_spans: bool):
        if not with_spans:
            return inprocess_pass(workload, main)
        tracer.reset()
        tracer.install()
        try:
            return inprocess_pass(workload, main)
        finally:
            tracer.uninstall()

    def step():
        # alternate which pass goes first, so drift does not bias the overhead
        if len(pairs) % 2:
            traced_pass, plain = timed(True), timed(False)
        else:
            plain, traced_pass = timed(False), timed(True)
        wall = sum(r[1] for r in traced_pass)
        metrics, calls = tracing.per_layer(tracer.spans, wall)
        overhead = wall - sum(r[1] for r in plain)
        pairs.append((plain + traced_pass, metrics, calls, overhead, list(tracer.spans)))

    warmup = inprocess_pass(workload, main)  # first calls pay lazy set-up; not measured
    repeat(step, args.seconds)
    print("wrapped: " + " ".join(tracer.wrapped))

    # report the traced pass of median wall time whole, so its self times add up
    _, values, calls, _, spans = sorted(pairs, key=lambda p: p[1]["trace.wall_s"])[(len(pairs) - 1) // 2]
    values["trace.overhead_s"] = statistics.median(p[3] for p in pairs)
    tracing.write_spans(spans_path, spans)
    commands = warmup + [r for p in pairs for r in p[0]]
    failed = sum(1 for r in commands if r[2] != 0)
    expected = set(workload.expected) | {f.split(".")[0] for f in workload.expected}
    missing = sorted(n for n in expected if any(not p[2].get(n) for p in pairs))
    extra = {"passes": len(pairs), "missing": missing, "wrapped": tracer.wrapped, "calls": calls}
    return values, extra, len(commands), failed


def verify(workload, workloads):
    try:
        return workload.verify()
    except Exception as exc:  # unreadable or malformed outputs fail the checks
        traceback.print_exc()
        return [workloads.Check("outputs can be read", False, repr(exc))], 0.0, {}


# -- entry point ---------------------------------------------------------------


def _terminate(signum, frame):
    # unwind through run_child, which kills and reaps the running command
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.perf_counter() + RUN_LIMIT_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "scenefuse" / "cli.py").is_file():
        print(f"perfbench: no scenefuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads; children inherit it
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    base = ROOT / ".perfbench"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = base / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](work, args.seed)
        generate_s = time.perf_counter() - started
        if args.trace:
            values, extra, commands, failed = traced(workload, args, results / f"{tag}.spans.jsonl")
        else:
            values, extra, commands, failed = untraced(workload, args, work / "commands.log", deadline)
        checks, headline, diagnostics = verify(workload, workloads) if failed == 0 else ([], 0.0, {})
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values.update(diagnostics)
    values["acc_pct"] = headline
    missing = set(extra.get("missing", ()))
    if args.trace:
        checks += [workloads.Check(f"traced run records {n}", False, "missing") for n in sorted(missing)]
    failed += sum(1 for c in checks if not c.ok)
    attempted = commands + len(checks)

    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        parts = m["name"].split(".")
        if parts[0] in missing or ".".join(parts[:2]) in missing:
            continue
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    env = environment(args, workload)
    for c in checks:
        print(f"[{'PASS' if c.ok else 'FAIL'}] {c.name} ({c.detail})")
    for name in sorted(missing):
        print(f"missing: {name} recorded no spans")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if args.trace:  # function times BENCHMARK.json leaves out, e.g. io.load_vqa.s on vqa_answers
        for name in sorted(k for k in values if k.endswith(".s") and k not in metrics):
            print(f"{name} {values[name]:.6g} s")
    for name, value in extra.get("per_command", {}).items():
        print(f"{name} {value:.6g} s")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} commands and checks)")
    print(f"generate_s {generate_s:.6g} s")
    print("environment: " + json.dumps(env, sort_keys=True))
    record = {"environment": env, "generate_s": generate_s, "metrics": metrics, "values": values,
              "extra": extra, "checks": [vars(c) for c in checks],
              "attempted": attempted, "failed": failed}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
