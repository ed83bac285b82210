"""Benchmark of loopwalk's command line, end to end and layer by layer.

Run from the repository root; the program is imported from ./src:

    python3 bench/run.py --workload coin_survey --seed 1 --seconds 25 --trace 0

Workloads: coin_survey, graph_walks, error_bars (see README.md). The run
generates the workload's configs from --seed, times fresh interpreters
that import the CLI and parse the first config (set-up), runs the closed
loop in this process for about --seconds, then checks every output apart
from the program. The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics (from a run with layer wrappers
installed) with --trace 1. Results and span traces are written to
bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 11

# The box's speed drifts (README, "Noise on this box"). A fixed kernel of
# small eigenproblems and a Python loop runs before every operation; each
# time is scaled to the speed at which the kernel takes CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.010
_EIG = np.linalg.eig  # the plain function, also while the tracer wraps it
_CAL_MATRICES = np.random.default_rng(0).normal(size=(50, 4, 4)) + 0j


def calibrate() -> float:
    """Seconds the fixed calibration kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(4):
        _EIG(_CAL_MATRICES)
        s = 0
        for j in range(20000):
            s += j
    return time.perf_counter() - t0


def write_configs(ops: list, run_dir: Path) -> list:
    """Write each call's config as YAML; return the argv lists of each op."""
    argvs = []
    for i, op in enumerate(ops):
        calls = []
        for j, call in enumerate(op.calls):
            path = run_dir / f"op{i}-{j}.yaml"
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(call.config, fh, sort_keys=False)
            calls.append([call.command, "--config", str(path), *call.flags])
        argvs.append(calls)
    return argvs


def _call(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


def run_loop(main, argvs: list, order: list, seconds: float, out_dir: Path, on_output=None) -> dict:
    """The closed loop: whole passes over `order`, one call at a time.

    It starts another pass only while a whole one still fits in `seconds`.
    Outputs are captured in memory; the first good output of each operation
    is written to `out_dir` between operations (outside every timed
    interval), and each repeat is compared with it by digest.
    """
    records = [{"attempts": 0, "errors": 0, "mismatches": 0, "outputs": None, "digest": None} for _ in argvs]
    latencies, calibrations = [], []
    passes = 0
    start = time.perf_counter()
    while True:
        for i in order:
            rec = records[i]
            rec["attempts"] += 1
            texts, error = [], None
            calibrations.append(calibrate())
            t0 = time.perf_counter()
            try:
                for argv in argvs[i]:
                    rc, text, err = _call(main, argv)
                    if rc != 0:
                        error = f"exit {rc}: {err.strip()[-300:]}"
                        break
                    texts.append(text)
            except Exception:  # an op that raises is counted failed, the loop goes on
                error = traceback.format_exc(limit=3)[-600:]
            latencies.append(time.perf_counter() - t0)
            if error is not None:
                rec["errors"] += 1
                rec["error"] = error
                continue
            digest = hashlib.blake2b("\x00".join(texts).encode()).hexdigest()
            if on_output is not None:
                on_output(texts)
            if rec["digest"] is None:
                rec["digest"] = digest
                rec["outputs"] = []
                for j, text in enumerate(texts):
                    path = out_dir / f"op{i}-{j}.out"
                    path.write_text(text, encoding="utf-8")
                    rec["outputs"].append(path)
            elif digest != rec["digest"]:
                rec["mismatches"] += 1
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    calibrations.append(calibrate())
    return {"records": records, "latencies": latencies, "calibrations": calibrations, "passes": passes, "loop_s": elapsed}


def read_outputs(records: list):
    for rec in records:
        if rec["outputs"] is not None:
            rec["outputs"] = [path.read_text(encoding="utf-8") for path in rec["outputs"]]


def scaled_latencies(result: dict) -> list:
    """Each latency scaled by the calibrations just before and after it."""
    cal = result["calibrations"]
    return [t * 2.0 * CALIBRATION_REF_S / (cal[i] + cal[i + 1]) for i, t in enumerate(result["latencies"])]


def setup_seconds(src: Path, config: str) -> float:
    """Median seconds of SETUP_PROBES fresh interpreters, each importing the
    CLI and parsing `config`."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(src), config],
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(result: dict, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics. Set-up is not scaled: a fresh interpreter's
    imports did not follow the calibration kernel's drift (README)."""
    lat = scaled_latencies(result)
    return {
        "ops_per_s": {"value": len(lat) / sum(lat), "unit": "ops/s"},
        "op_p50_ms": {"value": 1000.0 * statistics.median(lat), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def _by_kind(ops: list, order: list, latencies: list) -> dict:
    lat = {}
    for i, t in enumerate(latencies):
        lat.setdefault(ops[order[i % len(order)]].kind, []).append(1000.0 * t)
    return {kind: round(statistics.median(v), 1) for kind, v in sorted(lat.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "loopwalk" / "cli.py").is_file():
        print(f"no loopwalk sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import loopwalk.cli as cli

    out_dir = HERE / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = out_dir / f"run-{tag}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        ops, order = workloads.generate(args.workload, args.seed)
        argvs = write_configs(ops, run_dir)
        setup_s = setup_seconds(src, argvs[order[0]][0][2])
        tracer, on_output = None, None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()

            def on_output(texts):
                tracer.counts["cli.output_bytes"] += sum(len(t.encode()) for t in texts)

        result = run_loop(cli.main, argvs, order, args.seconds, run_dir, on_output)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted = sum(r["attempts"] for r in result["records"])
        if tracer is not None:
            tracer.uninstall()
            per_layer = tracer.per_layer(attempted)
            tracer.dump(out_dir / f"trace-{tag}.json")
        read_outputs(result["records"])
        failed, correct, notes = checks.tally(ops, result["records"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for note in notes:
        print(f"check: {note}", file=sys.stderr)
    if tracer is None:
        metrics = end_to_end(result, setup_s, peak_rss_mb)
    else:
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracing.per_layer_units().items()}
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    lat = result["latencies"]
    info = {
        "passes": result["passes"],
        "loop_s": result["loop_s"],
        "ops_per_pass": len(order),
        "raw_ops_per_s": len(lat) / sum(lat),
        "raw_op_p50_ms": 1000.0 * statistics.median(lat),
        "calibration_ms": 1000.0 * statistics.median(result["calibrations"]),
        "median_ms_by_kind": _by_kind(ops, order, lat),
    }
    (out_dir / f"result-{tag}.json").write_text(json.dumps({**summary, **info}, indent=1), encoding="utf-8")
    print(json.dumps(info))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
