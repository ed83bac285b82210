"""Self-test of the benchmark's checks.

Runs one short pass of every workload (the first operation of each kind,
seed 0) through the same closed loop and checks as bench/run.py, expects
every operation to pass except the known faults, then feeds deliberately
corrupted outputs to the checks and expects each corruption to be
reported as a failed operation that turns `correct` false (on an operation
that already fails by a known fault: a fault beyond its known size, which
turns `correct` false). Run from the repository root:

    python3 bench/selftest.py

Exits 0 when every corruption is caught, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def edit(text: str, match, change) -> str:
    """Apply `change` to the fields of the first data row for which `match` holds."""
    lines = text.splitlines()
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if match(fields):
            lines[i] = ",".join(change(list(fields)))
            return "\n".join(lines) + "\n"
    raise LookupError("no row to corrupt")


def add(text: str, row: str) -> str:
    return text + row + "\n"


def setf(index, fn):
    def change(fields):
        fields[index] = fn(fields[index])
        return fields

    return change


def shift(delta):
    return lambda v: repr(float(v) + delta)


def _last_step(text):
    return max(int(line.split(",")[0]) for line in text.splitlines()[1:])


def swap_last_step(text: str, key_cols: int) -> str:
    """Exchange the intensities of the two largest rows of the last step."""
    lines = text.splitlines()
    last = str(_last_step(text))
    rows = sorted(
        (i for i in range(1, len(lines)) if lines[i].split(",")[0] == last),
        key=lambda i: -float(lines[i].split(",")[key_cols]),
    )
    a, b = rows[0], rows[-1]
    fa, fb = lines[a].split(","), lines[b].split(",")
    fa[key_cols], fb[key_cols] = fb[key_cols], fa[key_cols]
    lines[a], lines[b] = ",".join(fa), ",".join(fb)
    return "\n".join(lines) + "\n"


# (operation kind, call index, label, corruption)
CORRUPTIONS = [
    ("coin:repulsion", 1, "band omega shifted by 1e-3", lambda t: edit(t, lambda f: f[0] == "band", setf(4, shift(1e-3)))),
    ("coin:repulsion", 1, "front speed off by 1e-3", lambda t: edit(t, lambda f: f[0] == "wavefront", setf(6, shift(1e-3)))),
    ("coin:repulsion", 1, "speed above 1", lambda t: edit(t, lambda f: f[0] == "speed", setf(6, lambda v: "1.5"))),
    ("coin:haar", 1, "Haar coin front speed off by 1e-4", lambda t: edit(t, lambda f: f[0] == "wavefront" and f[3] != "", setf(6, shift(1e-4)))),
    ("coin:element", 1, "element coin speed above 1", lambda t: edit(t, lambda f: f[0] == "speed", setf(6, lambda v: "-1.001"))),
    ("coin:balanced", 1, "balanced speed 1e-4 off, beyond the known fault", lambda t: edit(t, lambda f: f[0] == "speed", setf(6, shift(1e-4)))),
    ("coin:near_degenerate", 1, "speed 1.2, beyond the known fault", lambda t: edit(t, lambda f: f[0] == "speed", setf(6, lambda v: "1.2"))),
    ("coin:stencil_error", 1, "front 1e-3 off, beyond the known fault", lambda t: edit(t, lambda f: f[0] == "wavefront", setf(6, shift(1e-3)))),
    ("coin:repulsion", 1, "crossing gap off by 1e-3", lambda t: edit(t, lambda f: f[0] == "crossing", setf(7, shift(1e-3)))),
    ("coin:crossing", 1, "avoided row relabelled a crossing", lambda t: edit(t, lambda f: f[8:] == ["avoided"], setf(8, lambda v: "crossing"))),
    ("coin:haar", 1, "Haar coin band omega shifted by 1e-6", lambda t: edit(t, lambda f: f[0] == "band", setf(4, shift(1e-6)))),
    ("coin:haar", 0, "factor block entry off by 1e-3", lambda t: edit(t, lambda f: f[1] == "trip1.arm_a", setf(4, shift(1e-3)))),
    ("coin:haar", 0, "Haar coin passes the one-trip test", lambda t: edit(t, lambda f: f[1] == "one_trip_pass", setf(4, lambda v: "1"))),
    ("coin:element", 0, "global phase rotated", lambda t: edit(t, lambda f: f[1] == "global_phase", setf(5, shift(1e-3)))),
    ("graph", 0, "simulate: intensity moved between positions", lambda t: swap_last_step(t, 2)),
    ("graph", 0, "simulate: norm broken by 1e-9", lambda t: edit(t, lambda f: f[0] == "3", setf(2, shift(1e-9)))),
    ("graph", 0, "simulate: intensity outside the light cone", lambda t: add(t, "1,40,1e-30")),
    ("graph", 1, "circle: intensity moved between nodes", lambda t: swap_last_step(t, 3)),
    ("graph", 3, "figure-eight: mode label swapped", lambda t: edit(t, lambda f: f[0] == "2" and float(f[3]) > 0.01, setf(2, lambda v: {"cH": "cV", "cV": "cH", "ccH": "ccV", "ccV": "ccH"}[v]))),
    ("graph", 2, "revivals: revival row dropped", lambda t: "\n".join(t.splitlines()[:-1]) + "\n"),
    ("graph", 2, "revivals: spurious revival row", lambda t: add(t, "1,1,shifted")),
    ("errorbars", 0, "ring: negative sigma", lambda t: edit(t, lambda f: f[1] != "" and float(f[4]) > 0, setf(4, lambda v: "-" + v))),
    ("errorbars", 0, "ring: similarity reference above 1", lambda t: edit(t, lambda f: f[2] == "similarity", setf(3, lambda v: "1.5"))),
    ("errorbars", 1, "line: reference off by 1e-6", lambda t: edit(t, lambda f: float(f[3]) > 1e-3, setf(3, shift(1e-6)))),
]


def short_pass(workload: str) -> list:
    """The first operation of each kind; for graph walks, the first whose
    revivals run is on a non-mixing ring, which revives at every step, so
    that its rows cannot all vanish."""
    ops, kinds = [], set()
    for op in workloads.generate(workload, 0)[0]:
        wanted = op.kind not in kinds
        if op.kind == "graph":
            wanted = wanted and op.calls[2].config["flavor"] == "non_mixing"
        if wanted:
            kinds.add(op.kind)
            ops.append(op)
    return ops


def run_pass(ops: list, order: list, tmp: Path, main=None) -> list:
    """One pass in `order` through the benchmark's loop, with the real CLI or `main`."""
    import loopwalk.cli as cli

    argvs = run.write_configs(ops, tmp)
    records = run.run_loop(main or cli.main, argvs, order, 0.0, tmp)["records"]
    run.read_outputs(records)
    return records


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    ok = True
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        ops, records = [], []
        for workload in workloads.WORKLOADS:
            part = short_pass(workload)
            ops += part
            records += run_pass(part, list(range(len(part))), Path(tmp))
        failed, correct, notes = checks.tally(ops, records)
        known = sum(1 for op in ops if op.kind in checks.KNOWN_FAULTS)
        print(f"clean pass: {len(ops)} ops, {failed} failed ({known} known faults), correct={correct}")
        for note in notes:
            print(f"  {note}")
        if failed != known or not correct:
            ok = False
        index = {op.kind: i for i, op in enumerate(ops)}
        for kind, call, label, corrupt in CORRUPTIONS:
            i = index[kind]
            bad = copy.deepcopy(records)
            bad[i]["outputs"][call] = corrupt(bad[i]["outputs"][call])
            got, correct_bad, bad_notes = checks.tally(ops, bad)
            caught = got == failed + (kind not in checks.KNOWN_FAULTS) and not correct_bad
            ok &= caught
            found = [n for n in bad_notes if n not in notes][:1]
            print(f"{'caught' if caught else 'MISSED'}: {kind}: {label}", *(f"-> {n[:110]}" for n in found))

        # a repeat that differs byte for byte from the first output
        import loopwalk.cli as cli

        calls = []
        op = [o for o in ops if o.kind == "errorbars"]

        def flaky(argv):
            calls.append(argv)
            rc = cli.main(argv)
            if len(calls) > len(op[0].calls):  # every call of the second attempt
                print("0,0,extra,0,0")
            return rc

        rec = run_pass(op, [0, 0], Path(tmp), main=flaky)
        got, correct_bad, bad_notes = checks.tally(op, rec)
        caught = got == 1 and not correct_bad
        ok &= caught
        print(f"{'caught' if caught else 'MISSED'}: errorbars: repeat differs from the first output", *(f"-> {n}" for n in bad_notes[:1]))
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
