"""One-leaf mutations of the docs/configs recipes, run through the CLI.

Each recipe, plus a copy of every line and dispersion recipe whose coin is
given as a raw `coin: {matrix: {re, im}}`, is a base.  A case changes one
leaf of a base (a scalar, or an empty list or mapping) to one of VALUES, or
deletes it, or adds an unknown key to one of its mappings.  A case runs the
first command that takes the base's kind, in process, walks at
--steps STEPS, and must end as a config run should:

- exit code 0, 2 or 3, with nothing but SystemExit escaping cli.main;
- no warning;
- on exit 0, no `nan` in the output;
- on exit 2 or 3, one stderr line and no stdout;
- an unknown key exits 2.

The Tier-1 test samples the cases; run this file for the full sweep:

    PYTHONPATH=src python tests/config_fuzz.py
"""

from __future__ import annotations

import contextlib
import copy
import glob
import io
import os
import re
import sys
import tempfile
import warnings

import yaml

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "docs", "configs")
STEPS = 6
VALUES = (
    0, -1, 1, 3, 2**62, 2**63, -(2**63), 10**30, 1.5, -0.0, 1e308, float("nan"), float("inf"), float("-inf"),
    "x", "", None, [], {}, True, [1, 2], {"a": 1},
)
DELETE = "delete"
UNKNOWN = "unknown key"
_NAN = re.compile(r"(?<![A-Za-z])nan(?![A-Za-z])", re.IGNORECASE)


def _first_command(kind: str) -> str:
    from loopwalk.cli import _COMMANDS

    return next(name for name, row in _COMMANDS.items() if kind in row[1])


def _raw_coin(config: dict) -> dict:
    """config with its element coin replaced by the same coin as a raw matrix."""
    from loopwalk.config import parse_coin

    m = parse_coin(config["coin"], "coin").matrix()
    return {**config, "coin": {"matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}}


def bases() -> list:
    """(name, command, config) of every recipe and of the raw-matrix copies."""
    out = []
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.yaml"))):
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            config = yaml.safe_load(fh)
        out.append((name, _first_command(config["kind"]), config))
        if config["kind"] in ("line", "dispersion"):
            out.append((f"{name}+matrix", _first_command(config["kind"]), _raw_coin(config)))
    return out


def _paths(node, path=()):
    """Paths of the leaves of node, then of its mappings (marked None)."""
    if isinstance(node, dict) and node:
        for key, value in node.items():
            yield from _paths(value, (*path, key))
        yield (*path, None)
    elif isinstance(node, list) and node:
        for i, value in enumerate(node):
            yield from _paths(value, (*path, i))
    else:
        yield path


def cases(config: dict) -> list:
    """(path, change) of every mutation of config: each leaf to each of
    VALUES or DELETE, and UNKNOWN added to each mapping."""
    out = []
    for path in _paths(config):
        if path and path[-1] is None:
            out.append((path[:-1], UNKNOWN))
        else:
            out += [(path, i) for i in range(len(VALUES))] + [(path, DELETE)]
    return out


def mutate(config: dict, path: tuple, change) -> dict:
    """config with the leaf at path set to VALUES[change] or deleted, or with
    an unknown key added to the mapping at path."""
    out = copy.deepcopy(config)
    if change == UNKNOWN:
        path, change = (*path, "no_such_key"), 0
    node = out
    for key in path[:-1]:
        node = node[key]
    if change == DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(VALUES[change])
    return out


def run(command: str, config: dict, workdir: str) -> tuple:
    """(exit code, stdout, stderr, warnings) of one in-process CLI run."""
    from loopwalk import cli

    path = os.path.join(workdir, "config.yaml")
    with open(path, "w") as fh:
        yaml.safe_dump(config, fh)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = cli.main([command, "--config", path, "--steps", str(STEPS)])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


def problems(change, code, stdout: str, stderr: str, caught: list) -> list:
    """What the outcome of a case's run breaks of the rules in the module docstring."""
    found = []
    if change == UNKNOWN and code != 2:
        found.append(f"an unknown key exits {code!r}")
    if code not in (0, 2, 3):
        found.append(f"exit code {code!r}")
    if caught:
        found.append(f"warnings {caught}")
    if code == 0 and _NAN.search(stdout):
        found.append("nan in the output")
    if code in (2, 3) and (stdout or stderr.count("\n") != 1 or not stderr.endswith("\n")):
        found.append(f"stdout {len(stdout)} chars, stderr {stderr!r}")
    return found


def main() -> int:
    runs, failed = 0, 0
    with tempfile.TemporaryDirectory() as workdir:
        for name, command, config in bases():
            for path, change in cases(config):
                runs += 1
                case = f"{name} {'.'.join(map(str, path))} -> {change if isinstance(change, str) else VALUES[change]!r}"
                try:
                    outcome = run(command, mutate(config, path, change), workdir)
                except Exception:
                    print(f"{case}: raised", flush=True)
                    raise
                found = problems(change, *outcome)
                if found:
                    failed += 1
                    print(f"{case}: {'; '.join(found)}")
    print(f"{runs} runs, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
