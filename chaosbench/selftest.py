"""Self-test of the benchmark's checks.

    python3 chaosbench/selftest.py [--seed N] [--workload real|sign|cli]

Runs one pass of each workload against ``src/chaoslab`` (``cli`` through
``chaoslab.cli.main`` in-process), then feeds every check the program's real
output and, once per value in that output, a copy with that one value
perturbed.  A check must accept the real output (or, for the two known-fault
operations, reject it) and reject every perturbed copy.  Exits 1 otherwise.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import chaoslab  # noqa: E402
import chaoslab.cli  # noqa: E402

import workloads  # noqa: E402
from checks import checks_for, parse_cli_record  # noqa: E402
from inputs import make_inputs  # noqa: E402
from worker import to_plain  # noqa: E402


def leaves(value, path=()):
    """Paths to every scalar or array inside a plain value."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from leaves(item, path + (i,))
    else:
        yield path


def perturbed(value, path):
    """A copy of ``value`` with the one value at ``path`` changed."""
    out = copy.deepcopy(value)
    if not path:
        return _change(out, ())
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _change(parent[path[-1]], path)
    return out


def _change(v, path):
    if path and path[-1] == "elapsed_ms":
        return -1.0  # a timing has no reference; only its sign is checked
    if isinstance(v, bool):
        return not v
    if isinstance(v, int):
        return v + 1
    if isinstance(v, float):
        return v * (1 + 1e-5) + 1e-9 if math.isfinite(v) else 0.0
    if isinstance(v, str):
        return v + "x"
    if v is None:
        return 0.0
    if isinstance(v, np.ndarray):
        flat = v.reshape(-1)
        i = flat.size // 2
        flat[i] = flat[i] * (1 + 1e-5) + 1e-9
        return v
    raise TypeError(f"cannot perturb {type(v).__name__}")


def outputs_of_one_pass(workload: str, inp: dict, workdir: Path) -> dict:
    outputs = {}

    def op(name, fn, *args):
        out = fn(*args)
        outputs[name] = to_plain(out)
        return out

    if workload == "cli":
        workloads.write_cli_inputs(inp, workdir)
        runner = workloads.InProcessRunner(chaoslab.cli, workdir)
        records = workloads.cli_pass(inp, workdir, "p0", op, runner)
        return {name: parse_cli_record(name, rec) for name, rec in records.items()}
    body = workloads.pass_real if workload == "real" else workloads.pass_sign
    body(chaoslab, inp, op)
    return outputs


def selftest(workload: str, seed: int) -> int:
    inp = make_inputs(workload, seed)
    checks = checks_for(workload, inp)
    (ROOT / "chaosbench-out").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / "chaosbench-out"))
    try:
        outputs = outputs_of_one_pass(workload, inp, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems = 0
    if set(outputs) != set(checks):
        print(f"{workload}: operations {sorted(set(outputs) ^ set(checks))} lack a check or an output")
        problems += 1
    for name in sorted(set(outputs) & set(checks)):
        check, out = checks[name], outputs[name]
        verdict = check(out)
        expected_fault = name in workloads.KNOWN_FAULTS
        wrong = bool(verdict) != expected_fault
        if wrong:
            print(f"FAIL {workload}.{name}: real output {'accepted' if not verdict else 'rejected: ' + verdict}")
        paths = list(leaves(out))
        missed = [p for p in paths if check(perturbed(out, p)) is None]
        for p in missed:
            print(f"FAIL {workload}.{name}: accepted a perturbed value at {'.'.join(map(str, p)) or 'value'}")
        problems += wrong + len(missed)
        state = "known fault, rejected" if expected_fault else "accepted"
        print(f"{'ok  ' if not (wrong or missed) else 'FAIL'} {workload}.{name}: real output {state}; "
              f"{len(paths) - len(missed)}/{len(paths)} perturbations rejected")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", choices=["real", "sign", "cli"], action="append")
    args = parser.parse_args()
    problems = sum(selftest(w, args.seed) for w in args.workload or ["real", "sign", "cli"])
    print(f"{problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
