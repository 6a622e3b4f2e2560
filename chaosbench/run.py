"""chaoslab benchmark: run one workload under one seed and print its metrics.

    python3 chaosbench/run.py --workload real --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The work runs in a worker process
(``worker.py``) against ``src/chaoslab``; this process times set-up, checks
every output against ``oracles`` (which never import chaoslab) and prints one
JSON line: ``correct``, ``attempted``, ``failed`` and the metrics, end to end
with ``--trace 0`` and per layer with ``--trace 1``.  The end-to-end times
are scaled to a fixed host speed by the reference samples of
``reference.py``.  BLAS is held to one thread here and in every child.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import pickle
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / "chaosbench-out"
SETUP_SAMPLES = 8  # set-up-only workers, plus the measuring worker's own set-up
DEADLINE_S = 170.0
SETUP_REF_S = 0.3  # reference block between two set-ups


def spawn_worker(args, rundir: Path, setup_only: bool, timeout: float) -> tuple[float, int]:
    """Start a worker and wait for it; returns (start time, exit code)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--dir", str(rundir)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        code = -9
    return start, code


def fmt(values) -> str:
    return "[" + " ".join(f"{v:.4g}" for v in values) + "]"


def load_outputs(path: Path) -> dict:
    outputs = {}
    with open(path, "rb") as f:
        while True:
            try:
                name, plain = pickle.load(f)
            except EOFError:
                return outputs
            outputs[name] = plain


def score(workload: str, seed: int, result: dict, rundir: Path) -> tuple[int, int, bool, list]:
    """(attempted, failed, correct, reasons): every operation of every pass checked.

    The outputs of the worker's untimed checked pass are checked against the
    references, and every measured pass's output must be bit-identical to
    them (same fingerprint).  ``cli`` records are parsed and checked in every
    pass.
    """
    from checks import checks_for, parse_cli_record
    from inputs import make_inputs
    from workloads import KNOWN_FAULTS

    checks = checks_for(workload, make_inputs(workload, seed))

    def judge(name, get_output):
        try:
            return checks[name](get_output())
        except Exception as exc:  # an output the checks cannot even read is wrong
            return f"unreadable output ({type(exc).__name__}: {exc})"

    verdict = {}
    if workload != "cli":
        checked = result["checked"]
        outputs = load_outputs(rundir / "outputs.pkl")
        for name in checked["names"]:
            verdict[name] = checked["errors"].get(name) or judge(name, lambda: outputs[name])
    attempted, failed, correct, reasons = 0, 0, True, []
    for i, p in enumerate(result["passes"]):
        if set(p["names"]) != set(checks):
            correct = False
            reasons.append(f"pass {i}: operations differ from the checks")
        for name in p["names"]:
            attempted += 1
            if workload == "cli":
                reason = p["errors"].get(name) or judge(
                    name, lambda: parse_cli_record(name, result["records"][i][name]))
            elif name in p["errors"]:
                reason = p["errors"][name]
            elif p["fingerprints"][name] != checked["fingerprints"].get(name):
                reason = "output differs from the checked pass"
            else:
                reason = verdict[name]
            if reason:
                failed += 1
                correct = correct and name in KNOWN_FAULTS
                if name not in KNOWN_FAULTS or i == 0:
                    reasons.append(f"pass {i}: {name}: {reason}")
    return attempted, failed, correct, reasons


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["real", "sign", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chaoslab" / "__init__.py").is_file():
        print(f"no chaoslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One core for this process and every child: the reference blocks and the
    # work they scale then run where the host's speed is the same.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    t_begin = time.perf_counter()
    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        setups, setup_refs = [], []
        if not args.trace:
            reference.sample(0.0)  # warm-up
        for i in range(SETUP_SAMPLES if not args.trace else 0):
            sub = rundir / f"setup{i}"
            setup_refs.append(reference.sample(SETUP_REF_S))
            start, code = spawn_worker(args, sub, True, 60.0)
            if code != 0:
                print(f"set-up worker exited with {code}", file=sys.stderr)
                return 1
            setups.append(json.loads((sub / "setup" / "ready.json").read_text())["ready"] - start)
            shutil.rmtree(sub)
        if not args.trace:
            setup_refs.append(reference.sample(SETUP_REF_S))
        remaining = DEADLINE_S - (time.perf_counter() - t_begin)
        start, code = spawn_worker(args, rundir, False, remaining)
        if code != 0:
            print(f"worker exited with {code}", file=sys.stderr)
            return 1
        result = json.loads((rundir / "result.json").read_text())
        setups.append(result["ready"] - start)
        attempted, failed, correct, reasons = score(args.workload, args.seed, result, rundir)
        for reason in reasons:
            print(reason, file=sys.stderr)
        if args.trace:
            from tracing import PER_LAYER

            metrics = {name: {"value": value, "unit": PER_LAYER[name][0]}
                       for name, value in result["per_layer"].items()}
            shutil.copy(rundir / "spans.jsonl", OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            # the worker's first block follows the last set-up
            setup_refs.append(result["first_block"])
            norm_setups = [reference.normalised([s], setup_refs[i:i + 2])
                           for i, s in enumerate(setups)]
            norm_passes, block = [], result["first_block"]
            for p in result["passes"]:
                norm_passes.append(reference.normalised(p["segments"], [block, *p["blocks"]]))
                block = p["blocks"][-1]
            metrics = {
                "pass_s": {"value": statistics.median(norm_passes), "unit": "s"},
                "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
                "setup_s": {"value": statistics.median(norm_setups), "unit": "s"},
            }
            blocks = [b for p in result["passes"] for b in p["blocks"]]
            print(f"passes: {len(norm_passes)}, wall {fmt(p['seconds'] for p in result['passes'])}, "
                  f"at reference speed {fmt(norm_passes)}; set-ups: wall {fmt(setups)}, "
                  f"at reference speed {fmt(norm_setups)}; reference blocks (ms): "
                  f"set-up {fmt(1e3 * b for b in setup_refs)}, "
                  f"passes median {1e3 * statistics.median(blocks):.2f} of {len(blocks)}",
                  file=sys.stderr)
            ops = {name: statistics.median(p["times"][name] for p in result["passes"])
                   for name in result["passes"][0]["times"]}
            print("median ms per operation: " + ", ".join(
                f"{name} {1e3 * t:.1f}" for name, t in ops.items()), file=sys.stderr)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
