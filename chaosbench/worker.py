"""One benchmark worker process: set up a workload, run its passes, save results.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only`` it
stops once set-up is done, so ``run.py`` can time set-up several times.
Writes ``result.json`` (timings, failures, output fingerprints, per-layer
metrics) into its directory.  An untraced run takes a reference sample
(``reference.py``) before the first pass, after each operation of at least
``REF_AFTER_S`` and at the end of each pass.  After the measured passes it
runs one more, untimed pass whose outputs it saves to ``outputs.pkl`` for the
checks; doing that after the measurement keeps the saving out of the timings
and out of the peak RSS.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy loads its BLAS

import argparse
import dataclasses
import hashlib
import json
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REF_SHARE = 0.15  # length of a reference block, as a share of the segment before it
REF_AFTER_S = 0.25  # operations at least this long end a segment


def to_plain(obj):
    """Program output as plain Python and NumPy values (timings dropped)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_plain(getattr(obj, f.name))
                for f in dataclasses.fields(obj) if f.name != "elapsed"}
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if hasattr(obj, "dtype") and getattr(obj, "shape", None) == ():
        return obj.item()
    return obj


def fingerprint(plain) -> str:
    h = hashlib.sha256()

    def feed(v):
        if isinstance(v, dict):
            h.update(b"{")
            for k in sorted(v):
                h.update(k.encode() + b":")
                feed(v[k])
            h.update(b"}")
        elif isinstance(v, list):
            h.update(b"[")
            for item in v:
                feed(item)
            h.update(b"]")
        elif hasattr(v, "dtype"):
            h.update(f"{v.dtype.str}{v.shape}".encode())
            h.update(np.ascontiguousarray(v))  # hashed in place, not copied
        elif isinstance(v, float):
            h.update(v.hex().encode())
        else:
            h.update(repr(v).encode())

    feed(plain)
    return h.hexdigest()


class Pass:
    """The ``op`` of one pass: times each call and records what it returned."""

    def __init__(self, sink=None, reference=None):
        self.seconds = 0.0
        self.names: list[str] = []
        self.times: dict[str, float] = {}
        self.errors: dict[str, str] = {}
        self.fingerprints: dict[str, str] = {}
        self.sink = sink
        self.reference = reference  # reference(seconds) -> sample, or None
        self.segments = [0.0]
        self.blocks: list[float] = []

    def end_segment(self) -> None:
        """Take a reference block after the operations timed since the last one."""
        if self.reference is not None and self.segments[-1] > 0.0:
            self.blocks.append(self.reference(REF_SHARE * self.segments[-1]))
            self.segments.append(0.0)

    def __call__(self, name, fn, *args):
        self.names.append(name)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failing operation is counted, not fatal
            out = None
            self.errors[name] = f"{type(exc).__name__}: {exc}"
        self.times[name] = time.perf_counter() - t0
        self.seconds += self.times[name]
        self.segments[-1] += self.times[name]
        if self.times[name] >= REF_AFTER_S:
            self.end_segment()
        if name in self.errors:
            return None
        plain = to_plain(out)
        self.fingerprints[name] = fingerprint(plain)
        if self.sink is not None:
            pickle.dump((name, plain), self.sink, protocol=pickle.HIGHEST_PROTOCOL)
        return out

    def summary(self) -> dict:
        return {"seconds": self.seconds, "names": self.names, "times": self.times,
                "errors": self.errors, "fingerprints": self.fingerprints,
                "segments": self.segments[:len(self.blocks)], "blocks": self.blocks}


def _artifact_bytes(pass_dir: Path) -> int:
    """Bytes chaoslab wrote under a pass's output directories, cache included."""
    return sum(p.stat().st_size for p in pass_dir.rglob("*")
               if p.is_file() and p.suffix not in (".stdout", ".stderr"))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=["real", "sign", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    rundir = Path(args.dir)

    import chaoslab

    if Path(chaoslab.__file__).resolve().parent != ROOT / "src" / "chaoslab":
        print(f"chaoslab imported from {chaoslab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import chaoslab.cli
    import workloads
    from inputs import make_inputs

    inp = make_inputs(args.workload, args.seed)
    workdir = Path(rundir) / ("setup" if args.setup_only else "work")
    workdir.mkdir(parents=True)
    if args.workload == "cli":
        workloads.write_cli_inputs(inp, workdir)
        runner = workloads.ChildRunner(workdir)
        runner(["--help"], workdir / "help.stdout")  # first import and byte-compilation
        run_pass = lambda tag, op, r=runner: workloads.cli_pass(inp, workdir, tag, op, r)  # noqa: E731
    else:
        workloads.warm_up_library(chaoslab)
        body = workloads.pass_real if args.workload == "real" else workloads.pass_sign
        run_pass = lambda tag, op: body(chaoslab, inp, op)  # noqa: E731
    ready = time.perf_counter()
    if args.setup_only:
        (workdir / "ready.json").write_text(json.dumps({"ready": ready}))
        return 0

    result = {"ready": ready, "passes": [], "records": []}
    if args.trace:
        result.update(traced_passes(args, chaoslab, inp, workdir, run_pass, result))
    else:
        import reference

        reference.sample(0.0)  # warm-up
        result["first_block"] = reference.sample(0.5)
        start = time.perf_counter()
        while True:
            p = Pass(reference=reference.sample)
            result["records"].append(run_pass(f"p{len(result['passes'])}", p))
            p.end_segment()
            result["passes"].append(p.summary())
            if time.perf_counter() - start >= args.seconds:
                break
        if args.workload == "cli":
            result["peak_rss_mb"] = runner.peak_kib / 1024.0
        else:
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.workload != "cli":  # cli records are checked pass by pass
        with open(rundir / "outputs.pkl", "wb") as sink:
            p = Pass(sink)
            run_pass("checked", p)
        result["checked"] = p.summary()
    (rundir / "result.json").write_text(json.dumps(result))
    return 0


def traced_passes(args, chaoslab, inp, workdir, run_pass, result) -> dict:
    """Pairs of one plain and one traced pass until the run's time is up.

    ``cli`` runs its commands in-process here, so that spans can be taken;
    ``cli.startup_ms`` comes from fresh interpreters instead.
    """
    import tracing
    import workloads

    extra = {}
    if args.workload == "cli":
        startup = []
        child = workloads.ChildRunner(workdir)
        for i in range(5):
            t0 = time.perf_counter()
            child(["--help"], workdir / f"startup{i}.stdout")
            startup.append((time.perf_counter() - t0) * 1e3)
        extra["cli.startup_ms"] = statistics.median(startup)
        runner = workloads.InProcessRunner(chaoslab.cli, workdir)
        run_pass = lambda tag, op: workloads.cli_pass(inp, workdir, tag, op, runner)  # noqa: E731
    per_pass, overhead = [], []
    all_spans = []
    start = time.perf_counter()
    while True:
        plain = Pass()
        result["records"].append(run_pass(f"p{len(result['passes'])}", plain))
        result["passes"].append(plain.summary())
        tracer = tracing.Tracer()
        traced = Pass()
        tag = f"p{len(result['passes'])}"
        tracer.install()
        try:
            result["records"].append(run_pass(tag, traced))
        finally:
            tracer.uninstall()
        result["passes"].append(traced.summary())
        metrics = tracing.layer_metrics(tracer.spans)
        if args.workload == "cli":
            metrics["cli.artifact_bytes"] = _artifact_bytes(workdir / tag)
        metrics.update(extra)
        per_pass.append(metrics)
        overhead.append(100.0 * (traced.seconds - plain.seconds) / plain.seconds)
        all_spans.append(tracer.spans)
        if time.perf_counter() - start >= args.seconds:
            break
    per_layer = {name: statistics.median(m[name] for m in per_pass) for name in tracing.PER_LAYER
                 if name != "trace.overhead_pct"}
    per_layer["trace.overhead_pct"] = statistics.median(overhead)
    with open(Path(args.dir) / "spans.jsonl", "w") as f:
        for i, spans in enumerate(all_spans):
            for j, span in enumerate(spans):
                f.write(json.dumps({"pass": i, "id": j, **span}) + "\n")
    return {"per_layer": per_layer}


if __name__ == "__main__":
    sys.exit(main())
