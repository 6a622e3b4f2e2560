"""Command-line front end: supnorm, verify, scaling, norm, walsh.

Exit codes: 0 success, 1 check failure, 2 usage or parse error, 3 resource
cap exceeded.  ``_emit`` writes every artifact.  verify, scaling and walsh
have a CSV and a JSON form and write those that ``--format`` asks for;
supnorm and norm write JSON whatever it asks.  A JSON artifact embeds the
effective configuration snapshot under a ``config`` key and the verify and
scaling CSVs lead with a ``# config`` comment line, while ``walsh-k<K>.csv``
is a bare matrix file that supnorm and norm read back.  Artifacts are cached
under the output directory keyed by command, parameters and snapshot, so
re-running an identical command re-emits byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

from . import extremal, matio, spaces
from .chaos import eval_decoupled, eval_undecoupled
from .config import FORMATS, RunConfig, load_config
from .errors import EnumerationCapError, MatrixParseError
from .matio import format_number
from .rearrange import rearrangement
from .suites import SUITE_NAMES, SuiteResult, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chaoslab",
        description="Exact norms and extremal sign searches for degree-2 chaos polynomials.",
    )
    parser.add_argument("--config", metavar="PATH", help="config file overlaying the packaged defaults")
    parser.add_argument("--seed", type=int, metavar="U64", help="override the run seed")
    parser.add_argument("--out", metavar="DIR", help="output directory for artifacts")
    parser.add_argument("--format", choices=FORMATS, help="artifact format")
    parser.add_argument("--no-cache", action="store_true", help="bypass the result cache")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("supnorm", help="exact sup norm of a chaos polynomial")
    p.add_argument("matrix", help="matrix file ('n m' header, whitespace rows; .csv/.json also accepted)")
    p.add_argument("--mode", choices=["decoupled", "undecoupled"], default="decoupled")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=list(SUITE_NAMES) + ["all"])

    p = sub.add_parser("scaling", help="sup-norm statistics against n^(3/2)")
    p.add_argument("--n", default="1,2,4,8", metavar="LIST", help="comma-separated sizes")
    p.add_argument("--samples", type=int, default=None, help="Monte-Carlo samples per size")

    p = sub.add_parser("norm", help="evaluate a symmetric-space norm of a chaos polynomial")
    p.add_argument("matrix")
    p.add_argument("--space", required=True, help="lp:Q | orlicz-exp | marc:EPS | lorentz:P")
    p.add_argument("--mode", choices=["decoupled", "undecoupled"], default="decoupled")
    p.add_argument("--export-rearrangement", metavar="PATH",
                   help="also write the decreasing rearrangement as two-column CSV")

    p = sub.add_parser("walsh", help="emit a Walsh sign arrangement")
    p.add_argument("--k", type=int, required=True, help="matrix size is 2^k")
    p.add_argument("--defect", action="store_true", help="also print the Sidon defect ratio")
    return parser


def _effective_config(args) -> RunConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.format is not None:
        cfg.out_format = args.format
    if args.no_cache:
        cfg.cache = False
    return cfg


def _emit(cfg: RunConfig, command: str, params: dict, stem: str, payload, csv=None) -> str:
    """Write ``<stem>.json`` from ``payload()`` plus the config snapshot, and ``<stem>.csv`` from
    ``csv()``; returns the first text written.

    A command with a CSV form writes the formats ``--format`` asks for, one without writes JSON
    whatever it asks.  Texts are cached as ``.cache/<key>-<stem>.<ext>``, the key hashing command,
    params and snapshot, and a cached text is replayed without calling its maker.
    """
    def to_json() -> str:
        return json.dumps({**payload(), "config": cfg.snapshot()}, sort_keys=True, indent=2) + "\n"

    exts = [e for e in ("csv", "json") if cfg.out_format in (e, "both")] if csv else ["json"]
    key_obj = {"command": command, "params": params, "config": cfg.snapshot()}
    key = hashlib.sha256(json.dumps(key_obj, sort_keys=True).encode()).hexdigest()[:32]
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    texts = []
    for ext in exts:
        cache_file = out_dir / ".cache" / f"{key}-{stem}.{ext}"
        if cfg.cache and cache_file.exists():
            text = cache_file.read_text()
        else:
            text = csv() if ext == "csv" else to_json()
            if cfg.cache:
                cache_file.parent.mkdir(exist_ok=True)
                cache_file.write_text(text)
        (out_dir / f"{stem}.{ext}").write_text(text)
        texts.append(text)
    return texts[0]


def _config_comment(cfg: RunConfig) -> str:
    return "# config " + json.dumps(cfg.snapshot(), sort_keys=True)


def _cmd_supnorm(args, cfg: RunConfig) -> int:
    a = matio.load_matrix(args.matrix)
    if args.mode == "decoupled":
        value = extremal.sup_norm_decoupled(a)
    else:
        value = extremal.sup_norm_undecoupled(a)
    n, m = a.shape
    print(f"supnorm mode={args.mode} n={n} m={m} value={format_number(value)}")
    _emit(cfg, "supnorm", {"matrix": str(args.matrix), "mode": args.mode}, "supnorm",
          lambda: {"command": "supnorm", "mode": args.mode, "n": n, "m": m, "value": value})
    return EXIT_OK


def _suite_csv(cfg: RunConfig, results: list[SuiteResult]) -> str:
    lines = [_config_comment(cfg), "suite,check,status,value,bound,tol"]
    for res in results:
        for c in res.checks:
            bound = c.bound.replace('"', "'")
            lines.append(
                f"{res.suite},{c.id},{c.status},{format_number(c.value)},"
                f'"{bound}",{format_number(c.tol)}'
            )
    return "\n".join(lines) + "\n"


def _suite_json(results: list[SuiteResult]) -> dict:
    return {
        "command": "verify",
        "suites": [
            {
                "suite": res.suite,
                "passed": res.passed,
                "checks": [dataclasses.asdict(c) for c in res.checks],
            }
            for res in results
        ],
    }


def _cmd_verify(args, cfg: RunConfig) -> int:
    results = run_suite(args.suite, cfg)
    buffered = []
    for res in results:
        for c in res.checks:
            mark = {"pass": "PASS", "fail": "FAIL", "skip": "SKIP"}[c.status]
            buffered.append(
                f"[{mark}] {res.suite}.{c.id} value={format_number(c.value)} bound: {c.bound}"
            )
        verdict = "PASS" if res.passed else "FAIL"
        buffered.append(f"suite {res.suite}: {verdict} ({res.wall_time:.2f}s)")
    print("\n".join(buffered))
    _emit(cfg, "verify", {"suite": args.suite}, f"verify-{args.suite}",
          lambda: _suite_json(results), csv=lambda: _suite_csv(cfg, results))
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _scaling_rows(cfg: RunConfig, ns: list[int], samples: int) -> list[dict]:
    rows = []

    def add(n: int, mode: str, seed: int, run) -> None:
        """Time ``run()``, which returns (value, samples); over a cap, add a skip row."""
        t0 = time.perf_counter()
        try:
            value, covered = run()
            elapsed = time.perf_counter() - t0
        except EnumerationCapError:
            value, covered, elapsed = None, 0, 0.0
        rows.append({
            "n": n,
            "mode": mode,
            "value": value,
            "ratio": None if value is None else value / n**1.5,
            "samples": covered,
            "seed": seed,
            "elapsed_ms": elapsed * 1000.0,
            "status": "skip" if value is None else "ok",
        })

    def search(rep: extremal.SearchReport) -> tuple[float, int]:
        return rep.value, rep.samples

    for n in ns:
        if 2 ** (n * n) <= samples and n <= extremal.EXACT_AVERAGE_CAP:
            add(n, "exhaustive_average", 0, lambda: search(extremal.exact_average(n)))
        else:
            add(n, "monte_carlo", cfg.seed,
                lambda: search(extremal.monte_carlo_average(n, samples, cfg.seed)))
        add(n, "exhaustive", 0, lambda: search(extremal.exhaustive_inf(n)))
        k = n.bit_length() - 1
        if n == 2**k:
            add(n, "walsh", 0, lambda: (
                extremal.sup_norm_decoupled(extremal.walsh_sign_arrangement(k)), 2 ** (n - 1)
            ))
    return rows


def _scaling_csv(cfg: RunConfig, rows: list[dict]) -> str:
    lines = [_config_comment(cfg), "n,mode,value,value_over_n15,samples,seed,elapsed_ms"]
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r["n"]),
                    r["mode"] if r["status"] == "ok" else f"{r['mode']}[skip]",
                    format_number(r["value"]),
                    format_number(r["ratio"]),
                    str(r["samples"]),
                    str(r["seed"]),
                    format_number(r["elapsed_ms"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _cmd_scaling(args, cfg: RunConfig) -> int:
    try:
        ns = [int(tok) for tok in args.n.replace(",", " ").split()]
    except ValueError:
        print(f"error: --n must be a comma-separated integer list, got {args.n!r}",
              file=sys.stderr)
        return EXIT_USAGE
    if not ns or any(n < 1 for n in ns):
        print("error: --n must list positive integers", file=sys.stderr)
        return EXIT_USAGE
    samples = args.samples if args.samples is not None else cfg.samples
    rows = functools.cache(lambda: _scaling_rows(cfg, ns, samples))
    text = _emit(cfg, "scaling", {"n": ns, "samples": samples, "seed": cfg.seed}, "scaling",
                 lambda: {"command": "scaling", "rows": rows()},
                 csv=lambda: _scaling_csv(cfg, rows()))
    print(text, end="")
    return EXIT_OK


def _cmd_norm(args, cfg: RunConfig) -> int:
    spec = spaces.parse_space(args.space)
    a = matio.load_matrix(args.matrix)
    if args.mode == "decoupled":
        x = eval_decoupled(a, max_bits=cfg.max_bits_2d)
    else:
        x = eval_undecoupled(a, max_bits=cfg.max_bits_1d)
    r = rearrangement(x) if args.export_rearrangement else None
    value = spaces.evaluate_norm(spec, x, cfg.orlicz_rel_tol, r)
    print(f"norm space={args.space} mode={args.mode} value={format_number(value)}")
    if r is not None:
        Path(args.export_rearrangement).write_text(matio.rearrangement_to_csv(r))
    n, m = a.shape
    _emit(cfg, "norm", {"matrix": str(args.matrix), "space": args.space, "mode": args.mode}, "norm",
          lambda: {"command": "norm", "space": args.space, "mode": args.mode, "n": n, "m": m,
                   "value": value})
    return EXIT_OK


def _cmd_walsh(args, cfg: RunConfig) -> int:
    theta = extremal.walsh_sign_arrangement(args.k)
    defect = extremal.sidon_defect(args.k) if args.defect else None  # a cap error prints nothing
    sys.stdout.write(matio.format_matrix_text(theta))
    doc = {"command": "walsh", "k": args.k, "n": int(theta.shape[0])}
    if args.defect:
        doc["defect"] = defect
        print(f"defect={format_number(defect)}")
    _emit(cfg, "walsh", {"k": args.k, "defect": args.defect}, f"walsh-k{args.k}",
          lambda: {**doc, "matrix": [[int(v) for v in row] for row in theta]},
          csv=lambda: matio.format_matrix_csv(theta))
    return EXIT_OK


_COMMANDS = {
    "supnorm": _cmd_supnorm,
    "verify": _cmd_verify,
    "scaling": _cmd_scaling,
    "norm": _cmd_norm,
    "walsh": _cmd_walsh,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _effective_config(args)
    except (OSError, ValueError, configparser.Error) as exc:
        print(f"error: bad config: {' '.join(str(exc).split())}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args, cfg)
    except MatrixParseError as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
