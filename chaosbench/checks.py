"""Per-operation checks of each workload, built on the references in ``oracles``.

``checks_for(workload, inputs)`` maps every operation name of a pass to a
function of the operation's plain output that returns None when the output
is right, or the reason it is wrong.  References are computed on first use
and kept for the run.  For ``cli`` the output is the command's parsed record
(see ``parse_cli_record``).  Nothing here imports chaoslab.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import oracles as ref
from inputs import STALE_FIRST, STALE_SECOND

PHI_EPS = 0.25


class Lazy(dict):
    """name -> reference, computed on first use by the factory given for it."""

    def __init__(self, factories: dict):
        super().__init__()
        self.factories = factories

    def __missing__(self, key):
        value = self[key] = self.factories[key]()
        return value


def _step_fields(a: np.ndarray) -> dict:
    n, m = a.shape
    return {"n": n, "m": m}


def real_checks(inp: dict) -> dict:
    a10, a8, b18, g20 = inp["a10"], inp["a8"], inp["b18"], inp["g20"]
    shift = np.zeros((16, 16))
    shift[:8, 8:] = a8
    R = Lazy({
        "x10": lambda: ref.decoupled_atoms(a10),
        "law10": lambda: ref.Law(R["x10"]),
        "x8": lambda: ref.decoupled_atoms(a8),
        "law8": lambda: ref.Law(R["x8"]),
        "shift": lambda: ref.undecoupled_atoms(shift),
        "y18": lambda: ref.undecoupled_atoms(b18),
        "law18": lambda: ref.Law(R["y18"]),
    })
    return {
        "a10.eval_decoupled": lambda o: ref.check_atoms(o, R["x10"], _step_fields(a10)),
        "a10.rearrangement": lambda o: ref.check_rearrangement(o, R["law10"]),
        "a10.orlicz_exp_norm": lambda o: ref.check_orlicz(o, R["law10"]),
        "a10.lorentz_norm": lambda o: ref.check_value(o, ref.lorentz_norm(R["law10"], 1.5), 1e-8),
        "a10.lp_norm_4": lambda o: ref.check_value(o, ref.lp_norm(R["law10"], 4)),
        "a10.lp_norm_inf": lambda o: ref.check_value(o, R["law10"].max, 1e-12),
        "a10.quasinorm_phi_eps": lambda o: ref.check_value(o, ref.quasinorm(R["law10"], PHI_EPS), 1e-9),
        "a10.exp_moment": lambda o: ref.check_value(o, ref.exp_moment(R["law10"], inp["exp_u"])),
        "a8.eval_decoupled": lambda o: ref.check_atoms(o, R["x8"], _step_fields(a8)),
        "a8.rearrangement": lambda o: ref.check_rearrangement(o, R["law8"]),
        "a8.distribution": lambda o: ref.check_distribution(o, R["law8"]),
        "a8.marcinkiewicz_norm": lambda o: ref.check_value(o, ref.marcinkiewicz_norm(R["law8"], PHI_EPS), 1e-9),
        "a8.shift.eval_undecoupled": lambda o: ref.check_atoms(o, R["shift"], {"n": 16}),
        # Lemma 3: the shifted undecoupled chaos has the decoupled chaos's law
        "a8.shift.equimeasurable": lambda o: None if o is True else f"equimeasurable returned {o!r}",
        "b18.eval_undecoupled": lambda o: ref.check_atoms(o, R["y18"], {"n": 18}),
        "b18.rearrangement": lambda o: ref.check_rearrangement(o, R["law18"]),
        "b18.orlicz_exp_norm": lambda o: ref.check_orlicz(o, R["law18"]),
        "g20.sup_norm_decoupled": lambda o: ref.check_value(o, ref.sup_decoupled(g20), 1e-12),
        "g20.sup_norm_undecoupled": lambda o: ref.check_value(o, ref.sup_undecoupled(g20), 1e-12),
    }


def _theorem6_check(theta: np.ndarray, decoupled: bool):
    n = theta.shape[0]

    def check(out):
        want = ref.sup_decoupled(theta) if decoupled else ref.sup_undecoupled(theta)
        if n <= 10:  # small enough for the plain double scan as a second opinion
            second = (ref.double_scan_decoupled(theta) if decoupled
                      else float(np.abs(ref.undecoupled_atoms(theta)).max()))
            if second != want:
                return f"reference scans disagree: {want} vs {second}"
        reason = ref.check_value(out, want, 0.0)
        if reason or decoupled:
            return reason
        # Theorem 6: the undecoupled sup never exceeds the decoupled one
        return None if out <= ref.sup_decoupled(theta) else "undecoupled sup above decoupled"

    return check


def sign_checks(inp: dict) -> dict:
    x = inp["int10"]
    R = Lazy({
        "x": lambda: ref.decoupled_atoms(x),
        "law": lambda: ref.Law(R["x"]),
        "mc12": lambda: ref.monte_carlo_average(12, 1000, inp["mc_seed"]),
        "mc16": lambda: ref.monte_carlo_average(16, 100, inp["mc_seed"]),
        "t7full": lambda: ref.theorem7(0.25, 2, "full"),
        "t7corner": lambda: ref.theorem7(0.25, 4, "corner"),
    })
    checks = {
        "s22.sup_norm_decoupled": lambda o: ref.check_value(o, ref.sup_decoupled(inp["s22"]), 0.0),
    }
    for theta in inp["theorem6"]:
        n = theta.shape[0]
        checks[f"theorem6.n{n}.sup_norm_undecoupled"] = _theorem6_check(theta, False)
        checks[f"theorem6.n{n}.sup_norm_decoupled"] = _theorem6_check(theta, True)
    for n in range(2, 6):
        checks[f"exhaustive_inf.n{n}"] = lambda o, n=n: ref.check_search(o, ref.exhaustive_inf(n, False))
        checks[f"exhaustive_inf.symmetric.n{n}"] = lambda o, n=n: ref.check_search(o, ref.exhaustive_inf(n, True))
    for n in range(1, 5):
        checks[f"exact_average.n{n}"] = lambda o, n=n: ref.check_search(o, ref.exact_average(n))
    checks["monte_carlo_average.n12"] = lambda o: ref.check_search(o, R["mc12"])
    checks["monte_carlo_average.n16"] = lambda o: ref.check_search(o, R["mc16"])
    checks["walsh_sign_arrangement.k5"] = lambda o: ref.check_walsh(o, 5)
    for k in range(5):
        checks[f"sidon_defect.k{k}"] = lambda o, k=k: _check_sidon(o, k)
    checks["theorem7_witness.full.K2"] = lambda o: ref.check_theorem7(o, R["t7full"])
    checks["theorem7_witness.corner.K4"] = lambda o: ref.check_theorem7(o, R["t7corner"])
    checks.update({
        "int10.eval_decoupled": lambda o: ref.check_atoms(o, R["x"], _step_fields(x)),
        "int10.rearrangement": lambda o: ref.check_rearrangement(o, R["law"]),
        "int10.orlicz_exp_norm": lambda o: ref.check_orlicz(o, R["law"]),
        "int10.marcinkiewicz_norm": lambda o: ref.check_value(o, ref.marcinkiewicz_norm(R["law"], PHI_EPS), 1e-9),
        "int10.lorentz_norm": lambda o: ref.check_value(o, ref.lorentz_norm(R["law"], 1.5), 1e-8),
        "int10.lp_norm_400": lambda o: ref.check_lp_bracket(o, R["law"], 400),
    })
    return checks


def _check_sidon(out, k: int):
    # Proposition: sup of the Walsh arrangement is at most 2^(3k/2), so the
    # defect is at most 2^(-k/2)
    want = ref.sup_decoupled(ref.walsh(k)) / 4.0**k
    reason = ref.check_value(out, want, 1e-15)
    if reason:
        return reason
    return None if out <= 2.0 ** (-k / 2.0) else f"defect {out} above 2^(-k/2)"


# --- cli -----------------------------------------------------------------------


def _read(path: Path) -> str | None:
    return path.read_text() if path.exists() else None


def _number(text: str):
    return None if text == "NA" else float(text)


def _stdout_value(text: str):
    """The number after the last ``value=`` on stdout."""
    for token in reversed(text.split()):
        if token.startswith("value="):
            return _number(token[len("value="):])
    return None


def _csv_rows(text: str | None) -> list[list[str]] | None:
    if text is None:
        return None
    return [row for row in csv.reader(io.StringIO(text)) if row and not row[0].startswith("#")]


def _json(text: str | None):
    if text is None:
        return None
    doc = json.loads(text)
    doc.pop("config", None)
    return doc


def _verify_rows(rows: list[list[str]] | None) -> dict | None:
    if rows is None:
        return None
    return {f"{r[0]}.{r[1]}": {"status": r[2], "value": _number(r[3])} for r in rows[1:]}


def _scaling_rows(rows: list[list[str]] | None) -> list | None:
    if rows is None:
        return None
    out = []
    for r in rows[1:]:
        mode, skip = (r[1][:-6], True) if r[1].endswith("[skip]") else (r[1], False)
        out.append({"n": int(r[0]), "mode": mode, "value": _number(r[2]),
                    "ratio": _number(r[3]), "samples": int(r[4]), "seed": int(r[5]),
                    "status": "skip" if skip else "ok", "elapsed_ms": float(r[6])})
    return out


def _matrix_text(text: str) -> np.ndarray | None:
    lines = [line.split() for line in text.replace(",", " ").splitlines() if line.strip()]
    if not lines or len(lines[0]) != 2:
        return None
    n = int(lines[0][0])
    return np.array([[float(v) for v in row] for row in lines[1 : 1 + n]])


def parse_cli_record(name: str, record: dict) -> dict:
    """The checked part of one command's result: exit code, stdout, artifacts."""
    stdout = Path(record["stdout"]).read_text()
    out = Path(record["out"])
    parsed = {"rc": record["rc"]}
    if name == "verify":
        rows = {}
        for line in stdout.splitlines():
            if line.startswith("["):
                mark, check, value = line.split(" ")[:3]
                rows[check] = {"status": mark.strip("[]").lower(), "value": _number(value[6:])}
        doc = _json(_read(out / "verify-all.json"))
        parsed.update(
            stdout=rows,
            csv=_verify_rows(_csv_rows(_read(out / "verify-all.csv"))),
            json=None if doc is None else {
                f"{s['suite']}.{c['id']}": {"status": c["status"], "value": c["value"]}
                for s in doc["suites"] for c in s["checks"]
            },
        )
    elif name == "scaling":
        doc = _json(_read(out / "scaling.json"))
        parsed.update(
            stdout=_scaling_rows(_csv_rows(stdout)),
            csv=_scaling_rows(_csv_rows(_read(out / "scaling.csv"))),
            json=None if doc is None else doc["rows"],
        )
    elif name == "walsh":
        matrix, _, defect = stdout.rpartition("defect=")
        parsed.update(
            stdout_matrix=_matrix_text(matrix),
            stdout_defect=float(defect) if defect.strip() else None,
            csv=(lambda t: None if t is None else _matrix_text(t))(_read(out / "walsh-k4.csv")),
            json=_json(_read(out / "walsh-k4.json")),
        )
        if parsed["json"] is not None:
            parsed["json"]["matrix"] = np.array(parsed["json"]["matrix"], dtype=np.float64)
    else:
        stem = "norm" if name.startswith("norm.") else "supnorm"
        parsed.update(value=_stdout_value(stdout), json=_json(_read(out / f"{stem}.json")))
    return parsed


def _check_rc(rec) -> str | None:
    return None if rec.get("rc") == 0 else f"exit code {rec.get('rc')!r}"


def _check_value_artifact(rec, want: float, rtol: float, fields: dict) -> str | None:
    """Exit code 0; stdout value= and the JSON artifact's value match; fields equal."""
    reason = _check_rc(rec)
    if reason:
        return reason
    if not isinstance(rec.get("value"), float) or not ref.close(rec["value"], want, rtol):
        return f"stdout value {rec.get('value')!r}, reference {want!r}"
    doc = rec.get("json")
    if not isinstance(doc, dict):
        return "JSON artifact missing"
    value = doc.get("value")
    if not isinstance(value, (int, float)) or not ref.close(float(value), want, rtol):
        return f"JSON value {value!r}, reference {want!r}"
    return ref.compare({k: doc.get(k) for k in fields}, fields)


def _check_norm_root(rec, law: ref.Law, fields: dict) -> str | None:
    """As _check_value_artifact, for the Orlicz norm, whose check is its root property."""
    reason = _check_rc(rec) or ref.check_orlicz(rec.get("value"), law)
    if reason:
        return f"stdout: {reason}"
    doc = rec.get("json")
    if not isinstance(doc, dict):
        return "JSON artifact missing"
    if doc.get("value") != rec["value"]:
        return f"JSON value {doc.get('value')!r}, stdout {rec['value']!r}"
    return ref.compare({k: doc.get(k) for k in fields}, fields)


def _near(want: float, rtol: float):
    return lambda v: isinstance(v, (int, float)) and ref.close(float(v), want, rtol)


def _within(lo: float, hi: float):
    return lambda v: isinstance(v, (int, float)) and lo <= v <= hi


def _absent(v) -> bool:
    return v is None


def verify_references(seed: int = 1235813) -> dict:
    """check id -> test of its value, for every check of ``verify all`` at the
    benchmark's pinned configuration (``workloads.VERIFY_CONFIG``)."""
    want = {}
    # khinchin: worst moments over 100 unit-mass matrices from Philox(seed + 1)
    rng = np.random.Generator(np.random.Philox(key=seed + 1))
    worst = {q: 0.0 for q in (2, 3, 4, 6)}
    worst_l1, worst_exp = math.inf, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        a /= np.linalg.norm(a)
        law = ref.Law(ref.decoupled_atoms(a))
        for q in worst:
            worst[q] = max(worst[q], ref.lp_norm(law, q) / q)
        worst_l1 = min(worst_l1, ref.lp_norm(law, 1))
        worst_exp = max(worst_exp, ref.exp_moment(law, 0.18))
    for q, v in worst.items():
        want[f"khinchin.moment.q{q}"] = _near(v, 1e-10)
    want["khinchin.moment.l1_lower"] = _near(worst_l1, 1e-10)
    want["khinchin.exp_moment.u0.18"] = _near(worst_exp, 1e-10)
    # the decoupling identity holds pointwise: the worst error is rounding
    want["decoupling.identity.pointwise"] = _within(0.0, 1e-12)
    for z in (1, 4, 9, 16, 25):
        want[f"lemma2.bracket.z{z}"] = _near(ref.log_tail_L(float(z)), 1e-7)
    want["lemma2.monotone.decreasing"] = _absent
    want["lemma3.shift_map.equimeasurable"] = _absent
    want["lemma3.relabel.equimeasurable"] = _absent
    for n in (2, 3, 4, 5):
        want[f"theorem5.inf.n{n}"] = _near(ref.exhaustive_inf(n, False)["value"], 0.0)
    want["theorem5.inf.n2.exact"] = _near(2.0, 0.0)
    want["theorem5.average.n2.exact"] = _near(3.0, 0.0)
    for n in (4, 8, 12):
        mean = ref.monte_carlo_average(n, 2000, seed)["value"]
        want[f"theorem5.average.n{n}.bracket"] = _near(mean / n**1.5, 1e-12)
    for k in range(5):
        want[f"proposition.walsh.k{k}"] = _near(ref.sup_decoupled(ref.walsh(k)), 0.0)
    want["proposition.walsh.k1.exact"] = _near(2.0, 0.0)
    want["proposition.walsh.k2.exact"] = _near(8.0, 0.0)
    # theorem6: worst sup gap over 100 symmetric sign matrices from Philox(seed + 6)
    rng = np.random.Generator(np.random.Philox(key=seed + 6))
    gap = -math.inf
    for _ in range(100):
        n = int(rng.integers(2, 9))
        theta = np.triu(np.where(rng.random((n, n)) < 0.5, -1.0, 1.0))
        theta = theta + np.triu(theta, 1).T
        gap = max(gap, ref.sup_undecoupled(theta) - ref.sup_decoupled(theta))
    want["theorem6.undecoupled_le_decoupled"] = _near(gap, 0.0)
    t7 = ref.theorem7(0.25, 2, "full")
    for blk in t7["blocks"]:
        want[f"theorem7.signed_sup.k{blk['k']}"] = _near(blk["signed_sup"], 0.0)
        want[f"theorem7.corner.k{blk['k']}"] = _near(blk["corner_value"], 0.0)
        want[f"theorem7.rearrangement.k{blk['k']}"] = _near(blk["rearranged_at_uk"], 0.0)
    partial = t7["partial_quasinorms"]
    for k in range(1, len(partial)):
        want[f"theorem7.quasinorm.growth.k{k}"] = _near(partial[k] / partial[k - 1], 1e-9)
    for k, q in enumerate(partial):
        want[f"theorem7.quasinorm.lower.k{k}"] = _near(q, 1e-9)
    # the fundamental function is 1/ln(1 + (e-1)/t): the product is 1
    for t in ("1", "0.5", "0.25", "0.0625"):
        want[f"orlicz.fundamental.t{t}"] = _within(1.0 - 1e-8, 1.0 + 1e-8)
    want["clt.kolmogorov.n64"] = _near(ref.clt_distance(64), 1e-12)
    return want


def _check_verify_rows(rows, want: dict, source: str) -> str | None:
    if not isinstance(rows, dict):
        return f"{source}: missing"
    if set(rows) != set(want):
        return f"{source}: checks {sorted(set(rows) ^ set(want))} differ"
    for check, test in want.items():
        row = rows[check]
        if row["status"] != "pass":
            return f"{source}: {check} status {row['status']!r}"
        if not test(row["value"]):
            return f"{source}: {check} value {row['value']!r} fails its reference"
    return None


def _check_verify(rec, want: dict) -> str | None:
    reason = _check_rc(rec)
    if reason:
        return reason
    for source in ("stdout", "csv", "json"):
        reason = _check_verify_rows(rec.get(source), want, source)
        if reason:
            return reason
    return None


def scaling_references(seed: int) -> list[dict]:
    rows = []
    for n in (1, 2, 4, 8, 12):
        if 2 ** (n * n) <= 2000 and n <= 4:
            rows.append(ref.exact_average(n))
        else:
            rows.append(ref.monte_carlo_average(n, 2000, seed))
        if n <= 5:
            rows.append(ref.exhaustive_inf(n, False))
        else:
            rows.append({"n": n, "mode": "exhaustive", "value": None, "samples": 0, "seed": 0})
        k = n.bit_length() - 1
        if n == 2**k:
            rows.append({"n": n, "mode": "walsh", "value": ref.sup_decoupled(ref.walsh(k)),
                         "samples": 2 ** (n - 1), "seed": 0})
    return [
        {"n": r["n"], "mode": r["mode"], "value": r["value"],
         "ratio": None if r["value"] is None else r["value"] / r["n"] ** 1.5,
         "samples": r["samples"], "seed": r["seed"],
         "status": "skip" if r["value"] is None else "ok"}
        for r in rows
    ]


def _check_scaling(rec, want: list) -> str | None:
    reason = _check_rc(rec)
    if reason:
        return reason
    for source in ("stdout", "csv", "json"):
        rows = rec.get(source)
        if not isinstance(rows, list) or len(rows) != len(want):
            return f"{source}: {len(rows) if isinstance(rows, list) else rows!r} rows, expected {len(want)}"
        for row, w in zip(rows, want):
            elapsed = row.get("elapsed_ms")
            if not isinstance(elapsed, (int, float)) or not elapsed >= 0.0:
                return f"{source}: n={w['n']} {w['mode']}: elapsed_ms {elapsed!r}"
            reason = ref.compare({k: row.get(k) for k in w}, w, rtol=1e-12)
            if reason:
                return f"{source}: n={w['n']} {w['mode']}: {reason}"
    return None


def _check_walsh(rec) -> str | None:
    reason = _check_rc(rec)
    if reason:
        return reason
    defect = ref.sup_decoupled(ref.walsh(4)) / 256.0
    for source in ("stdout_matrix", "csv"):
        reason = ref.check_walsh(rec.get(source), 4)
        if reason:
            return f"{source}: {reason}"
    if rec.get("stdout_defect") != defect:
        return f"stdout defect {rec.get('stdout_defect')!r}, reference {defect!r}"
    doc = rec.get("json")
    if not isinstance(doc, dict):
        return "JSON artifact missing"
    reason = ref.check_walsh(doc.get("matrix"), 4)
    if reason:
        return f"json: {reason}"
    return ref.compare({k: doc.get(k) for k in ("command", "k", "n", "defect")},
                       {"command": "walsh", "k": 4, "n": 16, "defect": defect})


def cli_checks(inp: dict) -> dict:
    R = Lazy({
        "law11": lambda: ref.Law(ref.decoupled_atoms(inp["g11"])),
        "law10": lambda: ref.Law(ref.decoupled_atoms(inp["g10"])),
        "law8": lambda: ref.Law(ref.decoupled_atoms(inp["g8"])),
        "law16": lambda: ref.Law(ref.undecoupled_atoms(inp["b16"])),
        "verify": verify_references,
        "scaling": lambda: scaling_references(inp["scaling_seed"]),
    })

    def norm_fields(key, space, mode="decoupled"):
        n, m = inp[key].shape
        return {"command": "norm", "space": space, "mode": mode, "n": n, "m": m}

    def sup_fields(key, mode="decoupled"):
        n, m = inp[key].shape
        return {"command": "supnorm", "mode": mode, "n": n, "m": m}

    stale_fields = {"command": "supnorm", "mode": "decoupled", "n": 4, "m": 4}
    return {
        "verify": lambda r: _check_verify(r, R["verify"]),
        "norm.orlicz.g10": lambda r: _check_norm_root(r, R["law10"], norm_fields("g10", "orlicz-exp")),
        "norm.lorentz.g10": lambda r: _check_value_artifact(
            r, ref.lorentz_norm(R["law10"], 1.5), 1e-8, norm_fields("g10", "lorentz:1.5")),
        "norm.lpinf.g11": lambda r: _check_value_artifact(
            r, R["law11"].max, 1e-12, norm_fields("g11", "lp:inf")),
        "norm.marc.g8": lambda r: _check_value_artifact(
            r, ref.marcinkiewicz_norm(R["law8"], PHI_EPS), 1e-9, norm_fields("g8", "marc:0.25")),
        "norm.orlicz.b16": lambda r: _check_norm_root(
            r, R["law16"], norm_fields("b16", "orlicz-exp", "undecoupled")),
        "supnorm.s20": lambda r: _check_value_artifact(
            r, ref.sup_decoupled(inp["s20"]), 0.0, sup_fields("s20")),
        "supnorm.s16": lambda r: _check_value_artifact(
            r, ref.sup_undecoupled(inp["s16"]), 0.0, sup_fields("s16", "undecoupled")),
        "scaling": lambda r: _check_scaling(r, R["scaling"]),
        "walsh": _check_walsh,
        "stale.first": lambda r: _check_value_artifact(
            r, ref.sup_decoupled(STALE_FIRST), 0.0, stale_fields),
        "stale.second": lambda r: _check_value_artifact(
            r, ref.sup_decoupled(STALE_SECOND), 0.0, stale_fields),
    }


def checks_for(workload: str, inp: dict) -> dict:
    return {"real": real_checks, "sign": sign_checks, "cli": cli_checks}[workload](inp)
