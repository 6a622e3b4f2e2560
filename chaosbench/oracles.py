"""References computed apart from chaoslab, and the checks built on them.

Nothing here imports chaoslab.  Every reference is an enumeration written
from the definitions: atoms from sign tables, laws by sorting the atoms,
norms from the sorted atoms, sup norms by a split (meet-in-the-middle) scan,
searches by brute force over sign matrices.  A check takes one program
output, already reduced to plain Python and NumPy values, and returns None
when it is right or a one-line reason when it is wrong.
"""

from __future__ import annotations

import math

import numpy as np

SNAP = 1e-12  # values closer than this form one step of a law
ORLICZ_TARGET = math.e - 1.0


# --- atoms -----------------------------------------------------------------


def sign_table(n: int, pin_first: bool = False) -> np.ndarray:
    """Rows are sign vectors; bit i of the row index set means sign -1 at i.

    With ``pin_first`` only the 2^(n-1) vectors whose first sign is +1.
    """
    masks = np.arange(2 ** (n - 1) if pin_first else 2**n, dtype=np.int64)
    if pin_first:
        masks <<= 1
    bits = (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1
    return 1.0 - 2.0 * bits


def decoupled_atoms(a: np.ndarray) -> np.ndarray:
    """eps^T A delta for every sign pair, indexed (eps mask, delta mask)."""
    n, m = a.shape
    return sign_table(n) @ a @ sign_table(m).T


def undecoupled_atoms(b: np.ndarray) -> np.ndarray:
    """eps^T B eps for every sign vector."""
    s = sign_table(b.shape[0])
    return ((s @ b) * s).sum(axis=1)


class Law:
    """Law of |x| on equal-weight atoms: sorted atoms and merged steps."""

    def __init__(self, atoms: np.ndarray):
        flat = np.abs(np.asarray(atoms, dtype=np.float64).reshape(-1))
        self.size = flat.size
        self.desc = np.sort(flat)[::-1]
        starts = np.concatenate([[0], np.flatnonzero(-np.diff(self.desc) > SNAP) + 1])
        ends = np.append(starts[1:], self.size)
        self.values = self.desc[starts]
        self.counts = ends - starts
        self.bounds = ends / self.size
        self.masses = self.counts / self.size
        # integral of x* over (0, bound_k], summed atom by atom
        self.integrals = np.cumsum(self.desc)[ends - 1] / self.size

    @property
    def max(self) -> float:
        return float(self.desc[0])

    def at(self, t: float) -> float:
        """Left-continuous x*(t) for t in (0, 1]."""
        return float(self.desc[max(math.ceil(t * self.size), 1) - 1])


# --- norms -------------------------------------------------------------------


def lp_norm(law: Law, q: float) -> float:
    top = law.max
    if math.isinf(q) or top == 0.0:
        return top
    return top * float(np.mean((law.desc / top) ** q)) ** (1.0 / q)


def exp_moment(law: Law, u: float) -> float:
    return float(np.mean(np.expm1(u * law.desc)))


def orlicz_integral(law: Law, u: float) -> float:
    with np.errstate(over="ignore"):
        return float(np.sum(law.masses * np.expm1(law.values / u)))


def lorentz_norm(law: Law, p: float) -> float:
    """sum over atoms of x*_i^p (w(i/N) - w((i-1)/N)), w(t) = log2(2/t)^(1-p)."""
    t = np.arange(1, law.size + 1) / law.size
    w = np.log2(2.0 / t) ** (1.0 - p)
    dw = np.diff(w, prepend=0.0)
    top = law.max
    if top == 0.0:
        return 0.0
    return top * float(np.sum((law.desc / top) ** p * dw)) ** (1.0 / p)


def phi_eps(eps: float):
    return lambda t: t * np.log2(2.0 / t) ** (0.5 - eps)


def marcinkiewicz_norm(law: Law, eps: float) -> float:
    """max_k F(b_k)/phi(b_k) over the breakpoints; exact for concave phi."""
    return float(np.max(law.integrals / phi_eps(eps)(law.bounds)))


def quasinorm(law: Law, eps: float) -> float:
    """sup of x*(u) log2(2/u)^(eps-1/2), taken at the steps' right endpoints."""
    return float(np.max(law.values * np.log2(2.0 / law.bounds) ** (eps - 0.5)))


# --- sup norms ---------------------------------------------------------------


def sup_decoupled(a: np.ndarray) -> float:
    """max over eps of sum_j |(eps^T A)_j|, split into row halves.

    Low rows (first sign pinned) give L, high rows give H; every sign
    vector is a pair (l, h) and its column sums are L[l] + H[h].
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    h = max(1, n // 2)
    low = sign_table(h, pin_first=True) @ a[:h]
    high = sign_table(n - h) @ a[h:] if n > h else np.zeros((1, a.shape[1]))
    best = 0.0
    for start in range(0, low.shape[0], 64):
        block = np.abs(low[start : start + 64, None, :] + high[None, :, :]).sum(axis=2)
        best = max(best, float(block.max()))
    return best


def double_scan_decoupled(a: np.ndarray) -> float:
    """max |eps^T A delta| over all sign pairs (small matrices only)."""
    return float(np.abs(decoupled_atoms(a)).max())


def sup_undecoupled(b: np.ndarray) -> float:
    """max over eps of |eps^T B eps| (diagonal included), split into halves."""
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    if n < 4:
        return float(np.abs(undecoupled_atoms(b)).max())
    h = n // 2
    u = sign_table(h, pin_first=True)
    w = sign_table(n - h)
    qu = ((u @ b[:h, :h]) * u).sum(axis=1)
    qw = ((w @ b[h:, h:]) * w).sum(axis=1)
    cross = (u @ (b[:h, h:] + b[h:, :h].T)) @ w.T
    return float(np.abs(qu[:, None] + qw[None, :] + cross).max())


def sups_of_sign_matrices(thetas: np.ndarray) -> np.ndarray:
    """Decoupled sup norm of each n x n matrix in a (M, n, n) stack."""
    n = thetas.shape[1]
    eps = sign_table(n, pin_first=True)
    out = np.empty(thetas.shape[0])
    batch = max(1, (1 << 22) // (eps.shape[0] * n))
    for start in range(0, thetas.shape[0], batch):
        block = thetas[start : start + batch]
        sums = np.einsum("ei,mij->mej", eps, block)
        out[start : start + batch] = np.abs(sums).sum(axis=2).max(axis=1)
    return out


def _matrices_from_bits(combos: np.ndarray, n: int, m: int) -> np.ndarray:
    bits = (combos[:, None] >> np.arange(n * m, dtype=np.int64)) & 1
    return (1.0 - 2.0 * bits).reshape(-1, n, m)


# --- searches and constructions ----------------------------------------------


def exhaustive_inf(n: int, symmetric: bool) -> dict:
    """Minimum sup norm over sign matrices, by brute force."""
    if symmetric:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        combos = np.arange(2 ** len(pairs), dtype=np.int64)
        thetas = np.empty((combos.size, n, n))
        for b, (i, j) in enumerate(pairs):
            sign = 1.0 - 2.0 * ((combos >> b) & 1)
            thetas[:, i, j] = sign
            thetas[:, j, i] = sign
        eps = sign_table(n)
        quad = np.einsum("ei,mij,ej->me", eps, thetas, eps)
        value = float(np.abs(quad).max(axis=1).min())
        samples = combos.size
    elif n <= 4:
        thetas = _matrices_from_bits(np.arange(2 ** (n * n), dtype=np.int64), n, n)
        value = float(sups_of_sign_matrices(thetas).min())
        samples = 2 ** ((n - 1) ** 2)
    else:
        # first row and column pinned to +1: flips of rows and columns keep the sup
        inner = _matrices_from_bits(np.arange(2 ** ((n - 1) ** 2), dtype=np.int64), n - 1, n - 1)
        thetas = np.ones((inner.shape[0], n, n))
        thetas[:, 1:, 1:] = inner
        value = float(sups_of_sign_matrices(thetas).min())
        samples = inner.shape[0]
    return {"n": n, "mode": "exhaustive", "value": value, "samples": samples,
            "seed": 0, "stddev": None, "rng": None}


def exact_average(n: int) -> dict:
    thetas = _matrices_from_bits(np.arange(2 ** (n * n), dtype=np.int64), n, n)
    sups = sups_of_sign_matrices(thetas)
    return {"n": n, "mode": "exhaustive_average", "value": float(sups.mean()),
            "samples": sups.size, "seed": 0, "stddev": None, "rng": None}


def monte_carlo_average(n: int, samples: int, seed: int) -> dict:
    """Redraws the documented stream: Philox keyed by seed, one n-bit column
    mask per column (bit i set means entry i is -1), samples x n masks."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    cols = rng.integers(0, 2**n, size=(samples, n), dtype=np.uint64).astype(np.int64)
    bits = (cols[:, None, :] >> np.arange(n, dtype=np.int64)[None, :, None]) & 1
    sups = sups_of_sign_matrices(1.0 - 2.0 * bits)
    return {"n": n, "mode": "monte_carlo", "value": float(sups.mean()),
            "samples": samples, "seed": seed,
            "stddev": float(sups.std(ddof=1)) if samples > 1 else 0.0,
            "rng": "philox4x64"}


def walsh(k: int) -> np.ndarray:
    """Closed form: entry (i, j) is (-1)^popcount(rev_k(i) & j)."""
    size = 2**k
    idx = np.arange(size, dtype=np.int64)
    rev = np.zeros(size, dtype=np.int64)
    for b in range(k):
        rev |= ((idx >> b) & 1) << (k - 1 - b)
    parity = np.bitwise_count(rev[:, None] & idx[None, :]) & 1
    return 1.0 - 2.0 * parity


def theorem7(eps: float, K: int, mode: str) -> dict:
    """The block construction, rebuilt from its statement."""
    blocks = []
    for k in range(K + 1):
        width = 2**k
        block = {
            "k": k,
            "window": [2**k, 2 ** (k + 1)],
            "signed_sup": sup_decoupled(walsh(k)),
            "signed_bound": 2.0 ** (1.5 * k),
            "corner_value": float(width * width),
            "corner_expected": 4.0**k,
            "rearranged_at_uk": None,
            "u_k": None,
            "marc_quasi_ratio": None,
        }
        if mode == "full":
            u_k = 2.0 ** (-(2 ** (k + 2)) + 1)
            axis = sign_table(width).sum(axis=1)
            law = Law(np.outer(axis, axis))
            block.update(
                rearranged_at_uk=law.at(u_k),
                u_k=u_k,
                marc_quasi_ratio=marcinkiewicz_norm(law, eps) / quasinorm(law, eps),
            )
        blocks.append(block)
    partial = []
    if mode == "full":
        top = 2 ** (K + 1)
        for kk in range(K + 1):
            coeffs = np.zeros((top, top))
            for k in range(kk + 1):
                coeffs[2**k : 2 ** (k + 1), 2**k : 2 ** (k + 1)] = 2.0 ** (-(3.0 + eps) * k / 2.0)
            partial.append(quasinorm(Law(decoupled_atoms(coeffs)), eps))
    return {
        "eps": eps,
        "mode": mode,
        "blocks": blocks,
        "partial_quasinorms": partial,
        "lower_bounds": [2.0 ** (eps * k / 2.0 - 1.0) for k in range(K + 1)],
    }


def log_tail_L(z: float) -> float:
    """e^(1-z) + e^2 * integral_1^z exp(-u - z/u) du, by panelled Gauss-Legendre."""
    if z == 1.0:
        return 1.0
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.linspace(1.0, z, 401)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    u = mid + half * nodes[None, :]
    integral = float(np.sum(half * weights[None, :] * np.exp(-u - z / u)))
    return math.exp(1.0 - z) + math.exp(2.0) * integral


def clt_distance(n: int) -> float:
    """sup_z |P(|S_n|/sqrt(n) > z) - erfc(z/sqrt(2))| with exact binomial masses."""
    count = {}
    for b in range(n + 1):
        count[abs(n - 2 * b)] = count.get(abs(n - 2 * b), 0) + math.comb(n, b)
    total = 2**n
    dist = abs((total - count.get(0, 0)) / total - 1.0)
    above = 0
    for key in sorted(count, reverse=True):
        if key == 0:
            break
        gauss = math.erfc(key / math.sqrt(n) / math.sqrt(2.0))
        dist = max(dist, abs(above / total - gauss), abs((above + count[key]) / total - gauss))
        above += count[key]
    return dist


# --- comparisons -------------------------------------------------------------


def close(out, ref, rtol: float = 1e-10, atol: float = 0.0) -> bool:
    if not isinstance(out, (int, float)) or isinstance(out, bool):
        return False
    if math.isinf(ref) or math.isnan(ref):
        return out == ref
    return abs(out - ref) <= atol + rtol * abs(ref)


def compare(out, ref, rtol: float = 1e-10, path: str = "") -> str | None:
    """First difference between two plain values: floats within rtol, the rest equal."""
    where = path or "value"
    if isinstance(ref, dict):
        if not isinstance(out, dict) or set(out) != set(ref):
            return f"{where}: fields {sorted(out) if isinstance(out, dict) else out!r}, expected {sorted(ref)}"
        for key in ref:
            reason = compare(out[key], ref[key], rtol, f"{path}.{key}" if path else key)
            if reason:
                return reason
        return None
    if isinstance(ref, (list, tuple)):
        if not isinstance(out, (list, tuple)) or len(out) != len(ref):
            return f"{where}: {out!r}, expected {len(ref)} items"
        for i, (o, r) in enumerate(zip(out, ref)):
            reason = compare(o, r, rtol, f"{where}[{i}]")
            if reason:
                return reason
        return None
    if isinstance(ref, float) and not isinstance(out, bool) and isinstance(out, (int, float)):
        return None if close(float(out), ref, rtol) else f"{where}: {out!r}, expected {ref!r}"
    if type(out) is not type(ref) or out != ref:
        return f"{where}: {out!r}, expected {ref!r}"
    return None


def check_value(out, ref: float, rtol: float = 1e-10, what: str = "value") -> str | None:
    if not isinstance(out, float) or not close(out, ref, rtol):
        return f"{what} {out!r}, reference {ref!r}"
    return None


def check_atoms(out, atoms: np.ndarray, fields: dict) -> str | None:
    """A step function's values against the reference atoms, to 1e-11 of their scale."""
    reason = compare({k: out.get(k) for k in fields}, fields) if isinstance(out, dict) else "not a step function"
    if reason:
        return reason
    values = out.get("values")
    if not isinstance(values, np.ndarray) or values.shape != atoms.shape:
        return f"values shape {getattr(values, 'shape', None)}, expected {atoms.shape}"
    err = float(np.abs(values - atoms).max())
    scale = 1.0 + float(np.abs(atoms).max())
    return None if err <= 1e-11 * scale else f"max atom error {err:.3g}"


def _expand(values, masses, size: int):
    """Per-atom sorted values from (value, mass) steps; masses must be whole atoms."""
    counts = np.asarray(masses, dtype=np.float64) * size
    if np.any(counts != np.round(counts)) or np.any(counts <= 0) or counts.sum() != size:
        return None
    return np.repeat(np.asarray(values, dtype=np.float64), counts.astype(np.int64))


def check_rearrangement(out, law: Law) -> str | None:
    if not isinstance(out, dict) or set(out) != {"values", "masses"}:
        return "not a rearrangement"
    values, masses = out["values"], out["masses"]
    if values.size != masses.size or values.size == 0:
        return "values and masses differ in length"
    if np.any(-np.diff(values) <= SNAP):
        return "steps are not decreasing by more than the snap"
    expanded = _expand(masses=masses, values=values, size=law.size)
    if expanded is None:
        return "masses are not whole atoms summing to 1"
    err = float(np.abs(expanded - law.desc).max())
    return None if err <= 1e-9 * (1.0 + law.max) else f"rearranged values off by {err:.3g}"


def check_distribution(out, law: Law) -> str | None:
    if not isinstance(out, dict) or set(out) != {"thresholds", "measure_above"}:
        return "not a distribution"
    thresholds, above = out["thresholds"], out["measure_above"]
    if thresholds.size != above.size or thresholds.size == 0 or above[-1] != 0.0:
        return "thresholds and measures do not match"
    if np.any(np.diff(thresholds) <= SNAP):
        return "thresholds are not increasing by more than the snap"
    masses = np.diff(np.concatenate([[1.0], above]))
    expanded = _expand(values=thresholds[::-1], masses=-masses[::-1], size=law.size)
    if expanded is None:
        return "measures are not whole atoms"
    err = float(np.abs(expanded - law.desc).max())
    return None if err <= 1e-9 * (1.0 + law.max) else f"thresholds off by {err:.3g}"


def check_orlicz(out, law: Law) -> str | None:
    """u is the root of sum m_k (exp(v_k/u) - 1) = e - 1, to 1e-8 of u."""
    if not isinstance(out, float) or not out > 0.0 or math.isinf(out):
        return f"orlicz norm {out!r}"
    if orlicz_integral(law, out * (1.0 + 1e-8)) > ORLICZ_TARGET:
        return f"orlicz norm {out!r} too small"
    if orlicz_integral(law, out * (1.0 - 1e-8)) <= ORLICZ_TARGET:
        return f"orlicz norm {out!r} too large"
    return None


def check_lp_bracket(out, law: Law, q: float) -> str | None:
    """max|x| mu(|x| = max)^(1/q) <= ||x||_q <= max|x|."""
    lower = law.max * law.masses[0] ** (1.0 / q)
    if not isinstance(out, float) or not lower * (1 - 1e-12) <= out <= law.max * (1 + 1e-12):
        return f"L{q:g} norm {out!r} outside [{lower:.6g}, {law.max:.6g}]"
    return check_value(out, lp_norm(law, q), 1e-10, f"L{q:g} norm")


def check_search(out, ref: dict) -> str | None:
    return compare(out, ref, rtol=1e-12)


def check_theorem7(out, ref: dict) -> str | None:
    reason = compare(out, ref, rtol=1e-9)
    if reason:
        return reason
    for blk in out["blocks"]:
        if blk["signed_sup"] > blk["signed_bound"]:
            return f"block {blk['k']}: signed sup above 2^(3k/2)"
        if blk["rearranged_at_uk"] is not None and blk["rearranged_at_uk"] < blk["corner_expected"]:
            return f"block {blk['k']}: rearrangement at u_k below 2^(2k)"
    partial = out["partial_quasinorms"]
    for k, (q, lower) in enumerate(zip(partial, out["lower_bounds"])):
        if q < lower:
            return f"partial quasi-norm {k} below 2^(eps k/2 - 1)"
        if k and q / partial[k - 1] < 2.0 ** (out["eps"] / 2.0):
            return f"partial quasi-norm {k} grows by less than 2^(eps/2)"
    return None


def check_walsh(out, k: int) -> str | None:
    ref = walsh(k)
    if not isinstance(out, np.ndarray) or out.shape != ref.shape or not np.array_equal(out, ref):
        return f"Walsh arrangement k={k} differs from (-1)^popcount(rev_k(i) & j)"
    return None
