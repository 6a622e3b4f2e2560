"""The operations of one pass of each workload, as calls into chaoslab.

A pass calls ``op(name, fn, *args)`` once per operation; ``op`` times the
call, records the output (or the exception) under ``name`` and returns the
output for the operations that build on it.  The ``cli`` workload runs each
command as a fresh ``python -m chaoslab`` process, or, in the traced run,
through ``chaoslab.cli.main`` in-process with the same arguments.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from inputs import format_matrix

KNOWN_FAULTS = {
    # spaces.lp_norm raises |x|**q without factoring out max|x|: inf for q=400
    "int10.lp_norm_400",
    # cli._Emitter keys its cache by the matrix path, not the file's contents
    "stale.second",
}


def pass_real(cl, inp: dict, op) -> None:
    phi = cl.phi_eps(0.25)
    x = op("a10.eval_decoupled", cl.eval_decoupled, inp["a10"])
    r = op("a10.rearrangement", cl.rearrangement, x)
    op("a10.orlicz_exp_norm", cl.orlicz_exp_norm, r)
    op("a10.lorentz_norm", cl.lorentz_norm, r, 1.5)
    op("a10.lp_norm_4", cl.lp_norm, x, 4)
    op("a10.lp_norm_inf", cl.lp_norm, x, math.inf)
    op("a10.quasinorm_phi_eps", cl.quasinorm_phi_eps, r, 0.25)
    op("a10.exp_moment", cl.exp_moment, x, inp["exp_u"])
    del x, r
    x = op("a8.eval_decoupled", cl.eval_decoupled, inp["a8"])
    r = op("a8.rearrangement", cl.rearrangement, x)
    op("a8.distribution", cl.distribution, x)
    op("a8.marcinkiewicz_norm", cl.marcinkiewicz_norm, r, phi)
    y = op("a8.shift.eval_undecoupled", lambda: cl.eval_undecoupled(cl.shift_map(inp["a8"], 8)))
    op("a8.shift.equimeasurable", cl.equimeasurable, x, y)
    del x, r, y
    y = op("b18.eval_undecoupled", cl.eval_undecoupled, inp["b18"])
    r = op("b18.rearrangement", cl.rearrangement, y)
    op("b18.orlicz_exp_norm", cl.orlicz_exp_norm, r)
    del y, r
    op("g20.sup_norm_decoupled", cl.sup_norm_decoupled, inp["g20"])
    op("g20.sup_norm_undecoupled", cl.sup_norm_undecoupled, inp["g20"])


def pass_sign(cl, inp: dict, op) -> None:
    op("s22.sup_norm_decoupled", cl.sup_norm_decoupled, inp["s22"])
    for theta in inp["theorem6"]:
        n = theta.shape[0]
        op(f"theorem6.n{n}.sup_norm_undecoupled", cl.sup_norm_undecoupled, theta)
        op(f"theorem6.n{n}.sup_norm_decoupled", cl.sup_norm_decoupled, theta)
    for n in range(2, 6):
        op(f"exhaustive_inf.n{n}", cl.exhaustive_inf, n)
        op(f"exhaustive_inf.symmetric.n{n}", cl.exhaustive_inf, n, True)
    for n in range(1, 5):
        op(f"exact_average.n{n}", cl.exact_average, n)
    op("monte_carlo_average.n12", cl.monte_carlo_average, 12, 1000, inp["mc_seed"])
    op("monte_carlo_average.n16", cl.monte_carlo_average, 16, 100, inp["mc_seed"])
    op("walsh_sign_arrangement.k5", cl.walsh_sign_arrangement, 5)
    for k in range(5):
        op(f"sidon_defect.k{k}", cl.sidon_defect, k)
    op("theorem7_witness.full.K2", cl.theorem7_witness, 0.25, 2, "full")
    op("theorem7_witness.corner.K4", cl.theorem7_witness, 0.25, 4, "corner")
    x = op("int10.eval_decoupled", cl.eval_decoupled, inp["int10"])
    r = op("int10.rearrangement", cl.rearrangement, x)
    op("int10.orlicz_exp_norm", cl.orlicz_exp_norm, r)
    op("int10.marcinkiewicz_norm", cl.marcinkiewicz_norm, r, cl.phi_eps(0.25))
    op("int10.lorentz_norm", cl.lorentz_norm, r, 1.5)
    with np.errstate(over="ignore"):
        op("int10.lp_norm_400", cl.lp_norm, x, 400)


def warm_up_library(cl) -> None:
    """One small call per code path, so lazy set-up ends before timing."""
    a = np.array([[1.0, -1.0], [-1.0, 1.0]])
    g = np.array([[0.5, -1.25, 2.0], [1.5, 0.25, -0.75], [-1.0, 2.5, 0.125]])
    x = cl.eval_decoupled(g)
    r = cl.rearrangement(x)
    cl.distribution(x)
    cl.equimeasurable(x, cl.eval_undecoupled(cl.shift_map(g, 3)))
    cl.orlicz_exp_norm(r)
    cl.lorentz_norm(r, 1.5)
    cl.marcinkiewicz_norm(r, cl.phi_eps(0.25))
    cl.quasinorm_phi_eps(r, 0.25)
    cl.lp_norm(x, 4)
    cl.exp_moment(x, 0.1)
    cl.sup_norm_decoupled(a)
    cl.sup_norm_decoupled(g)
    cl.sup_norm_undecoupled(g)
    cl.exhaustive_inf(2)
    cl.exhaustive_inf(2, True)
    cl.exact_average(2)
    cl.monte_carlo_average(3, 4, 1)
    cl.theorem7_witness(0.25, 1, "full")


# --- cli -----------------------------------------------------------------------

VERIFY_CONFIG = """\
[run]
seed = 1235813
samples = 2000

[khinchin]
trials = 100
n_max = 6
q_values = 2, 3, 4, 6
exp_u = 0.18

[decoupling]
trials = 50
n = 5
tol = 1e-12

[lemma2]
z_values = 1, 4, 9, 16, 25

[lemma3]
trials = 50
n = 3

[theorem5]
exhaustive_n = 2, 3, 4, 5
mc_n = 4, 8, 12

[proposition]
k_values = 0, 1, 2, 3, 4

[theorem6]
trials = 100
n_max = 8

[theorem7]
eps = 0.25
k_max = 2
mode = full

[orlicz]
t_values = 1, 0.5, 0.25, 0.0625
tol = 1e-8

[clt]
n = 64
bound = 0.1
"""


def cli_commands(inp: dict) -> list[tuple[str, list[str]]]:
    """(name, arguments after ``--out DIR``) of one pass, in order.

    The two ``stale`` commands share one output directory, and the benchmark
    rewrites ``stale.txt`` between them.
    """
    return [
        ("verify", ["--format", "both", "--config", "verify.cfg", "verify", "all"]),
        ("norm.orlicz.g10", ["norm", "g10.txt", "--space", "orlicz-exp"]),
        ("norm.lorentz.g10", ["norm", "g10.txt", "--space", "lorentz:1.5"]),
        ("norm.lpinf.g11", ["norm", "g11.txt", "--space", "lp:inf"]),
        ("norm.marc.g8", ["norm", "g8.txt", "--space", "marc:0.25"]),
        ("norm.orlicz.b16", ["norm", "b16.txt", "--mode", "undecoupled", "--space", "orlicz-exp"]),
        ("supnorm.s20", ["supnorm", "s20.txt"]),
        ("supnorm.s16", ["supnorm", "s16.txt", "--mode", "undecoupled"]),
        ("scaling", ["--seed", str(inp["scaling_seed"]), "--format", "both",
                     "scaling", "--n", "1,2,4,8,12"]),
        ("walsh", ["--format", "both", "walsh", "--k", "4", "--defect"]),
        ("stale.first", ["supnorm", "stale.txt"]),
        ("stale.second", ["supnorm", "stale.txt"]),
    ]


CLI_FILES = {"g11.txt": "g11", "g10.txt": "g10", "g8.txt": "g8", "b16.txt": "b16",
             "s20.txt": "s20", "s16.txt": "s16"}


def write_cli_inputs(inp: dict, workdir: Path) -> None:
    for name, key in CLI_FILES.items():
        (workdir / name).write_text(format_matrix(inp[key]))
    (workdir / "verify.cfg").write_text(VERIFY_CONFIG)


class ChildRunner:
    """Runs each command as a fresh ``python -m chaoslab`` process.

    Keeps the largest peak RSS of the children it ran.
    """

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.peak_kib = 0

    def __call__(self, argv: list[str], stdout_path: Path) -> int:
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "chaoslab", *argv],
                                    cwd=self.cwd, stdout=out, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        return proc.returncode


class InProcessRunner:
    """Runs each command through ``chaoslab.cli.main`` in this process.

    ``main`` is looked up on every call, so a traced wrapper installed on the
    module is the one that runs.
    """

    def __init__(self, cli_module, cwd: Path):
        self.cli = cli_module
        self.cwd = cwd

    def __call__(self, argv: list[str], stdout_path: Path) -> int:
        out, err = io.StringIO(), io.StringIO()
        old = os.getcwd()
        os.chdir(self.cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        finally:
            os.chdir(old)
            stdout_path.write_text(out.getvalue())
            stdout_path.with_suffix(".stderr").write_text(err.getvalue())
        return code


def cli_pass(inp: dict, workdir: Path, tag: str, op, runner) -> dict:
    """Run the commands once with fresh ``--out`` directories under ``workdir/tag``.

    ``runner(argv, stdout_path)`` runs one command; ``op`` times it.  Returns
    the record of each command: exit code, stdout file and output directory.
    """
    pass_dir = workdir / tag
    pass_dir.mkdir()
    stale = workdir / "stale.txt"
    stale.write_text(format_matrix(inp["stale_first"]))
    records = {}
    for name, argv in cli_commands(inp):
        out_dir = pass_dir / ("stale" if name.startswith("stale.") else name)
        stdout_path = pass_dir / f"{name}.stdout"
        if name == "stale.second":
            stale.write_text(format_matrix(inp["stale_second"]))
        code = op(name, runner, ["--out", str(out_dir), *argv], stdout_path)
        records[name] = {"rc": code, "stdout": str(stdout_path), "out": str(out_dir)}
    return records
