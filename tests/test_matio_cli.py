import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chaoslab
from chaoslab import cli, extremal, rearrange
from chaoslab.config import load_config
from chaoslab.dyadic import quadratic_blocks
from chaoslab.errors import MatrixParseError
from chaoslab.matio import (
    format_matrix_csv,
    format_matrix_text,
    load_matrix,
    parse_matrix_csv,
    parse_matrix_text,
    rearrangement_to_csv,
)
from chaoslab.rearrange import Rearrangement
from chaoslab.suites import SUITE_NAMES, run_suite


class TestMatrixParsing:
    def test_roundtrip_text(self):
        a = np.array([[1.0, -2.5], [0.25, 3.0]])
        assert np.array_equal(parse_matrix_text(format_matrix_text(a)), a)

    def test_roundtrip_csv(self):
        a = np.array([[1.0, -2.5], [0.25, 3.0]])
        assert np.array_equal(parse_matrix_csv(format_matrix_csv(a)), a)

    def test_blank_lines_skipped(self):
        assert parse_matrix_text("2 2\n1 2\n\n3 4\n").tolist() == [[1, 2], [3, 4]]

    def test_missing_header(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("")
        assert err.value.line == 1

    def test_bad_header(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("two cols\n1 2\n")

    def test_wrong_row_width(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("2 2\n1 2\n3\n")
        assert err.value.line == 3

    def test_bad_number_reports_column(self):
        with pytest.raises(MatrixParseError) as err:
            parse_matrix_text("1 3\n1 x 3\n")
        assert err.value.line == 2
        assert err.value.column == 2

    def test_too_few_rows(self):
        with pytest.raises(MatrixParseError):
            parse_matrix_text("3 1\n1\n2\n")

    def test_load_dispatch(self, tmp_path):
        a = np.array([[1.0, 2.0]])
        (tmp_path / "m.txt").write_text(format_matrix_text(a))
        (tmp_path / "m.csv").write_text(format_matrix_csv(a))
        (tmp_path / "m.json").write_text(json.dumps([[1.0, 2.0]]))
        for name in ("m.txt", "m.csv", "m.json"):
            assert np.array_equal(load_matrix(tmp_path / name), a)

    def test_rearrangement_csv(self):
        r = Rearrangement(values=np.array([2.0, 0.5]), masses=np.array([0.25, 0.75]))
        text = rearrangement_to_csv(r)
        assert text.splitlines() == ["value,cumulative_measure", "2,0.25", "0.5,1"]


DEFAULT_RUN_SNAPSHOT = {
    "run.seed": "1235813",
    "run.samples": "2000",
    "run.max_bits_1d": "24",
    "run.max_bits_2d": "26",
    "run.orlicz_rel_tol": "1e-10",
    "run.format": "csv",
    "run.cache": "true",
}

DEFAULT_SUITE_SNAPSHOT = {
    "clt.bound": "0.1",
    "clt.n": "64",
    "decoupling.n": "5",
    "decoupling.tol": "1e-12",
    "decoupling.trials": "50",
    "khinchin.exp_u": "0.18",
    "khinchin.n_max": "6",
    "khinchin.q_values": "2, 3, 4, 6",
    "khinchin.trials": "100",
    "lemma2.z_values": "1, 4, 9, 16, 25",
    "lemma3.n": "3",
    "lemma3.trials": "50",
    "orlicz.t_values": "1, 0.5, 0.25, 0.0625",
    "orlicz.tol": "1e-8",
    "proposition.k_values": "0, 1, 2, 3, 4",
    "theorem5.exhaustive_n": "2, 3, 4, 5, 6",
    "theorem5.mc_n": "4, 8, 12",
    "theorem6.n_max": "8",
    "theorem6.trials": "100",
    "theorem7.eps": "0.25",
    "theorem7.k_max": "2",
    "theorem7.mode": "full",
}


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.seed == 1235813
        assert cfg.samples == 2000
        assert cfg.suite_float_list("lemma2", "z_values") == [1, 4, 9, 16, 25]

    def test_overlay(self, tmp_path):
        path = tmp_path / "user.cfg"
        path.write_text("[run]\nseed = 42\n\n[lemma2]\nz_values = 1, 9\n")
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.suite_float_list("lemma2", "z_values") == [1, 9]
        # untouched sections keep the packaged defaults
        assert cfg.suite_int("clt", "n") == 64

    def test_snapshot_is_flat_and_sorted(self):
        snap = load_config().snapshot()
        assert snap["run.seed"] == "1235813"
        assert "lemma2.z_values" in snap

    def test_snapshot_of_packaged_defaults(self):
        assert load_config().snapshot() == {**DEFAULT_RUN_SNAPSHOT, **DEFAULT_SUITE_SNAPSHOT}

    def test_snapshot_of_full_run_overlay(self, tmp_path):
        path = tmp_path / "user.cfg"
        path.write_text(
            "[run]\nseed = 7\nsamples = 30\nmax_bits_1d = 20\nmax_bits_2d = 22\n"
            "orlicz_rel_tol = 0.5e-11\nformat = both\n"
            "out = elsewhere\ncache = no\n"
        )
        assert load_config(path).out_dir == "elsewhere"
        assert load_config(path).snapshot() == {
            "run.seed": "7",
            "run.samples": "30",
            "run.max_bits_1d": "20",
            "run.max_bits_2d": "22",
            "run.orlicz_rel_tol": "5e-12",
            "run.format": "both",
            "run.cache": "false",
            **DEFAULT_SUITE_SNAPSHOT,
        }

    @pytest.mark.parametrize("overlay, message", [
        ("[run]\nformat = xml\n", "format must be one of csv, json, both, got 'xml'"),
        ("[run]\ncache = maybe\n", "Not a boolean: maybe"),
        ("[run]\nsampels = 10\nquad_rel_tol = 1e-9\n",
         "unknown [run] key(s): quad_rel_tol, sampels"),
    ], ids=["format", "cache", "unknown_key"])
    def test_bad_run_value_rejected(self, tmp_path, overlay, message):
        path = tmp_path / "user.cfg"
        path.write_text(overlay)
        with pytest.raises(ValueError, match=re.escape(message)):
            load_config(path)

    @pytest.mark.parametrize("word, expected", [
        ("off", False), ("0", False), ("on", True), ("Yes", True),
    ])
    def test_cache_reads_boolean_states(self, tmp_path, word, expected):
        path = tmp_path / "user.cfg"
        path.write_text(f"[run]\ncache = {word}\n")
        assert load_config(path).cache is expected

    @pytest.mark.parametrize("overlay, expected", [
        ("[run]\nsamples = 40\n[theorem5]\nmc_n = 4\nsamples = 30\n", 30),
        ("[run]\nsamples = 40\n[theorem5]\nmc_n = 4\n", 40),
    ], ids=["theorem5_overlay", "run_fallback"])
    def test_theorem5_samples_fall_back_to_run_samples(
        self, tmp_path, monkeypatch, overlay, expected
    ):
        seen = []
        original = extremal.monte_carlo_average

        def spy(n, samples, seed):
            seen.append(samples)
            return original(n, samples, seed)

        monkeypatch.setattr(extremal, "monte_carlo_average", spy)
        path = tmp_path / "user.cfg"
        path.write_text(overlay)
        (res,) = run_suite("theorem5", load_config(path))
        assert res.passed
        assert seen == [expected]


@pytest.fixture
def outdir(tmp_path):
    return tmp_path / "out"


def run_cli(args, outdir):
    return cli.main(["--out", str(outdir)] + args)


class TestCliSupnorm:
    def test_all_ones(self, tmp_path, outdir, capsys):
        f = tmp_path / "a.txt"
        f.write_text("2 2\n1 1\n1 1\n")
        assert run_cli(["supnorm", str(f)], outdir) == 0
        assert "value=4" in capsys.readouterr().out
        artifact = json.loads((outdir / "supnorm.json").read_text())
        assert artifact["value"] == 4.0
        assert artifact["config"]["run.seed"] == "1235813"

    def test_walsh_file(self, tmp_path, outdir, capsys):
        f = tmp_path / "w.txt"
        f.write_text("2 2\n1 1\n1 -1\n")
        assert run_cli(["supnorm", str(f)], outdir) == 0
        assert "value=2" in capsys.readouterr().out

    def test_single_entry(self, tmp_path, outdir, capsys):
        f = tmp_path / "one.txt"
        f.write_text("1 1\n1\n")
        assert run_cli(["supnorm", str(f)], outdir) == 0
        assert "value=1" in capsys.readouterr().out

    def test_parse_error_exit_2(self, tmp_path, outdir, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("2 2\n1 zz\n1 1\n")
        assert run_cli(["supnorm", str(f)], outdir) == 2
        assert "line 2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, outdir):
        assert run_cli(["supnorm", "nope.txt"], outdir) == 2

    def test_cap_exit_3(self, tmp_path, outdir, capsys):
        f = tmp_path / "big.txt"
        n = 29
        rows = "\n".join(" ".join(["1"] * n) for _ in range(n))
        f.write_text(f"{n} {n}\n{rows}\n")
        assert run_cli(["supnorm", str(f), "--mode", "undecoupled"], outdir) == 3
        assert "undecoupled scan dimension 29 exceeds cap 28" in capsys.readouterr().err

    def test_undecoupled_at_26_is_the_unpruned_max(self, tmp_path, outdir, capsys):
        # 26 rows: the pruned scan, checked against the max over every block of the table
        b = np.random.Generator(np.random.Philox(key=57)).standard_normal((26, 26))
        f = tmp_path / "b26.txt"
        f.write_text("26 26\n" + "\n".join(" ".join(repr(float(v)) for v in row) for row in b) + "\n")
        assert run_cli(["supnorm", str(f), "--mode", "undecoupled"], outdir) == 0
        assert "supnorm mode=undecoupled n=26 m=26 value=" in capsys.readouterr().out
        want = max(float(np.abs(block).max()) for block in quadratic_blocks(b))
        assert json.loads((outdir / "supnorm.json").read_text())["value"] == want


class TestCliNorm:
    def test_lp2(self, tmp_path, outdir, capsys):
        f = tmp_path / "a.txt"
        f.write_text("1 1\n1\n")
        assert run_cli(["norm", str(f), "--space", "lp:2"], outdir) == 0
        assert "value=1" in capsys.readouterr().out

    def test_lp_inf(self, tmp_path, outdir, capsys):
        f = tmp_path / "a.txt"
        f.write_text("2 2\n1 1\n1 1\n")
        assert run_cli(["norm", str(f), "--space", "lp:inf"], outdir) == 0
        assert "value=4" in capsys.readouterr().out

    def test_orlicz(self, tmp_path, outdir, capsys):
        f = tmp_path / "a.txt"
        f.write_text("2 2\n1 1\n1 1\n")
        assert run_cli(["norm", str(f), "--space", "orlicz-exp"], outdir) == 0
        value = json.loads((outdir / "norm.json").read_text())["value"]
        # bracketed by the L1 and sup norms scaled by the Orlicz constant
        assert 1.0 < value < 4.0

    def test_export_rearrangement(self, tmp_path, outdir):
        f = tmp_path / "a.txt"
        f.write_text("2 2\n1 1\n1 1\n")
        dest = tmp_path / "rearr.csv"
        assert run_cli(
            ["norm", str(f), "--space", "lp:2", "--export-rearrangement", str(dest)],
            outdir,
        ) == 0
        assert dest.read_text().splitlines() == [
            "value,cumulative_measure",
            "4,0.25",
            "0,1",
        ]

    def test_export_sorts_the_law_once(self, tmp_path, outdir, monkeypatch):
        calls = []
        original = rearrange._sorted_steps

        def counting(x):
            calls.append(x)
            return original(x)

        monkeypatch.setattr(rearrange, "_sorted_steps", counting)
        f = tmp_path / "a.txt"
        f.write_text("2 2\n1 2\n-3 1\n")
        dest = tmp_path / "rearr.csv"
        assert run_cli(
            ["norm", str(f), "--space", "orlicz-exp", "--export-rearrangement", str(dest)],
            outdir,
        ) == 0
        assert len(calls) == 1
        assert dest.read_text().startswith("value,cumulative_measure\n")

    def test_marc_out_of_range_exit_2(self, tmp_path, outdir):
        f = tmp_path / "a.txt"
        f.write_text("1 1\n1\n")
        assert run_cli(["norm", str(f), "--space", "marc:0.7"], outdir) == 2

    def test_undecoupled_diagonal_exit_2(self, tmp_path, outdir):
        f = tmp_path / "a.txt"
        f.write_text("2 2\n1 1\n1 1\n")
        assert run_cli(
            ["norm", str(f), "--space", "lp:2", "--mode", "undecoupled"], outdir
        ) == 2


class TestCliWalsh:
    def test_emits_matrix(self, outdir, capsys):
        assert run_cli(["--format", "both", "walsh", "--k", "1"], outdir) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[:3] == ["2 2", "1 1", "1 -1"]
        assert (outdir / "walsh-k1.csv").exists()
        assert json.loads((outdir / "walsh-k1.json").read_text())["matrix"] == [
            [1, 1],
            [1, -1],
        ]

    def test_defect(self, outdir, capsys):
        assert run_cli(["walsh", "--k", "2", "--defect"], outdir) == 0
        assert "defect=0.5" in capsys.readouterr().out

    def test_cap_exit_3(self, outdir):
        assert run_cli(["walsh", "--k", "7"], outdir) == 3

    def test_defect_over_cap_prints_nothing(self, outdir, capsys):
        # the 32x32 arrangement is in cap, its defect scan is not: no matrix may reach stdout
        assert run_cli(["--format", "both", "walsh", "--k", "5", "--defect"], outdir) == 3
        assert capsys.readouterr().out == ""
        assert not outdir.exists() or not any(outdir.iterdir())


class TestCliExitCodes:
    @pytest.mark.parametrize(
        "case, code",
        [("missing", 2), ("directory", 2), ("parse", 2), ("lp_nan", 2),
         ("config_value", 2), ("config_header", 2), ("config_format", 2), ("config_cache", 2),
         ("config_key", 2),
         ("orlicz_tol", 2), ("theorem7_k", 2), ("cap", 3)],
    )
    def test_one_error_line_no_traceback(self, tmp_path, case, code):
        good = tmp_path / "a.txt"
        good.write_text("2 2\n1 1\n1 1\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("2 2\n1 zz\n1 1\n")
        big = tmp_path / "big.txt"
        big.write_text("29 29\n" + "\n".join(" ".join(["1"] * 29) for _ in range(29)) + "\n")
        (tmp_path / "value.cfg").write_text("[run]\nseed = x\n")
        (tmp_path / "header.cfg").write_text("seed = 3\n")
        (tmp_path / "format.cfg").write_text("[run]\nformat = xml\n")
        (tmp_path / "cache.cfg").write_text("[run]\ncache = maybe\n")
        (tmp_path / "key.cfg").write_text("[run]\nsampels = 10\n")
        (tmp_path / "tol.cfg").write_text("[run]\norlicz_rel_tol = 1e-17\n")
        (tmp_path / "k.cfg").write_text("[theorem7]\nk_max = -1\n")
        args = {
            "missing": ["supnorm", str(tmp_path / "nope.txt")],
            "directory": ["supnorm", str(tmp_path)],
            "parse": ["supnorm", str(bad)],
            "lp_nan": ["norm", str(good), "--space", "lp:nan"],
            "config_value": ["--config", str(tmp_path / "value.cfg"), "supnorm", str(good)],
            "config_header": ["--config", str(tmp_path / "header.cfg"), "supnorm", str(good)],
            # verify, scaling and walsh once wrote nothing and exited 0 for an unknown format
            "config_format": ["--config", str(tmp_path / "format.cfg"), "verify", "clt"],
            "config_cache": ["--config", str(tmp_path / "cache.cfg"), "verify", "clt"],
            # a misspelt key was once ignored, and the run went on with the default
            "config_key": ["--config", str(tmp_path / "key.cfg"), "verify", "clt"],
            "orlicz_tol": ["--config", str(tmp_path / "tol.cfg"), "norm", str(good),
                           "--space", "orlicz-exp"],
            # a negative block count would build no block: zero checks, not a PASS
            "theorem7_k": ["--config", str(tmp_path / "k.cfg"), "verify", "theorem7"],
            "cap": ["supnorm", str(big), "--mode", "undecoupled"],
        }[case]
        package_root = str(Path(chaoslab.__file__).resolve().parents[1])
        pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
        proc = subprocess.run(
            [sys.executable, "-m", "chaoslab", "--out", str(tmp_path / "out"), *args],
            capture_output=True, text=True, cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        if case.startswith("config_"):
            assert lines[0].startswith("error: bad config: "), proc.stderr
        assert proc.stdout == ""
        assert not (tmp_path / "out").exists()


class TestCliVerify:
    def test_lemma2_passes(self, outdir, capsys):
        assert run_cli(["verify", "lemma2"], outdir) == 0
        out = capsys.readouterr().out
        assert "[PASS] lemma2.bracket.z1" in out
        assert "[PASS] lemma2.monotone.decreasing" in out
        assert "suite lemma2: PASS" in out
        csv_text = (outdir / "verify-lemma2.csv").read_text()
        assert csv_text.startswith("# config ")
        assert "bracket.z25,pass" in csv_text

    def test_orlicz_json_artifact(self, outdir):
        assert run_cli(["--format", "json", "verify", "orlicz"], outdir) == 0
        doc = json.loads((outdir / "verify-orlicz.json").read_text())
        assert doc["suites"][0]["passed"] is True
        assert doc["config"]["run.format"] == "json"

    def test_unknown_suite_usage_error(self, outdir):
        with pytest.raises(SystemExit) as exc:
            run_cli(["verify", "nonsense"], outdir)
        assert exc.value.code == 2

    def test_over_cap_scale_skips_check(self, tmp_path, outdir, capsys):
        # an oversized configured scale is skipped, not fatal, and the
        # remaining checks still decide the suite
        cfg = tmp_path / "big.cfg"
        cfg.write_text("[theorem5]\nexhaustive_n = 2, 9\nmc_n = 4\nsamples = 50\n")
        assert cli.main(
            ["--config", str(cfg), "--out", str(outdir), "verify", "theorem5"]
        ) == 0
        out = capsys.readouterr().out
        assert "[SKIP] theorem5.inf.n9" in out
        assert "suite theorem5: PASS" in out

    def test_theorem7_over_cap_skips_check(self, tmp_path, outdir, capsys):
        # full mode at K = 3 builds a 16x16 image, over the 26-bit cap of eval_decoupled
        cfg = tmp_path / "k3.cfg"
        cfg.write_text("[theorem7]\nk_max = 3\n")
        assert cli.main(["--config", str(cfg), "--out", str(outdir), "verify", "theorem7"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^\[SKIP\] theorem7\.witness\.k3 value=NA bound: .* exceeds cap", out, re.M)
        assert "suite theorem7: PASS" in out

    def test_single_z_value_skips_monotone(self, tmp_path, outdir, capsys):
        cfg = tmp_path / "one.cfg"
        cfg.write_text("[lemma2]\nz_values = 4\n")
        assert cli.main(["--config", str(cfg), "--out", str(outdir), "verify", "lemma2"]) == 0
        out = capsys.readouterr().out
        assert "[PASS] lemma2.bracket.z4" in out
        assert "[SKIP] lemma2.monotone.decreasing value=NA bound: needs two values of L, got 1" in out


class TestCliScaling:
    def test_small_run(self, outdir, capsys):
        assert run_cli(["--seed", "7", "scaling", "--n", "1,2", "--samples", "64"], outdir) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("# config ")
        assert lines[1] == "n,mode,value,value_over_n15,samples,seed,elapsed_ms"
        # n=2 fits exact averaging at 64ed samples: exact mean 3
        row = next(l for l in lines if l.startswith("2,exhaustive_average"))
        assert row.split(",")[2] == "3"

    def test_skip_rows_marked(self, outdir, capsys):
        assert run_cli(["scaling", "--n", "18", "--samples", "4"], outdir) == 0
        out = capsys.readouterr().out
        assert "monte_carlo[skip]" in out
        assert "exhaustive[skip]" in out

    def test_skip_rows_keep_their_fields(self, outdir):
        assert run_cli(
            ["--seed", "99", "--format", "json", "scaling", "--n", "17,32", "--samples", "50"],
            outdir,
        ) == 0
        rows = json.loads((outdir / "scaling.json").read_text())["rows"]
        assert [(r["n"], r["mode"], r["seed"]) for r in rows] == [
            (17, "monte_carlo", 99), (17, "exhaustive", 0),
            (32, "monte_carlo", 99), (32, "exhaustive", 0), (32, "walsh", 0),
        ]
        for r in rows:
            assert (r["value"], r["ratio"], r["samples"], r["elapsed_ms"], r["status"]) == (
                None, None, 0, 0.0, "skip"
            )

    def test_reruns_byte_identical(self, outdir):
        args = ["--seed", "11", "scaling", "--n", "1,2,4", "--samples", "32"]
        assert run_cli(args, outdir) == 0
        first = (outdir / "scaling.csv").read_bytes()
        assert run_cli(args, outdir) == 0
        assert (outdir / "scaling.csv").read_bytes() == first

    def test_bad_n_exit_2(self, outdir):
        assert run_cli(["scaling", "--n", "two"], outdir) == 2


# command line, and the files it writes in --out under each --format
ARTIFACTS = {
    "supnorm": (["supnorm", "m.txt"], dict.fromkeys(["csv", "json", "both"], {"supnorm.json"})),
    "norm": (["norm", "m.txt", "--space", "lp:3"],
             dict.fromkeys(["csv", "json", "both"], {"norm.json"})),
    "verify": (["verify", "clt"], {"csv": {"verify-clt.csv"}, "json": {"verify-clt.json"},
                                   "both": {"verify-clt.csv", "verify-clt.json"}}),
    "scaling": (["scaling", "--n", "1,2", "--samples", "8"],
                {"csv": {"scaling.csv"}, "json": {"scaling.json"},
                 "both": {"scaling.csv", "scaling.json"}}),
    "walsh": (["walsh", "--k", "1"], {"csv": {"walsh-k1.csv"}, "json": {"walsh-k1.json"},
                                      "both": {"walsh-k1.csv", "walsh-k1.json"}}),
}


class TestCliArtifacts:
    @pytest.mark.parametrize("fmt", ["csv", "json", "both"])
    @pytest.mark.parametrize("command", sorted(ARTIFACTS))
    def test_files_per_format_and_byte_identical_rerun(self, tmp_path, monkeypatch, command, fmt):
        # a command without a CSV form writes its JSON whatever --format asks
        args, written = ARTIFACTS[command]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.txt").write_text("2 2\n1 -1\n1 1\n")
        argv = ["--out", "out", "--format", fmt, *args]

        def files() -> dict[str, bytes]:
            return {str(p.relative_to("out")): p.read_bytes()
                    for p in Path("out").rglob("*") if p.is_file()}

        assert cli.main(argv) == 0
        first = files()
        assert {name for name in first if not name.startswith(".cache")} == written[fmt]
        assert cli.main(argv) == 0
        assert files() == first

    def test_artifacts_do_not_depend_on_the_out_path(self, tmp_path, monkeypatch):
        # [run] out is loaded but left out of the snapshot, and verify's JSON records no
        # measured time, so two directories get the same bytes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "m.txt").write_text("2 2\n1 -1\n1 1\n")

        def run(out: str) -> dict[str, bytes]:
            assert cli.main(["--out", out, "--format", "both", "--no-cache", "verify", "clt"]) == 0
            assert cli.main(["--out", out, "supnorm", "m.txt"]) == 0
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in Path(out).rglob("*") if p.is_file()}

        first = run("out")
        # the cache key hashes the snapshot, so the cached supnorm file has one name too
        assert {name for name in first if not name.startswith(".cache")} == {
            "verify-clt.csv", "verify-clt.json", "supnorm.json"}
        assert run(str(tmp_path / "elsewhere" / "deeper")) == first


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        # The bare ``chaoslab`` script exists only after an install, so run
        # the target declared in pyproject.toml (and ``-m chaoslab``) through
        # this interpreter, with the imported package first on the path.
        f = tmp_path / "a.txt"
        f.write_text("2 2\n1 1\n1 -1\n")
        args = ["--out", str(tmp_path / "out"), "supnorm", str(f)]
        package_root = str(Path(chaoslab.__file__).resolve().parents[1])
        pythonpath = filter(None, [package_root, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath))

        def run(launcher):
            proc = subprocess.run(
                [sys.executable, *launcher, *args],
                capture_output=True,
                text=True,
                cwd=tmp_path,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            assert "value=2" in proc.stdout, proc.stderr

        run(["-m", "chaoslab"])

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["chaoslab"]
        module, attr = target.split(":")
        run(["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"])


class TestDeclaredDependencies:
    def test_src_imports_are_stdlib_or_declared(self):
        # every top-level module imported anywhere in the package, also inside
        # functions, must ship with Python or be a declared dependency
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        requirements = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
        declared = {re.match(r"[\w.-]+", r).group().replace("-", "_") for r in requirements}
        imported = set()
        for path in Path(chaoslab.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        assert "numpy" in imported
        allowed = set(sys.stdlib_module_names) | {"chaoslab"} | declared
        assert imported - allowed == set()


# shrunk scales so that aggregate runs stay fast
SMALL_VERIFY_CFG = (
    "[run]\nsamples = 50\n"
    "[khinchin]\ntrials = 3\n"
    "[decoupling]\ntrials = 3\n"
    "[lemma3]\ntrials = 3\n"
    "[theorem5]\nexhaustive_n = 2, 3\nmc_n = 4\nsamples = 50\n"
    "[proposition]\nk_values = 0, 1, 2\n"
    "[theorem6]\ntrials = 5\n"
)


class TestVerifyAll:
    def test_aggregates_every_suite(self, tmp_path, outdir):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_VERIFY_CFG)
        assert cli.main(
            ["--config", str(cfg), "--out", str(outdir), "verify", "all"]
        ) == 0
        text = (outdir / "verify-all.csv").read_text()
        suites = {line.split(",")[0] for line in text.splitlines()[2:]}
        assert suites == {
            "khinchin", "decoupling", "lemma2", "lemma3", "theorem5",
            "proposition", "theorem6", "theorem7", "orlicz", "clt",
        }
        assert ",fail," not in text

    def test_run_suite_times_every_suite_in_order(self, tmp_path):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_VERIFY_CFG)
        results = run_suite("all", load_config(cfg))
        assert tuple(res.suite for res in results) == SUITE_NAMES
        assert all(res.wall_time > 0 for res in results)


class TestCliConfigOverlay:
    def test_overlay_rescales_suite_and_failures_exit_1(self, tmp_path, outdir):
        # at n=32 the binomial is still too coarse for the 0.1 bound, so the
        # rescaled suite must fail with the check-failure exit code
        cfg = tmp_path / "user.cfg"
        cfg.write_text("[clt]\nn = 32\n")
        assert cli.main(
            ["--config", str(cfg), "--out", str(outdir), "verify", "clt"]
        ) == 1
        doc = (outdir / "verify-clt.csv").read_text()
        assert "kolmogorov.n32,fail" in doc

    def test_overlay_larger_n_passes(self, tmp_path, outdir):
        cfg = tmp_path / "user.cfg"
        cfg.write_text("[clt]\nn = 100\n")
        assert cli.main(
            ["--config", str(cfg), "--out", str(outdir), "verify", "clt"]
        ) == 0
