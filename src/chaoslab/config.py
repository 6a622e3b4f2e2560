"""Run configuration: flat key=value file with one section per suite.

The packaged ``default.cfg`` is the single source of every default: it pins
each suite's scale so verification runs are deterministic, and it is always
read first.  A user file overlays it section by section, and the CLI's global
flags override the [run] section last; the [run] keys are those of
``_RUN_KEYS``, each written in ``default.cfg``; any other [run] key is an
error.  The one computed fallback is ``[theorem5] samples``, which falls back
to ``[run] samples``.  The snapshot, every key but ``[run] out``, travels with
every emitted artifact, so the artifacts do not depend on where they are
written.
"""

from __future__ import annotations

import configparser
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path


# [run] key -> (RunConfig field, ConfigParser getter); drives loading and, out aside, the snapshot.
_RUN_KEYS = {
    "seed": ("seed", "getint"),
    "samples": ("samples", "getint"),
    "max_bits_1d": ("max_bits_1d", "getint"),
    "max_bits_2d": ("max_bits_2d", "getint"),
    "orlicz_rel_tol": ("orlicz_rel_tol", "getfloat"),
    "format": ("out_format", "get"),
    "out": ("out_dir", "get"),
    "cache": ("cache", "getboolean"),
}
FORMATS = ("csv", "json", "both")


@dataclass
class RunConfig:
    """Typed view of the [run] section plus raw per-suite scales."""

    seed: int
    samples: int
    max_bits_1d: int
    max_bits_2d: int
    orlicz_rel_tol: float
    out_format: str
    out_dir: str
    cache: bool
    sections: dict[str, dict[str, str]]

    def suite_str(self, name: str, key: str) -> str:
        return self.sections[name][key]

    def suite_float(self, name: str, key: str) -> float:
        return float(self.suite_str(name, key))

    def suite_int(self, name: str, key: str) -> int:
        return int(self.suite_str(name, key))

    def suite_int_list(self, name: str, key: str) -> list[int]:
        return [int(tok) for tok in self.suite_str(name, key).replace(",", " ").split()]

    def suite_float_list(self, name: str, key: str) -> list[float]:
        return [float(tok) for tok in self.suite_str(name, key).replace(",", " ").split()]

    def snapshot(self) -> dict[str, str]:
        """Flat, deterministically ordered view of the effective configuration."""
        snap: dict[str, str] = {}
        for key, (attr, _) in _RUN_KEYS.items():
            if key == "out":  # where artifacts go is no input of what they hold
                continue
            value = getattr(self, attr)
            snap[f"run.{key}"] = str(value).lower() if isinstance(value, bool) else str(value)
        for section in sorted(self.sections):
            if section == "run":
                continue
            for key in sorted(self.sections[section]):
                snap[f"{section}.{key}"] = self.sections[section][key]
        return snap


def load_config(path: str | Path | None = None) -> RunConfig:
    """Load the packaged defaults, then overlay the user file if given."""
    parser = configparser.ConfigParser()
    parser.read_string(resources.files("chaoslab").joinpath("default.cfg").read_text())
    if path is not None:
        parser.read_string(Path(path).read_text(), source=str(path))
    unknown = sorted(set(parser["run"]) - set(_RUN_KEYS))
    if unknown:  # else a misspelt or retired key is ignored, and missing from the snapshot
        raise ValueError(f"unknown [run] key(s): {', '.join(unknown)}")
    cfg = RunConfig(
        **{attr: getattr(parser, get)("run", key) for key, (attr, get) in _RUN_KEYS.items()},
        sections={name: dict(parser.items(name)) for name in parser.sections()},
    )
    if cfg.out_format not in FORMATS:
        raise ValueError(f"format must be one of {', '.join(FORMATS)}, got {cfg.out_format!r}")
    # Newton cannot resolve a relative step below the unit roundoff, so it would not stop
    if not cfg.orlicz_rel_tol >= sys.float_info.epsilon:
        raise ValueError(
            f"orlicz_rel_tol must be at least {sys.float_info.epsilon:.3g}, got {cfg.orlicz_rel_tol}"
        )
    return cfg
