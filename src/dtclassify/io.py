"""Config-file parsing and result emission.

The run-config format is an INI-style document with sections
``[experiment]``, ``[covariance]``, ``[scenario]``, ``[innovation]``,
``[classifiers]`` and ``[output]``. Unknown sections or keys are rejected
with the offending key path in the message.

All numeric output uses Python's shortest round-trip float formatting so
result files are diffable across runs and platforms.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .covariance import CovarianceSpec
from .errors import ConfigError
from .harness import CLASSIFIER_IDS, ExperimentConfig, ExperimentResult
from .model import InnovationSpec, ScenarioSpec
from .reproduce import ReproReport

KNOWN_KEYS = {
    "experiment": {"p", "n1", "n2", "m1", "m2", "reps", "seed"},
    "covariance": {"kind", "rho", "sigmas"},
    "scenario": {"kind", "n0", "redraw_mu2"},
    "innovation": {"kind", "df", "negate", "kind2", "df2", "negate2"},
    "classifiers": {"list"},
    "output": {"directory", "formats"},
}

OUTPUT_FORMATS = ("csv", "json")

ENV_OUTPUT_DIR = "DTCLASSIFY_OUT"


@dataclass(frozen=True)
class OutputOptions:
    directory: str
    formats: tuple[str, ...] = ("csv", "json")


def _get(section, key, cast, default=None, required=False, path=""):
    if key not in section:
        if required:
            raise ConfigError(f"missing required key [{path}].{key}")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (ValueError, TypeError):
        raise ConfigError(
            f"[{path}].{key}: cannot parse {raw!r}"
        ) from None


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _load_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser[section]) - KNOWN_KEYS[section]
        if extra:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {sorted(extra)}"
            )
    return parser


def _covariance_from(parser, p: int) -> CovarianceSpec:
    if not parser.has_section("covariance"):
        return CovarianceSpec.identity(p)
    sec = parser["covariance"]
    kind = _get(sec, "kind", str, default="identity", path="covariance")
    rho = _get(sec, "rho", float, path="covariance")
    if rho is not None and not (-1.0 < rho < 1.0):
        raise ConfigError(f"[covariance].rho: {rho} outside (-1, 1)")
    sigmas = _get(
        sec, "sigmas",
        lambda s: np.array([float(tok) for tok in s.split(",")]),
        path="covariance",
    )
    try:
        if kind == "identity":
            return CovarianceSpec.identity(p)
        if kind in ("equal_corr", "ar1"):
            if rho is None:
                raise ConfigError(f"[covariance].rho is required for {kind}")
            return CovarianceSpec(kind, p, rho=rho)
        if kind == "diagonal":
            if sigmas is None:
                raise ConfigError("[covariance].sigmas is required for "
                                  "diagonal")
            return CovarianceSpec.diagonal(sigmas)
    except ConfigError:
        raise
    except Exception as exc:
        raise ConfigError(f"[covariance]: {exc}") from exc
    raise ConfigError(f"[covariance].kind: unsupported kind {kind!r}")


def _innovation_from(sec, suffix: str) -> InnovationSpec | None:
    kind = _get(sec, f"kind{suffix}", str, path="innovation")
    if kind is None:
        return None
    df = _get(sec, f"df{suffix}", int, path="innovation")
    negate = _get(sec, f"negate{suffix}", _bool, default=False,
                  path="innovation")
    try:
        return InnovationSpec(kind, df=df, negate=negate)
    except Exception as exc:
        raise ConfigError(f"[innovation]: {exc}") from exc


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a run-config file into an ExperimentConfig."""
    parser = _load_ini(path)
    if not parser.has_section("experiment"):
        raise ConfigError("missing required section [experiment]")
    exp = parser["experiment"]
    p = _get(exp, "p", int, required=True, path="experiment")
    n1 = _get(exp, "n1", int, required=True, path="experiment")
    n2 = _get(exp, "n2", int, required=True, path="experiment")
    seed = _get(exp, "seed", int, required=True, path="experiment")
    m1 = _get(exp, "m1", int, path="experiment")
    m2 = _get(exp, "m2", int, path="experiment")
    reps = _get(exp, "reps", int, default=1000, path="experiment")

    covariance = _covariance_from(parser, p)

    if parser.has_section("scenario"):
        sec = parser["scenario"]
        kind = _get(sec, "kind", str, default="delocalized", path="scenario")
        n0 = _get(sec, "n0", int, default=10, path="scenario")
        redraw = _get(sec, "redraw_mu2", _bool, default=True, path="scenario")
    else:
        kind, n0, redraw = "delocalized", 10, True
    try:
        scenario = ScenarioSpec(kind, n0, redraw_mu2=redraw)
    except Exception as exc:
        raise ConfigError(f"[scenario]: {exc}") from exc

    innov1 = InnovationSpec("normal")
    innov2 = None
    if parser.has_section("innovation"):
        sec = parser["innovation"]
        innov1 = _innovation_from(sec, "") or innov1
        innov2 = _innovation_from(sec, "2")

    if parser.has_section("classifiers"):
        raw = _get(parser["classifiers"], "list", str, required=True,
                   path="classifiers")
        classifiers = tuple(tok.strip() for tok in raw.split(",") if
                            tok.strip())
        unknown = set(classifiers) - set(CLASSIFIER_IDS)
        if unknown:
            raise ConfigError(
                f"[classifiers].list: unknown classifier id(s) "
                f"{sorted(unknown)}; valid ids are {CLASSIFIER_IDS}"
            )
    elif p < n1 + n2 - 2:
        classifiers = CLASSIFIER_IDS
    else:  # the D-rule needs p < n1+n2-2
        classifiers = tuple(c for c in CLASSIFIER_IDS if c != "d")

    try:
        return ExperimentConfig(
            p=p, n1=n1, n2=n2, covariance=covariance, scenario=scenario,
            innovation1=innov1, innovation2=innov2 or innov1,
            classifiers=classifiers, m1=m1, m2=m2, reps=reps,
            master_seed=seed,
        )
    except Exception as exc:
        raise ConfigError(str(exc)) from exc


def parse_output_options(path, override_dir=None, override_formats=None
                         ) -> OutputOptions:
    parser = _load_ini(path)
    directory = override_dir
    formats = override_formats
    if parser.has_section("output"):
        sec = parser["output"]
        directory = directory or _get(sec, "directory", str, path="output")
        if formats is None:
            raw = _get(sec, "formats", str, path="output")
            if raw is not None:
                formats = tuple(tok.strip() for tok in raw.split(","))
    directory = directory or os.environ.get(ENV_OUTPUT_DIR) or "."
    formats = tuple(formats) if formats else OUTPUT_FORMATS
    bad = set(formats) - set(OUTPUT_FORMATS)
    if bad:
        raise ConfigError(f"[output].formats: unknown format(s) {sorted(bad)}")
    return OutputOptions(directory, formats)


def fmt(value) -> str:
    """Shortest round-trip formatting for numbers; empty for missing."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def csv_lines(columns: list[str], rows: list[dict]):
    """The header, then one line per row: strings as they are, else ``fmt``."""
    yield ",".join(columns)
    for row in rows:
        yield ",".join(row[col] if isinstance(row.get(col), str)
                       else fmt(row.get(col)) for col in columns)


def _write_csv(path: Path, columns: list[str], rows: list[dict]):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in csv_lines(columns, rows))


def _innovation_record(spec: InnovationSpec) -> dict:
    return {"kind": spec.kind, "df": spec.df, "negate": spec.negate}


def config_record(config: ExperimentConfig) -> dict:
    """Every field needed to re-run the experiment, as JSON-ready values.

    ``sampler`` is derived from the fields, not one of them: it says which
    replication path drew the per-replication errors.
    """
    sigmas = config.covariance.sigmas
    mu2 = config.mu2_override
    return {
        "p": config.p, "n1": config.n1, "n2": config.n2,
        "m1": config.test1, "m2": config.test2, "reps": config.reps,
        "seed": config.master_seed,
        "covariance": {"kind": config.covariance.kind,
                       "rho": config.covariance.rho,
                       "sigmas": None if sigmas is None else sigmas.tolist()},
        "scenario": {"kind": config.scenario.kind,
                     "n0": config.scenario.n0,
                     "redraw_mu2": config.scenario.redraw_mu2},
        "innovation1": _innovation_record(config.innovation1),
        "innovation2": _innovation_record(config.innovation2),
        "classifiers": list(config.classifiers),
        "theory_overlay": config.theory_overlay,
        "mu2_override": None if mu2 is None else mu2.tolist(),
        "sampler": config.sampler,
    }


def emit_results(result: ExperimentResult, formats, out_dir,
                 experiment_id: str = "experiment") -> list[Path]:
    """Write the aggregate CSV and the full JSON mirror of a result."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    if "csv" in formats:
        rows = []
        for clf, r in result.classifiers.items():
            rows.append({
                "experiment_id": experiment_id, "classifier": clf,
                "median_error_pct": r.median_error_pct, "se_pct": r.se_pct,
                "reps": result.config.reps,
                "theory_pred_pct": r.theory_pred_pct,
            })
        path = out / f"{experiment_id}_results.csv"
        _write_csv(path, ["experiment_id", "classifier", "median_error_pct",
                          "se_pct", "reps", "theory_pred_pct"], rows)
        written.append(path)

    if "json" in formats:
        payload = {
            "experiment_id": experiment_id,
            "dtclassify_version": __version__,
            "config": config_record(result.config),
            "classifiers": {
                clf: {
                    "median_error_pct": r.median_error_pct,
                    "se_pct": r.se_pct,
                    "se_defined": r.se_defined,
                    "mean_error_pct": r.mean_error_pct,
                    "theory_pred_pct": r.theory_pred_pct,
                    "per_rep_errors": r.per_rep_errors.tolist(),
                }
                for clf, r in result.classifiers.items()
            },
        }
        path = out / f"{experiment_id}_result.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        written.append(path)
    return written


def emit_report(report: ReproReport, out_dir) -> Path:
    """Write a reproduction report (side-by-side or plot-data CSV)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{report.target}.csv"
    _write_csv(path, report.columns(), report.rows)
    return path
