"""Config-file parsing and result emission.

The run config is an INI document read against one table, ``SCHEMA``:
section -> key -> parser. The reader rejects an unknown section or key,
names ``[section].key`` when a value does not parse, and checks the
required keys. Inline ``;`` comments are allowed. Which keys go together
is not io's to say: the specs built from the values (``CovarianceSpec``,
``ScenarioSpec``, ``InnovationSpec``, ``ExperimentConfig``) are the only
validators, and io adds to their errors the config paths of the fields
they name (``PATHS``), else the section's name.

All numeric output uses Python's shortest round-trip float formatting so
result files are diffable across runs and platforms.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .classify import check_d_dimension
from .covariance import CovarianceSpec
from .errors import ConfigError, SingularityError, ValidationError
from .harness import CLASSIFIER_IDS, ExperimentConfig, ExperimentResult
from .model import InnovationSpec, ScenarioSpec
from .reproduce import ReproReport

OUTPUT_FORMATS = ("csv", "json")

ENV_OUTPUT_DIR = "DTCLASSIFY_OUT"


@dataclass(frozen=True)
class OutputOptions:
    directory: str
    formats: tuple[str, ...] = OUTPUT_FORMATS


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(raw)


def _list(raw: str) -> tuple[str, ...]:
    """A comma-separated list; every entry must be non-empty."""
    items = tuple(tok.strip() for tok in raw.split(","))
    if not all(items):
        raise ValueError(raw)
    return items


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in _list(raw))


# section -> key -> parser; a key not listed here is rejected
SCHEMA = {
    "experiment": {"p": int, "n1": int, "n2": int, "m1": int, "m2": int,
                   "reps": int, "seed": int},
    "covariance": {"kind": str, "rho": float, "sigmas": _floats},
    "scenario": {"kind": str, "n0": int, "redraw_mu2": _bool},
    "innovation": {"kind": str, "df": int, "negate": _bool,
                   "kind2": str, "df2": int, "negate2": _bool},
    "classifiers": {"list": _list},
    "output": {"directory": str, "formats": _list},
}

# keys a config must give; [experiment] itself is required, the other
# sections only bind when present
REQUIRED = {"experiment": ("p", "n1", "n2", "seed"), "classifiers": ("list",)}

# the config paths of the spec fields that a spec's error may name
PATHS = {**{key: f"[experiment].{key}" for key in SCHEMA["experiment"]},
         "master_seed": "[experiment].seed", "n0": "[scenario].n0",
         "covariance": "[covariance].kind", "scenario": "[scenario].kind",
         "classifiers": "[classifiers].list"}


def _parse(section: str, key: str, raw: str):
    try:
        return SCHEMA[section][key](raw)
    except ValueError:
        raise ConfigError(f"[{section}].{key}: cannot parse {raw!r}") from None


def _read(path) -> dict[str, dict]:
    """The config file as {section: {key: parsed value}}, keys as given."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        extra = set(parser[section]) - set(SCHEMA[section])
        if extra:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {sorted(extra)}")
        values[section] = {key: _parse(section, key, raw)
                           for key, raw in parser[section].items()}
    if "experiment" not in values:
        raise ConfigError("missing required section [experiment]")
    for section, keys in REQUIRED.items():
        for key in keys:
            if section in values and key not in values[section]:
                raise ConfigError(f"missing required key [{section}].{key}")
    return values


def _spec(where: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, its error (a broken D-rule limit too) a
    ConfigError at the config paths of its ``fields``, else at ``where``."""
    try:
        return build(*args, **kwargs)
    except (ValidationError, SingularityError) as exc:
        where = ", ".join(PATHS[name] for name in exc.fields) or where
        raise ConfigError(f"{where}: {exc}" if where else str(exc)) from exc


def parse_config(path) -> ExperimentConfig:
    """Parse and validate a run-config file into an ExperimentConfig."""
    values = _read(path)
    exp = values["experiment"]
    p, n1, n2 = exp["p"], exp["n1"], exp["n2"]
    cov = values.get("covariance", {})
    covariance = _spec("[covariance]", CovarianceSpec,
                       cov.get("kind", "identity"), p, cov.get("rho"),
                       cov.get("sigmas"))
    sc = values.get("scenario", {})
    scenario = _spec("[scenario]", ScenarioSpec, sc.get("kind", "delocalized"),
                     sc.get("n0", 10), sc.get("redraw_mu2", True))
    inn = values.get("innovation", {})
    innov1 = _spec("[innovation]", InnovationSpec, inn.get("kind", "normal"),
                   inn.get("df"), inn.get("negate", False))
    if "kind2" in inn:
        innov2 = _spec("[innovation]", InnovationSpec, inn["kind2"],
                       inn.get("df2"), inn.get("negate2", False))
    elif "df2" in inn or "negate2" in inn:
        raise ConfigError("[innovation]: df2 and negate2 need kind2")
    else:
        innov2 = innov1
    try:  # by default every rule, less the D-rule past its dimension limit
        check_d_dimension(p, n1, n2)
        default = CLASSIFIER_IDS
    except SingularityError:
        default = tuple(c for c in CLASSIFIER_IDS if c != "d")
    classifiers = values.get("classifiers", {}).get("list", default)
    return _spec("", ExperimentConfig,
                 p=p, n1=n1, n2=n2, covariance=covariance, scenario=scenario,
                 innovation1=innov1, innovation2=innov2,
                 classifiers=classifiers, m1=exp.get("m1"), m2=exp.get("m2"),
                 reps=exp.get("reps", 1000), master_seed=exp["seed"])


def parse_output_options(path, override_dir=None, override_formats=None
                         ) -> OutputOptions:
    output = _read(path).get("output", {})
    directory = (override_dir or output.get("directory")
                 or os.environ.get(ENV_OUTPUT_DIR) or ".")
    formats = tuple(override_formats or output.get("formats")
                    or OUTPUT_FORMATS)
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


def csv_lines(rows: list[dict]):
    """The header, the first row's keys in order, then one line per row:
    strings as they are, else ``fmt``. Every row has the same keys."""
    columns = list(rows[0])
    yield ",".join(columns)
    for row in rows:
        yield ",".join(row[col] if isinstance(row[col], str)
                       else fmt(row[col]) for col in columns)


def _write_csv(path: Path, rows: list[dict]):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(line + "\n" for line in csv_lines(rows))


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
        "scenario": asdict(config.scenario),
        "innovation1": asdict(config.innovation1),
        "innovation2": asdict(config.innovation2),
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
        _write_csv(path, rows)
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
    _write_csv(path, report.rows)
    return path
