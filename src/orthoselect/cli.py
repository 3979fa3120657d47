"""Command-line interface: generation, selection, certificates, constants,
and the experiment audits, with stable self-describing file formats.

Exit codes: 0 success, 2 usage error, 3 format/IO error, 4 domain error.
Every artifact embeds the effective configuration and master seed, and any
command rerun with identical flags and seed produces byte-identical output.
`constants` and `experiment` import `analytic` and `harness` when they run,
so the other commands never load them.
"""
from __future__ import annotations

import functools
import json
import math
from collections import Counter
from pathlib import Path
from typing import TYPE_CHECKING

import click
import numpy as np

from . import matrixio
from .errors import BudgetExceeded, DomainError, FormatError, InvalidInput
from .linalg import UNIT_NORM_TOL
from .matrixio import _jsonable
from .selection import (DEFAULT_MAX_ATTEMPTS, SelectionConfig, brute_force_inf,
                        constrained_select, estimate_gamma)
from .sphere import (_STREAM_NET, NET_DIMENSION_CAP, RngStream, build_eps_net,
                     sample_sphere_matrix, sample_unit_vector)

if TYPE_CHECKING:
    from .harness import ExperimentReport, TrialRecord

_STREAM_DIRECTION = 1 << 32


class _ExitError(click.ClickException):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.exit_code = code


def _guard(fn):
    """Map library exceptions onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except FormatError as exc:
            raise _ExitError(f"format error: {exc}", 3) from exc
        except OSError as exc:
            raise _ExitError(f"io error: {exc}", 3) from exc
        except DomainError as exc:
            raise _ExitError(f"domain error: {exc}", 4) from exc
        except (InvalidInput, BudgetExceeded) as exc:
            raise click.UsageError(str(exc)) from exc

    return wrapper


def _check_net_dimension(n: int, source: str) -> None:
    """Reject, before any net work, a dimension the certificate net refuses."""
    if n > NET_DIMENSION_CAP:
        raise click.UsageError(f"the certificate's eps-net supports n <= "
                               f"{NET_DIMENSION_CAP}, but {source} gives n={n}")


def _dump_json(obj: dict) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _emit(out: str | None, fmt: str, payload: dict, text: list[str]) -> None:
    """Write `payload` as sorted JSON or key,value CSV, or `text` as lines."""
    if fmt == "text":
        _write_text(out, "\n".join(text) + "\n")
    elif fmt == "csv":
        _write_text(out, _kv_csv(payload))
    else:
        _write_text(out, _dump_json(payload))


# The help of every setting key, whichever commands read it; `experiment`
# lists its flags in this order.
_HELP = {
    "n": "Row count (ambient dimension).",
    "p": "Column count.",
    "r": "Order-statistic index.",
    "s": "Target subset cardinality.",
    "rho": "Smallest-singular-value floor.",
    "kappa": "Outer-set inflation factor.",
    "kappa_s": "Outer-set size.",
    "max_attempts": "Extraction retry budget.",
    "epsilon": "Concentration epsilon of the constants.",
    "c_kappa": "The constant C_kappa.",
    "c": "Sub-Gaussian tail constant.",
    "net_eps": "Net radius for the certificate.",
    "probes": "Random probe directions for the lower estimate.",
    "count": "Binomial sample size.",
    "q_grid": "Success probabilities, comma-separated.",
    "eps_grid": "Deviation fractions, comma-separated.",
    "r_grid": "Threshold grid, comma-separated.",
    "trials": "Trial count.",
    "seed": "Master seed.",
}


def _flags(rows, read_by: dict | None = None):
    """Declare `--key` for each (key, cast, default) row, then --config.

    The help is the key's `_HELP`, followed by the names in read_by[key]
    when given.  The options default to None, so `_settings` can tell a given
    flag from an omitted one; a cast other than int or float takes text.
    """

    def decorate(fn):
        fn = click.option("--config", "config_path", default=None,
                          type=click.Path(exists=True, dir_okay=False))(fn)
        for key, cast, _ in reversed(rows):
            readers = f" Read by {', '.join(read_by[key])}." if read_by else ""
            fn = click.option(f"--{key.replace('_', '-')}", key, default=None,
                              help=_HELP[key] + readers,
                              type=cast if cast in (int, float) else str)(fn)
        return fn

    return decorate


def _settings(rows, flags: dict, config_path: str | None) -> dict:
    """Each row's value: its flag wins, then the config file, then the default.

    Flag values pass through cast too, so a text flag parses like its config
    value.
    """
    cfg = matrixio.load_config_file(config_path) if config_path else {}
    settings = {}
    for key, cast, default in rows:
        raw = cfg.get(key) if flags[key] is None else flags[key]
        try:
            settings[key] = default if raw is None else cast(raw)
        except ValueError as exc:
            raise click.UsageError(f"{key}: cannot parse {raw!r}") from exc
    return settings


def _grid(text: str) -> list[float]:
    """Parse a nonempty comma-separated list of finite numbers."""
    values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values or not all(math.isfinite(x) for x in values):
        raise ValueError("empty or non-finite grid")
    return values


def _csv_cell(value, key: str) -> str:
    """One CSV cell: empty for None and for an infinite float (JSON's null),
    1 or 0 for a bool, a list's cells space-joined; a NaN raises DomainError
    naming `key`."""
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return " ".join(_csv_cell(v, key) for v in value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        if math.isnan(value):
            raise DomainError(f"{key} is NaN")
        return "" if math.isinf(value) else matrixio.format_float(float(value))
    return str(value)


def _kv_csv(payload: dict) -> str:
    """Flat key,value CSV for scalar payloads; lists become space-joined."""
    lines = ["key,value"]
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                lines.append(f"{key}.{sub},{_csv_cell(value[sub], f'{key}.{sub}')}")
        else:
            lines.append(f"{key},{_csv_cell(value, key)}")
    return "\n".join(lines) + "\n"


def _csv_column(key: str, values: list) -> list[str]:
    """The cells of one trial-table column: a column of Python floats or of
    Python ints in one pass, any other cell by cell."""
    kinds = set(map(type, values))
    if kinds == {float}:
        if any(v != v for v in values):
            raise DomainError(f"{key} is NaN")
        return [matrixio.format_float(v) if math.isfinite(v) else "" for v in values]
    if kinds == {int}:
        return list(map(str, values))
    return [_csv_cell(v, key) for v in values]


def records_to_csv(records: list[TrialRecord], metadata: dict) -> str:
    """TrialRecord table: one provenance comment line, then flat columns.

    Trial i draws from stream (seed, i), so its stream_index column is i.
    """
    groups = [(prefix, name, sorted({k for r in records for k in getattr(r, name)}))
              for prefix, name in (("param", "params"), ("measure", "measures"),
                                   ("claim", "claims"), ("satisfied", "satisfied"))]
    header = ["trial_index", "stream_index"]
    header += [f"{prefix}.{k}" for prefix, _, keys in groups for k in keys]
    index = [str(rec.trial_index) for rec in records]
    columns = [index, index] + [
        _csv_column(f"{prefix}.{k}", [getattr(rec, name).get(k) for rec in records])
        for prefix, name, keys in groups for k in keys]
    lines = ["# " + " ".join(f"{k}={metadata[k]}" for k in sorted(metadata)), ",".join(header)]
    lines += map(",".join, zip(*columns))
    return "\n".join(lines) + "\n"


def report_to_json(report: ExperimentReport, config: dict) -> str:
    return _dump_json({**report.to_json_dict(), "config": config})


@click.group()
def main():
    """Almost-orthogonal column selection and bound-audit experiments."""


_OUT = click.option("--out", type=click.Path(dir_okay=False), default=None,
                    help="Output path (stdout if omitted).")
_MATRIX = click.option("--matrix", "matrix_path", type=click.Path(exists=True, dir_okay=False),
                       required=True)
# Each command's settings as (key, cast, default) rows.
_SEED = ("seed", int, 0)
# SelectionConfig's class attributes are its field defaults
_SELECTION = (("s", int, 2), ("rho", float, SelectionConfig.rho_minus),
              ("kappa", float, SelectionConfig.kappa))
_GEN = (("n", int, None), ("p", int, None), _SEED)
_SELECT = (*_SELECTION, ("max_attempts", int, DEFAULT_MAX_ATTEMPTS), _SEED)
_GAMMA = (*_SELECTION, ("net_eps", float, 0.25), ("probes", int, 200), _SEED)
_CONSTANTS = (("n", int, 100), ("p", int, 1000), ("s", int, 1), ("rho", float, 0.5),
              ("epsilon", float, 0.5), ("c_kappa", float, 1.0), ("c", float, 0.5))


@main.command()
@_flags(_GEN)
@_OUT
@_guard
def gen(out, config_path, **flags):
    """Generate a matrix with i.i.d. uniform unit-sphere columns."""
    c = _settings(_GEN, flags, config_path)
    if c["n"] is None or c["p"] is None:
        raise click.UsageError("--n and --p are required")
    if c["n"] < 1 or c["p"] < 1:
        raise click.UsageError("--n and --p must be positive")
    matrix = sample_sphere_matrix(c["n"], c["p"], RngStream(c["seed"], 0))
    _write_text(out, matrixio.matrix_to_csv(matrix, c))


@main.command()
@_MATRIX
@click.option("--v-file", type=click.Path(exists=True, dir_okay=False), default=None, help="Direction vector file.")
@click.option("--v-random", is_flag=True, help="Draw the direction uniformly from the sphere.")
@_flags(_SELECT)
@_OUT
@click.option("--oracle", is_flag=True, help="Also compute the exact brute-force value (small instances).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@_guard
def select(matrix_path, v_file, v_random, out, oracle, fmt, config_path, **flags):
    """Run the selection pipeline for one direction."""
    c = _settings(_SELECT, flags, config_path)
    matrix, _ = matrixio.load_matrix(matrix_path)
    if v_file is None and not v_random:
        raise click.UsageError("provide --v-file or --v-random")
    if v_file is not None and v_random:
        raise click.UsageError("--v-file and --v-random are mutually exclusive")
    if v_file is not None:
        v = matrixio.load_vector(v_file)
        if v.shape[0] != matrix.n:
            raise FormatError(f"direction has {v.shape[0]} entries, matrix has n={matrix.n}")
        if not np.all(np.isfinite(v)):
            raise FormatError("direction vector entries must be finite")
        if abs(float(np.linalg.norm(v)) - 1.0) > UNIT_NORM_TOL:
            raise FormatError(f"direction vector must have unit norm (within {UNIT_NORM_TOL})")
    else:
        v = sample_unit_vector(matrix.n, RngStream(c["seed"], _STREAM_DIRECTION))
    cfg = SelectionConfig(s=c["s"], rho_minus=c["rho"], kappa=c["kappa"],
                          max_attempts=c["max_attempts"])
    outcome = constrained_select(matrix, v, cfg, RngStream(c["seed"], 0))
    payload = {
        "config": {**c, "matrix": str(matrix_path), "v_random": bool(v_random)},
        "outer": list(outcome.outer_set.indices),
        "inner": list(outcome.inner_set.indices) if outcome.inner_set else None,
        "sigma_min": outcome.sigma_min_achieved,
        "attained": outcome.attained_value,
        "attempts": outcome.attempts_used,
    }
    if oracle:
        exact = brute_force_inf(matrix, v, c["s"], c["rho"])
        payload["oracle_inf"] = exact
        if math.isfinite(exact) and exact > outcome.attained_value + 1e-12:
            raise RuntimeError("oracle exceeded the pipeline value; internal error")
    shown = ["outer", "inner", "sigma_min", "attained", "attempts"] + ["oracle_inf"] * oracle
    _emit(out, fmt, payload, [f"{key}: {payload[key]}" for key in shown])


@main.command()
@_MATRIX
@_flags(_GAMMA)
@_OUT
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@_guard
def gamma(matrix_path, out, fmt, config_path, **flags):
    """Certified upper / heuristic lower estimates of the selection value."""
    c = _settings(_GAMMA, flags, config_path)
    if not 0.0 < c["net_eps"] < 1.0:
        raise click.UsageError("--net-eps must lie in (0, 1)")
    matrix, _ = matrixio.load_matrix(matrix_path)
    _check_net_dimension(matrix.n, f"matrix {matrix_path}")
    cfg = SelectionConfig(s=c["s"], rho_minus=c["rho"], kappa=c["kappa"])
    net = build_eps_net(matrix.n, c["net_eps"], RngStream(c["seed"], _STREAM_NET),
                        stall_budget=2000)
    est = estimate_gamma(matrix, cfg, net, c["probes"], RngStream(c["seed"], 0))
    if (
        est.oracle_exact
        and math.isfinite(est.certified_upper)
        and math.isfinite(est.heuristic_lower)
        and est.heuristic_lower > est.certified_upper + 1e-9
    ):
        raise RuntimeError("lower estimate exceeded the certificate; internal error")
    payload = {
        "config": {**c, "matrix": str(matrix_path)},
        "certified_upper": est.certified_upper,
        "heuristic_lower": est.heuristic_lower,
        "feasibility_rate": est.feasibility_rate,
        "directions_tested": est.directions_tested,
        "oracle_exact": est.oracle_exact,
        "net": est.net,
    }
    shown = ("certified_upper", "heuristic_lower", "feasibility_rate")
    _emit(out, fmt, payload,
          [f"{key}: {payload[key]}" for key in shown] + [f"net size: {est.net['size']}"])
    if est.feasibility_rate == 0.0:
        raise _ExitError("degenerate instance: no direction had a feasible subset", 4)


@main.command()
@_flags(_CONSTANTS)
@_OUT
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@_guard
def constants(out, fmt, config_path, **flags):
    """Evaluate every derived constant and the hypothesis ledger."""
    from . import analytic

    c = _settings(_CONSTANTS, flags, config_path)
    consts = analytic.derive_constants(c["n"], c["p"], c["s"], c["rho"], c["epsilon"],
                                       c["c_kappa"], c["c"])
    ledger = analytic.constraint_check(consts)
    derived = ("k_epsilon", "kappa", "kappa_branch1", "kappa_branch2", "c_s", "c_v", "s_max",
               "gamma_bound", "u_norm", "v_split", "r_prime", "h_cap", "z0")
    values = {**c, **{key: getattr(consts, key) for key in derived}}
    if fmt == "json":
        _write_text(out, _dump_json({"constants": values, "constraints": ledger}))
    elif fmt == "csv":
        lines = ["key,value"] + [f"{k},{_csv_cell(v, k)}" for k, v in values.items()]
        lines += [f"constraint: {r['constraint']},{int(r['satisfied'])}" for r in ledger]
        _write_text(out, "\n".join(lines) + "\n")
    else:
        width = max(len(k) for k in values)
        lines = [f"{k.ljust(width)}  {v}" for k, v in values.items()]
        lines.append("")
        for r in ledger:
            mark = "ok " if r["satisfied"] else "FAIL"
            lines.append(f"[{mark}] {r['constraint']}  (lhs={r['lhs']:.6g}, rhs={r['rhs']:.6g})")
        _write_text(out, "\n".join(lines) + "\n")


def _run_theorem(h, c: dict) -> ExperimentReport:
    _check_net_dimension(c["n"], "--n (or config key n)")
    return h.run_theorem_audit(c["n"], c["p"], c["s"], c["rho"], c["net_eps"], c["trials"],
                               c["seed"], probe_count=c["probes"], kappa=c["kappa"])


# name -> ((key, cast, default) rows, runner over the harness module and the
# effective config).  Every experiment also reads seed.  Runners look each
# audit up on the harness module when they run, so a wrapper installed on it
# sees the call.
_EXPERIMENTS = {
    "order-stat": (
        (("n", int, 3), ("p", int, 20), ("r", int, 5), ("trials", int, 10000)),
        lambda h, c: h.run_order_stat_audit(c["n"], c["p"], c["r"], c["trials"], c["seed"]),
    ),
    "coherence": (
        (("n", int, 6), ("p", int, 50), ("trials", int, 1000)),
        lambda h, c: h.run_coherence_audit(c["n"], c["p"], c["trials"], c["seed"]),
    ),
    "norm": (
        (("n", int, 8), ("p", int, 64), ("kappa_s", int, 12), ("epsilon", float, 0.5),
         ("c_kappa", float, 2.0), ("trials", int, 200)),
        lambda h, c: h.run_norm_audit(c["n"], c["p"], c["kappa_s"], c["epsilon"], c["trials"],
                                      c["seed"], c_kappa=c["c_kappa"]),
    ),
    "decoupling": (
        (("n", int, 8), ("p", int, 24), ("kappa", float, 4.0), ("s", int, 3),
         ("r_grid", _grid, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]), ("trials", int, 5000)),
        lambda h, c: h.run_decoupling_audit(c["n"], c["p"], c["kappa"], c["s"], c["r_grid"],
                                            c["trials"], c["seed"]),
    ),
    "theorem": (
        (("n", int, 4), ("p", int, 120), ("s", int, 2), ("rho", float, SelectionConfig.rho_minus),
         ("net_eps", float, 0.5), ("probes", int, 50), ("kappa", float, SelectionConfig.kappa),
         ("trials", int, 20)),
        _run_theorem,
    ),
    "chernoff": (
        (("count", int, 1000), ("q_grid", _grid, [0.05, 0.1, 0.3]),
         ("eps_grid", _grid, [0.2, 0.5, 0.8]), ("trials", int, 2000)),
        lambda h, c: h.run_chernoff_audit(c["q_grid"], c["eps_grid"], c["trials"], c["seed"],
                                          count=c["count"]),
    ),
}


def _experiment_flags() -> tuple[tuple, dict]:
    """One row per key any audit reads, in `_HELP` order, and the audits that
    read each key."""
    rows, read_by = {}, {}
    for name, (keys, _) in _EXPERIMENTS.items():
        for row in keys + (_SEED,):
            rows.setdefault(row[0], row)
            read_by.setdefault(row[0], []).append(name)
    return tuple(rows[key] for key in _HELP if key in rows), read_by


@main.command()
@click.argument("name", type=click.Choice(list(_EXPERIMENTS)))
@_flags(*_experiment_flags())
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Base path; writes <out>.report.json and <out>.trials.csv "
                   "(default: experiment-<name> in the working directory).")
@_guard
def experiment(name, out, config_path, **flags):
    """Run one named audit and write its report JSON and trial CSV."""
    from . import harness

    rows, run = _EXPERIMENTS[name]
    rows += (_SEED,)
    read = {row[0] for row in rows}
    unread = [f"--{k.replace('_', '-')}" for k, v in flags.items() if v is not None and k not in read]
    if unread:
        raise click.UsageError(f"experiment {name} does not read {', '.join(unread)}")
    settings = _settings(rows, flags, config_path)
    report = run(harness, settings)
    # repr round-trips, so replaying the echoed config runs the same grid
    config = {"name": name, **{key: ",".join(map(repr, value)) if isinstance(value, list) else value
                               for key, value in settings.items()}}
    base = Path(f"experiment-{name}" if out is None else out)
    base.parent.mkdir(parents=True, exist_ok=True)
    report_path = base.with_name(base.name + ".report.json")
    trials_path = base.with_name(base.name + ".trials.csv")
    # both texts first, so a refused NaN leaves neither file behind
    report_text = report_to_json(report, config)
    trials_text = records_to_csv(report.records, config)
    report_path.write_text(report_text, encoding="utf-8")
    trials_path.write_text(trials_text, encoding="utf-8")
    counts = Counter(cell.verdict for cell in report.cells)
    click.echo(
        f"{name}: {len(report.cells)} cells "
        f"(supported={counts['supported']}, violated={counts['violated']}, "
        f"untestable={counts['untestable-at-scale']}) -> {report_path}"
    )


if __name__ == "__main__":
    main()
