"""Command-line interface: generation, selection, certificates, constants,
and the experiment audits, with stable self-describing file formats.

Exit codes: 0 success, 2 usage error, 3 format/IO error, 4 domain error.
Every artifact embeds the effective configuration and master seed, and any
command rerun with identical flags and seed produces byte-identical output.
"""
from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import click
import numpy as np

from . import analytic, harness, matrixio
from .errors import BudgetExceeded, DomainError, FormatError, InvalidInput
from .harness import ExperimentReport, TrialRecord, _jsonable
from .selection import SelectionConfig, brute_force_inf, constrained_select, estimate_gamma
from .sphere import (DEFAULT_NET_DIMENSION_CAP, RngStream, build_eps_net, sample_sphere_matrix,
                     sample_unit_vector)

_STREAM_DIRECTION = 1 << 32
_STREAM_NET = harness._STREAM_NET


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
    if n > DEFAULT_NET_DIMENSION_CAP:
        raise click.UsageError(f"the certificate's eps-net supports n <= "
                               f"{DEFAULT_NET_DIMENSION_CAP}, but {source} gives n={n}")


def _dump_json(obj: dict) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _load_config(config: str | None) -> dict[str, str]:
    return matrixio.load_config_file(config) if config else {}


def _effective(flag_value, cfg: dict[str, str], key: str, cast, default):
    """CLI flag wins, then the config file, then the built-in default.

    Flag values pass through cast too, so a text flag parses like its config
    value.
    """
    if flag_value is None and key not in cfg:
        return default
    raw = cfg[key] if flag_value is None else flag_value
    try:
        return cast(raw)
    except ValueError as exc:
        raise click.UsageError(f"{key}: cannot parse {raw!r}") from exc


def _grid(text: str) -> list[float]:
    """Parse a nonempty comma-separated list of finite numbers."""
    values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    if not values or not all(math.isfinite(x) for x in values):
        raise ValueError("empty or non-finite grid")
    return values


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return matrixio.format_float(float(value))


def _kv_csv(payload: dict) -> str:
    """Flat key,value CSV for scalar payloads; lists become space-joined."""
    lines = ["key,value"]
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            for sub in sorted(value):
                lines.append(f"{key}.{sub},{_csv_cell_text(value[sub])}")
        else:
            lines.append(f"{key},{_csv_cell_text(value)}")
    return "\n".join(lines) + "\n"


def _csv_cell_text(value) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(_csv_cell_text(v) for v in value)
    if isinstance(value, float):
        return "" if math.isinf(value) or math.isnan(value) else matrixio.format_float(value)
    if value is None:
        return ""
    return str(value)


def records_to_csv(records: list[TrialRecord], metadata: dict) -> str:
    """TrialRecord table: one provenance comment line, then flat columns."""
    param_keys = sorted({k for r in records for k in r.params})
    measure_keys = sorted({k for r in records for k in r.measures})
    claim_keys = sorted({k for r in records for k in r.claims})
    flag_keys = sorted({k for r in records for k in r.satisfied})
    header = ["trial_index", "stream_index"]
    header += [f"param.{k}" for k in param_keys]
    header += [f"measure.{k}" for k in measure_keys]
    header += [f"claim.{k}" for k in claim_keys]
    header += [f"satisfied.{k}" for k in flag_keys]
    lines = ["# " + " ".join(f"{k}={metadata[k]}" for k in sorted(metadata))]
    lines.append(",".join(header))
    for rec in records:
        row = [str(rec.trial_index), str(rec.stream_index)]
        row += [_csv_cell(rec.params.get(k)) for k in param_keys]
        row += [_csv_cell(rec.measures.get(k)) for k in measure_keys]
        row += [_csv_cell(rec.claims.get(k)) for k in claim_keys]
        row += [_csv_cell(rec.satisfied.get(k)) for k in flag_keys]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def report_to_json(report: ExperimentReport, config: dict) -> str:
    payload = report.to_json_dict()
    payload["config"] = config
    return _dump_json(payload)


@click.group()
def main():
    """Almost-orthogonal column selection and bound-audit experiments."""


@main.command()
@click.option("--n", type=int, default=None, help="Row count (ambient dimension).")
@click.option("--p", type=int, default=None, help="Column count.")
@click.option("--seed", type=int, default=None, help="Master seed.")
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Output CSV path (stdout if omitted).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_guard
def gen(n, p, seed, out, config_path):
    """Generate a matrix with i.i.d. uniform unit-sphere columns."""
    cfg = _load_config(config_path)
    n = _effective(n, cfg, "n", int, None)
    p = _effective(p, cfg, "p", int, None)
    seed = _effective(seed, cfg, "seed", int, 0)
    if n is None or p is None:
        raise click.UsageError("--n and --p are required")
    if n < 1 or p < 1:
        raise click.UsageError("--n and --p must be positive")
    matrix = sample_sphere_matrix(n, p, RngStream(seed, 0))
    _write_text(out, matrixio.matrix_to_csv(matrix, {"n": n, "p": p, "seed": seed}))


@main.command()
@click.option("--matrix", "matrix_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--v-file", type=click.Path(exists=True, dir_okay=False), default=None, help="Direction vector file.")
@click.option("--v-random", is_flag=True, help="Draw the direction uniformly from the sphere.")
@click.option("--s", type=int, default=None, help="Target subset cardinality.")
@click.option("--rho", type=float, default=None, help="Smallest-singular-value floor.")
@click.option("--kappa", type=float, default=None, help="Outer-set inflation factor.")
@click.option("--max-attempts", type=int, default=None, help="Extraction retry budget.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--oracle", is_flag=True, help="Also compute the exact brute-force value (small instances).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_guard
def select(matrix_path, v_file, v_random, s, rho, kappa, max_attempts, seed, out, oracle, fmt, config_path):
    """Run the selection pipeline for one direction."""
    cfgf = _load_config(config_path)
    s = _effective(s, cfgf, "s", int, 2)
    rho = _effective(rho, cfgf, "rho", float, 0.5)
    kappa = _effective(kappa, cfgf, "kappa", float, analytic.KAPPA_BRANCH_CONSTANT)
    max_attempts = _effective(max_attempts, cfgf, "max_attempts", int, 1000)
    seed = _effective(seed, cfgf, "seed", int, 0)
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
        if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
            raise FormatError("direction vector must have unit norm (within 1e-9)")
    else:
        v = sample_unit_vector(matrix.n, RngStream(seed, _STREAM_DIRECTION))
    cfg = SelectionConfig(s=s, rho_minus=rho, kappa=kappa, max_attempts=max_attempts)
    outcome = constrained_select(matrix, v, cfg, RngStream(seed, 0))
    effective = {
        "s": s, "rho": rho, "kappa": kappa, "max_attempts": max_attempts,
        "seed": seed, "matrix": str(matrix_path), "v_random": bool(v_random),
    }
    payload = {
        "config": effective,
        "outer": list(outcome.outer_set.indices),
        "inner": list(outcome.inner_set.indices) if outcome.inner_set else None,
        "sigma_min": outcome.sigma_min_achieved,
        "attained": outcome.attained_value,
        "attempts": outcome.attempts_used,
    }
    if oracle:
        exact = brute_force_inf(matrix, v, s, rho)
        payload["oracle_inf"] = exact
        if math.isfinite(exact) and math.isfinite(outcome.attained_value):
            if exact > outcome.attained_value + 1e-12:
                raise RuntimeError("oracle exceeded the pipeline value; internal error")
    if fmt == "text":
        lines = [f"outer: {payload['outer']}", f"inner: {payload['inner']}",
                 f"sigma_min: {payload['sigma_min']}", f"attained: {payload['attained']}",
                 f"attempts: {payload['attempts']}"]
        if oracle:
            lines.append(f"oracle_inf: {payload['oracle_inf']}")
        _write_text(out, "\n".join(lines) + "\n")
    elif fmt == "csv":
        _write_text(out, _kv_csv(payload))
    else:
        _write_text(out, _dump_json(payload))


@main.command()
@click.option("--matrix", "matrix_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--s", type=int, default=None)
@click.option("--rho", type=float, default=None)
@click.option("--kappa", type=float, default=None)
@click.option("--net-eps", type=float, default=None, help="Net radius for the certificate.")
@click.option("--probes", type=int, default=None, help="Random probe directions for the lower estimate.")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_guard
def gamma(matrix_path, s, rho, kappa, net_eps, probes, seed, out, fmt, config_path):
    """Certified upper / heuristic lower estimates of the selection value."""
    cfgf = _load_config(config_path)
    s = _effective(s, cfgf, "s", int, 2)
    rho = _effective(rho, cfgf, "rho", float, 0.5)
    kappa = _effective(kappa, cfgf, "kappa", float, analytic.KAPPA_BRANCH_CONSTANT)
    net_eps = _effective(net_eps, cfgf, "net_eps", float, 0.25)
    probes = _effective(probes, cfgf, "probes", int, 200)
    seed = _effective(seed, cfgf, "seed", int, 0)
    if not 0.0 < net_eps < 1.0:
        raise click.UsageError("--net-eps must lie in (0, 1)")
    matrix, _ = matrixio.load_matrix(matrix_path)
    _check_net_dimension(matrix.n, f"matrix {matrix_path}")
    cfg = SelectionConfig(s=s, rho_minus=rho, kappa=kappa)
    net = build_eps_net(matrix.n, net_eps, RngStream(seed, _STREAM_NET), stall_budget=2000)
    est = estimate_gamma(matrix, cfg, net, probes, RngStream(seed, 0))
    if (
        est.oracle_exact
        and math.isfinite(est.certified_upper)
        and math.isfinite(est.heuristic_lower)
        and est.heuristic_lower > est.certified_upper + 1e-9
    ):
        raise RuntimeError("lower estimate exceeded the certificate; internal error")
    payload = {
        "config": {"s": s, "rho": rho, "kappa": kappa, "net_eps": net_eps,
                   "probes": probes, "seed": seed, "matrix": str(matrix_path)},
        "certified_upper": est.certified_upper,
        "heuristic_lower": est.heuristic_lower,
        "feasibility_rate": est.feasibility_rate,
        "directions_tested": est.directions_tested,
        "oracle_exact": est.oracle_exact,
        "net": est.net,
    }
    if fmt == "text":
        text = (
            f"certified_upper: {est.certified_upper}\n"
            f"heuristic_lower: {est.heuristic_lower}\n"
            f"feasibility_rate: {est.feasibility_rate}\n"
            f"net size: {est.net['size']}\n"
        )
        _write_text(out, text)
    elif fmt == "csv":
        _write_text(out, _kv_csv(payload))
    else:
        _write_text(out, _dump_json(payload))
    if est.feasibility_rate == 0.0:
        raise _ExitError("degenerate instance: no direction had a feasible subset", 4)


@main.command()
@click.option("--n", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--s", type=int, default=None)
@click.option("--rho", type=float, default=None)
@click.option("--epsilon", type=float, default=None, help="Concentration epsilon of the constants.")
@click.option("--c-kappa", type=float, default=None)
@click.option("--c", "c_subgauss", type=float, default=None, help="Sub-Gaussian tail constant.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]), default="text")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_guard
def constants(n, p, s, rho, epsilon, c_kappa, c_subgauss, out, fmt, config_path):
    """Evaluate every derived constant and the hypothesis ledger."""
    cfgf = _load_config(config_path)
    n = _effective(n, cfgf, "n", int, 100)
    p = _effective(p, cfgf, "p", int, 1000)
    s = _effective(s, cfgf, "s", int, 1)
    rho = _effective(rho, cfgf, "rho", float, 0.5)
    epsilon = _effective(epsilon, cfgf, "epsilon", float, 0.5)
    c_kappa = _effective(c_kappa, cfgf, "c_kappa", float, 1.0)
    c_subgauss = _effective(c_subgauss, cfgf, "c", float, 0.5)
    consts = analytic.derive_constants(n, p, s, rho, epsilon, c_kappa, c_subgauss)
    ledger = analytic.constraint_check(n, p, s, consts)
    values = {
        "n": n, "p": p, "s": s, "rho": rho, "epsilon": epsilon,
        "c_kappa": c_kappa, "c": c_subgauss,
        "k_epsilon": consts.k_epsilon,
        "kappa": consts.kappa,
        "kappa_branch1": consts.kappa_branch1,
        "kappa_branch2": consts.kappa_branch2,
        "c_s": consts.c_s,
        "c_v": consts.c_v,
        "s_max": consts.s_max,
        "gamma_bound": consts.gamma_bound,
        "u_norm": consts.u_norm,
        "v_split": consts.v_split,
        "r_prime": consts.r_prime,
        "h_cap": consts.h_cap,
        "z0": consts.z0,
    }
    if fmt == "json":
        _write_text(out, _dump_json({"constants": values, "constraints": ledger}))
    elif fmt == "csv":
        lines = ["key,value"] + [f"{k},{_csv_cell(v)}" for k, v in values.items()]
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


def _run_theorem(c: dict) -> ExperimentReport:
    _check_net_dimension(c["n"], "--n (or config key n)")
    return harness.run_theorem_audit(c["n"], c["p"], c["s"], c["rho"], c["net_eps"], c["trials"],
                                     c["seed"], probe_count=c["probes"], kappa=c["kappa"])


# name -> (config keys as (key, cast, default), runner over the effective
# config).  Every experiment also reads seed.  Runners look each audit up on
# the harness module when they run, so a wrapper installed on it sees the call.
_EXPERIMENTS = {
    "order-stat": (
        (("n", int, 3), ("p", int, 20), ("r", int, 5), ("trials", int, 10000)),
        lambda c: harness.run_order_stat_audit(c["n"], c["p"], c["r"], c["trials"], c["seed"]),
    ),
    "coherence": (
        (("n", int, 6), ("p", int, 50), ("trials", int, 1000)),
        lambda c: harness.run_coherence_audit(c["n"], c["p"], c["trials"], c["seed"]),
    ),
    "norm": (
        (("n", int, 8), ("p", int, 64), ("kappa_s", int, 12), ("epsilon", float, 0.5),
         ("c_kappa", float, 2.0), ("trials", int, 200)),
        lambda c: harness.run_norm_audit(c["n"], c["p"], c["kappa_s"], c["epsilon"], c["trials"],
                                         c["seed"], c_kappa=c["c_kappa"]),
    ),
    "decoupling": (
        (("n", int, 8), ("p", int, 24), ("kappa", float, 4.0), ("s", int, 3),
         ("r_grid", _grid, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]), ("trials", int, 5000)),
        lambda c: harness.run_decoupling_audit(c["n"], c["p"], c["kappa"], c["s"], c["r_grid"],
                                               c["trials"], c["seed"]),
    ),
    "theorem": (
        (("n", int, 4), ("p", int, 120), ("s", int, 2), ("rho", float, 0.5), ("net_eps", float, 0.5),
         ("probes", int, 50), ("kappa", float, analytic.KAPPA_BRANCH_CONSTANT), ("trials", int, 20)),
        _run_theorem,
    ),
    "chernoff": (
        (("count", int, 1000), ("q_grid", _grid, [0.05, 0.1, 0.3]),
         ("eps_grid", _grid, [0.2, 0.5, 0.8]), ("trials", int, 2000)),
        lambda c: harness.run_chernoff_audit(c["q_grid"], c["eps_grid"], c["trials"], c["seed"],
                                             count=c["count"]),
    ),
}


@main.command()
@click.argument("name", type=click.Choice(list(_EXPERIMENTS)))
@click.option("--n", type=int, default=None)
@click.option("--p", type=int, default=None)
@click.option("--r", type=int, default=None, help="Order-statistic index (order-stat).")
@click.option("--s", type=int, default=None)
@click.option("--rho", type=float, default=None)
@click.option("--kappa", type=float, default=None, help="Inflation factor (decoupling, theorem).")
@click.option("--kappa-s", type=int, default=None, help="Outer-set size (norm).")
@click.option("--epsilon", type=float, default=None)
@click.option("--c-kappa", type=float, default=None)
@click.option("--net-eps", type=float, default=None)
@click.option("--probes", type=int, default=None)
@click.option("--count", type=int, default=None, help="Binomial sample size (chernoff).")
@click.option("--q-grid", type=str, default=None, help="Success probabilities, comma-separated (chernoff).")
@click.option("--eps-grid", type=str, default=None, help="Deviation fractions, comma-separated (chernoff).")
@click.option("--r-grid", type=str, default=None, help="Threshold grid, comma-separated (decoupling).")
@click.option("--trials", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Base path; writes <out>.report.json and <out>.trials.csv "
                   "(default: experiment-<name> in the working directory).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), default=None)
@_guard
def experiment(name, out, config_path, **flags):
    """Run one named audit and write its report JSON and trial CSV."""
    keys, run = _EXPERIMENTS[name]
    keys += (("seed", int, 0),)
    read = {key for key, _, _ in keys}
    unread = [f"--{k.replace('_', '-')}" for k, v in flags.items() if v is not None and k not in read]
    if unread:
        raise click.UsageError(f"experiment {name} does not read {', '.join(unread)}")
    cfgf = _load_config(config_path)
    settings = {key: _effective(flags[key], cfgf, key, cast, default) for key, cast, default in keys}
    report = run(settings)
    config = {"name": name}
    for key, value in settings.items():
        # repr round-trips, so replaying the echoed config runs the same grid
        config[key] = ",".join(map(repr, value)) if isinstance(value, list) else value
    if out is None:
        out = f"experiment-{name}"
    base = Path(out)
    base.parent.mkdir(parents=True, exist_ok=True)
    report_path = base.with_name(base.name + ".report.json")
    trials_path = base.with_name(base.name + ".trials.csv")
    report_path.write_text(report_to_json(report, config), encoding="utf-8")
    trials_path.write_text(records_to_csv(report.records, config), encoding="utf-8")
    counts = {"supported": 0, "violated": 0, "untestable-at-scale": 0}
    for cell in report.cells:
        counts[cell.verdict] += 1
    click.echo(
        f"{name}: {len(report.cells)} cells "
        f"(supported={counts['supported']}, violated={counts['violated']}, "
        f"untestable={counts['untestable-at-scale']}) -> {report_path}"
    )


if __name__ == "__main__":
    main()
