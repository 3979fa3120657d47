"""Output checks for the benchmark's workloads.

Every check holds for any correct build and any seed, so none compares bytes.
Each returns a list of problems; an op with any problem counts as failed.
The exact selection value used here is the benchmark's own s=2 closed form,
independent of the library's oracles.
"""
from __future__ import annotations

import csv
import io
import json
import math

import jsonschema
import numpy as np

TOL = 1e-12


def exact_s2(x: np.ndarray, dirs: np.ndarray, rho: float) -> np.ndarray:
    """Exact selection value at each direction row for s=2.

    A column pair (i, j) of unit vectors has sigma_min >= rho iff
    |<X_i, X_j>| <= 1 - rho^2, so the value at v is the min over such pairs of
    max(|<X_i, v>|, |<X_j, v>|), and +inf when no pair qualifies.
    """
    gram = x.T @ x
    rows, cols = np.triu_indices(x.shape[1], k=1)
    keep = np.abs(gram[rows, cols]) <= 1.0 - rho * rho
    rows, cols = rows[keep], cols[keep]
    out = np.full(dirs.shape[0], math.inf)
    if rows.size == 0:
        return out
    chunk = max(1, (1 << 22) // rows.size)
    for start in range(0, dirs.shape[0], chunk):
        b = np.abs(dirs[start : start + chunk] @ x)
        out[start : start + chunk] = np.min(np.maximum(b[:, rows], b[:, cols]), axis=1)
    return out


def unit_rows(gen: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` uniform unit vectors in R^dim, one per row: the benchmark's own
    sampler, so inputs do not depend on the library under test."""
    g = gen.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _number(value) -> float:
    """A JSON number, with null read as +inf (the CLI writes inf as null)."""
    return math.inf if value is None else float(value)


def check_certify(returncode: int, payload_text: str, x: np.ndarray, dirs: np.ndarray,
                  rho: float, probes: int) -> list[str]:
    """Checks on one `orthoselect gamma` job run on matrix `x`."""
    if returncode != 0:
        return [f"gamma exited with code {returncode}"]
    try:
        payload = json.loads(payload_text)
        upper = _number(payload["certified_upper"])
        lower = _number(payload["heuristic_lower"])
        tested = int(payload["directions_tested"])
        net_size = int(payload["net"]["size"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"gamma output unreadable: {exc!r}"]
    errors = []
    if not 0.0 <= lower <= upper:
        errors.append(f"need 0 <= heuristic_lower <= certified_upper, got {lower} and {upper}")
    if tested != net_size + probes:
        errors.append(f"directions_tested={tested}, expected net size {net_size} + {probes} probes")
    exact = exact_s2(x, dirs, rho)
    finite = exact[np.isfinite(exact)]
    if finite.size and float(np.max(finite)) > upper + TOL:
        errors.append(f"certified_upper {upper} below the exact value {float(np.max(finite))}")
    return errors


def check_probe_sweep(cert_big: float, x_big: np.ndarray, dirs_big: np.ndarray,
                      pipeline: np.ndarray, subsample: np.ndarray, cert_small: float,
                      x_small: np.ndarray, dirs_small: np.ndarray, exact_small: np.ndarray,
                      rho: float) -> list[str]:
    """Checks on one probe-sweep op.

    `pipeline` holds the pipeline values at `dirs_big` under certificate
    `cert_big`; `subsample` indexes the rows compared with the closed form.
    `exact_small` is the library's exact oracle at `dirs_small` under
    certificate `cert_small`.
    """
    errors = []
    for label, values, cert in (("pipeline", pipeline, cert_big),
                                ("exact", exact_small, cert_small)):
        above = int(np.sum(np.isfinite(values) & (values > cert)))
        if above:
            errors.append(f"{above} {label} values exceed the certificate {cert}")
    exact = exact_s2(x_big, dirs_big[subsample], rho)
    sub = pipeline[subsample]
    below = int(np.sum(sub < exact - TOL))
    if below:
        errors.append(f"{below} subsampled pipeline values lie below the exact value")
    closed = exact_s2(x_small, dirs_small, rho)
    same = (closed == exact_small) | (np.abs(closed - exact_small) <= TOL)
    if not np.all(same):
        errors.append(f"exact oracle off the closed form at {int(np.sum(~same))} directions")
    return errors


def check_audit(returncode: int, report_text: str, trials_text: str, schema: dict,
                cells: int, rows: int, verdict: str | None) -> tuple[list[str], list[str]]:
    """Checks on one `orthoselect experiment` job; returns (problems, verdicts).

    `cells` and `rows` are the expected cell count and trial-table row count;
    `verdict`, when given, is the verdict every cell must carry.
    """
    if returncode != 0:
        return [f"experiment exited with code {returncode}"], []
    try:
        report = json.loads(report_text)
        jsonschema.validate(report, schema)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"], []
    except jsonschema.ValidationError as exc:
        return [f"report fails the schema: {exc.message}"], []
    verdicts = [cell["verdict"] for cell in report["cells"]]
    errors = []
    if len(verdicts) != cells:
        errors.append(f"{len(verdicts)} cells, expected {cells}")
    if verdict is not None and any(v != verdict for v in verdicts):
        errors.append(f"verdicts {verdicts}, expected {verdict}")
    table = [line for line in trials_text.splitlines() if not line.startswith("#")]
    records = list(csv.reader(io.StringIO("\n".join(table))))
    width = len(records[0]) if records else 0
    data = records[1:]
    if len(data) != rows:
        errors.append(f"{len(data)} trial rows, expected {rows}")
    if any(len(row) != width for row in data):
        errors.append("trial rows have inconsistent widths")
    return errors, verdicts
