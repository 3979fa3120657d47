"""orthoselect benchmark: three workloads, timed end to end, with a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The package runs from `src/` of the checkout; nothing is installed.  One
client drives each workload as a closed loop: the next op starts when the
previous one ends.  The seed makes every input; the program sees only the
generated inputs.  `CRI_THREADS` is unset for every job and BLAS threads are
capped at the CPUs this process may use.

Workloads (an op is the unit the op timings count):

* certify: set-up writes the op's own 4 x 200 matrix with `orthoselect gen`;
  the op is one `orthoselect gamma --s 2 --rho 0.5 --net-eps 0.25
  --probes 500` job on it.  Items are the directions it evaluates.
* probe-sweep: a worker process builds the d=4, eps=0.25, stall-10 000 net
  in set-up; an op is two in-process legs, the p=200 certificate plus
  `attained_values` on 1e5 fresh directions, and the p=12, kappa=3
  certificate plus `exact_inf_profile` on 1e5 directions.  Items are
  directions.
* audit: set-up starts a fresh interpreter that imports the CLI; an op is
  the six `orthoselect experiment` jobs of the README in turn.  Items are
  trial rows written.

With `--trace 0` the last line reports the end-to-end metrics: `setup_s`
(median set-up step: one `gen` job, one net build, one CLI import),
`op_p50_s` (median op wall time), `items_per_s` (median over ops of items
per second of op time; a failed op counts no items) and `peak_rss_mb`
(median over ops of the largest RSS of a process doing the op's work, from
wait4; probe-sweep has one such process for the whole run).  `failed` over
`attempted` is the failed ratio.  With `--trace 1` the first half of the run
is untimed by tracing and the second half traced; the last line reports the
per-layer metrics (see tracing.per_layer_metrics), `trace.op_p50_s` and the
tracing overhead `trace.overhead_s`, traced minus untraced `op_p50_s`.
Lines before the last one record the environment, every metric with its unit
and sample count, and any failed checks.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
from tracing import per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEADLINE_S = 170.0
RHO = 0.5


@dataclass
class OpResult:
    seconds: float
    items: float
    errors: list[str] = field(default_factory=list)


def summarize(ops: list[OpResult]) -> dict:
    """Attempted and failed op counts; an op with any check problem failed."""
    failed = sum(1 for op in ops if op.errors)
    return {"attempted": len(ops), "failed": failed, "failed_ratio": failed / len(ops)}


def job_seed(seed: int, index: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, index, stream]).generate_state(1)[0] >> 1)


@dataclass
class Job:
    returncode: int
    seconds: float
    rss_mb: float


class Runner:
    """Runs program jobs one after another in `workdir`, each waited on with
    wait4 so its own peak RSS is known; every job is killed at the deadline."""

    def __init__(self, workdir: Path, env: dict, deadline: float) -> None:
        self.workdir, self.env, self.deadline = workdir, env, deadline
        self.traces: list[Path] = []

    def spawn(self, argv: list[str], **kwargs) -> tuple[subprocess.Popen, threading.Timer]:
        proc = subprocess.Popen(argv, env=self.env, cwd=self.workdir, **kwargs)
        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        return proc, timer

    @staticmethod
    def reap(proc: subprocess.Popen, timer: threading.Timer) -> float:
        """Wait for `proc`; returns its peak RSS in MiB."""
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return usage.ru_maxrss / 1024

    def python(self, argv: list[str]) -> Job:
        """One Python job; a failed job's stderr is passed on to ours."""
        err = self.workdir / "stderr.txt"
        with open(err, "wb") as fh_err:
            start = time.perf_counter()
            proc, timer = self.spawn([sys.executable, *argv], stdout=subprocess.DEVNULL,
                                     stderr=fh_err)
            rss = self.reap(proc, timer)
            seconds = time.perf_counter() - start
        if proc.returncode:
            sys.stderr.write(err.read_text(encoding="utf-8", errors="replace"))
        return Job(proc.returncode, seconds, rss)

    def cli(self, args: list[str], trace: bool, phase: str) -> Job:
        """One `orthoselect ARGS` job; traced jobs write a trace document."""
        if not trace:
            return self.python(["-m", "orthoselect.cli", *args])
        path = self.workdir / f"trace-{len(self.traces)}.json"
        self.traces.append(path)
        return self.python([str(HERE / "traced_cli.py"), str(path), phase, *args])


class Workload:
    """A workload: `start` sets up, `op` runs and checks one op, `stop` ends.

    `setup_s` holds the time of each set-up step and `rss_mb` the peak RSS of
    each process (or op's processes) doing the work.
    """

    name = item = ""

    def __init__(self, runner: Runner, seed: int) -> None:
        self.runner, self.seed = runner, seed
        self.setup_s: list[float] = []
        self.rss_mb: list[float] = []
        self.traced_setups = 0

    def start(self, trace: bool) -> None:
        pass

    def op(self, index: int, trace: bool) -> OpResult:
        raise NotImplementedError

    def stop(self) -> None:
        pass

    def report(self) -> list[str]:
        return []


class Certify(Workload):
    """Each op sets up its own matrix with a `gen` job first."""

    name, item = "certify", "directions"
    PROBES = 500

    def op(self, index: int, trace: bool) -> OpResult:
        matrix = self.runner.workdir / f"m{index}.csv"
        gen = self.runner.cli(["gen", "--n", "4", "--p", "200", "--seed",
                               str(job_seed(self.seed, index, 0)), "--out", str(matrix)],
                              trace, "setup")
        self.setup_s.append(gen.seconds)
        self.traced_setups += trace
        out = self.runner.workdir / f"g{index}.json"
        job = self.runner.cli(["gamma", "--matrix", str(matrix), "--s", "2", "--rho", str(RHO),
                               "--net-eps", "0.25", "--probes", str(self.PROBES), "--seed",
                               str(job_seed(self.seed, index, 1)), "--out", str(out)],
                              trace, "op")
        self.rss_mb.append(job.rss_mb)
        errors = [f"gen exited with code {gen.returncode}"] if gen.returncode else []
        ok = job.returncode == 0
        x = np.loadtxt(matrix, delimiter=",", comments="#", ndmin=2) if ok else None
        dirs = checks.unit_rows(np.random.default_rng([self.seed, index, 2]), 256, 4)
        text = out.read_text(encoding="utf-8") if ok else ""
        errors += checks.check_certify(job.returncode, text, x, dirs, RHO, self.PROBES)
        items = 0 if errors else json.loads(text)["directions_tested"]
        for path in (matrix, out):
            path.unlink(missing_ok=True)
        return OpResult(job.seconds, items, errors)


class ProbeSweep(Workload):
    """Set-up and ops run in one worker process, which answers each op."""

    name, item = "probe-sweep", "directions"
    proc = timer = None

    def start(self, trace: bool) -> None:
        self.stderr = open(self.runner.workdir / "worker-stderr.txt", "wb")
        self.proc, self.timer = self.runner.spawn(
            [sys.executable, str(HERE / "probe_worker.py"), str(self.seed),
             str(self.runner.workdir), "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr, text=True)
        self.setup_s = self._reply()["setup_s"]
        if trace:
            self.traced_setups = len(self.setup_s)
            self.runner.traces.append(self.runner.workdir / "setup.json")

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("probe worker ended early; see its stderr above")
        return json.loads(line)

    def op(self, index: int, trace: bool) -> OpResult:
        self.proc.stdin.write(json.dumps({"index": index, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        if trace:
            self.runner.traces.append(self.runner.workdir / f"op-{index}.json")
        return OpResult(reply["seconds"], 0 if reply["errors"] else reply["items"], reply["errors"])

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.returncode is None:
            self.proc.stdin.close()
            self.rss_mb = [self.runner.reap(self.proc, self.timer)]
        self.proc.stdout.close()
        self.stderr.close()
        if self.proc.returncode != 0:
            sys.stderr.write((self.runner.workdir / "worker-stderr.txt").read_text())
            raise RuntimeError(f"probe worker exited with code {self.proc.returncode}")


# (name, README flags, expected cells, expected trial rows, required verdict)
AUDIT_JOBS = (
    ("order-stat", ["--n", "3", "--p", "20", "--r", "5", "--trials", "10000"], 1, 10000, None),
    ("coherence", ["--n", "6", "--p", "50", "--trials", "1000"], 1, 1000, "violated"),
    ("norm", ["--n", "8", "--p", "64", "--kappa-s", "12", "--trials", "200"], 1, 200, None),
    ("decoupling", ["--n", "8", "--p", "24", "--kappa", "4", "--s", "3", "--trials", "5000"],
     18, 5000, None),
    ("theorem", ["--n", "4", "--p", "120", "--s", "2", "--trials", "20"], 1, 20,
     "untestable-at-scale"),
    ("chernoff", ["--q-grid", "0.05,0.1,0.3", "--eps-grid", "0.2,0.5,0.8", "--trials", "2000"],
     9, 9, None),
)


class Audit(Workload):
    """Set-up warms the interpreter and the file cache with a CLI import."""

    name, item = "audit", "trials"
    SETUP_REPS = 7

    def __init__(self, runner: Runner, seed: int) -> None:
        super().__init__(runner, seed)
        self.tally: dict[str, dict[str, int]] = {name: {} for name, *_ in AUDIT_JOBS}
        from orthoselect.harness import REPORT_SCHEMA

        self.schema = REPORT_SCHEMA

    def start(self, trace: bool) -> None:
        for _ in range(self.SETUP_REPS):
            job = self.runner.python(["-c", "import orthoselect.cli"])
            if job.returncode:
                raise RuntimeError(f"importing orthoselect.cli failed with code {job.returncode}")
            self.setup_s.append(job.seconds)

    def op(self, index: int, trace: bool) -> OpResult:
        seconds, items, rss, errors = 0.0, 0, 0.0, []
        for k, (name, flags, cells, rows, verdict) in enumerate(AUDIT_JOBS):
            base = self.runner.workdir / f"op{index}-{name}"
            job = self.runner.cli(["experiment", name, *flags, "--seed",
                                   str(job_seed(self.seed, index, k)), "--out", str(base)],
                                  trace, "op")
            seconds += job.seconds
            rss = max(rss, job.rss_mb)
            report, table = Path(f"{base}.report.json"), Path(f"{base}.trials.csv")
            problems, verdicts = checks.check_audit(
                job.returncode, report.read_text(encoding="utf-8") if report.exists() else "",
                table.read_text(encoding="utf-8") if table.exists() else "",
                self.schema, cells, rows, verdict)
            for v in verdicts:
                self.tally[name][v] = self.tally[name].get(v, 0) + 1
            errors += [f"{name}: {p}" for p in problems]
            items += 0 if problems else rows
            report.unlink(missing_ok=True)
            table.unlink(missing_ok=True)
        self.rss_mb.append(rss)
        return OpResult(seconds, items, errors)

    def report(self) -> list[str]:
        return [f"verdicts {name}: " + ", ".join(f"{v}={n}" for v, n in sorted(t.items()))
                for name, t in self.tally.items()]


WORKLOADS = {w.name: w for w in (Certify, ProbeSweep, Audit)}


def closed_loop(workload, first: int, seconds: float, trace: bool) -> list[OpResult]:
    """Ops one after another until `seconds` have passed; at least one op."""
    ops: list[OpResult] = []
    end = time.monotonic() + seconds
    while not ops or time.monotonic() < end:
        ops.append(workload.op(first + len(ops), trace))
    return ops


def child_env() -> tuple[dict, int]:
    env = dict(os.environ)
    env.pop("CRI_THREADS", None)
    env["PYTHONPATH"] = str(SRC)
    nproc = len(os.sched_getaffinity(0))
    blas = min(int(env.get("OPENBLAS_NUM_THREADS") or nproc), nproc)
    env["OPENBLAS_NUM_THREADS"] = str(blas)
    return env, nproc


def environment(name: str, args: argparse.Namespace, env: dict, nproc: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    try:
        openblas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"git_commit": commit, "python": platform.python_version(), "numpy": np.__version__,
            "openblas": openblas, "nproc": nproc, "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
            "cri_threads": "unset", "workload": name, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "clients": 1}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("bytes_read"):
        return "B"
    if name.endswith("fraction"):
        return "ratio"
    return "count"


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    if len(values) < 20:
        return None
    q = math.floor(100 * (1 - 10 / len(values)))
    return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(name: str, args: argparse.Namespace) -> None:
    """Set up, run and check one workload; print its figures, then its result line."""
    env, nproc = child_env()
    workdir = ROOT / ".perfbench-work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        runner = Runner(workdir, env, time.monotonic() + DEADLINE_S)
        workload = WORKLOADS[name](runner, args.seed)
        workload.start(bool(args.trace))
        try:
            half = args.seconds / 2 if args.trace else args.seconds
            timed = closed_loop(workload, 0, half, False)
            traced = closed_loop(workload, len(timed), half, True) if args.trace else []
        finally:
            workload.stop()
        docs = []
        for path in runner.traces:
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    ops = timed + traced
    tally = summarize(ops)
    seconds = [op.seconds for op in timed]
    p50 = statistics.median(seconds)
    print("# env " + json.dumps(environment(name, args, env, nproc), sort_keys=True))
    print(f"# {name}: {tally['attempted']} ops, {tally['failed']} failed, "
          f"failed_ratio={tally['failed_ratio']:.4g}")
    for op_index, op in enumerate(ops):
        for problem in op.errors:
            print(f"# op {op_index} failed: {problem}")
    for line in workload.report():
        print(f"# {line}")
    if args.trace:
        units = {"op": len(traced), "setup": max(1, workload.traced_setups)}
        values = per_layer_metrics(docs, units)
        values["trace.op_p50_s"] = statistics.median(op.seconds for op in traced)
        values["trace.overhead_s"] = values["trace.op_p50_s"] - p50
        print(f"# per-layer figures per traced op ({len(traced)} ops, "
              f"{units['setup']} set-ups); untraced op_p50_s={p50:.6g} s over {len(timed)} ops")
    else:
        rates = [op.items / op.seconds for op in timed]
        values = {"setup_s": statistics.median(workload.setup_s), "op_p50_s": p50,
                  "items_per_s": statistics.median(rates),
                  "peak_rss_mb": statistics.median(workload.rss_mb)}
        counts = {"setup_s": len(workload.setup_s), "op_p50_s": len(timed),
                  "items_per_s": len(rates), "peak_rss_mb": len(workload.rss_mb)}
        for key, value in values.items():
            label = f"{workload.item}_per_s" if key == "items_per_s" else key
            print(f"# {label} = {value:.6g} {unit_of(key)} (median of {counts[key]})")
        tail = tail_percentile(seconds)
        if tail is not None:
            print(f"# op_p{tail[0]}_s = {tail[1]:.6g} s (of {len(seconds)})")
    metrics = {key: {"value": value, "unit": unit_of(key)} for key, value in values.items()}
    print(json.dumps({"correct": tally["failed"] == 0, "attempted": tally["attempted"],
                      "failed": tally["failed"], "metrics": metrics}), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="the workload to run (default: all three in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "orthoselect" / "__init__.py").is_file():
        print(f"no orthoselect sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in [args.workload] if args.workload else WORKLOADS:
        run_workload(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
