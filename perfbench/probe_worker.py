"""The process that does the probe-sweep workload's work, in-process.

Usage: python3 perfbench/probe_worker.py SEED TRACE_DIR TRACE_SETUP

On start it builds the d=4, eps=0.25, stall-10 000 net SETUP_REPS times,
answering with one JSON line of build times.  The nets come from fixed
streams, the first being the acceptance suite's, so set-up does the same work
for every seed; the seed makes the ops' matrices and directions.  Then each stdin line
{"index": i, "trace": bool} runs op i and answers with one JSON line of its
time, directions evaluated and check problems.  It exits when stdin closes.
Traced set-up and ops write trace documents into TRACE_DIR.
"""
import json
import os
import sys
import time

import numpy as np

import checks
from tracing import Tracer

SETUP_REPS = 5
RHO = 0.5
DIRECTIONS = 100_000
SUBSAMPLE = 512


def run_op(lib, net, seed: int, index: int) -> dict:
    """One op: the p=200 pipeline leg, then the p=12 exact-oracle leg."""
    gen = np.random.default_rng([seed, index])
    x_big = checks.unit_rows(gen, 200, 4).T.copy()
    x_small = checks.unit_rows(gen, 12, 4).T.copy()
    dirs_big = checks.unit_rows(gen, DIRECTIONS, 4)
    dirs_small = checks.unit_rows(gen, DIRECTIONS, 4)
    m_big, m_small = lib.ColumnMatrix(x_big), lib.ColumnMatrix(x_small)
    cfg_big = lib.SelectionConfig(s=2, rho_minus=RHO)
    cfg_small = lib.SelectionConfig(s=2, rho_minus=RHO, kappa=3.0)
    streams = [np.random.default_rng([seed, index, k]) for k in range(3)]

    start = time.perf_counter()
    cert_big = lib.estimate_gamma(m_big, cfg_big, net, 0, streams[0]).certified_upper
    pipeline = lib.attained_values(m_big, dirs_big, cfg_big, streams[1])
    cert_small = lib.estimate_gamma(m_small, cfg_small, net, 0, streams[2]).certified_upper
    exact_small = lib.exact_inf_profile(m_small, dirs_small, 2, RHO)
    seconds = time.perf_counter() - start

    subsample = gen.choice(DIRECTIONS, SUBSAMPLE, replace=False)
    errors = checks.check_probe_sweep(cert_big, x_big, dirs_big, pipeline, subsample,
                                      cert_small, x_small, dirs_small, exact_small, RHO)
    return {"seconds": seconds, "items": 2 * (len(net) + DIRECTIONS), "errors": errors}


def main() -> None:
    seed, trace_dir, trace_setup = int(sys.argv[1]), sys.argv[2], sys.argv[3] == "1"
    import orthoselect as lib

    tracer = Tracer()
    if trace_setup:
        tracer.install()
    setup_s, nets = [], []
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        nets.append(lib.build_eps_net(4, 0.25, lib.RngStream(1000, rep), stall_budget=10_000))
        setup_s.append(time.perf_counter() - start)
    if trace_setup:
        tracer.uninstall()
        tracer.write(os.path.join(trace_dir, "setup.json"), "setup")
    print(json.dumps({"setup_s": setup_s}), flush=True)

    for line in sys.stdin:
        request = json.loads(line)
        if request["trace"]:
            tracer.install()
        try:
            reply = run_op(lib, nets[0], seed, request["index"])
        finally:
            if request["trace"]:
                tracer.uninstall()
                tracer.write(os.path.join(trace_dir, f"op-{request['index']}.json"), "op")
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
