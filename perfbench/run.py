#!/usr/bin/env python3
"""The repository's benchmark, one command:

    python3 perfbench/run.py --workload kanon-mix|bip-search|svc-rw \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds the load generator
and licm_serve from source into .bench_build/perfbench (the first run takes a
minute or two), generates the workload, measures it for S seconds, checks
every answer, and prints one JSON object as its last line of stdout:
end-to-end metrics with --trace 0, scaled to a reference host speed by a
host probe run beside the workload, and per-layer metrics, as measured,
with --trace 1.
It exits nonzero when an answer is wrong, when a guard refuses the
workload (see README.md), or when the sources are missing.
"""

import argparse
import json
import os
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
sys.path.insert(0, HERE)

import perfstats as ps  # noqa: E402

WORKLOADS = ("kanon-mix", "bip-search", "svc-rw")
END_TO_END = {
    "setup_s": "s", "read_ms.mean": "ms", "read_ms.p90": "ms",
    "reads_per_s": "1/s", "cpu_ms_per_read": "ms", "write_ms.mean": "ms",
    "write_ms.p90": "ms", "peak_rss_mb": "MB",
}
# Per-read medians are reported beside the layers, unbounded: on a shared
# host a class's latency is bimodal, and its median jumps between the
# modes from run to run (README.md, "Why means").
PER_LAYER = {
    "read_ms.p50": "ms",
    "anonymize.build_ms": "ms", "anonymize.vars": "count",
    "anonymize.constraints": "count",
    "licm.query_ms.p50": "ms", "licm.residual_ms.p50": "ms",
    "licm.vars_at_query": "count", "licm.constraints_at_query": "count",
    "licm.pruned_vars": "count",
    "licm.mutation.commit_ms.p50": "ms",
    "licm.mutation.dirty_components": "count",
    "solver.solve_ms.p50": "ms", "solver.nodes_per_read": "count",
    "solver.components_per_read": "count",
    "solver.canonical_forms_per_read": "count",
    "solver.cache_hit_ratio": "ratio", "solver.lp_solves_per_read": "count",
    "solver.lp_pivots_per_read": "count", "solver.cpu_to_wall": "ratio",
    "solver.cross_version_hits": "count",
    "service.queue_ms.p50": "ms", "service.exec_ms.p50": "ms",
    "service.executed_frac": "ratio", "service.read_ms.p99": "ms",
    "net.overhead_ms.p50": "ms", "net.coalesce_hit_ratio": "ratio",
    "net.bytes_per_op": "B",
    "trace.overhead_frac": "ratio",
    "host.probe_ms": "ms",
}
# End-to-end times are reported at the host speed at which the load
# generator's host probe (HostProbe in loadgen.cc) takes this long: each
# time is scaled by PROBE_REF_MS / (the probe's median in the same run),
# and each rate by the inverse. That cancels the host's drift in speed,
# which reaches 2x over minutes, and leaves any change in the code
# measured. About the probe's median on the 4-vCPU 2.0 GHz Xeon VM the
# benchmark was written on, so scaled figures read close to raw ones there.
PROBE_REF_MS = 3.5
# Child processes get this much time beyond the measured window.
SLACK_S = 60
SERVER_ARGS = ["--port", "0", "--loops", "1", "--workers", "2",
               "--solver-threads", "1"]
SERVER_SETUP_REPS = 21


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def child_env():
    # Thread counts are pinned on every command line; the environment
    # overrides of the repo's own benches must not leak in.
    env = dict(os.environ)
    env.pop("LICM_THREADS", None)
    env.pop("LICM_TRACE", None)
    return env


def build():
    """Configures and builds the load generator and licm_serve;
    incremental after the first run."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Configuring every time is cheap once cached, and picks up a changed
    # target list that an existing build tree would not know.
    steps = [["cmake", "-S", HERE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD, "--target", "perfbench_loadgen",
              "licm_serve", "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=child_env(), timeout=850)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")


def loadgen(args, timeout):
    """Runs the load generator; returns its JSON-line records."""
    cmd = [os.path.join(BUILD, "perfbench_loadgen")] + [str(a) for a in args]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          env=child_env(), timeout=timeout, text=True)
    if done.returncode != 0:
        raise SystemExit(f"perfbench: loadgen {args[0]} exited "
                         f"{done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines() if line]


def of_type(records, kind):
    return [r for r in records if r["type"] == kind]


def p50(values):
    return ps.nearest_rank(values, 50) if values else 0.0


def trace_file(workload, seed, trace):
    if not trace:
        return []
    os.makedirs(os.path.join(BUILD, "trace"), exist_ok=True)
    return ["--trace-file",
            os.path.join(BUILD, "trace", f"{workload}-seed{seed}.jsonl")]


def overhead_frac(reads, latency):
    traced = [latency(r) for r in reads if r["traced"]]
    plain = [latency(r) for r in reads if not r["traced"]]
    if not traced or not plain:
        return 0.0
    return p50(traced) / p50(plain) - 1.0


def at_reference_speed(e2e, window):
    """Scales the end-to-end times and rates of one run to the reference
    host speed (PROBE_REF_MS)."""
    if window["probes"] == 0:
        raise ps.Refused("no host probe ran in the window")
    slow = window["probe_ms"] / PROBE_REF_MS
    return {name: (value if name == "peak_rss_mb" else
                   value * slow if name == "reads_per_s" else value / slow)
            for name, value in e2e.items()}


def latency_metrics(samples, write_samples):
    """Read and write latency figures from [(ms, class)] samples, each
    percentile checked by the guards."""
    return {
        "read_ms.mean": ps.mean([ms for ms, _ in samples]),
        "read_ms.p50": ps.check_percentile(samples, 50, "read_ms"),
        "read_ms.p90": ps.check_percentile(samples, 90, "read_ms"),
        "write_ms.mean": ps.mean([ms for ms, _ in write_samples]),
        "write_ms.p90": ps.check_percentile(write_samples, 90, "write_ms"),
    }


# ---------------------------------------------------------------------------
# Offline workloads: kanon-mix, bip-search.
# ---------------------------------------------------------------------------

def offline(workload, seed, seconds, trace):
    ref_recs = loadgen(["ref", "--workload", workload], SLACK_S)
    refs = {(r["class"], r["state"]): r for r in of_type(ref_recs, "ref")}
    recs = loadgen(["run", "--workload", workload, "--seed", seed,
                   "--seconds", seconds] + trace_file(workload, seed, trace),
                  seconds + 2 * SLACK_S)
    setups = of_type(recs, "setup")
    window = of_type(recs, "window")[0]
    ops = [r for r in recs if r["type"] in ("read", "write")]
    reads = [r for r in ops if r["type"] == "read" and not r["warm"]]
    writes = [r for r in ops if r["type"] == "write" and not r["warm"]]

    def failure(rec):
        if rec["type"] == "write":
            return None if rec["ok"] else "write error"
        return ps.offline_read_failure(rec, refs)

    attempted, failed, reasons = ps.account(
        [r for r in ops if r["warm"]], reads + writes, failure)

    good = [r for r in reads if failure(r) is None]
    samples = [(r["ms"], r["class"]) for r in reads]
    cpu_to_wall = ps.ratio(sum(r["cpu_s"] for r in good),
                           sum(r["solve_s"] for r in good))
    ps.check_cpu_to_wall(cpu_to_wall)
    write_samples = [(w["ms"], "write") for w in writes]
    e2e = latency_metrics(samples, write_samples)
    e2e.update({
        "setup_s": statistics.median(s["s"] for s in setups),
        "reads_per_s": len(good) / window["seconds"],
        "cpu_ms_per_read": 1e3 * window["cpu_s"] / len(reads),
        "peak_rss_mb": window["peak_rss_kb"] / 1024.0,
    })
    hits = sum(r["cache_hits"] for r in good)
    lookups = hits + sum(r["cache_misses"] for r in good)
    layer = {
        "anonymize.build_ms": statistics.median(s["anonymize_ms"]
                                                for s in setups),
        "anonymize.vars": setups[-1]["vars"],
        "anonymize.constraints": setups[-1]["constraints"],
        "licm.query_ms.p50": p50([r["query_ms"] for r in good]),
        "licm.residual_ms.p50": p50([r["ms"] - r["query_ms"] - r["solve_ms"]
                                     for r in good]),
        "licm.vars_at_query": ps.mean([r["vars_q"] for r in good]),
        "licm.constraints_at_query": ps.mean([r["cons_q"] for r in good]),
        "licm.pruned_vars": ps.mean([r["pruned"] for r in good]),
        "licm.mutation.commit_ms.p50": p50([w["commit_ms"] for w in writes
                                            if w["ok"]]),
        "licm.mutation.dirty_components": ps.mean(
            [w["dirty_components"] for w in writes if w["ok"]]),
        "solver.solve_ms.p50": p50([r["solve_ms"] for r in good]),
        "solver.nodes_per_read": ps.mean([r["nodes"] for r in good]),
        "solver.components_per_read": ps.mean([r["components"]
                                               for r in good]),
        "solver.canonical_forms_per_read": ps.mean([r["canonical"]
                                                    for r in good]),
        "solver.cache_hit_ratio": ps.ratio(hits, lookups),
        "solver.lp_solves_per_read": ps.mean([r["lp_solves"] for r in good]),
        "solver.lp_pivots_per_read": ps.mean([r["lp_pivots"] for r in good]),
        "solver.cpu_to_wall": cpu_to_wall,
        # Private per-call caches: nothing survives a version.
        "solver.cross_version_hits": 0,
        # No service or network layer offline: a read is all execution.
        "service.queue_ms.p50": 0.0,
        "service.exec_ms.p50": p50([r["ms"] for r in reads]),
        "service.executed_frac": 1.0,
        "service.read_ms.p99": 0.0,
        "net.overhead_ms.p50": 0.0,
        "net.coalesce_hit_ratio": 0.0,
        "net.bytes_per_op": 0.0,
        "trace.overhead_frac": overhead_frac(reads, lambda r: r["ms"]),
    }
    return attempted, failed, reasons, e2e, layer, window


# ---------------------------------------------------------------------------
# svc-rw: licm_serve over the binary codec.
# ---------------------------------------------------------------------------

def start_server(instances):
    """Starts licm_serve; returns (process, port, seconds until it
    announced its port, i.e. was ready to serve)."""
    cmd = [os.path.join(BUILD, "licm_serve")] + SERVER_ARGS
    for spec in instances:
        cmd += ["--instance", spec]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, env=child_env(),
                            text=True)
    for line in proc.stdout:
        if line.startswith("LISTENING "):
            return proc, int(line.split()[1]), time.perf_counter() - t0
    stop_server(proc, None)
    raise SystemExit("perfbench: licm_serve exited before listening")


def stop_server(proc, port):
    """Asks the server to shut down over the wire, then waits for it."""
    if port is not None and proc.poll() is None:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall(b'{"op":"shutdown","id":0}\n')
                s.recv(4096)
        except OSError:
            pass
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def server_counter(metrics_reply, name):
    """A registry counter summed over its label sets."""
    return sum(c["value"] for c in metrics_reply["metrics"]["counters"]
               if c["name"] == name)


def svc(seed, seconds, trace):
    ref_recs = loadgen(["ref", "--workload", "svc-rw"], SLACK_S)
    refs = {(r["instance"], r["state"], int(r["class"][1:])): r
            for r in of_type(ref_recs, "ref")}
    replay = {(r["instance"], r["state"], r["qnum"]): r
              for r in of_type(ref_recs, "replay")}
    edits = of_type(ref_recs, "edit")
    instances = [e["spec"] for e in edits]
    edit_args = []
    for e in edits:
        edit_args += ["--edit", f"{e['instance']}:{e['cindex']}:{e['cop0']}:"
                      f"{e['rhs0']}:{e['cop1']}:{e['rhs1']}"]

    setup_times = []
    proc = port = None
    try:
        for rep in range(SERVER_SETUP_REPS):
            proc, port, ready_s = start_server(instances)
            setup_times.append(ready_s)
            if rep + 1 < SERVER_SETUP_REPS:
                stop_server(proc, port)
        recs = loadgen(["client", "--port", port, "--server-pid", proc.pid,
                       "--seed", seed, "--seconds", seconds] + edit_args +
                      trace_file("svc-rw", seed, trace),
                      seconds + 2 * SLACK_S)
    finally:
        if proc is not None:
            stop_server(proc, port)

    window = of_type(recs, "window")[0]
    ops = of_type(recs, "op")
    measured = [o for o in ops if not o["warm"]]
    failure = lambda o: ps.service_failure(o, refs)  # noqa: E731
    attempted, failed, reasons = ps.account([o for o in ops if o["warm"]],
                                            measured, failure)

    reads = [o for o in measured if o["kind"] == "r"]
    writes = [o for o in measured if o["kind"] == "w"]
    good = [o for o in reads if failure(o) is None]
    samples = [(o["ms"], f"{o['instance']}:q{o['qnum']}") for o in reads]
    write_samples = [(o["ms"], "write") for o in writes]
    e2e = latency_metrics(samples, write_samples)
    e2e.update({
        "setup_s": statistics.median(setup_times),
        "reads_per_s": len(good) / window["seconds"],
        "cpu_ms_per_read": 1e3 * window["cpu_s"] / len(reads),
        "peak_rss_mb": window["peak_rss_kb"] / 1024.0,
    })

    # The solver split inside AnswerAggregate is not on the wire; each
    # read takes it from the cache-warm offline replay of its own
    # (instance, state, qnum).
    rep = [replay[(o["instance"], ps.state_of_version(o["resp"]["version"]),
                   o["qnum"])] for o in good]
    s0, s1 = window["stats0"], window["stats1"]
    m0, m1 = window["metrics0"], window["metrics1"]

    def delta(name):
        return server_counter(m1, name) - server_counter(m0, name)

    coalesced = delta("licm_coalesce_hits_total")
    hits = sum(o["resp"]["cache_hits"] for o in good)
    lookups = hits + sum(o["resp"]["cache_misses"] for o in good)
    net_bytes = (delta("licm_net_bytes_read_total") +
                 delta("licm_net_bytes_written_total") - window["verb_bytes"])
    setups = of_type(ref_recs, "setup")
    layer = {
        "anonymize.build_ms": sum(s["anonymize_ms"] for s in setups),
        "anonymize.vars": sum(s["vars"] for s in setups),
        "anonymize.constraints": sum(s["constraints"] for s in setups),
        "licm.query_ms.p50": p50([r["query_ms"] for r in rep]),
        "licm.residual_ms.p50": p50([r["ms"] - r["query_ms"] - r["solve_ms"]
                                     for r in rep]),
        "licm.vars_at_query": ps.mean([r["vars_q"] for r in rep]),
        "licm.constraints_at_query": ps.mean([r["cons_q"] for r in rep]),
        "licm.pruned_vars": ps.mean([r["pruned"] for r in rep]),
        "licm.mutation.commit_ms.p50": p50([o["resp"]["commit_ms"]
                                            for o in writes
                                            if o["resp"].get("ok")]),
        "licm.mutation.dirty_components": ps.mean(
            [o["resp"]["dirty_components"] for o in writes
             if o["resp"].get("ok")]),
        "solver.solve_ms.p50": p50([r["solve_ms"] for r in rep]),
        "solver.nodes_per_read": ps.mean([o["resp"]["nodes"] for o in good]),
        "solver.components_per_read": ps.mean([r["components"] for r in rep]),
        "solver.canonical_forms_per_read": ps.mean([r["canonical"]
                                                    for r in rep]),
        "solver.cache_hit_ratio": ps.ratio(hits, lookups),
        "solver.lp_solves_per_read": delta("licm_solver_lp_solves_total") /
        len(reads),
        "solver.lp_pivots_per_read": delta("licm_solver_lp_pivots_total") /
        len(reads),
        "solver.cpu_to_wall": ps.ratio(sum(r["cpu_s"] for r in rep),
                                       sum(r["solve_s"] for r in rep)),
        "solver.cross_version_hits": (s1["cache_cross_version_hits"] -
                                      s0["cache_cross_version_hits"]) /
        len(reads),
        "service.queue_ms.p50": p50([o["resp"]["queue_ms"] for o in good]),
        "service.exec_ms.p50": p50([o["resp"]["total_ms"] -
                                    o["resp"]["queue_ms"] for o in good]),
        "service.executed_frac": (s1["admitted"] - s0["admitted"]) /
        len(reads),
        "service.read_ms.p99": ps.check_percentile(samples, 99, "read_ms"),
        "net.overhead_ms.p50": p50([o["ms"] - o["resp"]["total_ms"]
                                    for o in good]),
        "net.coalesce_hit_ratio": ps.ratio(
            coalesced, coalesced + delta("licm_coalesce_misses_total")),
        "net.bytes_per_op": net_bytes / len(measured),
        "trace.overhead_frac": overhead_frac(reads, lambda o: o["ms"]),
    }
    return attempted, failed, reasons, e2e, layer, window


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    build()
    try:
        if args.workload == "svc-rw":
            result = svc(args.seed, args.seconds, args.trace)
        else:
            result = offline(args.workload, args.seed, args.seconds,
                             args.trace)
        attempted, failed, reasons, e2e, layer, window = result
        # Per-layer figures stay as measured, beside the probe's median.
        layer["read_ms.p50"] = e2e["read_ms.p50"]
        layer["host.probe_ms"] = window["probe_ms"]
        e2e = at_reference_speed(e2e, window)
    except ps.Refused as why:
        log(f"refused {args.workload}: {why}")
        return 2
    if failed:
        log(f"{failed} of {attempted} operations failed: {reasons}")
    chosen, units = (layer, PER_LAYER) if args.trace else (e2e, END_TO_END)
    metrics = {name: {"value": chosen[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
