#!/usr/bin/env python3
"""Benchmark entry point. Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-steady --seed 1 --seconds 40 --trace 0

Builds perfbench_workloads (perfbench/CMakeLists.txt compiles the repository's
libraries from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the workload for --seconds of repetitions,
checks every correctness gate, prints a readable report and, as the last
line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured on
untraced repetitions (kv host times on the reference core, see
workloads.cc); with --trace 1 they are its per_layer list, measured on
traced repetitions, and the spans are written to
<build dir>/spans/<workload>-seed<seed>.json (Chrome trace format).

Exit status: 0 when every gate holds; 1 when a gate fails (the JSON line is
still printed, with "correct": false); 2 when nothing could be measured
(bad arguments, no sources, failed build or crashed benchmark program).
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

sys.dont_write_bytecode = True
import benchstats as bs  # noqa: E402

WORKLOADS = ("kv-steady", "kv-deep-failover", "kv-wide", "campaign-mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
BUILD_JOBS = "4"


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_process(cmd, timeout, stdout, env=None):
    """Runs cmd in its own process group; on timeout kills the whole group
    (cmake's make and compiler children included) and waits for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no repository sources under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    # Configuring every time is cheap once cached, and picks up a changed
    # CMakeLists before the build looks for its targets.
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "--target", "perfbench_workloads",
              "-j", BUILD_JOBS]]
    # Keep the compiler's temporary files inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        code, _ = run_process(cmd, BUILD_TIMEOUT_S, sys.stderr, env)
        if code != 0:
            raise BenchError(f"build step failed ({code}): {' '.join(cmd)}")
    return build_dir


def run_workloads(build_dir, args):
    spans = None
    cmd = [str(build_dir / "perfbench_workloads"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        (build_dir / "spans").mkdir(exist_ok=True)
        spans = build_dir / "spans" / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--spans", str(spans)]
    code, out = run_process(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    if code != 0:
        raise BenchError(f"perfbench_workloads exited with {code}")
    reps, end = [], None
    for line in out.decode().splitlines():
        record = json.loads(line)
        if "end" in record:
            end = record
        else:
            reps.append(record)
    if end is None or not reps:
        raise BenchError("perfbench_workloads output is incomplete")
    return reps, end, spans


# Units of the values run.py reports that BENCHMARK.json does not list.
EXTRA_UNITS = {
    "campaign_seeds_per_s": "1/s",
    "failed_share": "ratio",
    "run.until_ms": "ms",
    "sim.worst_slice_ns": "ns",
    "fault.seeds": "count",
    "fault.takeovers": "count",
    **{f"fault.seed_ms.{family}.{stat}": "ms"
       for family in ("pairs", "kv", "file") for stat in ("median", "max")},
}


def med(reps, section, key):
    return bs.median([r[section][key] for r in reps])


def per_rep(reps, f):
    return bs.median([f(r) for r in reps])


def split(group):
    return [r for r in group if not r["traced"]], [r for r in group if r["traced"]]


def kv_values(group):
    """Every value one seed of a kv workload reports, by metric name, except
    the throughput, which is pooled over seeds (bs.pooled_rate)."""
    untraced, traced = split(group)
    sim = group[0]["sim"]
    v = {
        "setup_s": med(untraced, "host", "setup_ref_s"),
        "kv_p50_sim_us": sim["p50_us"],
        "kv_p99_sim_us": sim["p99_us"],
        "kv_p999_sim_us": sim["p999_us"],
        "kv_goodput_sim_rps": sim["goodput_rps"],
        "kv_max_sim_us": sim["max_us"],
        "failover_sim_us": sim["failover_us"],
        "workload.requests_completed": sim["completed"],
        "sim.events": sim["events"],
        "core.messages_sent": sim["messages"],
        "trace.events_recorded": sim["trace_events"],
    }
    if not traced:
        return v
    for key in traced[0]["layer"]:
        v[key] = med(traced, "layer", key)

    def layer(r, key):
        return r["layer"][key]

    v["workload.done_check_share"] = per_rep(
        traced, lambda r: bs.per_unit(layer(r, "workload.done_check_ms"),
                                      layer(r, "run.until_ms"))[0])
    v["sim.host_ns_per_event"] = per_rep(
        traced, lambda r: bs.per_unit(layer(r, "run.phase_ms"), sim["events"], 1e6)[0])
    v["sim.host_ns_per_event_worst_slice"] = per_rep(
        traced, lambda r: bs.per_unit(layer(r, "sim.worst_slice_ns"),
                                      layer(r, "sim.worst_slice_events"))[0])
    v["core.host_ns_per_message"] = per_rep(
        traced, lambda r: bs.per_unit(layer(r, "run.phase_ms"), sim["messages"], 1e6)[0])
    v["bus.utilization"] = bs.per_unit(v["bus.busy_sim_us"], sim["span_us"])[0]
    v["trace.overhead_ratio"] = v["run.phase_ms"] / (1e3 * med(untraced, "host", "run_s"))
    return v


def campaign_values(group):
    """Every value the campaign workload reports, by metric name, except
    the throughput."""
    untraced, traced = split(group)
    sim = group[0]["sim"]
    v = {
        "setup_s": med(untraced, "host", "setup_s"),
        "fault.seeds": sim["seeds"],
        "fault.takeovers": sim["takeovers"],
    }
    if traced:
        for key in traced[0]["layer"]:
            v[key] = med(traced, "layer", key)
        v["run.phase_ms"] = 1e3 * med(traced, "host", "run_s")
        v["trace.overhead_ratio"] = v["run.phase_ms"] / (1e3 * med(untraced, "host", "run_s"))
    return v


def report(args, groups, values, units, notes):
    """The readable report: each seed's digest, every end-to-end value with
    its unit and sample count, then, for a traced run, every per-layer value
    and the run slices of the first traced repetition."""
    lines = [f"perfbench {args.workload} --seed {args.seed}:"]
    for seed, group in groups.items():
        untraced, traced = split(group)
        lines.append(f"  seed {seed}: {len(untraced)} untraced + {len(traced)} traced "
                     f"repetitions, digest {group[0]['digest']}")
    for name, note in notes:
        lines.append(f"  {name:<24} {values[name]:>16.6g} {units[name]:<8} {note}")
    traced = [r for g in groups.values() for r in g if r["traced"]]
    if traced:
        lines.append("  per-layer (medians over seeds of medians over traced repetitions):")
        for name in sorted(k for k in values if "." in k):
            lines.append(f"    {name:<36} {values[name]:>16.6g} {units.get(name, '')}")
        slices = traced[0]["slices"]
        if slices:
            lines.append("  run slices of the first traced repetition:")
            lines.append(f"    {'host_ms':>10} {'events':>8} {'routing':>8} {'live':>6} "
                         f"{'sim_end_us':>10}")
            for s in slices:
                lines.append(f"    {s['host_ms']:10.3f} {int(s['events']):8d} "
                             f"{int(s['routing_entries']):8d} {int(s['live_processes']):6d} "
                             f"{int(s['sim_end_us']):10d}")
    return "\n".join(lines)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be at least 0 and --seconds at least 1")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build_dir = build()
        reps, end, spans = run_workloads(build_dir, args)
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"perfbench: {e}")
        return 2

    groups = {}
    for r in reps:
        groups.setdefault(r["seed"], []).append(r)
    problems = []
    for seed, group in groups.items():
        problems += [f"seed {seed}: {p}" for p in bs.check_set(group)]
        if args.trace and not any(r["traced"] for r in group):
            problems.append(f"seed {seed}: no traced repetition")
    campaign = args.workload == "campaign-mixed"
    values = bs.combine([(campaign_values if campaign else kv_values)(g)
                         for g in groups.values()])

    def pooled(key):
        return bs.pooled_rate([(g[0]["host"]["units"], [r["host"][key] for r in split(g)[0]])
                               for g in groups.values()])

    # kv host times are reported on the reference core (workloads.cc,
    # RefClock); the campaign's are raw.
    run_key = "run_s" if campaign else "run_ref_s"
    rate = pooled(run_key)
    seeds = f"{len(groups)} seed{'s' if len(groups) > 1 else ''} ({min(groups)}..{max(groups)})"
    n_untraced = len(split(reps)[0])
    # Host noise: the quartile spread of each seed's repetition times.
    noise = bs.median([bs.quartile_spread([r["host"][run_key] for r in split(g)[0]])
                       for g in groups.values()])
    if campaign:
        values["campaign_seeds_per_s"] = rate
        attempted = sum(int(r["sim"]["seeds"]) for r in reps)
        failed = sum(int(r["sim"]["failed"]) for r in reps)
        per_family = int(reps[0]["sim"]["seeds"]) // 3
        notes = [("campaign_seeds_per_s",
                  f"{n_untraced} reps of {int(reps[0]['sim']['seeds'])} scenario seeds "
                  f"({per_family} pairs, {per_family} kv, {per_family} file); "
                  f"repetition spread {noise:.1%}"),
                 ("setup_s", f"median of {n_untraced} reps' median construct+Boot+teardown")]
    else:
        values["kv_requests_per_s"] = rate
        raw_rate = pooled("run_s")
        probe_us = bs.median([r["host"]["probe_ns"] for r in split(reps)[0]]) / 1e3
        raw_setup = bs.median([med(split(g)[0], "host", "setup_s") for g in groups.values()])
        attempted = sum(int(r["sim"]["planned"]) for r in reps)
        failed = sum(bs.kv_failed(int(r["sim"]["planned"]), int(r["sim"]["completed"]),
                                  int(r["sim"]["mismatches"]), int(r["sim"]["stuck_sessions"]))
                     for r in reps)
        n = min(int(r["sim"]["completed"]) for r in reps)
        top = bs.top_percentile(n)
        if top != bs.REPORTED_PERCENTILES[-1]:
            problems.append(f"only {n} requests: p99.9 has fewer than "
                            f"{bs.MIN_SAMPLES_BEYOND} samples beyond it")
        each = f"median over {seeds}; n={n} requests each"
        notes = [("kv_requests_per_s",
                  f"verified requests over reference-core run-phase seconds, pooled over "
                  f"{seeds}, {n_untraced} untraced reps; repetition spread {noise:.1%}; "
                  f"raw host rate {raw_rate:.6g}/s, median core probe {probe_us:.1f} us"),
                 ("setup_s", f"median over {seeds} of construct+Boot+DeployKv, reference "
                  f"core; raw host {raw_setup:.4g} s"),
                 ("kv_p50_sim_us", each),
                 ("kv_p99_sim_us", f"{each}, {bs.samples_beyond(n, 99)} beyond"),
                 ("kv_p999_sim_us", f"{each}, {bs.samples_beyond(n, 99.9)} beyond "
                  f"(p{float(top or 0):g}: highest percentile with "
                  f">={bs.MIN_SAMPLES_BEYOND} beyond)"),
                 ("kv_goodput_sim_rps", f"{each}, over the marked interval"),
                 ("kv_max_sim_us", each),
                 ("failover_sim_us", f"{each}; crash injection to last takeover runnable "
                  "(0: no crash)")]
    values["peak_rss_mb"] = end["peak_rss_mb"]
    values["failed_share"] = bs.failed_share(failed, attempted)
    notes += [("peak_rss_mb", "benchmark process"), ("failed_share", f"{failed}/{attempted}")]

    units = dict(EXTRA_UNITS)
    units.update({m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})
    print(report(args, groups, values, units, notes))
    if spans is not None:
        print(f"  spans written to {spans}")

    # Values of a layer the workload does not run read 0. An end-to-end
    # metric must exist on every workload BENCHMARK.json lists.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    listed = args.workload in {w["name"] for w in spec["workloads"]}
    metrics = {}
    for m in wanted:
        if m["name"] not in values and listed and not args.trace:
            problems.append(f"no value for end-to-end metric {m['name']}")
        metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
    for p in problems:
        log(f"perfbench: GATE FAILED: {p}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
