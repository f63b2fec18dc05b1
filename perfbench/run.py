"""Benchmark of selfsim: four seeded workloads driven through the CLI.

    python3 perfbench/run.py --workload validate --seed 1 --seconds 20 --trace 0

The load is one closed-loop client in a single process and thread: each
operation is an in-process call to selfsim.cli.main(argv) with its output
captured, and the next starts when it returns.  The loop runs whole passes
of the workload's operations.  Every time is a CPU time rescaled by
probes of the host's speed taken around it (see harness.Clock); the
unscaled wall times are printed beside the metrics.  With --trace 0 the
run reports the end-to-end metrics; with --trace 1 a separate traced run
reports the per-layer metrics.  Every output is checked; the last line of
stdout is one JSON object, and the exit code is 1 if any output was
wrong.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import harness

SPEC = os.path.join(harness.ROOT, "BENCHMARK.json")
OUT = os.path.join(harness.ROOT, ".perfbench_out")
SETUP_REPEATS = 11
SWEEP_REPEATS = 5
OVERHEAD_PAIRS = 2
# Layers whose inclusive time the traced run prints as a share of cli.main.
ENTRY_POINTS = ("systems.load_system", "systems.validate_system",
                "conditions.run_report", "twists.verify_omega_cocycle")


def setup(workload, seed, directory, clock):
    """Import selfsim, build the workload's systems and write them as
    files, timing each step (and each file) on clock."""
    cli, workloads = clock.call(harness.import_program)
    plan = clock.call(workloads.PLANS[workload], seed)
    paths = {name: clock.call(plan.write_system, name, directory)
             for name in sorted(plan.systems)}
    return cli, workloads, plan, paths


def measure(args, spec, directory, golden):
    raw, samples = [], []
    for _ in range(SETUP_REPEATS):
        # Each round starts as in a fresh checkout: no garbage of earlier
        # rounds on the heap, and no system files to overwrite.
        cli = plan = paths = None
        gc.collect()
        shutil.rmtree(directory)
        os.makedirs(directory)
        clock = harness.Clock()
        cli, _, plan, paths = setup(args.workload, args.seed, directory,
                                    clock)
        raw.append(sum(clock.wall))
        samples.append(sum(clock.scaled))
    loop = harness.Loop(cli, plan, paths, golden, harness.loop_rng(args.seed))
    elapsed = loop.run_for(args.seconds)
    lats, scaled = loop.clock.wall, loop.clock.scaled
    lat_tail, pct = harness.tail(scaled)
    values = {
        "setup_s": statistics.median(samples),
        "ops_per_s": loop.attempted / sum(scaled),
        "latency_p50_ms": 1000 * statistics.median(scaled),
        "latency_tail_ms": 1000 * lat_tail,
        "ok_share": 1 - loop.failed / loop.attempted,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("# %d passes, %d operations in %.3f s; tail is p%.3f of %d "
          "samples (%d beyond)" % (loop.passes, loop.attempted, elapsed, pct,
                                   loop.attempted, harness.TAIL_BEYOND))
    print("# times are CPU times rescaled to a probe time of %g s; "
          "unscaled wall times: "
          "setup_s %.4f, ops_per_s %.2f, latency_p50_ms %.4f, "
          "latency_tail_ms %.4f" % (
              harness.REFERENCE_PROBE_S, statistics.median(raw),
              loop.attempted / sum(lats),
              1000 * statistics.median(lats),
              1000 * harness.tail(lats)[0]))
    print("# fail_share %.6f (%d failed: %d known at the baseline, %d wrong)"
          % (loop.failed / loop.attempted, loop.failed,
             loop.outcomes[harness.KNOWN], loop.outcomes[harness.WRONG]))
    print("# setup samples (s), wall: %s; rescaled: %s" % (
        " ".join("%.4f" % x for x in raw),
        " ".join("%.4f" % x for x in samples)))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    return loop, metrics


def sweep(cli, workloads, directory):
    """Time one operation of each sized family at three sizes (untraced,
    fastest of SWEEP_REPEATS, since noise only adds time) and count the
    paths it enumerates (traced); returns {stem: [(size, seconds, paths)]}."""
    import tracing
    points = {}
    for (stem, size, system, cmd, rest) in workloads.slope_families():
        path = os.path.join(directory, "sweep_%s.json" % system.name)
        workloads.systems.save_system(system, path)
        argv = [cmd, path] + list(rest)
        times = []
        for _ in range(SWEEP_REPEATS):
            start = time.perf_counter()
            harness.run_op(cli, argv)
            times.append(time.perf_counter() - start)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            harness.run_op(cli, argv)
        finally:
            tracer.restore()
        points.setdefault(stem, []).append(
            (size, min(times),
             tracer.counts["graphs.paths_enumerated"]))
    return points


def measure_traced(args, spec, directory, golden):
    import tracing
    cli, workloads, plan, paths = setup(args.workload, args.seed, directory,
                                        harness.Clock())

    plain = harness.Loop(cli, plan, paths, golden,
                         harness.loop_rng(args.seed))
    loop = harness.Loop(cli, plan, paths, golden, harness.loop_rng(args.seed))
    ops = plain.next_pass()

    def one_pass(loop):
        """Operation time of one pass over ops."""
        first = loop.attempted
        loop.run_pass(ops)
        return sum(loop.clock.scaled[first:])

    # Overhead: a warm-up pass, then untraced and traced passes over the
    # same operations, alternated; the minimum of each side is compared.
    tracer = tracing.Tracer()
    loop.tracer = tracer
    one_pass(plain)
    untraced, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        untraced.append(one_pass(plain))
        tracer.install()
        try:
            traced.append(one_pass(loop))
        finally:
            tracer.restore()
    tracer.install()
    try:
        loop.run_for(max(0.0, args.seconds - sum(traced)))
    finally:
        tracer.restore()
    untraced, traced = min(untraced), min(traced)
    loop.outcomes[harness.WRONG] += plain.outcomes[harness.WRONG]
    loop.wrong += plain.wrong
    tracer.write(os.path.join(OUT, "trace-%s.jsonl" % args.workload),
                 {"workload": args.workload, "seed": args.seed})

    values = {"trace.overhead_s": traced - untraced}
    for (stem, pts) in sweep(cli, workloads, directory).items():
        values["slope.%s.time" % stem] = harness.loglog_slope(
            [(size, t) for (size, t, _) in pts])
        values["slope.%s.paths_enumerated" % stem] = harness.loglog_slope(
            [(size, n) for (size, _, n) in pts])
    metrics = {}
    for m in spec["per_layer"]:
        name = m["name"]
        value = values[name] if name in values else tracing.layer_metric(
            tracer, name, loop.passes)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print("# traced %d passes, %d operations; one pass took %.4f s "
          "untraced, %.4f s traced; %d spans kept, %d dropped"
          % (loop.passes, loop.attempted, untraced, traced,
             len(tracer.spans), tracer.dropped))
    print("# share of self time by module: %s" % ", ".join(
        "%s %.1f%%" % (m, 100 * share) for (m, share) in tracer.module_shares()))
    main_total = tracer.total_time["cli.main"] or 1.0
    print("# inclusive share of cli.main: %s" % ", ".join(
        "%s %.1f%%" % (name, 100 * tracer.total_time[name] / main_total)
        for name in ENTRY_POINTS))
    print("# self time per pass (s), largest first:")
    for (name, t) in sorted(tracer.self_time.items(),
                            key=lambda kv: -kv[1])[:12]:
        print("#   %-40s %.5f" % (name, t / loop.passes))
    return loop, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error("--workload must be one of %s" % ", ".join(names))
    try:
        golden = harness.load_golden()
        os.makedirs(OUT, exist_ok=True)
        directory = os.path.join(OUT, "run-%d" % os.getpid())
        os.makedirs(directory)
        try:
            print("# workload %s, seed %d, %g s; python %s, nproc %d; one "
                  "closed-loop client, one process, one thread"
                  % (args.workload, args.seed, args.seconds,
                     sys.version.split()[0], os.cpu_count()))
            measure_fn = measure_traced if args.trace else measure
            loop, metrics = measure_fn(args, spec, directory, golden)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    except harness.ProgramMissing as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    correct = loop.outcomes[harness.WRONG] == 0
    for wrong in loop.wrong:
        print("# wrong output: %r" % (wrong,))
    print(json.dumps({"correct": correct, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
