"""Repo benchmark entry point: one command per workload.

    python3 benchmarks/perf/run.py --workload <name> --seed <int> \\
        [--seconds <s>] [--trace [0|1]] [--quick]
    python3 benchmarks/perf/run.py --selfcheck [--runs N]

Builds the models from ``--seed``, runs the workload, checks every
output and prints every metric by name with unit and sample count; the
last stdout line is the JSON object the benchmark contract
(``BENCHMARK.json``) asks for — the end-to-end metrics, or with
``--trace 1`` the per-layer metrics. ``--trace 1`` runs the workload
twice at a shorter window (untraced, then under the harness's span
recorder, written as Chrome-trace JSON to ``out/trace_<workload>.json``)
and then the layer probes.

Exit codes: 0 measured and correct; 1 wrong output, lost operation or
leaked process/shared-memory segment; 2 usage error or no source tree;
3 invalid measurement (saturated open loop, late generator, token
mismatch) — no numbers are reported.

Nothing outlives a run: the bench process adopts every orphaned
descendant (child subreaper), and on every path out it stops its own
multiprocessing resource tracker, waits for every descendant to end and
only then prints the result line.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Process hygiene. glibc's adaptive mmap threshold makes execute_plan on
# lenet batch 64 land at 2900, 5000 or 6100 samples/s depending on
# allocation history; pinning the thresholds removes that mode switch.
# BLAS/OpenMP pools are pinned to one thread on this 2-core host so the
# server, its workers and the load generator do not oversubscribe it.
PINNED_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "268435456",
    "MALLOC_TOP_PAD_": "67108864",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
}
CHILD_FLAG = "LUT_PERF_CHILD"
START_STAMP = "LUT_PERF_T0"

QUICK_SECONDS = 2.0
DEFAULT_SECONDS = 16.0
TRACE_SHARE = 0.4
EXIT_INCORRECT, EXIT_USAGE, EXIT_INVALID = 1, 2, 3


def reexec_pinned():
    """Replace this process with one started under ``PINNED_ENV`` (the
    malloc knobs are read at process start); every measured process —
    this one, the server subprocess and its workers — inherits it."""
    env = dict(os.environ, **PINNED_ENV)
    env[CHILD_FLAG] = "1"
    env[START_STAMP] = repr(time.time())
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC, HERE] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                       if p])
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds (default %g)" % DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="%g s windows, one set-up: for the smoke test"
                        % QUICK_SECONDS)
    parser.add_argument("--selfcheck", action="store_true",
                        help="A/A: every workload in two sets of --runs "
                        "runs, compared against the bounds")
    parser.add_argument("--runs", type=int, default=3)
    args = parser.parse_args(argv)
    if not args.selfcheck and not args.workload:
        parser.error("--workload is required (or --selfcheck)")
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else DEFAULT_SECONDS
    return args


def print_metrics(title, metrics):
    print("\n%s" % title)
    print("  %-40s %14s %-9s %8s  %s" % ("metric", "value", "unit", "samples",
                                         "note"))
    for m in metrics:
        print("  %-40s %14.6g %-9s %8d  %s" % (m.name, m.value, m.unit,
                                               m.samples, m.note))


def print_result(result, label):
    print_metrics("%s [%s] end-to-end" % (result.workload, label),
                  result.metrics)
    if result.details:
        print_metrics("%s [%s] detail (not gated)" % (result.workload, label),
                      result.details)
    print("  operations attempted %d, failed %d; inputs sha256 %s"
          % (result.attempted, result.failed, result.digest))


def final_line(metrics, attempted, failed):
    return json.dumps({
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {m.name: {"value": m.value, "unit": m.unit}
                    for m in metrics},
    })


def run_one(args):
    """Returns ``(exit code, result line or None)``; the caller prints
    the line once nothing the run started is left."""
    import_t0 = float(os.environ[START_STAMP])
    import perf_stats
    import perf_workloads as workloads

    import_s = time.time() - import_t0
    if args.workload not in workloads.WORKLOADS:
        print("unknown workload %r (have: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return EXIT_USAGE, None
    print("workload %s seed %d seconds %g trace %d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("environment: %s" % " ".join(
        "%s=%s" % (key, os.environ[key]) for key in sorted(PINNED_ENV)))
    print("imports took %.3f s (counted in setup_s of the in-process "
          "workloads)" % import_s)
    reps = 1 if (args.quick or args.trace) else 3
    try:
        if not args.trace:
            plan = workloads.RunPlan(args.seconds, reps)
            result = workloads.run_workload(args.workload, args.seed, plan,
                                            None, import_s)
            print_result(result, "untraced")
            metrics, attempted, failed = (result.metrics, result.attempted,
                                          result.failed)
        else:
            metrics, attempted, failed = run_traced(args, workloads,
                                                    perf_stats, import_s)
    except perf_stats.InvalidRun as exc:
        print("INVALID RUN: %s" % exc, file=sys.stderr)
        return EXIT_INVALID, None
    except perf_stats.IncorrectOutput as exc:
        print("INCORRECT: %s" % exc, file=sys.stderr)
        return EXIT_INCORRECT, None
    return (0 if failed == 0 else EXIT_INCORRECT,
            final_line(metrics, attempted, failed))


def run_and_reap(args):
    """Run the workload as the reaper of everything it starts; the
    result line is printed only after the last descendant has ended."""
    import perf_stats

    perf_stats.become_subreaper()
    # A polite kill takes the same way out as everything else.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    code, line = EXIT_INCORRECT, None
    try:
        code, line = run_one(args)
    finally:
        perf_stats.stop_resource_tracker()
        killed = perf_stats.reap_descendants()
        sys.stdout.flush()
    if killed:
        print("INCORRECT: processes %s outlived the run and were killed"
              % killed, file=sys.stderr)
        return EXIT_INCORRECT
    if line is not None:
        print(line)
    return code


def run_traced(args, workloads, perf_stats, import_s):
    import perf_probes

    plan = workloads.RunPlan(max(1.0, args.seconds * TRACE_SHARE), 1)
    untraced = workloads.run_workload(args.workload, args.seed, plan, None,
                                      import_s)
    print_result(untraced, "untraced, %g s" % plan.seconds)
    recorder = perf_stats.Recorder()
    traced = workloads.run_workload(args.workload, args.seed, plan, recorder,
                                    import_s)
    print_result(traced, "traced, %g s" % plan.seconds)
    layer_metrics = perf_probes.run_all(args.seed, recorder, args.workload,
                                        untraced, traced)
    path = os.path.join(OUT, "trace_%s.json" % args.workload)
    events = recorder.write_chrome_trace(path)
    print_metrics("%s per-layer (bytes and flop counts are computed from "
                  "tensor sizes)" % args.workload, layer_metrics)
    print("\nspans (count, total s, self s):")
    for name, (count, total, self_s) in sorted(recorder.totals().items()):
        print("  %-24s %8d %10.4f %10.4f" % (name, count, total, self_s))
    print("wrote %d spans to %s" % (events, os.path.relpath(path)))
    return (layer_metrics, untraced.attempted + traced.attempted,
            untraced.failed + traced.failed)


# ----------------------------------------------------------------------
# --selfcheck: A/A comparison against the benchmark's own bounds
# ----------------------------------------------------------------------

def _measure(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", str(seed), "--seconds", repr(seconds)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit("%s seed %d exited with code %d"
                         % (workload, seed, done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])["metrics"]


def _spread(values):
    """IQR / median, as the driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def selfcheck(args):
    """The driver's acceptance procedure on one tree: two sets of
    ``--runs`` runs per workload, each run another seed. A metric passes
    when set B's median is not worse than set A's by more than the bound
    and (except ``setup_s``) neither set's spread exceeds the bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    seconds = args.seconds if args.quick else float(spec["run_seconds"])
    violations = 0
    print("| workload | metric | median A | median B | B vs A | spread "
          "| bound | |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- |")
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = [[_measure(workload, args.seed + half * args.runs + i, seconds)
                 for i in range(args.runs)] for half in range(2)]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = [[run[name]["value"] for run in runs] for runs in sets]
            a, b = (statistics.median(v) for v in values)
            spread = max(_spread(v) for v in values) if args.runs > 1 else 0.0
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            ok = worse <= metric["bound"] and (
                name == "setup_s" or spread <= metric["bound"])
            violations += not ok
            print("| %s | %s | %.5g | %.5g | %+.1f%% | %.1f%% | %.0f%% | %s |"
                  % (workload, name, a, b, 100 * (b - a) / a, 100 * spread,
                     100 * metric["bound"], "ok" if ok else "VIOLATION"))
    return 1 if violations else 0


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("no source tree at %s: the benchmark measures the repo it is "
              "checked out in" % SRC, file=sys.stderr)
        return EXIT_USAGE
    if args.selfcheck:
        return selfcheck(args)
    if os.environ.get(CHILD_FLAG) != "1":
        reexec_pinned()
    return run_and_reap(args)


if __name__ == "__main__":
    # The guard matters: the in-process cluster probes spawn workers,
    # and spawn re-imports ``__main__``.
    sys.exit(main())
