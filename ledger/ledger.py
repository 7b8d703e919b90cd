#!/usr/bin/env python3
"""Enumeration benchmark: builds bench_ledger, runs its workloads, checks
every result against the serial oracle, and prints each metric by name with
its unit. Dependency-free (standard library only).

  python3 ledger/ledger.py --seed 1 [--out FILE] [--trace 1]
      every workload, one after another
  python3 ledger/ledger.py --workload NAME --seed 1 --seconds 20 --trace 0|1
      one workload; the last stdout line is one JSON object
  python3 ledger/ledger.py compare A.json B.json
      one row per workload x end-to-end metric; exit 1 when one is worse
  python3 ledger/ledger.py --smoke --trace 1
      tiny graphs, one process and one query per workload, plus the
      trace and self-test checks (the bench_ledger_smoke ctest)

Run from anywhere; paths are resolved against the repository root. The
program is built under $CARGO_TARGET_DIR (default .bench_build) in the
repository root, and every input, spill file, and trace stays below it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ["tworound-er", "ordered-er-spill", "ordered-er-process",
             "square-pa"]

# Fresh processes per workload run, run one after another; their samples
# are pooled, so one process's memory layout cannot move the median on its
# own (README.md has the spreads behind 5).
PROCESSES = 5
DEFAULT_SECONDS = 20

# End-to-end metrics: name, unit, better, bound as a share of the baseline
# median, and whether the metric is a deterministic counter: for a given
# seed any change to one is a behaviour change, not noise. The bounds are
# the ones BENCHMARK.json gives; the counters' bounds cover only how much
# they vary from seed to seed.
E2E = [
    ("query_s", "s", "lower", 0.25, False),
    ("edges_per_s", "edges/s", "higher", 0.25, False),
    ("cpu_s", "s", "lower", 0.25, False),
    ("setup_s", "s", "lower", 0.25, False),
    ("peak_rss_mb", "MB", "lower", 0.2, False),
    ("kv_pairs_per_edge", "pairs/edge", "lower", 0.01, True),
    ("reduce_work_ratio", "ratio", "lower", 0.15, True),
]
# Set-up takes milliseconds; a change smaller than this is never a verdict.
SETUP_FLOOR_S = 0.002

# Every layer of the per-layer table has at least one trace event.
LAYERS = ["graph", "cq", "core", "shares", "serial", "engine", "thread_pool",
          "spill", "codec", "process", "bench"]


def fail(message, code=1):
    print("ledger: " + message, file=sys.stderr)
    sys.exit(code)


def build_root():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return root if os.path.isabs(root) else os.path.join(ROOT, root)


def build():
    """Configures and builds bench_ledger; returns the binary's path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found under " + ROOT, 2)
    build_dir = os.path.join(build_root(), "ledger")
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "bench_ledger",
                  "-j", jobs])
    # The compiler's temporary files stay inside the build tree too.
    tmp = os.path.join(build_root(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=dict(os.environ, TMPDIR=tmp))
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_ledger")


def run_binary(binary, args, work, timeout):
    env = dict(os.environ, TMPDIR=os.path.join(work, "tmp"))
    try:
        done = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("bench_ledger timed out: " + " ".join(args))
    sys.stderr.write(done.stderr)
    if done.returncode == 2:
        fail("bench_ledger refused to run", 2)
    if done.returncode != 0:
        fail("bench_ledger exited %d: %s" % (done.returncode, " ".join(args)))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("bench_ledger printed no result: " + " ".join(args))
    return json.loads(lines[-1])


def summary(values, unit):
    """Median with quartiles and the sample count (quartiles need >= 2).
    No samples (every query threw) reads as 0; the run is then incorrect."""
    if not values:
        return {"value": 0, "unit": unit, "q1": 0, "q3": 0, "n": 0}
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"value": median, "unit": unit, "q1": q1, "q3": q3,
            "n": len(values)}


def measure(binary, work, workload, seed, seconds, args):
    """Untraced run: PROCESSES fresh processes, samples pooled."""
    procs = 1 if args.smoke else PROCESSES
    graph = generate(binary, work, workload, seed, args.smoke)
    outs = []
    for _ in range(procs):
        outs.append(run_binary(
            binary, common_args(workload, seed, graph, seconds / procs, args),
            work, 60 + 4 * seconds / procs))
    os.remove(graph)
    samples = {name: [] for name, *_ in E2E}
    counters = set()
    correct = True
    for out in outs:
        edges = out["edges"]
        samples["query_s"] += out["query_s"]
        samples["edges_per_s"] += [edges / q for q in out["query_s"]]
        samples["cpu_s"] += out["cpu_s"]
        samples["setup_s"] += out["setup_s"]
        samples["peak_rss_mb"].append(out["peak_rss_mb"])
        samples["kv_pairs_per_edge"].append(out["kv_pairs"] / edges)
        samples["reduce_work_ratio"].append(
            out["reduce_ops"] / out["serial_ops"])
        counters.add((out["kv_pairs"], out["reduce_ops"], out["serial_ops"]))
        correct = correct and out["failed"] == 0 and bool(out["query_s"])
    # The counters are deterministic: processes that disagree are a bug.
    correct = correct and len(counters) == 1
    metrics = {name: summary(samples[name], unit)
               for name, unit, *_ in E2E}
    return {"correct": correct,
            "attempted": sum(out["attempted"] for out in outs),
            "failed": sum(out["failed"] for out in outs),
            "resolved": outs[0]["resolved"], "banner": outs[0]["banner"],
            "metrics": metrics}


def traced(binary, work, workload, seed, seconds, args):
    """Traced run: one process, per-layer metrics, Chrome trace file."""
    graph = generate(binary, work, workload, seed, args.smoke)
    trace_path = os.path.join(work, "traces", "%s-%d.json" % (workload, seed))
    out = run_binary(binary, common_args(workload, seed, graph, seconds, args)
                     + ["--trace", trace_path], work, 60 + 4 * seconds)
    os.remove(graph)
    missing = missing_layers(trace_path)
    if missing:
        print("ledger: trace %s has no event for layer(s) %s"
              % (trace_path, ", ".join(missing)), file=sys.stderr)
    return {"correct": out["failed"] == 0 and not missing,
            "attempted": out["attempted"], "failed": out["failed"],
            "resolved": out["resolved"], "banner": out["banner"],
            "layers": out["layers"], "trace": trace_path}


def generate(binary, work, workload, seed, smoke):
    for sub in ("inputs", "tmp", "traces"):
        os.makedirs(os.path.join(work, sub), exist_ok=True)
    path = os.path.join(work, "inputs", "%s-%d%s.smrb"
                        % (workload, seed, "-smoke" if smoke else ""))
    flags = ["--smoke"] if smoke else []
    run_binary(binary, ["--workload", workload, "--seed", str(seed),
                        "--generate", path] + flags, work, 300)
    return path


def common_args(workload, seed, graph, seconds, args):
    out = ["--workload", workload, "--seed", str(seed), "--graph", graph,
           "--seconds", repr(seconds)]
    if args.smoke:
        out.append("--smoke")
    if args.self_test:
        out.append("--self-test")
    return out


def missing_layers(trace_path):
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    seen = {event.get("cat") for event in events}
    return [layer for layer in LAYERS if layer not in seen]


def print_result(workload, result):
    status = "ok" if result["correct"] else "INCORRECT"
    print("%s (%s): %s, %d queries, %d failed"
          % (workload, result["resolved"], status, result["attempted"],
             result["failed"]))
    for name, metric in result.get("metrics", {}).items():
        print("  %-26s %14.6g %-10s q1 %.6g  q3 %.6g  n %d"
              % (name, metric["value"], metric["unit"], metric["q1"],
                 metric["q3"], metric["n"]))
    for name, metric in result.get("layers", {}).items():
        print("  %-26s %14.6g %s" % (name, metric["value"], metric["unit"]))
    if "trace" in result:
        print("  trace: " + result["trace"])


def run(args):
    binary = args.binary or build()
    work = args.work_dir or os.path.join(build_root(), "ledger-run")
    seconds = 0.0 if args.smoke else float(args.seconds)
    workloads = [args.workload] if args.workload else WORKLOADS
    report = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
              "workloads": {}}
    for workload in workloads:
        # A single traced workload is the per-layer run alone; the full run
        # measures end to end first, then traces.
        result = {"correct": True, "attempted": 0, "failed": 0}
        if args.trace == "0" or not args.workload:
            result = measure(binary, work, workload, args.seed, seconds, args)
        if args.trace == "1":
            layers = traced(binary, work, workload, args.seed, seconds, args)
            layers["correct"] = layers["correct"] and result["correct"]
            layers["attempted"] += result["attempted"]
            layers["failed"] += result["failed"]
            result = dict(result, **layers)
        report["banner"] = result.pop("banner")
        report["workloads"][workload] = result
        print_result(workload, result)

    results = report["workloads"].values()
    correct = all(r["correct"] for r in results)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
    print("banner: " + json.dumps(report["banner"], sort_keys=True))
    ok = correct
    if args.smoke and not args.workload and not args.self_test:
        ok = smoke_checks(args, binary, work, report) and ok
    metrics = {}
    if args.workload:
        chosen = report["workloads"][args.workload]
        chosen = chosen["layers" if args.trace == "1" else "metrics"]
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in chosen.items()}
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if ok else 1


def smoke_checks(args, binary, work, report):
    """The ctest smoke's extra checks: names and units agree with
    BENCHMARK.json, and a deliberately wrong oracle is caught."""
    ok = True
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(spec_path):
        with open(spec_path) as f:
            spec = json.load(f)
        if [w["name"] for w in spec["workloads"]] != WORKLOADS:
            print("ledger: BENCHMARK.json workloads differ", file=sys.stderr)
            ok = False
        expected = [(m["name"], m["unit"], m["better"], m["bound"])
                    for m in spec["end_to_end"]]
        if expected != [tuple(row[:4]) for row in E2E]:
            print("ledger: BENCHMARK.json end_to_end differs",
                  file=sys.stderr)
            ok = False
        if args.trace == "1":
            expected = [(m["name"], m["unit"]) for m in spec["per_layer"]]
            for workload, result in report["workloads"].items():
                got = [(name, m["unit"]) for name, m in
                       result["layers"].items()]
                if got != expected:
                    print("ledger: %s per-layer metrics differ from "
                          "BENCHMARK.json" % workload, file=sys.stderr)
                    ok = False
    self_test = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--smoke", "--self-test",
         "--workload", WORKLOADS[0], "--seed", str(args.seed),
         "--binary", binary, "--work-dir", work],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    if self_test.returncode == 0:
        print("ledger: --self-test (wrong oracle) was not caught",
              file=sys.stderr)
        ok = False
    print("smoke checks: " + ("passed" if ok else "FAILED"))
    return ok


# --------------------------------------------------------------------------
# compare
# --------------------------------------------------------------------------

def spread(metric):
    return (metric["q3"] - metric["q1"]) / metric["value"] \
        if metric["value"] else 0.0


def verdict(name, better, bound, exact, a, b):
    if exact:
        return "identical" if a["value"] == b["value"] else "BEHAVIOUR CHANGE"
    change = (b["value"] - a["value"]) / a["value"]
    worse = change if better == "lower" else -change
    if name == "setup_s" and abs(b["value"] - a["value"]) < SETUP_FLOOR_S:
        return "within bound"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if worse > bound:
        return "WORSE"
    if -worse > spread(a):
        return "better"
    return "within bound"


def compare(path_a, path_b):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    # Counters are exact only between runs on the same inputs.
    same_inputs = a["seed"] == b["seed"] and a["smoke"] == b["smoke"]
    if not same_inputs:
        print("note: different seeds; counters are held to their bounds")
    bad = 0
    print("%-19s %-18s %-10s %11s %-23s %11s %-23s %8s  %s"
          % ("workload", "metric", "unit", "A", "A q1-q3", "B", "B q1-q3",
             "delta", "verdict"))
    for workload in WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            continue
        ma = a["workloads"][workload].get("metrics", {})
        mb = b["workloads"][workload].get("metrics", {})
        for name, unit, better, bound, exact in E2E:
            if name not in ma or name not in mb:
                continue
            x, y = ma[name], mb[name]
            word = verdict(name, better, bound, exact and same_inputs, x, y)
            bad += word in ("WORSE", "BEHAVIOUR CHANGE")
            delta = (y["value"] - x["value"]) / x["value"] if x["value"] \
                else 0.0
            print("%-19s %-18s %-10s %11.5g %-23s %11.5g %-23s %+7.2f%%  %s"
                  % (workload, name, unit, x["value"],
                     "%.5g-%.5g" % (x["q1"], x["q3"]), y["value"],
                     "%.5g-%.5g" % (y["q1"], y["q3"]), 100 * delta, word))
    print("%d metric(s) worse or changed" % bad)
    return 1 if bad else 0


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            fail("usage: ledger.py compare A.json B.json", 2)
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(
        description="Enumeration benchmark (see ledger/README.md).")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="input and bucket-hash seed")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="timed seconds per workload")
    parser.add_argument("--trace", nargs="?", const="1", default="0",
                        choices=["0", "1"],
                        help="1: traced per-layer run (Chrome trace file)")
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny graphs, one process, one query")
    parser.add_argument("--self-test", action="store_true",
                        help="use a deliberately wrong oracle")
    parser.add_argument("--binary", help="use this bench_ledger build")
    parser.add_argument("--work-dir", help="inputs, spill files, traces")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        fail("--seed and --seconds must be non-negative", 2)
    return run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
