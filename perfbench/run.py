#!/usr/bin/env python3
"""Benchmark runner for the accentmig simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper_cold --seed 0 --seconds 10 --trace 0

It builds `cmd/migsim` and the in-process probe (`perfbench`, a module
of its own) into `.bench_build/`, then runs one workload: a set-up
phase, then fresh processes of the workload, one after another, until
`--seconds` have passed. Every timed process is a cold Go runtime, as a
user's run is. The last line of standard output is one JSON object:
the end-to-end metrics with `--trace 0`, the per-layer metrics of the
separate traced run with `--trace 1`. Metric names and units come from
BENCHMARK.json. See perfbench/README.md for what each workload and
metric covers.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
MIGSIM = os.path.join(BUILD, "migsim")
PROBE = os.path.join(BUILD, "perfprobe")
GOLDEN = os.path.join(ROOT, "testdata", "exp_all.golden")

WORKLOADS = ("paper_cold", "paper_warm", "cluster64", "transport_store")
MIN_REPS = 3
SETUP_REPS = 3
TRACE_REPS = 3

HOST_GROUP = ("wall_s", "cpu_s", "max_rss_mb", "setup_s")
SIM_GROUP = ("sim_bytes_mb", "sim_msg_s", "sim_total_s", "sim_downtime_ms_p50",
             "sim_downtime_ms_max", "sim_fault_stall_ms")


class BenchError(Exception):
    """A run that cannot produce a result: build or process failure."""


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
    })
    return env


def build():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    for argv, cwd in ((["go", "build", "-o", MIGSIM, "./cmd/migsim"], ROOT),
                      (["go", "build", "-o", PROBE, "."], os.path.join(ROOT, "perfbench"))):
        if not os.path.isdir(cwd):
            raise BenchError("missing %s" % cwd)
        r = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if r.returncode != 0:
            raise BenchError("build failed: %s\n%s" % (" ".join(argv), r.stdout.decode(errors="replace")))


class Proc:
    """One finished child process with its own resource usage."""

    def __init__(self, argv, scratch):
        out_path = os.path.join(scratch, "stdout")
        err_path = os.path.join(scratch, "stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            p = subprocess.Popen(argv, cwd=ROOT, stdout=out, stderr=err)
            _, status, ru = os.wait4(p.pid, 0)
            self.wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        self.code = p.returncode
        self.cpu = ru.ru_utime + ru.ru_stime
        self.rss_mb = ru.ru_maxrss / 1024.0
        with open(out_path, "rb") as f:
            self.out = f.read()
        with open(err_path, "rb") as f:
            self.err = f.read().decode(errors="replace")
        self.argv = argv

    def gate(self, checks):
        """Counts the exit status as one checked output."""
        return checks.check(self.code == 0, "%s exited %d: %s" % (
            " ".join(os.path.basename(a) for a in self.argv), self.code, self.err.strip()[-500:]))

    def json(self):
        if self.code != 0:
            raise BenchError("%s exited %d: %s" % (" ".join(self.argv), self.code, self.err.strip()[-2000:]))
        return json.loads(self.out.decode())


class Checks:
    """Correctness gates: each check is one output attempted."""

    def __init__(self):
        self.attempted = 0
        self.problems = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.problems.append(what)
        return ok

    def absorb(self, probe_report):
        self.attempted += probe_report["checks"]
        self.problems.extend(probe_report["problems"])

    @property
    def failed(self):
        return len(self.problems)


def cache_snapshot(d):
    snap = {}
    for dirpath, _, files in os.walk(d):
        for name in files:
            st = os.stat(os.path.join(dirpath, name))
            snap[os.path.relpath(os.path.join(dirpath, name), d)] = (st.st_size, st.st_mtime_ns)
    return snap


def source_digest():
    h = hashlib.sha256()
    for dirpath, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(x for x in dirs if not x.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name in ("go.mod", "exp_all.golden"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if r.returncode == 0:
            return r.stdout.decode().strip()
    return "src:" + source_digest()


class Workload:
    """One workload's set-up, timed repetition, output gates and
    simulated metrics. Subclasses fill in the workload specifics."""

    def __init__(self, args, env, scratch, checks):
        self.args, self.env, self.scratch, self.checks = args, env, scratch, checks
        self.reference = None  # first rep's output, for repeat-identity gates
        self.events = None     # kernel events one rep executes, where known
        self.events_what = ""

    def flags(self):
        return ["-parallel", str(self.env["workers"]), "-seed", str(self.args.seed)]

    def ready_argv(self):
        return [MIGSIM, "-list"]

    def setup_once(self):
        """Everything before the timed region: start the program to
        readiness, then one untimed run of the workload (its outputs
        are checked), so the binaries and inputs are in the page cache
        before timing starts."""
        self.prepare()
        self.rep()

    def prepare(self):
        Proc(self.ready_argv(), self.scratch).gate(self.checks)

    def rep(self):
        """Runs the workload once; returns (wall, cpu, rss_mb)."""
        raise NotImplementedError

    def sim(self):
        """Returns the simulated metrics, gating what it reads."""
        raise NotImplementedError

    def same_as_reference(self, out, what):
        if self.reference is None:
            self.reference = out
        return self.checks.check(out == self.reference, what)


class Paper(Workload):
    def argv(self):
        return [MIGSIM, "-exp", "all"] + self.flags()

    def check_output(self, out):
        if self.args.seed == 0:
            with open(GOLDEN, "rb") as f:
                golden = f.read()
            self.checks.check(out == golden, "-exp all output differs from testdata/exp_all.golden")
        else:
            self.same_as_reference(out, "-exp all output differs between runs of seed %d" % self.args.seed)

    def rep(self):
        p = Proc(self.argv(), self.scratch)
        if p.gate(self.checks):
            self.check_output(p.out)
        return p.wall, p.cpu, p.rss_mb

    def sim(self):
        r = Proc([PROBE, "sim", "-workload", "paper"] + self.flags(), self.scratch).json()
        self.checks.absorb(r)
        self.events, self.events_what = r["events"], "kernel events over the 77 grid cells"
        return r["sim"]


class PaperWarm(Paper):
    def cache_dir(self):
        return os.path.join(self.scratch, "memo")

    def argv(self):
        return super().argv() + ["-memo-cache-dir", self.cache_dir()]

    def prepare(self):
        shutil.rmtree(self.cache_dir(), ignore_errors=True)
        p = Proc(self.argv(), self.scratch)
        if p.gate(self.checks):
            self.check_output(p.out)

    def rep(self):
        before = cache_snapshot(self.cache_dir())
        wall, cpu, rss = super().rep()
        self.checks.check(cache_snapshot(self.cache_dir()) == before,
                          "warm run missed or rejected memo-cache entries (cache directory changed)")
        return wall, cpu, rss

    def sim(self):
        s = super().sim()
        self.events, self.events_what = 0, "kernel events (every trial is served from the disk cache)"
        return s


class Cluster(Workload):
    """One timed run is two processes on the same 64-machine input: the
    sequential kernel, then `lanes` event lanes. A change that helps one
    kernel mode and hurts the other shows in wall_s and in the per-layer
    split (sim.event_ratio, sim.parallel_eff)."""

    def ready_argv(self):
        return [PROBE, "ready"]

    def argv(self, shards):
        return [PROBE, "cluster", "-shards", str(shards), "-seed", str(self.args.seed)]

    def rep(self):
        wall = cpu = rss = 0.0
        events = 0
        digests = []
        for shards in (1, self.env["lanes"]):
            p = Proc(self.argv(shards), self.scratch)
            r = p.json()
            wall, cpu, rss = wall + p.wall, cpu + p.cpu, max(rss, p.rss_mb)
            events += r["events"]
            digests.append(r["digest"])
            if shards == 1:
                self.last = r
        self.same_as_reference(digests[0], "cluster result differs between runs of seed %d" % self.args.seed)
        self.checks.check(digests[1] == digests[0], "lane run result differs from the sequential run")
        self.events, self.events_what = events, "kernel events per run (sequential + lanes)"
        return wall, cpu, rss

    def sim(self):
        r = Proc([PROBE, "clustercheck", "-shards", str(self.env["lanes"]), "-seed", str(self.args.seed)],
                 self.scratch).json()
        self.checks.absorb(r)
        self.checks.check(r["digest"] == self.reference, "timed runs differ from the DeepEqual-checked result")
        return self.last["sim"]


class Transport(Workload):
    def rep(self):
        wall = cpu = rss = 0.0
        out = b""
        for exp in ("pipeline", "dedup"):
            p = Proc([MIGSIM, "-exp", exp] + self.flags(), self.scratch)
            p.gate(self.checks)
            wall, cpu, rss = wall + p.wall, cpu + p.cpu, max(rss, p.rss_mb)
            out += p.out
        self.same_as_reference(out, "-exp pipeline/dedup output differs between runs")
        return wall, cpu, rss

    def sim(self):
        r = Proc([PROBE, "sim", "-workload", "transport"] + self.flags(), self.scratch).json()
        self.checks.absorb(r)
        self.events, self.events_what = r["events"], "kernel events over the pipeline sweep rows"
        return r["sim"]


CLASSES = {"paper_cold": Paper, "paper_warm": PaperWarm, "cluster64": Cluster,
           "transport_store": Transport}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def quartiles(xs):
    if len(xs) < 2:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4)


def run(args):
    spec = load_spec()
    build()
    ncpu = len(os.sched_getaffinity(0))
    env = {
        "nproc": ncpu,
        "gomaxprocs": int(os.environ.get("GOMAXPROCS") or ncpu),
        "go": subprocess.run(["go", "env", "GOVERSION"], env=go_env(), stdout=subprocess.PIPE).stdout.decode().strip(),
        "commit": commit(),
        "seed": args.seed,
        "workers": ncpu,
        "lanes": max(2, ncpu),
    }
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(scratch)
    try:
        return measure(args, spec, env, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, spec, env, scratch):
    checks = Checks()
    w = CLASSES[args.workload](args, env, scratch, checks)

    setups = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        w.setup_once()
        setups.append(time.perf_counter() - start)

    walls, cpus, rsss = [], [], []
    start = time.perf_counter()
    target = args.seconds if not args.trace else 0
    while len(walls) < (MIN_REPS if not args.trace else TRACE_REPS) or time.perf_counter() - start < target:
        wall, cpu, rss = w.rep()
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
    sim = w.sim()

    host = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "max_rss_mb": statistics.median(rsss),
        "setup_s": statistics.median(setups),
    }

    layer = None
    if args.trace:
        layer = traced(args, env, scratch, w, sim, host, checks)

    print("# env: nproc=%d GOMAXPROCS=%d go=%s commit=%s seed=%d engine_workers=%d lanes=%d" % (
        env["nproc"], env["gomaxprocs"], env["go"], env["commit"], env["seed"], env["workers"], env["lanes"]))
    print("# workload %s: %d timed runs, %d set-ups; %s: %s" % (
        args.workload, len(walls), len(setups), w.events_what, w.events))
    print("# host (tracing off; medians over runs)")
    print("#   wall_s over %d runs: min %.4f q1 %.4f median %.4f q3 %.4f max %.4f" % (
        (len(walls), min(walls)) + tuple(quartiles(walls)) + (max(walls),)))
    for k in HOST_GROUP:
        print("#   %-22s %.6g" % (k, host[k]))
    print("#   %-22s %d/%d" % ("failed_frac", checks.failed, checks.attempted))
    print("# simulated (exact)")
    for k in SIM_GROUP:
        print("#   %-22s %r" % (k, sim[k]))
    for p in checks.problems:
        print("# FAILED: %s" % p)

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {n: {"value": layer[n], "unit": u} for n, u in units.items()}
    else:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = dict(host, **sim)
        metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def traced(args, env, scratch, w, sim, host, checks):
    """The traced run: the workload's pass in a fresh probe process with
    spans around the program's calls, timed like the untraced runs, then
    every layer probe in another process."""
    flags = ["-workload", args.workload, "-seed", str(args.seed), "-parallel", str(env["workers"]),
             "-shards", str(env["lanes"]), "-scratch", scratch]
    if args.workload == "paper_warm":
        flags += ["-cache", w.cache_dir()]
    p = Proc([PROBE, "trace"] + flags, scratch)
    r = p.json()
    checks.absorb(r)
    checks.check(r["sim"] == sim, "traced simulated metrics differ from the untraced run")
    layers = Proc([PROBE, "layers"] + flags, scratch).json()
    checks.absorb(layers)
    metrics = dict(layers["metrics"], **r["metrics"])
    metrics["trace.overhead_s"] = p.wall - host["wall_s"]
    spans = os.path.join(BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))
    with open(spans, "w") as f:
        json.dump(r["spans"], f, indent=1)
    print("# traced run %.4fs (pass %.4fs) vs untraced wall %.4fs; %d spans in %s" % (
        p.wall, r["pass_wall_s"], host["wall_s"], len(r["spans"]), os.path.relpath(spans, ROOT)))
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        result = run(args)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print("bench: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
