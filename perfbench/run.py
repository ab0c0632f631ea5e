"""dgdescent benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py and BENCHMARK.json) from the root of
a checkout, against the package in its src/ directory.  After set-up it
repeats timed passes over the same seeded inputs for about S seconds
and checks every output with the workload's oracle.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json,
untraced.  With --trace 1 it first runs untraced passes, then installs
the span wrappers of spans.py and runs traced passes, and reports the
per-layer metrics: calls and self time per layer entry point,
deterministic counters, and the tracing overhead.  The counters must be
equal in every traced pass and equal to those of the previous traced
run of the same seed, kept in perfbench/out/counters-*.json (delete it
after changing the program on purpose); otherwise the run is not
correct.

The virtual CPUs of a shared host can run at speeds that differ by up
to 2x, in phases of seconds to minutes, independently per CPU (on a
2-vCPU virtual machine, Python 3.11, the same tot_sweep pass took 3.0 s
and, an hour later, 4.6 s).  So untraced runs time a fixed reference
loop (`reference_seconds`, which does not use the package) on every
allowed CPU before each item of a pass, pin the process and the
processes it starts to the faster CPU for that item, and report times
scaled to a nominal host on which the reference takes REFERENCE_S:
measured seconds x REFERENCE_S / (median reference time of the run).  A change to the program does not change
the reference, so it shows in full.  The unscaled values are printed
beside the scaled ones and the reference times are kept with the result.

Human-readable lines (environment, every pass, every metric with its
unit) come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  A detailed record
of the run, and with --trace 1 the spans, is written under
perfbench/out/.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
STARTUP_PROBES = 5
UNTRACED_SHARE = 0.3
REFERENCE_S = 0.015     # reference loop time on the nominal host


def fail(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def median(values):
    return statistics.median(values) if values else 0.0


# ---------------------------------------------------------------------------
# environment and host speed


def read_steal():
    """The steal column of the aggregate cpu line of /proc/stat (ticks)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 \
            else None
    except OSError:
        return None


def environment():
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)),
            "loadavg": list(os.getloadavg()),
            "steal_ticks": read_steal()}


def reference_seconds():
    """Time a fixed exact sparse elimination on this CPU (10 to 25 ms on
    the 2-vCPU virtual machine above).

    It works like the package's own inner loops (dicts of Fractions).
    The garbage collector is off meanwhile: a collection of the
    workload's heap, triggered by the loop's allocations, would be
    counted as host slowness."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        n = 40
        pivots = {}
        for i in range(n):
            row = {(i * 7 + j * 11) % n: Fraction((i * j) % 9 - 4 or 1,
                                                  (i + j) % 5 + 1)
                   for j in range(4)}
            while True:
                hit = next((j for j in row if j in pivots), None)
                if hit is None:
                    break
                f = row[hit]
                for j, x in pivots[hit].items():
                    v = row.get(j, 0) - f * x
                    if v:
                        row[j] = v
                    else:
                        row.pop(j, None)
            if row:
                p = min(row)
                inv = 1 / row[p]
                pivots[p] = {j: x * inv for j, x in row.items()}
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostGate:
    """Runs each measured item on the currently fastest allowed CPU and
    keeps the reference times it measured there."""

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.references = []

    def before(self):
        """Pin to the CPU that runs the reference fastest; its time."""
        best = None
        for cpu in self.cpus:
            if len(self.cpus) > 1:
                os.sched_setaffinity(0, {cpu})
            t = reference_seconds()
            if best is None or t < best[0]:
                best = (t, cpu)
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, {best[1]})
        self.references.append(best[0])
        return best[0]

    def restore(self):
        os.sched_setaffinity(0, set(self.cpus))


class NoGate:
    def before(self):
        return None

    def restore(self):
        pass


# ---------------------------------------------------------------------------
# set-up


def timed_setup(workload, seed, workdir):
    t0 = time.perf_counter()
    state = workload.setup(seed, workdir)
    return state, time.perf_counter() - t0


def setup_probe(workload, seed, workdir):
    """Set up once in this fresh interpreter and print the time."""
    _, dt = timed_setup(workload, seed, workdir)
    print(json.dumps({"setup_s": dt}))


def probe_setup(args, probe_dir):
    """One set-up in a fresh interpreter, as a user pays it."""
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", str(probe_dir)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
        timeout=120)
    if res.returncode != 0:
        raise RuntimeError("set-up probe failed:\n" + res.stderr)
    return json.loads(res.stdout.splitlines()[-1])["setup_s"]


def cli_startup_probes(count):
    """Seconds to import dgdescent.cli in a fresh interpreter."""
    from workloads import child_env
    code = ("import time; t = time.perf_counter(); import dgdescent.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(count):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                             env=child_env(), stdin=subprocess.DEVNULL,
                             capture_output=True, text=True, timeout=60)
        if res.returncode != 0:
            raise RuntimeError("cli start-up probe failed:\n" + res.stderr)
        times.append(float(res.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# passes


class Pass:
    def __init__(self, index, traced, items, outputs, reasons, n_items,
                 trace=None):
        self.index = index
        self.traced = traced
        self.items = items   # per item: label, wall_s, cpu_s, reference_s
        self.outputs = outputs
        self.reasons = reasons
        self.n_items = n_items      # completed work items (see workloads)
        self.trace = trace
        self.wall_s = sum(m["wall_s"] for m in items)
        self.cpu_s = sum(m["cpu_s"] for m in items)

    def record(self):
        rec = {"index": self.index, "traced": self.traced,
               "wall_s": self.wall_s, "cpu_s": self.cpu_s,
               "items": self.n_items, "item_times": self.items,
               "failures": [r for r in self.reasons if r]}
        if self.trace is not None:
            rec["unattributed_s"] = self.trace["spans"]["pass"][1]
        return rec


def run_one_pass(workload, state, index, gate, tracer=None):
    root = tracer.begin_pass() if tracer is not None else None
    items = []
    outputs = []
    for label, fn in workload.pass_items(state):
        ref = gate.before()
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = fn(tracer)
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        if isinstance(out, dict) and "cpu_s" in out:   # a child process
            cpu = out["cpu_s"]
        items.append({"label": label, "wall_s": wall, "cpu_s": cpu,
                      "reference_s": ref})
        outputs.append(out)
    summary = tracer.end_pass(root) if tracer is not None else None
    reasons = workload.check(state, outputs)
    return Pass(index, tracer is not None, items, outputs, reasons,
                workload.items(outputs), summary)


def run_passes(workload, state, passes, gate, until, least, t_start,
               tracer=None):
    """Add passes while the median pass still fits before `until`."""
    traced = tracer is not None
    while True:
        done = [p.wall_s for p in passes if p.traced == traced]
        if len(done) >= least and \
                time.perf_counter() - t_start + median(done) > until:
            return
        passes.append(run_one_pass(workload, state, len(passes), gate,
                                   tracer))


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, passes, setup_times, references):
    """Per item the median over passes; a pass's wall and CPU time are
    the sums over its items of those medians.  Returns the metrics scaled
    to the nominal host, and the times unscaled."""
    by_item = {}
    for p in passes:
        for k, m in enumerate(p.items):
            by_item.setdefault(k, []).append(m)
    raw = {"wall_s": sum(median([m["wall_s"] for m in ms])
                         for ms in by_item.values()),
           "cpu_s": sum(median([m["cpu_s"] for m in ms])
                        for ms in by_item.values()),
           "setup_s": median(setup_times)}
    items_per_pass = median([p.n_items for p in passes])
    raw["items_per_s"] = items_per_pass / raw["wall_s"]
    scale = REFERENCE_S / median(references)
    out = {k: raw[k] * scale for k in ("wall_s", "cpu_s", "setup_s")}
    out["items_per_s"] = items_per_pass / out["wall_s"]
    if workload.name == "cli_corpus":
        rss_kib = max(o["rss_kib"] for p in passes for o in p.outputs)
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out["peak_rss_mb"] = rss_kib / 1024.0
    return out, raw


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(names, traced, untraced, startup):
    """Per-layer metrics: counters from the first traced pass (they
    repeat exactly), self times as medians over the traced passes."""
    counters = traced[0].trace["counters"]

    def self_s(span=None, layer=None):
        vals = []
        for p in traced:
            spans = p.trace["spans"]
            if layer is not None:
                vals.append(sum(v[1] for k, v in spans.items()
                                if k.split(".")[0] == layer))
            else:
                vals.append(spans.get(span, [0, 0.0])[1])
        return median(vals)

    jobs = {}   # CLI command -> untraced job wall times (cli_corpus only)
    for p in untraced:
        for m, o in zip(p.items, p.outputs):
            if isinstance(o, dict):
                jobs.setdefault(o["job"][0], []).append(m["wall_s"])
    wall_traced = median([p.wall_s for p in traced])
    special = {
        "forms.pullback.distinct_ratio": _ratio(
            counters.get("forms.pullback.distinct", 0),
            counters.get("forms.pullback.calls", 0)),
        "dgla.lcs.distinct_ratio": _ratio(
            counters.get("dgla.lcs.distinct", 0),
            counters.get("dgla.lcs.calls", 0)),
        "cech.accept_ratio": _ratio(counters.get("cech.glued", 0),
                                    counters.get("cech.draws", 0)),
        "cli.startup_s": median(startup),
        "trace.wall_s": median([p.trace["wall_s"] for p in traced]),
        "trace.unattributed_s": self_s(span="pass"),
        "trace.overhead_ratio": _ratio(
            wall_traced, median([p.wall_s for p in untraced])),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name.startswith("cli.job_s."):
            out[name] = median(jobs.get(name[len("cli.job_s."):], []))
        elif name.endswith(".self_s"):
            base = name[:-len(".self_s")]
            out[name] = self_s(layer=base) if "." not in base else \
                self_s(span=base)
        else:
            out[name] = counters.get(name, 0)
    return out


def trace_selfchecks(traced, workload, seed):
    """Counters equal across traced passes and across runs of one seed;
    per-pass self times plus unattributed time equal the pass wall."""
    problems = []
    first = traced[0].trace["counters"]
    for p in traced[1:]:
        if p.trace["counters"] != first:
            diff = sorted(k for k in set(first) | set(p.trace["counters"])
                          if first.get(k) != p.trace["counters"].get(k))
            problems.append(f"counters drift between traced passes: {diff}")
    for p in traced:
        total = sum(v[1] for v in p.trace["spans"].values())
        if abs(total - p.trace["wall_s"]) > 1e-6 * max(1.0, total):
            problems.append(f"pass {p.index}: self times sum to {total}, "
                            f"wall is {p.trace['wall_s']}")
    stored = OUT / f"counters-{workload}-seed{seed}.json"
    if stored.exists():
        try:
            previous = json.loads(stored.read_text())
        except ValueError:
            previous = None
        if previous != first:
            problems.append(f"counters differ from the previous traced run "
                            f"of this seed ({stored.name})")
    else:
        tmp = stored.with_suffix(".tmp")
        tmp.write_text(json.dumps(first, sort_keys=True))
        os.replace(tmp, stored)
    return problems


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="default: the workload's default seed in "
                         "perfbench/meta.json")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "dgdescent" / "__init__.py").is_file():
        fail("src/dgdescent not found: run from a checkout of the repository")
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")
    if args.seed is None:
        meta = json.loads((HERE / "meta.json").read_text())
        args.seed = meta["workloads"][args.workload]["default_seed"]
    if args.setup_probe is not None:
        setup_probe(workload, args.seed, Path(args.setup_probe))
        return 0
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        fail("BENCHMARK.json not found at the root of the checkout")
    bench = json.loads(bench_file.read_text())
    seconds = args.seconds if args.seconds is not None else \
        bench["run_seconds"]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-seed{args.seed}"

    env_before = environment()
    print(f"workload {args.workload} seed {args.seed} seconds {seconds} "
          f"trace {args.trace}")
    print("environment " + json.dumps(env_before, sort_keys=True))
    gate = NoGate() if args.trace else HostGate()
    passes = []
    problems = []
    startup = []
    tracer = None
    try:
        gate.before()
        state, dt = timed_setup(workload, args.seed, workdir)
        setup_times = [dt]
        for k in range(0 if args.trace else SETUP_REPEATS - 1):
            gate.before()
            setup_times.append(probe_setup(args, workdir / f"probe{k}"))
        t_start = time.perf_counter()
        run_passes(workload, state, passes, gate,
                   seconds * (UNTRACED_SHARE if args.trace else 1.0), 1,
                   t_start)
        if args.trace:
            import spans
            tracer = spans.Tracer()
            installed = spans.install(tracer)
            try:
                run_passes(workload, state, passes, gate, seconds, 2,
                           t_start, tracer)
            finally:
                installed.uninstall()
            startup = cli_startup_probes(STARTUP_PROBES)
        elapsed = time.perf_counter() - t_start
    finally:
        gate.restore()
    print("setup_s runs " + " ".join(f"{t:.6f}" for t in setup_times))
    for p in passes:
        print(f"pass {p.index} {'traced' if p.traced else 'untraced'} "
              f"wall_s {p.wall_s:.6f} cpu_s {p.cpu_s:.6f} items {p.n_items} "
              f"failed {sum(1 for r in p.reasons if r)}")
        for r in sorted({r for r in p.reasons if r}):
            print(f"  failure: {r}")

    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.reasons) for p in passes)
    failed = sum(1 for p in passes for r in p.reasons if r)
    kind = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in bench[kind]]
    units = {m["name"]: m["unit"] for m in bench[kind]}
    raw = {}
    if args.trace:
        metrics = per_layer(names, traced, untraced, startup)
        problems += trace_selfchecks(traced, args.workload, args.seed)
        tracer.dump(OUT / f"spans-{args.workload}.json.gz")
    else:
        metrics, raw = end_to_end(workload, passes, setup_times,
                                  gate.references)
    env_after = environment()
    steal = None
    if None not in (env_before["steal_ticks"], env_after["steal_ticks"]):
        steal = env_after["steal_ticks"] - env_before["steal_ticks"]

    walls = sorted(p.wall_s for p in untraced)
    refs = getattr(gate, "references", [])
    print(f"passes {len(untraced)} untraced, {len(traced)} traced, "
          f"{elapsed:.3f} s measured; steal {steal} ticks; "
          f"loadavg after {env_after['loadavg']}")
    if refs:
        print(f"host reference loop on the chosen CPU: min {min(refs):.6f} "
              f"median {median(refs):.6f} max {max(refs):.6f} s over "
              f"{len(refs)} timings; times below are scaled by "
              f"{REFERENCE_S} / {median(refs):.6f}")
    print(f"untraced pass wall_s, all passes: median {median(walls):.6f} s "
          f"of {len(walls)} passes")
    if len(walls) >= 11:
        k = len(walls) - 11     # ten passes lie beyond this one
        print(f"untraced pass wall_s p{100.0 * (k + 1) / len(walls):.1f} "
              f"{walls[k]:.6f} s")
    else:
        print(f"untraced pass wall_s tail percentile: none (needs 11 "
              f"passes, have {len(walls)})")
    for name in names:
        unscaled = f" (unscaled {raw[name]!r})" if name in raw else ""
        print(f"{name} {metrics[name]!r} {units[name]}{unscaled}")
    print(f"failed_frac {failed / attempted if attempted else 0.0!r} "
          f"({failed} of {attempted} operations failed)")
    for msg in problems:
        print(f"self-check failed: {msg}")

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": seconds, "trace": args.trace,
              "environment_before": env_before,
              "environment_after": env_after, "steal_ticks": steal,
              "setup_s_runs": setup_times, "cli_startup_s_runs": startup,
              "host_references_s": refs, "reference_s": REFERENCE_S,
              "passes": [p.record() for p in passes],
              "metrics": metrics, "unscaled": raw,
              "attempted": attempted, "failed": failed,
              "selfcheck_problems": problems}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(detail, indent=1, sort_keys=True))
    result = {"correct": failed == 0 and not problems,
              "attempted": attempted, "failed": failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]}
                          for n in names}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
