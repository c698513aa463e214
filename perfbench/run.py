#!/usr/bin/env python3
"""Cold-process benchmark of the three ksphere CLI workloads.

Run from the repository root:

    python3 perfbench/run.py --workload kgroup-wide --seed 1 --seconds 42 --trace 0

One pass runs every item of the workload through `ksphere.cli.main` in a
fresh interpreter (perfbench/worker.py), in an order the seed picks.
A single closed-loop client sends the next item only after the previous one
finished. Each item writes `--json` to a file in the checkout; its sha256
must equal the golden digest in perfbench/workloads.json.

Host speed on a shared machine drifts by tens of percent within a minute,
so times are reported at a reference host speed: before each item the
worker times a fixed calibration loop, and each item's seconds are scaled
by CALIB_REF_S over the geometric mean of the calibrations just before and
just after it (`scaled`). Set-up time is scaled by the first calibration
of its interpreter. The unscaled times go to the details file. The client
and its workers are pinned to one CPU, so the calibration and the items
run on the same one.

--trace 0 repeats pairs of passes (an order drawn from the seed, then its
reverse)
while the next pair fits in --seconds, and reports the end-to-end metrics
of BENCHMARK.json. --trace 1 runs one untraced pass and two traced passes
in the first order (layers wrapped by perfbench/tracer.py) and reports the
per-layer metrics. The last stdout line is the JSON result; details go to
.perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 5  # extra set-up-only interpreters per run, for a steady set-up median
DEADLINE_S = 170  # a run is abandoned (no result printed) after this long
# Calibration seconds (worker.calibrate) that a reported second is scaled to;
# about what the calibration takes on a quiet 2-core Xeon VM.
CALIB_REF_S = 0.010

sys.path.insert(0, HERE)

from tracer import COMPUTED_COUNTERS, LAYER_NAMES  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def load_items(workload: str) -> list[dict]:
    with open(os.path.join(HERE, "workloads.json"), encoding="utf-8") as fh:
        workloads = json.load(fh)
    if workload not in workloads:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(workloads)}")
    return workloads[workload]


def ordered_items(items: list[dict], seed: int, pass_index: int) -> list[dict]:
    """The workload's items in the order the seed picks for one pass.

    Each pair of passes shuffles the groups afresh from the seed. The items
    of one group run together, in file order, so the same item always pays
    for the group's own table. Some subgroup tables are shared between
    groups; odd passes run the groups backwards, so over a pair of passes
    that cost falls on either side alike. Peak memory depends on which
    groups' tables are cached when the largest item runs, so fresh orders
    per pair keep one seed's order from deciding it.
    """
    groups: dict[str, list[dict]] = {}
    for item in items:
        groups.setdefault(item["group"], []).append(item)
    keys = list(groups)
    random.Random(f"{seed}-{pass_index // 2}").shuffle(keys)
    if pass_index % 2:
        keys.reverse()
    return [item for key in keys for item in groups[key]]


def scaled(seconds: list[float], calibs: list[float]) -> list[float]:
    """Item times at the reference host speed.

    calibs[k] is the calibration measured just before item k, and calibs[-1]
    the one just after the last item, so there is one more calib than item.
    """
    return [s * CALIB_REF_S / math.sqrt(calibs[k] * calibs[k + 1]) for k, s in enumerate(seconds)]


def is_failure(item: dict, reply: dict) -> bool:
    return reply["error"] is not None or reply["code"] != 0 or reply["sha256"] != item["sha256"]


def environment(seed: int, numpy_version: str, nproc: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": nproc,
        "cpu": cpu or platform.machine(),
        "mem_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "seed": seed,
    }


class Worker:
    """A fresh interpreter running perfbench/worker.py, killed at the deadline."""

    def __init__(self, deadline: float) -> None:
        t0 = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, WORKER, ROOT],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            # Fixed string hashing: set and dict layouts repeat from pass to pass.
            env=dict(os.environ, PYTHONHASHSEED="0"),
        )
        self.timer = threading.Timer(max(deadline - perf_counter(), 0.0), self.proc.kill)
        self.timer.start()
        try:
            self.ready = self.recv()
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - t0

    def send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("worker ended early (crashed, or killed at the deadline)")
        return json.loads(line)

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_pass(items, deadline, tmp_dir, trace=False, spans_path=None) -> dict:
    """One cold interpreter, every item once, closed loop."""
    t0 = perf_counter()
    worker = Worker(deadline)
    try:
        if trace:
            worker.send({"op": "trace"})
        json_path = os.path.join(tmp_dir, "out.json")
        replies = []
        for item in items:
            worker.send({"op": "item", "id": item["id"], "argv": item["argv"], "json": json_path})
            replies.append(worker.recv())
        worker.send({"op": "done", "spans": spans_path})
        final = worker.recv()
    finally:
        worker.close()
    failures = [
        (item["id"], r["error"] or "golden digest mismatch")
        for item, r in zip(items, replies)
        if is_failure(item, r)
    ]
    calibs = [r["calib_s"] for r in replies] + [final["calib_s"]]
    seconds = scaled([r["seconds"] for r in replies], calibs)
    return {
        "setup_s": worker.setup_s * CALIB_REF_S / calibs[0],
        "run_s": math.fsum(seconds),
        "raw_setup_s": worker.setup_s,
        "raw_run_s": math.fsum(r["seconds"] for r in replies),
        "calib_median_s": statistics.median(calibs),
        "wall_s": perf_counter() - t0,
        "items": {r["id"]: s for r, s in zip(replies, seconds)},
        "failures": failures,
        "final": final,
        "numpy": worker.ready["numpy"],
    }


def setup_probe(deadline: float) -> float:
    """Set-up time of one interpreter that only imports, at reference speed."""
    worker = Worker(deadline)
    try:
        worker.send({"op": "done", "spans": None})
        final = worker.recv()
    finally:
        worker.close()
    return worker.setup_s * CALIB_REF_S / final["calib_s"]


def item_latencies(passes) -> dict[str, float]:
    """Each item's latency: the median, over pairs of passes, of its mean in the pair.

    An item that shares a subgroup table with another group may build it in
    one pass of a pair and read it from the cache in the other, so its times
    can fall into two clusters of equal size. A plain median of them would
    be the mean of the two innermost samples; the pair mean averages the two
    clusters instead.
    """
    pairs = [passes[k : k + 2] for k in range(0, len(passes), 2)]
    return {
        i: statistics.median(statistics.fmean(p["items"][i] for p in pair) for pair in pairs)
        for i in passes[0]["items"]
    }


def end_to_end(passes, probes) -> dict:
    latencies = item_latencies(passes).values()
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    return {
        "setup_s": statistics.median(probes + [p["setup_s"] for p in passes]),
        "run_s": statistics.median(p["run_s"] for p in passes),
        "item_geomean_s": math.exp(statistics.fmean(math.log(s) for s in latencies)),
        "item_max_s": max(latencies),
        "peak_rss_mb": statistics.median(p["final"]["maxrss_kb"] / 1024 for p in passes),
        "pass_ratio": 1 - failed / attempted,
    }


def per_layer(plain, traced) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and any consistency problems."""
    problems = []
    first = traced[0]["final"]
    metrics = {}
    for name in LAYER_NAMES:
        unused = {"calls": 0, "s": 0.0, "self_s": 0.0}
        entries = [p["final"]["layers"].get(name, unused) for p in traced]
        metrics[f"{name}.calls"] = entries[0]["calls"]
        metrics[f"{name}.s"] = statistics.median(e["s"] for e in entries)
        metrics[f"{name}.self_s"] = statistics.median(e["self_s"] for e in entries)
    for name in COMPUTED_COUNTERS:
        values = [p["final"]["counters"].get(name, 0) for p in traced]
        if len(set(values)) != 1:
            problems.append(f"computed counter {name} differs between traced passes: {values}")
        metrics[name] = values[0]
    builds = metrics["dixon.character_table_data.calls"]
    tables = metrics["characters.character_table.calls"]
    metrics["characters.table_build_ratio"] = builds / tables if tables else 0.0
    metrics["cyclotomic.get_ring.hit_ratio"] = first["ring_hit_ratio"]
    traced_s = statistics.median(p["run_s"] for p in traced)
    metrics["trace_overhead_ratio"] = traced_s / statistics.median(p["run_s"] for p in plain)
    if not all(p["final"]["restored"] for p in traced):
        problems.append("tracer did not restore every wrapped binding")
    return metrics, problems


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.exists(os.path.join(ROOT, "src", "ksphere", "cli.py")):
        raise BenchError(f"no ksphere source under {ROOT}/src")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    items = load_items(workload)
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)  # cold process, warm bytecode
    os.makedirs(OUT_DIR, exist_ok=True)
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # the workers inherit it
    start = perf_counter()
    deadline = start + DEADLINE_S
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp_dir:
        probes = [setup_probe(deadline) for _ in range(SETUP_PROBES)]
        if trace:
            spans = [os.path.join(OUT_DIR, f"spans-{workload}-{i}.json") for i in (1, 2)]
            order = ordered_items(items, seed, 0)  # one order, so counters must repeat
            plain = [run_pass(order, deadline, tmp_dir)]
            traced = [run_pass(order, deadline, tmp_dir, True, path) for path in spans]
            passes = plain + traced
            values, problems = per_layer(plain, traced)
            wanted = spec["per_layer"]
        else:
            passes = []
            while not passes or (
                perf_counter() - start + 2 * statistics.median(p["wall_s"] for p in passes)
                <= seconds
            ):
                for _ in range(2):  # a pass and its reverse
                    order = ordered_items(items, seed, len(passes))
                    passes.append(run_pass(order, deadline, tmp_dir))
            values, problems = end_to_end(passes, probes), []
            wanted = spec["end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        raise BenchError(f"computed metrics do not match BENCHMARK.json: {sorted(set(values))}")
    failures = [f for p in passes for f in p["failures"]]
    result = {
        "correct": not failures and not problems,
        "attempted": sum(len(p["items"]) for p in passes),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details = {
        "workload": workload,
        "trace": trace,
        "env": environment(seed, passes[0]["numpy"], len(cpus)),
        "calib_ref_s": CALIB_REF_S,
        "passes": [
            dict(
                {k: p[k] for k in ("setup_s", "run_s", "raw_setup_s", "raw_run_s", "calib_median_s")},
                wall_s=p["wall_s"],
                maxrss_kb=p["final"]["maxrss_kb"],
                items_s=p["items"],
            )
            for p in passes
        ],
        "setup_probes_s": probes,
        "problems": problems,
        "failures": failures[:20],
        "item_latencies_s": None if trace else item_latencies(passes),
        "result": result,
    }
    with open(os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(details, fh, indent=1)
    print(f"env {json.dumps(details['env'])}")
    for item_id, error in failures[:5]:
        print(f"FAILED {item_id}: {error}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
