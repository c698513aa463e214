"""One fresh interpreter of the benchmark: imports ksphere.cli, then serves items.

Started by run.py as `python3 perfbench/worker.py <repo root>`. Protocol,
one JSON object per line:

  worker -> client  {"ready": ..., versions}             once ksphere.cli is imported
  client -> worker  {"op": "trace"}                       wrap the layers (optional)
  client -> worker  {"op": "item", "id", "argv", "json"}  run one `ksphere.cli.main(argv)`
  worker -> client  {"id", "seconds", "code", "sha256", "error", "calib_s"}
  client -> worker  {"op": "done", "spans"}               finish the pass
  worker -> client  {"maxrss_kb", "calib_s", ...trace summary}

`calib_s` is the time of `calibrate()`, run just before the item (or, for
"done", just after the last one), outside the item's timed region.

The CLI's own stdout and stderr go to in-memory buffers; the protocol uses
the worker's original stdout.
"""

import gc
import hashlib
import io
import json
import os
import platform
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter


def calibrate(np) -> float:
    """Seconds for a fixed piece of work that does not touch ksphere.

    An interpreter loop (about a quarter of the time) and two numpy
    contractions shaped like the kernels' `mul_into`, so a host that slows
    down slows it as it slows the items. The client divides item times by
    it (run.py, `scaled`).
    """
    bf = np.arange(96 * 32, dtype=np.int64).reshape(96, 32) % 13
    mul = np.arange(32**3, dtype=np.int64).reshape(32, 32, 32) % 11
    t0 = perf_counter()
    s, d = 0, {}
    for i in range(25000):
        s += (i * 7919) % 1009
        d[i & 255] = s
    for _ in range(2):
        np.einsum("nq,pqr->npr", bf, mul).sum()
    return perf_counter() - t0


def run_item(cli, argv: list[str], json_path: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv + ["--json", json_path])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        error = traceback.format_exc(limit=-3)
    seconds = perf_counter() - t0
    digest = None
    if os.path.exists(json_path):
        with open(json_path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        os.remove(json_path)
    if error is None and code != 0:
        error = f"exit code {code}: {err.getvalue()[-300:]}"
    return {"seconds": seconds, "code": code, "sha256": digest, "error": error}


def trace_summary(t, get_ring, spans_path: str, ring_info0) -> dict:
    """Restore the wrapped layers, write the spans, and sum them per layer."""
    from tracer import layer_totals

    restored = t.restore()
    ring_info = get_ring.cache_info()
    hits = ring_info.hits - ring_info0.hits
    lookups = hits + ring_info.misses - ring_info0.misses
    names = sorted({s[0] for s in t.spans})
    index = {n: i for i, n in enumerate(names)}
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "fields": ["name", "start", "end", "parent", "item"],
                "names": names,
                "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in t.spans],
            },
            fh,
            separators=(",", ":"),
        )
    return {
        "layers": layer_totals(t.spans),
        "counters": dict(t.counters),
        "ring_hit_ratio": hits / lookups if lookups else 0.0,
        "restored": restored,
    }


def main() -> None:
    sys.path.insert(0, os.path.join(sys.argv[1], "src"))
    import ksphere.cli  # the import is what set-up time measures
    import numpy

    get_ring = ksphere.cyclotomic.get_ring
    proto = sys.stdout

    def send(obj) -> None:
        proto.write(json.dumps(obj) + "\n")
        proto.flush()

    send({"ready": True, "python": platform.python_version(), "numpy": numpy.__version__})
    calibrate(numpy)  # untimed: the first call pays einsum's set-up and cold caches
    tracer = None
    ring_info0 = None
    for line in sys.stdin:
        msg = json.loads(line)
        op = msg["op"]
        if op == "trace":
            from tracer import Tracer  # perfbench/ is sys.path[0]

            tracer = Tracer()
            ring_info0 = get_ring.cache_info()
            tracer.install()
        elif op == "item":
            if tracer is not None:
                tracer.item = msg["id"]
            calib_s = calibrate(numpy)
            reply = run_item(ksphere.cli, msg["argv"], msg["json"])
            # A CLI user's process ends after one command; collect this item's
            # cyclic garbage outside the timed region, not inside the next item's.
            gc.collect()
            send(dict(reply, id=msg["id"], calib_s=calib_s))
        elif op == "done":
            final = {"calib_s": calibrate(numpy)}
            if tracer is not None:
                final.update(trace_summary(tracer, get_ring, msg["spans"], ring_info0))
            final["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            send(final)
            return


if __name__ == "__main__":
    main()
