"""Server side of the wire workloads, in a process of its own.

Launched by ``bench/workloads.py`` once per pass so the load generator
and the server never share an event loop (or a core's worth of GIL):

1. build the Q1 pipeline (the one every Q1 workload runs), start a
   :class:`PipelineServer` on an ephemeral port, print ``{"port": ...}``
   as one JSON line;
2. serve until the parent writes a line to stdin;
3. ``server.stop()`` (graceful drain + end-of-stream flush), then print
   one JSON line with what only this process can know: the emission
   stamps of every detection (``time.monotonic()``, the same clock the
   parent stamps its sends with), the ordered detection keys, CPU and
   RSS of this process, ``server.metrics()`` and -- when traced -- the
   stage histograms.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

# bench/ is this script's sys.path[0]; workloads puts src/ on the path
from workloads import build_q1_pipeline, cpu_seconds, peak_rss_mb, stamping_sink

from repro.obs.instrument import Observability
from repro.serve.server import PipelineServer, ServeConfig


async def serve(traced: bool) -> None:
    pipeline = build_q1_pipeline()
    stamps, keys = [], []
    pipeline.chains[0].emit.subscribe(stamping_sink(stamps, keys))
    obs = Observability() if traced else None
    server = PipelineServer(pipeline, config=ServeConfig(port=0), observability=obs)
    await server.start()
    cpu_ready = cpu_seconds()
    print(json.dumps({"port": server.port}), flush=True)

    # a blocking stdin read on a thread: the loop keeps serving
    await asyncio.get_running_loop().run_in_executor(None, sys.stdin.readline)

    await server.stop()
    report = {
        "stopped_at": time.monotonic(),
        "cpu_s": cpu_seconds() - cpu_ready,
        "rss_mb": peak_rss_mb(),
        "emit_stamps": stamps,
        "keys": keys,
        "metrics": server.metrics(),
        "registry": obs.registry.snapshot() if obs is not None else None,
    }
    print(json.dumps(report), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    asyncio.run(serve(bool(args.trace)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
