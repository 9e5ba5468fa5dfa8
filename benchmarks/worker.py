"""Child processes of the benchmark.

    python3 benchmarks/worker.py setup <workload> <seed> <quick>
    python3 benchmarks/worker.py jobs <workload> <seed> <quick>

``setup`` imports ``limsupdim.cli`` and builds the workload's inputs, then
exits; run.py times it from spawn to exit.

``jobs`` builds the inputs once and then serves commands, one per stdin line,
answering each with one JSON line on stdout, until stdin closes:

* ``round``: run every operation once, untraced;
* ``traced``: the same under the span tracer, then the workload's CLI
  command in process through ``cli.run``;
* ``peak``: a traced round that takes only the tracemalloc peaks.

run.py runs its setup probes and CLI runs between rounds, so that every
metric samples the whole run, while this process stays idle.
"""

from __future__ import annotations

import json
import math
import sys
import time

import numpy as np

# Ops run in chunks of at least this many seconds between two timings of
# the reference kernel; each op is paired with the mean of the two.
CHUNK_S = 0.25
_KERNEL_INPUT = np.random.default_rng(0).random(300_000)


def reference_kernel() -> float:
    """Seconds to sum the logs of a fixed array: numpy and ``math.fsum``,
    none of this repository's code, about 0.025 s on a calm machine."""
    start = time.perf_counter()
    math.fsum(np.log(_KERNEL_INPUT))
    return time.perf_counter() - start


def run_round(workload) -> dict:
    """Every op once: per-op seconds, per-op digests and failure reasons,
    and for each op the reference kernel's seconds around its chunk."""
    times, kernel, digests, failures = [], [], [], []
    before, chunk_start = reference_kernel(), 0
    for op in workload.ops:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # a raising op is a failed op, not a crash
            times.append(time.perf_counter() - start)
            digests.append(f"{op.name}: raised {type(exc).__name__}")
            failures.append(f"{op.name}: raised {exc!r}")
        else:
            times.append(time.perf_counter() - start)
            digests.append(f"{op.name}: {op.digest(out)}")
            reason = op.check(out)
            if reason is not None:
                failures.append(f"{op.name}: {reason}")
        if sum(times[chunk_start:]) >= CHUNK_S or len(times) == len(workload.ops):
            after = reference_kernel()
            kernel.extend([0.5 * (before + after)] * (len(times) - chunk_start))
            before, chunk_start = after, len(times)
    return {"times": times, "kernel": kernel, "digests": digests, "failures": failures}


def cli_in_process(workloads, workload, out: str) -> str:
    """Run the workload's CLI command through ``cli.run`` and return the text
    its files would hold (CSV, then the manifest without wall clock)."""
    from limsupdim import cli

    outcome = cli.run(workloads.run_config(workload.cli, out))
    return outcome.csv + "\n" + workloads.manifest_text(outcome.manifest.to_json())


def serve(name: str, seed: int, quick: bool) -> None:
    import workloads

    workload = workloads.build(name, seed, quick)
    tracer = None
    for command in sys.stdin:
        command = command.strip()
        if command != "round" and tracer is None:
            from layers import Tracer

            tracer = Tracer()
            tracer.install()
        if tracer is not None:
            tracer.reset()
            tracer.peak_round = command == "peak"
        reply = run_round(workload)
        if command != "round":
            reply["cli_text"] = cli_in_process(workloads, workload, "out")
            reply["layers"] = tracer.round_metrics()
        print(json.dumps(reply), flush=True)
    if tracer is not None:
        tracer.uninstall()


def main(argv: list[str]) -> int:
    role, name, seed, quick = argv[0], argv[1], int(argv[2]), argv[3] == "1"
    if role == "setup":
        import limsupdim.cli  # noqa: F401  (the import is what is timed)
        import workloads

        workloads.build(name, seed, quick)
    else:
        serve(name, seed, quick)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
