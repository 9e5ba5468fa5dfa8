#!/usr/bin/env python3
"""Benchmark of limsupdim: one workload per run, one fresh process per role.

    python3 benchmarks/run.py --workload verdict --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30

Run it from the root of a source tree (``src/limsupdim`` next to
``BENCHMARK.json``); the package is put on ``PYTHONPATH``, not installed.
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` its per-layer metrics.  The line
before it records the environment.  ``--workload all`` runs each workload in
turn and prints a table instead.  ``LAYERS.md`` says what each metric
measures and which workload should move it.

An untraced run repeats, until ``--seconds`` have passed (and at least
``MIN_ROUNDS`` times): a reference probe, a setup probe and a CLI run; one
round of the library operations in the jobs worker; again a reference
probe, a setup probe and a CLI run.  Interleaving spreads every metric's
samples over the whole run.  On a shared machine other tenants slow
everything down, in spells of seconds and in stretches of minutes, so each
time sample is divided by a reference time taken just before it, and each
timing is the median of those ratios times a nominal reference time.  Each
setup probe and CLI run is paired with the reference probe before it: a
fresh interpreter importing numpy and click (``REFERENCE``, nominal
``REFERENCE_S``).  Each library operation is paired with the in-process
reference kernel timed on both sides of it (``worker.reference_kernel``,
nominal ``KERNEL_S``).  Neither reference runs this repository's code, and
both slow down with the samples next to them, so the ratios cancel the
machine's slow spells.  ``LAYERS.md`` gives the spreads that decided this.

  setup_s      spawn-to-exit time of fresh interpreters that import
               ``limsupdim.cli`` and build the workload's inputs
  wall_s       sum over operations of each one's median across rounds
  cli_s        wall time of ``python -m limsupdim.cli ... --out``
  peak_rss_mb  peak resident memory of the jobs worker, from its own rusage

The three times are reported scaled, in seconds at the nominal reference
speed; the environment line carries the unscaled medians and the median
reference times, and the raw samples go to stderr as one JSON line.

``attempted`` counts the operations run (every op of every round, and each
CLI run); ``failed`` those that raised, failed the benchmark's own oracle,
or did not replay identically.

Scratch files go to ``.bench_work/`` under the root.  Output digests per
(workload, seed, code) are kept in ``.bench_work/replay/``, so a later run
with the same seed, traced or not, must reproduce them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("verdict", "mc-tables", "cantor-covers")
MIN_ROUNDS = 3
IMPORT_PROBES = 5
# Nominal times of the reference probe and of the reference kernel: the
# scaled times read as seconds on a machine where they take this long
# (about the fastest they ran in a calm spell on a 2-vCPU Xeon VM with
# Python 3.11.7 and numpy 2.4.6).
REFERENCE = ["-c", "import numpy, click"]
REFERENCE_S = 0.13
KERNEL_S = 0.025


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def timed(cmd: list[str], **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, **kwargs)
    return time.perf_counter() - start, proc


class Worker:
    """The persistent jobs worker (``worker.py jobs``), one command per round."""

    def __init__(self, name: str, seed: int, quick: bool, env: dict):
        cmd = [sys.executable, str(HERE / "worker.py"), "jobs", name, str(seed),
               str(int(quick))]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"jobs worker ended during {command!r}")
        return json.loads(line)

    def close(self) -> float:
        """Let the worker exit; return its own peak RSS in MB."""
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise RuntimeError(f"jobs worker exited with {self.proc.returncode}")
        return usage.ru_maxrss / 1024.0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def reference_probe(env: dict) -> float:
    elapsed, proc = timed([sys.executable] + REFERENCE, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"reference probe failed:\n{proc.stderr}")
    return elapsed


def setup_probe(name: str, seed: int, quick: bool, env: dict) -> float:
    cmd = [sys.executable, str(HERE / "worker.py"), "setup", name, str(seed),
           str(int(quick))]
    elapsed, proc = timed(cmd, env=env, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
    return elapsed


def cli_run(job, env: dict, work: Path) -> tuple[float, str, str | None]:
    """Wall time, output text and failure reason (or None) of one CLI run,
    writing into a fresh ``out`` directory under ``work``."""
    from workloads import manifest_text

    cmd = [sys.executable, "-m", "limsupdim.cli"] + job.args + ["--out", "out"]
    shutil.rmtree(work / "out", ignore_errors=True)
    elapsed, proc = timed(cmd, env=env, cwd=work)
    try:
        csv_text = (work / "out" / job.csv_name).read_bytes().decode("utf-8")
        line = (work / "out" / "manifest.jsonl").read_bytes().decode("utf-8")
    except OSError as exc:
        return elapsed, "", f"cli: no output ({exc}); stderr: {proc.stderr.strip()}"
    reason = job.check(proc.returncode, csv_text, json.loads(line))
    return elapsed, csv_text + "\n" + manifest_text(line), reason and f"cli: {reason}"


def import_times(env: dict, n: int) -> tuple[float, float]:
    """Medians of (limsupdim's own import time, numpy + click import time)
    from ``python -X importtime -c 'import limsupdim.cli'``."""
    own, deps = [], []
    for _ in range(n):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import limsupdim.cli"],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              check=True)
        total = dep = 0.0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            cumulative, module = int(parts[1]) * 1e-6, parts[2].strip()
            if module == "limsupdim.cli" and not parts[2].startswith("  "):
                total = cumulative
            elif module in ("numpy", "click"):
                dep += cumulative
        own.append(total - dep)
        deps.append(dep)
    return statistics.median(own), statistics.median(deps)


def tree_hash(*dirs: Path) -> str:
    """sha256 over the paths and bytes of the .py files under ``dirs``."""
    digest = hashlib.sha256()
    for top in dirs:
        for path in sorted(top.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "commit": commit,
        "src_sha256": tree_hash(SRC),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def replay_check(name: str, seed: int, quick: bool, digests: dict) -> str | None:
    """Compare output digests with the first run of this (workload, seed) on
    the same library and benchmark code, recording them if this is the
    first."""
    code = tree_hash(SRC, HERE)[:16]
    path = WORK / "replay" / f"{name}-{seed}{'-quick' if quick else ''}-{code}.json"
    if path.exists():
        recorded = json.loads(path.read_text(encoding="utf-8"))
        if recorded != digests:
            return f"replay: digests {digests} differ from recorded {recorded}"
        return None
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digests, sort_keys=True), encoding="utf-8")
    return None


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Tally:
    """Operations attempted and failed, with the distinct failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, failures: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(failures)
        self.reasons.extend(r for r in failures if r not in self.reasons)

    def rounds(self, replies: list[dict]) -> None:
        """Count the ops of worker rounds; an op whose output digest differs
        from the first round's is a failed op."""
        first = replies[0]["digests"]
        for reply in replies:
            mismatched = [f"replay: {d.split(':')[0]} differs between rounds"
                          for d, f in zip(reply["digests"], first) if d != f]
            self.add(len(reply["digests"]), reply["failures"] + mismatched)


def _median_ops(replies: list[dict], key: str = "times") -> float:
    """Sum over operations of each one's median ``key`` value across rounds."""
    return sum(statistics.median(times) for times in zip(*(r[key] for r in replies)))


def _median_ratio(samples: list[float], refs: list[float]) -> float:
    return statistics.median(s / r for s, r in zip(samples, refs))


def run_untraced(name: str, seed: int, seconds: float, quick: bool, env: dict,
                 work: Path, tally: Tally, job) -> tuple[dict, list[dict], str, dict]:
    setup_probe(name, seed, quick, env)  # writes bytecode caches; not counted
    refs, setups, replies, cli_times, texts = [], [], [], [], []

    def setup_and_cli():
        refs.append(reference_probe(env))
        setups.append(setup_probe(name, seed, quick, env))
        elapsed, text, reason = cli_run(job, env, work)
        cli_times.append(elapsed)
        texts.append(text)
        tally.add(1, [reason] if reason else [])

    with Worker(name, seed, quick, env) as worker:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(replies) < MIN_ROUNDS:
            setup_and_cli()
            replies.append(worker.ask("round"))
            setup_and_cli()
        peak_mb = worker.close()
    print(json.dumps({"samples": {"reference_s": refs, "setup_s": setups,
                                  "cli_s": cli_times,
                                  "op_s": [r["times"] for r in replies],
                                  "kernel_s": [r["kernel"] for r in replies]}}),
          file=sys.stderr)
    if len(set(texts)) != 1:
        tally.add(0, ["cli: outputs differ between runs of one seed"])
    for reply in replies:
        reply["ratios"] = [t / k for t, k in zip(reply["times"], reply["kernel"])]
    values = {"setup_s": REFERENCE_S * _median_ratio(setups, refs),
              "wall_s": KERNEL_S * _median_ops(replies, "ratios"),
              "cli_s": REFERENCE_S * _median_ratio(cli_times, refs),
              "peak_rss_mb": peak_mb}
    raw = {"setup_s": statistics.median(setups), "wall_s": _median_ops(replies),
           "cli_s": statistics.median(cli_times)}
    kernel = statistics.median(k for r in replies for k in r["kernel"])
    return values, replies, texts[0], {"reference_s": statistics.median(refs),
                                       "kernel_s": kernel, "unscaled": raw}


def run_traced(name: str, seed: int, seconds: float, quick: bool, env: dict,
               work: Path, tally: Tally, job) -> tuple[dict, list[dict], str, dict]:
    own, deps = import_times(env, 1 if quick else IMPORT_PROBES)
    with Worker(name, seed, quick, env) as worker:
        untraced = [worker.ask("round") for _ in range(2)]
        traced = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(traced) < 2:
            traced.append(worker.ask("traced"))
        peak = worker.ask("peak")
        worker.close()
    replies = untraced + traced + [peak]
    _, text, reason = cli_run(job, env, work)
    tally.add(1, [reason] if reason else [])
    if {r["cli_text"] for r in traced + [peak]} != {text}:
        tally.add(0, ["cli: in-process cli.run output differs from the CLI's"])
    values = {k: statistics.median(r["layers"][k] for r in traced)
              for k in traced[0]["layers"]}
    values.update({k: v for k, v in peak["layers"].items() if k.endswith(".peak_mb")})
    values.update({"cli.import.s": own, "cli.import.deps_s": deps})
    untraced_s, traced_s = _median_ops(untraced), _median_ops(traced)
    print(f"tracing overhead: {traced_s - untraced_s:+.4f} s per round "
          f"({traced_s:.4f} traced vs {untraced_s:.4f} untraced, median ops)",
          file=sys.stderr)
    return values, replies, text, {}


def run_one(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    import workloads

    env = child_env()
    job = workloads.build(name, seed, quick).cli
    tally = Tally()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if trace else run_untraced
        values, replies, cli_text, timing = run(name, seed, seconds, quick, env, work,
                                                tally, job)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally.rounds(replies)
    digest = workloads.sha256("\n".join(replies[0]["digests"]))
    reason = replay_check(name, seed, quick, {"library": digest, "cli": workloads.sha256(cli_text)})
    tally.add(0, [reason] if reason else [])
    for reason in tally.reasons[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    units = declared_metrics(trace)
    print(json.dumps({"env": dict(environment(), workload=name, seed=seed,
                                  trace=int(trace), rounds=len(replies),
                                  ops_per_round=len(replies[0]["digests"]),
                                  digest=digest, **timing)}))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}


def run_all(args) -> int:
    """Each workload in its own run of this script, then one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    width = max(len(k) for _, res in rows for k in res["metrics"]) + 2
    print(f"{'metric':{width}s}" + "".join(f"{name:>16s}" for name, _ in rows))
    for key, first in rows[0][1]["metrics"].items():
        print(f"{key:{width}s}" + "".join(
            f"{res['metrics'][key]['value']:16.6g}" for _, res in rows) + f"  {first['unit']}")
    for key, field in (("ops", "attempted"), ("ops_failed", "failed")):
        print(f"{key:{width}s}" + "".join(f"{res[field]:16d}" for _, res in rows)
              + "  count")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the benchmark's self-tests")
    args = parser.parse_args()
    if not (SRC / "limsupdim" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no limsupdim source tree at {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    print(json.dumps(run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.quick)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
