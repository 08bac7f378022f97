"""Run one benchmark workload in this process and print its metrics.

    python3 bench/run.py --workload corpus-clean --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/``. The
inputs are generated from the seed, one labelling of the workload's graphs
per pass, and written as edge-list files under ``.bench_work/``, which is
removed again at exit. The run then makes whole passes over its inputs, one
input at a time on one thread, and checks every document. It makes as many
passes as fit in ``--seconds`` at the workload's nominal pass time, and at
least three. A traced run also runs each input traced, right after its
untraced run. An untraced run samples the host's speed with a yardstick
every SPEED_EVERY_S (``speed.py``) and scales the end-to-end times to the
yardstick's nominal speed.

With ``--trace 0`` the last line of output carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of ``BENCHMARK.json``. The line
before it records the environment, the pass and sample counts and a digest
of the document bytes. A failed input shows in the result line, which is
printed with exit status 0; any other exit status means there is no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "cleanfactor" / "__init__.py").is_file():
    sys.exit(f"bench: no library source at {SRC}; run from a full checkout")
sys.path.insert(0, str(SRC))

from pipeline import Outcome, Tracer, layer_metrics, process  # noqa: E402
from speed import Speedometer  # noqa: E402
from workloads import WORKLOADS, Workload, edge_lists, write_edge_lists  # noqa: E402

MIN_PASSES = 3
SETUP_EVERY_S = 2.0
SETUP_BATCH_S = 0.05
SETUP_MIN_SAMPLES = 7
SPEED_EVERY_S = 0.1
WORK_DIR = ROOT / ".bench_work"


@dataclass(frozen=True)
class Pass:
    """One pass over the inputs; when tracing, each input also runs traced, right after.

    ``spans`` holds the start and end of each untraced outcome's run.
    """

    outcomes: list[Outcome]
    spans: list[tuple[float, float]]
    traced: list[Outcome]
    tracer: Tracer | None


FAILED = "failed"


def attempt(path: Path, workload: Workload, tracer: Tracer | None = None) -> Outcome:
    """The input's outcome; a failed one keeps its whole time as decompose time."""
    start = perf_counter()
    try:
        return process(path, workload, tracer)
    except Exception:  # a failing input is counted; the run goes on
        elapsed = perf_counter() - start
        print(f"bench: input {path.name} failed", file=sys.stderr)
        traceback.print_exc()
        return Outcome(digest=FAILED, doc_bytes=0, decompose_s=elapsed, verify_s=0.0)


def run_pass(paths: list[Path], workload: Workload, trace: bool, between: Callable[[], None]) -> Pass:
    tracer = Tracer() if trace else None
    outcomes: list[Outcome] = []
    spans: list[tuple[float, float]] = []
    traced: list[Outcome] = []
    for path in paths:
        between()
        start = perf_counter()
        outcomes.append(attempt(path, workload))
        spans.append((start, perf_counter()))
        if tracer is not None:
            traced.append(attempt(path, workload, tracer))
    return Pass(outcomes, spans, traced, tracer)


def pass_count(workload: Workload, seconds: float) -> int:
    """As many passes as fit in ``seconds`` at the nominal pass time, at least MIN_PASSES."""
    return max(MIN_PASSES, int(seconds // workload.pass_s))


def count_failures(passes: list[Pass], first_alike: list[int]) -> int:
    """Inputs that raised, failed a check, or gave other bytes than untraced in a reference pass.

    The reference of pass ``j`` is pass ``first_alike[j]``, the first pass
    with the same inputs.
    """
    failed = 0
    for p, first in zip(passes, first_alike):
        reference = [o.digest for o in passes[first].outcomes]
        for column in (p.outcomes, p.traced):
            for ref, outcome in zip(reference, column):
                if outcome.digest == FAILED or outcome.digest != ref:
                    failed += 1
    return failed


def scaled(outcome: Outcome, span: tuple[float, float], speed: Speedometer) -> Outcome:
    """The outcome's times, both scaled as its whole span is."""
    factor = speed.scaled(*span) / (span[1] - span[0])
    return replace(outcome, decompose_s=outcome.decompose_s * factor, verify_s=outcome.verify_s * factor)


def end_to_end(passes: list[Pass], setup: Setup, speed: Speedometer) -> dict[str, float]:
    """Per-input medians over the passes, summed or ranked over the inputs.

    Every time is scaled to the yardstick's nominal speed first. A failed
    input counts with the time it took until it failed.
    """
    per_input = list(zip(*([scaled(o, span, speed) for o, span in zip(p.outcomes, p.spans)] for p in passes)))
    totals = [statistics.median(o.total_s for o in column) for column in per_input]
    return {
        "setup_s": statistics.median(speed.scaled(start, end) / count for start, end, count in setup.batches),
        "total_s": sum(totals),
        "decompose_s": sum(statistics.median(o.decompose_s for o in column) for column in per_input),
        "verify_s": sum(statistics.median(o.verify_s for o in column) for column in per_input),
        "input_p50_s": statistics.median(totals),
        "input_max_s": max(totals),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "doc_bytes": sum(column[0].doc_bytes for column in per_input),
    }


def per_layer(passes: list[Pass]) -> dict[str, float]:
    """Layer metrics averaged over the passes, which keeps them additive.

    The overhead compares each pass's traced pipeline time with its
    untraced time; the two runs of an input are back to back.
    """
    rows = []
    for p in passes:
        pipeline_s = sum(o.total_s for o in p.traced)
        row = layer_metrics(p.tracer, pipeline_s)
        row["trace.pipeline_s"] = pipeline_s
        row["trace.overhead_share"] = pipeline_s / sum(o.total_s for o in p.outcomes) - 1
        rows.append(row)
    names = {name for row in rows for name in row}
    return {name: statistics.fmean(row.get(name, 0) for row in rows) for name in names}


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "process": "fresh process per run, one workload, threads=1",
        "threads_alive": threading.active_count(),
    }


class Setup:
    """The run's input files, and the time it takes to make the inputs.

    A set-up generates the inputs of every pass and formats their edge
    lists. The first set-up's text is written to the files that the run
    measures, one directory per pass. While the run measures, ``again``
    times the set-up, without writing, once SETUP_EVERY_S has passed since
    the last batch, so that the samples span the whole run as the measured
    work does. A batch repeats the set-up for SETUP_BATCH_S or at least
    once, so that a set-up of a millisecond or two is not timed only when
    the caches are cold from the input before. ``batches`` holds each
    batch's start, end and number of set-ups; ``end_to_end`` scales each
    batch like the measured work.

    Writing is not timed. Creating a file on the reference VM costs from
    25 µs to 700 µs, in phases of minutes; writing the 500 files of
    ``corpus-clean`` took from 13 ms to 350 ms.
    """

    def __init__(self, workload: Workload, seed: int, passes: int, work: Path) -> None:
        self.workload, self.seed, self.passes = workload, seed, passes
        self.batches: list[tuple[float, float, int]] = []
        texts = edge_lists(workload, seed, passes)
        self.paths = [write_edge_lists(t, work / f"pass{j}") for j, t in enumerate(texts)]
        self.first_alike = [texts.index(t) for t in texts]
        self.again(force=True)

    def again(self, force: bool = False) -> None:
        if not force and perf_counter() - self.last < SETUP_EVERY_S:
            return
        count, start = 0, perf_counter()
        while count == 0 or perf_counter() - start < SETUP_BATCH_S:
            edge_lists(self.workload, self.seed, self.passes)
            count += 1
        self.last = perf_counter()
        self.batches.append((start, self.last, count))


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one cleanfactor benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="0 gives the reference inputs")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    speed = Speedometer(SPEED_EVERY_S)
    try:
        if not args.trace:
            speed.start()
        count = pass_count(workload, args.seconds or spec["run_seconds"])
        setup = Setup(workload, args.seed, count, work)
        passes = [run_pass(paths, workload, bool(args.trace), setup.again) for paths in setup.paths]
        while len(setup.batches) < SETUP_MIN_SAMPLES:
            setup.again(force=True)
    finally:
        if not args.trace:
            speed.stop()
        shutil.rmtree(work)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run still uses it
            pass

    failed = count_failures(passes, setup.first_alike)
    inputs = len(setup.paths[0])
    attempted = inputs * len(passes) * (2 if args.trace else 1)
    if args.trace:
        values, declared = per_layer(passes), spec["per_layer"]
    else:
        values, declared = end_to_end(passes, setup, speed), spec["end_to_end"]
    # a layer that never runs on this workload did no work there
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in declared}

    digest = hashlib.sha256()
    for outcome in passes[0].outcomes:
        digest.update(outcome.digest.encode("ascii"))
    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "trace": args.trace,
                "passes": len(passes),
                "inputs": inputs,
                "samples": {"input_p50_s": inputs, "input_max_s": inputs, "setup_s": len(setup.batches),
                            "yardstick": len(speed.times)},
                "doc_digest": digest.hexdigest(),
                "yardstick_median_s": statistics.median(speed.times) if speed.times else None,
                "wall_total_s": sum(sum(o.total_s for o in p.outcomes) for p in passes) / len(passes),
                "environment": environment(),
            },
            sort_keys=True,
        )
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
