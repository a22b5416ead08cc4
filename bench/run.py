"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload census --seed 1 --seconds 35 --trace 0

The package is imported from the ``src`` directory next to ``bench``.

With ``--trace 0`` the closed loop (one client, one process) runs every unit
of the workload once and keeps cycling until ``--seconds`` have passed, then
reports the end-to-end metrics.  Between units it starts a fresh interpreter
SETUP_SAMPLES times, spread over the run, to time set-up.  Every unit and
set-up sample is timed between two calibration bursts and scaled to the
nominal machine speed (see calibration.py); the unscaled times are printed
too.

With ``--trace 1`` it takes SETUP_SAMPLES set-up samples, then runs every
unit once untraced and once with layer spans installed, back to back, checks
that both passes give identical verdicts, and reports the per-layer metrics.
When an earlier traced run of the same inputs and source left its result in
``bench/out``, the exact counters must repeat bit for bit.

Every metric is printed as ``name value unit``; the last line is one JSON
object.  Result, manifest and span files go to ``bench/out``.  The exit code
is 0 only when every verdict matches its reference.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import monotonic, perf_counter

import calibration
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_SAMPLES = 7
TAIL_BEYOND = 10


def import_package():
    """Import the package from SRC and nowhere else."""
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(spans.PACKAGE)
    if SRC not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"{spans.PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return pkg


# A child interpreter that imports the package and generates the inputs. It
# prints the monotonic clock, which Linux shares between processes, before
# and after the package import and after the generation.
SETUP_CHILD = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import run; t0 = time.monotonic(); "
    "run.import_package(); t1 = time.monotonic(); "
    "run.workloads.WORKLOADS[sys.argv[2]].generate(int(sys.argv[3])); "
    "print(t0, t1, time.monotonic())"
)


def setup_sample(name, seed, scale) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to the end of its set-up, and
    the part of them spent importing the package, both scaled to the
    nominal machine speed by the calibration bursts around the sample."""
    before = scale.before()
    start = monotonic()
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(BENCH), name, str(seed)],
        capture_output=True, text=True, check=True,
    )
    after = scale.after()
    t0, t1, done = map(float, child.stdout.split()[-3:])
    return (
        calibration.scaled(done - start, before, after),
        calibration.scaled(t1 - t0, before, after),
    )


def source_digest() -> str:
    """Digest of the package's and the benchmark's source files, to tell code
    versions apart."""
    h = hashlib.sha256()
    for path in sorted((SRC / spans.PACKAGE).glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def counters_drift(previous, digest, source, metrics) -> list[str]:
    """Exact counters that differ from an earlier traced run of the same
    inputs and the same source."""
    if not previous.exists():
        return []
    old = json.loads(previous.read_text())
    if old.get("digest") != digest or old.get("source") != source:
        return []
    return [
        k for k in spans.EXACT_COUNTERS if old["metrics"][k]["value"] != metrics[k][0]
    ]


def write_manifest(name, seed, units) -> str:
    """Record the inputs of (workload, seed) and return their digest.
    compare.py refuses to compare runs whose digests differ."""
    digest = workloads.input_digest(units)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"manifest-{name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": name, "seed": seed, "digest": digest,
                                "units": workloads.plain(units)}))
    return digest


class Pass:
    """Outcome of running units: per-unit scaled and raw times, fingerprints
    and failures."""

    def __init__(self, n, scale):
        self.scale = scale
        self.times = [[] for _ in range(n)]
        self.raw = [[] for _ in range(n)]
        self.fingerprints = [None] * n
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run_unit(self, workload, pkg, units, i, tracer=None):
        self.attempted += 1
        before = self.scale.before()
        span = tracer.open("unit") if tracer else None
        t0 = perf_counter()
        try:
            verdict = workload.run(pkg, units[i])
        except Exception:  # a unit that raises is counted, the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        finally:
            dt = perf_counter() - t0
            if span:
                tracer.close(span)
            after = self.scale.after()
        self.times[i].append(calibration.scaled(dt, before, after))
        self.raw[i].append(dt)
        problems, fp = workload.check(units[i], verdict)
        if self.fingerprints[i] not in (None, fp):
            problems.append("verdict differs from this unit's earlier verdict")
        self.fingerprints[i] = fp
        if problems:
            self.wrong += 1
            print(f"wrong verdict on unit {i} {units[i]['cells']}: {problems}", file=sys.stderr)

    def end_to_end(self, setup_s):
        means = sorted(statistics.fmean(t) for t in self.times if t)
        raw = [statistics.fmean(t) for t in self.raw if t]
        index = max(len(means) - TAIL_BEYOND - 1, 0)
        return {
            "setup_s": (setup_s, "s"),
            "verdicts_per_s": (len(means) / sum(means) if means else 0.0, "1/s"),
            "verdict_p50_s": (statistics.median(means) if means else 0.0, "s"),
            "verdict_tail_s": (means[index] if means else 0.0, "s"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }, {
            "tail_percentile": 100.0 * (index + 1) / len(means) if means else 0.0,
            "samples": len(means),
            "executions": sum(len(t) for t in self.times),
            "raw_verdicts_per_s": len(raw) / sum(raw) if raw else 0.0,
            "raw_verdict_p50_s": statistics.median(raw) if raw else 0.0,
            "burst_median_s": statistics.median(self.scale.bursts),
        }


def closed_loop(workload, pkg, units, seconds, sample_setup):
    """Every unit once, then keep cycling until the deadline.

    The SETUP_SAMPLES set-up samples are taken between units, spread evenly
    over the run.  Returns the pass and the median set-up time.
    """
    scale = calibration.Scale()
    result = Pass(len(units), scale)
    setups = []
    start = perf_counter()
    deadline = start + seconds
    k = 0
    while k < len(units) or perf_counter() < deadline:
        if perf_counter() >= start + len(setups) * seconds / SETUP_SAMPLES:
            setups.append(sample_setup(scale)[0])
        result.run_unit(workload, pkg, units, k % len(units))
        k += 1
    while len(setups) < SETUP_SAMPLES:
        setups.append(sample_setup(scale)[0])
    return result, statistics.median(setups)


def traced_passes(workload, pkg, units, out_name, sample_setup):
    """SETUP_SAMPLES set-up samples, then each unit untraced and traced, back
    to back in alternating order, so that both passes see the same machine
    conditions.  Returns both passes, the median set-up time, the number of
    units whose verdicts differ and the per-layer metrics."""
    scale = calibration.Scale()
    setups = [sample_setup(scale) for _ in range(SETUP_SAMPLES)]
    plain = Pass(len(units), scale)
    traced = Pass(len(units), scale)
    tracer = spans.Tracer()

    def run_traced(i):
        undo = spans.install(tracer)
        try:
            traced.run_unit(workload, pkg, units, i, tracer)
        finally:
            spans.uninstall(undo)

    for i in range(len(units)):
        if i % 2:
            run_traced(i)
        plain.run_unit(workload, pkg, units, i)
        if not i % 2:
            run_traced(i)
    mismatched = sum(a != b for a, b in zip(plain.fingerprints, traced.fingerprints))
    if mismatched:
        print(f"{mismatched} units gave different verdicts traced and untraced", file=sys.stderr)
    metrics = spans.layer_metrics(tracer)
    # Raw seconds, like the span times.
    overhead = sum(sum(t) for t in traced.raw) - sum(sum(t) for t in plain.raw)
    metrics["tracing_overhead_s"] = (overhead, "s")
    metrics["setup.package_import_s"] = (statistics.median(i for _, i in setups), "s")
    spans.write_spans(tracer, OUT / f"spans-{out_name}.jsonl")
    setup_s = statistics.median(total for total, _ in setups)
    return plain, traced, setup_s, mismatched, metrics


def print_metrics(metrics):
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    try:
        pkg = import_package()
    except ImportError as exc:
        print(f"cannot import the package under test: {exc}", file=sys.stderr)
        return 2
    units = workload.generate(args.seed)
    digest = write_manifest(args.workload, args.seed, units)
    sample_setup = functools.partial(setup_sample, args.workload, args.seed)
    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload} seed {args.seed} units {len(units)} inputs {digest}")

    source = source_digest()
    result_path = OUT / f"result-{run_name}.json"
    if args.trace:
        plain, traced, setup_s, mismatched, metrics = traced_passes(
            workload, pkg, units, f"{args.workload}-seed{args.seed}", sample_setup
        )
        e2e, info = plain.end_to_end(setup_s)
        attempted = plain.attempted + traced.attempted
        failed = plain.failed + traced.failed
        wrong = plain.wrong + traced.wrong + mismatched
        drift = counters_drift(result_path, digest, source, metrics)
        if drift:
            print(f"exact counters differ from {result_path}: {drift}", file=sys.stderr)
            wrong += 1
    else:
        loop, setup_s = closed_loop(workload, pkg, units, args.seconds, sample_setup)
        e2e, info = loop.end_to_end(setup_s)
        metrics = e2e
        attempted, failed, wrong = loop.attempted, loop.failed, loop.wrong

    print_metrics(e2e)
    print(f"wrong_verdicts {wrong} count")
    print(f"failed_share {failed / attempted} ratio")
    print(f"verdict_tail_s is p{info['tail_percentile']:.1f} of {info['samples']} "
          f"per-unit mean times ({info['executions']} executions)")
    print(f"times are scaled to a {calibration.NOMINAL_S} s calibration burst; the bursts' "
          f"median was {info['burst_median_s']:.6f} s; unscaled, verdicts_per_s "
          f"{info['raw_verdicts_per_s']:.6f} and verdict_p50_s {info['raw_verdict_p50_s']:.6f}")
    if args.trace:
        print_metrics(metrics)

    correct = wrong == 0 and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "digest": digest,
         "source": source, "info": info, "wrong_verdicts": wrong,
         "failed_share": failed / attempted, **result}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
