"""gridground benchmark: one seeded, single-process, closed-loop workload per run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload suite_bundled --seed 1 --seconds 40 --trace 0

One client runs ops back to back (the next starts when the previous one
returns) for ``--seconds``. With ``--trace 0`` the run prints the
end-to-end metrics; with ``--trace 1`` it runs the same ops untraced and
then traced, and prints the per-layer metrics. Either way it checks the
program's outputs, prints a human-readable report, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
when every check passed. See perfbench/README.md for the design.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from harness import Digest, Tracer, host_probe, host_speed, p50, p90  # imports no gridground

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# Every time in the end-to-end metrics is scaled to the host speed at which
# harness.host_probe() takes this long (about the middle of what it took on
# the shared 2-vCPU, 2.0 GHz machine the benchmark was built on). There,
# other tenants slowed identical work by up to 1.5x in stretches of 5-30 s,
# which moved whole-run figures of one seed by up to a third; the probe,
# timed on either side of each op, tracks that speed (see README.md).
REF_PROBE_S = 700e-6
WORKLOADS = ("suite_bundled", "dynamic_grid", "chat_cassette")
END_TO_END = [
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program():
    """Import gridground from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "gridground" / "__init__.py").is_file():
        raise SystemExit(f"error: no gridground sources under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import gridground

    if Path(gridground.__file__).resolve().parent != (src / "gridground").resolve():
        raise SystemExit(f"error: imported gridground from {gridground.__file__}, not from {src}")


IMPORT_ONLY = "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); import gridground; " \
              "print(time.perf_counter() - t)"


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import gridground from this checkout's src/."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_ONLY, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def make_workload(name: str, seed: int):
    if name == "suite_bundled":
        from workload_suite import SuiteBundled

        return SuiteBundled(seed)
    if name == "dynamic_grid":
        from workload_dynamic import DynamicGrid

        return DynamicGrid(seed)
    from workload_chat import ChatCassette

    return ChatCassette(seed)


def timed_loop(w, seconds: float | None, tracer=None, rec=None, count: int | None = None):
    """Run ops back to back; probe the host's speed between them."""
    results = []
    t_end = time.perf_counter() + (seconds or 0.0)
    i = 0
    before = host_probe()
    while (count is None and time.perf_counter() < t_end) or (count is not None and i < count):
        if rec is not None:
            rec.op = i
        r = w.op(i, tracer)
        after = host_probe()
        r.probe = (before + after) / 2
        before = after
        results.append(r)
        i += 1
    return results


def scaled(seconds: float, probe: float) -> float:
    """``seconds`` at the reference host speed (the probe taking REF_PROBE_S)."""
    return seconds * REF_PROBE_S / probe


def trials_per_s(results) -> float:
    return sum(r.trials for r in results) / sum(scaled(r.seconds, r.probe) for r in results)


def reference_digest(w, by_key: dict) -> str:
    d = Digest()
    for i in w.check_keys():
        d.add(w.key(i), by_key[w.key(i)])
    for label, data in w.reference_parts():
        d.add(label, data)
    return d.hexdigest()


def run(args) -> int:
    import_program()
    import layers

    RUNS_DIR.mkdir(exist_ok=True)
    run_dir = RUNS_DIR / f"{args.workload}-s{args.seed}-{os.getpid()}"
    errors: list[str] = []
    try:
        # each set-up: a fresh interpreter's import of gridground, then the
        # workload's input generation, file writes, parsing and recording
        setup_times, import_times = [], []
        for k in range(SETUP_REPEATS):
            w = make_workload(args.workload, args.seed)
            before = host_speed()
            t_import = import_seconds()
            t0 = time.perf_counter()
            w.setup(run_dir / f"setup{k}")
            t_setup = time.perf_counter() - t0
            speed = (before + host_speed()) / 2
            import_times.append(scaled(t_import, speed))
            setup_times.append(scaled(t_import + t_setup, speed))
        setup_s = statistics.median(setup_times)

        tracer = rec = None
        if args.trace:
            untraced = timed_loop(w, args.seconds / 2)
            tracer, rec = Tracer(), layers.Recorder()
            w.start_trace(tracer, rec)
            traced = timed_loop(w, None, tracer, rec, count=len(untraced))
            results = untraced + traced
        else:
            untraced = results = timed_loop(w, args.seconds)
            traced = []
        measured = untraced

        per_layer = None
        if args.trace:
            per_layer = layers.empty_metrics()
            w.layer_metrics(per_layer, tracer, rec, traced)
            rate_u = trials_per_s(untraced)
            rate_t = trials_per_s(traced)
            per_layer["trace.overhead_frac"] = 1.0 - rate_t / rate_u
            tracer.write(RUNS_DIR / f"spans-{args.workload}-s{args.seed}.jsonl")

        # every input seen twice must give the same outputs; the check keys
        # (the inputs the reference digest covers) are always seen twice
        by_key: dict[str, str] = {}
        seen: dict[str, int] = {}
        for r in results:
            seen[r.key] = seen.get(r.key, 0) + 1
        extra = []
        for i in w.check_keys():
            if seen.get(w.key(i), 0) < 2:
                extra.append(w.op(i, None))
        for r in results + extra:
            errors.extend(r.errors)
            if r.failed or not r.digest:
                continue
            if by_key.setdefault(r.key, r.digest) != r.digest:
                errors.append(f"{r.key}: two passes over the same input gave different outputs")
        ref = None
        if all(w.key(i) in by_key for i in w.check_keys()):
            ref = reference_digest(w, by_key)
            if args.seed == DEFAULT_SEED:
                stored = json.loads((HERE / "references.json").read_text(encoding="utf-8")).get(args.workload)
                if stored != ref:
                    errors.append(f"reference digest mismatch for seed {args.seed}: stored {stored}, got {ref}")
        else:
            errors.append("some check inputs produced no output")

        attempted = len(measured)
        failed = sum(1 for r in measured if r.failed)
        op_ms = [scaled(r.seconds, r.probe) * 1e3 for r in measured]
        end_to_end = {
            "setup_s": setup_s,
            "trials_per_s": trials_per_s(measured),
            "op_ms_p50": p50(op_ms),
            "op_ms_p90": p90(op_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report(args, w, measured, end_to_end, per_layer, setup_times, import_times, failed, ref, errors)
        metrics_out = per_layer if args.trace else end_to_end
        units = dict(layers.PER_LAYER if args.trace else END_TO_END)
        correct = not errors
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics_out.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, w, measured, e2e, per_layer, setup_times, import_times, failed, ref, errors) -> None:
    n = len(measured)
    trials = sum(r.trials for r in measured)
    raw_s = sum(r.seconds for r in measured)
    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}  seed {args.seed}  {mode}  {n} ops, {trials} trials, "
          f"{raw_s:.1f} s of op time, host probe median {p50([r.probe for r in measured]) * 1e6:.0f} us "
          f"(times below are scaled to {REF_PROBE_S * 1e6:.0f} us)")
    if not args.trace:
        raw_ms = [r.seconds * 1e3 for r in measured]
        print(f"  {'metric':<18}{'value':>14}  {'unit':<6} samples")
        samples = {
            "setup_s": f"median of {len(setup_times)} set-ups "
                       f"({', '.join(f'{t:.3f}' for t in setup_times)}; import "
                       f"{', '.join(f'{t:.3f}' for t in import_times)})",
            "trials_per_s": f"{trials} trials in {n} ops (raw {trials / raw_s:.4f})",
            "op_ms_p50": f"{n} ops (raw {p50(raw_ms):.4f})",
            "op_ms_p90": f"{n} ops, {sum(1 for r in measured if scaled(r.seconds, r.probe) * 1e3 > e2e['op_ms_p90'])}"
                         f" above (raw {p90(raw_ms):.4f})",
            "peak_rss_mb": "1 process",
        }
        for name, unit in END_TO_END:
            print(f"  {name:<18}{e2e[name]:>14.4f}  {unit:<6} {samples[name]}")
        print(f"  {'failed_frac':<18}{failed / n if n else 0.0:>14.4f}  {'frac':<6} {failed}/{n} ops")
        exchanges = sum(r.exchanges for r in measured)
        if exchanges:
            rate = exchanges / sum(scaled(r.seconds, r.probe) for r in measured)
            print(f"  {'exchanges_per_s':<18}{rate:>14.4f}  {'1/s':<6} {exchanges} exchanges")
    else:
        import layers

        for name, unit in layers.PER_LAYER:
            print(f"  {name:<30}{per_layer[name]:>14.4f}  {unit}")
        print("what this workload stresses (traced ops):")
        for line in w.stress:
            print(f"  {line}")
    print("traffic:")
    for k, v in w.traffic().items():
        print(f"  {k}: {v}")
    print(f"reference digest (seed {args.seed}): {ref}")
    if errors:
        print(f"correctness: FAIL ({len(errors)} problems)")
        for e in errors[:20]:
            print(f"  {e}")
    else:
        print("correctness: ok")


def main(argv=None) -> int:
    return run(parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
