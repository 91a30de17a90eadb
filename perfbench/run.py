"""claimtree benchmark: four workloads, end-to-end metrics and a layer trace.

Run one workload:

    python3 perfbench/run.py --workload paper_enet --seed 7 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs untraced and traced
passes in pairs and reports the per-layer metrics. Lines before it start
with ``#`` and hold the environment and every check. The full record of a
run, with the spans of a traced run, goes to ``perfbench/out/``.

Run every workload, each in its own process, and print a table:

    python3 perfbench/run.py --workload all [--smoke] [--trace 1]

``--smoke`` shrinks every input so that all workloads, checks and the
traced pass finish in seconds. ``--record-reference`` rewrites the
workload's stored seed-7 outputs in perfbench/reference.json; use it only
when a change alters the outputs on purpose.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# Pinned before numpy loads so that every workload times one BLAS thread.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
WORKLOAD_NAMES = ("paper_enet", "tune_ols", "cli_scale", "score")
SETUP_REPEATS = 3

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB")]


def import_package():
    """Import claimtree from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "claimtree" / "__init__.py").is_file():
        sys.exit(f"perfbench: no claimtree package under {src}")
    sys.path.insert(0, str(src))
    import claimtree

    if Path(claimtree.__file__).resolve().parent != src / "claimtree":
        sys.exit(f"perfbench: imported claimtree from {claimtree.__file__}, not {src}")


def _git(*args):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "--no-optional-locks", *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit or "unknown",
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
    }


def load_reference(mode: str, name: str):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(mode, {}).get(name)


def save_reference(mode: str, name: str, ref: dict) -> None:
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    refs.setdefault(mode, {})[name] = ref
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


@dataclass
class Passes:
    results: list = field(default_factory=list)
    times: list = field(default_factory=list)    # raw seconds
    scales: list = field(default_factory=list)   # speed.scale of each pass
    traced: list = field(default_factory=list)
    traced_times: list = field(default_factory=list)
    crash: str | None = None


def timed_passes(w, seconds, tracer=None) -> Passes:
    """Run passes until ``seconds`` have passed, at least one, each timed
    between two calibrations. With a tracer, each untraced pass is followed
    by a traced pass."""
    out = Passes()
    start = time.perf_counter()
    before = speed.calibrate()
    try:
        while True:
            t = time.perf_counter()
            products = w.run()
            out.times.append(time.perf_counter() - t)
            after = speed.calibrate()
            out.scales.append(speed.scale(before, after))
            out.results.append(w.inspect(products))
            if tracer is not None:
                with tracer.installed(f"pass{len(out.traced)}"):
                    t = time.perf_counter()
                    products = w.run()
                    out.traced_times.append(time.perf_counter() - t)
                out.traced.append(w.inspect(products))
                after = speed.calibrate()
            before = after
            if time.perf_counter() - start >= seconds:
                return out
    except Exception:  # noqa: BLE001 - a failed pass is reported, not hidden
        out.crash = traceback.format_exc()
        return out


def run_workload(args) -> int:
    import_package()
    from tracing import PER_LAYER, Tracer, layer_metrics
    from workloads import BASELINE_SEED, SIZES, WORKLOADS

    import_s = time.perf_counter() - PROCESS_START
    mode = "smoke" if args.smoke else "full"
    sizes = SIZES[mode]
    cls = WORKLOADS[args.workload]
    tracer = Tracer()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_times, setup_scales = [], []
        before = speed.calibrate()
        import_scale = speed.scale(before, before)
        w = None
        for _ in range(1 if args.trace else SETUP_REPEATS):
            w = None  # release the previous inputs before building new ones
            w = cls(args.seed, sizes, workdir, tracer)
            t = time.perf_counter()
            with tracer.installed("setup") if args.trace else contextlib.nullcontext():
                w.setup()
            setup_times.append(time.perf_counter() - t)
            after = speed.calibrate()
            setup_scales.append(speed.scale(before, after))
            before = after

        p = timed_passes(w, args.seconds, tracer if args.trace else None)
        if p.crash:
            print(p.crash, file=sys.stderr)
        if not p.results or (args.trace and not p.traced):
            return 1
        every = p.results + p.traced
        checks = [("every pass completes", p.crash is None)]  # (name, ok)
        pass_errors = [f"; pass {i}: {e}" for i, r in enumerate(every) for e in r.errors]
        checks.append((f"outputs of all {len(every)} passes valid" + "".join(pass_errors),
                       not pass_errors))
        checks.append(("every pass gives identical outputs",
                       len({r.digest for r in p.results}) == 1))
        after = w.after_passes()
        checks.append(("save/load round trip" + "".join(f"; {e}" for e in after), not after))

        if args.trace:
            checks.append(("traced and untraced passes give identical outputs",
                           all(u.digest == t.digest and u.rmse == t.rmse
                               for u, t in zip(p.results, p.traced))))
            metrics = layer_metrics(tracer.spans, {"setup", "pass0"})
            metrics["trace.overhead_s"] = statistics.median(
                t - u for t, u in zip(p.traced_times, p.times))
            for name in ("elastic_net.coordinate_descent.unconverged", "cli.nonzero_exits",
                         "evaluate.kfold_cv.fold_failures"):
                checks.append((f"{name} is 0", metrics[name] == 0))
            units = dict(PER_LAYER)
        else:
            metrics = {
                "setup_s": import_s * import_scale + statistics.median(
                    t * f for t, f in zip(setup_times, setup_scales)),
                "run_s": statistics.median(t * f for t, f in zip(p.times, p.scales)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = dict(END_TO_END)

        if args.record_reference:
            if args.seed != BASELINE_SEED or args.trace:
                sys.exit(f"perfbench: record references with --seed {BASELINE_SEED} --trace 0")
            save_reference(mode, args.workload, w.reference(p.results))
        if args.seed == BASELINE_SEED:
            ref = load_reference(mode, args.workload)
            if ref is None:
                checks.append((f"a {mode} reference is recorded for {args.workload}", False))
            else:
                checks += [(f"reference: {name}", bool(ok))
                           for name, ok in w.check_reference(p.results, ref)]

        attempted = sum(r.attempted for r in every) + len(checks)
        failed = sum(r.failed for r in every) + sum(not ok for _, ok in checks)
        env = environment(args.seed)
        record = {
            "workload": args.workload, "mode": mode, "trace": args.trace,
            "seconds": args.seconds, "environment": env,
            "passes": len(p.results), "raw_pass_s": p.times, "pass_scale": p.scales,
            "traced_raw_pass_s": p.traced_times,
            "raw_setup_s": setup_times, "setup_scale": setup_scales, "raw_import_s": import_s,
            "rmse": [r.rmse for r in p.results], "traced_rmse": [r.rmse for r in p.traced],
            "digests": [r.digest for r in p.results],
            "traced_digests": [r.digest for r in p.traced],
            "checks": [{"name": n, "ok": bool(ok)} for n, ok in checks],
            "error_share": failed / attempted,
            "missing_trace_targets": tracer.missing,
            "trace_counter_errors": sorted(tracer.counter_errors),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
        (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            (OUT / f"{tag}-spans.json").write_text(json.dumps(tracer.dump()) + "\n")

        print("# env " + json.dumps(env, sort_keys=True))
        print(f"# {args.workload} ({mode}) seed {args.seed}: {len(p.results)} passes, "
              f"rmse {p.results[0].rmse!r}, record {OUT.name}/{tag}.json")
        if tracer.missing:
            print("# trace targets not found (skipped): " + ", ".join(tracer.missing))
        for err in sorted(tracer.counter_errors):
            print(f"# trace counter not read: {err}")
        for name, ok in checks:
            print(f"# check {'ok' if ok else 'FAILED'}: {name}")
        print(f"# error_share {failed}/{attempted}")
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    rows, status = [], 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        rows.append((name, "error_share", result["failed"] / result["attempted"], "ratio"))
        rows += [(name, k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    width = max((len(r[1]) for r in rows), default=0)
    for name, metric, value, unit in rows:
        print(f"{name:<11} {metric:<{width}} {value:>14.6g} {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs; seconds per workload")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite this workload's seed-7 reference outputs")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
