"""Run one workload of the FedL benchmark and print its metrics.

    python3 perfbench/run.py --workload paper-k100 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Run from anywhere; the program is imported from the ``src`` directory
next to this one.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Lines before it, starting with ``#``, record the run
environment and the failed-epoch count.  The exit code is 0 when every
check passed, 1 when a check failed and 2 when the program or the
arguments are missing.  ``--workload all`` runs every workload in its
own process and prints their ``#`` lines, each behind its workload name.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads: one BLAS thread keeps runs comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
#: Default --seed; digests.json records each workload's final_w at it.
DEFAULT_SEED = 0


def _import_program():
    """Import ``repro`` from this checkout's ``src``, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program to measure: {SRC / 'repro'} is missing\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, not {SRC}\n")
        sys.exit(2)


def _blas() -> dict:
    """OpenBLAS build, core and thread count, read from NumPy's copy."""
    import ctypes

    import numpy as np

    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    if not libs:
        return {"config": "unknown", "core": "unknown", "threads": None}
    lib = ctypes.CDLL(str(libs[0]))
    info = {}
    for key, suffix, restype in (
        ("config", "get_config", ctypes.c_char_p),
        ("core", "get_corename", ctypes.c_char_p),
        ("threads", "get_num_threads", ctypes.c_int),
    ):
        fn = None
        for name in (f"scipy_openblas_{suffix}64_", f"openblas_{suffix}"):
            fn = getattr(lib, name, None)
            if fn is not None:
                break
        if fn is None:
            info[key] = "unknown"
            continue
        fn.restype, fn.argtypes = restype, []
        value = fn()
        info[key] = value.decode() if isinstance(value, bytes) else value
    return info


def environment(load: tuple) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "loadavg_at_start": [round(x, 2) for x in load],
    }


def platform_key(env: dict) -> dict:
    """What the final_w bytes depend on besides the code and the seed."""
    return {"numpy": env["numpy"], "blas": env["blas"]["config"]}


def _expected_digest(workload, seed: int, env: dict):
    """(digest or None, note) for this workload, seed and platform."""
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = table.get(workload.name)
    if entry is None or entry["seed"] != seed:
        return None, f"not applied (no digest recorded for seed {seed})"
    if entry["epochs"] != workload.epochs:
        return None, f"not applied (recorded for {entry['epochs']} epochs)"
    if entry["platform"] != platform_key(env):
        return None, f"not applied (recorded on {entry['platform']})"
    return entry["sha256"], "applied"


def record_digest(workload, seed: int, env: dict) -> str:
    from checks import digest
    from measure import time_experiment

    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    run = time_experiment(workload, seed, workload.epochs, OUT / "tmp")
    if run.final_w is None:
        raise SystemExit(f"perfbench: run failed: {run.verdict.reasons}")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    table[workload.name] = {
        "seed": seed,
        "epochs": workload.epochs,
        "platform": platform_key(env),
        "sha256": digest(run.final_w),
    }
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    return table[workload.name]["sha256"]


def run_one(args, load: tuple) -> int:
    from measure import END_TO_END, PER_LAYER, REPORTED, run_workload, unit_of
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    env = environment(load)
    if args.record_digest:
        print(f"{workload.name} seed={args.seed}: {record_digest(workload, args.seed, env)}")
        return 0
    expected, digest_note = _expected_digest(workload, args.seed, env)
    # A run of --seconds S times the workload's experiment on
    # round(S / rep_seconds) seeds (rep_seconds: measured on a 2-core x86 VM).
    experiments = max(1, round(args.seconds / workload.rep_seconds))
    outcome = run_workload(
        workload,
        args.seed,
        experiments,
        bool(args.trace),
        OUT / "tmp",
        expected,
    )
    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "epochs": workload.epochs,
        "trace": args.trace,
        "digest_check": digest_note,
        **outcome.notes,
        **env,
    }
    print("# env " + json.dumps(meta, sort_keys=True))
    units = (
        {name: unit_of(name) for name in PER_LAYER}
        if args.trace
        else {name: unit for name, unit, _, _ in END_TO_END}
    )
    for name, unit in units.items():
        print(f"# {name} {outcome.metrics[name]:.6g} {unit}")
    if not args.trace:
        tail = outcome.notes["epoch_wall_tail"]
        print(f"#   epoch_wall_tail_ms is p{tail['percentile']:g} of {tail['samples']} epochs")
        for name, unit, _ in REPORTED:
            print(f"# {name} {outcome.metrics[name]:.6g} {unit} (reported, not gated)")
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"# failed_frac {frac:.6g} fraction ({outcome.failed}/{outcome.attempted} epochs)")
    for reason in outcome.reasons:
        print(f"# check failed: {reason}")
    if outcome.spans is not None:
        from tracer import write_spans

        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        write_spans(path, outcome.spans, meta)
        print(f"# spans {path}")
    correct = outcome.failed == 0 and outcome.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in a fresh process; their metric lines, one table."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            status = 1
            sys.stderr.write(proc.stderr)
        for line in proc.stdout.splitlines():
            if line.startswith("# ") and not line.startswith(("# env ", "# spans ")):
                print(f"{name:<17} {line[2:]}", flush=True)
        if proc.returncode not in (0, 1):
            print(f"{name:<17} exited {proc.returncode} without a result", flush=True)
    return status


def main(argv=None) -> int:
    load = os.getloadavg()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digest", action="store_true",
        help="record the workload's final_w digest at --seed in digests.json",
    )
    args = parser.parse_args(argv)
    _import_program()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)}, all)")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_one(args, load)


if __name__ == "__main__":
    sys.exit(main())
