"""etopaq benchmark: time to verdict on fixed workloads, per-layer numbers
from a traced run.

    python3 perfbench/run.py --workload family --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, one table
    python3 perfbench/run.py --record-expected 0-19

Run from the root of a checkout.  Each workload runs in a fresh child
process (`bench.py`) with a fixed hash seed, no ETOPAQ_STATE_CAP, and an
address-space limit; this process checks its result and prints it.  With one
workload the last stdout line is the JSON result; `--trace 1` reports the
per-layer metrics instead of the end-to-end ones.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("fixtures", "family", "minsky", "strategies")
SEEDED = ("family", "strategies")
HASH_SEED = "0"
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def check_checkout() -> None:
    missing = [p for p in ("src/etopaq/__init__.py", "fixtures/ta1.ta") if not (ROOT / p).is_file()]
    if missing:
        raise BenchError(f"not an etopaq checkout: missing {', '.join(missing)} under {ROOT}")


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "ETOPAQ_STATE_CAP"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_child(args: list[str]) -> dict:
    cmd = [sys.executable, str(HERE / "bench.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"child timed out after {CHILD_TIMEOUT_S}s: {' '.join(args)}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed with exit code {proc.returncode}: {' '.join(args)}")
    return json.loads(lines[-1])


def provenance(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "etopaq").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "hash_seed": HASH_SEED,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    return run_child(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(int(traced))])


def print_one(workload: str, seed: int, result: dict) -> None:
    info = result.pop("info")
    print(json.dumps({"workload": workload, **provenance(seed), **info}))
    for name, m in result["metrics"].items():
        print(f"{workload:<10} {name:<22} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))


def print_all(seed: int, seconds: float, traced: bool) -> int:
    print(json.dumps(provenance(seed)))
    bad = 0
    for workload in WORKLOADS:
        result = measure(workload, seed, seconds, traced)
        info = result["info"]
        print(f"== {workload}: {info['queries']} queries, {info['passes']} passes, "
              f"expected table {info['expected_table']}, verdicts {info['verdicts']}")
        for name, m in result["metrics"].items():
            print(f"{workload:<10} {name:<22} {m['value']:.6g} {m['unit']}")
        if not traced:
            print(f"{workload:<10} {'failed_share':<22} {info['failed_share']:.6g} share")
            print(f"{workload:<10} query_tail_s is p{info['query_tail_percentile']:.1f} "
                  f"of {info['query_tail_samples']} queries")
        for qid, reasons in info["failures"].items():
            print(f"FAILED {workload} {qid}: {'; '.join(reasons)}")
        bad += result["failed"]
    return 1 if bad else 0


def record_expected(seeds: list[int]) -> None:
    """Verdict table of the current source, for the gate of later runs."""
    table: dict[str, dict[str, str]] = {"source": provenance(0)["src_sha256"]}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in seeds if workload in SEEDED else [0]:
            got = run_child(["--workload", workload, "--seed", str(seed), "--record"])
            if got["failures"]:
                raise BenchError(f"{workload} seed {seed}: cross-checks failed: {got['failures']}")
            if workload in SEEDED:
                table[workload][str(seed)] = "".join(got["codes"])
            else:
                table[workload] = dict(zip(got["qids"], got["verdicts"]))
            print(f"recorded {workload} seed {seed}", file=sys.stderr)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-expected", metavar="SEEDS",
                   help="record the expected-verdict table for seeds LO-HI")
    args = p.parse_args(argv)
    try:
        check_checkout()
        if args.record_expected:
            record_expected(seed_range(args.record_expected))
            return 0
        if args.workload == "all":
            return print_all(args.seed, args.seconds, bool(args.trace))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print_one(args.workload, args.seed, result)
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
