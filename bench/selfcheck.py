#!/usr/bin/env python3
"""Checks that the benchmark itself measures what it claims.

    python3 bench/selfcheck.py

1. A tiny run of every workload, traced and untraced, emits exactly the
   metrics BENCHMARK.json lists, with their units, and prints every
   metric named in bench/README.md.
2. Two traced runs on one seed give identical count metrics.
3. A deliberately corrupted root, in a library result and in CLI output,
   is counted as a failure, also after the untouched output was judged;
   a wrong disk is counted as unsound.
4. The integer reference polish agrees with mpmath's own Newton steps.
5. Without the library sources the benchmark exits non-zero and prints no
   result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import mpmath
import numpy as np

import run
from reference import Outcome, check_disks, check_roots, kac_coeffs, reference_roots

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# printed by every untraced run, beside the metrics in BENCHMARK.json
REPORTED = ("fail_frac", "unsound_disk_frac")
REPORTED_TRACED = (
    "iterations.dochev_byrnev_step.ms", "iterations.tanabe_step.ms",
    "polynomials.evaluate_with_derivatives.ms", "certify.inclusion_disks.ms",
    "certify.bounds.ms", "cli.main.self_ms", "cli.batch.self_ms",
)

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric_names():
    for workload in run.WORKLOADS:
        for trace, spec_key, extra in ((0, "end_to_end", REPORTED), (1, "per_layer", REPORTED_TRACED)):
            proc = bench(workload, 7, trace)
            if proc.returncode != 0:
                check(False, f"{workload} trace={trace} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            res = result_of(proc)
            want = {m["name"]: m["unit"] for m in SPEC[spec_key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == want, f"{workload} trace={trace}: metrics and units match BENCHMARK.json")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{workload} trace={trace}: gate passes on tiny inputs")
            names = extra + (("batch_s",) if workload == "cli-small" and trace == 0 else ())
            missing = [n for n in names if f"  {n} " not in proc.stdout]
            check(not missing, f"{workload} trace={trace}: report prints {', '.join(names)}"
                  + (f" (missing {missing})" if missing else ""))


def repeatable_counts():
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "1/iter", "iter")]
    counts.append("certify.issued_frac")
    for workload in run.WORKLOADS:
        a, b = (result_of(bench(workload, 11, 1))["metrics"] for _ in range(2))
        differ = [n for n in counts if a[n]["value"] != b[n]["value"]]
        check(not differ, f"{workload}: count metrics repeat exactly on one seed"
              + (f" (differ: {differ})" if differ else ""))


def corrupted_roots():
    lib = run.load_library()
    rng = np.random.default_rng(3)
    work = run.WORK / "selfcheck"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ops, _ = run.build_kac_scratch(lib, rng, run.SIZES[True], work)
        result = ops[0].call()
        check(not ops[0].check(result).failed, "an untouched solve passes the check")
        bad = result.final.copy()
        bad[0] += 1e-6
        check(ops[0].check(dataclasses.replace(result, final=bad)).failed,
              "a corrupted root in a solve result is a failure")
        check(ops[0].check(dataclasses.replace(result, converged=False)).failed,
              "converged=False is a failure")

        ops, batch = run.build_cli_small(lib, rng, run.SIZES[True], work)
        code, stdout, stderr = ops[0].call()
        payload = json.loads(stdout)
        check(not ops[0].check((code, stdout, stderr)).failed, "an untouched CLI answer passes")
        payload["roots"][0]["re"] += 1e-6
        check(ops[0].check((code, json.dumps(payload), stderr)).failed,
              "a corrupted root in CLI output is a failure")
        check(ops[0].check((1, stdout, "boom")).failed, "a non-zero CLI exit is a failure")
        check(not ops[0].judge((code, stdout, stderr)).failed
              and ops[0].judge((code, json.dumps(payload), stderr)).failed
              and not ops[0].judge((code, stdout, stderr)).failed,
              "a remembered verdict is reused only for the same output")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ref = reference_roots(kac_coeffs(np.random.default_rng(5), 10))
    check(check_roots(ref.roots[::-1], True, ref).failed is False,
          "root order does not matter")
    sound = check_disks(Outcome(), ref.roots, np.full(10, 1e-12), ref)
    check(sound.disks == 10 and sound.unsound == 0, "disks of radius 1e-12 at the roots are sound")
    unsound = check_disks(Outcome(), ref.roots + 1e-9, np.full(10, 1e-12), ref)
    check(unsound.unsound == 10, "disks that miss their root by 1e-9 are unsound")


def reference_against_mpmath():
    coeffs = kac_coeffs(np.random.default_rng(9), 16)
    ref = reference_roots(coeffs)
    with mpmath.workprec(ref.bits + 64):
        cm = [mpmath.mpc(complex(c)) for c in coeffs]
        worst = mpmath.mpf(0)
        for i in range(ref.roots.size):
            z = ref.mp_root(i)
            fz, dfz = mpmath.polyval(cm, z, derivative=True)
            worst = max(worst, abs(fz / dfz) / max(1, abs(z)))
    check(worst < mpmath.mpf(10) ** -40,
          f"mpmath Newton moves the reference roots by {mpmath.nstr(worst, 3)} < 1e-40")


def no_sources():
    bare = run.WORK / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = bench("kac-scratch", 1, 0, cwd=bare)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and not last[0].startswith("{"),
              "without src/ the benchmark exits non-zero and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    metric_names()
    repeatable_counts()
    corrupted_roots()
    reference_against_mpmath()
    no_sources()
    print(f"selfcheck: {'PASS' if not failures else 'FAIL'} ({len(failures)} failed)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
