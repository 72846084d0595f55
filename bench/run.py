#!/usr/bin/env python3
"""Seeded, layered benchmark for rootcert.

    python3 bench/run.py --workload kac-scratch --seed 1 --seconds 25 --trace 0

Run from anywhere; the library is imported from ``src/`` next to this
directory.  Inputs come from ``--seed`` only.  Each workload is a closed
loop: one client in one process sends its next request when the previous
one has returned.  Every output is checked against reference roots
(``reference.py``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from spans recorded around the library's public functions
(``tracer.py``).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  ``--tiny`` shrinks every
input for ``selfcheck.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import mpmath
import numpy as np
import scipy

from reference import Outcome, check_disks, check_roots, kac_coeffs, reference_roots, ROOT_TOL
from tracer import Tracer, layer_stats, loop_calls

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("kac-scratch", "certify-near", "cli-small")

SIZES = {
    False: dict(kac_degree=128, kac_pool=6, near_degrees=(64, 128, 256), near_polys=1,
                cli_files=123, cli_degrees=(8, 48), cold_starts=6),
    True: dict(kac_degree=12, kac_pool=3, near_degrees=(6, 10, 14), near_polys=1,
               cli_files=6, cli_degrees=(4, 8), cold_starts=1),
}

# One fresh interpreter: import the library and finish one tiny solve.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import rootcert
f = rootcert.Polynomial([1, 0, 0, 0, -1])
r = rootcert.solve(f, rootcert.default_init(f), rootcert.SolveConfig(require_certificate=False))
sys.exit(0 if r.converged else 3)
"""

# layers reported per workload; a layer the workload never reaches reads 0
LAYERS = (
    "polynomials.evaluate", "polynomials.evaluate_with_derivatives",
    "measures.weierstrass_correction", "measures.separation", "measures.e_measure",
    "iterations.ehrlich_step_bs", "iterations.tanabe_step", "iterations.dochev_byrnev_step",
    "certify.certify_initial", "certify.inclusion_disks", "certify.bounds",
    "solve.solve", "cli.main", "cli.batch",
)
# layers every workload reaches, so their time per call is never zero
TIMED_LAYERS = (
    "polynomials.evaluate", "measures.weierstrass_correction", "measures.separation",
    "measures.e_measure", "iterations.ehrlich_step_bs", "certify.certify_initial",
)


@dataclass
class Op:
    """One request: ``call`` is timed, ``check`` judges its output.

    ``verdicts`` maps the digest of each distinct output seen to its
    outcome, so an output repeated in a later round gets the verdict its
    first check gave without running the mpmath disk checks again.
    """

    degree: int
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    verdicts: dict = field(default_factory=dict)

    def judge(self, out) -> Outcome:
        try:
            key = hashlib.blake2b(pickle.dumps(out)).digest()
        except Exception:  # an output that cannot be pickled is checked every time
            return self.check(out)
        if key not in self.verdicts:
            self.verdicts[key] = self.check(out)
        return self.verdicts[key]


def load_library():
    sys.path.insert(0, str(SRC))
    return SimpleNamespace(**{name: importlib.import_module(f"rootcert.{name}") for name in
                              ("polynomials", "measures", "iterations", "certify", "solve", "cli")})


def _perturbed(lib, ref, method, p, rng):
    """ref + 0.3 * corollary_threshold * d_i in a random direction (the
    threshold split over the n components for p = 1)."""
    n = ref.roots.size
    gaps = np.abs(ref.roots[:, None] - ref.roots[None, :])
    np.fill_diagonal(gaps, np.inf)
    thr = lib.certify.corollary_threshold(method, lib.measures.norm_context(n, p))
    size = 0.3 * thr * gaps.min(axis=1) / (n if p == 1 else 1)
    return ref.roots + size * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


def _disks_of(out: Outcome, disks, ref) -> Outcome:
    return check_disks(out, [d.center for d in disks], [d.radius for d in disks], ref)


def build_kac_scratch(lib, rng, size, work):
    """Solve from nothing: uncertified Ehrlich from default_init."""
    S = lib.solve
    ops = []
    for _ in range(size["kac_pool"]):
        coeffs = kac_coeffs(rng, size["kac_degree"])
        ref = reference_roots(coeffs)
        f = lib.polynomials.Polynomial(coeffs)

        def call(f=f):
            return S.solve(f, S.default_init(f), S.SolveConfig(require_certificate=False))

        def check(r, ref=ref):
            return _disks_of(check_roots(r.final, r.converged, ref), r.disks, ref)

        ops.append(Op(f.degree, call, check))
    return ops, None


def build_certify_near(lib, rng, size, work):
    """Certify approximations near the roots, then bound their errors."""
    S, C, M = lib.solve, lib.certify, lib.measures
    kinds = lib.iterations.MethodKind
    methods = (kinds.EHRLICH, kinds.DOCHEV_BYRNEV, kinds.TANABE)
    degrees = size["near_degrees"]
    polys = {}
    for n in degrees:
        for k in range(size["near_polys"]):
            coeffs = kac_coeffs(rng, n)
            polys[n, k] = (lib.polynomials.Polynomial(coeffs), reference_roots(coeffs))
    ops = []
    # every (degree, method, p) once per 18 ops, each block on the next polynomial
    for j in range(18 * size["near_polys"]):
        n, method, p = degrees[j % 3], methods[(j // 3) % 3], (math.inf, 1.0)[(j // 9) % 2]
        f, ref = polys[n, j // 18]
        x0 = _perturbed(lib, ref, method, p, rng)

        def call(f=f, x0=x0, method=method, p=p):
            r = S.solve(f, x0, S.SolveConfig(method=method, p=p))
            w0 = np.abs(M.weierstrass_correction(f, x0))
            prior = C.a_priori_bound(r.certificate, w0, r.iterations)
            bundle = C.gauge_bundle(method, M.norm_context(f.degree, p))
            post = C.a_posteriori_bound_1(f, r.final, bundle)
            return r, prior, post

        def check(out, ref=ref):
            r, prior, post = out
            outcome = check_roots(r.final, r.converged, ref)
            if not outcome.failed and not (np.all(np.isfinite(prior)) and np.all(np.isfinite(post))):
                outcome = Outcome(True, "non-finite error bound")
            return _disks_of(outcome, r.disks, ref)

        ops.append(Op(n, call, check))
    return ops, None


def _cli(lib, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_payload(payload, ref) -> Outcome:
    roots = [complex(z["re"], z["im"]) for z in payload["roots"]]
    outcome = check_roots(roots, payload["converged"], ref)
    disks = payload["disks"]
    return check_disks(outcome, [complex(d["center"]["re"], d["center"]["im"]) for d in disks],
                       [d["radius"] for d in disks], ref)


def build_cli_small(lib, rng, size, work):
    """Many small certified solves through rootcert.cli.main, then one batch."""
    kinds = lib.iterations.MethodKind
    lo, hi = size["cli_degrees"]
    refs = {}
    ops = []
    for i in range(size["cli_files"]):
        coeffs = kac_coeffs(rng, lo + i % (hi - lo + 1))  # every degree equally often
        ref = reference_roots(coeffs)
        guess = _perturbed(lib, ref, kinds.EHRLICH, math.inf, rng)
        path = work / f"in{i:04d}.json"
        path.write_text(json.dumps({
            "coeffs": [{"re": z.real, "im": z.imag} for z in coeffs],
            "guess": [{"re": z.real, "im": z.imag} for z in guess]}))
        refs[path.name] = ref

        def call(path=path):
            return _cli(lib, ["solve", "--input", str(path), "--json"])

        def check(out, ref=ref):
            code, stdout, stderr = out
            if code != 0:
                return Outcome(True, f"exit {code}: {stderr.strip()[:200]}")
            return _check_payload(json.loads(stdout), ref)

        ops.append(Op(ref.roots.size, call, check))

    def batch_call():
        return _cli(lib, ["solve", "--batch", str(work)])

    def batch_check(out):
        code, stdout, stderr = out
        if code != 0:
            return Outcome(True, f"batch exit {code}: {stderr.strip()[:200]}")
        results = json.loads(stdout)
        total = Outcome()
        if sorted(results) != sorted(refs):
            return Outcome(True, "batch output does not list every input file")
        for name, ref in refs.items():
            one = _check_payload(results[name], ref)
            total.disks += one.disks
            total.unsound += one.unsound
            total.undecided += one.undecided
            if one.failed and not total.failed:
                total.failed, total.reason = True, f"{name}: {one.reason}"
        return total

    return ops, Op(sum(r.roots.size for r in refs.values()), batch_call, batch_check)


WORKLOAD_INPUTS = {
    "kac-scratch": build_kac_scratch,
    "certify-near": build_certify_near,
    "cli-small": build_cli_small,
}


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.disks = self.unsound = self.undecided = 0
        self.reasons = {}

    def add(self, outcome: Outcome):
        self.attempted += 1
        self.disks += outcome.disks
        self.unsound += outcome.unsound
        self.undecided += outcome.undecided
        if outcome.failed:
            self.failed += 1
            self.reasons[outcome.reason] = self.reasons.get(outcome.reason, 0) + 1


def timed(op: Op, tally: Tally) -> float:
    """Run one request, check its output outside the timed region, and
    return its latency in seconds.  A raised error counts as a failure."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # the benchmark counts every failure and goes on
        dt = time.perf_counter() - t0
        tally.add(Outcome(True, f"{type(exc).__name__}: {exc}"[:200]))
        return dt
    dt = time.perf_counter() - t0
    try:
        tally.add(op.judge(out))
    except Exception as exc:  # malformed output
        tally.add(Outcome(True, f"bad output: {type(exc).__name__}: {exc}"[:200]))
    return dt


def warm_up(ops):
    """Let imports inside functions, numpy's loop caches and the like settle
    before timing.  Every kind of request appears among the first 18, and
    one second is enough for all of them except on kac-scratch, whose
    requests are all of one kind."""
    start = time.perf_counter()
    for op in ops[:18]:
        try:
            op.call()
        except Exception:  # counted when the timed loop meets it again
            pass
        if time.perf_counter() - start > 1.0:
            break


# A fixed mix of interpreter, mpmath, argparse, json and numpy work that no
# change to the library touches.  Its best time in a run gauges how fast the
# host ran during that run; see run_untraced.
CAL_REF_S = 1e-3
_CAL_COEFFS = [mpmath.mpc(math.cos(k), math.sin(3 * k)) for k in range(12)]
_CAL_PAYLOAD = {"roots": [{"re": 0.1 * k, "im": -0.2 * k} for k in range(30)], "converged": True}
_CAL_POINTS = np.exp(1j * np.arange(24))


def _calibration_parser():
    parser = argparse.ArgumentParser(prog="calibration")
    solve = parser.add_subparsers(dest="command").add_parser("solve")
    solve.add_argument("--input")
    solve.add_argument("--json", action="store_true")
    solve.add_argument("--p", default="inf")
    return parser


_CAL_PARSER = _calibration_parser()


def calibration_kernel():
    s = 0
    for i in range(3000):
        s += i * i % 7
    with mpmath.workdps(30):
        x = mpmath.mpc("0.3", "0.7")
        for _ in range(6):
            x = x - mpmath.polyval(_CAL_COEFFS, x) / (1 + abs(x))
    _CAL_PARSER.parse_args(["solve", "--input", "x.json", "--json"])
    data = json.loads(json.dumps(_CAL_PAYLOAD))
    np.array([complex(r["re"], r["im"]) for r in data["roots"]])
    z = _CAL_POINTS
    for _ in range(8):
        d = z[:, None] - z[None, :]
        np.fill_diagonal(d, 1)
        z = z - 0.01 / d.prod(axis=1) + np.abs(z).max() * 1e-3
    return s, x, z


def cold_start() -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def provenance(args):
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "rootcert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


def _row(name, value, unit, samples):
    text = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
    print(f"  {name:<44} {text:>14} {unit:<8} {samples}")


def run_untraced(args, cold_starts, ops, batch):
    """Whole rounds over the inputs for ``--seconds``, not counting the cold starts.

    The host's speed changes every second or so, by up to 1.8 times, as
    other tenants load it, and the share of slow seconds drifts over
    minutes.  So each request's latency is its best over the rounds, the
    time it takes when nothing else slows it.  Each core slows on its own,
    so the rounds alternate over the cores this process may use.  The best
    speed itself drifts by 10-20% between runs minutes apart, so the bests
    are scaled to a reference speed: the calibration kernel runs after
    every request, and the scale makes its best time read CAL_REF_S.  The
    latency metrics are quantiles of the scaled bests over the inputs.  The
    cold starts are spread over the run, so their median samples the same
    host states, and it is scaled alike.
    """
    warm_up(ops)
    for _ in range(20):
        calibration_kernel()
    tally = Tally()
    best = [math.inf] * len(ops)
    cal = math.inf
    latencies, cold = [], []
    rounds = 0
    cores = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    deadline = time.perf_counter() + args.seconds
    while True:
        elapsed = args.seconds - (deadline - time.perf_counter())  # request time so far
        if len(cold) < cold_starts * elapsed / args.seconds:
            if cores:
                os.sched_setaffinity(0, cores)
            t = cold_start()
            cold.append(t)
            deadline += t
        if cores:
            os.sched_setaffinity(0, {cores[rounds % len(cores)]})
        for k, op in enumerate(ops):
            dt = timed(op, tally)
            latencies.append(dt)
            best[k] = min(best[k], dt)
            t0 = time.perf_counter()
            calibration_kernel()
            cal = min(cal, time.perf_counter() - t0)
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    if cores:
        os.sched_setaffinity(0, cores)
    while len(cold) < cold_starts:
        cold.append(cold_start())
    batch_s = timed(batch, tally) if batch else None
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = CAL_REF_S / cal
    setup = statistics.median(cold) * scale
    ms = [1e3 * t * scale for t in best]
    raw = [1e3 * t for t in best]
    every = [1e3 * t for t in latencies]
    roots = sum(op.degree for op in ops)
    metrics = {
        "setup_s": (setup, "s"),
        "solve_ms.p50": (statistics.median(ms), "ms"),
        "solve_ms.p90": (statistics.quantiles(ms, n=10, method="inclusive")[8], "ms"),
        "roots_per_s": (roots / sum(best) / scale, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    print(f"end-to-end metrics ({len(ops)} requests x {rounds} rounds, closed loop, 1 client, "
          "tracing off; latency of a request = its best over the rounds, scaled to the "
          "reference speed):")
    _row("setup_s", setup, "s", f"median of {cold_starts} cold starts")
    _row("solve_ms.p50", metrics["solve_ms.p50"][0], "ms", f"{len(ms)} requests, best of {rounds}")
    _row("solve_ms.p90", metrics["solve_ms.p90"][0], "ms", f"{len(ms)} requests, best of {rounds}")
    _row("roots_per_s", metrics["roots_per_s"][0], "1/s", f"{roots} roots, best of {rounds}")
    _row("calibration_ms", 1e3 * cal, "ms", f"best of {len(latencies)}; scale {scale:.4g}")
    _row("cold_start_s", statistics.median(cold), "s", f"median of {cold_starts}, not scaled")
    _row("best_ms.p50", statistics.median(raw), "ms", f"{len(raw)} requests, best, not scaled")
    _row("best_ms.p90", statistics.quantiles(raw, n=10, method="inclusive")[8], "ms",
         f"{len(raw)} requests, best, not scaled")
    _row("all_ms.p50", statistics.median(every), "ms", f"{len(every)} timed requests, not scaled")
    _row("all_ms.p90", statistics.quantiles(every, n=10, method="inclusive")[8], "ms",
         f"{len(every)} timed requests, not scaled")
    _row("fail_frac", tally.failed / tally.attempted, "frac", f"{tally.attempted} attempted")
    if tally.disks:
        _row("unsound_disk_frac", tally.unsound / tally.disks, "frac",
             f"{tally.disks} issued disks, {tally.undecided} undecided")
    else:
        _row("unsound_disk_frac", "n/a", "frac", "no disks issued")
    if batch:
        _row("batch_s", batch_s, "s", f"1 batch of {len(ops)} files")
    _row("peak_rss_mb", peak_mb, "MB", "this process")
    return tally, metrics


def _layer_table(title, stats, rounds, traced):
    print(title)
    print(f"  {'layer':<40} {'calls/round':>12} {'busy ms':>10} {'self ms':>10} "
          f"{'ms/call':>9} {'self ms/call':>12} {'self share':>10}")
    for name in sorted(stats):
        n, busy, own = stats[name]
        print(f"  {name:<40} {n / rounds:>12.6g} {1e3 * busy:>10.2f} {1e3 * own:>10.2f} "
              f"{1e3 * busy / n:>9.4f} {1e3 * own / n:>12.4f} {own / traced:>10.4f}")


def run_traced(args, ops, batch):
    """Each request runs untraced and traced, alternating which goes first,
    for whole rounds over the inputs.  Counts are reported per round, so
    they repeat exactly for a seed.

    The batch request runs its solves on pool threads whose spans overlap,
    so its spans feed only the cli.batch metrics and its own table.
    """
    tracer = Tracer()
    warm_up(ops)
    tally = Tally()
    plain = {False: 0.0, True: 0.0}  # keyed by "is the batch"
    traced = {False: 0.0, True: 0.0}
    batch_ops = set()
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in ops + ([batch] if batch else []):
            is_batch = op is batch
            for trace_it in ((False, True) if rounds % 2 == 0 else (True, False)):
                if trace_it:
                    tracer.op += 1
                    if is_batch:
                        batch_ops.add(tracer.op)
                    tracer.install()
                try:
                    dt = timed(op, tally)
                finally:
                    tracer.uninstall()
                (traced if trace_it else plain)[is_batch] += dt
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break

    spans = [s for s in tracer.spans if s.op not in batch_ops]
    stats = layer_stats(spans)
    batch_stats = layer_stats([s for s in tracer.spans if s.op in batch_ops])
    solves = [s.info for s in spans if s.name == "solve.solve" and s.info is not None]
    iterations = sum(solves)
    certs = [s.info for s in spans if s.name == "certify.certify_initial" and s.info is not None]

    def per_call_ms(table, name, column=1):
        return 1e3 * table[name][column] / table[name][0] if name in table else 0.0

    metrics = {}
    for name in LAYERS:
        table, wall = (batch_stats, traced[True]) if name == "cli.batch" else (stats, traced[False])
        calls, _, own = table.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.calls"] = (calls / rounds, "count")
        metrics[f"{name}.self_share"] = (own / wall if wall else 0.0, "frac")
    for name in TIMED_LAYERS:
        metrics[f"{name}.ms"] = (per_call_ms(stats, name), "ms")
    per_iter = max(iterations, 1)
    metrics.update({
        "measures.w_per_iter": (loop_calls(spans, "measures.weierstrass_correction") / per_iter, "1/iter"),
        "measures.sep_per_iter": (loop_calls(spans, "measures.separation") / per_iter, "1/iter"),
        "certify.issued_frac": (sum(map(bool, certs)) / len(certs) if certs else 0.0, "frac"),
        "solve.iterations": (iterations / rounds, "count"),
        "solve.iterations_per_solve": (iterations / len(solves) if solves else 0.0, "iter"),
        "solve.ms_per_iter": (1e3 * stats["solve.solve"][1] / per_iter if iterations else 0.0, "ms"),
        "solve.self_ms": (per_call_ms(stats, "solve.solve", 2), "ms"),
        "trace.overhead_frac": (sum(traced.values()) / sum(plain.values()) - 1.0, "frac"),
    })

    _layer_table(f"per-layer metrics ({rounds} rounds of {len(ops)} requests, traced and untraced):",
                 stats, rounds, traced[False])
    if batch:
        _layer_table(f"batch requests ({rounds} rounds of 1 batch; pool threads overlap, "
                     "so shares can pass 1):", batch_stats, rounds, traced[True])
    for name, (value, unit) in metrics.items():
        if not name.endswith((".calls", ".self_share")):
            _row(name, value, unit, "")
    for name in ("iterations.dochev_byrnev_step", "iterations.tanabe_step",
                 "polynomials.evaluate_with_derivatives", "certify.inclusion_disks", "certify.bounds"):
        _row(f"{name}.ms", per_call_ms(stats, name), "ms", "per call")
    _row("cli.main.self_ms", per_call_ms(stats, "cli.main", 2), "ms", "per call, main minus solve")
    _row("cli.batch.self_ms", per_call_ms(batch_stats, "cli.batch", 2), "ms", "per batch, minus solve")

    WORK.mkdir(exist_ok=True)
    path = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path, {"fields": list(tracer.spans[0]._fields) if tracer.spans else [],
                        "rounds": rounds, **provenance(args)})
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    return tally, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for selfcheck.py")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rootcert" / "__init__.py").is_file():
        print(f"bench: no rootcert sources under {SRC}", file=sys.stderr)
        return 2
    lib = load_library()
    size = SIZES[args.tiny]
    print(f"rootcert benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(provenance(args)))
    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        t0 = time.perf_counter()
        ops, batch = WORKLOAD_INPUTS[args.workload](lib, rng, size, work)
        print(f"inputs: {len(ops)} requests, references in {time.perf_counter() - t0:.2f} s")
        if args.trace:
            tally, metrics = run_traced(args, ops, batch)
        else:
            tally, metrics = run_untraced(args, size["cold_starts"], ops, batch)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    verdict = "PASS" if tally.failed == 0 else "FAIL"
    print(f"gate: {verdict}: {tally.failed} of {tally.attempted} requests failed "
          f"(root tolerance {ROOT_TOL:g} relative to max(1, |root|))")
    for reason, count in sorted(tally.reasons.items(), key=lambda kv: -kv[1])[:5]:
        print(f"  {count} x {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
