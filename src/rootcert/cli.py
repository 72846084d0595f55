"""Command-line front-end.

Subcommands: solve, certify, disks, thresholds.  Polynomials come either
from --coeffs (comma-separated reals, leading-first) or from a JSON file
with schema {"coeffs": [{"re": .., "im": ..}, ...], "guess": [...]};
solve checks its flags before any input; --batch DIR solves each JSON file
of DIR with one SolveConfig, as --input would.  solve --seed rotates the
default starting points and conflicts with --guess; a guess in an --input
file takes precedence over it.  --json and --batch print the payload as one
line from json's C encoder (an indent selects the pure-Python one; python
-m json.tool indents).  Each subcommand returns (exit status, payload,
render); render() gives the text lines, built only when printed.  _attempt
turns a failure into a status, one stderr line and an empty render.
Requests run with numpy's floating-point warnings off, so stderr carries
only those lines.  Exit status: 0 on success, 2 on an unissued certificate
in require-certificate mode, 1 on input and usage errors; a batch exits 1
if any file failed, else 2 if any certificate was not issued.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certify import certify_initial, gauge_bundle, inclusion_disks
from .errors import NotCertified, RootCertError
from .iterations import MethodKind
from .measures import norm_context
from .polynomials import Polynomial
from .solve import SolveConfig, default_init, solve


class InputError(ValueError):
    pass


def _complex_to_json(z: complex) -> dict:
    return {"re": z.real, "im": z.imag}


def _complex_from_json(obj) -> complex:
    try:
        # complex() rejects a string here, but takes true and false as 1 and 0
        if type(obj["re"]) is bool or type(obj["im"]) is bool:
            raise TypeError("re and im must be numbers")
        return complex(obj["re"], obj["im"])
    except (TypeError, KeyError, OverflowError) as exc:
        raise InputError(f"bad complex entry {obj!r}: {exc}") from None


def _complex_list(entries) -> np.ndarray:
    if not isinstance(entries, list):
        raise InputError(f"expected a list of complex entries, got {entries!r}")
    return np.array([_complex_from_json(c) for c in entries])


def reals(text: str) -> np.ndarray:
    """The complex vector of a comma-separated list of reals; an empty
    field is a ValueError, hence an input error."""
    return np.array([float(v) for v in text.split(",")], dtype=np.complex128)


def _load_request(args, path) -> tuple:
    coeffs = guess = None
    if path:
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read the input file: {exc}") from None
        if not isinstance(data, dict) or "coeffs" not in data:
            raise InputError("the input file is not an object with a field 'coeffs'")
        coeffs = _complex_list(data["coeffs"])
        if data.get("guess") is not None:
            guess = _complex_list(data["guess"])
    if args.coeffs is not None:
        coeffs = args.coeffs
    if args.guess is not None:
        guess = args.guess
    if coeffs is None:
        raise InputError("no polynomial given: use --coeffs or --input")
    return Polynomial(coeffs), guess


def _disks_payload(disks, disjoint: bool) -> dict:
    return {"disks": [{"center": _complex_to_json(d.center), "radius": d.radius}
                      for d in disks],
            "disjoint": disjoint}


def _disk_lines(disks) -> list:
    return [f"disk[{i}]: center = {d.center:.15g}, radius = {d.radius:.3e}"
            for i, d in enumerate(disks)]


def _result_to_json(result, disks) -> dict:
    return {
        "certificate": None if result.certificate is None
        else result.certificate.to_dict(),
        "converged": result.converged,
        "roots": [_complex_to_json(z) for z in result.final.tolist()],
        **_disks_payload(disks, result.disjoint),
        "iterations": result.iterations,
        "order_estimate": result.order_estimate,
    }


def _cmd_solve(args) -> tuple:
    """Build the request's one SolveConfig, then solve its input or batch."""
    if args.method == MethodKind.WEIERSTRASS.value and not args.no_certificate:
        raise InputError("--method weierstrass has no certificate: add --no-certificate")
    if args.seed is not None and args.guess is not None:
        raise InputError("--seed rotates the default starting points; "
                         "it takes no --guess")
    cfg = SolveConfig(method=MethodKind(args.method), p=args.p,
                      max_iter=args.max_iter, w_tol=args.tol,
                      require_certificate=not args.no_certificate)

    def one(path) -> tuple:
        f, guess = _load_request(args, path)
        if guess is None and args.seed is None:
            guess = default_init(f)
        elif guess is None:
            # default_init, rotated at random
            rng = np.random.default_rng(args.seed)
            guess = default_init(f, rotation=float(rng.uniform(0, 2 * np.pi)))
        result = solve(f, guess, cfg)
        disks = result.disks
        payload = _result_to_json(result, disks)
        return (2 if cfg.require_certificate and not result.certificate.issued else 0,
                payload, lambda: _solve_lines(cfg, result, disks, payload["order_estimate"]))

    return _solve_batch(args, one) if args.batch else one(args.input)


def _solve_lines(cfg: SolveConfig, result, disks, order) -> list:
    lines = [f"method: {cfg.method.value}   converged: {result.converged}   "
             f"iterations: {result.iterations}"]
    if result.certificate is not None:
        c = result.certificate
        lines.append(f"certificate issued: {c.issued}   E0 = {c.E0:.6g}   "
                     f"phi(E0) = {c.phi0:.6g}   tau = {c.bundle.tau:.6g}")
    lines += [f"root[{i}] = {z.real:+.15g} {z.imag:+.15g}j"
              for i, z in enumerate(result.final)] + _disk_lines(disks)
    if order is not None:
        lines.append(f"order estimate: {order:.3f}")
    return lines


def _solve_batch(args, one) -> tuple:
    """Map each JSON file of the directory, in name order, to one(path)."""
    if args.coeffs is not None or args.guess is not None or args.input:
        raise InputError("--batch takes no --coeffs, --guess or --input")
    directory = Path(args.batch)
    files = sorted(directory.glob("*.json"))
    if not files:
        raise InputError(f"no JSON files in {directory}")
    results, statuses = {}, set()
    for path in files:
        status, payload, _ = _attempt(one, path, f"{path.name}: ")
        statuses.add(status)
        if payload is not None:
            results[path.name] = payload
    # a failed file outranks an unissued certificate
    status = 1 if 1 in statuses else max(statuses)
    return status, results, lambda: [json.dumps(results)]


def _point_request(args) -> tuple:
    """(f, point vector, gauge bundle) of a certify or disks request."""
    f, guess = _load_request(args, args.input)
    if guess is None:
        raise InputError(f"{args.subcommand} needs --guess or a guess in the input file")
    ctx = norm_context(f.degree, args.p)
    return f, guess, gauge_bundle(MethodKind(args.method), ctx)


def _cmd_certify(args) -> tuple:
    cert = certify_initial(*_point_request(args))
    return (0 if cert.issued else 2), {"certificate": cert.to_dict()}, lambda: [
        f"issued: {cert.issued}   strict: {cert.strict}",
        f"E0 = {cert.E0:.6g}   tau = {cert.bundle.tau:.6g}   phi(E0) = {cert.phi0:.6g}"]


def _cmd_disks(args) -> tuple:
    disks, disjoint = inclusion_disks(*_point_request(args))
    return 0, _disks_payload(disks, disjoint), \
        lambda: [f"disjoint: {disjoint}"] + _disk_lines(disks)


def _cmd_thresholds(args) -> tuple:
    rows = []
    for method in (MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV):
        for p in (1.0, 2.0, math.inf):
            value = gauge_bundle(method, norm_context(args.n, p)).threshold
            if value is not None:
                rows.append({"method": method.value,
                             "p": "inf" if math.isinf(p) else p,
                             "threshold": value})
    return 0, {"n": args.n, "thresholds": rows}, lambda: [
        f"{r['method']:<14} p={r['p']!s:<5} threshold={r['threshold']:.10g}"
        for r in rows]


def _add_common(sub):
    sub.add_argument("--coeffs", type=reals,
                     help="comma-separated real coefficients, leading-first")
    sub.add_argument("--guess", type=reals, help="comma-separated real starting points")
    sub.add_argument("--input", help="JSON input file")
    sub.add_argument("--method", choices=sorted(m.value for m in MethodKind),
                     default=SolveConfig.method.value)
    sub.add_argument("--p", type=float, default=SolveConfig.p,
                     help="norm exponent (decimal or 'inf')")
    sub.add_argument("--json", action="store_true", help="emit JSON")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error exits 1 like any input error; 2 means "not issued"
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of main, built on first use and shared by later calls;
    parsing leaves it unchanged."""
    parser = _Parser(
        prog="rootcert",
        description="Simultaneous polynomial root-finding with convergence "
                    "certificates")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    solve_p = subs.add_parser("solve", help="run a (certified) solve")
    _add_common(solve_p)
    solve_p.add_argument("--max-iter", type=int, default=SolveConfig.max_iter)
    solve_p.add_argument("--tol", type=float, default=SolveConfig.w_tol)
    solve_p.add_argument("--no-certificate", action="store_true")
    solve_p.add_argument("--seed", type=int, default=None)
    solve_p.add_argument("--batch", help="directory of JSON inputs")
    solve_p.set_defaults(func=_cmd_solve)

    certify_p = subs.add_parser("certify", help="check the initial conditions")
    _add_common(certify_p)
    certify_p.set_defaults(func=_cmd_certify)

    disks_p = subs.add_parser("disks", help="inclusion disks at a point vector")
    _add_common(disks_p)
    disks_p.set_defaults(func=_cmd_disks)

    thr_p = subs.add_parser("thresholds", help="corollary threshold table")
    thr_p.add_argument("--n", type=int, required=True)
    thr_p.add_argument("--json", action="store_true")
    thr_p.set_defaults(func=_cmd_thresholds)

    return parser


def _attempt(cmd, args, prefix: str = "") -> tuple:
    """(status, payload, render) of cmd(args); a failure instead prints one
    stderr line, with prefix before its message, and gives no payload."""
    try:
        return cmd(args)
    except NotCertified as exc:
        status, line = 2, f"not certified: {prefix}{exc}"
    except ValueError as exc:
        # InputError, and the library's out-of-range arguments
        status, line = 1, f"input error: {prefix}{exc}"
    except RootCertError as exc:
        status, line = 1, f"error: {prefix}{exc}"
    print(line, file=sys.stderr)
    return status, None, lambda: []


def _request(argv) -> tuple:
    args = build_parser().parse_args(argv)
    # overflow and NaN show in the output (E0 = inf, null in JSON) and in
    # the exit status; numpy's warnings would only repeat them on stderr
    with np.errstate(all="ignore"):
        status, payload, render = args.func(args)
    return status, payload, (lambda: [json.dumps(payload)]) if args.json else render


def main(argv=None) -> int:
    status, _, render = _attempt(_request, argv)
    for line in render():
        print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
