"""Command-line front-end.

Subcommands: solve, certify, disks, thresholds.  Polynomials come either from
--coeffs (comma-separated reals, leading-first) or from a JSON file with
schema {"coeffs": [{"re": .., "im": ..}, ...], "guess": [...]}; solve checks
its flags before any input; --batch DIR solves each JSON file of DIR with one
SolveConfig, as --input would.  solve --seed S >= 0 rotates the default
starting points by one angle per request and conflicts with --guess; a guess
in an --input file takes precedence over it.  --json and --batch print the
payload, which only this module writes, as one line from json's C encoder (an
indent selects the pure-Python one; python -m json.tool indents), with null
for every float that is not finite.  A solve's payload writes its disks from
the final certificate, centred on its roots, so --json and --batch build no
Disk objects.  Each subcommand returns (exit status, output), built in the one
form that prints: the payload under --json or --batch, else the text lines.
_attempt turns a failure into a status, one stderr line and no output.
Requests run with numpy's floating-point warnings off, so stderr carries only
those lines.  Exit status: 0 on success, 2 on an unissued certificate in
require-certificate mode, 1 on input and usage errors; a batch exits 1 if any
file failed, else 2 if any certificate was not issued.
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
from .measures import _integer, norm_context
from .polynomials import Polynomial
from .solve import SolveConfig, default_init, solve


# writes every payload; a payload holds no cycle, so the encoder skips the
# check for one, and its bytes are json.dumps's
_ENCODER = json.JSONEncoder(check_circular=False)


class InputError(ValueError):
    pass


def _floats(values) -> list:
    """values as Python floats, None (null) where not finite, as JSON has no
    NaN or Infinity: E0, phi0, lambda, theta and each complex go through here."""
    parts = np.asarray(values, dtype=np.float64)
    out = parts.tolist()
    for i in np.flatnonzero(~np.isfinite(parts)).tolist():
        out[i] = None
    return out


def _complexes(values) -> list:
    parts = iter(_floats(np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)))
    return [{"re": re, "im": im} for re, im in zip(parts, parts)]


def _complex_from_json(obj) -> complex:
    try:
        # complex() rejects a string here, but takes true and false as 1 and 0
        if type(re := obj["re"]) is bool or type(im := obj["im"]) is bool:
            raise TypeError("re and im must be numbers")
        return complex(re, im)
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
            # bytes, so JSON's own encoding detection (a UTF-8 BOM, UTF-16
            # or UTF-32) applies instead of the locale's text decoding
            data = json.loads(Path(path).read_bytes())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
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


def _certificate_payload(cert) -> dict:
    b = cert.bundle
    E0, phi0, lam, theta = _floats([cert.E0, cert.phi0, cert.lam, cert.theta])
    return {"method": b.method.value, "n": b.ctx.n,
            "p": "inf" if math.isinf(b.ctx.p) else b.ctx.p, "E0": E0, "tau": b.tau,
            "phi0": phi0, "strict": cert.strict, "lambda": lam, "theta": theta,
            "rho": None if cert.rho is None else cert.rho.tolist(),
            "order": cert.order, "issued": cert.issued}


def _disks_payload(centres, radii, disjoint: bool) -> dict:
    """The disks and disjoint fields: centres as _complexes writes them, one radius each."""
    return {"disks": [{"center": c, "radius": r} for c, r in zip(centres, radii)],
            "disjoint": disjoint}


def _disk_lines(disks) -> list:
    return [f"disk[{i}]: center = {d.center:.15g}, radius = {d.radius:.3e}"
            for i, d in enumerate(disks)]


def _result_to_json(result) -> dict:
    """The payload of a solve.  Its disks are result.disks without a Disk
    built: the final certificate was decided at result.final, so disk i is
    centred on roots[i], with radius rho_i."""
    roots, c = _complexes(result.final), result.final_certificate
    radii = c.rho.tolist() if c is not None and c.issued else []
    return {
        "certificate": None if result.certificate is None
        else _certificate_payload(result.certificate),
        "converged": result.converged,
        "roots": roots,
        **_disks_payload(roots, radii, result.disjoint),
        "iterations": result.iterations,
        "order_estimate": result.order_estimate,
    }


def _cmd_solve(args) -> tuple:
    """Build the request's one SolveConfig and rotation, then solve its input or batch."""
    if args.method == MethodKind.WEIERSTRASS.value and not args.no_certificate:
        raise InputError("--method weierstrass has no certificate: add --no-certificate")
    if args.seed is not None and args.guess is not None:
        raise InputError("--seed rotates the default starting points; "
                         "it takes no --guess")
    cfg = SolveConfig(method=MethodKind(args.method), p=args.p,
                      max_iter=args.max_iter, w_tol=args.tol,
                      require_certificate=not args.no_certificate)
    init = default_init
    if args.seed is not None:
        rng = np.random.default_rng(_integer("--seed", args.seed, 0))
        init = functools.partial(default_init, rotation=float(rng.uniform(0, 2 * np.pi)))

    def one(path) -> tuple:
        f, guess = _load_request(args, path)
        result = solve(f, init(f) if guess is None else guess, cfg)
        return (2 if cfg.require_certificate and not result.certificate.issued else 0), result

    if args.batch:
        return _solve_batch(args, one)
    status, result = one(args.input)
    return status, _result_to_json(result) if args.json else _solve_lines(cfg, result)


def _solve_lines(cfg: SolveConfig, result) -> list:
    lines = [f"method: {cfg.method.value}   converged: {result.converged}   "
             f"iterations: {result.iterations}"]
    if result.certificate is not None:
        c = result.certificate
        lines.append(f"certificate issued: {c.issued}   E0 = {c.E0:.6g}   "
                     f"phi(E0) = {c.phi0:.6g}   tau = {c.bundle.tau:.6g}")
    lines += [f"root[{i}] = {z.real:+.15g} {z.imag:+.15g}j"
              for i, z in enumerate(result.final)] + _disk_lines(result.disks)
    if (order := result.order_estimate) is not None:
        lines.append(f"order estimate: {order:.3f}")
    return lines


def _solve_batch(args, one) -> tuple:
    """Map each JSON file of the directory, in name order, to one(path)'s payload."""
    if args.coeffs is not None or args.guess is not None or args.input:
        raise InputError("--batch takes no --coeffs, --guess or --input")
    directory = Path(args.batch)
    files = sorted(directory.glob("*.json"))
    if not files:
        raise InputError(f"no JSON files in {directory}")
    results, statuses = {}, set()
    for path in files:
        status, result = _attempt(one, path, f"{path.name}: ")
        statuses.add(status)
        if result is not None:
            results[path.name] = _result_to_json(result)
    # a failed file outranks an unissued certificate
    return (1 if 1 in statuses else max(statuses)), results


def _point_request(args) -> tuple:
    """(f, point vector, gauge bundle) of a certify or disks request."""
    f, guess = _load_request(args, args.input)
    if guess is None:
        raise InputError(f"{args.subcommand} needs --guess or a guess in the input file")
    ctx = norm_context(f.degree, args.p)
    return f, guess, gauge_bundle(MethodKind(args.method), ctx)


def _cmd_certify(args) -> tuple:
    cert = certify_initial(*_point_request(args))
    output = {"certificate": _certificate_payload(cert)} if args.json else [
        f"issued: {cert.issued}   strict: {cert.strict}",
        f"E0 = {cert.E0:.6g}   tau = {cert.bundle.tau:.6g}   phi(E0) = {cert.phi0:.6g}"]
    return (0 if cert.issued else 2), output


def _cmd_disks(args) -> tuple:
    disks, disjoint = inclusion_disks(*_point_request(args))
    if not args.json:
        return 0, [f"disjoint: {disjoint}"] + _disk_lines(disks)
    centres = _complexes([d.center for d in disks])
    return 0, _disks_payload(centres, [d.radius for d in disks], disjoint)


def _cmd_thresholds(args) -> tuple:
    rows = []
    for method in (MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV):
        for p in (1.0, 2.0, math.inf):
            value = gauge_bundle(method, norm_context(args.n, p)).threshold
            if value is not None:
                rows.append({"method": method.value,
                             "p": "inf" if math.isinf(p) else p,
                             "threshold": value})
    return 0, {"n": args.n, "thresholds": rows} if args.json else [
        f"{r['method']:<14} p={r['p']!s:<5} threshold={r['threshold']:.10g}" for r in rows]


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
    """(status, output) of cmd(args); a failure instead prints one stderr
    line, with prefix before its message, and gives no output."""
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
    return status, None


def _request(argv) -> tuple:
    args = build_parser().parse_args(argv)
    # overflow and NaN show in the output (E0 = inf, null in JSON) and in
    # the exit status; numpy's warnings would only repeat them on stderr
    with np.errstate(all="ignore"):
        status, output = args.func(args)
    for line in output if isinstance(output, list) else [_ENCODER.encode(output)]:
        print(line)
    return status, None


def main(argv=None) -> int:
    return _attempt(_request, argv)[0]


if __name__ == "__main__":
    sys.exit(main())
