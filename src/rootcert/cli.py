"""Command-line front-end.

Subcommands: solve, certify, disks, thresholds.  Polynomials come either
from --coeffs (comma-separated reals, leading-first) or from a JSON file
with schema {"coeffs": [{"re": .., "im": ..}, ...], "guess": [...]}.
Exit status: 0 on success, 2 on an unissued certificate in
require-certificate mode, 1 on input and usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .certify import certify_initial, corollary_threshold, gauge_bundle, inclusion_disks
from .errors import NotCertified, RootCertError, UnsupportedCombination
from .iterations import MethodKind
from .measures import norm_context
from .polynomials import Polynomial
from .solve import SolveConfig, default_init, solve


class InputError(Exception):
    pass


def _complex_to_json(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _complex_from_json(obj) -> complex:
    try:
        return complex(float(obj["re"]), float(obj["im"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise InputError(f"bad complex entry {obj!r}: {exc}") from None


def _complex_list(entries) -> np.ndarray:
    if not isinstance(entries, list):
        raise InputError(f"expected a list of complex entries, got {entries!r}")
    return np.array([_complex_from_json(c) for c in entries])


def _parse_inline(text: str, what: str) -> np.ndarray:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise InputError(f"cannot parse {what} {text!r}: {exc}") from None
    return np.asarray(values, dtype=np.complex128)


def _parse_p(text: str) -> float:
    try:
        return float(text)  # also reads "inf"
    except ValueError:
        raise InputError(f"bad p value {text!r}") from None


def _load_request(args) -> tuple:
    coeffs = guess = None
    if getattr(args, "input", None):
        try:
            data = json.loads(Path(args.input).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read {args.input}: {exc}") from None
        if not isinstance(data, dict) or "coeffs" not in data:
            raise InputError(f"{args.input}: not an object with a field 'coeffs'")
        coeffs = _complex_list(data["coeffs"])
        if data.get("guess") is not None:
            guess = _complex_list(data["guess"])
    if getattr(args, "coeffs", None):
        coeffs = _parse_inline(args.coeffs, "--coeffs")
    if getattr(args, "guess", None):
        guess = _parse_inline(args.guess, "--guess")
    if guess is not None and not np.all(np.isfinite(guess)):
        raise InputError("guess must be finite")
    if coeffs is None:
        raise InputError("no polynomial given: use --coeffs or --input")
    try:
        f = Polynomial(coeffs)
    except (RootCertError, ValueError) as exc:
        raise InputError(f"bad coefficients: {exc}") from None
    return f, guess


_METHODS = {m.value: m for m in MethodKind}


def _disks_payload(disks, disjoint: bool) -> dict:
    return {"disks": [{"center": _complex_to_json(d.center), "radius": d.radius}
                      for d in disks],
            "disjoint": disjoint}


def _disk_lines(disks) -> list:
    return [f"disk[{i}]: center = {d.center:.15g}, radius = {d.radius:.3e}"
            for i, d in enumerate(disks)]


def _result_to_json(result) -> dict:
    return {
        "certificate": None if result.certificate is None
        else result.certificate.to_dict(),
        "converged": result.converged,
        "roots": [_complex_to_json(z) for z in result.final],
        **_disks_payload(result.disks, result.disjoint),
        "iterations": result.iterations,
        "order_estimate": result.order_estimate,
    }


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _solve_request(args) -> tuple:
    """(f, starting vector, SolveConfig) of one solve request; without a
    guess the start is default_init, rotated at random when --seed is set."""
    f, guess = _load_request(args)
    if guess is None:
        rotation = 0.4
        if args.seed is not None:
            rotation = float(np.random.default_rng(args.seed).uniform(0, 2 * np.pi))
        guess = default_init(f, rotation=rotation)
    cfg = SolveConfig(method=_METHODS[args.method], p=_parse_p(args.p),
                      max_iter=args.max_iter, w_tol=args.tol,
                      require_certificate=not args.no_certificate)
    return f, guess, cfg


def _cmd_solve(args) -> int:
    f, guess, cfg = _solve_request(args)
    result = solve(f, guess, cfg)
    payload = _result_to_json(result)
    lines = [f"method: {cfg.method.value}   converged: {result.converged}   "
             f"iterations: {result.iterations}"]
    if result.certificate is not None:
        c = result.certificate
        lines.append(f"certificate issued: {c.issued}   E0 = {c.E0:.6g}   "
                     f"phi(E0) = {c.phi0:.6g}   tau = {c.tau:.6g}")
    for i, z in enumerate(result.final):
        lines.append(f"root[{i}] = {z.real:+.15g} {z.imag:+.15g}j")
    lines += _disk_lines(result.disks)
    if result.order_estimate is not None:
        lines.append(f"order estimate: {result.order_estimate:.3f}")
    _emit(payload, args.json, lines)
    if cfg.require_certificate and result.certificate is not None \
            and not result.certificate.issued:
        return 2
    return 0


def _point_request(args) -> tuple:
    """(f, point vector, gauge bundle) of a certify or disks request."""
    f, guess = _load_request(args)
    if guess is None:
        raise InputError(f"{args.subcommand} needs --guess or a guess in the input file")
    ctx = norm_context(f.degree, _parse_p(args.p))
    return f, guess, gauge_bundle(_METHODS[args.method], ctx)


def _cmd_certify(args) -> int:
    cert = certify_initial(*_point_request(args))
    lines = [f"issued: {cert.issued}   strict: {cert.strict}",
             f"E0 = {cert.E0:.6g}   tau = {cert.tau:.6g}   phi(E0) = {cert.phi0:.6g}"]
    _emit({"certificate": cert.to_dict()}, args.json, lines)
    return 0 if cert.issued else 2


def _cmd_disks(args) -> int:
    try:
        disks, disjoint = inclusion_disks(*_point_request(args))
    except NotCertified as exc:
        print(f"not certified: {exc}", file=sys.stderr)
        return 2
    _emit(_disks_payload(disks, disjoint), args.json,
          [f"disjoint: {disjoint}"] + _disk_lines(disks))
    return 0


def _cmd_thresholds(args) -> int:
    n = args.n
    rows = []
    for method in (MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV):
        for p in (1.0, 2.0, math.inf):
            ctx = norm_context(n, p)
            try:
                value = corollary_threshold(method, ctx)
            except UnsupportedCombination:
                continue
            rows.append({"method": method.value,
                         "p": "inf" if math.isinf(p) else p,
                         "threshold": value})
    lines = [f"{r['method']:<14} p={r['p']!s:<5} threshold={r['threshold']:.10g}"
             for r in rows]
    _emit({"n": n, "thresholds": rows}, args.json, lines)
    return 0


def _add_common(sub):
    sub.add_argument("--coeffs", help="comma-separated real coefficients, leading-first")
    sub.add_argument("--guess", help="comma-separated real starting points")
    sub.add_argument("--input", help="JSON input file")
    sub.add_argument("--method", choices=sorted(_METHODS), default="ehrlich")
    sub.add_argument("--p", default="inf", help="norm exponent (decimal or 'inf')")
    sub.add_argument("--json", action="store_true", help="emit JSON")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error exits 1 like any input error; 2 means "not issued"
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rootcert",
        description="Simultaneous polynomial root-finding with convergence "
                    "certificates")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    solve_p = subs.add_parser("solve", help="run a (certified) solve")
    _add_common(solve_p)
    solve_p.add_argument("--max-iter", type=int, default=100)
    solve_p.add_argument("--tol", type=float, default=1e-13)
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


def _run_batch(args) -> int:
    directory = Path(args.batch)
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"no JSON files in {directory}", file=sys.stderr)
        return 1

    results = {}
    for path in files:
        sub = argparse.Namespace(**{**vars(args), "input": str(path),
                                    "coeffs": None, "guess": None})
        results[path.name] = _result_to_json(solve(*_solve_request(sub)))
    print(json.dumps(results, indent=2))
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "batch", None):
            return _run_batch(args)
        return args.func(args)
    except (InputError, ValueError) as exc:
        # the library raises ValueError only on out-of-range arguments
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except RootCertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
