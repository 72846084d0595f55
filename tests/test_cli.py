import json
import sys

import numpy as np
import pytest

from rootcert import (MethodKind, Polynomial, SolveConfig, gauge_bundle,
                      norm_context, solve)
from rootcert import cli
from rootcert.cli import main
from conftest import roots_of_unity_just_below_tau


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


# Tanabe's step from this guess overflows to (inf, -inf); the run stops
# there uncertified, which --no-certificate accepts with exit 0
NON_FINITE_ROOTS = ["solve", "--coeffs", "1e-300,1,1", "--guess", "1e100,-1e100",
                    "--method", "tanabe", "--no-certificate"]
NULL_ROOTS = [{"re": None, "im": 0.0}, {"re": None, "im": 0.0}]


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestSolve:
    def test_quadratic_json(self, capsys):
        code, data, _ = run_json(
            capsys, "solve", "--method", "ehrlich", "--p", "inf",
            "--coeffs", "1,0,-1", "--guess", "2,-2")
        assert code == 0
        assert data["converged"] is True
        assert data["certificate"]["issued"] is True
        roots = sorted((z["re"], z["im"]) for z in data["roots"])
        assert roots[0] == pytest.approx((-1.0, 0.0), abs=1e-12)
        assert roots[1] == pytest.approx((1.0, 0.0), abs=1e-12)
        assert data["disjoint"] is True and len(data["disks"]) == 2
        assert data["iterations"] <= 6

    def test_unissued_exit_code(self, capsys):
        code, data, _ = run_json(capsys, "solve", "--coeffs", "1,0,-1",
                                 "--guess", "0.6,-0.6")
        assert code == 2
        assert data["certificate"]["issued"] is False
        assert data["converged"] is False

    def test_no_certificate_flag(self, capsys):
        code, data, _ = run_json(capsys, "solve", "--coeffs", "1,0,-1",
                                 "--guess", "0.6,-0.6", "--no-certificate")
        assert code == 0
        assert data["converged"] is True

    def test_weierstrass_needs_the_no_certificate_flag(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--coeffs", "1,0,-1",
                                 "--method", "weierstrass")
        assert code == 1 and out == ""
        assert err.startswith("input error: ") and "--no-certificate" in err
        code, data, err = run_json(capsys, "solve", "--coeffs", "1,0,-1",
                                   "--method", "weierstrass", "--no-certificate")
        assert code == 0 and err == ""
        assert data["converged"] is True and data["certificate"] is None

    def test_default_init_with_seed_reproducible(self, capsys):
        a = run_json(capsys, "solve", "--coeffs", "1,0,-1", "--seed", "5",
                     "--no-certificate")
        b = run_json(capsys, "solve", "--coeffs", "1,0,-1", "--seed", "5",
                     "--no-certificate")
        assert a == b
        assert a[0] == 0 and a[1]["converged"] is True

    def test_human_readable_output(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--coeffs", "1,0,-1",
                               "--guess", "2,-2")
        assert code == 0
        assert "converged: True" in out
        assert "certificate issued: True" in out
        assert "root[0]" in out

    def test_order_estimate_line(self, capsys):
        # (z - 1)^2 (z + 1): linear convergence at the double root gives
        # enough E values for an estimate
        argv = ["solve", "--coeffs", "1,-1,-1,1", "--no-certificate"]
        code, out, _ = run_cli(capsys, *argv)
        _, data, _ = run_json(capsys, *argv)
        assert code == 0 and data["order_estimate"] is not None
        assert f"order estimate: {data['order_estimate']:.3f}" in out.splitlines()

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_order_estimate_computed_once(self, capsys, monkeypatch, mode):
        # rootcert.solve names the function, so patch the module itself
        module = sys.modules["rootcert.solve"]
        calls = []

        def counted(trace, _original=module.estimate_order):
            calls.append(len(trace))
            return _original(trace)

        monkeypatch.setattr(module, "estimate_order", counted)
        code, out, _ = run_cli(capsys, "solve", "--coeffs", "1,-1,-1,1",
                               "--no-certificate", *mode)
        assert code == 0 and len(calls) == 1
        assert "order estimate: " in out or mode == ["--json"]

    def test_infinite_tolerance_is_input_error(self, capsys):
        # an infinite tolerance would report the starting points as roots
        code, out, err = run_cli(capsys, "solve", "--coeffs", "1,0,-1",
                                 "--guess", "2,-2", "--tol", "inf")
        assert code == 1 and out == ""
        assert err.startswith("input error: ") and "w_tol" in err

    def test_json_round_trips_bitwise(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--coeffs", "1,0,-1",
                               "--guess", "2,-2", "--json")
        assert code == 0
        data = json.loads(out)
        again = json.loads(json.dumps(data))
        assert again == data
        for z in data["roots"]:
            assert np.float64(z["re"]) == z["re"]


class TestCertify:
    def test_exact_roots_p1(self, capsys):
        code, data, _ = run_json(
            capsys, "certify", "--method", "dochev-byrnev", "--p", "1",
            "--coeffs", "1,0,-1", "--guess", "1.0,-1.0")
        assert code == 0
        cert = data["certificate"]
        assert cert["issued"] is True
        assert cert["E0"] == 0.0
        assert cert["lambda"] == 0.0

    def test_issued_fields(self, capsys):
        code, data, _ = run_json(capsys, "certify", "--coeffs", "1,0,-1",
                                 "--guess", "2,-2")
        assert code == 0
        cert = data["certificate"]
        assert cert["E0"] == 0.1875
        assert cert["method"] == "ehrlich"
        assert cert["order"] == 3
        np.testing.assert_allclose(cert["rho"], [1.0243902, 1.0243902],
                                   rtol=1e-6)

    def test_unissued_exit_2(self, capsys):
        code, _, _ = run_json(capsys, "certify", "--coeffs", "1,0,-1",
                              "--guess", "0.6,-0.6")
        assert code == 2

    def test_unissued_certificate_json(self, capsys):
        # E0 = 4/9 >= tau = 1/3: every value read from phi(E0) is false or null
        code, data, _ = run_json(capsys, "certify", "--coeffs", "1,0,-1",
                                 "--guess", "0.6,-0.6")
        assert code == 2
        assert data == {"certificate": {
            "method": "ehrlich", "n": 2, "p": "inf", "E0": 0.4444444444444445,
            "tau": 1 / 3, "phi0": None, "strict": False, "lambda": None,
            "theta": None, "rho": None, "order": None, "issued": False}}

    def test_beta_overflow_just_below_tau_exits_2(self, capsys, tmp_path):
        # Ehrlich at n = 300, p = 2: beta overflows at this E0 < tau
        ctx = norm_context(300, 2.0)
        f, x = roots_of_unity_just_below_tau(
            300, ctx, gauge_bundle(MethodKind.EHRLICH, ctx).tau)
        path = tmp_path / "z300.json"
        path.write_text(json.dumps({
            "coeffs": [{"re": c.real, "im": c.imag} for c in f.coeffs],
            "guess": [{"re": z.real, "im": z.imag} for z in x]}))
        code, data, err = run_json(capsys, "certify", "--input", str(path),
                                   "--p", "2")
        assert code == 2 and err == ""
        assert data["certificate"]["issued"] is False
        assert data["certificate"]["phi0"] is None

    @pytest.mark.parametrize("subcommand", ["certify", "disks"])
    def test_uncertifiable_method_named_by_its_value(self, capsys, subcommand):
        code, out, err = run_cli(capsys, subcommand, "--method", "weierstrass",
                                 "--coeffs", "1,0,-1", "--guess", "2,-2")
        assert (code, out) == (1, "")
        assert err == "error: no certification for the method 'weierstrass'\n"

    def test_missing_guess_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "certify", "--coeffs", "1,0,-1")
        assert code == 1
        assert "input error" in err


class TestDisks:
    def test_certified_point(self, capsys):
        code, data, _ = run_json(capsys, "disks", "--coeffs", "1,0,-1",
                                 "--guess", "2,-2")
        assert code == 0
        assert data["disjoint"] is True
        radii = [d["radius"] for d in data["disks"]]
        np.testing.assert_allclose(radii, [1.0243902, 1.0243902], rtol=1e-6)

    def test_uncertified_point(self, capsys):
        code, _, err = run_cli(capsys, "disks", "--coeffs", "1,0,-1",
                               "--guess", "0.6,-0.6")
        assert code == 2
        assert "not certified" in err


class TestThresholds:
    def test_n2_table(self, capsys):
        code, data, _ = run_json(capsys, "thresholds", "--n", "2")
        assert code == 0
        table = {(r["method"], str(r["p"])): r["threshold"]
                 for r in data["thresholds"]}
        assert table[("ehrlich", "inf")] == pytest.approx(0.25)
        assert table[("dochev-byrnev", "inf")] == pytest.approx(2 / 9)
        assert table[("dochev-byrnev", "1.0")] == pytest.approx(0.2636,
                                                               abs=5e-4)
        # Ehrlich covers all three exponents; the other bundle only the
        # endpoint ones
        methods = [r["method"] for r in data["thresholds"]]
        assert methods.count("ehrlich") == 3
        assert methods.count("dochev-byrnev") == 2

    def test_human_readable(self, capsys):
        code, out, _ = run_cli(capsys, "thresholds", "--n", "5")
        assert code == 0
        assert "ehrlich" in out and "threshold=0.1" in out


class TestInputHandling:
    def test_json_input_file(self, capsys, tmp_path):
        path = tmp_path / "req.json"
        path.write_text(json.dumps({
            "coeffs": [{"re": 1, "im": 0}, {"re": 0, "im": 0},
                       {"re": -1, "im": 0}],
            "guess": [{"re": 2, "im": 0}, {"re": -2, "im": 0}],
        }))
        code, data, _ = run_json(capsys, "solve", "--input", str(path))
        assert code == 0
        assert data["converged"] is True

    def test_bad_coeffs(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--coeffs", "1,oops,-1",
                               "--guess", "2,-2")
        assert code == 1
        assert "input error" in err

    def test_zero_leading_coefficient(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--coeffs", "0,1,-1",
                               "--guess", "2,-2")
        assert code == 1
        assert "input error" in err

    def test_missing_polynomial(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--guess", "2,-2")
        assert code == 1
        assert "no polynomial" in err

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
    def test_input_file_in_a_json_encoding(self, capsys, tmp_path, encoding):
        # read as bytes: JSON's encoding detection takes a UTF-8 BOM, UTF-16
        # and UTF-32, whatever the locale
        _write_request(tmp_path / "plain.json", [1, 0, -1], [2, -2])
        path = tmp_path / "req.json"
        path.write_bytes((tmp_path / "plain.json").read_text().encode(encoding))
        code, data, err = run_json(capsys, "solve", "--input", str(path))
        _, want, _ = run_json(capsys, "solve", "--input", str(tmp_path / "plain.json"))
        assert (code, err) == (0, "") and data == want

    def test_undecodable_input_file(self, capsys, tmp_path):
        path = tmp_path / "req.json"
        path.write_bytes(b'{"coeffs": [\xff]}')
        code, _, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1
        assert err.startswith("input error: cannot read the input file: ")

    def test_unreadable_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--input",
                               str(tmp_path / "absent.json"))
        assert code == 1
        assert "input error" in err

    def test_bad_p(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--coeffs", "1,0,-1",
                               "--guess", "2,-2", "--p", "nope")
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "--coeffs", "1,0,-1", "--guess", "2,-2", "--max-iter", "0"],
        ["solve", "--coeffs", "1,0,-1", "--guess", "2,-2,3"],
        ["solve", "--coeffs", "1,0,-1", "--guess", "nan,-2", "--no-certificate"],
        ["solve", "--coeffs", "1,0,-1", "--guess", "inf,-2"],
        ["thresholds", "--n", "1"],
        ["certify", "--coeffs", "1,0,-1", "--guess", "2,-2,3"],
        ["disks", "--coeffs", "1,0,-1", "--guess", "2,-2,3"],
        ["solve", "--coeffs", "1,0,-1", "--guess", "2,-2", "--p", "0.5"],
        ["certify", "--coeffs", "1,0,-1", "--guess", "2,-2", "--p", "nan"],
        ["solve", "--coeffs", "1,0"],
        ["solve", "--coeffs", "1,inf,-1"],
        ["solve", "--coeffs", "1,0,-1", "--guess", "2,-2", "--seed", "3"],
        ["solve", "--coeffs", "1,,0,-1", "--guess", "2,-2"],
        ["solve", "--coeffs", "1,0,-1", "--guess", "2,,-2"],
        ["thresholds", "--n", "1" + "0" * 400],
        ["solve", "--coeffs", "1,0,-1", "--seed", "1" + "0" * 400],
    ])
    def test_out_of_range_input(self, capsys, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert "input error" in err

    @pytest.mark.parametrize("subcommand", ["certify", "disks"])
    @pytest.mark.parametrize("guess", ["nan,-2", "inf,-2"])
    def test_non_finite_guess_is_input_error(self, capsys, subcommand, guess):
        code, out, err = run_cli(capsys, subcommand, "--coeffs", "1,0,-1",
                                 "--guess", guess, "--json")
        assert code == 1
        assert "input error" in err
        assert out == ""

    def test_flags_checked_before_the_input_is_read(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "solve", "--input",
                                 str(tmp_path / "absent.json"), "--max-iter", "0")
        assert (code, out) == (1, "")
        assert err == "input error: max_iter must be an integer >= 1, got 0\n"

    def test_guess_in_file_takes_precedence_over_seed(self, capsys, tmp_path):
        _write_request(tmp_path / "a.json", [1, 0, 0, -1], [1.2, -0.6, 0.1])
        one = ["solve", "--input", str(tmp_path / "a.json"), "--no-certificate"]
        seeded = run_cli(capsys, *one, "--seed", "3", "--json")
        assert seeded == run_cli(capsys, *one, "--json")
        assert seeded[0] == 0 and seeded[2] == ""

    def test_guess_flag_replaces_the_file_guess(self, capsys, tmp_path):
        # the file's guess does not certify (exit 2); the flag's does
        _write_request(tmp_path / "a.json", [1, 0, -1], [0.6, -0.6])
        code, data, err = run_json(capsys, "solve", "--input", str(tmp_path / "a.json"),
                                   "--guess", "2,-2")
        assert (code, err) == (0, "")
        assert data["certificate"]["issued"] is True

    def test_coeffs_flag_keeps_the_file_guess(self, capsys, tmp_path):
        _write_request(tmp_path / "a.json", [1, 0, -1], [2, -2])
        code, out, err = run_cli(capsys, "solve", "--input", str(tmp_path / "a.json"),
                                 "--coeffs", "1,0,0,-1")
        assert (code, out) == (1, "")
        assert err == "input error: 2 points and n = 3 for degree 3\n"

    def test_non_finite_default_start_is_input_error(self, capsys):
        # main runs each request with numpy's warnings off, so the overflow
        # in default_init's division leaves only the one error line
        code, out, err = run_cli(capsys, "solve", "--coeffs", "1e-320,1,-1")
        assert (code, out) == (1, "")
        assert err == ("input error: default_init: the starting circle is not "
                       "finite for these coefficients\n")

    def test_non_finite_guess_in_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"coeffs": [{"re": 1, "im": 0}, {"re": 0, "im": 0}, '
                        '{"re": -1, "im": 0}], "guess": [{"re": NaN, "im": 0}, '
                        '{"re": -2, "im": 0}]}')
        code, _, err = run_cli(capsys, "certify", "--input", str(path))
        assert code == 1
        assert "input error" in err

    @pytest.mark.parametrize("argv, status, read, value", [
        # f overflows at this finite guess, so E0 is not finite
        pytest.param(["solve", "--coeffs", "1,0,-1", "--guess", "1e300,-1e300"],
                     2, lambda data: data["certificate"]["E0"], None, id="solve"),
        pytest.param(["certify", "--coeffs", "1,0,-1", "--guess", "1e300,-1e300"],
                     2, lambda data: data["certificate"]["E0"], None, id="certify"),
        # the run's one step lands at (inf, -inf), its final iterate
        pytest.param(NON_FINITE_ROOTS, 0, lambda data: data["roots"], NULL_ROOTS,
                     id="roots"),
    ])
    def test_overflowing_measure_prints_valid_json(self, capsys, argv, status,
                                                   read, value):
        # the JSON writes every float that is not finite as null
        code, out, _ = run_cli(capsys, *argv, "--json")
        assert code == status
        data = json.loads(out, parse_constant=_reject_constant)
        assert data["certificate"]["issued"] is False
        assert read(data) == value

    def test_non_finite_roots_print_as_inf_in_text(self, capsys):
        code, out, err = run_cli(capsys, *NON_FINITE_ROOTS)
        assert (code, err) == (0, "")
        assert "root[0] = +inf +0j\nroot[1] = -inf +0j\n" in out

    def test_coinciding_components_exit_1(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--coeffs", "1,0,-1",
                                 "--guess", "1,1")
        assert (code, out, err) == (1, "", "error: components coincide (index 0)\n")

    @pytest.mark.parametrize("subcommand, err_lines", [
        ("solve", 0), ("certify", 0), ("disks", 1)])
    def test_overflowing_measure_leaves_stderr_clean(self, capsys, subcommand,
                                                     err_lines):
        # no RuntimeWarning mark: pyproject's error::RuntimeWarning turns
        # any numpy warning that leaks out of the request into a failure;
        # the non-finite E0 shows in the output and the exit status
        code, _, err = run_cli(capsys, subcommand, "--coeffs", "1,0,-1",
                               "--guess", "1e300,-1e300")
        assert code == 2
        lines = err.splitlines()
        assert len(lines) == err_lines
        assert all(line.startswith("not certified: ") for line in lines)

    @pytest.mark.parametrize("content", [
        "5",
        "null",
        '{"coeffs": 5}',
        '{"coeffs": [{"re": 1, "im": 0}, {"re": -1, "im": 0}], "guess": 7}',
        '{"coeffs": [{"re": 1}, {"re": 0, "im": 0}, {"re": -1, "im": 0}]}',
        '{"coeffs": [{"re": "one", "im": 0}, {"re": 0, "im": 0}, {"re": -1, "im": 0}]}',
        # only JSON numbers are numbers: not true, not "1", not one too large
        '{"coeffs": [{"re": true, "im": 0}, {"re": 0, "im": 0}, {"re": -1, "im": 0}]}',
        '{"coeffs": [{"re": "1", "im": 0}, {"re": 0, "im": 0}, {"re": -1, "im": 0}]}',
        pytest.param('{"coeffs": [{"re": 1' + '0' * 400 + ', "im": 0}, '
                     '{"re": 0, "im": 0}, {"re": -1, "im": 0}]}', id="huge-int"),
    ])
    def test_malformed_json_is_input_error(self, capsys, tmp_path, content):
        path = tmp_path / "req.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, "solve", "--input", str(path))
        assert code == 1
        assert "input error" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["solve", "--coeffs", "1,0,-1", "--method", "foo"],
        ["solve", "--coeffs", "1,0,-1", "--max-iter", "abc"],
        ["thresholds", "--n", "x"],
        [],
    ])
    def test_usage_error_exits_1(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert "input error" in err
        assert out == ""

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--method" in capsys.readouterr().out

    def test_domain_error_reported(self, capsys):
        # z^2 + 3 at (1, -1): the Ehrlich denominator vanishes
        code, _, err = run_cli(capsys, "solve", "--coeffs", "1,0,3",
                               "--guess", "1,-1", "--no-certificate")
        assert code == 1
        assert "error" in err


def _write_request(path, coeffs, guess=None):
    request = {"coeffs": [{"re": float(c), "im": 0.0} for c in coeffs]}
    if guess is not None:
        request["guess"] = [{"re": float(z), "im": 0.0} for z in guess]
    path.write_text(json.dumps(request))


class TestBatch:
    def test_batch_directory(self, capsys, tmp_path):
        for name, coeffs in [("a", [1, 0, -1]), ("b", [1, 0, -4])]:
            (tmp_path / f"{name}.json").write_text(json.dumps({
                "coeffs": [{"re": float(c), "im": 0.0} for c in coeffs],
            }))
        code, out, _ = run_cli(capsys, "solve", "--batch", str(tmp_path),
                               "--no-certificate")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"a.json", "b.json"}
        assert data["a.json"]["converged"] and data["b.json"]["converged"]
        roots_b = sorted(z["re"] for z in data["b.json"]["roots"])
        np.testing.assert_allclose(roots_b, [-2, 2], atol=1e-10)

    def test_batch_reads_a_file_with_a_byte_order_mark(self, capsys, tmp_path):
        _write_request(tmp_path / "a.json", [1, 0, -1], [2, -2])
        _, want, _ = run_json(capsys, "solve", "--input", str(tmp_path / "a.json"))
        (tmp_path / "a.json").write_bytes(b"\xef\xbb\xbf" + (tmp_path / "a.json").read_bytes())
        code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"a.json": want}

    def test_batch_honours_seed(self, capsys, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({
            "coeffs": [{"re": float(c), "im": 0.0} for c in [1, 0, 0, -1]],
        }))
        one = ["solve", "--input", str(tmp_path / "a.json"), "--no-certificate"]
        _, seeded, _ = run_json(capsys, *one, "--seed", "5")
        _, unseeded, _ = run_json(capsys, *one)
        code, out, _ = run_cli(capsys, "solve", "--batch", str(tmp_path),
                               "--seed", "5", "--no-certificate")
        assert code == 0
        assert seeded["roots"] != unseeded["roots"]
        assert json.loads(out)["a.json"]["roots"] == seeded["roots"]

    def test_seed_drawn_once_per_batch(self, capsys, tmp_path, monkeypatch):
        # every file without a guess gets the request's one rotation
        draws = []

        def counted(*args, _original=np.random.default_rng):
            draws.append(args)
            return _original(*args)

        monkeypatch.setattr(np.random, "default_rng", counted)
        for name in "abc":
            _write_request(tmp_path / f"{name}.json", [1, 0, 0, -1])
        code, out, _ = run_cli(capsys, "solve", "--batch", str(tmp_path),
                               "--seed", "5", "--no-certificate")
        assert code == 0 and draws == [(5,)]
        roots = [r["roots"] for r in json.loads(out).values()]
        assert roots[0] == roots[1] == roots[2]

    def test_bad_file_reported_and_rest_solved(self, capsys, tmp_path):
        (tmp_path / "a.json").write_text(json.dumps({
            "coeffs": [{"re": float(c), "im": 0.0} for c in [1, 0, -1]],
        }))
        (tmp_path / "b.json").write_text("5")
        one = ["solve", "--input", str(tmp_path / "a.json"), "--no-certificate"]
        _, alone, _ = run_json(capsys, *one)
        code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path),
                                 "--no-certificate")
        assert code == 1
        assert json.loads(out) == {"a.json": alone}
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: b.json: ")

    def test_exit_status_is_the_worst_file(self, capsys, tmp_path):
        _write_request(tmp_path / "a.json", [1, 0, -1], [2, -2])
        _write_request(tmp_path / "b.json", [1, 0, -1], [0.6, -0.6])
        code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path))
        assert code == 2 and err == ""
        data = json.loads(out)
        assert set(data) == {"a.json", "b.json"}
        assert data["a.json"]["certificate"]["issued"] is True
        assert data["b.json"]["certificate"]["issued"] is False
        # a failed file outranks an unissued certificate
        (tmp_path / "c.json").write_text("5")
        code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path))
        assert code == 1
        assert json.loads(out) == data
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: c.json: ")

    @pytest.mark.parametrize("option", [
        ["--coeffs", "1,0,-1"], ["--guess", "2,-2"], ["--input", "a.json"]])
    def test_single_request_options_rejected(self, capsys, tmp_path, option):
        _write_request(tmp_path / "a.json", [1, 0, -1], [2, -2])
        code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path), *option)
        assert code == 1 and out == ""
        assert err.startswith("input error: ")

    @pytest.mark.parametrize("flag", [
        ["--max-iter", "0"], ["--p", "0.5"], ["--tol", "nan"], ["--seed", "-1"]])
    def test_bad_flag_reported_once_before_any_file(self, capsys, tmp_path, flag):
        # the request's one config is built before the directory is read
        _write_request(tmp_path / "a.json", [1, 0, -1], [2, -2])
        _write_request(tmp_path / "b.json", [1, 0, -4])
        code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path), *flag)
        assert (code, out) == (1, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error: ")
        assert ".json" not in lines[0]

    def test_bad_seed_named_though_every_file_holds_a_guess(self, capsys, tmp_path):
        # the seed is checked with the other flags, before any file is read
        _write_request(tmp_path / "a.json", [1, 0, -1], [2, -2])
        code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path),
                                 "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "input error: --seed must be an integer >= 0, got -1\n"

    def test_non_finite_roots_print_as_null(self, capsys, tmp_path):
        _write_request(tmp_path / "a.json", [1e-300, 1, 1], [1e100, -1e100])
        code, out, err = run_cli(capsys, "solve", "--batch", str(tmp_path),
                                 *NON_FINITE_ROOTS[-3:])
        assert (code, err) == (0, "")
        data = json.loads(out, parse_constant=_reject_constant)
        assert data["a.json"]["roots"] == NULL_ROOTS

    def test_empty_batch_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--batch", str(tmp_path))
        assert code == 1
        assert "no JSON files" in err


class TestOutputForm:
    @pytest.mark.parametrize("argv", [
        ["solve", "--coeffs", "1,0,-1", "--guess", "2,-2", "--json"],
        ["solve", "--coeffs", "1,0,-1", "--guess", "0.6,-0.6", "--json"],
        ["certify", "--coeffs", "1,0,-1", "--guess", "2,-2", "--json"],
        ["disks", "--coeffs", "1,0,-1", "--guess", "2,-2", "--json"],
        ["thresholds", "--n", "4", "--json"],
    ])
    def test_json_is_one_compact_line(self, capsys, argv):
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 2)
        assert out == json.dumps(json.loads(out)) + "\n"

    def test_batch_is_one_compact_line(self, capsys, tmp_path):
        _write_request(tmp_path / "a.json", [1, 0, -1], [2, -2])
        _write_request(tmp_path / "b.json", [1, 0, -4])
        code, out, _ = run_cli(capsys, "solve", "--batch", str(tmp_path))
        assert code == 0
        assert out == json.dumps(json.loads(out)) + "\n"

    def test_certified_solve_round_trips_bitwise(self, capsys, tmp_path):
        # at --tol 1e-6 the run stops with non-zero radii, and roots and
        # disk centers keep the -0.0 imaginary parts of the guess
        coeffs = [1.0, -6.0, 11.0, -6.0]
        guess = [complex(0.9, -0.0), complex(2.1, 0.0), complex(3.1, -0.0)]
        path = tmp_path / "req.json"
        path.write_text(json.dumps({
            "coeffs": [{"re": c, "im": 0.0} for c in coeffs],
            "guess": [{"re": z.real, "im": z.imag} for z in guess]}))
        code, data, _ = run_json(capsys, "solve", "--input", str(path),
                                 "--tol", "1e-6")
        result = solve(Polynomial(coeffs), np.array(guess),
                       SolveConfig(w_tol=1e-6))
        assert code == 0 and result.certificate.issued and result.disks

        def bits(values):
            return [float(v).hex() for v in values]

        final = result.final.tolist()
        want_roots = bits(v for z in final for v in (z.real, z.imag))
        assert "-0x0.0p+0" in want_roots and "0x0.0p+0" in want_roots
        assert bits(v for z in data["roots"] for v in (z["re"], z["im"])) == want_roots
        assert bits(data["certificate"]["rho"]) == bits(result.certificate.rho)
        centers = [d["center"] for d in data["disks"]]
        assert bits(v for c in centers for v in (c["re"], c["im"])) == bits(
            v for d in result.disks for v in (d.center.real, d.center.imag))
        assert bits(d["radius"] for d in data["disks"]) == bits(
            d.radius for d in result.disks)
        assert all(d.radius > 0 for d in result.disks)

    @pytest.mark.parametrize("coeffs, guess, options, cfg, disks", [
        # issued, stopped at --tol 1e-6 with non-zero radii
        ("1,-6,11,-6", "0.9,2.1,3.1", ["--tol", "1e-6"], SolveConfig(w_tol=1e-6), 3),
        ("1,0,-1", "0.6,-0.6", [], SolveConfig(), 0),  # not issued: exit 2
        ("1,0,-1", "0.6,-0.6", ["--no-certificate"],
         SolveConfig(require_certificate=False), 0),
    ])
    def test_solve_text_formats_the_result(self, capsys, coeffs, guess, options,
                                           cfg, disks):
        code, out, err = run_cli(capsys, "solve", "--coeffs", coeffs,
                                 "--guess", guess, *options)
        result = solve(Polynomial(cli.reals(coeffs)), cli.reals(guess), cfg)
        c = result.certificate
        want = [f"method: ehrlich   converged: {result.converged}   "
                f"iterations: {result.iterations}",
                f"certificate issued: {c.issued}   E0 = {c.E0:.6g}   "
                f"phi(E0) = {c.phi0:.6g}   tau = {c.bundle.tau:.6g}"]
        want += [f"root[{i}] = {z.real:+.15g} {z.imag:+.15g}j"
                 for i, z in enumerate(result.final)]
        want += [f"disk[{i}]: center = {d.center:.15g}, radius = {d.radius:.3e}"
                 for i, d in enumerate(result.disks)]
        assert result.order_estimate is None and len(result.disks) == disks
        assert out.splitlines() == want and err == ""
        assert code == (2 if cfg.require_certificate and not c.issued else 0)

    @pytest.mark.parametrize("argv, code, text", [
        (["certify", "--coeffs", "1,0,-1", "--guess", "2,-2"], 0,
         "issued: True   strict: True\n"
         "E0 = 0.1875   tau = 0.333333   phi(E0) = 0.183673\n"),
        (["certify", "--method", "dochev-byrnev", "--p", "1", "--coeffs", "1,0,-1",
          "--guess", "1.1,-0.9"], 0,
         "issued: True   strict: True\n"
         "E0 = 0.1   tau = 0.618034   phi(E0) = 0.0364082\n"),
        (["certify", "--coeffs", "1,0,-1", "--guess", "0.6,-0.6"], 2,
         "issued: False   strict: False\n"
         "E0 = 0.444444   tau = 0.333333   phi(E0) = inf\n"),
        (["disks", "--coeffs", "1,0,-1", "--guess", "2,-2"], 0,
         "disjoint: True\n"
         "disk[0]: center = 2+0j, radius = 1.024e+00\n"
         "disk[1]: center = -2+0j, radius = 1.024e+00\n"),
        (["thresholds", "--n", "4"], 0,
         "ehrlich        p=1.0   threshold=0.25\n"
         "ehrlich        p=2.0   threshold=0.1830127019\n"
         "ehrlich        p=inf   threshold=0.125\n"
         "dochev-byrnev  p=1.0   threshold=0.263606336\n"
         "dochev-byrnev  p=inf   threshold=0.1111111111\n"),
    ])
    def test_text_lines(self, capsys, argv, code, text):
        assert run_cli(capsys, *argv) == (code, text, "")

    def test_json_and_batch_render_no_text(self, capsys, tmp_path, monkeypatch):
        # each request builds only the output it prints: --json and --batch
        # render no text, and text mode writes no payload
        _write_request(tmp_path / "a.json", [1, -6, 11, -6], [0.9, 2.1, 3.1])
        _write_request(tmp_path / "b.json", [1, 0, -4])
        single = ["solve", "--input", str(tmp_path / "a.json"), "--json"]
        batch = ["solve", "--batch", str(tmp_path)]
        text = [[command, *single[1:-1]] for command in ("solve", "certify", "disks")]
        want = [run_cli(capsys, *single), run_cli(capsys, *batch)]
        want_text = [run_cli(capsys, *argv) for argv in text]

        def not_printed(*args):
            raise AssertionError("an output built where it is not printed")

        monkeypatch.setattr(cli, "_solve_lines", not_printed)
        monkeypatch.setattr(cli, "_disk_lines", not_printed)
        assert [run_cli(capsys, *single), run_cli(capsys, *batch)] == want
        assert [code for code, _, _ in want] == [0, 0]
        with pytest.raises(AssertionError, match="not printed"):
            main(single[:-1])
        monkeypatch.undo()
        for name in ("_result_to_json", "_certificate_payload", "_disks_payload"):
            monkeypatch.setattr(cli, name, not_printed)
        assert [run_cli(capsys, *argv) for argv in text] == want_text
        assert [code for code, _, _ in want_text] == [0, 0, 0]
        with pytest.raises(AssertionError, match="not printed"):
            main(single)


@pytest.mark.parametrize("mode", [[], ["--json"], ["--batch"]],
                         ids=["text", "json", "batch"])
def test_disks_built_once_per_solved_input(capsys, tmp_path, monkeypatch, mode):
    # one disjointness test per solved input where a payload prints its
    # flag; the payload writes its disks from the final certificate, and
    # only text mode, which prints no flag, builds a disk list
    calls = []
    for module in (sys.modules["rootcert.solve"], sys.modules["rootcert.certify"]):
        for name in ("disks_at", "disjoint_at"):
            def counted(*args, _name=name, _original=getattr(module, name)):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(module, name, counted)
    _write_request(tmp_path / "a.json", [1, -6, 11, -6], [0.9, 2.1, 3.1])
    _write_request(tmp_path / "b.json", [1, 0, -1], [2, -2])
    if mode == ["--batch"]:
        argv, solved = ["solve", "--batch", str(tmp_path)], 2
    else:
        argv, solved = ["solve", "--input", str(tmp_path / "a.json"), *mode], 1
    code, out, _ = run_cli(capsys, *argv)
    # only text mode renders disk lines, one per root
    assert code == 0 and out.count("disk[") == (0 if mode else 3)
    assert sorted(calls) == (["disjoint_at"] * solved if mode else ["disks_at"])


def test_main_reuses_parser_without_carrying_state(capsys):
    # each call of a sequence through one parser prints and returns what
    # the same call does through a freshly built one
    calls = [
        ["solve", "--coeffs", "1,0,0,-1", "--seed", "3", "--no-certificate", "--json"],
        ["solve", "--coeffs", "1,0,0,-1", "--no-certificate", "--json"],
        ["certify", "--coeffs", "1,0,-1", "--guess", "1.1,-0.9", "--json"],
        ["solve", "--coeffs", "1,0,-1", "--method", "foo"],
        ["solve", "--coeffs", "1,0,-1", "--guess", "2,-2"],
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    in_a_row = [run_cli(capsys, *argv) for argv in calls]
    assert in_a_row == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 1, 0]
    assert fresh[0][1] != fresh[1][1]


def test_solve_defaults_are_solve_configs():
    args = cli.build_parser().parse_args(["solve"])
    assert SolveConfig(method=MethodKind(args.method), p=args.p,
                       max_iter=args.max_iter, w_tol=args.tol,
                       require_certificate=not args.no_certificate) == SolveConfig()
