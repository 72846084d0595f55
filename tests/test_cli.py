import json

import numpy as np
import pytest

from rootcert.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


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

    def test_non_finite_guess_in_file_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text('{"coeffs": [{"re": 1, "im": 0}, {"re": 0, "im": 0}, '
                        '{"re": -1, "im": 0}], "guess": [{"re": NaN, "im": 0}, '
                        '{"re": -2, "im": 0}]}')
        code, _, err = run_cli(capsys, "certify", "--input", str(path))
        assert code == 1
        assert "input error" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("subcommand", ["solve", "certify"])
    def test_overflowing_measure_prints_valid_json(self, capsys, subcommand):
        # f overflows at this finite guess, so E0 is not finite; the JSON
        # writes it as null
        code, out, _ = run_cli(capsys, subcommand, "--coeffs", "1,0,-1",
                               "--guess", "1e300,-1e300", "--json")
        assert code == 2
        data = json.loads(out, parse_constant=_reject_constant)
        assert data["certificate"]["issued"] is False
        assert data["certificate"]["E0"] is None

    @pytest.mark.parametrize("content", [
        "5",
        "null",
        '{"coeffs": 5}',
        '{"coeffs": [{"re": 1, "im": 0}, {"re": -1, "im": 0}], "guess": 7}',
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

    def test_empty_batch_dir(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "solve", "--batch", str(tmp_path))
        assert code == 1
        assert "no JSON files" in err
