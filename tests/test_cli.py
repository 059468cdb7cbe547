import argparse
import json
import math
import subprocess
import sys

import pytest

from teig import cli, curves, experiments, serialize
from teig.errors import ValidationError
from teig.model import (
    PowerDecay, ProblemKind, ShrinkingChain, load_problem, parse_problem, validate_problem
)

CONFIG = {
    "problem": "helmholtz",
    "domain": {"type": "interval_union", "intervals": [[-math.pi, math.pi]]},
    "potential": {"type": "constant", "v0": 0.75},
    "weight": "unweighted",
    "discretization": {"cells_per_interval": 24, "quad_points": 8, "num_curves": 6},
    "sweep": {"lambda_min": 3.0, "lambda_max": 5.0, "steps": 40,
              "refine_tol": 1e-8, "cluster_tol": 1e-6},
}


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "teig", *argv], capture_output=True, text=True
    )


def write_config(tmp_path, config=CONFIG, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return path


class TestExitCodes:
    def test_missing_config_is_config_error(self, tmp_path):
        out = run_cli("find", "--config", str(tmp_path / "nope.json"),
                      "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        err = json.loads(out.stderr)
        assert err["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c.update(problem="wave"),
            lambda c: c["domain"].update(type="ball", dim=3, radius=1.0),
            lambda c: c["potential"].update(v0=-1.0),
            lambda c: c["sweep"].update(steps=1),
            lambda c: c["domain"].update(intervals=[[0.0, 2.0], [1.0, 3.0]]),
            lambda c: c["discretization"].update(cells_per_interval=2),
            lambda c: c.update(discretization="coarse"),
            lambda c: c["discretization"].update(num_curves=True),
        ],
    )
    def test_invalid_configs_exit_two_with_json(self, tmp_path, mutate):
        config = json.loads(json.dumps(CONFIG))
        mutate(config)
        path = write_config(tmp_path, config)
        out = run_cli("find", "--config", str(path), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        parsed = json.loads(out.stderr)
        assert "error" in parsed and "message" in parsed

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c["potential"].update(v0=math.inf),
            lambda c: c["sweep"].update(lambda_max=math.inf),
            lambda c: c["domain"].update(intervals=[[-math.pi, math.nan]]),
        ],
        ids=["v0-inf", "lambda_max-inf", "interval-nan"],
    )
    def test_non_finite_config_values_exit_two(self, tmp_path, mutate):
        # json writes and reads these as the literals Infinity and NaN
        config = json.loads(json.dumps(CONFIG))
        mutate(config)
        path = write_config(tmp_path, config)
        out_path = tmp_path / "r.json"
        out = run_cli("find", "--config", str(path), "--out", str(out_path))
        assert out.returncode == 2
        assert json.loads(out.stderr)["error"] == "ValidationError"
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "mutate, interval, matrix",
        [
            (lambda c: c["domain"].update(intervals=[[0.0, 1e300]]), "(0.0, 1e+300)", "S"),
            (lambda c: c["domain"].update(intervals=[[0.0, 1e-300]]), "(0.0, 1e-300)", "S"),
            (
                lambda c: c.update(potential={"type": "power_decay", "c": 1.0, "alpha": 1000.0}),
                f"({-math.pi!r}, {math.pi!r})",
                "S",
            ),
            (
                lambda c: c.update(weight={"type": "agmon", "alpha": 1000.0}),
                f"({-math.pi!r}, {math.pi!r})",
                "Mw",
            ),
        ],
        ids=["interval-1e300", "interval-1e-300", "power-decay-alpha-1000", "agmon-alpha-1000"],
    )
    def test_form_matrices_out_of_range_exit_two(self, tmp_path, mutate, interval, matrix):
        # h^2 overflows or underflows, or V or w leaves the float range on
        # the interval: a typed error naming both, and no RuntimeWarning
        # ahead of the JSON on stderr
        config = json.loads(json.dumps(CONFIG))
        mutate(config)
        path = write_config(tmp_path, config)
        out_path = tmp_path / "r.json"
        out = run_cli("find", "--config", str(path), "--out", str(out_path))
        assert out.returncode == 2, out.stderr
        err = json.loads(out.stderr)
        assert err["error"] == "ValidationError"
        assert f"interval {interval}: form matrix {matrix} " in err["message"]
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "mutate, key, section",
        [
            (lambda c: c.update(weigth="agmon"), "weigth", "problem config"),
            (lambda c: c["sweep"].update(cluster_tl=1e-3), "cluster_tl", "sweep"),
            (lambda c: c["potential"].update(v1=3), "v1", "potential"),
        ],
        ids=["top-level", "sweep", "potential"],
    )
    def test_unknown_key_exits_two(self, tmp_path, mutate, key, section):
        # a misspelled key is not dropped: the problem it would have stated
        # is not the one that runs
        config = json.loads(json.dumps(CONFIG))
        mutate(config)
        message = f"unknown key '{key}' in {section}"
        with pytest.raises(ValidationError, match=message):
            parse_problem(config)
        path = write_config(tmp_path, config)
        out = run_cli("find", "--config", str(path), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        assert json.loads(out.stderr) == {"error": "ValidationError", "message": message}

    def test_config_not_utf8_exits_two(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_bytes(b'{"problem": "helm\xff"}')
        out = run_cli("find", "--config", str(path), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        err = json.loads(out.stderr)
        assert err["error"] == "ValidationError" and "not valid UTF-8 JSON" in err["message"]

    def test_config_nested_too_deeply_exits_two(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text("[" * 100_000)
        out = run_cli("find", "--config", str(path), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        err = json.loads(out.stderr)
        assert err["error"] == "ValidationError" and "nests too deeply" in err["message"]

    def test_problem_past_memory_budget_exits_two(self, tmp_path):
        config = json.loads(json.dumps(CONFIG))
        config["discretization"]["cells_per_interval"] = 100_000
        path = write_config(tmp_path, config)
        out = run_cli("find", "--config", str(path), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2
        assert json.loads(out.stderr)["error"] == "ProblemTooLarge"

    def test_sweep_working_set_past_memory_budget_exits_two(self, tmp_path):
        # the forms and one companion matrix fit the budget; the forms and
        # the sweep's reduced coefficient stacks do not
        config = json.loads(json.dumps(CONFIG))
        config["discretization"]["cells_per_interval"] = 3601
        path = write_config(tmp_path, config)
        out = run_cli("sweep", "--config", str(path), "--out-curves", str(tmp_path / "c.csv"))
        assert out.returncode == 2
        assert json.loads(out.stderr)["error"] == "ProblemTooLarge"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda c: c["sweep"].update(steps=4.7),
            lambda c: c["discretization"].update(cells_per_interval=8.9),
        ],
        ids=["steps", "cells_per_interval"],
    )
    def test_non_integral_count_exits_two(self, tmp_path, mutate):
        config = json.loads(json.dumps(CONFIG))
        mutate(config)
        path = write_config(tmp_path, config)
        out = run_cli("sweep", "--config", str(path), "--out-curves", str(tmp_path / "c.csv"))
        assert out.returncode == 2
        assert "must be an integer" in json.loads(out.stderr)["message"]
        assert not (tmp_path / "c.csv").exists()

    def test_refine_tol_below_float_spacing_exits_two(self, tmp_path):
        # the refine bisection could never get this narrow at lambda ~ 4; it
        # used to run until killed
        config = json.loads(json.dumps(CONFIG))
        config["sweep"]["refine_tol"] = 1e-17
        path = write_config(tmp_path, config)
        out = subprocess.run(
            [sys.executable, "-m", "teig", "find", "--config", str(path),
             "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 2
        assert "refine_tol" in json.loads(out.stderr)["message"]

    def test_refine_stops_at_adjacent_floats(self):
        # past the validation, a refine_tol below the float spacing ends the
        # polish bisection once its bracket is two adjacent floats
        code = (
            "import dataclasses\n"
            "from teig.curves import run_pipeline\n"
            "from teig.model import *\n"
            "spec = ProblemSpec(ProblemKind.HELMHOLTZ, IntervalUnion([(-3.0, 3.0)]),\n"
            "    Constant(0.75), discretization=DiscretizationConfig(8, 8, 4),\n"
            "    sweep=SweepConfig(1.0, 5.0, 20))\n"
            "problem = validate_problem(spec)\n"
            "sweep = dataclasses.replace(problem.sweep, refine_tol=1e-300)\n"
            "problem = dataclasses.replace(problem, sweep=sweep)\n"
            "for entry in run_pipeline(problem)['diagnostics']['accepted']:\n"
            "    print(*map(repr, entry['bracket']))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert out.returncode == 0, out.stderr
        brackets = [[float(v) for v in line.split()] for line in out.stdout.splitlines()]
        assert brackets
        for a, b in brackets:
            assert 0.0 < b - a <= math.ulp(b)

    def test_not_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        out = run_cli("find", "--config", str(path), "--out", str(tmp_path / "r.json"))
        assert out.returncode == 2


class TestFindAndSweep:
    def test_find_reports_eigenvalue_near_four(self, tmp_path):
        path = write_config(tmp_path)
        out_path = tmp_path / "report.json"
        res = run_cli("find", "--config", str(path), "--out", str(out_path))
        assert res.returncode == 0, res.stderr
        report = json.loads(out_path.read_text())
        lams = [e["lambda"] for e in report["transmission_eigenvalues"]]
        assert any(abs(l - 4.0) < 0.1 for l in lams)

    def test_sweep_csv_line_count(self, tmp_path):
        config = json.loads(json.dumps(CONFIG))
        config["sweep"]["steps"] = 2
        config["discretization"]["num_curves"] = 3
        path = write_config(tmp_path, config)
        out_path = tmp_path / "curves.csv"
        res = run_cli("sweep", "--config", str(path), "--out-curves", str(out_path))
        assert res.returncode == 0, res.stderr
        lines = out_path.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 grid rows
        assert lines[0] == "lambda,mu_1,mu_2,mu_3"

    def test_sweep_report_matches_find(self, tmp_path):
        path = write_config(tmp_path)
        res = run_cli("sweep", "--config", str(path), "--out-curves", str(tmp_path / "c.csv"),
                      "--out-report", str(tmp_path / "sweep.json"))
        assert res.returncode == 0, res.stderr
        res = run_cli("find", "--config", str(path), "--out", str(tmp_path / "find.json"))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "sweep.json").read_bytes() == (tmp_path / "find.json").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [["find", "--out", "r.json"],
         ["sweep", "--out-curves", "c.csv", "--out-report", "r.json"]],
    )
    def test_galerkin_commands_do_not_import_numpy_polynomial(self, tmp_path, argv):
        path = write_config(tmp_path)
        argv = [argv[0], "--config", str(path)] + [
            str(tmp_path / a) if a.endswith(("json", "csv")) else a for a in argv[1:]
        ]
        code = (
            "import sys\n"
            "from teig import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, 'numpy.polynomial' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.stdout.split() == ["0", "False"], out.stderr

    def test_find_deterministic_bytes(self, tmp_path):
        path = write_config(tmp_path)
        outs = []
        for name in ("a.json", "b.json"):
            out_path = tmp_path / name
            res = run_cli("find", "--config", str(path), "--out", str(out_path))
            assert res.returncode == 0
            outs.append(out_path.read_bytes())
        assert outs[0] == outs[1]


class TestRadial:
    def test_reports_four(self, tmp_path):
        res = run_cli(
            "radial", "--problem", "helmholtz", "--dim", "1",
            "--radius", "3.141592653589793", "--v0", "0.75",
            "--lmax", "0", "--lambda-max", "5",
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        lams = [e["lambda"] for e in payload["transmission_eigenvalues"]]
        assert any(abs(l - 4.0) < 1e-8 for l in lams)

    @pytest.mark.parametrize(
        "dim, radius, lmax",
        [("3", "0.1", "30"), ("2", "0.01", "3"), ("1", "1e-3", "1")],
        ids=["dim-3", "dim-2", "dim-1"],
    )
    def test_small_ball_lists_no_root_at_the_lambda_floor(self, dim, radius, lmax):
        # D vanishes like lambda as lambda -> 0, so at these radii (first TE
        # far above 50, as TEs scale like R^-2) the scan's first grid point
        # used to read as an exact hit at lambda = 1e-6 on high orders
        res = run_cli(
            "radial", "--problem", "helmholtz", "--dim", dim, "--radius", radius,
            "--v0", "0.75", "--lmax", lmax, "--lambda-max", "50",
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["transmission_eigenvalues"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            *(("radial", "--problem", "helmholtz", "--dim", "1", "--v0", "0.75", "--lmax", "1",
               "--lambda-max", "50", "--radius", radius) for radius in ("1e-4", "1e-5", "1e-6")),
            ("radial", "--problem", "helmholtz", "--dim", "3", "--v0", "0.75", "--lmax", "4",
             "--lambda-max", "50", "--radius", "1e-4"),
            ("hypothesis", "--radius", "1e-9"),
        ],
        ids=["dim-1-1e-4", "dim-1-1e-5", "dim-1-1e-6", "dim-3-1e-4", "hypothesis-1e-9"],
    )
    def test_tiny_ball_lists_no_root_in_its_root_free_zone(self, argv):
        # each window lies below (b(nu)/R)^2, under the first Bessel zero of
        # every order, where the determinant is rounding noise that read as
        # up to 799 roots
        res = run_cli(*argv)
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        if argv[0] == "radial":
            assert payload["transmission_eigenvalues"] == []
        else:
            assert payload["margins"]["roots_found"] == 0

    def test_large_ball_lists_the_radius_pi_roots_scaled(self):
        # R = pi 1e4 lists the TEs of the radius-pi ball times pi^2 / R^2: 30
        # up to 1e-5, the radius-pi window up to 1000; a scan floor and a
        # tolerance absolute in lambda used to drop the 10 below 1e-6 and
        # move the rest by about 4.5e-6 of themselves
        def listed(radius, lambda_max):
            res = run_cli(
                "radial", "--problem", "helmholtz", "--dim", "1", "--radius", radius,
                "--v0", "0.75", "--lmax", "1", "--lambda-max", lambda_max,
            )
            assert res.returncode == 0, res.stderr
            entries = json.loads(res.stdout)["transmission_eigenvalues"]
            return sorted((e["ell"], e["lambda"]) for e in entries)

        big = listed("31415.926535897932", "1e-5")
        base = listed("3.141592653589793", "1000")
        assert len(big) == len(base) == 30
        scale = (math.pi / 31415.926535897932) ** 2
        for (ell, lam), (big_ell, big_lam) in zip(base, big):
            assert big_ell == ell
            assert abs(big_lam - lam * scale) <= 1e-10 * lam * scale

    def test_degenerate_contrast_is_config_error(self):
        res = run_cli(
            "radial", "--problem", "helmholtz", "--dim", "1",
            "--radius", "1.0", "--v0", "1.0", "--lmax", "0", "--lambda-max", "5",
        )
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "HelmholtzContrastDegenerate"

    @pytest.mark.parametrize("flag", ["--radius", "--v0"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_radius_or_v0_exits_two(self, flag, value):
        args = {"--radius": "3.14", "--v0": "0.75", flag: value}
        res = run_cli(
            "radial", "--problem", "helmholtz", "--dim", "1",
            "--radius", args["--radius"], "--v0", args["--v0"],
            "--lmax", "0", "--lambda-max", "5",
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "radius, lambda_max",
        [("1e9", "5"), ("20", "400")],  # every cell / the top of the scan past the window
    )
    def test_scan_past_bessel_window_exits_two(self, radius, lambda_max):
        res = run_cli(
            "radial", "--problem", "helmholtz", "--dim", "3",
            "--radius", radius, "--v0", "0.75",
            "--lmax", "0", "--lambda-max", lambda_max,
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "ArgumentOutOfRange"

    def test_negative_lmax_exits_two(self):
        res = run_cli(
            "radial", "--problem", "helmholtz", "--dim", "1",
            "--radius", "3.141592653589793", "--v0", "0.75",
            "--lmax", "-1", "--lambda-max", "5",
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "ValidationError"


    def test_negative_steps_exits_two(self):
        res = run_cli(
            "radial", "--problem", "helmholtz", "--dim", "1",
            "--radius", "3.141592653589793", "--v0", "0.75",
            "--lmax", "0", "--lambda-max", "5", "--steps", "-1",
        )
        assert res.returncode == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "ValidationError"


class TestExperimentCommands:
    def test_scaling_pass_exit_zero(self, tmp_path):
        out_path = tmp_path / "scaling.json"
        res = run_cli("scaling", "--epsilons", "0.5", "--out", str(out_path))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out_path.read_text())
        assert payload["verdict"] == "Pass"
        assert payload["margins"]["tolerance"] == 1e-8

    def test_scaling_of_a_large_ball_passes(self, tmp_path):
        # the first-TE search's window used to start at max(4/R^2, 2 v0, 1), already past
        # the Bessel window sqrt(lambda) R <= 200 for every R above about 163
        out_path = tmp_path / "scaling.json"
        res = run_cli(
            "scaling", "--dim", "1", "--radius", "3141.592653589793", "--v0", "0.75",
            "--epsilons", "0.5", "--out", str(out_path),
        )
        assert res.returncode == 0, res.stderr
        payload = json.loads(out_path.read_text())
        (row,) = payload["tables"][0]["rows"]
        assert row[1] == pytest.approx(4.0 / 1000.0**2, rel=1e-10)
        assert payload["margins"]["max_rel_err"] <= experiments.SCALING_ORACLE_TOL

    def test_hypothesis_report_only(self):
        res = run_cli(
            "hypothesis", "--dim", "1", "--radius", "0.5", "--v0", "2.0",
            "--lambda-max", "5", "--steps", "100",
        )
        assert res.returncode == 0
        assert json.loads(res.stdout)["verdict"] == "Report-only"

    def test_hypothesis_radius_whose_square_underflows_exits_two(self):
        # R^2 = 1e-400 underflows to 0, so the ball has no unit-ball image
        res = run_cli("hypothesis", "--radius", "1e-200")
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "ArgumentOutOfRange"
        assert err["message"] == "R^2 = 0.0 is not a positive finite float"

    @pytest.mark.parametrize(
        "argv",
        [
            ("truncation", "--counts", ","),
            ("hypothesis", "--lmax", "-1", "--lambda-max", "5", "--steps", "100"),
            ("scaling", "--epsilons", ","),
        ],
        ids=["truncation-empty-counts", "hypothesis-negative-lmax", "scaling-empty-epsilons"],
    )
    def test_empty_or_negative_input_exits_two(self, argv):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("scaling", "--dim", "0", "--epsilons", "0.5"), "UnsupportedDimension"),
            (("scaling", "--dim", "1", "--radius", "-1"), "ValidationError"),
            (("scaling", "--dim", "4"), "UnsupportedDimension"),
        ],
        ids=["dim-0", "negative-radius", "dim-4"],
    )
    def test_scaling_bad_ball_exits_two(self, argv, error):
        res = run_cli(*argv)
        assert res.returncode == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == error

    @pytest.mark.parametrize(
        "argv",
        [
            ("--x-values", "50,nan"),
            ("--x-values", "50,inf"),
            ("--x-values", "50,50"),
            ("--radius", "inf"),
        ],
        ids=["nan-x", "infinite-x", "one-distinct-x", "infinite-radius"],
    )
    def test_count_bad_ball_or_x_values_exit_two(self, argv):
        res = run_cli("count", "--dim", "1", *argv)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "ValidationError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("radial", "--problem", "helmholtz", "--dim", "1", "--radius", "1", "--v0", "0.75",
             "--lmax", "0", "--lambda-max", "5", "--steps", "1000000000"),
            ("hypothesis", "--steps", "1000000000"),
        ],
        ids=["radial-steps", "hypothesis-steps"],
    )
    def test_scan_past_memory_budget_exits_two(self, argv):
        # rejected before the grid is allocated, so this runs in milliseconds
        res = run_cli(*argv)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "ProblemTooLarge"

    @pytest.mark.parametrize("lmax", ["100000", "100000000"])
    def test_radial_lmax_past_the_orders_below_the_window_lists(self, lmax):
        # the listing scans only the orders whose root-free zone ends below
        # the window, so an --lmax past them lists what --lmax 40 lists
        # (it exited 2 with ProblemTooLarge while the budget counted lmax + 1 rows)
        argv = ("radial", "--problem", "helmholtz", "--dim", "3", "--radius", "1",
                "--v0", "0.75", "--lambda-max", "400", "--lmax")
        res, ref = run_cli(*argv, lmax), run_cli(*argv, "40")
        assert res.returncode == 0 == ref.returncode, res.stderr
        listed, expected = json.loads(res.stdout), json.loads(ref.stdout)
        assert listed["ell_max"] == int(lmax)
        assert listed["transmission_eigenvalues"] == expected["transmission_eigenvalues"]
        assert len(listed["transmission_eigenvalues"]) == 29

    def test_count_lmax_past_the_scan_budget_counts(self):
        # the --lmax that the radial scan above rejects: a count samples one
        # point per (order, window end) and allocates no grid, so it counts
        # (it exited 2 with ProblemTooLarge while it listed the roots)
        res = run_cli("count", "--dim", "3", "--lmax", "100000000")
        assert res.returncode == 0, res.stderr
        rows = json.loads(res.stdout)["tables"][0]["rows"]
        assert [row[1] for row in rows] == [481, 1437, 4472, 13371]
        assert [row[2] for row in rows] == [100_000_000] * 4

    @pytest.mark.parametrize("x", ["1e12", "1e300"])
    def test_count_past_the_bessel_window_is_out_of_range(self, x):
        # the listing's orders for such an x passed the scan budget first
        # (ProblemTooLarge); the count sizes its orders by the Bessel window
        res = run_cli("count", "--dim", "3", "--x-values", f"50,{x}")
        assert res.returncode == 2, res.stderr
        err = json.loads(res.stderr)
        assert err["error"] == "ArgumentOutOfRange"
        assert err["message"].startswith("exterior Bessel argument")

    @pytest.mark.parametrize(
        "argv, error",
        [
            (("packing", "--x", "inf"), "ValidationError"),
            (("packing", "--length", "1e-300"), "ArgumentOutOfRange"),
            (("scaling", "--radius", "1e-200"), "ArgumentOutOfRange"),
            (("scaling", "--radius", "1e200"), "ArgumentOutOfRange"),
        ],
        ids=["packing-infinite-x", "packing-tiny-length", "scaling-tiny-radius",
             "scaling-huge-radius"],
    )
    def test_infinite_or_extreme_sizes_exit_two(self, argv, error):
        # a zero copy width, or an R^2 that underflows (overflows), used to
        # end in ZeroDivisionError (OverflowError); the unit-ball map now
        # rejects an R^2 that is not a positive finite float
        res = run_cli(*argv)
        assert res.returncode == 2, res.stderr
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == error

    def test_count_non_integer_lmax_is_a_validation_error(self):
        res = run_cli("count", "--dim", "1", "--lmax", "1e3")
        assert res.returncode == 2
        assert res.stdout == ""
        assert json.loads(res.stderr) == {
            "error": "ValidationError",
            "message": "--lmax must be an integer or 'auto', got '1e3'",
        }

    def test_count_insufficient_is_config_error(self):
        res = run_cli("count", "--dim", "1", "--x-values", "2,3")
        assert res.returncode == 2
        assert json.loads(res.stderr)["error"] == "InsufficientCounts"

    def test_count_dim1_reports_the_orders_it_scans(self):
        res = run_cli("count", "--dim", "1")
        assert res.returncode == 0, res.stderr
        rows = json.loads(res.stdout)["tables"][0]["rows"]
        assert [row[2] for row in rows] == [1, 1, 1, 1]

    def test_packing_with_no_copy_is_insufficient(self):
        # x = 0.5 lies below a quarter of the base interval's first TE 4
        res = run_cli("packing", "--x", "0.5")
        assert res.returncode == 2
        assert res.stdout == ""
        err = json.loads(res.stderr)
        assert err["error"] == "InsufficientCounts"
        assert "x = 0.5" in err["message"]
        first = float(err["message"].rsplit("first TE ", 1)[1])
        assert abs(first - 4.0) <= 1e-12

    def test_truncation_alpha_at_most_3_is_alpha_too_small(self):
        res = run_cli("truncation", "--alpha", "2.5")
        assert res.returncode == 2
        assert res.stdout == ""
        assert json.loads(res.stderr)["error"] == "AlphaTooSmall"

    def test_hypothesis_dim1_lists_the_radial_roots(self):
        # a dimension-1 ball has orders 0 and 1 only: --lmax 4 lists the 12
        # roots that the radial oracle lists for the same ball and grid
        ball = ("--dim", "1", "--radius", "2", "--v0", "30", "--lambda-max", "150", "--lmax", "4")
        scan = run_cli("hypothesis", *ball, "--steps", "800")
        listed = run_cli("radial", "--problem", "schrodinger", *ball, "--steps", "800")
        assert scan.returncode == listed.returncode == 0, scan.stderr + listed.stderr
        rows = json.loads(scan.stdout)["tables"][0]["rows"]
        entries = json.loads(listed.stdout)["transmission_eigenvalues"]
        assert len(rows) == len(entries) == 12
        assert [(r[0], r[3]) for r in rows] == [(e["lambda"], e["ell"]) for e in entries]


REFERENCE_CONFIG = {
    "problem": "helmholtz",
    "domain": {"type": "interval_union", "intervals": [[-math.pi, math.pi]]},
    "potential": {"type": "constant", "v0": 0.75},
    "weight": "unweighted",
    "discretization": {"cells_per_interval": 64, "quad_points": 8, "num_curves": 12},
    "sweep": {"lambda_min": 0.5, "lambda_max": 10.0, "steps": 400},
}

CHAIN_CONFIG = {
    "problem": "schrodinger",
    "domain": {"type": "shrinking_chain", "count": 6, "start": 0.0, "gap": 1.0,
               "first_length": math.pi, "decay_ratio": 0.5},
    "potential": {"type": "power_decay", "c": 60.0, "alpha": 4.0},
    "weight": "agmon",
    "discretization": {"cells_per_interval": 32, "quad_points": 8, "num_curves": 16},
    "sweep": {"lambda_min": 0.5, "lambda_max": 50.0, "steps": 250},
}


class TestCanonicalConfig:
    @pytest.mark.parametrize(
        "config",
        [REFERENCE_CONFIG, CHAIN_CONFIG, dict(CONFIG, weight="agmon")],
        ids=["reference", "chain", "agmon-constant"],
    )
    def test_canonical_config_reads_back(self, tmp_path, config):
        from teig import cli
        from teig.model import canonical_config, parse_problem, validate_problem
        from teig.serialize import config_hash, dumps

        canonical = canonical_config(validate_problem(parse_problem(config)))
        again = canonical_config(validate_problem(parse_problem(canonical)))
        assert config_hash(again) == config_hash(canonical)
        reports = []
        for name, cfg in (("original", json.dumps(config)), ("canonical", dumps(canonical))):
            path = tmp_path / f"{name}.json"
            path.write_text(cfg)
            out = tmp_path / f"{name}.report.json"
            assert cli.main(["find", "--config", str(path), "--out", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]


    @pytest.mark.parametrize(
        "config, digest",
        [
            (REFERENCE_CONFIG, "2fcbcdfa983024b383371149b92db921d1f3832437a6e34fdfcf2d8af254c815"),
            (CHAIN_CONFIG, "409ca1d3be58c6be9e2acff62c58dde2badb475d8dcd45533f48c6e01eed53c6"),
            (dict(CONFIG, weight="agmon"),
             "f4dd460c51d1ec6096653464ea64bfa0d7920b4077dbb99c4114a2df42d70f5e"),
        ],
        ids=["reference", "chain", "agmon-constant"],
    )
    def test_canonical_bytes_are_pinned(self, config, digest):
        # the problem_hash of every report is the hash of these bytes
        from teig.model import canonical_config, parse_problem, validate_problem
        from teig.serialize import config_hash

        assert config_hash(canonical_config(validate_problem(parse_problem(config)))) == digest


class TestParser:
    """Only the invoked subcommand's parser is built; help and usage errors
    read as with every parser built."""

    OPTIONS = {
        "sweep": ["--config", "--out-curves", "--out-report"],
        "find": ["--config", "--out"],
        "radial": ["--problem", "--dim", "--radius", "--v0", "--lmax", "--lambda-max", "--steps",
                   "--out"],
        "scaling": ["--dim", "--radius", "--v0", "--epsilons", "--galerkin", "--out"],
        "count": ["--dim", "--radius", "--v0", "--x-values", "--lmax", "--out"],
        "packing": ["--length", "--v0", "--x", "--cells", "--out"],
        "truncation": ["--counts", "--start", "--gap", "--first-length", "--decay-ratio", "--c",
                       "--alpha", "--problem", "--window", "--cells", "--out"],
        "hypothesis": ["--dim", "--radius", "--v0", "--lambda-max", "--steps", "--lmax", "--out"],
    }

    @staticmethod
    def exit_code(argv):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        return stop.value.code

    def test_top_level_help_lists_every_subcommand(self, capsys):
        assert self.exit_code(["-h"]) == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(self.OPTIONS) + "}" in out.replace("\n", "").replace(" ", "")
        for name, (text, _, _) in cli._COMMANDS.items():
            assert any(line.split() == [name, *text.split()] for line in out.splitlines())

    @pytest.mark.parametrize("name", list(OPTIONS))
    def test_subcommand_help_lists_its_options(self, capsys, name):
        assert self.exit_code([name, "-h"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: teig {name} [-h]")
        listed = [w.rstrip(",") for line in out.splitlines() for w in line.split()[:1]]
        assert [w for w in listed if w.startswith("--")] == self.OPTIONS[name]

    @pytest.mark.parametrize(
        "argv, usage",
        [([], "teig"), (["bogus"], "teig"), (["--x", "count"], "teig"),
         (["count", "--config", "c"], "teig"), (["count", "extra"], "teig"),
         (["count", "--dim", "x"], "teig count"), (["sweep"], "teig sweep")],
        ids=["none", "unknown", "option-first", "other-option", "extra", "bad-type", "missing"],
    )
    def test_usage_errors_exit_two(self, capsys, argv, usage):
        assert self.exit_code(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {usage} [-h]")
        if usage == "teig":  # the top-level usage names every subcommand
            assert "{" + ",".join(self.OPTIONS) + "}" in err.replace("\n", "").replace(" ", "")

    def test_only_the_invoked_subcommand_gets_arguments(self, monkeypatch):
        added = []
        add_argument = argparse.ArgumentParser.add_argument

        def counted(parser, *args, **kwargs):
            added.append((parser.prog, args[0]))
            return add_argument(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
        cli._build_parser("count")
        assert added == [("teig", "-h"), ("teig count", "-h")] + [
            ("teig count", option) for option in self.OPTIONS["count"]
        ]


class TestInProcessEntryPoint:
    def test_main_runs_in_process(self, capsys):
        from teig.cli import main

        code = main(
            ["radial", "--problem", "helmholtz", "--dim", "3",
             "--radius", "3.141592653589793", "--v0", "0.75",
             "--lmax", "0", "--lambda-max", "5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert any(
            abs(e["lambda"] - 4.0) < 1e-8 for e in payload["transmission_eigenvalues"]
        )

    def test_internal_error_exits_three(self, monkeypatch, capsys):
        from teig import cli

        def broken(args):
            raise RuntimeError("kernel fault")

        monkeypatch.setitem(cli._COMMANDS, "radial", (*cli._COMMANDS["radial"][:2], broken))
        code = cli.main(
            ["radial", "--problem", "helmholtz", "--dim", "1", "--radius", "1",
             "--v0", "0.75", "--lmax", "0", "--lambda-max", "5"]
        )
        assert code == 3  # not 1, the code of a failed experimental check
        captured = capsys.readouterr()
        assert captured.out == ""
        first, rest = captured.err.split("\n", 1)
        assert json.loads(first) == {
            "error": "InternalError", "message": "RuntimeError: kernel fault"
        }
        assert rest.startswith("Traceback") and "kernel fault" in rest


class TestLibraryMatchesCli:
    """A subcommand writes exactly serialize.dumps(result, indent=2) of the
    dict its library function returns for the same input."""

    def test_find_and_sweep_write_the_pipeline_report(self, tmp_path):
        path = write_config(tmp_path)
        problem = validate_problem(load_problem(path))
        expected = serialize.dumps(curves.run_pipeline(problem), indent=2)
        assert cli.main(["find", "--config", str(path), "--out", str(tmp_path / "f.json")]) == 0
        assert (tmp_path / "f.json").read_text() == expected
        argv = ["sweep", "--config", str(path), "--out-curves", str(tmp_path / "c.csv"),
                "--out-report", str(tmp_path / "s.json")]
        assert cli.main(argv) == 0
        assert (tmp_path / "s.json").read_text() == expected
        table = curves.sweep(problem, curves.prepare_matrices(problem))
        assert (tmp_path / "c.csv").read_text() == serialize.curve_table_csv(*table)

    @pytest.mark.parametrize(
        "argv, run",
        [
            (
                ["scaling", "--dim", "1", "--epsilons", "0.5"],
                lambda: experiments.scaling_check(1, math.pi, 0.75, [0.5]),
            ),
            (
                ["count", "--dim", "1", "--x-values", "50,100"],
                lambda: experiments.counting_experiment(1, math.pi, 0.75, [50.0, 100.0]),
            ),
            (
                ["packing", "--x", "8", "--cells", "48"],
                lambda: experiments.packing_bound_check(4 * math.pi, 0.75, 8.0, cells=48),
            ),
            (
                ["truncation", "--counts", "1,2", "--cells", "16"],
                lambda: experiments.truncation_stability(
                    ShrinkingChain(2, 0.0, 1.0, math.pi, 0.5), [1, 2], (0.5, 50.0),
                    PowerDecay(60.0, 4.0), kind=ProblemKind.SCHRODINGER, cells=16,
                ),
            ),
            (
                ["hypothesis", "--v0", "2.0", "--lambda-max", "5", "--steps", "100"],
                lambda: experiments.hypothesis_scan(1, 0.5, 2.0, 5.0, steps=100, ell_max=0),
            ),
        ],
        ids=["scaling", "count", "packing", "truncation", "hypothesis"],
    )
    def test_experiment_writes_the_driver_result(self, tmp_path, argv, run):
        out_path = tmp_path / "result.json"
        code = cli.main([*argv, "--out", str(out_path)])
        result = run()
        assert out_path.read_text() == serialize.dumps(result, indent=2)
        assert code == (1 if result["verdict"] == "Fail" else 0)
