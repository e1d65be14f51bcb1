import json
import random
from fractions import Fraction as F

import pytest

from finiteot.cli import main
from finiteot.generators import random_positive_rational_measure, random_rational_measure
from finiteot.io import dump_json, load_measure, load_plan, load_problem, load_space
from finiteot.numerics import INF, DataError, DomainError
from finiteot.solver import KERNEL

HALF = "1/2"


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def two_point_space(tmp_path):
    return write(
        tmp_path,
        "space.json",
        {"labels": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]},
    )


class TestLoaders:
    def test_space_from_dist(self, two_point_space):
        s = load_space(two_point_space, "rational")
        assert s.labels == ("a", "b")
        assert s.dist == ((F(0), F(1)), (F(1), F(0)))

    def test_space_from_points(self, tmp_path):
        path = write(
            tmp_path, "pts.json", {"points": [["0", "0"], ["3", "4"]], "norm": 2}
        )
        s = load_space(path, "float")
        assert s.dist[0][1] == pytest.approx(5.0)

    def test_space_missing_fields(self, tmp_path):
        path = write(tmp_path, "bad.json", {"labels": ["a"]})
        with pytest.raises(DataError):
            load_space(path)

    def test_measure(self, tmp_path):
        path = write(tmp_path, "mu.json", {"weights": [HALF, HALF]})
        mu = load_measure(path, "rational")
        assert mu.weights == (F(1, 2), F(1, 2))

    def test_measure_float_mode(self, tmp_path):
        path = write(tmp_path, "mu.json", {"weights": ["0.25", "0.75"]})
        mu = load_measure(path, "float")
        assert mu.weights == (0.25, 0.75)

    def test_plan(self, tmp_path):
        path = write(
            tmp_path,
            "plan.json",
            {
                "mu1": [HALF, HALF],
                "mu2": [HALF, HALF],
                "matrix": [[HALF, "0"], ["0", HALF]],
            },
        )
        plan = load_plan(path, "rational")
        assert plan.matrix == ((F(1, 2), F(0)), (F(0), F(1, 2)))

    def test_problem_with_inf_cell(self, tmp_path):
        path = write(
            tmp_path,
            "prob.json",
            {
                "mu1": [HALF, HALF],
                "mu2": [HALF, HALF],
                "cost": [["0", "+inf"], ["1", "0"]],
            },
        )
        mu1, mu2, cost = load_problem(path, "rational")
        assert cost.cost[0][1] == INF

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DataError):
            load_space(str(path))

    def test_round_trip(self, tmp_path):
        doc = {"weights": [F(1, 3), F(2, 3)]}
        path = tmp_path / "rt.json"
        dump_json(doc, path)
        mu = load_measure(str(path), "rational")
        assert mu.weights == (F(1, 3), F(2, 3))

    def test_dump_is_deterministic(self, tmp_path):
        doc = {"b": [F(1, 2)], "a": 0.1}
        assert dump_json(doc) == dump_json(dict(reversed(doc.items())))


class TestCLISolve:
    def problem(self, tmp_path, cost):
        return write(
            tmp_path,
            "prob.json",
            {"mu1": [HALF, HALF], "mu2": [HALF, HALF], "cost": cost},
        )

    def test_solve_ok(self, tmp_path, capsys):
        path = self.problem(tmp_path, [["0", "1"], ["1", "0"]])
        assert main(["solve", path, "--mode", "rational"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimal_cost"] == "0"

    def test_solve_writes_file(self, tmp_path):
        path = self.problem(tmp_path, [["0", "1"], ["1", "0"]])
        out = tmp_path / "out.json"
        assert main(["solve", path, "--mode", "rational", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["optimal_cost"] == "0"

    def test_solve_infeasible_exit_2(self, tmp_path, capsys):
        path = self.problem(tmp_path, [["+inf", "+inf"], ["0", "0"]])
        assert main(["solve", path, "--mode", "rational"]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["infeasibility_certificate"]["rows"] == [0]

    def test_missing_file_exit_1(self, capsys):
        assert main(["solve", "/nonexistent/prob.json"]) == 1

    def test_malformed_file_exit_1(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("][")
        assert main(["solve", str(path)]) == 1

    def test_determinism_byte_identical(self, tmp_path):
        path = self.problem(tmp_path, [["0", "2"], ["3", "1"]])
        out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
        main(["solve", path, "--mode", "rational", "--out", str(out1)])
        main(["solve", path, "--mode", "rational", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_tol_reaches_the_solver(self, tmp_path, capsys):
        # row 0 takes its cheapest cell (0, 0) and closes column 0, so the
        # start ships row 1 over (1, 1) and costs 2; cell (0, 1) prices at
        # 1 - 0 - 4 = -3: the default tolerance pivots to the optimum 0.5,
        # a tolerance of 5 stops
        path = self.problem(tmp_path, [["0", "1"], ["0", "4"]])
        assert main(["solve", path, "--mode", "float"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (float(doc["optimal_cost"]), doc["iterations"]) == (0.5, 1)
        assert main(["solve", path, "--mode", "float", "--tol", "5"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (float(doc["optimal_cost"]), doc["iterations"]) == (2.0, 0)

    def test_mode_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OT_KANTOR_MODE", "rational")
        path = self.problem(tmp_path, [["0", "1"], ["1", "0"]])
        assert main(["solve", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["mode"] == "rational"

    @pytest.mark.parametrize(
        "mode, unit",
        [("float", "1"), ("rational", "1"), ("rational", str(2**60))],
        ids=["float", "rational", "rational-costs-too-large-for-int64"],
    )
    def test_names_the_engine_that_ran(self, tmp_path, capsys, mode, unit):
        # float solves and rational ones whose scaled data fit in int64 run
        # the selected kernel; a rational cost of 2^60 breaks the fit bound
        # (n + m) max|c| < 2^60, so that solve runs the Python simplex
        path = self.problem(tmp_path, [["0", unit], [unit, "0"]])
        assert main(["solve", path, "--mode", mode]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["optimal_cost"] == "0"
        assert doc["kernel"] == (KERNEL if unit == "1" else "python")


class TestCLIDistance:
    def test_w1(self, tmp_path, two_point_space, capsys):
        mu1 = write(tmp_path, "mu1.json", {"weights": ["1", "0"]})
        mu2 = write(tmp_path, "mu2.json", {"weights": ["0", "1"]})
        code = main(
            ["distance", two_point_space, mu1, mu2, "--mode", "rational", "--p", "1"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["w_p"] == "1"

    def test_tol_reaches_the_solver(self, tmp_path, two_point_space, capsys, monkeypatch):
        import finiteot.wasserstein as w

        seen = []
        solve = w.solve_kantorovich

        def spy(*args, **kwargs):
            seen.append(kwargs.get("tol"))
            return solve(*args, **kwargs)

        monkeypatch.setattr(w, "solve_kantorovich", spy)
        mu = write(tmp_path, "mu.json", {"weights": [HALF, HALF]})
        assert main(["distance", two_point_space, mu, mu, "--tol", "0.25"]) == 0
        assert seen == [0.25]

    def test_rejects_p_below_one(self, tmp_path, two_point_space, capsys):
        mu = write(tmp_path, "mu.json", {"weights": [HALF, HALF]})
        assert main(["distance", two_point_space, mu, mu, "--p", "0.5"]) == 1

    @pytest.mark.parametrize("norm", [0, "two"])
    def test_rejects_a_bad_norm(self, tmp_path, capsys, norm):
        space = write(tmp_path, "pts.json", {"points": [["0", "0"], ["3", "4"]], "norm": norm})
        mu = write(tmp_path, "mu.json", {"weights": [HALF, HALF]})
        assert main(["distance", space, mu, mu]) == 1
        assert capsys.readouterr().err.startswith("error:")


class TestCLIVerify:
    @pytest.mark.parametrize(
        "suite", ["coupling", "glue", "restriction", "liminf", "tail"]
    )
    def test_suites_pass(self, suite, capsys):
        assert main(["verify", suite, "--trials", "10", "--seed", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_metric_suite(self, capsys):
        assert main(["verify", "metric", "--seed", "1"]) == 0

    def test_moreau_yosida_suite(self, capsys):
        assert main(["verify", "moreau-yosida", "--trials", "5", "--seed", "1"]) == 0

    def test_bad_plan_exit_3(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "bad.json",
            {
                "mu1": [HALF, HALF],
                "mu2": [HALF, HALF],
                "matrix": [["1", "0"], ["0", "0"]],
            },
        )
        assert main(["verify", "coupling", "--plan", path, "--mode", "rational"]) == 3

    @pytest.mark.parametrize("suite, files", [("tail", 1), ("glue", 1), ("coupling", 2)])
    def test_plan_files_the_suite_does_not_read_exit_1(self, tmp_path, capsys, suite, files):
        # a file the suite would not read is refused before any trial runs,
        # so a random battery cannot pass in its place
        path = write(
            tmp_path,
            "plan.json",
            {"mu1": [HALF, HALF], "mu2": [HALF, HALF], "matrix": [[HALF, "0"], ["0", HALF]]},
        )
        assert main(["verify", suite, *["--plan", path] * files, "--mode", "rational"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: verify {suite} reads")

    def test_plans_that_do_not_chain_exit_3(self, tmp_path, capsys):
        # pi12's column sums (1/2, 1/2) are not pi23's row sums (1/4, 3/4)
        pi12 = write(
            tmp_path,
            "pi12.json",
            {"mu1": [HALF, HALF], "mu2": [HALF, HALF], "matrix": [[HALF, "0"], ["0", HALF]]},
        )
        pi23 = write(
            tmp_path,
            "pi23.json",
            {"mu1": ["1/4", "3/4"], "mu2": ["1/4", "3/4"], "matrix": [["1/4", "0"], ["0", "3/4"]]},
        )
        assert main(["verify", "glue", "--plan", pi12, "--plan", pi23, "--mode", "rational"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is False
        assert doc["report"]["error"].startswith("middle marginals differ")

    @pytest.mark.parametrize("suite", ["coupling", "metric", "glue", "tail"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exit_1(self, capsys, suite, trials):
        assert main(["verify", suite, "--trials", trials, "--seed", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --trials")


class TestCLIOracleCheck:
    def test_small_battery(self, capsys):
        assert main(["oracle-check", "--n", "3", "--m", "3", "--trials", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_discrepancy"] == "0"

    def test_uniform_battery(self, capsys):
        assert main(["oracle-check", "--uniform", "--n", "4", "--trials", "10"]) == 0

    def test_size_limit_exit_1(self, capsys):
        assert main(["oracle-check", "--n", "9", "--m", "9", "--trials", "1"]) == 1

    @pytest.mark.parametrize(
        "sizes", [["--n", "0"], ["--m", "0"], ["--n", "-1"], ["--uniform", "--n", "0"]]
    )
    def test_sizes_below_one_exit_1(self, capsys, sizes):
        assert main(["oracle-check", *sizes, "--trials", "1"]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_exit_1(self, capsys, trials):
        # a battery of no trials checks nothing: refused, with nothing written
        assert main(["oracle-check", "--trials", trials]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: --trials")

    @pytest.mark.parametrize("make", [random_rational_measure, random_positive_rational_measure])
    def test_measure_generators_refuse_no_points(self, make):
        for n in (0, -1):
            with pytest.raises(DomainError):
                make(random.Random(0), n)


class TestCLIValidate:
    def test_metric_ok(self, two_point_space, capsys):
        assert main(["validate", "metric", two_point_space, "--mode", "rational"]) == 0

    def test_metric_violation_exit_3(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"dist": [["0", "1"], ["2", "0"]]})
        assert main(["validate", "metric", path, "--mode", "rational"]) == 3

    def test_measure_ok(self, tmp_path, capsys):
        path = write(tmp_path, "mu.json", {"weights": [HALF, HALF]})
        assert main(["validate", "measure", path, "--mode", "rational"]) == 0

    def test_unnormalized_measure_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "mu.json", {"weights": [HALF, HALF, HALF]})
        assert main(["validate", "measure", path, "--mode", "rational"]) == 1

    def test_plan_exit_3(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "plan.json",
            {
                "mu1": [HALF, HALF],
                "mu2": [HALF, HALF],
                "matrix": [["1", "0"], ["0", "0"]],
            },
        )
        assert main(["validate", "plan", path, "--mode", "rational"]) == 3
