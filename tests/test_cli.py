import json

import pytest

from perturbalg.cli import run
from perturbalg.ppoly import PerturbedPolynomial

JORDAN2 = '{"n":2,"base":[["1","1"],["0","1"]],"pert":[["0","0"],["t","0"]]}'
DIAG01 = '{"n":2,"base":[["0","0"],["0","1"]]}'


def run_json(capsys, argv):
    code = run(argv + ["--json"])
    output = capsys.readouterr().out
    return code, json.loads(output)


def test_pgcd_worked_instance(capsys):
    code, payload = run_json(
        capsys,
        ["pgcd", "--p1", "X^3 - e1*X - 1 + e2", "--p2", "X^2 + e3*X - 1"],
    )
    assert code == 0
    assert payload["pgcd"] == "(1 - e1 + e3^2)*X + (-1 - e3 + e2)"
    assert payload["monic_shadow"] == "X - 1"
    assert payload["trace"][-1]["wholly_infinitesimal"] is True


def test_roots_driver(capsys):
    code, payload = run_json(
        capsys,
        ["roots", "--base", "X^2 - 2*X + 1", "--pert=-t", "--root", "1"],
    )
    assert code == 0
    assert payload["asymptotics"] == [{"kind": "power", "order": 2, "rhs": "t"}]


def test_roots_driver_balance(capsys):
    code, payload = run_json(
        capsys,
        ["roots", "--base", "X^2 - 2*X + 1", "--pert", "t*X - t", "--root", "1"],
    )
    assert code == 0
    kinds = [entry["rhs"] for entry in payload["asymptotics"]]
    assert kinds == ["0", "-t"]


def test_roots_driver_newton_polygon(capsys):
    # Xi(1) = 0 sends both a triple and a simple root through dominant_balance
    still = {"kind": "power", "order": 1, "rhs": "0"}
    for base, expected in (
        ("X^3 - 3*X^2 + 3*X - 1", [still, {"kind": "power", "order": 2, "rhs": "-t"}]),
        ("X^2 - 1", [still]),
    ):
        code, payload = run_json(
            capsys, ["roots", "--base", base, "--pert", "t*X - t", "--root", "1"]
        )
        assert code == 0
        assert payload["asymptotics"] == expected


def test_goze_schema(capsys):
    code, payload = run_json(capsys, ["goze", "--vector", "t + 2*t^2, 3*t^2"])
    assert code == 0
    assert payload["rank"] == 2
    assert payload["levels"][0] == {"alpha": "t + 2*t^2", "U": ["1", "0"]}
    assert payload["levels"][1]["U"] == ["0", "1"]


def test_charpoly(capsys):
    code, payload = run_json(capsys, ["charpoly", "--matrix", JORDAN2])
    assert code == 0
    assert payload["charpoly"] == "X^2 - 2*X + (1 - t)"


def test_eigshift(capsys):
    code, payload = run_json(
        capsys, ["eigshift", "--matrix", JORDAN2, "--eigenvalue", "1"]
    )
    assert code == 0
    assert payload["order"] == 2 and payload["rhs"] == "t"


def _power(order, rhs):
    return {"kind": "power", "order": order, "rhs": rhs}


def _balance(linear, constant):
    return {"kind": "balance", "quad_coeff": "1", "linear": linear, "constant": constant}


@pytest.mark.parametrize(
    "argv, expected",
    [
        # each used to print the one-edge claim, false for every branch
        (["eigshift", "--matrix", '{"n":2,"base":[["1","0"],["0","1"]],'
          '"pert":[["t","2*t"],["3*t","4*t"]]}', "--eigenvalue", "1"],
         {"eigenvalue": "1", "asymptotics": [_balance("-5*t", "-2*t^2")]}),
        (["roots", "--base", "X^2 - 2*X + 1", "--pert", "t*X - t + t^3", "--root", "1"],
         {"base_root": "1", "asymptotics": [_power(1, "-t^2"), _power(1, "-t")]}),
        (["roots", "--base", "X^2 - 2*X + 1", "--pert", "t*X - t + t^2", "--root", "1"],
         {"base_root": "1", "asymptotics": [_balance("t", "t^2")]}),
        (["roots", "--base", "X^4 - X^3 - 3*X^2 + 5*X - 2", "--pert", "2*t*X - 2*t + t^2",
          "--root", "1"],
         {"base_root": "1", "asymptotics": [_power(1, "-1/2*t"), _power(2, "-2/3*t")]}),
        # Xi(u) = 0 at a simple eigenvalue: one branch that stays put, flat
        (["eigshift", "--matrix", '{"n":2,"base":[["1","0"],["0","2"]],'
          '"pert":[["0","t"],["0","0"]]}', "--eigenvalue", "1"],
         {"eigenvalue": "1", **_power(1, "0")}),
    ],
    ids=["eigshift-balance", "two-scales", "balance", "triple-root", "eigshift-still"],
)
def test_roots_and_eigshift_print_the_newton_polygon_branches(capsys, argv, expected):
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload == expected


def test_declared_multiplicity_must_hold(capsys):
    for argv in (
        ["roots", "--base", "X^2 - 2*X + 1", "--pert=-t", "--root", "1", "--mult", "1"],
        ["eigshift", "--matrix", JORDAN2, "--eigenvalue", "1", "--mult", "3"],
    ):
        assert run(argv) == 2
        assert "declared multiplicity" in capsys.readouterr().err
    assert run(["roots", "--base", "X^2 - 1", "--pert", "t", "--root", "1", "--mult", "1"]) == 0


def test_conservative(capsys):
    matrix = '{"n":2,"base":[["0","0"],["0","0"]],"pert":[["0","t"],["0","0"]]}'
    code, payload = run_json(capsys, ["conservative", "--matrix", matrix])
    assert code == 0
    assert payload["conservative"] is True


def test_orbitdim(capsys):
    code, payload = run_json(
        capsys, ["orbitdim", "--matrix", '{"n":2,"base":[["1","0"],["0","1"]]}']
    )
    assert code == 0
    assert payload["dimension"] == 0


def test_hermitian(capsys):
    code, payload = run_json(
        capsys,
        [
            "hermitian",
            "--matrix", '{"n":2,"base":[["0","0"],["0","1"]]}',
            "--direction", '{"n":2,"base":[["1","0"],["0","0"]]}',
            "--alpha", "t",
            "--eigenvalue", "0",
        ],
    )
    assert code == 0
    assert payload["shift"] == "t"


def test_simplify_tf(capsys):
    code, payload = run_json(
        capsys,
        ["simplify-tf", "--num", "p^3 - e1*p - 1 + e2", "--den", "p^2 + e3*p - 1"],
    )
    assert code == 0
    assert payload["reduced_shadow"] == "(p^2 + p + 1)/(p + 1)"
    assert payload["first_order"]["e1"] == "(-p)/(p^2 - 1)"
    assert payload["first_order"]["e2"] == "(1)/(p^2 - 1)"
    assert payload["first_order"]["e3"] == "(-p^3 - p^2 - p)/(p^3 + p^2 - p - 1)"


def test_verify_case(capsys):
    code = run(["verify", "--case", "jordan2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] == "pass"


@pytest.mark.parametrize(
    "case", ["simple", "double", "jordan2", "nilpotent3", "pgcd", "transfer", "refute-half"]
)
def test_every_verify_case(capsys, case):
    code = run(["verify", "--case", case])
    payload = json.loads(capsys.readouterr().out)
    refuted = case == "refute-half"
    assert code == (3 if refuted else 0)
    assert payload["verdict"] == ("fail" if refuted else "pass")


@pytest.mark.parametrize("seed", ["0", "1", "7"])
def test_verify_pgcd_reads_tolerance_and_seed(capsys, seed):
    assert run(["verify", "--case", "pgcd", "--seed", seed]) == 0
    assert json.loads(capsys.readouterr().out)["tolerance"] == 0.2
    assert run(["verify", "--case", "pgcd", "--seed", seed, "--tolerance", "1e-9"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["tolerance"] == 1e-9 and payload["verdict"] == "fail"


def test_verify_transfer_judges_the_decay_by_tolerance(capsys):
    assert run(["verify", "--case", "transfer"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # each sample predicts the residual from the one before as quadratic decay
    assert [s["t0"] for s in payload["samples"]] == [1e-3, 1e-4]
    assert all(s["deviation"] < 0.05 for s in payload["samples"])
    assert run(["verify", "--case", "transfer", "--tolerance", "1e-9"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "fail" and not payload["inconclusive"]
    assert run(["verify", "--case", "transfer", "--grid", "1e-3"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["samples"] == [] and payload["inconclusive"]
    assert payload["note"] == "one grid point leaves no decay to judge"


def test_verify_refutation_fails_as_designed(capsys):
    code = run(["verify", "--case", "refute-half"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["verdict"] == "fail"


def test_parse_error_exit_code(capsys):
    assert run(["pgcd", "--p1", "X^ + 1", "--p2", "X"]) == 1
    assert "syntax error" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run(["pgcd", "--p1", "X"]) == 1


def test_oversized_scalar_power_is_a_parse_error(capsys):
    # without the bounds these compute, then fail to print (or to read) an int
    # of more than 4300 digits
    for p1, message in (
        ("X - 3^10000", "exponent overflow"),
        ("X - 3^2048*3^2048*3^2048*3^2048*3^2048", "coefficient overflow"),
        ("X - 1/2^4000 - 1/3^2000 - 1/5^1300 - 1/7^1300", "coefficient overflow"),
        ("X - " + "9" * 5000, "literal overflow"),
        ("X^" + "9" * 5000, "literal overflow"),
    ):
        assert run(["pgcd", "--p1", p1, "--p2", "X - 1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_power_of_a_gaussian_base_is_a_parse_error(capsys):
    # each factor of 1 + i adds a bit: without it the root stores 50,001-bit
    # parts and fails to print
    assert run(["roots", "--base", "X - 1", "--pert", "t", "--root", "(1+i)^100000"]) == 1
    assert capsys.readouterr().err == "error: exponent overflow (line 1, column 6)\n"


def test_deep_nesting_is_a_parse_error(capsys):
    # without the bounds the recursive descent, or json, raises RecursionError
    deep = "(" * 300 + "t" + ")" * 300
    assert run(["roots", "--base", "X-1", f"--pert={deep}", "--root", "1"]) == 1
    assert capsys.readouterr().err == "error: nesting overflow (line 1, column 100)\n"
    assert run(["charpoly", "--matrix", "[" * 20_000 + "]" * 20_000]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid matrix JSON: ") and err.count("\n") == 1


def test_power_of_a_sum_is_bounded_before_it_is_computed(capsys, monkeypatch):
    # 1 + t adds no bits per factor, but the binomial coefficients of
    # (1 + t)^(10^700) at T = 8 have about 8 * 2326 bits
    power = PerturbedPolynomial.__pow__

    def small_power(base, exponent):
        assert exponent < 1000, "the large power was computed"
        return power(base, exponent)

    monkeypatch.setattr(PerturbedPolynomial, "__pow__", small_power)
    assert run(["pgcd", "--p1", "X^2 - 1", "--p2", "(1+t)^1" + "0" * 700]) == 1
    assert capsys.readouterr().err == "error: exponent overflow (line 1, column 6)\n"


def test_pgcd_remainder_growth_is_a_domain_error(capsys):
    # each input is within the parser's bound; the Euclidean remainders are not
    p1 = "X^3 + 2^4000*X^2 + 3^2000*X + 5^1300"
    assert run(["pgcd", "--p1", p1, "--p2", "X^2 + 7^1300*X + 11^1000"]) == 2
    assert capsys.readouterr().err == "error: PGCD remainder coefficient passes 4096 bits\n"


def test_nonpositive_trunc_is_a_usage_error(capsys):
    for value in ("0", "-3", "two"):
        assert run(["goze", "--vector", "t", "--trunc", value]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --trunc: ") and err.count("\n") == 1


def test_domain_error_exit_code(capsys):
    # non-Hermitian input is a domain error
    code = run(
        [
            "hermitian",
            "--matrix", '{"n":2,"base":[["0","1"],["0","0"]]}',
            "--direction", '{"n":2,"base":[["1","0"],["0","0"]]}',
            "--alpha", "t",
            "--eigenvalue", "0",
        ]
    )
    assert code == 2
    assert "Hermitian" in capsys.readouterr().err


def test_trunc_flag(capsys):
    # at T=2 the t^3 entry truncates to zero, collapsing the rank
    code, payload = run_json(
        capsys, ["goze", "--vector", "t, t^3", "--trunc", "2"]
    )
    assert code == 0
    assert payload["rank"] == 1
    code, payload = run_json(capsys, ["goze", "--vector", "t, t^3"])
    assert payload["rank"] == 2


def test_human_readable_default(capsys):
    code = run(["orbitdim", "--matrix", '{"n":2,"base":[["1","0"],["0","2"]]}'])
    assert code == 0
    assert capsys.readouterr().out.strip() == "dimension: 2"


def test_text_mode_prints_lists_and_maps(capsys):
    assert run(["pgcd", "--p1", "X^3 - e1*X - 1 + e2", "--p2", "X^2 + e3*X - 1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == [
        "pgcd: (1 - e1 + e3^2)*X + (-1 - e3 + e2)",
        "monic_shadow: X - 1",
        "trace:",
        '  {"remainder": "(1 - e1 + e3^2)*X + (-1 - e3 + e2)", "wholly_infinitesimal": false,'
        ' "exact_zero": false, "stripped_degrees": []}',
    ]
    assert len(lines) == 5
    assert lines[4].startswith('  {"remainder": "(3*e3 - 2*e2 + 2*e1 - 3*e2*e3 + e2^2 ')
    assert lines[4].endswith(
        '"wholly_infinitesimal": true, "exact_zero": false, "stripped_degrees": []}'
    )

    assert run(["simplify-tf", "--num", "p^3 - e1*p - 1 + e2", "--den", "p^2 + e3*p - 1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "reduced_shadow: (p^2 + p + 1)/(p + 1)",
        "pgcd: (1 - e1 + e3^2)*p + (-1 - e3 + e2)",
    ]
    assert lines[-4:] == [
        "first_order:",
        "  e1: (-p)/(p^2 - 1)",
        "  e2: (1)/(p^2 - 1)",
        "  e3: (-p^3 - p^2 - p)/(p^3 + p^2 - p - 1)",
    ]


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize(
    "argv, message",
    [
        # at T = 1600 this Euclid would run for minutes (its cost grows as T^3)
        (["pgcd", "--p1", "X^2", "--p2", "(1+t)*X + 1", "--trunc", "1600"],
         "truncation 1600 (at most 128), 1601 monomials (at most 512)"),
        (["simplify-tf", "--num", "p + e1 + e2 + e3 + e4 + e5", "--den", "p + 1"],
         "truncation 8 (at most 128), 1287 monomials (at most 512)"),
    ],
)
def test_rings_past_the_budget_are_domain_errors(capsys, argv, message):
    assert run(argv) == 2
    assert one_error_line(capsys) == f"error: ring budget exceeded: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--base", "X^2 - 2*X + 1", "--pert=-t", "--root", "1 + t^9"],
        ["roots", "--base", "X^2 - 2*X + 1", "--pert=-t", "--root", "0*t + 1"],
        ["eigshift", "--matrix", '{"n":1,"base":[["t^9"]],"pert":[["t"]]}', "--eigenvalue", "0"],
        ["eigshift", "--matrix", JORDAN2, "--eigenvalue", "1 + t^9"],
    ],
)
def test_exact_scalars_reject_generators_beyond_the_truncation(capsys, argv):
    # at the default T = 8 each generator term would truncate to nothing
    assert run(argv) == 1
    assert one_error_line(capsys) == "error: expected an exact scalar, found generator terms\n"


@pytest.mark.parametrize("base", ["X^2 - 2*X + 1 + t^9", "X^2 + t", "X^2 - 2*X + 1 + 0*t"])
def test_exact_base_rejects_generators(capsys, base):
    assert run(["roots", "--base", base, "--pert=-t", "--root", "1"]) == 2
    assert one_error_line(capsys) == "error: base polynomial must have exact scalar coefficients\n"


@pytest.mark.parametrize(
    "matrix",
    [
        '{"base": 5}',
        '{"base": [1]}',
        '{"base": [["1"]], "pert": 3}',
        '{"base": [["1"]], "pert": [1]}',
    ],
)
def test_hostile_matrix_json_is_a_parse_error(capsys, matrix):
    assert run(["charpoly", "--matrix", matrix]) == 1
    assert one_error_line(capsys).startswith("error: matrix JSON '")


@pytest.mark.parametrize(
    "flags",
    [
        ["--grid", "abc"],
        ["--grid", "1e-2,,1e-3"],
        ["--tolerance", "abc"],
        ["--tolerance", "1e-2,1e-3"],
    ],
)
def test_verify_flags_that_are_not_numbers_are_usage_errors(capsys, flags):
    assert run(["verify", "--case", "simple", *flags]) == 1
    assert one_error_line(capsys).startswith(f"error: argument {flags[0]}: ")


@pytest.mark.parametrize("tolerance", ["-1", "0", "nan", "inf"])
def test_verify_tolerance_must_be_finite_and_positive(capsys, tolerance):
    assert run(["verify", "--case", "simple", f"--tolerance={tolerance}"]) == 2
    assert one_error_line(capsys) == "error: tolerance must be finite and positive\n"


@pytest.mark.parametrize(
    "case", ["simple", "double", "jordan2", "nilpotent3", "pgcd", "transfer", "refute-half"]
)
def test_every_verify_case_checks_its_grid(capsys, case):
    for grid in ("nan", "5", "1e-2,nan", "0", "-1e-3", "1e-3,inf"):
        assert run(["verify", "--case", case, f"--grid={grid}"]) == 2
        assert one_error_line(capsys) == "error: grid values must lie in (0, 0.1]\n"


def test_unknown_verify_case_lists_the_known_ones(capsys):
    assert run(["verify", "--case", "nosuch"]) == 2
    assert one_error_line(capsys) == (
        "error: unknown case 'nosuch'; known cases: "
        "double, jordan2, nilpotent3, pgcd, refute-half, simple, transfer\n"
    )


@pytest.mark.parametrize(
    "matrix,direction,alpha,eigenvalue,message",
    [
        (DIAG01, '{"n":2,"base":[["0","1"],["0","0"]]}', "t", "0",
         "error: direction matrix is not Hermitian\n"),
        (DIAG01, '{"n":2,"base":[["1","0"],["0","0"]]}', "1 + t", "0",
         "error: alpha must be infinitesimal\n"),
        (DIAG01, '{"n":2,"base":[["1","0"],["0","0"]]}', "t", "5",
         "error: 5 is not an eigenvalue of the base matrix\n"),
        ('{"n":2,"base":[["1","0"],["0","1"]]}', '{"n":2,"base":[["1","0"],["0","0"]]}', "t", "1",
         "error: 1 is not a simple eigenvalue\n"),
    ],
)
def test_hermitian_rejections_are_domain_errors(capsys, matrix, direction, alpha, eigenvalue, message):
    argv = ["hermitian", "--matrix", matrix, "--direction", direction,
            "--alpha", alpha, "--eigenvalue", eigenvalue]
    assert run(argv) == 2
    assert one_error_line(capsys) == message


def test_product_of_a_long_sum_is_a_parse_error(capsys):
    # every other bound passes; the power stops at its first square past
    # MAX_PRODUCT_PAIRS, that of (1 + X + t + e1 + e2)^32, long before the
    # square of ^256 would pair 41,415 rows with as many
    pert = "t*(1+X+t+e1+e2)^512"
    assert run(["roots", "--base", "X - 1", "--pert", pert, "--root", "1"]) == 1
    assert capsys.readouterr().err == "error: product overflow (line 1, column 16)\n"
