import json

import pytest
from click.testing import CliRunner

from cclab import errors
from cclab.cli import EXIT_COUNTING, main
from cclab.config import PSI_13

A2_QUIVER = '{"vertices": 2, "arrows": [[1, 2]]}\n'
S1 = '{"dim": [1, 0], "matrices": [[]]}\n'
S2 = '{"dim": [0, 1], "matrices": [[]]}\n'
P1 = '{"dim": [1, 1], "matrices": [[[1]]]}\n'
KRONECKER = '{"vertices": 2, "arrows": [[1, 2], [1, 2]]}\n'
KRON_S1 = '{"dim": [1, 0], "matrices": [[], []]}\n'
KRON_S2 = '{"dim": [0, 1], "matrices": [[], []]}\n'
A3_QUIVER = '{"vertices": 3, "arrows": [[1, 2], [2, 3]]}\n'
D4TILDE = '{"vertices": 5, "arrows": [[1, 5], [2, 5], [3, 5], [4, 5]]}\n'
D4T_P1 = '{"dim": [1, 0, 0, 0, 1], "matrices": [[[1]], [[]], [[]], [[]]]}\n'
D4T_I5 = ('{"dim": [1, 1, 1, 1, 1], '
          '"matrices": [[[1]], [[1]], [[1]], [[1]]]}\n')
D4T_E1 = '{"dim": [1, 1, 0, 0, 1], "matrices": [[[1]], [[1]], [[]], [[]]]}\n'
D4T_E2 = '{"dim": [0, 0, 1, 1, 1], "matrices": [[[]], [[]], [[1]], [[1]]]}\n'


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    files = {"a2.q": A2_QUIVER, "s1.m": S1, "s2.m": S2, "p1.m": P1,
             "kron.q": KRONECKER, "kron_s1.m": KRON_S1, "kron_s2.m": KRON_S2,
             "a3.q": A3_QUIVER, "d4t.q": D4TILDE,
             "d4t_p1.m": D4T_P1, "d4t_i5.m": D4T_I5,
             "d4t_e1.m": D4T_E1, "d4t_e2.m": D4T_E2}
    for name, body in files.items():
        (tmp_path / name).write_text(body)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_cc_module(workdir):
    res = run("cc", "--quiver", "a2.q", "--module", "s1.m")
    assert res.exit_code == 0
    assert res.output == "x1^-1 + x1^-1*x2\n"


def test_cc_shifted(workdir):
    res = run("cc", "--quiver", "a2.q", "--shifted", "1,0")
    assert res.exit_code == 0
    assert res.output == "x1\n"


def test_cc_structured(workdir):
    res = run("cc", "--quiver", "a2.q", "--module", "p1.m",
              "--format", "structured")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["value"] == "x1^-1*x2^-1 + x1^-1 + x2^-1"


def test_cc_malformed_module_exits_1(workdir):
    (workdir / "bad.m").write_text('{"dim": [1], "matrices": []}\n')
    res = run("cc", "--quiver", "a2.q", "--module", "bad.m")
    assert res.exit_code == 1


def test_cc_missing_file_exits_1(workdir):
    res = run("cc", "--quiver", "a2.q", "--module", "nope.m")
    assert res.exit_code == 1


def test_verify_xx1_true(workdir):
    res = run("verify", "xx1", "--quiver", "a2.q", "s2.m", "s1.m")
    assert res.exit_code == 0
    assert "verdict: true" in res.output


def test_verify_xx1_projective_precondition(workdir):
    res = run("verify", "xx1", "--quiver", "a2.q", "s1.m", "s2.m")
    assert res.exit_code == 1


def test_verify_structured(workdir):
    res = run("verify", "xx1", "--quiver", "a2.q", "s2.m", "s1.m",
              "--format", "structured")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["verdict"] is True
    assert {s["side"] for s in doc["strata"]} == {"ext", "hom"}


# Exact structured output, byte for byte: labels, both sides, every
# stratum in order, the verdict and the primes.
D4T_XX1 = ("x1^-1*x2^-1*x3^-1*x4^-1*x5^-2 + 4*x1^-1*x2^-1*x3^-1*x4^-1*x5^-1"
           " + 6*x1^-1*x2^-1*x3^-1*x4^-1 + 4*x1^-1*x2^-1*x3^-1*x4^-1*x5"
           " + x1^-1*x2^-1*x3^-1*x4^-1*x5^2 + 2*x5^-2 + 4*x5^-1 + 2"
           " + x1*x2*x3*x4*x5^-2")
D4T_UNIFIED = ("2*x1^-1*x2^-1*x3^-1*x4^-1*x5^-2"
               " + 8*x1^-1*x2^-1*x3^-1*x4^-1*x5^-1"
               " + 12*x1^-1*x2^-1*x3^-1*x4^-1 + 8*x1^-1*x2^-1*x3^-1*x4^-1*x5"
               " + 2*x1^-1*x2^-1*x3^-1*x4^-1*x5^2 + 4*x5^-2 + 8*x5^-1 + 4"
               " + 2*x1*x2*x3*x4*x5^-2")
PRIMES = '"primes": [23, 29, 31, 37, 41, 43, 47, 53]'  # the defaults
GOLDEN_VERIFY = [
    (["xx1", "--quiver", "a2.q", "s2.m", "s1.m"],
     '{"label": "xx1: 1 * X_L X_M", '
     '"lhs": "x1^-1*x2^-1 + x1^-1 + x2^-1 + 1", '
     '"rhs": "x1^-1*x2^-1 + x1^-1 + x2^-1 + 1", '
     '"strata": [{"middle": "module dim (1, 1)", "chi": 1, "side": "ext"}, '
     '{"middle": "0", "chi": 1, "side": "hom"}], "verdict": true, '
     + PRIMES + '}\n'),
    (["xx1", "--quiver", "kron.q", "kron_s2.m", "kron_s1.m"],
     '{"label": "xx1: 2 * X_L X_M", '
     '"lhs": "2*x1^-1*x2^-1 + 2*x1^-1*x2 + 2*x1*x2^-1 + 2*x1*x2", '
     '"rhs": "2*x1^-1*x2^-1 + 2*x1^-1*x2 + 2*x1*x2^-1 + 2*x1*x2", '
     '"strata": [{"middle": "module dim (1, 1)", "chi": 2, "side": "ext"}, '
     '{"middle": "P1[1] + P2[1]", "chi": 2, "side": "hom"}], '
     '"verdict": true, ' + PRIMES + '}\n'),
    (["xx2", "--quiver", "a2.q", "s2.m", "p1.m"],  # S2 = P2 on A2
     '{"label": "xx2: 1 * X_M X_P[1]", '
     '"lhs": "x1^-1 + x1^-1*x2 + 1", "rhs": "x1^-1 + x1^-1*x2 + 1", '
     '"strata": [{"middle": "0", "chi": 1, "side": "proj-shift-inj"}, '
     '{"middle": "module dim (1, 1) + P2[1]", "chi": 1, '
     '"side": "proj-shift-hom"}], '
     '"verdict": true, ' + PRIMES + '}\n'),
    (["unified", "--quiver", "a2.q", "p1.m", "--shifted", "0,1"],
     '{"label": "unified (via shifted reduction): xx2: 1 * X_M X_P[1]", '
     '"lhs": "x1^-1 + x1^-1*x2 + 1", "rhs": "x1^-1 + x1^-1*x2 + 1", '
     '"strata": [{"middle": "0", "chi": 1, "side": "proj-shift-inj"}, '
     '{"middle": "module dim (1, 1) + P2[1]", "chi": 1, '
     '"side": "proj-shift-hom"}], '
     '"verdict": true, ' + PRIMES + '}\n'),
    (["xx1", "--quiver", "d4t.q", "d4t_e2.m", "d4t_e1.m"],
     '{"label": "xx1: 1 * X_L X_M", "lhs": "' + D4T_XX1 + '", '
     '"rhs": "' + D4T_XX1 + '", '
     '"strata": [{"middle": "module dim (1, 1, 1, 1, 2)", "chi": 1, '
     '"side": "ext"}, {"middle": "0", "chi": 1, "side": "hom"}], '
     '"verdict": true, ' + PRIMES + '}\n'),
    (["unified", "--quiver", "d4t.q", "d4t_e1.m", "d4t_e2.m"],
     '{"label": "unified: 2 * X_M X_N", "lhs": "' + D4T_UNIFIED + '", '
     '"rhs": "' + D4T_UNIFIED + '", '
     '"strata": [{"middle": "module dim (1, 1, 1, 1, 2)", "chi": 1, '
     '"side": "ext"}, {"middle": "0", "chi": 1, "side": "hom"}, '
     '{"middle": "module dim (1, 1, 1, 1, 2)", "chi": 1, "side": "ext"}, '
     '{"middle": "0", "chi": 1, "side": "hom"}], "verdict": true, '
     + PRIMES + '}\n'),
]


@pytest.mark.parametrize("args, expected", GOLDEN_VERIFY,
                         ids=["xx1-a2", "xx1-kronecker", "xx2-a2",
                              "unified-shifted-a2", "xx1-d4tilde",
                              "unified-d4tilde"])
def test_verify_structured_golden(workdir, args, expected):
    res = run("verify", *args, "--format", "structured")
    assert res.exit_code == 0
    assert res.output == expected


def test_verify_unified_shifted(workdir):
    res = run("verify", "unified", "--quiver", "a2.q", "p1.m",
              "--shifted", "0,1")
    assert res.exit_code == 0
    assert "verdict: true" in res.output


def test_verify_d4tilde_p1_i5_exits_0(workdir):
    """D4-tilde xx1(P1, I5), whose Hom side once found no stratum
    representative over QQ, verifies."""
    res = run("verify", "xx1", "--quiver", "d4t.q", "d4t_p1.m", "d4t_i5.m")
    assert res.exit_code == 0
    assert "verdict: true" in res.output


def test_verify_prime_where_ext_jumps_exits_counting(workdir):
    """R(1, 1/2) and R(1, 12) are isomorphic mod 23 alone, where Ext^1
    between them jumps from 0 to 1: verify exits EXIT_COUNTING with the
    dimensions per prime, and no verdict."""
    (workdir / "r_half.m").write_text(
        '{"dim": [1, 1], "matrices": [[[1]], [["1/2"]]]}\n')
    (workdir / "r_12.m").write_text(
        '{"dim": [1, 1], "matrices": [[[1]], [[12]]]}\n')
    res = run("verify", "xx1", "--quiver", "kron.q", "r_half.m", "r_12.m")
    assert res.exit_code == EXIT_COUNTING
    assert "Ext^1 dimension varies with prime: {23: 1, 29: 0" in res.output
    assert "verdict" not in res.output


def test_verify_hom_basis_denominator_exits_0(workdir):
    """Integer inputs under the height guard whose rational Hom basis has
    a denominator divisible by the default prime 37 verify: each prime
    takes its own Hom basis, so no prime is refused."""
    (workdir / "kron_l.m").write_text(
        '{"dim": [1, 2], "matrices": [[[-10], [-16]], [[-12], [19]]]}\n')
    (workdir / "kron_t.m").write_text(
        '{"dim": [2, 2], "matrices": [[[19, 8], [-12, -12]], '
        '[[-20, -20], [-7, -7]]]}\n')
    res = run("verify", "xx2", "--quiver", "kron.q", "kron_l.m", "kron_t.m")
    assert res.exit_code == 0
    assert "verdict: true" in res.output


def test_grass_profile(workdir):
    res = run("grass", "--quiver", "a2.q", "--module", "p1.m")
    assert res.exit_code == 0
    assert res.output == "0,0: 1\n0,1: 1\n1,1: 1\n"


def test_mutate(workdir):
    res = run("mutate", "--quiver", "a2.q", "--directions", "1")
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "x1^-1 + x1^-1*x2"


def test_list_variables_a2(workdir):
    res = run("list-variables", "--quiver", "a2.q", "--depth", "5")
    assert res.exit_code == 0
    lines = res.output.splitlines()
    assert len(lines) == 6 and lines[-1] == "stabilized: true"


def test_compare_a2(workdir):
    res = run("compare", "--quiver", "a2.q", "--depth", "5")
    assert res.exit_code == 0
    assert "oracle variables: 5" in res.output


def test_compare_kronecker_refused(workdir):
    res = run("compare", "--quiver", "kron.q", "--depth", "3")
    assert res.exit_code == 1  # not a linear A_n quiver


def test_compare_a3_shallow_depth_unstable(workdir):
    res = run("compare", "--quiver", "a3.q", "--depth", "1")
    assert res.exit_code == 4


def test_deterministic_output(workdir):
    a = run("verify", "unified", "--quiver", "a2.q", "s2.m", "s1.m")
    b = run("verify", "unified", "--quiver", "a2.q", "s2.m", "s1.m")
    assert a.output == b.output


def test_primes_flag_rejects_composite(workdir):
    res = run("cc", "--quiver", "a2.q", "--module", "s1.m",
              "--primes", "21,23,29")
    assert res.exit_code == 1


def test_primes_flag_empty_is_an_empty_list(workdir):
    """An empty --primes is an empty prime list, as "," is: it does not
    fall back to the defaults."""
    res = run("cc", "--quiver", "a2.q", "--module", "s1.m", "--primes", "")
    assert res.exit_code == 1
    assert "empty prime list" in res.stderr


@pytest.mark.parametrize("args", [("mutate", "--directions", "1"),
                                  ("list-variables", "--depth", "5")])
def test_primes_flag_only_on_counting_commands(workdir, args):
    """mutate and list-variables count no points, so they take no --primes
    and refuse it as an unknown option."""
    res = run(*args, "--quiver", "a2.q", "--primes", "23")
    assert res.exit_code == 2
    assert "No such option" in res.output and "--primes" in res.output


def test_cyclic_quiver_rejected(workdir):
    (workdir / "cyc.q").write_text(
        '{"vertices": 2, "arrows": [[1, 2], [2, 1]]}\n')
    res = run("cc", "--quiver", "cyc.q", "--shifted", "1,0")
    assert res.exit_code == 1


def test_compare_depth_zero_unstable(workdir):
    """Depth 0 explores nothing, so the closure has not stabilized."""
    res = run("compare", "--quiver", "a2.q", "--depth", "0")
    assert res.exit_code == 4


def test_list_variables_depth_zero_not_stabilized(workdir):
    res = run("list-variables", "--quiver", "kron.q", "--depth", "0")
    assert res.exit_code == 0
    assert res.output.splitlines() == ["x1", "x2", "stabilized: false"]


@pytest.mark.parametrize("end", ['"a"', "null", "1.9", "1.0", "true"])
def test_non_integer_arrow_end_exits_1(workdir, end):
    """An arrow end is an int: a float is not truncated and a bool or a
    string is not read as one."""
    (workdir / "bad.q").write_text(
        '{"vertices": 2, "arrows": [[%s, 2]]}\n' % end)
    res = run("cc", "--quiver", "bad.q", "--shifted", "1,0")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: arrow #0 has a non-integer end")
    assert end.strip('"').replace("true", "True").replace(
        "null", "None") in res.stderr


@pytest.mark.parametrize("n", ["2.5", "2.0", '"2"', "true"])
def test_non_integer_vertex_count_exits_1(workdir, n):
    (workdir / "bad.q").write_text('{"vertices": %s, "arrows": []}\n' % n)
    res = run("cc", "--quiver", "bad.q", "--shifted", "1,0")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith(
        "error: vertex count must be a positive integer, got ")


# Module files of A2 that make_rep, check_dimvec or the entry reader refuse.
BAD_MODULES = {
    "dim-length": '{"dim": [1], "matrices": [[]]}',
    "dim-negative": '{"dim": [-1, 1], "matrices": [[]]}',
    "missing-key": '{"dim": [1, 1]}',
    "matrix-count": '{"dim": [1, 1], "matrices": []}',
    "shape": '{"dim": [1, 1], "matrices": [[[1, 2]]]}',
    "non-list-matrix": '{"dim": [1, 1], "matrices": [5]}',
    "string-matrix": '{"dim": [1, 1], "matrices": ["11"]}',
    "string-row": '{"dim": [1, 1], "matrices": [["1"]]}',
    "nonempty-at-zero": '{"dim": [1, 0], "matrices": [[[1]]]}',
    "empty-rows-at-zero": '{"dim": [1, 0], "matrices": [[[], []]]}',
    "empty-row-count": '{"dim": [0, 1], "matrices": [[[], [], []]]}',
    "float-entry": '{"dim": [1, 1], "matrices": [[[1.5]]]}',
    "bool-entry": '{"dim": [1, 1], "matrices": [[[true]]]}',
    "unparsable-string": '{"dim": [1, 1], "matrices": [[["x"]]]}',
    "zero-denominator": '{"dim": [1, 1], "matrices": [[["1/0"]]]}',
    "dim-float": '{"dim": [1.7, 1], "matrices": [[[1]]]}',
    "dim-integral-float": '{"dim": [1.0, 1], "matrices": [[[1]]]}',
    "dim-bool": '{"dim": [true, 1], "matrices": [[[1]]]}',
    "dim-string": '{"dim": ["1", 1], "matrices": [[[1]]]}',
    "top-level-list": '[1, 1]',
}


@pytest.mark.parametrize("body", BAD_MODULES.values(), ids=BAD_MODULES)
def test_malformed_module_file_exits_1(workdir, body):
    """Every malformed module file exits 1 with a message naming the file,
    not a traceback."""
    (workdir / "bad.m").write_text(body + "\n")
    res = run("cc", "--quiver", "a2.q", "--module", "bad.m")
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: bad.m: ")
    assert "Traceback" not in res.output


@pytest.mark.parametrize("dim", ["[1, 0]", "[0, 1]"])
@pytest.mark.parametrize("matrix", ["[]", "[[]]"])
def test_stock_empty_matrix_forms_are_accepted(workdir, dim, matrix):
    """An arrow matrix of shape 0 x 1 or 1 x 0 may be written [] or [[]]:
    one empty row for 1 x 0, and the stock form of S1 for 0 x 1."""
    (workdir / "m.m").write_text(f'{{"dim": {dim}, "matrices": [{matrix}]}}')
    res = run("cc", "--quiver", "a2.q", "--module", "m.m")
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("label", ["empty-rows-at-zero", "empty-row-count"])
def test_empty_matrix_with_wrong_row_count_names_the_arrow(workdir, label):
    """Two empty rows for a 0 x 1 matrix, or three for a 1 x 0 one, are
    refused by arrow."""
    (workdir / "bad.m").write_text(BAD_MODULES[label] + "\n")
    res = run("cc", "--quiver", "a2.q", "--module", "bad.m")
    assert res.exit_code == 1
    assert res.stderr == "error: bad.m: matrix at arrow 0 should be empty\n"


@pytest.mark.parametrize("label", ["non-list-matrix", "string-matrix",
                                   "string-row"])
def test_matrix_that_is_not_a_list_of_rows_names_the_arrow(workdir, label):
    """A matrix that is a number, or a list of numbers, is refused by name,
    not with Python's TypeError text."""
    (workdir / "bad.m").write_text(BAD_MODULES[label] + "\n")
    res = run("cc", "--quiver", "a2.q", "--module", "bad.m")
    assert res.exit_code == 1
    assert res.stderr == ("error: bad.m: matrix at arrow 0 is not a list "
                          "of rows\n")


def test_bool_matrix_entry_names_the_value(workdir):
    """A JSON true is refused as a matrix entry, not read as 1."""
    (workdir / "bad.m").write_text(BAD_MODULES["bool-entry"] + "\n")
    res = run("cc", "--quiver", "a2.q", "--module", "bad.m")
    assert res.exit_code == 1
    assert res.stderr == "error: bad.m: bad matrix entry True\n"


def test_non_integer_dim_names_the_value(workdir):
    """A dimension entry 1.7 is refused, not truncated to 1."""
    (workdir / "bad.m").write_text(BAD_MODULES["dim-float"] + "\n")
    res = run("cc", "--quiver", "a2.q", "--module", "bad.m")
    assert res.exit_code == 1
    assert res.stderr == ("error: bad.m: dimension vector [1.7, 1] has a "
                          "non-integer entry\n")


@pytest.mark.parametrize("name, body, message", [
    ("bad.m", "{not json", "bad.m is not valid JSON"),
    ("bad.q", '{"vertices": 2}', "bad.q: expected 'vertices' and 'arrows'"),
    ("bad.q", '{"vertices": 2, "arrows": [[1]]}',
     "arrow #0 is not a pair: [1]")],
    ids=["module not JSON", "quiver without arrows", "arrow not a pair"])
def test_bad_input_file_exits_1(workdir, name, body, message):
    (workdir / name).write_text(body + "\n")
    res = run("cc", *(("--quiver", "a2.q", "--module", name)
                      if name.endswith(".m")
                      else ("--quiver", name, "--shifted", "1,0")))
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith(f"error: {message}")


@pytest.mark.parametrize("args, message", [
    (("verify", "xx1", "s2.m", "s1.m", "--shifted", "1,0"),
     "--shifted is only valid for 'unified' with one module"),
    (("verify", "xx1", "s1.m"), "verify needs exactly two module files"),
    (("mutate", "--directions", "x"), "cannot parse directions 'x'"),
    (("cc", "--module", "s1.m", "--primes", "abc"),
     "cannot parse prime list 'abc'"),
    (("cc", "--module", "s1.m", "--primes", "23,23"),
     "duplicate primes in list")],
    ids=["xx1 shifted", "one module", "directions", "primes abc",
         "primes repeated"])
def test_refused_command_line_exits_1(workdir, args, message):
    res = run(*args, "--quiver", "a2.q")
    assert res.exit_code == 1
    assert res.stderr == f"error: {message}\n"


@pytest.mark.parametrize("raw", ["1", "1,0,0", "1,-1", "a,b", ""])
@pytest.mark.parametrize("command", [("cc",), ("verify", "unified", "p1.m")],
                         ids=["cc", "unified"])
def test_bad_shifted_vector_exits_1(workdir, command, raw):
    res = run(*command, "--quiver", "a2.q", "--shifted", raw)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ")
    assert "shifted vector" in res.stderr


@pytest.mark.parametrize("command", [("cc",), ("verify", "unified", "p1.m")],
                         ids=["cc", "unified"])
def test_empty_shifted_vector_is_refused_alike(workdir, command):
    """--shifted "" is a vector that does not parse, in both commands."""
    res = run(*command, "--quiver", "a2.q", "--shifted", "")
    assert res.exit_code == 1
    assert res.stderr == "error: cannot parse shifted vector ''\n"


@pytest.mark.parametrize("flag, expected", [
    (None, [23, 29, 31, 37, 41, 43, 47, 53]),
    ("31,37,41,43", [31, 37, 41, 43]),
], ids=["defaults", "flag"])
def test_primes_precedence(workdir, flag, expected):
    """--primes beats the defaults."""
    args = ["cc", "--quiver", "a2.q", "--module", "s1.m",
            "--format", "structured"] + (["--primes", flag] if flag else [])
    res = run(*args)
    assert res.exit_code == 0
    assert json.loads(res.output)["primes"] == expected


def test_primes_ignore_the_environment(workdir, monkeypatch):
    """The sample primes come from the command line and the input alone:
    the environment variable that once set them leaves the defaults in
    place."""
    monkeypatch.setenv("CCLAB_PRIMES", "29,31,37,41")
    res = run("cc", "--quiver", "a2.q", "--module", "s1.m",
              "--format", "structured")
    assert res.exit_code == 0
    assert json.loads(res.output)["primes"] == [23, 29, 31, 37, 41, 43, 47,
                                                53]


def test_primes_must_exceed_entry_height(workdir):
    """The defaults start above the largest matrix entry; a listed prime
    at or below it exits 1."""
    (workdir / "h.m").write_text('{"dim": [1, 1], "matrices": [[[23]]]}\n')
    args = ("cc", "--quiver", "a2.q", "--module", "h.m",
            "--format", "structured")
    assert json.loads(run(*args).output)["primes"][:2] == [29, 31]
    res = run(*args, "--primes", "19,29,31,37")
    assert res.exit_code == 1
    assert res.stderr == ("error: primes [19] do not exceed the max matrix "
                          "entry 23\n")
    res = run(*args, "--primes", "29,31,37,41")
    assert json.loads(res.output)["primes"] == [29, 31, 37, 41]


def test_entry_of_twenty_digits_exits_0(workdir):
    """The default primes above an entry of 10^20 are found at once."""
    (workdir / "big.m").write_text(
        '{"dim": [1, 1], "matrices": [[[%d]]]}\n' % 10**20)
    res = run("cc", "--quiver", "a2.q", "--module", "big.m",
              "--format", "structured")
    assert res.exit_code == 0
    assert json.loads(res.output)["primes"][0] == 10**20 + 39


def test_entry_past_the_primality_test_exits_1(workdir):
    """No prime above an entry of PSI_13 or more is certified: exit 1."""
    (workdir / "huge.m").write_text(
        '{"dim": [1, 1], "matrices": [[[%d]]]}\n' % PSI_13)
    res = run("cc", "--quiver", "a2.q", "--module", "huge.m")
    assert res.exit_code == 1
    assert res.stderr == (f"error: {PSI_13 + 1} is too large to test for "
                          "primality\n")


# The text output of each command on the A2 files, as recorded before the
# commands shared one runner.
VERIFY_A2_S2_S1 = ("lhs: x1^-1*x2^-1 + x1^-1 + x2^-1 + 1\n"
                   "stratum: module dim (1, 1): chi=1 (ext)\n"
                   "stratum: 0: chi=1 (hom)\n"
                   "rhs: x1^-1*x2^-1 + x1^-1 + x2^-1 + 1\n"
                   "verdict: true\n")
VERIFY_A2_SHIFTED = ("lhs: x1^-1 + x1^-1*x2 + 1\n"
                     "stratum: 0: chi=1 (proj-shift-inj)\n"
                     "stratum: module dim (1, 1) + P2[1]: chi=1 "
                     "(proj-shift-hom)\n"
                     "rhs: x1^-1 + x1^-1*x2 + 1\n"
                     "verdict: true\n")
TEXT_GOLDEN = {
    "cc-module": (("cc", "--module", "p1.m"),
                  "x1^-1*x2^-1 + x1^-1 + x2^-1\n"),
    "cc-shifted": (("cc", "--shifted", "1,0"), "x1\n"),
    "xx1": (("verify", "xx1", "s2.m", "s1.m"), VERIFY_A2_S2_S1),
    "xx2": (("verify", "xx2", "s2.m", "p1.m"), VERIFY_A2_SHIFTED),
    "unified": (("verify", "unified", "s1.m", "s2.m"), VERIFY_A2_S2_S1),
    "unified-shifted": (("verify", "unified", "p1.m", "--shifted", "0,1"),
                        VERIFY_A2_SHIFTED),
    "grass": (("grass", "--module", "p1.m"), "0,0: 1\n0,1: 1\n1,1: 1\n"),
    "mutate": (("mutate", "--directions", "1,2"),
               "x1^-1 + x1^-1*x2\nx1^-1*x2^-1 + x1^-1 + x2^-1\n"),
    "list-variables": (("list-variables",),
                       "x1\nx1^-1 + x1^-1*x2\nx1^-1*x2^-1 + x1^-1 + x2^-1\n"
                       "x2\nx2^-1 + x1*x2^-1\nstabilized: true\n"),
    "compare": (("compare",), "oracle variables: 5\ncharacter images: 5\n"),
}


@pytest.mark.parametrize("args, expected", TEXT_GOLDEN.values(),
                         ids=TEXT_GOLDEN)
def test_text_format_golden(workdir, args, expected):
    """Every command's text output on A2, byte for byte."""
    res = run(*args, "--quiver", "a2.q")
    assert res.exit_code == 0
    assert res.output == expected


@pytest.mark.parametrize("error, code", [
    (errors.NotPolynomialCountError, 2),
    (errors.PrimeInstabilityError, 2),
    (errors.ConfigurationError, 1),
    (errors.InputError, 1),
    (errors.PreconditionError, 1),
    (errors.InexactDivisionError, 1),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_error_class_sets_exit_code(workdir, monkeypatch, error, code):
    """Counting failures exit 2 and every other workbench error exits 1,
    with the message on stderr."""
    def refuse(module, primes):
        raise error("refused here")
    monkeypatch.setattr("cclab.cli.grassmannian_profile", refuse)
    res = run("grass", "--quiver", "a2.q", "--module", "p1.m")
    assert res.exit_code == code
    assert isinstance(res.exception, SystemExit)
    assert res.stderr == "error: refused here\n"
