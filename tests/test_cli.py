import contextlib
import hashlib
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import cli, matrix
from specrad.cli import main

NILPOTENT_CSV = "0+0j,1+0j\n0+0j,0+0j\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fekete_generator_linear(capsys):
    code, out, _ = run_cli(capsys, "fekete", "--gen", "poly:1", "--n", "1000")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,value,root,running_min"
    last = lines[-1].split(",")
    assert last[0] == "1000"
    assert float(last[3]) == pytest.approx(1.006932, abs=1e-6)


def test_fekete_from_csv_file(tmp_path, capsys):
    path = tmp_path / "seq.csv"
    path.write_text("k,value\n1,2\n2,4\n3,8\n")
    code, out, _ = run_cli(capsys, "fekete", "--input", str(path))
    assert code == 0
    assert len(out.splitlines()) == 4


def test_fekete_requires_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "fekete")
    assert code == 1
    assert "error:" in err


def test_fekete_bad_generator_exits_one(capsys):
    code, _, err = run_cli(capsys, "fekete", "--gen", "bogus:1")
    assert code == 1
    assert "generator" in err


def test_convolve_binomial_theorem(capsys):
    code, out, _ = run_cli(
        capsys, "convolve", "--a", "geom:1", "--b", "geom:1", "--n", "10"
    )
    assert code == 0
    rows = out.splitlines()[1:]
    for row in rows:
        k, value = row.split(",")
        assert float(value) == pytest.approx(2.0 ** int(k), rel=1e-12)


def test_power_nilpotent(tmp_path, capsys):
    path = tmp_path / "nilpotent2.csv"
    path.write_text(NILPOTENT_CSV)
    code, out, _ = run_cli(capsys, "power", "--matrix", str(path), "--n", "8")
    assert code == 0
    roots = [float(ln.split(",")[2]) for ln in out.splitlines()[1:]]
    assert roots == [1.0] + [0.0] * 7


def test_wiener_cosine_roots_one(capsys):
    code, out, _ = run_cli(capsys, "wiener", "--f", "1:0.5,-1:0.5", "--n", "64")
    assert code == 0
    roots = [float(ln.split(",")[2]) for ln in out.splitlines()[1:]]
    assert len(roots) == 64
    for r in roots:
        assert r == pytest.approx(1.0, abs=1e-12)


def test_shift_harmonic(capsys):
    code, out, _ = run_cli(
        capsys, "shift", "--weights", "harmonic:0.5,1", "--m", "400", "--l", "200"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,norm,root,running_min"
    assert len(lines) == 201


@pytest.mark.parametrize("spec", ["harmonic:1", "harmonic:1,2,3", "harmonic:x,1", "harmonic:"])
def test_shift_bad_weights_names_the_option(capsys, spec):
    code, out, err = run_cli(capsys, "shift", "--weights", spec, "--l", "3")
    assert (code, out) == (1, "")
    assert err == "error: --weights %s: expected harmonic:a,b with two numbers\n" % spec


def test_shift_weights_file(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("j,alpha\n" + "".join("%d,%r\n" % (j, 0.5 + 1.0 / j) for j in range(1, 51)))
    code, out, _ = run_cli(capsys, "shift", "--weights-file", str(path), "--l", "30")
    assert code == 0
    assert len(out.splitlines()) == 31


def test_neumann_inverse_output(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("0+0j,1.5+0j\n0.1+0j,0+0j\n")
    code, out, _ = run_cli(capsys, "neumann", "--matrix", str(path), "--tol", "1e-10")
    assert code == 0
    x = matrix.read_matrix_csv(path.read_text())
    y = matrix.read_matrix_csv(out)
    residual = matrix.inf_norm((np.eye(2) - x) @ y - np.eye(2))
    assert residual <= 1e-10


def test_neumann_identity_exits_two(tmp_path, capsys):
    path = tmp_path / "eye.csv"
    path.write_text(matrix.matrix_to_csv(np.eye(2)))
    code, _, err = run_cli(capsys, "neumann", "--matrix", str(path))
    assert code == 2
    assert "NotConvergent" in err


def test_neumann_unattainable_tol_exits_two(tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text("0+0j,1.5+0j\n0.1+0j,0+0j\n")
    code, out, err = run_cli(capsys, "neumann", "--matrix", str(path), "--tol", "1e-18")
    assert code == 2
    assert out == ""
    assert err.startswith("NotConvergent: residual")
    assert err.count("\n") == 1


def test_resolvent_nilpotent(tmp_path, capsys):
    path = tmp_path / "nilp.csv"
    path.write_text(NILPOTENT_CSV)
    code, out, _ = run_cli(capsys, "resolvent", "--matrix", str(path), "--lam", "1")
    assert code == 0
    got = matrix.read_matrix_csv(out)
    assert np.allclose(got, np.array([[1, 1], [0, 1]]), atol=1e-12)


def test_overflowing_norm_keeps_a_finite_pivot_floor(tmp_path, capsys):
    # norm(a) overflows to inf, but no pivot is small: 1e308 on the diagonal
    path = tmp_path / "big.csv"
    path.write_text("1e308+0j,1e308+0j\n0+0j,1e308+0j\n")
    code, out, err = run_cli(capsys, "resolvent", "--matrix", str(path), "--lam", "-1")
    assert (code, err) == (0, "")
    want = [[-1e-308, 1e-308], [0, -1e-308]]
    assert np.allclose(matrix.read_matrix_csv(out), want, rtol=1e-15, atol=0)
    for norm in ("inf", "one"):
        code, out, err = run_cli(
            capsys, "spectrum", "--matrix", str(path), "--norm", norm,
            "--re-min", "-1", "--re-max", "1", "--im-min", "0", "--im-max", "0", "--step", "1",
        )
        assert (code, err) == (0, "")
        assert out == "re,im,invertible,margin\n" + "".join(
            "%d,0,true,1e+308\n" % re for re in (-1, 0, 1)
        )


def test_resolvent_singular_exits_two(tmp_path, capsys):
    path = tmp_path / "eye.csv"
    path.write_text(matrix.matrix_to_csv(np.eye(2)))
    code, _, err = run_cli(capsys, "resolvent", "--matrix", str(path), "--lam", "1")
    assert code == 2
    assert "Singular" in err


def test_spectrum_scan_schema(tmp_path, capsys):
    path = tmp_path / "diag.csv"
    path.write_text(matrix.matrix_to_csv(np.diag([1.0, 2.0])))
    code, out, _ = run_cli(
        capsys,
        "spectrum",
        "--matrix",
        str(path),
        "--re-min",
        "0",
        "--re-max",
        "3",
        "--im-min",
        "0",
        "--im-max",
        "0",
        "--step",
        "0.5",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "re,im,invertible,margin"
    flagged = [ln for ln in lines[1:] if ",false," in ln]
    assert [ln.split(",")[0] for ln in flagged] == ["1", "2"]


def test_spectrum_grid_past_the_float_range_exits_two(tmp_path, capsys):
    path = tmp_path / "one.csv"
    path.write_text("0.5+0j\n")
    code, out, err = run_cli(
        capsys, "spectrum", "--matrix", str(path), "--re-min=-1e308", "--re-max", "1e308",
        "--im-min", "0", "--im-max", "0", "--step", "1",
    )
    assert (code, out) == (2, "")
    assert err.startswith("BudgetExceeded: ")


def test_json_format_parses(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "wiener", "--f", "1:0.5,-1:0.5", "--n", "4"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 4
    assert data[0]["norm"] == 1.0


def test_matrix_json_output_parses(tmp_path, capsys):
    path = tmp_path / "nilp.csv"
    path.write_text(NILPOTENT_CSV)
    code, out, _ = run_cli(
        capsys, "--format", "json", "resolvent", "--matrix", str(path), "--lam", "2"
    )
    assert code == 0
    data = json.loads(out)
    assert data[0][0] == [0.5, 0.0]


def test_matrix_json_input(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(matrix.matrix_to_json(np.diag([2.0, 4.0])))
    code, out, _ = run_cli(capsys, "power", "--matrix", str(path), "--n", "3")
    assert code == 0
    values = [float(ln.split(",")[1]) for ln in out.splitlines()[1:]]
    assert values == pytest.approx([4.0, 16.0, 64.0], rel=1e-12)


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "--out", str(target), "fekete", "--gen", "geom:0.5", "--n", "4"
    )
    assert code == 0
    assert out == ""
    assert target.read_text().splitlines()[0] == "k,value,root,running_min"


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("selftest:")
    assert all(ln.startswith("PASS") for ln in lines[:-1])


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "power", "--matrix", "/nonexistent/x.csv")
    assert code == 1
    assert "error:" in err


def test_resolvent_bad_lam_exits_one(tmp_path, capsys):
    path = tmp_path / "nilp.csv"
    path.write_text(NILPOTENT_CSV)
    code, out, err = run_cli(capsys, "resolvent", "--matrix", str(path), "--lam", "foo")
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("text", ["[[1,2],[3,4]]", "[1]"])
def test_matrix_json_wrong_shape_exits_one(tmp_path, capsys, text):
    path = tmp_path / "m.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "power", "--matrix", str(path))
    assert code == 1
    assert err.startswith("error:")
    assert err.count("\n") == 1


def test_convolve_json_non_finite_parses(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "json", "convolve", "--a", "geom:3e102", "--b", "geom:3e102",
        "--n", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert [row["k"] for row in data] == [1, 2, 3]
    assert data[2]["value"] == "inf"


# --- README invocations, byte for byte ---------------------------------------

GOLDEN_MATRIX = np.array(
    [
        [0.25, 0.5 + 0.125j, 0],
        [0.125, -0.375, 0.5j],
        [0.0625, 0.25, 0.125 - 0.25j],
    ]
)

# "{m}" stands for a CSV file holding GOLDEN_MATRIX
README_INVOCATIONS = {
    "fekete": ["fekete", "--gen", "poly:1", "--n", "1000"],
    "convolve": ["convolve", "--a", "geom:0.5", "--b", "geom:0.25", "--n", "30"],
    "power": ["power", "--matrix", "{m}", "--n", "64", "--norm", "inf"],
    "neumann": ["neumann", "--matrix", "{m}", "--tol", "1e-10"],
    "resolvent": ["resolvent", "--matrix", "{m}", "--lam", "1+0.5j"],
    "spectrum": [
        "spectrum", "--matrix", "{m}", "--re-min", "-2", "--re-max", "2",
        "--im-min", "-2", "--im-max", "2", "--step", "0.25",
    ],
    "wiener": ["wiener", "--f", "1:0.5,-1:0.5", "--n", "64"],
    "shift": ["shift", "--weights", "harmonic:0.5,1", "--m", "4000", "--l", "2000"],
    "selftest": ["selftest"],
}

# SHA-256 of each invocation's stdout.  A mismatch means published output
# changed; update a digest only for an intended, documented output change.
GOLDEN_SHA256 = {
    ("convolve", "csv"): "4b5025c49297f8bd6ece1ce077b22c102ed6e527c567edf0848eeaf87fb7fbcd",
    ("convolve", "json"): "eb70c9e8e1457b59029d3ba0fdbcee9054e19938dd7f6c386e59e531e6293709",
    ("fekete", "csv"): "4de4e581a833bffc241108bbce544217ecbb8fb21bedce545c548c39a2c1c013",
    ("fekete", "json"): "5f10e2aac535510828a6c91323fc354db1e704ae7b1a316b9487c572a4f7ed0d",
    ("neumann", "csv"): "cecc408651c63eb3f75dd658b9d4c030961a5e47070407dae8805b5812264559",
    ("neumann", "json"): "9a09257ead8474173918c458ed5cb6647b46cb433d1539c1f0982c76402af6f3",
    ("power", "csv"): "616b1edadde2f577c8a13e2df362f74807d3d4a5da4e8db3066d5a5f8b1f8705",
    ("power", "json"): "542f205cd335b0fcc38c41f3a401083c2a2372bd2f660804065ced505f6a64a7",
    ("resolvent", "csv"): "4c5517cd179af91895c71d318acd9df378c81155f282a1a1f8d6581af02cfa29",
    ("resolvent", "json"): "c2d443917327361bcfd8791d74213eaf6bce2ee27c45e1138dab35cd6ed46e07",
    ("selftest", "csv"): "5f3ad9ffc0b89d3a0c9ffde262a1358475dee6e2735c90c37bbf083d89d2698b",
    ("selftest", "json"): "5f3ad9ffc0b89d3a0c9ffde262a1358475dee6e2735c90c37bbf083d89d2698b",
    ("shift", "csv"): "56120a04eaf50f5e4e1dbefcf2e59668b59a7d0c3c67eb4360716b9c36b35e05",
    ("shift", "json"): "d0a8401a078dac72e8ee5911c27aabc13dbb190ff2cba520cc86fc949c6db307",
    ("spectrum", "csv"): "874834afe2aec8d9d332b248b1d98adedcf0678dde16dadf30040957dffbb8cc",
    ("spectrum", "json"): "874834afe2aec8d9d332b248b1d98adedcf0678dde16dadf30040957dffbb8cc",
    ("wiener", "csv"): "364fc66b08d65ebb78f55b32379c449837a5cae91432621033581f3e830b76b1",
    ("wiener", "json"): "135604a1496489d9cfa59a015be6fb068c2bc02571e2251dc5ce203cfc3bbdd9",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(README_INVOCATIONS))
def test_readme_invocation_output_is_unchanged(tmp_path, capsys, name, fmt):
    path = tmp_path / "m.csv"
    path.write_text(matrix.matrix_to_csv(GOLDEN_MATRIX))
    argv = [arg.replace("{m}", str(path)) for arg in README_INVOCATIONS[name]]
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_SHA256[name, fmt]


# --- generic Laurent elements, byte for byte ------------------------------------

# Complex coefficients on uneven supports: unlike the cosine above, every
# rounding path of the Wiener kernels shows in these digests.
LAURENT_INVOCATIONS = {
    "four-term": ["wiener", "--f=-3:0.3+0.2j,-2:-0.25j,0:0.4,4:0.1-0.3j", "--n", "128"],
    "three-term": ["wiener", "--f=-1:0.6-0.1j,0:0.2j,1:-0.35+0.3j", "--n", "128"],
    # powers whose moduli span hundreds of orders of magnitude
    "eight-term": [
        "wiener",
        "--f=-8:0.1,-7:0.11,-1:0.1,0:0.12,1:0.1,3:0.09,5:0.1,8:0.11",
        "--n",
        "256",
    ],
}

LAURENT_SHA256 = {
    ("four-term", "csv"): "bc03ce4d2287f94f27f9cbac9d753554ea5a035654259082f8b2408513e581a3",
    ("four-term", "json"): "f35865776069f2423735c59e0c2d1a0b3e732d956bc02931c7a496f0d47ad32b",
    ("three-term", "csv"): "791915c657d5b612ebc7aa89db62c16138196029a7e3d8b0f6a4e0b3f07c8158",
    ("three-term", "json"): "217cef566207e718858a00e8dddabcda493230f26d98de6e8004a62fb691974b",
    ("eight-term", "csv"): "a721392e17aace2cf9adfd54bc62a2ab6ce6060a8eb8256072bd923b08c65c95",
    ("eight-term", "json"): "27f294279b01c414d8d9b6dde179ab6998a8ee3ffdafa726e557ac49c7446031",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(LAURENT_INVOCATIONS))
def test_laurent_output_is_unchanged(capsys, name, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, *LAURENT_INVOCATIONS[name])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LAURENT_SHA256[name, fmt]


def test_wiener_degree_beyond_64_bits(capsys):
    code, out, err = run_cli(capsys, "wiener", "--f=100000000000000000000:0.5", "--n", "3")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "k,norm,root,running_min",
        "1,0.5,0.5,0.5",
        "2,0.25,0.5,0.5",
        "3,0.12500000000000003,0.5,0.5",
    ]


# Non-finite and subnormal coefficients once gave nan rows; only the absence
# of a numpy warning or a traceback is checked here, the fixed outputs by the
# two tests after this one.
@pytest.mark.parametrize("spec", ["1:inf", "3:1e-320,4:1e-320"])
def test_wiener_extreme_coefficients_are_silent(capsys, spec):
    code, out, err = run_cli(capsys, "wiener", "--f=" + spec, "--n", "3")
    if code == 0:
        assert err == ""
        assert len(out.splitlines()) == 4
    else:
        assert code == 1 and err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("spec", ["1:inf", "1:nan", "0:1+infj"])
def test_wiener_non_finite_coefficient_exits_one(capsys, spec):
    code, out, err = run_cli(capsys, "wiener", "--f=" + spec, "--n", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "degree %s " % spec.partition(":")[0] in err


# "{m}" stands for a CSV file holding 1e-320 * I (2 x 2)
SUBNORMAL_NORM_INVOCATIONS = {
    "wiener": ["wiener", "--f=3:1e-320,4:1e-320", "--n", "64"],
    "power": ["power", "--matrix", "{m}", "--n", "64"],
}


@pytest.mark.parametrize("name", sorted(SUBNORMAL_NORM_INVOCATIONS))
def test_subnormal_norm_keeps_finite_roots(tmp_path, capsys, name):
    # 1 / norm overflows for a subnormal norm; the roots must not turn nan
    path = tmp_path / "tiny.csv"
    path.write_text(matrix.matrix_to_csv(1e-320 * np.eye(2, dtype=complex)))
    argv = [arg.replace("{m}", str(path)) for arg in SUBNORMAL_NORM_INVOCATIONS[name]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert "nan" not in out
    roots = [float(row.split(",")[2]) for row in out.splitlines()[1:]]
    assert len(roots) == 64
    assert all(abs(r - roots[0]) <= 0.01 * roots[0] for r in roots)


# --- values past the float range ----------------------------------------------

# "{m}" stands for a CSV file holding diag(2, 1)
OVERFLOWING_INVOCATIONS = {
    "power": ["power", "--matrix", "{m}", "--n", "1100"],
    "wiener": ["wiener", "--f", "0:2", "--n", "1100"],
    "shift": ["shift", "--weights", "harmonic:2,1", "--l", "1100"],
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_INVOCATIONS))
def test_overflowing_value_reads_inf(tmp_path, capsys, name):
    path = tmp_path / "diag21.csv"
    path.write_text(matrix.matrix_to_csv(np.diag([2.0, 1.0]).astype(complex)))
    argv = [arg.replace("{m}", str(path)) for arg in OVERFLOWING_INVOCATIONS[name]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    assert len(rows) == 1100
    assert rows[-1][1] == "inf"
    assert all(math.isfinite(float(r[2])) and math.isfinite(float(r[3])) for r in rows)

    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data[-1]["norm"] == "inf"
    assert isinstance(data[-1]["root"], float)


# "{m}" stands for a CSV file whose first row sum, 2e308, overflows
OVERFLOWING_NORM_INVOCATIONS = {
    "power": ["power", "--matrix", "{m}", "--n", "3"],
    "wiener-modulus": ["wiener", "--f", "0:1.7e308+1.7e308j", "--n", "3"],
    "wiener-sum": ["wiener", "--f", "0:1e308,1:1e308", "--n", "3"],
}


@pytest.mark.parametrize("name", sorted(OVERFLOWING_NORM_INVOCATIONS))
def test_overflowing_norm_reads_inf(tmp_path, capsys, name):
    # inf is a true bound; renormalizing by 1/inf = 0 once printed 0 from k = 2
    path = tmp_path / "big.csv"
    path.write_text("1e308+0j,1e308+0j\n0+0j,1e308+0j\n")
    argv = [arg.replace("{m}", str(path)) for arg in OVERFLOWING_NORM_INVOCATIONS[name]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == "k,norm,root,running_min\n1,inf,inf,inf\n2,inf,inf,inf\n3,inf,inf,inf\n"


# --- report tables at benchmark size, byte for byte ------------------------------

AT_SIZE_INVOCATIONS = {
    "fekete": ["fekete", "--gen", "geom:0.98", "--n", "20000"],
    "shift": ["shift", "--weights", "harmonic:0.5,1", "--m", "40000", "--l", "20000"],
    "convolve": ["convolve", "--a", "geom:0.7", "--b", "geom:0.6", "--n", "1000"],
    "convolve-zero": ["convolve", "--a", "geom:0", "--b", "poly:1", "--n", "50"],
}

AT_SIZE_SHA256 = {
    ("convolve", "csv"): "206b3f4ccd68c76de11aabfbd04ca05613c834cc122937d5d89916bca1173cf3",
    ("convolve", "json"): "224c24937debc22ec6c394a93bf829dfcad0cf0751ab2389520c128fb18b254c",
    ("convolve-zero", "csv"): "076c3da77d72f56feb22d215f9fd2dd446fef4413661772fde919c0694e37161",
    ("convolve-zero", "json"): "530afe0225cf77bef1dbe7cdae77f4478aa97ab0f8be809af8f5bb3633833931",
    ("fekete", "csv"): "35e425f50c51cc0c3ce2bae47b210be22ceb6e6ff7d23f2e4ce9482d0730a0d2",
    ("fekete", "json"): "2e1f2d13ebc334c069fbfee48be99110eae410ea0979bc43715948b0f281b134",
    ("shift", "csv"): "441e6aaa4bad5fb482f93b66abbd6e67c564dec4c291dac37e715157c6998cfc",
    ("shift", "json"): "159258df7b53e8eef85758f676031f2233d77d08da6f228ff9c0f78e6bfacdd3",
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(AT_SIZE_INVOCATIONS))
def test_report_tables_at_size_are_unchanged(capsys, name, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, *AT_SIZE_INVOCATIONS[name])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == AT_SIZE_SHA256[name, fmt]


# --- one-pass Neumann ----------------------------------------------------------


def test_neumann_slow_decay_within_default_budget(tmp_path, capsys):
    # q = 0.9999 needs about 3.3e5 terms, 19 doublings of the product form
    path = tmp_path / "x.csv"
    path.write_text(matrix.matrix_to_csv(0.9999 * np.eye(2, dtype=complex)))
    code, out, err = run_cli(capsys, "neumann", "--matrix", str(path))
    assert (code, err) == (0, "")
    y = matrix.read_matrix_csv(out)
    residual = matrix.inf_norm((1 - 0.9999) * y - np.eye(2))
    assert residual <= 1e-10


# --- non-finite input ------------------------------------------------------------

NON_FINITE_MATRICES = {
    "csv": ("0.5+0j,1+0j\ninf,0+0j\n", "(2, 1) is not finite: inf"),
    "json": ("[[[0.5, 0], [NaN, 1]], [[0, 0], [1, 0]]]", "(1, 2) is not finite: nan+1j"),
}


@pytest.mark.parametrize("subcommand", ["power", "neumann", "resolvent", "spectrum"])
@pytest.mark.parametrize("fmt", sorted(NON_FINITE_MATRICES))
def test_non_finite_matrix_entry_exits_one(tmp_path, capsys, fmt, subcommand):
    text, where = NON_FINITE_MATRICES[fmt]
    path = tmp_path / ("x." + fmt)
    path.write_text(text)
    extra = {
        "resolvent": ["--lam", "2"],
        "spectrum": "--re-min -1 --re-max 1 --im-min -1 --im-max 1 --step 1".split(),
    }.get(subcommand, [])
    code, out, err = run_cli(capsys, subcommand, "--matrix", str(path), *extra)
    assert (code, out) == (1, "")
    assert err == "error: matrix entry %s\n" % where


def test_convolve_non_finite_input_names_the_input(capsys):
    code, out, err = run_cli(capsys, "convolve", "--a", "poly:1", "--b", "geom:inf", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: --b geom:inf: entry b_1 = inf is not finite\n"


# --- sequences past the float range -----------------------------------------------


@pytest.mark.parametrize(
    "argv, last_row",
    [
        # an inf value has root inf; the running minimum keeps the finite first root
        (["fekete", "--gen", "geom:1e300", "--n", "3"], "3,inf,inf,9.99999999999"),
        (["fekete", "--gen", "poly:1000", "--n", "3"], "3,inf,inf,1.07150860718"),
        (["fekete", "--gen", "subadd:800,0", "--n", "2"], "2,inf,inf,inf"),
        (["convolve", "--a", "geom:1.9", "--b", "geom:1.9", "--n", "600"], "600,inf"),
    ],
)
def test_overflowing_sequence_reads_inf(capsys, argv, last_row):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].startswith(last_row)


# --- spectrum scans at benchmark size, byte for byte ------------------------------


def benchmark_scan_argv(path, n: int, seed: int) -> list[str]:
    """A 40 x 40 scan of a random n x n matrix of inf-norm 1 over the square of
    half-width 2U, U the power-norm radius bound from 32 powers, as the
    matrix-engine benchmark draws them; the matrix is written to `path`."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a /= matrix.inf_norm(a)
    path.write_text(matrix.matrix_to_csv(a))
    bound = min(matrix.inf_norm(np.linalg.matrix_power(a, k)) ** (1.0 / k) for k in range(1, 33))
    half, step = 2.0 * bound, 4.0 * bound / 39
    return ["spectrum", "--matrix", str(path), "--re-min", repr(-half), "--re-max", repr(half),
            "--im-min", repr(-half), "--im-max", repr(half), "--step", repr(step)]


# recorded with the per-cell Gauss-Jordan scan that the batched one replaced
BENCHMARK_SCAN_SHA256 = {
    16: "fe4847286aaed3ec85b073940d71bad4b5fbf08e9656b78bf9775ae650b9b696",
    32: "19df420e752db212c0ba9e174762048ff0bc5cb30c2bcb63f2fd5511f2084ac1",
}


@pytest.mark.parametrize("n", sorted(BENCHMARK_SCAN_SHA256))
def test_benchmark_scan_output_is_unchanged(tmp_path, capsys, n):
    code, out, err = run_cli(capsys, *benchmark_scan_argv(tmp_path / "a.csv", n, seed=n))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 40 * 40
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_SCAN_SHA256[n]


# --- one-line refusals -------------------------------------------------------------


def test_neumann_overflow_refusal_prints_one_line(tmp_path, capsys):
    # the squarings overflow to inf long before the probe refuses the input
    path = tmp_path / "big.csv"
    path.write_text("1e10,1e10\n1e10,1e10\n")
    code, out, err = run_cli(capsys, "neumann", "--matrix", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("NotConvergent: ")
    assert len(err.splitlines()) == 1


def test_convolve_bad_b_entry_names_the_option(capsys):
    code, out, err = run_cli(capsys, "convolve", "--a", "poly:1", "--b", "subadd:nan,0", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: --b subadd:nan,0: entry b_1 = nan is negative or NaN\n"


# --- Wiener supports wider than the coefficient cap ------------------------------


def test_wiener_support_past_the_cap_is_never_laid_out(capsys):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "wiener", "--f", "0:1,2000000:1", "--n", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (0, "k,norm,root,running_min\n1,2,2,2\n", "")
    assert peak < 8 * 2**20  # an array over the support would take 32 MB

    code, out, err = run_cli(capsys, "wiener", "--f", "0:1,2000000:1", "--n", "2")
    assert (code, out) == (2, "")
    assert err == (
        "BudgetExceeded: product support span 4000001 exceeds coefficient cap 1000000\n"
    )


# --- non-finite spectrum grid bounds ------------------------------------------------

GRID_BOUNDS = {"--re-min": "0", "--re-max": "0", "--im-min": "0", "--im-max": "0", "--step": "1"}


@pytest.mark.parametrize("value", ["inf", "nan"])
@pytest.mark.parametrize("option", sorted(GRID_BOUNDS))
def test_non_finite_grid_bound_exits_one(tmp_path, capsys, option, value):
    path = tmp_path / "id.csv"
    path.write_text(matrix.matrix_to_csv(np.eye(2, dtype=complex)))
    bounds = {**GRID_BOUNDS, option: value}
    argv = [token for pair in bounds.items() for token in pair]
    code, out, err = run_cli(capsys, "spectrum", "--matrix", str(path), *argv)
    assert (code, out) == (1, "")
    name = option[2:].replace("-", "_")
    assert err == "error: %s must be finite, got %s\n" % (name, value)


# --- non-finite tolerances and shifts ---------------------------------------------


@pytest.mark.parametrize(
    "argv, message",
    [
        (["neumann", "--tol", "inf"], "--tol must be finite, got inf"),
        (["neumann", "--tol", "nan"], "--tol must be finite, got nan"),
        (["resolvent", "--lam", "2", "--tol", "inf"], "--tol must be finite, got inf"),
        (["resolvent", "--lam", "nan"], "--lam must be finite, got 'nan'"),
        (["resolvent", "--lam", "inf"], "--lam must be finite, got 'inf'"),
        (["resolvent", "--lam", "1+infj"], "--lam must be finite, got '1+infj'"),
    ],
)
def test_non_finite_tol_or_lam_exits_one(tmp_path, capsys, argv, message):
    # on the identity, a nan or inf passed the residual check: neumann
    # printed 2I as the inverse of I - I, resolvent a nan matrix
    path = tmp_path / "id.csv"
    path.write_text(matrix.matrix_to_csv(np.eye(2, dtype=complex)))
    code, out, err = run_cli(capsys, argv[0], "--matrix", str(path), *argv[1:])
    assert (code, out, err) == (1, "", "error: %s\n" % message)


# --- exit codes ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["power"],
        ["power", "--matrix", "m.csv", "--n", "abc"],
        ["power", "--matrix", "m.csv", "--bogus", "1"],
        ["--format", "xml", "selftest"],
    ],
)
def test_usage_error_exits_one(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_repeated_calls_do_not_affect_each_other(tmp_path, capsys, monkeypatch):
    # one parser serves every call in a process; no call may leave a default,
    # a handler or an option value behind for the next
    assert cli.build_parser() is cli.build_parser()
    path = tmp_path / "nilp.csv"
    path.write_text(NILPOTENT_CSV)
    power = ["power", "--matrix", str(path), "--n", "3"]
    fresh = run_cli(capsys, *power)
    assert fresh[0] == 0
    code, out, err = run_cli(capsys, "power", "--matrix", str(path), "--n", "abc")
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert run_cli(capsys, *power) == fresh
    assert run_cli(capsys, "--format", "json", *power)[1].startswith("[")
    assert run_cli(capsys, *power) == fresh
    seeds = []
    run_selftest = cli.selftest.run_selftest
    monkeypatch.setattr(
        cli.selftest, "run_selftest", lambda seed, out: seeds.append(seed) or run_selftest(seed, out)
    )
    plain = run_cli(capsys, "selftest")
    assert run_cli(capsys, "--seed", "5", "selftest")[0] == 0
    assert run_cli(capsys, "selftest") == plain
    assert seeds == [0, 5, 0]


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: specrad")


# each option's (valid, bad) tokens; the grid bounds and steps span at most
# 17 x 17 cells
COUNTS = (["1", "3", "64"], ["0", "-1", "abc", "nan", ""])
GENERATORS = (
    ["poly:1", "geom:0.5", "subadd:1,0", "geom:1e300"],
    ["geom:inf", "geom:nan", "poly:-1", "subadd:nan,0", "subadd:1", "geom:", "bogus:1"],
)
BAD_FILES = ["bad.csv", "missing.csv"]
BAD_BOUNDS = ["nan", "inf", "-inf", "abc"]
OPTION_TOKENS = {
    "--gen": GENERATORS,
    "--a": GENERATORS,
    "--b": GENERATORS,
    "--input": (["seq.csv"], BAD_FILES + ["w.csv"]),
    "--matrix": (["id.csv", "big.csv", "half.json"], BAD_FILES + ["seq.csv"]),
    "--weights-file": (["w.csv"], BAD_FILES + ["id.csv"]),
    "--n": COUNTS,
    "--m": COUNTS,
    "--l": COUNTS,
    "--max-terms": COUNTS,
    "--tol": (["1e-10", "0.5", "1e-300"], ["0", "-1", "nan", "inf", "-inf", "abc"]),
    "--lam": (["2", "1+0.5j", "0", "-3", "1e308"], ["nan", "inf", "1+infj", "abc"]),
    "--re-min": (["-2", "-1", "0"], BAD_BOUNDS),
    "--re-max": (["0", "1", "2"], BAD_BOUNDS),
    "--im-min": (["-2", "-1", "0"], BAD_BOUNDS),
    "--im-max": (["0", "1", "2"], BAD_BOUNDS),
    "--step": (["0.25", "0.5", "1"], ["0", "-1", "nan", "inf", "abc"]),
    "--norm": (["inf", "one"], ["two"]),
    "--f": (
        [
            "1:0.5,-1:0.5", "0:1e308,1:1e308", "0:1.7e308+1.7e308j", "3:1e-320,4:1e-320",
            "100000000000000000000:0.5", "0:1,2000000:1", "0:0", "",
        ],
        ["1:inf", "x:1", "1:"],
    ),
    "--weights": (
        ["harmonic:0.5,1", "harmonic:0,0", "harmonic:inf,0"],
        ["harmonic:-1,1", "harmonic:nan,1", "harmonic:1", "bogus:1"],
    ),
    "--seed": (["0", "7"], ["-1", "abc"]),
    "--format": (["csv", "json"], ["xml"]),
    "--bogus": (["1"], ["1"]),
}
SUBCOMMAND_OPTIONS = {
    "fekete": ["--gen", "--input", "--n"],
    "convolve": ["--a", "--b", "--n"],
    "power": ["--matrix", "--n", "--norm"],
    "neumann": ["--matrix", "--tol", "--max-terms", "--norm"],
    "resolvent": ["--matrix", "--lam", "--tol", "--norm"],
    "spectrum": ["--matrix", "--re-min", "--re-max", "--im-min", "--im-max", "--step", "--norm"],
    "wiener": ["--f", "--n"],
    "shift": ["--weights", "--weights-file", "--m", "--l"],
    "selftest": [],
    "bogus": [],
}
ARGV_FILES = {
    "id.csv": "1+0j,0+0j\n0+0j,1+0j\n",  # neumann: I - I is singular
    "big.csv": "1e308+0j,1e308+0j\n0+0j,1e308+0j\n",
    "half.json": "[[[0.5, 0], [0, 0]], [[0, 0], [0.25, 0]]]",
    "bad.csv": "1,2\nx\n",
    "seq.csv": "k,value\n1,2\n2,4\n",
    "w.csv": "j,alpha\n1,1.5\n2,1\n",
}


@st.composite
def argvs(draw):
    """Global options, a subcommand and most of its options, each with a
    valid or a bad (garbage, nan, inf, negative) token; now and then an
    option of another subcommand or an unknown one, and now and then a
    last option without its value."""

    def token(option):
        valid, bad = OPTION_TOKENS[option]
        return draw(st.sampled_from(bad if draw(st.integers(0, 7)) == 7 else valid))

    argv = []
    for option in ("--seed", "--format"):
        if draw(st.booleans()):
            argv += [option, token(option)]
    subcommand = draw(st.sampled_from(sorted(SUBCOMMAND_OPTIONS)))
    argv.append(subcommand)
    for option in SUBCOMMAND_OPTIONS[subcommand]:
        if draw(st.integers(0, 9)) != 9:
            argv += [option, token(option)]
    if draw(st.integers(0, 5)) == 5:
        option = draw(st.sampled_from(sorted(OPTION_TOKENS)))
        argv += [option, token(option)]
    if draw(st.integers(0, 9)) == 9:
        argv.pop()
    return argv


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    for name, text in ARGV_FILES.items():
        (root / name).write_text(text)
    return root


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_any_argv_exits_zero_one_or_two(argv_dir, argv):
    argv = [str(argv_dir / token) if token.endswith(("csv", "json")) else token for token in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    err = err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert err.endswith("\n") and err.count("\n") == 1, err
    else:
        assert err == ""
