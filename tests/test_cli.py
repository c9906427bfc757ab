import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specrad import cli, matrix, reports
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


@pytest.mark.parametrize("l", ["0", "-2"])
@pytest.mark.parametrize(
    "source",
    [["--weights", "harmonic:1,1"], ["--weights", "harmonic:1,1", "--m", "5"], ["w.csv"]],
    ids=["weights", "weights-m", "weights-file"],
)
def test_shift_non_positive_l_names_the_option(tmp_path, capsys, source, l):
    # the weight count defaulted to --l, so --l 0 said "need at least one weight",
    # and with --m or a weights file "max_power must be >= 1"
    path = tmp_path / "w.csv"
    path.write_text("j,alpha\n1,1\n2,1\n")
    if source == ["w.csv"]:
        source = ["--weights-file", str(path)]
    assert run_cli(capsys, "shift", *source, "--l", l) == (1, "", "error: need l >= 1\n")


@pytest.mark.parametrize("source", [["--weights", "harmonic:1,1"], ["w.csv"]])
def test_shift_negative_m_names_the_option(tmp_path, capsys, source, monkeypatch):
    # harmonic_weights got m = -3 and built no weight: "need at least one weight"
    path = tmp_path / "w.csv"
    path.write_text("j,alpha\n1,1\n2,1\n")
    if source == ["w.csv"]:
        source = ["--weights-file", str(path)]
    built = []
    monkeypatch.setattr(cli.shift, "harmonic_weights", lambda *a: built.append(a))
    argv = ["shift", *source, "--m", "-3", "--l", "4"]
    assert run_cli(capsys, *argv) == (1, "", "error: need m >= 0\n")
    assert built == []


def test_shift_m_zero_defaults_to_l(capsys):
    def rows(m):
        return run_cli(capsys, "shift", "--weights", "harmonic:0.5,1", "--m", m, "--l", "6")

    assert rows("0") == rows("6")
    assert rows("0")[0] == 0


@pytest.mark.parametrize("m", ["3", "1000", str(10**9)])
def test_shift_weights_past_l_are_not_built(capsys, m):
    # weights past --l never reach the table; --m 10**9 built them all
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "shift", "--weights", "harmonic:1,1", "--m", m, "--l", "2")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    digest = "314899322cc432e298cb7f8158e320964024ce5e85d30c37ab5d30058c18344d"
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert peak < 2**20


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


@pytest.mark.parametrize("max_terms", ["0", "-5", "1"])
def test_neumann_max_terms_below_two_exits_one(tmp_path, capsys, max_terms):
    # these exited 2 with "BudgetExceeded: ... past max_terms=0"
    path = tmp_path / "one.csv"
    path.write_text("0.5+0j\n")
    code, out, err = run_cli(capsys, "neumann", "--matrix", str(path), "--max-terms", max_terms)
    assert (code, out, err) == (1, "", "error: max_terms must be at least 2, got %s\n" % max_terms)


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


def test_selftest_prints_a_failing_check_and_exits_one(capsys, monkeypatch):
    # an inverse off by 1e-8 relative breaks the residual contract of one check
    inverse = matrix.direct_inverse
    monkeypatch.setattr(matrix, "direct_inverse", lambda x, tol=1e-10: inverse(x, tol) * (1.0 + 1e-8))
    code, out, err = run_cli(capsys, "selftest")
    names = [name for name, _ in cli.selftest.CHECKS]
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        ("FAIL " if name == "matrix-inverse-residual" else "PASS ") + name for name in names
    ] + ["selftest: 13/14 checks passed"]


def test_selftest_digest_over_200_seeds():
    # the battery's output over seeds 0..199, as before its pair checks and
    # shift trials ran as array kernels: every check, every seed, every byte
    out = io.StringIO()
    for seed in range(200):
        cli.selftest.run_selftest(seed, out)
    digest = "7553f89e3a5a308bf843533f4e071ef9ad0a2141098ad2e6c598261a6461c5b6"
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


def test_selftest_draw_streams():
    # the digest sees only PASS lines: pin the battery's operands, bit for
    # bit, to the per-coefficient and two-array draws they replaced, and
    # the stream to the same position after each draw
    def bits(x):
        return np.asarray(x, complex).tobytes()

    for seed in range(200):
        for n in range(1, 5):
            rng, ref = np.random.default_rng([seed, n]), np.random.default_rng([seed, n])
            got = cli.selftest._random_wiener(rng, n)
            want = {j: complex(ref.uniform(-1, 1), ref.uniform(-1, 1)) for j in range(-n, n + 1)}
            assert list(got) == list(want)
            assert bits(list(got.values())) == bits(list(want.values()))
            got = cli.selftest._random_matrix(rng, n)
            want = ref.uniform(-1, 1, (n, n)) + 1j * ref.uniform(-1, 1, (n, n))
            assert got.shape == (n, n) and bits(got) == bits(want)
            assert rng.random() == ref.random()


def test_selftest_negative_seed_names_the_option(capsys):
    # numpy refused it as "expected non-negative integer", naming no option
    assert run_cli(capsys, "--seed", "-1", "selftest") == (
        1, "", "error: --seed must be >= 0, got -1\n"
    )


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


# a cell is exactly two JSON numbers, and JSON nested past the parser's
# recursion limit is bad input too: each exits 1 with one error line, which
# starts with the message given here (the rest is Python's own wording)
PAIRS = "expected a JSON array of rows of [re, im] pairs: "
MALFORMED_JSON_MATRICES = {
    "object cell": ('[[{"0": 1, "1": 2}]]', PAIRS),
    "nested 100000 deep": ("[" * 100000 + "]" * 100000, "JSON matrix input nested too deeply\n"),
    "three numbers": ("[[[1, 2, 3]]]", PAIRS),
    "booleans": ("[[[true, false]]]", PAIRS + "true and false are not numbers\n"),
    "int past the float range": ("[[[1%s, 0]]]" % ("0" * 400), PAIRS),
}


@pytest.mark.parametrize("case", MALFORMED_JSON_MATRICES)
def test_matrix_json_malformed_cell_exits_one(tmp_path, capsys, case):
    text, message = MALFORMED_JSON_MATRICES[case]
    path = tmp_path / "m.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "power", "--matrix", str(path), "--n", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1 and err.endswith("\n")


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
    ("spectrum", "csv"): "a471a3e2ad444090a503671ddc152ad4f9b820665bdc4e9128216b8584763154",
    ("spectrum", "json"): "a471a3e2ad444090a503671ddc152ad4f9b820665bdc4e9128216b8584763154",
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


# The README invocations of power and spectrum with --norm one
NORM_ONE_SHA256 = {
    ("power", "csv"): "e44541031d1434a85efa2c9ad0668d410031c65ef2889cf92bdabaafefe61990",
    ("power", "json"): "e235cad3e3e68da60917f6f064ec3409204b546c8e9a2bfab9aff0296ff8fbf5",
    ("spectrum", "csv"): "ed021fea5eda755954c5032075f78a7c72b0a35da7585ea4b52682c8b3e2ad33",
}


@pytest.mark.parametrize("name, fmt", sorted(NORM_ONE_SHA256))
def test_norm_one_output_is_unchanged(tmp_path, capsys, name, fmt):
    path = tmp_path / "m.csv"
    path.write_text(matrix.matrix_to_csv(GOLDEN_MATRIX))
    argv = [arg.replace("{m}", str(path)) for arg in README_INVOCATIONS[name]]
    argv += ["--norm", "one"]  # the last --norm wins over the README's --norm inf
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == NORM_ONE_SHA256[name, fmt]


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run(capsys):
    # the library examples, matrices and then the Wiener algebra, with their asserts
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    for i, block in enumerate(blocks):
        exec(compile(block, "README.md python block %d" % (i + 1), "exec"), {})
    assert capsys.readouterr().out == "[2.0, 1.0, 2.0, 1.0]\n"


# `power --n 4000` on GOLDEN_MATRIX: rows past matrix.POWER_BLOCK come from
# block products, so these pin the blocked loop in both norms
BLOCKED_POWER_SHA256 = {
    ("inf", "csv"): "951751bbd0647835be33e42231828d0e0f194035ac5b9f9c8aaf9385002e4cfe",
    ("inf", "json"): "0aae0be9527b5d0e488402350eace6d651a583788d23f5760b1f3e2e0f5cd5f8",
    ("one", "csv"): "5c4281e384e1d90f8ee7e53c6da15fc4553846a3dc9d153ee6e8239016dc1daf",
    ("one", "json"): "708c5b08e01f540db849bd6526fd23d0f2da5ee319084c7d61794fa21d0ee0a0",
}


@pytest.mark.parametrize("norm, fmt", sorted(BLOCKED_POWER_SHA256))
def test_blocked_power_output_is_unchanged(tmp_path, capsys, norm, fmt):
    path = tmp_path / "m.csv"
    path.write_text(matrix.matrix_to_csv(GOLDEN_MATRIX))
    argv = ["power", "--matrix", str(path), "--n", "4000", "--norm", norm]
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BLOCKED_POWER_SHA256[norm, fmt]


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


# a repeated degree once kept its last coefficient; "00" and "+0" are degree 0 too
@pytest.mark.parametrize("spec", ["0:1,0:2", "00:1,+0:2", "1:0.5,-1:0.5,0:1,0:0"])
def test_wiener_repeated_degree_exits_one(capsys, spec):
    code, out, err = run_cli(capsys, "wiener", "--f=" + spec, "--n", "2")
    assert (code, out, err) == (1, "", "error: degree 0 appears twice\n")


# an empty term, a blank one or a trailing comma was once skipped, and "" ran
# as the zero element
@pytest.mark.parametrize("spec", ["", ",", "0:1, ,1:2", "0:1,"])
def test_wiener_empty_term_exits_one(capsys, spec):
    code, out, err = run_cli(capsys, "wiener", "--f=" + spec, "--n", "2")
    assert (code, out, err) == (1, "", "error: expected deg:coeff, got ''\n")


# tables whose norm leaves the normal range run power_norms on the dict
# engine: a subnormal norm, rescaled by 2**600, and a norm past the float range
FALLBACK_TABLE_SHA256 = {
    "0:1e-310": "21d03f30caaae42250e26c1cb2225626c6409fafad03687b8b9eb113edeff337",
    "0:1e308,1:1e308": "771db99691bd9faa41835fbe4c708c0884ab28c0c3ade127a28576a5cb41a957",
}


@pytest.mark.parametrize("spec", sorted(FALLBACK_TABLE_SHA256))
def test_wiener_fallback_table_is_unchanged(capsys, spec):
    code, out, err = run_cli(capsys, "wiener", "--f", spec, "--n", "8")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FALLBACK_TABLE_SHA256[spec]


# the Wiener power tables that CI's Console-script step pins, all but one
# from the fused loop: every scale of 0:2,1:5e-324 underflows a part, so
# the loop leaves that table to power_norms' chain; a far
# product end underflows and is trimmed in the 1e-200 and 1e-100 tables;
# the span-16 table runs past n = 256; the step norms of 0:1.5,1:1.5 are 3,
# so the loop counts the parts of each rescaled direction
FUSED_LOOP_SHA256 = {
    ("0:2,1:5e-324", 8): "b84ac77de5fe4a608fa7eb49878882f31f644ea05b38df99d6f858b3ccfc008c",
    ("0:1,1:1e-200", 40): "3a51fa8594e0d279efb3c2b88edec5710ed2672a8ff29f7206db40ddb3e4ff6c",
    ("0:1,1:1e-100", 40): "3a51fa8594e0d279efb3c2b88edec5710ed2672a8ff29f7206db40ddb3e4ff6c",
    ("-8:0.3,0:0.2-0.1j,8:0.4", 300): (
        "65f3dd544f598d2de49d26a62ad6a0772af7740365ecd5ee0e3f1b6044a66408"
    ),
    ("0:1.5,1:1.5", 400): "da2165fcc434f26564d869fc872c8c90c7a70e8767e08236958ac912ec7dea7e",
}


@pytest.mark.parametrize("spec, n", sorted(FUSED_LOOP_SHA256))
def test_fused_loop_table_is_unchanged(capsys, spec, n):
    code, out, err = run_cli(capsys, "wiener", "--f=" + spec, "--n", str(n))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == FUSED_LOOP_SHA256[spec, n]


# CI's sub.csv, whose subnormal norm leaves the stacked matrix power loop for
# power_norms' exact rescale (also past the first block of rows at n = 200),
# and its 70 x 70 nilpotent nil.csv, which reaches a zero power at k = 70
CI_MATRICES = {
    "sub": "1e-310+0j,2e-310+0j\n0+0j,3e-310+0j\n",
    "nil": "\n".join(
        ",".join("0.9" if j == i + 1 else "0" for j in range(70)) for i in range(70)
    ) + "\n",
}

CI_POWER_SHA256 = {
    ("sub", 8, "inf"): "4278fb3ab9260e60410b0185c149c7352e286141030e125951f49c0ec13e2040",
    ("sub", 8, "one"): "794f250632166e08807e0f4c44cc59d61f8281ff878d3ab810da417132a14d3e",
    ("sub", 200, "inf"): "575c165c47aef7c7ed21bd21dfca2214dd9ae6531934546bc1bd39522d6cb19a",
    ("sub", 200, "one"): "3b0650cf5cc450f60f6ffcf332cc2970ea0408773adcfc38838d19c7e193223b",
    ("nil", 4000, "inf"): "91119c191ab5921383e6ab65152928f4bed69df2a6854948e71455e118a591d3",
    ("nil", 4000, "one"): "91119c191ab5921383e6ab65152928f4bed69df2a6854948e71455e118a591d3",
}


@pytest.mark.parametrize("name, n, norm", sorted(CI_POWER_SHA256))
def test_ci_power_table_is_unchanged(tmp_path, capsys, name, n, norm):
    path = tmp_path / (name + ".csv")
    path.write_text(CI_MATRICES[name])
    code, out, err = run_cli(
        capsys, "power", "--matrix", str(path), "--n", str(n), "--norm", norm
    )
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CI_POWER_SHA256[name, n, norm]


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
    root = data[-1]["root"]  # a finite number, which JSON may write as an integer
    assert not isinstance(root, str) and math.isfinite(root)


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


# --- the column route of the writers, byte for byte ------------------------------
# Digests taken before the column route existed, for outputs the pins above do
# not reach: exponent-form values up to e+117, "%+.17g" imaginary parts of a
# matrix on the route, a spectrum grid on the route, and the shift tables at
# the route size and one row below it.  "{m}" is a CSV file of _hashed_matrix(32).


def _hashed_matrix(n):
    """A fixed dense complex n x n matrix from a multiplicative hash."""
    i = np.arange(n * n)
    re = (i * 2654435761 % 2**32) / 2**32 - 0.5
    im = ((i + n * n) * 2654435761 % 2**32) / 2**32 - 0.5
    return ((re + 1j * im) / 8).reshape(n, n)


COLUMN_ROUTE_INVOCATIONS = {
    "fekete-subadd": ["fekete", "--gen", "subadd:0.01,0.5", "--n", "20000"],
    "resolvent-32": ["resolvent", "--matrix", "{m}", "--lam", "2+0.5j"],
    "spectrum-40": [
        "spectrum", "--matrix", "{m}", "--re-min=-2.5", "--re-max", "2.375",
        "--im-min=-2.5", "--im-max", "2.375", "--step", "0.125",
    ],
    "shift-route": ["shift", "--weights", "harmonic:0.5,1", "--m", "2048", "--l", "1024"],
    "shift-below": ["shift", "--weights", "harmonic:0.5,1", "--m", "2048", "--l", "1023"],
}

COLUMN_ROUTE_SHA256 = {
    ("fekete-subadd", "csv"): "adc9bd050923c0ebd477de2431cd2fc341eba055d171db2f842afbcad02ce068",
    ("fekete-subadd", "json"): "b39799002fa7a05156b5e39e2ea6088dcd7cca5b2e35023e22c01823bc6f0cf7",
    ("resolvent-32", "csv"): "c76d7799145f622e0faf3d4f00a60bbae6646ae2a5da20266d092ec426ab25d1",
    ("resolvent-32", "json"): "7ca02d3a2c4b484ce9f16289350db960b4113069aee5475037bc94de66b852ff",
    ("spectrum-40", "csv"): "7b019a13d03e5422fd890684beba85a6273727608d4e86da03ba5bcf1b43f3da",
    ("shift-route", "csv"): "b82b82152da396e3079bc755e586f8b7a60963e4e1ddc8bb80f5cbc46f241a30",
    ("shift-route", "json"): "d33ffb69fde1dfc4158a227df9b572a93177f08bcf968d28ec600ba55a6141ea",
    ("shift-below", "csv"): "89c1f2fae44bcb8538fd72a5bca0de16579a9beefb91b61aa58b1f766d6afa77",
    ("shift-below", "json"): "744276f6dd7641814e37e089b77cb9dd2366cf96d64925ab87c1703290ecf0c6",
}


@pytest.mark.parametrize("name, fmt", sorted(COLUMN_ROUTE_SHA256))
def test_column_route_output_is_unchanged(tmp_path, capsys, name, fmt):
    path = tmp_path / "m.csv"
    path.write_text(matrix.matrix_to_csv(_hashed_matrix(32)))
    argv = [arg.replace("{m}", str(path)) for arg in COLUMN_ROUTE_INVOCATIONS[name]]
    code, out, err = run_cli(capsys, "--format", fmt, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COLUMN_ROUTE_SHA256[name, fmt]


# Column-route tables of special columns, digests recorded before the columns
# became float64 arrays: values past the float range with finite roots
# (harmonic:2,1 from k = 1019 on), -inf logs with zero values and roots, and
# the subnormal values of geom:0.5 down to 5e-324 (k = 1074), then zeros.
SPECIAL_COLUMN_INVOCATIONS = {
    "shift-past-range": ["shift", "--weights", "harmonic:2,1", "--l", "1100"],
    "fekete-zero": ["fekete", "--gen", "geom:0", "--n", "600"],
    "shift-zero": ["shift", "--weights", "harmonic:0,0", "--l", "600"],
    "fekete-underflow": ["fekete", "--gen", "geom:0.5", "--n", "1100"],
}

SPECIAL_COLUMN_SHA256 = {
    ("fekete-underflow", "csv"): "09aac3bb54574d30efbb2fa08620c815afe22c2f73e3942c3f5770fc15b98437",
    ("fekete-underflow", "json"): "1ec467c9f7f60bf7ffe8932580f2f03df340ab50d2c85459a93315c95680c0a4",
    ("fekete-zero", "csv"): "c99edd108e5feb462cd6fc67647e24c4813d9af9d455fbd91e021e5340386793",
    ("fekete-zero", "json"): "47f7ccf1e76d4b6de43e3409924f0c3a45aa200a292700b091a6c76654555b73",
    ("shift-past-range", "csv"): "45c9e5d8cb5be189f51c838a64ee7a22e343b960d6f7df27a9e99dfc9234351d",
    ("shift-past-range", "json"): "ab8aa360e2e60004047c412405b869ef954acf2e93a2ba5f82ff56f5ebb53ae4",
    ("shift-zero", "csv"): "b1a5fa6f849bb0f8d810a7f5b767f88924821f31aea1d1f52facc38658973fe0",
    ("shift-zero", "json"): "36b74ec1900a2ab40a678a5731fbcad767cbd8431ce94c502446eed87d4168e1",
}


@pytest.mark.parametrize("long_double", [True, False])
@pytest.mark.parametrize("name, fmt", sorted(SPECIAL_COLUMN_SHA256))
def test_special_columns_are_unchanged(capsys, monkeypatch, name, fmt, long_double):
    if not long_double:  # every number of the column route through CPython's %.17g
        monkeypatch.setattr(reports, "_column_tables", lambda: None)
    code, out, err = run_cli(capsys, "--format", fmt, *SPECIAL_COLUMN_INVOCATIONS[name])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == SPECIAL_COLUMN_SHA256[name, fmt]


# Small JSON tables that reach the column route only for their inf: digests recorded
# before the route rule moved into reports.table_blocks.
NON_FINITE_JSON_SHA256 = {
    ("fekete", "--gen", "geom:1e300", "--n", "3"):
        "0e52af350247c3c05ce42150f801c50c722d632c58b8e6659b4547772126d342",
    ("convolve", "--a", "poly:300", "--b", "poly:300", "--n", "9"):
        "434780e9c51098ea26f3d8f79ba2cbb1ebe16098da970f75a592af4c55b06467",
}


@pytest.mark.parametrize("argv", sorted(NON_FINITE_JSON_SHA256))
def test_small_non_finite_json_is_unchanged(capsys, argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert (code, err) == (0, "")
    assert '"inf"' in out
    assert hashlib.sha256(out.encode()).hexdigest() == NON_FINITE_JSON_SHA256[argv]


def _pinned_outputs(tmp_path):
    """(argv, digest) of every pinned output above."""
    golden, hashed = tmp_path / "golden.csv", tmp_path / "hashed.csv"
    golden.write_text(matrix.matrix_to_csv(GOLDEN_MATRIX))
    hashed.write_text(matrix.matrix_to_csv(_hashed_matrix(32)))
    for (name, fmt), digest in GOLDEN_SHA256.items():
        yield ["--format", fmt, *README_INVOCATIONS[name]], golden, digest
    for (name, fmt), digest in NORM_ONE_SHA256.items():
        yield ["--format", fmt, *README_INVOCATIONS[name], "--norm", "one"], golden, digest
    for (norm, fmt), digest in BLOCKED_POWER_SHA256.items():
        argv = ["--format", fmt, "power", "--matrix", "{m}", "--n", "4000", "--norm", norm]
        yield argv, golden, digest
    for (name, fmt), digest in AT_SIZE_SHA256.items():
        yield ["--format", fmt, *AT_SIZE_INVOCATIONS[name]], golden, digest
    for (name, fmt), digest in COLUMN_ROUTE_SHA256.items():
        yield ["--format", fmt, *COLUMN_ROUTE_INVOCATIONS[name]], hashed, digest


def test_pinned_outputs_without_long_double(tmp_path, capsys, monkeypatch):
    # where long double has other than 64 significand bits, every number of the column
    # route goes to CPython's %.17g: switch the guard off and read every pin
    monkeypatch.setattr(reports, "_column_tables", lambda: None)
    for argv, path, digest in _pinned_outputs(tmp_path):
        argv = [arg.replace("{m}", str(path)) for arg in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


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


@pytest.mark.parametrize("spec, first", [("geom:1e300", 2), ("poly:400", 5), ("subadd:300,300", 2)])
def test_convolve_names_the_first_non_finite_entry(capsys, spec, first):
    # the entries past the float range read inf from some j > 1 on; the first is named
    for option, argv in (("a", ["--a", spec, "--b", "poly:1"]), ("b", ["--a", "poly:1", "--b", spec])):
        code, out, err = run_cli(capsys, "convolve", *argv, "--n", "200")
        assert (code, out) == (1, "")
        assert err == "error: --%s %s: entry %s_%d = inf is not finite\n" % (option, spec, option, first)


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


# recorded with the eigenvalue disks, which skip every cell of these scans that
# the per-cell Gauss-Jordan scan eliminated; they moved the margins of those
# cells only
BENCHMARK_SCAN_SHA256 = {
    16: "36adab6c51926202b3d7e07729f18483fa0f9d092a9860e0ebbbdcccf8bfe92f",
    32: "9c7626dfcfa4e8315bc1b2a10cc6e66c9827b48920b26e444fa0edb4a3c67c62",
}


@pytest.mark.parametrize("n", sorted(BENCHMARK_SCAN_SHA256))
def test_benchmark_scan_output_is_unchanged(tmp_path, capsys, n):
    code, out, err = run_cli(capsys, *benchmark_scan_argv(tmp_path / "a.csv", n, seed=n))
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 + 40 * 40
    assert hashlib.sha256(out.encode()).hexdigest() == BENCHMARK_SCAN_SHA256[n]


@pytest.mark.parametrize("n", sorted(BENCHMARK_SCAN_SHA256))
def test_benchmark_scan_eliminates_no_cell(tmp_path, capsys, monkeypatch, n):
    # every cell inside the radius bound lies outside the eigenvalue disks;
    # eliminated as before the disks, each is invertible, as the disks prove
    argv = benchmark_scan_argv(tmp_path / "a.csv", n, seed=n)
    eliminated, gauss_inverse = [], matrix._gauss_inverse

    def counted(stack, floors, rhs=None):
        eliminated.append(len(stack))
        return gauss_inverse(stack, floors, rhs)

    monkeypatch.setattr(matrix, "_gauss_inverse", counted)
    code, out, err = run_cli(capsys, *argv)
    assert (code, err, eliminated) == (0, "", [])
    monkeypatch.setattr(matrix, "_eigen_disks", lambda a: None)
    code, full, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert sum(eliminated) > 250
    flags = [line.split(",")[2] for line in full.splitlines()[1:]]
    assert flags == [line.split(",")[2] for line in out.splitlines()[1:]]
    assert set(flags) == {"true"}


# python -m specrad, reporting its peak RSS in KB on stderr once it exits
PEAK_RSS_CHILD = """
import resource, runpy, sys
try:
    runpy.run_module("specrad", run_name="__main__", alter_sys=True)
finally:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
"""


def test_capped_grid_scan_is_unchanged_and_bounded(tmp_path):
    # MAX_GRID_CELLS points; as one object per cell and one list of every
    # row, the scan peaked at 370 MB
    path = tmp_path / "one.csv"
    path.write_text("0.5+0j\n")
    grid = ["--re-min", "0", "--re-max", "1023", "--im-min", "0", "--im-max", "1023", "--step", "1"]
    run = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, "spectrum", "--matrix", str(path), *grid],
        capture_output=True,
        check=True,
    )
    assert hashlib.sha256(run.stdout).hexdigest() == (
        "ce8dcff5c72dcaa3c2a2c93bec034c8a7e5e52d1f7473c2dc625799689a27d73"
    )
    assert int(run.stderr) < 250 * 1024


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


REFUSAL_FILES = {
    "one.csv": "0.5+0j\n",
    "short.csv": "j,alpha\n1,1\n2\n",
    "blank.csv": "\n  \n",
    "wide.csv": "1+0j,2+0j\n",
}
SCAN = ["spectrum", "--matrix", "one.csv", "--im-min", "0", "--im-max", "0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*SCAN, "--re-min", "0", "--re-max", "1", "--step", "0"], "step must be positive"),
        ([*SCAN, "--re-min", "0", "--re-max", "1", "--step", "-1"], "step must be positive"),
        ([*SCAN, "--re-min", "1", "--re-max", "0", "--step", "1"], "empty grid range"),
        (["shift"], "shift needs --weights or --weights-file"),
        (["shift", "--weights", "foo:1"], "unknown weight generator 'foo:1' (use harmonic:a,b)"),
        (
            ["shift", "--weights", "harmonic:-1,1"],
            "need a, b >= 0 for nonnegative nonincreasing weights",
        ),
        (["shift", "--weights-file", "short.csv"], "bad row '2'"),
        (
            ["fekete", "--gen", "geom:-1"],
            "bad generator arguments 'geom:-1': ratio must be nonnegative",
        ),
        (
            ["fekete", "--gen", "subadd:0,-1"],
            "bad generator arguments 'subadd:0,-1': "
            "d must be >= 0 (sqrt term must stay subadditive)",
        ),
        (["power", "--matrix", "blank.csv"], "empty matrix input"),
        (["power", "--matrix", "wide.csv"], "expected a square matrix, got shape (1, 2)"),
    ],
)
def test_bad_input_exits_one_with_its_message(tmp_path, capsys, argv, message):
    for name, text in REFUSAL_FILES.items():
        (tmp_path / name).write_text(text)
    argv = [str(tmp_path / token) if token.endswith(".csv") else token for token in argv]
    assert run_cli(capsys, *argv) == (1, "", "error: %s\n" % message)


# --- work budgets of the length options ------------------------------------------

ROWS = "exceeds the row budget MAX_ROWS=1000000"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fekete", "--gen", "geom:0.5", "--n", "999999999999"], "--n 999999999999 " + ROWS),
        (["fekete", "--gen", "geom:0.5", "--n", "1000001"], "--n 1000001 " + ROWS),
        (
            ["convolve", "--a", "geom:0.5", "--b", "geom:0.5", "--n", "999999999999"],
            "--n 999999999999 takes 999999999998000000000001 pair sums, "
            "over the budget MAX_PAIR_SUMS=100000000",
        ),
        (
            ["convolve", "--a", "geom:0.5", "--b", "geom:0.5", "--n", "10001"],
            "--n 10001 takes 100020001 pair sums, over the budget MAX_PAIR_SUMS=100000000",
        ),
        (["shift", "--weights", "harmonic:0.5,1", "--l", "999999999999"],
         "--l 999999999999 " + ROWS),
        (["power", "--matrix", "one.csv", "--n", "999999999999"], "--n 999999999999 " + ROWS),
        (["wiener", "--f", "0:0.5", "--n", "999999999999"], "--n 999999999999 " + ROWS),
    ],
)
def test_length_past_its_budget_exits_two(tmp_path, capsys, argv, message):
    # refused before anything is laid out: at 10^12 these ended in a
    # MemoryError traceback or ran for hours
    (tmp_path / "one.csv").write_text("0.5+0j\n")
    argv = [str(tmp_path / token) if token.endswith(".csv") else token for token in argv]
    assert run_cli(capsys, *argv) == (2, "", "BudgetExceeded: %s\n" % message)


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


@pytest.mark.parametrize("tol", ["-1", "0"])
@pytest.mark.parametrize("argv", [["neumann"], ["resolvent", "--lam", "2"]])
def test_non_positive_tol_exits_one(tmp_path, capsys, argv, tol):
    # resolvent exited 2 with "Singular: inverse residual 0 exceeds tol -1"
    path = tmp_path / "id.csv"
    path.write_text(matrix.matrix_to_csv(np.eye(2, dtype=complex)))
    code, out, err = run_cli(capsys, argv[0], "--matrix", str(path), *argv[1:], "--tol", tol)
    message = "tol must be positive and finite, got %r" % float(tol)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fekete", "--gen", "geom:0.5", "--n", "0"], "need n >= 1"),
        (["fekete", "--gen", "geom:0.5", "--n", "-3"], "need n >= 1"),
        (["convolve", "--a", "geom:0.5", "--b", "geom:0.5", "--n", "0"], "n_out must be >= 1"),
        (
            ["convolve", "--a", "geom:0.5", "--b", "geom:0.5", "--n", "-3"],
            "--a geom:0.5: prefix length must be >= 0, got -3",
        ),
    ],
)
def test_empty_or_negative_prefix_length_exits_one(capsys, argv, message):
    # fekete --gen printed a header-only table with exit 0
    assert run_cli(capsys, *argv) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_header_only_fekete_input_exits_one(tmp_path, capsys, fmt):
    # a header with no rows printed a header-only table, or [] in json, with exit 0
    path = tmp_path / "empty.csv"
    path.write_text("k,value\n")
    assert run_cli(capsys, "--format", fmt, "fekete", "--input", str(path)) == (
        1, "", "error: need at least one entry, got an empty prefix\n"
    )


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
