import hashlib
import json

import numpy as np
import pytest

from specrad import matrix
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


def test_shift_weights_file(tmp_path, capsys):
    from specrad import shift

    path = tmp_path / "w.csv"
    path.write_text(shift.weights_to_csv(shift.harmonic_weights(0.5, 1.0, 50)))
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
