import json

import pytest

from galekit.cli import main, render_text
from galekit.exactla import QQ
from galekit.generators import (
    pascal_sextuple,
    random_generic_sextuple,
    random_points_on_curve,
)
from galekit.pointconfig import read_configuration, write_configuration
from conftest import rng_for


@pytest.fixture
def pascal_file(tmp_path):
    path = tmp_path / "pascal.cfg"
    path.write_text(write_configuration(pascal_sextuple(QQ)))
    return str(path)


@pytest.fixture
def generic_file(tmp_path):
    cfg = random_generic_sextuple(rng_for("cli-generic"), QQ)
    path = tmp_path / "generic6.cfg"
    path.write_text(write_configuration(cfg))
    return str(path)


def test_check_self_associated_pascal(pascal_file, capsys):
    assert main(["check", "self-associated", pascal_file]) == 0
    out = capsys.readouterr().out
    assert "witness" in out


def test_check_ag_exit_codes(pascal_file, generic_file):
    assert main(["check", "ag", pascal_file]) == 0
    assert main(["check", "ag", generic_file]) == 1


def test_check_two_bases(pascal_file):
    assert main(["check", "two-bases", pascal_file]) == 0


def test_transform_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "four.cfg"
    cfg_path.write_text("field rational\ndim 1\npoints 4\n1 0\n0 1\n1 1\n1 2\n")
    out_path = tmp_path / "out.cfg"
    assert main(["transform", str(cfg_path), "-o", str(out_path)]) == 0
    emitted = read_configuration(out_path.read_text())
    assert emitted.gamma == 4 and emitted.r == 1
    assert "verified" in capsys.readouterr().out


def test_transform_error_exit(tmp_path, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("field rational\ndim 2\npoints 6\n" + "\n".join(
        f"1 {t} 0" for t in range(5)) + "\n0 0 1\n")
    assert main(["transform", str(cfg_path)]) == 2
    assert "GaleDegenerate" in capsys.readouterr().err


def test_complete_five_points(tmp_path, capsys):
    rng = rng_for("cli-complete")
    cfg = random_points_on_curve(rng, QQ, 2, 5)
    path = tmp_path / "five.cfg"
    path.write_text(write_configuration(cfg))
    assert main(["complete", str(path), "--seed", "3"]) == 0
    assert "completed" in capsys.readouterr().out


def test_fit_rnc(tmp_path, capsys):
    rng = rng_for("cli-fit")
    cfg = random_points_on_curve(rng, QQ, 2, 5)
    path = tmp_path / "conic.cfg"
    path.write_text(write_configuration(cfg))
    assert main(["fit-rnc", str(path)]) == 0
    assert "all_points_contained: True" in capsys.readouterr().out


def test_goppa_check(capsys):
    assert main(["goppa-check", "--n", "6", "--h", "2"]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_code_grs_and_mindist(tmp_path, capsys):
    assert main(["code", "grs", "--p", "7", "--n", "6", "--k", "2"]) == 0
    generator = capsys.readouterr().out.split("generator:")[1]
    gen_path = tmp_path / "gen.txt"
    gen_path.write_text("\n".join(line.strip() for line in generator.strip().splitlines()))
    assert main(["code", "mindist", str(gen_path), "--p", "7"]) == 0
    out = capsys.readouterr().out
    assert "min_distance: 5" in out
    assert "mds: True" in out
    assert main(["code", "dual", str(gen_path), "--p", "7"]) == 0
    assert "dual_k: 4" in capsys.readouterr().out


def test_detnl_verify(capsys):
    assert main(["detnl", "verify", "--r", "2", "--s", "2", "--p", "11", "--seed", "7"]) == 0
    assert "equivalence: equivalent" in capsys.readouterr().out


def test_demo_pascal(capsys):
    assert main(["demo", "pascal", "--seed", "2"]) == 0
    assert "witness" in capsys.readouterr().out


def test_demo_seven_p3(capsys):
    assert main(["demo", "seven-p3", "--p", "101", "--seed", "4"]) == 0
    assert "projection_equals_gale: equivalent" in capsys.readouterr().out


def test_demo_seven_p3_p_too_small(capsys):
    assert main(["demo", "seven-p3", "--p", "97"]) == 64
    assert "usage error" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["check", "nonsense-property", "whatever.cfg"]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["detnl", "verify", "--r", "2", "--s", "2", "--p", "4"],
        ["code", "grs", "--p", "10", "--n", "5", "--k", "2"],
        ["demo", "seven-p3", "--p", "102"],
    ],
    ids=["detnl", "code-grs", "seven-p3"],
)
def test_non_prime_modulus_is_usage_error(argv, capsys):
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "not prime" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["code", "grs", "--p", "13", "--n", "5", "--k", "2", "--multipliers", "0 1 1 1 1"],
         "ZeroMultiplier"),
        (["code", "grs", "--p", "5", "--n", "7", "--k", "2"], "TooManyPoints"),
    ],
    ids=["zero-multiplier", "too-few-parameters"],
)
def test_bad_code_parameters_are_errors(argv, name, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name}:") and err.count("\n") == 1


def test_json_and_text_carry_identical_facts(pascal_file, capsys):
    assert main(["--format", "json", "check", "self-associated", pascal_file]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert main(["check", "self-associated", pascal_file]) == 0
    text = capsys.readouterr().out
    assert text.strip() == render_text(parsed).strip()


def test_json_golden_pascal(pascal_file, capsys):
    assert main(["--format", "json", "check", "self-associated", pascal_file]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["command"] == "check self-associated"
    assert parsed["status"] == "witness"
    assert parsed["source"]["points"] == 6
    witness = parsed["witness"].split()
    assert len(witness) == 6 and all(w != "0" for w in witness)
