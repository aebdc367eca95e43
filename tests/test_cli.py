import json

import pytest

from qkdnet import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_protocol2_no_discard(capsys, tmp_path):
    out = tmp_path / "t.jsonl"
    code, stdout, _ = run_cli(capsys, "run", "--protocol", "2", "--n", "3",
                              "--m", "1", "--t", "2", "--rounds", "50",
                              "--seed", "7", "--out", str(out))
    assert code == 0
    stats = json.loads(stdout)
    assert stats["verdict"] == "Pass"
    assert stats["sift_rate"] == 1.0
    lines = out.read_text().splitlines()
    assert json.loads(lines[0])["header"]["config"]["protocol"] == 2


def test_run_intercept_fails_with_exit_2(capsys):
    code, stdout, _ = run_cli(capsys, "run", "--protocol", "1", "--n", "2",
                              "--m", "1", "--t", "1", "--rounds", "400",
                              "--seed", "3", "--no-auth",
                              "--adversary", "intercept@member1")
    assert code == 2
    stats = json.loads(stdout)
    assert stats["verdict"] == "Fail"
    assert 0.15 < stats["test_error_rate"] < 0.40


def test_run_requires_seed(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "2", "--m", "1")
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize("spec, named", [
    ("warp@m1", "warp"),                 # unknown kind
    ("intercept@m9", "m9"),              # no such member on n=2
    ("intercept@M9", "m9"),              # names are case-normalised first
    ("lie-outcome:p=0.2@m3", "m3"),      # dishonest steps are checked too
], ids=["warp@m1", "intercept@m9", "intercept@M9", "lie-outcome@m3"])
def test_invalid_adversary_fails_before_simulation(capsys, spec, named):
    code, out, err = run_cli(capsys, "run", "--n", "2", "--m", "1",
                             "--seed", "1", "--adversary", spec)
    assert code == 1
    assert out == ""
    assert named in err


@pytest.mark.parametrize("spec, named", [
    ("fixed-pauli:op=X@C", "center"),        # channels cannot reach C
    ("pauli:XX=0.5;II=0.5@m1", "block has 4"),  # auth block is u = 4
    ("fixed-pauli:op=XZ@m2", "block has 4"),
], ids=["fixed-pauli@C", "pauli-table-arity", "fixed-pauli-arity"])
def test_protocol2_rejects_attack_before_first_round(capsys, tmp_path, spec,
                                                     named):
    out = tmp_path / "t.jsonl"
    code, stdout, err = run_cli(capsys, "run", "--protocol", "2", "--n", "3",
                                "--m", "1", "--t", "2", "--rounds", "40",
                                "--seed", "5", "--adversary", spec,
                                "--out", str(out))
    assert code == 1
    assert stdout == "" and not out.exists()
    assert named in err


def test_run_determinism_byte_identical(capsys, tmp_path):
    outs = []
    files = []
    for name in ("a.jsonl", "b.jsonl"):
        path = tmp_path / name
        code, stdout, _ = run_cli(capsys, "run", "--n", "2", "--m", "1",
                                  "--rounds", "40", "--seed", "11",
                                  "--out", str(path))
        assert code == 0
        outs.append(stdout)
        files.append(path.read_bytes())
    assert outs[0] == outs[1]
    assert files[0] == files[1]


def test_config_file_overrides_flags(capsys, tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("[network]\nprotocol = 2\nn = 3\nm = 1\nrounds = 30\n"
                   "\n[adversary]\nspec =\n")
    code, stdout, _ = run_cli(capsys, "run", "--n", "2", "--m", "1",
                              "--seed", "5", "--config", str(cfg))
    assert code == 0
    assert json.loads(stdout)["sift_rate"] == 1.0  # protocol 2 took effect


@pytest.mark.parametrize("body", [
    "[network]\nauth = maybe\n",
    "[network]\nn = two\n",
    "[output]\nreveal_secrets = sometimes\n",
    "n = 3\n",
], ids=["auth-not-bool", "n-not-int", "reveal-not-bool", "no-section"])
def test_config_file_malformed_value_is_usage_error(capsys, tmp_path, body):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(body)
    code, out, err = run_cli(capsys, "run", "--n", "2", "--m", "1",
                             "--seed", "5", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: config file")


def test_reveal_secrets_flag(capsys, tmp_path):
    path = tmp_path / "t.jsonl"
    run_cli(capsys, "run", "--n", "2", "--m", "1", "--rounds", "30",
            "--seed", "2", "--out", str(path))
    assert '"key_a"' not in path.read_text()
    run_cli(capsys, "run", "--n", "2", "--m", "1", "--rounds", "30",
            "--seed", "2", "--out", str(path), "--reveal-secrets")
    assert '"key_a"' in path.read_text()


def test_audit_code_formula_values(capsys):
    code, stdout, _ = run_cli(capsys, "audit-code", "--r", "2", "--s", "2",
                              "--seed", "1")
    assert code == 0
    assert "epsilon_formula 0.8" in stdout
    assert "epsilon_audited 0.75" in stdout
    code, stdout, _ = run_cli(capsys, "audit-code", "--r", "2", "--s", "3",
                              "--seed", "1")
    assert code == 0
    assert f"epsilon_formula {4 / 9!r}" in stdout


def test_audit_code_degenerate_family_fails(capsys):
    code, stdout, _ = run_cli(capsys, "audit-code", "--r", "2", "--s", "2",
                              "--seed", "1", "--degenerate-single-code")
    assert code != 0
    assert "Fail" in stdout


def test_audit_code_capacity_exit(capsys):
    code, _, err = run_cli(capsys, "audit-code", "--r", "2", "--s", "5",
                           "--seed", "1")
    assert code == 1
    assert "cap" in err


def test_verify_inequalities_passes_and_writes_reports(capsys, tmp_path):
    out = tmp_path / "reports.json"
    code, stdout, _ = run_cli(capsys, "verify-inequalities", "--trials", "60",
                              "--dims", "2,3", "--seed", "4",
                              "--out", str(out))
    assert code == 0
    lines = [l for l in stdout.splitlines() if l]
    assert len(lines) == 6
    assert all(l.startswith("PASS") for l in lines)
    doc = json.loads(out.read_text())
    assert len(doc) == 6 and all(d["passed"] for d in doc)


def test_verify_inequalities_csv_output(capsys, tmp_path):
    out = tmp_path / "reports.csv"
    code, _, _ = run_cli(capsys, "verify-inequalities", "--trials", "40",
                         "--dims", "2", "--seed", "4", "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("inequality_id,")


def test_verify_inequalities_zero_trials_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify-inequalities", "--trials", "0")
    assert code == 1
    assert "trials" in err


@pytest.mark.parametrize("argv", [
    ["verify-inequalities", "--dims", "2,x"],
    ["verify-inequalities", "--tol", "nan"],
    ["tables", "--shots", "-5"],
    ["run", "--n", "2", "--m", "1", "--seed", "-1"],
    ["audit-code", "--r", "2", "--s", "2", "--seed", "-1"],
    ["verify-inequalities", "--seed", "-1"],
    ["tables", "--seed", "-1"],
], ids=["dims-not-int", "tol-nan", "shots-negative", "run-seed-negative",
        "audit-seed-negative", "verify-seed-negative", "tables-seed-negative"])
def test_bad_numbers_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_inequalities_determinism(capsys):
    outs = []
    for _ in range(2):
        code, stdout, _ = run_cli(capsys, "verify-inequalities", "--trials",
                                  "40", "--dims", "2,3", "--seed", "9")
        assert code == 0
        outs.append(stdout)
    assert outs[0] == outs[1]


# max_violation per suite at two seeds, compared to 1e-12 rather than by
# bytes: round-off in the dense algebra moves the last digits, a changed
# check moves more.  The composed draw has n = 3 at seed 0, n = 2 at seed 2.
_VERIFY_SUITES = ("fuchs-van-de-graaf", "pure-pair-saturation",
                  "double-concavity", "bures-triangle",
                  "entanglement-fidelity-bound", "composed-channel-bound")
_VERIFY_TRIALS = (50, 50, 50, 50, 1, 1)
_VERIFY_RECORDED = {
    "0": (-0.00013743734959281717, 5.551115123125783e-16,
          -0.02101961494572213, -0.010299890533414395,
          3.3306690738754696e-16, -0.20697558814284156),
    "2": (-0.00027369665409859856, 1.942890293094024e-15,
          -0.015890732612026892, -0.3269699315617904,
          3.3306690738754696e-16, -0.08457544668577066),
}


@pytest.mark.parametrize("seed", sorted(_VERIFY_RECORDED))
def test_verify_inequalities_values_pinned(capsys, seed):
    code, stdout, _ = run_cli(capsys, "verify-inequalities", "--trials",
                              "50", "--seed", seed)
    assert code == 0
    lines = stdout.splitlines()
    assert len(lines) == 6
    for line, suite, trials, want in zip(lines, _VERIFY_SUITES,
                                         _VERIFY_TRIALS,
                                         _VERIFY_RECORDED[seed]):
        head, value = line.rsplit(" max_violation=", 1)
        assert head == f"PASS {suite} trials={trials}"
        assert float(value) == pytest.approx(want, rel=0, abs=1e-12)


def test_verify_inequalities_pure_pairs_pass_at_round_off(capsys):
    # a pure pair with F = 0.1356 at dim 2: a round-off eigenvalue of
    # sqrt(A) B sqrt(A) once passed the clamp and FAILed the saturation
    # suite at 3.3e-9
    code, stdout, _ = run_cli(capsys, "verify-inequalities", "--trials",
                              "50", "--seed", "1693489682")
    assert code == 0
    line = stdout.splitlines()[1]
    assert line.startswith("PASS pure-pair-saturation trials=50 ")
    assert abs(float(line.rsplit("=", 1)[1])) < 1e-12


def test_tables_replay(capsys):
    code, stdout, _ = run_cli(capsys, "tables", "--shots", "500",
                              "--seed", "0")
    assert code == 0
    assert "total_violations 0" in stdout
    assert stdout.count("table-I ") == 5
    assert stdout.count("table-II") == 4
