import hashlib
import json

import pytest

from qkdnet import cli
from qkdnet.stabilizer import PurityFamily


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


def test_run_with_too_few_test_bits_fails_with_its_transcript(capsys,
                                                               tmp_path):
    # the syndrome rejects leave 4 usable bits, too few for one test bit at
    # test_fraction 0.2: a detected attack, not a usage error
    out = tmp_path / "t.jsonl"
    code, stdout, _ = run_cli(
        capsys, "run", "--protocol", "2", "--n", "3", "--m", "1", "--t", "2",
        "--rounds", "30", "--seed", "1", "--adversary",
        "depolarize:p=0.1@m1,pauli:IIII=0.5;YYYY=0.5@m1,intercept@m2,"
        "lie-outcome:p=0.3@m3", "--out", str(out))
    assert code == 2
    stats = json.loads(stdout)
    assert stats["verdict"] == "Fail" and stats["test_bits"] == 0
    assert stats["test_error_rate"] is None
    assert stats["test_error_ci95"] is None
    assert "too-few-test-bits" in stats["abort_causes"]
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert {"abort": {"cause": "too-few-test-bits", "round": None}} in lines
    assert lines[-1]["summary"]["verdict"] == "Fail"
    assert lines[-1]["summary"]["key_length"] == 0


def test_run_requires_seed(capsys):
    code, _, err = run_cli(capsys, "run", "--n", "2", "--m", "1")
    assert code == 1
    assert "--seed" in err


@pytest.mark.parametrize("spec, named", [
    ("warp@m1", "warp"),                 # unknown kind
    ("intercept@m9", "m9"),              # no such member on n=2
    ("intercept@M9", "m9"),              # names are case-normalised first
    ("lie-outcome:p=0.2@m3", "m3"),      # dishonest steps are checked too
    # protocol 1's center announces nothing a dishonest step could change
    ("silent-drop@C", "protocol 1"),
    ("lie-outcome:p=1.0@C", "protocol 1"),
    ("lie-basis@m1,lie-outcome@m1", "m1"),  # only the first was carried out
], ids=["warp@m1", "intercept@m9", "intercept@M9", "lie-outcome@m3",
        "silent-drop@C", "lie-outcome@C", "two-dishonest-m1"])
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
    # the center's announcement never passes through a lie
    ("lie-basis@C", "protocol 2"),
    ("lie-outcome:p=1.0@C", "protocol 2"),
], ids=["fixed-pauli@C", "pauli-table-arity", "fixed-pauli-arity",
        "lie-basis@C", "lie-outcome@C"])
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


def _interleaved_commands(tmp_path):
    """(argv, file the command writes or None) for every command kind."""
    cfg = tmp_path / "p2.cfg"
    cfg.write_text("[network]\nn = 3\nm = 1\nrounds = 20\n"
                   "\n[adversary]\nspec = depolarize:p=0.1@m2\n"
                   f"\n[output]\npath = {tmp_path / 'p2.jsonl'}\n")
    p1 = (["run", "--protocol", "1", "--no-auth", "--n", "3", "--m", "1",
           "--t", "1", "--rounds", "30", "--seed", "4",
           "--out", str(tmp_path / "p1.jsonl")], tmp_path / "p1.jsonl")
    return [
        p1,
        (["run", "--protocol", "2", "--seed", "6", "--config", str(cfg)],
         tmp_path / "p2.jsonl"),
        (["run", "--n", "2", "--seed", "1", "--rounds", "x"], None),
        (["audit-code", "--r", "2", "--s", "3", "--seed", "2"], None),
        (["verify-inequalities", "--trials", "20", "--dims", "2,3",
          "--seed", "1", "--out", str(tmp_path / "v.json")],
         tmp_path / "v.json"),
        p1,  # the config file's values stay with the command that read it
    ]


def test_main_reuses_one_parser(capsys, tmp_path, monkeypatch):
    commands = _interleaved_commands(tmp_path)

    def run_all():
        results = []
        for argv, path in commands:
            result = run_cli(capsys, *argv)
            written = path.read_bytes() if path and path.exists() else None
            results.append(result + (written,))
            if path:
                path.unlink(missing_ok=True)
        return results

    cli._shared_parser.cache_clear()
    shared = run_all()
    info = cli._shared_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(commands) - 1)
    monkeypatch.setattr(cli, "_shared_parser", cli.build_parser)
    fresh = run_all()  # a newly built parser for every command
    assert shared == fresh
    assert [r[0] for r in shared][2:5] == [1, 0, 0]
    assert shared[2][2].startswith("error:") and shared[0] == shared[5]
    assert b'"protocol": 2' in shared[1][3]


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


def _records(path):
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    return [line["record"] for line in lines if "record" in line]


def test_unrevealed_records_hold_no_key_material(capsys, tmp_path):
    # no record holds an outcome, a collected parity or a key bit, and no
    # field left in the records lines up with the final key
    argv = ["run", "--n", "2", "--m", "1", "--t", "1", "--no-auth",
            "--rounds", "60", "--seed", "3", "--out"]
    hidden, shown = tmp_path / "hidden.jsonl", tmp_path / "shown.jsonl"
    run_cli(capsys, *argv, str(hidden))
    run_cli(capsys, *argv, str(shown), "--reveal-secrets")
    secret = {"outcomes", "m_a", "m_b", "b_a", "b_b"}
    revealed = _records(shown)
    assert _records(hidden) == [{k: v for k, v in r.items() if k not in secret}
                                for r in revealed]
    summary = json.loads(shown.read_text().splitlines()[-1])["summary"]
    usable = [i for i, r in enumerate(revealed) if r["b_a"] is not None]
    tested = {usable[i] for i in summary["test_indices"]}
    key_records = [r for i, r in enumerate(_records(hidden))
                   if i in set(usable) - tested]
    key = summary["key_a"]
    assert len(key) == len(key_records) >= 20
    for name in key_records[0]:
        values = [r[name] for r in key_records]
        views = ([[v[mu] for v in values] for mu in values[0]]
                 if isinstance(values[0], dict) else [values])
        assert all(view != key for view in views), name


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


def test_audit_code_degenerate_family_fails(capsys, monkeypatch):
    # one key's code misses its own logical operators: epsilon 1, exit 2
    generate = cli.gen_purity_family

    def one_key_family(*args, **kwargs):
        fam = generate(*args, **kwargs)
        first = fam.keys[0]
        return PurityFamily(r=fam.r, s=fam.s, codes={first: fam.codes[first]})

    monkeypatch.setattr(cli, "gen_purity_family", one_key_family)
    code, stdout, _ = run_cli(capsys, "audit-code", "--r", "2", "--s", "2",
                              "--seed", "1")
    assert code == 2
    assert stdout.splitlines()[-1] == "verdict Fail"
    code, stdout, err = run_cli(capsys, "audit-code", "--r", "2", "--s", "2",
                                "--seed", "1", "--degenerate-single-code")
    assert (code, stdout) == (1, "")
    assert "unrecognized arguments" in err


def test_audit_code_capacity_exit(capsys, monkeypatch):
    # rejected before the family is generated, however large it would be
    def no_generation(*args, **kwargs):
        raise AssertionError("family generated above the audit cap")

    monkeypatch.setattr(cli, "gen_purity_family", no_generation)
    for r, s in (("2", "7"), ("60", "8")):
        code, _, err = run_cli(capsys, "audit-code", "--r", r, "--s", s,
                               "--seed", "1")
        assert code == 1
        assert "cap" in err


def test_audit_code_u_10_family(capsys):
    code, stdout, _ = run_cli(capsys, "audit-code", "--r", "2", "--s", "5",
                              "--seed", "0")
    assert code == 0
    assert stdout.splitlines()[1:] == ["epsilon_audited 0.09375",
                                       "verdict Pass"]


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


# The four random-pair suites at three seeds, pinned bit for bit:
# max_violation, and the trial, dimension and SHA-256 of the --out witness
# (a fuchs-van-de-graaf witness holds both matrices).  Evaluating the drawn
# trials as one stack per dimension gives the same bits as evaluating each
# trial on its own, which is how these values were recorded.
_PAIR_PINNED = {
    "0": (
        (-0.0001374373495924841, 20, 2,
         "440f5dcbd502ae5623488be0fa0d39a3b5d37d1cfd88d567b69a16359e9dba33"),
        (5.551115123125783e-16, 7, 6,
         "33988a096aa8d36d05c3577751d8d0e5ea050489b8a1f8ecd72dd8d0fec3388f"),
        (-0.021019614945722243, 41, 2,
         "abb833aedbb97d51b07441010ec738d33cb2f3b685329e7757597a77183fcf7f"),
        (-0.01029989053342302, 38, 2,
         "14b802e0a821b7afc28590da1eb1a93c5c909459b792d8ed4ea3863dcc10e71c"),
    ),
    "2": (
        (-0.00027369665409859856, 7, 2,
         "238031fd41effe2bf653aec9701afa70ae8e774e12e12a4a935c583ae1c22620"),
        (1.27675647831893e-15, 15, 2,
         "7728f1e29f80aaa894b52c88059d0743957248e1a057657ec7a836e180cf0e26"),
        (-0.015890732612027003, 10, 2,
         "04e9d7a0c2abdb20d56433c334abe06ab14183b42e64a7070896b2c1c2e44847"),
        (-0.3269699315617902, 8, 2,
         "6e281c1de52f70fdc2194cf28602cef3d2a4622f0e7bc5e78387a36b01876f25"),
    ),
    "1693489682": (
        (-8.220690622712246e-05, 45, 2,
         "3864eb18da7cfbae30f7138f963f7f7091415487e1cd314c6593dd47b27ee9fc"),
        (1.1102230246251565e-15, 22, 3,
         "722129d85be88c01fe1237360e0460245994de668e064b95c18c11b5d22fd910"),
        (-0.002645303109896635, 38, 2,
         "3c9accb4f935ea9d06da65f269997fb4f28bb13690b753bfe4255770df1fa242"),
        (-0.14258318313030457, 37, 2,
         "a6239ee0cbbce12b0809f2e7cec19f140cc49cf870fa3bbe37851be8c7372cad"),
    ),
}


@pytest.mark.parametrize("seed", sorted(_PAIR_PINNED))
def test_verify_inequalities_pair_suites_pinned_exactly(capsys, tmp_path,
                                                        seed):
    out = tmp_path / "reports.json"
    code, stdout, _ = run_cli(capsys, "verify-inequalities", "--trials",
                              "50", "--seed", seed, "--out", str(out))
    assert code == 0
    reports = json.loads(out.read_text())
    for line, rep, suite, (value, trial, dim, digest) in zip(
            stdout.splitlines(), reports, _VERIFY_SUITES,
            _PAIR_PINNED[seed]):
        assert line == f"PASS {suite} trials=50 max_violation={value!r}"
        assert rep["inequality_id"] == suite
        assert rep["max_violation"] == value
        witness = rep["witness"]
        assert (witness["trial"], witness["dim"]) == (trial, dim)
        text = json.dumps(witness, sort_keys=True).encode()
        assert hashlib.sha256(text).hexdigest() == digest


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


def test_lie_basis_with_p_zero_never_lies(capsys):
    # lie-basis used to ignore p and lie about every basis
    argv = ["run", "--n", "2", "--m", "1", "--t", "1", "--no-auth",
            "--rounds", "200", "--seed", "3"]
    code, stdout, _ = run_cli(capsys, *argv, "--adversary", "lie-basis:p=0@m1")
    assert code == 0
    assert json.loads(stdout)["test_error_rate"] == 0.0
    code, stdout, _ = run_cli(capsys, *argv, "--adversary", "lie-basis@m1")
    assert code == 2


@pytest.mark.parametrize("spec", ["intercept:p=0.0@m1", "identity:p=0.3@m1",
                                  "lie-outcome:op=X@m1"])
def test_parameter_the_kind_ignores_is_usage_error(capsys, spec):
    code, stdout, err = run_cli(capsys, "run", "--n", "2", "--seed", "1",
                                "--adversary", spec)
    assert code == 1 and stdout == ""
    assert "does not take parameters" in err


def test_tables_replay(capsys):
    code, stdout, _ = run_cli(capsys, "tables", "--shots", "500",
                              "--seed", "0")
    assert code == 0
    assert "total_violations 0" in stdout
    assert stdout.count("table-I ") == 5
    assert stdout.count("table-II") == 4


# One protocol-2 run per channel kind, with auth (u = 4, 30 rounds) and
# without (t = 2, 60 rounds), at seed 0: exit code and SHA-256 of --out,
# recorded when each kind had its own sampling branch.
_TRANSCRIPT_PINNED = {
    ("identity", True): ("identity@m1", 0, "a4669648a6877a36170101911f6c74bb"
                         "9e3fbea48255bfd7cddc03c0747a1e61"),
    ("identity", False): ("identity@m1", 0, "3cea595f365e626d80f874841cf1562b"
                          "3213e8be1f3e34f53a2f093f62ab0c55"),
    ("depolarize", True): ("depolarize:p=0.2@m1", 0,
                           "0069c64dd4ac12750b915d4d1d7e9bd2"
                           "e48ac1b27c83fffc8a182450af052650"),
    ("depolarize", False): ("depolarize:p=0.2@m1", 2,
                            "9242bee1962afa8a0dbfd2f244a266c0"
                            "2b45efe2ca46baa4b817b0446aa4d53f"),
    ("pauli-table", True): ("pauli:IIII=0.7;XZIY=0.2;ZZZZ=0.1@m1", 0,
                            "898740104813a51158aec8d24d7edf14"
                            "8de7a270492f9e692c20450d27f142f3"),
    ("pauli-table", False): ("pauli:II=0.7;XZ=0.2;YY=0.1@m1", 2,
                             "9a9f5ad8f489f3b9d6f878a3f21359ec"
                             "0cc98efedc41b8ec3f256ca291a99e9a"),
    ("fixed-pauli-Z", True): ("fixed-pauli:op=Z@m2", 2,
                              "c7645a887ad3df52e549994c669fec6b"
                              "0a3875a442740977e974184bec33ea60"),
    ("fixed-pauli-Z", False): ("fixed-pauli:op=Z@m2", 2,
                               "e7aa6c5517aae15a025f8593109ec87d"
                               "e2a078588db1eebc5261ff8f1d4c51cc"),
    ("fixed-pauli-block", True): ("fixed-pauli:op=XIZY@m2", 2,
                                  "ace3a63295616a6026a38dc43d259363"
                                  "c0b043cc6629280d86a00deb3a448f02"),
    ("fixed-pauli-block", False): ("fixed-pauli:op=XZ@m2", 2,
                                   "6d7386bf0f63e515da3386599f7aee6f"
                                   "aaa8f3c636069994225045be47891a83"),
    ("intercept-XY", True): ("intercept@m1", 0,
                             "078c81e10a7ba0d20e655fa3248b8993"
                             "ff572e8c32e5cd1b49aa012165e31280"),
    ("intercept-XY", False): ("intercept@m1", 2,
                              "8dc48e94a86a71f33a4c41d19ea56fdb"
                              "5f5ef38abb6b90bee97cc52706a16005"),
    ("intercept-XYZ", True): ("intercept:bases=XYZ@m1", 2,
                              "b94efafa270d3d92bcc3751b983f1b87"
                              "88ae9b05a37bb567588e4526a9ac7193"),
    ("intercept-XYZ", False): ("intercept:bases=XYZ@m1", 2,
                               "98aa12215b742d1f4728770f5fa7c54c"
                               "c35301b4f7e6973c7e9bf5b2c47acff6"),
}


@pytest.mark.parametrize(
    "kind, auth", sorted(_TRANSCRIPT_PINNED),
    ids=[f"{k}-{'auth' if a else 'no-auth'}"
         for k, a in sorted(_TRANSCRIPT_PINNED)])
def test_run_transcripts_pinned_per_channel_kind(capsys, tmp_path, kind,
                                                 auth):
    spec, want_code, digest = _TRANSCRIPT_PINNED[kind, auth]
    out = tmp_path / "t.jsonl"
    code, _, _ = run_cli(capsys, "run", "--protocol", "2", "--n", "3",
                         "--m", "1", "--t", "2", "--seed", "0",
                         "--rounds", "30" if auth else "60",
                         *([] if auth else ["--no-auth"]),
                         "--adversary", spec, "--reveal-secrets",
                         "--out", str(out))
    assert code == want_code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
