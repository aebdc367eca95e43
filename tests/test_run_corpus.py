"""The committed byte-identity corpus: 500 ``run`` command lines (seed 0 of
``run_corpus.commands``), hashed per stratum.

The digests were recorded while every targeted authenticated block took
the dense round trip.  They change only with a deliberate change to the
RNG stream or the output format; re-pin them then and say why.
"""
import pytest

from run_corpus import commands, digests

_CORPUS_SEED, _CORPUS_COUNT = 0, 500
# stratum -> (exit-code counts, SHA-256 of its lines' argv, exit code,
# stdout and --out bytes)
_CORPUS_PINNED = {
    "p1-auth-r2s2": ({0: 15, 1: 3, 2: 29},
                     "c365ef130ea964798c087aac283c2e15"
                     "356f7d922bf9d9cfe8b860e7562829b2"),
    "p1-auth-r2s3": ({0: 10, 1: 3, 2: 27},
                     "2ea0d9159e1cb197e691ceb6703d4d09"
                     "8e35fa52f5909518ac59d38d69f3aec1"),
    "p1-auth-r2s4": ({0: 18, 1: 10, 2: 21},
                     "f46356be066d7916997a83bc4199d90a"
                     "4d139c57d5480f66c6bd30411d727f6a"),
    "p1-auth-r3s2": ({0: 12, 1: 2, 2: 27},
                     "5fdbe383a4f956a31f91ddc265687cc3"
                     "e243b25af46b9d48fb671b9c04912664"),
    "p1-noauth-t1": ({0: 11, 1: 9, 2: 19},
                     "f43e82f9ecc6d34ccf41f3884f0d5565"
                     "9e0027713f2f0752d711e1ee1c0555b4"),
    "p1-noauth-t2": ({0: 8, 1: 4, 2: 21},
                     "1496e8f9df3e782e596a4487a482335f"
                     "a13b0e5389f4a6cd408049c63794e1b5"),
    "p2-auth-r2s2": ({0: 7, 1: 3, 2: 38},
                     "49b1068fd9a42c8ae012e20d483a5690"
                     "b26e4272e8e0f14242cb89e28bec7602"),
    "p2-auth-r2s3": ({0: 13, 1: 4, 2: 26},
                     "c5a1af9e96fcb016d1b2bc762554118d"
                     "cf398f4194efc5860f49adfb4af8caf8"),
    # n = 2 at t = 4 with the center's qubits needs 16 qubits: every line
    # is rejected before its first round
    "p2-auth-r2s4": ({1: 34},
                     "d3cd623c80581b53a2e51e773152e5d4"
                     "f74bba78f3bcaa28ee6c47ee388a46d3"),
    "p2-auth-r3s2": ({0: 13, 1: 5, 2: 29},
                     "03337e6ffb071dfcbffd14f90b09f5af"
                     "b346f7f4ac052ba79110c4ba0b6a844b"),
    "p2-noauth-t1": ({0: 11, 1: 7, 2: 22},
                     "03b6df9942d2f82cd4270d70a12ee3cc"
                     "2958824b75dbcb9c91e5164ea98e3118"),
    "p2-noauth-t2": ({0: 5, 1: 5, 2: 29},
                     "22f18bf79c379cfc1219069c520b37e9"
                     "5e1c28b978eac7248d39ca441d2cbe5f"),
}


@pytest.fixture(scope="module")
def corpus():
    return commands(_CORPUS_SEED, _CORPUS_COUNT)


@pytest.fixture(scope="module")
def corpus_digests(corpus, tmp_path_factory):
    return digests(corpus, str(tmp_path_factory.mktemp("corpus")))


@pytest.mark.parametrize("stratum", sorted(_CORPUS_PINNED))
def test_run_corpus_stratum_is_byte_identical(corpus_digests, stratum):
    assert corpus_digests[stratum] == _CORPUS_PINNED[stratum]


def test_run_corpus_has_only_the_pinned_strata(corpus_digests):
    assert sorted(corpus_digests) == sorted(_CORPUS_PINNED)


@pytest.mark.parametrize("needle", [
    "identity@", "depolarize:p=0.01@", "pauli:I=0.9;", "pauli:IIII=0.85;",
    "intercept@", "intercept:bases=XYZ@", "intercept:bases=Z@",
    "fixed-pauli:op=X@", "fixed-pauli:op=IIII@", "fixed-pauli:op=IIIIIIII@",
    "lie-basis@", "lie-basis:p=0.3@", "lie-outcome:p=0.2@", "silent-drop@m",
    "silent-drop@C", "--reveal-secrets", "--no-auth",
])
def test_run_corpus_covers(corpus, needle):
    assert any(needle in " ".join(argv) for _, argv in corpus)


def test_run_corpus_mixes_intercept_and_a_pauli_channel_in_both_orders(
        corpus):
    orders = set()
    for _, argv in corpus:
        if "--adversary" not in argv:
            continue
        spec = argv[argv.index("--adversary") + 1].split(",")
        for first, second in zip(spec, spec[1:]):
            if first.split("@")[1] == second.split("@")[1]:
                kinds = (first.startswith("intercept"),
                         second.startswith("intercept"))
                if kinds in ((True, False), (False, True)):
                    orders.add(kinds)
    assert orders == {(True, False), (False, True)}
