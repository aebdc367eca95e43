"""The committed byte-identity corpus: 1000 ``run`` command lines (seeds 0
and 1 of ``run_corpus.commands``, 500 lines each), hashed per stratum.

Seed 0's digests were recorded while every targeted authenticated block
took the dense round trip, and seed 1's while a run with an intercept
channel started every round dense.  They change only with a deliberate
change to the RNG stream or the output format; re-pin them then and say
why.
"""
import pytest

from run_corpus import commands, digests

_CORPUS_COUNT = 500
# seed -> stratum -> (exit-code counts, SHA-256 of its lines' argv, exit
# code, stdout and --out bytes)
_CORPUS_PINNED = {0: {
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
}, 1: {
    "p1-auth-r2s2": ({0: 13, 1: 4, 2: 27},
                     "c0b1e7b9c2e3bcb230b2af045cd99d47"
                     "b03d4a00c60a6e2201429fe7affcc81e"),
    "p1-auth-r2s3": ({0: 11, 1: 4, 2: 23},
                     "9411c14b1e7abe13427945cd3794c8db"
                     "3027315ca79cb6801a9da90efe93cea9"),
    "p1-auth-r2s4": ({0: 19, 1: 4, 2: 30},
                     "1f98e34b99cd25ece1f22310b16fdd7b"
                     "9dbc9adb83b8c4d193d3dd14e3390608"),
    "p1-auth-r3s2": ({0: 10, 1: 3, 2: 19},
                     "287b52e65425cf45b3c5c4ee4c90222d"
                     "31cf40c1600075949f3f710044a82e67"),
    "p1-noauth-t1": ({0: 14, 1: 6, 2: 14},
                     "ed76bfd82fc1e33c410165f3e08e7861"
                     "7cc3a79fc1806e899709758fe3efff5a"),
    "p1-noauth-t2": ({0: 9, 1: 4, 2: 30},
                     "aaa7ca39595371f9c95e2ba8533b99f2"
                     "75a2a7945bd56a84af28fc03db2cb5b2"),
    "p2-auth-r2s2": ({0: 9, 1: 4, 2: 33},
                     "b7ad78ed064840a7fefca951d1d2e689"
                     "b2ead5b3a709c698806bce1958bf2ad5"),
    "p2-auth-r2s3": ({0: 11, 1: 4, 2: 26},
                     "a88aa836646a51f565afb29ad9c239c8"
                     "0916a437651ba14fd23d0ed33325ac60"),
    "p2-auth-r2s4": ({1: 42},
                     "22fea77aa8492f0ed48dca74fb3f75a2"
                     "8f8154ee6002b182e6437fb1a529da54"),
    "p2-auth-r3s2": ({0: 16, 1: 3, 2: 22},
                     "b38af605bb7e558ca4755b0bd8fb7177"
                     "d606f078c2397e566bda7ee57c2af822"),
    "p2-noauth-t1": ({0: 9, 1: 8, 2: 29},
                     "c6be19dc936f2c5779279f5317c6209d"
                     "f96b043393bf6d1c01584012a3a54663"),
    "p2-noauth-t2": ({0: 8, 1: 4, 2: 28},
                     "e572663108a0a82190522587cc086c28"
                     "b5311d409afcd4e95287017349fa9847"),
}}
_PINNED_CASES = [(seed, stratum) for seed in sorted(_CORPUS_PINNED)
                 for stratum in sorted(_CORPUS_PINNED[seed])]


@pytest.fixture(scope="module")
def corpus():
    return commands(0, _CORPUS_COUNT)


@pytest.fixture(scope="module")
def corpus_digests(tmp_path_factory):
    """Seed -> its corpus's digests."""
    workdir = str(tmp_path_factory.mktemp("corpus"))
    return {seed: digests(commands(seed, _CORPUS_COUNT), workdir)
            for seed in _CORPUS_PINNED}


@pytest.mark.parametrize(
    "seed, stratum", _PINNED_CASES,
    ids=[stratum if seed == 0 else f"seed{seed}-{stratum}"
         for seed, stratum in _PINNED_CASES])
def test_run_corpus_stratum_is_byte_identical(corpus_digests, seed, stratum):
    assert corpus_digests[seed][stratum] == _CORPUS_PINNED[seed][stratum]


def test_run_corpus_has_only_the_pinned_strata(corpus_digests):
    for seed, pinned in _CORPUS_PINNED.items():
        assert sorted(corpus_digests[seed]) == sorted(pinned)


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
