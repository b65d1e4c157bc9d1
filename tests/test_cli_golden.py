"""Golden outputs of the command line: the stdout sha256 and exit code of
each argv, pinned so that a refactor of ``plates.cli`` keeps every byte.

Covers every subcommand as text and as ``--json``, ``--help`` of the parser
and of each subcommand (at 80 columns), the exit-1 cases, q-plate ``expand``
and ``act``, and a usage error.  When an output changes on purpose, update
its digest with the reason in CHANGES.md.
"""

import hashlib
import sys

import pytest

from plates.cli import main

GOLDEN = [
    (['--help'], 0, "d18cced1805f4f4ee9dd9e53f859b4b2edf22bf5b5549a51cc0cf54c16314529"),
    (['expand', '--help'], 0, "63b09d3ccca53dceb5efa949fcf746ed72a688f5e88250534e112f9d745169a0"),
    (['act', '--help'], 0, "850ab3c457d199e22a80d307abfa29de412148abff442f33470aa8290be65676"),
    (['character', '--help'], 0, "5e83a2fa7f71549e55bdeadf51ec0e38ae9fa60ad164351341ed90ffe67ae2cc"),
    (['multiplicities', '--help'], 0, "1f5ed1e5edad3b610812a78dbb4bcb1882bccfa21ea17da485897a22d91e03ba"),
    (['eulerian', '--help'], 0, "cc70f097bf3a218d08217b03d9911317b1ff20c1257bb0e31947dbdbc081b97f"),
    (['dims', '--help'], 0, "8fcc1ad96886f6df6f27dd88f8e944545e9f8ae1e85fe9f7fad0539f5d568cff"),
    (['qbasis', '--help'], 0, "e3780fa9837ce018c72e4df18f8166caeb4356fe12c9f121fcdc59baf8b0762e"),
    (['verify', '--help'], 0, "cf3bdbe35863ba756badecffcbe7c96feeb1f6d3311864893e283c6fcd98a090"),
    (['eulerian', '--rows', '5'], 0, "4ab36b7af6af311d098f7546df6385db344714d2426733771c4ddac1a7158282"),
    (['eulerian', '--rows', '5', '--json'], 0, "2d3ec305aa465473e86eacad60b9a87d961c29873aeea5f054288c1679c0e68a"),
    (['expand', '--plate', '[[{2}_1 {1}_1]]', '--method', 'both'], 0, "7cda15578e4218065f8e9a9b5f7a8beef027178cde74d33c713ad8f3667aa166"),
    (['expand', '--plate', '[[{2}_1 {1}_1]]', '--method', 'both', '--json'], 0, "3dce139197ddc643f848c4c1d970b11d9b038fe4c5eec01acfa67098795f929b"),
    (['expand', '--plate', 'q[[{1}_1 {2}_1]]', '--method', 'shuffle'], 0, "04765a2148c6fe0be559064c02a95bab7c3cae451e1a0f419dca936b56165f47"),
    (['expand', '--plate', 'q[[{2}_1 {1}_2 {3}_1]]', '--method', 'both', '--json'], 0, "490b212424e45839c8a7714fa4e2ddb46a4bf6f962cccc0d748fb0f9fad3c829"),
    (['act', '--perm', '(1 2)', '--plate', '[[{1}_1 {2}_1]]'], 0, "d1ce908ed5bf38a60908794bfe65f5465f3630aac1e369dddc018eaa6868d71b"),
    (['act', '--perm', '(1 2)', '--plate', '[[{1}_1 {2}_1]]', '--json'], 0, "e5797ab1a16cd285ef1f126c02787d33ecfd565fcaa52975be3a407c6c4d76e5"),
    (['act', '--perm', '(1 2 3)', '--plate', 'q[[{1}_1 {2}_1 {3}_1]]'], 0, "cba23542834cbf841c1618544ab8eb9e327b3b2b43cc3b598543a41c2e5cf633"),
    (['act', '--perm', '[2,3,1]', '--plate', 'q[[{2}_2 {1,3}_1]]', '--json'], 0, "7e096371fef9f088f65255724bdf184cf8adde6436990afad1297b9b32e90eba"),
    (['character', '--n', '3', '--r', '3', '--engine', 'formula'], 0, "506703b18470d57717287e4cda1d610ae9ca2fdb1d5240090c3e7b60e672176a"),
    (['character', '--n', '3', '--r', '4', '--engine', 'plates', '--json'], 0, "3c68457213808efb99d14a3f5b8bf239c522e9d3b5adf8cedc458e34e585c210"),
    (['multiplicities', '--n', '4', '--r', '3'], 0, "22efbfd9d0a5fd3965f0922340084f311e92d78fc12543742c7510359b1ccc86"),
    (['multiplicities', '--n', '4', '--r', '3', '--engine', 'translation', '--json'], 0, "47926df1d73dc34e1e0ddb19f2cdcd7a5c96f4142a077a8bc1de5b6680404dd6"),
    (['dims', '--n', '3', '--r', '3'], 0, "cc9496a3fd2106cbc3d8a7732e77c941a49b97d6f6203068dcfe619a20e5e5c5"),
    (['dims', '--n', '3', '--r', '3', '--json'], 0, "1fe4fd333185ec803fdb556f4f899f4e17b495ca786b40584cbb23aadc55afa7"),
    (['dims', '--n', '6', '--r', '2', '--denominator', '7'], 1, "e4340d9e6cbb0378ef60a35a0a924563d4ed6de8e283921021f7939c0f8278b0"),
    (['expand', '--plate', '[[{2}_1 {1,3,4,5,6}_1]]', '--method', 'oracle', '--denominator', '7'], 1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (['qbasis', '--n', '2', '--r', '2'], 0, "97c17f4a6e9673bd4ac9903301c42fabae1dbd682250abca2f259e866bc1fda1"),
    (['qbasis', '--n', '2', '--r', '3', '--json'], 0, "1b5829c160347ac0bfa73fb1adfb27794b37b3a256dba38b9adefde2036c4556"),
    (['verify', '--suite', 'all', '--n', '3', '--r', '3', '--seed', '7'], 0, "9935736fec3c2886c02603b35e1c5fb659dcfd36e4f4ad20a88c988894a5d2cc"),
    (['verify', '--suite', 'all', '--n', '3', '--r', '3', '--seed', '7', '--json'], 0, "3bf864a4a4ab853669281943e20873d864f87c7d1295e32dabcaf13834c284b6"),
    (['character', '--n', '3'], 2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


# argparse 3.13 wraps the long usage lines of these two differently
if sys.version_info >= (3, 13):
    PY313 = {
        ("--help",): "66e3ae25b3a4392ed19d7da62fe29cc9ecde8d1603b574a9e0d272ad6daf6eeb",
        ("verify", "--help"): "9b7f0452d5bed9044487ad444f41a0fa25a251ebcb0336a193e1a303ff669ee7",
    }
    GOLDEN = [(argv, code, PY313.get(tuple(argv), digest)) for argv, code, digest in GOLDEN]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(c[0]) for c in GOLDEN])
def test_stdout_and_exit_code(capsys, monkeypatch, argv, code, digest):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(list(argv))
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest), out
