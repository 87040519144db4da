"""Golden outputs: SHA-256 digests of the CLI's casebook and tree outputs.

The digests were recorded from the code before the kernel took each run's
fixed row, so a refactor that is meant to keep the output byte-identical
shows here when it does not. A change that alters an output on purpose
records the new digest and says why.
"""

import hashlib

import pytest

from blocksmith.cli import EXIT_OK, dispatch

CASEBOOK_PLAIN = {
    13: "0468d29d8b57ac229875de54135e2be281b4b43b0ecd163d785adcbf67622b22",
    14: "b4cde03d2c91384deef5f792cc9b28a3ac26f0641fec3f54baef6305eb73dc68",
    15: "c7a7f9cd8fbd69a75d9d4d30b6ab3df603b440e6c5ccd986458591abcbbf107d",
}
CASEBOOK_TABLE = {
    13: "5472fa2463e37bb39fc991a747b6fae7c3afd71aa9ca7fec42f0f180a6ee1d95",
    14: "a2d2ed314edebfdef9ea8fa4cbce0f659e3e285985665a14df369269c3d67e84",
    15: "dc5552412d09f3bbf64b5f227d59d055eeeb6619fff3770e033734c073daeff8",
}
CASEBOOK_REPORT = {
    13: "4852c8e87d25129b7088d2c08f77500301ed84036bb3d4a75d26fcf3b39b26c1",
    14: "4ea4ae6263a30e7c1fb5d15ed65630095a9b1d14be99939580f21508e0124f22",
    15: "d2cc69674e5ab1d1a7a4151f079cea287a0f7a065bab5dc24751bc73e15efe7c",
}
TREES = {
    20: "10493cd5c49da74273f0222fc0a9af3b0d38bcd46837a83a9af26e73938c127d",
    21: "ecc5b1b70b28e2e3ea41a510a4c8e51339afe38aac5f72bda6d3921e7b200231",
    22: "8a94891f46b821ab6bcdedfe04eb3a3ffd1182eaea3ccccc35dd3aad68250503",
    23: "19719be9a5ae66ee8d9c8b893a704ca3cca33a0352884a4369d5a6f39bb56138",
    24: "d45dd04e6954fec202fdc93afef7cba0c375802f5ccfe7a70fb2a90ba5f75f6e",
    25: "41671771ad988e8badedf220ad642bb4dfe23a4211847a5a1f0ac40d9462bf8b",
    26: "b5d210f7990f3b7c3960b76302af56f1990ee6c7975c2f7e7cdac2c6bf813e08",
    27: "070a63860175df8741162cc8ba202b7487abe9a6aded976c60997f25c3043c33",
    28: "37a53d2d9e3026f014e13f8b905733a3ec8a089d6518b42459e5ff16e4feb326",
    29: "ac548a77b0a98eee583f2526a56a076692bcbc79fbfbfbcea2702c1baeda4bdc",
    30: "523ff2fef9807c26e6b43da2aa6c84b1605d3ca44d514bae4682343eb8b09c79",
    31: "4cafa208eceabcfaf80d8515dc1affa6c6b473a7dafcb5cda493af88b37a9ac0",
    32: "050fd3cea42a0615e4eec9021570c82821ca930ed51deb207f1a25efcf30f325",
    33: "dda03cdf2657593b508d321513cce6092ff112de0976fea19b3ae912d0268144",
    34: "7b8bf4605ac846a4fa883a94c1a5368bba59b772259d2e7849cea24117331a58",
    35: "17a6e71a15392c155ff30770e8caad3a436d0546083a89cec6be91afc638b4b7",
    36: "7e6cd11b061a8471cb386b2b0193f0a628d7d56133802d4bbd1897184353be9a",
    37: "8cf7cdc9d81c9d3938f60541149e9c3f35a66f49b8c8e315ffeaa5cd65d4ec48",
    38: "f4ba416f4095af560730d54b603f0ac9293f0cb0d2945357b0ecec255125c1e9",
    39: "be40fd40a53832b78013c90853c0f79c582c11042ecf5002a61e42265918e9e5",
    40: "ef8a0866e51749d1b02e96ccddc66fea824bb99b63accbca7e6671d86af3bd2f",
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def stdout_of(capsys, *argv) -> bytes:
    assert dispatch(list(argv)) == EXIT_OK
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("dim", sorted(CASEBOOK_PLAIN))
def test_casebook_outputs_are_golden(capsys, tmp_path, dim):
    """``casebook run --dim D``, plain and with ``--table --report``: both
    stdouts and the report file."""
    run = ("casebook", "run", "--dim", str(dim))
    assert sha(stdout_of(capsys, *run)) == CASEBOOK_PLAIN[dim]
    report = tmp_path / "report.json"
    assert sha(stdout_of(capsys, *run, "--table", "--report", str(report))) == CASEBOOK_TABLE[dim]
    assert sha(report.read_bytes()) == CASEBOOK_REPORT[dim]


def test_brauer_tree_outputs_are_golden(capsys):
    """``brauer-trees --dim D`` for D = 20..40."""
    got = {dim: sha(stdout_of(capsys, "brauer-trees", "--dim", str(dim))) for dim in TREES}
    assert got == TREES
