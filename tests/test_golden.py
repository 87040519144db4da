"""Golden outputs: SHA-256 digests of the CLI's casebook, tree, Gram and
contribution outputs.

The casebook and tree digests were recorded from the code before the kernel
took each run's fixed row, the Gram and contribution digests from the code
before adj(C), det C and the row forms of a target moved into one cache, and
the digests of the trees by edge count from the code before the tree layer
took one breadth-first walk for its tree check, path positions and tree
centres, the enumeration digests from the code before the casebook ran
every candidate's rules one way, and the digests of the entry sums with no
packaged rules from the code before the screen and the tree step left the
casebook's candidate loop, so a refactor that is meant to keep the output
byte-identical shows here when it does not. A change that alters an output on purpose records
the new digest and says why.
"""

import hashlib

import pytest

from blocksmith.cartan import min_sum_for_l
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
# entry sums without a packaged rule set: digests of the plain stdout and
# of the --report file
CASEBOOK_OTHER = {
    1: ("b31fbc40a5e56a9b5cf38c66e0a5fd84d59057c58f64c37da253e02784c61500",
         "32d00e05af24ba32484ce610dc2dfcfad7397d28ea8f00177971cbf4bf78d715"),
    2: ("9a7373df2deabad9f0df0d658f6cbc94be97cac8a1ddf7cfec25c86d538e6a16",
         "0d5472e2fdd6de4b85a779bf80ff6403fc3e4bb818509c8adcdbed4f509ff7dd"),
    3: ("3cb74f92b8983aa664356bf74c723c93b4f792c85efd87b04db75b274a95d1f7",
         "3e72b0a155c3077964c9f31981fe26ba5655320239faf970006c0a15d7e9f2b0"),
    4: ("106895d5d2a8ce33dfeece994b7e58955047d73f6e149089289daca953b6dd3a",
         "38ee780eac1c3d1213bff4e13f9e4f756e39af113864cfb8182f7049c50df0c0"),
    5: ("3cce729bdaa706ff7e10d718642a224e94122a7a7423cac3ca38611b5df4a3e3",
         "babb12287511b5711706aee2dc2351e10fc6f0c84cd189a64b3cadd7a6b7d4ed"),
    6: ("75e3df641b27b4daeaec4765d1e0ec2a5da3023423a2a639215a1dd814048d70",
         "8e9e29efcf690f31829ca1cd8baf06c9e556695adf3308ecd5e806651ee31036"),
    7: ("56437d2ab7eb14d00172848d292b66b321681638cd53e151b39d98ba3548e8b5",
         "d426fd57e226cf1adf0c05c026c1649966dab07bee63f1c19af27580d1d83bfb"),
    8: ("1cb8267f0268a9953194b15cf81e84ebfec7ea57c45a1b98558721c907136375",
         "048987ed227b908c155f09a6546614a9e2b4891ea927ad4ba7e253859cf98b45"),
    9: ("eb46a8fcfdb880e056c370908ed9909c7defc10c0fcd95c42fc14fc8518aece1",
         "7a2ee814021f31827a4ce6f6bc3ac574b7bd8042f0cea0581a57e2e239193113"),
    10: ("f5ca60a318e6cfa73e47d699f2b6c36cccb70682bb7482678a2570f2ed3412c9",
          "e50d4041a25e506ef148a03e3a424e92aa4f78a8f6cfca95a606a3c2364469d9"),
    11: ("69a09f3a71b4409420408cc194b8b16627d205441178c0278ea28902837b5008",
          "c2861c901dfaf6a1595182290d8a26dbc55ddc39f013c6f5447fb223117091b3"),
    12: ("09c2494162402ae422b8d5614cbf33f8be5180cddc720f3c3982bf257150d608",
          "223fe9c03ccb9bda2f0cdc3dadb7800f9bf55e04ac3a78bc572df95c7757d820"),
    16: ("ddf233b80cd796614e76679f1b0814643438150b16b09896131c7512db821709",
          "99584e93a4c279b2608a29df7b0cad3d02d2f85f7f4a2093faf433abd2b5dd6f"),
    17: ("38a46acecb39d5fc9db921de2a431e50878832e9fbac72372a4d2f20a236b525",
          "c56a13cc6ffc63192738e9c686eac9066c99826808dda663b195a69aa893c69d"),
    18: ("8e96afe8395206dc11c4f3369a78ed406a941d98d75cdbdc01394dfde17fa775",
          "c58db67753a40eb519be17503785e893d8e97082761316ff245471fa66e3d58d"),
    19: ("2e15e81e3b7d170b4ac7f38b7217537678e3ecf2597dc6c0b90c57753fe0c815",
          "6fdae5e515521e58f36bb4c37e659d4b65dfb31ef95e8039d79e117d538769f5"),
    20: ("5bc7e88dcd5ae44f159e43c07504dcaaf3c436f1bb8f4c71f07dfb2c8e27e22e",
          "9343fb0ccd18bcd81d8f202dbebd45d0560cbd9e84991ed2a87faf8a6013de08"),
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

# entry sum: one digest over every admitted l, the json, csv and table
# formats, each with and without --feasible-only
ENUMERATE = {
    13: "19784321fd69eadf5fafa50eaf2777cde3d22b15c5320e9aaf6dafbc9b36a4a9",
    14: "e9844ab24108a8dbecbf167563392556b8457d3adf85a648e7d7637322d73f04",
    15: "c6e29f67c2043df070129584e02a9ccf39951f95c402ccfc28895c80c89f0e62",
    16: "7508feb262482e846846be008ac772814ffdd0983937d46b6a6491b69b7e9e84",
    17: "2a704fce8feb787b80d889ca23a50bb4669cbeb5e708f05c7bf1d5d10c505596",
    18: "538001b06e70e285de9ba78c4a5de71ab7dae1218a9fc7213ccbc19c86139b2a",
    19: "593eb4ceeb6852b97ad8b3674bca421b7efd1739ac43eaa6740fa049ccca3918",
    20: "65a697f327f556da8c269b3a0a1aa625b63e789daa6d963e8086041252a8874f",
}

# (e, m): digests of the JSON and the table output
EDGES = {
    (1, 1): ("f0cc42ec1e7dcdd838fcfebbcc47fd853f7a275153499ea0e20cb826dfdb4e32",
             "db2d2ce038d1c7f374239f38e693d3f4b217a0e89b931ef544ed46040aaf80f2"),
    (1, 2): ("f1fbb5994ba06234dc6988a48eeca775ed50826477c1b71ddfc6f85b3b6aac11",
             "5ab142955114a88d131aa7a154faa9503bb931adbda666a6465afda925c51bc4"),
    (1, 5): ("9e3bb230aaccc6b1f8a8558f7971898a1721fcc48aeb0a27b084598f672a942c",
             "f06e61f86e2f9f663e8ee98740f3ed5dd9865ae94da9e20e6ad452707a032f57"),
    (2, 1): ("5529590134a9892ff621bd0515379d0253e31a94445792979989031b4cd4bc39",
             "4bd8284ab41775b6629907b070009ba0a81f7da917dc0504beb734c07e94a9d8"),
    (2, 2): ("2b0c94ad8d1630750f006d82d05a852d59e2e05bb6eaeafe7dde38a379d2d3c1",
             "a366b242d728fb1eac8b9043749cb77a0685991e33014537f22da811336949c5"),
    (2, 5): ("c4f0065b0faa8276472076f19e88f0699b6e9dd0ecf851a393ec71f199a24f9a",
             "487f02a12a31cf055a53eeda9a007dda2e90c07cc2db299bd5ad7606b2999981"),
    (3, 1): ("e3549c1204af7223763fb39648ea5c6a55b8fa3a6e306f81bff03dd7170584b5",
             "3eabe5b8ce69b14d5013ffa1a73dabc0485483f17beee8a739068d6870bda484"),
    (3, 2): ("41a102f5698880f23177b5c32d3a93e4c97a657fe65d651f6ce1ea34a0d5157a",
             "d5e72d163791c8ed13897a870765be15e15f048bf865b1a7e3787a3d9fa7c192"),
    (3, 5): ("ca24fda25888ef8326a04ed64ad6be5cf076e6c33cbd54b1ba855f29e69d3fd1",
             "9279882a91a9e2df719e6abf2c1bff7c8c8b9882c76389fd3da58d2a7729b6d3"),
    (4, 1): ("fb0855ab0e150fa4caf08080f3cce57f86dc8326de0f048d10787b4d3443c085",
             "a5c4226c749105c12a0434ddd6fcd6b3e17ef18ae2202149106dee896e2e1b82"),
    (4, 2): ("9de98785f91bc3242c4024fa01d33d7c20831b8ab8671d888fa1c3cfeec5c9ac",
             "aa56e74687644ca6fa18fc28e99fb4f7fa974c20513875625f257e8c126aa4c2"),
    (4, 5): ("127d3336752d7ca184b7f7dc2f1099539233bb0eaa71dd626be580d400f22586",
             "1e7518025ad9e0acc9a342b58162a0c8c73988f576621651e242c704eed69329"),
    (5, 1): ("e2fe51631f08d05596ec8d69562947f575752a330ea87a10e02016a98d2f4c04",
             "7f8cff2ee631bc6c44640dba71e301e6b1c52f5ec3580d35f4e0c98bd967d2c3"),
    (5, 2): ("5c8445b2776d28ba234eebb5f06e3a9afac6e8771a731f895a92b2ea54c979e7",
             "51d3dcdb37ae928f76b73c609fcfed15e9834af8d84a16f1ae9b4b584476e6e4"),
    (5, 5): ("cbd3b0f5db75a37c6a882f35a1505ad5faaeb24e5ff9cf8b77b5f71f1ab2bfaa",
             "86c79b5fc00be5c34defa70e74b970095693f61c3243f652a3347656f9e47109"),
    (6, 1): ("ff9601209ec4a187da1cf6a781483c1b8373025cac60dbfe8bb6f5f616980c7e",
             "ea86ac1158a550a16d8ecaa7b087f9f878a6d117e127ceca4914abc0ca9b1437"),
    (6, 2): ("6890edf33ed11ad76dfcb0204082a8c268c12ce34f2d0aa5ae058d82ea46edce",
             "8d2dbbc2231a6e4fc30f1989746735ea8afd9c2bb60b23a456db17defd141e49"),
    (6, 5): ("0efc6da702b1f5fe20dba50bcff2bb9cf61e23982012b20ce292b3959966924e",
             "7f2654d0bc173984589e818459bc59025c75c4b741c79141489e162f70e18502"),
    (7, 1): ("b36ab0f7782eb1b37f8b5158d864d1a96c503afae6d4426d490ee183529bbd2d",
             "e0a59ce514982e540e760a9e602f9b86f84e0bde46031e21e6630d28221ed30b"),
    (7, 2): ("6efd5ee9e18675a933ab29f639c79482c8d4d803eb504548222fbc68c9c251d8",
             "f4f554cbb2f583d2e56be803ace0b68f11204fc79eb45265b46a8cbc0499252a"),
    (7, 5): ("bc39e2411474c545f866f87f08ac81bbf9f0f6caf573061ec0080f314a08b612",
             "864bb246251ac258d01f02d9c06574d4f4760a9d0f4af3fe653fbe05580e2bca"),
    (8, 1): ("e7d1035f9f38272e1ecc29bdfdaf49bd17f368312b6d301fe2134d01348745f0",
             "737afd86c558e2eb364552f266f723d5b8b680bd9464c264286a054e2808e1e3"),
    (8, 2): ("b7b3731ef4a0f45dbb5e3e20ac1e8abfe03489ca08d7b3518b9c4e83f0a9ab68",
             "6d60aef5f2aa574ebb68b8cc2dc163c0beb5e557af03570a2cad91dbb366f56a"),
    (8, 5): ("628090eb5fc9a1f43d21a9cddc37616874493ed142c091b70ca3faca696511fa",
             "c83abe7732e70e5faaf0eeca81b3e18ee091580355e9600fb12b400701913b25"),
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


@pytest.mark.parametrize("dim", sorted(CASEBOOK_OTHER))
def test_casebook_outputs_without_rules_are_golden(capsys, tmp_path, dim):
    """``casebook run --dim D`` for the entry sums with no packaged rules:
    the stdout, and the report file of a run with ``--report``."""
    run = ("casebook", "run", "--dim", str(dim))
    report = tmp_path / "report.json"
    stdout_of(capsys, *run, "--report", str(report))
    assert (sha(stdout_of(capsys, *run)), sha(report.read_bytes())) == CASEBOOK_OTHER[dim]


def test_brauer_tree_outputs_are_golden(capsys):
    """``brauer-trees --dim D`` for D = 20..40."""
    got = {dim: sha(stdout_of(capsys, "brauer-trees", "--dim", str(dim))) for dim in TREES}
    assert got == TREES


def test_brauer_trees_by_edges_are_golden(capsys):
    """``brauer-trees --edges e --multiplicity m`` for e = 1..8 and
    m = 1, 2, 5, as JSON and as a table: every marked tree with its code,
    shape name and Cartan matrix."""
    got = {}
    for e, m in EDGES:
        run = ("brauer-trees", "--edges", str(e), "--multiplicity", str(m))
        got[e, m] = (sha(stdout_of(capsys, *run)),
                     sha(stdout_of(capsys, *run, "--format", "table")))
    assert got == EDGES


def test_enumerate_cartan_outputs_are_golden(capsys):
    """``enumerate-cartan --sum n --l l`` for n = 13..20 and every l with
    min_sum_for_l(l) <= n, in each format, with and without
    ``--feasible-only``: every candidate, its Smith form and its screen."""
    got = {}
    for n in ENUMERATE:
        h = hashlib.sha256()
        l = 1
        while min_sum_for_l(l) <= n:
            for fmt in ("json", "csv", "table"):
                for feasible in ((), ("--feasible-only",)):
                    h.update(stdout_of(capsys, "enumerate-cartan", "--sum", str(n),
                                       "--l", str(l), "--format", fmt, *feasible))
            l += 1
        got[n] = h.hexdigest()
    assert got == ENUMERATE


# the 10-row solution of rule d13-27-solve, the fixed block of d13-27-d8-fake
Q1_D13_27 = "[[1,1],[1,0],[1,0],[1,0],[1,0],[1,0],[1,0],[0,1],[0,1],[0,1]]"
OUTPUTS = {
    "solve-gram-signed-connected": (
        ["solve-gram", "--gram", "[[5,1,1],[1,3,0],[1,0,2]]", "--signed"],
        "5aba59227c34550cc3ec150422c51e90add5e82b0c0bd0dcd849a0f2566269ba",
    ),
    "solve-gram-signed-disconnected": (
        ["solve-gram", "--gram", "[[5,0],[0,5]]", "--signed"],
        "e0a44fb2b20e911ff4cdfc577fa64748f02ed69a1dc63659c90bad3e71929604",
    ),
    "solve-gram-d13-27-d8-fake": (
        ["solve-gram", "--gram", "[[5,1],[1,2]]", "--signed", "--fixed", Q1_D13_27,
         "--allow-zero-rows"],
        "c420cb16cce72c5698190fc8a5c5de3e8e04ab48dd26142f16fdb928fa90f7a7",
    ),
    "solve-gram-diag": (
        ["solve-gram", "--gram", "[[5,2],[2,4]]", "--rows", "5", "--diag", "13,4,5,5,5",
         "--defect-order", "16"],
        "e9885ca9d4b177b7e731639cbc187c891092e9f6d2e55fd1e112efa37d0d9f3d",
    ),
    "contribution-heights": (
        ["contribution", "--q", "[[2,1],[0,1],[0,1],[0,1],[1,0]]", "--c", "[[5,2],[2,4]]",
         "--defect-order", "16", "--heights", "--p", "2"],
        "f56c57fdb41654d6774061ca98a75a0bb355cb63993dd4ca4622306b51e1591b",
    ),
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_gram_and_contribution_outputs_are_golden(capsys, name):
    """Signed solves of a connected and a disconnected target, the pinned
    signed solve of rule d13-27-d8-fake, a diagonal-constrained solve and
    a contribution with heights."""
    argv, digest = OUTPUTS[name]
    assert sha(stdout_of(capsys, *argv)) == digest
