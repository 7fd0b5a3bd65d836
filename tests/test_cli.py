import argparse
import csv
import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as hst

from rowmotion.cli import build_parser, main, parse_q_expression
from rowmotion.families import from_specifier
from rowmotion.qpoly import Polynomial, RationalFunction, q_binomial, q_number


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def test_orbits_square():
    code, out = run_cli("orbits", "rect:2,2")
    data = json.loads(out)
    assert code == 0
    assert sorted(data["orbit_sizes"]) == [2, 4]
    assert data["sum_check"] is True
    assert data["total_states"] == 6


def test_orbits_single_box():
    code, out = run_cli("orbits", "rect:1,1")
    data = json.loads(out)
    assert code == 0
    assert data["orbit_sizes"] == [2]


def test_orbits_q_variant():
    code, out = run_cli("orbits", "rootA:2", "--variant", "q:1,2")
    data = json.loads(out)
    assert code == 0
    assert sum(data["orbit_sizes"]) == 17


def test_orbits_gyration_antichain_sigma():
    for variant in ("gyration", "antichain", "sigma:1,0,2"):
        code, out = run_cli("orbits", "rect:2,2", "--variant", variant)
        data = json.loads(out)
        assert code == 0 and data["sum_check"] is True


def test_orbits_csv():
    code, out = run_cli("orbits", "rect:2,2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "orbit,size,representative"
    assert len(lines) == 3
    for argv in (("orbits", "rect:2,2"), ("orbits", "rect:2,2", "--level", "pl"),
                 ("verify", "striker", "--max-cells", "4")):
        code, out = run_cli(*argv, "--format", "csv")
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert rows and all(len(row) == len(header) for row in rows)


def _reference_orbits(P, variant):
    """Orbit sizes and representatives of a variant, walked on masks with
    the toggle definitions; representatives in order of first appearance in
    the canonical ideal order."""
    if variant in ("rowmotion", "antichain"):
        order = None
    else:
        top = max(P.rank)
        if variant == "gyration":
            ranks = list(range(0, top + 1, 2)) + list(range(1, top + 1, 2))
        else:
            ranks = [int(t) for t in reversed(variant[6:].split(","))]
        order = [p for r in ranks for p in range(P.n) if P.rank[p] == r]

    def step(mask):
        if order is None:
            return P.generated_ideal_mask(P.toggleable_mask(mask) & ~mask)
        for p in order:
            mask = P.toggle_mask(p, mask)
        return mask

    seen, sizes, reps = set(), [], []
    for start in P.ideal_masks():
        if start in seen:
            continue
        rep = P.toggleable_mask(start) & start if variant == "antichain" else start
        reps.append(str([p for p in range(P.n) if rep >> p & 1]))
        size, mask = 0, start
        while mask not in seen:
            seen.add(mask)
            size += 1
            mask = step(mask)
        assert mask == start
        sizes.append(size)
    return sizes, reps


def _sigma_variant(spec):
    top = from_specifier(spec).max_rank()
    return "sigma:" + ",".join(map(str, random.Random(3).sample(range(top + 1), top + 1)))


@pytest.mark.parametrize("spec, variant", [
    (spec, variant)
    for spec in ("rect:3,4", "sstair:4", "E6", "dtd:3")
    for variant in ("rowmotion", "gyration", "antichain", "sigma")
] + [("file", "rowmotion"), ("file", "antichain")])
def test_orbits_partition_matches_a_mask_reference(tmp_path, spec, variant):
    if spec == "file":  # not graded: chains of lengths 3 and 2 from 0 to 3
        path = tmp_path / "p.json"
        path.write_text(json.dumps(
            {"n": 5, "covers": [[0, 1], [1, 2], [2, 3], [0, 4], [4, 3]]}))
        spec = f"file:{path}"
    if variant == "sigma":
        variant = _sigma_variant(spec)
    code, out = run_cli("orbits", spec, "--variant", variant)
    data = json.loads(out)
    assert code == 0
    sizes, reps = _reference_orbits(from_specifier(spec), variant)
    assert data["orbit_sizes"] == sizes
    assert data["representatives"] == reps
    assert data["total_states"] == sum(sizes)


def test_decompose_color_on_a_poset_file(tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": 2, "covers": [[0, 1]], "colors": ["r", "b"]}))
    code, out = run_cli("decompose", f"file:{path}", "color:r")
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "ok" and data["constant"] == "c = 2/3"


def test_decompose_command():
    code, out = run_cli("decompose", "rect:2,3", "antichain_card")
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "ok"
    assert data["constant"] == "c = 6/5"
    assert data["certificate"]["verified"] is True


def test_decompose_not_in_span():
    code, out = run_cli("decompose", "rootD:4", "antichain_card")
    data = json.loads(out)
    assert code == 0
    assert data["status"] == "NOT IN SPAN"


def test_decompose_q_diag():
    code, out = run_cli("decompose", "--q", "sstair:3", "diag")
    data = json.loads(out)
    assert code == 0
    # 1/(1+q)
    assert data["certificate"]["constant"] == {
        "num": ["1/1"], "den": ["1/1", "1/1"]
    }


def test_verify_vacuous_and_small():
    code, out = run_cli("verify", "striker", "--max-cells", "0")
    data = json.loads(out)
    assert code == 0 and data["passed"] is True and data["checks"] == []

    code, out = run_cli("verify", "table2", "--max", "2")
    data = json.loads(out)
    assert code == 0 and data["passed"] is True


def test_verify_rooks_small():
    code, out = run_cli("verify", "rooks", "--max-cells", "6")
    data = json.loads(out)
    assert code == 0 and data["passed"] is True
    assert all(c["passed"] for c in data["checks"])


def test_qrow_command_with_expectation():
    code, out = run_cli(
        "qrow", "--family", "rect:2,2", "--r", "1", "--s", "2",
        "--stat", "antichain_card",
        "--expect", "qnum(2)*qnum(2)/qnum(4)",
    )
    data = json.loads(out)
    assert code == 0
    assert data["matches_expected"] is True
    assert data["expected_at_q"] == "6/5"


def test_qrow_random_theta_is_seeded_and_deterministic():
    args = ("qrow", "--family", "rootA:2", "--r", "1", "--s", "2",
            "--theta", "random:7", "--stat", "antichain_card")
    code1, out1 = run_cli(*args)
    code2, out2 = run_cli(*args)
    assert out1 == out2


def test_output_determinism():
    for args in (("orbits", "rect:2,3"), ("decompose", "rect:2,2", "ideal_card")):
        _, out1 = run_cli(*args)
        _, out2 = run_cli(*args)
        assert out1 == out2


# sha256 of (exit code, stdout) for a fixed list of in-process calls: the
# certificates of the q-certify ladder with and without --q, one combination,
# one NOT IN SPAN control, seven verify suites, and orbit runs of the q,
# gyration, sigma and antichain variants and of the PL and birational levels.
# A change that keeps every output byte-identical keeps these digests.
GOLDEN_DIGESTS = {
    ("decompose", "rect:2,2", "antichain_card"):
        "b93c0e817122bece6b68b949c52110c410e73ad06de0a20ff47bfe9c9ecfc6d3",
    ("decompose", "--q", "rect:2,2", "antichain_card"):
        "8a6752ce8ac25865653ddbbb959bbf50b70915647504c502eac3b673f9df1a53",
    ("decompose", "rect:2,2", "pfiber:1"):
        "6311e0e93ed5ff71fd49e1cbef040eae7a5d27558c9ab07607237aa81a9c0076",
    ("decompose", "--q", "rect:2,2", "pfiber:1"):
        "b25033cb51e943b47fa5cf0371230dc5b7c45bedbf7849eee7ef580c3d8eb0da",
    ("decompose", "rect:2,2", "pfiber:2"):
        "6d32949bafd7c8a115b91f4f2578e002ebc2dc68b7815197718aa9a9fcd32216",
    ("decompose", "--q", "rect:2,2", "pfiber:2"):
        "53ae2a3ffc1b57241f945db3f301fecc97f3bd4af8b35658491c86f08d1f49a9",
    ("decompose", "rect:2,3", "antichain_card"):
        "d9743492c9eec5d3948010171c9f29c4232fb0d5e7d5026e31298a3ab9c126da",
    ("decompose", "--q", "rect:2,3", "antichain_card"):
        "8249e74c9e544dfed7b2a1f338b8c6aa85fb0d6a3c8a0ba9f53f74aa6854bcde",
    ("decompose", "rect:2,3", "pfiber:1"):
        "98e51026ca8a7d8ce874cd82c532be4b5a348047b2a61b7282ae714744a29e99",
    ("decompose", "--q", "rect:2,3", "pfiber:1"):
        "1799638b5b26d7ea301672b92ebb94c2d01c555c66af8209207f1864f9dc1aea",
    ("decompose", "rect:2,3", "pfiber:2"):
        "c7d3a34f52849990c929ac094a3c4b6bff1e6972450f1038e330b5ad620a2f29",
    ("decompose", "--q", "rect:2,3", "pfiber:2"):
        "ff01a4d3f14fac15a5956266e3602f93823ac3c7d016224de661b9924d661b3b",
    ("decompose", "rect:2,4", "antichain_card"):
        "5b28c54509de133e7b061e0fc7c45a95bc77f27551a5cd9241d01b0dca446444",
    ("decompose", "--q", "rect:2,4", "antichain_card"):
        "667a64f92a04cd4768b578e489c22799f3b69c7c143b4046ac6a29b41799dff3",
    ("decompose", "rect:2,4", "pfiber:1"):
        "9360149ce3a339ef55f1bca65a628f69fdf28cdb3c07c45bb30a05bdc9ba1286",
    ("decompose", "--q", "rect:2,4", "pfiber:1"):
        "ab5c6f645ca83c7c7daf767e6a47c5f6a516a2240617dec28b276327b792eb5c",
    ("decompose", "rect:2,4", "pfiber:2"):
        "b094377162baeeedb2d1bde95228552decccfce84ae702069c88a3f6a8553fab",
    ("decompose", "--q", "rect:2,4", "pfiber:2"):
        "383d3dad6a3ece9400c390d7932022706fedb6682ac139daa41e0f9a901191b7",
    ("decompose", "rect:3,3", "antichain_card"):
        "aa6fbc83f34c362bce5a29e0866d0cde965be2bef2f58966691b0cffd3e937b4",
    ("decompose", "--q", "rect:3,3", "antichain_card"):
        "84db9c60c7140d4ddc06ca5baf53002dbe11742ea4a91d12997a06d39d75cc76",
    ("decompose", "rect:3,3", "pfiber:1"):
        "54c71bbf4d8393d13e3d065b5573b4f59eb50ffe1a56a4063c2fcb88ab701dde",
    ("decompose", "--q", "rect:3,3", "pfiber:1"):
        "a647bb47933c03042e6c10b98ba6141c99c67a91375d0fbaded1782eb7e66976",
    ("decompose", "rect:3,3", "pfiber:2"):
        "12a67efd8a8139c9ac78d3c475541a32c459d3adef2319b5790aabca7180d10f",
    ("decompose", "--q", "rect:3,3", "pfiber:2"):
        "24aa6679b6ae80401bc1f4fc7874264aa579175f31e8f1322974a2fe35d8cd14",
    ("decompose", "rect:3,3", "pfiber:3"):
        "6337cbe322216361b3bb0dc7a58ab685ef65e7c8e4b858142bbb77a8c071c59f",
    ("decompose", "--q", "rect:3,3", "pfiber:3"):
        "c1b4b25ec4592585a54e0bc718f46d0933a3951b120a57d13dccf49b3e77f5e3",
    ("decompose", "rect:3,4", "antichain_card"):
        "c765fd5f9773b6b2d0c88d607ecadd2baf4c0ce301669610f9854754dd72f9ea",
    ("decompose", "--q", "rect:3,4", "antichain_card"):
        "96731173ad95663b7afdccc2e206eaed38a676843671fcfbece394c5926cd587",
    ("decompose", "rect:3,4", "pfiber:1"):
        "c7405e849f4c2c9c644a19c37650f60831c2657b6d9b982e7bb9e9b8f5619e71",
    ("decompose", "--q", "rect:3,4", "pfiber:1"):
        "1961f577dfe875e8059a997c892acbfc484eee4b70244efe5ed71e437f2aecc6",
    ("decompose", "rect:3,4", "pfiber:2"):
        "31357ae7c4ea7c8c18fb76bd092a74047359a8ec6c255b7cd63e6a523f80056f",
    ("decompose", "--q", "rect:3,4", "pfiber:2"):
        "70e3b3936bac7ab0274a5fe6d7a376f2d675aafe4824d81b570c9c9851f8a238",
    ("decompose", "rect:3,4", "pfiber:3"):
        "28206b4fa2798edf4290320408b1146fdae255572fd97bc80cf4563c7a9081ce",
    ("decompose", "--q", "rect:3,4", "pfiber:3"):
        "2fce5be385f19696ff397aeb5585ed35c3b33606275bf48104a1e403541df155",
    ("decompose", "sstair:3", "antichain_card"):
        "dd6a4af3e86bb9d13b7ecd26afafa3c3a46ce6eb60f4bd9eed32bb9969d94b85",
    ("decompose", "--q", "sstair:3", "antichain_card"):
        "5c63198aad0f8d6a302e5eaa3b9d46735bcd6549de72f8780c246cf83fe11d12",
    ("decompose", "sstair:3", "diag"):
        "12cfd7e0f061fae31da4fefc8e51578f5624b66f3fe948535f94faf74dddb992",
    ("decompose", "--q", "sstair:3", "diag"):
        "d81e3042e3f153ee21eadfdc1d36c7921ccbd36fbe4d18d7ed8ebf1c76969cc3",
    ("decompose", "sstair:4", "antichain_card"):
        "3ad8dedc5f46c6f9da5d608b40951d7672783a204215af0995daab836bb0f9a5",
    ("decompose", "--q", "sstair:4", "antichain_card"):
        "d4dfe93d359a5488f4755ae03101d5fac0b3b86df1ecb69fc1e1af624d8a7c39",
    ("decompose", "sstair:4", "diag"):
        "f7d4ef7d8e66e9cba6d11354441ffe1b3e4bda22c2a2fd111cff93fdc8297bac",
    ("decompose", "--q", "sstair:4", "diag"):
        "efae4072d9d75b4bdd84335351dbe8c0b88c1bf232284730f20620a5fd337a15",
    ("decompose", "rect:2,3", "2*pfiber:1 - pfiber:2 + 1/2*antichain_card"):
        "816e5b0de80a78ba4bf8ff238ccd0fb88560717ec2941b573cfabbfe19e233ae",
    ("decompose", "--q", "rect:2,3", "2*pfiber:1 - pfiber:2 + 1/2*antichain_card"):
        "d22a1edb0c33f2449f0f58a794d5c2389062f283a8a85d54526aa1b1bcb8329b",
    ("decompose", "trap:2,3", "antichain_card"):
        "f4514252504a5ededd712db47aca557077a9503214a17bec52f586d5c70aafdd",
    ("decompose", "--q", "trap:2,3", "antichain_card"):
        "f4514252504a5ededd712db47aca557077a9503214a17bec52f586d5c70aafdd",
    ("verify", "spans"):
        "ae736aa9b65742a0a1ba682759a20aa6e6bce555200a335a043ed7d0015e8da3",
    ("verify", "table2", "--max", "3"):
        "bf00aacbe95dab98cbf7e63033a592438d1b0c3b4f70211a0581935eccac85be",
    ("verify", "striker"):
        "8d15ed459bac2f2e6efe79cb741057bf4f9cdb026696c3e9abbd2dcdc5e789ae",
    ("verify", "qstriker", "--seed", "1"):
        "4df8443eef6f8e7d75215a765a074acf2b0b15262684edce85d54a42090f4c23",
    ("orbits", "rect:3,3", "--variant", "q:1,2"):
        "39b52da3014cd24a16c6638413e8238d5816f7d37fe60496495d3e1b3540acab",
    ("verify", "rooks"):
        "12d4175e74fc18dfc8fc9fc321946c5566b89d165ef440eef23986d2a58ac259",
    ("verify", "halfrook"):
        "484e6f421804161e09e2b14e2436803a2dfc2f5e7c2540a989f17a6cdaca5ca9",
    ("verify", "lifting", "--seed", "1"):
        "0833442f7fa11365cb17bcf06903d7d87a9211f91dfb26c69c0ede5aff5ed6ac",
    ("orbits", "rect:3,3", "--variant", "gyration"):
        "e611558519714bf3603d9079b1ccc27e12c94e2ab15815f292b300685e6059c4",
    ("orbits", "rect:3,4", "--variant", "sigma:2,0,4,1,3,5"):
        "2cb59e63b7b2dd9fe9b85fc828fa149a49251ab087312b1da87604ab302360f4",
    ("orbits", "E7", "--variant", "antichain"):
        "7c873f0d8df6ebcc375c5a89d3190375394cad08a21d5a0e619c922bfb58ff6b",
    ("orbits", "rect:2,3", "--level", "pl", "--variant", "gyration"):
        "9ea6effa53adc4080b26c536c4e2b67bb8509976bee3f32406b8758ae62e664d",
    ("orbits", "rect:2,2", "--level", "birational", "--alpha", "2/3", "--omega", "7/5",
     "--start", "random:9"):
        "8b30e93a39a924dd0ad5d10f2f9c7890d6e106909fbd4a631f454ea12389af2e",
}


def test_golden_cli_output():
    for argv, digest in GOLDEN_DIGESTS.items():
        code, out = run_cli(*argv)
        assert hashlib.sha256(f"{code}\n{out}".encode()).hexdigest() == digest, argv


def test_usage_error_exit_code():
    code, _ = run_cli("orbits", "nonsense:9")
    assert code == 2
    code, _ = run_cli("decompose", "rect:2,2", "mystery_stat")
    assert code == 2


def test_resource_cap_exit_code():
    code, out = run_cli("orbits", "rect:4,4", "--variant", "q:30,30")
    assert code == 3
    assert "resource cap" in out


def test_lifted_level_orbits():
    code, out = run_cli("orbits", "rect:2,2", "--level", "birational",
                        "--alpha", "2/3", "--omega", "7/5", "--start", "random:9")
    data = json.loads(out)
    assert code == 0
    assert data["period"] == 4
    assert data["toggleability_orbit_law"] is True

    code, out = run_cli("orbits", "rect:2,3", "--level", "pl",
                        "--start", "random:3", "--variant", "sigma:1,3,0,2")
    data = json.loads(out)
    assert code == 0 and data["toggleability_orbit_law"] is True

    code, out = run_cli("orbits", "rect:2,2", "--level", "pl",
                        "--start", "nonsense")
    assert code == 2


def test_lifted_start_from_file(tmp_path):
    path = tmp_path / "start.json"
    path.write_text('["1/2", "3", "5/7", "2"]')
    code, out = run_cli("orbits", "rect:2,2", "--level", "birational",
                        "--start", f"file:{path}")
    data = json.loads(out)
    assert code == 0
    assert data["start"] == ["1/2", "3", "5/7", "2"]


@pytest.mark.parametrize("content", ["5", '"1234"', '{"a": 1}'])
def test_lifted_start_file_must_hold_a_list(tmp_path, content):
    path = tmp_path / "start.json"
    path.write_text(content)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("orbits", "rect:2,2", "--level", "pl", "--start", f"file:{path}")
    assert code == 2 and out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_verify_parallel_jobs_match_serial():
    code1, out1 = run_cli("verify", "table2", "--max", "2")
    code2, out2 = run_cli("verify", "table2", "--max", "2", "--jobs", "2")
    assert (code1, out1) == (code2, out2)


def test_parse_q_expression():
    assert parse_q_expression("qnum(3)") == RationalFunction(q_number(3))
    assert parse_q_expression("qbinom(4,2)") == q_binomial(4, 2)
    assert parse_q_expression("1/(1+q)") == RationalFunction(
        Polynomial((1,)), Polynomial((1, 1))
    )
    assert parse_q_expression("q^2*(1+q) - q") == RationalFunction(
        Polynomial((0, -1, 1, 1))
    )
    with pytest.raises(ValueError):
        parse_q_expression("qnum(3) +")


QROW = ("qrow", "--family", "rect:2,2", "--r", "1", "--s", "2", "--stat", "antichain_card")


@pytest.mark.parametrize("argv", [
    QROW + ("--expect", "qnum("),
    QROW + ("--expect", "q^"),
    QROW + ("--expect", "1/(q-q)"),
    QROW + ("--expect", "1/(2*q-1)"),  # a pole at q = r/s = 1/2
    ("decompose", "rect:2,2", "1/0*diag"),
    ("orbits", "rect:2,2", "--level", "pl", "--alpha", "1/0"),
    ("decompose", "rect:2,2", "tout:9,9"),
    ("decompose", "rect:2,2", "*diag"),
], ids=["qnum-open", "caret-end", "zero-divisor", "pole-at-r-over-s", "zero-coefficient",
        "zero-alpha", "tout-outside", "empty-coefficient"])
def test_malformed_input_is_a_usage_error(argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv)
    assert code == 2 and out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("stat, message", [
    ("tout:9,9", "(9,9) is outside the poset"),
    ("*diag", "not a rational number: ''"),
    ("x*diag", "not a rational number: 'x'"),
])
def test_usage_error_names_the_bad_input(stat, message):
    code, out, err = run_cli_err("decompose", "rect:2,2", stat)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("content", ["[1e400, 1, 1, 1]", "[1, -1e400, 1, 1]"])
def test_lifted_start_file_with_an_infinite_value(tmp_path, content):
    # JSON reads 1e400 as an infinite float, which no rational equals
    path = tmp_path / "start.json"
    path.write_text(content)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("orbits", "rect:2,2", "--level", "pl", "--start", f"file:{path}")
    assert code == 2 and out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("orbits", "rect:2,2", "--level", "pl", "--start", "random:1", "--omega=1e-99999999"),
    ("orbits", "rect:2,2", "--level", "birational", "--alpha=1E+4301"),
    ("decompose", "rect:2,2", "1e99999999*diag"),
], ids=["omega", "alpha", "coefficient"])
def test_decimal_exponent_beyond_the_bound_is_a_usage_error(argv):
    import time

    start = time.perf_counter()
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv)
    assert time.perf_counter() - start < 5  # refused before any 10**k is built
    assert code == 2 and out == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and "4300" in lines[0]


def test_verify_jobs_below_one_is_a_usage_error():
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("verify", "table2", "--max", "2", "--jobs", "0")
    assert code == 2 and err.getvalue().startswith("error: ")


def test_orbits_max_iter_below_one_is_a_usage_error():
    for bound in ("0", "-3"):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli("orbits", "rect:2,2", "--level", "pl", "--max-iter", bound)
        assert code == 2 and out == "" and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


def test_verify_jobs_clamped_to_cpu_count(monkeypatch):
    import os

    from rowmotion import verify

    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verify, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    code1, out1 = run_cli("verify", "table2", "--max", "2", "--jobs", "100000")
    code2, out2 = run_cli("verify", "table2", "--max", "2")
    assert workers == [3]
    assert (code1, out1) == (code2, out2)


@pytest.mark.parametrize("level", ["pl", "birational"])
def test_lifted_levels_run_gyration(level):
    # gyration on rect:2,3 is rank-permuted rowmotion for sigma = (1, 3, 0, 2)
    base = ("orbits", "rect:2,3", "--level", level, "--start", "random:4")
    code, out = run_cli(*base, "--variant", "gyration")
    data = json.loads(out)
    assert code == 0 and data["toggleability_orbit_law"] is True
    code, ref = run_cli(*base, "--variant", "sigma:1,3,0,2")
    assert code == 0
    assert data["rows"] == json.loads(ref)["rows"]
    assert data["variant"] == "gyration"


def test_lifted_levels_refuse_other_variants():
    err = io.StringIO()
    with redirect_stderr(err):
        code, _ = run_cli("orbits", "rect:2,2", "--level", "pl", "--variant", "antichain")
    assert code == 2
    assert "rowmotion, gyration and sigma:<perm>" in err.getvalue()


# -- output limits, input bounds and the exit-code taxonomy ---------------------


def run_cli_err(*argv):
    """(exit code, stdout, stderr) of one CLI call; argparse's own refusals
    end in SystemExit, whose code is the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# each call, and a smaller number (k digits) that it prints in full
LONG_OUTPUT = [
    (("orbits", "rect:2,2", "--level", "pl", "--start", "random:1", "--omega={}"), 4000),
    (("decompose", "rect:2,2", "{}*ideal_card"), 4299),
    (("qrow", "--family", "rect:2,2", "--r", "1", "--s", "1", "--stat", "{}*antichain_card"),
     4299),
]


@pytest.mark.parametrize("argv, k", LONG_OUTPUT, ids=["omega", "decompose", "qrow"])
def test_output_number_beyond_4300_digits_is_a_resource_cap(argv, k):
    # 1e-4300 has a denominator of 4301 digits, more than str() will write
    code, out, err = run_cli_err(*(a.format("1e-4300") for a in argv))
    assert code == 3 and err == ""
    data = json.loads(out)
    assert data["error"] == "resource cap" and "4300 digits" in data["detail"]
    code, out, err = run_cli_err(*(a.format(f"1e-{k}") for a in argv))
    assert code == 0 and err == ""
    assert "0" * (k - 10) in out  # a number of about k digits, in full


def test_birational_orbit_stops_at_the_digit_limit():
    # from random:1 on rootD:4 the values pass 4300 digits within 6 steps
    # and would keep doubling in length for thousands of steps
    import time

    start = time.perf_counter()
    code, out, err = run_cli_err("orbits", "rootD:4", "--level", "birational")
    assert time.perf_counter() - start < 5
    assert code == 3 and err == "" and out.count("\n") == 1
    data = json.loads(out)
    assert data["error"] == "resource cap" and "4300 digits" in data["detail"]


def test_format_fraction_is_byte_identical_below_the_limit():
    from fractions import Fraction

    from rowmotion.qpoly import MAX_NUMBER_DIGITS, format_fraction

    for x in (Fraction(0), Fraction(-3), Fraction(7, 2), Fraction(-1, 10 ** 4299),
              Fraction(-(10 ** MAX_NUMBER_DIGITS - 1), 3)):
        assert format_fraction(x) == str(x)
        assert format_fraction(x, slash=True) == f"{x.numerator}/{x.denominator}"
    from rowmotion import CapExceededError

    for x in (Fraction(10 ** MAX_NUMBER_DIGITS), Fraction(-(10 ** MAX_NUMBER_DIGITS)),
              Fraction(1, 10 ** MAX_NUMBER_DIGITS)):
        with pytest.raises(CapExceededError):
            format_fraction(x)


@pytest.mark.parametrize("spec", ["rect:3000,3000", "rect:100,101", "sstair:200",
                                  "rootA:200", "rootB:101", "trap:100,101", "dtd:5001",
                                  "vchain:3334"])
def test_family_size_is_bounded_before_building(spec):
    import time

    from rowmotion.families import MAX_ELEMENTS

    start = time.perf_counter()
    code, out, _ = run_cli_err("orbits", spec)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert str(MAX_ELEMENTS) in json.loads(out)["detail"]


def test_ideal_enumeration_is_bounded_by_memory():
    import os
    import subprocess
    import sys

    import rowmotion

    # rect:100,100 is inside the element bound but has C(200,100) ideals of
    # 10 000 bits each: the count cap must shrink with the mask size.  The
    # address-space limit turns a regression into a MemoryError (exit 4)
    # instead of gigabytes of memory.
    code = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from rowmotion.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['orbits', 'rect:100,100'])\n"
        "usage = resource.getrusage(resource.RUSAGE_SELF)\n"
        "print(code, time.perf_counter() - start, usage.ru_maxrss, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    code, seconds, max_rss_kb = out.stderr.splitlines()[-1].split()
    assert code == "3"
    data = json.loads(out.stdout)
    assert data["error"] == "resource cap" and "order ideals" in data["detail"]
    assert float(seconds) < 5
    # building the 10 000-element poset alone takes about 70 MB; the
    # enumeration adds a few MB, where a count cap alone lets it pass 1 GB
    assert int(max_rss_kb) < 150 * 1024


def test_flavor_counts_are_bounded_before_theta_is_built():
    import os
    import subprocess
    import sys

    import rowmotion

    # r + s = 3 000 001 flavor symbols: the parent built (and shuffled) a
    # 3-million-entry theta before the labeling cap tripped, taking seconds
    # and hundreds of MB; under the address-space limit that is exit 4.
    code = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from rowmotion.cli import main\n"
        "for argv in (['qrow', '--family', 'rect:2,2', '--r', '3000000', '--s', '1',\n"
        "              '--stat', 'antichain_card'],\n"
        "             ['orbits', 'rect:2,2', '--variant', 'q:3000000,1',\n"
        "              '--theta', 'random:3']):\n"
        "    start = time.perf_counter()\n"
        "    code = main(argv)\n"
        "    print(code, time.perf_counter() - start, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    runs = [line.split() for line in out.stderr.splitlines()[-2:]]
    assert [c for c, _ in runs] == ["3", "3"], out.stderr
    assert all(float(seconds) < 1 for _, seconds in runs)
    for line in out.stdout.splitlines():
        assert json.loads(line) == {"error": "resource cap",
                                    "detail": "3000001 flavor symbols exceed the cap 2000000"}


def test_labeling_count_is_bounded_for_a_poset_without_elements(tmp_path):
    import time

    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"n": 0, "covers": []}))
    # one labeling for every (r, s), but theta would have r + s symbols
    code, out, err = run_cli_err("orbits", f"file:{path}", "--variant", "q:2000000,1")
    assert code == 3 and err == ""
    assert "2000001 flavor symbols" in json.loads(out)["detail"]
    code, out, _ = run_cli_err("orbits", f"file:{path}", "--variant", "q:3,2")
    assert code == 0 and json.loads(out)["total_states"] == 1
    code, out, _ = run_cli_err("qrow", "--family", "rect:3,3", "--r", "30", "--s", "30",
                               "--stat", "antichain_card")
    assert code == 3 and json.loads(out)["detail"] == "more than 2000000 labelings"
    # r^n + s^n labelings on the empty and the full ideal: refused before any
    # ideal is enumerated (rect:12,12 has more ideals than the enumeration cap)
    for argv in (("orbits", "rect:12,12", "--variant", "q:2,2"),
                 ("qrow", "--family", "rect:11,11", "--r", "2", "--s", "1",
                  "--stat", "antichain_card")):
        start = time.perf_counter()
        code, out, err = run_cli_err(*argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 3 and err == "", argv
        assert json.loads(out)["detail"] == "more than 2000000 labelings", argv


@pytest.mark.parametrize("variant", ["q:1", "q:1,2,3", "q:x,2", "q:", "q:1.5,2"])
def test_malformed_q_variant_is_a_usage_error(variant):
    code, out, err = run_cli_err("orbits", "rect:2,2", "--variant", variant)
    assert code == 2 and out == ""
    assert err == f"error: variant {variant!r} must be q:<r>,<s> with integers r and s\n"


@pytest.mark.parametrize("argv, text", [
    (("orbits", "rect:2,2", "--variant", "sigma:a"), "sigma:a"),
    (("orbits", "rect:2,2", "--variant", "sigma:0,,1"), "sigma:0,,1"),
    (("orbits", "rect:2,2", "--level", "pl", "--start", "random:"), "random:"),
    (("orbits", "rect:2,2", "--variant", "q:1,1", "--theta", "random:z"), "random:z"),
    (("decompose", "rect:2,2", "pfiber:x"), "pfiber:x"),
    (("decompose", "rect:2,2", "nfiber:"), "nfiber:"),
    (("decompose", "rect:2,2", "rookA:"), "rookA:"),
    (("decompose", "rect:2,2", "tout:a,b"), "tout:a,b"),
    (("decompose", "rect:2,2", "tout:1"), "tout:1"),
    (("qrow", "--family", "rect:2,2", "--r", "1", "--s", "1", "--stat", "antichain_card",
      "--expect", "qnum(x)"), "x"),
])
def test_integer_usage_errors_quote_the_input(argv, text):
    code, out, err = run_cli_err(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert repr(text) in err


@pytest.mark.parametrize("family, variant, theta", [
    ("rootA:2", "q:1,2", "default"),
    ("rootA:2", "q:4,6", "default"),
    ("rect:2,2", "q:2,9", "random:3"),
])
def test_q_representatives_split_into_labels(family, variant, theta):
    """Representatives are digit strings while every label has one digit,
    and comma-separated once r + s > 10."""
    r, s = map(int, variant[2:].split(","))
    code, out = run_cli("orbits", family, "--variant", variant, "--theta", theta)
    assert code == 0
    n = from_specifier(family).n
    for rep in json.loads(out)["representatives"]:
        labels = rep.split(",") if r + s > 10 else list(rep)
        assert len(labels) == n and all(0 <= int(x) < r + s for x in labels)


# a valid call of each subcommand, to which an option is appended
VALID_CALLS = {
    "orbits": ("orbits", "rect:2,2"),
    "decompose": ("decompose", "rect:2,2", "ideal_card"),
    "verify": ("verify", "striker"),
    "qrow": QROW,
}


def _empty_value_forms():
    """(option, argv) of the `--opt=--` form of every option of every
    subcommand, read from the parser, so that an option added later is
    covered too."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.option_strings:
                opt = max(action.option_strings, key=len)
                yield opt, [*VALID_CALLS[command], f"{opt}=--"]


EMPTY_VALUE_FORMS = list(_empty_value_forms())


@pytest.mark.parametrize("opt, argv", EMPTY_VALUE_FORMS,
                         ids=[f"{argv[0]} {argv[-1]}" for _, argv in EMPTY_VALUE_FORMS])
def test_option_written_with_an_empty_value_is_a_usage_error(opt, argv):
    # argparse turns `--opt=--` into [] rather than refusing it
    code, out, err = run_cli_err(*argv)
    errors = [line for line in err.splitlines() if "error:" in line]
    assert code == 2 and out == "", (argv, code, err)
    assert len(errors) == 1 and f"{opt}:" in errors[0], (argv, err)


def test_closed_stdout_is_not_a_usage_error():
    import os
    import subprocess
    import sys

    import rowmotion

    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    # about 170 kB of JSON, more than a pipe holds, so the close is seen
    proc = subprocess.Popen([sys.executable, "-m", "rowmotion", "orbits", "rect:3,4",
                             "--variant", "q:2,2"],
                            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.read(10) == b'{\n  "famil'
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141 and err == b""


def test_python_m_rowmotion_runs_the_cli():
    import os
    import subprocess
    import sys

    import rowmotion

    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "rowmotion", "orbits", "rect:2,2"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stderr == ""
    assert out.stdout == run_cli("orbits", "rect:2,2")[1]


def test_file_poset_size_is_bounded_before_building(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"n": 10 ** 9, "covers": []}))
    code, out, _ = run_cli_err("orbits", f"file:{path}")
    assert code == 3 and "resource cap" in out
    for bad in ([1, 2], {"n": None, "covers": []}, {"n": 3, "covers": 5}):
        path.write_text(json.dumps(bad))
        code, _, err = run_cli_err("orbits", f"file:{path}")
        assert code == 2 and err.startswith("error: malformed poset file"), bad


def test_decompose_answers_past_ideal_enumeration():
    # rect:12,12 has 2 704 156 order ideals, more than the enumeration cap
    code, out, err = run_cli_err("decompose", "rect:12,12", "antichain_card")
    assert code == 0 and err == ""
    assert json.loads(out)["constant"] == "c = 6"


def test_certificate_expansion_is_bounded_before_building(tmp_path):
    import time

    from rowmotion.poset import DEFAULT_IDEAL_CAP

    # one element under 24 others: T- of it expands to 2^24 monomials
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"n": 25, "covers": [[0, k] for k in range(1, 25)]}))
    start = time.perf_counter()
    code, out, err = run_cli_err("decompose", f"file:{path}", "antichain_card")
    assert time.perf_counter() - start < 1
    assert code == 3 and err == ""
    detail = json.loads(out)["detail"]
    assert str(2 ** 24 + 24) in detail and str(DEFAULT_IDEAL_CAP) in detail


def test_certificate_system_is_bounded_by_memory():
    import os
    import subprocess
    import sys

    import rowmotion

    # rect:100,100 is inside the element bound, but its 39 601 T- monomials
    # of 10 000 bits each are over the memory-scaled cap
    code = (
        "import resource, sys, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
        "from rowmotion.cli import main\n"
        "start = time.perf_counter()\n"
        "code = main(['decompose', 'rect:100,100', 'antichain_card'])\n"
        "print(code, time.perf_counter() - start, file=sys.stderr)\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    code, seconds = out.stderr.splitlines()[-1].split()
    assert code == "3" and float(seconds) < 5
    data = json.loads(out.stdout)
    assert data["error"] == "resource cap" and "39601 antichain monomials" in data["detail"]


@pytest.mark.parametrize("argv, what", [
    (("decompose", "rect:23,23", "antichain_card"), "factoring the certificate system"),
    (("decompose", "--q", "rect:12,12", "antichain_card"), "the Q(q) solve"),
    (("decompose", "--q", "dtd:50", "antichain_card"), "factoring the pivot rows over Z[q]"),
])
def test_certificate_work_is_bounded_before_it_starts(argv, what, monkeypatch):
    import time

    from rowmotion import linalg

    # all answer at the default cap; at this one factoring rect:23,23 is
    # refused as it runs, rect:12,12 is factored at q = 1 and at 2^64 but
    # its Q(q) solve, from pivots of degree <= 23, is refused before it
    # starts, and dtd:50 is factored at q = 1 (400 entry updates) but its
    # pivot rows at q = 2^64 (12 693 updates counted in words) are refused
    # as they are factored
    monkeypatch.setattr(linalg, "WORK_CAP", 5000)
    start = time.perf_counter()
    code, out, err = run_cli_err(*argv)
    assert time.perf_counter() - start < 1
    assert code == 3 and err == ""
    detail = json.loads(out)["detail"]
    assert detail.startswith(what) and "WORK_CAP = 5000" in detail


def test_table2_size_is_bounded_before_any_item_is_built():
    import time

    from rowmotion.verify import MAX_TABLE2_SIZE, _items_table2

    # unbounded, this --max would build about 5 * 10^11 items before the first ran
    start = time.perf_counter()
    code, out, err = run_cli_err("verify", "table2", "--max", "1000000")
    assert time.perf_counter() - start < 1
    assert code == 3 and err == ""
    assert f"MAX_TABLE2_SIZE = {MAX_TABLE2_SIZE}" in json.loads(out)["detail"]
    assert _items_table2(MAX_TABLE2_SIZE, 1)  # the bound itself is accepted


def test_decompose_frontier():
    code, out = run_cli("decompose", "rect:40,40", "antichain_card")
    assert code == 0 and json.loads(out)["constant"] == "c = 20"


def test_q_orbits_keep_only_what_they_print():
    import os
    import subprocess
    import sys

    import rowmotion

    # 1 835 008 labelings: every labeling as a tuple would pass this limit
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 27, 1 << 27))\n"
        "from rowmotion.cli import main\n"
        "raise SystemExit(main(['orbits', 'rect:3,5', '--variant', 'q:2,2']))\n"
    )
    src = os.path.dirname(os.path.dirname(rowmotion.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    data = json.loads(out.stdout)
    assert sum(data["orbit_sizes"]) == data["total_states"] == 1_835_008


def test_size_bound_is_above_every_poset_in_use():
    from rowmotion.families import MAX_ELEMENTS, from_specifier

    # the largest posets of the tests, demos and benchmark
    for spec in ("rect:9,9", "E7", "sstair:6", "rootB:4", "vchain:4", "dtd:6"):
        assert from_specifier(spec).n < MAX_ELEMENTS


@pytest.mark.parametrize("expr", ["q^99999999", "qfact(3000)", "qbinom(3000,2)",
                                  "qnum(99999)", "qnum(200)*qnum(200)",
                                  "qnum(200)/qnum(150)", "1/qnum(200) + 1/qnum(200)",
                                  "2^99999999"])
def test_q_expression_degree_is_bounded(expr):
    import time

    from rowmotion.cli import MAX_Q_DEGREE

    start = time.perf_counter()
    code, out, err = run_cli_err(*QROW, "--expect", expr)
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(MAX_Q_DEGREE) in err


def test_q_expression_nesting_is_a_usage_error():
    code, _, err = run_cli_err(*QROW, "--expect", "(" * 5000 + "q" + ")" * 5000)
    assert code == 2 and err.startswith("error: ")


def test_failed_certificate_check_exits_1(monkeypatch):
    import rowmotion.cli as cli
    from rowmotion.qpoly import CertificateError

    def fail(P, f):
        raise CertificateError("denominator has a root >= 0")

    monkeypatch.setattr(cli, "q_decompose", fail)
    code, out, err = run_cli_err("decompose", "--q", "rect:2,2", "antichain_card")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: a certificate check failed: denominator has a root >= 0"]


def test_tampered_lifting_constant_exits_1_naming_the_factors(monkeypatch):
    import dataclasses
    from fractions import Fraction

    from rowmotion import verify
    from rowmotion.decompose import decompose

    def tampered(P, f):
        dec = decompose(P, f)
        return dataclasses.replace(dec, constant=dec.constant + Fraction(1, 3))

    monkeypatch.setattr(verify, "decompose", tampered)
    code, out, err = run_cli_err("verify", "lifting", "--seed", "1")
    assert code == 1 and err == ""
    checks = json.loads(out)["checks"]
    assert checks and not any(c["passed"] for c in checks)
    for c in checks:
        spec, kind = c["label"].split(":", 1)[1].rsplit(":", 1)
        assert c["detail"] == f"{spec}: lift of {kind} leaves alpha^1/3, omega^-1/3 uncancelled"


def test_failed_q_walk_exits_1(monkeypatch):
    from array import array

    from rowmotion import qrow

    # every rank is owned by the first labeling: not a bijection
    monkeypatch.setattr(qrow, "_q_sweep_permutation",
                        lambda P, alphabet, local_theta, order, offsets:
                        array("i", [0]) * offsets[-1])
    code, out, err = run_cli_err("orbits", "rect:2,2", "--variant", "q:1,2")
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: a certificate check failed:")


def test_unexpected_exception_is_an_internal_error(monkeypatch):
    import rowmotion.cli as cli

    def broken(P, f):
        raise ZeroDivisionError("a defect")

    monkeypatch.setattr(cli, "decompose", broken)
    code, out, err = run_cli_err("decompose", "rect:2,2", "antichain_card")
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    assert err.splitlines() == ["error: internal error: ZeroDivisionError: a defect"]


# -- parser fuzzing ----------------------------------------------------------------

FUZZ = settings(derandomize=True, max_examples=120, deadline=None, database=None,
                suppress_health_check=list(HealthCheck))


def _fuzz_text(tokens, *shaped):
    """Free text, text glued from the grammar's own tokens and small numbers,
    or text of the grammar's shape, to reach past each parser's first check."""
    glued = hst.lists(hst.sampled_from(tokens), max_size=8).map("".join)
    return hst.one_of(hst.text(max_size=24), glued, *shaped)


def _shaped(heads, terms):
    """Up to `terms` of head:arg[,arg] with small arguments, joined by ' + '."""
    args = hst.lists(hst.integers(-1, 3).map(str), max_size=2)
    one = hst.builds(lambda h, a: f"{h}:{','.join(a)}" if a else h,
                     hst.sampled_from(heads), args)
    return hst.lists(one, min_size=1, max_size=terms).map(" + ".join)


def _assert_documented(argv):
    code, _, err = run_cli_err(*argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert sum("error:" in line for line in err.splitlines()) <= 1, (argv, err)


FAMILY_TOKENS = ["rect", "sstair", "rootA", "rootB", "dtd", "trap", "vchain", "rootD",
                 "E6", "E7", "file", ":", ",", "-", "0", "1", "2", "3", " ", "x"]
STAT_TOKENS = ["ideal_card", "antichain_card", "file:", "pfiber:", "nfiber:", "sfiber:",
               "rankalt", "diag", "color:", "rookA:", "tout:", "*", "+", "-", "/", ".",
               "e", "0", "1", "2", "3", ",", " "]
Q_TOKENS = ["q", "qnum", "qfact", "qbinom", "(", ")", ",", "+", "-", "*", "/", "^",
            "0", "1", "2", "3", " "]


@FUZZ
@given(_fuzz_text(FAMILY_TOKENS, _shaped(
    ["rect", "sstair", "rootA", "rootB", "dtd", "trap", "vchain", "rootD", "E6"], 1)))
def test_fuzz_family_specifier(spec):
    _assert_documented(["orbits", spec])


@FUZZ
@given(_fuzz_text(STAT_TOKENS, _shaped(
    ["ideal_card", "antichain_card", "2*file", "-1/2*pfiber", "nfiber", "sfiber", "rankalt",
     "diag", "color", "rookA", "1e-3*tout"], 3)))
def test_fuzz_statistic_specifier(stat):
    _assert_documented(["decompose", "rect:2,3", stat])
    _assert_documented(["decompose", "--q", "sstair:2", stat])


@FUZZ
@given(_fuzz_text(Q_TOKENS))
def test_fuzz_q_expression(expr):
    _assert_documented(list(QROW) + ["--expect", expr])


VARIANT_TOKENS = ["rowmotion", "gyration", "antichain", "sigma:", "q:", "0", "1", "2", "3",
                  ",", "-", " "]


@FUZZ
@given(_fuzz_text(VARIANT_TOKENS))
def test_fuzz_variant(variant):
    _assert_documented(["orbits", "rect:2,2", "--variant", variant])
    _assert_documented(["orbits", "rect:2,2", "--variant", variant, "--level", "pl"])


_JSON = hst.recursive(
    hst.none() | hst.booleans() | hst.integers() | hst.floats() | hst.text(max_size=8),
    lambda inner: hst.lists(inner, max_size=5) | hst.dictionaries(hst.text(max_size=3), inner),
    max_leaves=8)


@FUZZ
@given(hst.one_of(hst.text(max_size=40), _JSON.map(json.dumps),
                  hst.lists(hst.one_of(hst.integers(), hst.text(max_size=6)),
                            min_size=4, max_size=4).map(json.dumps)))
def test_fuzz_start_file(content):
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        _assert_documented(["orbits", "rect:2,2", "--level", "pl", "--start", f"file:{path}"])
    finally:
        os.unlink(path)


_SMALL = hst.integers(-1, 5)
_PAIRS = hst.lists(hst.lists(_SMALL, min_size=2, max_size=2), max_size=8)
_POSET_FILE = hst.fixed_dictionaries(
    {"n": hst.one_of(hst.integers(-2, 6),
                     hst.sampled_from([10 ** 6, 10 ** 40, "3", "x", 2.5, None, [], True]))},
    optional={
        "covers": hst.one_of(_PAIRS, hst.lists(hst.lists(_SMALL, max_size=3), max_size=4), _JSON),
        "coords": hst.one_of(hst.none(), _PAIRS, _JSON),
        "name": hst.one_of(hst.none(), hst.text(max_size=6), _JSON),
        "colors": hst.one_of(hst.none(), hst.lists(hst.sampled_from(["r", "b", 0]), max_size=7),
                             _JSON),
    })


def _acyclic_covers(n):
    """Lists of pairs lo < hi < n: acyclic by construction."""
    if n < 2:
        return hst.just([])
    pair = hst.integers(0, n - 2).flatmap(
        lambda lo: hst.tuples(hst.just(lo), hst.integers(lo + 1, n - 1)).map(list))
    return hst.lists(pair, max_size=2 * n)


# posets of up to 6 elements, with or without metadata
_VALID_POSET_FILE = hst.integers(1, 6).flatmap(lambda n: hst.fixed_dictionaries(
    {"n": hst.just(n), "covers": _acyclic_covers(n)},
    optional={
        "coords": hst.lists(hst.lists(hst.integers(1, 3), min_size=2, max_size=2),
                            min_size=n, max_size=n),
        "name": hst.text(max_size=6),
        "colors": hst.lists(hst.sampled_from(["r", "b", 0]), min_size=n, max_size=n),
    }))
POSET_FILE_RUNS = (
    [["orbits", "{}", "--variant", v] for v in
     ("rowmotion", "gyration", "antichain", "sigma:0,1", "sigma:1,0,2", "q:1,2")]
    + [["orbits", "{}", "--level", "pl", "--variant", v] for v in
       ("rowmotion", "gyration", "sigma:1,0")]
    + [["decompose", "{}", "antichain_card"], ["decompose", "--q", "{}", "antichain_card"]]
)


@FUZZ
@given(hst.one_of(_VALID_POSET_FILE.map(json.dumps), _POSET_FILE.map(json.dumps),
                  _JSON.map(json.dumps), hst.text(max_size=30)))
def test_fuzz_poset_file(content):
    import os
    import tempfile

    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(content)
        for argv in POSET_FILE_RUNS:
            _assert_documented([a.format(f"file:{path}") for a in argv])
    finally:
        os.unlink(path)


@pytest.mark.parametrize("n, covers, message", [
    (3, [[0, 1], [1, 2], [0, 2]], "cover (0,2) is implied by the path 0 < 1 < 2"),
    (4, [[0, 1], [0, 2], [1, 3], [2, 3], [0, 3]], "cover (0,3) is implied by the path 0 < 1 < 3"),
    (5, [[0, 1], [1, 2], [2, 3], [3, 4], [1, 4]],
     "cover (1,4) is implied by the path 1 < 2 < 3 < 4"),
    (4, [[3, 0], [0, 2], [3, 2], [1, 2]], "cover (3,2) is implied by the path 3 < 0 < 2"),
])
def test_a_redundant_cover_is_refused(tmp_path, n, covers, message):
    # the 3-chain with (0,2) was answered NOT IN SPAN, though the chain's
    # antichain_card has the certificate constant 3/4
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"n": n, "covers": covers}))
    assert run_cli_err("decompose", f"file:{path}", "antichain_card") == (
        2, "", f"error: {message}\n")


def _transitive_reduction(n, covers):
    below = [0] * n  # below[hi]: mask of the elements under hi, for lo < hi
    for lo, hi in sorted(covers, key=lambda c: c[1]):
        below[hi] |= 1 << lo | below[lo]
    return sorted({(lo, hi) for lo, hi in covers
                   if not any(below[c] >> lo & 1 for c in range(n) if below[hi] >> c & 1)})


@settings(derandomize=True, max_examples=80, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(hst.integers(1, 6).flatmap(lambda n: hst.tuples(hst.just(n), _acyclic_covers(n))))
def test_a_dag_file_is_refused_or_decided_as_its_transitive_reduction(case):
    import os
    import tempfile

    n, covers = case
    reduced = _transitive_reduction(n, covers)
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, cov in (("dag", covers), ("reduced", reduced)):
            paths.append(os.path.join(tmp, f"{name}.json"))
            with open(paths[-1], "w") as fh:
                json.dump({"n": n, "covers": cov}, fh)
        for stat in ("antichain_card", "ideal_card"):
            got, want = (run_cli_err("decompose", f"file:{p}", stat) for p in paths)
            if {tuple(c) for c in covers} == set(reduced):
                assert got[0] == want[0] == 0 and got[2] == want[2] == ""
                got, want = json.loads(got[1]), json.loads(want[1])
                assert got.pop("family") != want.pop("family") and got == want
            else:
                assert got[:2] == (2, "") and "is implied by the path" in got[2], (covers, got)
