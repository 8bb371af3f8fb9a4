import contextlib
import csv
import enum
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from math import gcd
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corelat import affine, cli, cores, ehrhart, models, rootsys, sommers, verify

ROOTS_SCHEMA = {
    "type": "object",
    "required": ["cartan_type", "rank", "cartan_matrix", "positive_roots",
                 "coxeter_number", "dual_coxeter_number", "exponents",
                 "index_of_connection", "ratio_long_short", "period",
                 "rho_check", "coweights", "highest_root", "weyl_order"],
    "properties": {
        "cartan_matrix": {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
        "positive_roots": {"type": "array", "items": {
            "type": "object",
            "required": ["coeffs", "height", "long"],
        }},
        "rho_check": {"type": "array", "items": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}},
    },
}

CORES_SCHEMA = {
    "type": "object",
    "required": ["type", "b", "count", "sizes", "mean", "max", "argmax", "rows"],
    "properties": {
        "sizes": {"type": "array", "items": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"}},
        "mean": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
        "rows": {"type": "array", "items": {
            "type": "object", "required": ["coords", "size"],
        }},
    },
}

VERIFY_SCHEMA = {
    "type": "object",
    "required": ["theorem", "pass", "counterexamples"],
    "properties": {"pass": {"type": "boolean"}, "counterexamples": {"type": "array"}},
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_roots_json(capsys):
    code, out = run(capsys, "roots", "A2")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, ROOTS_SCHEMA)
    assert doc["coxeter_number"] == 3

    code, out = run(capsys, "roots", "G2")
    doc = json.loads(out)
    assert doc["ratio_long_short"] == 3


def test_roots_usage_error(capsys):
    code, _ = run(capsys, "roots", "A0")
    assert code == 2


def test_cores_json(capsys):
    code, out = run(capsys, "cores", "A2", "5")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, CORES_SCHEMA)
    assert doc["count"] == 7

    code, out = run(capsys, "cores", "C2", "5")
    doc = json.loads(out)
    assert doc["count"] == 6
    parts = [tuple(r["partition"]) for r in doc["rows"]]
    from corelat import cores as cores_mod
    for p in parts:
        assert cores_mod.is_core(p, 4) and cores_mod.is_core(p, 5)
        assert cores_mod.conjugate(p) == p


def test_cores_e7_11_is_direct_checked(capsys):
    """The direct route runs on every region, E7 at b = 11 among them."""
    code, out = run(capsys, "cores", "E7", "11")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 352 and '"direct_checked": true' in out


def test_cores_gcd_usage_error(capsys):
    code, _ = run(capsys, "cores", "A2", "3")
    assert code == 2


def test_cores_csv(capsys):
    code, out = run(capsys, "cores", "A2", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("coords,")
    assert len(lines) == 6


#: SHA-256 of each command's standard output: the documents are pinned byte for byte
GOLDEN_STDOUT = {
    ("cores", "A2", "5"): "88339180b6f7870c1a3291b1cb41c79161eaa4cf6e1ce80b35121ebb1a83e90e",
    ("cores", "C2", "5"): "88d4ef5b41070ea1af09a0054d05f172e9310668678f8605eb73eb45506cc062",
    ("cores", "G2", "7"): "5492492a2329f6e7d5fc5c0efed6dda45e4f82f2ee618778eae5100a9ed79b2f",
    ("cores", "A2", "5", "--format", "csv"):
        "bfc74fb89737f273eecb71e633dd35ed8fbe1b91fd798b9b0b2c19af78f1c62b",
    ("cores", "C2", "5", "--format", "csv"):
        "d130a20ad3edd594b57018a4d2212cea61741f2efee0b3b089a758a87eccddd5",
    ("roots", "G2"): "ead6d555806f6eecfacb5fb7cbc0cfed27619d5e42a1db94a46062fab206a39b",
    ("draw", "C2", "--b", "5"): "da2b7ca57168ef8c28faf5ff2a3f7ff90a7dd46d38f5af9f020028a1917b5bd0",
    ("cores", "A4", "11"): "2ec0d1c3333e9e46a365ae61a1b2d5ebb6be32601d58e2f3eca51cb899332885",
    ("cores", "B3", "7"): "1a14a10e61a03b5e076c8932204bdc567b0edb526ad7243f3e6a186b11d5bc5a",
    # P^/Q^ = Z/2 x Z/2: f = 4 with no cyclic generator
    ("cores", "D4", "7"): "03a024f0b0878ba117c9b9d48bf0c30d05b47c4eb4b739865b9f7f8facb86f58",
    # f = 3
    ("cores", "E6", "7"): "c7cc763ce21374b92a3b331bd948b6b8a3c87a9b2df25397cbe29b757e192816",
    ("cores", "F4", "13"): "a31489fc2ea046fbfa17e86913c650ef6ece1d1d53131baebee96f2b576ef200",
    # 352 points, f = 2
    ("cores", "E7", "11"): "47d2ff0f2eddec878746b7d656472ab8e5589a961d872f18ba09a6f007c5e3b5",
    ("cores", "C3", "5", "--format", "csv"):
        "e827877f360a962c4bfbe7250edb0c432a48c2aef2e5ffb722e9d7b94a8e4d4e",
    # 2,530 points: two abacus_block row blocks of many cores.ABACUS_CELLS steps
    ("cores", "A4", "21"): "a6352db257910a25c4a91d30badaaaa0df4f89e66d745a2bb4aed458fffd0162",
    ("cores", "A4", "21", "--format", "csv"):
        "a31f47609f9bd28b5fdf1946469753bb804d6b8800c84722dd5e4dadb7dced27",
    # the type-C block path: model images as runner levels
    ("cores", "C3", "11"): "fbd4af71c9c4ccf4043edcd77879f154984d128ca6c2b2e948813c1557020831",
    # the reflection closure on large classical ranks and the exceptional types
    ("roots", "A40"): "177fdda7513b509293040bb3267b9a724c0fe7e972acf8f6d9bc4bbcf2cda986",
    ("roots", "B30"): "034ad8e379b7ccf11ad5a3444915adf2b8dfeeb035eb02a44727f5ca6214cbcd",
    ("roots", "C30"): "510435801337a11d5003a96208e08fc3b9885572064f5970dcfa0b3796a80fa4",
    ("roots", "D30"): "a51325605325e47d96f033e7f5069c72a2430bbc6889ecb874b207965960622c",
    ("roots", "E8"): "9415e3f213e484338ac46d52c311929c74df3dca8a93a4c2da5c62ef8a10fb7e",
    ("roots", "F4"): "e429276f6fd5bc2fef1224d5ecce461ed15c332e50c85f4fb219735c545e7dfd",
    # the other rank-2 pictures: a simply laced, a doubly and a triply laced system
    ("draw", "A2", "--b", "4"): "594e84eabc0189cdcd85b23b9467c008116ca0aa97c036d47aa5b8cca2abe646",
    ("draw", "B2", "--b", "5"): "1f7753e1fda6a2b1a5f7ca2c9d0e7cec15bf673278e7dec9c0447802ac21a25f",
    ("draw", "G2", "--b", "7"): "35ebf1f5798ec94a3971e6288216afc5f231765185de9ffc1ba2b9d4fff600d9",
    # CSV rows with no partition column
    ("cores", "G2", "7", "--format", "csv"):
        "20a7ce60a63712ac395dda4f738265337c867989569e117cdc3df1a33e945b3c",
    ("cores", "D4", "7", "--format", "csv"):
        "1e58d276e4361aa11fa83e69d909008913c8ac265342d4ecab7c6ebb98621bf4",
    # the benchmark's cores-large job: 29,799 points in 15 row blocks
    ("cores", "A4", "41"): "c52bcc44f87d0713382ca987c971e2d34d3c81a8796a9570f94c960908ff4b71",
    # the small regions that test_every_row_block_size_writes_the_pinned_bytes cuts up
    ("cores", "C3", "7"): "e6892b3db2af23649a8887bc7bfad3d2049996762d4bc83f2efc3430de4e8dbc",
    ("cores", "C3", "7", "--format", "csv"):
        "c8a56c280bb1fc8b121fa7547624ac60681208d7b493980df2168a8455317f6d",
    ("cores", "G2", "13"): "72a8f173724d1d2c96c5bca712944e552e8d54883a30f6c30c6b98c7b5271660",
    ("cores", "G2", "13", "--format", "csv"):
        "bb42b77e63e820653049f46c6685113975931f0c8cf8bf395855c5a5b76e183e",
    # a column block of one row
    ("roots", "A1"): "f442bf8cde18b049550975060d0629bbcb33f0950f04eb1b4133cbde8062d481",
}


@pytest.mark.parametrize("argv", list(GOLDEN_STDOUT))
def test_stdout_matches_its_golden_digest(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@pytest.mark.parametrize("argv", [argv for argv in GOLDEN_STDOUT if argv[1:3] in (("A2", "5"), ("C3", "7"), ("G2", "13"))])
def test_every_row_block_size_writes_the_pinned_bytes(monkeypatch, tmp_path, capsys, block, argv):
    """Rows cut into blocks of 1, 2, 3 and 7 points, one ``cores.abacus_block``
    call each in types A and C, write the same bytes to stdout and to --out."""
    monkeypatch.setattr(sommers, "ALCOVE_BLOCK", block)
    abacus_block, calls = cores.abacus_block, []
    monkeypatch.setattr(cores, "abacus_block", lambda a, levels: calls.append(len(levels)) or abacus_block(a, levels))
    code, out = run(capsys, *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[argv]
    count = sommers.haiman_count(rootsys.build_named(argv[1]), int(argv[2]))
    assert calls == ([] if argv[1] == "G2" else [min(block, count - lo) for lo in range(0, count, block)])
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == "" and path.read_text() == out


ORACLE_TYPES = ("A2", "A3", "A4", "A5", "B2", "B3", "C2", "C3", "D4", "G2", "F4")


def stdout_of(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(ORACLE_TYPES).flatmap(lambda name: st.tuples(
           st.just(name), st.sampled_from([b for b in range(1, 14)
                                           if gcd(b, rootsys.build_named(name).coxeter_number) == 1]))),
       st.sampled_from([1, 2, 3, 7, 2**11]))
def test_the_row_stream_equals_the_row_dict_oracle(name_and_b, block):
    """``corelat cores`` writes its column blocks as ``json.dumps`` writes the
    row dicts of ``CoreSet.to_json_dict``, and its CSV as the lines of
    ``CoreSet.rows()``, whatever the block size."""
    name, b = name_and_b
    coreset = sommers.enumerate_cores(rootsys.build_named(name), b)
    lines = ["coords,size,partition"] + [
        f'"{q}",{size},' + ('""' if part is None else json.dumps(list(part)).replace(",", " "))
        for q, size, part in coreset.rows()]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sommers, "ALCOVE_BLOCK", block)
        assert stdout_of("cores", name, str(b)) == dumps(coreset.to_json_dict()) + "\n"
        assert stdout_of("cores", name, str(b), "--format", "csv") == "\n".join(lines) + "\n"


def test_the_json_rows_are_written_with_no_tuple_or_partition_per_row(monkeypatch, capsys):
    """Once the region is enumerated, ``corelat cores`` writes its golden
    bytes with no tuple view of the points and no partition tuples.  The
    ban starts after ``enumerate_cores``, whose alcove walk goes through
    its own tuple view, ``sommers.enumerate_alcove``."""
    enumerate_cores = sommers.enumerate_cores

    def refuse(*args):
        raise AssertionError("a per-row object was built")

    def enumerate_then_refuse(rs, b):
        coreset = enumerate_cores(rs, b)
        monkeypatch.setattr(sommers, "_tuples", refuse)
        monkeypatch.setattr(cores.PartitionBlock, "partitions", refuse)
        monkeypatch.setattr(cores, "from_coroot", refuse)
        return coreset

    monkeypatch.setattr(sommers, "enumerate_cores", enumerate_then_refuse)
    code, out = run(capsys, "cores", "A4", "11")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == GOLDEN_STDOUT[("cores", "A4", "11")]
    with pytest.raises(AssertionError, match="per-row"):
        cores.from_coroot(5, (0,) * 5)


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("argv", [argv for argv in GOLDEN_STDOUT
                                  if argv[0] in ("cores", "roots") and "--format" not in argv])
def test_writer_equals_json_dumps_on_command_documents(argv):
    rs = rootsys.build_named(argv[1])
    if argv[0] == "roots":
        doc = rootsys.to_json_dict(rs)
    else:
        doc = sommers.enumerate_cores(rs, int(argv[2])).to_json_dict()
    assert cli.to_json(doc) == dumps(doc)


@pytest.mark.parametrize("name", verify.ALL_FAMILY_NAMES)
def test_roots_prints_the_json_dumps_of_its_document(name):
    """``corelat roots`` hands its positive roots to the writer as a column
    block, and prints ``rootsys.to_json_dict`` as ``json.dumps`` would."""
    assert stdout_of("roots", name) == dumps(rootsys.to_json_dict(rootsys.build_named(name))) + "\n"


#: a small scope for each verify suite that reads one
SMALL_SCOPE = {
    "main": {"types": ["A2"], "bs": (5,)},
    "max": {"types": ["G2"], "bs": (5,)},
    "transfer": {"types": ["A2"], "bs": (5,)},
    "sizer": {"types": ["A2"], "count": 5},
    "welldef": {"types": ["A2"], "length": 2},
    "haiman": {"types": ["B3"], "bs": (5,)},
    "conjecture": {"types": ["A2"], "bs": (4,)},
}


@pytest.mark.parametrize("theorem", verify.THEOREMS)
def test_writer_equals_json_dumps_on_verify_reports(theorem):
    report = verify.run(theorem, **SMALL_SCOPE.get(theorem, {}))
    assert cli.to_json(report) == dumps(report)


def test_writer_equals_json_dumps_on_a_failed_report(scan_drops_a_point):
    report = verify.run("transfer", types=["A2", "G2"], bs=(5,))
    assert report["counterexamples"] and cli.to_json(report) == dumps(report)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


HAND_MADE = {
    "empty": [[], {}, [[]], [{}], {"a": []}],
    "nested": [{"z": [1, -2], "a": {"k": [{"x": None}]}}, [[3], [{"y": "v"}]]],
    "mixed": [1, True],
    "bools": [True, False],
    "none": None,
    "ints": [0, -7, 2**64 + 1, -(2**70), 10**30],
    "tuple": (1, (2, 3)),
    "text": ['quote "', "new\nline", "back\\slash", "omega\u2228 \u00e9 \U0001F600", ""],
    "keys \u00e9\"\\": {"": 1, "b": 2, "A": 3},
    # lists of scalars at seven depths, each written by its depth's encoder
    "deep": [[1], [[2], [[3], [[4], [[5], [[6], [[7, "\u00e9"]]]]]]]],
    "deep mixed": [[1, "a", {"k": None, "j": [True, (2, 3)]}], [[[[[-1, "\u00e9"]]]]], {"x": [[[{}]]]}],
    # the C encoder returns a container this long in more than one chunk
    "long": list(range(100_000)),
    # a float or an int subclass is not one of the C encoder's scalars
    "float": [1, 2.5, -0.0, 1e300, "x"],
    "int enum": [Level.LOW, 3, {"level": Level.HIGH}],
    "non-ascii keys": {"\u00e9t\u00e9": 1, "\U0001F600": "x", "z\u2228": None, "a": True},
    # lists of same-keyed records, walked like any list: the values hold a column's item
    # separators, unescaped but for the newline
    "records": [{"%d": "\"],\n      [\"", "q\"": [], "\u00e9t\u00e9": ["\",\n", ""], "%": ""},
                {"%d": "", "q\"": [1, "\"],\n      [\""], "\u00e9t\u00e9": [], "%": "]"}],
    "one record": [{"a": [], "b": ""}],
    "lists and tuples": [{"a": [1, 2]}, {"a": (3, "[")}, {"a": ()}, {"a": []}],
    "lists and tuples, different keys": [{"a": [1, 2]}, {"a": (3, "["), "b": None}, {"a": ()}, {"a": []}],
    "scalars and lists": [{"a": 1, "b": []}, {"a": [2, True], "b": "x"}, {"a": None, "b": ()}, {"a": [], "b": ["]"]}],
    "different keys": [{"a": 1}, {"a": 2, "b": 3}],
    "record float": [{"a": 1}, {"a": [2.5]}],
    "record int enum": [{"a": [1]}, {"a": Level.HIGH}],
    "record dict": [{"a": {"b": [1]}}, {"a": {}}],
    "empty records": [{}, {}],
    "record lists in records": [{"rows": [{"x": 1, "y": [2]}, {"x": 3, "y": []}], "n": 2},
                                {"rows": [{"x": [4]}], "n": 1}],
}


@pytest.mark.parametrize("doc", [HAND_MADE, *HAND_MADE.values(), [], {}, 0, "x", False])
def test_writer_equals_json_dumps_on_hand_made_documents(doc):
    assert cli.to_json(doc) == dumps(doc)


TEXT = st.text(st.characters() | st.sampled_from('"\\\n\x00\x1f\x7f\u00e9\u2028\U0001F600'))
SCALARS = (st.integers(-(2**70), 2**70) | TEXT | st.booleans() | st.none()
           | st.floats() | st.sampled_from([-0.0, 1e300, 2**64, -(2**64) - 1]))
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=25)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(DOCUMENTS)
def test_writer_equals_json_dumps_on_random_documents(doc):
    assert cli.to_json(doc) == dumps(doc)


C_SCALARS = st.integers(-(2**70), 2**70) | TEXT | st.booleans() | st.none()
FLAT_VALUES = C_SCALARS | st.lists(C_SCALARS, max_size=3) | st.lists(C_SCALARS, max_size=3).map(tuple)
RECORDS = st.lists(TEXT, min_size=1, max_size=4, unique=True).flatmap(
    lambda keys: st.lists(st.fixed_dictionaries({key: FLAT_VALUES for key in keys}), min_size=1, max_size=6))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(RECORDS | RECORDS.map(lambda rows: {"rows": rows, "count": len(rows)}))
def test_writer_equals_json_dumps_on_random_records(doc):
    assert cli.to_json(doc) == dumps(doc)


def cut(items: list, cuts: list) -> list:
    """``items`` cut at the sorted positions ``cuts``: a repeated cut, or one
    at either end, makes an empty block."""
    ends = [0, *sorted(cuts), len(items)]
    return [items[lo:hi] for lo, hi in zip(ends, ends[1:])]


ITEMS = RECORDS | st.lists(DOCUMENTS | FLAT_VALUES.map(lambda v: {"a": v}), max_size=6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(ITEMS.flatmap(lambda items: st.tuples(st.just(items), st.lists(st.integers(0, len(items)), max_size=4))),
       st.booleans())
def test_a_stream_of_blocks_is_written_as_their_joined_list(items_and_cuts, in_a_document):
    """Blocks of records, or of any items, with empty blocks among them:
    returned as a string, or into a sink that has each nonempty block's
    text before the next block is read."""
    items, cuts = items_and_cuts
    blocks = cut(items, cuts)
    expected = dumps({"rows": items, "count": len(items)} if in_a_document else items)

    def doc(stream):
        return {"rows": stream, "count": len(items)} if in_a_document else stream

    assert cli.to_json(doc(iter(blocks))) == expected
    written, seen = [], []

    def stream():
        for block in blocks:
            seen.append(len(written))
            yield block
    assert cli.to_json(doc(stream()), written.append) is None
    assert "".join(written) == expected
    assert seen == [sum(map(bool, blocks[:j])) for j in range(len(blocks))]


def column_block(rows: list[dict]) -> dict:
    """The column block of rows ``{"coords", "size"}``, with or without ``"partition"``."""
    block = {"coords": np.array([row["coords"] for row in rows], dtype=np.int64).reshape(len(rows), -1),
             "size": [row["size"] for row in rows]}
    if rows and "partition" in rows[0]:
        block["partition"] = cores.PartitionBlock.of([row["partition"] for row in rows])
    return block


BIG = 2**62
COLUMN_ROWS = {
    "negative coords": [{"coords": [-3, 0, 5], "size": "1"}, {"coords": [-1, -20, -7], "size": "2/3"}],
    "empty partitions first and last": [
        {"coords": [0, 0], "partition": [], "size": "0"},
        {"coords": [1, -1], "partition": [3, 1], "size": "4"},
        {"coords": [-1, 1], "partition": [1, 1, 1], "size": "3"},
        {"coords": [2, -2], "partition": [], "size": "0"}],
    "all partitions empty": [{"coords": [i, -i], "partition": [], "size": "0"} for i in range(3)],
    "one row": [{"coords": [7, -7, 0], "partition": [2, 2, 1], "size": "5"}],
    "one coordinate": [{"coords": [4], "partition": [1], "size": "1"}, {"coords": [-4], "partition": [], "size": "0"}],
    "near 2**62": [{"coords": [BIG, -BIG, BIG - 1], "partition": [BIG, BIG - 1, 1], "size": "x"},
                   {"coords": [-BIG + 1, 0, 2**63 - 1], "partition": [2**63 - 1], "size": "y"}],
}


@pytest.mark.parametrize("name", list(COLUMN_ROWS))
def test_a_column_block_is_written_as_its_rows(name):
    rows = COLUMN_ROWS[name]
    assert cli.to_json(iter([column_block(rows)])) == dumps(rows)
    assert cli.to_json({"rows": iter([column_block(rows)]), "count": len(rows)}) == dumps({"rows": rows, "count": len(rows)})


def test_column_blocks_mix_with_empty_blocks_in_a_stream():
    rows = COLUMN_ROWS["empty partitions first and last"] + COLUMN_ROWS["one row"] + COLUMN_ROWS["near 2**62"]
    empty = {"coords": np.zeros((0, 3), dtype=np.int64), "partition": cores.PartitionBlock.of([]), "size": []}
    blocks = [[], column_block(rows[:1]), empty, column_block(rows[1:4]), [], rows[4:5], column_block(rows[5:]), empty,
              {"size": []}]
    expected = dumps({"rows": rows})
    assert cli.to_json({"rows": iter(blocks)}) == expected
    written = []
    assert cli.to_json({"rows": iter(blocks)}, written.append) is None
    assert "".join(written) == expected and len(written) == 5  # one write per nonempty block, then the rest


@pytest.mark.parametrize("coords", [np.zeros((2, 2), dtype=np.int32), np.zeros((2, 2)), np.zeros(2, dtype=np.int64),
                                    [[0, 1], [2, 3]]])
def test_a_column_block_with_no_writable_column_raises(coords):
    with pytest.raises(TypeError, match="'coords'"):
        cli.to_json(iter([{"coords": coords, "size": ["0", "1"]}]))


def test_a_column_block_of_unequal_columns_fails_before_its_text():
    with pytest.raises(AssertionError, match=r"^unequal columns: 'a' 2, 'b' 1$"):
        cli.to_json(iter([{"a": [1, 2], "b": [1]}]))
    written = []
    blocks = [{"size": ["0"]}, {"coords": np.zeros((2, 2), dtype=np.int64), "size": ["1"]}]
    with pytest.raises(AssertionError, match=r"^unequal columns: 'coords' 2, 'size' 1$"):
        cli.to_json(iter(blocks), written.append)
    assert written == ['[\n  {\n    "size": "0"']  # the first block only


def test_the_cores_command_reports_unequal_columns_as_a_failure(monkeypatch, capsys):
    monkeypatch.setattr(sommers.CoreSet, "_row_blocks", lambda self, texts: iter([{"coords": self.point_rows, "size": []}]))
    assert cli.main(["cores", "A2", "5"]) == 1
    assert capsys.readouterr().err == "failed: unequal columns: 'coords' 7, 'size' 0\n"


def counting_encoder_calls(monkeypatch) -> list:
    """The item count of each call of ``json``'s C encoder that ``cli.to_json`` makes."""
    make_encoder, calls = cli.c_make_encoder, []

    def counting(*args):
        encode = make_encoder(*args)
        return lambda obj, level: calls.append(len(obj)) or encode(obj, level)

    monkeypatch.setattr(cli, "c_make_encoder", counting)
    return calls


@pytest.mark.parametrize("name", ["lists and tuples", "lists and tuples, different keys"])
def test_records_in_a_list_are_walked_whatever_their_keys(monkeypatch, name):
    """Only a column block is written as columns: a list of records, with one
    set of keys or not, takes one call per nonempty container."""
    counted = counting_encoder_calls(monkeypatch)
    doc = HAND_MADE[name]
    assert cli.to_json(doc) == dumps(doc)
    assert counted == [2, 2]


def test_record_lists_take_as_many_encoder_calls_whatever_their_length(monkeypatch):
    """The rows of ``corelat cores A2 5`` and ``A2 11``, one column block each,
    take one C encoder call for their one column of scalars, the sizes."""
    calls = counting_encoder_calls(monkeypatch)
    counts = {}
    for b in (5, 11):
        coreset = sommers.enumerate_cores(rootsys.build_named("A2"), b)
        calls.clear()
        assert cli.to_json(coreset.document()) == dumps(coreset.to_json_dict())
        counts[len(coreset)] = len(calls)
    assert list(counts) == [7, 26] and counts[7] == counts[26]


def test_the_roots_column_block_is_written_in_bounded_memory(monkeypatch):
    # corelat roots A40: 820 roots of 40 ints, their coeffs an int64 column; one
    # C encoder call over them as lists would hold each int's text, 2.5 MB here
    docs = []
    with monkeypatch.context() as patch:  # the document as cmd_roots hands it over
        patch.setattr(cli, "to_json", lambda doc, sink=None: docs.append(doc))
        stdout_of("roots", "A40")
    doc, = docs
    tracemalloc.start()
    try:
        text = cli.to_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == dumps(rootsys.to_json_dict(rootsys.build_named("A40")))
    assert peak < 2**21


def test_the_cores_document_is_written_in_less_memory_than_its_text():
    """``corelat cores A4 41`` writes 14.8 MB in row blocks, to a sink that
    only counts: nothing holds the whole text, nor every row (the writer
    once peaked at 52 MB here)."""
    class Counting:
        length = 0

        def write(self, text):
            self.length += len(text)

    sink = Counting()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = cli.main(["cores", "A4", "41"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sink.length == 14_761_438
    assert peak < sink.length


def test_a_long_column_of_scalars_takes_one_encoder_call_per_block(monkeypatch):
    calls = counting_encoder_calls(monkeypatch)
    rows = [{"n": i, "s": str(i)} for i in range(100_002)]
    blocks = [{key: [row[key] for row in rows[lo:hi]] for key in ("n", "s")}
              for lo, hi in ((0, 1), (1, 100_001), (100_001, 100_001), (100_001, 100_002))]
    assert cli.to_json(iter(blocks)) == dumps(rows)
    assert calls == [1, 1, 100_000, 100_000, 1, 1]


@pytest.mark.parametrize("name, b", [("A2", "5"), ("C2", "5"), ("G2", "7"), ("B3", "7"), ("D4", "7"), ("A4", "21")])
def test_cores_csv_lines_match_the_json_rows(capsys, name, b):
    _, out = run(capsys, "cores", name, b)
    rows = json.loads(out)["rows"]
    _, out = run(capsys, "cores", name, b, "--format", "csv")
    header, *lines = csv.reader(io.StringIO(out))
    assert header == ["coords", "size", "partition"]
    assert len(lines) == len(rows)
    for (coords, size, part), row in zip(lines, rows):
        assert coords == str(tuple(row["coords"])) and size == row["size"]
        if part:
            assert [int(x) for x in part.strip("[]").split()] == row["partition"]
        else:
            assert "partition" not in row


@pytest.mark.parametrize("argv", [
    ["roots", "A2"],
    ["cores", "A2", "5"],
    ["cores", "C2", "5", "--format", "csv"],
    ["verify", "strange"],
    ["draw", "C2", "--b", "5"],
])
def test_out_file_equals_stdout(tmp_path, capsys, argv):
    _, out = run(capsys, *argv)
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == out


def test_a_reader_that_closes_stdout_early_ends_the_command_quietly():
    """``corelat cores A4 21 | head -1``: the writes after the reader has
    gone end the command with exit 0 and nothing on stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen([sys.executable, "-m", "corelat.cli", "cores", "A4", "21"],
                            env={**os.environ, "PYTHONPATH": path},
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        assert proc.wait(timeout=120) == 0
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_verify_pass_and_schema(capsys):
    code, out = run(capsys, "verify", "strange")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, VERIFY_SCHEMA)
    assert doc["pass"] is True


def test_verify_scoped(capsys):
    code, out = run(capsys, "verify", "main", "--type", "G2", "--b", "5,7,11")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_conjecture_is_labeled_evidence(capsys):
    code, out = run(capsys, "verify", "conjecture", "--type", "C2", "--b", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert "not a proof" in doc["note"]


def test_verify_unknown_theorem(capsys):
    code, _ = run(capsys, "verify", "nonsense")
    assert code == 2


def test_verify_unknown_theorem_lists_every_suite(capsys):
    assert cli.main(["verify", "nonsense"]) == 2
    listed = capsys.readouterr().err.strip().split("choose from ", 1)[1]
    assert tuple(listed.split(", ")) == verify.THEOREMS


def test_verify_dispatches_through_the_module_attribute(monkeypatch, capsys):
    # perfbench/tracing.py times each suite by wrapping the check_* attributes
    failure = {"type": "X1", "lhs": "1", "rhs": "2"}
    monkeypatch.setattr(verify, "check_strange", lambda: [failure])
    code, out = run(capsys, "verify", "strange")
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, VERIFY_SCHEMA)
    assert doc["pass"] is False and doc["counterexamples"] == [failure]


@pytest.mark.parametrize("argv, kwargs", [
    (["main"], {}),
    (["fg_poly"], {}),
    (["strange"], {}),
    (["haiman", "--b", "5"], {"matrix": verify.scoped_matrix(bs=(5,))}),
    (["conjecture", "--type", "c2"], {"matrix": [("C2", (3, 5, 7))]}),
    (["main", "--type", "E6"], {"matrix": [("E6", (5, 7))]}),
    (["sizer", "--type", "A2", "--count", "5"], {"types": ["A2"], "count": 5}),
    (["welldef", "--length", "3"], {"max_len": 3}),
])
def test_verify_passes_only_the_options_set(monkeypatch, capsys, argv, kwargs):
    # the cap is not passed: every check runs under the one cap in force
    seen = []
    monkeypatch.setattr(verify, f"check_{argv[0]}",
                        lambda **kw: seen.append((kw, sommers._CAP.get())) or [])
    code, _ = run(capsys, "verify", *argv, "--cap", "1000")
    assert code == 0
    assert seen == [(kwargs, 1000)]
    assert sommers._CAP.get() == sommers.DEFAULT_CAP


@pytest.mark.parametrize("argv, message", [
    (["strange", "--count", "3"], "verify strange does not read --count; it reads no scoping flags"),
    (["sizer", "--b", "5"], "verify sizer does not read --b; it reads --type, --count"),
    (["main", "--length", "4"], "verify main does not read --length; it reads --type, --b"),
    (["welldef", "--type", "Z3"], "cannot parse Cartan type from 'Z3'"),
    (["haiman", "--b", "3"], "gcd(b, h) = 1"),
    (["conjecture", "--b", "3"], "gcd(b, h) = 1"),
    (["sizer", "--count", "0"], "--count must be a positive integer, got 0"),
    (["welldef", "--length", "-1"], "--length must be a positive integer, got -1"),
    (["max", "--b", "3"], "A2: b = 3 must be a positive integer with gcd(b, h) = 1, h = 3"),
    (["transfer", "--b", "3"], "A2: b = 3 must be a positive integer with gcd(b, h) = 1, h = 3"),
    (["main", "--type", "A2", "--b", "0"], "A2: b = 0 must be a positive integer"),
    (["main", "--b", "5,,7"], "argument --b: expected comma-separated positive integers, got '5,,7'"),
])
def test_verify_scoping_errors_are_usage_errors(capsys, argv, message):
    assert cli.main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_verify_rejects_a_non_coprime_b_before_any_suite_runs(monkeypatch, capsys):
    seen = []
    monkeypatch.setattr(verify, "check_main", lambda **kw: seen.append(kw) or [])
    assert cli.main(["verify", "main", "--type", "G2", "--b", "5,6,7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and seen == []
    assert "G2: b = 6 must be a positive integer with gcd(b, h) = 1, h = 6" in captured.err


def test_scoped_haiman_checks_only_its_own_cases(monkeypatch):
    seen = []
    count = verify.sommers.haiman_count
    monkeypatch.setattr(verify.sommers, "haiman_count",
                        lambda rs, b: seen.append((str(rs.cartan_type), b)) or count(rs, b))
    assert verify.run("haiman", types=["B3"], bs=(5,))["pass"]
    assert seen == [("B3", 5)]


def test_draw_deterministic(tmp_path, capsys):
    code, first = run(capsys, "draw", "A2", "--b", "1")
    assert code == 0
    assert first.startswith("<svg")
    # exactly one marked region point at the origin
    assert first.count('fill="#c03020"') == 1
    code, second = run(capsys, "draw", "A2", "--b", "1")
    assert first == second

    code, svg = run(capsys, "draw", "C2", "--b", "5")
    assert svg.count('fill="#c03020"') == 6


def test_draw_rank_restriction(capsys):
    code, _ = run(capsys, "draw", "B3", "--b", "5")
    assert code == 2


def test_draw_is_valid_xml(capsys):
    import xml.etree.ElementTree as ET

    for t, b in (("A2", 4), ("B2", 3), ("C2", 5), ("G2", 5)):
        code, svg = run(capsys, "draw", t, "--b", str(b))
        assert code == 0
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")


def test_out_flag(tmp_path, capsys):
    path = tmp_path / "roots.json"
    code = cli.main(["roots", "C3", "--out", str(path)])
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["cartan_type"] == "C3"


def test_unwritable_out_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert cli.main(["roots", "A2", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not path.parent.exists()


def test_cap_env(monkeypatch, capsys):
    monkeypatch.setenv("CORELAT_CAP", "2")
    assert cli.main(["cores", "A2", "5"]) == 2  # predicted count 7 exceeds cap
    err = capsys.readouterr().err
    assert "predicted count 7" in err and "cap 2" in err


@pytest.mark.parametrize("env, argv, message", [
    ("abc", [], "CORELAT_CAP must be a positive integer, got 'abc'"),
    ("-3", [], "CORELAT_CAP must be a positive integer, got '-3'"),
    ("0", [], "CORELAT_CAP must be a positive integer, got '0'"),
    (None, ["--cap", "0"], "--cap must be a positive integer, got '0'"),
    (None, ["--cap", "abc"], "--cap must be a positive integer, got 'abc'"),
    ("abc", ["--cap", "-1"], "--cap must be a positive integer, got '-1'"),
])
def test_cap_must_be_a_positive_integer(monkeypatch, capsys, env, argv, message):
    if env is None:
        monkeypatch.delenv("CORELAT_CAP", raising=False)
    else:
        monkeypatch.setenv("CORELAT_CAP", env)
    for command in (["cores", "A2", "5"], ["verify", "strange"]):
        assert cli.main([*command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv, b", [
    (["cores", "A2", "3"], 3),
    (["cores", "A2", "0"], 0),
    (["draw", "A2", "--b", "3"], 3),
    (["verify", "max", "--type", "A2", "--b", "3"], 3),
])
def test_a_b_not_coprime_to_h_is_one_error_line(capsys, argv, b):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: A2: b = {b} must be a positive integer "
                            f"with gcd(b, h) = 1, h = 3\n")


@pytest.mark.parametrize("theorem", ["main", "max"])
def test_a_refusal_is_not_a_counterexample(capsys, theorem):
    assert cli.main(["verify", theorem, "--type", "A2", "--b", "5", "--cap", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: predicted count 7 for A2, b=5 exceeds cap 1\n"


@pytest.mark.parametrize("theorem, cap, message", [
    ("arm", 1, "predicted count 5 for A2, b=4 exceeds cap 1"),
    ("transfer", 3, "predicted count 5 for A2, b=4 exceeds cap 3"),
    ("haiman", 2, "predicted count 5 for A2, b=4 exceeds cap 2"),
    # fg_poly reaches the cap through ehrhart; conjecture's first case, A1 at b = h - 1 = 1, is under it
    ("fg_poly", 1, "predicted count 8 for G2, b=7 exceeds cap 1"),
    ("conjecture", 1, "predicted count 2 for A1, b=3 exceeds cap 1"),
    # welldef caps the rows of its word walk: A2's first 19, up to length 3
    ("welldef", 16, "the word walk of A2 has 19 rows up to length 3, over cap 16"),
])
def test_the_cap_reaches_every_suite_that_enumerates(monkeypatch, capsys, theorem, cap, message):
    assert cli.main(["verify", theorem, "--cap", str(cap)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_the_suites_are_exactly_the_check_functions():
    # perfbench/tracing.py times every check_* attribute of verify as a suite
    checks = {name[len("check_"):] for name in vars(verify) if name.startswith("check_")}
    assert checks == set(verify.SUITES)


#: the scoping flags each suite reads, in the order its usage message lists them
SUITE_FLAGS = {
    "arm": (), "main": ("--type", "--b"), "max": ("--type", "--b"), "transfer": ("--type", "--b"),
    "sizer": ("--type", "--count"), "welldef": ("--type", "--length"), "ip_content": (), "models": (),
    "haiman": ("--type", "--b"), "strange": (), "typea": (), "fg_poly": (),
    "conjecture": ("--type", "--b"),
}


def test_the_suite_flags_come_from_the_check_keywords():
    assert verify.SUITES == SUITE_FLAGS


@pytest.mark.parametrize("theorem, flags", SUITE_FLAGS.items())
def test_each_suite_reads_exactly_its_flags(theorem, flags):
    unread = [flag for flag in ("--type", "--b", "--count", "--length") if flag not in flags]
    with pytest.raises(ValueError) as refusal:
        verify.run(theorem, types=["A2"], bs=(5,), count=1, length=1)
    assert str(refusal.value) == (f"verify {theorem} does not read {', '.join(unread)}; "
                                  f"it reads {', '.join(flags) or 'no scoping flags'}")


def test_run_normalizes_type_names():
    assert verify.scoped_matrix(["a2"]) == verify.scoped_matrix(["A2"]) == [("A2", (2, 4, 5))]
    assert verify.run("welldef", types=["a2"], length=2) == \
        verify.run("welldef", types=["A2"], length=2)


@pytest.fixture
def scan_drops_a_point(monkeypatch):
    """The direct facet walk loses its first point, so the region cross-check fails."""
    scan = sommers._direct_scan
    monkeypatch.setattr(sommers, "_direct_scan", lambda sr: scan(sr)[1:])


@pytest.mark.parametrize("argv, labels", [
    (["arm"], ["pair"]),
    (["transfer", "--type", "A2", "--b", "5"], ["type", "b"]),
    (["conjecture", "--type", "A2", "--b", "4"], ["type", "b"]),
])
def test_a_failed_identity_is_a_counterexample(scan_drops_a_point, capsys, argv, labels):
    code, out = run(capsys, "verify", *argv)
    assert code == 1
    doc = json.loads(out)
    jsonschema.validate(doc, VERIFY_SCHEMA)
    assert doc["pass"] is False and doc["counterexamples"]
    for record in doc["counterexamples"]:
        assert set(record) == {*labels, "error"}
        assert "direct inequality scan disagrees" in record["error"]


def test_a_failed_case_does_not_stop_the_suite(scan_drops_a_point, capsys):
    code, out = run(capsys, "verify", "transfer", "--type", "A2", "--type", "G2", "--b", "5")
    assert code == 1
    records = json.loads(out)["counterexamples"]
    assert [(r["type"], r["b"]) for r in records] == [("A2", 5), ("G2", 5)]
    assert all("error" in r for r in records)


@pytest.mark.parametrize("argv", [["cores", "A2", "5"], ["draw", "A2", "--b", "5"]])
def test_a_failed_identity_is_one_failed_line(scan_drops_a_point, capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failed: A2, b=5: direct inequality scan disagrees")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.fixture
def first_size_raised(monkeypatch):
    """The first point's size is raised above the closed form of the maximum."""
    numerators = affine.size_numerators

    def first_raised(rs, points):
        d, nums = numerators(rs, points)
        nums = nums.copy()
        nums[0] += 100 * d
        return d, nums
    monkeypatch.setattr(affine, "size_numerators", first_raised)


@pytest.mark.parametrize("argv", [["cores", "A2", "5"], ["cores", "A2", "5", "--format", "csv"]])
def test_a_maximum_off_the_closed_form_is_one_failed_line(first_size_raised, capsys, argv):
    """Both formats read max and argmax from ``sommers.max_size``: a first
    point raised above the closed form fails the document instead of being
    printed as its maximum."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failed: A2, b=5: maximum-size scan disagrees")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("fixture, argv, code, message", [
    ("scan_drops_a_point", ["cores", "A2", "5"], 1, "failed: A2, b=5: direct inequality scan disagrees"),
    ("scan_drops_a_point", ["cores", "A2", "5", "--format", "csv"], 1,
     "failed: A2, b=5: direct inequality scan disagrees"),
    ("scan_drops_a_point", ["draw", "A2", "--b", "5"], 1, "failed: A2, b=5: direct inequality scan disagrees"),
    ("first_size_raised", ["cores", "A2", "5"], 1, "failed: A2, b=5: maximum-size scan disagrees"),
    ("first_size_raised", ["cores", "A2", "5", "--format", "csv"], 1,
     "failed: A2, b=5: maximum-size scan disagrees"),
    (None, ["cores", "A2", "5", "--cap", "2"], 2, "error: predicted count 7 for A2, b=5 exceeds cap 2"),
    (None, ["cores", "A2", "5", "--format", "csv", "--cap", "2"], 2,
     "error: predicted count 7 for A2, b=5 exceeds cap 2"),
], ids=["scan", "scan-csv", "scan-draw", "max", "max-csv", "cap", "cap-csv"])
def test_a_failed_or_refused_region_creates_no_out_file(request, tmp_path, capsys, fixture, argv, code, message):
    """Every check of a region runs before the first byte, so --out is never opened."""
    if fixture:
        request.getfixturevalue(fixture)
    path = tmp_path / "out"
    assert cli.main([*argv, "--out", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(message)
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert not path.exists()


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_bad_levels_in_a_late_block_stop_the_command_before_its_first_byte(monkeypatch, tmp_path, capsys, out):
    """The runner levels of every point are checked before the first row
    block, so an unbalanced last row writes nothing, to stdout or --out."""
    monkeypatch.setattr(sommers, "ALCOVE_BLOCK", 2)
    level_step = models.level_step

    def last_row_unbalanced(t):
        step = level_step(t)

        def shifted(rows):
            levels = step(rows).copy()
            levels[-1, 0] += 1
            return levels
        return shifted
    monkeypatch.setattr(models, "level_step", last_row_unbalanced)
    path = tmp_path / "out"
    assert cli.main(["cores", "A2", "5", *(["--out", str(path)] if out else [])]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: runner levels (")
    assert captured.err.endswith(") must sum to zero\n") and captured.err.count("\n") == 1
    assert not path.exists()


def test_a_held_out_mismatch_is_a_counterexample(monkeypatch, capsys):
    enumerator = ehrhart.weighted_enumerator

    def off_by_one(rs, b):
        return enumerator(rs, b) + (str(rs.cartan_type) == "G2" and b == 37)

    monkeypatch.setattr(ehrhart, "weighted_enumerator", off_by_one)
    code, out = run(capsys, "verify", "fg_poly")
    assert code == 1
    [record] = json.loads(out)["counterexamples"]
    assert set(record) == {"type", "residue", "error"}
    assert (record["type"], record["residue"]) == ("G2", 1) and "held-out" in record["error"]


def test_a_toggle_that_leaves_the_cores_is_a_counterexample(monkeypatch, capsys):
    """A toggle whose result is no 4-core fails the identity (exit 1) and is
    not refused as a partition that is not a core (exit 2).  The closure is
    pinned to the true cores, so the broken toggle reaches only their toggle
    rows and never adds its non-core to the cores."""
    every_core = {a: cores.all_cores(a, 60) for a in (3, 4, 5)}
    toggle = cores.toggle_action

    def broken(parts, a, i):
        toggled = toggle(parts, a, i)
        return (4,) if (a, toggled) == (4, (3, 1, 1)) else toggled

    def pinned(a, max_boxes):
        return every_core[a], [tuple(broken(p, a, i) for i in range(a)) for p in every_core[a]]

    monkeypatch.setattr(cores, "core_closure", pinned)
    code, out = run(capsys, "verify", "ip_content")
    assert code == 1
    records = json.loads(out)["counterexamples"]
    assert sorted((tuple(r["partition"]), r["letter"]) for r in records) == \
        [((2, 1), 2), ((3, 1, 1, 1), 1), ((3, 2, 1), 0), ((4, 1, 1), 3)]
    assert all(set(r) == {"a", "partition", "letter"} and r["a"] == 4 for r in records)


#: the words of ``verify sizer --type A2 --count 5``, in order: every element
#: of length at most 2, as 1 + 3 rows do not reach 5; each is the reversed
#: least word w of a row, whose point is apply(w, 0)
A2_SIZER_WORDS = [[], [0], [1], [2], [1, 0], [2, 0], [0, 1], [2, 1], [0, 2], [1, 2]]


@pytest.mark.parametrize("count, rows", [(4, 4), (5, 10), (10, 10)])
def test_sizer_checks_the_shortest_elements_level_by_level(monkeypatch, capsys, count, rows):
    """An odd lattice numerator in every row flags every row the walk checks:
    whole levels, up to the first that ends at ``count`` rows or more."""
    real = affine.size_vector_numerators
    monkeypatch.setattr(affine, "size_vector_numerators", lambda rs, x: (2, real(rs, x)[1] + 1))
    code, out = run(capsys, "verify", "sizer", "--type", "A2", "--count", str(count))
    assert code == 1
    assert json.loads(out)["counterexamples"] == [{"type": "A2", "word": w} for w in A2_SIZER_WORDS[:rows]]


@pytest.mark.parametrize("word, flagged", [
    ((1,), [[1], [0, 1], [2, 1]]),  # the row and the two rows that extend it
    ((1, 2), [[2, 1]]),
])
def test_sizer_flags_a_perturbed_inversion_entry(monkeypatch, capsys, word, flagged):
    """One more delta in the inversion entry of the last letter of ``word``,
    a least word, flags the row it ends at and the rows the walk extends
    from it, and no other."""
    rs = rootsys.build_named("A2")
    el = affine.word_to_element(rs, word[:-1])
    real = affine.reduced_steps

    def perturbed(rs, m, v, q, letters):
        step = real(rs, m, v, q, letters)
        hit = [((tuple(map(tuple, mr)), tuple(vr)), i) == (el.key(), word[-1])
               for mr, vr, i in zip(m.tolist(), v.tolist(), letters.tolist())]
        return step._replace(k=step.k + np.array(hit, dtype=np.int64))

    monkeypatch.setattr(affine, "reduced_steps", perturbed)
    code, out = run(capsys, "verify", "sizer", "--type", "A2", "--count", "5")
    assert code == 1
    assert json.loads(out)["counterexamples"] == [{"type": "A2", "word": w} for w in flagged]


@pytest.mark.parametrize("row", [1, 2, 7])
@pytest.mark.parametrize("delta", [1, 2])  # an odd numerator, then a wrong half
def test_sizer_flags_a_perturbed_lattice_row(monkeypatch, capsys, row, delta):
    """A lattice size numerator moved in one row of the walk, counted over
    all levels, flags that row's word only."""
    real, seen = affine.size_vector_numerators, [0]

    def perturbed(rs, x):
        d, s = real(rs, x)
        s = s.copy()
        if 0 <= row - seen[0] < len(x):
            s[row - seen[0], 0] += delta
        seen[0] += len(x)
        return d, s

    monkeypatch.setattr(affine, "size_vector_numerators", perturbed)
    code, out = run(capsys, "verify", "sizer", "--type", "A2", "--count", "5")
    assert code == 1
    assert json.loads(out)["counterexamples"] == [{"type": "A2", "word": A2_SIZER_WORDS[row]}]


def test_sizer_and_welldef_check_nothing_on_no_types():
    assert verify.check_sizer(types=()) == [] and verify.check_welldef(types=()) == []


def test_ip_content_toggles_each_core_once_per_letter(monkeypatch, capsys):
    """At its defaults the suite makes each core's toggles for every letter
    from one pass over its corners: 75 + 356 + 1,349 passes."""
    calls = Counter()
    corners = cores.toggle_corners

    def counted(parts, a):
        calls[parts, a] += 1
        return corners(parts, a)

    monkeypatch.setattr(cores, "toggle_corners", counted)
    code, out = run(capsys, "verify", "ip_content")
    assert code == 0 and json.loads(out)["pass"]
    assert sum(calls.values()) == 1780 == 75 + 356 + 1349
    assert set(calls.values()) == {1}
    assert Counter(a for _, a in calls) == {3: 75, 4: 356, 5: 1349}


def test_ip_content_reads_the_levels_of_each_a_in_one_block(monkeypatch, capsys):
    """At its defaults the suite reads every core's runner levels with one
    ``coroot_block`` call per a: no hook scan and no one-row ``to_coroot``."""
    calls = Counter()
    for name in ("coroot_block", "to_coroot", "first_hook_of_length"):
        real = getattr(cores, name)
        monkeypatch.setattr(cores, name, lambda *args, real=real, name=name: calls.update([(name, args[-1])])
                            or real(*args))
    code, out = run(capsys, "verify", "ip_content")
    assert code == 0 and json.loads(out)["pass"]
    assert calls == {("coroot_block", 3): 1, ("coroot_block", 4): 1, ("coroot_block", 5): 1}


def test_a_non_core_from_the_closure_is_a_counterexample(monkeypatch, capsys):
    """A partition of the closure that is no a-core fails the identity (exit
    1) with a record of its own, and is not refused (exit 2): its content
    counts are those of no core, so they differ from the lattice statistic."""
    closure = cores.core_closure

    def with_a_non_core(a, max_boxes):
        found, toggles = closure(a, max_boxes)
        return found + [(a,)], toggles + [((a,),) * a]

    monkeypatch.setattr(cores, "core_closure", with_a_non_core)
    code, out = run(capsys, "verify", "ip_content")
    assert code == 1
    assert json.loads(out)["counterexamples"] == [{"a": a, "partition": [a]} for a in (3, 4, 5)]


def test_ip_content_names_the_core_and_letter_of_a_wrong_toggle(monkeypatch, capsys):
    """One toggle of one core altered in the closure's row: the record names
    that core and that letter, and nothing else."""
    closure = cores.core_closure

    def with_a_wrong_toggle(a, max_boxes):
        found, toggles = closure(a, max_boxes)
        if a == 4:
            row = list(toggles[5])
            row[2] = found[0] if row[2] != found[0] else found[1]
            toggles = toggles[:5] + [tuple(row)] + toggles[6:]
        return found, toggles

    monkeypatch.setattr(cores, "core_closure", with_a_wrong_toggle)
    code, out = run(capsys, "verify", "ip_content")
    assert code == 1
    assert json.loads(out)["counterexamples"] == [
        {"a": 4, "partition": list(cores.core_closure(4, 60)[0][5]), "letter": 2}]


def test_haiman_refuses_on_the_predicted_count_before_enumerating(monkeypatch, capsys):
    visited = []
    walk = verify.sommers.alcove_blocks
    monkeypatch.setattr(verify.sommers, "alcove_blocks",
                        lambda *args, **kw: visited.append(args) or walk(*args, **kw))
    with pytest.raises(verify.sommers.FeasibilityError,
                       match=r"^predicted count 34747713 for E8, b=97 exceeds cap 1000000$"):
        verify.run("haiman", types=["E8"], bs=(97,))
    assert cli.main(["verify", "haiman", "--type", "E8", "--b", "97"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: predicted count 34747713 for E8, b=97 exceeds cap 1000000\n"
    assert visited == []


def test_one_parser_serves_every_call(monkeypatch, capsys):
    # a scoped parse leaves nothing behind: the next plain run checks the whole default matrix
    seen = []
    enumerate_cores = sommers.enumerate_cores
    monkeypatch.setattr(sommers, "enumerate_cores",
                        lambda rs, b: seen.append((str(rs.cartan_type), b)) or enumerate_cores(rs, b))
    assert cli.main(["verify", "transfer", "--type", "A2", "--b", "5"]) == 0
    assert seen == [("A2", 5)]
    seen.clear()
    assert cli.main(["verify", "transfer"]) == 0
    assert seen == [(t, b) for t, bs in verify.DEFAULT_MATRIX for b in bs]
    capsys.readouterr()
    assert cli.build_parser() is cli.build_parser()


#: the A2 b = 5 region and alcove both hold 7 points; d = 2 h f = 18
A2_SIZES = ["0", "1", "2", "2", "4", "4", "8"]
A2_SHIFTED = ["1/18", "19/18", "37/18", "37/18", "73/18", "73/18", "145/18"]


def test_transfer_reports_a_perturbed_shifted_size_as_fraction_strings(monkeypatch):
    # each shifted size 1/(2hf) too large, the region sizes (b = 1) untouched
    scaled = affine.scaled_size_b

    def perturbed(rs, b):
        d, form = scaled(rs, b)
        return (d, form) if b == 1 else (d, affine.SizeForm(form.quad, form.lin, form.const + 1))
    monkeypatch.setattr(affine, "scaled_size_b", perturbed)
    records = verify.check_transfer([("A2", (5,)), ("G2", (5, 7))])
    # the records of sorting Fractions of the per-point size_b, which reads the same form
    expected = []
    for t, b in [("A2", 5), ("G2", 5), ("G2", 7)]:
        rs = rootsys.build_named(t)
        sizes = sorted(sommers.enumerate_cores(rs, b).sizes)
        shifted = sorted(affine.size_b(rs, b, q) for q in sommers.enumerate_alcove(rs, b))
        expected.append({"type": t, "b": b, "sizes": [str(x) for x in sizes],
                         "shifted_sizes": [str(x) for x in shifted]})
    assert records == expected
    assert records[0]["sizes"] == A2_SIZES and records[0]["shifted_sizes"] == A2_SHIFTED


def test_transfer_asserts_one_denominator(monkeypatch):
    scaled = affine.scaled_size_b

    def doubled(rs, b):
        d, form = scaled(rs, b)
        quad, lin = tuple(tuple(2 * x for x in row) for row in form.quad), tuple(2 * x for x in form.lin)
        return (d, form) if b == 1 else (2 * d, affine.SizeForm(quad, lin, 2 * form.const))
    monkeypatch.setattr(affine, "scaled_size_b", doubled)
    assert verify.check_transfer([("A2", (5,))]) == [
        {"type": "A2", "b": 5, "error": "shifted sizes over 36, region sizes over 18"}]


@pytest.mark.parametrize("theorem", ["transfer", "haiman"])
def test_region_suites_make_no_per_point_size_or_tuple(monkeypatch, theorem):
    # haiman counts the alcove walk's blocks and their coroot_mask, transfer
    # sizes the alcove's coroot points of one congruent solve, and
    # enumerate_cores maps the blocks through w_b^-1: no suite reaches the
    # tuple view enumerate_alcove, no alcove row reaches size_numerators, and
    # haiman makes no sorted _integral_solve array
    calls = Counter()
    for module, name in [(affine, "size_b"), (sommers, "enumerate_alcove"),
                         (affine, "size_numerators"), (sommers, "_integral_solve")]:
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args))
    assert verify.run(theorem)["pass"]
    # per case, transfer calls enumerate_cores (two solves and one size step)
    # and solves once for the alcove's coroot points
    cases = sum(len(bs) for _, bs in verify.DEFAULT_MATRIX) if theorem == "transfer" else 0
    assert calls == Counter({"_integral_solve": 3 * cases, "size_numerators": cases})


def test_missing_subcommand(capsys):
    assert cli.main([]) == 2


def test_the_welldef_cap_admits_as_many_words_as_it_names(capsys):
    # A1 has 1 + 2 * 8 = 17 elements of length at most 8, each with one
    # reduced word, so its walk has 17 rows
    assert cli.main(["verify", "welldef", "--type", "A1", "--cap", "17"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert cli.main(["verify", "welldef", "--type", "A1", "--cap", "16"]) == 2
    assert capsys.readouterr().err == "error: the word walk of A1 has 17 rows up to length 8, over cap 16\n"


@pytest.mark.parametrize("argv", [
    ["welldef", "--type", "A3", "--length", "20"],  # over 10**6 reduced words, 5,781 elements
    ["welldef", "--type", "E8", "--length", "4"],
    ["sizer", "--type", "E8", "--count", "50"],
])
def test_the_word_walk_reaches_every_type_past_the_word_count(capsys, argv):
    assert cli.main(["verify", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
