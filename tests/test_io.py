"""The input boundary: any text parses to a document or raises
``ParseError``, any bytes through the CLI end in a documented exit code, and
rendered documents parse back to what was rendered."""

import io
import os
import string
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from covmatroid import (
    CapacitatedCovering,
    GroundSet,
    IndexedFamily,
    ValidationError,
    transversal_as_covering,
)
from covmatroid.cli import COMMANDS, main
from covmatroid.io import (
    InputDocument,
    ParseError,
    parse_document,
    parse_file,
    render_covering_document,
    render_family_document,
)

LABELS = ("a", "b", "c", "d", "e", "x1", "k")

# Document-shaped text: a header that is mostly well formed, block lines
# over the universe's labels, and a few malformed lines put anywhere, so
# examples reach the later checks (labels, capacities, covering structure)
# and not only the first line.
_WORDS = ["k=0", "k=1", "k=2", "k=-1", "k=x", "K1 =", ",", "#", "zz"]
_noise = st.one_of(
    st.sampled_from(["# comment", "", "no colon here", "universe: a",
                     "universe: b b", "block:", "kind: graph", "format: 2"]),
    st.text(max_size=12),
)


@st.composite
def documents(draw):
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=5,
                           unique=True))
    lines = ["format: 1",
             draw(st.sampled_from(["kind: covering", "kind: partition",
                                   "kind: indexed_family"])),
             "universe: " + " ".join(labels)]
    for _ in range(draw(st.integers(0, 5))):
        words = draw(st.lists(st.sampled_from(labels * 3 + _WORDS), min_size=1,
                              max_size=5))
        key = draw(st.sampled_from(["block", "member"]))
        lines.append(f"{key}: {' '.join(words)}")
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_noise))
    return "\n".join(lines)


def _check_parse(text):
    try:
        doc = parse_document(text)
    except ParseError:
        return
    assert isinstance(doc, InputDocument)


@settings(max_examples=200)
@given(st.text(max_size=80))
def test_any_text_parses_or_raises_parse_error(text):
    _check_parse(text)


@settings(max_examples=200)
@given(documents())
def test_document_shaped_text_parses_or_raises_parse_error(text):
    _check_parse(text)


_ARGS = {
    "rank": ("--set", "a,b"),
    "closure": ("--set", "a"),
    "approx": ("--set", "a", "--matroidal"),
    "neighborhood": ("--element", "a", "--matroidal"),
}


@settings(max_examples=150)
@given(
    st.one_of(st.binary(max_size=80), documents().map(str.encode)),
    st.sampled_from(sorted(COMMANDS)),
    st.booleans(),
)
def test_any_bytes_exit_with_a_documented_code(data, command, verify):
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        argv = [command, path, *_ARGS.get(command, ())]
        if verify:
            argv.append("--verify")
        assert main(argv, out=io.StringIO()) in range(5)


_label = st.text(string.ascii_letters + string.digits + "_.-", min_size=1,
                 max_size=3)


@st.composite
def grounds(draw):
    return GroundSet(draw(st.lists(_label, min_size=1, max_size=6, unique=True)))


@st.composite
def coverings(draw):
    g = draw(grounds())
    blocks = draw(st.lists(st.integers(1, g.full_mask), min_size=1,
                           max_size=5, unique=True))
    rest = g.full_mask
    for b in blocks:
        rest &= ~b
    if rest:
        blocks.append(rest)
    caps = draw(st.lists(st.integers(0, 3), min_size=len(blocks),
                         max_size=len(blocks)))
    return CapacitatedCovering(g, tuple(g.mask(b) for b in blocks), tuple(caps))


@st.composite
def families(draw):
    g = draw(grounds())
    members = draw(st.lists(st.integers(0, g.full_mask), min_size=1, max_size=6))
    return IndexedFamily(g, tuple(g.mask(b) for b in members))


@given(coverings())
def test_covering_document_round_trip(c):
    assert parse_document(render_covering_document(c)).covering() == c


@given(families())
def test_family_document_round_trip(f):
    assert parse_document(render_family_document(f)).family() == f


def _convert(text):
    """Exit code and stdout of ``covmatroid convert`` on ``text``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "doc.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        return main(["convert", path], out=out), out.getvalue()


@pytest.mark.parametrize("universe, block, label", [
    # ``k=1`` would be read as a capacity on every block line.
    ("k=1 a", "a", "k=1"),
    # ``p=q`` would be read as block name ``p`` plus element ``q``.
    ("p=q q", "p=q", "p=q"),
])
def test_a_label_with_an_equals_sign_is_a_parse_error(universe, block, label):
    text = f"format: 1\nkind: indexed_family\nuniverse: {universe}\nblock: {block}\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert info.value.line == 3
    assert str(info.value) == f"line 3: element label {label!r} contains '='"
    assert _convert(text) == (1, "")


@pytest.mark.parametrize("header, second, key", [
    # The last kind would win: classify would run on a partition, exit 0.
    ("kind: covering", "kind: partition", "kind"),
    ("format: 1", "format: 1", "format"),
])
def test_a_second_header_line_is_a_parse_error(header, second, key):
    lines = ["format: 1", "kind: covering", "universe: a b",
             "block: a k=1", "block: b k=1"]
    lines.insert(lines.index(header) + 2, second)
    with pytest.raises(ParseError) as info:
        parse_document("\n".join(lines))
    assert str(info.value) == f"line {info.value.line}: duplicate {key} line"
    assert lines[info.value.line - 1] == second
    assert _convert("\n".join(lines)) == (1, "")


@pytest.mark.parametrize("key, block", [
    # The last capacity would win: the block would take 2 elements, not 1.
    ("block", "a b k=1 k=2"),
    ("member", "K1 = k=2 a b k=2"),
])
def test_a_second_capacity_on_a_block_line_is_a_parse_error(key, block):
    text = f"format: 1\nkind: covering\nuniverse: a b\n{key}: {block}\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert str(info.value) == "line 4: duplicate capacity"
    assert _convert(text) == (1, "")


@pytest.mark.parametrize("capacity", [
    # int() reads these as 1, 10 and 1; a capacity is ASCII digits only.
    "k=+1", "k=1_0", "k=\u0661",
    "k=-1", "k=", "k=x", "k=1.0",
])
def test_a_capacity_other_than_ascii_digits_is_a_parse_error(capacity):
    text = f"format: 1\nkind: covering\nuniverse: a b\nblock: a b {capacity}\n"
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert str(info.value) == f"line 4: bad capacity {capacity!r}"
    assert _convert(text) == (1, "")


@pytest.mark.parametrize("kind, blocks", [
    ("covering", ["K1 = a b k=2", "b, c k=0", "c"]),
    ("partition", ["a b k=0", "P2 = c k=3"]),
    ("indexed_family", ["a b", "F2 = b c", "b c", "c k=1"]),
])
def test_member_lines_read_as_block_lines(kind, blocks):
    def document(key):
        return "\n".join(["format: 1", f"kind: {kind}", "universe: a b c"]
                         + [f"{key}: {b}" for b in blocks]) + "\n"
    assert parse_document(document("member")) == parse_document(document("block"))


def test_a_block_name_ending_in_k_is_not_a_capacity():
    # Labels hold no "=", so ``Blk=`` is a name even though it ends in ``k=``.
    text = ("format: 1\nkind: covering\nuniverse: a b c\n"
            "block: Blk= a b k=2\nblock: Blk = b c\nblock: K1= a c k=2\n"
            "block: k=2 c\n")
    c = parse_document(text).covering()
    assert [b.labels() for b in c.blocks] == [("a", "b"), ("b", "c"),
                                              ("a", "c"), ("c",)]
    assert c.capacities == (2, 1, 2, 2)


@given(st.lists(st.text("ak=1", min_size=1, max_size=3), min_size=1,
                max_size=4, unique=True), st.data())
def test_convert_of_a_family_parses_back(labels, data):
    members = data.draw(st.lists(st.lists(st.sampled_from(labels), max_size=3),
                                 min_size=1, max_size=4))
    text = "\n".join(["format: 1", "kind: indexed_family",
                      "universe: " + " ".join(labels)]
                     + ["block: " + " ".join(m) for m in members])
    try:
        doc = parse_document(text)
    except ParseError:
        return
    code, out = _convert(text)
    assert code == 0
    assert parse_document(out).covering() == transversal_as_covering(doc.family())


def test_a_document_gives_only_the_presentation_of_its_kind():
    doc = parse_document("format: 1\nkind: covering\nuniverse: a b\nblock: a b\n")
    with pytest.raises(ValidationError, match="'covering' does not describe a partition"):
        doc.partition()
    with pytest.raises(ValidationError,
                       match="'covering' does not describe an indexed family"):
        doc.family()


@pytest.mark.parametrize("text, message", [
    ("format: 1\nkind: covering\nuniverse: ,\nblock: a\n",
     "line 3: universe must list at least one element"),
    ("format: 1\nuniverse: a\nblock: a\n", "missing 'kind' line"),
    ("format: 1\nkind: covering\nblock: a\n", "missing 'universe' line"),
])
def test_a_header_without_a_kind_or_elements_is_a_parse_error(text, message):
    with pytest.raises(ParseError) as caught:
        parse_document(text)
    assert str(caught.value) == message


# The golden corpus of the read path: one malformed document for each error
# that ``parse_file`` and ``parse_document`` raise, as the bytes of a file.
# Each spells its lines with some of CRLF, a lone CR, a byte-order mark, "#"
# comments, blank lines, ``NAME =`` blocks and ``member:`` lines, so a line
# number is counted as a reader of the file counts it.  An entry holds the
# line the error names (None: the document as a whole) and its message.  An
# empty or repeated block is named at its own line; a union short of the
# universe and overlapping partition blocks belong to no one line.
_HEAD = "format: 1\nkind: covering\nuniverse: a b c\n"
_CORPUS = [
    ("no-colon", b"format: 1\r\nkind: covering\r\n\r\nthis line is wrong\r\n",
     4, "expected 'key: value', got 'this line is wrong'"),
    ("duplicate-format", b"format: 1\r# again\rformat: 1\r",
     3, "duplicate format line"),
    ("format-version", b"\xef\xbb\xbfformat: 2\n", 1, "unsupported format version '2'"),
    ("duplicate-kind", b"# kind twice\nformat: 1\nkind: covering\n\nkind: partition\n",
     5, "duplicate kind line"),
    ("unknown-kind", b"format: 1\r\nkind: graph   # comment\r\n",
     2, "kind must be one of covering, partition, indexed_family; got 'graph'"),
    ("duplicate-universe", (_HEAD + "universe: a b c\n").encode(),
     4, "duplicate universe line"),
    ("empty-universe", b"format: 1\nkind: covering\nuniverse: , ,  # none\n",
     3, "universe must list at least one element"),
    ("repeated-label", b"format: 1\rkind: covering\runiverse: a b a\r",
     3, "ground set labels must be distinct"),
    # The repeated label is reported before the '='.
    ("repeated-label-with-equals", b"format: 1\nkind: covering\nuniverse: p=q p=q\n",
     3, "ground set labels must be distinct"),
    ("label-with-equals", "format: 1\nkind: covering\nuniverse: ä p=q\n".encode(),
     3, "element label 'p=q' contains '='"),
    ("duplicate-capacity", (_HEAD + "block: K1 = a b k=1\r\nmember: c k=1 k=2\r\n").encode(),
     5, "duplicate capacity"),
    ("bad-capacity", (_HEAD + "\n# capacities\nmember: K2= a k=x\n").encode(),
     6, "bad capacity 'k=x'"),
    ("unknown-key", (_HEAD + "blocks: a b c\n").encode(), 4, "unknown key 'blocks'"),
    ("bare-colon", b"format: 1\n  :  \n", 2, "unknown key ''"),
    # A byte-order mark is dropped only at the start of the file.
    ("inner-byte-order-mark", "format: 1\n\ufeffkind: covering\n".encode(),
     2, "unknown key '\\ufeffkind'"),
    ("missing-format", b"kind: covering\r\nuniverse: a\r\nblock: a\r\n",
     None, "missing 'format: 1' header"),
    ("missing-kind", b"format: 1\nuniverse: a\nblock: a\n", None, "missing 'kind' line"),
    ("missing-universe", b"format: 1\rkind: partition\rblock: a\r",
     None, "missing 'universe' line"),
    ("no-blocks", (_HEAD + "# no blocks\n\n").encode(), None, "document lists no blocks"),
    ("unknown-element", (_HEAD + "block: a b\r\nmember: K2 = b, z k=2\r\n").encode(),
     5, "unknown element 'z'"),
    ("empty-block", (_HEAD + "block: a b c\n\nblock: K2 = k=2\n").encode(),
     6, "covering blocks must be nonempty"),
    ("repeated-block", (_HEAD + "block: a b\rmember: b c\r# again\rblock: K3 = b a\r").encode(),
     7, "duplicate covering blocks are not allowed"),
    ("repeated-partition-block",
     b"format: 1\nkind: partition\nuniverse: a b\nblock: a\nblock: a\nblock: b\n",
     5, "duplicate covering blocks are not allowed"),
    ("union-short-of-universe", (_HEAD + "block: a b\n").encode(),
     None, "covering blocks must union to the universe"),
    ("overlapping-partition",
     b"format: 1\nkind: partition\nuniverse: a b c\nblock: a b\nblock: b c\n",
     None, "partition blocks must be pairwise disjoint"),
    ("not-utf-8", b"format: 1\nkind: covering\nuniverse: \xff\n",
     None, "input is not valid UTF-8"),
]


def _write(tmp_path, data):
    path = tmp_path / "doc.txt"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("data, line, message",
                         [case[1:] for case in _CORPUS],
                         ids=[case[0] for case in _CORPUS])
def test_golden_corpus_error_and_line(tmp_path, capsys, data, line, message):
    path = _write(tmp_path, data)
    with pytest.raises(ParseError) as info:
        parse_file(path)
    assert info.value.line == line
    where = "" if line is None else f"line {line}: "
    assert str(info.value) == where + message
    assert main(["independents", path], out=io.StringIO()) == 1
    assert capsys.readouterr().err == f"error: {where}{message}\n"


# Well-formed spellings of one covering, each of which must parse to it.
_PLAIN = "format: 1\nkind: covering\nuniverse: a b c\nblock: a b k=1\nblock: b c k=2\n"
_SPELLINGS = {
    "crlf": _PLAIN.replace("\n", "\r\n").encode(),
    "lone-cr": _PLAIN.replace("\n", "\r").encode(),
    "byte-order-mark": b"\xef\xbb\xbf" + _PLAIN.encode(),
    "comments-and-blank-lines":
        b"# a covering\n\nformat: 1   # version\nkind: covering\n\n\n"
        b"universe: a, b, c\n  # blocks\nblock: a b\nblock: b c k=2 # two\n",
    "named-blocks": b"format: 1\nkind: covering\nuniverse: a b c\n"
                    b"block: K1 = a b k=1\nblock: K2= c b k=2\n",
    "member-lines": b"format: 1\nkind: covering\nuniverse: a b c\n"
                    b"member: a b\nmember: b c k=2\n",
    "all-of-them": b"\xef\xbb\xbf# a covering\r\nformat: 1\r\rkind: covering\n"
                   b"universe: a b c\r\nmember: K1 = b, a  # first\rblock: c b k=2\n",
}


@pytest.mark.parametrize("data", list(_SPELLINGS.values()), ids=list(_SPELLINGS))
def test_golden_corpus_spellings_parse_alike(tmp_path, data):
    assert parse_file(_write(tmp_path, data)) == parse_document(_PLAIN)
