"""Parsing of the versioned, line-oriented input document format.

A document looks like::

    format: 1
    kind: covering
    universe: a b c
    block: K1 = a b k=1
    block: K2 = b c k=1

``kind`` is one of ``covering``, ``partition`` or ``indexed_family``.
``member:`` is another spelling of ``block:`` in every kind.  Block names
(``NAME =``) and capacities (``k=N``, N one or more ASCII digits 0-9,
default 1, at most one per line) are optional; an element label may not
contain ``=``.  Blank lines and ``#`` comments are ignored.
"""

from __future__ import annotations

from .core import GroundSet, Record, ValidationError
from .constructions import CapacitatedCovering, IndexedFamily, PartitionWitness

KINDS = ("covering", "partition", "indexed_family")


class ParseError(ValueError):
    """Malformed input document; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class InputDocument(Record):
    """A parsed document: its kind, universe and the presentation it
    describes, built and validated once by :func:`parse_document`."""

    kind: str
    ground: GroundSet
    presentation: CapacitatedCovering | PartitionWitness | IndexedFamily
    _fields = ("kind", "ground", "presentation")

    def __init__(self, kind: str, ground: GroundSet,
                 presentation: CapacitatedCovering | PartitionWitness | IndexedFamily):
        super().__init__(kind, ground, presentation)

    def covering(self) -> CapacitatedCovering:
        if self.kind == "covering":
            return self.presentation
        if self.kind == "partition":
            return self.presentation.covering
        raise ValidationError(
            f"document kind {self.kind!r} does not describe a covering"
        )

    def partition(self) -> PartitionWitness:
        if self.kind != "partition":
            raise ValidationError(
                f"document kind {self.kind!r} does not describe a partition"
            )
        return self.presentation

    def family(self) -> IndexedFamily:
        if self.kind != "indexed_family":
            raise ValidationError(
                f"document kind {self.kind!r} does not describe an indexed family"
            )
        return self.presentation


def parse_document(text: str) -> InputDocument:
    fmt: str | None = None
    kind: str | None = None
    ground: GroundSet | None = None
    raw_blocks: list[tuple[int, list[str], int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, colon, value = line.partition(":")
        if not colon:
            raise ParseError(f"expected 'key: value', got {line!r}", lineno)
        key = key.strip()
        value = value.strip()
        if key == "block" or key == "member":
            # Labels hold no '=', so the first '=' ends a block name, ``NAME =``,
            # unless it is the one of a ``k=N`` capacity.
            eq = value.find("=")
            if eq >= 0 and value[:eq + 1].replace(",", " ").split()[-1] != "k=":
                value = value[eq + 1:]
            elems = value.replace(",", " ").split()
            k: int | None = None
            if "k=" in value:
                tokens, elems = elems, []
                for tok in tokens:
                    if tok.startswith("k="):
                        if k is not None:
                            raise ParseError("duplicate capacity", lineno)
                        # int() would also read "+1", "1_0" and non-ASCII digits.
                        digits = tok[2:]
                        if not (digits.isascii() and digits.isdigit()):
                            raise ParseError(f"bad capacity {tok!r}", lineno)
                        k = int(digits)
                    else:
                        elems.append(tok)
            raw_blocks.append((lineno, elems, 1 if k is None else k))
        elif key == "format":
            if fmt is not None:
                raise ParseError("duplicate format line", lineno)
            if value != "1":
                raise ParseError(f"unsupported format version {value!r}", lineno)
            fmt = value
        elif key == "kind":
            if kind is not None:
                raise ParseError("duplicate kind line", lineno)
            if value not in KINDS:
                raise ParseError(
                    f"kind must be one of {', '.join(KINDS)}; got {value!r}", lineno
                )
            kind = value
        elif key == "universe":
            if ground is not None:
                raise ParseError("duplicate universe line", lineno)
            labels = value.replace(",", " ").split()
            if not labels:
                raise ParseError("universe must list at least one element", lineno)
            try:
                ground = GroundSet(labels)
            except ValidationError as exc:
                raise ParseError(str(exc), lineno) from None
            if "=" in value:
                lab = next(lab for lab in labels if "=" in lab)
                raise ParseError(f"element label {lab!r} contains '='", lineno)
        else:
            raise ParseError(f"unknown key {key!r}", lineno)

    if fmt is None:
        raise ParseError("missing 'format: 1' header")
    if kind is None:
        raise ParseError("missing 'kind' line")
    if ground is None:
        raise ParseError("missing 'universe' line")
    if not raw_blocks:
        raise ParseError("document lists no blocks")

    masks = []
    for lineno, elems, _ in raw_blocks:
        try:
            masks.append(ground.subset(elems))
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from None

    if kind == "indexed_family":
        return InputDocument(kind, ground, IndexedFamily(ground, masks))
    # surface covering/partition structural problems as parse-stage errors,
    # an empty or repeated block's at its line
    try:
        presentation = CapacitatedCovering(ground, masks, [k for _, _, k in raw_blocks])
        if kind == "partition":
            presentation = PartitionWitness(presentation)
    except ValidationError as exc:
        line = None if exc.block is None else raw_blocks[exc.block][0]
        raise ParseError(str(exc), line) from None
    return InputDocument(kind, ground, presentation)


def parse_file(path: str) -> InputDocument:
    with open(path, "rb") as fh:
        data = fh.read()
    # utf-8-sig drops a byte-order mark, which some editors write first;
    # splitlines then reads CRLF and a lone CR as text mode would.
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise ParseError("input is not valid UTF-8") from None
    return parse_document(text)


def _render(kind: str, ground: GroundSet, blocks: list[str]) -> str:
    """The document of ``kind`` over ``ground`` with one block line each."""
    lines = ["format: 1", f"kind: {kind}", "universe: " + " ".join(ground.labels)]
    lines += ["block: " + b for b in blocks]
    return "\n".join(lines) + "\n"


def render_covering_document(c: CapacitatedCovering) -> str:
    return _render("covering", c.ground, [" ".join(b.labels()) + f" k={k}"
                                          for b, k in zip(c.blocks, c.capacities)])


def render_family_document(f: IndexedFamily) -> str:
    return _render("indexed_family", f.ground, [" ".join(m.labels()) for m in f.members])
