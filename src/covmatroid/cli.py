"""Command-line interface.

Exit codes: 0 success, 1 parse/validation error, 2 size-limit or usage
error, 3 precondition failure, 4 verification mismatch (with --verify).
A reader that closes stdout early (``| head``) is no error: the command
stops, prints nothing more and exits 0.
All output is deterministic: sets print in label order, families in
canonical order, and nothing time- or platform-dependent is emitted.

``independents``, ``circuits`` and ``bases`` share one command,
:func:`cmd_family`, which differs between them only in the family it uses.

The brute-force ``oracle`` module is imported only on ``--verify`` paths and
``rough`` only by ``approx`` and ``neighborhood``, so the other commands
start without loading them.  ``COMMANDS`` and ``_OPTIONS`` declare each
command and option once.  :func:`main` reads a plain argv (the command, one
input, and the command's options spelled in full, each value its own token)
straight from them.  argparse, through :func:`build_parser`, is loaded
only for ``--help``, usage errors (exit 2) and the other spellings it
accepts, such as ``--set=a``.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .core import (
    SetFamily,
    SizeLimitError,
    SubsetMask,
    ValidationError,
    _canonical_sort_key,
    format_set,
    write_family,
)
from .classify import classify as run_classify
from .constructions import (
    CapacitatedCovering,
    covering_as_transversal,
    covering_matroid,
    naive_covering_family,
    partition_matroid,
    transversal_as_covering,
    transversal_matroid,
)
from .io import (
    InputDocument,
    ParseError,
    parse_file,
    render_covering_document,
    render_family_document,
)
from .matroid import Matroid, check_independence_axioms

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SIZE = 2
EXIT_PRECONDITION = 3
EXIT_VERIFY = 4


class PreconditionError(RuntimeError):
    """A command was run on input that fails its preconditions."""


class VerifyMismatch(RuntimeError):
    """The oracle cross-check found a discrepancy."""


def _parse_set(doc: InputDocument, spec: str) -> SubsetMask:
    labels = [tok for tok in spec.replace(",", " ").split() if tok]
    return doc.ground.subset(labels)


def _document_matroid(doc: InputDocument) -> Matroid:
    if doc.kind == "covering":
        return covering_matroid(doc.covering())
    if doc.kind == "partition":
        return partition_matroid(doc.partition())
    return transversal_matroid(doc.family())


def _document_family(doc: InputDocument) -> SetFamily:
    """The explicit independent family to feed the axiom checker."""
    if doc.kind in ("covering", "partition"):
        return naive_covering_family(doc.covering())
    return transversal_matroid(doc.family()).independent_family()


def _verify_independents(doc: InputDocument, fam: SetFamily) -> frozenset[int]:
    """Diff ``fam`` against the brute-force union family, built once, and
    return that family; a mismatch names the differing subset that comes
    first in canonical order, the order families print in."""
    from . import oracle

    if doc.kind in ("covering", "partition"):
        bf = oracle.bf_covering_family(doc.covering())
        mismatch = "independence mismatch at X="
    else:
        bf = oracle.bf_transversal_family(doc.family())
        mismatch = "transversal mismatch at T="
    diff = bf ^ fam.bitset()
    if diff:
        first = min(diff, key=_canonical_sort_key(doc.ground.n))
        raise VerifyMismatch(mismatch + format_set(doc.ground.mask(first)))
    return bf


def cmd_axioms(doc: InputDocument, args, out) -> None:
    cert = check_independence_axioms(_document_family(doc))
    print(str(cert), file=out)


# With --verify, each command below runs its cross-check before printing
# anything, so a size-limit or mismatch exit leaves stdout empty.


def cmd_family(doc: InputDocument, args, out) -> None:
    """Print the family ``args.command`` names.  With --verify, first diff
    the independent family against the union family and, for circuits and
    bases, the printed family against the oracle's, derived from it."""
    kind = args.command
    m = _document_matroid(doc)
    fam = getattr(m, "independent_family" if kind == "independents" else kind)()
    if args.verify:
        indep = _verify_independents(doc, m.independent_family())
        if kind != "independents":
            from . import oracle

            if getattr(oracle, "bf_" + kind)(indep, doc.ground.n) != fam.bitset():
                raise VerifyMismatch(f"{kind} mismatch against brute-force {kind}")
    write_family(fam, out)
    if args.verify:
        print(f"verify: OK ({1 << doc.ground.n} subsets)", file=out)


def cmd_rank(doc: InputDocument, args, out) -> None:
    m = _document_matroid(doc)
    x = _parse_set(doc, args.set)
    r = m.rank(x)
    if args.verify:
        from . import oracle

        if oracle.bf_rank(m, x) != r:
            raise VerifyMismatch(f"rank mismatch at X={format_set(x)}")
    print(f"rank({format_set(x)}) = {r}", file=out)
    if args.verify:
        print("verify: OK", file=out)


def cmd_closure(doc: InputDocument, args, out) -> None:
    m = _document_matroid(doc)
    x = _parse_set(doc, args.set)
    cl = m.closure(x)
    if args.verify:
        from . import oracle

        r = oracle.bf_rank(m, x)
        bf_cl = 0
        for i in range(doc.ground.n):
            if oracle.bf_rank(m, doc.ground.mask(x.bits | (1 << i))) == r:
                bf_cl |= 1 << i
        if bf_cl != cl.bits:
            raise VerifyMismatch(f"closure mismatch at X={format_set(x)}")
    print(f"closure({format_set(x)}) = {format_set(cl)}", file=out)
    if args.verify:
        print("verify: OK", file=out)


def cmd_dual(doc: InputDocument, args, out) -> None:
    m = _document_matroid(doc)
    bases = m.dual().bases()
    if args.verify:
        from . import oracle

        bf = oracle.bf_dual_family(m).bitset()
        if oracle.bf_bases(bf, doc.ground.n) != bases.bitset():
            raise VerifyMismatch("dual bases mismatch against base-complement family")
    write_family(bases, out)
    if args.verify:
        print("verify: OK", file=out)


def _matroidal_space(cov: CapacitatedCovering, via_covering: bool = False):
    """``cov`` as a :class:`~covmatroid.rough.MatroidalSpace`; a capacity
    below 1 fails a precondition of the matroidal forms and is no input
    error."""
    from .rough import MatroidalSpace

    try:
        return MatroidalSpace(cov, via_covering)
    except ValidationError as exc:
        raise PreconditionError(str(exc)) from None


# Both commands below check the element or set first, then build the
# matroidal space, whose own approximation space the direct operators read,
# before they print: an unknown label exits 1 and a zero capacity exits 3,
# each with empty stdout.


def cmd_neighborhood(doc: InputDocument, args, out) -> None:
    from .rough import ApproximationSpace, matroidal_neighborhood, neighborhood

    cov = doc.covering()
    doc.ground.index(args.element)
    ms = _matroidal_space(cov) if args.matroidal else None
    space = (ApproximationSpace(doc.ground, cov.block_family()) if ms is None
             else ms.space())
    n = neighborhood(space, args.element)
    print(f"N({args.element}) = {format_set(n)}", file=out)
    if ms is not None:
        mn = matroidal_neighborhood(ms, args.element)
        verdict = "AGREE" if mn.bits == n.bits else "DISAGREE"
        print(f"matroidal N({args.element}) = {format_set(mn)} {verdict}", file=out)
        if verdict == "DISAGREE":
            raise VerifyMismatch(f"matroidal neighborhood mismatch at x={args.element}")


def cmd_approx(doc: InputDocument, args, out) -> None:
    from .rough import (
        ApproximationSpace,
        approximation_findings,
        lower_approx,
        upper_approx,
    )

    cov = doc.covering()
    x = _parse_set(doc, args.set)
    ms = _matroidal_space(cov, args.verify) if args.matroidal else None
    space = (ApproximationSpace(doc.ground, cov.block_family()) if ms is None
             else ms.space())
    sl = lower_approx(space, x)
    sh = upper_approx(space, x)
    if ms is None:
        print(f"SL={format_set(sl)} SH={format_set(sh)}", file=out)
        return
    findings = approximation_findings(ms, x)
    verdict = "AGREE" if not findings else "DISAGREE"
    print(f"N/A for sets; SL={format_set(sl)} SH={format_set(sh)} {verdict}", file=out)
    for finding in findings:
        print(f"finding: {finding}", file=out)
    if findings:
        raise VerifyMismatch("matroidal approximation operators disagree; see findings")


def cmd_classify(doc: InputDocument, args, out) -> None:
    report = run_classify(_document_matroid(doc))
    print("matroid: true", file=out)
    print(f"2-circuit: {str(report.is_2_circuit).lower()}", file=out)
    pc = str(report.is_partition_circuit).lower()
    if report.partition_circuit_witness is not None:
        blocks = " ".join(
            format_set(b) for b in report.partition_circuit_witness.blocks
        )
        pc += f" (witness: {blocks})"
    print(f"partition-circuit: {pc}", file=out)
    print(f"double-circuit: {str(report.is_double_circuit).lower()}", file=out)
    print(
        f"identically-self-dual: {str(report.is_identically_self_dual).lower()}",
        file=out,
    )
    print(
        "circuit sizes: [" + ", ".join(map(str, report.circuit_size_multiset)) + "]",
        file=out,
    )


def cmd_convert(doc: InputDocument, args, out) -> None:
    if doc.kind == "indexed_family":
        cov = transversal_as_covering(doc.family())
        out.write(render_covering_document(cov))
    else:
        fam = covering_as_transversal(doc.covering())
        if fam is None:
            raise PreconditionError(
                "inapplicable: the covering ↔ transversal conversion requires "
                "all capacities equal to 1"
            )
        out.write(render_family_document(fam))


# Each option once: its help text and whether it takes a value.  An option
# that takes a value is required by every command that takes it; the others
# are flags.  Help lists a command's options in this order.
_OPTIONS = {
    "--set": ("comma-separated element labels; \"\" for ∅", True),
    "--element": ("element label", True),
    "--matroidal": ("also evaluate the matroidal forms and report "
                    "AGREE/DISAGREE", False),
    "--verify": ("cross-check against the brute-force oracles", False),
}

# Each command once: its handler, its help text and the options it takes
# besides --verify, which every command takes.
COMMANDS = {
    "axioms": (cmd_axioms, "check the independence axioms on the naive family", ()),
    "independents": (cmd_family,
                     "list the independent sets of the induced matroid", ()),
    "circuits": (cmd_family, "list the circuits of the induced matroid", ()),
    "bases": (cmd_family, "list the bases of the induced matroid", ()),
    "rank": (cmd_rank, "rank of a subset", ("--set",)),
    "closure": (cmd_closure, "closure of a subset", ("--set",)),
    "dual": (cmd_dual, "list the bases of the dual matroid", ()),
    "approx": (cmd_approx, "lower/upper approximations of a subset",
               ("--set", "--matroidal")),
    "neighborhood": (cmd_neighborhood, "neighborhood of an element",
                     ("--element", "--matroidal")),
    "classify": (cmd_classify, "run all taxonomy predicates", ()),
    "convert": (cmd_convert,
                "convert between covering and transversal presentations", ()),
}


def _read_plain(argv: Sequence[str]) -> dict | None:
    """What ``vars(build_parser().parse_args(argv))`` is for a plain argv,
    or None for any other argv.

    A plain argv is a command, one input and the command's options, spelled
    in full, in any order; a value is the next token.  Neither the input nor
    a value may start with ``-``.  Anything else (help, ``--set=a``, an
    abbreviation, ``--``, a missing or unknown token) is left to argparse.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    takes = COMMANDS[argv[0]][2] + ("--verify",)
    args = {"command": argv[0], "input": None}
    for opt in takes:
        args[opt[2:]] = None if _OPTIONS[opt][1] else False
    tokens = iter(argv[1:])
    for tok in tokens:
        if not tok.startswith("-"):
            if args["input"] is not None:
                return None
            args["input"] = tok
        elif tok not in takes:
            return None
        elif _OPTIONS[tok][1]:
            value = next(tokens, "-")  # no value left: not plain
            if value.startswith("-"):
                return None
            args[tok[2:]] = value
        else:
            args[tok[2:]] = True
    return None if None in args.values() else args


def build_parser():
    """The argparse parser for the argvs :func:`_read_plain` leaves, built
    from the same tables; the only place argparse is imported."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="covmatroid",
        description="Covering-matroid constructions, rough approximations and "
        "classification over small finite universes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, takes) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="input document (format: 1)")
        for opt, (text, takes_value) in _OPTIONS.items():
            if opt in takes or opt == "--verify":
                if takes_value:
                    p.add_argument(opt, required=True, help=text)
                else:
                    p.add_argument(opt, action="store_true", help=text)
    return parser


def main(argv: Sequence[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    plain = _read_plain(argv)
    args = (build_parser().parse_args(argv) if plain is None
            else SimpleNamespace(**plain))
    try:
        doc = parse_file(args.input)
        COMMANDS[args.command][0](doc, args, out)
        out.flush()  # a closed reader shows here, not at shutdown
    except BrokenPipeError:
        if out is sys.stdout:
            # The failed flush left the output buffered; point fd 1 at
            # devnull, so the flush at shutdown stays silent.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_OK
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except VerifyMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
