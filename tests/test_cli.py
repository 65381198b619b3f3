"""End-to-end CLI tests: every command, every exit code, and byte-identical
determinism across repeated runs."""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import covmatroid
from covmatroid import Matroid, SetFamily
from covmatroid.cli import COMMANDS, _read_plain, build_parser, main
from covmatroid.io import render_covering_document

from conftest import chain_covering

FIX = os.path.join(os.path.dirname(__file__), "fixtures")
SRC = str(Path(covmatroid.__file__).parent.parent)


def fx(name):
    return os.path.join(FIX, name)


def run(*argv):
    """Exit code and stdout of a plain argv, which never reaches argparse."""
    assert _read_plain(argv) is not None, argv
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCommands:
    def test_axioms_partition(self):
        code, text = run("axioms", fx("pairs.txt"))
        assert code == 0
        assert text == "matroid\n"

    def test_axioms_counterexample(self):
        code, text = run("axioms", fx("example1.txt"))
        assert code == 0
        assert text == "violates I3: I1={b}, I2={a,c}\n"

    def test_independents(self):
        code, text = run("independents", fx("example1.txt"))
        assert code == 0
        assert text.splitlines() == [
            "∅", "{a}", "{b}", "{c}", "{a,b}", "{a,c}", "{b,c}",
        ]

    def test_circuits(self):
        code, text = run("circuits", fx("example1.txt"))
        assert code == 0
        assert text == "{a,b,c}\n"

    def test_bases(self):
        code, text = run("bases", fx("example1.txt"))
        assert code == 0
        assert text.splitlines() == ["{a,b}", "{a,c}", "{b,c}"]

    @pytest.mark.parametrize("command, method", [
        ("independents", "independent_family"), ("circuits", "circuits"),
        ("bases", "bases"), ("dual", "bases")])
    def test_families_print_from_their_masks(self, monkeypatch, command, method):
        # The printed family stays unboxed, with no SubsetMask per member,
        # and without --verify its frozenset of masks is never built.
        families = []
        honest = getattr(Matroid, method)

        def recording(self):
            families.append(honest(self))
            return families[-1]

        monkeypatch.setattr(Matroid, method, recording)
        code, text = run(command, fx("greek10.txt"))
        assert code == 0 and len(text.splitlines()) == len(families[-1])
        assert all(fam._members is None for fam in families)
        assert all(fam._bitset is None for fam in families)

    def test_rank(self):
        code, text = run("rank", fx("example1.txt"), "--set", "a,b,c")
        assert code == 0
        assert text == "rank({a,b,c}) = 2\n"

    def test_rank_empty_set(self):
        code, text = run("rank", fx("example1.txt"), "--set", "")
        assert code == 0
        assert text == "rank(∅) = 0\n"

    def test_closure(self):
        code, text = run("closure", fx("example1.txt"), "--set", "a,b")
        assert code == 0
        assert text == "closure({a,b}) = {a,b,c}\n"

    def test_dual(self):
        code, text = run("dual", fx("example1.txt"))
        assert code == 0
        assert text.splitlines() == ["{a}", "{b}", "{c}"]

    def test_approx_direct(self):
        code, text = run("approx", fx("example1.txt"), "--set", "a,b")
        assert code == 0
        assert text == "SL={a,b} SH={a,b,c}\n"

    def test_neighborhood(self):
        code, text = run("neighborhood", fx("example1.txt"), "--element", "b")
        assert code == 0
        assert text == "N(b) = {b}\n"

    def test_neighborhood_matroidal_agree(self):
        code, text = run(
            "neighborhood", fx("partition_abc.txt"), "--element", "a",
            "--matroidal",
        )
        assert code == 0
        assert text.splitlines() == [
            "N(a) = {a,b,c}",
            "matroidal N(a) = {a,b,c} AGREE",
        ]

    def test_approx_matroidal_agree(self):
        code, text = run(
            "approx", fx("free_abc.txt"), "--set", "a,b", "--matroidal"
        )
        assert code == 0
        assert "AGREE" in text and "finding" not in text

    def test_approx_matroidal_disagree_reports_findings(self):
        code, text = run(
            "approx", fx("example1.txt"), "--set", "a", "--matroidal"
        )
        assert code == 4
        lines = text.splitlines()
        assert lines[0].endswith("DISAGREE")
        assert any(line.startswith("finding: lower mismatch") for line in lines[1:])

    def test_approx_matroidal_verify_disagree_prints_what_plain_prints(self):
        # --verify builds each slice as a zeroed covering matroid; the
        # findings, and so the bytes, stay those of the k-rank slices.
        argv = ("approx", fx("example1.txt"), "--set", "a", "--matroidal")
        code, text = run(*argv, "--verify")
        assert code == 4
        assert (code, text) == run(*argv)
        assert text == (
            "N/A for sets; SL=∅ SH={a,b} DISAGREE\n"
            "finding: lower mismatch at X={a}: direct=∅ matroidal={a,b}\n"
        )

    def test_approx_matroidal_verify_agree(self):
        code, text = run(
            "approx", fx("free_abc.txt"), "--set", "a,b", "--matroidal",
            "--verify",
        )
        assert code == 0
        assert text == "N/A for sets; SL=∅ SH={a,b,c} AGREE\n"

    def test_approx_matroidal_verify_builds_one_space(self, monkeypatch):
        # One covering slice per block and no k-rank slice before them, and
        # one approximation space, which the direct operators read too.
        from covmatroid import rough

        built = []
        honest = rough.covering_matroid_slice

        def counting(c, i):
            built.append(i)
            return honest(c, i)

        def refused(*args):
            raise AssertionError("a k-rank slice was built")

        spaces = []
        space_init = rough.ApproximationSpace.__init__

        def counting_space(self, *args):
            spaces.append(args)
            space_init(self, *args)

        monkeypatch.setattr(rough, "covering_matroid_slice", counting)
        monkeypatch.setattr(rough, "k_rank_matroid", refused)
        monkeypatch.setattr(rough.ApproximationSpace, "__init__", counting_space)
        code, text = run("approx", fx("example1.txt"), "--set", "a",
                         "--matroidal", "--verify")
        assert code == 4
        assert text == (
            "N/A for sets; SL=∅ SH={a,b} DISAGREE\n"
            "finding: lower mismatch at X={a}: direct=∅ matroidal={a,b}\n"
        )
        assert built == [0, 1]
        assert len(spaces) == 1

    def test_classify_pairs(self):
        code, text = run("classify", fx("pairs.txt"))
        assert code == 0
        assert text.splitlines() == [
            "matroid: true",
            "2-circuit: true",
            "partition-circuit: true (witness: {a,b} {c,d})",
            "double-circuit: true",
            "identically-self-dual: true",
            "circuit sizes: [2, 2]",
        ]

    def test_classify_example1(self):
        code, text = run("classify", fx("example1.txt"))
        assert code == 0
        assert "matroid: true" in text
        assert "2-circuit: false" in text
        assert "double-circuit: false" in text

    def test_convert_family_to_covering(self):
        code, text = run("convert", fx("family3.txt"))
        assert code == 0
        assert text.splitlines() == [
            "format: 1",
            "kind: covering",
            "universe: a b c d e f",
            "block: a b c k=1",
            "block: a d e k=1",
            "block: b e f k=1",
        ]

    def test_convert_covering_to_family(self):
        code, text = run("convert", fx("pairs.txt"))
        assert code == 0
        assert text.splitlines() == [
            "format: 1",
            "kind: indexed_family",
            "universe: a b c d",
            "block: a b",
            "block: c d",
        ]

    def test_verify_modes_pass(self):
        for argv in (
            ["independents", fx("example1.txt"), "--verify"],
            ["circuits", fx("example1.txt"), "--verify"],
            ["bases", fx("family3.txt"), "--verify"],
            ["rank", fx("example1.txt"), "--set", "a,b", "--verify"],
            ["closure", fx("pairs.txt"), "--set", "a", "--verify"],
            ["dual", fx("example1.txt"), "--verify"],
        ):
            code, text = run(*argv)
            assert code == 0, argv
            assert "verify: OK" in text, argv


class TestExitCodes:
    def test_parse_error_is_1(self):
        code, _ = run("axioms", fx("bad_syntax.txt"))
        assert code == 1

    def test_missing_file_is_1(self):
        code, _ = run("axioms", fx("no_such_file.txt"))
        assert code == 1

    def test_size_limit_is_2(self):
        code, _ = run("independents", fx("big_universe.txt"))
        assert code == 2

    def test_precondition_is_3_for_convert(self):
        code, _ = run("convert", fx("partition_abc.txt"))
        assert code == 3

    def test_precondition_is_3_for_zero_capacity_matroidal(self):
        # Both matroidal commands fail before they print anything.
        assert run(
            "approx", fx("zero_cap.txt"), "--set", "a", "--matroidal"
        ) == (3, "")
        assert run(
            "neighborhood", fx("zero_cap.txt"), "--element", "a", "--matroidal"
        ) == (3, "")
        # An unknown label is an input error before the capacity is checked.
        assert run(
            "approx", fx("zero_cap.txt"), "--set", "zz", "--matroidal"
        ) == (1, "")
        assert run(
            "neighborhood", fx("zero_cap.txt"), "--element", "zz", "--matroidal"
        ) == (1, "")

    def test_closed_stdout_is_0_and_silent(self, capsys):
        class Closed(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        assert main(["independents", fx("example1.txt")], out=Closed()) == 0
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("name, lines", [("free16", 1), ("example1", 0)])
    def test_closed_stdout_pipe_is_0_and_silent(self, tmp_path, name, lines):
        # free16's 2^16 sets are far more than a pipe buffer holds, so the
        # command is still writing when the reader closes after one line.
        # example1's output is still in the command's buffer when the reader
        # closes, so the closed pipe shows only when it is flushed.
        doc = fx("example1.txt")
        if name == "free16":
            labels = " ".join(f"e{i}" for i in range(16))
            doc = tmp_path / "free16.txt"
            doc.write_text(f"format: 1\nkind: covering\nuniverse: {labels}\n"
                           f"block: {labels} k=16\n")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
        env.pop("PYTHONUNBUFFERED", None)  # stdout buffered, as by default
        with subprocess.Popen(
                [sys.executable, "-m", "covmatroid.cli", "independents", str(doc)],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            for _ in range(lines):
                assert proc.stdout.readline() == "∅\n".encode()
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            assert proc.stderr.read() == b""

    def test_verify_mismatch_is_4(self):
        code, _ = run("approx", fx("example1.txt"), "--set", "a", "--matroidal")
        assert code == 4

    @pytest.mark.parametrize("argv, error", [
        (["rank", fx("example1.txt"), "--set", "a,b", "--verify"],
         "rank mismatch at X={a,b}"),
        (["closure", fx("example1.txt"), "--set", "a", "--verify"],
         "closure mismatch at X={a}"),
        (["dual", fx("example1.txt"), "--verify"],
         "dual bases mismatch against base-complement family"),
    ])
    def test_verify_mismatch_exits_4_with_empty_stdout(
            self, monkeypatch, capsys, argv, error):
        # An oracle that gives every set rank 0 and finds no bases disagrees
        # with the rank of {a,b}, the closure of {a} and the dual bases.
        from covmatroid import oracle

        monkeypatch.setattr(oracle, "bf_rank", lambda m, x: 0)
        monkeypatch.setattr(oracle, "bf_bases", lambda indep, n: frozenset())
        capsys.readouterr()
        assert run(*argv) == (4, "")
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_neighborhood_matroidal_disagree_prints_then_exits_4(
            self, monkeypatch, capsys):
        from covmatroid import rough

        monkeypatch.setattr(rough, "matroidal_neighborhood",
                            lambda ms, x: ms.ground.full())
        capsys.readouterr()
        assert run("neighborhood", fx("example1.txt"), "--element", "b",
                   "--matroidal") == (4, "N(b) = {b}\nmatroidal N(b) = {a,b,c} DISAGREE\n")
        assert capsys.readouterr().err == (
            "error: matroidal neighborhood mismatch at x=b\n")

    @pytest.mark.parametrize("kind", ["covering", "indexed_family"])
    @pytest.mark.parametrize("command", ["rank", "closure"])
    def test_deep_augmenting_path_is_2_with_empty_stdout(
            self, tmp_path, capsys, kind, command):
        # An indexed family ignores the rendered capacities, all 1.
        chain = chain_covering()
        path = tmp_path / "chain.txt"
        path.write_text(render_covering_document(chain).replace(
            "kind: covering", f"kind: {kind}"))
        capsys.readouterr()
        assert run(command, str(path), "--set", ",".join(chain.ground.labels)) == (2, "")
        assert capsys.readouterr().err == (
            "error: an augmenting path is deeper than Python's recursion limit\n")

    @pytest.mark.parametrize("name", ["example1.txt", "family3.txt", "pairs.txt"])
    def test_byte_order_mark_is_skipped(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + Path(FIX, name).read_bytes())
        options = {"--set": ["--set", "a,b"], "--element": ["--element", "a"],
                   "--matroidal": ["--matroidal"]}
        for command, (_, _, takes) in COMMANDS.items():
            argv = [tok for opt in takes for tok in options[opt]]
            for extra in ((), ("--verify",)):
                assert (run(command, str(path), *argv, *extra)
                        == run(command, fx(name), *argv, *extra)), (command, extra)
        assert run("rank", str(path), "--set", "a")[0] == 0

    def test_non_utf8_input_is_1_with_empty_stdout(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(
            b"format: 1\nkind: covering\nuniverse: a b\nblock: a b # \xff\xfe\n"
        )
        assert run("rank", str(path), "--set", "a") == (1, "")

    def test_verify_size_limit_prints_nothing(self, tmp_path):
        # 13 elements exceed the brute-force union family's n ≤ 12, though
        # not the enumeration cap
        labels = [f"e{i:02d}" for i in range(13)]
        path = tmp_path / "thirteen.txt"
        path.write_text(
            f"format: 1\nkind: covering\nuniverse: {' '.join(labels)}\n"
            f"block: {' '.join(labels[:7])}\nblock: {' '.join(labels[6:])}\n"
        )
        assert run("independents", str(path))[0] == 0
        assert run("independents", str(path), "--verify") == (2, "")

    def test_verify_takes_any_number_of_blocks(self, tmp_path):
        path = tmp_path / "five_blocks.txt"
        path.write_text(
            "format: 1\nkind: covering\nuniverse: a b c d e f\n"
            + "".join(f"block: {p}\n" for p in ("a b", "b c", "c d", "d e", "e f"))
        )
        code, text = run("independents", str(path), "--verify")
        assert code == 0
        assert text == run("independents", str(path))[1] + "verify: OK (64 subsets)\n"

    def test_verify_indexed_family_past_eight_elements(self, tmp_path):
        path = tmp_path / "family10.txt"
        path.write_text(
            "format: 1\nkind: indexed_family\nuniverse: a b c d e f g h i j\n"
            "block: a b c d\nblock: c d e f g\nblock: g h i j\nblock: a j\n"
        )
        code, text = run("independents", str(path), "--verify")
        assert code == 0
        assert text == run("independents", str(path))[1] + "verify: OK (1024 subsets)\n"

    def test_rank_verify_size_limit_prints_nothing(self):
        labels = ",".join(f"e{i:02d}" for i in range(21))
        code, text = run(
            "rank", fx("big_universe.txt"), "--set", labels, "--verify"
        )
        assert (code, text) == (2, "")

    @pytest.mark.parametrize("method, argv", [
        ("circuits", ["circuits", fx("example1.txt"), "--verify"]),
        ("circuits", ["circuits", fx("family3.txt"), "--verify"]),
        ("bases", ["bases", fx("example1.txt"), "--verify"]),
        ("bases", ["bases", fx("family3.txt"), "--verify"]),
        ("independent_family", ["independents", fx("example1.txt"), "--verify"]),
        ("independent_family", ["independents", fx("family3.txt"), "--verify"]),
    ])
    def test_verify_checks_the_printed_list(self, monkeypatch, method, argv):
        honest = getattr(Matroid, method)

        def drop_first(self, *args, **kwargs):
            fam = honest(self, *args, **kwargs)
            return SetFamily(fam.ground, fam.members[1:])

        monkeypatch.setattr(Matroid, method, drop_first)
        assert run(*argv) == (4, "")

    @pytest.mark.parametrize("name, prefix", [
        ("example1.txt", "independence mismatch at X="),
        ("family3.txt", "transversal mismatch at T="),
    ])
    def test_verify_names_the_least_differing_subset(
            self, monkeypatch, capsys, name, prefix):
        # Plant the dependent universe and drop the independent {a,c} and
        # {c}: {c} comes first in an ascending scan of the subsets.
        honest = Matroid.independent_family

        def planted(self):
            fam = honest(self)
            members = [s for s in fam.members if s.bits not in (0b100, 0b101)]
            return SetFamily(fam.ground, members + [fam.ground.full()])

        monkeypatch.setattr(Matroid, "independent_family", planted)
        capsys.readouterr()
        assert run("independents", fx(name), "--verify") == (4, "")
        assert capsys.readouterr().err == f"error: {prefix}{{c}}\n"

    def test_verify_names_the_first_differing_subset_in_print_order(
            self, monkeypatch, capsys):
        # {b,c} is the smaller mask, but {a,d} prints first.
        honest = Matroid.independent_family

        def planted(self):
            fam = honest(self)
            dropped = (fam.ground.subset("ad"), fam.ground.subset("bc"))
            return SetFamily(fam.ground, [s for s in fam if s not in dropped])

        monkeypatch.setattr(Matroid, "independent_family", planted)
        capsys.readouterr()
        assert run("independents", fx("pairs.txt"), "--verify") == (4, "")
        assert capsys.readouterr().err == "error: independence mismatch at X={a,d}\n"


def parsed(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where argparse
    exits (help, usage error)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return vars(build_parser().parse_args(argv))
    except SystemExit:
        return None


_TOKENS = (*COMMANDS, "bogus", "--set", "--element", "--matroidal", "--verify",
           "--set=a", "--element=b", "--ver", "--se", "--mat", "-h", "--help",
           "--", "-", "", "-a", "a", "a,b", "doc.txt")


class TestArgv:
    """A plain argv is read straight from the command table; every other
    argv goes to argparse, which prints help and usage errors."""

    @settings(max_examples=500)
    @given(st.lists(st.sampled_from(_TOKENS), max_size=7))
    @example(["rank", "doc.txt", "--set", "-a"])
    @example(["rank", "doc.txt", "--set", "a", "--matroidal"])
    @example(["approx", "--set", "a", "doc.txt", "--matroidal", "--set", "b"])
    def test_plain_reader_agrees_with_argparse(self, argv):
        plain = _read_plain(argv)
        assert plain is None or plain == parsed(argv)

    @pytest.mark.parametrize("argv", [
        # the benchmark's command shapes: flags before the value option
        ["axioms", "doc.txt"], ["independents", "doc.txt", "--verify"],
        ["rank", "doc.txt", "--verify", "--set", "a,b"],
        ["approx", "doc.txt", "--matroidal", "--verify", "--set", "a"],
        ["neighborhood", "doc.txt", "--matroidal", "--element", "b"],
        # options before the input, and an empty value
        ["closure", "--set", "", "doc.txt"],
    ])
    def test_plain_argvs_skip_argparse(self, argv):
        plain = _read_plain(argv)
        assert plain is not None and plain == parsed(argv)

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert ("{axioms,independents,circuits,bases,rank,closure,dual,approx,"
                "neighborhood,classify,convert}") in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["rank", fx("example1.txt")],
        ["rank", fx("example1.txt"), "--set", "a", "--matroidal"],
    ])
    def test_usage_error_exits_2_with_empty_stdout(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("spelling, plain", [
        (["--set=a"], ["--set", "a"]),
        (["--ver", "--set", "a"], ["--verify", "--set", "a"])])
    def test_argparse_spellings_run_as_the_plain_one(self, spelling, plain):
        argv = ["rank", fx("example1.txt"), *spelling]
        assert _read_plain(argv) is None
        out = io.StringIO()
        code = main(argv, out=out)
        assert (code, out.getvalue()) == run("rank", fx("example1.txt"), *plain)


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["independents", fx("family3.txt")],
            ["circuits", fx("family3.txt")],
            ["bases", fx("family3.txt")],
            ["dual", fx("family3.txt")],
            ["classify", fx("family3.txt")],
            ["convert", fx("family3.txt")],
            ["approx", fx("example1.txt"), "--set", "a", "--matroidal"],
        ],
    )
    def test_byte_identical_across_runs(self, argv):
        first = run(*argv)
        second = run(*argv)
        assert first == second


GOLDEN_COMMANDS = ("independents", "circuits", "bases", "dual", "classify")
FIXTURE_NAMES = sorted(f for f in os.listdir(FIX) if f.endswith(".txt"))


def golden_transcript(name):
    """Each enumeration command, without and with --verify, on one fixture:
    a header line naming the command and its exit code, then its stdout."""
    parts = []
    for command in GOLDEN_COMMANDS:
        for extra in ((), ("--verify",)):
            code, text = run(command, fx(name), *extra)
            parts.append(f"== {' '.join((command, *extra))} (exit {code})\n{text}")
    return "".join(parts)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_outputs_match_the_committed_transcripts(name):
    """Byte-for-byte against ``fixtures/expected/<name>``, which holds the
    outputs of the commit before the walk read bases from its top level."""
    expected = Path(FIX, "expected", name).read_bytes()
    assert golden_transcript(name).encode("utf-8") == expected
