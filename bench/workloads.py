"""The three workloads: seeded inputs, the operations run on them, and the
checks that hold every output to the reference in ``reference.py``.

Every round draws fresh inputs from (seed, round index) but always runs the
same list of operations, so the share of failed operations is fixed.  Program
entry points are looked up on their modules at call time, so the spans that
``tracing.py`` patches in see every call.
"""

from __future__ import annotations

import contextlib
import importlib
import io as stdio
import os
import random
from time import perf_counter

from reference import (
    Instance,
    Mismatch,
    check_bases,
    check_circuits,
    check_classify,
    check_family,
    elements,
    require,
)

cio, cli, constructions, rough = (
    importlib.import_module("covmatroid." + name)
    for name in ("io", "cli", "constructions", "rough"))
classify_mod = importlib.import_module("covmatroid.classify")


class KnownFault(Exception):
    """An operation hit a fault of the program that the benchmark keeps as a
    counted failure until it is fixed."""


def between_steps() -> None:
    """Runs before every step, outside the timed work.  The worker points
    it at its calibrator, so the calibration kernel is sampled throughout
    the run."""


class Round:
    """Timings and outcomes of one round.  An operation is one timed call
    into the program; a step makes one or more operations and then checks
    them, and a failed check fails every operation of its step."""

    def __init__(self) -> None:
        self.op_times: list[float] = []
        self.work = 0.0
        self.failed = 0
        self.wrong: list[str] = []
        self.stdout_bytes = 0

    def setup(self, fn, *args, **kwargs):
        """A timed call that belongs to the round's work but is not itself
        an operation (parsing and building a query instance)."""
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.work += perf_counter() - t0

    def call(self, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            d = perf_counter() - t0
            self.work += d
            self.op_times.append(d)

    def step(self, run, tracer=None) -> None:
        between_steps()
        if tracer is not None:
            tracer.op += 1
        start = len(self.op_times)
        try:
            run()
        except KnownFault:
            self.failed += len(self.op_times) - start
        except Mismatch as exc:
            self.failed += len(self.op_times) - start
            self.wrong.append(str(exc))
        except Exception as exc:  # a crash outside the known faults is wrong
            self.failed += max(1, len(self.op_times) - start)
            self.wrong.append(f"{type(exc).__name__}: {exc}")


# -- input generation --------------------------------------------------------


def labels(n: int) -> list[str]:
    return [f"e{i}" for i in range(n)]


def render(inst: Instance, names: list[str]) -> str:
    lines = ["format: 1", f"kind: {inst.kind}", "universe: " + " ".join(names)]
    for b, k in zip(inst.blocks, inst.caps):
        body = " ".join(names[e] for e in elements(b))
        lines.append(f"block: {body}" + ("" if inst.kind == "indexed_family" else f" k={k}"))
    return "\n".join(lines) + "\n"


def random_covering(rng: random.Random, n: int, m: int, caps=(1, 2),
                    density: float = 0.3) -> Instance:
    """Distinct nonempty blocks covering 0..n-1, capacities drawn from
    ``caps``."""
    while True:
        blocks: list[int] = []
        while len(blocks) < m:
            b = sum(1 << e for e in range(n) if rng.random() < density)
            if b and b not in blocks:
                blocks.append(b)
        for e in range(n):
            if not any(b >> e & 1 for b in blocks):
                i = rng.randrange(m)
                blocks[i] |= 1 << e
        if len(set(blocks)) < m:
            continue
        return Instance("covering", n, blocks, [rng.choice(caps) for _ in blocks])


def random_partition(rng: random.Random, n: int, parts: int) -> Instance:
    """Random partition into ``parts`` classes of size ≥ 2, each with a
    capacity of 1 or 2 below its size (so the matroid is not free)."""
    order = list(range(n))
    rng.shuffle(order)
    cuts = sorted(rng.sample(range(2, n - 1), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [n]
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        blocks.append(sum(1 << e for e in order[lo:hi]))
    # merge any class of size < 2 into its neighbour
    merged: list[int] = []
    for b in blocks:
        if merged and b.bit_count() < 2:
            merged[-1] |= b
        else:
            merged.append(b)
    if merged[0].bit_count() < 2 and len(merged) > 1:
        merged[1] |= merged.pop(0)
    caps = [min(rng.choice((1, 2)), b.bit_count() - 1) for b in merged]
    return Instance("partition", n, merged, caps)


def random_family(rng: random.Random, n: int, members: int,
                  density: float = 0.3) -> Instance:
    fam = []
    while len(fam) < members:
        b = sum(1 << e for e in range(n) if rng.random() < density)
        if b:
            fam.append(b)
    return Instance("indexed_family", n, fam, [1] * members)


def random_subset(rng: random.Random, n: int, size: int) -> int:
    return sum(1 << e for e in rng.sample(range(n), size))


def build(doc):
    """The program's matroid handle for a parsed document."""
    if doc.kind == "covering":
        return constructions.covering_matroid(doc.covering())
    if doc.kind == "partition":
        return constructions.partition_matroid(doc.partition())
    return constructions.transversal_matroid(doc.family())


# -- enumerate ---------------------------------------------------------------

# (kind, n, low m, high m, block density, rank of U), one instance each per
# round: fifteen operations of 10-160 ms, about 0.7 s of work a round.  n
# stays at 13 or below so that a round is short next to the seconds over
# which the machine's speed changes: the kernel samples taken during a round
# then describe its speed, and a run holds enough rounds for a steady
# median.  The median operation falls among the four n=11 covering slots of
# similar cost.  The rank is fixed per slot because the sizes of the
# independent, circuit and base families, and of the matcher's memo, follow
# it.  The slots with more than six blocks run the memoized matcher.
ENUMERATE_SLOTS = (
    ("covering", 10, 4, 6, 0.3, 6),
    ("covering", 10, 4, 6, 0.3, 6),
    ("indexed_family", 10, 5, 5, 0.3, 5),
    ("indexed_family", 10, 5, 5, 0.3, 5),
    ("partition", 11, 4, 4, None, 6),
    ("partition", 11, 4, 4, None, 6),
    ("covering", 11, 4, 6, 0.3, 7),
    ("covering", 11, 4, 6, 0.3, 7),
    ("covering", 11, 8, 10, 0.3, 9),
    ("covering", 11, 8, 10, 0.3, 9),
    ("covering", 12, 4, 6, 0.3, 7),
    ("covering", 12, 4, 6, 0.3, 7),
    ("covering", 12, 8, 10, 0.3, 10),
    ("covering", 12, 8, 10, 0.3, 10),
    ("covering", 13, 8, 10, 0.3, 11),
)


def enumerate_inputs(rng: random.Random) -> list[Instance]:
    out = []
    for kind, n, lo, hi, density, rank in ENUMERATE_SLOTS:
        while True:
            m = rng.randint(lo, hi)
            if kind == "covering":
                inst = random_covering(rng, n, m, density=density)
            elif kind == "partition":
                inst = random_partition(rng, n, m)
            else:
                inst = random_family(rng, n, m, density=density)
            if inst.rank_full() == rank:
                out.append(inst)
                break
    return out


def enumerate_round(insts: list[Instance], rng: random.Random, tracer=None) -> Round:
    """One operation per instance: parse, build, the independent family,
    circuits, bases, dual bases and classify."""
    rnd = Round()
    for inst in insts:
        text = render(inst, labels(inst.n))

        def pipeline(text):
            m = build(cio.parse_document(text))
            fam = m.independent_family().bitset()
            circuits = [c.bits for c in m.circuits()]
            bases = [b.bits for b in m.bases()]
            dual_bases = [b.bits for b in m.dual().bases()]
            return fam, circuits, bases, dual_bases, classify_mod.classify(m)

        def run(inst=inst, text=text):
            fam, circuits, bases, dual_bases, rep = rnd.call(pipeline, text)
            check_family(inst, fam, rng, 64)
            check_circuits(inst, circuits, fam.__contains__, rng, 16)
            check_bases(inst, bases, dual_bases, fam)
            check_classify(inst, circuits, bases, report_flags(rep))

        rnd.step(run, tracer)
    return rnd


def report_flags(rep) -> dict:
    return {
        "sizes": list(rep.circuit_size_multiset),
        "two_circuit": rep.is_2_circuit,
        "partition_circuit": rep.is_partition_circuit,
        "double_circuit": rep.is_double_circuit,
        "self_dual": rep.is_identically_self_dual,
    }


# -- query -------------------------------------------------------------------

# (kind, n, low m, high m): past the enumeration cap, on the cut path (m ≤ 6)
# and on the plain augmenting path (m > 6).
QUERY_SLOTS = (
    ("covering", 48, 5, 6),
    ("indexed_family", 64, 8, 12),
    ("covering", 96, 12, 16),
    ("covering", 128, 20, 24),
)


def query_inputs(rng: random.Random) -> list[Instance]:
    out = []
    for kind, n, lo, hi in QUERY_SLOTS:
        m = rng.randint(lo, hi)
        if kind == "covering":
            out.append(random_covering(rng, n, m, density=0.15))
        else:
            out.append(random_family(rng, n, m, density=0.15))
    return out


def query_round(insts: list[Instance], rng: random.Random, tracer=None) -> Round:
    rnd = Round()
    for inst in insts:
        _query_instance(rnd, inst, rng, tracer)
    return rnd


def _query_instance(rnd: Round, inst: Instance, rng: random.Random, tracer) -> None:
    n, full = inst.n, inst.full
    r_full = inst.rank_full()
    doc = rnd.setup(cio.parse_document, render(inst, labels(n)))
    m = rnd.setup(build, doc)
    dual = rnd.setup(m.dual)
    near = [random_subset(rng, n, max(0, min(n, r_full + d)))
            for d in (-2, -1, 0, 0, 1, 2) * 2]
    big = [random_subset(rng, n, rng.randint(min(n, r_full + 8), n)) for _ in range(6)]
    sets = near + big
    ranks: dict[int, int] = {}

    for x in sets:
        def run_pair(x=x):
            ind = rnd.call(m.indep_bits, x)
            r = ranks[x] = rnd.call(m.rank_bits, x)
            ref = inst.flow(x)
            require(r == ref, f"rank differs at {x:#x}: {r} vs {ref}")
            require(ind == (ref == x.bit_count()), f"independence differs at {x:#x}")
        rnd.step(run_pair, tracer)

    for _ in range(4):
        a, b = rng.sample(sets, 2)

        def run_sub(a=a, b=b):
            ru = rnd.call(m.rank_bits, a | b)
            ri = rnd.call(m.rank_bits, a & b)
            ra, rb = ranks[a], ranks[b]
            require(ri <= min(ra, rb) and max(ra, rb) <= ru, "rank not monotone")
            require(ra + rb >= ru + ri, "rank not submodular")
            require(ru <= (a | b).bit_count(), "rank above cardinality")
        rnd.step(run_sub, tracer)

    x = near[0]

    def run_closure():
        cl = rnd.call(m.closure, doc.ground.mask(x)).bits
        cl2 = rnd.call(m.closure, doc.ground.mask(cl)).bits
        rcl = rnd.call(m.rank_bits, cl)
        require(cl & x == x, "closure does not contain X")
        require(cl2 == cl, "closure is not idempotent")
        require(rcl == ranks[x], "r(cl X) ≠ r(X)")
        inside = elements(cl & ~x)
        outside = elements(full & ~cl)
        for e in rng.sample(inside, min(2, len(inside))):
            require(inst.flow(x | 1 << e) == rcl, "closure holds an independent extension")
        for e in rng.sample(outside, min(2, len(outside))):
            require(inst.flow(x | 1 << e) == rcl + 1, "closure misses a dependent extension")
    rnd.step(run_closure, tracer)

    for x in rng.sample(sets, 4):
        def run_dual(x=x):
            got = rnd.call(dual.rank_bits, x)
            want = x.bit_count() + inst.flow(full & ~x) - r_full
            require(got == want, f"dual rank differs at {x:#x}")
        rnd.step(run_dual, tracer)

    if inst.kind != "covering":
        return
    ms = rnd.setup(rough.MatroidalSpace, doc.covering())
    for _ in range(2):
        x = rng.getrandbits(n)

        def run_findings(x=x):
            found = rnd.call(rough.approximation_findings, ms, doc.ground.mask(x), True)
            check_findings(inst, x, [(f.operator, f.direct.bits, f.matroidal.bits)
                                     for f in found])
        rnd.step(run_findings, tracer)


def check_findings(inst: Instance, x: int, found: list[tuple]) -> None:
    """Lower and upper findings against the reference operators."""
    lower, upper = inst.lower(x), inst.upper(x)
    require(lower & ~x == 0 and x & ~upper == 0, "lower ⊆ X ⊆ upper fails")
    require(all(op != "upper" for op, _, _ in found),
            "matroidal upper differs from the direct upper")
    mlower = inst.matroidal_lower(x)
    lows = [(d, mm) for op, d, mm in found if op == "lower"]
    if mlower == lower:
        require(not lows, "a lower finding where the operators agree")
    else:
        require(lows == [(lower, mlower)], "lower finding missing or wrong")
        require(any(k < b.bit_count() for b, k in zip(inst.blocks, inst.caps)),
                "lower finding although every capacity covers its block")


# -- cli ---------------------------------------------------------------------

V, MAT = "--verify", "--matroidal"

# (kind, n range, m range, capacity choices, commands).  Each command is
# (name, flags); X for --set and x for --element are drawn per document.
# --verify appears only where the brute-force oracles' caps allow it:
# coverings with at most 4 blocks and indexed families with n ≤ 8.
CLI_SLOTS = (
    ("covering", (5, 8), (3, 4), (1, 2), [
        ("axioms", ()), ("independents", (V,)), ("circuits", (V,)),
        ("bases", ()), ("dual", (V,)), ("rank", (V,)), ("closure", (V,)),
        ("approx", ()), ("approx", (MAT,)), ("approx", (MAT, V)),
        ("neighborhood", (MAT,)), ("classify", ()), ("convert", ())]),
    ("covering", (9, 12), (5, 6), (1, 2), [
        ("independents", ()), ("circuits", ()), ("bases", ()), ("dual", ()),
        ("rank", (V,)), ("closure", ()), ("approx", (MAT, V)),
        ("neighborhood", ()), ("classify", ()), ("convert", ())]),
    ("partition", (6, 8), (2, 4), (1, 2), [
        ("axioms", ()), ("independents", (V,)), ("circuits", ()), ("bases", ()),
        ("dual", (V,)), ("rank", ()), ("closure", (V,)), ("approx", (MAT,)),
        ("classify", ()), ("convert", ())]),
    ("indexed_family", (5, 8), (3, 5), (1,), [
        ("axioms", ()), ("independents", (V,)), ("circuits", ()),
        ("bases", (V,)), ("dual", ()), ("rank", (V,)), ("closure", ()),
        ("classify", ()), ("convert", ())]),
    ("covering", (6, 10), (3, 4), (1,), [
        ("independents", ()), ("circuits", ()), ("bases", ()), ("dual", ()),
        ("approx", (MAT,)), ("classify", ()), ("convert", ())]),
)

# Inputs that do not depend on the seed, one per known fault:
# (a) --verify on a covering with ≥5 blocks prints the whole answer and then
#     exits 2 from the brute-force union cap;
# (b) a document that is not UTF-8 escapes as UnicodeDecodeError, not exit 1.
FAULT_A = ("format: 1\nkind: covering\nuniverse: a b c d e f\n"
           "block: a b\nblock: b c\nblock: c d\nblock: d e\nblock: e f\n").encode()
FAULT_B = b"format: 1\nkind: covering\nuniverse: a b\nblock: a b k=1 # \xff\xfe\n"


def cli_inputs(rng: random.Random) -> list[tuple]:
    out = []
    for kind, (nlo, nhi), (mlo, mhi), caps, commands in CLI_SLOTS:
        n = rng.randint(nlo, nhi)
        m = rng.randint(mlo, mhi)
        if kind == "covering":
            inst = random_covering(rng, n, m, caps=caps, density=0.4)
        elif kind == "partition":
            inst = random_partition(rng, n, m)
        else:
            inst = random_family(rng, n, m, density=0.4)
        x = random_subset(rng, n, rng.randint(1, min(5, n - 1)))
        out.append((inst, x, rng.randrange(n), commands))
    return out


class Output:
    """What one CLI call produced."""

    def __init__(self, code, out: str, names: list[str]):
        self.code = code
        self.lines = out.splitlines()
        self.index = {lab: i for i, lab in enumerate(names)}
        self.names = names

    def set(self, text: str) -> int:
        text = text.strip()
        if text == "∅":
            return 0
        require(text.startswith("{") and text.endswith("}"), f"not a set: {text!r}")
        return sum(1 << self.index[lab] for lab in text[1:-1].split(","))

    def family(self, verify: bool, n: int) -> list[int]:
        lines = self.lines
        if verify:
            require(lines and lines[-1] == f"verify: OK ({1 << n} subsets)",
                    "missing verify line")
            lines = lines[:-1]
        return [self.set(line) for line in lines]

    def value(self, prefix: str) -> str:
        for line in self.lines:
            if line.startswith(prefix):
                return line[len(prefix):]
        raise Mismatch(f"no line starting {prefix!r}")


def cli_round(docs: list[tuple], rng: random.Random, workdir: str,
              tracer=None) -> Round:
    rnd = Round()

    def invoke(argv):
        out, err = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stderr(err):
            code = rnd.call(cli.main, argv, out)
        text = out.getvalue()
        rnd.stdout_bytes += len(text.encode())
        return code, text

    for d, (inst, x, e, commands) in enumerate(docs):
        names = labels(inst.n)
        path = os.path.join(workdir, f"doc{d}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render(inst, names))
        seen: dict[str, list[int]] = {}
        for cmd, flags in commands:
            argv = [cmd, path, *flags]
            if cmd in ("rank", "closure", "approx"):
                argv += ["--set", ",".join(names[i] for i in elements(x))]
            if cmd == "neighborhood":
                argv += ["--element", names[e]]

            def run(argv=argv, cmd=cmd, flags=flags, inst=inst, x=x, e=e,
                    names=names, seen=seen):
                code, text = invoke(argv)
                check_cli(cmd, flags, inst, x, e, Output(code, text, names),
                          seen, rng)
            rnd.step(run, tracer)

    for name, data, cmd, check in (
            ("fault_a.txt", FAULT_A, ["independents", "--verify"], _fault_a),
            ("fault_b.txt", FAULT_B, ["rank", "--set", "a"], _fault_b)):
        path = os.path.join(workdir, name)
        with open(path, "wb") as fh:
            fh.write(data)
        rnd.step(lambda argv=[cmd[0], path, *cmd[1:]], check=check:
                 check(lambda: invoke(argv)), tracer)
    return rnd


def _fault_a(run) -> None:
    code, text = run()
    if code == 2 and text:
        raise KnownFault("--verify printed its answer before the size-limit exit")
    require(code in (0, 2), f"unexpected exit {code} for --verify")
    if code == 0:
        require(text.splitlines()[-1] == "verify: OK (64 subsets)", "missing verify line")


def _fault_b(run) -> None:
    try:
        code, text = run()
    except UnicodeDecodeError:
        raise KnownFault("non-UTF-8 input escapes as UnicodeDecodeError") from None
    require(code == 1 and not text, "non-UTF-8 input is not exit 1")


def check_cli(cmd: str, flags: tuple, inst: Instance, x: int, e: int,
              out: Output, seen: dict, rng: random.Random) -> None:
    n = inst.n
    verify = V in flags
    covering_kind = inst.kind != "indexed_family"

    if cmd == "convert":
        if inst.kind == "indexed_family":
            require(out.code == 0, "convert of a family failed")
            conv = _read_document(out, inst.n)
            for _ in range(16):
                y = rng.getrandbits(n)
                require(conv.flow(y) == inst.flow(y), "converted covering differs")
        elif all(k == 1 for k in inst.caps):
            require(out.code == 0, "convert of an all-ones covering failed")
            conv = _read_document(out, inst.n)
            require(conv.kind == "indexed_family" and conv.blocks == inst.blocks,
                    "converted family differs from the blocks")
        else:
            require(out.code == 3 and not out.lines, "convert with capacity ≠ 1 not exit 3")
        return

    if cmd == "approx" and MAT in flags:
        lower, upper = inst.lower(x), inst.upper(x)
        fmt = f"SL={_fmt(lower, out.names)} SH={_fmt(upper, out.names)}"
        findings = [line for line in out.lines if line.startswith("finding: ")]
        if inst.matroidal_lower(x) == lower:
            require(out.code == 0 and out.lines == [f"N/A for sets; {fmt} AGREE"],
                    "matroidal approx should agree")
        else:
            require(out.code == 4 and out.lines[0] == f"N/A for sets; {fmt} DISAGREE",
                    "matroidal approx should report a lower finding")
            require(len(findings) == 1 and findings[0].startswith("finding: lower mismatch"),
                    "expected exactly one lower finding")
            require(any(k < b.bit_count() for b, k in zip(inst.blocks, inst.caps)),
                    "lower finding although every capacity covers its block")
        return

    require(out.code == 0, f"{cmd} exited {out.code}")
    if cmd == "axioms":
        verdict = out.lines[0] if out.lines else ""
        ok = naive_is_matroid(inst) if covering_kind else True
        if ok:
            require(verdict == "matroid", "axioms: expected matroid")
        else:
            require(verdict.startswith("violates I3: I1="), "axioms: expected I3 violation")
            i1, i2 = (out.set(s) for s in verdict[len("violates I3: I1="):].split(", I2="))
            naive = _naive(inst)
            require(naive(i1) and naive(i2) and i1.bit_count() < i2.bit_count(),
                    "axioms: witness not in the naive family")
            require(not any(naive(i1 | 1 << j) for j in elements(i2 & ~i1)),
                    "axioms: witness can be extended")
    elif cmd == "independents":
        fam = frozenset(out.family(verify, n))
        check_family(inst, fam, rng, 32)
        seen["family"] = sorted(fam)
    elif cmd == "circuits":
        circuits = out.family(verify, n)
        check_circuits(inst, circuits, inst.independent, rng, 8)
        seen["circuits"] = circuits
    elif cmd == "bases":
        seen["bases"] = out.family(verify, n)
        r = inst.rank_full()
        require(all(b.bit_count() == r for b in seen["bases"]), "base size ≠ r(U)")
    elif cmd == "dual":
        lines = out.lines
        if verify:
            require(lines and lines[-1] == "verify: OK", "missing verify line")
            lines = lines[:-1]
        check_bases(inst, seen["bases"], [out.set(s) for s in lines], None)
        for b in rng.sample(seen["bases"], min(4, len(seen["bases"]))):
            require(inst.independent(b), "base dependent in the reference")
    elif cmd == "rank":
        head = f"rank({_fmt(x, out.names)}) = "
        require(out.value(head) == str(inst.flow(x)), "rank differs")
        require(not verify or out.lines[-1] == "verify: OK", "missing verify line")
    elif cmd == "closure":
        head = f"closure({_fmt(x, out.names)}) = "
        require(out.set(out.value(head)) == inst.closure(x), "closure differs")
        require(not verify or out.lines[-1] == "verify: OK", "missing verify line")
    elif cmd == "approx":
        want = f"SL={_fmt(inst.lower(x), out.names)} SH={_fmt(inst.upper(x), out.names)}"
        require(out.lines == [want], "direct approximations differ")
    elif cmd == "neighborhood":
        nb = _fmt(inst.neighborhood(e), out.names)
        want = [f"N({out.names[e]}) = {nb}"]
        if MAT in flags:
            want.append(f"matroidal N({out.names[e]}) = {nb} AGREE")
        require(out.lines == want, "neighborhood differs")
    elif cmd == "classify":
        require(out.value("matroid: ") == "true", "classify: matroid line")
        flag = {"true": True, "false": False}
        pc = out.value("partition-circuit: ")
        sizes = out.value("circuit sizes: [").rstrip("]")
        check_classify(inst, seen["circuits"], seen["bases"], {
            "sizes": [int(s) for s in sizes.split(", ")] if sizes else [],
            "two_circuit": flag[out.value("2-circuit: ")],
            "partition_circuit": flag[pc.split(" ")[0]],
            "double_circuit": flag[out.value("double-circuit: ")],
            "self_dual": flag[out.value("identically-self-dual: ")],
        })
    else:
        raise Mismatch(f"no check for command {cmd}")


def _fmt(bits: int, names: list[str]) -> str:
    if not bits:
        return "∅"
    return "{" + ",".join(names[i] for i in elements(bits)) + "}"


def _naive(inst: Instance):
    pairs = list(zip(inst.blocks, inst.caps))
    return lambda bits: all((bits & b).bit_count() <= k for b, k in pairs)


def naive_is_matroid(inst: Instance) -> bool:
    """Exchange axiom on the family {X : |X ∩ K_i| ≤ k_i}, checked for every
    pair whose sizes differ by one (enough for a downward-closed family)."""
    naive = _naive(inst)
    members = [b for b in range(1 << inst.n) if naive(b)]
    by_size: dict[int, list[int]] = {}
    for b in members:
        by_size.setdefault(b.bit_count(), []).append(b)
    for b1 in members:
        for b2 in by_size.get(b1.bit_count() + 1, ()):
            if not any(naive(b1 | 1 << j) for j in elements(b2 & ~b1)):
                return False
    return True


def _read_document(out: Output, n: int) -> Instance:
    """The benchmark's own reading of a document the program rendered."""
    kind = out.value("kind: ")
    names = out.value("universe: ").split()
    require(names == out.names, "converted universe differs")
    blocks, caps = [], []
    for line in out.lines:
        if line.startswith("block: "):
            toks = line[len("block: "):].split()
            k = 1
            if toks and toks[-1].startswith("k="):
                k = int(toks.pop()[2:])
            blocks.append(sum(1 << out.index[t] for t in toks))
            caps.append(k)
    return Instance(kind, n, blocks, caps)
