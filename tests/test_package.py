"""The package as a whole: what importing it and launching the CLI load, the
public names it exports, and the value semantics of its record classes."""

import copy
import importlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import covmatroid
from covmatroid import (
    ApproximationSpace,
    AxiomCertificate,
    CapacitatedCovering,
    ClassificationReport,
    Finding,
    GroundSet,
    IndexedFamily,
    MatroidalSpace,
    PartitionWitness,
)
from covmatroid.core import Record
from covmatroid.io import parse_document

FIX = Path(__file__).parent / "fixtures"
SRC = str(Path(covmatroid.__file__).parent.parent)
SUBMODULES = ("core", "matroid", "constructions", "rough", "oracle", "classify",
              "io", "cli")


def fresh(code: str):
    """Run ``code`` in a new interpreter that imports this same package and
    return the JSON value it prints last."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


class TestImportFootprint:
    def test_cli_loads_rough_and_oracle_only_for_the_commands_using_them(self):
        loaded = fresh(f"""
import io, json, sys
ON_DEMAND = ("covmatroid.rough", "covmatroid.oracle", "dataclasses", "inspect",
             "argparse")

def loaded():
    return [name for name in ON_DEMAND if name in sys.modules]

import covmatroid.cli
seen = {{"import": loaded()}}
covmatroid.cli.main(["rank", {str(FIX / "example1.txt")!r}, "--set", "a"],
                    out=io.StringIO())
seen["rank"] = loaded()
covmatroid.cli.main(["approx", {str(FIX / "example1.txt")!r}, "--set", "a",
                     "--matroidal"], out=io.StringIO())
seen["approx"] = loaded()
covmatroid.cli.main(["rank", {str(FIX / "example1.txt")!r}, "--set", "a",
                     "--verify"], out=io.StringIO())
seen["verify"] = loaded()
print(json.dumps(seen))
""")
        # After --verify every module of the package is loaded, and still
        # neither dataclasses nor inspect; argparse loads only for help and
        # usage errors.
        assert loaded == {
            "import": [],
            "rank": [],
            "approx": ["covmatroid.rough"],
            "verify": ["covmatroid.rough", "covmatroid.oracle"],
        }

    def test_cli_import_loads_no_typing(self):
        # -S keeps site's own imports out of sys.modules.
        env = {**os.environ, "PYTHONPATH": SRC}
        proc = subprocess.run(
            [sys.executable, "-S", "-c",
             "import sys, covmatroid.cli; print('typing' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout == "False\n"


class TestPublicNames:
    def test_every_exported_name_is_its_home_modules_object(self):
        modules = [importlib.import_module("covmatroid." + name) for name in SUBMODULES]
        for name in covmatroid.__all__:
            value = getattr(covmatroid, name)
            homes = [mod for mod in modules if name in vars(mod)]
            assert homes, name
            assert all(vars(mod)[name] is value for mod in homes), name

    def test_star_import_and_dir_list_every_exported_name(self):
        assert len(set(covmatroid.__all__)) == len(covmatroid.__all__)
        namespace = {}
        exec("from covmatroid import *", namespace)
        assert set(covmatroid.__all__) <= namespace.keys()
        assert set(covmatroid.__all__) <= set(dir(covmatroid))

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            covmatroid.no_such_name

    def test_lazy_names_resolve_once_and_classify_stays_the_function(self):
        seen = fresh("""
import importlib, json, sys
import covmatroid
seen = {"before": "covmatroid.rough" in sys.modules}
space = covmatroid.MatroidalSpace
seen["after"] = "covmatroid.rough" in sys.modules
seen["kept"] = vars(covmatroid).get("MatroidalSpace") is space
module = importlib.import_module("covmatroid.classify")
seen["classify"] = covmatroid.classify is module.classify
print(json.dumps(seen))
""")
        assert seen == {"before": False, "after": True, "kept": True, "classify": True}


# One instance of each record class, built twice, with its repr as the
# frozen dataclasses of earlier versions printed it.
def _records():
    g = GroundSet("abc")
    cov = CapacitatedCovering.from_labels(g, ["ab", "bc"], [1, 2])
    pw = PartitionWitness.from_labels(g, ["ab", "c"], [1, 1])
    return [
        (g.subset("ab"), "{a,b}"),
        (cov, "CapacitatedCovering(ground=GroundSet(['a', 'b', 'c']), "
              "blocks=({a,b}, {b,c}), capacities=(1, 2))"),
        (pw, "PartitionWitness(covering=CapacitatedCovering(ground=GroundSet(['a', "
             "'b', 'c']), blocks=({a,b}, {c}), capacities=(1, 1)))"),
        (IndexedFamily.from_labels(g, ["ab", "bc", "ab"]),
         "IndexedFamily(ground=GroundSet(['a', 'b', 'c']), "
         "members=({a,b}, {b,c}, {a,b}))"),
        (parse_document("format: 1\nkind: covering\nuniverse: a b c\n"
                        "block: K1 = a b k=1\nblock: K2 = b c k=2\n"),
         "InputDocument(kind='covering', ground=GroundSet(['a', 'b', 'c']), "
         "presentation=CapacitatedCovering(ground=GroundSet(['a', 'b', 'c']), "
         "blocks=({a,b}, {b,c}), capacities=(1, 2)))"),
        (AxiomCertificate("violates_I3", (g.subset("b"), g.subset("ac"))),
         "AxiomCertificate(verdict='violates_I3', witnesses=({b}, {a,c}))"),
        (ClassificationReport(True, False, False, False, (2,),
                              two_circuit_witness=pw),
         "ClassificationReport(is_2_circuit=True, is_partition_circuit=False, "
         "is_double_circuit=False, is_identically_self_dual=False, "
         "circuit_size_multiset=(2,), two_circuit_witness=PartitionWitness("
         "covering=CapacitatedCovering(ground=GroundSet(['a', 'b', 'c']), "
         "blocks=({a,b}, {c}), capacities=(1, 1))), partition_circuit_witness=None)"),
        (ApproximationSpace(g, cov.block_family()),
         "ApproximationSpace(ground=GroundSet(['a', 'b', 'c']), "
         "covering={{a,b}, {b,c}})"),
        (MatroidalSpace(cov),
         "MatroidalSpace(covering=CapacitatedCovering(ground=GroundSet(['a', "
         "'b', 'c']), blocks=({a,b}, {b,c}), capacities=(1, 2)), via_covering=False)"),
        (Finding("lower", g.subset("a"), g.empty(), g.subset("ab")),
         "Finding(operator='lower', subset={a}, direct=∅, matroidal={a,b})"),
    ]


RECORD_NAMES = [type(rec).__name__ for rec, _ in _records()]


@pytest.mark.parametrize("index", range(len(RECORD_NAMES)), ids=RECORD_NAMES)
class TestRecords:
    def test_repr(self, index):
        rec, shown = _records()[index]
        assert repr(rec) == shown

    def test_equal_and_hash_by_value_within_one_class(self, index):
        rec, _ = _records()[index]
        twin, _ = _records()[index]
        other, _ = _records()[index - 1]
        assert rec is not twin and rec == twin and hash(rec) == hash(twin)
        assert rec != other and rec.__eq__(other) is NotImplemented
        assert rec.__eq__(rec._values()) is NotImplemented

    def test_assignment_and_deletion_raise(self, index):
        rec, _ = _records()[index]
        name = rec._fields[0]
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match="cannot assign"):
            rec.new_attribute = None
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(rec, name)

    def test_copies_round_trip(self, index):
        rec, shown = _records()[index]
        copies = [copy.copy(rec), copy.deepcopy(rec)]
        # A matroidal space keeps its slices, whose oracles are local
        # functions, so it cannot be pickled.
        if not isinstance(rec, MatroidalSpace):
            copies.append(pickle.loads(pickle.dumps(rec)))
        for dup in copies:
            assert dup == rec and hash(dup) == hash(rec) and repr(dup) == shown


class R(Record):
    """A record with no ``__init__`` of its own: the base stores its values."""

    _fields = ("a", "b")


class TestRecordStore:
    def test_stores_one_value_per_field_in_order(self):
        assert repr(R(1, 2)) == "R(a=1, b=2)"

    @pytest.mark.parametrize("values", [(1,), (1, 2, 3)])
    def test_wrong_number_of_values_is_a_type_error(self, values):
        with pytest.raises(TypeError, match="takes 2 values"):
            R(*values)
