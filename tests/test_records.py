"""The package's records are named tuples: built, hashed and compared as
tuples of their fields, with their field names, order and defaults."""

import pytest

from selfsim.actions import BoundaryPoint, MinimalFixedResult
from selfsim.germs import Germ, SingularClass
from selfsim.graphs import Edge, Path
from selfsim.groupoids import GroupoidElement
from selfsim.semigroup import Triple
from selfsim.verdicts import Verdict

RECORDS = [
    (Edge, ("name", "src", "rng"), {}),
    (Path, ("base", "edges"), {"edges": ()}),
    (GroupoidElement, ("name", "src", "rng"), {}),
    (Triple, ("alpha", "g", "beta"), {}),
    (BoundaryPoint, ("base", "prefix", "period"),
     {"prefix": (), "period": ()}),
    (MinimalFixedResult, ("status", "paths", "witness"),
     {"paths": (), "witness": None}),
    (Germ, ("triple", "xi"), {}),
    (SingularClass, ("position", "element"), {}),
    (Verdict, ("status", "witness", "note"), {"witness": None, "note": ""}),
]


@pytest.mark.parametrize("record, fields, defaults", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_records_are_tuples_of_their_fields(record, fields, defaults):
    assert issubclass(record, tuple)
    assert record._fields == fields
    assert record._field_defaults == defaults
    values = ["f%d" % i for i in range(len(fields))]
    r = record(*values)
    assert tuple(r) == tuple(values)
    assert [getattr(r, f) for f in fields] == values
    assert hash(r) == hash(tuple(values))


def test_a_path_hashes_as_its_fields_and_has_its_edge_count_as_length():
    assert hash(Path("v", ("e",))) == hash(("v", ("e",)))
    assert Path("v", ("e",)) == ("v", ("e",))
    assert len(Path("v")) == 0 and not Path("v")
    assert len(Path("v", ("e", "f", "g"))) == 3 and Path("v", ("e",))
    assert str(Path("v")) == "v" and str(Path("v", ("e", "f"))) == "ef"
    # a Triple hashes as the tuple of its legs' tuples
    t = Triple(Path("v", ("e",)), "g", Path("w"))
    assert hash(t) == hash((("v", ("e",)), "g", ("w", ())))
