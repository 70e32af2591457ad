"""``errors.Record`` against real dataclasses as the oracle: each record class
is checked beside a ``@dataclass`` twin with the same name and fields."""

from __future__ import annotations

import json
from dataclasses import field, make_dataclass

import pytest
from test_cli import _child, _diamond_chain

from virtbetti import models
from virtbetti.errors import Verdict
from virtbetti.gf2 import GF2Matrix
from virtbetti.scene import Scene
from virtbetti.scissor import Atom, DisjointUnion, Product
from virtbetti.simplicial import PairSpace
from virtbetti.triangle import WeightArray


def twin(cls, *fields, frozen=True):
    """A dataclass named like ``cls``; ``fields`` as for ``make_dataclass``."""
    return make_dataclass(cls.__name__, fields or cls._fields, frozen=frozen)


CIRCLE = models.circle(3)
EMPTY_PAIR_ARGS = (CIRCLE, CIRCLE.subcomplex())
OPEN_PAIR_ARGS = (CIRCLE, CIRCLE.subcomplex(maximal=[("v0",)]))
PAIR_TWIN = twin(PairSpace, "total", "boundary",
                 ("_bases", dict, field(default_factory=dict, init=False, repr=False,
                                        compare=False)))

# (class, its dataclass twin, argument tuples; equal tuples must give equal records)
CASES = [
    (Verdict, twin(Verdict, "holds", ("detail", str, "")),
     [(True,), (True, ""), (False, "x"), (True, "x")]),
    (GF2Matrix, twin(GF2Matrix), [(0, 0, ()), (2, 2, (1, 2)), (2, 2, (2, 1)), (1, 3, (5,))]),
    (WeightArray, twin(WeightArray), [((),), (((1,),),), (((1,), (0, 2)),), (((0,), (1, 2)),)]),
    (Product, twin(Product), [(Atom("a"), Atom("b")), (Atom("b"), Atom("a"))]),
    (DisjointUnion, twin(DisjointUnion), [(Atom("a"), Atom("b")), (Atom("b"), Atom("a"))]),
    (PairSpace, PAIR_TWIN, [EMPTY_PAIR_ARGS, OPEN_PAIR_ARGS]),
]
CASE_IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, oracle, arg_tuples", CASES, ids=CASE_IDS)
def test_repr_eq_and_hash_agree_with_dataclass(cls, oracle, arg_tuples):
    for a in arg_tuples:
        assert repr(cls(*a)) == repr(oracle(*a))
        assert hash(cls(*a)) == hash(oracle(*a))
        for b in arg_tuples:
            assert (cls(*a) == cls(*b)) == (oracle(*a) == oracle(*b))
            assert (cls(*a) != cls(*b)) == (oracle(*a) != oracle(*b))


@pytest.mark.parametrize("cls, oracle, arg_tuples", CASES, ids=CASE_IDS)
def test_keywords_positions_and_defaults_agree_with_dataclass(cls, oracle, arg_tuples):
    for a in arg_tuples:
        by_keyword = dict(zip(cls._fields, a))
        assert cls(**by_keyword) == cls(*a)
        assert repr(cls(**by_keyword)) == repr(oracle(**by_keyword))
        for split in range(len(a) + 1):
            rest = dict(list(by_keyword.items())[split:])
            assert repr(cls(*a[:split], **rest)) == repr(oracle(*a[:split], **rest))


@pytest.mark.parametrize("cls, oracle, arg_tuples", CASES, ids=CASE_IDS)
def test_bad_arguments_raise_type_error_like_dataclass(cls, oracle, arg_tuples):
    a = arg_tuples[-1]
    for args, kwargs in [(a + (None,), {}), (a, {"no_such_field": 1}),
                         (a, {cls._fields[0]: a[0]}), ((), {})]:
        with pytest.raises(TypeError):
            oracle(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, oracle, arg_tuples", CASES, ids=CASE_IDS)
def test_records_are_frozen_like_dataclass(cls, oracle, arg_tuples):
    a = arg_tuples[-1]
    for obj in (cls(*a), oracle(*a)):
        for name in cls._fields + ("new",):
            with pytest.raises(AttributeError):
                setattr(obj, name, None)
            with pytest.raises(AttributeError):
                delattr(obj, name)
    assert cls(*a) == cls(*a)  # nothing above changed a record


def test_product_and_disjoint_union_differ_as_in_dataclasses():
    a, b = Atom("a"), Atom("b")
    assert Product(a, b) != DisjointUnion(a, b)
    assert twin(Product)(a, b) != twin(DisjointUnion)(a, b)
    assert {Product(a, b), DisjointUnion(a, b), Product(a, b)} == {Product(a, b), DisjointUnion(a, b)}


def test_a_record_shared_on_one_side_is_compared_with_each_counterpart():
    # within one ==, a verdict belongs to a pair of records, not to one record
    a = Atom("a")
    assert Product(a, a) != Product(Atom("a"), Atom("b"))
    assert Product(a, a) == Product(Atom("a"), Atom("a"))


def test_verdict_default_is_a_class_attribute():
    assert Verdict.detail == ""
    assert Verdict(True).detail == "" and bool(Verdict(True)) and not Verdict(False, "no")


def test_pair_cache_is_not_a_field():
    pair = PairSpace(*OPEN_PAIR_ARGS)
    pair.betti_compact_supports()  # fills the basis table
    assert pair == PairSpace(*OPEN_PAIR_ARGS)
    assert repr(pair) == repr(PAIR_TWIN(*OPEN_PAIR_ARGS))
    assert hash(pair) == hash(PAIR_TWIN(*OPEN_PAIR_ARGS))


def test_post_init_still_rejects_bad_input():
    with pytest.raises(ValueError):
        GF2Matrix(1, 1, (2,))
    with pytest.raises(ValueError):
        GF2Matrix(rows=2, cols=1, row_bits=(1,))
    with pytest.raises(ValueError):
        WeightArray(((1, 2),))
    with pytest.raises(ValueError):
        PairSpace(models.circle(3), CIRCLE.subcomplex())


def test_scene_is_mutable_and_unhashable_like_its_dataclass_twin():
    oracle = twin(Scene, *[(name, dict, field(default_factory=dict)) for name in Scene._fields],
                  frozen=False)
    assert Scene.__hash__ is None and oracle.__hash__ is None
    atoms = {}
    for scene, other in [(Scene(atoms), oracle(atoms)),
                         (Scene(atoms=atoms), oracle(atoms=atoms)),
                         (Scene(atoms, {"c": CIRCLE}), oracle(atoms, {"c": CIRCLE}))]:
        assert repr(scene) == repr(other)
        scene.complexes = {"d": CIRCLE}
        other.complexes = {"d": CIRCLE}
        assert repr(scene) == repr(other)
    fresh, fresh_oracle = Scene(), oracle()
    for name in Scene._fields:
        assert getattr(fresh, name) == getattr(fresh_oracle, name)
        assert getattr(fresh, name) is not getattr(Scene(), name)  # a new one each time
    assert Scene() == Scene() and oracle() == oracle()
    assert Scene(complexes={"c": CIRCLE}) != Scene()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # in a fresh interpreter: pytest itself imports both modules
    code = "import sys, virtbetti.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = _child("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_a_record_shared_by_two_parents_is_compared_once(tmp_path):
    # each level of a boundary_strata diamond is the child of both strata of the
    # level above: compared once per path, == of two loads took 2^k steps, 2.45 s
    # at k = 18; in a fresh interpreter, so a hang ends at the timeout
    data = json.loads(_diamond_chain(40))
    same, other = tmp_path / "same.json", tmp_path / "other.json"
    same.write_text(json.dumps(data))
    data["stratifications"]["s39"]["strata"][0]["name"] = "q"  # the deepest leaf
    other.write_text(json.dumps(data))
    code = """
import json, sys, time
from virtbetti.scene import scene_from_dict
first, same, other = (scene_from_dict(json.load(open(p))).stratifications["s0"]
                      for p in (sys.argv[1], sys.argv[1], sys.argv[2]))
start = time.perf_counter()
print(json.dumps([first == same, time.perf_counter() - start, first == other, first != other]))
"""
    proc = _child("-c", code, str(same), str(other))
    assert proc.returncode == 0, proc.stderr
    equal, seconds, differs_equal, differs_unequal = json.loads(proc.stdout)
    assert equal and seconds < 1.0
    assert not differs_equal and differs_unequal
