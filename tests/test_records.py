"""Value semantics of the three immutable records: SchemeParams,
TransformInput and CodeSpec.

They replace frozen dataclasses, so these tests pin what the dataclasses
gave: equality and hashing by field values (SchemeParams keys the three
lru_caches), no assignment, the dataclass repr, and validation on every
way of building a TransformInput or a CodeSpec.
"""
import copy
import pickle
from fractions import Fraction

import pytest

from krawtchouk import SchemeParams, TransformInput, eigenmatrix, eigenvalues, oracle
from krawtchouk._record import Record
from krawtchouk.oracle import CodeSpec, space_for
from krawtchouk.schemes import make_scheme

HAM22_REPR = (
    "SchemeParams(kind='hamming', q=2, dims=(2,), b=1, "
    "c=Fraction(2, 1), n=2, space_size=4)"
)


class Pair(Record):
    """A two-field record with CodeSpec's field count, for the class-distinct check."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self._fill(first, second)


def _records():
    """One record of each class, every one built afresh."""
    params = make_scheme("hamming", 2, n=2)
    return [
        params,
        TransformInput([1, 0, 1], 2, params),
        CodeSpec(params, [[1, 1]]),
    ]


def test_equal_fields_give_equal_records_and_hashes():
    left, right = _records(), _records()
    for a, b in zip(left, right):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert hash(a) == hash(tuple(getattr(a, name) for name in a.__slots__))
    # a list dist and list generators are stored as tuples, so they compare equal
    assert left[1].dist == (1, 0, 1)
    assert left[2].generators == ((1, 1),)


def test_records_differ_by_field_and_by_class():
    p = make_scheme("hamming", 2, n=2)
    assert p != make_scheme("hamming", 3, n=2)
    assert p != make_scheme("hamming", 2, n=3)
    assert TransformInput((1, 0, 1), 2, p) != TransformInput((1, 1, 0), 2, p)
    assert CodeSpec(p, ((1, 1),)) != CodeSpec(p, ((1, 0),))
    # the same field values in a record of another class: never equal
    pair = Pair(p, ((1, 1),))
    assert pair != CodeSpec(p, ((1, 1),)) and CodeSpec(p, ((1, 1),)) != pair
    assert p != tuple(getattr(p, name) for name in p.__slots__)


def test_scheme_params_key_both_caches():
    first, second = make_scheme("skew", 2, t=4), make_scheme("skew", 2, t=4)
    assert first is not second
    for cached, public in (
        (eigenvalues._eigenmatrix_cached, eigenmatrix),
        (eigenvalues.tables, eigenvalues.tables),
        (oracle._space_cached, space_for),
    ):
        cached.cache_clear()
        built = public(first)
        assert public(second) is built
        info = cached.cache_info()
        assert (info.hits, info.misses) == (1, 1)


@pytest.mark.parametrize("index", range(3))
def test_records_are_immutable(index):
    record = _records()[index]
    before = repr(record)
    for name in (*record.__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == before


def test_repr_is_the_dataclass_repr():
    p = make_scheme("hamming", 2, n=2)
    assert repr(p) == HAM22_REPR
    assert repr(make_scheme("skew", 2, t=4)) == (
        "SchemeParams(kind='skew', q=2, dims=(4,), b=4, "
        "c=Fraction(1, 2), n=2, space_size=64)"
    )
    assert repr(TransformInput([1, 0, 1], 2, p)) == (
        f"TransformInput(dist=(1, 0, 1), code_size=2, params={HAM22_REPR})"
    )
    assert repr(CodeSpec(p, [[1, 1]])) == f"CodeSpec(params={HAM22_REPR}, generators=((1, 1),))"


def test_fields_by_position_or_keyword():
    p = make_scheme("hamming", 2, n=2)
    q = SchemeParams(*(getattr(p, name) for name in p.__slots__))
    assert q == SchemeParams(**{name: getattr(p, name) for name in p.__slots__}) == p
    with pytest.raises(TypeError):
        SchemeParams(kind="hamming")
    with pytest.raises(TypeError):
        TransformInput((1, 0, 1), 2, p, None)
    with pytest.raises(TypeError):
        TransformInput(dist=(1, 0, 1), code_size=2, params=p, extra=1)
    with pytest.raises(TypeError):
        CodeSpec(p, params=p, generators=((1, 1),))


def test_copies_and_pickles_rebuild_through_the_constructor():
    for record in _records():
        cls, values = record.__reduce__()
        assert cls is type(record)
        assert values == tuple(getattr(record, name) for name in record.__slots__)
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and hash(clone) == hash(record)


HAM23 = make_scheme("hamming", 2, n=3)
BAD_TRANSFORM_INPUTS = [
    ((1, 0, 0), 1),  # wrong length
    ((1, 0, 0, 0), 2),  # sum is not |C|
    ((1, -1, 2, 0), 2),  # negative entry
    ((1, 0, 0, 1.0), 2),  # float entry
    ((1, 0, 0, Fraction(1)), 2),  # Fraction entry
    ((True, 0, 0, 1), 2),  # bool entry
    ((1, 0, 0, 0), True),  # bool code size
    ((1, 0, 0, 1), 2.0),  # float code size
    ((1, 0, 0, 2), 3),  # |C| does not divide |X|
]


@pytest.mark.parametrize("dist, size", BAD_TRANSFORM_INPUTS)
def test_bad_transform_input_rejected_every_way(dist, size):
    for build in (
        lambda: TransformInput(dist, size, HAM23),
        lambda: TransformInput(dist=dist, code_size=size, params=HAM23),
        lambda: TransformInput(list(dist), params=HAM23, code_size=size),
    ):
        with pytest.raises(ValueError):
            build()


@pytest.mark.parametrize(
    "generators",
    [
        ((1, 1, 0), (1, 1, 0)),  # dependent
        ((1, 1),),  # wrong length
        ((1, 2, 0),),  # coordinate outside F_2
        ((1, True, 0),),  # non-int coordinate
    ],
)
def test_bad_code_spec_rejected_every_way(generators):
    for build in (
        lambda: CodeSpec(HAM23, generators),
        lambda: CodeSpec(params=HAM23, generators=generators),
        lambda: CodeSpec(generators=[list(g) for g in generators], params=HAM23),
    ):
        with pytest.raises(ValueError):
            build()
