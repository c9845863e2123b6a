"""Value semantics of the classes built on evenk.values.Value and of the
CLI's record tuples: equality and hash by type and fields, frozen
fields, dataclass-style repr, and the JSON and CSV column order."""

import copy
import pickle
from fractions import Fraction
from typing import get_args

import pytest

from evenk.arith import PartialFactorization, factorize
from evenk.cli import COMMANDS, OutputRecord, run
from evenk.cyclodirichlet import CharacterOrbit, DirichletCharacter, quadratic_character
from evenk.kgroups import (
    CubicParameters,
    CyclicPrime,
    Elementary,
    FieldSpec,
    KGroupOrder,
    Rationals,
    RealQuadratic,
    w_invariant,
)
from evenk.prank import DivisibilityWitness


def quad_235():
    return Elementary(2, tuple(RealQuadratic(d) for d in (5, 8, 40)))


# (build, build a different value of the same class, repr of the first)
FROZEN = [
    (Rationals, None, "Rationals()"),
    (lambda: RealQuadratic(5), lambda: RealQuadratic(8), "RealQuadratic(d=5)"),
    (lambda: CyclicPrime(3, 63, 1), lambda: CyclicPrime(3, 63), "CyclicPrime(p=3, f=63, orbit=1)"),
    (lambda: CyclicPrime(3, 7), lambda: CyclicPrime(3, 9), "CyclicPrime(p=3, f=7, orbit=0)"),
    (
        quad_235,
        lambda: Elementary(2, tuple(RealQuadratic(d) for d in (12, 28, 21))),
        "Elementary(p=2, parts=(RealQuadratic(d=5), RealQuadratic(d=8), RealQuadratic(d=40)))",
    ),
    (
        lambda: PartialFactorization(((2, 1),), 15),
        lambda: PartialFactorization(((2, 1),)),
        "PartialFactorization(factored=((2, 1),), cofactor=15)",
    ),
    (
        # w is a complete factorization, so it hashes
        lambda: w_invariant(RealQuadratic(5), 1),
        lambda: w_invariant(RealQuadratic(8), 1),
        "PartialFactorization(factored=((2, 3), (3, 1), (5, 1)), cofactor=1)",
    ),
    (
        lambda: quadratic_character(5),
        lambda: DirichletCharacter(5, 4, (((5, 2), 1),)),
        "DirichletCharacter(modulus=5, order=2, coords=(((5, 2), 1),))",
    ),
    (
        lambda: CharacterOrbit(quadratic_character(5)),
        lambda: CharacterOrbit(quadratic_character(8)),
        "CharacterOrbit(representative=DirichletCharacter(modulus=5, order=2, "
        "coords=(((5, 2), 1),)))",
    ),
    (
        lambda: DivisibilityWitness(5, (("a", True),)),
        lambda: DivisibilityWitness(5, (("a", True),), (("e", 2),)),
        "DivisibilityWitness(d=5, statements=(('a', True),), power_sums=())",
    ),
    (lambda: CubicParameters(7, -1, 3), lambda: CubicParameters(9, -3, 3),
     "CubicParameters(f=7, a=-1, b=3)"),
    (
        lambda: KGroupOrder(Rationals(), 2, 48, "kz", Fraction(-1, 12), pieces=(48,)),
        lambda: KGroupOrder(Rationals(), 2, 48, "kz", Fraction(-1, 12)),
        "KGroupOrder(field=Rationals(), index=2, order=48, method='kz', "
        "zeta_value=Fraction(-1, 12), pieces=(48,))",
    ),
]


@pytest.mark.parametrize("build,other,text", FROZEN)
def test_frozen_values(build, other, text):
    value = build()
    assert value == build() and hash(value) == hash(build())
    assert repr(value) == text
    if other is not None:
        assert value != other()
    # a value is not the tuple of its fields
    fields = tuple(getattr(value, name) for name in value.__slots__)
    assert value != fields and hash(value) != hash(fields)
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert copy.copy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_values_of_different_types_differ():
    assert Rationals() != ()
    assert RealQuadratic(5) != (5,)
    assert CyclicPrime(3, 7) != CubicParameters(3, 7, 0)
    assert len({Rationals(), (), RealQuadratic(5), (5,)}) == 4


def test_derived_fields_are_read_only_properties():
    # each is read off the stored fields, so no check keeps two copies in step
    derived = [
        (PartialFactorization(((2, 1),), 15), "complete", False),
        (PartialFactorization(((2, 3), (3, 1))), "value", 24),
        (DivisibilityWitness(5, (("a", True), ("b", False))), "consistent", False),
    ]
    for value, name, expected in derived:
        assert name not in type(value).__slots__ and getattr(value, name) == expected
        with pytest.raises(AttributeError):
            setattr(value, name, expected)


def test_checks_still_run_on_construction():
    with pytest.raises(ValueError, match="orbit index"):
        CyclicPrime(3, 7, 1)
    with pytest.raises(TypeError):
        RealQuadratic()
    with pytest.raises(TypeError):
        RealQuadratic(5, 8)
    with pytest.raises(TypeError):
        PartialFactorization(((2, 1),), cofacter=3)
    # a list-built value would differ from the tuple-built one and not hash
    with pytest.raises(TypeError, match="'parts' is a mutable list"):
        Elementary(2, [RealQuadratic(5), RealQuadratic(8), RealQuadratic(40)])
    with pytest.raises(TypeError, match="'factored' is a mutable list"):
        PartialFactorization([(2, 3)])
    with pytest.raises(TypeError, match="'pieces' is a mutable set"):
        KGroupOrder(Rationals(), 2, 48, "kz", pieces={48})


def test_k_group_order_is_a_frozen_value():
    # the frozen-value checks are in FROZEN; the order holds no
    # factorization, and its reader factors it from its pieces
    order = KGroupOrder(Rationals(), 2, 48, "kz", Fraction(-1, 12), pieces=(48,))
    assert not hasattr(order, "factorization")
    assert not hasattr(order, "ensure_factorization")
    assert factorize(order.order, pieces=order.pieces) == PartialFactorization(((2, 4), (3, 1)))


def test_field_spec_lists_the_four_spec_classes():
    assert get_args(FieldSpec) == (Rationals, RealQuadratic, CyclicPrime, Elementary)


def test_records_are_tuples_in_column_order(capsys):
    record = OutputRecord("q", 1, 2, "48", "2^4·3", "kz", "-1/12")
    assert repr(record) == (
        "OutputRecord(field='q', k=1, index=2, order='48', "
        "factorization='2^4·3', method='kz', zeta='-1/12')"
    )
    assert COMMANDS["esum"].table is False and COMMANDS["kgroup"].table is True
    argv = ["kgroup", "--field", "quad:5", "--k", "1", "--format"]
    assert run(argv + ["json"]) == 0
    assert capsys.readouterr().out == (
        '{"field": "quad:5", "k": 1, "index": 2, "order": "4", '
        '"factorization": "2^2", "method": "characters", "zeta": "1/30"}\n'
    )
    assert run(argv + ["csv"]) == 0
    assert capsys.readouterr().out == (
        "field,k,index,order,factorization,method,zeta\n"
        "quad:5,1,2,4,2^2,characters,1/30\n"
    )
