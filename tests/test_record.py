import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kummerlat import (
    ADEConfig,
    AffineTorusMap,
    FixedPointSet,
    GramLattice,
    InvalidComponent,
    ObstructionStep,
    check_nonexistence,
    discriminant_group,
    fixed_points,
    gram,
    parse_config,
)
from kummerlat._record import Record

SRC = Path(__file__).resolve().parent.parent / "src"

# the reprs the dataclass versions of these classes printed
REPRS = {
    "config": "ADEConfig(a=((1, 2), (3, 1)), d=((4, 1),), e=())",
    "step": "ObstructionStep(kind='RankExceeds', data=(('rank', '20'), ('rank_limit', '19')))",
    "disc": ("DiscriminantGroup(invariant_factors=(6,), generators=((Fraction(1, 2), Fraction(1, 3), "
             "Fraction(2, 3)),), q_values=(Fraction(5, 6),))"),
    "fixed": ("FixedPointSet(kind='finite', points=((Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), "
              "Fraction(0, 1)), (Fraction(0, 1), Fraction(0, 1), Fraction(1, 2), Fraction(1, 2)), "
              "(Fraction(1, 2), Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 2), "
              "Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))))"),
}
QUARTER_TURN = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


class Pair(Record):
    x: int
    y: tuple = ()


class OtherPair(Record):
    x: int
    y: tuple = ()


def test_reprs_match_the_dataclass_reprs():
    fixed = fixed_points(AffineTorusMap.of(QUARTER_TURN))
    assert repr(parse_config("2A1+A3+D4")) == REPRS["config"]
    assert repr(check_nonexistence(parse_config("20A1")).steps[0]) == REPRS["step"]
    assert repr(discriminant_group(gram(parse_config("A1+A2")))) == REPRS["disc"]
    assert repr(fixed) == REPRS["fixed"]


def test_equal_records_compare_and_hash_equal():
    pairs = [
        (parse_config("2A1+A3+D4"), ADEConfig(tuple({3: 1, 1: 2}.items()), tuple({4: 1}.items()))),
        (ADEConfig(((1, 2),)), ADEConfig(a=((1, 2), (5, 0)))),
        (ObstructionStep("RankExceeds", (("rank", "20"),)), ObstructionStep(kind="RankExceeds", data=(("rank", "20"),))),
        (GramLattice(((-2,),), ("x",)), GramLattice(gram=[[-2]], basis_labels=("x",))),
        (Pair(1), Pair(x=1, y=())),
    ]
    for a, b in pairs:
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    assert parse_config("2A1+A3+D4") != parse_config("2A1+A3")
    assert Pair(1, (2,)) != Pair(1, (3,))


def test_records_of_two_classes_with_equal_fields_are_unequal():
    assert Pair(1, (2,)) != OtherPair(1, (2,))
    assert not Pair(1, (2,)) == OtherPair(1, (2,))
    assert Pair(1, (2,)) != (1, (2,))
    assert len({Pair(1), OtherPair(1)}) == 2


def test_every_field_takes_part_in_eq_hash_and_repr():
    fixed = fixed_points(AffineTorusMap.of(QUARTER_TURN))
    same = FixedPointSet(fixed.kind, fixed.points)
    assert FixedPointSet._fields == ("kind", "points")
    assert fixed == same and hash(fixed) == hash(same)
    assert repr(fixed) == repr(same) == REPRS["fixed"]
    assert FixedPointSet("empty") != FixedPointSet("finite")
    assert fixed != FixedPointSet("finite", fixed.points[1:])
    for other in (Pair(2, (3,)), Pair(1, (4,))):
        assert other != Pair(1, (3,)) and hash(other) != hash(Pair(1, (3,)))
    assert repr(Pair(1, (3,))) == "Pair(x=1, y=(3,))"


def test_assignment_and_deletion_raise():
    config = parse_config("2A1+A3+D4")
    with pytest.raises(AttributeError):
        config.a = ()
    with pytest.raises(AttributeError):
        config.new_name = 1
    with pytest.raises(AttributeError):
        del config.a
    assert config.rank == 9  # cached properties still fill in
    with pytest.raises(AttributeError):
        config.rank = 10
    assert repr(config) == REPRS["config"]


def test_replace_runs_post_init_again():
    config = parse_config("2A1+A3+D4")
    changed = config.replace(a=((3, 2), (1, 0), (2, 1)))
    assert changed.a == ((2, 1), (3, 2))  # sorted, zero counts dropped
    assert changed.d == config.d and changed.render() == "A2+2A3+D4"
    assert repr(config) == REPRS["config"]  # the original is unchanged
    with pytest.raises(InvalidComponent):
        config.replace(d=((3, 1),))
    with pytest.raises(ValueError):
        config.replace(a=((1, -1),))
    lat = GramLattice(((-2,),))
    with pytest.raises(ValueError, match="label count"):
        lat.replace(gram=[[-2, 1], [1, -2]])  # keeps the one label
    wider = lat.replace(gram=[[-2, 1], [1, -2]], basis_labels=())
    assert (wider.gram, wider.basis_labels) == (((-2, 1), (1, -2)), ("e1", "e2"))  # made again
    with pytest.raises(TypeError, match="unexpected keyword argument 'f'"):
        config.replace(f=())


@pytest.mark.parametrize(
    "args,kwargs,message",
    [
        ((), {}, "missing field 'x'"),
        ((), {"y": (1,)}, "missing field 'x'"),
        ((1,), {"z": 2}, "unexpected keyword argument 'z'"),
        ((1,), {"x": 2}, "multiple values for field 'x'"),
        ((1, (2,), 3), {}, "takes 2 positional arguments but 3 were given"),
    ],
)
def test_bad_fields_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Pair(*args, **kwargs)


def test_positional_keyword_and_default_construction_agree():
    assert Pair(1, ()) == Pair(1) == Pair(x=1) == Pair(y=(), x=1)
    assert Pair(1).y == ()
    assert Pair._fields == ("x", "y")
    step = ObstructionStep("RankExceeds", (("rank", "20"),))
    assert step.replace() == step and step.replace() is not step
    assert step.replace(kind="Other").kind == "Other"


def test_records_survive_pickling():
    fixed = fixed_points(AffineTorusMap.of(QUARTER_TURN))
    config = parse_config("2A1+A3+D4")
    for record in (fixed, config, Pair(1, (Fraction(1, 2),))):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and repr(copy) == repr(record)


def test_import_loads_no_dataclasses_inspect_or_json():
    # a fresh interpreter without site, so nothing but the package imports
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import kummerlat; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'json') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""
