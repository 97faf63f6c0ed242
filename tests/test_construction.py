"""The construction rule: a checked value object is checked when it is built,
read-only after it, and a pickle or a copy of it is built again through its
constructor."""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
import re
import sys
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

import numpy as np
import pytest

import gptlab
from gptlab import Acceptor, distribution
from gptlab.core import _Checked
from gptlab.querylab import OracleFunction
from gptlab.serialization import parse_circuit, parse_family, parse_machine, parse_theory

from conftest import reachable, same_value

DATA = Path(gptlab.__file__).parent / "data"


def _subclasses(cls) -> set[type]:
    """The subclasses of ``cls`` its modules name (not the class a slotted
    dataclass was made from)."""
    found = set()
    for sub in cls.__subclasses__():
        if getattr(sys.modules[sub.__module__], sub.__name__) is sub:
            found |= {sub, *_subclasses(sub)}
    return found


def _cached(cls) -> list[str]:
    """The names of the cached properties ``cls`` has, its bases' included."""
    return [name for c in cls.__mro__ for name, attr in vars(c).items()
            if isinstance(attr, cached_property)]


def checked_instances() -> list:
    """One instance of each subclass of the base, from a built-in theory and
    the bundled data, each with its state built on first use already built."""
    rebit = parse_theory(DATA / "theory_rebit.json")
    circuit, first_is_0 = parse_circuit(DATA / "circuit_coin.json")
    machine = parse_machine(DATA / "machine_branch.json")
    table = Acceptor.from_table({z: 0 for z in distribution(circuit)}, circuit)
    pair = rebit.state("phi_plus")
    out = [rebit.system(), pair.system, pair, rebit.effect("u"), rebit.gate("h").outcomes["0"],
           rebit.carrier, rebit, rebit.gate("measure"), machine.transitions[("q0", "_")][0],
           machine, parse_family(DATA / "family_qutrit.json"), OracleFunction((0, 1, 1, 0)),
           first_is_0, table]
    for obj in out:  # every cached property, built
        for name in _cached(type(obj)):
            getattr(obj, name)
    return out


ROUND_TRIPS = {"pickle": lambda o: pickle.loads(pickle.dumps(o)), "copy": copy.copy,
               "deepcopy": copy.deepcopy}


def _refuses_writes(a: np.ndarray) -> bool:
    try:
        a.setflags(write=True)
    except ValueError:
        return not a.flags.writeable
    return False


def test_the_instances_cover_every_checked_class():
    assert {type(o) for o in checked_instances()} == _subclasses(_Checked)


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_a_pickle_or_copy_comes_back_equal_read_only_and_unbuilt(how):
    mappings = 0
    for obj in checked_instances():
        again = ROUND_TRIPS[how](obj)
        # same_value compares types too, so a read-only mapping comes back read-only
        assert type(again) is type(obj) and same_value(again, obj), type(obj).__name__
        for o in reachable(again):
            if isinstance(o, np.ndarray):
                assert _refuses_writes(o), type(obj).__name__
            mappings += type(o) is MappingProxyType
            # what a shallow copy shares with the original is not its own
            if o is again or how != "copy":
                built = [name for name in _cached(type(o)) if name in getattr(o, "__dict__", {})]
                assert not built, (type(obj).__name__, built)
    assert mappings >= 4  # a gate's outcomes, a machine's transitions, a family, a table


def _constructor_error(obj) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        type(obj)(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))
    return type(info.value), str(info.value)


def _forced(obj, name: str, value):
    """A fresh copy of ``obj`` with field ``name`` forced to ``value`` past its check."""
    bad = copy.copy(obj)
    object.__setattr__(bad, name, value)
    return bad


def forced_instances() -> list:
    """One instance of each checked class with a field forced past its check."""
    (system, pair_type, state, effect, matrix, carrier, theory, gate, branch, machine, family,
     oracle, *_) = checked_instances()
    nan = state.coords.copy()
    nan[1] = np.nan
    return [_forced(system, "dim", 0), _forced(pair_type, "dim", 8),  # below 3 * 3
            _forced(state, "coords", nan),
            _forced(effect, "coords", np.ones(2)),
            _forced(matrix, "matrix", np.full((3, 3), np.inf)),
            _forced(carrier, "basis", 2 * carrier.basis),
            _forced(theory, "deterministic_effects", {}),
            _forced(gate, "outcomes", MappingProxyType({})),
            _forced(branch, "move", "X"), _forced(machine, "initial", "nowhere"),
            _forced(family, "n_slits", family.n_slits + 1), _forced(oracle, "table", (2,))]


def test_the_forced_instances_cover_every_class_with_a_check():
    assert {type(o) for o in forced_instances()} == _subclasses(_Checked) - {Acceptor}


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_a_pickle_or_copy_runs_the_constructors_checks_again(how):
    for bad in forced_instances():
        error, message = _constructor_error(bad)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            ROUND_TRIPS[how](bad)
    # the acceptor checks nothing, but holds its table read-only again
    acceptor = checked_instances()[-1]
    writable = _forced(acceptor, "table", dict(acceptor.table))
    assert type(ROUND_TRIPS[how](writable).table) is MappingProxyType


def test_every_checked_dataclass_takes_the_construction_rule():
    # a dataclass whose __post_init__ checks or freezes a field subclasses the
    # base, and the constructor takes every field, so the base's __reduce__
    # builds it again from all of them
    checked = set()
    for info in pkgutil.iter_modules(gptlab.__path__):
        if info.name.startswith("__"):
            continue
        module = importlib.import_module(f"gptlab.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__
                    and dataclasses.is_dataclass(cls) and hasattr(cls, "__post_init__")):
                assert issubclass(cls, _Checked), cls.__name__
                assert all(f.init for f in dataclasses.fields(cls)), cls.__name__
                checked.add(cls)
    assert checked == _subclasses(_Checked)
