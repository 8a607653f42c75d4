import copy
import dataclasses
import gc
import pickle
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig
from epiflow.lang import Const, parse
from epiflow.model import ModelConfig, build_model, results_model
from epiflow.node import Node
from epiflow.policies import TemporalDeclassification, encode_aktd
from epiflow.policyfile import Policy, policy_pieces

# the differential sweeps: bool, int:4 with loops, signed int:4 with three
# identifiers and loops
SWEEPS = [
    FuzzConfig(seed=11, count=300),
    FuzzConfig(seed=29, count=300, domain=Domain.integers(4), loops=True),
    FuzzConfig(seed=5, count=300, domain=Domain.integers(4, signed=True),
               ident_count=3, loops=True),
]
SWEEP_IDS = ["bool", "int4-loops", "signed-int4-loops"]


@pytest.fixture(scope="session")
def booleans():
    return Domain.booleans()


@pytest.fixture(scope="session")
def int4():
    return Domain.integers(4)


@pytest.fixture(scope="session")
def copy_out_model(booleans):
    """The two-variable warm-up: x := y; out y over booleans."""
    program = parse("x := y; out y", booleans)
    return build_model(program, ModelConfig(booleans))


@pytest.fixture(scope="session")
def two_release_model(booleans):
    program = parse(
        "l := h1; release r1; out l; l := h2; release r2; out l", booleans)
    return build_model(program, ModelConfig(booleans))


def node_classes(module) -> list[type]:
    """The ``Node`` classes ``module`` defines, its abstract bases included."""
    return [c for c in vars(module).values()
            if isinstance(c, type) and issubclass(c, Node) and c is not Node
            and c.__module__ == module.__name__]


def assert_node_contract(cls: type, values: tuple | None = None, variants: tuple = (),
                         uncompared: tuple = ()) -> None:
    """``cls`` behaves as the frozen dataclass of the same name, fields and
    defaults, which it is not, and its instances have a ``__dict__`` only
    where its ``__slots__`` name one, for cached properties.

    ``values`` are the fields of one valid instance (by default a string
    per field); each of ``variants`` is another, by default ``values`` with
    one field changed at a time.  ``uncompared`` are the fields the twin
    dataclass leaves out of equality and hashing."""
    names = cls.__match_args__
    defaults = cls.__dict__.get("_defaults", {})
    twin = dataclasses.make_dataclass(cls.__qualname__, [
        (name, object, dataclasses.field(compare=name not in uncompared,
                                         **({"default": defaults[name]} if name in defaults
                                            else {})))
        for name in names], frozen=True)
    if values is None:
        values = tuple(f"{name}-value" for name in names)
        variants = [values[:k] + ("other",) + values[k + 1:] for k in range(len(names))]
    node, twin_node = cls(*values), twin(*values)
    assert not dataclasses.is_dataclass(cls)
    assert names == tuple(name for name in cls.__slots__ if name != "__dict__")
    assert hasattr(node, "__dict__") == ("__dict__" in cls.__slots__)
    assert tuple(getattr(node, name) for name in names) == values
    assert cls(**dict(zip(names, values))) == node == cls(*values)
    required = len(names) - len(defaults)
    least, twin_least = cls(*values[:required]), twin(*values[:required])
    assert all(getattr(least, name) == getattr(twin_least, name) for name in names)
    assert repr(node) == repr(twin_node)
    try:
        expected = hash(twin_node)
    except TypeError:
        with pytest.raises(TypeError):
            hash(node)
    else:
        assert hash(node) == expected
    assert node != twin_node  # equality goes by type
    for variant in variants:
        other = cls(*variant)
        assert (other == node) == (twin(*variant) == twin_node)
        assert node._replace(**dict(zip(names, variant))) == other
    for name in names:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(node, name, "other")
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert tuple(getattr(node, name) for name in names) == values
    copies_equal = copy.deepcopy(twin_node) == twin_node
    assert (copy.deepcopy(node) == node) == copies_equal
    assert (pickle.loads(pickle.dumps(node)) == node) == copies_equal


def exec_from(model, **values):
    """Execution starting at the given non-flag values."""
    key = tuple(values[name] for name in model.variables)
    return model.exec_by_values[key]


def declassified(*predicates):
    """``declassify:`` entries as the conditions every check reads:
    ``when: true ==> p`` for each."""
    return tuple(TemporalDeclassification(Const(True), p) for p in predicates)


def abstract_pair(program, dom, low, eta, phi, rho):
    """aak's formula and the model of the runs' results that aak and nani
    judge, composed from the policy's pieces as the check table does."""
    pieces = policy_pieces(Policy("aak", low, eta=eta, phi=phi, rho=rho), program, dom)
    model = results_model(build_model(program, ModelConfig(dom)), pieces["results"])
    return encode_aktd(pieces["fs"], pieces["conditions"], dom), model


def garbage_after(call):
    """``call()``'s result and the objects it left in reference cycles,
    which only the cyclic collector frees (kept by ``gc.DEBUG_SAVEALL``)."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = call()
        gc.collect()
        return result, list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
