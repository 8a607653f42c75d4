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
from epiflow.lang import Const, Node, parse
from epiflow.model import ModelConfig, build_model, results_model
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


def assert_node_contract(cls: type) -> None:
    """``cls`` behaves as the frozen dataclass of the same name and fields,
    which it is not, and its instances have no ``__dict__``."""
    fields = tuple(f"{name}-value" for name in cls.__slots__)
    node = cls(*fields)
    twin = dataclasses.make_dataclass(cls.__qualname__, cls.__slots__, frozen=True)(*fields)
    assert not dataclasses.is_dataclass(cls)
    assert not hasattr(node, "__dict__")
    assert cls.__match_args__ == cls.__slots__
    assert tuple(getattr(node, name) for name in cls.__slots__) == fields
    assert node == cls(*fields) and hash(node) == hash(fields) == hash(twin)
    assert repr(node) == repr(twin)
    assert node != twin  # equality goes by type
    for k, name in enumerate(cls.__slots__):
        assert node != cls(*fields[:k], "other", *fields[k + 1:])
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(node, name, "other")
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert tuple(getattr(node, name) for name in cls.__slots__) == fields
    assert copy.deepcopy(node) == node == pickle.loads(pickle.dumps(node))


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
