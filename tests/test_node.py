import pytest

import epiflow.domain
import epiflow.fuzz
import epiflow.model
import epiflow.policies
import epiflow.policyfile
import epiflow.report
import epiflow.verdicts
from conftest import assert_node_contract, node_classes
from epiflow.domain import Domain, Label
from epiflow.fuzz import FuzzConfig, FuzzSummary, Mismatch
from epiflow.lang import Code, Var, parse
from epiflow.logic import _Block
from epiflow.model import Execution, Model, ModelConfig, Point, RunClass, Status, build_model
from epiflow.node import Node
from epiflow.policies import FlowSpec, InitPredicate, ReleaseSpec, TemporalDeclassification
from epiflow.policyfile import Check, CheckRun, Policy
from epiflow.report import Report
from epiflow.verdicts import Outcome, Stats, Verdict, Witness

INT4 = Domain.integers(4)
RUN = Execution(0, {}, None, {}, Status.TERMINATED, None, [0, 1])
OTHER_RUN = Execution(1, {}, None, {}, Status.TERMINATED, None, [0, 1])
FUZZ = (3, 10, 4, 2, INT4, ("nid-akd",), True, 100)
FUZZ_OTHERS = (4, 11, 5, 3, Domain.booleans(), ("oni-ak",), False, 101)

# each value record, with one valid instance's fields and others, where
# the class checks its fields (None: a string per field, each changed once)
RECORDS = {
    Label: None,
    Domain: (("int", 4, False, None),
             [("bool", 2, False, None), ("int", 5, False, None), ("int", 4, True, None),
              ("int", 4, False, (0, 3, 2, 1))]),
    ModelConfig: ((INT4, 100, True),
                  [(Domain.booleans(), 100, True), (INT4, 101, True), (INT4, 100, False)]),
    Point: ((RUN, 1), [(OTHER_RUN, 1), (RUN, 0)]),
    FlowSpec: None,
    InitPredicate: None,
    ReleaseSpec: (((("r", Var("x")),),), [((("s", Var("x")),),)]),
    TemporalDeclassification: None,
    Check: None,
    Policy: None,
    Witness: None,
    Stats: None,
    Verdict: None,
    FuzzConfig: (FUZZ, [FUZZ[:k] + (other,) + FUZZ[k + 1:]
                        for k, other in enumerate(FUZZ_OTHERS)]),
    Mismatch: None,
    Report: None,
}


class TestRecords:
    """The value records are ``Node`` classes that behave as the frozen
    dataclasses they replace; the identity records are plain slotted
    classes."""

    def test_every_record_class_is_covered(self):
        modules = (epiflow.domain, epiflow.model, epiflow.policies, epiflow.policyfile,
                   epiflow.verdicts, epiflow.fuzz, epiflow.report)
        assert {cls for m in modules for cls in node_classes(m)} == set(RECORDS)

    @pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
    def test_contract(self, cls):
        values, variants = RECORDS[cls] or (None, ())
        assert_node_contract(cls, values, variants)

    @pytest.mark.parametrize("cls", [Code, _Block, Execution, RunClass, CheckRun, FuzzSummary],
                             ids=lambda cls: cls.__name__)
    def test_identity_records_have_slots_only(self, cls):
        assert "__dict__" not in cls.__slots__ and not issubclass(cls, Node)

    def test_a_model_keeps_a_dict_for_its_cached_properties(self):
        m = build_model(parse("x := y; out y"), ModelConfig(Domain.booleans()))
        assert not issubclass(Model, Node)
        assert m.point_count == 12 and set(vars(m)) == {"class_mask", "point_count"}
        assert m != build_model(m.program, m.cfg)  # by identity

    def test_a_run_leaves_its_model_out_of_its_repr(self):
        m = build_model(parse("out y"), ModelConfig(Domain.booleans()))
        ex = m.runs[0]
        assert ex.model is m
        assert repr(ex) == ("Execution(index=0, init_store={'y': True}, stores=[{'y': True}, "
                            "{'y': True}], final_store={'y': True}, "
                            "status=<Status.TERMINATED: 'terminated'>, lasso_entry=None, "
                            "trace_ids=[0, 1])")

    def test_a_programs_text_is_not_compared(self):
        a, b = parse("out 1", INT4), parse("out  1", INT4)
        assert a.text != b.text and a == b and hash(a) == hash(b)
        assert a._replace(text=None) == a and a._replace(text=None).text is None

    def test_cached_properties_are_no_fields(self):
        program = parse("x := y; release r")
        assert program.variables == ("x", "y") and program.flags == ("r",)
        assert set(vars(program)) == {"variables", "flags"}
        assert program == parse("x := y; release r") and repr(program).startswith(
            "Program(body=Seq(")


class TestValidation:
    """A record's ``_validate`` checks every new instance, however made,
    with the messages its dataclass's ``__post_init__`` gave."""

    @pytest.mark.parametrize("make, message", [
        (lambda: ModelConfig(INT4, 0), "step bound must be at least 1"),
        (lambda: ModelConfig(INT4, bound=0), "step bound must be at least 1"),
        (lambda: ModelConfig(INT4)._replace(bound=0), "step bound must be at least 1"),
        (lambda: Point(RUN, 2), "point index 2 outside the execution"),
        (lambda: Point(index=-1, execution=RUN), "point index -1 outside the execution"),
        (lambda: ReleaseSpec((("r", Var("x")), ("r", Var("y")))), "duplicate release flag"),
        (lambda: Domain("int", 1), "integer domain needs at least two values"),
        (lambda: Domain("int", 4, hash_table=(0, 1)), "one output per value"),
        (lambda: INT4._replace(kind="real"), "unknown domain kind 'real'"),
        (lambda: FuzzConfig(count=-1), "count must not be negative"),
        (lambda: FuzzConfig(pairs=("ni-ak",)), "unknown pair 'ni-ak'"),
        (lambda: FuzzConfig()._replace(ident_count=4), "ident_count must be between 1 and 3"),
    ])
    def test_each_way_of_making_a_record_is_checked(self, make, message):
        with pytest.raises(ValueError, match=message):
            make()


class TestNode:
    """What ``Node`` gives a subclass beyond the syntax nodes' contract."""

    class Pair(Node):
        __slots__ = ("a", "b")
        _defaults = {"b": 2}

    class Wide(Node):  # more fields than the fixed-arity initializers take
        __slots__ = ("a", "b", "c", "d", "e", "f", "g")
        _defaults = {"f": 6, "g": 7}

    @pytest.mark.parametrize("cls", [Pair, Wide], ids=lambda cls: cls.__name__)
    def test_fields_by_position_keyword_or_default(self, cls):
        names = cls.__match_args__
        given = len(names) - len(cls._defaults)
        node = cls(*range(1, given + 1))
        assert tuple(getattr(node, n) for n in names) == tuple(range(1, len(names) + 1))
        assert cls(**{n: k for k, n in enumerate(names, 1)}) == node
        assert cls(*range(1, given), **{names[given - 1]: given}) == node
        assert node._replace(**{names[0]: 0}) == cls(0, *range(2, given + 1))

    @pytest.mark.parametrize("cls", [Pair, Wide], ids=lambda cls: cls.__name__)
    def test_a_field_is_given_once_and_by_its_name(self, cls):
        names = cls.__match_args__
        full = tuple(range(len(names)))
        for args, kwargs in [((), {}), (full + (0,), {}), (full, {names[0]: 0}),
                             (full, {"z": 0}), ((0,) * (len(names) - len(cls._defaults)),
                                                {"z": 0})]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*full)._replace(z=0)

    def test_defaults_are_for_the_last_fields(self):
        with pytest.raises(TypeError, match="last fields"):
            type("Early", (Node,), {"__slots__": ("a", "b"), "_defaults": {"a": 1}})

    def test_validation_sees_every_field(self):
        seen = []

        class Checked(Node):
            __slots__ = ("a", "b", "c", "d", "e", "f", "g")
            _defaults = {"g": 7}

            def _validate(self):
                seen.append(self._values(self))

        Checked(1, 2, 3, 4, 5, 6)._replace(a=0)
        assert seen == [(1, 2, 3, 4, 5, 6, 7), (0, 2, 3, 4, 5, 6, 7)]

    def test_verdicts_share_one_empty_stats(self):
        assert Verdict(Outcome.HOLDS).stats is Verdict(Outcome.FAILS).stats == Stats(0, 0, 0)
