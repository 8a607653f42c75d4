import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import epiflow.lang
import oracles
from conftest import assert_node_contract, garbage_after, node_classes
from epiflow.domain import Domain, Label
from epiflow.fuzz import FuzzConfig, generate_program
from epiflow.lang import (ASSIGN, BRANCH, EXIT, MAX_DEPTH, OUT, Assign, Binary,
                          Const, HashCall, If, LangError, Out, ParseError, Seq,
                          Skip, Unary, Var, While, compile_expr, compile_program,
                          expr_ids, expr_to_source, live_inputs, parse, parse_expression,
                          program_from_body, to_source, validate_expr)

BOOL = Domain.booleans()
INT16 = Domain.integers(16)
INT8 = Domain.integers(8)


class TestNodes:
    """Expression and statement nodes are slotted ``Node`` classes that
    behave as the frozen dataclasses they replace."""

    def test_every_node_class_is_covered(self):
        names = {cls.__name__ for cls in node_classes(epiflow.lang)}
        assert names == {"Expr", "Const", "Var", "Unary", "Binary", "HashCall", "Stmt", "Skip",
                         "Out", "OutLit", "Assign", "Seq", "If", "While", "Release", "_Token"}

    @pytest.mark.parametrize("cls", node_classes(epiflow.lang), ids=lambda cls: cls.__name__)
    def test_contract(self, cls):
        assert_node_contract(cls)

    def test_equality_goes_by_type_and_fields(self):
        assert Var("x") != Const("x")
        assert Out(Var("x")) != Out(Const("x"))
        assert Skip() == Skip() and hash(Skip()) == hash(())
        assert Const(True) == Const(1)  # as the field tuples compare
        assert {Binary("+", Var("x"), Const(1)), Binary("+", Var("x"), Const(1))} == {
            Binary("+", Var("x"), Const(1))}

    def test_match_patterns_read_the_fields_in_order(self):
        match parse_expression("x + 1"):
            case Binary(op, Var(name), Const(value)):
                assert (op, name, value) == ("+", "x", 1)
            case _:
                pytest.fail("no match")

    def test_construction_takes_each_field_once(self):
        with pytest.raises(TypeError):
            Binary("+", Var("x"))
        with pytest.raises(TypeError):
            Skip(Var("x"))

    def test_fields_must_be_a_tuple_of_slots(self):
        from epiflow.lang import Expr

        with pytest.raises(TypeError, match="tuple __slots__"):
            type("Loose", (Expr,), {})
        with pytest.raises(TypeError, match="tuple __slots__"):
            type("Named", (Expr,), {"__slots__": "name"})


class TestParse:
    def test_copy_then_out(self):
        program = parse("x:=y; out y")
        assert program.body == Seq(Assign("x", Var("y")), Out(Var("y")))
        assert [i.name for i in program.signature] == ["x", "y"]
        assert not any(i.is_flag for i in program.signature)

    def test_skip_has_empty_signature(self):
        program = parse("skip")
        assert program.body == Skip()
        assert program.signature == ()

    def test_branch_on_secret(self):
        program = parse("if h == 0 then { out 1 } else { out 2 }")
        assert program.body == If(
            Binary("==", Var("h"), Const(0)), Out(Const(1)), Out(Const(2)))

    def test_release_flags_are_marked(self):
        program = parse("l := h1; release r1; out l")
        kinds = {i.name: i.is_flag for i in program.signature}
        assert kinds == {"l": False, "h1": False, "r1": True}
        assert program.flags == ("r1",)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("x :=\n:= y")
        assert err.value.line == 2

    def test_release_flag_in_expression_rejected(self):
        with pytest.raises(LangError, match="release flag"):
            parse("release r1; out r1")

    def test_release_flag_assignment_rejected(self):
        with pytest.raises(LangError, match="release flag"):
            parse("release r1; r1 := tt")

    def test_arithmetic_rejected_in_boolean_domain(self):
        with pytest.raises(LangError):
            parse("x := y + y", BOOL)

    def test_int_literal_rejected_in_boolean_domain(self):
        with pytest.raises(LangError, match="literal"):
            parse("if 3 then { skip } else { skip }", BOOL)

    def test_literal_out_of_range(self):
        with pytest.raises(LangError, match="literal"):
            parse("out 9", Domain.integers(4))

    def test_negative_literal_in_signed_window(self):
        program = parse("out -2", Domain.integers(4, signed=True))
        assert program.body == Out(Const(-2))

    def test_trailing_semicolon_and_comments(self):
        program = parse("# leading\nout 1;  # trailing comment\n", INT8)
        assert program.body == Out(Const(1))

    def test_string_output(self):
        program = parse('out "ok"', INT8)
        assert to_source(program.body) == 'out "ok"'

    def test_chained_comparison_rejected(self):
        with pytest.raises(ParseError, match="chain"):
            parse_expression("1 == 2 == 3")

    def test_roundtrip_through_source(self):
        text = 'if x < h then { out x; x := x + 1 } else { skip }; release r'
        program = parse(text, INT8)
        assert parse(to_source(program.body)).body == program.body

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([BOOL, Domain.integers(4),
                                                   Domain.integers(4, signed=True)]),
           st.booleans(), st.integers(0, 2))
    def test_source_is_a_fixed_point_through_parse(self, seed, dom, loops, flags):
        # the parser groups ";" its own way, so the statements are compared
        # with the grouping flattened
        cfg = FuzzConfig(seed=1, count=1, size=10, ident_count=3, domain=dom, loops=loops)
        program = generate_program(random.Random(seed), cfg,
                                   release_flags=("r1", "r2")[:flags])
        text = to_source(program.body, dom)
        again = parse(text, dom)
        assert to_source(again.body, dom) == text
        assert again.signature == program.signature
        assert flat_statements(again.body) == flat_statements(program.body)

    def test_signature_views_are_computed_once(self):
        program = parse("release r; out x; x := y", BOOL)
        assert program.flags is program.flags and program.flags == ("r",)
        assert program.variables is program.variables and program.variables == ("x", "y")
        # the cached tuples are no fields: equality and hashing ignore them
        other = parse("release r; out x; x := y", BOOL)
        assert program == other and hash(program) == hash(other)
        assert "flags" not in vars(other)


def flat_statements(s) -> tuple:
    """The statements of a ``;`` chain, however it is nested, with the
    bodies of ``if`` and ``while`` flattened the same way."""
    if isinstance(s, Seq):
        return flat_statements(s.first) + flat_statements(s.second)
    if isinstance(s, If):
        return (("if", s.guard, flat_statements(s.then), flat_statements(s.orelse)),)
    if isinstance(s, While):
        return (("while", s.guard, flat_statements(s.body)),)
    return (s,)


def eval_expr(store: dict, e, dom: Domain):
    return compile_expr(e, dom)(store)


class TestEval:
    def test_boolean_table(self):
        e = parse_expression("x && y")
        assert eval_expr({"x": True, "y": False}, e, BOOL) is False
        assert eval_expr({"x": True, "y": True}, e, BOOL) is True

    def test_wraparound_product(self):
        e = parse_expression("2 * l * h")
        assert eval_expr({"l": 2, "h": 1}, e, INT16) == 4
        assert eval_expr({"l": 5, "h": 2}, e, INT16) == 4  # 20 mod 16

    def test_hash_table_lookup(self):
        # xor-by-5 table; expected value computed directly from the table
        table = tuple(v ^ 5 for v in range(8))
        dom = Domain.integers(8, hash_table=table)
        e = parse_expression("hash(h) mod 2")
        expected = ((5 ^ 5) % 8) % 2
        assert eval_expr({"h": 5}, e, dom) == expected == 0

    def test_default_hash_is_odd_multiplier(self):
        assert eval_expr({"h": 3}, HashCall(Var("h")), INT8) == (3 * 3) % 8

    def test_mod_by_zero_is_identity(self):
        e = parse_expression("h mod k")
        assert eval_expr({"h": 5, "k": 0}, e, INT8) == 5

    def test_signed_window_comparisons(self):
        dom = Domain.integers(8, signed=True)
        e = parse_expression("h >= 0")
        assert eval_expr({"h": -4}, e, dom) == 0
        assert eval_expr({"h": 3}, e, dom) == 1

    def test_bool_literals_in_int_domain(self):
        assert eval_expr({}, Const(True), INT8) == 1
        assert eval_expr({"x": 1}, parse_expression("x == true"), INT8) == 1

    @given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
    def test_eval_matches_plain_arithmetic(self, a, b, c):
        e = parse_expression("(x + y) * z - y")
        store = {"x": a, "y": b, "z": c}
        assert eval_expr(store, e, INT16) == ((a + b) * c - b) % 16

    @given(st.integers(0, 7), st.integers(0, 7))
    def test_eval_is_pure(self, a, b):
        e = parse_expression("x * y + x")
        store = {"x": a, "y": b}
        first = eval_expr(store, e, INT8)
        assert eval_expr(store, e, INT8) == first
        assert store == {"x": a, "y": b}


class TestStep:
    """The compiled program: one instruction per step, ``skip`` and ``;`` gone."""

    def test_out_emits_and_preserves_store(self):
        code = compile_program(parse("out y"), BOOL)
        op, fn, name, nxt, _ = code.instrs[code.entry]
        store = {"y": True}
        assert (op, name, nxt) == (OUT, None, EXIT)
        assert fn(store) is True and store == {"y": True}

    def test_skip_is_terminal(self):
        code = compile_program(parse("skip"), BOOL)
        assert code.entry == EXIT and code.instrs == ()

    def test_while_unrolls_without_event(self):
        code = compile_program(parse("while tt do { skip }"), BOOL)
        op, guard, _, body, after = code.instrs[code.entry]
        assert op == BRANCH and guard({}) is True
        assert (body, after) == (code.entry, EXIT)  # the empty body loops back

    def test_sequence_counts_base_statements(self):
        # two transitions for assign-then-out, as in the warm-up model
        code = compile_program(parse("x := y; out y"), BOOL)
        assign = code.instrs[code.entry]
        assert (assign[0], assign[2]) == (ASSIGN, "x")
        assert assign[1]({"x": False, "y": True}) is True
        out = code.instrs[assign[3]]
        assert (out[0], out[3]) == (OUT, EXIT)
        assert len(code.instrs) == 2

    def test_skip_chain_terminates(self):
        code = compile_program(parse("skip; skip; skip"), BOOL)
        assert code.entry == EXIT and code.instrs == ()

    def test_release_sets_flag(self):
        code = compile_program(parse("release r"), BOOL)
        op, fn, name, nxt, _ = code.instrs[code.entry]
        assert (op, name, nxt) == (ASSIGN, "r", EXIT)
        assert fn({"r": False}) is True

    def test_determinism(self):
        def shape(code):
            return code.entry, [(op, name, nxt, other)
                                for op, _, name, nxt, other in code.instrs]

        program = parse("if x then { out x } else { x := y }")
        first = compile_program(program, BOOL)
        assert shape(first) == shape(compile_program(program, BOOL))
        op, guard, _, then, orelse = first.instrs[first.entry]
        assert op == BRANCH and first.instrs[then][0] == OUT
        assert first.instrs[orelse][:3:2] == (ASSIGN, "x")
        assert guard({"x": True, "y": False}) is True

    def test_string_output_event(self):
        code = compile_program(parse('out "ok"', INT8), INT8)
        op, fn, _, _, _ = code.instrs[code.entry]
        assert op == OUT and fn({}) == Label("ok")


NAMES = ("x", "y", "z")


def expressions(dom: Domain):
    """Random expressions the domain accepts, over ``NAMES``."""
    if dom.kind == "bool":
        leaves = st.one_of(st.sampled_from(NAMES).map(Var),
                           st.booleans().map(Const))
        ops = ["&&", "||", "==", "!="]
        unary = ["!"]
    else:
        leaves = st.one_of(st.sampled_from(NAMES).map(Var),
                           st.sampled_from(dom.values).map(Const),
                           st.booleans().map(Const))
        ops = ["&&", "||", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "mod"]
        unary = ["!", "-"]

    def grow(inner):
        return st.one_of(
            st.tuples(st.sampled_from(ops), inner, inner).map(lambda t: Binary(*t)),
            st.tuples(st.sampled_from(unary), inner).map(lambda t: Unary(*t)),
            inner.map(HashCall))

    return st.recursive(leaves, grow, max_leaves=8)


DOMAINS = {
    "bool": BOOL,
    "int4": Domain.integers(4),
    "sint8": Domain.integers(8, signed=True),
    "int4-hash": Domain.integers(4, hash_table=(2, 0, 3, 1)),
    "bool-hash": Domain("bool", 2, False, (False, True)),
}


class TestCompiledExpressions:
    """compile_expr agrees with the reference interpreter in tests/oracles.py."""

    @pytest.mark.parametrize("label", DOMAINS)
    def test_agrees_with_reference(self, label):
        dom = DOMAINS[label]
        stores = st.fixed_dictionaries({n: st.sampled_from(dom.values) for n in NAMES})

        @given(expressions(dom), stores)
        def agree(e, store):
            assert compile_expr(e, dom)(store) == oracles.eval_expr(store, e, dom)

        agree()

    @pytest.mark.parametrize("text, store, value", [
        ("x mod 0", {"x": 3}, 3),
        ("x mod y", {"x": 3, "y": 0}, 3),
        ("x mod y", {"x": -3, "y": 2}, 1),
        ("-x", {"x": -4}, -4),  # the window's least value negates to itself
        ("x * x", {"x": -4}, 0),
        ("x + y", {"x": 3, "y": 3}, -2),
        ("hash(x)", {"x": 3}, 1),  # 9 wraps to 1
        ("!x", {"x": 0}, 1),
        ("x >= 0 && y < 0", {"x": 0, "y": -1}, 1),
    ])
    def test_signed_int8_edges(self, text, store, value):
        dom = DOMAINS["sint8"]
        e = parse_expression(text)
        assert compile_expr(e, dom)(store) == value == oracles.eval_expr(store, e, dom)


class TestExpressionIdentifiers:
    def test_first_occurrence_order(self):
        e = parse_expression("(b + -a) * hash(c + b) == a")
        assert expr_ids(e) == ("b", "a", "c")
        assert expr_ids(Var("x")) == ("x",) and expr_ids(Const(3)) == ()

    @pytest.mark.parametrize("left", [True, False], ids=["left-nested", "right-nested"])
    def test_deep_expressions_leave_no_cycles(self, left):
        # an explicit stack, not a recursive closure: deeper than the
        # interpreter's recursion limit, and no function left in a cycle
        e = Const(0)
        for k in range(2000):
            leaf = Unary("-", Var(f"v{k % 7}")) if k % 2 else HashCall(Var(f"v{k % 7}"))
            e = Binary("+", e, leaf) if left else Binary("*", leaf, e)
        order = range(2000) if left else reversed(range(2000))
        ids, garbage = garbage_after(lambda: expr_ids(e))
        assert ids == tuple(dict.fromkeys(f"v{k % 7}" for k in order))
        assert garbage == []


# a dead input (x), a loop, both branches of an if, a release and a label
CYCLE_FREE = ("x := 0; while x < h do { out l; x := x + 1 }; "
              "if l > 1 then { out l + x } else { skip }")


class TestNoReferenceCycles:
    """Compiling a program and finding its live inputs leave nothing that
    only the cyclic collector frees."""

    @pytest.mark.parametrize("text", [CYCLE_FREE, CYCLE_FREE + '; release r; out "done"'],
                             ids=["loop-if", "release-label"])
    def test_compile_program(self, text):
        dom = Domain.integers(4)
        program = parse(text, dom)
        code, garbage = garbage_after(lambda: compile_program(program, dom))
        assert garbage == []
        assert [op for op, *_ in code.instrs].count(BRANCH) == 2

    @pytest.mark.parametrize("text, live", [
        (CYCLE_FREE, {"h", "l"}),
        # every input read: the pass stops early, by an exception
        ("out h; if l > 1 then { out x } else { skip }; out l", {"h", "l", "x"}),
    ], ids=["dead-x", "all-live"])
    def test_live_inputs(self, text, live):
        program = parse(text, Domain.integers(4))
        found, garbage = garbage_after(lambda: live_inputs(program))
        assert found == live and garbage == []


class TestLiveInputs:
    @pytest.mark.parametrize("text, live", [
        # a write first
        ("x := 0; out x", ""),
        ("x := 0; y := 1; out x + y", ""),
        ("x := x + 1; out x", "x"),
        ("y := hash(x); x := y; out x", "x"),
        # writes on both branches of an if, or on one
        ("if h then { x := 0 } else { x := 1 }; out x", "h"),
        ("if h then { if l then { x := 0 } else { x := 1 } } else { x := 2 }; out x", "h l"),
        ("if h then { x := 0 } else { skip }; out x", "h x"),
        ("if h then { out x; x := 0 } else { x := 1 }; out x", "h x"),
        # a write after an output
        ("out l; x := l; out x", "l"),
        ("out h; x := 1; out x", "h"),
        # a write only inside a loop, whose body may not run
        ("while h do { x := 0 }; out x", "h x"),
        ("while h do { x := 0; out x }", "h"),
        ("while x < 3 do { x := 0 }", "x"),
        ("while h do { out x; x := 0 }", "h x"),
        # never read at all
        ("if h then { out 1 } else { out 2 }; x := h", "h"),
        # release flags are never inputs
        ("release r; out l", "l"),
        ("out \"text\"", ""),
    ])
    def test_inputs_read_before_written(self, text, live):
        assert live_inputs(parse(text)) == set(live.split())

    def test_stops_once_every_input_is_read(self):
        # what follows the first two statements is not a statement
        body = Seq(Assign("l", Var("l")), Seq(Assign("h", Var("h")), Out("not an expression")))
        program = program_from_body(Seq(Assign("l", Var("l")), Assign("h", Var("h"))))
        assert live_inputs(dataclasses.replace(program, body=body)) == {"l", "h"}
        h_unread = Seq(Assign("l", Var("l")), body.second.second)
        with pytest.raises(TypeError):
            live_inputs(dataclasses.replace(program, body=h_unread))


# programs and formulas nested ``depth`` deep in one construct each
NESTED_PROGRAMS = {
    "parentheses": lambda depth: "out " + "(" * depth + "l" + ")" * depth,
    "negation": lambda depth: "out " + "-" * depth + "l",
    "not": lambda depth: "out " + "!" * depth + "tt",
    "hash": lambda depth: "out " + "hash(" * depth + "l" + ")" * depth,
    "blocks": lambda depth: "if l == 0 then { " * depth + "out l" + " } else { skip }" * depth,
    "loops": lambda depth: "while l < 1 do { " * depth + "l := 1" + " }" * depth + "; out l",
    # each operator after the first is a level
    "chain": lambda depth: "out " + " + ".join(["l"] * (depth + 2)),
}
NESTED_FORMULAS = {
    "parentheses": lambda depth: "(" * depth + "l == 0" + ")" * depth,
    "temporal": lambda depth: "F G " * (depth // 2) + "l == 0",
    "knowledge": lambda depth: "K L " * (depth // 2) + "l == 0",
    "not": lambda depth: "!" * depth + "l == 0",
    "quantifiers": lambda depth: "".join(f"{'forall' if k % 2 else 'exists'} v{k} . "
                                         for k in range(depth)) + "l == v0",
    "implications": lambda depth: " -> ".join(["l == 0"] * (depth + 1)),
    "until": lambda depth: " U ".join(["l == 0"] * (depth + 1)),
    "chain": lambda depth: "l == " + " + ".join(["l"] * (depth + 2)),
}
HASHED = Domain.integers(4, hash_table=(1, 2, 3, 0))


class TestNestingDepth:
    """Input nested MAX_DEPTH deep parses, and every later walk of its tree
    runs; one level more is refused at parse time, where it starts."""

    @pytest.mark.parametrize("shape", NESTED_PROGRAMS)
    def test_programs(self, shape):
        from epiflow.model import ModelConfig, build_model

        nested = NESTED_PROGRAMS[shape]
        program = parse(nested(MAX_DEPTH), HASHED)
        compile_program(program, HASHED)
        build_model(program, ModelConfig(HASHED))
        # an input written first and never read keeps the pass to the end
        assert live_inputs(parse("d := 0; " + nested(MAX_DEPTH))) == set(program.variables)
        to_source(program.body, HASHED)
        # equality, hash and repr recurse through the tree too
        again = parse(nested(MAX_DEPTH)).body
        assert program.body == again and hash(program.body) == hash(again)
        assert repr(program.body) == repr(again)
        with pytest.raises(ParseError, match=f"input nested more than {MAX_DEPTH} deep"):
            parse(nested(MAX_DEPTH + 1))

    def test_policy_expressions(self):
        # the negation and the hash call are a level each
        text = "(" * (MAX_DEPTH - 2) + "-hash(l) + 1" + ")" * (MAX_DEPTH - 2)
        expr = parse_expression(text)
        validate_expr(expr, HASHED)
        compile_expr(expr, HASHED)({"l": 1})
        expr_to_source(expr, HASHED)
        assert expr == parse_expression(text) and hash(expr) == hash(parse_expression(text))
        assert repr(expr) == repr(parse_expression(text))
        # refused at the hash call
        with pytest.raises(ParseError, match=f"1:{MAX_DEPTH + 1}: input nested"):
            parse_expression(f"({text})")

    @pytest.mark.parametrize("shape", NESTED_FORMULAS)
    def test_formulas(self, shape):
        from epiflow.logic import (formula_size, formula_to_source, model_satisfies,
                                   parse_formula)
        from epiflow.model import ModelConfig, build_model

        nested = NESTED_FORMULAS[shape]
        f = parse_formula(nested(MAX_DEPTH))
        m = build_model(parse("out l", INT8), ModelConfig(INT8))
        model_satisfies(m, f)
        formula_size(f)
        again = parse_formula(nested(MAX_DEPTH))
        assert f == again and hash(f) == hash(again) and repr(f) == repr(again)
        formula_to_source(f, INT8)
        with pytest.raises(ParseError, match=f"input nested more than {MAX_DEPTH} deep"):
            parse_formula(nested(MAX_DEPTH + 2))
