"""Acceptance suite: the checks the artifact must get exactly right.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failure).  Verdicts are exact; the two long-running
items carry explicit wall-clock budgets.
"""

import random
import time

from epiflow.domain import Domain
from epiflow.fuzz import FuzzConfig, fuzz_equivalences, generate_program
from epiflow.lang import parse, parse_expression
from epiflow.logic import K, L, Not, model_satisfies, satisfies
from epiflow.model import ModelConfig, Point, accessible, build_model
from epiflow.policies import (FlowSpec, InitPredicate, ReleaseSpec,
                              TemporalDeclassification, encode_ak, encode_akd,
                              encode_aak, encode_akr, encode_aktd, esp, espm)
from epiflow.policyfile import Policy, run_check
from epiflow.semantics import (check_er, check_nani, check_nitd, check_oni,
                               knowledge_set, release_set)
from epiflow.verdicts import Outcome

BOOL = Domain.booleans()
INT4 = Domain.integers(4)
INT8S = Domain.integers(8, signed=True)

HOLDS, FAILS, REFUSED = Outcome.HOLDS, Outcome.FAILS, Outcome.BOUND_EXCEEDED


def confirm(criterion: int, description: str, checks: dict):
    failed = sorted(name for name, good in checks.items() if not good)
    status = "PASS" if not failed else f"FAIL ({', '.join(failed)})"
    print(f"ACCEPTANCE {criterion:>2} {status}: {description}")
    assert not failed, f"criterion {criterion}: {failed}"


def pred(text, dom):
    return InitPredicate.from_expression(parse_expression(text), dom)


def test_criterion_01_output_of_public_vs_secret():
    program = parse("x := y; out y", BOOL)
    m = build_model(program, ModelConfig(BOOL))
    public_y = FlowSpec.from_low(program, ["y"])
    public_x = FlowSpec.from_low(program, ["x"])
    oni_fail = check_oni(m, public_x)
    ak_fail = model_satisfies(m, encode_ak(public_x, BOOL))
    confirm(1, "copied public output holds; echoed secret fails on (tt,ff)", {
        "oni-holds": check_oni(m, public_y).outcome is HOLDS,
        "ak-holds": model_satisfies(m, encode_ak(public_y, BOOL)).outcome is HOLDS,
        "oni-fails": oni_fail.outcome is FAILS,
        "oni-witness": oni_fail.witness.store("second") == {"x": True, "y": False},
        "ak-fails": ak_fail.outcome is FAILS,
        "ak-witness": ak_fail.witness.binding_map == {"x'": True, "y''": False},
    })


def test_criterion_02_zero_test_declassification():
    program = parse("if h == 0 then { out 1 } else { out 2 }", INT4)
    m = build_model(program, ModelConfig(INT4))
    fs = FlowSpec.from_low(program, [])
    weaker = model_satisfies(m, encode_akd(fs, pred("h >= 0", INT4), INT4))
    confirm(2, "zero-test leak; declassifying zeroness heals it, sign does not", {
        "ak-fails": model_satisfies(m, encode_ak(fs, INT4)).outcome is FAILS,
        "akd-zero-holds": model_satisfies(
            m, encode_akd(fs, pred("h == 0", INT4), INT4)).outcome is HOLDS,
        "akd-sign-fails": weaker.outcome is FAILS,
        "witness-pair": weaker.witness.binding_map == {"h'": 0, "h''": 1},
    })


def test_criterion_03_secret_equality():
    program = parse("if h1 then { out !h2 } else { out h2 }", BOOL)
    m = build_model(program, ModelConfig(BOOL))
    fs = FlowSpec.from_low(program, [])
    confirm(3, "equality of two secrets leaks; declassifying it is enough", {
        "ak-fails": model_satisfies(m, encode_ak(fs, BOOL)).outcome is FAILS,
        "akd-holds": model_satisfies(
            m, encode_akd(fs, pred("h1 == h2", BOOL), BOOL)).outcome is HOLDS,
    })


def test_criterion_04_abstract_noninterference():
    cfg = ModelConfig(INT8S)
    secure = parse("if h >= 0 then { l := 2*l*h } else { l := 2*l*h + 1 }", INT8S)
    secure_fs = FlowSpec.from_low(secure, ["l"])
    t1, f1 = encode_aak(secure, secure_fs, "Id", "Sign", "Par", INT8S)
    deceptive = parse("l := 2*l*h*h", INT8S)
    deceptive_fs = FlowSpec.from_low(deceptive, ["l"])
    t2, f2 = encode_aak(deceptive, deceptive_fs, "Par", "Id", "Sign", INT8S)
    confirm(4, "sign-to-parity release holds; deceptive flow fails, both routes", {
        "nani-holds": check_nani(secure, secure_fs, "Id", "Sign", "Par",
                                 cfg).outcome is HOLDS,
        "aak-holds": model_satisfies(build_model(t1, cfg), f1).outcome is HOLDS,
        "nani-fails": check_nani(deceptive, deceptive_fs, "Par", "Id", "Sign",
                                 cfg).outcome is FAILS,
        "aak-fails": model_satisfies(build_model(t2, cfg), f2).outcome is FAILS,
    })


def test_criterion_05_bounded_secret_loop():
    start = time.monotonic()
    program = parse(
        "if (0 <= h) && (h <= max) then {"
        "  x := 0;"
        "  while x < h do { out x; x := x + 1 };"
        "  while x < max do { out x; x := x + 1 }"
        "} else { out 3 }", INT4)
    m = build_model(program, ModelConfig(INT4))
    fs = FlowSpec.from_low(program, ["x", "max"])
    phi = pred("(0 <= h) && (h <= max)", INT4)
    akd = model_satisfies(m, encode_akd(fs, phi, INT4))
    elapsed = time.monotonic() - start
    confirm(5, "secret bounded by max: counting output is declassified", {
        "akd-holds": akd.outcome is HOLDS,
        "under-30s": elapsed < 30.0,
    })


def test_criterion_06_release_points():
    program = parse(
        "l := h1; release r1; out l; l := h2; release r2; out l", BOOL)
    m = build_model(program, ModelConfig(BOOL))
    fs = FlowSpec.from_low(program, ["l"])
    rs = ReleaseSpec((("r1", parse_expression("h1")),
                      ("r2", parse_expression("h2"))))
    s0 = {"l": True, "h1": True, "h2": False}
    low_tt = frozenset((True, a, b) for a in (True, False) for b in (True, False))
    released_h1 = frozenset({(True, True, True), (True, True, False)})

    variant = parse("l := h1; out l; l := h2; release r2; out l", BOOL)
    mv = build_model(variant, ModelConfig(BOOL))
    fsv = FlowSpec.from_low(variant, ["l"])
    rsv = ReleaseSpec((("r2", parse_expression("h2")),))

    confirm(6, "release-then-output holds; dropping the first release fails", {
        "akr-holds": model_satisfies(m, encode_akr(fs, rs, BOOL)).outcome is HOLDS,
        "er-holds": check_er(m, fs, rs).outcome is HOLDS,
        "k-empty": knowledge_set(m, fs, s0, ()) == low_tt,
        "r-empty": release_set(m, fs, rs, s0, ()) == low_tt,
        "k-tt": knowledge_set(m, fs, s0, (True,)) == released_h1,
        "r-tt": release_set(m, fs, rs, s0, (True,)) == released_h1,
        "akr-variant-fails": model_satisfies(
            mv, encode_akr(fsv, rsv, BOOL)).outcome is FAILS,
        "er-variant-fails": check_er(mv, fsv, rsv).outcome is FAILS,
    })


def test_criterion_07_hash_release():
    table = tuple(3 * v % 8 for v in range(8))
    dom = Domain.integers(8, hash_table=table)
    base = ("x := hash(h); if (x mod 2) == in then { l := 0 } else { l := 1 };"
            " release rh; out l")
    rs = ReleaseSpec((("rh", parse_expression("(hash(h) mod 2) == in")),))
    secure = parse(base, dom)
    fs = FlowSpec.from_low(secure, ["in", "l"])
    m = build_model(secure, ModelConfig(dom))
    leaky = parse(base + "; out (x mod 3)", dom)
    ml = build_model(leaky, ModelConfig(dom))
    confirm(7, "hashed-check release holds; extra mod-3 output overshoots it", {
        "akr-holds": model_satisfies(m, encode_akr(fs, rs, dom)).outcome is HOLDS,
        "akr-leak-fails": model_satisfies(
            ml, encode_akr(FlowSpec.from_low(leaky, ["in", "l"]), rs,
                           dom)).outcome is FAILS,
    })


def test_criterion_08_payment():
    start = time.monotonic()
    program = parse(
        'paid := 0;'
        'note := 2 * (note mod 2) + 1;'
        'while paid < cost do { paid := paid + note };'
        'if cost > max then { out "ok" } else { out paid };'
        'out data', INT4)
    m = build_model(program, ModelConfig(INT4))
    fs = FlowSpec.from_low(program, ["paid", "note", "max"])
    tds = (
        TemporalDeclassification(parse_expression("true"),
                                 pred("cost > max", INT4)),
        TemporalDeclassification(parse_expression("cost <= max"),
                                 pred("cost", INT4)),
        TemporalDeclassification(parse_expression("paid >= cost"),
                                 pred("data", INT4)),
    )
    nitd = check_nitd(m, fs, tds)
    aktd = model_satisfies(m, encode_aktd(fs, tds, INT4))
    elapsed = time.monotonic() - start
    confirm(8, "pay-before-data policy holds under both readings", {
        "nitd-holds": nitd.outcome is HOLDS,
        "aktd-holds": aktd.outcome is HOLDS,
        "under-60s": elapsed < 60.0,
    })


def test_criterion_09_equivalence_fuzzing():
    bool_sweep = fuzz_equivalences(FuzzConfig(seed=1, count=200))
    signed = Domain.integers(4, signed=True)
    nani_sweep = fuzz_equivalences(
        FuzzConfig(seed=2, count=200, pairs=("nani-aak",), domain=signed))
    checks = {
        "bool-200-each": bool_sweep.ok and all(
            bool_sweep.per_pair[p] >= 200 for p in bool_sweep.config.pairs),
        "nani-signed-200": nani_sweep.ok and nani_sweep.per_pair["nani-aak"] >= 200,
    }
    if not bool_sweep.ok:
        print(bool_sweep.render())
    if not nani_sweep.ok:
        print(nani_sweep.render())
    confirm(9, "five condition pairs, zero mismatches over 200+ programs each",
            checks)


def test_criterion_10_logic_properties():
    model_count = 50
    s5 = duality = constancy = stability = esp_espm = monotone = True
    rng = random.Random(100)
    for index in range(model_count):
        program = generate_program(
            random.Random(f"acc:{index}"),
            FuzzConfig(seed=1, count=1, size=6, ident_count=2))
        m = build_model(program, ModelConfig(BOOL))
        points = [Point(ex, i) for ex in m.executions
                  for i in range(len(ex) + 1)]
        fs = FlowSpec.from_low(m.program, m.variables[:1])

        sample = rng.sample(points, min(len(points), 8))
        for a in sample:
            for b in sample:
                s5 &= accessible(a, b) == accessible(b, a)
                for c in sample:
                    if accessible(a, b) and accessible(b, c):
                        s5 &= accessible(a, c)

        chosen = m.variables[0]
        know = K(truth_atom(chosen))
        dual = Not(L(Not(truth_atom(chosen))))
        for pt in points:
            duality &= satisfies(m, pt, know) == satisfies(m, pt, dual)
        for epoch_points in m.epochs.values():
            values = {satisfies(m, pt, know) for pt in epoch_points}
            constancy &= len(values) == 1

        from epiflow.logic import Init
        from epiflow.lang import Const
        for value in BOOL.values:
            init = Init(chosen, Const(value))
            for ex in m.executions:
                if satisfies(m, Point(ex, 0), init):
                    stability &= all(satisfies(m, Point(ex, i), init)
                                     for i in range(len(ex) + 1))

        plain = esp(fs, BOOL)
        modulo_empty = espm(fs.low, fs.high, (), BOOL)
        some = (pred(f"{m.variables[-1]} == tt", BOOL),)
        modulo_some = espm(fs.low, fs.high, some, BOOL)
        for pt in points:
            a = satisfies(m, pt, plain)
            esp_espm &= a == satisfies(m, pt, modulo_empty)
            if satisfies(m, pt, modulo_empty):
                monotone &= satisfies(m, pt, modulo_some)

    confirm(10, f"logic laws hold exhaustively on {model_count} random models", {
        "s5-equivalence": s5,
        "knowledge-duality": duality,
        "epoch-constancy": constancy,
        "initial-stability": stability,
        "esp-matches-espm-empty": esp_espm,
        "espm-monotonicity": monotone,
    })


def truth_atom(name):
    from epiflow.lang import Const, Var
    from epiflow.logic import Eq
    return Eq(Var(name), Const(True))


def test_criterion_11_refusal_is_sound():
    lasso = parse("release r; while tt do { skip }; out l", BOOL)
    spun = parse("release r; while x < 3 do { x := x + 1 }; out l", INT4)
    policies = (
        Policy("ak", low=("l",)),
        Policy("oni", low=("l",)),
        Policy("akd", low=("l",), declassify=("l",)),
        Policy("nid", low=("l",), declassify=("l",)),
        Policy("aak", low=("l",), eta="Id", phi="Id", rho="Id"),
        Policy("nani", low=("l",), eta="Id", phi="Id", rho="Id"),
        Policy("akr", low=("l",), releases=(("r", "l"),)),
        Policy("er", low=("l",), releases=(("r", "l"),)),
        Policy("aktd", low=("l",), whens=(("tt", "l"),)),
        Policy("nitd", low=("l",), whens=(("tt", "l"),)),
    )
    checks = {}
    for policy in policies:
        verdict = run_check(lasso, policy, ModelConfig(BOOL)).verdict
        checks[f"lasso-{policy.check}"] = verdict.outcome is REFUSED
        tight = ModelConfig(INT4, bound=2)
        verdict = run_check(spun, policy, tight).verdict
        checks[f"bound-{policy.check}"] = verdict.outcome is REFUSED
    confirm(11, "non-terminating models refuse every policy, never judge",
            checks)
