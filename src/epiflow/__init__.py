"""Information-flow checking of while-programs through observer knowledge.

The package builds the full execution model of a small imperative program
(every run from every initial store), derives the observer's epistemic
accessibility from output traces, and checks security policies two ways:
as temporal epistemic formulas over that model, and directly against the
trace-based definitions.  The two readings are provably equivalent, which
the differential fuzzing harness exercises.
"""

from .domain import Domain, DomainError, Label, TERMINATION_MARK
from .lang import (LangError, ParseError, Program, eval_expr, parse,
                   parse_expression, program_from_body, step, to_source)
from .logic import (LogicError, formula_to_source, model_satisfies,
                    parse_formula, satisfies)
from .model import (Model, ModelConfig, Point, Status, accessible,
                    build_model, epoch_of, trace_of)
from .policies import (FlowSpec, InitPredicate, PolicyError, ReleaseSpec,
                       TemporalDeclassification, encode_ak, encode_akd,
                       encode_aak, encode_akr, encode_aktd, esp, espm)
from .policyfile import Policy, load_policy, parse_policy, run_check
from .semantics import (check_er, check_nani, check_nid, check_nitd,
                        check_oni, knowledge_set, release_set)
from .verdicts import Outcome, Stats, Verdict, Witness

__version__ = "0.1.0"
