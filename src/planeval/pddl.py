"""STRIPS-subset PDDL: domain/problem/plan models, parsing and grounding.

The accepted fragment is positive-precondition STRIPS plus ``:typing``.
Anything else (conditional effects, quantifiers, numeric fluents, ...) is
rejected with :class:`~planeval.errors.UnsupportedFeature`.

Atoms are plain tuples ``(predicate, arg1, ..., argN)`` and states are
frozensets of atoms.  Identifiers are case-folded once: the parser
lower-cases every name it reads, and :class:`GroundAction` lower-cases its
name and arguments when it is built.  Later layers compare them as they are.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Container, Iterator, Mapping, Sequence

from .errors import (
    ArityMismatch,
    MalformedLine,
    PddlSyntaxError,
    TypeMismatch,
    UndeclaredSymbol,
    UnsupportedFeature,
)

Atom = tuple[str, ...]
State = frozenset[Atom]

ROOT_TYPE = "object"

_SUPPORTED_REQUIREMENTS = {":strips", ":typing"}

# Constructs we recognise well enough to name in the rejection message.
_REJECTED_HEADS = {
    "not",
    "or",
    "imply",
    "when",
    "forall",
    "exists",
    "increase",
    "decrease",
    "assign",
    "scale-up",
    "scale-down",
    "=",
}


def format_atom(atom: Atom) -> str:
    return "(%s)" % " ".join(atom)


# ---------------------------------------------------------------------------
# Model types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Parameter:
    name: str
    type: str = ROOT_TYPE


@dataclass(frozen=True)
class Predicate:
    name: str
    params: tuple[Parameter, ...]

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class ActionSchema:
    name: str
    params: tuple[Parameter, ...]
    preconditions: frozenset[Atom]
    add_effects: frozenset[Atom]
    del_effects: frozenset[Atom]

    @property
    def arity(self) -> int:
        return len(self.params)


@dataclass(frozen=True)
class DomainModel:
    name: str
    types: Mapping[str, str | None] = field(hash=False)  # compared, not hashed
    predicates: tuple[Predicate, ...]
    schemas: tuple[ActionSchema, ...]

    def schema(self, name: str) -> ActionSchema | None:
        lowered = name.lower()
        for schema in self.schemas:
            if schema.name == lowered:
                return schema
        return None

    def is_subtype(self, type_name: str, ancestor: str) -> bool:
        if ancestor == ROOT_TYPE:
            return True
        current: str | None = type_name
        while current is not None:
            if current == ancestor:
                return True
            current = self.types.get(current)
        return False

    @property
    def typed(self) -> bool:
        return any(t != ROOT_TYPE for t in self.types)


@dataclass(frozen=True)
class ProblemModel:
    name: str
    domain_name: str
    objects: Mapping[str, str] = field(hash=False)  # compared, not hashed
    init: State
    goal: frozenset[Atom]

    def objects_of_type(self, domain: DomainModel, type_name: str) -> list[str]:
        return sorted(
            obj for obj, t in self.objects.items() if domain.is_subtype(t, type_name)
        )


@dataclass(frozen=True)
class GroundAction:
    """A concrete action occurrence, resolvable against a domain or not.

    The name and arguments are lower-cased on construction, and ``key``, the
    ``(name, args)`` identity used for matching, is stored alongside them, so
    no later comparison folds case again.

    Unresolvable actions (hallucinated names, unknown objects, bad arity or
    typing) keep their name and arguments so they can still be matched and
    scored, but they carry empty precondition/effect sets and must never be
    executed.
    """

    name: str
    args: tuple[str, ...]
    preconditions: frozenset[Atom] = frozenset()
    add_effects: frozenset[Atom] = frozenset()
    del_effects: frozenset[Atom] = frozenset()
    resolvable: bool = True
    key: tuple[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        name = self.name.lower()
        args = tuple(a.lower() for a in self.args)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "key", (name, args))

    def __str__(self) -> str:
        return format_atom((self.name, *self.args))


@dataclass(frozen=True)
class Plan:
    actions: tuple[GroundAction, ...] = ()

    def __len__(self) -> int:
        return len(self.actions)

    def __iter__(self) -> Iterator[GroundAction]:
        return iter(self.actions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Plan(self.actions[index])
        return self.actions[index]

    def objects(self) -> set[str]:
        return {arg for action in self.actions for arg in action.args}

    def keys(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        return tuple(action.key for action in self.actions)


# ---------------------------------------------------------------------------
# Tokenizer / s-expression reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        comment = line.find(";")
        if comment >= 0:
            line = line[:comment]
        for match in re.finditer(r"[()]|[^\s()]+", line):
            tokens.append(_Token(match.group(0), line_no, match.start() + 1))
    return tokens


class _Reader:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def read(self):
        """Read one expression: a token or a nested list of expressions.

        Iterative, with an explicit stack of open lists, so that nesting
        depth in the input cannot exhaust the interpreter's recursion limit.
        """
        open_lists: list[tuple[_Token, list]] = []
        while True:
            tok = self._peek()
            if tok is None:
                if open_lists:
                    opening = open_lists[-1][0]
                    raise PddlSyntaxError(
                        "unexpected end of input, expected ')'", opening.line, opening.column
                    )
                raise PddlSyntaxError("unexpected end of input, expected an expression")
            self.pos += 1
            if tok.value == "(":
                open_lists.append((tok, []))
                continue
            if tok.value == ")":
                if not open_lists:
                    raise PddlSyntaxError("unexpected ')'", tok.line, tok.column)
                expr = open_lists.pop()[1]
            else:
                expr = tok
            if not open_lists:
                return expr
            open_lists[-1][1].append(expr)

    def expect_done(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise PddlSyntaxError(
                f"trailing content {tok.value!r} after top-level form", tok.line, tok.column
            )


def _head(form, expected: str, context: str) -> list:
    if not isinstance(form, list) or not form or not isinstance(form[0], _Token):
        raise PddlSyntaxError(f"expected ({expected} ...) in {context}")
    if form[0].value.lower() != expected:
        raise PddlSyntaxError(
            f"expected '{expected}' in {context}, got {form[0].value!r}",
            form[0].line,
            form[0].column,
        )
    return form[1:]


def _define(text: str, kind: str) -> tuple[str, Iterator[tuple[str, list]]]:
    """Read ``(define (<kind> NAME) (:keyword ...) ...)``.

    Returns NAME and an iterator over each section's ``(keyword, rest)``.  The
    iterator checks a section's shape only when it reaches it, so the caller
    meets the faults of a file in file order.
    """
    reader = _Reader(text)
    body = _head(reader.read(), "define", f"{kind} file")
    reader.expect_done()
    if not body:
        raise PddlSyntaxError(f"empty define form in {kind} file")
    header = _head(body[0], kind, f"{kind} header")
    if not header:
        raise PddlSyntaxError(f"missing name in ({kind} ...) header",
                              body[0][0].line, body[0][0].column)

    def sections() -> Iterator[tuple[str, list]]:
        for form in body[1:]:
            if not isinstance(form, list) or not form or not isinstance(form[0], _Token):
                raise PddlSyntaxError(f"expected a (:keyword ...) {kind} section")
            yield form[0].value.lower(), form[1:]

    return _symbol(header[0], f"{kind} name"), sections()


def _symbol(item, context: str) -> str:
    if not isinstance(item, _Token):
        raise PddlSyntaxError(f"expected a name in {context}")
    return item.value.lower()


def _typed_names(items: Sequence, context: str) -> list[tuple[str, str]]:
    """Parse ``a b - t c d`` blocks; names without a type get the root type."""
    result: list[tuple[str, str]] = []
    pending: list[str] = []
    i = 0
    while i < len(items):
        name = _symbol(items[i], context)
        if name == "-":
            if not pending:
                raise PddlSyntaxError(f"dangling '-' in {context}")
            if i + 1 >= len(items):
                raise PddlSyntaxError(f"missing type name after '-' in {context}")
            type_name = _symbol(items[i + 1], context)
            result.extend((n, type_name) for n in pending)
            pending = []
            i += 2
            continue
        pending.append(name)
        i += 1
    result.extend((n, ROOT_TYPE) for n in pending)
    return result


# ---------------------------------------------------------------------------
# Domain parsing
# ---------------------------------------------------------------------------


def _parse_atom_over(form, allowed_terms: Container[str], predicates: Mapping[str, Predicate],
                     context: str) -> Atom:
    if not isinstance(form, list) or not form:
        raise PddlSyntaxError(f"expected an atom in {context}")
    name = _symbol(form[0], context)
    if name in _REJECTED_HEADS:
        raise UnsupportedFeature(name, f"in {context}")
    terms = [_symbol(t, context) for t in form[1:]]
    if name not in predicates:
        raise UndeclaredSymbol("predicate", name)
    if len(terms) != predicates[name].arity:
        raise PddlSyntaxError(
            f"predicate '{name}' used with {len(terms)} terms in {context}, "
            f"declared with {predicates[name].arity}"
        )
    for term in terms:
        if term not in allowed_terms:
            raise UndeclaredSymbol("variable" if term.startswith("?") else "object", term)
    return (name, *terms)


def _flatten_conjunction(form, context: str) -> list:
    """Return the atoms of ``expr``, where expr is an atom or (and atom ...)."""
    if not isinstance(form, list) or not form:
        raise PddlSyntaxError(f"expected an atom or (and ...) in {context}")
    head = form[0]
    if isinstance(head, _Token) and head.value.lower() == "and":
        return list(form[1:])
    return [form]


def parse_domain(text: str) -> DomainModel:
    """Parse a ``(define (domain ...))`` form restricted to STRIPS + typing."""
    name, sections = _define(text, "domain")
    types: dict[str, str | None] = {ROOT_TYPE: None}
    predicates: dict[str, Predicate] = {}
    schemas: dict[str, ActionSchema] = {}

    for keyword, rest in sections:
        if keyword == ":requirements":
            for req in rest:
                req_name = _symbol(req, ":requirements")
                if req_name not in _SUPPORTED_REQUIREMENTS:
                    raise UnsupportedFeature(req_name, "requirement")
        elif keyword == ":types":
            for type_name, parent in _typed_names(rest, ":types"):
                types.setdefault(parent, None if parent == ROOT_TYPE else ROOT_TYPE)
                types[type_name] = parent
            types[ROOT_TYPE] = None
        elif keyword == ":predicates":
            for pred_form in rest:
                if not isinstance(pred_form, list) or not pred_form:
                    raise PddlSyntaxError("expected (name ?args...) in :predicates")
                pred_name = _symbol(pred_form[0], ":predicates")
                params = tuple(
                    Parameter(n, t) for n, t in _typed_names(pred_form[1:], pred_name)
                )
                if pred_name in predicates:
                    raise PddlSyntaxError(f"duplicate predicate '{pred_name}'")
                predicates[pred_name] = Predicate(pred_name, params)
        elif keyword == ":action":
            schema = _parse_action(rest, predicates)
            if schema.name in schemas:
                raise PddlSyntaxError(f"duplicate action name '{schema.name}'")
            schemas[schema.name] = schema
        else:
            raise UnsupportedFeature(keyword, "domain section")

    # Checks that need every ``:types`` section, which may follow the ones
    # that use its types: no cycle among the types (subtype checks walk
    # parents to the root), and a declared type for each parameter.
    for type_name in types:
        seen: set[str] = set()
        current: str | None = type_name
        while current is not None:
            if current in seen:
                raise PddlSyntaxError(f"cyclic type hierarchy through '{current}'")
            seen.add(current)
            current = types.get(current)
    for owner in (*predicates.values(), *schemas.values()):
        for param in owner.params:
            if param.type not in types:
                raise UndeclaredSymbol("type", param.type)

    return DomainModel(name, types, tuple(predicates.values()), tuple(schemas.values()))


def _parse_action(rest: list, predicates: Mapping[str, Predicate]) -> ActionSchema:
    if not rest:
        raise PddlSyntaxError("missing action name in :action")
    name = _symbol(rest[0], ":action")
    sections: dict[str, object] = {}
    i = 1
    while i < len(rest):
        key = _symbol(rest[i], f"action {name}")
        if key not in (":parameters", ":precondition", ":effect"):
            raise UnsupportedFeature(key, f"in action {name}")
        if key in sections:
            raise PddlSyntaxError(f"duplicate {key} in action {name}")
        if i + 1 >= len(rest):
            raise PddlSyntaxError(f"missing value for {key} in action {name}")
        sections[key] = rest[i + 1]
        i += 2

    param_form = sections.get(":parameters", [])
    if not isinstance(param_form, list):
        raise PddlSyntaxError(f"expected a parameter list in action {name}")
    params = tuple(Parameter(n, t) for n, t in _typed_names(param_form, f"action {name}"))
    for param in params:
        if not param.name.startswith("?"):
            raise PddlSyntaxError(f"parameter '{param.name}' of {name} must start with '?'")
    variables = {p.name for p in params}
    if len(variables) != len(params):
        raise PddlSyntaxError(f"duplicate parameter in action {name}")

    preconditions: set[Atom] = set()
    if ":precondition" in sections:
        for atom_form in _flatten_conjunction(sections[":precondition"], f"{name} precondition"):
            preconditions.add(_parse_atom_over(atom_form, variables, predicates,
                                               f"{name} precondition"))

    add_effects: set[Atom] = set()
    del_effects: set[Atom] = set()
    if ":effect" in sections:
        for eff_form in _flatten_conjunction(sections[":effect"], f"{name} effect"):
            if not isinstance(eff_form, list) or not eff_form:
                raise PddlSyntaxError(f"expected an effect atom in action {name}")
            head = _symbol(eff_form[0], f"{name} effect")
            if head == "not":
                if len(eff_form) != 2:
                    raise PddlSyntaxError(f"(not ...) takes one atom in action {name}")
                atom_form, into, other = eff_form[1], del_effects, add_effects
            elif head in _REJECTED_HEADS or head == "and":
                raise UnsupportedFeature(head, f"in effect of action {name}")
            else:
                atom_form, into, other = eff_form, add_effects, del_effects
            atom = _parse_atom_over(atom_form, variables, predicates, f"{name} effect")
            if atom in other:
                raise PddlSyntaxError(
                    f"action {name} adds and deletes the same atom: {format_atom(atom)}"
                )
            into.add(atom)

    return ActionSchema(name, params, frozenset(preconditions),
                        frozenset(add_effects), frozenset(del_effects))


# ---------------------------------------------------------------------------
# Problem parsing
# ---------------------------------------------------------------------------


def parse_problem(text: str, domain: DomainModel) -> ProblemModel:
    """Parse a ``(define (problem ...))`` form and validate it against *domain*."""
    name, sections = _define(text, "problem")
    domain_name: str | None = None
    objects: dict[str, str] = {}
    init: set[Atom] = set()
    goal: set[Atom] = set()
    predicates = {p.name: p for p in domain.predicates}
    once: set[str] = set()  # the :domain and :goal sections read

    def parse_atom(form, context: str) -> Atom:
        atom = _parse_atom_over(form, objects, predicates, context)
        for obj, param in zip(atom[1:], predicates[atom[0]].params):
            if not domain.is_subtype(objects[obj], param.type):
                raise TypeMismatch(f"object '{obj}' of type '{objects[obj]}' used as "
                                   f"'{param.type}' in {format_atom(atom)}")
        return atom

    for keyword, rest in sections:
        if keyword in (":domain", ":goal"):
            if keyword in once:
                raise PddlSyntaxError(f"duplicate {keyword} section in problem {name}")
            once.add(keyword)
        if keyword == ":domain":
            domain_name = _symbol(rest[0], ":domain") if rest else None
        elif keyword == ":objects":
            for obj, type_name in _typed_names(rest, ":objects"):
                if type_name not in domain.types:
                    raise UndeclaredSymbol("type", type_name)
                if objects.setdefault(obj, type_name) != type_name:
                    raise PddlSyntaxError(f"object '{obj}' declared as both "
                                          f"'{objects[obj]}' and '{type_name}'")
        elif keyword == ":init":
            init.update(parse_atom(atom_form, ":init") for atom_form in rest)
        elif keyword == ":goal":
            if len(rest) != 1:
                raise PddlSyntaxError(":goal takes a single expression")
            goal.update(parse_atom(atom_form, ":goal")
                        for atom_form in _flatten_conjunction(rest[0], ":goal"))
        else:
            raise UnsupportedFeature(keyword, "problem section")

    if domain_name is not None and domain_name != domain.name:
        raise PddlSyntaxError(
            f"problem references domain '{domain_name}', expected '{domain.name}'"
        )
    return ProblemModel(name, domain_name or domain.name, objects,
                        frozenset(init), frozenset(goal))


# ---------------------------------------------------------------------------
# Grounding
# ---------------------------------------------------------------------------


def substitute(atoms: frozenset[Atom], binding: Mapping[str, str]) -> frozenset[Atom]:
    return frozenset(
        (atom[0], *(binding.get(term, term) for term in atom[1:])) for atom in atoms
    )


def ground(schema: ActionSchema, args: Sequence[str]) -> GroundAction:
    """Ground *schema* with *args* by pure substitution, checking only the
    arity; :func:`resolve_action` also checks the objects and their types."""
    args = tuple(a.lower() for a in args)
    if len(args) != len(schema.params):
        raise ArityMismatch(
            f"action '{schema.name}' takes {len(schema.params)} arguments, got {len(args)}"
        )
    binding = {p.name: a for p, a in zip(schema.params, args)}
    return GroundAction(
        name=schema.name,
        args=args,
        preconditions=substitute(schema.preconditions, binding),
        add_effects=substitute(schema.add_effects, binding),
        del_effects=substitute(schema.del_effects, binding),
    )


def resolve_action(name: str, args: Sequence[str], domain: DomainModel,
                   problem: ProblemModel) -> GroundAction:
    """Resolve a raw action occurrence, flagging it instead of failing.

    It resolves iff its name is a schema of *domain* with as many parameters
    as *args*, and each argument is an object of *problem* whose type the
    parameter admits.  Anything else yields an unresolvable
    :class:`GroundAction`, which can still take part in similarity scoring.
    """
    schema = domain.schema(name)
    args = tuple(a.lower() for a in args)
    if (schema is not None and len(args) == len(schema.params)
            and all(arg in problem.objects
                    and domain.is_subtype(problem.objects[arg], param.type)
                    for arg, param in zip(args, schema.params))):
        return ground(schema, args)
    return GroundAction(name, args, resolvable=False)


# ---------------------------------------------------------------------------
# Plan parsing
# ---------------------------------------------------------------------------


def parse_plan(text: str, domain: DomainModel, problem: ProblemModel,
               resolved: dict[tuple, GroundAction] | None = None) -> Plan:
    """Leniently parse one action per line.

    Blank lines and ``;`` comments are skipped, parentheses are optional and
    matching is case-insensitive.  Empty input yields an empty plan; a line
    that contains content but no parsable token raises
    :class:`~planeval.errors.MalformedLine`.

    *resolved* maps each lower-cased ``(name, args)`` to its
    :func:`resolve_action` against *domain* and *problem*.  A line looks its
    action up there and adds it when missing, so a table shared by the plans
    of one problem resolves each action once.
    """
    if resolved is None:
        resolved = {}
    actions: list[GroundAction] = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        comment = raw_line.find(";")
        line = raw_line[:comment] if comment >= 0 else raw_line
        tokens = re.findall(r"[^\s()]+", line.lower())
        if not tokens:
            if line.strip():
                raise MalformedLine(line_no, raw_line.strip())
            continue
        key = (tokens[0], tuple(tokens[1:]))
        action = resolved.get(key)
        if action is None:
            action = resolved[key] = resolve_action(*key, domain, problem)
        actions.append(action)
    return Plan(tuple(actions))


# ---------------------------------------------------------------------------
# Serialization (round-trip support)
# ---------------------------------------------------------------------------


def _format_params(params: Sequence[Parameter], typed: bool) -> str:
    if typed:
        return " ".join(f"{p.name} - {p.type}" for p in params)
    return " ".join(p.name for p in params)


def domain_to_pddl(domain: DomainModel) -> str:
    typed = domain.typed
    lines = [f"(define (domain {domain.name})"]
    requirements = ":strips :typing" if typed else ":strips"
    lines.append(f"  (:requirements {requirements})")
    if typed:
        type_decls = " ".join(
            f"{name} - {parent}" if parent else name
            for name, parent in domain.types.items()
            if name != ROOT_TYPE
        )
        lines.append(f"  (:types {type_decls})")
    pred_decls = " ".join(
        "(%s%s)" % (p.name, (" " + _format_params(p.params, typed)) if p.params else "")
        for p in domain.predicates
    )
    lines.append(f"  (:predicates {pred_decls})")
    for schema in domain.schemas:
        lines.append(f"  (:action {schema.name}")
        lines.append(f"    :parameters ({_format_params(schema.params, typed)})")
        pre = " ".join(format_atom(a) for a in sorted(schema.preconditions))
        lines.append(f"    :precondition (and {pre})")
        effects = [format_atom(a) for a in sorted(schema.add_effects)]
        effects += [f"(not {format_atom(a)})" for a in sorted(schema.del_effects)]
        lines.append(f"    :effect (and {' '.join(effects)}))")
    lines.append(")")
    return "\n".join(lines) + "\n"


def problem_to_pddl(problem: ProblemModel, domain: DomainModel) -> str:
    lines = [f"(define (problem {problem.name})"]
    lines.append(f"  (:domain {problem.domain_name})")
    if domain.typed:
        objs = " ".join(f"{o} - {t}" for o, t in sorted(problem.objects.items()))
    else:
        objs = " ".join(sorted(problem.objects))
    lines.append(f"  (:objects {objs})")
    init = " ".join(format_atom(a) for a in sorted(problem.init))
    lines.append(f"  (:init {init})")
    goal = " ".join(format_atom(a) for a in sorted(problem.goal))
    lines.append(f"  (:goal (and {goal})))")
    return "\n".join(lines) + "\n"


def plan_to_text(plan: Plan) -> str:
    return "".join(f"{action}\n" for action in plan)
