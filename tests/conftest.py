from __future__ import annotations

import os
from pathlib import Path

import pytest

import planeval
from planeval import parse_domain, parse_plan, parse_problem
from planeval.pddl import ProblemModel

FIXTURES = Path(__file__).parent / "fixtures"

INSTANCE_10_CANDIDATE = (FIXTURES / "blocksworld" / "instance-10-candidate.plan").read_text()
INSTANCE_10_GT = (FIXTURES / "blocksworld" / "instance-10-gt.plan").read_text()


def hash_seed_env(seed: int) -> dict[str, str]:
    """Environment for a child interpreter that imports this ``planeval``
    with ``PYTHONHASHSEED`` set to *seed*."""
    src = str(Path(planeval.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": path}


@pytest.fixture(scope="session")
def bw_domain():
    return parse_domain((FIXTURES / "blocksworld" / "domain.pddl").read_text())


@pytest.fixture(scope="session")
def bw_problem(bw_domain):
    return parse_problem((FIXTURES / "blocksworld" / "instance-10.pddl").read_text(),
                         bw_domain)


@pytest.fixture(scope="session")
def gt_plan(bw_domain, bw_problem):
    return parse_plan(INSTANCE_10_GT, bw_domain, bw_problem)


@pytest.fixture(scope="session")
def pi0_plan(bw_domain, bw_problem):
    return parse_plan(INSTANCE_10_CANDIDATE, bw_domain, bw_problem)


@pytest.fixture(scope="session")
def logistics_domain():
    return parse_domain((FIXTURES / "logistics" / "domain.pddl").read_text())


@pytest.fixture(scope="session")
def logistics_problems(logistics_domain):
    problems = {}
    for path in sorted((FIXTURES / "logistics").glob("log-*.pddl")):
        problems[path.stem] = parse_problem(path.read_text(), logistics_domain)
    return problems


def make_bw_problem(domain, towers: list[list[str]], goal_towers: list[list[str]],
                    name: str = "bw-test") -> ProblemModel:
    """Build a hand-empty Blocksworld instance from bottom-to-top towers.

    The goal only pins the ``on`` / ``ontable`` skeleton of the target towers,
    like the usual benchmark instances do.
    """
    blocks = sorted({b for tower in towers for b in tower})
    init = {("handempty",)}
    for tower in towers:
        init.add(("ontable", tower[0]))
        init.add(("clear", tower[-1]))
        for below, above in zip(tower, tower[1:]):
            init.add(("on", above, below))
    goal = set()
    for tower in goal_towers:
        goal.add(("ontable", tower[0]))
        for below, above in zip(tower, tower[1:]):
            goal.add(("on", above, below))
    return ProblemModel(name, domain.name, {b: "object" for b in blocks},
                        frozenset(init), frozenset(goal))
