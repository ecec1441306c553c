"""Seeded input generator for the benchmark workloads.

``generate(workload, seed, out_dir)`` writes a manifest, the PDDL problem
files and the candidate plan files of one workload, plus ``expected.json``
holding the optimal ground-truth length of every instance as established
here, at generation time.  The same seed always yields the same files.

The recipe of ``llm-batch`` follows the mixed-quality corpus of the
acceptance suite (criterion 4): the Blocksworld and Logistics fixtures with
valid, shuffled, truncated, hallucinated, remapped and missing candidates
derived from the solved ground truth.  The seed adds random 3-block
Blocksworld instances of fixed optimal length, so that every seed asks for
the same amount of transform search.  ``solve-sweep`` draws random 5- to
7-block instances from ``data/sweep_pool.json`` (see ``make_pool.py``); each
gets a missing candidate and one made of the first two ground-truth actions,
which both make ``recover`` replan.

Optimal lengths are checked with an exhaustive breadth-first search where
the state space is small (Logistics fixtures, Blocksworld with at most
``BFS_MAX_BLOCKS`` blocks).  Above that the planner's own optimum is
recorded as an unchecked reference.
"""

from __future__ import annotations

import csv
import json
import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from planeval import Plan, ProblemModel, circular_shift, parse_domain, parse_problem, remap_params, solve_optimal
from planeval.pddl import plan_to_text, problem_to_pddl
from planeval.planner import ground_all_actions

DATA = Path(__file__).resolve().parent / "data"

BFS_MAX_BLOCKS = 6

# (instance id, initial towers, goal towers), towers listed bottom to top.
BW_FIXED_SPECS = [
    ("bw-01", [["a"], ["b"], ["c"]], [["a", "b", "c"]]),
    ("bw-02", [["a", "b", "c"]], [["c", "b", "a"]]),
    ("bw-03", [["a", "b"], ["c"]], [["b", "c"], ["a"]]),
    ("bw-04", [["a"], ["b"], ["c"], ["d"]], [["a", "b"], ["c", "d"]]),
    ("bw-05", [["a", "b", "c", "d"]], [["d", "c", "b", "a"]]),
    ("bw-06", [["a", "b"], ["c", "d"]], [["d", "a"], ["b", "c"]]),
    ("bw-07", [["a"], ["b"], ["c"], ["d"], ["e"]], [["a", "b", "c", "d", "e"]]),
    ("bw-08", [["e", "d"], ["c", "b", "a"]], [["a", "b", "c", "d", "e"]]),
    ("bw-09", [["a", "b", "c", "d", "e"]], [["a"], ["b"], ["c"], ["d"], ["e"]]),
]
REMAPPED_FIXED = ("bw-03", "bw-05", "bw-10", "log-01", "log-04")
LOGISTICS = ("log-01", "log-02", "log-03", "log-04", "log-05")

# (blocks, optimal plan length) of the random instances each seed adds.
LLM_RANDOM = ((3, 4), (3, 6))
# (blocks, instances) of solve-sweep, drawn from the pool of make_pool.py.
SWEEP_SLOTS = ((5, 2), (6, 5), (7, 5))
POOL_PATH = DATA / "sweep_pool.json"

MANIFEST_COLUMNS = ["instance_id", "domain_path", "problem_path", "plan_path",
                    "gt_plan_path", "model", "prompt_type"]

@dataclass
class Instance:
    instance_id: str
    domain_file: str
    problem_file: str
    domain: object
    problem: ProblemModel
    gt: Plan | None  # kept only where candidates are derived from it
    optimum: int
    oracle: str  # "bfs", or "planner" for an unchecked reference


# ---------------------------------------------------------------------------
# Blocksworld configurations
# ---------------------------------------------------------------------------


def bw_problem(domain, towers, goal_towers, name: str) -> ProblemModel:
    """Hand-empty start; the goal pins the on/ontable skeleton of the towers."""
    blocks = sorted(b for tower in towers for b in tower)
    init = {("handempty",)}
    for tower in towers:
        init.add(("ontable", tower[0]))
        init.add(("clear", tower[-1]))
        init.update(("on", above, below) for below, above in zip(tower, tower[1:]))
    goal = set()
    for tower in goal_towers:
        goal.add(("ontable", tower[0]))
        goal.update(("on", above, below) for below, above in zip(tower, tower[1:]))
    return ProblemModel(name, domain.name, {b: "object" for b in blocks},
                        frozenset(init), frozenset(goal))


def random_towers(rng: random.Random, blocks: list[str]) -> list[list[str]]:
    order = rng.sample(blocks, len(blocks))
    towers: list[list[str]] = [[order[0]]]
    for block in order[1:]:
        if rng.random() < 0.5:
            towers.append([block])
        else:
            towers[-1].append(block)
    return towers


def random_bw_problem(rng: random.Random, domain, n: int, name: str) -> ProblemModel:
    """Random start and goal configurations; the goal never holds initially."""
    blocks = [chr(ord("a") + i) for i in range(n)]
    while True:
        problem = bw_problem(domain, random_towers(rng, blocks),
                             random_towers(rng, blocks), name)
        if not problem.goal <= problem.init:
            return problem


# ---------------------------------------------------------------------------
# Ground truth and its oracle
# ---------------------------------------------------------------------------


def bfs_optimum(problem: ProblemModel, domain) -> int:
    """Exhaustive breadth-first search; unit action costs."""
    actions = [(a.preconditions, a.add_effects, a.del_effects)
               for a in ground_all_actions(domain, problem)]
    dist = {problem.init: 0}
    queue = deque([problem.init])
    while queue:
        state = queue.popleft()
        if problem.goal <= state:
            return dist[state]
        for pre, add, delete in actions:
            if pre <= state:
                successor = (state - delete) | add
                if successor not in dist:
                    dist[successor] = dist[state] + 1
                    queue.append(successor)
    raise ValueError(f"{problem.name}: goal unreachable")


def solved_instance(instance_id: str, domain_file: str, problem_file: str, domain,
                    problem: ProblemModel) -> Instance:
    """Solve with the planner and check the optimum by breadth-first search."""
    gt = solve_optimal(problem, domain, timeout=600.0)
    optimum = bfs_optimum(problem, domain)
    if optimum != len(gt):
        raise AssertionError(f"{instance_id}: planner length {len(gt)} != BFS {optimum}")
    return Instance(instance_id, domain_file, problem_file, domain, problem, gt,
                    optimum, "bfs")


# ---------------------------------------------------------------------------
# Writing a workload
# ---------------------------------------------------------------------------


class _Writer:
    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.instance_dir = out_dir / "instances"
        self.instance_dir.mkdir(parents=True)
        self.rows: list[dict] = []
        self.expected: dict[str, dict] = {}

    def copy(self, source: Path, name: str) -> str:
        (self.instance_dir / name).write_text(source.read_text(encoding="utf-8"),
                                              encoding="utf-8")
        return name

    def problem(self, problem: ProblemModel, domain, name: str) -> str:
        (self.instance_dir / name).write_text(problem_to_pddl(problem, domain),
                                              encoding="utf-8")
        return name

    def add_row(self, instance: Instance, kind: str, plan_text: str | None) -> None:
        plan_name = f"{instance.instance_id}-{kind}.plan"
        if plan_text is not None:
            (self.instance_dir / plan_name).write_text(plan_text, encoding="utf-8")
        row_id = f"{instance.instance_id}-{kind}"
        self.rows.append({
            "instance_id": row_id,
            "domain_path": f"instances/{instance.domain_file}",
            "problem_path": f"instances/{instance.problem_file}",
            "plan_path": f"instances/{plan_name}",
            "gt_plan_path": "",
            "model": kind,
            "prompt_type": "synthetic",
        })
        self.expected[row_id] = {"gt_length": instance.optimum, "oracle": instance.oracle}

    def finish(self, jobs: int) -> Path:
        manifest = self.out_dir / "manifest.csv"
        with manifest.open("w", newline="", encoding="utf-8") as handle:
            writer = csv.DictWriter(handle, fieldnames=MANIFEST_COLUMNS)
            writer.writeheader()
            writer.writerows(self.rows)
        (self.out_dir / "expected.json").write_text(
            json.dumps({"jobs": jobs, "rows": self.expected}, indent=1, sort_keys=True),
            encoding="utf-8")
        return manifest


def _swap_two_objects(gt: Plan, domain, problem: ProblemModel) -> Plan:
    objs = sorted(gt.objects())
    return remap_params(gt, {objs[0]: objs[1], objs[1]: objs[0]}, domain, problem)


def _llm_batch(writer: _Writer, rng: random.Random) -> None:
    bw_domain_path = DATA / "blocksworld" / "domain.pddl"
    log_domain_path = DATA / "logistics" / "domain.pddl"
    bw_domain = parse_domain(bw_domain_path.read_text(encoding="utf-8"))
    log_domain = parse_domain(log_domain_path.read_text(encoding="utf-8"))
    bw_file = writer.copy(bw_domain_path, "bw-domain.pddl")
    log_file = writer.copy(log_domain_path, "logistics-domain.pddl")

    instances: list[Instance] = []
    for name, towers, goal_towers in BW_FIXED_SPECS:
        problem = bw_problem(bw_domain, towers, goal_towers, name)
        instances.append(solved_instance(name, bw_file,
                                         writer.problem(problem, bw_domain, f"{name}.pddl"),
                                         bw_domain, problem))
    source = DATA / "blocksworld" / "instance-10.pddl"
    problem = parse_problem(source.read_text(encoding="utf-8"), bw_domain)
    instances.append(solved_instance("bw-10", bw_file, writer.copy(source, "bw-10.pddl"),
                                     bw_domain, problem))
    for index, (n, length) in enumerate(LLM_RANDOM, start=1):
        name = f"bw-r{index:02d}"
        problem = random_bw_problem(rng, bw_domain, n, name)
        while bfs_optimum(problem, bw_domain) != length:
            problem = random_bw_problem(rng, bw_domain, n, name)
        instances.append(solved_instance(name, bw_file,
                                         writer.problem(problem, bw_domain, f"{name}.pddl"),
                                         bw_domain, problem))
    for name in LOGISTICS:
        source = DATA / "logistics" / f"{name}.pddl"
        problem = parse_problem(source.read_text(encoding="utf-8"), log_domain)
        instances.append(solved_instance(name, log_file, writer.copy(source, f"{name}.pddl"),
                                         log_domain, problem))

    for instance in instances:
        gt = instance.gt
        writer.add_row(instance, "valid", plan_to_text(gt))
        writer.add_row(instance, "shuffled",
                       plan_to_text(circular_shift(gt, max(1, len(gt) // 2))))
        writer.add_row(instance, "truncated",
                       plan_to_text(gt[:-2] if len(gt) > 2 else Plan()))
        lines = plan_to_text(gt).splitlines()
        lines.insert(1, "(teleport x9 y9)")
        lines.append("(warp z9)")
        writer.add_row(instance, "hallucinated", "\n".join(lines) + "\n")
        if instance.instance_id in REMAPPED_FIXED or instance.instance_id.startswith("bw-r"):
            writer.add_row(instance, "remapped", plan_to_text(
                _swap_two_objects(gt, instance.domain, instance.problem)))
    # Two failed generations: plan files that do not exist.
    writer.add_row(instances[0], "missing", None)
    writer.add_row(instances[-1], "missing", None)


def _solve_sweep(writer: _Writer, rng: random.Random) -> None:
    domain_path = DATA / "blocksworld" / "domain.pddl"
    domain = parse_domain(domain_path.read_text(encoding="utf-8"))
    domain_file = writer.copy(domain_path, "bw-domain.pddl")
    pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))
    index = 0
    for n, count in SWEEP_SLOTS:
        for entry in rng.sample(pool[str(n)], count):
            index += 1
            name = f"sweep-{index:02d}-n{n}"
            problem = bw_problem(domain, entry["init"], entry["goal"], name)
            instance = Instance(name, domain_file,
                                writer.problem(problem, domain, f"{name}.pddl"),
                                domain, problem, None, entry["optimum"], entry["oracle"])
            # The first row of an instance also pays for solving its GT.
            writer.add_row(instance, "prefix", "".join(f"{line}\n" for line in entry["gt"][:2]))
            writer.add_row(instance, "missing", None)


def generate(workload: str, seed: int, out_dir: Path) -> Path:
    """Write the inputs of *workload* for *seed* under *out_dir*; return the manifest."""
    rng = random.Random(f"{workload.removesuffix('-jobs2')}:{seed}")
    writer = _Writer(out_dir)
    if workload in ("llm-batch", "llm-batch-jobs2"):
        _llm_batch(writer, rng)
    elif workload == "solve-sweep":
        _solve_sweep(writer, rng)
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return writer.finish(jobs=2 if workload.endswith("-jobs2") else 1)
