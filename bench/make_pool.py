"""Build ``bench/data/sweep_pool.json``, the instances solve-sweep draws from.

    python3 bench/make_pool.py        # several minutes on two cores

Every entry is a random Blocksworld start/goal configuration (drawn from a
fixed seed) whose planner work lies in a narrow band.  The work is counted
in heuristic evaluations, for solving the instance from its start and for
replanning after the first two ground-truth actions, which are exactly the
searches a solve-sweep row asks for.  The band makes every seed of the
workload ask for about the same planner work, so run-to-run spread comes
from the machine rather than from the draw.

Each entry keeps its optimal ground truth; its length is checked against a
breadth-first search for up to ``BFS_MAX_BLOCKS`` blocks and is the
planner's own, unchecked, above that.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from planeval import parse_domain, replan_from, simulate, solve_optimal  # noqa: E402
from planeval.pddl import plan_to_text  # noqa: E402
from planeval.planner import hmax  # noqa: E402

from workloads import BFS_MAX_BLOCKS, DATA, POOL_PATH, bfs_optimum, random_bw_problem  # noqa: E402

# Blocks -> band of heuristic evaluations for solving from the start.
SOLVE_BANDS = {5: (300, 450), 6: (1600, 2000), 7: (1600, 2000)}
POOL_SIZE = 15
# Candidates in the solve band collected per kept entry; the kept ones are
# those whose replanning work is closest to the median.
OVERSAMPLE = 4


class _OverBudget(Exception):
    pass


def counted_search(search, *args, limit: int):
    """Run *search* with a counting h_max; None once it exceeds *limit*."""
    evaluations = 0

    def counted_hmax(task, state):
        nonlocal evaluations
        evaluations += 1
        if evaluations > limit:
            raise _OverBudget
        return hmax(task, state)

    try:
        plan = search(*args, timeout=600.0, heuristic=counted_hmax)
    except _OverBudget:
        return None, evaluations
    return plan, evaluations


def _towers(state) -> list[list[str]]:
    below = {atom[1]: atom[2] for atom in state if atom[0] == "on"}
    above = {b: a for a, b in below.items()}
    towers = []
    for atom in sorted(state):
        if atom[0] == "ontable":
            tower = [atom[1]]
            while tower[-1] in above:
                tower.append(above[tower[-1]])
            towers.append(tower)
    return towers


def build_class(domain, n: int) -> list[dict]:
    rng = random.Random(f"sweep-pool:{n}")
    low, high = SOLVE_BANDS[n]
    candidates = []
    seen = set()
    while len(candidates) < OVERSAMPLE * POOL_SIZE:
        problem = random_bw_problem(rng, domain, n, "pool")
        if (problem.init, problem.goal) in seen:
            continue
        seen.add((problem.init, problem.goal))
        gt, solve_evals = counted_search(solve_optimal, problem, domain, limit=high)
        if gt is None or solve_evals < low:
            continue
        state = simulate(gt[:2], problem).final_state
        _, replan_evals = counted_search(replan_from, state, problem, domain,
                                         limit=10 * high)
        candidates.append((problem, gt, solve_evals, replan_evals))
        print(f"n={n}: {len(candidates)} candidates", file=sys.stderr)

    middle = statistics.median(c[3] for c in candidates)
    candidates.sort(key=lambda c: (abs(c[3] - middle), c[3]))
    entries = []
    for problem, gt, solve_evals, replan_evals in candidates[:POOL_SIZE]:
        if n <= BFS_MAX_BLOCKS:
            optimum, oracle = bfs_optimum(problem, domain), "bfs"
            if optimum != len(gt):
                raise AssertionError(f"planner length {len(gt)} != BFS {optimum}")
        else:
            optimum, oracle = len(gt), "planner"
        entries.append({
            "init": _towers(problem.init),
            "goal": _towers(problem.goal),
            "gt": plan_to_text(gt).splitlines(),
            "optimum": optimum,
            "oracle": oracle,
            "evaluations": [solve_evals, replan_evals],
        })
    return entries


def main() -> None:
    domain = parse_domain((DATA / "blocksworld" / "domain.pddl").read_text(encoding="utf-8"))
    pool = {str(n): build_class(domain, n) for n in sorted(SOLVE_BANDS)}
    POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
