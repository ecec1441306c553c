"""Command line interface: solve, validate, eval, batch and report."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import load_config
from .errors import InstanceError, PlanEvalError, read_text
from .pddl import parse_domain, parse_plan, parse_problem, plan_to_text
from .pipeline import (
    _plan_metrics,
    evaluate_batch,
    evaluate_instance,
    read_jsonl,
    aggregate,
    write_report_csv,
)
from .planner import solve_optimal
from .simulator import format_trace, simulate


def _read(flag: str, path: str) -> str:
    return read_text(path, f"{flag} {path}")


def _load_models(args):
    domain = parse_domain(_read("--domain", args.domain))
    problem = parse_problem(_read("--problem", args.problem), domain)
    return domain, problem


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    domain, problem = _load_models(args)
    plan = solve_optimal(problem, domain, timeout=config.planner_timeout,
                         external_cmd=config.external_planner)
    _write_or_print(plan_to_text(plan), args.out)
    return 0


def _cmd_validate(args) -> int:
    domain, problem = _load_models(args)
    plan = parse_plan(_read("--plan", args.plan), domain, problem)
    result = simulate(plan, problem)
    payload = _plan_metrics(plan, result)
    if result.failure_reason is not None:
        reason = result.failure_reason
        payload["failure"] = {
            "index": reason.index,
            "action": reason.action,
            "unresolvable": reason.unresolvable,
            "unmet": ["(%s)" % " ".join(a) for a in reason.unmet],
        }
    if args.trace_out:
        Path(args.trace_out).write_text(format_trace(result), encoding="utf-8")
    _write_or_print(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_eval(args) -> int:
    config = load_config(args.config)
    domain, problem = _load_models(args)
    plan_text = _read("--plan", args.plan) if Path(args.plan).is_file() else None
    gt_text = _read("--gt-plan", args.gt_plan) if args.gt_plan else None
    record = evaluate_instance(
        domain, problem, plan_text, gt_plan_text=gt_text, config=config,
        instance_id=args.instance_id, model=args.model, prompt_type=args.prompt_type,
    )
    _write_or_print(json.dumps(record, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_batch(args) -> int:
    config = load_config(args.config)
    prefix = Path(args.out)
    out_jsonl = prefix.with_suffix(".jsonl")
    out_csv = prefix.with_suffix(".csv")
    result = evaluate_batch(args.manifest, jobs=args.jobs,
                            out_jsonl=out_jsonl, out_csv=out_csv, config=config)
    for instance_id in result.failed_rows:
        print(f"error: instance {instance_id} failed (see {out_jsonl})", file=sys.stderr)
    print(f"wrote {out_jsonl} and {out_csv} "
          f"({len(result.records)} records, {len(result.failed_rows)} failed)")
    return 2 if result.had_errors else 0


def _cmd_report(args) -> int:
    records = read_jsonl(args.jsonl)
    write_report_csv(aggregate(records), args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planeval",
        description="Evaluate, score and recover PDDL plans against optimal ground truths.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="emit an optimal ground-truth plan")
    solve.add_argument("--domain", required=True)
    solve.add_argument("--problem", required=True)
    solve.add_argument("--out", default=None, help="plan file (default: stdout)")
    solve.add_argument("--config", default=None)
    solve.set_defaults(func=_cmd_solve)

    validate = sub.add_parser("validate", help="simulate one plan and report validity")
    validate.add_argument("--domain", required=True)
    validate.add_argument("--problem", required=True)
    validate.add_argument("--plan", required=True)
    validate.add_argument("--out", default=None)
    validate.add_argument("--trace-out", default=None, help="write the state trace")
    validate.set_defaults(func=_cmd_validate)

    evaluate = sub.add_parser("eval", help="full pipeline for a single instance")
    evaluate.add_argument("--domain", required=True)
    evaluate.add_argument("--problem", required=True)
    evaluate.add_argument("--plan", required=True)
    evaluate.add_argument("--gt-plan", default=None,
                          help="ground-truth plan file (default: solve for it)")
    evaluate.add_argument("--out", default=None)
    evaluate.add_argument("--config", default=None)
    evaluate.add_argument("--instance-id", default="")
    evaluate.add_argument("--model", default="")
    evaluate.add_argument("--prompt-type", default="")
    evaluate.set_defaults(func=_cmd_eval)

    batch = sub.add_parser("batch", help="evaluate a manifest of instances")
    batch.add_argument("manifest")
    batch.add_argument("--out", required=True,
                       help="output prefix; writes <out>.jsonl and <out>.csv")
    batch.add_argument("--jobs", type=int, default=1)
    batch.add_argument("--config", default=None)
    batch.set_defaults(func=_cmd_batch)

    report = sub.add_parser("report", help="re-aggregate a JSONL records file")
    report.add_argument("jsonl")
    report.add_argument("--out", required=True, help="aggregate CSV path")
    report.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PlanEvalError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
