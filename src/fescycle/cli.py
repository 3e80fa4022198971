"""Command-line pipeline: validate, train, extract, collect, finetune,
evaluate, compare.

Every command is a pure function of its input files, flags, and seed; each
run writes a manifest next to its primary output.  Exit codes: 0 ok, 1 domain
error (bad geometry, insufficient data, ...), 2 I/O or parse error.  The
FESRL_SEED environment variable overrides any seed from configs or flags.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, biomech, offline, pattern as patterns, sac, training
from .env import CyclingEnv, EpisodeConfig
from .errors import DomainError, InvalidArgument

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_IO = 2


def _fail(code: int, kind: str, message: str, **extra) -> int:
    doc = {"error": kind, "message": message}
    doc.update(extra)
    print(json.dumps(doc), file=sys.stderr)
    return code


def _read_text(path) -> str:
    with open(path) as fh:
        return fh.read()


def _load_config(path) -> biomech.CyclingConfig:
    return biomech.config_from_json(_read_text(path))


def _load_train_config(path, seed: int, **defaults) -> sac.TrainConfig:
    """The train-config JSON at `path` (no path: all defaults) with `seed`;
    `defaults` fill the keys the file leaves out."""
    data = json.loads(_read_text(path)) if path else {}
    return sac.train_config_from_dict({**defaults, **data, "seed": seed})


def _env_seed() -> int | None:
    raw = os.environ.get("FESRL_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise InvalidArgument(f"FESRL_SEED must be an integer, got {raw!r}")


def _resolve_seed(flag_seed: int | None, default: int = 0) -> int:
    env = _env_seed()
    if env is not None:
        return env
    if flag_seed is not None:
        return flag_seed
    return default


def _write_manifest(command: str, inputs, outputs, seed, started: float) -> None:
    outputs = [str(p) for p in outputs]
    manifest = {
        "command": command,
        "inputs": [str(p) for p in inputs],
        "outputs": outputs,
        "seed": seed,
        "version": __version__,
        "wall_clock_s": round(time.time() - started, 3),
    }
    primary = Path(outputs[0])
    path = primary / "manifest.json" if primary.is_dir() else Path(str(primary) + ".manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _build_sim(config_path, gap_path=None):
    """(config, muscles) pair, optionally pushed through the reality gap."""
    config = biomech.validate_config(_load_config(config_path))
    muscles = biomech.default_muscle_set(config)
    if gap_path:
        gap = offline.gap_from_dict(json.loads(_read_text(gap_path)))
        config, muscles = offline.apply_reality_gap(config, muscles, gap)
    return config, muscles


def cmd_validate(args) -> int:
    started = time.time()
    try:
        config = _load_config(args.config)
    except FileNotFoundError as exc:
        return _fail(EXIT_IO, "file_not_found", str(exc))
    except json.JSONDecodeError as exc:
        return _fail(EXIT_IO, "parse_error", str(exc), byte_offset=exc.pos)
    except (ValueError, TypeError) as exc:
        return _fail(EXIT_IO, "bad_config", str(exc))
    try:
        biomech.validate_config(config)
    except DomainError as exc:
        report = {"valid": False, "error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "crank_angle"):
            report["crank_angle_deg"] = round(math.degrees(exc.crank_angle), 3)
        print(json.dumps(report, indent=2))
        return EXIT_DOMAIN
    print(json.dumps({"valid": True}, indent=2))
    return EXIT_OK


def cmd_train(args) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed)
    if args.max_episodes < 1:
        raise InvalidArgument("--max-episodes must be >= 1")
    config = biomech.validate_config(_load_config(args.config))
    tc = _load_train_config(args.train, seed)
    env = CyclingEnv(config, episode=EpisodeConfig(seed=seed))
    agent, curve = training.train_agent(
        env, tc, max_episodes=args.max_episodes, test_every=args.test_every
    )
    sac.save_agent(agent, args.out)
    training.write_curve_csv(args.curve, curve)
    _write_manifest("train", [args.config, args.train or ""], [args.out, args.curve],
                    seed, started)
    tested = [p for p in curve if p.test_return is not None]
    last = tested[-1].test_return if tested else float("nan")
    print(f"trained {len(curve)} episodes, last test return {last:.2f}")
    return EXIT_OK


def cmd_extract(args) -> int:
    started = time.time()
    agent = sac.load_agent(args.agent)
    config = biomech.validate_config(_load_config(args.config))
    pat = patterns.extract_pattern(
        agent, config, resolution_deg=args.resolution,
        reference_cadence=args.cadence, threshold=args.threshold,
    )
    patterns.save_pattern(pat, args.out)
    outputs = [args.out]
    if args.svg:
        patterns.save_pattern_svg(pat, args.svg)
        outputs.append(args.svg)
    _write_manifest("extract", [args.agent, args.config], outputs, None, started)
    for name, ivs in zip(pat.muscle_names, pat.intervals):
        spans = ", ".join(f"[{on:.0f}, {off:.0f})" for on, off in ivs) or "(off)"
        print(f"{name}: {spans}")
    return EXIT_OK


def cmd_collect(args) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed)
    config, muscles = _build_sim(args.config, args.gap)
    base = patterns.load_pattern(args.pattern)
    logs = offline.collect_sessions(
        config, muscles, base, n_sessions=args.sessions,
        duration_s=args.duration, seed=seed, start_cadence=args.start_cadence,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for i, log in enumerate(logs):
        path = out_dir / f"session{i:02d}.csv"
        offline.save_session_log(log, path)
        outputs.append(path)
    _write_manifest("collect", [args.config, args.pattern, args.gap or ""],
                    [out_dir], seed, started)
    total = sum(len(log) - 1 for log in logs)
    print(f"collected {len(logs)} sessions, {total} control steps")
    return EXIT_OK


def cmd_finetune(args) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed)
    agent = sac.load_agent(args.agent)
    csv_paths = sorted(Path(args.logs).glob("session*.csv"))
    if not csv_paths:
        raise InvalidArgument(f"no session CSV logs under {args.logs}")
    logs = [offline.load_session_log(p) for p in csv_paths]
    dataset = offline.logs_to_dataset(logs, discard_first_s=args.discard_first_s)
    tc = _load_train_config(args.train, seed, cql_weight=5.0)
    agent.reconfigure(tc)
    offline.finetune(agent, dataset, tc, epochs=args.epochs)
    sac.save_agent(agent, args.out)
    _write_manifest("finetune", [args.agent, args.logs, args.train or ""],
                    [args.out], seed, started)
    print(f"fine-tuned on {len(dataset)} tuples "
          f"({args.epochs * tc.grad_steps_per_episode} gradient steps)")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    started = time.time()
    seed = _resolve_seed(args.seed)
    config, muscles = _build_sim(args.config, args.gap)
    pat = patterns.load_pattern(args.pattern)
    result = offline.evaluate_pattern(
        config, muscles, pat, duration_s=args.duration,
        n_trials=args.trials, seed=seed, start_cadence=args.start_cadence,
    )
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "step", "time_s", "rpm"])
        for t_idx, trial in enumerate(result["trials"]):
            for i, rpm in enumerate(trial["rpm_trace"]):
                writer.writerow([t_idx, i, f"{(i + 1) * result['dt']:.9g}", f"{rpm:.9g}"])
    _write_manifest("evaluate", [args.config, args.pattern, args.gap or ""],
                    [args.out], seed, started)
    per_trial = ", ".join(f"{t['mean_rpm']:.2f}" for t in result["trials"])
    print(f"mean RPM {result['mean_rpm']:.2f} (per trial: {per_trial})")
    return EXIT_OK


def cmd_compare(args) -> int:
    started = time.time()
    pat_a = patterns.load_pattern(args.pattern_a)
    pat_b = patterns.load_pattern(args.pattern_b)
    report = patterns.pattern_metrics(pat_a, pat_b)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    _write_manifest("compare", [args.pattern_a, args.pattern_b], [args.out],
                    None, started)
    for name, entry in report.items():
        print(f"{name}: overlap {entry['overlap_arc']:.1f} deg, "
              f"on-offset {entry['on_offset_deg']}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fescycle",
        description="Find and fine-tune FES-cycling stimulation patterns in simulation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a cycling config for reachability")
    p.add_argument("config")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("train", help="train a model-based agent")
    p.add_argument("config")
    p.add_argument("train", nargs="?", default=None, help="train-config JSON")
    p.add_argument("--out", required=True, help="agent checkpoint path")
    p.add_argument("--curve", required=True, help="learning-curve CSV path")
    p.add_argument("--max-episodes", type=int, default=200)
    p.add_argument("--test-every", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("extract", help="threshold a trained policy into a pattern")
    p.add_argument("agent")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.add_argument("--svg", default=None)
    p.add_argument("--resolution", type=float, default=1.0)
    p.add_argument("--cadence", type=float, default=5.0)
    p.add_argument("--threshold", type=float, default=0.5)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("collect", help="log pattern-driven cycling sessions")
    p.add_argument("config")
    p.add_argument("pattern")
    p.add_argument("--gap", default=None, help="reality-gap JSON")
    p.add_argument("--out", required=True, help="output directory for session CSVs")
    p.add_argument("--sessions", type=int, default=10)
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--start-cadence", type=float, default=offline.ASSIST_CADENCE,
                   help="assisted starting push, rad/s")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("finetune", help="offline-train an agent on session logs")
    p.add_argument("agent")
    p.add_argument("logs", help="directory with session*.csv logs")
    p.add_argument("train", nargs="?", default=None, help="train-config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--discard-first-s", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="open-loop pattern evaluation")
    p.add_argument("config")
    p.add_argument("pattern")
    p.add_argument("--gap", default=None)
    p.add_argument("--out", required=True, help="RPM trace CSV")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--duration", type=float, default=30.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--start-cadence", type=float, default=offline.ASSIST_CADENCE,
                   help="assisted starting push, rad/s")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", help="per-muscle metrics between two patterns")
    p.add_argument("pattern_a")
    p.add_argument("pattern_b")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        return _fail(EXIT_IO, "file_not_found", str(exc))
    except json.JSONDecodeError as exc:
        return _fail(EXIT_IO, "parse_error", str(exc), byte_offset=exc.pos)
    except DomainError as exc:
        return _fail(EXIT_DOMAIN, type(exc).__name__, str(exc))
    except (ValueError, TypeError) as exc:
        return _fail(EXIT_IO, "bad_input", str(exc))


if __name__ == "__main__":
    sys.exit(main())
