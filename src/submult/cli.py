"""Command-line front end: construct | analyze | check | spectrum | verify.

Exit codes for ``check``: 0 when the property holds with nothing capped,
1 when it fails (the report carries a replayable witness), 2 when only
capped verdicts are available or the inputs cannot be processed.  A run
never exits 0 if a cap was hit on a quantifier that is unbounded in the
underlying property.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any, Callable, Iterator, Sequence

from .config import RunConfig
from .families import (FAMILIES, FAMILY_TABLE, GroupFamilySpec, build_group,
                       group_file_spec, load_group_file, read_json,
                       write_group_file)
from .groups import SUBGROUPS_PER_ORDER, ClosureCapExceeded
from .monomial import MonomialMatrix
from .properties import (PropertyReport, chi_containment, has_p1, has_p2,
                         has_property_s, has_property_s_hat_basic,
                         has_property_s_hat_single, has_wp2, is_engel,
                         is_irreducible, is_p_abelian, is_regular,
                         is_v_regular_bounded)
from .suites import SUITES, OracleUnavailable, run_suites

DEFAULTS = RunConfig()
COMMANDS: dict[str, argparse.ArgumentParser] = {}  # name -> parser, by build_parser


def _text_lines(data: Any, prefix: str = "") -> Iterator[str]:
    """Flatten structured output field-for-field into diffable text."""
    if isinstance(data, dict):
        if not data:
            yield f"{prefix}: (none)"
            return
        for key, value in data.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from _text_lines(value, path)
    elif isinstance(data, list):
        if not data:
            yield f"{prefix}: (none)"
            return
        for idx, value in enumerate(data):
            yield from _text_lines(value, f"{prefix}.{idx}")
    else:
        rendered = json.dumps(data) if not isinstance(data, str) else data
        yield f"{prefix}: {rendered}"


def _write(text: str, out: str | None) -> None:
    """Every command's output: written to the file ``out``, or to stdout."""
    if out:
        with open(out, "wb") as f:
            f.write(f"{text}\n".encode())
    else:
        print(text)


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    _write(json.dumps(payload, indent=2) if fmt == "structured"
           else "\n".join(_text_lines(payload)), out)


def _parse_int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.replace(" ", "").split(",") if part != ""]


def _vectors(args: argparse.Namespace) -> list[list[int]]:
    if not args.vector:
        raise ValueError(f"{args.family} needs at least one --vector")
    return [_parse_int_list(v) for v in args.vector]


# recipe parameter -> (its construct flag, the flag's argparse options, the
# reader of its value from the parsed arguments, or None for an integer
# flag of the parameter's own name)
CONSTRUCT_FLAGS: dict[str, tuple[str, dict, Callable | None]] = {
    "m": ("--m", {"type": int, "help": "cyclic order / diagonal modulus"}, None),
    "p": ("--p", {"type": int, "help": "prime"}, None),
    "c": ("--c", {"type": int, "help": "base rank"}, None),
    "e": ("--e", {"type": int, "help": "exponent level"}, None),
    "vectors": ("--vector", {"action": "append", "help": "diagonal exponent "
                             "vector 'a,b,...' (repeatable)"}, _vectors),
    "character": ("--character", {"help": "character exponents 'x1,x2,...'"},
                  lambda args: (None if args.character is None
                                else _parse_int_list(args.character))),
    "factors": ("--factor", {"action": "append", "help": "factor group file (repeatable)"},
                lambda args: [load_group_file(path).to_json()
                              for path in args.factor or []]),
}


def _spec_from_args(args: argparse.Namespace) -> GroupFamilySpec:
    family = FAMILY_TABLE[args.family]
    extra = [flag for key, (flag, _, _) in CONSTRUCT_FLAGS.items()
             if key not in family.params and getattr(args, flag[2:]) is not None]
    if extra:
        raise ValueError(f"construct {args.family} takes no {', '.join(extra)}")
    params = {}
    for key in family.params:
        _, _, read = CONSTRUCT_FLAGS[key]
        params[key] = read(args) if read else getattr(args, key)
    missing = [CONSTRUCT_FLAGS[key][0] for key, value in params.items() if value is None]
    if missing:
        raise ValueError(f"construct {args.family} needs {', '.join(missing)}")
    return GroupFamilySpec(args.family, params)


def cmd_construct(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    build_group(spec, cap=args.cap)  # validate the recipe closes
    write_group_file(spec, args.output)
    _write(f"wrote {args.output} ({spec.family})", None)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    spec = load_group_file(args.group)
    g = build_group(spec, cap=args.cap)
    series = g.lower_central_series()
    p, _ = g.p_group_base()
    exponent = g.exponent()
    levels = []
    e = 0
    while p ** e < exponent:
        e += 1
    for k in range(1, e + 1):
        levels.append({
            "k": k,
            "order_dividing_set": len(g.order_dividing_set(k)),
            "omega_subgroup": len(g.omega_subgroup(k)),
            "power_image_set": len(g.power_image_set(k)),
            "agemo_subgroup": len(g.agemo_subgroup(k)),
        })
    payload = {
        "family": spec.family,
        "params": spec.params,
        "order": len(g),
        "exponent": exponent,
        "class": len(series) - 1,
        "lower_central_orders": [len(term) for term in series],
        "center_order": len(g.center()),
        "abelian": g.is_abelian(),
        "metabelian": g.is_metabelian(),
        "power_structure": levels,
    }
    _emit(payload, args.format, args.output)
    return 0


def _on_group(decide: Callable) -> Callable:
    """A check of the recipe's closed group: ``decide(g, args)``."""
    return lambda spec, args: decide(build_group(spec, cap=args.cap), args)


def _s_hat(spec: GroupFamilySpec, args: argparse.Namespace) -> PropertyReport:
    """The basic family, the one affine carrier, is decided over all its
    induced representations with no group built; any other recipe on the
    one representation it supplies."""
    if spec.carrier == "affine":
        ps = spec.params
        return has_property_s_hat_basic(ps["p"], ps["c"], ps["e"], cap=args.cap)
    return has_property_s_hat_single(build_group(spec, cap=args.cap))


def _irreducible(g, args: argparse.Namespace) -> PropertyReport:
    verdict = is_irreducible(g)
    return PropertyReport("irreducible", verdict, witness=None if verdict else
                          {"explanation": "character norm differs from 1"})


# property -> (whether it needs a monomial carrier, its check of a recipe).
# Deciders are named inside function bodies, so each call reads the
# module's current binding (and a wrapper put there sees the call).
CHECKS: dict[str, tuple[bool, Callable]] = {
    "s": (True, _on_group(lambda g, args: has_property_s(g))),
    "s-hat": (False, _s_hat),
    "wp2": (False, _on_group(lambda g, args: has_wp2(g))),
    "p1": (False, _on_group(lambda g, args: has_p1(g, section_cap=args.section_cap))),
    "p2": (False, _on_group(lambda g, args: has_p2(g, section_cap=args.section_cap))),
    "regular": (False, _on_group(lambda g, args: is_regular(g))),
    "v-regular": (False, _on_group(
        lambda g, args: is_v_regular_bounded(g, args.powers, cap=args.cap))),
    "p-abelian": (False, _on_group(lambda g, args: is_p_abelian(g))),
    "engel": (False, _on_group(lambda g, args: is_engel(
        g, args.k if args.k is not None else g.p_group_base()[0] - 1))),
    "chi-containment": (True, _on_group(lambda g, args: chi_containment(g, args.j))),
    "irreducible": (True, _on_group(_irreducible)),
}
CHECK_PROPERTIES = tuple(CHECKS)


def _run_check(args: argparse.Namespace) -> PropertyReport:
    spec = load_group_file(args.group)
    monomial_only, check = CHECKS[args.property]
    if monomial_only and spec.carrier != "monomial":
        raise ValueError(f"property {args.property!r} needs a monomial carrier; "
                         f"{spec.family} is {spec.carrier}")
    return check(spec, args)


def cmd_check(args: argparse.Namespace) -> int:
    config = RunConfig(closure_cap=args.cap, section_cap=args.section_cap,
                       power_cap=args.powers, output=args.format)
    try:
        report = _run_check(args)
    except (ClosureCapExceeded, ValueError) as exc:
        _emit({"error": str(exc), "config": config.to_json()},
              args.format, args.output)
        return 2
    payload = {"report": report.to_json(), "config": config.to_json()}
    _emit(payload, args.format, args.output)
    if report.holds is True and not report.caps:
        return 0
    if report.holds is False:
        return 1
    return 2


def cmd_spectrum(args: argparse.Namespace) -> int:
    data = read_json(args.file)
    if not isinstance(data, dict):
        raise ValueError(f"{args.file} is neither a matrix nor a group file")
    if "perm" in data:
        matrix = MonomialMatrix.from_json(data)
        payload = {"n": matrix.n, "order": matrix.order(),
                   "det": matrix.det().to_json(),
                   "spectrum": matrix.spectrum().to_json()}
    elif "family" in data:
        spec = group_file_spec(data, args.file)
        if spec.carrier != "monomial":
            raise ValueError("spectra need a monomial carrier")
        gens = spec.generators
        payload = {"family": spec.family, "generators": [
            {"matrix": g.to_json(), "order": g.order(),
             "spectrum": g.spectrum().to_json()} for g in gens]}
    else:
        raise ValueError(f"{args.file} is neither a matrix nor a group file")
    _emit(payload, args.format, args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(closure_cap=args.cap, power_cap=args.powers,
                       output=args.format, seed=args.seed)
    names = None if not args.suite or args.suite == ["all"] else args.suite
    results = run_suites(names, config)
    passed = all(r.passed for r in results)
    if args.format == "structured":
        _emit({"suites": [r.to_json() for r in results],
               "config": config.to_json(), "passed": passed},
              args.format, args.output)
    else:
        lines = []
        for result in results:
            mark = "PASS" if result.passed else "FAIL"
            lines.append(f"{result.suite} [{mark}] {result.title} "
                         f"({result.elapsed:.1f}s)")
            lines += [criterion.line() for criterion in result.criteria]
        _write("\n".join(lines + [f"seed: {config.seed}"]), args.output)
    return 0 if passed else 1


# shared option -> (the RunConfig field of its default, help)
OPTIONS = {"--cap": ("closure_cap", "closure size cap"),
           "--section-cap": ("section_cap",
                             "largest |G| whose sections p1 and p2 scan, and "
                             f"1/{SUBGROUPS_PER_ORDER} of the most subgroups "
                             "its lattice may have"),
           "--powers": ("power_cap", "direct powers for v-regular evidence"),
           "--seed": ("seed", "seed for the sampling oracles")}


def _add_options(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add the options ``flags`` of ``OPTIONS``, then --format and -o."""
    for flag in flags:
        field, text = OPTIONS[flag]
        default = getattr(DEFAULTS, field)
        parser.add_argument(flag, type=int, default=default,
                            help=f"{text} (default {default})")
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text", help="output format")
    parser.add_argument("-o", "--output",
                        help="write output to a file instead of stdout")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process, its subcommands' in
    ``COMMANDS``: ``parse_args`` fills a fresh namespace per call."""
    parser = argparse.ArgumentParser(
        prog="submult",
        description="Exact monomial matrix p-groups: constructions, spectra "
                    "and property checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="write a group file")
    p_construct.add_argument("family", choices=FAMILIES)
    for flag, options, _ in CONSTRUCT_FLAGS.values():
        p_construct.add_argument(flag, **options)
    p_construct.add_argument("--cap", type=int, default=DEFAULTS.closure_cap)
    p_construct.add_argument("-o", "--output", required=True)
    p_construct.set_defaults(func=cmd_construct)

    p_analyze = sub.add_parser("analyze", help="structure report for a group file")
    p_analyze.add_argument("group")
    _add_options(p_analyze, "--cap")
    p_analyze.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="decide a property for a group file")
    p_check.add_argument("property", choices=CHECK_PROPERTIES)
    p_check.add_argument("group")
    p_check.add_argument("--k", type=int, default=None,
                         help="engel depth (default p-1)")
    p_check.add_argument("--j", type=int, default=None,
                         help="containment level (default: all up to the class)")
    _add_options(p_check, "--cap", "--section-cap", "--powers")
    p_check.set_defaults(func=cmd_check)

    p_spectrum = sub.add_parser("spectrum",
                                help="exact spectra of a matrix or group file")
    p_spectrum.add_argument("file")
    _add_options(p_spectrum)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("suite", nargs="*", default=["all"],
                          help=f"suite names ({', '.join(sorted(SUITES))}) or 'all'")
    _add_options(p_verify, "--cap", "--powers", "--seed")
    p_verify.set_defaults(func=cmd_verify)
    COMMANDS.update(sub.choices)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run a command line (default ``sys.argv[1:]``): a subcommand's parser takes its
    arguments; the full parser, its messages and exit codes, anything else."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, extra = build_parser(), True
    if argv and (command := COMMANDS.get(argv[0])):
        args, extra = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extra:
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClosureCapExceeded, ValueError, OSError, OracleUnavailable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
