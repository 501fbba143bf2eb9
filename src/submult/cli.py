"""Command-line front end: construct | analyze | check | spectrum | verify.

Exit codes for ``check``: 0 when the property holds with nothing capped,
1 when it fails (the report carries a replayable witness), 2 when only
capped verdicts are available or the inputs cannot be processed.  A run
never exits 0 if a cap was hit on a quantifier that is unbounded in the
underlying property.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterator, Sequence

from .config import RunConfig
from .families import (GroupFamilySpec, build_generators, build_group,
                       load_group_file, write_group_file)
from .groups import ClosureCapExceeded
from .monomial import MonomialMatrix
from .properties import (PropertyReport, chi_containment, has_p1, has_p2,
                         has_property_s, has_property_s_hat_basic,
                         has_property_s_hat_single, has_wp2, is_engel,
                         is_irreducible, is_p_abelian, is_regular,
                         is_v_regular_bounded)
from .suites import SUITES, run_suites

CHECK_PROPERTIES = ("s", "s-hat", "wp2", "p1", "p2", "regular", "v-regular",
                    "p-abelian", "engel", "chi-containment", "irreducible")


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


def _emit(payload: dict, fmt: str, out: str | None) -> None:
    if fmt == "structured":
        text = json.dumps(payload, indent=2)
    else:
        text = "\n".join(_text_lines(payload))
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _parse_int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.replace(" ", "").split(",") if part != ""]


def _spec_from_args(args: argparse.Namespace) -> GroupFamilySpec:
    family = args.family
    if family == "cyclic":
        params: dict = {"m": args.m}
    elif family in ("heisenberg", "wreath_cp_cp"):
        params = {"p": args.p}
    elif family == "basic":
        params = {"p": args.p, "c": args.c, "e": args.e}
    elif family in ("quaternion8", "dihedral8"):
        params = {}
    elif family == "diagonal_abelian":
        if not args.vector:
            raise ValueError("diagonal_abelian needs at least one --vector")
        params = {"m": args.m, "vectors": [_parse_int_list(v) for v in args.vector]}
    elif family == "induced_rep":
        params = {"p": args.p, "c": args.c, "e": args.e,
                  "character": None if args.character is None
                  else _parse_int_list(args.character)}
    elif family == "direct_product":
        if not args.factor or len(args.factor) < 2:
            raise ValueError("direct_product needs at least two --factor files")
        factors = [load_group_file(path).to_json() for path in args.factor]
        params = {"factors": factors}
    else:
        raise ValueError(f"unknown family {family!r}")
    missing = [f"--{key}" for key, value in params.items() if value is None]
    if missing:
        raise ValueError(f"construct {family} needs {', '.join(missing)}")
    return GroupFamilySpec(family, params)


def cmd_construct(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    build_group(spec, cap=args.cap)  # validate the recipe closes
    write_group_file(spec, args.output)
    print(f"wrote {args.output} ({spec.family})")
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


def _run_check(args: argparse.Namespace, config: RunConfig) -> PropertyReport:
    spec = load_group_file(args.group)
    prop = args.property
    monomial_only = prop in ("s", "chi-containment", "irreducible")
    if monomial_only and spec.carrier != "monomial":
        raise ValueError(f"property {prop!r} needs a monomial carrier; "
                         f"{spec.family} is {spec.carrier}")
    if prop == "s-hat" and spec.family == "basic":
        ps = spec.params
        return has_property_s_hat_basic(int(ps["p"]), int(ps["c"]), int(ps["e"]),
                                        cap=config.closure_cap)
    g = build_group(spec, cap=config.closure_cap)
    if prop == "s":
        return has_property_s(g)
    if prop == "s-hat":
        return has_property_s_hat_single(g)
    if prop == "chi-containment":
        return chi_containment(g, args.j)
    if prop == "irreducible":
        verdict = is_irreducible(g)
        return PropertyReport("irreducible", verdict,
                              witness=None if verdict else
                              {"explanation": "character norm differs from 1"})
    if prop == "wp2":
        return has_wp2(g)
    if prop == "p1":
        return has_p1(g, section_cap=config.section_cap)
    if prop == "p2":
        return has_p2(g, section_cap=config.section_cap)
    if prop == "regular":
        return is_regular(g)
    if prop == "v-regular":
        return is_v_regular_bounded(g, config.power_cap, cap=config.closure_cap)
    if prop == "p-abelian":
        return is_p_abelian(g)
    if prop == "engel":
        depth = args.k if args.k is not None else g.p_group_base()[0] - 1
        return is_engel(g, depth)
    raise ValueError(f"unknown property {prop!r}")


def cmd_check(args: argparse.Namespace) -> int:
    config = RunConfig(closure_cap=args.cap, section_cap=args.section_cap,
                       power_cap=args.powers, output=args.format, seed=args.seed)
    try:
        report = _run_check(args, config)
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
    data = json.loads(Path(args.file).read_text(encoding="utf-8"))
    if not isinstance(data, dict):
        raise ValueError(f"{args.file} is neither a matrix nor a group file")
    if "perm" in data:
        matrix = MonomialMatrix.from_json(data)
        payload = {"n": matrix.n, "order": matrix.order(),
                   "det": matrix.det().to_json(),
                   "spectrum": matrix.spectrum().to_json()}
    elif "family" in data:
        spec = load_group_file(args.file)
        if spec.carrier != "monomial":
            raise ValueError("spectra need a monomial carrier")
        gens = build_generators(spec)
        payload = {"family": spec.family, "generators": [
            {"matrix": g.to_json(), "order": g.order(),
             "spectrum": g.spectrum().to_json()} for g in gens]}
    else:
        raise ValueError(f"{args.file} is neither a matrix nor a group file")
    _emit(payload, args.format, args.output)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(closure_cap=args.cap, section_cap=args.section_cap,
                       power_cap=args.powers, output=args.format, seed=args.seed)
    names = None if not args.suite or args.suite == ["all"] else args.suite
    results = run_suites(names, config)
    if args.format == "structured":
        payload = {"suites": [r.to_json() for r in results],
                   "config": config.to_json(),
                   "passed": all(r.passed for r in results)}
        print(json.dumps(payload, indent=2))
    else:
        for result in results:
            mark = "PASS" if result.passed else "FAIL"
            print(f"{result.suite} [{mark}] {result.title} "
                  f"({result.elapsed:.1f}s)")
            for criterion in result.criteria:
                print(criterion.line())
        print(f"seed: {config.seed}")
    return 0 if all(r.passed for r in results) else 1


def _add_common(parser: argparse.ArgumentParser, *, output_default: str | None = None) -> None:
    parser.add_argument("--cap", type=int, default=4096,
                        help="closure size cap (default 4096)")
    parser.add_argument("--section-cap", type=int, default=256,
                        help="section enumeration cap (default 256)")
    parser.add_argument("--powers", type=int, default=2,
                        help="direct powers for v-regular evidence (default 2)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the sampling oracles (default 0)")
    parser.add_argument("--format", choices=("text", "structured"),
                        default="text", help="output format")
    parser.add_argument("-o", "--output", default=output_default,
                        help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submult",
        description="Exact monomial matrix p-groups: constructions, spectra "
                    "and property checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct", help="write a group file")
    p_construct.add_argument("family", choices=(
        "cyclic", "heisenberg", "wreath_cp_cp", "basic", "quaternion8",
        "dihedral8", "diagonal_abelian", "induced_rep", "direct_product"))
    p_construct.add_argument("--m", type=int, help="cyclic order / diagonal modulus")
    p_construct.add_argument("--p", type=int, help="prime")
    p_construct.add_argument("--c", type=int, help="base rank")
    p_construct.add_argument("--e", type=int, help="exponent level")
    p_construct.add_argument("--vector", action="append",
                             help="diagonal exponent vector 'a,b,...' (repeatable)")
    p_construct.add_argument("--character", help="character exponents 'x1,x2,...'")
    p_construct.add_argument("--factor", action="append",
                             help="factor group file (repeatable)")
    p_construct.add_argument("--cap", type=int, default=4096)
    p_construct.add_argument("-o", "--output", required=True)
    p_construct.set_defaults(func=cmd_construct)

    p_analyze = sub.add_parser("analyze", help="structure report for a group file")
    p_analyze.add_argument("group")
    p_analyze.add_argument("--cap", type=int, default=4096)
    p_analyze.add_argument("--format", choices=("text", "structured"),
                           default="text")
    p_analyze.add_argument("-o", "--output", default=None)
    p_analyze.set_defaults(func=cmd_analyze)

    p_check = sub.add_parser("check", help="decide a property for a group file")
    p_check.add_argument("property", choices=CHECK_PROPERTIES)
    p_check.add_argument("group")
    p_check.add_argument("--k", type=int, default=None,
                         help="engel depth (default p-1)")
    p_check.add_argument("--j", type=int, default=None,
                         help="containment level (default: all up to the class)")
    _add_common(p_check)
    p_check.set_defaults(func=cmd_check)

    p_spectrum = sub.add_parser("spectrum",
                                help="exact spectra of a matrix or group file")
    p_spectrum.add_argument("file")
    p_spectrum.add_argument("--format", choices=("text", "structured"),
                            default="text")
    p_spectrum.add_argument("-o", "--output", default=None)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_verify = sub.add_parser("verify", help="run the verification suites")
    p_verify.add_argument("suite", nargs="*", default=["all"],
                          help=f"suite names ({', '.join(sorted(SUITES))}) or 'all'")
    _add_common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ClosureCapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
