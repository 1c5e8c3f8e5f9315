"""Command-line drivers: batch checks over the corpus with reproducible reports.

Subcommands
    criterion  coprime-product criterion vs subgroup nilpotency (delta or gamma)
    probe      criterion scan on insoluble groups, candidate flagging only
    focal      Sylow-intersection generation by word values
    lemmas     the full battery of supporting-fact checks
    tower      normalizer tower and prime-power generating set
    series     derived / lower-central / lower-Fitting order profiles
    corpus     list builtin groups

Exit status: 0 when all checks are consistent, 1 when any consistency
invariant fails, 2 on usage or descriptor parse errors.  Reports are
deterministic given (groups, flags, seed): no timestamps or timings are
serialized, and keys are emitted in sorted order.
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Sequence

from . import __version__
from .corpus import BUILTINS, builtin_names, corpus_hash, filter_names, load_group
from .criterion import (
    derived_nilpotency_check,
    lower_central_nilpotency_check,
    probe_insoluble,
)
from .errors import (
    HypothesisNotSatisfied,
    InvalidPermutation,
    NilcritError,
    OrderMismatch,
    ParseError,
    TagMismatch,
)
from .group import DEFAULT_ENUM_CAP, PermGroup
from .lemmas import (
    check_coprime_action,
    check_coset_intersection,
    check_fitting_membership,
    check_focal_generation,
    check_lifted_generation,
    coset_intersection_instances,
    lifted_generation_instances,
)
from .perm import Permutation
from .primes import prime_factors
from .structure import (
    derived_series,
    is_metanilpotent,
    is_soluble,
    lower_central_series,
    lower_fitting_series,
)
from .words import generator_tower


def _perm_json(p: Permutation) -> dict:
    return {"images": p.one_based(), "cycles": p.cycle_string()}


def _witness_json(value) -> object:
    if isinstance(value, Permutation):
        return _perm_json(value)
    if isinstance(value, dict):
        return {k: _witness_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_witness_json(v) for v in value]
    return value


def _criterion_json(report) -> dict:
    out = {
        "kind": report.kind,
        "k": report.k,
        "holds": report.holds,
        "pairs_checked": report.pairs_checked,
        "classes_reduced": report.classes_reduced,
        "value_count": report.value_count,
        "witness": None,
    }
    if report.witness is not None:
        w = report.witness
        out["witness"] = {
            "a": _perm_json(w.a), "b": _perm_json(w.b),
            "order_a": w.order_a, "order_b": w.order_b, "order_ab": w.order_ab,
        }
    return out


def _lemma_json(report) -> dict:
    return {
        "lemma": report.lemma_id,
        "group": report.group_id,
        "params": _witness_json(report.params),
        "holds": report.holds,
        "witness": _witness_json(report.witness),
        "checked": report.checked,
    }


def _parse_k_range(text: str) -> list[int]:
    """Depths named by --k: one depth like ``2`` or an inclusive range like ``1..3``."""
    lo, sep, hi = text.partition("..")
    try:
        depths = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        depths = []
    if not depths or depths[0] < 0:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a depth >= 0 or a nonempty range like 1..3")
    return depths


def _k_arg(text: str) -> str:
    """argparse type of --k: rejects bad depths as usage errors, keeps the text for reports."""
    _parse_k_range(text)
    return text


def _cap_arg(text: str) -> int:
    """argparse type of --cap: an integer >= 1, so bad caps are usage errors."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return cap


def _json_arg(text: str) -> str:
    """argparse type of --json: '-' or a file path in an existing directory.

    A report path that cannot be written is a usage error before any check
    runs, not an OSError after all of them.
    """
    if text == "-" or Path(text).parent.is_dir() and not Path(text).is_dir():
        return text
    raise argparse.ArgumentTypeError(f"{text!r} is not '-' or a file in an existing directory")


def _select_groups(args, default_filter: str) -> list[PermGroup]:
    if args.groups:
        names = list(args.groups)
    else:
        names = filter_names(args.filter or default_filter)
    return [load_group(name) for name in names]


def _json_chunks(value, newline: str, out: list[str]) -> None:
    """Append to ``out`` the text ``json.dumps(value, sort_keys=True, indent=2)`` gives.

    ``newline`` is a line break followed by the indent of the line the value
    starts on.  Strings, ints, bools, None, and nonempty lists, tuples and
    dicts with string keys are written here, a list of ints in one join;
    anything else, such as a float, an int or str subclass or a dict with
    other keys, is handed to ``json.dumps``, so it serializes, or raises,
    exactly as there.  Reports are trees, so no cycle check is made.
    """
    kind = type(value)
    if kind is str:
        out.append(_json_str(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif (kind is list or kind is tuple) and value:
        inner = newline + "  "
        if all(type(v) is int for v in value):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value))
                       + newline + "]")
            return
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _json_chunks(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict and value and all(type(k) is str for k in value):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + _json_str(key) + ": ")
            _json_chunks(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def report_text(report) -> str:
    """The report as ``json.dumps(report, sort_keys=True, indent=2) + "\\n"`` writes it."""
    chunks: list[str] = []
    _json_chunks(report, "\n", chunks)
    chunks.append("\n")
    return "".join(chunks)


def _emit(args, command: str, groups: list[PermGroup], records: list[dict],
          aggregate: dict, flags: dict) -> None:
    if not args.json:
        return
    report = {
        "tool": {"name": "nilcrit", "version": __version__},
        "command": command,
        "flags": flags,
        "seed": getattr(args, "seed", 0),
        "corpus_hash": corpus_hash([g.name or "?" for g in groups]),
        "groups": sorted((g.name or "?") for g in groups),
        "records": records,
        "aggregate": aggregate,
    }
    text = report_text(report)
    if args.json == "-":
        sys.stdout.write(text)
    else:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_corpus(args) -> int:
    for name in builtin_names():
        d = BUILTINS[name]
        print(f"{name:10s} degree {d.degree:4d} order {d.expected_order:5d}  "
              f"[{', '.join(d.tags)}]")
    return 0


def _cmd_series(args) -> int:
    groups = _select_groups(args, "all")
    records = []
    for G in groups:
        entry = {
            "group": G.name,
            "order": G.order(),
            "derived_orders": list(derived_series(G).orders),
            "lower_central_orders": list(lower_central_series(G).orders),
            "lower_fitting_orders": list(lower_fitting_series(G).orders),
            "fitting_height": lower_fitting_series(G).fitting_height,
        }
        records.append(entry)
        print(f"{G.name}: derived {entry['derived_orders']} "
              f"lower-central {entry['lower_central_orders']} "
              f"fitting-height {entry['fitting_height']}")
    _emit(args, "series", groups, records, {"groups": len(groups)}, {})
    return 0


def _cmd_criterion(args) -> int:
    groups = _select_groups(args, "soluble" if args.kind == "delta" else "all")
    ks = _parse_k_range(args.k)
    records = []
    bad = 0
    for G in groups:
        for k in ks:
            if args.kind == "gamma":
                if k < 1:
                    continue
                chk = lower_central_nilpotency_check(G, k, args.cap)
            elif not is_soluble(G):
                probe = probe_insoluble(G, k, args.cap)
                records.append({
                    "group": G.name, "k": k, "routed_to_probe": True,
                    "criterion": _criterion_json(probe.criterion),
                    "is_candidate_counterexample": probe.is_candidate_counterexample,
                })
                print(f"{G.name} k={k} delta: insoluble, probed; "
                      f"criterion={'holds' if probe.criterion.holds else 'fails'}")
                continue
            else:
                chk = derived_nilpotency_check(G, k, args.cap)
            records.append({
                "group": G.name, "k": k, "routed_to_probe": False,
                "criterion": _criterion_json(chk.criterion),
                "subgroup_order": chk.subgroup_order,
                "subgroup_nilpotent": chk.subgroup_nilpotent,
                "consistent": chk.consistent,
            })
            verdict = "holds" if chk.criterion.holds else "fails"
            print(f"{G.name} k={k} {args.kind}: criterion={verdict} "
                  f"subgroup_nilpotent={chk.subgroup_nilpotent} consistent={chk.consistent}")
            if not chk.consistent:
                bad += 1
    aggregate = {"groups": len(groups), "checks": len(records), "inconsistencies": bad}
    _emit(args, "criterion", groups, records, aggregate,
          {"k": args.k, "kind": args.kind, "cap": args.cap})
    print(f"{'OK' if bad == 0 else 'FAIL'}: {len(records)} checks, {bad} inconsistencies")
    return 0 if bad == 0 else 1


def _cmd_probe(args) -> int:
    groups = _select_groups(args, "insoluble")
    ks = _parse_k_range(args.k)
    records = []
    candidates = 0
    for G in groups:
        for k in ks:
            probe = probe_insoluble(G, k, args.cap)
            records.append({
                "group": G.name, "k": k,
                "soluble": probe.soluble,
                "criterion": _criterion_json(probe.criterion),
                "is_candidate_counterexample": probe.is_candidate_counterexample,
            })
            note = ""
            if probe.is_candidate_counterexample:
                candidates += 1
                note = "  <-- CANDIDATE COUNTEREXAMPLE: insoluble group satisfying the criterion"
            print(f"{G.name} k={k}: criterion="
                  f"{'holds' if probe.criterion.holds else 'fails'}{note}")
    aggregate = {"groups": len(groups), "checks": len(records),
                 "candidate_counterexamples": candidates}
    _emit(args, "probe", groups, records, aggregate, {"k": args.k, "cap": args.cap})
    print(f"probe complete: {len(records)} checks, {candidates} candidate counterexamples")
    return 0


def _cmd_focal(args) -> int:
    groups = _select_groups(args, "soluble")
    ks = _parse_k_range(args.k)
    records = []
    bad = 0
    for G in groups:
        if not is_soluble(G):
            print(f"{G.name}: skipped (insoluble)")
            continue
        for depth in ks:
            for p in prime_factors(G.order()):
                rep = check_focal_generation(G, depth, p, args.cap)
                records.append(_lemma_json(rep))
                if not rep.holds:
                    bad += 1
                    print(f"{G.name} depth={depth} p={p}: FAIL {rep.witness}")
        print(f"{G.name}: focal generation verified for depths {ks}")
    aggregate = {"groups": len(groups), "checks": len(records), "failures": bad}
    _emit(args, "focal", groups, records, aggregate, {"k": args.k, "cap": args.cap})
    print(f"{'OK' if bad == 0 else 'FAIL'}: {len(records)} checks, {bad} failures")
    return 0 if bad == 0 else 1


def _cmd_tower(args) -> int:
    groups = _select_groups(args, "soluble")
    records = []
    bad = 0
    for G in groups:
        if not is_soluble(G):
            print(f"{G.name}: skipped (insoluble)")
            continue
        tower = generator_tower(G, seed=args.seed, cap=args.cap)
        records.append({
            "group": G.name,
            "height": tower.height,
            "chain_orders": list(tower.chain_orders()),
            "normalizer_orders": list(tower.normalizer_orders()),
            "generating_set_size": len(tower.generating_set),
            "depth_set_sizes": [len(d) for d in tower.depth_sets],
        })
        print(f"{G.name}: height {tower.height}, normalizer orders "
              f"{list(tower.normalizer_orders())}, |X| = {len(tower.generating_set)}")
    aggregate = {"groups": len(groups), "checks": len(records), "failures": bad}
    _emit(args, "tower", groups, records, aggregate,
          {"cap": args.cap, "seed": args.seed})
    print(f"OK: {len(records)} towers built and verified")
    return 0


def _cmd_lemmas(args) -> int:
    groups = _select_groups(args, "all")
    ks = _parse_k_range(args.k)
    records = []
    bad = 0
    skipped = 0
    for G in groups:
        for inst in coset_intersection_instances(G, cap=args.cap):
            rep = check_coset_intersection(G, inst["N"], inst["p"], inst["X"], args.cap)
            rep.params["depth"] = inst["depth"]
            records.append(_lemma_json(rep))
            bad += 0 if rep.holds else 1
        for inst in lifted_generation_instances(G, cap=args.cap):
            try:
                rep = check_lifted_generation(G, inst["N"], inst["L"], inst["p"],
                                              inst["X"], args.cap)
            except HypothesisNotSatisfied as exc:
                skipped += 1
                records.append({"lemma": "lifted_generation", "group": G.name,
                                "params": {"p": inst["p"], "N_order": inst["N"].order(),
                                           "L_order": inst["L"].order(),
                                           "depth": inst["depth"]},
                                "status": "hypothesis_not_satisfied", "detail": str(exc)})
                continue
            rep.params["depth"] = inst["depth"]
            records.append(_lemma_json(rep))
            bad += 0 if rep.holds else 1
        if is_soluble(G):
            for depth in ks:
                for p in prime_factors(G.order()):
                    rep = check_focal_generation(G, depth, p, args.cap)
                    records.append(_lemma_json(rep))
                    bad += 0 if rep.holds else 1
        if is_metanilpotent(G):
            for p in prime_factors(G.order()):
                rep = check_fitting_membership(G, p, args.cap)
                records.append(_lemma_json(rep))
                bad += 0 if rep.holds else 1
        for k in ks:
            try:
                rep = check_coprime_action(G, k, args.cap)
            except HypothesisNotSatisfied as exc:
                skipped += 1
                records.append({"lemma": "coprime_action", "group": G.name,
                                "params": {"k": k},
                                "status": "hypothesis_not_satisfied", "detail": str(exc)})
                continue
            records.append(_lemma_json(rep))
            bad += 0 if rep.holds else 1
        print(f"{G.name}: lemma battery done")
    if args.strict and skipped:
        bad += skipped
    aggregate = {"groups": len(groups), "checks": len(records), "failures": bad,
                 "hypothesis_not_satisfied": skipped}
    _emit(args, "lemmas", groups, records, aggregate,
          {"k": args.k, "cap": args.cap, "strict": args.strict})
    print(f"{'OK' if bad == 0 else 'FAIL'}: {len(records)} records, {bad} failures, "
          f"{skipped} inadmissible instances")
    return 0 if bad == 0 else 1


# name -> (help, default --k, driver); corpus takes no group arguments
_COMMANDS = {
    "criterion": ("criterion vs nilpotency consistency", "1..3", _cmd_criterion),
    "probe": ("criterion scan on insoluble groups", "1..3", _cmd_probe),
    "focal": ("Sylow-intersection generation checks", "1..3", _cmd_focal),
    "lemmas": ("full supporting-fact battery", "1..3", _cmd_lemmas),
    "tower": ("normalizer tower / prime-power generating set", "1", _cmd_tower),
    "series": ("structural series order profiles", "1", _cmd_series),
    "corpus": ("list builtin groups", None, _cmd_corpus),
}


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """Give the parser of subcommand ``name`` its arguments and its driver."""
    _, k_default, driver = _COMMANDS[name]
    p.set_defaults(func=driver)
    if k_default is None:
        return
    p.add_argument("groups", nargs="*",
                   help="builtin ids or descriptor file paths (default: filtered corpus)")
    p.add_argument("--filter", choices=("all", "soluble", "insoluble", "nilpotent"),
                   help="corpus slice when no groups are given")
    p.add_argument("--k", default=k_default, type=_k_arg,
                   help=f"word depth or range, e.g. 2 or 1..3 (default {k_default})")
    p.add_argument("--cap", type=_cap_arg, default=DEFAULT_ENUM_CAP,
                   help="element enumeration cap")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
    p.add_argument("--json", type=_json_arg,
                   help="write a deterministic JSON report here ('-' for stdout)")
    p.add_argument("--strict", action="store_true",
                   help="treat inadmissible (hypothesis-failing) instances as errors")
    if name == "criterion":
        p.add_argument("--kind", choices=("delta", "gamma"), default="delta")


def build_parser() -> argparse.ArgumentParser:
    """The full parser, every subcommand included: for help, version and usage errors."""
    parser = argparse.ArgumentParser(
        prog="nilcrit",
        description="verify nilpotency criteria for commutator-word subgroups "
                    "on concrete permutation groups")
    parser.add_argument("--version", action="version", version=f"nilcrit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def _subcommand_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser alone, built as ``build_parser`` builds its subparser."""
    parser = argparse.ArgumentParser(prog=f"nilcrit {name}")
    _add_arguments(parser, name)
    parser.set_defaults(command=name)
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building one subcommand's parser when that suffices.

    When ``argv`` starts with a subcommand that parses the rest cleanly, the
    result is the Namespace the full parser gives, and the subcommand's help
    and usage errors are the full parser's too.  Arguments it leaves over
    are reported by the full parser, which names itself in that message.
    """
    if argv and argv[0] in _COMMANDS:
        args, extras = _subcommand_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ParseError, InvalidPermutation, OrderMismatch, TagMismatch) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except NilcritError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
