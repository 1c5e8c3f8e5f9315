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
from .indexed import indexed_view
from .lemmas import (
    COSET_DEPTHS,
    CosetBatch,
    QUOTIENT_HYPOTHESIS_FAILS,
    check_coprime_action,
    check_fitting_membership,
    check_focal_generation,
    coset_lemma_batch,
    p_power_value_closure,
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
        "classes_reduced": True,  # the scan always runs over class representatives
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
        "params": report.params,
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


def _json_chunks(value, newline: str, out: list[str], shapes: dict) -> None:
    """Append to ``out`` the text ``json.dumps(value, sort_keys=True, indent=2)`` gives.

    ``newline`` is a line break followed by the indent of the line the value
    starts on.  Strings, ints, bools, None, and nonempty lists, tuples and
    dicts with string keys are written here, a list of ints in one join;
    anything else, such as a float, an int or str subclass or a dict with
    other keys, is handed to ``json.dumps``, so it serializes, or raises,
    exactly as there.  Reports are trees, so no cycle check is made.

    ``shapes`` belongs to one report write.  It maps a dict's key tuple, in
    insertion order, and ``newline`` to the sorted keys, each paired with
    the text written before its value, and to the closing text; it is filled
    only for dicts whose keys are all exact strs.  So the records of one
    shape sort and encode their keys once per depth.  A later dict whose
    keys equal a cached tuple, such as str subclasses that hash, compare and
    sort as str does, takes that shape, and ``json.dumps`` writes those keys
    alike.  Scalar values of a dict are written in its loop, and only
    containers recurse.
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
            _json_chunks(v, inner, out, shapes)
            sep = "," + inner
        out.append(newline + "]")
    elif kind is dict and value and ((shape := shapes.get((tuple(value), newline)))
                                     or all(type(k) is str for k in value)):
        if shape is None:
            inner = newline + "  "
            sep = "{" + inner
            prefixed = []
            for key in sorted(value):
                prefixed.append((key, sep + _json_str(key) + ": "))
                sep = "," + inner
            shape = shapes[tuple(value), newline] = prefixed, newline + "}"
        prefixed, close = shape
        for key, prefix in prefixed:
            v = value[key]
            kind = type(v)
            if kind is int:
                out.append(prefix + int.__repr__(v))
            elif kind is str:
                out.append(prefix + _json_str(v))
            elif v is None:
                out.append(prefix + "null")
            elif v is True:
                out.append(prefix + "true")
            elif v is False:
                out.append(prefix + "false")
            else:
                out.append(prefix)
                _json_chunks(v, newline + "  ", out, shapes)
        out.append(close)
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", newline))


def write_report(report, stream) -> None:
    """Write ``json.dumps(report, sort_keys=True, indent=2) + "\\n"`` to the text stream.

    The text is never one string: its chunks are joined and written in
    blocks of 2**16, so a large report costs its chunk list, not a second
    copy of itself.
    """
    chunks: list[str] = []
    _json_chunks(report, "\n", chunks, {})
    chunks.append("\n")
    block = 1 << 16
    for start in range(0, len(chunks), block):
        stream.write("".join(chunks[start:start + block]))


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
    if args.json == "-":
        write_report(report, sys.stdout)
    else:
        with open(args.json, "w", encoding="utf-8") as fh:
            write_report(report, fh)


def _progress(args):
    """Where a driver's progress lines go: stderr when the report itself goes to stdout."""
    return sys.stderr if args.json == "-" else sys.stdout


def _cmd_corpus(args) -> int:
    for name in builtin_names():
        d = BUILTINS[name]
        print(f"{name:10s} degree {d.degree:4d} order {d.expected_order:5d}  "
              f"[{', '.join(d.tags)}]")
    return 0


def _cmd_series(args) -> int:
    log = _progress(args)
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
              f"fitting-height {entry['fitting_height']}", file=log)
    _emit(args, "series", groups, records, {"groups": len(groups)}, {})
    return 0


def _cmd_criterion(args) -> int:
    log = _progress(args)
    groups = _select_groups(args, "soluble" if args.kind == "delta" else "all")
    ks = _parse_k_range(args.k)
    records = []
    bad = 0
    for G in groups:
        for k in ks:
            if args.kind == "gamma" and k < 1:
                continue
            indexed_view(G, args.cap)
            if args.kind == "gamma":
                chk = lower_central_nilpotency_check(G, k)
            elif not is_soluble(G):
                probe = probe_insoluble(G, k)
                records.append({
                    "group": G.name, "k": k, "routed_to_probe": True,
                    "criterion": _criterion_json(probe.criterion),
                    "is_candidate_counterexample": probe.is_candidate_counterexample,
                })
                print(f"{G.name} k={k} delta: insoluble, probed; "
                      f"criterion={'holds' if probe.criterion.holds else 'fails'}", file=log)
                continue
            else:
                chk = derived_nilpotency_check(G, k)
            records.append({
                "group": G.name, "k": k, "routed_to_probe": False,
                "criterion": _criterion_json(chk.criterion),
                "subgroup_order": chk.subgroup_order,
                "subgroup_nilpotent": chk.subgroup_nilpotent,
                "consistent": chk.consistent,
            })
            verdict = "holds" if chk.criterion.holds else "fails"
            print(f"{G.name} k={k} {args.kind}: criterion={verdict} "
                  f"subgroup_nilpotent={chk.subgroup_nilpotent} consistent={chk.consistent}",
                  file=log)
            if not chk.consistent:
                bad += 1
    aggregate = {"groups": len(groups), "checks": len(records), "inconsistencies": bad}
    _emit(args, "criterion", groups, records, aggregate,
          {"k": args.k, "kind": args.kind, "cap": args.cap})
    print(f"{'OK' if bad == 0 else 'FAIL'}: {len(records)} checks, {bad} inconsistencies",
          file=log)
    return 0 if bad == 0 else 1


def _cmd_probe(args) -> int:
    log = _progress(args)
    groups = _select_groups(args, "insoluble")
    ks = _parse_k_range(args.k)
    records = []
    candidates = 0
    for G in groups:
        indexed_view(G, args.cap)
        for k in ks:
            probe = probe_insoluble(G, k)
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
                  f"{'holds' if probe.criterion.holds else 'fails'}{note}", file=log)
    aggregate = {"groups": len(groups), "checks": len(records),
                 "candidate_counterexamples": candidates}
    _emit(args, "probe", groups, records, aggregate, {"k": args.k, "cap": args.cap})
    print(f"probe complete: {len(records)} checks, {candidates} candidate counterexamples",
          file=log)
    return 0


def _cmd_focal(args) -> int:
    log = _progress(args)
    groups = _select_groups(args, "soluble")
    ks = _parse_k_range(args.k)
    records = []
    bad = 0
    for G in groups:
        if not is_soluble(G):
            print(f"{G.name}: skipped (insoluble)", file=log)
            continue
        indexed_view(G, args.cap)
        for depth in ks:
            for p in prime_factors(G.order()):
                rep = check_focal_generation(G, depth, p)
                records.append(_lemma_json(rep))
                if not rep.holds:
                    bad += 1
                    print(f"{G.name} depth={depth} p={p}: FAIL {rep.witness}", file=log)
        print(f"{G.name}: focal generation verified for depths {ks}", file=log)
    aggregate = {"groups": len(groups), "checks": len(records), "failures": bad}
    _emit(args, "focal", groups, records, aggregate, {"k": args.k, "cap": args.cap})
    print(f"{'OK' if bad == 0 else 'FAIL'}: {len(records)} checks, {bad} failures", file=log)
    return 0 if bad == 0 else 1


def _cmd_tower(args) -> int:
    log = _progress(args)
    groups = _select_groups(args, "soluble")
    records = []
    for G in groups:
        if not is_soluble(G):
            print(f"{G.name}: skipped (insoluble)", file=log)
            continue
        indexed_view(G, args.cap)
        tower = generator_tower(G, seed=args.seed)
        records.append({
            "group": G.name,
            "height": tower.height,
            "chain_orders": list(tower.chain_orders()),
            "normalizer_orders": list(tower.normalizer_orders()),
            "generating_set_size": len(tower.generating_set),
            "depth_set_sizes": [len(d) for d in tower.depth_sets],
        })
        print(f"{G.name}: height {tower.height}, normalizer orders "
              f"{list(tower.normalizer_orders())}, |X| = {len(tower.generating_set)}", file=log)
    aggregate = {"groups": len(groups), "checks": len(records), "failures": 0}
    _emit(args, "tower", groups, records, aggregate,
          {"cap": args.cap, "seed": args.seed})
    print(f"OK: {len(records)} towers built and verified", file=log)
    return 0


def _coset_lemma_records(G: PermGroup) -> list[dict]:
    """Records of the two coset lemmas: coset_intersection per (p, depth, N), then
    lifted_generation per (p, depth, N, L), inadmissible instances included.

    Each (p, X) is checked by one ``coset_lemma_batch``.  A depth whose value
    set X equals an earlier depth's re-emits that batch's reports, with the
    depth added to copies of their params.
    """

    def at_depth(report, depth: int) -> dict:
        record = _lemma_json(report)
        record["params"] = {**report.params, "depth": depth}
        return record

    batches: dict[tuple[int, frozenset[int]], CosetBatch] = {}
    runs = []
    for p in prime_factors(G.order()):
        for depth in COSET_DEPTHS:
            X = p_power_value_closure(G, depth, p)
            if (p, X) not in batches:
                batches[p, X] = coset_lemma_batch(G, p, X)
            runs.append((p, depth, batches[p, X]))
    records = [at_depth(rep, depth) for _, depth, batch in runs for rep in batch.coset]
    for p, depth, batch in runs:
        for N, L, rep in batch.lifted:
            if rep is None:
                records.append({"lemma": "lifted_generation", "group": G.name,
                                "params": {"p": p, "N_order": len(N), "L_order": len(L),
                                           "depth": depth},
                                "status": "hypothesis_not_satisfied",
                                "detail": QUOTIENT_HYPOTHESIS_FAILS})
            else:
                records.append(at_depth(rep, depth))
    return records


def _cmd_lemmas(args) -> int:
    log = _progress(args)
    groups = _select_groups(args, "all")
    ks = _parse_k_range(args.k)
    records = []
    bad = 0
    skipped = 0
    for G in groups:
        indexed_view(G, args.cap)
        for rec in _coset_lemma_records(G):
            records.append(rec)
            if "status" in rec:
                skipped += 1
            elif not rec["holds"]:
                bad += 1
        if is_soluble(G):
            for depth in ks:
                for p in prime_factors(G.order()):
                    rep = check_focal_generation(G, depth, p)
                    records.append(_lemma_json(rep))
                    bad += 0 if rep.holds else 1
        if is_metanilpotent(G):
            for p in prime_factors(G.order()):
                rep = check_fitting_membership(G, p)
                records.append(_lemma_json(rep))
                bad += 0 if rep.holds else 1
        for k in ks:
            try:
                rep = check_coprime_action(G, k)
            except HypothesisNotSatisfied as exc:
                skipped += 1
                records.append({"lemma": "coprime_action", "group": G.name,
                                "params": {"k": k},
                                "status": "hypothesis_not_satisfied", "detail": str(exc)})
                continue
            records.append(_lemma_json(rep))
            bad += 0 if rep.holds else 1
        print(f"{G.name}: lemma battery done", file=log)
    if args.strict and skipped:
        bad += skipped
    aggregate = {"groups": len(groups), "checks": len(records), "failures": bad,
                 "hypothesis_not_satisfied": skipped}
    _emit(args, "lemmas", groups, records, aggregate,
          {"k": args.k, "cap": args.cap, "strict": args.strict})
    print(f"{'OK' if bad == 0 else 'FAIL'}: {len(records)} records, {bad} failures, "
          f"{skipped} inadmissible instances", file=log)
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


def _options(name: str) -> dict[str, dict]:
    """Each option of subcommand ``name``, in help order, with its ``add_argument`` keywords.

    Both parsers read them: the full parser's subparser and ``_parse_plain``.
    """
    k_default = _COMMANDS[name][1]
    options = {
        "--filter": dict(choices=("all", "soluble", "insoluble", "nilpotent"),
                         help="corpus slice when no groups are given"),
        "--k": dict(default=k_default, type=_k_arg,
                    help=f"word depth or range, e.g. 2 or 1..3 (default {k_default})"),
        "--cap": dict(type=_cap_arg, default=DEFAULT_ENUM_CAP,
                      help=f"largest group order to enumerate (default {DEFAULT_ENUM_CAP})"),
        "--seed": dict(type=int, default=0, help="seed for randomized searches"),
        "--json": dict(type=_json_arg,
                       help="write a deterministic JSON report here ('-' for stdout)"),
        "--strict": dict(action="store_true",
                         help="treat inadmissible (hypothesis-failing) instances as errors"),
    }
    if name == "criterion":
        options["--kind"] = dict(choices=("delta", "gamma"), default="delta")
    return options


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """Give the parser of subcommand ``name`` its arguments and its driver."""
    _, k_default, driver = _COMMANDS[name]
    p.set_defaults(func=driver)
    if k_default is None:
        return
    p.add_argument("groups", nargs="*",
                   help="builtin ids or descriptor file paths (default: filtered corpus)")
    for flag, keywords in _options(name).items():
        p.add_argument(flag, **keywords)


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


def _parse_plain(name: str, rest: Sequence[str]) -> argparse.Namespace | None:
    """The Namespace the full parser gives for ``[name, *rest]`` when rest is plain, else None.

    Plain is: group arguments, none starting with '-', then whole option
    names, each but --strict followed by a value that is '-' or does not
    start with '-', and accepted by the option's type and choices.  On such
    an argv argparse takes the groups as one list, converts each value and
    each str default by the option's type, and keeps the last value of an
    option given twice, and so does this.  Anything else is None, so
    argparse parses it and reports every usage error.
    """
    _, k_default, func = _COMMANDS[name]
    args = argparse.Namespace(command=name, func=func)
    if k_default is None:
        return None if rest else args
    options = _options(name)
    for flag, keywords in options.items():
        # a store_true option defaults to False, any other without a default to None
        default = keywords.get("default", False if "action" in keywords else None)
        if isinstance(default, str) and "type" in keywords:
            default = keywords["type"](default)
        setattr(args, flag[2:], default)
    i = 0
    while i < len(rest) and not rest[i].startswith("-"):
        i += 1
    args.groups = list(rest[:i])
    while i < len(rest):
        keywords = options.get(rest[i])
        if keywords is None:
            return None
        if "action" in keywords:
            setattr(args, rest[i][2:], True)
            i += 1
            continue
        if i + 1 == len(rest) or rest[i + 1].startswith("-") and rest[i + 1] != "-":
            return None
        try:
            value = keywords.get("type", str)(rest[i + 1])
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        setattr(args, rest[i][2:], value)
        i += 2
    return args


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with no parser built when ``_parse_plain`` suffices.

    Help, usage errors and every argv that is not plain go to the full
    parser, so their text is the same either way.
    """
    if argv and argv[0] in _COMMANDS:
        args = _parse_plain(argv[0], argv[1:])
        if args is not None:
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
