"""Command line front end.

Four commands: ``build`` dumps the lattice elements, ``analyze`` runs every
criterion on one configuration, ``scan`` sweeps a graph family and compares
criteria against brute-force oracles, ``export-dot`` writes the Hasse
diagram.  Identical inputs produce byte-identical output.

Exit codes: 0 success, 2 usage, parse or file failure, 3 size cap exceeded,
4 criterion/oracle disagreement outside conjecture scans.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from typing import Optional, Sequence

from .crosslattice import CrossSectionLattice
from .diagram import CoxeterGraph, build_custom_graph, format_nodeset, parse_nodeset
from .errors import (
    CrossLatError,
    InvalidSizeError,
    PreconditionError,
    SizeLimitError,
    UnsupportedGraphError,
)
from .flags import MAX_DEGREE, is_flag_symmetric
from .theorem_suite import (
    FAMILIES,
    HYPOTHESIS_NOTES,
    SCAN_FUNCTIONS,
    SCAN_RULES,
    CriterionReport,
    charpoly_formula,
    combinatorially_smooth_typeA,
    construct_m_chain,
    distributivity_criterion,
    family_graph,
    family_literal,
    stanley_factorization,
    supersolvability_criterion,
)

# Keys a --config file may set: the long option names without their dashes.
CONFIG_KEYS = ("graph", "family", "j0", "n-max", "format", "out", "jobs")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_BREACH = 4

# build and export-dot hold every row or line in memory.  export-dot is the
# heaviest, about 3,200 bytes per element (3,184 MB peak RSS for path A 20,
# 1,048,576 elements); covers are edges of the node-set cube, at most
# (N/2) log2 N among N elements, so smaller lattices cost less per element.
MAX_OUTPUT_ELEMENTS = 600_000  # under 2 GB


def parse_graph_literal(text: str) -> CoxeterGraph:
    """Build a graph from a family literal and a size, as `path A 5` or
    `cycle 6`, or from `custom 4: 1-2,2-3`."""
    words = text.split()
    if words and words[0].lower() == "custom":
        rest = text.strip()[len("custom"):].strip()
        if ":" not in rest:
            raise CrossLatError(f"custom spec needs `custom N: a-b,...`: {text!r}")
        size_part, edge_part = rest.split(":", 1)
        n = _parse_int(size_part.strip())
        edges = []
        edge_part = edge_part.strip()
        if edge_part:
            for item in edge_part.split(","):
                item = item.strip()
                if "-" not in item:
                    raise CrossLatError(f"bad edge {item!r} in {text!r}")
                a, b = item.split("-", 1)
                edges.append((_parse_int(a.strip()), _parse_int(b.strip())))
        return build_custom_graph(n, edges)
    if len(words) < 2:
        raise CrossLatError(f"graph spec needs a family and a size: {text!r}")
    return family_graph(parse_family_literal(" ".join(words[:-1])), _parse_int(words[-1]))


def parse_family_literal(text: str) -> str:
    """Family name for scans: `path A` -> path_A, `cycle` -> cycle."""
    spelling = " ".join(text.split()).lower()
    for kind in FAMILIES:
        if family_literal(kind).lower() == spelling:
            return kind
    names = ", ".join(map(family_literal, FAMILIES))
    raise CrossLatError(f"unknown graph family {text!r}, expected one of {names}")


def graph_literal(g: CoxeterGraph) -> str:
    if g.kind in FAMILIES:
        return f"{family_literal(g.kind)} {g.n}"
    edge_text = ",".join(f"{a}-{b}" for a, b in sorted(g.edges))
    return f"custom {g.n}: {edge_text}"


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CrossLatError(f"expected an integer, got {text!r}") from None


def _open(path: str, mode: str = "r"):
    """open() for --config and --out; an OSError there is an input error."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise CrossLatError(str(exc)) from None


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with _open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CrossLatError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise CrossLatError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _apply_config_defaults(args: argparse.Namespace) -> None:
    if not getattr(args, "config", None):
        return
    for key, value in _read_config_file(args.config).items():
        attr = key.replace("-", "_")
        if getattr(args, attr, None) is None:
            setattr(args, attr, _parse_int(value) if attr in ("n_max", "jobs") else value)


def _emit(out_path: Optional[str], data: str, summary: str) -> None:
    """Write data to out_path or stdout, and the summary line to the other one."""
    if out_path:
        with _open(out_path, "w") as fh:
            fh.write(data)
        sys.stdout.write(summary + "\n")
    else:
        sys.stdout.write(data)
        sys.stderr.write(summary + "\n")


# The formats _table_text writes, the default first
TABLE_FORMATS = ("text", "json", "csv")


def _table_text(fmt: str, fields: Sequence[str], rows: list[dict]) -> str:
    """Rows as tab-separated text, csv with a header line, or indented json."""
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    cells = ([_scalar_text(row[f]) for f in fields] for row in rows)
    if fmt == "text":
        return "".join("\t".join(line) + "\n" for line in cells)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    writer.writerows(cells)
    return buf.getvalue()


def _build_lattice(args: argparse.Namespace) -> CrossSectionLattice:
    if not args.graph:
        raise CrossLatError("--graph is required")
    g = parse_graph_literal(args.graph)
    j0 = parse_nodeset(args.j0) if args.j0 is not None else 0
    return CrossSectionLattice(g, j0)


def _output_lattice(args: argparse.Namespace) -> CrossSectionLattice:
    """The lattice that build or export-dot writes out, refused above
    MAX_OUTPUT_ELEMENTS before any row or line is built."""
    lat = _build_lattice(args)
    if len(lat) > MAX_OUTPUT_ELEMENTS:
        raise SizeLimitError(
            f"output capped at {MAX_OUTPUT_ELEMENTS} elements, got {len(lat)}")
    return lat


def cmd_build(args: argparse.Namespace) -> int:
    lat = _output_lattice(args)
    fields = ("rank", "mask", "members")
    rows = [dict(zip(fields, (lat.rank(m), f"0x{m:x}", format_nodeset(m))))
            for m in lat.elements]
    body = _table_text(args.format, fields, rows)
    _emit(args.out, body, f"{len(rows)} elements")
    return EXIT_OK


def _within_hypothesis(criterion, lat: CrossSectionLattice, error: type):
    """criterion(lat), or None when lat lies outside the criterion's statement."""
    try:
        return criterion(lat)
    except error:
        return None


def _analyze_report(lat: CrossSectionLattice) -> tuple[dict, bool]:
    """Full per-configuration report and whether a theorem was breached."""
    g = lat.graph
    poset = lat.to_poset()
    degenerate = lat.is_degenerate()
    breach = False

    report: dict = {
        "graph": graph_literal(g),
        "n": g.n,
        "j0": format_nodeset(lat.j0),
        "j0_mask": f"0x{lat.j0:x}",
        "size": len(lat),
        "degenerate": degenerate,
        "atoms": [format_nodeset(m) for m in lat.atoms()],
        "join_irreducibles": [
            format_nodeset(lat.elements[i]) for i in poset.join_irreducibles()
        ],
    }

    crit_distributive = _within_hypothesis(distributivity_criterion, lat, PreconditionError)
    engine_distributive = poset.is_distributive_lattice()
    # the free-connected test is a theorem on trees only; elsewhere the
    # criterion value is reported without an agreement claim
    is_tree = len(g.edges) == g.n - 1
    agree = None
    if crit_distributive is not None and is_tree:
        agree = crit_distributive == engine_distributive
    report["distributive"] = {
        "criterion": crit_distributive,
        "engine": engine_distributive,
        "agree": agree,
    }
    if agree is False:
        breach = True

    direct = poset.characteristic_polynomial()
    formula = charpoly_formula(lat)
    report["charpoly"] = {
        "direct": str(direct),
        "formula": str(formula),
        "agree": direct == formula,
        "note": "degenerate j0: the product form presumes a nonempty free set"
                if degenerate else "",
    }

    supersolvable = None
    crit_ss = _within_hypothesis(supersolvability_criterion, lat, UnsupportedGraphError)
    if crit_ss is not None:
        brute_ss, witness = poset.is_supersolvable_bruteforce()
        if crit_ss != brute_ss:
            breach = True
        entry = {
            "criterion": crit_ss,
            "bruteforce": brute_ss,
            "agree": crit_ss == brute_ss,
            "witness": None if witness is None else [
                format_nodeset(lat.elements[i]) for i in witness],
            "m_chain": None,
            "stanley": None,
        }
        if crit_ss:
            chain = construct_m_chain(lat)
            entry["m_chain"] = [format_nodeset(m) for m in chain]
            stanley = stanley_factorization(lat, chain)
            entry["stanley"] = str(stanley)
            if not degenerate and not (stanley == direct == formula):
                breach = True
        supersolvable = entry
    report["supersolvable"] = supersolvable

    partition_type = None
    if engine_distributive:
        fact = poset.chain_product_factorization()
        if fact is not None:
            partition_type = list(fact)
    report["partition_type"] = partition_type

    smooth = _within_hypothesis(combinatorially_smooth_typeA, lat, UnsupportedGraphError)
    if smooth and not engine_distributive:
        breach = True
    report["combinatorially_smooth"] = smooth

    report["flag_symmetric"] = (
        is_flag_symmetric(poset) if poset.rank_of_top() <= MAX_DEGREE else None)
    return report, breach


def _flatten(prefix: str, value, lines: list[str]) -> None:
    if isinstance(value, dict):
        for key in value:
            _flatten(f"{prefix}.{key}" if prefix else key, value[key], lines)
    elif isinstance(value, list):
        lines.append(f"{prefix}: {', '.join(str(v) for v in value) if value else '(none)'}")
    else:
        lines.append(f"{prefix}: {_scalar_text(value)}")


def _scalar_text(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def cmd_analyze(args: argparse.Namespace) -> int:
    lat = _build_lattice(args)
    report, breach = _analyze_report(lat)
    if args.format == "json":
        body = json.dumps(report, indent=2) + "\n"
    else:
        lines: list[str] = []
        _flatten("", report, lines)
        body = "".join(line + "\n" for line in lines)
    _emit(args.out, body, "breach detected" if breach else "ok")
    return EXIT_BREACH if breach else EXIT_OK


def _scan_chunk(scan_name: str, kind: str, n: int) -> list:
    return SCAN_FUNCTIONS[scan_name](kind, n, n_min=n)


def cmd_scan(args: argparse.Namespace) -> int:
    if not args.family:
        raise CrossLatError("--family is required")
    kind = parse_family_literal(args.family)
    if args.n_max is None:
        raise CrossLatError("--n-max is required")
    jobs = 1 if args.jobs is None else args.jobs
    if jobs < 1:
        raise CrossLatError(f"--jobs must be at least 1, got {jobs}")
    rule = SCAN_RULES[args.scan_name]
    # one chunk per n, checked before any of them runs
    try:
        chunks = rule.n_range(kind, args.n_max)
    except InvalidSizeError:
        raise CrossLatError(f"--n-max must be at least {rule.n_min}") from None
    names, kinds = [args.scan_name] * len(chunks), [kind] * len(chunks)
    if jobs > 1:
        # imported here: it pulls in multiprocessing, which every other
        # call would pay for at start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            parts = list(pool.map(_scan_chunk, names, kinds, chunks))
    else:
        parts = list(map(_scan_chunk, names, kinds, chunks))
    rows = [r for part in parts for r in part]

    dicts = [r.to_row() for r in rows]
    fields = [f.name for f in dataclasses.fields(CriterionReport)]
    body = _table_text(args.format, fields, dicts)

    agree = sum(1 for d in dicts if d["agree"])
    flagged = sum(1 for d in dicts if d["note"] in HYPOTHESIS_NOTES)
    disagree = sum(
        1 for d in dicts if not d["agree"] and d["note"] not in HYPOTHESIS_NOTES)
    skipped = len(chunks) if rule.skips_degenerate else 0
    _emit(args.out, body,
          f"rows={len(dicts)} agree={agree} disagree={disagree} "
          f"flagged={flagged} degenerate-skipped={skipped}")
    if disagree and rule.theorem_grade:
        return EXIT_BREACH
    return EXIT_OK


def cmd_export_dot(args: argparse.Namespace) -> int:
    lat = _output_lattice(args)
    lines = ["digraph crosslattice {", "  rankdir=BT;"]
    for i, mask in enumerate(lat.elements):
        lines.append(f'  e{i} [label="{format_nodeset(mask)}"];')
    edges = []
    for i, mask in enumerate(lat.elements):
        for upper in lat.covers(mask):
            edges.append((i, lat.index(upper)))
    edges.sort()
    for a, b in edges:
        lines.append(f"  e{a} -> e{b};")
    lines.append("}")
    _emit(args.out, "".join(line + "\n" for line in lines),
          f"{len(lat)} nodes, {len(edges)} cover edges")
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, func, formats: tuple[str, ...], *,
                family: bool) -> None:
    """The options every command takes.  formats are the values its
    --format accepts, the default first; main checks them before func."""
    if family:
        parser.add_argument("--family", help='graph family, e.g. "path A" or "cycle"')
        parser.add_argument("--n-max", dest="n_max", type=int, help="largest node count")
        parser.add_argument("--jobs", type=int, help="worker processes")
    else:
        parser.add_argument("--graph", help='graph spec, e.g. "path A 5"')
        parser.add_argument("--j0", help='marked node set, e.g. "{1,2,5}"')
    parser.add_argument("--format", help=f"output format: {', '.join(formats)}; "
                                         f"default {formats[0]}")
    parser.add_argument("--out", help="write output to a file instead of stdout")
    parser.add_argument("--config", help="key=value defaults file")
    parser.set_defaults(func=func, formats=formats)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crosslat",
        description="Cross section lattices over Coxeter graph nodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="list the lattice elements")
    _add_common(p_build, cmd_build, TABLE_FORMATS, family=False)

    p_analyze = sub.add_parser("analyze", help="run every criterion on one configuration")
    _add_common(p_analyze, cmd_analyze, ("text", "json"), family=False)

    p_scan = sub.add_parser("scan", help="sweep a family against brute-force oracles")
    p_scan.add_argument("scan_name", choices=sorted(SCAN_FUNCTIONS))
    _add_common(p_scan, cmd_scan, TABLE_FORMATS, family=True)

    p_dot = sub.add_parser("export-dot", help="write the Hasse diagram as DOT")
    _add_common(p_dot, cmd_export_dot, ("dot",), family=False)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_defaults(args)
        # from the flag or the config file, refused before any work
        if args.format is None:
            args.format = args.formats[0]
        elif args.format not in args.formats:
            raise CrossLatError(f"{args.command} does not support format {args.format!r}")
        return args.func(args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except CrossLatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
