"""Command-line harness: build graphs, count, dump container tables, run
verification suites, and emit per-record container certificates.

Exit codes: 0 = all checks pass, 1 = a checked fact was violated,
2 = instance exceeded a size budget, 3 = usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from . import __version__, containers, counting, groups, verify
from .constructions import (
    GadgetRingConfig,
    OddCirculantConfig,
    build_gadget_ring,
    build_odd_circulant,
)
from .errors import (
    CayleyCountError,
    InstanceTooLargeError,
    SearchSpaceTooLargeError,
)
from .graphs import (
    CayleyGraph,
    build_cayley,
    edge_list_text,
    graph_from_json,
    graph_to_json,
)
from .groups import GeneratorSet

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 3


def _default_seed() -> int:
    return int(os.environ.get("CAYLEYCOUNT_SEED", "0"))


def _report_header(args: argparse.Namespace) -> dict:
    # the output path stays out, so a report does not depend on where it is written
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "output") and v is not None}
    return {
        "tool": "cayleycount",
        "version": __version__,
        "seed": args.seed,
        "config": config,
    }


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _usage(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _parse_generators(spec: groups.GroupSpec, text: str, symmetrize: bool) -> GeneratorSet:
    text = text.strip()
    ids: set[int] = set()
    if "(" in text:
        chunks = text.replace(" ", "").strip(",")
        for part in chunks.split("),"):
            coords = tuple(int(x) for x in part.strip("()").split(","))
            ids.add(groups.coords_to_id(spec, coords))
    else:
        if len(spec.factors) != 1:
            raise CayleyCountError(
                "plain residues only work for cyclic groups; use coordinate tuples")
        ids = {int(x) % spec.order for x in text.split(",")}
    if symmetrize:
        ids = set(groups.symmetrize(spec, ids))
    return GeneratorSet(spec, ids)


def cmd_build(args: argparse.Namespace) -> int:
    if args.construction == "gadget-ring":
        ring = build_gadget_ring(GadgetRingConfig(d=args.d, t=args.t, seed=args.seed))
        provenance = {
            "construction": "gadget-ring",
            "d": args.d,
            "t": args.t,
            "seed": args.seed,
            "gadget_edges": ring.gadget.edges(),
        }
        data = graph_to_json(ring.graph, provenance)
    elif args.construction == "odd-circulant":
        graph = build_odd_circulant(OddCirculantConfig(n=args.n, d=args.d))
        data = graph_to_json(graph, {"construction": "odd-circulant", "n": args.n, "d": args.d})
    else:
        if not args.group or not args.gens:
            return _usage("build: need --group and --gens (or a construction name)")
        spec = groups.parse_group(args.group)
        gens = _parse_generators(spec, args.gens, args.symmetrize)
        graph = build_cayley(spec, gens)
        if not graph.is_connected():
            print("warning: generator set does not generate; graph is disconnected",
                  file=sys.stderr)
        data = graph_to_json(graph)
    data["report"] = _report_header(args)
    _emit(args, json.dumps(data, indent=2) + "\n")
    return EXIT_OK


def _load_graph(path: str):
    with open(path) as fh:
        return graph_from_json(json.load(fh))


def cmd_count(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    count = counting.count_independent_sets(graph, args.budget)
    report = {
        "i": str(count),
        "log2_i": round(math.log2(count), 6) if count else None,
        "engine": "branching",
        "vertices": graph.vcount,
    }
    if graph.parts is not None:
        n = graph.vcount // 2
        report["excess_log2"] = round(math.log2(count) - (n + 1), 6)
    if graph.vcount <= args.brute_budget and not args.no_crosscheck:
        brute = counting.count_independent_sets_bruteforce(graph, args.brute_budget)
        report["bruteforce"] = str(brute)
        report["crosscheck"] = brute == count
        if brute != count:
            report["report"] = _report_header(args)
            _emit(args, json.dumps(report, indent=2) + "\n")
            return EXIT_VIOLATION
    report["report"] = _report_header(args)
    _emit(args, json.dumps(report, indent=2) + "\n")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    table = counting.container_table(graph, args.side)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["a", "g", "t", "count"])
    for a, g, t, cnt in table.rows():
        writer.writerow([a, g, t, str(cnt)])
    if args.format == "json":
        payload = json.dumps({
            "rows": [dict(a=a, g=g, t=t, count=str(c)) for a, g, t, c in table.rows()],
            "report": _report_header(args),
        }, indent=2) + "\n"
    else:
        payload = buf.getvalue()
    _emit(args, payload)
    return EXIT_OK


def cmd_dump_edges(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    _emit(args, edge_list_text(graph))
    return EXIT_OK


def cmd_containers(args: argparse.Namespace) -> int:
    """Per-record certificate dump: boundary container, sampled
    phi-approximation, refined psi-approximation."""
    graph = _load_graph(args.graph)
    if not isinstance(graph, CayleyGraph):
        return _usage("containers: needs a Cayley graph input")
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["record", "a", "g", "t", "c_size", "f_size", "s_size",
                     "phi_valid", "psi_valid", "size_bound", "retries"])
    violation = False
    for idx, rec in enumerate(counting.enumerate_small_2linked_closed(graph, args.side)):
        bc = containers.boundary_container(graph, rec)
        approx, rep = containers.phi_approx_sample(graph, rec, bc.c_mask, args.seed)
        phi_ok = containers.check_phi(graph, rec, approx.f_mask)
        psi = containers.psi_approx(graph, rec, approx.f_mask)
        psi_rep = containers.check_psi(graph, rec, psi)
        size_flag = ("skipped" if psi_rep.size_bound_ok is None
                     else str(psi_rep.size_bound_ok).lower())
        violation |= not phi_ok or not psi_rep.valid or psi_rep.size_bound_ok is False
        writer.writerow([idx, rec.a, rec.g, rec.t, bc.c_mask.bit_count(),
                         rep.f_size, psi_rep.s_size, str(phi_ok).lower(),
                         str(psi_rep.valid).lower(), size_flag, rep.retries])
    _emit(args, buf.getvalue())
    print(json.dumps(_report_header(args)), file=sys.stderr)
    return EXIT_VIOLATION if violation else EXIT_OK


# The `verify` flags each suite takes.  Each fills the suite's keyword of the
# same name but for the RENAMES, and psi and phi take --n with --d as their
# one (n, d) instance.  --seed, which every command has, reaches the suites
# that list it.
SUITE_FLAGS: dict[str, tuple[str, ...]] = {
    "engine": ("max_order",), "lucas": (), "kdd": (), "zhao": ("max_vertices",),
    "side-sum": ("max_order",), "trend": ("max_order",), "olson": ("max_order",),
    "prp": ("max_order",), "chain": ("max_order",), "growth": ("trials", "max_order", "seed"),
    "thinning": ("trials",), "psi": ("n", "d"), "phi": ("n", "d"),
    "lovasz-stein": ("trials", "seed"), "gadget-ring": ("d", "seed"), "odd-circulant": ("n", "d"),
}
RENAMES = {("thinning", "trials"): "seeds", ("odd-circulant", "n"): "max_n"}
VERIFY_FLAGS = ("max_order", "max_vertices", "trials", "n", "d")


def cmd_verify(args: argparse.Namespace) -> int:
    suite, takes = args.suite, SUITE_FLAGS[args.suite]
    # without a flag each sweep keeps its own default
    given = {f: getattr(args, f) for f in VERIFY_FLAGS if getattr(args, f) is not None}
    for flag in given:
        if flag not in takes:
            return _usage(f"verify {suite}: takes no --{flag.replace('_', '-')}")
    if "seed" in takes:
        given["seed"] = args.seed
    if suite in ("psi", "phi") and given:
        if len(given) == 1:
            return _usage(f"verify {suite}: --n and --d go together")
        given = {"instances": [(args.n, args.d)]}
    kwargs = {RENAMES.get((suite, f), f): value for f, value in given.items()}
    try:
        result = verify.ALL_SUITES[suite](**kwargs)
    except (InstanceTooLargeError, SearchSpaceTooLargeError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    payload = {
        "suite": args.suite,
        "passed": result.passed,
        "checked": result.checked,
        "violations": result.violations,
        "skipped": result.skipped,
        "details": result.details,
        "report": _report_header(args),
    }
    _emit(args, json.dumps(payload, indent=2, default=str) + "\n")
    print(result.line(), file=sys.stderr)
    return EXIT_OK if result.passed else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayleycount",
        description="Exact independent-set counting and container machinery "
                    "for Abelian Cayley graphs.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=_default_seed(),
                        help="master seed (env CAYLEYCOUNT_SEED)")
    common.add_argument("--output", "-o", help="write the report to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="build a graph file", parents=[common])
    p_build.add_argument("construction", nargs="?",
                         choices=("gadget-ring", "odd-circulant"))
    p_build.add_argument("--group", help="group spec like Z16 or Z2xZ4")
    p_build.add_argument("--gens", help="generators: residues 1,3 or tuples (1,0),(0,1)")
    p_build.add_argument("--symmetrize", action="store_true",
                         help="close the generator list under negation")
    p_build.add_argument("--d", type=int, default=3)
    p_build.add_argument("--t", type=int, default=2)
    p_build.add_argument("--n", type=int, default=8)
    p_build.set_defaults(func=cmd_build)

    p_count = sub.add_parser("count", parents=[common], help="exact independent-set count")
    p_count.add_argument("graph")
    p_count.add_argument("--budget", type=int, default=counting.DEFAULT_BRANCHING_BUDGET)
    p_count.add_argument("--brute-budget", type=int, default=counting.DEFAULT_BRUTEFORCE_BUDGET)
    p_count.add_argument("--no-crosscheck", action="store_true")
    p_count.set_defaults(func=cmd_count)

    p_table = sub.add_parser("table", parents=[common], help="exact (a, g) table of small 2-linked sets")
    p_table.add_argument("graph")
    p_table.add_argument("--side", choices=("X", "Y"), default="X")
    p_table.add_argument("--format", choices=("json", "csv"), default="csv",
                         help="table output format")
    p_table.set_defaults(func=cmd_table)

    p_dump = sub.add_parser("dump-edges", parents=[common], help="plain edge-list dump")
    p_dump.add_argument("graph")
    p_dump.set_defaults(func=cmd_dump_edges)

    p_cont = sub.add_parser("containers", parents=[common], help="per-record container certificates")
    p_cont.add_argument("graph")
    p_cont.add_argument("--side", choices=("X", "Y"), default="X")
    p_cont.set_defaults(func=cmd_containers)

    p_verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p_verify.add_argument("suite", choices=sorted(verify.ALL_SUITES))
    p_verify.add_argument("--max-order", type=int)
    p_verify.add_argument("--max-vertices", type=int)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--d", type=int)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on a usage error, which is the budget code here
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    started = time.time()
    try:
        code = args.func(args)
    except (InstanceTooLargeError, SearchSpaceTooLargeError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CayleyCountError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    # wall time stays off the reports so that identical seeds give identical bytes
    print(json.dumps({"elapsed_s": round(time.time() - started, 3)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
