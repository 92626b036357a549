"""Command-line surface: decompose, bseries, verify.

Each integer flag's range is checked by its `type=` converter as the
flag is parsed.  QSERIES_ORDER supplies the truncation order when
--order is absent; it goes through the --order converter, and only when
a run falls back to it.

Exit codes: 0 success, 1 identity failure, 2 usage error, any other
rejected input or a request too large to compute, 3 theta pipeline
requested for an unsupported modulus without --conjecture (the library's
`UnsupportedModulusError`).
"""

import argparse
import csv
import functools
import json
import os
import sys
from typing import Callable, NamedTuple

from . import identities, multiplicity
from .multiplicity import NonUnitDeterminantError, UnsupportedModulusError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

MASTER_DEFAULT_NS = (2, 3, 4, 5, 6, 7)
TRIPLE_DEFAULT_ORDER = 200


def _int_at_least(low: int) -> Callable[[str], int]:
    """An argparse `type=` converter: the text as an int of at least `low`."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return convert


def _env_order() -> int | None:
    raw = os.environ.get("QSERIES_ORDER")
    if raw is None:
        return None
    try:
        return _int_at_least(1)(raw)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"QSERIES_ORDER {exc}") from None


def _resolve_order(args, sources: tuple[str, ...], default: int) -> int:
    """The first set source, else `default`.  A source is an option dest;
    "order" reads `--order`, then QSERIES_ORDER, which is therefore read
    only when a run falls back to it."""
    for source in sources:
        value = getattr(args, source)
        if value is None and source == "order":
            value = _env_order()
        if value is not None:
            return value
    return default


# Rows are trees of lists, tuples and dicts without cycles, so one encoder
# serves every row without the cycle check, which would record every
# container on the way down.
_encode = json.JSONEncoder(check_circular=False).encode


def _print_json_rows(head: dict, key: str, rows) -> None:
    """Print `head` plus a `key` list as one indented JSON object, each row
    of the list, given as its compact JSON text, on its own line and written
    as soon as it is given, so the body is never held as one string."""
    write = sys.stdout.write
    write("{\n")
    for name, value in head.items():
        write(f"  {_encode(name)}: {_encode(value)},\n")
    write(f"  {_encode(key)}: [\n")
    separator = "    "
    for row in rows:
        write(separator + row)
        separator = ",\n    "
    write("\n  ]\n}\n")


# -- decompose --------------------------------------------------------------


def _witness_cell(entry, separator: str) -> str:
    """The entry's witnesses joined by `separator`, then `+N more` for the
    ones the cap left out."""
    cells = [str(w) for w in entry.witnesses]
    if entry.omitted:
        cells.append(f"+{entry.omitted} more")
    return separator.join(cells)


class _PairText(dict):
    """(part, multiplicity) -> its JSON text `[p, m]`, made on first use."""

    def __missing__(self, pair):
        text = self[pair] = "[%d, %d]" % pair
        return text


def _decompose_rows(table):
    """Each entry as the compact text `json.dumps` makes of its row: keys
    i, k, b, witnesses, then witnesses_omitted when nonzero.  Witness
    pairs are ints, so nothing needs escaping, and each distinct pair's
    text is made once per call rather than encoded per shape."""
    text = _PairText().__getitem__
    join = ", ".join
    for (i, k), entry in table.items():
        witnesses = join(["[" + join(map(text, w.pairs)) + "]" for w in entry.witnesses])
        omitted = f', "witnesses_omitted": {entry.omitted}' if entry.omitted else ""
        yield f'{{"i": {i}, "k": {k}, "b": {entry.count}, "witnesses": [{witnesses}]{omitted}}}'


def _cmd_decompose(args) -> int:
    table = multiplicity.multiplicity_table(args.n, args.max_k, args.witness_cap)
    if args.format == "json":
        _print_json_rows({"n": args.n, "max_k": args.max_k}, "entries", _decompose_rows(table))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["i", "k", "b", "witnesses"])
        for (i, k), entry in table.items():
            writer.writerow([i, k, entry.count, _witness_cell(entry, " ")])
    else:
        print(f"multiplicities for n={args.n}, k up to {args.max_k}")
        for (i, k), entry in table.items():
            print(f"  i={i} k={k} b={entry.count:<4d} {_witness_cell(entry, ', ')}")
    return EXIT_OK


# -- bseries ----------------------------------------------------------------


# Each route maps (args, i, order) to the series B_i.  The functions are
# looked up at call time, so wrappers and test doubles are seen.
ROUTES = {
    "comb": lambda args, i, order: multiplicity.gf_comb(i, args.n, order),
    "theta": lambda args, i, order: multiplicity.gf_theta(i, args.n, order, args.conjecture),
}
METHODS = {"comb": ("comb",), "theta": ("theta",), "both": ("comb", "theta")}


def _series_row(routes: tuple[str, ...], args, i: int, order: int) -> dict:
    """Coefficients of component i along each route, run last first so the
    theta route refuses a modulus before the comb route builds its table.
    A failed solve is kept as `<route>_error`; `equal` is set if all ran."""
    found: dict[str, object] = {}
    for route in reversed(routes):
        try:
            found[route] = ROUTES[route](args, i, order).coefficient_list()
        except NonUnitDeterminantError as exc:
            found[f"{route}_error"] = str(exc)
    data: dict[str, object] = {"i": i, **dict(reversed(found.items()))}
    if len(routes) > 1 and all(route in data for route in routes):
        data["equal"] = all(data[route] == data[routes[0]] for route in routes)
    return data


def _cmd_bseries(args) -> int:
    order = _resolve_order(args, ("order",), 20)
    routes = METHODS[args.method]
    # Every row is computed before any output, so a refused input prints nothing.
    components = [args.i] if args.i is not None else list(range(args.n // 2 + 1))
    rows = [_series_row(routes, args, i, order) for i in components]
    if args.format == "json":
        head = {"n": args.n, "order": order, "method": args.method, "conjecture": args.conjecture}
        _print_json_rows(head, "series", map(_encode, rows))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["i", "m", *routes])
        for data in rows:
            for m in range(order):
                cells = (data[r][m] if r in data else "error" for r in routes)
                writer.writerow([data["i"], m, *cells])
    else:
        for data in rows:
            i = data["i"]
            for route in routes:
                if route in data:
                    print(f"i={i} {route:<5}: " + " ".join(str(c) for c in data[route]))
                else:
                    print(f"i={i} {route:<5}: unavailable ({data[f'{route}_error']})")
            if "equal" in data:
                print(f"i={i} pipelines {'agree' if data['equal'] else 'DISAGREE'} to order {order}")
    return EXIT_OK


# -- verify -----------------------------------------------------------------


class Identity(NamedTuple):
    """One `verify` row.  `run(order, args)` returns the row's reports; its
    order is resolved from `alone` when the row is selected by itself, from
    `in_all` under `--identity all`."""

    run: Callable[[int, argparse.Namespace], list[identities.IdentityReport]]
    alone: tuple[str, ...]
    in_all: tuple[str, ...]
    default: int


def _single(check: str):
    # Looked up at call time, so wrappers and test doubles are seen.
    return lambda order, args: [getattr(identities, check)(order)]


def _masters(order: int, args) -> list[identities.IdentityReport]:
    ns = [args.n] if args.n is not None else MASTER_DEFAULT_NS
    return [identities.check_master(n, order) for n in ns]


# `all` runs the rows in this order.  Under `all`, master keeps 120 unless
# --master-order is given (its enumeration series are the costliest item)
# and the triple product always runs at its default.
IDENTITIES = {
    "lemma5.1": Identity(_single("check_lemma_5_1"), ("order",), ("order",), 300),
    "lemma5.2": Identity(_single("check_lemma_5_2"), ("order",), ("order",), 300),
    "lemma5.3": Identity(_single("check_lemma_5_3"), ("order",), ("order",), 300),
    "lemma5.4": Identity(_single("check_lemma_5_4"), ("order",), ("order",), 300),
    "theorem5.1": Identity(_single("check_theorem_5_1"), ("max_k",), ("max_k",), 30),
    "master": Identity(_masters, ("master_order", "order"), ("master_order",), 120),
    "triple-product": Identity(_single("check_triple_product"), ("order",), (), TRIPLE_DEFAULT_ORDER),
}


def _cmd_verify(args) -> int:
    if args.identity == "all":
        plan = [(row, _resolve_order(args, row.in_all, row.default)) for row in IDENTITIES.values()]
    else:
        row = IDENTITIES[args.identity]
        plan = [(row, _resolve_order(args, row.alone, row.default))]
    reports = [report for row, order in plan for report in row.run(order, args)]
    payload = {
        "checks": [
            {
                "name": r.name,
                "order": r.order,
                "holds": r.holds,
                "first_discrepancy": None
                if r.holds
                else dict(zip(("exponent", "lhs", "rhs"), r.first_discrepancy)),
            }
            for r in reports
        ],
        "all_hold": all(r.holds for r in reports),
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK if payload["all_hold"] else EXIT_CHECK_FAILED


# -- parser -----------------------------------------------------------------


# One parser serves every `main` call in a process; parsing leaves it as
# it was.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcrystal",
        description="Tensor-square decomposition tables, multiplicity series, and identity checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="tabulate multiplicities with witness shapes")
    p_dec.add_argument("--n", type=_int_at_least(2), required=True, help="modulus, at least 2")
    p_dec.add_argument("--max-k", type=_int_at_least(0), default=6, dest="max_k")
    p_dec.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p_dec.add_argument("--witness-cap", type=_int_at_least(0), default=None, dest="witness_cap")
    p_dec.set_defaults(func=_cmd_decompose)

    p_bs = sub.add_parser("bseries", help="print multiplicity generating functions")
    p_bs.add_argument("--n", type=_int_at_least(2), required=True)
    p_bs.add_argument("--i", type=int, default=None, help="component index; default all")
    p_bs.add_argument("--order", type=_int_at_least(1), default=None)
    p_bs.add_argument("--method", choices=tuple(METHODS), default="comb")
    p_bs.add_argument("--conjecture", action="store_true")
    p_bs.add_argument("--format", choices=("json", "csv", "table"), default="table")
    p_bs.set_defaults(func=_cmd_bseries)

    p_ver = sub.add_parser("verify", help="run identity checks, JSON report")
    p_ver.add_argument("--identity", choices=(*IDENTITIES, "all"), default="all")
    p_ver.add_argument("--order", type=_int_at_least(1), default=None)
    p_ver.add_argument("--master-order", type=_int_at_least(1), default=None, dest="master_order")
    p_ver.add_argument("--max-k", type=_int_at_least(0), default=None, dest="max_k")
    p_ver.add_argument("--n", type=_int_at_least(2), default=None, help="modulus for the master check")
    p_ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UnsupportedModulusError:
        print(f"theta pipeline for n={args.n} is conjectural; rerun with --conjecture", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: {str(exc) or 'not enough memory for this request'}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:
        print(f"error: request too large to compute ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
