"""Command-line front end: count, seq, and verify subcommands.

All three read one registry, _FUNCTIONS, which maps each function name
to its parameters, its formula, its oracle and, for the tuple counters,
the ordering the oracle enumerates.  All three run one query path:
count and verify make one query, seq one per n of its range, and each
query is evaluated, checked against the oracle when verifying, recorded
and emitted before the next one starts.  The seq range is read by the
set grammar: one step-1 term, such as 'lo..hi' or 'ap(lo,1,length)'.
One column list, _COLUMNS, names a record's query fields for JSON and
TSV alike.

Records go to stdout as JSON lines (one object per query) or, with
--tsv, as headerless tab-separated rows.  Counts are rendered as decimal
strings so arbitrarily large values survive 64-bit JSON parsers.

Exit codes: 0 success, 2 usage or parse error, 3 overlapping union,
4 oracle budget exceeded, a tuple count whose result could pass 2^28
bits or whose weights could pass their limits, out of memory or a size
too large to represent, 5 failed sequence check, 6 verify mismatch,
130 interrupted, 141 stdout closed early (a broken pipe; nothing is
printed).  Error messages show a run of more than 80 characters without
whitespace or quotes (a huge integer, set term or flag value) by its
first 40 and its length; library exceptions keep their full text.
"""

import argparse
import json
import os
import re
import sys
import time
from functools import cache
from math import isqrt

from . import counting, oracle, shonhiwa
from .errors import BudgetExceededError, DomainError, OverlapError, SetSpecError
from .oracle import DEFAULT_BUDGET, OracleBudget
from .setmodel import interval, parse_set_spec, validate_union

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_OVERLAP = 3
EXIT_BUDGET = 4
EXIT_CHECK_FAILED = 5
EXIT_VERIFY_MISMATCH = 6
EXIT_INTERRUPTED = 130

ENV_BUDGET_SUBSETS = "RELPRIME_BUDGET_SUBSETS"

# function -> (parameters beyond the name, formula, oracle, tuple ordering).
# Formula and oracle are attribute names, looked up on their modules at
# call time; the parameters are also the formula's positional arguments.
_FUNCTIONS = {
    "f": (("set",), (counting, "f"), "brute_f", None),
    "fk": (("set", "k"), (counting, "f_k"), "brute_f_k", None),
    "phi": (("set", "n"), (counting, "phi"), "brute_phi", None),
    "phik": (("set", "n", "k"), (counting, "phi_k"), "brute_phi_k", None),
    "S": (("n", "k", "m"), (shonhiwa, "s_count"), "brute_tuples", "ordered"),
    "G": (("n", "k"), (shonhiwa, "g_count"), "brute_tuples", "ordered"),
    "L": (("n", "k", "m"), (shonhiwa, "l_count"), "brute_tuples", "nondecreasing"),
    "H": (("n", "k"), (shonhiwa, "h_count"), "brute_tuples", "nondecreasing"),
    "T": (("n", "k", "m"), (shonhiwa, "t_count"), "brute_tuples", "strict"),
}

# the query fields of a record, in the order JSON and TSV both show them
_COLUMNS = ("function", "spec", "n", "k", "m")


class _UsageError(Exception):
    """Bad flag combinations and malformed values; maps to exit code 2."""


class _CheckFailed(Exception):
    """A --check-* assertion found a counterexample; maps to exit code 5."""


class _Mismatch(Exception):
    """The oracle's recount differs from the formula; maps to exit code 6."""


# exception -> (exit code, message, with "{}" standing for the exception's
# text); main catches these, and _fail reports the first row that matches
_ERRORS = (
    (_UsageError, EXIT_USAGE, "{}"),
    (SetSpecError, EXIT_USAGE, "{}"),
    (DomainError, EXIT_USAGE, "{}"),
    (OverlapError, EXIT_OVERLAP, "{}"),
    (BudgetExceededError, EXIT_BUDGET, "{}"),
    (_CheckFailed, EXIT_CHECK_FAILED, "{}"),
    (_Mismatch, EXIT_VERIFY_MISMATCH, "{}"),
    (MemoryError, EXIT_BUDGET, "out of memory; try a smaller set, range or budget"),
    (OverflowError, EXIT_BUDGET, "too large to represent: {}"),
    (KeyboardInterrupt, EXIT_INTERRUPTED, "interrupted"),
    # stdout's reader has gone, so say nothing; 128 + SIGPIPE is the
    # status shells report for a writer that a closed pipe stopped
    (BrokenPipeError, 141, None),
)

# more than 80 characters other than whitespace and quotes: a huge
# integer, set term or flag value that no message should echo whole
_LONG_RUN_RE = re.compile(r"[^\s'\"]{81,}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except tuple(kind for kind, _, _ in _ERRORS) as exc:
        return _fail(exc)


@cache  # built once per process; main parses every call with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relprime",
        description="Count relatively prime subsets and constrained coprime "
        "tuples of finite integer sets, exactly.",
    )
    # flags that only some subcommands take read as off in the others
    parser.set_defaults(verify=False, check_mod3=False, check_nonsquare=False)
    sub = parser.add_subparsers(dest="command", required=True)

    function = argparse.ArgumentParser(add_help=False)
    function.add_argument("function", choices=sorted(_FUNCTIONS))
    fmt = function.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON lines output (default)")
    fmt.add_argument("--tsv", action="store_true", help="tab-separated output")
    function.add_argument("--config", metavar="PATH", help="key=value settings file")

    query = argparse.ArgumentParser(add_help=False, parents=[function])
    query.add_argument("--set", dest="set_spec", metavar="SPEC",
                       help="ground set, e.g. '1..9 + ap(10,3,4)'")
    query.add_argument("--n", type=_flag_int, help="modulus or range bound")
    query.add_argument("--k", type=_flag_int, help="subset or tuple size")
    query.add_argument("--m", type=_flag_int, help="coprimality modulus")
    query.add_argument("--budget-subsets", type=_flag_int, metavar="N",
                       help="largest |X| the oracle will enumerate")
    query.add_argument("--budget-tuples", type=_flag_int, metavar="N",
                       help="most tuple prefixes, of every length up to k, the "
                       "oracle may count")

    count = sub.add_parser("count", parents=[query], help="evaluate one counting function")
    count.add_argument("--verify", action="store_true",
                       help="also recount with the brute-force oracle")
    sub.add_parser("verify", parents=[query], help="evaluate and compare against the oracle"
                   ).set_defaults(verify=True)

    seq = sub.add_parser("seq", parents=[function],
                         help="emit a function's values for n in a range")
    seq.add_argument("range", metavar="RANGE", help="sweep of n, e.g. 1..10")
    seq.add_argument("--k", type=_flag_int, help="fixed tuple or subset size")
    seq.add_argument("--m", type=_flag_int, help="fixed coprimality modulus")
    seq.add_argument("--check-mod3", action="store_true",
                     help="fail unless every phi value with n >= 3 is divisible by 3")
    seq.add_argument("--check-nonsquare", action="store_true",
                     help="fail if any f value with n >= 2 is a perfect square")
    return parser


def _flag_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {_shortened(repr(text))}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {_shortened(repr(text))}")
    return value


def _run(args) -> int:
    """Evaluate, record and emit each (spec, values) query of the command."""
    settings = _load_settings(args)
    name = args.function
    needs = _FUNCTIONS[name][0]
    # in seq the range supplies the set and n
    given = {"k": args.k, "m": args.m}
    if args.command != "seq":
        given.update(set=args.set_spec, n=args.n)
    for flag, value in given.items():
        if (value is None) == (flag in needs):
            verb = "requires" if value is None else "does not take"
            raise _UsageError(f"{args.command} {name} {verb} --{flag}")

    for spec, values in _queries(args, needs):
        started = time.perf_counter()
        value = _formula(name, values)
        verified = None
        if args.verify:
            verified = _oracle(name, values, _resolve_budget(args, settings)) == value
        elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
        n = values["n"]
        _emit(_record((name, spec, n, args.k, args.m), value, verified, elapsed_ms),
              settings["output"])
        if verified is False:
            raise _Mismatch(f"oracle disagrees with the formula for {name}")
        if args.check_mod3 and n >= 3 and value % 3 != 0:
            raise _CheckFailed(f"phi({n}) = {value} is not divisible by 3")
        if args.check_nonsquare and n >= 2 and isqrt(value) ** 2 == value:
            raise _CheckFailed(f"f({n}) = {value} is a perfect square")
    return EXIT_OK


def _queries(args, needs):
    """(spec, formula arguments by parameter) of each query: one for count
    and verify, one per n of the range for seq, with [1, n] as its set."""
    if args.command != "seq":
        set_union = parse_set_spec(args.set_spec) if "set" in needs else None
        yield args.set_spec, {"set": set_union, "n": args.n, "k": args.k, "m": args.m}
        return
    if args.check_mod3 and args.function != "phi":
        raise _UsageError("--check-mod3 only applies to phi")
    if args.check_nonsquare and args.function != "f":
        raise _UsageError("--check-nonsquare only applies to f")
    # the range is one step-1 term of the set grammar; a union is refused
    # before parsing, so an overlapping one exits 2 like any other
    part = None if "+" in args.range else parse_set_spec(args.range).parts[0]
    if part is None or part.step != 1:
        raise _UsageError(f"cannot parse range {args.range!r}; expected lo..hi")
    for n in part.elements():
        one_to_n = validate_union([interval(1, n)]) if "set" in needs else None
        spec = f"1..{n}" if "set" in needs else None
        yield spec, {"set": one_to_n, "n": n, "k": args.k, "m": args.m}


def _fail(exc) -> int:
    """Report exc by its row of _ERRORS on stderr and return its exit code."""
    code, message = next((code, message) for kind, code, message in _ERRORS
                         if isinstance(exc, kind))
    if message is None:
        # the interpreter flushes stdout again on exit; let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    else:
        print("relprime: " + _shortened(message.format(exc)), file=sys.stderr)
    return code


def _shortened(text: str) -> str:
    """text with each _LONG_RUN_RE run shown by its first 40 characters
    and its length."""
    return _LONG_RUN_RE.sub(
        lambda run: f"{run[0][:40]}... ({len(run[0])} characters)", text)


def _formula(name, values):
    params, (module, attr), _, _ = _FUNCTIONS[name]
    return getattr(module, attr)(*[values[p] for p in params])


def _oracle(name, values, budget):
    params, _, attr, ordering = _FUNCTIONS[name]
    if ordering is None:
        args = [values[p] for p in params]
    else:
        args = [values["n"], values["k"], values["m"], ordering]
    return getattr(oracle, attr)(*args, budget)


def _record(columns, result, verified, elapsed_ms):
    """The record of one query: its _COLUMNS values other than None, then
    the result, the verdict when verifying and the elapsed time."""
    record = {key: value for key, value in zip(_COLUMNS, columns) if value is not None}
    try:
        record["result"] = str(result)
    except ValueError as exc:  # past sys.get_int_max_str_digits() digits
        raise OverflowError(f"{exc} (the result has {result.bit_length()} bits)") from exc
    if verified is not None:
        record["verified"] = verified
    record["elapsed_ms"] = elapsed_ms
    return record


def _emit(record, fmt):
    if fmt == "json":
        line = json.dumps(record, separators=(",", ":"))
    else:
        line = "\t".join(str(record.get(key, "")) for key in (*_COLUMNS, "result"))
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _load_settings(args) -> dict:
    """The --config file's settings, with output set by --json or --tsv
    when given, else by the file, else json."""
    settings = {"output": "tsv" if args.tsv else "json"}
    if args.config is None:
        return settings
    path = args.config
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise _UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = key.strip(), value.strip()
        if key in ("budget_subsets", "budget_tuples"):
            settings[key] = _config_int(value, f"{path}:{lineno}: {key}")
        elif key == "output":
            if value not in ("json", "tsv"):
                raise _UsageError(f"{path}:{lineno}: output must be json or tsv")
            if not (args.json or args.tsv):
                settings[key] = value
        else:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
    return settings


def _config_int(text, where) -> int:
    try:
        return _flag_int(text)
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"{where}: {exc}") from None


def _resolve_budget(args, settings) -> OracleBudget:
    # precedence: flag, then environment, then config, then default
    subsets = settings.get("budget_subsets", DEFAULT_BUDGET.max_set_size)
    env = os.environ.get(ENV_BUDGET_SUBSETS)
    if env is not None:
        subsets = _config_int(env, ENV_BUDGET_SUBSETS)
    if args.budget_subsets is not None:
        subsets = args.budget_subsets
    tuples = settings.get("budget_tuples", DEFAULT_BUDGET.max_tuple_space)
    if args.budget_tuples is not None:
        tuples = args.budget_tuples
    return OracleBudget(max_set_size=subsets, max_tuple_space=tuples)


if __name__ == "__main__":
    sys.exit(main())
