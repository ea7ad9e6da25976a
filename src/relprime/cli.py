"""Command-line front end: count, seq, and verify subcommands.

All three read one registry, _FUNCTIONS, which maps each function name
to its parameters, its formula, its oracle and, for the tuple counters,
the ordering the oracle enumerates.

Records go to stdout as JSON lines (one object per query) or, with
--tsv, as headerless tab-separated rows.  Counts are rendered as decimal
strings so arbitrarily large values survive 64-bit JSON parsers.

Exit codes: 0 success, 2 usage or parse error, 3 overlapping union,
4 oracle budget exceeded, out of memory or a size too large to
represent, 5 failed sequence check, 6 verify mismatch, 130 interrupted.
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
from .oracle import OracleBudget
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

_RANGE_RE = re.compile(r"(\d+)\.\.(\d+)")


class _UsageError(Exception):
    """Bad flag combinations and malformed values; maps to exit code 2."""


class _CheckFailed(Exception):
    """A --check-* assertion found a counterexample; maps to exit code 5."""


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "count":
            return _run_query(args, verify=args.verify)
        if args.command == "verify":
            return _run_query(args, verify=True)
        return _run_seq(args)
    except (_UsageError, SetSpecError, DomainError) as exc:
        print(f"relprime: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OverlapError as exc:
        print(f"relprime: {exc}", file=sys.stderr)
        return EXIT_OVERLAP
    except BudgetExceededError as exc:
        print(f"relprime: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except _CheckFailed as exc:
        print(f"relprime: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except MemoryError:
        print("relprime: out of memory; try a smaller set, range or budget",
              file=sys.stderr)
        return EXIT_BUDGET
    except OverflowError as exc:
        print(f"relprime: too large to represent: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except KeyboardInterrupt:
        print("relprime: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


@cache  # built once per process; main parses every call with it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relprime",
        description="Count relatively prime subsets and constrained coprime "
        "tuples of finite integer sets, exactly.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    output = argparse.ArgumentParser(add_help=False)
    fmt = output.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="JSON lines output (default)")
    fmt.add_argument("--tsv", action="store_true", help="tab-separated output")
    output.add_argument("--config", metavar="PATH", help="key=value settings file")

    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--set", dest="set_spec", metavar="SPEC",
                        help="ground set, e.g. '1..9 + ap(10,3,4)'")
    params.add_argument("--n", type=_flag_int, help="modulus or range bound")
    params.add_argument("--k", type=_flag_int, help="subset or tuple size")
    params.add_argument("--m", type=_flag_int, help="coprimality modulus")

    budgets = argparse.ArgumentParser(add_help=False)
    budgets.add_argument("--budget-subsets", type=_flag_int, metavar="N",
                         help="largest |X| the oracle will enumerate")
    budgets.add_argument("--budget-tuples", type=_flag_int, metavar="N",
                         help="largest tuple space the oracle will enumerate")

    count = sub.add_parser("count", parents=[params, budgets, output],
                           help="evaluate one counting function")
    count.add_argument("function", choices=sorted(_FUNCTIONS))
    count.add_argument("--verify", action="store_true",
                       help="also recount with the brute-force oracle")

    verify = sub.add_parser("verify", parents=[params, budgets, output],
                            help="evaluate and compare against the oracle")
    verify.add_argument("function", choices=sorted(_FUNCTIONS))

    seq = sub.add_parser("seq", parents=[output],
                         help="emit a function's values for n in a range")
    seq.add_argument("function", choices=sorted(_FUNCTIONS))
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
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _run_query(args, verify: bool) -> int:
    config = _load_config(args.config)
    fmt = _resolve_format(args, config)
    name = args.function
    needs = _FUNCTIONS[name][0]

    set_union = None
    if "set" in needs:
        if args.set_spec is None:
            raise _UsageError(f"{name} requires --set")
        set_union = parse_set_spec(args.set_spec)
    elif args.set_spec is not None:
        raise _UsageError(f"{name} does not take --set")
    for flag in ("n", "k", "m"):
        given = getattr(args, flag)
        if flag in needs and given is None:
            raise _UsageError(f"{name} requires --{flag}")
        if flag not in needs and given is not None:
            raise _UsageError(f"{name} does not take --{flag}")

    values = {"set": set_union, "n": args.n, "k": args.k, "m": args.m}
    started = time.perf_counter()
    value = _formula(name, values)
    verified = None
    if verify:
        budget = _resolve_budget(args, config)
        verified = _oracle(name, values, budget) == value
    elapsed_ms = round((time.perf_counter() - started) * 1000, 3)

    record = _record(name, args.set_spec, args.n, args.k, args.m,
                     value, verified, elapsed_ms)
    _emit(record, fmt)
    if verified is False:
        print(f"relprime: oracle disagrees with the formula for {name}",
              file=sys.stderr)
        return EXIT_VERIFY_MISMATCH
    return EXIT_OK


def _run_seq(args) -> int:
    config = _load_config(args.config)
    fmt = _resolve_format(args, config)
    name = args.function
    if args.check_mod3 and name != "phi":
        raise _UsageError("--check-mod3 only applies to phi")
    if args.check_nonsquare and name != "f":
        raise _UsageError("--check-nonsquare only applies to f")

    match = _RANGE_RE.fullmatch(args.range.strip())
    if not match:
        raise _UsageError(f"cannot parse range {args.range!r}; expected lo..hi")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo < 1:
        raise _UsageError("sequence range must start at 1 or above")
    if lo > hi:
        raise _UsageError(f"empty range {args.range!r}")

    params = _FUNCTIONS[name][0]
    fixed = [flag for flag in ("k", "m") if flag in params]
    for flag in fixed:
        if getattr(args, flag) is None:
            raise _UsageError(f"seq {name} requires --{flag}")
    for flag in ("k", "m"):
        if flag not in fixed and getattr(args, flag) is not None:
            raise _UsageError(f"seq {name} does not take --{flag}")

    for n in range(lo, hi + 1):
        started = time.perf_counter()
        one_to_n = validate_union([interval(1, n)]) if "set" in params else None
        value = _formula(name, {"set": one_to_n, "n": n, "k": args.k, "m": args.m})
        elapsed_ms = round((time.perf_counter() - started) * 1000, 3)
        spec = f"1..{n}" if "set" in params else None
        record = _record(name, spec, n, args.k, args.m, value, None, elapsed_ms)
        _emit(record, fmt)
        if args.check_mod3 and n >= 3 and value % 3 != 0:
            raise _CheckFailed(f"phi({n}) = {value} is not divisible by 3")
        if args.check_nonsquare and n >= 2 and isqrt(value) ** 2 == value:
            raise _CheckFailed(f"f({n}) = {value} is a perfect square")
    return EXIT_OK


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


def _record(function, spec, n, k, m, result, verified, elapsed_ms):
    record = {"function": function}
    if spec is not None:
        record["spec"] = spec
    if n is not None:
        record["n"] = n
    if k is not None:
        record["k"] = k
    if m is not None:
        record["m"] = m
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
        line = "\t".join([
            record["function"],
            record.get("spec", ""),
            str(record.get("n", "")),
            str(record.get("k", "")),
            str(record.get("m", "")),
            record["result"],
        ])
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _load_config(path) -> dict:
    if path is None:
        return {}
    settings = {}
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
            settings[key] = value
        else:
            raise _UsageError(f"{path}:{lineno}: unknown key {key!r}")
    return settings


def _config_int(text, where) -> int:
    try:
        value = int(text)
    except ValueError:
        raise _UsageError(f"{where} must be an integer, got {text!r}") from None
    if value < 1:
        raise _UsageError(f"{where} must be positive, got {value}")
    return value


def _resolve_format(args, config) -> str:
    if getattr(args, "tsv", False):
        return "tsv"
    if getattr(args, "json", False):
        return "json"
    return config.get("output", "json")


def _resolve_budget(args, config) -> OracleBudget:
    # precedence: flag, then environment, then config, then default
    subsets = config.get("budget_subsets", OracleBudget.max_set_size)
    env = os.environ.get(ENV_BUDGET_SUBSETS)
    if env is not None:
        subsets = _config_int(env, ENV_BUDGET_SUBSETS)
    if args.budget_subsets is not None:
        subsets = args.budget_subsets
    tuples = config.get("budget_tuples", OracleBudget.max_tuple_space)
    if args.budget_tuples is not None:
        tuples = args.budget_tuples
    return OracleBudget(max_set_size=subsets, max_tuple_space=tuples)


if __name__ == "__main__":
    sys.exit(main())
