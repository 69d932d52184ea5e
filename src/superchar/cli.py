"""Command-line front end.

Parses requests, runs the exact computations, renders canonical text or
JSON, and optionally caches rendered results on disk.  Exit codes: 0 for
success, 1 for a verification failure, 2 for a parse/usage error, 3 for a
budget refusal, 4 for an internal error (any other exception).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
import time

from . import __version__, check_prime

CACHE_FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _parse_char(text, q, n=None):
    """A character/superclass label: either full 'n=5; 1-3:1' text or the
    arc body alone ('1-3:1', possibly empty) with n supplied separately.
    A supplied n must agree with the text's own, and labels must be
    nonzero residues mod q."""
    from .setpart import LabeledSetPartition, check_labels

    text = text.strip()
    if n is None and not text.startswith("n"):
        raise ValueError("arc list %r needs --n" % text)
    lam = LabeledSetPartition.from_text(text, n=n)
    if n is not None and lam.n != n:
        raise ValueError("%r has n=%d, but n=%d was given" % (text, lam.n, n))
    check_labels((lam,), q)
    return lam


def _render(x, fmt):
    """A combination, Laurent polynomial, cyclotomic value or NCSym
    element as text or JSON."""
    if fmt == "json":
        return json.dumps(x.to_json(), sort_keys=True)
    return str(x)


# ---------------------------------------------------------------------------
# compute commands: each returns (exit_code, output string), parses its
# arguments, then imports the math it runs, so a cache hit or a refused --q or
# --budget loads none of it and a request refused at parse loads only setpart


def cmd_restrict(args):
    from .setpart import PartitionIndex

    lam = _parse_char(args.char, args.q, args.n)
    n = lam.n
    K = PartitionIndex.from_text(args.subgroup, n=n)
    from .ring import CharCombo, restrict_combo

    x = CharCombo.of(lam, PartitionIndex.full(n))
    return EXIT_OK, _render(restrict_combo(x, K, args.q), args.format)


def cmd_tensor(args):
    from .setpart import PartitionIndex

    if len(args.char) < 2:
        raise ValueError("tensor needs at least two --char factors")
    chars = [_parse_char(c, args.q, args.n) for c in args.char]
    n = chars[0].n
    if any(c.n != n for c in chars):
        raise ValueError("tensor factors live on different groups")
    from .ring import CharCombo, tensor

    amb = PartitionIndex.full(n)
    out = CharCombo.of(chars[0], amb)
    for c in chars[1:]:
        out = tensor(out, CharCombo.of(c, amb), args.q)
    return EXIT_OK, _render(out, args.format)


def cmd_sind(args):
    from .setpart import PartitionIndex, check_on, check_walk_budget

    mu = _parse_char(args.char, args.q, args.n)
    n = mu.n
    K = PartitionIndex.from_text(args.subgroup, n=n)
    check_walk_budget(n, args.q, args.budget)
    check_on((mu,), K)
    from .ring import superinduce

    return EXIT_OK, _render(superinduce(mu, K, args.q), args.format)


def cmd_sinf(args):
    from .setpart import PartitionIndex, check_on

    lam = _parse_char(args.char, args.q, args.n)
    n = lam.n
    K = PartitionIndex.from_text(args.subgroup, n=n)
    L = PartitionIndex.from_text(args.ambient, n=n) if args.ambient else PartitionIndex.full(n)
    check_on((lam,), K)
    from .ring import CharCombo, sinf

    inflated = sinf(lam, K, L)
    return EXIT_OK, _render(CharCombo.of(inflated, L), args.format)


def cmd_star(args):
    from .setpart import PartitionIndex, check_walk_budget, shuffle_index

    lam = _parse_char(args.left, args.q)
    mu = _parse_char(args.right, args.q)
    m, n = lam.n, mu.n
    if args.blocks:
        K = PartitionIndex.from_text(args.blocks, n=m + n)
    else:
        K = shuffle_index(m, n)
    check_walk_budget(m + n, args.q, args.budget)
    from .ring import star_K

    return EXIT_OK, _render(star_K(lam, mu, K, args.q), args.format)


def _parse_combo(text, q):
    """A combination: either rendered combo text or a bare character."""
    from .ring import CharCombo
    from .setpart import LabeledSetPartition, PartitionIndex, check_labels

    text = text.strip()
    if "chi[" not in text:
        return CharCombo.of(_parse_char(text, q))
    first = text.index("chi[") + 4
    n = LabeledSetPartition.from_text(text[first : text.index("]", first)]).n
    x = CharCombo.from_text(text, PartitionIndex.full(n))
    check_labels(x.terms, q)
    return x


def cmd_inner(args):
    from .ring import inner_product

    x = _parse_combo(args.left, args.q)
    y = _parse_combo(args.right, args.q)
    return EXIT_OK, _render(inner_product(x, y), args.format)


def cmd_value(args):
    lam = _parse_char(args.char, args.q, args.n)
    mu = _parse_char(args.at, args.q, lam.n)
    from .ring import char_value

    return EXIT_OK, _render(char_value(lam, mu, args.q), args.format)


def cmd_count(args):
    from .setpart import count_sn

    if args.n is None:
        raise ValueError("count needs --n")
    value = count_sn(args.n, args.q)
    if args.format == "json":
        return EXIT_OK, json.dumps({"n": args.n, "q": args.q, "count": value})
    return EXIT_OK, str(value)


def cmd_ncsym(args):
    from . import ncsym as nc
    from .setpart import PartitionIndex

    if args.op == "product":
        if args.left is None or args.right is None:
            raise ValueError("ncsym product needs --left and --right")
        K1 = PartitionIndex.from_text(args.left)
        K2 = PartitionIndex.from_text(args.right)
        x = nc.NCSymElem.single(args.basis, nc.canonical_index(K1))
        y = nc.NCSymElem.single(args.basis, nc.canonical_index(K2))
        if args.blocks:
            K = PartitionIndex.from_text(args.blocks, n=K1.n + K2.n)
            out = nc.star_K_product(x, y, K)
        else:
            out = nc.concat_product(x, y)
        if args.basis == "p":
            out = nc.p_from_m(out)
    elif args.op in ("to-p", "to-m"):
        if args.element is None:
            raise ValueError("ncsym %s needs --element" % args.op)
        x = nc.NCSymElem.from_json(json.loads(args.element))
        out = nc.p_from_m(x) if args.op == "to-p" else nc.m_from_p(x)
    else:
        raise ValueError("unknown ncsym op %r" % args.op)
    return EXIT_OK, _render(out, args.format)


# ---------------------------------------------------------------------------
# verification: the suites live in superchar.verify, imported only here

# the --suite choices, sorted; a test pins them to superchar.verify.SUITES
SUITE_NAMES = ("charmap", "orthogonality", "restriction", "superinduction", "tensor", "words")


def cmd_verify(args):
    if args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    from .verify import SUITES

    if args.suite != "all":
        names = [args.suite]
    else:
        # every suite defined at this q: the characteristic map needs q = 2
        names = [name for name in SUITE_NAMES if name != "charmap" or args.q == 2]
    lines = []
    failed = False
    for name in names:
        start = time.perf_counter()
        ok, detail = SUITES[name](args.q, args.max_n, args.budget, args.samples, args.seed)
        elapsed = time.perf_counter() - start
        if args.format == "json":
            report = {"suite": name, "ok": ok, "detail": detail, "elapsed_s": elapsed}
            lines.append(json.dumps(report, sort_keys=True))
        else:
            lines.append("%s: %s (%s)" % (name, "ok" if ok else "FAIL", detail))
        failed = failed or not ok
    return (EXIT_VERIFY if failed else EXIT_OK), "\n".join(lines)


COMMANDS = {
    "restrict": cmd_restrict,
    "tensor": cmd_tensor,
    "sind": cmd_sind,
    "sinf": cmd_sinf,
    "star": cmd_star,
    "inner": cmd_inner,
    "value": cmd_value,
    "count": cmd_count,
    "verify": cmd_verify,
    "ncsym": cmd_ncsym,
}


# ---------------------------------------------------------------------------
# cache


def _request_digest(args):
    relevant = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("cache_dir", "verify_cache", "func")
    }
    payload = json.dumps(
        {"version": CACHE_FORMAT_VERSION, "package": __version__, "request": relevant},
        sort_keys=True,
        default=str,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _cache_load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            entry = json.load(fh)
        if entry.get("format-version") != CACHE_FORMAT_VERSION:
            return None
        return int(entry["exit"]), entry["output"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(path, code, output):
    entry = {
        "format-version": CACHE_FORMAT_VERSION,
        "exit": code,
        "output": output,
    }
    directory = os.path.dirname(path)
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(entry, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# argument parsing


@functools.lru_cache
def build_parser():
    """The argument parser, built once per process (argparse set-up costs
    more than many requests do)."""
    parser = argparse.ArgumentParser(
        prog="superchar",
        description="Exact supercharacter calculus for unipotent groups.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, n_flag=True):
        sp.add_argument("--q", type=int, required=True, help="field size (prime)")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--cache-dir", default=None)
        sp.add_argument("--verify-cache", action="store_true")
        sp.add_argument("--budget", type=int, default=None)
        if n_flag:
            sp.add_argument("--n", type=int, default=None, help="group size")

    sp = sub.add_parser("restrict", help="restrict a supercharacter to U_K")
    common(sp)
    sp.add_argument("--char", required=True)
    sp.add_argument("--subgroup", required=True, help='index, e.g. "[2,5]" or "{1,3|2}"')

    sp = sub.add_parser("tensor", help="tensor product of supercharacters")
    common(sp)
    sp.add_argument("--char", action="append", required=True)

    sp = sub.add_parser("sind", help="superinduce from U_K")
    common(sp)
    sp.add_argument("--char", required=True)
    sp.add_argument("--subgroup", required=True)

    sp = sub.add_parser("sinf", help="superinflate from U_K to U_L")
    common(sp)
    sp.add_argument("--char", required=True)
    sp.add_argument("--subgroup", required=True)
    sp.add_argument("--ambient", default=None)

    sp = sub.add_parser("star", help="shuffle product of two supercharacters")
    common(sp, n_flag=False)
    sp.add_argument("--left", required=True, help='full char text, e.g. "n=2; 1-2:1"')
    sp.add_argument("--right", required=True)
    sp.add_argument("--blocks", default=None, help="two-block index on {1..m+n}")

    sp = sub.add_parser("inner", help="inner product of two combinations")
    common(sp, n_flag=False)
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)

    sp = sub.add_parser("value", help="character value at a superclass")
    common(sp)
    sp.add_argument("--char", required=True)
    sp.add_argument("--at", required=True, help="superclass label")

    sp = sub.add_parser("count", help="number of superclasses of U_n(q)")
    common(sp)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp)
    sp.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    sp.add_argument("--max-n", type=int, default=4, dest="max_n")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--samples", type=int, default=500)

    sp = sub.add_parser("ncsym", help="noncommuting symmetric function operations")
    common(sp, n_flag=False)
    sp.add_argument("--op", choices=("product", "to-p", "to-m"), required=True)
    sp.add_argument("--left", default=None, help='partition, e.g. "{1,3|2}"')
    sp.add_argument("--right", default=None)
    sp.add_argument("--blocks", default=None)
    sp.add_argument("--basis", choices=("m", "p"), default="p")
    sp.add_argument("--element", default=None, help="JSON element for conversions")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        check_prime(args.q, "--q")
        if args.budget is not None and args.budget < 0:
            raise ValueError("--budget must be nonnegative")

        cache_dir = args.cache_dir or os.environ.get("SUPERCHAR_CACHE")
        run = COMMANDS[args.command]

        # verify exists to recompute, so it neither reads nor writes the cache
        if cache_dir and args.command != "verify":
            path = os.path.join(cache_dir, _request_digest(args) + ".json")
            cached = _cache_load(path)
            if cached is not None and os.path.exists(path) and not args.verify_cache:
                code, output = cached
                print(output)
                return code
            code, output = run(args)
            if cached is not None and cached != (code, output):
                print(
                    "warning: cache entry disagreed with recomputation; overwritten",
                    file=sys.stderr,
                )
            elif cached is None and os.path.exists(path):
                print("warning: corrupt cache entry recomputed", file=sys.stderr)
            _cache_store(path, code, output)
            print(output)
            return code

        code, output = run(args)
        print(output)
        return code
    except (ValueError, TypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        # a BudgetError is a RuntimeError; naming it here, not in an except
        # clause, keeps setpart off the path of a request that never loads it
        from .setpart import BudgetError

        if isinstance(exc, BudgetError):
            print("budget refused: %s" % exc, file=sys.stderr)
            return EXIT_BUDGET
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
