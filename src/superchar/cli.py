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
import itertools
import json
import math
import os
import random
import sys
import tempfile
import time
from fractions import Fraction

from . import __version__
from .qcoeff import is_prime
from .setpart import (
    BudgetError,
    LabeledSetPartition,
    PartitionIndex,
    count_sn,
    enumerate_compatible,
    set_partitions,
    union_K,
)
from .ring import (
    CharCombo,
    char_value,
    check_labels,
    combo_value,
    inner_product,
    restrict_combo,
    sinf,
    star_K,
    superinduce,
    tensor,
)

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
    text = text.strip()
    if text.startswith("n"):
        lam = LabeledSetPartition.from_text(text)
        if n is not None and lam.n != n:
            raise ValueError("%r has n=%d, but n=%d was given" % (text, lam.n, n))
    elif n is None:
        raise ValueError("arc list %r needs --n" % text)
    else:
        lam = LabeledSetPartition.from_text("n=%d; %s" % (n, text) if text else "n=%d" % n)
    check_labels((lam,), q)
    return lam


def _render(x, fmt):
    """A combination, Laurent polynomial, cyclotomic value or NCSym
    element as text or JSON."""
    if fmt == "json":
        return json.dumps(x.to_json(), sort_keys=True)
    return str(x)


def _check_walk_budget(n, args, walk="superinduction to"):
    """Superinduction to U_n, and the restriction and tensor suites up to
    U_n, walk every label of U_n; refuse the request when they outnumber an
    explicit --budget."""
    if args.budget is None:
        return
    labels = count_sn(n, args.q)
    if labels > args.budget:
        raise BudgetError(
            "%s U_%d(%d) walks %d labels, over the budget of %d"
            % (walk, n, args.q, labels, args.budget)
        )


# ---------------------------------------------------------------------------
# compute commands: each returns (exit_code, output string)


def cmd_restrict(args):
    lam = _parse_char(args.char, args.q, args.n)
    n = lam.n
    K = PartitionIndex.from_text(args.subgroup, n=n)
    x = CharCombo.of(lam, PartitionIndex.full(n))
    return EXIT_OK, _render(restrict_combo(x, K, args.q), args.format)


def cmd_tensor(args):
    if len(args.char) < 2:
        raise ValueError("tensor needs at least two --char factors")
    chars = [_parse_char(c, args.q, args.n) for c in args.char]
    n = chars[0].n
    if any(c.n != n for c in chars):
        raise ValueError("tensor factors live on different groups")
    amb = PartitionIndex.full(n)
    out = CharCombo.of(chars[0], amb)
    for c in chars[1:]:
        out = tensor(out, CharCombo.of(c, amb), args.q)
    return EXIT_OK, _render(out, args.format)


def cmd_sind(args):
    mu = _parse_char(args.char, args.q, args.n)
    n = mu.n
    K = PartitionIndex.from_text(args.subgroup, n=n)
    _check_walk_budget(n, args)
    return EXIT_OK, _render(superinduce(mu, K, args.q), args.format)


def cmd_sinf(args):
    lam = _parse_char(args.char, args.q, args.n)
    n = lam.n
    K = PartitionIndex.from_text(args.subgroup, n=n)
    L = PartitionIndex.from_text(args.ambient, n=n) if args.ambient else PartitionIndex.full(n)
    inflated = sinf(lam, K, L)
    return EXIT_OK, _render(CharCombo.of(inflated, L), args.format)


def cmd_star(args):
    lam = _parse_char(args.left, args.q)
    mu = _parse_char(args.right, args.q)
    m, n = lam.n, mu.n
    if args.blocks:
        K = PartitionIndex.from_text(args.blocks, n=m + n)
    else:
        # an index carries no empty block, so an n=0 factor's block is left out
        blocks = (range(1, m + 1), range(m + 1, m + n + 1))
        K = PartitionIndex(m + n, [block for block in blocks if block])
    _check_walk_budget(m + n, args)
    return EXIT_OK, _render(star_K(lam, mu, K, args.q), args.format)


def _parse_combo(text, q):
    """A combination: either rendered combo text or a bare character."""
    text = text.strip()
    if "chi[" not in text:
        return CharCombo.of(_parse_char(text, q))
    first = text.index("chi[") + 4
    n = LabeledSetPartition.from_text(text[first : text.index("]", first)]).n
    x = CharCombo.from_text(text, PartitionIndex.full(n))
    check_labels(x.terms, q)
    return x


def cmd_inner(args):
    x = _parse_combo(args.left, args.q)
    y = _parse_combo(args.right, args.q)
    return EXIT_OK, _render(inner_product(x, y), args.format)


def cmd_value(args):
    lam = _parse_char(args.char, args.q, args.n)
    mu = _parse_char(args.at, args.q, lam.n)
    return EXIT_OK, _render(char_value(lam, mu, args.q), args.format)


def cmd_count(args):
    if args.n is None:
        raise ValueError("count needs --n")
    value = count_sn(args.n, args.q)
    if args.format == "json":
        return EXIT_OK, json.dumps({"n": args.n, "q": args.q, "count": value})
    return EXIT_OK, str(value)


def cmd_ncsym(args):
    from . import ncsym as nc

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
# verification suites


def _suite_orthogonality(args):
    from .oracle import PatternGroup, brute_inner_product

    checks = 0
    for n in range(2, args.max_n + 1):
        G = PatternGroup.full(n, args.q, max_size=args.budget)
        table = G.superclass_table()
        rows = G.character_table()
        for i, lam in enumerate(table.labels):
            for j, mu in enumerate(table.labels):
                got = brute_inner_product(G, rows[i]["values"], rows[j]["values"])
                want = (
                    Fraction(args.q ** lam.num_crossings()) if i == j else Fraction(0)
                )
                if got.as_rational() != want:
                    return False, "inner(%s, %s) = %s at n=%d" % (
                        lam.to_text(),
                        mu.to_text(),
                        got,
                        n,
                    )
                checks += 1
    return True, "%d inner products" % checks


def _suite_restriction(args):
    from .ring import _char_value_std, _combo_coords, _mono_coords, _value_rows

    _check_walk_budget(args.max_n, args, "the restriction suite on")
    p = args.q
    checks = 0
    for n in range(2, args.max_n + 1):
        full = PartitionIndex.full(n)
        # each K's labels and the monomial rows of its characters, shared by every lam
        subgroups = []
        for parts in set_partitions(range(1, n + 1)):
            K = PartitionIndex(n, parts)
            labels = list(enumerate_compatible(K, p))
            subgroups.append((K, labels, _value_rows(labels, labels, K, p)))
        for lam in enumerate_compatible(full, p):
            x = CharCombo.of(lam, full)
            for K, labels, rows in subgroups:
                res = restrict_combo(x, K, p)
                for mu, got in zip(labels, _combo_coords(res, labels, p, rows)):
                    if got != _mono_coords(_char_value_std(lam.arcs, mu.arcs, p), p):
                        return False, "Res %s to %s at %s" % (
                            lam.to_text(),
                            K.to_text(),
                            mu.to_text(),
                        )
                    checks += 1
    return True, "%d pointwise values" % checks


def _suite_tensor(args):
    from .ring import _combo_coords, _mono_coords, _value_rows

    if args.samples < 0:
        raise ValueError("--samples must be nonnegative")
    _check_walk_budget(args.max_n, args, "the tensor suite on")
    p = args.q
    rnd = random.Random(args.seed)
    checks = 0
    # exhaustive pointwise correctness on small groups, read off one
    # monomial table per group: chi^lam chi^mu is a product of monomials
    for n in range(2, min(args.max_n, 4) + 1):
        amb = PartitionIndex.full(n)
        labels = list(enumerate_compatible(amb, p))
        rows = _value_rows(labels, labels, amb, p)
        for lam, mu in itertools.product(labels, repeat=2):
            t = tensor(CharCombo.of(lam, amb), CharCombo.of(mu, amb), p)
            got = _combo_coords(t, labels, p, rows)
            for nu, value, m1, m2 in zip(labels, got, rows[lam], rows[mu]):
                want = m1 and m2 and (m1[0] + m2[0], (m1[1] + m2[1]) % p)
                if value != _mono_coords(want, p):
                    return False, "%s (x) %s at %s" % (
                        lam.to_text(),
                        mu.to_text(),
                        nu.to_text(),
                    )
                checks += 1
    # seeded commutativity check at the largest size, on at most --samples
    # distinct pairs of different characters, each counted once
    n = args.max_n
    amb = PartitionIndex.full(n)
    labels = list(enumerate_compatible(amb, p))
    pairs = len(labels) * (len(labels) - 1) // 2
    for t in sorted(rnd.sample(range(pairs), min(args.samples, pairs))):
        # pair number t is (i, j) with t = j(j-1)/2 + i and i < j
        j = (1 + math.isqrt(1 + 8 * t)) // 2
        lam, mu = labels[t - j * (j - 1) // 2], labels[j]
        a = tensor(CharCombo.of(lam, amb), CharCombo.of(mu, amb), p)
        b = tensor(CharCombo.of(mu, amb), CharCombo.of(lam, amb), p)
        if a != b:
            return False, "commutativity %s (x) %s" % (lam.to_text(), mu.to_text())
        checks += 1
    return True, "%d checks" % checks


def _suite_superinduction(args):
    from .oracle import PatternGroup, brute_inner_product, brute_superinduce
    from .reference import superinduce_trivial_twoblock
    from .ring import char_value_in

    checks = 0
    for n in range(2, args.max_n + 1):
        G = PatternGroup.full(n, args.q, max_size=args.budget)
        gt = G.superclass_table()
        rows = G.character_table()
        row_of = {lam: r["values"] for lam, r in zip(gt.labels, rows)}
        for parts in set_partitions(range(1, n + 1)):
            K = PartitionIndex(n, parts)
            H = PatternGroup.parabolic(K, args.q, max_size=args.budget)
            ht = H.superclass_table()
            for mu in enumerate_compatible(K, args.q):
                pipeline = superinduce(mu, K, args.q)
                chi_vals = tuple(
                    char_value_in(mu, lab, K, args.q) for lab in ht.labels
                )
                vals = brute_superinduce(G, H, chi_vals)
                for lam in gt.labels:
                    want = brute_inner_product(G, vals, row_of[lam]).as_rational()
                    want /= Fraction(args.q ** lam.num_crossings())
                    got = pipeline.coeff(lam).eval_at(args.q)
                    if got != want:
                        return False, "SInd %s from %s, coefficient of %s" % (
                            mu.to_text(),
                            K.to_text(),
                            lam.to_text(),
                        )
                    checks += 1
        # closed form for the two-block trivial case
        for k in range(1, n):
            K = PartitionIndex(n, [range(1, k + 1), range(k + 1, n + 1)])
            trivial = LabeledSetPartition(range(1, n + 1), [])
            if superinduce(trivial, K, args.q) != superinduce_trivial_twoblock(
                k, n, args.q
            ):
                return False, "closed form at k=%d n=%d" % (k, n)
            checks += 1
    return True, "%d coefficients" % checks


def _suite_words(args):
    from . import ncsym as nc
    from .reference import _labeled_of_parts, _star_K_product_words

    checks = 0
    for total in range(2, args.max_n + 1):
        for m in range(1, total):
            n = total - m
            for block1 in itertools.combinations(range(1, total + 1), m):
                block2 = tuple(v for v in range(1, total + 1) if v not in block1)
                K = PartitionIndex(total, [block1, block2])
                for mp in set_partitions(range(1, m + 1)):
                    for np_ in set_partitions(range(1, n + 1)):
                        glued = union_K(
                            _labeled_of_parts(mp, m), _labeled_of_parts(np_, n), K
                        )
                        x = nc.NCSymElem.single(
                            "p", nc.canonical_index(PartitionIndex(m, mp))
                        )
                        y = nc.NCSymElem.single(
                            "p", nc.canonical_index(PartitionIndex(n, np_))
                        )
                        product = nc.star_K_product(x, y, K)
                        where = "p_%s *_%s p_%s" % (
                            PartitionIndex(m, mp).to_text(),
                            K.to_text(),
                            PartitionIndex(n, np_).to_text(),
                        )
                        # the word-by-word product keeps the check independent
                        # of the m-basis rule
                        if product != _star_K_product_words(x, y, K):
                            return False, where + " differs from the word product"
                        rhs = nc.NCSymElem.single(
                            "p",
                            nc.canonical_index(PartitionIndex(total, glued.parts())),
                        )
                        if nc.p_from_m(product) != rhs:
                            return False, where
                        checks += 1
    return True, "%d products" % checks


def _suite_charmap(args):
    from .reference import characteristic_map_check

    if args.q != 2:
        raise ValueError("the characteristic map lives at q = 2")
    ok = characteristic_map_check(args.max_n, budget=args.budget)
    return ok, "degrees up to %d" % args.max_n


SUITES = {
    "orthogonality": _suite_orthogonality,
    "restriction": _suite_restriction,
    "tensor": _suite_tensor,
    "superinduction": _suite_superinduction,
    "words": _suite_words,
    "charmap": _suite_charmap,
}


def cmd_verify(args):
    if args.max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    if args.suite != "all":
        names = [args.suite]
    else:
        # every suite defined at this q: the characteristic map needs q = 2
        names = [name for name in sorted(SUITES) if name != "charmap" or args.q == 2]
    lines = []
    failed = False
    for name in names:
        start = time.perf_counter()
        ok, detail = SUITES[name](args)
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
    sp.add_argument("--suite", choices=sorted(SUITES) + ["all"], required=True)
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
        if not is_prime(args.q):
            raise ValueError("--q must be prime, got %d" % args.q)
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
    except BudgetError as exc:
        print("budget refused: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, TypeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_PARSE
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
