#!/usr/bin/env python3
"""Codimension growth table for one module algebra from the corpus.

The n-th root column is the quantity whose limit is the PI-exponent; on
simple inputs it should drift toward dim(A) as n grows, and so should the
successive ratio c_n/c_{n-1}.  The engine works on the ordered span W_n,
whose size is bounded by dim(A)^(n+1), so the cost grows with dim(A) and n
rather than with the nominal n! * (m^2)^n evaluation rows.  The budget flag
still caps that nominal row count.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from taftlab.fixtures import positive_modules
from taftlab.identities import codim_growth_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("name", nargs="?", default="sweedler2dim",
                    help="corpus module name (default: sweedler2dim)")
    ap.add_argument("--n-max", type=int, default=4)
    ap.add_argument("--budget", type=int, default=10 ** 6,
                    help="maximum evaluation rows per degree")
    ap.add_argument("--backend", choices=["auto", "exact"], default="auto")
    ap.add_argument("--list", action="store_true",
                    help="print corpus names and exit")
    args = ap.parse_args()

    corpus = positive_modules()
    if args.list:
        for name in sorted(corpus):
            print("%-24s dim %d" % (name, corpus[name].algebra.dim))
        return 0
    if args.name not in corpus:
        ap.error("unknown module %r (try --list)" % args.name)
    mod = corpus[args.name]

    print("# %s: dim A = %d, m = %d" % (args.name, mod.algebra.dim, mod.m))
    print("%3s %10s %12s %12s %8s %10s %10s" %
          ("n", "c_n", "c_n^(1/n)", "c_n/c_n-1", "bound", "rows", "ms"))
    rows = codim_growth_report(mod, args.n_max, budget_rows=args.budget,
                               backend=args.backend)
    prev = None
    for g in rows:
        ratio = "%12.6f" % (g.value / prev) if prev else "%12s" % "-"
        print("%3d %10d %12.6f %s %8s %10d %10.1f" %
              (g.n, g.value, g.nth_root, ratio,
               "ok" if g.bound_ok else "FAIL", g.rows, g.wall_ms))
        prev = g.value
    return 0


if __name__ == "__main__":
    sys.exit(main())
