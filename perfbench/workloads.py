"""The benchmark's workloads: input documents, job lists and the answer oracle.

Every job is one ``taft`` command line, run in-process through
``taftlab.cli.main``.  Inputs come from the shipped corpus: set-up runs
``taft fixtures`` and ``taft construct`` and, for ``dense``, writes
isomorphic copies under a change of basis drawn from the seed.  Each job
carries the answer it must give; the answers are fixed here from the
mathematics (dimensions, the c_n tables, isomorphism classes) and never read
back from taftlab.

Run as a script, this module performs one workload's set-up and prints its
wall and calibrated (see speed.py) seconds as one JSON line:

    python3 perfbench/workloads.py --workload certify --seed 1 --dir WORKDIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field

import dense
import speed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("certify", "codim", "dense", "build")
DEFAULT_SEED = 1

# ------------------------------------------------------------------ corpus

# semisimple spec -> (m, dim A); the named specs all have m = 2
SS = {name: (2, dim) for name, dim in (
    ("mat2_trivial", 4), ("mat2_graded_v0", 4), ("sweedler_p_gamma3", 4),
    ("pair_alpha_1", 2), ("pair_alpha_neg1", 2), ("pair_alpha_2", 2),
    ("pair_alpha_0", 2), ("pair2_diag_1", 8), ("pair2_diag_neg1", 8),
    ("pair2_diag_2", 8), ("pair2_nilblock", 8))}
# the construction grid: m in {2, 3, 4}, k in {1, 2, 3}, t | m; dim t k^2
SS.update({"grid_m%d_k%d_t%d" % (m, k, t): (m, t * k * k)
           for m in (2, 3, 4) for k in (1, 2, 3)
           for t in range(1, m + 1) if m % t == 0})
# base algebra -> (m, dim B); the extension has m layers of dim B
BASES = {"base_field_m2": (2, 1), "base_field_m3": (3, 1),
         "base_mat2_elem_m2": (2, 4), "base_mat2_elem_m3": (3, 4)}
NEGATIVES = {"trivial_sum_scalars": 2, "trivial_sum_mat2": 8}
FIXTURE_COUNT = len(SS) + len(BASES) + 1 + len(NEGATIVES)

# certify leaves out the grid points whose pass cost would crowd out the
# rest: dims 12, 16 and 18 over m = 2, 3 and 4 all run the same spin, so one
# dim-18 module (m = 4) stands for them; dim 27 and 36 take 14 s and 69 s
CERTIFY_GRID_EXTRA = ("grid_m4_k3_t2",)
CERTIFY_SS = sorted(name for name, (_, d) in SS.items()
                    if d <= 9 or name in CERTIFY_GRID_EXTRA)

# c_n of the multilinear H-identities, n = 1, 2, ...
CODIM = {
    "sweedler2dim": (3, 7, 15, 31),
    "ss_pair_alpha_1": (3, 7, 15, 31),
    "ss_pair_alpha_neg1": (3, 7, 15, 31),
    "ss_mat2_trivial": (1, 2, 6),
    "ss_sweedler_p_gamma3": (4, 22, 105),
}
# (module, highest degree, backend) for the codim workload
CODIM_JOBS = (("sweedler2dim", 4, "auto"), ("ss_pair_alpha_1", 3, "auto"),
              ("ss_pair_alpha_neg1", 3, "auto"), ("ss_mat2_trivial", 3, "auto"),
              ("ss_sweedler_p_gamma3", 3, "auto"), ("sweedler2dim", 3, "exact"))

DENSE_MODULES = ("sweedler2dim", "ext_base_mat2_elem_m2", "ss_grid_m4_k2_t2")
DENSE_CODIM = (("sweedler2dim", 3), ("ss_mat2_trivial", 3),
               ("ss_sweedler_p_gamma3", 2))

# criterion 07: (a, b, isomorphic)
ISO_SS_PAIRS = (("pair_alpha_1", "pair_alpha_neg1", True),
                ("pair2_diag_1", "pair2_diag_neg1", True),
                ("pair_alpha_1", "pair_alpha_2", False),
                ("pair_alpha_0", "pair_alpha_1", False),
                ("pair2_diag_1", "pair2_diag_2", False),
                ("pair2_diag_1", "pair2_nilblock", False),
                ("pair2_diag_neg1", "pair2_nilblock", False))
ISO_PAIRS = (("ss_pair2_diag_1", "ss_pair2_diag_neg1", True),
             ("ss_pair2_diag_1", "ss_pair2_diag_2", False))
HOPF_MS = (2, 3, 4, 5, 6)


def module_dim(name: str) -> int:
    """Dimension of a corpus module algebra, from its name alone."""
    if name == "sweedler2dim":
        return 2
    if name in NEGATIVES:
        return NEGATIVES[name]
    if name.startswith("ext_"):
        m, d = BASES[name[4:]]
        return m * d
    return SS[name[3:]][1]


# -------------------------------------------------------------------- jobs

@dataclass(frozen=True)
class Job:
    """One taft command line and the answer it must produce."""

    argv: tuple
    expect: dict = field(hash=False)

    @property
    def label(self) -> str:
        return " ".join(os.path.basename(a) if os.sep in a else a
                        for a in self.argv)


def _module_path(work: str, name: str) -> str:
    if name == "sweedler2dim" or name in NEGATIVES:
        return os.path.join(work, "specs", name + ".json")
    return os.path.join(work, "modules", name + ".json")


def _simple_expect(name: str) -> dict:
    dim = module_dim(name)
    if name in NEGATIVES:
        return {"kind": "not_simple", "dim": dim}
    return {"kind": "simple", "dim": dim}


def certify_modules() -> list:
    return (["sweedler2dim"] + ["ss_" + s for s in CERTIFY_SS]
            + ["ext_" + b for b in sorted(BASES)] + sorted(NEGATIVES))


def jobs(workload: str, work: str) -> list:
    """The job list of a workload whose inputs were written under `work`."""
    out = []
    if workload == "certify":
        for name in certify_modules():
            path = _module_path(work, name)
            out.append(Job(("verify", "--in", path), {"kind": "verify"}))
            out.append(Job(("simple", "--in", path), _simple_expect(name)))
    elif workload == "codim":
        for name, n_max, backend in CODIM_JOBS:
            for n in range(1, n_max + 1):
                out.append(Job(("codim", "--in", _module_path(work, name),
                                "--n", str(n), "--backend", backend),
                               {"kind": "codim", "n": n,
                                "c": CODIM[name][n - 1]}))
    elif workload == "dense":
        for name in DENSE_MODULES:
            path = os.path.join(work, "dense", name + ".json")
            out.append(Job(("verify", "--in", path), {"kind": "verify"}))
            out.append(Job(("simple", "--in", path), _simple_expect(name)))
        for name, n_max in DENSE_CODIM:
            path = os.path.join(work, "dense", name + ".json")
            for n in range(1, n_max + 1):
                out.append(Job(("codim", "--in", path, "--n", str(n)),
                               {"kind": "codim", "n": n,
                                "c": CODIM[name][n - 1]}))
    elif workload == "build":
        out.extend(_build_jobs(work))
    else:
        raise ValueError("unknown workload %r" % workload)
    return out


def _build_jobs(work: str) -> list:
    specs = os.path.join(work, "specs")
    dest = os.path.join(work, "out")
    out = [Job(("fixtures", "--out-dir", os.path.join(dest, "fixtures")),
               {"kind": "fixtures", "count": FIXTURE_COUNT})]
    for name, (m, dim) in sorted(SS.items()):
        target = os.path.join(dest, "ss_" + name + ".json")
        out.append(Job(("construct", "ss", "--in",
                        os.path.join(specs, name + ".json"), "--out", target),
                       {"kind": "construct", "file": target, "m": m,
                        "dim": dim}))
    for base, (m, d) in sorted(BASES.items()):
        target = os.path.join(dest, "ext_" + base + ".json")
        out.append(Job(("construct", "nilext", "--in",
                        os.path.join(specs, base + ".json"), "--out", target),
                       {"kind": "construct", "file": target, "m": m,
                        "dim": m * d}))
    for base, (m, d) in sorted(BASES.items()):
        target = os.path.join(dest, "recovered_" + base + ".json")
        out.append(Job(("recover", "--in", _module_path(work, "ext_" + base),
                        "--out-base", target),
                       {"kind": "recover", "layers": [d] * m,
                        "file": target, "m": m, "dim": d}))
    for a, b, iso in ISO_SS_PAIRS:
        out.append(Job(("iso-ss", "--a", os.path.join(specs, a + ".json"),
                        "--b", os.path.join(specs, b + ".json")),
                       {"kind": "iso_ss", "isomorphic": iso}))
    for a, b, iso in ISO_PAIRS:
        out.append(Job(("iso", "--a", _module_path(work, a),
                        "--b", _module_path(work, b)),
                       {"kind": "iso", "isomorphic": iso}))
    for m in HOPF_MS:
        out.append(Job(("hopf-check", "--m", str(m)), {"kind": "hopf"}))
    for m in HOPF_MS:
        for j in range(1, m):
            out.append(Job(("qbinom", str(m), str(j), str(m), str(m - 1)),
                           {"kind": "qbinom", "m": m}))
    for base, (m, d) in sorted(BASES.items()):
        out.append(Job(("radical", "--in",
                        os.path.join(work, "algebras", "ext_" + base + ".json")),
                       {"kind": "radical", "dim": (m - 1) * d}))
    return out


# ------------------------------------------------------------------ oracle

def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _check_answer(expect: dict, doc) -> str | None:
    kind = expect["kind"]
    if kind == "verify":
        return None if doc.get("ok") is True else "laws reported failing"
    if kind == "simple":
        want = expect["dim"] ** 2
        if doc.get("verdict") != "certified_simple":
            return "verdict %r, expected certified_simple" % doc.get("verdict")
        if doc.get("operator_algebra_dim") != want:
            return "operator algebra dim %r, expected %d" % (
                doc.get("operator_algebra_dim"), want)
        return None
    if kind == "not_simple":
        wd = doc.get("witness_dim")
        if doc.get("verdict") != "not_simple":
            return "verdict %r, expected not_simple" % doc.get("verdict")
        if not (isinstance(wd, int) and 0 < wd < expect["dim"]):
            return "witness dim %r outside (0, %d)" % (wd, expect["dim"])
        return None
    if kind == "codim":
        if doc.get("n") != expect["n"] or doc.get("c") != expect["c"]:
            return "c_%r = %r, expected c_%d = %d" % (
                doc.get("n"), doc.get("c"), expect["n"], expect["c"])
        return None
    if kind == "iso_ss":
        got = doc.get("isomorphic")
        return None if got is expect["isomorphic"] else (
            "isomorphic = %r, expected %r" % (got, expect["isomorphic"]))
    if kind == "iso":
        # the generic search is one-sided: no witness proves nothing, but a
        # witness for a non-isomorphic pair is wrong
        allowed = {"no_witness_found"}
        if expect["isomorphic"]:
            allowed.add("isomorphic")
        return None if doc.get("verdict") in allowed else (
            "verdict %r not in %s" % (doc.get("verdict"), sorted(allowed)))
    if kind == "recover":
        if doc.get("layer_dims") != expect["layers"]:
            return "layer dims %r, expected %r" % (doc.get("layer_dims"),
                                                   expect["layers"])
        return _check_document(expect, "algebra")
    if kind == "hopf":
        return None if doc.get("ok") is True else "axiom battery failed"
    if kind == "qbinom":
        value = doc.get("value") or {}
        zero = value.get("m") == expect["m"] and value.get("coeffs") and all(
            c == "0" for c in value["coeffs"])
        return None if zero else "value %r, expected 0" % (value,)
    if kind == "radical":
        return None if doc.get("dim") == expect["dim"] else (
            "radical dim %r, expected %d" % (doc.get("dim"), expect["dim"]))
    if kind == "construct":
        return _check_document(expect, "module")
    if kind == "fixtures":
        files = doc.get("files") or []
        if doc.get("count") != expect["count"] or len(files) != expect["count"]:
            return "wrote %r documents, expected %d" % (doc.get("count"),
                                                       expect["count"])
        missing = [f for f in files
                   if not os.path.isfile(os.path.join(doc["directory"],
                                                      f + ".json"))]
        return "missing documents %s" % missing if missing else None
    raise ValueError("unknown answer kind %r" % kind)


def _check_document(expect: dict, what: str) -> str | None:
    try:
        doc = _load(expect["file"])
    except (OSError, ValueError) as exc:
        return "no readable %s document: %s" % (what, exc)
    if doc.get("format") != "taftlab/1" or doc.get("m") != expect["m"]:
        return "%s document has format %r, m %r" % (what, doc.get("format"),
                                                    doc.get("m"))
    dim = doc.get("algebra", {}).get("dim")
    return None if dim == expect["dim"] else (
        "%s document has dim %r, expected %d" % (what, dim, expect["dim"]))


def check(job: Job, rc, stdout: str, stderr: str) -> str | None:
    """None when the job answered as expected, else what was wrong.

    A job fails on a non-zero exit, any stderr diagnostic, output that is
    not the expected JSON document, or a wrong answer.
    """
    if rc != 0:
        return "exit code %r" % (rc,)
    if stderr:
        return "stderr: %s" % stderr.strip()[:200]
    doc = None
    if stdout:
        try:
            doc = json.loads(stdout)
        except ValueError:
            return "stdout is not JSON"
        if doc.get("format") != "taftlab/1":
            return "stdout lacks the taftlab/1 format tag"
    elif job.expect["kind"] != "construct":
        return "no output"
    try:
        return _check_answer(job.expect, doc or {})
    except (OSError, ValueError, AttributeError, TypeError) as exc:
        return "unreadable answer: %s: %s" % (type(exc).__name__, exc)


def written_bytes(jobs) -> int:
    """Size of the documents the jobs wrote to their --out, --out-base and
    --out-dir targets."""
    total = 0
    for job in jobs:
        for flag, target in zip(job.argv, job.argv[1:]):
            if flag in ("--out", "--out-base"):
                total += os.path.getsize(target)
            elif flag == "--out-dir":
                total += sum(os.path.getsize(os.path.join(target, f))
                             for f in os.listdir(target))
    return total


# ------------------------------------------------------------------- set-up

def call(main, argv) -> tuple:
    """Run taft in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _ss_needed(workload: str) -> list:
    if workload == "certify":
        return CERTIFY_SS
    if workload == "codim":
        return sorted(n[3:] for n, _, _ in CODIM_JOBS if n.startswith("ss_"))
    if workload == "dense":
        return sorted({n[3:] for n in DENSE_MODULES if n.startswith("ss_")}
                      | {n[3:] for n, _ in DENSE_CODIM if n.startswith("ss_")})
    return sorted({a[3:] for a, b, _ in ISO_PAIRS} | {b[3:] for a, b, _ in ISO_PAIRS})


def _bases_needed(workload: str) -> list:
    if workload in ("certify", "build"):
        return sorted(BASES)
    if workload == "dense":
        return [n[4:] for n in DENSE_MODULES if n.startswith("ext_")]
    return []


def write_inputs(workload: str, seed: int, work: str) -> None:
    """Write every document the workload's jobs read, under `work`."""
    from taftlab.cli import main

    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    specs = os.path.join(work, "specs")
    modules = os.path.join(work, "modules")
    os.makedirs(modules, exist_ok=True)

    def taft(*argv):
        rc, _, err = call(main, argv)
        if rc != 0:
            raise RuntimeError("set-up step %s failed: %s" % (argv, err.strip()))

    taft("fixtures", "--out-dir", specs, "--out", os.path.join(work, "fixtures.json"))
    for name in _ss_needed(workload):
        taft("construct", "ss", "--in", os.path.join(specs, name + ".json"),
             "--out", os.path.join(modules, "ss_" + name + ".json"))
    for base in _bases_needed(workload):
        taft("construct", "nilext", "--in", os.path.join(specs, base + ".json"),
             "--out", os.path.join(modules, "ext_" + base + ".json"))
    if workload == "dense":
        os.makedirs(os.path.join(work, "dense"), exist_ok=True)
        names = list(DENSE_MODULES) + [n for n, _ in DENSE_CODIM
                                       if n not in DENSE_MODULES]
        for name in names:
            doc = _load(_module_path(work, name))
            with open(os.path.join(work, "dense", name + ".json"), "w") as fh:
                fh.write(dense.dumps(dense.dense_copy(doc, seed, name)))
    if workload == "build":
        os.makedirs(os.path.join(work, "algebras"), exist_ok=True)
        os.makedirs(os.path.join(work, "out"), exist_ok=True)
        for base in sorted(BASES):
            doc = _load(_module_path(work, "ext_" + base))
            alg = {"format": doc["format"]}
            alg.update(doc["algebra"])
            with open(os.path.join(work, "algebras", "ext_" + base + ".json"),
                      "w") as fh:
                fh.write(dense.dumps(alg))


def use_checkout_sources() -> None:
    """Import taftlab from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "taftlab", "cli.py")):
        raise SystemExit("perfbench: no taftlab sources under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import taftlab
    where = os.path.dirname(os.path.abspath(taftlab.__file__))
    if where != os.path.join(SRC, "taftlab"):
        raise SystemExit("perfbench: taftlab imported from %s, not %s"
                         % (where, SRC))


def _main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    with speed.SpeedProbe() as probe:
        started = time.perf_counter()
        use_checkout_sources()
        write_inputs(args.workload, args.seed, args.dir)
        ended = time.perf_counter()
    wall = ended - started - probe.spent
    print(json.dumps({"wall_s": wall,
                      "calibrated_s": probe.calibrate(started, ended, wall)}))


if __name__ == "__main__":
    _main()
