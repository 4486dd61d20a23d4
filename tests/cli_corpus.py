"""Help and usage-error argvs of the CLI, and their outcome through
`dispatch` against parsing with the whole parser tree.

`dispatch` builds only the command path that argv names; on every argv
here it must exit, print and write to stderr exactly what parsing with
`_build_parser()` does. None of these argvs parses, so no command runs.

    PYTHONPATH=src python tests/cli_corpus.py

prints the number of argvs compared and exits 1 on the first mismatch.
"""

import contextlib
import io
import sys

from formalitykit import cli

# each leaf command path with a valid set of its options
LEAVES = {
    ("hh",): ["--algebra", "a.json", "--p", "1", "--q", "0"],
    ("scan",): ["--algebra", "a.json", "--qmax", "3"],
    ("tor",): ["--pres", "p.json", "--q", "2"],
    ("certify", "single"): ["--n", "2", "--k", "2"],
    ("certify", "pn-config"): ["--n", "2", "--k", "2", "--h", "2"],
    ("certify", "spherical"): ["--k", "5", "--hmin", "2", "--hmax", "5"],
    ("recheck",): ["--cert", "c.json"],
    ("normalize",): ["--graph", "g.json", "--nk", "4"],
    ("signs",): ["--graph", "g.json"],
    ("kunneth",): ["--poincare", "p.json", "--n", "3", "--same"],
    ("build-config",): ["--graph", "g.json", "--n", "2", "--k", "2", "--h", "2"],
    ("sweep", "pn"): ["--n", "1..4", "--k", "2,4", "--h", "2"],
    ("sweep", "spherical"): ["--k", "4..6"],
}

ROOT = [
    [], ["-h"], ["--help"], ["bogus"], ["--"], ["--", "hh"], ["-5", "hh"],
    ["--format", "json", "hh"], ["certify"], ["sweep"], ["certify", "bogus"],
    ["certify", "--", "single"], ["certify", "--format", "human", "single", "--n", "2"],
    ["hh", "--", "--algebra", "a.json", "--p", "1", "--q", "0"],
]


def _set_first_int(argv, value):
    """argv with its first integer value replaced, or None if it has none."""
    for i, word in enumerate(argv):
        if word.isdigit() and argv[i - 1].startswith("--"):
            return argv[:i] + [value] + argv[i + 1:]
    return None


def leaf_variants(path, options):
    """Usage errors of one leaf command: a missing required option, an
    unknown option, a bad choice, a non-integer, a value >= 2^63, both
    --same and --different, and --format csv outside sweep."""
    base = list(path) + options
    out = [
        list(path) + options[2:],
        base + ["--bogus"],
        base + ["--format", "xml"],
        _set_first_int(base, "x"),
        _set_first_int(base, str(2 ** 63)),
        [w for w in base if w != "--same"] + ["--same", "--different"],
    ]
    if path[0] != "sweep":
        out.append(base + ["--format", "csv"])
    return [argv for argv in out if argv is not None]


def corpus():
    out = [list(argv) for argv in ROOT]
    for path in sorted({path[:1] for path in LEAVES} | set(LEAVES)):
        out.append(list(path) + ["--help"])
    for path, options in LEAVES.items():
        out.extend(leaf_variants(path, options))
    return out


def whole_tree(argv):
    """(exit code, stdout, stderr) of parsing argv with _build_parser()."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit as exc:
            return 0 if exc.code in (0, None) else 2, out.getvalue(), err.getvalue()
    raise AssertionError(f"{argv} parses")


def through_dispatch(argv):
    """(exit code, stdout, stderr) of dispatch(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.dispatch(argv, stdout=out)
    return code, out.getvalue(), err.getvalue()


def main() -> int:
    argvs = corpus()
    for argv in argvs:
        want, got = whole_tree(argv), through_dispatch(argv)
        if got != want:
            print(f"{argv}: dispatch gives {got!r}, the whole tree {want!r}")
            return 1
    print(f"{len(argvs)} argvs: dispatch matches the whole parser tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
