"""Fuzz gate for the command line: no request crashes it.

Every verb gets structure-aware mutations of a valid input (wrong types,
huge and negative numbers, `true` as an entry, deep nesting, ragged and
oversized matrices) and of its options.  Whatever comes in, `main` must
return or exit with 0, 1 or 2 and print no traceback.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enchilada import checks
from enchilada.cli import VERBS, main

X = {"source": {"blocks": [1]}, "target": {"blocks": [1, 2]}, "matrix": [[1, 1]]}
Y = {"source": {"blocks": [1, 2]}, "target": {"blocks": [1]}, "matrix": [[1], [1]]}
SEQ = {
    "algebras": [{"blocks": [1]}, {"blocks": [1, 2]}, {"blocks": [1]}],
    "correspondences": [X, Y],
}
COUNTS = {"laws": 1, "universal": 1, "schubert": 1, "oracle": 1, "zero_tensor": 1}
VALID = {
    "compose": {"x": X, "y": Y},
    "kernel": X,
    "cokernel": X,
    "image": Y,
    "coimage": Y,
    "classify-predicates": X,
    "check-exact": SEQ,
    "oracle-tensor": {"x": X, "y": Y},
    "gallery": {"name": "sur_not_epi"},
    "random-check": COUNTS,
}
assert set(VALID) == set(VERBS)
# Two more compose inputs, wide enough for compose's numpy path and holding
# INF.  The second also holds 2**63, beyond what that path multiplies exactly,
# so its valid requests take the Python fallback.
WIDE = {"blocks": [1, 2, 3] * 3}
WIDE_X = {
    "source": WIDE,
    "target": WIDE,
    "matrix": [["inf" if (i + j) % 7 == 0 else (i * j) % 4 for j in range(9)] for i in range(9)],
}
WIDE_HUGE = {**WIDE_X, "matrix": [[2**63, *WIDE_X["matrix"][0][1:]], *WIDE_X["matrix"][1:]]}
# Each case is a verb and the valid request its mutations start from.
CASES = {
    **{verb: (verb, VALID[verb]) for verb in VERBS},
    "compose-wide": ("compose", {"x": WIDE_X, "y": WIDE_X}),
    "compose-wide-huge": ("compose", {"x": WIDE_X, "y": WIDE_HUGE}),
}

HUGE = 10**30
SCALARS = [None, "x", "inf", "Inf", "", True, False, 0, 2, -1, -HUGE, HUGE, 2**63, 2.5, 1e300]
# Each option with values its type accepts, good and bad, and one it refuses.
OPTIONS = dict.fromkeys(
    ["--seed", "--max-blocks", "--max-dim", "--max-entry"],
    ["1", "2", "3", "0", "-1", str(HUGE), "x"],
)


def _nodes(obj, path=()):
    """Every (path, node) of a JSON tree, the root included."""
    yield path, obj
    if isinstance(obj, (dict, list)):
        for key, child in obj.items() if isinstance(obj, dict) else enumerate(obj):
            yield from _nodes(child, path + (key,))


def _replace(obj, path, new):
    if not path:
        return new
    copy = dict(obj) if isinstance(obj, dict) else list(obj)
    copy[path[0]] = _replace(obj[path[0]], path[1:], new)
    return copy


def _mutated(rng, obj, scalars):
    path, node = rng.choice(list(_nodes(obj)))
    kinds = ["scalar", "nest"]
    if isinstance(node, list) and node:
        kinds += ["drop", "repeat", "grow"]
    if isinstance(node, dict):
        kinds += ["drop-key", "add-key"]
    kind = rng.choice(kinds)
    if kind == "scalar":
        new = rng.choice(scalars)
    elif kind == "nest":  # deep, but within what json and the checks can follow
        new = node
        for _ in range(rng.randint(1, 60)):
            new = [new]
    elif kind == "drop":  # a ragged row, or a missing row or algebra
        i = rng.randrange(len(node))
        new = node[:i] + node[i + 1 :]
    elif kind == "repeat":
        new = node + node[-1:]
    elif kind == "grow":  # oversized: many more rows or entries than blocks
        new = node * rng.randint(2, 40)
    elif kind == "drop-key":
        gone = rng.choice(sorted(node))
        new = {k: v for k, v in node.items() if k != gone}
    else:
        new = {**node, rng.choice(["bogus", "x", "matrix"]): rng.choice(scalars)}
    return _replace(obj, path, new)


def _request(rng, verb, obj):
    """A mutated request for `verb` from the valid input `obj`.  About half
    the inputs stay valid and about half the requests carry options; the
    least random draws give the valid request, which hypothesis shrinks
    towards."""
    # A valid suite count asks for that many cases, so for random-check a
    # count from 3 up to the cap is a long run on purpose, not malformed
    # input; larger counts are refused.
    scalars = [
        v
        for v in SCALARS
        if verb != "random-check" or not (type(v) is int and 2 < v <= checks.MAX_CASES)
    ]
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
        obj = _mutated(rng, obj, scalars)
    text = json.dumps(obj)
    if rng.random() > 0.8:
        text = rng.choice([
            text[: len(text) // 2],                   # truncated
            "[" * 100_000,                            # nesting json cannot follow
            text.replace("1", "1" + "0" * 5000, 1),   # over the int-to-string limit
            text.replace("1", "NaN", 1),
            text.replace("1", "Infinity", 1),
        ])
    argv = [verb, "--input", text]
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
        option = rng.choice(sorted(OPTIONS))
        argv += [option, rng.choice(OPTIONS[option])]
    if rng.random() > 0.9:
        argv.append(rng.choice(["--bogus", "--seed", "--help"]))
    if rng.random() > 0.5:
        argv.append("--json-only")
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: --help or a bad option
            return exc.code, None, err.getvalue()
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES)
def test_cli_never_crashes(monkeypatch, case):
    verb, valid = CASES[case]
    # The default suite counts apply only where a mutation drops a count; they
    # are cut to keep each random-check request to a few cases.
    monkeypatch.setattr(checks, "DEFAULT_COUNTS", dict.fromkeys(COUNTS, 1))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.randoms(use_true_random=False))
    def check(rng):
        argv = _request(rng, verb, valid)
        code, out, err = _run(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, err
        if out is not None:  # the report follows the summary lines, if any
            report = json.loads(out[0 if out.startswith("{") else out.index("\n{") + 1 :])
            assert ("error" in report) == (code == 2), argv

    check()
