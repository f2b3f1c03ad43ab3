"""The command line against the benchmark's reference, on shapes the benchmark never makes.

The `cli-wide` benchmark workload checks each report of its seven verbs
against `bench/reference.py` through `_expected_cli` in `bench/workloads.py`,
but its stream holds only classes of 16-32 blocks and chains of 2 or 3 maps.
Here hypothesis draws requests over algebras of no block or one block, rows
of INF, entries of 2^63 and check-exact chains of 2-5 maps, and each report
must give the reference's exit code and JSON, compared as `cli-wide`
compares them.  Both bench modules are loaded by path.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enchilada.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ref = _load("reference")  # workloads imports it by this name
workloads = _load("workloads")

blocks = st.lists(st.integers(1, 3), max_size=4)
entries = st.sampled_from([0, 0, 1, 2, 3, 2**63, "inf"])


@st.composite
def matrices(draw, r, s):
    """An r x s matrix with rows of INF and zero rows among its rows."""
    row = st.one_of(
        st.lists(entries, min_size=s, max_size=s), st.just(["inf"] * s), st.just([0] * s)
    )
    return draw(st.lists(row, min_size=r, max_size=r))


@st.composite
def chains(draw, maps):
    """Algebras A_0 .. A_maps and the wire classes A_k -> A_k+1 between them."""
    algebras = [draw(blocks) for _ in range(maps + 1)]
    return algebras, [
        ref.corr_json(a, b, draw(matrices(len(a), len(b)))) for a, b in zip(algebras, algebras[1:])
    ]


@st.composite
def requests(draw, verb):
    if verb == "compose":
        _, (x, y) = draw(chains(2))
        return {"x": x, "y": y}
    if verb != "check-exact":
        return draw(chains(1))[1][0]
    maps = draw(st.integers(2, 5))
    algebras, corrs = draw(chains(maps))
    if maps == 2 and draw(st.booleans()):
        return {"x": corrs[0], "y": corrs[1]}
    return {"algebras": [{"blocks": a} for a in algebras], "correspondences": corrs}


def _expected(verb, data):
    # A chain of four maps between five algebras, the first and last with no
    # block, is the short sequence 0 -> A -> B -> C -> 0, which the command
    # line reports as short; _expected_cli reads every chain as not short.
    corrs = data.get("correspondences", ())
    if len(corrs) == 4 and not corrs[0]["source"]["blocks"] and not corrs[3]["target"]["blocks"]:
        data = {"x": corrs[1], "y": corrs[2]}
    return workloads._expected_cli(verb, data)


@pytest.mark.parametrize("verb", workloads.CliWide.verbs)
def test_cli_matches_the_benchmark_reference(verb):
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(requests(verb))
    def check(data):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([verb, "--input", json.dumps(data), "--json-only"])
        got = json.loads(out.getvalue())
        want_code, want = _expected(verb, data)
        assert code == want_code, data
        if verb == "classify-predicates":
            # cli-wide compares the rank tests by value only, not their caveat.
            got["rank_tests"] = {name: test["value"] for name, test in got["rank_tests"].items()}
            got.pop("verb")
        assert got == want, data

    check()
