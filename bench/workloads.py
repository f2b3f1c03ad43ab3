"""The benchmark's workloads: seeded inputs, the timed case, its check.

Each workload holds a fixed list of cases made from the seed.  `run` is the
timed part: it calls into `enchilada` through the caller `t` (a spans.Tracer
or spans.Direct), so the traced run records one span per call.  `check` runs
untimed and compares the outputs with `reference`; it returns the
disagreements with the reference and the counts the case contributes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import operator
import random

from enchilada import (
    CorrClass,
    InteriorTensor,
    check_sequence,
    check_short_exact,
    classify,
    cokernel,
    compose,
    epi_finite_rank_test,
    is_full,
    is_hilbert_bimodule,
    is_invertible,
    is_split_epi,
    is_split_mono,
    kernel,
    left_kernel,
    make_algebra,
    mono_finite_rank_test,
    phi_injective,
    realize,
    right_support,
    schubert_coimage,
    schubert_image,
    validate,
)
from enchilada.cli import main as cli_main
from enchilada.concrete import GRAM_NULL_TOL
from enchilada.jsonio import corr_from_json, corr_to_json, ideal_to_json, sequence_from_json

import reference as ref


# Every case comes from this fixed stream; the seed then relabels the blocks
# of each algebra (see _relabel) and orders the passes.  A relabeled case is
# an isomorphic problem with different data, so every seed asks for the same
# work and memory, and run-to-run spread measures the machine, not the draw.
BASE_SEED = 190900506


def _relabel(rng, algebras, matrices):
    """Permute the blocks of each algebra of a chain A_0 -> A_1 -> ..., and
    the rows and columns of each matrix A_k -> A_k+1 to match."""
    perms = [rng.sample(range(len(a)), len(a)) for a in algebras]
    algebras = [tuple(a[i] for i in p) for a, p in zip(algebras, perms)]
    matrices = [
        tuple(tuple(m[i][j] for j in perms[k + 1]) for i in perms[k])
        for k, m in enumerate(matrices)
    ]
    return algebras, matrices


def _blocks(rng, lo, hi, size):
    return tuple(rng.randint(1, size) for _ in range(rng.randint(lo, hi)))


class OracleCrosscheck:
    """Random pairs K : A -> B and L : B -> C with at most 3 blocks of size at
    most 4 and entries at most 3, relabeled by the seed.  Each case realizes
    both, forms the
    Gram-quotient tensor, classifies it and validates both realized factors
    exhaustively; the classification must equal the reference product."""

    name = "oracle-crosscheck"
    size = 200

    def __init__(self, seed):
        rng, base = random.Random(seed), random.Random(BASE_SEED)
        self.cases = []
        for _ in range(self.size):
            a, b, c = (_blocks(base, 1, 3, 4) for _ in range(3))
            k = [[base.randint(0, 3) for _ in b] for _ in a]
            l = [[base.randint(0, 3) for _ in c] for _ in b]
            (a, b, c), (k, l) = _relabel(rng, [a, b, c], [k, l])
            self.cases.append(
                (a, b, c, make_algebra(a), make_algebra(b), make_algebra(c), k, l)
            )

    def run(self, t, case):
        _, _, _, a, b, c, k, l = case
        x = t.call("corr.CorrClass", CorrClass, a, b, k)
        y = t.call("corr.CorrClass", CorrClass, b, c, l)
        rx = t.call("concrete.realize", realize, x)
        ry = t.call("concrete.realize", realize, y)
        tensor = t.call("concrete.InteriorTensor", InteriorTensor, rx, ry)
        product = t.call("concrete.classify", classify, tensor.corr)
        vx = t.call("concrete.validate", validate, rx)
        vy = t.call("concrete.validate", validate, ry)
        return product, tensor, vx, vy

    def check(self, case, out):
        a, b, c, _, _, _, k, l = case
        product, tensor, vx, vy = out
        problems = []
        want = ref.corr_json(a, c, ref.matmul(k, l, len(c)))
        if corr_to_json(product) != want:
            problems.append(f"classify {list(a)}->{list(b)}->{list(c)} K={k} L={l}")
        if not (vx.ok and vy.ok):
            problems.append(f"validate failed on a realized factor K={k} L={l}")
        cut = GRAM_NULL_TOL * max(1.0, tensor.gram_norm)
        counts = {
            "concrete.validate.unit_pairs": sum(
                len(tgt) * sum(n * n for n in src) ** 2 for src, tgt in ((a, b), (b, c))
            ),
            "concrete.tensor.fiber_dim_out": sum(tensor.corr.module.fiber_dims),
            "concrete.tensor.gram_eigenvalues": sum(lam.size for _, lam in tensor.gram_blocks),
            "concrete.tensor.gram_kept": sum(
                int((lam > cut).sum()) for _, lam in tensor.gram_blocks
            ),
        }
        return problems, counts


def _entry(rng, inf_p):
    u = rng.random()
    if u < inf_p:
        return "inf"
    return 0 if u < inf_p + 0.3 else rng.randint(1, 3)


def _matrix(rng, r, s, zero_rows=(), zero_cols=(), inf_p=0.12):
    """A random r x s matrix over {0..3, INF} with the given rows and columns
    forced to zero and every other row and column made nonzero."""
    m = [
        [0 if i in zero_rows or j in zero_cols else _entry(rng, inf_p) for j in range(s)]
        for i in range(r)
    ]
    free_cols = [j for j in range(s) if j not in zero_cols]
    free_rows = [i for i in range(r) if i not in zero_rows]
    for i in free_rows:
        if free_cols and all(v == 0 for v in m[i]):
            m[i][rng.choice(free_cols)] = rng.randint(1, 3)
    for j in free_cols:
        if free_rows and all(m[i][j] == 0 for i in range(r)):
            m[rng.choice(free_rows)][j] = rng.randint(1, 3)
    return m


def _chain(rng, algebras):
    """Matrices for A_0 -> ... -> A_n, exact at every interior node by
    construction (support of each map = kernel of the next), faithful at the
    start and full at the end; then, half the time, one entry is bumped,
    which may break exactness."""
    supports = [()] + [
        tuple(j for j in range(len(alg)) if rng.random() < 0.5) for alg in algebras[1:-1]
    ] + [()]
    mats = []
    for k in range(len(algebras) - 1):
        r, s = len(algebras[k]), len(algebras[k + 1])
        cols_zero = (
            () if k + 1 == len(algebras) - 1
            else tuple(j for j in range(s) if j not in supports[k + 1])
        )
        mats.append(_matrix(rng, r, s, supports[k], cols_zero))
    if rng.random() < 0.5:
        m = rng.choice(mats)
        m[rng.randrange(len(m))][rng.randrange(len(m[0]))] = rng.randint(1, 3)
    return mats


class CliWide:
    """Requests to `enchilada.cli.main`, in-process with stdout captured, over
    classes of 16-32 blocks of size at most 3 with entries at most 3 and
    about 10% INF, relabeled by the seed.  Verbs: compose, kernel, cokernel, image, coimage,
    classify-predicates and check-exact, `per_verb` requests each.  One
    classify-predicates input per pass has only finite entries (the exact
    rank probes are slow on those)."""

    name = "cli-wide"
    per_verb = 40
    verbs = ("compose", "kernel", "cokernel", "image", "coimage",
             "classify-predicates", "check-exact")
    finite_predicates = 1

    def __init__(self, seed):
        rng, base = random.Random(seed), random.Random(BASE_SEED)
        self.cases = [
            self._request(rng, base, verb, n) for verb in self.verbs for n in range(self.per_verb)
        ]
        self.finite_share = self.finite_predicates / len(self.cases)
        self._checked = {}
        self._dumps = functools.partial(json.dumps, indent=2)

    def _request(self, rng, base, verb, n):
        a, b, c, d = (_blocks(base, 16, 32, 3) for _ in range(4))
        if verb == "compose":
            algebras = [a, b, c]
            mats = [_matrix(base, len(a), len(b)), _matrix(base, len(b), len(c))]
        elif verb == "check-exact":
            algebras = [a, b, c] if n % 2 == 0 else [a, b, c, d]
            mats = _chain(base, algebras)
        else:
            finite = verb == "classify-predicates" and n < self.finite_predicates
            algebras = [a, b]
            mats = [_matrix(base, len(a), len(b), inf_p=0.0 if finite else 0.12)]
        algebras, mats = _relabel(rng, algebras, mats)
        corrs = [ref.corr_json(algebras[k], algebras[k + 1], m) for k, m in enumerate(mats)]
        if len(corrs) == 1:
            data = corrs[0]
        elif len(corrs) == 2:
            data = {"x": corrs[0], "y": corrs[1]}
        else:
            data = {"algebras": [{"blocks": list(alg)} for alg in algebras], "correspondences": corrs}
        text = json.dumps(data)
        return verb, ["--input", text, "--json-only"], text

    def inf_share(self):
        """The share of INF among all matrix entries of the requests."""
        entries = [
            v
            for _, _, text in self.cases
            for wire in _corrs(json.loads(text))
            for row in wire["matrix"]
            for v in row
        ]
        return entries.count("inf") / len(entries)

    def run(self, t, case):
        verb, flags, _ = case
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = t.call("cli.main", cli_main, [verb, *flags])
        return code, buf.getvalue()

    def check(self, case, out):
        verb, _, text = case
        # An output identical to one already checked for the same request
        # gets the same verdict.  Only the text is kept: parsed JSON for every
        # request would enlarge the heap that the timed program's garbage
        # collections traverse.
        seen = self._checked.get(text)
        if seen is None or seen[0] != out:
            seen = self._checked[text] = out, self._verdict(verb, text, *out)
        return seen[1]

    def _verdict(self, verb, text, code, stdout):
        want_code, want = _expected_cli(verb, json.loads(text))
        try:
            got = json.loads(stdout)
        except json.JSONDecodeError:
            return [f"{verb}: output is not JSON"], {}
        problems = [] if code == want_code else [f"{verb}: exit code {code}, reference {want_code}"]
        if verb != "classify-predicates":
            if got != want:
                problems.append(f"{verb}: JSON differs from the reference")
            return problems, {}
        if got.get("input") != want["input"] or set(got.get("predicates", {})) != set(want["predicates"]):
            problems.append("classify-predicates: input or predicate names differ")
            return problems, {}
        for name, value in want["predicates"].items():
            if got["predicates"][name] != value:
                problems.append(f"classify-predicates: {name} got {got['predicates'][name]}, reference {value}")
        for name, value in want["rank_tests"].items():
            if got.get("rank_tests", {}).get(name, {}).get("value", "missing") != value:
                problems.append(f"classify-predicates: {name} differs")
        return problems, {}

    def replay(self, t, case):
        """The request as its separate layer calls, as `cli.main` makes them."""
        verb, _, text = case
        obj = t.call("json.loads", json.loads, text)
        if verb == "compose":
            x = t.call("jsonio.corr_from_json", corr_from_json, obj["x"])
            y = t.call("jsonio.corr_from_json", corr_from_json, obj["y"])
            result = t.call("corr.compose", compose, x, y)
            report = {"verb": verb, "result": t.call("jsonio.corr_to_json", corr_to_json, result)}
        elif verb in _IDEAL_VERBS:
            build, witness = _IDEAL_VERBS[verb]
            x = t.call("jsonio.corr_from_json", corr_from_json, obj)
            result = t.call(f"corr.{build.__name__}", build, x)
            ideal = t.call(f"corr.{witness.__name__}", witness, x)
            report = {
                "verb": verb,
                "result": t.call("jsonio.corr_to_json", corr_to_json, result),
                "ideal": t.call("jsonio.ideal_to_json", ideal_to_json, ideal),
            }
        elif verb == "classify-predicates":
            x = t.call("jsonio.corr_from_json", corr_from_json, obj)
            preds = {name: t.call(f"corr.{name}", fn, x) for name, fn in _PREDICATES}
            if t.call("corr.CorrClass.all_finite", _all_finite, x):
                for name, fn in _RANK_TESTS:
                    preds[name] = t.call(f"corr.{name}", fn, x)
            report = {"input": t.call("jsonio.corr_to_json", corr_to_json, x), "predicates": preds}
        else:
            if "x" in obj:
                x = t.call("jsonio.corr_from_json", corr_from_json, obj["x"])
                y = t.call("jsonio.corr_from_json", corr_from_json, obj["y"])
                result = t.call("exactness.check_short_exact", check_short_exact, x, y)
            else:
                seq = t.call("jsonio.sequence_from_json", sequence_from_json, obj)
                result = t.call("exactness.check_sequence", check_sequence, seq)
            report = {"report": t.call("exactness.ExactnessReport.to_json", result.to_json)}
        t.call("json.dumps", self._dumps, report)


def _corrs(data):
    """The classes in a request: a pair, a sequence, or a single class."""
    if "x" in data:
        return [data["x"], data["y"]]
    return data.get("correspondences", [data])


_IDEAL_VERBS = {
    "kernel": (kernel, left_kernel),
    "cokernel": (cokernel, right_support),
    "image": (schubert_image, right_support),
    "coimage": (schubert_coimage, left_kernel),
}
_all_finite = operator.attrgetter("all_finite")
_PREDICATES = (
    ("CorrClass.is_zero", operator.attrgetter("is_zero")),
    ("is_full", is_full),
    ("phi_injective", phi_injective),
    ("is_hilbert_bimodule", is_hilbert_bimodule),
    ("is_split_mono", is_split_mono),
    ("is_split_epi", is_split_epi),
    ("is_invertible", is_invertible),
)
_RANK_TESTS = (
    ("mono_finite_rank_test", mono_finite_rank_test),
    ("epi_finite_rank_test", epi_finite_rank_test),
)


def _expected_cli(verb, data):
    """Reference (exit code, JSON) for one request."""
    def parse(wire):
        return (
            wire["source"]["blocks"],
            wire["target"]["blocks"],
            [[ref.entry(v) for v in row] for row in wire["matrix"]],
        )

    if verb == "compose":
        a, b, x = parse(data["x"])
        _, c, y = parse(data["y"])
        return 0, {"verb": verb, "result": ref.corr_json(a, c, ref.matmul(x, y, len(c)))}
    if verb == "check-exact":
        if "x" in data:
            a, b, x = parse(data["x"])
            _, c, y = parse(data["y"])
            out = ref.exactness_json([a, b, c], [x, y], short=True)
        else:
            parsed = [parse(w) for w in data["correspondences"]]
            algebras = [p[0] for p in parsed] + [parsed[-1][1]]
            out = ref.exactness_json(algebras, [p[2] for p in parsed], short=False)
        return (0 if out["exact"] else 1), out
    a, b, x = parse(data)
    rows, cols = ref.zero_rows(x), ref.nonzero_cols(x, len(b))
    if verb in ("kernel", "coimage"):
        result = ref.inclusion(a, rows) if verb == "kernel" else ref.quotient_map(a, rows)
        return 0, {
            "verb": verb, "result": result,
            "ideal": {"members": [i + 1 for i in rows]}, "witness": "ker phi",
        }
    if verb in ("cokernel", "image"):
        result = ref.quotient_map(b, cols) if verb == "cokernel" else ref.inclusion(b, cols)
        return 0, {
            "verb": verb, "result": result,
            "ideal": {"members": [j + 1 for j in cols]}, "witness": "B_X",
        }
    full = len(cols) == len(b)
    pp = ref.is_partial_permutation(x, len(b))
    left, right = ref.has_left_inverse(x), ref.has_right_inverse(x, len(b))
    finite = all(v is not ref.INF for row in x for v in row)
    rk = ref.rank(x, len(b)) if finite else None
    want = {
        "input": ref.corr_json(a, b, x),
        "predicates": {
            "is_zero": all(v == 0 for row in x for v in row),
            "is_full": full,
            "phi_injective": not rows,
            "is_hilbert_bimodule": pp,
            "is_split_mono": left,
            "is_split_epi": right,
            "is_invertible": left and right,
        },
        "rank_tests": {
            "mono_finite_rank_test": None if rk is None else rk == len(a),
            "epi_finite_rank_test": None if rk is None else rk == len(b),
        },
    }
    return 0, want


WORKLOADS = {w.name: w for w in (OracleCrosscheck, CliWide)}
