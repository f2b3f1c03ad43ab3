import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import enchilada
from enchilada import INF, CorrClass, ValidationError, make_algebra, run_random_checks
from enchilada import epi_finite_rank_test, mono_finite_rank_test
from enchilada import identity_corr, quirks, schubert_image, zero_corr
from enchilada.cli import RANK_BUDGET, _dumps, main
from enchilada.jsonio import corr_from_json, corr_to_json

X_JSON = {"source": {"blocks": [1]}, "target": {"blocks": [1, 1]}, "matrix": [[1, 0]]}
Y_JSON = {"source": {"blocks": [1, 1]}, "target": {"blocks": [1]}, "matrix": [[0], [1]]}
BAD_X = {"source": {"blocks": [1]}, "target": {"blocks": [1, 1]}, "matrix": [[1, 1]]}

EXACT_SEQ = {
    "algebras": [
        {"blocks": []},
        {"blocks": [1]},
        {"blocks": [1, 1]},
        {"blocks": [1]},
        {"blocks": []},
    ],
    "correspondences": [
        {"source": {"blocks": []}, "target": {"blocks": [1]}, "matrix": []},
        X_JSON,
        Y_JSON,
        {"source": {"blocks": [1]}, "target": {"blocks": []}, "matrix": [[]]},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json-only")
    return code, json.loads(out)


def test_compose_verb(capsys):
    code, report = run_json(
        capsys, "compose", "--input", json.dumps({"x": X_JSON, "y": Y_JSON})
    )
    assert code == 0
    assert report["result"]["matrix"] == [[0]]


def test_compose_mismatch_exits_2(capsys):
    code, report = run_json(
        capsys, "compose", "--input", json.dumps({"x": X_JSON, "y": X_JSON})
    )
    assert code == 2
    assert "error" in report


def test_malformed_json_exits_2(capsys):
    code, report = run_json(capsys, "compose", "--input", '{"x": nope')
    assert code == 2
    assert "error" in report


@pytest.mark.parametrize("constant", ["Infinity", "NaN", "1e400"])
def test_non_json_constants_exit_2(capsys, constant):
    x = '{"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[%s]]}' % constant
    code, report = run_json(capsys, "kernel", "--input", x)
    assert code == 2
    assert "error" in report


def _one_by_one(entry: str) -> str:
    # Written out by hand: json.dumps cannot print ints of over 4300 digits.
    return '{"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[%s]]}' % entry


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kernel", "--input", "[" * 100_000], "nests too deeply"),
        (["kernel", "--input", _one_by_one("1" + "0" * 5000)], "in the input has more than"),
        (
            ["compose", "--input", '{"x": %s, "y": %s}' % ((_one_by_one("1" + "0" * 3000),) * 2)],
            "cannot be printed",
        ),
    ],
    ids=["deep-nesting", "long-integer-input", "long-integer-result"],
)
def test_oversized_input_and_result_exit_2(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert message in json.loads(captured.out)["error"]
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_missing_input_exits_2(capsys):
    code, report = run_json(capsys, "compose")
    assert code == 2


def test_kernel_image_verbs(capsys):
    code, report = run_json(capsys, "kernel", "--input", json.dumps(Y_JSON))
    assert code == 0
    assert report["result"]["matrix"] == [[1, 0]]
    assert report["ideal"]["members"] == [1]

    code, report = run_json(capsys, "image", "--input", json.dumps(X_JSON))
    assert code == 0
    assert report["result"]["matrix"] == [[1, 0]]

    code, report = run_json(capsys, "cokernel", "--input", json.dumps(X_JSON))
    assert code == 0
    assert report["result"]["matrix"] == [[0], [1]]

    code, report = run_json(capsys, "coimage", "--input", json.dumps(Y_JSON))
    assert code == 0
    assert report["result"]["matrix"] == [[0], [1]]


def test_check_exact_file_exit_0(tmp_path, capsys):
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(EXACT_SEQ))
    code, report = run_json(capsys, "check-exact", "--input", str(path))
    assert code == 0
    assert report["short"] is True
    assert [c["name"] for c in report["report"]["conditions"]] == [
        "phi_X injective",
        "B_X = ker phi_Y",
        "Y full",
    ]


def test_non_utf8_input_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    code = main(["kernel", "--input", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == f"{path} is not UTF-8 text"
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_missing_input_file_names_the_path(tmp_path, capsys):
    path = tmp_path / "nofile.json"
    for verb in ("compose", "check-exact", "kernel", "random-check"):
        code = main([verb, "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2, verb
        assert json.loads(captured.out)["error"] == f"no such file: {path}"
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_check_exact_pair_and_padded_sequence_agree(capsys):
    for x in (X_JSON, BAD_X):
        seq = json.loads(json.dumps(EXACT_SEQ))
        seq["correspondences"][1] = x
        pair = run(capsys, "check-exact", "--input", json.dumps({"x": x, "y": Y_JSON}))
        assert pair == run(capsys, "check-exact", "--input", json.dumps(seq))
        assert '"short": true' in pair[1] and '"conditions"' in pair[1]


def test_check_exact_violation_named(capsys):
    code, report = run_json(
        capsys, "check-exact", "--input", json.dumps({"x": BAD_X, "y": Y_JSON})
    )
    assert code == 1
    assert "B_X = ker phi_Y" in report["violated"]


def test_check_exact_general_chain(capsys):
    seq = {
        "algebras": [{"blocks": [1]}, {"blocks": [1, 1]}, {"blocks": [1]}],
        "correspondences": [X_JSON, Y_JSON],
    }
    code, report = run_json(capsys, "check-exact", "--input", json.dumps(seq))
    assert code == 0
    assert report["short"] is False
    assert len(report["report"]["nodes"]) == 1


def test_oracle_tensor(capsys):
    pair = {
        "x": {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[2]]},
        "y": {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[3]]},
    }
    code, report = run_json(capsys, "oracle-tensor", "--input", json.dumps(pair))
    assert code == 0
    assert report["match"] is True
    assert report["numeric"]["matrix"] == [[6]]
    assert report["fiber_dims"] == [6]


def _class_json(source, target, matrix):
    return {"source": {"blocks": source}, "target": {"blocks": target}, "matrix": matrix}


@pytest.mark.parametrize(
    "x, y",
    [
        (_class_json([1], [3], [[1]]), _class_json([3], [1], [[2]])),
        (_class_json([1], [3], [[1]]), _class_json([3], [1], [[3]])),
        (_class_json([2], [3], [[1]]), _class_json([3], [2], [[1]])),
    ],
    ids=["M3-2-copies", "M3-3-copies", "M2-M3-M2"],
)
def test_oracle_tensor_prints_gram_norm_to_twelve_digits(capsys, x, y):
    # The top Gram eigenvalue is 3 (the trace of the unit of the middle block
    # M_3); the symmetric and Hermitian solvers give 3.0, 3.0000000000000004
    # or 3.000000000000001 here, and the report prints 3.0 for each.
    code, out = run(capsys, "oracle-tensor", "--input", json.dumps({"x": x, "y": y}), "--json-only")
    assert code == 0
    assert '\n  "gram_norm": 3.0,\n' in out
    assert enchilada.cli.GRAM_NORM_DIGITS == 12


def test_oracle_tensor_rejects_inf(capsys):
    pair = {
        "x": {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [["inf"]]},
        "y": {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[1]]},
    }
    code, report = run_json(capsys, "oracle-tensor", "--input", json.dumps(pair))
    assert code == 2


def test_oracle_tensor_rejects_oversized_fiber(capsys):
    pair = {
        "x": {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[1000000000]]},
        "y": {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[1]]},
    }
    code, report = run_json(capsys, "oracle-tensor", "--input", json.dumps(pair))
    assert code == 2
    assert "exceeds" in report["error"]


def test_classify_predicates(capsys):
    code, report = run_json(capsys, "classify-predicates", "--input", json.dumps(X_JSON))
    assert code == 0
    preds = report["predicates"]
    assert preds["is_hilbert_bimodule"] is True
    assert preds["is_split_mono"] is True
    assert preds["is_split_epi"] is False
    assert report["rank_tests"]["mono_finite_rank_test"]["value"] is True
    assert "caveat" in report["rank_tests"]["mono_finite_rank_test"]


def test_classify_predicates_diagonal_embedding(capsys):
    code, report = run_json(capsys, "classify-predicates", "--input", json.dumps(BAD_X))
    assert code == 0
    preds = report["predicates"]
    assert preds["is_hilbert_bimodule"] is False
    assert preds["is_split_mono"] is True
    assert preds["is_split_epi"] is False
    assert preds["is_invertible"] is False


def test_classify_predicates_inf_skips_rank_tests(capsys):
    corr = {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [["inf"]]}
    code, report = run_json(capsys, "classify-predicates", "--input", json.dumps(corr))
    assert code == 0
    assert report["rank_tests"]["mono_finite_rank_test"]["value"] is None
    assert "caveat" in report["rank_tests"]["epi_finite_rank_test"]


def _square(n, entry):
    # An n x n class between algebras of n unit blocks with entry at (0, 0).
    algebra = {"blocks": [1] * n}
    matrix = [[0] * n for _ in range(n)]
    matrix[0][0] = entry
    return {"source": algebra, "target": algebra, "matrix": matrix}


def test_classify_predicates_skips_rank_tests_over_the_budget(capsys):
    # 64 x 64 with 400-digit entries runs for minutes through elimination.
    big = {"source": {"blocks": [1] * 64}, "target": {"blocks": [1] * 64}}
    big["matrix"] = [[10**399 + 7 * i + j for j in range(64)] for i in range(64)]
    started = time.perf_counter()
    code, report = run_json(capsys, "classify-predicates", "--input", json.dumps(big))
    assert time.perf_counter() - started < 1.0
    assert code == 0 and report["predicates"]["is_full"] is True
    for test in report["rank_tests"].values():
        assert test["value"] is None and "rank budget" in test["note"]
    # At the budget the probes run; an entry one bit longer skips them.
    n = round(RANK_BUDGET ** (1 / 3))
    while n**3 > RANK_BUDGET:
        n -= 1
    code, report = run_json(capsys, "classify-predicates", "--input", json.dumps(_square(n, 1)))
    assert code == 0
    assert [test["value"] for test in report["rank_tests"].values()] == [False, False]
    assert not any("note" in test for test in report["rank_tests"].values())
    code, report = run_json(capsys, "classify-predicates", "--input", json.dumps(_square(n, 2)))
    assert all(test["value"] is None for test in report["rank_tests"].values())


def test_classify_predicates_ranks_each_finite_class_once(capsys, monkeypatch):
    # Both rank probes read one rank of the matrix: one elimination per finite
    # request, none for an INF class or one over the budget.  The values are
    # the library probes'.
    calls, rank = [], enchilada.corr._rational_rank

    def counted(rows):
        calls.append(rows)
        return rank(rows)

    monkeypatch.setattr(enchilada.corr, "_rational_rank", counted)
    inf = {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [["inf"]]}
    over = _square(round(RANK_BUDGET ** (1 / 3)) + 1, 1)
    for request, ranks in ((X_JSON, 1), (BAD_X, 1), (_square(3, 2), 1), (inf, 0), (over, 0)):
        calls.clear()
        code, report = run_json(capsys, "classify-predicates", "--input", json.dumps(request))
        assert code == 0 and len(calls) == ranks
        values = [test["value"] for test in report["rank_tests"].values()]
        if ranks:
            x = corr_from_json(request)
            calls.clear()
            assert values == [mono_finite_rank_test(x), epi_finite_rank_test(x)]
            assert len(calls) == 2
        else:
            assert values == [None, None]


def test_gallery_verb(capsys):
    code, report = run_json(capsys, "gallery", "--input", "sur_not_epi")
    assert code == 0
    assert report["passed"] is True
    code, report = run_json(capsys, "gallery", "--input", "no_such_entry")
    assert code == 2


def test_gallery_rejects_non_string_name(capsys):
    code, report = run_json(capsys, "gallery", "--input", json.dumps({"name": []}))
    assert code == 2
    assert "unknown gallery entry" in report["error"]


def _infinite_image(x):
    # The Schubert image with each nonzero entry made INF, which no finite
    # class equals: x does not factor through it and has no mediator.
    img = schubert_image(x)
    rows = tuple(tuple(INF if v else 0 for v in row) for row in img.matrix)
    return CorrClass(img.source, img.target, rows)


@pytest.mark.parametrize(
    "entry, name, fake, failed",
    [
        ("mono_necessity", "kernel", lambda x: identity_corr(x.source), ["every class with"]),
        ("kernel_is_split_mono", "is_split_mono", lambda z: False, ["kernel inclusion is"]),
        ("kernel_is_split_mono", "kernel", lambda x: identity_corr(x.source), ["kernel composed"]),
        ("kernel_is_split_mono", "dual", lambda k: zero_corr(k.target, k.source), ["the dual"]),
        ("hb_image", "schubert_image", _infinite_image, ["every Hilbert", "each factorization"]),
    ],
)
def test_gallery_reports_a_planted_fault(monkeypatch, entry, name, fake, failed):
    # Each fault breaks one claim, and the transcript names the steps it fails.
    monkeypatch.setattr(quirks, name, fake)
    transcript = enchilada.gallery(entry)
    assert not transcript.passed
    labels = [step.label for step in transcript.steps if not step.passed]
    assert len(labels) == len(failed)
    assert all(label.startswith(prefix) for label, prefix in zip(labels, failed))


def test_gallery_verb_exits_1_on_a_failed_step(monkeypatch, capsys):
    monkeypatch.setattr(quirks, "is_split_mono", lambda z: False)
    code, out = run(capsys, "gallery", "--input", "kernel_is_split_mono")
    assert code == 1
    assert "kernel_is_split_mono: FAIL" in out
    assert "  [FAILED] kernel inclusion is a split mono (60 random classes)" in out


def test_random_check_rejects_counts_that_are_not_an_object(capsys):
    code, report = run_json(capsys, "random-check", "--input", "[1]")
    assert code == 2
    assert report["error"] == "random-check input must be an object of suite counts"


def test_random_check_deterministic(capsys):
    counts = json.dumps(
        {"laws": 15, "universal": 5, "schubert": 5, "oracle": 5, "zero_tensor": 5}
    )
    code1, rep1 = run_json(capsys, "random-check", "--input", counts, "--seed", "7")
    code2, rep2 = run_json(capsys, "random-check", "--input", counts, "--seed", "7")
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["ok"] is True
    assert {s["name"] for s in rep1["suites"]} >= {"compose laws", "tensor oracle"}


def test_random_check_rejects_bad_counts(capsys):
    code, report = run_json(capsys, "random-check", "--input", json.dumps({"bogus": 3}))
    assert code == 2


def test_random_check_rejects_boolean_count(capsys):
    code, report = run_json(capsys, "random-check", "--input", json.dumps({"laws": True}))
    assert code == 2
    assert "laws must be a positive integer" in report["error"]


def test_random_check_rejects_bad_seed(capsys):
    # numpy's SeedSequence raises ValueError on a negative seed.
    code, report = run_json(capsys, "random-check", "--seed", "-1")
    assert code == 2
    assert "seed must be a non-negative integer" in report["error"]
    for seed in (True, 1.0, "3"):
        with pytest.raises(ValidationError, match="seed"):
            run_random_checks(seed)


def test_human_summary_plus_json(capsys):
    code = main(["kernel", "--input", json.dumps(Y_JSON)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("kernel:")
    payload = out[out.index("{") :]
    assert json.loads(payload)["verb"] == "kernel"


@pytest.mark.parametrize("option", ["--max-blocks", "--max-dim", "--max-entry"])
def test_random_check_bounds_are_capped(capsys, option):
    # numpy draws nothing beyond int64; such a bound used to end in a traceback.
    code = main(["random-check", option, str(10**30)])
    captured = capsys.readouterr()
    assert code == 2
    assert "must be at most 64" in json.loads(captured.out)["error"]
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("count", [10_001, 10**30, 2**63])
def test_random_check_counts_are_capped(capsys, count):
    # A valid count is that many cases; 10**9 of them used to mean days of work.
    code = main(["random-check", "--input", json.dumps({"oracle": count})])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["error"] == "oracle must be at most 10000"
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("blocks, code", [(256, 0), (257, 2)])
def test_algebra_block_count_is_capped(capsys, blocks, code):
    x = {"source": {"blocks": [1]}, "target": {"blocks": [1] * blocks}, "matrix": [[1] * blocks]}
    assert main(["kernel", "--input", json.dumps(x), "--json-only"]) == code
    report = json.loads(capsys.readouterr().out)
    if code:
        assert report["error"] == "algebras have at most 256 blocks, got 257"
    else:
        assert report["verb"] == "kernel"


def test_calls_in_one_process_print_what_fresh_processes_print(capsys):
    # main parses every call with one argparse parser, so nothing one call
    # sets (--json-only, --seed) may reach the next.
    pair = json.dumps({
        "x": {"source": {"blocks": [1]}, "target": {"blocks": [1, 2]}, "matrix": [[1, 1]]},
        "y": {"source": {"blocks": [1, 2]}, "target": {"blocks": [1]}, "matrix": [[1], [1]]},
    })
    counts = json.dumps({"laws": 1, "universal": 1, "schubert": 1, "oracle": 1, "zero_tensor": 1})
    calls = [
        ["oracle-tensor", "--input", pair],
        ["oracle-tensor", "--input", pair, "--json-only"],
        ["kernel", "--input", json.dumps(Y_JSON)],
        ["random-check", "--seed", "-1", "--json-only"],
        ["random-check", "--input", counts],
        ["kernel", "--input", json.dumps(Y_JSON), "--seed", "x"],
        ["oracle-tensor", "--input", pair, "--tolerance", "0.99"],  # a retired option
    ]
    src = str(Path(enchilada.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "enchilada.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for argv in calls
    ]
    try:
        for argv, proc in zip(calls, procs):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refuses the option
                code = exc.code
            captured = capsys.readouterr()
            out, err = proc.communicate(timeout=120)
            assert (code, captured.out, captured.err) == (proc.returncode, out, err), argv
        assert code == 2 and "unrecognized arguments: --tolerance 0.99" in err
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


# Report-shaped values: what corr_to_json, the ideal, predicate, exactness,
# oracle and gallery reports hold, and the cases where the writer's fast
# paths end.  A string may hold a row boundary with a raw newline.
REPORT_SHAPED = [
    {},
    [],
    {"verb": "kernel", "result": {"source": {"blocks": []}, "target": {"blocks": [1]}, "matrix": []}},
    {"matrix": [[], []], "ideal": {"members": []}},
    {"matrix": [[1, "inf", 0], [2**70, 3, "inf"]]},
    {"matrix": [[1], [2, 3]], "ragged": [[1, 2], []]},
    {"tuple": (1, (2, "inf")), "rows": ((1,), (2,))},
    {"mixed": [1, [2], {"a": None}, "s", True, 2.5, [[3]]]},
    {"gram_norm": 0.1 + 0.2, "tiny": 5e-324, "match": False, "value": None, "entry": "inf"},
    {"error": "matrice non carrée: 3 ≠ 2 — ∞ \U0001F600"},
    {"label": "a],\n  [b", "matrix": [["],\n    [", 1], [2]], "steps": ["x\ny"]},
    {"nodes": [{"node": 1, "image": [], "kernel": [1, 2], "exact": True}], "violated": ["node 1"]},
    {"predicates": {}, "deep": [[[1, 2]], [[3]]], 1: "a key json converts"},
]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text() | st.just("inf"),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30,
)


def test_report_writer_matches_json_dumps():
    for value in REPORT_SHAPED:
        assert _dumps(value) == json.dumps(value, indent=2)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_report_writer_matches_json_dumps_on_any_json_value(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_report_writer_refuses_unprintable_integers():
    big = 10 ** sys.get_int_max_str_digits()  # one digit more than str() writes
    x = CorrClass(make_algebra([1, 2]), make_algebra([1]), [[INF], [big]])
    for report in (
        {"n": 10**5000}, {"row": [1, 10**5000]}, {"matrix": [[1], [10**5000]]}, {"result": x}
    ):
        with pytest.raises(ValidationError, match="cannot be printed"):
            _dumps(report)


def test_error_report_is_written_like_every_report(capsys):
    code = main(["compose", "--input", '{"x": nope'])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"


def test_pair_input_needs_x_and_y(capsys):
    for obj in ({"x": X_JSON}, {"y": Y_JSON}, [X_JSON, Y_JSON]):
        code, report = run_json(capsys, "compose", "--input", json.dumps(obj))
        assert code == 2
        assert report["error"] == 'expected an object with "x" and "y" correspondences'


def test_random_checks_reject_unknown_bounds():
    with pytest.raises(ValidationError, match=r"unknown bounds: \['max_depth'\]"):
        run_random_checks(0, bounds={"max_depth": 2})


# A class in a report is written as json.dumps(indent=2) writes its
# corr_to_json form: drawn with INF, ints past 2**53 (beyond a float's exact
# range), zero-block sources (no rows) and zero-block targets (empty rows).
@st.composite
def classes(draw):
    source, target = (draw(st.lists(st.integers(1, 3), max_size=4)) for _ in range(2))
    entry = st.sampled_from([0, 1, 3, INF]) | st.integers(2**53, 2**80)
    row = st.lists(entry, min_size=len(target), max_size=len(target))
    matrix = draw(st.lists(row, min_size=len(source), max_size=len(source)))
    return CorrClass(make_algebra(source), make_algebra(target), matrix)


def _wire(value):
    if type(value) is CorrClass:
        return corr_to_json(value)
    if isinstance(value, dict):
        return {key: _wire(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_wire(item) for item in value]
    return value


@settings(max_examples=200, deadline=None)
@given(classes(), st.lists(classes(), max_size=3))
def test_report_writer_writes_classes_as_their_wire_form(x, others):
    for report in (
        {"verb": "compose", "result": x},
        {"verb": "kernel", "result": x, "ideal": {"members": []}, "witness": "ker phi"},
        {"input": x, "entries": [{"symbolic": y, "numeric": y, "match": True} for y in others]},
        {"classes": [x, *others], "mixed": [x, 1, "inf", [[2**60]]]},
    ):
        assert _dumps(report) == json.dumps(_wire(report), indent=2)


# Stdout pinned byte for byte for each verb that prints a class, as
# {name: {argv, code, stdout}}.  The requests cover INF, ints past 2**53,
# empty ideals and zero-block algebras (matrices with no rows or empty rows).
CLI_GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text())


@pytest.mark.parametrize("name", CLI_GOLDEN)
def test_printed_classes_match_the_golden_stdout(capsys, name):
    entry = CLI_GOLDEN[name]
    assert (main(entry["argv"]), capsys.readouterr().out) == (entry["code"], entry["stdout"])
