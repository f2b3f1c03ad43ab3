"""Batch front end: JSON in, JSON reports out, verdicts as exit codes.

Exit codes: 0 success / verdict true, 1 verdict false (report names the
failing condition or node), 2 malformed input or validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .checks import run_random_checks
from .concrete import InteriorTensor, classify, realize
from .corr import (
    CorrClass,
    cokernel,
    compose,
    finite_rank_tests,
    is_full,
    is_hilbert_bimodule,
    is_invertible,
    is_split_epi,
    is_split_mono,
    kernel,
    left_kernel,
    phi_injective,
    right_support,
    schubert_coimage,
    schubert_image,
)
from .errors import ValidationError
from .exactness import check_sequence, check_short_exact
from .jsonio import algebra_to_json, corr_from_json, ideal_to_json, sequence_from_json
from .quirks import GALLERY_NAMES, gallery

# oracle-tensor prints gram_norm to this many significant digits: the last
# bits of a top eigenvalue depend on the eigensolver (see DECISIONS.md).
GRAM_NORM_DIGITS = 12

RANK_TEST_CAVEAT = (
    "quantifies only over finite-entry test morphisms between "
    "finite-dimensional algebras; does not decide mono/epi status in the "
    "full category"
)

# The largest r * s * min(r, s) * (bit length of the largest entry) of an r x s
# class whose rank probes run: fraction-free elimination grows its minors with
# every pivot, and the one rank both probes read takes about 1 s for the
# slowest inputs at this size on a 2-vCPU x86-64 VM (DECISIONS.md).
RANK_BUDGET = 8_000_000


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="enchilada",
        description="Compute with correspondence classes between "
        "finite-dimensional C*-algebras.",
    )
    p.add_argument("verb", choices=VERBS)
    p.add_argument(
        "--input",
        help="path to a JSON file, inline JSON, or (for gallery) an entry name",
    )
    p.add_argument("--seed", type=int, default=0, help="seed for random-check")
    p.add_argument("--max-blocks", type=int)
    p.add_argument("--max-dim", type=int, help="largest block size")
    p.add_argument("--max-entry", type=int)
    p.add_argument(
        "--json-only", action="store_true", help="suppress the human-readable summary"
    )
    return p


def _finite_float(token: str) -> float:
    # Infinity and NaN (not in RFC 8259) and overflowing numbers such as 1e400
    # would reach card as float infinities; "inf" is the only non-integer token.
    value = float(token)
    if not math.isfinite(value):
        raise ValidationError(
            f'{token} is not a finite number; write an infinite multiplicity as "inf"'
        )
    return value


def _load_input(raw: str | None, verb: str):
    if raw is None:
        return None
    text = raw.strip()
    if not (text.startswith("{") or text.startswith("[")):
        path = Path(raw)
        if not path.exists():
            if verb == "gallery":
                return text  # an entry name
            raise ValidationError(f"no such file: {raw}")
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            raise ValidationError(f"{raw} is not UTF-8 text") from None
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except RecursionError:
        raise ValidationError("the input nests too deeply to parse") from None
    except (json.JSONDecodeError, ValidationError):
        raise
    except ValueError:  # int() refuses more than sys.get_int_max_str_digits() digits
        raise ValidationError(
            f"an integer in the input has more than {sys.get_int_max_str_digits()} digits"
        ) from None


_SCALARS = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _encoder(pad: str):
    """The C encoder's compact form with every separator a new line at `pad`."""
    return json.JSONEncoder(separators=(",\n" + pad, ": ")).encode


def _matrix(rows, pad: str) -> str:
    """Non-empty rows of scalars in one C encoder call.  An encoded string
    holds no raw newline, so only row boundaries match `],<newline><pad>[`."""
    inner = pad + "  "
    row_pad = inner + "  "
    body = _encoder(row_pad)(rows)[2:-2].replace(
        "],\n" + row_pad + "[", "\n" + inner + "],\n" + inner + "[\n" + row_pad
    )
    return f"[\n{inner}[\n{row_pad}{body}\n{inner}]\n{pad}]"


def _indented(value, pad: str) -> str:
    """What `json.dumps(value, indent=2)` writes, nested at `pad`, of `value`
    with each CorrClass as its `corr_to_json` form.  A list of scalars is one
    call to the C encoder, and so is a class's matrix."""
    inner = pad + "  "
    if type(value) is CorrClass:
        rows = value.matrix
        if rows and rows[0]:
            # Entries are ints and INF only, so each Infinity written is an INF.
            matrix = _matrix(rows, inner).replace("Infinity", '"inf"')
        else:
            matrix = _indented(rows, inner)
        return (
            f'{{\n{inner}"source": {_indented(algebra_to_json(value.source), inner)},\n'
            f'{inner}"target": {_indented(algebra_to_json(value.target), inner)},\n'
            f'{inner}"matrix": {matrix}\n{pad}}}'
        )
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(type(key) is str for key in value):  # json converts such keys
            return json.dumps(value, indent=2).replace("\n", "\n" + pad)
        return "{\n" + ",\n".join(
            f"{inner}{encode_basestring_ascii(key)}: {_indented(item, inner)}"
            for key, item in value.items()
        ) + "\n" + pad + "}"
    if not isinstance(value, (list, tuple)):
        return _encoder(pad)(value)
    if not value:
        return "[]"
    if _SCALARS.issuperset(map(type, value)):
        return "[\n" + inner + _encoder(inner)(value)[1:-1] + "\n" + pad + "]"
    return "[\n" + ",\n".join(inner + _indented(item, inner) for item in value) + "\n" + pad + "]"


def _dumps(report: dict) -> str:
    """The report as `_indented` writes it, at no indent."""
    try:
        return _indented(report, "")
    except ValueError:  # an int beyond sys.get_int_max_str_digits(), e.g. a product
        raise ValidationError(
            f"the result has an integer of more than {sys.get_int_max_str_digits()} "
            "digits, which cannot be printed"
        ) from None


def _need(obj, what: str):
    if obj is None:
        raise ValidationError(f"{what} requires --input")
    return obj


def _pair(obj) -> tuple:
    obj = _need(obj, "this verb")
    if not isinstance(obj, dict) or "x" not in obj or "y" not in obj:
        raise ValidationError('expected an object with "x" and "y" correspondences')
    return corr_from_json(obj["x"]), corr_from_json(obj["y"])


def _run_compose(verb, obj, args):
    x, y = _pair(obj)
    result = compose(x, y)
    report = {"verb": "compose", "result": result}
    return 0, report, lambda: [f"compose: {result!r}"]


_IDEAL_VERBS = {
    "kernel": (kernel, left_kernel, "ker phi"),
    "cokernel": (cokernel, right_support, "B_X"),
    "image": (schubert_image, right_support, "B_X"),
    "coimage": (schubert_coimage, left_kernel, "ker phi"),
}


def _run_ideal_verb(verb, obj, args):
    x = corr_from_json(_need(obj, verb))
    build, witness, label = _IDEAL_VERBS[verb]
    result = build(x)
    ideal = ideal_to_json(witness(x))
    report = {"verb": verb, "result": result, "ideal": ideal, "witness": label}
    return 0, report, lambda: [f"{verb}: {result!r}", f"  {label} blocks: {ideal['members']}"]


def _run_predicates(verb, obj, args):
    x = corr_from_json(_need(obj, verb))
    skip = None if x.all_finite else "skipped: infinite entries present"
    if skip is None:
        r, s = x.source.block_count, x.target.block_count
        bits = max((max(row) for row in x.matrix if row), default=0).bit_length()
        if r * s * min(r, s) * bits > RANK_BUDGET:
            skip = f"skipped: the class exceeds the rank budget of {RANK_BUDGET}"
    preds = {
        "is_zero": x.is_zero,
        "is_full": is_full(x),
        "phi_injective": phi_injective(x),
        "is_hilbert_bimodule": is_hilbert_bimodule(x),
        "is_split_mono": is_split_mono(x),
        "is_split_epi": is_split_epi(x),
        "is_invertible": is_invertible(x),
    }
    # One rank of the matrix gives both probes.
    values = (None, None) if skip else finite_rank_tests(x)
    rank_tests = {}
    for name, value in zip(("mono_finite_rank_test", "epi_finite_rank_test"), values):
        rank_tests[name] = {"caveat": RANK_TEST_CAVEAT, "value": value}
        if skip:
            rank_tests[name]["note"] = skip
    report = {
        "verb": "classify-predicates",
        "input": x,
        "predicates": preds,
        "rank_tests": rank_tests,
    }

    def lines():
        yield f"predicates for {x!r}:"
        yield from (f"  {k}: {v}" for k, v in preds.items())
        yield from (f"  {k}: {v['value']} (caveat applies)" for k, v in rank_tests.items())

    return 0, report, lines


def _run_check_exact(verb, obj, args):
    obj = _need(obj, verb)
    if isinstance(obj, dict) and "x" in obj and "y" in obj:
        report = check_short_exact(*_pair(obj))
    else:
        report = check_sequence(sequence_from_json(obj))
    verdict = report.exact
    out = {
        "verb": "check-exact",
        "short": report.short,
        "exact": verdict,
        "report": report.to_json(),
    }
    if not verdict:
        out["violated"] = report.failing()

    def lines():
        yield f"sequence is {'exact' if verdict else 'NOT exact'}"
        for cond in report.conditions:
            yield f"  condition {cond.name!r}: {'holds' if cond.holds else 'VIOLATED'}"
        for k, node in report.nodes:
            yield f"  node {k}: {'exact' if node.exact else 'NOT exact'}"
        if not verdict:
            yield f"  violated: {out['violated']}"

    return (0 if verdict else 1), out, lines


def _run_oracle_tensor(verb, obj, args):
    x, y = _pair(obj)
    if not (x.all_finite and y.all_finite):
        raise ValidationError("oracle-tensor requires finite multiplicities")
    symbolic = compose(x, y)
    tensor = InteriorTensor(realize(x), realize(y))
    numeric = classify(tensor.corr)
    match = numeric == symbolic
    report = {
        "verb": "oracle-tensor",
        "symbolic": symbolic,
        "numeric": numeric,
        "match": match,
        "gram_norm": float(f"{tensor.gram_norm:.{GRAM_NORM_DIGITS}g}"),
        "fiber_dims": list(tensor.corr.module.fiber_dims),
    }
    return (0 if match else 1), report, lambda: [
        f"symbolic composite: {symbolic!r}",
        f"numeric classification: {numeric!r}",
        f"match: {match}",
    ]


def _run_gallery(verb, obj, args):
    if obj is None:
        names = GALLERY_NAMES
    elif isinstance(obj, str):
        names = (obj,)
    elif isinstance(obj, dict) and "name" in obj:
        names = (obj["name"],)
    else:
        raise ValidationError("gallery takes an entry name or nothing")
    transcripts = [gallery(n) for n in names]
    ok = all(t.passed for t in transcripts)
    report = {
        "verb": "gallery",
        "passed": ok,
        "entries": [t.to_json() for t in transcripts],
    }

    def lines():
        for t in transcripts:
            yield f"{t.name}: {'PASS' if t.passed else 'FAIL'} ({t.title})"
            for step in t.steps:
                yield f"  [{'ok' if step.passed else 'FAILED'}] {step.label}"

    return (0 if ok else 1), report, lines


def _run_random_check(verb, obj, args):
    counts = None
    if obj is not None:
        if not isinstance(obj, dict):
            raise ValidationError("random-check input must be an object of suite counts")
        counts = obj
    given = {
        "max_blocks": args.max_blocks,
        "max_size": args.max_dim,
        "max_entry": args.max_entry,
    }
    bounds = {key: value for key, value in given.items() if value is not None}
    report = run_random_checks(args.seed, counts, bounds)
    out = {"verb": "random-check", **report.to_json()}

    def lines():
        yield f"random-check seed={report.seed}: {'PASS' if report.ok else 'FAIL'}"
        for suite in report.results:
            yield (
                f"  {suite.name}: {suite.cases} cases, "
                f"{'ok' if suite.ok else f'{len(suite.failures)} failures'}"
            )

    return (0 if report.ok else 1), out, lines


# Each handler takes (verb, obj, args) and returns (exit code, report, lines),
# where lines is a zero-argument callable that gives the summary lines; main
# calls it only when the summary is printed.
_HANDLERS = {
    "compose": _run_compose,
    **dict.fromkeys(_IDEAL_VERBS, _run_ideal_verb),
    "classify-predicates": _run_predicates,
    "check-exact": _run_check_exact,
    "oracle-tensor": _run_oracle_tensor,
    "gallery": _run_gallery,
    "random-check": _run_random_check,
}

VERBS = tuple(_HANDLERS)
_PARSER = build_parser()  # parse_args leaves it unchanged, so one serves every call


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        obj = _load_input(args.input, args.verb)
        code, report, lines = _HANDLERS[args.verb](args.verb, obj, args)
        text = _dumps(report)
    except (ValidationError, json.JSONDecodeError, OSError) as exc:
        report = {"error": str(exc)}
        if not args.json_only:
            print(f"error: {exc}", file=sys.stderr)
        print(_dumps(report))
        return 2
    if not args.json_only:
        for line in lines():
            print(line)
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
