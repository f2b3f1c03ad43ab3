import dataclasses
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from enchilada import (
    GALLERY_NAMES,
    CorrClass,
    ExactnessReport,
    SequenceSpec,
    ValidationError,
    ZERO_ALGEBRA,
    check_sequence,
    check_short_exact,
    cokernel,
    enumerate_chains,
    exact_at,
    gallery,
    identity_corr,
    kernel,
    left_kernel,
    make_algebra,
    random_algebra,
    random_corr,
    right_support,
    schubert_image,
    suite_short_exact_theorem,
    zero_corr,
)
from enchilada import exactness

import numpy as np

C1 = make_algebra([1])
C2 = make_algebra([1, 1])


def test_exact_at_examples():
    x = CorrClass(C1, C2, ((1, 0),))
    y = CorrClass(C2, C1, ((0,), (1,)))
    node = exact_at(x, y)
    assert node.exact
    assert node.image_members == {0} == node.kernel_members

    nonzero = CorrClass(C2, C1, ((1,), (0,)))
    assert not exact_at(identity_corr(C2), nonzero).exact

    injective = CorrClass(C1, C1, ((1,),))
    assert exact_at(zero_corr(C1, C1), injective).exact

    with pytest.raises(ValidationError):
        exact_at(x, injective)


def test_exact_at_agrees_with_subobject_equality():
    # The definition compares the Schubert image of X and the kernel of Y as
    # subobjects of B; exact_at compares the two ideals' block sets instead.
    pairs = exact = 0
    for x, y in enumerate_chains(2):
        verdict = exact_at(x, y).exact
        assert (schubert_image(x) == kernel(y)) == verdict, (x, y)
        pairs += 1
        exact += verdict
    assert (pairs, exact) == (499, 125)


def test_exact_at_kernel_and_cokernel_nodes():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a, b = random_algebra(rng), random_algebra(rng)
        x = random_corr(rng, a, b, inf_prob=0.2)
        assert exact_at(kernel(x), x).exact
        assert exact_at(x, cokernel(x)).exact


def test_check_short_exact_positive():
    x = CorrClass(C1, C2, ((1, 0),))
    y = CorrClass(C2, C1, ((0,), (1,)))
    report = check_short_exact(x, y)
    assert report.exact
    assert [c.name for c in report.conditions] == [
        "phi_X injective",
        "B_X = ker phi_Y",
        "Y full",
    ]
    assert all(c.holds for c in report.conditions)


def test_check_short_exact_broken_middle():
    x = CorrClass(C1, C2, ((1, 1),))
    y = CorrClass(C2, C1, ((0,), (1,)))
    report = check_short_exact(x, y)
    assert not report.exact
    assert "B_X = ker phi_Y" in report.failing()
    assert {k for k, v in report.nodes if not v.exact} == {2}


def test_check_short_exact_multiplicity_allowed():
    x = CorrClass(C1, C2, ((1, 0),))
    y = CorrClass(C2, C1, ((0,), (2,)))
    assert check_short_exact(x, y).exact


def test_check_sequence():
    x = CorrClass(C1, C2, ((1, 0),))
    y = CorrClass(C2, C1, ((0,), (1,)))
    padded = SequenceSpec(
        (ZERO_ALGEBRA, C1, C2, C1, ZERO_ALGEBRA),
        (zero_corr(ZERO_ALGEBRA, C1), x, y, zero_corr(C1, ZERO_ALGEBRA)),
    )
    report = check_sequence(padded)
    assert report.exact
    assert len(report.nodes) == 3

    broken = SequenceSpec(
        (C1, C2, C1, C1),
        (
            CorrClass(C1, C2, ((1, 1),)),
            y,
            zero_corr(C1, C1),
        ),
    )
    rep = check_sequence(broken)
    assert not rep.exact
    bad_nodes = [k for k, v in rep.nodes if not v.exact]
    assert bad_nodes == [1]

    single = SequenceSpec((C1, C2), (x,))
    assert check_sequence(single).exact  # vacuous


def test_check_sequence_names_conditions_on_padded_chains():
    # check_short_exact is check_sequence on the zero-padded chain, and
    # check_sequence names the conditions whenever the chain has that shape.
    rng = np.random.default_rng(8)
    for _ in range(200):
        a, b, c = (random_algebra(rng, 2, 2) for _ in range(3))
        x = random_corr(rng, a, b, inf_prob=0.2)
        y = random_corr(rng, b, c, inf_prob=0.2)
        padded = SequenceSpec(
            (ZERO_ALGEBRA, a, b, c, ZERO_ALGEBRA),
            (zero_corr(ZERO_ALGEBRA, a), x, y, zero_corr(c, ZERO_ALGEBRA)),
        )
        report = check_sequence(padded)
        assert report.to_json() == check_short_exact(x, y).to_json()
        assert [cond.holds for cond in report.conditions] == [v.exact for _, v in report.nodes]
    unpadded = SequenceSpec((C1, C2, C1), (CorrClass(C1, C2, ((1, 0),)), zero_corr(C2, C1)))
    assert check_sequence(unpadded).conditions == ()


def test_short_exact_suite_catches_a_wrong_node_rule(monkeypatch):
    # With image <= kernel in place of equality the suite must disagree with
    # the subobject definition it checks against.
    def zero_composite_rule(x, y):
        return SimpleNamespace(exact=right_support(x).members <= left_kernel(y).members)

    monkeypatch.setattr(exactness, "exact_at", zero_composite_rule)
    result = suite_short_exact_theorem()
    assert result.cases == 499
    assert not result.ok


def test_sequence_spec_validation():
    with pytest.raises(ValidationError):
        SequenceSpec((C1, C2), ())
    with pytest.raises(ValidationError):
        SequenceSpec((C1, C2), (CorrClass(C1, C1, ((1,),)),))


def test_report_json_shape():
    x = CorrClass(C1, C2, ((1, 0),))
    y = CorrClass(C2, C1, ((0,), (1,)))
    data = check_short_exact(x, y).to_json()
    assert data["exact"] is True
    assert len(data["nodes"]) == 3
    assert data["nodes"][1]["image"] == [1]
    assert len(data["conditions"]) == 3


# Every transcript as printed, counts included (factorizations, quotient maps,
# checked classes), so a change to an enumeration shows up here.
GALLERY_GOLDEN = json.loads((Path(__file__).parent / "gallery_golden.json").read_text())


@pytest.mark.parametrize("name", GALLERY_NAMES)
def test_gallery_entries_pass(name):
    transcript = gallery(name)
    assert transcript.passed, [s.label for s in transcript.steps if not s.passed]
    assert transcript.steps
    assert transcript.to_json() == GALLERY_GOLDEN[name]


def test_gallery_unknown_name():
    with pytest.raises(ValidationError):
        gallery("unknown_entry")


def test_report_stores_only_node_verdicts():
    # The short-exact conditions are read off the node verdicts, not stored.
    assert [f.name for f in dataclasses.fields(ExactnessReport)] == ["nodes", "short"]
    report = check_short_exact(CorrClass(C1, C2, ((1, 1),)), CorrClass(C2, C1, ((0,), (1,))))
    assert report.short
    assert [(c.name, c.holds) for c in report.conditions] == [
        ("phi_X injective", True),
        ("B_X = ker phi_Y", False),
        ("Y full", True),
    ]
    assert report.failing() == ["B_X = ker phi_Y", "node 2"]
    unflagged = ExactnessReport(report.nodes, False)
    assert unflagged.conditions == ()
    assert "conditions" not in unflagged.to_json()
    assert unflagged.failing() == ["node 2"]
    assert not unflagged.exact and not report.exact


def test_empty_and_non_composable_sequences_are_refused():
    with pytest.raises(ValidationError, match="a sequence needs at least one algebra"):
        SequenceSpec((), ())
    with pytest.raises(ValidationError, match="short sequence needs composable correspondences"):
        check_short_exact(CorrClass(C1, C2, ((1, 0),)), CorrClass(C1, C1, ((1,),)))
