"""A small reference for checking the benchmark's outputs.

It shares no code with `enchilada`.  A matrix is a list of rows of Python
ints, with None for the infinite multiplicity; column counts are passed
explicitly so that matrices with no rows keep their shape.  Everything here
is support bookkeeping or the plain semiring product, written for clarity,
not speed.
"""

from __future__ import annotations

INF = None


def entry(token):
    """A matrix entry from its wire token: an int, or "inf"."""
    return INF if token == "inf" else token


def token(value):
    """The wire token of a matrix entry."""
    return "inf" if value is INF else value


def add(a, b):
    return INF if a is INF or b is INF else a + b


def mul(a, b):
    # INF * 0 = 0: an infinite multiplicity meeting a zero entry vanishes.
    if a == 0 or b == 0:
        return 0
    if a is INF or b is INF:
        return INF
    return a * b


def matmul(x, y, cols):
    """The cardinal-semiring product of x (r x s) and y (s x cols)."""
    out = []
    for row in x:
        acc = [0] * cols
        for t, v in enumerate(row):
            if v == 0:
                continue
            for j, w in enumerate(y[t]):
                acc[j] = add(acc[j], mul(v, w))
        out.append(acc)
    return out


def nonzero_cols(x, cols):
    """The right support: indices of the columns with a nonzero entry."""
    return [j for j in range(cols) if any(row[j] != 0 for row in x)]


def zero_rows(x):
    """The kernel of the left action: indices of the all-zero rows."""
    return [i for i, row in enumerate(x) if all(v == 0 for v in row)]


def owns_unit_column(x, i):
    """Row i has a column equal to the unit vector e_i."""
    return any(
        v == 1 and all(other[j] == 0 for k, other in enumerate(x) if k != i)
        for j, v in enumerate(x[i])
    )


def owns_unit_row(x, j):
    """Column j has a row equal to the unit vector e_j."""
    return any(
        row[j] == 1 and all(v == 0 for k, v in enumerate(row) if k != j) for row in x
    )


def has_left_inverse(x):
    """Some M gives X * M = 1: every row of X owns a column equal to e_i."""
    return all(owns_unit_column(x, i) for i in range(len(x)))


def has_right_inverse(x, cols):
    """Some M gives M * X = 1: every column of X owns a row equal to e_j."""
    return all(owns_unit_row(x, j) for j in range(cols))


def is_partial_permutation(x, cols):
    """0/1 entries with at most one 1 in each row and each column."""
    if any(v not in (0, 1) for row in x for v in row):
        return False
    return all(sum(row) <= 1 for row in x) and all(
        sum(row[j] for row in x) <= 1 for j in range(cols)
    )


def rank(x, cols):
    """Exact rank over Q of a finite integer matrix (fraction-free Bareiss)."""
    m = [list(row) for row in x]
    r, prev = 0, 1
    for c in range(cols):
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        for i in range(r + 1, len(m)):
            for k in range(c + 1, cols):
                m[i][k] = (m[i][k] * m[r][c] - m[i][c] * m[r][k]) // prev
            m[i][c] = 0
        prev = m[r][c]
        r += 1
    return r


def corr_json(source, target, x):
    """The wire form of a class: endpoint blocks and the tokenized matrix."""
    return {
        "source": {"blocks": list(source)},
        "target": {"blocks": list(target)},
        "matrix": [[token(v) for v in row] for row in x],
    }


def inclusion(parent, members):
    """The inclusion of the ideal on `members` (sorted) as a class into parent."""
    rows = [[1 if j == m else 0 for j in range(len(parent))] for m in members]
    return corr_json([parent[m] for m in members], parent, rows)


def quotient_map(parent, members):
    """The quotient map of parent by the ideal on `members`."""
    keep = [j for j in range(len(parent)) if j not in members]
    rows = [[1 if j == s else 0 for s in keep] for j in range(len(parent))]
    return corr_json(parent, [parent[j] for j in keep], rows)


def node_json(blocks, image, kernel):
    return {
        "algebra": {"blocks": list(blocks)},
        "image": [i + 1 for i in image],
        "kernel": [i + 1 for i in kernel],
        "exact": image == kernel,
    }


def exactness_json(algebras, matrices, short):
    """The check-exact report: node verdicts by supports, plus the three
    short-exactness conditions when the chain is 0 -> A -> B -> C -> 0."""
    if short:
        (a, b, c), (x, y) = algebras, matrices
        nodes = [
            node_json(a, [], zero_rows(x)),
            node_json(b, nonzero_cols(x, len(b)), zero_rows(y)),
            node_json(c, nonzero_cols(y, len(c)), list(range(len(c)))),
        ]
        conditions = [
            {"name": "phi_X injective", "holds": not zero_rows(x)},
            {"name": "B_X = ker phi_Y", "holds": nonzero_cols(x, len(b)) == zero_rows(y)},
            {"name": "Y full", "holds": len(nonzero_cols(y, len(c))) == len(c)},
        ]
    else:
        nodes = [
            node_json(
                algebras[k + 1],
                nonzero_cols(matrices[k], len(algebras[k + 1])),
                zero_rows(matrices[k + 1]),
            )
            for k in range(len(matrices) - 1)
        ]
        conditions = []
    exact = all(n["exact"] for n in nodes) and all(c["holds"] for c in conditions)
    report = {"exact": exact, "nodes": [{"node": k + 1, **n} for k, n in enumerate(nodes)]}
    if conditions:
        report["conditions"] = conditions
    out = {"verb": "check-exact", "short": short, "exact": exact, "report": report}
    if not exact:
        out["violated"] = [c["name"] for c in conditions if not c["holds"]] + [
            f"node {n['node']}" for n in report["nodes"] if not n["exact"]
        ]
    return out


def check_hand_cases():
    """Run the reference's own fixed cases; raise ValueError if any fails."""
    cases = [
        ("[[1,1]]*[[1],[0]] = [[1]]", matmul([[1, 1]], [[1], [0]], 1), [[1]]),
        ("INF*0 = 0", mul(INF, 0), 0),
        ("0*INF = 0", mul(0, INF), 0),
        ("INF+1 = INF", add(INF, 1), INF),
        ("INF*2 = INF", mul(INF, 2), INF),
        ("[[INF,0]]*[[0],[5]] = [[0]]", matmul([[INF, 0]], [[0], [5]], 1), [[0]]),
        ("left inverse of [[1,1]]", has_left_inverse([[1, 1]]), True),
        ("no right inverse of [[1,1]]", has_right_inverse([[1, 1]], 2), False),
        ("rank [[1,2],[2,4]] = 1", rank([[1, 2], [2, 4]], 2), 1),
        ("rank [[0,1],[1,0]] = 2", rank([[0, 1], [1, 0]], 2), 2),
    ]
    bad = [name for name, got, want in cases if got != want]
    if bad:
        raise ValueError(f"reference hand cases failed: {bad}")
