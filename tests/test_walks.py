"""The digraph walks, path diagrams, and the insertion bijection."""

import pytest

from opstats.opart import OrderedPartition, _form, format_partition, iter_blocks, parse
from opstats.qnum import ordered_partition_count
from opstats.stats import coord_rows
from opstats.walks import (
    EAST,
    NORTH,
    NULL,
    SOUTH_EAST,
    PathDiagram,
    choice_bound,
    enumerate_diagrams,
    enumerate_paths,
    parse_steps,
    path_vertices,
    psi,
    psi_inverse,
    step_predictions,
    vertex_count,
    vertex_order,
)

# the ten-step worked example
STEPS = parse_steps("NNNOOESSES")
XI = (1, 2, 1, 2, 1, 1, 1, 2, 4, 1)
PARTITION = "6/3,5,7/1,4,10/9/2,8"


def test_vertex_order():
    assert vertex_order(2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert vertex_count(2) == 6
    assert vertex_count(4) == 15
    for k in range(5):
        vs = vertex_order(k)
        assert vs[0] == (0, 0) and vs[-1] == (k, 0)
        assert len(vs) == vertex_count(k)


def test_paths_are_exactly_forms():
    # the forms of OP_n^k are exactly the walks (0,0) -> (k,0) of length n
    for n in range(0, 7):
        for k in range(0, n + 1):
            forms = set()
            for blocks in iter_blocks(n, k):
                forms.add(_form(blocks, n))
            paths = {tuple(path_vertices(s)) for s in enumerate_paths(n, k)}
            assert forms == paths, (n, k)


def test_omega_2_2_matches_distinct_forms():
    forms = {_form(blocks, 2) for blocks in iter_blocks(2, 2)}
    assert len(list(enumerate_paths(2, 2))) == len(forms) == 1


def test_worked_example_path_is_valid():
    PathDiagram(STEPS, (1,) * len(STEPS)).validate(5)
    assert path_vertices(STEPS) == [
        (0, 0), (0, 1), (0, 2), (0, 3), (0, 3), (0, 3),
        (1, 3), (2, 2), (3, 1), (4, 1), (5, 0),
    ]
    with pytest.raises(ValueError):
        PathDiagram(STEPS, (1,) * len(STEPS)).validate(6)  # wrong depth
    with pytest.raises(ValueError):
        PathDiagram(("S",), (1,)).validate(1)  # south-east needs an opened block


def test_psi_worked_example():
    d = PathDiagram(STEPS, XI)
    assert format_partition(psi(d)) == PARTITION


def test_psi_all_east():
    n = 5
    steps = (EAST,) * n
    assert format_partition(psi(PathDiagram(steps, tuple(range(1, n + 1))))) == "1/2/3/4/5"
    assert format_partition(psi(PathDiagram(steps, (1,) * n))) == "5/4/3/2/1"


def test_psi_inverse_worked_example():
    d = psi_inverse(parse(PARTITION))
    assert d.steps == STEPS
    assert d.xi == XI


def test_psi_inverse_identity_partition():
    d = psi_inverse(parse("1/2/3/4"))
    assert d.steps == (EAST,) * 4
    assert d.xi == (1, 2, 3, 4)


def test_psi_inverse_walks_end_at_the_block_count():
    # validate() takes the depth from where the walk ends, so check that
    # psi_inverse(pi) ends at (k, 0) for pi's own block count k
    for n in range(1, 7):
        for k in range(1, n + 1):
            for blocks in iter_blocks(n, k):
                d = psi_inverse(OrderedPartition._unchecked(blocks))
                assert path_vertices(d.steps)[-1] == (k, 0), blocks
                d.validate(k)


def test_round_trip_both_ways():
    for n in range(1, 6):
        for k in range(1, n + 1):
            count = 0
            for blocks in iter_blocks(n, k):
                pi = OrderedPartition._unchecked(blocks)
                assert psi(psi_inverse(pi)) == pi
            for d in enumerate_diagrams(n, k):
                assert psi_inverse(psi(d)) == d
                count += 1
            assert count == ordered_partition_count(n, k)


def test_step_properties_worked_example():
    d = PathDiagram(STEPS, XI)
    rows = coord_rows(parse(PARTITION))
    preds = step_predictions(d)
    assert d.vertices[8] == (3, 1)  # step 9: East at (3,1)
    lcs_rcs, lsb_rsb, los, ros = preds[8]
    assert lcs_rcs == 3 and lsb_rsb == 1
    assert los == 3 and ros == 1
    assert rows["lcs"][8] + rows["rcs"][8] == 3
    assert rows["los"][8] == 3 and rows["ros"][8] == 1
    # first step: everything 0 with xi_1 = 1
    assert d.vertices[0] == (0, 0)
    assert preds[0][:3] == (0, 0, 0)
    # a Null step at height 1 forces lsb = rsb = 0
    d2 = psi_inverse(parse("1,2,3"))
    assert d2.steps == (NORTH, NULL, SOUTH_EAST)
    _, _, lsb, rsb = step_predictions(d2)[1]
    assert lsb == 0 and rsb == 0


def test_step_predictions_match_statistics():
    for n in range(1, 6):
        for k in range(1, n + 1):
            for blocks in iter_blocks(n, k):
                pi = OrderedPartition._unchecked(blocks)
                rows = coord_rows(pi)
                d = psi_inverse(pi)
                for x, (kind, pred) in enumerate(zip(d.steps, step_predictions(d))):
                    lcs_rcs, lsb_rsb, first, second = pred
                    assert lcs_rcs == rows["lcs"][x] + rows["rcs"][x]
                    assert lsb_rsb == rows["lsb"][x] + rows["rsb"][x]
                    if kind in (NORTH, EAST):
                        assert (first, second) == (rows["los"][x], rows["ros"][x])
                    else:
                        assert (first, second) == (rows["lsb"][x], rows["rsb"][x])


def test_step_predictions_are_the_per_step_properties():
    # each tuple is read off its step alone: the start vertex (p,q) and xi
    d = PathDiagram(STEPS, XI)
    preds = step_predictions(d)
    assert len(preds) == d.length
    for (p, q), kind, x, pred in zip(d.vertices, d.steps, d.xi, preds):
        if kind in (NORTH, EAST):
            assert pred == (p, q, x - 1, p + q + 1 - x)
        else:
            assert pred == (p, q - 1, x - 1, q - x)
    assert step_predictions(PathDiagram((), ())) == []


def test_choice_weighted_path_counts():
    for n in range(1, 7):
        for k in range(0, n + 1):
            total = 0
            for steps in enumerate_paths(n, k):
                vs = path_vertices(steps)
                w = 1
                for i, kind in enumerate(steps):
                    w *= choice_bound(vs[i], kind)
                total += w
            assert total == ordered_partition_count(n, k)


def test_validation_rejects_bad_step_letters():
    for k in (None, 1):
        with pytest.raises(ValueError, match="not a walk"):
            PathDiagram(("N", "X"), (1, 1)).validate(k)


def test_diagram_validation():
    with pytest.raises(ValueError):
        PathDiagram((NORTH,), (1, 2))
    with pytest.raises(ValueError, match="outside"):
        PathDiagram((EAST, EAST), (1, 3)).validate()  # only 2 gaps at (1,0)
    with pytest.raises(ValueError, match="not a walk"):
        PathDiagram((SOUTH_EAST,), (1,)).validate(1)
    with pytest.raises(ValueError, match="bad step"):
        parse_steps("NXE")


#: (steps, xi, k, the exact ValueError text of ``validate``).  A walk error
#: is reported before a choice error, and an unknown letter before both.
VALIDATION_ERRORS = [
    ("NX", (1, 1), None, "not a walk: NX"),
    ("NX", (1, 1), 1, "not a walk: NX"),
    ("XS", (0, 9), None, "not a walk: XS"),
    ("S", (1,), None, "not a walk to (1,0): S"),
    ("O", (1,), None, "not a walk to (0,0): O"),
    ("EO", (1, 1), 1, "not a walk to (1,0): EO"),
    ("NNS", (1, 1, 1), None, "not a walk to (1,0): NNS"),
    ("NNNOOESSES", (1,) * 10, 6, "not a walk to (6,0): NNNOOESSES"),
    ("NNNOOESSES", (1,) * 10, 4, "not a walk to (4,0): NNNOOESSES"),
    ("EE", (1, 3), None, "choice xi_2=3 outside 1..2 for E at (1, 0)"),
    ("E", (0,), 1, "choice xi_1=0 outside 1..1 for E at (0, 0)"),
    ("NOS", (1, 2, 1), None, "choice xi_2=2 outside 1..1 for O at (0, 1)"),
    ("NOES", (1, 1, 4, 2), 2, "choice xi_3=4 outside 1..2 for E at (0, 1)"),
    ("ESS", (1, 5, 1), None, "not a walk to (3,0): ESS"),
    ("NNSS", (1, 9, 1, 1), 1, "not a walk to (1,0): NNSS"),
]


@pytest.mark.parametrize("steps, xi, k, message", VALIDATION_ERRORS,
                         ids=[f"{row[0]}-{row[2]}" for row in VALIDATION_ERRORS])
def test_validation_messages(steps, xi, k, message):
    with pytest.raises(ValueError) as exc:
        PathDiagram(tuple(steps), xi).validate(k)
    assert str(exc.value) == message
