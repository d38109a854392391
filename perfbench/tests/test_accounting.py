"""failed_frac accounting: every failure counts, none aborts the run."""

import numpy as np

from repro.tessellation.grid import grid_subdivision

from perfbench.harness import Accounting


def _grid():
    sub = grid_subdivision(2, 2)
    return sub, Accounting(sub.service_area)


def test_correct_answers_count_as_attempted_only():
    sub, acct = _grid()
    xs, ys = np.array([0.25, 0.75]), np.array([0.25, 0.75])
    expected = sub.compiled().locate_coords(xs, ys)
    acct.answers(expected, expected, xs, ys, sub)
    assert (acct.attempted, acct.failed, acct.failed_frac) == (2, 0, 0.0)
    assert acct.correct


def test_raised_client_counts_all_of_its_epochs():
    sub, acct = _grid()
    acct.answers([0, 1], sub.compiled().locate_coords([0.25, 0.75], [0.25, 0.25]),
                 [0.25, 0.75], [0.25, 0.25], sub)
    # A 30-epoch client raised at a corner of the service area.
    acct.raised_unit(30, [(1.0, 1.0)])
    assert acct.attempted == 32
    assert acct.failed == 30
    assert acct.failed_frac == 30 / 32
    assert acct.failed_frame == 30
    assert acct.correct  # the known closed-domain defect


def test_frame_includes_the_band_where_the_edge_defect_reaches():
    sub, acct = _grid()
    acct.raised_unit(5, [(1.0 - 2e-10, 0.9)])
    # The trian-tree raises this far from the edge on the UNIFORM maps.
    acct.raised_unit(5, [(0.3, 3e-7)])
    assert acct.failed_frame == 10 and acct.correct
    acct.raised_unit(5, [(1.0 - 1e-5, 0.9)])
    assert acct.failed_other == 5 and not acct.correct


def test_raise_off_the_frame_or_unexplained_is_incorrect():
    sub, acct = _grid()
    acct.raised_unit(8, [(0.3, 0.3)])
    assert acct.failed_other == 8 and not acct.correct
    sub, acct = _grid()
    acct.raised_unit(8, [])  # no replayed point raises: not explained
    assert acct.failed_other == 8 and not acct.correct


def test_wrong_answers_are_sorted_by_defect_class():
    sub, acct = _grid()
    xs = np.array([1.0, 0.5, 0.25])
    ys = np.array([0.25, 0.25, 0.25])
    expected = sub.compiled().locate_coords(xs, ys)
    right_of = sub.compiled().locate_coords([0.75], [0.25])[0]
    got = expected.copy()
    got[0] = right_of + 100  # on the frame: any wrong answer is a frame failure
    got[1] = right_of        # on the shared edge x=0.5, held on its boundary
    got[2] = right_of        # interior of the left cell: plainly wrong
    acct.answers(got, expected, xs, ys, sub)
    assert acct.failed == 3
    assert (acct.failed_frame, acct.failed_tiebreak, acct.failed_other) == (1, 1, 1)
    assert not acct.correct


def test_point_the_oracle_cannot_place_fails():
    sub, acct = _grid()
    acct.answers([0], [-1], [0.25], [0.25], sub)
    assert acct.failed == 1 and acct.failed_other == 1
