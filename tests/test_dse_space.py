"""The lazy design space: index-decoded views equal the materialized grid.

``DesignSpace.from_axes`` never builds its candidates: ``candidates[i]`` and
``coords[i]`` are decoded from ``i`` in ``itertools.product`` order.  These
properties pin that decoding to the eager construction it replaced (one
``dict`` per product tuple, coords its items sorted by axis name), and the
successive-halving subsampler's partial selection to the full sort it
replaced.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.dse import DesignSpace, FidelityRung
from repro.dse.explorer import _smallest_draws

LADDER = (FidelityRung("full", len),)

#: Small random axes: distinct names, each with 1-4 (possibly repeated)
#: values of mixed types, in random insertion order.
AXES = st.dictionaries(
    st.text(alphabet="abcdefgh", min_size=1, max_size=3),
    st.lists(st.one_of(st.integers(-5, 5), st.booleans(),
                       st.sampled_from(["x", "y"])), min_size=1, max_size=4),
    min_size=1, max_size=4)


def _materialized(axes):
    names = list(axes)
    candidates, coords = [], []
    for values in itertools.product(*(axes[name] for name in names)):
        assignment = dict(zip(names, values))
        candidates.append(assignment)
        coords.append(tuple(sorted(assignment.items())))
    return candidates, coords


@settings(max_examples=150, deadline=None)
@given(axes=AXES)
def test_views_equal_the_product_materialization(axes):
    space = DesignSpace.from_axes(axes, LADDER)
    candidates, coords = _materialized(axes)
    assert len(space.candidates) == len(space.coords) == len(candidates)
    assert space.size() == len(candidates)
    for i in range(len(candidates)):
        assert space.candidates[i] == candidates[i]
        assert list(space.candidates[i]) == list(axes)   # axis order kept
        assert space.coords[i] == coords[i]
        assert space.candidates[i - len(candidates)] == candidates[i]
        assert space.coords[i - len(candidates)] == coords[i]
    assert list(space.candidates) == candidates
    assert list(space.coords) == coords
    for bad in (len(candidates), -len(candidates) - 1):
        with pytest.raises(IndexError):
            space.candidates[bad]
        with pytest.raises(IndexError):
            space.coords[bad]


def test_fig14_sized_space_is_not_materialized():
    axes = {f"a{i}": tuple(range(6)) for i in range(8)}       # 6**8 points
    space = DesignSpace.from_axes(axes, LADDER)
    assert space.size() == 6 ** 8
    last = space.candidates[-1]
    assert last == {name: 5 for name in axes}
    assert space.coords[12345] == tuple(sorted(
        space.candidates[12345].items()))


@settings(max_examples=200, deadline=None)
@given(draws=st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.9]) |
                      st.floats(0, 1, exclude_max=True), max_size=40))
def test_partial_selection_equals_sort_then_slice(draws):
    for afford in range(len(draws) + 2):
        expected = sorted(sorted(range(len(draws)),
                                 key=lambda k: (draws[k], k))[:afford])
        assert _smallest_draws(draws, afford) == expected
