"""Exact round trips of every literal encoding, past CPython's digit limit.

CPython refuses int<->str conversion beyond 4300 decimal digits by
default; hamca's encoders and decoders lift that limit only while they
run.  Entries here reach about 4320 digits.
"""

import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hamca.automaton import (ActionValue, StationarityViolation, Trajectory,
                             discrete_variation)
from hamca.gaussian import GaussianInt, GIMatrix, GIVector, exact_int_text
from hamca.multipartite import MultiWave

# built from small draws: uniform draws of 14k-bit integers exhaust
# Hypothesis's entropy budget
PAST_LIMIT = st.builds(lambda sign, hi, lo: sign * (hi * 10**4300 + lo),
                       st.sampled_from([1, -1]), st.integers(1, 2**64),
                       st.integers(0, 2**256))
PART = st.one_of(st.integers(-3, 3), st.integers(-2**64, 2**64), PAST_LIMIT)
SCALAR = st.builds(GaussianInt, PART, PART)


def scalars(draw, n):
    """n scalars; the first always has a real part past the limit."""
    return [GaussianInt(draw(PAST_LIMIT), draw(PART))] + \
        [draw(SCALAR) for _ in range(n - 1)]


def int_text_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def test_the_limit_is_in_force_outside_the_codecs():
    if int_text_limit():
        with pytest.raises(ValueError):
            str(10**4300)


def test_reprs_and_messages_print_values_past_the_limit():
    limit = int_text_limit()
    big, digits, odd = 10**5000, "1" + "0" * 5000, "1" + "0" * 4999 + "1"
    assert repr(GaussianInt(big, 3)) == f"GaussianInt({digits}, 3)"
    assert digits in repr(StationarityViolation(1, 0, "psi_re", 1, GaussianInt(big)))
    assert digits in repr(ActionValue(GaussianInt(big)))
    with pytest.raises(ValueError) as info:
        GaussianInt(big + 1).divide_exact(2)
    assert str(info.value) == f"GaussianInt({odd}, 0) is not divisible by 2"
    with pytest.raises(ValueError) as info:
        discrete_variation(lambda f: big + 1 if f > 0 else 0, 0, 1)
    assert str(info.value) == f"difference {odd} is not divisible by 2"
    assert int_text_limit() == limit


@pytest.mark.parametrize("obj, message", [
    ({"states": [[[10**5000, 0, 0]], [[1, 0]]]}, "states[0][0]: expected [re, im]"),
    ({"states": [[[[10**5000], 0]], [[1, 0]]]},
     "states[0][0][0]: expected a plain integer"),
], ids=["pair", "part"])
def test_parser_messages_name_a_bad_value_past_the_limit(obj, message):
    limit = int_text_limit()
    with pytest.raises(ValueError) as info:
        Trajectory.from_json_obj(obj)
    assert str(info.value).startswith(message + ", got ")
    assert "1" + "0" * 5000 in str(info.value)
    assert int_text_limit() == limit


@pytest.mark.parametrize("parse, arg, message", [
    (Trajectory.from_csv, "n,alpha,re\n0,0,1\n", "bad trajectory CSV header"),
    (Trajectory.from_csv, "n,alpha,re,im\n", "empty trajectory CSV"),
    (Trajectory.from_csv, "n,alpha,re,im\n0,0,1,0\n0,1,2,0\n1,0,3,0\n",
     "trajectory CSV is missing cell (1, 1)"),
    (Trajectory.from_json_obj, {"dim": 2, "states": [[[1, 0]], [[2, 0]]]},
     "trajectory JSON dim field disagrees with states"),
    (MultiWave.from_json_obj, [], "bad field JSON object"),
    (MultiWave.from_json_obj, {"dims": [1], "values": []},
     "field JSON is missing 'clock_box'"),
    (GIMatrix.from_pairs, [5], "matrix[0]: expected a row of [re, im] pairs"),
    (GIMatrix.identity(2).__matmul__, GIMatrix.identity(3), "dimension mismatch: 2 vs 3"),
], ids=["csv-header", "csv-no-rows", "csv-missing-cell", "json-dim", "field-not-object",
        "field-missing-key", "matrix-row", "matmul-dims"])
def test_strict_parsers_reject_with_their_message(parse, arg, message):
    # a duplicate, missing or inconsistent record is refused, never guessed
    with pytest.raises(ValueError) as info:
        parse(arg)
    assert str(info.value) == message


def test_constructor_messages_name_a_bad_value_past_the_limit():
    limit = int_text_limit()
    with pytest.raises(ValueError) as info:
        GIVector([[10**5000]])
    assert str(info.value).startswith("vector entry: expected GaussianInt or int")
    with pytest.raises(TypeError) as info:
        GaussianInt(10**5000, 0.5)
    assert "1" + "0" * 5000 in str(info.value)
    assert int_text_limit() == limit


def json_roundtrip(obj):
    with exact_int_text():
        return json.loads(json.dumps(obj))


@st.composite
def trajectories(draw):
    dim = draw(st.integers(1, 3))
    slices = draw(st.integers(2, 4))
    values = scalars(draw, dim * slices)
    return Trajectory(GIVector(values[n * dim:(n + 1) * dim]) for n in range(slices))


@settings(max_examples=15)
@given(traj=trajectories())
def test_trajectory_csv_and_json_roundtrip_exactly(traj):
    limit = int_text_limit()
    assert Trajectory.from_csv(traj.to_csv()) == traj
    assert Trajectory.from_json_obj(json_roundtrip(traj.to_json_obj())) == traj
    assert int_text_limit() == limit


@settings(max_examples=15)
@given(data=st.data(), dim=st.integers(1, 3))
def test_vector_and_matrix_pairs_roundtrip_exactly(data, dim):
    limit = int_text_limit()
    v = GIVector(scalars(data.draw, dim))
    entries = scalars(data.draw, dim * dim)
    m = GIMatrix([entries[i * dim:(i + 1) * dim] for i in range(dim)])
    assert GIVector.from_pairs(json_roundtrip(v.to_pairs())) == v
    assert GIMatrix.from_pairs(json_roundtrip(m.to_pairs())) == m
    assert int_text_limit() == limit


@settings(max_examples=15)
@given(data=st.data(), dims=st.lists(st.integers(1, 2), min_size=1, max_size=2),
       clocks=st.lists(st.integers(1, 3), min_size=2, max_size=2))
def test_multiwave_json_roundtrips_exactly(data, dims, clocks):
    limit = int_text_limit()
    shape = clocks[:len(dims)]
    size = 1
    for n in dims + shape:
        size *= n
    wave = MultiWave(dims, shape, scalars(data.draw, size))
    assert MultiWave.from_json_obj(json_roundtrip(wave.to_json_obj())) == wave
    assert int_text_limit() == limit
