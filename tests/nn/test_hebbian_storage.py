"""The readout is stored connected-only (DESIGN.md §6).

A network's learned state is one ``(n_connected,)`` value vector, a
fleet's one ``(lanes, n_connected)`` slab; ``w_out`` is a dense *view*
whose setter gathers the connected entries and refuses anything else.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.nn.backends import backend_available
from repro.nn.hebbian import HebbianConfig, SparseHebbianNetwork
from repro.nn.hebbian_fleet import HebbianFleet

CONFIG = HebbianConfig(vocab_size=8, hidden_dim=40, connectivity_out=0.4,
                       seed=7)
#: Stored values, -0.0 and the clip bounds included.
weights = st.one_of(st.sampled_from([0.0, -0.0, 8.0, -8.0]),
                    st.floats(-8.0, 8.0))


@given(backend=st.sampled_from(["numpy", "int8"]),
       values=st.lists(weights, min_size=320, max_size=320))
def test_w_out_round_trips_connected_entries(backend: str,
                                             values: list[float]) -> None:
    net = SparseHebbianNetwork(dataclasses.replace(CONFIG, backend=backend))
    mask = net.mask_out
    # -0.0 at an unconnected entry is a zero: accepted, and dropped
    dense = np.where(mask, np.array(values).reshape(mask.shape), -0.0)
    net.w_out = dense
    got = net.w_out
    assert got is not net.w_out                      # a fresh array per read
    assert got[mask].tobytes() == dense[mask].tobytes()
    assert not got[~mask].any() and not np.signbit(got[~mask]).any()
    # class-major: column t's connected rows, ascending, are contiguous
    assert net.readout_values.tobytes() == dense.T[mask.T].tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e-300])
def test_setter_refuses_a_value_at_an_unconnected_entry(bad: float) -> None:
    net = SparseHebbianNetwork(CONFIG)
    net.train_pair(1, 2)
    before = net.readout_values.copy()
    dense = net.w_out
    dense[tuple(np.argwhere(~net.mask_out)[0])] = bad
    with pytest.raises(ValueError, match="unconnected"):
        net.w_out = dense
    assert np.array_equal(net.readout_values, before)
    with pytest.raises(ValueError, match="shape"):
        net.w_out = dense.T


def test_assigning_another_networks_w_out_shares_nothing() -> None:
    net = SparseHebbianNetwork(CONFIG)
    twin = net.fork()
    twin.train_pair(1, 2)
    net.w_out = twin.w_out
    assert np.array_equal(net.readout_values, twin.readout_values)
    assert not np.shares_memory(net.readout_values, twin.readout_values)
    with pytest.raises(ValueError):                  # the view is read-only
        net.readout_values[0] = 1.0


def _float_arrays_of_dense_shape(obj: object, shape: tuple[int, int]) -> list:
    return [name for name, value in vars(obj).items()
            if isinstance(value, np.ndarray) and value.dtype.kind == "f"
            and value.shape[-2:] == shape]


def test_learned_state_is_the_connected_entries_only() -> None:
    net = SparseHebbianNetwork(CONFIG)
    for c in [1, 2, 3, 1, 2, 3]:
        net.step(c)
    n_connected = int(net.mask_out.sum())
    assert net.readout_values.shape == (n_connected,)
    assert net.readout_values.nbytes == n_connected * 8
    dense_shape = net.mask_out.shape
    assert not _float_arrays_of_dense_shape(net, dense_shape)
    assert not _float_arrays_of_dense_shape(net.clone(), dense_shape)


@pytest.mark.skipif(not backend_available("c"),
                    reason="a HebbianFleet needs the C backend")
def test_a_fleet_stores_the_connected_entries_only() -> None:
    net = SparseHebbianNetwork(dataclasses.replace(CONFIG, backend="c"))
    for c in [1, 2, 3, 1, 2, 3]:
        net.step(c)
    n_connected = int(net.mask_out.sum())
    dense_shape = net.mask_out.shape
    fleet = HebbianFleet(net, n_lanes=2, reserve=True)
    slots = [fleet.acquire_lane(net.clone()) for _ in range(2)]
    assert fleet._w_vals.shape == (2, n_connected)
    slots.append(fleet.acquire_lane(net.clone()))    # grows
    assert fleet.n_lanes == 4
    assert fleet._w_vals.shape == (4, n_connected)
    assert not _float_arrays_of_dense_shape(fleet, dense_shape)
    assert fleet.w_out.shape == (4, *dense_shape)    # the oracle view
    for slot in slots:
        assert np.array_equal(fleet.lane_weights(slot), net.w_out)
        assert np.array_equal(fleet.lane_values(slot), net.readout_values)
