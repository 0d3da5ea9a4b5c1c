"""Torus topology extension."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import config_for
from repro.harness.runner import run_config
from repro.noc.mesh import Mesh, Torus, make_topology
from repro.workloads.microbench import LockMicrobench


class TestTopologyFactory:
    def test_mesh(self):
        assert isinstance(make_topology("mesh", 4), Mesh)
        assert not isinstance(make_topology("mesh", 4), Torus)

    def test_torus(self):
        assert isinstance(make_topology("torus", 4), Torus)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_topology("hypercube", 4)

    def test_config_validates_topology(self):
        with pytest.raises(ValueError, match="topology"):
            config_for("CB-One", num_cores=16, topology="ring")


class TestTorusDistance:
    def test_wraparound_shortens_corners(self):
        mesh, torus = Mesh(8), Torus(8)
        assert mesh.hops(0, 63) == 14
        assert torus.hops(0, 63) == 2  # one wrap in each dimension

    def test_interior_distances_match_mesh(self):
        mesh, torus = Mesh(8), Torus(8)
        # Neighbours are neighbours either way.
        assert torus.hops(0, 1) == mesh.hops(0, 1) == 1

    def test_max_distance_is_side(self):
        torus = Torus(8)
        worst = max(torus.hops(0, d) for d in range(64))
        assert worst == 8  # 4 + 4

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_route_length_matches_hops(self, src, dst):
        torus = Torus(8)
        route = torus.route(src, dst)
        assert len(route) == torus.hops(src, dst) + 1
        assert route[0] == src and route[-1] == dst

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_route_steps_are_torus_neighbors(self, src, dst):
        torus = Torus(8)
        route = torus.route(src, dst)
        for a, b in zip(route, route[1:]):
            assert torus.hops(a, b) == 1

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 63), st.integers(0, 63))
    def test_never_longer_than_mesh(self, src, dst):
        assert Torus(8).hops(src, dst) <= Mesh(8).hops(src, dst)

    def test_average_distance_shorter(self):
        assert Torus(8).average_distance() < Mesh(8).average_distance()


class TestTorusEndToEnd:
    def test_torus_machine_runs_and_cuts_traffic_hops(self):
        mesh_run = run_config("CB-One", LockMicrobench("ttas", iterations=3),
                              num_cores=16)
        torus_run = run_config("CB-One", LockMicrobench("ttas", iterations=3),
                               num_cores=16, topology="torus")
        # Shorter routes: fewer flit-hops per message on average (message
        # counts differ slightly because timing perturbs the schedule).
        torus_avg = torus_run.stats.flit_hops / torus_run.stats.messages
        mesh_avg = mesh_run.stats.flit_hops / mesh_run.stats.messages
        assert torus_avg < mesh_avg
        assert torus_run.stats.flit_hops < mesh_run.stats.flit_hops

    def test_protocol_comparison_robust_to_topology(self):
        """The callback-vs-backoff ordering is not a mesh artifact."""
        runs = {}
        for label in ("BackOff-0", "CB-One"):
            runs[label] = run_config(label,
                                     LockMicrobench("clh", iterations=4),
                                     num_cores=16, topology="torus")
        assert runs["CB-One"].llc_sync < runs["BackOff-0"].llc_sync
        assert runs["CB-One"].traffic < runs["BackOff-0"].traffic
