"""Queued events are labelled by what they are, not where the code sits.

``Engine.ckpt_state()`` lists every pending live event by the label its
scheduling site gave it, so a full-state capture pins the machine, not
its code layout:

* moving a scheduling closure into a helper leaves every full-state
  digest unchanged;
* every pending event of the sampled runs carries one of the named
  kinds below;
* labels are at least as fine as the callbacks' qualified names: no two
  pending events at one cycle share a label when their callbacks'
  ``__qualname__`` differ.
"""

import re
from collections import defaultdict

import pytest

import repro.core.machine as machine_module
from repro.ckpt import capture_state, state_fingerprint
from repro.noc.messages import MsgKind
from repro.orchestrate import JobSpec, build_machine
from repro.protocols.mesi import protocol as mesi
from repro.protocols.vips import protocol as vips

#: Every label a live general-heap event may carry, besides deliveries
#: (``msg.<kind>@<node>``); spin-heap phases are ``spin.<phase>``.
KINDS = {"core.start", "core.resume", "op.done",
         "mesi.spin_retry", "mesi.dir_release", "mesi.gets_fwd",
         "mesi.gets_fill", "mesi.getx_fwd", "mesi.getx_inv",
         "mesi.getx_grant", "vips.fill", "vips.write_ack",
         "vips.rmw_reply", "cb.read_reply", "spin.at_bank", "spin.reply",
         "spin.deliver", "spin.pause"}
DELIVERY = re.compile(r"msg\.(\w+)@\d+$")
MSG_KINDS = {kind.value for kind in MsgKind}


def _kind_of(label):
    match = DELIVERY.match(label)
    if match is not None:
        assert match.group(1) in MSG_KINDS, label
        return "msg"
    return label


# ------------------------------------------- closures moved into helpers


class MESIProtocol(mesi.MESIProtocol):
    """MESI with the GetS delivery handler and the spin-wake loop's
    scheduling closure built by helpers (the class keeps its name: this
    is the same protocol, refactored)."""

    def _get_s(self, core, line, on_fill, sync):
        self.stats.l1_misses += 1
        bank = line % self._num_banks
        self.network.send(self._tile_of[core], bank, MsgKind.GETS,
                          self._gets_at_dir(core, line, bank, on_fill, sync),
                          sync=sync)

    def _gets_at_dir(self, core, line, bank, on_fill, sync):
        return lambda: self._dir_request(line, lambda: self._dir_gets(
            core, line, bank, on_fill, sync))

    def _invalidate_l1(self, core, line):
        self.l1[core].remove(line)
        for watch in self._watches.get(core, {}).pop(line, None) or ():
            self._book_spin(watch)
            self._retry_later(watch)

    def _retry_later(self, watch):
        self.engine.schedule(1, self._retry_callback(watch),
                             "mesi.spin_retry")

    def _retry_callback(self, watch):
        return lambda: self._spin_attempt(watch.tid, watch.word_addr,
                                          watch.pred, watch.done)


class VIPSProtocol(vips.VIPSProtocol):
    """VIPS with the write-through acknowledgement built by a helper."""

    def _op_write_through(self, core, op, done):
        addr = op.addr
        bank = addr // self._line_bytes % self._num_banks
        word = addr - addr % self._word_bytes
        node = self._tile_of[core]
        self.network.send(node, bank, MsgKind.STORE_THROUGH,
                          self._write_at_bank(bank, word, node, op, done),
                          sync=True)

    def _write_at_bank(self, bank, word, node, op, done):
        def run():
            wait = self.bank_service(bank, data=True, sync=True)
            self.store.write(word, op.value)
            self._on_llc_write(bank, word, op.st)
            self.engine.schedule(wait, self._ack(bank, node, done),
                                 "vips.write_ack")
        return run

    def _ack(self, bank, node, done):
        return lambda: self.network.send(bank, node, MsgKind.ACK,
                                         lambda: done(None))


REFACTORED = {"Invalidation": MESIProtocol, "BackOff-10": VIPSProtocol}


def _boundary_digests(label, protocol_class=None, monkeypatch=None):
    if protocol_class is not None:
        monkeypatch.setattr(machine_module, "build_protocol",
                            lambda *args: protocol_class(*args))
    spec = JobSpec(config_label=label, workload="lock",
                   workload_params={"lock_name": "ttas", "iterations": 2},
                   config_overrides={"num_cores": 4}, seed=1)
    machine = build_machine(spec)
    if protocol_class is not None:
        assert type(machine.protocol) is protocol_class
    digests = []
    machine.run(checkpoint_every=17, on_checkpoint=lambda boundary:
                digests.append((boundary,
                                state_fingerprint(capture_state(machine)))))
    return digests


@pytest.mark.parametrize("label", sorted(REFACTORED))
def test_moving_a_closure_into_a_helper_keeps_every_digest(label,
                                                           monkeypatch):
    stock = _boundary_digests(label)
    refactored = _boundary_digests(label, REFACTORED[label], monkeypatch)
    assert len(stock) > 5
    assert refactored == stock


# ------------------------------------------------------- sampled labels


def _qualname(callback):
    func = getattr(callback, "func", callback)   # functools.partial
    return getattr(func, "__qualname__", type(func).__name__)


@pytest.mark.parametrize("label", ["Invalidation", "BackOff-10", "CB-One"])
@pytest.mark.parametrize("workload,params", [
    ("app", {"name": "barnes", "scale": 0.25}),
    ("lock", {"lock_name": "ttas", "iterations": 4}),
])
def test_sampled_labels_are_named_and_as_fine_as_qualnames(
        workload, params, label):
    """16 cores, pending events sampled at 500-cycle boundaries."""
    spec = JobSpec(config_label=label, workload=workload,
                   workload_params=params,
                   config_overrides={"num_cores": 16}, seed=1)
    machine = build_machine(spec)
    engine = machine.engine
    kinds = set()

    def sample(boundary):
        by_cycle = defaultdict(dict)
        for time, _seq, callback, event in engine._queue:
            kinds.add(_kind_of(event))
            seen = by_cycle[time].setdefault(event, _qualname(callback))
            assert seen == _qualname(callback), (
                f"cycle {time}: {seen} and {_qualname(callback)} "
                f"share the label {event}")
        for _time, _seq, phase, spin in engine._spins:
            kinds.add(spin.runner.spin_label(phase))

    machine.run(checkpoint_every=500, on_checkpoint=sample)
    assert kinds and kinds <= KINDS | {"msg"}
