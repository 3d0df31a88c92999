"""Recycled kernel outputs: a buffer is handed out again only once nothing
else holds it.

Outputs of at least ``_kernel._RECYCLE`` elements come from the calling
thread's list of released buffers. Each test patches ``_RECYCLE`` down, as
``test_kernel_routes.py`` patches ``_BLOCK``, so that small states take the
path that states of 32 MiB and more take, and starts from an empty list.
"""

import importlib
import sys
import threading
from math import prod

import numpy as np
import pytest

from _oracles import rand_cptp
from quditsim import _kernel, apply, apply_channel, apply_ctrl, default_rng, rand_ket, rand_rho, rand_unitary

DIMS = [2, 3, 2, 2]
D = prod(DIMS)
LIST = "_quditsim_buffers"


def _buffers():
    """The calling thread's list of buffers, created empty if missing."""
    return vars(threading.current_thread()).setdefault(LIST, [])


@pytest.fixture
def recycle(monkeypatch):
    """Every kernel output recycles; the thread's list starts and ends empty."""
    monkeypatch.setattr(_kernel, "_RECYCLE", 1)
    _buffers().clear()
    yield
    _buffers().clear()


def _data(a):
    return a.__array_interface__["data"][0]


HOLDS = {
    "array": lambda out: out,
    "slice": lambda out: out[3:5],
    "reshape": lambda out: out.reshape(DIMS),
    "transposed": lambda out: out.reshape(DIMS).transpose(3, 1, 0, 2),
    "memoryview": memoryview,
}


@pytest.mark.parametrize("hold", HOLDS)
def test_a_live_output_is_never_handed_out_again(recycle, hold):
    rng = default_rng(1)
    psi, U = rand_ket(D, rng), rand_unitary(3, rng)
    held = HOLDS[hold](apply(psi, U, [1], DIMS))  # the output itself is dropped
    before = np.array(held, copy=True)
    for _ in range(4):  # enough calls to cycle the list
        out = apply(psi, U, [1], DIMS)
        out[...] = 7
        assert not np.shares_memory(out, np.asarray(held))
        assert np.array_equal(np.asarray(held), before)


def test_a_released_output_is_reused(recycle):
    rng = default_rng(2)
    psi, U = rand_ket(D, rng), rand_unitary(2, rng)
    out = apply(psi, U, [3], DIMS)
    at = _data(out)
    del out
    again = apply(psi, U, [3], DIMS)
    assert _data(again) == at
    # psi = apply(psi, ...) alternates between two buffers
    seen = set()
    for _ in range(6):
        psi = apply(psi, U, [0], DIMS)
        seen.add(_data(psi))
    assert len(seen) == 2 and len(_buffers()) <= 2


def test_two_threads_never_receive_the_same_buffer(recycle):
    n_threads, rounds = 4, 40
    ready = threading.Barrier(n_threads, timeout=60)
    lists, errors = [None] * n_threads, []

    def work(i):
        try:
            rng = default_rng(10 + i)
            psi, U = rand_ket(D, rng), rand_unitary(2, rng)
            psi[...] = i
            for _ in range(rounds):
                out = apply(psi, U @ U.conj().T, [0], DIMS)
                out[...] = i  # another thread holding this buffer would see it
                assert np.all(psi == i)
                psi = out
            lists[i] = [_data(b) for b in _buffers()] + [_data(psi)]
            ready.wait()  # every thread's buffers are live together here
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
            ready.abort()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    owned = [set(ptrs) for ptrs in lists]
    for i in range(n_threads):
        for j in range(i):
            assert not owned[i] & owned[j]


def test_a_reimport_keeps_at_most_two_buffers_per_thread():
    # the list belongs to the thread: a fresh import of the package reuses
    # what the last import's outputs released, and adds no list of its own
    saved = {m: sys.modules[m] for m in list(sys.modules) if m.split(".")[0] == "quditsim"}
    bufs = _buffers()
    bufs.clear()
    try:
        released = set()
        for _ in range(3):
            for m in [m for m in sys.modules if m.split(".")[0] == "quditsim"]:
                del sys.modules[m]
            q = importlib.import_module("quditsim")
            q._kernel._RECYCLE = 1
            rng = q.default_rng(3)
            psi, U = q.rand_ket(D, rng), q.rand_unitary(2, rng)
            assert not released or _data(psi) in released
            for _ in range(3):
                psi = q.apply(psi, U, [2], DIMS)
            # psi and the buffer the last call released
            assert _buffers() is bufs and len(bufs) == 2
            released = {_data(b) for b in bufs}
            del psi
    finally:
        for m in [m for m in sys.modules if m.split(".")[0] == "quditsim"]:
            del sys.modules[m]
        sys.modules.update(saved)
        bufs.clear()


def _calls(rng):
    """(name, call) for each kernel entry point that returns a state."""
    psi, rho = rand_ket(D, rng), rand_rho(D, rng)
    U, U4 = rand_unitary(2, rng), rand_unitary(4, rng)
    Ks = rand_cptp(4, 3, rng)
    return {
        "apply_ket": lambda: apply(psi, U4, [3, 0], DIMS),
        "apply_rho": lambda: apply(rho, U4, [0, 2], DIMS),
        "apply_ctrl_ket": lambda: apply_ctrl(psi, U, [0, 3], [2], DIMS),
        "apply_ctrl_rho": lambda: apply_ctrl(rho, U, [2], [0], DIMS),
        "apply_channel": lambda: apply_channel(rho, Ks, [3, 0], DIMS),
        "rand_ket": lambda: rand_ket(D, default_rng(4)),
    }


@pytest.mark.parametrize("name", list(_calls(default_rng(0))))
def test_outputs_are_bitwise_equal_with_and_without_recycling(name, monkeypatch):
    call = _calls(default_rng(5))[name]
    for one_pass in [True, False]:  # both routes on rho
        monkeypatch.setattr(_kernel, "_one_pass", lambda *_: one_pass)
        monkeypatch.setattr(_kernel, "_RECYCLE", 2**62)
        want = call()
        monkeypatch.setattr(_kernel, "_RECYCLE", 1)
        _buffers().clear()
        try:
            got = [call() for _ in range(3)]
            del got[1]
            got.append(call())  # into the buffer the second call released
        finally:
            _buffers().clear()
        for out in got:
            assert out.tobytes() == want.tobytes()
