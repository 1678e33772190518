import importlib
import sys
from pathlib import Path

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import rebit as rb
from gpt_tomo import tomography as tm
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system

I2 = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

KET0 = np.array([1.0, 0.0])
KET1 = np.array([0.0, 1.0])
PHI_PLUS = (np.kron(KET0, KET0) + np.kron(KET1, KET1)) / np.sqrt(2.0)
PHI_MINUS = (np.kron(KET0, KET0) - np.kron(KET1, KET1)) / np.sqrt(2.0)
PSI_PLUS = (np.kron(KET0, KET1) + np.kron(KET1, KET0)) / np.sqrt(2.0)
PSI_MINUS = (np.kron(KET0, KET1) - np.kron(KET1, KET0)) / np.sqrt(2.0)


def proj(vec: np.ndarray) -> np.ndarray:
    return np.outer(vec, vec.conj())


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str):
    """A benchmark workload module, imported as the benchmark imports it; nothing there is edited."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    return importlib.import_module(name)


def basis_processes(basis):
    """The validated single-operator processes that a process basis's arrays stand for."""
    if basis.input.backend == CLASSICAL:
        return [c.stochastic_process(basis.input, basis.output, m) for m in basis.operators]
    return [c.kraus_process(basis.input, basis.output, [k]) for k in basis.operators]


def count_calls(monkeypatch, names):
    """Wrap each named core function wherever a module binds it; returns the call log."""
    calls = []
    for name in names:
        original = getattr(c, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append((_name, args))
            return _original(*args, **kwargs)

        for mod in (c, bk, tm, rb):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.fixture
def qubit():
    return system(QUANTUM, 2)


@pytest.fixture
def qutrit():
    return system(QUANTUM, 3)


@pytest.fixture
def rebit():
    return system(REAL, 2)


@pytest.fixture
def bit():
    return system(CLASSICAL, 2)
