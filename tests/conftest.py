import ctypes
import json
from pathlib import Path

import numpy as np
import pytest

from tritrain.nnlib import (Sequential, affine_buffers, affine_forward, cross_entropy_buffers,
                            softmax_cross_entropy)
from tritrain.trinet import TriNet

# one visible line per acceptance criterion, flushed after the test run
_acceptance_lines = []


def record_acceptance(name: str, ok, detail: str = ""):
    status = "SKIP" if ok is None else ("PASS" if ok else "FAIL")
    line = f"[{status}] {name}" + (f": {detail}" if detail else "")
    _acceptance_lines.append(line)
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


def arithmetic_host() -> str:
    """What decides the float bits of a pinned digest on this host: numpy's
    version, the kernel OpenBLAS picked at run time (read from numpy's
    bundled library; "unknown" without it) and numpy's active SIMD dispatch
    targets."""
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
        break
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    active = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t)) or "none"
    return f"numpy {np.__version__}, OpenBLAS core {core}, dispatch targets {active}"


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def cross_entropy(logits, labels):
    """`softmax_cross_entropy` of logits and int64 labels, in buffers of its
    own that their constructor builds."""
    return softmax_cross_entropy(labels, cross_entropy_buffers(logits))


def affine(x, W, b):
    """`affine_forward` of x with W and b, through views of its own that
    their constructor builds."""
    return affine_forward(x, W, affine_buffers(W, b))


def extractor(in_dim, hidden_dim, activation, dropout_rate, use_bn, rng):
    """A standalone `Sequential` over a zero-filled arena of its own, as a
    `TriNet` hands it a slice of the net's."""
    n = Sequential.size(in_dim, hidden_dim, use_bn)
    return Sequential(in_dim, hidden_dim, activation, dropout_rate, use_bn, rng,
                      (np.zeros(n), np.zeros(n)))


def train_pass(f, x, rng=None):
    """A train-mode `forward` of the extractor f on the rows of x, in a new
    workspace for their count; returns that workspace."""
    ws = f.workspace(len(x))
    f.forward(x, ws, rng)
    return ws


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of a 2-D array."""
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f(x)
        x[idx] = orig - h
        fm = f(x)
        x[idx] = orig
        grad[idx] = (fp - fm) / (2 * h)
        it.iternext()
    return grad


# an extractor's parameter views, in arena order
VIEWS = ("W", "b", "gamma", "beta")


def named(net, which="params") -> dict[str, np.ndarray]:
    """`<net>/<view>` -> each parameter view, or with "grads" the view of the
    gradient arena at the same place, over the four networks of a TriNet,
    where head `<h>/W` and `<h>/b` are the rows of its matrix `Wb[h]`; an
    extractor's keys are its view names, `gamma` and `beta` only with batch
    norm."""
    seq = net.f if isinstance(net, TriNet) else net
    prefix = "f/" if isinstance(net, TriNet) else ""
    out = {prefix + k: getattr(seq, k) for k in VIEWS if getattr(seq, k) is not None}
    if isinstance(net, TriNet):
        for head, Wb in net.Wb.items():
            out[f"{head}/W"], out[f"{head}/b"] = Wb[:-1], Wb[-1:]
    if which == "params":
        return out
    # every view is a contiguous run of `theta`; its gradient is the same run of `grad`
    start = {k: (v.ctypes.data - net.theta.ctypes.data) // v.itemsize for k, v in out.items()}
    return {k: net.grad[start[k]:start[k] + v.size].reshape(v.shape) for k, v in out.items()}


def rewrite_checkpoint(path, edit):
    """Apply edit(arrays, meta) to a saved checkpoint in place."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    edit(arrays, meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# arrays, each filled with a value no trained net holds, that loading must
# reject by name; every checkpoint of a net with batch norm at layer 2 of f
# has them
UNTRAINED_ARRAYS = {
    "nan_param": ("param/f/0/W", np.nan),
    "inf_slot": ("opt/main/slot/f1", np.inf),
    "zero_bn_count": ("state/f/2/running_count", 0),
    "negative_bn_var": ("state/f/2/running_var", -1.0),
}


def _fill(key, value):
    return lambda arrays, meta: arrays[key].fill(value)


# checkpoint edits that loading must turn into an IOError
MALFORMED_CHECKPOINTS = {
    "version_2": lambda arrays, meta: meta.update(version=2),
    "missing_config": lambda arrays, meta: meta.pop("config"),
    "unknown_gates_field": lambda arrays, meta: meta["config"]["gates"].update(from_fx=True),
    "wrong_in_dim": lambda arrays, meta: meta.update(in_dim=meta["in_dim"] + 1),
    # a resumed run would ascend the gradient, or count steps from below 0
    "negative_lr": lambda arrays, meta: meta.update(lr=-1.0),
    "negative_step": lambda arrays, meta: meta.update(step=-5),
    # sizes that do not fit the stored weights and that numpy refuses to
    # allocate at once; building the net from them was a MemoryError
    "huge_in_dim": lambda arrays, meta: meta.update(in_dim=10**12),
    "huge_num_classes": lambda arrays, meta: meta.update(num_classes=10**11),
    "huge_hidden_dim": lambda arrays, meta: meta["config"].update(hidden_dim=10**11),
    **{name: _fill(key, value) for name, (key, value) in UNTRAINED_ARRAYS.items()},
}
# arrays no checkpoint of the default net holds, each of which loading must
# reject by name
UNKNOWN_ARRAYS = ("param/f/9/W", "state/f/0/running_mean", "junk", "opt/main/other")


@pytest.fixture(scope="session")
def moons_benchmark_config():
    """Shared config for the rotated two-moons adaptation benchmark."""
    from tritrain.trainer import TrainConfig
    return dict(steps_k=20, pretrain_iters=1000, iter_per_phase=100,
                batch_labeling=64, batch_target=128, lr=0.05, lam=0.01,
                hidden_dim=16, activation="sigmoid", use_bn=True)
