import json

import numpy as np
import pytest

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


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def rewrite_checkpoint(path, edit):
    """Apply edit(arrays, meta) to a saved checkpoint in place."""
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    meta = json.loads(bytes(arrays.pop("__meta__")).decode())
    edit(arrays, meta)
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# checkpoint edits that loading must turn into an IOError
MALFORMED_CHECKPOINTS = {
    "version_2": lambda arrays, meta: meta.update(version=2),
    "missing_config": lambda arrays, meta: meta.pop("config"),
    "unknown_gates_field": lambda arrays, meta: meta["config"]["gates"].update(from_fx=True),
    "wrong_in_dim": lambda arrays, meta: meta.update(in_dim=meta["in_dim"] + 1),
}


@pytest.fixture(scope="session")
def moons_benchmark_config():
    """Shared config for the rotated two-moons adaptation benchmark."""
    from tritrain.trainer import TrainConfig
    return dict(steps_k=20, pretrain_iters=1000, iter_per_phase=100,
                batch_labeling=64, batch_target=128, lr=0.05, lam=0.01,
                hidden_dim=16, activation="sigmoid", use_bn=True)
