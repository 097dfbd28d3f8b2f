"""Checkpoint loading under systematic mutation: every header slot, every
cut through the header and around each tensor boundary, one appended byte,
and a non-finite value in each tensor. ``load_checkpoint`` either
round-trips or raises the package's own error naming the header part or
the tensor; it never raises a bare ValueError, OverflowError or
MemoryError (those propagate and fail the test)."""

import struct

import numpy as np
import pytest

from eaftlab import toylm
from eaftlab.errors import InvalidArgumentError, InvalidInputError

CONFIG = toylm.ModelConfig(vocab_size=16, context_len=3, embed_dim=4, hidden_dim=8, seed=12345)
PARAMS = toylm.init_model(CONFIG)
HEADER = 36
DIMS = "(V, n, d, h)"

# (name, byte offset, struct format, true value, names a rejection may give)
SLOTS = [
    ("version", 8, "<I", toylm.CHECKPOINT_VERSION, ("version",)),
    ("V", 12, "<I", CONFIG.vocab_size, ("vocab_size", DIMS)),
    ("n", 16, "<I", CONFIG.context_len, ("context_len", DIMS)),
    ("d", 20, "<I", CONFIG.embed_dim, ("embed_dim", DIMS)),
    ("h", 24, "<I", CONFIG.hidden_dim, ("hidden_dim", DIMS)),
    ("seed", 28, "<Q", CONFIG.seed, ("seed",)),
]


def tensor_ends() -> list[tuple[str, int]]:
    """Each tensor and the file offset where it ends."""
    ends, end = [], HEADER
    for name in toylm.PARAM_FIELDS:
        end += 8 * getattr(PARAMS, name).size
        ends.append((name, end))
    return ends


@pytest.fixture
def raw(tmp_path) -> bytes:
    path = tmp_path / "good.ckpt"
    toylm.save_checkpoint(path, CONFIG, PARAMS)
    return path.read_bytes()


def load_or_reject(tmp_path, data: bytes, names) -> tuple | None:
    """The loaded checkpoint, or None after a rejection that names one of ``names``."""
    path = tmp_path / "mutant.ckpt"
    path.write_bytes(data)
    try:
        return toylm.load_checkpoint(path)
    except (InvalidInputError, InvalidArgumentError) as exc:
        assert any(name in str(exc) for name in names), f"{exc} names none of {names}"
        return None


@pytest.mark.parametrize("slot", SLOTS, ids=[s[0] for s in SLOTS])
def test_header_slot_overwritten(tmp_path, raw, slot):
    name, offset, fmt, true, names = slot
    width = struct.calcsize(fmt)
    for value in sorted({0, 1, 2, 2**31, 2**32 - 1, true - 1, true + 1}):
        data = raw[:offset] + struct.pack(fmt, value) + raw[offset + width :]
        loaded = load_or_reject(tmp_path, data, names)
        if name == "seed" or value == true:
            # the true value loads, and so does any u64 seed, as that seed
            config, params = loaded
            assert config.seed == (value if name == "seed" else CONFIG.seed)
            assert np.array_equal(params.flat, PARAMS.flat)
        else:
            # any other change declares a payload of another size, an
            # unsupported version or a dimension ModelConfig rejects
            assert loaded is None, (name, value)


def test_cut_at_every_header_byte_and_tensor_boundary(tmp_path, raw):
    cuts = {c: ("magic",) if c < 8 else ("header",) for c in range(HEADER)}
    for name, end in tensor_ends():
        for c in (end - 8 * getattr(PARAMS, name).size, end - 1, end, end + 1):
            if HEADER <= c < len(raw):
                # the first tensor that does not fit in the cut file
                cuts[c] = (next(t for t, e in tensor_ends() if e > c), DIMS)
    for c, names in sorted(cuts.items()):
        assert load_or_reject(tmp_path, raw[:c], names) is None, c
    config, params = load_or_reject(tmp_path, raw, ())
    assert config == CONFIG and np.array_equal(params.flat, PARAMS.flat)


def test_one_appended_byte(tmp_path, raw):
    assert load_or_reject(tmp_path, raw + b"\0", ("trailing", DIMS)) is None


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("tensor", toylm.PARAM_FIELDS)
def test_non_finite_value_in_each_tensor(tmp_path, tensor, value):
    for index in (0, -1):
        params = PARAMS.copy()
        getattr(params, tensor).reshape(-1)[index] = value
        path = tmp_path / "bad.ckpt"
        toylm.save_checkpoint(path, CONFIG, params)
        with pytest.raises(InvalidInputError, match=f"checkpoint {tensor} holds a non-finite value"):
            toylm.load_checkpoint(path)
