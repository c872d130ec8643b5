import numpy as np
import pytest

from boundedattn.checkpoint import load_arrays, save_arrays
from boundedattn.numerics import make_rng


def test_round_trip_is_byte_exact(tmp_path):
    rng = make_rng(0)
    arrays = {
        "layer0.wq": rng.normal(size=(8, 8)),
        "emb": rng.normal(size=(16, 4)) * 1e-300,  # subnormal-ish extremes survive
        "gain": rng.normal(size=(1, 8)),
        "weird": np.array([[np.pi, -0.0], [1e308, 5e-324]]),
    }
    path = tmp_path / "m.bin"
    save_arrays(path, arrays)
    back = load_arrays(path)
    assert set(back) == set(arrays)
    for k in arrays:
        assert back[k].dtype == np.float64
        assert arrays[k].tobytes() == back[k].tobytes()

    # saving the loaded dict reproduces the identical file
    path2 = tmp_path / "m2.bin"
    save_arrays(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_vectors_stored_as_single_row(tmp_path):
    path = tmp_path / "v.bin"
    save_arrays(path, {"v": np.arange(5.0)})
    assert load_arrays(path)["v"].shape == (1, 5)


def test_header_is_little_endian_float64_payload(tmp_path):
    path = tmp_path / "one.bin"
    save_arrays(path, {"a": np.array([[1.0, 2.0]])})
    blob = path.read_bytes()
    header, payload = blob.split(b"end\n", 1)
    assert header.decode().splitlines() == ["ndarrays 1", "dense d_in,d_out", "a 1 2"]
    assert payload == np.array([1.0, 2.0]).astype("<f8").tobytes()


def test_container_without_the_dense_layout_line_rejected(tmp_path):
    # a container written before the header named the layout of its dense
    # weights, which were then stored (d_out, d_in)
    path = tmp_path / "old.bin"
    path.write_bytes(b"ndarrays 1\na 1 2\nend\n" + np.array([1.0, 2.0]).astype("<f8").tobytes())
    with pytest.raises(ValueError, match="d_out, d_in"):
        load_arrays(path)


def test_bad_names_and_shapes_rejected(tmp_path):
    with pytest.raises(ValueError):
        save_arrays(tmp_path / "x.bin", {"has space": np.zeros((1, 1))})
    with pytest.raises(ValueError):
        save_arrays(tmp_path / "x.bin", {"t": np.zeros((2, 2, 2))})


def test_corrupt_files_rejected(tmp_path):
    path = tmp_path / "c.bin"
    save_arrays(path, {"a": np.ones((2, 3))})
    blob = path.read_bytes()
    truncated = tmp_path / "t.bin"
    truncated.write_bytes(blob[:-8])
    with pytest.raises(ValueError):
        load_arrays(truncated)
    bad_magic = tmp_path / "b.bin"
    bad_magic.write_bytes(b"nope 1\n" + blob)
    with pytest.raises(ValueError):
        load_arrays(bad_magic)
