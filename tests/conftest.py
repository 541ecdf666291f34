import base64
import ctypes

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from spacepart.core import Dataset, make_rng

try:
    # keep numpy's large buffers on the heap instead of mmap-and-return, so
    # repeated builds do not re-fault pages; stabilizes the timed criteria
    _libc = ctypes.CDLL("libc.so.6")
    _libc.mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    _libc.mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
except OSError:  # non-glibc platform; purely an optimization
    pass

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def random_dataset(seed: int, n: int, d: int, lo: float = 0.0, hi: float = 100.0) -> Dataset:
    rng = make_rng(seed)
    return Dataset(rng.uniform(lo, hi, size=(n, d)))


def integer_dataset(seed: int, n: int, d: int, span: int = 1000) -> Dataset:
    """Integer-valued coordinates: distance sums are exact in float64."""
    rng = make_rng(seed)
    return Dataset(rng.integers(0, span, size=(n, d)).astype(float))


def assert_centers_are_rows(doc: dict, ds: Dataset) -> int:
    """Check that every center of a vtree JSON document is its dataset row, bit for bit.

    A center is its point ``id`` and ``coords_b64``, base64 of d little-endian
    float64 values, with no ``coords`` list. Returns the number of centers.
    """
    row_of = {int(i): r for r, i in enumerate(ds.ids)}
    stack, count = [doc["root"]], 0
    while stack:
        node = stack.pop()
        stack.extend(node.get("children", ()))
        for center in node.get("centers", ()):
            assert set(center) == {"id", "coords_b64"}
            coords = np.frombuffer(base64.b64decode(center["coords_b64"], validate=True), "<f8")
            assert coords.shape == (ds.dims,)
            assert coords.tobytes() == ds.coords[row_of[center["id"]]].astype("<f8").tobytes()
            count += 1
    return count


@pytest.fixture
def rng():
    return make_rng(0)
