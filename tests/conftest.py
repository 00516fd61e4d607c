"""Shared fixtures and byte-level builders used as independent oracles."""

import struct

import numpy as np
import pytest

from gmmaug import PhantomSpec, generate_phantom


def build_nifti_bytes(
    dims,
    body: bytes,
    datatype: int,
    byteorder: str = "<",
    pixdim=(1.0, 1.0, 1.0),
    scl_slope: float = 0.0,
    scl_inter: float = 0.0,
    vox_offset: int = 352,
    magic: bytes = b"n+1\x00",
    sizeof_hdr: int = 348,
    ndim: int = 3,
) -> bytes:
    """Assemble a single-file NIfTI-1 byte string field by field.

    Written from the published header layout, independent of the
    package's writer, so reader tests have a second opinion on the
    format.
    """
    bitpix = {2: 8, 4: 16, 16: 32, 64: 64, 8: 32, 256: 8, 512: 16}.get(datatype, 0)
    hdr = bytearray(348)
    struct.pack_into(byteorder + "i", hdr, 0, sizeof_hdr)
    dim8 = [ndim] + list(dims) + [1] * (7 - len(dims))
    struct.pack_into(byteorder + "8h", hdr, 40, *dim8)
    struct.pack_into(byteorder + "h", hdr, 70, datatype)
    struct.pack_into(byteorder + "h", hdr, 72, bitpix)
    pix8 = [1.0] + list(pixdim) + [0.0] * (7 - len(pixdim))
    struct.pack_into(byteorder + "8f", hdr, 76, *pix8)
    struct.pack_into(byteorder + "f", hdr, 108, float(vox_offset))
    struct.pack_into(byteorder + "f", hdr, 112, scl_slope)
    struct.pack_into(byteorder + "f", hdr, 116, scl_inter)
    struct.pack_into("<4s", hdr, 344, magic)
    padding = b"\x00" * (vox_offset - 348)
    return bytes(hdr) + padding + body


@pytest.fixture(scope="session")
def default_phantom():
    return generate_phantom(PhantomSpec(seed=20))


@pytest.fixture(scope="session")
def separated_spec():
    """Phantom with inter-mean gaps of 10 sigma: remap structure tests."""
    return PhantomSpec(
        means=(0.1, 0.2, 0.3), variances=(1e-4, 1e-4, 1e-4), seed=21
    )


@pytest.fixture(scope="session")
def separated_phantom(separated_spec):
    return generate_phantom(separated_spec)


def mixture_sample(rng, n, weights, means, variances):
    comp = rng.choice(len(weights), size=n, p=list(weights))
    return rng.normal(np.asarray(means)[comp], np.sqrt(np.asarray(variances)[comp]))
