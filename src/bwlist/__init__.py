"""Exact list decoding of Barnes-Wall lattices over the Gaussian integers."""

from bwlist.arith import (
    CVector,
    GaussianInt,
    NotDivisible,
    QComplex,
    rsd,
)
from bwlist.decode import DecodeEntry, DecodeList, MaxListExceeded, list_decode
from bwlist.lattice import BWPoint, generator_matrix, is_member

__all__ = [
    "BWPoint",
    "CVector",
    "DecodeEntry",
    "DecodeList",
    "GaussianInt",
    "MaxListExceeded",
    "NotDivisible",
    "QComplex",
    "generator_matrix",
    "is_member",
    "list_decode",
    "rsd",
]
