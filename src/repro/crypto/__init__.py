"""Cryptographic substrate: AES-128, CTR mode, AES-CMAC, and fast backend."""

from repro.crypto.aes import AES128
from repro.crypto.backend import (
    CryptoBackend,
    FastCryptoBackend,
    RealCryptoBackend,
    get_backend,
)
from repro.crypto.cmac import cmac
from repro.crypto.ctr import ctr_transform
from repro.crypto.keys import KeyMaterial

__all__ = [
    "AES128",
    "CryptoBackend",
    "FastCryptoBackend",
    "RealCryptoBackend",
    "KeyMaterial",
    "cmac",
    "ctr_transform",
    "get_backend",
]
