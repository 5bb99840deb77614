"""Per-connection confidentiality modes.

Plaintext frames pass through untouched. The symmetric mode seals every
frame body with AES-256-GCM under a pre-shared key, authenticating the
clear header as associated data. The handshake mode wraps a fresh session
key with RSA-OAEP against the receiver's pre-shared public key, completes
in exactly one round trip (init -> sealed ack), then behaves like the
symmetric mode under the fresh key.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import padding, rsa
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .wire import (MODE_HANDSHAKE, MODE_NAMES, MODE_PLAINTEXT, MODE_SYMMETRIC,
                   FrameRejected)

NONCE_BYTES = 12
KEY_BYTES = 32


@dataclass
class TransportConfig:
    mode: str = "plaintext"
    host: str = "127.0.0.1"
    port: int = 0
    psk_hex: str | None = None                 # symmetric mode
    server_public_key_pem: str | None = None   # handshake mode, sender side
    server_private_key_pem: str | None = None  # handshake mode, receiver side
    window: int = 64                           # in-flight message bound
    buffer_seconds: float = 10.0               # disconnect buffer span
    connect_timeout: float = 5.0

    def __post_init__(self):
        if self.mode not in MODE_NAMES:
            raise ValueError(f"unknown transport mode {self.mode!r}")

    @property
    def mode_byte(self) -> int:
        return MODE_NAMES[self.mode]


def load_transport_config(path: str | Path) -> TransportConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return TransportConfig(**json.load(fh))


def generate_keypair() -> tuple[str, str]:
    """(private_pem, public_pem) for the handshake mode."""
    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    private_pem = key.private_bytes(
        serialization.Encoding.PEM,
        serialization.PrivateFormat.PKCS8,
        serialization.NoEncryption(),
    ).decode("ascii")
    public_pem = key.public_key().public_bytes(
        serialization.Encoding.PEM,
        serialization.PublicFormat.SubjectPublicKeyInfo,
    ).decode("ascii")
    return private_pem, public_pem


class Session:
    """Seals and opens frame bodies; header always travels in the clear."""

    mode_byte = MODE_PLAINTEXT

    def seal(self, header: bytes, payload: bytes) -> bytes:
        return payload

    def open(self, header: bytes, body: bytes) -> bytes:
        return body


class SymmetricSession(Session):
    """AES-256-GCM per frame; random nonce prepended to the ciphertext."""

    mode_byte = MODE_SYMMETRIC

    def __init__(self, key: bytes):
        if len(key) != KEY_BYTES:
            raise ValueError(f"key must be {KEY_BYTES} bytes, got {len(key)}")
        self._aead = AESGCM(key)

    def seal(self, header: bytes, payload: bytes) -> bytes:
        nonce = os.urandom(NONCE_BYTES)
        return nonce + self._aead.encrypt(nonce, payload, header)

    def open(self, header: bytes, body: bytes) -> bytes:
        if len(body) < NONCE_BYTES + 16:
            raise FrameRejected("sealed body too short")
        nonce, ciphertext = body[:NONCE_BYTES], body[NONCE_BYTES:]
        try:
            return self._aead.decrypt(nonce, ciphertext, header)
        except InvalidTag as exc:
            raise FrameRejected("authentication tag mismatch") from exc


class HandshakeSession(SymmetricSession):
    mode_byte = MODE_HANDSHAKE


def psk_from_config(config: TransportConfig) -> bytes:
    if not config.psk_hex:
        raise ValueError("symmetric mode requires psk_hex in transport config")
    key = bytes.fromhex(config.psk_hex)
    if len(key) != KEY_BYTES:
        raise ValueError(f"psk must be {KEY_BYTES} bytes, got {len(key)}")
    return key


def wrap_session_key(config: TransportConfig) -> tuple[bytes, HandshakeSession]:
    """Sender side: fresh session key plus its RSA-OAEP wrapping."""
    if not config.server_public_key_pem:
        raise ValueError("handshake mode requires server_public_key_pem")
    public_key = serialization.load_pem_public_key(
        config.server_public_key_pem.encode("ascii"))
    session_key = AESGCM.generate_key(bit_length=KEY_BYTES * 8)
    wrapped = public_key.encrypt(
        session_key,
        padding.OAEP(mgf=padding.MGF1(algorithm=hashes.SHA256()),
                     algorithm=hashes.SHA256(), label=None),
    )
    return wrapped, HandshakeSession(session_key)


def load_private_key(config: TransportConfig) -> rsa.RSAPrivateKey:
    """Parse the receiver's RSA private key; a malformed key raises ValueError."""
    if not config.server_private_key_pem:
        raise ValueError("handshake mode requires server_private_key_pem")
    key = serialization.load_pem_private_key(
        config.server_private_key_pem.encode("ascii"), password=None)
    if not isinstance(key, rsa.RSAPrivateKey):
        raise ValueError("server_private_key_pem is not an RSA private key")
    return key


def unwrap_session_key(config: TransportConfig, wrapped: bytes,
                       private_key: rsa.RSAPrivateKey | None = None) -> HandshakeSession:
    """Receiver side: recover the session key from the init frame.

    Parsing the private key costs far more than the unwrap itself, so a
    receiver passes the key it parsed once; without one it is parsed from
    the config.
    """
    if private_key is None:
        private_key = load_private_key(config)
    try:
        session_key = private_key.decrypt(
            wrapped,
            padding.OAEP(mgf=padding.MGF1(algorithm=hashes.SHA256()),
                         algorithm=hashes.SHA256(), label=None),
        )
    except ValueError as exc:
        raise FrameRejected("session key unwrap failed") from exc
    if len(session_key) != KEY_BYTES:
        raise FrameRejected("unwrapped session key has wrong size")
    return HandshakeSession(session_key)


def make_sender_session(config: TransportConfig) -> Session:
    """Session for modes that need no key exchange (plaintext/symmetric)."""
    if config.mode == "plaintext":
        return Session()
    if config.mode == "symmetric":
        return SymmetricSession(psk_from_config(config))
    raise ValueError("handshake mode sessions are established per connection")
