"""Per-connection confidentiality modes.

Plaintext frames pass through untouched. The symmetric mode seals every
frame body with AES-256-GCM under a pre-shared key, authenticating the
clear header as associated data. The handshake mode wraps a fresh session
key for the receiver's pre-shared X25519 public key with RFC 9180 HPKE in
base mode (DHKEM(X25519, HKDF-SHA256), HKDF-SHA256, AES-256-GCM, bound to
``HPKE_INFO``), completes in exactly one round trip (init -> sealed ack),
then behaves like the symmetric mode under the fresh key. Only the holder
of the private key can open the init and seal the ack, so the sender knows
its receiver; the receiver does not know its sender.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric import x25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.hpke import AEAD, KDF, KEM, Suite

from .wire import (MODE_HANDSHAKE, MODE_NAMES, MODE_PLAINTEXT, MODE_SYMMETRIC,
                   FrameRejected)

NONCE_BYTES = 12
KEY_BYTES = 32

HPKE_SUITE = Suite(KEM.X25519, KDF.HKDF_SHA256, AEAD.AES_256_GCM)
HPKE_INFO = b"loiterwatch handshake-then-symmetric v1"
INIT_BYTES = 32 + KEY_BYTES + 16  # encapsulated X25519 key, sealed session key, GCM tag


@dataclass
class TransportConfig:
    mode: str = "plaintext"
    host: str = "127.0.0.1"
    port: int = 0
    psk_hex: str | None = None                 # symmetric mode
    server_public_key_pem: str | None = None   # handshake mode, sender side
    server_private_key_pem: str | None = None  # handshake mode, receiver side
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
    """(private_pem, public_pem) X25519 keys for the handshake mode."""
    key = x25519.X25519PrivateKey.generate()
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
    """Sender side: fresh session key plus its HPKE wrapping (the init body)."""
    if not config.server_public_key_pem:
        raise ValueError("handshake mode requires server_public_key_pem")
    public_key = serialization.load_pem_public_key(
        config.server_public_key_pem.encode("ascii"))
    if not isinstance(public_key, x25519.X25519PublicKey):
        raise ValueError("server_public_key_pem is not an X25519 public key")
    session_key = AESGCM.generate_key(bit_length=KEY_BYTES * 8)
    wrapped = HPKE_SUITE.encrypt(session_key, public_key, info=HPKE_INFO)
    return wrapped, HandshakeSession(session_key)


def load_private_key(config: TransportConfig) -> x25519.X25519PrivateKey:
    """Parse the receiver's X25519 private key; any other key raises ValueError."""
    if not config.server_private_key_pem:
        raise ValueError("handshake mode requires server_private_key_pem")
    key = serialization.load_pem_private_key(
        config.server_private_key_pem.encode("ascii"), password=None)
    if not isinstance(key, x25519.X25519PrivateKey):
        raise ValueError("server_private_key_pem is not an X25519 private key")
    return key


def unwrap_session_key(config: TransportConfig, wrapped: bytes,
                       private_key: x25519.X25519PrivateKey | None = None) -> HandshakeSession:
    """Receiver side: recover the session key from the init frame.

    A receiver passes the key it parsed once, when it was built; without
    one it is parsed from the config.
    """
    if private_key is None:
        private_key = load_private_key(config)
    # Anyone may seal to the public key; the fixed length pins the key size.
    if len(wrapped) != INIT_BYTES:
        raise FrameRejected(f"handshake init is {len(wrapped)} bytes, not {INIT_BYTES}")
    try:
        session_key = HPKE_SUITE.decrypt(wrapped, private_key, info=HPKE_INFO)
    except (InvalidTag, ValueError) as exc:
        raise FrameRejected("session key unwrap failed") from exc
    return HandshakeSession(session_key)


def make_sender_session(config: TransportConfig) -> Session:
    """Session for modes that need no key exchange (plaintext/symmetric)."""
    if config.mode == "plaintext":
        return Session()
    if config.mode == "symmetric":
        return SymmetricSession(psk_from_config(config))
    raise ValueError("handshake mode sessions are established per connection")
