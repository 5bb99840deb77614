"""Edge-to-fog record transport: framing, sessions, TCP plumbing."""

from .net import (FeatureSender, FogReceiver, LatencyStats, measure_latency,
                  now_us)
from .session import (HandshakeSession, Session, SymmetricSession,
                      TransportConfig, generate_keypair, load_transport_config,
                      make_sender_session)
from .wire import (EncodeError, FrameRejected, MAX_PAYLOAD, MODE_NAMES,
                   VERSION, WireMessage, decode_record, encode_record)

__all__ = [
    "EncodeError", "FeatureSender", "FogReceiver", "FrameRejected",
    "HandshakeSession", "LatencyStats", "MAX_PAYLOAD", "MODE_NAMES",
    "Session", "SymmetricSession", "TransportConfig", "VERSION",
    "WireMessage", "decode_record", "encode_record",
    "generate_keypair", "load_transport_config", "make_sender_session",
    "measure_latency", "now_us",
]
