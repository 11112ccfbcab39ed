"""Byte-caching gateway appliances (IP-level and split-TCP)."""

from .middlebox import DecoderGateway, EncoderGateway, GatewayStats
from .resilience import (DecoderResilience, EncoderResilience,
                         ResilienceConfig, ResilienceStats)
from .tcp_proxy import TcpProxyGateway, create_proxy_pair

__all__ = [
    "DecoderGateway",
    "DecoderResilience",
    "EncoderGateway",
    "EncoderResilience",
    "GatewayStats",
    "ResilienceConfig",
    "ResilienceStats",
    "TcpProxyGateway",
    "create_proxy_pair",
]
