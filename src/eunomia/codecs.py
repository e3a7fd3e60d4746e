"""Byte-exact control-message codecs.

All layouts are big-endian.

Flow table update (36 bytes):
    command u8 | reserved u8 | idle_timeout u16 | hard_timeout u16 |
    priority u16 | buffer_id u32 | out_port u32 | out_group u32 |
    cookie u64 | flags u16 | match_src u16 | match_dst u16 | pad u16

Edge synchronization (24 bytes):
    link_type u8 | status u8 | bandwidth_kbps u32 | weight_milli u32 |
    src_id u32 | dst_id u32 | timestamp_ms u48
    (weight is fixed-point, thousandths)

Flow table request (variable):
    header: version u8 | type u8 | length u16 | xid u32
    content: buffer_id u32 | total_len u16 | reason u8 | table_id u8 |
             cookie u64 | eth_type u16 | src_ip u32 | dst_ip u32 |
             src_port u16 | dst_port u16 | payload bytes
    The length field covers the whole message.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum

FLOW_UPDATE_BYTES = 36
EDGE_SYNC_BYTES = 24
FLOW_REQUEST_HEADER_BYTES = 8
FLOW_REQUEST_FIXED_BYTES = 38  # header + fixed content, excluding payload

_FLOW_UPDATE_FMT = ">BBHHHIIIQHHHH"
_EDGE_SYNC_FMT = ">BBIIII"  # + 6-byte timestamp appended manually
_REQ_HEADER_FMT = ">BBHI"
_REQ_CONTENT_FMT = ">IHBBQHIIHH"

PROTOCOL_VERSION = 1


class MessageKind(IntEnum):
    FLOW_REQUEST = 1
    FLOW_UPDATE = 2
    EDGE_SYNC = 3
    HANDOVER = 4


class CodecError(ValueError):
    pass


@dataclass(frozen=True)
class FlowUpdate:
    command: int = 0
    idle_timeout: int = 0
    hard_timeout: int = 0
    priority: int = 0
    buffer_id: int = 0
    out_port: int = 0
    out_group: int = 0
    cookie: int = 0
    flags: int = 0
    match_src: int = 0
    match_dst: int = 0


@dataclass(frozen=True)
class EdgeSync:
    link_type: int = 0
    status: int = 0
    bandwidth_kbps: int = 0
    weight: float = 0.0
    src_id: int = 0
    dst_id: int = 0
    timestamp_ms: int = 0


@dataclass(frozen=True)
class FlowRequest:
    xid: int = 0
    buffer_id: int = 0
    total_len: int = 0
    reason: int = 0
    table_id: int = 0
    cookie: int = 0
    eth_type: int = 0
    src_ip: int = 0
    dst_ip: int = 0
    src_port: int = 0
    dst_port: int = 0
    payload: bytes = field(default=b"")


def encode_flow_update(msg: FlowUpdate) -> bytes:
    try:
        data = struct.pack(
            _FLOW_UPDATE_FMT,
            msg.command,
            0,
            msg.idle_timeout,
            msg.hard_timeout,
            msg.priority,
            msg.buffer_id,
            msg.out_port,
            msg.out_group,
            msg.cookie,
            msg.flags,
            msg.match_src,
            msg.match_dst,
            0,
        )
    except struct.error as exc:
        raise CodecError(f"flow update field out of range: {exc}") from exc
    assert len(data) == FLOW_UPDATE_BYTES
    return data


def decode_flow_update(data: bytes) -> FlowUpdate:
    if len(data) != FLOW_UPDATE_BYTES:
        raise CodecError(f"flow update must be {FLOW_UPDATE_BYTES} bytes, got {len(data)}")
    (
        command,
        _reserved,
        idle_timeout,
        hard_timeout,
        priority,
        buffer_id,
        out_port,
        out_group,
        cookie,
        flags,
        match_src,
        match_dst,
        _pad,
    ) = struct.unpack(_FLOW_UPDATE_FMT, data)
    return FlowUpdate(
        command=command,
        idle_timeout=idle_timeout,
        hard_timeout=hard_timeout,
        priority=priority,
        buffer_id=buffer_id,
        out_port=out_port,
        out_group=out_group,
        cookie=cookie,
        flags=flags,
        match_src=match_src,
        match_dst=match_dst,
    )


def encode_edge_sync(msg: EdgeSync) -> bytes:
    weight_milli = round(msg.weight * 1000.0)
    if not 0 <= weight_milli < 2**32:
        raise CodecError(f"weight {msg.weight} outside fixed-point range")
    if not 0 <= msg.timestamp_ms < 2**48:
        raise CodecError(f"timestamp {msg.timestamp_ms} outside 48-bit range")
    try:
        head = struct.pack(
            _EDGE_SYNC_FMT,
            msg.link_type,
            msg.status,
            msg.bandwidth_kbps,
            weight_milli,
            msg.src_id,
            msg.dst_id,
        )
    except struct.error as exc:
        raise CodecError(f"edge sync field out of range: {exc}") from exc
    data = head + msg.timestamp_ms.to_bytes(6, "big")
    assert len(data) == EDGE_SYNC_BYTES
    return data


def decode_edge_sync(data: bytes) -> EdgeSync:
    if len(data) != EDGE_SYNC_BYTES:
        raise CodecError(f"edge sync must be {EDGE_SYNC_BYTES} bytes, got {len(data)}")
    link_type, status, bandwidth_kbps, weight_milli, src_id, dst_id = struct.unpack(
        _EDGE_SYNC_FMT, data[:18]
    )
    timestamp_ms = int.from_bytes(data[18:], "big")
    return EdgeSync(
        link_type=link_type,
        status=status,
        bandwidth_kbps=bandwidth_kbps,
        weight=weight_milli / 1000.0,
        src_id=src_id,
        dst_id=dst_id,
        timestamp_ms=timestamp_ms,
    )


def encode_flow_request(msg: FlowRequest) -> bytes:
    total = FLOW_REQUEST_FIXED_BYTES + len(msg.payload)
    if total >= 2**16:
        raise CodecError(f"flow request of {total} bytes exceeds the length field")
    try:
        data = struct.pack(
            _REQ_HEADER_FMT, PROTOCOL_VERSION, MessageKind.FLOW_REQUEST, total, msg.xid
        ) + struct.pack(
            _REQ_CONTENT_FMT,
            msg.buffer_id,
            msg.total_len,
            msg.reason,
            msg.table_id,
            msg.cookie,
            msg.eth_type,
            msg.src_ip,
            msg.dst_ip,
            msg.src_port,
            msg.dst_port,
        ) + msg.payload
    except struct.error as exc:
        raise CodecError(f"flow request field out of range: {exc}") from exc
    assert len(data) == total
    return data


def decode_flow_request(data: bytes) -> FlowRequest:
    if len(data) < FLOW_REQUEST_FIXED_BYTES:
        raise CodecError(f"flow request too short: {len(data)} bytes")
    version, kind, length, xid = struct.unpack(
        _REQ_HEADER_FMT, data[:FLOW_REQUEST_HEADER_BYTES]
    )
    if version != PROTOCOL_VERSION:
        raise CodecError(f"unsupported protocol version {version}")
    if kind != MessageKind.FLOW_REQUEST:
        raise CodecError(f"wrong type tag {kind} for a flow request")
    if length != len(data):
        raise CodecError(f"length field {length} disagrees with buffer of {len(data)}")
    (
        buffer_id,
        total_len,
        reason,
        table_id,
        cookie,
        eth_type,
        src_ip,
        dst_ip,
        src_port,
        dst_port,
    ) = struct.unpack(
        _REQ_CONTENT_FMT, data[FLOW_REQUEST_HEADER_BYTES:FLOW_REQUEST_FIXED_BYTES]
    )
    return FlowRequest(
        xid=xid,
        buffer_id=buffer_id,
        total_len=total_len,
        reason=reason,
        table_id=table_id,
        cookie=cookie,
        eth_type=eth_type,
        src_ip=src_ip,
        dst_ip=dst_ip,
        src_port=src_port,
        dst_port=dst_port,
        payload=data[FLOW_REQUEST_FIXED_BYTES:],
    )
