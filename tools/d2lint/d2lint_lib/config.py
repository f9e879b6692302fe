"""d2lint project configuration: which enums are protocol enums, which
registries each one must appear in, and which return types are must-use.

This is the single place the protocol surface is named. Adding a new
protocol enum means adding it to PROTOCOL_ENUMS (and, if it has a codec /
fold / test-coverage contract, a Registry entry); every rule picks the
change up from here. Fixture corpora override this config with a
`config.json` in the fixture directory (see selftest.py).
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass, field


@dataclass
class Registry:
    """Cross-check: every enumerator of `enum` must appear literally
    (`Enum::kX`) in at least one file matching `patterns`."""
    enum: str
    name: str  # human-readable registry name for the finding message
    patterns: list  # repo-relative fnmatch patterns
    why: str  # one line of rationale, echoed in the finding

    def matches(self, path: str) -> bool:
        return any(fnmatch.fnmatch(path, p) for p in self.patterns)


@dataclass
class Config:
    # Enums whose switches must be exhaustive or carry an annotated
    # default, and whose upper-bound casts are pinned to the final
    # enumerator (the codec-bound rule).
    protocol_enums: list = field(default_factory=list)
    registries: list = field(default_factory=list)
    # Return types that must never be silently dropped (plus anything
    # carrying [[nodiscard]], which is picked up from the declarations).
    must_use_types: list = field(default_factory=list)
    # Files scanned for declarations but exempt from the discarded-result
    # rule (none by default).
    discard_exempt: list = field(default_factory=list)
    # Roots (repo-relative) scanned by default.
    roots: list = field(default_factory=list)
    # Mutex-like types for the lock-decl cross-validation.
    mutex_types: list = field(default_factory=lambda: ["Mutex",
                                                       "SharedMutex"])
    # Path of the regex lock linter this tool cross-validates.
    lock_order_script: str = "scripts/check_lock_order.py"
    # Roots whose mutex declarations the regex linter is expected to see
    # (check_lock_order.py lints src/ only).
    lock_roots: list = field(default_factory=lambda: ["src"])

    def is_protocol(self, enum: str) -> bool:
        return enum in self.protocol_enums


def default_config() -> Config:
    return Config(
        protocol_enums=[
            "MsgType", "WalRecordType", "CrashSite", "DeliveryError",
            "FaultKind", "FrameKind", "OpClass",
        ],
        registries=[
            Registry(
                enum="MsgType",
                name="wire-codec round-trip",
                patterns=["tests/test_wire_codec.cpp"],
                why="every message type must encode+decode byte-exactly "
                    "through EncodeFrame/DecodeFrame",
            ),
            Registry(
                enum="MsgType",
                name="transport-conformance round-trip",
                patterns=["tests/test_transport_conformance.cpp"],
                why="every message type must round-trip through Bind/Call "
                    "on all three transports",
            ),
            Registry(
                enum="WalRecordType",
                name="WAL-codec round-trip",
                patterns=["tests/test_durability_wal.cpp"],
                why="every journal record type must survive "
                    "EncodeWalRecord/DecodeWalRecord",
            ),
            Registry(
                enum="WalRecordType",
                name="fsck journal fold",
                patterns=["src/d2tree/durability/fsck.cpp"],
                why="d2fsck must account for every record type a journal "
                    "can contain",
            ),
            Registry(
                enum="CrashSite",
                name="crash-injection tests",
                patterns=["tests/*.cpp"],
                why="every named crash site must be armed by at least one "
                    "test (ArmCrash / FaultKind::kCrashAtSite)",
            ),
        ],
        must_use_types=["Delivery", "DeliveryError", "DecodeStatus"],
        roots=["src", "tests", "tools/mdsd", "tools/d2fsck", "tools/d2sst",
               "bench", "examples"],
    )


def config_from_json(data: dict) -> Config:
    """Fixture-corpus config: same shape, JSON-encoded."""
    cfg = Config(
        protocol_enums=data.get("protocol_enums", []),
        must_use_types=data.get("must_use_types", []),
        discard_exempt=data.get("discard_exempt", []),
        roots=data.get("roots", ["."]),
        lock_roots=data.get("lock_roots", ["."]),
    )
    for r in data.get("registries", []):
        cfg.registries.append(Registry(
            enum=r["enum"], name=r["name"], patterns=r["patterns"],
            why=r.get("why", "")))
    if "mutex_types" in data:
        cfg.mutex_types = data["mutex_types"]
    if "lock_order_script" in data:
        cfg.lock_order_script = data["lock_order_script"]
    return cfg
