"""Run configuration: plain key=value files with flag overrides (flags win)."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path
from urllib.parse import urlsplit
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from .formats import ascii_decimal


# The socket layer rejects timeouts far past this (1e12 s overflows);
# no endpoint reply is worth waiting longer than a day for.
MAX_ADAPTER_TIMEOUT_S = 86_400.0


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass
class AdapterConfig:
    """External classifier endpoint settings."""
    endpoint: str = ""
    model: str = "llama3.1-8b-instruct"
    timeout_s: float = 30.0
    retries: int = 2
    pool_size: int = 4


@dataclass
class AuditConfig:
    corpus_dir: str = "corpus"
    registry_path: str = "registry.csv"
    ip2asn_path: str = ""
    abuse_path: str = ""
    provider_list_path: str = ""
    cloud_list_path: str = ""
    org_map_path: str = ""
    sector_map_path: str = ""
    rule_table_path: str = ""
    trusted_mx: str = "mx.audit.example"
    audit_timezone: str = "UTC"
    classifier: str = "rules"
    adapter: AdapterConfig = field(default_factory=AdapterConfig)
    seed: int = 42
    output_dir: str = "out"

    def validate(self) -> None:
        if self.classifier not in ("rules", "external"):
            raise ConfigError(f"classifier must be rules|external, got {self.classifier!r}")
        if self.classifier == "external" and not self.adapter.endpoint:
            raise ConfigError("classifier=external requires adapter_endpoint")
        if self.adapter.endpoint and not _is_http_url(self.adapter.endpoint):
            raise ConfigError(
                f"adapter_endpoint must be an absolute http(s) URL with a "
                f"host, got {self.adapter.endpoint!r}")
        timeout = self.adapter.timeout_s
        if not (math.isfinite(timeout) and 0 < timeout <= MAX_ADAPTER_TIMEOUT_S):
            raise ConfigError(
                f"adapter_timeout_s must be a finite number of seconds above "
                f"0 and at most {MAX_ADAPTER_TIMEOUT_S:g}, got {timeout!r}")
        if self.adapter.retries < 0:
            raise ConfigError("adapter_retries must be >= 0")
        if self.adapter.pool_size < 1:
            raise ConfigError("adapter_pool_size must be >= 1")
        if not self.trusted_mx:
            raise ConfigError("trusted_mx must name the receiving host")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        try:
            ZoneInfo(self.audit_timezone)
        except (ZoneInfoNotFoundError, ValueError) as exc:
            raise ConfigError(
                f"unknown audit_timezone: {self.audit_timezone!r}") from exc


def _is_http_url(text: str) -> bool:
    try:
        url = urlsplit(text)
        url.port  # raises on a port that is not a number in range
    except ValueError:
        return False
    return url.scheme in ("http", "https") and bool(url.hostname)


_SCALAR_FIELDS = {f.name: f.type for f in dataclasses.fields(AuditConfig)
                  if f.name != "adapter"}
_ADAPTER_FIELDS = {f"adapter_{f.name}": f.name for f in dataclasses.fields(AdapterConfig)}


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Read a key=value file; '#' starts a comment, blank lines are skipped."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        values[key] = value
    return values


def _coerce(key: str, value: str, target_type: type) -> object:
    try:
        if target_type is int:  # no sign, underscores or non-ASCII digits
            return ascii_decimal(value, key)
        return target_type(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r}") from exc


def build_config(file_values: dict[str, str] | None = None,
                 overrides: dict[str, object] | None = None) -> AuditConfig:
    """Assemble an AuditConfig from file values and explicit overrides.

    Overrides (CLI flags) win over file values; both win over defaults.
    Unknown keys are errors so typos fail loudly.
    """
    cfg = AuditConfig()
    merged: dict[str, object] = dict(file_values or {})
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value

    for key, value in merged.items():
        if key in _ADAPTER_FIELDS:
            attr = _ADAPTER_FIELDS[key]
            current = getattr(cfg.adapter, attr)
            if isinstance(value, str):
                value = _coerce(key, value, type(current))
            setattr(cfg.adapter, attr, value)
        elif key in _SCALAR_FIELDS:
            current = getattr(cfg, key)
            if isinstance(value, str) and not isinstance(current, str):
                value = _coerce(key, value, type(current))
            setattr(cfg, key, value)
        else:
            raise ConfigError(f"unknown config key: {key!r}")

    cfg.validate()
    return cfg
