"""Scenario configuration: defaults, file parsing, validation, provenance.

Config files are flat ``key = value`` text, one setting per line, with ``#``
comments. Parsing fails closed: unknown keys, duplicate keys, and unparsable
values raise ConfigError instead of being ignored. load_config reports where
every effective value came from (default, file, or override) so a run can
print its resolved configuration.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass

from .energy import RadioParams, tx_energy
from .errors import ConfigError


@dataclass(frozen=True)
class ScenarioConfig:
    """Every knob of a simulation scenario, with workable defaults.

    The defaults describe a 400 m x 400 m field of 100 nodes with a corner
    sink, the standard first-order radio constants, 512-byte packets split
    four ways, and a light CSMA-style MAC.
    """

    # Field and placement
    field_width: float = 400.0
    field_height: float = 400.0
    node_count: int = 100
    sink_x: float = 0.0
    sink_y: float = 0.0
    source_x: float = 300.0
    source_y: float = 300.0
    radio_range_m: float = 40.0
    extended_range_fallback: bool = True

    # Radio energy model
    e_elec_j_per_bit: float = 50e-9
    eps_fs_j_per_bit_m2: float = 10e-12
    eps_mp_j_per_bit_m4: float = 0.0013e-12
    initial_energy_j: float = 2.0

    # Traffic and fragmentation
    packet_bytes: int = 512
    fragment_count: int = 4
    fragment_header_bytes: int = 8
    traffic_model: str = "deterministic"  # deterministic | poisson
    rate_pkts_per_s: float = 10.0
    duration_s: float = 60.0
    reassembly_deadline_s: float = 5.0

    # Beacons and cold-start link statistics
    beacon_bytes: int = 32
    beacon_accounting: bool = True
    cold_start_value: float = 1.0

    # Suitability scoring
    appr_mode: str = "mean"  # mean | literal
    interference_mode: str = "normalized"  # normalized | literal
    interference_reference: float = 1600.0
    interference_alpha: float = 2.0

    # Path discovery
    progress_mode: str = "preferred"  # preferred | strict
    # qempar takes no path of more hops than hop_budget_factor times the
    # estimate ceil(distance to sink / radio_range_m) (README "Route
    # discovery").
    hop_budget_factor: float = 4.0

    # MAC and link reliability
    bit_rate_bps: float = 500e3
    access_delay_s: float = 0.0005
    contention_delay_s: float = 0.0002
    carrier_sense_factor: float = 2.0
    hop_retry_limit: int = 2
    base_success: float = 0.98
    success_distance_slope: float = 0.03

    # Run selection
    router: str = "qempar"  # qempar | minhop
    seed: int = 1

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8

    @property
    def fragments_per_packet(self) -> int:
        """fragment_count under qempar; minhop sends whole packets."""
        return self.fragment_count if self.router == "qempar" else 1

    def radio_params(self) -> RadioParams:
        return RadioParams(
            e_elec=self.e_elec_j_per_bit,
            eps_fs=self.eps_fs_j_per_bit_m2,
            eps_mp=self.eps_mp_j_per_bit_m4,
        )

    def validate(self) -> None:
        """Raise ConfigError listing every violated constraint. A field whose
        value is not of its declared type is reported before any range check,
        as those cannot be evaluated on it."""
        errs = [f"{name} must be of type {kind}" for name, kind in _FIELDS.items()
                if not _is_of_type(getattr(self, name), kind)]
        if errs:
            raise ConfigError("; ".join(errs))

        def check(ok: bool, msg: str) -> None:
            if not ok:
                errs.append(msg)

        for name in _FLOAT_FIELDS:
            check(math.isfinite(getattr(self, name)), f"{name} must be finite")
        check(self.field_width > 0 and self.field_height > 0,
              "field dimensions must be positive")
        check(self.node_count >= 2, "node_count must be at least 2")
        # A run holds the n x n distances in one numpy array, whose size in
        # bytes cannot exceed sys.maxsize.
        check(8 * self.node_count ** 2 <= sys.maxsize,
              "node_count is too large for the n x n distance table")
        check(0 <= self.sink_x <= self.field_width and 0 <= self.sink_y <= self.field_height,
              "sink position must lie inside the field")
        check(0 <= self.source_x <= self.field_width and 0 <= self.source_y <= self.field_height,
              "source position must lie inside the field")
        check((self.sink_x, self.sink_y) != (self.source_x, self.source_y),
              "sink and source must not coincide")
        check(self.radio_range_m > 0, "radio_range_m must be positive")
        for name in ("e_elec_j_per_bit", "eps_fs_j_per_bit_m2", "eps_mp_j_per_bit_m4"):
            check(getattr(self, name) > 0, f"{name} must be positive")
        check(self.initial_energy_j > 0, "initial_energy_j must be positive")
        check(self.packet_bytes >= 1, "packet_bytes must be at least 1")
        check(self.fragment_count >= 1, "fragment_count must be at least 1")
        # A packet's fragments are one list, of at most sys.maxsize items.
        check(self.fragment_count <= sys.maxsize,
              "fragment_count is too large for a packet's list of fragments")
        if self.packet_bytes >= 1 and self.fragment_count >= 1:
            check(self.fragment_count <= self.packet_bits,
                  "fragment_count cannot exceed packet bits")
        check(self.fragment_header_bytes >= 0, "fragment_header_bytes must be non-negative")
        check(self.traffic_model in ("deterministic", "poisson"),
              "traffic_model must be deterministic or poisson")
        check(self.rate_pkts_per_s > 0, "rate_pkts_per_s must be positive")
        check(self.duration_s > 0, "duration_s must be positive")
        check(self.reassembly_deadline_s > 0, "reassembly_deadline_s must be positive")
        check(self.beacon_bytes >= 1, "beacon_bytes must be at least 1")
        check(0.0 <= self.cold_start_value <= 1.0, "cold_start_value must be in [0, 1]")
        check(self.appr_mode in ("mean", "literal"), "appr_mode must be mean or literal")
        check(self.interference_mode in ("normalized", "literal"),
              "interference_mode must be normalized or literal")
        check(self.interference_reference > 0, "interference_reference must be positive")
        check(self.interference_alpha > 0, "interference_alpha must be positive")
        check(self.progress_mode in ("preferred", "strict"),
              "progress_mode must be preferred or strict")
        check(self.hop_budget_factor >= 1.0, "hop_budget_factor must be at least 1")
        check(self.bit_rate_bps > 0, "bit_rate_bps must be positive")
        check(self.access_delay_s >= 0, "access_delay_s must be non-negative")
        check(self.contention_delay_s >= 0, "contention_delay_s must be non-negative")
        check(self.carrier_sense_factor >= 0, "carrier_sense_factor must be non-negative")
        check(self.hop_retry_limit >= 0, "hop_retry_limit must be non-negative")
        check(0.0 < self.base_success <= 1.0, "base_success must be in (0, 1]")
        check(0.0 <= self.success_distance_slope <= 1.0,
              "success_distance_slope must be in [0, 1]")
        check(self.router in ("qempar", "minhop"), "router must be qempar or minhop")
        check(self.seed >= 0, "seed must be non-negative")
        if errs:
            raise ConfigError("; ".join(errs))

        # No link is longer than the field diagonal, so the model there bounds
        # every interference term and debit. A node takes at most node_count
        # beacon-round debits (its beacon and those it hears) and one traffic
        # debit past its initial energy; the factor 2 covers round-off. The
        # largest frame is fragment 1, ceil(bits / k) (dispatch.fragment),
        # with its header, or a beacon. A hop starts at one of about rate x
        # duration births or at an earlier hop's end, and a fragment makes at
        # most retries + 1 attempts on each of at most n - 1 hops, so no event
        # is later than the last deadline plus all those attempts in a row,
        # each at its longest.
        d = math.hypot(self.field_width, self.field_height)
        n, k = self.node_count, self.fragments_per_packet
        frame = -(-self.packet_bits // k) + 8 * self.fragment_header_bytes
        bits = max(frame, 8 * self.beacon_bytes if self.beacon_accounting else 0)
        diagonal = f"over the {d:g} m field diagonal"
        for keys, where, bound in (
                ("interference_alpha and interference_reference", diagonal,
                 lambda: d ** self.interference_alpha / self.interference_reference),
                ("node_count, initial_energy_j, e_elec_j_per_bit, eps_fs_j_per_bit_m2, "
                 "eps_mp_j_per_bit_m4, field_width, field_height, packet_bytes, fragment_count, "
                 "fragment_header_bytes and beacon_bytes", diagonal,
                 lambda: 2.0 * n * (self.initial_energy_j
                                    + n * tx_energy(bits, d, self.radio_params()))),
                ("rate_pkts_per_s, duration_s, reassembly_deadline_s, node_count, fragment_count, "
                 "hop_retry_limit, packet_bytes, fragment_header_bytes, bit_rate_bps, "
                 "access_delay_s and contention_delay_s", "in the latest event time",
                 lambda: 2.0 * (self.duration_s + self.reassembly_deadline_s
                                + (self.rate_pkts_per_s * self.duration_s + 1) * k * (n - 1)
                                * (self.hop_retry_limit + 1) * (frame / self.bit_rate_bps
                                + self.access_delay_s + self.contention_delay_s * n)))):
            try:
                ok = math.isfinite(bound())
            except OverflowError:
                ok = False
            check(ok, f"{keys} overflow the model {where}")
        if errs:
            raise ConfigError("; ".join(errs))

    def to_text(self) -> str:
        """Serialize as the flat key = value format (round-trips exactly)."""
        lines = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if isinstance(v, bool):
                txt = "true" if v else "false"
            elif isinstance(v, float):
                txt = repr(v)
            else:
                txt = str(v)
            lines.append(f"{f.name} = {txt}")
        return "\n".join(lines) + "\n"


_FIELDS = {f.name: f.type for f in dataclasses.fields(ScenarioConfig)}
_BOOL_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "bool"}
_INT_FIELDS = {f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "int"}
_FLOAT_FIELDS = [f.name for f in dataclasses.fields(ScenarioConfig) if f.type == "float"]
_TYPES = {"bool": bool, "int": int, "float": (int, float), "str": str}
_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


def _is_of_type(value, kind: str) -> bool:
    """isinstance against the declared type; a bool is not a number."""
    return isinstance(value, _TYPES[kind]) and (kind == "bool" or not isinstance(value, bool))


def coerce_value(key: str, raw: str):
    """Parse one raw string into the field's declared type, or raise
    ConfigError."""
    if key not in _FIELDS:
        raise ConfigError(f"unknown configuration key '{key}'")
    raw = raw.strip()
    if key in _BOOL_FIELDS:
        low = raw.lower()
        if low in _TRUE_WORDS:
            return True
        if low in _FALSE_WORDS:
            return False
        raise ConfigError(f"{key}: expected a boolean, got '{raw}'")
    try:
        if key in _INT_FIELDS:
            return int(raw)
        if key in _FLOAT_FIELDS:
            return float(raw)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got '{raw}'") from None
    return raw


def parse_config_text(text: str) -> dict:
    """Parse flat key = value text into a typed settings dict (fail-closed)."""
    settings: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got '{stripped}'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key in settings:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        settings[key] = coerce_value(key, raw)
    return settings


def load_config(path: str | None = None, overrides: dict | None = None):
    """Build a validated ScenarioConfig from defaults, an optional file, and
    optional overrides (highest precedence).

    Returns (config, provenance) where provenance maps every field to
    'default', 'file', or 'override'.
    """
    provenance = {name: "default" for name in _FIELDS}
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from None
        for key, val in parse_config_text(text).items():
            values[key] = val
            provenance[key] = "file"
    if overrides:
        for key, raw in overrides.items():
            if key not in _FIELDS:
                raise ConfigError(f"unknown configuration key '{key}'")
            values[key] = coerce_value(key, raw) if isinstance(raw, str) else raw
            provenance[key] = "override"
    cfg = ScenarioConfig(**values)
    cfg.validate()
    return cfg, provenance
