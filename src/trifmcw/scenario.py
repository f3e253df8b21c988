"""Scenario files: flat key=value text with repeated [tap] blocks.

Example::

    name = two_reflectors
    methods = triangle,sawtooth
    bandwidth = 8000
    chirp = 0.1
    # fs = 16000          optional, defaults to 2B (4B for extended)
    # speed = 343         optional propagation speed, m/s
    # one_way = false     optional, default round-trip ranging
    # threshold_db = -12  optional peak threshold
    # seed = 1            optional, for rayleigh gains

    [tap]
    delay_p = 48
    gain_re = 1
    gain_im = 0

    [tap]
    range_m = 0.55
    gain = rayleigh

Each tap names its position exactly one way (``delay_s`` seconds,
``delay_p`` delay-grid index p = 2*B*delay, or ``range_m`` meters) and its
gain either as ``gain_re``/``gain_im`` or as ``gain = rayleigh``.

Overrides (the ``trifmcw simulate`` flags) are raw ``key -> value`` strings
for global keys. Each replaces only its key's file value and passes that
key's check; its errors name the key (``seed override: ...``), not a line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .channel import ChannelModel, ChannelTap, check_seed, rayleigh_taps
from .errors import ConfigError
from .spectrum import DEFAULT_THRESHOLD_DB, RangeMapping, SPEED_OF_SOUND_MPS
from .waveform import WaveformKind

__all__ = ["TapConfig", "ScenarioConfig", "parse_scenario", "build_channel"]

_TAP_POSITION_KEYS = ("delay_s", "delay_p", "range_m")


@dataclass
class TapConfig:
    delay_s: float | None = None
    delay_p: float | None = None
    range_m: float | None = None
    gain: complex | str = 1.0 + 0.0j  # complex value or the string "rayleigh"

    def resolve_delay(self, bandwidth_hz: float, mapping: RangeMapping) -> float:
        if self.delay_s is not None:
            return self.delay_s
        if self.delay_p is not None:
            return self.delay_p / (2.0 * bandwidth_hz)
        return mapping.range_to_delay(self.range_m)


@dataclass
class ScenarioConfig:
    name: str
    bandwidth_hz: float
    chirp_duration_s: float
    methods: tuple[WaveformKind, ...] = (WaveformKind.TRIANGLE,)
    sample_rate_hz: float | None = None
    speed_mps: float = SPEED_OF_SOUND_MPS
    round_trip: bool = True
    threshold_db: float = DEFAULT_THRESHOLD_DB
    seed: int = 1
    taps: list[TapConfig] = field(default_factory=list)

    @property
    def mapping(self) -> RangeMapping:
        return RangeMapping(self.speed_mps, self.round_trip)


def _parse_bool(value: str, where: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {value!r}")


def _parse_float(value: str, where: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {value!r}") from None
    if not abs(number) < float("inf"):  # false for nan as well as +-inf
        raise ConfigError(f"{where}: expected a finite number, got {value!r}")
    return number


def parse_scenario(path, overrides: dict[str, str] | None = None) -> ScenarioConfig:
    """Parse a scenario file; errors carry file and line context.

    ``overrides`` replace file values as described above; the file must be
    valid without them too.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    if overrides:
        parse_scenario(path)
    # key -> (raw value, "file:line" or "key override" for error messages)
    globals_: dict[str, tuple[str, str]] = {}
    taps: list[TapConfig] = []
    current_tap: dict[str, tuple[str, str]] | None = None
    tap_lines: list[int] = []

    def finish_tap():
        nonlocal current_tap
        if current_tap is None:
            return
        taps.append(_build_tap(path, current_tap, tap_lines[-1]))
        current_tap = None

    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[tap]":
            finish_tap()
            current_tap = {}
            tap_lines.append(lineno)
            continue
        if line.startswith("["):
            raise ConfigError(f"{path}:{lineno}: unknown block {line!r}")
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        target = current_tap if current_tap is not None else globals_
        if key in target:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        target[key] = (value, f"{path}:{lineno}")
    finish_tap()
    for key, value in (overrides or {}).items():
        globals_[key] = (value, f"{key} override")

    def take(key, default=None):
        return globals_.pop(key, (default, str(path)))

    name, _ = take("name", path.stem)
    bandwidth_raw, bw_where = take("bandwidth")
    chirp_raw, chirp_where = take("chirp")
    if bandwidth_raw is None:
        raise ConfigError(f"{path}: missing required key 'bandwidth'")
    if chirp_raw is None:
        raise ConfigError(f"{path}: missing required key 'chirp'")
    bandwidth = _parse_float(bandwidth_raw, bw_where)
    chirp = _parse_float(chirp_raw, chirp_where)

    methods_raw, methods_where = take("methods", "triangle")
    methods = []
    for token in methods_raw.split(","):
        token = token.strip().lower()
        try:
            kind = WaveformKind(token)
        except ValueError:
            known = ", ".join(k.value for k in WaveformKind)
            raise ConfigError(
                f"{methods_where}: unknown method {token!r} (known: {known})"
            ) from None
        if kind in methods:
            raise ConfigError(f"{methods_where}: duplicate method {token!r}")
        methods.append(kind)

    fs_raw, fs_where = take("fs")
    fs = _parse_float(fs_raw, fs_where) if fs_raw is not None else None
    speed_raw, speed_where = take("speed", str(SPEED_OF_SOUND_MPS))
    speed = _parse_float(speed_raw, speed_where)
    if speed <= 0:
        raise ConfigError(f"{speed_where}: speed must be > 0")
    one_way_raw, one_way_where = take("one_way", "false")
    one_way = _parse_bool(one_way_raw, one_way_where)
    thr_raw, thr_where = take("threshold_db", str(DEFAULT_THRESHOLD_DB))
    threshold = _parse_float(thr_raw, thr_where)
    if threshold > 0:
        raise ConfigError(f"{thr_where}: threshold_db must be <= 0")
    seed_raw, seed_where = take("seed", "1")
    try:
        seed = int(seed_raw)
    except ValueError:
        raise ConfigError(f"{seed_where}: seed must be an integer") from None
    try:
        check_seed(seed)
    except ValueError as exc:
        raise ConfigError(f"{seed_where}: {exc}") from None

    if globals_:
        key, (_, where) = next(iter(globals_.items()))
        raise ConfigError(f"{where}: unknown key {key!r}")

    return ScenarioConfig(
        name=name,
        bandwidth_hz=bandwidth,
        chirp_duration_s=chirp,
        methods=tuple(methods),
        sample_rate_hz=fs,
        speed_mps=speed,
        round_trip=not one_way,
        threshold_db=threshold,
        seed=seed,
        taps=taps,
    )


def _build_tap(path: Path, fields: dict, block_line: int) -> TapConfig:
    where = f"{path}:{block_line}"
    position = [k for k in _TAP_POSITION_KEYS if k in fields]
    if len(position) != 1:
        raise ConfigError(
            f"{where}: each [tap] needs exactly one of {_TAP_POSITION_KEYS}, "
            f"got {position or 'none'}"
        )
    key = position[0]
    value_raw, value_where = fields.pop(key)
    value = _parse_float(value_raw, value_where)
    if value < 0:
        raise ConfigError(f"{value_where}: {key} must be non-negative")

    gain: complex | str
    if "gain" in fields:
        gain_raw, gain_where = fields.pop("gain")
        if gain_raw.lower() != "rayleigh":
            raise ConfigError(
                f"{gain_where}: gain must be 'rayleigh' "
                f"(use gain_re/gain_im for fixed gains)"
            )
        if "gain_re" in fields or "gain_im" in fields:
            raise ConfigError(f"{where}: gain=rayleigh excludes gain_re/gain_im")
        gain = "rayleigh"
    else:
        re_raw, re_where = fields.pop("gain_re", ("1", where))
        im_raw, im_where = fields.pop("gain_im", ("0", where))
        gain = complex(_parse_float(re_raw, re_where), _parse_float(im_raw, im_where))
        if gain == 0:
            raise ConfigError(f"{where}: tap gain must be nonzero")
    if fields:
        bad, (_, bad_where) = next(iter(fields.items()))
        raise ConfigError(f"{bad_where}: unknown tap key {bad!r}")

    tap = TapConfig(gain=gain)
    setattr(tap, key, value)
    return tap


def build_channel(cfg: ScenarioConfig) -> ChannelModel:
    """Materialize the channel: resolve delays and draw any rayleigh gains.

    Rayleigh gains come from :func:`rayleigh_taps`: one seeded stream drawn
    over the rayleigh taps in order of increasing delay, so a scenario is
    reproducible from its seed.
    """
    mapping = cfg.mapping
    fixed, drawn = [], []
    for tap in cfg.taps:
        delay = tap.resolve_delay(cfg.bandwidth_hz, mapping)
        if tap.gain == "rayleigh":
            drawn.append(delay)
        else:
            fixed.append(ChannelTap(delay, tap.gain))
    return ChannelModel(tuple(fixed) + rayleigh_taps(drawn, cfg.seed).taps)
