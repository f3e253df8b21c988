"""Scenario files: flat key=value text with repeated [tap] blocks.

Example::

    name = two_reflectors
    methods = triangle,sawtooth
    bandwidth = 8000
    chirp = 0.1
    # fs = 16000          optional, defaults to 2B (4B for extended)
    # speed = 343         optional round-trip propagation speed, m/s
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

A file is checked once, where it is parsed, by the checks the run path
applies (``channel.delay_in_samples`` puts each tap on every method's grid,
inside its signal or the triangle's up ramp; the fixed gains and every range
stay finite), plus one of its own: each tap has its own sample, as a run's
ground truth lists one range per tap. Each error starts with the ``file:line``
that set the bad value; a tap is named by its ``[tap]`` line and its place
(``tap 0``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .channel import ChannelModel, ChannelTap, check_seed, delay_in_samples, rayleigh_taps
from .errors import ConfigError, read_utf8
from .spectrum import (
    DEFAULT_THRESHOLD_DB,
    SPEED_OF_SOUND_MPS,
    RangeMapping,
    check_beat_magnitude,
    check_threshold_db,
)
from .waveform import WaveformKind, WaveformSpec, check_chirp_rate, check_positive

__all__ = ["ScenarioConfig", "parse_scenario", "build_channel"]

_TAP_POSITION_KEYS = ("delay_s", "delay_p", "range_m")


@dataclass
class ScenarioConfig:
    """A checked scenario; ``taps`` holds ``(delay_s, complex gain or "rayleigh")``."""

    name: str
    specs: tuple[WaveformSpec, ...]
    mapping: RangeMapping = RangeMapping()
    threshold_db: float = DEFAULT_THRESHOLD_DB
    seed: int = 1
    taps: tuple[tuple[float, complex | str], ...] = ()


def _at(where: str, check, *args, **kwargs):
    """``check(*args, **kwargs)``, with ``where`` put in front of its error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def _number(value: str) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ValueError(f"expected a number, got {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def _methods(value: str) -> tuple[WaveformKind, ...]:
    methods: list[WaveformKind] = []
    for token in value.split(","):
        token = token.strip().lower()
        try:
            kind = WaveformKind(token)
        except ValueError:
            known = ", ".join(k.value for k in WaveformKind)
            raise ValueError(f"unknown method {token!r} (known: {known})") from None
        if kind in methods:
            raise ValueError(f"duplicate method {token!r}")
        methods.append(kind)
    return tuple(methods)


def _seed(value: str) -> int:
    try:
        seed = int(value)
    except ValueError:
        raise ValueError("seed must be an integer") from None
    return check_seed(seed)


# key -> (check of a raw value, value when the key is absent); the required
# keys and the derived fs have None, and the name defaults to the file's stem.
_GLOBALS = {
    "name": (str, None),
    "bandwidth": (lambda v: check_positive("bandwidth", _number(v)), None),
    "chirp": (lambda v: check_positive("chirp duration", _number(v)), None),
    "methods": (_methods, (WaveformKind.TRIANGLE,)),
    "fs": (_number, None),
    "speed": (lambda v: RangeMapping(_number(v)).propagation_speed_mps, SPEED_OF_SOUND_MPS),
    "threshold_db": (lambda v: check_threshold_db(_number(v)), DEFAULT_THRESHOLD_DB),
    "seed": (_seed, 1),
}


def parse_scenario(path) -> ScenarioConfig:
    """Parse and check a scenario file; every error names the file and line."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"scenario file not found: {path}")
    # key -> (raw value, "file:line" for error messages)
    file_globals: dict[str, tuple[str, str]] = {}
    blocks: list[tuple[str, dict[str, tuple[str, str]]]] = []  # ("file:line", fields)
    target = file_globals
    for lineno, raw in enumerate(read_utf8(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[tap]":
            target = {}
            blocks.append((f"{path}:{lineno}", target))
            continue
        if line.startswith("["):
            raise ConfigError(f"{path}:{lineno}: unknown block {line!r}")
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower()
        if key in target:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        target[key] = (value.strip(), f"{path}:{lineno}")

    values = {key: default for key, (_, default) in _GLOBALS.items()}
    values["name"] = path.stem
    where: dict[str, str] = {}  # key -> "file:line" of its value
    for key, (value, at) in file_globals.items():
        if key not in _GLOBALS:
            raise ConfigError(f"{at}: unknown key {key!r}")
        values[key], where[key] = _at(at, _GLOBALS[key][0], value), at
    for key in ("bandwidth", "chirp"):
        if values[key] is None:
            raise ConfigError(f"{path}: missing required key {key!r}")

    # B, Tc and their rate passed their own checks, so a spec error ties them
    # to fs: it is put on the fs line, or on the chirp line when fs derives from B.
    _at(where["chirp"], check_chirp_rate, values["bandwidth"], values["chirp"])
    spec_at = where["fs" if values["fs"] is not None else "chirp"]
    specs = tuple(
        _at(spec_at, WaveformSpec, kind, values["bandwidth"], values["chirp"],
            sample_rate_hz=values["fs"])
        for kind in values["methods"]
    )
    num_samples = max(spec.num_samples for spec in specs)
    mapping = RangeMapping(values["speed"])
    for spec in specs:  # a range past float range is put on the speed line, or bandwidth's
        _at(where.get("speed", where["bandwidth"]), mapping.bin_spacing_m, spec)
    taps: dict[int, tuple[float, complex | str]] = {}  # by offset, alike on every grid
    # The waveform has unit amplitude, so no beat sample exceeds the sum of
    # the gains' magnitudes. A Rayleigh draw is at most sqrt(53 ln 2) < 6.1,
    # which cannot move a float sum near the bound: the fixed gains decide.
    fixed_sum = 0.0
    for i, (at, fields) in enumerate(blocks):
        delay, gain, gain_at = _tap(fields, at, values["bandwidth"], mapping)
        if gain != "rayleigh":
            # hypot gives inf where abs(gain) raises.
            fixed_sum += math.hypot(gain.real, gain.imag)
            _at(gain_at, check_beat_magnitude, num_samples, fixed_sum)
        offset = [_at(at, delay_in_samples, delay, spec, i) for spec in specs][0]
        _at(at, mapping.delay_to_range, delay)
        if offset in taps:
            j = list(taps).index(offset)
            raise ConfigError(
                f"{at}: tap {i} repeats the delay {taps[offset][0]!r} s of tap {j} "
                f"({blocks[j][0]}), both on sample {offset}"
            )
        taps[offset] = (delay, gain)
    return ScenarioConfig(
        values["name"], specs, mapping, values["threshold_db"], values["seed"],
        tuple(taps.values())
    )


def _tap(fields: dict, where: str, bandwidth_hz: float, mapping: RangeMapping):
    """``(delay_s, gain, gain_at)`` of the ``[tap]`` block at ``where``.

    ``gain_at`` is the line of a fixed gain's larger part, which names the gain.
    """
    position = [k for k in _TAP_POSITION_KEYS if k in fields]
    if len(position) != 1:
        raise ConfigError(
            f"{where}: each [tap] needs exactly one of {_TAP_POSITION_KEYS}, "
            f"got {position or 'none'}"
        )
    key = position[0]
    value_raw, value_where = fields[key]
    value = _at(value_where, _number, value_raw)
    if value < 0:
        raise ConfigError(f"{value_where}: {key} must be non-negative")
    if key == "delay_p":
        value /= 2.0 * bandwidth_hz
    elif key == "range_m":
        value = mapping.range_to_delay(value)

    gain: complex | str
    gain_at = where
    if "gain" in fields:
        gain_raw, gain_where = fields["gain"]
        if gain_raw.lower() != "rayleigh":
            raise ConfigError(
                f"{gain_where}: gain must be 'rayleigh' "
                f"(use gain_re/gain_im for fixed gains)"
            )
        if "gain_re" in fields or "gain_im" in fields:
            raise ConfigError(f"{where}: gain=rayleigh excludes gain_re/gain_im")
        gain = "rayleigh"
    else:
        re_raw, re_where = fields.get("gain_re", ("1", where))
        im_raw, im_where = fields.get("gain_im", ("0", where))
        gain = complex(_at(re_where, _number, re_raw), _at(im_where, _number, im_raw))
        if gain == 0:
            raise ConfigError(f"{where}: tap gain must be nonzero")
        gain_at = re_where if abs(gain.real) >= abs(gain.imag) else im_where
    for bad, (_, bad_where) in fields.items():
        if bad not in (key, "gain", "gain_re", "gain_im"):
            raise ConfigError(f"{bad_where}: unknown tap key {bad!r}")
    return value, gain, gain_at


def build_channel(cfg: ScenarioConfig) -> ChannelModel:
    """Materialize the channel, drawing any rayleigh gains.

    Rayleigh gains come from :func:`rayleigh_taps`: one seeded stream drawn
    over the rayleigh taps in order of increasing delay, so a scenario is
    reproducible from its seed.
    """
    fixed = tuple(ChannelTap(delay, gain) for delay, gain in cfg.taps if gain != "rayleigh")
    drawn = [delay for delay, gain in cfg.taps if gain == "rayleigh"]
    return ChannelModel(fixed + rayleigh_taps(drawn, cfg.seed).taps)
