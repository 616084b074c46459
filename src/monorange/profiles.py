"""Calibration-profile files and the named profiles this package ships.

A camera profile loads as :class:`CameraIntrinsics` and a regression profile
as :class:`RegressionModel`. A depth profile keeps its on-disk form exactly
(including the unit it was recorded in), so write -> read -> write round trips
are byte-identical; unit conversion happens only when it is turned into
working coefficients. Loaders accept a filesystem path or ``builtin:<name>``,
and every fault in a profile file, a value outside its domain included, is a
:class:`FormatError` that names the file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

from .common import (
    DomainError, MissingDataError, NonFiniteError, canonical_json, read_json, unwritable, whole,
)
from .depth import (
    LOW_THRESHOLD, PROVENANCE_STATIC, DepthCoefficients, NormalizationMethod, ScoreSmoother,
)
from .geometry import CameraIntrinsics, HeightTable
from .regression import RegressionModel


@dataclass(frozen=True)
class DepthProfile:
    """Scale/shift calibration as recorded, with its unit and how its scores were made.

    The line ``distance = m * score + s`` holds only for scores made the way
    the calibration made them, so the profile records that way too: the
    normalization ``norm_method``, its ``lt_percentile`` and ``lt_take`` (see
    :class:`NormalizationMethod`, whose defaults these are) and the
    ``smooth_window`` of the per-object score mean. ``estimate`` takes all of
    them from here; only its ``--norm-method`` overrides the method.

    Construction checks every field: the unit, a pair of exactly two positive
    distances, coefficients :class:`DepthCoefficients` accepts, and a method
    and smoothing window :class:`NormalizationMethod` and
    :class:`ScoreSmoother` accept.
    """

    vip_id: str
    m: float
    s: float
    unit: str = "m"
    pair: tuple[float, float] | None = None
    norm_method: str = LOW_THRESHOLD
    lt_percentile: float = 10.0
    lt_take: str = "lowest"
    smooth_window: int = 5

    def __post_init__(self):
        if self.unit not in ("m", "cm"):
            raise DomainError(f"unknown unit {self.unit!r}; expected 'm' or 'cm'")
        if self.pair is not None and (len(self.pair) != 2 or not all(d > 0 for d in self.pair)):
            raise DomainError(f"pair must hold two positive distances, got {list(self.pair)}")
        self.to_coefficients()
        self.method  # which checks the method's settings
        ScoreSmoother(self.smooth_window)

    @property
    def method(self) -> NormalizationMethod:
        """The normalization the calibration scored with, at the library's disc settings."""
        return NormalizationMethod(
            kind=self.norm_method, lt_percentile=self.lt_percentile, lt_take=self.lt_take
        )

    def to_coefficients(self) -> DepthCoefficients:
        """Working coefficients in meters regardless of the recorded unit."""
        scale = 0.01 if self.unit == "cm" else 1.0
        return DepthCoefficients(m=self.m * scale, s=self.s * scale, provenance=PROVENANCE_STATIC)


# Profiles calibrated on the reference drone camera (values as published for
# the three calibration subjects); depth profiles were recorded in centimeters.
BUILTIN_CAMERA = {
    "tello": CameraIntrinsics(focal_length_px=1592.0, image_width_px=1280, image_height_px=720,
                              fov_deg=82.6),
}

BUILTIN_REGRESSION = {
    "P1": RegressionModel(a=-2.42, b=-1.29, c=0.0043, calibrated_for="P1"),
    "P2": RegressionModel(a=-2.14, b=-1.77, c=0.0050, calibrated_for="P2"),
    "P3": RegressionModel(a=-2.56, b=-2.10, c=0.0065, calibrated_for="P3"),
}

BUILTIN_DEPTH = {
    "P1": DepthProfile(vip_id="P1", m=1169.0, s=124.2, unit="cm", pair=(2.5, 4.0)),
    "P2": DepthProfile(vip_id="P2", m=1685.0, s=54.9, unit="cm", pair=(2.5, 4.0)),
    "P3": DepthProfile(vip_id="P3", m=1105.0, s=118.5, unit="cm", pair=(2.5, 4.0)),
}

DEFAULT_HEIGHTS = HeightTable(
    expected_m={
        "vip": 0.63,  # hazard vest, the detector's reference object
        "bystander": 1.65,
        "scooter": 1.12,
        "bicycle": 0.97,
        "car": 1.70,
    },
    actual_m={
        "vip": (0.63,),  # the vest is a fixed-size reference object
        "bystander": (1.75, 1.76),
        "scooter": (1.14, 1.25),
        "bicycle": (0.95, 1.18),
        "car": (1.56, 1.38),
    },
)

_BUILTIN_PREFIX = "builtin:"


def _load(source: str | Path, builtins: dict, kind: str, build):
    """The shipped profile ``source`` names as ``builtin:<name>``, or ``build`` of its file."""
    if isinstance(source, str) and source.startswith(_BUILTIN_PREFIX):
        name = source[len(_BUILTIN_PREFIX):]
        try:
            return builtins[name]
        except KeyError:
            raise MissingDataError(f"no builtin {kind} {name!r}") from None
    return read_json(source, "profile file", kind, build)


def _vip_id(payload: dict) -> str:
    """The profile's ``vip_id``; JSON ``null`` names no one, like ``""``."""
    vip_id = payload["vip_id"]
    return "" if vip_id is None else str(vip_id)


def _regression(payload: dict) -> RegressionModel:
    return RegressionModel(
        a=float(payload["a"]),
        b=float(payload["b"]),
        c=float(payload["c"]),
        mode=payload["mode"],
        calibrated_for=_vip_id(payload),
    )


def _depth(payload: dict) -> DepthProfile:
    pair = payload.get("pair")
    return DepthProfile(
        vip_id=_vip_id(payload),
        m=float(payload["m"]),
        s=float(payload["s"]),
        unit=payload.get("unit", "m"),
        pair=tuple(float(d) for d in pair) if pair is not None else None,
        norm_method=payload.get("norm_method", LOW_THRESHOLD),
        lt_percentile=float(payload.get("lt_percentile", 10.0)),
        lt_take=payload.get("lt_take", "lowest"),
        smooth_window=whole(payload.get("smooth_window", 5), "smooth_window"),
    )


def _height_table(payload: dict) -> HeightTable:
    expected = {}
    actual = {}
    for label, entry in payload.items():
        expected[label] = float(entry["expected_m"])
        if entry.get("actual_m"):
            actual[label] = tuple(float(h) for h in entry["actual_m"])
    return HeightTable(expected_m=expected, actual_m=actual)


def load_camera_profile(source: str | Path) -> CameraIntrinsics:
    return _load(source, BUILTIN_CAMERA, "camera profile", camera_from_payload)


def load_regression_profile(source: str | Path) -> RegressionModel:
    return _load(source, BUILTIN_REGRESSION, "regression profile", _regression)


def load_depth_profile(source: str | Path) -> DepthProfile:
    return _load(source, BUILTIN_DEPTH, "depth profile", _depth)


def load_height_table(source: str | Path) -> HeightTable:
    return _load(source, {"default": DEFAULT_HEIGHTS}, "height table", _height_table)


def _write_json(path: str | Path, payload: dict) -> None:
    try:
        text = canonical_json(payload)
    except ValueError as exc:  # the encoder refuses non-finite numbers
        raise NonFiniteError(f"profile file {path} not written: {exc}") from None
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise unwritable(f"profile file {path}", exc) from exc


def camera_from_payload(payload: dict) -> CameraIntrinsics:
    """The camera of a profile file or of a scene, in the keys :func:`save_profile` writes."""
    return CameraIntrinsics(
        focal_length_px=float(payload["focal_length_px"]),
        image_width_px=whole(payload["image_w"], "image_w"),
        image_height_px=whole(payload["image_h"], "image_h"),
        fov_deg=float(payload["fov_deg"]) if "fov_deg" in payload else None,
    )


def save_profile(
    path: str | Path, profile: CameraIntrinsics | RegressionModel | DepthProfile
) -> None:
    """Write ``profile`` as canonical JSON with the keys its file format names."""
    if isinstance(profile, CameraIntrinsics):
        payload = {
            "focal_length_px": profile.focal_length_px,
            "image_w": profile.image_width_px,
            "image_h": profile.image_height_px,
        }
        if profile.fov_deg is not None:
            payload["fov_deg"] = profile.fov_deg
    elif isinstance(profile, RegressionModel):
        payload = {
            "vip_id": profile.calibrated_for,
            "mode": profile.mode,
            "a": profile.a,
            "b": profile.b,
            "c": profile.c,
        }
    else:
        payload = asdict(profile)  # a pair tuple is written as a list
    _write_json(path, payload)
