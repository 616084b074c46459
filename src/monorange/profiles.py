"""Calibration-profile files and the named profiles this package ships.

Profile objects mirror their on-disk JSON exactly (including the unit a
depth profile was recorded in), so write -> read -> write round trips are
byte-identical; unit conversion happens only when a profile is turned into
working coefficients. Loaders accept a filesystem path or ``builtin:<name>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .common import (
    PARSE_ERRORS, DomainError, FormatError, MissingDataError, canonical_json, read_json,
    unwritable,
)
from .depth import DepthCoefficients, PROVENANCE_STATIC
from .geometry import CameraIntrinsics, HeightTable
from .regression import MODE_THREE, MODE_TWO, RegressionModel


@dataclass(frozen=True)
class CameraProfile:
    focal_length_px: float
    image_w: int
    image_h: int
    fov_deg: float | None = None

    def to_intrinsics(self) -> CameraIntrinsics:
        return CameraIntrinsics(
            focal_length_px=self.focal_length_px,
            image_width_px=self.image_w,
            image_height_px=self.image_h,
            fov_deg=self.fov_deg,
        )

    def payload(self) -> dict:
        data = {
            "focal_length_px": self.focal_length_px,
            "image_w": self.image_w,
            "image_h": self.image_h,
        }
        if self.fov_deg is not None:
            data["fov_deg"] = self.fov_deg
        return data


@dataclass(frozen=True)
class RegressionProfile:
    vip_id: str
    mode: str
    a: float
    b: float
    c: float

    def to_model(self) -> RegressionModel:
        return RegressionModel(
            a=self.a, b=self.b, c=self.c, mode=self.mode, calibrated_for=self.vip_id
        )

    def payload(self) -> dict:
        return {"vip_id": self.vip_id, "mode": self.mode, "a": self.a, "b": self.b, "c": self.c}


@dataclass(frozen=True)
class DepthProfile:
    """Scale/shift calibration as recorded, with its unit and method settings."""

    vip_id: str
    m: float
    s: float
    unit: str = "m"
    pair: tuple[float, float] | None = None
    lt_percentile: float = 10.0
    smooth_window: int = 5

    def __post_init__(self):
        if self.unit not in ("m", "cm"):
            raise DomainError(f"unknown unit {self.unit!r}; expected 'm' or 'cm'")

    def to_coefficients(self) -> DepthCoefficients:
        """Working coefficients in meters regardless of the recorded unit."""
        scale = 0.01 if self.unit == "cm" else 1.0
        return DepthCoefficients(
            m=self.m * scale,
            s=self.s * scale,
            provenance=PROVENANCE_STATIC,
            fitted_pair=self.pair,
        )

    def payload(self) -> dict:
        return {
            "vip_id": self.vip_id,
            "m": self.m,
            "s": self.s,
            "unit": self.unit,
            "pair": list(self.pair) if self.pair is not None else None,
            "lt_percentile": self.lt_percentile,
            "smooth_window": self.smooth_window,
        }


# Profiles calibrated on the reference drone camera (values as published for
# the three calibration subjects); depth profiles were recorded in centimeters.
BUILTIN_CAMERA = {
    "tello": CameraProfile(focal_length_px=1592.0, image_w=1280, image_h=720, fov_deg=82.6),
}

BUILTIN_REGRESSION = {
    "P1": RegressionProfile(vip_id="P1", mode=MODE_THREE, a=-2.42, b=-1.29, c=0.0043),
    "P2": RegressionProfile(vip_id="P2", mode=MODE_THREE, a=-2.14, b=-1.77, c=0.0050),
    "P3": RegressionProfile(vip_id="P3", mode=MODE_THREE, a=-2.56, b=-2.10, c=0.0065),
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


def load_camera_profile(source: str | Path) -> CameraProfile:
    if isinstance(source, str) and source.startswith(_BUILTIN_PREFIX):
        name = source[len(_BUILTIN_PREFIX):]
        try:
            return BUILTIN_CAMERA[name]
        except KeyError:
            raise MissingDataError(f"no builtin camera profile {name!r}") from None
    payload = read_json(source, "profile file")
    try:
        return CameraProfile(
            focal_length_px=float(payload["focal_length_px"]),
            image_w=int(payload["image_w"]),
            image_h=int(payload["image_h"]),
            fov_deg=float(payload["fov_deg"]) if "fov_deg" in payload else None,
        )
    except PARSE_ERRORS as exc:
        raise FormatError(f"{source}: malformed camera profile ({exc})") from exc


def load_regression_profile(source: str | Path) -> RegressionProfile:
    if isinstance(source, str) and source.startswith(_BUILTIN_PREFIX):
        name = source[len(_BUILTIN_PREFIX):]
        try:
            return BUILTIN_REGRESSION[name]
        except KeyError:
            raise MissingDataError(f"no builtin regression profile {name!r}") from None
    payload = read_json(source, "profile file")
    try:
        mode = payload["mode"]
        if mode not in (MODE_THREE, MODE_TWO):
            raise FormatError(f"{source}: unknown mode {mode!r}")
        return RegressionProfile(
            vip_id=str(payload["vip_id"]),
            mode=mode,
            a=float(payload["a"]),
            b=float(payload["b"]),
            c=float(payload["c"]),
        )
    except PARSE_ERRORS as exc:
        raise FormatError(f"{source}: malformed regression profile ({exc})") from exc


def load_depth_profile(source: str | Path) -> DepthProfile:
    if isinstance(source, str) and source.startswith(_BUILTIN_PREFIX):
        name = source[len(_BUILTIN_PREFIX):]
        try:
            return BUILTIN_DEPTH[name]
        except KeyError:
            raise MissingDataError(f"no builtin depth profile {name!r}") from None
    payload = read_json(source, "profile file")
    try:
        pair = payload.get("pair")
        return DepthProfile(
            vip_id=str(payload["vip_id"]),
            m=float(payload["m"]),
            s=float(payload["s"]),
            unit=payload.get("unit", "m"),
            pair=(float(pair[0]), float(pair[1])) if pair is not None else None,
            lt_percentile=float(payload.get("lt_percentile", 10.0)),
            smooth_window=int(payload.get("smooth_window", 5)),
        )
    except PARSE_ERRORS as exc:
        raise FormatError(f"{source}: malformed depth profile ({exc})") from exc


def load_height_table(source: str | Path) -> HeightTable:
    if isinstance(source, str) and source == _BUILTIN_PREFIX + "default":
        return DEFAULT_HEIGHTS
    payload = read_json(source, "profile file")
    expected = {}
    actual = {}
    try:
        for label, entry in payload.items():
            expected[label] = float(entry["expected_m"])
            if "actual_m" in entry and entry["actual_m"]:
                actual[label] = tuple(float(h) for h in entry["actual_m"])
        return HeightTable(expected_m=expected, actual_m=actual)
    except PARSE_ERRORS as exc:
        raise FormatError(f"{source}: malformed height table ({exc})") from exc


def _write_json(path: str | Path, payload: dict) -> None:
    try:
        Path(path).write_text(canonical_json(payload))
    except OSError as exc:
        raise unwritable(f"profile file {path}", exc) from exc


def save_profile(
    path: str | Path, profile: CameraProfile | RegressionProfile | DepthProfile
) -> None:
    _write_json(path, profile.payload())


def save_height_table(path: str | Path, table: HeightTable) -> None:
    payload = {}
    for label in sorted(table.expected_m):
        entry: dict = {"expected_m": table.expected_m[label]}
        if label in table.actual_m:
            entry["actual_m"] = list(table.actual_m[label])
        payload[label] = entry
    _write_json(path, payload)
