"""Feature-file ingestion, dataset manifests, and a synthetic data generator.

Feature file layout (little-endian throughout):
    bytes 0-3   magic "FACF"
    bytes 4-7   u32 format version (1)
    bytes 8-11  u32 T  (snippet count)
    bytes 12-15 u32 D  (feature dimension)
    bytes 16-   T*D float32 values, row-major

The manifest is a single JSON document; see ``parse_manifest`` for the
field-by-field validation rules.
"""
from __future__ import annotations

import contextlib
import functools
import json
import os
import struct
import sys
import zipfile
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, FormatError, InputError, ManifestError

FEATURE_MAGIC = b"FACF"
FEATURE_VERSION = 1
MANIFEST_VERSION = 1
MAX_VIDEO_FRAMES = 2 ** 20  # snippets * stride; localize holds each frame per class


@contextlib.contextmanager
def atomic_write(path, newline: str | None = None, binary: bool = False):
    """Open a file that appears at ``path`` only once it is complete.

    Text mode unless ``binary``. The content goes to a sibling temporary file
    that replaces ``path`` in one ``os.replace`` when the block ends. If the
    block raises, the temporary file is removed and any earlier file at
    ``path`` is untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if binary else "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_features(path, array: np.ndarray) -> None:
    array = np.asarray(array)
    if array.ndim != 2:
        raise InputError(f"feature array must be 2-d, got shape {array.shape}")
    if not np.isfinite(array).all():
        raise InputError("feature array contains non-finite values")
    with atomic_write(path, binary=True) as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<III", FEATURE_VERSION, array.shape[0], array.shape[1]))
        fh.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def read_feature_header(fh, path) -> tuple[int, int]:
    """(T, D) from the 16-byte header of the open file ``fh``, read from ``path``."""
    head = fh.read(16)
    if len(head) < 16:
        raise FormatError(f"truncated feature header ({len(head)} bytes) in {path}")
    if head[:4] != FEATURE_MAGIC:
        raise FormatError(f"bad feature magic at offset 0 in {path}")
    version, t, d = struct.unpack("<III", head[4:16])
    if version != FEATURE_VERSION:
        raise FormatError(f"unsupported feature version {version} at offset 4 in {path}")
    return t, d


def load_features(path) -> np.ndarray:
    """The (T, D) float32 payload, read straight into its array once the file
    size has been checked against the header; one open of the file."""
    with open(path, "rb") as fh:
        t, d = read_feature_header(fh, path)
        expected = 4 * t * d
        size = os.fstat(fh.fileno()).st_size - 16
        if size != expected:
            raise FormatError(
                f"feature payload is {size} bytes at offset 16, expected {expected} in {path}")
        data = np.empty((t, d), dtype="<f4")
        got = fh.readinto(data)
    if got != expected:
        raise FormatError(
            f"feature payload is {got} bytes at offset 16, expected {expected} in {path}")
    if not np.isfinite(data).all():
        raise InputError(f"feature payload contains non-finite values in {path}")
    return data


def convert_raw_features(in_path, t: int, d: int, out_path) -> None:
    """Wrap a headerless float32 T x D blob into the feature file format."""
    if not (0 <= t < 2 ** 32 and 0 <= d < 2 ** 32):  # the feature header stores u32
        raise ConfigError(f"T and D must lie in [0, 2**32), got {t}x{d}")
    raw = Path(in_path).read_bytes()
    expected = 4 * t * d
    if len(raw) != expected:
        raise FormatError(f"raw blob is {len(raw)} bytes, expected {expected} for {t}x{d}")
    save_features(out_path, np.frombuffer(raw, dtype="<f4").reshape(t, d))


@dataclass(frozen=True)
class GroundTruthInstance:
    video_id: str
    class_id: int
    start: float
    end: float


@dataclass
class VideoEntry:
    video_id: str
    split: str
    fps: float
    snippet_stride: int
    features: dict[str, Path]  # stream name -> feature file path
    labels: list[str]
    ground_truth: list[GroundTruthInstance] = field(default_factory=list)
    num_snippets: int = 0

    @property
    def duration(self) -> float:
        return self.num_snippets * self.snippet_stride / self.fps


@dataclass
class Manifest:
    classes: list[str]
    videos: list[VideoEntry]
    streams: tuple[str, ...]  # the stream names of every video, sorted
    feature_dim: int  # width of a ``VideoSplit`` sample: every stream's features side by side

    def label_vector(self, entry: VideoEntry) -> np.ndarray:
        y = np.zeros(len(self.classes), dtype=np.float64)
        for label in entry.labels:
            y[self.classes.index(label)] = 1.0
        return y

    def split(self, tag: str) -> list[VideoEntry]:
        return [v for v in self.videos if v.split == tag]

    def video_features(self, entry: VideoEntry) -> np.ndarray:
        """The features of every stream of ``entry`` side by side, in ``streams`` order."""
        streams = [load_features(entry.features[s]) for s in self.streams]
        return streams[0] if len(streams) == 1 else np.concatenate(streams, axis=1)


def read_json(path, error: type[Exception]):
    """The JSON document in ``path``; ``error`` naming the file if it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise error(f"{path}: not valid JSON ({exc})") from None


def read_archive(path, what: str) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` archive in ``path``; ``FormatError`` naming the
    file if it is no archive of plain arrays, ``OSError`` if it is missing."""
    with open(path, "rb") as fh:
        try:
            with np.load(fh) as data:
                return {key: data[key] for key in data.files}
        # what the zip and npy readers raise on other bytes (TypeError: a bare .npy)
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: not a {what} archive ({exc!r})") from None


def has_json_type(value, hint) -> bool:
    """Whether a JSON value fits a type hint: an int is a float, a list is a
    tuple, and a bool is neither an int nor a float."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return any(has_json_type(value, arg) for arg in args)
    if origin is tuple:  # every config tuple holds one element type
        return isinstance(value, (list, tuple)) and all(has_json_type(v, args[0]) for v in value) \
            and (args[-1] is Ellipsis or len(value) == len(args))
    return isinstance(value, {float: (int, float)}.get(hint, hint)) \
        and (hint is bool or not isinstance(value, bool))


@functools.cache
def _field_types(cls) -> dict:
    """The type hints of config class ``cls``, evaluated once per class."""
    return get_type_hints(cls)


def build_config(cls, mapping: dict, **fixed):
    """``cls(**mapping, **fixed)``; ``ConfigError`` naming an unknown key, or a value
    of the wrong JSON type or not finite."""
    hints = _field_types(cls)
    unknown = set(mapping) - set(hints)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    values = {}
    for key, value in mapping.items():
        if not has_json_type(value, hints[key]):
            expected = hints[key].__name__ if isinstance(hints[key], type) else hints[key]
            raise ConfigError(f"{cls.__name__}.{key} must be {expected}, got {value!r}")
        # a check such as ``x <= 0`` lets NaN through: every comparison with it is
        # False; an int beyond the float range overflows where it is converted
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, (int, float)) and not abs(v) <= sys.float_info.max
               for v in items):
            raise ConfigError(f"{cls.__name__}.{key} must be finite, got {value!r}")
        values[key] = tuple(value) if isinstance(value, list) else value
    return cls(**{**values, **fixed})


def _typed(vid: str, record: dict, key: str, kind: type, default):
    """``record[key]`` (``default`` when absent), which must have JSON type ``kind``."""
    value = record.get(key, default)
    if not has_json_type(value, kind):
        name = {float: "number", int: "integer"}.get(kind, kind.__name__)
        raise ManifestError(f"video {vid}: {key} must be a {name}, got {value!r}")
    return value


def parse_manifest(path) -> Manifest:
    """Parse and fully validate a manifest JSON document.

    Checks, in order: schema version; class list non-empty and unique; for
    each video a unique id, a known split, positive fps/stride, existing
    feature files sharing one stream set, each stream at least 1 wide and as
    wide as in the first video, at most ``MAX_VIDEO_FRAMES`` frames (snippets times
    stride), labels drawn from the class list and at least one on a train
    video, and ground-truth spans, each an object with a known label and JSON
    number start and end lying inside the video duration (duration = T * stride /
    fps, T from the feature header). A field of the wrong JSON type raises
    ``ManifestError`` naming the video and the field.
    """
    path = Path(path)
    doc = read_json(path, ManifestError)
    if not isinstance(doc, dict) or doc.get("schema_version") != MANIFEST_VERSION:
        raise ManifestError(f"manifest schema_version must be {MANIFEST_VERSION}")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes \
            or not all(isinstance(c, str) for c in classes) or len(set(classes)) != len(classes):
        raise ManifestError("manifest classes must be a non-empty list of unique strings")
    records = doc.get("videos", [])
    if not isinstance(records, list):
        raise ManifestError(f"manifest videos must be a list, got {records!r}")
    root = path.parent
    videos: list[VideoEntry] = []
    seen_ids: set[str] = set()
    widths: dict[str, tuple[str, int]] = {}  # stream -> (first video, its feature width)
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            raise ManifestError(f"video #{index} must be an object, got {record!r}")
        vid = _typed(f"#{index}", record, "id", str, None)
        if not vid or vid in seen_ids:
            raise ManifestError(f"missing or duplicate video id {vid!r}")
        seen_ids.add(vid)
        split = record.get("split")
        if split not in ("train", "test"):
            raise ManifestError(f"video {vid}: split must be 'train' or 'test'")
        fps = _typed(vid, record, "fps", float, None)
        stride = _typed(vid, record, "snippet_stride", int, None)
        if not (0 < fps <= sys.float_info.max and 1 <= stride < 2 ** 32):
            raise ManifestError(f"video {vid}: fps must be positive and finite and "
                                f"snippet_stride in [1, 2**32), got {fps!r} and {stride!r}")
        features = _typed(vid, record, "features", dict, {})
        if not features or not all(isinstance(rel, str) for rel in features.values()):
            raise ManifestError(f"video {vid}: features must map each stream to a file "
                                f"path, got {features!r}")
        features = {name: root / rel for name, rel in features.items()}
        streams, stream_set = tuple(sorted(features)), tuple(sorted(widths))
        if videos and streams != stream_set:
            raise ManifestError(f"video {vid}: stream set {streams} differs from {stream_set}")
        num_snippets = None
        for stream, fpath in features.items():
            if not os.path.isfile(fpath):  # unlike Path.is_file, False for a too-long name
                raise ManifestError(f"video {vid}: missing feature file {fpath}")
            with open(fpath, "rb") as fh:
                t, d = read_feature_header(fh, fpath)
            if num_snippets is None:
                num_snippets = t
            elif t != num_snippets:
                raise ManifestError(
                    f"video {vid}: stream {stream} has {t} snippets, expected {num_snippets}")
            if d == 0:
                raise ManifestError(f"video {vid}: stream {stream} has feature width 0")
            first, width = widths.setdefault(stream, (vid, d))
            if d != width:
                raise ManifestError(f"video {vid}: stream {stream} has feature width {d}, "
                                    f"but {width} in video {first}")
        if num_snippets * stride > MAX_VIDEO_FRAMES:
            raise ManifestError(f"video {vid}: {num_snippets} snippets at snippet_stride "
                                f"{stride} make {num_snippets * stride} frames, more than "
                                f"the {MAX_VIDEO_FRAMES} allowed")
        labels = _typed(vid, record, "labels", list, [])
        for label in labels:
            if label not in classes:
                raise ManifestError(f"video {vid}: unknown class {label!r}")
        if split == "train" and not labels:
            raise ManifestError(f"video {vid}: a train video needs at least one label")
        entry = VideoEntry(video_id=vid, split=split, fps=float(fps), snippet_stride=stride,
                           features=features, labels=list(labels),
                           num_snippets=int(num_snippets))
        for gt in _typed(vid, record, "ground_truth", list, []):
            # JSON numbers: int or float, and a bool is neither
            if not (isinstance(gt, dict) and "label" in gt
                    and {type(gt.get("start")), type(gt.get("end"))} <= {int, float}):
                raise ManifestError(f"video {vid}: ground truth {gt!r} needs a label and "
                                    f"start and end that are JSON numbers")
            label, start, end = gt["label"], gt["start"], gt["end"]
            if label not in classes:
                raise ManifestError(f"video {vid}: unknown ground-truth class {label!r}")
            if not 0 <= start < end or end > entry.duration + 1e-9:
                raise ManifestError(
                    f"video {vid}: ground truth [{start}, {end}) outside duration "
                    f"{entry.duration:.3f}")
            entry.ground_truth.append(
                GroundTruthInstance(vid, classes.index(label), float(start), float(end)))
        videos.append(entry)
    if not videos:
        raise ManifestError("manifest lists no videos")
    return Manifest(classes=list(classes), videos=videos, streams=tuple(sorted(widths)),
                    feature_dim=sum(width for _, width in widths.values()))


@dataclass
class VideoSample:
    """One video ready for training: features in memory plus its label vector."""
    features: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class VideoSplit(Sequence):
    """The videos of one split as ``VideoSample``s. Indexing a video reads its
    features from its files through ``Manifest.video_features``, with every check
    of ``load_features``; the split itself holds no features. A video of 0
    snippets opens no file: its sample is (0, feature_dim)."""
    manifest: Manifest
    entries: list[VideoEntry]

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, index) -> VideoSample:
        entry = self.entries[index]
        features = (self.manifest.video_features(entry) if entry.num_snippets
                    else np.zeros((0, self.manifest.feature_dim), dtype="<f4"))
        return VideoSample(features, self.manifest.label_vector(entry))


def ground_truth_instances(manifest: Manifest, split: str) -> list[GroundTruthInstance]:
    """The ground-truth instances of one split, in manifest order."""
    return [gt for entry in manifest.split(split) for gt in entry.ground_truth]


@dataclass
class SynthConfig:
    num_classes: int = 5
    num_train: int = 40
    num_test: int = 20
    feature_dim: int = 64
    snippet_range: tuple[int, int] = (60, 200)
    instances_range: tuple[int, int] = (1, 4)
    instance_len_range: tuple[int, int] = (8, 40)
    separation_margin: float = 0.3
    noise: float = 0.1
    snippet_stride: int = 16
    fps: float = 25.0
    seed: int = 0
    streams: tuple[str, ...] = ("rgb",)

    def __post_init__(self):
        self.streams = tuple(self.streams)
        if self.num_classes < 1 or self.num_train < 1 or self.num_test < 0:
            raise ConfigError("synthetic dataset sizes must be positive")
        if not 1 <= self.feature_dim < 2 ** 32:  # the feature header stores u32
            raise ConfigError("feature_dim must lie in [1, 2**32)")
        if self.separation_margin <= 0:
            raise ConfigError("separation margin must be positive")
        if self.noise < 0:
            raise ConfigError("noise level must be non-negative")
        if self.fps <= 0:
            raise ConfigError("fps must be positive")
        if not 1 <= self.snippet_stride < 2 ** 32:
            raise ConfigError("snippet_stride must lie in [1, 2**32)")
        if not 1 <= self.snippet_range[0] <= self.snippet_range[1] < 2 ** 32:
            raise ConfigError("snippet_range must be [low, high] with 1 <= low <= high < 2**32")
        if self.snippet_range[1] * self.snippet_stride > MAX_VIDEO_FRAMES:
            raise ConfigError(f"snippet_range[1] * snippet_stride must be at most "
                              f"{MAX_VIDEO_FRAMES} frames")
        if not 1 <= self.instances_range[0] <= self.instances_range[1] <= self.snippet_range[0]:
            raise ConfigError("instances_range must be [low, high] with 1 <= low <= high "
                              "<= the shortest video's snippet count")
        lo, hi = self.instance_len_range
        if lo < 1 or lo > hi or lo > self.snippet_range[0]:
            raise ConfigError("instance_len_range must fit the shortest video")
        if not self.streams:
            raise ConfigError("at least one stream required")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")


def _separated_prototypes(rng, count: int, dim: int, margin: float) -> np.ndarray:
    """Unit vectors with pairwise cosine similarity <= 1 - margin."""
    protos: list[np.ndarray] = []
    for _ in range(1000 * count):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        if all(float(v @ p) <= 1.0 - margin for p in protos):
            protos.append(v)
            if len(protos) == count:
                return np.stack(protos)
    raise ConfigError(
        f"separation margin {margin} infeasible for {count} prototypes in {dim} dims")


def _place_instances(rng, num_snippets: int, config: SynthConfig) -> list[tuple[int, int, int]]:
    """Non-overlapping (class, start, end) snippet spans, 2-snippet gaps.

    Each video draws one or two distinct action classes and scatters its
    instances among them, mirroring the label sparsity of real untrimmed
    video collections.
    """
    target = int(rng.integers(config.instances_range[0], config.instances_range[1] + 1))
    distinct = min(int(rng.integers(1, 3)), target, config.num_classes)
    video_classes = rng.permutation(config.num_classes)[:distinct]
    placed: list[tuple[int, int, int]] = []
    for _ in range(50 * target):
        if len(placed) == target:
            break
        lo, hi = config.instance_len_range
        length = int(rng.integers(lo, min(hi, num_snippets) + 1))
        start = int(rng.integers(0, num_snippets - length + 1))
        end = start + length
        if all(end + 2 <= s or e + 2 <= start for _, s, e in placed):
            placed.append((int(rng.choice(video_classes)), start, end))
    return sorted(placed, key=lambda p: p[1])


def generate_synthetic(config: SynthConfig, out_dir) -> Path:
    """Write feature files plus a manifest; returns the manifest path.

    Each class (and the background) gets a separated unit prototype per
    stream; snippets are prototype plus isotropic Gaussian noise. Ground
    truth times follow directly from snippet indices, stride, and fps.
    """
    out_dir = Path(out_dir)
    (out_dir / "features").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(config.seed)
    protos = {stream: _separated_prototypes(rng, config.num_classes + 1,
                                            config.feature_dim, config.separation_margin)
              for stream in config.streams}
    class_names = [f"action_{i:02d}" for i in range(config.num_classes)]
    videos = []
    counts = [("train", config.num_train), ("test", config.num_test)]
    index = 0
    for split, count in counts:
        for _ in range(count):
            vid = f"video_{index:04d}"
            index += 1
            num_snippets = int(rng.integers(config.snippet_range[0],
                                            config.snippet_range[1] + 1))
            spans = _place_instances(rng, num_snippets, config)
            class_of = np.full(num_snippets, config.num_classes)  # background id C
            for cls, start, end in spans:
                class_of[start:end] = cls
            features_rec = {}
            for stream in config.streams:
                feats = protos[stream][class_of]
                feats = feats + config.noise * rng.normal(size=feats.shape)
                rel = f"features/{vid}_{stream}.facf"
                save_features(out_dir / rel, feats.astype(np.float32))
                features_rec[stream] = rel
            seconds = config.snippet_stride / config.fps
            videos.append({
                "id": vid,
                "split": split,
                "fps": config.fps,
                "snippet_stride": config.snippet_stride,
                "features": features_rec,
                "labels": sorted({class_names[cls] for cls, _, _ in spans}),
                "ground_truth": [
                    {"label": class_names[cls], "start": start * seconds,
                     "end": end * seconds}
                    for cls, start, end in spans
                ],
            })
    manifest_path = out_dir / "manifest.json"
    with atomic_write(manifest_path) as fh:
        json.dump({"schema_version": MANIFEST_VERSION, "classes": class_names,
                   "videos": videos}, fh, indent=2)
    return manifest_path
