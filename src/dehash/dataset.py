"""Dataset ingestion and the synthetic retrieval benchmark generator.

The generator builds a controllable retrieval problem on top of a trained
vocabulary: disjoint per-category word pools, relevance groups that share a
word multiset, descriptors placed at leaf centers plus optional Gaussian
noise, and GPS clustered per category.  With zero noise the generated BoW of
an image equals its sampled multiset exactly, which anchors the end-to-end
reconstruction checks.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formats import EARTH_RADIUS_M, check_gps, load_descriptors, save_descriptors
from .vocab import VocabularyTree


@dataclass(frozen=True)
class ManifestEntry:
    image_id: str
    descriptor_path: str
    gps: tuple[float, float] | None
    category: int | None
    relevant_ids: tuple[str, ...]


_gps_text = "{:.12g}".format  # a GPS coordinate as the manifest writes it


def write_manifest(path, entries: list[ManifestEntry]) -> None:
    """Tab-separated manifest, one image per line, "-" for absent fields."""
    lines = []
    for e in entries:
        lat, lon = map(_gps_text, e.gps) if e.gps else ("-", "-")
        cat = str(e.category) if e.category is not None else "-"
        rel = ",".join(e.relevant_ids) if e.relevant_ids else "-"
        lines.append("\t".join([e.image_id, e.descriptor_path, lat, lon, cat, rel]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> list[ManifestEntry]:
    """The entries of a manifest that ``write_manifest`` wrote.

    ``ValueError``, naming ``path:line``, on a malformed line, a GPS fix
    ``check_gps`` rejects or that gives one coordinate only, a category that
    is not an integer in uint32 (the query payload's type), a repeated id,
    or a relevant id that is the image itself or names no image of the
    manifest: neither could ever be retrieved, so its query's AP would drop
    without an error.
    """
    entries = []
    line_of: dict[str, int] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 6:
            raise ValueError(f"{path}:{lineno}: expected 6 tab-separated fields, got {len(parts)}")
        image_id, desc_path, lat, lon, cat, rel = parts
        if image_id in line_of:
            raise ValueError(f"{path}:{lineno}: image id {image_id!r} listed twice")
        line_of[image_id] = lineno
        try:
            if (lat == "-") != (lon == "-"):
                raise ValueError(f"GPS fix ({lat}, {lon}) gives one coordinate only")
            gps = None if lat == "-" else check_gps(lat, lon)
            if cat != "-" and not (cat.isascii() and cat.isdigit() and int(cat) < 2**32):
                raise ValueError(f"category {cat!r} is not an integer in [0, 2**32)")
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        category = None if cat == "-" else int(cat)
        relevant = tuple(r for r in rel.split(",") if r) if rel != "-" else ()
        if image_id in relevant:
            raise ValueError(f"{path}:{lineno}: image {image_id!r} lists itself as relevant")
        entries.append(ManifestEntry(image_id, desc_path, gps, category, relevant))
    if not entries:
        raise ValueError(f"{path}: manifest is empty")
    for entry in entries:
        unknown = [r for r in entry.relevant_ids if r not in line_of]
        if unknown:
            raise ValueError(
                f"{path}:{line_of[entry.image_id]}: relevant image {unknown[0]!r} is not in the manifest"
            )
    return entries


@dataclass
class Dataset:
    """Manifest entries plus per-image descriptors."""

    entries: list[ManifestEntry]
    descriptors: dict[str, np.ndarray]
    dim: int

    @property
    def ids(self) -> list[str]:
        return [e.image_id for e in self.entries]

    def gps_by_id(self) -> dict[str, tuple[float, float]]:
        return {e.image_id: e.gps for e in self.entries if e.gps is not None}

    def categories_by_id(self) -> dict[str, int]:
        return {e.image_id: e.category for e in self.entries if e.category is not None}

    def relevance_by_id(self) -> dict[str, set[str]]:
        return {e.image_id: set(e.relevant_ids) for e in self.entries if e.relevant_ids}


def ingest_dataset(manifest_path) -> Dataset:
    """Load every descriptor file referenced by a manifest; all share one dimension."""
    manifest_path = Path(manifest_path)
    entries = read_manifest(manifest_path)
    descriptors: dict[str, np.ndarray] = {}
    dim = None
    for e in entries:
        path = Path(e.descriptor_path)
        if not path.is_absolute():
            path = manifest_path.parent / path
        X = load_descriptors(path)
        dim = X.shape[1] if dim is None else dim
        if X.shape[1] != dim:
            raise ValueError(f"{path}: descriptor dimension {X.shape[1]} differs from {dim} used elsewhere")
        descriptors[e.image_id] = X
    return Dataset(entries=entries, descriptors=descriptors, dim=int(dim))


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs of the synthetic benchmark; every draw is governed by ``seed``."""

    num_images: int = 1000
    descriptors_per_image: tuple[int, int] = (120, 240)
    noise_std: float = 0.03
    query_noise_std: float = 0.05  # extra noise on each group's first member
    num_categories: int = 4
    group_size: int = 5
    words_per_group: tuple[int, int] = (12, 22)
    support_fraction: tuple[float, float] = (0.7, 0.95)
    distractor_fraction: float = 0.1
    gps_base: tuple[float, float] = (45.0, 7.0)
    gps_cluster_km: float = 5.0
    gps_noise_m: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("num_images", "group_size", "num_categories"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("descriptors_per_image", "words_per_group"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} must be a pair 1 <= lo <= hi, got {getattr(self, name)}")
        lo, hi = self.support_fraction
        if not 0.0 <= lo <= hi <= 1.0:
            raise ValueError(f"support_fraction must be a pair 0 <= lo <= hi <= 1, got {(lo, hi)}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if not 0.0 <= self.distractor_fraction < 1.0:
            raise ValueError("distractor_fraction must lie in [0, 1)")
        try:
            check_gps(*self.gps_base)
        except ValueError as exc:
            raise ValueError(f"gps_base must be a valid GPS fix: {exc}") from None
        if any(abs(lat) > 90.0 for lat, _ in _category_locations(self)):
            raise ValueError(
                f"gps_base must keep the category clusters within latitude +-90: {self.gps_base} "
                f"lies within gps_cluster_km={self.gps_cluster_km:g} of a pole"
            )


@dataclass
class SyntheticDataset(Dataset):
    truth: dict[str, Counter]  # image id -> sampled word multiset
    category_pools: list[np.ndarray]  # disjoint leaf-id pools per category
    groups: list[list[str]]  # relevance groups (distractors excluded)


def training_blob(dim: int, num_points: int, num_blobs: int, seed: int = 0) -> np.ndarray:
    """Nested Gaussian-mixture descriptors for vocabulary training.

    Blob centers are laid out hierarchically (``num_blobs`` children per
    level, one level per scale) so the trained tree gets well-separated leaf
    centers; descriptor spaces with flat cluster structure produce leaf
    dictionaries too coherent for sparse recovery.  The scales keep
    residual sums of order one, so sparsity weights in the conventional
    0.001-to-0.1 range behave the way they do on L2-normalized signatures.
    """
    scales, noise = (0.2, 0.1, 0.05), 0.0075  # per level, then per point
    rng = np.random.default_rng([seed, 0x54424C])
    centers = rng.uniform(-scales[0], scales[0], size=(num_blobs, dim))
    for spread in scales[1:]:
        offsets = rng.normal(0.0, spread, size=(centers.shape[0], num_blobs, dim))
        centers = (centers[:, None, :] + offsets).reshape(-1, dim)
    picks = rng.integers(0, centers.shape[0], size=num_points)
    return centers[picks] + rng.normal(0.0, noise, size=(num_points, dim))


def _category_locations(spec: SyntheticSpec) -> list[tuple[float, float]]:
    """Category cluster centers on a ring around the base location."""
    lat0, lon0 = spec.gps_base
    radius_deg = spec.gps_cluster_km * 1000.0 / 111_320.0
    locations = []
    for c in range(spec.num_categories):
        angle = 2.0 * np.pi * c / spec.num_categories
        locations.append(
            (lat0 + radius_deg * float(np.sin(angle)), lon0 + radius_deg * float(np.cos(angle)))
        )
    return locations


def simulate_gps(
    true_location: tuple[float, float],
    sigma_meters: float,
    seed: int | np.random.Generator = 0,
) -> tuple[float, float]:
    """Perturb a location with independent Gaussian noise per tangent-plane
    axis.  A fix pushed past a pole is reflected back over it, onto the
    opposite meridian, and the longitude is wrapped into [-180, 180]."""
    lat, lon = true_location
    if not -90.0 <= lat <= 90.0:
        raise ValueError(f"latitude {lat} out of range")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    dy, dx = rng.normal(0.0, sigma_meters, size=2) if sigma_meters > 0 else (0.0, 0.0)
    if abs(lat) < 90.0:  # at a pole itself every longitude is the same place
        lon += math.degrees(dx / (EARTH_RADIUS_M * math.cos(math.radians(lat))))
    lat += math.degrees(dy / EARTH_RADIUS_M)
    if abs(lat) > 90.0:
        lat = math.copysign(180.0, lat) - lat
        lon += 180.0
    return (lat, math.remainder(lon, 360.0))


def synthesize_dataset(spec: SyntheticSpec, tree: VocabularyTree, out_dir=None) -> SyntheticDataset:
    """Draw a dataset and its ground truth in memory, and write it to ``out_dir``
    if given; the data equal what ``ingest_dataset`` reads back from the files.

    Non-distractor images come in groups of ``group_size`` sharing one word
    pool; each member draws its own subset of that pool (``support_fraction``
    of it) with its own multiplicities, the way photos of one object share
    most but not all of their words.  Group members are each other's relevant
    images.  Distractors draw an individual support and are relevant to
    nothing.  Each group's first member doubles as its designated query and
    receives ``query_noise_std`` extra descriptor noise, mirroring a
    mobile-captured query against a curated database.
    """
    if spec.num_categories > tree.num_leaves:
        raise ValueError("more categories than vocabulary words")
    rng = np.random.default_rng([spec.seed, 0x53594E])

    pool_perm = rng.permutation(tree.num_leaves)
    splits = np.array_split(pool_perm, spec.num_categories)
    category_pools = [np.sort(s) for s in splits]

    num_distractors = int(round(spec.num_images * spec.distractor_fraction))
    num_grouped = spec.num_images - num_distractors
    num_groups = max(1, num_grouped // spec.group_size)
    cat_locations = _category_locations(spec)

    lo_w, hi_w = spec.words_per_group
    group_specs = []
    for g in range(num_groups):
        category = g % spec.num_categories
        pool = category_pools[category]
        k = int(rng.integers(lo_w, hi_w + 1))
        k = min(k, pool.size)
        support = rng.choice(pool, size=k, replace=False)
        group_specs.append((category, np.sort(support)))

    width = len(str(spec.num_images - 1))
    ids = [f"img_{i:0{width}d}" for i in range(spec.num_images)]
    # Membership is fixed by index, before any draw: image i < num_grouped
    # joins group i % num_groups, so each image's relevant ids are known upfront.
    groups = [ids[g:num_grouped:num_groups] for g in range(num_groups)]
    entries: list[ManifestEntry] = []
    descriptors: dict[str, np.ndarray] = {}
    truth: dict[str, Counter] = {}
    leaf_centers = np.asarray(tree.leaf_centers, dtype=np.float64)
    lo_d, hi_d = spec.descriptors_per_image

    lo_f, hi_f = spec.support_fraction

    def emit(
        image_id: str, support: np.ndarray, category: int, noise_std: float
    ) -> tuple[Counter, tuple[float, float]]:
        count = int(rng.integers(lo_d, hi_d + 1))
        picks = rng.choice(support, size=count, replace=True)
        multiset = Counter(int(p) for p in picks)
        X = leaf_centers[picks]
        if noise_std > 0:
            X = X + rng.normal(0.0, noise_std, size=X.shape)
        descriptors[image_id] = X.astype(np.float32)
        gps = simulate_gps(cat_locations[category], spec.gps_noise_m, rng)
        return multiset, check_gps(*map(_gps_text, gps))  # the fix as the manifest reads back

    def member_support(pool: np.ndarray) -> np.ndarray:
        frac = float(rng.uniform(lo_f, hi_f))
        k = max(1, int(round(frac * pool.size)))
        return rng.choice(pool, size=k, replace=False)

    for i, image_id in enumerate(ids):
        noise_std = spec.noise_std
        relevant: tuple[str, ...] = ()
        if i < num_grouped:
            group = i % num_groups
            category, pool = group_specs[group]
            support = member_support(pool)
            if i < num_groups:  # first member doubles as the group's query
                noise_std += spec.query_noise_std
            relevant = tuple(m for m in groups[group] if m != image_id)
        else:
            category = int(rng.integers(0, spec.num_categories))
            pool = category_pools[category]
            k = min(int(rng.integers(lo_w, hi_w + 1)), pool.size)
            support = rng.choice(pool, size=k, replace=False)
        multiset, gps = emit(image_id, support, category, noise_std)
        truth[image_id] = multiset
        entries.append(
            ManifestEntry(
                image_id=image_id,
                descriptor_path=f"descriptors/{image_id}.desc",
                gps=gps,
                category=category,
                relevant_ids=relevant,
            )
        )

    if out_dir is not None:
        out_dir = Path(out_dir)
        (out_dir / "descriptors").mkdir(parents=True, exist_ok=True)
        for e in entries:
            save_descriptors(out_dir / e.descriptor_path, descriptors[e.image_id])
        write_manifest(out_dir / "manifest.tsv", entries)
    return SyntheticDataset(
        entries, descriptors, tree.dim, truth, category_pools, [g for g in groups if len(g) > 1]
    )
