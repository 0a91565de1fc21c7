"""Benchmark registry: build any of the six paper benchmarks by name.

The numbers in :data:`PAPER_STATISTICS` are copied from Table 3 of the paper
and drive both the synthetic generator targets and the Table 3 reproduction
bench.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro._fingerprints import content_hash, fingerprint_fields
from repro._rng import RandomState
from repro._suggest import unknown_name_message
from repro.config import ScaleProfile
from repro.data.dataset import EMDataset
from repro.data.schema import Attribute, AttributeType, Schema
from repro.data.splits import SplitRatios
from repro.datasets.base import BenchmarkSpec, build_benchmark
from repro.datasets.bibliographic import dblp_scholar_catalog
from repro.datasets.corruptions import CLEAN_SOURCE, DIRTY_SOURCE, CorruptionConfig
from repro.datasets.products import (
    abt_buy_catalog,
    amazon_google_catalog,
    walmart_amazon_catalog,
    wdc_cameras_catalog,
    wdc_shoes_catalog,
)
from repro.exceptions import DatasetError


@dataclass(frozen=True)
class PaperDatasetStatistics:
    """One row of Table 3 in the paper."""

    name: str
    train_size: int
    positive_rate: float
    num_attributes: int


#: Table 3 of the paper (training-set sizes, positive rates, attribute counts).
PAPER_STATISTICS: dict[str, PaperDatasetStatistics] = {
    "walmart_amazon": PaperDatasetStatistics("walmart_amazon", 6144, 0.094, 5),
    "amazon_google": PaperDatasetStatistics("amazon_google", 6874, 0.102, 3),
    "wdc_cameras": PaperDatasetStatistics("wdc_cameras", 4081, 0.210, 1),
    "wdc_shoes": PaperDatasetStatistics("wdc_shoes", 4505, 0.209, 1),
    "abt_buy": PaperDatasetStatistics("abt_buy", 5743, 0.107, 3),
    "dblp_scholar": PaperDatasetStatistics("dblp_scholar", 17223, 0.186, 4),
}

_MODERATE_SOURCE = CorruptionConfig(
    typo_rate=0.02, token_drop_rate=0.06, token_swap_rate=0.03,
    abbreviation_rate=0.12, missing_rate=0.04, numeric_noise=0.05,
    injection_rate=0.08,
)

_WDC_SPLIT = SplitRatios(train=4.0, validation=1.0, test=1.25)


def _walmart_amazon_spec() -> BenchmarkSpec:
    schema = Schema(
        attributes=(
            Attribute("title", AttributeType.TEXT),
            Attribute("category", AttributeType.CATEGORICAL),
            Attribute("brand", AttributeType.CATEGORICAL),
            Attribute("modelno", AttributeType.TEXT),
            Attribute("price", AttributeType.NUMERIC),
        ),
        name="walmart_amazon",
    )
    stats = PAPER_STATISTICS["walmart_amazon"]
    return BenchmarkSpec(
        name=stats.name,
        schema=schema,
        catalog=walmart_amazon_catalog,
        paper_train_size=stats.train_size,
        positive_rate=stats.positive_rate,
        left_corruption=CLEAN_SOURCE,
        right_corruption=_MODERATE_SOURCE,
    )


def _amazon_google_spec() -> BenchmarkSpec:
    schema = Schema(
        attributes=(
            Attribute("title", AttributeType.TEXT),
            Attribute("manufacturer", AttributeType.CATEGORICAL),
            Attribute("price", AttributeType.NUMERIC),
        ),
        name="amazon_google",
    )
    stats = PAPER_STATISTICS["amazon_google"]
    return BenchmarkSpec(
        name=stats.name,
        schema=schema,
        catalog=amazon_google_catalog,
        paper_train_size=stats.train_size,
        positive_rate=stats.positive_rate,
        left_corruption=CLEAN_SOURCE,
        right_corruption=DIRTY_SOURCE,
    )


def _abt_buy_spec() -> BenchmarkSpec:
    schema = Schema(
        attributes=(
            Attribute("name", AttributeType.TEXT),
            Attribute("description", AttributeType.TEXT),
            Attribute("price", AttributeType.NUMERIC),
        ),
        name="abt_buy",
    )
    stats = PAPER_STATISTICS["abt_buy"]
    return BenchmarkSpec(
        name=stats.name,
        schema=schema,
        catalog=abt_buy_catalog,
        paper_train_size=stats.train_size,
        positive_rate=stats.positive_rate,
        left_corruption=CLEAN_SOURCE,
        right_corruption=_MODERATE_SOURCE,
    )


def _wdc_cameras_spec() -> BenchmarkSpec:
    schema = Schema(attributes=(Attribute("title", AttributeType.TEXT),), name="wdc_cameras")
    stats = PAPER_STATISTICS["wdc_cameras"]
    return BenchmarkSpec(
        name=stats.name,
        schema=schema,
        catalog=wdc_cameras_catalog,
        paper_train_size=stats.train_size,
        positive_rate=stats.positive_rate,
        left_corruption=_MODERATE_SOURCE,
        right_corruption=DIRTY_SOURCE,
        serialized_attributes=("title",),
        split_ratios=_WDC_SPLIT,
    )


def _wdc_shoes_spec() -> BenchmarkSpec:
    schema = Schema(attributes=(Attribute("title", AttributeType.TEXT),), name="wdc_shoes")
    stats = PAPER_STATISTICS["wdc_shoes"]
    return BenchmarkSpec(
        name=stats.name,
        schema=schema,
        catalog=wdc_shoes_catalog,
        paper_train_size=stats.train_size,
        positive_rate=stats.positive_rate,
        left_corruption=_MODERATE_SOURCE,
        right_corruption=DIRTY_SOURCE,
        serialized_attributes=("title",),
        split_ratios=_WDC_SPLIT,
    )


def _dblp_scholar_spec() -> BenchmarkSpec:
    schema = Schema(
        attributes=(
            Attribute("title", AttributeType.TEXT),
            Attribute("authors", AttributeType.TEXT),
            Attribute("venue", AttributeType.CATEGORICAL),
            Attribute("year", AttributeType.NUMERIC),
        ),
        name="dblp_scholar",
    )
    stats = PAPER_STATISTICS["dblp_scholar"]
    return BenchmarkSpec(
        name=stats.name,
        schema=schema,
        catalog=dblp_scholar_catalog,
        paper_train_size=stats.train_size,
        positive_rate=stats.positive_rate,
        left_corruption=CLEAN_SOURCE,
        right_corruption=DIRTY_SOURCE,
    )


_SPEC_FACTORIES = {
    "walmart_amazon": _walmart_amazon_spec,
    "amazon_google": _amazon_google_spec,
    "wdc_cameras": _wdc_cameras_spec,
    "wdc_shoes": _wdc_shoes_spec,
    "abt_buy": _abt_buy_spec,
    "dblp_scholar": _dblp_scholar_spec,
}


def available_benchmarks() -> tuple[str, ...]:
    """Names of all benchmarks the registry can build."""
    return tuple(_SPEC_FACTORIES)


def benchmark_spec(name: str) -> BenchmarkSpec:
    """Return the :class:`BenchmarkSpec` for ``name``."""
    key = name.strip().lower().replace("-", "_")
    try:
        return _SPEC_FACTORIES[key]()
    except KeyError:
        raise DatasetError(
            unknown_name_message("benchmark", name, _SPEC_FACTORIES)) from None


def _vocabulary_fingerprint() -> str:
    """Content hash of every corruption/catalog vocabulary constant.

    The synthetic benchmarks are generated from the word lists in
    :mod:`repro.datasets.vocabularies`; editing any of them silently changes
    every generated dataset.  Folding their content into
    :func:`benchmark_fingerprint` makes that drift visible to manifest
    lockfiles.
    """
    from repro.datasets import vocabularies

    payload: dict[str, object] = {}
    for constant in sorted(dir(vocabularies)):
        if not constant.isupper():
            continue
        value = getattr(vocabularies, constant)
        if isinstance(value, tuple):
            payload[constant] = list(value)
        elif isinstance(value, dict):
            payload[constant] = dict(sorted(value.items()))
    return content_hash(payload)


def benchmark_fingerprint(name: str) -> str:
    """Content hash of everything that shapes the generated benchmark.

    Covers the spec (schema, Table 3 targets, per-source corruption configs,
    split ratios) and the generator vocabularies, but *not* the scale or the
    random seed — those are run-time inputs named by the experiment settings.
    Manifest lockfiles pin this value so a re-run can prove the referenced
    dataset still means the same thing.

    The payload values need per-field serialization (enum kinds, catalog
    names), so they stay hand-built — but the *coverage* is structural: the
    key set is checked against :func:`~repro._fingerprints.fingerprint_fields`
    of :class:`BenchmarkSpec`, so a spec field added without a matching
    payload entry fails here instead of silently not being hashed.
    """
    spec = benchmark_spec(name)
    payload = {
        "name": spec.name,
        "schema": [
            {"name": attribute.name, "kind": attribute.kind.value,
             "weight": attribute.weight}
            for attribute in spec.schema
        ],
        # Catalogs are module-level functions; falling back to the class
        # name (never an instance repr, which embeds a memory address)
        # keeps the hash content-only for callable objects too.
        "catalog": getattr(spec.catalog, "__qualname__",
                           type(spec.catalog).__qualname__),
        "paper_train_size": spec.paper_train_size,
        "positive_rate": spec.positive_rate,
        "left_corruption": dataclasses.asdict(spec.left_corruption),
        "right_corruption": dataclasses.asdict(spec.right_corruption),
        "serialized_attributes": (list(spec.serialized_attributes)
                                  if spec.serialized_attributes else None),
        "hard_negative_fraction": spec.hard_negative_fraction,
        "split_ratios": dataclasses.asdict(spec.split_ratios),
        "vocabularies": _vocabulary_fingerprint(),
    }
    covered = set(payload) - {"vocabularies"}
    required = set(fingerprint_fields(BenchmarkSpec))
    if covered != required:
        raise DatasetError(
            f"benchmark_fingerprint payload drifted from BenchmarkSpec: "
            f"missing {sorted(required - covered)}, "
            f"extra {sorted(covered - required)}")
    return content_hash(payload)


def load_benchmark(
    name: str,
    scale: ScaleProfile | str | None = None,
    random_state: RandomState = None,
) -> EMDataset:
    """Build the synthetic stand-in for the benchmark called ``name``.

    Parameters
    ----------
    name:
        One of :func:`available_benchmarks` (hyphens and case are ignored).
    scale:
        Scale profile or name; defaults to the ``REPRO_SCALE`` environment.
    random_state:
        Seed for fully reproducible generation.
    """
    spec = benchmark_spec(name)
    return build_benchmark(spec, scale=scale, random_state=random_state)
